"""Locally free sheaves presented by transition matrices.

A :class:`SheafSpec` of rank r on a :class:`~supercech.spaces.ReducedSpace`
stores, for every declared ordered overlap ``(a, b)``, an r x r matrix of
Laurent polynomials in the a-chart coordinates.  The matrix transports
section component vectors from the a-frame to the b-frame::

    v_b (expressed in a-coordinates)  =  M[(a, b)] . v_a

Every matrix is kept as sparse columns: a tuple with one column per frame,
column j the ``(row, entry)`` pairs of its nonzero entries, rows increasing.
Every operation here visits nonzero entries only.  Dense rows appear only at
the model-file edges, through :func:`columns_of` and :func:`rows_of`: sheaf
blocks read in and written out.  Gluing data build their odd matrices and
Jacobians as columns.  An exterior power is built column by column as
exterior products of columns in the one Grassmann kernel
(:func:`~supercech.grassmann._product`), so its entries, the k x k minors,
are never expanded one by one; :func:`invert_laurent_matrix` inverts columns
from prefix and suffix products in the same kernel.

Convention for the two-chart projective-line covers used throughout tests
and the golden corpus: the sheaf spec labeled ``O(n)`` has overlap matrix
``x^(-n)``, which yields dim H0 = n + 1 (n >= 0) and dim H1 = -n - 1
(n <= -2).

Constructions (dual, tensor, hom, exterior power) produce the induced
matrices; hom components are flattened row-major with the target index
major, so ``hom(A, B)`` has the Kronecker product of ``M_B`` and the dual's
``M_A^-T`` as transition.

A spec is its content: :func:`sheaf_spec` keeps one per rank and matrices
in the space's table ``specs``, which also holds each construction's result
under its name and operands, e.g. ``("hom", a, b)``, each eliminated delta0
system of a block under ``("delta0", block, bound)``, that system's H^p
basis under ``("basis", system, degree, top)``, and the two-step sequences,
theta pairings and A1 images and decisions of :mod:`supercech.secondary`
(:func:`derived_spec`).  A filtration (:func:`filtration`) is frame lists
over an interned exterior power and is not kept.
A spec's blocks (:meth:`SheafSpec.blocks`) are the frame sets its
transition matrices never mix; equal blocks, within one spec or across
specs, are one interned :func:`diagonal_block`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

from .errors import CocycleError
from .grassmann import _index_mask, _product
from .laurent import LaurentPoly, collect, mul_into
from .spaces import ReducedSpace

Column = tuple[tuple[int, LaurentPoly], ...]
Columns = tuple[Column, ...]


def columns_of(rows: list[list[LaurentPoly]]) -> Columns:
    """Sparse columns of a dense square matrix given by its rows."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"matrix with {n} rows is not square")
    return tuple(tuple((i, row[j]) for i, row in enumerate(rows) if row[j].terms)
                 for j in range(n))


def rows_of(m: Columns, vars: tuple[str, ...]) -> list[list[LaurentPoly]]:
    """Dense rows over ``vars`` of a square matrix of sparse columns."""
    zero = LaurentPoly.zero(vars)
    rows = [[zero] * len(m) for _ in m]
    for j, col in enumerate(m):
        for i, e in col:
            rows[i][j] = e
    return rows


def frame_map(vars: tuple[str, ...], accs: dict[int, dict]) -> dict[int, LaurentPoly]:
    """The nonzero polynomials over ``vars`` of accumulators (``mul_into``,
    ``add_into``) by frame index."""
    out = {}
    for f, acc in accs.items():
        terms = collect(acc)
        if terms:
            out[f] = LaurentPoly(vars, terms, trusted=True)
    return out


def mat_mul(a: Columns, b: Columns) -> Columns:
    """Product ``a . b``: column j adds up the columns of ``a`` scaled by the
    entries of column j of ``b``."""
    out = []
    for col in b:
        accs: dict[int, dict] = {}
        vars = None
        for k, y in col:
            for i, x in a[k]:
                acc = accs.get(i)
                if acc is None:
                    acc = accs[i] = {}
                mul_into(acc, x.terms, y.terms)
                vars = x.vars
        out.append(tuple(sorted(frame_map(vars, accs).items())))
    return tuple(out)


def invert_laurent_matrix(m: Columns, vars: tuple[str, ...]) -> Columns | None:
    """Inverse of a square matrix over ``vars`` when its determinant is an
    invertible monomial; ``None`` otherwise.

    Column j is the degree-one raw form ``{1 << row: entry}`` of
    :mod:`supercech.grassmann`.  The exterior product of all columns is the
    determinant times the top mask; the product of every column but j,
    joined from one prefix and one suffix product, has the minor that deletes
    row i and column j as its coefficient at the top mask without bit i, and
    that minor over the determinant, signed, is entry (j, i) of the inverse."""
    n = len(m)
    unit = {0: {(0,) * len(vars): 1}}
    columns = [{1 << i: e.terms for i, e in col} for col in m]
    prefix = [unit]  # prefix[j]: the product of the columns before j
    for col in columns:
        prefix.append(_product(prefix[-1], col, n))
    suffix = [unit] * (n + 1)  # suffix[j]: the product of the columns from j on
    for j in range(n - 1, 0, -1):
        suffix[j] = _product(columns[j], suffix[j + 1], n)
    full = (1 << n) - 1
    det = prefix[n].get(full, {})
    if len(det) != 1:
        return None
    det_inv = LaurentPoly(vars, det, trusted=True).inverse().terms
    out = [[] for _ in range(n)]
    for j in range(n):
        minors = _product(prefix[j], suffix[j + 1], n)
        for i in range(n):
            minor = minors.get(full ^ (1 << i))
            if minor:
                acc: dict = {}
                mul_into(acc, minor, det_inv, -1 if (i + j) % 2 else 1)
                out[i].append((j, LaurentPoly(vars, collect(acc), trusted=True)))
    return tuple(map(tuple, out))


def transpose(m: Columns) -> Columns:
    out = [[] for _ in m]
    for j, col in enumerate(m):
        for i, e in col:
            out[i].append((j, e))
    return tuple(map(tuple, out))


def kron(a: Columns, b: Columns) -> Columns:
    """Kronecker product of square matrices, rows and columns row-major:
    entry ((i, j), (k, l)) is a[i][k] * b[j][l].  Column (k, l) is column k
    of ``a`` times column l of ``b``, so zeros are never written."""
    n = len(b)
    return tuple(tuple((i * n + j, x * y) for i, x in ca for j, y in cb)
                 for ca in a for cb in b)


def identity_matrix(n: int, vars: tuple[str, ...]) -> Columns:
    one = LaurentPoly.const(vars, 1)
    return tuple(((j, one),) for j in range(n))


class SheafSpec:
    """Rank + per-overlap transition matrices over a reduced space."""

    def __init__(self, space: ReducedSpace, rank: int,
                 matrices: dict[tuple[str, str], Columns], check: bool = True):
        self.space = space
        self.rank = int(rank)
        self.matrices = matrices
        self.checked = False  # _verify passed
        self._transported: dict[tuple, Columns] = {}  # _matrix_in
        self._max_pole_order: int | None = None
        self._blocks: tuple[tuple[int, ...], ...] | None = None
        cover = space.cover
        for key in matrices:
            if key not in cover.overlaps:
                raise ValueError(f"matrix for {key}, which is not a declared overlap")
        for key in cover.overlaps:
            if key not in matrices:
                raise ValueError(f"missing matrix for overlap {key}")
            m = matrices[key]
            # rows increase down a column, so its ends bound them
            if len(m) != self.rank or any(col and (col[0][0] < 0 or col[-1][0] >= self.rank)
                                          for col in m):
                raise ValueError(f"matrix for {key} is not {self.rank}x{self.rank}")
        if check:
            self._verify()

    def _verify(self):
        cover = self.space.cover
        for (a, b) in cover.canonical_overlaps():
            self.inverse(a, b)
        for (a, b, c) in cover.triples:
            via = mat_mul(self._matrix_in(a, (b, c)), self.matrices[(a, b)])
            if via != self.matrices[(a, c)]:
                raise CocycleError(f"matrix cocycle fails on ({a},{b},{c})")
        self.checked = True

    def _vars(self, chart: str) -> tuple[str, ...]:
        return self.space.cover.chart(chart).vars

    def _matrix_in(self, chart: str, key: tuple[str, str]) -> Columns:
        """Matrix of overlap ``key`` re-expressed in ``chart`` coordinates."""
        src = key[0]
        m = self.matrices[key]
        if src == chart:
            return m
        moved = self._transported.get((chart, key))
        if moved is None:
            compose = self.space.compose_into
            moved = self._transported[(chart, key)] = tuple(
                tuple((i, q) for i, e in col if (q := compose(chart, src, e)).terms)
                for col in m)
        return moved

    def inverse(self, a: str, b: str) -> Columns:
        """Inverse of the (a, b) matrix: its partner (b, a) re-expressed in
        a-coordinates, checked by one product against the identity (which
        an unchecked spec may fail)."""
        inv = self._matrix_in(a, (b, a))
        if mat_mul(self.matrices[(a, b)], inv) != identity_matrix(self.rank, self._vars(a)):
            raise CocycleError(f"matrices on ({a},{b}) and ({b},{a}) are not inverse")
        return inv

    # ------------------------------------------------------------- transport

    def transport(self, frm: str, to: str,
                  frames: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
        """Re-express a frame map (the nonzero components by frame index)
        given in ``frm`` frame/coordinates in the ``to`` frame/coordinates
        (the two charts must overlap), as a frame map.  Each component is
        moved once and multiplied into the nonzero entries of its column of
        the transition matrix."""
        compose = self.space.compose_into
        columns = self._matrix_in(to, (frm, to))
        accs: dict[int, dict] = {}
        for j, p in frames.items():
            moved = compose(to, frm, p).terms
            for i, e in columns[j]:
                acc = accs.get(i)
                if acc is None:
                    acc = accs[i] = {}
                mul_into(acc, e.terms, moved)
        return frame_map(self._vars(to), accs)

    def max_pole_order(self) -> int:
        """Largest absolute exponent in the transition matrices and in the
        coordinate maps of the space (computed once)."""
        if self._max_pole_order is None:
            worst = 0
            for m in self.matrices.values():
                for col in m:
                    for _, e in col:
                        for exps in e.terms:
                            worst = max(worst, max((abs(x) for x in exps), default=0))
            for cmap in self.space.coordinate_maps.values():
                for img in cmap.values():
                    for exps in img.terms:
                        worst = max(worst, max((abs(x) for x in exps), default=0))
            self._max_pole_order = worst
        return self._max_pole_order

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The frames split into the blocks of the transition matrices: the
        connected components of the graph on frames in which every nonzero
        entry (i, j) of a matrix joins i and j.  Every matrix is block
        diagonal in this partition, so the delta0 system of the sheaf is the
        direct sum of those of its diagonal blocks.  Frames increase within
        a block, and blocks are ordered by their first frame.  Computed
        once."""
        if self._blocks is None:
            root = list(range(self.rank))    # the least frame of each component

            def find(f):
                while root[f] != f:
                    root[f] = f = root[root[f]]
                return f

            for m in self.matrices.values():
                for j, col in enumerate(m):
                    for i, _ in col:
                        a, b = find(i), find(j)
                        if a != b:
                            root[max(a, b)] = min(a, b)
            groups: dict[int, list[int]] = {}
            for f in range(self.rank):
                groups.setdefault(find(f), []).append(f)
            self._blocks = tuple(map(tuple, groups.values()))
        return self._blocks

    def same_cover(self, other: "SheafSpec") -> bool:
        return self.space is other.space or (
            self.space.cover.order == other.space.cover.order
            and self.space.coordinate_maps == other.space.coordinate_maps)


# ------------------------------------------------------------ constructions


def sheaf_spec(space: ReducedSpace, rank: int, matrices: dict[tuple[str, str], Columns],
               check: bool = False) -> SheafSpec:
    """The one spec on ``space`` with this rank and these matrices: the
    table's when it holds them, else a new one put there.  ``check`` runs
    the inverse and cocycle checks, once per spec."""
    key = (rank, tuple(sorted(matrices.items())))
    spec = space.specs.get(key)
    if spec is None:
        spec = space.specs[key] = SheafSpec(space, rank, matrices, check=check)
    elif check and not spec.checked:
        spec._verify()
    return spec


def derived_spec(space: ReducedSpace, key: tuple, build):
    """``build()`` once per construction ``key`` (interned specs, delta0
    systems the table keeps, and integers) on ``space``: a spec, a delta0
    system, the blocks of a sheaf's system, a system's H^p basis, or a
    secondary sequence, pairing, or A1 image or decision list.  The table holds the
    operand specs and systems in ``key``, so their ids cannot pass to other
    objects."""
    spec = space.specs.get(key)
    if spec is None:
        spec = space.specs[key] = build()
    return spec


def trivial_spec(space: ReducedSpace, rank: int = 1) -> SheafSpec:
    mats = {key: identity_matrix(rank, space.cover.chart(key[0]).vars)
            for key in space.cover.overlaps}
    return sheaf_spec(space, rank, mats)


def sheaf_dual(spec: SheafSpec) -> SheafSpec:
    return derived_spec(spec.space, ("dual", spec), lambda: sheaf_spec(
        spec.space, spec.rank, {key: transpose(spec.inverse(*key)) for key in spec.matrices}))


def sheaf_tensor(a: SheafSpec, b: SheafSpec) -> SheafSpec:
    if not a.same_cover(b):
        raise CocycleError("tensor factors live on different covers")
    return derived_spec(a.space, ("tensor", a, b), lambda: sheaf_spec(
        a.space, a.rank * b.rank, {key: kron(a.matrices[key], b.matrices[key]) for key in a.matrices}))


def sheaf_hom(a: SheafSpec, b: SheafSpec) -> SheafSpec:
    """Sheaf of maps from ``a`` to ``b``.  Sections are rank_b x rank_a
    matrices X with the transport X_beta = M_b . X_alpha . M_a^{-1}; they are
    flattened row-major (b-index major)."""
    if not a.same_cover(b):
        raise CocycleError("hom factors live on different covers")
    return derived_spec(a.space, ("hom", a, b), lambda: _hom(a, b))


def _hom(a: SheafSpec, b: SheafSpec) -> SheafSpec:
    dual = sheaf_dual(a)
    mats = {key: kron(b.matrices[key], dual.matrices[key]) for key in a.matrices}
    return sheaf_spec(a.space, a.rank * b.rank, mats)


def sheaf_exterior_power(spec: SheafSpec, k: int) -> SheafSpec:
    """k-th compound: basis of increasing multi-indices, entries k x k minors."""
    if k < 0:
        raise ValueError("negative exterior power")
    return derived_spec(spec.space, ("wedge", spec, k), lambda: _exterior_power(spec, k))


def _exterior_power(spec: SheafSpec, k: int) -> SheafSpec:
    """Column J of the k-th compound is the exterior product of the columns
    of J in order, each column the degree-one raw form ``{1 << row: entry}``
    of :mod:`supercech.grassmann`; the product of J's tail is kept for every
    J that shares it."""
    n = spec.rank
    idxs = list(combinations(range(n), k))
    position = {_index_mask(I): p for p, I in enumerate(idxs)}
    mats = {}
    for key, m in spec.matrices.items():
        vars = spec._vars(key[0])
        columns = [{1 << i: e.terms for i, e in col} for col in m]
        wedges = {(): {0: {(0,) * len(vars): 1}}}

        def wedge(J):
            w = wedges.get(J)
            if w is None:
                w = wedges[J] = _product(columns[J[0]], wedge(J[1:]), n)
            return w

        mats[key] = tuple(
            tuple(sorted((position[mask], LaurentPoly(vars, t, trusted=True))
                         for mask, t in wedge(J).items()))
            for J in idxs)
    return sheaf_spec(spec.space, len(idxs), mats)


# -------------------------------------------------------------- filtrations


@dataclass
class FilteredSheaf:
    """Filtration of the j-th exterior power of an extension spec by the
    number of sub-factors in each wedge monomial.

    ``pieces[k]`` holds the ambient frames of monomials with at least k
    sub-factors, ``graded[k]`` those with exactly k.  A piece or graded
    quotient is the diagonal block of the ambient spec on its frames
    (:func:`diagonal_block`), built by whoever needs it; the graded blocks
    coincide entrywise with the Kronecker products of the exterior powers
    of the two factors.
    """

    ambient: SheafSpec
    degree: int
    sub: SheafSpec
    quot: SheafSpec
    pieces: dict[int, list[int]]
    graded: dict[int, list[int]]

    def verify(self) -> None:
        """Exact block-triangularity and quotient-equals-Kronecker checks."""
        amb = self.ambient
        for sel in self.pieces.values():
            leak = frames_leak(amb, sel)
            if leak is not None:
                key, i, j = leak
                raise CocycleError(f"filtration not respected on {key} at entry ({i},{j})")
        for k, sel in self.graded.items():
            # one spec per content, so equal matrices are the same spec
            expected = sheaf_tensor(sheaf_exterior_power(self.sub, k),
                                    sheaf_exterior_power(self.quot, self.degree - k))
            if diagonal_block(amb, sel) is not expected:
                raise CocycleError(f"quotient F_{k}/F_{k+1} differs from the product matrices")


def frames_leak(spec: SheafSpec, frames: list[int]) -> tuple | None:
    """First ``(key, i, j)`` whose transition entry moves frame ``j`` of
    ``frames`` onto frame ``i`` outside them, or ``None`` when the frames
    span a subsheaf."""
    chosen = set(frames)
    for key, m in spec.matrices.items():
        first = None  # smallest outside row, then first column in frames order
        for j in frames:
            # rows increase down a column: its first outside row is its least
            i = next((i for i, _ in m[j] if i not in chosen), None)
            if i is not None and (first is None or i < first[0]):
                first = (i, j)
        if first is not None:
            return (key, *first)
    return None


def diagonal_block(spec: SheafSpec, positions: Sequence[int]) -> SheafSpec:
    """Spec of the frames at ``positions``: the diagonal blocks of the
    transition matrices (unchecked, so callers pick blocks that are).  Every
    frame in increasing order is ``spec`` itself."""
    if len(positions) == spec.rank and all(f == i for i, f in enumerate(positions)):
        return spec
    position = {f: i for i, f in enumerate(positions)}
    return sheaf_spec(
        spec.space, len(positions),
        {key: tuple(tuple(sorted((position[i], e) for i, e in m[j] if i in position))
                    for j in positions)
         for key, m in spec.matrices.items()})


def filtration(ext: SheafSpec, sub: SheafSpec, quot: SheafSpec, degree: int) -> FilteredSheaf:
    """Filtration of the degree-th exterior power of ``ext``, an extension of
    ``quot`` by ``sub`` (its first frames), by the count of sub-factors.  It
    is frame lists over the interned exterior power, so it is rebuilt on
    each call and not kept."""
    amb = sheaf_exterior_power(ext, degree)
    idxs = list(combinations(range(ext.rank), degree))
    counts = [sum(1 for i in I if i < sub.rank) for I in idxs]
    pieces: dict[int, list[int]] = {}
    graded: dict[int, list[int]] = {}
    for k in range(degree + 1):
        pieces[k] = [p for p, c in enumerate(counts) if c >= k]
        graded[k] = [p for p, c in enumerate(counts) if c == k]
    return FilteredSheaf(amb, degree, sub, quot, pieces, graded)
