"""Locally free sheaves presented by transition matrices.

A :class:`SheafSpec` of rank r on a :class:`~supercech.spaces.ReducedSpace`
stores, for every declared ordered overlap ``(a, b)``, an r x r matrix of
Laurent polynomials in the a-chart coordinates.  The matrix transports
section component vectors from the a-frame to the b-frame::

    v_b (expressed in a-coordinates)  =  M[(a, b)] . v_a

Convention for the two-chart projective-line covers used throughout tests
and the golden corpus: the sheaf spec labeled ``O(n)`` has overlap matrix
``x^(-n)``, which yields dim H0 = n + 1 (n >= 0) and dim H1 = -n - 1
(n <= -2).

Constructions (dual, tensor, hom, exterior power) produce the induced
matrices; hom components are flattened row-major with the target index
major, so ``hom(A, B)`` has flat transition ``kron(M_B, M_A^-T)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CocycleError
from .gluing import laurent_det
from .laurent import LaurentPoly, Q, collect, dot, mul_into
from .spaces import ReducedSpace


def mat_mul(a: list[list], b: list[list], vars: tuple[str, ...] | None = None) -> list[list]:
    """Matrix product ``a . b``.

    Entries are Laurent polynomials in one context, and either factor may
    instead be a constant matrix of rationals.  ``vars`` is the context of
    the product; by default it is read off the first entries, and the
    product of two rational matrices is rational."""
    vars = _context(vars, a, b)
    cols = list(zip(*b))
    return [[_dot(row, col, vars) for col in cols] for row in a]


def _context(vars, *matrices):
    """``vars``, or else the context of the first Laurent entry leading one
    of ``matrices``; ``None`` means the product is rational."""
    if vars is None:
        for m in matrices:
            if m and m[0] and isinstance(m[0][0], LaurentPoly):
                return m[0][0].vars
    return vars


def _dot(xs, ys, vars):
    if vars is not None:
        return dot(vars, xs, ys)
    acc = Q(0)
    for x, y in zip(xs, ys):
        if _nonzero(x) and _nonzero(y):
            acc = acc + x * y
    return acc


def _nonzero(x) -> bool:
    return not x.is_zero() if isinstance(x, LaurentPoly) else x != 0


def mat_transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def kron(a: list[list], b: list[list]) -> list[list]:
    """Row-major Kronecker product: entry ((i,j),(k,l)) = a[i][k] * b[j][l].
    Entries may be Laurent polynomials of one context or rationals; a
    product with a zero factor is one shared zero of the product's type,
    built without multiplying."""
    if not a or not b:
        return []
    vars = _context(None, a, b)
    zero = Q(0) if vars is None else LaurentPoly.zero(vars)
    out = []
    for arow in a:
        for brow in b:
            row = []
            for x in arow:
                if _nonzero(x):
                    row.extend(x * y if _nonzero(y) else zero for y in brow)
                else:
                    row.extend([zero] * len(brow))
            out.append(row)
    return out


def identity_matrix(n: int, vars: tuple[str, ...] | None = None) -> list[list]:
    """n x n identity over the Laurent polynomials in ``vars``, or over the
    rationals when ``vars`` is ``None``."""
    if vars is None:
        one, zero = Q(1), Q(0)
    else:
        one, zero = LaurentPoly.const(vars, 1), LaurentPoly.zero(vars)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def selection_matrix(positions: list[int], n: int) -> list[list[Fraction]]:
    """Constant 0/1 matrix whose row i picks coordinate ``positions[i]`` of
    an n-vector."""
    return [[Q(1) if j == p else Q(0) for j in range(n)] for p in positions]


def frame_map(vars: tuple[str, ...], accs: dict[int, dict]) -> dict[int, LaurentPoly]:
    """The nonzero polynomials over ``vars`` of accumulators (``mul_into``,
    ``add_into``) by frame index."""
    out = {}
    for f, acc in accs.items():
        terms = collect(acc)
        if terms:
            out[f] = LaurentPoly(vars, terms, trusted=True)
    return out


class SheafSpec:
    """Rank + per-overlap transition matrices over a reduced space."""

    def __init__(self, space: ReducedSpace, rank: int,
                 matrices: dict[tuple[str, str], list[list[LaurentPoly]]],
                 check: bool = True, extension: tuple | None = None):
        self.space = space
        self.rank = int(rank)
        self.matrices = matrices
        self.extension = extension  # (sub_spec, quot_spec) when built as an extension
        self.linearizations: dict = {}  # cech._delta0_linearization by window bound
        # (operand, spec) of tensor, hom and exterior powers with this spec
        # on the left, by (operation, id(operand)) or (operation, k)
        self.derived: dict[tuple, tuple] = {}
        self._dual: SheafSpec | None = None  # sheaf_dual, which every hom uses
        self._transported: dict[tuple, list[list[LaurentPoly]]] = {}  # _matrix_in
        # columns of _nonzeros_in by (chart, key)
        self._nonzeros: dict[tuple, tuple] = {}
        self._max_pole_order: int | None = None
        cover = space.cover
        for key in cover.overlaps:
            if key not in matrices:
                raise ValueError(f"missing matrix for overlap {key}")
            m = matrices[key]
            if len(m) != self.rank or any(len(r) != self.rank for r in m):
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

    def _vars(self, chart: str) -> tuple[str, ...]:
        return self.space.cover.chart(chart).vars

    def _matrix_in(self, chart: str, key: tuple[str, str]) -> list[list[LaurentPoly]]:
        """Matrix of overlap ``key`` re-expressed in ``chart`` coordinates."""
        src = key[0]
        m = self.matrices[key]
        if src == chart:
            return m
        moved = self._transported.get((chart, key))
        if moved is None:
            zero = LaurentPoly.zero(self._vars(chart))
            moved = [[self.space.compose_into(chart, src, e) if e.terms else zero for e in row]
                     for row in m]
            self._transported[(chart, key)] = moved
        return moved

    def _nonzeros_in(self, chart: str, key: tuple[str, str]) -> tuple[tuple, ...]:
        """Nonzero pattern of ``_matrix_in(chart, key)`` by column:
        ``columns[j]`` lists the ``(i, entry)`` pairs of column j with a
        nonzero entry, in increasing row order."""
        columns = self._nonzeros.get((chart, key))
        if columns is None:
            m = self._matrix_in(chart, key)
            columns = self._nonzeros[(chart, key)] = tuple(
                tuple((i, row[j]) for i, row in enumerate(m) if row[j].terms)
                for j in range(self.rank))
        return columns

    def inverse(self, a: str, b: str) -> list[list[LaurentPoly]]:
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
        columns = self._nonzeros_in(to, (frm, to))
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
                for row in m:
                    for e in row:
                        for exps in e.terms:
                            worst = max(worst, max((abs(x) for x in exps), default=0))
            for cmap in self.space.coordinate_maps.values():
                for img in cmap.values():
                    for exps in img.terms:
                        worst = max(worst, max((abs(x) for x in exps), default=0))
            self._max_pole_order = worst
        return self._max_pole_order

    def same_cover(self, other: "SheafSpec") -> bool:
        return self.space is other.space or (
            self.space.cover.order == other.space.cover.order
            and self.space.coordinate_maps == other.space.coordinate_maps)


# ------------------------------------------------------------ constructions


def trivial_spec(space: ReducedSpace, rank: int = 1) -> SheafSpec:
    mats = {key: identity_matrix(rank, space.cover.chart(key[0]).vars)
            for key in space.cover.overlaps}
    return SheafSpec(space, rank, mats, check=False)


def _derived(owner: SheafSpec, key: tuple, operand, build) -> SheafSpec:
    """``build()`` once per ``owner`` and ``key``.  The operand is kept beside
    the result, so the id in ``key`` cannot pass to another object."""
    hit = owner.derived.get(key)
    if hit is None:
        hit = owner.derived[key] = (operand, build())
    return hit[1]


def sheaf_dual(spec: SheafSpec) -> SheafSpec:
    if spec._dual is None:
        spec._dual = _dual(spec)
    return spec._dual


def _dual(spec: SheafSpec) -> SheafSpec:
    mats = {(a, b): mat_transpose(spec.inverse(a, b)) for (a, b) in spec.matrices}
    return SheafSpec(spec.space, spec.rank, mats, check=False)


def sheaf_tensor(a: SheafSpec, b: SheafSpec) -> SheafSpec:
    if not a.same_cover(b):
        raise CocycleError("tensor factors live on different covers")
    return _derived(a, ("tensor", id(b)), b, lambda: _tensor(a, b))


def _tensor(a: SheafSpec, b: SheafSpec) -> SheafSpec:
    mats = {key: kron(a.matrices[key], b.matrices[key]) for key in a.matrices}
    return SheafSpec(a.space, a.rank * b.rank, mats, check=False)


def sheaf_hom(a: SheafSpec, b: SheafSpec) -> SheafSpec:
    """Sheaf of maps from ``a`` to ``b``.  Sections are rank_b x rank_a
    matrices X with the transport X_beta = M_b . X_alpha . M_a^{-1}; they are
    flattened row-major (b-index major)."""
    if not a.same_cover(b):
        raise CocycleError("hom factors live on different covers")
    return _derived(a, ("hom", id(b)), b, lambda: _hom(a, b))


def _hom(a: SheafSpec, b: SheafSpec) -> SheafSpec:
    if a.rank == 0 or b.rank == 0:
        mats = {key: [] for key in a.matrices}
    else:
        dual = sheaf_dual(a)
        mats = {key: kron(b.matrices[key], dual.matrices[key]) for key in a.matrices}
    return SheafSpec(a.space, a.rank * b.rank, mats, check=False)


def hom_unflatten(flat: list[LaurentPoly], rank_target: int, rank_source: int) -> list[list[LaurentPoly]]:
    return [list(flat[i * rank_source:(i + 1) * rank_source]) for i in range(rank_target)]


def sheaf_exterior_power(spec: SheafSpec, k: int) -> SheafSpec:
    """k-th compound: basis of increasing multi-indices, entries k x k minors."""
    if k < 0:
        raise ValueError("negative exterior power")
    return _derived(spec, ("wedge", k), None, lambda: _exterior_power(spec, k))


def _exterior_power(spec: SheafSpec, k: int) -> SheafSpec:
    if k == 0:
        return trivial_spec(spec.space, 1)
    if k > spec.rank:
        mats = {key: [] for key in spec.matrices}
        return SheafSpec(spec.space, 0, mats, check=False)
    idxs = list(combinations(range(spec.rank), k))
    mats = {}
    for key, m in spec.matrices.items():
        out = []
        for rows in idxs:
            row_entries = []
            for cols in idxs:
                sub = [[m[r][c] for c in cols] for r in rows]
                row_entries.append(laurent_det(sub))
            out.append(row_entries)
        mats[key] = out
    return SheafSpec(spec.space, len(idxs), mats, check=False)


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
        sub, quot = self.sub, self.quot
        for k, sel in self.graded.items():
            expect_sub = sheaf_exterior_power(sub, k)
            expect_quot = sheaf_exterior_power(quot, self.degree - k)
            expected = sheaf_tensor(expect_sub, expect_quot)
            got = diagonal_block(amb, sel)
            for key in amb.matrices:
                if expected.matrices[key] != got.matrices[key]:
                    raise CocycleError(
                        f"quotient F_{k}/F_{k+1} differs from the product matrices on {key}")


def frames_leak(spec: SheafSpec, frames: list[int]) -> tuple | None:
    """First ``(key, i, j)`` whose transition entry moves frame ``j`` of
    ``frames`` onto frame ``i`` outside them, or ``None`` when the frames
    span a subsheaf."""
    chosen = set(frames)
    outside = [i for i in range(spec.rank) if i not in chosen]
    for key, m in spec.matrices.items():
        for i in outside:
            for j in frames:
                if not m[i][j].is_zero():
                    return key, i, j
    return None


def diagonal_block(spec: SheafSpec, positions: list[int]) -> SheafSpec:
    """Spec of the frames at ``positions``: the diagonal blocks of the
    transition matrices (unchecked, so callers pick blocks that are)."""
    return SheafSpec(
        spec.space, len(positions),
        {key: [[m[i][j] for j in positions] for i in positions]
         for key, m in spec.matrices.items()}, check=False)


def filtration(ext: SheafSpec, degree: int) -> FilteredSheaf:
    """Filtration of the degree-th exterior power of an extension spec by the
    count of sub-factors; requires ``ext`` to record its sub/quot split."""
    if ext.extension is None:
        raise ValueError("spec has no recorded sub/quotient split")
    sub, quot = ext.extension
    s, q = sub.rank, quot.rank
    amb = sheaf_exterior_power(ext, degree)
    idxs = list(combinations(range(ext.rank), degree))
    counts = [sum(1 for i in I if i < s) for I in idxs]
    pieces: dict[int, list[int]] = {}
    graded: dict[int, list[int]] = {}
    for k in range(degree + 1):
        pieces[k] = [p for p, c in enumerate(counts) if c >= k]
        graded[k] = [p for p, c in enumerate(counts) if c == k]
    return FilteredSheaf(amb, degree, sub, quot, pieces, graded)
