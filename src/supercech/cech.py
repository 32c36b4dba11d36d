"""Cech cochains and exact cohomology decisions.

Cochains are stored on canonical tuples only (charts strictly increasing in
declaration order) and extended alternately elsewhere.  The section on a
tuple is a *frame map* ``{frame: LaurentPoly}`` in the first-listed chart's
frame and coordinates that holds only the nonzero components: a zero section
is an empty map, and every canonical tuple has one.  Every operation here
reads and writes frame maps, so its work grows with the nonzero components,
not with the rank.  A frame map is never changed once a cochain holds it, so
cochains may share them.  Dense component lists appear only at the edges: the
checking constructor accepts them, and ``section`` and ``str`` give every
frame, zeros included.

Coboundary questions are decided exactly: candidate solutions are supported
in a finite exponent window derived from the input's support plus the worst
pole order of the transition data, inside each chart's regularity cone
(nonnegative exponents in that chart's own coordinates).  Monomial reduced
coordinate changes move exponents affinely, so solutions outside the window
are impossible by support bookkeeping and the linear solve is exact.
:func:`cohomology_class` is the one decision: it reduces the cochain by the
delta0 system of its sheaf and window, eliminated once per (sheaf, window),
and returns a checked witness or the canonical residual;
:func:`solve_coboundary` and :func:`is_coboundary` are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .errors import CocycleError, WindowError
from .laurent import Coef, LaurentPoly, add_into, collect
from . import linalg
from .sheaf import (SheafSpec, diagonal_block, frame_map, frames_leak, mat_mul,
                    sheaf_hom, sheaf_tensor)

WINDOW_CAP = 60
# Largest delta0 system, in unknowns (charts x rank x window box), built for
# any window, derived or given; a larger one fails with WindowError.  The
# largest system of the corpus and the benchmark has 3072 unknowns
# (two_parameter_family, derived window 7); 50,000 unknowns take under 1 s.
MAX_UNKNOWNS = 50_000

FrameMap = dict[int, LaurentPoly]


def canonical_keys(cover, degree: int) -> list[tuple]:
    """The tuples a degree-p cochain stores, in canonical order."""
    if degree == 0:
        return [(name,) for name in cover.order]
    if degree == 1:
        return [tuple(o) for o in cover.canonical_overlaps()]
    if degree == 2:
        return [tuple(t) for t in cover.canonical_triples()]
    raise ValueError(f"degree {degree} not supported")


def _combine(u: FrameMap, v: FrameMap, sign: int = 1) -> FrameMap:
    """The frame map ``u + sign * v`` (``sign`` is 1 or -1); ``u`` itself
    when ``v`` is empty."""
    if not v:
        return u
    if not u and sign == 1:
        return v
    out = dict(u)
    for f, q in v.items():
        p = out.get(f)
        if p is None:
            out[f] = q if sign == 1 else -q
        else:
            s = p + q if sign == 1 else p - q
            if s.terms:
                out[f] = s
            else:
                del out[f]
    return out


class CechCochain:
    """Degree-p cochain valued in a sheaf spec: one frame map per canonical
    tuple in ``sections``."""

    def __init__(self, sheaf: SheafSpec, degree: int,
                 sections: dict[tuple, list[LaurentPoly]] | None = None,
                 trusted: bool = False):
        self.sheaf = sheaf
        self.degree = int(degree)
        if trusted:
            # results of arithmetic, delta and frame maps: ``sections`` has
            # every canonical key in canonical order, each a frame map of
            # nonzero polynomials in the leading chart's coordinates
            # (chart-regular in degree 0)
            self.sections: dict[tuple, FrameMap] = sections
            return
        # dense component lists (every frame, zeros included); missing keys
        # are zero
        cover = sheaf.space.cover
        self.sections = {}
        given = sections or {}
        for key in canonical_keys(cover, self.degree):
            vec = given.get(key)
            if vec is None:
                self.sections[key] = {}
                continue
            if len(vec) != sheaf.rank:
                raise ValueError(f"section on {key} has wrong rank")
            lead_vars = cover.chart(key[0]).vars
            for p in vec:
                if p.vars != lead_vars:
                    raise ValueError(f"section on {key} not in {key[0]}-coordinates")
                if self.degree == 0:
                    for exps in p.terms:
                        if any(e < 0 for e in exps):
                            raise ValueError(
                                f"degree-0 section on {key} is not chart-regular")
            self.sections[key] = {f: p for f, p in enumerate(vec) if p.terms}
        for key in given:
            if key not in self.sections:
                raise ValueError(f"{key} is not a canonical {self.degree}-tuple of this cover")

    def _like(self, sections: dict[tuple, FrameMap]) -> "CechCochain":
        return CechCochain(self.sheaf, self.degree, sections, trusted=True)

    # ------------------------------------------------------------ arithmetic

    def _check(self, other: "CechCochain"):
        if self.sheaf is not other.sheaf and self.sheaf.matrices != other.sheaf.matrices:
            raise CocycleError("cochains valued in different sheaves")
        if self.degree != other.degree:
            raise CocycleError("cochain degrees differ")

    def __add__(self, other: "CechCochain") -> "CechCochain":
        self._check(other)
        theirs = other.sections
        return self._like({k: _combine(v, theirs[k]) for k, v in self.sections.items()})

    def __neg__(self) -> "CechCochain":
        return self._like({k: {f: -p for f, p in v.items()}
                           for k, v in self.sections.items()})

    def __sub__(self, other: "CechCochain") -> "CechCochain":
        self._check(other)
        theirs = other.sections
        return self._like({k: _combine(v, theirs[k], -1) for k, v in self.sections.items()})

    def scale(self, c) -> "CechCochain":
        return self._like({k: {f: q for f, p in v.items() if (q := p.scale(c)).terms}
                           for k, v in self.sections.items()})

    def map(self, columns: list[list[tuple[int, Coef]]], sheaf: SheafSpec) -> "CechCochain":
        """The constant matrix whose column j has the nonzero entries
        ``columns[j]`` (``(row, coefficient)`` pairs) applied to every
        section; values in ``sheaf``, whose rank bounds the rows."""
        if len(columns) != self.sheaf.rank:
            raise ValueError(f"map has {len(columns)} columns, source rank is {self.sheaf.rank}")
        cover = self.sheaf.space.cover
        out = {}
        for k, v in self.sections.items():
            accs: dict[int, dict] = {}
            for j, p in v.items():
                for i, c in columns[j]:
                    acc = accs.get(i)
                    if acc is None:
                        acc = accs[i] = {}
                    add_into(acc, p.terms, c)
            out[k] = frame_map(cover.chart(k[0]).vars, accs)
        return CechCochain(sheaf, self.degree, out, trusted=True)

    def restrict(self, frames: list[int], sheaf: SheafSpec) -> "CechCochain":
        """Components on ``frames``, in that order, as a cochain valued in
        ``sheaf`` (of rank ``len(frames)``)."""
        if len(frames) != sheaf.rank:
            raise ValueError(f"{len(frames)} frames for a sheaf of rank {sheaf.rank}")
        position = {f: i for i, f in enumerate(frames)}
        return CechCochain(sheaf, self.degree, {
            k: {i: p for f, p in v.items() if (i := position.get(f)) is not None}
            for k, v in self.sections.items()}, trusted=True)

    def extend(self, frames: list[int], sheaf: SheafSpec) -> "CechCochain":
        """Cochain valued in ``sheaf`` whose component ``frames[i]`` is
        component i of this one and whose other components are zero."""
        if len(frames) != self.sheaf.rank:
            raise ValueError(f"{len(frames)} frames for a cochain of rank {self.sheaf.rank}")
        return CechCochain(sheaf, self.degree, {
            k: {frames[i]: p for i, p in v.items()} for k, v in self.sections.items()},
            trusted=True)

    def is_zero(self) -> bool:
        return not any(self.sections.values())

    def __eq__(self, other):
        return (isinstance(other, CechCochain) and self.degree == other.degree
                and self.sections == other.sections)

    def _frames(self, *charts: str) -> FrameMap:
        """The frame map on ``charts``; reversed pairs are transported with a
        sign."""
        key = tuple(charts)
        if key in self.sections:
            return self.sections[key]
        if self.degree == 1 and key[::-1] in self.sections:
            a, b = key[::-1]
            return {f: -p for f, p in self.sheaf.transport(a, b, self.sections[(a, b)]).items()}
        raise KeyError(f"no section for {key}")

    def section(self, *charts: str) -> list[LaurentPoly]:
        """Every component on ``charts``, zeros included; reversed pairs are
        transported with a sign."""
        frames = self._frames(*charts)
        zero = LaurentPoly.zero(self.sheaf.space.cover.chart(charts[0]).vars)
        return [frames.get(f, zero) for f in range(self.sheaf.rank)]

    def max_exponent(self) -> int:
        worst = 0
        for frames in self.sections.values():
            for p in frames.values():
                for exps in p.terms:
                    worst = max(worst, max((abs(e) for e in exps), default=0))
        return worst

    def __str__(self):
        lines = [f"degree-{self.degree} cochain:"]
        for key in sorted(self.sections):
            body = ", ".join(str(p) for p in self.section(*key))
            lines.append(f"  {key}: ({body})")
        return "\n".join(lines)


def cech_delta(c: CechCochain) -> CechCochain:
    """Alternating-sum coboundary with transports into the leading chart."""
    sheaf = c.sheaf
    cover = sheaf.space.cover
    sec = c.sections
    if c.degree == 0:
        out = {}
        for (a, b) in cover.canonical_overlaps():
            out[(a, b)] = _combine(sheaf.transport(b, a, sec[(b,)]), sec[(a,)], -1)
        return CechCochain(sheaf, 1, out, trusted=True)
    if c.degree == 1:
        out = {}
        for (a, b, cc) in cover.canonical_triples():
            moved = sheaf.transport(b, a, sec[(b, cc)])
            out[(a, b, cc)] = _combine(_combine(moved, sec[(a, cc)], -1), sec[(a, b)])
        return CechCochain(sheaf, 2, out, trusted=True)
    if c.degree == 2:
        if not cover.canonical_triples():
            raise ValueError("no degree-3 support on this cover")
        raise ValueError("coboundary out of degree 2 is not supported")
    raise ValueError(f"degree {c.degree} not supported")


def is_cocycle(c: CechCochain) -> bool:
    if c.degree == 1 and c.sheaf.space.cover.canonical_triples():
        return cech_delta(c).is_zero()
    if c.degree == 0:
        return cech_delta(c).is_zero()
    return True


# ------------------------------------------------------------------ windows


def auto_window(sheaf: SheafSpec, *cochains: CechCochain,
                window: int | None = None) -> int:
    if window is not None:
        return window
    bound = sheaf.max_pole_order() + 1
    for c in cochains:
        bound += c.max_exponent()
    if bound > WINDOW_CAP:
        raise WindowError(
            f"derived window {bound} exceeds cap {WINDOW_CAP}; pass an explicit window")
    return bound


def _exp_tuples(nvars: int, lo: int, hi: int):
    return iproduct(*[range(lo, hi + 1) for _ in range(nvars)])


@dataclass
class _Linearization:
    """Images of delta applied to every windowed chart-regular 0-cochain
    monomial, as sparse vectors over (overlap, frame, monomial) keys."""

    unknowns: list[tuple]                              # ((chart,), frame, exps)
    images: list[dict[tuple, Coef]]                    # per unknown
    factor: tuple | None = field(default=None, repr=False, compare=False)  # _factor


def _window_unknowns(sheaf: SheafSpec, bound: int) -> int:
    """Unknowns of the delta0 system in window ``bound``: one per chart,
    frame and exponent vector in the chart's window box."""
    cover = sheaf.space.cover
    return sum(sheaf.rank * (bound + 1) ** len(cover.chart(name).vars)
               for name in cover.order)


def _check_budget(sheaf: SheafSpec, bound: int) -> None:
    size = _window_unknowns(sheaf, bound)
    if size > MAX_UNKNOWNS:
        raise WindowError(
            f"exponent window 0..{bound} needs a delta0 system of {size} unknowns "
            f"({len(sheaf.space.cover.order)} charts x rank {sheaf.rank} x window box), "
            f"over the budget of {MAX_UNKNOWNS}; pass a smaller window")


def _basis_bound(sheaf: SheafSpec, degree: int, bound: int) -> int:
    """Window of the delta0 system behind an H^degree basis in window
    ``bound``: H^1 witnesses may need exponents one pole-order beyond it."""
    return bound if degree == 0 else bound + sheaf.max_pole_order() + 1


def check_window(sheaf: SheafSpec, window: int | None, degree: int | None = None) -> None:
    """Raise at once the WindowError over the system budget that deciding a
    class on ``sheaf`` (``degree`` None) or its H^degree basis in the
    explicit ``window`` would raise; derived windows are checked when the
    system is built."""
    if window is not None and sheaf.rank:
        _check_budget(sheaf, window if degree is None else _basis_bound(sheaf, degree, window))


def _delta0_linearization(sheaf: SheafSpec, bound: int) -> _Linearization:
    cache = sheaf.linearizations
    if bound in cache:
        return cache[bound]
    _check_budget(sheaf, bound)
    cover = sheaf.space.cover
    space = sheaf.space
    overlaps = cover.canonical_overlaps()
    # per canonical overlap (a, b): the columns of the b-to-a transition
    # in a-coordinates, nonzero entries only
    columns = {(a, b): sheaf._matrix_in(a, (b, a)) for (a, b) in overlaps}
    unknowns: list[tuple] = []
    images: list[dict[tuple, Coef]] = []
    for chart in cover.order:
        vars = cover.chart(chart).vars
        # the overlaps this chart leads or trails, in overlap order; a
        # trailing chart's monomial moves through the overlap's exponent map
        touching = [(o, o[0] == chart,
                     space.exponent_map(o[0], o[1], vars) if o[1] == chart else None)
                    for o in overlaps if chart in o]
        for frame in range(sheaf.rank):
            for exps in _exp_tuples(len(vars), 0, bound):
                contrib: dict[tuple, Coef] = {}
                for o, leads, emap in touching:
                    if leads:
                        key = (o, frame, exps)
                        s = contrib.get(key)
                        contrib[key] = -1 if s is None else s - 1
                    if emap is not None:
                        mono, mcoef = emap.term(exps, 1)
                        for r, e in columns[o][frame]:
                            for eexps, ecoef in e.terms.items():
                                key = (o, r, tuple(x + y for x, y in zip(eexps, mono)))
                                if mcoef != 1:
                                    ecoef = ecoef * mcoef
                                s = contrib.get(key)
                                s = ecoef if s is None else s + ecoef
                                if s == 0:
                                    contrib.pop(key, None)
                                else:
                                    contrib[key] = s
                unknowns.append(((chart,), frame, exps))
                images.append(contrib)
    lin = _Linearization(unknowns, images)
    cache[bound] = lin
    return lin


def _cochain_keys(c: CechCochain) -> dict[tuple, Coef]:
    """The cochain as a sparse vector over (tuple, frame, exponents) keys."""
    return {(key, frame, exps): coef for key, frames in c.sections.items()
            for frame, poly in frames.items() for exps, coef in poly.terms.items()}


def _keys_order(lin: _Linearization, cover, extra=()) -> list[tuple]:
    """Keys of the delta images and of ``extra``, ordered by canonical
    overlap, frame and exponents."""
    keys = set(extra)
    for img in lin.images:
        keys.update(img)
    overlap_pos = {tuple(o): i for i, o in enumerate(cover.canonical_overlaps())}
    return sorted(keys, key=lambda k: (overlap_pos[k[0]], k[1], k[2]))


def _sparse_rows(columns: dict[tuple, int], vectors) -> list[linalg.Row]:
    """One ``linalg`` row per sparse vector over keys, with ``columns``
    numbering the keys; entries on other keys are dropped."""
    return [[(columns[k], v) for k, v in vec.items() if k in columns] for vec in vectors]


def _factor(lin: _Linearization, cover):
    """The delta images of ``lin`` eliminated once over their own keys and
    kept on ``lin``: ``(keys, columns, reducer)``, the keys in key order and
    ``columns`` their positions."""
    if lin.factor is None:
        keys = _keys_order(lin, cover)
        columns = {k: i for i, k in enumerate(keys)}
        lin.factor = (keys, columns, linalg.SpanReducer(_sparse_rows(columns, lin.images)))
    return lin.factor


def _reduce(factor, vector: dict[tuple, Coef]):
    """``SpanReducer.reduce`` of a sparse vector over keys by a factor, with
    the residual over keys; entries on keys outside the factor's stay in the
    residual unchanged."""
    keys, columns, reducer = factor
    residual, multiples = reducer.reduce(
        {columns[k]: v for k, v in vector.items() if k in columns})
    out = {keys[i]: v for i, v in residual.items()}
    out.update((k, v) for k, v in vector.items() if k not in columns)
    return out, multiples


def _cochain_from_values(sheaf: SheafSpec, degree: int, values) -> CechCochain:
    """Cochain with the nonzero coefficient ``value`` on the (tuple, frame,
    exponents) monomial of each ``(key, value)`` pair, every key once; the
    inverse of ``_cochain_keys``.  Keys are canonical tuples, chart-regular
    in degree 0."""
    cover = sheaf.space.cover
    terms: dict[tuple, dict[int, dict]] = {}
    for (key, frame, exps), value in values:
        frames = terms.get(key)
        if frames is None:
            frames = terms[key] = {}
        t = frames.get(frame)
        if t is None:
            t = frames[frame] = {}
        t[exps] = value
    sections = {}
    for key in canonical_keys(cover, degree):
        vars = cover.chart(key[0]).vars
        sections[key] = {f: LaurentPoly(vars, collect(t), trusted=True)
                         for f, t in terms.get(key, {}).items()}
    return CechCochain(sheaf, degree, sections, trusted=True)


@dataclass
class CohomologyClass:
    """Canonical representative plus triviality witness data."""

    sheaf: SheafSpec
    degree: int
    representative: CechCochain
    trivial: bool
    witness: CechCochain | None = None

    def is_zero(self) -> bool:
        return self.trivial

    def scale(self, c) -> "CohomologyClass":
        return CohomologyClass(self.sheaf, self.degree, self.representative.scale(c),
                               self.trivial, self.witness.scale(c) if self.witness else None)

    def __eq__(self, other):
        return (isinstance(other, CohomologyClass) and self.degree == other.degree
                and self.representative == other.representative)


def cohomology_class(c: CechCochain, window: int | None = None) -> CohomologyClass:
    """The one coboundary decision for a 1-cocycle ``c``: trivial with a
    witness w, delta(w) = c, or the canonical representative, the residual
    of ``c`` after eliminating the image of delta in a fixed key order.  The
    delta0 system is eliminated once per (sheaf, window)."""
    if c.degree != 1:
        raise ValueError("class formation implemented for degree 1")
    if not is_cocycle(c):
        raise CocycleError("input is not a cocycle")
    sheaf = c.sheaf
    if sheaf.rank == 0 or c.is_zero():
        return CohomologyClass(sheaf, 1, CechCochain(sheaf, 1), True, CechCochain(sheaf, 0))
    lin = _delta0_linearization(sheaf, auto_window(sheaf, c, window=window))
    factor = _factor(lin, sheaf.space.cover)
    residual, multiples = _reduce(factor, _cochain_keys(c))
    if residual:
        return CohomologyClass(sheaf, 1, _cochain_from_values(sheaf, 1, residual.items()),
                               False, None)
    sol = factor[2].combination(multiples)
    witness = _cochain_from_values(sheaf, 0, ((lin.unknowns[u], v) for u, v in sol.items()))
    if cech_delta(witness).sections != c.sections:
        raise CocycleError("internal error: witness does not reproduce the cocycle")
    return CohomologyClass(sheaf, 1, CechCochain(sheaf, 1), True, witness)


def solve_coboundary(c: CechCochain, window: int | None = None) -> CechCochain | None:
    """Witness w with delta(w) = c, or ``None``; c must be a 1-cocycle."""
    return cohomology_class(c, window=window).witness


def is_coboundary(c: CechCochain, window: int | None = None):
    """(True, witness) or (False, canonical nontrivial representative)."""
    cls = cohomology_class(c, window=window)
    return cls.trivial, cls.witness if cls.trivial else cls.representative


# --------------------------------------------------------- cohomology bases


def cohomology_basis(sheaf: SheafSpec, degree: int, window: int | None = None) -> list[CechCochain]:
    """Exact basis of H^degree within the (auto-derived) window;
    representatives are canonical and deterministic."""
    if sheaf.rank == 0:
        return []
    bound = auto_window(sheaf, window=window)
    cover = sheaf.space.cover
    if degree == 0:
        lin = _delta0_linearization(sheaf, bound)
        _, _, reducer = _factor(lin, cover)
        return [_cochain_from_values(sheaf, 0, ((lin.unknowns[u], v) for u, v in k.items()))
                for k in reducer.kernel()]
    if degree != 1:
        raise ValueError("cohomology_basis supports degrees 0 and 1")
    # built first, so that a window over budget fails before any work
    lin = _delta0_linearization(sheaf, _basis_bound(sheaf, 1, bound))

    # candidate monomials on canonical overlaps, within each overlap's
    # regularity cone (negative exponents only in inverted coordinates)
    candidates: list[tuple] = []
    for (a, b) in cover.canonical_overlaps():
        vars = cover.chart(a).vars
        negatives = sheaf.space.negative_vars(a, b)
        ranges = [range(-bound if v in negatives else 0, bound + 1) for v in vars]
        for frame in range(sheaf.rank):
            for exps in iproduct(*ranges):
                candidates.append(((a, b), frame, exps))
    # cocycle constraint (only when triples exist)
    if cover.canonical_triples():
        images = [_cochain_keys(cech_delta(_cochain_from_values(sheaf, 1, [(cand, 1)])))
                  for cand in candidates]
        tkeys = sorted({k for img in images for k in img})
        relations = linalg.SpanReducer(
            _sparse_rows({k: i for i, k in enumerate(tkeys)}, images)).kernel()
        cocycles = [{candidates[u]: v for u, v in k.items()} for k in relations]
    else:
        cocycles = [{cand: 1} for cand in candidates]

    factor = _factor(lin, cover)
    keys = _keys_order(lin, cover, candidates)
    residuals = [_reduce(factor, cocycle)[0] for cocycle in cocycles]
    if not residuals:
        return []
    rows = _sparse_rows({k: i for i, k in enumerate(keys)}, residuals)
    return [_cochain_from_values(sheaf, 1, ((keys[i], v) for i, v in row.items()))
            for row in linalg.SpanReducer(rows).basis()]


# ------------------------------------------------------------- cup products


def cup_product(u: CechCochain, v: CechCochain) -> CechCochain:
    """(u cup v)_{i0..ip+q} = u_{i0..iq} (x) v_{iq..iq+p}, transported into
    the leading chart; values in the tensor sheaf (left factor index major)."""
    A, B = u.sheaf, v.sheaf
    if not A.same_cover(B):
        raise CocycleError("cup factors on different covers")
    target = sheaf_tensor(A, B)
    cover = A.space.cover
    qdeg, pdeg = u.degree, v.degree
    us, vs, n = u.sections, v.sections, B.rank
    out: dict[tuple, FrameMap] = {}
    if (qdeg, pdeg) == (0, 0):
        for name in cover.order:
            out[(name,)] = _tensor_vec(us[(name,)], vs[(name,)], n)
        return CechCochain(target, 0, out, trusted=True)
    if (qdeg, pdeg) == (1, 0):
        for (a, b) in cover.canonical_overlaps():
            out[(a, b)] = _tensor_vec(us[(a, b)], B.transport(b, a, vs[(b,)]), n)
        return CechCochain(target, 1, out, trusted=True)
    if (qdeg, pdeg) == (0, 1):
        for (a, b) in cover.canonical_overlaps():
            out[(a, b)] = _tensor_vec(us[(a,)], vs[(a, b)], n)
        return CechCochain(target, 1, out, trusted=True)
    if (qdeg, pdeg) == (1, 1):
        for (a, b, c) in cover.canonical_triples():
            out[(a, b, c)] = _tensor_vec(us[(a, b)], B.transport(b, a, vs[(b, c)]), n)
        return CechCochain(target, 2, out, trusted=True)
    raise ValueError(f"cup product for degrees ({qdeg},{pdeg}) not supported")


def _tensor_vec(u: FrameMap, v: FrameMap, rank_v: int) -> FrameMap:
    """Frame map of the products ``a * b`` of the nonzero components, left
    factor major over a right factor of rank ``rank_v``; Laurent
    polynomials have no zero divisors, so every product is nonzero."""
    return {i * rank_v + j: a * b for i, a in u.items() for j, b in v.items()}


# --------------------------------------------------- short exact sequences


@dataclass
class ShortExactSequence:
    """Exact sequence sub -> total -> quot of sheaf specs split by frames:
    the subsheaf is spanned by the frames ``sub_frames`` of ``total``, the
    quotient by the other frames (``quot_frames``, increasing), and both are
    diagonal blocks of ``total``."""

    total: SheafSpec
    sub_frames: list[int]
    quot_frames: list[int] = field(init=False)
    sub: SheafSpec = field(init=False)
    quot: SheafSpec = field(init=False)
    _verified: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.total.rank
        self.sub_frames = list(self.sub_frames)
        chosen = set(self.sub_frames)
        if len(chosen) != len(self.sub_frames) or any(not 0 <= f < n for f in chosen):
            raise ValueError(f"sub frames {self.sub_frames} are not distinct frames of rank {n}")
        self.quot_frames = [f for f in range(n) if f not in chosen]
        self.sub = diagonal_block(self.total, self.sub_frames)
        self.quot = diagonal_block(self.total, self.quot_frames)

    def verify(self):
        """The sub frames span a subsheaf: no transition moves them out."""
        if self._verified:
            return
        leak = frames_leak(self.total, self.sub_frames)
        if leak is not None:
            raise CocycleError(f"inclusion is not a sheaf map on {leak[0]}")
        self._verified = True

    def section_of_projection(self) -> list[tuple[tuple[int, Coef], ...]]:
        """Constant embedding of the quotient onto its frames of ``total``,
        as the columns :meth:`CechCochain.map` reads."""
        return [((f, 1),) for f in self.quot_frames]


def connecting_map(ses: ShortExactSequence, c: CechCochain) -> CechCochain:
    """Connecting homomorphism: lift onto the quotient frames, apply the
    coboundary, read off the sub-frame components.  Input degree 0 or 1
    (degree 1 requires triples to carry the output)."""
    ses.verify()
    if c.sheaf.rank != ses.quot.rank or c.sheaf.matrices != ses.quot.matrices:
        raise CocycleError("cochain is not valued in the quotient")
    # the quotient is a diagonal block of the total and c is extended by
    # zero, so the quotient frames of the boundary are delta(c): they vanish
    # exactly when c is a cocycle, that is when restricting the boundary to
    # the sub frames drops no nonzero component
    boundary = cech_delta(c.extend(ses.quot_frames, ses.total))
    result = boundary.restrict(ses.sub_frames, ses.sub)
    if any(len(v) != len(r) for v, r in zip(boundary.sections.values(),
                                            result.sections.values())):
        raise CocycleError("connecting map needs a cocycle")
    if result.degree == 1 and not is_cocycle(result):
        raise CocycleError("connecting image failed the cocycle check")
    return result


# ------------------------------------------------------------- extensions


def extension_sheaf(sub: SheafSpec, quot: SheafSpec, cocycle: CechCochain) -> SheafSpec:
    """Extension spec with block matrices [[M_sub, M_sub.X],[0, M_quot]] for
    a 1-cocycle X valued in hom(quot, sub); records the sub/quot split."""
    hom = sheaf_hom(quot, sub)
    if cocycle.degree != 1 or cocycle.sheaf.rank != hom.rank:
        raise CocycleError("extension cocycle must be a degree-1 hom(quot, sub) cochain")
    if not is_cocycle(cocycle):
        raise CocycleError("extension input is not a cocycle")
    space = sub.space
    s, q = sub.rank, quot.rank
    mats = {}
    for (a, b) in space.cover.overlaps:
        # X by columns: hom frame i * q + j is entry (i, j)
        X = [[] for _ in range(q)]
        for f, p in sorted(cocycle._frames(a, b).items()):
            i, j = divmod(f, q)
            X[j].append((i, p))
        ms = sub.matrices[(a, b)]
        mats[(a, b)] = ms + tuple(top + tuple((s + i, e) for i, e in col)
                                  for top, col in zip(mat_mul(ms, X), quot.matrices[(a, b)]))
    try:
        return SheafSpec(space, sub.rank + quot.rank, mats, extension=(sub, quot))
    except CocycleError as exc:
        raise CocycleError(f"invalid extension data: {exc}") from exc
