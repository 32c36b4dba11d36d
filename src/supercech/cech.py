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
are impossible by support bookkeeping and the linear solve is exact.  A
:class:`DecisionPlan` fixes the windows of one decision on a sheaf, or on
``copies`` diagonal copies of it, and refuses a system over the budget
counted on all the copies; the decision then builds the sheaf's systems in
the plan's ``bound`` (:func:`_delta0_linearization`).  Transition matrices
never mix the frames of different blocks (:meth:`SheafSpec.blocks`), so the
delta0 system of a sheaf is the direct sum of those of its diagonal blocks.

A coordinate is *inert* for a block (:func:`_inert_positions`) when it sits
at the same position in every chart, every coordinate map sends it to
itself with coefficient 1, no other coordinate image uses it and no entry of
the block's matrices does: the base coordinates of a product or Rothstein
family.  Then delta0 keeps its exponent, and the block's system in window w
is (w + 1)^inert copies of the *slice-0* system, the one whose unknowns have
exponent 0 in every inert coordinate (flat base change for a trivial
family).  So the whole system is a direct sum of *copies* (i, k): block i
on inert slice k, each a copy of that block's slice-0 system.  A slice-0
system (:class:`_Delta0System`) is built and eliminated once per (block,
window) and kept in the space's table beside the specs, and equal blocks
share it.  :func:`cohomology_class` is the one decision: it splits the
cochain into its copies once (:func:`_copies`), reduces each in its system
and places each result once on the block's frames and slice k, giving a
checked witness or the canonical residual; a slice outside the window has
no unknowns and stays in the residual.  :func:`solve_coboundary` and
:func:`is_coboundary` are views of it.  A basis is that of each distinct
system, decided once per window and kept in the table beside it, placed on
every copy in the window.  Rows of one copy touch only its columns, and each
copy keeps the relative order of rows and keys, so every result equals the
one the whole sheaf's system gives.  A block with no inert coordinate has
one slice, k = ().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product as iproduct

from .errors import CocycleError, WindowError
from .laurent import Coef, LaurentPoly, add_into, collect, mul_into
from . import linalg
from .sheaf import (SheafSpec, derived_spec, diagonal_block, frame_map, frames_leak,
                    mat_mul, sheaf_hom, sheaf_spec, sheaf_tensor)

WINDOW_CAP = 60
# Budget of a decision, in unknowns of the whole sheaf's delta0 system
# (charts x rank x window box) in its plan's ``bound``; a larger count fails
# with WindowError.  The count stays whole-sheaf although the systems built
# are smaller: one per distinct block, on the slice-0 box of its inert
# coordinates.  A graded space of a gt model, decided on one block of it,
# is planned with ``copies``, so all its copies of that block are counted.
# The largest count of the corpus and the benchmark is 3072 unknowns
# (two_parameter_family, derived window 7), and no system built for it has
# more than 16; 50,000 unknowns in one system take under 1 s.
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
        return self._restricted({f: i for i, f in enumerate(frames)}, sheaf)

    def _restricted(self, position: dict[int, int], sheaf: SheafSpec) -> "CechCochain":
        """Component ``f`` as component ``position[f]``, for the frames
        ``position`` maps, as a cochain valued in ``sheaf``."""
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
    raise ValueError(f"coboundary out of degree {c.degree} is not supported")


def is_cocycle(c: CechCochain) -> bool:
    return c.degree > 1 or cech_delta(c).is_zero()


# ------------------------------------------------------------------ windows


class DecisionPlan:
    """The windows of one decision on ``sheaf``, or on ``copies`` diagonal
    copies of it: the class of ``cochains`` (``degree`` None) or the
    H^degree basis.  ``top``, the window of the answer (witness unknowns,
    H^0 relations, H^1 candidate cocycles), is ``window`` or derived from
    the support of the sheaf and the cochains and capped at WINDOW_CAP.
    ``bound``, the window of the delta0 systems, is ``top`` plus, for an H^1
    basis, the margin of one pole order that its witnesses may need.  The
    copies share the sheaf's transition entries and so its windows, and the
    cap and the budget count all ``copies`` x rank frames: a system of more
    than MAX_UNKNOWNS unknowns raises WindowError, so a caller that must
    refuse early plans every decision first.  A plan with no frames (rank 0
    or no copies) refuses no window.  A plan builds nothing: the decision
    reads its systems with ``_delta0_linearization(sheaf, plan.bound)``."""

    def __init__(self, sheaf: SheafSpec, *cochains: CechCochain, window: int | None = None,
                 degree: int | None = None, copies: int = 1):
        rank = copies * sheaf.rank
        top = window
        if top is None:
            top = sheaf.max_pole_order() + 1 + sum(c.max_exponent() for c in cochains)
            if top > WINDOW_CAP and rank:
                raise WindowError(
                    f"derived window {top} exceeds cap {WINDOW_CAP}; pass an explicit window")
        self.top = top
        self.bound = bound = top + sheaf.max_pole_order() + 1 if degree == 1 else top
        cover = sheaf.space.cover
        size = sum(rank * (bound + 1) ** len(cover.chart(name).vars) for name in cover.order)
        if size > MAX_UNKNOWNS:
            raise WindowError(
                f"exponent window 0..{bound} needs a delta0 system of {size} unknowns "
                f"({len(cover.order)} charts x rank {rank} x window box), "
                f"over the budget of {MAX_UNKNOWNS}; pass a smaller window")


def _inert_positions(sheaf: SheafSpec) -> tuple[int, ...]:
    """The positions of the coordinates that ``sheaf`` carries as inert
    parameters: the same name at that position in every chart, sent to
    itself with coefficient 1 by every coordinate map, used by no other
    coordinate image and by no transition entry.  A family's base
    coordinates are of this kind."""
    space = sheaf.space
    cover = space.cover
    charts = [cover.chart(name).vars for name in cover.order]
    out = []
    for i, name in enumerate(charts[0]):
        if any(len(vars) <= i or vars[i] != name for vars in charts):
            continue
        unit = tuple(int(j == i) for j in range(len(charts[0])))
        if (all(img.terms == {unit: 1} if v == name else all(e[i] == 0 for e in img.terms)
                for cmap in space.coordinate_maps.values() for v, img in cmap.items())
                and all(e[i] == 0 for m in sheaf.matrices.values() for col in m
                        for _, p in col for e in p.terms)):
            out.append(i)
    return tuple(out)


def _delta0_images(sheaf: SheafSpec, bound: int,
                   inert: tuple[int, ...]) -> tuple[list[tuple], list[dict[tuple, Coef]]]:
    """The unknowns ``((chart,), frame, exps)``, one per windowed
    chart-regular 0-cochain monomial with exponent 0 in the ``inert``
    coordinates, and the image of delta on each as a sparse vector over
    ``(overlap, frame, exps)`` keys."""
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
        box = [range(1) if i in inert else range(bound + 1) for i in range(len(vars))]
        for frame in range(sheaf.rank):
            for exps in iproduct(*box):
                # a key names its overlap, which this chart leads or trails,
                # and terms within one overlap have distinct keys
                contrib: dict[tuple, Coef] = {}
                for o, leads, emap in touching:
                    if leads:
                        contrib[(o, frame, exps)] = -1
                    if emap is not None:
                        mono, mcoef = emap.term(exps, 1)
                        for r, e in columns[o][frame]:
                            for eexps, ecoef in e.terms.items():
                                contrib[(o, r, tuple(x + y for x, y in zip(eexps, mono)))] = \
                                    ecoef if mcoef == 1 else ecoef * mcoef
                unknowns.append(((chart,), frame, exps))
                images.append(contrib)
    return unknowns, images


def _in_key_order(cover, keys) -> list[tuple]:
    """``(tuple, frame, exps)`` keys ordered by canonical overlap, frame and
    exponents."""
    overlap_pos = {o: i for i, o in enumerate(cover.canonical_overlaps())}
    return sorted(keys, key=lambda k: (overlap_pos[k[0]], k[1], k[2]))


def _sparse_rows(columns: dict[tuple, int], vectors) -> list[linalg.Row]:
    """One ``linalg`` row per sparse vector over keys, with ``columns``
    numbering the keys; entries on other keys are dropped."""
    return [[(columns[k], v) for k, v in vec.items() if k in columns] for vec in vectors]


class _Delta0System:
    """The delta0 system of ``sheaf`` in window ``bound`` on slice 0,
    eliminated once.  Slice k holds the keys and unknowns whose exponents in
    the ``inert`` coordinates (:func:`_inert_positions`) are k; the rows of
    slice k touch only its columns, and the system of slice k is that of
    slice 0 moved by k.  So only slice 0 is built: its ``unknowns`` (see
    :func:`_delta0_images`), the ``keys`` of their images in key order,
    numbered by ``columns``, and the images eliminated over those columns in
    ``reducer``.  The images themselves are not kept."""

    def __init__(self, sheaf: SheafSpec, bound: int):
        self.sheaf = sheaf
        self.bound = bound
        self.inert = _inert_positions(sheaf)
        self.unknowns, images = _delta0_images(sheaf, bound, self.inert)
        self.keys = _in_key_order(sheaf.space.cover, set().union(*images))
        self.columns = {k: i for i, k in enumerate(self.keys)}
        self.reducer = linalg.SpanReducer(_sparse_rows(self.columns, images))

    def reduce(self, vector: dict[tuple, Coef]) -> tuple[dict[tuple, Coef], dict[int, Coef]]:
        """``SpanReducer.reduce`` of a sparse vector over keys of slice 0,
        with the residual over keys; entries on keys outside the system's
        stay in the residual unchanged."""
        columns, keys = self.columns, self.keys
        residual, multiples = self.reducer.reduce(
            {columns[k]: v for k, v in vector.items() if k in columns})
        out = {keys[i]: v for i, v in residual.items()}
        out.update((k, v) for k, v in vector.items() if k not in columns)
        return out, multiples


def _moved_exps(inert: tuple[int, ...], k: tuple, exps: tuple) -> tuple:
    """``exps`` with those of the ``inert`` coordinates set to ``k``."""
    out = list(exps)
    for i, e in zip(inert, k):
        out[i] = e
    return tuple(out)


def _delta0_linearization(sheaf: SheafSpec,
                          bound: int) -> list[tuple[tuple[int, ...], _Delta0System]]:
    """The delta0 system of ``sheaf`` in window ``bound``, block by block:
    a ``(frames, system)`` pair per block of :meth:`SheafSpec.blocks`, where
    ``system`` belongs to the interned diagonal block on ``frames`` and is
    kept in the space's table under ``("delta0", block, bound)``, so equal
    blocks share one, also across specs.  Called once per decision, with its
    :class:`DecisionPlan`'s ``bound``."""
    space = sheaf.space

    def system(block):
        return derived_spec(space, ("delta0", block, bound), lambda: _Delta0System(block, bound))

    return derived_spec(space, ("delta0 blocks", sheaf, bound), lambda: [
        (frames, system(diagonal_block(sheaf, frames))) for frames in sheaf.blocks()])


def _copies(blocks, c: CechCochain) -> dict[tuple, dict[tuple, Coef]]:
    """The cochain split into its copies: one sparse vector over (tuple,
    frame, exponents) keys of slice 0 per copy (i, k) it meets, block i of
    ``blocks`` (see :func:`_delta0_linearization`) on inert slice k, with
    each frame numbered within its block."""
    where = {f: (i, local) for i, (frames, _) in enumerate(blocks)
             for local, f in enumerate(frames)}
    parts: dict[tuple, dict[tuple, Coef]] = {}
    for key, frames in c.sections.items():
        for f, poly in frames.items():
            i, local = where[f]
            inert = blocks[i][1].inert
            zero = (0,) * len(inert)
            for exps, coef in poly.terms.items():
                k = tuple(exps[j] for j in inert)
                part = parts.get((i, k))
                if part is None:
                    part = parts[(i, k)] = {}
                part[(key, local, _moved_exps(inert, zero, exps) if inert else exps)] = coef
    return parts


def _placed(frames: tuple[int, ...], inert: tuple[int, ...], k: tuple, items):
    """``((key, frame, exps), value)`` items of a block's slice 0, frames
    numbered within it, as items of the whole sheaf on the block's
    ``frames`` and slice ``k``."""
    if not any(k):
        return (((key, frames[f], exps), v) for (key, f, exps), v in items)
    return (((key, frames[f], _moved_exps(inert, k, exps)), v) for (key, f, exps), v in items)


def _placed_cochain(c: CechCochain, frames: tuple[int, ...], inert: tuple[int, ...],
                    k: tuple, sheaf: SheafSpec) -> CechCochain:
    """A cochain of a block's slice 0 as one valued in ``sheaf`` on the
    block's ``frames`` and slice ``k``; on slice 0 it shares the block's
    polynomials."""
    if any(k):
        c = c._like({key: {f: LaurentPoly(p.vars, {_moved_exps(inert, k, e): v
                                                   for e, v in p.terms.items()},
                                          trusted=True)
                           for f, p in fm.items()}
                     for key, fm in c.sections.items()})
    return c.extend(frames, sheaf)


def _cochain_keys(c: CechCochain) -> dict[tuple, Coef]:
    """The cochain as a sparse vector over (tuple, frame, exponents) keys."""
    return {(key, frame, exps): coef for key, frames in c.sections.items()
            for frame, poly in frames.items() for exps, coef in poly.terms.items()}


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
    slice-0 system of each block is eliminated once per (block, window)."""
    if c.degree != 1:
        raise ValueError("class formation implemented for degree 1")
    if not is_cocycle(c):
        raise CocycleError("input is not a cocycle")
    sheaf = c.sheaf
    if c.is_zero():
        return CohomologyClass(sheaf, 1, CechCochain(sheaf, 1), True, CechCochain(sheaf, 0))
    blocks = _delta0_linearization(sheaf, DecisionPlan(sheaf, c, window=window).bound)
    # rows of one copy never touch another copy's columns, so each copy
    # reduces in its block's slice-0 system exactly as in the whole one; a
    # slice outside the window has no unknowns and stays as it is
    reduced = []
    for (i, k), part in _copies(blocks, c).items():
        frames, system = blocks[i]
        if all(0 <= e <= system.bound for e in k):
            reduced.append((frames, system, k, *system.reduce(part)))
        else:
            reduced.append((frames, system, k, part, {}))
    residual = [item for frames, system, k, r, _ in reduced
                for item in _placed(frames, system.inert, k, r.items())]
    if residual:
        return CohomologyClass(sheaf, 1, _cochain_from_values(sheaf, 1, residual), False, None)
    witness = _cochain_from_values(sheaf, 0, (
        item for frames, system, k, _, multiples in reduced
        for item in _placed(frames, system.inert, k, (
            (system.unknowns[u], v)
            for u, v in system.reducer.combination(multiples).items()))))
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
    representatives are canonical and deterministic.  The basis of each
    distinct slice-0 system is decided once per (degree, window) and kept in
    the space's table under ``("basis", system, degree, top)``, so every
    sheaf with a copy of that system reads it there; it is placed on each
    copy, and the union is put in the order the whole sheaf's system gives:
    H^0 relations by their dependent unknown, H^1 reduced rows by their
    pivot key."""
    return [c for _, c in _keyed_basis(sheaf, degree, window)]


def _keyed_basis(sheaf: SheafSpec, degree: int, window: int | None) -> list[tuple]:
    """:func:`cohomology_basis` with each class's sort key: the tuple
    position, frame and exponents of its dependent unknown or pivot key."""
    if degree not in (0, 1):
        raise ValueError("cohomology_basis supports degrees 0 and 1")
    plan = DecisionPlan(sheaf, window=window, degree=degree)
    blocks, top = _delta0_linearization(sheaf, plan.bound), plan.top
    position = {key: i for i, key in enumerate(canonical_keys(sheaf.space.cover, degree))}
    local_basis = _h0_basis if degree == 0 else partial(_h1_basis, top=top)
    found: list[tuple[tuple, CechCochain]] = []
    for frames, system in blocks:
        local = derived_spec(sheaf.space, ("basis", system, degree, top),
                             partial(local_basis, system))
        # the basis of copy (frames, k) is that of slice 0 placed there, for
        # every k whose unknowns (H^0) or candidates (H^1) lie in the window
        inert = system.inert
        for k in iproduct(*[range(top + 1)] * len(inert)):
            found += [((position[key], f, exps), _placed_cochain(c, frames, inert, k, sheaf))
                      for (key, f, exps), c in _placed(frames, inert, k, local)]
    found.sort(key=lambda item: item[0])
    return found


def _h0_basis(system: _Delta0System) -> list[tuple[tuple, CechCochain]]:
    """The kernel relations of a block's system as 0-cochains, each with
    its dependent unknown."""
    reducer, unknowns = system.reducer, system.unknowns
    return [(unknowns[i], _cochain_from_values(system.sheaf, 0, ((unknowns[u], v)
                                                               for u, v in k.items())))
            for (i, _), k in zip(reducer.dependent, reducer.kernel())]


def _h1_basis(system: _Delta0System, top: int) -> list[tuple[tuple, CechCochain]]:
    """The H^1 basis of a block, from its candidate cocycles in window
    ``top``: the reduced row echelon form of their residuals, each row with
    its pivot key."""
    sheaf = system.sheaf
    cover = sheaf.space.cover
    # candidate monomials of slice 0 on canonical overlaps, within each
    # overlap's regularity cone (negative exponents only in inverted
    # coordinates, never in inert ones)
    candidates: list[tuple] = []
    for (a, b) in cover.canonical_overlaps():
        vars = cover.chart(a).vars
        negatives = sheaf.space.negative_vars(a, b)
        ranges = [range(1) if i in system.inert else
                  range(-top if v in negatives else 0, top + 1)
                  for i, v in enumerate(vars)]
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

    residuals = [system.reduce(cocycle)[0] for cocycle in cocycles]
    keys = _in_key_order(cover, set().union(*residuals))
    rows = _sparse_rows({k: i for i, k in enumerate(keys)}, residuals)
    return [(keys[min(row)],
             _cochain_from_values(sheaf, 1, ((keys[i], v) for i, v in row.items())))
            for row in linalg.SpanReducer(rows).basis()]


# ------------------------------------------------------------- cup products


def cup_product(u: CechCochain, v: CechCochain) -> CechCochain:
    """(u cup v)_{i0..ip+q} = u_{i0..iq} (x) v_{iq..iq+p}, transported into
    the leading chart; values in the tensor sheaf (left factor index major).
    Both degrees are 0 or 1."""
    if not u.sheaf.same_cover(v.sheaf):
        raise CocycleError("cup factors on different covers")
    tensor = sheaf_tensor(u.sheaf, v.sheaf)
    return _cup_map(u, v, [((f, 1),) for f in range(tensor.rank)], tensor)


def _cup_map(u: CechCochain, v: CechCochain, columns: list[list[tuple[int, Coef]]],
             sheaf: SheafSpec, v_cocycle: bool = False) -> CechCochain:
    """``cup_product(u, v).map(columns, sheaf)`` without the tensor sheaf:
    column ``i * rank(v) + j`` takes the product of component i of u and
    component j of v, and a product whose column is empty is not formed.
    ``v_cocycle`` says that v is a 0-cocycle, checked by the caller: its
    section on an overlap's trailing chart, moved into the leading one, is
    its section there, which is read instead."""
    qdeg, pdeg = u.degree, v.degree
    if qdeg not in (0, 1) or pdeg not in (0, 1):
        raise ValueError(f"cup product for degrees ({qdeg},{pdeg}) not supported")
    B = v.sheaf
    cover = B.space.cover
    us, vs, n = u.sections, v.sections, B.rank
    out: dict[tuple, FrameMap] = {}
    for key in canonical_keys(cover, qdeg + pdeg):
        right = vs[key[qdeg:]]
        if qdeg == 1:
            right = vs[key[:1]] if v_cocycle else B.transport(key[1], key[0], right)
        accs: dict[int, dict] = {}
        for i, a in us[key[:qdeg + 1]].items():
            row = i * n
            for j, b in right.items():
                for r, c in columns[row + j]:
                    acc = accs.get(r)
                    if acc is None:
                        acc = accs[r] = {}
                    mul_into(acc, a.terms, b.terms, c)
        out[key] = frame_map(cover.chart(key[0]).vars, accs)
    return CechCochain(sheaf, qdeg + pdeg, out, trusted=True)


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
    _sub_position: dict[int, int] = field(init=False, compare=False, repr=False)
    quot: SheafSpec = field(init=False)
    _verified: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.total.rank
        self.sub_frames = list(self.sub_frames)
        chosen = set(self.sub_frames)
        if len(chosen) != len(self.sub_frames) or any(not 0 <= f < n for f in chosen):
            raise ValueError(f"sub frames {self.sub_frames} are not distinct frames of rank {n}")
        self.quot_frames = [f for f in range(n) if f not in chosen]
        # where each sub frame goes in the subsheaf, built once for every
        # connecting map through this sequence
        self._sub_position = {f: i for i, f in enumerate(self.sub_frames)}
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
    result = boundary._restricted(ses._sub_position, ses.sub)
    if any(len(v) != len(r) for v, r in zip(boundary.sections.values(),
                                            result.sections.values())):
        raise CocycleError("connecting map needs a cocycle")
    if not is_cocycle(result):
        raise CocycleError("connecting image failed the cocycle check")
    return result


# ------------------------------------------------------------- extensions


def extension_sheaf(sub: SheafSpec, quot: SheafSpec, cocycle: CechCochain) -> SheafSpec:
    """Extension spec with block matrices [[M_sub, M_sub.X],[0, M_quot]] for
    a 1-cocycle X valued in hom(quot, sub)."""
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
        return sheaf_spec(space, sub.rank + quot.rank, mats, check=True)
    except CocycleError as exc:
        raise CocycleError(f"invalid extension data: {exc}") from exc
