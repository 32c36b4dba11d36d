"""Product-type models whose odd bundle is an extension ("gt models"),
their secondary obstruction complex, and the model-class map.

A gt model over a point-reduced superspace base consists of a fiber odd
bundle spec on the curve, a trivial rank-n base spec, and an extension
cocycle theta valued in hom(fiber, base).  The exterior powers of the
extension bundle carry the filtration by base-factor count, held as frame
lists of the exterior power (:class:`~supercech.sheaf.FilteredSheaf`); the
graded spaces, the connecting differentials between them, and the
cup-with-theta construction are all computed exactly; the differential
out of gr_b is the connecting map of gr_{b+1} -> F_b/F_{b+2} -> gr_b under
hom(P, .).  The base factor is trivial, so a graded space is C(n, b)
copies of one block hom(P, Λ^a F): its dimension is decided on that block,
and its whole basis, read on the whole space, is the block's placed on the
copies by :func:`~supercech.cech.cohomology_basis`.  Each question is
decided once: the model class by one class decision, its cross-check as an
identity of cochains, and a refined lift by one coboundary solve per
filtration piece.  A model keeps no cache: the space's table
(:func:`~supercech.sheaf.derived_spec`) holds its filtrations, two-step
sequences and theta pairings, and the local bases that
:mod:`~supercech.cech` decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb, factorial

from .cech import (CechCochain, CohomologyClass, DecisionPlan, ShortExactSequence,
                   _cup_map, cech_delta, cohomology_basis, cohomology_class, connecting_map,
                   extension_sheaf, is_coboundary, is_cocycle, solve_coboundary)
from .errors import CocycleError, SupercechError
from .gluing import SuperGluingData, restrict_odd
from .grassmann import GrassmannElement, _index_mask, _koszul_sign
from .laurent import Coef, LaurentPoly, div
from .obstruction import cotangent_spec, deviation_cochain
from .sheaf import (SheafSpec, derived_spec, diagonal_block, filtration,
                    sheaf_exterior_power, sheaf_hom, sheaf_tensor, trivial_spec)
from .spaces import ReducedSpace


@dataclass
class GtModel:
    space: ReducedSpace
    fiber_spec: SheafSpec
    base_spec: SheafSpec
    theta: CechCochain          # 1-cocycle valued in hom(fiber_spec, base_spec)
    total_odd: SheafSpec        # extension_sheaf(base_spec, fiber_spec, theta)

    @property
    def base_rank(self) -> int:
        return self.base_spec.rank

    @property
    def fiber_rank(self) -> int:
        return self.fiber_spec.rank


def gt_model(space: ReducedSpace, fiber_spec: SheafSpec, base_rank: int,
             theta_sections: dict[tuple, list[LaurentPoly]]) -> GtModel:
    base_spec = trivial_spec(space, base_rank)
    hom = sheaf_hom(fiber_spec, base_spec)
    theta = CechCochain(hom, 1, theta_sections)
    if not is_cocycle(theta):
        raise CocycleError("theta is not a cocycle")
    total = extension_sheaf(base_spec, fiber_spec, theta)
    return GtModel(space, fiber_spec, base_spec, theta, total)


# -------------------------------------------------------------- model class


@dataclass
class ModelClassReport:
    cls: CohomologyClass
    cross_validated: bool    # delta(identity) = -theta as cochains


def model_class(m: GtModel) -> ModelClassReport:
    """Class of the extension cocycle; cross-validated against the connecting
    image of the identity section in the hom-twisted exact sequence, which
    is minus the cocycle on the nose (see ``MODEL_CLASS_MAP_SIGN``)."""
    cls = cohomology_class(m.theta)
    # the base frames of hom(fiber, total_odd) come first (target index major)
    ses = ShortExactSequence(sheaf_hom(m.fiber_spec, m.total_odd),
                             list(range(m.base_rank * m.fiber_rank)))
    delta1 = connecting_map(ses, _identity_section(ses.quot, m.fiber_rank))
    return ModelClassReport(cls, (delta1 + m.theta).is_zero())


# ---------------------------------------------------------- graded spaces


def _identity_section(hom_ff: SheafSpec, q: int) -> CechCochain:
    """The identity of a rank-q sheaf as a 0-cochain of its endomorphisms."""
    cover = hom_ff.space.cover
    return CechCochain(hom_ff, 0, {
        (name,): {i * (q + 1): LaurentPoly.const(cover.chart(name).vars, 1) for i in range(q)}
        for name in cover.order}, trusted=True)


def parity_spec(m: GtModel, level: int) -> SheafSpec:
    """Source of the hom sheaves: the extension bundle at odd levels, the
    cotangent spec of the reduced space at even levels."""
    if level % 2 == 1:
        return m.total_odd
    return cotangent_spec(m.space)


def quotient_spec(m: GtModel, a: int, b: int) -> SheafSpec:
    return sheaf_tensor(sheaf_exterior_power(m.base_spec, b),
                        sheaf_exterior_power(m.fiber_spec, a))


def hom_into_quotient(m: GtModel, a: int, b: int) -> SheafSpec:
    return sheaf_hom(parity_spec(m, a + b), quotient_spec(m, a, b))


def filtration_of(m: GtModel, level: int):
    return filtration(m.total_odd, m.base_spec, m.fiber_spec, level)


def _hom_frames(frames: list[int], rank_p: int) -> list[int]:
    """Frames of hom(P, X) over the frames ``frames`` of X, for P of rank
    ``rank_p`` (target index major)."""
    return [f * rank_p + k for f in frames for k in range(rank_p)]


def _block(m: GtModel, a: int, b: int) -> SheafSpec:
    """hom(P, Λ^a F), P at the parity of a + b.  The base factor is
    trivial, so the (a, b) space hom(P, Λ^b O^n ⊗ Λ^a F) is C(n, b) diagonal
    copies of it, the copy of the k-th base multi-index on the k-th range of
    contiguous frames, and every transition entry of that space is an entry
    of the block."""
    return sheaf_hom(parity_spec(m, a + b), sheaf_exterior_power(m.fiber_spec, a))


def _plan_space(m: GtModel, a: int, b: int, degree: int | None, window: int | None) -> None:
    """Raise the WindowError a :class:`~supercech.cech.DecisionPlan` on the
    whole (a, b) space would, by planning its C(n, b) copies of the block."""
    DecisionPlan(_block(m, a, b), window=window, degree=degree, copies=comb(m.base_rank, b))


@dataclass
class SecondarySpace:
    """The (a, b, p) graded space, decided on its block (:func:`_block`):
    ``dimension``, set once by :func:`secondary_space`, is C(n, b) times
    the length of the block's H^p basis.  ``spec``, the whole
    ``hom_into_quotient(m, a, b)``, and ``basis``, its H^p basis in the
    window the space was asked for, are built when read."""

    a: int
    b: int
    p: int
    dimension: int
    _model: GtModel = field(repr=False, compare=False)
    _window: int | None = field(repr=False)

    @property
    def spec(self) -> SheafSpec:
        return hom_into_quotient(self._model, self.a, self.b)

    @cached_property
    def basis(self) -> list[CechCochain]:
        """The whole space's basis, in the order the whole sheaf's decision
        gives; the block's local bases, decided for ``dimension``, are read
        from the space's table."""
        if not self.dimension:
            return []
        return cohomology_basis(self.spec, self.p, window=self._window)


def secondary_space(m: GtModel, a: int, b: int, p: int,
                    window: int | None = None) -> SecondarySpace:
    if p not in (0, 1):
        raise ValueError("degrees 0 and 1 are decided")
    _plan_space(m, a, b, p, window)
    copies = comb(m.base_rank, b)
    # a space with no copies decides no block
    block_dimension = len(cohomology_basis(_block(m, a, b), p, window=window)) if copies else 0
    return SecondarySpace(a, b, p, copies * block_dimension, m, window)


def secondary_spaces(m: GtModel, window: int | None = None) -> list[SecondarySpace]:
    """Every graded space, by level, base-factor count and degree.  Every
    basis decision is planned first, so a window over the system budget of
    any space, explicit or derived, fails before the first is computed."""
    keys = [(level - b, b, p) for level in range(1, m.total_odd.rank + 1)
            for b in range(level + 1) if level - b <= m.fiber_rank and b <= m.base_rank
            for p in (0, 1)]
    for a, b, p in keys:
        _plan_space(m, a, b, p, window)
    return [secondary_space(m, a, b, p, window=window) for a, b, p in keys]


@dataclass
class SecondaryValue:
    """Image cochain of a differential/model-class map, with decidability."""

    cochain: CechCochain
    decided: bool                 # False: zero by absence of higher cochains
    cls: CohomologyClass | None   # canonical class when degree <= 1


def _finalize(c: CechCochain, window=None) -> SecondaryValue:
    if c.degree <= 1:
        cls = cohomology_class(c, window=window) if c.degree == 1 else None
        return SecondaryValue(c, True, cls)
    decided = not c.sheaf.space.cover.canonical_triples()
    return SecondaryValue(c, decided or c.is_zero(), None)


def secondary_differential(m: GtModel, a: int, b: int, p: int,
                           nu: CechCochain, window: int | None = None) -> SecondaryValue:
    """Connecting map of hom(P, gr_{b+1}) -> hom(P, F_b/F_{b+2}) ->
    hom(P, gr_b), valued in the (a-1, b+1) graded space."""
    return _finalize(_differential_image(m, a, b, p, nu), window)


def _differential_image(m: GtModel, a: int, b: int, p: int, nu: CechCochain) -> CechCochain:
    """The cochain :func:`secondary_differential` decides.  By naturality
    of the connecting map it is also the graded part of the connecting image
    in hom(P, F_{b+1}) -> hom(P, F_b) -> hom(P, gr_b)."""
    level = a + b
    P = parity_spec(m, level)
    out_quot = quotient_spec(m, a - 1, b + 1) if a >= 1 else None
    if out_quot is None or out_quot.rank == 0:
        spec = hom_into_quotient(m, a - 1, b + 1) if out_quot is not None else \
            sheaf_hom(P, sheaf_exterior_power(m.fiber_spec, m.fiber_rank + 1))
        return CechCochain(spec, p + 1)
    if nu.degree != p:
        raise ValueError(f"nu has degree {nu.degree}, not {p}")
    return connecting_map(_two_step_sequence(m, level, b), nu)


def _two_step_sequence(m: GtModel, level: int, b: int) -> ShortExactSequence:
    """hom(P, gr_{b+1}) -> hom(P, F_b/F_{b+2}) -> hom(P, gr_b) at ``level``,
    F_b/F_{b+2} the diagonal block on the frames of gr_b and gr_{b+1}; sub
    and quotient are interned hom_into_quotient specs, as each graded block
    is a product of exterior powers (:meth:`~supercech.sheaf.FilteredSheaf.verify`)."""
    P = parity_spec(m, level)

    def build():
        filt = filtration_of(m, level)
        frames = sorted(filt.graded[b] + filt.graded[b + 1])
        inner = set(filt.graded[b + 1])
        return ShortExactSequence(
            sheaf_hom(P, diagonal_block(filt.ambient, frames)),
            _hom_frames([i for i, f in enumerate(frames) if f in inner], P.rank))

    return derived_spec(m.space, ("two-step sequence", m.total_odd, m.base_spec,
                                  m.fiber_spec, level, b), build)


# -------------------------------------------------------- model class map


def _theta_pairing_matrix(m: GtModel, a: int, b: int, rank_p: int,
                          sign_fix: int = 1) -> list[list[tuple[int, Coef]]]:
    """Constant cochain-level map realizing: contract the a-th fiber factor,
    compose with a hom(fiber, base) value, wedge the base factors.

    Maps tensor(hom(fiber, base), hom(P, quot^{a,b})) components to
    hom(P, quot^{a-1,b+1}) components; one sparse column of ``(row,
    coefficient)`` pairs per input component, rows increasing (the form
    ``CechCochain.map`` reads)."""
    n, qx = m.base_rank, m.fiber_rank
    Ia = [_index_mask(I) for I in combinations(range(qx), a)]
    Kb = [_index_mask(K) for K in combinations(range(n), b)]
    ia1pos = {_index_mask(I): i for i, I in enumerate(combinations(range(qx), a - 1))}
    kb1pos = {_index_mask(K): i for i, K in enumerate(combinations(range(n), b + 1))}
    rank_quot_in = len(Kb) * len(Ia)
    rank_in = n * qx * rank_quot_in * rank_p
    out: list[dict[int, Coef]] = [{} for _ in range(rank_in)]
    norm = div(sign_fix, factorial(a))
    for bi in range(n):
        for fi in range(qx):
            h = bi * qx + fi
            for kpos, K in enumerate(Kb):
                if K >> bi & 1:
                    continue
                wsign = _koszul_sign(K, 1 << bi)  # e_K wedge e_bi
                for ipos, I in enumerate(Ia):
                    if not I >> fi & 1:
                        continue
                    I2 = I ^ (1 << fi)
                    tsign = _koszul_sign(1 << fi, I2)  # e_I = e_fi wedge e_I2
                    qi_in = kpos * len(Ia) + ipos
                    qi_out = kb1pos[K | 1 << bi] * len(ia1pos) + ia1pos[I2]
                    coeff = norm * tsign * wsign
                    for pi in range(rank_p):
                        col = out[h * (rank_quot_in * rank_p) + (qi_in * rank_p + pi)]
                        row = qi_out * rank_p + pi
                        col[row] = col.get(row, 0) + coeff
    return [sorted((r, v) for r, v in col.items() if v) for col in out]


# The coboundary here is transport(v_b) - v_a, under which the connecting
# image of the identity section is minus the extension cocycle; the pairing
# carries the matching sign so that the cup-with-theta map coincides with the
# filtration differential on the nose.
MODEL_CLASS_MAP_SIGN = -1


def model_class_map(m: GtModel, a: int, b: int, p: int, nu: CechCochain,
                    window: int | None = None) -> SecondaryValue:
    """Cup the extension cocycle with nu through the theta pairing columns
    (:func:`~supercech.cech._cup_map`), which contract, compose and wedge;
    the image lives beside the corresponding differential."""
    if a < 1:
        raise ValueError("the map needs a >= 1")
    return _finalize(_cup_map(m.theta, nu, _theta_pairing(m, a, b),
                              hom_into_quotient(m, a - 1, b + 1)), window)


def _theta_pairing(m: GtModel, a: int, b: int) -> list[list[tuple[int, Coef]]]:
    """The model class map's columns out of the (a, b) space, built once per
    shape in the space's table."""
    rank_p, sign = parity_spec(m, a + b).rank, MODEL_CLASS_MAP_SIGN
    return derived_spec(m.space, ("theta pairing", m.base_rank, m.fiber_rank, a, b, rank_p, sign),
                        lambda: _theta_pairing_matrix(m, a, b, rank_p, sign))


# --------------------------------------------------- refined splitting type


@dataclass
class RefinedLevelReport:
    level: int
    refined_b: int | None            # largest b with a lift through F_b
    secondary: CohomologyClass | None


def refined_splitting_data(m: GtModel, cochain: CechCochain,
                           level: int, window: int | None = None) -> RefinedLevelReport:
    """Largest b such that the class lifts through hom(P, F_b): the first b,
    from the level down, for which the image in the quotient by F_b (the
    diagonal block on the frames outside F_b) is a coboundary delta(w).  F_b
    is a subsheaf, so ``cochain - delta(w)``, with w extended by zero, lies
    in it; the secondary class is the graded projection of that lift.  Every
    quotient is solved in the window of the whole sheaf."""
    P = parity_spec(m, level)
    filt = filtration_of(m, level)
    nonempty = [b for b in range(level, 0, -1) if filt.pieces[b]]
    bound = window
    if nonempty and not cochain.is_zero():
        # what a solve on the whole sheaf refuses: a non-cocycle, and a
        # window over that sheaf's budget
        if not is_cocycle(cochain):
            raise CocycleError("input is not a cocycle")
        bound = DecisionPlan(cochain.sheaf, cochain, window=window).top
    for b in nonempty:
        inside = set(filt.pieces[b])
        outside = _hom_frames([i for i in range(filt.ambient.rank) if i not in inside], P.rank)
        quot = diagonal_block(cochain.sheaf, outside)
        w = solve_coboundary(cochain.restrict(outside, quot), window=bound)
        if w is not None:
            graded = (cochain - cech_delta(w.extend(outside, cochain.sheaf))).restrict(
                _hom_frames(filt.graded[b], P.rank), hom_into_quotient(m, level - b, b))
            return RefinedLevelReport(level, b, cohomology_class(graded, window=window))
    return RefinedLevelReport(level, None, None)


# ------------------------------------------------------- containment check


@dataclass
class ContainmentSample:
    index: int
    lhs_trivial: bool
    rhs_trivial: bool
    equal: bool


@dataclass
class ContainmentReport:
    b: int
    dimension: int
    samples: list[ContainmentSample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.equal for s in self.samples)


def verify_a1_containment(m: GtModel, b: int, *,
                          window: int | None = None) -> ContainmentReport:
    """For every basis class nu of the (1, b) space in degree 0: the
    cup-with-theta image equals the differential of nu, as canonical
    representatives of degree-1 classes.  The identity pushed through
    contraction and composition repackages a (1, b) class as itself, so nu
    goes to the differential unchanged.

    The basis is read in one call, :func:`~supercech.cech.cohomology_basis`
    of the whole ``hom_into_quotient(m, 1, b)`` in ``window``, after
    :func:`check_a1_window` has planned the level; no block is decided apart
    from the whole space, and the report's dimension is the length of that
    basis.  Both images of every nu are formed first, the right one kept
    only where it differs from the left; all are valued in the one interned
    ``hom_into_quotient(m, 0, b + 1)``.  The level's two-step sequence and
    theta pairing are fetched once, and the connecting map, taken first,
    checks that nu is a 0-cocycle, so the cup reads nu on each overlap's
    leading chart and nu is moved across an overlap once per sample, not
    twice.  Then one window serves the level: ``window``, or else the
    largest window derived from a nonzero image, planned before any sample
    is decided, so an image over the cap or the system budget refuses the
    level at once.  Every sample is decided in that window, each block's
    delta0 system is built once for the level and the two sides of a sample
    are compared in the same window; triviality and equality of classes do
    not depend on the window once it is large enough for each image."""
    check_a1_window(m, b, window=window)
    basis = cohomology_basis(hom_into_quotient(m, 1, b), 0, window=window)
    images = []
    if basis:
        # the level's sequence, pairing and image sheaf, fetched once
        ses = _two_step_sequence(m, b + 1, b)
        pairing, out_spec = _theta_pairing(m, 1, b), hom_into_quotient(m, 0, b + 1)
        for nu in basis:
            # the connecting map refuses a nu that is not a 0-cocycle, so
            # the cup reads nu's leading-chart sections instead of moving it
            right = connecting_map(ses, nu)
            left = _cup_map(m.theta, nu, pairing, out_spec, v_cocycle=True)
            images.append((left, None if right == left else right))
    if window is None:
        nonzero = [c for pair in images for c in pair if c is not None and not c.is_zero()]
        if nonzero:
            widest = max(nonzero, key=CechCochain.max_exponent)
            window = DecisionPlan(widest.sheaf, widest).top
    report = ContainmentReport(b, len(basis))
    for i, (left, right) in enumerate(images):
        lhs = cohomology_class(left, window=window)
        rhs = lhs if right is None else cohomology_class(right, window=window)
        report.samples.append(ContainmentSample(
            i, lhs.trivial, rhs.trivial, lhs.representative == rhs.representative))
    return report


def check_a1_window(m: GtModel, b: int, *, window: int | None) -> None:
    """Raise at once the WindowError over the system budget that
    :func:`verify_a1_containment` may meet, by planning first the basis of
    the (1, b) space, in ``window`` or its derived window, and, with an
    explicit ``window``, a class on the (0, b + 1) piece its samples are
    decided in (whether or not the space turns out to have a basis)."""
    _plan_space(m, 1, b, 0, window)
    if window is not None:
        _plan_space(m, 0, b + 1, None, window)


# --------------------------------------------------- compatibility relation


@dataclass
class CompatibilityReport:
    ok: bool
    level: float
    total_class: CohomologyClass | None
    fiber_class: CohomologyClass | None
    detail: str = ""


def verify_obstruction_compatibility(total: SuperGluingData,
                                     base_odd: int) -> CompatibilityReport:
    """Comparison of obstruction classes for gluing data over a superspace
    base whose base odd coordinates are the trailing generators: restricting
    the level-j deviation cochain to pure-fiber wedge columns must agree,
    up to coboundary, with the deviation cochain of the underlying data.
    Implemented for even levels (deviations of the even coordinate maps)."""
    q = next(iter(total.cover.charts.values())).odd_rank
    qx = q - base_odd
    for (a, b), t in total.transitions.items():
        for k in range(qx + 1, q + 1):
            expect = GrassmannElement.odd_gen(t.source.vars, t.source.odd_rank, k)
            if t.odd_maps[k] != expect:
                raise SupercechError(
                    f"base odd coordinate theta_{k} is not mapped identically on {(a, b)}")
    level = total.splitting_type()
    fiber = restrict_odd(total, qx)
    if level == float("inf"):
        return CompatibilityReport(True, level, None, None, "both sides split")
    level = int(level)
    if level % 2 == 1:
        raise SupercechError("comparison implemented for even levels")
    w_total = deviation_cochain(total, level)
    # the restriction is valued in the fiber's deviation hom, the sheaf of
    # the fiber's own deviation cochain
    i_cochain = deviation_cochain(fiber, level)
    fib_hom = i_cochain.sheaf
    idxs_total = list(combinations(range(1, q + 1), level))
    keep = [k for k, I in enumerate(idxs_total) if all(i <= qx for i in I)]
    n_rows = w_total.sheaf.rank // len(idxs_total)
    columns = [r * len(idxs_total) + k for r in range(n_rows) for k in keep]
    p_cochain = w_total.restrict(columns, fib_hom)
    if not is_cocycle(p_cochain):
        raise CocycleError("restricted deviation data is not a cocycle")
    ok, _ = is_coboundary(p_cochain - i_cochain)
    return CompatibilityReport(
        ok, level,
        cohomology_class(p_cochain), cohomology_class(i_cochain),
        "" if ok else "restricted and underlying classes differ")
