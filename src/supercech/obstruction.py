"""Obstruction cocycles, the level-by-level splitting attempt, splitting-type
differentials, characteristic-section factorization and the scaling action.

Level-j deviation data of gluing data is packaged as a 1-cochain valued in a
hom sheaf.  With Z the degree-one odd coefficient matrices and J the reduced
Jacobians, the normalized deviation blocks ``J^-1 . D`` (j even, deviations
of the even maps) resp. ``Z^-1 . D`` (j odd, deviations of the odd maps)
satisfy the standard cocycle transformation for sections of
``hom(exterior_power(Z, j), J-spec resp. Z-spec)``; those are the sheaves in
which obstruction classes are decided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cech import (CechCochain, CohomologyClass, cohomology_class, is_cocycle,
                   solve_coboundary)
from .errors import CocycleError, LevelError, SupercechError
from .gluing import (INFINITY, SuperGluingData, SuperTransition, compose_transitions,
                     identity_transition)
from .grassmann import GrassmannElement
from .laurent import Coef, LaurentPoly, div
from .sheaf import (SheafSpec, derived_spec, mat_mul, sheaf_dual, sheaf_exterior_power,
                    sheaf_hom, sheaf_spec)


# ------------------------------------------------------------ basic specs


def tangent_spec(space) -> SheafSpec:
    """Spec with the reduced Jacobian matrices (components of vector fields)."""
    return derived_spec(space, ("tangent",), lambda: sheaf_spec(
        space, len(space.cover.chart(space.cover.order[0]).vars),
        {key: space.jacobian(*key) for key in space.cover.overlaps}))


def cotangent_spec(space) -> SheafSpec:
    return sheaf_dual(tangent_spec(space))


def deviation_hom_spec(g: SuperGluingData, level: int) -> SheafSpec:
    """Sheaf housing normalized level-j deviation cochains."""
    return sheaf_hom(*_deviation_specs(g, level))


def _deviation_specs(g: SuperGluingData, level: int) -> tuple[SheafSpec, SheafSpec]:
    """Source and target of the level-j deviation hom sheaf; the target's
    matrices are what the deviation blocks are normalized by."""
    if level < 2:
        raise ValueError(f"obstruction levels start at 2, got {level}")
    space, odd_spec = g.reduce()
    source = sheaf_exterior_power(odd_spec, level)
    return source, tangent_spec(space) if level % 2 == 0 else odd_spec


# --------------------------------------------------------------- extraction


@dataclass
class ObstructionClass:
    level: int
    cochain: CechCochain            # raw normalized deviation cocycle
    cls: CohomologyClass            # canonical class decision
    parity: str                     # "even" | "odd"


def _deviation_blocks(t: SuperTransition, level: int):
    """Sparse columns over the increasing multi-indices of weight ``level``;
    rows: target coordinates (even maps for even level, odd maps for odd
    level)."""
    q = t.source.odd_rank
    idxs = list(combinations(range(1, q + 1), level))
    pos = {I: k for k, I in enumerate(idxs)}
    if level % 2 == 0:
        rows = [t.even_maps[v].component(level) for v in t.target.vars]
    else:
        rows = [t.odd_maps[b].component(level) for b in range(1, t.target.odd_rank + 1)]
    out = [[] for _ in idxs]
    for i, row in enumerate(rows):
        for I, coeff in row.terms.items():
            out[pos[I]].append((i, coeff))
    return out


def obstruction_cocycle(g: SuperGluingData, level: int,
                        window: int | None = None) -> ObstructionClass:
    """Extract the level-j deviation cocycle; requires no deviation below j."""
    dev = g.deviation_degree()
    if dev < level:
        raise LevelError(f"deviation already present at level {dev} < {level}")
    cochain = deviation_cochain(g, level)
    cls = cohomology_class(cochain, window=window)
    return ObstructionClass(level, cochain, cls, "even" if level % 2 == 0 else "odd")


def deviation_cochain(g: SuperGluingData, level: int) -> CechCochain:
    """Normalized level-j deviation data as a hom-sheaf 1-cochain (raw, not
    reduced to a canonical representative)."""
    source, target = _deviation_specs(g, level)
    hom = sheaf_hom(source, target)
    sections = {}
    for (a, b) in g.cover.canonical_overlaps():
        t = g.transitions[(a, b)]
        blocks = _deviation_blocks(t, level)
        # the inverse of the reduced Jacobian (even levels) or of the odd
        # matrix (odd levels) of the transition
        normalizer = target.inverse(a, b)
        if g.is_family and level % 2 == 0:
            base_rows = {i for i, v in enumerate(t.target.vars) if v in g.base_vars}
            if any(i in base_rows for col in blocks for i, _ in col):
                raise CocycleError(f"deviation of ({a},{b}) has a base-direction component")
        # hom frame i * len(blocks) + j is entry (i, j)
        normalized = mat_mul(normalizer, blocks)
        sections[(a, b)] = {i * len(blocks) + j: p
                            for j, col in enumerate(normalized) for i, p in col}
    cochain = CechCochain(hom, 1, sections, trusted=True)
    if not is_cocycle(cochain):
        raise CocycleError("extracted deviation data is not a cocycle")
    return cochain


# ------------------------------------------------------------ attempt split


@dataclass
class SplitReport:
    split: bool
    witnesses: dict[str, SuperTransition] | None   # chartwise changes, when split
    split_data: SuperGluingData | None
    fatal_level: int | None = None
    fatal_class: ObstructionClass | None = None


def attempt_split(g: SuperGluingData, window: int | None = None) -> SplitReport:
    """Iteratively remove the deviation level by level.

    At each level j the deviation cocycle is tested for triviality; a witness
    is realized as a chartwise change of coordinates (identity plus degree-j
    correction) which pushes the deviation to level j + 1.  Stops with the
    first non-removable class, which is then certified nontrivial.
    """
    g.require_valid()
    q = next(iter(g.cover.charts.values())).odd_rank
    current = g
    total: dict[str, SuperTransition] | None = None
    for level in range(2, q + 1):
        dev = current.deviation_degree()
        if dev == INFINITY:
            break
        if dev > level:
            continue
        cochain = deviation_cochain(current, level)
        if cochain.is_zero():
            continue
        witness = solve_coboundary(cochain, window=window)
        if witness is None:
            cls = cohomology_class(cochain, window=window)
            return SplitReport(False, None, None, level,
                               ObstructionClass(level, cochain, cls,
                                                "even" if level % 2 == 0 else "odd"))
        corrections = _witness_to_coordinate_change(current, witness, level)
        current = current.conjugate(corrections)
        total = corrections if total is None else {
            name: compose_transitions(total[name], corrections[name]) for name in g.cover.order}
        if current.deviation_degree() <= level:
            raise SupercechError("correction did not clear the level")
    if current.deviation_degree() != INFINITY:
        raise SupercechError("levels exhausted but deviation remains")
    if total is None:
        total = {name: identity_transition(g.cover.chart(name)) for name in g.cover.order}
    return SplitReport(True, total, current)


def _witness_to_coordinate_change(g: SuperGluingData, witness: CechCochain,
                                  level: int) -> dict[str, SuperTransition]:
    """Realize a 0-cochain witness as chartwise coordinate changes
    (identity minus the witness, placed at odd degree `level`)."""
    q = next(iter(g.cover.charts.values())).odd_rank
    idxs = list(combinations(range(1, q + 1), level))
    out = {}
    for name in g.cover.order:
        chart = g.cover.chart(name)
        vars = chart.vars
        frames = witness.sections[(name,)]
        ident = identity_transition(chart)
        even = dict(ident.even_maps)
        odd = dict(ident.odd_maps)
        # hom frame t_index * len(idxs) + k is the theta^idxs[k] coefficient
        # of the correction to target coordinate t_index
        terms: dict[int, dict] = {}
        for f, coeff in sorted(frames.items()):
            t_index, k = divmod(f, len(idxs))
            terms.setdefault(t_index, {})[idxs[k]] = coeff
        for t_index, by_index in terms.items():
            correction = GrassmannElement(vars, chart.odd_rank, by_index, trusted=True)
            if level % 2 == 0:
                v = vars[t_index]
                even[v] = even[v] - correction
            else:
                b = t_index + 1
                odd[b] = odd[b] - correction
        out[name] = SuperTransition(chart, chart, even, odd, check=False)
    return out


# ---------------------------------------------------------- scaling action


def _chart_factors(g: SuperGluingData, factor) -> dict[str, LaurentPoly]:
    """The scaling factor in each chart's coordinates, by chart name.

    ``factor`` is a nonzero rational, the name of a coordinate or a Laurent
    monomial; every coordinate it uses must be on every chart."""
    if isinstance(factor, str):
        factor = LaurentPoly.var((factor,), factor)
    elif not isinstance(factor, LaurentPoly):
        factor = LaurentPoly.const((), factor)
    if factor.is_zero():
        raise ValueError("scaling factor must be nonzero")
    if not factor.is_monomial():
        raise ValueError(f"scaling factor {factor} is not a monomial")
    used = [v for v, e in zip(factor.vars, next(iter(factor.terms))) if e]
    out = {}
    for name in g.cover.order:
        vars = g.cover.chart(name).vars
        for v in used:
            if v not in vars:
                raise ValueError(f"scaling factor {factor} uses {v}, "
                                 f"which is not a coordinate of chart {name}")
        out[name] = factor.with_context(vars)
    return out


def scaling_witnesses(g: SuperGluingData, factor) -> dict[str, SuperTransition]:
    """Chartwise odd-scaling automorphisms theta -> factor * theta.

    ``factor`` is as for :func:`scaling_action`; each chart's map sends
    theta_b to theta_b / factor in that chart's coordinates.  Conjugation by
    these maps is the scaling action for any monomial factor;
    :func:`scaling_action` computes it without conjugating when the factor
    is invariant."""
    out = {}
    for name, f in _chart_factors(g, factor).items():
        chart = g.cover.chart(name)
        ident = identity_transition(chart)
        scale = f.inverse()
        odd = {b: GrassmannElement.odd_gen(chart.vars, chart.odd_rank, b) * scale
               for b in range(1, chart.odd_rank + 1)}
        out[name] = SuperTransition(chart, chart, dict(ident.even_maps), odd, check=False)
    return out


def scaling_action(g: SuperGluingData, factor) -> SuperGluingData:
    """The gluing data conjugated by the odd-coordinate scaling theta -> c*theta.

    ``factor`` is a nonzero rational, the name of a coordinate or a Laurent
    monomial, and it must be invariant: every transition maps each
    coordinate the factor uses to itself (a base coordinate of a family,
    for the one-parameter scaling family).  Otherwise a ``ValueError`` is
    raised.  For an invariant factor the conjugation re-weights terms: the
    theta^I term of every even image is multiplied by factor^|I| and that
    of every odd image by factor^(|I|-1), with the factor in the source
    chart's coordinates.  Classes at level j therefore scale by factor^j
    (j even) and factor^(j-1) (j odd).
    """
    factors = _chart_factors(g, factor)
    transitions = {}
    for (a, b), t in g.transitions.items():
        src = t.source
        f = factors[a]
        for v, e in zip(src.vars, next(iter(f.terms))):
            if e and t.even_maps[v] != GrassmannElement.even_var(src.vars, src.odd_rank, v):
                raise ValueError(f"scaling factor {factor} is not invariant: "
                                 f"transition ({a}, {b}) moves {v}")
        powers = [None, f]  # powers[k] is factor^k over the source chart
        for _ in range(1, src.odd_rank):
            powers.append(powers[-1] * f)
        even = {v: _reweighted(img, powers, 0) for v, img in t.even_maps.items()}
        odd = {k: _reweighted(img, powers, 1) for k, img in t.odd_maps.items()}
        transitions[(a, b)] = SuperTransition(src, t.target, even, odd, check=False)
    return SuperGluingData(g.cover, transitions, g.base_vars)


def _reweighted(img: GrassmannElement, powers: list[LaurentPoly],
                shift: int) -> GrassmannElement:
    """``img`` with its theta^I coefficient multiplied by
    ``powers[|I| - shift]`` (unchanged at weight zero)."""
    return GrassmannElement(img.vars, img.odd_rank, {
        I: c if len(I) == shift else c * powers[len(I) - shift]
        for I, c in img.terms.items()}, trusted=True)


def scale_class(oc: ObstructionClass, factor: Coef) -> ObstructionClass:
    """Action of the scaling on an obstruction class: factor^j for even j,
    factor^(j-1) for odd j."""
    if factor == 0:
        raise ValueError("scaling factor must be nonzero")
    power = oc.level if oc.level % 2 == 0 else oc.level - 1
    c = factor ** power
    return ObstructionClass(oc.level, oc.cochain.scale(c), oc.cls.scale(c), oc.parity)


# --------------------------------------------- splitting type differential


@dataclass
class SplittingTypeDifferential:
    """Symbolic family obstruction cochain, evaluable at base points."""

    family: SuperGluingData
    level: float
    cochain: CechCochain | None      # None for split families

    def __call__(self, point: dict[str, Coef]) -> ObstructionClass | None:
        """The obstruction class of the fiber over ``point``."""
        if self.cochain is None:
            return None
        return obstruction_cocycle(self.family.restrict_fiber(point), int(self.level))


def splitting_type_differential(g: SuperGluingData) -> SplittingTypeDifferential:
    if not g.is_family:
        raise SupercechError("splitting type differential needs a family")
    level = g.splitting_type()
    if level == INFINITY:
        return SplittingTypeDifferential(g, INFINITY, None)
    return SplittingTypeDifferential(g, level, deviation_cochain(g, int(level)))


# ------------------------------------------------ characteristic sections


@dataclass
class CharacteristicFactorization:
    ok: bool
    section: LaurentPoly | None              # s, over the base coordinates
    omega: CohomologyClass | None            # common fiber class (None if s = 0)
    level: float
    violation: str | None = None


def _fiber_of_family(g: SuperGluingData) -> SuperGluingData:
    """Structural fiber of a product-type family: the fiber over 1.  Its
    reduced space and odd bundle serve every fiber, which requires reduced
    data independent of the base coordinates."""
    for t in g.transitions.values():
        for v, img in t.reduced_map().items():
            if v not in g.base_vars and _depends_on_base(img, g.base_vars):
                raise SupercechError("reduced data depends on the base; not product-type")
        if any(_depends_on_base(e, g.base_vars) for col in t.odd_matrix() for _, e in col):
            raise SupercechError("odd bundle depends on the base; not product-type")
    return g.restrict_fiber({v: 1 for v in g.base_vars})


def _depends_on_base(poly: LaurentPoly, base_vars: tuple[str, ...]) -> bool:
    return any(poly.exponent_range(v) not in (None, (0, 0)) for v in base_vars)


def characteristic_factorization(g: SuperGluingData,
                                 window: int | None = None) -> CharacteristicFactorization:
    """Decompose the family obstruction as (base section) x (fixed fiber
    class): collect base-monomial coefficients of the deviation cochain,
    reduce each to its canonical fiber representative and certify that all of
    them lie on one rational line."""
    if not g.is_family:
        raise SupercechError("characteristic factorization needs a family")
    level = g.splitting_type()
    if level == INFINITY:
        # degenerate split case: zero section, class left undefined
        return CharacteristicFactorization(True, LaurentPoly.zero(g.base_vars),
                                           None, INFINITY)
    level = int(level)
    fam_cochain = deviation_cochain(g, level)
    fiber = _fiber_of_family(g)
    fiber_hom = deviation_hom_spec(fiber, level)

    # per-base-monomial fiber cochains: each family frame splits into one
    # part per base monomial, so a part is the only one on its frame
    by_monomial: dict[tuple[int, ...], dict[tuple, dict[int, LaurentPoly]]] = {}
    for key, frames in fam_cochain.sections.items():
        lead_fiber_vars = fiber.chart(key[0]).vars
        for frame, poly in sorted(frames.items()):
            for m, part in poly.split_by(g.base_vars).items():
                sections = by_monomial.get(m)
                if sections is None:
                    sections = by_monomial[m] = {k: {} for k in fam_cochain.sections}
                sections[key][frame] = part.with_context(lead_fiber_vars)
    monomials = sorted(by_monomial)
    reps = {m: cohomology_class(CechCochain(fiber_hom, 1, by_monomial[m], trusted=True),
                                window=window).representative
            for m in monomials}

    base_monomial = None
    for m in monomials:
        if not reps[m].is_zero():
            base_monomial = m
            break
    if base_monomial is None:
        return CharacteristicFactorization(True, LaurentPoly.zero(g.base_vars),
                                           None, level)
    r0 = reps[base_monomial]
    s_terms: dict[tuple[int, ...], Coef] = {}
    for m in monomials:
        lam = _proportionality(reps[m], r0)
        if lam is None:
            return CharacteristicFactorization(
                False, None, None, level,
                violation=f"coefficient of base monomial {m} is not a rational "
                          f"multiple of the one at {base_monomial}")
        if lam != 0:
            s_terms[m] = lam
    section = LaurentPoly(g.base_vars, s_terms)
    omega = CohomologyClass(fiber_hom, 1, r0, False, None)
    return CharacteristicFactorization(True, section, omega, level)


def _proportionality(c: CechCochain, base: CechCochain) -> Coef | None:
    """lambda with c = lambda * base for a nonzero ``base``, comparing
    canonical representatives: the ratio at the first term of ``base``,
    checked on every term by one comparison."""
    key, frames = next((key, frames) for key, frames in base.sections.items() if frames)
    f, p = next(iter(frames.items()))
    exps, pv = next(iter(p.terms.items()))
    q = c.sections[key].get(f)
    lam = div(q.terms.get(exps, 0), pv) if q is not None else 0
    return lam if base.scale(lam) == c else None
