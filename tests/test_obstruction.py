import random
from fractions import Fraction as Q
from functools import cache
from importlib import resources
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import supercech
import dense_reference
from supercech.cech import CechCochain, cohomology_class, is_cocycle
from supercech.errors import CocycleError, LevelError, SupercechError
from supercech.family import extend_with_base, rothstein_family
from supercech.gluing import INFINITY, SuperGluingData, SuperTransition, identity_transition
from supercech.laurent import LaurentPoly
from supercech.modelfile import parse_model_text
from supercech.obstruction import (ObstructionClass, _proportionality, attempt_split,
                                   characteristic_factorization, deviation_cochain,
                                   deviation_hom_spec, obstruction_cocycle,
                                   scale_class, scaling_action,
                                   splitting_type_differential)
from supercech.parsing import parse_element
from supercech.sheaf import trivial_spec
from supercech.spaces import Chart, Cover

from conftest import load_model, perfbench_models, random_grassmann
from dense_reference import constant_value, evaluate


def P(chart, text):
    return parse_element(text, chart.vars, chart.odd_rank)


def test_split_model_has_zero_classes(split_p1):
    for level in (2,):
        oc = obstruction_cocycle(split_p1, level)
        assert oc.cochain.is_zero() and oc.cls.trivial


def test_nonsplit_class_extraction(nonsplit_p1):
    oc = obstruction_cocycle(nonsplit_p1, 2)
    assert oc.parity == "even"
    assert not oc.cls.trivial
    rep = oc.cls.representative.section("U0", "U1")
    assert [str(p) for p in rep] == ["-x^-1"]
    assert is_cocycle(oc.cochain)


def test_level_error_below_deviation(nonsplit_p1):
    with pytest.raises(LevelError):
        obstruction_cocycle(nonsplit_p1, 3)


@pytest.mark.parametrize("level", [-1, 0, 1])
def test_obstruction_levels_start_at_two(nonsplit_p1, level):
    message = f"obstruction levels start at 2, got {level}"
    for extract in (obstruction_cocycle, deviation_cochain, deviation_hom_spec):
        with pytest.raises(ValueError, match=message):
            extract(nonsplit_p1, level)


def test_odd_level_extraction(nonsplit_p1_level3):
    oc = obstruction_cocycle(nonsplit_p1_level3, 3)
    assert oc.parity == "odd"
    assert not oc.cls.trivial


@pytest.mark.parametrize("lam", [Q(2), Q(3), Q(-1), Q(1, 2)])
def test_scaling_equivariance_even(nonsplit_p1, lam):
    oc = obstruction_cocycle(nonsplit_p1, 2)
    scaled = obstruction_cocycle(scaling_action(nonsplit_p1, lam), 2)
    expected = scale_class(oc, lam)
    assert scaled.cochain == expected.cochain
    assert scaled.cls.representative == expected.cls.representative


@pytest.mark.parametrize("lam", [Q(2), Q(3), Q(-1), Q(1, 2)])
def test_scaling_equivariance_odd(nonsplit_p1_level3, lam):
    oc = obstruction_cocycle(nonsplit_p1_level3, 3)
    scaled = obstruction_cocycle(scaling_action(nonsplit_p1_level3, lam), 3)
    expected = scale_class(oc, lam)   # lambda^(j-1) for odd j
    assert scaled.cochain == expected.cochain


def test_scaling_identity_and_zero(nonsplit_p1):
    assert scaling_action(nonsplit_p1, Q(1)) == nonsplit_p1
    with pytest.raises(ValueError):
        scaling_action(nonsplit_p1, 0)


def test_attempt_split_reports_fatal_level(nonsplit_p1):
    result = attempt_split(nonsplit_p1)
    assert not result.split
    assert result.fatal_level == 2
    assert not result.fatal_class.cls.trivial


def test_attempt_split_identity_on_split(split_p1):
    result = attempt_split(split_p1)
    assert result.split
    for w in result.witnesses.values():
        assert w.is_identity()


def random_conjugator(rng, chart, max_level):
    """Identity plus random chart-regular corrections of odd degree 2 (and 3
    when the rank allows), realized as an exact coordinate change."""
    ident = identity_transition(chart)
    even = dict(ident.even_maps)
    odd = dict(ident.odd_maps)
    correction = random_grassmann(rng, chart.vars, chart.odd_rank,
                                  exp_range=(0, 2), parity="even").component(2)
    v = chart.fiber_vars[0]
    even[v] = even[v] + correction
    if chart.odd_rank >= 3 and max_level >= 3:
        oc = random_grassmann(rng, chart.vars, chart.odd_rank,
                              exp_range=(0, 2), parity="odd").component(3)
        odd[1] = odd[1] + oc
    return SuperTransition(chart, chart, even, odd)


@pytest.mark.parametrize("seed", range(6))
def test_attempt_split_inverts_random_conjugations(split_p1, seed):
    rng = random.Random(seed)
    witnesses = {name: random_conjugator(rng, split_p1.chart(name), 2)
                 for name in split_p1.cover.order}
    conj = split_p1.conjugate(witnesses)
    assert conj.verify_cocycle().ok
    result = attempt_split(conj)
    assert result.split
    assert result.split_data.deviation_degree() == INFINITY


@pytest.mark.parametrize("seed", range(4))
def test_attempt_split_on_rank3_conjugates(nonsplit_p1_level3, seed):
    # conjugating the SPLIT rank-3 model by degree-2 and degree-3 corrections
    from supercech.gluing import SuperGluingData
    from supercech.spaces import Chart, Cover
    g = nonsplit_p1_level3
    split_transitions = {}
    for key, t in g.transitions.items():
        even = {v: P(t.source, str(e.body())) for v, e in t.even_maps.items()}
        odd = {k: o.component(1) for k, o in t.odd_maps.items()}
        split_transitions[key] = SuperTransition(t.source, t.target, even, odd)
    split3 = SuperGluingData(g.cover, split_transitions)
    assert split3.splitting_type() == INFINITY
    rng = random.Random(100 + seed)
    witnesses = {name: random_conjugator(rng, split3.chart(name), 3)
                 for name in split3.cover.order}
    conj = split3.conjugate(witnesses)
    result = attempt_split(conj)
    assert result.split


def _gauged_q5():
    """A gauged split model of odd rank 5, deviating at level 2."""
    return parse_model_text(perfbench_models().gauged_model(
        supercech, random.Random(1), 5, planted=False)).gluing


def test_attempt_split_refuses_a_correction_that_clears_nothing(monkeypatch):
    from supercech import obstruction
    g = _gauged_q5()
    assert g.deviation_degree() == 2 and attempt_split(g).split
    monkeypatch.setattr(obstruction, "_witness_to_coordinate_change", lambda g, witness, level: {
        name: identity_transition(g.cover.chart(name)) for name in g.cover.order})
    with pytest.raises(SupercechError) as err:
        attempt_split(g)
    assert err.value.args == ("correction did not clear the level",)


def test_attempt_split_refuses_a_deviation_left_after_the_last_level(monkeypatch):
    from supercech import obstruction
    deviation = obstruction.deviation_cochain
    monkeypatch.setattr(obstruction, "deviation_cochain", lambda g, level: CechCochain(
        deviation(g, level).sheaf, 1))
    with pytest.raises(SupercechError) as err:
        attempt_split(_gauged_q5())
    assert err.value.args == ("levels exhausted but deviation remains",)


def test_differential_and_factorization(two_parameter_family):
    g = two_parameter_family
    d = splitting_type_differential(g)
    assert d.level == 2
    # evaluation pushes to the fiber
    oc = d({"t1": Q(1), "t2": Q(1)})
    assert not oc.cls.trivial
    oc0 = d({"t1": Q(0), "t2": Q(0)})
    assert oc0.cls.trivial
    cf = characteristic_factorization(g)
    assert cf.ok
    from supercech.laurent import LaurentPoly
    assert cf.section == LaurentPoly(("t1", "t2"), {(1, 0): Q(1), (0, 2): Q(1)})
    assert [str(p) for p in cf.omega.representative.section("U0", "U1")] == ["-x^-1"]


def evaluated_differential(d, point):
    """The fiber class over ``point`` read off the family's deviation
    cochain: every entry evaluated at the point, the base-coordinate target
    rows (zero by the family structure) dropped at even levels."""
    level = int(d.level)
    fiber = d.family.restrict_fiber(point)
    hom = deviation_hom_spec(fiber, level)
    q = next(iter(fiber.cover.charts.values())).odd_rank
    n_idx = len(list(combinations(range(q), level)))
    sections = {}
    for key in d.cochain.sections:
        vec = d.cochain.section(*key)
        family_chart = d.family.cover.chart(key[0])
        lead = fiber.cover.chart(key[0]).vars
        if level % 2 == 0:
            rows = [i for i, v in enumerate(family_chart.vars) if v not in d.family.base_vars]
        else:
            rows = range(family_chart.odd_rank)
        sections[key] = [evaluate(vec[i * n_idx + k], point).with_context(lead)
                         for i in rows for k in range(n_idx)]
    cochain = CechCochain(hom, 1, sections)
    return ObstructionClass(level, cochain, cohomology_class(cochain),
                            "even" if level % 2 == 0 else "odd")


def differential_families():
    out = []
    for name in ("nonsplit_p1", "nonsplit_p1_level3", "gtm_odd_base", "two_parameter_family"):
        out.append(rothstein_family(load_model(f"{name}.model").gluing).gluing)
    return out + [load_model("two_parameter_family.model").gluing]


VALUES = [Q(0), Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 3), Q(3), Q(5, 2), Q(1, 7), Q(-4), Q(7, 3)]


def outcome(f, *args):
    try:
        return f(*args)
    except SupercechError as exc:
        return type(exc)


def test_differential_equals_the_evaluated_family_cochain():
    rng = random.Random(7)
    pairs = 0
    for fam in differential_families():
        d = splitting_type_differential(fam)
        # 12 points per family; the first is the origin of the base
        points = [{v: Q(0) for v in fam.base_vars}]
        points += [{v: rng.choice(VALUES) for v in fam.base_vars} for _ in range(11)]
        for point in points:
            got, want = outcome(d, point), outcome(evaluated_differential, d, point)
            pairs += 1
            if isinstance(want, type):
                assert got is want
                continue
            assert (got.level, got.parity) == (want.level, want.parity)
            assert got.cochain.sheaf.matrices == want.cochain.sheaf.matrices
            assert got.cochain.sections == want.cochain.sections
            assert got.cls.trivial == want.cls.trivial
            assert got.cls.representative.sections == want.cls.representative.sections
    assert pairs == 60


def test_factorization_of_split_family(split_p1):
    from supercech.family import split_family
    fam = split_family(split_p1, ("t",))
    cf = characteristic_factorization(fam.gluing)
    assert cf.ok and cf.section.is_zero() and cf.omega is None


def test_no_base_direction_component(two_parameter_family):
    c = deviation_cochain(two_parameter_family, 2)
    # hom rows targeting base coordinates must vanish; rows are (coords of
    # the leading chart) x (wedge indices), flattened row-major
    n_idx = 1  # C(2,2)
    for key in c.sections:
        vec = c.section(*key)
        chart = two_parameter_family.cover.chart(key[0])
        for i, v in enumerate(chart.vars):
            entries = vec[i * n_idx:(i + 1) * n_idx]
            if v in two_parameter_family.base_vars:
                assert all(p.is_zero() for p in entries)


def test_fiber_class_matches_scaled_class(two_parameter_family):
    # outside the zero locus the fiber class is s(t) times the fixed class
    g = two_parameter_family
    cf = characteristic_factorization(g)
    d = splitting_type_differential(g)
    for point in ({"t1": Q(1), "t2": Q(0)}, {"t1": Q(2), "t2": Q(1)},
                  {"t1": Q(0), "t2": Q(2)}):
        s_val = constant_value(evaluate(cf.section, point))
        fiber_class = d(point)
        expected = cf.omega.representative.scale(s_val)
        assert fiber_class.cls.representative == expected


def test_proportionality_reads_one_ratio_and_checks_every_term(p1_space):
    spec = trivial_spec(p1_space, 2)
    (key,) = p1_space.cover.canonical_overlaps()
    vars = p1_space.cover.chart(key[0]).vars

    def cochain(*frames):
        """A 1-cochain whose frame i has the terms ``{exponent: coefficient}``
        of ``frames[i]``."""
        return CechCochain(spec, 1, {key: [LaurentPoly(vars, {(e,): c for e, c in f.items()})
                                           for f in frames]})

    base = cochain({-1: 1, -3: 2}, {-2: 3})
    for lam in (Q(-2, 3), Q(5), Q(-1), Q(1, 7)):
        assert _proportionality(base.scale(lam), base) == lam
    assert _proportionality(cochain({}, {}), base) == 0
    # a term outside the base's support
    assert _proportionality(cochain({-1: 1, -3: 2, -4: 1}, {-2: 3}), base) is None
    assert _proportionality(cochain({}, {-2: 3}), base) is None
    # the first frame is twice the base's, the second is not
    assert _proportionality(cochain({-1: 2, -3: 4}, {-2: 5}), base) is None
    assert _proportionality(cochain({-1: 2, -3: 4}, {}), base) is None


# ------------------------------------------------ scaling by re-weighting

@cache
def _scaling_models():
    """Corpus gluing data and small gauged models, each with a base
    coordinate ``t`` appended, so that every drawn factor is invariant."""
    out = {}
    for p in sorted(resources.files("supercech.corpus").iterdir()):
        if p.name.endswith(".model"):
            out[p.name] = load_model(p.name).gluing
    models = perfbench_models()
    rng = random.Random(3)
    for q in (2, 3, 4):
        for planted in (False, True):
            out[f"gauged-q{q}-{planted}"] = parse_model_text(
                models.gauged_model(supercech, rng, q, planted)).gluing
    return {name: extend_with_base(g, ("t",)) for name, g in out.items()}


nonzero_rationals = st.builds(Q, st.sampled_from([n for n in range(-9, 10) if n]),
                              st.integers(1, 9))
scaling_factors = st.one_of(
    nonzero_rationals,
    st.just("t"),
    st.builds(lambda c, e: LaurentPoly.monomial(("t",), c, (e,)),
              nonzero_rationals, st.integers(-3, 3)))


@settings(max_examples=80)
@given(st.sampled_from(sorted(_scaling_models())), scaling_factors)
def test_scaling_action_equals_the_conjugation(name, factor):
    g = _scaling_models()[name]
    assert scaling_action(g, factor) == dense_reference.scaling_action(g, factor)


def test_scaling_action_neither_conjugates_nor_inverts(monkeypatch, nonsplit_p1):
    from supercech import gluing

    def refuse(*args):
        raise AssertionError("called")

    expected = dense_reference.scaling_action(nonsplit_p1, Q(-3, 2))
    monkeypatch.setattr(gluing.SuperGluingData, "conjugate", refuse)
    monkeypatch.setattr(gluing, "invert_transition", refuse)
    assert scaling_action(nonsplit_p1, Q(-3, 2)) == expected


def _affine_line_rescaled():
    """Two charts with the same coordinate x, glued by x -> 2x: every
    transition moves x."""
    u0, u1 = Chart("U0", ("x",), (), 1), Chart("U1", ("x",), (), 1)
    cover = Cover([u0, u1], [("U0", "U1"), ("U1", "U0")])
    t01 = SuperTransition(u0, u1, {"x": P(u0, "2*x")}, {1: P(u0, "theta_1")})
    t10 = SuperTransition(u1, u0, {"x": P(u1, "1/2*x")}, {1: P(u1, "theta_1")})
    return SuperGluingData(cover, {("U0", "U1"): t01, ("U1", "U0"): t10})


def test_scaling_action_refuses_a_factor_that_is_not_invariant(nonsplit_p1):
    g = extend_with_base(nonsplit_p1, ("t",))
    x = LaurentPoly.var(g.cover.chart("U0").vars, "x")
    t = LaurentPoly.var(g.cover.chart("U0").vars, "t")
    # a fiber coordinate of one chart is not a coordinate of the other
    for factor in ("x", x, x * t):
        with pytest.raises(ValueError, match="not a coordinate of chart U1"):
            scaling_action(g, factor)
    with pytest.raises(ValueError, match="is not a monomial"):
        scaling_action(g, t + LaurentPoly.const(t.vars, 1))
    for zero in (0, Q(0), LaurentPoly.zero(t.vars)):
        with pytest.raises(ValueError, match="scaling factor must be nonzero"):
            scaling_action(g, zero)
    # x is on both charts here, but the gluing moves it; the conjugation by
    # the x-scaling witnesses then sends theta_1 to theta_1 / 2, where a
    # re-weighting would leave the degree-one term alone
    moved = _affine_line_rescaled()
    with pytest.raises(ValueError, match=r"transition \(U0, U1\) moves x"):
        scaling_action(moved, "x")
    assert dense_reference.scaling_action(moved, "x").transitions[("U0", "U1")].odd_maps[1] \
        == P(moved.cover.chart("U0"), "1/2*theta_1")
