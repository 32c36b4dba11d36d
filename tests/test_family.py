import importlib.resources as resources
import random
from fractions import Fraction as Q
from functools import cache

import pytest

import supercech

from supercech.family import (FamilySpec, GluedFamily, extend_with_base, glue_over_p1,
                              isotriviality_witness, rothstein_family,
                              split_family)
from supercech.gluing import INFINITY
from supercech.modelfile import parse_model_text
from supercech.obstruction import (attempt_split, characteristic_factorization,
                                   obstruction_cocycle, scaling_action, scaling_witnesses,
                                   splitting_type_differential)

from conftest import load_model, perfbench_models
from dense_reference import evaluate


def test_split_family_is_split(split_p1):
    fam = split_family(split_p1, ("t",))
    assert fam.gluing.verify_cocycle().ok
    assert fam.gluing.splitting_type() == INFINITY
    fib = fam.fiber({"t": Q(7)})
    assert fib == split_p1
    oc = obstruction_cocycle(fam.gluing, 2)
    assert oc.cochain.is_zero()


def test_rothstein_shape(nonsplit_p1):
    fam = rothstein_family(nonsplit_p1, "t")
    g = fam.gluing
    assert g.is_family and g.base_vars == ("t",)
    assert g.verify_cocycle().ok
    assert g.splitting_type() == 2
    dev = g.transitions[("U0", "U1")].even_maps["y"].component(2)
    coeff = dev.coefficient((1, 2))
    assert str(coeff) == "x^-3*t^2"


def test_rothstein_fiber_round_trip(nonsplit_p1):
    fam = rothstein_family(nonsplit_p1)
    assert fam.fiber({"t": Q(1)}) == nonsplit_p1
    fib0 = fam.fiber({"t": Q(0)})
    assert fib0.splitting_type() == INFINITY
    report = attempt_split(fib0)
    assert report.split
    # fiber over t is the t-scaling of the input
    for t in (Q(2), Q(-3), Q(1, 2)):
        assert fam.fiber({"t": t}) == scaling_action(nonsplit_p1, t)


def test_rothstein_family_of_a_family(two_parameter_family):
    # the new family names only t; t1 and t2 stay base coordinates of a fiber
    fam = rothstein_family(two_parameter_family)
    assert fam.base_vars == ("t",)
    assert fam.fiber({"t": Q(1)}) == two_parameter_family
    fib0 = fam.fiber({"t": Q(0)})
    assert fib0.splitting_type() == INFINITY
    assert fib0.base_vars == ("t1", "t2")
    with pytest.raises(ValueError, match="exactly the base coordinates"):
        fam.fiber({"t": Q(1), "t1": Q(1)})
    _, report = isotriviality_witness(fam, Q(1), Q(2))
    assert report.ok, report.detail


def test_scaling_witnesses_take_a_name_a_monomial_or_a_rational(nonsplit_p1):
    from supercech.laurent import LaurentPoly
    from supercech.obstruction import scaling_witnesses
    g = extend_with_base(nonsplit_p1, ("t",))
    t = LaurentPoly.var(g.cover.chart("U0").vars, "t", 1)
    assert scaling_witnesses(g, "t") == scaling_witnesses(g, t)
    assert scaling_witnesses(g, Q(2)) == scaling_witnesses(g, t.scale(2) * t.inverse())
    with pytest.raises(ValueError, match="scaling factor must be nonzero"):
        scaling_witnesses(g, 0)


def test_rothstein_of_split_model_is_constant(split_p1):
    fam = rothstein_family(split_p1)
    assert fam.gluing.splitting_type() == INFINITY
    assert fam.fiber({"t": Q(5)}) == split_p1


def test_rothstein_differential_and_section(nonsplit_p1):
    fam = rothstein_family(nonsplit_p1)
    d = splitting_type_differential(fam.gluing)
    # symbolically: the family cochain is t^2 times the fiber cochain
    base = obstruction_cocycle(nonsplit_p1, 2).cochain
    fam_sections = d.cochain.section("U0", "U1")
    expected = base.section("U0", "U1")
    for fam_entry, fib_entry in zip(fam_sections, expected):
        grouped = fam_entry.split_by(("t",))
        assert set(grouped) <= {(2,)}
        if (2,) in grouped:
            assert grouped[(2,)] == fib_entry
    cf = characteristic_factorization(fam.gluing)
    assert cf.ok and str(cf.section) == "t^2"
    assert cf.omega.representative == obstruction_cocycle(nonsplit_p1, 2).cls.representative


def test_rothstein_level3_scaling_parity(nonsplit_p1_level3):
    # odd deviation level j picks up t^(j-1)
    fam = rothstein_family(nonsplit_p1_level3)
    cf = characteristic_factorization(fam.gluing)
    assert cf.ok and str(cf.section) == "t^2"


@pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 3), (-1, 2), (Q(1, 2), Q(3, 4))])
def test_isotriviality_witnesses(nonsplit_p1, pair):
    fam = rothstein_family(nonsplit_p1)
    witnesses, report = isotriviality_witness(fam, Q(pair[0]), Q(pair[1]))
    assert report.ok, report.detail


def test_isotriviality_names_the_first_overlap_where_fibers_differ(nonsplit_p1):
    # both fibers of the constant family are nonsplit_p1, but scaling by
    # lambda = 2 multiplies its nonzero level-2 deviation by lambda^2 = 4
    fam = FamilySpec(extend_with_base(nonsplit_p1, ("t",)), ("t",))
    _, report = isotriviality_witness(fam, Q(1), Q(2))
    assert not report.ok
    assert report.detail == "fibers differ on overlap ('U0', 'U1')"


def test_isotriviality_rejects_zero(nonsplit_p1):
    fam = rothstein_family(nonsplit_p1)
    with pytest.raises(ValueError):
        isotriviality_witness(fam, Q(0), Q(1))


def test_weak_central_splitness(nonsplit_p1):
    # the characteristic section vanishes at the distinguished point and the
    # fiber there is certified split
    fam = rothstein_family(nonsplit_p1)
    cf = characteristic_factorization(fam.gluing)
    zero = evaluate(cf.section, {v: Q(0) for v in fam.base_vars})
    assert zero.is_zero()
    assert attempt_split(fam.fiber({"t": Q(0)})).split


def test_glue_over_p1_witness(nonsplit_p1):
    glued = glue_over_p1(nonsplit_p1)
    report = glued.verify()
    assert report.ok
    assert not glued.piece_low.gluing.cover.triples


def test_glue_over_p1_negative_control(nonsplit_p1):
    bad = glue_over_p1(nonsplit_p1, witness_exponent=-1)
    report = bad.verify()
    assert not report.ok
    assert report.detail == ("overlap ('U0', 'U1'): even map y differs by "
                             "(-x^-3*t^-2 + x^-3)*theta_1*theta_2")


def test_glue_over_p1_split_input(split_p1):
    glued = glue_over_p1(split_p1)
    assert glued.verify().ok


def test_extend_with_base_rejects_clashes(split_p1):
    with pytest.raises(ValueError):
        extend_with_base(split_p1, ("x",))


@pytest.mark.parametrize("base_vars,clash", [(("t", "x"), "x"), (("x", "s"), "x"),
                                             (("t", "t1"), "t1")])
def test_glue_over_p1_rejects_a_base_coordinate_in_use(two_parameter_family, base_vars, clash):
    with pytest.raises(ValueError, match=f"^coordinate {clash} already in use on U0$"):
        glue_over_p1(two_parameter_family, base_vars)


def test_glue_over_p1_with_one_base_coordinate_twice(nonsplit_p1):
    glued = glue_over_p1(nonsplit_p1, ("t", "t"))
    assert glued.piece_high == glued.piece_low


def test_fiber_splitting_type_locally_constant(nonsplit_p1):
    fam = rothstein_family(nonsplit_p1)
    for t in (Q(1), Q(2), Q(-1), Q(5), Q(1, 3)):
        assert fam.fiber({"t": t}).splitting_type() == 2
    assert fam.fiber({"t": Q(0)}).splitting_type() == INFINITY


def test_weak_central_splitness_flag(nonsplit_p1):
    fam = rothstein_family(nonsplit_p1)
    assert attempt_split(fam.fiber({"t": Q(0)})).split


def test_fiber_class_via_rational_scaling_root(nonsplit_p1):
    # when s(t) has a rational square root lambda, the fiber class is the
    # lambda-scaling of the fixed class
    from supercech.obstruction import (characteristic_factorization,
                                       obstruction_cocycle, scale_class)
    from supercech.cech import CohomologyClass
    fam = rothstein_family(nonsplit_p1)
    cf = characteristic_factorization(fam.gluing)
    base = obstruction_cocycle(nonsplit_p1, 2)
    for t in (Q(2), Q(3), Q(-2)):
        lam = t          # lambda^2 = s(t) = t^2
        fiber_oc = obstruction_cocycle(fam.fiber({"t": t}), 2)
        assert fiber_oc.cls.representative == scale_class(base, lam).cls.representative


@cache
def _family_models():
    """Every corpus gluing model but corrupt_sign, which fails its own
    check, and the benchmark's gauged models of odd rank 2..6, split and
    planted, on seeds 1 and 7."""
    out = {}
    for p in sorted(resources.files("supercech.corpus").iterdir()):
        if p.name.endswith(".model") and p.name != "corrupt_sign.model":
            g = load_model(p.name).gluing
            if g is not None:
                out[p.name] = g
    models = perfbench_models()
    for seed in (1, 7):
        for q in range(2, 7):
            for planted in (False, True):
                text = models.gauged_model(supercech, random.Random(seed), q, planted)
                name = f"gauged-q{q}-{'planted' if planted else 'split'}-seed{seed}"
                out[name] = parse_model_text(text).gluing
    return out


def test_family_models_cover_the_corpus():
    assert sum(name.endswith(".model") for name in _family_models()) == 7


@pytest.mark.parametrize("name", sorted(_family_models()))
def test_rescaled_family_is_the_verified_conjugate(name):
    # the rescale is conjugation by theta -> t*theta, so it keeps the
    # inverse and triple identities of its verified input; the second piece
    # over P^1 is the same family in the second base coordinate
    g = _family_models()[name]
    fam = rothstein_family(g, "t")
    assert fam.gluing.verify_cocycle().ok
    extended = extend_with_base(g, ("t",))
    assert fam.gluing == extended.conjugate(scaling_witnesses(extended, "t"))
    assert glue_over_p1(g).piece_high == rothstein_family(g, "s")
