"""Coordinate substitution between charts: the monomial exponent map behind
``ReducedSpace.compose_into`` against term-by-term substitution."""

import random
from fractions import Fraction as Q

import pytest

from supercech.laurent import LaurentPoly
from supercech.spaces import Chart, Cover, ReducedSpace

from conftest import load_model
from dense_reference import subs_monomial

# every corpus model whose reduced space is valid (corrupt_sign fails its
# inverse check on purpose)
CORPUS = ["gt_model_p1", "gtm_odd_base", "nonsplit_p1", "nonsplit_p1_level3",
          "split_p1", "split_p1_three_charts", "two_parameter_family"]


def mixed_space() -> ReducedSpace:
    """Two charts whose coordinate change mixes variables and carries
    coefficients: y = 2 x^-1 t, s = 3 t."""
    u0, u1 = Chart("U0", ("x", "t")), Chart("U1", ("y", "s"))
    cover = Cover([u0, u1], [("U0", "U1"), ("U1", "U0")])
    X, Y = u0.vars, u1.vars
    maps = {("U0", "U1"): {"y": LaurentPoly.monomial(X, 2, (-1, 1)),
                           "s": LaurentPoly.monomial(X, 3, (0, 1))},
            ("U1", "U0"): {"x": LaurentPoly.monomial(Y, Q(2, 3), (-1, 1)),
                           "t": LaurentPoly.monomial(Y, Q(1, 3), (0, 1))}}
    return ReducedSpace(cover, maps)


def spaces():
    out = [(name, load_model(f"{name}.model").gluing.reduce()[0]) for name in CORPUS]
    return out + [("mixed", mixed_space())]


@pytest.mark.parametrize("fiber,base", [(("theta_1",), ()), (("x",), ("theta_12",))])
def test_chart_refuses_a_coordinate_named_like_an_odd_generator(fiber, base):
    name = (fiber + base)[-1]
    with pytest.raises(ValueError, match=f"coordinate name '{name}' is reserved for odd "
                                         f"generators"):
        Chart("U", fiber, base, 1)
    assert Chart("U", ("theta",), ("thetas_1",), 1).vars == ("theta", "thetas_1")


def random_poly(rng: random.Random, vars) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(-4, 4) for _ in vars)
        terms[exps] = Q(rng.randint(-5, 5), rng.randint(1, 4))
    return LaurentPoly(vars, terms)


def old_compose_into(space, a, b, poly):
    cmap = space.coordinate_maps[(a, b)]
    return subs_monomial(poly, {v: cmap[v] for v in poly.vars}, space.cover.chart(a).vars)


@pytest.mark.parametrize("name,space", spaces())
def test_compose_into_matches_substitution(name, space):
    rng = random.Random(name)
    for a, b in space.cover.overlaps:
        vars = space.cover.chart(b).vars
        for _ in range(40):
            p = random_poly(rng, vars)
            got = space.compose_into(a, b, p)
            want = old_compose_into(space, a, b, p)
            assert got == want
            assert list(got.terms) == list(want.terms)
            assert space.compose_into(b, a, got) == p


def test_compose_into_collects_colliding_terms():
    # a map that is not injective on exponents (the cover declares no
    # overlap, so nothing is verified): colliding terms add up, and
    # cancelling ones drop out
    chart = Chart("U", ("x", "y"))
    cover = Cover([chart], [])
    space = ReducedSpace(cover, {("U", "U"): {"x": LaurentPoly.var(("x", "y"), "x"),
                                              "y": LaurentPoly.var(("x", "y"), "x")}})
    X = chart.vars
    for terms in ({(1, 0): Q(1), (0, 1): Q(2)}, {(1, 0): Q(1), (0, 1): Q(-1), (2, -1): Q(3)}):
        p = LaurentPoly(X, terms)
        got = space.compose_into("U", "U", p)
        want = old_compose_into(space, "U", "U", p)
        assert got == want and list(got.terms) == list(want.terms)


def test_exponent_map_is_cached_per_overlap_and_context():
    space = mixed_space()
    emap = space.exponent_map("U0", "U1", ("y", "s"))
    assert space.exponent_map("U0", "U1", ("y", "s")) is emap
    assert space.exponent_map("U0", "U1", ("s", "y")) is not emap
    # the same term through the map and through substitution
    p = LaurentPoly.monomial(("y", "s"), Q(5), (-2, 3))
    exps, coef = emap.term((-2, 3), Q(5))
    assert LaurentPoly.monomial(("x", "t"), coef, exps) == old_compose_into(space, "U0", "U1", p)
