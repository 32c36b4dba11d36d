"""Delta0 decisions on families against the whole sheaf's system.

A family's base coordinates are carried through every coordinate change
unchanged, and no transition entry of its sheaves uses them, so the delta0
system of a family sheaf in window w is (w + 1)^|base| shifted copies of one
system.  ``cech`` must reach the same class representatives and witnesses,
H^0 kernel cochains and H^1 basis cochains, in the same order, as
``tests/dense_reference.py``, which builds and eliminates the whole system in
one piece.  The sheaves are those of the Rothstein family of ``nonsplit_p1``
(base t), of ``two_parameter_family`` (base t1, t2), of its Rothstein family
(base t1, t2, t) and of the constant family of ``split_p1_three_charts``
(base t, with triples).  The controls have a coordinate that is not carried
through unchanged: a transition entry that uses t, a coordinate map t -> 2t,
and t inside the image of x.
"""

from fractions import Fraction as Q

import pytest

import dense_reference as ref
from supercech.cech import CechCochain, cech_delta, cohomology_basis, cohomology_class
from supercech.family import rothstein_family, split_family
from supercech.laurent import LaurentPoly
from supercech.obstruction import deviation_cochain, deviation_hom_spec
from supercech.sheaf import sheaf_dual, sheaf_exterior_power, sheaf_spec, sheaf_tensor
from supercech.spaces import Chart, Cover, ReducedSpace

from conftest import load_model


def _families():
    nonsplit = load_model("nonsplit_p1.model").gluing
    two = load_model("two_parameter_family.model").gluing
    three = load_model("split_p1_three_charts.model").gluing
    # window None derives each window; the Rothstein family of the two-parameter
    # family has four coordinates, so its derived windows are over the budget
    return {"rothstein nonsplit_p1": (rothstein_family(nonsplit).gluing, None),
            "two_parameter_family": (two, None),
            "rothstein two_parameter_family": (rothstein_family(two).gluing, 2),
            "constant split_p1_three_charts": (split_family(three, ("t",)).gluing, None)}


FAMILIES = _families()


def _monomial(spec, chart, coef, fiber, base):
    """``coef`` times the chart's first coordinate to the ``fiber`` and its
    other coordinates to ``base`` (extended by zeros)."""
    vars = spec.space.cover.chart(chart).vars
    exps = (fiber,) + tuple(base) + (0,) * (len(vars) - 1 - len(base))
    return LaurentPoly.monomial(vars, coef, exps[:len(vars)])


def _coboundary(spec, shift=0):
    """delta(w) for a w that is nonzero on every frame of every chart and
    whose components each reach two base exponents, raised by ``shift``."""
    cover = spec.space.cover
    w = {}
    for i, name in enumerate(cover.order):
        w[(name,)] = [_monomial(spec, name, 1 + f, f % 3, ((f + i) % 2 + shift,) * 3)
                      + _monomial(spec, name, -1, (f + 1) % 2, (shift, 2 + shift, 1 + shift))
                      for f in range(spec.rank)]
    return cech_delta(CechCochain(spec, 0, w))


def _raised(c, base):
    """``c`` times the monomial with base exponents ``base`` and fiber
    exponent 0; the base coordinates are carried through every coordinate
    change unchanged, so a cocycle stays one."""
    return CechCochain(c.sheaf, c.degree, {
        key: [p * _monomial(c.sheaf, key[0], 1, 0, base) for p in c.section(*key)]
        for key in c.sections})


def _outside(spec, window):
    """A coboundary plus copies of it at base exponents -1 and window + 1,
    where window ``window`` has no unknowns."""
    c = _coboundary(spec)
    return c + _raised(c, (window + 1,)) + _raised(c, (-1, 1))


def _sum(cochains):
    total = cochains[0]
    for c in cochains[1:]:
        total = total + c
    return total


def assert_same_decisions(spec, window=None, extra=()):
    bases = {}
    for p in (0, 1):
        bases[p] = ref.cohomology_basis(spec, p, window=window)
        assert cohomology_basis(spec, p, window=window) == bases[p], f"H^{p}"
    if not spec.rank:
        return
    samples = [_coboundary(spec), _coboundary(spec, shift=1), *extra]
    if bases[1]:
        samples += [_sum(bases[1]), _sum(bases[1]) + samples[0]]
    if window is not None:
        samples.append(_outside(spec, window))
    for c in samples:
        cls = cohomology_class(c, window=window)
        trivial, representative, witness = ref.cohomology_class(c, window=window)
        assert (cls.trivial, cls.representative, cls.witness) == \
            (trivial, representative, witness)


def _family_specs(g):
    _, odd = g.reduce()
    det = sheaf_exterior_power(odd, odd.rank)
    dual = sheaf_dual(det)
    return {"odd": odd, "det": det, "dual": dual, "dual x dual": sheaf_tensor(dual, dual)}


@pytest.mark.parametrize("spec_name", ["odd", "det", "dual", "dual x dual"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_sheaves_decide_as_the_whole_system(family, spec_name):
    g, window = FAMILIES[family]
    assert_same_decisions(_family_specs(g)[spec_name], window)


@pytest.mark.parametrize("family", ["rothstein nonsplit_p1", "two_parameter_family",
                                    "rothstein two_parameter_family"])
def test_deviation_hom_sheaves_decide_as_the_whole_system(family):
    """The obstruction's own cochain is a nonzero class whose terms carry
    base exponents; times t it moves to other slices."""
    g, window = FAMILIES[family]
    dev = deviation_cochain(g, 2)
    raised = _raised(dev, (1,))
    assert_same_decisions(deviation_hom_spec(g, 2), window, extra=(dev, raised, dev + raised))


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("spec_name", ["odd", "dual x dual"])
def test_explicit_windows_leave_outer_slices_in_the_residual(family, spec_name):
    """Base exponents -1 and w + 1 have no unknowns in window w."""
    g, _ = FAMILIES[family]
    assert_same_decisions(_family_specs(g)[spec_name], window=2)


# ---------------------------------------------------------------- controls


def _space(y_image, t_image_u1, x_image, t_image_u0):
    """Charts (x, t) and (y, t) of the projective line times a line, with
    the given coordinate images, each ``(coefficient, exponents)``."""
    cover = Cover([Chart("U0", ("x",), ("t",)), Chart("U1", ("y",), ("t",))],
                  [("U0", "U1"), ("U1", "U0")])

    def images(chart, first, t):
        vars = cover.chart(chart).vars
        return {name: LaurentPoly.monomial(vars, *image)
                for name, image in zip(("x", "y", "t"), (first, first, t))}

    u0, u1 = images("U0", y_image, t_image_u1), images("U1", x_image, t_image_u0)
    return ReducedSpace(cover, {("U0", "U1"): {"y": u0["y"], "t": u0["t"]},
                                ("U1", "U0"): {"x": u1["x"], "t": u1["t"]}})


def _line(space, n, t=0):
    """The line bundle with transition x^-n t^t from U0 to U1."""
    there = LaurentPoly.monomial(space.cover.chart("U0").vars, 1, (-n, t))
    back = space.compose_into("U1", "U0", LaurentPoly.monomial(there.vars, 1, (n, -t)))
    return sheaf_spec(space, 1, {("U0", "U1"): (((0, there),),),
                                 ("U1", "U0"): (((0, back),),)}, check=True)


def _direct_sum(*specs):
    space = specs[0].space
    offsets = [sum(s.rank for s in specs[:i]) for i in range(len(specs))]
    mats = {key: tuple(tuple((off + i, e) for i, e in col)
                       for s, off in zip(specs, offsets) for col in s.matrices[key])
            for key in space.cover.overlaps}
    return sheaf_spec(space, sum(s.rank for s in specs), mats, check=True)


CONTROLS = {
    "entry uses t": lambda: _space((1, (-1, 0)), (1, (0, 1)), (1, (-1, 0)), (1, (0, 1))),
    "t -> 2t": lambda: _space((1, (-1, 0)), (2, (0, 1)), (1, (-1, 0)), (Q(1, 2), (0, 1))),
    "t in the image of x": lambda: _space((1, (-1, 1)), (1, (0, 1)), (1, (-1, 1)), (1, (0, 1))),
}


@pytest.mark.parametrize("control", list(CONTROLS))
def test_controls_decide_as_the_whole_system(control):
    space = CONTROLS[control]()
    if control == "entry uses t":
        # one block whose entries use t beside one whose entries do not
        specs = [_line(space, 1, t=1), _line(space, -3, t=-1),
                 _direct_sum(_line(space, -3, t=1), _line(space, -3))]
    else:
        specs = [_line(space, 0), _direct_sum(_line(space, 0), _line(space, 0))]
        if control == "t -> 2t":
            specs.append(_line(space, -3))
    for spec in specs:
        assert_same_decisions(spec)
        assert_same_decisions(spec, window=2)
