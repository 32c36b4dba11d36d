"""Delta0 decisions against the whole sheaf's system.

``tests/dense_reference.py`` builds and eliminates the delta0 system of a
whole sheaf in one piece.  ``cech`` must reach the same class
representatives and witnesses, H^0 kernel cochains and H^1 basis cochains,
in the same order, on every corpus sheaf, on every secondary space of
gt(6, 6) seed 1, and on direct sums whose summands interleave in key order.
"""

import random
from fractions import Fraction as Q

import pytest

import dense_reference as ref
from supercech.cech import (CechCochain, cech_delta, cohomology_basis, cohomology_class,
                            delta0_window, extension_sheaf)
from supercech.laurent import LaurentPoly
from supercech.modelfile import parse_model_text
from supercech.secondary import secondary_space, secondary_spaces
from supercech.sheaf import (diagonal_block, sheaf_dual, sheaf_exterior_power, sheaf_hom,
                             sheaf_spec, sheaf_tensor)

from conftest import load_model, perfbench_models

CORPUS = ("gt_model_p1", "gtm_odd_base", "nonsplit_p1", "nonsplit_p1_level3", "split_p1",
          "split_p1_three_charts", "two_parameter_family")


def _sample_cochains(spec, h1):
    """A coboundary delta(w), with w nonzero on every frame of every chart,
    the sum of the H^1 basis ``h1`` and the sum of both."""
    cover = spec.space.cover
    w = {}
    for name in cover.order:
        vars = cover.chart(name).vars
        w[(name,)] = [LaurentPoly.monomial(vars, 1 + f, (f % 3,) + (0,) * (len(vars) - 1))
                      for f in range(spec.rank)]
    out = [cech_delta(CechCochain(spec, 0, w))]
    if h1:
        total = h1[0]
        for c in h1[1:]:
            total = total + c
        out += [total, total + out[0]]
    return out


def assert_same_decisions(spec):
    bases = {}
    for p in (0, 1):
        bases[p] = ref.cohomology_basis(spec, p)
        assert cohomology_basis(spec, p) == bases[p], f"H^{p}"
    if spec.rank:
        for c in _sample_cochains(spec, bases[1]):
            cls = cohomology_class(c)
            trivial, representative, witness = ref.cohomology_class(c)
            assert (cls.trivial, cls.representative, cls.witness) == \
                (trivial, representative, witness)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_sheaves_decide_as_the_whole_system(name):
    _, odd = load_model(f"{name}.model").gluing.reduce()
    det = sheaf_exterior_power(odd, odd.rank)
    dual = sheaf_dual(det)
    for spec in (odd, det, dual, sheaf_tensor(dual, dual)):
        assert_same_decisions(spec)


def test_gt_6_6_secondary_spaces_decide_as_the_whole_system():
    m = parse_model_text(perfbench_models().gt_model(random.Random(1), 6, 6)).gt_models["M"]
    # (a, b) and (a, 6 - b) have equal specs
    specs = list(dict.fromkeys(space.spec for space in secondary_spaces(m) if space.spec.rank))
    assert len(specs) == 8
    for spec in specs:
        assert_same_decisions(spec)


# -------------------------------------------------- interleaved direct sums


def line(space, n: int):
    """O(n) on the two-chart or the three-chart projective-line cover of the
    corpus: transition x^-n from U0 to U1, U2 a rescaled copy of U0
    (z = 2x)."""
    def mono(chart, coef, e):
        vars = space.cover.chart(chart).vars
        return ((0, LaurentPoly.monomial(vars, coef, (e,))),),
    mats = {("U0", "U1"): mono("U0", 1, -n), ("U1", "U0"): mono("U1", 1, -n)}
    if "U2" in space.cover.order:
        mats.update({("U0", "U2"): mono("U0", 1, 0), ("U2", "U0"): mono("U2", 1, 0),
                     ("U1", "U2"): mono("U1", 1, -n), ("U2", "U1"): mono("U2", Q(2) ** n, -n)})
    return sheaf_spec(space, 1, mats, check=True)


def direct_sum(*specs):
    space = specs[0].space
    offsets = [sum(s.rank for s in specs[:i]) for i in range(len(specs))]
    mats = {key: tuple(tuple((off + i, e) for i, e in col)
                       for s, off in zip(specs, offsets) for col in s.matrices[key])
            for key in space.cover.overlaps}
    return sheaf_spec(space, sum(s.rank for s in specs), mats, check=True)


def interleaved(space, sub: int, quot: int, middle: int):
    """An extension of O(quot) by O(sub) on frames 0 and 2, and O(middle)
    on frame 1 between them.  The extension cocycle is the first H^1 basis
    cochain of hom(O(quot), O(sub)), or a nonzero coboundary when there is
    none, so frames 0 and 2 are one block."""
    s, q = line(space, sub), line(space, quot)
    hom = sheaf_hom(q, s)
    x = (cohomology_basis(hom, 1) or [cech_delta(CechCochain(hom, 0, {
        ("U0",): [LaurentPoly.const(space.cover.chart("U0").vars, 1)]}))])[0]
    ext = extension_sheaf(s, q, x)
    return diagonal_block(direct_sum(ext, line(space, middle)), [0, 2, 1])


def _space(cover: str):
    model = "split_p1" if cover == "two charts" else "split_p1_three_charts"
    return load_model(f"{model}.model").gluing.reduce()[0]


@pytest.mark.parametrize("cover", ["two charts", "three charts"])
@pytest.mark.parametrize("degrees", [(1, -3, 1), (-3, 1, -3), (-3, -4, -3), (1, 2, 1)])
def test_direct_sums_of_line_bundles_decide_as_the_whole_system(cover, degrees):
    space = _space(cover)
    assert_same_decisions(direct_sum(*(line(space, n) for n in degrees)))


@pytest.mark.parametrize("cover", ["two charts", "three charts"])
@pytest.mark.parametrize("degrees", [(-3, 1, 1), (-3, 1, -3), (1, -3, 1), (1, -3, -3)])
def test_interleaved_blocks_decide_as_the_whole_system(cover, degrees):
    """The block on frames 0 and 2 comes first in block order, but its H^0
    relations or H^1 pivots on frame 2 come after those of frame 1."""
    assert_same_decisions(interleaved(_space(cover), *degrees))


# ------------------------------------------------------------------ sharing


def test_blocks_are_the_components_of_the_transition_patterns():
    space = _space("two charts")
    one = line(space, 1)
    spec = direct_sum(one, line(space, -3), one)
    assert spec.blocks() == ((0,), (1,), (2,))
    assert interleaved(space, -3, 1, 1).blocks() == ((0, 2), (1,))
    assert one.blocks() == ((0,),)
    # the frames of one block, in order, are the spec itself
    assert diagonal_block(spec, [0, 1, 2]) is spec
    assert diagonal_block(spec, [2]) is one


def test_equal_blocks_share_one_system():
    space = _space("two charts")
    one, three = line(space, 1), line(space, -3)
    spec = direct_sum(one, three, one)
    cohomology_basis(spec, 0)
    bound = delta0_window(spec, degree=0)
    assert [key for key in space.specs if key[0] == "delta0"] == [
        ("delta0", one, bound), ("delta0", three, bound)]


def test_the_1_b_spaces_of_gt_4_4_hold_one_system_per_distinct_block():
    m = parse_model_text(perfbench_models().gt_model(random.Random(1), 4, 4)).gt_models["M"]
    copies, distinct = 0, set()
    for b in range(m.base_rank + 1):
        for p in (0, 1):
            spec = secondary_space(m, 1, b, p).spec
            bound = delta0_window(spec, degree=p)
            copies += len(spec.blocks())
            distinct |= {(diagonal_block(spec, frames), bound) for frames in spec.blocks()}
    systems = [key[1:] for key in m.space.specs if key[0] == "delta0"]
    assert set(systems) == distinct
    assert (len(systems), copies) == (4, 32)
