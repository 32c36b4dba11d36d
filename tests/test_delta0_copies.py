"""Random cocycles on family sheaves decide as the whole sheaf's system.

A decision on a family sheaf reduces one copy per (diagonal block, base
slice) of a few small systems and places each result back.  Here Hypothesis
draws 1-cocycles on the family sheaves of ``tests/test_delta0_slices.py``:
delta of a random sparse 0-cochain plus random multiples of H^1 basis
vectors, every term with base exponents in -1..w + 1, so that some terms lie
on slices outside window w.  ``cech.cohomology_class`` must give the
triviality, representative and witness that ``tests/dense_reference.py``
gives from the whole system.
"""

from functools import cache

from hypothesis import given, settings, strategies as st

import dense_reference as ref
from supercech.cech import CechCochain, cech_delta, cohomology_class
from supercech.laurent import LaurentPoly
from test_delta0_slices import FAMILIES, _family_specs, _monomial, _raised

CASES = [(family, spec_name) for family in FAMILIES
         for spec_name in ("odd", "det", "dual", "dual x dual")]
# the top base exponent a draw reaches when the window is derived
DERIVED_TOP = 2


@cache
def _case(family, spec_name):
    """The sheaf, the window of its decisions (None: derived), the top base
    exponent of a draw and the H^1 basis of the reference."""
    g, window = FAMILIES[family]
    spec = _family_specs(g)[spec_name]
    top = DERIVED_TOP if window is None else window
    return spec, window, top, ref.cohomology_basis(spec, 1, window=window)


def _shifted(c, base):
    """``c`` times the base monomial with exponents ``base``, which may be
    negative."""
    return _raised(c, base) if any(base) else c


@st.composite
def cocycles(draw):
    family, spec_name = draw(st.sampled_from(CASES))
    spec, window, top, basis = _case(family, spec_name)
    cover = spec.space.cover
    nbase = len(cover.chart(cover.order[0]).vars) - 1
    base = st.tuples(*[st.integers(-1, top + 1)] * nbase)
    coef = st.integers(-3, 3).filter(bool)
    # delta of a sparse 0-cochain, one monomial per term; a negative base
    # exponent is reached by shifting delta of a chart-regular monomial,
    # since every coordinate change carries the base coordinates unchanged
    c = CechCochain(spec, 1)
    terms = st.tuples(st.sampled_from(cover.order), st.integers(0, spec.rank - 1),
                      st.integers(0, 2), base, coef)
    for chart, frame, fiber, exps, a in draw(st.lists(terms, max_size=4)):
        low = tuple(min(e, 0) for e in exps)
        w = [LaurentPoly.zero(cover.chart(chart).vars)] * spec.rank
        w[frame] = _monomial(spec, chart, a, fiber, tuple(e - m for e, m in zip(exps, low)))
        c = c + _shifted(cech_delta(CechCochain(spec, 0, {(chart,): w})), low)
    if basis:
        for i, exps, a in draw(st.lists(st.tuples(st.integers(0, len(basis) - 1), base, coef),
                                        max_size=3)):
            c = c + _shifted(basis[i].scale(a), exps)
    return spec, window, c


@settings(max_examples=60)
@given(cocycles())
def test_random_cocycles_decide_as_the_whole_system(drawn):
    spec, window, c = drawn
    cls = cohomology_class(c, window=window)
    trivial, representative, witness = ref.cohomology_class(c, window=window)
    assert (cls.trivial, cls.representative, cls.witness) == (trivial, representative, witness)
