"""Decisions do not depend on the exponent window once it is large enough.

The derived window is claimed to be exact (see the ``cech`` module
docstring); enlarging it must leave every class decision, canonical
representative and cohomology basis unchanged.
"""

import pytest

from supercech.cech import cohomology_basis, cohomology_class, delta0_window
from supercech.obstruction import deviation_cochain
from supercech.sheaf import sheaf_exterior_power, sheaf_hom


@pytest.fixture(scope="module")
def M(gt_model_doc):
    return gt_model_doc.gt_models["M"]


@pytest.fixture(scope="module")
def cocycles(nonsplit_p1, nonsplit_p1_level3, M):
    return {"nonsplit_p1 level 2": deviation_cochain(nonsplit_p1, 2),
            "nonsplit_p1_level3 level 3": deviation_cochain(nonsplit_p1_level3, 3),
            "gt_model_p1 theta": M.theta}


@pytest.mark.parametrize("name", ["nonsplit_p1 level 2", "nonsplit_p1_level3 level 3",
                                  "gt_model_p1 theta"])
def test_class_is_window_stable(cocycles, name):
    c = cocycles[name]
    w = delta0_window(c.sheaf, c)
    base = cohomology_class(c, window=w)
    assert not base.trivial
    for k in (1, 2):
        wider = cohomology_class(c, window=w + k)
        assert wider.trivial == base.trivial
        assert wider.representative == base.representative


@pytest.mark.parametrize("name", ["fiber", "total_odd", "wedge2_total_odd", "hom_fiber_base"])
def test_cohomology_basis_is_window_stable(M, name):
    sheaf = {"fiber": M.fiber_spec,
             "total_odd": M.total_odd,
             "wedge2_total_odd": sheaf_exterior_power(M.total_odd, 2),
             "hom_fiber_base": sheaf_hom(M.fiber_spec, M.base_spec)}[name]
    w = delta0_window(sheaf)
    assert len(cohomology_basis(sheaf, 0, window=w + 1)) == \
        len(cohomology_basis(sheaf, 0, window=w))
    h1 = cohomology_basis(sheaf, 1, window=w)
    assert cohomology_basis(sheaf, 1, window=w + 1) == h1
