import random
from fractions import Fraction as Q

import pytest

from supercech.cech import CechCochain, cohomology_class, is_coboundary
from supercech.errors import CocycleError, SupercechError
from supercech.laurent import LaurentPoly
from supercech.secondary import (gt_model, model_class, model_class_map, quotient_spec,
                                 secondary_differential, secondary_space,
                                 verify_a1_containment, verify_obstruction_compatibility)
from supercech.sheaf import filtration, sheaf_exterior_power, sheaf_tensor

from dense_reference import contraction_matrix


@pytest.fixture(scope="module")
def M(gt_model_doc):
    return gt_model_doc.gt_models["M"]


def test_model_class_nontrivial_and_cross_validated(M):
    report = model_class(M)
    assert not report.cls.trivial
    assert report.cross_validated and report.sign in (1, -1)


def test_model_class_trivial_for_zero_theta(gt_model_doc):
    doc = gt_model_doc
    space = doc.gluing.reduce()[0]
    fiber = doc.sheaves["TX"]
    zero = {("U0", "U1"): [LaurentPoly.zero(("x",)) for _ in range(3)]}
    m0 = gt_model(space, fiber, 3, zero)
    report = model_class(m0)
    assert report.cls.trivial
    # zero theta: all differentials vanish
    s = secondary_space(m0, 1, 2, 0)
    for nu in s.basis[:3]:
        img = secondary_differential(m0, 1, 2, 0, nu)
        assert img.cls.trivial
        img2 = model_class_map(m0, 1, 2, 0, nu)
        assert img2.cls.trivial


def test_model_class_of_coboundary_theta(gt_model_doc):
    from supercech.cech import cech_delta
    from supercech.sheaf import sheaf_hom, trivial_spec
    doc = gt_model_doc
    space = doc.gluing.reduce()[0]
    fiber = doc.sheaves["TX"]
    hom = sheaf_hom(fiber, trivial_spec(space, 3))
    witness = CechCochain(hom, 0, {("U0",): [LaurentPoly.monomial(("x",), 2, (1,)),
                                             LaurentPoly.zero(("x",)),
                                             LaurentPoly.monomial(("x",), 1, (0,))]})
    theta = cech_delta(witness)
    m0 = gt_model(space, fiber, 3, {key: theta.section(*key) for key in theta.sections})
    assert model_class(m0).cls.trivial


def test_filtration_identities(M):
    for j in range(1, M.total_odd.rank + 1):
        filtration(M.total_odd, j).verify()


def test_quotient_matches_kron(M):
    filt = filtration(M.total_odd, 3)
    for b in range(0, 4):
        a = 3 - b
        if a > M.fiber_rank or b > M.base_rank:
            continue
        expected = quotient_spec(M, a, b)
        got = filt.quotient_specs[b]
        assert got.rank == expected.rank
        for key in got.matrices:
            assert got.matrices[key] == expected.matrices[key]


def test_spaces_vanish_beyond_rank(M):
    # a + b above the rank bound gives zero spaces
    s = secondary_space(M, 2, 3, 0)   # a=2 > fiber rank 1
    assert s.dimension == 0
    s = secondary_space(M, 1, 4, 0)   # b=4 > base rank 3
    assert s.dimension == 0


def test_expected_dimensions(M):
    assert secondary_space(M, 0, 3, 1).dimension == 1
    assert secondary_space(M, 1, 2, 0).dimension == 48
    assert secondary_space(M, 0, 1, 0).dimension == 3


def test_contraction_matrix_example():
    m = contraction_matrix(2, 2)
    # theta_{1,2} -> 1/2 (theta_1 (x) theta_2 - theta_2 (x) theta_1)
    col = [row[0] for row in m]
    # rows ordered (fiber index) x (remaining multi-index)
    assert col == [Q(0), Q(1, 2), Q(-1, 2), Q(0)]


def test_contraction_naturality(M):
    # contraction commutes with the induced transition matrices
    from supercech.sheaf import mat_mul
    a = 2
    rank = 3
    # use the rank-3 trivial base factor's exterior powers as the test module
    spec = M.base_spec
    cm = contraction_matrix(rank, a)
    for key, mat in sheaf_exterior_power(spec, a).matrices.items():
        vars = M.space.cover.chart(key[0]).vars
        lhs = mat_mul(cm, mat, vars)
        target = sheaf_tensor(spec, sheaf_exterior_power(spec, a - 1))
        rhs = mat_mul(target.matrices[key], cm, vars)
        assert lhs == rhs


def test_differential_squared_zero(M):
    s = secondary_space(M, 1, 2, 0)
    for nu in s.basis[:10]:
        d1 = secondary_differential(M, 1, 2, 0, nu)
        d2 = secondary_differential(M, 0, 3, 1, d1.cochain)
        assert d2.cochain.is_zero() or d2.decided


def test_a1_containment_all_b(M):
    for b in range(0, M.base_rank):
        report = verify_a1_containment(M, b, 0)
        assert report.ok, (b, [s for s in report.samples if not s.equal])


def test_a1_containment_has_nonzero_instances(M):
    report = verify_a1_containment(M, 2, 0)
    nonzero = [s for s in report.samples if not s.lhs_trivial]
    assert len(nonzero) >= 1
    for s in nonzero:
        assert not s.rhs_trivial


def test_kernel_containment_when_cup_vanishes(M):
    # classes with zero cup image have zero differential image of the push
    report = verify_a1_containment(M, 2, 0)
    for s in report.samples:
        if s.lhs_trivial:
            assert s.rhs_trivial


def _top_piece_cocycle(M, level):
    """A nontrivial cocycle of hom(P, wedge^level total_odd) supported in
    the top filtration piece (pure base factors)."""
    from supercech.cech import cohomology_basis
    from supercech.secondary import parity_spec
    from supercech.sheaf import sheaf_hom
    P = parity_spec(M, level)
    full = sheaf_hom(P, sheaf_exterior_power(M.total_odd, level))
    filt = filtration(M.total_odd, level)
    top = filt.pieces[level]
    assert len(top) == 1
    basis = cohomology_basis(sheaf_hom(P, filt.piece_specs[level]), 1)
    assert len(basis) >= 1
    sections = {}
    for key in basis[0].sections:
        vec = basis[0].section(*key)
        full_vec = [LaurentPoly.zero(vec[0].vars)] * full.rank
        for pi in range(P.rank):
            full_vec[top[0] * P.rank + pi] = vec[pi]
        sections[key] = full_vec
    return CechCochain(full, 1, sections)


def test_refined_splitting_data(M):
    from supercech.secondary import refined_splitting_data
    report = refined_splitting_data(M, _top_piece_cocycle(M, 3), 3)
    assert report.refined_b == 3
    assert not report.secondary.trivial


def test_refined_splitting_data_lifts_a_shifted_cocycle(M):
    # c_top + delta(w) with w nonzero on every frame: reaching F_3 needs a
    # nonzero lift, and the secondary class must not see the shift
    from supercech.cech import cech_delta
    from supercech.secondary import _lift_into_piece, refined_splitting_data
    c_top = _top_piece_cocycle(M, 3)
    full = c_top.sheaf
    w = CechCochain(full, 0, {("U0",): [LaurentPoly.monomial(("x",), i + 1, (i % 3,))
                                        for i in range(full.rank)]})
    shifted = c_top + cech_delta(w)
    filt = filtration(M.total_odd, 3)
    rank_p = full.rank // filt.ambient.rank
    outside = [f for f in range(full.rank) if f // rank_p not in filt.pieces[3]]
    assert any(f in shifted.sections[("U0", "U1")] for f in outside)
    lifted = _lift_into_piece(M, shifted, 3, 3, None)
    assert not any(f in frames for frames in lifted.sections.values() for f in outside)
    assert is_coboundary(shifted - lifted)[0]
    report = refined_splitting_data(M, shifted, 3)
    assert report.refined_b == 3
    expected = refined_splitting_data(M, c_top, 3).secondary
    assert report.secondary.representative == expected.representative
    assert not report.secondary.trivial


def test_refined_splitting_data_zero_class(M):
    from supercech.secondary import parity_spec, refined_splitting_data
    from supercech.sheaf import sheaf_exterior_power, sheaf_hom
    level = 2
    full = sheaf_hom(parity_spec(M, level), sheaf_exterior_power(M.total_odd, level))
    report = refined_splitting_data(M, CechCochain(full, 1), level)
    assert report.refined_b == level
    assert report.secondary.trivial


def test_compatibility_on_odd_base_instance(gtm_odd_base_doc):
    cr = verify_obstruction_compatibility(gtm_odd_base_doc.gluing,
                                          gtm_odd_base_doc.base_odd)
    assert cr.ok
    assert cr.level == 2
    assert not cr.fiber_class.trivial
    assert cr.total_class.representative == cr.fiber_class.representative


def test_compatibility_rejects_moving_base_directions(nonsplit_p1):
    with pytest.raises(SupercechError):
        verify_obstruction_compatibility(nonsplit_p1, 1)
