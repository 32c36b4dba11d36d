import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from supercech import cech
from supercech.cech import CechCochain, cohomology_class, is_coboundary
from supercech.cli import main
from supercech.errors import CocycleError, SupercechError, WindowError
from supercech.laurent import LaurentPoly
from supercech.secondary import (gt_model, model_class, model_class_map, quotient_spec,
                                 secondary_differential, secondary_space, secondary_spaces,
                                 verify_a1_containment, verify_obstruction_compatibility)
from supercech.sheaf import diagonal_block, filtration, sheaf_exterior_power, sheaf_tensor

from conftest import corpus_path, load_model
from dense_reference import contraction_matrix, matrices, mat_mul
from dense_reference import refined_splitting_data as dense_refined_splitting_data


@pytest.fixture(scope="module")
def M(gt_model_doc):
    return gt_model_doc.gt_models["M"]


def test_model_class_nontrivial_and_cross_validated(M):
    report = model_class(M)
    assert not report.cls.trivial
    assert report.cross_validated


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
        got = diagonal_block(filt.ambient, filt.graded[b])
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
    a = 2
    rank = 3
    # use the rank-3 trivial base factor's exterior powers as the test module
    spec = M.base_spec
    cm = contraction_matrix(rank, a)
    target = matrices(sheaf_tensor(spec, sheaf_exterior_power(spec, a - 1)))
    for key, mat in matrices(sheaf_exterior_power(spec, a)).items():
        vars = M.space.cover.chart(key[0]).vars
        lhs = mat_mul(cm, mat, vars)
        rhs = mat_mul(target[key], cm, vars)
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
    basis = cohomology_basis(sheaf_hom(P, diagonal_block(filt.ambient, top)), 1)
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
    from supercech.cech import cech_delta, solve_coboundary
    from supercech.secondary import refined_splitting_data
    c_top = _top_piece_cocycle(M, 3)
    full = c_top.sheaf
    w = CechCochain(full, 0, {("U0",): [LaurentPoly.monomial(("x",), i + 1, (i % 3,))
                                        for i in range(full.rank)]})
    shifted = c_top + cech_delta(w)
    filt = filtration(M.total_odd, 3)
    rank_p = full.rank // filt.ambient.rank
    outside = [f for f in range(full.rank) if f // rank_p not in filt.pieces[3]]
    assert any(f in shifted.sections[("U0", "U1")] for f in outside)
    quot = diagonal_block(full, outside)
    w_quot = solve_coboundary(shifted.restrict(outside, quot))
    lifted = shifted - cech_delta(w_quot.extend(outside, full))
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


# ----------------------------------------- random extensions and cocycles


def _random_cochain(rng, spec, degree):
    """Random 1-cochain, or chart-regular 0-cochain, with small monomials."""
    cover = spec.space.cover
    keys = [(n,) for n in cover.order] if degree == 0 else cover.canonical_overlaps()
    lo = 0 if degree == 0 else -2
    return CechCochain(spec, degree, {tuple(key): [
        LaurentPoly.monomial(cover.chart(key[0]).vars, Q(rng.randint(-3, 3)),
                             tuple(rng.randint(lo, 2) for _ in cover.chart(key[0]).vars))
        for _ in range(spec.rank)] for key in keys})


def _random_cocycle(rng, spec, basis):
    """A rational combination of ``basis`` plus the coboundary of a random
    0-cochain of ``spec``."""
    from supercech.cech import cech_delta
    c = cech_delta(_random_cochain(rng, spec, 0))
    for b in basis:
        c = c + b.scale(Q(rng.randint(-3, 3), rng.randint(1, 2)))
    return c


@pytest.fixture(scope="module")
def fiber_specs(nonsplit_p1, split_three_charts):
    """Fiber specs over the two-chart and the three-chart covers."""
    from conftest import line_bundle
    from supercech.sheaf import sheaf_dual
    space2, odd2 = nonsplit_p1.reduce()
    _, odd3 = split_three_charts.reduce()
    return {2: [line_bundle(space2, 2), line_bundle(space2, -3), odd2],
            3: [odd3, sheaf_dual(odd3), sheaf_exterior_power(odd3, 2)]}


def _random_extension(rng, fiber, base_rank):
    """gt model whose extension cocycle is a random cocycle of
    hom(fiber, trivial base)."""
    from supercech.cech import cohomology_basis
    from supercech.sheaf import sheaf_hom, trivial_spec
    hom = sheaf_hom(fiber, trivial_spec(fiber.space, base_rank))
    theta = _random_cocycle(rng, hom, cohomology_basis(hom, 1))
    return gt_model(fiber.space, fiber, base_rank,
                    {key: theta.section(*key) for key in theta.sections})


@settings(max_examples=12)
@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3]))
def test_connecting_image_of_identity_is_minus_theta(fiber_specs, seed, charts):
    rng = random.Random(seed)
    fiber = rng.choice(fiber_specs[charts])
    m = _random_extension(rng, fiber, rng.randint(1, 2))
    assert model_class(m).cross_validated


@settings(max_examples=12)
@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3]), st.integers(1, 3))
def test_secondary_dimensions_are_copies_of_one_hom(fiber_specs, seed, charts, base_rank):
    # the base spec is trivial, so hom(P, Λ^b O^r ⊗ Λ^a F) is C(r, b)
    # copies of hom(P, Λ^a F), and P depends only on the parity of a + b
    from math import comb
    from supercech.cech import cohomology_basis
    from supercech.secondary import parity_spec
    from supercech.sheaf import sheaf_hom
    rng = random.Random(seed)
    m = _random_extension(rng, rng.choice(fiber_specs[charts]), base_rank)
    for space in secondary_spaces(m):
        small = sheaf_hom(parity_spec(m, space.a + space.b),
                          sheaf_exterior_power(m.fiber_spec, space.a))
        h = len(cohomology_basis(small, space.p))
        assert space.dimension == comb(base_rank, space.b) * h, (space.a, space.b, space.p)


@settings(max_examples=30)
@given(st.integers(0, 2 ** 32))
def test_refined_splitting_data_matches_the_quotient_decisions(M, fiber_specs, seed):
    # a cocycle with a random part lifted through a random piece F_b0, plus
    # a coboundary on every frame, and on two charts a random 1-cochain
    # (every 1-cochain is a cocycle there)
    from supercech.cech import cohomology_basis
    from supercech.secondary import _hom_frames, filtration_of, parity_spec, refined_splitting_data
    from supercech.sheaf import sheaf_hom
    rng = random.Random(seed)
    charts = rng.choice([2, 3])
    m = M if rng.random() < 0.3 else \
        _random_extension(rng, rng.choice(fiber_specs[charts]), rng.randint(1, 2))
    level = rng.randint(1, m.total_odd.rank)
    P = parity_spec(m, level)
    filt = filtration_of(m, level)
    full = sheaf_hom(P, filt.ambient)
    b0 = rng.randint(1, level)
    if not full.rank or not filt.pieces[b0]:
        return
    piece = sheaf_hom(P, diagonal_block(filt.ambient, filt.pieces[b0]))
    lifted = _random_cocycle(rng, piece, cohomology_basis(piece, 1))
    cocycle = _random_cocycle(rng, full, []) + \
        lifted.extend(_hom_frames(filt.pieces[b0], P.rank), full)
    if not m.space.cover.canonical_triples():
        cocycle = cocycle + _random_cochain(rng, full, 1)
    report = refined_splitting_data(m, cocycle, level)
    refined_b, secondary = dense_refined_splitting_data(m, cocycle, level)
    assert report.refined_b == refined_b
    assert report.secondary == secondary


def test_compatibility_on_odd_base_instance(gtm_odd_base_doc):
    cr = verify_obstruction_compatibility(gtm_odd_base_doc.gluing,
                                          gtm_odd_base_doc.base_odd)
    assert cr.ok
    assert cr.level == 2
    assert not cr.fiber_class.trivial
    assert cr.total_class.representative == cr.fiber_class.representative


def test_compatibility_decides_on_one_system(gtm_odd_base_doc, monkeypatch):
    # the restricted and the fiber's deviation cochains share one hom sheaf,
    # so the three class decisions build and eliminate one delta0 system
    from supercech import linalg
    built, eliminations = [], []
    linearize, rref = cech._delta0_linearization, linalg.rref

    def counted(sheaf, bound):
        if bound not in sheaf.linearizations:
            built.append((sheaf, bound))
        return linearize(sheaf, bound)

    monkeypatch.setattr(cech, "_delta0_linearization", counted)
    monkeypatch.setattr(linalg, "rref", lambda rows: eliminations.append(rows) or rref(rows))
    cr = verify_obstruction_compatibility(gtm_odd_base_doc.gluing, gtm_odd_base_doc.base_odd)
    assert cr.ok
    assert len(built) == 1 and len(eliminations) == 1


def test_compatibility_rejects_moving_base_directions(nonsplit_p1):
    with pytest.raises(SupercechError):
        verify_obstruction_compatibility(nonsplit_p1, 1)


def test_derived_window_over_the_budget_fails_before_any_system(monkeypatch):
    # with a budget of 100 unknowns the derived windows of the first two
    # spaces of gt_model_p1 fit (48 and 88 unknowns) and the rank-12 space
    # (0, 1) in degree 0 does not (144); nothing is built before it fails
    m = load_model("gt_model_p1.model").gt_models["M"]
    built = []
    linearize = cech._delta0_linearization
    monkeypatch.setattr(cech, "_delta0_linearization",
                        lambda sheaf, bound: built.append(bound) or linearize(sheaf, bound))
    monkeypatch.setattr(cech, "MAX_UNKNOWNS", 100)
    with pytest.raises(WindowError) as err:
        secondary_spaces(m)
    assert str(err.value) == (
        "exponent window 0..5 needs a delta0 system of 144 unknowns "
        "(2 charts x rank 12 x window box), over the budget of 100; pass a smaller window")
    assert built == []


def test_a1_check_refuses_a_derived_window_before_any_system(monkeypatch, capsys):
    # with a budget of 100 unknowns the derived basis windows of the (1, 0)
    # and (1, 1) spaces of gt_model_p1 fit (48 unknowns each) and that of
    # the rank-12 (1, 2) space does not (144); a1-check checks every b
    # before it decides anything, so nothing is built
    built = []
    linearize = cech._delta0_linearization
    monkeypatch.setattr(cech, "_delta0_linearization",
                        lambda sheaf, bound: built.append(bound) or linearize(sheaf, bound))
    monkeypatch.setattr(cech, "MAX_UNKNOWNS", 100)
    code = main(["a1-check", "--input", str(corpus_path("gt_model_p1.model"))])
    err = capsys.readouterr().err
    assert code == 3
    assert "exponent window 0..5 needs a delta0 system of 144 unknowns" in err
    assert built == []
