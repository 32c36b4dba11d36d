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
        filtration(M.total_odd, M.base_spec, M.fiber_spec, j).verify()


def test_filtration_check_refuses_a_piece_whose_frames_leak():
    # at level 1 the piece F_1 is the base frames 0..2; theta moves the
    # fiber frame 3 onto frame 0, so F_1 given as frame 3 is no subsheaf
    from dataclasses import replace
    m = load_model("gt_model_p1.model").gt_models["M"]
    filt = filtration(m.total_odd, m.base_spec, m.fiber_spec, 1)
    assert filt.pieces[1] == [0, 1, 2]
    filt.verify()
    with pytest.raises(CocycleError) as err:
        replace(filt, pieces={**filt.pieces, 1: [3]}).verify()
    assert str(err.value) == "filtration not respected on ('U0', 'U1') at entry (0,3)"


def test_filtration_check_refuses_a_graded_block_off_the_product():
    # doubling the fiber entry x^-4 of the level-1 ambient on U0 U1 keeps
    # every piece a subsheaf, but F_0/F_1 is then not the fiber spec
    from dataclasses import replace
    from supercech.laurent import LaurentPoly as Poly
    from supercech.sheaf import sheaf_spec
    m = load_model("gt_model_p1.model").gt_models["M"]
    filt = filtration(m.total_odd, m.base_spec, m.fiber_spec, 1)
    amb = filt.ambient
    key = ("U0", "U1")
    column = amb.matrices[key][3]
    assert column[-1] == (3, Poly.monomial(("x",), 1, (-4,)))
    altered = {**amb.matrices,
               key: amb.matrices[key][:3] + (column[:-1] + ((3, column[-1][1].scale(2)),),)}
    wrong = replace(filt, ambient=sheaf_spec(amb.space, amb.rank, altered))
    with pytest.raises(CocycleError) as err:
        wrong.verify()
    assert str(err.value) == "quotient F_0/F_1 differs from the product matrices"


def _argument_cases():
    """``(id, call, error type, message)`` for the library's argument
    checks; each call takes the gt_model_p1 model and the fiber specs of
    the two- and three-chart covers."""
    from supercech.sheaf import columns_of, sheaf_hom
    zero = LaurentPoly.zero(("x",))
    return [
        ("columns_of", lambda M, specs: columns_of([[zero, zero], [zero]]),
         ValueError, "matrix with 2 rows is not square"),
        ("sheaf_tensor", lambda M, specs: sheaf_tensor(specs[2][0], specs[3][0]),
         CocycleError, "tensor factors live on different covers"),
        ("sheaf_hom", lambda M, specs: sheaf_hom(specs[2][0], specs[3][0]),
         CocycleError, "hom factors live on different covers"),
        ("sheaf_exterior_power", lambda M, specs: sheaf_exterior_power(specs[2][0], -1),
         ValueError, "negative exterior power"),
        ("secondary_space", lambda M, specs: secondary_space(M, 1, 0, 2),
         ValueError, "degrees 0 and 1 are decided"),
        ("secondary_differential", lambda M, specs: secondary_differential(
            M, 1, 0, 0, CechCochain(secondary_space(M, 1, 0, 0).spec, 1)),
         ValueError, "nu has degree 1, not 0"),
        ("model_class_map", lambda M, specs: model_class_map(
            M, 0, 1, 0, secondary_space(M, 0, 1, 0).basis[0]),
         ValueError, "the map needs a >= 1"),
    ]


@pytest.mark.parametrize("name, call, error, message", _argument_cases(),
                         ids=[case[0] for case in _argument_cases()])
def test_argument_checks_raise_their_errors(M, fiber_specs, name, call, error, message):
    with pytest.raises(error) as err:
        call(M, fiber_specs)
    assert type(err.value) is error
    assert str(err.value) == message


def test_quotient_matches_kron(M):
    filt = filtration(M.total_odd, M.base_spec, M.fiber_spec, 3)
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
        report = verify_a1_containment(M, b)
        assert report.ok, (b, [s for s in report.samples if not s.equal])


def test_a1_containment_has_nonzero_instances(M):
    report = verify_a1_containment(M, 2)
    nonzero = [s for s in report.samples if not s.lhs_trivial]
    assert len(nonzero) >= 1
    for s in nonzero:
        assert not s.rhs_trivial


def test_kernel_containment_when_cup_vanishes(M):
    # classes with zero cup image have zero differential image of the push
    report = verify_a1_containment(M, 2)
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
    filt = filtration(M.total_odd, M.base_spec, M.fiber_spec, level)
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
    filt = filtration(M.total_odd, M.base_spec, M.fiber_spec, 3)
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
    # copies of hom(P, Λ^a F), and P depends only on the parity of a + b;
    # checked on the whole sheaf's basis, which does not use the identity
    from math import comb
    from dense_reference import secondary_space as reference_space
    from supercech.cech import cohomology_basis
    from supercech.secondary import parity_spec
    from supercech.sheaf import sheaf_hom
    rng = random.Random(seed)
    m = _random_extension(rng, rng.choice(fiber_specs[charts]), base_rank)
    for space in secondary_spaces(m):
        small = sheaf_hom(parity_spec(m, space.a + space.b),
                          sheaf_exterior_power(m.fiber_spec, space.a))
        h = len(cohomology_basis(small, space.p))
        _, whole = reference_space(m, space.a, space.b, space.p)
        assert len(whole) == comb(base_rank, space.b) * h, (space.a, space.b, space.p)
        assert space.dimension == len(whole), (space.a, space.b, space.p)


def _assert_spaces_as_reference(m, window=None):
    """Every space of ``secondary_spaces``, and ``secondary_space`` at the
    same (a, b, p) and at a past the fiber rank or b past the base rank,
    has the dimension, the basis cochains in order and the sheaf of
    ``dense_reference.secondary_space``."""
    from dense_reference import secondary_space as reference_space
    spaces = secondary_spaces(m, window=window)
    keys = [(s.a, s.b, s.p) for s in spaces]
    assert keys == [(level - b, b, p) for level in range(1, m.total_odd.rank + 1)
                    for b in range(level + 1)
                    if level - b <= m.fiber_rank and b <= m.base_rank for p in (0, 1)]
    outside = [(m.fiber_rank + 1, 0, 0), (1, m.base_rank + 1, 1)]
    for (a, b, p), space in [*zip(keys, spaces), *((key, None) for key in outside)]:
        spec, basis = reference_space(m, a, b, p, window=window)
        for got in (space, secondary_space(m, a, b, p, window=window)):
            if got is None:
                continue
            assert (got.a, got.b, got.p) == (a, b, p)
            assert got.dimension == len(basis), (a, b, p)
            assert got.spec is spec, (a, b, p)
            assert got.basis == basis, (a, b, p)
            assert all(c.sheaf is spec for c in got.basis), (a, b, p)


@pytest.mark.parametrize("window", [None, 0, 3, 9])
@pytest.mark.parametrize("name", ["gt_model_p1", "gt(4, 4) seed 1", "gt(4, 4) seed 7",
                                  "gt(6, 6) seed 1", "gt(6, 6) seed 7"])
def test_secondary_spaces_match_the_whole_sheaf_reference(name, window):
    _assert_spaces_as_reference(_named_gt(name), window)


@settings(max_examples=12)
@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3]), st.sampled_from([None, 0, 3, 9]))
def test_secondary_spaces_of_random_extensions_match_the_whole_sheaf_reference(
        fiber_specs, seed, charts, window):
    # fibers of rank 1 and 2 on the two- and three-chart covers
    rng = random.Random(seed)
    _assert_spaces_as_reference(_random_extension(rng, rng.choice(fiber_specs[charts]),
                                                  rng.randint(1, 3)), window)


@settings(max_examples=12)
@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3]))
def test_differential_is_the_coboundary_on_the_whole_exterior_power(fiber_specs, seed, charts):
    # fibers of rank 1 and 2; with rank 2 the two-step quotient F_b/F_{b+2}
    # is smaller than F_b when a = 2
    from dense_reference import secondary_differential as dense_differential
    from supercech.secondary import hom_into_quotient
    rng = random.Random(seed)
    m = _random_extension(rng, rng.choice(fiber_specs[charts]), rng.randint(1, 3))
    for space in secondary_spaces(m):
        if space.a == 0 or not space.basis:
            continue
        for nu in rng.sample(space.basis, min(2, space.dimension)):
            got = secondary_differential(m, space.a, space.b, space.p, nu).cochain
            assert got.sheaf is hom_into_quotient(m, space.a - 1, space.b + 1)
            assert got == dense_differential(m, space.a, space.b, space.p, nu)


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
        if ("delta0", sheaf, bound) not in sheaf.space.specs:
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


# ------------------------------ A1 samples against the per-sample reference


def _assert_a1_as_reference(m):
    """``verify_a1_containment`` and ``dense_reference.a1_containment`` give
    the same dimension, samples and nonzero count at every b a1-check
    samples (0 to base rank - 1), and the model-class map equals the
    tensor-sheaf path on every basis class of those (1, b) spaces in
    degrees 0 and 1."""
    from dense_reference import a1_containment, model_class_image
    for b in range(m.base_rank):
        got, want = verify_a1_containment(m, b), a1_containment(m, b)
        assert (got.dimension, got.samples) == (want.dimension, want.samples), b
        assert sum(not s.lhs_trivial for s in got.samples) == \
            sum(not s.lhs_trivial for s in want.samples)
        for p in (0, 1):
            for nu in secondary_space(m, 1, b, p).basis:
                assert model_class_map(m, 1, b, p, nu).cochain == model_class_image(m, 1, b, p, nu)


def _perfbench_gt(d, r, seed):
    from conftest import perfbench_models
    from supercech.modelfile import parse_model_text
    return parse_model_text(perfbench_models().gt_model(random.Random(seed), d, r)).gt_models["M"]


def _named_gt(name):
    """The corpus model ``gt_model_p1``, or ``gt(d, r) seed s`` from the
    benchmark's generator."""
    if name == "gt_model_p1":
        return load_model("gt_model_p1.model").gt_models["M"]
    sizes, seed = name[3:].split(") seed ")
    d, r = map(int, sizes.split(", "))
    return _perfbench_gt(d, r, int(seed))


@pytest.mark.parametrize("name", ["gt_model_p1", "gt(4, 4) seed 1", "gt(4, 4) seed 7",
                                  "gt(6, 6) seed 1", "gt(6, 6) seed 7"])
def test_a1_samples_match_the_per_sample_reference(name):
    _assert_a1_as_reference(_named_gt(name))


@settings(max_examples=12)
@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3]))
def test_a1_samples_of_random_extensions_match_the_per_sample_reference(fiber_specs, seed,
                                                                        charts):
    rng = random.Random(seed)
    _assert_a1_as_reference(_random_extension(rng, rng.choice(fiber_specs[charts]),
                                              rng.randint(1, 2)))


def test_a1_samples_of_a_monomial_sweep_match_the_per_sample_reference(p1_space):
    # every gt model on the two-chart P^1 with fiber degree d in 0..4, base
    # rank 1 or 2 and each theta row 0 or +-x^e, e in -d-1..0
    from itertools import product
    from conftest import line_bundle
    for d in range(5):
        fiber = line_bundle(p1_space, d)
        rows = [LaurentPoly.zero(("x",))] + [LaurentPoly.monomial(("x",), s, (e,))
                                            for e in range(-d - 1, 1) for s in (1, -1)]
        for r in (1, 2):
            for theta in product(rows, repeat=r):
                _assert_a1_as_reference(gt_model(p1_space, fiber, r,
                                                 {("U0", "U1"): list(theta)}))


def _local_decisions(monkeypatch):
    """The list that ``(system, degree)`` is appended to each time ``cech``
    decides the H^0 or H^1 basis of a delta0 system."""
    decided = []
    for degree, attr in enumerate(("_h0_basis", "_h1_basis")):
        monkeypatch.setattr(cech, attr, lambda system, local=getattr(cech, attr), degree=degree,
                            **top: decided.append((system, degree)) or local(system, **top))
    return decided


def test_secondary_dimensions_are_decided_on_one_block_each(monkeypatch):
    # reading the dimensions builds no whole space of more than one copy and
    # decides the local basis of each system of each block once per degree;
    # reading a basis then builds its whole space
    from math import comb
    from supercech.secondary import hom_into_quotient, parity_spec
    from supercech.sheaf import sheaf_hom
    m = load_model("gt_model_p1.model").gt_models["M"]
    decided = _local_decisions(monkeypatch)
    spaces = secondary_spaces(m)
    assert [s.dimension for s in spaces] == [16, 0, 3, 3, 21, 0, 9, 0, 48, 0, 1, 1, 7, 0]
    monkeypatch.undo()

    def whole_key(s):
        return ("hom", parity_spec(m, s.a + s.b), quotient_spec(m, s.a, s.b))

    several = [s for s in spaces if comb(m.base_rank, s.b) > 1]
    assert len(several) == 8
    assert not any(whole_key(s) in m.space.specs for s in several)
    blocks = {(sheaf_hom(parity_spec(m, s.a + s.b), sheaf_exterior_power(m.fiber_spec, s.a)),
               s.p) for s in spaces}
    assert len(blocks) == 8
    assert len(decided) == len(set(decided)) == 12
    assert {(system.sheaf, degree) for system, degree in decided} == {
        (diagonal_block(block, frames), p) for block, p in blocks for frames in block.blocks()}
    space = next(s for s in several if s.dimension)
    assert space.basis and whole_key(space) in m.space.specs
    assert all(c.sheaf is hom_into_quotient(m, space.a, space.b) for c in space.basis)


@pytest.mark.parametrize("name, window", [("gt_model_p1", None), ("gt(4, 4) seed 1", None),
                                          ("gt(4, 4) seed 1", 3)])
def test_each_local_basis_is_decided_once(name, window, monkeypatch):
    # reading every dimension, then every basis, decides the H^p basis of
    # each delta0 system once: a whole space reads what its block decided
    decided = _local_decisions(monkeypatch)
    m = _named_gt(name)
    spaces = secondary_spaces(m, window=window)
    dimensions = [s.dimension for s in spaces]
    first = list(decided)
    assert len(first) == len(set(first))
    if name == "gt_model_p1":
        assert len(first) == 12
    assert [len(s.basis) for s in spaces] == dimensions
    assert decided == first


def test_a1_samples_do_not_move_nu(monkeypatch):
    # the connecting map checks that nu is a 0-cocycle, and the cup then
    # reads nu on the leading chart: nothing moves a section of the (1, b)
    # space from one chart to the other
    from supercech.secondary import hom_into_quotient
    from supercech.sheaf import SheafSpec
    m = load_model("gt_model_p1.model").gt_models["M"]
    moved = []
    transport = SheafSpec.transport
    monkeypatch.setattr(SheafSpec, "transport",
                        lambda self, frm, to, frames: moved.append(self) or
                        transport(self, frm, to, frames))
    for b in range(m.base_rank):
        moved.clear()
        report = verify_a1_containment(m, b)
        assert report.samples and report.ok
        assert moved
        assert hom_into_quotient(m, 1, b) not in moved, b


def test_a1_check_decides_each_level_in_one_window(monkeypatch, capsys):
    # each sheaf a1-check builds systems for sees one bound: the basis
    # window of the block of each (1, b) space and of that whole space, and
    # the one window of the samples of its level; decided sample by sample,
    # the rank-3 piece of b = 1 saw six.  The (1, 0) and (1, 2) spaces are
    # copies of one block, hom(P, F) at odd levels, so five sheaves and the
    # two whole spaces of more than one copy are linearized, and six delta0
    # systems are built
    bounds = {}
    linearize = cech._delta0_linearization

    def counted(sheaf, bound):
        bounds.setdefault(sheaf, set()).add(bound)
        return linearize(sheaf, bound)

    monkeypatch.setattr(cech, "_delta0_linearization", counted)
    assert main(["a1-check", "--input", str(corpus_path("gt_model_p1.model"))]) == 0
    assert len(bounds) == 7
    assert all(len(seen) == 1 for seen in bounds.values())
    (space,) = {sheaf.space for sheaf in bounds}
    assert sum(key[0] == "delta0" for key in space.specs) == 6


def test_a1_check_refuses_a_level_before_it_decides_a_sample(monkeypatch, capsys):
    # at b = 1 of gt_model_p1 the basis window of the (1, 1) space needs 48
    # unknowns and the samples' derived windows 3 to 8 need 24 to 54 on the
    # rank-3 piece they are decided in; with a budget of 50 the level's one
    # window, 8, is refused before any sample is decided
    from supercech import secondary
    decided = []
    decide = secondary.cohomology_class
    monkeypatch.setattr(secondary, "cohomology_class",
                        lambda c, window=None: decided.append(c) or decide(c, window=window))
    monkeypatch.setattr(cech, "MAX_UNKNOWNS", 50)
    code = main(["a1-check", "--level", "1", "--input", str(corpus_path("gt_model_p1.model"))])
    assert code == 3
    assert capsys.readouterr().err == (
        "undecidable with current flags: exponent window 0..8 needs a delta0 system of 54 "
        "unknowns (2 charts x rank 3 x window box), over the budget of 50; "
        "pass a smaller window\n")
    assert decided == []


def _refusal(call):
    """The message of the WindowError ``call()`` raises, or None."""
    try:
        call()
    except WindowError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("limits", [{}, {"WINDOW_CAP": 4}, {"MAX_UNKNOWNS": 300}],
                         ids=["real limits", "cap 4", "budget 300"])
@pytest.mark.parametrize("name", ["gt_model_p1", "gt(4, 4) seed 1", "gt(10, 10) seed 1"])
def test_graded_space_plans_refuse_as_the_whole_space_plan(name, limits, monkeypatch):
    # secondary_space and check_a1_window plan on one block of each space;
    # each must refuse exactly when, and with the message with which, a plan
    # on the whole hom_into_quotient(m, a, b) does, for every a up to the
    # fiber rank and b one past the base rank (no copies); gt(10, 10) meets
    # the real budget in 30 of its 240 (a, b, p, window) plans
    from supercech.cech import DecisionPlan
    from supercech.secondary import check_a1_window, hom_into_quotient
    m = _named_gt(name)
    for attr, value in limits.items():
        monkeypatch.setattr(cech, attr, value)

    def whole(a, b, degree, window):
        spec = hom_into_quotient(m, a, b)
        return _refusal(lambda: DecisionPlan(spec, window=window, degree=degree))

    refused = 0
    for window in (None, 0, 3, 9, 30):
        for b in range(m.base_rank + 2):
            for a in range(m.fiber_rank + 1):
                for p in (0, 1):
                    want = whole(a, b, p, window)
                    refused += want is not None
                    assert _refusal(lambda: secondary_space(m, a, b, p, window)) == want, \
                        (a, b, p, window)
            want = whole(1, b, 0, window)
            if want is None and window is not None:
                want = whole(0, b + 1, None, window)
            assert _refusal(lambda: check_a1_window(m, b, window=window)) == want, (b, window)
    assert refused or not limits


def _odd_base_model(deviation: str):
    """gtm_odd_base without its even deviation, with theta_1 on U0 U1 given
    ``deviation`` as its last term ("" for none), and the inverse on U1 U0."""
    from supercech.modelfile import parse_model_text
    text = corpus_path("gtm_odd_base.model").read_text()
    inverse = {"": "", "x^-3*theta_1*theta_2*theta_3": " - y^-3*theta_1*theta_2*theta_3"}
    for old, new in (("y = 1/x + x^-3*theta_1*theta_2", "y = 1/x"),
                     ("x = 1/y + y^-3*theta_1*theta_2 + y^-2*theta_2*theta_3", "x = 1/y"),
                     ("theta_1 = x^-2*theta_1 + x^-1*theta_3",
                      "theta_1 = x^-2*theta_1 + x^-1*theta_3" + (deviation and " + " + deviation)),
                     (" + y^-3*theta_1*theta_2*theta_3", inverse[deviation])):
        assert old in text
        text = text.replace(old, new)
    doc = parse_model_text(text)
    assert doc.gluing.verify_cocycle().ok
    return doc


def test_compatibility_of_split_data_over_an_odd_base():
    doc = _odd_base_model("")
    cr = verify_obstruction_compatibility(doc.gluing, doc.base_odd)
    assert (cr.ok, cr.level, cr.detail) == (True, float("inf"), "both sides split")
    assert cr.total_class is None and cr.fiber_class is None


def test_compatibility_refuses_an_odd_first_level():
    doc = _odd_base_model("x^-3*theta_1*theta_2*theta_3")
    assert doc.gluing.splitting_type() == 3
    with pytest.raises(SupercechError) as info:
        verify_obstruction_compatibility(doc.gluing, doc.base_odd)
    assert str(info.value) == "comparison implemented for even levels"
