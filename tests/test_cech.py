import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from supercech import cech
from supercech.cech import (CechCochain, DecisionPlan, ShortExactSequence, _cochain_keys,
                            cech_delta, cohomology_basis, cohomology_class, connecting_map,
                            cup_product, extension_sheaf,
                            is_coboundary, is_cocycle, solve_coboundary)
from supercech.errors import CocycleError, WindowError
from supercech import linalg
from supercech.laurent import LaurentPoly
from supercech.secondary import hom_into_quotient
from dense_reference import rank as qrank
from supercech.sheaf import sheaf_dual, sheaf_hom, trivial_spec, sheaf_tensor
from supercech.spaces import ReducedSpace

from conftest import line_bundle

Qz = Q(0)


def mono(space, chart, coef, exp):
    vars = space.cover.chart(chart).vars
    return LaurentPoly.monomial(vars, coef, tuple(exp if v == vars[0] else 0 for v in vars))


def random_cochain(rng, spec, degree):
    sections = {}
    cover = spec.space.cover
    keys = [(n,) for n in cover.order] if degree == 0 else cover.canonical_overlaps()
    lo = 0 if degree == 0 else -2
    for key in keys:
        chart = key[0]
        vec = [None] * spec.rank
        for i in range(spec.rank):
            vec[i] = mono(spec.space, chart, Q(rng.randint(-3, 3)), rng.randint(lo, 2))
        sections[tuple(key) if degree else (key[0],)] = vec
    return CechCochain(spec, degree, sections)


def test_delta_of_global_section_vanishes(p1_space):
    o0 = line_bundle(p1_space, 0)
    one = CechCochain(o0, 0, {("U0",): [mono(p1_space, "U0", 1, 0)],
                              ("U1",): [mono(p1_space, "U1", 1, 0)]})
    assert cech_delta(one).is_zero()


def test_delta_of_partial_section(p1_space):
    o0 = line_bundle(p1_space, 0)
    c = CechCochain(o0, 0, {("U0",): [mono(p1_space, "U0", 1, 0)]})
    d = cech_delta(c)
    assert str(d.sections[("U0", "U1")][0]) == "-1"


def test_degree_0_cochain_that_does_not_glue_is_not_a_cocycle(p1_space):
    triv = trivial_spec(p1_space, 1)
    c = CechCochain(triv, 0, {("U0",): [mono(p1_space, "U0", 1, 0)],
                              ("U1",): [mono(p1_space, "U1", 2, 0)]})
    assert not is_cocycle(c)
    assert is_cocycle(c.scale(0))


def test_arithmetic_refuses_cochains_of_different_sheaves(p1_space):
    # O(1) and O(2) have equal rank and different transition matrices
    one, two = (CechCochain(line_bundle(p1_space, n), 1,
                            {("U0", "U1"): [mono(p1_space, "U0", 1, 0)]}) for n in (1, 2))
    for combine in (one.__add__, one.__sub__):
        with pytest.raises(CocycleError, match="^cochains valued in different sheaves$"):
            combine(two)


def test_delta_squared_zero_on_three_charts(split_three_charts):
    space, odd = split_three_charts.reduce()
    rng = random.Random(5)
    for spec in (odd, trivial_spec(space, 2)):
        for _ in range(10):
            c = random_cochain(rng, spec, 0)
            assert cech_delta(cech_delta(c)).is_zero()


def test_is_coboundary_on_line_bundles(p1_space):
    om2 = line_bundle(p1_space, -2)
    # the canonical nontrivial class of O(-2) is x^-1
    c = CechCochain(om2, 1, {("U0", "U1"): [mono(p1_space, "U0", 1, -1)]})
    ok, rep = is_coboundary(c)
    assert not ok
    assert str(rep.sections[("U0", "U1")][0]) == "x^-1"
    # exponent 0 splits
    c = CechCochain(om2, 1, {("U0", "U1"): [mono(p1_space, "U0", 1, 0)]})
    ok, witness = is_coboundary(c)
    assert ok and cech_delta(witness) == c


def test_any_o0_cochain_splits(p1_space):
    o0 = line_bundle(p1_space, 0)
    rng = random.Random(3)
    for _ in range(5):
        c = random_cochain(rng, o0, 1)
        ok, witness = is_coboundary(c)
        assert ok and cech_delta(witness) == c


def test_zero_cochain_is_coboundary(p1_space):
    o0 = line_bundle(p1_space, 0)
    ok, witness = is_coboundary(CechCochain(o0, 1))
    assert ok and witness.is_zero()


def test_witness_reproduces_coboundary(p1_space):
    rng = random.Random(9)
    om2 = line_bundle(p1_space, -2)
    for _ in range(5):
        b = random_cochain(rng, om2, 0)
        c = cech_delta(b)
        ok, witness = is_coboundary(c)
        assert ok
        assert cech_delta(witness) == c


def test_each_system_is_eliminated_once(p1_space, monkeypatch):
    eliminations = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: eliminations.append(rows) or rref(rows))

    def decide(n, window=4):
        spec = line_bundle(p1_space, n)
        nontrivial = CechCochain(spec, 1, {("U0", "U1"): [mono(p1_space, "U0", 1, -1)]})
        trivial = CechCochain(spec, 1, {("U0", "U1"): [mono(p1_space, "U0", 3, 0)]})
        cls = cohomology_class(nontrivial, window=window)
        assert len(eliminations) == 1          # nontrivial: one elimination
        again = cohomology_class(nontrivial, window=window)
        witness = solve_coboundary(trivial, window=window)
        assert cech_delta(witness) == trivial
        assert solve_coboundary(nontrivial, window=window) is None
        assert len(eliminations) == 1          # same sheaf and window: reused
        return cls, again, witness

    cls, again, witness = decide(-2)
    assert not cls.trivial and again == cls
    eliminations.clear()
    fresh_cls, _, fresh_witness = decide(-2)  # a freshly built sheaf
    assert fresh_cls.representative == cls.representative and fresh_witness == witness

    # a space of its own: the rank-1 block x^2 is interned per space, and
    # other tests decide it on the shared p1_space
    space = ReducedSpace(p1_space.cover, p1_space.coordinate_maps)
    spec = sheaf_tensor(line_bundle(space, -2), trivial_spec(space, 2))
    c = CechCochain(spec, 1, {("U0", "U1"): [mono(space, "U0", 1, 0),
                                              mono(space, "U0", 1, -1)]})
    eliminations.clear()
    assert solve_coboundary(c, window=4) is None
    assert len(eliminations) == 1


def brute_force_h_dims(n: int):
    """Independent rank computation for the two-chart specs with overlap
    matrix x^-n: sections are exponent vectors; the coboundary matrix is
    assembled directly from exponent shifts.  The candidate window covers all
    possible classes and the section window exceeds it by the twist, so both
    dimensions are exact."""
    cand = abs(n) + 1
    window = cand + abs(n) + 1
    # unknowns: f = sum_{0<=e<=window} a_e x^e on U0, g likewise on U1
    # overlap value (in U0 coordinates): x^n * g(1/x) - f(x)
    cols = []
    keyset = set()
    for e in range(window + 1):          # a_e: -x^e
        cols.append({e: Q(-1)})
        keyset.add(e)
    for e in range(window + 1):          # b_e: +x^(n-e)
        cols.append({n - e: Q(1)})
        keyset.add(n - e)
    keys = sorted(keyset)
    pos = {k: i for i, k in enumerate(keys)}
    matrix = [[Qz] * len(cols) for _ in keys]
    for j, col in enumerate(cols):
        for k, v in col.items():
            matrix[pos[k]][j] = v
    image_rank = qrank(matrix)
    h0 = 2 * (window + 1) - image_rank
    # candidate overlap exponents modulo the image of the coboundary
    candidates = [e for e in range(-cand, cand + 1)]
    aug_keys = sorted(keyset | set(candidates))
    pos = {k: i for i, k in enumerate(aug_keys)}
    rows = []
    for col in cols:
        row = [Qz] * len(aug_keys)
        for k, v in col.items():
            row[pos[k]] = v
        rows.append(row)
    h1 = 0
    for e in candidates:
        probe = [Qz] * len(aug_keys)
        probe[pos[e]] = Q(1)
        if qrank(rows + [probe]) > qrank(rows):
            rows.append(probe)
            h1 += 1
    return h0, h1


@pytest.mark.parametrize("n", range(-6, 7))
def test_cohomology_dims_match_brute_force(p1_space, n):
    spec = line_bundle(p1_space, n)
    h0 = len(cohomology_basis(spec, 0))
    h1 = len(cohomology_basis(spec, 1))
    assert (h0, h1) == (max(n + 1, 0), max(-n - 1, 0))
    bf_h0, bf_h1 = brute_force_h_dims(n)
    assert (h0, h1) == (bf_h0, bf_h1)


def upper_triangular_bundle(space, degrees, data):
    """Extension of the line bundles O(n) of ``degrees``, one at a time
    (upper-triangular transitions), by random cocycles."""
    vars = space.cover.chart("U0").vars
    entries = st.dictionaries(st.tuples(st.integers(-3, 3)), st.integers(-2, 2), max_size=3)
    bundle = line_bundle(space, degrees[0])
    for n in degrees[1:]:
        quot = line_bundle(space, n)
        hom = sheaf_hom(quot, bundle)
        theta = CechCochain(hom, 1, {("U0", "U1"): [LaurentPoly(vars, data.draw(entries))
                                                    for _ in range(hom.rank)]})
        bundle = extension_sheaf(bundle, quot, theta)
    return bundle


@settings(max_examples=30)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=3), st.data())
def test_riemann_roch_on_upper_triangular_bundles(p1_space, degrees, data):
    # h0 - h1 = deg + rank on P^1
    bundle = upper_triangular_bundle(p1_space, degrees, data)
    h0 = len(cohomology_basis(bundle, 0))
    h1 = len(cohomology_basis(bundle, 1))
    assert h0 - h1 == sum(degrees) + len(degrees)


@settings(max_examples=30)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=3), st.data())
def test_serre_duality_on_upper_triangular_bundles(p1_space, degrees, data):
    # h1(E) = h0(E^dual (x) K) on P^1, whose canonical bundle K is O(-2)
    bundle = upper_triangular_bundle(p1_space, degrees, data)
    twisted = sheaf_tensor(sheaf_dual(bundle), line_bundle(p1_space, -2))
    assert len(cohomology_basis(bundle, 1)) == len(cohomology_basis(twisted, 0))


@settings(max_examples=40)
@given(st.lists(st.integers(-3, -1), min_size=1, max_size=2),
       st.lists(st.integers(1, 3), min_size=1, max_size=2), st.data())
def test_connecting_map_has_the_rank_exactness_gives(p1_space, sub_degrees, quot_degrees,
                                                     data):
    # 0 -> A -> B -> C -> 0 gives 0 -> H0(A) -> H0(B) -> H0(C) -> H1(A), so
    # the connecting map on H0(C) has rank h0(A) - h0(B) + h0(C); the
    # images are decided in one window, where canonical representatives
    # are linear in the cocycle
    sub = upper_triangular_bundle(p1_space, sub_degrees, data)
    quot = upper_triangular_bundle(p1_space, quot_degrees, data)
    hom = sheaf_hom(quot, sub)
    vars = p1_space.cover.chart("U0").vars
    # H1 of hom(C, A) = O(n) lives on the exponents n + 1 .. -1
    entries = st.dictionaries(st.tuples(st.integers(-5, 0)), st.integers(-2, 2),
                              min_size=1, max_size=3)
    theta = CechCochain(hom, 1, {("U0", "U1"): [LaurentPoly(vars, data.draw(entries))
                                                for _ in range(hom.rank)]})
    total = extension_sheaf(sub, quot, theta)
    ses = ShortExactSequence(total, list(range(sub.rank)))
    images = [connecting_map(ses, s) for s in cohomology_basis(quot, 0)]
    window = max((DecisionPlan(sub, c).top for c in images), default=None)
    reps = [_cochain_keys(cohomology_class(c, window=window).representative) for c in images]
    matrix = [[r.get(k, Qz) for r in reps] for k in sorted(set().union(*reps))]
    h0 = [len(cohomology_basis(spec, 0)) for spec in (sub, total, quot)]
    assert qrank(matrix) == h0[0] - h0[1] + h0[2]


def test_cohomology_basis_on_three_charts(split_three_charts):
    space, odd = split_three_charts.reduce()
    det = None
    from supercech.sheaf import sheaf_exterior_power
    det = sheaf_exterior_power(odd, 2)   # x^-4-style: degree 4
    assert len(cohomology_basis(det, 0)) == 5
    assert len(cohomology_basis(det, 1)) == 0
    dual = None
    from supercech.sheaf import sheaf_dual
    dual = sheaf_dual(det)               # degree -4
    assert len(cohomology_basis(dual, 0)) == 0
    assert len(cohomology_basis(dual, 1)) == 3


# hom_into_quotient(M, 0, 1) of gt_model_p1 has rank 12 and derived window
# 5, so its H^0 system has 2 charts x 12 frames x 6 exponents = 144 unknowns


def test_a_system_at_the_budget_is_decided_and_one_over_is_refused(gt_model_doc, monkeypatch):
    spec = hom_into_quotient(gt_model_doc.gt_models["M"], 0, 1)
    monkeypatch.setattr(cech, "MAX_UNKNOWNS", 144)
    basis = cohomology_basis(spec, 0)
    monkeypatch.setattr(cech, "MAX_UNKNOWNS", 143)
    with pytest.raises(WindowError) as err:
        cohomology_basis(spec, 0)
    assert str(err.value) == (
        "exponent window 0..5 needs a delta0 system of 144 unknowns "
        "(2 charts x rank 12 x window box), over the budget of 143; pass a smaller window")
    monkeypatch.undo()
    assert cohomology_basis(spec, 0) == basis


def test_a_plan_of_copies_counts_the_frames_of_every_copy(gt_model_doc, monkeypatch):
    # three diagonal copies of the rank-12 space keep its windows and need
    # 3 x 144 = 432 unknowns
    spec = hom_into_quotient(gt_model_doc.gt_models["M"], 0, 1)
    one = DecisionPlan(spec, degree=0)
    monkeypatch.setattr(cech, "MAX_UNKNOWNS", 432)
    three = DecisionPlan(spec, degree=0, copies=3)
    assert (three.top, three.bound) == (one.top, one.bound) == (5, 5)
    monkeypatch.setattr(cech, "MAX_UNKNOWNS", 431)
    with pytest.raises(WindowError) as err:
        DecisionPlan(spec, degree=0, copies=3)
    assert str(err.value) == (
        "exponent window 0..5 needs a delta0 system of 432 unknowns "
        "(2 charts x rank 36 x window box), over the budget of 431; pass a smaller window")


def test_a_derived_window_at_the_cap_is_planned_and_one_over_is_refused(gt_model_doc,
                                                                        monkeypatch):
    spec = hom_into_quotient(gt_model_doc.gt_models["M"], 0, 1)
    monkeypatch.setattr(cech, "WINDOW_CAP", 5)
    basis = cohomology_basis(spec, 0)
    monkeypatch.setattr(cech, "WINDOW_CAP", 4)
    with pytest.raises(WindowError, match=r"^derived window 5 exceeds cap 4; "
                                          r"pass an explicit window$"):
        cohomology_basis(spec, 0)
    assert cohomology_basis(spec, 0, window=5) == basis


def test_a_rank_0_plan_refuses_no_window(p1_space, monkeypatch):
    # secondary_spaces and check_a1_window plan rank-0 specs as well
    monkeypatch.setattr(cech, "WINDOW_CAP", 1)
    monkeypatch.setattr(cech, "MAX_UNKNOWNS", 0)
    plan = DecisionPlan(trivial_spec(p1_space, 0), degree=1)
    assert (plan.top, plan.bound) == (2, 4)
    # so a rank-0 basis is decided, and is empty, in both degrees
    for degree in (0, 1):
        assert cohomology_basis(trivial_spec(p1_space, 0), degree) == []
    # no copies of a rank-1 sheaf have no unknowns either
    plan = DecisionPlan(trivial_spec(p1_space, 1), degree=1, copies=0)
    assert (plan.top, plan.bound) == (2, 4)
    with pytest.raises(WindowError, match=r"^derived window 2 exceeds cap 1; "):
        DecisionPlan(trivial_spec(p1_space, 1), degree=1)


@pytest.mark.parametrize("rank", [0, 1])
def test_cohomology_basis_refuses_other_degrees_at_any_rank(p1_space, rank):
    with pytest.raises(ValueError, match=r"^cohomology_basis supports degrees 0 and 1$"):
        cohomology_basis(trivial_spec(p1_space, rank), 2)


def test_cup_product_unit(p1_space):
    om2 = line_bundle(p1_space, -2)
    triv = trivial_spec(p1_space, 1)
    one = CechCochain(triv, 0, {("U0",): [mono(p1_space, "U0", 1, 0)],
                                ("U1",): [mono(p1_space, "U1", 1, 0)]})
    v = CechCochain(om2, 1, {("U0", "U1"): [mono(p1_space, "U0", 1, -1)]})
    uv = cup_product(one, v)
    assert uv.sections[("U0", "U1")] == v.sections[("U0", "U1")]


def test_cup_leibniz_on_three_charts(split_three_charts):
    space, odd = split_three_charts.reduce()
    from supercech.sheaf import sheaf_exterior_power
    A = sheaf_exterior_power(odd, 2)
    B = trivial_spec(space, 1)
    rng = random.Random(21)
    for _ in range(6):
        u = random_cochain(rng, A, 0)
        v = random_cochain(rng, B, 1)
        # delta(u cup v) = delta(u) cup v + u cup delta(v); here v has
        # degree 1 so the second term lands in unsupported degree 3 only
        # when triples are present -- test the degree (0,1) identity instead:
        lhs = cech_delta(cup_product(u, v))
        rhs = cup_product(cech_delta(u), v)
        # u cup delta(v): delta(v) is degree 2; cup (0,2) unsupported, but
        # the Leibniz identity in this shape needs only delta(v) = 0 inputs:
        if cech_delta(v).is_zero():
            assert lhs == rhs
    for _ in range(6):
        u = random_cochain(rng, A, 0)
        b = random_cochain(rng, B, 0)
        lhs = cech_delta(cup_product(u, b))
        rhs = cup_product(cech_delta(u), b) + cup_product(u, cech_delta(b))
        # degree-1 cup degree-0 ordering: (delta u) cup b has the transported
        # b; u cup (delta b) keeps u on the leading chart
        assert lhs == rhs


def test_cup_of_a_degree_two_factor_is_refused(split_three_charts):
    space, odd = split_three_charts.reduce()
    u = random_cochain(random.Random(4), odd, 0)
    w = cech_delta(random_cochain(random.Random(5), trivial_spec(space, 1), 1))
    for left, right, degrees in ((u, w, "(0,2)"), (w, u, "(2,0)")):
        with pytest.raises(ValueError, match=re.escape(f"degrees {degrees} not supported")):
            cup_product(left, right)


def test_cup_well_defined_on_classes(p1_space):
    om2 = line_bundle(p1_space, -2)
    o2 = line_bundle(p1_space, 2)
    u = CechCochain(om2, 1, {("U0", "U1"): [mono(p1_space, "U0", 1, -1)]})
    s = CechCochain(o2, 0, {("U0",): [mono(p1_space, "U0", 1, 1)],
                            ("U1",): [mono(p1_space, "U1", 1, 1)]})
    assert cech_delta(s).is_zero()
    uv = cup_product(u, s)
    # change u by a coboundary
    b = CechCochain(om2, 0, {("U0",): [mono(p1_space, "U0", 3, 2)]})
    u2 = u + cech_delta(b)
    uv2 = cup_product(u2, s)
    ok, _ = is_coboundary(uv2 - uv)
    assert ok


def test_connecting_map_of_extension_reproduces_class(p1_space):
    sub = trivial_spec(p1_space, 1)
    quot = line_bundle(p1_space, 2)
    hom = sheaf_hom(quot, sub)
    coc = CechCochain(hom, 1, {("U0", "U1"): [mono(p1_space, "U0", 1, -1)]})
    ext = extension_sheaf(sub, quot, coc)
    # hom(quot, -) twist of the sequence sub -> ext -> quot
    h_tot = sheaf_hom(quot, ext)
    h_quot = sheaf_hom(quot, quot)
    ses = ShortExactSequence(h_tot, [0])
    ident = CechCochain(h_quot, 0, {("U0",): [mono(p1_space, "U0", 1, 0)],
                                    ("U1",): [mono(p1_space, "U1", 1, 0)]})
    delta1 = connecting_map(ses, ident)
    ok_plus, _ = is_coboundary(delta1 - coc)
    ok_minus, _ = is_coboundary(delta1 + coc)
    assert ok_plus or ok_minus
    # the connecting image of a class from the total spec is a coboundary
    lifted = CechCochain(h_quot, 0, {("U0",): [mono(p1_space, "U0", 2, 1)],
                                     ("U1",): [mono(p1_space, "U1", 2, 1)]})
    if cech_delta(lifted).is_zero():
        out = connecting_map(ses, lifted)
        ok, _ = is_coboundary(out)
        assert ok


def test_connecting_independent_of_lift(p1_space):
    sub = trivial_spec(p1_space, 1)
    quot = line_bundle(p1_space, 2)
    hom = sheaf_hom(quot, sub)
    coc = CechCochain(hom, 1, {("U0", "U1"): [mono(p1_space, "U0", 1, -1)]})
    ext = extension_sheaf(sub, quot, coc)
    h_sub = sheaf_hom(quot, sub)
    h_tot = sheaf_hom(quot, ext)
    h_quot = sheaf_hom(quot, quot)
    ses = ShortExactSequence(h_tot, [0])
    c = CechCochain(h_quot, 0, {("U0",): [mono(p1_space, "U0", 1, 0)],
                                ("U1",): [mono(p1_space, "U1", 1, 0)]})
    out1 = connecting_map(ses, c)
    # second lift: add something in the image of the inclusion
    sigma = ses.section_of_projection()
    lift = c.map(sigma, ses.total)
    lifted = {}
    for key in lift.sections:
        vars = p1_space.cover.chart(key[0]).vars
        base = lift.section(*key)
        # shift by incl(x^2)
        base[0] = base[0] + LaurentPoly.monomial(vars, 5, (2,))
        lifted[key] = base
    lift2 = CechCochain(h_tot, 0, lifted)
    boundary = cech_delta(lift2)
    out2_sections = {}
    for key in boundary.sections:
        out2_sections[key] = [boundary.section(*key)[0]]
    out2 = CechCochain(h_sub, 1, out2_sections)
    ok, _ = is_coboundary(out2 - out1)
    assert ok


def test_short_exact_sequence_checks_its_frames(p1_space):
    sub = trivial_spec(p1_space, 1)
    quot = line_bundle(p1_space, 2)
    coc = CechCochain(sheaf_hom(quot, sub), 1,
                      {("U0", "U1"): [mono(p1_space, "U0", 1, -1)]})
    h_tot = sheaf_hom(quot, extension_sheaf(sub, quot, coc))
    for frames in ([0, 0], [2], [-1]):
        with pytest.raises(ValueError):
            ShortExactSequence(h_tot, frames)
    # the cocycle block moves frame 1 into frame 0, so frame 1 spans no subsheaf
    ses = ShortExactSequence(h_tot, [1])
    c = CechCochain(ses.quot, 0, {("U0",): [mono(p1_space, "U0", 1, 0)],
                                  ("U1",): [mono(p1_space, "U1", 1, 0)]})
    with pytest.raises(CocycleError, match="inclusion is not a sheaf map"):
        connecting_map(ses, c)


def test_connecting_map_rejects_a_non_cocycle(p1_space, split_three_charts):
    sub = trivial_spec(p1_space, 1)
    quot = line_bundle(p1_space, 2)
    coc = CechCochain(sheaf_hom(quot, sub), 1,
                      {("U0", "U1"): [mono(p1_space, "U0", 1, -1)]})
    ses = ShortExactSequence(sheaf_hom(quot, extension_sheaf(sub, quot, coc)), [0])
    # a section on U0 only: its coboundary is the section itself
    c = CechCochain(ses.quot, 0, {("U0",): [mono(p1_space, "U0", 1, 0)]})
    with pytest.raises(CocycleError, match="^connecting map needs a cocycle$"):
        connecting_map(ses, c)
    # degree 1 on three charts: a cochain on a single edge of the triple
    space, odd = split_three_charts.reduce()
    total = trivial_spec(space, 2)
    ses3 = ShortExactSequence(total, [0])
    bad = CechCochain(ses3.quot, 1, {("U0", "U1"): [mono(space, "U0", 1, 0)]})
    with pytest.raises(CocycleError, match="^connecting map needs a cocycle$"):
        connecting_map(ses3, bad)


def test_a_witness_that_does_not_reproduce_the_cocycle_is_refused(p1_space, monkeypatch):
    # the decision checks delta(witness) = c; a placed witness that comes
    # out doubled fails that check
    c = cech_delta(CechCochain(trivial_spec(p1_space, 1), 0,
                               {("U0",): [mono(p1_space, "U0", 1, 1)]}))
    assert cohomology_class(c).trivial
    placed = cech._cochain_from_values
    monkeypatch.setattr(cech, "_cochain_from_values", lambda sheaf, degree, values: (
        placed(sheaf, degree, values).scale(2) if degree == 0 else
        placed(sheaf, degree, values)))
    with pytest.raises(CocycleError) as err:
        cohomology_class(c)
    assert err.value.args == ("internal error: witness does not reproduce the cocycle",)


def test_a_connecting_image_off_the_sub_sheaf_fails_the_cocycle_check(split_three_charts):
    # O -> E -> O on three charts, E glued by the coboundary of y on U1; the
    # connecting image of the constant section is a nonzero cocycle of the
    # sub, but not of a sub of the same rank with other transitions, and a
    # two-chart cover has no triples on which that could show
    from supercech.sheaf import sheaf_exterior_power
    space, odd = split_three_charts.reduce()
    one = trivial_spec(space, 1)
    theta = cech_delta(CechCochain(one, 0, {("U1",): [mono(space, "U1", 1, 1)]}))
    ses = ShortExactSequence(extension_sheaf(one, one, theta), [0])
    unit = CechCochain(ses.quot, 0, {(name,): [mono(space, name, 1, 0)]
                                     for name in space.cover.order})
    assert not connecting_map(ses, unit).is_zero()
    ses.sub = sheaf_exterior_power(odd, 2)
    assert ses.sub.rank == 1 and ses.sub.matrices != one.matrices
    with pytest.raises(CocycleError) as err:
        connecting_map(ses, unit)
    assert err.value.args == ("connecting image failed the cocycle check",)


def test_non_cocycle_rejected(split_three_charts):
    space, odd = split_three_charts.reduce()
    from supercech.sheaf import sheaf_exterior_power
    det = sheaf_exterior_power(odd, 2)
    bad = CechCochain(det, 1, {("U0", "U1"): [mono(space, "U0", 1, 0)]})
    assert not is_cocycle(bad)
    with pytest.raises(CocycleError):
        solve_coboundary(bad)


@pytest.mark.parametrize("degree,key,chart,exps,message", [
    (1, ("U0", "U1"), "U0", [0, 0], "section on ('U0', 'U1') has wrong rank"),
    (1, ("U0", "U1"), "U1", [0], "section on ('U0', 'U1') not in U0-coordinates"),
    (0, ("U0",), "U0", [-1], "degree-0 section on ('U0',) is not chart-regular"),
    (1, ("U1", "U0"), "U1", [0], "('U1', 'U0') is not a canonical 1-tuple of this cover"),
])
def test_cochain_rejects_malformed_sections(p1_space, degree, key, chart, exps, message):
    vec = [mono(p1_space, chart, 1, e) for e in exps]
    with pytest.raises(ValueError) as info:
        CechCochain(trivial_spec(p1_space, 1), degree, {key: vec})
    assert str(info.value) == message


@pytest.mark.parametrize("call,error,message", [
    (lambda c, o1: c + CechCochain(c.sheaf, 0), CocycleError, "cochain degrees differ"),
    (lambda c, o1: c.map([[(0, 1)]], o1), ValueError, "map has 1 columns, source rank is 2"),
    (lambda c, o1: c.restrict([0, 1], o1), ValueError, "2 frames for a sheaf of rank 1"),
    (lambda c, o1: c.extend([0], o1), ValueError, "1 frames for a cochain of rank 2"),
], ids=["add", "map", "restrict", "extend"])
def test_cochain_maps_check_their_arguments(p1_space, call, error, message):
    c = CechCochain(trivial_spec(p1_space, 2), 1,
                    {("U0", "U1"): [mono(p1_space, "U0", 1, -1), mono(p1_space, "U0", 2, 0)]})
    with pytest.raises(error) as info:
        call(c, line_bundle(p1_space, 1))
    assert str(info.value) == message


def _cech_argument_cases():
    """``(id, call, error type, message)`` for ``cech``'s argument checks;
    each call takes the two- and the three-chart spaces."""
    from supercech.cech import canonical_keys
    return [
        ("canonical_keys", lambda p1, p3: canonical_keys(p1.cover, 3),
         ValueError, "degree 3 not supported"),
        ("section", lambda p1, p3: CechCochain(trivial_spec(p1, 1), 1).section("U0"),
         KeyError, "no section for ('U0',)"),
        ("cech_delta", lambda p1, p3: cech_delta(CechCochain(trivial_spec(p3, 1), 2)),
         ValueError, "coboundary out of degree 2 is not supported"),
        ("cohomology_class", lambda p1, p3: cohomology_class(CechCochain(trivial_spec(p1, 1), 0)),
         ValueError, "class formation implemented for degree 1"),
        ("cup_product", lambda p1, p3: cup_product(CechCochain(trivial_spec(p1, 1), 0),
                                                   CechCochain(trivial_spec(p3, 1), 0)),
         CocycleError, "cup factors on different covers"),
        ("connecting_map", lambda p1, p3: connecting_map(
            ShortExactSequence(trivial_spec(p1, 2), [0]), CechCochain(line_bundle(p1, 1), 0)),
         CocycleError, "cochain is not valued in the quotient"),
        ("extension_sheaf", lambda p1, p3: extension_sheaf(
            trivial_spec(p1, 1), trivial_spec(p1, 1), CechCochain(trivial_spec(p1, 1), 0)),
         CocycleError, "extension cocycle must be a degree-1 hom(quot, sub) cochain"),
    ]


@pytest.mark.parametrize("name, call, error, message", _cech_argument_cases(),
                         ids=[case[0] for case in _cech_argument_cases()])
def test_cech_argument_checks_raise_their_errors(p1_space, split_three_charts, name, call,
                                                 error, message):
    with pytest.raises(error) as err:
        call(p1_space, split_three_charts.reduce()[0])
    assert type(err.value) is error
    assert err.value.args == (message,)
