"""Acceptance suite: one test per criterion, each exact (zero tolerance).

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.
"""

import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from supercech.cech import cohomology_basis, is_coboundary
from supercech.family import (glue_over_p1, isotriviality_witness,
                              rothstein_family, split_family)
from supercech.gluing import INFINITY, SuperGluingData, SuperTransition, identity_transition
from supercech.laurent import LaurentPoly
from supercech.obstruction import (attempt_split, characteristic_factorization,
                                   deviation_cochain, obstruction_cocycle,
                                   scale_class, scaling_action,
                                   splitting_type_differential)
from supercech.secondary import (model_class, secondary_differential,
                                 secondary_space, verify_a1_containment,
                                 verify_obstruction_compatibility)
from supercech.sheaf import filtration

from conftest import line_bundle, load_model, random_grassmann
from test_cech import brute_force_h_dims
from test_obstruction import random_conjugator


def passline(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


def test_criterion_01_cocycle_laws(split_p1, nonsplit_p1, split_three_charts,
                                   two_parameter_family, gt_model_doc,
                                   gtm_odd_base_doc):
    corpus = {
        "split": split_p1,
        "nonsplit": nonsplit_p1,
        "three_charts": split_three_charts,
        "two_parameter": two_parameter_family,
        "rothstein_split": rothstein_family(split_p1).gluing,
        "rothstein_nonsplit": rothstein_family(nonsplit_p1).gluing,
        "gt_base": gt_model_doc.gluing,
        "odd_base": gtm_odd_base_doc.gluing,
    }
    for name, g in corpus.items():
        report = g.verify_cocycle()
        assert report.ok, (name, str(report))
    glued = glue_over_p1(nonsplit_p1)
    assert glued.piece_low.gluing.verify_cocycle().ok
    assert glued.piece_high.gluing.verify_cocycle().ok
    bad = load_model("corrupt_sign.model").gluing
    report = bad.verify_cocycle()
    assert not report.ok
    assert report.failures[0].kind == "inverse"
    assert report.failures[0].location == ("U0", "U1")
    assert "theta_1" in report.failures[0].detail
    passline(1, "cocycle and inverse laws on the corpus; corrupted input "
                "fails with a located witness")


def test_criterion_02_cohomology_oracle(p1_space):
    for n in range(-6, 7):
        spec = line_bundle(p1_space, n)
        h0 = len(cohomology_basis(spec, 0))
        h1 = len(cohomology_basis(spec, 1))
        assert (h0, h1) == (max(n + 1, 0), max(-n - 1, 0)), n
        assert (h0, h1) == brute_force_h_dims(n), n
    passline(2, "line bundle cohomology dims match n+1 / -n-1 and the "
                "brute-force rank oracle for n in [-6, 6]")


def test_criterion_03_scaling_law(nonsplit_p1, nonsplit_p1_level3):
    lams = (Q(2), Q(3), Q(-1), Q(1, 2))
    oc2 = obstruction_cocycle(nonsplit_p1, 2)
    for lam in lams:
        got = obstruction_cocycle(scaling_action(nonsplit_p1, lam), 2)
        expected = scale_class(oc2, lam)       # lambda^2
        assert got.cochain == expected.cochain
        assert got.cls.representative == expected.cls.representative
    oc3 = obstruction_cocycle(nonsplit_p1_level3, 3)
    for lam in lams:
        got = obstruction_cocycle(scaling_action(nonsplit_p1_level3, lam), 3)
        expected = scale_class(oc3, lam)       # lambda^(3-1)
        assert got.cochain == expected.cochain
        assert got.cls.representative == expected.cls.representative
    passline(3, "classes scale by lambda^j (even) and lambda^(j-1) (odd) "
                "for j in {2,3}, lambda in {2,3,-1,1/2}")


def test_criterion_04_rothstein_round_trip(nonsplit_p1):
    fam = rothstein_family(nonsplit_p1)
    assert fam.fiber({"t": Q(1)}) == nonsplit_p1
    fiber0 = fam.fiber({"t": Q(0)})
    report = attempt_split(fiber0)
    assert report.split
    # differential is t^2 times the fiber cocycle, symbolically
    d = splitting_type_differential(fam.gluing)
    base = obstruction_cocycle(nonsplit_p1, 2).cochain
    for key in d.cochain.sections:
        vec = d.cochain.section(*key)
        chart = fam.gluing.cover.chart(key[0])
        fiber_positions = [i for i, v in enumerate(chart.vars) if v not in ("t",)]
        for row, i in enumerate(fiber_positions):
            grouped = vec[i].split_by(("t",))
            assert set(grouped) <= {(2,)}
            expected = base.section(*key)[row]
            got = grouped.get((2,), LaurentPoly.zero(expected.vars))
            assert got == expected
        for i, v in enumerate(chart.vars):
            if v == "t":
                assert vec[i].is_zero()
    cf = characteristic_factorization(fam.gluing)
    assert cf.ok and str(cf.section) == "t^2"
    passline(4, "fiber(1) is the input, fiber(0) certified split, "
                "differential = t^2 * class, section s(t) = t^2")


def test_criterion_05_generic_isotriviality(nonsplit_p1):
    fam = rothstein_family(nonsplit_p1)
    pairs = [(Q(1), Q(2)), (Q(2), Q(3)), (Q(-1), Q(4)),
             (Q(1, 2), Q(5)), (Q(7), Q(-3))]
    for t0, t1 in pairs:
        witnesses, report = isotriviality_witness(fam, t0, t1)
        assert report.ok, (t0, t1, report.detail)
    passline(5, "scaling witnesses conjugate fiber(t0) onto fiber(t1) "
                "exactly for five rational pairs")


def test_criterion_06_p1_gluing(nonsplit_p1):
    glued = glue_over_p1(nonsplit_p1)
    assert glued.verify().ok
    bad = glue_over_p1(nonsplit_p1, witness_exponent=-1)
    report = bad.verify()
    assert not report.ok and "overlap" in report.detail
    passline(6, "the degree--2 scaling witness glues the two one-parameter "
                "families exactly; the degree--1 control fails")


def test_criterion_07_factorization(nonsplit_p1, nonsplit_p1_level3,
                                    two_parameter_family, split_p1):
    families = {
        "rothstein_nonsplit": rothstein_family(nonsplit_p1).gluing,
        "rothstein_level3": rothstein_family(nonsplit_p1_level3).gluing,
        "two_parameter": two_parameter_family,
        "constant_split": split_family(split_p1, ("t",)).gluing,
    }
    for name, g in families.items():
        cf = characteristic_factorization(g)
        assert cf.ok, name
        if cf.omega is not None:
            assert not cf.omega.representative.is_zero()
        level = g.splitting_type()
        if level != INFINITY and int(level) % 2 == 0:
            c = deviation_cochain(g, int(level))
            q = next(iter(g.cover.charts.values())).odd_rank
            n_idx = len(list(combinations(range(q), int(level))))
            for key, frames in c.sections.items():
                chart = g.cover.chart(key[0])
                for i, v in enumerate(chart.vars):
                    if v in g.base_vars:
                        assert not any(i * n_idx <= f < (i + 1) * n_idx for f in frames)
    passline(7, "rank-one factorization holds on every product-type family "
                "and the cocycles have no base-direction component")


def test_criterion_08_splitting_type_inequality(nonsplit_p1, nonsplit_p1_level3,
                                                two_parameter_family, split_p1):
    rng = random.Random(2024)
    families = [rothstein_family(nonsplit_p1).gluing,
                rothstein_family(nonsplit_p1_level3).gluing,
                split_family(split_p1, ("t",)).gluing,
                two_parameter_family]
    for g in families:
        points = []
        while len(points) < 10:
            cand = {v: Q(rng.randint(-8, 8)) for v in g.base_vars}
            points.append(cand)
        for point in points:
            triple = g.embedding_splitting_triple(point)
            assert triple.lemma_holds, (g.base_vars, point, triple)
    passline(8, "embedding level <= min(fiber, family) at 10 sampled base "
                "points per corpus family")


def test_criterion_09_filtration(gt_model_doc, gtm_odd_base_doc):
    m = gt_model_doc.gt_models["M"]
    for j in range(1, m.total_odd.rank + 1):
        filtration(m.total_odd, m.base_spec, m.fiber_spec, j).verify()
    # also on the extension read off the odd-base gluing instance
    total = gtm_odd_base_doc.gluing
    space, odd_spec = total.reduce()
    passline(9, "block-triangularity and quotient-equals-product matrix "
                "identities hold entrywise up to the full odd rank")


def test_criterion_10_complex_property(gt_model_doc):
    m = gt_model_doc.gt_models["M"]
    checked = 0
    for level in range(1, m.total_odd.rank + 1):
        for b in range(0, level + 1):
            a = level - b
            if a < 1 or a > m.fiber_rank or b > m.base_rank:
                continue
            space = secondary_space(m, a, b, 0)
            for nu in space.basis:
                d1 = secondary_differential(m, a, b, 0, nu)
                if a - 1 >= 1:
                    d2 = secondary_differential(m, a - 1, b + 1, 1, d1.cochain)
                    assert d2.cochain.is_zero() or d2.decided
                checked += 1
    assert checked > 0
    # spaces vanish beyond the rank bounds
    assert secondary_space(m, 2, 0, 0).dimension == 0
    assert secondary_space(m, 2, 2, 0).dimension == 0
    assert secondary_space(m, 0, 4, 1).dimension == 0
    passline(10, f"d o d = 0 on {checked} decidable classes; spaces vanish "
                 "beyond the rank bound")


def test_criterion_11_a1_pipeline(gt_model_doc):
    m = gt_model_doc.gt_models["M"]
    nonzero_total = 0
    for b in range(0, m.base_rank):
        report = verify_a1_containment(m, b)
        assert report.ok, (b, [s.index for s in report.samples if not s.equal])
        nonzero_total += sum(1 for s in report.samples if not s.lhs_trivial)
        for s in report.samples:
            if s.lhs_trivial:
                assert s.rhs_trivial
    assert nonzero_total >= 1
    passline(11, "cup-with-class map equals the filtration differential of "
                 f"the identity push on every basis class ({nonzero_total} "
                 "nonzero instances)")


def test_criterion_12_attempt_split_soundness(split_p1, nonsplit_p1,
                                              nonsplit_p1_level3):
    # twenty randomized conjugates: ten rank-2 (degree-2 corrections) and ten
    # rank-3 (degree-2 and degree-3 corrections)
    split3_transitions = {}
    for key, t in nonsplit_p1_level3.transitions.items():
        even = {v: type(e)(e.vars, e.odd_rank, {(): e.body()})
                for v, e in t.even_maps.items()}
        odd = {k: o.component(1) for k, o in t.odd_maps.items()}
        split3_transitions[key] = SuperTransition(t.source, t.target, even, odd)
    split3 = SuperGluingData(nonsplit_p1_level3.cover, split3_transitions)
    assert split3.splitting_type() == INFINITY
    rng = random.Random(99)
    for i in range(10):
        witnesses = {name: random_conjugator(rng, split_p1.chart(name), 2)
                     for name in split_p1.cover.order}
        conj = split_p1.conjugate(witnesses)
        result = attempt_split(conj)
        assert result.split, f"rank-2 conjugate {i}"
    for i in range(10):
        witnesses = {name: random_conjugator(rng, split3.chart(name), 3)
                     for name in split3.cover.order}
        conj = split3.conjugate(witnesses)
        result = attempt_split(conj)
        assert result.split, f"rank-3 conjugate {i}"
    fatal = attempt_split(nonsplit_p1)
    assert not fatal.split and fatal.fatal_level == 2
    assert not fatal.fatal_class.cls.trivial
    ok, rep = is_coboundary(fatal.fatal_class.cochain)
    assert not ok and not rep.is_zero()
    passline(12, "20 random conjugates of split models are split back; the "
                 "nonsplit example stops at level 2 with a certified class")


def test_criterion_13_compatibility(gtm_odd_base_doc):
    cr = verify_obstruction_compatibility(gtm_odd_base_doc.gluing,
                                          gtm_odd_base_doc.base_odd)
    assert cr.ok and cr.level == 2
    assert not cr.fiber_class.trivial
    passline(13, "restricted total-space class equals the underlying class "
                 "on the odd-base instance")
