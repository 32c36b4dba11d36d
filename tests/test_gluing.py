import importlib.resources as resources
import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from supercech import gluing
from supercech.errors import CocycleError, ContextError, SubstitutionError, SupercechError
from supercech.gluing import (INFINITY, SuperGluingData, SuperTransition,
                              compose_transitions, identity_transition,
                              invert_transition, restrict_odd)
from supercech.grassmann import GrassmannElement, Substitution
from supercech.laurent import LaurentPoly
from supercech.modelfile import parse_model_text
from supercech.parsing import parse_element
from supercech.spaces import Chart, Cover

from conftest import corpus_path, load_model
from dense_reference import evaluate, matrices


def P(chart, text):
    return parse_element(text, chart.vars, chart.odd_rank)


def test_compose_identity(nonsplit_p1):
    t = nonsplit_p1.transitions[("U0", "U1")]
    ident = identity_transition(nonsplit_p1.chart("U0"))
    assert compose_transitions(ident, t) == t


def test_compose_p1_flip_is_identity(split_p1):
    t01 = split_p1.transitions[("U0", "U1")]
    t10 = split_p1.transitions[("U1", "U0")]
    assert compose_transitions(t01, t10).is_identity()
    assert compose_transitions(t10, t01).is_identity()


def test_invert_solves_correction_term(nonsplit_p1):
    t01 = nonsplit_p1.transitions[("U0", "U1")]
    assert invert_transition(t01) == nonsplit_p1.transitions[("U1", "U0")]


def test_invert_refuses_a_one_sided_inverse(monkeypatch, nonsplit_p1):
    # the last check composes "inverse then t"; force that composite off
    # the identity while "t then inverse" still converges
    t = nonsplit_p1.transitions[("U0", "U1")]
    compose = gluing.compose_transitions

    def skewed(s, u):
        comp = compose(s, u)
        if s is t:
            return comp
        odd = {**comp.odd_maps, 1: comp.odd_maps[1].scale(2)}
        return SuperTransition(comp.source, comp.target, comp.even_maps, odd, check=False)

    monkeypatch.setattr(gluing, "compose_transitions", skewed)
    with pytest.raises(SupercechError, match="^one-sided inverse only; data is inconsistent$"):
        invert_transition(t)


def test_invert_refuses_an_iteration_that_does_not_settle(monkeypatch, nonsplit_p1):
    # with every correction dropped, the degree-2 discrepancy of the first
    # inverse never goes away
    monkeypatch.setattr(gluing, "_corrected", lambda image, discrepancy, pull: image)
    with pytest.raises(SupercechError,
                       match=r"^inverse iteration did not terminate \(data not invertible\?\)$"):
        invert_transition(nonsplit_p1.transitions[("U0", "U1")])


def test_invert_level3(nonsplit_p1_level3):
    t01 = nonsplit_p1_level3.transitions[("U0", "U1")]
    assert invert_transition(t01) == nonsplit_p1_level3.transitions[("U1", "U0")]


CORPUS = ["corrupt_sign", "gt_model_p1", "gtm_odd_base", "nonsplit_p1", "nonsplit_p1_level3",
          "split_p1", "split_p1_three_charts", "two_parameter_family"]


@pytest.mark.parametrize("name", CORPUS)
def test_invert_composes_to_the_identity_on_both_sides(name):
    # every transition of every corpus model, including the two of
    # corrupt_sign, which are each invertible but not each other's inverse
    for t in load_model(f"{name}.model").gluing.transitions.values():
        inv = invert_transition(t)
        assert compose_transitions(t, inv).is_identity()
        assert compose_transitions(inv, t).is_identity()


def test_verify_passes_on_corpus(split_p1, nonsplit_p1, split_three_charts,
                                 two_parameter_family):
    for g in (split_p1, nonsplit_p1, split_three_charts, two_parameter_family):
        report = g.verify_cocycle()
        assert report.ok, str(report)


def test_three_chart_cover_checks_triples(split_three_charts):
    report = split_three_charts.verify_cocycle()
    assert report.checks == 7  # 6 inverse directions + 1 triple


def test_corrupted_sign_fails_with_witness():
    bad = load_model("corrupt_sign.model").gluing
    report = bad.verify_cocycle()
    assert not report.ok
    assert report.failures[0].kind == "inverse"
    assert report.failures[0].location == ("U0", "U1")
    assert "theta_1" in report.failures[0].detail
    assert report.failures[0].detail == "theta_1: discrepancy (-2)*theta_1"


def test_a_failed_triple_check_names_its_first_discrepancy():
    # U0 -> U2 doubles theta_1 and U2 -> U0 halves it, so both are inverse
    # to each other, but U0 -> U1 -> U2 no longer equals U0 -> U2
    text = corpus_path("split_p1_three_charts.model").read_text()
    for old, new in (("z = 2*x\n  theta_1 = theta_1", "z = 2*x\n  theta_1 = 2*theta_1"),
                     ("x = z/2\n  theta_1 = theta_1", "x = z/2\n  theta_1 = 1/2*theta_1")):
        assert old in text
        text = text.replace(old, new)
    report = parse_model_text(text).gluing.verify_cocycle()
    assert report.checks == 7
    assert [str(f) for f in report.failures] == [
        "triple check failed on ('U0', 'U1', 'U2'): theta_1: discrepancy -theta_1"]


def test_a_transition_between_two_charts_is_not_the_identity(nonsplit_p1):
    assert not nonsplit_p1.transitions[("U0", "U1")].is_identity()


def test_splitting_type(split_p1, nonsplit_p1, nonsplit_p1_level3):
    assert split_p1.splitting_type() == INFINITY
    assert nonsplit_p1.splitting_type() == 2
    assert nonsplit_p1_level3.splitting_type() == 3


def test_splitting_type_requires_valid_cocycle():
    bad = load_model("corrupt_sign.model").gluing
    with pytest.raises(CocycleError):
        bad.splitting_type()


def test_reduce_reads_off_data(split_p1, nonsplit_p1):
    space, spec = split_p1.reduce()
    m = matrices(spec)[("U0", "U1")]
    assert str(m[0][0]) == "x^-2" and str(m[1][1]) == "x^-2"
    assert str(space.coordinate_maps[("U0", "U1")]["y"]) == "x^-1"
    # deviation terms do not change the reduction
    space2, spec2 = nonsplit_p1.reduce()
    assert spec2.matrices == spec.matrices
    assert space2.coordinate_maps == space.coordinate_maps


def test_report_and_reduction_are_built_once():
    g = load_model("nonsplit_p1.model").gluing
    assert g.verify_cocycle() is g.verify_cocycle()
    space, spec = g.reduce()
    again = g.reduce()
    assert again[0] is space and again[1] is spec
    # the reduction checks the degree <= 1 part only: a doubled deviation
    # term breaks the inverse condition and leaves the reduction alone
    text = corpus_path("nonsplit_p1.model").read_text().replace(
        "x = 1/y + y^-3*theta_1*theta_2", "x = 1/y + 2*y^-3*theta_1*theta_2")
    bad = parse_model_text(text).gluing
    assert bad.reduce()[1].matrices == spec.matrices
    assert bad.deviation_degree() == 2
    with pytest.raises(CocycleError, match=r"inverse check failed on \('U0', 'U1'\)"):
        bad.require_valid()
    with pytest.raises(CocycleError, match="are not inverse"):
        load_model("corrupt_sign.model").gluing.reduce()


def test_conjugate_shares_the_reduction_only_when_it_is_unchanged():
    from supercech.obstruction import scaling_witnesses
    g = load_model("nonsplit_p1.model").gluing
    assert g.conjugate(scaling_witnesses(g, 2))._reduced is None    # g not reduced yet
    reduced = g.reduce()
    # theta -> theta/2 on every chart commutes with the odd matrices
    scaled = scaling_witnesses(g, 2)
    assert g.conjugate(scaled).reduce() is reduced
    # on one chart only it multiplies them by 2 or 1/2
    one = g.conjugate({"U0": scaled["U0"], "U1": identity_transition(g.chart("U1"))})
    one.require_valid()
    assert one.reduce() is not reduced
    assert one.reduce()[0].coordinate_maps == reduced[0].coordinate_maps
    assert one.reduce()[1].matrices != reduced[1].matrices


def test_attempt_split_conjugates_share_the_reduction():
    # every conjugate attempt_split makes keeps the reduced space and odd
    # spec of its input, so their specs and delta0 systems share one table
    from supercech.obstruction import attempt_split
    g = load_model("split_p1.model").gluing
    ch = g.chart("U0")
    witness = SuperTransition(ch, ch, {"x": P(ch, "x + x^2*theta_1*theta_2")},
                              {1: P(ch, "theta_1"), 2: P(ch, "theta_2")})
    gauged = g.conjugate({"U0": witness, "U1": identity_transition(g.chart("U1"))})
    assert gauged.deviation_degree() == 2
    result = attempt_split(gauged)
    assert result.split and result.split_data is not gauged
    assert result.split_data.reduce() is gauged.reduce()


def test_restrict_fiber_of_two_parameter_family(two_parameter_family):
    g = two_parameter_family
    fib = g.restrict_fiber({"t1": Q(1), "t2": Q(2)})
    assert fib.verify_cocycle().ok
    dev = fib.transitions[("U0", "U1")].even_maps["y"].component(2)
    coeff = dev.coefficient((1, 2))
    # deviation scaled by t1 + t2^2 = 5
    assert str(coeff) == "5*x^-3"
    zero_fiber = g.restrict_fiber({"t1": Q(0), "t2": Q(0)})
    assert zero_fiber.splitting_type() == INFINITY


def test_reduce_commutes_with_restriction(two_parameter_family):
    g = two_parameter_family
    point = {"t1": Q(2), "t2": Q(-1)}
    space_fiber, spec_fiber = g.restrict_fiber(point).reduce()
    space_total, spec_total = g.reduce()
    # restricting the reduced family: drop base coordinates from the maps
    for key, cmap in space_fiber.coordinate_maps.items():
        for v, img in cmap.items():
            full = space_total.coordinate_maps[key][v]
            assert img == evaluate(full, point).with_context(img.vars)
    dense_total = matrices(spec_total)
    for key, got in matrices(spec_fiber).items():
        full = dense_total[key]
        for r1, r2 in zip(got, full):
            for e1, e2 in zip(r1, r2):
                assert e1 == evaluate(e2, point).with_context(e1.vars)


def test_embedding_triples(two_parameter_family):
    g = two_parameter_family
    t = g.embedding_splitting_triple({"t1": Q(1), "t2": Q(1)})
    assert (t.embedding, t.fiber, t.family) == (2, 2, 2)
    assert t.lemma_holds
    t0 = g.embedding_splitting_triple({"t1": Q(0), "t2": Q(0)})
    assert (t0.embedding, t0.fiber, t0.family) == (INFINITY, INFINITY, 2)
    assert t0.lemma_holds  # split-fiber convention


def test_conjugation_round_trip(split_p1):
    ch0 = split_p1.chart("U0")
    w0 = SuperTransition(ch0, ch0,
                         {"x": P(ch0, "x - 2*x^3*theta_1*theta_2")},
                         {1: P(ch0, "theta_1"), 2: P(ch0, "theta_2")})
    witnesses = {"U0": w0, "U1": identity_transition(split_p1.chart("U1"))}
    conj = split_p1.conjugate(witnesses)
    assert conj.verify_cocycle().ok
    assert conj.splitting_type() == 2
    back = conj.conjugate({n: invert_transition(w) for n, w in witnesses.items()})
    assert back == split_p1


def test_restrict_odd(gtm_odd_base_doc):
    total = gtm_odd_base_doc.gluing
    fiber = restrict_odd(total, 2)
    assert fiber.verify_cocycle().ok
    assert fiber.splitting_type() == 2
    assert fiber.chart("U0").odd_rank == 2


def _corpus_gluings():
    names = sorted(p.name for p in resources.files("supercech.corpus").iterdir()
                   if p.name.endswith(".model"))
    return [(n, g) for n, g in ((n, load_model(n).gluing) for n in names) if g is not None]


@pytest.mark.parametrize("name,g", _corpus_gluings())
def test_identity_pull_backs(name, g):
    # keeping every odd generator, or evaluating no coordinate, changes nothing
    q = g.chart(g.cover.order[0]).odd_rank
    assert restrict_odd(g, q) == g
    assert g.evaluate_base({}) == g


def test_evaluate_base_in_two_steps(two_parameter_family):
    g = two_parameter_family
    for t1, t2 in ((Q(1), Q(2)), (Q(0), Q(-3, 2)), (Q(-1), Q(0))):
        both = g.evaluate_base({"t1": t1, "t2": t2})
        stepwise = g.evaluate_base({"t1": t1}).evaluate_base({"t2": t2})
        assert stepwise == both
        assert stepwise.chart("U0").vars == ("x",) and not stepwise.base_vars


def test_q0_gluing_is_allowed(gt_model_doc):
    g = gt_model_doc.gluing
    assert g.chart("U0").odd_rank == 0
    assert g.verify_cocycle().ok
    assert g.splitting_type() == INFINITY


# Near-identity witnesses: the identity minus one homogeneous degree-j
# correction N, on x for even j and on one generator for odd j.  Their
# second-order terms have odd degree at least 2j - 1, so above the odd rank
# the inverse is exactly the identity plus N.


def _correction(chart, level, rng):
    idxs = list(combinations(range(1, chart.odd_rank + 1), level))
    terms = {idx: LaurentPoly.monomial(chart.vars, Q(rng.choice([-1, 1]) * rng.randint(1, 5),
                                                     rng.randint(1, 3)),
                                       tuple(rng.randint(-2, 2) for _ in chart.vars))
             for idx in rng.sample(idxs, min(2, len(idxs)))}
    return GrassmannElement(chart.vars, chart.odd_rank, terms)


def _shifted(chart, corrections, sign):
    """The identity of ``chart`` plus ``sign`` times each correction, keyed
    by even coordinate name or generator index."""
    ident = identity_transition(chart)
    even = {v: g + corrections[v].scale(sign) if v in corrections else g
            for v, g in ident.even_maps.items()}
    odd = {b: g + corrections[b].scale(sign) if b in corrections else g
           for b, g in ident.odd_maps.items()}
    return SuperTransition(chart, chart, even, odd)


@pytest.mark.parametrize("q,level", [(q, j) for q in range(3, 7) for j in range(2, q + 1)])
def test_invert_near_identity_witness(q, level):
    rng = random.Random(100 * q + level)
    chart = Chart("U", ("x",), ("t",), q)
    n = {"x" if level % 2 == 0 else rng.randint(1, q): _correction(chart, level, rng)}
    w = _shifted(chart, n, -1)
    inv = invert_transition(w)
    assert compose_transitions(w, inv).is_identity()
    assert compose_transitions(inv, w).is_identity()
    if 2 * level - 1 > q:
        assert inv == _shifted(chart, n, 1)


@pytest.mark.parametrize("q,levels", [(5, (2, 3)), (6, (2, 5)), (6, (4, 3))])
def test_invert_two_level_witness(q, levels):
    rng = random.Random(q)
    chart = Chart("U", ("x",), ("t",), q)
    n = {"x" if j % 2 == 0 else 1: _correction(chart, j, rng) for j in levels}
    w = _shifted(chart, n, -1)
    inv = invert_transition(w)
    assert compose_transitions(w, inv).is_identity()
    assert compose_transitions(inv, w).is_identity()


_U0, _U1 = Chart("U0", ("x",), (), 1), Chart("U1", ("y",), (), 1)


@pytest.mark.parametrize("even,odd,error,message", [
    ({}, None, ValueError, "missing image for even coordinate y"),
    ({"y": P(_U1, "1/y")}, None, ContextError, "image of y not in source context"),
    ({"y": P(_U0, "theta_1")}, None, ValueError, "image of even coordinate y is not even"),
    ({"y": P(_U0, "x + 1")}, None, ValueError,
     "reduced part of y-image is not an invertible monomial"),
    ({"y": P(_U0, "x^2")}, None, ValueError,
     "reduced part of y-image must be c*x^(+-1) in one coordinate"),
    (None, {}, ValueError, "missing image for theta_1"),
    (None, {1: P(_U1, "theta_1")}, ContextError, "image of theta_1 not in source context"),
    (None, {1: P(_U0, "x")}, ValueError, "image of odd coordinate theta_1 is not odd"),
])
def test_transition_rejects_malformed_images(even, odd, error, message):
    even = {"y": P(_U0, "1/x")} if even is None else even
    odd = {1: P(_U0, "x^-2*theta_1")} if odd is None else odd
    with pytest.raises(error) as info:
        SuperTransition(_U0, _U1, even, odd)
    assert str(info.value) == message


@pytest.mark.parametrize("case,message", [
    ("missing", "missing transition for overlap ('U1', 'U0')"),
    ("misplaced", "transition stored at ('U0', 'U1') maps U1->U0"),
    ("base", "base coordinate t not declared on chart U0"),
])
def test_gluing_rejects_inconsistent_transitions(nonsplit_p1, case, message):
    transitions = dict(nonsplit_p1.transitions)
    base_vars = ()
    if case == "missing":
        del transitions[("U1", "U0")]
    elif case == "misplaced":
        transitions[("U0", "U1")] = transitions[("U1", "U0")]
    else:
        base_vars = ("t",)
    with pytest.raises(ValueError) as info:
        SuperGluingData(nonsplit_p1.cover, transitions, base_vars)
    assert str(info.value) == message


_X2 = Chart("U0", ("x",), (), 2)


def _substitute_x(even, odd):
    """``x`` on ``_X2`` under the unchecked images ``even`` and ``odd``."""
    return P(_X2, "x").substitute(Substitution(even, odd, _X2.vars, _X2.odd_rank))


@pytest.mark.parametrize("call,error,message", [
    (lambda t01: compose_transitions(t01, t01), ContextError,
     "cannot compose U0->U1 with U0->U1"),
    (lambda _: invert_transition(SuperTransition(
        _X2, _X2, {"x": P(_X2, "x^2")}, {1: P(_X2, "theta_1"), 2: P(_X2, "theta_2")},
        check=False)),
     SupercechError, "reduced part of x-image is not c*x^(+-1)"),
    (lambda _: invert_transition(SuperTransition(
        _X2, _X2, {"x": P(_X2, "x")}, {1: P(_X2, "theta_1"), 2: P(_X2, "theta_1")},
        check=False)),
     SupercechError, "degree-one odd matrix is not invertible over Laurent polynomials"),
    (lambda _: _substitute_x({"x": P(_X2, "theta_1")},
                             {1: P(_X2, "theta_1"), 2: P(_X2, "theta_2")}),
     SubstitutionError, "image of even coordinate x is not even"),
    (lambda _: _substitute_x({"x": P(_X2, "x")}, {2: P(_X2, "theta_2")}),
     SubstitutionError, "no image for odd generator theta_1"),
    (lambda _: _substitute_x({"x": P(_U1, "y")}, {1: P(_X2, "theta_1"), 2: P(_X2, "theta_2")}),
     ContextError, "Grassmann contexts differ"),
    (lambda _: LaurentPoly.const(("x",), 0.5), TypeError, "not an exact rational: 0.5"),
], ids=["compose mismatch", "reduced not monomial", "odd matrix singular",
        "odd image of x", "no theta_1 image", "foreign context", "float coefficient"])
def test_unchecked_inputs_raise_their_errors(nonsplit_p1, call, error, message):
    with pytest.raises(error) as info:
        call(nonsplit_p1.transitions[("U0", "U1")])
    assert type(info.value) is error
    assert str(info.value) == message
