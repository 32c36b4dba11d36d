import random
import time
from fractions import Fraction as Q
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

import supercech
from supercech.errors import ParseError, SupercechError
from supercech.grassmann import GrassmannElement
from supercech import parsing
from supercech.laurent import LaurentPoly
from supercech.modelfile import parse_model_text
from supercech.parsing import (MAX_DEPTH, MAX_EXPONENT, ExpressionParser, _power_bound,
                               _product_bound, _size, parse_element, parse_poly)

from conftest import parse, perfbench_models, random_grassmann
from dense_reference import ReferenceParser


def test_rational_literals_via_division():
    e = parse("1/2 + x/3")
    assert e.body() == LaurentPoly(("x",), {(0,): Q(1, 2), (1,): Q(1, 3)})


def test_negative_exponents():
    assert parse("x^-2") == parse("1/x^2")
    assert parse("x^(-2)") == parse("x^-2")


def test_precedence_and_parens():
    assert parse("2*x + 3*x") == parse("5*x")
    assert parse("(x + 1)*(x - 1)") == parse("x^2 - 1")
    assert parse("-x^2") == parse("-(x^2)")


def test_theta_parsing():
    e = parse("theta_2*theta_1")
    assert e == parse("-theta_1*theta_2")
    with pytest.raises(ParseError):
        parse("theta_5")


def test_unknown_name_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_element("x + zz", ("x",), 2, line=7)
    assert "zz" in str(exc.value)
    assert "line 7" in str(exc.value)


def test_division_by_noninvertible_rejected():
    with pytest.raises(ParseError):
        parse("1/(x + 1)")
    # dividing by a monomial is fine
    assert parse("(x^2 + 1)/x") == parse("x + x^-1")


def test_parse_poly_rejects_odd_parts():
    assert parse_poly("x^2 - 1/4", ("x",)) == LaurentPoly(("x",), {(2,): Q(1), (0,): Q(-1, 4)})
    with pytest.raises(ParseError):
        ExpressionParser(("x",), 2).parse_poly("x + theta_1")


@pytest.mark.parametrize("vars", [("theta_1",), ("x", "theta_2"), ("theta_07",)])
def test_coordinate_named_like_an_odd_generator_is_refused(vars):
    name = next(v for v in vars if v.startswith("theta_"))
    with pytest.raises(ValueError, match=f"coordinate name '{name}' is reserved for odd "
                                         f"generators"):
        ExpressionParser(vars, 1)
    # a name that only starts like a generator is a coordinate
    assert ExpressionParser(("theta_x",), 1).parse("theta_x") == \
        GrassmannElement.even_var(("theta_x",), 1, "theta_x")


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse("x + 1 )")


@pytest.mark.parametrize("text,vars,q,col", [
    ("(1+x)^800*theta_1*theta_1", ("x",), 1, 7),
    ("x^100000000", ("x",), 0, 3),
    ("x^(-101)", ("x",), 0, 5),
    ("(1+x+y)^90", ("x", "y"), 0, 8),
    ("(1+x+x^50)^100", ("x",), 0, 11),
    ("(1+x)^60*(1+y)^60", ("x", "y"), 0, 9),
    ("x + theta_" + "1" * 5000, ("x",), 2, 5),
    # nesting past MAX_DEPTH fails at the opening token one level deeper,
    # not in the interpreter's recursion limit
    ("-" * 993 + "x", ("x",), 0, MAX_DEPTH + 1),
    ("x^" + "(" * 992 + "2" + ")" * 992, ("x",), 0, MAX_DEPTH + 3),
    ("(" * 330 + "x" + ")" * 330, ("x",), 0, MAX_DEPTH + 1),
    ("-(" * 60 + "x" + ")" * 60, ("x",), 0, MAX_DEPTH + 1),
])
def test_input_budgets_fail_fast_with_location(text, vars, q, col):
    start = time.process_time()
    with pytest.raises(ParseError) as exc:
        parse_element(text, vars, q, line=4)
    assert time.process_time() - start < 1
    assert f"line 4, column {col}:" in str(exc.value)


def test_expressions_within_budget_parse():
    assert len(parse("(1+x)^100").terms[()].terms) == 101
    assert parse(f"x^-{MAX_EXPONENT}") == parse(f"1/x^{MAX_EXPONENT}")
    assert parse("(1+x)^100*theta_1*theta_1").is_zero()
    # nesting MAX_DEPTH deep, and any number of levels one after another
    assert parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH) == parse("x")
    assert parse("-" * MAX_DEPTH + "x") == parse("x")
    assert parse("x^" + "(" * MAX_DEPTH + "2" + ")" * MAX_DEPTH) == parse("x^2")
    assert parse("+".join(["(" * 60 + "x" + ")" * 60] * 20)) == parse("20*x")


def test_budget_bounds_are_upper_bounds(monkeypatch):
    # with no budget every bound takes its range-based (box) form too
    monkeypatch.setattr(parsing, "MAX_TERMS", 0)
    rng = random.Random(23)
    for _ in range(60):
        a = random_grassmann(rng, ("x", "y"), 3, max_terms=4)
        b = random_grassmann(rng, ("x", "y"), 3, max_terms=4)
        assert _size(a * b) <= _product_bound(a, b)
        e = rng.randint(0, 5)
        assert _size(a.power(e)) <= _power_bound(a, e)
        body = GrassmannElement.from_poly(LaurentPoly.monomial(("x", "y"), 2, (1, -1)), 3)
        c = body + a.truncate(1)
        assert _size(c.power(-1)) <= _power_bound(c, -1)


# ------------------------------------------------ against the reference parser

def _outcome(parser, text, line=None):
    """The parsed element, or the type and text of the error raised."""
    try:
        return parser.parse(text, line)
    except ParseError as exc:
        return "ParseError", str(exc)


def _agree(vars, q, text, line=None):
    got = _outcome(ExpressionParser(vars, q), text, line)
    want = _outcome(ReferenceParser(vars, q), text, line)
    assert got == want, text


NUMBERS = st.integers(0, 12).map(str)
NAMES = st.sampled_from(["x", "y", "theta_1", "theta_2", "theta_3", "theta_0", "theta_4",
                         "theta_01", "z"])
EXPONENTS = st.tuples(st.sampled_from(["{}", "-{}", "({})", "(-{})"]),
                      st.one_of(st.integers(0, 4), st.sampled_from([30, 100, 101]))
                      ).map(lambda t: "^" + t[0].format(t[1]))


def _join(parts, spaces):
    return "".join(p + s for p, s in zip(parts, spaces))


EXPRESSIONS = st.recursive(
    st.one_of(NUMBERS, NAMES),
    lambda inner: st.one_of(
        inner.map(lambda a: f"({a})"),
        inner.map(lambda a: f"-{a}"),
        st.tuples(inner, EXPONENTS).map("".join),
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner,
                  st.lists(st.sampled_from(["", " "]), min_size=3, max_size=3)
                  ).map(lambda t: _join(t[:3], t[3]))),
    max_leaves=8)


@st.composite
def mutated(draw):
    """A drawn expression, often with one character dropped or inserted."""
    text = draw(EXPRESSIONS)
    kind = draw(st.sampled_from(["keep", "keep", "drop", "insert"]))
    if kind == "keep" or not text:
        return text
    at = draw(st.integers(0, len(text) - (kind == "drop")))
    if kind == "drop":
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from(list("()^*/+-$ 7") + ["theta_9", "٣"])) \
        + text[at:]


LARGE = "((1+x)^40*(1+y)^40 + x^100*(1+x)^40*(1+y)^40)"   # 3362 terms


@settings(max_examples=300)
@given(mutated(), st.sampled_from([("x",), ("x", "y")]), st.integers(0, 3))
@example("(1+x)^40*(1+y)^60", ("x", "y"), 0)
@example("theta_1*(1+x)^30*theta_2/x*(1+y)^70", ("x", "y"), 3)
@example("(x+theta_1)^3*y^2*theta_2*(1+theta_3)^-1/(x - theta_1)^2", ("x", "y"), 3)
@example(f"{LARGE}*2", ("x", "y"), 0)
@example(f"2*{LARGE}", ("x", "y"), 0)
@example(f"-{LARGE}/y^2 - 1", ("x", "y"), 0)
@example("1/(x + 1) + 2^-3*(-3)^-2*x^-(2)", ("x", "y"), 0)
@example("0^-1 + theta_1^-1", ("x",), 2)
@example(f"{LARGE} - 0*{LARGE}*theta_1", ("x", "y"), 1)
@example("x*theta_" + "1" * 5000, ("x",), 2)
@example("theta_000" + "9" * 5000 + " + 1", ("x",), 3)
def test_parser_matches_the_reference(text, vars, q):
    _agree(vars, q, text, line=3)


def _workload_models():
    """Model texts the benchmark's input generators write, on two seeds."""
    models = perfbench_models()
    for seed in (1, 2):
        rng = random.Random(seed)
        for d, r in ((2, 1), (4, 3)):
            yield models.gt_model(rng, d, r)
        yield models.nonsplit_level2(supercech, rng)
        yield models.nonsplit_level3(supercech, rng)
        for q in (4, 5, 6):
            for planted in (False, True):
                yield models.gauged_model(supercech, rng, q, planted)


def test_corpus_and_workload_expressions_match_the_reference(monkeypatch):
    seen = []
    parse = ExpressionParser.parse

    def recording(self, text, line=None):
        seen.append((self.vars, self.odd_rank, text, line))
        return parse(self, text, line)

    texts = [p.read_text() for p in resources.files("supercech.corpus").iterdir()
             if p.name.endswith(".model")]
    texts += list(_workload_models())
    monkeypatch.setattr(ExpressionParser, "parse", recording)
    for text in texts:
        try:
            parse_model_text(text)
        except SupercechError:  # corrupt_sign.model and the like still parse every line
            pass
    monkeypatch.undo()
    assert len(texts) > 20 and len(seen) > 200
    for vars, q, text, line in seen:
        _agree(vars, q, text, line)
