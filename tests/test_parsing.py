import random
import time
from fractions import Fraction as Q

import pytest

from supercech.errors import ParseError
from supercech.grassmann import GrassmannElement
from supercech import parsing
from supercech.laurent import LaurentPoly
from supercech.parsing import (MAX_EXPONENT, ExpressionParser, _power_bound, _product_bound,
                               _size, parse_element, parse_poly)

from conftest import parse, random_grassmann


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
