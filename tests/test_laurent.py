from fractions import Fraction as Q

import pytest

from supercech.errors import ContextError
from supercech.laurent import LaurentPoly
from supercech.spaces import MonomialMap

X = ("x",)
XT = ("x", "t")


def mono(coef, exps, vars=X):
    return LaurentPoly.monomial(vars, coef, exps)


def test_zero_terms_are_dropped():
    p = LaurentPoly(X, {(1,): Q(2), (0,): Q(0)})
    assert list(p.terms) == [(1,)]
    assert (p - p).is_zero()


def test_exponent_length_checked():
    with pytest.raises(ValueError):
        LaurentPoly(X, {(1, 2): Q(1)})


def test_arithmetic():
    p = mono(2, (3,)) + mono(1, (-1,))
    q = mono(1, (1,))
    assert p * q == mono(2, (4,)) + mono(1, (0,))
    assert (p - p).is_zero()
    assert p.scale(Q(1, 2)) == mono(1, (3,)) + mono(Q(1, 2), (-1,))


def test_negative_power_needs_monomial():
    p = mono(2, (3,))
    assert p ** -1 == mono(Q(1, 2), (-3,))
    with pytest.raises(ValueError):
        (p + mono(1, (0,))) ** -1


def test_context_mismatch():
    with pytest.raises(ContextError):
        mono(1, (1,)) + mono(1, (1, 0), XT)


def test_with_context_embeds_and_reorders():
    p = mono(3, (2,))
    q = p.with_context(XT)
    assert q == mono(3, (2, 0), XT)
    with pytest.raises(ContextError):
        mono(1, (1, 1), XT).with_context(X)


def test_derivative():
    p = mono(1, (3,)) + mono(5, (0,)) + mono(1, (-2,))
    assert p.derivative("x") == mono(3, (2,)) + mono(-2, (-3,))


def test_monomial_map_composition():
    p = mono(1, (2,))
    assert MonomialMap([mono(1, (-1,))], X).apply(p) == mono(1, (-2,))
    assert MonomialMap([mono(Q(1, 2), (1,))], X).apply(p) == mono(Q(1, 4), (2,))
    # only invertible monomials are images
    with pytest.raises(ValueError):
        MonomialMap([mono(1, (1,)) + mono(1, (0,))], X)


def test_split_by_groups_base_monomials():
    p = LaurentPoly(XT, {(1, 0): Q(1), (2, 1): Q(3), (0, 1): Q(-1)})
    groups = p.split_by(("t",))
    assert groups[(0,)] == mono(1, (1,))
    assert groups[(1,)] == mono(3, (2,)) + mono(-1, (0,))


def test_str_is_deterministic():
    p = mono(1, (-1,)) + mono(Q(-1, 2), (2,))
    assert str(p) == "x^-1 - 1/2*x^2"
