"""Multivariate Laurent polynomials with exact rational coefficients.

A ``LaurentPoly`` is a finite sum of terms ``c * x1^e1 * ... * xm^em`` where
the ``ei`` are integers (negative allowed) and ``c`` is an exact rational.
The ordered tuple of variable names is the *context*; two polynomials can
only be combined when their contexts agree.  No term with zero coefficient is
ever stored, so equality of values is equality of the term maps.

Coefficient convention.  Every coefficient the package stores -- polynomial
terms and the raw Grassmann forms built from them -- is an ``int`` when it
is integral and a ``Fraction`` otherwise, so products of integral coefficients
skip ``Fraction``'s normalisation.  This module alone applies the rule:
:func:`_coefficient` admits a value from outside (a ``float`` is refused),
:func:`collect` normalises every accumulated sum, and :func:`div` is the one
exact quotient (``int / int`` would be a ``float``).  ``int`` and
``Fraction`` compare and hash alike, so equality, dict keys and printing do
not depend on the type.

Products go through one fused multiply-accumulate (:func:`mul_into`): every
coefficient product of an output lands in one exponent dict, and one
polynomial is built at the end (:func:`collect`); sums go through
:func:`add_into` into the same kind of dict.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .errors import ContextError

Q = Fraction
Coef = int | Fraction


def _coefficient(c) -> Coef:
    """``c`` as a coefficient of the convention; ``c`` is an ``int``, a
    ``Fraction`` or a string such as ``"-3/4"``."""
    if type(c) is int:
        return c
    if isinstance(c, (int, str)):
        c = Fraction(c)
    elif not isinstance(c, Fraction):
        raise TypeError(f"not an exact rational: {c!r}")
    return c.numerator if c.denominator == 1 else c


def div(a: Coef, b: Coef) -> Coef:
    """The exact quotient ``a / b`` as a coefficient of the convention."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coefficient(a / b)


class LaurentPoly:
    """Immutable Laurent polynomial over Q in a fixed tuple of variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], Coef] | None = None,
                 trusted: bool = False):
        if trusted:
            # arithmetic results: ``vars`` is a tuple and ``terms`` a fresh
            # dict of integer exponent tuples to nonzero coefficients of the
            # convention
            self.vars = vars
            self.terms = terms
            return
        self.vars = tuple(vars)
        acc: dict[tuple[int, ...], Coef] = {}
        if terms:
            n = len(self.vars)
            for exps, c in terms.items():
                c = _coefficient(c)
                if c == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != n:
                    raise ValueError("exponent vector length does not match context")
                acc[exps] = acc.get(exps, 0) + c
        self.terms = collect(acc)

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "LaurentPoly":
        return cls(tuple(vars), {}, trusted=True)

    @classmethod
    def const(cls, vars: tuple[str, ...], c) -> "LaurentPoly":
        c = _coefficient(c)
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c} if c else {}, trusted=True)

    @classmethod
    def var(cls, vars: tuple[str, ...], name: str, power: int = 1) -> "LaurentPoly":
        i = vars.index(name)
        exps = [0] * len(vars)
        exps[i] = power
        return cls(vars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, vars: tuple[str, ...], coef, exps: Iterable[int]) -> "LaurentPoly":
        return cls(vars, {tuple(exps): coef})

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        """Single term with nonzero coefficient (an invertible element)."""
        return len(self.terms) == 1

    def monomial_parts(self) -> tuple[Coef, tuple[int, ...]]:
        if not self.is_monomial():
            raise ValueError("not a monomial")
        exps, c = next(iter(self.terms.items()))
        return c, exps

    # ------------------------------------------------------------ arithmetic

    def _check(self, other: "LaurentPoly"):
        if self.vars != other.vars:
            raise ContextError(f"contexts differ: {self.vars} vs {other.vars}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        acc = dict(self.terms)
        add_into(acc, other.terms)
        return LaurentPoly(self.vars, collect(acc), trusted=True)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.vars, {e: -c for e, c in self.terms.items()}, trusted=True)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, Coef):
            return self.scale(other)
        self._check(other)
        acc: dict = {}
        mul_into(acc, self.terms, other.terms)
        return LaurentPoly(self.vars, collect(acc), trusted=True)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        acc: dict = {}
        add_into(acc, self.terms, _coefficient(c))
        return LaurentPoly(self.vars, collect(acc), trusted=True)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            c, exps = self.monomial_parts()  # raises if not invertible
            return LaurentPoly(self.vars, {tuple(n * e for e in exps): div(1, c ** -n)},
                               trusted=True)
        result = LaurentPoly.const(self.vars, 1)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        return self ** (-1)

    def derivative(self, name: str) -> "LaurentPoly":
        i = self.vars.index(name)
        # lowering one exponent keeps the terms apart
        return LaurentPoly(self.vars, collect(
            {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: exps[i] * c
             for exps, c in self.terms.items()}), trusted=True)

    # ---------------------------------------------------- context management

    def with_context(self, new_vars: tuple[str, ...]) -> "LaurentPoly":
        """Re-express in a larger (or re-ordered) context containing all used vars."""
        if new_vars == self.vars:
            return self
        pos = [self.vars.index(v) if v in self.vars else None for v in new_vars]
        for j, v in enumerate(self.vars):
            if v not in new_vars and any(exps[j] for exps in self.terms):
                raise ContextError(f"variable {v} used but absent from new context")
        # every used variable keeps its exponent, so the terms stay apart
        return LaurentPoly(tuple(new_vars), {
            tuple(0 if j is None else exps[j] for j in pos): c
            for exps, c in self.terms.items()}, trusted=True)

    # -------------------------------------------------------------- mappings

    def split_by(self, group_vars: tuple[str, ...]) -> dict[tuple[int, ...], "LaurentPoly"]:
        """Group terms by their exponents in ``group_vars``; values live over
        the remaining variables."""
        gi = [self.vars.index(v) for v in group_vars]
        rest = tuple(v for v in self.vars if v not in group_vars)
        ri = [self.vars.index(v) for v in rest]
        out: dict[tuple[int, ...], dict[tuple[int, ...], Coef]] = {}
        for exps, c in self.terms.items():
            # the group and rest exponents together are the term's own
            out.setdefault(tuple(exps[i] for i in gi), {})[tuple(exps[i] for i in ri)] = c
        return {g: LaurentPoly(rest, t, trusted=True) for g, t in out.items()}

    def exponent_range(self, name: str) -> tuple[int, int] | None:
        i = self.vars.index(name)
        es = [exps[i] for exps in self.terms]
        if not es:
            return None
        return min(es), max(es)

    # ------------------------------------------------------------- interface

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e != 0:
                    factors.append(f"{v}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def mul_into(acc: dict, p: Mapping[tuple[int, ...], Coef],
             q: Mapping[tuple[int, ...], Coef], scale: Coef = 1) -> None:
    """Add ``scale * p * q`` to the exponent dict ``acc``; ``p`` and ``q``
    are term maps of one context."""
    for e1, c1 in p.items():
        c1 = scale * c1
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def add_into(acc: dict, p: Mapping[tuple[int, ...], Coef], scale: Coef = 1) -> None:
    """Add ``scale * p`` to an accumulator of :func:`mul_into`."""
    for e, c in p.items():
        acc[e] = acc.get(e, 0) + scale * c


def collect(acc: dict) -> dict[tuple[int, ...], Coef]:
    """The nonzero entries of an accumulator of :func:`mul_into`, integral
    ones as ``int``: a term map ready for a trusted :class:`LaurentPoly`."""
    return {e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in acc.items() if c}

