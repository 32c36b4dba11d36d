"""Multivariate Laurent polynomials with exact rational coefficients.

A ``LaurentPoly`` is a finite sum of terms ``c * x1^e1 * ... * xm^em`` where
the ``ei`` are integers (negative allowed) and ``c`` is a ``Fraction``.  The
ordered tuple of variable names is the *context*; two polynomials can only be
combined when their contexts agree.  No term with zero coefficient is ever
stored, so equality of values is equality of the term maps.

Products go through one fused multiply-accumulate (:func:`mul_into`): every
coefficient product of an output lands in one exponent dict, integral
coefficients are multiplied as ``int``, and one polynomial is built at the
end (:func:`collect`).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .errors import ContextError

Q = Fraction


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact rational: {c!r}")


class LaurentPoly:
    """Immutable Laurent polynomial over Q in a fixed tuple of variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[tuple[int, ...], Fraction] | None = None,
                 trusted: bool = False):
        if trusted:
            # arithmetic results: ``vars`` is a tuple and ``terms`` a fresh
            # dict of integer exponent tuples to nonzero Fractions
            self.vars = vars
            self.terms = terms
            return
        self.vars = tuple(vars)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            n = len(self.vars)
            for exps, c in terms.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != n:
                    raise ValueError("exponent vector length does not match context")
                clean[exps] = clean.get(exps, Q(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "LaurentPoly":
        return cls(tuple(vars), {}, trusted=True)

    @classmethod
    def const(cls, vars: tuple[str, ...], c) -> "LaurentPoly":
        c = _as_fraction(c)
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): c} if c else {}, trusted=True)

    @classmethod
    def var(cls, vars: tuple[str, ...], name: str, power: int = 1) -> "LaurentPoly":
        i = vars.index(name)
        exps = [0] * len(vars)
        exps[i] = power
        return cls(vars, {tuple(exps): Q(1)})

    @classmethod
    def monomial(cls, vars: tuple[str, ...], coef, exps: Iterable[int]) -> "LaurentPoly":
        return cls(vars, {tuple(exps): _as_fraction(coef)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Q(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def is_monomial(self) -> bool:
        """Single term with nonzero coefficient (an invertible element)."""
        return len(self.terms) == 1

    def monomial_parts(self) -> tuple[Fraction, tuple[int, ...]]:
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
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Q(0)) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        return LaurentPoly(self.vars, out, trusted=True)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.vars, {e: -c for e, c in self.terms.items()}, trusted=True)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        acc: dict = {}
        mul_into(acc, self.terms, other.terms)
        return LaurentPoly(self.vars, collect(acc), trusted=True)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = _as_fraction(c)
        if c == 0:
            return LaurentPoly.zero(self.vars)
        return LaurentPoly(self.vars, {e: c * v for e, v in self.terms.items()}, trusted=True)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            c, exps = self.monomial_parts()  # raises if not invertible
            return LaurentPoly(self.vars, {tuple(n * e for e in exps): c ** n}, trusted=True)
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
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            e = list(exps)
            coef = c * e[i]
            e[i] -= 1
            key = tuple(e)
            s = out.get(key, Q(0)) + coef
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return LaurentPoly(self.vars, out)

    # ---------------------------------------------------- context management

    def with_context(self, new_vars: tuple[str, ...]) -> "LaurentPoly":
        """Re-express in a larger (or re-ordered) context containing all used vars."""
        if new_vars == self.vars:
            return self
        idx = []
        for j, v in enumerate(self.vars):
            if v in new_vars:
                idx.append((j, new_vars.index(v)))
            else:
                if any(exps[j] != 0 for exps in self.terms):
                    raise ContextError(f"variable {v} used but absent from new context")
                idx.append((j, None))
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            e = [0] * len(new_vars)
            for j, tgt in idx:
                if tgt is not None:
                    e[tgt] = exps[j]
            key = tuple(e)
            out[key] = out.get(key, Q(0)) + c
        return LaurentPoly(new_vars, out)

    # -------------------------------------------------------------- mappings

    def split_by(self, group_vars: tuple[str, ...]) -> dict[tuple[int, ...], "LaurentPoly"]:
        """Group terms by their exponents in ``group_vars``; values live over
        the remaining variables."""
        gi = [self.vars.index(v) for v in group_vars]
        rest = tuple(v for v in self.vars if v not in group_vars)
        ri = [self.vars.index(v) for v in rest]
        out: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        for exps, c in self.terms.items():
            g = tuple(exps[i] for i in gi)
            r = tuple(exps[i] for i in ri)
            out.setdefault(g, {})[r] = out.get(g, {}).get(r, Q(0)) + c
        return {g: LaurentPoly(rest, t) for g, t in out.items()}

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
                parts.append(_frac_str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(_frac_str(c) + "*" + "*".join(factors))
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def mul_into(acc: dict, p: Mapping[tuple[int, ...], Fraction],
             q: Mapping[tuple[int, ...], Fraction], sign: int = 1) -> None:
    """Add ``sign * p * q`` to the exponent dict ``acc``, whose values are
    ``int`` or ``Fraction``; ``p`` and ``q`` are term maps of one context."""
    qs = [(e2, _small(c2)) for e2, c2 in q.items()]
    for e1, c1 in p.items():
        c1 = sign * _small(c1)
        for e2, c2 in qs:
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def add_into(acc: dict, p: Mapping[tuple[int, ...], Fraction], scale=1) -> None:
    """Add ``scale * p`` to an accumulator of :func:`mul_into`."""
    scale = _small(scale)
    for e, c in p.items():
        acc[e] = acc.get(e, 0) + scale * _small(c)


def collect(acc: dict) -> dict[tuple[int, ...], Fraction]:
    """The nonzero entries of an accumulator of :func:`mul_into`, as a term
    map ready for a trusted :class:`LaurentPoly`."""
    return {e: Fraction(c) if type(c) is int else c for e, c in acc.items() if c}


def _small(c: Fraction):
    """An integral coefficient as ``int``: products of ints skip Fraction's
    normalisation, and the sums stay exact either way."""
    return c.numerator if c.denominator == 1 else c


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
