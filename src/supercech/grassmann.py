"""Grassmann (exterior) algebra elements with Laurent-polynomial coefficients.

An element is a finite sum ``sum_I  c_I(x) * theta_I`` where ``I`` runs over
strictly increasing multi-indices in ``1..q`` and each coefficient ``c_I`` is
a :class:`~supercech.laurent.LaurentPoly` over the even coordinates.  The
product follows the Koszul rule ``theta_a theta_b = -theta_b theta_a`` with
multi-indices kept sorted; the sign of a merge is ``(-1)^{#transpositions}``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping

from .errors import ContextError, SubstitutionError
from .laurent import LaurentPoly

MultiIndex = tuple[int, ...]


def merge_indices(i1: MultiIndex, i2: MultiIndex) -> tuple[MultiIndex, int] | None:
    """Merge two increasing multi-indices; ``None`` on a repeated generator.

    The sign counts the transpositions needed to sort the concatenation.
    """
    if not i1:
        return i2, 1
    if not i2:
        return i1, 1
    if set(i1) & set(i2):
        return None
    merged = []
    sign = 1
    a, b = 0, 0
    while a < len(i1) and b < len(i2):
        if i1[a] < i2[b]:
            merged.append(i1[a])
            a += 1
        else:
            merged.append(i2[b])
            # i2[b] jumps over the remaining entries of i1
            if (len(i1) - a) % 2:
                sign = -sign
            b += 1
    merged.extend(i1[a:])
    merged.extend(i2[b:])
    return tuple(merged), sign


def binomial(e: int, k: int) -> Fraction:
    """Generalized binomial coefficient C(e, k) for integer e (possibly negative)."""
    num = 1
    for j in range(k):
        num *= e - j
    return Fraction(num, factorial(k))


class GrassmannElement:
    """Element of the Grassmann algebra on ``odd_rank`` generators over a
    Laurent-polynomial coefficient ring."""

    __slots__ = ("vars", "odd_rank", "terms")

    def __init__(self, vars: tuple[str, ...], odd_rank: int,
                 terms: Mapping[MultiIndex, LaurentPoly] | None = None):
        self.vars = tuple(vars)
        self.odd_rank = int(odd_rank)
        clean: dict[MultiIndex, LaurentPoly] = {}
        if terms:
            for idx, coeff in terms.items():
                idx = tuple(idx)
                if any(not (1 <= a <= self.odd_rank) for a in idx):
                    raise ValueError(f"odd generator out of range in {idx}")
                if list(idx) != sorted(set(idx)):
                    raise ValueError(f"multi-index must be strictly increasing: {idx}")
                if coeff.vars != self.vars:
                    raise ContextError("coefficient context does not match element context")
                if coeff.is_zero():
                    continue
                if idx in clean:
                    s = clean[idx] + coeff
                    if s.is_zero():
                        del clean[idx]
                    else:
                        clean[idx] = s
                else:
                    clean[idx] = coeff
        self.terms = clean

    # ---------------------------------------------------------- constructors

    @classmethod
    def zero(cls, vars, odd_rank) -> "GrassmannElement":
        return cls(vars, odd_rank, {})

    @classmethod
    def from_poly(cls, poly: LaurentPoly, odd_rank: int) -> "GrassmannElement":
        return cls(poly.vars, odd_rank, {(): poly})

    @classmethod
    def const(cls, vars, odd_rank, c) -> "GrassmannElement":
        return cls.from_poly(LaurentPoly.const(vars, c), odd_rank)

    @classmethod
    def even_var(cls, vars, odd_rank, name: str, power: int = 1) -> "GrassmannElement":
        return cls.from_poly(LaurentPoly.var(vars, name, power), odd_rank)

    @classmethod
    def odd_gen(cls, vars, odd_rank, index: int) -> "GrassmannElement":
        if not 1 <= index <= odd_rank:
            raise ValueError(f"odd generator theta_{index} out of range 1..{odd_rank}")
        return cls(vars, odd_rank, {(index,): LaurentPoly.const(vars, 1)})

    # --------------------------------------------------------------- queries

    def _check(self, other: "GrassmannElement"):
        if self.vars != other.vars or self.odd_rank != other.odd_rank:
            raise ContextError("Grassmann contexts differ")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, idx: MultiIndex) -> LaurentPoly:
        return self.terms.get(tuple(idx), LaurentPoly.zero(self.vars))

    def body(self) -> LaurentPoly:
        """Degree-zero coefficient (the reduced part)."""
        return self.coefficient(())

    def parity(self) -> str:
        degs = {len(i) % 2 for i in self.terms}
        if not degs or degs == {0}:
            return "even"
        if degs == {1}:
            return "odd"
        return "mixed"

    def component(self, odd_degree: int) -> "GrassmannElement":
        return GrassmannElement(
            self.vars, self.odd_rank,
            {i: c for i, c in self.terms.items() if len(i) == odd_degree})

    def truncate(self, min_odd_degree: int) -> "GrassmannElement":
        return GrassmannElement(
            self.vars, self.odd_rank,
            {i: c for i, c in self.terms.items() if len(i) >= min_odd_degree})

    def min_odd_degree(self) -> int | None:
        if not self.terms:
            return None
        return min(len(i) for i in self.terms)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        self._check(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            if idx in out:
                s = out[idx] + c
                if s.is_zero():
                    del out[idx]
                else:
                    out[idx] = s
            else:
                out[idx] = c
        return GrassmannElement(self.vars, self.odd_rank, out)

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement(self.vars, self.odd_rank,
                                {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-other)

    def __mul__(self, other) -> "GrassmannElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, LaurentPoly):
            return GrassmannElement(self.vars, self.odd_rank,
                                    {i: c * other for i, c in self.terms.items()})
        self._check(other)
        out: dict[MultiIndex, LaurentPoly] = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                merged = merge_indices(i1, i2)
                if merged is None:
                    continue
                idx, sign = merged
                c = c1 * c2 if sign == 1 else -(c1 * c2)
                if idx in out:
                    s = out[idx] + c
                    if s.is_zero():
                        del out[idx]
                    else:
                        out[idx] = s
                else:
                    out[idx] = c
        return GrassmannElement(self.vars, self.odd_rank, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.__mul__(other)
        return NotImplemented

    def scale(self, c) -> "GrassmannElement":
        if c == 0:
            return GrassmannElement.zero(self.vars, self.odd_rank)
        return GrassmannElement(self.vars, self.odd_rank,
                                {i: co.scale(c) for i, co in self.terms.items()})

    def power(self, e: int) -> "GrassmannElement":
        """Integer power; negative exponents use the finite expansion
        ``(m+n)^e = m^e * sum_k C(e,k) (n/m)^k`` which terminates because the
        positive-degree part ``n`` is nilpotent.  Requires the reduced part to
        be an invertible monomial when ``e < 0``."""
        if e >= 0:
            result = GrassmannElement.const(self.vars, self.odd_rank, 1)
            for _ in range(e):
                result = result * self
            return result
        m = self.body()
        if m.is_zero():
            raise SubstitutionError("negative power of an element with zero reduced part")
        if not m.is_monomial():
            raise SubstitutionError(
                "negative power requires an invertible monomial reduced part")
        n = self - GrassmannElement.from_poly(m, self.odd_rank)
        m_inv = m.inverse()
        u = n * m_inv  # nilpotent
        result = GrassmannElement.const(self.vars, self.odd_rank, 0)
        u_pow = GrassmannElement.const(self.vars, self.odd_rank, 1)
        k = 0
        while not u_pow.is_zero():
            result = result + u_pow.scale(binomial(e, k))
            u_pow = u_pow * u
            k += 1
        return result * (m ** e)

    # -------------------------------------------------------------- calculus

    def odd_derivative(self, gen: int) -> "GrassmannElement":
        """Left partial derivative with respect to ``theta_gen``."""
        if not 1 <= gen <= self.odd_rank:
            raise ValueError(f"odd generator theta_{gen} out of range 1..{self.odd_rank}")
        out: dict[MultiIndex, LaurentPoly] = {}
        for idx, c in self.terms.items():
            if gen not in idx:
                continue
            pos = idx.index(gen)
            rest = idx[:pos] + idx[pos + 1:]
            coeff = c if pos % 2 == 0 else -c
            if rest in out:
                s = out[rest] + coeff
                if s.is_zero():
                    del out[rest]
                else:
                    out[rest] = s
            else:
                out[rest] = coeff
        return GrassmannElement(self.vars, self.odd_rank, out)

    def substitute(self, even_images: Mapping[str, "GrassmannElement"],
                   odd_images: Mapping[int, "GrassmannElement"],
                   target_vars: tuple[str, ...], target_odd_rank: int) -> "GrassmannElement":
        """Simultaneous substitution of every coordinate.

        ``even_images`` maps each even coordinate name to a parity-even
        element of the target algebra and ``odd_images`` maps each generator
        index to a parity-odd element.  Coefficients are expanded through
        nilpotent parts by the finite Taylor rule (see :meth:`power`).
        """
        for v in self.vars:
            if v not in even_images:
                raise SubstitutionError(f"no image for even coordinate {v}")
            if even_images[v].parity() == "odd" and not even_images[v].is_zero():
                raise SubstitutionError(f"image of even coordinate {v} is not even")
        for a in range(1, self.odd_rank + 1):
            if a not in odd_images:
                raise SubstitutionError(f"no image for odd generator theta_{a}")
            if odd_images[a].parity() == "even" and not odd_images[a].is_zero():
                raise SubstitutionError(f"image of theta_{a} is not odd")

        zero = GrassmannElement.zero(target_vars, target_odd_rank)
        result = zero
        pow_cache: dict[tuple[str, int], GrassmannElement] = {}
        for idx, coeff in self.terms.items():
            for exps, c in coeff.terms.items():
                term = GrassmannElement.const(target_vars, target_odd_rank, c)
                for v, e in zip(self.vars, exps):
                    if e == 0:
                        continue
                    key = (v, e)
                    if key not in pow_cache:
                        pow_cache[key] = even_images[v].power(e)
                    term = term * pow_cache[key]
                    if term.is_zero():
                        break
                else:
                    for a in idx:
                        term = term * odd_images[a]
                        if term.is_zero():
                            break
                    result = result + term
        return result

    # ------------------------------------------------------------- interface

    def __eq__(self, other) -> bool:
        return (isinstance(other, GrassmannElement) and self.vars == other.vars
                and self.odd_rank == other.odd_rank and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.odd_rank, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, c in self.sorted_terms():
            theta = "*".join(f"theta_{a}" for a in idx)
            cs = str(c)
            if not idx:
                parts.append(cs)
            elif cs == "1":
                parts.append(theta)
            elif cs == "-1":
                parts.append(f"-{theta}")
            elif "+" in cs or (" - " in cs) or cs.startswith("-"):
                parts.append(f"({cs})*{theta}")
            else:
                parts.append(f"{cs}*{theta}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") and not p.startswith("-(") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"GrassmannElement({self})"
