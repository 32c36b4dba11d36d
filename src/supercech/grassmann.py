"""Grassmann (exterior) algebra elements with Laurent-polynomial coefficients.

An element is a finite sum ``sum_I  c_I(x) * theta_I`` where ``I`` runs over
strictly increasing multi-indices in ``1..q`` and each coefficient ``c_I`` is
a :class:`~supercech.laurent.LaurentPoly` over the even coordinates.  The
product follows the Koszul rule ``theta_a theta_b = -theta_b theta_a`` with
multi-indices kept sorted.

Products work on one raw form, ``{mask: {exps: coef}}``: a multi-index
travels as a bitmask (bit ``a`` set for ``theta_a``), the bitmap form of
basis blades (Dorst, Fontijne and Mann, *Geometric Algebra for Computer
Science*, 2007), and its coefficient as an exponent dict whose values follow
the coefficient convention of :mod:`supercech.laurent`.  Two monomials vanish
together when their masks meet, and the sign of ``theta_I theta_J`` is
``(-1)`` to the number of pairs ``i in I, j in J`` with ``i > j``, counted by
:func:`_koszul_sign` with ``int.bit_count``.  One kernel,
:func:`_product_into`, multiplies raw forms: every coefficient product of
one output multi-index is summed in one exponent dict
(:func:`~supercech.laurent.mul_into`), and no element or polynomial is built
until :func:`_collect` converts the result.  Element products, the
substitution memo, the expression parser, and the exterior powers and the
Laurent matrix inverse of :mod:`supercech.sheaf` all go through it: the
latter two wedge sparse matrix columns written as degree-one raw forms
``{1 << row: entry}``.

Substitution of coordinate images is one ring homomorphism,
:class:`Substitution`, which checks its images once per source context.  It
memoises, in raw form and for as long as it lives, the powers of the even
images, their products per exponent vector and the products of the odd
images.  The Taylor series through a nilpotent part runs once per
coordinate, for ``v^-1``; every other power is one product of the memoised
power next to it and ``v^(+-1)``.  A substituted element is converted once,
at the end.  A lone even coordinate or odd generator with coefficient 1
needs neither: after the images are checked, its image is the result.
Near-identity coordinate changes, such as the witnesses of a splitting
attempt and their inverses, are mostly made of such maps.

A monomial map sends every even coordinate and odd generator to zero or to
one term ``c * x^e * theta_J``, with ``J`` empty for an even image: the
scaling witnesses and their inverses, renamed or evaluated base
coordinates, dropped odd generators, sign gauges and ``y = 1/x``.  Each
:class:`Substitution` decides once, from its images, whether it is one.
Such a map sends every term to at most one term, so it substitutes term
by term: the coefficients multiply as powers, the exponent vectors add and
the masks join with :func:`_koszul_sign`, with no power memo and no
product kernel.
"""

from __future__ import annotations

from math import factorial
from operator import add, itemgetter
from typing import Mapping

from .errors import ContextError, SubstitutionError
from .laurent import Coef, LaurentPoly, add_into, collect, div, mul_into

MultiIndex = tuple[int, ...]


def _index_mask(idx: MultiIndex) -> int:
    m = 0
    for a in idx:
        m |= 1 << a
    return m


def _mask_index(m: int) -> MultiIndex:
    return tuple(a for a in range(1, m.bit_length()) if m >> a & 1)


def _koszul_sign(m1: int, m2: int) -> int:
    """Sign of ``theta_I theta_J`` sorted, for disjoint masks of I and J:
    each generator of J passes every generator of I above it."""
    swaps = 0
    while m2:
        low = m2 & -m2
        swaps += (m1 & -(low << 1)).bit_count()
        m2 ^= low
    return -1 if swaps & 1 else 1


def binomial(e: int, k: int) -> Coef:
    """Generalized binomial coefficient C(e, k) for integer e (possibly negative)."""
    num = 1
    for j in range(k):
        num *= e - j
    return div(num, factorial(k))


class GrassmannElement:
    """Element of the Grassmann algebra on ``odd_rank`` generators over a
    Laurent-polynomial coefficient ring."""

    __slots__ = ("vars", "odd_rank", "terms")

    def __init__(self, vars: tuple[str, ...], odd_rank: int,
                 terms: Mapping[MultiIndex, LaurentPoly] | None = None,
                 trusted: bool = False):
        if trusted:
            # arithmetic results: ``terms`` is a fresh dict of increasing
            # in-range tuples to nonzero coefficients over ``vars``
            self.vars = vars
            self.odd_rank = odd_rank
            self.terms = terms
            return
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
                if not coeff.is_zero():
                    clean[idx] = coeff
        self.terms = clean

    def _like(self, terms: dict[MultiIndex, LaurentPoly]) -> "GrassmannElement":
        """An element of this context with terms valid by construction."""
        return GrassmannElement(self.vars, self.odd_rank, terms, trusted=True)

    # ---------------------------------------------------------- constructors

    @classmethod
    def zero(cls, vars, odd_rank) -> "GrassmannElement":
        return cls(tuple(vars), int(odd_rank), {}, trusted=True)

    @classmethod
    def from_poly(cls, poly: LaurentPoly, odd_rank: int) -> "GrassmannElement":
        return cls(poly.vars, int(odd_rank), {(): poly} if poly.terms else {}, trusted=True)

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
        return cls(tuple(vars), int(odd_rank), {(index,): LaurentPoly.const(vars, 1)},
                   trusted=True)

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
        return self._like({i: c for i, c in self.terms.items() if len(i) == odd_degree})

    def truncate(self, min_odd_degree: int) -> "GrassmannElement":
        return self._like({i: c for i, c in self.terms.items() if len(i) >= min_odd_degree})

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
        return self._like(out)

    def __neg__(self) -> "GrassmannElement":
        return self._like({i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-other)

    def __mul__(self, other) -> "GrassmannElement":
        if isinstance(other, Coef):
            return self.scale(other)
        if isinstance(other, LaurentPoly):
            # Laurent polynomials have no zero divisors, so only a zero
            # factor leaves zero coefficients
            return self._like({i: p for i, c in self.terms.items() if (p := c * other).terms})
        self._check(other)
        acc: dict[int, dict] = {}
        _product_into(acc, _raw(self), _raw(other), self.odd_rank)
        return _collect(self.vars, self.odd_rank, acc)

    def scale(self, c) -> "GrassmannElement":
        return self._like({i: p for i, co in self.terms.items() if (p := co.scale(c)).terms})

    def power(self, e: int) -> "GrassmannElement":
        """Integer power.  ``e >= 0`` squares and multiplies; negative
        exponents use the finite expansion ``(m+n)^e = m^e * sum_k C(e,k)
        (n/m)^k``, which terminates because the positive-degree part ``n`` is
        nilpotent.  Requires the reduced part to be an invertible monomial
        when ``e < 0``.  The work stays in raw form and converts once."""
        if e == 0:
            return GrassmannElement.const(self.vars, self.odd_rank, 1)
        if e == 1:
            return self
        m = self.body()
        if e < 0 and m.is_zero():
            raise SubstitutionError("negative power of an element with zero reduced part")
        if e < 0 and not m.is_monomial():
            raise SubstitutionError(
                "negative power requires an invertible monomial reduced part")
        q = self.odd_rank
        base = _raw(self)
        n = {mask: exps for mask, exps in base.items() if mask}
        if not n:
            return GrassmannElement.from_poly(m ** e, q)
        if e > 0:
            result = None
            while e:
                if e & 1:
                    result = base if result is None else _product(result, base, q)
                e >>= 1
                if e:
                    base = _product(base, base, q)
            return _collect(self.vars, q, result)
        u = _product(n, {0: m.inverse().terms}, q)  # nilpotent
        acc: dict[int, dict] = {}
        u_pow = {0: {(0,) * len(self.vars): 1}}
        k = 0
        while u_pow:
            c = binomial(e, k)
            for mask, exps in u_pow.items():
                add_into(acc.setdefault(mask, {}), exps, c)
            u_pow = _product(u_pow, u, q)
            k += 1
        return _collect(self.vars, q, _product(_clean(acc), {0: (m ** e).terms}, q))

    # -------------------------------------------------------------- calculus

    def odd_derivative(self, gen: int) -> "GrassmannElement":
        """Left partial derivative with respect to ``theta_gen``."""
        if not 1 <= gen <= self.odd_rank:
            raise ValueError(f"odd generator theta_{gen} out of range 1..{self.odd_rank}")
        out: dict[MultiIndex, LaurentPoly] = {}
        for idx, c in self.terms.items():
            if gen not in idx:
                continue
            # idx is rest plus gen, so no two terms share a rest
            pos = idx.index(gen)
            out[idx[:pos] + idx[pos + 1:]] = c if pos % 2 == 0 else -c
        return self._like(out)

    def substitute(self, images: "Substitution") -> "GrassmannElement":
        """Image under the ring homomorphism ``images``, which sends every
        even coordinate and odd generator of this context to an element of
        its target.  Coefficients are expanded through nilpotent parts by
        the finite Taylor rule (see :meth:`power`).  The images stay in raw
        form (see :func:`_product_into`) until the one conversion at the
        end.  A lone even coordinate or odd generator with coefficient 1 is
        its image, which is returned as it is.  A monomial map (see
        :class:`Substitution`) substitutes term by term."""
        images.check(self.vars, self.odd_rank)
        if len(self.terms) == 1:
            (idx, coeff), = self.terms.items()
            if len(coeff.terms) == 1:
                (exps, c), = coeff.terms.items()
                if c == 1:
                    if not idx and exps.count(0) == len(exps) - 1 and 1 in exps:
                        return images.even_images[self.vars[exps.index(1)]]
                    if len(idx) == 1 and not any(exps):
                        return images.odd_images[idx[0]]
        q = images.odd_rank
        if images.monomials is not None:
            return _collect(images.vars, q, _monomial_image(self, *images.monomials))
        acc: dict[int, dict] = {}
        for idx, coeff in self.terms.items():
            odd = images.odd_monomial(idx)
            if not odd:
                continue
            # sum the images of the even monomials, then multiply by the
            # image of theta_idx once
            even = acc if not idx else {}
            for exps, c in coeff.terms.items():
                for m, part in images.even_monomial(self.vars, exps).items():
                    add_into(even.setdefault(m, {}), part, c)
            if idx:
                _product_into(acc, _clean(even), odd, q)
        return _collect(images.vars, q, acc)

    # ------------------------------------------------------------- interface

    def __eq__(self, other) -> bool:
        return (isinstance(other, GrassmannElement) and self.vars == other.vars
                and self.odd_rank == other.odd_rank and self.terms == other.terms)

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


def _raw(g: GrassmannElement) -> dict[int, dict]:
    """The raw form of ``g``.  Its exponent dicts are the term maps of
    ``g``'s coefficients, so it is read and never written."""
    return {_index_mask(i): c.terms for i, c in g.terms.items()}


def _clean(acc: dict[int, dict]) -> dict[int, dict]:
    """The raw form held by an accumulator: its exponent dicts collected
    (:func:`~supercech.laurent.collect`), empty masks dropped."""
    out = {}
    for m, exps in acc.items():
        terms = collect(exps)
        if terms:
            out[m] = terms
    return out


def _product_into(acc: dict[int, dict], left: dict[int, dict], right: dict[int, dict],
                  odd_rank: int) -> None:
    """Add ``left * right`` to ``acc``.  All three are raw forms
    ``{mask: {exps: coef}}`` over one context of odd rank ``odd_rank``.
    Pairs whose odd degree passes the odd rank are never visited."""
    rights = sorted(((m.bit_count(), m, t) for m, t in right.items()), key=itemgetter(0))
    for m1, t1 in left.items():
        room = odd_rank - m1.bit_count()
        for d2, m2, t2 in rights:
            if d2 > room:
                break
            if m1 & m2:
                continue
            target = acc.get(m1 | m2)
            if target is None:
                target = acc[m1 | m2] = {}
            mul_into(target, t1, t2, _koszul_sign(m1, m2))


def _product(left: dict[int, dict], right: dict[int, dict], odd_rank: int) -> dict[int, dict]:
    """``left * right`` as a raw form of its own."""
    acc: dict[int, dict] = {}
    _product_into(acc, left, right, odd_rank)
    return _clean(acc)


def _collect(vars: tuple[str, ...], odd_rank: int, acc: dict[int, dict]) -> GrassmannElement:
    """The element held by an accumulator of :func:`_product_into`."""
    return GrassmannElement(vars, odd_rank, {_mask_index(m): LaurentPoly(vars, t, trusted=True)
                                             for m, t in _clean(acc).items()}, trusted=True)


def _single_terms(images: Mapping, even: bool) -> dict | None:
    """``{key: (mask, exps, coef)}`` of images that are each zero (``None``)
    or one term, with mask 0 when ``even``; ``None`` if some image is not."""
    out = {}
    for key, g in images.items():
        if not g.terms:
            out[key] = None
            continue
        if len(g.terms) != 1:
            return None
        (idx, coeff), = g.terms.items()
        if (even and idx) or len(coeff.terms) != 1:
            return None
        (exps, c), = coeff.terms.items()
        out[key] = _index_mask(idx), exps, c
    return out


def _monomial_image(element: GrassmannElement, even: dict, odd: dict,
                    origin: tuple[int, ...]) -> dict[int, dict]:
    """Accumulator of the image of ``element`` under the single-term images
    ``even`` and ``odd`` of :func:`_single_terms`, whose exponent vectors
    have the length of ``origin``, the zero vector.  A term whose odd part
    maps to zero is skipped; any other meets every power of its even images,
    so a negative power of a zero image raises."""
    acc: dict[int, dict] = {}
    for idx, coeff in element.terms.items():
        mask, base, scale = 0, origin, 1
        for a in idx:
            img = odd[a]
            if img is None or mask & img[0]:
                break
            m, exps, c = img
            scale *= c * _koszul_sign(mask, m)
            mask |= m
            base = tuple(map(add, base, exps))
        else:
            target = acc.setdefault(mask, {})
            for exps, c in coeff.terms.items():
                out, c, live = base, scale * c, True
                for v, k in zip(element.vars, exps):
                    if not k:
                        continue
                    img = even[v]
                    if img is None:
                        if k < 0:
                            raise SubstitutionError(
                                "negative power of an element with zero reduced part")
                        live = False
                    elif live:
                        _, e, cv = img
                        c *= cv ** k if k > 0 else div(1, cv ** -k)
                        out = tuple(x + k * y for x, y in zip(out, e))
                if live:
                    target[out] = target.get(out, 0) + c
    return acc


class Substitution:
    """The ring homomorphism sending each even coordinate ``v`` to
    ``even_images[v]`` and each ``theta_a`` to ``odd_images[a]``, all in the
    target context ``(vars, odd_rank)``.

    The raw images (see :func:`_product_into`) of the monomials it has met
    stay memoised for as long as the object lives: powers of even images per
    ``(v, e)``, their products per exponent vector, and products of odd
    images per multi-index.  Build one per image set and apply it to every
    element that set acts on.

    A monomial map, whose images are each zero or one term (with no odd
    part for an even image), needs no memo: ``monomials`` holds the single
    terms of the even and odd images, ``None`` for a zero image, and the
    zero exponent vector of the target, and :meth:`GrassmannElement.substitute`
    maps each term to its one image term.  For any other map ``monomials``
    is ``None``."""

    __slots__ = ("even_images", "odd_images", "vars", "odd_rank", "monomials",
                 "_checked", "_powers", "_even", "_odd")

    def __init__(self, even_images: Mapping[str, GrassmannElement],
                 odd_images: Mapping[int, GrassmannElement],
                 vars: tuple[str, ...], odd_rank: int):
        self.even_images = even_images
        self.odd_images = odd_images
        self.vars = tuple(vars)
        self.odd_rank = int(odd_rank)
        even = _single_terms(even_images, True)
        odd = None if even is None else _single_terms(odd_images, False)
        self.monomials = None if odd is None else (even, odd, (0,) * len(self.vars))
        self._checked: set[tuple[tuple[str, ...], int]] = set()
        self._powers: dict[tuple[str, int], dict[int, dict]] = {}
        self._even: dict[tuple[tuple[str, ...], tuple[int, ...]], dict[int, dict]] = {}
        self._odd: dict[MultiIndex, dict[int, dict]] = {(): {0: {(0,) * len(self.vars): 1}}}

    def check(self, vars: tuple[str, ...], odd_rank: int) -> None:
        """Require an image of the right parity and context for every
        coordinate of the source context ``(vars, odd_rank)``."""
        if (vars, odd_rank) in self._checked:
            return
        for v in vars:
            if v not in self.even_images:
                raise SubstitutionError(f"no image for even coordinate {v}")
            g = self.even_images[v]
            self._check_context(g)
            if g.parity() == "odd" and not g.is_zero():
                raise SubstitutionError(f"image of even coordinate {v} is not even")
        for a in range(1, odd_rank + 1):
            if a not in self.odd_images:
                raise SubstitutionError(f"no image for odd generator theta_{a}")
            g = self.odd_images[a]
            self._check_context(g)
            if g.parity() == "even" and not g.is_zero():
                raise SubstitutionError(f"image of theta_{a} is not odd")
        self._checked.add((vars, odd_rank))

    def _check_context(self, g: GrassmannElement) -> None:
        if g.vars != self.vars or g.odd_rank != self.odd_rank:
            raise ContextError("Grassmann contexts differ")

    def power(self, v: str, e: int) -> dict[int, dict]:
        """Raw image of ``v^e``.  ``v^1`` is the image of ``v`` and ``v^-1``
        its inverse by the Taylor rule of :meth:`GrassmannElement.power`;
        every other power is one product of the memoised power next to it
        towards zero and ``v^(+-1)``."""
        powers = self._powers
        p = powers.get((v, e))
        if p is not None:
            return p
        if e == 0:
            return self._odd[()]
        step = 1 if e > 0 else -1
        k = e
        while k != step and (v, k) not in powers:
            k -= step
        p = powers.get((v, k))
        if p is None:
            p = powers[(v, step)] = _raw(self.even_images[v].power(step))
        base = powers[(v, step)]
        while k != e:
            k += step
            p = powers[(v, k)] = _product(p, base, self.odd_rank)
        return p

    def even_monomial(self, vars: tuple[str, ...], exps: tuple[int, ...]) -> dict[int, dict]:
        """Raw image of ``prod v^e`` over ``zip(vars, exps)``."""
        key = (vars, exps)
        img = self._even.get(key)
        if img is None:
            for v, e in zip(vars, exps):
                if e:
                    f = self.power(v, e)
                    img = f if img is None else _product(img, f, self.odd_rank)
            img = self._even[key] = self._odd[()] if img is None else img
        return img

    def odd_monomial(self, idx: MultiIndex) -> dict[int, dict]:
        """Raw image of ``theta_idx``, the product of the odd images in
        order."""
        img = self._odd.get(idx)
        if img is None:
            img = self._odd[idx] = _product(self.odd_monomial(idx[:-1]),
                                            _raw(self.odd_images[idx[-1]]), self.odd_rank)
        return img
