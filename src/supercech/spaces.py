"""Covers, charts and reduced spaces.

A :class:`Cover` is purely combinatorial: named charts, declared ordered
overlaps and declared triples.  A :class:`ReducedSpace` adds the reduced
coordinate changes (invertible Laurent monomials) between chart coordinate
systems; it is the base geometry on which sheaves and cochains live.
Because every coordinate image is a monomial, re-expressing a polynomial in
another chart moves each term on its own: the exponents go through an
integer linear map (:class:`MonomialMap`) and the coefficient picks up a
product of powers of the image coefficients.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import CocycleError, ContextError
from .laurent import Coef, LaurentPoly, collect, div

# the name of an odd generator; no coordinate is named like one
_THETA = re.compile(r"^theta_([0-9]+)$")


def check_coordinate_names(names) -> None:
    """Raise ``ValueError`` for a coordinate named like an odd generator."""
    for v in names:
        if _THETA.match(v):
            raise ValueError(f"coordinate name {v!r} is reserved for odd generators")


@dataclass(frozen=True)
class Chart:
    name: str
    fiber_vars: tuple[str, ...]
    base_vars: tuple[str, ...] = ()
    odd_rank: int = 0

    def __post_init__(self):
        check_coordinate_names(self.vars)

    @property
    def vars(self) -> tuple[str, ...]:
        return self.fiber_vars + self.base_vars


class Cover:
    """Charts plus declared overlap/triple structure.

    Every declared overlap must come with its partner in the opposite order,
    and the three edges of every declared triple must be declared overlaps.
    """

    def __init__(self, charts: list[Chart], overlaps: list[tuple[str, str]],
                 triples: list[tuple[str, str, str]] | None = None):
        self.charts: dict[str, Chart] = {}
        for ch in charts:
            if ch.name in self.charts:
                raise ValueError(f"duplicate chart {ch.name}")
            self.charts[ch.name] = ch
        self.order = [ch.name for ch in charts]
        self.overlaps = [tuple(o) for o in overlaps]
        self.triples = [tuple(t) for t in (triples or [])]
        pairs = set(self.overlaps)
        for a, b in self.overlaps:
            if a not in self.charts or b not in self.charts:
                raise ValueError(f"overlap ({a},{b}) references unknown chart")
            if (b, a) not in pairs:
                raise ValueError(f"overlap ({a},{b}) lacks partner ({b},{a})")
        for a, b, c in self.triples:
            for e in ((a, b), (b, c), (a, c)):
                if e not in pairs:
                    raise ValueError(f"triple ({a},{b},{c}) misses overlap {e}")
        # a cover is not changed once built, so its canonical tuples are fixed
        self._canonical_overlaps, self._canonical_triples = self._canonical()

    def chart(self, name: str) -> Chart:
        return self.charts[name]

    def index(self, name: str) -> int:
        return self.order.index(name)

    def canonical_overlaps(self) -> tuple[tuple[str, str], ...]:
        """One representative per unordered overlap, in declaration order."""
        return self._canonical_overlaps

    def canonical_triples(self) -> tuple[tuple[str, str, str], ...]:
        return self._canonical_triples

    def _canonical(self):
        seen = set()
        overlaps = []
        for a, b in self.overlaps:
            key = frozenset((a, b))
            if key not in seen:
                seen.add(key)
                overlaps.append((a, b) if self.index(a) < self.index(b) else (b, a))
        seen = set()
        triples = []
        for t in self.triples:
            key = frozenset(t)
            if key not in seen:
                seen.add(key)
                triples.append(tuple(sorted(t, key=self.index)))
        return tuple(overlaps), tuple(triples)


class MonomialMap:
    """Substitution of invertible Laurent monomials, acting term by term.

    Variable i of the source goes to ``c_i * x^E_i`` over ``target``, so the
    term ``c * prod v_i^e_i`` goes to ``c * prod c_i^e_i`` times ``x`` to the
    power ``sum e_i E_i``.  This is the one re-expression of Laurent
    polynomials under a monomial coordinate change: chart transport and the
    inverse of a transition both go through it."""

    __slots__ = ("target", "columns", "coefs")

    def __init__(self, images: list[LaurentPoly], target: tuple[str, ...]):
        parts = [img.monomial_parts() for img in images]
        self.target = target
        # per target variable, the (source index, exponent) pairs it collects
        self.columns = tuple(
            tuple((i, exps[j]) for i, (_, exps) in enumerate(parts) if exps[j])
            for j in range(len(target)))
        # None when every image coefficient is 1
        coefs = tuple(c for c, _ in parts)
        self.coefs = None if all(c == 1 for c in coefs) else coefs

    def term(self, exps: tuple[int, ...], coef: Coef) -> tuple[tuple[int, ...], Coef]:
        """Image ``(exponents, coefficient)`` of the term ``coef * v^exps``."""
        new = tuple(sum(exps[i] * m for i, m in col) for col in self.columns)
        if self.coefs is not None:
            for c, e in zip(self.coefs, exps):
                if e and c != 1:
                    coef = coef * c ** e if e > 0 else div(coef, c ** -e)
        return new, coef

    def apply(self, poly: LaurentPoly) -> LaurentPoly:
        acc: dict[tuple[int, ...], Coef] = {}
        for exps, c in poly.terms.items():
            new, c = self.term(exps, c)
            acc[new] = acc.get(new, 0) + c
        return LaurentPoly(self.target, collect(acc), trusted=True)


class ReducedSpace:
    """A cover together with monomial coordinate changes between charts.

    ``coordinate_maps[(a, b)]`` sends each coordinate name of chart ``b`` to
    a Laurent monomial in the coordinates of chart ``a`` (the expression of
    the b-coordinates on the overlap).  Inverse and triple compatibility are
    verified exactly.
    """

    def __init__(self, cover: Cover,
                 coordinate_maps: dict[tuple[str, str], dict[str, LaurentPoly]]):
        self.cover = cover
        self.coordinate_maps = coordinate_maps
        # one SheafSpec per (rank, sorted matrix items), each construction's
        # spec by its name and operands, and each delta0 system by
        # ("delta0", spec, window bound) (sheaf.sheaf_spec, sheaf.derived_spec)
        self.specs: dict[tuple, object] = {}
        # MonomialMap by (a, b, source variables)
        self._exponent_maps: dict[tuple, MonomialMap] = {}
        for (a, b) in cover.overlaps:
            if (a, b) not in coordinate_maps:
                raise ValueError(f"missing coordinate map for overlap ({a},{b})")
            cmap = coordinate_maps[(a, b)]
            cb = cover.chart(b)
            ca = cover.chart(a)
            for v in cb.vars:
                if v not in cmap:
                    raise ValueError(f"coordinate map ({a},{b}) misses {v}")
                img = cmap[v]
                if img.vars != ca.vars:
                    raise ContextError(f"coordinate map ({a},{b}):{v} not in {a}-coordinates")
                if not img.is_monomial():
                    raise ValueError(f"coordinate map ({a},{b}):{v} is not an invertible monomial")
        self._verify()

    def _verify(self):
        for (a, b) in self.cover.overlaps:
            for v in self.cover.chart(a).vars:
                expected = LaurentPoly.var(self.cover.chart(a).vars, v)
                got = self.compose_into(a, b, self.coordinate_maps[(b, a)][v])
                if got != expected:
                    raise CocycleError(f"reduced maps ({a},{b}) and ({b},{a}) are not inverse at {v}")
        for (a, b, c) in self.cover.triples:
            for v in self.cover.chart(c).vars:
                direct = self.coordinate_maps[(a, c)][v]
                via = self.compose_into(a, b, self.coordinate_maps[(b, c)][v])
                if direct != via:
                    raise CocycleError(f"reduced cocycle fails on ({a},{b},{c}) at {v}")

    def negative_vars(self, a: str, b: str) -> frozenset[str]:
        """Chart-a coordinates allowed to appear with negative exponents in
        sections on the (a, b) overlap.

        A variable is inverted on the overlap exactly when some reduced
        coordinate image has a pole in it; overlaps whose coordinate change
        is pole-free (e.g. a rescaled copy of the same chart, or the base
        directions of a family) carry polynomial sections only.  It is read
        off the coordinate map on each call, which comes once per overlap
        when a system's H^1 basis is first decided (the space's table keeps
        that basis), so a memo would save nothing."""
        out = set()
        cmap = self.coordinate_maps[(a, b)]
        avars = self.cover.chart(a).vars
        for img in cmap.values():
            for exps in img.terms:
                for v, e in zip(avars, exps):
                    if e < 0:
                        out.add(v)
        return frozenset(out)

    def exponent_map(self, a: str, b: str, vars: tuple[str, ...]) -> MonomialMap:
        """The (a, b) coordinate map on polynomials over ``vars`` (b-coordinates)."""
        key = (a, b, vars)
        emap = self._exponent_maps.get(key)
        if emap is None:
            cmap = self.coordinate_maps[(a, b)]
            emap = MonomialMap([cmap[v] for v in vars], self.cover.chart(a).vars)
            self._exponent_maps[key] = emap
        return emap

    def compose_into(self, a: str, b: str, poly: LaurentPoly) -> LaurentPoly:
        """Re-express a polynomial in b-coordinates as one in a-coordinates,
        using the (a, b) coordinate map."""
        return self.exponent_map(a, b, poly.vars).apply(poly)

    def jacobian(self, a: str, b: str) -> tuple:
        """Matrix d(b-coords)/d(a-coords) as the sparse columns of
        :mod:`supercech.sheaf`, entries in a-coordinates; rows are indexed by
        b-coordinates, columns by a-coordinates.  Each image is a monomial,
        so an entry is nonzero exactly when its exponent in the column's
        coordinate is."""
        cmap = self.coordinate_maps[(a, b)]
        images = [cmap[u] for u in self.cover.chart(b).vars]
        return tuple(tuple((i, img.derivative(v)) for i, img in enumerate(images)
                           if next(iter(img.terms))[k])
                     for k, v in enumerate(self.cover.chart(a).vars))
