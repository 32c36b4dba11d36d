"""Super gluing data: covers with super transition maps.

A :class:`SuperTransition` from chart ``a`` to chart ``b`` records, for every
coordinate of ``b``, its expression in the coordinates of ``a``.  Composition
is substitution (contravariant pullback order: ``compose(s, t)`` substitutes
the images of ``s`` into the expressions of ``t`` and represents "s then t"
on points).  A :class:`SuperGluingData` carries one transition per declared
ordered overlap and is subject to the exact inverse and triple conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CocycleError, ContextError, SupercechError
from .grassmann import GrassmannElement, Substitution
from .laurent import Coef, LaurentPoly, div
from .sheaf import Columns, SheafSpec, invert_laurent_matrix, sheaf_spec
from .spaces import Chart, Cover, MonomialMap, ReducedSpace

INFINITY = float("inf")


class SuperTransition:
    """Coordinate images of a super coordinate change between two charts.

    ``_pullback`` is the substitution by these images, built on the first
    :meth:`apply`; its memo of image powers serves every later call."""

    def __init__(self, source: Chart, target: Chart,
                 even_maps: dict[str, GrassmannElement],
                 odd_maps: dict[int, GrassmannElement],
                 check: bool = True):
        self.source = source
        self.target = target
        self.even_maps = dict(even_maps)
        self.odd_maps = dict(odd_maps)
        self._pullback: Substitution | None = None
        if check:
            self._validate()

    def _validate(self):
        sv, q = self.source.vars, self.source.odd_rank
        for v in self.target.vars:
            if v not in self.even_maps:
                raise ValueError(f"missing image for even coordinate {v}")
            g = self.even_maps[v]
            if g.vars != sv or g.odd_rank != q:
                raise ContextError(f"image of {v} not in source context")
            if g.parity() == "mixed" or g.parity() == "odd":
                raise ValueError(f"image of even coordinate {v} is not even")
            body = g.body()
            if not body.is_monomial():
                raise ValueError(f"reduced part of {v}-image is not an invertible monomial")
            nz = [e for e in body.monomial_parts()[1] if e != 0]
            if len(nz) > 1 or (nz and nz[0] not in (1, -1)):
                raise ValueError(f"reduced part of {v}-image must be c*x^(+-1) in one coordinate")
        for b in range(1, self.target.odd_rank + 1):
            if b not in self.odd_maps:
                raise ValueError(f"missing image for theta_{b}")
            g = self.odd_maps[b]
            if g.vars != sv or g.odd_rank != q:
                raise ContextError(f"image of theta_{b} not in source context")
            if not g.is_zero() and g.parity() != "odd":
                raise ValueError(f"image of odd coordinate theta_{b} is not odd")

    # ---------------------------------------------------------------- helpers

    def apply(self, element: GrassmannElement) -> GrassmannElement:
        """Pull an element in target-chart coordinates back to source-chart
        coordinates through this transition."""
        if self._pullback is None:
            self._pullback = Substitution(self.even_maps, self.odd_maps,
                                          self.source.vars, self.source.odd_rank)
        return element.substitute(self._pullback)

    def reduced_map(self) -> dict[str, LaurentPoly]:
        return {v: g.body() for v, g in self.even_maps.items()}

    def odd_matrix(self) -> Columns:
        """Sparse columns, one per source generator; entry (b, a) is the
        theta_a coefficient of the image of the target generator b."""
        columns = [[] for _ in range(self.source.odd_rank)]
        for b in range(1, self.target.odd_rank + 1):
            for idx, e in self.odd_maps[b].terms.items():
                if len(idx) == 1:
                    columns[idx[0] - 1].append((b - 1, e))
        return tuple(map(tuple, columns))

    def deviation_degree(self) -> float:
        """Smallest odd degree (>= 2) of any deviation from the split normal
        form, or infinity for an exactly split transition: every term of an
        even image but its body, and every term of an odd image not of
        degree one, is a deviation."""
        degrees = [len(i) for g in self.even_maps.values() for i in g.terms if i]
        degrees += [len(i) for g in self.odd_maps.values() for i in g.terms if len(i) != 1]
        return min(degrees, default=INFINITY)

    def is_identity(self) -> bool:
        if self.source.vars != self.target.vars or self.source.odd_rank != self.target.odd_rank:
            return False
        for v, g in self.even_maps.items():
            if g != GrassmannElement.even_var(self.source.vars, self.source.odd_rank, v):
                return False
        for b, g in self.odd_maps.items():
            if g != GrassmannElement.odd_gen(self.source.vars, self.source.odd_rank, b):
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, SuperTransition)
                and self.source == other.source and self.target == other.target
                and self.even_maps == other.even_maps and self.odd_maps == other.odd_maps)

    def __repr__(self):
        lines = [f"{self.source.name} -> {self.target.name}:"]
        for v in self.target.vars:
            lines.append(f"  {v} = {self.even_maps[v]}")
        for b in range(1, self.target.odd_rank + 1):
            lines.append(f"  theta_{b} = {self.odd_maps[b]}")
        return "\n".join(lines)


def identity_transition(chart: Chart) -> SuperTransition:
    even = {v: GrassmannElement.even_var(chart.vars, chart.odd_rank, v) for v in chart.vars}
    odd = {b: GrassmannElement.odd_gen(chart.vars, chart.odd_rank, b)
           for b in range(1, chart.odd_rank + 1)}
    return SuperTransition(chart, chart, even, odd, check=False)


def compose_transitions(s: SuperTransition, t: SuperTransition) -> SuperTransition:
    """Composite transition "s then t"; requires target(s) == source(t).

    Each coordinate image of the composite is the substitution of the images
    of ``s`` into the corresponding expression of ``t``.
    """
    if s.target.name != t.source.name:
        raise ContextError(f"cannot compose {s.source.name}->{s.target.name} with "
                           f"{t.source.name}->{t.target.name}")
    even = {v: s.apply(g) for v, g in t.even_maps.items()}
    odd = {b: s.apply(g) for b, g in t.odd_maps.items()}
    return SuperTransition(s.source, t.target, even, odd, check=False)


def invert_transition(t: SuperTransition) -> SuperTransition:
    """Exact inverse of an admissible transition, solved order by order in
    odd degree.  Raises if the data is not invertible in the Laurent class.

    The degree <= 1 inverse comes from the reduced maps and the inverse of
    the odd matrix.  When it is the identity, as for every near-identity
    coordinate change, the matrix is not inverted and the first composite
    "t then the inverse" is ``t`` itself.  Each step subtracts the nonzero
    discrepancies of the composite, re-expressed in target coordinates; the
    result must compose to the identity on both sides."""
    src, tgt = t.source, t.target
    # reduced inverse: each target coordinate body is c * v^(+-1) for a single
    # source coordinate v, and the pairing must be a bijection.
    assign: dict[str, tuple[str, Coef, int]] = {}
    for u in tgt.vars:
        c, exps = t.even_maps[u].body().monomial_parts()
        nz = [(i, e) for i, e in enumerate(exps) if e != 0]
        if len(nz) != 1 or nz[0][1] not in (1, -1):
            raise SupercechError(f"reduced part of {u}-image is not c*x^(+-1)")
        v = src.vars[nz[0][0]]
        assign[u] = (v, c, nz[0][1])
    used = [v for v, _, _ in assign.values()]
    if len(set(used)) != len(used) or set(used) != set(src.vars):
        raise SupercechError("reduced transition is not a coordinate bijection")

    tv, tq = tgt.vars, tgt.odd_rank
    even0: dict[str, GrassmannElement] = {}
    for u, (v, c, e) in assign.items():
        # u = c * v^e  =>  v = u/c (e = 1)  or  v = c/u (e = -1)
        if e == 1:
            img = LaurentPoly.var(tv, u).scale(div(1, c))
        else:
            img = LaurentPoly.var(tv, u, -1).scale(c)
        even0[v] = GrassmannElement.from_poly(img, tq)
    zeta = t.odd_matrix()
    one = LaurentPoly.const(src.vars, 1)
    near_identity = (tv == src.vars and tq == src.odd_rank
                     and all(assign[u] == (u, 1, 1) for u in tv)
                     and all(col == ((a, one),) for a, col in enumerate(zeta)))
    if near_identity:
        odd0 = {a: GrassmannElement.odd_gen(tv, tq, a) for a in range(1, src.odd_rank + 1)}
    else:
        zeta_inv = invert_laurent_matrix(zeta, src.vars)
        if zeta_inv is None:
            raise SupercechError(
                "degree-one odd matrix is not invertible over Laurent polynomials")
        # express the inverted matrix in target coordinates via the reduced
        # inverse: entry (a, b) is the theta_b coefficient of the image of theta_a
        to_target = MonomialMap([even0[v].body() for v in src.vars], tv)
        images: dict[int, dict] = {a: {} for a in range(1, src.odd_rank + 1)}
        for b, col in enumerate(zeta_inv, 1):
            for a, e in col:
                images[a + 1][(b,)] = to_target.apply(e)
        odd0 = {a: GrassmannElement(tv, tq, terms, trusted=True) for a, terms in images.items()}

    inverse = SuperTransition(tgt, src, even0, odd0, check=False)
    ident = identity_transition(src)
    for step in range(src.odd_rank + 3):
        # while the inverse is the identity, t is the composite and each
        # discrepancy is already in target coordinates
        first = step == 0 and near_identity
        comp = t if first else compose_transitions(t, inverse)
        d_even = {v: comp.even_maps[v] - ident.even_maps[v] for v in src.vars}
        d_odd = {a: comp.odd_maps[a] - ident.odd_maps[a] for a in range(1, src.odd_rank + 1)}
        if all(g.is_zero() for g in d_even.values()) and all(g.is_zero() for g in d_odd.values()):
            back = compose_transitions(inverse, t)
            if not back.is_identity():
                raise SupercechError("one-sided inverse only; data is inconsistent")
            return inverse
        # subtract the discrepancy, re-expressed in target coordinates
        pull = (lambda g: g) if first else inverse.apply
        even_new = {v: _corrected(inverse.even_maps[v], d, pull) for v, d in d_even.items()}
        odd_new = {a: _corrected(inverse.odd_maps[a], d, pull) for a, d in d_odd.items()}
        inverse = SuperTransition(tgt, src, even_new, odd_new, check=False)
    raise SupercechError("inverse iteration did not terminate (data not invertible?)")


def _corrected(image: GrassmannElement, discrepancy: GrassmannElement,
               pull) -> GrassmannElement:
    """``image`` minus ``discrepancy`` re-expressed by ``pull``."""
    return image if discrepancy.is_zero() else image - pull(discrepancy)


# --------------------------------------------------------------------- data


@dataclass
class CheckFailure:
    kind: str        # "inverse" | "triple" | "family" | "admissibility"
    location: tuple  # overlap or triple
    detail: str

    def __str__(self):
        return f"{self.kind} check failed on {self.location}: {self.detail}"


@dataclass
class VerificationReport:
    ok: bool
    failures: list[CheckFailure] = field(default_factory=list)
    checks: int = 0

    def __str__(self):
        if self.ok:
            return f"pass ({self.checks} checks)"
        return "\n".join(str(f) for f in self.failures)


class SuperGluingData:
    """A cover, one transition per declared ordered overlap, and (optionally)
    shared base coordinates making the data a family over those coordinates.

    The data are not changed after they are built, so each object checks and
    reduces itself once: :meth:`verify_cocycle` builds its report on the
    first call and keeps it in ``_report``, and :meth:`reduce` keeps the
    reduced space and odd-bundle spec in ``_reduced``."""

    def __init__(self, cover: Cover, transitions: dict[tuple[str, str], SuperTransition],
                 base_vars: tuple[str, ...] = ()):
        self.cover = cover
        self.transitions = dict(transitions)
        self.base_vars = tuple(base_vars)
        self._report: VerificationReport | None = None
        self._reduced: tuple[ReducedSpace, SheafSpec] | None = None
        for key in cover.overlaps:
            if key not in self.transitions:
                raise ValueError(f"missing transition for overlap {key}")
        for (a, b), t in self.transitions.items():
            if t.source.name != a or t.target.name != b:
                raise ValueError(f"transition stored at {(a, b)} maps "
                                 f"{t.source.name}->{t.target.name}")
        for t in base_vars:
            for ch in cover.charts.values():
                if t not in ch.base_vars:
                    raise ValueError(f"base coordinate {t} not declared on chart {ch.name}")

    @property
    def is_family(self) -> bool:
        return bool(self.base_vars)

    def chart(self, name: str) -> Chart:
        return self.cover.chart(name)

    # ---------------------------------------------------------- verification

    def verify_cocycle(self) -> VerificationReport:
        """The exact inverse, triple and family checks, run on the first call."""
        if self._report is None:
            self._report = self._build_report()
        return self._report

    def require_valid(self) -> None:
        """Raise :class:`CocycleError` with the first failed check, if any."""
        report = self.verify_cocycle()
        if not report.ok:
            raise CocycleError(str(report.failures[0]))

    def _build_report(self) -> VerificationReport:
        failures: list[CheckFailure] = []
        checks = 0
        for (a, b) in self.cover.canonical_overlaps():
            tab, tba = self.transitions[(a, b)], self.transitions[(b, a)]
            comp = compose_transitions(tab, tba)
            checks += 1
            if not comp.is_identity():
                failures.append(CheckFailure("inverse", (a, b), _discrepancy_detail(
                    comp, identity_transition(self.chart(a)))))
            comp = compose_transitions(tba, tab)
            checks += 1
            if not comp.is_identity():
                failures.append(CheckFailure("inverse", (b, a), _discrepancy_detail(
                    comp, identity_transition(self.chart(b)))))
        for (a, b, c) in self.cover.triples:
            via = compose_transitions(self.transitions[(a, b)], self.transitions[(b, c)])
            direct = self.transitions[(a, c)]
            checks += 1
            if via != direct:
                failures.append(CheckFailure("triple", (a, b, c),
                                             _discrepancy_detail(via, direct)))
        if self.is_family:
            for (a, b), t in self.transitions.items():
                for tv in self.base_vars:
                    expected = GrassmannElement.even_var(t.source.vars, t.source.odd_rank, tv)
                    checks += 1
                    if t.even_maps[tv] != expected:
                        failures.append(CheckFailure(
                            "family", (a, b), f"base coordinate map {tv} is not the identity"))
        return VerificationReport(not failures, failures, checks)

    # ------------------------------------------------------------ operations

    def deviation_degree(self) -> float:
        """Smallest odd degree (>= 2) at which some transition departs from
        split normal form, or infinity if none does; nothing is checked."""
        return min((t.deviation_degree() for t in self.transitions.values()),
                   default=INFINITY)

    def splitting_type(self) -> float:
        """:meth:`deviation_degree` of the verified presentation; raises
        :class:`CocycleError` on invalid data."""
        self.require_valid()
        return self.deviation_degree()

    def reduce(self) -> tuple[ReducedSpace, SheafSpec]:
        """Reduced space (degree-zero coordinate maps) plus the odd-bundle
        sheaf spec whose matrices are the degree-one coefficient matrices.

        Only this degree <= 1 part is checked, by the two constructors; call
        :meth:`require_valid` for the full cocycle conditions."""
        if self._reduced is None:
            maps, matrices = self._degree_one_part()
            space = ReducedSpace(self.cover, maps)
            q = next(iter(self.cover.charts.values())).odd_rank
            self._reduced = space, sheaf_spec(space, q, matrices, check=True)
        return self._reduced

    def _degree_one_part(self) -> tuple[dict, dict]:
        """The reduced coordinate maps and the odd-bundle matrices, by overlap."""
        return ({key: t.reduced_map() for key, t in self.transitions.items()},
                {key: t.odd_matrix() for key, t in self.transitions.items()})

    def restrict_fiber(self, point: dict[str, Coef]) -> "SuperGluingData":
        """Evaluate the base coordinates at a rational point; the result is
        gluing data for the fiber over that point."""
        if set(point) != set(self.base_vars):
            raise ValueError(f"point must assign exactly the base coordinates {self.base_vars}")
        return self.evaluate_base(point)

    def evaluate_base(self, point: dict[str, Coef]) -> "SuperGluingData":
        """Evaluate some base coordinates at rational values; the others stay
        base coordinates of the result."""
        charts, changed = [], {}
        for name in self.cover.order:
            ch = self.chart(name)
            for v in point:
                if v in ch.fiber_vars:
                    raise ValueError(f"{v} is a fiber coordinate of chart {name}, "
                                     f"not a base coordinate")
            new = Chart(name, ch.fiber_vars, tuple(v for v in ch.base_vars if v not in point),
                        ch.odd_rank)
            charts.append(new)
            changed[name] = {v: GrassmannElement.const(new.vars, new.odd_rank, c)
                             for v, c in point.items() if v in ch.base_vars}
        return self.pull_back(charts, changed,
                              tuple(v for v in self.base_vars if v not in point))

    def pull_back(self, charts: list[Chart], changed: dict[str, dict],
                  base_vars: tuple[str, ...]) -> "SuperGluingData":
        """The data re-expressed in ``charts``, which keep the names, overlaps
        and triples of this cover.

        ``changed[name]`` holds the images, over the new chart ``name``, of
        the coordinates (by name) and odd generators (by index) of the old
        chart that do not map to themselves.  Every transition out of a chart
        is pulled back through one substitution by these images: each even
        coordinate of the new target chart gets its pulled-back old image,
        or maps to itself when the old target chart has no such coordinate
        (a renamed base coordinate), and each odd generator up to the new odd
        rank gets its pulled-back old image."""
        cover = Cover(charts, self.cover.overlaps, self.cover.triples)
        subs = {}
        for name in cover.order:
            old, new = self.chart(name), cover.chart(name)
            images = changed.get(name, {})
            even = {v: images[v] if v in images else
                    GrassmannElement.even_var(new.vars, new.odd_rank, v) for v in old.vars}
            odd = {k: images[k] if k in images else
                   GrassmannElement.odd_gen(new.vars, new.odd_rank, k)
                   for k in range(1, old.odd_rank + 1)}
            subs[name] = Substitution(even, odd, new.vars, new.odd_rank)
        transitions = {}
        for (a, b), t in self.transitions.items():
            src, tgt, sub = cover.chart(a), cover.chart(b), subs[a]
            even = {v: t.even_maps[v].substitute(sub) if v in t.even_maps else
                    GrassmannElement.even_var(src.vars, src.odd_rank, v) for v in tgt.vars}
            odd = {k: t.odd_maps[k].substitute(sub) for k in range(1, tgt.odd_rank + 1)}
            transitions[(a, b)] = SuperTransition(src, tgt, even, odd)
        return SuperGluingData(cover, transitions, base_vars)

    def conjugate(self, witnesses: dict[str, SuperTransition]) -> "SuperGluingData":
        """Apply chartwise coordinate changes: each transition t_ab becomes
        w_b o t_ab o w_a^(-1).  When this data is reduced and the conjugate's
        reduced maps and odd-bundle matrices equal its own, the conjugate
        shares the reduction, and with it the space's spec table."""
        inverses = {name: invert_transition(w) for name, w in witnesses.items()}
        transitions = {}
        for (a, b), t in self.transitions.items():
            step = compose_transitions(inverses[a], t)
            transitions[(a, b)] = compose_transitions(step, witnesses[b])
        conj = SuperGluingData(self.cover, transitions, self.base_vars)
        if self._reduced is not None:
            space, odd = self._reduced
            if conj._degree_one_part() == (space.coordinate_maps, odd.matrices):
                conj._reduced = self._reduced
        return conj

    def embedding_splitting_triple(self, point: dict[str, Coef]):
        """Splitting-type triple (j'', j_b, j') of the fiber-wise embedding at
        a base point; j'' is read off the fiber presentation inside the family.
        Evaluating base coordinates keeps odd degrees, so a fiber deviates no
        earlier than its family: ``lemma_holds`` is j' <= j_b."""
        j_family = self.splitting_type()
        j_fiber = self.restrict_fiber(point).splitting_type()
        return EmbeddingTriple(j_fiber, j_fiber, j_family, j_family <= j_fiber)

    def __eq__(self, other):
        return (isinstance(other, SuperGluingData)
                and self.cover.order == other.cover.order
                and self.cover.overlaps == other.cover.overlaps
                and self.transitions == other.transitions
                and self.base_vars == other.base_vars)


def restrict_odd(g: SuperGluingData, keep: int) -> SuperGluingData:
    """Set the odd generators above ``keep`` to zero and drop them.

    Used to pass from gluing data over a superspace base (whose base odd
    coordinates are the trailing generators, mapped identically) to the data
    of the underlying fibration; setting them to zero commutes with
    composition because the ideal they generate is transition-stable."""
    charts, changed = [], {}
    for name in g.cover.order:
        ch = g.chart(name)
        charts.append(Chart(name, ch.fiber_vars, ch.base_vars, keep))
        changed[name] = {k: GrassmannElement.zero(ch.vars, keep)
                         for k in range(keep + 1, ch.odd_rank + 1)}
    return g.pull_back(charts, changed, g.base_vars)


@dataclass(frozen=True)
class EmbeddingTriple:
    embedding: float
    fiber: float
    family: float
    lemma_holds: bool


def _first_discrepancy(got: SuperTransition,
                       expected: SuperTransition) -> tuple[str, str, GrassmannElement] | None:
    """``(kind, name, got - expected)`` of the first coordinate map that
    differs, even ("even", v) before odd ("odd", theta_b), or ``None``."""
    for v in expected.target.vars:
        if got.even_maps[v] != expected.even_maps[v]:
            return "even", v, got.even_maps[v] - expected.even_maps[v]
    for b in range(1, expected.target.odd_rank + 1):
        if got.odd_maps[b] != expected.odd_maps[b]:
            return "odd", f"theta_{b}", got.odd_maps[b] - expected.odd_maps[b]
    return None


def _discrepancy_detail(got: SuperTransition, expected: SuperTransition) -> str:
    found = _first_discrepancy(got, expected)
    return "no discrepancy (?)" if found is None else f"{found[1]}: discrepancy {found[2]}"
