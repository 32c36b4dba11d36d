"""Families of supermanifolds: product families, one-parameter scaling
(Rothstein) families, fiber isomorphism witnesses, and gluing over the two
standard charts of the projective line."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SupercechError
from .gluing import INFINITY, SuperGluingData, SuperTransition, _first_discrepancy
from .grassmann import GrassmannElement
from .laurent import Coef, LaurentPoly, div
from .obstruction import scaling_action, scaling_witnesses
from .spaces import Chart, Cover


@dataclass
class FamilySpec:
    """Gluing data flagged as a family over the named base coordinates."""

    gluing: SuperGluingData
    base_vars: tuple[str, ...]

    def fiber(self, point: dict[str, Coef]) -> SuperGluingData:
        """The fiber over ``point``, which assigns exactly this family's base
        coordinates; base coordinates of the gluing data that the family
        does not name stay base coordinates of the fiber."""
        if set(point) != set(self.base_vars):
            raise ValueError(f"point must assign exactly the base coordinates {self.base_vars}")
        return self.gluing.evaluate_base(point)


def extend_with_base(g: SuperGluingData, base_vars: tuple[str, ...]) -> SuperGluingData:
    """Append shared base coordinates to every chart; transitions keep their
    expressions and map the new coordinates identically."""
    _require_unused(g, base_vars)
    charts = [Chart(ch.name, ch.fiber_vars, ch.base_vars + tuple(base_vars), ch.odd_rank)
              for ch in (g.cover.chart(n) for n in g.cover.order)]
    cover = Cover(charts, g.cover.overlaps, g.cover.triples)
    transitions = {}
    for (a, b), t in g.transitions.items():
        src = cover.chart(a)
        even = {v: _extend(gr, src) for v, gr in t.even_maps.items()}
        for v in base_vars:
            even[v] = GrassmannElement.even_var(src.vars, src.odd_rank, v)
        odd = {k: _extend(gr, src) for k, gr in t.odd_maps.items()}
        transitions[(a, b)] = SuperTransition(src, cover.chart(b), even, odd, check=False)
    return SuperGluingData(cover, transitions, base_vars=tuple(g.base_vars) + tuple(base_vars))


def _require_unused(g: SuperGluingData, names: tuple[str, ...]) -> None:
    for v in names:
        for ch in g.cover.charts.values():
            if v in ch.vars:
                raise ValueError(f"coordinate {v} already in use on {ch.name}")


def _extend(g: GrassmannElement, chart: Chart) -> GrassmannElement:
    return GrassmannElement(chart.vars, chart.odd_rank,
                            {i: c.with_context(chart.vars) for i, c in g.terms.items()})


def split_family(split_model: SuperGluingData, base_vars: tuple[str, ...]) -> FamilySpec:
    """Constant family with the given (split) fiber model."""
    fam = extend_with_base(split_model, base_vars)
    fam.require_valid()
    return FamilySpec(fam, tuple(base_vars))


def rothstein_family(g: SuperGluingData, base_var: str = "t") -> FamilySpec:
    """One-parameter family scaling the odd directions by the base coordinate.

    The transitions are the conjugates of those of ``g`` by theta -> t*theta,
    so the fiber over t is the t-scaling of ``g`` (the fiber over 1 is ``g``
    itself, the fiber over 0 the split model); higher-order tail terms are
    generated by the substitution itself.  A level-j deviation picks up t^j
    (j even) resp. t^(j-1) (j odd).  For split input the result is the
    constant family.

    The input is verified, the output is not: a conjugation keeps every
    inverse and triple identity of its input, and the new base coordinate
    maps to itself.  The result's :meth:`~SuperGluingData.verify_cocycle`
    still builds its report when a caller asks.
    """
    g.require_valid()
    extended = extend_with_base(g, (base_var,))
    if g.deviation_degree() == INFINITY:
        return FamilySpec(extended, (base_var,))
    return FamilySpec(scaling_action(extended, base_var), (base_var,))


# --------------------------------------------------------------- witnesses


@dataclass
class WitnessReport:
    ok: bool
    detail: str = ""


def isotriviality_witness(family: FamilySpec, t0: Coef, t1: Coef):
    """Scaling map with parameter t1/t0 conjugating the fiber over t0 into
    the fiber over t1; the identity is verified exactly."""
    if t0 == 0 or t1 == 0:
        raise ValueError("isotriviality witnesses need nonzero parameters")
    if len(family.base_vars) != 1:
        raise SupercechError("one-parameter family expected")
    tvar = family.base_vars[0]
    fib0 = family.fiber({tvar: t0})
    fib1 = family.fiber({tvar: t1})
    lam = div(t1, t0)
    conj = scaling_action(fib0, lam)
    witnesses = scaling_witnesses(fib0, lam)
    # both fibers keep the family's cover and base coordinates, so the data
    # are equal exactly when every transition is
    for key in conj.transitions:
        if conj.transitions[key] != fib1.transitions[key]:
            return witnesses, WitnessReport(False, f"fibers differ on overlap {key}")
    return witnesses, WitnessReport(True)


# ------------------------------------------------------- gluing over P^1


@dataclass
class GluedFamily:
    """Two one-parameter families over the standard affine charts of the
    projective line, glued by a scaling witness over t' = 1/t."""

    piece_low: FamilySpec            # over Spec Q[t]
    piece_high: FamilySpec           # over Spec Q[t']
    base_vars: tuple[str, str]
    witness_exponent: int            # the witness is (t^exponent) *

    def verify(self) -> WitnessReport:
        """Check, as exact Laurent identities in t, that scaling by
        t^exponent maps the low piece onto the high piece pulled back along
        t' = 1/t.

        The scaling here is the general conjugation by the inverted scaling
        witnesses, not :func:`~supercech.obstruction.scaling_action`, which
        re-weights terms and built both pieces: the check stays independent
        of the path it checks."""
        t, tp = self.base_vars
        low = self.piece_low.gluing
        factor = LaurentPoly.var(low.cover.chart(low.cover.order[0]).vars,
                                 t, self.witness_exponent)
        conj = low.conjugate(scaling_witnesses(low, factor))
        charts = [conj.chart(name) for name in conj.cover.order]
        inverse_t = {ch.name: {tp: GrassmannElement.even_var(ch.vars, ch.odd_rank, t, -1)}
                     for ch in charts}
        high = self.piece_high.gluing.pull_back(charts, inverse_t, low.base_vars)
        for key, got in conj.transitions.items():
            found = _first_discrepancy(got, high.transitions[key])
            if found is not None:
                kind, name, diff = found
                return WitnessReport(False, f"overlap {key}: {kind} map {name} differs by {diff}")
        return WitnessReport(True)


def glue_over_p1(g: SuperGluingData, base_vars: tuple[str, str] = ("t", "s"),
                 witness_exponent: int = -2) -> GluedFamily:
    """One-parameter scaling families of ``g`` over the two standard charts,
    glued over t' = 1/t with the (t^-2)-scaling witness.

    The second piece is the first pulled back along the renaming of its
    base coordinate t to t' (:meth:`~SuperGluingData.pull_back`), which is
    the scaling family of ``g`` in t' built without a second rescale."""
    t, tp = base_vars
    low = rothstein_family(g, t)
    _require_unused(g, (tp,))

    def renamed(names):
        return tuple(tp if v == t else v for v in names)

    charts, images = [], {}
    for name in low.gluing.cover.order:
        ch = low.gluing.chart(name)
        new = Chart(name, ch.fiber_vars, renamed(ch.base_vars), ch.odd_rank)
        charts.append(new)
        images[name] = {t: GrassmannElement.even_var(new.vars, new.odd_rank, tp)}
    high = low.gluing.pull_back(charts, images, renamed(low.gluing.base_vars))
    return GluedFamily(low, FamilySpec(high, (tp,)), tuple(base_vars), witness_exponent)


def write_glued_family(glued: GluedFamily) -> str:
    """Serialize as the low piece plus a base-atlas section; the high piece
    is the same construction in the second base coordinate."""
    from .modelfile import ModelDocument, write_document
    doc = ModelDocument(gluing=glued.piece_low.gluing,
                        base_atlas={"base_vars": glued.base_vars,
                                    "witness_exponent": glued.witness_exponent})
    return write_document(doc)


def read_glued_family(doc) -> GluedFamily:
    """Rebuild a glued family from a document carrying a base atlas: the
    fiber over 1 of the stored piece in the atlas coordinate regenerates
    both pieces; other family coordinates stay base coordinates."""
    if doc.base_atlas is None or doc.gluing is None:
        raise SupercechError("document carries no base atlas")
    base_vars = doc.base_atlas["base_vars"]
    exponent = doc.base_atlas.get("witness_exponent", -2)
    fiber = doc.gluing.evaluate_base({base_vars[0]: 1})
    return glue_over_p1(fiber, tuple(base_vars), exponent)
