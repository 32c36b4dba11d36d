"""Sparse exact linear algebra over the rationals.

A row is a list of ``(column, value)`` pairs with distinct columns and
nonzero exact values (``int`` or ``Fraction``, see the coefficient
convention in :mod:`supercech.laurent`, whose :func:`~supercech.laurent.div`
makes every quotient); a vector is a dict ``column -> value`` with nonzero
values.  Columns are integers and their order is the column order.
Elimination touches only nonzero entries.

Every result depends only on the rows, their order and the column order, not
on the order in which the elimination happens to visit them:

* the pivot columns of a span are the first nonzero columns of its elements,
  so the representative of a vector modulo the span that vanishes on all of
  them is unique, and so is the reduced row echelon form;
* the rows independent of the rows before them are fixed by the row order,
  so a vector in the span has exactly one combination of those rows, and
  each dependent row exactly one relation to them.

Canonical cohomology representatives and witnesses built on these results
are therefore reproducible.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush

from .laurent import Coef, div

Row = list[tuple[int, Coef]]


def _clear(v: dict[int, Coef], rows: dict[int, dict[int, Coef]]) -> dict[int, Coef]:
    """Subtract multiples of the echelon ``rows`` (keyed by their first
    nonzero column) from ``v`` in place until ``v`` vanishes on every one of
    those columns; returns the multiple taken of each row.  Leading columns
    are cleared in increasing order, and a row only touches columns at or
    after its own, so a cleared column stays clear."""
    multiples = {}
    todo = sorted(c for c in v if c in rows)
    k = 0
    while k < len(todo):
        p = todo[k]
        k += 1
        f = v.pop(p, None)
        if f is None:
            continue
        row = rows[p]
        f = div(f, row[p])
        multiples[p] = f
        for c, a in row.items():
            if c == p:
                continue
            s = v.get(c)
            if s is None:
                v[c] = -f * a
                if c in rows:
                    insort(todo, c, k)
            else:
                s -= f * a
                if s:
                    v[c] = s
                else:
                    del v[c]
    return multiples


def rref(rows: list[Row]):
    """Eliminate ``rows`` in order, once.

    Each row is cleared on the leading columns of the echelon rows built
    before it.  What is left either becomes a new echelon row, keyed by its
    first nonzero column, or is zero, and the row depends on the rows before
    it.  Returns ``(echelon, built, dependent)``: the echelon rows by leading
    column; ``(lead, row index, multiples)`` for each echelon row in the order
    built, where ``multiples`` maps the leads of earlier echelon rows to the
    multiple of each subtracted; and ``(row index, multiples)`` for each
    dependent row.  ``SpanReducer.basis`` finishes the reduced form."""
    echelon: dict[int, dict[int, Coef]] = {}
    built: list[tuple[int, int, dict[int, Coef]]] = []
    dependent: list[tuple[int, dict[int, Coef]]] = []
    for i, row in enumerate(rows):
        v = dict(row)
        multiples = _clear(v, echelon)
        if v:
            lead = min(v)
            echelon[lead] = v
            built.append((lead, i, multiples))
        else:
            dependent.append((i, multiples))
    return echelon, built, dependent


class SpanReducer:
    """The span of fixed rows, eliminated once (``rref``) and then reused:
    canonical representatives modulo the span, the combination of the rows
    that reaches a vector of the span, the relations among the rows and the
    reduced row echelon form."""

    def __init__(self, rows: list[Row]):
        self.echelon, self.built, self.dependent = rref(rows)
        # position in ``built`` of each echelon row, by leading column
        self.position = {lead: k for k, (lead, _, _) in enumerate(self.built)}

    def reduce(self, vector: dict[int, Coef]) -> tuple[dict[int, Coef], dict[int, Coef]]:
        """``(residual, multiples)``: the one vector of ``vector`` + span that
        vanishes on every pivot column, and the multiples of the echelon rows
        that ``vector`` minus the residual is made of (for ``combination``).
        The residual is empty exactly when ``vector`` lies in the span."""
        v = dict(vector)
        multiples = _clear(v, self.echelon)
        return v, multiples

    def combination(self, multiples: dict[int, Coef]) -> dict[int, Coef]:
        """Coefficients ``x`` by row index with ``sum x[i] * rows[i]`` equal to
        ``sum multiples[p] * echelon[p]``, supported on the rows independent of
        the rows before them (the only such ``x``).  Echelon row ``p`` is its
        source row minus earlier echelon rows, so the coefficients are read
        off from the last row built back to the first, visiting only the
        rows reached: a heap holds the pending build positions (negated, so
        the latest pops first), and a row only reaches rows built before
        it."""
        x = dict(multiples)
        built, position = self.built, self.position
        pending = [-position[p] for p in x]
        heapify(pending)
        out = {}
        while pending:
            lead, i, steps = built[-heappop(pending)]
            f = x.pop(lead, None)
            if f is None:
                continue    # cancelled to zero, or a repeated position
            out[i] = f
            for q, g in steps.items():
                s = x.get(q)
                if s is None:
                    x[q] = -f * g
                    heappush(pending, -position[q])
                else:
                    s -= f * g
                    if s:
                        x[q] = s
                    else:
                        del x[q]
        return out

    def kernel(self) -> list[dict[int, Coef]]:
        """A basis of the relations ``sum k[i] * rows[i] = 0``: one per row
        that depends on the rows before it, with coefficient 1 on that row
        and the rest on independent rows, in row order."""
        basis = []
        for i, multiples in self.dependent:
            k = {j: -f for j, f in self.combination(multiples).items()}
            k[i] = 1
            basis.append(k)
        return basis

    def basis(self) -> list[dict[int, Coef]]:
        """The nonzero rows of the reduced row echelon form, in pivot order:
        each is 1 on its own pivot column and 0 on every other.  Rows are
        finished from the last built back to the first; each was already
        clear of the pivots built before it."""
        reduced: dict[int, dict[int, Coef]] = {}
        for lead, _, _ in reversed(self.built):
            v = dict(self.echelon[lead])
            _clear(v, reduced)
            pv = v[lead]
            reduced[lead] = v if pv == 1 else {c: div(a, pv) for c, a in v.items()}
        return [reduced[p] for p in sorted(reduced)]
