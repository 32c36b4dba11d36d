"""Dense exact linear algebra over the rationals.

Everything here works on lists of lists of ``Fraction`` and is deterministic:
pivots are chosen as the first nonzero entry scanning columns left to right,
so reduced forms (and hence canonical cohomology representatives built on
them) are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices).

    Row operations touch only the nonzero columns of the pivot row, which is
    what makes the large sparse systems coming from coboundary equations
    tractable."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [v / pv for v in m[r]]
        row_r = m[r]
        support = [k for k, v in enumerate(row_r) if v != 0]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                if f != 0:
                    row_i = m[i]
                    for k in support:
                        row_i[k] -= f * row_r[k]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix: list[list[Fraction]]) -> int:
    return len(rref(matrix)[1])


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of ``matrix @ x = rhs`` (free variables set to 0), or
    ``None`` when the system is inconsistent."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [matrix[i][:] + [rhs[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Q(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def nullspace(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[Q(1) if i == j else Q(0) for i in range(cols)] for j in range(cols)]
    red, pivots = rref(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Q(0)] * cols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


class SpanReducer:
    """Reduces vectors to canonical representatives modulo a fixed span.

    The span is brought to reduced row echelon form once; reduction then
    eliminates, in order, every coordinate where some span element has its
    leading entry, which makes representatives deterministic."""

    def __init__(self, basis: list[list[Fraction]]):
        if basis:
            self.red, self.pivots = rref(basis)
            self.support = [[k for k, v in enumerate(row) if v != 0] for row in self.red]
        else:
            self.red, self.pivots, self.support = [], [], []

    def reduce(self, vector: list[Fraction]) -> list[Fraction]:
        v = list(vector)
        for r, c in enumerate(self.pivots):
            f = v[c]
            if f != 0:
                row = self.red[r]
                for k in self.support[r]:
                    v[k] -= f * row[k]
        return v
