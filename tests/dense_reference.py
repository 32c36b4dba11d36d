"""Dense exact elimination, kept as a reference for the sparse ``linalg``.

Matrices are lists of lists of ``Fraction``.  Pivots are the first nonzero
entry scanning columns left to right, taken from the topmost remaining row.
"""

from fractions import Fraction as Q


def rref(matrix):
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(rows):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def solve(matrix, rhs, cols):
    """The solution of ``matrix @ x = rhs`` (``cols`` unknowns) with every
    free variable 0, or ``None`` when the system is inconsistent."""
    red, pivots = rref([row + [v] for row, v in zip(matrix, rhs)])
    if cols in pivots:
        return None
    x = [Q(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def nullspace(matrix, cols):
    """Basis of the right kernel of a matrix with ``cols`` columns, one vector
    per free column: 1 there, 0 on the other free columns."""
    red, pivots = rref(matrix) if matrix else ([], [])
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [Q(0)] * cols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def reduce(basis, vector):
    """The representative of ``vector`` modulo the span of ``basis`` that
    vanishes on the span's pivot columns."""
    red, pivots = rref(basis) if basis else ([], [])
    v = list(vector)
    for r, c in enumerate(pivots):
        f = v[c]
        if f != 0:
            v = [a - f * b for a, b in zip(v, red[r])]
    return v
