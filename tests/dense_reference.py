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


# ------------------------------------------------------------ sheaf layer
#
# Dense references for the sparse Cech kernel: every matrix entry is visited,
# zero or not, as the kernel did before it kept nonzero patterns.


def mat_vec(m, v):
    """``m . v`` entry by entry, for Laurent vectors ``v`` of one context and
    entries of ``m`` that are Laurent polynomials or rationals."""
    from supercech.laurent import LaurentPoly
    vars = v[0].vars
    out = []
    for row in m:
        acc = LaurentPoly.zero(vars)
        for x, y in zip(row, v):
            if not isinstance(x, LaurentPoly):
                x = LaurentPoly.const(vars, x)
            acc = acc + x * y
        out.append(acc)
    return out


def transport(spec, frm, to, vector):
    """``SheafSpec.transport`` through the dense re-expressed matrix."""
    composed = [spec.space.compose_into(to, frm, p) for p in vector]
    return mat_vec(spec._matrix_in(to, (frm, to)), composed)


def map_cochain(cochain, matrix, sheaf):
    """A constant dense ``matrix`` applied to every section of ``cochain``,
    built through the checking constructor."""
    from supercech.cech import CechCochain
    return CechCochain(sheaf, cochain.degree,
                       {k: mat_vec(matrix, v) for k, v in cochain.sections.items()})


def theta_pairing_matrix(n, qx, a, b, rank_p, sign_fix=1):
    """Dense matrix of ``secondary._theta_pairing_matrix`` for base rank n and
    fiber rank qx."""
    from itertools import combinations
    from math import factorial
    Ia = list(combinations(range(qx), a))
    Ia1 = list(combinations(range(qx), a - 1))
    Kb = list(combinations(range(n), b))
    Kb1 = list(combinations(range(n), b + 1))
    rank_quot_in = len(Kb) * len(Ia)
    rank_in = (n * qx) * (rank_quot_in * rank_p)
    rank_out = (len(Kb1) * len(Ia1)) * rank_p
    out = [[Q(0)] * rank_in for _ in range(rank_out)]
    norm = Q(sign_fix, factorial(a))
    for bi in range(n):
        for fi in range(qx):
            h = bi * qx + fi
            for kpos, K in enumerate(Kb):
                if bi in K:
                    continue
                wsign = -1 if sum(1 for k in K if k > bi) % 2 else 1
                K2 = tuple(sorted(K + (bi,)))
                for ipos, I in enumerate(Ia):
                    if fi not in I:
                        continue
                    tsign = -1 if I.index(fi) % 2 else 1
                    I2 = tuple(v for v in I if v != fi)
                    qi_in = kpos * len(Ia) + ipos
                    qi_out = Kb1.index(K2) * len(Ia1) + Ia1.index(I2)
                    for pi in range(rank_p):
                        col = h * (rank_quot_in * rank_p) + (qi_in * rank_p + pi)
                        out[qi_out * rank_p + pi][col] += norm * tsign * wsign
    return out


def laurent_det(matrix):
    """Determinant by recursive cofactor expansion along the first row."""
    from supercech.laurent import LaurentPoly
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    result = LaurentPoly.zero(matrix[0][0].vars)
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * laurent_det(minor)
        result = result + (term if j % 2 == 0 else -term)
    return result


def invert_laurent_matrix(matrix):
    """Adjugate over determinant, one cofactor expansion per entry; ``None``
    when the determinant is not an invertible monomial."""
    n = len(matrix)
    det = laurent_det(matrix)
    if det.is_zero() or not det.is_monomial():
        return None
    det_inv = det.inverse()
    if n == 1:
        return [[det_inv]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[matrix[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = laurent_det(minor)
            out[j][i] = (-cof if (i + j) % 2 else cof) * det_inv
    return out
