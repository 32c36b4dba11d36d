"""Plain references for the optimised kernels: dense exact elimination for
the sparse ``linalg``, dense matrix helpers for the sparse columns of
``sheaf``, the odd matrices and Jacobians of gluing data entry by entry,
dense sheaf maps and dense-list cochain operations for the sparse Cech
kernel and its frame-map cochains, the delta0 system of a whole sheaf
eliminated in one piece for the blockwise decisions of ``cech``, a lift
through each filtration piece solved on the whole sheaf for
``secondary.refined_splitting_data``, the coboundary on the whole exterior
power for the two-step connecting maps of ``secondary``, each graded space
decided on its whole sheaf for ``secondary.secondary_space``, the cup with
theta through the tensor sheaf and each A1 sample decided in its own
window for ``secondary.verify_a1_containment``, term-by-term
substitution for ``spaces.MonomialMap``, element-level Grassmann
products, powers and substitution for the raw kernel of ``grassmann``, an
expression parser that builds one Grassmann element per atom for
``parsing``, and the conjugation by inverted scaling witnesses for
``obstruction.scaling_action``.

Matrices are lists of lists of ``Fraction``.  Pivots are the first nonzero
entry scanning columns left to right, taken from the topmost remaining row.
"""

import re
from fractions import Fraction as Q
from functools import cache

from supercech.errors import ParseError, SubstitutionError
from supercech.grassmann import GrassmannElement, binomial
from supercech.laurent import LaurentPoly
from supercech.parsing import MAX_EXPONENT, _budget, _power_bound, _product_bound


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
        pv = Q(m[r][c])
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


def combination(reducer, multiples):
    """``SpanReducer.combination`` by walking every built row from the last
    one back to the first."""
    x = dict(multiples)
    out = {}
    for lead, i, steps in reversed(reducer.built):
        f = x.pop(lead, None)
        if not f:
            continue
        out[i] = f
        for q, g in steps.items():
            s = x.get(q, 0) - f * g
            if s:
                x[q] = s
            else:
                x.pop(q, None)
    return out


# ------------------------------------------------------------ sheaf layer
#
# Dense references for the sparse matrix layer and the sparse Cech kernel:
# matrices are lists of rows and every entry is visited, zero or not, as the
# sheaf layer did before it kept sparse columns.  Entries are Laurent
# polynomials of one context or, where noted, rationals.


def _context(vars, *matrices):
    """``vars``, or else the context of the first Laurent entry leading one
    of ``matrices``; ``None`` means the product is rational."""
    if vars is None:
        for m in matrices:
            if m and m[0] and isinstance(m[0][0], LaurentPoly):
                return m[0][0].vars
    return vars


def _nonzero(x) -> bool:
    return not x.is_zero() if isinstance(x, LaurentPoly) else x != 0


def mat_mul(a, b, vars=None):
    """Matrix product ``a . b``.  Either factor may be a constant matrix of
    rationals; ``vars`` is the context of the product, by default read off
    the first entries, and the product of two rational matrices is
    rational."""
    vars = _context(vars, a, b)
    out = []
    for row in a:
        out_row = []
        for col in zip(*b):
            acc = Q(0) if vars is None else LaurentPoly.zero(vars)
            for x, y in zip(row, col):
                if _nonzero(x) and _nonzero(y):
                    if vars is not None and not isinstance(x, LaurentPoly):
                        x = LaurentPoly.const(vars, x)
                    if vars is not None and not isinstance(y, LaurentPoly):
                        y = LaurentPoly.const(vars, y)
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def kron(a, b):
    """Row-major Kronecker product: entry ((i,j),(k,l)) = a[i][k] * b[j][l];
    a product with a zero factor is one shared zero of the product's type."""
    if not a or not b:
        return []
    vars = _context(None, a, b)
    zero = Q(0) if vars is None else LaurentPoly.zero(vars)
    out = []
    for arow in a:
        for brow in b:
            row = []
            for x in arow:
                if _nonzero(x):
                    row.extend(x * y if _nonzero(y) else zero for y in brow)
                else:
                    row.extend([zero] * len(brow))
            out.append(row)
    return out


def identity_matrix(n, vars=None):
    """n x n identity over the Laurent polynomials in ``vars``, or over the
    rationals when ``vars`` is ``None``."""
    if vars is None:
        one, zero = Q(1), Q(0)
    else:
        one, zero = LaurentPoly.const(vars, 1), LaurentPoly.zero(vars)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def selection_matrix(positions, n):
    """Constant 0/1 matrix whose row i picks coordinate ``positions[i]`` of
    an n-vector."""
    return [[Q(1) if j == p else Q(0) for j in range(n)] for p in positions]


def hom_unflatten(flat, rank_target, rank_source):
    return [list(flat[i * rank_source:(i + 1) * rank_source]) for i in range(rank_target)]


def matrices(spec):
    """The transition matrices of ``spec`` as dense rows, by overlap."""
    from supercech.sheaf import rows_of
    return {key: rows_of(m, spec.space.cover.chart(key[0]).vars)
            for key, m in spec.matrices.items()}


def odd_matrix(t):
    """Degree-one odd matrix of a transition as dense rows: entry (b, a) is
    the theta_a coefficient of the image of the target generator b."""
    return [[t.odd_maps[b].coefficient((a,)) for a in range(1, t.source.odd_rank + 1)]
            for b in range(1, t.target.odd_rank + 1)]


def jacobian(space, a, b):
    """d(b-coordinates)/d(a-coordinates) as dense rows, every entry derived,
    in a-coordinates."""
    cmap = space.coordinate_maps[(a, b)]
    return [[cmap[u].derivative(v) for v in space.cover.chart(a).vars]
            for u in space.cover.chart(b).vars]


def diagonal_block(spec, positions):
    """Dense matrices of ``sheaf.diagonal_block``, by overlap."""
    return {key: [[m[i][j] for j in positions] for i in positions]
            for key, m in matrices(spec).items()}


def frames_leak(spec, frames):
    """``sheaf.frames_leak`` scanning every entry: rows outside ``frames`` in
    increasing order, then ``frames`` in their order."""
    chosen = set(frames)
    outside = [i for i in range(spec.rank) if i not in chosen]
    for key, m in matrices(spec).items():
        for i in outside:
            for j in frames:
                if not m[i][j].is_zero():
                    return key, i, j
    return None


def mat_vec(m, v):
    """``m . v`` entry by entry, for Laurent vectors ``v`` of one context and
    entries of ``m`` that are Laurent polynomials or rationals."""
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
    """``SheafSpec.transport`` of a dense component list through the dense
    re-expressed matrix."""
    from supercech.sheaf import rows_of
    composed = [spec.space.compose_into(to, frm, p) for p in vector]
    return mat_vec(rows_of(spec._matrix_in(to, (frm, to)), spec.space.cover.chart(to).vars),
                   composed)


# Dense cochain operations: a cochain is read as ``dense(c)``, every
# canonical tuple's full component list, and the results are such dicts.


def dense(cochain):
    """Every component of every canonical section, zeros included."""
    return {k: cochain.section(*k) for k in cochain.sections}


def map_cochain(cochain, matrix, sheaf):
    """A constant dense ``matrix`` applied to every section of ``cochain``,
    built through the checking constructor."""
    from supercech.cech import CechCochain
    return CechCochain(sheaf, cochain.degree,
                       {k: mat_vec(matrix, v) for k, v in dense(cochain).items()})


def restrict(cochain, frames):
    return {k: [v[f] for f in frames] for k, v in dense(cochain).items()}


def extend(cochain, frames, rank):
    out = {}
    for k, v in dense(cochain).items():
        vec = [LaurentPoly.zero(v[0].vars)] * rank
        for f, p in zip(frames, v):
            vec[f] = p
        out[k] = vec
    return out


def combine(u, v, sign):
    """``u + sign * v`` component by component."""
    return {k: [a + b if sign == 1 else a - b for a, b in zip(x, dense(v)[k])]
            for k, x in dense(u).items()}


def delta(cochain):
    """The alternating-sum coboundary, every component transported."""
    spec = cochain.sheaf
    cover = spec.space.cover
    s = dense(cochain)
    if cochain.degree == 0:
        return {(a, b): [m - h for m, h in zip(transport(spec, b, a, s[(b,)]), s[(a,)])]
                for (a, b) in cover.canonical_overlaps()}
    return {(a, b, c): [x - y + z for x, y, z in
                        zip(transport(spec, b, a, s[(b, c)]), s[(a, c)], s[(a, b)])]
            for (a, b, c) in cover.canonical_triples()}


# The delta0 system of the whole sheaf, built and eliminated in one piece:
# the reference for the decisions of ``cech``, which split a sheaf into the
# blocks of its transition matrices.


def delta0_images(sheaf, bound):
    """The unknowns ``((chart,), frame, exps)``, one per windowed
    chart-regular 0-cochain monomial, and the image of delta on each as a
    sparse vector over ``(overlap, frame, exps)`` keys."""
    from itertools import product
    cover = sheaf.space.cover
    space = sheaf.space
    overlaps = cover.canonical_overlaps()
    columns = {(a, b): sheaf._matrix_in(a, (b, a)) for (a, b) in overlaps}
    unknowns, images = [], []
    for chart in cover.order:
        vars = cover.chart(chart).vars
        touching = [(o, o[0] == chart,
                     space.exponent_map(o[0], o[1], vars) if o[1] == chart else None)
                    for o in overlaps if chart in o]
        for frame in range(sheaf.rank):
            for exps in product(*[range(bound + 1)] * len(vars)):
                contrib = {}
                for o, leads, emap in touching:
                    if leads:
                        key = (o, frame, exps)
                        contrib[key] = contrib.get(key, 0) - 1
                    if emap is not None:
                        mono, mcoef = emap.term(exps, 1)
                        for r, e in columns[o][frame]:
                            for eexps, ecoef in e.terms.items():
                                key = (o, r, tuple(x + y for x, y in zip(eexps, mono)))
                                contrib[key] = contrib.get(key, 0) + ecoef * mcoef
                unknowns.append(((chart,), frame, exps))
                images.append({k: v for k, v in contrib.items() if v != 0})
    return unknowns, images


def key_order(cover, keys):
    """``(tuple, frame, exps)`` keys by canonical overlap, frame and
    exponents."""
    overlap_pos = {o: i for i, o in enumerate(cover.canonical_overlaps())}
    return sorted(keys, key=lambda k: (overlap_pos[k[0]], k[1], k[2]))


def _eliminate(keys, vectors):
    from supercech import linalg
    columns = {k: i for i, k in enumerate(keys)}
    return columns, linalg.SpanReducer(
        [[(columns[k], v) for k, v in vec.items() if k in columns] for vec in vectors])


class Delta0System:
    """The images of every unknown of ``sheaf`` in window ``bound``, over
    all their keys in key order, eliminated by one ``linalg.SpanReducer``."""

    def __init__(self, sheaf, bound):
        self.sheaf = sheaf
        self.unknowns, images = delta0_images(sheaf, bound)
        self.keys = key_order(sheaf.space.cover, set().union(*images))
        self.columns, self.reducer = _eliminate(self.keys, images)

    def reduce(self, vector):
        """``(residual over keys, multiples)``; entries on keys outside the
        system stay in the residual."""
        residual, multiples = self.reducer.reduce(
            {self.columns[k]: v for k, v in vector.items() if k in self.columns})
        out = {self.keys[i]: v for i, v in residual.items()}
        out.update((k, v) for k, v in vector.items() if k not in self.columns)
        return out, multiples

    def cochain(self, solution):
        from supercech.cech import _cochain_from_values
        return _cochain_from_values(self.sheaf, 0, ((self.unknowns[u], v)
                                                    for u, v in solution.items()))


def windows(sheaf, *cochains, window=None, degree=None):
    """``(top, bound)`` of a decision on ``sheaf``, derived here rather than
    read from ``cech.DecisionPlan``: ``top`` is ``window``, or one past the
    sheaf's pole order plus the cochains' largest exponents; ``bound`` adds
    one more pole order for an H^1 basis.  No cap or budget applies."""
    top = window
    if top is None:
        top = sheaf.max_pole_order() + 1 + sum(c.max_exponent() for c in cochains)
    return top, (top + sheaf.max_pole_order() + 1 if degree == 1 else top)


def cohomology_class(c, window=None):
    """``(trivial, representative, witness)`` of a 1-cocycle ``c`` from the
    whole sheaf's system, in the window ``cech.cohomology_class`` uses: the
    residual of ``c`` as a cochain (zero when trivial) and the combination
    of independent unknowns that reaches ``c`` (``None`` when not)."""
    from supercech.cech import CechCochain, _cochain_from_values, _cochain_keys
    sheaf = c.sheaf
    if sheaf.rank == 0 or c.is_zero():
        return True, CechCochain(sheaf, 1), CechCochain(sheaf, 0)
    system = Delta0System(sheaf, windows(sheaf, c, window=window)[1])
    residual, multiples = system.reduce(_cochain_keys(c))
    if residual:
        return False, _cochain_from_values(sheaf, 1, residual.items()), None
    return True, CechCochain(sheaf, 1), system.cochain(system.reducer.combination(multiples))


def cohomology_basis(sheaf, degree, window=None):
    """``cech.cohomology_basis`` from the whole sheaf's system: the kernel
    relations as 0-cochains in degree 0, and in degree 1 the reduced row
    echelon form of the residuals of every candidate cocycle."""
    from itertools import product
    from supercech.cech import _cochain_from_values, _cochain_keys, cech_delta
    if sheaf.rank == 0:
        return []
    top, bound = windows(sheaf, window=window, degree=degree)
    system = Delta0System(sheaf, bound)
    if degree == 0:
        return [system.cochain(k) for k in system.reducer.kernel()]
    cover = sheaf.space.cover
    candidates = []
    for (a, b) in cover.canonical_overlaps():
        negatives = sheaf.space.negative_vars(a, b)
        ranges = [range(-top if v in negatives else 0, top + 1)
                  for v in cover.chart(a).vars]
        candidates += [((a, b), frame, exps) for frame in range(sheaf.rank)
                       for exps in product(*ranges)]
    if cover.canonical_triples():
        images = [_cochain_keys(cech_delta(_cochain_from_values(sheaf, 1, [(cand, 1)])))
                  for cand in candidates]
        _, relations = _eliminate(sorted(set().union(*images)), images)
        cocycles = [{candidates[u]: v for u, v in k.items()} for k in relations.kernel()]
    else:
        cocycles = [{cand: 1} for cand in candidates]
    residuals = [system.reduce(cocycle)[0] for cocycle in cocycles]
    if not residuals:
        return []
    keys = key_order(cover, set().union(*residuals))
    _, reduced = _eliminate(keys, residuals)
    return [_cochain_from_values(sheaf, 1, ((keys[i], v) for i, v in row.items()))
            for row in reduced.basis()]


def cup_product(u, v):
    """``cech.cup_product`` with every product of components formed."""
    B = v.sheaf
    cover = B.space.cover
    us, vs = dense(u), dense(v)

    def tensor(x, y):
        return [a * b for a in x for b in y]
    if (u.degree, v.degree) == (0, 0):
        return {(n,): tensor(us[(n,)], vs[(n,)]) for n in cover.order}
    if (u.degree, v.degree) == (1, 0):
        return {(a, b): tensor(us[(a, b)], transport(B, b, a, vs[(b,)]))
                for (a, b) in cover.canonical_overlaps()}
    if (u.degree, v.degree) == (0, 1):
        return {(a, b): tensor(us[(a,)], vs[(a, b)]) for (a, b) in cover.canonical_overlaps()}
    return {(a, b, c): tensor(us[(a, b)], transport(B, b, a, vs[(b, c)]))
            for (a, b, c) in cover.canonical_triples()}


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


def contraction_matrix(rank, a):
    """Constant matrix of (1/a!) sum_t e_t (x) d/d e_t from the a-th exterior
    power into (rank) x (a-1 exterior) tensor components: the contraction
    ``secondary._theta_pairing_matrix`` applies to the fiber factor."""
    from itertools import combinations
    from math import factorial
    src = list(combinations(range(rank), a))
    tgt_small = list(combinations(range(rank), a - 1))
    tpos = {K: i for i, K in enumerate(tgt_small)}
    out = [[Q(0)] * len(src) for _ in range(rank * len(tgt_small))]
    norm = Q(1, factorial(a))
    for col, I in enumerate(src):
        for pos, t in enumerate(I):
            K = tuple(v for v in I if v != t)
            sign = -1 if pos % 2 else 1
            out[t * len(tgt_small) + tpos[K]][col] += sign * norm
    return out


# ------------------------------------------------------- secondary layer


def refined_splitting_data(m, cochain, level, window=None):
    """``secondary.refined_splitting_data`` lifting through each F_b on the
    whole sheaf: the delta0 images of every frame, with their entries on
    the frames outside F_b only, are eliminated by one ``linalg.SpanReducer``,
    and a combination matching ``cochain`` on those frames is the witness w
    (checked there); the lift is ``cochain - delta(w)``.  Returns
    ``(refined_b, secondary class)``."""
    from supercech import linalg
    from supercech.cech import _cochain_from_values, _cochain_keys, cech_delta, cohomology_class
    from supercech.secondary import _hom_frames, filtration_of, hom_into_quotient, parity_spec
    P = parity_spec(m, level)
    filt = filtration_of(m, level)
    sheaf = cochain.sheaf
    overlap_pos = {o: i for i, o in enumerate(sheaf.space.cover.canonical_overlaps())}
    for b in range(level, 0, -1):
        inside = set(filt.pieces[b])
        if not inside:
            continue
        outside = set(_hom_frames([i for i in range(filt.ambient.rank) if i not in inside],
                                  P.rank))
        unknowns, images = delta0_images(sheaf, windows(sheaf, cochain, window=window)[1])
        rhs = {k: v for k, v in _cochain_keys(cochain).items() if k[1] in outside}
        keys = sorted({k for img in images for k in img if k[1] in outside} | set(rhs),
                      key=lambda k: (overlap_pos[k[0]], k[1], k[2]))
        columns = {k: i for i, k in enumerate(keys)}
        reducer = linalg.SpanReducer([[(columns[k], v) for k, v in img.items() if k in columns]
                                      for img in images])
        residual, multiples = reducer.reduce({columns[k]: v for k, v in rhs.items()})
        if residual:
            continue
        w = _cochain_from_values(sheaf, 0, ((unknowns[u], v)
                                            for u, v in reducer.combination(multiples).items()))
        lifted = cochain - cech_delta(w)
        assert not any(f in outside for frames in lifted.sections.values() for f in frames)
        graded = lifted.restrict(_hom_frames(filt.graded[b], P.rank),
                                 hom_into_quotient(m, level - b, b))
        return b, cohomology_class(graded, window=window)
    return None, None


def secondary_space(m, a, b, p, window=None):
    """``(spec, basis)`` of the (a, b, p) graded space decided on the whole
    sheaf hom(P, Λ^b O^n ⊗ Λ^a F): ``cech.cohomology_basis`` of
    ``secondary.hom_into_quotient(m, a, b)`` in ``window``, with no use of
    its C(n, b) copies of one block."""
    from supercech.cech import cohomology_basis
    from supercech.secondary import hom_into_quotient
    spec = hom_into_quotient(m, a, b)
    return spec, cohomology_basis(spec, p, window=window)


def secondary_differential(m, a, b, p, nu):
    """The cochain of ``secondary.secondary_differential`` with a >= 1 from
    the whole exterior power: nu extended by zero onto the gr_b frames of
    hom(P, Λ^(a+b) of the extension bundle), its coboundary there, read off
    on the gr_(b+1) frames.  The coboundary lies in F_(b+1), since nu is a
    cocycle of gr_b and F_b is a subsheaf; its gr_(b+2) part is dropped.
    Every step is dense, and no piece, quotient or sequence is built."""
    from supercech.cech import CechCochain
    from supercech.secondary import _hom_frames, filtration_of, hom_into_quotient, parity_spec
    from supercech.sheaf import sheaf_hom
    level = a + b
    P = parity_spec(m, level)
    filt = filtration_of(m, level)
    whole = sheaf_hom(P, filt.ambient)
    lifted = CechCochain(whole, p, extend(nu, _hom_frames(filt.graded[b], P.rank), whole.rank))
    boundary = delta(lifted)
    kept = set(_hom_frames(filt.pieces[b + 1], P.rank))
    assert all(v[f].is_zero() for v in boundary.values() for f in range(whole.rank)
               if f not in kept)
    inside = _hom_frames(filt.graded[b + 1], P.rank)
    return CechCochain(hom_into_quotient(m, a - 1, b + 1), p + 1,
                       {k: [v[f] for f in inside] for k, v in boundary.items()})


def model_class_image(m, a, b, p, nu):
    """The cochain of ``secondary.model_class_map`` through the tensor
    sheaf: theta cup nu valued in hom(fiber, base) (x) hom(P, quot^{a,b}),
    then the theta pairing columns applied to every section."""
    from supercech.cech import cup_product
    from supercech.secondary import hom_into_quotient, parity_spec
    columns = _pairing_columns(m.base_rank, m.fiber_rank, a, b, parity_spec(m, a + b).rank)
    return cup_product(m.theta, nu).map(columns, hom_into_quotient(m, a - 1, b + 1))


@cache
def _pairing_columns(n, qx, a, b, rank_p):
    """``secondary._theta_pairing_matrix`` with the model class map's sign,
    for base rank n and fiber rank qx."""
    from types import SimpleNamespace
    from supercech.secondary import MODEL_CLASS_MAP_SIGN, _theta_pairing_matrix
    return _theta_pairing_matrix(SimpleNamespace(base_rank=n, fiber_rank=qx), a, b, rank_p,
                                 MODEL_CLASS_MAP_SIGN)


def a1_containment(m, b, window=None):
    """``secondary.verify_a1_containment`` sample by sample: the left image
    through the tensor sheaf (:func:`model_class_image`), the differential
    image, and each side decided in ``window`` or in the window derived
    from its own image; a right image equal to the left shares its
    decision."""
    from supercech.cech import cohomology_class
    from supercech.secondary import (ContainmentReport, ContainmentSample, _differential_image,
                                     secondary_space)
    space = secondary_space(m, 1, b, 0, window=window)
    report = ContainmentReport(b, space.dimension)
    for i, nu in enumerate(space.basis):
        left = model_class_image(m, 1, b, 0, nu)
        right = _differential_image(m, 1, b, 0, nu)
        lhs = cohomology_class(left, window=window)
        rhs = lhs if left == right else cohomology_class(right, window=window)
        report.samples.append(ContainmentSample(i, lhs.trivial, rhs.trivial,
                                                lhs.representative == rhs.representative))
    return report


# ---------------------------------------------------------- Laurent layer


def subs_monomial(poly, images, target):
    """Substitute each variable of ``poly`` by its image over ``target``, one
    term at a time with image powers from ``LaurentPoly.__pow__``: the
    reference for ``spaces.MonomialMap``.  A variable that occurs with a
    negative exponent needs an invertible monomial image; one that occurs
    with nonnegative exponents only may go to any polynomial (a constant,
    for evaluation)."""
    result = LaurentPoly.zero(target)
    cache = {}
    for exps, c in poly.terms.items():
        term = LaurentPoly.const(target, c)
        for v, e in zip(poly.vars, exps):
            if e == 0:
                continue
            if (v, e) not in cache:
                img = images[v].with_context(target)
                if e < 0 and not img.is_monomial():
                    raise ValueError(f"negative power of {v} needs a monomial image, got {img}")
                cache[(v, e)] = img ** e
            term = term * cache[(v, e)]
        result = result + term
    return result


def evaluate(poly, point):
    """``poly`` with the variables named in ``point`` set to those rationals;
    the other variables form the context of the result."""
    keep = tuple(v for v in poly.vars if v not in point)
    images = {v: LaurentPoly.const(keep, point[v]) if v in point else LaurentPoly.var(keep, v)
              for v in poly.vars}
    return subs_monomial(poly, images, keep)


def constant_value(poly):
    """The value of a polynomial without variables in its terms (0 for the
    zero polynomial)."""
    if any(any(exps) for exps in poly.terms):
        raise ValueError("not a constant")
    return next(iter(poly.terms.values()), 0)


# -------------------------------------------------------- Grassmann layer
# Element-level references for ``grassmann``: a product merges sorted
# multi-indices and counts its transpositions pair by pair, a power
# multiplies or sums its Taylor series one element at a time, and a
# substitution maps term by term with no memo.  None of them goes through
# the raw product kernel.


def grassmann_mul(a, b):
    """``a * b`` by sorted merge of the multi-indices; the sign is ``(-1)``
    to the number of pairs ``i in I, j in J`` with ``i > j``."""
    terms = {}
    for i1, c1 in a.terms.items():
        for i2, c2 in b.terms.items():
            if set(i1) & set(i2):
                continue
            idx = tuple(sorted(i1 + i2))
            part = c1 * c2
            if sum(i > j for i in i1 for j in i2) % 2:
                part = -part
            terms[idx] = terms[idx] + part if idx in terms else part
    return GrassmannElement(a.vars, a.odd_rank, terms)


def grassmann_power(g, e):
    """``g^e``: ``e`` products for ``e >= 0``; for ``e < 0`` the Taylor
    series ``m^e * sum_k C(e, k) (n/m)^k`` through the nilpotent part ``n``
    of an invertible monomial body ``m``."""
    one = GrassmannElement.const(g.vars, g.odd_rank, 1)
    if e >= 0:
        out = one
        for _ in range(e):
            out = grassmann_mul(out, g)
        return out
    m = g.body()
    if not m.is_monomial():
        raise SubstitutionError("negative power of a non-invertible element")
    u = grassmann_mul(g - GrassmannElement.from_poly(m, g.odd_rank),
                      GrassmannElement.from_poly(m.inverse(), g.odd_rank))
    series, u_pow, k = GrassmannElement.zero(g.vars, g.odd_rank), one, 0
    while not u_pow.is_zero():
        series = series + u_pow.scale(binomial(e, k))
        u_pow = grassmann_mul(u_pow, u)
        k += 1
    return grassmann_mul(series, GrassmannElement.from_poly(m ** e, g.odd_rank))


def substitute(element, even_images, odd_images, vars, odd_rank):
    """Image of ``element`` under the coordinate images, term by term: the
    reference for ``GrassmannElement.substitute``."""
    total = GrassmannElement.zero(vars, odd_rank)
    for idx, coeff in element.terms.items():
        odd = GrassmannElement.const(vars, odd_rank, 1)
        for a in idx:
            odd = grassmann_mul(odd, odd_images[a])
        for exps, c in coeff.terms.items():
            term = GrassmannElement.const(vars, odd_rank, c)
            for v, e in zip(element.vars, exps):
                term = grassmann_mul(term, grassmann_power(even_images[v], e))
            total = total + grassmann_mul(term, odd)
    return total


# ---------------------------------------------------------- scaling action


def scaling_action(g, factor):
    """``obstruction.scaling_action`` as the general conjugation: every
    transition t_ab becomes w_b o t_ab o w_a^(-1) for the chartwise scaling
    witnesses w, each inverted by ``gluing.invert_transition``."""
    from supercech.obstruction import scaling_witnesses
    return g.conjugate(scaling_witnesses(g, factor))


# ------------------------------------------------------------ expressions

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|/|\+|-|\(|\)))")
_THETA = re.compile(r"^theta_([0-9]+)$")


class _ReferenceTokenizer:
    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.line = line
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.i = 0

    def _scan(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN.match(self.text, pos)
            if not m or m.end() == pos:
                if self.text[pos:].strip() == "":
                    break
                raise ParseError(f"unexpected character {self.text[pos]!r}",
                                 self.line, pos + 1)
            if m.group(1):
                self.tokens.append(("num", m.group(1), m.start(1)))
            elif m.group(2):
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, col = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", self.line, col + 1)


class ReferenceParser:
    """The grammar of ``parsing.ExpressionParser``, evaluated atom by atom:
    every number, coordinate and ``theta_k`` becomes a
    :class:`GrassmannElement` and every operator one element operation, with
    the same budget checks and errors."""

    def __init__(self, vars: tuple[str, ...], odd_rank: int):
        self.vars = tuple(vars)
        self.odd_rank = odd_rank

    def parse(self, text: str, line: int | None = None) -> GrassmannElement:
        tz = _ReferenceTokenizer(text, line)
        value = self._expr(tz)
        kind, val, col = tz.peek()
        if kind is not None:
            raise ParseError(f"trailing input starting at {val!r}", line, col + 1)
        return value

    def parse_poly(self, text: str, line: int | None = None) -> LaurentPoly:
        g = self.parse(text, line)
        if g.truncate(1).is_zero():
            return g.body()
        raise ParseError("expected an expression without odd generators", line, 1)

    # ---------------------------------------------------------------- rules

    def _expr(self, tz):
        value = self._term(tz)
        while True:
            kind, val, _ = tz.peek()
            if kind == "op" and val in "+-":
                tz.next()
                rhs = self._term(tz)
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def _term(self, tz):
        value = self._factor(tz)
        while True:
            kind, val, col = tz.peek()
            if kind == "op" and val in "*/":
                tz.next()
                rhs = self._factor(tz)
                if val == "/":
                    _budget(_power_bound(rhs, -1), tz.line, col)
                    try:
                        rhs = rhs.power(-1)
                    except SubstitutionError as exc:
                        raise ParseError(f"division by a non-invertible expression ({exc})",
                                         tz.line, col + 1)
                _budget(_product_bound(value, rhs), tz.line, col)
                value = value * rhs
            else:
                return value

    def _factor(self, tz):
        kind, val, _ = tz.peek()
        if kind == "op" and val == "-":
            tz.next()
            return -self._factor(tz)
        value = self._atom(tz)
        kind, val, col = tz.peek()
        if kind == "op" and val == "^":
            tz.next()
            e = self._exponent(tz)
            _budget(_power_bound(value, e), tz.line, col)
            try:
                value = value.power(e)
            except SubstitutionError as exc:
                raise ParseError(f"negative power of a non-invertible expression ({exc})",
                                 tz.line, col + 1)
        return value

    def _exponent(self, tz) -> int:
        kind, val, col = tz.next()
        if kind == "op" and val == "(":
            e = self._exponent(tz)
            tz.expect_op(")")
            return e
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, col = tz.next()
        if kind != "num":
            raise ParseError("expected an integer exponent", tz.line, col + 1)
        if len(val.lstrip("0")) > len(str(MAX_EXPONENT)) or int(val) > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT} in absolute value",
                             tz.line, col + 1)
        return sign * int(val)

    def _atom(self, tz):
        kind, val, col = tz.next()
        if kind == "num":
            try:
                return GrassmannElement.const(self.vars, self.odd_rank, int(val))
            except ValueError:  # longer than the interpreter converts
                raise ParseError("integer literal is too long", tz.line, col + 1)
        if kind == "name":
            m = _THETA.match(val)
            if m:
                digits = m.group(1).lstrip("0") or "0"
                if len(digits) > len(str(self.odd_rank)) or \
                        not 1 <= int(digits) <= self.odd_rank:
                    raise ParseError(f"theta_{digits} out of range 1..{self.odd_rank}",
                                     tz.line, col + 1)
                return GrassmannElement.odd_gen(self.vars, self.odd_rank, int(digits))
            if val not in self.vars:
                raise ParseError(f"unknown coordinate {val!r}", tz.line, col + 1)
            return GrassmannElement.even_var(self.vars, self.odd_rank, val)
        if kind == "op" and val == "(":
            value = self._expr(tz)
            tz.expect_op(")")
            return value
        raise ParseError(f"unexpected token {val!r}", tz.line, col + 1)
