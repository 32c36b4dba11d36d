"""Sparse exact linear algebra against independent oracles.

Matrices are seeded, sparse, rational and include empty shapes, zero rows
and zero columns.  ``oracle_rank`` eliminates with its own pivot rule, so the
properties checked against it hold for any correct implementation; the
dense reference eliminator in ``dense_reference`` fixes the exact results
(reduced forms, witnesses, kernel bases, canonical representatives), which
depend only on the row and column order.
"""

import random
from fractions import Fraction as Q

import pytest

import dense_reference as ref
from supercech import linalg


def oracle_rank(rows) -> int:
    """Rank by elimination that pivots on the last nonzero of each row."""
    work = [list(r) for r in rows if any(v != 0 for v in r)]
    rank = 0
    while work:
        row = work.pop()
        if all(v == 0 for v in row):
            continue
        c = max(i for i, v in enumerate(row) if v != 0)
        for other in work:
            f = other[c] / row[c]
            if f != 0:
                for i, v in enumerate(row):
                    other[i] -= f * v
        rank += 1
    return rank


def apply(matrix, x):
    return [sum((a * b for a, b in zip(row, x)), Q(0)) for row in matrix]


def sparse(rows):
    """Dense rows as ``linalg`` rows."""
    return [[(c, v) for c, v in enumerate(row) if v != 0] for row in rows]


def columns(matrix, cols):
    """The columns of a dense matrix as ``linalg`` rows."""
    return sparse([[row[c] for row in matrix] for c in range(cols)])


def vector(values):
    return {c: v for c, v in enumerate(values) if v != 0}


def dense(vec, n):
    out = [Q(0)] * n
    for c, v in vec.items():
        out[c] = v
    return out


def random_matrix(rng, rows, cols, density=0.5):
    m = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else Q(0)
          for _ in range(cols)] for _ in range(rows)]
    for r in rng.sample(range(rows), rng.randint(0, rows // 2)):
        m[r] = [Q(0)] * cols
    for c in rng.sample(range(cols), rng.randint(0, cols // 2)):
        for row in m:
            row[c] = Q(0)
    return m


def cases(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))


def shapes(seed, count=60):
    """(rng, matrix, rows, cols), empty shapes and very sparse ones included."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.choice((0.1, 0.25, 0.6))
        yield rng, random_matrix(rng, rows, cols, density), rows, cols


def random_rhs(rng, a, rows, cols):
    """In the column span, outside it, or on a zero row of ``a`` (a key no
    column reaches, which makes the system inconsistent)."""
    kind = rng.randrange(3)
    if kind == 0:
        return apply(a, [Q(rng.randint(-2, 2)) for _ in range(cols)]) if rows else []
    b = [Q(rng.randint(-2, 2)) if rng.random() < 0.4 else Q(0) for _ in range(rows)]
    zero_rows = [r for r in range(rows) if not any(a[r])]
    if kind == 2 and zero_rows:
        b[rng.choice(zero_rows)] = Q(1)
    return b


def test_solve_matches_rank_oracle():
    for rng, a in cases(11):
        cols = len(a[0])
        if rng.random() < 0.5:
            b = apply(a, [Q(rng.randint(-2, 2)) for _ in range(cols)])
        else:
            b = [Q(rng.randint(-2, 2)) if rng.random() < 0.4 else Q(0) for _ in a]
        consistent = oracle_rank(a) == oracle_rank([row + [v] for row, v in zip(a, b)])
        reducer = linalg.SpanReducer(columns(a, cols))
        residual, multiples = reducer.reduce(vector(b))
        if consistent:
            assert residual == {}
            x = dense(reducer.combination(multiples), cols)
            assert apply(a, x) == b
        else:
            assert residual != {}


def test_nullspace_is_a_kernel_basis():
    for rng, a in cases(12):
        cols = len(a[0])
        kernel = [dense(k, cols) for k in linalg.SpanReducer(columns(a, cols)).kernel()]
        assert len(kernel) == cols - oracle_rank(a)
        for v in kernel:
            assert apply(a, v) == [Q(0)] * len(a)
        # the vectors are independent, so they span the whole kernel
        assert oracle_rank(kernel) == len(kernel)


def test_rank_matches_oracle():
    for rng, a in cases(13):
        reducer = linalg.SpanReducer(sparse(a))
        assert len(reducer.echelon) == len(reducer.basis()) == oracle_rank(a)


@pytest.mark.parametrize("seed", [14, 15])
def test_span_reducer_gives_canonical_representatives(seed):
    for rng, basis in cases(seed):
        n = len(basis[0])
        reducer = linalg.SpanReducer(sparse(basis))
        span_rank = oracle_rank(basis)
        for _ in range(3):
            v = [Q(rng.randint(-3, 3)) if rng.random() < 0.5 else Q(0) for _ in range(n)]
            r = dense(reducer.reduce(vector(v))[0], n)
            assert dense(reducer.reduce(vector(r))[0], n) == r
            diff = [x - y for x, y in zip(r, v)]
            assert oracle_rank(basis + [diff]) == span_rank
            coeffs = [Q(rng.randint(-2, 2)) for _ in basis]
            shift = [sum((c * row[i] for c, row in zip(coeffs, basis)), Q(0))
                     for i in range(n)]
            assert dense(reducer.reduce(vector([x + s for x, s in zip(v, shift)]))[0], n) == r


def test_span_reducer_on_empty_span():
    v = {0: Q(1), 2: Q(-2)}
    reducer = linalg.SpanReducer([])
    assert reducer.reduce(v) == (v, {})
    assert reducer.kernel() == [] and reducer.basis() == []


@pytest.mark.parametrize("seed", [21, 22])
def test_rref_matches_reference(seed):
    for rng, a, rows, cols in shapes(seed):
        red, pivots = ref.rref(a)
        echelon, built, dependent = linalg.rref(sparse(a))
        assert sorted(echelon) == pivots
        assert len(built) + len(dependent) == rows
        basis = linalg.SpanReducer(sparse(a)).basis()
        assert [dense(row, cols) for row in basis] == red[:len(pivots)]


@pytest.mark.parametrize("seed", [23, 24])
def test_solve_matches_reference(seed):
    for rng, a, rows, cols in shapes(seed):
        reducer = linalg.SpanReducer(columns(a, cols))
        for _ in range(3):
            b = random_rhs(rng, a, rows, cols)
            expected = ref.solve(a, b, cols)
            residual, multiples = reducer.reduce(vector(b))
            if expected is None:
                assert residual != {}
            else:
                assert residual == {}
                assert dense(reducer.combination(multiples), cols) == expected


@pytest.mark.parametrize("seed", [31, 32])
def test_combination_equals_the_full_walk(seed):
    # larger, sparser systems than ``shapes``, so that a combination reaches
    # only some of the rows built; the dict is compared with its order
    rng = random.Random(seed)
    for _ in range(30):
        rows, cols = rng.randint(1, 30), rng.randint(1, 30)
        a = random_matrix(rng, rows, cols, rng.choice((0.05, 0.1, 0.3)))
        reducer = linalg.SpanReducer(sparse(a))
        for _ in range(5):
            leads = [lead for lead, _, _ in reducer.built]
            multiples = {p: Q(rng.randint(-3, 3) or 1, rng.randint(1, 2))
                         for p in rng.sample(leads, rng.randint(0, len(leads)))}
            got = reducer.combination(multiples)
            assert list(got.items()) == list(ref.combination(reducer, multiples).items())
            # the coefficients reach the vector the multiples stand for
            target = [Q(0)] * cols
            for p, f in multiples.items():
                for c, v in reducer.echelon[p].items():
                    target[c] += f * v
            assert apply([list(col) for col in zip(*a)], dense(got, rows)) == target


@pytest.mark.parametrize("seed", [25, 26])
def test_kernel_matches_reference(seed):
    for rng, a, rows, cols in shapes(seed):
        kernel = linalg.SpanReducer(columns(a, cols)).kernel()
        assert [dense(k, cols) for k in kernel] == ref.nullspace(a, cols)


@pytest.mark.parametrize("seed", [27, 28])
def test_reduce_matches_reference(seed):
    for rng, basis, rows, cols in shapes(seed):
        reducer = linalg.SpanReducer(sparse(basis))
        zero_columns = [c for c in range(cols) if not any(row[c] for row in basis)]
        for _ in range(3):
            v = [Q(rng.randint(-3, 3)) if rng.random() < 0.3 else Q(0) for _ in range(cols)]
            if zero_columns:
                v[rng.choice(zero_columns)] = Q(5)
            residual, _ = reducer.reduce(vector(v))
            assert dense(residual, cols) == ref.reduce(basis, v)
            for c in zero_columns:
                assert residual.get(c, Q(0)) == v[c]


def test_empty_rows_are_all_dependent():
    reducer = linalg.SpanReducer([[], [], []])
    assert reducer.kernel() == [{0: Q(1)}, {1: Q(1)}, {2: Q(1)}]
    assert reducer.basis() == [] and reducer.echelon == {}
    assert reducer.reduce({4: Q(2)}) == ({4: Q(2)}, {})
