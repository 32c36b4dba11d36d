"""Exact linear algebra against an independent rank oracle.

Matrices are seeded, sparse, rational and include zero rows and columns.
The oracle below eliminates with its own pivot rule, so these properties
hold for any correct implementation of ``linalg``, not just this one.
"""

import random
from fractions import Fraction as Q

import pytest

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


def test_solve_matches_rank_oracle():
    for rng, a in cases(11):
        cols = len(a[0])
        if rng.random() < 0.5:
            b = apply(a, [Q(rng.randint(-2, 2)) for _ in range(cols)])
        else:
            b = [Q(rng.randint(-2, 2)) if rng.random() < 0.4 else Q(0) for _ in a]
        consistent = oracle_rank(a) == oracle_rank([row + [v] for row, v in zip(a, b)])
        x = linalg.solve(a, b)
        if consistent:
            assert x is not None and len(x) == cols
            assert apply(a, x) == b
        else:
            assert x is None


def test_nullspace_is_a_kernel_basis():
    for rng, a in cases(12):
        cols = len(a[0])
        kernel = linalg.nullspace(a)
        assert len(kernel) == cols - oracle_rank(a)
        for v in kernel:
            assert apply(a, v) == [Q(0)] * len(a)
        # the vectors are independent, so they span the whole kernel
        assert oracle_rank(kernel) == len(kernel)


def test_rank_matches_oracle():
    for rng, a in cases(13):
        assert linalg.rank(a) == oracle_rank(a)


@pytest.mark.parametrize("seed", [14, 15])
def test_span_reducer_gives_canonical_representatives(seed):
    for rng, basis in cases(seed):
        n = len(basis[0])
        reducer = linalg.SpanReducer(basis)
        span_rank = oracle_rank(basis)
        for _ in range(3):
            v = [Q(rng.randint(-3, 3)) if rng.random() < 0.5 else Q(0) for _ in range(n)]
            r = reducer.reduce(v)
            assert reducer.reduce(r) == r
            diff = [x - y for x, y in zip(r, v)]
            assert oracle_rank(basis + [diff]) == span_rank
            coeffs = [Q(rng.randint(-2, 2)) for _ in basis]
            shift = [sum((c * row[i] for c, row in zip(coeffs, basis)), Q(0))
                     for i in range(n)]
            assert reducer.reduce([x + s for x, s in zip(v, shift)]) == r


def test_span_reducer_on_empty_span():
    assert linalg.SpanReducer([]).reduce([Q(1), Q(0), Q(-2)]) == [Q(1), Q(0), Q(-2)]
