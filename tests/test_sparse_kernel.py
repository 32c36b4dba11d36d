"""The sparse matrix layer and the sparse Cech kernel against dense references.

Transition matrices are sparse columns; the sheaf constructions, transport,
frame maps, the theta pairing and the Laurent inverse visit only nonzero
entries, and cochains store only nonzero frames; ``dense_reference`` keeps
the entry-by-entry versions on dense rows and component lists they must
agree with.  Cochains built through the trusted constructor branch must equal the
same data passed through the checking constructor.
"""

import os
import random
import time
from collections import Counter
from functools import cache
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as dense
import supercech
from conftest import corpus_path, invert_rows, load_model, perfbench_models
from supercech.cech import CechCochain, cech_delta, cup_product
from supercech.errors import CocycleError, SupercechError
from supercech.laurent import LaurentPoly, Q
from supercech.modelfile import parse_model_text
from supercech.obstruction import tangent_spec
from supercech.secondary import _hom_frames, _theta_pairing_matrix, filtration_of
from supercech.sheaf import (SheafSpec, columns_of, diagonal_block, frames_leak,
                             invert_laurent_matrix, rows_of, sheaf_dual,
                             sheaf_exterior_power, sheaf_hom, sheaf_tensor)

PROPERTY = settings(max_examples=15)


@cache
def corpus_sheaves():
    """Every sheaf of the corpus: declared sheaves, the specs of each gt model
    and the odd spec of every gluing that reduces."""
    out = []
    for name in sorted(os.listdir(os.path.dirname(str(corpus_path("split_p1.model"))))):
        if not name.endswith(".model"):
            continue
        doc = load_model(name)
        out.extend(doc.sheaves.values())
        for m in doc.gt_models.values():
            out.extend([m.fiber_spec, m.base_spec, m.total_odd, m.theta.sheaf])
        if doc.gluing is not None:
            try:
                out.append(doc.gluing.reduce()[1])
            except SupercechError:
                pass  # corrupt_sign is not a valid gluing
    return out


@cache
def transport_specs():
    """The corpus sheaves, their tensor, hom, dual and exterior-power specs,
    and the filtration pieces of gt_model_p1."""
    base = [s for s in corpus_sheaves() if s.rank]
    out = list(base)
    for a in base:
        out.append(sheaf_dual(a))
        out.extend(sheaf_exterior_power(a, k) for k in range(2, a.rank + 1))
        for b in base:
            if a.same_cover(b) and a.rank * b.rank <= 36:
                out.extend([sheaf_tensor(a, b), sheaf_hom(a, b)])
    (m,) = load_model("gt_model_p1.model").gt_models.values()
    for level in range(1, m.total_odd.rank + 1):
        filt = filtration_of(m, level)
        out.extend(diagonal_block(filt.ambient, sel)
                   for sel in [*filt.pieces.values(), *filt.graded.values()])
    return [s for s in out if s.rank]


def polys(vars):
    """Laurent polynomials over ``vars`` with a few small terms, zero often."""
    term = st.tuples(st.tuples(*[st.integers(-2, 2) for _ in vars]),
                     st.fractions(-3, 3, max_denominator=3))
    return st.one_of(st.just(LaurentPoly.zero(vars)),
                     st.dictionaries(st.tuples(*[st.integers(-2, 2) for _ in vars]),
                                     st.fractions(-3, 3, max_denominator=3),
                                     max_size=3).map(lambda t: LaurentPoly(vars, t)),
                     term.map(lambda t: LaurentPoly.monomial(vars, t[1], t[0])))


def regular_polys(vars):
    return st.dictionaries(st.tuples(*[st.integers(0, 2) for _ in vars]),
                           st.fractions(-3, 3, max_denominator=3),
                           max_size=2).map(lambda t: LaurentPoly(vars, t))


def cochains(data, spec, degree):
    cover = spec.space.cover
    keys = ([(n,) for n in cover.order] if degree == 0
            else list(cover.canonical_overlaps()))
    draw = regular_polys if degree == 0 else polys
    return CechCochain(spec, degree, {
        k: [data.draw(draw(cover.chart(k[0]).vars)) for _ in range(spec.rank)]
        for k in keys})


def frames_of(vector):
    """The frame map of a dense component list."""
    return {f: p for f, p in enumerate(vector) if p.terms}


def dense_list(frames, vars, rank):
    zero = LaurentPoly.zero(vars)
    return [frames.get(f, zero) for f in range(rank)]


# ---------------------------------------------------------------- transport


def random_poly(rng, vars):
    """Zero half the time, else up to three terms with small exponents."""
    if rng.random() < 0.5:
        return LaurentPoly.zero(vars)
    return LaurentPoly(vars, {tuple(rng.randint(-2, 2) for _ in vars):
                              Q(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(rng.randint(1, 3))})


@settings(PROPERTY, max_examples=5)
@given(st.integers(0, 2 ** 32))
def test_transport_equals_dense_product_on_every_overlap(seed):
    rng = random.Random(seed)
    specs = transport_specs()
    assert len(specs) > 100
    for spec in specs:
        cover = spec.space.cover
        for frm, to in cover.overlaps:
            vector = [random_poly(rng, cover.chart(frm).vars) for _ in range(spec.rank)]
            moved = spec.transport(frm, to, frames_of(vector))
            assert all(p.terms for p in moved.values())
            assert dense_list(moved, cover.chart(to).vars, spec.rank) == \
                dense.transport(spec, frm, to, vector)


def is_sparse_columns(m, rank):
    """``rank`` columns, each the (row, entry) pairs of its nonzero entries
    with rows increasing."""
    return type(m) is tuple and len(m) == rank and all(
        type(col) is tuple and all(e.terms for _, e in col)
        and [i for i, _ in col] == sorted({i for i, _ in col})
        and all(0 <= i < rank for i, _ in col) for col in m)


def re_expressed(spec, chart, key):
    """The dense matrix of ``key`` with every entry moved to ``chart``."""
    vars = spec.space.cover.chart(chart).vars
    m = dense.matrices(spec)[key]
    if chart == key[0]:
        return m
    return [[spec.space.compose_into(chart, key[0], e) if e.terms else LaurentPoly.zero(vars)
             for e in row] for row in m]


def test_nonzero_patterns_match_the_dense_matrices():
    for spec in transport_specs():
        for frm, to in spec.space.cover.overlaps:
            assert is_sparse_columns(spec.matrices[(frm, to)], spec.rank)
            for chart in (frm, to):
                columns = spec._matrix_in(chart, (frm, to))
                assert spec._matrix_in(chart, (frm, to)) is columns
                assert is_sparse_columns(columns, spec.rank)
                assert rows_of(columns, spec.space.cover.chart(chart).vars) == \
                    re_expressed(spec, chart, (frm, to))


@settings(PROPERTY, max_examples=3)
@given(st.integers(0, 2 ** 32))
def test_column_constructions_equal_the_dense_references(seed):
    rng = random.Random(seed)
    specs = transport_specs()
    assert len(specs) > 100
    leaks = Counter()
    for spec in specs:
        n = spec.rank
        cover = spec.space.cover
        D = dense.matrices(spec)
        # the dual's matrices are the transposed inverses, and each inverse is
        # the partner matrix re-expressed
        dual = {}
        for a, b in cover.overlaps:
            inv = re_expressed(spec, a, (b, a))
            assert rows_of(spec.inverse(a, b), cover.chart(a).vars) == inv
            assert dense.mat_mul(D[(a, b)], inv) == dense.identity_matrix(n, cover.chart(a).vars)
            dual[(a, b)] = dense.mat_transpose(inv)
        assert dense.matrices(sheaf_dual(spec)) == dual
        other = rng.choice(partners(spec))
        O = dense.matrices(other)
        assert dense.matrices(sheaf_tensor(spec, other)) == \
            {key: dense.kron(D[key], O[key]) for key in D}
        assert dense.matrices(sheaf_hom(other, spec)) == \
            {key: dense.kron(D[key], dense.mat_transpose(re_expressed(other, key[0], key[::-1])))
             for key in D}
        if n <= 6:
            k = rng.randint(0, n + 1)
            wedge = sheaf_exterior_power(spec, k)
            assert is_sparse_columns(wedge.matrices[next(iter(D))], wedge.rank)
            if 0 < k <= n:
                assert dense.matrices(wedge) == {key: minors(m, k) for key, m in D.items()}
        frames = rng.sample(range(n), rng.randint(1, n))
        block = diagonal_block(spec, frames)
        assert all(is_sparse_columns(m, len(frames)) for m in block.matrices.values())
        assert dense.matrices(block) == dense.diagonal_block(spec, frames)
        leak = frames_leak(spec, frames)
        assert leak == dense.frames_leak(spec, frames)
        leaks[leak is None] += 1
    # both outcomes occur, so the first leak is compared as well
    assert leaks[True] and leaks[False]


def minors(m, k):
    """The k-th compound of the dense matrix ``m``: every k x k minor."""
    idxs = list(combinations(range(len(m)), k))
    return [[dense.laurent_det([[m[r][c] for c in J] for r in I]) for J in idxs] for I in idxs]


def test_rank_nine_exterior_powers_equal_the_minors_and_stay_inverse():
    doc = parse_model_text(perfbench_models().gt_model(random.Random(1), 8, 8))
    (model,) = doc.gt_models.values()
    spec = model.total_odd
    assert spec.rank == 9
    D = dense.matrices(spec)
    for k in range(spec.rank + 1):
        wedge = sheaf_exterior_power(spec, k)
        # by Cauchy-Binet the powers of inverse matrices are inverse, and
        # the checking constructor multiplies every pair
        SheafSpec(spec.space, wedge.rank, wedge.matrices, check=True)
        if k in (2, 4, 9):
            assert dense.matrices(wedge) == {key: minors(m, k) for key, m in D.items()}


# --------------------------------------------------------------- frame maps


@cache
def frame_specs():
    (m,) = load_model("gt_model_p1.model").gt_models.values()
    return m, [m.total_odd, sheaf_hom(m.fiber_spec, m.total_odd),
               filtration_of(m, 2).ambient]


@PROPERTY
@given(st.data())
def test_restrict_and_extend_equal_the_selection_matrix_maps(data):
    m, specs = frame_specs()
    spec = data.draw(st.sampled_from(specs))
    n = spec.rank
    frames = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    block = diagonal_block(spec, frames)
    degree = data.draw(st.integers(0, 1))
    c = cochains(data, spec, degree)
    assert c.restrict(frames, block) == \
        dense.map_cochain(c, dense.selection_matrix(frames, n), block)
    small = cochains(data, block, degree)
    assert small.extend(frames, spec) == \
        dense.map_cochain(small, dense.mat_transpose(dense.selection_matrix(frames, n)), spec)
    # frames of hom(P, X) over frames of X: kron(selection, identity)
    P = m.fiber_spec
    hom, hom_block = sheaf_hom(P, spec), sheaf_hom(P, block)
    h = cochains(data, hom, degree)
    projection = dense.kron(dense.selection_matrix(frames, n), dense.identity_matrix(P.rank))
    assert h.restrict(_hom_frames(frames, P.rank), hom_block) == \
        dense.map_cochain(h, projection, hom_block)


@PROPERTY
@given(st.data())
def test_sparse_map_equals_the_dense_map(data):
    _, specs = frame_specs()
    spec = data.draw(st.sampled_from(specs))
    c = cochains(data, spec, data.draw(st.integers(0, 1)))
    target = data.draw(st.sampled_from(specs))
    matrix = [[data.draw(st.sampled_from([Q(0), Q(0), Q(1), Q(-2, 3)]))
               for _ in range(spec.rank)] for _ in range(target.rank)]
    columns = [[(i, row[j]) for i, row in enumerate(matrix) if row[j]]
               for j in range(spec.rank)]
    assert c.map(columns, target) == dense.map_cochain(c, matrix, target)


def test_sparse_theta_pairing_equals_the_dense_matrix():
    for n in range(1, 4):
        for q in range(1, 4):
            m = SimpleNamespace(base_rank=n, fiber_rank=q)
            for a in range(1, q + 1):
                for b in range(n):
                    for rank_p in (1, 2):
                        for sign in (1, -1):
                            columns = _theta_pairing_matrix(m, a, b, rank_p, sign)
                            want = dense.theta_pairing_matrix(n, q, a, b, rank_p, sign)
                            assert len(columns) == len(want[0])
                            got = [[Q(0)] * len(want[0]) for _ in want]
                            for j, col in enumerate(columns):
                                assert [i for i, _ in col] == sorted({i for i, _ in col})
                                for i, v in col:
                                    assert v != 0
                                    got[i][j] = v
                            assert got == want


# --------------------------------------------------------- trusted cochains


def stores_nonzero_frames_only(c):
    return all(type(v) is dict and all(0 <= f < c.sheaf.rank and p.terms for f, p in v.items())
               for v in c.sections.values())


def rebuilt(c):
    """``c``'s dense sections passed through the checking constructor:
    equal, keys in the same (canonical) order."""
    again = CechCochain(c.sheaf, c.degree, dense.dense(c))
    assert list(again.sections) == list(c.sections)
    assert stores_nonzero_frames_only(c)
    return again


@PROPERTY
@given(st.data())
def test_trusted_cochains_equal_checked_rebuilds(data):
    _, specs = frame_specs()
    three = load_model("split_p1_three_charts.model").gluing.reduce()[1]
    spec = data.draw(st.sampled_from(specs + [three]))
    degree = data.draw(st.integers(0, 1))
    u, v = cochains(data, spec, degree), cochains(data, spec, degree)
    n = spec.rank
    frames = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    block = diagonal_block(spec, frames)
    results = [u + v, u - v, -u, u.scale(Q(-3, 2)), u.scale(0), cech_delta(u),
               u.restrict(frames, block), u.restrict(frames, block).extend(frames, spec),
               u.map([[(j, Q(j + 1))] for j in range(n)], spec),
               cup_product(u, cochains(data, three if spec is three else specs[0], 0))]
    for r in results:
        assert rebuilt(r) == r


@cache
def partners(spec):
    """Specs of rank at most 3 among the transport specs on ``spec``'s cover:
    right factors of cup products."""
    return [s for s in transport_specs() if s.rank <= 3 and s.same_cover(spec)]


def random_cochain(rng, spec, degree):
    """Dense random sections through the checking constructor; degree-0
    sections are chart-regular."""
    cover = spec.space.cover
    keys = ([(n,) for n in cover.order] if degree == 0
            else list(cover.canonical_overlaps()))
    sections = {}
    for k in keys:
        vars = cover.chart(k[0]).vars
        vec = [random_poly(rng, vars) for _ in range(spec.rank)]
        if degree == 0:
            vec = [LaurentPoly(vars, {e: c for e, c in p.terms.items() if min(e) >= 0})
                   for p in vec]
        sections[k] = vec
    return CechCochain(spec, degree, sections)


@settings(PROPERTY, max_examples=3)
@given(st.integers(0, 2 ** 32))
def test_frame_map_operations_equal_the_dense_reference(seed):
    rng = random.Random(seed)
    for spec in transport_specs():
        n = spec.rank
        degree = rng.randint(0, 1)
        u, v = random_cochain(rng, spec, degree), random_cochain(rng, spec, degree)
        frames = rng.sample(range(n), rng.randint(1, n))
        small = u.restrict(frames, diagonal_block(spec, frames))
        matrix = [[Q(0)] * n for _ in range(n)]
        columns = [[] for _ in range(n)]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if not matrix[i][j]:
                matrix[i][j] = Q(rng.choice([1, -2]), rng.choice([1, 3]))
                columns[j].append((i, matrix[i][j]))
        for col in columns:
            col.sort()
        w = random_cochain(rng, rng.choice(partners(spec)), rng.randint(0, 1))
        checks = {
            "delta": (cech_delta(u), dense.delta(u)),
            "sum": (u + v, dense.combine(u, v, 1)),
            "difference": (u - v, dense.combine(u, v, -1)),
            "scale": (u.scale(Q(-1, 2)), {k: [p.scale(Q(-1, 2)) for p in vec]
                                          for k, vec in dense.dense(u).items()}),
            "restrict": (small, dense.restrict(u, frames)),
            "extend": (small.extend(frames, spec), dense.extend(small, frames, n)),
            "map": (u.map(columns, spec), dense.dense(dense.map_cochain(u, matrix, spec))),
            "cup": (cup_product(u, w), dense.cup_product(u, w)),
        }
        for name, (got, want) in checks.items():
            assert stores_nonzero_frames_only(got), name
            assert dense.dense(got) == want, name
        if degree == 0:
            cover = spec.space.cover
            for frm, to in cover.overlaps:
                moved = spec.transport(frm, to, u.sections[(frm,)])
                assert all(p.terms for p in moved.values())
                assert dense_list(moved, cover.chart(to).vars, n) == \
                    dense.transport(spec, frm, to, u.section(frm))


def test_dual_reads_the_partner_matrices():
    for spec in transport_specs():
        dual = sheaf_dual(spec)
        for key, m in dense.matrices(spec).items():
            assert dense.matrices(dual)[key] == dense.mat_transpose(invert_rows(m))
    # an unchecked spec whose partner matrices are not inverse
    space = load_model("split_p1.model").gluing.reduce()[0]
    mats = {(a, b): columns_of([[LaurentPoly.monomial(space.cover.chart(a).vars, 1, (e,))]])
            for (a, b), e in ((("U0", "U1"), 2), (("U1", "U0"), -1))}
    with pytest.raises(CocycleError, match=r"\(U0,U1\) and \(U1,U0\) are not inverse"):
        sheaf_dual(SheafSpec(space, 1, mats, check=False))


def gluing_data():
    """Every corpus gluing and gauged models of odd rank 4-6."""
    out = []
    for name in sorted(os.listdir(os.path.dirname(str(corpus_path("split_p1.model"))))):
        if name.endswith(".model"):
            out.append(load_model(name).gluing)
    models, rng = perfbench_models(), random.Random(2)
    for q in (4, 5, 6):
        for planted in (False, True):
            out.append(parse_model_text(models.gauged_model(supercech, rng, q, planted)).gluing)
    return out


def test_odd_bundle_and_tangent_matrices_equal_the_dense_references():
    reduced = 0
    for g in gluing_data():
        try:
            space, odd = g.reduce()
        except SupercechError:
            continue  # corrupt_sign is not a valid gluing
        reduced += 1
        tangent = tangent_spec(space)
        for key, t in g.transitions.items():
            assert odd.matrices[key] == columns_of(dense.odd_matrix(t))
            assert tangent.matrices[key] == columns_of(dense.jacobian(space, *key))
    assert reduced == 13


# ------------------------------------------------------------ Laurent inverse


X = ("x", "y")


def laurent_matrices(n):
    entry = st.one_of(
        st.just(LaurentPoly.zero(X)),
        st.builds(lambda c, e: LaurentPoly.monomial(X, c, e),
                  st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2)]),
                  st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def unimodular_matrices(draw, n):
    """Monomial diagonal times elementary row operations: the determinant is
    a monomial, so the inverse exists."""
    m = [[draw(laurent_matrices(1))[0][0] if i == j else LaurentPoly.zero(X)
          for j in range(n)] for i in range(n)]
    for i in range(n):
        if m[i][i].is_zero():
            m[i][i] = LaurentPoly.const(X, 1)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            f = draw(laurent_matrices(1))[0][0]
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda n: st.one_of(laurent_matrices(n),
                                                     unimodular_matrices(n))))
def test_inverse_equals_the_cofactor_reference(matrix):
    got = invert_laurent_matrix(columns_of(matrix), X)
    want = dense.invert_laurent_matrix(matrix)
    if got is None:
        assert want is None
    else:
        assert is_sparse_columns(got, len(matrix))
        assert rows_of(got, X) == want
        assert dense.mat_mul(matrix, want) == dense.identity_matrix(len(matrix), X)


def test_inverse_of_a_singular_or_non_monomial_matrix_is_none():
    x = LaurentPoly.var(X, "x")
    one = LaurentPoly.const(X, 1)
    assert invert_rows([[x, x], [x, x]]) is None
    assert invert_rows([[x + one, one], [one, one]]) is not None   # det x
    assert invert_rows([[x + one, one], [one, x]]) is None         # det x^2 + x - 1
    assert invert_laurent_matrix(((), ()), X) is None              # det 0
    assert invert_laurent_matrix((), X) == ()


def test_dense_eight_by_eight_inverse_is_fast():
    # an upper unitriangular matrix of all-nonzero entries times its
    # transpose: every entry nonzero, determinant 1
    n = 8
    upper = [[LaurentPoly.const(X, 1 if i == j else (i + 2 * j) % 5 + 1) if j >= i
              else LaurentPoly.zero(X) for j in range(n)] for i in range(n)]
    A = dense.mat_mul(upper, dense.mat_transpose(upper))
    assert all(not e.is_zero() for row in A for e in row)
    t0 = time.process_time()
    inv = invert_rows(A)
    assert time.process_time() - t0 < 1
    assert dense.mat_mul(A, inv) == dense.identity_matrix(n, X)
