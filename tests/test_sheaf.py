import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from supercech.cech import (CechCochain, cech_delta, cohomology_basis, extension_sheaf,
                            is_coboundary)
from supercech.cli import main
from supercech.errors import CocycleError
from supercech.laurent import LaurentPoly
from supercech.sheaf import (SheafSpec, columns_of, diagonal_block, filtration, kron,
                             rows_of, sheaf_dual, sheaf_exterior_power, sheaf_hom,
                             sheaf_spec, sheaf_tensor, trivial_spec)

import dense_reference as dense
from conftest import corpus_path, invert_rows, line_bundle
from dense_reference import hom_unflatten, identity_matrix, mat_mul, matrices


def entry(spec, key=("U0", "U1")):
    return matrices(spec)[key][0][0]


def test_dual_inverts_matrices(p1_space, nonsplit_p1):
    _, odd = nonsplit_p1.reduce()
    dual = matrices(sheaf_dual(odd))
    assert str(dual[("U0", "U1")][0][0]) == "x^2"
    assert str(dual[("U0", "U1")][1][1]) == "x^2"


def test_exterior_square_is_determinant(nonsplit_p1):
    _, odd = nonsplit_p1.reduce()
    wedge = sheaf_exterior_power(odd, 2)
    assert wedge.rank == 1
    assert str(entry(wedge)) == "x^-4"
    assert sheaf_exterior_power(odd, 3).rank == 0
    assert sheaf_exterior_power(odd, 0).rank == 1


def test_tensor_and_hom_line_bundles(p1_space):
    o2 = line_bundle(p1_space, 2)
    om4 = line_bundle(p1_space, -4)
    tensor = sheaf_tensor(o2, om4)
    assert str(entry(tensor)) == "x^2"          # O(-2)
    hom = sheaf_hom(om4, o2)
    assert str(entry(hom)) == "x^-6"            # hom(O(-4), O(2)) = O(6)
    hom2 = sheaf_hom(o2, om4)
    assert str(entry(hom2)) == "x^6"            # hom(O(2), O(-4)) = O(-6)
    om2 = line_bundle(p1_space, -2)
    hom3 = sheaf_hom(om2, om4)
    assert str(entry(hom3)) == "x^2"            # hom(O(-2), O(-4)) = O(-2)
    from supercech.cech import cohomology_basis
    assert len(cohomology_basis(hom3, 1)) == 1


def test_hom_transport_rule(p1_space, nonsplit_p1):
    _, odd = nonsplit_p1.reduce()
    hom = sheaf_hom(odd, odd)
    # the identity section is global: transporting it changes nothing
    vars0 = p1_space.cover.chart("U0").vars
    flat = {3 * i: LaurentPoly.const(vars0, 1) for i in range(2)}   # frames (0,0), (1,1)
    moved = hom.transport("U0", "U1", flat)
    vars1 = p1_space.cover.chart("U1").vars
    assert moved == {3 * i: LaurentPoly.const(vars1, 1) for i in range(2)}


def test_exterior_power_functorial(split_three_charts):
    _, odd = split_three_charts.reduce()
    wedge = sheaf_exterior_power(odd, 2)
    # constructor-level verification of inverse and triple conditions
    SheafSpec(wedge.space, wedge.rank, wedge.matrices)


def test_extension_zero_cocycle_is_direct_sum(p1_space):
    sub = trivial_spec(p1_space, 1)
    quot = line_bundle(p1_space, 2)
    hom = sheaf_hom(quot, sub)
    zero = CechCochain(hom, 1)
    ext = extension_sheaf(sub, quot, zero)
    m = matrices(ext)[("U0", "U1")]
    assert m[0][1].is_zero() and m[1][0].is_zero()


def test_extension_nontrivial_class(p1_space):
    sub = trivial_spec(p1_space, 1)
    quot = line_bundle(p1_space, 2)    # matrix x^-2
    hom = sheaf_hom(quot, sub)         # matrix x^2
    vars0 = p1_space.cover.chart("U0").vars
    coc = CechCochain(hom, 1, {("U0", "U1"): [LaurentPoly.monomial(vars0, 1, (-1,))]})
    ext = extension_sheaf(sub, quot, coc)
    assert diagonal_block(ext, [0]) is sub
    ok, rep = is_coboundary(coc)
    assert not ok
    assert str(rep.sections[("U0", "U1")][0]) == "x^-1"


def test_extension_rejects_non_cocycle(split_three_charts):
    space, odd = split_three_charts.reduce()
    sub = trivial_spec(space, 1)
    quot = sheaf_exterior_power(odd, 2)
    hom = sheaf_hom(quot, sub)
    vars0 = space.cover.chart("U0").vars
    # supported on a single edge of the declared triple: not a cocycle
    bad = CechCochain(hom, 1, {("U0", "U1"): [LaurentPoly.monomial(vars0, 1, (-1,))]})
    with pytest.raises(CocycleError):
        extension_sheaf(sub, quot, bad)


# ------------------------------------------------------------ gauge oracle


def extension_gauge(sub, quot, witness):
    """Chartwise block-unipotent gauge [[I, w_alpha],[0, I]] built from a
    0-cochain witness relating two cohomologous extension cocycles."""
    cover = sub.space.cover
    out = {}
    for name in cover.order:
        w = hom_unflatten(witness.section(name), sub.rank, quot.rank)
        g = identity_matrix(sub.rank + quot.rank, cover.chart(name).vars)
        for i in range(sub.rank):
            g[i][sub.rank:] = w[i]
        out[name] = g
    return out


def specs_gauge_equivalent(spec1, spec2, gauges):
    """Check spec2 = g_b . spec1 . g_a^{-1} on every overlap."""
    m1, m2 = matrices(spec1), matrices(spec2)
    for (a, b) in spec1.space.cover.overlaps:
        ga_inv = invert_rows(gauges[a])
        gb = [[spec1.space.compose_into(a, b, e) for e in row] for row in gauges[b]]
        if mat_mul(gb, mat_mul(m1[(a, b)], ga_inv)) != m2[(a, b)]:
            return False
    return True


def split_bundle(space, degrees):
    """O(n_1) + ... + O(n_r) on the two-chart projective line."""
    mats = {}
    for (a, b) in space.cover.overlaps:
        vars = space.cover.chart(a).vars
        mats[(a, b)] = columns_of([[LaurentPoly.monomial(vars, 1, (-n,)) if i == j
                                    else LaurentPoly.zero(vars)
                                    for j, n in enumerate(degrees)] for i in range(len(degrees))])
    return SheafSpec(space, len(degrees), mats)


COEFFICIENTS = st.sampled_from([Q(1), Q(-1), Q(2), Q(-1, 2)])


@st.composite
def extension_data(draw):
    """Degrees of two split bundles of rank 1-2 on the projective line, the
    entries of a hom(quot, sub) 1-cocycle on the first overlap and of a
    0-cochain witness on each chart: each entry is zero (None) or one
    (coefficient, exponent) monomial.  Witness entries are regular on their
    chart, so the gauge is an isomorphism."""
    degrees = st.lists(st.integers(-2, 2), min_size=1, max_size=2)
    sub, quot = draw(degrees), draw(degrees)
    n = len(sub) * len(quot)

    def entries(exponents):
        return st.lists(st.one_of(st.none(), st.tuples(COEFFICIENTS, exponents)),
                        min_size=n, max_size=n)

    return (sub, quot, draw(entries(st.integers(-3, 3))),
            [draw(entries(st.integers(0, 2))) for _ in range(2)])


@settings(max_examples=15)
@given(extension_data())
@example(([0], [2], [(Q(1), -1)], [[(Q(2), 1)], [None]]))
def test_cohomologous_cocycles_give_gauge_equivalent_extensions(p1_space, data):
    sub_degrees, quot_degrees, cocycle, witnesses = data
    sub, quot = split_bundle(p1_space, sub_degrees), split_bundle(p1_space, quot_degrees)
    hom = sheaf_hom(quot, sub)
    cover = p1_space.cover

    def section(name, entries):
        vars = cover.chart(name).vars
        return [LaurentPoly.zero(vars) if e is None else LaurentPoly.monomial(vars, e[0], (e[1],))
                for e in entries]

    (a, b) = cover.canonical_overlaps()[0]
    c1 = CechCochain(hom, 1, {(a, b): section(a, cocycle)})
    # add a coboundary
    witness = CechCochain(hom, 0, {(name,): section(name, entries)
                                   for name, entries in zip(cover.order, witnesses)})
    e1 = extension_sheaf(sub, quot, c1)
    e2 = extension_sheaf(sub, quot, c1 + cech_delta(witness))
    assert specs_gauge_equivalent(e1, e2, extension_gauge(sub, quot, witness))
    for degree in (0, 1):
        assert len(cohomology_basis(e1, degree)) == len(cohomology_basis(e2, degree))


def test_filtration_blocks_and_quotients(p1_space):
    sub = trivial_spec(p1_space, 2)
    quot = line_bundle(p1_space, 2)
    hom = sheaf_hom(quot, sub)
    vars0 = p1_space.cover.chart("U0").vars
    coc = CechCochain(hom, 1, {("U0", "U1"): [LaurentPoly.monomial(vars0, 1, (-1,)),
                                              LaurentPoly.zero(vars0)]})
    ext = extension_sheaf(sub, quot, coc)
    for j in range(1, ext.rank + 1):
        filt = filtration(ext, sub, quot, j)
        filt.verify()
    filt = filtration(ext, sub, quot, 2)
    # top piece is the exterior square of the sub factor
    top = diagonal_block(filt.ambient, filt.pieces[2])
    assert top.rank == 1
    expected = sheaf_exterior_power(sub, 2)
    assert top.matrices[("U0", "U1")] == expected.matrices[("U0", "U1")]


# ------------------------------------------------ memoised constructions


def fresh(spec):
    """A spec outside the table with ``spec``'s data, so nothing is derived
    from it yet."""
    return SheafSpec(spec.space, spec.rank, spec.matrices, check=False)


def same_data(x, y):
    return x.rank == y.rank and x.matrices == y.matrices and x.space is y.space


def model_specs(gt_model_doc, split_three_charts):
    (m,) = gt_model_doc.gt_models.values()
    _, odd3 = split_three_charts.reduce()
    return [m.fiber_spec, m.base_spec, m.total_odd, m.theta.sheaf, odd3]


def test_binary_constructions_are_built_once(gt_model_doc, split_three_charts):
    specs = model_specs(gt_model_doc, split_three_charts)
    for a in specs:
        for b in specs:
            if not a.same_cover(b):
                continue
            for build in (sheaf_tensor, sheaf_hom):
                got = build(a, b)
                assert build(a, b) is got
                assert same_data(got, build(fresh(a), fresh(b)))


def test_unary_constructions_are_built_once(gt_model_doc, split_three_charts):
    for a in model_specs(gt_model_doc, split_three_charts):
        assert sheaf_dual(a) is sheaf_dual(a)
        assert same_data(sheaf_dual(a), sheaf_dual(fresh(a)))
        for k in range(a.rank + 2):
            got = sheaf_exterior_power(a, k)
            assert sheaf_exterior_power(a, k) is got
            assert same_data(got, sheaf_exterior_power(fresh(a), k))


def test_memo_keeps_each_operand_apart(p1_space):
    # operands made and dropped one after another may reuse an id; the table
    # holds each one, so every result belongs to its own operand
    a = line_bundle(p1_space, 1)
    X = p1_space.cover.chart("U0").vars
    for n in range(-6, 7):
        assert entry(sheaf_tensor(a, line_bundle(p1_space, n))) == \
            LaurentPoly.monomial(X, 1, (-1 - n,))
        assert entry(sheaf_hom(a, line_bundle(p1_space, n))) == \
            LaurentPoly.monomial(X, 1, (1 - n,))
    keys = [key for key in p1_space.specs if key[0] in ("tensor", "hom") and key[1] is a]
    assert len({id(key[2]) for key in keys}) == 26


def test_commands_build_one_spec_per_content_on_each_space(monkeypatch):
    built = Counter()
    init = SheafSpec.__init__

    def counted(spec, space, rank, matrices, *args, **kwargs):
        init(spec, space, rank, matrices, *args, **kwargs)
        built[(space, rank, tuple(sorted(matrices.items())))] += 1

    monkeypatch.setattr(SheafSpec, "__init__", counted)
    models = sorted(p.name for p in resources.files("supercech.corpus").iterdir()
                    if p.name.endswith(".model"))
    for model in models:
        for command in ("verify", "secondary", "a1-check", "obstruction", "report-all"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                main([command, "--input", str(corpus_path(model))])
    assert built and max(built.values()) == 1


def test_checked_request_verifies_an_unchecked_spec(p1_space):
    X, Y = (p1_space.cover.chart(c).vars for c in ("U0", "U1"))
    # x^-1 and y^-2 are not inverse on the overlap
    mats = {("U0", "U1"): columns_of([[LaurentPoly.monomial(X, 1, (-1,))]]),
            ("U1", "U0"): columns_of([[LaurentPoly.monomial(Y, 1, (-2,))]])}
    spec = sheaf_spec(p1_space, 1, mats)
    assert sheaf_spec(p1_space, 1, dict(mats)) is spec and not spec.checked
    with pytest.raises(CocycleError):
        sheaf_spec(p1_space, 1, mats, check=True)
    assert not spec.checked
    good = sheaf_spec(p1_space, 1, line_bundle(p1_space, 3).matrices)
    assert sheaf_spec(p1_space, 1, good.matrices, check=True) is good and good.checked


def test_transported_matrices_are_cached(gt_model_doc, split_three_charts):
    for spec in model_specs(gt_model_doc, split_three_charts):
        space = spec.space
        for key, m in spec.matrices.items():
            for chart in space.cover.order:
                if chart == key[0] or (chart, key[0]) not in space.coordinate_maps:
                    continue
                got = spec._matrix_in(chart, key)
                assert spec._matrix_in(chart, key) is got
                assert rows_of(got, space.cover.chart(chart).vars) == \
                    [[space.compose_into(chart, key[0], e) for e in row]
                     for row in rows_of(m, space.cover.chart(key[0]).vars)]


def naive_kron(a, b):
    return [[a[i][k] * b[j][l] for k in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for j in range(len(b))]


def test_kron_zero_entries_match_the_naive_product():
    X = ("x",)
    z, one = LaurentPoly.zero(X), LaurentPoly.const(X, 1)
    xm = LaurentPoly.monomial(X, Q(-2, 3), (-1,))
    laurent = [[z, xm], [one, z]]
    rational = [[Q(0), Q(3)], [Q(-1, 2), Q(0)]]
    for a in (laurent, rational):
        for b in (laurent, rational):
            got, want = dense.kron(a, b), naive_kron(a, b)
            assert got == want
            assert [[type(e) for e in row] for row in got] == \
                [[type(e) for e in row] for row in want]
    # the sparse product writes the nonzero entries only
    got = kron(columns_of(laurent), columns_of(laurent))
    assert got == columns_of(naive_kron(laurent, laurent))
    assert rows_of(got, X) == naive_kron(laurent, laurent)


def _rank_one(space, entries):
    """Rank-1 matrices from ``(a, b): (coefficient, exponent)``, each the
    monomial in the first coordinate of chart a."""
    return {(a, b): columns_of([[LaurentPoly.monomial(space.cover.chart(a).vars, c, (e,))]])
            for (a, b), (c, e) in entries.items()}


def _spec_cases(p1_space, three):
    key = ("U0", "U1")
    p1 = _rank_one(p1_space, {key: (1, 2), ("U1", "U0"): (1, 2)})
    x2 = p1[key][0][0][1]
    return {
        "missing": (p1_space, {key: p1[key]}, ValueError,
                    "missing matrix for overlap ('U1', 'U0')"),
        "undeclared": (p1_space, {**p1, ("U0", "U0"): p1[key]}, ValueError,
                       "matrix for ('U0', 'U0'), which is not a declared overlap"),
        "two columns": (p1_space, {**p1, key: p1[key] * 2}, ValueError,
                        "matrix for ('U0', 'U1') is not 1x1"),
        "row out of range": (p1_space, {**p1, key: (((1, x2),),)}, ValueError,
                             "matrix for ('U0', 'U1') is not 1x1"),
        # inverse on every overlap, but x^2 on (U0, U1) and 1 on (U1, U2)
        # do not compose to the 2 on (U0, U2)
        "cocycle": (three, _rank_one(three, {key: (1, 2), ("U1", "U0"): (1, 2),
                                             ("U1", "U2"): (1, 0), ("U2", "U1"): (1, 0),
                                             ("U0", "U2"): (2, 0), ("U2", "U0"): (Q(1, 2), 0)}),
                    CocycleError, "matrix cocycle fails on (U0,U1,U2)"),
    }


@pytest.mark.parametrize("case", ["missing", "undeclared", "two columns", "row out of range",
                                  "cocycle"])
def test_spec_rejects_inconsistent_matrices(p1_space, split_three_charts, case):
    space, mats, error, message = _spec_cases(p1_space, split_three_charts.reduce()[0])[case]
    with pytest.raises(error) as info:
        SheafSpec(space, 1, mats)
    assert str(info.value) == message
