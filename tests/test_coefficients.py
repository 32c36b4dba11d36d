"""The coefficient convention of ``supercech.laurent``: every stored
coefficient is an ``int`` when integral and a ``Fraction`` otherwise, never
a ``float``.  Each operation is compared with a reference that works on
``Fraction`` values only; inputs mix ``int``, integral ``Fraction`` and
proper ``Fraction`` coefficients."""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from supercech import linalg
from supercech.laurent import LaurentPoly
from supercech.spaces import MonomialMap

VARS = ("x", "y")

coefs = st.one_of(st.integers(-6, 6),
                  st.builds(Q, st.integers(-6, 6), st.integers(1, 4)),
                  st.builds(lambda n: Q(2 * n, 2), st.integers(-6, 6)))
exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
term_maps = st.dictionaries(exps, coefs, max_size=5)
polys = term_maps.map(lambda t: LaurentPoly(VARS, t))
nonzero = coefs.filter(lambda c: c != 0)


def well_formed(p: LaurentPoly) -> bool:
    return all(type(c) is int or (type(c) is Q and c.denominator != 1)
               for c in p.terms.values())


def ref(p: LaurentPoly) -> dict:
    return {e: Q(c) for e, c in p.terms.items()}


def ref_add(*parts) -> dict:
    """Sum of ``(scale, terms)`` pairs, zero terms dropped."""
    out = {}
    for s, t in parts:
        for e, c in t.items():
            out[e] = out.get(e, Q(0)) + Q(s) * c
    return {e: c for e, c in out.items() if c}


def ref_mul(t1: dict, t2: dict) -> dict:
    return ref_add(*((c1, {tuple(a + b for a, b in zip(e1, e2)): c2 for e2, c2 in t2.items()})
                     for e1, c1 in t1.items()))


def agrees(p: LaurentPoly, expected: dict) -> bool:
    return well_formed(p) and p.terms == expected


@settings(max_examples=60)
@given(term_maps, coefs)
def test_constructors_normalise(t, c):
    assert agrees(LaurentPoly(VARS, t), ref_add((1, {e: Q(v) for e, v in t.items()})))
    assert agrees(LaurentPoly.const(VARS, c), ref_add((c, {(0, 0): Q(1)})))
    assert agrees(LaurentPoly.monomial(VARS, c, (1, -1)), ref_add((c, {(1, -1): Q(1)})))


@settings(max_examples=60)
@given(polys, polys, coefs, st.integers(0, 3))
def test_arithmetic_keeps_the_convention(p, q, c, n):
    assert agrees(p + q, ref_add((1, ref(p)), (1, ref(q))))
    assert agrees(p - q, ref_add((1, ref(p)), (-1, ref(q))))
    assert agrees(-p, ref_add((-1, ref(p))))
    assert agrees(p * q, ref_mul(ref(p), ref(q)))
    assert agrees(p.scale(c), ref_add((c, ref(p))))
    assert agrees(p * c, ref_add((c, ref(p))))
    power = {(0, 0): Q(1)}
    for _ in range(n):
        power = ref_mul(power, ref(p))
    assert agrees(p ** n, power)


@settings(max_examples=60)
@given(nonzero, exps, st.integers(-4, -1))
def test_negative_powers_of_monomials_are_exact(c, e, n):
    m = LaurentPoly.monomial(VARS, c, e)
    assert agrees(m ** n, {tuple(n * a for a in e): Q(c) ** n})
    assert m * m.inverse() == LaurentPoly.const(VARS, 1)


@settings(max_examples=60)
@given(polys)
def test_context_operations_keep_the_convention(p):
    r = ref(p)
    assert agrees(p.derivative("x"),
                  ref_add((1, {(a - 1, b): a * c for (a, b), c in r.items()})))
    wider = p.with_context(("y", "z", "x"))
    assert wider.vars == ("y", "z", "x")
    assert agrees(wider, {(b, 0, a): c for (a, b), c in r.items()})
    groups = p.split_by(("y",))
    expected = {}
    for (a, b), c in r.items():
        expected.setdefault((b,), {})[(a,)] = c
    assert set(groups) == set(expected)
    for g, poly in groups.items():
        assert poly.vars == ("x",) and agrees(poly, expected[g])


@settings(max_examples=60)
@given(polys, nonzero, nonzero, exps, exps)
def test_monomial_maps_keep_the_convention(p, cx, cy, ex, ey):
    target = ("u", "v")
    images = [LaurentPoly.monomial(target, cx, ex), LaurentPoly.monomial(target, cy, ey)]
    expected = ref_add(*((Q(cx) ** a * Q(cy) ** b * c,
                          {tuple(a * i + b * j for i, j in zip(ex, ey)): Q(1)})
                         for (a, b), c in ref(p).items()))
    assert agrees(MonomialMap(images, target).apply(p), expected)


matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                          min_size=1, max_size=5))


def exact(values) -> bool:
    return all(type(v) in (int, Q) for v in values)


@settings(max_examples=80)
@given(matrices, st.data())
def test_span_reducer_is_the_same_on_int_and_fraction_rows(matrix, data):
    as_int = [[(c, v) for c, v in enumerate(row) if v] for row in matrix]
    as_fraction = [[(c, Q(v)) for c, v in row] for row in as_int]
    vector = {c: v for c, v in enumerate(
        data.draw(st.lists(st.integers(-3, 3), min_size=len(matrix[0]),
                           max_size=len(matrix[0])))) if v}
    r_int, r_frac = linalg.SpanReducer(as_int), linalg.SpanReducer(as_fraction)
    reduced = r_int.reduce(vector)
    assert reduced == r_frac.reduce({c: Q(v) for c, v in vector.items()})
    assert r_int.basis() == r_frac.basis()
    assert r_int.kernel() == r_frac.kernel()
    assert r_int.combination(reduced[1]) == r_frac.combination(reduced[1])
    for vec in [*reduced, *r_int.basis(), *r_int.kernel(), r_int.combination(reduced[1])]:
        assert exact(vec.values())
