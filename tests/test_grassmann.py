import random
from fractions import Fraction as Q
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from supercech.errors import ContextError, SubstitutionError
from supercech.gluing import SuperTransition
from supercech.grassmann import GrassmannElement, Substitution, _collect, _koszul_sign
from supercech.laurent import LaurentPoly
from supercech.spaces import Chart

from conftest import parse, random_grassmann
from dense_reference import grassmann_power, substitute

X = ("x",)


def merge_indices(i1, i2):
    """Reference merge of two increasing multi-indices (the sorted-merge
    form the product used before bitmasks); ``None`` on a repeated
    generator, else the merged index and the sign of the transpositions."""
    if not i1:
        return i2, 1
    if not i2:
        return i1, 1
    if set(i1) & set(i2):
        return None
    merged = []
    sign = 1
    a, b = 0, 0
    while a < len(i1) and b < len(i2):
        if i1[a] < i2[b]:
            merged.append(i1[a])
            a += 1
        else:
            merged.append(i2[b])
            # i2[b] jumps over the remaining entries of i1
            if (len(i1) - a) % 2:
                sign = -sign
            b += 1
    merged.extend(i1[a:])
    merged.extend(i2[b:])
    return tuple(merged), sign


def mask(idx):
    return sum(1 << a for a in idx)


def test_merge_signs():
    assert merge_indices((1,), (2,)) == ((1, 2), 1)
    assert merge_indices((2,), (1,)) == ((1, 2), -1)
    assert merge_indices((1, 3), (2,)) == ((1, 2, 3), -1)
    assert merge_indices((1,), (1,)) is None
    assert _koszul_sign(mask((2,)), mask((1,))) == -1
    assert _koszul_sign(mask((1, 3)), mask((2,))) == -1


def test_bitmask_sign_matches_merge_on_all_subsets():
    subsets = [i for k in range(7) for i in combinations(range(1, 7), k)]
    monomial = {i: GrassmannElement(X, 6, {i: LaurentPoly.const(X, 1)}) for i in subsets}
    for i1 in subsets:
        for i2 in subsets:
            ref = merge_indices(i1, i2)
            product = monomial[i1] * monomial[i2]
            if ref is None:
                assert mask(i1) & mask(i2)
                assert product.is_zero()
            else:
                assert _koszul_sign(mask(i1), mask(i2)) == ref[1]
                assert product == monomial[ref[0]].scale(ref[1])


def test_product_examples():
    t1, t2 = parse("theta_1"), parse("theta_2")
    assert t1 * t2 == parse("theta_1*theta_2")
    assert t2 * t1 == parse("-theta_1*theta_2")
    assert (parse("x*theta_1") * parse("x^-1*theta_1")).is_zero()


def test_parity():
    assert parse("x + theta_1*theta_2").parity() == "even"
    assert parse("theta_1 + x*theta_2").parity() == "odd"
    assert parse("x + theta_1").parity() == "mixed"


def test_odd_derivative_examples():
    t12 = parse("theta_1*theta_2")
    assert t12.odd_derivative(1) == parse("theta_2")
    assert t12.odd_derivative(2) == parse("-theta_1")
    assert parse("x^2*theta_2").odd_derivative(1).is_zero()
    with pytest.raises(ValueError):
        t12.odd_derivative(3)


def test_component_and_truncate():
    e = parse("x + x^2*theta_1 + x^-1*theta_1*theta_2")
    assert e.component(2) == parse("x^-1*theta_1*theta_2")
    assert e.component(1) == parse("x^2*theta_1")
    assert e.truncate(3).is_zero()
    assert parse("theta_1*theta_2").component(1).is_zero()


def test_substitute_taylor():
    e = parse("x^2")
    images = {"x": parse("x + theta_1*theta_2")}
    odd = {1: parse("theta_1"), 2: parse("theta_2")}
    assert e.substitute(Substitution(images, odd, X, 2)) == parse("x^2 + 2*x*theta_1*theta_2")


def test_substitute_odd_resorting():
    e = parse("theta_1*theta_2")
    out = e.substitute(Substitution({"x": parse("x")},
                                  {1: parse("x*theta_2"), 2: parse("theta_1")}, X, 2))
    assert out == parse("-x*theta_1*theta_2")


def test_substitute_pole_and_unsupported():
    e = parse("x^-1")
    with pytest.raises(SubstitutionError):
        e.substitute(Substitution({"x": parse("x + 1")},
                                  {1: parse("theta_1"), 2: parse("theta_2")}, X, 2))


# A lone coordinate x, t or theta_a substitutes to its image; 2*x, x^-1 and
# x*theta_1 are not lone coordinates and differ from every image.

LONE_VARS, LONE_Q = ("x", "t"), 3
NEAR_IDENTITY = ({"x": "x - 2*x^3*theta_1*theta_2", "t": "t"},
                 {1: "theta_1", 2: "theta_2 + x*t^-1*theta_1*theta_2*theta_3", 3: "theta_3"})
GENERAL = ({"x": "3*x^-1 + x*theta_2*theta_3", "t": "t - t^2*theta_1*theta_3"},
           {1: "2*theta_2 + x*theta_1", 2: "-theta_1 + t*theta_3",
            3: "x^-1*theta_3 + theta_1*theta_2*theta_3"})


def _lone_images(images):
    even = {v: parse(s, LONE_VARS, LONE_Q) for v, s in images[0].items()}
    odd = {a: parse(s, LONE_VARS, LONE_Q) for a, s in images[1].items()}
    return even, odd


@pytest.mark.parametrize("images", [NEAR_IDENTITY, GENERAL], ids=["near-identity", "general"])
@pytest.mark.parametrize("text", ["x", "t", "theta_1", "theta_2", "theta_3",
                                  "2*x", "x^-1", "x*theta_1"])
def test_lone_coordinate_substitutes_to_its_image(images, text):
    even, odd = _lone_images(images)
    element = parse(text, LONE_VARS, LONE_Q)
    got = element.substitute(Substitution(even, odd, LONE_VARS, LONE_Q))
    assert got == substitute(element, even, odd, LONE_VARS, LONE_Q)
    lone = {**even, **{f"theta_{a}": g for a, g in odd.items()}}
    if text in lone:
        assert got == lone[text]
    else:
        assert got not in lone.values()


def test_lone_coordinate_images_are_checked():
    even, odd = _lone_images(NEAR_IDENTITY)
    x, theta_1 = parse("x", LONE_VARS, LONE_Q), parse("theta_1", LONE_VARS, LONE_Q)
    with pytest.raises(SubstitutionError, match="no image for even coordinate t"):
        x.substitute(Substitution({"x": even["x"]}, odd, LONE_VARS, LONE_Q))
    with pytest.raises(SubstitutionError, match="image of theta_2 is not odd"):
        theta_1.substitute(Substitution(even, {**odd, 2: even["x"]}, LONE_VARS, LONE_Q))


def test_negative_power_through_nilpotent():
    e = parse("x + theta_1*theta_2")
    inv = e.power(-1)
    assert (e * inv) == parse("1")


# ---------------------------------------------------------------- properties


def test_mul_associative_and_supercommutative():
    rng = random.Random(7)
    for _ in range(40):
        a = random_grassmann(rng, X, 3)
        b = random_grassmann(rng, X, 3)
        c = random_grassmann(rng, X, 3)
        assert (a * b) * c == a * (b * c)
    for _ in range(40):
        a = random_grassmann(rng, X, 3, parity=rng.choice(["even", "odd"]))
        b = random_grassmann(rng, X, 3, parity=rng.choice(["even", "odd"]))
        sign = -1 if (a.parity() == "odd" and b.parity() == "odd") else 1
        assert a * b == (b * a).scale(sign)


def test_odd_derivative_is_super_derivation():
    rng = random.Random(11)
    for _ in range(40):
        a = random_grassmann(rng, X, 3, parity=rng.choice(["even", "odd"]))
        b = random_grassmann(rng, X, 3)
        g = rng.randint(1, 3)
        sign = -1 if a.parity() == "odd" else 1
        lhs = (a * b).odd_derivative(g)
        rhs = a.odd_derivative(g) * b + (a * b.odd_derivative(g)).scale(sign)
        assert lhs == rhs


def test_substitute_distributes_over_mul():
    rng = random.Random(13)
    for _ in range(25):
        a = random_grassmann(rng, X, 2)
        b = random_grassmann(rng, X, 2)
        images = {"x": parse("x^-1") + random_grassmann(rng, X, 2, parity="even",
                                                        exp_range=(-1, 1)).truncate(2)}
        odd = {1: random_grassmann(rng, X, 2, parity="odd", exp_range=(-1, 1)),
               2: random_grassmann(rng, X, 2, parity="odd", exp_range=(-1, 1))}
        kernel = Substitution(images, odd, X, 2)
        sub = lambda e: e.substitute(kernel)
        assert sub(a * b) == sub(a) * sub(b)


def brute_force_poly_subst(poly: LaurentPoly, image_terms):
    """Multinomial-expansion oracle for substituting x -> sum(image_terms)
    into a polynomial with nonnegative exponents; image_terms is a list of
    GrassmannElement summands."""
    total = None
    for exps, coef in poly.terms.items():
        e = exps[0]
        assert e >= 0
        acc = GrassmannElement.const(X, 2, coef)
        for _ in range(e):
            summed = None
            for t in image_terms:
                part = acc * t
                summed = part if summed is None else summed + part
            acc = summed if summed is not None else GrassmannElement.zero(X, 2)
        total = acc if total is None else total + acc
    return total if total is not None else GrassmannElement.zero(X, 2)


def test_taylor_matches_multinomial_oracle():
    rng = random.Random(17)
    for _ in range(20):
        poly = LaurentPoly(X, {(rng.randint(0, 4),): Q(rng.randint(-3, 3))
                               for _ in range(rng.randint(1, 3))})
        element = GrassmannElement.from_poly(poly, 2)
        pieces = [parse("2*x"), random_grassmann(rng, X, 2, parity="even",
                                                 exp_range=(0, 2)).truncate(2)]
        image = pieces[0] + pieces[1]
        odd = {1: parse("theta_1"), 2: parse("theta_2")}
        fast = element.substitute(Substitution({"x": image}, odd, X, 2))
        slow = brute_force_poly_subst(poly, pieces)
        assert fast == slow


# ------------------------------------------------------- hypothesis properties

PROPERTY = settings(max_examples=40)
Q3 = 3
INDICES = [i for k in range(Q3 + 1) for i in combinations(range(1, Q3 + 1), k)]


@st.composite
def elements(draw, parity=None, exps=(-2, 2), max_terms=4):
    indices = [i for i in INDICES if parity is None or len(i) % 2 == (parity == "odd")]
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        idx = draw(st.sampled_from(indices))
        poly = LaurentPoly.monomial(X, Q(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
                                    (draw(st.integers(*exps)),))
        terms[idx] = terms[idx] + poly if idx in terms else poly
    return GrassmannElement(X, Q3, terms)


@st.composite
def invertible(draw):
    """An element whose reduced part is an invertible monomial."""
    body = LaurentPoly.monomial(X, draw(st.sampled_from([1, -1, 2, Q(1, 3)])),
                                (draw(st.integers(-2, 2)),))
    return GrassmannElement.from_poly(body, Q3) + draw(elements()).truncate(1)


@st.composite
def substitutions(draw):
    """Images of a coordinate change x -> c*x^(+-1) + nilpotent, theta -> odd."""
    body = LaurentPoly.monomial(X, draw(st.sampled_from([1, -2, Q(1, 2)])),
                                (draw(st.sampled_from([1, -1])),))
    even = {"x": GrassmannElement.from_poly(body, Q3)
            + draw(elements("even", exps=(-1, 1), max_terms=2)).truncate(2)}
    odd = {a: draw(elements("odd", exps=(-1, 1), max_terms=2)) for a in range(1, Q3 + 1)}
    return even, odd


@PROPERTY
@given(substitutions(), elements(), elements())
def test_substitution_is_additive_and_multiplicative(images, a, b):
    kernel = Substitution(*images, X, Q3)
    assert (a + b).substitute(kernel) == a.substitute(kernel) + b.substitute(kernel)
    assert (a * b).substitute(kernel) == a.substitute(kernel) * b.substitute(kernel)


@PROPERTY
@given(invertible(), st.integers(-6, 8))
def test_power_is_repeated_multiplication(x, e):
    step = x if e >= 0 else x.power(-1)
    expected = GrassmannElement.const(X, Q3, 1)
    for _ in range(abs(e)):
        expected = expected * step
    assert x.power(e) == expected


@PROPERTY
@given(elements(), st.integers(0, 5))
def test_nonnegative_power_of_any_element(x, e):
    expected = GrassmannElement.const(X, Q3, 1)
    for _ in range(e):
        expected = expected * x
    assert x.power(e) == expected


@PROPERTY
@given(invertible(), st.integers(-6, 8))
def test_power_times_opposite_power_is_one(x, e):
    assert x.power(e) * x.power(-e) == GrassmannElement.const(X, Q3, 1)


@PROPERTY
@given(substitutions(), st.lists(elements(), min_size=1, max_size=4))
def test_memoised_apply_equals_fresh_substitution(images, targets):
    chart = Chart("U", X, (), Q3)
    t = SuperTransition(chart, chart, *images, check=False)
    for g in targets:
        assert t.apply(g) == g.substitute(Substitution(*images, X, Q3))


# Raw substitution kernel against the element-level reference: contexts with
# one even coordinate, or two of which the base coordinate t maps to itself,
# odd ranks 1..5, exponents -4..4 and image bodies c * x^(+-1).


@st.composite
def raw_cases(draw, q):
    vars = draw(st.sampled_from([("x",), ("x", "t")]))
    indices = [i for k in range(q + 1) for i in combinations(range(1, q + 1), k)]

    def element(kind=None, exps=(-4, 4), max_terms=3):
        """Any element, an odd one, or a nilpotent even one."""
        pool = {None: indices,
                "odd": [i for i in indices if len(i) % 2],
                "nilpotent": [i for i in indices if i and not len(i) % 2]}[kind]
        if not pool:
            return GrassmannElement.zero(vars, q)
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            idx = draw(st.sampled_from(pool))
            poly = LaurentPoly.monomial(
                vars, Q(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
                [draw(st.integers(*exps)) for _ in vars])
            terms[idx] = terms[idx] + poly if idx in terms else poly
        return GrassmannElement(vars, q, terms)

    body = LaurentPoly.monomial(vars, draw(st.sampled_from([2, -3, Q(1, 2), 1, -1])),
                                (draw(st.sampled_from([1, -1])),) + (0,) * (len(vars) - 1))
    even = {"x": GrassmannElement.from_poly(body, q) + element("nilpotent", (-1, 1), 2)}
    if "t" in vars:
        even["t"] = GrassmannElement.even_var(vars, q, "t")
    odd = {a: element("odd", (-1, 1), 2) for a in range(1, q + 1)}
    targets = [element() for _ in range(draw(st.integers(1, 3)))]
    return vars, even, odd, targets


@pytest.mark.parametrize("q", range(1, 6))
@PROPERTY
@given(data=st.data())
def test_raw_substitution_equals_the_reference(q, data):
    vars, even, odd, targets = data.draw(raw_cases(q))
    kernel = Substitution(even, odd, vars, q)
    for g in targets:
        assert g.substitute(kernel) == substitute(g, even, odd, vars, q)


@pytest.mark.parametrize("q", range(1, 6))
@PROPERTY
@given(data=st.data())
def test_memoised_powers_in_any_order(q, data):
    # each power of the memo is one product of the power next to it towards
    # zero, so asking for v^-3 before v^-1 or v^5 before v^2 fills the
    # chain in between
    vars, even, odd, _ = data.draw(raw_cases(q))
    order = data.draw(st.permutations([-4, -3, -2, -1, 2, 3, 4, 5]))
    for sequence in ([-3, -1, 5, 2], order):
        kernel = Substitution(even, odd, vars, q)
        for e in sequence:
            got = _collect(vars, q, kernel.power("x", e))
            assert got == even["x"].power(e) == grassmann_power(even["x"], e)


# Monomial substitutions: every image is zero or one term c * x^e * theta^J,
# with J empty for an even image, from the source context (x, t) to the
# target context (x, s).  The reference multiplies the images out as
# elements, term by term; a term whose odd part maps to zero is skipped, and
# any other meets every power of its even images, so a negative power of a
# zero image raises.

MONO_SOURCE, MONO_TARGET, MONO_Q = ("x", "t"), ("x", "s"), 3
MONO_ODD = [i for k in (1, 3) for i in combinations(range(1, MONO_Q + 1), k)]


def monomial_reference(element, even, odd):
    total = GrassmannElement.zero(MONO_TARGET, MONO_Q)
    for idx, coeff in element.terms.items():
        image = GrassmannElement.const(MONO_TARGET, MONO_Q, 1)
        for a in idx:
            image = image * odd[a]
        if image.is_zero():
            continue
        for exps, c in coeff.terms.items():
            term = image.scale(c)
            for v, e in zip(element.vars, exps):
                term = even[v].power(e) * term
            total = total + term
    return total


@st.composite
def monomial_cases(draw):
    coefs = st.sampled_from([1, -1, 2, -3, Q(1, 2), Q(-2, 3)])

    def term(idx):
        return GrassmannElement(MONO_TARGET, MONO_Q, {idx: LaurentPoly.monomial(
            MONO_TARGET, draw(coefs), [draw(st.integers(-2, 2)) for _ in MONO_TARGET])})

    zero = GrassmannElement.zero(MONO_TARGET, MONO_Q)
    even = {}
    for v in MONO_SOURCE:
        kind = draw(st.sampled_from(["zero", "constant", "term"]))
        even[v] = {"zero": zero, "term": term(())}.get(kind) or \
            GrassmannElement.const(MONO_TARGET, MONO_Q, draw(coefs))
    odd = {a: zero if draw(st.booleans()) and draw(st.booleans())
           else term(draw(st.sampled_from(MONO_ODD))) for a in range(1, MONO_Q + 1)}
    indices = [i for k in range(MONO_Q + 1) for i in combinations(range(1, MONO_Q + 1), k)]
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            idx = draw(st.sampled_from(indices))
            poly = LaurentPoly.monomial(MONO_SOURCE, draw(coefs),
                                        [draw(st.integers(-3, 3)) for _ in MONO_SOURCE])
            terms[idx] = terms[idx] + poly if idx in terms else poly
        targets.append(GrassmannElement(MONO_SOURCE, MONO_Q, terms))
    return even, odd, targets


def _assert_monomial_substitution(even, odd, element):
    kernel = Substitution(even, odd, MONO_TARGET, MONO_Q)
    try:
        expected = monomial_reference(element, even, odd)
    except SubstitutionError as error:
        with pytest.raises(SubstitutionError) as raised:
            element.substitute(kernel)
        assert str(raised.value) == str(error)
    else:
        assert element.substitute(kernel) == expected


@settings(max_examples=150)
@given(monomial_cases())
def test_monomial_substitution_equals_the_element_arithmetic(case):
    even, odd, targets = case
    lone = [GrassmannElement.even_var(MONO_SOURCE, MONO_Q, "x"),
            GrassmannElement.odd_gen(MONO_SOURCE, MONO_Q, 2)]
    for element in targets + lone:
        _assert_monomial_substitution(even, odd, element)


def test_negative_power_of_a_zero_monomial_image():
    zero = GrassmannElement.zero(MONO_TARGET, MONO_Q)
    even = {"x": zero, "t": GrassmannElement.even_var(MONO_TARGET, MONO_Q, "s", -1)}
    odd = {a: GrassmannElement.odd_gen(MONO_TARGET, MONO_Q, a) for a in range(1, MONO_Q + 1)}
    pole = parse("t^2 + x^-1*t*theta_1", MONO_SOURCE, MONO_Q)
    with pytest.raises(SubstitutionError,
                       match="^negative power of an element with zero reduced part$"):
        pole.substitute(Substitution(even, odd, MONO_TARGET, MONO_Q))
    # a term whose odd part maps to zero is never expanded
    got = pole.substitute(Substitution(even, {**odd, 1: zero}, MONO_TARGET, MONO_Q))
    assert got == parse("s^-2", MONO_TARGET, MONO_Q)
    for element in (pole, parse("x^2*theta_2*theta_3 - 3*t^-1", MONO_SOURCE, MONO_Q)):
        _assert_monomial_substitution(even, odd, element)


def _grassmann_argument_cases():
    """``(id, call, error type, message)`` for ``grassmann``'s argument
    checks, each at odd rank 2 over the coordinate x."""
    one = LaurentPoly.const(X, 1)
    return [
        ("generator out of range", lambda: GrassmannElement(X, 2, {(3,): one}),
         ValueError, "odd generator out of range in (3,)"),
        ("index not increasing", lambda: GrassmannElement(X, 2, {(2, 1): one}),
         ValueError, "multi-index must be strictly increasing: (2, 1)"),
        ("coefficient context",
         lambda: GrassmannElement(X, 2, {(1,): LaurentPoly.const(("y",), 1)}),
         ContextError, "coefficient context does not match element context"),
        ("odd_gen", lambda: GrassmannElement.odd_gen(X, 2, 3),
         ValueError, "odd generator theta_3 out of range 1..2"),
        ("sum across contexts", lambda: GrassmannElement.const(X, 2, 1)
         + GrassmannElement.const(X, 3, 1),
         ContextError, "Grassmann contexts differ"),
        ("power", lambda: parse("x + 1", X, 2).power(-1),
         SubstitutionError, "negative power requires an invertible monomial reduced part"),
        ("odd_derivative", lambda: GrassmannElement.odd_gen(X, 2, 1).odd_derivative(3),
         ValueError, "odd generator theta_3 out of range 1..2"),
    ]


@pytest.mark.parametrize("name, call, error, message", _grassmann_argument_cases(),
                         ids=[case[0] for case in _grassmann_argument_cases()])
def test_grassmann_argument_checks_raise_their_errors(name, call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert err.value.args == (message,)
