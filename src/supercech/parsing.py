"""Expression grammar for Grassmann elements.

Accepted syntax::

    expr     :=  term (('+'|'-') term)*
    term     :=  factor (('*'|'/') factor)*
    factor   :=  '-' factor | atom ('^' exponent)?
    atom     :=  integer | name | theta_k | '(' expr ')'
    exponent :=  ['-'] integer | '(' ['-'] integer ')'

Names are even coordinates; ``theta_k`` (k = 1..q) are the odd generators.
Rationals are written as divisions, e.g. ``1/2`` or ``x/3``.  A divisor (and
the base of a negative exponent) must be invertible, i.e. have a single-term
reduced part; this keeps every result a Laurent-polynomial-coefficient
element.

Evaluation builds no element per atom: a term's numbers, coordinates and
``theta_k`` (with powers, unary minus and division by a monomial) fold into
one running monomial with the Koszul sign of ``grassmann._koszul_sign``, and
each term is added into one ``{mask: {exps: coef}}`` accumulator, the raw
form of Grassmann products.  A group that is not a monomial, its powers and
divisions by it use :class:`GrassmannElement` arithmetic, and a term with a
group enters the accumulator through the shared product kernel
``grassmann._product_into``.

Input budgets keep the work of one expression bounded: an exponent may not
exceed ``MAX_EXPONENT`` in absolute value, no product or power may expand
to more than ``MAX_TERMS`` terms (coefficient monomials summed over the odd
multi-indices), and parentheses, exponent parentheses and unary minus signs
may not nest more than ``MAX_DEPTH`` deep, which keeps the recursive descent
far from the interpreter's recursion limit.  The term count is bounded from
the operands before anything is multiplied, so an oversized expression
fails at once with a located :class:`~supercech.errors.ParseError`.
"""

from __future__ import annotations

import re
from math import comb, prod
from operator import add

from .errors import ParseError, SubstitutionError
from .grassmann import GrassmannElement, _collect, _koszul_sign, _product_into, _raw
from .laurent import LaurentPoly, div

# the last group takes a character that starts no token (or trailing space)
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))|(.)", re.S)
_KINDS = (None, "num", "name", "op")
_THETA = re.compile(r"^theta_([0-9]+)$")

MAX_EXPONENT = 100
MAX_TERMS = 2000
MAX_DEPTH = 100


def _theta_index(digits: str, odd_rank: int, line, column) -> int:
    """The index written as ``digits``, which must lie in 1..odd_rank; an
    index with more digits than ``odd_rank`` is out of range before it is
    converted, so no length reaches the interpreter's conversion limit."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(odd_rank)) or not 1 <= int(digits) <= odd_rank:
        raise ParseError(f"theta_{digits} out of range 1..{odd_rank}", line, column)
    return int(digits)


class _Tokenizer:
    """``(kind, value, column)`` tokens, then ``(None, None, len(text))``."""

    def __init__(self, text: str, line: int | None = None):
        self.line = line
        self.i = 0
        self.depth = 0  # open parentheses and unary minus signs
        self.tokens: list[tuple[str | None, str | None, int]] = []
        for m in _TOKEN.finditer(text):
            kind = m.lastindex
            if kind == 4:
                if text[m.start():].strip():
                    raise ParseError(f"unexpected character {m[4]!r}", line, m.start() + 1)
                break
            self.tokens.append((_KINDS[kind], m[kind], m.start(kind)))
        self.tokens.append((None, None, len(text)))

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def enter(self, col: int):
        """Open one level of nesting at column ``col`` (0-based)."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nests more than {MAX_DEPTH} deep", self.line, col + 1)

    def expect_op(self, op: str):
        kind, val, col = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", self.line, col + 1)


class ExpressionParser:
    """Parses expressions into :class:`GrassmannElement` values over a fixed
    coordinate context.  A monomial ``coef * x^exps * theta_mask`` is the
    tuple ``(coef, exps, mask)``; ``coef`` is 0 for zero."""

    def __init__(self, vars: tuple[str, ...], odd_rank: int):
        self.vars = tuple(vars)
        self.odd_rank = odd_rank
        n = len(self.vars)
        self._one = (1, (0,) * n, 0)
        # atoms by name, theta_k added on first use; a coordinate named like
        # an odd generator is read as that generator
        self._atoms = {v: (1, tuple(int(i == j) for j in range(n)), 0)
                       for i, v in enumerate(self.vars) if not _THETA.match(v)}

    def parse(self, text: str, line: int | None = None) -> GrassmannElement:
        tz = _Tokenizer(text, line)
        value = self._expr(tz)
        kind, val, col = tz.tokens[tz.i]
        if kind is not None:
            raise ParseError(f"trailing input starting at {val!r}", line, col + 1)
        return self._element(value)

    def parse_poly(self, text: str, line: int | None = None) -> LaurentPoly:
        g = self.parse(text, line)
        if g.truncate(1).is_zero():
            return g.body()
        raise ParseError("expected an expression without odd generators", line, 1)

    # ---------------------------------------------------------------- rules

    def _expr(self, tz):
        """A monomial when the expression is one term without groups, else
        the accumulator of its terms."""
        acc: dict[int, dict] = {}
        sign = 1
        while True:
            mono = self._term(tz, acc, sign)
            kind, val, _ = tz.tokens[tz.i]
            more = kind == "op" and val in "+-"
            if mono is not None:
                if sign == 1 and not (acc or more):
                    return mono
                c, e, m = mono
                exps = acc.setdefault(m, {})
                exps[e] = exps.get(e, 0) + sign * c
            if not more:
                return acc
            tz.i += 1
            sign = 1 if val == "+" else -1

    def _term(self, tz, acc, sign):
        """Add ``sign`` times the term to ``acc``, or return its monomial if
        it has no group.  Each ``*`` and ``/`` checks the budget of the product
        so far (``group`` times the monomial) with the next factor."""
        group, f = None, self._factor(tz)
        if type(f) is not tuple:
            group, f = f, self._one
        c, e, m = f
        while True:
            kind, op, col = tz.tokens[tz.i]
            if kind != "op" or op not in "*/":
                break
            tz.i += 1
            f = self._factor(tz)
            if op == "/":
                f = self._power(f, -1, tz.line, col, "division by")
            if type(f) is tuple:
                # a monomial pairs with each term of the product so far once,
                # so only a group over the budget can break it
                if group is not None and _size(group) > MAX_TERMS:
                    _budget(_product_bound(group * self._element((c, e, m)), self._element(f)),
                            tz.line, col)
                fc, fe, fm = f
                if m & fm:
                    fc = 0
                elif fm:
                    fc *= _koszul_sign(m, fm)
                c, e, m = c * fc, tuple(map(add, e, fe)), m | fm
            else:
                value = self._element((c, e, m))
                if group is not None:
                    value = group * value
                _budget(_product_bound(value, f), tz.line, col)
                group, (c, e, m) = value * f, self._one
        if group is None:
            return c, e, m
        _product_into(acc, _raw(group), {m: {e: sign * c}}, self.odd_rank)
        return None

    def _factor(self, tz):
        kind, val, col = tz.next()
        if kind == "name":
            value = self._atoms.get(val)
            if value is None:
                theta = _THETA.match(val)
                if not theta:
                    raise ParseError(f"unknown coordinate {val!r}", tz.line, col + 1)
                k = _theta_index(theta.group(1), self.odd_rank, tz.line, col + 1)
                value = self._atoms[val] = (1, self._one[1], 1 << k)
        elif kind == "num":
            try:
                value = int(val), self._one[1], 0
            except ValueError:  # longer than the interpreter converts
                raise ParseError("integer literal is too long", tz.line, col + 1)
        elif kind == "op" and val == "-":
            tz.enter(col)
            f = self._factor(tz)
            tz.depth -= 1
            return (-f[0], f[1], f[2]) if type(f) is tuple else -f
        elif kind == "op" and val == "(":
            tz.enter(col)
            value = self._expr(tz)
            tz.expect_op(")")
            tz.depth -= 1
            if type(value) is not tuple:
                value = self._element(value)
        else:
            raise ParseError(f"unexpected token {val!r}", tz.line, col + 1)
        kind, val, col = tz.tokens[tz.i]
        if kind == "op" and val == "^":
            tz.i += 1
            value = self._power(value, self._exponent(tz), tz.line, col, "negative power of")
        return value

    def _power(self, value, e: int, line, col: int, what: str):
        """``value^e``.  A monomial stays one unless the power is negative
        and the monomial not invertible; then the element path raises."""
        if e == 0:
            return self._one
        if type(value) is tuple:
            c, exps, m = value
            if m and e > 0:
                return value if e == 1 else (0, exps, 0)
            if not m and (c or e > 0):
                c = c ** e if e > 0 else div(1, c ** -e)
                return c, tuple(x * e for x in exps), 0
            value = self._element(value)
        _budget(_power_bound(value, e), line, col)
        try:
            return value.power(e)
        except SubstitutionError as exc:
            raise ParseError(f"{what} a non-invertible expression ({exc})", line, col + 1)

    def _exponent(self, tz) -> int:
        kind, val, col = tz.next()
        if kind == "op" and val == "(":
            tz.enter(col)
            e = self._exponent(tz)
            tz.expect_op(")")
            tz.depth -= 1
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

    def _element(self, value) -> GrassmannElement:
        """The element of a monomial or of an accumulator."""
        if type(value) is tuple:
            c, e, m = value
            value = {m: {e: c}}
        return _collect(self.vars, self.odd_rank, value)


def _budget(bound: int, line: int | None, col: int):
    if bound > MAX_TERMS:
        raise ParseError(f"expression may expand to more than {MAX_TERMS} terms",
                         line, col + 1)


def _size(g: GrassmannElement) -> int:
    return sum(len(c.terms) for c in g.terms.values())


def _shape(g: GrassmannElement) -> tuple[int, list[int]]:
    """Multi-indices and the span of each even exponent of ``g``."""
    exps = [e for c in g.terms.values() for e in c.terms]
    return len(g.terms), [max(col) - min(col) for col in zip(*exps)] if exps else []


def _product_bound(a: GrassmannElement, b: GrassmannElement) -> int:
    """Upper bound on the terms of ``a * b``: one per pair of terms, and at
    most one per exponent vector in the sum of the ranges per multi-index."""
    pairs = _size(a) * _size(b)
    if pairs <= MAX_TERMS:
        return pairs
    (t1, s1), (t2, s2) = _shape(a), _shape(b)
    box = min(t1 * t2, 2 ** a.odd_rank) * prod(x + y + 1 for x, y in zip(s1, s2))
    return min(pairs, box)


def _power_bound(g: GrassmannElement, e: int) -> int:
    """Upper bound on the terms of ``g^e``.  For ``e >= 0`` a power has at
    most one term per multiset of ``e`` terms of ``g`` and per exponent
    vector in ``e`` times its ranges.  For ``e < 0`` the expansion in
    :meth:`GrassmannElement.power` sums the powers ``k`` of the nilpotent
    part up to ``odd_rank`` over its least odd degree."""
    if e < 0:
        degree = g.truncate(1).min_odd_degree()
        k = g.odd_rank // degree if degree else 0
        return 1 + k * _power_bound(g, k)
    n = _size(g)
    if not n:
        return 1
    multisets = comb(n + e - 1, e)
    if multisets <= MAX_TERMS:
        return multisets
    t, spans = _shape(g)
    return min(multisets, min(t ** e, 2 ** g.odd_rank) * prod(e * s + 1 for s in spans))


def parse_element(text: str, vars: tuple[str, ...], odd_rank: int,
                  line: int | None = None) -> GrassmannElement:
    return ExpressionParser(vars, odd_rank).parse(text, line)


def parse_poly(text: str, vars: tuple[str, ...], line: int | None = None) -> LaurentPoly:
    return ExpressionParser(vars, 0).parse_poly(text, line)
