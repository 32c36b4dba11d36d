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

Input budgets keep the work of one expression bounded: an exponent may not
exceed ``MAX_EXPONENT`` in absolute value, and no product or power may
expand to more than ``MAX_TERMS`` terms (coefficient monomials summed over
the odd multi-indices).  The term count is bounded from the operands before
anything is multiplied, so an oversized expression fails at once with a
located :class:`~supercech.errors.ParseError`.
"""

from __future__ import annotations

import re
from math import comb, prod

from .errors import ParseError, SubstitutionError
from .grassmann import GrassmannElement
from .laurent import LaurentPoly

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|/|\+|-|\(|\)))")
_THETA = re.compile(r"^theta_([0-9]+)$")

MAX_EXPONENT = 100
MAX_TERMS = 2000


class _Tokenizer:
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

    def error(self, message: str):
        _, _, col = self.peek()
        raise ParseError(message, self.line, col + 1)


class ExpressionParser:
    """Parses expressions into :class:`GrassmannElement` values over a fixed
    coordinate context."""

    def __init__(self, vars: tuple[str, ...], odd_rank: int):
        self.vars = tuple(vars)
        self.odd_rank = odd_rank

    def parse(self, text: str, line: int | None = None) -> GrassmannElement:
        tz = _Tokenizer(text, line)
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
                k = int(m.group(1))
                if not 1 <= k <= self.odd_rank:
                    raise ParseError(f"theta_{k} out of range 1..{self.odd_rank}",
                                     tz.line, col + 1)
                return GrassmannElement.odd_gen(self.vars, self.odd_rank, k)
            if val not in self.vars:
                raise ParseError(f"unknown coordinate {val!r}", tz.line, col + 1)
            return GrassmannElement.even_var(self.vars, self.odd_rank, val)
        if kind == "op" and val == "(":
            value = self._expr(tz)
            tz.expect_op(")")
            return value
        raise ParseError(f"unexpected token {val!r}", tz.line, col + 1)


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
