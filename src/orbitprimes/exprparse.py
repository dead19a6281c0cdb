"""Recursive-descent parser for one-variable arithmetic expressions over Q.

Grammar (EBNF):

    expr    = term { ("+" | "-") term }
    term    = unary { ("*" | "/") unary | juxt }
    juxt    = variable | "(" expr ")"          (implicit multiplication)
    unary   = [ "-" | "+" ] power
    power   = atom [ "^" [ "-" ] integer ]
    atom    = integer | variable | "(" expr ")"

Integer literals plus "/" give rational literals.  The result is an element
of Q(var) represented as an unreduced pair (numerator, denominator) of
coefficient lists; callers decide whether and how to reduce, which lets the
map constructor report cancelled common factors instead of silently dropping
them.

A second variable may be enabled (for maps over Q(t), where coefficients
live in Q(t)); it parses as a scalar constant supplied by the caller.
"""

from __future__ import annotations

from fractions import Fraction

from . import polys
from .errors import ExprSyntaxError, ResourceCapError
from .intplaces import DEFAULT_DIGIT_CAP, _cap_bits, from_decimal

MAX_EXPR_DEGREE = 1024

_TOKEN_CHARS = set("+-*/^()")
_DIGITS = set("0123456789")  # str.isdigit also takes other scripts and superscripts


def tokenize(text):
    """Yield (kind, value, position) triples; kinds: int, name, op."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", from_decimal(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j] in _DIGITS or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _RF:
    """Unreduced rational function: numerator/denominator coefficient lists."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den


class _Parser:
    def __init__(self, text, var, scalar_one, second_var=None, second_value=None):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.var = var
        self.one = scalar_one
        self.second_var = second_var
        self.second_value = second_value

    # -- token helpers ----------------------------------------------------

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", None, len(self.text))

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", position)
        return self.advance()

    # -- rational-function arithmetic (no gcd reduction) -------------------

    def _check_size(self, rf, position):
        if polys.degree(rf.num) > MAX_EXPR_DEGREE or polys.degree(rf.den) > MAX_EXPR_DEGREE:
            raise ResourceCapError(
                f"expression degree exceeds {MAX_EXPR_DEGREE} near position {position}",
                cap=MAX_EXPR_DEGREE,
            )
        return rf

    def _add(self, a, b, position, sign=1):
        self._check_literal_product(((a.num, b.den), (b.num, a.den), (a.den, b.den)), position)
        rhs = b.num if sign == 1 else polys.neg(b.num)
        num = polys.add(polys.mul(a.num, b.den), polys.mul(rhs, a.den))
        return self._check_size(_RF(num, polys.mul(a.den, b.den)), position)

    def _mul(self, a, b, position):
        self._check_literal_product(((a.num, b.num), (a.den, b.den)), position)
        return self._check_size(
            _RF(polys.mul(a.num, b.num), polys.mul(a.den, b.den)), position
        )

    def _div(self, a, b, position):
        if polys.is_zero(b.num):
            raise ExprSyntaxError("division by zero", position)
        self._check_literal_product(((a.num, b.den), (a.den, b.num)), position)
        return self._check_size(
            _RF(polys.mul(a.num, b.den), polys.mul(a.den, b.num)), position
        )

    def _check_literal_product(self, sides, position):
        """Refuse arithmetic on rational constants before multiplying when, on
        any side (numerator and denominator of a product or quotient; the two
        cross products and the common denominator of a sum), the sum of
        (bit_length(c) - 1) over the two integers c there, a lower bound on
        the bits of their product, passes the digit cap.  The parser's constants over Q are
        integers; the two sides are bounded apart, so a value such as
        2^3000000 / 3^1800000, whose height is under the cap, still parses."""
        if not all(len(f) == 1 and isinstance(f[0], (int, Fraction)) for side in sides for f in side):
            return
        limit = _cap_bits(DEFAULT_DIGIT_CAP)
        for side in sides:
            if sum(abs(f[0].numerator).bit_length() - 1 for f in side) > limit:
                raise ResourceCapError(
                    f"product literal exceeds the {DEFAULT_DIGIT_CAP}-digit cap near position {position}",
                    cap=DEFAULT_DIGIT_CAP,
                )

    def _check_literal_power(self, a, k, position):
        """Refuse a rational constant to the k-th power before multiplying when
        k * (bit_length(h) - 1), a lower bound on the bits of h^k for
        h = max(|p|, |q|), passes the digit cap."""
        if len(a.num) != 1 or len(a.den) != 1:
            return
        if not all(isinstance(c, (int, Fraction)) for c in (a.num[0], a.den[0])):
            return
        base = Fraction(a.num[0]) / a.den[0]
        h = max(abs(base.numerator), base.denominator)
        if k * (h.bit_length() - 1) > _cap_bits(DEFAULT_DIGIT_CAP):
            raise ResourceCapError(
                f"power literal exceeds the {DEFAULT_DIGIT_CAP}-digit cap near position {position}",
                cap=DEFAULT_DIGIT_CAP,
            )

    def _pow(self, a, k, position):
        if k < 0:
            if polys.is_zero(a.num):
                raise ExprSyntaxError("zero raised to a negative power", position)
            a = _RF(a.den, a.num)
            k = -k
        self._check_literal_power(a, k, position)
        num, den = [self.one], [self.one]
        base_n, base_d = a.num, a.den
        while k:
            if k & 1:
                num = polys.mul(num, base_n)
                den = polys.mul(den, base_d)
                self._check_size(_RF(num, den), position)
            k >>= 1
            if k:
                base_n = polys.mul(base_n, base_n)
                base_d = polys.mul(base_d, base_d)
        return _RF(num, den)

    # -- grammar -----------------------------------------------------------

    def parse(self):
        value = self.expr()
        kind, value_tok, position = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {value_tok!r}", position)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, op, position = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.term()
                value = self._add(value, rhs, position, sign=1 if op == "+" else -1)
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, op, position = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                rhs = self.unary()
                value = self._mul(value, rhs, position) if op == "*" else self._div(value, rhs, position)
            elif kind == "name" or (kind == "op" and op == "("):
                # juxtaposition like 3x or 2(x+1)
                rhs = self.unary()
                value = self._mul(value, rhs, position)
            else:
                return value

    def unary(self):
        kind, op, position = self.peek()
        if kind == "op" and op in "+-":
            self.advance()
            value = self.unary()
            if op == "-":
                value = _RF(polys.neg(value.num), value.den)
            return value
        return self.power()

    def power(self):
        base = self.atom()
        kind, op, position = self.peek()
        if kind == "op" and op == "^":
            self.advance()
            sign = 1
            kind2, value2, position2 = self.peek()
            if kind2 == "op" and value2 == "-":
                self.advance()
                sign = -1
            kind2, value2, position2 = self.peek()
            if kind2 != "int":
                raise ExprSyntaxError("exponent must be an integer literal", position2)
            self.advance()
            return self._pow(base, sign * value2, position)
        return base

    def atom(self):
        kind, value, position = self.advance()
        if kind == "int":
            return _RF([self.one * value] if value else [], [self.one])
        if kind == "name":
            if value == self.var:
                return _RF([self.one * 0, self.one], [self.one])
            if self.second_var is not None and value == self.second_var:
                return _RF([self.second_value], [self.one])
            raise ExprSyntaxError(f"unknown variable {value!r}", position)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(
            "expected a number, variable or parenthesized expression", position
        )


def parse_rational_function(text, var="x", second_var=None, second_value=None, one=Fraction(1)):
    """Parse text into an unreduced (numerator, denominator) coefficient pair.

    The denominator is guaranteed nonzero.  Coefficients are Fractions unless
    a different scalar `one` (and optional second variable) is supplied.
    """
    parser = _Parser(text, var, one, second_var=second_var, second_value=second_value)
    rf = parser.parse()
    num = polys.strip(rf.num)
    den = polys.strip(rf.den)
    if polys.is_zero(den):
        raise ExprSyntaxError("expression has zero denominator", 0)
    return num, den


def parse_polynomial(text, var="x", second_var=None, second_value=None, one=Fraction(1)):
    """Parse an expression that must reduce to a polynomial in `var`, over Q
    or over the scalars `one` (with parse_rational_function's arguments)."""
    num, den = parse_rational_function(
        text, var=var, second_var=second_var, second_value=second_value, one=one
    )
    g = polys.gcd(num, den)
    num = polys.exact_div(num, g)
    den = polys.exact_div(den, g)
    if polys.degree(den) > 0:
        raise ExprSyntaxError(f"expected a polynomial in {var}, got a proper rational function", 0)
    return polys.strip([c / den[0] for c in num])
