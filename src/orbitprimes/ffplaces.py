"""The rational function field Q(t): its elements, heights and the Mason check.

An element is a pair (num, den) of integer polynomials in t, coprime over
Q, with joint content 1 and den's leading coefficient positive.  This normal
form is unique, so two elements are equal exactly when their pairs are.
All arithmetic runs in Z[t], on the integer kernels of `polys`:
convolutions, the heuristic gcd and exact division.  A numerator that
carries place data (zsigmondy's strip, Yun's decomposition, the Roth
radical) is primitive with a positive leading coefficient.  Fractions
appear only at the boundary: parsing, the `num` and `den` views (the
reduced pair scaled to a monic denominator) and rendering.  The height of
an element is an integer: the larger of the degrees of its numerator and
denominator.

Irreducible factorization over Q[t] is deliberately not implemented: every
quantity needed here (radicals, square-free parts, primitive parts) comes
from gcds and square-free decompositions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import polys
from .exprparse import parse_rational_function
from .polys import int_exact_div, int_mul, int_poly_gcd


class FFElement:
    """An element of Q(t): `int_num` / `int_den`, integer coefficient tuples
    in the normal form of the module docstring.  Immutable and hashable."""

    __slots__ = ("int_num", "int_den")

    def __init__(self, num, den=(1,)):
        """num / den for coefficient lists of ints and Fractions, ascending
        in t."""
        num, den = polys.strip(num), polys.strip(den)
        if not den:
            raise ZeroDivisionError("FFElement with zero denominator")
        if not all(type(c) is int for c in num + den):
            ints, _ = polys._lift(num + den)
            num, den = ints[: len(num)], ints[len(num):]
        self.int_num, self.int_den = _normal_pair(num, den)

    @staticmethod
    def _of_pair(num: tuple, den: tuple) -> "FFElement":
        """The element of a pair already in normal form."""
        out = object.__new__(FFElement)
        out.int_num, out.int_den = num, den
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_const(c) -> "FFElement":
        return FFElement([c])

    @staticmethod
    def gen() -> "FFElement":
        """The element t."""
        return FFElement._of_pair((0, 1), (1,))

    @staticmethod
    def parse(text: str) -> "FFElement":
        num, den = parse_rational_function(text, var="t")
        return FFElement(num, den)

    # -- views ------------------------------------------------------------------

    @property
    def num(self) -> tuple:
        """The numerator as Fractions, over the monic denominator `den`."""
        lc = self.int_den[-1]
        return tuple(Fraction(c, lc) for c in self.int_num)

    @property
    def den(self) -> tuple:
        """The denominator as Fractions, monic."""
        lc = self.int_den[-1]
        return tuple(Fraction(c, lc) for c in self.int_den)

    @property
    def is_zero(self) -> bool:
        return not self.int_num

    # -- field arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FFElement):
            return other
        if isinstance(other, (int, Fraction)):
            return FFElement.from_const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.int_num, self.int_den, other.int_num, other.int_den
        if b == d:
            return _reduced(polys.add(a, c), b)
        return _reduced(polys.add(int_mul(a, d), int_mul(c, b)), int_mul(b, d))

    __radd__ = __add__

    def __neg__(self):
        return FFElement._of_pair(tuple(-c for c in self.int_num), self.int_den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _reduced(int_mul(self.int_num, other.int_num), int_mul(self.int_den, other.int_den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("FFElement division by zero")
        return _reduced(int_mul(self.int_num, other.int_den), int_mul(self.int_den, other.int_num))

    def __rtruediv__(self, other):
        return FFElement.from_const(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return FFElement.from_const(1) / self ** (-k)
        out = FFElement.from_const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.int_num == other.int_num and self.int_den == other.int_den

    def __bool__(self):
        return not self.is_zero

    def __hash__(self):
        return hash((self.int_num, self.int_den))

    def __repr__(self):
        return f"FFElement({self!s})"

    def __str__(self):
        num = polys.to_string(self.int_num if self.int_den[-1] == 1 else self.num, var="t")
        if len(self.int_den) == 1:
            return num
        return f"({num})/({polys.to_string(self.den, var='t')})"


def _normal_pair(num, den):
    """The normal form of num / den, integer polynomials with den != 0, as
    two tuples."""
    if not num:
        return (), (1,)
    if len(den) > 1:
        # a constant denominator leaves a polynomial, already coprime to it
        g = int_poly_gcd(num, den)
        if len(g) > 1:
            num, den = int_exact_div(num, g), int_exact_div(den, g)
    c = gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c == 1:
        return tuple(num), tuple(den)
    return tuple(a // c for a in num), tuple(a // c for a in den)


def _reduced(num, den) -> FFElement:
    return FFElement._of_pair(*_normal_pair(num, den))


def integral_coefficients(coeffs):
    """([n_0, n_1, ...], L) for elements c_k of Q(t): integer polynomials
    with c_k = n_k / L, where L, the lcm of the denominators over Q, has a
    positive leading coefficient."""
    lcm = [1]
    for c in coeffs:
        lcm = int_mul(lcm, int_exact_div(c.int_den, int_poly_gcd(lcm, c.int_den)))
    return [int_mul(c.int_num, int_exact_div(lcm, c.int_den)) for c in coeffs], lcm


def form_value(form, u, v):
    """sum_k form[k] u^k v^(d - k) in Z[t], d = len(form) - 1, by Horner's
    rule: the integral form at the pair (u, v) of an element u / v."""
    value, v_power = list(form[-1]), [1]
    for c in form[-2::-1]:
        v_power = int_mul(v_power, v)
        value = polys.add(int_mul(value, u), int_mul(c, v_power))
    return value


def ff_height(f: FFElement) -> int:
    """Height of an element of Q(t): max(deg numerator, deg denominator)."""
    if f.is_zero:
        return 0
    return max(len(f.int_num), len(f.int_den)) - 1


class MasonReport(NamedTuple):
    """Outcome of the polynomial abc inequality check for a + b = c."""

    a: tuple
    b: tuple
    c: tuple
    max_degree: int
    radical_degree: int
    holds: bool
    tight: bool


def mason_check(a, b) -> MasonReport:
    """Check max(deg a, deg b, deg c) <= deg rad(abc) - 1 for coprime a, b
    with c = a + b.  This inequality is an unconditional theorem in
    characteristic 0, so `holds` must always come back True.

    a and b are int or Fraction coefficient lists; the check runs on their
    integer lifts A, B over one common denominator, with C = A + B.
    """
    a, b = polys.strip(a), polys.strip(b)
    if not a or not b:
        raise ValueError("a and b must be nonzero")
    lift, den = polys._lift(a + b)
    A, B = lift[: len(a)], lift[len(a):]
    if polys.degree(int_poly_gcd(A, B)) > 0:
        raise ValueError("a and b must be coprime")
    C = polys.add(A, B)
    if not C:
        raise ValueError("a + b must be nonzero")
    max_degree = max(len(A), len(B), len(C)) - 1
    if max_degree < 1:
        raise ValueError("a, b, c must not all be constant")
    radical_degree = polys.radical_degree(int_mul(int_mul(A, B), C))
    return MasonReport(
        a=tuple(Fraction(x, den) for x in A),
        b=tuple(Fraction(x, den) for x in B),
        c=tuple(Fraction(x, den) for x in C),
        max_degree=max_degree,
        radical_degree=radical_degree,
        holds=max_degree <= radical_degree - 1,
        tight=max_degree == radical_degree - 1,
    )
