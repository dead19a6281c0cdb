"""The rational function field Q(t): its elements, heights and the Mason check.

Elements are reduced fractions of polynomials in t with exact rational
coefficients.  The height of an element is an integer: the larger of the
degrees of its numerator and denominator.

Irreducible factorization over Q[t] is deliberately not implemented: every
quantity needed here (radicals, square-free parts, primitive parts) comes
from gcds and square-free decompositions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import polys
from .exprparse import parse_rational_function


class FFElement:
    """An element of Q(t): numerator/denominator polynomials, reduced,
    denominator monic.  Immutable and hashable."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = [Fraction(1)]
        num = polys.strip([c if isinstance(c, Fraction) else Fraction(c) for c in num])
        den = polys.strip([c if isinstance(c, Fraction) else Fraction(c) for c in den])
        if polys.is_zero(den):
            raise ZeroDivisionError("FFElement with zero denominator")
        if not _reduced:
            if polys.is_zero(num):
                den = [Fraction(1)]
            elif len(den) > 1:
                # a constant denominator leaves a polynomial, already reduced
                g = polys.gcd(num, den)
                if len(g) > 1:
                    num = polys.exact_div(num, g)
                    den = polys.exact_div(den, g)
        lc = den[-1]
        if lc != 1:
            num = [c / lc for c in num]
            den = [c / lc for c in den]
        self.num = tuple(num)
        self.den = tuple(den)
        self._hash = hash((self.num, self.den))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_const(c) -> "FFElement":
        return FFElement([Fraction(c)])

    @staticmethod
    def gen() -> "FFElement":
        """The element t."""
        return FFElement([Fraction(0), Fraction(1)])

    @staticmethod
    def parse(text: str) -> "FFElement":
        num, den = parse_rational_function(text, var="t")
        return FFElement(num, den)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return len(self.num) == 0

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
        num = polys.add(
            polys.mul(list(self.num), list(other.den)),
            polys.mul(list(other.num), list(self.den)),
        )
        return FFElement(num, polys.mul(list(self.den), list(other.den)))

    __radd__ = __add__

    def __neg__(self):
        return FFElement([-c for c in self.num], list(self.den), _reduced=True)

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
        return FFElement(
            polys.mul(list(self.num), list(other.num)),
            polys.mul(list(self.den), list(other.den)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("FFElement division by zero")
        return FFElement(
            polys.mul(list(self.num), list(other.den)),
            polys.mul(list(self.den), list(other.num)),
        )

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
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return not self.is_zero

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FFElement({self!s})"

    def __str__(self):
        num = polys.to_string(list(self.num), var="t")
        if len(self.den) == 1 and self.den[0] == 1:
            return num
        den = polys.to_string(list(self.den), var="t")
        return f"({num})/({den})"


def ff_height(f: FFElement) -> int:
    """Height of an element of Q(t): max(deg numerator, deg denominator)."""
    if f.is_zero:
        return 0
    return max(polys.degree(list(f.num)), polys.degree(list(f.den)))


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
    """
    a = polys.strip([Fraction(x) for x in a])
    b = polys.strip([Fraction(x) for x in b])
    if polys.is_zero(a) or polys.is_zero(b):
        raise ValueError("a and b must be nonzero")
    if polys.degree(polys.gcd(a, b)) > 0:
        raise ValueError("a and b must be coprime")
    c = polys.add(a, b)
    if polys.is_zero(c):
        raise ValueError("a + b must be nonzero")
    if max(polys.degree(a), polys.degree(b), polys.degree(c)) < 1:
        raise ValueError("a, b, c must not all be constant")
    product = polys.mul(polys.mul(a, b), c)
    rad = polys.squarefree_part(product)
    max_degree = max(polys.degree(a), polys.degree(b), polys.degree(c))
    radical_degree = polys.degree(rad)
    return MasonReport(
        a=tuple(a),
        b=tuple(b),
        c=tuple(c),
        max_degree=max_degree,
        radical_degree=radical_degree,
        holds=max_degree <= radical_degree - 1,
        tight=max_degree == radical_degree - 1,
    )
