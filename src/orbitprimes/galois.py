"""Iterated quadratic towers: discriminant recursion and square-free
certificates for f_a = x^2 + a.

A certificate at level n is an odd prime with valuation exactly 1 in
f_a^(n+1)(0) and valuation 0 in every earlier f_a^m(0): it witnesses that the
critical value is not a square in the level-n splitting field, hence the
maximal index 2^(2^n) at that level.  Certificates are one-sided: absence of
a certificate concludes nothing.  For positive a congruent to 1 or 2 mod 4
the maximal index is known unconditionally at every level; the reports
annotate that guarantee separately from the prime search.  The levels are
independent: `tower_report` searches all their parts in one square-free
search, and `stoll_certificate` is one level of it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional

from . import polys
from .errors import InvariantError, ResourceCapError
from .intplaces import DEFAULT_BUDGET
from .maps import OrbitWalk, RationalMap
from .polys import discriminant
from .zsigmondy import OrbitRecord, ZeroOrbit, primitive_part, squarefree_primitive_primes

# the discriminant recursion is checked up to level 5 (degree 32)
LEVEL_CAP = 5


def quadratic_iterate(a: int, m: int):
    """The m-th iterate of x^2 + a as an integer-coefficient polynomial."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return [0, 1]  # x
    _quadratic_map(a)._check_level(m)
    g = [a, 0, 1]
    for _ in range(m - 1):
        g = polys.add(polys.mul(g, g), [a])
    return g


def _quadratic_map(a: int) -> RationalMap:
    return RationalMap([a, 0, 1], [1])


def _walk_from_zero(a: int, length: int) -> OrbitWalk:
    """The orbit of 0 under x^2 + a, walked `length` steps; a value past the
    digit cap raises ResourceCapError."""
    walk = OrbitWalk(_quadratic_map(a), 0)
    for _ in islice(walk, length):
        pass
    if walk.cap_error is not None:
        raise walk.cap_error
    return walk


def critical_orbit(a: int, length: int):
    """f(0), f^2(0), ..., f^length(0) for f = x^2 + a."""
    return [v.numerator for v in _walk_from_zero(a, length).values[1:]]


class DiscRecursionCheck(NamedTuple):
    """Both sides of the one-step discriminant identity for f = x^2 + a:

        Disc(f^m) = 2^(2^m) * Disc(f^(m-1))^2 * f^m(0)      (m >= 2)

    The left side comes from an independent resultant computation on the
    expanded iterate; the right side uses a directly computed
    Disc(f^(m-1)).  The m = 1 row is anchored at the direct Disc(f) = -4a
    (there is no meaningful recursion step below it)."""

    a: int
    m: int
    lhs: Fraction
    rhs: Fraction
    equal: bool


def disc_recursion_check(a: int, m: int) -> DiscRecursionCheck:
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > LEVEL_CAP:
        raise ResourceCapError(f"level {m} exceeds cap {LEVEL_CAP}", cap=LEVEL_CAP)
    if a == 0:
        raise ValueError("a must be nonzero")
    fm = quadratic_iterate(a, m)
    lhs = discriminant(fm)
    if m == 1:
        rhs = lhs
    else:
        prev = discriminant(quadratic_iterate(a, m - 1))
        fm0 = Fraction(critical_orbit(a, m)[-1])
        rhs = Fraction(2) ** (2**m) * prev * prev * fm0
    return DiscRecursionCheck(a=a, m=m, lhs=lhs, rhs=rhs, equal=lhs == rhs)


class GaloisTowerRecord(NamedTuple):
    """Level-n certificate search outcome for f_a = x^2 + a.

    status: "certified" | "no-certificate" | "unresolved".
    stoll_guarantee: the unconditional congruence guarantee (a positive and
    a = 1, 2 mod 4) applies at every level regardless of the search outcome.
    """

    a: int
    n: int
    critical_value: int
    certificate: Optional[int]
    status: str
    stoll_guarantee: bool

    @property
    def established(self) -> bool:
        """Maximal index at this level is established by either route."""
        return self.status == "certified" or self.stoll_guarantee


def _check_admissible(a: int, depth: int) -> OrbitWalk:
    """The orbit of 0 walked to f^depth(0); a repeated value within that
    depth is an error naming the step where it shows."""
    if a == 0:
        raise ValueError("a must be nonzero")
    walk = _walk_from_zero(a, depth)
    if walk.tail is not None:
        raise ValueError(
            f"0 is preperiodic for x^2 + ({a}) within depth {walk.tail + walk.period}; "
            "the certificate search does not apply"
        )
    return walk


def stoll_certificate(a: int, n: int, budget: int = DEFAULT_BUDGET) -> GaloisTowerRecord:
    """Search f_a^(n+1)(0) for an odd prime with valuation 1 there and
    valuation 0 at every earlier critical value: the level-n record of
    `tower_report`.

    This is the odd primitive square-free prime of the orbit f(0), f^2(0),
    ... at f^(n+1)(0): only the odd part of the critical value coprime to
    the earlier values can contain a certificate, and gcd-stripping
    preserves the exponents of the surviving primes, so only that part is
    factored.  The orbit is that of 0 itself and x^2 + a has resultant 1,
    so the strip reads its divisors off the same walk.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return tower_report(a, n, budget)[n]


def _certificate_part(values, zero: ZeroOrbit) -> int:
    """The odd part of values[-1] stripped against the earlier values."""
    # a certificate is odd: 2 is stripped first, then the earlier values
    odd = abs(values[-1])
    odd >>= (odd & -odd).bit_length() - 1
    records = [OrbitRecord(n=k, value=v) for k, v in enumerate(values[:-1] + [odd], start=1)]
    return primitive_part(records, len(values), zero)


def _validate_certificate(p: int, values):
    """Re-check the definitional valuation conditions for a certificate."""
    critical = values[-1]
    if p == 2:
        raise InvariantError("certificate must be odd")
    v = 0
    m = abs(critical)
    while m % p == 0:
        m //= p
        v += 1
    if v != 1:
        raise InvariantError("certificate exponent is not 1")
    for earlier in values[:-1]:
        if earlier % p == 0:
            raise InvariantError("certificate divides an earlier critical value")


def tower_report(a: int, max_level: int, budget: int = DEFAULT_BUDGET):
    """Certificate search at every level n = 0..max_level, on one walk of
    the critical orbit, all levels in one square-free search."""
    if max_level < 0:
        return []
    walk = _check_admissible(a, max_level + 1)
    values = [v.numerator for v in walk.values[1 : max_level + 2]]
    zero = ZeroOrbit(_quadratic_map(a), walk)
    parts = [_certificate_part(values[: n + 1], zero) for n in range(max_level + 1)]
    records = []
    for n, (certificate, unresolved, _) in enumerate(squarefree_primitive_primes(parts, budget)):
        if certificate is not None:
            _validate_certificate(certificate, values[: n + 1])
            status = "certified"
        else:
            status = "unresolved" if unresolved else "no-certificate"
        records.append(GaloisTowerRecord(a=a, n=n, critical_value=values[n],
                                         certificate=certificate, status=status,
                                         stoll_guarantee=a > 0 and a % 4 in (1, 2)))
    return records
