"""Weil and canonical heights over Q and Q(t).

Heights over Q use natural logs backed by exact integer data (the integer or
rational whose log a height is, when there is one, travels with the float).
Heights over Q(t) are exact integers.  The two regimes share the HeightValue
container but are never mixed numerically.

The height-change bound c_phi returned by phi_height_bound is rigorous on all
of P^1(Q); the construction is documented in that function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional

from . import polys
from .ffplaces import FFElement, ff_height
from .intplaces import log_fraction, log_int
from .maps import INFINITY, OrbitWalk, RationalMap, as_point


@dataclass(frozen=True)
class HeightValue:
    """A height: float on the log scale over Q, exact integer over Q(t).

    When the value is exactly log of a rational, `log_arg` carries that
    rational so downstream consumers can compare heights exactly.
    """

    value: float
    field: str  # "Q" | "Q(t)"
    log_arg: Optional[Fraction] = None

    def __float__(self):
        return float(self.value)


def weil_height(z) -> HeightValue:
    """h(z) = log max(|num|, |den|) over Q; max(deg num, deg den) over Q(t).

    Conventions: h(0) = 0 and h(infinity) = 0 (the points (0:1) and (1:0))."""
    if isinstance(z, FFElement):
        return HeightValue(value=ff_height(z), field="Q(t)", log_arg=None)
    z = as_point(z)
    if z is INFINITY:
        return HeightValue(value=0.0, field="Q", log_arg=Fraction(1))
    arg = Fraction(max(abs(z.numerator), z.denominator))
    return HeightValue(value=log_fraction(arg), field="Q", log_arg=arg)


def height_float(z) -> float:
    """Bare float height of an extended rational (hot-path helper)."""
    if z is INFINITY:
        return 0.0
    n, d = abs(z.numerator), z.denominator
    return log_int(max(n, d))


def multi_height(values) -> HeightValue:
    """Height of a tuple of rationals, computed exactly over a common denominator.

    Equals log(max_i |a_i| / gcd_i(a_i)) where z_i = a_i / L; in particular
    h(z, 1) agrees with weil_height(z).
    """
    vals = [Fraction(v) for v in values]
    if not vals or all(v == 0 for v in vals):
        raise ValueError("multi_height needs a tuple with a nonzero entry")
    arg = Fraction(max(abs(a) for a in polys.to_integer(vals)))
    return HeightValue(value=log_fraction(arg), field="Q", log_arg=arg)


def phi_height_bound(rmap: RationalMap) -> float:
    """An explicit C with |h(phi(z)) - d*h(z)| <= C for every z in P^1(Q).

    Write z = (a : b) with coprime integers and H = max(|a|, |b|); let p, q be
    the integral degree-d forms of the map and R = Res(p, q) != 0.

    Upper side: |p(a,b)| <= L1(p) * H^d and likewise for q, and reducing the
    image fraction only shrinks it, so h(phi(z)) <= d*h(z) + log max(L1(p), L1(q)).

    Lower side: solving the (invertible, determinant +-R) Sylvester-style
    linear systems produces integer forms u, v, s, t of degree d-1 with

        u*p + v*q = R * x^(2d-1)   and   s*p + t*q = R * y^(2d-1).

    Evaluating at (a, b) and using |u(a,b)| <= L1(u) * H^(d-1) gives
    |R| * H^(2d-1) <= W * H^(d-1) * max(|p(a,b)|, |q(a,b)|) with
    W = max(L1(u) + L1(v), L1(s) + L1(t)).  The same identities show the
    common factor g = gcd(p(a,b), q(a,b)) divides R (since gcd(a, b) = 1), so

        H(phi(z)) = max(|p|, |q|) / g >= H^d / W,

    i.e. h(phi(z)) >= d*h(z) - log W.  W (at least 1) is solved once per map
    by `RationalMap.lower_bound_norm`, which `RationalMap.evaluate` also uses
    to refuse a step past the digit cap before multiplying.  The returned
    constant is max(log max(L1(p), L1(q)), log W); it is an over-estimate by
    design and equals 0 exactly for monomial maps like x^d.
    """
    upper_arg = max(sum(abs(c) for c in rmap._p_form), sum(abs(c) for c in rmap._q_form))
    return max(log_fraction(Fraction(upper_arg)), log_fraction(rmap.lower_bound_norm()), 0.0)


@dataclass(frozen=True)
class CanonicalHeightEstimate:
    """h(phi^N(alpha)) / d^N with the rigorous geometric tail radius
    c_phi / (d^N * (1 - 1/d)).  `capped` flags an early stop on the size cap;
    `preperiodic` flags the exact-zero fast path (a repeated orbit value)."""

    estimate: float
    error_radius: float
    iterations_used: int
    c_phi: float
    capped: bool = False
    preperiodic: bool = False


def _tail_radius(c_phi: float, d: int, n: int) -> float:
    if c_phi == 0.0:
        return 0.0
    try:
        return c_phi / (d**n * (1.0 - 1.0 / d))
    except OverflowError:  # d^n past the float range: divide exactly
        return float(Fraction(c_phi) / (d**n - d ** (n - 1)))


def _estimate_at_last(walk: OrbitWalk, c_phi: float, d: int) -> CanonicalHeightEstimate:
    """h(phi^N(alpha)) / d^N at the walk's last value phi^N(alpha)."""
    n = len(walk.values) - 1
    return CanonicalHeightEstimate(
        estimate=height_float(walk.values[-1]) / d**n,
        error_radius=_tail_radius(c_phi, d, n),
        iterations_used=n,
        c_phi=c_phi,
        capped=walk.cap_error is not None,
    )


def canonical_height(rmap: RationalMap, alpha, tol: float = 1e-6) -> CanonicalHeightEstimate:
    """Estimate the canonical height of alpha with error radius <= tol.

    The iteration count N is the minimal one whose tail radius meets tol; a
    repeated orbit value short-circuits to an exact 0.  If the orbit hits the
    size cap first, the best available estimate is returned with its (larger)
    radius and the capped flag set.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    c_phi = phi_height_bound(rmap)
    d = rmap.degree
    target_n = 0
    while _tail_radius(c_phi, d, target_n) > tol:
        target_n += 1
    walk = OrbitWalk(rmap, alpha)
    for n, _ in islice(walk, target_n):
        if walk.tail is not None:
            return CanonicalHeightEstimate(
                estimate=0.0,
                error_radius=0.0,
                iterations_used=n,
                c_phi=c_phi,
                preperiodic=True,
            )
    return _estimate_at_last(walk, c_phi, d)


@dataclass(frozen=True)
class PointClassification:
    kind: str  # "wandering" | "preperiodic" | "inconclusive"
    tail: Optional[int] = None
    period: Optional[int] = None
    height_estimate: Optional[CanonicalHeightEstimate] = None
    note: str = ""


def classify_point(rmap: RationalMap, alpha, max_steps: int = 2000) -> PointClassification:
    """Decide wandering vs preperiodic with certificates.

    Preperiodic: an exact repeat gives (tail, period).  Wandering: the running
    canonical-height estimate strictly exceeds its rigorous error radius
    (positive canonical height).  Inconclusive only when the step budget or
    size cap prevents both certificates, which is reported, never silent.
    """
    c_phi = phi_height_bound(rmap)
    d = rmap.degree
    walk = OrbitWalk(rmap, alpha)
    for _ in islice(walk, max_steps):
        if walk.tail is not None:
            return PointClassification(kind="preperiodic", tail=walk.tail, period=walk.period)
        est = _estimate_at_last(walk, c_phi, d)
        if est.estimate > est.error_radius:
            return PointClassification(kind="wandering", height_estimate=est)
    if walk.cap_error is not None:
        # The last value already dwarfs every preperiodic height.
        est = _estimate_at_last(walk, c_phi, d)
        if est.estimate > est.error_radius:
            return PointClassification(kind="wandering", height_estimate=est)
        return PointClassification(
            kind="inconclusive", note="size cap reached before a certificate"
        )
    return PointClassification(
        kind="inconclusive", note=f"no certificate within {max_steps} steps"
    )
