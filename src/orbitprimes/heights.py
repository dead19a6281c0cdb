"""Weil and canonical heights over Q and Q(t).

Heights over Q use natural logs backed by exact integer data (the integer or
rational whose log a height is, when there is one, travels with the float).
Heights over Q(t) are exact integers.  The two regimes share the HeightValue
container but are never mixed numerically.

The height-change bound c_phi returned by phi_height_bound is rigorous on all
of P^1(Q); the construction is documented in that function.

One certificate proves alpha wandering: an orbit value above c_phi / (d-1),
the bound on every preperiodic height, decided on integers (_above).
classify_point and canonical_height walk the exact orbit below it the same
way, on one OrbitWalk a command hands on (_walk_below_bound, at most
MAX_STEPS steps): a repeat is preperiodic, with canonical height exactly 0,
and a value above it is wandering.  Otherwise canonical heights sum local
parts from the walk's last value (Call-Goldstine, J. Number Theory 63
(1997); Silverman, The Arithmetic of Dynamical Systems, 3.4-3.5 and 5.9):
the archimedean part on outward-rounded dyadic balls, the part at the
primes of the resultant on the orbit mod a power of it, so no orbit value
is built past small height.  The exact-orbit estimator h(phi^N(alpha)) / d^N
is the test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import polys
from .intplaces import log_fraction, log_int
from .maps import INFINITY, OrbitWalk, RationalMap, _form_content, as_point, point_to_pair


class HeightValue(NamedTuple):
    """A height: float on the log scale over Q, exact integer over Q(t).

    When the value is exactly log of a rational, `log_arg` carries that
    rational so downstream consumers can compare heights exactly.
    """

    value: float
    field: str  # "Q" | "Q(t)"
    log_arg: Optional[Fraction] = None

    def __float__(self):
        return float(self.value)


def weil_height(z, field: str = "Q") -> HeightValue:
    """h(z) = log max(|num|, |den|) over Q; max(deg num, deg den) over Q(t).

    Conventions: h(0) = 0 and h(infinity) = 0 (the points (0:1) and (1:0));
    `field` ("Q" or "Q(t)") is the field infinity is read over."""
    z = as_point(z)
    if z is INFINITY:
        return HeightValue(0.0, "Q", Fraction(1)) if field == "Q" else HeightValue(0, "Q(t)")
    if not isinstance(z, Fraction):  # as_point passes an FFElement through
        from .ffplaces import ff_height

        return HeightValue(value=ff_height(z), field="Q(t)", log_arg=None)
    arg = Fraction(max(abs(z.numerator), z.denominator))
    return HeightValue(value=log_fraction(arg), field="Q", log_arg=arg)


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
    constant is log B for B = max(L1(p), L1(q), W) of _bound_arg; it is an
    over-estimate by design and equals 0 exactly for monomial maps like x^d.
    """
    return log_fraction(_bound_arg(rmap))


def _bound_arg(rmap: RationalMap) -> Fraction:
    """B = max(L1(p), L1(q), W), at least 1 as W is: c_phi = log B exactly."""
    return max(Fraction(max(_abs_forms(rmap, 1, 1))), rmap.lower_bound_norm())


class CanonicalHeightEstimate(NamedTuple):
    """An interval estimate +- error_radius of the canonical height after
    N = iterations_used terms, the tail of the rest bounded by
    c_phi / (d^N * (1 - 1/d)) with c_phi rounded up.  `capped` flags a
    radius left above tol by the precision cap or the float resolution of
    the estimate; `preperiodic` flags the exact 0 of a repeated orbit value."""

    estimate: float
    error_radius: float
    iterations_used: int
    c_phi: float
    capped: bool = False
    preperiodic: bool = False


# The most evaluations of the exact walk below the wandering bound.
MAX_STEPS = 2000

# The archimedean sum runs on integers of this many bits first, and doubles
# them while that shrinks the radius, up to the cap.
_START_BITS = 128
_MAX_BITS = 4096


def canonical_height(rmap: RationalMap, alpha, tol: float = 1e-6) -> CanonicalHeightEstimate:
    """Estimate the canonical height of alpha with error radius <= tol.

    The orbit is walked exactly below the wandering bound, as classify_point
    walks it (_walk_below_bound, at most MAX_STEPS steps, on from the values
    of alpha when it is an OrbitWalk).  A repeat there gives an exact 0.
    Otherwise the walk's last value beta = phi^n(alpha) (the first above the
    bound, or the last below it before the digit cap or the step limit) gives
    hhat(alpha) = hhat(beta) / d^n, summed by local decomposition
    (_local_estimate), which builds no orbit value past beta.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    c_phi = phi_height_bound(rmap)
    walk = alpha if isinstance(alpha, OrbitWalk) else OrbitWalk(rmap, alpha)
    bound = _bound_arg(rmap)
    n, stop = _walk_below_bound(rmap, walk, bound, MAX_STEPS)
    if stop == "repeat":
        return CanonicalHeightEstimate(0.0, 0.0, iterations_used=n, c_phi=c_phi, preperiodic=True)
    c_up = Fraction(_log_bounds(bound.numerator, bound.denominator)[1]) if bound > 1 else 0
    return _local_estimate(rmap, walk.values[n], n, c_phi, c_up, tol)


def _walk_below_bound(rmap, walk, bound: Fraction, steps: int):
    """(n, stop): an OrbitWalk's exact orbit, at most `steps` evaluations,
    while its heights stay at most log(bound) / (d - 1) = c_phi / (d - 1).
    As |h - hhat| <= that (Call-Silverman, Compositio Math. 89 (1993)), it
    bounds every preperiodic height, and a value above it is wandering.
    `stop` says what ended the walk at walk.values[n], checked in this order:
    "repeat" (n = tail + period), "above", "steps" or "cap" (the digit cap).
    The walk is advanced only past the values it holds, and stops where a
    fresh walk would."""
    n = 0
    while walk.tail is None or n < walk.tail + walk.period:
        if _above(walk.values[n], bound, rmap.degree):
            return n, "above"
        if n >= steps:
            return n, "steps"
        if n + 1 == len(walk.values) and (walk.cap_error or next(walk, None) is None):
            return n, "cap"
        n += 1
    return n, "repeat"


def _above(value, bound: Fraction, d: int) -> bool:
    """h(value) > log(bound) / (d - 1): H^(d-1) * den > num for the height H
    of value and bound = num / den, decided on bit lengths where they can."""
    h, num, den = max(map(abs, point_to_pair(value))), bound.numerator, bound.denominator
    # 2^low <= H^(d-1) * den < 2^(low+d), and 2^(top-1) <= num < 2^top
    low, top = (d - 1) * (h.bit_length() - 1) + den.bit_length() - 1, num.bit_length()
    return low + d >= top and (low >= top or h ** (d - 1) * den > num)


def _local_estimate(rmap, beta, n: int, c_phi: float, c_up: Fraction, tol: float):
    """hhat(alpha) = hhat(beta) / d^n for beta = phi^n(alpha) = (a : b) with
    coprime integers, from the first terms of

        hhat(beta) = log max(|a|, |b|) + sum_k d^-(k+1) * (t_k - log g_k).

    With A_0 = (a, b) and A_(k+1) = Phi(A_k) / g_k for the integral forms
    Phi = (p, q), t_k = log ||Phi(A_k)|| - d log ||A_k|| (sup norm) is the
    archimedean part and g_k = gcd(p(A_k), q(A_k)), a divisor of the
    resultant R, the part at the primes of R.  t_k lies in
    [log(|R| / W), log L1] and log g_k in [0, log |R|], so each term lies in
    [-c_phi, c_phi] (phi_height_bound) and the terms after the first N - n
    change hhat(alpha) by at most the tail c_up * d / (d^N * (d - 1)), exact
    for c_up >= c_phi.  N is the least count whose tail, as a float, is at
    most tol / 2, which leaves the other half of tol to the width of the
    interval summed; a tail below the float range reads as 0.
    """
    d = rmap.degree
    tail_unit = c_up * d / (d - 1)  # the tail after N terms is tail_unit / d^N
    target_n = n
    while float(tail_unit / d**target_n) > tol / 2:
        target_n += 1
    a, b = point_to_pair(beta)
    contents = [tuple(map(_units, _log_bounds(g, 1)))
                for g in _form_contents(rmap, a, b, target_n - n)]
    start = _log_bounds(max(abs(a), abs(b)), 1)
    bits, radius = _START_BITS, None
    while True:
        lo = hi = 0  # d^k 2^_UNIT_BITS times the sum of the first k terms
        terms = _archimedean(rmap, a, b, target_n - n, bits)
        for (t_lo, t_hi), (g_lo, g_hi) in zip(terms, contents):
            lo = lo * d + _units(t_lo) - g_hi
            hi = hi * d + _units(t_hi) - g_lo
        k = len(terms)
        unit = Fraction(1, d ** k << _UNIT_BITS)
        lo = (Fraction(start[0]) + lo * unit) / d**n
        hi = (Fraction(start[1]) + hi * unit) / d**n
        mid = (lo + hi) / 2
        estimate = float(mid)
        exact = (hi - lo) / 2 + abs(Fraction(estimate) - mid) + tail_unit / d ** (n + k)
        last, radius = radius, float(exact)
        if Fraction(radius) < exact:
            radius = math.nextafter(radius, math.inf)
        if radius <= tol or bits >= _MAX_BITS or (last is not None and radius > last / 2):
            return CanonicalHeightEstimate(estimate, radius, iterations_used=n + k, c_phi=c_phi,
                                           capped=radius > tol)
        bits *= 2


# Every float is an integer multiple of 2^-1074, so of 2^-_UNIT_BITS.
_UNIT_BITS = 1100


def _units(x: float) -> int:
    """x * 2^_UNIT_BITS, exactly."""
    num, den = x.as_integer_ratio()
    return num << (_UNIT_BITS + 1 - den.bit_length())


def _form_contents(rmap, a: int, b: int, m: int) -> list:
    """g_k = gcd(p(A_k), q(A_k)) for k < m along the reduced orbit A_0 = (a, b),
    A_(k+1) = Phi(A_k) / g_k, read from (a, b) mod |R|^(m+1): each g_k
    divides R, and a step divides it out of the values and the modulus."""
    r = abs(rmap.resultant)
    if r == 1:
        return [1] * m
    modulus = r ** (m + 1)
    a, b = a % modulus, b % modulus
    contents = []
    for _ in range(m):
        g = _form_content(rmap, a, b)
        pv, qv = rmap._eval_forms(a, b)
        modulus //= g
        a, b = pv // g % modulus, qv // g % modulus
        contents.append(g)
    return contents


def _archimedean(rmap, a: int, b: int, m: int, bits: int) -> list:
    """Float bounds (lo, hi) on t_k for k < m, fewer when the box grows as
    wide as its coordinates first.

    The orbit of (a : b) is walked as a box of two integer balls (center,
    radius) that holds a real multiple of each A_k: exact while its
    coordinates have at most `bits` bits, after that rescaled at each step
    so the larger coordinate is exactly 2^(bits-1) and the other is rounded
    outward.  t_k does not change under scaling, so its bounds come from the
    norms of the box and of the forms' values on it."""
    d = rmap.degree
    box = _rescaled((a, 0), (b, 0), bits)
    terms = []
    for _ in range(m):
        if max(box[0][1], box[1][1]).bit_length() >= bits:
            break  # as wide as its larger coordinate: no bound left to gain
        image = _ball_forms(rmap, *box)
        out_lo, out_hi = _norm_bounds(*image)
        if out_lo <= 0:
            break
        in_lo, in_hi = _norm_bounds(*box)
        terms.append((_log_bounds(out_lo, in_hi**d)[0], _log_bounds(out_hi, in_lo**d)[1]))
        box = _rescaled(*image, bits)
    return terms


def _ball_forms(rmap, x, y):
    """The forms on the box x * y of (center, radius) balls: balls holding
    p(u, v) and q(u, v) for every (u, v) in the box.  Each monomial moves by
    at most (|xc| + xr)^i (|yc| + yr)^j - |xc|^i |yc|^j."""
    (xc, xr), (yc, yr) = x, y
    pv, qv = rmap._eval_forms(xc, yc)
    if not (xr or yr):
        return (pv, 0), (qv, 0)
    wide = _abs_forms(rmap, abs(xc) + xr, abs(yc) + yr)
    tight = _abs_forms(rmap, abs(xc), abs(yc))
    return (pv, wide[0] - tight[0]), (qv, wide[1] - tight[1])


def _abs_forms(rmap, u: int, v: int):
    """The forms with their coefficients made positive, at u, v >= 0."""
    d = rmap.degree
    u_pows = [u**i for i in range(d + 1)]
    v_pows = [v**i for i in range(d + 1)]
    return tuple(sum(abs(c) * u_pows[i] * v_pows[d - i] for i, c in enumerate(form))
                 for form in (rmap._p_form, rmap._q_form))


def _norm_bounds(x, y):
    """Bounds on max(|u|, |v|) over the box x * y (the lower one may be <= 0)."""
    (xc, xr), (yc, yr) = x, y
    return max(abs(xc) - xr, abs(yc) - yr), max(abs(xc) + xr, abs(yc) + yr)


def _rescaled(x, y, bits: int):
    """The box x * y itself while it is exact on `bits`-bit integers; else a
    box holding a real multiple of each of its points, with the coordinate of
    larger lower bound (a ball without 0) exactly 2^(bits-1) and the other
    its quotient by it times 2^(bits-1), rounded outward."""
    (xc, xr), (yc, yr) = x, y
    if not (xr or yr) and max(abs(xc), abs(yc)).bit_length() <= bits:
        return x, y
    swap = abs(yc) - yr > abs(xc) - xr
    (xc, xr), (yc, yr) = (y, x) if swap else (x, y)
    unit = 1 << (bits - 1)
    ends = [(y * unit, x) for y in (yc - yr, yc + yr) for x in (xc - xr, xc + xr)]
    q_lo = min(num // den for num, den in ends)
    q_hi = max(-(-num // den) for num, den in ends)
    center = (q_lo + q_hi) >> 1
    other = (center, q_hi - center)
    return (other, (unit, 0)) if swap else ((unit, 0), other)


def _log_bounds(num: int, den: int):
    """Floats lo <= log(num / den) <= hi for positive integers.  An int
    quotient is correctly rounded, so log1p of (num - den) / den is off by at
    most |x| / (1 + x) * 2^-53 before the libm and final roundings."""
    try:
        if 2 * num >= den:
            x = (num - den) / den
            value = math.log1p(x)
            err = abs(x) / (1 + x) * 2**-52
        else:
            value = math.log(num / den)
            err = 2**-52
    except (OverflowError, ValueError):  # the quotient leaves the float range
        big, small = log_int(num), log_int(den)
        value = big - small
        err = (abs(big) + abs(small)) * 2**-40
    err += 4 * math.ulp(value)
    return value - err, value + err


class PointClassification(NamedTuple):
    kind: str  # "wandering" | "preperiodic" | "inconclusive"
    tail: Optional[int] = None
    period: Optional[int] = None
    note: str = ""


def classify_point(rmap: RationalMap, alpha, max_steps: int = MAX_STEPS) -> PointClassification:
    """Decide wandering vs preperiodic with certificates.

    Preperiodic: an exact repeat gives (tail, period).  Wandering: one of
    alpha, phi(alpha), ..., phi^max_steps(alpha) lies above the wandering
    bound of _walk_below_bound, so hhat(alpha) > 0.  Inconclusive only when
    the step budget or the digit cap comes first, which is reported, never
    silent.  An OrbitWalk as alpha is read, not evaluated again, and can be
    handed on to canonical_height.
    """
    walk = alpha if isinstance(alpha, OrbitWalk) else OrbitWalk(rmap, alpha)
    stop = _walk_below_bound(rmap, walk, _bound_arg(rmap), max_steps)[1]
    if stop == "repeat":
        return PointClassification(kind="preperiodic", tail=walk.tail, period=walk.period)
    if stop == "above":
        return PointClassification(kind="wandering")
    note = ("size cap reached before a certificate" if stop == "cap"
            else f"no certificate within {max_steps} steps")
    return PointClassification(kind="inconclusive", note=note)
