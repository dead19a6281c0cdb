"""The orbit walker's consumers against a naive loop over rmap.evaluate.

The naive loop keeps every value in a list and finds a repeat by list
search, so it shares nothing with maps.OrbitWalk but the map itself.
"""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from orbitprimes import INFINITY, RationalMap
from orbitprimes.errors import MapConstructionError, ResourceCapError
from orbitprimes.galois import critical_orbit, stoll_certificate
from orbitprimes.heights import canonical_height, classify_point
from orbitprimes.maps import OrbitWalk
from orbitprimes.zsigmondy import orbit
from oracles import canonical_height_exact, lower_bound_norm_oracle

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


def naive_walk(rmap, alpha, steps):
    """(values, repeat, capped): values[0] is alpha; the walk stops at the
    first value equal to an earlier one, with repeat = (n, tail)."""
    values = [alpha]
    for n in range(1, steps + 1):
        try:
            value = rmap.evaluate(values[-1])
        except ResourceCapError:
            return values, None, True
        repeat = next((k for k, v in enumerate(values) if v == value), None)
        values.append(value)
        if repeat is not None:
            return values, (n, repeat), False
    return values, None, False


def above_the_bound(rmap, value):
    """h(value) > c_phi / (d - 1) for c_phi = log B, B = max(L1(p), L1(q), W):
    H^(d-1) > B for the height H = max(|a|, |b|) of value = (a : b)."""
    bound = max(Fraction(sum(map(abs, rmap._p_form))), Fraction(sum(map(abs, rmap._q_form))),
                lower_bound_norm_oracle(rmap))
    a, b = (1, 0) if value is INFINITY else (value.numerator, value.denominator)
    return max(abs(a), b) ** (rmap.degree - 1) * bound.denominator > bound.numerator


def naive_orbit(rmap, alpha, depth):
    """Values phi^1..phi^depth and the termination (kind, zero, tail, period)."""
    values, repeat, capped = naive_walk(rmap, alpha, depth)
    for n in range(1, len(values)):
        if values[n] == 0 and (repeat is None or n < repeat[0]):
            return values[1:n + 1], ("hit-zero", n, None, None)
    if repeat is not None:
        n, tail = repeat
        period = n - tail
        while len(values) <= depth:
            values.append(values[len(values) - period])
        return values[1:], ("preperiodic", None, tail, period)
    return values[1:], ("resource-cap" if capped else "reached-n", None, None, None)


def _times_linear(coeffs, r):
    """Coefficients of (x - r) * sum coeffs[k] x^k."""
    out = [0] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k + 1] += c
        out[k] -= r * c
    return out


coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=4)
points = st.one_of(
    st.just(INFINITY),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def map_and_point(draw):
    num, den = draw(coeffs), draw(coeffs)
    if draw(st.booleans()):
        # alpha is a root of the numerator, so phi(alpha) = 0
        alpha = draw(st.integers(-2, 2))
        num = _times_linear(num, alpha)
        alpha = Fraction(alpha)
    else:
        alpha = draw(points)
    try:
        rmap = RationalMap(num, den, digit_cap=draw(st.sampled_from([5, 30, 300])))
    except MapConstructionError:
        assume(False)
    return rmap, alpha


def _case(num, den, alpha, cap):
    return RationalMap(num, den, digit_cap=cap), alpha


PREPERIODIC_AT_ZERO = _case([-1, 0, 1], [1], Fraction(0), 30)  # 0, -1, 0
HITS_ZERO = _case([-1, 0, 1], [1], Fraction(1), 30)  # 1, 0, -1, 0
CAPPED = _case([1, 0, 1], [1], Fraction(1), 5)
CAPPED_BELOW_THE_BOUND = _case([2**70, 0, 1], [1], Fraction(0), 5)  # 0, 2^70, cap
INFINITY_FIXED = _case([1, 0, 1], [1], INFINITY, 30)
INFINITY_TO_ZERO = _case([1], [0, 0, 1], INFINITY, 30)  # 1/x^2: inf, 0, inf


@SETTINGS
@given(case=map_and_point(), depth=st.integers(0, 12))
@example(case=PREPERIODIC_AT_ZERO, depth=6)
@example(case=HITS_ZERO, depth=6)
@example(case=CAPPED, depth=12)
@example(case=INFINITY_FIXED, depth=3)
@example(case=INFINITY_TO_ZERO, depth=5)
def test_orbit_matches_naive_loop(case, depth):
    rmap, alpha = case
    values, term = naive_orbit(rmap, alpha, depth)
    records, termination = orbit(rmap, alpha, depth)
    assert [r.n for r in records] == list(range(1, len(values) + 1))
    assert [r.value for r in records] == values
    assert (termination.kind, termination.zero_index, termination.tail,
            termination.period) == term


@SETTINGS
@given(case=map_and_point(), tol=st.sampled_from([1e-1, 1e-3, 1e-6]))
@example(case=PREPERIODIC_AT_ZERO, tol=1e-3)
@example(case=CAPPED, tol=1e-6)
def test_canonical_height_matches_naive_loop(case, tol):
    # the exact-orbit estimator is the oracle: equal where it finds a repeat
    # within N steps, and an interval meeting it everywhere
    rmap, alpha = case
    est = canonical_height(rmap, alpha, tol=tol)
    slow = canonical_height_exact(rmap, alpha, tol=tol)
    if slow.preperiodic:
        assert est == slow
    assert not est.capped and est.error_radius <= tol
    assert abs(est.estimate - slow.estimate) <= est.error_radius + slow.error_radius + 1e-12


@SETTINGS
@given(case=map_and_point(), max_steps=st.integers(0, 12))
@example(case=PREPERIODIC_AT_ZERO, max_steps=5)
@example(case=CAPPED, max_steps=12)
@example(case=CAPPED_BELOW_THE_BOUND, max_steps=12)
def test_classify_matches_naive_loop(case, max_steps):
    # a repeat first; else the first of alpha, ..., phi^max_steps(alpha)
    # above c_phi / (d - 1), the bound on every preperiodic height
    rmap, alpha = case
    values, repeat, capped = naive_walk(rmap, alpha, max_steps)
    cls = classify_point(rmap, alpha, max_steps=max_steps)
    if repeat is not None:
        n, tail = repeat
        assert (cls.kind, cls.tail, cls.period) == ("preperiodic", tail, n - tail)
        return
    if any(above_the_bound(rmap, v) for v in values):
        assert cls == ("wandering", None, None, "")
        return
    assert cls.kind == "inconclusive"
    assert cls.note == ("size cap reached before a certificate" if capped
                        else f"no certificate within {max_steps} steps")


@SETTINGS
@given(case=map_and_point(), ahead=st.integers(0, 12), max_steps=st.integers(0, 12))
@example(case=PREPERIODIC_AT_ZERO, ahead=7, max_steps=5)
@example(case=CAPPED, ahead=12, max_steps=12)
@example(case=CAPPED_BELOW_THE_BOUND, ahead=3, max_steps=12)
@example(case=HITS_ZERO, ahead=1, max_steps=0)
def test_classify_reads_an_advanced_walk_as_a_fresh_point(case, ahead, max_steps):
    # the walk's values are read, not evaluated again: evaluations past the
    # ones a fresh classification makes are only those made ahead
    rmap, alpha = case
    calls = []
    evaluate = RationalMap.evaluate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RationalMap, "evaluate",
                      lambda self, z: calls.append(z) or evaluate(self, z))
        fresh = classify_point(rmap, alpha, max_steps=max_steps)
        fresh_calls = len(calls)
        calls.clear()
        walk = OrbitWalk(rmap, alpha)
        list(islice(walk, ahead))
        ahead_calls = len(calls)
        assert classify_point(rmap, walk, max_steps=max_steps) == fresh
    assert len(calls) == max(ahead_calls, fresh_calls)
    assert canonical_height(rmap, walk, tol=1e-3) == canonical_height(rmap, alpha, tol=1e-3)


@SETTINGS
@given(a=st.integers(-20, 20), n=st.integers(0, 4))
def test_critical_orbit_and_admissibility_match_naive_loop(a, n):
    values, v = [], 0
    for _ in range(n + 1):
        v = v * v + a
        values.append(v)
    assert critical_orbit(a, n + 1) == values
    preperiodic = len(set(values) | {0}) < len(values) + 1
    if a == 0 or preperiodic:
        with pytest.raises(ValueError):
            stoll_certificate(a, n)
    else:
        assert stoll_certificate(a, n).critical_value == values[-1]


def test_critical_orbit_stops_at_the_digit_cap():
    # f^n(0) for x^2 + 2 passes 10^6 digits near n = 21
    with pytest.raises(ResourceCapError):
        critical_orbit(2, 40)
