"""Rational map core: construction, iterates, evaluation, reduction,
ramification."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from orbitprimes import (
    INFINITY,
    MapConstructionError,
    RationalMap,
    RationalMapFF,
    ResourceCapError,
)
from orbitprimes import polys, prop_old_diagnostic, quadratic_iterate
from orbitprimes.ffplaces import FFElement
from orbitprimes.maps import ITERATE_DEGREE_CAP
from oracles import (
    evaluate_exact,
    good_reduction_literal,
    iterate_forms,
    lower_bound_norm_oracle,
    preimage_count_oracle,
    qq_poly,
    ramification_profile_oracle,
    reduce_and_step,
    sylvester_resultant,
)


def random_map(rng, degree_choices=(2, 3), span=9):
    while True:
        d = rng.choice(degree_choices)
        num = [rng.randint(-span, span) for _ in range(d + 1)]
        den = [rng.randint(-span, span) for _ in range(d + 1)]
        if all(c == 0 for c in num) or all(c == 0 for c in den):
            continue
        if max(len(polys.strip(num)), len(polys.strip(den))) - 1 != d:
            continue
        try:
            return RationalMap(num, den)
        except MapConstructionError:
            continue


def random_point(rng, span=10):
    den = rng.randint(1, span)
    num = rng.randint(-span, span)
    return Fraction(num, den)


# -- construction -----------------------------------------------------------

def test_parse_examples():
    m = RationalMap.parse("x^2+1")
    assert m.numer_coeffs == (1, 0, 1)
    assert m.denom_coeffs == (1,)
    assert m.degree == 2

    m = RationalMap.parse("1/x^2")
    assert m.numer_coeffs == (1,)
    assert m.denom_coeffs == (0, 0, 1)
    assert m.degree == 2

    with pytest.raises(MapConstructionError) as info:
        RationalMap.parse("(x^2-1)/(x-1)")
    message = str(info.value)
    assert "common factor" in message and "x - 1" in message and "degree 1" in message

    with pytest.raises(MapConstructionError):
        RationalMap.parse("x+3")
    with pytest.raises(MapConstructionError):
        RationalMap([1, 1], [1])  # degree 1
    with pytest.raises(MapConstructionError) as info:
        RationalMap([0, 1, 1], [0, 1])  # shared root x = 0
    assert str(info.value) == "numerator and denominator share a root: common factor x"


def test_construction_refuses_exactly_the_pairs_with_a_common_factor():
    # the form resultant decides coprimality; a PRS gcd over Z[x] agrees.
    # Half the pairs get a common factor x - r, which may cancel to degree < 2.
    rng = random.Random(7)
    shared_count = 0
    for _ in range(300):
        num = polys.strip([rng.randint(-2, 2) for _ in range(rng.randint(1, 4))])
        den = polys.strip([rng.randint(-2, 2) for _ in range(rng.randint(1, 4))])
        if rng.random() < 0.5:
            r = rng.randint(-2, 2)
            num, den = polys.mul(num, [-r, 1]), polys.mul(den, [-r, 1])
        if polys.is_zero(num) or polys.is_zero(den) or max(polys.degree(num),
                                                          polys.degree(den)) < 2:
            continue
        shared = polys.degree(polys.int_poly_gcd(num, den)) > 0
        shared_count += shared
        try:
            RationalMap(num, den)
        except MapConstructionError as exc:
            assert shared and "common factor" in str(exc)
        else:
            assert not shared
    assert shared_count > 50


def test_normalization():
    m = RationalMap.parse("x^2 + 1/2")
    assert m.numer_coeffs == (1, 0, 2)
    assert m.denom_coeffs == (2,)
    # joint content removed, denominator leading sign positive
    m2 = RationalMap([2, 0, 2], [-4])
    assert m2.denom_coeffs[0] > 0
    from math import gcd

    g = 0
    for c in m2.numer_coeffs + m2.denom_coeffs:
        g = gcd(g, abs(c))
    assert g == 1


def test_parse_reduces_when_still_degree_two():
    # (x^3 - x) / (x - 1) = x^2 + x as an element of Q(x)
    m = RationalMap.parse("(x^3-x)/(x-1)")
    assert m.numer_coeffs == (0, 1, 1)
    assert m.denom_coeffs == (1,)


def test_canonical_string_round_trips(corpus_maps):
    for m in corpus_maps:
        again = RationalMap.parse(m.to_string())
        assert again == m


# -- iterates ----------------------------------------------------------------

def _eval_form(coeffs, a, b):
    big = len(coeffs) - 1
    return sum(c * a**k * b ** (big - k) for k, c in enumerate(coeffs))


def test_iterate_examples():
    m = RationalMap.parse("x^2+1")
    assert iterate_forms(m, 2) == ([2, 0, 2, 0, 1], [1, 0, 0, 0, 0])  # x^4 + 2x^2 + 2
    assert iterate_forms(RationalMap.parse("1/x^2"), 2) == ([0, 0, 0, 0, 1], [1, 0, 0, 0, 0])
    assert iterate_forms(m, 1) == (list(m._p_form), list(m._q_form))


def test_iterate_cap():
    # the degree cap names the first level past it, before any walk
    m = RationalMap.parse("x^2+1")
    with pytest.raises(ResourceCapError, match=r"^iterate degree 2\^13 exceeds cap 4096$"):
        prop_old_diagnostic(m, 1, [1, 0, 1], 13, 6, 0.125)
    # the period screen's levels past the cap are refused after level i passes
    quintic = RationalMap.parse("x^5+1")
    with pytest.raises(ResourceCapError, match=r"^iterate degree 5\^6 exceeds cap 4096$"):
        prop_old_diagnostic(quintic, 1, [1, 0, 0, 0, 0, 1], 1, 6, 0.125)
    # a non-divisor is refused before the period screen's cap
    with pytest.raises(ValueError, match="does not divide"):
        prop_old_diagnostic(quintic, 1, [1, 0, 1], 1, 6, 0.125)
    with pytest.raises(ResourceCapError, match=r"^iterate degree 2\^13 exceeds cap 4096$"):
        quadratic_iterate(3, 13)


def test_iterate_matches_repeated_evaluation(corpus_maps):
    # spec property: 50 random maps, evaluate^n == P_n/Q_n exactly for n <= 4
    rng = random.Random(2024)
    maps = [random_map(rng) for _ in range(50)]
    for m in maps:
        z = random_point(rng)
        a, b = z.numerator, z.denominator
        direct = z
        for n in range(1, 5):
            direct = m.evaluate(direct)
            p_n, q_n = iterate_forms(m, n)
            pv, qv = _eval_form(p_n, a, b), _eval_form(q_n, a, b)
            assert direct == (INFINITY if qv == 0 else Fraction(pv, qv))


def test_resultant_nonzero_and_matches_oracle(corpus_maps):
    rng = random.Random(5)
    maps = corpus_maps + [random_map(rng) for _ in range(20)]
    for m in maps:
        assert m.resultant != 0
        d = m.degree
        p = [Fraction(c) for c in m._p_form]
        q = [Fraction(c) for c in m._q_form]
        # degree-complete forms: the binary-form resultant equals the
        # univariate Sylvester determinant on the padded coefficient vectors
        from orbitprimes.polys import form_resultant

        assert m.resultant == form_resultant(list(m._p_form), list(m._q_form), d)


# -- evaluation ----------------------------------------------------------------

def test_evaluate_examples():
    m = RationalMap.parse("x^2+1")
    assert m.evaluate(7) == 50
    assert m.evaluate(INFINITY) is INFINITY
    mx = RationalMap.parse("(x^2+1)/x")
    assert mx.evaluate(0) is INFINITY
    assert mx.evaluate(INFINITY) is INFINITY
    inv = RationalMap.parse("1/x^2")
    assert inv.evaluate(0) is INFINITY
    assert inv.evaluate(INFINITY) == 0


def test_evaluate_always_reduced(corpus_maps):
    rng = random.Random(77)
    for m in corpus_maps:
        for _ in range(50):
            z = random_point(rng)
            v = m.evaluate(z)
            if v is INFINITY:
                continue
            assert isinstance(v, Fraction)  # Fractions auto-normalize


cap_coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=4) | st.lists(
    st.integers(-(2**45), 2**45), min_size=1, max_size=4)


@st.composite
def points_of_any_height(draw):
    if draw(st.integers(0, 5)) == 0:
        return INFINITY
    bits = draw(st.integers(1, 700))
    num = draw(st.integers(2 ** (bits - 1), 2**bits)) * draw(st.sampled_from([1, -1]))
    return Fraction(num, draw(st.integers(1, 2 ** draw(st.integers(0, bits)))))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(num=cap_coeffs, den=cap_coeffs, z=points_of_any_height(), cap=st.sampled_from([5, 30, 300]))
@example(num=[1, 0, 1], den=[1], z=Fraction(2**100), cap=5)  # refused before the forms
@example(num=[1, 0, 0, 1], den=[-(2**40), 1], z=Fraction(2**40), cap=5)  # a root of q: inf
@example(num=[5, 0, 0, 7], den=[-(2**60), 1], z=Fraction(2**60), cap=5)
@example(num=[1, 0, 1], den=[1], z=INFINITY, cap=5)
def test_evaluate_refuses_exactly_when_the_forms_pass_the_cap(num, den, z, cap):
    try:
        rmap = RationalMap(num, den, digit_cap=cap)
    except MapConstructionError:
        assume(False)
    try:
        expected = evaluate_exact(rmap, z)
    except ResourceCapError:
        with pytest.raises(ResourceCapError, match=f"{cap}-digit cap"):
            rmap.evaluate(z)
    else:
        assert rmap.evaluate(z) == expected


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(num=st.lists(small_fractions, min_size=1, max_size=4),
       den=st.lists(small_fractions, min_size=1, max_size=4), z=points_of_any_height())
@example(num=[Fraction(-3, 4), 0, 2], den=[1], z=Fraction(3, 2))  # content 8
@example(num=[1, 0, 3], den=[-2, 0, 1], z=Fraction(1))  # q(1, 1) < 0: -4
@example(num=[Fraction(-1, 2), 0, Fraction(1, 2)], den=[1], z=Fraction(-1))  # p(-1, 1) = 0
def test_evaluate_reduces_by_the_form_content(num, den, z):
    """evaluate divides by the content read mod R and builds its Fraction
    without a gcd; the result equals Fraction(p(a, b), q(a, b))."""
    try:
        rmap = RationalMap(num, den)
    except MapConstructionError:
        assume(False)
    assume(abs(rmap.resultant) != 1)
    value, expected = rmap.evaluate(z), evaluate_exact(rmap, z)
    if expected is INFINITY:
        assert value is INFINITY
        return
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
    assert hash(value) == hash(expected)


# -- reduction ------------------------------------------------------------------

def test_bad_reduction_examples():
    assert RationalMap.parse("x^2+1").bad_reduction_primes().primes == frozenset()
    bad = RationalMap.parse("x^2+1/2").bad_reduction_primes()
    assert bad.primes == frozenset({2})
    assert bad.resultant == 16
    assert RationalMap.parse("x^2").bad_reduction_primes().primes == frozenset()


PRIMES_TO_50 = [p for p in range(2, 51) if all(p % q for q in range(2, p))]


@st.composite
def integral_maps(draw, coefficient):
    """A RationalMap of degree 2-4 whose numerator and denominator
    coefficients are drawn from the given strategy."""
    d = draw(st.integers(2, 4))
    num = draw(st.lists(coefficient, min_size=d + 1, max_size=d + 1))
    den = draw(st.lists(coefficient, min_size=1, max_size=d + 1))
    try:
        return RationalMap(num, den)
    except MapConstructionError:
        assume(False)


# 0 or +-2^a 3^b 5^c 7^e: the resultants are rich in small primes
smooth_coefficients = st.builds(
    lambda sign, a, b, c, e: sign * 2**a * 3**b * 5**c * 7**e,
    st.sampled_from([-1, 0, 1]), *[st.integers(0, 2)] * 4,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rmap=integral_maps(smooth_coefficients))
@example(rmap=RationalMap([1, 0, 2], [2]))  # (2x^2 + 1)/2: Q vanishes mod 2
@example(rmap=RationalMap([0, 0, 6], [1, 0, 0, 6]))  # both forms vanish at infinity mod 2, 3
def test_bad_reduction_confirms_with_literal_test(rmap):
    # p | Res(P, Q) for the content-1 model decides, against the literal
    # two-condition test over F_p
    bad = rmap.bad_reduction_primes(budget=0)  # trial division finds every p <= 50
    for p in PRIMES_TO_50:
        literal = good_reduction_literal(rmap, p)
        assert (rmap.resultant % p != 0) == literal
        assert (p in bad.primes) == (not literal)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rmap=integral_maps(st.integers(-30, 30)))
def test_lower_bound_norm_solves_the_transposed_sylvester_matrix(rmap):
    assert rmap.lower_bound_norm() == lower_bound_norm_oracle(rmap)


def test_reduce_and_step_examples():
    m = RationalMap.parse("x^2+1")
    assert reduce_and_step(m, 7, 5) == (0, 0)
    assert reduce_and_step(m, Fraction(3, 5), 5) == (INFINITY, INFINITY)
    assert reduce_and_step(RationalMap.parse("x^2"), 2, 3) == (1, 1)
    with pytest.raises(ValueError, match="bad reduction"):
        reduce_and_step(RationalMap.parse("x^2+1/2"), 1, 2)


def test_reduce_and_step_exhaustive(corpus_maps):
    # the commuting-square property at every good prime <= 100 and every
    # residue class, exhaustively
    primes = [p for p in range(2, 101) if all(p % d for d in range(2, p))]
    for m in corpus_maps:
        bad = m.bad_reduction_primes().primes
        for p in primes:
            if p in bad:
                continue
            for r in range(p):
                stepped, reduced = reduce_and_step(m, r, p)
                assert stepped == reduced
            stepped, reduced = reduce_and_step(m, INFINITY, p)
            assert stepped == reduced


# -- structure -------------------------------------------------------------------

def test_power_map_predicate():
    assert RationalMap.parse("3x^2").is_power_map()
    assert RationalMap.parse("5/x^3").is_power_map()
    assert not RationalMap.parse("x^2+1").is_power_map()
    assert not RationalMap.parse("(x^2+1)/x").is_power_map()


def test_preimage_count_examples():
    sq = RationalMap.parse("x^2")
    assert sq.preimage_count(1, 1) == 2
    assert sq.preimage_count(0, 3) == 1  # 0 is exceptional for x^2
    assert sq.preimage_count(INFINITY, 2) == 1
    assert RationalMap.parse("x^2+1").preimage_count(0, 1) == 2


def test_preimage_count_bounds(corpus_maps):
    rng = random.Random(8)
    for m in corpus_maps:
        for _ in range(5):
            beta = random_point(rng, span=4)
            for n in (1, 2, 3):
                if m.degree**n > ITERATE_DEGREE_CAP:
                    break
                count = m.preimage_count(beta, n)
                assert 0 < count <= m.degree**n
            # non-exceptional beta must have at least two third-preimages
            if m.degree**3 <= ITERATE_DEGREE_CAP:
                second = m.preimage_count(beta, 2)
                phi2 = m.evaluate(m.evaluate(beta))
                if not (second == 1 and phi2 == beta):
                    assert m.preimage_count(beta, 3) >= 2


def test_ramification_profiles():
    m = RationalMap.parse("(x-1)^2")
    prof = m.ramification_profile(1)
    assert prof.finite_multiplicities == ((2, 1),)
    assert prof.simple_root_count == 0

    m2 = RationalMap.parse("x^2+1")
    assert m2.ramification_profile(1).simple_root_count == 2
    assert m2.ramification_profile(2).simple_root_count == 4

    # multiplicities always fill up d^n
    rng = random.Random(10)
    for m in [random_map(rng) for _ in range(10)]:
        for n in (1, 2):
            prof = m.ramification_profile(n)
            assert prof.total == m.degree**n


def _profile_pair(rmap, n):
    prof = rmap.ramification_profile(n)
    simple = dict(prof.finite_multiplicities).get(1, 0) + (prof.infinity_multiplicity == 1)
    assert prof.simple_root_count == simple
    return prof.finite_multiplicities, prof.infinity_multiplicity


map_coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
fibre_points = st.one_of(
    st.just(INFINITY),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(num=map_coeffs, den=map_coeffs, betas=st.lists(fibre_points, min_size=1, max_size=3))
@example(num=[2, -3, 0, 1], den=[1], betas=[Fraction(0), Fraction(4)])  # x^3-3x+2: a split
@example(num=[1], den=[-2, 0, 1], betas=[INFINITY, Fraction(0)])  # infinity critical, -> 0
def test_fibres_match_the_expanded_iterate(num, den, betas):
    """Critical-orbit profiles and preimage counts against square-free
    decompositions of the degree-d^n iterate, for every d^n <= 256."""
    try:
        rmap = RationalMap(num, den)
    except MapConstructionError:
        assume(False)
    fresh = RationalMap(num, den)  # no walk shared with rmap
    n = 1
    while rmap.degree**n <= 256:
        assert _profile_pair(rmap, n) == ramification_profile_oracle(fresh, n)
        for beta in betas:
            assert rmap.preimage_count(beta, n) == preimage_count_oracle(fresh, beta, n)
        n += 1


def _padded(coeffs, size):
    return [Fraction(c) for c in coeffs] + [Fraction(0)] * (size - len(coeffs))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(num=map_coeffs, den=map_coeffs, f=st.lists(st.integers(-3, 3), min_size=2, max_size=4),
       squared=st.booleans())
@example(num=[0, -1, 1], den=[1], f=[0, 1], squared=True)  # x^2 - x, f = x^2: 0 is fixed
def test_generic_orbit_is_the_iterate_mod_f(num, den, f, squared):
    """(A_k, B_k) = lambda_k * (P_k, Q_k) mod f with a nonzero rational
    lambda_k, square-free f or not; P_k, Q_k reduced by sympy."""
    try:
        rmap = RationalMap(num, den)
    except MapConstructionError:
        assume(False)
    f = polys.strip(f)
    assume(len(f) > 1)
    if squared:
        f = polys.mul(f, f)
    pairs = rmap.generic_orbit(f, 3)
    assert len(pairs) == 4
    size = len(f) - 1
    for k, (a_k, b_k) in enumerate(pairs):
        p_k, q_k = ([0, 1], [1]) if k == 0 else iterate_forms(rmap, k)
        expected = []
        for form in (p_k, q_k):
            rem = qq_poly(form).rem(qq_poly(f)).all_coeffs()[::-1]
            expected += _padded([Fraction(int(c.p), int(c.q)) for c in rem], size)
        actual = _padded(a_k, size) + _padded(b_k, size)
        j = next(j for j, c in enumerate(expected) if c)
        scale = actual[j] / expected[j]
        assert scale != 0
        assert actual == [scale * c for c in expected]


def test_ramification_profile_pinned_cases():
    # infinity is critical (index 2) and maps to 0
    m = RationalMap.parse("1/(x^2-2)")
    assert _profile_pair(m, 1) == ((), 2)
    assert _profile_pair(m, 2) == (((2, 2),), 0)  # the poles, through infinity
    assert _profile_pair(m, 3) == (((2, 4),), 0)
    assert m.preimage_count(INFINITY, 1) == 2
    # 0 is periodic (0 -> -1 -> 0) and critical
    m = RationalMap.parse("x^2-1")
    assert [_profile_pair(m, n) for n in (1, 2, 3)] == [
        (((1, 2),), 0), (((1, 2), (2, 1)), 0), (((1, 4), (2, 2)), 0)]
    assert m.preimage_count(0, 2) == 3
    # the critical points +-1 are conjugate in the Wronskian's factor x^2 - 1
    # until phi(1) = 0 and phi(-1) = 4 split it
    m = RationalMap.parse("x^3-3x+2")
    assert _profile_pair(m, 1) == (((1, 1), (2, 1)), 0)
    assert _profile_pair(m, 2) == (((1, 3), (2, 3)), 0)
    assert m.preimage_count(4, 1) == 2
    assert m.preimage_count(Fraction(1, 2), 2) == 9
    # (x-1)^2 at the degree cap, where 0 -> 1 -> 0 makes every level ramified
    m = RationalMap.parse("(x-1)^2")
    assert _profile_pair(m, 12) == (
        ((2, 1024), (4, 256), (8, 64), (16, 16), (32, 4), (64, 2)), 0)
    with pytest.raises(ResourceCapError):
        m.ramification_profile(13)
    with pytest.raises(ResourceCapError):
        m.preimage_count(0, 13)


def test_ramification_verdicts():
    assert (
        RationalMap.parse("(x-1)^2").dynamical_ramification_verdict(3).kind
        == "likely-dynamically-ramified"
    )
    v = RationalMap.parse("x^2+1").dynamical_ramification_verdict(3)
    assert v.kind == "not-dynamically-ramified"
    assert v.witness == 2
    # with a higher threshold the crossing happens one level later
    v8 = RationalMap.parse("x^2+1").dynamical_ramification_verdict(3, threshold=8)
    assert v8.kind == "not-dynamically-ramified"
    assert v8.witness == 3 and v8.cumulative_simple_roots >= 8
    assert (
        RationalMap.parse("x^2").dynamical_ramification_verdict(2).kind
        == "likely-dynamically-ramified"
    )


# -- maps over Q(t) ---------------------------------------------------------------

def test_ff_map_basics():
    m = RationalMapFF.parse("x^2+t")
    t = FFElement.gen()
    assert m.evaluate(t) == t * t + t
    assert m.evaluate(INFINITY) is INFINITY
    assert not m.is_power_map()
    assert RationalMapFF.parse("x^2").is_power_map()
    with pytest.raises(MapConstructionError):
        RationalMapFF.parse("x+t")


def test_ff_map_shared_factor_rejected():
    with pytest.raises(MapConstructionError):
        RationalMapFF.parse("(x^2 - t^2)/(x - t)")
