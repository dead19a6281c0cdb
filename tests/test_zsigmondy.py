"""Orbit scans, primitive parts, square-free verdicts, prop-old masses."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitprimes import (
    INFINITY,
    MapConstructionError,
    RationalMap,
    RationalMapFF,
    intplaces,
    polys,
    prop_old_diagnostic,
    zsigmondy,
    zsigmondy_report,
)
from orbitprimes.ffplaces import FFElement
from orbitprimes.intplaces import factor
from orbitprimes.zsigmondy import (
    ZeroOrbit,
    _EveryEarlier,
    orbit,
    primitive_part,
    squarefree_primitive_prime,
    squarefree_primitive_witness_ff,
)
from oracles import (
    all_pairs_primitive_part,
    iterate_forms,
    primitive_existence_oracle,
    prop_old_screen_oracle,
    squarefree_full_factor_rule,
    squarefree_primitive_oracle,
    valuation,
)


def numerators_of(records):
    return [abs(Fraction(r.value).numerator) for r in records]


# -- orbits -------------------------------------------------------------------

def test_orbit_examples():
    m = RationalMap.parse("x^2+1")
    records, term = orbit(m, 1, 5)
    assert [r.value for r in records] == [2, 5, 26, 677, 458330]
    assert term.kind == "reached-n"

    records, term = orbit(RationalMap.parse("x^2-1"), 0, 4)
    assert [r.value for r in records] == [-1, 0, -1, 0]
    assert term.kind == "preperiodic"
    assert (term.tail, term.period) == (0, 2)

    records, term = orbit(RationalMap.parse("x^2"), 2, 3)
    assert [r.value for r in records] == [4, 16, 256]


def test_orbit_hits_zero_and_stops():
    # 2 -> 0 -> -4 under x^2 - 4: the zero index is recorded and the scan stops
    m = RationalMap.parse("x^2-4")
    records, term = orbit(m, 2, 6)
    assert [r.value for r in records] == [0]
    assert term.kind == "hit-zero"
    assert term.zero_index == 1


def test_orbit_infinity_is_a_fixed_cycle():
    m = RationalMap.parse("x^2+1")
    records, term = orbit(m, INFINITY, 3)
    assert all(r.value is INFINITY for r in records)
    assert term.kind == "preperiodic"
    assert term.period == 1


# -- primitive parts ------------------------------------------------------------

def test_primitive_part_examples():
    m = RationalMap.parse("x^2+1")
    records, _ = orbit(m, 1, 5)
    assert primitive_part(records, 3, ZeroOrbit(m)) == 13
    assert primitive_part(records, 5, ZeroOrbit(m)) == 45833

    sq = RationalMap.parse("x^2")
    records, _ = orbit(sq, 2, 3)
    assert primitive_part(records, 2, ZeroOrbit(sq)) == 1


def primitive_primes(records, n, basis, budget=intplaces.DEFAULT_BUDGET):
    """(primes of the factored primitive part, whether a cofactor is left)."""
    fac = factor(primitive_part(records, n, basis), budget=budget)
    return tuple(fac.primes()), not fac.is_complete


def test_primitive_prime_factors_examples():
    m = RationalMap.parse("x^2+1")
    records, _ = orbit(m, 1, 5)
    assert primitive_primes(records, 3, ZeroOrbit(m)) == ((13,), False)
    assert primitive_primes(records, 4, ZeroOrbit(m)) == ((677,), False)
    sq = RationalMap.parse("x^2")
    records, _ = orbit(sq, 2, 3)
    assert primitive_primes(records, 3, ZeroOrbit(sq)) == ((), False)


def test_primitive_primes_satisfy_definition(corpus_maps):
    # every prime of the factored primitive part passes the literal
    # valuation conditions
    for m in corpus_maps:
        depth = 6 if m.degree == 2 else 4
        records, _ = orbit(m, Fraction(3), depth)
        zero = ZeroOrbit(m)
        for rec in records:
            if rec.value is INFINITY or rec.value == 0:
                break
            # unresolved (budget ran out on a huge primitive part) is a
            # legitimate data outcome; listed primes must still check out
            primes, unresolved = primitive_primes(records, rec.n, zero, budget=100_000)
            for p in primes:
                assert valuation(rec.value, p) > 0
                for earlier in records[: rec.n - 1]:
                    if earlier.value != 0:
                        assert valuation(earlier.value, p) <= 0


def test_squarefree_examples():
    m = RationalMap.parse("x^2+1")
    records, _ = orbit(m, 1, 5)
    assert squarefree_primitive_prime(primitive_part(records, 3, ZeroOrbit(m)))[:2] == (13, False)
    assert squarefree_primitive_prime(primitive_part(records, 2, ZeroOrbit(m)))[:2] == (5, False)

    sq = RationalMap.parse("(x-1)^2")
    records, _ = orbit(sq, 3, 3)
    assert [r.value for r in records] == [4, 9, 64]
    prime, unresolved, _ = squarefree_primitive_prime(primitive_part(records, 2, ZeroOrbit(sq)))
    assert prime is None and not unresolved


def test_a_scan_trial_divides_each_uncached_part_once(monkeypatch):
    calls = []
    divide = intplaces.trial_division

    def counted(n):
        calls.append(n)
        return divide(n)

    monkeypatch.setattr(intplaces, "trial_division", counted)
    monkeypatch.setattr(zsigmondy, "trial_division", counted)
    report = zsigmondy_report(RationalMap.parse("x^2+1"), 1, depth=8, squarefree_depth=8)
    # levels 1-5 leave a proved-prime leftover; levels 6-8 are settled by
    # an exponent-1 prime below 10^4, with no factorization
    assert [r.factored is None for r in report.records] == [False] * 5 + [True] * 3
    assert calls == [r.primitive_part for r in report.records]


def test_squarefree_sees_exponents_past_the_budget():
    # rho splits p off, then the budget runs out on p * q * r: p^2 divides
    # the part, so p is no witness and the level stays unresolved
    p, q, r = 93604463, 80852481648220942189071096236914129511269, 2200367677
    prime, unresolved, fac = squarefree_primitive_prime(p * p * q * r, budget=10_000)
    assert prime is None and unresolved
    assert fac.prime_powers == ((p, 2),)


def test_squarefree_small_witness_skips_rho(monkeypatch):
    calls = []
    split = intplaces._brent_split
    monkeypatch.setattr(intplaces, "_brent_split",
                        lambda n, budget: calls.append(n) or split(n, budget))
    big = 1000003 * (2**31 - 1)
    assert squarefree_primitive_prime(2**2 * 3 * big) == (3, False, None)
    assert calls == []
    # no exponent-1 prime below 10^4: rho runs and the factorization is kept
    prime, unresolved, fac = squarefree_primitive_prime(3**2 * big)
    assert (prime, unresolved) == (1000003, False)
    assert calls and fac.reconstruct() == 3**2 * big


SMALL_PRIMES = (2, 3, 5, 7, 11, 101, 7919, 9973)
LARGE_PRIMES = tuple(sympy.nextprime(10**k) for k in (4, 5, 7, 9, 11, 13, 16, 20))


@settings(max_examples=150, deadline=None)
@given(
    small=st.dictionaries(st.sampled_from(SMALL_PRIMES), st.integers(1, 3), max_size=3),
    large=st.dictionaries(st.sampled_from(LARGE_PRIMES), st.integers(1, 3), max_size=3),
    budget=st.integers(0, 20_000),
)
def test_squarefree_early_stop_matches_full_factor_rule(small, large, budget):
    part = math.prod(p**e for p, e in {**small, **large}.items())
    prime, unresolved, fac = squarefree_primitive_prime(part, budget=budget)
    assert (prime, unresolved) == squarefree_full_factor_rule(part, budget)
    if prime is not None:
        assert part % prime == 0 and part % (prime * prime) != 0
    if fac is not None:
        assert fac.reconstruct() == part
        for p, e in fac.prime_powers:
            assert part % p**e == 0 and part % p ** (e + 1) != 0


def test_error_on_zero_or_infinity_level():
    m = RationalMap.parse("x^2-1")
    records, _ = orbit(m, 0, 4)
    with pytest.raises(ValueError):
        primitive_part(records, 2, ZeroOrbit(m))  # value 0


# -- the strip against the orbit of 0 ---------------------------------------------

def assert_parts_match_all_pairs(rmap, alpha, depth):
    """Every level's primitive part, stripped against the orbit of 0 and the
    resultant, equals the strip against every earlier numerator in full."""
    records, _ = orbit(rmap, alpha, depth)
    zero = ZeroOrbit(rmap)
    numerators = [1 if r.value is INFINITY else abs(Fraction(r.value).numerator)
                  for r in records]
    for rec in records:
        if rec.value is INFINITY or rec.value == 0:
            continue
        expected = all_pairs_primitive_part(numerators, rec.n)
        assert primitive_part(records, rec.n, zero) == expected, (rmap.to_string(), alpha, rec.n)
    return zero


def test_zero_fixed_strips_every_earlier_numerator():
    # x^2 + x fixes 0, so every N_k is 0 and gcd(A_m, N_k) is A_m itself
    zero = assert_parts_match_all_pairs(RationalMap.parse("x^2+x"), 1, 6)
    assert zero.walk.values[:4] == [0, 0, 0, 0]


def test_zero_mapping_to_infinity_leaves_the_bad_primes():
    # 0 -> infinity -> infinity: every N_k is 1, only gcd(A_m, Res) strips
    m = RationalMap.parse("(x^2+1)/x")
    zero = assert_parts_match_all_pairs(m, 1, 6)
    assert zero.walk.values[1] is INFINITY
    assert zero.walk.tail == 1 and zero.walk.period == 1


def test_zero_periodic_is_replayed():
    # x^2 - 1: 0 -> -1 -> 0, replayed without arithmetic
    zero = assert_parts_match_all_pairs(RationalMap.parse("x^2-1"), 2, 7)
    assert (zero.walk.tail, zero.walk.period) == (0, 2)


def test_zero_past_the_digit_cap_steps_the_forms_mod_a_m(monkeypatch):
    # 0 grows faster than alpha = 31 under x^2 - 1000: with a 4-digit cap
    # (77 bits) the walk of 0 stops after level 3 and alpha's after level 5
    calls = []
    stepped = ZeroOrbit._stepped_numerator
    monkeypatch.setattr(ZeroOrbit, "_stepped_numerator",
                        lambda self, k, modulus: calls.append(k) or stepped(self, k, modulus))
    m = RationalMap.parse("x^2-1000", digit_cap=4)
    records, term = orbit(m, 31, 8)
    assert term.kind == "resource-cap" and len(records) == 5
    zero = assert_parts_match_all_pairs(m, 31, 8)
    assert zero.walk.cap_error is not None and len(zero.walk.values) == 4
    assert calls and min(calls) == 4


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(num=st.lists(small_rationals, min_size=1, max_size=4),
       den=st.lists(small_rationals, min_size=1, max_size=4),
       alpha=st.fractions(min_value=-5, max_value=5, max_denominator=5),
       digit_cap=st.sampled_from([intplaces.DEFAULT_DIGIT_CAP, 2]))
@example(num=[1, 0, 2], den=[2], alpha=Fraction(1), digit_cap=intplaces.DEFAULT_DIGIT_CAP)
@example(num=[Fraction(1, 2), 0, 3], den=[0, 2], alpha=Fraction(2, 3),
         digit_cap=intplaces.DEFAULT_DIGIT_CAP)
def test_orbit_of_zero_strip_matches_all_pairs_strip(num, den, alpha, digit_cap):
    """Random degree-2/3 maps over Q, non-monic and with denominators, so
    with primes of bad reduction; a 2-digit cap makes the walk of 0 stop
    early and the strip step the forms mod A_m."""
    try:
        m = RationalMap(num, den, digit_cap=digit_cap)
    except MapConstructionError:
        assume(False)
    assert_parts_match_all_pairs(m, alpha, 6 if m.degree == 2 else 4)


# -- full reports -----------------------------------------------------------------

def test_zsigmondy_report_examples():
    rep = zsigmondy_report(RationalMap.parse("x^2+1"), 1, depth=10)
    assert rep.zsigmondy_set == ()
    assert rep.squarefree_zsigmondy_set == ()
    assert rep.squarefree_unresolved == ()
    assert rep.notes.power_map is False
    assert rep.notes.classification.kind == "wandering"

    rep = zsigmondy_report(RationalMap.parse("x^2"), 2, depth=6, squarefree_depth=6)
    assert rep.zsigmondy_set == (2, 3, 4, 5, 6)
    assert rep.notes.power_map is True

    rep = zsigmondy_report(RationalMap.parse("(x-1)^2"), 3, depth=6, squarefree_depth=6)
    assert all(n in rep.squarefree_zsigmondy_set for n in range(2, 7))
    assert rep.notes.ramification.kind == "likely-dynamically-ramified"


def test_report_strips_each_level_once(monkeypatch):
    import orbitprimes.zsigmondy as zsig

    calls = []
    strip = zsig.primitive_part
    monkeypatch.setattr(zsig, "primitive_part",
                        lambda records, n, basis: calls.append(n) or strip(records, n, basis))
    report = zsigmondy_report(RationalMap.parse("x^2+1"), 1, depth=8, squarefree_depth=7)
    assert sorted(calls) == list(range(1, 9))
    assert all(r.has_squarefree_primitive is not None for r in report.records[:7])
    calls.clear()
    zsigmondy_report(RationalMapFF.parse("x^2+t"), FFElement.gen(), depth=5, squarefree_depth=5)
    assert sorted(calls) == list(range(1, 6))


def test_squarefree_implies_primitive(corpus_maps):
    for m in corpus_maps:
        depth = 6 if m.degree == 2 else 4
        rep = zsigmondy_report(
            m, Fraction(2, 3), depth=depth, squarefree_depth=depth, budget=100_000
        )
        for rec in rep.records:
            if rec.has_squarefree_primitive:
                assert rec.has_primitive


def test_detector_equivalence_on_corpus(corpus_maps):
    # gcd-stripping detector vs the factorization/valuation oracle
    rng = random.Random(99)
    for m in corpus_maps:
        alpha = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        depth = 8 if m.degree == 2 else 5
        records, _ = orbit(m, alpha, depth)
        zero = ZeroOrbit(m)
        numerators = []
        usable = []
        for rec in records:
            if rec.value is INFINITY or rec.value == 0:
                break
            numerators.append(abs(Fraction(rec.value).numerator))
            usable.append(rec.n)
        for n in usable:
            if numerators[n - 1] == 0:
                continue
            fast = primitive_part(records, n, zero) > 1
            exists, _, _ = primitive_existence_oracle(numerators, n, rho_steps=1 << 16)
            assert fast == exists, (m.to_string(), alpha, n)


# -- over Q(t) ----------------------------------------------------------------------

def test_ff_scan_structural_agreement():
    # x^2 + t with alpha = t: every level has a primitive and a square-free
    # primitive prime, witnessed without factoring
    m = RationalMapFF.parse("x^2+t")
    rep = zsigmondy_report(m, FFElement.gen(), depth=5, squarefree_depth=5)
    assert rep.zsigmondy_set == ()
    assert rep.squarefree_zsigmondy_set == ()
    for rec in rep.records:
        assert rec.has_primitive
        assert rec.has_squarefree_primitive


def test_ff_power_map_analogue():
    # x^2 over Q(t) from t: numerators are powers of t, nothing primitive past n=1
    m = RationalMapFF.parse("x^2")
    rep = zsigmondy_report(m, FFElement.gen(), depth=4, squarefree_depth=4)
    assert rep.zsigmondy_set == (2, 3, 4)
    assert rep.notes.power_map is True


def test_ff_witness_is_squarefree_and_new():
    m = RationalMapFF.parse("x^2+t")
    records, _ = orbit(m, FFElement.gen(), 4)
    for n in range(1, 5):
        witness = squarefree_primitive_witness_ff(primitive_part(records, n, _EveryEarlier))
        assert witness is not None
        w = list(witness)
        assert polys.degree(polys.gcd(w, polys.derivative(w))) == 0
        for earlier in records[: n - 1]:
            g = polys.gcd(w, list(earlier.value.num))
            assert polys.degree(g) == 0


# -- prop-old ------------------------------------------------------------------------

def test_prop_old_example_masses():
    m = RationalMap.parse("x^2+1")
    report = prop_old_diagnostic(m, 1, [1, 0, 1], 1, 10, 0.125)
    by_n = {row.n: row for row in report.rows}
    assert by_n[3].mass.radical == 2
    assert math.isclose(by_n[3].mass.value, math.log(2), abs_tol=1e-12)
    assert by_n[2].mass.radical == 1 and by_n[2].mass.value == 0.0
    assert by_n[1].mass.value == 0.0  # no m < 1
    assert by_n[5].mass.radical == 10  # shares 2 and 5
    assert report.hypothesis_ok


def test_prop_old_mass_matches_valuation_predicate():
    # recompute Z from the definitional predicate and compare radicals
    m = RationalMap.parse("x^2+1")
    report = prop_old_diagnostic(m, 1, [1, 0, 1], 1, 8, 0.125)
    records, _ = orbit(m, 1, 8)
    values = [r.value for r in records]
    from orbitprimes import polys as _p

    F = [Fraction(1), Fraction(0), Fraction(1)]
    for row in report.rows:
        n = row.n
        base = Fraction(1) if n == 1 else values[n - 2]
        w = _p.evaluate(F, Fraction(base))
        z_primes = set()
        for p in (2, 3, 5, 7, 11, 13, 677):
            if valuation(w, p) > 0 and any(
                valuation(values[m_ - 1], p) > 0 for m_ in range(1, n)
            ):
                z_primes.add(p)
        radical = 1
        for p in sorted(z_primes):
            radical *= p
        assert row.mass.radical % radical == 0

def test_prop_old_rejects_non_factor():
    m = RationalMap.parse("x^2+1")
    with pytest.raises(ValueError):
        prop_old_diagnostic(m, 1, [1, 1], 1, 5, 0.125)  # x+1 does not divide x^2+1


def test_prop_old_hypothesis_screen_flags_periodic_roots():
    # F = x divides the numerator of x^2 at level 1, but 0 is periodic for x^2
    m = RationalMap.parse("x^2")
    report = prop_old_diagnostic(m, 2, [0, 1], 1, 4, 0.125)
    assert not report.hypothesis_ok
    assert report.hypothesis_notes


_SMALL_POINTS = tuple(sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)}))


@st.composite
def _prop_old_cases(draw):
    """A degree-2/3 map (with or without a denominator), a level i <= 3 and
    an F that is random, the numerator P_i itself, a product of linear
    factors through rational points (roots of P_i where it has any), or the
    square of such a product."""
    d = draw(st.sampled_from((2, 3)))
    num = draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1))
    den = draw(st.one_of(st.just([1]), st.lists(st.integers(-3, 3), min_size=1, max_size=d + 1)))
    try:
        rmap = RationalMap(num, den)
    except MapConstructionError:
        assume(False)
    i = draw(st.integers(1, 3))
    p_i = iterate_forms(rmap, i)[0]
    kind = draw(st.sampled_from(("random", "numerator", "linear", "squared")))
    if kind == "random":
        F = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=4).filter(lambda c: c[-1]))
    elif kind == "numerator":
        F = p_i
    else:
        roots = [r for r in _SMALL_POINTS if sum(c * r**k for k, c in enumerate(p_i)) == 0]
        points = draw(st.lists(st.sampled_from(roots or _SMALL_POINTS), min_size=1, max_size=3))
        if draw(st.booleans()):
            points.append(draw(st.sampled_from(_SMALL_POINTS)))
        F = [Fraction(1)]
        for r in points:
            F = polys.mul(F, [-r, Fraction(1)])
        if kind == "squared":
            F = polys.mul(F, F)
    assume(len(polys.strip(F)) > 1)
    return rmap, i, F


@settings(max_examples=40, deadline=None)
@given(_prop_old_cases())
def test_prop_old_screens_match_sympy_gcds(case):
    """The generic-root screens give the verdicts of remainders and gcds
    against the expanded iterates, and refuse a non-divisor alike."""
    rmap, i, F = case
    divides, notes = prop_old_screen_oracle(rmap, F, i)
    if not divides:
        with pytest.raises(ValueError, match="^F does not divide the numerator of the i-th iterate$"):
            prop_old_diagnostic(rmap, 2, F, i, 1, 0.125)
        return
    report = prop_old_diagnostic(rmap, 2, F, i, 1, 0.125)
    assert report.hypothesis_notes == notes
    assert report.hypothesis_ok == (not notes)


def test_reports_render_points_past_the_digit_guard():
    # conftest lifts the 4300-digit int/str guard here, so check in a fresh
    # process where it is at its default
    script = """
from fractions import Fraction
from orbitprimes import RationalMap, prop_old_diagnostic, zsigmondy_report
from orbitprimes.intplaces import to_decimal
alpha = Fraction(10**5000 + 1)
m = RationalMap.parse("x^2+1")
z = zsigmondy_report(m, alpha, depth=1, squarefree_depth=0)
p = prop_old_diagnostic(m, alpha, [1, 0, 1], 1, 1, 0.125)
assert z.alpha_str == p.alpha_str == to_decimal(10**5000 + 1)
"""
    proc = subprocess.run([sys.executable, "-X", "int_max_str_digits=4300", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
