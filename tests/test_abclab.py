"""abc triples and Roth-type radical scans."""

import math
from fractions import Fraction

import pytest

from orbitprimes import abc_quality, polys, roth_scan_ff, roth_scan_q
from orbitprimes.abclab import _sample_numerator
from orbitprimes.exprparse import parse_polynomial
from orbitprimes.ffplaces import FFElement
from orbitprimes.intplaces import factor, radical_logmass


def test_abc_quality_examples():
    t = abc_quality(1, 8)
    assert t.c == 9
    assert t.height.log_arg == 9
    assert t.rad_mass.radical == 6
    assert math.isclose(t.quality, math.log(9) / math.log(6), rel_tol=1e-12)

    t = abc_quality(3, 125)
    assert t.rad_mass.radical == 30
    assert math.isclose(t.quality, math.log(128) / math.log(30), rel_tol=1e-12)

    t = abc_quality(1, 1)
    assert t.rad_mass.radical == 2
    assert t.quality == 1.0


def test_abc_quality_preconditions():
    with pytest.raises(ValueError):
        abc_quality(1, -1)
    with pytest.raises(ValueError):
        abc_quality(0, 5)


def test_abc_quality_rationals():
    # 1/2 + 1/3 = 5/6; integer model (3, 2, 5): support {2, 3, 5}
    t = abc_quality(Fraction(1, 2), Fraction(1, 3))
    assert t.rad_mass.radical == 30
    assert t.height.log_arg == 5


def test_rad_mass_sign_and_permutation_invariance():
    # the support is valuation-comparison based, hence blind to order and sign
    base = abc_quality(3, 125)
    assert abc_quality(125, 3).rad_mass.radical == base.rad_mass.radical
    flipped = abc_quality(3, -128)  # triple (3, -128, -125)
    assert flipped.rad_mass.radical == base.rad_mass.radical


def test_rad_mass_matches_direct_factorization():
    # for coprime integer triples this is the classical radical of a*b*c
    cases = [(1, 8), (3, 125), (5, 27), (7, 9), (11, 49)]
    for a, b in cases:
        t = abc_quality(a, b)
        direct = radical_logmass(factor(a * b * (a + b)))
        assert t.rad_mass.radical == direct.radical


def test_roth_scan_q_examples():
    F = [2, 0, 0, 1]  # x^3 + 2
    report = roth_scan_q(F, 1.0, 10)
    by_z = {s.z: s for s in report.samples}
    assert math.isclose(by_z[Fraction(1)].radsum, math.log(3), abs_tol=1e-12)
    assert by_z[Fraction(1)].height == 0.0
    assert math.isclose(by_z[Fraction(0)].radsum, math.log(2), abs_tol=1e-12)
    assert report.empirical_constant is not None
    assert len(report.skipped) == 0


def test_roth_scan_q_skips_roots():
    # x^3 - x vanishes at -1, 0, 1 but is not squarefree-eligible? it is
    # squarefree (distinct roots), so roots are skipped and recorded
    F = [0, -1, 0, 1]
    report = roth_scan_q(F, 1.0, 3)
    assert set(report.skipped) >= {Fraction(0), Fraction(1), Fraction(-1)}
    recount = sum(1 for q in range(1, 4) for p in range(-3, 4)
                  if math.gcd(abs(p), q) == 1 and p**3 - p * q * q == 0)
    assert len(report.skipped) == recount


def test_roth_scan_q_preconditions():
    with pytest.raises(ValueError):
        roth_scan_q([1, 1], 1.0, 5)  # degree < 3
    with pytest.raises(ValueError):
        roth_scan_q([0, 0, 1, 1], 1.0, 5)  # x^2(x+1): not squarefree
    with pytest.raises(ValueError):
        roth_scan_q([2, 0, 0, 1], -1.0, 5)


def test_roth_scans_reject_nan_epsilon():
    # a NaN epsilon used to run the Q scan into an uncaught StopIteration
    with pytest.raises(ValueError, match="epsilon must be positive"):
        roth_scan_q([2, 0, 0, 1], float("nan"), 3)
    t = FFElement.gen()
    with pytest.raises(ValueError, match="epsilon must be positive"):
        roth_scan_ff([t, 0, 0, 1], float("nan"))


def test_roth_scan_q_sample_count():
    # reduced fractions with max(|p|, q) <= H, q >= 1
    report = roth_scan_q([2, 0, 0, 1], 1.0, 5)
    expected = sum(
        1
        for q in range(1, 6)
        for p in range(-5, 6)
        if math.gcd(abs(p), q) == 1
    )
    assert report.sample_count + len(report.skipped) == expected


def test_roth_scan_ff_example():
    t = FFElement.gen()
    F = [-t, FFElement.from_const(0), FFElement.from_const(0), FFElement.from_const(1)]
    report = roth_scan_ff(F, 0.5, max_degree=1, coeff_bound=1)
    by_z = {s.z: s for s in report.samples}
    row = by_z[(0, 1)]  # z = t: F(t) = t^3 - t = t(t-1)(t+1)
    assert row.radsum == 3.0
    assert row.height == 1.0
    assert math.isclose(row.margin, 3.0 - (1 - 0.5) * 1.0, rel_tol=1e-12)
    # constants have height 0 and nonnegative margin
    const_row = by_z[(1,)]
    assert const_row.height == 0.0
    assert const_row.margin >= 0.0


def test_roth_scan_ff_unconditional_sanity():
    t = FFElement.gen()
    one = FFElement.from_const(1)
    zero = FFElement.from_const(0)
    for F in ([one, zero, zero, one], [-t, zero, zero, one], [one + t, one, zero, one]):
        report = roth_scan_ff(F, 1.0, max_degree=2, coeff_bound=2)
        bound = -3 * max(s.height for s in report.samples)
        for s in report.samples:
            assert s.margin >= bound


def test_roth_scan_ff_rejects_non_squarefree():
    t = FFElement.gen()
    one = FFElement.from_const(1)
    zero = FFElement.from_const(0)
    # (x - t)^2 * x = x^3 - 2tx^2 + t^2 x
    F = [zero, t * t, FFElement.from_const(-2) * t, one]
    with pytest.raises(ValueError):
        roth_scan_ff(F, 1.0)


def test_roth_reports_are_deterministic():
    a = roth_scan_q([2, 0, 0, 1], 1.0, 20)
    b = roth_scan_q([2, 0, 0, 1], 1.0, 20)
    assert a == b


@pytest.mark.parametrize("text", ["4x^3-x", "2x^3-1/3*x+5/7", "x^3+2", "-3/2*x^4+x-7/5"])
def test_integer_roth_numerator_matches_fraction_evaluation(text):
    F = parse_polynomial(text)
    lift, denominator = polys._lift(F)
    roots = 0
    for q in range(1, 16):
        for p in range(-15, 16):
            if math.gcd(abs(p), q) != 1:
                continue
            expected = abs(polys.evaluate(F, Fraction(p, q)).numerator)
            assert _sample_numerator(lift, denominator, p, q) == expected
            roots += expected == 0
    assert roots == {"4x^3-x": 3}.get(text, 0)  # 4x^3 - x vanishes at 0 and +-1/2


def test_roth_scan_q_rational_coefficients_and_rational_roots():
    report = roth_scan_q([0, -1, 0, 4], 1.0, 6)
    assert report.skipped == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))
    report = roth_scan_q([Fraction(5, 7), Fraction(-1, 3), 0, 2], 1.0, 6)
    # F(1) = 2 - 1/3 + 5/7 = 50/21: radical of 50 is 2 * 5
    by_z = {s.z: s for s in report.samples}
    assert math.isclose(by_z[Fraction(1)].radsum, math.log(10), abs_tol=1e-12)
    assert report.skipped == ()
