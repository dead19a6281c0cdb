"""Heights: Weil, multi, the height-change bound, canonical heights,
wandering/preperiodic classification."""

import decimal
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitprimes import (
    INFINITY,
    RationalMap,
    canonical_height,
    classify_point,
    multi_height,
    phi_height_bound,
    weil_height,
)
from orbitprimes import heights
from orbitprimes.cli import main
from orbitprimes.errors import MapConstructionError
from orbitprimes.ffplaces import FFElement
from orbitprimes.maps import OrbitWalk
from oracles import canonical_height_exact


def random_point(rng, span=50):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def test_weil_height_examples():
    assert math.isclose(weil_height(26).value, math.log(26), abs_tol=1e-12)
    assert weil_height(Fraction(5, 3)).log_arg == 5
    assert weil_height(0).value == 0.0
    assert weil_height(INFINITY).value == 0.0
    assert weil_height(FFElement.parse("(t^2+1)/t^5")).value == 5
    assert weil_height(FFElement.parse("t^3+1")).field == "Q(t)"


def test_multi_height_examples():
    assert multi_height((1, 8, 9)).log_arg == 9
    assert multi_height((2, 4)).log_arg == 2
    assert multi_height((Fraction(5, 3), 1)).log_arg == 5
    with pytest.raises(ValueError):
        multi_height((0, 0))


def test_multi_height_pair_identity():
    rng = random.Random(1)
    for _ in range(300):
        z = random_point(rng)
        if z == 0:
            continue
        assert multi_height((z, 1)).log_arg == weil_height(z).log_arg


def test_phi_height_bound_examples():
    assert phi_height_bound(RationalMap.parse("x^2")) == 0.0
    c = phi_height_bound(RationalMap.parse("x^2+1"))
    assert math.isclose(c, math.log(2), abs_tol=1e-12)
    c_half = phi_height_bound(RationalMap.parse("x^2+1/2"))
    assert c_half > 0


def test_phi_height_bound_never_violated(corpus_maps):
    rng = random.Random(2)
    for m in corpus_maps:
        c = phi_height_bound(m)
        d = m.degree
        for _ in range(300):
            z = random_point(rng)
            image = m.evaluate(z)
            hz = weil_height(z).value
            hi = weil_height(image).value
            assert abs(hi - d * hz) <= c + 1e-9
        for z in (Fraction(0), INFINITY):
            image = m.evaluate(z)
            assert abs(weil_height(image).value - d * weil_height(z).value) <= c + 1e-9


def test_canonical_height_examples():
    sq = RationalMap.parse("x^2")
    est = canonical_height(sq, 2, tol=1e-6)
    assert abs(est.estimate - math.log(2)) <= est.error_radius <= 1e-15 * math.log(2)

    pre = canonical_height(RationalMap.parse("x^2-1"), 0)
    assert est.capped is False
    assert pre.estimate == 0.0 and pre.preperiodic

    m = RationalMap.parse("x^2+1")
    est = canonical_height(m, 1, tol=1e-6)
    assert est.error_radius <= 1e-6
    assert abs(est.estimate - 0.4073545227394056) <= 2e-6
    with pytest.raises(ValueError):
        canonical_height(m, 1, tol=0)


def test_canonical_height_rejects_nan_tolerance():
    # a NaN tolerance used to stop at N = 0 with a radius it never met
    with pytest.raises(ValueError, match="tol must be positive"):
        canonical_height(RationalMap.parse("x^2+1"), 3, tol=float("nan"))


def test_capped_canonical_height_is_pinned():
    # the exact orbit stopped at the digit cap after N = 20 with this pinned
    # interval; the local sum reaches tol, inside it
    est = canonical_height(RationalMap.parse("x^2+11"), 3, tol=1e-9)
    assert (est.capped, est.preperiodic) == (False, False)
    assert est.error_radius <= 1e-9
    assert abs(est.estimate - 1.5046564432828453) <= 4.739583301139832e-06 + est.error_radius
    assert est.c_phi == 2.4849066497880004


def test_canonical_height_builds_no_big_value(monkeypatch):
    # the exact orbit ran into the 10^6-digit cap on the first of these
    sizes = []
    eval_forms = RationalMap._eval_forms

    def spy(self, a, b):
        sizes.append(max(abs(a).bit_length(), abs(b).bit_length()))
        return eval_forms(self, a, b)

    monkeypatch.setattr(RationalMap, "_eval_forms", spy)
    for expr, alpha, tol in (("x^2+11", 3, 1e-9), ("x^3+x+1/2", 1, 1e-12),
                             ("x^2-2", Fraction(1, 3), 1e-12), ("2x^2-3/4", Fraction(3, 2), 1e-12),
                             ("(3x^2+1)/(x^2-2)", 1, 1e-12), ("x^2+1", 1, 1e-320)):
        sizes.clear()
        est = canonical_height(RationalMap.parse(expr), alpha, tol=tol)
        assert est.error_radius <= max(tol, 1e-15)
        assert sizes and max(sizes) <= 4096


def test_canonical_height_error_radius_formula():
    # the radius is the tail after N terms, N the least with a tail of at
    # most tol / 2, plus the half-width of the summed interval
    m = RationalMap.parse("x^2+1")
    est = canonical_height(m, 1, tol=1e-4)
    c = phi_height_bound(m)
    n = est.iterations_used
    expected = c / (m.degree**n * (1 - 1 / m.degree))
    assert expected <= 0.5e-4 < 2 * expected
    assert expected <= est.error_radius <= expected + 1e-15


@pytest.mark.parametrize("num, den, alpha", [
    ([1, 0, 1], [1], 1),  # B = 2
    ([-2, 0, 1], [1], Fraction(1, 3)),
    ([1, 0, 3], [-2, 0, 1], 1),  # (3x^2+1)/(x^2-2): B from W, not an integer
    ([Fraction(-3, 4), 0, 2], [1], Fraction(3, 2)),
    ([1000, 0, 1], [1], 0),
    ([10**400, 0, 1], [1], 0),  # ln B past the float range
])
def test_the_tail_radius_rounds_log_b_up(num, den, alpha):
    # against ln B to 50 digits: c_phi rounded up, and a radius holding the
    # tail ln(B) * d / (d^N * (d - 1)) after N = iterations_used terms
    rmap = RationalMap(num, den)
    bound, d = heights._bound_arg(rmap), rmap.degree
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ln_b = Decimal(bound.numerator).ln() - Decimal(bound.denominator).ln()
        c_up = Decimal(heights._log_bounds(bound.numerator, bound.denominator)[1])
        assert ln_b <= c_up <= ln_b * (1 + Decimal("1e-11"))
        assert abs(Decimal(phi_height_bound(rmap)) - ln_b) <= ln_b * Decimal("1e-15")
        for tol in (1e-3, 1e-9):
            est = canonical_height(rmap, alpha, tol=tol)
            tail = ln_b * d / (Decimal(d) ** est.iterations_used * (d - 1))
            assert tail <= Decimal(est.error_radius)


def test_canonical_height_functional_equation(corpus_maps):
    # h_phi(phi(alpha)) = d * h_phi(alpha) within summed error radii
    # (tolerance keeps iterate sizes desk-scale; the radii stay rigorous)
    rng = random.Random(3)
    for m in corpus_maps:
        for _ in range(3):
            alpha = random_point(rng, span=6)
            image = m.evaluate(alpha)
            if image is INFINITY:
                continue
            a = canonical_height(m, alpha, tol=1e-3)
            b = canonical_height(m, image, tol=1e-3)
            slack = m.degree * a.error_radius + b.error_radius + 1e-9
            assert abs(b.estimate - m.degree * a.estimate) <= slack


def test_preperiodic_estimates_vanish():
    pairs = [
        ("x^2-1", 0),
        ("x^2-1", -1),
        ("x^2-1", 1),
        ("x^2", 0),
        ("x^2", 1),
        ("x^2", -1),
        ("x^2", INFINITY),
        ("x^2-2", 2),
        ("x^2-2", 0),
        ("1/x^2", 1),
    ]
    for expr, alpha in pairs:
        for tol in (1e-6, 1e-12):
            est = canonical_height(RationalMap.parse(expr), alpha, tol=tol)
            assert (est.estimate, est.error_radius, est.capped) == (0.0, 0.0, False)


def test_canonical_height_of_a_monomial_map():
    # c_phi = 0: no term is needed, and the radius is the rounding of h(alpha),
    # a few ulps
    m = RationalMap.parse("x^2")
    assert phi_height_bound(m) == 0.0
    for alpha, value in ((2, math.log(2)), (Fraction(-5, 3), math.log(5))):
        est = canonical_height(m, alpha, tol=1e-12)
        assert abs(est.estimate - value) <= est.error_radius <= 1e-15 * value
        assert (est.iterations_used, est.capped) == (0, False)


@pytest.mark.parametrize("expr, alpha, tol", [
    ("x^2", 0, 1e-6),  # c_phi = 0, so N = 0 at any tol
    ("x^2", 1, 1e-6),
    ("x^2", -1, 1e-6),
    ("x^2", INFINITY, 1e-6),
    ("1/x^2", 1, 1e-6),
    ("x^2-1", 0, 10),  # N = 0, and 0, -1, 0 repeats at step 2
])
def test_canonical_height_of_an_orbit_repeating_after_n(expr, alpha, tol):
    # the walk goes past the N that tol needs: a repeat there is an exact 0
    est = canonical_height(RationalMap.parse(expr), alpha, tol=tol)
    assert (est.estimate, est.error_radius, est.preperiodic) == (0.0, 0.0, True)


def _walk_stop(rmap, alpha):
    walk = OrbitWalk(rmap, alpha)
    return heights._walk_below_bound(rmap, walk, heights._bound_arg(rmap), heights.MAX_STEPS)[1]


def test_canonical_height_after_a_digit_cap_stop_below_the_bound():
    # 0, 2^70 (below c_phi = log(2^70 + 1)) and then a 141-bit value past the
    # 5-digit cap: the local sum starts from 2^70, and without the cap the
    # walk goes on to that value, the first above the bound
    capped_map = RationalMap([2**70, 0, 1], [1], digit_cap=5)
    rmap = RationalMap([2**70, 0, 1], [1])
    assert (_walk_stop(capped_map, 0), _walk_stop(rmap, 0)) == ("cap", "above")
    est = canonical_height(capped_map, 0, tol=1e-9)
    free = canonical_height(rmap, 0, tol=1e-9)
    slow = canonical_height_exact(rmap, 0, tol=0.05)
    assert not est.capped and est.error_radius <= 1e-9 and est.iterations_used >= 1
    assert abs(est.estimate - slow.estimate) <= est.error_radius + slow.error_radius
    assert abs(est.estimate - free.estimate) <= est.error_radius + free.error_radius


def test_canonical_height_after_a_step_limit_stop(monkeypatch):
    # x^2+1000 from 0 is above the bound only at step 2: one step stops below it
    rmap = RationalMap.parse("x^2+1000")
    monkeypatch.setattr(heights, "MAX_STEPS", 1)
    assert _walk_stop(rmap, 0) == "steps"
    est = canonical_height(rmap, 0, tol=1e-9)
    slow = canonical_height_exact(rmap, 0, tol=1e-3)
    assert not est.capped and est.error_radius <= 1e-9 and est.iterations_used >= 1
    assert abs(est.estimate - slow.estimate) <= est.error_radius + slow.error_radius


def test_canonical_height_of_a_bounded_real_orbit():
    # 1/3 stays in the Julia set [-2, 2] of x^2 - 2 and has good reduction
    # everywhere but 3, so its canonical height is log 3
    start = time.perf_counter()
    est = canonical_height(RationalMap.parse("x^2-2"), Fraction(1, 3), tol=1e-12)
    assert time.perf_counter() - start < 1.0
    assert not est.capped and est.error_radius <= 1e-12
    assert abs(est.estimate - math.log(3)) <= est.error_radius
    # the real orbit is chaotic: a box of b bits stays narrow for about b
    # steps, so 1e-300 (N = 998) stops capped at the float resolution
    start = time.perf_counter()
    est = canonical_height(RationalMap.parse("x^2-2"), Fraction(1, 3), tol=1e-300)
    assert time.perf_counter() - start < 1.0
    assert est.capped and est.error_radius < 1e-14
    assert abs(est.estimate - math.log(3)) <= est.error_radius


@pytest.mark.parametrize("expr", ["x^2+1", "x^3+x+1/2"])
def test_canonical_height_reaches_1e_12_in_milliseconds(expr):
    m = RationalMap.parse(expr)
    start = time.perf_counter()
    est = canonical_height(m, 1, tol=1e-12)
    assert time.perf_counter() - start < 0.05
    assert not est.capped and est.error_radius <= 1e-12


def test_canonical_height_subtracts_the_form_contents():
    # 2x^2 - 3/4 has forms 8x^2 - 3y^2, 4y^2 with resultant 1024, and
    # gcd(p, q) = 8 at every value of the orbit of 3/2 past the first
    m = RationalMap.parse("2x^2-3/4")
    est = canonical_height(m, Fraction(3, 2), tol=1e-12)
    slow = canonical_height_exact(m, Fraction(3, 2), tol=1e-6)
    assert est.error_radius <= 1e-12 and slow.capped
    assert abs(est.estimate - slow.estimate) <= est.error_radius + slow.error_radius


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=80, deadline=None)
@given(num=st.lists(small_rationals, min_size=1, max_size=4),
       den=st.lists(small_rationals, min_size=1, max_size=4),
       alpha=st.one_of(st.just(INFINITY),
                       st.fractions(min_value=-5, max_value=5, max_denominator=5)),
       tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
@example(num=[Fraction(-3, 4), 0, 2], den=[1], alpha=Fraction(3, 2), tol=1e-12)
@example(num=[1, 0, 3], den=[-2, 0, 1], alpha=Fraction(1), tol=1e-12)
@example(num=[Fraction(1, 2), 1, 0, 1], den=[1], alpha=INFINITY, tol=1e-9)
@example(num=[0, 2, 0, 1], den=[3, 0, 4], alpha=Fraction(-1, 2), tol=1e-12)
def test_canonical_height_meets_the_exact_orbit(num, den, alpha, tol):
    """Random degree-2/3 maps, mostly with non-unit resultants; the exact
    orbit stops at a 3000-digit cap, and its interval stays rigorous."""
    try:
        m = RationalMap(num, den, digit_cap=3000)
    except MapConstructionError:
        assume(False)
    est = canonical_height(m, alpha, tol=tol)
    slow = canonical_height_exact(m, alpha, tol=1e-6)
    assert not est.capped and est.error_radius <= tol
    assert abs(est.estimate - slow.estimate) <= est.error_radius + slow.error_radius + 1e-12
    if slow.preperiodic:
        assert est == slow


def test_classify_examples():
    cls = classify_point(RationalMap.parse("x^2-1"), 0)
    assert (cls.kind, cls.tail, cls.period) == ("preperiodic", 0, 2)
    cls = classify_point(RationalMap.parse("x^2"), 1)
    assert (cls.kind, cls.tail, cls.period) == ("preperiodic", 0, 1)
    assert classify_point(RationalMap.parse("x^2+1"), 1) == ("wandering", None, None, "")
    inf_cls = classify_point(RationalMap.parse("x^2+1"), INFINITY)
    assert (inf_cls.kind, inf_cls.tail, inf_cls.period) == ("preperiodic", 0, 1)
    # alpha itself above c_phi / (d - 1) needs no step
    assert classify_point(RationalMap.parse("x^2+1"), 5, max_steps=0).kind == "wandering"
    cls = classify_point(RationalMap.parse("x^2+1"), 1, max_steps=0)
    assert cls == ("inconclusive", None, None, "no certificate within 0 steps")


@pytest.mark.parametrize("expr, alpha, first_above", [
    ("x^2+1000", 0, 2),  # 0, 1000, 1001000 (c_phi / (d - 1) = log 1001)
    ("x^2+1", 1, 2),  # 1, 2, 5 (log 2)
    ("x^2-2", Fraction(1, 3), 1),  # 1/3, -17/9 (log 3)
    ("x^2", 2, 0),  # c_phi = 0
])
@pytest.mark.parametrize("max_steps", [0, 1, 2, 3])
def test_classify_evaluates_at_most_max_steps(monkeypatch, expr, alpha, first_above, max_steps):
    rmap = RationalMap.parse(expr)
    calls = []
    evaluate = RationalMap.evaluate
    monkeypatch.setattr(RationalMap, "evaluate",
                        lambda self, z: calls.append(z) or evaluate(self, z))
    cls = classify_point(rmap, alpha, max_steps=max_steps)
    assert len(calls) == min(max_steps, first_above)
    assert cls.kind == ("wandering" if first_above <= max_steps else "inconclusive")


def test_a_value_at_the_bound_is_not_above_it():
    # x^2+1000 has B = L1(p) = W = 1001, so h(1001) is c_phi / (d - 1)
    # exactly: not above it, while 1002 is
    rmap = RationalMap.parse("x^2+1000")
    assert heights._bound_arg(rmap) == 1001
    cls = classify_point(rmap, 1001, max_steps=0)
    assert cls == ("inconclusive", None, None, "no certificate within 0 steps")
    assert classify_point(rmap, 1002, max_steps=0).kind == "wandering"


@settings(max_examples=300, deadline=None)
@given(num=st.integers(1, 2**100), den=st.integers(1, 2**20), d=st.integers(2, 4),
       shift=st.integers(-2, 2))
@example(num=1001, den=1, d=2, shift=0)
@example(num=2**64, den=1, d=3, shift=0)
@example(num=2**64 + 1, den=3, d=2, shift=0)
def test_above_decides_on_bit_lengths_as_on_the_power(num, den, d, shift):
    # heights near the (d-1)-th root of the bound, where bit lengths alone
    # cannot decide
    bound = Fraction(num, den)
    assume(bound >= 1)
    h = max(1, round(float(bound) ** (1 / (d - 1))) + shift)
    for value in (Fraction(h), Fraction(-1, h), Fraction(h - 1, h)):
        expected = h ** (d - 1) * bound.denominator > bound.numerator
        assert heights._above(value, bound, d) == expected


@pytest.mark.parametrize("argv, count", [
    (("classify", "--map", "x^2+1000", "--alpha", "0"), 2),  # 0, 1000 and above: 1001000
    # 8 levels, and the orbit of 0 to level 7 for the strip; the notes read
    # the scan's walk, whose phi(2) = 7 is above the bound
    (("zsigmondy", "--map", "x^2+3", "--alpha", "2", "--max-n", "8"), 15),
    # from 0 the scan's walk is the orbit of 0 that the strip reads
    (("zsigmondy", "--map", "x^2+3", "--alpha", "0", "--max-n", "8"), 8),
])
def test_a_command_walks_its_orbit_once(monkeypatch, capsys, argv, count):
    calls = []
    evaluate = RationalMap.evaluate
    monkeypatch.setattr(RationalMap, "evaluate",
                        lambda self, z: calls.append(z) or evaluate(self, z))
    assert main(list(argv)) == 0
    assert capsys.readouterr().out
    assert len(calls) == count


def test_canonical_height_reaching_n_above_the_bound():
    # x^2+1 from 1 at tol 0.5: N = 2 and phi^2(1) = 5 is the first value
    # above the bound; the local sum starts there, as at any other N
    rmap = RationalMap.parse("x^2+1")
    est = canonical_height(rmap, 1, tol=0.5)
    slow = canonical_height_exact(rmap, 1, tol=0.5)
    assert not est.capped and est.error_radius <= 0.5
    assert abs(est.estimate - slow.estimate) <= est.error_radius + slow.error_radius


def test_classify_random_consistency(corpus_maps):
    # classification agrees with the canonical-height certificate
    rng = random.Random(4)
    for m in corpus_maps:
        for _ in range(3):
            alpha = random_point(rng, span=5)
            cls = classify_point(m, alpha)
            est = canonical_height(m, alpha, tol=1e-3)
            if cls.kind == "preperiodic":
                assert est.estimate <= est.error_radius
            elif cls.kind == "wandering":
                assert est.estimate > 0
