"""Heights: Weil, multi, the height-change bound, canonical heights,
wandering/preperiodic classification."""

import math
import random
from fractions import Fraction

import pytest

from orbitprimes import (
    INFINITY,
    RationalMap,
    canonical_height,
    classify_point,
    multi_height,
    phi_height_bound,
    weil_height,
)
from orbitprimes.ffplaces import FFElement
from orbitprimes.heights import height_float


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
            hz = height_float(z)
            hi = height_float(image)
            assert abs(hi - d * hz) <= c + 1e-9
        for z in (Fraction(0), INFINITY):
            image = m.evaluate(z)
            assert abs(height_float(image) - d * height_float(z)) <= c + 1e-9


def test_canonical_height_examples():
    sq = RationalMap.parse("x^2")
    est = canonical_height(sq, 2, tol=1e-6)
    assert est.estimate == math.log(2)
    assert est.error_radius == 0.0

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
    # the values of the forms-first evaluation, which computed the refused step
    est = canonical_height(RationalMap.parse("x^2+11"), 3, tol=1e-9)
    assert (est.iterations_used, est.capped, est.preperiodic) == (20, True, False)
    assert est.estimate == 1.5046564432828453
    assert est.error_radius == 4.739583301139832e-06
    assert est.c_phi == 2.4849066497880004


def test_capped_step_skips_the_forms(monkeypatch):
    calls = []
    eval_forms = RationalMap._eval_forms

    def counted(self, a, b):
        calls.append((a, b))
        return eval_forms(self, a, b)

    monkeypatch.setattr(RationalMap, "_eval_forms", counted)
    m = RationalMap.parse("x^2+11", digit_cap=3000)
    est = canonical_height(m, 3, tol=1e-9)
    assert est.capped
    # one multiply per value of the orbit, none for the refused step
    assert len(calls) == est.iterations_used


def test_canonical_height_error_radius_formula():
    m = RationalMap.parse("x^2+1")
    est = canonical_height(m, 1, tol=1e-4)
    c = phi_height_bound(m)
    n = est.iterations_used
    expected = c / (m.degree**n * (1 - 1 / m.degree))
    assert math.isclose(est.error_radius, expected, rel_tol=1e-12)


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
        est = canonical_height(RationalMap.parse(expr), alpha, tol=1e-6)
        assert est.estimate <= est.error_radius


def test_classify_examples():
    assert classify_point(RationalMap.parse("x^2-1"), 0).kind == "preperiodic"
    cls = classify_point(RationalMap.parse("x^2-1"), 0)
    assert (cls.tail, cls.period) == (0, 2)
    cls = classify_point(RationalMap.parse("x^2"), 1)
    assert (cls.tail, cls.period) == (0, 1)
    wander = classify_point(RationalMap.parse("x^2+1"), 1)
    assert wander.kind == "wandering"
    assert wander.height_estimate.estimate > wander.height_estimate.error_radius
    inf_cls = classify_point(RationalMap.parse("x^2+1"), INFINITY)
    assert inf_cls.kind == "preperiodic"
    assert (inf_cls.tail, inf_cls.period) == (0, 1)


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
