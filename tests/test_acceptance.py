"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and enforcing its stated time limit.

Two criteria are implemented exactly as stated and are expected to FAIL,
because the stated identities are contradicted by direct exact computation:

  * criterion 6: the discriminant recursion as stated
    (Disc f^m = 2^(2^m) * Disc f^(m-1) * f^m(0)) fails already at a=1, m=2,
    where Disc(x^4+2x^2+2) = 512 but the stated right side is -128.  The
    recursion that actually holds squares the previous discriminant; the
    companion test verifies it exactly over the full stated range.

  * criterion 8 (second clause): for x^2+1 with alpha=1, F=x^2+1, i=1, the
    shared-prime mass at n=5 is exactly log 10 against h = log 458330,
    giving ratio 0.1766... >= 1/8.  The companion test pins the exact n=5
    mass and verifies the ratio bound at every other stated level.

Run with -s (or -rA) to see the per-criterion lines.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from orbitprimes import (
    INFINITY,
    MapConstructionError,
    RationalMap,
    abc_quality,
    canonical_height,
    discriminant,
    phi_height_bound,
    prop_old_diagnostic,
    quadratic_iterate,
    roth_scan_q,
    stoll_certificate,
    tower_report,
    weil_height,
    zsigmondy_report,
)
from orbitprimes import reports
from orbitprimes.galois import critical_orbit
from orbitprimes.intplaces import log_int
from orbitprimes.zsigmondy import ZeroOrbit, orbit, primitive_part, squarefree_primitive_prime
from oracles import primitive_existence_oracle, squarefree_primitive_oracle


def run_criterion(number, description, limit_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:>2} [FAIL] {elapsed:7.2f}s  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:>2} [PASS] {elapsed:7.2f}s  {description}")
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget ({elapsed:.1f}s)"
    )


# -- criterion 1 ---------------------------------------------------------------

def test_criterion_01_zsigmondy_empiricism():
    def body():
        m = RationalMap.parse("x^2+1")
        records, _ = orbit(m, 1, 10)
        zero = ZeroOrbit(m)
        numerators = [abs(Fraction(r.value).numerator) for r in records]
        for n in range(1, 11):
            fast = primitive_part(records, n, zero) > 1
            exists, witness, complete = primitive_existence_oracle(numerators, n)
            assert complete, f"oracle factorization incomplete at n={n}"
            assert fast is True and exists is True, f"n={n}"
        for n in range(1, 8):
            prime, unresolved, _ = squarefree_primitive_prime(primitive_part(records, n, zero))
            assert not unresolved
            exists, oracle_prime, complete = squarefree_primitive_oracle(numerators, n)
            assert complete
            assert (prime is not None) is True and exists is True, f"n={n}"
            assert prime == oracle_prime

    run_criterion(
        1,
        "x^2+1, alpha=1: primitive primes for n in [1,10] and square-free "
        "primitive primes for n in [1,7], two independent detectors",
        30,
        body,
    )


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_02_excluded_cases():
    def body():
        rep = zsigmondy_report(RationalMap.parse("x^2"), 2, depth=6, squarefree_depth=6)
        assert rep.zsigmondy_set == (2, 3, 4, 5, 6)
        assert rep.notes.power_map is True

        rep = zsigmondy_report(
            RationalMap.parse("(x-1)^2"), 3, depth=6, squarefree_depth=6
        )
        for n in range(2, 7):
            assert n in rep.squarefree_zsigmondy_set
        assert rep.notes.ramification.kind == "likely-dynamically-ramified"

    run_criterion(
        2,
        "power map x^2 from 2 empty of primitives past n=1 with warning; "
        "(x-1)^2 from 3 empty of square-free primitives with warning",
        5,
        body,
    )


# -- criterion 3 ---------------------------------------------------------------

def test_criterion_03_detector_equivalence_random():
    def body():
        rng = random.Random(20240817)
        built = 0
        while built < 20:
            num = [rng.randint(-5, 5) for _ in range(3)]
            den = [rng.randint(-5, 5) for _ in range(3)]
            try:
                m = RationalMap(num, den)
            except MapConstructionError:
                continue
            if m.degree != 2:
                continue
            built += 1
            alpha = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
            records, _ = orbit(m, alpha, 8)
            zero = ZeroOrbit(m)
            numerators = []
            for rec in records:
                if rec.value is INFINITY or rec.value == 0:
                    break
                numerators.append(abs(Fraction(rec.value).numerator))
            for n in range(1, len(numerators) + 1):
                fast = primitive_part(records, n, zero) > 1
                exists, _, _ = primitive_existence_oracle(
                    numerators, n, rho_steps=1 << 16
                )
                assert fast == exists, (m.to_string(), str(alpha), n)

    run_criterion(
        3,
        "20 random degree-2 maps: gcd detector and definitional oracle agree "
        "for all n <= 8, zero tolerance",
        120,
        body,
    )


# -- criterion 4 ---------------------------------------------------------------

def test_criterion_04_heights(corpus_maps):
    def body():
        rng = random.Random(4)
        for m in corpus_maps:
            c = phi_height_bound(m)
            d = m.degree
            for _ in range(1000):
                z = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
                image = m.evaluate(z)
                assert abs(weil_height(image).value - d * weil_height(z).value) <= c + 1e-9
        for m in corpus_maps:
            for alpha in (Fraction(1), Fraction(2, 3)):
                image = m.evaluate(alpha)
                if image is INFINITY:
                    continue
                a = canonical_height(m, alpha, tol=1e-3)
                b = canonical_height(m, image, tol=1e-3)
                slack = m.degree * a.error_radius + b.error_radius + 1e-9
                assert abs(b.estimate - m.degree * a.estimate) <= slack
        preperiodic_pairs = [
            ("x^2-1", 0), ("x^2-1", -1), ("x^2-1", 1),
            ("x^2", 0), ("x^2", 1), ("x^2", -1), ("x^2", INFINITY),
            ("x^2-2", 2), ("x^2-2", 0), ("1/x^2", 1),
        ]
        assert len(preperiodic_pairs) == 10
        for expr, alpha in preperiodic_pairs:
            est = canonical_height(RationalMap.parse(expr), alpha, tol=1e-6)
            assert est.estimate <= est.error_radius + 1e-9

    run_criterion(
        4,
        "height-change bound never violated on 1000 samples per corpus map; "
        "canonical height functional equation within radii; 10 preperiodic "
        "pairs vanish",
        60,
        body,
    )


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_05_mason():
    def body():
        from orbitprimes import polys
        from orbitprimes.ffplaces import mason_check

        extremal = mason_check([0, 2, 1], [1])  # t^2 + 2t and 1
        assert extremal.holds and extremal.tight

        rng = random.Random(5)
        checked = 0
        while checked < 1000:
            a = polys.strip([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 13))])
            b = polys.strip([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 13))])
            if polys.is_zero(a) or polys.is_zero(b):
                continue
            g = polys.gcd(a, b)
            if polys.degree(g) > 0:
                a = polys.exact_div(a, g)
                b = polys.exact_div(b, g)
            c = polys.add(a, b)
            if polys.is_zero(c):
                continue
            if max(polys.degree(a), polys.degree(b), polys.degree(c)) < 1:
                continue
            assert mason_check(a, b).holds
            checked += 1

    run_criterion(
        5,
        "polynomial abc inequality: 1000 random coprime pairs of degree <= 12, "
        "zero violations; the extremal pair achieves equality",
        30,
        body,
    )


# -- criterion 6 ---------------------------------------------------------------

def test_criterion_06_disc_recursion_as_stated():
    def body():
        for a in range(-10, 11):
            if a == 0:
                continue
            disc_prev = None
            for m in range(1, 5):
                fm = quadratic_iterate(a, m)
                lhs = discriminant(fm)
                if m == 1:
                    rhs = lhs  # anchored at the directly computed Disc f
                else:
                    prev = discriminant(quadratic_iterate(a, m - 1))
                    fm0 = Fraction(critical_orbit(a, m)[-1])
                    rhs = Fraction(2) ** (2**m) * prev * fm0
                assert lhs == rhs, (
                    f"stated identity fails at a={a}, m={m}: Disc(f^{m}) = {lhs} "
                    f"but 2^(2^{m}) * Disc(f^{m-1}) * f^{m}(0) = {rhs}; "
                    "the identity that holds squares the previous discriminant"
                )

    run_criterion(
        6,
        "discriminant recursion AS STATED (unsquared previous discriminant): "
        "known-unattainable, kept failing honestly",
        60,
        body,
    )


def test_criterion_06_disc_recursion_squared_companion():
    def body():
        from orbitprimes import disc_recursion_check

        for a in range(-10, 11):
            if a == 0:
                continue
            for m in range(1, 5):
                check = disc_recursion_check(a, m)
                assert check.equal, (a, m, check.lhs, check.rhs)

    run_criterion(
        "6c",
        "discriminant recursion with the squared previous discriminant: exact "
        "for all a in [-10,10]\\{0}, m <= 4, LHS via independent resultants",
        60,
        body,
    )


# -- criterion 7 ---------------------------------------------------------------

def test_criterion_07_galois_tower():
    def body():
        for a in (1, 2, 5, 6):
            records = tower_report(a, 4)
            assert all(r.established for r in records), a
        for a in (-5, -10, -17):
            rec = stoll_certificate(a, 1)
            assert rec.status == "no-certificate", a
            assert not rec.established

    run_criterion(
        7,
        "towers for a in {1,2,5,6} established at every level n <= 4; the "
        "-b^2-1 family finds no certificate at n = 1",
        30,
        body,
    )


# -- criterion 8 ---------------------------------------------------------------

def _prop_old_report():
    return prop_old_diagnostic(
        RationalMap.parse("x^2+1"), 1, [1, 0, 1], 1, 10, 0.125
    )


def test_criterion_08_prop_old_as_stated():
    def body():
        report = _prop_old_report()
        by_n = {row.n: row for row in report.rows}
        assert by_n[3].mass.radical == 2 and by_n[3].mass.exact
        for n in range(4, 11):
            row = by_n[n]
            assert row.height > 0
            ratio = row.mass.value / row.height
            assert ratio < 0.125, (
                f"stated bound fails at n={n}: mass = log({row.mass.radical}) "
                f"= {row.mass.value:.6f}, h = {row.height:.6f}, ratio = "
                f"{ratio:.6f} >= 1/8"
            )

    run_criterion(
        8,
        "shared-prime mass diagnostic AS STATED (ratio < 1/8 for all "
        "4 <= n <= 10): known-unattainable at n=5, kept failing honestly",
        30,
        body,
    )


def test_criterion_08_prop_old_companion():
    def body():
        report = _prop_old_report()
        by_n = {row.n: row for row in report.rows}
        # the exact anchor: mass at n=3 is log 2
        assert by_n[3].mass.radical == 2 and by_n[3].mass.exact
        assert math.isclose(by_n[3].mass.value, math.log(2), abs_tol=1e-12)
        # the one exception: n=5 shares exactly the primes 2 and 5
        assert by_n[5].mass.radical == 10 and by_n[5].mass.exact
        expected_ratio = math.log(10) / log_int(458330)
        assert math.isclose(by_n[5].mass.value / by_n[5].height, expected_ratio,
                            rel_tol=1e-12)
        assert expected_ratio > 0.125
        # the bound holds at every other stated level
        for n in (4, 6, 7, 8, 9, 10):
            row = by_n[n]
            assert row.mass.value / row.height < 0.125, n

    run_criterion(
        "8c",
        "shared-prime mass diagnostic, exact behavior: log 2 at n=3, "
        "log 10 at n=5 (the stated bound's sole exception), ratio < 1/8 "
        "at every other level in [4,10]",
        30,
        body,
    )


# -- criterion 9 ---------------------------------------------------------------

def test_criterion_09_abc_lab():
    def body():
        triple = abc_quality(1, 8)
        assert triple.height.log_arg == 9  # exactly log 9
        assert triple.rad_mass.radical == 6  # exactly log 6
        assert triple.rad_mass.exact

        report = roth_scan_q([2, 0, 0, 1], 1.0, 100)
        assert report.empirical_constant is not None
        assert math.isfinite(report.empirical_constant)
        assert report.inexact_count == 0
        recount = sum(
            1
            for q in range(1, 101)
            for p in range(-100, 101)
            if math.gcd(abs(p), q) == 1 and p**3 + 2 * q**3 == 0
        )
        assert len(report.skipped) == recount
        total = sum(
            1
            for q in range(1, 101)
            for p in range(-100, 101)
            if math.gcd(abs(p), q) == 1
        )
        assert report.sample_count + len(report.skipped) == total

    run_criterion(
        9,
        "abc_quality(1,8) = (log 9, log 6) exactly; roth scan of x^3+2 at "
        "H=100 completes with finite constant and consistent skip counts",
        60,
        body,
    )


# -- criterion 10 ----------------------------------------------------------------

def _run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "orbitprimes.cli", *args]
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=merged)


def test_criterion_10_infrastructure(tmp_path):
    def body():
        cache_file = str(tmp_path / "orbit.jsonl")
        fresh = _run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "10")
        _run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "6",
                 "--cache", cache_file)
        resumed = _run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1",
                           "--max-n", "10", "--cache", cache_file)
        assert fresh.returncode == 0 and resumed.returncode == 0
        assert fresh.stdout == resumed.stdout  # byte-identical

        try:
            import jsonschema
        except ImportError:
            jsonschema = None
        schema = reports.load_schema()
        commands = [
            ("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "5"),
            ("orbit", "--map", "x^2+1", "--alpha", "1", "--max-n", "4"),
            ("height", "--point", "5/3"),
            ("canonical-height", "--map", "x^2+1", "--alpha", "1", "--tol", "1e-4"),
            ("classify", "--map", "x^2-1", "--alpha", "0"),
            ("map-analyze", "--map", "x^2+1/2"),
            ("prop-old", "--map", "x^2+1", "--alpha", "1", "--F", "x^2+1",
             "--i", "1", "--max-n", "4"),
            ("abc", "--a", "1", "--b", "8"),
            ("roth-scan", "--F", "x^3+2", "--height-bound", "10"),
            ("roth-scan", "--F", "x^3-t", "--field", "qt", "--max-degree", "1",
             "--coeff-bound", "1"),
            ("mason", "--a", "t^2+2t", "--b", "1"),
            ("galois-tower", "--a", "1", "--max-n", "3"),
        ]
        for command in commands:
            proc = _run_cli(*command)
            assert proc.returncode == 0, (command, proc.stderr)
            report = json.loads(proc.stdout)
            reports.validate_report(report)
            if jsonschema is not None:
                jsonschema.validate(report, schema)

    run_criterion(
        10,
        "cache resume is byte-identical; every emitted report validates "
        "against the shipped schema",
        60,
        body,
    )
