"""Quadratic tower discriminants and square-free certificates."""

from fractions import Fraction

import pytest
import sympy

from orbitprimes import (
    InvariantError,
    disc_recursion_check,
    discriminant,
    galois,
    quadratic_iterate,
    stoll_certificate,
    tower_report,
)
from orbitprimes.cli import main
from orbitprimes.galois import _validate_certificate, critical_orbit

x = sympy.symbols("x")


def test_discriminant_examples():
    assert discriminant([1, 0, 1]) == -4
    assert discriminant([-2, 0, 1]) == 8
    assert discriminant([3, 1]) == 1
    with pytest.raises(ValueError):
        discriminant([5])


def test_quadratic_iterate():
    assert quadratic_iterate(1, 1) == [1, 0, 1]
    assert quadratic_iterate(1, 2) == [2, 0, 2, 0, 1]
    assert quadratic_iterate(1, 0) == [0, 1]
    for a in range(-5, 6):
        expr = x
        for m in range(6):
            assert quadratic_iterate(a, m) == sympy.Poly(expr, x).all_coeffs()[::-1], (a, m)
            expr = sympy.compose(expr, x**2 + a)


def test_critical_orbit():
    assert critical_orbit(1, 5) == [1, 2, 5, 26, 677]
    assert critical_orbit(2, 4) == [2, 6, 38, 1446]


def test_disc_recursion_identity():
    # Disc(f^m) = 2^(2^m) * Disc(f^(m-1))^2 * f^m(0), m >= 2; anchored at m=1
    for a in (1, -5, 3, 10, -10):
        for m in (1, 2, 3):
            check = disc_recursion_check(a, m)
            assert check.equal, (a, m, check.lhs, check.rhs)
    c = disc_recursion_check(1, 2)
    assert c.lhs == 512


def test_disc_recursion_against_sympy():
    for a in (1, -3, 7):
        for m in (2, 3):
            fm = quadratic_iterate(a, m)
            expected = sympy.discriminant(
                sympy.Poly(list(reversed(fm)), x).as_expr(), x
            )
            assert discriminant(fm) == Fraction(int(expected))


def test_disc_recursion_rejects_bad_input():
    with pytest.raises(ValueError):
        disc_recursion_check(0, 2)
    with pytest.raises(ValueError):
        disc_recursion_check(1, 0)


def test_stoll_certificate_examples():
    rec = stoll_certificate(1, 2)
    assert rec.status == "certified" and rec.certificate == 5
    rec = stoll_certificate(1, 3)
    assert rec.certificate == 13
    rec = stoll_certificate(-5, 1)
    assert rec.status == "no-certificate"
    assert rec.certificate is None
    assert not rec.stoll_guarantee


def test_certificate_validation_conditions():
    # certificates are odd, exponent exactly 1, and coprime to the earlier
    # critical values (hence to 2 * prod f^i(0))
    for a in (1, 2, 5, 6, 3, 7, 11):
        for n in range(0, 5):
            rec = stoll_certificate(a, n)
            if rec.certificate is None:
                continue
            p = rec.certificate
            values = critical_orbit(a, n + 1)
            assert p != 2
            v = 0
            m = abs(values[-1])
            while m % p == 0:
                m //= p
                v += 1
            assert v == 1
            product = 2
            for value in values[:-1]:
                product *= value
            from math import gcd

            assert gcd(p, abs(product)) == 1


def test_a_forged_certificate_is_an_invariant_error(monkeypatch, capsys):
    # 3 does not divide 5, the level-2 critical value of x^2 + 1
    with pytest.raises(InvariantError, match="exponent is not 1"):
        _validate_certificate(3, critical_orbit(1, 3))
    monkeypatch.setattr(galois, "squarefree_primitive_primes",
                        lambda parts, budget: [(3, False, None)] * len(parts))
    with pytest.raises(InvariantError):
        stoll_certificate(1, 2)
    assert main(["galois-tower", "--a", "1", "--max-n", "2"]) == 3
    assert "internal invariant violation" in capsys.readouterr().err


def test_admissibility_checks():
    with pytest.raises(ValueError):
        stoll_certificate(0, 1)
    with pytest.raises(ValueError):
        stoll_certificate(-2, 2)  # 0 preperiodic: -2, 2, 2, ...
    with pytest.raises(ValueError):
        stoll_certificate(-1, 2)  # 0 periodic: -1, 0, -1, ...


def test_tower_report_guarantee_annotation():
    records = tower_report(1, 4)
    assert all(r.established for r in records)
    assert records[0].status == "no-certificate"  # f(0) = 1 has no prime at all
    assert records[0].stoll_guarantee  # a = 1 > 0, 1 mod 4
    neg = tower_report(-5, 1)
    assert neg[1].status == "no-certificate"
    assert not neg[1].established


def test_tower_report_walks_the_critical_orbit_once(monkeypatch):
    from orbitprimes.maps import RationalMap

    calls = []
    evaluate = RationalMap.evaluate
    monkeypatch.setattr(RationalMap, "evaluate",
                        lambda self, z: calls.append(z) or evaluate(self, z))
    records = tower_report(3, 8)
    assert len(calls) == 9  # f(0), ..., f^9(0)
    assert [r.critical_value for r in records] == critical_orbit(3, 9)


def test_tower_report_names_the_first_failing_depth():
    # 0, -1, 0: the repeat shows at step 2, where the level-1 search fails
    with pytest.raises(ValueError, match="within depth 2;"):
        tower_report(-1, 6)
    with pytest.raises(ValueError, match="within depth 3;"):
        tower_report(-2, 6)  # 0, -2, 2, 2
