"""Integers: factoring, valuations, radical mass, decimal input and output."""

import decimal
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitprimes import intplaces
from orbitprimes.intplaces import (
    factor,
    from_decimal,
    is_probable_prime,
    log_int,
    radical_logmass,
    to_decimal,
)
from oracles import to_decimal_by_powers_of_ten, valuation


def test_factor_examples():
    f = factor(458330)
    assert f.prime_powers == ((2, 1), (5, 1), (45833, 1))
    assert f.is_complete
    assert factor(677).prime_powers == ((677, 1),)
    f1 = factor(1)
    assert f1.sign == 1 and f1.prime_powers == () and f1.is_complete
    fneg = factor(-12)
    assert fneg.sign == -1 and fneg.prime_powers == ((2, 2), (3, 1))
    with pytest.raises(ValueError):
        factor(0)


def test_factor_reconstruction_random():
    # spec-scale reconstruction check: random integers up to 1e18
    rng = random.Random(42)
    for _ in range(10_000):
        n = rng.randint(1, 10**18)
        if rng.random() < 0.5:
            n = -n
        f = factor(n)
        assert f.reconstruct() == n
        for p, _ in f.prime_powers:
            assert is_probable_prime(p)
        if f.cofactor is not None:
            assert f.cofactor > 1
            assert not is_probable_prime(f.cofactor)


def test_factor_budget_exhaustion_is_data():
    # two 30-digit primes: far beyond any tiny rho budget
    p = 618970019642690137449562111  # 2^89 - 1
    q = 162259276829213363391578010288127  # 2^107 - 1
    f = factor(p * q, budget=10)
    assert not f.is_complete
    assert f.reconstruct() == p * q


def test_primality_matches_sympy():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 10**12)
        assert is_probable_prime(n) == sympy.isprime(n)


def test_valuation():
    assert valuation(26, 13) == 1
    assert valuation(Fraction(5, 8), 2) == -3
    assert valuation(26, 3) == 0
    with pytest.raises(ValueError):
        valuation(10, 4)
    with pytest.raises(ValueError):
        valuation(0, 3)


def test_valuation_sum_equals_numerator_log():
    # sum over positive valuations of v_p * log p recovers log |numerator|
    rng = random.Random(9)
    for _ in range(200):
        num = rng.randint(1, 10**9)
        den = rng.randint(1, 10**9)
        z = Fraction(num, den)
        if z.numerator == 0:
            continue
        f = factor(abs(z.numerator))
        assert f.is_complete
        total = sum(e * log_int(p) for p, e in f.prime_powers)
        assert math.isclose(total, log_int(abs(z.numerator)), rel_tol=0, abs_tol=1e-9)
        for p, e in f.prime_powers:
            assert valuation(z, p) == e


def test_radical_logmass():
    m = radical_logmass(factor(12))
    assert math.isclose(m.value, math.log(2) + math.log(3), abs_tol=1e-12)
    assert m.radical == 6 and m.exact
    assert radical_logmass(factor(1)).value == 0.0
    m677 = radical_logmass(factor(677))
    assert math.isclose(m677.value, math.log(677), abs_tol=1e-12)


def test_log_int_large():
    n = 7**5000
    assert math.isclose(log_int(n), 5000 * math.log(7), rel_tol=1e-12)


def test_deterministic_factoring():
    n = 2**64 + 1
    assert factor(n) == factor(n)


def test_factor_exponents_exact_past_the_budget():
    # rho splits p off, then the budget runs out on p * q * r
    p, q, r = 93604463, 80852481648220942189071096236914129511269, 2200367677
    f = factor(p * p * q * r, budget=10_000)
    assert f.prime_powers == ((p, 2),)
    assert f.cofactor == q * r
    assert f.reconstruct() == p * p * q * r


def test_trial_division_lists_divided_primes_in_order():
    n = 2**3 * 3 * 7919**2 * 1000003 * (2**31 - 1)
    assert intplaces.trial_division(n) == (1, ((2, 3), (3, 1), (7919, 2)), 1000003 * (2**31 - 1))
    assert intplaces.trial_division(-4 * 9973 * 10007) == (-1, ((2, 2), (9973, 1)), 10007)
    assert intplaces.trial_division(-1) == (-1, (), 1)
    assert factor(n).prime_powers == ((2, 3), (3, 1), (7919, 2), (1000003, 1), (2**31 - 1, 1))


TRIAL_PRIMES = (2, 3, 5, 7, 97, 7919, 9967, 9973)
PAST_TRIAL_PRIMES = (10007, 99991, 99460723, 99999989, 2**31 - 1)


@settings(max_examples=200, deadline=None)
@given(small=st.dictionaries(st.sampled_from(TRIAL_PRIMES), st.integers(1, 3), max_size=3),
       large=st.dictionaries(st.sampled_from(PAST_TRIAL_PRIMES), st.integers(1, 2), max_size=2),
       other=st.integers(1, 10**12), negative=st.booleans())
def test_trial_division_leftover_contract(small, large, other, negative):
    n = math.prod(p**e for p, e in {**small, **large}.items()) * other * (-1 if negative else 1)
    sign, powers, leftover = intplaces.trial_division(n)
    assert sign * math.prod(p**e for p, e in powers) * leftover == n
    primes = [p for p, _ in powers]
    assert primes == sorted(set(primes)) and all(p < 10**4 and sympy.isprime(p) for p in primes)
    assert all(leftover % p for p in primes)  # exact exponents
    if leftover < 9973**2:
        assert leftover == 1 or sympy.isprime(leftover)
    else:
        assert all(leftover % p for p in sympy.primerange(10**4))


DECIMAL_EDGES = [0, 1, -1, -12345, 2**1999, 2**2000 - 1, -(2**2000 - 1), 2**2000, 2**2001 - 1,
                 -(2**2000), 2**4000, 2**64000, 10**603, 10**603 - 1, 10**700, 10**700 - 1,
                 -(10**5000), 10**5000 - 1, 10**60000, 10**60000 - 1]


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(0, 332_200), seed=st.integers(0, 2**32), negative=st.booleans())
def test_to_decimal_matches_powers_of_ten(bits, seed, negative):
    rng = random.Random(seed)
    n = rng.getrandbits(bits) | (1 << bits >> 1)  # exactly `bits` bits
    value = -n if negative else n
    text = to_decimal(value)
    assert text == to_decimal_by_powers_of_ten(value) == str(value)
    assert from_decimal(text) == value


def test_to_decimal_edges_and_context():
    before = decimal.getcontext()
    state = (before.prec, before.Emax, before.Emin, dict(before.traps), dict(before.flags))
    for value in DECIMAL_EDGES:
        text = to_decimal(value)
        assert text == to_decimal_by_powers_of_ten(value) == str(value)
        assert from_decimal(text) == value
    after = decimal.getcontext()
    assert after is before
    assert (after.prec, after.Emax, after.Emin, dict(after.traps), dict(after.flags)) == state


LONG = "1" * 700


@pytest.mark.parametrize("short, long", [
    ("1_000", LONG + "_000"), (" 12", " " + LONG), ("12 ", LONG + " "), ("+7", "+" + LONG),
    ("--1", "--" + LONG), ("1-2", LONG + "-2"), ("", "-"), ("\u0663", "\u0663" * 700),
    ("1\u0663", LONG + "\u0663"), ("\uff11\uff12", "\uff11" * 700), ("\u00b2", LONG + "\u00b2"),
])
def test_from_decimal_takes_ascii_digits_only(short, long):
    # rejected both below 600 characters (int()) and above (split in pieces)
    for literal in (short, long):
        with pytest.raises(ValueError):
            from_decimal(literal)
    assert from_decimal("-" + LONG) == -int(LONG)
    assert from_decimal("007") == 7


def test_trial_division_proves_the_leftover_prime(monkeypatch):
    # below 9973^2 the trial-division loop always stops at p^2 > leftover,
    # so the leftover is 1 or a proved prime and Miller-Rabin never runs
    calls = []
    probable = intplaces.is_probable_prime
    monkeypatch.setattr(intplaces, "is_probable_prime", lambda m: calls.append(m) or probable(m))
    rng = random.Random(21)
    # the largest prime below 9973^2, and twice the largest below half of it
    edges = [1, 2, 4, 9973, 10007, 9967 * 9973, 99460723, 2 * 49730339]
    for n in edges + [rng.randrange(1, 9973**2) for _ in range(400)]:
        f = factor(n)
        assert dict(f.prime_powers) == sympy.factorint(n), n
        assert f.is_complete and f.certified and f.sign == 1
        assert factor(-n).prime_powers == f.prime_powers
    assert calls == []


def test_leftovers_past_trial_division_still_reach_miller_rabin(monkeypatch):
    calls = []
    probable = intplaces.is_probable_prime
    monkeypatch.setattr(intplaces, "is_probable_prime", lambda m: calls.append(m) or probable(m))
    f = factor(99999989)  # a prime above 9973^2 = 99460729
    assert f.prime_powers == ((99999989, 1),) and f.certified
    assert calls == [99999989]
