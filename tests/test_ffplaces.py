"""The function field Q(t): field axioms, heights two ways, square-free
parts, Mason inequality."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitprimes import polys
from orbitprimes.exprparse import parse_polynomial
from orbitprimes.ffplaces import FFElement, ff_height, mason_check
from orbitprimes.zsigmondy import (OrbitRecord, _EveryEarlier, primitive_part,
                                   squarefree_primitive_witness_ff)
from oracles import FractionFF, ff_primitive_part_oracle, yun_oracle

# small pool of polynomials irreducible over Q, used to build elements with
# known place data
IRREDUCIBLES = (
    (0, 1),  # t
    (-1, 1),  # t - 1
    (1, 1),  # t + 1
    (1, 0, 1),  # t^2 + 1
    (-2, 0, 1),  # t^2 - 2
    (1, 1, 1),  # t^2 + t + 1
    (-2, 0, 0, 1),  # t^3 - 2
)


def build_element(rng, max_factors=4, max_exp=3):
    num = [Fraction(rng.randint(1, 5))]
    den = [Fraction(1)]
    exponents = {}
    for _ in range(rng.randint(0, max_factors)):
        pi = rng.choice(IRREDUCIBLES)
        e = rng.randint(-max_exp, max_exp)
        exponents[pi] = exponents.get(pi, 0) + e
    for pi, e in exponents.items():
        p = [Fraction(c) for c in pi]
        for _ in range(abs(e)):
            if e > 0:
                num = polys.mul(num, p)
            else:
                den = polys.mul(den, p)
    return FFElement(num, den), exponents


def test_squarefree_part_examples():
    assert polys.squarefree_part([0, 0, 1, 1]) == [0, 1, 1]  # t^2(t+1) -> t(t+1)
    assert polys.squarefree_part([1, 0, 1]) == [1, 0, 1]
    fourth_power = polys.mul([-1, 1], polys.mul([-1, 1], polys.mul([-1, 1], [-1, 1])))
    assert polys.squarefree_part(fourth_power) == [-1, 1]
    with pytest.raises(ValueError):
        polys.squarefree_part([])


def test_ff_height_examples():
    assert ff_height(FFElement.parse("t^3+1")) == 3
    assert ff_height(FFElement.from_const(5)) == 0
    assert ff_height(FFElement.parse("(t^2+1)/t^5")) == 5


def test_ff_height_two_ways_and_product_formula():
    # degree formula vs the place sum over the known support plus infinity,
    # and the product formula (all valuations weighted by degree sum to 0);
    # the finite valuations are the exponents the element was built from
    rng = random.Random(4)
    for _ in range(1000):
        f, exponents = build_element(rng)
        if f.is_zero:
            continue
        finite = [(e, len(pi) - 1) for pi, e in exponents.items()]
        at_infinity = polys.degree(list(f.den)) - polys.degree(list(f.num))
        place_sum = -sum(min(e, 0) * degree for e, degree in finite)
        place_sum -= min(at_infinity, 0)
        assert place_sum == ff_height(f)
        total = sum(e * degree for e, degree in finite)
        total += at_infinity
        assert total == 0


def test_mason_examples():
    a = parse_polynomial("t^2+2t", var="t")
    r = mason_check(a, [Fraction(1)])
    assert (r.max_degree, r.radical_degree) == (2, 3)
    assert r.holds and r.tight

    r = mason_check([Fraction(0), Fraction(1)], [Fraction(1)])  # t + 1
    assert (r.max_degree, r.radical_degree) == (1, 2)
    assert r.tight

    r = mason_check([0, 0, 1], [1, 2])  # t^2 + (2t + 1) = (t+1)^2
    assert (r.max_degree, r.radical_degree) == (2, 3)
    assert r.holds


def test_mason_preconditions():
    with pytest.raises(ValueError):
        mason_check([0, 1], [0, 2])  # not coprime
    with pytest.raises(ValueError):
        mason_check([1, 1], [-1, -1])  # a + b = 0
    with pytest.raises(ValueError):
        mason_check([2], [3])  # all constant
    with pytest.raises(ValueError):
        mason_check([], [1])


def test_mason_random_never_violated():
    rng = random.Random(5)
    checked = 0
    while checked < 1000:
        a = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 13))]
        b = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 13))]
        a, b = polys.strip(a), polys.strip(b)
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
        report = mason_check(a, b)
        assert report.holds  # an unconditional theorem: zero tolerance
        checked += 1


def test_ffelement_field_axioms():
    rng = random.Random(6)
    for _ in range(50):
        f, _ = build_element(rng, max_factors=2, max_exp=2)
        g, _ = build_element(rng, max_factors=2, max_exp=2)
        h = f * g
        if not g.is_zero:
            assert h / g == f
        assert f + g - g == f
        assert (f + g) * 2 == f * 2 + g * 2
    t = FFElement.gen()
    assert t**3 / t == t * t
    assert (1 / t).den == (0, 1)


t_sym = sympy.symbols("t")
small_rationals = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=7))
t_polys = st.lists(small_rationals, min_size=0, max_size=4).map(polys.strip)
# a third of the denominators are constants, so the no-gcd path runs often
ff_elements = st.tuples(
    t_polys, st.one_of(st.lists(small_rationals.filter(bool), min_size=1, max_size=1), t_polys)
).filter(lambda nd: nd[1]).map(lambda nd: FFElement(*nd))


def as_sympy(f):
    num = sum(sympy.Rational(c.numerator, c.denominator) * t_sym**k for k, c in enumerate(f.num))
    den = sum(sympy.Rational(c.numerator, c.denominator) * t_sym**k for k, c in enumerate(f.den))
    return num / den


def reduced_like_sympy(expr):
    """(num, den) of sympy's cancel, denominator monic, as Fraction tuples."""
    num, den = sympy.fraction(sympy.cancel(expr))
    num, den = sympy.Poly(num, t_sym, domain="QQ"), sympy.Poly(den, t_sym, domain="QQ")
    lc = den.LC()
    num, den = num * (1 / lc), den * (1 / lc)

    def coeffs(p):
        return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())) if not p.is_zero else ()

    return coeffs(num), (coeffs(den) if not num.is_zero else (Fraction(1),))


@settings(max_examples=120, deadline=None)
@given(f=ff_elements, g=ff_elements, k=st.integers(-3, 3))
def test_ffelement_arithmetic_matches_sympy_cancel(f, g, k):
    results = [(f + g, as_sympy(f) + as_sympy(g)), (f - g, as_sympy(f) - as_sympy(g)),
               (f * g, as_sympy(f) * as_sympy(g))]
    if not g.is_zero:
        results.append((f / g, as_sympy(f) / as_sympy(g)))
    if k >= 0 or not f.is_zero:
        results.append((f**k, as_sympy(f) ** k))
    for got, expr in results:
        assert (got.num, got.den) == reduced_like_sympy(expr)


# -- the Z[t] representation against the Fraction oracle ---------------------------

ff_pairs = st.tuples(
    t_polys, st.one_of(st.lists(small_rationals.filter(bool), min_size=1, max_size=1), t_polys)
).filter(lambda nd: nd[1])


def both(pair):
    return FFElement(*pair), FractionFF(*pair)


def assert_agrees(got, oracle):
    """The views, text, equality and hash of an FFElement against its oracle."""
    assert (got.num, got.den) == (oracle.num, oracle.den)
    assert all(type(c) is Fraction for c in got.num + got.den)
    assert str(got) == str(oracle)
    again = FFElement(list(oracle.num), list(oracle.den))  # built from the oracle's pair
    assert got == again and hash(got) == hash(again)
    lc = got.int_den[-1]
    assert lc > 0 and math.gcd(*got.int_num, *got.int_den) == 1
    assert all(type(c) is int for c in got.int_num + got.int_den)


@settings(max_examples=150, deadline=None)
@given(f=ff_pairs, g=ff_pairs, k=st.integers(-3, 3))
def test_ffelement_matches_the_fraction_oracle(f, g, k):
    (f, of), (g, og) = both(f), both(g)
    assert_agrees(f, of)
    assert (f == g) == (of == og)
    for got, oracle in ((f + g, of + og), (f - g, of - og), (f * g, of * og), (-f, -of)):
        assert_agrees(got, oracle)
    if not g.is_zero:
        assert_agrees(f / g, of / og)
    if k >= 0 or not f.is_zero:
        assert_agrees(f**k, of**k)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(ff_pairs, st.integers(1, 3)), min_size=1, max_size=5),
       factor=ff_pairs)
def test_the_qt_strip_and_yun_match_the_fraction_oracle(pairs, factor):
    # a shared factor makes the strips remove something, and the powers
    # leave repeated factors for Yun
    values = [FFElement(*pair) ** e * FFElement(*factor) for pair, e in pairs]
    records = [OrbitRecord(n, value) for n, value in enumerate(values, 1)]
    numerators = [list((FractionFF(*pair) ** e * FractionFF(*factor)).num) for pair, e in pairs]
    for n, value in enumerate(values, 1):
        if value.is_zero:
            continue
        part = primitive_part(records, n, _EveryEarlier)
        assert all(type(c) is int for c in part) and part[-1] > 0
        assert monic(part) == ff_primitive_part_oracle(numerators, n)
        decomposition = polys.int_squarefree_decomposition(part)
        assert {i: monic(a) for i, a in decomposition.items()} == yun_oracle(list(part))
        witness = squarefree_primitive_witness_ff(part)
        assert (None if witness is None else monic(witness)) == yun_oracle(list(part)).get(1)


def monic(p):
    return [Fraction(c, p[-1]) for c in p]
