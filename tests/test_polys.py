"""Polynomial layer: exact arithmetic, gcds, resultants, discriminants."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitprimes import polys
from oracles import prs_gcd, sylvester_resultant

x = sympy.symbols("x")


def to_sympy(p):
    return sympy.Poly(list(reversed([Fraction(c) for c in p])) or [0], x, domain="QQ")


def random_poly(rng, max_deg, span=9):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-span, span)) for _ in range(deg + 1)]
    return polys.strip(coeffs)


def test_divmod_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        a = random_poly(rng, 6)
        b = random_poly(rng, 4)
        if polys.is_zero(b):
            continue
        q, r = polys.divmod_poly(a, b)
        assert polys.add(polys.mul(q, b), r) == a
        assert polys.degree(r) < polys.degree(b) or polys.is_zero(r)


def test_gcd_against_sympy():
    rng = random.Random(2)
    for _ in range(100):
        a = random_poly(rng, 5)
        b = random_poly(rng, 5)
        if polys.is_zero(a) or polys.is_zero(b):
            continue
        g = polys.gcd(a, b)
        expected = sympy.gcd(to_sympy(a).as_expr(), to_sympy(b).as_expr())
        got = to_sympy(g).as_expr()
        assert sympy.simplify(got - sympy.monic(sympy.Poly(expected, x)).as_expr()) == 0


def test_resultant_matches_sylvester_oracle_and_sympy():
    # convention: Res(f, g) = lc(f)^deg(g) * prod of g over the roots of f,
    # equal to the Sylvester determinant (deg g rows of f above deg f rows
    # of g).  sympy's sign convention varies with the degree parities, so it
    # is compared up to sign; the determinant oracle pins the sign.
    rng = random.Random(3)
    for _ in range(80):
        a = random_poly(rng, 5)
        b = random_poly(rng, 5)
        if polys.degree(a) < 1 or polys.degree(b) < 1:
            continue
        r = polys.resultant(a, b)
        assert r == sylvester_resultant(a, b)
        sym = Fraction(sympy.resultant(to_sympy(a).as_expr(), to_sympy(b).as_expr()))
        assert abs(r) == abs(sym)


def test_resultant_product_formula_sign():
    # deg f odd, deg g odd: the two classical conventions differ; check ours
    # against an exactly computable product: f = x - c has the single root c
    f = [Fraction(-3), Fraction(1)]  # x - 3
    g = [Fraction(-8), Fraction(0), Fraction(0), Fraction(1)]  # x^3 - 8
    assert polys.resultant(f, g) == Fraction(19)  # g(3) = 19
    g2 = [Fraction(8), Fraction(0), Fraction(0), Fraction(-1)]  # -x^3 + 8
    assert polys.resultant(f, g2) == Fraction(-19)
    f2 = [Fraction(-1), Fraction(1)]  # x - 1
    assert polys.resultant(f2, g) == Fraction(-7)  # g(1) = -7


def test_squarefree_part_properties():
    rng = random.Random(4)
    for _ in range(60):
        base = random_poly(rng, 3)
        if polys.degree(base) < 1:
            continue
        p = polys.mul(polys.mul(base, base), random_poly(rng, 2) or [Fraction(1)])
        if polys.degree(p) < 1:
            continue
        sf = polys.squarefree_part(p)
        # sf divides p and is squarefree
        _, rem = polys.divmod_poly(p, sf)
        assert polys.is_zero(rem)
        assert polys.degree(polys.gcd(sf, polys.derivative(sf))) == 0
        # same irreducible support: p divides sf^deg(p)
        power = [Fraction(1)]
        for _ in range(polys.degree(p)):
            power = polys.mul(power, sf)
        _, rem2 = polys.divmod_poly(power, p)
        assert polys.is_zero(rem2)


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(5)
    for _ in range(40):
        a = random_poly(rng, 2)
        b = random_poly(rng, 2)
        if polys.degree(a) < 1 or polys.degree(b) < 1:
            continue
        p = polys.mul(a, polys.mul(b, b))  # a * b^2
        parts = polys.squarefree_decomposition(p)
        rebuilt = [Fraction(1)]
        for mult, part in parts.items():
            for _ in range(mult):
                rebuilt = polys.mul(rebuilt, part)
        assert polys.monic(rebuilt) == polys.monic(p)


def test_discriminant_known_values_and_sympy():
    assert polys.discriminant([Fraction(1), Fraction(0), Fraction(1)]) == -4
    assert polys.discriminant([Fraction(-2), Fraction(0), Fraction(1)]) == 8
    assert polys.discriminant([Fraction(3), Fraction(1)]) == 1
    rng = random.Random(6)
    for _ in range(40):
        p = random_poly(rng, 5)
        if polys.degree(p) < 2:
            continue
        got = polys.discriminant(p)
        expected = Fraction(sympy.discriminant(to_sympy(p).as_expr(), x))
        assert got == expected


def test_form_resultant_padded_vectors():
    # x^2+1 over 1: forms (x^2+y^2, y^2)
    assert polys.form_resultant([1, 0, 1], [1, 0, 0], 2) == 1
    # 2x^2+1 over 2
    assert polys.form_resultant([1, 0, 2], [2, 0, 0], 2) == 16
    # when both dehomogenized degrees are full, matches the univariate resultant
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(2, 4)
        p = [rng.randint(-5, 5) for _ in range(d + 1)]
        q = [rng.randint(-5, 5) for _ in range(d + 1)]
        p[d] = rng.randint(1, 5)
        q[d] = rng.randint(1, 5)
        got = polys.form_resultant(p, q, d)
        expected = sylvester_resultant([Fraction(c) for c in p], [Fraction(c) for c in q])
        assert got == expected


def test_bareiss_determinant_matches_fraction_gauss():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        det = polys.bareiss_determinant(m)
        sym = sympy.Matrix(m).det()
        assert det == sym


def test_solve_exact():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if polys.bareiss_determinant(m) == 0:
            continue
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        sol = polys.solve_exact(m, rhs)
        for i in range(n):
            assert sum(Fraction(m[i][j]) * sol[j] for j in range(n)) == rhs[i]


def test_to_integer_content():
    p = [Fraction(1, 2), Fraction(3, 4)]
    out = polys.to_integer(p)
    assert out == [2, 3]
    assert polys.content([6, -9, 12]) == 3


rationals = st.one_of(st.integers(-(10**6), 10**6), st.fractions(max_denominator=60))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(rationals, min_size=1, max_size=8))
def test_to_integer_keeps_signs_and_ratios(values):
    assert polys.to_integer([]) == []
    assume(any(values))
    out = polys.to_integer(values)
    assert all(type(c) is int for c in out) and len(out) == len(values)
    assert polys.content(out) == 1
    pivot = next(i for i, v in enumerate(values) if v)
    for v, c in zip(values, out):
        assert (v > 0) == (c > 0) and (v < 0) == (c < 0)
        assert c * values[pivot] == v * out[pivot]


def test_zero_polynomial_rejections():
    with pytest.raises(ValueError):
        polys.squarefree_part([])
    with pytest.raises(ValueError):
        polys.discriminant([Fraction(3)])


int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(polys.strip)


@settings(max_examples=150, deadline=None)
@given(p=int_polys, q=int_polys)
def test_int_coefficients_divide_exactly(p, q):
    # int / int is a float: each result must equal the same call on Fractions
    def no_float(value):
        assert not any(isinstance(c, float) for c in (value if isinstance(value, list) else [value]))
        return value

    fp, fq = [Fraction(c) for c in p], [Fraction(c) for c in q]
    assert no_float(polys.gcd(p, q)) == polys.gcd(fp, fq)
    assert no_float(polys.resultant(p, q)) == polys.resultant(fp, fq)
    if q:
        assert no_float(polys.mod(p, q)) == polys.mod(fp, fq)
        product, fproduct = polys.mul(p, q), polys.mul(fp, fq)
        assert no_float(polys.exact_div(product, q)) == polys.exact_div(fproduct, fq)
    if p:
        assert no_float(polys.monic(p)) == polys.monic(fp)
        assert no_float(polys.squarefree_part(p)) == polys.squarefree_part(fp)
    if polys.degree(p) >= 1:
        assert no_float(polys.discriminant(p)) == polys.discriminant(fp)


def from_sympy(poly):
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


big_rationals = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**20)),
)
rational_polys = st.lists(big_rationals, min_size=1, max_size=6).map(polys.strip)


@settings(max_examples=150, deadline=None)
@given(g=rational_polys, a=rational_polys, b=rational_polys)
def test_gcd_matches_prs_oracle_and_sympy(g, a, b):
    # g is a planted common factor; a and b may share more
    p, q = polys.mul(g, a), polys.mul(g, b)
    assume(p and q)
    got = polys.gcd(p, q)
    assert all(type(c) is Fraction for c in got) and got[-1] == 1
    assert got == prs_gcd(p, q)
    expected = sympy.gcd(to_sympy(p), to_sympy(q))
    assert got == from_sympy(expected.monic())
    assert polys.degree(got) >= polys.degree(g)


@settings(max_examples=100, deadline=None)
@given(factors=st.lists(st.tuples(rational_polys, st.integers(1, 4)), min_size=1, max_size=4))
def test_squarefree_decomposition_matches_sympy_sqf_list(factors):
    p = [Fraction(1)]
    for f, e in factors:
        assume(f)
        for _ in range(e):
            p = polys.mul(p, f)
    assume(polys.degree(p) <= 30)
    got = polys.squarefree_decomposition(p)
    _, expected = sympy.sqf_list(to_sympy(p))
    assert got == {e: from_sympy(f.monic()) for f, e in expected}


def test_gcd_retries_when_the_first_evaluation_point_fails(monkeypatch):
    # a = (x+1)(x-1), b = (x+1)(x-31): both lifts have norm-1 or norm-31
    # coefficients, so xi starts at 2*1 + 29 = 31, where b vanishes.  Then
    # gcd(a(31), b(31)) = a(31) reads back as a itself, which does not
    # divide b, and only a larger xi gives x + 1.
    a = polys.mul([Fraction(1), Fraction(1)], [Fraction(-1), Fraction(1)])
    b = polys.mul([Fraction(1), Fraction(1)], [Fraction(-31), Fraction(1)])
    calls = []
    digits = polys._symmetric_digits

    def counted(h, xi):
        calls.append(xi)
        return digits(h, xi)

    monkeypatch.setattr(polys, "_symmetric_digits", counted)
    assert polys.gcd(a, b) == [Fraction(1), Fraction(1)]
    assert calls[0] == 31 and len(calls) >= 2
    assert polys.gcd(b, a) == prs_gcd(a, b)


def test_gcd_of_constants_and_zero():
    assert polys.gcd([Fraction(5)], [Fraction(1), Fraction(2)]) == [Fraction(1)]
    assert polys.gcd([Fraction(0), Fraction(2)], [Fraction(3)]) == [Fraction(1)]
    assert polys.gcd([], [Fraction(2), Fraction(4)]) == [Fraction(1, 2), Fraction(1)]
    assert polys.gcd([], []) == []


@settings(max_examples=150, deadline=None)
@given(p=rational_polys, q=rational_polys, as_ints=st.booleans())
def test_rational_mul_matches_the_field_convolution(p, q, as_ints):
    if as_ints:
        p = [int(c) for c in p]
        q = [int(c) for c in q]
    expected = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            expected[i + j] += Fraction(a) * b
    got = polys.mul(p, q)
    assert got == polys.strip(expected)
    # ints stay ints, as in the generic loop; a Fraction anywhere makes all Fractions
    kind = int if all(type(c) is int for c in p + q) else Fraction
    assert all(type(c) is kind for c in got)
