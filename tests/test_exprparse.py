"""Expression parser: grammar, errors with positions, round-trips."""

from fractions import Fraction

import pytest

from orbitprimes import polys
from orbitprimes.errors import ExprSyntaxError, ResourceCapError
from orbitprimes.exprparse import parse_polynomial, parse_rational_function
from orbitprimes.maps import as_point


def rf(text):
    num, den = parse_rational_function(text)
    g = polys.gcd(num, den)
    num = polys.exact_div(num, g)
    den = polys.exact_div(den, g)
    lc = den[-1]
    return [c / lc for c in num], [c / lc for c in den]


def test_basic_polynomials():
    num, den = rf("x^2+1")
    assert num == [1, 0, 1]
    assert den == [1]
    num, den = rf("1/x^2")
    assert num == [1]
    assert den == [0, 0, 1]
    num, den = rf("x^2 + 1/2")
    assert num == [Fraction(1, 2), 0, 1]


def test_precedence_and_unary():
    num, den = rf("-x^2")
    assert num == [0, 0, -1]
    num, den = rf("2*x + 3*x")
    assert num == [0, 5]
    num, den = rf("(x+1)^3")
    assert num == [1, 3, 3, 1]
    num, den = rf("x^-2")
    assert (num, den) == ([1], [0, 0, 1])


def test_juxtaposition():
    assert rf("3x^2") == rf("3*x^2")
    assert rf("2(x+1)") == rf("2*(x+1)")
    assert rf("x(x+1)") == rf("x*(x+1)")


def test_rational_literals_via_division():
    num, den = rf("1/2 + 1/3")
    assert num == [Fraction(5, 6)]
    assert den == [1]


def test_unreduced_common_factor_preserved():
    num, den = parse_rational_function("(x^2-1)/(x-1)")
    assert polys.degree(polys.gcd(num, den)) == 1


def test_syntax_errors_report_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_rational_function("x^2 + ")
    assert info.value.position == len("x^2 + ")
    with pytest.raises(ExprSyntaxError):
        parse_rational_function("x^y")
    with pytest.raises(ExprSyntaxError):
        parse_rational_function("x + $")
    with pytest.raises(ExprSyntaxError):
        parse_rational_function("y^2")
    with pytest.raises(ExprSyntaxError):
        parse_rational_function("(x+1")
    with pytest.raises(ExprSyntaxError):
        parse_rational_function("1/(x-x)")


def test_parse_polynomial_rejects_proper_fractions():
    assert parse_polynomial("t^2+2t", var="t") == [0, 2, 1]
    with pytest.raises(ExprSyntaxError):
        parse_polynomial("1/t", var="t")
    # cancellation down to a polynomial is fine
    assert parse_polynomial("(t^2-1)/(t-1)", var="t") == [1, 1]


def test_rendering_round_trip():
    for text in ("x^2 + 1", "(3*x^3 - 2*x + 5)", "x^4 - x", "7", "x^2 - 1/2"):
        num, den = parse_rational_function(text)
        rendered = polys.to_string(num)
        num2, den2 = parse_rational_function(rendered)
        g = polys.gcd(num, den)
        g2 = polys.gcd(num2, den2)
        assert polys.exact_div(num, g) == polys.exact_div(num2, g2)


@pytest.mark.parametrize("text, position", [
    ("x^2+٣", 4),  # Arabic-Indic three, once read as 3
    ("x^2+²", 4),  # superscript two, once an int() error with no position
    ("x^2+1٣", 5),
    ("x٣+1", 1),
    ("２x^2", 0),  # fullwidth two
])
def test_non_ascii_digits_are_syntax_errors(text, position):
    with pytest.raises(ExprSyntaxError) as info:
        parse_rational_function(text)
    assert info.value.position == position


def test_power_literals_meet_the_digit_cap_before_multiplying():
    # 2^4000000 has 1.2 million digits, past the 10^6-digit cap
    with pytest.raises(ResourceCapError, match="digit cap near position 5"):
        parse_rational_function("x^2+2^4000000", var="x")
    with pytest.raises(ResourceCapError):
        as_point("(1/2)^-4000000")
    # k * (bit_length(h) - 1) is a lower bound on the bits of h^k
    assert as_point("2^3000000") == 2**3000000
    assert as_point("1^99999999999") == 1


def test_product_literals_meet_the_digit_cap_before_multiplying():
    # numerator and denominator are bounded apart, each by the sum of
    # (bit_length - 1) over its two factors
    with pytest.raises(ResourceCapError, match="product literal exceeds .* near position 9"):
        as_point("2^3000000*2^3000000")
    with pytest.raises(ResourceCapError, match="product literal"):
        as_point("1/2^2000000/3^1300000")
    with pytest.raises(ResourceCapError, match="product literal"):
        parse_rational_function("x^2+(2^3000000)(2^3000000)", var="x")
    # just under the cap (3330064 bits): 3300000 bits
    assert as_point("2^1650000*2^1650000") == 2**3300000
    assert as_point("(1/2^1650000)/2^1650000") == Fraction(1, 2**3300000)
    # height 2^3000000, under the cap, though the two heights sum past it
    # (a Fraction is reduced, so this is equality, without a second gcd)
    value = as_point("2^3000000/3^1800000")
    assert (value.numerator, value.denominator) == (2**3000000, 3**1800000)


def test_sum_literals_meet_the_digit_cap_before_multiplying():
    # a sum cross-multiplies: a.num * b.den, b.num * a.den and a.den * b.den
    # are each bounded like a product
    with pytest.raises(ResourceCapError, match="product literal exceeds .* near position 11"):
        as_point("1/2^3000000+1/2^3000000")
    with pytest.raises(ResourceCapError, match="product literal"):
        as_point("1/3^2000000-1/2^2000000")
    with pytest.raises(ResourceCapError, match="product literal"):
        as_point("2^2000000+1/2^2000000")
    # 3000000 bits, under the cap (3330064 bits)
    assert as_point("1/2^1500000+1/2^1500000") == Fraction(1, 2**1499999)
