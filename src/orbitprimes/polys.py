"""Dense univariate polynomial arithmetic over an exact field.

Polynomials are lists of coefficients in ascending degree order with no
trailing zeros ([] is the zero polynomial).  All routines are generic over
the coefficient field: they only use +, -, *, /, == and bool(), so they work
for fractions.Fraction and for rational-function coefficients alike.

Rational coefficients take a faster road through Z[x].  `mul` multiplies
the integer lifts (one common denominator per operand) and builds one
Fraction per output coefficient.  `gcd` and `squarefree_decomposition` run
on the content-1 lifts and make their results monic at the end.  The
integer kernels they use, which Q(t) arithmetic (`ffplaces`) calls directly,
are `int_mul`, `int_poly_gcd`, `int_exact_div` and
`int_squarefree_decomposition`.  The gcd is the heuristic gcd of Char,
Geddes and Gonnet (J. Symbolic Comput. 7, 1989): it reads the gcd of two
integer values off their xi-adic digits and confirms it by exact division
in Z[x].

Everything here is exact; nothing ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm

from .intplaces import rational_to_decimal


def strip(coeffs):
    """Drop trailing zero coefficients."""
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return c


def degree(p):
    """Degree of p, with deg 0 = -1 by convention."""
    return len(p) - 1


def is_zero(p):
    return len(p) == 0


def leading(p):
    return p[-1]


def _field_leading(p):
    """leading(p) as a field element: an int becomes a Fraction, since int / int
    would be a float."""
    lc = p[-1]
    return Fraction(lc) if isinstance(lc, int) else lc


def add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else 0
        b = q[i] if i < len(q) else 0
        out.append(a + b)
    return strip(out)


def neg(p):
    return [-a for a in p]


def sub(p, q):
    return add(p, neg(q))


def mul(p, q):
    if not p or not q:
        return []
    if _rational_coeffs(p) and _rational_coeffs(q):
        return _rational_mul(p, q)
    out = [p[0] * q[0] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return strip(out)


def _rational_mul(p, q):
    """mul for int and Fraction coefficients, on the integer lifts: an int
    convolution, then one Fraction per coefficient (ints stay ints)."""
    (a, da), (b, db) = _lift(p), _lift(q)
    out = strip(int_mul(a, b))
    if all(type(c) is int for c in p + q):
        return out
    d = da * db
    return [Fraction(c, d) for c in out]


def _lift(p):
    """(ints, d) with p == [c / d for c in ints]: d is the lcm of the
    denominators of int and Fraction coefficients."""
    d = lcm(*(c.denominator for c in p))
    return [c.numerator * (d // c.denominator) for c in p], d


def scale(p, c):
    if not c:
        return []
    return strip([a * c for a in p])


def evaluate(p, x):
    """Horner evaluation; x may live in any extension of the coefficient field."""
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def divmod_poly(p, q):
    """Quotient and remainder of p by q over a field.  q must be nonzero."""
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [q[0] * 0] * max(0, len(p) - len(q) + 1)
    dq = degree(q)
    lc = _field_leading(q)
    while len(rem) - 1 >= dq and rem:
        c = rem[-1] / lc
        k = len(rem) - 1 - dq
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] = rem[k + i] - c * b
        rem = strip(rem)
    return strip(quo), rem


def mod(p, q):
    return divmod_poly(p, q)[1]


def exact_div(p, q):
    quo, rem = divmod_poly(p, q)
    if not is_zero(rem):
        raise ValueError("exact_div: division left a remainder")
    return quo


def monic(p):
    if is_zero(p):
        return []
    lc = _field_leading(p)
    return [a / lc for a in p]


def gcd(p, q):
    """Monic gcd.  Rational coefficients go through `int_poly_gcd` on the
    content-1 integer lifts (naive fraction Euclid blows up exponentially in
    coefficient size); other coefficient fields use the plain Euclidean
    algorithm."""
    a, b = strip(p), strip(q)
    if is_zero(a):
        return monic(b)
    if is_zero(b):
        return monic(a)
    if _rational_coeffs(a) and _rational_coeffs(b):
        return _monic_rational(int_poly_gcd(to_integer(a), to_integer(b)))
    while not is_zero(b):
        a, b = b, mod(a, b)
    return monic(a)


def _rational_coeffs(p):
    return all(isinstance(c, (int, Fraction)) for c in p)


def _monic_rational(g):
    """The integer polynomial g divided by its leading coefficient, as Fractions."""
    return [Fraction(c, g[-1]) for c in g]


def derivative(p):
    return strip([p[i] * i for i in range(1, len(p))])


def squarefree_part(p):
    """p / gcd(p, p'), made monic.  Same irreducible factors, all to power 1."""
    if is_zero(p):
        raise ValueError("squarefree_part of the zero polynomial")
    if degree(p) == 0:
        return monic(p)
    g = gcd(p, derivative(p))
    return monic(exact_div(monic(p), g))


def squarefree_decomposition(p):
    """Yun's algorithm over Q: {i: A_i} with p ~ prod A_i^i, each A_i monic
    square-free, from `int_squarefree_decomposition` of the integer lift."""
    if is_zero(p):
        raise ValueError("squarefree decomposition of the zero polynomial")
    parts = int_squarefree_decomposition(to_integer(p))
    return {i: _monic_rational(a) for i, a in parts.items()}


def resultant(p, q):
    """Resultant of two univariate polynomials over a field (Euclidean PRS)."""
    a, b = strip(p), strip(q)
    if is_zero(a) or is_zero(b):
        return Fraction(0)
    res = 1
    while degree(b) > 0:
        r = mod(a, b)
        if is_zero(r):
            return a[0] * 0
        da, db, dr = degree(a), degree(b), degree(r)
        piece = leading(b) ** (da - dr)
        if (da * db) % 2 == 1:
            piece = -piece
        res = res * piece
        a, b = b, r
    return res * (b[0] ** degree(a))


def discriminant(p):
    """(-1)^(d(d-1)/2) * Res(p, p') / lc(p); deg p must be >= 1."""
    d = degree(p)
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    lc = _field_leading(p)
    if d == 1:
        return lc / lc
    r = resultant(p, derivative(p))
    sign = -1 if (d * (d - 1) // 2) % 2 == 1 else 1
    return sign * r / lc


# ---------------------------------------------------------------------------
# Integer polynomials and binary forms
# ---------------------------------------------------------------------------

def content(p):
    """Gcd of the integer coefficients (p must have int entries)."""
    return int_gcd(*p)


def to_integer(p):
    """Clear denominators of rationals (a polynomial, or any list with a
    nonzero entry) and divide out the content.

    Returns an int list with content 1, of the same signs and ratios.
    """
    if is_zero(p):
        return []
    ints, _ = _lift([a if isinstance(a, Fraction) else Fraction(a) for a in p])
    c = content(ints)
    return [a // c for a in ints]


def primitive(p):
    """The integer polynomial p divided by its content, leading coefficient
    positive ([] for the zero polynomial)."""
    if not p:
        return []
    c = int_gcd(*p)
    if p[-1] < 0:
        c = -c
    return list(p) if c == 1 else [a // c for a in p]


def int_mul(p, q):
    """Product in Z[x]: the convolution of two int coefficient lists."""
    if not p or not q:
        return []
    if len(p) == 1 or len(q) == 1:
        (c,), r = (p, q) if len(p) == 1 else (q, p)
        return list(r) if c == 1 else [c * a for a in r]
    out = [0] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        if u:
            for j, v in enumerate(q, i):
                out[j] += u * v
    return out


def int_poly_gcd(p, q):
    """Gcd in Z[x] of two integer polynomials: primitive, with positive
    leading coefficient ([] when both are zero).

    GCDHEU: with a, b the primitive parts and xi >= 2 min(|a|, |b|) + 2, the
    primitive part of the symmetric xi-adic digits of gcd(a(xi), b(xi)) is
    the gcd whenever it divides both a and b; else xi grows.  The only
    spurious factor, gcd(a'(xi), b'(xi)) of the cofactors, divides the
    nonzero Res(a', b'), so some xi succeeds."""
    a, b = primitive(strip(p)), primitive(strip(q))
    if not a or not b:
        return a or b
    if len(a) == 1 or len(b) == 1:
        return [1]
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    while True:
        g = primitive(_symmetric_digits(int_gcd(_int_evaluate(a, xi), _int_evaluate(b, xi)), xi))
        if _int_quotient(a, g) is not None and _int_quotient(b, g) is not None:
            return g
        xi = xi * 73794 // 27011


def _int_evaluate(a, x):
    """a(x) for a nonzero integer polynomial and an integer x > 1, by
    Estrin's scheme: adjacent coefficients pair up as c0 + c1 x, then the
    pairs as d0 + d1 x^2, and so on, so the large multiplies are balanced
    and run at Karatsuba speed where Horner's would be quadratic in the
    degree."""
    values = list(a)
    while len(values) > 1:
        if len(values) % 2:
            values.append(0)
        values = [values[i] + values[i + 1] * x for i in range(0, len(values), 2)]
        if len(values) > 1:
            x *= x
    return values[0]


def _symmetric_digits(h, xi):
    """The integer polynomial g with g(xi) = h and every |coefficient| <=
    xi / 2; h > 0."""
    g = []
    while h:
        h, r = divmod(h, xi)
        if 2 * r > xi:
            r -= xi
            h += 1
        g.append(r)
    return g


def _int_quotient(a, g):
    """a / g in Z[x] when g divides a there, else None: long division that
    stops at the first quotient coefficient that is not an integer, or at a
    nonzero remainder."""
    dg = len(g) - 1
    rem = list(a)
    lc = g[-1]
    quo = [0] * max(0, len(a) - dg)
    for k in range(len(a) - 1 - dg, -1, -1):
        c, r = divmod(rem[k + dg], lc)
        if r:
            return None
        if c:
            quo[k] = c
            for i in range(dg):
                rem[k + i] -= c * g[i]
    return None if any(rem[:dg]) else quo


def int_exact_div(a, g):
    """a / g for integer polynomials where g divides a in Z[x]."""
    quo = _int_quotient(a, g)
    if quo is None:
        raise ValueError("int_exact_div: division left a remainder")
    return quo


def int_squarefree_decomposition(p):
    """Yun's algorithm in Z[x]: {i: A_i} with p ~ prod A_i^i, each A_i
    primitive and square-free with positive leading coefficient, for a
    nonzero integer polynomial p.  Only multiplicities with deg A_i > 0 are
    reported.  Characteristic 0 only."""
    p = primitive(strip(p))
    if len(p) < 2:
        return {}
    parts = {}
    g = int_poly_gcd(p, derivative(p))
    w = int_exact_div(p, g)
    i = 1
    while len(w) > 1:
        y = int_poly_gcd(w, g)
        z = int_exact_div(w, y)
        if len(z) > 1:
            parts[i] = z
        g = int_exact_div(g, y)
        w = y
        i += 1
    return parts


def radical_degree(p):
    """deg p - deg gcd(p, p'), the degree of the product of the distinct
    irreducible factors of a nonzero integer polynomial p."""
    return degree(p) - degree(int_poly_gcd(p, derivative(p)))


def bareiss_determinant(matrix):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def form_sylvester(pc, qc, d):
    """Sylvester matrix of two degree-d binary forms given by full coefficient
    vectors of length d+1 (index k = coefficient of x^k y^(d-k)).

    Vanishing top coefficients are kept: the form resultant sees the root at
    infinity, unlike the resultant of the dehomogenized polynomials.
    """
    if len(pc) != d + 1 or len(qc) != d + 1:
        raise ValueError("coefficient vectors must have length d+1")
    size = 2 * d
    rows = []
    pdesc = list(reversed(pc))
    qdesc = list(reversed(qc))
    for shift in range(d):
        rows.append([0] * shift + pdesc + [0] * (size - d - 1 - shift))
    for shift in range(d):
        rows.append([0] * shift + qdesc + [0] * (size - d - 1 - shift))
    return rows


def form_resultant(pc, qc, d):
    """Resultant of two degree-d integer binary forms (Sylvester determinant)."""
    return bareiss_determinant(form_sylvester(pc, qc, d))


def solve_exact(matrix, rhs):
    """Solve M x = rhs exactly over Fraction; M must be square and invertible."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def to_string(p, var="x"):
    """Canonical descending-degree rendering of int and Fraction
    coefficients, round-trippable by the parser."""
    p = strip(p)
    if is_zero(p):
        return "0"
    terms = []
    for k in range(degree(p), -1, -1):
        c = p[k]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = rational_to_decimal(mag)
        else:
            xpow = var if k == 1 else f"{var}^{k}"
            if mag == 1:
                body = xpow
            elif mag.denominator == 1:
                body = f"{rational_to_decimal(mag)}*{xpow}"
            else:
                body = f"({rational_to_decimal(mag)})*{xpow}"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out
