"""Independent oracles used by the tests.

Everything here deliberately avoids the code paths it is checking: the
resultant oracle is a bare Sylvester determinant over Fractions, the
primitive-divisor oracle works from factorizations and definitional
valuation checks (with a gcd-splitting closure for composites the factoring
budget cannot finish, which still yields sound verdicts), the primitive
part is stripped against every earlier numerator in full (not against the
orbit of 0 and the resultant), iterates are
expanded by sympy composition, and the fibre oracles read multiplicities off
that degree-d^n iterate with sympy's square-free decomposition instead of
following critical orbits.  The prop-old screens are sympy remainders and
gcds on the same expansion.  The square-free rule runs the library's
`factor` to the end, the path the early-stopping square-free search must
agree with.  Decimal output is split
at powers of ten with int divmod, and map evaluation computes both forms
before it checks the digit cap.  Good reduction is the literal
two-condition test with its own F_p Euclid, and the height-bound constant W
is solved against a matrix built column by column from the forms.  Canonical
heights come from h(phi^N(alpha)) / d^N on the exact orbit.  The key lemma
(at a prime of good reduction, reduction mod p commutes with phi) is checked
by stepping a residue through the integral forms reduced mod p, against the
reduction of `RationalMap.evaluate`; p-adic valuations are counted by
repeated division.  The Q[x] gcd is a primitive pseudo-remainder sequence
over Z, not the library's heuristic gcd.  Q(t) has the Fraction
representation the library used before its Z[t] kernels: reduced pairs of
Fraction polynomials with a monic denominator, the PRS gcd, long division
over Q, and a Fraction Yun and gcd-strip built on them.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd


def sylvester_resultant(f, g):
    """Resultant of univariate polynomials via the Sylvester determinant,
    computed by plain fraction-exact Gaussian elimination."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    if not f or not g:
        return Fraction(0)
    m, n = len(f) - 1, len(g) - 1
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    fd = list(reversed(f))
    gd = list(reversed(g))
    for i in range(n):
        rows.append([Fraction(0)] * i + fd + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gd + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _int_pseudo_rem(a, b):
    """a reduced mod b up to a power of lc(b), all in integers: a nonzero
    rational multiple of the true remainder, or []."""
    db = len(b) - 1
    lc = b[-1]
    rem = list(a)
    while rem and len(rem) - 1 >= db:
        dr = len(rem) - 1
        coeff = rem[-1]
        rem = [lc * c for c in rem]
        for i in range(db + 1):
            rem[dr - db + i] -= coeff * b[i]
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _primitive(p):
    c = gcd(*p)
    out = [v // c for v in p]
    return [-v for v in out] if out[-1] < 0 else out


def _int_lift(p):
    p = [Fraction(c) for c in p]
    scale = 1
    for c in p:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    return _primitive([int(c * scale) for c in p])


def prs_gcd(p, q):
    """Monic gcd of nonzero rational polynomials (ascending coefficient
    lists, no trailing zeros) by a primitive pseudo-remainder sequence over
    Z, as Fractions."""
    a, b = _int_lift(p), _int_lift(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [Fraction(1)]
        r = _int_pseudo_rem(a, b)
        if not r:
            break
        a, b = b, _primitive(r)
    g = b or a
    return [Fraction(c, g[-1]) for c in g]


def _trial_division(n, bound=100_000):
    powers = {}
    d = 2
    while d * d <= n and d <= bound:
        while n % d == 0:
            powers[d] = powers.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    return powers, n


def _is_prime(n):
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n, steps):
    if n % 2 == 0:
        return 2
    c = 1
    while steps > 0:
        x = y = 2
        d = 1
        budget = min(steps, 1 << 18)
        steps -= budget
        while d == 1 and budget > 0:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
            budget -= 1
        if 1 < d < n:
            return d
        c += 1
    return None


def oracle_factor(n, rho_steps=1 << 22):
    """(prime -> exponent, leftover composites) by trial division, Miller-Rabin
    and Pollard rho; leftovers appear when rho_steps runs out."""
    powers, rest = _trial_division(abs(n))
    stack = [rest] if rest > 1 else []
    leftovers = []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            powers[m] = powers.get(m, 0) + 1
            continue
        d = _rho(m, rho_steps)
        if d is None:
            leftovers.append(m)
            continue
        stack.extend((d, m // d))
    return powers, leftovers


def primitive_existence_oracle(numerators, n, rho_steps=1 << 20):
    """Does numerators[n-1] have a prime factor dividing no earlier numerator?

    Route: factor what the budget allows, check each prime against the
    definition directly.  Any unfactored composite is split against the
    earlier numerators by gcds until its pieces are either fully entangled
    with history (their primes all divide some earlier numerator) or coprime
    to all of it (every one of their primes is primitive).  Both outcomes are
    definitionally sound without completing the factorization.

    Returns (exists, witness_prime_or_None, fully_factored).
    """
    target = numerators[n - 1]
    earlier = [m for m in numerators[: n - 1]]
    if target == 0:
        raise ValueError("zero value has no primitive prime data")
    powers, leftovers = oracle_factor(target, rho_steps)
    witness = None
    for p in sorted(powers):
        if all(e % p != 0 for e in earlier):
            witness = p
            break
    if witness is not None:
        return True, witness, not leftovers
    # close the leftovers against history by gcd splitting
    work = list(leftovers)
    while work:
        piece = work.pop()
        if piece == 1:
            continue
        for e in earlier:
            g = gcd(piece, e)
            if 1 < g < piece:
                work.extend((g, piece // g))
                break
            if g == piece:
                break  # every prime of piece divides e: nothing primitive here
        else:
            # coprime to all earlier numerators: all its primes are primitive
            return True, None, not leftovers
    return False, None, not leftovers


def all_pairs_primitive_part(numerators, n):
    """numerators[n-1] with every prime of every earlier numerator divided
    out, by gcds against each earlier numerator in full.  An earlier 0 is
    divisible by every prime, so the part is then 1."""
    part = numerators[n - 1]
    for earlier in numerators[: n - 1]:
        if earlier == 0:
            return 1
        g = gcd(part, earlier)
        while g != 1:
            part //= g
            g = gcd(part, g)
    return part


def squarefree_primitive_oracle(numerators, n, rho_steps=1 << 22):
    """A prime with exponent exactly 1 at level n dividing no earlier level,
    from a full factorization.  Returns (exists, prime, fully_factored);
    exists is None when the factorization is incomplete and no listed prime
    settles it."""
    target = numerators[n - 1]
    earlier = numerators[: n - 1]
    powers, leftovers = oracle_factor(target, rho_steps)
    for p in sorted(powers):
        # an unsplit composite could hide extra copies of p, so only trust
        # the exponent when p does not divide any leftover
        if (
            powers[p] == 1
            and all(left % p != 0 for left in leftovers)
            and all(e % p != 0 for e in earlier)
        ):
            return True, p, not leftovers
    if leftovers:
        return None, None, False
    return False, None, True


@lru_cache(maxsize=64)
def _iterate_polys(rmap, n):
    """sympy Polys P_n(x, 1), Q_n(x, 1), composed from level n - 1."""
    import sympy

    x = sympy.Symbol("x")
    if n == 0:
        return sympy.Poly(x, x, domain="ZZ"), sympy.Poly(1, x, domain="ZZ")
    p, q = _iterate_polys(rmap, n - 1)
    d = rmap.degree
    p_pows, q_pows = [p**k for k in range(d + 1)], [q**k for k in range(d + 1)]
    out = []
    for form in (rmap.numer_coeffs, rmap.denom_coeffs):
        acc = sympy.Poly(0, x, domain="ZZ")
        for k, c in enumerate(form):
            acc += c * p_pows[k] * q_pows[d - k]
        out.append(acc)
    return tuple(out)


def iterate_forms(rmap, n):
    """Coefficients of P_n(x, 1) and Q_n(x, 1), lowest degree first and
    padded to the nominal degree d^n, from sympy's univariate composition
    P_n = sum_k c_k P_{n-1}^k Q_{n-1}^(d-k) (likewise Q_n), where c_k is the
    coefficient of x^k y^(d-k) in the map's forms."""
    out = []
    for poly in _iterate_polys(rmap, n):
        coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        out.append(coeffs + [0] * (rmap.degree**n + 1 - len(coeffs)))
    return out[0], out[1]


def _iterate_fibre_form(rmap, beta, n):
    """Integer coefficients of b*P_n - a*Q_n for beta = (a : b), from the
    expanded degree-d^n iterate, lowest degree first, trailing zeros dropped."""
    from orbitprimes import INFINITY

    p_n, q_n = iterate_forms(rmap, n)
    a, b = (1, 0) if beta is INFINITY else (Fraction(beta).numerator, Fraction(beta).denominator)
    w = [b * p - a * q for p, q in zip(p_n, q_n)]
    while w and w[-1] == 0:
        w.pop()
    if not w:
        raise AssertionError("p_n and q_n proportional")
    return w


def qq_poly(coeffs):
    """A sympy Poly over QQ from coefficients, lowest degree first."""
    import sympy

    x = sympy.Symbol("x")
    rationals = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in coeffs]
    return sympy.Poly(list(reversed(rationals)) or [0], x, domain="QQ")


def prop_old_screen_oracle(rmap, F, i):
    """(F divides P_i, the prop-old hypothesis notes), from sympy remainders
    and gcds on the expanded P_k, Q_k: a root of F hits 0 at level l < i when
    gcd(F, P_l) != 1 (P_0 = x), and has a period dividing k <= 6 when
    gcd(F, P_k - x*Q_k) != 1.  The notes are None when F does not divide P_i."""
    F = qq_poly(F)
    forms = [([0, 1], [1])] + [iterate_forms(rmap, k) for k in range(1, max(i, 6) + 1)]
    P = [qq_poly(p) for p, _ in forms]
    Q = [qq_poly(q) for _, q in forms]
    if not P[i].rem(F).is_zero:
        return False, None
    x = qq_poly([0, 1])
    notes = [f"a root of F hits 0 at level {ell}"
             for ell in range(i) if F.gcd(P[ell]).degree() > 0]
    notes += [f"a root of F is periodic with period dividing {k}"
              for k in range(1, 7) if F.gcd(P[k] - x * Q[k]).degree() > 0]
    return True, tuple(notes)


def _squarefree_degrees(w):
    """{multiplicity: total degree of the factors of w with that multiplicity},
    from sympy's square-free decomposition over the integers."""
    import sympy

    if len(w) == 1:
        return {}
    x = sympy.Symbol("x")
    out = {}
    for part, mult in sympy.Poly(list(reversed(w)), x, domain="ZZ").sqf_list()[1]:
        out[mult] = out.get(mult, 0) + part.degree()
    return out


def preimage_count_oracle(rmap, beta, n):
    """Distinct points of phi^(-n)(beta): the roots of b*P_n - a*Q_n, plus
    infinity when that form drops degree."""
    w = _iterate_fibre_form(rmap, beta, n)
    count = sum(_squarefree_degrees(w).values())
    if len(w) - 1 < rmap.degree**n:
        count += 1  # the point at infinity
    return count


def ramification_profile_oracle(rmap, n):
    """(sorted (multiplicity, root count) pairs, multiplicity of infinity) of
    phi^(-n)(0), from the square-free decomposition of the expanded P_n."""
    w = _iterate_fibre_form(rmap, 0, n)
    finite = tuple(sorted(_squarefree_degrees(w).items()))
    return finite, rmap.degree**n - (len(w) - 1)


def squarefree_full_factor_rule(part, budget):
    """The square-free verdict on a primitive part from `factor` run to the
    end, with no early stop: the smallest exponent-1 prime, else unresolved
    when a cofactor is left.  Returns (prime_or_None, unresolved)."""
    from orbitprimes.intplaces import factor

    fac = factor(part, budget=budget)
    for p, e in fac.prime_powers:
        if e == 1:
            return p, False
    return None, not fac.is_complete


def to_decimal_by_powers_of_ten(n):
    """Decimal string of n from divmod by 10^k down to pieces of at most
    2000 bits, which str() converts under any int/str digit guard."""
    if n < 0:
        return "-" + to_decimal_by_powers_of_ten(-n)
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20  # at most half the digit count
    high, low = divmod(n, 10**k)
    return to_decimal_by_powers_of_ten(high) + to_decimal_by_powers_of_ten(low).zfill(k)


def evaluate_exact(rmap, z):
    """phi(z) from both forms evaluated at (a : b), then the digit cap on
    the unreduced values, as `RationalMap.evaluate` did before it could
    refuse a step from the height lower bound."""
    from orbitprimes.errors import ResourceCapError
    from orbitprimes.maps import INFINITY, as_point, point_to_pair

    a, b = point_to_pair(as_point(z))
    d = rmap.degree
    pv = sum(c * a**k * b ** (d - k) for k, c in enumerate(rmap._p_form))
    qv = sum(c * a**k * b ** (d - k) for k, c in enumerate(rmap._q_form))
    if qv == 0:
        return INFINITY
    limit = int(rmap.digit_cap * 3.33) + 64
    if max(abs(pv), abs(qv)).bit_length() > limit:
        raise ResourceCapError("over the digit cap", cap=rmap.digit_cap)
    return Fraction(pv, qv)


def _fp_gcd_degree(f, g, p):
    """Degree of gcd(f, g) over F_p for integer coefficient lists, lowest
    degree first; None when both reduce to the zero polynomial."""
    a = [c % p for c in f]
    b = [c % p for c in g]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            k = len(a) - len(b)
            for i, bc in enumerate(b):
                a[k + i] = (a[k + i] - c * bc) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1 if a else None


def good_reduction_literal(rmap, p):
    """The literal two-condition test: P and Q keep no common root mod p,
    and neither do the reversed forms p(1, y) and q(1, y)."""
    affine = _fp_gcd_degree(rmap.numer_coeffs, rmap.denom_coeffs, p)
    at_infinity = _fp_gcd_degree(rmap._p_form[::-1], rmap._q_form[::-1], p)
    return affine == 0 and at_infinity == 0


def valuation(x, p):
    """Exact p-adic valuation of a nonzero rational (negative values allowed)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    num = abs(x.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def reduce_residue(z, p):
    """r_p(z): reduction of a point of P^1(Q) to F_p plus infinity."""
    from orbitprimes.maps import INFINITY, as_point, point_to_pair

    a, b = point_to_pair(as_point(z))
    if b % p == 0:
        return INFINITY
    return a * pow(b, p - 2, p) % p


def residue_step(rmap, r, p):
    """The induced map on F_p plus infinity: the integral forms at (r : 1),
    or at (1 : 0) for infinity, reduced mod p."""
    from orbitprimes.maps import INFINITY, point_to_pair

    a, b = point_to_pair(r)
    d = rmap.degree
    pv = sum(c * pow(a, k, p) * pow(b, d - k, p) for k, c in enumerate(rmap._p_form)) % p
    qv = sum(c * pow(a, k, p) * pow(b, d - k, p) for k, c in enumerate(rmap._q_form)) % p
    if qv == 0:
        if pv == 0:
            raise ValueError(f"{p} is a prime of bad reduction")
        return INFINITY
    return pv * pow(qv, p - 2, p) % p


def reduce_and_step(rmap, z, p):
    """(phi(r_p(z)), r_p(phi(z))): the two sides of the key lemma, equal at
    every prime of good reduction (p not dividing the form resultant)."""
    if rmap.resultant % p == 0:
        raise ValueError(f"{p} is a prime of bad reduction")
    stepped = residue_step(rmap, reduce_residue(z, p), p)
    reduced = reduce_residue(rmap.evaluate(z), p)
    return stepped, reduced


def _solve_fractions(matrix, rhs):
    """x with matrix * x = rhs, by Gauss-Jordan elimination over Fractions."""
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def lower_bound_norm_oracle(rmap):
    """W = max(L1(u) + L1(v), L1(s) + L1(t), 1) for the degree-(d-1) forms
    with u*p + v*q = R * x^(2d-1) and s*p + t*q = R * y^(2d-1).  Row m of the
    matrix is the coefficient of x^m y^(2d-1-m); column k (column d + k)
    multiplies the coefficient of x^k y^(d-1-k) in u (in v)."""
    d = rmap.degree
    size = 2 * d
    matrix = [[0] * size for _ in range(size)]
    for k in range(d):
        for m in range(k, k + d + 1):
            matrix[m][k] = rmap._p_form[m - k]
            matrix[m][d + k] = rmap._q_form[m - k]
    norm = Fraction(1)
    for target_row in (size - 1, 0):
        rhs = [0] * size
        rhs[target_row] = rmap.resultant
        norm = max(norm, sum(abs(c) for c in _solve_fractions(matrix, rhs)))
    return norm


def canonical_height_exact(rmap, alpha, tol=1e-6):
    """The exact-orbit estimator h(phi^N(alpha)) / d^N, computed here from
    `RationalMap.evaluate` alone: N is the least count whose tail radius
    c_phi / (d^N * (1 - 1/d)) meets tol, a repeat within N steps gives an
    exact 0, and the digit cap stops the walk early with the capped flag set."""
    from math import log

    from orbitprimes.errors import ResourceCapError
    from orbitprimes.heights import CanonicalHeightEstimate, phi_height_bound
    from orbitprimes.maps import INFINITY, as_point

    if not tol > 0:
        raise ValueError("tol must be positive")
    c_phi = phi_height_bound(rmap)
    d = rmap.degree

    def tail(n):
        return c_phi / (d**n * (1 - 1 / d))

    target_n = 0
    while tail(target_n) > tol:
        target_n += 1
    value = as_point(alpha)
    seen = {value: 0}
    n, capped = 0, False
    while n < target_n:
        try:
            value = rmap.evaluate(value)
        except ResourceCapError:
            capped = True
            break
        n += 1
        if value in seen:
            return CanonicalHeightEstimate(estimate=0.0, error_radius=0.0, iterations_used=n,
                                           c_phi=c_phi, preperiodic=True)
        seen[value] = n
    height = 0.0 if value is INFINITY else log(max(abs(value.numerator), value.denominator))
    return CanonicalHeightEstimate(estimate=height / d**n, error_radius=tail(n),
                                   iterations_used=n, c_phi=c_phi, capped=capped)


# ---------------------------------------------------------------------------
# Q(t) over Fractions
# ---------------------------------------------------------------------------

def _fraction_strip(p):
    p = [Fraction(c) for c in p]
    while p and not p[-1]:
        p.pop()
    return p


def _fraction_add(p, q):
    n = max(len(p), len(q))
    return _fraction_strip([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                            for i in range(n)])


def _fraction_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _fraction_strip(out)


def fraction_exact_div(p, q):
    """p / q over Q by long division; q must divide p."""
    rem, quo = list(p), [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q):
        c = rem[-1] / q[-1]
        k = len(rem) - len(q)
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = _fraction_strip(rem)
    if rem:
        raise AssertionError("fraction_exact_div left a remainder")
    return _fraction_strip(quo)


def _fraction_monic(p):
    return [c / p[-1] for c in p]


class FractionFF:
    """An element of Q(t) as a reduced pair of Fraction polynomials with a
    monic denominator: the representation FFElement had before it moved to
    Z[t], kept as its oracle.  Reduction uses the PRS gcd above."""

    def __init__(self, num, den=(1,)):
        num, den = _fraction_strip(num), _fraction_strip(den)
        if not den:
            raise ZeroDivisionError("FractionFF with zero denominator")
        if not num:
            den = [Fraction(1)]
        elif len(den) > 1:
            g = prs_gcd(num, den)
            if len(g) > 1:
                num, den = fraction_exact_div(num, g), fraction_exact_div(den, g)
        lc = den[-1]
        self.num = tuple(c / lc for c in num)
        self.den = tuple(c / lc for c in den)

    @property
    def is_zero(self):
        return not self.num

    def __add__(self, other):
        return FractionFF(_fraction_add(_fraction_mul(self.num, other.den),
                                        _fraction_mul(other.num, self.den)),
                          _fraction_mul(self.den, other.den))

    def __neg__(self):
        return FractionFF([-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return FractionFF(_fraction_mul(self.num, other.num), _fraction_mul(self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("FractionFF division by zero")
        return FractionFF(_fraction_mul(self.num, other.den), _fraction_mul(self.den, other.num))

    def __pow__(self, k):
        if k < 0:
            return FractionFF([1]) / self ** (-k)
        out = FractionFF([1])
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        num = _fraction_poly_str(self.num)
        if len(self.den) == 1:
            return num
        return f"({num})/({_fraction_poly_str(self.den)})"


def _fraction_poly_str(p):
    """Descending terms "c*t^k", "+ (p/q)*t", "- t", constants bare, as the
    library renders polynomials in t."""
    if not p:
        return "0"
    out = ""
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        mag = abs(c)
        text = f"{mag.numerator}" if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if k:
            tpow = "t" if k == 1 else f"t^{k}"
            text = tpow if mag == 1 else (f"{text}*{tpow}" if mag.denominator == 1
                                          else f"({text})*{tpow}")
        if not out:
            out = ("-" if c < 0 else "") + text
        else:
            out += f" {'-' if c < 0 else '+'} {text}"
    return out


def ff_primitive_part_oracle(numerators, n):
    """The monic n-th numerator with every irreducible it shares with an
    earlier numerator removed: repeated PRS gcds and Fraction division
    against each earlier numerator in full ([1] after an earlier zero)."""
    part = _fraction_monic(numerators[n - 1])
    for earlier in numerators[: n - 1]:
        if not earlier:
            return [Fraction(1)]
        g = prs_gcd(part, earlier)
        while len(g) > 1:
            part = fraction_exact_div(part, g)
            g = prs_gcd(part, g)
    return part


def yun_oracle(p):
    """{i: A_i}, A_i monic square-free with p ~ prod A_i^i: Yun's algorithm
    over Fractions with the PRS gcd."""
    p = _fraction_monic(_fraction_strip(p))
    if len(p) < 2:
        return {}
    derivative = _fraction_strip([c * i for i, c in enumerate(p)][1:])
    g = prs_gcd(p, derivative)
    w = fraction_exact_div(p, g)
    parts, i = {}, 1
    while len(w) > 1:
        y = prs_gcd(w, g)
        z = fraction_exact_div(w, y)
        if len(z) > 1:
            parts[i] = z
        g = fraction_exact_div(g, y)
        w = y
        i += 1
    return parts
