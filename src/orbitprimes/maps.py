"""Rational maps of degree > 1 on the projective line, in exact arithmetic.

A map is stored as an integral pair (P, Q) with coprime content and no common
root; iterates are computed in homogeneous form, where the recursion
p_i = p(p_{i-1}, q_{i-1}), q_i = q(p_{i-1}, q_{i-1}) is exact and the point
at infinity needs no special cases.  Points of P^1(Q) are Fractions plus the
INFINITY sentinel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm
from typing import Optional

from . import polys
from .errors import (
    BadPrimeError,
    ExprSyntaxError,
    InvariantError,
    MapConstructionError,
    ResourceCapError,
)
from .exprparse import parse_rational_function
from .ffplaces import FFElement
from .intplaces import DEFAULT_BUDGET, factor

DEFAULT_ITERATE_DEGREE_CAP = 4096
DEFAULT_DIGIT_CAP = 10**6


class _Infinity:
    """The point at infinity of P^1.  A unique sentinel."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __str__(self):
        return "inf"


INFINITY = _Infinity()


def as_point(z):
    """Coerce int/str/Fraction into an extended rational."""
    if z is INFINITY or isinstance(z, (Fraction, FFElement)):
        return z
    if isinstance(z, int):
        return Fraction(z)
    if isinstance(z, str):
        if z.strip() in ("inf", "oo", "infinity"):
            return INFINITY
        return Fraction(z)
    raise TypeError(f"cannot interpret {z!r} as a point of P^1")


def point_to_pair(z):
    """Projective integer coordinates (a, b) with gcd 1, b >= 0; infinity is (1, 0)."""
    if z is INFINITY:
        return 1, 0
    z = Fraction(z)
    return z.numerator, z.denominator


def _digits_cap_ok(n: int, cap: int) -> bool:
    # bit_length/3.3 approximates the decimal digit count closely enough
    return n.bit_length() <= int(cap * 3.33) + 64


@dataclass(frozen=True)
class IterateRep:
    """Homogeneous coefficient vectors of the i-th iterate (degree d^i forms).

    Index k of each vector is the coefficient of x^k y^(D-k); the
    dehomogenized numerator P_i(x) reads off the same list.
    """

    index: int
    p_coeffs: tuple
    q_coeffs: tuple

    @property
    def numerator_poly(self):
        return polys.strip(list(self.p_coeffs))

    @property
    def denominator_poly(self):
        return polys.strip(list(self.q_coeffs))


@dataclass(frozen=True)
class ResidueCycle:
    prime: int
    start: object  # residue in F_p, or INFINITY
    tail_length: int
    period: int


@dataclass(frozen=True)
class RamificationProfile:
    """Multiplicity structure of the level-n preimages of 0."""

    level: int
    finite_multiplicities: tuple  # sorted (multiplicity, number_of_roots) pairs
    infinity_multiplicity: int
    simple_root_count: int

    @property
    def total(self):
        return (
            sum(m * c for m, c in self.finite_multiplicities)
            + self.infinity_multiplicity
        )


@dataclass(frozen=True)
class RamificationVerdict:
    """Heuristic three-valued verdict; see RationalMap.dynamical_ramification_verdict."""

    kind: str  # "not-dynamically-ramified" | "likely-dynamically-ramified" | "inconclusive"
    witness: Optional[int]
    cumulative_simple_roots: int
    depth: int
    threshold: int


@dataclass(frozen=True)
class BadReduction:
    """Primes failing the two-condition good-reduction test.

    When the resultant resists factoring within budget, `unresolved_cofactor`
    holds the unfactored part: primes dividing it are undetermined.
    """

    primes: frozenset
    resultant: int
    unresolved_cofactor: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.unresolved_cofactor is None


def _fp_poly(coeffs, p):
    return polys.strip([c % p for c in coeffs])


def _fp_gcd_degree(f, g, p):
    """Degree of gcd of two polynomials over F_p (zero poly convention)."""
    a, b = list(f), list(g)
    while b:
        # remainder of a by b over F_p
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b) and a:
            c = a[-1] * inv % p
            k = len(a) - len(b)
            for i, bc in enumerate(b):
                a[k + i] = (a[k + i] - c * bc) % p
            while a and a[-1] % p == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1 if a else None  # None: gcd is the zero polynomial


class RationalMap:
    """A rational function P/Q over Q of degree d > 1, with cached iterates."""

    def __init__(
        self,
        numer_coeffs,
        denom_coeffs,
        iterate_degree_cap: int = DEFAULT_ITERATE_DEGREE_CAP,
        digit_cap: int = DEFAULT_DIGIT_CAP,
    ):
        num = polys.strip(list(numer_coeffs))
        den = polys.strip(list(denom_coeffs))
        if polys.is_zero(den):
            raise MapConstructionError("denominator is zero")
        if polys.is_zero(num):
            raise MapConstructionError("numerator is zero (the map must be nonconstant)")
        num_q = [Fraction(c) for c in num]
        den_q = [Fraction(c) for c in den]
        # integral model with joint content 1
        scale = lcm(*(c.denominator for c in num_q + den_q))
        num_i = [int(c * scale) for c in num_q]
        den_i = [int(c * scale) for c in den_q]
        g = int_gcd(polys.content(num_i), polys.content(den_i))
        num_i = [c // g for c in num_i]
        den_i = [c // g for c in den_i]
        # sign normalization: first nonzero denominator coefficient positive
        first = next(c for c in den_i if c != 0)
        if first < 0:
            num_i = [-c for c in num_i]
            den_i = [-c for c in den_i]
        d = max(polys.degree(num_i), polys.degree(den_i))
        if d < 2:
            raise MapConstructionError(f"degree {d} map; need degree > 1")
        common = polys.int_poly_gcd(num_i, den_i)
        if polys.degree(common) > 0:
            raise MapConstructionError(
                f"numerator and denominator share a root: common factor "
                f"{polys.to_string(common)}"
            )
        self.numer_coeffs = tuple(num_i)
        self.denom_coeffs = tuple(den_i)
        self.degree = d
        self.content_normalized = True
        self.iterate_degree_cap = iterate_degree_cap
        self.digit_cap = digit_cap
        p_form = num_i + [0] * (d - polys.degree(num_i))
        q_form = den_i + [0] * (d - polys.degree(den_i))
        self._p_form = tuple(p_form)
        self._q_form = tuple(q_form)
        self.resultant = polys.form_resultant(list(p_form), list(q_form), d)
        if self.resultant == 0:
            raise InvariantError("form resultant vanished for a coprime pair")
        self._iterates = [(self._p_form, self._q_form)]
        self._lock = threading.Lock()

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, text: str, **kwargs) -> "RationalMap":
        """Parse an expression in x over Q into a normalized map.

        A cancelled common factor is reported when the reduced map drops to
        degree <= 1; otherwise the reduced rational function is used (the map
        equals the expression as an element of Q(x)).
        """
        num, den = parse_rational_function(text, var="x")
        if polys.is_zero(num):
            raise MapConstructionError("the zero map is not allowed")
        g = polys.gcd(num, den)
        if polys.degree(g) > 0:
            red_num = polys.exact_div(num, g)
            red_den = polys.exact_div(den, g)
            d = max(polys.degree(red_num), polys.degree(red_den))
            if d < 2:
                reduced = polys.to_string(red_num)
                if polys.degree(red_den) > 0 or red_den[0] != 1:
                    reduced = f"({reduced})/({polys.to_string(red_den)})"
                raise MapConstructionError(
                    f"common factor {polys.to_string(polys.monic(g))}: the reduced map "
                    f"{reduced} has degree {d}"
                )
            num, den = red_num, red_den
        return cls(num, den, **kwargs)

    # -- basic data ---------------------------------------------------------

    @property
    def numerator_poly(self):
        return list(self.numer_coeffs)

    @property
    def denominator_poly(self):
        return list(self.denom_coeffs)

    def to_string(self) -> str:
        num = polys.to_string(list(self.numer_coeffs))
        if self.denom_coeffs == (1,):
            return num
        den = polys.to_string(list(self.denom_coeffs))
        return f"({num})/({den})"

    def __repr__(self):
        return f"RationalMap({self.to_string()})"

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return (
            self.numer_coeffs == other.numer_coeffs
            and self.denom_coeffs == other.denom_coeffs
        )

    def __hash__(self):
        return hash((self.numer_coeffs, self.denom_coeffs))

    # -- iterates -----------------------------------------------------------

    def iterate(self, i: int) -> IterateRep:
        """Exact homogeneous coefficient vectors of the i-th iterate (cached)."""
        if i < 1:
            raise ValueError("iterate index must be >= 1")
        if self.degree**i > self.iterate_degree_cap:
            raise ResourceCapError(
                f"iterate degree {self.degree}^{i} exceeds cap {self.iterate_degree_cap}",
                cap=self.iterate_degree_cap,
            )
        with self._lock:
            while len(self._iterates) < i:
                prev_p, prev_q = self._iterates[-1]
                new_p = self._compose_form(self._p_form, prev_p, prev_q)
                new_q = self._compose_form(self._q_form, prev_p, prev_q)
                self._iterates.append((tuple(new_p), tuple(new_q)))
            p_i, q_i = self._iterates[i - 1]
        return IterateRep(index=i, p_coeffs=p_i, q_coeffs=q_i)

    def _compose_form(self, outer, inner_p, inner_q):
        """Evaluate a degree-d form at a pair of degree-D forms: the result is
        the degree d*D form sum_k c_k * inner_p^k * inner_q^(d-k)."""
        d = self.degree
        big = d * (len(inner_p) - 1)
        p_pows = [[1]]
        q_pows = [[1]]
        for _ in range(d):
            p_pows.append(_ivec_mul(p_pows[-1], list(inner_p)))
            q_pows.append(_ivec_mul(q_pows[-1], list(inner_q)))
        out = [0] * (big + 1)
        for k, c in enumerate(outer):
            if c == 0:
                continue
            piece = _ivec_mul(p_pows[k], q_pows[d - k])
            for idx, v in enumerate(piece):
                out[idx] += c * v
        return out

    # -- evaluation ----------------------------------------------------------

    def _eval_forms(self, a: int, b: int):
        d = self.degree
        a_pows = [1] * (d + 1)
        b_pows = [1] * (d + 1)
        for k in range(1, d + 1):
            a_pows[k] = a_pows[k - 1] * a
            b_pows[k] = b_pows[k - 1] * b
        pv = sum(c * a_pows[k] * b_pows[d - k] for k, c in enumerate(self._p_form))
        qv = sum(c * a_pows[k] * b_pows[d - k] for k, c in enumerate(self._q_form))
        return pv, qv

    def evaluate(self, z):
        """phi(z) in lowest terms; infinity handled homogeneously."""
        z = as_point(z)
        a, b = point_to_pair(z)
        pv, qv = self._eval_forms(a, b)
        if qv == 0:
            if pv == 0:
                raise InvariantError("(0:0) reached; resultant invariant violated")
            return INFINITY
        if not (_digits_cap_ok(abs(pv), self.digit_cap) and _digits_cap_ok(abs(qv), self.digit_cap)):
            raise ResourceCapError(
                f"orbit value exceeds the {self.digit_cap}-digit cap", cap=self.digit_cap
            )
        return Fraction(pv, qv)

    def evaluate_iterate(self, z, i: int):
        """phi^i(z) straight from the cached homogeneous iterate."""
        rep = self.iterate(i)
        z = as_point(z)
        a, b = point_to_pair(z)
        big = len(rep.p_coeffs) - 1
        pv = 0
        qv = 0
        apow = 1
        # Horner-style from the top power of b down
        bpow = [1] * (big + 1)
        for k in range(1, big + 1):
            bpow[k] = bpow[k - 1] * b
        for k in range(big + 1):
            if rep.p_coeffs[k]:
                pv += rep.p_coeffs[k] * apow * bpow[big - k]
            if rep.q_coeffs[k]:
                qv += rep.q_coeffs[k] * apow * bpow[big - k]
            apow *= a
        if qv == 0:
            if pv == 0:
                raise InvariantError("(0:0) reached in iterate evaluation")
            return INFINITY
        return Fraction(pv, qv)

    # -- reduction ------------------------------------------------------------

    def good_reduction(self, p: int) -> bool:
        """The literal two-condition test: P, Q keep no common root mod p and
        neither do the reversed forms p(1,y), q(1,y)."""
        affine = _fp_gcd_degree(_fp_poly(self.numer_coeffs, p), _fp_poly(self.denom_coeffs, p), p)
        if affine is None or affine > 0:
            return False
        rev_p = _fp_poly(list(reversed(self._p_form)), p)
        rev_q = _fp_poly(list(reversed(self._q_form)), p)
        at_inf = _fp_gcd_degree(rev_p, rev_q, p)
        return at_inf is not None and at_inf == 0

    def bad_reduction_primes(self, budget: int = DEFAULT_BUDGET) -> BadReduction:
        """Primes dividing the form resultant, confirmed by the two-condition
        test.  Resultant divisibility is necessary, the literal test decides."""
        res = self.resultant
        fac = factor(abs(res), budget=budget) if abs(res) > 1 else None
        bad = set()
        cofactor = None
        if fac is not None:
            for p in fac.primes():
                if not self.good_reduction(p):
                    bad.add(p)
            cofactor = fac.cofactor
        return BadReduction(primes=frozenset(bad), resultant=res, unresolved_cofactor=cofactor)

    def reduce_residue(self, z, p: int):
        """r_p(z): reduction of a point to F_p plus infinity."""
        z = as_point(z)
        if z is INFINITY:
            return INFINITY
        a, b = point_to_pair(z)
        if b % p == 0:
            return INFINITY
        return a * pow(b, p - 2, p) % p

    def residue_step(self, r, p: int):
        """The induced map on F_p plus infinity at a good prime."""
        if r is INFINITY:
            pv = self._p_form[-1] % p
            qv = self._q_form[-1] % p
        else:
            pv = polys.evaluate(list(self.numer_coeffs), r) % p
            qv = polys.evaluate(list(self.denom_coeffs), r) % p
        if qv == 0:
            if pv == 0:
                raise BadPrimeError(f"{p} is a prime of bad reduction")
            return INFINITY
        return pv * pow(qv, p - 2, p) % p

    def reduce_and_step(self, z, p: int):
        """Return (phi(r_p(z)), r_p(phi(z))); the pair is equal at good primes."""
        if not self.good_reduction(p):
            raise BadPrimeError(f"{p} is a prime of bad reduction")
        stepped = self.residue_step(self.reduce_residue(z, p), p)
        reduced = self.reduce_residue(self.evaluate(z), p)
        return stepped, reduced

    def residue_cycle(self, z, p: int) -> ResidueCycle:
        """Tail and period of the forward orbit of a residue under the induced map."""
        if not self.good_reduction(p):
            raise BadPrimeError(f"{p} is a prime of bad reduction")
        start = z if z is INFINITY else z % p
        seen = {}
        current = start
        index = 0
        while current not in seen:
            seen[current] = index
            current = self.residue_step(current, p)
            index += 1
        tail = seen[current]
        return ResidueCycle(prime=p, start=start, tail_length=tail, period=index - tail)

    # -- structure ---------------------------------------------------------------

    def is_power_map(self) -> bool:
        return _is_power_map(self)

    def preimage_count(self, beta, n: int) -> int:
        """Number of distinct points in phi^(-n)(beta) over the algebraic closure."""
        rep = self.iterate(n)
        a, b = point_to_pair(as_point(beta))
        big = self.degree**n
        w = [b * rep.p_coeffs[k] - a * rep.q_coeffs[k] for k in range(big + 1)]
        w_poly = polys.strip([Fraction(c) for c in w])
        if polys.is_zero(w_poly):
            raise InvariantError("p_n and q_n proportional; invalid map state")
        count = 0
        if polys.degree(w_poly) >= 1:
            count = polys.degree(polys.squarefree_part(w_poly))
        if polys.degree(w_poly) < big:
            count += 1  # the point at infinity
        return count

    def ramification_profile(self, n: int) -> RamificationProfile:
        """Multiplicities of the level-n preimages of 0, by gcd bookkeeping only."""
        rep = self.iterate(n)
        big = self.degree**n
        p_poly = polys.strip([Fraction(c) for c in rep.p_coeffs])
        inf_mult = big - polys.degree(p_poly)
        finite = {}
        if polys.degree(p_poly) >= 1:
            for mult, part in polys.squarefree_decomposition(p_poly).items():
                finite[mult] = finite.get(mult, 0) + polys.degree(part)
        simple = finite.get(1, 0) + (1 if inf_mult == 1 else 0)
        profile = RamificationProfile(
            level=n,
            finite_multiplicities=tuple(sorted(finite.items())),
            infinity_multiplicity=inf_mult,
            simple_root_count=simple,
        )
        if profile.total != big:
            raise InvariantError("multiplicities do not sum to d^n")
        return profile

    def dynamical_ramification_verdict(
        self, depth: int, threshold: Optional[int] = None
    ) -> RamificationVerdict:
        """Heuristic verdict on whether unramified preimages of 0 keep appearing.

        Counts simple roots of the level-n preimage forms cumulatively.  Once
        the count exceeds the threshold (default d + 2) the map keeps
        producing fresh unramified preimages: not dynamically ramified, with
        the crossing level as witness.  All-zero counts up to the depth say
        likely dynamically ramified; anything else is inconclusive.
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if threshold is None:
            threshold = self.degree + 2
        cumulative = 0
        witness = None
        for n in range(1, depth + 1):
            cumulative += self.ramification_profile(n).simple_root_count
            if cumulative > threshold:
                witness = n
                break
        if witness is not None:
            kind = "not-dynamically-ramified"
        elif cumulative == 0:
            kind = "likely-dynamically-ramified"
        else:
            kind = "inconclusive"
        return RamificationVerdict(
            kind=kind,
            witness=witness,
            cumulative_simple_roots=cumulative,
            depth=depth,
            threshold=threshold,
        )


def _is_power_map(rmap) -> bool:
    """True only for literal c*x^d or c*x^(-d) (no conjugation detected)."""
    num, den = rmap.numer_coeffs, rmap.denom_coeffs
    if sum(1 for c in num if c) != 1 or sum(1 for c in den if c) != 1:
        return False
    dn, dd = polys.degree(num), polys.degree(den)
    return (dn, dd) in ((rmap.degree, 0), (0, rmap.degree))


def _ivec_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class RationalMapFF:
    """A rational map over Q(t): coefficients are elements of Q(t).

    Only the functionality the orbit machinery needs: validated construction,
    exact evaluation on Q(t) plus infinity, and the power-map predicate.
    """

    def __init__(self, numer_coeffs, denom_coeffs):
        num = polys.strip(list(numer_coeffs))
        den = polys.strip(list(denom_coeffs))
        if polys.is_zero(den):
            raise MapConstructionError("denominator is zero")
        if polys.is_zero(num):
            raise MapConstructionError("numerator is zero")
        d = max(polys.degree(num), polys.degree(den))
        if d < 2:
            raise MapConstructionError(f"degree {d} map; need degree > 1")
        common = polys.gcd(num, den)
        if polys.degree(common) > 0:
            raise MapConstructionError("numerator and denominator share a root over Q(t)")
        self.numer_coeffs = tuple(num)
        self.denom_coeffs = tuple(den)
        self.degree = d

    @classmethod
    def parse(cls, text: str) -> "RationalMapFF":
        one = FFElement.from_const(1)
        num, den = parse_rational_function(
            text, var="x", second_var="t", second_value=FFElement.gen(), one=one
        )
        g = polys.gcd(num, den)
        if polys.degree(g) > 0:
            num = polys.exact_div(num, g)
            den = polys.exact_div(den, g)
            d = max(polys.degree(num), polys.degree(den))
            if d < 2:
                raise MapConstructionError(
                    f"common factor cancels the map down to degree {d}"
                )
        return cls(num, den)

    def evaluate(self, z):
        if z is INFINITY:
            dn = polys.degree(list(self.numer_coeffs))
            dd = polys.degree(list(self.denom_coeffs))
            if dn > dd:
                return INFINITY
            if dd > dn:
                return FFElement.from_const(0)
            return self.numer_coeffs[-1] / self.denom_coeffs[-1]
        if not isinstance(z, FFElement):
            z = FFElement.from_const(z)
        pv = polys.evaluate(list(self.numer_coeffs), z)
        qv = polys.evaluate(list(self.denom_coeffs), z)
        if not isinstance(pv, FFElement):
            pv = FFElement.from_const(pv)
        if not isinstance(qv, FFElement):
            qv = FFElement.from_const(qv)
        if qv.is_zero:
            if pv.is_zero:
                raise InvariantError("(0:0) reached over Q(t)")
            return INFINITY
        return pv / qv

    def is_power_map(self) -> bool:
        return _is_power_map(self)

    def to_string(self) -> str:
        def side(coeffs):
            parts = []
            for k in range(polys.degree(list(coeffs)), -1, -1):
                c = coeffs[k] if k < len(coeffs) else None
                if c is None or (isinstance(c, FFElement) and c.is_zero):
                    continue
                xpow = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
                cs = str(c)
                if xpow and cs == "1":
                    parts.append(xpow)
                elif xpow:
                    parts.append(f"({cs})*{xpow}")
                else:
                    parts.append(f"({cs})")
            return " + ".join(parts) if parts else "0"

        num = side(self.numer_coeffs)
        if len(self.denom_coeffs) == 1 and self.denom_coeffs[0] == FFElement.from_const(1):
            return num
        return f"({num})/({side(self.denom_coeffs)})"

    def __repr__(self):
        return f"RationalMapFF({self.to_string()})"


class OrbitWalk:
    """The forward orbit alpha, phi(alpha), phi^2(alpha), ... of one point.

    Iterating yields (n, phi^n(alpha)) for n = 1, 2, ... and records every
    value in `values` (values[0] is alpha).  The first value equal to an
    earlier phi^tail(alpha) sets `tail` and `period`; from then on the cycle
    is replayed without arithmetic.  The walk ends only when the next value
    would exceed the map's digit cap: `cap_error` then holds the
    ResourceCapError.  `seed_values` replays already-known values phi^1,
    phi^2, ... (a cache resume) instead of evaluating them.
    """

    def __init__(self, rmap, alpha, seed_values=()):
        if not isinstance(rmap, RationalMapFF):
            alpha = as_point(alpha)
        elif alpha is not INFINITY and not isinstance(alpha, FFElement):
            alpha = FFElement.from_const(alpha)
        self.values = [alpha]
        self.tail = None
        self.period = None
        self.cap_error = None
        self._rmap = rmap
        self._seeds = list(seed_values)
        self._first_index = {alpha: 0}

    def __iter__(self):
        return self

    def __next__(self):
        n = len(self.values)
        if self.tail is not None:
            value = self.values[self.tail + (n - self.tail) % self.period]
        elif n <= len(self._seeds):
            value = self._seeds[n - 1]
        else:
            try:
                value = self._rmap.evaluate(self.values[-1])
            except ResourceCapError as exc:
                self.cap_error = exc
                raise StopIteration from None
        if self.tail is None:
            first = self._first_index.setdefault(value, n)
            if first != n:
                self.tail, self.period = first, n - first
        self.values.append(value)
        return n, value
