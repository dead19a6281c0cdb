"""Rational maps of degree > 1 on the projective line, in exact arithmetic.

A map is stored as an integral pair (P, Q) with coprime content and no common
root; orbits of algebraic points are walked in homogeneous form, where the
recursion p_i = p(p_{i-1}, q_{i-1}), q_i = q(p_{i-1}, q_{i-1}) is exact and
the point at infinity needs no special cases.  Points of P^1(Q) are
Fractions plus the INFINITY sentinel.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, prod
from typing import NamedTuple, Optional

from . import polys
from .errors import InvariantError, MapConstructionError, ResourceCapError
from .exprparse import parse_rational_function
from .intplaces import (
    DEFAULT_BUDGET,
    DEFAULT_DIGIT_CAP,
    _cap_bits,
    factor,
)

ITERATE_DEGREE_CAP = 4096


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


INFINITY_SPELLINGS = ("inf", "oo", "infinity")


def as_point(z):
    """Coerce int/str/Fraction into an extended rational.

    A string is one of INFINITY_SPELLINGS or a constant expression of the
    exprparse grammar (integers of any length, "/", signs, parentheses and
    integer powers)."""
    if z is INFINITY or isinstance(z, Fraction):
        return z
    if isinstance(z, int):
        return Fraction(z)
    if isinstance(z, str):
        if z.strip() in INFINITY_SPELLINGS:
            return INFINITY
        num, den = parse_rational_function(z, var=None)
        return num[0] / den[0] if num else Fraction(0)
    from .ffplaces import FFElement

    if isinstance(z, FFElement):
        return z
    raise TypeError(f"cannot interpret {z!r} as a point of P^1")


def point_to_pair(z):
    """Projective integer coordinates (a, b) with gcd 1, b >= 0; infinity is (1, 0)."""
    if z is INFINITY:
        return 1, 0
    z = Fraction(z)
    return z.numerator, z.denominator


class RamificationProfile(NamedTuple):
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


class RamificationVerdict(NamedTuple):
    """Heuristic three-valued verdict; see RationalMap.dynamical_ramification_verdict."""

    kind: str  # "not-dynamically-ramified" | "likely-dynamically-ramified" | "inconclusive"
    witness: Optional[int]
    cumulative_simple_roots: int
    depth: int
    threshold: int


class BadReduction(NamedTuple):
    """Primes of bad reduction: the primes dividing the form resultant.

    When the resultant resists factoring within budget, `unresolved_cofactor`
    holds the unfactored part: primes dividing it are undetermined.
    """

    primes: frozenset
    resultant: int
    unresolved_cofactor: Optional[int] = None


class RationalMap:
    """A rational function P/Q over Q of degree d > 1."""

    def __init__(
        self,
        numer_coeffs,
        denom_coeffs,
        digit_cap: int = DEFAULT_DIGIT_CAP,
    ):
        num = polys.strip(list(numer_coeffs))
        den = polys.strip(list(denom_coeffs))
        if polys.is_zero(den):
            raise MapConstructionError("denominator is zero")
        if polys.is_zero(num):
            raise MapConstructionError("numerator is zero (the map must be nonconstant)")
        # integral model with joint content 1
        model = polys.to_integer(num + den)
        num_i, den_i = model[: len(num)], model[len(num) :]
        # sign normalization: first nonzero denominator coefficient positive
        first = next(c for c in den_i if c != 0)
        if first < 0:
            num_i = [-c for c in num_i]
            den_i = [-c for c in den_i]
        d = max(polys.degree(num_i), polys.degree(den_i))
        if d < 2:
            raise MapConstructionError(f"degree {d} map; need degree > 1")
        p_form = num_i + [0] * (d - polys.degree(num_i))
        q_form = den_i + [0] * (d - polys.degree(den_i))
        # One form has degree d, so (1 : 0) is not a common root, and the
        # form resultant vanishes exactly when num and den share a root.
        self.resultant = polys.form_resultant(p_form, q_form, d)
        if self.resultant == 0:
            common = polys.int_poly_gcd(num_i, den_i)
            raise MapConstructionError(
                f"numerator and denominator share a root: common factor "
                f"{polys.to_string(common)}"
            )
        self.numer_coeffs = tuple(num_i)
        self.denom_coeffs = tuple(den_i)
        self.degree = d
        self.digit_cap = digit_cap
        self._p_form = tuple(p_form)
        self._q_form = tuple(q_form)
        # A root (a : b) of q in lowest terms has |a|, |b| <= max |coefficient|
        # (a divides the lowest and b the highest nonzero one), so above this
        # height q(a, b) != 0 and evaluate reaches its cap check.
        self._q_root_height = max(abs(c) for c in q_form)
        self._lower_norm = None  # W of lower_bound_norm, solved on first use
        self._critical = None  # _CriticalOrbits, built on first use

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

    def _check_level(self, i: int):
        """Iterate indices run from 1 and stop where d^i passes the degree cap."""
        if i < 1:
            raise ValueError("iterate index must be >= 1")
        if self.degree**i > ITERATE_DEGREE_CAP:
            raise ResourceCapError(
                f"iterate degree {self.degree}^{i} exceeds cap {ITERATE_DEGREE_CAP}",
                cap=ITERATE_DEGREE_CAP,
            )

    def generic_orbit(self, f, n: int):
        """Pairs (A_k, B_k), k = 0..n, for phi^k of the generic root of a
        nonconstant f, as integer polynomials reduced mod f.

        (A_k, B_k) = lambda_k * (P_k, Q_k) mod f for a nonzero rational
        lambda_k, where P_k/Q_k is phi^k in homogeneous form read at y = 1;
        this holds for any f, square-free or not.  The level is checked
        against the degree cap before the first step."""
        self._check_level(n)
        return _extend_orbit((self._p_form, self._q_form), polys.strip(f), [], n)

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

    def lower_bound_norm(self) -> Fraction:
        """W >= 1 with |R| * H^d <= W * max(|p(a,b)|, |q(a,b)|) for all
        integers a, b, where H = max(|a|, |b|) and R is the form resultant.

        Solving against the transposed Sylvester matrix (determinant +-R),
        whose row j holds the coefficients of x^(2d-1-j) y^j in u*p + v*q,
        gives forms u, v, s, t of degree d-1 with u*p + v*q = R * x^(2d-1)
        and s*p + t*q = R * y^(2d-1); W = max(L1(u) + L1(v), L1(s) + L1(t), 1).
        See heights.phi_height_bound for the derivation."""
        if self._lower_norm is None:
            sylvester = polys.form_sylvester(self._p_form, self._q_form, self.degree)
            transpose = [list(column) for column in zip(*sylvester)]
            norm = Fraction(1)
            for target_row in (0, len(transpose) - 1):
                rhs = [0] * len(transpose)
                rhs[target_row] = self.resultant
                solution = polys.solve_exact(transpose, rhs)
                norm = max(norm, sum(abs(c) for c in solution))
            self._lower_norm = norm
        return self._lower_norm

    def _must_pass_cap(self, a: int, b: int) -> bool:
        """True when phi(a : b) is proved to pass the digit cap without
        evaluating the forms: max(|p(a,b)|, |q(a,b)|) >= H^d / W."""
        height = max(abs(a), abs(b))
        spare = self.degree * (height.bit_length() - 1) - _cap_bits(self.digit_cap)
        if spare <= 0 or height <= self._q_root_height:
            return False
        return spare > ceil(self.lower_bound_norm()).bit_length()

    def _cap_error(self) -> ResourceCapError:
        return ResourceCapError(
            f"orbit value exceeds the {self.digit_cap}-digit cap", cap=self.digit_cap
        )

    def evaluate(self, z):
        """phi(z) in lowest terms; infinity handled homogeneously.

        A step the height lower bound proves too large for the digit cap is
        refused before the forms are evaluated."""
        z = as_point(z)
        a, b = point_to_pair(z)
        if self._must_pass_cap(a, b):
            raise self._cap_error()
        pv, qv = self._eval_forms(a, b)
        if qv == 0:
            if pv == 0:
                raise InvariantError("(0:0) reached; resultant invariant violated")
            return INFINITY
        limit = _cap_bits(self.digit_cap)
        if abs(pv).bit_length() > limit or abs(qv).bit_length() > limit:
            raise self._cap_error()
        g = _form_content(self, a, b)
        if qv < 0:
            g = -g
        return _reduced_fraction(pv // g, qv // g)

    # -- reduction ------------------------------------------------------------

    def bad_reduction_primes(self, budget: int = DEFAULT_BUDGET) -> BadReduction:
        """The primes of the factored form resultant; any part the budget
        leaves unsplit is reported as the unresolved cofactor.  The forms
        have joint content 1, so phi reduces mod p to a map of the same
        degree exactly when p does not divide their resultant."""
        res = self.resultant
        if abs(res) == 1:
            return BadReduction(primes=frozenset(), resultant=res)
        fac = factor(abs(res), budget=budget)
        return BadReduction(
            primes=frozenset(fac.primes()), resultant=res, unresolved_cofactor=fac.cofactor
        )

    # -- structure ---------------------------------------------------------------

    def is_power_map(self) -> bool:
        return _is_power_map(self)

    def _critical_orbits(self) -> "_CriticalOrbits":
        if self._critical is None:
            self._critical = _CriticalOrbits(self)
        return self._critical

    def preimage_count(self, beta, n: int) -> int:
        """Number of distinct points in phi^(-n)(beta) over the algebraic closure."""
        self._check_level(n)
        return sum(self._critical_orbits().fibre(as_point(beta), n).values())

    def ramification_profile(self, n: int) -> RamificationProfile:
        """Multiplicities of the level-n preimages of 0, from the critical orbits."""
        self._check_level(n)
        orbits = self._critical_orbits()
        finite = dict(orbits.fibre(Fraction(0), n))
        inf_mult = orbits.infinity_multiplicity(Fraction(0), n)
        if inf_mult:
            finite[inf_mult] -= 1
        profile = RamificationProfile(
            level=n,
            finite_multiplicities=tuple(sorted((m, c) for m, c in finite.items() if c)),
            infinity_multiplicity=inf_mult,
            simple_root_count=finite.get(1, 0) + (1 if inf_mult == 1 else 0),
        )
        if profile.total != self.degree**n:
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


def _form_content(rmap, a: int, b: int) -> int:
    """gcd(p(a, b), q(a, b)) of the integral forms at coprime a, b: a divisor
    of the resultant R (heights.phi_height_bound), so read off the forms at
    (a mod R, b mod R)."""
    r = abs(rmap.resultant)
    if r == 1:
        return 1
    pv, qv = rmap._eval_forms(a % r, b % r)
    return gcd(pv, qv, r)


def _reduced_fraction(num: int, den: int) -> Fraction:
    """num/den for coprime num and den > 0, built without the gcd that the
    Fraction constructor would spend on it."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


def _is_power_map(rmap) -> bool:
    """True only for literal c*x^d or c*x^(-d) (no conjugation detected)."""
    num, den = rmap.numer_coeffs, rmap.denom_coeffs
    if sum(1 for c in num if c) != 1 or sum(1 for c in den if c) != 1:
        return False
    dn, dd = polys.degree(num), polys.degree(den)
    return (dn, dd) in ((rmap.degree, 0), (0, rmap.degree))


class _Branch:
    """Critical points sharing one monic square-free factor f over Q.

    pairs[k] holds homogeneous coordinates of phi^k(c) for the generic root
    c of f, as integer polynomials read in Q[x]/(f); local[k] is the
    ramification index of phi at phi^k(c), the same at every root of f.
    """

    __slots__ = ("f", "pairs", "local")

    def __init__(self, f, pairs, local):
        self.f = f
        self.pairs = pairs
        self.local = local

    def restrict(self, g):
        """The same walk on the roots of a factor g of f."""
        pairs = [_primitive_pair(polys.mod(a, g), polys.mod(b, g)) for a, b in self.pairs]
        return _Branch(g, pairs, list(self.local))


class _CriticalOrbits:
    """Fibres of the iterates of a map, counted from its critical orbits.

    The critical points are the roots of the Wronskian W = P_X Q_Y - P_Y Q_X
    of the two forms; a root of multiplicity m has ramification index m + 1.
    The local degree of phi^n at z is the product of the indices along
    z, phi(z), ..., phi^(n-1)(z), so a fibre phi^(-n)(beta) differs from d
    copies of phi^(-(n-1))(beta) only at the critical points c with
    phi^n(c) = beta (Riemann-Hurwitz bookkeeping).

    The finite critical points are grouped by the square-free factors f of
    W(x, 1), and the generic root of each f is walked through phi in
    Q[x]/(f) with homogeneous pairs, so no division is ever needed.  Q[x]/(f)
    is a product of fields: when the element a test asks about ("does
    phi^k(c) lie on this factor of W?", "is phi^k(c) = beta?") is a zero
    divisor, f splits by a gcd into the roots where it vanishes and the rest
    (dynamic evaluation, Della Dora-Dicrescenzo-Duval 1985).  The point at
    infinity is walked alongside, critical or not, as the root of x with the
    pair (1, 0): the multiplicity of infinity in a fibre needs its orbit.
    Every walk and every fibre level is kept, so deeper levels extend them.
    """

    def __init__(self, rmap):
        d = rmap.degree
        p, q = rmap._p_form, rmap._q_form
        # index k of a form vector is the coefficient of x^k y^(deg - k)
        px = [k * c for k, c in enumerate(p)][1:]
        py = [(d - k) * c for k, c in enumerate(p)][:-1]
        qx = [k * c for k, c in enumerate(q)][1:]
        qy = [(d - k) * c for k, c in enumerate(q)][:-1]
        wronskian = polys.sub(polys.mul(px, qy), polys.mul(py, qx))
        w = [Fraction(c) for c in wronskian]
        # infinity is a root of W of multiplicity 2d - 2 - deg W(x, 1)
        e_inf = 1 + 2 * d - 2 - polys.degree(w)
        parts = sorted(polys.squarefree_decomposition(w).items()) if polys.degree(w) > 0 else []
        # forms whose vanishing at phi^k(c) gives the index of phi there
        self._tests = [(g, m + 1) for m, g in parts]
        if e_inf > 1:
            self._tests.append(([1, 0], e_inf))
        self._forms = (p, q)
        self._degree = d
        x = [Fraction(0), Fraction(1)]
        self._infinity = _Branch(x, [([1], [])], [])
        self._branches = [_Branch(g, _extend_orbit(self._forms, g, [], 0), []) for _, g in parts]
        self._branches.append(self._infinity)
        self._walked = 0
        self._fibres = {}

    def fibre(self, beta, n: int) -> dict:
        """{m: number of points of phi^(-n)(beta) where phi^n has local degree m}."""
        levels = self._fibres.setdefault(beta, [{1: 1}])
        while len(levels) <= n:
            k = len(levels)
            hist = {m: self._degree * c for m, c in levels[-1].items()}
            for branch in self._hits(beta, k):
                e = branch.local[0]
                prev = prod(branch.local[1:k])
                count = polys.degree(branch.f)
                hist[prev] = hist.get(prev, 0) - e * count
                hist[prev * e] = hist.get(prev * e, 0) + count
            if any(c < 0 for c in hist.values()):
                raise InvariantError("negative point count in a fibre")
            levels.append({m: c for m, c in hist.items() if c})
        return levels[n]

    def infinity_multiplicity(self, beta, n: int) -> int:
        """Local degree of phi^n at infinity if phi^n(infinity) = beta, else 0."""
        self._walk(n)
        at_beta, _ = _split(self._infinity, _beta_form(beta), n)
        return prod(self._infinity.local[:n]) if at_beta else 0

    def _hits(self, beta, k: int):
        """Branches with phi^k(c) = beta, splitting the others off."""
        self._walk(k)
        form = _beta_form(beta)
        hits, branches = [], []
        for branch in self._branches:
            at_beta, elsewhere = _split(branch, form, k)
            if at_beta:
                hits.append(at_beta)
            branches += [piece for piece in (at_beta, elsewhere) if piece]
        self._branches = branches
        return hits

    def _walk(self, n: int):
        """Extend every branch to phi^n(c) and its indices up to phi^(n-1)(c)."""
        if n <= self._walked:
            return
        walked = []
        for branch in self._branches:
            _extend_orbit(self._forms, branch.f, branch.pairs, n)
            pending = [branch]
            while pending:
                piece = pending.pop()
                if len(piece.local) >= n:
                    walked.append(piece)
                    continue
                for part, e in self._local_index(piece, len(piece.local)):
                    part.local.append(e)
                    pending.append(part)
        self._branches = walked
        self._walked = n

    def _local_index(self, branch, k: int):
        """[(piece, index of phi at phi^k(c))], splitting branch where it differs."""
        out = []
        pending = [(branch, 0)]
        while pending:
            piece, i = pending.pop()
            if i == len(self._tests):
                out.append((piece, 1))
                continue
            form, e = self._tests[i]
            on_factor, off_factor = _split(piece, form, k)
            if on_factor:
                out.append((on_factor, e))
            if off_factor:
                pending.append((off_factor, i + 1))
        return out


def _beta_form(beta):
    """The linear form b*X - a*Y that vanishes exactly at beta = (a : b)."""
    a, b = point_to_pair(beta)
    return [-a, b]


def _extend_orbit(forms, f, pairs, n: int):
    """Extend pairs[k], the homogeneous coordinates of phi^k(c) for the
    generic root c of f in Q[x]/(f), up to k = n.  An empty list starts at
    the pair (x mod f, 1)."""
    if not pairs:
        pairs.append(_primitive_pair(polys.mod([0, 1], f), [1]))
    while len(pairs) <= n:
        pairs.append(_primitive_pair(*_forms_at(forms, pairs[-1], f)))
    return pairs


def _forms_at(forms, pair, f):
    """Values in Q[x]/(f) of binary forms of one degree D at a pair (A, B)."""
    a, b = pair
    deg = len(forms[0]) - 1
    a_pows, b_pows = [[1]], [[1]]
    for _ in range(deg):
        a_pows.append(polys.mod(polys.mul(a_pows[-1], a), f))
        b_pows.append(polys.mod(polys.mul(b_pows[-1], b), f))
    monomials = [polys.mod(polys.mul(a_pows[k], b_pows[deg - k]), f) for k in range(deg + 1)]
    out = []
    for form in forms:
        value = []
        for c, mono in zip(form, monomials):
            if c:
                value = polys.add(value, polys.scale(mono, c))
        out.append(value)
    return out


def _split(branch, form, k: int):
    """(roots of f where the form vanishes at phi^k(c), the other roots), as
    branches or None when empty: the branch whole, or split by a gcd."""
    (h,) = _forms_at((form,), branch.pairs[k], branch.f)
    if polys.is_zero(h):
        return branch, None
    g = polys.gcd(branch.f, h)
    if polys.degree(g) == 0:
        return None, branch
    return branch.restrict(g), branch.restrict(polys.exact_div(branch.f, g))


def _primitive_pair(a, b):
    """A pair of polynomials over Q scaled to integer coefficients with
    content 1 (the same point of P^1 over Q[x]/(f))."""
    model = polys.to_integer(a + b)
    if not model:
        raise InvariantError("(0:0) reached on a critical orbit")
    return model[: len(a)], model[len(a) :]


def _as_ff(c):
    from .ffplaces import FFElement

    return c if isinstance(c, FFElement) else FFElement.from_const(c)


class RationalMapFF:
    """A rational map over Q(t): coefficients are elements of Q(t).

    Only the functionality the orbit machinery needs: validated construction,
    exact evaluation on Q(t) plus infinity, and the power-map predicate.
    A finite point u / v is evaluated on the integral forms P, Q in Z[t][x]
    (the coefficients over their common denominator, both padded to the
    degree): phi(u / v) = P(u, v) / Q(u, v), reduced once.
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
        from .ffplaces import integral_coefficients

        self.numer_coeffs = tuple(_as_ff(c) for c in num)
        self.denom_coeffs = tuple(_as_ff(c) for c in den)
        self.degree = d
        forms, _ = integral_coefficients(self.numer_coeffs + self.denom_coeffs)
        split = len(num)
        self._p_form = forms[:split] + [[]] * (d + 1 - split)
        self._q_form = forms[split:] + [[]] * (d + 1 - len(den))

    @classmethod
    def parse(cls, text: str) -> "RationalMapFF":
        from .ffplaces import FFElement

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
                return _as_ff(0)
            return self.numer_coeffs[-1] / self.denom_coeffs[-1]
        from .ffplaces import FFElement, form_value

        z = _as_ff(z)
        pv = form_value(self._p_form, z.int_num, z.int_den)
        qv = form_value(self._q_form, z.int_num, z.int_den)
        if not qv:
            if not pv:
                raise InvariantError("(0:0) reached over Q(t)")
            return INFINITY
        return FFElement(pv, qv)

    def is_power_map(self) -> bool:
        return _is_power_map(self)

    def to_string(self) -> str:
        def side(coeffs):
            parts = []
            for k in range(polys.degree(list(coeffs)), -1, -1):
                c = coeffs[k]
                if c.is_zero:
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
        if len(self.denom_coeffs) == 1 and self.denom_coeffs[0] == _as_ff(1):
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
    ResourceCapError.
    """

    def __init__(self, rmap, alpha):
        if not isinstance(rmap, RationalMapFF):
            alpha = as_point(alpha)
        elif alpha is not INFINITY:
            alpha = _as_ff(alpha)
        self.values = [alpha]
        self.tail = None
        self.period = None
        self.cap_error = None
        self._rmap = rmap
        self._first_index = {alpha: 0}

    def __iter__(self):
        return self

    def __next__(self):
        n = len(self.values)
        if self.tail is not None:
            value = self.values[self.tail + (n - self.tail) % self.period]
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
