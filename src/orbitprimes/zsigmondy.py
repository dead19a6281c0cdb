"""Orbits, primitive prime divisors, and the non-primitive-mass diagnostic.

The primitive-part detector never factors orbit numerators: a prime is
primitive at level n exactly when it divides no earlier numerator, so
existence reduces to "stripped part > 1".  Orbit numerators grow like d^n
digits, which makes this the only workable route at depth; factoring only
ever touches the (much smaller) primitive parts, and only for square-free
verdicts.  Each part is trial-divided once, and those parts whose verdict
needs more are factored as one batch, the rho stages on every CPU
(`squarefree_primitive_primes`, the one square-free search over Q).

Over Q the strip never takes a gcd of two orbit numerators.  Write A_n for
the numerator of phi^n(alpha) and N_k for that of phi^k(0) (0 when
phi^k(0) = 0, 1 when it is infinity).  Let p divide A_m and A_n, m < n.  If
p is a prime of good reduction, phi^m(alpha) reduces to 0 mod p, so
phi^n(alpha) reduces to phi^(n-m)(0) and p divides N_(n-m).  Otherwise p
divides the resultant Res of the map's integral model.  So every prime
that A_m shares with A_n divides gcd(A_m, N_(n-m)) or gcd(A_m, Res), and
stripping A_n against these two small divisors of A_m, for each m < n,
leaves exactly the part that stripping against A_m itself would.  The
orbit of 0 is walked once per scan; past the digit cap, N_k is read by
stepping (0 : 1) through the integral forms mod A_m, whose content divides
a power of Res and so adds only primes that the second gcd covers anyway.

The same generic code path drives K = Q (integer numerators) and K = Q(t)
(polynomial numerators): both are gcd domains with units, nothing else is
assumed.  Over Q(t) a numerator is a primitive polynomial in Z[t] with a
positive leading coefficient, the units are the constants, and gcd and
exact division are the Z[t] kernels of `polys` (the heuristic gcd and
integer long division); reports render a numerator monic.  Each level is
still stripped against every earlier numerator in full.  The square-free
verdict there is factorization-free as well, via the multiplicity-1
component of Yun's decomposition in Z[t].
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd as int_gcd
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import polys
from .errors import ResourceCapError
from .intplaces import (DEFAULT_BUDGET, FactoredValue, LogMass, factor, finish_factoring,
                        log_int, point_str, trial_division)
from .maps import (
    INFINITY,
    OrbitWalk,
    RamificationVerdict,
    RationalMap,
    RationalMapFF,
    _as_ff,
    as_point,
)

if TYPE_CHECKING:
    from .heights import PointClassification

DEFAULT_PRIMITIVE_DEPTH = 12
DEFAULT_SQUAREFREE_DEPTH = 7
# prop-old's periodicity screen looks for periods dividing 1..6
PERIOD_SCREEN_BOUND = 6
# depth of the ramification verdict among a Q report's hypothesis notes
RAMIFICATION_NOTE_DEPTH = 3


# ---------------------------------------------------------------------------
# Value domains: integers for Q, polynomials over Q for Q(t)
# ---------------------------------------------------------------------------

class _IntValues:
    """Numerator domain for K = Q."""

    field = "Q"
    unit = 1

    @staticmethod
    def numerator(value):
        if value is INFINITY:
            return 1  # a pole carries no positive valuation
        return abs(Fraction(value).numerator)

    @staticmethod
    def gcd(a, b):
        return int_gcd(a, b)

    @staticmethod
    def div(a, b):
        return a // b

    @staticmethod
    def is_unit(a):
        return a == 1

    @staticmethod
    def is_zero(a):
        return a == 0


class _PolyValues:
    """Numerator domain for K = Q(t): primitive integer polynomials in t with
    a positive leading coefficient, where the constants are units."""

    field = "Q(t)"
    unit = (1,)

    @staticmethod
    def numerator(value):
        if value is INFINITY:
            return (1,)
        return tuple(polys.primitive(_as_ff(value).int_num))

    @staticmethod
    def gcd(a, b):
        return tuple(polys.int_poly_gcd(a, b))

    @staticmethod
    def div(a, b):
        return tuple(polys.int_exact_div(a, b))

    @staticmethod
    def is_unit(a):
        return len(a) == 1

    @staticmethod
    def is_zero(a):
        return len(a) == 0


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

class Termination(NamedTuple):
    kind: str  # "reached-n" | "hit-zero" | "preperiodic" | "resource-cap"
    zero_index: Optional[int] = None
    tail: Optional[int] = None
    period: Optional[int] = None


class OrbitRecord:
    """One orbit entry with its primitivity data."""

    __slots__ = ("n", "value", "primitive_part", "has_primitive", "squarefree_witness",
                 "has_squarefree_primitive", "squarefree_unresolved", "factored")

    def __init__(self, n: int, value, primitive_part=None, has_primitive: Optional[bool] = None,
                 squarefree_witness=None, has_squarefree_primitive: Optional[bool] = None,
                 squarefree_unresolved: bool = False, factored: Optional[FactoredValue] = None):
        self.n = n
        self.value = value
        self.primitive_part = primitive_part
        self.has_primitive = has_primitive
        self.squarefree_witness = squarefree_witness
        self.has_squarefree_primitive = has_squarefree_primitive
        self.squarefree_unresolved = squarefree_unresolved
        self.factored = factored


def orbit(rmap, alpha, depth: int):
    """Values phi(alpha) .. phi^depth(alpha), with early-stop bookkeeping.

    A repeated value closes a cycle: the remaining entries are filled from
    the cycle (no further arithmetic) and the orbit is flagged preperiodic.
    Hitting 0 on a so-far injective orbit records the unique zero index and
    stops; the size cap stops with whatever was computed.  The orbit is
    walked once, from alpha or on from an OrbitWalk of it, never read from
    the cache: only factorizations are worth caching, keyed by the number.
    """
    walk = alpha if isinstance(alpha, OrbitWalk) else OrbitWalk(rmap, alpha)
    records = []
    for n, value in islice(walk, depth):
        records.append(OrbitRecord(n=n, value=value))
        if walk.tail is None and value == 0:
            return records, Termination(kind="hit-zero", zero_index=n)
    if walk.tail is not None:
        termination = Termination(kind="preperiodic", tail=walk.tail, period=walk.period)
    elif walk.cap_error is not None:
        termination = Termination(kind="resource-cap")
    else:
        termination = Termination(kind="reached-n")
    return records, termination


# ---------------------------------------------------------------------------
# Primitive parts and primes
# ---------------------------------------------------------------------------

class ZeroOrbit:
    """What a level is stripped against over Q: the orbit of 0 under the map
    and the resultant of its integral model (see the module docstring).

    `walk` is one lazy `OrbitWalk` of 0 under the map, advanced only as far
    as a strip asks; pass one that was already made to share its values.
    """

    domain = _IntValues

    def __init__(self, rmap: RationalMap, walk: Optional[OrbitWalk] = None):
        self.walk = walk if walk is not None else OrbitWalk(rmap, 0)
        self._rmap = rmap
        self._bad = abs(rmap.resultant)

    def divisors(self, earlier: int, k: int):
        """Two divisors of `earlier` = A_m that hold every prime A_m shares
        with A_(m+k): gcd(A_m, N_k) for the good primes, gcd(A_m, Res) for
        the bad ones."""
        walk = self.walk
        while len(walk.values) <= k and walk.cap_error is None:
            next(walk, None)
        if k < len(walk.values):
            numerator = _IntValues.numerator(walk.values[k])
        else:
            numerator = self._stepped_numerator(k, earlier)
        return int_gcd(earlier, numerator), int_gcd(earlier, self._bad)

    def _stepped_numerator(self, k: int, modulus: int) -> int:
        """N_k times a divisor of a power of Res, mod `modulus`: (0 : 1)
        stepped k times through the integral forms, for levels past the
        digit cap of the walk."""
        a, b = 0, 1
        for _ in range(k):
            a, b = (v % modulus for v in self._rmap._eval_forms(a, b))
        return a


class _EveryEarlier:
    """What a level is stripped against over Q(t): every earlier numerator
    in full.  Since the Q[t] gcd is a heuristic gcd, the orbit-of-0 strip
    that Q uses could serve here too (ROADMAP item 11, step 1)."""

    domain = _PolyValues

    @staticmethod
    def divisors(earlier, k):
        return (earlier,)


def primitive_part(records, n: int, basis):
    """Numerator of the n-th value with every prime shared with an earlier
    numerator stripped by repeated gcd division.  A primitive prime factor
    exists iff the result is not a unit; no factorization is involved.

    `basis` supplies, for each earlier numerator, divisors of it that hold
    every prime it shares with the n-th: the map's `ZeroOrbit` over Q,
    `_EveryEarlier` over Q(t)."""
    domain = basis.domain
    rec = records[n - 1]
    if rec.n != n:
        raise ValueError("records must be contiguous from n = 1")
    if rec.value is INFINITY or rec.value == 0:
        raise ValueError(f"orbit value at n = {n} is 0 or infinity")
    part = domain.numerator(rec.value)
    for m in range(1, n):
        earlier = domain.numerator(records[m - 1].value)
        if domain.is_zero(earlier):
            # an exact zero upstream absorbs every prime
            return domain.unit
        if domain.is_unit(earlier):
            continue
        for divisor in basis.divisors(earlier, n - m):
            # every prime shared with `divisor` divides g, so later rounds
            # need only the (smaller) g
            g = domain.gcd(part, divisor)
            while not domain.is_unit(g):
                part = domain.div(part, g)
                g = domain.gcd(part, g)
    return part


def squarefree_primitive_prime(part: int, budget: int = DEFAULT_BUDGET):
    """A primitive prime with exponent exactly 1 in the n-th numerator, read
    off its primitive part `part`, or None, or unresolved when the part
    resists the factoring budget: `squarefree_primitive_primes` of [part].

    Gcd-stripping removes shared primes wholesale, so the exponents of the
    surviving primes inside the primitive part equal their exponents in the
    full numerator; only the primitive part ever needs factoring.
    """
    return squarefree_primitive_primes([part], budget)[0]


def squarefree_primitive_primes(parts, budget: int = DEFAULT_BUDGET, factor_cache=None) -> list:
    """(witness, unresolved, factorization) for each primitive part.

    Each part is trial-divided once.  Its divided primes come in ascending
    order, and every other prime of the part is larger, so the first of
    exponent 1 among them is the witness and the part needs nothing more;
    its factorization is then None, since none was completed.  The other
    parts are completed as one batch, the rho stages on every CPU
    (`intplaces.finish_factoring`).  A part in `factor_cache` (its
    factorization under `budget`) skips both stages."""
    factor_cache = factor_cache or {}
    settled, trials = {1: (None, False, None)}, {}
    for part in parts:
        if part not in settled and part not in trials and part not in factor_cache:
            trial = trial_division(part)
            witness = _first_simple_prime(trial[1])
            if witness is None:
                trials[part] = trial
            else:
                settled[part] = (witness, False, None)
    factored = dict(zip(trials, finish_factoring(list(trials.values()), budget)))
    return [settled.get(part) or _verdict(factored.get(part, factor_cache.get(part)))
            for part in parts]


def _verdict(factored: FactoredValue):
    witness = _first_simple_prime(factored.prime_powers)
    return witness, witness is None and not factored.is_complete, factored


def _first_simple_prime(prime_powers):
    """The first p of the (p, e) pairs with e = 1, else None."""
    return next((p for p, e in prime_powers if e == 1), None)


def squarefree_primitive_witness_ff(part):
    """Over Q(t): the product of the multiplicity-1 irreducibles of the
    primitive part `part` (primitive, positive leading coefficient), or
    None.  Nontrivial iff a square-free primitive prime exists; no
    irreducible factorization is needed."""
    witness = polys.int_squarefree_decomposition(part).get(1)
    return None if witness is None else tuple(witness)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class HypothesisNotes(NamedTuple):
    """Which theorem hypotheses the scanned pair satisfies, for report readers."""

    power_map: bool
    zero_in_orbit: Optional[int]
    classification: Optional[PointClassification]
    ramification: Optional[RamificationVerdict]


class ZsigmondyReport:
    __slots__ = ("map_str", "alpha_str", "field", "depth", "squarefree_depth", "records",
                 "zsigmondy_set", "squarefree_zsigmondy_set", "squarefree_unresolved",
                 "termination", "notes")

    def __init__(self, map_str: str, alpha_str: str, field: str, depth: int,
                 squarefree_depth: int, records: list, zsigmondy_set: tuple,
                 squarefree_zsigmondy_set: tuple, squarefree_unresolved: tuple,
                 termination: Termination, notes: Optional[HypothesisNotes]):
        self.map_str = map_str
        self.alpha_str = alpha_str
        self.field = field
        self.depth = depth
        self.squarefree_depth = squarefree_depth
        self.records = records
        self.zsigmondy_set = zsigmondy_set
        self.squarefree_zsigmondy_set = squarefree_zsigmondy_set
        self.squarefree_unresolved = squarefree_unresolved
        self.termination = termination
        self.notes = notes


def zsigmondy_report(
    rmap,
    alpha,
    depth: int = DEFAULT_PRIMITIVE_DEPTH,
    budget: int = DEFAULT_BUDGET,
    squarefree_depth: int = DEFAULT_SQUAREFREE_DEPTH,
    factor_cache=None,
) -> ZsigmondyReport:
    """Scan an orbit for primitive and square-free primitive prime divisors.

    The report also states which theorem hypotheses hold (power map, zero in
    the orbit, wandering vs preperiodic, the ramification verdict) so a
    reader can see whether an observed exception is explained.

    `factor_cache` maps a primitive part to its factorization made under
    `budget` (from the cache); those parts are not factored again.
    """
    walk = OrbitWalk(rmap, alpha)
    if isinstance(rmap, RationalMapFF):
        basis = _EveryEarlier
    else:  # from alpha = 0 the scan's walk is the orbit of 0
        basis = ZeroOrbit(rmap, walk if walk.values[0] == 0 else None)
    domain = basis.domain
    records, termination = orbit(rmap, walk, depth)
    analyzable = [rec for rec in records
                  if rec.value is not INFINITY and rec.value != 0]
    for rec in analyzable:
        rec.primitive_part = primitive_part(records, rec.n, basis)
        rec.has_primitive = not domain.is_unit(rec.primitive_part)

    sf_records = [rec for rec in analyzable if rec.n <= squarefree_depth]
    if domain is _IntValues:
        found = squarefree_primitive_primes([rec.primitive_part for rec in sf_records],
                                            budget=budget, factor_cache=factor_cache)
        for rec, (prime, unresolved, fac) in zip(sf_records, found):
            rec.squarefree_witness = prime
            rec.squarefree_unresolved = unresolved
            rec.has_squarefree_primitive = None if unresolved else prime is not None
            rec.factored = fac
    else:
        for rec in sf_records:
            witness = squarefree_primitive_witness_ff(rec.primitive_part)
            rec.squarefree_witness = witness
            rec.has_squarefree_primitive = witness is not None

    zsig = tuple(rec.n for rec in analyzable if rec.has_primitive is False)
    sf_set = tuple(
        rec.n for rec in sf_records if rec.has_squarefree_primitive is False
    )
    sf_unresolved = tuple(rec.n for rec in sf_records if rec.squarefree_unresolved)

    zero_in_orbit = termination.zero_index
    if domain is _IntValues:
        from .heights import classify_point

        classification = classify_point(rmap, walk)
        try:
            ramification = rmap.dynamical_ramification_verdict(RAMIFICATION_NOTE_DEPTH)
        except ResourceCapError:
            ramification = None
    else:
        classification = None
        ramification = None
    notes = HypothesisNotes(
        power_map=rmap.is_power_map(),
        zero_in_orbit=zero_in_orbit,
        classification=classification,
        ramification=ramification,
    )
    return ZsigmondyReport(
        map_str=rmap.to_string(),
        alpha_str=point_str(as_point(alpha)),
        field=domain.field,
        depth=depth,
        squarefree_depth=squarefree_depth,
        records=records,
        zsigmondy_set=zsig,
        squarefree_zsigmondy_set=sf_set,
        squarefree_unresolved=sf_unresolved,
        termination=termination,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Non-primitive mass diagnostic
# ---------------------------------------------------------------------------

class PropOldRow(NamedTuple):
    n: int
    mass: LogMass
    height: float
    delta_height: float
    margin: float  # mass - delta * height
    ratio: Optional[float]
    note: str = ""


class PropOldReport(NamedTuple):
    map_str: str
    alpha_str: str
    factor_poly: tuple
    level: int
    delta: float
    rows: list
    empirical_constant: float
    hypothesis_ok: bool
    hypothesis_notes: tuple
    screen_is_heuristic: bool = True


def prop_old_diagnostic(
    rmap: RationalMap,
    alpha,
    factor_poly,
    level: int,
    depth: int,
    delta: float,
    budget: int = DEFAULT_BUDGET,
) -> PropOldReport:
    """Mass of primes shared between F(phi^(n-i)(alpha)) and earlier orbit
    numerators, against delta * h(phi^n(alpha)), per scanned level n.

    F must divide the numerator of the i-th iterate exactly.  The hypothesis
    screen (roots of F non-periodic, not mapping to 0 too early) is gcd-based
    and sound but incomplete; it is reported, not enforced.  All three
    questions are read off one walk of F's generic root: with
    (A_k, B_k) = lambda_k * (P_k, Q_k) mod F, F divides P_i iff A_i = 0 mod F,
    a root of F hits 0 at level l iff gcd(F, A_l) != 1, and a root has period
    dividing k iff gcd(F, A_k - x*B_k) != 1.
    """
    from .heights import weil_height

    F = polys.strip([Fraction(c) for c in factor_poly])
    if polys.degree(F) < 1:
        raise ValueError("F must be non-constant")
    if level < 1:
        raise ValueError("level must be >= 1")
    i = level
    # A period screen level past the degree cap is refused, but only after
    # the cap at level i and the divisibility of P_i, so the walk stops at i.
    screen_cap = None
    try:
        for k in range(1, PERIOD_SCREEN_BOUND + 1):
            rmap._check_level(k)
    except ResourceCapError as exc:
        screen_cap = exc
    pairs = rmap.generic_orbit(F, max(i, PERIOD_SCREEN_BOUND) if screen_cap is None else i)
    if not polys.is_zero(pairs[i][0]):
        raise ValueError("F does not divide the numerator of the i-th iterate")
    if screen_cap is not None:
        raise screen_cap

    notes = []
    ok = True
    # roots of F must not map to 0 at levels 0..i-1 (level 0 means F(0) != 0)
    for ell in range(0, i):
        if polys.degree(polys.gcd(F, pairs[ell][0])) > 0:
            ok = False
            notes.append(f"a root of F hits 0 at level {ell}")
    # periodicity screen up to a bound (heuristic: periods beyond it unseen)
    for k in range(1, PERIOD_SCREEN_BOUND + 1):
        a_k, b_k = pairs[k]
        fixed = polys.mod(polys.sub(a_k, polys.mul([0, 1], b_k)), F)
        if polys.degree(polys.gcd(F, fixed)) > 0:
            ok = False
            notes.append(f"a root of F is periodic with period dividing {k}")

    records, _ = orbit(rmap, alpha, depth)
    numerators = {}
    for rec in records:
        if rec.value is INFINITY:
            continue
        numerators[rec.n] = abs(Fraction(rec.value).numerator)

    alpha_pt = as_point(alpha)
    rows = []
    margins = []
    for n in range(max(1, i), len(records) + 1):
        value_n = records[n - 1].value
        if value_n is INFINITY or value_n == 0:
            rows.append(
                PropOldRow(n=n, mass=LogMass(0.0, True, 1), height=0.0,
                           delta_height=0.0, margin=0.0, ratio=None,
                           note="orbit value is 0 or infinity; row skipped")
            )
            continue
        base = alpha_pt if n == i else records[n - i - 1].value
        if base is INFINITY:
            rows.append(
                PropOldRow(n=n, mass=LogMass(0.0, True, 1), height=0.0,
                           delta_height=0.0, margin=0.0, ratio=None,
                           note="phi^(n-i) is infinite; row skipped")
            )
            continue
        w = polys.evaluate(F, Fraction(base))
        if w == 0:
            rows.append(
                PropOldRow(n=n, mass=LogMass(0.0, True, 1), height=0.0,
                           delta_height=0.0, margin=0.0, ratio=None,
                           note="F vanishes on the orbit; row skipped")
            )
            continue
        w_num = abs(w.numerator)
        shared_primes = set()
        exact = True
        for m in range(1, n):
            nm = numerators.get(m)
            if nm is None or nm == 0:
                continue
            g = int_gcd(w_num, nm)
            if g > 1:
                fac = factor(g, budget=budget)
                shared_primes.update(fac.primes())
                exact = exact and fac.is_complete
        radical = 1
        for p in sorted(shared_primes):
            radical *= p
        mass_value = sum(log_int(p) for p in shared_primes)
        mass = LogMass(value=mass_value, exact=exact, radical=radical)
        h = weil_height(value_n).value
        margin = mass_value - delta * h
        margins.append(margin)
        rows.append(
            PropOldRow(
                n=n,
                mass=mass,
                height=h,
                delta_height=delta * h,
                margin=margin,
                ratio=(mass_value / h) if h > 0 else None,
            )
        )
    return PropOldReport(
        map_str=rmap.to_string(),
        alpha_str=point_str(alpha_pt),
        factor_poly=tuple(F),
        level=i,
        delta=delta,
        rows=rows,
        empirical_constant=max(margins, default=0.0),
        hypothesis_ok=ok,
        hypothesis_notes=tuple(notes),
    )
