"""Empirical abc-triple quality and Roth-type radical scans.

Over Q the abc inequality is an assumption, so scans report empirical
constants and never pass or fail it.  Sample families are deterministic
enumerations, making every report reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import polys
from .intplaces import DEFAULT_BUDGET, LogMass, factor, log_int, radical_logmass

if TYPE_CHECKING:
    from .heights import HeightValue


class AbcTriple(NamedTuple):
    """a + b = c with its height, radical mass and quality.

    `quality` is height / rad_mass; when the radical mass is only a lower
    bound (factoring budget ran out), the quality is only an upper bound and
    `quality_is_upper_bound` says so.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    height: HeightValue
    rad_mass: LogMass
    quality: Optional[float]
    quality_is_upper_bound: bool = False


def abc_quality(a, b, budget: int = DEFAULT_BUDGET) -> AbcTriple:
    """Quality of the triple (a, b, a+b) for nonzero rationals with a+b != 0.

    The support set collects the primes where the three valuations are not
    all equal; on the coprime integer model (A, B, C) those are exactly the
    primes dividing A*B*C.
    """
    from .heights import multi_height  # here, so that the Roth scans load no orbit code

    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("a and b must be nonzero")
    c = a + b
    if c == 0:
        raise ValueError("a + b must be nonzero")
    model_a, model_b, model_c = polys.to_integer([a, b, c])
    product = abs(model_a * model_b * model_c)
    height = multi_height((a, b, c))
    if product == 1:
        rad = LogMass(value=0.0, exact=True, radical=1)
        return AbcTriple(a=a, b=b, c=c, height=height, rad_mass=rad,
                         quality=None, quality_is_upper_bound=False)
    fac = factor(product, budget=budget)
    rad = radical_logmass(fac)
    quality = height.value / rad.value if rad.value > 0 else None
    return AbcTriple(
        a=a,
        b=b,
        c=c,
        height=height,
        rad_mass=rad,
        quality=quality,
        quality_is_upper_bound=not rad.exact,
    )


class RothSample(NamedTuple):
    z: object  # Fraction over Q, tuple of coefficients over Q(t)
    radsum: float
    height: float
    margin: float
    exact: bool


class RothScanReport(NamedTuple):
    field: str
    poly_str: str
    epsilon: float
    sample_description: str
    samples: tuple
    skipped: tuple  # roots of F encountered and excluded
    min_margin: Optional[float]
    argmin: object
    empirical_constant: Optional[float]  # -min margin
    inexact_count: int

    @property
    def sample_count(self) -> int:
        return len(self.samples)


def _require_scan_input(F, epsilon: float):
    """F, with coefficients already in the scan's field, stripped; refused
    unless it is square-free of degree >= 3 and epsilon is positive."""
    F = polys.strip(F)
    if polys.degree(F) < 3:
        raise ValueError("F must have degree >= 3")
    g = polys.gcd(F, polys.derivative(F))
    if polys.degree(g) > 0:
        raise ValueError("F must be squarefree")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return F


def _scan_report(field, poly_str, epsilon, description, samples, skipped, inexact):
    """The report of a finished scan: the minimum margin, the first sample
    that attains it, and the empirical constant -min(margin)."""
    min_margin = min((s.margin for s in samples), default=None)
    argmin = None
    if min_margin is not None:
        argmin = next(s.z for s in samples if s.margin == min_margin)
    return RothScanReport(
        field=field,
        poly_str=poly_str,
        epsilon=epsilon,
        sample_description=description,
        samples=tuple(samples),
        skipped=tuple(skipped),
        min_margin=min_margin,
        argmin=argmin,
        empirical_constant=None if min_margin is None else -min_margin,
        inexact_count=inexact,
    )


def roth_scan_q(F, epsilon: float, height_bound: int,
                budget: int = DEFAULT_BUDGET) -> RothScanReport:
    """Scan all reduced p/q with max(|p|, |q|) <= H against the radical bound.

    Per sample: radsum = sum of log p over primes dividing the numerator of
    F(z), margin = radsum - (deg F - 2 - epsilon) * h(z).  Roots of F are
    skipped and recorded.  The empirical constant is -min(margin).
    """
    F = _require_scan_input([Fraction(c) for c in F], epsilon)
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    coeff = polys.degree(F) - 2 - epsilon
    lift, denominator = polys._lift(F)
    samples = []
    skipped = []
    inexact = 0
    for q in range(1, height_bound + 1):
        for p in range(-height_bound, height_bound + 1):
            if int_gcd(abs(p), q) != 1:
                continue
            z = Fraction(p, q)
            num = _sample_numerator(lift, denominator, p, q)
            if num == 0:
                skipped.append(z)
                continue
            if num == 1:
                radsum, exact = 0.0, True
            else:
                fac = factor(num, budget=budget)
                mass = radical_logmass(fac)
                radsum, exact = mass.value, mass.exact
            h = log_int(max(abs(p), q))
            margin = radsum - coeff * h
            if not exact:
                inexact += 1
            samples.append(RothSample(z=z, radsum=radsum, height=h,
                                      margin=margin, exact=exact))
    return _scan_report("Q", polys.to_string(F), epsilon,
                        f"all reduced p/q with max(|p|,|q|) <= {height_bound}",
                        samples, skipped, inexact)


def _sample_numerator(lift, denominator, p, q):
    """|numerator| of F(p/q) in lowest terms, 0 at a root, for F = lift /
    denominator and coprime p, q with q > 0.  F(p/q) = H / (denominator *
    q^d) with H = sum lift[i] p^i q^(d-i), which two-variable Horner builds
    in integers."""
    h, qk = lift[-1], 1
    for c in lift[-2::-1]:
        qk *= q
        h = h * p + c * qk
    return abs(h) // int_gcd(h, denominator * qk)


def _ff_poly_samples(max_degree: int, coeff_bound: int):
    """Deterministic enumeration of polynomials in t: ascending by degree,
    then lexicographic in coefficients.  Constants come first."""
    for deg in range(0, max_degree + 1):
        span = range(-coeff_bound, coeff_bound + 1)
        lead_span = [c for c in span if c != 0]

        def rec(prefix, k):
            if k == deg:
                for lead in lead_span if deg > 0 else span:
                    yield prefix + [lead]
            else:
                for c in span:
                    yield from rec(prefix + [c], k + 1)

        for coeffs in rec([], 0):
            yield coeffs


def roth_scan_ff(F_coeffs, epsilon: float, max_degree: int = 2,
                 coeff_bound: int = 2) -> RothScanReport:
    """Function-field radical scan: z runs over polynomials in t of bounded
    degree and coefficient size (a documented deterministic family).

    radsum is the degree of the squarefree part of the numerator p of F(z):
    the sum of deg(pi) over the distinct monic irreducibles dividing it,
    read as deg p - deg gcd(p, p') without any factorization.  F(z) is
    sum n_k z^k / L over F's integral coefficients, evaluated by Horner's
    rule in Z[t] and reduced once.  Unlike the Q scan this inequality is a
    theorem, so margins here are structural data, not conjecture probes.
    """
    from .ffplaces import FFElement, form_value, integral_coefficients

    if max_degree < 0 or coeff_bound < 0:
        raise ValueError("max degree and coefficient bound must be >= 0")
    F = _require_scan_input(
        [c if isinstance(c, FFElement) else FFElement.from_const(c) for c in F_coeffs], epsilon
    )
    coeff = polys.degree(F) - 2 - epsilon
    forms, denominator = integral_coefficients(F)
    samples = []
    skipped = []
    for z_coeffs in _ff_poly_samples(max_degree, coeff_bound):
        z = polys.strip(z_coeffs)
        value = FFElement(form_value(forms, z, [1]), denominator)
        if value.is_zero:
            skipped.append(tuple(z_coeffs))
            continue
        radsum = polys.radical_degree(value.int_num)
        h = max(polys.degree(z), 0)
        margin = radsum - coeff * h
        samples.append(RothSample(z=tuple(z_coeffs), radsum=float(radsum),
                                  height=float(h), margin=margin, exact=True))
    poly_str_parts = []
    for k in range(polys.degree(F), -1, -1):
        c = F[k]
        if c.is_zero:
            continue
        xpow = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        poly_str_parts.append(f"({c})*{xpow}" if xpow else f"({c})")
    return _scan_report("Q(t)", " + ".join(poly_str_parts), epsilon,
                        f"polynomials in t of degree <= {max_degree} with integer "
                        f"coefficients in [-{coeff_bound}, {coeff_bound}]",
                        samples, skipped, 0)
