"""Seeded job lists for the four benchmark workloads.

A job is one `orbitprimes` command line.  Each workload draws its jobs from a
finite pool of candidates built here from fixed grids.  A candidate enters a
pool only when a size computed before running it falls inside the workload's
window: the estimated digit count of an orbit value, the degree d**depth of
an iterate, or the bit lengths of the parts the factoring engine will see
together with an explicit --budget.  So no seed can draw a cliff case.

The seed decides which candidates of each class run and in what order; the
number of jobs of each class is fixed per workload.  A run repeats its
seed's one list in every pass.  Reference answers exist
for every pool candidate (refs.json), so every seed's answers are checked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# The program refuses orbit values above 10**6 digits; it tests bit lengths.
CAP_BITS = int(10**6 * 3.33) + 64
LOG10_2 = math.log10(2)


@dataclass(frozen=True)
class Job:
    """One command line, with the sizes that admitted it to its pool."""

    cls: str
    argv: tuple
    size: tuple = ()
    cache: str = ""  # "cold" or "warm" for the two halves of a cache pair

    def __post_init__(self):
        # A value such as -1/2 or -x^2-2 must not read as an option.
        argv, tokens = [], list(self.argv)
        while tokens:
            token = tokens.pop(0)
            if (token.startswith("--") and "=" not in token and tokens
                    and tokens[0].startswith("-") and not tokens[0].startswith("--")):
                token = f"{token}={tokens.pop(0)}"
            argv.append(token)
        object.__setattr__(self, "argv", tuple(argv))

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# Sizes computed before running a job
# ---------------------------------------------------------------------------

def orbit_bits(d: int, c: int, alpha: int, depth: int):
    """Bit lengths of |f^k(alpha)|, k = 1..depth, for f = x^d + c.

    Exact while the values stay below 2**2048, extrapolated by the factor d
    per level after that (the constant term no longer matters).  None when
    the orbit hits 0, repeats, or has not escaped by level 4.
    """
    out = []
    x = alpha
    seen = {x}
    bits = None
    for k in range(1, depth + 1):
        if bits is None:
            x = x**d + c
            if x == 0 or x in seen:
                return None
            seen.add(x)
            b = abs(x).bit_length()
            if b > 2048:
                bits = b
            out.append(b)
        else:
            bits *= d
            out.append(bits)
        if k == 4 and abs(x) < abs(c) + 2 and bits is None:
            return None
    return out


def digits(bits: int) -> int:
    return int(bits * LOG10_2) + 1


def orbit_numerators(d: int, c: int, alpha: int, depth: int):
    x = alpha
    out = []
    for _ in range(depth):
        x = x**d + c
        out.append(abs(x))
    return out


def strip_against(part: int, earlier) -> int:
    """`part` with every prime it shares with an earlier value removed."""
    for e in earlier:
        g = math.gcd(part, e)
        while g > 1:
            part //= g
            g = math.gcd(part, e)
    return part


def rho_step_us(bits: int) -> float:
    """Cost model of one Brent-rho step on a `bits`-bit modulus, in
    microseconds as measured with CPython 3.11 on an Intel Xeon core; only
    its shape matters, since it sets how large a budget each job gets."""
    return 0.8 + (bits / 400) ** 1.65


def budget_for(part_bits, target_us: float) -> int:
    """Explicit factoring budget that spends about `target_us` on the parts
    too large to split cheaply (they exhaust the budget), rounded to two
    significant figures."""
    per_unit = sum(rho_step_us(b) for b in part_bits if b >= 160)
    if per_unit == 0:
        return 20_000
    budget = target_us / per_unit
    scale = 10 ** (int(math.log10(budget)) - 1)
    return max(2_000, min(400_000, int(round(budget / scale)) * scale))


def poly_str(d: int, c) -> str:
    c = Fraction(c)
    if c == 0:
        return f"x^{d}"
    return f"x^{d}{'+' if c > 0 else '-'}{abs(c)}"


def sf_level(bits, max_level: int, max_digits: int) -> int:
    """Deepest level <= max_level whose orbit value has at most max_digits."""
    level = 0
    for k, b in enumerate(bits[:max_level], start=1):
        if digits(b) <= max_digits:
            level = k
    return level


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

def _zsigmondy_q(target_digits: int, window: float, cls: str, cache: bool, degrees=(2, 3)):
    """Deep orbit scans over Q of x^d + c whose last value has about
    target_digits digits."""
    out = []
    for d in degrees:
        alphas = range(1, 9) if d == 2 else [a for a in range(-6, 7) if a]
        for c in range(-12, 13):
            if c == 0:
                continue
            for alpha in alphas:
                bits = orbit_bits(d, c, alpha, 40)
                if bits is None:
                    continue
                n = min(range(len(bits)),
                        key=lambda k: abs(math.log(digits(bits[k]) / target_digits)))
                last = digits(bits[n])
                if abs(math.log(last / target_digits)) > math.log(window):
                    continue
                sfn = sf_level(bits, 5, 18)
                if sfn < 2:
                    continue
                argv = ["zsigmondy", "--map", poly_str(d, c), "--alpha", str(alpha),
                        "--max-n", str(n + 1), "--squarefree-max-n", str(sfn),
                        "--budget", "20000"]
                size = (("last_digits", last), ("max_n", n + 1), ("sf_digits", digits(bits[sfn - 1])))
                if cache:
                    argv += ["--cache", f"orbit-{d}-{c}-{alpha}.jsonl"]
                out.append(Job(cls, tuple(argv), size))
    return out


def _canonical_heights():
    """Canonical heights at tol 1e-9..1e-12: every one runs into the value
    cap, so the cost is set by the digit count of the first value past it."""
    out = []
    for c in range(-12, 13):
        if c == 0:
            continue
        for alpha in range(1, 7):
            bits = orbit_bits(2, c, alpha, 40)
            if bits is None:
                continue
            over = next(b for b in bits if b > CAP_BITS)
            if 1.30 <= over / CAP_BITS <= 1.42:
                tol = ("1e-9", "1e-10", "1e-11", "1e-12")[len(out) % 4]
                argv = ("canonical-height", "--map", poly_str(2, c),
                        "--alpha", str(alpha), "--tol", tol)
                out.append(Job("canonical-height", argv, (("over_cap_digits", digits(over)),)))
    return out


_PREPERIODIC = (
    ("x^2-1", "0"), ("x^2-1", "-1"), ("x^2-1", "1"), ("x^2-2", "0"),
    ("x^2-2", "2"), ("x^2-2", "-1"), ("x^2-2", "1"), ("x^2", "-1"),
    ("x^2-3/4", "1/2"), ("x^2-3/4", "-1/2"), ("x^3-x", "1"), ("x^3-x", "-1"),
    ("x^2+x", "-1"), ("x^2-x", "1"), ("x^2-x", "0"), ("x^3-2x", "1"),
)


def _classify():
    out = [Job("classify", ("classify", "--map", m, "--alpha", a), (("preperiodic", 1),))
           for m, a in _PREPERIODIC]
    for c in range(1, 7):
        for alpha in (1, 2, 3):
            out.append(Job("classify", ("classify", "--map", poly_str(2, c), "--alpha", str(alpha)),
                           (("preperiodic", 0),)))
    return out


def _galois_towers(target_us: float):
    """Certificate searches for x^2 + a; the top level's part (critical value
    stripped of 2 and of earlier critical values) has 1200..2100 bits."""
    out = []
    for a in range(-40, 41):
        if a == 0:
            continue
        values = []
        v = 0
        ok = True
        for _ in range(11):
            v = v * v + a
            if v == 0 or v in values:
                ok = False
                break
            values.append(v)
        if not ok:
            continue
        parts = []
        for n, crit in enumerate(values):
            part = abs(crit)
            while part % 2 == 0:
                part //= 2
            parts.append(strip_against(part, [abs(e) for e in values[:n]]).bit_length())
        max_n = max((n for n in range(7, 11) if parts[n] <= 2100), default=None)
        if max_n is None or parts[max_n] < 1200:
            continue
        budget = budget_for(parts[: max_n + 1], target_us)
        argv = ("galois-tower", "--a", str(a), "--max-n", str(max_n), "--budget", str(budget))
        out.append(Job("galois-tower", argv, (("top_part_bits", parts[max_n]), ("budget", budget))))
    return out


def _squarefree_scans(target_us: float):
    """Square-free primitive divisor scans to level 8 or 9 over Q whose top
    primitive part has 800..1100 bits, so rho, not the orbit, sets the cost."""
    out = []
    for c in range(-9, 10):
        if c == 0:
            continue
        for alpha in range(1, 5):
            if orbit_bits(2, c, alpha, 9) is None:
                continue
            nums = orbit_numerators(2, c, alpha, 9)
            parts = [strip_against(x, nums[:k]).bit_length() for k, x in enumerate(nums)]
            sfn = 9 if parts[8] <= 1100 else 8
            if not 800 <= parts[sfn - 1] <= 1100:
                continue
            budget = budget_for(parts[:sfn], target_us)
            argv = ("zsigmondy", "--map", poly_str(2, c), "--alpha", str(alpha),
                    "--max-n", str(sfn), "--squarefree-max-n", str(sfn), "--budget", str(budget))
            out.append(Job("zsigmondy-sf", argv, (("top_part_bits", parts[sfn - 1]), ("budget", budget))))
    return out


# Ramification scans: (family, maps, d**depth).  A family shares the code
# path the scan takes (even, scaled, general, square, odd cubic, rational)
# and coefficient sizes that keep its cost in one band at that degree; the
# negated conjugates -f(-x) have the same dynamics and coefficient sizes.
_RAMIFY_FAMILIES = (
    ("even-quadratic", ["x^2+2", "x^2-3", "x^2-4", "-x^2-2", "-x^2+3", "-x^2+4"], 512),
    ("scaled-quadratic", ["2x^2-3", "3x^2-1", "2x^2+3", "-2x^2+3", "-3x^2+1", "-2x^2-3"], 512),
    ("general-quadratic", ["x^2+x+1", "x^2-x+1", "x^2+x-1", "x^2-x-1", "x^2+x+2", "x^2-x+2"], 256),
    ("square", ["(x-1)^2", "(x+1)^2", "(x-2)^2", "(x+2)^2", "-(x+1)^2", "-(x-1)^2",
                "-(x+2)^2", "-(x-2)^2"], 512),
    ("odd-cubic", ["x^3+2x", "x^3-2x", "x^3-x", "x^3+x"], 729),
    ("rational", ["(x^2+1)/(3x)", "(x^2-1)/(3x)", "(3x^2+1)/(2x)", "(2x^2+1)/x"], 128),
)


def _ramify():
    out = []
    for family, maps, cap in _RAMIFY_FAMILIES:
        for text in maps:
            d = 3 if "x^3" in text else 2
            depth = int(math.log(cap, d) + 1e-9)
            argv = ("map-analyze", "--map", text, "--depth", str(depth), "--threshold", "1000000")
            out.append(Job(family, argv, (("degree_at_depth", d**depth),)))
    return out


def _roth_q():
    out = []
    polys = ["x^3+2", "x^3+3", "x^3+5", "x^3-2", "x^3-3", "x^3+x+1", "x^3-x+1", "x^3+x-1",
             "x^3-2x+2", "x^3+2x+3", "x^3-x+3", "x^3+7"]
    for F in polys:
        for H in (38, 40, 42):
            out.append(Job("roth-scan-q", ("roth-scan", "--F", F, "--height-bound", str(H),
                                           "--budget", "50000"), (("height_bound", H),)))
    return out


def _zsigmondy_qt():
    """Orbit scans over Q(t) to the level where the value's degree in t,
    max(d * previous, deg g) for x^d + g(t), first reaches 96."""
    out = []
    maps = (("x^2+t", 2, 1), ("x^2-t", 2, 1), ("x^2+t+1", 2, 1), ("x^2+2t", 2, 1),
            ("x^2+t^2", 2, 2), ("x^2+t-1", 2, 1), ("x^2-2t", 2, 1))
    for m, d, g_deg in maps:
        for alpha, a_deg in (("t", 1), ("1", 0), ("t+1", 1), ("-t", 1), ("2", 0)):
            deg, n = a_deg, 0
            while deg < 96:
                deg, n = max(d * deg, g_deg), n + 1
            out.append(Job("zsigmondy-qt", ("zsigmondy", "--map", m, "--alpha", alpha, "--field", "qt",
                                            "--max-n", str(n), "--squarefree-max-n", str(n)),
                           (("last_degree", deg),)))
    return out


def _roth_qt():
    out = []
    for F in ("x^3+t", "x^3-t", "x^3+t+1", "x^3+x+t", "x^3+t*x+t", "x^3+2*t", "x^3-t-1", "x^3+x-t"):
        for deg, bound in ((2, 2), (3, 1)):
            out.append(Job("roth-scan-qt", ("roth-scan", "--F", F, "--field", "qt", "--max-degree",
                                            str(deg), "--coeff-bound", str(bound)),
                           (("samples", sum((2 * bound + 1) ** k * 2 * bound for k in range(deg + 1))),)))
    return out


# Command lines of the roth-scan-qt class that the program does not answer:
# it exits 1 with an IndexError in reports.value_str when the minimum margin
# falls on the zero sample.  They stay out of the pool; selftest.py runs them
# and fails once they stop failing this way, so they can be added back.
KNOWN_FAILURES = (
    ("roth-scan", "--F", "x^3-t*x+1", "--field", "qt", "--max-degree", "1", "--coeff-bound", "2"),
    ("roth-scan", "--F", "x^3+t^2", "--field", "qt", "--max-degree", "1", "--coeff-bound", "2"),
)


def _mason():
    out = []
    rng = random.Random("mason-pool")
    while len(out) < 30:
        k = rng.randint(1, 4)
        r = rng.randint(-2, 2)
        base = "t" if r == 0 else f"(t{'+' if r > 0 else '-'}{abs(r)})"
        a = base if k == 1 else f"{base}^{k}"
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        if not any(coeffs):
            continue
        # b(-r) != 0 keeps a and b coprime; the constant term decides for r = 0.
        value = sum(co * (-r) ** i for i, co in enumerate(coeffs))
        if value == 0:
            continue
        b = "+".join(f"({co})*t^{i}" for i, co in enumerate(coeffs) if co)
        job = Job("mason", ("mason", "--a", a, "--b", b), (("degree", max(k, len(coeffs) - 1)),))
        if job not in out:
            out.append(job)
    return out


def _abc():
    out = []
    rng = random.Random("abc-pool")
    while len(out) < 30:
        a = rng.randint(1, 10**12)
        b = rng.choice((1, -1)) * rng.randint(1, 10**12)
        if a + b == 0:
            continue
        if rng.random() < 0.3:
            a = f"{a}/{rng.randint(2, 999)}"
        out.append(Job("abc", ("abc", "--a", str(a), "--b", str(b), "--budget", "20000"),
                       (("digits", 12),)))
    return out


def _prop_old():
    out = []
    for c in (1, 2, 3, -3, 5, -5, 6, 7):
        for alpha in (1, 2):
            bits = orbit_bits(2, c, alpha, 10)
            if bits is None:
                continue
            F = poly_str(2, c)
            out.append(Job("prop-old", ("prop-old", "--map", F, "--alpha", str(alpha), "--F", F,
                                        "--i", "1", "--max-n", "10", "--delta", "1/8",
                                        "--budget", "20000"),
                           (("last_digits", digits(bits[-1])),)))
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# name -> ordered (class, number of jobs per pass); cache pairs count once.
# The counts put a list's median job inside a class band rather than in the
# gap between two bands, so job_s.p50 does not jump with the draw.
COMPOSITION = {
    "orbit-deep": (("zsigmondy", 9), ("canonical-height", 2), ("classify", 1), ("cache-pair", 1)),
    "factor-tower": (("galois-tower", 4), ("zsigmondy-sf", 8)),
    "ramify": (("even-quadratic", 2), ("scaled-quadratic", 3), ("general-quadratic", 1),
               ("square", 4), ("odd-cubic", 3), ("rational", 1)),
    "scan-small": (("roth-scan-q", 10), ("zsigmondy-qt", 10), ("roth-scan-qt", 6), ("mason", 4),
                   ("abc", 3), ("prop-old", 3)),
}

WORKLOADS = tuple(COMPOSITION)


@lru_cache(maxsize=None)
def pool(workload: str):
    """All candidates of a workload, by class."""
    if workload == "orbit-deep":
        # A cubic orbit costs about 3/4 of a quadratic one of the same
        # size, so its target is larger by 4/3.
        jobs = (_zsigmondy_q(85_000, 1.06, "zsigmondy", cache=False, degrees=(2,))
                + _zsigmondy_q(113_000, 1.06, "zsigmondy", cache=False, degrees=(3,))
                + _canonical_heights() + _classify()
                + _zsigmondy_q(70_000, 1.05, "cache-pair", cache=True))
    elif workload == "factor-tower":
        jobs = _galois_towers(600_000) + _squarefree_scans(400_000)
    elif workload == "ramify":
        jobs = _ramify()
    elif workload == "scan-small":
        jobs = _roth_q() + _zsigmondy_qt() + _roth_qt() + _mason() + _abc() + _prop_old()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    by_class = {}
    for job in jobs:
        by_class.setdefault(job.cls, []).append(job)
    return by_class


def job_list(workload: str, seed: int):
    """The job list of a seed; every pass of a run repeats it, so every run
    of one seed times the same jobs however many passes it makes.  Cache
    pairs expand to a cold run followed by a warm run of the same command
    line."""
    rng = random.Random(f"{workload}:{seed}")
    by_class = pool(workload)
    jobs = []
    for cls, count in COMPOSITION[workload]:
        for job in rng.sample(by_class[cls], count):
            if cls == "cache-pair":
                jobs.append([Job(cls, job.argv, job.size, "cold"), Job(cls, job.argv, job.size, "warm")])
            else:
                jobs.append([job])
    rng.shuffle(jobs)
    return [job for group in jobs for job in group]
