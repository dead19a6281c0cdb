"""Answer checks for orbitprimes JSON reports.

Three independent checks feed the benchmark's failure count:

* the report validates against the schema file shipped in the checkout;
* its answer fields match the reference answers in refs.json.  References
  are digests of answer fields, not of whole reports, so a later report
  field that is not an answer does not count as a failure.  Heights are kept
  as (estimate, radius) intervals and match when the intervals meet;
* every witness in it is re-checked here in exact integers: a Galois
  certificate p is an odd prime with valuation exactly 1 in f^(n+1)(0) that
  divides no earlier critical value, a square-free primitive witness divides
  the level-n numerator exactly once and no earlier numerator, and a bad
  prime divides the resultant.  Ramification profiles are not in the
  reports; the traced run hands the ones it sees to ramification_errors,
  which checks that their multiplicities sum to d^n.

A verdict that a budget or a cap left short of an answer is "unresolved": it
is counted, and the answer fields it affects are skipped in the comparison
when either side is unresolved, so resolving it later is not a failure.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Answers:
    """The answer fields of one report."""

    def __init__(self):
        self.items = {}  # key -> JSON value
        self.intervals = {}  # key -> (estimate, radius)
        self.unresolved = set()  # keys whose verdict is unresolved
        self.unresolved_count = 0

    def leave_open(self, key, count=1):
        self.unresolved.add(key)
        self.unresolved_count += count

    def reference(self) -> dict:
        return {
            "d": {k: digest(v) for k, v in sorted(self.items.items())},
            "i": {k: list(v) for k, v in sorted(self.intervals.items())},
            "u": sorted(self.unresolved),
        }


def _fields(obj, *keys):
    """The named answer fields of a report object (None when absent), so a
    field added to the schema later never changes a digest."""
    return None if obj is None else [obj.get(k) for k in keys]


_TERMINATION = ("kind", "zero_index", "tail", "period")
_RAMIFICATION = ("kind", "witness", "cumulative_simple_roots", "depth", "threshold")


def _zsigmondy(data, out):
    for row in data["records"]:
        n = row["n"]
        out.items[f"value.{n}"] = row["value"]
        out.items[f"primitive.{n}"] = [row["has_primitive"], row.get("primitive_part")]
        out.items[f"squarefree.{n}"] = [row["has_squarefree_primitive"], row.get("squarefree_witness")]
        if row["unresolved"]:
            out.leave_open(f"squarefree.{n}")
    out.items["zsigmondy_set"] = data["zsigmondy_set"]
    notes = data["notes"]
    out.items["notes"] = _fields(notes, "power_map", "zero_in_orbit")
    out.items["classification"] = _fields((notes or {}).get("classification"), "kind", "tail", "period")
    out.items["ramification"] = _fields((notes or {}).get("ramification"), *_RAMIFICATION)
    out.items["termination"] = _fields(data["termination"], *_TERMINATION)
    if data["termination"]["kind"] == "resource-cap":
        out.leave_open("termination")


def _galois(data, out):
    for level in data["levels"]:
        n = level["n"]
        out.items[f"critical.{n}"] = level["critical_value"]
        out.items[f"stoll.{n}"] = level["stoll_guarantee"]
        out.items[f"certificate.{n}"] = [level["certificate"], level["status"], level["established"]]
        if level["status"] == "unresolved":
            out.leave_open(f"certificate.{n}")


def _map_analyze(data, out):
    out.items["map"] = [data["map"], data["degree"], data["resultant"], data["power_map"]]
    out.items["bad_reduction"] = _fields(data["bad_reduction"], "primes", "unresolved_cofactor")
    if data["bad_reduction"]["unresolved_cofactor"] is not None:
        out.leave_open("bad_reduction")
    out.items["ramification"] = _fields(data["ramification"], *_RAMIFICATION)


def _canonical(data, out):
    out.items["point"] = [data["map"], data["alpha"]]
    out.intervals["height"] = (data["estimate"], data["error_radius"])
    if data["capped"]:
        out.unresolved_count += 1


def _classify(data, out):
    out.items["point"] = [data["map"], data["alpha"]]
    out.items["kind"] = [data["kind"], data["tail"], data["period"]]
    if data["kind"] == "inconclusive":
        out.leave_open("kind")
    if "height_estimate" in data:
        out.intervals["height"] = (data["height_estimate"], data["height_error_radius"])


def _roth(data, out):
    out.items["samples"] = [data["sample_description"], data["sample_count"],
                            data["skipped_count"], data["skipped"]]
    out.items["margin"] = [data["min_margin"], data["argmin"], data["empirical_constant"]]
    if data["inexact_count"]:
        out.leave_open("margin", data["inexact_count"])


def _abc(data, out):
    out.items["triple"] = [data["a"], data["b"], data["c"], data["height"], data["height_arg"]]
    out.items["radical"] = [data["radical"], data["rad_mass"], data["rad_exact"],
                            data["quality"], data["quality_is_upper_bound"]]
    if data["quality_is_upper_bound"]:
        out.leave_open("radical")


def _mason(data, out):
    out.items["mason"] = _fields(data, "a", "b", "c", "max_degree", "radical_degree", "holds", "tight")


def _prop_old(data, out):
    out.items["setup"] = [data["map"], data["alpha"], data["factor_poly"], data["level"],
                          data["delta"], data["hypothesis_ok"], data["hypothesis_notes"]]
    exact = True
    for row in data["rows"]:
        n = row["n"]
        out.items[f"row.{n}"] = [row["height"], row["delta_height"], row["note"]]
        out.items[f"mass.{n}"] = [row["mass"], row["mass_exact"], row["mass_radical"],
                                  row["margin"], row["ratio"]]
        if not row["mass_exact"]:
            out.leave_open(f"mass.{n}")
            exact = False
    out.items["empirical_constant"] = data["empirical_constant"]
    if not exact:
        out.unresolved.add("empirical_constant")


_EXTRACT = {
    "zsigmondy": _zsigmondy,
    "galois-tower": _galois,
    "map-analyze": _map_analyze,
    "canonical-height": _canonical,
    "classify": _classify,
    "roth-scan": _roth,
    "abc": _abc,
    "mason": _mason,
    "prop-old": _prop_old,
}


def extract(report: dict) -> Answers:
    out = Answers()
    _EXTRACT[report["kind"]](report["data"], out)
    return out


def compare(reference: dict, answers: Answers):
    """Differences between a reference and a fresh report's answers."""
    errors = []
    new = answers.reference()
    skip = set(reference["u"]) | answers.unresolved
    for key in sorted(set(reference["d"]) | set(new["d"])):
        if key in skip:
            continue
        if reference["d"].get(key) != new["d"].get(key):
            errors.append(f"answer {key} differs from the reference")
    for key in sorted(set(reference["i"]) | set(new["i"])):
        if key not in reference["i"] or key not in new["i"]:
            errors.append(f"interval {key} missing on one side")
            continue
        (e1, r1), (e2, r2) = reference["i"][key], new["i"][key]
        slack = 1e-9 * max(1.0, abs(e1), abs(e2))
        if abs(e1 - e2) > r1 + r2 + slack:
            errors.append(f"interval {key} [{e2} +- {r2}] misses the reference [{e1} +- {r1}]")
    return errors


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

def schema_errors(report, schema: dict):
    """Check a report against the shipped schema (draft-07 subset it uses)."""
    if not isinstance(report, dict):
        return ["report is not an object"]
    errors = [f"missing key {k!r}" for k in schema["required"] if k not in report]
    if schema.get("additionalProperties") is False:
        errors += [f"unknown key {k!r}" for k in report if k not in schema["properties"]]
    if errors:
        return errors
    props = schema["properties"]
    if report["schema_version"] not in props["schema_version"]["enum"]:
        errors.append("unsupported schema_version")
    if report["kind"] not in props["kind"]["enum"]:
        errors.append(f"unknown kind {report['kind']!r}")
        return errors
    for key in ("config", "data"):
        if not isinstance(report[key], dict):
            errors.append(f"{key} is not an object")
    if not errors:
        errors += [f"data misses {k!r}" for k in schema["x-kind-data-required"].get(report["kind"], ())
                   if k not in report["data"]]
    return errors


# ---------------------------------------------------------------------------
# Witness re-checks, in exact integers and independent of the program
# ---------------------------------------------------------------------------

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
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


def _numerator(value: str) -> int:
    if value == "inf":
        return 1
    return abs(Fraction(value).numerator)


def _check_galois(report):
    errors = []
    a = int(report["config"]["a"])
    v, values = 0, []
    for level in report["data"]["levels"]:
        v = v * v + a
        values.append(v)
        n = level["n"]
        if level["critical_value"] != str(v):
            errors.append(f"level {n}: critical value is not f^{n + 1}(0)")
            continue
        if level["certificate"] is None:
            continue
        p = int(level["certificate"])
        if p % 2 == 0 or not is_prime(p):
            errors.append(f"level {n}: certificate {p} is not an odd prime")
        elif v % p or (v // p) % p == 0:
            errors.append(f"level {n}: certificate {p} does not divide f^{n + 1}(0) exactly once")
        elif any(e % p == 0 for e in values[:-1]):
            errors.append(f"level {n}: certificate {p} divides an earlier critical value")
    return errors


def _check_zsigmondy(report):
    data = report["data"]
    if data["field"] != "Q":
        return []
    errors = []
    rows = data["records"]
    for row in rows:
        witness = row.get("squarefree_witness")
        if witness is None:
            continue
        n, p = row["n"], int(witness)
        numerators = [_numerator(r["value"]) for r in rows[:n]]
        if not is_prime(p):
            errors.append(f"level {n}: witness {p} is not prime")
        elif numerators[-1] % p or (numerators[-1] // p) % p == 0:
            errors.append(f"level {n}: witness {p} does not divide the numerator exactly once")
        elif any(m % p == 0 for m in numerators[:-1]):
            errors.append(f"level {n}: witness {p} divides an earlier numerator")
    return errors


def _check_map_analyze(report):
    data = report["data"]
    resultant = int(data["resultant"])
    return [f"bad prime {p} does not divide the resultant"
            for p in data["bad_reduction"]["primes"] if resultant % int(p)]


def _degree(coeffs) -> int:
    return max((k for k, c in enumerate(coeffs) if c), default=-1)


def _image(P, Q, x):
    """f(x) for f = P/Q (coefficient lists of one length d + 1, lowest
    degree first); None stands for the point at infinity."""
    if x is None:
        return None if Q[-1] == 0 else Fraction(P[-1], Q[-1])
    p = sum(c * x**k for k, c in enumerate(P))
    q = sum(c * x**k for k, c in enumerate(Q))
    return None if q == 0 else Fraction(p) / q


def _local_degree(P, Q, x) -> int:
    """Multiplicity of x (None: infinity) as a preimage of f(x)."""
    w = _image(P, Q, x)
    h = list(Q) if w is None else [p - w * q for p, q in zip(P, Q)]
    if x is None:
        return len(P) - 1 - _degree(h)
    mult = 0
    desc = h[::-1]
    while True:  # divide by (X - x) while the remainder is 0
        quotient = [desc[0]]
        for c in desc[1:]:
            quotient.append(c + quotient[-1] * x)
        if quotient[-1] != 0:
            return mult
        desc = quotient[:-1]
        mult += 1


def infinity_multiplicity(numer, denom, level: int) -> int:
    """Multiplicity of infinity as a preimage of 0 under the level-th iterate
    of numer/denom: the product of the local degrees along the orbit of
    infinity when that orbit reaches 0 at this level, else 0."""
    d = max(_degree(numer), _degree(denom))
    P = list(numer[: d + 1]) + [0] * (d + 1 - len(numer[: d + 1]))
    Q = list(denom[: d + 1]) + [0] * (d + 1 - len(denom[: d + 1]))
    x, local = None, 1
    for _ in range(level):
        local *= _local_degree(P, Q, x)
        x = _image(P, Q, x)
    return local if x == 0 else 0


def ramification_errors(numer, denom, profiles):
    """Re-check ramification profiles of the map numer/denom (integer
    coefficients, lowest degree first).  `profiles` holds (n, finite sum)
    pairs, the finite sum being the program's sum of multiplicity times root
    count over the finite level-n preimages of 0.  With the multiplicity of
    infinity computed here, independently of the program's iterates, the
    multiplicities must sum to d^n."""
    d = max(_degree(numer), _degree(denom))
    return [f"level {n}: multiplicities sum to {finite} + {infinity_multiplicity(numer, denom, n)}, "
            f"not {d}^{n}"
            for n, finite in profiles if finite + infinity_multiplicity(numer, denom, n) != d**n]


_WITNESS = {
    "galois-tower": _check_galois,
    "zsigmondy": _check_zsigmondy,
    "map-analyze": _check_map_analyze,
}


def witness_errors(report):
    check = _WITNESS.get(report["kind"])
    return check(report) if check else []
