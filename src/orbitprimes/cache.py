"""Resumable factorization store: JSON lines keyed by the number.

Each line holds one factorization (sign, prime powers, unsplit cofactor,
certified flag), the factoring budget it was made under, and an integrity
checksum.  A factorization is looked up by the integer it reconstructs, so it
is checked against that number and nothing else: a store written by a scan of
another map, or another starting point, does no harm.  Factoring is
deterministic, so an entry made under the current budget is exactly what a
fresh run would compute.  A corrupted or edited line, or a line of another
format, is rejected with its line number.
"""

from __future__ import annotations

import hashlib
import json
import os

from .errors import CacheError
from .intplaces import FactoredValue, from_decimal, to_decimal

ENV_CACHE_DIR = "ORBITPRIMES_CACHE_DIR"

_FIELDS = {"budget", "sign", "prime_powers", "cofactor", "certified"}


def _payload(fac: FactoredValue, budget: int) -> dict:
    return {
        "budget": budget,
        "sign": fac.sign,
        "prime_powers": [[to_decimal(p), e] for p, e in fac.prime_powers],
        "cofactor": None if fac.cofactor is None else to_decimal(fac.cofactor),
        "certified": fac.certified,
    }


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _parse_line(line: str, line_number: int):
    """(budget, factorization) of one line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CacheError(f"line {line_number}: invalid JSON ({exc.msg})", line_number)
    if not isinstance(obj, dict) or "check" not in obj:
        raise CacheError(f"line {line_number}: missing checksum", line_number)
    check = obj.pop("check")
    if _checksum(obj) != check:
        raise CacheError(
            f"line {line_number}: checksum mismatch (corrupted or edited record)",
            line_number,
        )
    if set(obj) != _FIELDS:
        raise CacheError(
            f"line {line_number}: not a factorization record "
            "(a cache file of the older orbit-value format?)",
            line_number,
        )
    try:
        fac = FactoredValue(
            sign=obj["sign"],
            prime_powers=tuple((from_decimal(p), int(e)) for p, e in obj["prime_powers"]),
            cofactor=None if obj["cofactor"] is None else from_decimal(obj["cofactor"]),
            certified=obj["certified"],
        )
        return int(obj["budget"]), fac
    except (ValueError, TypeError) as exc:
        raise CacheError(f"line {line_number}: malformed record ({exc})", line_number)


class OrbitCache:
    """Append-only JSON-lines store of the factorizations an orbit scan made."""

    def __init__(self, path: str):
        self.path = path

    def load(self, budget: int) -> dict:
        """{number: factorization} for the entries made under `budget`, after
        validating every line.  An entry whose cofactor a listed prime still
        divides (an under-counted exponent) is left out, to be refactored."""
        if not os.path.exists(self.path):
            return {}
        known = {}
        with open(self.path, "r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                made_under, fac = _parse_line(line, line_number)
                if made_under == budget and all((fac.cofactor or 1) % p for p in fac.primes()):
                    known[fac.reconstruct()] = fac
        return known

    def append(self, factorizations, budget: int) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            for fac in factorizations:
                payload = _payload(fac, budget)
                payload["check"] = _checksum(payload)
                fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
