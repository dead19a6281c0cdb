"""Resumable orbit cache: JSON-lines records keyed by a config hash.

Each line carries the orbit value at one level plus (optionally) the
factorization of its primitive part, and an integrity checksum.  Resuming
validates the checksum and the config hash, then reuses the values and
factorizations without recomputation; a corrupted or edited line is rejected
with its line number.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CacheError
from .intplaces import FactoredValue, from_decimal, to_decimal
from .maps import INFINITY

ENV_CACHE_DIR = "ORBITPRIMES_CACHE_DIR"


def config_hash(field: str, map_str: str, alpha_str: str) -> str:
    payload = f"{field}|{map_str}|{alpha_str}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class CacheEntry:
    map_hash: str
    n: int
    numer: int
    denom: int
    factored: Optional[FactoredValue] = None

    @property
    def value(self):
        if self.denom == 0:
            return INFINITY
        return Fraction(self.numer, self.denom)


def _entry_payload(entry: CacheEntry) -> dict:
    payload = {
        "map_hash": entry.map_hash,
        "n": entry.n,
        "numer": to_decimal(entry.numer),
        "denom": to_decimal(entry.denom),
        "factor_data": None,
    }
    if entry.factored is not None:
        fac = entry.factored
        payload["factor_data"] = {
            "sign": fac.sign,
            "prime_powers": [[to_decimal(p), e] for p, e in fac.prime_powers],
            "cofactor": None if fac.cofactor is None else to_decimal(fac.cofactor),
            "certified": fac.certified,
        }
    return payload


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _parse_line(line: str, line_number: int) -> CacheEntry:
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
    try:
        factored = None
        if obj.get("factor_data") is not None:
            fd = obj["factor_data"]
            factored = FactoredValue(
                sign=fd["sign"],
                prime_powers=tuple((from_decimal(p), int(e)) for p, e in fd["prime_powers"]),
                cofactor=None if fd["cofactor"] is None else from_decimal(fd["cofactor"]),
                certified=fd["certified"],
            )
        return CacheEntry(
            map_hash=obj["map_hash"],
            n=int(obj["n"]),
            numer=from_decimal(obj["numer"]),
            denom=from_decimal(obj["denom"]),
            factored=factored,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise CacheError(f"line {line_number}: malformed record ({exc})", line_number)


class OrbitCache:
    """Append-only JSON-lines store for one orbit scan."""

    def __init__(self, path: str):
        self.path = path

    def load(self, expected_hash: str) -> list:
        """Read and validate all entries; refuse a config-hash mismatch."""
        if not os.path.exists(self.path):
            return []
        entries = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                entry = _parse_line(line, line_number)
                if entry.map_hash != expected_hash:
                    raise CacheError(
                        f"line {line_number}: cache belongs to a different "
                        f"map/alpha configuration (hash {entry.map_hash} != "
                        f"{expected_hash}); refusing to resume",
                        line_number,
                    )
                entries.append(entry)
        entries.sort(key=lambda e: e.n)
        for idx, entry in enumerate(entries, start=1):
            if entry.n != idx:
                raise CacheError(
                    f"cache levels are not contiguous from 1 (found n={entry.n} "
                    f"at position {idx})"
                )
        return entries

    def append(self, entries) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            for entry in entries:
                payload = _entry_payload(entry)
                payload["check"] = _checksum(payload)
                fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
