"""Report envelopes: JSON serialization, schema validation, table/CSV output.

Every report is {"schema_version", "kind", "config", "data"} and validates
against the shipped schema file.  Unbounded integers are serialized as
decimal strings so nothing is ever rounded; rationals render as "p/q" with a
positive denominator (plain "p" when the denominator is 1).
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction
from importlib import resources

from . import polys
from .errors import InvariantError
from .intplaces import _DECIMAL_PIECE_BITS, EXACT, exact_decimal, point_str, to_decimal

SCHEMA_VERSION = 1


def load_schema() -> dict:
    with resources.files("orbitprimes").joinpath("schema/report.schema.json").open() as fh:
        return json.load(fh)


_SCHEMA_CACHE = None


def _schema():
    global _SCHEMA_CACHE
    if _SCHEMA_CACHE is None:
        _SCHEMA_CACHE = load_schema()
    return _SCHEMA_CACHE


def validate_report(report: dict):
    """Check a report against the shipped schema (envelope plus the per-kind
    required data keys).  Raises InvariantError on any violation."""
    schema = _schema()
    if not isinstance(report, dict):
        raise InvariantError("report must be an object")
    for key in schema["required"]:
        if key not in report:
            raise InvariantError(f"report missing required key {key!r}")
    extra = set(report) - set(schema["properties"])
    if extra:
        raise InvariantError(f"report has unknown keys {sorted(extra)}")
    if report["schema_version"] not in schema["properties"]["schema_version"]["enum"]:
        raise InvariantError("unsupported schema_version")
    kind = report["kind"]
    if kind not in schema["properties"]["kind"]["enum"]:
        raise InvariantError(f"unknown report kind {kind!r}")
    if not isinstance(report["config"], dict) or not isinstance(report["data"], dict):
        raise InvariantError("config and data must be objects")
    for key in schema["x-kind-data-required"].get(kind, ()):
        if key not in report["data"]:
            raise InvariantError(f"{kind} report data missing {key!r}")
    return report


# ---------------------------------------------------------------------------
# Value rendering
# ---------------------------------------------------------------------------

def big(n: int) -> str:
    return to_decimal(int(n))


def value_str(v) -> str:
    """A point (intplaces.point_str) or a polynomial in t given as a tuple."""
    if isinstance(v, tuple):
        return polys.to_string(list(v), var="t")
    return point_str(v)


def _part_str(v) -> str:
    """A primitive part or square-free witness: an integer, or a primitive
    polynomial in t, rendered monic."""
    if isinstance(v, tuple):
        return polys.to_string(v if v[-1] == 1 else polys.monic(v), var="t")
    return point_str(v)


def poly_str(coeffs, var="x") -> str:
    return polys.to_string([Fraction(c) for c in coeffs], var=var)


def _orbit_strings(rmap, records):
    """(value, primitive part) strings of each orbit record, the part None
    where the record has none.

    Over Q one exact decimal walk renders every value above one piece (2000
    bits) from the level before it: the map's integral forms at that level's
    coprime (a : b), evaluated on its Decimals, give (P, Q) = g * (A_n, B_n)
    up to sign, where g = gcd(p(a, b), q(a, b)) divides the resultant R
    (heights.phi_height_bound) and so is read mod R on ints.  A big part is
    |A_n| divided by the small quotient |A_n| // part.  Only the first level
    and a level after infinity convert a big value from scratch, and every
    big string must end in the last 18 digits of its integer."""
    from .maps import INFINITY, RationalMap

    if not isinstance(rmap, RationalMap):
        return [(value_str(rec.value),
                 None if rec.primitive_part is None else _part_str(rec.primitive_part))
                for rec in records]
    strings = []
    last = None  # (a, b, Decimals of |a| and b or None) of a finite previous level
    with decimal.localcontext(EXACT):
        for rec in records:
            if rec.value is INFINITY:
                strings.append(("inf", None))
                last = None
                continue
            a, b = rec.value.numerator, rec.value.denominator
            whole, part = abs(a), rec.primitive_part
            if max(whole.bit_length(), b.bit_length()) <= _DECIMAL_PIECE_BITS:
                decimals = None
                text = point_str(rec.value)
                part_text = None if part is None else to_decimal(part)
            else:
                if last is None:
                    decimals = exact_decimal(whole), exact_decimal(b)
                else:
                    decimals = _step(rmap, *last)
                digits = _checked(decimals[0], whole)
                text = ("-" if a < 0 else "") + digits
                if b != 1:
                    text += "/" + _checked(decimals[1], b)
                part_text = None if part is None else _part_string(part, whole, decimals[0], digits)
            strings.append((text, part_text))
            last = a, b, decimals
    return strings


def _step(rmap, a: int, b: int, decimals):
    """Decimals of |A| and B, where A / B = phi(a / b) in lowest terms, from
    the forms evaluated on the Decimals of |a| and b (None for a value of
    one piece)."""
    if decimals is None:
        decimals = decimal.Decimal(abs(a)), decimal.Decimal(b)
    da, db = decimals
    pv, qv = rmap._eval_forms(da.copy_negate() if a < 0 else da, db)
    g = _form_content(rmap, a, b)
    return _exact_quotient(pv.copy_abs(), g), _exact_quotient(qv.copy_abs(), g)


def _form_content(rmap, a: int, b: int) -> int:
    """maps._form_content, imported on the first call: a command that
    renders no orbit over Q loads no orbit code."""
    from .maps import _form_content as content

    return content(rmap, a, b)


def _part_string(part: int, whole: int, whole_decimal, whole_digits: str) -> str:
    """The digits of a primitive part of `whole`: its digits when they are
    equal, else its Decimal divided by a quotient of at most one piece."""
    if part == whole:
        return whole_digits
    if part.bit_length() > _DECIMAL_PIECE_BITS:
        cofactor = whole // part
        if cofactor.bit_length() <= _DECIMAL_PIECE_BITS:
            return _checked(_exact_quotient(whole_decimal, cofactor), part)
    return to_decimal(part)


def _exact_quotient(value, divisor: int):
    if divisor == 1:
        return value
    quotient, remainder = divmod(value, divisor)
    if remainder:
        raise InvariantError(f"decimal walk: {divisor} does not divide a rendered value")
    return quotient


_TAIL = 10**18


def _checked(value, n: int) -> str:
    """The digits of the Decimal `value`, once their last 18 agree with
    those of the integer n >= 0 that it renders."""
    text = str(value)
    tail = str(n % _TAIL)
    if text[-18:] != (tail.zfill(18) if n >= _TAIL else tail):
        raise InvariantError(f"decimal walk: a {n.bit_length()}-bit value rendered wrong")
    return text


def envelope(kind: str, config: dict, data: dict) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": config,
        "data": data,
    }
    return validate_report(report)


def to_json(report: dict) -> str:
    """RFC 8259 JSON: a non-finite float raises ValueError."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_orbit(rmap, alpha_str, field, records, termination, config) -> dict:
    strings = _orbit_strings(rmap, records)
    data = {
        "map": rmap.to_string(),
        "alpha": alpha_str,
        "field": field,
        "values": [{"n": rec.n, "value": text} for rec, (text, _) in zip(records, strings)],
        "termination": _termination_dict(termination),
    }
    return envelope("orbit", config, data)


def _termination_dict(term):
    out = {"kind": term.kind}
    if term.zero_index is not None:
        out["zero_index"] = term.zero_index
    if term.tail is not None:
        out["tail"] = term.tail
        out["period"] = term.period
    return out


def _ramification_dict(verdict):
    return {
        "kind": verdict.kind,
        "witness": verdict.witness,
        "cumulative_simple_roots": verdict.cumulative_simple_roots,
        "depth": verdict.depth,
        "threshold": verdict.threshold,
    }


def build_zsigmondy(rmap, report, config) -> dict:
    records = []
    for rec, (text, part_text) in zip(report.records, _orbit_strings(rmap, report.records)):
        row = {
            "n": rec.n,
            "value": text,
            "has_primitive": rec.has_primitive,
            "has_squarefree_primitive": rec.has_squarefree_primitive,
            "unresolved": rec.squarefree_unresolved,
        }
        if part_text is not None:
            row["primitive_part"] = part_text
        if rec.squarefree_witness is not None:
            row["squarefree_witness"] = _part_str(rec.squarefree_witness)
        records.append(row)
    notes = report.notes
    notes_dict = None
    if notes is not None:
        notes_dict = {
            "power_map": notes.power_map,
            "zero_in_orbit": notes.zero_in_orbit,
        }
        if notes.classification is not None:
            notes_dict["classification"] = {
                "kind": notes.classification.kind,
                "tail": notes.classification.tail,
                "period": notes.classification.period,
            }
        if notes.ramification is not None:
            notes_dict["ramification"] = _ramification_dict(notes.ramification)
    data = {
        "map": report.map_str,
        "alpha": report.alpha_str,
        "field": report.field,
        "depth": report.depth,
        "squarefree_depth": report.squarefree_depth,
        "records": records,
        "zsigmondy_set": list(report.zsigmondy_set),
        "squarefree_zsigmondy_set": list(report.squarefree_zsigmondy_set),
        "squarefree_unresolved": list(report.squarefree_unresolved),
        "termination": _termination_dict(report.termination),
        "notes": notes_dict,
    }
    return envelope("zsigmondy", config, data)


def build_height(point_text, hv, config) -> dict:
    data = {
        "point": point_text,
        "field": hv.field,
        "value": hv.value,
    }
    if hv.log_arg is not None:
        data["log_arg"] = point_str(hv.log_arg)
    return envelope("height", config, data)


def build_canonical(map_str, alpha_str, est, config) -> dict:
    data = {
        "map": map_str,
        "alpha": alpha_str,
        "estimate": est.estimate,
        "error_radius": est.error_radius,
        "iterations_used": est.iterations_used,
        "c_phi": est.c_phi,
        "capped": est.capped,
        "preperiodic": est.preperiodic,
    }
    return envelope("canonical-height", config, data)


def build_classify(map_str, alpha_str, cls, est, config) -> dict:
    data = {
        "map": map_str,
        "alpha": alpha_str,
        "kind": cls.kind,
        "tail": cls.tail,
        "period": cls.period,
        "note": cls.note,
    }
    if est is not None:
        data["height_estimate"] = est.estimate
        data["height_error_radius"] = est.error_radius
    return envelope("classify", config, data)


def build_map_analyze(rmap, bad, verdict, config) -> dict:
    data = {
        "map": rmap.to_string(),
        "degree": rmap.degree,
        "resultant": big(rmap.resultant),
        "bad_reduction": {
            "primes": [big(p) for p in sorted(bad.primes)],
            "unresolved_cofactor": None
            if bad.unresolved_cofactor is None
            else big(bad.unresolved_cofactor),
        },
        "power_map": rmap.is_power_map(),
        "ramification": _ramification_dict(verdict),
    }
    return envelope("map-analyze", config, data)


def build_prop_old(report, config) -> dict:
    rows = []
    for row in report.rows:
        rows.append(
            {
                "n": row.n,
                "mass": row.mass.value,
                "mass_exact": row.mass.exact,
                "mass_radical": big(row.mass.radical),
                "height": row.height,
                "delta_height": row.delta_height,
                "margin": row.margin,
                "ratio": row.ratio,
                "note": row.note,
            }
        )
    data = {
        "map": report.map_str,
        "alpha": report.alpha_str,
        "factor_poly": poly_str(report.factor_poly),
        "level": report.level,
        "delta": report.delta,
        "rows": rows,
        "empirical_constant": report.empirical_constant,
        "hypothesis_ok": report.hypothesis_ok,
        "hypothesis_notes": list(report.hypothesis_notes),
        "screen_is_heuristic": report.screen_is_heuristic,
    }
    return envelope("prop-old", config, data)


def build_abc(triple, config) -> dict:
    data = {
        "a": point_str(triple.a),
        "b": point_str(triple.b),
        "c": point_str(triple.c),
        "height": triple.height.value,
        "height_arg": point_str(triple.height.log_arg),
        "rad_mass": triple.rad_mass.value,
        "rad_exact": triple.rad_mass.exact,
        "radical": big(triple.rad_mass.radical),
        "quality": triple.quality,
        "quality_is_upper_bound": triple.quality_is_upper_bound,
    }
    return envelope("abc", config, data)


def build_roth(report, config, include_samples: bool = False) -> dict:
    data = {
        "field": report.field,
        "poly": report.poly_str,
        "epsilon": report.epsilon,
        "sample_description": report.sample_description,
        "sample_count": report.sample_count,
        "skipped_count": len(report.skipped),
        "skipped": [value_str(z) for z in report.skipped],
        "min_margin": report.min_margin,
        "argmin": None if report.argmin is None else value_str(report.argmin),
        "empirical_constant": report.empirical_constant,
        "inexact_count": report.inexact_count,
    }
    if include_samples:
        data["samples"] = [
            {
                "z": value_str(s.z),
                "radsum": s.radsum,
                "height": s.height,
                "margin": s.margin,
                "exact": s.exact,
            }
            for s in report.samples
        ]
    return envelope("roth-scan", config, data)


def build_mason(report, config) -> dict:
    data = {
        "a": poly_str(report.a, var="t"),
        "b": poly_str(report.b, var="t"),
        "c": poly_str(report.c, var="t"),
        "max_degree": report.max_degree,
        "radical_degree": report.radical_degree,
        "holds": report.holds,
        "tight": report.tight,
    }
    return envelope("mason", config, data)


def build_galois(records, config) -> dict:
    levels = []
    for rec in records:
        levels.append(
            {
                "n": rec.n,
                "critical_value": big(rec.critical_value),
                "certificate": None if rec.certificate is None else big(rec.certificate),
                "status": rec.status,
                "stoll_guarantee": rec.stoll_guarantee,
                "established": rec.established,
            }
        )
    data = {"a": records[0].a if records else None, "levels": levels}
    return envelope("galois-tower", config, data)


# ---------------------------------------------------------------------------
# Plain-text rendering
# ---------------------------------------------------------------------------

def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}{k}." if prefix else f"{k}.", obj[k], rows)
    elif isinstance(obj, list):
        for idx, item in enumerate(obj):
            _flatten(f"{prefix}{idx}.", item, rows)
    else:
        rows.append((prefix[:-1], obj))


def to_table(report: dict) -> str:
    rows = []
    _flatten("", report, rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def to_csv(report: dict) -> str:
    """CSV of the most tabular part of the report; falls back to key,value."""
    data = report.get("data", {})
    for key in ("samples", "rows", "records", "levels", "values"):
        table = data.get(key)
        if isinstance(table, list) and table and isinstance(table[0], dict):
            cols = sorted({c for row in table for c in row})
            out = [",".join(cols)]
            for row in table:
                out.append(",".join(_csv_cell(row.get(c)) for c in cols))
            return "\n".join(out)
    rows = []
    _flatten("", report, rows)
    return "\n".join(f"{k},{_csv_cell(v)}" for k, v in rows)


def _csv_cell(v):
    if v is None:
        return ""
    s = str(v)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s
