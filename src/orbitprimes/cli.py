"""Command-line interface.

Subcommands mirror the library: orbit, zsigmondy, height, canonical-height,
classify, map-analyze, prop-old, abc, roth-scan, mason, galois-tower.
Output is a schema-validated JSON report (default), a flat table, or CSV.
Exit codes: 0 success, 1 usage/parse error, 2 resource cap exceeded,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from .errors import ResourceCapError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_point(text: str, field: str):
    """A point of P^1 over Q ("q") or Q(t) ("qt")."""
    from .maps import INFINITY_SPELLINGS, as_point

    if field == "qt" and text.strip() not in INFINITY_SPELLINGS:
        from .ffplaces import FFElement

        return FFElement.parse(text)
    return as_point(text)


def _cache_path(arg_path):
    if arg_path is None:
        return None
    from .cache import ENV_CACHE_DIR

    base = os.environ.get(ENV_CACHE_DIR)
    if base and not os.path.isabs(arg_path):
        return os.path.join(base, arg_path)
    return arg_path


def build_parser(command=None) -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand, or with only
    `command` when that names one: a command line naming it parses the same
    either way, since no usage text is printed with an error."""
    parser = _Parser(prog="orbitprimes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(name, help=help_text) if command in (None, name) else None

    def common(p, with_alpha=True):
        p.add_argument("--map", required=True, help="rational map expression in x")
        if with_alpha:
            p.add_argument("--alpha", required=True, help="starting point (rational or 'inf')")
        p.add_argument("--format", choices=("json", "table", "csv"), default="json")

    def field(p):
        p.add_argument("--field", choices=("q", "qt"), default="q")

    if p := add("orbit", "orbit values with termination reason"):
        common(p)
        field(p)
        # --max-n and --squarefree-max-n default to zsigmondy's depths, read when
        # the command runs so that parsing imports no arithmetic module
        p.add_argument("--max-n", type=int)

    if p := add("zsigmondy", "primitive prime divisor scan"):
        common(p)
        field(p)
        p.add_argument("--max-n", type=int)
        p.add_argument("--squarefree-max-n", type=int)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--cache", help="factorization cache file (JSON lines)")

    if p := add("height", "Weil height of a point"):
        p.add_argument("--point", required=True)
        p.add_argument("--format", choices=("json", "table", "csv"), default="json")
        field(p)

    if p := add("canonical-height", "canonical height with rigorous radius"):
        common(p)
        p.add_argument("--tol", type=float, default=1e-6)

    if p := add("classify", "wandering / preperiodic classification"):
        common(p)
        p.add_argument("--max-steps", type=int)  # heights.MAX_STEPS, read likewise

    if p := add("map-analyze", "bad reduction, power map, ramification verdict"):
        common(p, with_alpha=False)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--depth", type=int, default=3, help="ramification scan depth")
        p.add_argument("--threshold", type=int, default=None)

    if p := add("prop-old", "shared-prime mass diagnostic"):
        common(p)
        p.add_argument("--F", required=True, help="polynomial factor of the level-i numerator")
        p.add_argument("--i", type=int, required=True, help="iterate level of F")
        p.add_argument("--max-n", type=int, default=10)
        p.add_argument("--delta", type=str, default="0.125")
        p.add_argument("--budget", type=int, default=None)

    if p := add("abc", "abc triple quality"):
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--format", choices=("json", "table", "csv"), default="json")

    if p := add("roth-scan", "radical lower-bound scan"):
        p.add_argument("--F", required=True)
        p.add_argument("--epsilon", type=float, default=1.0)
        field(p)
        p.add_argument("--height-bound", type=int, default=100, help="H over Q")
        p.add_argument("--max-degree", type=int, default=2, help="sample degree over Q(t)")
        p.add_argument("--coeff-bound", type=int, default=2, help="sample coefficients over Q(t)")
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--samples", action="store_true", help="include per-sample rows")
        p.add_argument("--format", choices=("json", "table", "csv"), default="json")

    if p := add("mason", "polynomial abc inequality check"):
        p.add_argument("--a", required=True, help="polynomial in t")
        p.add_argument("--b", required=True, help="polynomial in t")
        p.add_argument("--format", choices=("json", "table", "csv"), default="json")

    if p := add("galois-tower", "square-free certificates for x^2 + a"):
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--max-n", type=int, default=4)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--format", choices=("json", "table", "csv"), default="json")

    return parser


# Counts of levels, steps or effort must be >= 0, and these floats positive
# and finite (a JSON report holds no infinity); checked once, before any work.
_COUNTS = ("max_n", "squarefree_max_n", "max_steps", "budget", "threshold")
_FLOATS = ("tol", "epsilon")


def _check_options(args):
    for name in _COUNTS:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise _UsageError(f"--{name.replace('_', '-')} must be >= 0")
    for name in _FLOATS:
        if not 0 < getattr(args, name, 1.0) < math.inf:
            raise _UsageError(f"--{name} must be positive and finite")


def _budget(args):
    from .intplaces import DEFAULT_BUDGET

    budget = getattr(args, "budget", None)
    return DEFAULT_BUDGET if budget is None else budget


def _delta(args) -> float:
    """--delta, an exact rational kept as text in the config, as a float."""
    try:
        return float(Fraction(args.delta))
    except OverflowError:
        raise _UsageError("--delta must be finite") from None


def _build_map(args):
    from .maps import RationalMap, RationalMapFF

    if args.field == "qt":
        return RationalMapFF.parse(args.map)
    return RationalMap.parse(args.map)


def _run_orbit(args):
    from . import reports, zsigmondy
    from .intplaces import point_str

    max_n = zsigmondy.DEFAULT_PRIMITIVE_DEPTH if args.max_n is None else args.max_n
    rmap = _build_map(args)
    alpha = _parse_point(args.alpha, args.field)
    config = {
        "command": "orbit",
        "map": args.map,
        "alpha": args.alpha,
        "field": args.field,
        "max_n": max_n,
    }
    records, termination = zsigmondy.orbit(rmap, alpha, max_n)
    field = "Q" if args.field == "q" else "Q(t)"
    return reports.build_orbit(rmap, point_str(alpha), field, records, termination, config)


def _run_zsigmondy(args):
    from . import reports, zsigmondy

    max_n = zsigmondy.DEFAULT_PRIMITIVE_DEPTH if args.max_n is None else args.max_n
    sf_max_n = (zsigmondy.DEFAULT_SQUAREFREE_DEPTH if args.squarefree_max_n is None
                else args.squarefree_max_n)
    rmap = _build_map(args)
    alpha = _parse_point(args.alpha, args.field)
    budget = _budget(args)
    cache = None
    known = {}
    cache_path = _cache_path(args.cache)
    if cache_path:
        if args.field == "qt":
            raise _UsageError("the factorization cache is supported over Q only")
        from .cache import OrbitCache

        cache = OrbitCache(cache_path)
        known = cache.load(budget)
    config = {
        "command": "zsigmondy",
        "map": args.map,
        "alpha": args.alpha,
        "field": args.field,
        "max_n": max_n,
        "squarefree_max_n": sf_max_n,
    }
    report = zsigmondy.zsigmondy_report(
        rmap,
        alpha,
        depth=max_n,
        budget=budget,
        squarefree_depth=sf_max_n,
        factor_cache=known,
    )
    if cache is not None:
        made = {rec.primitive_part: rec.factored for rec in report.records
                if rec.factored is not None and rec.primitive_part not in known}
        cache.append(made.values(), budget)
    return reports.build_zsigmondy(rmap, report, config)


def _run_height(args):
    from . import reports
    from .heights import weil_height
    from .intplaces import point_str

    config = {"command": "height", "point": args.point, "field": args.field}
    point = _parse_point(args.point, args.field)
    hv = weil_height(point, field="Q" if args.field == "q" else "Q(t)")
    return reports.build_height(point_str(point), hv, config)


def _run_canonical_height(args):
    from . import reports
    from .heights import canonical_height
    from .intplaces import point_str
    from .maps import RationalMap

    rmap = RationalMap.parse(args.map)
    alpha = _parse_point(args.alpha, "q")
    est = canonical_height(rmap, alpha, tol=args.tol)
    config = {
        "command": "canonical-height",
        "map": args.map,
        "alpha": args.alpha,
        "tol": args.tol,
    }
    return reports.build_canonical(rmap.to_string(), point_str(alpha), est, config)


def _run_classify(args):
    from . import heights, reports
    from .intplaces import point_str
    from .maps import OrbitWalk, RationalMap

    max_steps = heights.MAX_STEPS if args.max_steps is None else args.max_steps
    rmap = RationalMap.parse(args.map)
    alpha = _parse_point(args.alpha, "q")
    walk = OrbitWalk(rmap, alpha)  # one walk decides the verdict and starts the height
    cls = heights.classify_point(rmap, walk, max_steps=max_steps)
    est = heights.canonical_height(rmap, walk) if cls.kind == "wandering" else None
    config = {
        "command": "classify",
        "map": args.map,
        "alpha": args.alpha,
        "max_steps": max_steps,
    }
    return reports.build_classify(rmap.to_string(), point_str(alpha), cls, est, config)


def _run_map_analyze(args):
    from . import reports
    from .maps import RationalMap

    rmap = RationalMap.parse(args.map)
    bad = rmap.bad_reduction_primes(budget=_budget(args))
    verdict = rmap.dynamical_ramification_verdict(args.depth, threshold=args.threshold)
    config = {
        "command": "map-analyze",
        "map": args.map,
        "depth": args.depth,
    }
    return reports.build_map_analyze(rmap, bad, verdict, config)


def _run_prop_old(args):
    from . import reports, zsigmondy
    from .exprparse import parse_polynomial
    from .maps import RationalMap

    rmap = RationalMap.parse(args.map)
    alpha = _parse_point(args.alpha, "q")
    F = parse_polynomial(args.F, var="x")
    report = zsigmondy.prop_old_diagnostic(
        rmap, alpha, F, args.i, args.max_n, _delta(args), budget=_budget(args)
    )
    config = {
        "command": "prop-old",
        "map": args.map,
        "alpha": args.alpha,
        "F": args.F,
        "i": args.i,
        "max_n": args.max_n,
        "delta": args.delta,
    }
    return reports.build_prop_old(report, config)


def _run_abc(args):
    from . import abclab, reports
    from .maps import INFINITY

    a = _parse_point(args.a, "q")
    b = _parse_point(args.b, "q")
    if a is INFINITY or b is INFINITY:
        raise _UsageError("abc needs finite --a and --b")
    triple = abclab.abc_quality(a, b, budget=_budget(args))
    config = {"command": "abc", "a": args.a, "b": args.b}
    return reports.build_abc(triple, config)


def _run_roth_scan(args):
    from . import abclab, reports
    from .exprparse import parse_polynomial

    config = {
        "command": "roth-scan",
        "F": args.F,
        "epsilon": args.epsilon,
        "field": args.field,
    }
    if args.field == "q":
        F = parse_polynomial(args.F, var="x")
        report = abclab.roth_scan_q(
            F, args.epsilon, args.height_bound, budget=_budget(args)
        )
        config["height_bound"] = args.height_bound
    else:
        from .ffplaces import FFElement

        F = parse_polynomial(args.F, var="x", second_var="t", second_value=FFElement.gen(),
                             one=FFElement.from_const(1))
        report = abclab.roth_scan_ff(
            F,
            args.epsilon,
            max_degree=args.max_degree,
            coeff_bound=args.coeff_bound,
        )
        config["max_degree"] = args.max_degree
        config["coeff_bound"] = args.coeff_bound
    return reports.build_roth(report, config, include_samples=args.samples)


def _run_mason(args):
    from . import reports
    from .exprparse import parse_polynomial
    from .ffplaces import mason_check

    a = parse_polynomial(args.a, var="t")
    b = parse_polynomial(args.b, var="t")
    report = mason_check(a, b)
    config = {"command": "mason", "a": args.a, "b": args.b}
    return reports.build_mason(report, config)


def _run_galois_tower(args):
    from . import galois, reports

    records = galois.tower_report(args.a, args.max_n, budget=_budget(args))
    config = {"command": "galois-tower", "a": args.a, "max_n": args.max_n}
    return reports.build_galois(records, config)


_RUNNERS = {
    "orbit": _run_orbit,
    "zsigmondy": _run_zsigmondy,
    "height": _run_height,
    "canonical-height": _run_canonical_height,
    "classify": _run_classify,
    "map-analyze": _run_map_analyze,
    "prop-old": _run_prop_old,
    "abc": _run_abc,
    "roth-scan": _run_roth_scan,
    "mason": _run_mason,
    "galois-tower": _run_galois_tower,
}


def dispatch(args) -> dict:
    _check_options(args)
    run = _RUNNERS.get(args.command)
    if run is None:
        raise _UsageError(f"unknown command {args.command!r}")
    return run(args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _RUNNERS else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fmt = getattr(args, "format", "json")
    try:
        report = dispatch(args)
        from . import reports

        if fmt == "json":
            text = reports.to_json(report)
        elif fmt == "table":
            text = reports.to_table(report)
        else:
            text = reports.to_csv(report)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
