"""Run one orbitprimes command line with its layers traced.

    python3 perfbench/launch.py SPANS_FILE JOB_ID ARG...

runs `orbitprimes.cli.main([ARG...])` after wrapping, from outside the
program, the public functions of every orbitprimes module and the public
methods of its main classes.  Each wrapper records a span (name, start, end,
parent span) in memory; when the job ends the spans are written to
SPANS_FILE (a JSON header line, then the raw arrays) for the benchmark to
turn into per-layer call counts and self times.  Each function is wrapped
wherever it is looked up: in its own module and in every module that
imported it by name.  The report on stdout is left untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

MODULES = ("abclab", "cache", "cli", "exprparse", "ffplaces", "galois", "heights",
           "intplaces", "maps", "polys", "reports", "zsigmondy")

CLASSES = {
    "maps": ("RationalMap", "RationalMapFF"),
    "ffplaces": ("FFElement",),
    "cache": ("OrbitCache",),
}

# Constant-time accessors and the renderers called inside report builders:
# their cost stays with the caller, where it belongs.
UNWRAPPED = {
    "polys.strip", "polys.degree", "polys.is_zero", "polys.leading", "polys.constant",
    "maps.as_point", "maps.point_to_pair",
    "reports.big", "reports.rational_str", "reports.value_str", "reports.poly_str",
    "reports.factored_dict", "reports.envelope", "reports.validate_report",
    "reports.load_schema",
    "cli.main",  # wrapped by main() as the root span of the job
}

UNWRAPPED_METHODS = {"__eq__", "__hash__", "__bool__", "__repr__"}


class Recorder:
    """Spans kept in flat arrays: name id, parent span index, start, end."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.observed = {}

    def wrap(self, name, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self.observed, args, result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def write(self, path, header):
        header = dict(header, names=self.names, count=len(self.name_of), observed=self.observed)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


# -- observations made on a wrapped call's arguments and result ---------------

def _raise_max(observed, key, value):
    if value > observed.get(key, 0):
        observed[key] = value


def _evaluate(observed, args, result):
    num = getattr(result, "numerator", None)
    if isinstance(num, int):
        _raise_max(observed, "maps.evaluate.out_bits_max",
                   max(abs(num).bit_length(), result.denominator.bit_length()))


def _iterate(observed, args, result):
    _raise_max(observed, "maps.iterate.degree_max", len(result.p_coeffs) - 1)


def _ramification(observed, args, result):
    """Keeps the map and each level's finite multiplicity sum; the benchmark
    re-checks them against d^n itself (answers.ramification_errors)."""
    rmap, level = args[0], args[1]
    observed.setdefault("ramification.map", [list(rmap.numer_coeffs), list(rmap.denom_coeffs)])
    finite = sum(m * c for m, c in result.finite_multiplicities)
    observed.setdefault("ramification.profiles", []).append([level, finite])


def _factor(observed, args, result):
    _raise_max(observed, "intplaces.factor.in_bits_max", abs(args[0]).bit_length())
    if result.is_complete:
        observed["intplaces.factor.complete"] = observed.get("intplaces.factor.complete", 0) + 1


def _cache_load(observed, args, result):
    observed["cache.entries_reused"] = observed.get("cache.entries_reused", 0) + len(result)


OBSERVERS = {
    "maps.RationalMap.evaluate": _evaluate,
    "maps.RationalMap.iterate": _iterate,
    "maps.RationalMap.ramification_profile": _ramification,
    "intplaces.factor": _factor,
    "cache.OrbitCache.load": _cache_load,
}


def install(recorder):
    """Wrap every public function and method of the orbitprimes modules."""
    import orbitprimes

    modules = {name: getattr(__import__(f"orbitprimes.{name}"), name) for name in MODULES}
    namespaces = [orbitprimes.__dict__] + [m.__dict__ for m in modules.values()]
    wrapped = {}
    for mod_name, module in modules.items():
        for attr, fn in list(vars(module).items()):
            name = f"{mod_name}.{attr}"
            if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn)):
                continue
            wrapped[id(fn)] = recorder.wrap(name, fn, OBSERVERS.get(name))
        for cls_name in CLASSES.get(mod_name, ()):
            cls = getattr(module, cls_name)
            for attr, raw in list(vars(cls).items()):
                if attr in UNWRAPPED_METHODS or (attr.startswith("_") and not attr.startswith("__")):
                    continue
                name = f"{mod_name}.{cls_name}.{attr}"
                if isinstance(raw, (staticmethod, classmethod)):
                    setattr(cls, attr, type(raw)(recorder.wrap(name, raw.__func__)))
                elif inspect.isfunction(raw):
                    setattr(cls, attr, recorder.wrap(name, raw, OBSERVERS.get(name)))
    # Rebind every name that refers to a wrapped function, in every module.
    for namespace in namespaces:
        for attr, value in list(namespace.items()):
            if inspect.isfunction(value) and id(value) in wrapped:
                namespace[attr] = wrapped[id(value)]


def main(argv) -> int:
    spans_path, job_id, cli_args = argv[0], argv[1], argv[2:]
    import orbitprimes.cli as cli

    recorder = Recorder()
    t0 = time.perf_counter()
    install(recorder)
    install_s = time.perf_counter() - t0
    main_fn = recorder.wrap("cli.main", cli.main)
    try:
        return main_fn(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(spans_path, {"job": job_id, "install_s": install_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
