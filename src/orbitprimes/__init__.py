"""Exact arithmetic for orbits of rational maps on P^1 over Q and Q(t):
primitive prime divisors, canonical heights, abc-triple experiments, the
Mason inequality, and square-free certificates for iterated quadratic towers.

The names below resolve on first use (PEP 562), so `import orbitprimes`
imports no submodule and a command loads only the modules it runs.
"""

__version__ = "0.1.0"

# the module that defines each public name
_MODULE_OF = {name: module for module, names in {
    "abclab": "AbcTriple RothScanReport abc_quality roth_scan_ff roth_scan_q",
    "errors": "CacheError ExprSyntaxError InvariantError MapConstructionError ResourceCapError",
    "ffplaces": "FFElement MasonReport ff_height mason_check",
    "galois": "DiscRecursionCheck GaloisTowerRecord disc_recursion_check discriminant "
              "quadratic_iterate stoll_certificate tower_report",
    "heights": "CanonicalHeightEstimate HeightValue PointClassification canonical_height "
               "classify_point multi_height phi_height_bound weil_height",
    "intplaces": "FactoredValue LogMass factor is_probable_prime radical_logmass",
    "maps": "INFINITY BadReduction RamificationProfile RamificationVerdict RationalMap "
            "RationalMapFF",
    "zsigmondy": "OrbitRecord PropOldReport Termination ZeroOrbit ZsigmondyReport orbit "
                 "primitive_part prop_old_diagnostic squarefree_primitive_prime "
                 "zsigmondy_report",
}.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
