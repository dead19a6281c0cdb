#!/usr/bin/env python3
"""Compare two checkouts of orbitprimes on every benchmark pool candidate.

    python3 tools/pool_identity.py PARENT CHANGE [WORKLOAD...]

Runs each candidate command line of each workload pool in
perfbench/workloads.py (all workloads when none is named), then the EXTRA
command lines below, with `python -m orbitprimes.cli` from PARENT/src and
from CHANGE/src.  A cache pair runs twice per side, cold then warm, in a
fresh cache directory of its own.  The two sides of one command line run at
the same time.  Every run whose exit code, stdout, stderr or the files left
in its cache directory (the --cache file of a cache pair, after the cold and
after the warm run) differ is printed with what differs, then
`runs=N differ=M`; the exit code is 1 when M > 0.  A
differing canonical-height or classify line also says whether the two
(estimate, radius) intervals meet, as perfbench/answers.py compares them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import answers  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 600
OUTCOME_FIELDS = ("exit code", "stdout", "stderr", "cache files")

# Orbits no pool candidate has: every orbit over Q in the pools is of x^d + c,
# whose resultant is 1, from an integer alpha.  These have rational alpha and
# resultants 49, 1024, 75, 12 and 9 (so the forms' values share a factor g > 1),
# an orbit through infinity, preperiodic orbits, a hit on 0 and digit-cap stops;
# the canonical heights are of the same maps, at tolerances the exact orbit
# reaches in seconds, plus walks below c_phi / (d - 1) that go on past the N
# a tolerance needs: with c_phi = 0 (N = 0) to a value above the bound or to
# a repeat, and at --tol 10 to a repeat or above.  The classify lines print
# the canonical height of wandering points, or none at --max-steps 0, among
# them alpha = 1001 under x^2+1000, whose height equals the bound and is not
# above it.  Two zsigmondy scans of one level leave their notes to walk on:
# past the scan depth to a value above the bound, and on from a hit on 0 to
# a repeat.  The last lines run commands and formats no pool does: heights of points over Q
# and Q(t) (and infinity over Q(t)), an orbit over Q(t) through a pole of t,
# the bad primes of a resultant, and the csv and table renderers.  The next
# three reach what the pools do not: every pool F is a monic integer cubic and
# no pool line reaches degree 512, so they add a Q(t) square-free scan to
# degree 512 (the Q[t] gcd on large inputs), a Roth scan over Q that skips the
# rational roots of 4x^3 - x, and one of an F with denominators.  Every pool
# Q(t) input is integral and every pool F monic, so four lines give Q(t)
# denominators: in F's coefficients, in a map's coefficients and alpha, in a
# map with a pole at t = 0, and in mason's a and b.  No pool scans from 0,
# where the strip reads the scan's own walk: one line does.  The cache
# pair at the end is a square-free scan whose top levels leave rho several
# leftovers: cold, they are factored as one batch and stored; warm, they are
# read back and skip rho.  No pool cache pair reaches rho.
EXTRA = tuple(workloads.Job("extra", tuple(line.split())) for line in (
    "orbit --map (3x^2+1)/(x^2-2) --alpha 1 --max-n 13",
    "zsigmondy --map (3x^2+1)/(x^2-2) --alpha 1 --max-n 13 --squarefree-max-n 4 --budget 20000",
    "orbit --map 2x^2-3/4 --alpha 3/2 --max-n 12",
    "zsigmondy --map 2x^2-3/4 --alpha 3/2 --max-n 12 --squarefree-max-n 4 --budget 20000",
    "zsigmondy --map (x^3+2x)/(4x^2+3) --alpha 1/2 --max-n 9 --squarefree-max-n 3 --budget 20000",
    "orbit --map (x^2+3)/(2*x) --alpha=-5/3 --max-n 14",
    "zsigmondy --map (x^2+3)/(2*x) --alpha=-5/3 --max-n 14 --squarefree-max-n 3 --budget 20000",
    "orbit --map (2x^2+1)/(x^2-1) --alpha 1 --max-n 15",
    "zsigmondy --map (2x^2+1)/(x^2-1) --alpha 1 --max-n 15 --squarefree-max-n 4 --budget 20000",
    "orbit --map x^2-1 --alpha 0 --max-n 8",
    "zsigmondy --map x^2-3/4 --alpha 1/2 --max-n 6",
    "zsigmondy --map x^2-3x+2 --alpha 3 --max-n 5",
    "orbit --map x^2-6 --alpha 5 --max-n 25",
    "orbit --map 2x^2-3/4 --alpha 3/2 --max-n 30",
    "zsigmondy --map x^2-6 --alpha 5 --max-n 25 --squarefree-max-n 2 --budget 1000",
    "canonical-height --map (3x^2+1)/(x^2-2) --alpha 1 --tol 1e-4",
    "canonical-height --map 2x^2-3/4 --alpha 3/2 --tol 1e-5",
    "canonical-height --map (x^3+2x)/(4x^2+3) --alpha 1/2 --tol 1e-3",
    "canonical-height --map (x^2+3)/(2*x) --alpha=-5/3 --tol 1e-4",
    "canonical-height --map (2x^2+1)/(x^2-1) --alpha 1 --tol 1e-4",
    "canonical-height --map x^2-3/4 --alpha 5/2 --tol 1e-5",
    "canonical-height --map x^2-2 --alpha 1/3 --tol 1e-4",
    "canonical-height --map x^2 --alpha 2",
    "canonical-height --map x^2+1 --alpha 1 --tol 10",
    "canonical-height --map x^2 --alpha 1",
    "canonical-height --map 1/x^2 --alpha 1",
    "canonical-height --map x^2-1 --alpha 0 --tol 10",
    "canonical-height --map x^2+1 --alpha 0 --tol 10",
    "classify --map (3x^2+1)/(x^2-2) --alpha 1",
    "classify --map x^2-2 --alpha 1/3",
    "classify --map (x^2+3)/(2*x) --alpha=-5/3",
    "classify --map x^2+1 --alpha 1 --max-steps 0",
    "classify --map x^2+1000 --alpha 1001 --max-steps 0",
    "classify --map x^2+1000 --alpha 0",
    "zsigmondy --map x^2+1000 --alpha 0 --max-n 1",
    "zsigmondy --map x^2-1 --alpha 1 --max-n 1",
    "height --point 3/4",
    "height --point (t^2+1)/t^3 --field qt",
    "height --point inf --field qt",
    "orbit --map x^2+t --alpha 1/t --field qt --max-n 4",
    "map-analyze --map (3x^2+1)/(x^2-2) --budget 20000",
    "zsigmondy --map (3x^2+1)/(x^2-2) --alpha 1 --max-n 8 --squarefree-max-n 4 --budget 20000 "
    "--format csv",
    "galois-tower --a 3 --max-n 4 --format table",
    "zsigmondy --map x^2+t --alpha 1 --field qt --max-n 10 --squarefree-max-n 10",
    "roth-scan --F 4x^3-x --height-bound 15 --budget 50000",
    "roth-scan --F 2x^3-1/3*x+5/7 --height-bound 12 --budget 50000",
    "roth-scan --F x^3+t/2*x+1/(t+1) --field qt --max-degree 1 --coeff-bound 1",
    "zsigmondy --map (t*x^2+1)/(2*x) --alpha t/3 --field qt --max-n 5 --squarefree-max-n 5",
    "zsigmondy --map x^2+1/t --alpha t --field qt --max-n 5 --squarefree-max-n 5",
    "mason --a (2*t-1)^2/3 --b 1/2",
    "zsigmondy --map x^2+3 --alpha 0 --max-n 10 --squarefree-max-n 6 --budget 20000",
)) + (workloads.Job("cache-pair", tuple(
    "zsigmondy --map x^2+8 --alpha 3 --max-n 9 --squarefree-max-n 9 --budget 43000 "
    "--cache sf-rho.jsonl".split())),)


def run_side(root: Path, job):
    """(exit code, stdout, stderr, cache files) of each run of one
    candidate, cold then warm for a cache pair."""
    with tempfile.TemporaryDirectory(prefix="pool-identity-") as cache_dir:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
                   ORBITPRIMES_CACHE_DIR=cache_dir)
        outcomes = []
        for _ in range(2 if job.cls == "cache-pair" else 1):
            try:
                proc = subprocess.run([sys.executable, "-m", "orbitprimes.cli", *job.argv],
                                      capture_output=True, env=env, cwd=root,
                                      timeout=JOB_TIMEOUT_S)
                outcome = (proc.returncode, proc.stdout, proc.stderr)
            except subprocess.TimeoutExpired:
                outcome = ("timeout", b"", b"")
            outcomes.append(outcome + (_cache_files(cache_dir),))
        return outcomes


def _cache_files(cache_dir: str) -> list:
    """(name, bytes) of each file in a cache directory, by name."""
    return sorted((path.name, path.read_bytes()) for path in Path(cache_dir).iterdir())


def _intervals(left: bytes, right: bytes) -> str:
    """'meet', or what answers.compare finds, for two reports with a height
    interval (canonical-height, or classify of a wandering point)."""
    try:
        reference = answers.extract(json.loads(left)).reference()
        errors = answers.compare(reference, answers.extract(json.loads(right)))
    except (ValueError, KeyError) as exc:
        return f"unreadable ({exc})"
    return "; ".join(errors) or "meet"


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    names = argv[2:] or workloads.WORKLOADS
    jobs = [job for name in names for by_class in workloads.pool(name).values()
            for job in by_class] + list(EXTRA)
    runs = differ = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for job in jobs:
            left, right = pool.map(run_side, (parent, change), (job, job))
            for half, (a, b) in enumerate(zip(left, right)):
                runs += 1
                if a != b:
                    differ += 1
                    tag = f" ({('cold', 'warm')[half]})" if job.cls == "cache-pair" else ""
                    fields = [name for name, x, y in zip(OUTCOME_FIELDS, a, b) if x != y]
                    print(f"differ{tag}: {job.key} [{', '.join(fields)}]", flush=True)
                    if job.argv[0] in ("canonical-height", "classify"):
                        print(f"  intervals {_intervals(a[1], b[1])}", flush=True)
    print(f"runs={runs} differ={differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
