#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the orbitprimes command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it runs `python -m orbitprimes.cli`
from `src/` of the current directory, one job at a time (a closed loop with
one client), over the workload's job list drawn from the seed
(workloads.py), the same list in every pass.

--trace 0 times whole passes over the job list until S seconds are used and
prints the end-to-end metrics: wall_s, job_s.p50, job_s.p90, setup_s,
peak_rss_mb, unresolved and failed_frac.  --trace 1 alternates an untraced
pass with a pass whose jobs run under launch.py, which wraps every layer of
the program in spans, and prints the per-layer metrics (README.md).  Every
job's answer is checked (answers.py); the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 60  # jobs take about a second; a run must end within 180 s

# Layers each workload is meant to load (README.md); their share of the
# traced self time is reported as loaded_share.
LOADED = {
    "orbit-deep": ("reports", "zsigmondy", "maps", "heights"),
    "factor-tower": ("intplaces", "galois"),
    "ramify": ("maps", "polys"),
    "scan-small": ("polys", "ffplaces", "intplaces", "abclab", "outside"),
}

LAYERS = ("abclab", "cache", "cli", "exprparse", "ffplaces", "galois", "heights",
          "intplaces", "maps", "polys", "reports", "zsigmondy")


class Checkout:
    """The checkout under test and a private scratch directory inside it."""

    def __init__(self, root: Path, tag: str):
        self.root = root
        self.src = root / "src"
        self.schema = json.loads((self.src / "orbitprimes" / "schema" / "report.schema.json").read_text())
        self.work = root / ".perfbench-work" / f"{tag}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items() if k != "ORBITPRIMES_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(self.src)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


class Result:
    def __init__(self, job, wall, rc, rss_kb, stdout, stderr, spans=None):
        self.job, self.wall, self.rc, self.rss_kb = job, wall, rc, rss_kb
        self.stdout, self.stderr, self.spans = stdout, stderr, spans


def run_process(cmd, checkout: Checkout, env):
    """Run one child to completion; returns (wall_s, exit code, max RSS KiB,
    stdout bytes, stderr bytes).  The child is killed after JOB_TIMEOUT_S."""
    out_path, err_path = checkout.work / "stdout", checkout.work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=checkout.root)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes()


def run_pass(jobs, checkout: Checkout, traced: bool, pass_id: int, setup_times=None):
    """One pass over the job list, each job started after the previous exits.

    With `setup_times`, a set-up probe runs before every job, so the probes
    sample the machine over the whole run; their times go to that list and
    not to the pass."""
    cache_dir = checkout.work / f"cache-{pass_id}"
    cache_dir.mkdir()
    env_cache = dict(checkout.env, ORBITPRIMES_CACHE_DIR=str(cache_dir))
    results = []
    probes_s = 0.0
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if setup_times is not None:
            setup_times.append(setup_probe(checkout))
            probes_s += setup_times[-1]
        env = env_cache if job.cache else checkout.env
        spans = None
        if traced:
            spans = checkout.work / f"spans-{pass_id}-{i}"
            cmd = [sys.executable, str(HERE / "launch.py"), str(spans), f"{pass_id}.{i}", *job.argv]
        else:
            cmd = [sys.executable, "-m", "orbitprimes.cli", *job.argv]
        results.append(Result(job, *run_process(cmd, checkout, env), spans=spans))
    wall = time.perf_counter() - t0 - probes_s
    shutil.rmtree(cache_dir, ignore_errors=True)
    return wall, results


def setup_probe(checkout: Checkout) -> float:
    """Interpreter start, `import orbitprimes.cli` and the parser build,
    timed by an invocation that does no arithmetic."""
    cmd = [sys.executable, "-m", "orbitprimes.cli", "--help"]
    wall, rc, _, _, err = run_process(cmd, checkout, checkout.env)
    if rc != 0:
        raise RuntimeError(f"`orbitprimes --help` exited {rc}: {err.decode(errors='replace')[-400:]}")
    return wall


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------

def check_pass(results, refs, schema):
    """Returns (failed job count, unresolved verdict count, error lines)."""
    failed = unresolved = 0
    errors = []
    cold = {}
    for res in results:
        problems = []
        if res.rc != 0:
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {res.rc} {tail}")
        else:
            try:
                report = json.loads(res.stdout)
            except ValueError as exc:
                report = None
                problems.append(f"stdout is not JSON ({exc})")
            if report is not None:
                problems += answers.schema_errors(report, schema)
            if report is not None and not problems:
                found = answers.extract(report)
                unresolved += found.unresolved_count
                ref = refs.get(res.job.key)
                if ref is None:
                    problems.append("no reference answer for this job")
                else:
                    problems += answers.compare(ref, found)
                problems += answers.witness_errors(report)
        if res.job.cache == "cold":
            cold[res.job.key] = res.stdout
        elif res.job.cache == "warm" and cold.get(res.job.key) != res.stdout:
            problems.append("warm cache report differs from the cold one")
        if problems:
            failed += 1
            errors += [f"{res.job.key}: {p}" for p in problems]
    return failed, unresolved, errors


# ---------------------------------------------------------------------------
# Spans to per-layer metrics
# ---------------------------------------------------------------------------

def read_spans(path: Path):
    """Per span name: [calls, self seconds, inclusive seconds]; plus the
    launcher's header.  Self time is a span's duration minus the time its
    child spans cover (children of one span never overlap: one thread)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    n = header["count"]
    arrays = []
    offset = 0
    for code in ("i", "i", "d", "d"):
        arr = array(code)
        size = arr.itemsize * n
        arr.frombytes(blob[offset:offset + size])
        offset += size
        arrays.append(arr)
    name_of, parent, start, end = arrays
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    stats = {}
    names = header["names"]
    for i in range(n):
        entry = stats.setdefault(names[name_of[i]], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur[i] - child[i]
        entry[2] += dur[i]
    return header, stats


FF_OPS = tuple(f"ffplaces.FFElement.{m}" for m in (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__"))

# metric -> (unit, what, span names or observation key)
SPAN_METRICS = {
    "maps.evaluate.calls": ("count", "calls", ("maps.RationalMap.evaluate", "maps.RationalMapFF.evaluate")),
    "maps.evaluate.self_s": ("s", "self", ("maps.RationalMap.evaluate", "maps.RationalMapFF.evaluate")),
    "maps.evaluate.out_bits_max": ("bits", "max", "maps.evaluate.out_bits_max"),
    "maps.iterate.calls": ("count", "calls", ("maps.RationalMap.iterate",)),
    "maps.iterate.self_s": ("s", "self", ("maps.RationalMap.iterate",)),
    "maps.iterate.degree_max": ("count", "max", "maps.iterate.degree_max"),
    "maps.ramification_profile.self_s": ("s", "self", ("maps.RationalMap.ramification_profile",)),
    "maps.bad_reduction_primes.self_s": ("s", "self", ("maps.RationalMap.bad_reduction_primes",)),
    "polys.gcd.calls": ("count", "calls", ("polys.gcd",)),
    "polys.gcd.self_s": ("s", "self", ("polys.gcd",)),
    "polys.divmod_poly.calls": ("count", "calls", ("polys.divmod_poly",)),
    "polys.divmod_poly.self_s": ("s", "self", ("polys.divmod_poly",)),
    "polys.squarefree_decomposition.calls": ("count", "calls", ("polys.squarefree_decomposition",)),
    "polys.squarefree_decomposition.self_s": ("s", "self", ("polys.squarefree_decomposition",)),
    "polys.mul.calls": ("count", "calls", ("polys.mul",)),
    "polys.mul.self_s": ("s", "self", ("polys.mul",)),
    "intplaces.factor.calls": ("count", "calls", ("intplaces.factor",)),
    "intplaces.factor.self_s": ("s", "self", ("intplaces.factor",)),
    "intplaces.factor.in_bits_max": ("bits", "max", "intplaces.factor.in_bits_max"),
    "intplaces.is_probable_prime.calls": ("count", "calls", ("intplaces.is_probable_prime",)),
    "intplaces.is_probable_prime.self_s": ("s", "self", ("intplaces.is_probable_prime",)),
    "zsigmondy.orbit.self_s": ("s", "self", ("zsigmondy.orbit",)),
    "zsigmondy.primitive_part.calls": ("count", "calls", ("zsigmondy.primitive_part",)),
    "zsigmondy.primitive_part.self_s": ("s", "self", ("zsigmondy.primitive_part",)),
    "zsigmondy.squarefree_primitive_prime.calls": ("count", "calls", ("zsigmondy.squarefree_primitive_prime",)),
    "zsigmondy.squarefree_primitive_prime.self_s": ("s", "self", ("zsigmondy.squarefree_primitive_prime",)),
    "zsigmondy.zsigmondy_report.self_s": ("s", "self", ("zsigmondy.zsigmondy_report",)),
    "heights.canonical_height.self_s": ("s", "self", ("heights.canonical_height",)),
    "heights.classify_point.self_s": ("s", "self", ("heights.classify_point",)),
    "heights.phi_height_bound.self_s": ("s", "self", ("heights.phi_height_bound",)),
    "galois.stoll_certificate.calls": ("count", "calls", ("galois.stoll_certificate",)),
    "galois.stoll_certificate.self_s": ("s", "self", ("galois.stoll_certificate",)),
    "ffplaces.FFElement.ops": ("count", "calls", FF_OPS),
    "ffplaces.FFElement.self_s": ("s", "self", "ffplaces.FFElement."),
    "ffplaces.squarefree_part.self_s": ("s", "self", ("ffplaces.squarefree_part",)),
    "ffplaces.mason_check.self_s": ("s", "self", ("ffplaces.mason_check",)),
    "abclab.roth_scan.self_s": ("s", "self", ("abclab.roth_scan_q", "abclab.roth_scan_ff")),
    "abclab.abc_quality.calls": ("count", "calls", ("abclab.abc_quality",)),
    "reports.build.self_s": ("s", "self", "reports.build_"),
    "reports.to_json.self_s": ("s", "self", ("reports.to_json",)),
    "cache.load.self_s": ("s", "self", ("cache.OrbitCache.load",)),
    "cache.append.self_s": ("s", "self", ("cache.OrbitCache.append",)),
    "cache.entries_reused": ("count", "sum", "cache.entries_reused"),
    "exprparse.parse.self_s": ("s", "self", "exprparse."),
    "cli.dispatch.total_s": ("s", "incl", ("cli.dispatch",)),
}


def _pick(stats, names, field):
    if isinstance(names, str):  # a name prefix
        return sum(v[field] for k, v in stats.items() if k.startswith(names))
    return sum(stats[k][field] for k in names if k in stats)


def layer_metrics(results, workload):
    """Per-layer metrics of one traced pass, summed over its jobs, and the
    problems found: jobs that left no spans (killed) and ramification
    profiles whose multiplicities do not sum to d^n."""
    stats, observed = {}, {}
    outside = 0.0
    problems = []
    for res in results:
        if not res.spans.exists():
            problems.append(f"{res.job.key}: traced job left no spans")
            continue
        header, job_stats = read_spans(res.spans)
        ram_map = header["observed"].pop("ramification.map", None)
        profiles = header["observed"].pop("ramification.profiles", [])
        bad_profiles = answers.ramification_errors(*ram_map, profiles) if ram_map else []
        if bad_profiles:
            problems.append(f"{res.job.key}: {'; '.join(bad_profiles)}")
        for name, (calls, self_s, incl) in job_stats.items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += incl
        for key, value in header["observed"].items():
            if key.endswith("_max"):
                observed[key] = max(observed.get(key, 0), value)
            else:
                observed[key] = observed.get(key, 0) + value
        main_s = job_stats.get("cli.main", [0, 0.0, 0.0])[2]
        outside += res.wall - main_s - header["install_s"]
    metrics = {}
    for metric, (unit, what, names) in SPAN_METRICS.items():
        if what in ("max", "sum"):
            value = observed.get(names, 0)
        else:
            value = _pick(stats, names, {"calls": 0, "self": 1, "incl": 2}[what])
        metrics[metric] = (value, unit)
    factor_calls = metrics["intplaces.factor.calls"][0]
    complete = observed.get("intplaces.factor.complete", 0)
    metrics["intplaces.factor.complete_ratio"] = (complete / factor_calls if factor_calls else 1.0, "ratio")
    metrics["reports.out_bytes"] = (sum(len(r.stdout) for r in results), "bytes")
    metrics["cli.outside_s"] = (outside, "s")
    layer_self = {layer: _pick(stats, f"{layer}.", 1) for layer in LAYERS}
    layer_self["outside"] = outside
    total = sum(layer_self.values())
    for layer, value in layer_self.items():
        metrics[f"layers.{layer}.self_s"] = (value, "s")
    loaded = sum(layer_self[layer] for layer in LOADED[workload])
    metrics["loaded_share"] = (loaded / total if total else 0.0, "ratio")
    return metrics, problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def percentile(values, q):
    """q-th percentile (0 < q < 100), linear between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def e2e_run(jobs, checkout, refs, seconds):
    setup_probe(checkout)  # warm-up: byte-compiles the package once
    setup_times, walls, job_walls, rss, unresolved = [], [], [], [], []
    attempted = failed = 0
    errors = []
    t0 = time.perf_counter()
    while True:
        k = len(walls)
        wall, results = run_pass(jobs, checkout, traced=False, pass_id=k, setup_times=setup_times)
        walls.append(wall)
        job_walls += [r.wall for r in results]
        rss.append(max(r.rss_kb for r in results) / 1024)
        bad, open_count, errs = check_pass(results, refs, checkout.schema)
        attempted += len(results)
        failed += bad
        unresolved.append(open_count)
        errors += errs
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(walls) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "job_s.p50": (statistics.median(job_walls), "s"),
        "job_s.p90": (percentile(job_walls, 90), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
        "unresolved": (statistics.median(unresolved), "count"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    samples = {"wall_s": len(walls), "job_s.p50": len(job_walls), "job_s.p90": len(job_walls),
               "setup_s": len(setup_times), "peak_rss_mb": len(rss), "unresolved": len(unresolved),
               "failed_frac": attempted}
    return metrics, samples, attempted, failed, errors


def trace_run(jobs, checkout, refs, seconds, workload):
    plain_walls, traced_walls, per_pass, unresolved = [], [], [], []
    attempted = failed = 0
    errors = []
    t0 = time.perf_counter()
    while True:
        k = len(plain_walls)
        wall, plain = run_pass(jobs, checkout, traced=False, pass_id=2 * k)
        plain_walls.append(wall)
        wall, traced = run_pass(jobs, checkout, traced=True, pass_id=2 * k + 1)
        traced_walls.append(wall)
        for results in (traced, plain):
            bad, open_count, errs = check_pass(results, refs, checkout.schema)
            attempted += len(results)
            failed += bad
            errors += errs
        unresolved.append(open_count)  # of the untraced pass
        metrics, problems = layer_metrics(traced, workload)
        for a, b in zip(plain, traced):
            if a.stdout != b.stdout:
                failed += 1
                errors.append(f"{b.job.key}: traced stdout differs from the untraced run")
        failed += len(problems)
        errors += problems
        for res in traced:
            res.spans.unlink(missing_ok=True)
        per_pass.append(metrics)
        elapsed = time.perf_counter() - t0
        if elapsed + (elapsed / len(plain_walls)) > seconds:
            break
    out = {name: (statistics.median(m[name][0] for m in per_pass), unit)
           for name, (_, unit) in per_pass[0].items()}
    out["trace_overhead_frac"] = (statistics.median(traced_walls) / statistics.median(plain_walls) - 1, "ratio")
    out["verdicts.unresolved"] = (statistics.median(unresolved), "count")
    return out, attempted, failed, errors


def load_refs():
    return json.loads((HERE / "refs.json").read_text())


def declared_metrics(trace: bool):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "orbitprimes" / "cli.py").is_file():
        print(f"perfbench: {root} holds no src/orbitprimes; run from the root of a checkout",
              file=sys.stderr)
        return 2
    jobs = workloads.job_list(args.workload, args.seed)
    refs = load_refs()
    checkout = Checkout(root, args.workload)
    try:
        if args.trace:
            metrics, attempted, failed, errors = trace_run(jobs, checkout, refs, args.seconds, args.workload)
            samples = None
        else:
            metrics, samples, attempted, failed, errors = e2e_run(jobs, checkout, refs, args.seconds)
    finally:
        checkout.close()

    for line in errors[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} jobs/pass={len(jobs)}")
    for name, (value, unit) in metrics.items():
        count = f"  (n={samples[name]})" if samples else ""
        print(f"#   {name:45s} {value:>14.6g} {unit}{count}")
    names = declared_metrics(bool(args.trace))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
