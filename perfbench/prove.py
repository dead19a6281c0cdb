#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, the figures the benchmark's bounds are set from.

    python3 perfbench/prove.py [--workloads A,B] [--seeds 1-10] [--seconds S] [--trace 0|1]
                               [--details] [--out FILE]

Run from the root of a checkout.  The spread of a metric is the distance
between the first and third quartiles of its per-seed values, as a share of
their median (statistics.quantiles(values, n=4)).  --out writes the per-seed
results and the summary, with the git commit, Python version and CPU count,
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", action="store_true",
                        help="also print every run's detail lines (all metrics, with units and sample counts)")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs, summary, ok = {}, {}, True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            if args.details:
                print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs[workload].append(dict(result, seed=seed))
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6])
            print(f"{workload} seed={seed} correct={result['correct']} {shown}", flush=True)
        summary[workload] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs[workload]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            bound = m.get("bound")
            flag = "" if bound is None else f"  bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE'})"
            print(f"  {m['name']:40s} median {median:12.6g} spread {spread:7.4f}{flag}")
    if args.out:
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        except OSError:
            sha = ""
        Path(args.out).write_text(json.dumps({
            "git_sha": sha or None, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seconds": args.seconds,
            "seeds": args.seeds, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
