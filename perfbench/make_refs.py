#!/usr/bin/env python3
"""Rebuild refs.json: the reference answers of every pool candidate.

    python3 perfbench/make_refs.py

Run from the root of a checkout whose answers are trusted.  Each candidate
of every pool runs once; a candidate that exits non-zero, breaks the schema
or fails a witness re-check stops the rebuild.  Prints each job's wall time
next to the sizes that admitted it to its pool: the input for tuning the
pool windows in workloads.py.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import answers
import run
import workloads


def reference_of(job, checkout):
    env = dict(checkout.env, ORBITPRIMES_CACHE_DIR=str(checkout.work))
    for stale in checkout.work.glob("*.jsonl"):
        stale.unlink()
    wall, rc, _, out, err = run.run_process([sys.executable, "-m", "orbitprimes.cli", *job.argv], checkout, env)
    if rc != 0:
        raise RuntimeError(f"{job.key}: exit code {rc}: {err.decode(errors='replace')[-300:]}")
    report = json.loads(out)
    problems = answers.schema_errors(report, checkout.schema) + answers.witness_errors(report)
    if problems:
        raise RuntimeError(f"{job.key}: {problems}")
    found = answers.extract(report)
    size = " ".join(f"{k}={v}" for k, v in job.size)
    print(f"{wall:8.3f}s  unresolved={found.unresolved_count:<3d} {job.cls:18s} {job.key}  [{size}]",
          flush=True)
    return job.key, found.reference()


def write_refs(path, refs):
    """One candidate per line, so a rebuild's diff shows which answers moved."""
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key], sort_keys=True, separators=(',', ':'))}"
             for key in sorted(refs)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
                            ).parse_args(argv)
    jobs = [job for name in workloads.WORKLOADS for cls in workloads.pool(name).values() for job in cls]
    checkout = run.Checkout(Path.cwd(), "refs")
    try:
        refs = dict(reference_of(job, checkout) for job in jobs)
    finally:
        checkout.close()
    write_refs(run.HERE / "refs.json", refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
