#!/usr/bin/env python3
"""Self-test of the job generator, the answer checks and the known failures.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that one seed always yields the
same job list, that other seeds yield different lists with the same number
of jobs of each class drawn from the same size-bounded pools, that every
candidate has a reference answer, and that the answer checks skip
unresolved verdicts but catch a changed or false witness and a wrong
ramification profile.  Then it runs the command lines that
workloads.KNOWN_FAILURES keeps out of the pools and fails once one of them
no longer exits 1 with an IndexError: the defect has been fixed or has
changed, and the pool should take them back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import workloads  # noqa: E402


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    refs = json.loads((HERE / "refs.json").read_text())
    for name in workloads.WORKLOADS:
        workloads.pool.cache_clear()
        first = workloads.job_list(name, 1)
        workloads.pool.cache_clear()
        check(workloads.job_list(name, 1) == first, f"{name}: seed 1 gave two different lists")
        members = {job.argv for jobs in workloads.pool(name).values() for job in jobs}
        for seed in range(2, 50):
            other = workloads.job_list(name, seed)
            check([j.key for j in other] != [j.key for j in first],
                  f"{name}: seeds 1 and {seed} gave the same list")
            check(Counter(j.cls for j in other) == Counter(j.cls for j in first),
                  f"{name}: seeds 1 and {seed} gave other class counts")
            for job in other:
                check(job.argv in members, f"{name}: {job.key} is outside the pool")
        for jobs in workloads.pool(name).values():
            for job in jobs:
                check(job.key in refs, f"{name}: no reference answer for {job.key}")
        print(f"ok  {name}: {len(first)} jobs per pass, {len(members)} candidates")

    report = {"kind": "galois-tower", "config": {"a": 3}, "data": {"a": 3, "levels": [
        {"n": 0, "critical_value": "3", "certificate": "3", "status": "certified",
         "stoll_guarantee": False, "established": True},
        {"n": 1, "critical_value": "12", "certificate": None, "status": "unresolved",
         "stoll_guarantee": False, "established": False}]}}
    ref = answers.extract(report).reference()
    report["data"]["levels"][1].update(certificate=None, status="no-certificate")
    check(answers.compare(ref, answers.extract(report)) == [], "a resolved level counted as a failure")
    report["data"]["levels"][0]["certificate"] = "5"
    check(answers.compare(ref, answers.extract(report)), "a changed certificate went unnoticed")
    check(answers.witness_errors(report), "certificate 5 of 3 passed the witness re-check")
    # 1/x^2 maps infinity to 0 with local degree 2; its square is x^4.
    check(answers.ramification_errors((1,), (0, 0, 1), [(1, 0), (2, 4), (3, 0)]) == [],
          "a true ramification profile of 1/x^2 was rejected")
    check(answers.ramification_errors((1, 0, 1), (0, 3), [(2, 3)]),
          "multiplicities summing to 3 at level 2 of a quadratic map passed")
    print("ok  answer checks")

    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    for argv in workloads.KNOWN_FAILURES:
        proc = subprocess.run([sys.executable, "-m", "orbitprimes.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        check(proc.returncode == 1 and "IndexError" in proc.stderr,
              f"known failure `{' '.join(argv)}` exited {proc.returncode} without the IndexError: "
              "fixed or changed; return it to the roth-scan-qt pool and rebuild refs.json")
    print(f"ok  {len(workloads.KNOWN_FAILURES)} known failures still fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
