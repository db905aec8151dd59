#!/usr/bin/env python3
"""The benchmark's own test: every workload in its smoke size.

Run from the repository root:

    python3 perfbench/smoke_test.py

For each workload it runs `perfbench/run.py --smoke` twice untraced and once
traced, and checks that the result line has exactly the contract's keys,
that every metric BENCHMARK.json declares is present with its unit (the
end-to-end set untraced, the per-layer set traced), that no verdict failed
(`failed` = 0, `correct_share` = 1) and that the fingerprint is identical
across the runs. Exit code 0 when everything holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--smoke"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().split("\n")
    fp = [l for l in lines if l.startswith("fingerprint ")]
    return r.returncode, json.loads(lines[-1]), fp


def check(workload, bench, problems):
    def expect(cond, what):
        if not cond:
            problems.append(f"{workload}: {what}")

    before = len(problems)
    fingerprints = []
    for trace in (0, 0, 1):
        rc, res, fp = run(workload, trace)
        declared = bench["per_layer" if trace else "end_to_end"]
        expect(rc == 0, f"trace {trace}: exit code {rc}")
        expect(set(res) == {"correct", "attempted", "failed", "metrics"},
               f"result keys {sorted(res)}")
        expect(res["correct"] is True and res["failed"] == 0,
               f"trace {trace}: {res['failed']} of {res['attempted']} failed")
        expect(res["attempted"] >= 1, "nothing attempted")
        for m in declared:
            got = res["metrics"].get(m["name"])
            expect(got is not None, f"trace {trace}: metric {m['name']} missing")
            if got is not None:
                expect(got["unit"] == m["unit"],
                       f"{m['name']} unit {got['unit']} != {m['unit']}")
        names = {m["name"] for m in declared}
        extra = set(res["metrics"]) - names
        expect(not extra, f"trace {trace}: undeclared metrics {sorted(extra)}")
        if not trace:
            expect(res["metrics"]["correct_share"]["value"] == 1,
                   "correct_share != 1")
        fingerprints.append(tuple(fp))
    expect(len(set(fingerprints)) == 1 and fingerprints[0],
           f"fingerprints differ across runs: {fingerprints}")
    print(f"{workload}: {'ok' if len(problems) == before else 'FAILED'} "
          f"{fingerprints[0]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for w in bench["workloads"]:
        check(w["name"], bench, problems)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
