#!/usr/bin/env python3
"""Build and run the waveck end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload table1_suite|c6288_delay|serve_mix \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/ (which builds the engine from the enclosing tree) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
`waveck_perfbench` binary and passes its output through: the last line of
stdout is the result JSON. Before that line it notes a fingerprint that
changed since the previous run of the same workload and seed in this build
directory, and a run stamp (machine, SIMD, counters, build) that differs
from the previous one, so such results are flagged instead of compared.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id():
    """Digest of the sources the benchmark builds (the checkout need not be
    a git repository); prefixed by the git commit when there is one."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            if "__pycache__" not in d
            for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    tree = "tree-" + h.hexdigest()[:16]
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return f"git-{sha.stdout.strip()}/{tree}"
    except (OSError, subprocess.SubprocessError):
        pass
    return tree


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no waveck sources at {ROOT}/src; nothing to benchmark")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for step in (cmd, ["cmake", "--build", build_dir, "--target",
                       "waveck_perfbench", "-j", jobs]):
        try:
            r = subprocess.run(step, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"build step timed out: {' '.join(step)}")
            return None
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return None
    exe = os.path.join(build_dir, "waveck_perfbench")
    return exe if os.path.isfile(exe) else None


def compare_with_previous(state_path, key, fingerprint, stamp):
    """Notes for stdout about a changed fingerprint or run stamp."""
    notes = []
    try:
        with open(state_path) as fh:
            state = json.load(fh)
    except (OSError, ValueError):
        state = {}
    prev = state.get(key)
    if prev:
        if prev.get("fingerprint") != fingerprint:
            same_source = prev.get("stamp", {}).get("source") == stamp.get("source")
            notes.append(
                f"fingerprint CHANGED for {key}: {prev.get('fingerprint')} -> "
                f"{fingerprint} ("
                + ("same sources: the engine is not deterministic" if same_source
                   else f"sources {prev.get('stamp', {}).get('source')} -> "
                        f"{stamp.get('source')}") + ")")
        machine = {k: v for k, v in stamp.items() if k != "source"}
        prev_machine = {k: v for k, v in prev.get("stamp", {}).items()
                        if k != "source"}
        diff = sorted(k for k in set(machine) | set(prev_machine)
                      if machine.get(k) != prev_machine.get(k))
        if diff:
            notes.append("run stamp differs from the previous run in "
                         + ", ".join(f"{k}: {prev_machine.get(k)} -> {machine.get(k)}"
                                     for k in diff)
                         + "; do not compare these results")
    state[key] = {"fingerprint": fingerprint, "stamp": stamp}
    try:
        with open(state_path, "w") as fh:
            json.dump(state, fh, indent=1, sort_keys=True)
    except OSError:
        pass
    return notes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs (the benchmark's own test)")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    exe = build(build_dir)
    if exe is None:
        return 2
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)
    sid = source_id()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work, "--source-id", sid]
    if args.smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        log(f"benchmark failed (exit {r.returncode})")
        return r.returncode or 4

    stamp, fingerprint = {}, ""
    for line in lines:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
        elif line.startswith("fingerprint "):
            fingerprint = line.split()[-1]
    key = f"{args.workload}/seed={args.seed}/smoke={int(args.smoke)}"
    notes = compare_with_previous(os.path.join(build_dir, "fingerprints.json"),
                                  key, fingerprint, stamp)
    out = lines[:-1] + [f"note: {n}" for n in notes] + [lines[-1]]
    sys.stdout.write("\n".join(out) + "\n")
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
