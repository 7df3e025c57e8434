#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. The benchmark is compiled
into ``$CARGO_TARGET_DIR`` (default ``.bench_build``) and its records go
to ``perfbench/out/``. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in turn, each in its
own process, and prints every workload's own metrics in one table.

Exit codes: 0 when the benchmark ran (whatever its correctness verdict),
1 when it could not be built or did not finish, 2 for bad arguments.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["table1_large", "serve_mix", "sec4_medium"]
RUN_TIMEOUT_S = 175
SOURCES = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "vendor", "perfbench/src",
           "perfbench/golden", "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/build.rs"]


def tree_hash():
    """Hash of the sources the benchmark builds from."""
    h = hashlib.sha1()
    for top in SOURCES:
        p = ROOT / top
        files = [p] if p.is_file() else sorted(q for q in p.rglob("*") if q.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:12]


def revision():
    """Git commit when the checkout is a repository, plus the tree hash."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        commit = out.stdout.strip() if out.returncode == 0 else "nogit"
    except (OSError, subprocess.TimeoutExpired):
        commit = "nogit"
    return f"{commit}-tree{tree_hash()}"


def build():
    """Compiles the benchmark; returns the binary path or None."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    binary = target / "release" / "ind101-perfbench"
    if done.returncode != 0 or not binary.is_file():
        print("run.py: benchmark build failed", file=sys.stderr)
        return None
    return binary


def run_one(binary, workload, args, rev):
    """Runs one workload; returns its stdout lines or None on failure."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--out", str(HERE / "out"), "--commit", rev]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout if done.returncode == 0 else "")
        print(f"run.py: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    rev = revision()
    if args.workload != "all":
        lines = run_one(binary, args.workload, args, rev)
        if lines is None:
            return 1
        print("\n".join(lines))
        return 0

    results, own = {}, {}
    for w in WORKLOADS:
        lines = run_one(binary, w, args, rev)
        if lines is None:
            return 1
        print("\n".join(lines[:-1]))
        results[w] = json.loads(lines[-1])
        named = next((l for l in lines if l.startswith("named: ")), "named: {}")
        own[w] = json.loads(named[len("named: "):])
    print(f"\n== all workloads, seed {args.seed}, trace {args.trace} ==")
    merged = {}
    for w in WORKLOADS:
        verdict = "PASS" if results[w]["correct"] else "FAIL"
        print(f"{w}: correctness {verdict} ({results[w]['attempted']} attempted, "
              f"{results[w]['failed']} failed)")
        metrics = dict(own[w]) if args.trace == 0 else {}
        metrics.update(results[w]["metrics"])
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
            merged[f"{w}.{name}"] = m
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
