#!/usr/bin/env python3
"""Workload-level benchmark of TENET: builds `wlbench` from source and runs
one workload.

    python3 wlbench/run.py --workload table3_cold --seed 1 --seconds 20 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics of
an untraced run. `--trace 1` runs the same seed three times, each in its
own process: untraced, traced, and the traced run's deterministic unit
alone. It prints the per-layer metrics of the traced run, the tracing
overhead on every end-to-end metric, and how many exact counts failed to
repeat between the two traced processes. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

`--self-test` runs every workload briefly, checks that every metric named
in BENCHMARK.json is printed with its unit, and checks that a corrupted
expected value makes a run fail.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
CHILD_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark package; returns the binary's path."""
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise SystemExit("run.py: build failed")
    return target / "release" / "wlbench"


def child(binary, workload, seed, seconds, *flags):
    """Runs one workload process; returns its JSON report and exit code."""
    cmd = [str(binary), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--oracle-dir", str(HERE / "oracle"), *flags]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: {workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"run.py: {workload} printed no result (exit {p.returncode})")
    return json.loads(lines[-1]), p.returncode


def spec():
    with open(SPEC) as f:
        return json.load(f)


def pick(metrics, names):
    return {n: metrics[n] for n in names}


def run(binary, workload, seed, seconds, trace, corrupt=False):
    """One benchmark invocation; returns (result, exit code)."""
    s = spec()
    e2e = [m["name"] for m in s["end_to_end"]]
    flags = ["--corrupt-oracle"] if corrupt else []
    plain, code = child(binary, workload, seed, seconds, *flags)
    if not trace:
        result = dict(plain, metrics=pick(plain["metrics"], e2e))
        result.pop("counts", None)
        return result, code
    traced, tcode = child(binary, workload, seed, seconds, "--traced", *flags)
    unit, ucode = child(binary, workload, seed, 0, "--traced", *flags)
    metrics = dict(traced["metrics"])
    for name in e2e:
        base = plain["metrics"][name]["value"]
        delta = traced["metrics"][name]["value"] - base
        metrics[f"trace.overhead_pct.{name}"] = {
            "value": 100.0 * delta / base if base else 0.0, "unit": "%"}
    mismatched = sorted(k for k in set(traced["counts"]) | set(unit["counts"])
                        if traced["counts"].get(k) != unit["counts"].get(k))
    for k in mismatched:
        log(f"count {k} did not repeat: {traced['counts'].get(k)} vs {unit['counts'].get(k)}")
    metrics["determinism.count_mismatches"] = {"value": len(mismatched), "unit": "count"}
    parts = (plain, traced, unit)
    result = {
        "correct": all(p["correct"] for p in parts) and not mismatched,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts) + len(mismatched),
        "metrics": pick(metrics, [m["name"] for m in s["per_layer"]]),
    }
    return result, max(code, tcode, ucode, 1 if mismatched else 0)


def self_test(binary):
    """Short runs of every workload: all named metrics present with their
    units; a corrupted expected value must fail the run."""
    s = spec()
    problems = []
    for w in (w["name"] for w in s["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, code = run(binary, w, 7, 1, trace)
            for m in s[group]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{w} trace {trace}: {m['name']} missing or not in {m['unit']}")
            if code != 0 or not result["correct"]:
                problems.append(f"{w} trace {trace}: clean run failed (exit {code})")
            log(f"{w} trace {trace}: {len(result['metrics'])} metrics")
        result, code = run(binary, w, 7, 1, 0, corrupt=True)
        if code == 0 or result["failed"] == 0 or result["correct"]:
            problems.append(f"{w}: a corrupted expected value went unnoticed")
        else:
            log(f"{w}: corrupted expected value caught ({result['failed']} failed, exit {code})")
    for p in problems:
        log("FAIL", p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    binary = build()
    if a.self_test:
        return self_test(binary)
    if not a.workload:
        ap.error("--workload is required")
    result, code = run(binary, a.workload, a.seed, a.seconds, a.trace)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
