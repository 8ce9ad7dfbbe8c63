#!/usr/bin/env python3
"""Build and run the durable-queue benchmark.

Run from the root of the repository:

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qbench/run.py --all [--seed N] [--trace 0|1]
    python3 qbench/run.py --workload NAME --repeat N [--seed N] [--trace 0|1]

A single run builds the benchmark (cargo, offline, into $CARGO_TARGET_DIR,
default .bench_build), runs one workload and passes its output through: the
last line is one JSON object with "correct", "attempted", "failed" and
"metrics". --all runs every workload of BENCHMARK.json once. --repeat runs
one workload N times on seeds N, N+1, ... and prints, per metric, the median,
the quartiles and their spread against the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary and returns its path (None on failure)."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "qbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed last line or None)."""
    work = os.path.join(ROOT, ".bench_work", workload)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def repeat(binary, spec, args):
    """Runs one workload args.repeat times and prints the spread table."""
    kind = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in spec[kind]}
    values = {}
    ok = True
    for i in range(args.repeat):
        code, result = run_once(binary, args.workload, args.seed + i, args.seconds,
                                args.trace, echo=False)
        if code != 0 or result is None or not result["correct"] or result["failed"]:
            print(f"run {i + 1} (seed {args.seed + i}): FAILED", file=sys.stderr)
            ok = False
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
          f"{args.seconds} s each")
    print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = specs.get(name, {}).get("bound")
        mark = ""
        if bound is not None:
            mark = f"{bound:>6}" + ("" if spread < bound / 3 else "  WIDE")
        unit = specs.get(name, {}).get("unit", "")
        print(f"{name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {mark} {unit}")
    return 0 if ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one of " + ", ".join(names))
    p.add_argument("--all", action="store_true", help="run every workload once")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0, help="run N times and report spreads")
    args = p.parse_args()
    if not args.all and not args.workload:
        p.error("give --workload NAME or --all")
    binary = build()
    if binary is None:
        return 1
    if args.repeat:
        return repeat(binary, spec, args)
    if args.all:
        summary = {}
        for name in names:
            code, result = run_once(binary, name, args.seed, args.seconds, args.trace)
            summary[name] = bool(code == 0 and result and result["correct"])
        print(json.dumps({"all_correct": all(summary.values()), "workloads": summary}))
        return 0 if all(summary.values()) else 1
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
