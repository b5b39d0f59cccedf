#!/usr/bin/env python3
"""Builds and runs the hetrta benchmark.

One run of one workload (from the root of a checkout):

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

builds the `hetrta` CLI (the daemon and the fleet workers) and the
`perfbench` binary in release mode, offline, into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the workload and passes its output
through. The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it holds
the attribution facts (host CPUs and model, commit, seeds, job counts,
graph sizes). Build output goes to standard error.

Steadiness mode runs two sets of the same code and reports, per workload
and end-to-end metric, the spread of each set (quartile distance over
median) and whether the two medians agree within the metric's bound in
BENCHMARK.json:

    python3 perfbench/run.py --steadiness --runs 10 [--workload graph_1m]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds both binaries; returns (perfbench, hetrta) paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
        fail(f"{ROOT} is not a hetrta checkout (no Cargo.toml / crates/cli)")
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "hetrta-cli"], ["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binaries = (os.path.join(target, "release", "perfbench"), os.path.join(target, "release", "hetrta"))
    for path in binaries:
        if not os.path.isfile(path):
            fail(f"missing binary {path}")
    return binaries


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(binaries, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    perfbench, hetrta = binaries
    scratch = os.path.join(target_dir(), "perfbench", f"{workload}-{os.getpid()}-{seed}")
    cmd = [perfbench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--hetrta", hetrta, "--scratch", scratch]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
    return out.returncode, out.stdout.splitlines()


def spread(values):
    """Quartile distance over median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def steadiness(args, binaries):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    report = {}
    for workload in workloads:
        sets = []
        for s in range(2):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for i in range(args.runs):
                seed = args.base_seed + 1000 * s + i
                code, lines = run_workload(binaries, workload, seed, seconds, 0)
                result = json.loads(lines[-1]) if code == 0 and lines else None
                if not result or not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: run failed ({code})", file=sys.stderr)
                    ok = False
                    continue
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        rows = []
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first, second = sets[0][name], sets[1][name]
            if len(first) < 2 or len(second) < 2:
                ok = False
                continue
            med1, med2 = statistics.median(first), statistics.median(second)
            worse = (med2 - med1) / med1 if m["better"] == "lower" else (med1 - med2) / med1
            spreads = (spread(first), spread(second))
            agree = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= agree
            rows.append({"metric": name, "values": [first, second], "median": [med1, med2], "spread": list(spreads),
                         "worse": worse, "bound": bound, "agree": agree})
            print(f"{workload:14} {name:18} med {med1:12.4f} {med2:12.4f}  spread {spreads[0]:.3f} {spreads[1]:.3f}"
                  f"  worse {worse:+.3f} / bound {bound}  {'ok' if agree else 'DISAGREE'}")
        report[workload] = rows
    out = os.path.join(target_dir(), "perfbench", f"steadiness-{int(time.time())}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"steadiness: {'all metrics agree' if ok else 'some metrics disagree'} ({out})")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="seconds-long sizes (the benchmark's own tests)")
    parser.add_argument("--steadiness", action="store_true", help="two sets of runs; compare medians")
    parser.add_argument("--runs", type=int, default=10, help="runs per set in steadiness mode")
    parser.add_argument("--base-seed", type=int, default=1)
    args = parser.parse_args()
    binaries = build()
    if args.steadiness:
        return steadiness(args, binaries)
    if not args.workload:
        fail("--workload is required")
    code, lines = run_workload(binaries, args.workload, args.seed, args.seconds or 10, args.trace, args.tiny)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
