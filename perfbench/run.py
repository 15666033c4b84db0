#!/usr/bin/env python3
"""Builds glitch-cli and the benchmark from source, then runs them.

Run from the repository root:

    python3 perfbench/run.py --workload batch-mult32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare BASE.layers.json NEW.layers.json
    python3 perfbench/run.py smoke

A run prints one JSON result line last (see perfbench/README.md). Build
output goes to stderr; the build directory is $CARGO_TARGET_DIR, or
.bench_build when unset. Scratch files go to .perfbench_work.
"""

import json
import os
import subprocess
import sys

WORK = ".perfbench_work"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the program under test and the benchmark; returns the
    paths of the glitch-cli and perfbench binaries."""
    for needed in ("Cargo.toml", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(needed):
            fail(f"run from the repository root: `{needed}` is missing")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for command in (
        ["cargo", "build", "--release", "--offline", "-p", "glitch-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "glitch-cli"), os.path.join(release, "perfbench")


def run(args):
    cli, bench = build()
    if args[:1] != ["compare"]:
        args = [*args, "--cli", cli, "--work", WORK]
    return subprocess.run([bench, *args]).returncode


def smoke():
    """Runs every workload at tiny size, untraced and traced, and checks
    that each prints every metric of BENCHMARK.json with its unit and
    that its oracle ran and passed."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    cli, bench = build()
    failures = 0
    for workload in spec["workloads"]:
        for trace, catalogue in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            out = subprocess.run(
                [bench, "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--cli", cli, "--work", WORK, "--tiny"],
                stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else {}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"exit {out.returncode}, result keys {sorted(result)}")
            else:
                if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                    problems.append("oracle did not pass")
                metrics = result["metrics"]
                for metric in catalogue:
                    got = metrics.get(metric["name"])
                    if got is None or got.get("unit") != metric["unit"]:
                        problems.append(f"metric {metric['name']}: {got}")
                if set(metrics) != {m["name"] for m in catalogue}:
                    problems.append("metric set differs from BENCHMARK.json")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload['name']} --trace {trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    if args[:1] == ["smoke"]:
        return smoke()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
