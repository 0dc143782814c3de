#!/usr/bin/env python3
"""Builds and runs the Moonshot cluster benchmark.

    python3 runbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is the Rust package next to
this file (`runbench/`); it is built in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then run once per workload.
Its report lines are passed through, and the last line printed is one JSON
object with `correct`, `attempted` (txs due in the window), `failed` (of
those, refused by admission on an open loop) and the metrics that
`BENCHMARK.json` lists: the `end_to_end` ones with `--trace 0`, the
`per_layer` ones with `--trace 1`. With `--trace 1` each workload runs
twice, untraced and then traced, each in its own process, and the
difference of every end-to-end metric is printed as the tracing overhead.
The exit code is nonzero when the build fails, a run fails, or an output
check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

# Every workload the benchmark implements. BENCHMARK.json lists the ones
# steady enough to gate on; lan-paced is not (see README.md).
WORKLOADS = ["lan-paced", "lan-saturated", "wan-crash"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds, for the host record
    (the checkout it runs in need not be a git repository)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "runbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of the repository, or "none" when the checkout is not one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def contract_line(result, wanted):
    """The binary's result restricted to the metrics BENCHMARK.json lists."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            raise ValueError("metric %s missing, null or not in %s: %r" % (m["name"], m["unit"], got))
        metrics[m["name"]] = got
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("runbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "runbench")
    env["RUNBENCH_GIT_REV"] = git_rev()
    env["RUNBENCH_SOURCE_DIGEST"] = source_digest()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def run(name, trace):
        cmd = [binary, "--workload", name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(trace), "--out", os.path.join(ROOT, ".bench_out")]
        try:
            out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ValueError("timed out after %d s" % RUN_TIMEOUT_S)
        lines = out.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if not lines:
            raise ValueError("no output (exit %d)" % out.returncode)
        result = json.loads(lines[-1])
        return result, out.returncode == 0 and result["correct"]

    status = 0
    for name in (WORKLOADS if args.workload == "all" else [args.workload]):
        try:
            result, ok = run(name, 0)
            if args.trace:
                untraced = result
                result, traced_ok = run(name, 1)
                ok = ok and traced_ok
                for m in spec["end_to_end"]:
                    u = untraced["metrics"][m["name"]]["value"]
                    t = result["metrics"][m["name"]]["value"]
                    print("overhead %s %s = %r %s (traced %r - untraced %r)"
                          % (name, m["name"], t - u, m["unit"], t, u))
            line = contract_line(result, wanted)
        except (ValueError, KeyError, TypeError) as e:
            print("runbench: %s produced no usable result: %s" % (name, e), file=sys.stderr)
            return 1
        print(line, flush=True)
        if not ok:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
