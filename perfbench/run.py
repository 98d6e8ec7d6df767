#!/usr/bin/env python3
"""Builds and runs the Smart end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each call configures and builds the driver
(perfbench/CMakeLists.txt: the runtime from the repository's own CMake
files, Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; after the first call that is incremental.  The driver's
report is passed through; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"} whose metric names
and units are checked against BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1).  Any failure exits non-zero without that line.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "--target", "perfbench_driver", "-j", jobs],
    ]
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the report.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {done.returncode}")
    driver = bdir / "perfbench_driver"
    if not driver.exists():
        fail(f"build produced no {driver}")
    return driver


def expected_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}, spec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    expected, spec = expected_metrics(args.trace)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (BENCHMARK.json has {names})")

    bdir = build_dir()
    driver = build(bdir)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(bdir / f"trace-{args.workload}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        fail(f"driver exited {done.returncode}")

    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {got} do not match BENCHMARK.json {expected}")

    if args.trace:
        layer_map = json.loads((HERE / "layers.json").read_text())
        for name in expected:
            target = layer_map.get(name)
            if target is None:
                fail(f"per-layer metric {name} has no entry in perfbench/layers.json")
            print(f"layer {name} -> moves {target['moves']} on {target['on']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
