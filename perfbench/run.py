#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload serve|campaign|forensic \
        --seed N --seconds S --trace 0|1 [--paced-rate R]

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the program's libraries plus the benchmark
binary) into $CARGO_TARGET_DIR, default .bench_build; later runs only
rebuild what changed. Build output goes to stderr.

The binary's check notes go to stdout, then as the last line one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports every end_to_end metric of BENCHMARK.json, --trace 1 every
per_layer metric; a per-layer metric of a layer the workload does not
exercise reads 0. The traced pass also writes its span log to
<build dir>/spans/<workload>-seed<N>.jsonl.

Exits non-zero without printing a result when the build, the run or
the metric bookkeeping fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds the perfbench binary; returns its path."""
    build_dir = build_root / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in (
        cache.read_text(errors="replace")
    ):
        shutil.rmtree(build_dir)  # configured for another checkout
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", "3"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def reconcile(result, declared, trace):
    """Checks the binary's metrics against BENCHMARK.json's declarations."""
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in declared:
            raise ValueError(f"metric {name} is not declared")
        if metric["unit"] != declared[name]:
            raise ValueError(f"metric {name} has unit {metric['unit']}, "
                             f"declared {declared[name]}")
    missing = [name for name in declared if name not in metrics]
    if missing and not trace:
        raise ValueError(f"end-to-end metrics missing: {missing}")
    ordered = {}
    for name, unit in declared.items():
        ordered[name] = metrics.get(name, {"value": 0, "unit": unit})
    result["metrics"] = ordered
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paced-rate", type=float, default=None)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload}; one of {workloads}")
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in config[section]}

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--digests", str(HERE / "digests.txt")]
    if args.paced_rate is not None:
        command += ["--paced-rate", str(args.paced_rate)]
    if args.trace:
        spans = build_root / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans",
                    str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {run.returncode}")
        return 1
    try:
        result = reconcile(json.loads(lines[-1]), declared, args.trace)
    except (ValueError, KeyError) as error:
        log(f"bad result line: {error}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
