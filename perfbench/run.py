#!/usr/bin/env python3
"""Builds the repository benchmark and runs one of its workloads.

    python3 perfbench/run.py --workload uni_index --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the library sources under src/ included) into .bench_build/;
later calls rebuild only what changed. The benchmark binary runs the
workload in its own process; its last stdout line, which this script
prints last as well, is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. `--workload all` runs every workload in
turn, each in its own process, and ends with one combined object whose
metric names are prefixed by the workload. Exits non-zero, without a
result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("uni_index", "real_overlap", "serve_mixed", "serve_overlap")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    # The compiler's temporary files stay inside the checkout too.
    tmp_dir = BUILD_DIR.parent / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr,
                      env=env).returncode != 0:
        raise RuntimeError("build failed")
    return BUILD_DIR / "perfbench"


def revision():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    files = sorted(p for d in ("src", "bench", "perfbench")
                   for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:16]


def run_workload(binary, workload, args, rev):
    """Runs one workload; returns its result object or raises."""
    tmp_dir = ROOT / ".bench_build" / f"tmp-{os.getpid()}-{workload}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--tmp_dir", str(tmp_dir), "--revision", rev],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload} printed no result object")
    for line in lines[:-1]:
        print(line, flush=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        binary = build()
        rev = revision()
        if args.workload != "all":
            print(json.dumps(run_workload(binary, args.workload, args, rev)))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for workload in WORKLOADS:
            result = run_workload(binary, workload, args, rev)
            print(json.dumps({"workload": workload, **result}), flush=True)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined))
        return 0
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as error:
        log(str(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
