#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload solve_nu22 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root.  The first call configures and builds the
library and the benchmark binary from source into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench when that is set); later calls rebuild only
what changed.  The binary's report goes to stdout and its last line is the
result JSON.  `--workload all` runs the three workloads one after another.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve_nu22", "serve_mix", "dist_r4")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_base():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def source_digest():
    """Content hash of the library sources the binary is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    """HEAD of the checkout, or "unknown" when ROOT is not a git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT}; run from a full checkout")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "qs_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} did not finish: {error}")
            if code != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})")
    binary = build_dir / "qs_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_one(binary, work_dir, workload, args, provenance):
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)] + provenance
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode} and no result")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    base = build_base()
    binary = build(base / "perfbench")
    work_dir = base / "perfbench-run"
    provenance = ["--commit", commit(), "--src-digest", source_digest()]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        lines = run_one(binary, work_dir, workload, args, provenance)
        print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
