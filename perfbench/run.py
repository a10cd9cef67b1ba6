#!/usr/bin/env python3
"""Entry point of the hmn benchmark.

    python3 perfbench/run.py --workload churn|failstorm|sharded --seed N
                             --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (which
compiles the hmn library from src/) in Release mode under the build root
($CARGO_TARGET_DIR if set, else .bench_build), runs the metric tests, then
runs the benchmark binary.  Build and test output goes to stderr; the
benchmark's own output, ending in the one-line JSON result, goes to stdout.
Exits non-zero, without a result, if the build or the metric tests fail.
"""
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SECONDS = 10  # the benchmark program's own default


def run_timeout_s(args):
    """A run is stopped after this long: room for the untraced and traced
    passes of --seconds each, at half the baseline speed."""
    seconds = DEFAULT_SECONDS
    for flag, value in zip(args, args[1:]):
        if flag == "--seconds" and value.isdigit():
            seconds = int(value)
    return 50 + 6 * seconds


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {' '.join(map(str, cmd))} failed "
                 f"({proc.returncode})")


def build(out):
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(out), "-j", jobs])
    run_quiet([str(out / "perfbench_metrics_test")])


def main():
    out = build_dir()
    build(out)
    cmd = [str(out / "perfbench"), *sys.argv[1:],
           "--span-dir", str(out / "spans")]
    timeout = run_timeout_s(sys.argv[1:])
    try:
        proc = subprocess.run(cmd, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {timeout} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
