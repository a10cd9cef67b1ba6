#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark once per seed on each named workload and prints for every
metric its median and its spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median -- the
statistic BENCHMARK.json's bounds are checked against.  With --sets 2 it
makes two such sets back to back and prints how far the second set's
medians moved from the first's, signed so that positive is worse, next to
the metric's bound.  Within a set the workloads are interleaved seed by
seed, so a slow phase of the host falls on all of them alike.  Each run's
line also shows the host slowdowns the run printed (untraced, then traced).

    python3 perfbench/steadiness.py --workload churn[,failstorm,...]
        [--runs 10] [--sets 1] [--seed0 1] [--seconds N] [--trace 0|1]
        [--json out.json]

Run from the repository root; the benchmark is built on first use.  Exits
non-zero if a run fails.
"""
import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def run_once(bench, workload, seed, seconds, trace):
    """Returns the run's JSON result and the host slowdowns it printed."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"{workload} with seed {seed} failed ({proc.returncode})")
    slowdowns = [float(x) for x in re.findall(r"slowdown ([\d.]+)",
                                              proc.stdout)]
    return json.loads(lines[-1]), slowdowns


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one workload, or several separated by commas")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    declared = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload.split(",")
    runs = []  # {"set", "workload", "seed", "slowdowns", **result}
    for set_index in range(args.sets):
        for i in range(args.runs):
            seed = args.seed0 + i
            for workload in workloads:
                result, slowdowns = run_once(bench, workload, seed, seconds,
                                             args.trace)
                runs.append({"set": set_index, "workload": workload,
                             "seed": seed, "slowdowns": slowdowns, **result})
                values = " ".join(f"{k}={v['value']:.6g}"
                                  for k, v in result["metrics"].items())
                print(f"set {set_index + 1} {workload} seed {seed}: {values}"
                      f" host_slowdown={slowdowns}", flush=True)

    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        names = list(mine[0]["metrics"])
        print(f"\n{workload}: {args.sets} set(s) of {args.runs} runs, "
              f"{seconds} s each")
        header = f"{'metric':<36}"
        for s in range(args.sets):
            header += f" {'median ' + str(s + 1):>14} {'spread':>7}"
        if args.sets > 1:
            header += f" {'moved':>7} {'bound':>6}"
        print(header + "  unit")
        for name in names:
            unit = mine[0]["metrics"][name]["unit"]
            line = f"{name:<36}"
            medians = []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"]
                          for r in mine if r["set"] == s]
                medians.append(statistics.median(values))
                line += f" {medians[-1]:>14.6g} {spread(values):>7.4f}"
            if args.sets > 1 and name in declared and medians[0]:
                moved = medians[-1] / medians[0] - 1.0
                if declared[name]["better"] == "higher":
                    moved = -moved
                line += f" {moved:>+7.4f} {declared[name]['bound']:>6}"
            print(line + f"  {unit}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
