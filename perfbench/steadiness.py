#!/usr/bin/env python3
"""Runs every workload repeatedly, interleaved, and reports each metric's spread.

    python3 perfbench/steadiness.py [--seeds 1,2,3,...] [--workloads a,b]
                                    [--seconds S] [--trace 0|1] [--sets 1|2]

Each round runs every workload once with the round's seed, so slow drift of
the host spreads over all workloads alike. For each workload and metric it
prints the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json;
"!!" marks a spread above a third of its bound. setup_s is one cold set-up
per run, so its spread is printed but not flagged; only its median is
meant to hold, and --sets 2 checks that. With --sets 2 the seeds run twice
and every metric's second-set median is compared with the first's, as a
regression check would. Raw results go to .bench_build/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(results, spec, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    bad = 0
    for workload in sorted(results):
        runs = results[workload]
        walls = [r["wall_s"] for r in runs]
        failed = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n== {workload}: {len(runs)} runs, correct={correct}, "
              f"failed share {sorted(failed)}, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if m["name"] == "setup_s":
                flag = "(spread not flagged)"
            elif bound is not None and spread > bound / 3:
                flag = "!!"
                bad += 1
            bound_s = f"{bound:.3f}" if bound is not None else "  -  "
            print(f"  {m['name']:34s} med {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:6.3f}  bound {bound_s} {flag}")
    return bad


def compare_sets(first, second, spec):
    worse = 0
    print("\n== second set against first (median drift, worse direction)")
    for workload in sorted(first):
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in second[workload])
            drift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "!!" if drift > m["bound"] else ""
            worse += bool(flag)
            print(f"  {workload:22s} {m['name']:22s} {drift:+7.3f} "
                  f"(bound {m['bound']:.2f}) {flag}")
    return worse


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")

    out = ROOT / ".bench_build" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    sets = []
    for set_index in range(args.sets):
        results = {w: [] for w in workloads}
        for seed in seeds:
            for w in workloads:
                r = run_once(w, seed, args.seconds, args.trace)
                results[w].append(r)
                print(f"set {set_index + 1} seed {seed:3d} {w:22s} "
                      f"correct={r['correct']} wall {r['wall_s']:.1f} s",
                      flush=True)
        sets.append(results)
        out.write_text(json.dumps(sets, indent=1))  # kept if set 2 is cut

    bad = sum(summarize(s, spec, args.trace) for s in sets)
    if args.sets == 2 and not args.trace:
        bad += compare_sets(sets[0], sets[1], spec)
    print(f"\n{bad} flagged")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
