#!/usr/bin/env python3
"""Steadiness check: runs one workload k times and reports each spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed 1]

Run from the repository root. Each run uses its own seed (seed, seed+1,
...). For every end-to-end metric in BENCHMARK.json it prints the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound, and it checks that every
run failed the same share of its operations. The exit code is 1 when a
spread exceeds its bound, a run is incorrect, or the failed shares
differ.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    host = next((json.loads(l)["host"] for l in lines
                 if l.startswith('{"host"')), None)
    return json.loads(lines[-1]), host


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--log", help="append every run's result line here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = []
    for k in range(args.runs):
        seed = args.seed + k
        res, host = run_once(args.workload, seed, seconds, 0)
        results.append(res)
        load = ""
        if host:
            load = " host_busy=%.2f host_steal=%.3f" % (
                host.get("timed_host_busy", 0), host.get("timed_host_steal", 0))
        print("run %2d seed %d: correct=%s attempted=%d failed=%d %s%s" % (
            k + 1, seed, res["correct"], res["attempted"], res["failed"],
            " ".join("%s=%.6g" % (n, v["value"])
                     for n, v in res["metrics"].items()), load), flush=True)
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "host": host, "result": res}) + "\n")

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        ok = False
    print("\n%-18s %12s %12s %12s %8s %7s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name, spec in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        held = spread <= spec["bound"]
        verdict = "ok" if held else "EXCEEDS BOUND"
        ok = ok and held
        print("%-18s %12.6g %12.6g %12.6g %8.4f %7.3f  %s (%.2f of bound)" % (
            name, med, q1, q3, spread, spec["bound"], verdict,
            spread / spec["bound"]))
    print("failed share per run: %s" % sorted(shares))
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
