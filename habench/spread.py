#!/usr/bin/env python3
"""Runs one workload k times with seeds 1..k and prints, for each metric,
the median, the quartiles and their spread (Q3 - Q1 as a share of the
median) next to the metric's bound from BENCHMARK.json.

    python3 habench/spread.py --workload request --runs 10 [--trace 1]

Run it from the repository root. The traced form also prints the
tracing overhead: each traced.<metric> median against the untraced
median of the same metric, when --compare names a file of untraced
results written earlier with --save.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "habench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run with seed {seed} failed (exit {p.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="write the per-run results to this JSON file")
    ap.add_argument("--compare", help="untraced results saved earlier, for the tracing overhead")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(args.workload, seed, seconds, args.trace)
        results.append(r)
        share = r["failed"] / r["attempted"]
        print(f"seed {seed}: attempted {r['attempted']} failed {r['failed']} ({share:.6f})", flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)

    untraced = {}
    if args.compare:
        with open(args.compare) as f:
            for r in json.load(f):
                for k, v in r["metrics"].items():
                    untraced.setdefault(k, []).append(v["value"])

    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    bad = False
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        b = bounds.get(name)
        bound = f"{b['bound']:.2f}" if b else ""
        flag = ""
        if b and name != "setup_s" and spread > b["bound"]:
            flag, bad = "  over bound", True
        print(f"{name:36} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound:>6}{flag}")
        base = name.removeprefix("traced.")
        if base != name and base in untraced:
            u = statistics.median(untraced[base])
            if u:
                print(f"{'  tracing overhead vs untraced':36} {(med - u) / u:+12.2%}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
