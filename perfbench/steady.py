#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs two sets of runs per workload, interleaved run by run so host drift
lands on both sets alike, each run with its own seed (set A seeds
base..base+n-1, set B the next n). For every end-to-end metric it prints
each set's median and quartile spread (IQR as a share of the median)
and the shift of B's median against A's in the metric's worse
direction, and flags any spread or shift beyond the metric's bound, or
beyond a third of it (setup_s is judged on its shift only).

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 1] [--out FILE]

Run it from the repository root. Raw results are appended to --out as
JSON lines.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"run failed ({p.returncode}): {' '.join(args)}\n{p.stderr}{p.stdout}")
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"incorrect result: {' '.join(args)}\n{p.stdout}")
    return res, lines[:-1]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def shift(a, b, better):
    """B's median against A's, positive when B is worse."""
    ma, mb = statistics.median(a), statistics.median(b)
    d = (mb - ma) / ma
    return d if better == "lower" else -d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", default=".bench_out/steady.jsonl")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    sets = {(w, s): [] for w in names for s in "AB"}
    with open(args.out, "a") as log:
        for i in range(args.runs):
            for s, seed in (("A", args.seed_base + i), ("B", args.seed_base + args.runs + i)):
                for w in names:
                    res, lines = run_once(bench["command"], w, seed, bench["run_seconds"])
                    sets[(w, s)].append(res["metrics"])
                    log.write(json.dumps({"workload": w, "set": s, "seed": seed, "result": res, "log": lines}) + "\n")
                    log.flush()
                    print(f"run {i + 1}/{args.runs} set {s} {w} seed {seed}", file=sys.stderr)

    failed = False
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':22} {'median A':>14} {'median B':>14} {'spread A':>9} {'spread B':>9} {'shift':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            a = [r[m["name"]]["value"] for r in sets[(w, "A")]]
            b = [r[m["name"]]["value"] for r in sets[(w, "B")]]
            sa, sb, sh = spread(a), spread(b), shift(a, b, m["better"])
            judged = [sh] if m["name"] == "setup_s" else [sa, sb, sh]
            bad = max(judged) > m["bound"]
            third = max(judged) > m["bound"] / 3
            failed |= bad
            flag = "FAIL" if bad else ("over 1/3" if third else "")
            print(f"  {m['name']:22} {statistics.median(a):14.6g} {statistics.median(b):14.6g} "
                  f"{sa:9.4f} {sb:9.4f} {sh:8.4f} {m['bound']:6.3f} {flag}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
