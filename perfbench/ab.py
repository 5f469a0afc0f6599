#!/usr/bin/env python3
"""Steadiness and A/B helper for the repository benchmark.

Run from anywhere; each DIR is a checkout holding BENCHMARK.json. Every
run covers every declared workload at the benchmark's own run_seconds.

  python3 perfbench/ab.py steady DIR [--runs 10] [--trace 0]
      Runs every workload --runs times, each with another seed, and
      prints each metric's median, quartiles and spread (quartile
      distance over the median) next to its bound.

  python3 perfbench/ab.py ab PARENT CHANGE [--pairs 10] [--trace 0]
      Runs --pairs pairs per workload, alternating which checkout goes
      first, both sides on the same seed. Prints each side's median and
      quartiles and the change's win fraction (ties count for neither).
      A gain is claimed only when the change wins at least 9 of 10 pairs
      and the medians differ by more than the parent's quartile distance.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: {workload} seed {seed} reported incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def specs(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def steady(args):
    bench = load(args.dir)
    seconds = bench["run_seconds"]
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [run_once(args.dir, bench, wl, seed, seconds, args.trace)
                for seed in range(1, args.runs + 1)]
        print(f"== {wl}: {args.runs} runs, seeds 1..{args.runs}, {seconds}s each")
        for m in specs(bench, args.trace):
            vals = [r[m["name"]] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of its bound"
            print(f"  {m['name']:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.3%}" + (f"  bound {bound:.0%}" if bound is not None else "") + flag)


def ab(args):
    parent, change = load(args.parent), load(args.change)
    seconds = parent["run_seconds"]
    for wl in (w["name"] for w in parent["workloads"]):
        a_runs, b_runs = [], []
        for i in range(args.pairs):
            seed = 1000 + i
            order = [(args.parent, parent, a_runs), (args.change, change, b_runs)]
            if i % 2:
                order.reverse()
            for checkout, bench, sink in order:
                sink.append(run_once(checkout, bench, wl, seed, seconds, args.trace))
        print(f"== {wl}: {args.pairs} alternating pairs, {seconds}s each")
        for m in specs(parent, args.trace):
            name = m["name"]
            a = [r[name] for r in a_runs]
            b = [r[name] for r in b_runs]
            lower = m.get("better", "lower") == "lower"
            wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
            losses = sum(1 for x, y in zip(a, b) if (y > x if lower else y < x))
            aq, bq = quartiles(a), quartiles(b)
            claim = wins >= 0.9 * len(a) and abs(bq[1] - aq[1]) > (aq[2] - aq[0])
            print(f"  {name:32s} parent {aq[1]:12.6g} [{aq[0]:.6g}, {aq[2]:.6g}]  "
                  f"change {bq[1]:12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"wins {wins}/{len(a)} losses {losses}" + ("  GAIN" if claim else ""))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("steady")
    s.add_argument("dir")
    s.add_argument("--runs", type=int, default=10)
    a = sub.add_parser("ab")
    a.add_argument("parent")
    a.add_argument("change")
    a.add_argument("--pairs", type=int, default=10)
    for q in (s, a):
        q.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()
    steady(args) if args.mode == "steady" else ab(args)


if __name__ == "__main__":
    main()
