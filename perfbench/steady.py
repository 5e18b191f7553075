#!/usr/bin/env python3
"""Runs the benchmark repeatedly and prints each end-to-end metric's spread.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--seed-base N]

Each round runs every workload of BENCHMARK.json once for its
run_seconds, with seed N + round, alternating the workload order from
round to round so that no workload always runs right after another. For
each workload and end-to-end metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`), and the spread
(q3 - q1) / median beside the metric's bound. These are the data behind
the bounds. Exits non-zero if any run fails or prints an incorrect result.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    listed = bench["end_to_end"]
    values = {w: {m["name"]: [] for m in listed} for w in workloads}
    failed = False
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            seed = args.seed_base + r
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if p.returncode != 0 or result is None or not result["correct"]:
                failed = True
                print(f"run {r} {w} seed {seed}: exit {p.returncode}", file=sys.stderr)
                print("\n".join(lines[-15:]), file=sys.stderr)
                print(p.stderr[-2000:], file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            summary = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
            print(f"run {r} {w} seed {seed}: {summary}", flush=True)
    for w in workloads:
        print(f"\n{w}")
        for m in listed:
            v = values[w][m["name"]]
            if len(v) < 2:
                print(f"  {m['name']:28s} too few runs ({len(v)})")
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(
                f"  {m['name']:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                f"  spread {spread:.4f}  bound {m['bound']:.2f} {verdict}"
            )
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
