#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --seed 1

For each workload, runs `benchmarks/run.py` of each checkout `--pairs`
times, one run at a time, from that checkout's root.  Pair i runs the
parent first when i is even and the change first when it is odd, so a slow
spell on the machine does not always fall on the same side.  Two runs never
overlap: on a small shared machine a run next to another one reads several
times slower.

Prints, per workload and metric, each side's median and quartiles, the
change's median relative to the parent's, the pairs in which the change is
better (ties count for neither), and the gap between the medians in units
of the parent's interquartile range.  Which direction is better comes from
BENCHMARK.json next to this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(checkout: str, command: list, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One benchmark run in `checkout`: its result object (the last stdout line), its argv and its stdout lines."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), argv, lines


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q1, q2, q3


def fmt(v: float) -> str:
    return f"{v:.4g}"


def summarize(workload: str, pairs: list, better: dict) -> list:
    """Markdown table rows: metric, parent, change, relative change, wins, median gap / parent IQR."""
    rows = []
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = -1.0 if better.get(name, "higher") == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        rel = f"{(cm / pm - 1) * 100:+.1f}%" if pm else "n/a"
        iqr = p3 - p1
        gap = f"{abs(cm - pm) / iqr:.2f}" if iqr else "inf" if cm != pm else "0"
        rows.append(
            f"| {workload} | {name} | {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] | {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] "
            f"| {rel} | {wins}/{len(pairs)} | {gap} |"
        )
    return rows


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    table = [
        "| Workload | Metric | Parent | This change | Change | Better | Gap / parent IQR |",
        "|---|---|---|---|---|---|---|",
    ]
    faults = []
    for workload in args.workload or names:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            result = {}
            for side in order:
                out, _, _ = run_once(sides[side], spec["command"], workload, args.seed, args.seconds, args.trace)
                result[side] = out
                if not out.get("correct") or out.get("failed"):
                    faults.append(f"{workload} pair {i} {side}: correct={out.get('correct')} failed={out.get('failed')}")
            pairs.append((result["parent"], result["change"]))
            print(f"{workload} pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)
        table += summarize(workload, pairs, better)
    print("\n".join(table))
    for line in faults:
        print(f"NOT CORRECT: {line}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
