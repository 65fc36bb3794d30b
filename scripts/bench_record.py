#!/usr/bin/env python3
"""Record the benchmark of one checkout in a BENCH_<n>.json file.

    python3 scripts/bench_record.py
    python3 scripts/bench_record.py --checkout ../parent -o BENCH_1.json
    python3 scripts/bench_record.py --compare BENCH_1.json BENCH_2.json

For each workload of BENCHMARK.json, runs the checkout's unchanged
`benchmarks/run.py` 5 times with `--trace 0`, then once with `--trace 1`,
at seed 1, each run `run_seconds` long (BENCHMARK.json), one at a time,
each in a new process started from the checkout's root.  Per workload the
file holds every run's end-to-end metrics with their median and quartiles,
the traced run's per-layer metrics, and for each run its argv, start time, wall time and the
environment line the benchmark prints (core count, numpy version, BLAS
threads).  At the top it names the code measured: the checkout's git SHA,
whether `src/` or `benchmarks/` differ from that commit, and a digest of
their Python files.  The default output is the next free BENCH_<n>.json
at the root of this repository.

`--compare OLD NEW` prints, per workload, each metric of two such files
side by side as a Markdown table.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from datetime import datetime, timezone

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, fmt, load_spec, quartiles, run_once  # noqa: E402

RUNS = 5  # --trace 0 runs per workload
SEED = 1  # the same in every BENCH file, so that successive files measure the same inputs

LAUNCHER = ("subprocess.run from scripts/bench_record.py, cwd = the checkout root, "
            "stdout and stderr captured, one run at a time")
# environment variables that change how a run computes or allocates
ENV_PATTERN = re.compile(r"(OPENBLAS|OMP|MKL)_NUM_THREADS|MALLOC_.*|PYTHON(HASHSEED|OPTIMIZE)")


def launch(checkout: str, spec: dict, workload: str, trace: int) -> dict:
    """One benchmark run in `checkout`: how it was launched, its environment line and its result."""
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.perf_counter()
    result, argv, lines = run_once(checkout, spec["command"], workload, SEED, spec["run_seconds"], trace)
    wall = time.perf_counter() - t0
    # "cores 2 numpy 2.4.6 blas_threads 2"
    words = next((line.split() for line in lines if line.startswith("cores ")), [])
    environment = {key: int(value) if value.isdigit() else value for key, value in zip(words[::2], words[1::2])}
    return {
        "argv": argv,
        "started_utc": started,
        "wall_s": round(wall, 3),
        "environment": environment,
        "correct": result.get("correct"),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m.get("unit") for name, m in result["metrics"].items()},
    }


def summarize(runs: list) -> dict:
    """Median and quartiles of each metric over `runs`."""
    summary = {}
    for name in runs[0]["metrics"]:
        q1, median, q3 = quartiles([r["metrics"][name] for r in runs])
        summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": runs[0]["units"][name]}
    return summary


def git(checkout: str, *args) -> str | None:
    if not os.path.exists(os.path.join(checkout, ".git")):
        return None
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(checkout: str) -> str:
    """sha256 over the relative paths and bytes of the checkout's src/ and benchmarks/ Python files."""
    h = hashlib.sha256()
    for pattern in ("src/**/*.py", "benchmarks/*.py"):
        for path in sorted(glob.glob(os.path.join(checkout, pattern), recursive=True)):
            h.update(os.path.relpath(path, checkout).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def record(checkout: str, workloads: list) -> dict:
    spec = load_spec()
    sha = git(checkout, "rev-parse", "HEAD")
    out = {
        "code": {
            "git_sha": sha,
            "differs_from_sha": bool(git(checkout, "status", "--porcelain", "--", "src", "benchmarks")) if sha else None,
            "source_sha256": source_digest(checkout),
        },
        "launch": {
            "launcher": LAUNCHER,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "environment_variables": {k: v for k, v in sorted(os.environ.items()) if ENV_PATTERN.fullmatch(k)},
            "seed": SEED,
            "seconds": spec["run_seconds"],
        },
        "workloads": {},
    }
    for workload in workloads:
        plain = []
        for i in range(RUNS):
            plain.append(launch(checkout, spec, workload, 0))
            print(f"{workload} run {i + 1}/{RUNS} done", file=sys.stderr, flush=True)
        traced = launch(checkout, spec, workload, 1)
        print(f"{workload} traced run done", file=sys.stderr, flush=True)
        out["workloads"][workload] = {
            "end_to_end": summarize(plain),
            "per_layer": {name: {"value": traced["metrics"][name], "unit": traced["units"][name]}
                          for name in traced["metrics"]},
            "runs": plain + [traced],
        }
    return out


def compare(old: dict, new: dict) -> list:
    """Markdown rows: workload, metric, old figure, new figure, relative change."""
    rows = ["| Workload | Metric | Old | New | Change |", "|---|---|---|---|---|"]
    for workload, w in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        figures = [(name, before["end_to_end"][name]["median"], m["median"])
                   for name, m in w["end_to_end"].items() if name in before["end_to_end"]]
        figures += [(name, before["per_layer"][name]["value"], m["value"])
                    for name, m in w["per_layer"].items() if name in before["per_layer"]]
        for name, a, b in figures:
            rel = f"{(b / a - 1) * 100:+.1f}%" if a else "n/a"
            rows.append(f"| {workload} | {name} | {fmt(a)} | {fmt(b)} | {rel} |")
    return rows


def next_path() -> str:
    taken = [int(m.group(1)) for p in os.listdir(ROOT) if (m := re.fullmatch(r"BENCH_(\d+)\.json", p))]
    return os.path.join(ROOT, f"BENCH_{max(taken, default=0) + 1}.json")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--checkout", default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("-o", "--output", help="default: the next free BENCH_<n>.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="print two files' figures and stop")
    args = parser.parse_args(argv)

    if args.compare:
        with open(args.compare[0], encoding="utf-8") as f, open(args.compare[1], encoding="utf-8") as g:
            print("\n".join(compare(json.load(f), json.load(g))))
        return 0
    out = record(os.path.abspath(args.checkout), args.workload or names)
    path = args.output or next_path()
    with open(path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(path)
    faults = [f"{w} run {i}" for w, entry in out["workloads"].items()
              for i, r in enumerate(entry["runs"]) if not r["correct"] or r["failed"]]
    for line in faults:
        print(f"NOT CORRECT: {line}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
