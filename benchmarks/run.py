"""Benchmark of stdcl's training and test-time paths.

Usage, from the repository root:

    python3 benchmarks/run.py --workload decoupling --seed 0 --seconds 20 --trace 0

One process runs one workload (see workloads.py and README.md).  Set-up
(generate the dataset, write it, read it back) is repeated and its median
reported.  Then whole rounds (fit with the framework on, fit with it off,
reload and evaluate the checkpoint, embed the training set) repeat until
`--seconds` have passed, and at least twice so that repeats can be compared.
Set-up time is the median over the rounds; each throughput is that of the
fastest of its calls in the run (README.md says why).  The correctness
checks (checks.py) run on the outputs afterwards.

`--trace 0` prints the end-to-end metrics.  `--trace 1` wraps stdcl's layer
entry points (tracing.py), prints the per-layer metrics instead, and writes
every span to `.bench_out/trace-<workload>-seed<seed>.jsonl`.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

The program is imported from `src/` of the checkout this file sits in; the
run stops with exit code 2 when those sources are missing.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_checkout_sources() -> bool:
    """Put the checkout's `src/` first on the import path; False if it is absent."""
    package = os.path.join(SRC, "stdcl")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no stdcl sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import stdcl

    if os.path.dirname(os.path.abspath(stdcl.__file__)) != package:
        print(f"error: imported stdcl from {stdcl.__file__}, not from {package}", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    if not use_checkout_sources():
        sys.exit(2)
    import bench

    sys.exit(bench.main())
