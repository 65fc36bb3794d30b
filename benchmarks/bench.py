"""Measurement loop, metrics and output of the stdcl benchmark (see run.py)."""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import checks
import tracing
from stdcl import contrast, data, instrumentation, train
from stdcl.tensor import Tensor
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")

_now = time.perf_counter

E2E_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "baseline_train_samples_per_s": "samples/s",
    "eval_seqs_per_s": "sequences/s",
    "embed_seqs_per_s": "sequences/s",
    "peak_rss_mb": "MB",
}
COUNTER_KEYS = ("bank_reads", "bank_writes", "decouple_calls")
MINING_ANCHORS = 8

# Other tenants of the machine slow each core by up to ~1.5x for seconds at
# a time (README.md).  So every timed call is bracketed by a fixed calibration
# loop, and its duration is scaled to a core on which that loop takes
# CALIBRATION_REFERENCE_S.  The loop mixes interpreter work and small NumPy
# calls, the two costs that dominate stdcl; the best of three short passes
# keeps a stray interrupt out of the reading.
CALIBRATION_REFERENCE_S = 2.0e-3
SPLIT_STEPS = 10
SPLIT_ENCODES = 80
_CAL_A = np.linspace(-1.0, 1.0, 24 * 32).reshape(24, 32)
_CAL_B = np.linspace(1.0, -1.0, 32 * 32).reshape(32, 32)


def calibration_s() -> float:
    passes = []
    for _ in range(3):
        t0 = _now()
        total = 0
        for i in range(20_000):
            total += i
        for _ in range(200):
            np.isfinite(_CAL_A @ _CAL_B).all()
        passes.append(_now() - t0)
    return min(passes)


class Clock:
    """Times calls, scaling each stretch of a call by the core speed around it.

    The clock calibrates between consecutive calls, and `split()` calibrates
    inside a call too (see `calibration_splits`), so a long call is scaled
    stretch by stretch.  Calibration time is left out of the call's duration.
    """

    def __init__(self, calibrate=calibration_s):
        self.calibrate = calibrate
        self.last = calibrate()
        self.wall = self.scaled = self.start = 0.0

    def split(self) -> None:
        elapsed = _now() - self.start
        now = self.calibrate()
        self.wall += elapsed
        self.scaled += elapsed * CALIBRATION_REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.start = _now()

    def __call__(self, fn, *args, **kwargs) -> tuple:
        """(result, (wall seconds, seconds scaled to the reference core speed))."""
        self.wall = self.scaled = 0.0
        self.start = _now()
        result = fn(*args, **kwargs)
        self.split()
        return result, (self.wall, self.scaled)


@contextmanager
def calibration_splits(clock: Clock):
    """Inside the block, long calls take clock splits.

    `fit` splits after every SPLIT_STEPS training steps, between steps, so
    no step's latency includes a calibration.  `embedding_report` splits
    after every SPLIT_ENCODES encoder calls.
    """
    train_step, encode = train.train_step, train.encode
    counts = {"steps": 0, "encodes": 0, "in_step": False}

    def split_steps(*args, **kwargs):
        counts["in_step"] = True
        try:
            record = train_step(*args, **kwargs)
        finally:
            counts["in_step"] = False
        counts["steps"] += 1
        if counts["steps"] % SPLIT_STEPS == 0:
            clock.split()
        return record

    def split_encodes(*args, **kwargs):
        features = encode(*args, **kwargs)
        if not counts["in_step"]:
            counts["encodes"] += 1
            if counts["encodes"] % SPLIT_ENCODES == 0:
                clock.split()
        return features

    train.train_step, train.encode = split_steps, split_encodes
    try:
        yield
    finally:
        train.train_step, train.encode = train_step, encode


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def set_up(w, seed: int, workdir: str, clock: Clock) -> tuple:
    """Generate, write and read back the workload's datasets; (train, eval), summed times."""
    parts = []
    generated, t = clock(w.generate, seed)
    parts.append(t)
    generated = [ds for ds in generated if ds is not None]
    paths = [os.path.join(workdir, f"{kind}{w.file_ext}") for kind in ("train", "eval")][: len(generated)]
    for ds, path in zip(generated, paths):
        parts.append(clock(data.save_dataset, ds, path)[1])
    loaded = []
    for path in paths:
        ds, t = clock(data.load_dataset, path)
        loaded.append(ds)
        parts.append(t)
    return (loaded[0], loaded[-1]), tuple(map(sum, zip(*parts)))


def reload_and_evaluate(checkpoint: str, eval_ds) -> tuple:
    """`stdcl eval`: load the checkpoint, then score the eval set."""
    model, _ = train.load_model(checkpoint)
    return train.evaluate(model, eval_ds), model


def run_round(w, seed: int, workdir: str, rec, clock: Clock) -> tuple:
    """One pass of the whole pipeline, with an evaluation after each fit and the embedding.

    Returns the round's record for the metrics and checks, and its last
    outputs (datasets, fit result, reloaded model, embeddings).
    """
    spans_at, counts_at = (len(rec.spans), Counter(rec.counts)) if rec else (0, None)
    times = {"setup": [], "fit_on": [], "fit_off": [], "eval": [], "embed": []}
    eval_counters = Counter()

    def evaluate():
        instrumentation.reset()
        (report, model), t = clock(reload_and_evaluate, fit_on.checkpoint_path, eval_ds)
        times["eval"].append(t)
        eval_counters.update({k: instrumentation.count(k) for k in COUNTER_KEYS})
        return report, model

    (train_ds, eval_ds), t = set_up(w, seed, workdir, clock)
    times["setup"].append(t)
    fit_on_at = len(rec.spans) if rec else 0
    fit_on, t = clock(train.fit, train_ds, w.encoder, w.train_config(seed, True),
                      out_dir=os.path.join(workdir, "on"))
    times["fit_on"].append(t)
    fit_on_spans = (fit_on_at, len(rec.spans)) if rec else None
    evaluate()
    instrumentation.reset()
    fit_off, t = clock(train.fit, train_ds, w.encoder, w.train_config(seed, False),
                       out_dir=os.path.join(workdir, "off"))
    times["fit_off"].append(t)
    baseline_counters = {k: instrumentation.count(k) for k in ("bank_reads", "bank_writes")}
    evaluate()
    embeddings, t = clock(train.embedding_report, fit_on.model, train_ds)
    times["embed"].append(t)
    report, model = evaluate()

    layers = None
    if rec:
        layers = tracing.round_layer_metrics(rec, (spans_at, len(rec.spans)), rec.counts - counts_at)

    # untimed: the outputs the checks compare
    logits = np.stack([train.predict_logits(model, seq.coords) for seq in eval_ds])
    record = {
        "times": times,
        "work": {"fit_on": len(train_ds) * w.epochs(), "fit_off": len(train_ds) * w.epochs(),
                 "eval": len(eval_ds), "embed": len(train_ds)},
        "history_on": [(r.loss_ce, r.loss_spatial, r.loss_temporal, r.total) for r in fit_on.history],
        "history_off": [(r.loss_ce, r.loss_spatial, r.loss_temporal, r.total) for r in fit_off.history],
        "logits": logits,
        "predictions": np.argmax(logits, axis=1),
        "accuracy": report.accuracy,
        "per_class": report.per_class,
        "eval_counters": dict(eval_counters),
        "baseline_counters": baseline_counters,
        "layers": layers,
        "fit_on_spans": fit_on_spans,
    }
    last = {"train_ds": train_ds, "eval_ds": eval_ds, "fit_on": fit_on, "model": model,
            "embeddings": embeddings}
    return record, last


def mine_fixed_anchors(w, seed: int, last: dict) -> tuple:
    """Mine both final banks for fixed anchors: (contrast config, [(bank, anchor, label, slot, sample, loss)])."""
    cfg = w.train_config(seed, True).contrast_config()
    rng = np.random.default_rng(seed)
    train_ds, embeddings = last["train_ds"], last["embeddings"]
    slots = np.linspace(0, len(train_ds) - 1, MINING_ANCHORS).astype(int).tolist()
    mined = []
    for head, bank in sorted(last["fit_on"].banks.items()):
        rows = getattr(embeddings, head)
        for slot in slots:
            label = train_ds[slot].label
            sample = contrast.sample_contrast(bank, rows[slot], label, slot, cfg, rng)
            loss, _ = contrast.info_nce(Tensor(rows[slot]), sample, bank, cfg)
            mined.append((bank, rows[slot], label, slot, sample, loss.item()))
    return cfg, mined


def run_checks(w, seed: int, rounds: list, last: dict) -> dict:
    """Every correctness check of the workload: name -> list of failures."""
    final = rounds[-1]
    model, fit_on = last["model"], last["fit_on"]
    train_ds, eval_ds = last["train_ds"], last["eval_ds"]
    results = {
        "reference_forward": checks.check_reference_forward(
            {k: t.data for k, t in model.params.items()}, w.encoder,
            np.stack([seq.coords for seq in eval_ds]), eval_ds.labels(),
            final["logits"], final["predictions"], final["accuracy"], final["per_class"],
        ),
        "path_purity": [f for r in rounds for f in checks.check_counters(r["eval_counters"], r["baseline_counters"])],
        "finite_losses": [
            f for r in rounds
            for f in checks.check_finite_losses({"on": r["history_on"], "off": r["history_off"]})
        ],
        "step0_ce": [f for r in rounds for f in checks.check_step0_ce(r["history_on"], r["history_off"])],
        "repeats": checks.check_repeats(rounds),
        "checkpoint": checks.check_checkpoint(
            {k: t.data for k, t in model.named_tensors().items()},
            {k: t.data for k, t in fit_on.model.named_tensors().items()},
        ),
    }
    emb = last["embeddings"]
    if w.check_decoupled:
        results["decoupled"], scores = checks.check_decoupled(
            emb.spatial, emb.temporal, emb.labels, w.spec.num_temporal)
        print("silhouettes " + " ".join(f"{k}={v:+.4f}" for k, v in scores.items()))
    if w.check_banks:
        cfg, mined = mine_fixed_anchors(w, seed, last)
        results["banks"] = [f for bank in fit_on.banks.values() for f in checks.check_bank(bank)]
        results["mining"] = [
            f for bank, anchor, label, slot, sample, _ in mined
            for f in checks.check_mining(bank, anchor, label, slot, cfg, sample)
        ]
        results["info_nce"] = [
            f for bank, anchor, _, _, sample, loss in mined
            for f in checks.check_info_nce(bank, anchor, sample, cfg.tau, loss)
        ]
        results["above_chance"] = checks.check_above_chance(final["accuracy"], eval_ds.num_classes)
    return results


def measure(w, seed: int, seconds: float, rec, workdir: str) -> dict:
    """Rounds until `seconds` have passed (at least two), then the checks."""
    rounds, last = [], None
    clock = Clock(rec.wrap("bench.calibration", calibration_s) if rec else calibration_s)
    start = _now()
    with calibration_splits(clock):
        while len(rounds) < 2 or _now() - start < seconds:
            record, last = run_round(w, seed, workdir, rec, clock)
            rounds.append(record)
    results = run_checks(w, seed, rounds, last)

    def median(scaled: bool) -> dict:
        """End-to-end figures from wall (False) or core-speed-scaled (True) durations."""
        def per_s(name):
            return statistics.median(r["work"][name] / t[scaled] for r in rounds for t in r["times"][name])

        return {
            "setup_s": statistics.median(t[scaled] for r in rounds for t in r["times"]["setup"]),
            "train_samples_per_s": per_s("fit_on"),
            "baseline_train_samples_per_s": per_s("fit_off"),
            "eval_seqs_per_s": per_s("eval"),
            "embed_seqs_per_s": per_s("embed"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    # operations: per round one set-up, two fits, their training steps, the
    # evaluated and the embedded sequences; then one per check
    attempted = len(results) + sum(
        3 + len(r["history_on"]) + len(r["history_off"])
        + len(r["times"]["eval"]) * r["work"]["eval"] + r["work"]["embed"]
        for r in rounds
    )
    return {"e2e": median(True), "e2e_wall": median(False), "rounds": rounds, "last": last,
            "checks": results, "attempted": attempted}


def layer_metrics(run: dict, rec) -> tuple:
    """Per-layer figures, each the median over rounds; plus the step-latency sample count."""
    per_round = [r["layers"] for r in run["rounds"]]
    values = {k: statistics.median(layer[k] for layer in per_round) for k in per_round[0]}
    p50, p95, count = tracing.step_latency_ms(rec, [r["fit_on_spans"] for r in run["rounds"]])
    values["train.step_ms_p50"], values["train.step_ms_p95"] = p50, p95
    return values, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one stdcl workload.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"cores {os.cpu_count()} numpy {np.__version__} blas_threads {blas_threads()}")

    rec = None
    if args.trace:
        rec = tracing.Recorder()
        tracing.install(rec)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    try:
        run = measure(w, args.seed, args.seconds, rec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{name}: {f}" for name, fs in run["checks"].items() for f in fs]
    print(f"rounds {len(run['rounds'])} checks {len(run['checks'])} failed_checks {len(failures)}")
    for line in failures:
        print(f"CHECK FAILED {line}")
    for name, value in run["e2e"].items():
        unscaled = "" if name == "peak_rss_mb" else f" (wall clock, unscaled: {run['e2e_wall'][name]:.6g})"
        print(f"{name} {value:.6g} {E2E_UNITS[name]}{unscaled}")

    if rec:
        values, step_count = layer_metrics(run, rec)
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in sorted(values.items())}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"train.step_ms percentiles over {step_count} framework-on steps")
        trace_path = os.path.join(OUT, f"trace-{w.name}-seed{args.seed}.jsonl")
        rec.write(trace_path, {
            "workload": w.name, "seed": args.seed, "rounds": len(run["rounds"]),
            "step_ms_samples": step_count, "per_layer": values,
            "per_round": [r["layers"] for r in run["rounds"]],
            "end_to_end_traced": run["e2e"],
            "end_to_end_traced_wall": run["e2e_wall"],
        })
        print(f"trace {os.path.relpath(trace_path, ROOT)} ({len(rec.spans)} spans)")
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in run["e2e"].items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": 0,
        "metrics": metrics,
    }))
    return 0
