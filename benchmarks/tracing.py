"""Span recorder for the traced benchmark run.

`install(recorder)` replaces the public functions each stdcl layer exposes
with wrappers that open a span around the original call.  It patches the
attribute that the *caller* looks up (for example `stdcl.train.encode`,
which `train_step` and `embedding_report` call, as well as
`stdcl.encoder.encode`, which `test_forward` calls), so the program itself
is unchanged.  Spans stay in memory as `[name, start, end, parent]` rows and
are written out once, at the end of the run.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Work of the benchmark's own gets `bench.*` spans, so no
layer is charged for it: the tape walk that counts `tensor.tape_nodes`
(`bench.tape_walk`) and the core-speed calibrations (`bench.calibration`).  The backward rule of `temporal_conv` is wrapped as well, so
`tensor.temporal_conv` covers the convolution forward and backward and
`tensor.backward` the rest of the tape replay.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

from stdcl import contrast, data, decoupling, encoder, metrics, train
from stdcl import tensor as tz

_now = time.perf_counter


class Recorder:
    """In-memory spans plus event counts, both cut into rounds by the caller."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, _now(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = _now()

        return wrapper

    def self_times(self, start: int = 0, stop: int | None = None) -> dict:
        """Summed self time per span name over spans[start:stop]."""
        stop = len(self.spans) if stop is None else stop
        covered: dict = defaultdict(float)
        for name, t0, t1, parent in self.spans[start:stop]:
            if parent >= start:
                covered[parent] += t1 - t0
        totals: dict = defaultdict(float)
        for i in range(start, stop):
            name, t0, t1, _ = self.spans[i]
            totals[name] += (t1 - t0) - covered.get(i, 0.0)
        return dict(totals)

    def durations(self, name: str, start: int = 0, stop: int | None = None) -> list:
        stop = len(self.spans) if stop is None else stop
        return [t1 - t0 for n, t0, t1, _ in self.spans[start:stop] if n == name]

    def write(self, path: str, summary: dict) -> None:
        """One summary line, then one JSON row per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(summary, sort_keys=True) + "\n")
            for row in self.spans:
                f.write(json.dumps(row) + "\n")


def _tape_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(rec: Recorder) -> None:
    """Wrap every traced entry point of stdcl for the rest of the process."""

    def patch(owners, attr: str, make):
        wrapped = make(getattr(owners[0], attr))
        for owner in owners:
            setattr(owner, attr, wrapped)

    def timed(name: str):
        return lambda original: rec.wrap(name, original)

    def conv(original):
        timed = rec.wrap("tensor.temporal_conv", original)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            if out._backward_fn is not None:
                out._backward_fn = rec.wrap("tensor.temporal_conv", out._backward_fn)
            return out

        return wrapper

    def backward(original):
        timed = rec.wrap("tensor.backward", original)
        walk = rec.wrap("bench.tape_walk", _tape_nodes)

        def wrapper(self):
            rec.counts["tensor.tape_nodes"] += walk(self)
            return timed(self)

        return wrapper

    def counted(name: str, count: str):
        def make(original):
            timed = rec.wrap(name, original)

            def wrapper(*args, **kwargs):
                rec.counts[count] += 1
                return timed(*args, **kwargs)

            return wrapper

        return make

    def sample(original):
        timed = rec.wrap("contrast.sample", original)

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            rec.counts["contrast.anchors"] += 1
            if result is not None:
                rec.counts["contrast.mined"] += 1
            return result

        return wrapper

    def nce(original):
        timed = rec.wrap("contrast.info_nce", original)

        def wrapper(anchor, sample, bank, cfg):
            rec.counts["contrast.rows_scored"] += sample.positives.size + sample.negatives.size
            rec.counts["contrast.info_nce_calls"] += 1
            return timed(anchor, sample, bank, cfg)

        return wrapper

    def save_ckpt(original):
        timed = rec.wrap("checkpoint.save", original)

        def wrapper(path, arrays, meta):
            timed(path, arrays, meta)
            rec.counts["checkpoint.bytes"] += os.path.getsize(path)

        return wrapper

    patch([tz], "temporal_conv", conv)
    patch([tz.Tensor], "backward", backward)
    patch([encoder, train], "encode", counted("encoder.encode", "encoder.encode_calls"))
    patch([decoupling, train], "decouple", counted("decoupling.decouple", "decoupling.decouple_calls"))
    patch([contrast], "sample_contrast", sample)
    patch([contrast], "info_nce", nce)
    patch([contrast.MemoryBank], "update", timed("contrast.bank_update"))
    patch([train], "train_step", counted("train.step", "train.steps"))
    patch([train.SGD], "step", timed("train.sgd"))
    patch([train], "evaluate", timed("train.evaluate"))
    patch([train], "embedding_report", timed("train.embedding_report"))
    patch([metrics, train], "silhouette_score", timed("metrics.silhouette"))
    patch([data], "generate_synthetic", timed("data.generate"))
    patch([data], "save_dataset", timed("data.save"))
    patch([data], "load_dataset", timed("data.load"))
    patch([train], "save_checkpoint", save_ckpt)
    patch([train], "load_checkpoint", timed("checkpoint.load"))


# per-layer time metric -> the span name whose self time it sums
LAYER_TIMES = {
    "tensor.backward_s": "tensor.backward",
    "tensor.temporal_conv_s": "tensor.temporal_conv",
    "encoder.encode_s": "encoder.encode",
    "decoupling.decouple_s": "decoupling.decouple",
    "contrast.sample_s": "contrast.sample",
    "contrast.info_nce_s": "contrast.info_nce",
    "contrast.bank_update_s": "contrast.bank_update",
    "train.step_s": "train.step",
    "train.sgd_s": "train.sgd",
    "train.evaluate_s": "train.evaluate",
    "train.embedding_report_s": "train.embedding_report",
    "metrics.silhouette_s": "metrics.silhouette",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "data.generate_s": "data.generate",
    "data.save_s": "data.save",
    "data.load_s": "data.load",
}


def round_layer_metrics(rec: Recorder, span_range: tuple, counts: Counter) -> dict:
    """Per-layer figures of one round: self times in s, counts per round."""
    self_times = rec.self_times(*span_range)
    out = {metric: self_times.get(name, 0.0) for metric, name in LAYER_TIMES.items()}
    steps = counts["train.steps"]
    anchors = counts["contrast.anchors"]
    nce_calls = counts["contrast.info_nce_calls"]
    out.update({
        "tensor.tape_nodes": counts["tensor.tape_nodes"] / steps if steps else 0.0,
        "encoder.encode_calls": counts["encoder.encode_calls"],
        "decoupling.decouple_calls": counts["decoupling.decouple_calls"],
        "contrast.anchors": anchors,
        "contrast.rows_scored": counts["contrast.rows_scored"] / nce_calls if nce_calls else 0.0,
        "contrast.mined_ratio": counts["contrast.mined"] / anchors if anchors else 0.0,
        "train.steps": steps,
        "checkpoint.bytes": counts["checkpoint.bytes"],
    })
    return out


def step_latency_ms(rec: Recorder, span_ranges: list) -> tuple:
    """(p50, p95, sample count) of whole `train_step` durations in ms, over the ranges."""
    steps = np.array([t for r in span_ranges for t in rec.durations("train.step", *r)]) * 1e3
    return float(np.percentile(steps, 50)), float(np.percentile(steps, 95)), int(steps.size)


LAYER_UNITS = {
    **{metric: "s" for metric in LAYER_TIMES},
    "tensor.tape_nodes": "count",
    "encoder.encode_calls": "count",
    "decoupling.decouple_calls": "count",
    "contrast.anchors": "count",
    "contrast.rows_scored": "count",
    "contrast.mined_ratio": "ratio",
    "train.steps": "count",
    "train.step_ms_p50": "ms",
    "train.step_ms_p95": "ms",
    "checkpoint.bytes": "bytes",
}
