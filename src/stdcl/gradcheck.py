"""Central finite-difference gradient checking.

The checker is the independent oracle for every backward rule in the
engine: it re-evaluates the forward pass at perturbed inputs and never
consults the tape.  All checks force 64-bit precision regardless of the
process-wide setting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, NumericError
from .rng import seeded_rng
from .tensor import Tensor

DEFAULT_STEP = 1e-5
OP_TOLERANCE = 1e-4
PIPELINE_TOLERANCE = 1e-3


@dataclass
class GradCheckResult:
    name: str
    trials: int
    max_rel_err: float
    tolerance: float
    worst_param: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{status}  {self.name:<24} max rel err {self.max_rel_err:.3e} (tol {self.tolerance:.0e}, {self.trials} trials)"
        if not self.passed and self.worst_param:
            line += f" worst block: {self.worst_param}"
        return line


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def analytic_gradients(fn, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    tensors = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    out = fn(tensors)
    out.backward()
    return {k: (t.grad if t.grad is not None else np.zeros_like(t.data)) for k, t in tensors.items()}


def finite_difference_gradients(
    fn, params: dict[str, np.ndarray], h: float = DEFAULT_STEP
) -> dict[str, np.ndarray]:
    """Central differences of fn w.r.t. every element of every parameter."""

    def evaluate(values: dict[str, np.ndarray]) -> float:
        return fn({k: Tensor(v) for k, v in values.items()}).item()

    grads = {}
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    for name in params:
        flat = work[name].reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = evaluate(work)
            flat[i] = original - h
            down = evaluate(work)
            flat[i] = original
            g[i] = (up - down) / (2.0 * h)
        grads[name] = g.reshape(work[name].shape)
    return grads


def compare_gradients(fn, params: dict[str, np.ndarray], h: float = DEFAULT_STEP) -> dict[str, float]:
    """Per-parameter relative error between analytic and finite-difference grads."""
    with tz.using_precision("float64"):
        analytic = analytic_gradients(fn, params)
        numeric = finite_difference_gradients(fn, params, h=h)
    return {k: relative_error(analytic[k], numeric[k]) for k in params}


# ---------------------------------------------------------------------------
# op registry: each builder returns (params, scalar_fn)


def _projector(rng, shape):
    r = Tensor(rng.standard_normal(shape))

    def project(out: Tensor) -> Tensor:
        return tz.sum_all(tz.mul(out, r))

    return project


def _case_matmul(rng):
    """A chain of 2-d @ 2-d, 2-d @ batched (the joint mixing) and batched @ 2-d (the decoupler)."""
    shapes = {"a": (3, 4), "b": (4, 4), "batched": (2, 4, 2), "c": (2, 5)}
    params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    project = _projector(rng, (2, 3, 5))
    return params, lambda t: project(tz.matmul(tz.matmul(tz.matmul(t["a"], t["b"]), t["batched"]), t["c"]))


def _case_add(rng):
    """Same shapes, then a trailing-shape operand broadcast over the leading axis."""
    params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4)),
              "row": rng.standard_normal((4,))}
    project = _projector(rng, (3, 4))
    return params, lambda t: project(tz.add(tz.add(t["a"], t["b"]), t["row"]))


def _case_sub(rng):
    params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4))}
    project = _projector(rng, (3, 4))
    return params, lambda t: project(tz.sub(t["a"], t["b"]))


def _case_mul(rng):
    params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4))}
    project = _projector(rng, (3, 4))
    return params, lambda t: project(tz.mul(t["a"], t["b"]))


def _case_scalar_mul(rng):
    params = {"x": rng.standard_normal((3, 4))}
    c = float(rng.uniform(-2, 2))
    project = _projector(rng, (3, 4))
    return params, lambda t: project(tz.scalar_mul(t["x"], c))


def _case_add_scalar(rng):
    params = {"x": rng.standard_normal((3, 4)), "s": rng.standard_normal(())}
    project = _projector(rng, (3, 4))
    return params, lambda t: project(tz.add_scalar(t["x"], t["s"]))


def _case_exp(rng):
    params = {"x": rng.uniform(-1, 1, (3, 4))}
    project = _projector(rng, (3, 4))
    return params, lambda t: project(tz.exp(t["x"]))


def _case_log(rng):
    params = {"x": rng.uniform(0.5, 2.0, (3, 4))}
    project = _projector(rng, (3, 4))
    return params, lambda t: project(tz.log(t["x"]))


def _case_relu(rng):
    # keep inputs away from the kink so central differences stay valid
    magnitude = rng.uniform(0.1, 1.0, (3, 4))
    sign = rng.choice([-1.0, 1.0], (3, 4))
    params = {"x": magnitude * sign}
    project = _projector(rng, (3, 4))
    return params, lambda t: project(tz.relu(t["x"]))


def _case_reshape(rng):
    params = {"x": rng.standard_normal((3, 4))}
    project = _projector(rng, (2, 6))
    return params, lambda t: project(tz.reshape(t["x"], (2, 6)))


def _case_gather1d(rng):
    params = {"x": rng.standard_normal((10,))}
    idx = rng.integers(0, 10, size=6).tolist()  # repeats exercise scatter-add
    project = _projector(rng, (6,))
    return params, lambda t: project(tz.gather1d(t["x"], idx))


def _case_sum_over_axes(rng):
    params = {"x": rng.standard_normal((2, 3, 4))}
    axes = (0, 2)
    project = _projector(rng, (3,))
    return params, lambda t: project(tz.sum_over_axes(t["x"], axes))


def _case_mean_over_axes(rng):
    params = {"x": rng.standard_normal((2, 3, 4))}
    axes = (0, 2)
    project = _projector(rng, (3,))
    return params, lambda t: project(tz.mean_over_axes(t["x"], axes))


def _case_softmax_cross_entropy(rng):
    """A single (K,) vector, and (B, K) rows with one target each."""
    params = {"logits": rng.standard_normal((7,)), "rows": rng.standard_normal((3, 7))}
    target = int(rng.integers(0, 7))
    targets = rng.integers(0, 7, size=3)
    project = _projector(rng, (3,))
    return params, lambda t: tz.add(tz.softmax_cross_entropy(t["logits"], target),
                                    project(tz.softmax_cross_entropy(t["rows"], targets)))


def _case_l2_normalize(rng):
    v = rng.standard_normal((6,))
    v *= max(1.0, 0.5 / np.linalg.norm(v))
    params = {"v": v}
    project = _projector(rng, (6,))
    return params, lambda t: project(tz.l2_normalize(t["v"]))


def _case_temporal_conv(rng):
    params = {
        "x": rng.standard_normal((2, 2, 7, 3)),
        "w": rng.standard_normal((3, 3, 4)),
        "b": rng.standard_normal((4,)),
    }
    stride = int(rng.choice([1, 2]))
    padding = str(rng.choice(["zero", "circular"]))
    t_out = -(-7 // stride)
    project = _projector(rng, (2, 2, t_out, 4))
    return params, lambda t: project(
        tz.temporal_conv(t["x"], t["w"], t["b"], stride=stride, padding=padding)
    )


def _case_info_nce_batch(rng):
    """Both loss forms over three anchors; the third one's label is not in the bank.

    Each labelled anchor has two bank rows near its own direction and one
    near its opposite (a skipped positive in the literal form), and the
    other rows lie near orthogonal directions, so every kept literal
    denominator stays far from the clamp.
    """
    from .contrast import ContrastConfig, MemoryBank, info_nce_batch, sample_batch, score_heads

    dim = 5
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    axes = basis.T

    def near(direction):
        return direction + 0.3 * rng.standard_normal(dim)

    rows = [near(axes[0]), near(axes[0]), near(-axes[0]),
            near(axes[1]), near(axes[1]), near(-axes[1]),
            near(axes[3]), near(axes[4]), near(axes[3] + axes[4])]
    bank = MemoryBank(len(rows) + 3, dim, name="gradcheck", seed=0)
    for slot, (row, label) in enumerate(zip(rows, [0, 0, 0, 1, 1, 1, 2, 2, 2])):
        bank.update(slot, row, label)
    anchors = np.stack([2.0 * axes[0], 1.5 * axes[1], axes[2]]) + 0.1 * rng.standard_normal((3, dim))
    tau = float(rng.uniform(0.5, 1.0))
    forms = [ContrastConfig(tau=tau, n_pos_hard=3, n_neg_hard=2, n_neg_rand=2, loss_form=form)
             for form in ("exponentiated", "literal")]
    mined = sample_batch([bank], score_heads([bank], anchors)[2], [0, 1, 7], [9, 10, 11], forms[0], [rng])
    projections = [_projector(rng, (3,)) for _ in forms]

    def fn(t):
        scored = score_heads([bank], t["anchors"].data)
        terms = [project(info_nce_batch([t["anchors"]], [bank], scored, mined, cfg)[0][0])
                 for cfg, project in zip(forms, projections)]
        return tz.add(*terms)

    return {"anchors": anchors}, fn


OP_CASES = {
    "matmul": _case_matmul,
    "add": _case_add,
    "sub": _case_sub,
    "mul": _case_mul,
    "scalar_mul": _case_scalar_mul,
    "add_scalar": _case_add_scalar,
    "exp": _case_exp,
    "log": _case_log,
    "relu": _case_relu,
    "reshape": _case_reshape,
    "gather1d": _case_gather1d,
    "sum_over_axes": _case_sum_over_axes,
    "mean_over_axes": _case_mean_over_axes,
    "softmax_cross_entropy": _case_softmax_cross_entropy,
    "l2_normalize": _case_l2_normalize,
    "temporal_conv": _case_temporal_conv,
    "info_nce_batch": _case_info_nce_batch,
}


def registered_ops() -> list[str]:
    return sorted(OP_CASES)


def _op_names(ops) -> list[str]:
    """The ops to check, every registered one for None; ConfigError names any unknown one."""
    names = registered_ops() if ops is None else list(ops)
    unknown = [n for n in names if n not in OP_CASES]
    if unknown:
        raise ConfigError(f"unknown op(s) for gradient check: {unknown}; known: {registered_ops()}")
    return names


def _require_trials(*counts: int) -> None:
    for trials in counts:
        if trials < 1:
            raise ConfigError(f"a gradient check needs at least 1 trial, got {trials}")


def _run_trials(name: str, cases, trials: int, h: float, tol: float) -> GradCheckResult:
    """The one trial loop: the worst relative error over the first `trials` (params, fn) cases, and its parameter."""
    worst, worst_param = 0.0, ""
    for params, fn in itertools.islice(cases, trials):
        for pname, err in compare_gradients(fn, params, h=h).items():
            if err > worst:
                worst, worst_param = err, pname
    return GradCheckResult(name, trials, worst, tol, worst_param)


def _op_cases(name: str, seed: int):
    """Trial t of op `name` draws its case from its own stream, gradcheck/{name}/{t}."""
    for trial in itertools.count():
        yield OP_CASES[name](seeded_rng(seed, f"gradcheck/{name}/{trial}"))


def run_op_checks(
    ops=None,
    trials: int = 20,
    seed: int = 0,
    h: float = DEFAULT_STEP,
    tol: float = OP_TOLERANCE,
) -> list[GradCheckResult]:
    names = _op_names(ops)
    _require_trials(trials)
    return [_run_trials(name, _op_cases(name, seed), trials, h, tol) for name in names]


# ---------------------------------------------------------------------------
# full-pipeline check on a tiny configuration


def _build_pipeline_case(seed: int):
    """One random instance of the complete training loss on tiny shapes.

    A batch of two sequences runs through the batched encoder, head and
    decoupler, as in a training step.  Frozen pieces (inputs, bank contents,
    mined sample indices) are data; the returned fn is a smooth function of
    the parameters.  Seeds whose forward pass lands too close to a relu kink
    or a degenerate embedding norm are rejected by the caller.
    """
    from .contrast import ContrastConfig, info_nce_batch, make_banks, sample_batch, score_heads
    from .decoupling import decouple, init_decoupler
    from .encoder import EncoderConfig, encode, classify, init_params

    rng = seeded_rng(seed, "gradcheck/pipeline")
    cfg = EncoderConfig(
        joints=3, frames=8, channels=8, temporal_stride=2, hidden=(4,), kernel_size=3,
        joint_mixing="learned",  # exercise every trainable tensor kind
    )
    num_classes = 3
    params = init_params(cfg, num_classes, seed=seed)
    params.update(init_decoupler(
        joints=cfg.joints, out_frames=cfg.out_frames, channels=cfg.channels, reduction=2, dim=5, seed=seed + 1
    ))
    arrays = {k: t.data.copy() for k, t in params.items()}

    coords = rng.standard_normal((2, cfg.joints, cfg.frames, 3))
    labels = rng.integers(0, num_classes, size=2)
    anchor_slots = [0, 7]

    banks = make_banks(length=8, dim=5, seed=seed)
    bank_labels = rng.integers(0, num_classes, size=8)
    bank_labels[[1, 3]] = labels  # every anchor has a positive ...
    bank_labels[[2, 4]] = (labels + 1) % num_classes  # ... and a negative
    for bank in banks.values():  # slots 1-6: the spatial rows, then the temporal ones
        bank.update(np.arange(1, 7), rng.standard_normal((6, 5)), bank_labels[1:7])
    ccfg = ContrastConfig(tau=0.8, n_pos_hard=2, n_neg_hard=2, n_neg_rand=2)

    with tz.using_precision("float64"):
        # a probe forward on a tape, so the inputs of its relu nodes can be read off it
        probe = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        feat0 = encode(probe, cfg, coords)
        gaps = [np.min(np.abs(node._parents[0].data)) for node in tz._toposort(feat0) if node._op == "relu"]
        min_gap = min(gaps, default=np.inf)
        heads0 = decouple(feat0, probe)
        min_norm = min(float(np.linalg.norm(t.data, axis=1).min()) for t in heads0.values())
        both = list(banks.values())
        scores = score_heads(both, np.concatenate([t.data for t in heads0.values()]))[2]
        mined = sample_batch(both, scores, labels, anchor_slots, ccfg, [bank.rng for bank in both])

    def fn(tensors: dict[str, Tensor]) -> Tensor:
        feat = encode(tensors, cfg, coords)
        loss = tz.mean_over_axes(tz.softmax_cross_entropy(classify(tensors, feat), labels), (0,))
        anchors = list(decouple(feat, tensors).values())
        scored = score_heads(both, np.concatenate([t.data for t in anchors]))
        for nce in info_nce_batch(anchors, both, scored, mined, ccfg)[0]:
            loss = tz.add(loss, tz.mean_over_axes(nce, (0,)))
        return loss

    usable = min_gap > 1e-3 and min_norm > 1e-2
    return arrays, fn, usable


def _pipeline_cases(trials: int, seed: int):
    """Well-conditioned pipeline instances from at most trials * 20 + 1 attempts; NumericError past that."""
    for attempt in range(trials * 20 + 1):
        arrays, fn, usable = _build_pipeline_case(seed * 1000 + attempt)
        if usable:
            yield arrays, fn
    raise NumericError("pipeline gradcheck: could not find enough well-conditioned instances")


def run_pipeline_check(
    trials: int = 20, seed: int = 0, h: float = DEFAULT_STEP, tol: float = PIPELINE_TOLERANCE
) -> GradCheckResult:
    _require_trials(trials)
    return _run_trials("full_pipeline", _pipeline_cases(trials, seed), trials, h, tol)


def run_checks(
    ops=None, trials: int = 20, pipeline_trials: int = 20, seed: int = 0, fault: str | None = None
) -> list[GradCheckResult]:
    """The checks `stdcl gradcheck` runs: the named ops, or every op and then the full pipeline.

    `fault` names an op whose backward rule is flipped throughout.  Every op
    name and trial count is checked before the first check runs.
    """
    names = _op_names(ops)
    _op_names([fault] if fault else [])
    _require_trials(trials, pipeline_trials if ops is None else 1)
    with tz.inject_backward_fault(fault):
        results = run_op_checks(names, trials, seed)
        if ops is None:
            results.append(run_pipeline_check(pipeline_trials, seed))
    return results
