"""Dense tensors with reverse-mode automatic differentiation.

A deliberately small engine: row-major numpy storage, a dynamic tape built
as ops execute, and hand-written backward rules replayed in reverse
topological order.  Broadcasting goes only as far as a leading batch axis
needs: `matmul` of a 2-d operand against a batched one, `add` of an operand
shaped like the other's trailing axes, and scalar operands.  No views.

A backward pass writes each gradient once: a tensor's first gradient
becomes .grad and later ones are added to it (`Tensor._accumulate`).  A
rule that computed its gradient itself hands it over without a copy
(`matmul`, `temporal_conv`, `relu`, `scalar_mul`, `softmax_cross_entropy`
and the contrast heads); a rule whose gradient is shared, a view or a
broadcast (`add`, `reshape`, the reductions, `gather1d`) has it copied.

Precision (float64 for gradient-check builds, float32 for training runs)
and checked mode are process-wide switches, not per-tensor properties.
The module imports in float64 checked mode.

Checked mode rejects any non-finite value, and it checks each value once,
where it is computed: the constructor scans its input, and every op scans
its result and raises NumericError naming itself.  The ops in
`UNSCANNED_OPS` only move or mask values of an input that was scanned when
it was made, so their results are not scanned again.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateVectorError, DimensionError, DomainError, NumericError

_DTYPES = {"float64": np.float64, "float32": np.float32}

_precision = "float64"
_checked = True
_grad_enabled = True

# Test hook: name of an op whose backward rule gets its sign flipped, used to
# prove the gradient checker actually catches broken rules.
_fault_op: str | None = None

# When not None, relu() appends min|input| here; the gradient checker uses it
# to reject test points that sit on the kink.
_relu_gap_trace: list | None = None

NORM_EPSILON = 1e-12

PADDING_MODES = ("zero", "circular")  # temporal_conv's padding

# Ops whose result holds only values of its input, moved (reshape, gather1d)
# or masked to zero (relu): finite whenever the input is, so checked mode
# does not scan them again.
UNSCANNED_OPS = frozenset({"reshape", "relu", "gather1d"})

# glibc raises its mmap and trim thresholds as the process frees large
# blocks, so whether a step's temporaries are reused from the heap or mapped,
# faulted in and returned on every step depends on what ran before.  Fixed
# thresholds make a fit's speed independent of that history.
MALLOC_MMAP_THRESHOLD = 4 << 20
MALLOC_TRIM_THRESHOLD = 8 << 20


def _fix_malloc_thresholds() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    mallopt(-3, MALLOC_MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, MALLOC_TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


_fix_malloc_thresholds()


def set_precision(name: str) -> None:
    global _precision
    if name not in _DTYPES:
        raise ValueError(f"unknown precision {name!r}; expected one of {sorted(_DTYPES)}")
    _precision = name


def active_dtype() -> np.dtype:
    return np.dtype(_DTYPES[_precision])


def set_checked(flag: bool) -> None:
    global _checked
    _checked = bool(flag)


def is_checked() -> bool:
    return _checked


@contextmanager
def using_precision(name: str):
    previous = _precision
    set_precision(name)
    try:
        yield
    finally:
        set_precision(previous)


@contextmanager
def no_grad():
    """Run ops inside the block without recording a tape (the test-time path)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


@contextmanager
def inject_backward_fault(op: str):
    """Flip the sign of `op`'s backward rule inside the block (test hook)."""
    global _fault_op
    previous = _fault_op
    _fault_op = op
    try:
        yield
    finally:
        _fault_op = previous


@contextmanager
def trace_relu_gaps():
    """Collect min|x| seen by relu() inside the block."""
    global _relu_gap_trace
    previous = _relu_gap_trace
    trace: list = []
    _relu_gap_trace = trace
    try:
        yield trace
    finally:
        _relu_gap_trace = previous


class Tensor:
    """A dense real tensor, optionally recording onto the autodiff tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=active_dtype())
        if _checked:
            _scan(arr, "tensor", "constructor input")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._op: str | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g (broadcastable to this tensor's shape) into .grad.

        The first gradient is written instead of being added to zeros; later
        ones are added in place.  A rule passes owned=True for a g it
        computed itself and that no other node holds: if g is an array of
        this tensor's shape and dtype it becomes .grad, with no copy (a
        0-d product can come back as a numpy scalar).  Otherwise the first
        g is copied, broadcast and cast to this tensor's dtype.  The copy is
        needed when g may be a view, or a buffer that another node also
        receives (`add` hands the same g to both operands).  Unlike
        zeros + g, either write keeps the sign of a zero: relu's `g * mask`
        hands over -0.0 where a negative g is masked, and .grad holds -0.0
        there.  Only .grad shows it; an SGD step adds it to a +0.0 velocity,
        which stays +0.0.
        """
        if self.grad is not None:
            self.grad += g
        elif owned and isinstance(g, np.ndarray) and g.shape == self.data.shape and g.dtype == self.data.dtype:
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)

    def backward(self) -> None:
        """Run the tape backward from this scalar, accumulating into .grad."""
        if self.size != 1:
            raise DimensionError(f"backward: root must be a scalar, got shape {self.shape}")
        order = _toposort(self)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward_fn is None:
                continue
            g = node.grad
            if _fault_op is not None and node._op == _fault_op:
                g = -g
            node._backward_fn(g)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _scan(data: np.ndarray, op: str, what: str) -> None:
    """Checked mode's one finiteness scan of a value, where `op` computed it."""
    if not np.isfinite(data).all():
        raise NumericError(f"{op}: non-finite value in {what}")


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    if _checked and op not in UNSCANNED_OPS:
        _scan(data, op, "result")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out._op = op
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
        out._op = None
    return out


# ---------------------------------------------------------------------------
# binary / elementwise ops


def _sum_to_rank(g: np.ndarray, ndim: int) -> np.ndarray:
    """Sum a gradient over the leading axes its operand was broadcast along."""
    return g.sum(axis=tuple(range(g.ndim - ndim))) if g.ndim > ndim else g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for 2-d operands, or a 2-d operand against a batched one (B, m, n)."""
    if min(a.data.ndim, b.data.ndim) != 2 or max(a.data.ndim, b.data.ndim) > 3:
        raise DimensionError(f"matmul: expects 2-d operands, or one 2-d and one 3-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_sum_to_rank(g @ b.data.swapaxes(-1, -2), a.data.ndim), owned=True)
        if b.requires_grad:
            b._accumulate(_sum_to_rank(a.data.swapaxes(-1, -2) @ g, b.data.ndim), owned=True)

    return _make(out_data, (a, b), backward, "matmul")


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes differ: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, where b has a's shape or the shape of a's trailing axes."""
    if b.data.ndim > a.data.ndim or a.shape[a.data.ndim - b.data.ndim :] != b.shape:
        raise DimensionError(f"add: {b.shape} is not the trailing shape of {a.shape}")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(_sum_to_rank(g, b.data.ndim))

    return _make(a.data + b.data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _make(a.data - b.data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _make(a.data * b.data, (a, b), backward, "mul")


def scalar_mul(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * c, owned=True)

    return _make(x.data * c, (x,), backward, "scalar_mul")


def add_scalar(x: Tensor, s) -> Tensor:
    """x + s where s is a python float or a scalar tensor (broadcast)."""
    if isinstance(s, Tensor):
        if s.size != 1:
            raise DimensionError(f"add_scalar: scalar operand has shape {s.shape}")

        def backward(g: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(g)
            if s.requires_grad:
                s._accumulate(np.asarray(g.sum()).reshape(s.shape))

        return _make(x.data + s.data.item(), (x, s), backward, "add_scalar")

    c = float(s)

    def backward_const(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g)

    return _make(x.data + c, (x,), backward_const, "add_scalar")


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * out_data)

    return _make(out_data, (x,), backward, "exp")


def log(x: Tensor) -> Tensor:
    if _checked and np.any(x.data <= 0):
        raise DomainError("log: input must be strictly positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g / x.data)

    return _make(out_data, (x,), backward, "log")


def relu(x: Tensor) -> Tensor:
    if _relu_gap_trace is not None:
        _relu_gap_trace.append(float(np.min(np.abs(x.data))) if x.size else np.inf)
    mask = x.data > 0

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask, owned=True)

    return _make(x.data * mask, (x,), backward, "relu")


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")
    old_shape = x.shape

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g.reshape(old_shape))

    return _make(x.data.reshape(shape), (x,), backward, "reshape")


def gather1d(x: Tensor, indices: Sequence[int]) -> Tensor:
    if x.data.ndim != 1:
        raise DimensionError(f"gather1d: expects a vector, got shape {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.size):
        raise IndexError(f"gather1d: index out of range for length {x.size}")

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            np.add.at(x.grad, idx, g)

    return _make(x.data[idx], (x,), backward, "gather1d")


# ---------------------------------------------------------------------------
# reductions


def _validate_axes(x: Tensor, axes, op: str) -> tuple[int, ...]:
    axes = tuple(sorted(int(a) for a in axes))
    if not axes:
        raise DimensionError(f"{op}: empty axis set (request identity explicitly instead)")
    if len(set(axes)) != len(axes):
        raise DimensionError(f"{op}: duplicate axes {axes}")
    if any(a < 0 or a >= x.data.ndim for a in axes):
        raise DimensionError(f"{op}: axis out of range for shape {x.shape}: {axes}")
    return axes


def sum_over_axes(x: Tensor, axes) -> Tensor:
    axes = _validate_axes(x, axes, "sum_over_axes")

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.expand_dims(g, axes))  # broadcast by _accumulate

    return _make(x.data.sum(axis=axes), (x,), backward, "sum_over_axes")


def mean_over_axes(x: Tensor, axes) -> Tensor:
    axes = _validate_axes(x, axes, "mean_over_axes")
    count = math.prod(x.shape[a] for a in axes)
    kept = tuple(1 if a in axes else n for a, n in enumerate(x.shape))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate((g / count).reshape(kept))  # broadcast by _accumulate

    # ndarray.mean's sum and division; a float32 quotient by a Python int
    # equals its float64 quotient rounded to float32
    return _make(np.add.reduce(x.data, axis=axes) / count, (x,), backward, "mean_over_axes")


def sum_all(x: Tensor) -> Tensor:
    return sum_over_axes(x, tuple(range(x.data.ndim))) if x.data.ndim else x


# ---------------------------------------------------------------------------
# task-specific ops


def softmax_cross_entropy(logits: Tensor, target) -> Tensor:
    """-log softmax(row)[target] for each row of logits, stable under large logits.

    A (K,) vector with an int target gives a scalar; (B, K) rows with (B,)
    targets give the (B,) per-row losses.
    """
    if logits.data.ndim not in (1, 2) or logits.shape[-1] < 2:
        raise DimensionError(f"softmax_cross_entropy: expects a vector or rows of >=2 logits, got {logits.shape}")
    targets = np.asarray(target, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise DimensionError(
            f"softmax_cross_entropy: targets of shape {targets.shape} do not match logits {logits.shape}"
        )
    k = logits.shape[-1]
    if targets.min() < 0 or targets.max() >= k:
        raise IndexError(f"softmax_cross_entropy: target out of range [0, {k})")
    rows = logits.data.reshape(-1, k)
    picked = (np.arange(rows.shape[0]), targets.reshape(-1))
    shifted = rows - rows.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=1)
    loss = np.log(total) - shifted[picked]
    probs = exps / total[:, None]

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            d = probs.copy()
            d[picked] -= 1.0
            logits._accumulate((d * np.reshape(g, (-1, 1))).reshape(logits.shape), owned=True)

    out = np.asarray(loss.reshape(targets.shape), dtype=active_dtype())
    return _make(out, (logits,), backward, "softmax_cross_entropy")


def l2_normalize(v: Tensor) -> Tensor:
    if v.data.ndim != 1:
        raise DimensionError(f"l2_normalize: expects a vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v.data))
    if norm <= NORM_EPSILON:
        raise DegenerateVectorError(f"l2_normalize: norm {norm:g} below {NORM_EPSILON:g}")
    unit = v.data / norm

    def backward(g: np.ndarray) -> None:
        if v.requires_grad:
            v._accumulate((g - unit * float(unit @ g)) / norm)

    return _make(unit, (v,), backward, "l2_normalize")


def _tap_runs(start: int, stride: int, count: int, length: int) -> list[tuple[slice, slice]]:
    """(output rows, source frames) slices for frames start + t*stride mod length, t < count.

    The frames span less than `length` (count = ceil(frames / stride)), so
    they wrap at most once: one run for zero padding, where the padded
    source never wraps, and at most two for circular padding.
    """
    first = min(count, -(-(length - start) // stride))
    runs = [(slice(0, first), slice(start, start + (first - 1) * stride + 1, stride))]
    if first < count:
        rest = start + first * stride - length
        runs.append((slice(first, count), slice(rest, rest + (count - first - 1) * stride + 1, stride)))
    return runs


def temporal_conv(
    x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: str = "zero"
) -> Tensor:
    """1-d convolution along the frame axis, shared across the batch and joints.

    x: (B, J, T, C_in); w: (k, C_in, C_out) with odd k; bias: (C_out,).
    'same' padding, either zero-filled or circular (frame indices wrap);
    output frames = ceil(T / stride).  With circular padding and stride 1
    the summed output over frames equals (sum of kernel taps) times the
    summed input, so time-pooled statistics commute with the convolution.

    Lowered to one product (im2col): the k taps of every output frame are
    gathered into a (B*J*T', k*C_in) matrix and multiplied by w reshaped to
    (k*C_in, C_out).  The backward scatters the input gradient tap by tap
    (col2im): tap d of all output frames reads an arithmetic run of source
    frames, so its gradient `g @ w[d].T` is added through at most two
    strided slices (see `_tap_runs`) in place of a fancy index.
    """
    if x.data.ndim != 4 or w.data.ndim != 3 or bias.data.ndim != 1:
        raise DimensionError(
            f"temporal_conv: expects x (B,J,T,C), w (k,C,C'), bias (C',), got {x.shape}, {w.shape}, {bias.shape}"
        )
    k, c_in, c_out = w.shape
    if k % 2 == 0:
        raise DimensionError(f"temporal_conv: kernel size must be odd, got {k}")
    if x.shape[3] != c_in or bias.shape[0] != c_out:
        raise DimensionError(f"temporal_conv: channel mismatch: x {x.shape}, w {w.shape}, bias {bias.shape}")
    stride = int(stride)
    if stride < 1:
        raise DimensionError(f"temporal_conv: stride must be >= 1, got {stride}")
    if padding not in PADDING_MODES:
        raise DimensionError(f"temporal_conv: padding must be one of {PADDING_MODES}, got {padding!r}")
    batch, joints, frames, _ = x.shape
    pad = k // 2
    t_out = -(-frames // stride)
    # idx[t, d]: the frame of `src` that tap d reads for output frame t, in the
    # zero-padded input or, wrapped, in the input itself.  Column d starts at
    # idx[0, d] and steps by `stride`, so no frame repeats within a tap.
    idx = np.arange(t_out)[:, None] * stride + np.arange(k)[None, :]
    if padding == "zero":
        src = np.zeros((batch, joints, frames + 2 * pad, c_in), dtype=x.data.dtype)
        src[:, :, pad : pad + frames, :] = x.data
    else:
        src = x.data
        idx = (idx - pad) % frames
    cols = np.take(src, idx, axis=2).reshape(-1, k * c_in)  # contiguous, so the reshape copies nothing
    out_data = cols @ w.data.reshape(k * c_in, c_out)
    out_data += bias.data

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(-1, c_out)
        if bias.requires_grad:
            bias._accumulate(g2.sum(axis=0), owned=True)
        if w.requires_grad:
            w._accumulate((cols.T @ g2).reshape(k, c_in, c_out), owned=True)
        if x.requires_grad:
            dsrc = np.zeros_like(src)
            for d in range(k):
                g_d = g @ w.data[d].T
                for rows, frames_read in _tap_runs(int(idx[0, d]), stride, t_out, src.shape[2]):
                    dsrc[:, :, frames_read, :] += g_d[:, :, rows, :]
            x._accumulate(dsrc[:, :, pad : pad + frames, :] if padding == "zero" else dsrc, owned=True)

    return _make(out_data.reshape(batch, joints, t_out, c_out), (x, w, bias), backward, "temporal_conv")
