"""Memory banks and supervised contrastive losses.

Each embedding branch owns one bank with a fixed slot per dataset
sequence.  Rows hold detached, L2-normalized embeddings; a slot's label
is set on first write and immutable afterwards.  Invalid (never
written) slots hold zeros and are excluded from sampling.

A training step handles a head's whole batch at once.  The B anchors are
scored against every bank slot by one ``(B, D) @ (D, L)`` product of the
unit anchors with the bank.  Each row mines the hardest positives
(lowest cosine similarity among same-label slots) and hardest negatives
(highest similarity among different-label slots), padded with uniform
random draws from the remaining different-label slots.  One sort per
call ranks the valid slots of all B rows; similarity ties break toward
the lower slot index, and only the rows that hold a tie are re-ranked to
apply that rule.  Rows draw their random negatives in batch order, so
sampling is fully deterministic given the bank state and RNG stream.
``sample_contrast`` and ``info_nce`` are the batch-of-one case of the
same code.

All B losses are one tape node that reads its similarities from the
same score matrix, gathered for all rows at once.  Two loss forms are
provided:

* ``exponentiated`` (default): standard InfoNCE with temperature --
  per positive ``log(exp(sp/tau) + sum_n exp(sn/tau)) - sp/tau``,
  computed with a constant max-shift for stability and summed over
  the positives (each positive gets its own denominator).
* ``literal``: the ratio form without exponentiation --
  ``-log((sp/tau) / (sp/tau + sum_n sn/tau))``, likewise summed.  Raw
  cosine terms can be non-positive, so the denominator is clamped from
  below and positives with a non-positive numerator are skipped and
  counted.

Gradients flow into the anchor embeddings only; bank rows are constants.
The backward pass reads the bank, so bank writes wait until after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import instrumentation
from . import tensor as tz
from .errors import BankIntegrityError, ConfigError, DegenerateVectorError, DimensionError, NumericError
from .rng import seeded_rng
from .tensor import NORM_EPSILON, Tensor

LITERAL_CLAMP = 1e-8
LOSS_FORMS = ("exponentiated", "literal")


@dataclass(frozen=True)
class ContrastConfig:
    tau: float = 0.8
    n_pos_hard: int = 128
    n_neg_hard: int = 512
    n_neg_rand: int = 512
    loss_form: str = "exponentiated"

    def __post_init__(self):
        if not self.tau > 0:
            raise ConfigError(f"temperature must be positive, got {self.tau}")
        if self.n_pos_hard < 1:
            raise ConfigError(f"need at least one hard positive, got {self.n_pos_hard}")
        if self.n_neg_hard < 0 or self.n_neg_rand < 0:
            raise ConfigError("negative-sample counts must be non-negative")
        if self.n_neg_hard + self.n_neg_rand < 1:
            raise ConfigError("need at least one negative overall")
        if self.loss_form not in LOSS_FORMS:
            raise ConfigError(f"loss_form must be one of {LOSS_FORMS}, got {self.loss_form!r}")


class MemoryBank:
    """Fixed-size embedding store with one slot per dataset sequence."""

    def __init__(self, length: int, dim: int, name: str, seed: int):
        if length < 1:
            raise ConfigError(f"bank length must be positive, got {length}")
        if dim < 1:
            raise ConfigError(f"bank dim must be positive, got {dim}")
        self.features = np.zeros((length, dim))
        self.labels = np.full(length, -1, dtype=np.int64)
        self.valid = np.zeros(length, dtype=bool)
        self.name = name
        self.rng = seeded_rng(seed, f"bank/{name}")

    @property
    def length(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def fill_fraction(self) -> float:
        return float(self.valid.mean())

    def update(self, index, embedding, label) -> None:
        """Write detached, normalized embeddings into slots.

        One slot with a (D,) embedding and an int label, or B distinct slots
        with (B, D) rows and B labels: the one-slot call is the batch of one.
        Every row is checked before any is written.
        """
        slots = np.asarray(index)
        labels = np.asarray(label)
        instrumentation.bump("bank_writes", slots.size)
        rows = np.asarray(embedding.data if isinstance(embedding, Tensor) else embedding, dtype=np.float64)
        if labels.shape != slots.shape:
            raise BankIntegrityError(f"bank {self.name!r}: labels of shape {labels.shape} for slots {slots.shape}")
        if rows.shape != slots.shape + (self.dim,):
            raise BankIntegrityError(
                f"bank {self.name!r}: embedding shape {rows.shape} != {slots.shape + (self.dim,)}"
            )
        slots, labels, rows = slots.reshape(-1), labels.reshape(-1), rows.reshape(-1, self.dim)
        outside = (slots < 0) | (slots >= self.length)
        if outside.any():
            raise BankIntegrityError(f"bank {self.name!r}: slot {slots[outside][0]} outside [0, {self.length})")
        negative = labels < 0
        if negative.any():
            raise BankIntegrityError(
                f"bank {self.name!r}: label must be non-negative, got {labels[negative][0]} "
                f"(slot {slots[negative][0]})"
            )
        relabel = self.valid[slots] & (self.labels[slots] != labels)
        if relabel.any():
            slot = slots[relabel][0]
            raise BankIntegrityError(
                f"bank {self.name!r}: slot {slot} already labeled {self.labels[slot]}, "
                f"refusing relabel to {labels[relabel][0]}"
            )
        if len(set(slots.tolist())) != slots.size:  # not np.unique: its sort raised a fit's peak RSS ~0.7 MB
            raise BankIntegrityError(f"bank {self.name!r}: slots {slots.tolist()} repeat within one write")
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise NumericError(f"bank {self.name!r}: non-finite embedding for slot {slots[~finite][0]}")
        # one (1, D) @ (D, 1) product per row: the same bits as np.linalg.norm of the row
        norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).reshape(-1))
        small = norms < NORM_EPSILON
        if small.any():
            raise NumericError(f"bank {self.name!r}: cannot normalize near-zero embedding (slot {slots[small][0]})")
        self.features[slots] = rows / norms[:, None]
        self.labels[slots] = labels
        self.valid[slots] = True

    def check_integrity(self) -> None:
        valid_rows = self.features[self.valid]
        if valid_rows.size:
            norms = np.linalg.norm(valid_rows, axis=1)
            off = np.abs(norms - 1.0).max()
            if off > 1e-6:
                raise BankIntegrityError(f"bank {self.name!r}: valid row norm off unity by {off:.2e}")
        if (self.labels[self.valid] < 0).any():
            raise BankIntegrityError(f"bank {self.name!r}: valid slot with unset label")
        invalid = ~self.valid
        if self.features[invalid].any():
            raise BankIntegrityError(f"bank {self.name!r}: invalid slot holds non-zero features")
        if (self.labels[invalid] != -1).any():
            raise BankIntegrityError(f"bank {self.name!r}: invalid slot holds a label")


@dataclass
class ContrastSample:
    positives: np.ndarray  # bank slots, hardest (lowest similarity) first
    hard_negatives: np.ndarray  # highest similarity first
    random_negatives: np.ndarray  # uniform draw from the remaining negatives

    @property
    def negatives(self) -> np.ndarray:
        return np.concatenate([self.hard_negatives, self.random_negatives])


def _unit_rows(anchors: np.ndarray, where: str) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized float64 copy of (B, D) anchors, and the row norms."""
    rows = np.asarray(anchors, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    if not np.isfinite(rows).all() or (norms < NORM_EPSILON).any():
        raise DegenerateVectorError(f"{where}: anchor embedding is degenerate")
    return rows / norms[:, None], norms


def _bounds(counts) -> list:
    """Segment boundaries [0, c0, c0 + c1, ...] of consecutive segments of the given sizes."""
    return [0, *np.cumsum(counts).tolist()]


def sample_batch(
    bank: MemoryBank,
    anchors: np.ndarray,
    labels,
    indices,
    cfg: ContrastConfig,
    rng,
) -> tuple[np.ndarray, list]:
    """Mine a contrastive sample for each row of (B, D) `anchors`.

    Returns (scores, samples): scores[b, j] is the cosine similarity of
    anchor b to bank slot j, from one product with the whole bank, and
    samples[b] is anchor b's ContrastSample, or None if either side of its
    pool is empty.

    One sort ranks every row's valid slots, highest similarity first.  A
    row without a repeated score has a single order, so the unstable sort
    finds it exactly; its negatives are its ranked slots of another label
    and its positives those of its own label, reversed.  Only a row that
    repeats a score (``==``, so -0.0 ties 0.0) is re-ranked with
    ``lexsort``, ties toward the lower slot, and its positives get a
    rising ``lexsort`` of their own.  The anchor's own slot is in neither
    pool.  Rows draw their random negatives in batch order, so the draws
    are those that B one-anchor calls would take from `rng`.
    """
    units, _ = _unit_rows(anchors, "contrast sampling")
    if len(labels) != units.shape[0] or len(indices) != units.shape[0]:
        raise DimensionError(
            f"contrast sampling: {units.shape[0]} anchors, {len(labels)} labels, {len(indices)} indices"
        )
    scores = units @ bank.features.T
    slots = np.flatnonzero(bank.valid)
    valid_scores = scores[:, slots]
    count, width = valid_scores.shape
    order = np.argsort(-valid_scores, axis=1)
    ordered = valid_scores.ravel()[order + width * np.arange(count)[:, None]]
    tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    for b in np.flatnonzero(tied):
        order[b] = np.lexsort((slots, -valid_scores[b]))
    ranked = slots[order]
    labels = np.asarray(labels, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    same = bank.labels[ranked] == labels[:, None]
    others = ranked != indices[:, None]
    pos_masks = same & others
    neg_masks = ~same & others
    pos_flat, neg_flat = ranked[pos_masks], ranked[neg_masks]
    pos_bounds, neg_bounds = _bounds(pos_masks.sum(axis=1)), _bounds(neg_masks.sum(axis=1))
    samples = []
    for b in range(count):
        instrumentation.bump("bank_reads")
        positives = pos_flat[pos_bounds[b] : pos_bounds[b + 1]]
        negatives = neg_flat[neg_bounds[b] : neg_bounds[b + 1]]
        if positives.size == 0 or negatives.size == 0:
            samples.append(None)
            continue
        if tied[b]:
            rising = slots[np.lexsort((slots, valid_scores[b]))]
            positives = rising[(bank.labels[rising] == labels[b]) & (rising != indices[b])]
        else:
            positives = positives[::-1]
        remaining = negatives[cfg.n_neg_hard :]
        n_rand = min(cfg.n_neg_rand, remaining.size)
        rand_neg = rng.choice(remaining, size=n_rand, replace=False) if n_rand else remaining[:0]
        samples.append(ContrastSample(
            positives=positives[: cfg.n_pos_hard].astype(np.int64),
            hard_negatives=negatives[: cfg.n_neg_hard].astype(np.int64),
            random_negatives=np.asarray(rand_neg, dtype=np.int64),
        ))
    return scores, samples


def sample_contrast(
    bank: MemoryBank,
    anchor_embedding: np.ndarray,
    label: int,
    anchor_index: int,
    cfg: ContrastConfig,
    rng,
) -> ContrastSample | None:
    """Mine a contrastive sample from the bank, or None if either side is empty."""
    anchor = np.asarray(anchor_embedding, dtype=np.float64)
    return sample_batch(bank, anchor[None, :], [label], [anchor_index], cfg, rng)[1][0]


def _segment_sums(values: np.ndarray, bounds: list) -> np.ndarray:
    """Sum of each values[bounds[i]:bounds[i + 1]], one ``np.sum`` per segment.

    ``np.add.reduceat`` would add each segment sequentially rather than
    pairwise and change the last bits of the sums.
    """
    return np.array([values[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])


def info_nce_batch(
    anchors: Tensor, scores: np.ndarray, samples: list, bank: MemoryBank, cfg: ContrastConfig
) -> tuple[Tensor, np.ndarray]:
    """Contrastive losses of B anchors as one tape node.

    `anchors` is (B, D); `scores` and `samples` are what `sample_batch`
    returned for its rows.  Returns the (B,) per-anchor losses, 0 where
    samples[b] is None, and the (B,) counts of literal-form positives
    skipped.  The positives of all mined rows are laid out back to back
    in one flat array, and so are the negatives; each is gathered from
    `scores` by one index, and per-row maxima and sums are taken over
    each row's contiguous segment.  The backward maps the score gradients
    dS to the anchors as dS @ bank.features through the row-normalize
    Jacobian, so the slots a sample names must not be rewritten before
    the backward pass.
    """
    count = anchors.shape[0]
    if anchors.data.ndim != 2 or scores.shape != (count, bank.length) or len(samples) != count:
        raise DimensionError(
            f"info_nce: anchors {anchors.shape}, scores {scores.shape} and {len(samples)} samples "
            f"do not fit a bank of {bank.length} slots"
        )
    units, norms = _unit_rows(anchors.data, "info_nce")
    inv_tau = 1.0 / cfg.tau
    losses = np.zeros(count)
    skipped = np.zeros(count, dtype=np.int64)
    d_scores = np.zeros(scores.shape)  # d losses[b] / d scores[b, :]
    live = np.array([b for b, sample in enumerate(samples) if sample is not None], dtype=np.int64)
    if any(samples[b].positives.size == 0 for b in live):
        raise ConfigError("info_nce requires at least one positive (caller should skip)")
    if live.size:
        negatives = [samples[b].negatives for b in live]
        pos_slots = np.concatenate([samples[b].positives for b in live])
        neg_slots = np.concatenate(negatives)
        for named in (pos_slots, neg_slots):
            if named.size and (named.min() < 0 or named.max() >= bank.length):
                raise DimensionError(f"info_nce: sample names a slot outside [0, {bank.length})")
        pos_counts = np.array([samples[b].positives.size for b in live])
        neg_counts = np.array([n.size for n in negatives])
        pos_bounds, neg_bounds = _bounds(pos_counts), _bounds(neg_counts)
        pos_seg = np.repeat(np.arange(live.size), pos_counts)  # segment of each positive
        neg_seg = np.repeat(np.arange(live.size), neg_counts)
        pos_at = bank.length * live[pos_seg] + pos_slots  # flat (row, slot) positions in scores
        neg_at = bank.length * live[neg_seg] + neg_slots
        pos = np.take(scores, pos_at) * inv_tau
        neg = np.take(scores, neg_at) * inv_tau
        if cfg.loss_form == "exponentiated":
            shift = np.maximum.reduceat(pos, pos_bounds[:-1])
            has_neg = neg_counts > 0
            if has_neg.any():
                neg_max = np.maximum.reduceat(neg, np.array(neg_bounds[:-1])[has_neg])
                shift[has_neg] = np.maximum(shift[has_neg], neg_max)
            exp_pos = np.exp(pos - shift[pos_seg])
            exp_neg = np.exp(neg - shift[neg_seg])
            denom = exp_pos + _segment_sums(exp_neg, neg_bounds)[pos_seg]
            losses[live] = _segment_sums(np.log(denom) + shift[pos_seg] - pos, pos_bounds)
            d_pos = exp_pos / denom - 1.0
            d_neg = exp_neg * _segment_sums(1.0 / denom, pos_bounds)[neg_seg]
        else:
            # literal ratio form: no exponentials, so guard against non-positive terms
            denom = pos + _segment_sums(neg, neg_bounds)[pos_seg]
            over = denom - LITERAL_CLAMP > 0
            clamped = np.where(over, denom - LITERAL_CLAMP, 0.0) + LITERAL_CLAMP
            keep = pos > 0.0
            kept = np.add.reduceat(keep.astype(np.int64), pos_bounds[:-1])
            skipped[live] = pos_counts - kept
            terms = np.log(pos[keep]) - np.log(clamped[keep])
            scored = kept > 0
            losses[live[scored]] = -_segment_sums(terms, _bounds(kept))[scored]
            d_clamped = np.where(keep & over, 1.0 / clamped, 0.0)
            d_neg = _segment_sums(d_clamped, pos_bounds)[neg_seg]
            d_pos = d_clamped.copy()
            d_pos[keep] -= 1.0 / pos[keep]
        flat = d_scores.reshape(-1)  # np.add.at: a slot a sample names twice gets both terms
        np.add.at(flat, pos_at, d_pos * inv_tau)
        np.add.at(flat, neg_at, d_neg * inv_tau)
    dtype = anchors.data.dtype

    def backward(g: np.ndarray) -> None:
        if anchors.requires_grad:
            d_units = (d_scores * g[:, None]) @ bank.features
            radial = np.sum(units * d_units, axis=1, keepdims=True)
            anchors._accumulate(((d_units - units * radial) / norms[:, None]).astype(dtype))

    return tz._make(losses.astype(dtype), (anchors,), backward, "info_nce_batch"), skipped


def info_nce(
    anchor: Tensor, sample: ContrastSample, bank: MemoryBank, cfg: ContrastConfig
) -> tuple[Tensor, int]:
    """Contrastive loss for one anchor. Returns (loss, skipped_positive_terms)."""
    if anchor.data.ndim != 1:
        raise DimensionError(f"info_nce: expects a vector anchor, got shape {anchor.shape}")
    units, _ = _unit_rows(anchor.data[None, :], "info_nce")
    stacked = tz.reshape(anchor, (1, anchor.size))
    losses, skipped = info_nce_batch(stacked, units @ bank.features.T, [sample], bank, cfg)
    return tz.reshape(losses, ()), int(skipped[0])


def contrast_losses(
    bank: MemoryBank, anchors: Tensor, labels, indices, cfg: ContrastConfig
) -> tuple[Tensor | None, int]:
    """Losses of a (B, D) batch of anchors against the bank as it stands; no bank write.

    Mines every anchor from one bank product and builds all B losses as
    one tape node.  Returns the (B,) losses, or None when no anchor has a
    term to backpropagate, and the skip count: anchors without a sample
    plus literal-form positives skipped.  Callers write the fresh
    embeddings back after their backward pass.
    """
    scores, samples = sample_batch(bank, anchors.data, labels, indices, cfg, bank.rng)
    losses, skipped = info_nce_batch(anchors, scores, samples, bank, cfg)
    unmined = sum(sample is None for sample in samples)
    live = any(s is not None and n < s.positives.size for s, n in zip(samples, skipped))
    return (losses if live else None), unmined + int(skipped.sum())


def make_banks(length: int, dim: int, seed: int) -> dict[str, MemoryBank]:
    return {
        "spatial": MemoryBank(length, dim, "spatial", seed),
        "temporal": MemoryBank(length, dim, "temporal", seed),
    }

