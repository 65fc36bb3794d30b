"""Memory banks and supervised contrastive losses.

Each embedding branch owns one bank with a fixed slot per dataset
sequence.  Rows hold detached, L2-normalized embeddings; a slot's label
is set on first write and immutable afterwards.  Invalid (never
written) slots hold zeros and are excluded from sampling.

A training step does the contrast work of both heads in one pass.  The
2B anchors are normalized once and fill one (2B, L) score matrix: each
head's B rows come from one ``(B, D) @ (D, L)`` product of its unit
anchors with its own bank.  The banks of one fit share one slot table
(labels and validity), so one sort ranks the valid slots of all 2B rows
and one set of label masks splits them.  Each row mines the hardest
positives (lowest cosine similarity among same-label slots) and hardest
negatives (highest similarity among different-label slots), padded with
uniform random draws from the remaining different-label slots, straight
into flat (CSR) slot arrays.  Similarity ties break toward the lower
slot index, and only the rows that hold a tie are re-ranked to apply
that rule.  A head's rows draw their random negatives from its bank's
RNG in batch order, so sampling is fully deterministic given the bank
state and RNG stream.  ``sample_contrast`` and ``info_nce`` are the
one-head, one-row case of the same code.

One flat forward computes the losses of all mined rows, gathering their
similarities from the score matrix at once, and each head's B losses are
one tape node.  Two loss forms are provided:

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
        if not np.isfinite(self.tau):
            raise ConfigError(f"temperature must be finite, got {self.tau}")
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


@dataclass(frozen=True)
class MinedRows:
    """The samples of the score rows that have one, as CSR arrays.

    Score row ``rows[k]`` owns the ``pos_counts[k]`` positives that follow
    those of rows[:k] in `pos`, hardest first, and likewise the
    ``neg_counts[k]`` negatives in `neg`: its hard negatives, then its
    random ones.  Rows ascend.
    """

    rows: np.ndarray
    pos: np.ndarray
    pos_counts: np.ndarray
    neg: np.ndarray
    neg_counts: np.ndarray


def _unit_rows(anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized float64 copy of (N, D) anchors, and the row norms."""
    rows = np.asarray(anchors, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    if not np.isfinite(rows).all() or (norms < NORM_EPSILON).any():
        raise DegenerateVectorError("contrast scoring: anchor embedding is degenerate")
    return rows / norms[:, None], norms


def _bounds(counts) -> list:
    """Segment boundaries [0, c0, c0 + c1, ...] of consecutive segments of the given sizes."""
    return [0, *np.cumsum(counts).tolist()]


def score_heads(banks: list, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(units, norms, scores) of the (H * B, D) anchors of H = len(banks) heads, head by head.

    All rows are normalized together, once.  Each head's B unit rows are
    scored against its own bank by one ``(B, D) @ (D, L)`` product, so
    scores[r, j] is the cosine similarity of anchor r to slot j of its
    head's bank.  Banks scored together share one slot table, as
    `make_banks` builds them, so that one pass mines them.
    """
    units, norms = _unit_rows(anchors)
    count = units.shape[0] // len(banks)
    if count * len(banks) != units.shape[0]:
        raise DimensionError(f"contrast scoring: {units.shape[0]} anchors do not split over {len(banks)} heads")
    scores = np.empty((units.shape[0], banks[0].length))
    for h, head_bank in enumerate(banks):
        rows = slice(h * count, (h + 1) * count)
        np.matmul(units[rows], head_bank.features.T, out=scores[rows])
    return units, norms, scores


def sample_batch(banks: list, scores: np.ndarray, labels, indices, cfg: ContrastConfig, rngs: list) -> MinedRows:
    """Mine a contrastive sample for each row of `scores`, as `score_heads` returned it.

    Head h's B rows are anchors with the B `labels` and `indices`, mined
    from banks[h] and the slot table they share; a row whose positive or
    negative pool is empty gets no sample.  One sort ranks every row's
    valid slots, highest similarity first.  A row without a repeated score
    has a single order, so the unstable sort finds it exactly; its
    negatives are its ranked slots of another label and its positives
    those of its own label, reversed.
    Only a row that repeats a score (``==``, so -0.0 ties 0.0) is re-ranked
    with ``lexsort``, ties toward the lower slot, and its positives get a
    rising ``lexsort`` of their own.  The anchor's own slot is in neither
    pool.  Head h's rows draw their random negatives from rngs[h] in batch
    order, so the draws are those that B one-anchor calls would take.
    """
    bank, count = banks[0], len(labels)
    if len(indices) != count or scores.shape != (count * len(banks), bank.length):
        raise DimensionError(
            f"contrast sampling: scores {scores.shape} for {len(banks)} banks of {bank.length} slots, "
            f"{count} labels, {len(indices)} indices"
        )
    slots = np.flatnonzero(bank.valid)
    full = slots.size == bank.length
    valid_scores = scores if full else scores[:, slots]
    height, width = valid_scores.shape
    order = np.argsort(-valid_scores, axis=1)
    ordered = valid_scores.ravel()[order + width * np.arange(height)[:, None]]
    tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    for r in np.flatnonzero(tied):
        order[r] = np.lexsort((slots, -valid_scores[r]))
    ranked = order if full else slots[order]
    row_labels = np.tile(np.asarray(labels, dtype=np.int64), len(banks))
    row_indices = np.tile(np.asarray(indices, dtype=np.int64), len(banks))
    same = bank.labels[ranked] == row_labels[:, None]
    others = ranked != row_indices[:, None]
    pos_masks, neg_masks = same & others, ~same & others
    pos_flat, neg_flat = ranked[pos_masks], ranked[neg_masks]
    pos_bounds, neg_bounds = _bounds(pos_masks.sum(axis=1)), _bounds(neg_masks.sum(axis=1))
    instrumentation.bump("bank_reads", height)
    n_pos, n_hard, n_rand_max = cfg.n_pos_hard, cfg.n_neg_hard, cfg.n_neg_rand
    rows, pos, neg, pos_counts, neg_counts = [], [slots[:0]], [slots[:0]], [], []
    for r, is_tied in enumerate(tied.tolist()):
        p0, p1, n0, n1 = pos_bounds[r], pos_bounds[r + 1], neg_bounds[r], neg_bounds[r + 1]
        if p0 == p1 or n0 == n1:
            continue
        if is_tied:
            rising = slots[np.lexsort((slots, valid_scores[r]))]
            pos.append(rising[(bank.labels[rising] == row_labels[r]) & (rising != row_indices[r])][:n_pos])
        else:
            pos.append(pos_flat[max(p0, p1 - n_pos) : p1][::-1])
        hard = min(n_hard, n1 - n0)
        n_rand = min(n_rand_max, n1 - n0 - hard)
        neg.append(neg_flat[n0 : n0 + hard])
        if n_rand:
            # an int pool takes the draws and rng state of the pool array's choice, without the slice
            neg.append(neg_flat[n0 + hard + rngs[r // count].choice(n1 - n0 - hard, size=n_rand, replace=False)])
        rows.append(r)
        pos_counts.append(pos[-1].size)
        neg_counts.append(hard + n_rand)
    counts = np.array([pos_counts, neg_counts], dtype=np.int64)
    return MinedRows(np.array(rows, dtype=np.int64), np.concatenate(pos), counts[0], np.concatenate(neg), counts[1])


def sample_contrast(
    bank: MemoryBank, anchor_embedding: np.ndarray, label: int, anchor_index: int, cfg: ContrastConfig, rng
) -> ContrastSample | None:
    """Mine a contrastive sample from the bank, or None if either side is empty."""
    scores = score_heads([bank], np.asarray(anchor_embedding, dtype=np.float64)[None, :])[2]
    mined = sample_batch([bank], scores, [label], [anchor_index], cfg, [rng])
    hard = min(cfg.n_neg_hard, mined.neg.size)
    return ContrastSample(mined.pos, mined.neg[:hard], mined.neg[hard:]) if mined.rows.size else None


def _segment_sums(values: np.ndarray, bounds: list) -> np.ndarray:
    """Sum of each values[bounds[i]:bounds[i + 1]], as ``np.sum`` adds it.

    Segments of one length are the rows of a reshape, summed by one
    ``sum(axis=1)``: each row of a contiguous 2-d array is added pairwise,
    as ``np.sum`` adds the segment.  Ragged segments take one ``np.sum``
    each.  ``np.add.reduceat`` would add each segment sequentially rather
    than pairwise and change the last bits of the sums.
    """
    segments = len(bounds) - 1
    width = bounds[-1] // segments if segments else 0
    if segments and bounds == [width * i for i in range(segments + 1)]:
        return values.reshape(segments, width).sum(axis=1)
    return np.array([values[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])


def _nce_node(anchors: Tensor, bank: MemoryBank, losses, units, norms, d_scores) -> Tensor:
    """One head's (B,) losses as a tape node whose backward reads only that head's rows and bank."""
    dtype = anchors.data.dtype

    def backward(g: np.ndarray) -> None:
        if anchors.requires_grad:
            d_units = (d_scores * g[:, None]) @ bank.features
            radial = np.sum(units * d_units, axis=1, keepdims=True)
            anchors._accumulate(((d_units - units * radial) / norms[:, None]).astype(dtype), owned=True)

    return tz._make(losses.astype(dtype), (anchors,), backward, "info_nce_batch")


def info_nce_batch(
    heads: list, banks: list, scored: tuple, mined: MinedRows, cfg: ContrastConfig
) -> tuple[list, np.ndarray]:
    """Contrastive losses of H heads' (B, D) anchors, as one tape node per head.

    `scored` is what `score_heads` returned for the heads' anchors, and
    `mined` holds the samples of its rows.  Returns each head's (B,)
    losses, 0 for a row without a sample, and the (H * B,) counts of
    literal-form positives skipped.  The positives of all mined rows are
    laid out back to back in one flat array, and so are the negatives;
    each is gathered from the scores by one index, and per-row maxima and
    sums are taken over each row's contiguous segment.  Head h's backward
    maps its rows of the score gradients dS to its anchors as
    dS @ banks[h].features through the row-normalize Jacobian, so the
    slots a sample names must not be rewritten before the backward pass.
    """
    units, norms, scores = scored
    count, length = heads[0].shape[0], banks[0].length
    if any(t.data.ndim != 2 or t.shape[0] != count for t in heads) or scores.shape != (len(heads) * count, length):
        raise DimensionError(
            f"info_nce: anchors {[t.shape for t in heads]} and scores {scores.shape} "
            f"do not fit banks of {length} slots"
        )
    if (mined.pos_counts == 0).any():
        raise ConfigError("info_nce requires at least one positive (caller should skip)")
    for named in (mined.pos, mined.neg):
        if named.size and (named.min() < 0 or named.max() >= length):
            raise DimensionError(f"info_nce: sample names a slot outside [0, {length})")
    inv_tau = 1.0 / cfg.tau
    losses = np.zeros(scores.shape[0])
    skipped = np.zeros(scores.shape[0], dtype=np.int64)
    d_scores = np.zeros(scores.shape)  # d losses[r] / d scores[r, :]
    live, pos_counts, neg_counts = mined.rows, mined.pos_counts, mined.neg_counts
    if live.size:
        pos_bounds, neg_bounds = _bounds(pos_counts), _bounds(neg_counts)
        pos_seg = np.repeat(np.arange(live.size), pos_counts)  # segment of each positive
        neg_seg = np.repeat(np.arange(live.size), neg_counts)
        pos_at = length * live[pos_seg] + mined.pos  # flat (row, slot) positions in scores
        neg_at = length * live[neg_seg] + mined.neg
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
            scored_rows = kept > 0
            losses[live[scored_rows]] = -_segment_sums(terms, _bounds(kept))[scored_rows]
            d_clamped = np.where(keep & over, 1.0 / clamped, 0.0)
            d_neg = _segment_sums(d_clamped, pos_bounds)[neg_seg]
            d_pos = d_clamped.copy()
            d_pos[keep] -= 1.0 / pos[keep]
        flat = d_scores.reshape(-1)  # np.add.at: a slot a sample names twice gets both terms
        np.add.at(flat, pos_at, d_pos * inv_tau)
        np.add.at(flat, neg_at, d_neg * inv_tau)
    nodes = []
    for h, (anchors, bank) in enumerate(zip(heads, banks)):
        rows = slice(h * count, (h + 1) * count)
        nodes.append(_nce_node(anchors, bank, losses[rows], units[rows], norms[rows], d_scores[rows]))
    return nodes, skipped


def info_nce(
    anchor: Tensor, sample: ContrastSample, bank: MemoryBank, cfg: ContrastConfig
) -> tuple[Tensor, int]:
    """Contrastive loss for one anchor. Returns (loss, skipped_positive_terms)."""
    if anchor.data.ndim != 1:
        raise DimensionError(f"info_nce: expects a vector anchor, got shape {anchor.shape}")
    stacked, negatives = tz.reshape(anchor, (1, anchor.size)), sample.negatives
    mined = MinedRows(np.zeros(1, dtype=np.int64), sample.positives, np.array([sample.positives.size]),
                      negatives, np.array([negatives.size]))
    (losses,), skipped = info_nce_batch([stacked], [bank], score_heads([bank], stacked.data), mined, cfg)
    return tz.reshape(losses, ()), int(skipped[0])


def contrast_losses(banks: dict, anchors_by_head: dict, labels, indices, cfg: ContrastConfig) -> tuple[dict, int]:
    """Losses of every head's (B, D) anchors against its bank as it stands; no bank write.

    One pass serves all heads: the anchors are normalized once, scored,
    ranked and mined together, and their losses come from one flat
    InfoNCE forward, as one tape node per head.  Returns {head: (B,)
    losses} in the order of `anchors_by_head`, leaving out a head with no
    term to backpropagate, and the skip count: anchors without a sample
    plus literal-form positives skipped.  Callers write the fresh
    embeddings back after their backward pass.
    """
    names = list(anchors_by_head)
    heads, head_banks = [anchors_by_head[name] for name in names], [banks[name] for name in names]
    scored = score_heads(head_banks, np.concatenate([t.data for t in heads]))
    mined = sample_batch(head_banks, scored[2], labels, indices, cfg, [bank.rng for bank in head_banks])
    nodes, skipped = info_nce_batch(heads, head_banks, scored, mined, cfg)
    live = set((mined.rows[skipped[mined.rows] < mined.pos_counts] // len(labels)).tolist())
    unmined = len(names) * len(labels) - mined.rows.size
    return {name: nodes[h] for h, name in enumerate(names) if h in live}, unmined + int(skipped.sum())


def make_banks(length: int, dim: int, seed: int) -> dict[str, MemoryBank]:
    """A fit's spatial and temporal banks: own features and RNG, one shared `labels` and `valid`.

    A step writes both, the second rewriting the slots and labels the first
    set.  If the second write raises, the step raises, and the fit hands
    out no banks.
    """
    spatial, temporal = MemoryBank(length, dim, "spatial", seed), MemoryBank(length, dim, "temporal", seed)
    temporal.labels, temporal.valid = spatial.labels, spatial.valid
    return {"spatial": spatial, "temporal": temporal}
