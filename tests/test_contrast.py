"""Memory banks, hard-example mining, and the contrastive losses.

The sampler is checked against a brute-force oracle written directly
from the mining rules (sort by similarity, break ties by slot index);
the losses are checked against closed forms that fall out of the
definition.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stdcl import contrast, instrumentation
from stdcl import tensor as tz
from stdcl.contrast import (
    LITERAL_CLAMP,
    LOSS_FORMS,
    ContrastConfig,
    ContrastSample,
    MemoryBank,
    MinedRows,
    contrast_losses,
    info_nce,
    info_nce_batch,
    make_banks,
    sample_batch,
    sample_contrast,
    score_heads,
)
from stdcl.data import SyntheticSpec, generate_synthetic
from stdcl.encoder import EncoderConfig
from stdcl.errors import BankIntegrityError, ConfigError, DimensionError, NumericError
from stdcl.tensor import Tensor
from stdcl.train import SGD, TrainConfig, build_model, train_step


def unit(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def filled_bank(rng, length=20, dim=6, num_labels=3, fill=0.9, name="t"):
    bank = MemoryBank(length, dim, name=name, seed=int(rng.integers(2**31)))
    for i in range(length):
        if rng.random() < fill:
            bank.update(i, rng.standard_normal(dim), int(rng.integers(num_labels)))
    return bank


def row_samples(mined, height, cfg):
    """Each score row's ContrastSample from a CSR mining result, None where a row has none."""
    samples = [None] * height
    pos_at, neg_at = np.cumsum(mined.pos_counts), np.cumsum(mined.neg_counts)
    for k, r in enumerate(mined.rows.tolist()):
        pos = mined.pos[pos_at[k] - mined.pos_counts[k] : pos_at[k]]
        neg = mined.neg[neg_at[k] - mined.neg_counts[k] : neg_at[k]]
        hard = min(cfg.n_neg_hard, neg.size)
        samples[r] = ContrastSample(positives=pos, hard_negatives=neg[:hard], random_negatives=neg[hard:])
    return samples


def one_row(sample, row=0):
    """`sample` as the CSR mining result of score row `row`."""
    negatives = sample.negatives
    return MinedRows(np.array([row]), sample.positives, np.array([sample.positives.size]),
                     negatives, np.array([negatives.size]))


def oracle_sample(bank, anchor, label, anchor_index, cfg, rand_indices=None):
    """Mining rules transcribed directly: dict of sims, python sorts."""
    u = unit(anchor)
    sims = {
        i: float(np.dot(bank.features[i], u))
        for i in range(bank.length)
        if bank.valid[i] and i != anchor_index
    }
    pos = sorted((i for i in sims if bank.labels[i] == label), key=lambda i: (sims[i], i))
    neg = sorted((i for i in sims if bank.labels[i] != label), key=lambda i: (-sims[i], i))
    if not pos or not neg:
        return None
    return {
        "positives": pos[: cfg.n_pos_hard],
        "hard_negatives": neg[: cfg.n_neg_hard],
        "remaining": set(neg[cfg.n_neg_hard :]),
    }


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="temperature"):
            ContrastConfig(tau=0.0)
        with pytest.raises(ConfigError, match="positive"):
            ContrastConfig(n_pos_hard=0)
        with pytest.raises(ConfigError, match="negative overall"):
            ContrastConfig(n_neg_hard=0, n_neg_rand=0)
        with pytest.raises(ConfigError, match="loss_form"):
            ContrastConfig(loss_form="softmax")


class TestBank:
    def test_starts_empty_and_unsampleable(self):
        bank = MemoryBank(5, 3, name="b", seed=0)
        assert bank.fill_fraction() == 0.0
        assert (bank.labels == -1).all() and not bank.valid.any()
        got = sample_contrast(bank, np.ones(3), 0, 0, ContrastConfig(), bank.rng)
        assert got is None

    def test_update_normalizes(self):
        bank = MemoryBank(5, 3, name="b", seed=0)
        bank.update(2, np.array([3.0, 0.0, 4.0]), label=1)
        np.testing.assert_allclose(bank.features[2], [0.6, 0.0, 0.8])
        assert bank.labels[2] == 1 and bank.valid[2]

    def test_label_immutable(self):
        bank = MemoryBank(5, 3, name="b", seed=0)
        bank.update(2, np.ones(3), label=1)
        with pytest.raises(BankIntegrityError, match="refusing relabel"):
            bank.update(2, np.ones(3), label=0)
        # same label re-write is fine
        bank.update(2, np.array([1.0, 0.0, 0.0]), label=1)
        np.testing.assert_allclose(bank.features[2], [1.0, 0.0, 0.0])

    def test_update_rejects_bad_input(self):
        bank = MemoryBank(5, 3, name="b", seed=0)
        with pytest.raises(BankIntegrityError, match="slot"):
            bank.update(5, np.ones(3), 0)
        with pytest.raises(BankIntegrityError, match="label"):
            bank.update(0, np.ones(3), -2)
        with pytest.raises(BankIntegrityError, match="shape"):
            bank.update(0, np.ones(4), 0)
        with pytest.raises(NumericError, match="non-finite"):
            bank.update(0, np.array([np.nan, 0, 0]), 0)
        with pytest.raises(NumericError, match="near-zero"):
            bank.update(0, np.zeros(3), 0)

    def test_integrity_randomized_updates_and_exact_replay(self):
        rng = np.random.default_rng(42)
        script = [
            (int(rng.integers(30)), rng.standard_normal(5), int(rng.integers(4)))
            for _ in range(500)
        ]

        def apply(bank):
            for index, vec, label in script:
                try:
                    bank.update(index, vec, label)
                except BankIntegrityError:
                    pass  # relabel attempts are expected in a random script

        a = MemoryBank(30, 5, name="a", seed=7)
        apply(a)
        a.check_integrity()
        norms = np.linalg.norm(a.features[a.valid], axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6

        b = MemoryBank(30, 5, name="a", seed=7)
        apply(b)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_integrity_catches_corruption(self):
        bank = MemoryBank(4, 3, name="b", seed=0)
        bank.update(0, np.ones(3), 0)
        bank.features[0] *= 2.0
        with pytest.raises(BankIntegrityError, match="norm"):
            bank.check_integrity()
        bank2 = MemoryBank(4, 3, name="b", seed=0)
        bank2.features[1, 0] = 0.5  # invalid slot must stay zero
        with pytest.raises(BankIntegrityError, match="invalid slot"):
            bank2.check_integrity()

    @pytest.mark.parametrize("dim", [5, 32, 256])
    def test_batch_write_equals_one_slot_writes_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        slots = rng.permutation(40)[:8]
        rows = rng.standard_normal((8, dim)) * rng.choice([1e-3, 1.0, 1e4], size=(8, 1))
        labels = rng.integers(0, 3, size=8)
        batched, single = MemoryBank(40, dim, name="b", seed=0), MemoryBank(40, dim, name="b", seed=0)
        instrumentation.reset()
        batched.update(slots, rows, labels)
        assert instrumentation.count("bank_writes") == 8
        for slot, row, label in zip(slots, rows, labels):
            single.update(int(slot), row, int(label))
        assert instrumentation.count("bank_writes") == 16
        want = np.stack([row / np.linalg.norm(row) for row in rows])  # the per-row rule, bit for bit
        np.testing.assert_array_equal(batched.features[slots], want)
        np.testing.assert_array_equal(batched.features, single.features)
        np.testing.assert_array_equal(batched.labels, single.labels)
        np.testing.assert_array_equal(batched.valid, single.valid)
        batched.check_integrity()

    @pytest.mark.parametrize(
        "slots,rows,labels,error,match",
        [
            ([0, 1, 9], np.ones((3, 3)), [0, 0, 0], BankIntegrityError, "slot 9 outside"),
            ([0, 1, 2], np.ones((3, 3)), [0, -4, 0], BankIntegrityError, r"got -4 \(slot 1\)"),
            ([0, 3, 2], np.ones((3, 3)), [0, 0, 0], BankIntegrityError, "slot 3 already labeled 1"),
            ([0, 2, 0], np.ones((3, 3)), [0, 0, 0], BankIntegrityError, "repeat"),
            ([0, 1, 2], np.array([[1.0, 0, 0], [0, np.inf, 0], [0, 0, 1]]), [0, 0, 0], NumericError, "slot 1"),
            ([0, 1, 2], np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 0]]), [0, 0, 0], NumericError, "slot 2"),
            ([0, 1, 2], np.ones((3, 4)), [0, 0, 0], BankIntegrityError, "shape"),
            ([0, 1, 2], np.ones((2, 3)), [0, 0, 0], BankIntegrityError, "shape"),
            ([0, 1, 2], np.ones((3, 3)), [0, 0], BankIntegrityError, "labels"),
        ],
    )
    def test_batch_write_checks_every_row_and_writes_none_on_failure(self, slots, rows, labels, error, match):
        bank = MemoryBank(5, 3, name="b", seed=0)
        bank.update(3, np.array([1.0, 0.0, 0.0]), 1)
        before = (bank.features.copy(), bank.labels.copy(), bank.valid.copy())
        with pytest.raises(error, match=match):
            bank.update(np.array(slots), rows, np.array(labels))
        for got, want in zip((bank.features, bank.labels, bank.valid), before):
            np.testing.assert_array_equal(got, want)


class TestSampler:
    def test_matches_oracle_on_random_banks(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            bank = filled_bank(rng, length=int(rng.integers(5, 40)), dim=5,
                               num_labels=int(rng.integers(2, 5)))
            cfg = ContrastConfig(
                n_pos_hard=int(rng.integers(1, 6)),
                n_neg_hard=int(rng.integers(0, 6)),
                n_neg_rand=int(rng.integers(0, 6)) or 1,
            )
            anchor = rng.standard_normal(5)
            anchor_index = int(rng.integers(bank.length))
            label = int(rng.integers(3))
            got = sample_contrast(bank, anchor, label, anchor_index, cfg, bank.rng)
            want = oracle_sample(bank, anchor, label, anchor_index, cfg)
            if want is None:
                assert got is None
                continue
            assert got is not None, f"trial {trial}"
            assert list(got.positives) == want["positives"]
            assert list(got.hard_negatives) == want["hard_negatives"]
            rand = list(got.random_negatives)
            assert len(rand) == min(cfg.n_neg_rand, len(want["remaining"]))
            assert len(set(rand)) == len(rand)
            assert set(rand) <= want["remaining"]

    def test_tie_break_by_ascending_index(self):
        bank = MemoryBank(6, 3, name="b", seed=0)
        row = np.array([1.0, 0.0, 0.0])
        # identical rows -> exactly equal similarities -> index decides
        for i in (0, 1, 2):
            bank.update(i, row, label=0)
        for i in (3, 4, 5):
            bank.update(i, row, label=1)
        cfg = ContrastConfig(n_pos_hard=2, n_neg_hard=2, n_neg_rand=1)
        got = sample_contrast(bank, row, 0, anchor_index=0, cfg=cfg, rng=bank.rng)
        assert list(got.positives) == [1, 2]
        assert list(got.hard_negatives) == [3, 4]
        assert list(got.random_negatives) == [5]

    def test_excludes_anchor_slot(self):
        rng = np.random.default_rng(1)
        bank = filled_bank(rng, length=10, fill=1.0)
        cfg = ContrastConfig(n_pos_hard=10, n_neg_hard=10, n_neg_rand=10)
        got = sample_contrast(bank, np.ones(6), int(bank.labels[4]), 4, cfg, bank.rng)
        assert got is not None
        assert 4 not in set(got.positives) | set(got.negatives)

    def test_small_pools_taken_whole(self):
        bank = MemoryBank(4, 3, name="b", seed=0)
        bank.update(0, [1.0, 0, 0], 0)
        bank.update(1, [0, 1.0, 0], 0)
        bank.update(2, [0, 0, 1.0], 1)
        cfg = ContrastConfig(n_pos_hard=5, n_neg_hard=5, n_neg_rand=5)
        got = sample_contrast(bank, np.array([1.0, 1.0, 1.0]), 0, 3, cfg, bank.rng)
        assert list(got.positives) in ([0, 1], [1, 0])
        assert list(got.hard_negatives) == [2]
        assert got.random_negatives.size == 0

    def test_none_without_positives_or_negatives(self):
        bank = MemoryBank(4, 3, name="b", seed=0)
        bank.update(0, [1.0, 0, 0], 0)
        bank.update(1, [0, 1.0, 0], 0)
        cfg = ContrastConfig(n_pos_hard=1, n_neg_hard=1, n_neg_rand=1)
        # all valid rows share the anchor label -> no negatives
        assert sample_contrast(bank, np.ones(3), 0, 3, cfg, bank.rng) is None
        # no row with the anchor label -> no positives
        assert sample_contrast(bank, np.ones(3), 1, 3, cfg, bank.rng) is None

    def test_degenerate_anchor_raises(self):
        rng = np.random.default_rng(2)
        bank = filled_bank(rng)
        with pytest.raises(NumericError, match="degenerate"):
            sample_contrast(bank, np.zeros(6), 0, 0, ContrastConfig(), bank.rng)

    def test_random_negatives_deterministic_given_stream(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((30, 6))
        labels = rng.integers(0, 2, size=30)

        def build():
            bank = MemoryBank(30, 6, name="b", seed=99)
            for i in range(30):
                bank.update(i, feats[i], int(labels[i]))
            return bank

        cfg = ContrastConfig(n_pos_hard=2, n_neg_hard=2, n_neg_rand=3)
        a, b = build(), build()
        for _ in range(5):
            sa = sample_contrast(a, feats[0], int(labels[0]), 0, cfg, a.rng)
            sb = sample_contrast(b, feats[0], int(labels[0]), 0, cfg, b.rng)
            np.testing.assert_array_equal(sa.random_negatives, sb.random_negatives)


class TestInfoNCE:
    def bank_with(self, rows, labels):
        bank = MemoryBank(len(rows), len(rows[0]), name="b", seed=0)
        for i, (row, label) in enumerate(zip(rows, labels)):
            bank.update(i, np.asarray(row, dtype=np.float64), label)
        return bank

    def test_lone_perfect_positive_is_zero(self):
        anchor = Tensor(np.array([0.0, 3.0, 4.0]))
        bank = self.bank_with([[0.0, 3.0, 4.0]], [0])
        sample = ContrastSample(
            positives=np.array([0]),
            hard_negatives=np.array([], dtype=np.int64),
            random_negatives=np.array([], dtype=np.int64),
        )
        for tau in (0.5, 0.8, 1.0):
            loss, skipped = info_nce(anchor, sample, bank, ContrastConfig(tau=tau))
            assert abs(float(loss.data)) < 1e-9
            assert skipped == 0

    def test_symmetric_one_pos_one_neg_is_ln2(self):
        # positive and negative equally similar to the anchor -> ln 2 at tau=1
        anchor = Tensor(np.array([1.0, 0.0, 0.0]))
        bank = self.bank_with([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0, 1])
        sample = ContrastSample(
            positives=np.array([0]),
            hard_negatives=np.array([1]),
            random_negatives=np.array([], dtype=np.int64),
        )
        loss, _ = info_nce(anchor, sample, bank, ContrastConfig(tau=1.0))
        assert abs(float(loss.data) - math.log(2.0)) < 1e-9

    def test_single_positive_closed_form(self):
        rng = np.random.default_rng(5)
        rows = [unit(rng.standard_normal(4)) for _ in range(6)]
        bank = self.bank_with(rows, [0, 1, 1, 1, 1, 1])
        anchor = Tensor(rng.standard_normal(4))
        sample = ContrastSample(
            positives=np.array([0]),
            hard_negatives=np.array([1, 2, 3]),
            random_negatives=np.array([4, 5]),
        )
        for tau in (0.5, 0.8, 1.0):
            loss, _ = info_nce(anchor, sample, bank, ContrastConfig(tau=tau))
            u = unit(anchor.data)
            sp = float(np.dot(rows[0], u))
            sns = [float(np.dot(rows[i], u)) for i in range(1, 6)]
            want = math.log1p(sum(math.exp((sn - sp) / tau) for sn in sns))
            assert abs(float(loss.data) - want) < 1e-10

    def test_sum_over_positives(self):
        """Multi-positive loss is the sum of per-positive single terms."""
        rng = np.random.default_rng(6)
        rows = [unit(rng.standard_normal(4)) for _ in range(5)]
        bank = self.bank_with(rows, [0, 0, 1, 1, 1])
        anchor = Tensor(rng.standard_normal(4))
        cfg = ContrastConfig(tau=0.8)
        negs = np.array([2, 3, 4])
        both = ContrastSample(positives=np.array([0, 1]), hard_negatives=negs,
                              random_negatives=np.array([], dtype=np.int64))
        loss_both, _ = info_nce(anchor, both, bank, cfg)
        total = 0.0
        for p in (0, 1):
            single = ContrastSample(positives=np.array([p]), hard_negatives=negs,
                                    random_negatives=np.array([], dtype=np.int64))
            loss_one, _ = info_nce(anchor, single, bank, cfg)
            total += float(loss_one.data)
        assert abs(float(loss_both.data) - total) < 1e-10

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            bank = filled_bank(rng, length=12, fill=1.0)
            cfg = ContrastConfig(n_pos_hard=3, n_neg_hard=3, n_neg_rand=3)
            anchor = Tensor(rng.standard_normal(6))
            label = int(bank.labels[0])
            sample = sample_contrast(bank, anchor.data, label, 11, cfg, bank.rng)
            if sample is None:
                continue
            loss, _ = info_nce(anchor, sample, bank, cfg)
            assert float(loss.data) > -1e-12

    def test_temperature_ordering_when_positive_wins(self):
        # positive closer than negative: sharper temperature -> smaller loss
        anchor = Tensor(np.array([1.0, 0.1, 0.0]))
        bank = self.bank_with([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0, 1])
        sample = ContrastSample(positives=np.array([0]), hard_negatives=np.array([1]),
                                random_negatives=np.array([], dtype=np.int64))
        losses = [
            float(info_nce(anchor, sample, bank, ContrastConfig(tau=tau))[0].data)
            for tau in (0.5, 0.8, 1.0)
        ]
        assert losses[0] < losses[1] < losses[2]

    def test_gradient_reaches_anchor_only(self):
        rng = np.random.default_rng(8)
        bank = filled_bank(rng, length=10, fill=1.0)
        before = bank.features.copy()
        anchor = Tensor(rng.standard_normal(6), requires_grad=True)
        cfg = ContrastConfig(n_pos_hard=2, n_neg_hard=2, n_neg_rand=2)
        sample = sample_contrast(bank, anchor.data, int(bank.labels[0]), 9, cfg, bank.rng)
        loss, _ = info_nce(anchor, sample, bank, cfg)
        loss.backward()
        assert anchor.grad is not None and np.abs(anchor.grad).max() > 0
        np.testing.assert_array_equal(bank.features, before)

    def test_literal_form_skips_nonpositive_numerators(self):
        anchor = Tensor(np.array([1.0, 0.0]))
        bank = self.bank_with([[-1.0, 0.0], [0.0, 1.0]], [0, 1])
        sample = ContrastSample(positives=np.array([0]), hard_negatives=np.array([1]),
                                random_negatives=np.array([], dtype=np.int64))
        cfg = ContrastConfig(tau=1.0, loss_form="literal")
        loss, skipped = info_nce(anchor, sample, bank, cfg)
        assert skipped == 1
        assert float(loss.data) == 0.0

    def test_literal_form_value(self):
        # sp=1, sn=0 at tau=1: -log(1 / (1 + 0)) = 0; with sn=1: -log(1/2) = ln 2
        anchor = Tensor(np.array([1.0, 0.0]))
        bank = self.bank_with([[1.0, 0.0], [1.0, 0.0]], [0, 1])
        sample = ContrastSample(positives=np.array([0]), hard_negatives=np.array([1]),
                                random_negatives=np.array([], dtype=np.int64))
        cfg = ContrastConfig(tau=1.0, loss_form="literal")
        loss, skipped = info_nce(anchor, sample, bank, cfg)
        assert skipped == 0
        assert abs(float(loss.data) - math.log(2.0)) < 1e-12

    def test_requires_positives(self):
        bank = self.bank_with([[1.0, 0.0]], [1])
        sample = ContrastSample(positives=np.array([], dtype=np.int64),
                                hard_negatives=np.array([0]),
                                random_negatives=np.array([], dtype=np.int64))
        with pytest.raises(ConfigError, match="positive"):
            info_nce(Tensor(np.ones(2)), sample, bank, ContrastConfig())


def stale_training_state():
    """A tiny model and its optimizer, and banks whose every slot holds a stale random row."""
    spec = SyntheticSpec(joints=4, frames=8, num_spatial=2, num_temporal=2, per_class=3)
    ds = generate_synthetic(spec, seed=0)
    cfg = TrainConfig(batch_size=4, learning_rate=0.01, embed_dim=6, reduction=2,
                      n_pos_hard=4, n_neg_hard=4, n_neg_rand=4)
    encoder_cfg = EncoderConfig(joints=4, frames=8, channels=8, hidden=(4,), kernel_size=3)
    model = build_model(encoder_cfg, ds.num_classes, cfg)
    banks = make_banks(len(ds), cfg.embed_dim, seed=0)
    rng = np.random.default_rng(0)
    for seq in ds:
        for bank in banks.values():
            bank.update(seq.index, rng.standard_normal(cfg.embed_dim), seq.label)
    optimizer = SGD(model.named_tensors(), cfg.momentum, cfg.weight_decay)
    return ds, model, banks, cfg, optimizer


class TestStep:
    def test_update_happens_after_sampling(self, monkeypatch):
        """A slot is mined at its step-start value and rewritten only after the optimizer step."""
        ds, model, banks, cfg, optimizer = stale_training_state()
        batch = [ds[0], ds[1]]  # same label: each anchor's positives include the other's slot
        assert batch[0].label == batch[1].label
        stale = {name: bank.features.copy() for name, bank in banks.items()}
        scored, mined = [], []
        original_score, original_sample = contrast.score_heads, contrast.sample_batch

        def spy_score(head_banks, anchors):
            result = original_score(head_banks, anchors)
            scored.append(np.array(anchors))
            return result

        def spy_sample(head_banks, scores, *args):
            result = original_sample(head_banks, scores, *args)
            mined.append(([bank.name for bank in head_banks], [bank.features.copy() for bank in head_banks],
                          scores, row_samples(result, scores.shape[0], cfg)))
            return result

        at_sgd = []
        original_step = optimizer.step

        def spy_step(lr):
            at_sgd.append({name: bank.features.copy() for name, bank in banks.items()})
            original_step(lr)

        monkeypatch.setattr(contrast, "score_heads", spy_score)
        monkeypatch.setattr(contrast, "sample_batch", spy_sample)
        monkeypatch.setattr(optimizer, "step", spy_step)
        record = train_step(batch, model, banks, cfg, optimizer, lr=cfg.learning_rate)
        assert record.skipped_positives == 0
        assert len(scored) == len(mined) == len(at_sgd) == 1
        (names, mined_features, all_scores, all_samples), = mined
        assert sorted(names) == ["spatial", "temporal"]
        for h, (name, features) in enumerate(zip(names, mined_features)):
            anchors, scores, samples = (a[2 * h : 2 * h + 2] for a in (scored[0], all_scores, all_samples))
            units = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
            np.testing.assert_array_equal(features, stale[name])
            assert 1 in samples[0].positives and 0 in samples[1].positives
            assert scores[0, 1] == pytest.approx(units[0] @ stale[name][1], abs=1e-12)
            assert scores[1, 0] == pytest.approx(units[1] @ stale[name][0], abs=1e-12)
            np.testing.assert_array_equal(at_sgd[0][name], stale[name])
            np.testing.assert_allclose(banks[name].features[:2], units, atol=1e-12)
            assert not np.allclose(units, stale[name][:2])
            np.testing.assert_array_equal(banks[name].features[2:], stale[name][2:])

    def test_sample_and_loss_writes_nothing(self):
        banks = make_banks(length=4, dim=3, seed=0)
        bank = banks["spatial"]
        bank.update(1, [1.0, 0, 0], 0)
        bank.update(2, [0, 1.0, 0], 1)
        before = bank.features.copy()
        losses, skipped = contrast_losses(banks, {"spatial": Tensor(np.array([[1.0, 1.0, 0.0]]))}, [0], [0],
                                          ContrastConfig())
        assert list(losses) == ["spatial"]
        np.testing.assert_array_equal(bank.features, before)
        assert not bank.valid[0]


def reference_mine(bank, anchor, label, anchor_index, cfg, rng):
    """One anchor by brute force: sort on (similarity, slot), then draw from a copied stream."""
    u = unit(anchor)
    sims = {i: float(bank.features[i] @ u) for i in range(bank.length)
            if bank.valid[i] and i != anchor_index}
    pos = sorted((i for i in sims if bank.labels[i] == label), key=lambda i: (sims[i], i))
    neg = sorted((i for i in sims if bank.labels[i] != label), key=lambda i: (-sims[i], i))
    if not pos or not neg:
        return None
    remaining = np.array(neg[cfg.n_neg_hard:], dtype=np.int64)
    n_rand = min(cfg.n_neg_rand, remaining.size)
    rand = rng.choice(remaining, size=n_rand, replace=False).tolist() if n_rand else []
    return pos[: cfg.n_pos_hard], neg[: cfg.n_neg_hard], rand


def reference_loss(bank, anchor, mined, cfg):
    """(loss, skipped) of one anchor: log-sum-exp per positive, or the clamped ratio."""
    positives, hard, rand = mined
    u = unit(anchor)
    pos = [float(bank.features[i] @ u) / cfg.tau for i in positives]
    neg = [float(bank.features[i] @ u) / cfg.tau for i in hard + rand]
    if cfg.loss_form == "exponentiated":
        loss = 0.0
        for p in pos:
            terms = np.array([p] + neg)
            top = terms.max()
            loss += top + math.log(np.exp(terms - top).sum()) - p
        return loss, 0
    kept = [p for p in pos if p > 0.0]
    loss = -sum(math.log(p / max(p + sum(neg), LITERAL_CLAMP)) for p in kept)
    return loss, len(pos) - len(kept)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    length=st.integers(2, 60),
    batch=st.integers(1, 6),
    n_neg_hard=st.integers(0, 10),
    n_neg_rand=st.integers(1, 40),
)
def test_random_negatives_are_rng_choice_on_the_pool(seed, length, batch, n_neg_hard, n_neg_rand):
    """Each row's random negatives, and the rng state after them, are those of
    `rng.choice` on the array of the row's remaining negatives."""
    rng = np.random.default_rng(seed)
    bank = filled_bank(rng, length=length, dim=5, num_labels=3, fill=0.8)
    anchors = rng.standard_normal((batch, 5))
    labels = rng.integers(3, size=batch).tolist()
    indices = rng.integers(length, size=batch).tolist()
    cfg = ContrastConfig(n_pos_hard=3, n_neg_hard=n_neg_hard, n_neg_rand=n_neg_rand)
    ref_rng = copy.deepcopy(bank.rng)
    want = [reference_mine(bank, a, y, i, cfg, ref_rng) for a, y, i in zip(anchors, labels, indices)]
    mined = sample_batch([bank], score_heads([bank], anchors)[2], labels, indices, cfg, [bank.rng])
    for sample, ref in zip(row_samples(mined, batch, cfg), want):
        assert (sample is None) == (ref is None)
        if sample is not None:
            assert sample.random_negatives.tolist() == ref[2]
    assert bank.rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    counts=st.one_of(
        st.tuples(st.integers(1, 4), st.integers(0, 9000)).map(lambda nw: [nw[1]] * nw[0]),  # one length
        st.lists(st.integers(0, 300), max_size=8),  # ragged, with zero-length segments
    ),
    dtype=st.sampled_from([np.float64, np.float32]),
)
@example(seed=1, counts=[8193, 8193, 8193], dtype=np.float64)
@example(seed=2, counts=[0, 0, 0], dtype=np.float32)
def test_segment_sums_are_per_segment_np_sum_bit_for_bit(seed, counts, dtype):
    values = (np.random.default_rng(seed).standard_normal(sum(counts)) * 100.0).astype(dtype)
    bounds = contrast._bounds(counts)
    got = contrast._segment_sums(values, bounds)
    assert got.shape == (len(counts),)
    want = [np.sum(values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


class TestBatchedPath:
    """One bank product and one loss node for a batch, against per-anchor references."""

    def batch(self):
        rng = np.random.default_rng(12)
        bank = MemoryBank(30, 6, name="b", seed=5)
        for i in range(28):
            bank.update(i, rng.standard_normal(6), i % 3)
        bank.update(29, rng.standard_normal(6), 4)  # the only slot labelled 4
        anchors = rng.standard_normal((5, 6))
        labels = [0, 3, 1, 4, 2]  # label 3 has no slot; label 4 only the anchor's own
        indices = [0, 28, 7, 29, 11]
        return bank, anchors, labels, indices

    @pytest.mark.parametrize("form", ["exponentiated", "literal"])
    def test_matches_per_anchor_reference(self, form):
        bank, anchors, labels, indices = self.batch()
        cfg = ContrastConfig(tau=0.7, n_pos_hard=4, n_neg_hard=3, n_neg_rand=4, loss_form=form)
        ref_rng = copy.deepcopy(bank.rng)
        want = [reference_mine(bank, a, y, i, cfg, ref_rng)
                for a, y, i in zip(anchors, labels, indices)]
        assert [w is None for w in want] == [False, True, False, True, False]

        stacked = Tensor(anchors, requires_grad=True)
        scored = score_heads([bank], anchors)
        mined = sample_batch([bank], scored[2], labels, indices, cfg, [bank.rng])
        (losses,), skipped = info_nce_batch([stacked], [bank], scored, mined, cfg)
        tz.sum_all(losses).backward()
        samples = row_samples(mined, len(anchors), cfg)

        assert bank.rng.bit_generator.state == ref_rng.bit_generator.state
        for b, (sample, mined) in enumerate(zip(samples, want)):
            if mined is None:
                assert sample is None
                assert losses.data[b] == 0.0 and skipped[b] == 0
                assert not stacked.grad[b].any()
                continue
            assert (sample.positives.tolist(), sample.hard_negatives.tolist(),
                    sample.random_negatives.tolist()) == mined
            loss, n_skip = reference_loss(bank, anchors[b], mined, cfg)
            assert abs(losses.data[b] - loss) <= 1e-12 * max(1.0, abs(loss))
            assert skipped[b] == n_skip

            h = 1e-6
            grad = np.zeros(6)
            for d in range(6):
                step = np.zeros(6)
                step[d] = h
                up = reference_loss(bank, anchors[b] + step, mined, cfg)[0]
                down = reference_loss(bank, anchors[b] - step, mined, cfg)[0]
                grad[d] = (up - down) / (2 * h)
            np.testing.assert_allclose(stacked.grad[b], grad, rtol=1e-6, atol=1e-8)
        if form == "literal":
            assert skipped.sum() > 0  # the clamp-and-skip branch was exercised

    def test_ties_inside_a_batch_break_toward_the_lower_slot(self):
        """Mirrored bank rows tie only for anchors with a zero first coordinate.

        Slots 2j and 2j + 1 hold a row and its mirror in coordinate 0, with
        one label per pair, so an anchor with u[0] == 0 sees every pair as an
        exact tie and an odd cut splits a pair; other anchors see no tie.
        """
        rng = np.random.default_rng(21)
        bank = MemoryBank(52, 6, name="b", seed=8)
        for j in range(24):
            row = rng.standard_normal(6)
            mirror = row.copy()
            mirror[0] = -mirror[0]
            bank.update(2 * j, row, j % 3)
            bank.update(2 * j + 1, mirror, j % 3)
        anchors = rng.standard_normal((6, 6))
        tied_rows = [0, 2, 3, 5]
        anchors[tied_rows, 0] = 0.0
        labels = [0, 1, 2, 0, 1, 2]
        indices = [48, 49, 50, 6, 7, 51]  # slots 48-51 are empty; rows 3 and 4 drop one slot of pair 3
        cfg = ContrastConfig(n_pos_hard=3, n_neg_hard=5, n_neg_rand=7)
        ref_rng = copy.deepcopy(bank.rng)
        want = [reference_mine(bank, a, y, i, cfg, ref_rng)
                for a, y, i in zip(anchors, labels, indices)]

        scores = score_heads([bank], anchors)[2]
        samples = row_samples(sample_batch([bank], scores, labels, indices, cfg, [bank.rng]), len(anchors), cfg)

        pairs_tie = scores[:, 0:48:2] == scores[:, 1:48:2]
        assert pairs_tie[tied_rows].all() and not pairs_tie[[1, 4]].any()
        assert bank.rng.bit_generator.state == ref_rng.bit_generator.state
        for b, (sample, mined) in enumerate(zip(samples, want)):
            assert (sample.positives.tolist(), sample.hard_negatives.tolist(),
                    sample.random_negatives.tolist()) == mined, f"row {b}"
        for b in (0, 2, 5):  # a pair straddles each cut, and the lower slot wins both directions
            positives, hard, _ = want[b]
            assert positives[2] % 2 == 0 and positives[2] + 1 not in positives
            assert hard[4] % 2 == 0 and hard[4] + 1 not in hard

    def test_slot_outside_the_bank_raises(self):
        bank, anchors, labels, indices = self.batch()
        stacked = Tensor(anchors, requires_grad=True)
        scored = score_heads([bank], anchors)
        for bad in (bank.length, -1):
            sample = ContrastSample(positives=np.array([1]), hard_negatives=np.array([bad]),
                                    random_negatives=np.array([], dtype=np.int64))
            mined = one_row(sample, row=1)  # row 1 of five
            with pytest.raises(DimensionError, match="outside"):
                info_nce_batch([stacked], [bank], scored, mined, ContrastConfig())

    def test_step_counts_unmined_anchors_as_skipped(self):
        bank, anchors, labels, indices = self.batch()
        cfg = ContrastConfig(n_pos_hard=4, n_neg_hard=3, n_neg_rand=4)
        losses, skipped = contrast_losses({"b": bank}, {"b": Tensor(anchors, requires_grad=True)}, labels, indices, cfg)
        assert losses["b"].shape == (5,)
        assert skipped == 2

    def test_cold_bank_mines_nothing_and_draws_nothing(self):
        bank = MemoryBank(8, 4, name="b", seed=0)
        state = copy.deepcopy(bank.rng.bit_generator.state)
        anchors = Tensor(np.eye(4), requires_grad=True)
        losses, skipped = contrast_losses({"b": bank}, {"b": anchors}, [0, 1, 0, 1], [0, 1, 2, 3], ContrastConfig())
        assert losses == {} and skipped == 4
        assert bank.rng.bit_generator.state == state

    def test_float32_keeps_anchor_dtype(self):
        bank, anchors, labels, indices = self.batch()
        cfg = ContrastConfig(n_pos_hard=4, n_neg_hard=3, n_neg_rand=4)
        with tz.using_precision("float32"):
            stacked = Tensor(anchors, requires_grad=True)
            scored = score_heads([bank], stacked.data)
            mined = sample_batch([bank], scored[2], labels, indices, cfg, [bank.rng])
            (losses,), _ = info_nce_batch([stacked], [bank], scored, mined, cfg)
            tz.sum_all(losses).backward()
        assert losses.data.dtype == np.float32
        assert stacked.grad.dtype == np.float32

    def test_degenerate_anchor_raises(self):
        bank, anchors, labels, indices = self.batch()
        anchors[2] = 0.0
        stacked = Tensor(anchors, requires_grad=True)
        with pytest.raises(NumericError, match="degenerate"):
            contrast_losses({"b": bank}, {"b": stacked}, labels, indices, ContrastConfig())


def per_row_loss(row, sample, cfg):
    """(loss, skipped) of one anchor from its score row, in the per-row numpy form."""
    inv_tau = 1.0 / cfg.tau
    pos = row[sample.positives] * inv_tau
    neg = row[sample.negatives] * inv_tau
    if cfg.loss_form == "exponentiated":
        shift = float(max(pos.max(), neg.max())) if neg.size else float(pos.max())
        exp_pos = np.exp(pos - shift)
        denom = exp_pos + np.exp(neg - shift).sum()
        return np.sum(np.log(denom) + shift - pos), 0
    denom = pos + neg.sum()
    clamped = np.where(denom - LITERAL_CLAMP > 0, denom - LITERAL_CLAMP, 0.0) + LITERAL_CLAMP
    keep = pos > 0.0
    loss = -np.sum(np.log(pos[keep]) - np.log(clamped[keep])) if keep.any() else 0.0
    return loss, pos.size - np.count_nonzero(keep)


def exact_rows():
    """Every integer 5-vector with squared norm 64.

    Their unit rows are v / 8, so a score between two of them is a multiple
    of 1/64 and comes out exact whatever order a matrix product sums in:
    a one-anchor product and a B-anchor product agree bit for bit, and
    equal scores are exact ties.
    """
    grid = np.stack(np.meshgrid(*[np.arange(-8, 9)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    rest = 64 - (grid**2).sum(axis=1)
    last = np.rint(np.sqrt(np.maximum(rest, 0))).astype(np.int64)
    fits = (rest >= 0) & (last**2 == rest)
    grid, last = grid[fits], last[fits]
    return np.concatenate([np.c_[grid, last], np.c_[grid, -last][last > 0]]).astype(np.float64)


EXACT_ROWS = exact_rows()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    length=st.integers(2, 30),
    num_labels=st.integers(1, 4),
    duplicates=st.integers(0, 12),
    batch=st.integers(1, 6),
    n_pos_hard=st.integers(1, 6),
    n_neg_hard=st.integers(0, 8),
    n_neg_rand=st.integers(0, 8),
    tau=st.sampled_from([0.1, 0.5, 0.8, 2.0]),
)
def test_batch_equals_batches_of_one(seed, length, num_labels, duplicates, batch,
                                     n_pos_hard, n_neg_hard, n_neg_rand, tau):
    """B mined rows equal B one-anchor calls and the oracle, and each row's loss its
    batch-of-one loss and the per-row form, bit for bit.

    Bank rows and anchors come from `EXACT_ROWS`, so one-anchor and batched
    products give the same scores.  Repeated scores, duplicated bank rows
    (under the same or another label) and anchors that copy a bank row put
    exact ties into some rows of a batch and not others.
    """
    if n_neg_hard + n_neg_rand == 0:
        n_neg_rand = 1
    rng = np.random.default_rng(seed)
    bank = MemoryBank(length, 5, name="b", seed=seed)
    for i in range(length):
        if rng.random() < 0.8:
            bank.update(i, EXACT_ROWS[rng.integers(len(EXACT_ROWS))], int(rng.integers(num_labels)))
    written = np.flatnonzero(bank.valid)
    for _ in range(duplicates if written.size else 0):
        src, dst = int(rng.choice(written)), int(rng.integers(length))
        label = int(bank.labels[dst]) if bank.valid[dst] else int(rng.integers(num_labels))
        bank.update(dst, bank.features[src], label)
        written = np.flatnonzero(bank.valid)
    anchors = EXACT_ROWS[rng.integers(len(EXACT_ROWS), size=batch)]
    for b in range(batch):
        if written.size and rng.random() < 0.4:
            anchors[b] = 4.0 * bank.features[rng.choice(written)]
    labels = rng.integers(num_labels, size=batch).tolist()
    indices = rng.integers(length, size=batch).tolist()
    cfg = ContrastConfig(tau=tau, n_pos_hard=n_pos_hard, n_neg_hard=n_neg_hard, n_neg_rand=n_neg_rand)

    one_rng, oracle_rng = copy.deepcopy(bank.rng), copy.deepcopy(bank.rng)
    one_by_one = [sample_contrast(bank, a, y, i, cfg, one_rng) for a, y, i in zip(anchors, labels, indices)]
    oracle = [reference_mine(bank, a, y, i, cfg, oracle_rng) for a, y, i in zip(anchors, labels, indices)]
    scored = score_heads([bank], anchors)
    units, norms, scores = scored
    rows_mined = sample_batch([bank], scores, labels, indices, cfg, [bank.rng])
    samples = row_samples(rows_mined, batch, cfg)

    assert bank.rng.bit_generator.state == one_rng.bit_generator.state == oracle_rng.bit_generator.state
    for got, want, mined in zip(samples, one_by_one, oracle):
        if want is None:
            assert got is None and mined is None
            continue
        fields = ("positives", "hard_negatives", "random_negatives")
        lists = [getattr(got, f).tolist() for f in fields]
        assert lists == [getattr(want, f).tolist() for f in fields]
        assert tuple(lists) == mined
    for form in LOSS_FORMS:
        form_cfg = dataclasses.replace(cfg, loss_form=form)
        (losses,), skipped = info_nce_batch([Tensor(anchors)], [bank], scored, rows_mined, form_cfg)
        for b, sample in enumerate(samples):
            if sample is None:
                assert losses.data[b] == 0.0 and skipped[b] == 0
                continue
            (single,), single_skipped = info_nce_batch(
                [Tensor(anchors[b : b + 1])], [bank], (units[b : b + 1], norms[b : b + 1], scores[b : b + 1]),
                one_row(sample), form_cfg,
            )
            assert losses.data[b] == single.data[0]
            assert skipped[b] == single_skipped[0]
            assert (losses.data[b], skipped[b]) == per_row_loss(scores[b], sample, form_cfg)


class TestInstrumentation:
    def test_read_write_counters(self):
        ds, model, banks, cfg, optimizer = stale_training_state()
        batch = list(ds)[: cfg.batch_size]
        instrumentation.reset()
        train_step(batch, model, banks, cfg, optimizer, lr=cfg.learning_rate)
        assert instrumentation.count("bank_reads") == 2 * len(batch)
        assert instrumentation.count("bank_writes") == 2 * len(batch)


def two_head_banks(rng, length, fill, ties):
    """Spatial and temporal banks with the same labels and valid slots, as one fit writes them.

    `fill` is the chance that a slot is written (0: empty, 1: full).  With
    `ties`, some slots copy another slot's row, so their scores tie exactly.
    """
    banks = make_banks(length, 5, seed=int(rng.integers(2**31)))
    for i in range(length):
        if rng.random() < fill:
            label = int(rng.integers(3))
            for bank in banks.values():
                bank.update(i, rng.standard_normal(5), label)
    written = np.flatnonzero(banks["spatial"].valid)
    for dst in (written[1::2] if ties and written.size > 1 else []):
        for bank in banks.values():
            bank.features[dst] = bank.features[written[0]]
    return banks


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    length=st.integers(2, 30),
    fill=st.sampled_from([0.0, 0.5, 1.0]),
    ties=st.booleans(),
    batch=st.integers(1, 6),
    n_pos_hard=st.integers(1, 6),
    n_neg_hard=st.integers(0, 8),
    n_neg_rand=st.integers(0, 8),
    form=st.sampled_from(LOSS_FORMS),
)
def test_two_heads_equal_two_one_head_calls(seed, length, fill, ties, batch, n_pos_hard, n_neg_hard,
                                            n_neg_rand, form):
    """One two-head pass gives, bit for bit, the losses, anchor gradients, skip
    counts and rng states of one call per head."""
    if n_neg_hard + n_neg_rand == 0:
        n_neg_rand = 1
    rng = np.random.default_rng(seed)
    banks = two_head_banks(rng, length, fill, ties)
    single_banks = copy.deepcopy(banks)
    anchors = {name: rng.standard_normal((batch, 5)) for name in banks}
    written = np.flatnonzero(banks["spatial"].valid)
    for name, rows in anchors.items():  # some anchors copy a bank row: more exact ties
        for b in range(batch):
            if written.size and rng.random() < 0.3:
                rows[b] = 3.0 * banks[name].features[rng.choice(written)]
    labels = rng.integers(3, size=batch).tolist()
    indices = rng.integers(length, size=batch).tolist()
    cfg = ContrastConfig(tau=0.5, n_pos_hard=n_pos_hard, n_neg_hard=n_neg_hard, n_neg_rand=n_neg_rand,
                         loss_form=form)

    both = {name: Tensor(rows, requires_grad=True) for name, rows in anchors.items()}
    losses, skipped = contrast_losses(banks, both, labels, indices, cfg)
    if losses:
        total = None
        for head in losses.values():
            total = tz.sum_all(head) if total is None else tz.add(total, tz.sum_all(head))
        total.backward()
    single_skipped = 0
    for name, rows in anchors.items():
        alone = Tensor(rows, requires_grad=True)
        head_losses, head_skipped = contrast_losses({name: single_banks[name]}, {name: alone}, labels, indices, cfg)
        single_skipped += head_skipped
        assert (name in losses) == (name in head_losses)
        if name in losses:
            tz.sum_all(head_losses[name]).backward()
            np.testing.assert_array_equal(losses[name].data, head_losses[name].data)
            np.testing.assert_array_equal(both[name].grad, alone.grad)
        assert banks[name].rng.bit_generator.state == single_banks[name].rng.bit_generator.state
    assert skipped == single_skipped


@pytest.mark.parametrize("field", ["labels", "valid"])
def test_heads_whose_slots_disagree_raise(field):
    banks = two_head_banks(np.random.default_rng(4), length=12, fill=0.6, ties=False)
    free = int(np.flatnonzero(~banks["temporal"].valid)[0])
    if field == "labels":
        slot = int(np.flatnonzero(banks["temporal"].valid)[0])
        banks["temporal"].labels[slot] += 1
    else:
        banks["temporal"].update(free, np.ones(5), 0)
    anchors = {name: Tensor(np.ones((2, 5))) for name in banks}
    with pytest.raises(BankIntegrityError, match="disagree"):
        contrast_losses(banks, anchors, [0, 1], [0, 1], ContrastConfig())


def test_a_step_normalizes_each_anchor_once(monkeypatch):
    ds, model, banks, cfg, optimizer = stale_training_state()
    batch = list(ds)[: cfg.batch_size]
    normalized = []
    original = contrast._unit_rows

    def spy(anchors):
        normalized.append(np.shape(anchors))
        return original(anchors)

    monkeypatch.setattr(contrast, "_unit_rows", spy)
    instrumentation.reset()
    train_step(batch, model, banks, cfg, optimizer, lr=cfg.learning_rate)
    assert normalized == [(2 * len(batch), cfg.embed_dim)]
    assert instrumentation.count("bank_reads") == 2 * len(batch)
