"""Prototype banks, losses, analytic gradients, and the training loop."""

import importlib
import math

import numpy as np
import pytest

from protouq import (
    TEXT,
    VISION,
    EvidenceConfig,
    PairSet,
    SyntheticSpec,
    TrainConfig,
    generate_corpus,
    generate_evidence,
    gradients,
    init_prototypes,
    loss_div,
    loss_uct,
    normalize_rows,
    train,
)
from protouq.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    EmptyMatrix,
    IndexOutOfRange,
    InsufficientPairs,
    InvalidConfig,
    InvariantViolation,
    LengthMismatch,
    ModalityMismatch,
    ZeroPrototype,
)
from protouq.embed import _grouped
from protouq.evidence import EVIDENCE_KINDS, dirichlet_uncertainty, evidence_slope
from protouq.train import (
    H_MAPPINGS,
    PrototypeBank,
    _AdamState,
    _batch_gradients,
    map_targets,
)
from test_embed import unit_rows


class TestInitPrototypes:
    def test_entries_within_xavier_bound(self):
        bank = init_prototypes(k=8, d=32, seed=0)
        bound = np.sqrt(6.0 / (2.0 * 32))
        assert np.all(np.abs(bank.vectors) <= bound)

    def test_shape_and_modality(self):
        bank = init_prototypes(k=5, d=16, seed=1, modality=TEXT)
        assert bank.vectors.shape == (5, 16)
        assert (bank.k, bank.d, bank.modality) == (5, 16, TEXT)

    def test_same_seed_same_bits(self):
        a = init_prototypes(k=4, d=8, seed=7)
        b = init_prototypes(k=4, d=8, seed=7)
        assert np.array_equal(a.vectors, b.vectors)

    def test_different_seeds_differ(self):
        a = init_prototypes(k=4, d=8, seed=7)
        b = init_prototypes(k=4, d=8, seed=8)
        assert not np.array_equal(a.vectors, b.vectors)

    def test_k_zero_rejected(self):
        with pytest.raises(InvalidConfig):
            init_prototypes(k=0, d=8, seed=0)

    def test_d_one_rejected(self):
        with pytest.raises(DimensionTooSmall):
            init_prototypes(k=2, d=1, seed=0)

    def test_k_and_d_are_integers(self):
        # operator.index: NumPy integers pass, a float is refused even when whole
        assert init_prototypes(k=np.int64(2), d=np.int32(4), seed=0).vectors.shape == (2, 4)
        with pytest.raises(InvalidConfig, match="k must be an integer, got 2.0"):
            init_prototypes(k=2.0, d=4, seed=0)
        with pytest.raises(DimensionTooSmall, match="d must be an integer, got 4.5"):
            init_prototypes(k=2, d=4.5, seed=0)

    @pytest.mark.parametrize("seed", [1.5, -1, None])
    def test_seed_is_an_unsigned_integer(self, seed):
        # None would draw an unseeded bank
        with pytest.raises(InvalidConfig, match="seed must be"):
            init_prototypes(k=2, d=4, seed=seed)

    def test_bank_beyond_numpy_rejected(self):
        with pytest.raises(InvalidConfig, match="exceeds NumPy's largest array"):
            init_prototypes(k=10**20, d=8, seed=0)


class TestPrototypeBank:
    def test_unknown_modality_rejected(self):
        with pytest.raises(ModalityMismatch, match="unknown modality 'audio'"):
            PrototypeBank(modality="audio", vectors=np.eye(2))

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroPrototype):
            PrototypeBank(modality=VISION, vectors=np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(InvariantViolation):
            PrototypeBank(modality=VISION, vectors=np.array([[1.0, np.inf]]))

    def test_one_dimensional_rejected(self):
        with pytest.raises(InvariantViolation):
            PrototypeBank(modality=VISION, vectors=np.array([1.0, 2.0]))

    def test_empty_bank_rejected(self):
        with pytest.raises(EmptyMatrix):
            PrototypeBank(modality=VISION, vectors=np.empty((0, 4)))

    def test_overflowing_row_norm_rejected(self):
        # Every entry is finite, but the row norm overflows float64.
        with pytest.raises(InvariantViolation, match="row 1"):
            PrototypeBank(modality=TEXT, vectors=np.array([[1.0, 0.0], [1e300, 1e300]]))

    def test_vectors_are_immutable(self):
        bank = init_prototypes(k=2, d=4, seed=2)
        with pytest.raises(ValueError):
            bank.vectors[0, 0] = 9.0


class TestTrainConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"epochs": 0},
            {"k": 0},
            {"batch_size": 1},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"lambda_div": -0.5},
            {"h_mapping": "sigmoid"},
            {"learning_rate": float("nan")},
            {"seed": -1},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        base = dict(epochs=1, seed=0)
        base.update(overrides)
        with pytest.raises(InvalidConfig):
            TrainConfig(**base)

    @pytest.mark.parametrize("name", ["epochs", "seed", "k", "batch_size"])
    def test_counts_and_seed_are_integers(self, name):
        # operator.index: NumPy integers pass, a float is refused even when whole
        base = dict(epochs=1, seed=0)
        assert getattr(TrainConfig(**{**base, name: np.int64(3)}), name) == 3
        for value in (1.5, 3.0):
            with pytest.raises(InvalidConfig, match=f"{name} must be an integer, got {value}"):
                TrainConfig(**{**base, name: value})

    def test_known_option_lists(self):
        assert set(H_MAPPINGS) == {"clamp", "affine"}


class TestMapTargets:
    def test_clamp(self):
        out = map_targets(np.array([-0.5, 0.3, 1.7]), "clamp")
        assert out.tolist() == [0.0, 0.3, 1.0]

    def test_affine(self):
        out = map_targets(np.array([-1.0, 0.0, 1.0]), "affine")
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidConfig):
            map_targets(np.zeros(2), "square")


class TestLossUct:
    def test_identical_vectors_score_zero(self):
        u = np.array([0.2, 0.7, 0.4])
        assert loss_uct(u, u) == 0.0

    def test_half_from_one_unit_error_over_two(self):
        assert loss_uct([1.0, 0.0], [0.0, 0.0]) == 0.5
        # a finite gap whose square passes float64 is inf, with no warning
        assert loss_uct([1e200], [0.0]) == math.inf

    def test_permutation_invariance(self):
        u = np.array([0.1, 0.9, 0.4])
        h = np.array([0.3, 0.2, 0.8])
        perm = [2, 0, 1]
        assert loss_uct(u, h) == pytest.approx(loss_uct(u[perm], h[perm]), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            loss_uct([0.1], [0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatch):
            loss_uct([], [])


class TestLossDiv:
    def test_orthogonal_bank_hits_lower_bound(self):
        bank = PrototypeBank(modality=VISION, vectors=np.eye(4))
        assert loss_div(bank) == 0.25

    def test_identical_rows_score_one(self):
        bank = PrototypeBank(modality=VISION, vectors=np.tile([1.0, 2.0, 0.5], (3, 1)))
        assert loss_div(bank) == pytest.approx(1.0, abs=1e-12)

    def test_single_prototype_scores_one(self):
        bank = PrototypeBank(modality=VISION, vectors=np.array([[2.0, 1.0]]))
        assert loss_div(bank) == pytest.approx(1.0, abs=1e-12)

    def test_lower_bound_one_over_k(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            bank = PrototypeBank(modality=VISION, vectors=rng.standard_normal((k, 6)))
            assert loss_div(bank) >= 1.0 / k - 1e-12

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(31)
        vectors = rng.standard_normal((5, 7))
        a = loss_div(PrototypeBank(modality=VISION, vectors=vectors))
        b = loss_div(PrototypeBank(modality=VISION, vectors=vectors * 3.7))
        assert a == pytest.approx(b, abs=1e-9)


def reference_total_loss(xv, xt, zv, zt, cfg):
    """Total loss recomputed with plain loops, no shared code with train."""
    evidence_cfg = cfg.evidence

    def evidence_of(s):
        if evidence_cfg.kind == "relu":
            return max(0.0, s)
        if evidence_cfg.kind == "softplus":
            scaled = evidence_cfg.gamma * s
            if scaled <= evidence_cfg.theta:
                return float(np.log1p(np.exp(scaled))) / evidence_cfg.gamma
            return s
        return float(np.exp(s / evidence_cfg.tau))

    def u_against(instances, bank):
        out = []
        for x in instances:
            total = 0.0
            for z in bank:
                total += evidence_of(float(np.dot(x, z)))
            s = len(bank) + total
            out.append(1.0 - len(bank) / s)
        return np.array(out)

    m = np.clip(xv @ xt.T, -1.0, 1.0)
    h_v = map_targets(m.mean(axis=1), cfg.h_mapping)
    h_t = map_targets(m.mean(axis=0), cfg.h_mapping)
    value = loss_uct(u_against(xv, zt), h_v) + loss_uct(u_against(xt, zv), h_t)

    def div_of(z):
        k = z.shape[0]
        total = 0.0
        for i in range(k):
            for j in range(k):
                zi = z[i] / np.linalg.norm(z[i])
                zj = z[j] / np.linalg.norm(z[j])
                total += float(np.dot(zi, zj)) ** 2
        return total / (k * k)

    return value + cfg.lambda_div * (div_of(zv) + div_of(zt))


class TestGradients:
    @pytest.mark.parametrize("kind", ["relu", "softplus", "exponential"])
    def test_matches_central_finite_differences(self, kind):
        rng = np.random.default_rng(40)
        n, k, d = 8, 4, 10
        cfg = TrainConfig(epochs=1, seed=0, k=k, evidence=EvidenceConfig(kind=kind))
        vis = unit_rows(n, d, seed=41, modality=VISION)
        txt = unit_rows(n, d, seed=42, modality=TEXT)
        # offset keeps relu's dot products away from its kink at 0
        bank_v = PrototypeBank(modality=VISION, vectors=rng.standard_normal((k, d)) * 0.5 + 0.3)
        bank_t = PrototypeBank(modality=TEXT, vectors=rng.standard_normal((k, d)) * 0.5 + 0.3)
        grad_v, grad_t, _ = gradients(vis, txt, bank_v, bank_t, cfg)

        eps = 1e-5
        for bank, grad, which in ((bank_v, grad_v, "v"), (bank_t, grad_t, "t")):
            numeric = np.zeros_like(grad)
            for i in range(k):
                for j in range(d):
                    plus = np.array(bank.vectors)
                    minus = np.array(bank.vectors)
                    plus[i, j] += eps
                    minus[i, j] -= eps
                    if which == "v":
                        hi = reference_total_loss(vis.vectors, txt.vectors, plus, bank_t.vectors, cfg)
                        lo = reference_total_loss(vis.vectors, txt.vectors, minus, bank_t.vectors, cfg)
                    else:
                        hi = reference_total_loss(vis.vectors, txt.vectors, bank_v.vectors, plus, cfg)
                        lo = reference_total_loss(vis.vectors, txt.vectors, bank_v.vectors, minus, cfg)
                    numeric[i, j] = (hi - lo) / (2 * eps)
            scale = max(float(np.abs(numeric).max()), 1e-12)
            assert float(np.abs(grad - numeric).max()) / scale < 1e-6

    def test_losses_match_reference(self):
        cfg = TrainConfig(epochs=1, seed=0, k=3)
        vis = unit_rows(6, 8, seed=43, modality=VISION)
        txt = unit_rows(6, 8, seed=44, modality=TEXT)
        bank_v = init_prototypes(3, 8, seed=45, modality=VISION)
        bank_t = init_prototypes(3, 8, seed=46, modality=TEXT)
        _, _, losses = gradients(vis, txt, bank_v, bank_t, cfg)
        want = reference_total_loss(vis.vectors, txt.vectors, bank_v.vectors, bank_t.vectors, cfg)
        assert losses.total == pytest.approx(want, abs=1e-12)
        assert losses.total == pytest.approx(
            losses.uct_v + losses.uct_t + cfg.lambda_div * (losses.div_v + losses.div_t),
            abs=1e-15,
        )

    @pytest.mark.parametrize("h_mapping", H_MAPPINGS)
    def test_batch_losses_match_matrix_built_targets(self, h_mapping):
        cfg = TrainConfig(epochs=1, seed=0, k=4, h_mapping=h_mapping)
        rng = np.random.default_rng(54)
        # A shared offset spreads the mean similarities over negative and positive values.
        xv = normalize_rows(rng.standard_normal((64, 12)) + 0.3, VISION).vectors
        xt = normalize_rows(rng.standard_normal((64, 12)) + 0.3, TEXT).vectors
        z_v = init_prototypes(4, 12, seed=55).vectors
        z_t = init_prototypes(4, 12, seed=56, modality=TEXT).vectors
        _, losses = _batch_gradients(np.stack((xt, xv)), np.stack((z_v, z_t)), cfg)
        m = np.clip(xv @ xt.T, -1.0, 1.0)
        for x, bank, h, got in ((xv, z_t, m.mean(axis=1), losses.uct_v),
                                (xt, z_v, m.mean(axis=0), losses.uct_t)):
            u, _ = dirichlet_uncertainty(generate_evidence(x @ bank.T, cfg.evidence))
            assert got == pytest.approx(loss_uct(u, map_targets(h, h_mapping)), abs=1e-12)

    def test_vision_uncertainty_ignores_vision_bank(self):
        # u_v is scored against the text bank, so uct_v must not move when
        # the vision bank changes
        cfg = TrainConfig(epochs=1, seed=0, k=3, lambda_div=0.0)
        vis = unit_rows(5, 6, seed=47, modality=VISION)
        txt = unit_rows(5, 6, seed=48, modality=TEXT)
        bank_t = init_prototypes(3, 6, seed=49, modality=TEXT)
        _, _, losses_a = gradients(vis, txt, init_prototypes(3, 6, seed=50), bank_t, cfg)
        _, _, losses_b = gradients(vis, txt, init_prototypes(3, 6, seed=51), bank_t, cfg)
        assert losses_a.uct_v == losses_b.uct_v
        assert losses_a.uct_t != losses_b.uct_t

    def test_orthogonal_bank_diversity_gradient_vanishes(self):
        # with u == h impossible to arrange cheaply, isolate the div term:
        # lambda large, uct contribution fixed by comparing against lambda=0
        vis = unit_rows(4, 4, seed=52, modality=VISION)
        txt = unit_rows(4, 4, seed=53, modality=TEXT)
        bank = PrototypeBank(modality=VISION, vectors=np.eye(4))
        bank_t = PrototypeBank(modality=TEXT, vectors=np.eye(4))
        with_div = gradients(vis, txt, bank, bank_t, TrainConfig(epochs=1, seed=0, k=4, lambda_div=1.0))
        without = gradients(vis, txt, bank, bank_t, TrainConfig(epochs=1, seed=0, k=4, lambda_div=0.0))
        assert np.allclose(with_div[0], without[0], atol=1e-12)
        assert np.allclose(with_div[1], without[1], atol=1e-12)

    def test_single_pair_batch_rejected(self):
        vis = unit_rows(1, 4, seed=54, modality=VISION)
        txt = unit_rows(1, 4, seed=55, modality=TEXT)
        bank_v = init_prototypes(2, 4, seed=56)
        bank_t = init_prototypes(2, 4, seed=57, modality=TEXT)
        with pytest.raises(InsufficientPairs):
            gradients(vis, txt, bank_v, bank_t, TrainConfig(epochs=1, seed=0, k=2))

    def test_misaligned_batch_rejected(self):
        vis = unit_rows(3, 4, seed=58, modality=VISION)
        txt = unit_rows(4, 4, seed=59, modality=TEXT)
        bank_v = init_prototypes(2, 4, seed=60)
        bank_t = init_prototypes(2, 4, seed=61, modality=TEXT)
        with pytest.raises(LengthMismatch):
            gradients(vis, txt, bank_v, bank_t, TrainConfig(epochs=1, seed=0, k=2))

    def test_instance_dimension_mismatch_rejected(self):
        vis = unit_rows(3, 4, seed=16, modality=VISION)
        txt = unit_rows(3, 5, seed=17, modality=TEXT)
        bank_v = init_prototypes(2, 4, seed=60)
        bank_t = init_prototypes(2, 4, seed=61, modality=TEXT)
        with pytest.raises(DimensionMismatch):
            gradients(vis, txt, bank_v, bank_t, TrainConfig(epochs=1, seed=0, k=2))

    @pytest.mark.parametrize("swap", ["sets", "banks"])
    def test_swapped_modalities_rejected(self, swap):
        sets = [unit_rows(3, 4, seed=66, modality=VISION), unit_rows(3, 4, seed=67, modality=TEXT)]
        banks = [init_prototypes(2, 4, seed=68), init_prototypes(2, 4, seed=69, modality=TEXT)]
        (sets if swap == "sets" else banks).reverse()
        with pytest.raises(ModalityMismatch):
            gradients(*sets, *banks, TrainConfig(epochs=1, seed=0, k=2))

    def test_bank_dimension_mismatch_rejected(self):
        vis = unit_rows(3, 4, seed=62, modality=VISION)
        txt = unit_rows(3, 4, seed=63, modality=TEXT)
        bank_v = init_prototypes(2, 6, seed=64)
        bank_t = init_prototypes(2, 4, seed=65, modality=TEXT)
        with pytest.raises(DimensionMismatch):
            gradients(vis, txt, bank_v, bank_t, TrainConfig(epochs=1, seed=0, k=2))


def smoke_corpus():
    return generate_corpus(SyntheticSpec(n_items=240, d=32, k_true=8, seed=21))


def smoke_config(**overrides):
    base = dict(epochs=12, seed=5, k=8, batch_size=64, learning_rate=0.5, lambda_div=0.0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrain:
    def test_same_seed_same_banks(self):
        vis, txt, pairs, _ = smoke_corpus()
        cfg = smoke_config(epochs=3)
        bank_v1, bank_t1, hist1 = train(vis, txt, pairs, cfg)
        bank_v2, bank_t2, hist2 = train(vis, txt, pairs, cfg)
        assert np.array_equal(bank_v1.vectors, bank_v2.vectors)
        assert np.array_equal(bank_t1.vectors, bank_t2.vectors)
        assert hist1.records == hist2.records

    def test_different_seed_different_banks(self):
        vis, txt, pairs, _ = smoke_corpus()
        bank_v1, _, _ = train(vis, txt, pairs, smoke_config(epochs=2, seed=5))
        bank_v2, _, _ = train(vis, txt, pairs, smoke_config(epochs=2, seed=6))
        assert not np.array_equal(bank_v1.vectors, bank_v2.vectors)

    def test_history_bookkeeping(self):
        vis, txt, pairs, _ = smoke_corpus()
        _, _, hist = train(vis, txt, pairs, smoke_config(epochs=4))
        assert len(hist) == 4
        assert [r.epoch for r in hist.records] == [0, 1, 2, 3]
        assert hist.final is hist.records[-1]
        for r in hist.records:
            assert r.total == pytest.approx(
                r.uct_v + r.uct_t + 0.0 * (r.div_v + r.div_t), abs=1e-12
            )

    def test_loss_decreases_on_smoke_corpus(self):
        vis, txt, pairs, _ = smoke_corpus()
        _, _, hist = train(vis, txt, pairs, smoke_config())
        totals = [r.total for r in hist.records]
        smoothed = [np.mean(totals[max(0, i - 4):i + 1]) for i in range(len(totals))]
        assert all(b <= a + 1e-12 for a, b in zip(smoothed, smoothed[1:]))
        assert totals[-1] < totals[0]

    def test_banks_keep_expected_shapes(self):
        vis, txt, pairs, _ = smoke_corpus()
        cfg = smoke_config(epochs=2, k=5)
        bank_v, bank_t, _ = train(vis, txt, pairs, cfg)
        assert bank_v.vectors.shape == (5, 32) and bank_v.modality == VISION
        assert bank_t.vectors.shape == (5, 32) and bank_t.modality == TEXT

    def test_trailing_single_pair_batch_is_dropped(self):
        vis = unit_rows(5, 4, seed=70, modality=VISION)
        txt = unit_rows(5, 4, seed=71, modality=TEXT)
        pairs = PairSet(pairs=tuple((i, i) for i in range(5)))
        cfg = TrainConfig(epochs=2, seed=0, k=2, batch_size=2)
        _, _, hist = train(vis, txt, pairs, cfg)
        assert len(hist) == 2

    def test_swapped_modalities_rejected(self):
        vis, txt, pairs, _ = smoke_corpus()
        with pytest.raises(ModalityMismatch):
            train(txt, vis, pairs, smoke_config(epochs=1))

    def test_too_few_pairs_rejected(self):
        vis = unit_rows(1, 4, seed=72, modality=VISION)
        txt = unit_rows(1, 4, seed=73, modality=TEXT)
        with pytest.raises(InsufficientPairs):
            train(vis, txt, PairSet(pairs=((0, 0),)), TrainConfig(epochs=1, seed=0, k=2))

    def test_one_item_gives_only_one_pair_batches(self):
        # two pairs, but an epoch takes one caption per item
        vis = unit_rows(1, 4, seed=76, modality=VISION)
        txt = unit_rows(2, 4, seed=77, modality=TEXT)
        pairs = PairSet(pairs=((0, 0), (0, 1)))
        with pytest.raises(InsufficientPairs, match="every batch in the epoch was smaller than 2"):
            train(vis, txt, pairs, TrainConfig(epochs=1, seed=0, k=2))

    def test_pair_indices_validated(self):
        vis = unit_rows(3, 4, seed=74, modality=VISION)
        txt = unit_rows(3, 4, seed=75, modality=TEXT)
        pairs = PairSet(pairs=((0, 0), (1, 1), (2, 5)))
        with pytest.raises(IndexOutOfRange):
            train(vis, txt, pairs, TrainConfig(epochs=1, seed=0, k=2))


def many_to_many_corpus():
    """30 items with 1, 2 and 5 captions; every multi-caption item shares one
    caption with the item before it, and the pairs come in shuffled order."""
    rng = np.random.default_rng(80)
    pairs, n_text = [], 0
    for item in range(30):
        own = [1, 1, 4][item % 3]
        pairs += [(item, n_text + c) for c in range(own)]
        if item % 3:
            pairs.append((item, n_text - 1))
        n_text += own
    order = rng.permutation(len(pairs))
    vis = unit_rows(30, 8, seed=81, modality=VISION)
    txt = unit_rows(n_text, 8, seed=82, modality=TEXT)
    return vis, txt, PairSet(pairs=[pairs[i] for i in order])


def reference_train(vis, txt, pairs, cfg):
    """The plain step and Adam with the per-item caption loop: one
    integers() draw per item with several captions, walked in permutation
    order."""
    caption_lists = {}
    for v, t in pairs.pairs.tolist():
        caption_lists.setdefault(v, []).append(t)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    z_v = np.array(init_prototypes(cfg.k, vis.d, int(seeds[0]), VISION).vectors)
    z_t = np.array(init_prototypes(cfg.k, vis.d, int(seeds[1]), TEXT).vectors)
    sampler = np.random.default_rng(int(seeds[2]))
    opt_v = PlainAdam(z_v.shape, cfg.learning_rate)
    opt_t = PlainAdam(z_t.shape, cfg.learning_rate)
    batches = []
    for _ in range(cfg.epochs):
        order = sampler.permutation(vis.n)
        chosen = np.empty(vis.n, dtype=np.int64)
        for slot, v in enumerate(order):
            options = sorted(caption_lists[int(v)])
            chosen[slot] = options[sampler.integers(len(options))] if len(options) > 1 else options[0]
        for start in range(0, vis.n, cfg.batch_size):
            rows, cols = order[start:start + cfg.batch_size], chosen[start:start + cfg.batch_size]
            if rows.size < 2:
                continue
            batches.append(cols)
            grad_v, grad_t, _ = plain_batch_gradients(vis.vectors[rows], txt.vectors[cols], z_v, z_t, cfg)
            opt_v.step(z_v, grad_v)
            opt_t.step(z_t, grad_t)
    return z_v, z_t, batches


def test_caption_sampler_matches_per_item_reference(monkeypatch):
    vis, txt, pairs = many_to_many_corpus()
    counts = np.bincount(pairs.vision_indices)
    assert sorted(set(counts.tolist())) == [1, 2, 5]
    assert np.bincount(pairs.text_indices).max() == 2
    cfg = TrainConfig(epochs=4, seed=9, k=4, batch_size=7, learning_rate=0.1)
    ref_v, ref_t, ref_batches = reference_train(vis, txt, pairs, cfg)

    seen = []

    def recording(x, z, cfg):
        # train() reuses one gather buffer, so the text rows are copied.
        seen.append(x[0].copy())
        return _batch_gradients(x, z, cfg)

    monkeypatch.setattr(importlib.import_module("protouq.train"), "_batch_gradients", recording)
    bank_v, bank_t, _ = train(vis, txt, pairs, cfg)
    assert len(seen) == len(ref_batches)
    for xt, cols in zip(seen, ref_batches):
        assert np.array_equal(xt, txt.vectors[cols])
    assert np.array_equal(bank_v.vectors, ref_v)
    assert np.array_equal(bank_t.vectors, ref_t)


# ---- the training step written out in full: the lean step must keep its bits ----


def plain_uct_value_grads(instances, bank_vectors, targets, cfg):
    n, _ = instances.shape
    k = bank_vectors.shape[0]
    p = instances @ bank_vectors.T
    u, strength = dirichlet_uncertainty(generate_evidence(p, cfg))
    diff = u - targets
    value = float(np.mean(diff * diff))
    with np.errstate(over="ignore"):
        squared = strength * strength
    slope = k / squared
    huge = np.isinf(squared)
    if huge.any():
        slope[huge] = k / strength[huge] / strength[huge]
    weight = (2.0 / n) * diff * slope
    if cfg.kind == "exponential":
        dslope = np.exp(p / cfg.tau) / cfg.tau
    else:
        dslope = evidence_slope(p, cfg)
    return value, (weight[:, None] * dslope).T @ instances


def plain_div_value_grad(vectors):
    k = vectors.shape[0]
    norms = np.linalg.norm(vectors, axis=1)
    unit = vectors / norms[:, None]
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    row_sq = (gram * gram).sum(axis=1)
    grad = (4.0 / (k * k)) * (gram @ unit - row_sq[:, None] * unit) / norms[:, None]
    return float(np.mean(gram * gram)), grad


def plain_batch_gradients(xv, xt, z_v, z_t, cfg):
    h_v = map_targets(np.clip(xv @ xt.mean(axis=0), -1.0, 1.0), cfg.h_mapping)
    h_t = map_targets(np.clip(xt @ xv.mean(axis=0), -1.0, 1.0), cfg.h_mapping)
    uct_v, grad_t_uct = plain_uct_value_grads(xv, z_t, h_v, cfg.evidence)
    uct_t, grad_v_uct = plain_uct_value_grads(xt, z_v, h_t, cfg.evidence)
    div_v, grad_v_div = plain_div_value_grad(z_v)
    div_t, grad_t_div = plain_div_value_grad(z_t)
    grad_v = grad_v_uct + cfg.lambda_div * grad_v_div
    grad_t = grad_t_uct + cfg.lambda_div * grad_t_div
    total = uct_v + uct_t + cfg.lambda_div * (div_v + div_t)
    return grad_v, grad_t, (uct_v, uct_t, div_v, div_t, total)


class PlainAdam:
    def __init__(self, shape, lr):
        self.lr, self.m, self.v, self.t = lr, np.zeros(shape), np.zeros(shape), 0

    def step(self, params, grad):
        self.t += 1
        self.m = 0.9 * self.m + (1.0 - 0.9) * grad
        self.v = 0.999 * self.v + (1.0 - 0.999) * grad * grad
        m_hat = self.m / (1.0 - 0.9 ** self.t)
        v_hat = self.v / (1.0 - 0.999 ** self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def plain_train(vis, txt, pairs, cfg):
    """train() as first written, on the plain step, Adam and loss sums."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    z_v = np.array(init_prototypes(cfg.k, vis.d, int(seeds[0]), VISION).vectors)
    z_t = np.array(init_prototypes(cfg.k, vis.d, int(seeds[1]), TEXT).vectors)
    sampler = np.random.default_rng(int(seeds[2]))
    opt_v, opt_t = PlainAdam(z_v.shape, cfg.learning_rate), PlainAdam(z_t.shape, cfg.learning_rate)
    _, starts, counts, captions = _grouped(pairs.vision_indices, pairs.text_indices)
    records = []
    for epoch in range(cfg.epochs):
        order = sampler.permutation(vis.n)
        options = counts[order]
        pick = np.zeros(vis.n, dtype=np.int64)
        pick[options > 1] = sampler.integers(options[options > 1])
        chosen = captions[starts[order] + pick]
        sums, batches = np.zeros(5), 0
        for start in range(0, vis.n, cfg.batch_size):
            rows, cols = order[start:start + cfg.batch_size], chosen[start:start + cfg.batch_size]
            if rows.size < 2:
                continue
            grad_v, grad_t, losses = plain_batch_gradients(
                vis.vectors[rows], txt.vectors[cols], z_v, z_t, cfg
            )
            opt_v.step(z_v, grad_v)
            opt_t.step(z_t, grad_t)
            sums += losses
            batches += 1
        records.append((epoch, *map(float, sums / batches)))
    return z_v, z_t, records


def stacked_step(xv, xt, z_v, z_t, cfg):
    """_batch_gradients on the stacks train() builds, split back per bank."""
    grad, losses = _batch_gradients(np.stack((xt, xv)), np.stack((z_v, z_t)), cfg)
    return grad[0], grad[1], losses


def step_inputs(seed):
    rng = np.random.default_rng(seed)
    # A shared offset spreads the mean similarities over negative and positive values.
    xv = normalize_rows(rng.standard_normal((256, 32)) + 0.2, VISION).vectors
    xt = normalize_rows(rng.standard_normal((256, 32)) + 0.2, TEXT).vectors
    return xv, xt, rng.standard_normal((8, 32)) * 0.5, rng.standard_normal((8, 32)) * 0.5


@pytest.mark.parametrize("kind", EVIDENCE_KINDS)
@pytest.mark.parametrize("h_mapping", H_MAPPINGS)
@pytest.mark.parametrize("lambda_div", [0.0, 0.7])
def test_lean_step_keeps_the_plain_step_bits(kind, h_mapping, lambda_div):
    xv, xt, z_v, z_t = step_inputs(90)
    cfg = TrainConfig(epochs=1, seed=0, k=8, lambda_div=lambda_div, h_mapping=h_mapping,
                      evidence=EvidenceConfig(kind=kind))
    grad_v, grad_t, losses = stacked_step(xv, xt, z_v, z_t, cfg)
    want_v, want_t, want_losses = plain_batch_gradients(xv, xt, z_v, z_t, cfg)
    assert np.array_equal(grad_v, want_v) and np.array_equal(grad_t, want_t)
    assert (losses.uct_v, losses.uct_t, losses.div_v, losses.div_t, losses.total) == want_losses

    opt, ref = _AdamState(z_v.shape, 0.1), PlainAdam(z_v.shape, 0.1)
    got, want = z_v.copy(), z_v.copy()
    for grad in (grad_v, grad_t, grad_v):
        opt.step(got, grad)
        ref.step(want, grad)
    assert got.tobytes() == want.tobytes()
    assert opt.m.tobytes() == ref.m.tobytes() and opt.v.tobytes() == ref.v.tobytes()


@pytest.mark.parametrize("kind", ["softplus", "relu"])
def test_lean_step_keeps_the_plain_step_bits_where_strength_squared_overflows(kind):
    xv, xt, z_v, z_t = step_inputs(91)
    if kind == "softplus":
        # gamma 1e-300 puts every S near 8 ln 2 / gamma, about 5.5e300
        evidence = EvidenceConfig(kind=kind, gamma=1e-300)
    else:
        # 4 prototypes of norm 1.2e154 near one direction: S overflows when
        # squared in rows well aligned with it, and stays small in rows
        # facing away, where K / S^2 and K / S / S can round apart
        evidence = EvidenceConfig(kind=kind)
        w = normalize_rows(np.ones((4, 32)) + 0.3 * np.random.default_rng(92).standard_normal((4, 32)),
                           TEXT).vectors
        z_v[:4] = z_t[:4] = 1.2e154 * w
    cfg = TrainConfig(epochs=1, seed=0, k=8, lambda_div=0.7, evidence=evidence)
    _, strength = dirichlet_uncertainty(generate_evidence(xv @ z_t.T, evidence))
    assert strength.max() > 1.4e154
    if kind == "relu":
        assert strength.min() < 1e154
    grad_v, grad_t, losses = stacked_step(xv, xt, z_v, z_t, cfg)
    want_v, want_t, want_losses = plain_batch_gradients(xv, xt, z_v, z_t, cfg)
    assert np.array_equal(grad_v, want_v) and np.array_equal(grad_t, want_t)
    assert (losses.uct_v, losses.uct_t, losses.div_v, losses.div_t, losses.total) == want_losses


def test_rows_whose_strength_squared_overflows_reach_the_gradient():
    # Without the diversity term nothing swamps the K / S / S of rows whose
    # S^2 overflows, about 1e-308, so leaving them at K / inf = 0 would
    # change the gradient bits of the prototypes those rows face.
    xv, xt, z_v, z_t = step_inputs(91)
    w = normalize_rows(np.ones((4, 32)) + 0.3 * np.random.default_rng(92).standard_normal((4, 32)),
                       TEXT).vectors
    z_v[:4] = z_t[:4] = 1.2e154 * w
    cfg = TrainConfig(epochs=1, seed=0, k=8, lambda_div=0.0, evidence=EvidenceConfig(kind="relu"))
    grad_v, grad_t, _ = stacked_step(xv, xt, z_v, z_t, cfg)
    want_v, want_t, _ = plain_batch_gradients(xv, xt, z_v, z_t, cfg)
    assert np.array_equal(grad_v, want_v) and np.array_equal(grad_t, want_t)
    assert np.count_nonzero(grad_v[:4]) and np.count_nonzero(grad_t[:4])


@pytest.mark.parametrize("lambda_div", [0.0, 0.7])
def test_lean_train_keeps_the_plain_banks_and_history(lambda_div):
    vis, txt, pairs, _ = smoke_corpus()
    cfg = smoke_config(epochs=3, lambda_div=lambda_div)
    bank_v, bank_t, hist = train(vis, txt, pairs, cfg)
    z_v, z_t, records = plain_train(vis, txt, pairs, cfg)
    assert bank_v.vectors.tobytes() == z_v.tobytes()
    assert bank_t.vectors.tobytes() == z_t.tobytes()
    assert [(r.epoch, r.uct_v, r.uct_t, r.div_v, r.div_t, r.total) for r in hist.records] == records


def test_short_batch_in_a_reused_buffer_keeps_the_plain_step_bits():
    # train() gathers a short last batch into buf[:, :m], a view whose two
    # slices lie a full batch apart, over the rows of an earlier batch.
    xv, xt, z_v, z_t = step_inputs(93)
    cfg = TrainConfig(epochs=1, seed=0, k=8, lambda_div=0.7)
    buf = np.stack((xv, xt))
    m = 101
    x = buf[:, :m]
    x[0], x[1] = xt[-m:], xv[-m:]
    grad, losses = _batch_gradients(x, np.stack((z_v, z_t)), cfg)
    want_v, want_t, want_losses = plain_batch_gradients(xv[-m:], xt[-m:], z_v, z_t, cfg)
    assert np.array_equal(grad[0], want_v) and np.array_equal(grad[1], want_t)
    assert (losses.uct_v, losses.uct_t, losses.div_v, losses.div_t, losses.total) == want_losses


@pytest.mark.parametrize("lambda_div", [0.0, 0.7])
def test_single_prototype_keeps_the_plain_step_bits(lambda_div):
    xv, xt, z_v, z_t = step_inputs(94)
    cfg = TrainConfig(epochs=1, seed=0, k=1, lambda_div=lambda_div)
    grad_v, grad_t, losses = stacked_step(xv, xt, z_v[:1], z_t[:1], cfg)
    want_v, want_t, want_losses = plain_batch_gradients(xv, xt, z_v[:1], z_t[:1], cfg)
    assert grad_v.shape == grad_t.shape == (1, 32)
    assert np.array_equal(grad_v, want_v) and np.array_equal(grad_t, want_t)
    assert (losses.uct_v, losses.uct_t, losses.div_v, losses.div_t, losses.total) == want_losses


def test_strength_squared_overflowing_in_one_direction_keeps_the_other_fast_path_bits():
    # Vision rows against a text bank of norm 1.2e154 overflow S^2; text
    # rows against the ordinary vision bank do not.  Only the overflowing
    # rows take K / S / S, so the text direction must keep the bits it has
    # when nothing overflows.
    xv, xt, z_v, z_t = step_inputs(95)
    cfg = TrainConfig(epochs=1, seed=0, k=8, lambda_div=0.7, evidence=EvidenceConfig(kind="relu"))
    w = normalize_rows(np.ones((4, 32)) + 0.3 * np.random.default_rng(96).standard_normal((4, 32)),
                       TEXT).vectors
    huge_t = z_t.copy()
    huge_t[:4] = 1.2e154 * w
    _, s_v = dirichlet_uncertainty(generate_evidence(xv @ huge_t.T, cfg.evidence))
    _, s_t = dirichlet_uncertainty(generate_evidence(xt @ z_v.T, cfg.evidence))
    assert s_v.max() > 1.4e154 and s_t.max() < 1e154
    grad_v, grad_t, losses = stacked_step(xv, xt, z_v, huge_t, cfg)
    want_v, want_t, want_losses = plain_batch_gradients(xv, xt, z_v, huge_t, cfg)
    assert np.array_equal(grad_v, want_v) and np.array_equal(grad_t, want_t)
    assert (losses.uct_v, losses.uct_t, losses.div_v, losses.div_t, losses.total) == want_losses
    fast_v, _, fast_losses = stacked_step(xv, xt, z_v, z_t, cfg)
    assert np.array_equal(grad_v, fast_v)
    assert (losses.uct_t, losses.div_v) == (fast_losses.uct_t, fast_losses.div_v)

