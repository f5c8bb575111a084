"""Retrieval evaluation, correlation, removal curves, and info measures."""

import math

import numpy as np
import pytest

from protouq import (
    PairSet,
    SimilarityMatrix,
    entropy,
    normalize_rows,
    similarity_matrix,
    evaluate_retrieval,
    jsd,
    msvd_collision_logprob,
    pearson,
    removal_curve,
    retrieval_reports,
    softmax,
)
from protouq.embed import _ROW_BLOCK, _SimilarityBlocks
from protouq.errors import (
    EmptyVector,
    InvalidConfig,
    InvalidCounts,
    InvariantViolation,
    LengthMismatch,
    MissingPositive,
    NotADistribution,
    TooManyRemoved,
    ZeroVariance,
)
from protouq.metrics import retrieval_ranks

DIAG2 = PairSet(pairs=((0, 0), (1, 1)))


def naive_ranks(values, pairs, direction):
    """Full-sort oracle: rank = position after sorting by (-score, index)."""
    values = np.asarray(values, dtype=np.float64)
    if direction == "t2v":
        by_query = pairs.visions_of()
        queries = range(values.shape[1])
    else:
        by_query = pairs.texts_of()
        queries = range(values.shape[0])
    ranks = []
    for q in queries:
        scores = values[:, q] if direction == "t2v" else values[q, :]
        order = np.lexsort((np.arange(scores.size), -scores))
        position = {int(g): i + 1 for i, g in enumerate(order)}
        ranks.append(min(position[int(p)] for p in by_query[q]))
    return np.array(ranks)


def random_many_to_many(rng, n_vision, n_text):
    """Random pair set covering every instance on both sides."""
    pair_set = {(i, int(rng.integers(n_text))) for i in range(n_vision)}
    for j in range(n_text):
        pair_set.add((int(rng.integers(n_vision)), j))
    extras = rng.integers(0, [n_vision, n_text], size=(rng.integers(0, 15), 2))
    pair_set.update((int(v), int(t)) for v, t in extras)
    return PairSet(pairs=tuple(sorted(pair_set)))


class TestRetrievalRanks:
    def test_diagonal_dominant_two_by_two(self):
        m = SimilarityMatrix(values=np.array([[0.9, 0.1], [0.2, 0.8]]))
        for direction in ("t2v", "v2t"):
            report = evaluate_retrieval(m, DIAG2, direction)
            assert (report.r1, report.mdr, report.mnr) == (100.0, 1.0, 1.0)

    def test_anti_diagonal_dominant_two_by_two(self):
        m = SimilarityMatrix(values=np.array([[0.1, 0.9], [0.8, 0.2]]))
        for direction in ("t2v", "v2t"):
            report = evaluate_retrieval(m, DIAG2, direction)
            assert (report.r1, report.mdr, report.mnr) == (0.0, 2.0, 2.0)

    def test_perfect_identity_matrix(self):
        n = 9
        values = np.eye(n) * 0.9 + 0.05
        pairs = PairSet(pairs=tuple((i, i) for i in range(n)))
        m = SimilarityMatrix(values=values)
        assert evaluate_retrieval(m, pairs, "t2v").r1 == 100.0
        assert evaluate_retrieval(m, pairs, "v2t").r1 == 100.0

    def test_tie_goes_to_lower_gallery_index(self):
        # both vision rows score 0.5 for the only text; the positive is row 1,
        # so row 0 wins the tie and the positive lands at rank 2
        values = np.array([[0.5], [0.5]])
        pairs = PairSet(pairs=((0, 0), (1, 0)))
        ranks = retrieval_ranks(values, PairSet(pairs=((1, 0), (0, 0))), "t2v")
        assert ranks.tolist() == [1]
        only_second = np.array([[0.5, 0.3], [0.5, 0.8]])
        ranks = retrieval_ranks(only_second, PairSet(pairs=((1, 0), (0, 1), (1, 1))), "t2v")
        assert ranks[0] == 2

    def test_best_positive_wins_for_multi_positive_query(self):
        values = np.array([[0.9, 0.2], [0.1, 0.8], [0.5, 0.3]])
        pairs = PairSet(pairs=((0, 0), (2, 0), (1, 1)))
        ranks = retrieval_ranks(values, pairs, "t2v")
        # text 0 has positives {0, 2}; vision 0 ranks first
        assert ranks[0] == 1

    def test_matches_naive_oracle_on_random_matrices(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            values = np.round(rng.uniform(-1.0, 1.0, size=(8, 10)), 1)
            pairs = random_many_to_many(rng, 8, 10)
            for direction in ("t2v", "v2t"):
                got = retrieval_ranks(values, pairs, direction)
                assert got.tolist() == naive_ranks(values, pairs, direction).tolist()

    def test_matches_naive_oracle_past_one_query_block(self):
        rng = np.random.default_rng(69)
        n_vision, n_text = _ROW_BLOCK + 37, 2 * _ROW_BLOCK + 5
        values = np.round(rng.uniform(-1.0, 1.0, size=(n_vision, n_text)), 2)
        pairs = random_many_to_many(rng, n_vision, n_text)
        for direction in ("t2v", "v2t"):
            got = retrieval_ranks(values, pairs, direction)
            assert got.tolist() == naive_ranks(values, pairs, direction).tolist()

    @pytest.mark.parametrize("n_text, outranked", [
        (255, [(254, 0), (0, 254), (100, 154)]),
        (256, [(255, 0), (0, 255), (128, 127)]),
        (65_535, [(65_534, 0), (0, 65_534), (30_000, 35_534)]),
        (65_536, [(65_535, 0), (0, 65_535), (65_000, 535)]),
        (70_000, [(255, 0), (200, 56), (65_535, 0), (30_000, 35_537)]),
    ])
    def test_v2t_counts_fill_each_count_width(self, n_text, outranked):
        # Query row i's only positive scores 0.0, after `higher` columns that
        # score 0.5 and `tied` columns that tie it; every other column after
        # it ties or scores lower.  A last row pairs with the rest of the
        # texts.  Counts are byte sums into the narrowest type that holds
        # n_text, so 254/255 and 65534/65535 fill uint8 and uint16.
        values = np.full((len(outranked) + 1, n_text), -0.5)
        pairs = []
        for row, (higher, tied) in enumerate(outranked):
            positive = higher + tied
            values[row, :higher] = 0.5
            values[row, higher:positive + 1] = 0.0
            values[row, positive + 1::2] = 0.0
            pairs.append((row, positive))
        sink = len(outranked)
        pairs += [(sink, t) for t in sorted(set(range(n_text)) - {t for _, t in pairs})]
        ranks = retrieval_ranks(values, PairSet(pairs=pairs), "v2t")
        assert ranks[:sink].tolist() == [h + t + 1 for h, t in outranked]

    def test_t2v_counts_a_whole_block_outranking(self):
        # Texts 0 and 1 have one positive, vision _ROW_BLOCK in the second
        # block; all _ROW_BLOCK rows of the first block score above text 0's
        # and tie text 1's at lower indices.  Text 2 covers those rows.
        values = np.zeros((_ROW_BLOCK + 1, 3))
        values[:_ROW_BLOCK, 0] = 0.5
        values[:, 1] = 0.5
        pairs = [(_ROW_BLOCK, 0), (_ROW_BLOCK, 1)] + [(v, 2) for v in range(_ROW_BLOCK)]
        ranks = retrieval_ranks(values, PairSet(pairs=pairs), "t2v")
        assert ranks.tolist() == [_ROW_BLOCK + 1, _ROW_BLOCK + 1, 1]

    def test_unknown_direction_rejected(self):
        with pytest.raises(InvalidConfig):
            retrieval_ranks(np.zeros((2, 2)), DIAG2, "i2t")

    def test_raw_array_outside_unit_interval_rejected(self):
        # a raw array is checked as a SimilarityMatrix is
        with pytest.raises(InvariantViolation):
            retrieval_ranks(np.array([[1.5, 0.0], [0.0, 1.0]]), DIAG2, "v2t")

    def test_uncovered_query_rejected(self):
        with pytest.raises(MissingPositive):
            retrieval_ranks(np.zeros((2, 2)), PairSet(pairs=((0, 0), (0, 1))), "v2t")


class TestEvaluateRetrieval:
    def test_report_from_known_ranks(self):
        # gallery scores arranged so text query j finds its positive at
        # rank j + 1: r1 = 25%, r5 = 100%, median (lower middle) = 2, mean = 2.5
        n = 4
        values = np.zeros((n, n))
        for j in range(n):
            values[:, j] = np.linspace(0.9, 0.1, n)
            positive = j
            values[positive, j] = 0.9 - 0.2 * j + 0.05
        pairs = PairSet(pairs=tuple((i, i) for i in range(n)))
        report = evaluate_retrieval(values, pairs, "t2v")
        assert retrieval_ranks(values, pairs, "t2v").tolist() == [1, 2, 3, 4]
        assert report.r1 == 25.0
        assert report.r5 == 100.0
        assert report.r10 == 100.0
        assert report.mdr == 2.0
        assert report.mnr == 2.5
        assert report.n_queries == 4

    def test_both_directions_in_one_call_match_per_direction_reports(self):
        rng = np.random.default_rng(72)
        values = np.round(rng.uniform(-1.0, 1.0, size=(_ROW_BLOCK + 9, 40)), 1)
        pairs = random_many_to_many(rng, *values.shape)
        assert retrieval_reports(values, pairs) == [
            evaluate_retrieval(values, pairs, direction) for direction in ("t2v", "v2t")
        ]

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(61)
        values = rng.uniform(-1.0, 1.0, size=(15, 15))
        pairs = PairSet(pairs=tuple((i, i) for i in range(15)))
        for direction in ("t2v", "v2t"):
            report = evaluate_retrieval(values, pairs, direction)
            assert report.r1 <= report.r5 <= report.r10


class TestPearson:
    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            x = rng.standard_normal(30)
            y = rng.standard_normal(30)
            assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_self_correlation_is_one(self):
        x = np.array([1.0, 3.0, 2.0, 5.0])
        assert pearson(x, x) == 1.0

    def test_negated_correlation_is_minus_one(self):
        x = np.array([1.0, 3.0, 2.0, 5.0])
        assert pearson(x, -x) == -1.0

    def test_rounding_past_one_is_clamped(self):
        # Unclamped, the ratio for this exact linear pair rounds to 1 + 2**-52.
        x = np.array([0.21, 0.36])
        assert pearson(x, 3.0 * x + 0.1) == 1.0

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(63)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        assert pearson(x, 3.0 * y + 7.0) == pytest.approx(pearson(x, y), abs=1e-9)

    def test_constant_vector_rejected(self):
        with pytest.raises(ZeroVariance):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_single_observation_rejected(self):
        with pytest.raises(LengthMismatch):
            pearson([1.0], [2.0])


def hub_matrix():
    """Vision 3 outscores everyone in every column except its own pair."""
    values = np.array([
        [0.90, 0.10, 0.10, 0.10],
        [0.10, 0.90, 0.10, 0.10],
        [0.10, 0.10, 0.90, 0.10],
        [0.95, 0.95, 0.95, 0.90],
    ])
    pairs = PairSet(pairs=tuple((i, i) for i in range(4)))
    return values, pairs


def naive_survivor_r1(values, pairs, removed, direction):
    """Full-sort oracle for one removal point: every surviving pair is a
    query, ranked over the gallery instances some surviving pair still uses."""
    kept = [p for i, p in enumerate(pairs.pairs) if i not in removed]
    if direction == "t2v":
        kept = [(t, v) for v, t in kept]
        values = np.asarray(values).T
    gallery = sorted({g for _, g in kept})
    positives = {}
    for q, g in kept:
        positives.setdefault(q, []).append(g)
    rank = {}
    for q, gs in positives.items():
        scores = values[q, gallery]
        order = np.lexsort((np.arange(len(gallery)), -scores))
        position = {gallery[int(j)]: i + 1 for i, j in enumerate(order)}
        rank[q] = min(position[g] for g in gs)
    hits = sum(rank[q] == 1 for q, _ in kept)
    return 100.0 * hits / len(kept)


def assert_matches_naive_oracle(curve, values, u_v, u_t, pairs, seed):
    """Every point of curve equals naive_survivor_r1 on the pairs its mode
    and side remove."""
    vs, ts = pairs.vision_indices, pairs.text_indices
    for point in curve.points:
        r = point.removed
        for direction, got in (("t2v", point.r1_t2v), ("v2t", point.r1_v2t)):
            if curve.mode == "random":
                order = np.random.default_rng([seed, r]).permutation(len(pairs))
            else:
                key = u_v[vs] if (direction == "t2v") == (curve.side == "gallery") else u_t[ts]
                order = np.argsort(-key, kind="stable")
            removed = set(order[:r].tolist())
            assert got == naive_survivor_r1(values, pairs, removed, direction)


class TestRemovalCurve:
    def test_count_zero_matches_full_evaluation(self):
        values, pairs = hub_matrix()
        curve = removal_curve(values, np.zeros(4), np.zeros(4), pairs, [0, 1])
        assert curve.points[0].r1_t2v == evaluate_retrieval(values, pairs, "t2v").r1
        assert curve.points[0].r1_v2t == evaluate_retrieval(values, pairs, "v2t").r1

    def test_uncertainty_mode_removes_highest_u_gallery_pair(self):
        values, pairs = hub_matrix()
        u_v = np.array([0.0, 0.0, 0.0, 1.0])
        curve = removal_curve(values, u_v, np.zeros(4), pairs, [1])
        point = curve.points[0]
        # before: vision 3 steals rank 1 from texts 0..2 -> t2v R@1 = 25%;
        # dropping its pair leaves a clean diagonal
        assert point.removed == 1
        assert point.r1_t2v == 100.0

    def test_query_side_removal_uses_other_modality(self):
        values, pairs = hub_matrix()
        u_v = np.array([0.0, 0.0, 0.0, 1.0])
        # gallery side for t2v is vision; with side="query" the same u_v now
        # drives v2t instead, so the hub survives and keeps stealing rank 1
        curve = removal_curve(values, u_v, np.zeros(4), pairs, [1], side="query")
        assert curve.points[0].r1_t2v == pytest.approx(100.0 / 3.0, abs=1e-9)
        assert curve.points[0].r1_v2t == 100.0

    def test_surviving_query_count_bookkeeping(self):
        values, pairs = hub_matrix()
        u_v = np.array([0.4, 0.3, 0.2, 0.9])
        curve = removal_curve(values, u_v, np.zeros(4), pairs, [1, 2, 3])
        assert [p.removed for p in curve.points] == [1, 2, 3]
        # with three of four pairs gone the survivor is pair 2 (lowest u),
        # a 1x1 retrieval problem
        assert curve.points[-1].r1_t2v == 100.0
        assert curve.points[-1].r1_v2t == 100.0

    def test_random_mode_is_seeded_and_shared_across_directions(self):
        values, pairs = hub_matrix()
        a = removal_curve(values, np.zeros(4), np.zeros(4), pairs, [1, 2], mode="random", seed=3)
        b = removal_curve(values, np.zeros(4), np.zeros(4), pairs, [1, 2], mode="random", seed=3)
        assert a == b
        c = removal_curve(values, np.zeros(4), np.zeros(4), pairs, [1, 2], mode="random", seed=4)
        assert a != c

    @pytest.mark.parametrize("mode", ["uncertainty", "random"])
    @pytest.mark.parametrize("side", ["gallery", "query"])
    def test_matches_naive_oracle_on_tied_many_to_many(self, mode, side):
        rng = np.random.default_rng(70)
        for rep in range(6):
            n_vision, n_text = int(rng.integers(3, 12)), int(rng.integers(3, 12))
            values = np.round(rng.uniform(-1.0, 1.0, size=(n_vision, n_text)), 1)
            pairs = random_many_to_many(rng, n_vision, n_text)
            u_v = np.round(rng.uniform(0.0, 1.0, n_vision), 1)
            u_t = np.round(rng.uniform(0.0, 1.0, n_text), 1)
            n_pairs = len(pairs)
            counts = sorted({1, n_pairs // 3, n_pairs - 2})
            curve = removal_curve(values, u_v, u_t, pairs, counts, mode=mode, seed=rep, side=side)
            assert_matches_naive_oracle(curve, values, u_v, u_t, pairs, seed=rep)

    @pytest.mark.parametrize("mode", ["uncertainty", "random"])
    def test_streamed_from_embeddings_matches_naive_oracle(self, mode):
        # tied scores from a few distinct vectors, vision rows past one block
        rng = np.random.default_rng(71)
        n_vision, n_text = _ROW_BLOCK + 14, 120
        vis = normalize_rows(rng.standard_normal((4, 5))[rng.integers(0, 4, n_vision)], "vision")
        txt = normalize_rows(rng.standard_normal((4, 5))[rng.integers(0, 4, n_text)], "text")
        pairs = random_many_to_many(rng, n_vision, n_text)
        u_v = np.round(rng.uniform(0.0, 1.0, n_vision), 1)
        u_t = np.round(rng.uniform(0.0, 1.0, n_text), 1)
        counts = [1, len(pairs) // 3, len(pairs) - 2]
        source = _SimilarityBlocks(vis, txt)
        curve = removal_curve(source, u_v, u_t, pairs, counts, mode=mode, seed=5)
        values = similarity_matrix(vis, txt).values
        assert_matches_naive_oracle(curve, values, u_v, u_t, pairs, seed=5)

    def test_too_many_removed_rejected(self):
        values, pairs = hub_matrix()
        with pytest.raises(TooManyRemoved):
            removal_curve(values, np.zeros(4), np.zeros(4), pairs, [4])

    def test_counts_must_increase(self):
        values, pairs = hub_matrix()
        with pytest.raises(InvalidConfig):
            removal_curve(values, np.zeros(4), np.zeros(4), pairs, [2, 2])

    def test_negative_count_rejected(self):
        values, pairs = hub_matrix()
        with pytest.raises(InvalidConfig):
            removal_curve(values, np.zeros(4), np.zeros(4), pairs, [-1, 2])

    def test_unknown_mode_and_side_rejected(self):
        values, pairs = hub_matrix()
        with pytest.raises(InvalidConfig):
            removal_curve(values, np.zeros(4), np.zeros(4), pairs, [1], mode="greedy")
        with pytest.raises(InvalidConfig):
            removal_curve(values, np.zeros(4), np.zeros(4), pairs, [1], side="both")

    def test_counts_and_seed_are_integers(self):
        values, pairs = hub_matrix()
        curve = removal_curve(values, np.zeros(4), np.zeros(4), pairs, np.array([1, 2]), seed=np.int64(1))
        assert [p.removed for p in curve.points] == [1, 2]
        with pytest.raises(InvalidConfig, match="a removal count must be an integer, got 1.9"):
            removal_curve(values, np.zeros(4), np.zeros(4), pairs, [1.9])
        with pytest.raises(InvalidConfig, match="seed must be an integer, got 0.5"):
            removal_curve(values, np.zeros(4), np.zeros(4), pairs, [1], mode="random", seed=0.5)

    def test_negative_seed_rejected(self):
        values, pairs = hub_matrix()
        with pytest.raises(InvalidConfig):
            removal_curve(values, np.zeros(4), np.zeros(4), pairs, [1], mode="random", seed=-1)

    def test_uncertainty_length_validated(self):
        values, pairs = hub_matrix()
        with pytest.raises(LengthMismatch):
            removal_curve(values, np.zeros(3), np.zeros(4), pairs, [1])

    @pytest.mark.parametrize("mode", ["uncertainty", "random"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
    @pytest.mark.parametrize("on_vision", [True, False], ids=["u_v", "u_t"])
    def test_non_finite_or_negative_uncertainty_rejected(self, mode, bad, on_vision):
        values, pairs = hub_matrix()
        u = np.array([bad, 0.1, 0.2, 0.3])
        u_v, u_t = (u, np.zeros(4)) if on_vision else (np.zeros(4), u)
        with pytest.raises(InvalidConfig, match="finite and nonnegative"):
            removal_curve(values, u_v, u_t, pairs, [1], mode=mode)


class TestEntropy:
    def test_uniform_four(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_uniform_maximizes(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            k = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(k))
            assert entropy(p) <= math.log(k) + 1e-12

    def test_not_a_distribution_rejected(self):
        with pytest.raises(NotADistribution):
            entropy([0.5, 0.6])
        with pytest.raises(NotADistribution):
            entropy([1.5, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(EmptyVector):
            entropy([])


class TestJsd:
    def test_identical_distributions_score_zero(self):
        p = [0.2, 0.3, 0.5]
        assert jsd(p, p) == 0.0

    def test_disjoint_distributions_score_one_bit(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(65)
        for _ in range(10):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert jsd(p, q) == pytest.approx(jsd(q, p), abs=1e-12)

    def test_bounded_by_one_bit(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert 0.0 <= jsd(p, q) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            jsd([0.5, 0.5], [0.2, 0.3, 0.5])


class TestMixingPath:
    def test_entropy_rises_and_jsd_falls_toward_uniform(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(k) * 0.7)
            uniform = np.full(k, 1.0 / k)
            entropies = []
            distances = []
            for lam in np.linspace(0.0, 1.0, 11):
                mix = (1.0 - lam) * p + lam * uniform
                mix = mix / mix.sum()
                entropies.append(entropy(mix))
                distances.append(jsd(mix, uniform))
            assert all(b >= a for a, b in zip(entropies, entropies[1:]))
            assert all(b <= a for a, b in zip(distances, distances[1:]))


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        assert softmax([0.0, 0.0]).tolist() == [0.5, 0.5]

    def test_sums_to_one(self):
        out = softmax([1.0, 2.0, 3.0, 4.0])
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.5])
        assert np.allclose(softmax(logits), softmax(logits + 100.0), atol=1e-12)

    def test_large_logits_are_shifted_before_exp(self):
        # exp(1000) overflows; shifted by the max, these are the logits [-1, 0].
        out = softmax([1000.0, 1001.0])
        assert np.isfinite(out).all()
        assert out.tolist() == softmax([0.0, 1.0]).tolist()

    def test_empty_rejected(self):
        with pytest.raises(EmptyVector):
            softmax([])


class TestMsvdCollisionLogprob:
    def test_single_draw_never_collides(self):
        assert msvd_collision_logprob(1000, 1, 20) == 0.0

    def test_group_of_one_never_collides(self):
        assert msvd_collision_logprob(1000, 256, 1) == 0.0

    def test_small_case_matches_explicit_product(self):
        # n=20 in groups of 4; drawing 3: P = (20/20) * (16/19) * (12/18)
        want = math.log((20 / 20) * (16 / 19) * (12 / 18))
        assert msvd_collision_logprob(20, 3, 4) == pytest.approx(want, abs=1e-12)

    def test_full_batch_of_whole_corpus(self):
        # batch * group == n: the last draw has exactly the final group left
        got = msvd_collision_logprob(6, 3, 2)
        want = math.log((6 / 6) * (4 / 5) * (2 / 4))
        assert got == pytest.approx(want, abs=1e-12)

    def test_probability_never_positive(self):
        rng = np.random.default_rng(68)
        for _ in range(20):
            group = int(rng.integers(1, 10))
            batch = int(rng.integers(1, 10))
            n = batch * group + int(rng.integers(0, 50))
            assert msvd_collision_logprob(n, batch, group) <= 0.0

    def test_bad_counts_rejected(self):
        with pytest.raises(InvalidCounts):
            msvd_collision_logprob(100, 0, 4)
        with pytest.raises(InvalidCounts):
            msvd_collision_logprob(100, 4, 0)
        with pytest.raises(InvalidCounts):
            msvd_collision_logprob(10, 4, 4)

    @pytest.mark.parametrize("args", [(20, 2.5, 2), (20, 2, 2.0), (20.0, 2, 2)])
    def test_fractional_or_float_counts_rejected(self, args):
        with pytest.raises(InvalidCounts, match="must be an integer"):
            msvd_collision_logprob(*args)
        ints = (np.int64(args[0]), np.int32(args[1]), np.int8(args[2]))
        assert msvd_collision_logprob(*ints) == msvd_collision_logprob(20, 2, 2)

    def test_count_beyond_float64_rejected(self):
        with pytest.raises(InvalidCounts):
            msvd_collision_logprob(10**400, 2, 1)

    def test_batch_beyond_index_range_rejected(self):
        with pytest.raises(InvalidCounts):
            msvd_collision_logprob(10**30, 2**63, 1)
