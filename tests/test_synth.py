"""Synthetic corpus generator: determinism, geometry, and ground truth."""

import tracemalloc

import numpy as np
import pytest

from protouq import (
    DEFAULT_CORPUS_SPEC,
    SyntheticSpec,
    batch_means,
    evaluate_retrieval,
    generate_corpus,
    pearson,
    similarity_matrix,
)
from protouq.errors import InvalidSpec
from protouq.synth import AmbiguityLabels, latent_directions


class TestSyntheticSpec:
    def test_default_corpus_parameters(self):
        spec = DEFAULT_CORPUS_SPEC
        assert (spec.n_items, spec.d, spec.k_true, spec.seed) == (2000, 64, 8, 7)
        assert spec.ambiguity_weights == (0.25, 0.25, 0.25, 0.25)
        assert spec.noise_sigma == 0.05
        assert spec.captions_per_item == 2

    def test_dict_weights_accepted(self):
        spec = SyntheticSpec(n_items=4, d=8, k_true=4, ambiguity_weights={1: 0.5, 2: 0.5})
        assert spec.ambiguity_weights == (0.5, 0.5)
        assert spec.m_max == 2

    def test_sparse_dict_weights_fill_gaps(self):
        spec = SyntheticSpec(n_items=4, d=8, k_true=4, ambiguity_weights={1: 0.3, 4: 0.7})
        assert spec.ambiguity_weights == (0.3, 0.0, 0.0, 0.7)
        assert spec.m_max == 4

    def test_trailing_zero_weights_trimmed(self):
        spec = SyntheticSpec(n_items=4, d=8, k_true=4, ambiguity_weights=(0.5, 0.5, 0.0))
        assert spec.m_max == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_items": 0},
            {"d": 1},
            {"k_true": 0},
            {"k_true": 100},  # exceeds d
            {"ambiguity_weights": (0.5, 0.4)},  # sums to 0.9
            {"ambiguity_weights": (1.5, -0.5)},
            {"ambiguity_weights": {}},
            {"ambiguity_weights": {0: 1.0}},
            {"ambiguity_weights": {1.5: 1.0}},
            {"ambiguity_weights": {10: 1.0}},  # m_max beyond k_true
            {"noise_sigma": -0.1},
            {"captions_per_item": 0},
            {"seed": -1},
            # arrays of more than intp.max bytes, rejected before any draw
            {"n_items": 10**23},
            {"d": 10**20},
            {"captions_per_item": 10**20},
            {"n_items": 1, "captions_per_item": 1, "d": 3037000500, "k_true": 3037000500,
             "ambiguity_weights": (1.0,)},
            # levels and weights that are not numbers
            {"ambiguity_weights": {float("nan"): 1.0}},
            {"ambiguity_weights": {float("inf"): 1.0}},
            {"ambiguity_weights": {"a": 1.0}},
            {"ambiguity_weights": {None: 1.0}},
            {"ambiguity_weights": ["x"]},
        ],
    )
    def test_bad_specs_rejected(self, overrides):
        base = dict(n_items=4, d=8, k_true=4)
        base.update(overrides)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(**base)


class TestAmbiguityLabels:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidSpec):
            AmbiguityLabels(counts=(1, 2), semantic_sets=((0,),))

    def test_set_cardinality_must_match_count(self):
        with pytest.raises(InvalidSpec):
            AmbiguityLabels(counts=(2,), semantic_sets=((0,),))

    def test_duplicate_semantics_rejected(self):
        with pytest.raises(InvalidSpec):
            AmbiguityLabels(counts=(2,), semantic_sets=((3, 3),))


class TestLatentDirections:
    def test_rows_are_orthonormal(self):
        rng = np.random.default_rng(90)
        q = latent_directions(6, 16, rng)
        assert q.shape == (6, 16)
        assert np.abs(q @ q.T - np.eye(6)).max() < 1e-9

    def test_deterministic_for_equal_generators(self):
        a = latent_directions(4, 9, np.random.default_rng(91))
        b = latent_directions(4, 9, np.random.default_rng(91))
        assert np.array_equal(a, b)

    def test_square_case(self):
        rng = np.random.default_rng(92)
        q = latent_directions(8, 8, rng)
        assert np.abs(q @ q.T - np.eye(8)).max() < 1e-9


def reference_corpus_vectors(spec):
    """generate_corpus's two sets out of place, from the same draws:
    base + sigma * noise, repeated per caption, over one norm call."""
    rng = np.random.default_rng(spec.seed)
    directions = latent_directions(spec.k_true, spec.d, rng)
    levels = np.arange(1, spec.m_max + 1)
    ms = rng.choice(levels, size=spec.n_items, p=np.array(spec.ambiguity_weights))
    base = np.array([
        directions[sorted(rng.choice(spec.k_true, size=int(m), replace=False))].sum(axis=0)
        for m in ms
    ])
    vis = base + spec.noise_sigma * rng.standard_normal((spec.n_items, spec.d))
    txt = np.repeat(base, spec.captions_per_item, axis=0) + spec.noise_sigma * rng.standard_normal(
        (spec.n_items * spec.captions_per_item, spec.d)
    )
    return tuple(x / np.linalg.norm(x, axis=1)[:, None] for x in (vis, txt))


class TestGenerateCorpus:
    def test_bit_identical_to_out_of_place_reference(self):
        spec = SyntheticSpec(n_items=700, d=16, k_true=6, noise_sigma=0.3,
                             captions_per_item=3, seed=5)
        vis, txt, _, _ = generate_corpus(spec)
        want_vis, want_txt = reference_corpus_vectors(spec)
        assert vis.vectors.tobytes() == want_vis.tobytes()
        assert txt.vectors.tobytes() == want_txt.tobytes()

    def test_peak_memory_is_below_two_text_sets(self):
        spec = SyntheticSpec(n_items=4000, d=64, k_true=8, captions_per_item=5, seed=1)
        tracemalloc.start()
        try:
            generate_corpus(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * spec.n_items * spec.captions_per_item * spec.d

    def test_shapes_and_pair_layout(self):
        spec = SyntheticSpec(n_items=10, d=16, k_true=6, captions_per_item=3, seed=1)
        vis, txt, pairs, labels = generate_corpus(spec)
        assert vis.vectors.shape == (10, 16)
        assert txt.vectors.shape == (30, 16)
        assert pairs.pairs.tolist() == [[i, 3 * i + c] for i in range(10) for c in range(3)]
        assert len(labels.counts) == 10

    def test_bit_identical_for_equal_specs(self):
        spec = SyntheticSpec(n_items=12, d=8, k_true=4, seed=13)
        a_vis, a_txt, a_pairs, a_labels = generate_corpus(spec)
        b_vis, b_txt, b_pairs, b_labels = generate_corpus(spec)
        assert np.array_equal(a_vis.vectors, b_vis.vectors)
        assert np.array_equal(a_txt.vectors, b_txt.vectors)
        assert a_pairs.pairs.tolist() == b_pairs.pairs.tolist()
        assert a_labels == b_labels

    def test_different_seeds_differ(self):
        a, _, _, _ = generate_corpus(SyntheticSpec(n_items=12, d=8, k_true=4, seed=13))
        b, _, _, _ = generate_corpus(SyntheticSpec(n_items=12, d=8, k_true=4, seed=14))
        assert not np.array_equal(a.vectors, b.vectors)

    def test_labels_respect_weight_support(self):
        spec = SyntheticSpec(
            n_items=60, d=16, k_true=8, ambiguity_weights={1: 0.5, 3: 0.5}, seed=2
        )
        _, _, _, labels = generate_corpus(spec)
        assert set(labels.counts) <= {1, 3}
        for m, chosen in zip(labels.counts, labels.semantic_sets):
            assert len(chosen) == m
            assert all(0 <= s < 8 for s in chosen)
            assert list(chosen) == sorted(chosen)

    def test_rows_are_unit_norm(self):
        vis, txt, _, _ = generate_corpus(SyntheticSpec(n_items=8, d=12, k_true=4, seed=3))
        assert np.allclose(np.linalg.norm(vis.vectors, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(txt.vectors, axis=1), 1.0, atol=1e-12)

    def test_distinct_semantics_retrieve_perfectly(self):
        # seed chosen so all six single-semantic items draw different
        # directions; with tiny noise every caption sits on its item
        spec = SyntheticSpec(
            n_items=6, d=16, k_true=12, ambiguity_weights={1: 1.0},
            noise_sigma=0.01, captions_per_item=2, seed=1,
        )
        vis, txt, pairs, labels = generate_corpus(spec)
        assert len(set(labels.semantic_sets)) == 6
        m = similarity_matrix(vis, txt)
        assert evaluate_retrieval(m, pairs, "t2v").r1 == 100.0
        assert evaluate_retrieval(m, pairs, "v2t").r1 == 100.0

    def test_noiseless_captions_sit_on_their_item(self):
        spec = SyntheticSpec(
            n_items=10, d=16, k_true=6, ambiguity_weights=(0.5, 0.5),
            noise_sigma=0.0, captions_per_item=3, seed=3,
        )
        vis, txt, pairs, _ = generate_corpus(spec)
        m = similarity_matrix(vis, txt)
        for v, t in pairs.pairs:
            assert m.values[v, t] >= 1.0 - 1e-12
            assert m.values[v, t] == m.values[v].max()

    def test_mean_similarity_tracks_ambiguity(self):
        # items mixing more semantics overlap more of the corpus, so their
        # mean cosine similarity row rises with m
        spec = SyntheticSpec(n_items=300, d=64, k_true=8, seed=7)
        vis, txt, pairs, labels = generate_corpus(spec)
        h_v, _ = batch_means(vis, txt)
        assert pearson(h_v, np.array(labels.counts, dtype=float)) > 0.8
