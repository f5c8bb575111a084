"""Embedding sets, cosine similarity, pair bookkeeping, and the real-parameter and real-array rules."""

import math

import numpy as np
import pytest

from protouq import (
    TEXT,
    VISION,
    EmbeddingSet,
    EvidenceConfig,
    PairSet,
    RerankParams,
    SimilarityMatrix,
    SyntheticSpec,
    TrainConfig,
    apply_rerank,
    batch_means,
    cosine,
    dirichlet_from_evidence,
    entropy,
    evaluate_reranked,
    evidence_slope,
    fit_betas,
    generate_evidence,
    jsd,
    loss_uct,
    map_targets,
    normalize_rows,
    pearson,
    removal_curve,
    retrieval_ranks,
    similarity_matrix,
    softmax,
)
from protouq.embed import _ROW_BLOCK
from protouq.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    DuplicatePair,
    EmptyMatrix,
    IndexOutOfRange,
    InvalidConfig,
    InvalidSpec,
    InvariantViolation,
    MissingPositive,
    ModalityMismatch,
    NegativeEvidence,
    NotADistribution,
    ZeroVector,
)


def unit_rows(n, d, seed, modality=VISION):
    rng = np.random.default_rng(seed)
    return normalize_rows(rng.standard_normal((n, d)), modality)


class TestNormalizeRows:
    def test_three_four_five_triangle(self):
        out = normalize_rows([[3.0, 4.0]], VISION)
        assert np.allclose(out.vectors, [[0.6, 0.8]], atol=1e-15)

    def test_rows_are_unit_norm(self):
        out = unit_rows(17, 9, seed=0)
        assert np.allclose(np.linalg.norm(out.vectors, axis=1), 1.0, atol=1e-12)

    def test_already_unit_rows_unchanged(self):
        first = unit_rows(5, 4, seed=1)
        again = normalize_rows(first.vectors, VISION)
        assert np.allclose(again.vectors, first.vectors, atol=1e-15)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVector):
            normalize_rows([[1.0, 2.0], [0.0, 0.0]], VISION)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            normalize_rows(np.empty((0, 3)), VISION)

    def test_one_dimensional_rows_rejected(self):
        with pytest.raises(DimensionTooSmall):
            normalize_rows([[2.0], [3.0]], VISION)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_non_finite_or_overflowing_row_rejected(self, bad):
        with pytest.raises(InvariantViolation, match="row 1"):
            normalize_rows([[1.0, 2.0], [bad, 0.5]], VISION)

    def test_modality_is_kept(self):
        assert normalize_rows([[1.0, 0.0]], TEXT).modality == TEXT

    # Several whole blocks, then a last block one row short of full, full, or of one row.
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [4 * _ROW_BLOCK - 1, 4 * _ROW_BLOCK, 4 * _ROW_BLOCK + 1, 8 * _ROW_BLOCK + 1])
    def test_bit_identical_to_one_norm_call_at_block_edges(self, n, order):
        rng = np.random.default_rng(n)
        raw = np.asarray(rng.standard_normal((n, 7)) * rng.uniform(0.1, 10.0, (n, 1)), order=order)
        want = raw / np.linalg.norm(raw, axis=1)[:, None]
        kept = raw.copy()
        got = normalize_rows(raw, VISION).vectors
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        assert np.array_equal(raw, kept) and raw.flags.writeable

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad, error", [
        (0.0, ZeroVector), (np.nan, InvariantViolation), (1e300, InvariantViolation),
    ])
    def test_bad_row_in_a_later_block_is_named_by_its_global_index(self, bad, error):
        raw = np.ones((2 * _ROW_BLOCK + 1, 3))
        raw[_ROW_BLOCK + 1] = bad
        with pytest.raises(error, match=f"row {_ROW_BLOCK + 1} "):
            normalize_rows(raw, VISION)


class TestEmbeddingSet:
    def test_non_unit_rows_rejected(self):
        with pytest.raises(InvariantViolation):
            EmbeddingSet(modality=VISION, vectors=np.array([[3.0, 4.0]]))

    def test_nan_row_rejected(self):
        with pytest.raises(InvariantViolation, match="row 0"):
            EmbeddingSet(modality=VISION, vectors=np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_unknown_modality_rejected(self):
        with pytest.raises(ModalityMismatch):
            EmbeddingSet(modality="audio", vectors=np.array([[1.0, 0.0]]))

    def test_vectors_are_immutable(self):
        out = unit_rows(3, 4, seed=2)
        with pytest.raises(ValueError):
            out.vectors[0, 0] = 5.0

    def test_shape_properties(self):
        out = unit_rows(6, 5, seed=3)
        assert (out.n, out.d) == (6, 5)


class TestCosine:
    def test_orthogonal_is_zero(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_parallel_vectors(self):
        # norms 5 and 10 are exact, so this one is 1.0 on the nose; the
        # second pair rounds just below and must stay unclamped
        assert cosine([3.0, 4.0], [6.0, 8.0]) == 1.0
        assert cosine([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_is_minus_one(self):
        assert cosine([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == -1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            want = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
            assert cosine(a, b) == pytest.approx(want, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            cosine([0.0, 0.0], [1.0, 0.0])


class TestSimilarityMatrix:
    def test_entries_above_one_rejected(self):
        with pytest.raises(InvariantViolation):
            SimilarityMatrix(values=np.array([[1.1]]))

    def test_entries_below_minus_one_rejected(self):
        with pytest.raises(InvariantViolation):
            SimilarityMatrix(values=np.array([[0.5, -1.1], [0.0, 1.0]]))

    def test_nan_entry_rejected(self):
        with pytest.raises(InvariantViolation):
            SimilarityMatrix(values=np.array([[np.nan, 0.5], [0.2, 0.1]]))

    def test_float_slop_at_one_accepted(self):
        m = SimilarityMatrix(values=np.array([[1.0 + 5e-10]]))
        assert m.shape == (1, 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyMatrix):
            SimilarityMatrix(values=np.empty((0, 4)))

    def test_values_are_immutable(self):
        m = SimilarityMatrix(values=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 1.0

    def test_blocks_are_read_only_views_of_values(self):
        values = np.random.default_rng(4).uniform(-1.0, 1.0, (2 * _ROW_BLOCK + 5, 3))
        m = SimilarityMatrix(values=values)
        assert m.shape == (2 * _ROW_BLOCK + 5, 3)
        blocks = list(m.blocks())
        assert [start for start, _ in blocks] == [0, _ROW_BLOCK, 2 * _ROW_BLOCK]
        for _, block in blocks:
            assert np.shares_memory(block, m.values)
            assert not block.flags.writeable
        assert np.array_equal(np.concatenate([block for _, block in blocks]), m.values)


class TestSimilarityMatrixBuilder:
    def test_matches_pairwise_cosine(self):
        vis = unit_rows(7, 5, seed=5, modality=VISION)
        txt = unit_rows(9, 5, seed=6, modality=TEXT)
        m = similarity_matrix(vis, txt)
        for i in range(7):
            for j in range(9):
                want = cosine(vis.vectors[i], txt.vectors[j])
                assert m.values[i, j] == pytest.approx(want, abs=1e-12)

    def test_modality_order_enforced(self):
        vis = unit_rows(3, 4, seed=9, modality=VISION)
        txt = unit_rows(3, 4, seed=10, modality=TEXT)
        with pytest.raises(ModalityMismatch):
            similarity_matrix(txt, vis)

    def test_dimension_mismatch(self):
        vis = unit_rows(3, 4, seed=11, modality=VISION)
        txt = unit_rows(3, 6, seed=12, modality=TEXT)
        with pytest.raises(DimensionMismatch):
            similarity_matrix(vis, txt)


class TestBatchMeans:
    def test_matches_matrix_means(self):
        for n_v, n_t in ((5, 7), (1, 9), (8, 1), (1, 1), (300, 40)):
            vis = unit_rows(n_v, 16, seed=13 + n_v, modality=VISION)
            txt = unit_rows(n_t, 16, seed=14 + n_t, modality=TEXT)
            m = np.clip(vis.vectors @ txt.vectors.T, -1.0, 1.0)
            h_v, h_t = batch_means(vis, txt)
            assert np.max(np.abs(h_v - m.mean(axis=1))) <= 1e-15
            assert np.max(np.abs(h_t - m.mean(axis=0))) <= 1e-15

    def test_shapes(self):
        h_v, h_t = batch_means(unit_rows(1, 8, seed=15), unit_rows(3, 8, seed=16, modality=TEXT))
        assert h_v.shape == (1,) and h_t.shape == (3,)

    def test_identical_rows_stay_within_one(self):
        row = normalize_rows(np.ones((1, 3)), VISION).vectors
        vis = EmbeddingSet(modality=VISION, vectors=np.repeat(row, 4, axis=0))
        txt = EmbeddingSet(modality=TEXT, vectors=np.repeat(row, 6, axis=0))
        # Unclipped, x_v . mean(x_t) rounds to 1 + 2**-52 on both sides here.
        h_v, h_t = batch_means(vis, txt)
        assert np.all(np.abs(h_v) <= 1.0) and np.all(np.abs(h_t) <= 1.0)

    def test_modality_order_enforced(self):
        vis = unit_rows(3, 4, seed=9, modality=VISION)
        txt = unit_rows(3, 4, seed=10, modality=TEXT)
        with pytest.raises(ModalityMismatch):
            batch_means(txt, vis)

    def test_dimension_mismatch(self):
        vis = unit_rows(3, 4, seed=11, modality=VISION)
        txt = unit_rows(3, 6, seed=12, modality=TEXT)
        with pytest.raises(DimensionMismatch):
            batch_means(vis, txt)


class TestPairSet:
    def test_duplicate_rejected(self):
        with pytest.raises(DuplicatePair):
            PairSet(pairs=((0, 0), (1, 1), (0, 0)))

    def test_negative_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            PairSet(pairs=((0, -1),))

    def test_check_against_catches_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            PairSet(pairs=((0, 0), (1, 5))).check_against(2, 2)

    def test_check_against_requires_full_vision_coverage(self):
        with pytest.raises(MissingPositive):
            PairSet(pairs=((0, 0), (0, 1))).check_against(2, 2)

    def test_check_against_requires_full_text_coverage(self):
        with pytest.raises(MissingPositive):
            PairSet(pairs=((0, 0), (1, 0))).check_against(2, 2)

    def test_empty_pair_set_has_no_positives(self):
        with pytest.raises(MissingPositive):
            PairSet().check_against(1, 1)

    def test_many_to_many_lookup_tables(self):
        ps = PairSet(pairs=((0, 2), (0, 0), (1, 1), (1, 2)))
        texts = ps.texts_of()
        visions = ps.visions_of()
        assert texts[0].tolist() == [0, 2]
        assert texts[1].tolist() == [1, 2]
        assert visions[2].tolist() == [0, 1]
        assert len(ps) == 4

    def test_lookup_tables_match_per_pair_loop(self):
        rng = np.random.default_rng(30)
        rows = {(int(v), int(t)) for v, t in rng.integers(0, [40, 60], size=(300, 2))}
        ps = PairSet(pairs=[list(r) for r in rng.permutation(sorted(rows))])
        for table, (key, partner) in ((ps.texts_of(), (0, 1)), (ps.visions_of(), (1, 0))):
            ref = {}
            for row in ps.pairs.tolist():
                ref.setdefault(row[key], []).append(row[partner])
            assert sorted(table) == sorted(ref)
            for k, partners in ref.items():
                assert table[k].dtype == np.int64 and table[k].tolist() == sorted(partners)

    def test_index_arrays_follow_insertion_order(self):
        ps = PairSet(pairs=((3, 1), (0, 2)))
        assert ps.vision_indices.tolist() == [3, 0]
        assert ps.text_indices.tolist() == [1, 2]

    def test_non_adjacent_duplicate_rejected(self):
        PairSet(pairs=((1, 2), (2, 1), (1, 0), (0, 2)))  # shared columns are fine
        with pytest.raises(DuplicatePair, match=r"\(1, 2\)"):
            PairSet(pairs=((1, 2), (0, 5), (1, 0), (3, 3), (2, 2), (1, 2)))

    @pytest.mark.parametrize("rows", [((0, 1, 2),), ((0, 1), (2,)), (0, 1), (("a", "b"),)])
    def test_malformed_rows_are_typed_errors(self, rows):
        with pytest.raises(InvariantViolation):
            PairSet(pairs=rows)

    @pytest.mark.parametrize("rows", [[(0.7, 1.2)], [(0, 1), (1, 2.0)], np.array([[0.0, 1.0]])])
    def test_non_integer_indices_rejected_not_truncated(self, rows):
        with pytest.raises(InvariantViolation, match="a pair index must be an integer"):
            PairSet(pairs=rows)

    def test_index_beyond_int64_rejected(self):
        with pytest.raises(IndexOutOfRange, match="int64"):
            PairSet(pairs=((0, 0), (2, 10**20)))

    def test_ndarray_input_is_copied_read_only_int64(self):
        source = np.array([[0, 1], [1, 0]], dtype=np.int32)
        ps = PairSet(pairs=source)
        source[0, 0] = 7
        assert ps.pairs.dtype == np.int64 and ps.pairs.shape == (2, 2)
        assert ps.pairs.tolist() == [[0, 1], [1, 0]]
        assert PairSet(pairs=ps.pairs).pairs.tolist() == [[0, 1], [1, 0]]
        with pytest.raises(ValueError):
            ps.pairs[0, 0] = 5
        with pytest.raises(ValueError):
            ps.vision_indices[0] = 5

    def test_empty_pair_set_has_shape_0_by_2(self):
        assert PairSet().pairs.shape == (0, 2) and len(PairSet(pairs=[])) == 0


def _spec(**fields):
    return SyntheticSpec(n_items=4, d=8, k_true=4, **fields)


def _config(**fields):
    return TrainConfig(epochs=1, seed=0, **fields)


def _fitted_beta1(entry):
    values, u, pairs = np.array([[0.9, 0.1], [0.2, 0.8]]), np.zeros(2), PairSet(pairs=((0, 0), (1, 1)))
    return fit_betas(values, u, u, pairs, grid=(0.0, entry)).beta1


# Every real parameter: (name in its error, the value stored when x is given
# as that parameter, its error type, whether 0 is refused too).
REAL_FIELDS = [
    ("gamma", lambda x: EvidenceConfig(gamma=x).gamma, InvalidConfig, True),
    ("theta", lambda x: EvidenceConfig(theta=x).theta, InvalidConfig, True),
    ("tau", lambda x: EvidenceConfig(tau=x).tau, InvalidConfig, True),
    ("learning_rate", lambda x: _config(learning_rate=x).learning_rate, InvalidConfig, True),
    ("lambda_div", lambda x: _config(lambda_div=x).lambda_div, InvalidConfig, False),
    ("beta1", lambda x: RerankParams(beta1=x).beta1, InvalidConfig, False),
    ("beta2", lambda x: RerankParams(beta2=x).beta2, InvalidConfig, False),
    ("noise_sigma", lambda x: _spec(noise_sigma=x).noise_sigma, InvalidSpec, False),
    ("ambiguity weight", lambda x: _spec(ambiguity_weights=(x, 1.0)).ambiguity_weights[0], InvalidSpec, False),
    ("beta grid entry", _fitted_beta1, InvalidConfig, False),
]


class TestRealRule:
    @pytest.mark.parametrize("name, stored, error, positive", REAL_FIELDS, ids=[f[0] for f in REAL_FIELDS])
    def test_each_is_a_finite_number_stored_as_a_float(self, name, stored, error, positive):
        # 10**400 is an int no float holds; "0.1" is not a number, though float() parses it
        bad_values = (None, "0.1", 10**400, math.nan, math.inf, -math.inf, -1)
        for bad in bad_values + ((0,) if positive else ()):
            with pytest.raises(error, match=f"{name} must be a finite number"):
                stored(bad)
        for good in (np.float64(0.5),) if positive else (-0.0, np.float64(-0.0)):
            got = stored(good)
            assert type(got) is float and got == good and math.copysign(1.0, got) == 1.0


_M = [[0.9, 0.1], [0.2, 0.8]]
_U = [0.1, 0.2]
_PAIRS = PairSet(pairs=((0, 0), (1, 1)))
_UNIT = [[1.0, 0.0], [0.0, 1.0]]

# Public entry points that take a real array: (name, the call with x as
# that array, a valid x, the error any bad x raises).
ARRAY_ARGUMENTS = [
    ("cosine", lambda x: cosine(x, [1.0, 0.0]), [0.5, 0.5], InvariantViolation),
    ("pearson", lambda x: pearson(x, [1.0, 2.0, 3.0]), [1.0, 2.0, 4.0], InvariantViolation),
    ("entropy", entropy, [0.5, 0.5], NotADistribution),
    ("jsd", lambda x: jsd(x, [0.5, 0.5]), [0.5, 0.5], NotADistribution),
    ("softmax", softmax, [0.0, 1.0], InvariantViolation),
    ("dirichlet_from_evidence", dirichlet_from_evidence, [1.0, 2.0], NegativeEvidence),
    ("loss_uct", lambda x: loss_uct(x, [0.1, 0.2]), [0.1, 0.2], InvariantViolation),
    ("normalize_rows", lambda x: normalize_rows(x, VISION), _UNIT, InvariantViolation),
    ("EmbeddingSet", lambda x: EmbeddingSet(modality=VISION, vectors=x), _UNIT, InvariantViolation),
    ("SimilarityMatrix", lambda x: SimilarityMatrix(values=x), _M, InvariantViolation),
    ("removal_curve_u", lambda x: removal_curve(_M, x, _U, _PAIRS, [1]), _U, InvalidConfig),
    ("evaluate_reranked_u", lambda x: evaluate_reranked(_M, _U, x, _PAIRS, RerankParams()), _U,
     InvalidConfig),
    ("fit_betas_u", lambda x: fit_betas(_M, x, _U, _PAIRS), _U, InvalidConfig),
    ("apply_rerank_m", lambda x: apply_rerank(x, _U, _U, RerankParams()), _M, InvariantViolation),
    ("retrieval_ranks_m", lambda x: retrieval_ranks(x, _PAIRS, "t2v"), _M, InvariantViolation),
]


class TestArrayRule:
    @pytest.mark.parametrize("name, call, valid, error", ARRAY_ARGUMENTS, ids=[a[0] for a in ARRAY_ARGUMENTS])
    def test_each_bad_array_is_its_typed_error(self, name, call, valid, error):
        # pytest turns warnings into errors, so a RuntimeWarning fails here too
        call(valid)
        ragged = [[1.0, 2.0], [3.0]] if np.ndim(valid) == 2 else [1.0, [2.0, 3.0]]
        for bad in ("abc", ragged, None, np.array(valid).astype(str)):
            with pytest.raises(error):
                call(bad)
        for value in (math.nan, math.inf, -math.inf):
            x = np.array(valid)
            x.flat[-1] = value
            with pytest.raises(error):
                call(x)

    @pytest.mark.parametrize("call, plain", [
        (generate_evidence, lambda x: np.exp(x / EvidenceConfig.tau)),
        (evidence_slope, lambda x: np.exp(x / EvidenceConfig.tau) / EvidenceConfig.tau),
        (map_targets, lambda x: np.clip(x, 0.0, 1.0)),
    ], ids=["generate_evidence", "evidence_slope", "map_targets"])
    def test_training_kernels_take_the_one_conversion(self, call, plain):
        """A string, numeric or not, and ragged rows are InvariantViolation; a
        float array keeps its bits, NaN in, NaN out."""
        for bad in ("a", ["1"], [[1.0], [2.0, 3.0]]):
            with pytest.raises(InvariantViolation):
                call(bad)
        x = np.array([[-0.7, -0.0, 0.3], [1.5, np.nan, -2.0]])
        assert call(x).tobytes() == plain(x).tobytes()
