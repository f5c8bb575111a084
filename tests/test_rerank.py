"""Uncertainty-weighted re-ranking and the beta grid search."""

import math
import tracemalloc

import numpy as np
import pytest

from protouq import (
    TEXT,
    VISION,
    PairSet,
    RerankParams,
    SimilarityMatrix,
    apply_rerank,
    evaluate_reranked,
    evaluate_retrieval,
    fit_betas,
    normalize_rows,
    removal_curve,
    retrieval_ranks,
    retrieval_reports,
    similarity_matrix,
)
from protouq import rerank
from protouq.embed import _ROW_BLOCK, _SimilarityBlocks
from protouq.errors import EmptyGrid, InvalidConfig, LengthMismatch
from protouq.metrics import _rankings
from protouq.rerank import DEFAULT_BETA_GRID


class TestRerankParams:
    def test_defaults_are_identity(self):
        params = RerankParams()
        assert (params.beta1, params.beta2) == (0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidConfig):
            RerankParams(beta1=-0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidConfig):
            RerankParams(beta2=float("inf"))


class TestApplyRerank:
    def test_single_entry_formula(self):
        m = SimilarityMatrix(values=np.array([[0.8]]))
        out = apply_rerank(m, [0.5], [0.4], RerankParams(beta1=1.0, beta2=1.0))
        assert out.values[0, 0] == pytest.approx(0.8 * math.exp(-0.9), abs=1e-12)
        assert out.values[0, 0] == pytest.approx(0.325256, abs=1e-6)

    def test_zero_betas_pass_values_through_bitwise(self):
        rng = np.random.default_rng(80)
        values = rng.uniform(-1.0, 1.0, size=(6, 9))
        m = SimilarityMatrix(values=values)
        out = apply_rerank(m, rng.uniform(0.0, 1.0, 6), rng.uniform(0.0, 1.0, 9), RerankParams())
        assert np.array_equal(out.values, m.values)

    def test_matches_elementwise_formula(self):
        rng = np.random.default_rng(81)
        values = rng.uniform(-1.0, 1.0, size=(5, 7))
        u_v = rng.uniform(0.0, 1.0, 5)
        u_t = rng.uniform(0.0, 1.0, 7)
        params = RerankParams(beta1=0.75, beta2=2.5)
        out = apply_rerank(SimilarityMatrix(values=values), u_v, u_t, params)
        for i in range(5):
            for j in range(7):
                want = math.exp(-0.75 * u_v[i]) * math.exp(-2.5 * u_t[j]) * values[i, j]
                assert out.values[i, j] == pytest.approx(want, abs=1e-12)

    def test_result_is_valid_similarity_matrix(self):
        values = np.array([[1.0, -1.0], [0.5, -0.5]])
        out = apply_rerank(
            SimilarityMatrix(values=values), [0.9, 0.1], [0.2, 0.8], RerankParams(beta1=5.0, beta2=5.0)
        )
        assert isinstance(out, SimilarityMatrix)
        assert np.all(np.abs(out.values) <= 1.0)

    def test_row_order_preserved_within_columns(self):
        # scaling a column by a constant cannot reorder the column
        rng = np.random.default_rng(82)
        values = rng.uniform(-1.0, 1.0, size=(8, 4))
        u_t = rng.uniform(0.0, 1.0, 4)
        out = apply_rerank(SimilarityMatrix(values=values), np.zeros(8), u_t, RerankParams(beta2=3.0))
        for j in range(4):
            assert np.argsort(-values[:, j]).tolist() == np.argsort(-out.values[:, j]).tolist()

    def test_negative_uncertainty_rejected(self):
        m = SimilarityMatrix(values=np.zeros((2, 2)))
        with pytest.raises(InvalidConfig):
            apply_rerank(m, [-0.1, 0.0], [0.0, 0.0], RerankParams())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_uncertainty_rejected(self, bad):
        m = SimilarityMatrix(values=np.zeros((2, 2)))
        with pytest.raises(InvalidConfig):
            apply_rerank(m, [bad, 0.1], [0.0, 0.0], RerankParams(beta1=1.0))
        with pytest.raises(InvalidConfig):
            apply_rerank(m, [0.0, 0.0], [0.1, bad], RerankParams())

    def test_shape_mismatch_rejected(self):
        m = SimilarityMatrix(values=np.zeros((2, 3)))
        with pytest.raises(LengthMismatch):
            apply_rerank(m, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], RerankParams())


def hub_corpus():
    """Text 3 hubs: second-best in every row, high uncertainty."""
    values = np.array([
        [0.90, 0.10, 0.10, 0.95],
        [0.10, 0.90, 0.10, 0.89],
        [0.10, 0.10, 0.90, 0.89],
        [0.05, 0.05, 0.05, 0.91],
    ])
    u_v = np.zeros(4)
    u_t = np.array([0.0, 0.0, 0.0, 0.8])
    pairs = PairSet(pairs=tuple((i, i) for i in range(4)))
    return SimilarityMatrix(values=values), u_v, u_t, pairs


def mean_r1(m, pairs):
    return 0.5 * (evaluate_retrieval(m, pairs, "t2v").r1 + evaluate_retrieval(m, pairs, "v2t").r1)


def exhaustive_fit(m, u_v, u_t, pairs, grid=DEFAULT_BETA_GRID):
    """Reference fit: every (beta1, beta2) on the grid, scored by mean R@1.

    Both axes sweep in ascending order and a candidate must strictly
    improve to displace the incumbent, so ties resolve to the smallest
    beta1, then the smallest beta2.
    """
    candidates = sorted({float(g) for g in grid})
    best_params, best_score = None, -np.inf
    for b1 in candidates:
        for b2 in candidates:
            params = RerankParams(beta1=b1, beta2=b2)
            score = mean_r1(apply_rerank(m, u_v, u_t, params), pairs)
            if score > best_score:
                best_score, best_params = score, params
    return best_params


def random_fit_case(rng):
    """Small tie-heavy input: rounded scores and u, many-to-many pairs, and
    an unsorted grid with duplicates that always contains 0."""
    n_v, n_t = (int(n) for n in rng.integers(2, 12, size=2))
    values = rng.uniform(-1.0, 1.0, size=(n_v, n_t))
    # a few hub columns and rows score high against everything
    values[:, rng.random(n_t) < 0.2] += 0.6
    values[rng.random(n_v) < 0.2] += 0.6
    values = np.round(np.clip(values, -1.0, 1.0), int(rng.integers(1, 3)))
    u_v = np.round(rng.uniform(0.0, 1.0, n_v), 1)
    u_t = np.round(rng.uniform(0.0, 1.0, n_t), 1)
    # every instance has a partner, plus extra links
    rows = np.concatenate([
        np.column_stack([np.arange(n_v), rng.integers(0, n_t, n_v)]),
        np.column_stack([rng.integers(0, n_v, n_t), np.arange(n_t)]),
        np.column_stack([rng.integers(0, n_v, 4), rng.integers(0, n_t, 4)]),
    ])
    pairs = PairSet(pairs=np.unique(rows, axis=0))
    steps = rng.choice(np.arange(1, 21), size=int(rng.integers(1, 7)))
    grid = [0.0, *(0.25 * steps), *(0.25 * steps[:2])]
    grid = [grid[i] for i in rng.permutation(len(grid))]
    return SimilarityMatrix(values=values), u_v, u_t, pairs, grid


class TestFitBetas:
    def test_default_grid_shape(self):
        assert DEFAULT_BETA_GRID[0] == 0.0
        assert DEFAULT_BETA_GRID[-1] == 5.0
        assert len(DEFAULT_BETA_GRID) == 21

    def test_uninformative_uncertainty_keeps_baseline(self):
        rng = np.random.default_rng(83)
        values = rng.uniform(-1.0, 1.0, size=(6, 6))
        pairs = PairSet(pairs=tuple((i, i) for i in range(6)))
        params = fit_betas(SimilarityMatrix(values=values), np.zeros(6), np.zeros(6), pairs)
        # all-zero uncertainty makes every candidate identical, so the
        # ascending sweep keeps the smallest pair
        assert (params.beta1, params.beta2) == (0.0, 0.0)

    def test_demotes_uncertain_hub(self):
        m, u_v, u_t, pairs = hub_corpus()
        baseline = 0.5 * (
            evaluate_retrieval(m, pairs, "t2v").r1 + evaluate_retrieval(m, pairs, "v2t").r1
        )
        params = fit_betas(m, u_v, u_t, pairs)
        assert params.beta1 == 0.0
        assert params.beta2 > 0.0
        reranked = apply_rerank(m, u_v, u_t, params)
        fitted = 0.5 * (
            evaluate_retrieval(reranked, pairs, "t2v").r1
            + evaluate_retrieval(reranked, pairs, "v2t").r1
        )
        assert fitted > baseline
        assert evaluate_retrieval(reranked, pairs, "v2t").r1 == 100.0

    def test_fit_never_below_baseline(self):
        rng = np.random.default_rng(84)
        for _ in range(5):
            values = rng.uniform(-1.0, 1.0, size=(7, 7))
            u_v = rng.uniform(0.0, 1.0, 7)
            u_t = rng.uniform(0.0, 1.0, 7)
            pairs = PairSet(pairs=tuple((i, i) for i in range(7)))
            m = SimilarityMatrix(values=values)
            params = fit_betas(m, u_v, u_t, pairs)
            before = 0.5 * (
                evaluate_retrieval(m, pairs, "t2v").r1 + evaluate_retrieval(m, pairs, "v2t").r1
            )
            after_m = apply_rerank(m, u_v, u_t, params)
            after = 0.5 * (
                evaluate_retrieval(after_m, pairs, "t2v").r1
                + evaluate_retrieval(after_m, pairs, "v2t").r1
            )
            assert after >= before

    def test_custom_grid_respected(self):
        m, u_v, u_t, pairs = hub_corpus()
        params = fit_betas(m, u_v, u_t, pairs, grid=(0.0, 2.0))
        assert params.beta1 in (0.0, 2.0)
        assert params.beta2 in (0.0, 2.0)

    def test_empty_grid_rejected(self):
        m, u_v, u_t, pairs = hub_corpus()
        with pytest.raises(EmptyGrid):
            fit_betas(m, u_v, u_t, pairs, grid=())

    def test_grid_without_zero_rejected(self):
        m, u_v, u_t, pairs = hub_corpus()
        with pytest.raises(InvalidConfig):
            fit_betas(m, u_v, u_t, pairs, grid=(0.5, 1.0))

    def test_negative_grid_entry_rejected(self):
        m, u_v, u_t, pairs = hub_corpus()
        with pytest.raises(InvalidConfig):
            fit_betas(m, u_v, u_t, pairs, grid=(0.0, -1.0))

    def test_nan_uncertainty_rejected(self):
        m, u_v, u_t, pairs = hub_corpus()
        u_v = u_v.copy()
        u_v[0] = np.nan
        with pytest.raises(InvalidConfig):
            fit_betas(m, u_v, u_t, pairs)

    def test_each_axis_takes_its_smallest_maximizer(self):
        # the hub corpus beside its transpose: text 3 hubs the v2t side and
        # vision 7 hubs the t2v side, and on each axis every beta from 0.25
        # to 3.5 fixes its hub, so both axes have several maximizers
        m, u_v, u_t, _ = hub_corpus()
        values = np.zeros((8, 8))
        values[:4, :4] = m.values
        values[4:, 4:] = m.values.T
        m2 = SimilarityMatrix(values=values)
        u_v2 = np.concatenate([u_v, u_t])
        u_t2 = np.concatenate([u_t, u_v])
        pairs = PairSet(pairs=tuple((i, i) for i in range(8)))
        params = fit_betas(m2, u_v2, u_t2, pairs)
        assert (params.beta1, params.beta2) == (0.25, 0.25)
        assert params == exhaustive_fit(m2, u_v2, u_t2, pairs)
        best = mean_r1(apply_rerank(m2, u_v2, u_t2, params), pairs)
        assert best > mean_r1(m2, pairs)
        for b1, b2 in [(0.25, 3.5), (3.5, 0.25), (1.0, 2.0)]:
            other = apply_rerank(m2, u_v2, u_t2, RerankParams(beta1=b1, beta2=b2))
            assert mean_r1(other, pairs) == best

    def test_matches_exhaustive_reference(self):
        rng = np.random.default_rng(85)
        nonzero = [0, 0]
        for _ in range(200):
            m, u_v, u_t, pairs, grid = random_fit_case(rng)
            params = fit_betas(m, u_v, u_t, pairs, grid=grid)
            assert params == exhaustive_fit(m, u_v, u_t, pairs, grid)
            nonzero[0] += params.beta1 > 0.0
            nonzero[1] += params.beta2 > 0.0
        # the inputs exercise both axes, not just the (0, 0) baseline
        assert min(nonzero) >= 20, nonzero


def tied_corpus(seed, n_vision, n_text, d=6, pool=5):
    """Embeddings drawn from a few distinct vectors per modality, so most
    similarities tie exactly, with many-to-many pairs and tied u."""
    rng = np.random.default_rng(seed)
    vis = normalize_rows(rng.standard_normal((pool, d))[rng.integers(0, pool, n_vision)], VISION)
    txt = normalize_rows(rng.standard_normal((pool, d))[rng.integers(0, pool, n_text)], TEXT)
    rows = np.concatenate([
        np.column_stack([np.arange(n_vision), rng.integers(0, n_text, n_vision)]),
        np.column_stack([rng.integers(0, n_vision, n_text), np.arange(n_text)]),
        rng.integers(0, [n_vision, n_text], size=(n_vision // 3 + 2, 2)),
    ])
    u_v = np.round(rng.uniform(0.0, 1.0, n_vision), 1)
    u_t = np.round(rng.uniform(0.0, 1.0, n_text), 1)
    return vis, txt, PairSet(pairs=np.unique(rows, axis=0)), u_v, u_t


class TestStreamedFromEmbeddings:
    """Rankings read from embedding blocks give the dense matrix's bits."""

    @pytest.mark.parametrize(
        "n_vision, n_text", [(1, 600), (255, 257), (256, 256), (257, 255), (600, 1)]
    )
    def test_ranks_match_dense_matrix_plain_and_reranked(self, n_vision, n_text):
        vis, txt, pairs, u_v, u_t = tied_corpus(n_vision + n_text, n_vision, n_text)
        dense = similarity_matrix(vis, txt)
        source = _SimilarityBlocks(vis, txt)
        params = RerankParams(beta1=1.5, beta2=0.75)
        reranked = apply_rerank(dense, u_v, u_t, params)
        specs = [(d, None) for d in ("t2v", "v2t")]
        groups = [(None, None, specs), (*rerank._scales(u_v, u_t, params), specs)]
        before, after = _rankings(source, pairs, groups)
        for plain, scaled in zip(before, after):
            direction = plain.direction
            assert plain.ranks.tolist() == retrieval_ranks(dense, pairs, direction).tolist()
            assert scaled.ranks.tolist() == retrieval_ranks(reranked, pairs, direction).tolist()
            assert plain.ranks.tolist() == retrieval_ranks(source, pairs, direction).tolist()
        streamed = evaluate_reranked(source, u_v, u_t, pairs, params)
        assert streamed == (
            [evaluate_retrieval(dense, pairs, d) for d in ("t2v", "v2t")],
            [evaluate_retrieval(reranked, pairs, d) for d in ("t2v", "v2t")],
        )
        # the stored matrix's read-only blocks are scaled into a scratch
        # block, the streamed ones in place
        assert evaluate_reranked(dense, u_v, u_t, pairs, params) == streamed
        assert fit_betas(dense, u_v, u_t, pairs) == fit_betas(source, u_v, u_t, pairs)

    def test_fit_matches_exhaustive_reference_on_dense_matrix(self):
        grid = (0.0, 0.5, 1.0, 2.5)
        nonzero = 0
        for seed in range(3):
            vis, txt, pairs, u_v, u_t = tied_corpus(seed, 300, 280)
            source = _SimilarityBlocks(vis, txt)
            params = fit_betas(source, u_v, u_t, pairs, grid=grid)
            assert params == exhaustive_fit(similarity_matrix(vis, txt), u_v, u_t, pairs, grid)
            nonzero += params != RerankParams()
        assert nonzero >= 1


RANKINGS = {
    "retrieval_ranks": lambda m, u_v, u_t, pairs: retrieval_ranks(m, pairs, "t2v"),
    "evaluate_reranked": lambda m, u_v, u_t, pairs: evaluate_reranked(
        m, u_v, u_t, pairs, RerankParams(beta1=1.0, beta2=2.0)
    ),
    "apply_rerank": lambda m, u_v, u_t, pairs: apply_rerank(
        m, u_v, u_t, RerankParams(beta1=1.0, beta2=2.0)
    ),
    "fit_betas": lambda m, u_v, u_t, pairs: fit_betas(m, u_v, u_t, pairs),
    "removal_curve": lambda m, u_v, u_t, pairs: removal_curve(m, u_v, u_t, pairs, [1, 5]),
}


@pytest.mark.parametrize("name", ["fit_betas", "evaluate_reranked"])
def test_ranking_pass_peak_memory_is_a_few_blocks(name):
    # the streamed block, one scratch block and the ranking's temporaries;
    # a scratch block per block or per (axis, beta) would pass 3 blocks
    rng = np.random.default_rng(87)
    n_vision, n_text, d = 4 * _ROW_BLOCK, 4000, 16
    vis = normalize_rows(rng.standard_normal((n_vision, d)), VISION)
    txt = normalize_rows(rng.standard_normal((n_text, d)), TEXT)
    pairs = PairSet(pairs=np.column_stack([np.arange(n_text) % n_vision, np.arange(n_text)]))
    u_v, u_t = rng.uniform(0.0, 1.0, n_vision), rng.uniform(0.0, 1.0, n_text)
    source = _SimilarityBlocks(vis, txt)
    tracemalloc.start()
    try:
        RANKINGS[name](source, u_v, u_t, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * _ROW_BLOCK * n_text


PASSES = {
    "retrieval_reports": lambda m, u_v, u_t, pairs: retrieval_reports(m, pairs),
    "evaluate_reranked": RANKINGS["evaluate_reranked"],
    "removal_curve": lambda m, u_v, u_t, pairs: removal_curve(m, u_v, u_t, pairs, [1, 2]),
    "fit_betas-grid5": lambda m, u_v, u_t, pairs: fit_betas(
        m, u_v, u_t, pairs, grid=(2.0, 0.0, 0.5, 1.0, 4.0)
    ),
    "fit_betas-grid21": RANKINGS["fit_betas"],
}


@pytest.mark.parametrize("name", sorted(PASSES))
def test_pair_score_pass_then_one_ranking_pass(name, monkeypatch):
    # two passes over a stored matrix, whatever the number of rankings (for
    # the fit, of grid betas) the second one feeds
    passes = []
    original = SimilarityMatrix.blocks

    def counting_blocks(self):
        passes.append(self)
        return original(self)

    monkeypatch.setattr(SimilarityMatrix, "blocks", counting_blocks)
    m, u_v, u_t, pairs = hub_corpus()
    PASSES[name](m, u_v, u_t, pairs)
    assert [id(source) for source in passes] == [id(m), id(m)]


@pytest.mark.parametrize("stored", [False, True], ids=["raw-array", "SimilarityMatrix"])
@pytest.mark.parametrize("name", sorted(RANKINGS))
def test_ranking_leaves_its_input_unchanged(name, stored):
    # past one block, so the read-only views of a stored matrix get scaled
    rng = np.random.default_rng(86)
    n_vision, n_text = _ROW_BLOCK + 3, 7
    values = rng.uniform(-1.0, 1.0, (n_vision, n_text))
    expected = values.copy()
    pairs = PairSet(pairs=[(i, i % n_text) for i in range(n_vision)])
    u_v, u_t = rng.uniform(0.0, 1.0, n_vision), rng.uniform(0.0, 1.0, n_text)
    m = SimilarityMatrix(values=values.copy()) if stored else values
    RANKINGS[name](m, u_v, u_t, pairs)
    assert (m.values if stored else m).tobytes() == expected.tobytes()
    if not stored:
        assert values.flags.writeable
