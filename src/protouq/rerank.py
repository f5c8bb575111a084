"""Uncertainty-weighted re-ranking of a cross-modal similarity matrix.

High-uncertainty instances tend to sit close to many things at once and
hub the top of ranked lists.  Discounting each entry by exponential
penalties on both sides' uncertainties pushes such instances down without
touching the confident ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import PairSet, SimilarityMatrix, _block_source, _stacked
from .errors import EmptyGrid, InvalidConfig
from .metrics import (
    DIRECTIONS,
    T2V,
    V2T,
    _BestPositiveRanks,
    _pair_scores,
    _report,
    _similarities_and_uncertainties,
)

# 0.0, 0.25, ..., 5.0 inclusive
DEFAULT_BETA_GRID = tuple(round(0.25 * i, 2) for i in range(21))


@dataclass(frozen=True)
class RerankParams:
    """Penalty strengths for the vision side (beta1) and text side (beta2)."""

    beta1: float = 0.0
    beta2: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.beta1) and np.isfinite(self.beta2)):
            raise InvalidConfig("beta1 and beta2 must be finite")
        if self.beta1 < 0.0 or self.beta2 < 0.0:
            raise InvalidConfig("beta1 and beta2 must be nonnegative")


def _scales(u_v, u_t, params: RerankParams):
    """apply_rerank's row and column factors."""
    return np.exp(-params.beta1 * u_v), np.exp(-params.beta2 * u_t)


def _rescale(block, start, scales) -> np.ndarray:
    """Scale a block of rows the way apply_rerank scales the whole matrix,
    (m * row_scale) * col_scale: in place in a writable block, into a new
    array for a stored matrix's read-only view."""
    row_scale, col_scale = scales
    out = block if block.flags.writeable else None
    block = np.multiply(block, row_scale[start:start + len(block), None], out=out)
    return np.multiply(block, col_scale, out=block)


def _reranked_rows(m, u_v, u_t, params: RerankParams):
    """(start, rows) of apply_rerank(m, u_v, u_t, params), one block of
    vision rows at a time."""
    source, u_v, u_t = _similarities_and_uncertainties(m, u_v, u_t)
    scales = _scales(u_v, u_t, params)
    for start, block in source.blocks():
        yield start, _rescale(block, start, scales)


def apply_rerank(m, u_v, u_t, params: RerankParams) -> SimilarityMatrix:
    """Discount each similarity by both endpoints' uncertainties.

    Entry (i, j) becomes exp(-beta1 * u_v[i]) * exp(-beta2 * u_t[j]) * m[i, j].
    Both scale factors lie in (0, 1] because uncertainties and betas are
    nonnegative, so the result still lives in [-1, 1].  With beta1 = beta2
    = 0 both factors are exactly 1.0 and the values pass through bit for
    bit.
    """
    source = _block_source(m)
    return _stacked(source.shape, _reranked_rows(source, u_v, u_t, params))


def _reranked_rankings(source, u_v, u_t, pairs: PairSet, params: RerankParams):
    """A _BestPositiveRanks per direction for the similarities and one for
    their re-ranked form, from a pair-score pass and one ranking pass: each
    block is ranked, scaled in place and ranked again."""
    row_scale, col_scale = scales = _scales(u_v, u_t, params)
    scores = _pair_scores(source, pairs)
    reranked_scores = scores * row_scale[pairs.vision_indices]
    reranked_scores *= col_scale[pairs.text_indices]
    before = [_BestPositiveRanks(d, source.shape, pairs, scores) for d in DIRECTIONS]
    after = [_BestPositiveRanks(d, source.shape, pairs, reranked_scores) for d in DIRECTIONS]
    for start, block in source.blocks():
        for ranking in before:
            ranking.add(start, block)
        block = _rescale(block, start, scales)
        for ranking in after:
            ranking.add(start, block)
    return before, after


def evaluate_reranked(m, u_v, u_t, pairs: PairSet, params: RerankParams):
    """retrieval_reports of m and of apply_rerank(m, u_v, u_t, params),
    without building either matrix.

    Returns (before, after): lists of one RetrievalReport per direction, in
    DIRECTIONS order.
    """
    source, u_v, u_t = _similarities_and_uncertainties(m, u_v, u_t)
    pairs.check_against(*source.shape)
    return tuple(
        [_report(ranking.ranks, ranking.direction) for ranking in rankings]
        for rankings in _reranked_rankings(source, u_v, u_t, pairs, params)
    )


def _grid_hits(source, u_v, u_t, pairs: PairSet, candidates):
    """t2v R@1 hits at every candidate beta1 and v2t R@1 hits at every
    candidate beta2 (the other beta at 0), from a pair-score pass and one
    ranking pass.  Each (axis, beta) ranks every block scaled by its factor
    into one scratch buffer, against pair scores scaled the same way, so a
    best positive holds its block entry's bits; a hit is a rank of 1."""
    vs, ts = pairs.vision_indices, pairs.text_indices
    scores = _pair_scores(source, pairs)
    row_scales = [np.exp(-b * u_v) for b in candidates]
    col_scales = [np.exp(-b * u_t) for b in candidates]
    t2v = [_BestPositiveRanks(T2V, source.shape, pairs, scores * s[vs]) for s in row_scales]
    v2t = [_BestPositiveRanks(V2T, source.shape, pairs, scores * s[ts]) for s in col_scales]
    for start, block in source.blocks():
        scaled = np.empty_like(block)
        rows = slice(start, start + len(block))
        for ranking, row_scale in zip(t2v, row_scales):
            ranking.add(start, np.multiply(block, row_scale[rows, None], out=scaled))
        for ranking, col_scale in zip(v2t, col_scales):
            ranking.add(start, np.multiply(block, col_scale, out=scaled))
    return [[np.count_nonzero(r.ranks == 1) for r in axis] for axis in (t2v, v2t)]


def fit_betas(m, u_v, u_t, pairs: PairSet, grid=DEFAULT_BETA_GRID) -> RerankParams:
    """Grid search for the penalty pair with the most R@1 hits.

    The objective, t2v plus v2t R@1 hits on the given pairs (normally a
    validation split), separates: a t2v query is a text column, whose column
    factor scales its whole gallery alike, so t2v ranks depend on beta1 only;
    likewise v2t ranks depend on beta2 only.  So each beta is swept alone
    with the other at 0, and every grid beta of both axes is ranked on the
    same blocks: a pair-score pass, then one ranking pass, whatever the
    grid size.  Each axis takes its smallest best beta, the pair an
    exhaustive ascending sweep with strict improvement picks; the grid must
    contain 0 so that the baseline (0, 0) is a candidate.  Caveat: the
    other side's factor can round two scores one ulp apart into a tie that
    the exhaustive sweep would see; this fit ranks them in their order
    before that rounding.
    """
    candidates = sorted({float(g) for g in grid})
    if not candidates:
        raise EmptyGrid("beta grid has no candidates")
    if any(not np.isfinite(g) or g < 0.0 for g in candidates):
        raise InvalidConfig("beta grid entries must be finite and nonnegative")
    if 0.0 not in candidates:
        raise InvalidConfig("beta grid must contain 0 (the no-penalty baseline)")
    source, u_v, u_t = _similarities_and_uncertainties(m, u_v, u_t)
    pairs.check_against(*source.shape)
    hits_t2v, hits_v2t = _grid_hits(source, u_v, u_t, pairs, candidates)
    return RerankParams(
        beta1=candidates[int(np.argmax(hits_t2v))], beta2=candidates[int(np.argmax(hits_v2t))]
    )
