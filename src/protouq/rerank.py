"""Uncertainty-weighted re-ranking of a cross-modal similarity matrix.

High-uncertainty instances tend to sit close to many things at once and
hub the top of ranked lists.  Discounting each entry by exponential
penalties on both sides' uncertainties pushes such instances down without
touching the confident ones.  The penalty weights, RerankParams, are
defined in evidence, beside the u they penalise, since checkpoints store them.
"""

from __future__ import annotations

import numpy as np

from .embed import PairSet, SimilarityMatrix, _block_source, _real, _stacked
from .errors import EmptyGrid, InvalidConfig
from .evidence import RerankParams
from .metrics import (
    DIRECTIONS,
    T2V,
    V2T,
    _rankings,
    _report,
    _scaled_blocks,
    _similarities_and_uncertainties,
)

# 0.0, 0.25, ..., 5.0 inclusive
DEFAULT_BETA_GRID = tuple(round(0.25 * i, 2) for i in range(21))


def _scales(u_v, u_t, params: RerankParams):
    """apply_rerank's row and column factors, None for a zero beta."""
    return tuple(np.exp(-b * u) if b else None for b, u in ((params.beta1, u_v), (params.beta2, u_t)))


def _reranked_rows(m, u_v, u_t, params: RerankParams):
    """(start, rows) of apply_rerank(m, u_v, u_t, params), one block of
    vision rows at a time, each valid until the next is asked for."""
    source, u_v, u_t = _similarities_and_uncertainties(m, u_v, u_t)
    return ((start, rows) for start, _, rows in _scaled_blocks(source, [_scales(u_v, u_t, params)]))


def apply_rerank(m, u_v, u_t, params: RerankParams) -> SimilarityMatrix:
    """Discount each similarity by both endpoints' uncertainties.

    Entry (i, j) becomes exp(-beta1 * u_v[i]) * exp(-beta2 * u_t[j]) * m[i, j].
    Both scale factors lie in (0, 1] because uncertainties and betas are
    nonnegative, so the result still lives in [-1, 1].  A zero beta is no
    factor, as exp(-0 * u) is exactly 1.0, so with beta1 = beta2 = 0 the
    values pass through bit for bit.
    """
    source = _block_source(m)
    return SimilarityMatrix(values=_stacked(source.shape, _reranked_rows(source, u_v, u_t, params)))


def evaluate_reranked(m, u_v, u_t, pairs: PairSet, params: RerankParams):
    """retrieval_reports of m and of apply_rerank(m, u_v, u_t, params),
    without building either matrix: two groups of _rankings, so each block
    is ranked, then scaled and ranked again.

    Returns (before, after): lists of one RetrievalReport per direction, in
    DIRECTIONS order.
    """
    source, u_v, u_t = _similarities_and_uncertainties(m, u_v, u_t)
    specs = [(d, None) for d in DIRECTIONS]
    groups = [(None, None, specs), (*_scales(u_v, u_t, params), specs)]
    return tuple(
        [_report(ranking.ranks, ranking.direction) for ranking in rankings]
        for rankings in _rankings(source, pairs, groups)
    )


def fit_betas(m, u_v, u_t, pairs: PairSet, grid=DEFAULT_BETA_GRID) -> RerankParams:
    """Grid search for the penalty pair with the most R@1 hits.

    The objective, t2v plus v2t R@1 hits on the given pairs (normally a
    validation split), separates: a t2v query is a text column, whose column
    factor scales its whole gallery alike, so t2v ranks depend on beta1 only;
    likewise v2t ranks depend on beta2 only.  So each beta is swept alone
    with the other at 0, and every grid beta of both axes is one group of
    _rankings: a pair-score pass, then one ranking pass, whatever the grid size.
    A hit is a rank of 1.  Each axis takes its smallest best beta, the pair an
    exhaustive ascending sweep with strict improvement picks; the grid must
    contain 0 so that the baseline (0, 0) is a candidate.  Caveat: the
    other side's factor can round two scores one ulp apart into a tie that
    the exhaustive sweep would see; this fit ranks them in their order
    before that rounding.
    """
    try:
        entries = iter(grid)
    except TypeError:
        raise InvalidConfig(f"beta grid must be a sequence of numbers, got {grid!r}") from None
    candidates = sorted({_real(g, "a beta grid entry", InvalidConfig) for g in entries})
    if not candidates:
        raise EmptyGrid("beta grid has no candidates")
    if 0.0 not in candidates:
        raise InvalidConfig("beta grid must contain 0 (the no-penalty baseline)")
    source, u_v, u_t = _similarities_and_uncertainties(m, u_v, u_t)
    groups = [(*_scales(u_v, u_t, RerankParams(beta1=b)), [(T2V, None)]) for b in candidates]
    groups += [(*_scales(u_v, u_t, RerankParams(beta2=b)), [(V2T, None)]) for b in candidates]
    hits = [np.count_nonzero(ranking.ranks == 1) for [ranking] in _rankings(source, pairs, groups)]
    n = len(candidates)
    return RerankParams(
        beta1=candidates[int(np.argmax(hits[:n]))], beta2=candidates[int(np.argmax(hits[n:]))]
    )
