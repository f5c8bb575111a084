"""Uncertainty-weighted re-ranking of a cross-modal similarity matrix.

High-uncertainty instances tend to sit close to many things at once and
hub the top of ranked lists.  Discounting each entry by exponential
penalties on both sides' uncertainties pushes such instances down without
touching the confident ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import PairSet, SimilarityMatrix
from .errors import EmptyGrid, InvalidConfig
from .metrics import T2V, V2T, _values_and_uncertainties, retrieval_ranks

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


def apply_rerank(m, u_v, u_t, params: RerankParams) -> SimilarityMatrix:
    """Discount each similarity by both endpoints' uncertainties.

    Entry (i, j) becomes exp(-beta1 * u_v[i]) * exp(-beta2 * u_t[j]) * m[i, j].
    Both scale factors lie in (0, 1] because uncertainties and betas are
    nonnegative, so the result still lives in [-1, 1].  With beta1 = beta2
    = 0 both factors are exactly 1.0 and the values pass through bit for
    bit.
    """
    values, u_v, u_t = _values_and_uncertainties(m, u_v, u_t)
    row_scale = np.exp(-params.beta1 * u_v)
    col_scale = np.exp(-params.beta2 * u_t)
    out = row_scale[:, None] * values
    out *= col_scale
    return SimilarityMatrix(values=out)


def fit_betas(m, u_v, u_t, pairs: PairSet, grid=DEFAULT_BETA_GRID) -> RerankParams:
    """Grid search for the penalty pair with the most R@1 hits.

    The objective, t2v plus v2t R@1 hits on the given pairs (normally a
    validation split), separates: a t2v query is a text column, whose column
    factor scales its whole gallery alike, so t2v ranks depend on beta1 only;
    likewise v2t ranks depend on beta2 only.  So each beta is swept alone
    with the other at 0: 2 * |grid| rankings, not 2 * |grid|**2.  Each axis
    takes its smallest best beta, the pair an exhaustive ascending sweep with
    strict improvement picks; the grid must contain 0 so that the baseline
    (0, 0) is a candidate.  Caveat: the other side's factor can round two
    scores one ulp apart into a tie that the exhaustive sweep would see;
    this fit ranks them in their order before that rounding.
    """
    candidates = sorted({float(g) for g in grid})
    if not candidates:
        raise EmptyGrid("beta grid has no candidates")
    if any(not np.isfinite(g) or g < 0.0 for g in candidates):
        raise InvalidConfig("beta grid entries must be finite and nonnegative")
    if 0.0 not in candidates:
        raise InvalidConfig("beta grid must contain 0 (the no-penalty baseline)")

    def best(direction: str, axis: str) -> float:
        hits = []
        for b in candidates:
            scored = apply_rerank(m, u_v, u_t, RerankParams(**{axis: b}))
            hits.append(np.count_nonzero(retrieval_ranks(scored, pairs, direction) == 1))
        return candidates[int(np.argmax(hits))]

    return RerankParams(beta1=best(T2V, "beta1"), beta2=best(V2T, "beta2"))
