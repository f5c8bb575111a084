"""Retrieval metrics, correlation, removal curves, and information measures.

Rank conventions used throughout: ranks are 1-based positions after
sorting a gallery by descending similarity, ties broken by ascending
gallery index.  A query's rank is the best (smallest) rank among its
positives.  t2v treats each text column as a query over the vision rows;
v2t treats each vision row as a query over the text columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embed import PairSet, SimilarityMatrix
from .errors import (
    EmptyVector,
    InvalidConfig,
    InvalidCounts,
    LengthMismatch,
    NotADistribution,
    TooManyRemoved,
    ZeroVariance,
)

T2V = "t2v"
V2T = "v2t"
DIRECTIONS = (T2V, V2T)

GALLERY_SIDE = "gallery"
QUERY_SIDE = "query"

UNCERTAINTY_MODE = "uncertainty"
RANDOM_MODE = "random"

_DIST_TOL = 1e-9

# Queries ranked per block in _best_positive_ranks; its temporaries are a
# few (block x gallery) arrays, so memory does not grow with the query count.
_RANK_BLOCK = 256


@dataclass(frozen=True)
class RetrievalReport:
    """Standard retrieval numbers for one direction.

    r1/r5/r10 are percentages in [0, 100]; mdr is the median rank (the
    lower middle for an even query count) and mnr the mean rank.
    """

    direction: str
    r1: float
    r5: float
    r10: float
    mdr: float
    mnr: float
    n_queries: int


def _values_of(m) -> np.ndarray:
    values = m.values if isinstance(m, SimilarityMatrix) else np.asarray(m, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise LengthMismatch("similarity matrix must be 2-D and nonempty")
    return values


def _best_positive_ranks(scores: np.ndarray, query, gallery) -> np.ndarray:
    """Rank of every query's best positive, for queries 0..n-1 on the rows.

    scores is (queries, gallery); pair i links query[i] to gallery[i], and
    every row must have at least one pair.  The best positive is the one
    sorted first (highest score, then lowest gallery index), and its rank
    is count(> s) + count(== s at a lower index) + 1, counted over blocks
    of _RANK_BLOCK rows so temporaries stay O(block x gallery).
    """
    pair_scores = scores[query, gallery]
    order = np.lexsort((gallery, -pair_scores, query))
    sorted_query = query[order]
    best = order[np.r_[True, sorted_query[1:] != sorted_query[:-1]]]
    best_scores, best_gallery = pair_scores[best][:, None], gallery[best][:, None]
    columns = np.arange(scores.shape[1])
    ranks = np.empty(best.size, dtype=np.int64)
    for start in range(0, best.size, _RANK_BLOCK):
        rows = slice(start, start + _RANK_BLOCK)
        block, s = scores[rows], best_scores[rows]
        ties = (block == s) & (columns < best_gallery[rows])
        ranks[rows] = np.count_nonzero(block > s, axis=1) + np.count_nonzero(ties, axis=1) + 1
    return ranks


def retrieval_ranks(m, pairs: PairSet, direction: str) -> np.ndarray:
    """Rank of every query's best positive, in query-index order."""
    values = _values_of(m)
    if direction not in DIRECTIONS:
        raise InvalidConfig(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    pairs.check_against(*values.shape)
    if direction == T2V:
        return _best_positive_ranks(values.T, pairs.text_indices, pairs.vision_indices)
    return _best_positive_ranks(values, pairs.vision_indices, pairs.text_indices)


def evaluate_retrieval(m, pairs: PairSet, direction: str) -> RetrievalReport:
    """R@1/5/10, median and mean rank for one retrieval direction."""
    ranks = retrieval_ranks(m, pairs, direction)
    n = ranks.size
    sorted_ranks = np.sort(ranks)
    return RetrievalReport(
        direction=direction,
        r1=100.0 * float(np.count_nonzero(ranks <= 1)) / n,
        r5=100.0 * float(np.count_nonzero(ranks <= 5)) / n,
        r10=100.0 * float(np.count_nonzero(ranks <= 10)) / n,
        mdr=float(sorted_ranks[(n - 1) // 2]),
        mnr=float(ranks.mean()),
        n_queries=n,
    )


def pearson(x, y) -> float:
    """Sample Pearson correlation, clamped to [-1, 1]."""
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths differ: {a.shape[0]} vs {b.shape[0]}")
    if a.size < 2:
        raise LengthMismatch("correlation needs at least 2 observations")
    ac = a - a.mean()
    bc = b - b.mean()
    va = float(np.dot(ac, ac))
    vb = float(np.dot(bc, bc))
    if va == 0.0 or vb == 0.0:
        raise ZeroVariance("correlation is undefined for a constant vector")
    return float(np.clip(np.dot(ac, bc) / math.sqrt(va * vb), -1.0, 1.0))


# ---- removal curves ----


@dataclass(frozen=True)
class RemovalPoint:
    removed: int
    r1_t2v: float
    r1_v2t: float


@dataclass(frozen=True)
class RemovalCurve:
    mode: str
    side: str
    points: tuple[RemovalPoint, ...]


def _survivor_r1(scores: np.ndarray, query, gallery, keep) -> float:
    """R@1 over surviving pairs; every surviving pair is one query.

    The gallery shrinks to the instances still referenced on the gallery
    side, and each query is scored by its best-ranked surviving positive,
    so with one pair per query this matches evaluate_retrieval exactly.
    """
    query_ids, q = np.unique(query[keep], return_inverse=True)
    gallery_ids, g = np.unique(gallery[keep], return_inverse=True)
    ranks = _best_positive_ranks(scores[np.ix_(query_ids, gallery_ids)], q, g)
    return 100.0 * np.count_nonzero(ranks[q] == 1) / q.size


def removal_curve(
    m,
    u_v,
    u_t,
    pairs: PairSet,
    counts,
    mode: str = UNCERTAINTY_MODE,
    seed: int = 0,
    side: str = GALLERY_SIDE,
) -> RemovalCurve:
    """R@1 after deleting whole pairs, either by uncertainty or at random.

    In uncertainty mode the pairs with the highest uncertainty on the
    relevant side leave first; by default that is the gallery side of each
    direction (vision for t2v, text for v2t), and side="query" flips it.
    Ties fall back to ascending pair index.  In random mode the removed
    pairs are a seeded uniform draw, redrawn per count and shared by both
    directions.  A removed pair takes its query with it, so the point at
    count r scores exactly n_pairs - r queries per direction.
    """
    values = _values_of(m)
    u_v = np.asarray(u_v, dtype=np.float64).ravel()
    u_t = np.asarray(u_t, dtype=np.float64).ravel()
    if u_v.size != values.shape[0] or u_t.size != values.shape[1]:
        raise LengthMismatch("uncertainty vectors must match the matrix shape")
    if mode not in (UNCERTAINTY_MODE, RANDOM_MODE):
        raise InvalidConfig(f"unknown removal mode {mode!r}")
    if side not in (GALLERY_SIDE, QUERY_SIDE):
        raise InvalidConfig(f"unknown removal side {side!r}")
    pairs.check_against(*values.shape)
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise InvalidConfig("removal counts must be nonnegative")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise InvalidConfig("removal counts must be strictly increasing")
    n_pairs = len(pairs)
    if counts and counts[-1] >= n_pairs:
        raise TooManyRemoved(
            f"cannot remove {counts[-1]} of {n_pairs} pairs and still have queries"
        )

    vs = pairs.vision_indices
    ts = pairs.text_indices

    def survivors(direction: str, r: int) -> np.ndarray:
        if mode == RANDOM_MODE:
            removed = np.random.default_rng([seed, r]).permutation(n_pairs)[:r]
        else:
            vision_is_key = (direction == T2V) == (side == GALLERY_SIDE)
            key = u_v[vs] if vision_is_key else u_t[ts]
            removed = np.argsort(-key, kind="stable")[:r]
        keep = np.ones(n_pairs, dtype=bool)
        keep[removed] = False
        return keep

    points = []
    for r in counts:
        keep_t2v = survivors(T2V, r)
        keep_v2t = keep_t2v if mode == RANDOM_MODE else survivors(V2T, r)
        points.append(
            RemovalPoint(
                removed=r,
                r1_t2v=_survivor_r1(values.T, ts, vs, keep_t2v),
                r1_v2t=_survivor_r1(values, vs, ts, keep_v2t),
            )
        )
    return RemovalCurve(mode=mode, side=side, points=tuple(points))


# ---- information measures ----


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    if p.size == 0:
        raise EmptyVector(f"{name} has no entries")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise NotADistribution(f"{name} has negative or non-finite entries")
    total = float(p.sum())
    if abs(total - 1.0) > _DIST_TOL:
        raise NotADistribution(f"{name} sums to {total}, not 1")
    return p


def entropy(p) -> float:
    """Shannon entropy in nats, with 0 log 0 taken as 0."""
    arr = _check_distribution(np.asarray(p, dtype=np.float64).ravel(), "p")
    nz = arr[arr > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def jsd(p, q) -> float:
    """Jensen-Shannon divergence in bits; symmetric and within [0, 1]."""
    a = np.asarray(p, dtype=np.float64).ravel()
    b = np.asarray(q, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths differ: {a.shape[0]} vs {b.shape[0]}")
    a = _check_distribution(a, "p")
    b = _check_distribution(b, "q")
    mid = 0.5 * (a + b)

    def _kl_to_mid(x: np.ndarray) -> float:
        mask = x > 0.0
        return float(np.sum(x[mask] * np.log2(x[mask] / mid[mask])))

    return float(np.clip(0.5 * _kl_to_mid(a) + 0.5 * _kl_to_mid(b), 0.0, 1.0))


def softmax(logits) -> np.ndarray:
    """Stable softmax of a 1-D array of logits."""
    arr = np.asarray(logits, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyVector("softmax of an empty vector is undefined")
    shifted = arr - arr.max()
    e = np.exp(shifted)
    return e / e.sum()


def msvd_collision_logprob(n_captions: int, batch: int, group: int) -> float:
    """Log probability that a uniformly drawn batch hits distinct groups.

    A corpus of n_captions captions is partitioned into groups of size
    ``group`` (captions describing the same item).  Drawing ``batch``
    captions one by one without replacement, the chance that none of them
    collides with an earlier draw's group telescopes into

        sum_{i=1}^{batch} [ log(n - group (i - 1)) - log(n - (i - 1)) ].
    """
    if batch < 1 or group < 1:
        raise InvalidCounts(f"batch and group must be >= 1, got {batch} and {group}")
    if n_captions < batch * group:
        raise InvalidCounts(
            f"need n_captions >= batch * group, got {n_captions} < {batch * group}"
        )
    i = np.arange(batch, dtype=np.float64)
    return float(np.sum(np.log(n_captions - group * i) - np.log(n_captions - i)))
