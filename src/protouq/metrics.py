"""Retrieval metrics, correlation, removal curves, and information measures.

Rank conventions used throughout: ranks are 1-based positions after
sorting a gallery by descending similarity, ties broken by ascending
gallery index.  A query's rank is the best (smallest) rank among its
positives.  t2v treats each text column as a query over the vision rows;
v2t treats each vision row as a query over the text columns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .embed import _ROW_BLOCK, PairSet, _block_source, _integer, _pow2_scaled, _reals
from .errors import (
    EmptyVector,
    InvalidConfig,
    InvalidCounts,
    InvariantViolation,
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


def _similarities_and_uncertainties(m, u_v, u_t):
    """m as a block source, then u_v and u_t as float vectors with one
    finite, nonnegative entry per vision row and per text column."""
    source = _block_source(m)
    u_v, u_t = (_reals(u, "uncertainties", InvalidConfig, nonnegative=True) for u in (u_v, u_t))
    if (u_v.size, u_t.size) != source.shape:
        raise LengthMismatch(
            f"uncertainty lengths ({u_v.size}, {u_t.size}) "
            f"do not match matrix shape {source.shape}"
        )
    return source, u_v, u_t


def _sides(pairs: PairSet, direction: str):
    """(query, gallery) index of every pair for one direction."""
    if direction == T2V:
        return pairs.text_indices, pairs.vision_indices
    return pairs.vision_indices, pairs.text_indices


def _pair_scores(source, pairs: PairSet) -> np.ndarray:
    """M[v, t] of every pair, as the blocks hold it: one block pass."""
    vs, ts = pairs.vision_indices, pairs.text_indices
    order = np.argsort(vs, kind="stable")
    sorted_vs = vs[order]
    scores = np.empty(len(pairs))
    for start, block in source.blocks():
        lo, hi = np.searchsorted(sorted_vs, (start, start + len(block)))
        idx = order[lo:hi]
        scores[idx] = block[vs[idx] - start, ts[idx]]
    return scores


def _outranked(scores, best, best_gallery, gallery, alive, axis, n_best) -> np.ndarray:
    """The ranking kernel.

    Queries lie across axis of scores and their gallery entries along it,
    at gallery indices gallery.  For each query, count the entries sorted
    before its best positive (score best, gallery index best_gallery, both
    broadcast against scores): a higher score, or an equal one at a lower
    index; alive, if given, masks the entries that count.  Each of the
    n_best best positives that scores holds is one equal entry, so when
    the flat count of equal entries is n_best there is no other tie and the
    index test is skipped.  Counts are byte sums into the narrowest
    unsigned type that holds the axis length.
    """
    width = np.min_scalar_type(scores.shape[axis])
    before = scores > best
    if alive is not None:
        before &= alive
    counts = before.view(np.uint8).sum(axis=axis, dtype=width)
    tied = np.equal(scores, best, out=before)
    if np.count_nonzero(tied) != n_best:
        tied &= gallery < best_gallery
        if alive is not None:
            tied &= alive
        counts += tied.view(np.uint8).sum(axis=axis, dtype=width)
    return counts


class _BestPositiveRanks:
    """Ranks of every query in one direction, counted one block at a time.

    A query's best positive is the one sorted first (highest score, then
    lowest gallery index), and its rank is 1 + the entries sorted before it.
    v2t queries are block rows and are ranked by the block that holds them;
    t2v queries are columns, counted down every block's rows.  With keep, a
    mask over the pairs, only the kept pairs are positives and only gallery
    instances some kept pair uses are counted; a query with no kept pair
    gets rank 1.  Each block entry costs one comparison, one byte count
    and one equality test; the gallery-index tie-break runs only on a block
    that holds a tie besides the best positives themselves.  _rankings
    builds every instance and feeds it every block.
    """

    def __init__(self, direction: str, shape, pairs: PairSet, pair_scores, keep=None):
        query, gallery = _sides(pairs, direction)
        if keep is not None:
            query, gallery, pair_scores = query[keep], gallery[keep], pair_scores[keep]
        n_query, n_gallery = shape[::-1] if direction == T2V else shape
        order = np.lexsort((gallery, -pair_scores, query))
        first = order[np.flatnonzero(np.diff(query[order], prepend=-1))]
        self.best = np.full(n_query, np.inf)
        self.best_gallery = np.zeros(n_query, dtype=np.int64)
        self.best[query[first]] = pair_scores[first]
        self.best_gallery[query[first]] = gallery[first]
        self.alive = None if keep is None else np.bincount(gallery, minlength=n_gallery) > 0
        # Vision rows of the best positives, sorted; add() bisects it per block
        self.best_rows = np.sort(query[first] if direction == V2T else gallery[first])
        self.direction = direction
        self.ranks = np.ones(n_query, dtype=np.int64)

    def add(self, start: int, block: np.ndarray) -> None:
        stop = start + len(block)
        lo, hi = np.searchsorted(self.best_rows, (start, stop))
        if self.direction == V2T:
            self.ranks[start:stop] += _outranked(
                block, self.best[start:stop, None], self.best_gallery[start:stop, None],
                np.arange(block.shape[1]), self.alive, 1, hi - lo,
            )
        else:
            alive = None if self.alive is None else self.alive[start:stop, None]
            self.ranks += _outranked(
                block, self.best, self.best_gallery,
                np.arange(start, stop)[:, None], alive, 0, hi - lo,
            )


def _scaled(values, row, col, at_row, at_col, out=None) -> np.ndarray:
    """(values * row[at_row]) * col[at_col] into out (a new array if None),
    leaving out a factor that is None: the re-ranking's one product order."""
    if row is not None:
        values = out = np.multiply(values, row[at_row], out=out)
    return values if col is None else np.multiply(values, col[at_col], out=out)


def _scaled_blocks(source, factors):
    """(start, i, block) for every block of source and every (row, col) in
    factors: those rows of m scaled as apply_rerank scales m, (m * row) *
    col.  It is the only code that scales a similarity block.

    Every factor but the last scales the unscaled block into one scratch
    block, allocated once and only if some factor needs it; the last scales
    a writable block in place, as nothing reads the block after it.  A
    read-only block is never written, and (None, None) yields the block
    itself.  A yielded block is valid until the next one is asked for.
    """
    scratch = None
    for start, block in source.blocks():
        at_rows = np.s_[start:start + len(block), None]
        for i, (row, col) in enumerate(factors):
            out = block
            if (row is not None or col is not None) and (i < len(factors) - 1 or not block.flags.writeable):
                if scratch is None:
                    scratch = np.empty((min(source.shape[0], _ROW_BLOCK), source.shape[1]))
                out = scratch[:len(block)]
            yield start, i, _scaled(block, row, col, at_rows, slice(None), out)


def _rankings(m, pairs: PairSet, groups) -> list[list[_BestPositiveRanks]]:
    """The rankings of every group, from a pair-score pass and one ranking
    pass over _scaled_blocks; the only code that ranks blocks.

    A group is (row, col, specs): the factors of one _scaled_blocks scaling
    of m and the (direction, keep) of each ranking of the scaled m.  Its
    rankings start from the pair scores scaled by _scaled the same way, so
    each best positive holds the bits of its scaled block entry.
    """
    source = _block_source(m)
    pairs.check_against(*source.shape)
    scores = _pair_scores(source, pairs)
    rankings = []
    for row, col, specs in groups:
        scaled = _scaled(scores, row, col, pairs.vision_indices, pairs.text_indices)
        rankings.append([_BestPositiveRanks(d, source.shape, pairs, scaled, keep) for d, keep in specs])
    for start, i, block in _scaled_blocks(source, [(row, col) for row, col, _ in groups]):
        for ranking in rankings[i]:
            ranking.add(start, block)
    return rankings


def retrieval_ranks(m, pairs: PairSet, direction: str) -> np.ndarray:
    """Rank of every query's best positive, in query-index order."""
    if direction not in DIRECTIONS:
        raise InvalidConfig(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    [[ranking]] = _rankings(m, pairs, [(None, None, [(direction, None)])])
    return ranking.ranks


def _report(ranks: np.ndarray, direction: str) -> RetrievalReport:
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


def evaluate_retrieval(m, pairs: PairSet, direction: str) -> RetrievalReport:
    """R@1/5/10, median and mean rank for one retrieval direction."""
    return _report(retrieval_ranks(m, pairs, direction), direction)


def retrieval_reports(m, pairs: PairSet) -> list[RetrievalReport]:
    """evaluate_retrieval in every direction of DIRECTIONS, from one pass
    over the blocks for the pair scores and one that ranks both."""
    [rankings] = _rankings(m, pairs, [(None, None, [(d, None) for d in DIRECTIONS])])
    return [_report(r.ranks, r.direction) for r in rankings]


def pearson(x, y) -> float:
    """Sample Pearson correlation, clamped to [-1, 1], for any finite
    observations.  A NaN, infinite or non-numeric one raises InvariantViolation."""
    a, b = (_pow2_scaled(_reals(v, "observations", InvariantViolation)) for v in (x, y))
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

    Every surviving pair is one query, scored by its query's best-ranked
    surviving positive over the gallery instances some surviving pair still
    uses, so with one pair per query this matches evaluate_retrieval
    exactly.  All counts of both directions are one group of _rankings,
    with the survivors as masks: a pair-score pass, then one ranking pass
    over unscaled blocks.
    """
    source, u_v, u_t = _similarities_and_uncertainties(m, u_v, u_t)
    if mode not in (UNCERTAINTY_MODE, RANDOM_MODE):
        raise InvalidConfig(f"unknown removal mode {mode!r}")
    if side not in (GALLERY_SIDE, QUERY_SIDE):
        raise InvalidConfig(f"unknown removal side {side!r}")
    _integer(seed, "seed", InvalidConfig, 0)
    counts = [_integer(c, "a removal count", InvalidConfig, 0, "removal counts must be nonnegative")
              for c in counts]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise InvalidConfig("removal counts must be strictly increasing")
    n_pairs = len(pairs)
    if counts and counts[-1] >= n_pairs:
        raise TooManyRemoved(
            f"cannot remove {counts[-1]} of {n_pairs} pairs and still have queries"
        )

    vs, ts = pairs.pairs.T

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

    keeps = {(d, r): survivors(d, r) for d in DIRECTIONS for r in counts}
    [ranked] = _rankings(source, pairs, [(None, None, [(d, keeps[d, r]) for d, r in keeps])])
    rankings = dict(zip(keeps, ranked))

    def r1(direction: str, r: int) -> float:
        query, _ = _sides(pairs, direction)
        ranks = rankings[direction, r].ranks[query[keeps[direction, r]]]
        return 100.0 * np.count_nonzero(ranks == 1) / ranks.size

    points = tuple(
        RemovalPoint(removed=r, r1_t2v=r1(T2V, r), r1_v2t=r1(V2T, r)) for r in counts
    )
    return RemovalCurve(mode=mode, side=side, points=points)


# ---- information measures ----


def _distribution(p, name: str) -> np.ndarray:
    """p as a float vector of finite, nonnegative entries that sum to 1."""
    arr = _reals(p, name, NotADistribution, nonnegative=True)
    if arr.size == 0:
        raise EmptyVector(f"{name} has no entries")
    with np.errstate(over="ignore"):  # a sum past float64 is inf, which is not 1
        total = float(arr.sum())
    if abs(total - 1.0) > _DIST_TOL:
        raise NotADistribution(f"{name} sums to {total}, not 1")
    return arr


def entropy(p) -> float:
    """Shannon entropy in nats, with 0 log 0 taken as 0.  A negative, NaN,
    infinite or non-numeric entry raises NotADistribution."""
    arr = _distribution(p, "p")
    nz = arr[arr > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def jsd(p, q) -> float:
    """Jensen-Shannon divergence in bits; symmetric and within [0, 1].  A
    negative, NaN, infinite or non-numeric entry raises NotADistribution."""
    a, b = _distribution(p, "p"), _distribution(q, "q")
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths differ: {a.shape[0]} vs {b.shape[0]}")
    total = a + b  # x / mid is taken as 2x / (a + b): a subnormal mid can round to 0

    def _kl_to_mid(x: np.ndarray) -> float:
        mask = x > 0.0
        return float(np.sum(x[mask] * np.log2(2.0 * x[mask] / total[mask])))

    return float(np.clip(0.5 * _kl_to_mid(a) + 0.5 * _kl_to_mid(b), 0.0, 1.0))


def softmax(logits) -> np.ndarray:
    """Stable softmax of a 1-D array of logits, for any finite ones.  A NaN,
    infinite or non-numeric logit raises InvariantViolation."""
    arr = _reals(logits, "logits", InvariantViolation)
    if arr.size == 0:
        raise EmptyVector("softmax of an empty vector is undefined")
    with np.errstate(over="ignore"):  # a logit more than 1.8e308 below the max has weight 0
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
    for name, value in (("batch", batch), ("group", group)):
        _integer(value, name, InvalidCounts, 1, f"batch and group must be >= 1, got {batch} and {group}")
    _integer(n_captions, "n_captions", InvalidCounts, batch * group,
             f"need n_captions >= batch * group, got {n_captions} < {batch * group}")
    if n_captions > sys.float_info.max:
        raise InvalidCounts("n_captions exceeds the float64 range")
    if batch > np.iinfo(np.intp).max:
        raise InvalidCounts("batch exceeds the array index range")
    i = np.arange(batch, dtype=np.float64)
    return float(np.sum(np.log(n_captions - group * i) - np.log(n_captions - i)))
