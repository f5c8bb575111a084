"""Frozen embedding sets, cosine similarity, and pair bookkeeping.

Embeddings enter the library once, get L2-normalized once, and are
immutable afterwards.  All cross-modal similarity is plain cosine, which
for unit rows is a dot product.  The instance-to-instance similarity
matrix M has vision on rows and text on columns everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    DuplicatePair,
    EmptyMatrix,
    IndexOutOfRange,
    InvariantViolation,
    MissingPositive,
    ModalityMismatch,
    ZeroVector,
)

VISION = "vision"
TEXT = "text"
MODALITIES = (VISION, TEXT)

_NORM_EPS = 1e-12
_UNIT_TOL = 1e-6


def _as_float_matrix(matrix) -> np.ndarray:
    out = np.asarray(matrix, dtype=np.float64)
    if out.ndim != 2:
        raise InvariantViolation(f"expected a 2-D array, got ndim={out.ndim}")
    return out


# Rows per block of the O(n * d) row passes (norms here, the float32
# conversion in fileio.write_embeddings), so their temporaries are
# (block x d) arrays, not a second copy of the matrix.
_ROW_BLOCK = 1024


def _checked_rows(matrix) -> tuple[np.ndarray, np.ndarray]:
    """A nonempty (n, d >= 2) float matrix of finite rows, with its row norms.

    A NaN or infinite entry makes its row's norm non-finite, so checking the
    n norms rejects every non-finite matrix without a pass over n * d (and a
    row whose norm overflows float64, which could not be normalized anyway).
    The norms are sqrt(add.reduce(x * x, axis=1)) per row block, the bits
    np.linalg.norm(x, axis=1) gives without its full-size temporaries.
    """
    out = _as_float_matrix(matrix)
    if out.shape[0] < 1:
        raise EmptyMatrix("matrix needs at least one row")
    if out.shape[1] < 2:
        raise DimensionTooSmall(f"row dimension must be >= 2, got {out.shape[1]}")
    norms = np.empty(out.shape[0])
    with np.errstate(over="ignore"):
        for start in range(0, out.shape[0], _ROW_BLOCK):
            rows = out[start:start + _ROW_BLOCK]
            np.add.reduce(rows * rows, axis=1, out=norms[start:start + _ROW_BLOCK])
    np.sqrt(norms, out=norms)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise InvariantViolation(f"row {int(bad[0])} has a NaN, infinite or overflowing norm")
    return out, norms


@dataclass(frozen=True)
class EmbeddingSet:
    """An immutable (n, d) block of unit-norm row vectors for one modality."""

    modality: str
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise ModalityMismatch(f"unknown modality {self.modality!r}")
        vectors, norms = _checked_rows(self.vectors)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise InvariantViolation(
                f"rows must be unit norm (worst deviation {worst:.3e}); "
                "build sets through normalize_rows"
            )
        vectors = np.ascontiguousarray(vectors)
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def normalize_rows(matrix, modality: str) -> EmbeddingSet:
    """L2-normalize each row of ``matrix`` into an EmbeddingSet.

    Allocates one float64 copy of ``matrix``, divided in place; the
    caller's array is left as it was.

    Args:
        matrix: (n, d) array-like of raw embeddings.
        modality: "vision" or "text".

    Raises:
        ZeroVector: a row has norm below 1e-12 and cannot be normalized.
        DimensionTooSmall: d < 2.
        InvariantViolation: an entry is NaN or infinite, or a row norm overflows.
    """
    return _normalized(np.array(matrix, dtype=np.float64), modality)


def _normalized(raw: np.ndarray, modality: str) -> EmbeddingSet:
    """normalize_rows of a float64 array the caller gives up: its rows are
    divided in place and it becomes the set's read-only vectors."""
    raw, norms = _checked_rows(raw)
    bad = np.flatnonzero(norms < _NORM_EPS)
    if bad.size:
        raise ZeroVector(f"row {int(bad[0])} has near-zero norm and cannot be normalized")
    raw /= norms[:, None]
    return EmbeddingSet(modality=modality, vectors=raw)


def cosine(u, v) -> float:
    """Cosine similarity of two vectors, clamped to [-1, 1]."""
    a = np.asarray(u, dtype=np.float64).ravel()
    b = np.asarray(v, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector lengths differ: {a.shape[0]} vs {b.shape[0]}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < _NORM_EPS or nb < _NORM_EPS:
        raise ZeroVector("cosine is undefined for a zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


# Vision rows per similarity block.  Rankings read the similarities one
# block at a time, so their temporaries are a few (block x n_text) arrays.
_RANK_BLOCK = 256


@dataclass(frozen=True)
class SimilarityMatrix:
    """Cosine similarities with vision instances on rows, text on columns."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _as_float_matrix(self.values)
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise EmptyMatrix("similarity matrix needs at least one row and column")
        if not (values.max() <= 1.0 + 1e-9 and values.min() >= -1.0 - 1e-9):
            raise InvariantViolation("similarity entries must lie in [-1, 1]")
        values = np.ascontiguousarray(values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def blocks(self):
        """(start, block) per _RANK_BLOCK rows, the block a read-only view of
        rows start, start + 1, ... of values: a block source, never a copy."""
        for start in range(0, self.rows, _RANK_BLOCK):
            yield start, self.values[start:start + _RANK_BLOCK]


def _check_cross_modal(vis: EmbeddingSet, txt: EmbeddingSet) -> None:
    if vis.modality != VISION or txt.modality != TEXT:
        raise ModalityMismatch(
            f"expected (vision, text), got ({vis.modality}, {txt.modality})"
        )
    if vis.d != txt.d:
        raise DimensionMismatch(f"dimension mismatch: {vis.d} vs {txt.d}")


class _SimilarityBlocks:
    """A vision and a text set's similarities as a block source, with no
    n_v x n_t matrix: blocks() yields (start, clip(X_v[rows] @ X_t.T, -1, 1))
    for rows start, start + 1, ..., each in the one writable buffer the next
    overwrites.  similarity_matrix stacks these same blocks, so a ranking
    streamed from embeddings sees the dense matrix's bits."""

    def __init__(self, vis: EmbeddingSet, txt: EmbeddingSet):
        _check_cross_modal(vis, txt)
        self._vis, self._txt = vis.vectors, txt.vectors
        self.shape = (vis.n, txt.n)

    def blocks(self):
        buffer = np.empty((min(self.shape[0], _RANK_BLOCK), self.shape[1]))
        for start in range(0, self.shape[0], _RANK_BLOCK):
            rows = self._vis[start:start + _RANK_BLOCK]
            block = np.matmul(rows, self._txt.T, out=buffer[:len(rows)])
            yield start, np.clip(block, -1.0, 1.0, out=block)


def _block_source(m):
    """m itself if it is a block source, else a SimilarityMatrix of a
    read-only view of m, so the caller's array stays writable."""
    if isinstance(m, (SimilarityMatrix, _SimilarityBlocks)):
        return m
    return SimilarityMatrix(values=np.asarray(m, dtype=np.float64).view())


def _stacked(shape, blocks) -> SimilarityMatrix:
    """The SimilarityMatrix whose rows the (start, block) pairs hold."""
    values = np.empty(shape)
    for start, block in blocks:
        values[start:start + len(block)] = block
    return SimilarityMatrix(values=values)


def similarity_matrix(vis: EmbeddingSet, txt: EmbeddingSet) -> SimilarityMatrix:
    """Full cosine matrix between a vision set (rows) and a text set
    (columns), built from the blocks every ranking reads."""
    source = _SimilarityBlocks(vis, txt)
    return _stacked(source.shape, source.blocks())


def _batch_means(xv: np.ndarray, xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column means of xv @ xt.T, as xv . mean(xt) and xt . mean(xv),
    clipped to [-1, 1] against rounding: O((n_v + n_t) d), no matrix."""
    h_v = xv @ xt.mean(axis=0)
    h_t = xt @ xv.mean(axis=0)
    return np.clip(h_v, -1.0, 1.0, out=h_v), np.clip(h_t, -1.0, 1.0, out=h_t)


def batch_means(vis: EmbeddingSet, txt: EmbeddingSet) -> tuple[np.ndarray, np.ndarray]:
    """(h_v, h_t): the row and column means of similarity_matrix(vis, txt),
    up to rounding, without forming it.  h_v[i] is vision instance i's mean
    similarity over all texts; h_t[j] text instance j's over all visions."""
    _check_cross_modal(vis, txt)
    return _batch_means(vis.vectors, txt.vectors)


def _grouped(keys: np.ndarray, partners: np.ndarray):
    """Sort pairs by (key, partner) once: (distinct keys, starts, counts,
    sorted partners), key i owning sorted[starts[i]:starts[i] + counts[i]]."""
    order = np.lexsort((partners, keys))
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    return sorted_keys[starts], starts, np.diff(np.r_[starts, keys.size]), partners[order]


@dataclass(frozen=True)
class PairSet:
    """Ground-truth (vision_index, text_index) links, many-to-many allowed.

    ``pairs`` is built from any array-like of (v, t) rows and stored once,
    as a read-only (n, 2) int64 array in the given order.  Bad rows are an
    InvariantViolation, negative or beyond-int64 indices IndexOutOfRange,
    and a repeated row DuplicatePair.  Index range and coverage depend on
    the embedding sets a PairSet is used with, so those checks happen in
    check_against at the point of use.
    """

    pairs: np.ndarray = ()

    def __post_init__(self) -> None:
        try:
            rows = np.array(self.pairs, dtype=np.int64)
        except OverflowError:
            raise IndexOutOfRange("a pair index does not fit in int64") from None
        except (TypeError, ValueError) as exc:
            raise InvariantViolation(f"pairs must be (v, t) integer rows: {exc}") from None
        if rows.size and rows.shape[1:] != (2,):
            raise InvariantViolation(f"pairs must have shape (n, 2), got {rows.shape}")
        rows = rows.reshape(-1, 2)
        if rows.size and rows.min() < 0:
            v, t = rows[rows.min(axis=1).argmin()].tolist()
            raise IndexOutOfRange(f"pair ({v}, {t}) has a negative index")
        ordered = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        repeated = np.flatnonzero((ordered[1:] == ordered[:-1]).all(axis=1))
        if repeated.size:
            v, t = ordered[repeated[0]].tolist()
            raise DuplicatePair(f"pair ({v}, {t}) appears more than once")
        rows.setflags(write=False)
        object.__setattr__(self, "pairs", rows)

    def __len__(self) -> int:
        return self.pairs.shape[0]

    @property
    def vision_indices(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def text_indices(self) -> np.ndarray:
        return self.pairs[:, 1]

    def check_against(self, n_vision: int, n_text: int) -> None:
        """Validate ranges and coverage against concrete set sizes.

        Raises:
            IndexOutOfRange: a pair points past either set.
            MissingPositive: some instance has no pair at all.
        """
        if len(self) == 0:
            raise MissingPositive("pair set is empty")
        vs, ts = self.pairs.T
        if vs.max() >= n_vision or ts.max() >= n_text:
            raise IndexOutOfRange(
                f"pair indices exceed set sizes ({n_vision} vision, {n_text} text)"
            )
        if not np.bincount(vs, minlength=n_vision).all():
            raise MissingPositive("some vision instance has no paired text")
        if not np.bincount(ts, minlength=n_text).all():
            raise MissingPositive("some text instance has no paired vision")

    def texts_of(self) -> dict[int, np.ndarray]:
        """Map each vision index to its sorted array of paired text indices."""
        visions, starts, _, texts = _grouped(self.vision_indices, self.text_indices)
        return dict(zip(visions.tolist(), np.split(texts, starts[1:])))

    def visions_of(self) -> dict[int, np.ndarray]:
        """Map each text index to its sorted array of paired vision indices."""
        texts, starts, _, visions = _grouped(self.text_indices, self.vision_indices)
        return dict(zip(texts.tolist(), np.split(visions, starts[1:])))
