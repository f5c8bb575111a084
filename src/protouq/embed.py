"""Frozen embedding sets, cosine similarity, and pair bookkeeping.

Embeddings enter the library once, get L2-normalized once, and are
immutable afterwards.  All cross-modal similarity is plain cosine, which
for unit rows is a dot product.  The instance-to-instance similarity
matrix M has vision on rows and text on columns everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    DuplicatePair,
    EmptyMatrix,
    IndexOutOfRange,
    InvariantViolation,
    LengthMismatch,
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


def _checked_rows(matrix) -> tuple[np.ndarray, np.ndarray]:
    """A nonempty (n, d >= 2) float matrix of finite rows, with its row norms.

    A NaN or infinite entry makes its row's norm non-finite, so checking the
    n norms rejects every non-finite matrix without a pass over n * d (and a
    row whose norm overflows float64, which could not be normalized anyway).
    """
    out = _as_float_matrix(matrix)
    if out.shape[0] < 1:
        raise EmptyMatrix("embedding matrix needs at least one row")
    if out.shape[1] < 2:
        raise DimensionTooSmall(f"embedding dimension must be >= 2, got {out.shape[1]}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(out, axis=1)
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

    Args:
        matrix: (n, d) array-like of raw embeddings.
        modality: "vision" or "text".

    Raises:
        ZeroVector: a row has norm below 1e-12 and cannot be normalized.
        DimensionTooSmall: d < 2.
        InvariantViolation: an entry is NaN or infinite, or a row norm overflows.
    """
    raw, norms = _checked_rows(matrix)
    bad = np.flatnonzero(norms < _NORM_EPS)
    if bad.size:
        raise ZeroVector(f"row {int(bad[0])} has near-zero norm and cannot be normalized")
    return EmbeddingSet(modality=modality, vectors=raw / norms[:, None])


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


@dataclass(frozen=True)
class SimilarityMatrix:
    """Cosine similarities with vision instances on rows, text on columns."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _as_float_matrix(self.values)
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise EmptyMatrix("similarity matrix needs at least one row and column")
        if np.any(np.abs(values) > 1.0 + 1e-9):
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


def similarity_matrix(vis: EmbeddingSet, txt: EmbeddingSet) -> SimilarityMatrix:
    """Full cosine matrix between a vision set (rows) and a text set (columns)."""
    if vis.modality != VISION or txt.modality != TEXT:
        raise ModalityMismatch(
            f"expected (vision, text), got ({vis.modality}, {txt.modality})"
        )
    if vis.d != txt.d:
        raise DimensionMismatch(f"dimension mismatch: {vis.d} vs {txt.d}")
    values = vis.vectors @ txt.vectors.T
    np.clip(values, -1.0, 1.0, out=values)
    return SimilarityMatrix(values=values)


def batch_means(m: SimilarityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-row and per-column means of a similarity matrix.

    Returns:
        (h_v, h_t): h_v[i] is the mean similarity of vision instance i over
        all columns; h_t[j] the mean of text instance j over all rows.
    """
    values = m.values
    if values.size == 0:
        raise EmptyMatrix("means of an empty matrix are undefined")
    return values.mean(axis=1), values.mean(axis=0)


@dataclass(frozen=True)
class PairSet:
    """Ground-truth (vision_index, text_index) links, many-to-many allowed.

    Index range and coverage depend on the embedding sets a PairSet is used
    with, so those checks happen in check_against at the point of use.
    """

    pairs: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        cleaned = []
        seen = set()
        for entry in self.pairs:
            v, t = int(entry[0]), int(entry[1])
            if v < 0 or t < 0:
                raise IndexOutOfRange(f"pair ({v}, {t}) has a negative index")
            if (v, t) in seen:
                raise DuplicatePair(f"pair ({v}, {t}) appears more than once")
            seen.add((v, t))
            cleaned.append((v, t))
        object.__setattr__(self, "pairs", tuple(cleaned))

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def vision_indices(self) -> np.ndarray:
        return np.array([v for v, _ in self.pairs], dtype=np.int64)

    @property
    def text_indices(self) -> np.ndarray:
        return np.array([t for _, t in self.pairs], dtype=np.int64)

    def check_against(self, n_vision: int, n_text: int) -> None:
        """Validate ranges and coverage against concrete set sizes.

        Raises:
            IndexOutOfRange: a pair points past either set.
            MissingPositive: some instance has no pair at all.
        """
        if len(self.pairs) == 0:
            raise MissingPositive("pair set is empty")
        vs = self.vision_indices
        ts = self.text_indices
        if vs.max() >= n_vision or ts.max() >= n_text:
            raise IndexOutOfRange(
                f"pair indices exceed set sizes ({n_vision} vision, {n_text} text)"
            )
        if np.unique(vs).size != n_vision:
            raise MissingPositive("some vision instance has no paired text")
        if np.unique(ts).size != n_text:
            raise MissingPositive("some text instance has no paired vision")

    def texts_of(self) -> dict[int, np.ndarray]:
        """Map each vision index to its sorted array of paired text indices."""
        out: dict[int, list[int]] = {}
        for v, t in self.pairs:
            out.setdefault(v, []).append(t)
        return {v: np.array(sorted(ts), dtype=np.int64) for v, ts in out.items()}

    def visions_of(self) -> dict[int, np.ndarray]:
        """Map each text index to its sorted array of paired vision indices."""
        out: dict[int, list[int]] = {}
        for v, t in self.pairs:
            out.setdefault(t, []).append(v)
        return {t: np.array(sorted(vs), dtype=np.int64) for t, vs in out.items()}


def aligned_batch(vis: EmbeddingSet, txt: EmbeddingSet) -> None:
    """Validate that two sets form an aligned batch (row i pairs with row i)."""
    if vis.n != txt.n:
        raise LengthMismatch(f"aligned batch sizes differ: {vis.n} vs {txt.n}")
    if vis.d != txt.d:
        raise DimensionMismatch(f"dimension mismatch: {vis.d} vs {txt.d}")
