"""Frozen embedding sets, cosine similarity, and pair bookkeeping.

Embeddings enter the library once, get L2-normalized once, and are
immutable afterwards.  All cross-modal similarity is plain cosine, which
for unit rows is a dot product.  The instance-to-instance similarity
matrix M has vision on rows and text on columns everywhere.
"""

from __future__ import annotations

import math
import numbers
import operator
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


def _integer(value, name: str, error, low, message=None, high=math.inf) -> int:
    """value as an int in [low, high], else error: the one rule for counts, sizes,
    seeds and indices.  operator.index passes Python and NumPy integers and refuses
    floats, whole ones too; message replaces "NAME must be >= LOW" ("unsigned" at 0)."""
    try:
        index = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if not low <= index <= high:
        raise error(message or f"{name} must be {f'>= {low}' if low else 'unsigned'}, got {value}")
    return index


def _real(value, name: str, error, positive=False) -> float:
    """value as a float >= 0 (> 0 when positive), else error: the one rule for real
    parameters.  A numbers.Real passes (NumPy scalars too); anything else, NaN, +-inf
    and an int too large for a float are refused.  -0.0 comes back as +0.0."""
    try:
        number = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and (number > 0.0 if positive else number >= 0.0)):
        raise error(f"{name} must be a finite number {'>' if positive else '>='} 0, got {value!r}")
    return number + 0.0


def _reals(values, name: str, error, nonnegative=False) -> np.ndarray:
    """values flattened to a float64 vector, which may share their memory, of finite
    numbers (>= 0 when nonnegative), else error: the one rule for real vectors."""
    out = _as_float_matrix(values, error, ndim=None).ravel()
    if not np.isfinite(out).all() or nonnegative and (out < 0.0).any():
        raise error(f"{name} must be finite{' and nonnegative' if nonnegative else ''}")
    return out


def _pow2_scaled(x: np.ndarray) -> np.ndarray:
    """x times the power of two that brings its largest magnitude into [0.5, 1):
    exact, so no square of it overflows and a ratio of its dot products keeps its bits."""
    return np.ldexp(x, -np.frexp(np.abs(x).max(initial=0.0))[1])


def _freeze(obj, name: str, array: np.ndarray) -> None:
    """Set frozen dataclass obj's field name to array, C-contiguous and read-only."""
    array = np.ascontiguousarray(array)
    array.setflags(write=False)
    object.__setattr__(obj, name, array)


def _as_float_matrix(matrix, error=InvariantViolation, ndim=2, copy=False) -> np.ndarray:
    """matrix as a float64 array of ndim axes (any if None), new if copy: the one conversion
    of array arguments.  A str or bytes entry, numeric or not, and anything else NumPy cannot
    read as float64, such as ragged rows, is error."""
    try:
        raw = np.asarray(matrix)
        if raw.dtype.kind in "SUO" and any(isinstance(x, str | bytes) for x in raw.flat):
            raise TypeError("a string is not a number")
        out = (np.array if copy else np.asarray)(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"expected an array of numbers: {exc}") from None
    if ndim is not None and out.ndim != ndim:
        raise error(f"expected a {ndim}-D array, got ndim={out.ndim}")
    return out


# Rows per block of every O(n * d) row pass (the norms here, the float32
# rows fileio reads and writes) and of every similarity block the rankings
# read, so their temporaries are (block x d) and (block x n_text) arrays,
# not a second copy of a matrix.  The row passes give the same bits at any
# block size; the similarity blocks do not: OpenBLAS rounds a matmul's rows
# differently at other row counts, so another size can move a similarity
# by one ulp, and with it an exact tie and the ranks it sets.
_ROW_BLOCK = 256


def _row_blocks(matrix: np.ndarray):
    """(start, view of rows start, ...) per _ROW_BLOCK rows: the one walk over an array."""
    return ((start, matrix[start:start + _ROW_BLOCK]) for start in range(0, len(matrix), _ROW_BLOCK))


def _stacked(shape, blocks) -> np.ndarray:
    """The array whose rows a block source's (start, block) pairs hold: the one stacker."""
    values = np.empty(shape)
    for start, block in blocks:
        values[start:start + len(block)] = block
    return values


def _checked_rows(matrix, first_row=0) -> tuple[np.ndarray, np.ndarray]:
    """A nonempty (n, d >= 2) float matrix of finite rows, with its row norms;
    an error counts rows from first_row, the matrix's first row in its set.

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
        for start, rows in _row_blocks(out):
            np.add.reduce(rows * rows, axis=1, out=norms[start:start + len(rows)])
    np.sqrt(norms, out=norms)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise InvariantViolation(f"row {first_row + int(bad[0])} has a NaN, infinite or overflowing norm")
    return out, norms


def _unit_rows(raw: np.ndarray, first_row=0) -> np.ndarray:
    """raw, a float64 array its caller gives up, with each row checked once by _checked_rows,
    refused below a norm of _NORM_EPS and divided in place by its norm: the one normalizer."""
    raw, norms = _checked_rows(raw, first_row)
    zero = np.flatnonzero(norms < _NORM_EPS)
    if zero.size:
        raise ZeroVector(f"row {first_row + int(zero[0])} has near-zero norm and cannot be normalized")
    raw /= norms[:, None]
    return raw


@dataclass(frozen=True)
class EmbeddingSet:
    """An immutable (n, d) block of unit-norm row vectors for one modality."""

    modality: str
    vectors: np.ndarray

    def __post_init__(self, rows_checked=False) -> None:
        if self.modality not in MODALITIES:
            raise ModalityMismatch(f"unknown modality {self.modality!r}")
        if not rows_checked:
            vectors, norms = _checked_rows(self.vectors)
            if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
                worst = float(np.max(np.abs(norms - 1.0)))
                raise InvariantViolation(f"rows must be unit norm (worst deviation {worst:.3e}); "
                                         "build sets through normalize_rows")
            _freeze(self, "vectors", vectors)

    @classmethod
    def _normalized(cls, modality: str, raw: np.ndarray) -> EmbeddingSet:
        """The set of raw's rows through _unit_rows, which checks each row once.  It sets
        every field itself (a test pins them) and skips only __post_init__'s row check."""
        self = object.__new__(cls)
        _freeze(self, "vectors", _unit_rows(raw))
        object.__setattr__(self, "modality", modality)
        self.__post_init__(rows_checked=True)
        return self

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
        InvariantViolation: an entry is NaN, infinite or not a number, or a
            row norm overflows.
    """
    return EmbeddingSet._normalized(modality, _as_float_matrix(matrix, copy=True))


def cosine(u, v) -> float:
    """Cosine similarity of two vectors, clamped to [-1, 1], for any finite
    entries.  A NaN, infinite or non-numeric entry raises InvariantViolation."""
    a, b = (_pow2_scaled(_reals(x, "vector entries", InvariantViolation)) for x in (u, v))
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector lengths differ: {a.shape[0]} vs {b.shape[0]}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
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
        if not (values.max() <= 1.0 + 1e-9 and values.min() >= -1.0 - 1e-9):
            raise InvariantViolation("similarity entries must lie in [-1, 1]")
        _freeze(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def blocks(self):
        """The block source of values: _row_blocks' read-only views, never copies."""
        return _row_blocks(self.values)


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
        buffer = np.empty((min(self.shape[0], _ROW_BLOCK), self.shape[1]))
        for start, rows in _row_blocks(self._vis):
            block = np.matmul(rows, self._txt.T, out=buffer[:len(rows)])
            yield start, np.clip(block, -1.0, 1.0, out=block)


def _block_source(m):
    """m itself if it is a block source, else a SimilarityMatrix of a
    read-only view of m, so the caller's array stays writable."""
    if isinstance(m, (SimilarityMatrix, _SimilarityBlocks)):
        return m
    return SimilarityMatrix(values=_as_float_matrix(m).view())


def similarity_matrix(vis: EmbeddingSet, txt: EmbeddingSet) -> SimilarityMatrix:
    """Full cosine matrix between a vision set (rows) and a text set
    (columns), built from the blocks every ranking reads."""
    source = _SimilarityBlocks(vis, txt)
    return SimilarityMatrix(values=_stacked(source.shape, source.blocks()))


def _batch_means(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row of x's mean similarity to the rows of y: the row means of
    x @ y.T, as x . mean(y), clipped to [-1, 1] against rounding:
    O((n_x + n_y) d), no matrix.  It works over the last two axes, so a
    (2, n, d) stack of both modalities against its reverse gives both
    directions in one call.  The mean is add.reduce / n, the bits of
    mean(axis=0)."""
    mean = np.add.reduce(y, axis=-2) / y.shape[-2]
    h = np.matmul(x, mean[..., None])[..., 0]
    return h.clip(-1.0, 1.0, out=h)


def batch_means(vis: EmbeddingSet, txt: EmbeddingSet) -> tuple[np.ndarray, np.ndarray]:
    """(h_v, h_t): the row and column means of similarity_matrix(vis, txt),
    up to rounding, without forming it.  h_v[i] is vision instance i's mean
    similarity over all texts; h_t[j] text instance j's over all visions."""
    _check_cross_modal(vis, txt)
    return _batch_means(vis.vectors, txt.vectors), _batch_means(txt.vectors, vis.vectors)


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

    ``pairs`` is built from any array-like of (v, t) integer rows and stored
    once, as a read-only (n, 2) int64 array in the given order.  Bad rows are
    an InvariantViolation, negative or beyond-int64 indices IndexOutOfRange,
    and a repeated row DuplicatePair.  Index range and coverage depend on
    the embedding sets a PairSet is used with, so those checks happen in
    check_against at the point of use.
    """

    pairs: np.ndarray = ()

    def __post_init__(self) -> None:
        try:
            raw = np.asarray(self.pairs)
            for x in raw.flat if raw.size and raw.dtype.kind not in "iu" else ():
                _integer(x, "a pair index", InvariantViolation, -math.inf)
            rows = raw.astype(np.int64)
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
        _freeze(self, "pairs", rows)

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
