"""Binary and text interchange formats.

Everything here is endianness-pinned (little-endian), so a file reads the
same on every platform.  Checkpoints and pair files round-trip byte for
byte.  An embedding file is re-normalized on read, so writing what was
read can move a stored float32 by one ulp: a write -> read -> write cycle
is not byte-stable in general.  Every artifact, the binary files here and
the CLI's CSVs alike, is written through _atomic_write: a temp file in the
target directory followed by an atomic rename, so a crash or a failing
writer never leaves a half-written artifact at the destination path.
The float32 rows of embedding files and prototype banks have one encoder,
_write_rows, and one decoder, _Cursor.rows, whatever the source: _source
gives both readers a cursor over a regular file or a spooled pipe.  Text
inputs are UTF-8, and a leading byte-order mark is skipped.

Embedding files:   magic "PAUE" | version u16 | modality u8 | n u64 |
                   d u32 | n*d float32 row-major.
Checkpoint files:  magic "PAUP" | version u16 | vision bank (k u32, d u32,
                   k*d float32) | text bank (same) | evidence kind u8 +
                   gamma/theta/tau f64 | beta1/beta2 f64 | metadata block
                   (u32 byte length, UTF-8 "key=value" lines, sorted).
Pair files:        text, one "v_index<TAB>t_index" per line, 0-based.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .embed import _ROW_BLOCK, TEXT, VISION, EmbeddingSet, PairSet, _normalized
from .errors import (
    BadMagic,
    DimensionMismatch,
    IndexOutOfRange,
    InvariantViolation,
    ParseError,
    TruncatedFile,
    UnsupportedVersion,
)
from .evidence import EVIDENCE_KINDS, EvidenceConfig, PrototypeBank, RerankParams

EMBEDDINGS_MAGIC = b"PAUE"
CHECKPOINT_MAGIC = b"PAUP"
FORMAT_VERSION = 1

_MODALITY_CODES = {VISION: 0, TEXT: 1}
_MODALITY_NAMES = {code: name for name, code in _MODALITY_CODES.items()}
_KIND_CODES = {kind: i for i, kind in enumerate(EVIDENCE_KINDS)}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}

_MAGIC_VERSION = struct.Struct("<4sH")
_EMBED_HEADER = struct.Struct("<BQI")
_BANK_HEADER = struct.Struct("<II")
_EVIDENCE_BLOCK = struct.Struct("<Bddd")
_RERANK_BLOCK = struct.Struct("<dd")
_META_LEN = struct.Struct("<I")

_PIPE_CHUNK = 1 << 20
_PAIR_CHUNK = 1 << 16


@contextlib.contextmanager
def _atomic_write(path, mode="wb", **open_kwargs):
    """Yield ``<path>.tmp.<pid>`` opened for writing; rename it onto ``path``
    when the block succeeds and remove it when anything fails."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


class _Cursor:
    """Sequential reader over a binary source of known size: an open regular
    file, or bytes spooled from a pipe.  Every read is checked against that
    size before anything is read or allocated, so a source that is too
    short raises the same TruncatedFile whatever it is."""

    def __init__(self, source, size: int, path, pos: int = 0):
        self.source = source
        self.size = size
        self.path = path
        self.pos = pos

    def _advance(self, count: int) -> None:
        if self.pos + count > self.size:
            raise TruncatedFile(
                f"{self.path}: needed {count} bytes at offset {self.pos}, "
                f"file has {self.size}"
            )
        self.pos += count

    def take(self, count: int) -> bytes:
        self._advance(count)
        return self.source.read(count)

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def rows(self, n: int, d: int) -> np.ndarray:
        """The one decoder of float32 rows: n x d of them as a new float64
        array, read _ROW_BLOCK rows at a time through one float32 buffer, so
        the array is the only allocation that grows with n.  A signaling NaN
        becomes a quiet NaN without a RuntimeWarning, for the row checks to
        reject."""
        self._advance(4 * n * d)
        matrix = np.empty((n, d))
        buffer = np.empty((min(n, _ROW_BLOCK), d), dtype="<f4")
        with np.errstate(invalid="ignore"):
            # Rows of width 0 hold no bytes, however many the header declares.
            for start in range(0, n if d else 0, _ROW_BLOCK):
                block = buffer[:n - start]
                self.source.readinto(block)
                matrix[start:start + _ROW_BLOCK] = block
        return matrix

    def done(self) -> None:
        if self.pos != self.size:
            raise InvariantViolation(f"{self.path}: trailing bytes after the declared payload")


def _source(fh, path, count, pos: int = 0) -> _Cursor:
    """A cursor at offset pos of an open file.  A regular file is read in
    place, sized by fstat.  A pipe has no size, so its next count bytes, or
    as many as it holds, are spooled first, in chunks of at most
    _PIPE_CHUNK bytes: memory follows what the pipe holds, not what was
    asked.  A reader takes its header through one cursor, checks the magic,
    and only then takes another for the rest."""
    status = os.fstat(fh.fileno())
    if stat.S_ISREG(status.st_mode):
        return _Cursor(fh, status.st_size, path, pos)
    chunks = []
    while count > 0:
        chunk = fh.read(min(count, _PIPE_CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        count -= len(chunk)
    blob = b"".join(chunks)
    return _Cursor(io.BytesIO(blob), pos + len(blob), path, pos)


def _row_blocks(matrix: np.ndarray):
    """matrix's rows, _ROW_BLOCK of them at a time, as views."""
    return (matrix[start:start + _ROW_BLOCK] for start in range(0, matrix.shape[0], _ROW_BLOCK))


def _write_rows(fh, blocks) -> None:
    """The one encoder of float32 rows: each block of rows, as it comes,
    as little-endian float32."""
    for block in blocks:
        fh.write(block.astype("<f4"))


def _read_text(path) -> str:
    """A UTF-8 text file with "\r\n" and "\r" read as "\n" and a leading
    byte-order mark dropped; bytes that do not decode are a ParseError."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _text_lines(path):
    """Lines of a UTF-8 text file, each ending in "\n" but perhaps the last."""
    return io.StringIO(_read_text(path))


def _check_magic_version(cur: _Cursor, expected_magic: bytes) -> None:
    magic, version = cur.unpack(_MAGIC_VERSION)
    if magic != expected_magic:
        raise BadMagic(f"{cur.path}: expected {expected_magic!r}, found {magic!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"{cur.path}: format version {version}")


# ---- embeddings ----


def _write_embedding_rows(fh, modality: str, n: int, d: int, blocks) -> None:
    """A "PAUE" file into an open fh: the header of n rows of width d, then
    the rows of blocks, which must hold that many, as float32."""
    fh.write(
        _MAGIC_VERSION.pack(EMBEDDINGS_MAGIC, FORMAT_VERSION)
        + _EMBED_HEADER.pack(_MODALITY_CODES[modality], n, d)
    )
    _write_rows(fh, blocks)


def write_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write a "PAUE" file: the header, then the rows as float32."""
    with _atomic_write(path) as fh:
        _write_embedding_rows(
            fh, embeddings.modality, embeddings.n, embeddings.d, _row_blocks(embeddings.vectors)
        )


def read_embeddings(path) -> EmbeddingSet:
    """Load a "PAUE" file; rows are re-normalized on the way in.

    Stored vectors are float32, so unit norms hold only to float32
    precision; re-normalizing restores the EmbeddingSet invariant and
    surfaces genuinely zero rows as ZeroVector.  A regular file is read in
    place.  A pipe has no size, so its payload, and one byte more to find
    trailing bytes, is spooled first as it arrives.  Either way the payload
    the header declares is checked against what the source holds before
    anything is allocated, and then decoded one row block at a time into
    the float64 array that is normalized in place into the returned set.
    """
    with open(path, "rb") as fh:
        cur = _source(fh, path, _MAGIC_VERSION.size + _EMBED_HEADER.size)
        _check_magic_version(cur, EMBEDDINGS_MAGIC)
        modality_code, n, d = cur.unpack(_EMBED_HEADER)
        if modality_code not in _MODALITY_NAMES:
            raise InvariantViolation(f"{path}: unknown modality byte {modality_code}")
        cur = _source(fh, path, 4 * n * d + 1, cur.pos)
        matrix = cur.rows(n, d)
        cur.done()
    return _normalized(matrix, _MODALITY_NAMES[modality_code])


def read_embeddings_csv(path, modality: str) -> EmbeddingSet:
    """CSV ingress: one vector per line, comma-separated, optional header.

    The first line is treated as a header iff any of its fields does not
    parse as a decimal.  Rows are re-normalized like the binary reader.
    """
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(_text_lines(path), start=1):
        text = line.strip()
        if not text:
            continue
        fields = text.split(",")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            if lineno == 1:
                continue
            raise ParseError(f"{path}:{lineno}: non-numeric field")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(
                f"{path}:{lineno}: expected {width} fields, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no vector rows")
    return _normalized(np.array(rows, dtype=np.float64), modality)


# ---- pairs ----


def write_pairs(pairs: PairSet, path) -> None:
    body = ("%d\t%d\n" * len(pairs)) % tuple(pairs.pairs.ravel().tolist())
    with _atomic_write(path) as fh:
        fh.write(body.encode("utf-8"))


def _pair_values(text: str) -> np.ndarray:
    """The integers of a pair file's text, in order, as one int64 array;
    ValueError or OverflowError if a nonblank line is not two int64
    integers separated by one tab.  The text is parsed in chunks of whole
    lines, each the lines that end past another _PAIR_CHUNK characters, so
    at most one chunk's fields are held as strings: a chunk is split once
    and parsed in one call."""
    chunks = []
    start = 0
    while True:
        end = text.find("\n", start + _PAIR_CHUNK) + 1 or len(text)
        body = "\n".join(filter(None, text[start:end].split("\n")))
        # Well formed means the separators alternate tab, newline, ..., tab:
        # exactly one tab on every nonblank line.
        raw = np.frombuffer(body.encode("utf-8"), dtype=np.uint8)
        separators = raw[(raw == ord("\t")) | (raw == ord("\n"))]
        well_formed = (
            separators.size % 2 == 1
            and (separators[0::2] == ord("\t")).all()
            and (separators[1::2] == ord("\n")).all()
        )
        if body and not well_formed:
            raise ValueError
        fields = body.replace("\t", "\n").split("\n") if body else []
        chunks.append(np.array(fields, dtype=np.int64))
        start = end
        if start == len(text):
            return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def read_pairs(path) -> PairSet:
    """One "v<TAB>t" pair of integers per line; blank lines are skipped.

    The text is parsed by _pair_values.  Only when that fails is it read
    line by line, to name the first line that is not two tab-separated
    integers in a ParseError; if every line is, an index overflowed int64.
    """
    text = _read_text(path)
    try:
        values = _pair_values(text)
    except (ValueError, OverflowError):
        for lineno, line in enumerate(text.split("\n"), start=1):
            try:
                if line:
                    v, t = line.split("\t")
                    int(v), int(t)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: expected 'v<TAB>t' integers, got {line!r}"
                ) from None
        raise IndexOutOfRange("a pair index does not fit in int64") from None
    return PairSet(pairs=values.reshape(-1, 2))


# ---- checkpoints ----


@dataclass(frozen=True)
class Checkpoint:
    """A trained model: both banks, evidence config, rerank penalties,
    and a free-form metadata block (seed, epochs, corpus digest, ...)."""

    bank_v: PrototypeBank
    bank_t: PrototypeBank
    evidence: EvidenceConfig = field(default_factory=EvidenceConfig)
    rerank: RerankParams = field(default_factory=RerankParams)
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.bank_v.modality != VISION or self.bank_t.modality != TEXT:
            raise InvariantViolation(
                f"banks must be (vision, text), got "
                f"({self.bank_v.modality}, {self.bank_t.modality})"
            )
        if self.bank_v.d != self.bank_t.d:
            raise DimensionMismatch(
                f"banks disagree on dimension: {self.bank_v.d} vs {self.bank_t.d}"
            )
        for key, value in self.train_meta.items():
            # read_checkpoint splits the block with str.splitlines(), so no
            # key or value may hold any of the line breaks it splits on.
            line = f"{key}={value}"
            if "=" in key or line.splitlines() != [line]:
                raise InvariantViolation(f"metadata key {key!r} is not encodable")


def _unpack_bank(cur: _Cursor, modality: str) -> PrototypeBank:
    k, d = cur.unpack(_BANK_HEADER)
    return PrototypeBank(modality=modality, vectors=cur.rows(k, d))


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    meta_text = "".join(f"{k}={ckpt.train_meta[k]}\n" for k in sorted(ckpt.train_meta))
    meta_bytes = meta_text.encode("utf-8")
    ev = ckpt.evidence
    with _atomic_write(path) as fh:
        fh.write(_MAGIC_VERSION.pack(CHECKPOINT_MAGIC, FORMAT_VERSION))
        for bank in (ckpt.bank_v, ckpt.bank_t):
            fh.write(_BANK_HEADER.pack(bank.k, bank.d))
            _write_rows(fh, _row_blocks(bank.vectors))
        fh.write(
            _EVIDENCE_BLOCK.pack(_KIND_CODES[ev.kind], ev.gamma, ev.theta, ev.tau)
            + _RERANK_BLOCK.pack(ckpt.rerank.beta1, ckpt.rerank.beta2)
            + _META_LEN.pack(len(meta_bytes))
            + meta_bytes
        )


def read_checkpoint(path) -> Checkpoint:
    """Load a "PAUP" file, read like read_embeddings: a wrong file fails
    after its first 6 bytes, and a pipe is spooled to its end only after
    the magic check."""
    with open(path, "rb") as fh:
        cur = _source(fh, path, _MAGIC_VERSION.size)
        _check_magic_version(cur, CHECKPOINT_MAGIC)
        cur = _source(fh, path, math.inf, cur.pos)
        bank_v = _unpack_bank(cur, VISION)
        bank_t = _unpack_bank(cur, TEXT)
        kind_code, gamma, theta, tau = cur.unpack(_EVIDENCE_BLOCK)
        if kind_code not in _KIND_NAMES:
            raise InvariantViolation(f"{path}: unknown evidence kind byte {kind_code}")
        beta1, beta2 = cur.unpack(_RERANK_BLOCK)
        (meta_len,) = cur.unpack(_META_LEN)
        meta_bytes = cur.take(meta_len)
        cur.done()
    try:
        meta_text = str(meta_bytes, "utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: metadata is not UTF-8 text ({exc.reason})") from None
    meta: dict = {}
    for lineno, line in enumerate(meta_text.splitlines(), start=1):
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}: metadata line {lineno} has no '='")
        key, value = line.split("=", 1)
        meta[key] = value
    return Checkpoint(
        bank_v=bank_v,
        bank_t=bank_t,
        evidence=EvidenceConfig(kind=_KIND_NAMES[kind_code], gamma=gamma, theta=theta, tau=tau),
        rerank=RerankParams(beta1=beta1, beta2=beta2),
        train_meta=meta,
    )
