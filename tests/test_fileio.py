"""Wire formats: round-trips, byte stability, and typed corruption errors."""

import os
import struct
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protouq import (
    Checkpoint,
    EmbeddingSet,
    EvidenceConfig,
    PairSet,
    PrototypeBank,
    RerankParams,
    normalize_rows,
    read_checkpoint,
    read_embeddings,
    read_embeddings_csv,
    read_pairs,
    write_checkpoint,
    write_embeddings,
    write_pairs,
)
from protouq import fileio
from protouq.embed import _ROW_BLOCK
from protouq.errors import (
    BadMagic,
    DimensionMismatch,
    DimensionTooSmall,
    DuplicatePair,
    IndexOutOfRange,
    InvariantViolation,
    ModalityMismatch,
    ParseError,
    TruncatedFile,
    UnsupportedVersion,
    ZeroVector,
)

# "PAUE" embeddings layout: 4s magic, u16 version, u8 modality, u64 n, u32 d
_EMBED_HEADER_SIZE = 19


def unit_set(seed, n, d, modality="vision"):
    rng = np.random.default_rng(seed)
    return normalize_rows(rng.standard_normal((n, d)), modality)


def write_chunks(fd, blob, size):
    """Write blob to fd in chunks of size bytes, then close fd; a reader
    that closes its end early ends the writing."""
    try:
        for start in range(0, len(blob), size):
            os.write(fd, blob[start:start + size])
    except BrokenPipeError:
        pass
    finally:
        os.close(fd)


def patched(path, offset, raw: bytes):
    blob = bytearray(path.read_bytes())
    blob[offset:offset + len(raw)] = raw
    path.write_bytes(bytes(blob))


class TestEmbeddingsIO:
    def test_round_trip_is_f32_renormalization(self, tmp_path):
        es = unit_set(5, 7, 12, "text")
        path = tmp_path / "e.paue"
        write_embeddings(es, path)
        got = read_embeddings(path)
        expect = normalize_rows(
            es.vectors.astype(np.float32).astype(np.float64), "text"
        )
        assert got.modality == "text"
        assert np.array_equal(got.vectors, expect.vectors)

    def test_rewrite_is_byte_identical(self, tmp_path):
        es = unit_set(5, 7, 12)
        a, b = tmp_path / "a.paue", tmp_path / "b.paue"
        write_embeddings(es, a)
        write_embeddings(read_embeddings(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_one_cycle_reaches_a_fixed_point(self, tmp_path):
        # On this set the first rewrite flips a low float32 bit and the
        # second is stable.  That is this set's property, not the format's:
        # other sets still move at the second rewrite (see the ulp sweep).
        es = unit_set(8, 25, 5)
        a, b, c = (tmp_path / name for name in ("a.paue", "b.paue", "c.paue"))
        write_embeddings(es, a)
        write_embeddings(read_embeddings(a), b)
        write_embeddings(read_embeddings(b), c)
        assert b.read_bytes() == c.read_bytes()

    def test_each_rewrite_moves_a_value_by_at_most_one_ulp(self, tmp_path):
        # Re-normalizing float32-rounded unit rows divides each value by a
        # norm within about 2**-24 of 1, so rounding back to float32 lands
        # on the stored value or a neighbour of the same sign.
        rng = np.random.default_rng(90)
        moved = 0
        for seed in range(40):
            n, d = int(rng.integers(1, 300)), int(rng.choice([2, 3, 16, 64, 512]))
            paths = [tmp_path / f"{seed}-{i}.paue" for i in range(3)]
            write_embeddings(unit_set(seed, n, d), paths[0])
            for src, dst in zip(paths, paths[1:]):
                write_embeddings(read_embeddings(src), dst)
            stored = [np.frombuffer(p.read_bytes()[_EMBED_HEADER_SIZE:], dtype="<f4") for p in paths]
            for old, new in zip(stored, stored[1:]):
                assert np.array_equal(np.signbit(old), np.signbit(new))
                steps = np.abs(old.view("<i4").astype(np.int64) - new.view("<i4"))
                assert steps.max() <= 1
                moved += steps.max() == 1
        # the sweep does reach rewrites that are not byte-stable
        assert moved > 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(1, 3, 4), path)
        patched(path, 0, b"NOPE")
        with pytest.raises(BadMagic):
            read_embeddings(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(1, 3, 4), path)
        patched(path, 4, struct.pack("<H", 2))
        with pytest.raises(UnsupportedVersion):
            read_embeddings(path)

    def test_unknown_modality_byte(self, tmp_path):
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(1, 3, 4), path)
        patched(path, 6, b"\x02")
        with pytest.raises(InvariantViolation):
            read_embeddings(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(1, 3, 4), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TruncatedFile):
            read_embeddings(path)

    def test_huge_declared_count_is_truncation_not_allocation(self, tmp_path):
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(1, 3, 4), path)
        patched(path, 7, struct.pack("<Q", 2**40))
        with pytest.raises(TruncatedFile):
            read_embeddings(path)

    def test_huge_count_of_zero_width_rows_is_rejected_at_once(self, tmp_path):
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(1, 3, 4), path)
        path.write_bytes(path.read_bytes()[:_EMBED_HEADER_SIZE])
        patched(path, 7, struct.pack("<QI", 2**40, 0))
        with pytest.raises(DimensionTooSmall):
            read_embeddings(path)
        # Past 2**60 rows NumPy cannot build even an (n, 0) float64 array.
        patched(path, 7, struct.pack("<QI", 2**64 - 1, 0))
        with pytest.raises(InvariantViolation, match="rows exceed NumPy's largest array"):
            read_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(1, 3, 4), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(InvariantViolation):
            read_embeddings(path)

    @pytest.mark.parametrize("cut, shape, error", [
        (0, None, None),
        (-3, None, TruncatedFile),
        (2, None, InvariantViolation),
        # Declared sizes far past what the pipe holds read only what arrives.
        (0, (2**40, 4), TruncatedFile),
        (0, (1, 2**32 - 1), TruncatedFile),
        (0, (2**40, 0), InvariantViolation),
    ])
    def test_read_from_a_pipe(self, tmp_path, cut, shape, error):
        # A pipe has no size to check up front; its reads find a short or long payload.
        es = unit_set(1, 3, 4)
        write_embeddings(es, tmp_path / "e.paue")
        blob = (tmp_path / "e.paue").read_bytes()
        blob = blob[:cut] if cut < 0 else blob + b"x" * cut
        if shape is not None:
            blob = blob[:7] + struct.pack("<QI", *shape) + blob[_EMBED_HEADER_SIZE:]
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, blob)
            os.close(write_end)
            if error is None:
                assert read_embeddings(f"/dev/fd/{read_end}").vectors.tobytes() == \
                    read_embeddings(tmp_path / "e.paue").vectors.tobytes()
            else:
                with pytest.raises(error):
                    read_embeddings(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("cut, shape, want", [
        (0, None, "needed 6 bytes at offset 0, file has 0"),
        (10, None, "needed 13 bytes at offset 6, file has 10"),
        (_EMBED_HEADER_SIZE + 5, None, "needed 48 bytes at offset 19, file has 24"),
        (-3, None, "needed 48 bytes at offset 19, file has 64"),
        (None, (2**40, 4), "needed 17592186044416 bytes at offset 19, file has 67"),
    ], ids=["empty", "in-header", "mid-row", "last-row", "huge-count"])
    def test_a_cut_file_and_pipe_raise_the_same_truncation(self, tmp_path, cut, shape, want):
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(1, 3, 4), path)
        blob = path.read_bytes()[:cut]
        if shape is not None:
            blob = blob[:7] + struct.pack("<QI", *shape) + blob[_EMBED_HEADER_SIZE:]
        path.write_bytes(blob)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, blob)
            os.close(write_end)
            for source in (path, f"/dev/fd/{read_end}"):
                with pytest.raises(TruncatedFile) as exc:
                    read_embeddings(source)
                assert str(exc.value) == f"{source}: {want}"
        finally:
            os.close(read_end)

    def test_empty_file_is_truncated(self, tmp_path):
        path = tmp_path / "e.paue"
        path.write_bytes(b"")
        with pytest.raises(TruncatedFile):
            read_embeddings(path)

    def test_nan_entry_rejected(self, tmp_path):
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(1, 3, 4), path)
        patched(path, _EMBED_HEADER_SIZE + 4 * 5, struct.pack("<f", float("nan")))
        with pytest.raises(InvariantViolation, match="row 1"):
            read_embeddings(path)

    # Several whole blocks, then a last block one row short of full, full, or of one row.
    @pytest.mark.parametrize("n", [4 * _ROW_BLOCK - 1, 4 * _ROW_BLOCK, 4 * _ROW_BLOCK + 1, 8 * _ROW_BLOCK + 1])
    def test_round_trip_is_byte_identical_at_block_edges(self, tmp_path, n):
        # Each step against its one-call form: the whole-array float32 cast
        # on write, np.linalg.norm over all rows on read.
        es = unit_set(n, n, 6)
        a, b = tmp_path / "a.paue", tmp_path / "b.paue"
        write_embeddings(es, a)
        blob = a.read_bytes()
        header, payload = blob[:_EMBED_HEADER_SIZE], blob[_EMBED_HEADER_SIZE:]
        assert payload == es.vectors.astype("<f4").tobytes()
        stored = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(n, 6)
        want = stored / np.linalg.norm(stored, axis=1)[:, None]
        got = read_embeddings(a)
        assert got.vectors.tobytes() == want.tobytes()
        write_embeddings(got, b)
        assert b.read_bytes() == header + want.astype("<f4").tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad, error", [(0.0, ZeroVector), (float("nan"), InvariantViolation)])
    def test_bad_row_in_a_later_block_is_named_by_its_global_index(self, tmp_path, bad, error):
        n, d = 2 * _ROW_BLOCK + 1, 3
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(2, n, d), path)
        patched(path, _EMBED_HEADER_SIZE + 4 * d * (_ROW_BLOCK + 1), struct.pack(f"<{d}f", *[bad] * d))
        with pytest.raises(error, match=f"row {_ROW_BLOCK + 1} "):
            read_embeddings(path)

    def test_read_peak_memory_is_the_file_and_one_float64_copy(self, tmp_path):
        # float32 payload (4 bytes an entry) + float64 copy (8) + slack
        n, d = 20000, 64
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(3, n, d), path)
        tracemalloc.start()
        try:
            read_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * d

    def test_read_streams_the_payload_into_one_float64_copy(self, tmp_path):
        # float64 copy (8 bytes an entry) + one float32 row block and the
        # row-block temporaries; the file's bytes are never held whole
        n, d = 20000, 64
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(3, n, d), path)
        tracemalloc.start()
        try:
            read_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * n * d

    def test_no_tmp_files_left_behind(self, tmp_path):
        write_embeddings(unit_set(1, 3, 4), tmp_path / "e.paue")
        assert [p.name for p in tmp_path.iterdir()] == ["e.paue"]


class TestEmbeddingsCsv:
    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("x0,x1\n1,0\n0,1\n")
        es = read_embeddings_csv(path, "vision")
        assert es.n == 2
        assert np.allclose(es.vectors, np.eye(2))

    def test_numeric_first_line_is_data(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,0\n0,1\n")
        assert read_embeddings_csv(path, "vision").n == 2

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_bytes(b"\xef\xbb\xbf1,0\n0,1\n")
        assert np.array_equal(read_embeddings_csv(path, "vision").vectors, np.eye(2))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,0\n\n0,1\n\n")
        assert read_embeddings_csv(path, "text").n == 2

    def test_non_numeric_body_line(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,0\n0,oops\n")
        with pytest.raises(ParseError, match=r":2:"):
            read_embeddings_csv(path, "vision")

    def test_width_mismatch(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,0\n0,1,0\n")
        with pytest.raises(ParseError, match="expected 2 fields, got 3"):
            read_embeddings_csv(path, "vision")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_field_rejected(self, tmp_path, bad):
        path = tmp_path / "e.csv"
        path.write_text(f"1,0\n0,{bad}\n")
        with pytest.raises(InvariantViolation, match="row 1"):
            read_embeddings_csv(path, "vision")

    def test_header_only_has_no_rows(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("x0,x1\n")
        with pytest.raises(ParseError, match="no vector rows"):
            read_embeddings_csv(path, "vision")


INGESTS = ["normalize_rows", "csv", "paue"]


def ingested(tmp_path, ingest, raw, modality):
    """The set one ingest path builds from raw's rows, and the float64 rows
    it read: raw itself, or raw rounded to float32 for a PAUE file."""
    if ingest == "normalize_rows":
        return normalize_rows(raw, modality), raw
    if ingest == "csv":
        path = tmp_path / "e.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in raw.tolist()))
        return read_embeddings_csv(path, modality), raw
    path = tmp_path / "e.paue"
    header = struct.pack("<4sHBQI", b"PAUE", 1, fileio._MODALITY_CODES[modality], *raw.shape)
    path.write_bytes(header + raw.astype("<f4").tobytes())
    return read_embeddings(path), raw.astype(np.float32).astype(np.float64)


class TestIngestedSets:
    """Every ingest path builds the set EmbeddingSet builds from the same
    normalized rows, and rejects the rows it rejects."""

    @pytest.mark.parametrize("n", [1, _ROW_BLOCK + 3])
    @pytest.mark.parametrize("modality", ["vision", "text"])
    @pytest.mark.parametrize("ingest", INGESTS)
    def test_same_bits_and_flags_as_a_directly_built_set(self, tmp_path, ingest, modality, n):
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((n, 5)) * rng.uniform(0.1, 10.0, (n, 1))
        got, read = ingested(tmp_path, ingest, raw, modality)
        direct = EmbeddingSet(modality=modality, vectors=read / np.linalg.norm(read, axis=1)[:, None])
        assert type(got) is EmbeddingSet and got.modality == modality
        for es in (got, direct):
            assert es.vectors.dtype == np.float64
            assert not es.vectors.flags.writeable and es.vectors.flags.c_contiguous
        assert got.vectors.tobytes() == direct.vectors.tobytes()

    @pytest.mark.parametrize("bad, error", [
        (0.0, ZeroVector), (np.nan, InvariantViolation), (np.inf, InvariantViolation),
    ])
    @pytest.mark.parametrize("ingest", INGESTS)
    def test_bad_row_is_still_rejected(self, tmp_path, ingest, bad, error):
        raw = np.ones((3, 4))
        raw[1] = bad
        with pytest.raises(error, match="row 1 "):
            ingested(tmp_path, ingest, raw, "vision")

    @pytest.mark.parametrize("ingest", ["normalize_rows", "csv"])
    def test_unknown_modality_is_still_rejected(self, tmp_path, ingest):
        with pytest.raises(ModalityMismatch, match="unknown modality 'audio'"):
            ingested(tmp_path, ingest, np.ones((2, 3)), "audio")

    def test_a_direct_set_of_rows_off_unit_norm_is_still_rejected(self):
        rows = unit_set(0, 3, 4).vectors * (1.0 + 1e-5)
        with pytest.raises(InvariantViolation, match="unit norm"):
            EmbeddingSet(modality="vision", vectors=rows)


class TestPairsIO:
    def test_round_trip(self, tmp_path):
        pairs = PairSet(pairs=((0, 0), (0, 1), (3, 2)))
        path = tmp_path / "p.tsv"
        write_pairs(pairs, path)
        assert read_pairs(path).pairs.tolist() == pairs.pairs.tolist()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("0\t0\n\n1\t2\n")
        assert read_pairs(path).pairs.tolist() == [[0, 0], [1, 2]]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_bytes(b"\xef\xbb\xbf0\t0\n1\t2\n")
        assert read_pairs(path).pairs.tolist() == [[0, 0], [1, 2]]

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("0\t0\n1\t2\t3\n")
        with pytest.raises(ParseError, match=r":2:"):
            read_pairs(path)

    def test_non_integer_index(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("0\t1.5\n")
        with pytest.raises(ParseError, match=r":1:"):
            read_pairs(path)

    def test_duplicate_line(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("0\t0\n0\t0\n")
        with pytest.raises(DuplicatePair):
            read_pairs(path)

    def test_negative_index(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("0\t-1\n")
        with pytest.raises(IndexOutOfRange):
            read_pairs(path)

    def test_index_beyond_int64(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("0\t0\n2\t99999999999999999999\n")
        with pytest.raises(IndexOutOfRange, match="int64"):
            read_pairs(path)

    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_bytes(b"0\t0\n\xff\xfe\t1\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            read_pairs(path)

    @pytest.mark.parametrize("body, lineno, line", [
        ("0\t0\n\n\n1\tx\n", 4, "1\tx"),
        ("0\t0\r\n\r\n1\t2\t3\r\n", 3, "1\t2\t3"),
        ("0\t0\r1\t\r", 2, "1\t"),
        ("0\t0\n1\t1.5\n", 2, "1\t1.5"),
        ("0\t0\n7\n1\t2\t3\n", 2, "7"),
        ("0\t0\n \n", 2, " "),
        ("3 4\n", 1, "3 4"),
        ("0\t0\n0\t1\t2\t3\n", 2, "0\t1\t2\t3"),
        ("99999999999999999999\t0\n1\tx\n", 2, "1\tx"),
    ], ids=["blank-lines", "crlf", "cr", "bad-token", "field-counts-that-sum-right",
            "whitespace-only-line", "space-separated", "two-pairs-on-one-line",
            "bad-token-after-overflow"])
    def test_parse_error_names_the_first_bad_line(self, tmp_path, body, lineno, line):
        path = tmp_path / "p.tsv"
        path.write_bytes(body.encode("utf-8"))
        want = f"{path}:{lineno}: expected 'v<TAB>t' integers, got {line!r}"
        with pytest.raises(ParseError) as exc:
            read_pairs(path)
        assert str(exc.value) == want

    def test_line_endings_and_int_forms_parse_like_int(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_bytes("0\t0\r\n\n+1\t 2 \r3\t\u0663\n00004\t1_0".encode("utf-8"))
        assert read_pairs(path).pairs.tolist() == [[0, 0], [1, 2], [3, 3], [4, 10]]

    @settings(deadline=None, max_examples=300)
    @given(st.text(alphabet="019\t\n\r +x", max_size=40))
    def test_matches_line_by_line_reference(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("pairs") / "p.tsv"
        path.write_bytes(body.encode("utf-8"))
        try:
            want = reference_read_pairs(path)
        except (ParseError, IndexOutOfRange, DuplicatePair) as exc:
            with pytest.raises(type(exc)) as got:
                read_pairs(path)
            assert str(got.value) == str(exc)
        else:
            assert read_pairs(path).pairs.tolist() == want.pairs.tolist()

    @settings(deadline=None, max_examples=200)
    @given(st.text(alphabet="019\t\n\r +x", max_size=60), st.integers(1, 8))
    def test_chunks_of_a_few_characters_match_the_reference(self, tmp_path_factory, body, chunk):
        path = tmp_path_factory.mktemp("pairs") / "p.tsv"
        path.write_bytes(body.encode("utf-8"))
        with mock.patch.object(fileio, "_PAIR_CHUNK", chunk):
            try:
                want = reference_read_pairs(path)
            except (ParseError, IndexOutOfRange, DuplicatePair) as exc:
                with pytest.raises(type(exc)) as got:
                    read_pairs(path)
                assert str(got.value) == str(exc)
            else:
                assert read_pairs(path).pairs.tolist() == want.pairs.tolist()

    @pytest.mark.parametrize("chunk", [1, 6])
    def test_bad_line_in_a_later_chunk_than_an_overflow(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(fileio, "_PAIR_CHUNK", chunk)
        path = tmp_path / "p.tsv"
        path.write_bytes(b"0\t0\n99999999999999999999\t1\n\n2\t2\r3\t\r")
        with pytest.raises(ParseError) as exc:
            read_pairs(path)
        assert str(exc.value) == f"{path}:5: expected 'v<TAB>t' integers, got '3\\t'"
        path.write_bytes(b"0\t0\n2\t2\n99999999999999999999\t1\n")
        with pytest.raises(IndexOutOfRange, match="int64"):
            read_pairs(path)

    def test_parse_peak_memory_is_a_chunk_not_a_string_per_index(self, tmp_path):
        n = 50_000
        path = tmp_path / "p.tsv"
        write_pairs(PairSet(pairs=np.stack([np.arange(n) // 5, np.arange(n)], axis=1)), path)
        read_pairs(path)
        tracemalloc.start()
        try:
            pairs = read_pairs(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == n
        # The text, the int64 rows, PairSet's copy and its sort; one Python
        # string per index (50 bytes or more each) would be 5 MB alone.
        assert peak < 8 * path.stat().st_size


def reference_read_pairs(path):
    """The line-by-line parser: universal newlines, blank lines skipped,
    each other line split on one tab into two int() fields."""
    entries = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.rstrip("\r\n")
            if not text:
                continue
            try:
                v, t = text.split("\t")
                entries.append((int(v), int(t)))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: expected 'v<TAB>t' integers, got {text!r}"
                ) from None
    return PairSet(pairs=entries)


def small_checkpoint(meta=None):
    rng = np.random.default_rng(17)
    return Checkpoint(
        bank_v=PrototypeBank(modality="vision", vectors=rng.standard_normal((2, 3))),
        bank_t=PrototypeBank(modality="text", vectors=rng.standard_normal((2, 3))),
        evidence=EvidenceConfig(kind="softplus", gamma=2.0, theta=15.0, tau=3.0),
        rerank=RerankParams(beta1=0.3, beta2=1.25),
        train_meta={"seed": 7, "note": "demo"} if meta is None else meta,
    )


# in "PAUP" with k=2, d=3 banks: 6-byte preamble, two 32-byte banks,
# evidence kind byte lands at offset 70
_KIND_BYTE_OFFSET = 70


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        ckpt = small_checkpoint()
        path = tmp_path / "m.paup"
        write_checkpoint(ckpt, path)
        got = read_checkpoint(path)
        for mine, theirs in ((ckpt.bank_v, got.bank_v), (ckpt.bank_t, got.bank_t)):
            assert theirs.modality == mine.modality
            assert np.array_equal(
                theirs.vectors,
                mine.vectors.astype(np.float32).astype(np.float64),
            )
        assert got.evidence == ckpt.evidence
        assert got.rerank == ckpt.rerank
        assert got.train_meta == {"seed": "7", "note": "demo"}

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.paup", tmp_path / "b.paup"
        write_checkpoint(small_checkpoint(), a)
        write_checkpoint(read_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_is_insertion_order_independent(self, tmp_path):
        a, b = tmp_path / "a.paup", tmp_path / "b.paup"
        write_checkpoint(small_checkpoint(meta={"b": 1, "a": 2}), a)
        write_checkpoint(small_checkpoint(meta={"a": 2, "b": 1}), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_includes_embeddings_files(self, tmp_path):
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(1, 3, 4), path)
        with pytest.raises(BadMagic):
            read_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.paup"
        write_checkpoint(small_checkpoint(), path)
        patched(path, 4, struct.pack("<H", 9))
        with pytest.raises(UnsupportedVersion):
            read_checkpoint(path)

    def test_unknown_evidence_kind_byte(self, tmp_path):
        path = tmp_path / "m.paup"
        write_checkpoint(small_checkpoint(), path)
        patched(path, _KIND_BYTE_OFFSET, b"\x03")
        with pytest.raises(InvariantViolation):
            read_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.paup"
        write_checkpoint(small_checkpoint(), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedFile):
            read_checkpoint(path)

    def test_text_bank_cut_mid_row(self, tmp_path):
        # The text bank's rows start at 6 + 32 + 8; cut 5 floats into them.
        path = tmp_path / "m.paup"
        write_checkpoint(small_checkpoint(), path)
        path.write_bytes(path.read_bytes()[:46 + 4 * 5])
        with pytest.raises(TruncatedFile, match="needed 24 bytes at offset 46, file has 66"):
            read_checkpoint(path)

    def test_read_from_a_pipe(self, tmp_path):
        path, again = tmp_path / "m.paup", tmp_path / "again.paup"
        write_checkpoint(small_checkpoint(), path)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, path.read_bytes())
            os.close(write_end)
            write_checkpoint(read_checkpoint(f"/dev/fd/{read_end}"), again)
        finally:
            os.close(read_end)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
    def test_wrong_file_fails_before_its_payload_is_read(self, tmp_path, piped):
        # A 4 MB PAUE file read as a checkpoint fails after its 6-byte magic,
        # with no allocation that grows with the file.
        path = tmp_path / "e.paue"
        write_embeddings(unit_set(4, 16384, 64), path)
        blob = memoryview(path.read_bytes())
        read_end, write_end = os.pipe()
        # The writer sends slices of the bytes read above, so that it
        # allocates nothing that grows with the file either; when the file
        # is read, it only fills the pipe until the read end closes.
        writer = threading.Thread(target=write_chunks, args=(write_end, blob, 1 << 16))
        tracemalloc.start()
        try:
            writer.start()
            with pytest.raises(BadMagic):
                read_checkpoint(f"/dev/fd/{read_end}" if piped else path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            os.close(read_end)
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert peak < len(blob) // 64

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.paup"
        write_checkpoint(small_checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(InvariantViolation):
            read_checkpoint(path)

    def test_metadata_line_without_separator(self, tmp_path):
        path = tmp_path / "m.paup"
        write_checkpoint(small_checkpoint(meta={"a": 1}), path)
        blob = path.read_bytes()
        assert blob.endswith(b"a=1\n")
        path.write_bytes(blob[:-4] + b"a_1\n")
        with pytest.raises(ParseError, match="no '='"):
            read_checkpoint(path)

    def test_non_utf8_metadata(self, tmp_path):
        path = tmp_path / "m.paup"
        write_checkpoint(small_checkpoint(meta={"a": 1}), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-2] + b"\xff\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            read_checkpoint(path)

    def test_failed_write_leaves_no_tmp_file(self, tmp_path):
        target = tmp_path / "target_dir"
        target.mkdir()
        with pytest.raises(OSError):
            write_checkpoint(small_checkpoint(), target)
        assert [p.name for p in tmp_path.iterdir()] == ["target_dir"]
        assert list(target.iterdir()) == []

    def test_atomic_overwrite_and_no_tmp_residue(self, tmp_path):
        path = tmp_path / "m.paup"
        write_checkpoint(small_checkpoint(meta={"v": 1}), path)
        write_checkpoint(small_checkpoint(meta={"v": 2}), path)
        assert read_checkpoint(path).train_meta == {"v": "2"}
        assert [p.name for p in tmp_path.iterdir()] == ["m.paup"]


class TestCheckpointValidation:
    def test_swapped_modalities(self):
        rng = np.random.default_rng(3)
        v = PrototypeBank(modality="vision", vectors=rng.standard_normal((2, 3)))
        t = PrototypeBank(modality="text", vectors=rng.standard_normal((2, 3)))
        with pytest.raises(InvariantViolation):
            Checkpoint(bank_v=t, bank_t=v)

    def test_bank_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        v = PrototypeBank(modality="vision", vectors=rng.standard_normal((2, 3)))
        t = PrototypeBank(modality="text", vectors=rng.standard_normal((2, 4)))
        with pytest.raises(DimensionMismatch):
            Checkpoint(bank_v=v, bank_t=t)

    @pytest.mark.parametrize("meta", [{"a=b": 1}, {"a": "x\ny"}, {"a\nb": 1}])
    def test_unencodable_metadata(self, meta):
        rng = np.random.default_rng(3)
        v = PrototypeBank(modality="vision", vectors=rng.standard_normal((2, 3)))
        t = PrototypeBank(modality="text", vectors=rng.standard_normal((2, 3)))
        with pytest.raises(InvariantViolation):
            Checkpoint(bank_v=v, bank_t=t, train_meta=meta)

    @pytest.mark.parametrize(
        "separator", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                      "\u2028", "\u2029"],
    )
    @pytest.mark.parametrize("where", ["key", "value"])
    def test_every_line_break_of_splitlines_is_rejected(self, separator, where):
        assert len(f"x{separator}y".splitlines()) == 2
        meta = {f"a{separator}b": "1"} if where == "key" else {"a": f"x{separator}y"}
        with pytest.raises(InvariantViolation):
            small_checkpoint(meta)

    def test_other_control_characters_round_trip(self, tmp_path):
        ckpt = small_checkpoint({"a\tb": "x\x1fy\x00z"})
        write_checkpoint(ckpt, tmp_path / "m.paup")
        assert read_checkpoint(tmp_path / "m.paup").train_meta == {"a\tb": "x\x1fy\x00z"}
