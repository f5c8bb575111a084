"""Output checks, computed by the benchmark from the files a workload wrote.

Nothing here imports protouq: the embeddings, pairs and uncertainty CSV are
parsed directly, and retrieval ranks come from a full sort of each query's
gallery (index order breaks score ties), the oracle of release criterion 10.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

_EMBED_HEADER = struct.Struct("<4sHBQI")
_SORT_BLOCK = 500

# Keys each command's one-line summary must carry.
SUMMARY_KEYS = {
    "gen-synth": ("n_items", "n_captions", "d", "k_true", "seed", "vis", "txt", "pairs"),
    "train": ("epochs", "seed", "final_total", "final_uct_v", "final_uct_t", "ckpt"),
    "score": ("n_scored", "mean_u_vision", "mean_u_text", "out"),
    "rerank": ("beta1", "beta2", "fitted", "mean_r1_before", "mean_r1_after"),
    "evaluate": ("n_queries_t2v", "n_queries_v2t", "r1_t2v", "mdr_t2v", "r1_v2t", "mdr_v2t",
                 "reranked_mean_r1"),
    "analyze-pcc": ("pcc_u_h_vision", "pcc_u_h_text", "pcc_u_m_vision", "pcc_u_m_text"),
    "analyze-removal-curve": ("mode", "side", "n_points", "last_removed", "last_r1_t2v",
                              "last_r1_v2t"),
}


def parse_summary(stdout: str, name: str) -> dict | None:
    """The key=value fields of a one-line summary tagged ``name``, else None."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None
    tag, *fields = lines[0].split(" ")
    if tag != name or any("=" not in f for f in fields):
        return None
    summary = dict(f.split("=", 1) for f in fields)
    if any(k not in summary for k in SUMMARY_KEYS[name]):
        return None
    return summary


def read_embeddings(path: Path) -> np.ndarray:
    """Unit rows of a PAUE file, normalized as the library does on read."""
    blob = path.read_bytes()
    magic, _, _, n, d = _EMBED_HEADER.unpack_from(blob)
    if magic != b"PAUE":
        raise ValueError(f"{path}: not a PAUE file")
    raw = np.frombuffer(blob, dtype="<f4", count=n * d, offset=_EMBED_HEADER.size)
    raw = raw.astype(np.float64).reshape(n, d)
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def read_pairs(path: Path) -> np.ndarray:
    """(n_pairs, 2) array of (vision, text) indices."""
    return np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)


def read_uncertainty(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """u_vision, u_text from a `score --out` CSV."""
    columns = {"vision": [], "text": []}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            columns[row["modality"]].append((int(row["index"]), float(row["uncertainty"])))
    return tuple(np.array([u for _, u in sorted(columns[m])]) for m in ("vision", "text"))


def similarity(vis: np.ndarray, txt: np.ndarray) -> np.ndarray:
    values = vis @ txt.T
    np.clip(values, -1.0, 1.0, out=values)
    return values


def _best_positive_ranks(values: np.ndarray, pairs: np.ndarray, direction: str) -> np.ndarray:
    """1-based rank of each query's best positive by fully sorting its scores.

    Text queries (t2v) rank the columns of ``values``, vision queries (v2t)
    its rows.  A query without tied scores has one descending order, so the
    fast sort gives it; queries with ties are sorted again stably, which puts
    tied entries in ascending index order.
    """
    by_column = direction == "t2v"
    scores = values.T if by_column else values
    queries, gallery = (pairs[:, 1], pairs[:, 0]) if by_column else (pairs[:, 0], pairs[:, 1])
    n_queries, n_gallery = scores.shape
    best = np.full(n_queries, n_gallery + 1, dtype=np.int64)
    for start in range(0, n_queries, _SORT_BLOCK):
        block = np.negative(scores[start:start + _SORT_BLOCK], order="C")
        order = np.argsort(block, axis=1)
        ranked = np.take_along_axis(block, order, axis=1)
        tied = np.any(ranked[:, 1:] == ranked[:, :-1], axis=1)
        if tied.any():
            order[tied] = np.argsort(block[tied], axis=1, kind="stable")
        position = np.empty_like(order)
        np.put_along_axis(position, order, np.arange(n_gallery)[None, :], axis=1)
        mine = (queries >= start) & (queries < start + block.shape[0])
        q = queries[mine]
        np.minimum.at(best, q, position[q - start, gallery[mine]] + 1)
    if np.any(best > n_gallery):
        raise ValueError(f"some {direction} query has no positive")
    return best


def retrieval_summary(values: np.ndarray, pairs: np.ndarray) -> dict:
    """R@1 and median rank per direction, formatted as the CLI prints them."""
    out = {}
    r1 = {}
    for direction in ("t2v", "v2t"):
        ranks = _best_positive_ranks(values, pairs, direction)
        n = ranks.size
        r1[direction] = 100.0 * float(np.count_nonzero(ranks <= 1)) / n
        out[f"r1_{direction}"] = f"{r1[direction]:.4f}"
        out[f"mdr_{direction}"] = f"{float(np.sort(ranks)[(n - 1) // 2]):.1f}"
    out["mean_r1"] = f"{0.5 * (r1['t2v'] + r1['v2t']):.4f}"
    return out


def reranked(values, u_v, u_t, beta1: float, beta2: float) -> np.ndarray:
    """Similarities scaled by exp(-beta1 u_v) per row and exp(-beta2 u_t) per column."""
    return np.exp(-beta1 * u_v)[:, None] * values * np.exp(-beta2 * u_t)[None, :]
