"""Seeded synthetic cross-modal corpora with known ambiguity structure.

Each corpus lives on k_true orthonormal latent directions.  An item mixes
m of them with equal weight, so m is a ground-truth ambiguity level: the
more directions an item straddles, the more captions it sits near, which
is exactly the situation the uncertainty head is supposed to flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import _ROW_BLOCK, TEXT, VISION, EmbeddingSet, PairSet, _integer, _real, _stacked
from .errors import InvalidSpec

_WEIGHT_TOL = 1e-9


def _positive_weights(raw) -> dict[int, float]:
    """Every level and weight checked; the positive weights as {m: weight}.  Builds
    nothing as long as the largest level, which SyntheticSpec checks against k_true."""
    try:
        levels = raw.items() if isinstance(raw, dict) else enumerate(raw, 1)
    except TypeError:
        raise InvalidSpec(f"ambiguity_weights {raw!r} is neither a dict nor a sequence") from None
    weights = {_integer(m, "an ambiguity level", InvalidSpec, 1): _real(w, "an ambiguity weight", InvalidSpec)
               for m, w in levels}
    if not weights:
        raise InvalidSpec("ambiguity_weights is empty")
    total = sum(weights.values())
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise InvalidSpec(f"ambiguity weights sum to {total}, not 1")
    return {m: w for m, w in weights.items() if w > 0.0}


@dataclass(frozen=True)
class SyntheticSpec:
    """Everything that determines a corpus; two equal specs generate
    bit-identical output."""

    n_items: int
    d: int
    k_true: int
    ambiguity_weights: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    noise_sigma: float = 0.05
    captions_per_item: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        weights = _positive_weights(self.ambiguity_weights)
        for name, low in (("n_items", 1), ("d", 2), ("captions_per_item", 1), ("seed", 0)):
            _integer(getattr(self, name), name, InvalidSpec, low)
        _integer(self.k_true, "k_true", InvalidSpec, 1,
                 f"k_true must be in [1, d={self.d}], got {self.k_true}", self.d)
        m_max = max(weights)  # the weights sum to 1, so one is positive
        if m_max > self.k_true:
            raise InvalidSpec(f"largest ambiguity level {m_max} exceeds k_true={self.k_true}")
        dense = tuple(weights.get(m, 0.0) for m in range(1, m_max + 1))
        object.__setattr__(self, "ambiguity_weights", dense)
        object.__setattr__(self, "noise_sigma", _real(self.noise_sigma, "noise_sigma", InvalidSpec))
        for rows, cols in ((self.n_items * self.captions_per_item, self.d), (self.d, self.k_true)):
            if 8 * rows * cols > np.iinfo(np.intp).max:
                raise InvalidSpec(f"a ({rows}, {cols}) float64 draw exceeds NumPy's largest array")

    @property
    def m_max(self) -> int:
        return len(self.ambiguity_weights)


DEFAULT_CORPUS_SPEC = SyntheticSpec(n_items=2000, d=64, k_true=8, seed=7)


@dataclass(frozen=True)
class AmbiguityLabels:
    """Ground truth per vision item: how many semantics it mixes and which."""

    counts: tuple[int, ...]
    semantic_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.semantic_sets):
            raise InvalidSpec("counts and semantic_sets disagree in length")
        for m, chosen in zip(self.counts, self.semantic_sets):
            m = _integer(m, "a semantic count", InvalidSpec, 1)
            try:
                if len(chosen) == m == len(set(chosen)):
                    continue
            except TypeError:  # not a sequence, or of unhashable members
                pass
            raise InvalidSpec(f"semantic set {chosen} does not match m={m}")


def latent_directions(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """k orthonormal rows in d dimensions from seeded Gaussian draws.

    QR of a Gaussian matrix with the R diagonal forced positive is the
    Gram-Schmidt orthonormalization of the columns, computed stably.  The
    rows come back C-contiguous, so gathering a few of them is a row copy.
    """
    _integer(k, "k", InvalidSpec, 1, f"k must be in [1, d={d}], got {k}", _integer(d, "d", InvalidSpec, 1))
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return np.ascontiguousarray((q * signs).T)


def _corpus_blocks(spec: SyntheticSpec):
    """spec's corpus as (vision blocks, text blocks, pairs, labels).

    The draw order is fixed (directions, ambiguity levels, per-item
    direction sets, vision noise, text noise), so output is a pure function
    of spec.  A block is (start, up to _ROW_BLOCK raw rows of a set, not yet
    normalized), and its noise is drawn when it is asked for, so use up the
    vision blocks before the text blocks.  Drawing a set block by block
    draws the stream one call would, and every step is row by row, so the
    blocks hold the bits of whole sets.  Every caption of an item reuses
    the item's direction sum with its own noise, so captions agree on
    semantics but are not clones.
    """
    rng = np.random.default_rng(spec.seed)
    directions = latent_directions(spec.k_true, spec.d, rng)

    levels = np.arange(1, spec.m_max + 1)
    ms = rng.choice(levels, size=spec.n_items, p=np.array(spec.ambiguity_weights))
    # slots[i, j] is item i's j-th direction for j < ms[i], else unused.
    slots = np.zeros((spec.n_items, spec.m_max), dtype=np.int64)
    chosen_sets = []
    for i, m in enumerate(ms):
        chosen = tuple(sorted(rng.choice(spec.k_true, size=int(m), replace=False)))
        slots[i, :m] = chosen
        chosen_sets.append(chosen)

    def blocks(n_rows, cpi):
        # Row r belongs to item r // cpi.  Its direction sum is added slot
        # by slot in the order that sum(axis=0) of the item's chosen rows
        # adds them, so with the same bits, and base + sigma * noise rounds
        # the same in either operand order.
        for start in range(0, n_rows, _ROW_BLOCK):
            raw = rng.standard_normal((min(_ROW_BLOCK, n_rows - start), spec.d))
            raw *= spec.noise_sigma
            items = np.arange(start, start + len(raw)) // cpi
            base = directions[slots[items, 0]]
            for j in range(1, spec.m_max):
                np.add(base, directions[slots[items, j]], out=base, where=(ms[items] > j)[:, None])
            raw += base
            yield start, raw

    cpi = spec.captions_per_item
    captions = np.arange(spec.n_items * cpi)
    return (
        blocks(spec.n_items, 1),
        blocks(spec.n_items * cpi, cpi),
        PairSet(pairs=np.stack([captions // cpi, captions], axis=1)),
        AmbiguityLabels(counts=tuple(int(m) for m in ms), semantic_sets=tuple(chosen_sets)),
    )


def generate_corpus(
    spec: SyntheticSpec,
) -> tuple[EmbeddingSet, EmbeddingSet, PairSet, AmbiguityLabels]:
    """Build one corpus: vision set, text set, ground-truth pairs, labels.

    Each set stacks _corpus_blocks's raw blocks and is normalized once, with
    the bits gen-synth writes.  Beside the two float64 sets, the corpus
    allocates only the (n_items, m_max) direction indices, the pairs, the
    labels and row-block temporaries; no (n_items, d) array is drawn whole.
    """
    vis_blocks, txt_blocks, pairs, labels = _corpus_blocks(spec)
    vis = EmbeddingSet._normalized(VISION, _stacked((spec.n_items, spec.d), vis_blocks))
    n_captions = spec.n_items * spec.captions_per_item
    txt = EmbeddingSet._normalized(TEXT, _stacked((n_captions, spec.d), txt_blocks))
    return vis, txt, pairs, labels
