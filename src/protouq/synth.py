"""Seeded synthetic cross-modal corpora with known ambiguity structure.

Each corpus lives on k_true orthonormal latent directions.  An item mixes
m of them with equal weight, so m is a ground-truth ambiguity level: the
more directions an item straddles, the more captions it sits near, which
is exactly the situation the uncertainty head is supposed to flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import TEXT, VISION, EmbeddingSet, PairSet, _normalized
from .errors import InvalidSpec

_WEIGHT_TOL = 1e-9


def _positive_weights(raw) -> dict[int, float]:
    """Every weight checked; the positive ones as {m: weight}.  Builds nothing
    as long as the largest level, which SyntheticSpec checks against k_true."""
    try:
        if isinstance(raw, dict):
            for m in raw:
                if int(m) != m or m < 1:
                    raise InvalidSpec(f"ambiguity level {m!r} is not a positive integer")
            weights = {int(m): float(w) for m, w in raw.items()}
        else:
            weights = {m: float(w) for m, w in enumerate(raw, 1)}
    except (TypeError, ValueError, OverflowError):
        raise InvalidSpec(f"ambiguity_weights {raw!r} needs integer levels and numeric weights") from None
    if not weights:
        raise InvalidSpec("ambiguity_weights is empty")
    if any(not np.isfinite(w) or w < 0.0 for w in weights.values()):
        raise InvalidSpec("ambiguity weights must be finite and nonnegative")
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
        if self.n_items < 1:
            raise InvalidSpec(f"n_items must be >= 1, got {self.n_items}")
        if self.d < 2:
            raise InvalidSpec(f"d must be >= 2, got {self.d}")
        if not 1 <= self.k_true <= self.d:
            raise InvalidSpec(f"k_true must be in [1, d={self.d}], got {self.k_true}")
        m_max = max(weights)  # the weights sum to 1, so one is positive
        if m_max > self.k_true:
            raise InvalidSpec(f"largest ambiguity level {m_max} exceeds k_true={self.k_true}")
        dense = tuple(weights.get(m, 0.0) for m in range(1, m_max + 1))
        object.__setattr__(self, "ambiguity_weights", dense)
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0.0:
            raise InvalidSpec(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.captions_per_item < 1:
            raise InvalidSpec(
                f"captions_per_item must be >= 1, got {self.captions_per_item}"
            )
        if self.seed < 0:
            raise InvalidSpec(f"seed must be unsigned, got {self.seed}")
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
            if m < 1 or len(chosen) != m or len(set(chosen)) != m:
                raise InvalidSpec(f"semantic set {chosen} does not match m={m}")


def latent_directions(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """k orthonormal rows in d dimensions from seeded Gaussian draws.

    QR of a Gaussian matrix with the R diagonal forced positive is the
    Gram-Schmidt orthonormalization of the columns, computed stably.  The
    rows come back C-contiguous, so gathering a few of them is a row copy.
    """
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return np.ascontiguousarray((q * signs).T)


def generate_corpus(
    spec: SyntheticSpec,
) -> tuple[EmbeddingSet, EmbeddingSet, PairSet, AmbiguityLabels]:
    """Build one corpus: vision set, text set, ground-truth pairs, labels.

    Draw order is fixed (directions, ambiguity levels, per-item direction
    sets, vision noise, text noise) so output is a pure function of spec.
    Every caption of an item reuses the item's direction sum with its own
    noise, so captions agree on semantics but are not clones.

    Each set is its own noise draw, scaled, shifted by the item directions
    and normalized in place: beside the two float64 sets, the corpus
    allocates only the (n_items, d) direction sums, the pairs and
    row-block temporaries.
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

    # Each item's direction sum, added slot by slot in the order that
    # sum(axis=0) of its chosen rows adds them, so with the same bits.  A
    # slot's rows are gathered into the buffer that the vision noise is
    # drawn into next, so the sums allocate no (n_items, d) temporary
    # ("clip" because every index is in range; "raise" would copy).
    base = directions[slots[:, 0]]
    vis_raw = np.empty_like(base)
    for j in range(1, spec.m_max):
        np.take(directions, slots[:, j], axis=0, out=vis_raw, mode="clip")
        np.add(base, vis_raw, out=base, where=(ms > j)[:, None])
    del slots

    # base + sigma * noise in place: a product or sum rounds the same in
    # either operand order.  Captions of item i are rows i * cpi, ...,
    # i * cpi + cpi - 1, so base adds through an (n_items, cpi, d) view.
    cpi = spec.captions_per_item
    rng.standard_normal(out=vis_raw)
    vis_raw *= spec.noise_sigma
    vis_raw += base
    txt_raw = rng.standard_normal((spec.n_items * cpi, spec.d))
    txt_raw *= spec.noise_sigma
    per_item = txt_raw.reshape(spec.n_items, cpi, spec.d)
    per_item += base[:, None, :]

    captions = np.arange(spec.n_items * cpi)
    pairs = PairSet(pairs=np.stack([captions // cpi, captions], axis=1))
    labels = AmbiguityLabels(
        counts=tuple(int(m) for m in ms), semantic_sets=tuple(chosen_sets)
    )
    return (
        _normalized(vis_raw, VISION),
        _normalized(txt_raw, TEXT),
        pairs,
        labels,
    )
