"""Prototype banks and their training loop.

Each modality owns a bank of K prototype vectors.  Training fits both
banks so that the uncertainty of an instance (scored against the other
modality's bank) regresses onto that instance's mean cosine similarity
across the batch, while a diversity penalty keeps the prototypes of each
bank from collapsing onto one direction.  Everything is plain numpy with
analytic gradients; the optimizer is a hand-written Adam.  Prototypes
are never renormalized after an update: their norm is a learnable scale
that the evidence functions see through the dot product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embed import (
    MODALITIES,
    TEXT,
    VISION,
    _NORM_EPS,
    EmbeddingSet,
    PairSet,
    _batch_means,
    _check_cross_modal,
    _checked_rows,
    _grouped,
)
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    InsufficientPairs,
    InvalidConfig,
    InvariantViolation,
    LengthMismatch,
    ModalityMismatch,
    ZeroPrototype,
)
from .evidence import EvidenceConfig, dirichlet_uncertainty, evidence_slope, generate_evidence

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

H_CLAMP = "clamp"
H_AFFINE = "affine"
H_MAPPINGS = (H_CLAMP, H_AFFINE)


@dataclass(frozen=True)
class PrototypeBank:
    """K learnable prototype vectors for one modality, norms unconstrained."""

    modality: str
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise ModalityMismatch(f"unknown modality {self.modality!r}")
        vectors, norms = _checked_rows(self.vectors)
        if np.any(norms < _NORM_EPS):
            raise ZeroPrototype("a prototype row has near-zero norm")
        vectors = np.ascontiguousarray(vectors)
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def init_prototypes(k: int, d: int, seed: int, modality: str = VISION) -> PrototypeBank:
    """Seeded Xavier-uniform bank: entries drawn from +-sqrt(6 / (2 d))."""
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    if d < 2:
        raise DimensionTooSmall(f"d must be >= 2, got {d}")
    bound = np.sqrt(6.0 / (2.0 * d))
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-bound, bound, size=(k, d))
    return PrototypeBank(modality=modality, vectors=vectors)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for prototype training.

    h_mapping selects how raw batch-mean cosines become regression targets:
    "clamp" (default) clips to [0, 1]; "affine" maps via (h + 1) / 2, which
    keeps negative means apart instead of clipping them all to 0.
    """

    epochs: int
    seed: int
    k: int = 8
    batch_size: int = 256
    learning_rate: float = 1e-4
    lambda_div: float = 1.0
    evidence: EvidenceConfig = field(default_factory=EvidenceConfig)
    h_mapping: str = H_CLAMP

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be unsigned, got {self.seed}")
        if self.k < 1:
            raise InvalidConfig(f"k must be >= 1, got {self.k}")
        if self.batch_size < 2:
            raise InvalidConfig(f"batch_size must be >= 2, got {self.batch_size}")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise InvalidConfig(f"learning_rate must be positive, got {self.learning_rate}")
        if not np.isfinite(self.lambda_div) or self.lambda_div < 0.0:
            raise InvalidConfig(f"lambda_div must be >= 0, got {self.lambda_div}")
        if self.h_mapping not in H_MAPPINGS:
            raise InvalidConfig(f"unknown h_mapping {self.h_mapping!r}")


@dataclass(frozen=True)
class BatchLosses:
    uct_v: float
    uct_t: float
    div_v: float
    div_t: float
    total: float


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    uct_v: float
    uct_t: float
    div_v: float
    div_t: float
    total: float


@dataclass(frozen=True)
class TrainHistory:
    records: tuple[EpochRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final(self) -> EpochRecord:
        return self.records[-1]


def map_targets(raw_means: np.ndarray, mode: str = H_CLAMP) -> np.ndarray:
    """Map raw batch-mean cosines into [0, 1] regression targets."""
    if mode == H_CLAMP:
        return np.clip(raw_means, 0.0, 1.0)
    if mode == H_AFFINE:
        return (raw_means + 1.0) / 2.0
    raise InvalidConfig(f"unknown h_mapping {mode!r}")


def _uct_value(u: np.ndarray, h: np.ndarray) -> tuple[float, np.ndarray]:
    """The uncertainty loss mean((u - h)^2), and the gap u - h."""
    diff = u - h
    return float(np.mean(diff * diff)), diff


def loss_uct(u: np.ndarray, h: np.ndarray) -> float:
    """Mean squared error between uncertainties and their targets."""
    u = np.asarray(u, dtype=np.float64).ravel()
    h = np.asarray(h, dtype=np.float64).ravel()
    if u.shape != h.shape:
        raise LengthMismatch(f"lengths differ: {u.shape[0]} vs {h.shape[0]}")
    if u.size == 0:
        raise LengthMismatch("loss over zero instances is undefined")
    return _uct_value(u, h)[0]


def _div_value(vectors: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The diversity loss of a raw (k, d) bank, mean(cos^2) over all row
    pairs, with the clipped cosine matrix, unit rows and norms it used."""
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms < _NORM_EPS):
        raise ZeroPrototype("a prototype row has near-zero norm")
    unit = vectors / norms[:, None]
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    return float(np.mean(gram * gram)), gram, unit, norms


def loss_div(bank: PrototypeBank) -> float:
    """Mean squared pairwise cosine over the bank, diagonal included.

    The i = j terms contribute exactly K, so the loss is bounded below by
    1 / K, attained when all off-diagonal cosines vanish.
    """
    return _div_value(bank.vectors)[0]


def _div_value_grad(vectors: np.ndarray) -> tuple[float, np.ndarray]:
    """Diversity loss and its gradient for one bank's raw (k, d) array."""
    value, gram, unit, norms = _div_value(vectors)
    k = vectors.shape[0]
    # d/dz_a of sum_ij cos^2: diagonal terms are constant, and including
    # j = a in both partial sums below cancels exactly, so no masking.
    row_sq = (gram * gram).sum(axis=1)
    grad = (4.0 / (k * k)) * (gram @ unit - row_sq[:, None] * unit) / norms[:, None]
    return value, grad


def _uct_value_grads(
    instances: np.ndarray,
    bank_vectors: np.ndarray,
    targets: np.ndarray,
    cfg: EvidenceConfig,
) -> tuple[float, np.ndarray]:
    """Uncertainty regression loss for one direction and its bank gradient.

    instances: (n, d) unit rows.  bank_vectors: (k, d).  targets: (n,).
    u_i = 1 - K / S_i with S_i = K + sum_k f(x_i . z_k), so

        dL/dz_k = sum_i (2/n) (u_i - h_i) (K / S_i^2) f'(p_ik) x_i.
    """
    n, _ = instances.shape
    k = bank_vectors.shape[0]
    p = instances @ bank_vectors.T
    u, strength = dirichlet_uncertainty(generate_evidence(p, cfg))
    value, diff = _uct_value(u, targets)
    with np.errstate(over="ignore"):
        squared = strength * strength
    slope = k / squared
    # S past ~1.3e154 squares to inf though K / S^2 is a finite number
    huge = np.isinf(squared)
    if huge.any():
        slope[huge] = k / strength[huge] / strength[huge]
    weight = (2.0 / n) * diff * slope
    grad = (weight[:, None] * evidence_slope(p, cfg)).T @ instances
    return value, grad


def gradients(
    vis: EmbeddingSet,
    txt: EmbeddingSet,
    bank_v: PrototypeBank,
    bank_t: PrototypeBank,
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, BatchLosses]:
    """Analytic gradients of the total loss for one aligned batch.

    The targets are each instance's mean cosine similarity to the other
    modality's batch (embed.batch_means), mapped into [0, 1].  Vision
    uncertainty is scored against the text bank and text uncertainty
    against the vision bank, so the uncertainty terms push gradients into
    the opposite modality's prototypes.  The diversity penalty
    differentiates against each bank directly.

    Returns:
        (grad_v, grad_t, losses) where grad_v has bank_v's shape and
        grad_t has bank_t's.
    """
    _check_cross_modal(vis, txt)
    if vis.n != txt.n:
        raise LengthMismatch(f"aligned batch sizes differ: {vis.n} vs {txt.n}")
    if vis.n < 2:
        raise InsufficientPairs("a batch needs at least 2 aligned pairs")
    if bank_v.modality != VISION or bank_t.modality != TEXT:
        raise ModalityMismatch("bank_v must be the vision bank and bank_t the text bank")
    if bank_v.d != vis.d or bank_t.d != vis.d:
        raise DimensionMismatch("banks and instances disagree on dimension")
    return _batch_gradients(vis.vectors, txt.vectors, bank_v.vectors, bank_t.vectors, cfg)


class _AdamState:
    """Adam with bias correction; one instance per parameter block."""

    def __init__(self, shape: tuple[int, ...], lr: float):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = self.m / (1.0 - ADAM_BETA1 ** self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2 ** self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(
    vis: EmbeddingSet,
    txt: EmbeddingSet,
    pairs: PairSet,
    cfg: TrainConfig,
) -> tuple[PrototypeBank, PrototypeBank, TrainHistory]:
    """Fit both prototype banks on a frozen corpus.

    Every epoch walks the vision instances in a fresh shuffled order; an
    instance with several paired texts contributes one uniformly chosen
    caption per epoch.  Trailing batches of a single pair are dropped
    (the batch loss needs at least two instances).  All randomness flows
    from cfg.seed, so identical configs give identical banks.
    """
    _check_cross_modal(vis, txt)
    pairs.check_against(vis.n, txt.n)
    if len(pairs) < 2:
        raise InsufficientPairs("training needs at least 2 pairs")

    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    bank_v = init_prototypes(cfg.k, vis.d, int(seeds[0]), VISION)
    bank_t = init_prototypes(cfg.k, vis.d, int(seeds[1]), TEXT)
    sampler = np.random.default_rng(int(seeds[2]))

    z_v = np.array(bank_v.vectors)
    z_t = np.array(bank_t.vectors)
    opt_v = _AdamState(z_v.shape, cfg.learning_rate)
    opt_t = _AdamState(z_t.shape, cfg.learning_rate)

    # Every vision index has a group (check_against), so item v's start is starts[v].
    _, starts, counts, captions = _grouped(pairs.vision_indices, pairs.text_indices)

    records = []
    for epoch in range(cfg.epochs):
        order = sampler.permutation(vis.n)
        # One draw per item with several captions, in walk order.
        options = counts[order]
        pick = np.zeros(vis.n, dtype=np.int64)
        pick[options > 1] = sampler.integers(options[options > 1])
        chosen = captions[starts[order] + pick]

        sums = np.zeros(5)
        batches = 0
        for start in range(0, vis.n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            cols = chosen[start:start + cfg.batch_size]
            if rows.size < 2:
                continue
            xv = vis.vectors[rows]
            xt = txt.vectors[cols]
            grad_v, grad_t, losses = _batch_gradients(xv, xt, z_v, z_t, cfg)
            opt_v.step(z_v, grad_v)
            opt_t.step(z_t, grad_t)
            sums += (losses.uct_v, losses.uct_t, losses.div_v, losses.div_t, losses.total)
            batches += 1
        if batches == 0:
            raise InsufficientPairs("every batch in the epoch was smaller than 2")
        if not (np.all(np.isfinite(z_v)) and np.all(np.isfinite(z_t))):
            raise InvariantViolation(f"non-finite prototype entries after epoch {epoch}")
        means = sums / batches
        records.append(EpochRecord(epoch, *map(float, means)))

    return (
        PrototypeBank(modality=VISION, vectors=z_v),
        PrototypeBank(modality=TEXT, vectors=z_t),
        TrainHistory(records=tuple(records)),
    )


def _batch_gradients(
    xv: np.ndarray,
    xt: np.ndarray,
    z_v: np.ndarray,
    z_t: np.ndarray,
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, BatchLosses]:
    """gradients() on raw arrays; the hot path inside the epoch loop."""
    h_v, h_t = (map_targets(h, cfg.h_mapping) for h in _batch_means(xv, xt))
    uct_v, grad_t_uct = _uct_value_grads(xv, z_t, h_v, cfg.evidence)
    uct_t, grad_v_uct = _uct_value_grads(xt, z_v, h_t, cfg.evidence)
    div_v, grad_v_div = _div_value_grad(z_v)
    div_t, grad_t_div = _div_value_grad(z_t)
    grad_v = grad_v_uct + cfg.lambda_div * grad_v_div
    grad_t = grad_t_uct + cfg.lambda_div * grad_t_div
    total = uct_v + uct_t + cfg.lambda_div * (div_v + div_t)
    return grad_v, grad_t, BatchLosses(uct_v, uct_t, div_v, div_t, total)
