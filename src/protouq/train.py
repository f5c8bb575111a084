"""The training loop of the prototype banks (evidence.PrototypeBank).

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
    TEXT,
    VISION,
    _NORM_EPS,
    EmbeddingSet,
    PairSet,
    _batch_means,
    _check_cross_modal,
    _grouped,
    _integer,
    _real,
    _reals,
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
from .evidence import (
    EvidenceConfig,
    PrototypeBank,
    dirichlet_uncertainty,
    evidence_slope,
    generate_evidence,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

H_CLAMP = "clamp"
H_AFFINE = "affine"
H_MAPPINGS = (H_CLAMP, H_AFFINE)


def init_prototypes(k: int, d: int, seed: int, modality: str = VISION) -> PrototypeBank:
    """Seeded Xavier-uniform bank: entries drawn from +-sqrt(6 / (2 d))."""
    _integer(k, "k", InvalidConfig, 1)
    _integer(d, "d", DimensionTooSmall, 2)
    _integer(seed, "seed", InvalidConfig, 0)
    if 8 * k * d > np.iinfo(np.intp).max:
        raise InvalidConfig(f"a ({k}, {d}) float64 bank exceeds NumPy's largest array")
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
        for name, low in (("epochs", 1), ("seed", 0), ("k", 1), ("batch_size", 2)):
            _integer(getattr(self, name), name, InvalidConfig, low)
        for name, positive in (("learning_rate", True), ("lambda_div", False)):
            object.__setattr__(self, name, _real(getattr(self, name), name, InvalidConfig, positive))
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


def _uct_value(u: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The uncertainty loss mean((u - h)^2) over the last axis, and the gap u - h."""
    diff = u - h
    return np.add.reduce(diff * diff, axis=-1) / diff.shape[-1], diff


def loss_uct(u: np.ndarray, h: np.ndarray) -> float:
    """Mean squared error between uncertainties and their targets.  A NaN,
    infinite or non-numeric entry raises InvariantViolation."""
    u, h = (_reals(x, "u and h", InvariantViolation) for x in (u, h))
    if u.shape != h.shape:
        raise LengthMismatch(f"lengths differ: {u.shape[0]} vs {h.shape[0]}")
    if u.size == 0:
        raise LengthMismatch("loss over zero instances is undefined")
    return float(_uct_value(u, h)[0])


def _div_value(vectors: np.ndarray) -> tuple[np.ndarray, ...]:
    """The diversity loss of a raw (k, d) bank, or of each bank of a
    (..., k, d) stack, mean(cos^2) over all row pairs, with the clipped
    cosine matrices, their squares, the unit rows and the norms it used."""
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=-1))
    if norms.min() < _NORM_EPS:
        raise ZeroPrototype("a prototype row has near-zero norm")
    unit = vectors / norms[..., None]
    gram = unit @ unit.swapaxes(-1, -2)
    gram.clip(-1.0, 1.0, out=gram)
    squared = gram * gram
    value = np.add.reduce(squared, axis=(-2, -1)) / (squared.shape[-1] * squared.shape[-1])
    return value, gram, squared, unit, norms


def loss_div(bank: PrototypeBank) -> float:
    """Mean squared pairwise cosine over the bank, diagonal included.

    The i = j terms contribute exactly K, so the loss is bounded below by
    1 / K, attained when all off-diagonal cosines vanish.
    """
    return float(_div_value(bank.vectors)[0])


def _div_value_grad(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diversity loss and its gradient for a raw (..., k, d) bank stack."""
    value, gram, squared, unit, norms = _div_value(vectors)
    k = vectors.shape[-2]
    # d/dz_a of sum_ij cos^2: diagonal terms are constant, and including
    # j = a in both partial sums below cancels exactly, so no masking.
    grad = gram @ unit
    grad -= np.add.reduce(squared, axis=-1)[..., None] * unit
    grad *= 4.0 / (k * k)
    grad /= norms[..., None]
    return value, grad


def _uct_value_grads(
    instances: np.ndarray,
    bank_vectors: np.ndarray,
    targets: np.ndarray,
    cfg: EvidenceConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Uncertainty regression loss of each direction and its bank gradient.

    instances: (..., n, d) unit rows, each set scored against its own bank
    of bank_vectors: (..., k, d).  targets: (..., n).
    u_i = 1 - K / S_i with S_i = K + sum_k f(x_i . z_k), so

        dL/dz_k = sum_i (2/n) (u_i - h_i) (K / S_i^2) f'(p_ik) x_i.

    An S past about 1.3e154 squares to inf although K / S^2 is a finite
    number, so the rows whose square overflows take K / S / S instead and
    every other row K / S^2.
    """
    n = instances.shape[-2]
    k = bank_vectors.shape[-2]
    p = instances @ bank_vectors.swapaxes(-1, -2)
    evidence = generate_evidence(p, cfg)
    u, strength = dirichlet_uncertainty(evidence)
    value, weight = _uct_value(u, targets)
    with np.errstate(over="ignore"):
        slope = strength * strength
    huge = np.isinf(slope)
    np.divide(k, slope, out=slope)
    slope[huge] = k / strength[huge] / strength[huge]
    weight *= 2.0 / n
    weight *= slope
    grad = evidence_slope(p, cfg)
    grad *= weight[..., None]
    return value, grad.swapaxes(-1, -2) @ instances


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
    grad, losses = _batch_gradients(
        np.stack((txt.vectors, vis.vectors)), np.stack((bank_v.vectors, bank_t.vectors)), cfg
    )
    return grad[0], grad[1], losses


class _AdamState:
    """Adam with bias correction over one parameter array.

    step() updates the moments m and v in place, then params, by
    params -= lr * m_hat / (sqrt(v_hat) + eps).  Every operation rounds in
    the order of that expression, so the in-place updates give its bits.
    """

    def __init__(self, shape: tuple[int, ...], lr: float):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        grad_sq = (1.0 - ADAM_BETA2) * grad
        grad_sq *= grad
        self.v += grad_sq
        update = self.m / (1.0 - ADAM_BETA1 ** self.t)
        update *= self.lr
        denom = np.divide(self.v, 1.0 - ADAM_BETA2 ** self.t, out=grad_sq)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        params -= update


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

    # Both banks are one (2, k, d) parameter array, vision then text, so
    # one Adam state steps them together; Adam is elementwise.
    z = np.stack((bank_v.vectors, bank_t.vectors))
    opt = _AdamState(z.shape, cfg.learning_rate)
    # Every batch gathers its text rows, then its vision rows, into this
    # one buffer; a short last batch uses buf[:, :m].
    buf = np.empty((2, min(cfg.batch_size, vis.n), vis.d))

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

        sums = [0.0] * 5
        batches = 0
        for start in range(0, vis.n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            if rows.size < 2:
                continue
            x = buf[:, :rows.size]
            # check_against has validated every index, so "clip" clips
            # nothing.  With out=, mode="raise" gathers into a temporary and
            # copies it over: a pair of 256-row gathers at d = 128 took
            # 62-69 us that way, 27-31 us with "clip", and 190-230 us as
            # fancy-index copies into new arrays (2-vCPU x86-64, NumPy 2.4).
            np.take(txt.vectors, chosen[start:start + cfg.batch_size], axis=0, out=x[0], mode="clip")
            np.take(vis.vectors, rows, axis=0, out=x[1], mode="clip")
            grad, losses = _batch_gradients(x, z, cfg)
            opt.step(z, grad)
            terms = (losses.uct_v, losses.uct_t, losses.div_v, losses.div_t, losses.total)
            sums = [s + t for s, t in zip(sums, terms)]
            batches += 1
        if batches == 0:
            raise InsufficientPairs("every batch in the epoch was smaller than 2")
        if not np.all(np.isfinite(z)):
            raise InvariantViolation(f"non-finite prototype entries after epoch {epoch}")
        records.append(EpochRecord(epoch, *(s / batches for s in sums)))

    return (
        PrototypeBank(modality=VISION, vectors=z[0]),
        PrototypeBank(modality=TEXT, vectors=z[1]),
        TrainHistory(records=tuple(records)),
    )


def _batch_gradients(x: np.ndarray, z: np.ndarray, cfg: TrainConfig) -> tuple[np.ndarray, BatchLosses]:
    """gradients() on one stacked batch; the hot path inside the epoch loop.

    x is (2, n, d): the batch's text rows, then its vision rows.  z is
    (2, k, d): the vision bank, then the text bank.  x[i] is scored against
    z[i], so each kernel runs once on the stack for both directions, and
    the (2, k, d) gradient returned is z's.
    """
    h = map_targets(_batch_means(x, x[::-1]), cfg.h_mapping)
    uct, grad = _uct_value_grads(x, z, h, cfg.evidence)
    if cfg.lambda_div == 0.0:
        # Adding 0 * grad could only turn a -0.0 entry into +0.0, and Adam's
        # moments cannot tell the two apart, so the gradient is skipped.
        div = _div_value(z)[0]
    else:
        div, grad_div = _div_value_grad(z)
        grad_div *= cfg.lambda_div
        grad += grad_div
    (uct_t, uct_v), (div_v, div_t) = uct.tolist(), div.tolist()
    total = uct_v + uct_t + cfg.lambda_div * (div_v + div_t)
    return grad, BatchLosses(uct_v, uct_t, div_v, div_t, total)
