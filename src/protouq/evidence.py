"""Evidence generation and Dirichlet-based uncertainty.

Similarities between an instance and a bank of prototypes are mapped
elementwise to nonnegative evidence e, which parameterizes a Dirichlet
via alpha = e + 1.  The Dirichlet strength S = sum(alpha) splits unit
mass into K belief masses b_k = e_k / S plus an overall mass psi = K / S.
The aleatoric uncertainty score is u = 1 - psi: massive accumulated
evidence means the instance sits close to many prototypes at once, which
is exactly the ambiguous case.

Instances are unit vectors; prototypes carry a learnable, unconstrained
norm.  The similarity fed to the evidence function is therefore the raw
dot product (a norm-scaled cosine), which is what lets training place
uncertainty anywhere in [0, 1) instead of being pinned near 1/2.

Every type a checkpoint stores (PrototypeBank, EvidenceConfig, RerankParams)
is defined here, beside the u it defines, so fileio needs neither train nor rerank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import _NORM_EPS, MODALITIES, EmbeddingSet, _checked_rows, _freeze, _real, _reals
from .errors import (
    DimensionMismatch,
    EmptyVector,
    InvalidConfig,
    ModalityMismatch,
    NegativeEvidence,
    ZeroPrototype,
)

RELU = "relu"
SOFTPLUS = "softplus"
EXPONENTIAL = "exponential"
EVIDENCE_KINDS = (RELU, SOFTPLUS, EXPONENTIAL)


@dataclass(frozen=True)
class EvidenceConfig:
    """Choice of evidence function and its shape parameters.

    kind: one of "relu", "softplus", "exponential".
    gamma: softplus sharpness (> 0).
    theta: softplus linear-regime threshold; for gamma * s > theta the
        function passes s through unchanged to avoid overflow.
    tau: exponential temperature (> 0), e = exp(s / tau).
    """

    kind: str = EXPONENTIAL
    gamma: float = 1.0
    theta: float = 20.0
    tau: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in EVIDENCE_KINDS:
            raise InvalidConfig(f"unknown evidence kind {self.kind!r}")
        for name in ("gamma", "theta", "tau"):
            object.__setattr__(self, name, _real(getattr(self, name), name, InvalidConfig, positive=True))


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
        _freeze(self, "vectors", vectors)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class RerankParams:
    """Penalty strengths of the vision (beta1) and text (beta2) sides."""

    beta1: float = 0.0
    beta2: float = 0.0

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            object.__setattr__(self, name, _real(getattr(self, name), name, InvalidConfig))


def generate_evidence(s, cfg: EvidenceConfig = EvidenceConfig()):
    """Map similarity (scalar or array) to nonnegative evidence.

    relu:        max(0, s)
    softplus:    log(1 + exp(gamma s)) / gamma, switching to the identity
                 once gamma s exceeds theta
    exponential: exp(s / tau)
    """
    arr = np.asarray(s, dtype=np.float64)
    if cfg.kind == RELU:
        out = np.maximum(arr, 0.0)
    elif cfg.kind == SOFTPLUS:
        scaled = cfg.gamma * arr
        capped = np.minimum(scaled, cfg.theta)
        out = np.where(scaled <= cfg.theta, np.log1p(np.exp(capped)) / cfg.gamma, arr)
    else:
        out = np.exp(arr / cfg.tau)
    return float(out) if arr.ndim == 0 else out


def evidence_slope(s, cfg: EvidenceConfig = EvidenceConfig()):
    """Derivative of generate_evidence with respect to the similarity.

    The relu subgradient at exactly 0 is taken as 0.
    """
    arr = np.asarray(s, dtype=np.float64)
    if cfg.kind == RELU:
        out = (arr > 0.0).astype(np.float64)
    elif cfg.kind == SOFTPLUS:
        scaled = cfg.gamma * arr
        capped = np.minimum(scaled, cfg.theta)
        with np.errstate(over="ignore"):  # exp(-capped) = inf gives the limit 0
            sigmoid = 1.0 / (1.0 + np.exp(-capped))
        out = np.where(scaled <= cfg.theta, sigmoid, 1.0)
    else:
        out = np.exp(arr / cfg.tau) / cfg.tau
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class DirichletState:
    """Dirichlet summary for one instance against K prototypes."""

    evidence: np.ndarray
    alpha: np.ndarray
    strength: float
    beliefs: np.ndarray
    psi: float
    u: float

    def __post_init__(self) -> None:
        for name in ("evidence", "alpha", "beliefs"):
            _freeze(self, name, getattr(self, name))

    @property
    def k(self) -> int:
        return self.evidence.shape[0]


def dirichlet_uncertainty(evidence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = 1 - K / S with S = K + sum(e), over the last axis of an evidence array.

    The one place u is computed.  Returns (u, S) so that callers needing the
    strength (the training gradient) reuse it.  u is in [0, 1) for finite
    nonnegative evidence while S < K * 2**54; from there float64 rounds u to
    exactly 1.0 (S = K * 2**54 * (1 - 2**-52) still gives 1 - 2**-53).
    """
    k = evidence.shape[-1]
    strength = k + evidence.sum(axis=-1)
    return 1.0 - k / strength, strength


def dirichlet_from_evidence(e) -> DirichletState:
    """Build the Dirichlet state for one evidence vector.

    alpha = e + 1, S = sum(alpha), b = e / S, psi = K / S, u = 1 - psi.
    The masses satisfy sum(b) + psi = 1 with every component nonnegative,
    and u is in [0, 1) up to the float64 limit dirichlet_uncertainty
    documents (u == 1.0 from S >= K * 2**54), with K = len(e).

    Raises:
        EmptyVector: e has no entries.
        NegativeEvidence: an entry is negative, NaN, infinite or not a number.
    """
    evidence = _reals(e, "evidence entries", NegativeEvidence, nonnegative=True).copy()
    if evidence.size == 0:
        raise EmptyVector("evidence vector has no entries")
    alpha = evidence + 1.0
    u, strength = dirichlet_uncertainty(evidence)
    beliefs = evidence / strength
    return DirichletState(
        evidence=evidence,
        alpha=alpha,
        strength=float(strength),
        beliefs=beliefs,
        psi=evidence.size / float(strength),
        u=float(u),
    )


def prototype_similarities(instances: EmbeddingSet, prototypes) -> np.ndarray:
    """(n, k) matrix of dot products between unit instances and prototypes."""
    if instances.d != prototypes.d:
        raise DimensionMismatch(
            f"dimension mismatch: instances d={instances.d}, prototypes d={prototypes.d}"
        )
    return instances.vectors @ prototypes.vectors.T


def uncertainty_scores(instances: EmbeddingSet, prototypes, cfg: EvidenceConfig) -> np.ndarray:
    """Aleatoric uncertainty of each instance against a prototype bank.

    The bank must come from the opposite modality: vision instances are
    scored against text prototypes and vice versa, so that uncertainty
    reflects how many cross-modal semantics an instance matches.

    Returns:
        (n,) array of u values in [0, 1), one per instance row.  Raising
        every similarity of an instance strictly raises its u.  With K
        equal similarities s and exponential evidence, u is exactly 1.0 from
        s = tau * 54 * ln 2 (about 187 at tau = 5), and exp(s / tau)
        overflows to inf, with a NumPy RuntimeWarning, from s = tau * 709.78
        (about 3549).
    """
    if prototypes.modality == instances.modality:
        raise ModalityMismatch(
            f"{instances.modality} instances must be scored against the "
            "opposite modality's prototypes"
        )
    p = prototype_similarities(instances, prototypes)
    u, _ = dirichlet_uncertainty(generate_evidence(p, cfg))
    return u
