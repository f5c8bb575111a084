"""Prototype-based aleatoric uncertainty for frozen cross-modal embeddings.

The package trains small prototype banks against fixed vision and text
embedding sets, scores each instance with a Dirichlet-style uncertainty in
[0, 1), and uses those scores to re-rank retrieval and to analyze where a
corpus is genuinely ambiguous.
"""

from .embed import (
    MODALITIES,
    TEXT,
    VISION,
    EmbeddingSet,
    PairSet,
    SimilarityMatrix,
    batch_means,
    cosine,
    normalize_rows,
    similarity_matrix,
)
from .errors import ProtoUQError
from .fileio import (
    Checkpoint,
    read_checkpoint,
    read_embeddings,
    read_embeddings_csv,
    read_pairs,
    write_checkpoint,
    write_embeddings,
    write_pairs,
)
from .evidence import (
    EVIDENCE_KINDS,
    DirichletState,
    EvidenceConfig,
    dirichlet_from_evidence,
    generate_evidence,
    evidence_slope,
    prototype_similarities,
    uncertainty_scores,
)
from .metrics import (
    DIRECTIONS,
    T2V,
    V2T,
    RemovalCurve,
    RetrievalReport,
    entropy,
    evaluate_retrieval,
    jsd,
    msvd_collision_logprob,
    pearson,
    removal_curve,
    retrieval_ranks,
    softmax,
)
from .rerank import DEFAULT_BETA_GRID, RerankParams, apply_rerank, fit_betas
from .synth import (
    DEFAULT_CORPUS_SPEC,
    AmbiguityLabels,
    SyntheticSpec,
    generate_corpus,
    latent_directions,
)
from .train import (
    PrototypeBank,
    TrainConfig,
    TrainHistory,
    gradients,
    init_prototypes,
    loss_div,
    loss_uct,
    map_targets,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityLabels",
    "Checkpoint",
    "DEFAULT_BETA_GRID",
    "DEFAULT_CORPUS_SPEC",
    "DIRECTIONS",
    "DirichletState",
    "EVIDENCE_KINDS",
    "EmbeddingSet",
    "EvidenceConfig",
    "MODALITIES",
    "PairSet",
    "PrototypeBank",
    "ProtoUQError",
    "RemovalCurve",
    "RerankParams",
    "RetrievalReport",
    "SimilarityMatrix",
    "SyntheticSpec",
    "T2V",
    "TEXT",
    "TrainConfig",
    "TrainHistory",
    "V2T",
    "VISION",
    "apply_rerank",
    "batch_means",
    "cosine",
    "dirichlet_from_evidence",
    "entropy",
    "evaluate_retrieval",
    "evidence_slope",
    "fit_betas",
    "generate_corpus",
    "generate_evidence",
    "gradients",
    "init_prototypes",
    "jsd",
    "latent_directions",
    "loss_div",
    "loss_uct",
    "map_targets",
    "msvd_collision_logprob",
    "normalize_rows",
    "pearson",
    "prototype_similarities",
    "read_checkpoint",
    "read_embeddings",
    "read_embeddings_csv",
    "read_pairs",
    "removal_curve",
    "retrieval_ranks",
    "similarity_matrix",
    "softmax",
    "train",
    "uncertainty_scores",
    "write_checkpoint",
    "write_embeddings",
    "write_pairs",
    "__version__",
]
