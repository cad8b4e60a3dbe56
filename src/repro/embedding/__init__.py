"""Edge-based network embedding (the paper's core contribution, Sec. 4)."""

from .config import DeepDirectConfig
from .deepdirect import (
    DeepDirectEmbedding,
    DeepDirectTrainer,
    EmbeddingResult,
    embed,
)
from .kernels import (
    BatchLoss,
    EStepWorkspace,
    SgnsWorkspace,
    batch_triad_labels,
    estep_batch_loss,
    fused_estep_batch,
    fused_sgns_batch,
)
from .line import LineConfig, LineEmbedding, LineResult
from .node2vec import (
    Node2VecConfig,
    Node2VecEmbedding,
    Node2VecResult,
    generate_walks,
)
from .persistence import embedding_from_arrays, embedding_to_arrays
from .patterns import (
    TriadNeighborhood,
    build_triad_neighborhoods,
    degree_pseudo_labels,
    triad_pseudo_labels,
)
from .hogwild import should_degrade
from .samplers import (
    AliasSampler,
    ConnectedPairSampler,
    SamplePlan,
    SamplePlanner,
    sample_common_neighbors,
    sample_common_neighbors_batch,
)

__all__ = [
    "AliasSampler",
    "BatchLoss",
    "ConnectedPairSampler",
    "DeepDirectConfig",
    "DeepDirectEmbedding",
    "DeepDirectTrainer",
    "EStepWorkspace",
    "EmbeddingResult",
    "LineConfig",
    "LineEmbedding",
    "LineResult",
    "Node2VecConfig",
    "Node2VecEmbedding",
    "Node2VecResult",
    "generate_walks",
    "SamplePlan",
    "SamplePlanner",
    "SgnsWorkspace",
    "TriadNeighborhood",
    "batch_triad_labels",
    "build_triad_neighborhoods",
    "degree_pseudo_labels",
    "embed",
    "embedding_from_arrays",
    "embedding_to_arrays",
    "estep_batch_loss",
    "fused_estep_batch",
    "fused_sgns_batch",
    "sample_common_neighbors",
    "sample_common_neighbors_batch",
    "should_degrade",
    "triad_pseudo_labels",
]
