"""Hierarchical multiplex graph embedding.

Unsupervised node embeddings for graphs whose nodes interact through many
relation types. Trainable softmax-weighted combinations condense the
adjacency matrices layer by layer into latent graphs while per-dimension
GCNs with attention refine the node features; training maximizes mutual
information between node patches and a global summary. Ships with a
stochastic-block-model benchmark generator, evaluation tools for link
prediction and node classification, and a CLI.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataFormatError, HmgeError, NumericError
from .model import (
    ForwardTrace,
    HmgeConfig,
    HmgeParams,
    LinearParams,
    encode,
    init_params,
)
from .multiplex import (
    MultiplexGraph,
    SparseAdjacency,
    load_multiplex,
    normalize_adjacency,
    save_multiplex,
)
from .sbm import SbmConfig, SynthDataset, generate_multiplex
from .training import AdamState, TrainConfig, TrainResult, infomax_loss, train

__all__ = [
    "AdamState",
    "ConfigError",
    "DataFormatError",
    "ForwardTrace",
    "HmgeConfig",
    "HmgeError",
    "HmgeParams",
    "LinearParams",
    "MultiplexGraph",
    "NumericError",
    "SbmConfig",
    "SparseAdjacency",
    "SynthDataset",
    "TrainConfig",
    "TrainResult",
    "encode",
    "generate_multiplex",
    "infomax_loss",
    "init_params",
    "load_multiplex",
    "normalize_adjacency",
    "save_multiplex",
    "train",
]
