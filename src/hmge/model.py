"""Hierarchical multiplex graph encoder.

Each layer runs two phases: (1) a GCN per current dimension followed by a
trainable attention aggregation of the per-dimension embeddings; (2) a
softmax-weighted combination of the current adjacency matrices into fewer
latent adjacencies. The combination is linear, so each level's latent
graphs are convex combinations of the input graphs, built from the inputs
and normalized per level; inputs and weights are non-negative, so no ReLU
follows it. After the last layer a plain GCN on the single remaining
latent graph produces the embeddings Z. A bilinear discriminator against
the mean-readout summary drives the InfoMax loss.

The linear-aggregation baseline (one GCN per dimension plus one attention
step, no adjacency combination) doubles as the zero-layer configuration.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .errors import ConfigError, DataFormatError
from .multiplex import (
    MultiplexGraph,
    SparseAdjacency,
    index_dtype,
    normalize_adjacency,
    write_table,
)

MODEL_FORMAT_VERSION = 2
# glibc malloc policy for the encoder (mallopt parameters from malloc.h). By
# default glibc serves large arrays from fresh mmaps and trims the free top
# of the heap, so every training epoch faults its tape arrays in again once
# the previous epoch's tape is released. With every array below 32 MiB on
# the heap and no trim below 512 MiB free, the next epoch reuses those
# pages. On a 2-core x86-64 Xeon, a steady epoch of the three benchmark
# workloads went from 3.9k-8.7k minor faults to 0, with bitwise-equal
# losses and no higher peak RSS.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 512 << 20


def set_malloc(settings: dict[int, int]) -> None:
    """Call glibc's mallopt(param, value) for each item of ``settings``.
    Elsewhere than on glibc it does nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    for param, value in settings.items():
        mallopt(param, value)


@functools.cache
def pin_malloc() -> None:
    """Set the glibc malloc policy above, once per process; ``encode`` and
    ``training.train`` call it first. The policy is process-wide: it stays
    set for the rest of the process, including code outside hmge.
    """
    set_malloc({M_MMAP_THRESHOLD: MMAP_THRESHOLD_BYTES, M_TRIM_THRESHOLD: TRIM_THRESHOLD_BYTES})


def _validate_schedule(schedule: tuple[int, ...], num_layers: int) -> None:
    if len(schedule) != num_layers + 1:
        raise ConfigError(
            f"dims schedule needs {num_layers + 1} entries, got {len(schedule)}"
        )
    if any(d < 1 for d in schedule):
        raise ConfigError(f"dims schedule entries must be positive: {schedule}")
    if num_layers >= 1 and schedule[-1] != 1:
        raise ConfigError(f"dims schedule must end at a single dimension: {schedule}")
    for prev, nxt in zip(schedule, schedule[1:]):
        # Strictly decreasing until the width hits 1; trailing 1s are allowed.
        if nxt > prev or (nxt == prev and nxt != 1):
            raise ConfigError(f"dims schedule must decrease towards 1: {schedule}")


@dataclass(frozen=True)
class HmgeConfig:
    """Encoder hyperparameters.

    ``dims_schedule`` lists the dimension count entering each level,
    ``[D_0, D_1, ..., D_L]`` with ``D_L = 1``; None derives a halving
    schedule. Every non-linearity of the encoder is a ReLU.
    """

    embed_size: int = 64
    num_layers: int = 2
    dims_schedule: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.embed_size < 1:
            raise ConfigError(f"embed_size must be positive, got {self.embed_size}")
        if self.num_layers < 0:
            raise ConfigError(f"num_layers must be >= 0, got {self.num_layers}")
        if self.dims_schedule is not None:
            schedule = tuple(int(d) for d in self.dims_schedule)
            object.__setattr__(self, "dims_schedule", schedule)
            _validate_schedule(schedule, self.num_layers)

    def schedule_for(self, num_dims: int) -> tuple[int, ...]:
        """Resolve the dimension schedule for a graph with ``num_dims`` inputs."""
        if self.num_layers == 0:
            if self.dims_schedule is not None and self.dims_schedule != (num_dims,):
                raise ConfigError(
                    f"schedule {self.dims_schedule} inconsistent with zero layers"
                )
            return (num_dims,)
        if self.dims_schedule is not None:
            if self.dims_schedule[0] != num_dims:
                raise ConfigError(
                    f"schedule starts at {self.dims_schedule[0]} but the graph has "
                    f"{num_dims} dimensions"
                )
            return self.dims_schedule
        schedule = [num_dims]
        for _ in range(self.num_layers - 1):
            schedule.append(max(1, math.ceil(schedule[-1] / 2)))
        schedule.append(1)
        _validate_schedule(tuple(schedule), self.num_layers)
        return tuple(schedule)


class _Params:
    """What the two parameter containers share."""

    def copy(self):
        """A copy holding a copy of every array."""
        return structure_from_leaves(self, [arr.copy() for _, arr, _, _ in param_leaves(self)])


@dataclass
class LayerParams:
    """Trainables of one hierarchical layer, stacked over its input dimensions."""

    alpha: np.ndarray    # combination logits, D_in x D_out
    gcn_w: np.ndarray    # D_in x prev_width x M
    attn_v: np.ndarray   # D_in x M x M
    attn_y: np.ndarray   # D_in x M


@dataclass
class HmgeParams(_Params):
    """Full parameter set: per-layer trainables, final GCN weight, discriminator."""

    layers: list[LayerParams]
    final_w: np.ndarray
    disc_q: np.ndarray


@dataclass
class LinearParams(_Params):
    """Parameters of the linear-aggregation baseline: one GCN weight per
    dimension, stacked, with one attention aggregation on top."""

    gcn_w: np.ndarray    # D x F x M
    attn_v: np.ndarray   # D x M x M
    attn_y: np.ndarray   # D x M
    disc_q: np.ndarray


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _attention_init(rng: np.random.Generator, m: int, num_dims: int):
    """Identity-like V and positive y for each dimension, stacked.

    Embeddings are non-negative after ReLU, so positive-leaning scores keep
    the signed attention normalization away from its near-zero-sum
    pathology at the start of training (sign-symmetric draws blow the
    weights up by orders of magnitude and stall learning).
    """
    v, y = np.empty((num_dims, m, m)), np.empty((num_dims, m))
    for d in range(num_dims):
        v[d] = np.eye(m) + _uniform_init(rng, (m, m), m) * 0.1
        y[d] = rng.uniform(0.0, 1.0 / math.sqrt(m), size=m)
    return v, y


def init_params(
    config: HmgeConfig, num_dims: int, num_features: int, rng: np.random.Generator
):
    """Fresh parameters: uniform(+-1/sqrt(fan_in)) GCN/discriminator weights,
    identity-leaning attention, zero alpha logits.

    Zero logits make every input dimension contribute equally at step 0.
    Returns LinearParams when the config has no hierarchical layers.
    """
    m = config.embed_size
    if config.num_layers == 0:
        gcn_w = _uniform_init(rng, (num_dims, num_features, m), num_features)
        attn_v, attn_y = _attention_init(rng, m, num_dims)
        return LinearParams(gcn_w, attn_v, attn_y, _uniform_init(rng, (m, m), m))
    schedule = config.schedule_for(num_dims)
    layers = []
    width = num_features
    for l in range(config.num_layers):
        d_in, d_out = schedule[l], schedule[l + 1]
        attn_v, attn_y = _attention_init(rng, m, d_in)
        layers.append(
            LayerParams(
                alpha=np.zeros((d_in, d_out)),
                gcn_w=_uniform_init(rng, (d_in, width, m), width),
                attn_v=attn_v,
                attn_y=attn_y,
            )
        )
        width = m
    final_w = _uniform_init(rng, (m, m), m)
    disc_q = _uniform_init(rng, (m, m), m)
    return HmgeParams(layers, final_w, disc_q)


def check_params(config: HmgeConfig, params, num_dims: int,
                 num_features: int | None = None) -> None:
    """Raise ConfigError unless ``params`` are of the encoder ``config`` describes.

    Zero layers take LinearParams; L layers take HmgeParams with L layers.
    Every array must have the shape a fresh parameter set takes for
    ``num_dims`` input dimensions and ``num_features`` features per node
    (any width when None): alpha follows ``schedule_for``, the other arrays
    the embed size.
    """
    schedule, m = config.schedule_for(num_dims), config.embed_size
    kind = HmgeParams if config.num_layers else LinearParams
    layers = len(params.layers) if isinstance(params, HmgeParams) else 0
    if not isinstance(params, kind) or layers != config.num_layers:
        raise ConfigError(
            f"a {config.num_layers}-layer config takes {kind.__name__}, "
            f"got {layers}-layer {type(params).__name__}"
        )
    if kind is LinearParams:
        shapes = {"v": (num_dims, m, m), "y": (num_dims, m)}
    else:
        shapes = {}
        for l, (d_in, d_out) in enumerate(zip(schedule, schedule[1:])):
            shapes |= {f"alpha_{l}": (d_in, d_out), f"w_{l}": (d_in, m, m),
                       f"v_{l}": (d_in, m, m), f"y_{l}": (d_in, m)}
        shapes["final_w"] = (m, m)
    shapes["disc_q"] = (m, m)
    leaves = {name: arr.shape for name, arr, _, _ in param_leaves(params)}
    width = leaves.get("w_0", ())[1:2] if num_features is None else (num_features,)
    shapes["w_0"] = (num_dims, *width, m)
    for name, shape in shapes.items():
        if leaves.get(name) != shape:
            raise ConfigError(f"{name} is {leaves.get(name)}, the config takes {shape}")


@dataclass
class ForwardTrace:
    """Everything one encode pass computed, layer by layer; the latent graphs
    of level l are formed from ``mixing[l]`` (P_l) when first read."""

    mixing: list[np.ndarray]
    embeddings: list[np.ndarray]
    attention: list[np.ndarray]
    z: np.ndarray
    summary: np.ndarray
    plan: EncodePlan = field(repr=False)

    @functools.cached_property
    def latent_adjacencies(self) -> list[list[SparseAdjacency]]:
        union, stacked = self.plan.union, self.plan.stacked
        return [[union.to_adjacency(col) for col in (stacked.T @ p).T] for p in self.mixing]


# ---------------------------------------------------------------------------
# forward-pass plumbing


def _block_diagonal(blocks: list[SparseAdjacency]) -> sp.csr_matrix:
    """The D N x N blocks as one block-diagonal CSR matrix over D*N nodes.

    Block k's column indices move right by k*N and its row pointers by the
    entry count of the blocks before it, in ``index_dtype``.
    """
    n, size = blocks[0].num_nodes, len(blocks) * blocks[0].num_nodes
    offsets = np.cumsum([0] + [b.nnz for b in blocks])
    index = index_dtype(size, offsets[-1])
    indptr = np.empty(size + 1, dtype=index)
    indices = np.empty(offsets[-1], dtype=index)
    for k, b in enumerate(blocks):
        np.add(b.indptr[:-1], offsets[k], out=indptr[k * n:(k + 1) * n], casting="unsafe")
        np.add(b.indices, k * n, out=indices[offsets[k]:offsets[k + 1]], dtype=index)
    indptr[-1] = offsets[-1]
    data = np.concatenate([b.values for b in blocks])
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


class EncodePlan:
    """Per-graph precomputation shared by every epoch.

    Holds the first-level GCN operator (``first_gcn``: the D input graphs,
    each normalized to D^{-1/2}(A + I)D^{-1/2}, as one block-diagonal scipy
    CSR matrix over D*N nodes, so no epoch converts it again), the
    first-level propagation of the clean features (``feature_prop``) and,
    with hierarchical layers, the latent-path plan ``norm_plan``
    (``autodiff.NormalizePlan``). The operator and the propagation are built
    on first access, so a plan held across ``train`` (which builds its own)
    holds neither until its first product. The union pattern (``union``) and
    the input values stacked one row per dimension on it (``stacked``) are
    built on first access too, which at L = 1 neither ``train`` nor
    ``encode`` makes. The union comes from one sort of all E stored input
    entries (``autodiff.UnionPattern``): O(E log E) time and O(E) memory.
    """

    def __init__(self, graph: MultiplexGraph, config: HmgeConfig):
        config.schedule_for(graph.num_dims)  # raises ConfigError on a mismatch
        self.num_dims = graph.num_dims
        self.num_nodes = graph.num_nodes
        self.dimensions = graph.dimensions
        self.features = graph.features
        # With one-hot node features the first GCN collapses to A_d @ W_d
        # (and ``shuffled_first_gcn`` @ W on the corrupted side): no propagation.
        self.identity_features = _is_identity(graph.features)
        self.norm_plan = ad.NormalizePlan(graph.dimensions) if config.num_layers >= 1 else None

    @functools.cached_property
    def first_gcn(self) -> sp.csr_matrix:
        return _block_diagonal([normalize_adjacency(d) for d in self.dimensions])

    @functools.cached_property
    def feature_prop(self) -> np.ndarray | None:
        return None if self.identity_features else self.propagate(self.features)

    @property
    def union(self) -> ad.UnionPattern | None:
        return None if self.norm_plan is None else self.norm_plan.pattern

    @property
    def stacked(self) -> sp.csr_matrix | None:
        return None if self.norm_plan is None else self.norm_plan.stacked

    def shuffled_first_gcn(self, perm: np.ndarray) -> sp.csr_matrix:
        """``first_gcn`` with block d's column j moved to column perm[j], so
        its product with a (D, N, M) stack W is A_d @ W_d[perm] for every d
        and its transpose pulls the gradient back to W unshuffled. Only
        the column indices are new (one gather over the entries); the
        values and row pointers are ``first_gcn``'s own."""
        gcn, n = self.first_gcn, self.num_nodes
        index = gcn.indices.dtype
        columns = (np.arange(0, self.num_dims * n, n, dtype=index)[:, None] + perm).astype(index)
        return sp.csr_matrix((gcn.data, np.take(columns.ravel(), gcn.indices), gcn.indptr),
                             shape=gcn.shape)

    def propagate(self, features: np.ndarray) -> np.ndarray:
        """A_d @ X for every input dimension d, as a (D, N, F) stack."""
        stacked = np.tile(features, (self.num_dims, 1))
        return (self.first_gcn @ stacked).reshape(
            self.num_dims, self.num_nodes, -1
        )


def param_leaves(params, train_alpha: bool = True):
    """Yield (name, array, weight_decay, trainable) in canonical order.

    Decay applies to GCN weights, attention V matrices, and the
    discriminator; alpha logits and attention y vectors are exempt. The
    order here defines the tape-parameter order everywhere (trainer,
    gradient checks, model files); ``structure_from_leaves`` inverts it.
    """
    if isinstance(params, HmgeParams):
        for l, layer in enumerate(params.layers):
            yield f"alpha_{l}", layer.alpha, False, train_alpha
            yield f"w_{l}", layer.gcn_w, True, True
            yield f"v_{l}", layer.attn_v, True, True
            yield f"y_{l}", layer.attn_y, False, True
        yield "final_w", params.final_w, True, True
        yield "disc_q", params.disc_q, True, True
    elif isinstance(params, LinearParams):
        yield "w_0", params.gcn_w, True, True
        yield "v", params.attn_v, True, True
        yield "y", params.attn_y, False, True
        yield "disc_q", params.disc_q, True, True
    else:
        raise ConfigError(f"unknown parameter container {type(params).__name__}")


def structure_from_leaves(params, leaves):
    """A container of the kind and shape of ``params`` holding ``leaves``
    (arrays or tape nodes), given in ``param_leaves`` order."""
    it = iter(leaves)
    if isinstance(params, HmgeParams):
        layers = [LayerParams(next(it), next(it), next(it), next(it)) for _ in params.layers]
        out = HmgeParams(layers, next(it), next(it))
    else:
        out = LinearParams(next(it), next(it), next(it), next(it))
    leftover = object()
    if next(it, leftover) is not leftover:
        raise ValueError("leaf count does not match the parameter template")
    return out


def lift_params(tape: ad.Tape, params, train_alpha: bool = True, constant: bool = False):
    """Register all parameter arrays on a tape; returns their container of nodes.

    The nodes hold the arrays themselves, not copies: an optimizer that
    steps them in place after ``Tape.backward`` steps the next tape's leaves.
    """
    nodes = []
    for name, arr, _, trainable in param_leaves(params, train_alpha):
        if constant or not trainable:
            nodes.append(tape.constant(arr, name=name))
        else:
            nodes.append(tape.parameter(arr, name=name))
    return structure_from_leaves(params, nodes)


def _is_identity(features: np.ndarray) -> bool:
    n, f = features.shape
    if n != f:
        return False
    if np.count_nonzero(features) != n:
        return False
    return bool(np.all(np.diagonal(features) == 1.0))


def _stack_attention(pre: ad.Node, v: ad.Node, y: ad.Node):
    """Rectify a (D, N, M) pre-activation stack in place and aggregate it by
    attention, one op (``autodiff.attend``); returns (H (N, M) node,
    beta (N, D) array)."""
    h = ad.attend(pre, v, y)
    return h, h.cache()["beta"]


def build_latent_structure(plan: EncodePlan, pnodes) -> list[ad.Node]:
    """Phase-two chain: every layer's latent adjacencies; returns their mixing nodes.

    Latent structure depends only on the combination logits, so it is built
    once and shared by the clean and corrupted embedding passes. Layer l
    combines the previous level's graphs linearly with softmax_cols(alpha_l),
    so level l is a convex combination of the input graphs with weights
    P_l = softmax_cols(alpha_0) ... softmax_cols(alpha_l): one small
    ``matmul`` per layer composes P_l. Inputs and weights are non-negative
    (``MultiplexGraph`` refuses negative values), so no ReLU follows.

    P_l's node is the only tape parent of level l's graphs. Their consumers
    cache what they read on that node and pull their gradient straight back
    to P_l: ``spmm_var`` builds an inner level's value block, while the head
    of ``infomax_bce`` and ``encode`` apply the last graph through the inputs.
    """
    levels: list[ad.Node] = []
    for layer in pnodes.layers:
        weights = ad.softmax_cols(layer.alpha)
        levels.append(weights if not levels else ad.matmul(levels[-1], weights))
    return levels


def _first_level(plan: EncodePlan, w: ad.Node, perm) -> ad.Node:
    """A_d @ X @ W_d for every input dimension d, as a (D, N, M) stack of
    pre-activations; its consumer applies the ReLU.

    X is the feature matrix, its rows shuffled by ``perm`` unless that is
    None (the clean pass). With one-hot features X W_d is W_d, and the
    shuffle moves into the operator (``EncodePlan.shuffled_first_gcn``), so
    no shuffled copy of W is formed.
    """
    if plan.identity_features:
        gcn = plan.first_gcn if perm is None else plan.shuffled_first_gcn(perm)
        return ad.spmm(gcn, w)
    prop = plan.feature_prop if perm is None else plan.propagate(plan.features[perm])
    return ad.batched_matmul(w.tape.constant(prop), w)


def build_embedding_chain(plan: EncodePlan, pnodes, perm, latent):
    """Phase-one chain for one feature input; returns (h per layer, beta per layer).

    ``perm`` shuffles the feature rows for the corrupted pass and is None
    for the clean one. ``latent[l]`` is the mixing node of the latent
    adjacencies produced by layer l. Every layer's GCN product is a
    pre-activation stack that ``_stack_attention`` rectifies and aggregates
    in one op; beta comes back as an array. The chain ends at the last
    layer's attention output h_L; the output head on the last latent graph
    (``build_forward``) reads it from there.
    """
    layers = pnodes.layers
    pre = _first_level(plan, layers[0].gcn_w, perm)
    h_layers, betas = [], []
    for l, layer in enumerate(layers):
        h, beta = _stack_attention(pre, layer.attn_v, layer.attn_y)
        h_layers.append(h)
        betas.append(beta)
        if l + 1 < len(layers):
            prop = ad.spmm_var(latent[l], plan.norm_plan, h)
            pre = ad.batched_matmul(prop, layers[l + 1].gcn_w)
    return h_layers, betas


def build_forward(plan: EncodePlan, pnodes, perms):
    """The encoder of the lifted parameters' kind; returns (latent, head, chains).

    One chain (h per layer, beta per layer) per feature-row shuffle in
    ``perms`` (None for the clean pass). The embeddings are z = S h W of
    each chain's last h, with (P, its NormalizePlan, W) the ``head``: the
    last level's mixing node, whose one latent graph is S, and ``final_w``;
    S is applied through the inputs (``NormalizePlan.through_inputs``), so
    the last level builds no value block. The head is linear: clipping the
    output space measurably discards class information, and the two-layer
    expansion of this architecture is stated without a trailing
    non-linearity. The hierarchical encoder shares its latent caches across
    chains; the linear baseline, one GCN per dimension with one attention
    on top, has none and an empty head (z = h).
    """
    if isinstance(pnodes, HmgeParams):
        latent = build_latent_structure(plan, pnodes)
        head = (latent[-1], plan.norm_plan, pnodes.final_w)
        return latent, head, [build_embedding_chain(plan, pnodes, perm, latent) for perm in perms]
    chains = []
    for perm in perms:
        h, beta = _stack_attention(_first_level(plan, pnodes.gcn_w, perm), pnodes.attn_v,
                                   pnodes.attn_y)
        chains.append(([h], [beta]))
    return [], (), chains


def readout(z: np.ndarray) -> np.ndarray:
    """Graph summary: the mean of all node embeddings."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("readout expects an N x M matrix")
    return z.mean(axis=0)


# ---------------------------------------------------------------------------
# encode entry points


def encode(
    graph: MultiplexGraph,
    params,
    config: HmgeConfig,
    *,
    plan: EncodePlan | None = None,
) -> ForwardTrace:
    """Run the encoder and capture every intermediate product.

    With zero layers this runs the linear-aggregation baseline; otherwise
    z = (S h) W, with S the last latent graph applied through the inputs as
    in training (``NormalizePlan.through_inputs``), in either kernel mode.
    ``params`` must pass ``check_params``. A supplied ``plan`` must have been
    built from this graph's dimensions and features, and with hierarchical
    layers when ``config`` has them. On glibc it first sets the
    process-wide malloc policy of ``pin_malloc``, as ``training.train`` does.
    """
    pin_malloc()
    if plan is None:
        plan = EncodePlan(graph, config)
    elif plan.features is not graph.features and not np.array_equal(
        plan.features, graph.features
    ):
        raise ConfigError("encode plan was built from another graph's features")
    elif plan.dimensions is not graph.dimensions and not (
        len(plan.dimensions) == len(graph.dimensions)
        and all(a.equals(b) for a, b in zip(plan.dimensions, graph.dimensions))
    ):
        raise ConfigError("encode plan was built from another graph's dimensions")
    elif config.num_layers > 0 and plan.norm_plan is None:
        raise ConfigError("encode plan was built for zero layers")
    check_params(config, params, graph.num_dims, graph.num_features)
    tape = ad.Tape()
    latent, head, chains = build_forward(plan, lift_params(tape, params, constant=True), [None])
    h_nodes, betas = chains[0]
    z = h_nodes[-1].value
    if head:  # z = (S h) W, off the tape, S applied through the inputs
        mixing, norm, w = head
        z = norm.through_inputs(norm.latent(mixing)["dn"], mixing.value[:, 0], z)[0] @ w.value
    trace = ForwardTrace(
        mixing=[p.value for p in latent],
        embeddings=[h.value for h in h_nodes],
        attention=betas,
        z=z,
        summary=readout(z),
        plan=plan,
    )
    tape.release()
    return trace


# ---------------------------------------------------------------------------
# exports and model files


def softmax_alpha(alpha_logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(alpha_logits, dtype=np.float64)
    w = np.exp(logits - logits.max(axis=0, keepdims=True))
    return w / w.sum(axis=0, keepdims=True)


def export_combination_weights(params: HmgeParams, out_dir) -> list[Path]:
    """Write softmax-normalized combination weights as alpha_l<k>.csv files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for l, layer in enumerate(params.layers):
        weights = softmax_alpha(layer.alpha)
        path = out / f"alpha_l{l}.csv"
        write_table(path, weights, "%r", ",")
        written.append(path)
    return written


def export_embeddings(z: np.ndarray, path) -> Path:
    path = Path(path)
    write_table(path, np.atleast_2d(z).astype(np.float64, copy=False), "%r", ",")
    return path


def save_model(path, config: HmgeConfig, params, identity_features: bool = False) -> None:
    """Versioned binary dump of a trained parameter set (npz container).

    Format 2 stores every stacked parameter array under its ``param_leaves``
    name and records whether the model was trained on one-hot node features.
    The config keeps ``"activation": "relu"``, the encoder's one
    non-linearity and the only value ``load_model`` accepts. Parameters
    that do not match ``config`` raise ConfigError and write nothing.
    """
    arrays = {name: arr for name, arr, _, _ in param_leaves(params)}
    # The input dimension count is the one the first GCN weight stacks.
    check_params(config, params, len(arrays.get("w_0", ())))
    meta = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "hmge" if config.num_layers else "linear",
        "config": {
            "embed_size": config.embed_size,
            "num_layers": config.num_layers,
            "dims_schedule": list(config.dims_schedule)
            if config.dims_schedule is not None
            else None,
            "activation": "relu",
        },
        "identity_features": bool(identity_features),
    }
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.str_(json.dumps(meta)), **arrays)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_model(path):
    """Load a model file; returns (config, params, identity_features).

    Raises DataFormatError unless the file holds a format-2 model whose
    every array has the shape, and only the names, that a fresh parameter
    set of its config takes for its dimension count and feature width.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataFormatError(f"{path} is not a model file (not an npz archive)")
    with archive:
        if "meta" not in archive:
            raise DataFormatError(f"{path} is not a model file (missing meta)")
        try:
            meta = json.loads(str(archive["meta"]))
        except ValueError as exc:
            raise DataFormatError(f"{path}: model meta is not JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise DataFormatError(f"{path}: model meta is not a JSON object")
        if meta.get("format_version") != MODEL_FORMAT_VERSION:
            raise DataFormatError(
                f"unsupported model format version {meta.get('format_version')}"
            )
        cfg = meta.get("config")
        if not isinstance(cfg, dict):
            raise DataFormatError(f"{path}: model meta has no config")
        if cfg.get("activation") != "relu":
            raise DataFormatError(f"unsupported activation {cfg.get('activation')!r}")
        schedule = cfg.get("dims_schedule")
        if not (
            _is_int(cfg.get("embed_size"))
            and _is_int(cfg.get("num_layers"))
            and (schedule is None or isinstance(schedule, list) and all(map(_is_int, schedule)))
        ):
            raise DataFormatError(f"{path}: bad model config {json.dumps(cfg)}")
        identity_features = meta.get("identity_features")
        if not isinstance(identity_features, bool):
            raise DataFormatError(f"{path}: identity_features must be true or false")
        stored = {name: archive[name] for name in archive.files if name != "meta"}
    first = stored.get("w_0")
    if first is None or first.ndim != 3:
        raise DataFormatError(f"{path}: model file needs a 3-d w_0")
    try:
        config = HmgeConfig(
            cfg["embed_size"], cfg["num_layers"], tuple(schedule) if schedule else None
        )
        kind = meta.get("kind")
        # A container of the right kind and size, its arrays still missing.
        if kind == "hmge" and config.num_layers > 0:
            skeleton = HmgeParams([LayerParams(None, None, None, None)] * config.num_layers,
                                  None, None)
        elif kind == "linear" and config.num_layers == 0:
            skeleton = LinearParams(None, None, None, None)
        else:
            raise DataFormatError(f"{path}: model kind {kind!r} does not match its config")
        names = [name for name, _, _, _ in param_leaves(skeleton)]
        if stored.keys() != set(names):
            missing, extra = sorted(set(names) - stored.keys()), sorted(stored.keys() - set(names))
            raise DataFormatError(f"{path}: model entries missing {missing}, unexpected {extra}")
        for name in names:
            if stored[name].dtype != np.float64:
                raise DataFormatError(f"{path}: {name} is {stored[name].dtype}, expected float64")
            if not np.all(np.isfinite(stored[name])):
                raise DataFormatError(f"{path}: {name} holds non-finite values")
        params = structure_from_leaves(skeleton, [stored[name] for name in names])
        check_params(config, params, first.shape[0])
    except ConfigError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return config, params, identity_features
