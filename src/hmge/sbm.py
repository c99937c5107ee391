"""Synthetic multiplex generation from per-dimension stochastic block models.

Every dimension is an independent SBM draw with its own class assignment;
a node's global label is the mode of its per-dimension labels, with ties
broken uniformly at random from the dataset seed. Node features are the
per-dimension degrees normalized by each dimension's maximum degree.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import set_malloc
from .multiplex import MultiplexGraph, SparseAdjacency, save_multiplex, write_table

PER_DIM_LABELS_FILE = "labels_per_dim.csv"
# Uniforms drawn per chunk by generate_dimension: 2 MB of doubles, reused.
# At this size one 8000-node dimension (32M pairs) takes about 0.2 s on a
# 2-core x86-64 Xeon.
SAMPLE_CHUNK = 1 << 18


@dataclass(frozen=True)
class SbmConfig:
    num_nodes: int
    num_dims: int
    num_classes: int = 2
    p_in: float = 0.05
    p_out: float = 0.01
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_nodes < 1 or self.num_dims < 1:
            raise ConfigError("num_nodes and num_dims must be positive")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ConfigError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in} p_out={self.p_out}"
            )


@dataclass
class SynthDataset:
    graph: MultiplexGraph
    per_dim_labels: np.ndarray   # D x N
    global_labels: np.ndarray    # N


# glibc's mallopt parameter for the number of malloc arenas (malloc.h).
M_ARENA_MAX = -8


@functools.cache
def _share_malloc_arena() -> None:
    """Cap glibc at one malloc arena, once per process.

    glibc gives each thread that allocates an arena of its own and keeps
    there what the thread freed, beyond the reach of other threads: after
    generate_multiplex's pool on an 8000-node, 4-dimension graph, a run
    that went on to train peaked 13 MB higher (157 against 144 MB on a
    2-core x86-64 host). With one arena the workers' freed memory goes
    back to the heap the rest of the process allocates from. glibc fixes
    the cap when a second thread first allocates, so where one already has,
    this changes nothing. Elsewhere than on glibc it does nothing.
    """
    set_malloc({M_ARENA_MAX: 1})


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS keeps one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity call
        return os.cpu_count() or 1


def generate_dimension(
    config: SbmConfig, rng: np.random.Generator
) -> tuple[SparseAdjacency, np.ndarray]:
    """One SBM draw: class labels plus a symmetric loop-free adjacency.

    Pair (i, j), i < j, is an edge when its uniform draw is below the pair's
    probability. The uniforms are drawn in row-major upper-triangle order,
    SAMPLE_CHUNK at a time into one reused buffer, so memory is O(N + E)
    while the dataset is the one a single draw over all N(N-1)/2 pairs
    gives. Since p_out <= p_in, only draws below p_in can be edges, and only
    those are mapped back to their (row, column) pair.
    """
    n, k = config.num_nodes, config.num_classes
    # Classes are equally likely. Passing p= keeps numpy on the stream that
    # every seeded dataset was drawn from; without it the draws change.
    labels = rng.choice(k, size=n, p=np.full(k, 1.0 / k))
    # Row i holds the pairs (i, i+1..n-1); row_start[i] is its first flat index.
    row_len = np.arange(n - 1, 0, -1, dtype=np.int64)
    row_start = np.cumsum(row_len) - row_len
    total = n * (n - 1) // 2
    buf = np.empty(min(SAMPLE_CHUNK, total))
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for lo in range(0, total, SAMPLE_CHUNK):
        u = buf[: min(SAMPLE_CHUNK, total - lo)]
        rng.random(out=u)
        cand = np.flatnonzero(u < config.p_in)
        flat = cand + lo
        row = np.searchsorted(row_start, flat, side="right") - 1
        col = flat - row_start[row] + row + 1
        prob = np.where(labels[row] == labels[col], config.p_in, config.p_out)
        keep = u[cand] < prob
        us.append(row[keep])
        vs.append(col[keep])
    adjacency = SparseAdjacency.from_undirected_edges(n, np.concatenate(us), np.concatenate(vs))
    return adjacency, labels


def generate_multiplex(config: SbmConfig) -> SynthDataset:
    """D independent SBM dimensions fused by label voting.

    Dimension d is drawn by generate_dimension from the d-th child of the
    seed sequence, on a pool of min(D, usable cores) threads: numpy
    releases the interpreter lock while it draws and compares the
    uniforms. Each dimension's stream depends on its seed child alone, so
    the dataset is the same at any pool size.
    """
    children = np.random.SeedSequence(config.rng_seed).spawn(config.num_dims + 1)

    def draw(d: int) -> tuple[SparseAdjacency, np.ndarray]:
        return generate_dimension(config, np.random.default_rng(children[d]))

    _share_malloc_arena()
    with ThreadPoolExecutor(min(config.num_dims, _usable_cores())) as pool:
        dims, labels = zip(*pool.map(draw, range(config.num_dims)))
    per_dim = np.stack(labels)

    vote_rng = np.random.default_rng(children[config.num_dims])
    counts = np.zeros((config.num_nodes, config.num_classes))
    node_idx = np.arange(config.num_nodes)
    for d in range(config.num_dims):
        counts[node_idx, per_dim[d]] += 1.0
    # Sub-unit jitter never reorders distinct counts but breaks ties uniformly.
    jitter = vote_rng.random(counts.shape)
    global_labels = np.argmax(counts + jitter, axis=1).astype(np.int64)

    features = np.zeros((config.num_nodes, config.num_dims))
    for d, adjacency in enumerate(dims):
        deg = adjacency.row_sums()
        top = deg.max()
        if top > 0:
            features[:, d] = deg / top

    graph = MultiplexGraph(
        config.num_nodes,
        tuple(dims),
        features,
        tuple((int(c),) for c in global_labels),
    )
    return SynthDataset(graph=graph, per_dim_labels=per_dim, global_labels=global_labels)


def save_dataset(dataset: SynthDataset, path) -> None:
    """Dataset directory plus a per-dimension label audit file."""
    save_multiplex(dataset.graph, path)
    write_table(Path(path) / PER_DIM_LABELS_FILE, dataset.per_dim_labels.T, "%d", ",")
