"""Unsupervised InfoMax training loop.

Each epoch shuffles the feature rows to fabricate negative samples, encodes
both the clean and corrupted graphs (they share the latent adjacency
structure), scores every node embedding against the clean summary with the
bilinear discriminator, and minimizes the mean binary cross-entropy with
Adam. Weight decay is decoupled and limited to the GCN/attention-V/
discriminator matrices. Early stopping watches the training loss itself;
the returned parameters are the best-loss snapshot.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as mdl
from .errors import ConfigError, NumericError
from .multiplex import MultiplexGraph

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Adam updates each parameter in flat slices of this many elements, its
# temporaries in two reused slice buffers that stay in L2. On a 2-core x86-64
# Xeon (2 MB L2 per core), one step over (41, 1000, 32), (41, 32, 32) and
# (41, 32) stacks took a median 40 ms unsliced, 18.5 ms at 2^15, 20.7 ms at
# 2^13 and 22.4 ms at 2^17; reusing the buffers took it from 17.4 to 16.0 ms.
ADAM_SLICE = 1 << 15


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    learning_rate: float = 0.001
    weight_decay: float = 1e-5
    patience: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight decay must be non-negative, got {self.weight_decay}")
        if not (1 <= self.patience <= self.epochs):
            raise ConfigError(
                f"patience must lie in [1, epochs], got {self.patience} vs {self.epochs}"
            )


class AdamState:
    """Adam moments for a fixed parameter list, with decoupled weight decay."""

    def __init__(self, params: list[np.ndarray]):
        if not all(p.flags.c_contiguous for p in params):
            raise ValueError("Adam updates parameters in place through flat views")
        self.first = [np.zeros_like(p) for p in params]
        self.second = [np.zeros_like(p) for p in params]
        self.step_count = 0

    def step(self, params, grads, learning_rate, weight_decay, decay_flags) -> None:
        if not (len(params) == len(grads) == len(self.first) == len(decay_flags)):
            raise ValueError("optimizer state does not match the parameter list")
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - ADAM_BETA1**t
        bias2 = 1.0 - ADAM_BETA2**t
        buf_a, buf_b = np.empty(ADAM_SLICE), np.empty(ADAM_SLICE)
        for p, g, m, v, decay in zip(params, grads, self.first, self.second, decay_flags):
            flat = [a.reshape(-1) for a in (p, g, m, v)]
            for lo in range(0, flat[0].size, ADAM_SLICE):
                p, g, m, v = (a[lo:lo + ADAM_SLICE] for a in flat)
                a, b = buf_a[:p.size], buf_b[:p.size]
                m *= ADAM_BETA1
                m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
                v *= ADAM_BETA2
                v += np.multiply(np.multiply(g, g, out=a), 1.0 - ADAM_BETA2, out=a)
                # (m / bias1) / (sqrt(v / bias2) + eps), rounded as written.
                np.add(np.sqrt(np.divide(v, bias2, out=b), out=b), ADAM_EPS, out=b)
                np.divide(np.divide(m, bias1, out=a), b, out=a)
                if decay and weight_decay:
                    a += np.multiply(p, weight_decay, out=b)
                p -= np.multiply(a, learning_rate, out=a)


def infomax_loss(z, z_hat, s, q) -> float:
    """Mean binary cross-entropy of the discriminator over both sample sets.

    Positives are the clean embeddings (label 1), negatives the corrupted
    ones (label 0). The logs are exact at any score x:
    log sigma(x) = -logaddexp(0, -x), log(1 - sigma(x)) = -logaddexp(0, x).
    """
    z = np.asarray(z, dtype=np.float64)
    z_hat = np.asarray(z_hat, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if z.ndim != 2 or z_hat.shape != z.shape:
        raise ValueError(f"embedding shape mismatch: {z.shape} vs {z_hat.shape}")
    for arr in (z, z_hat, s, q):
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite input to the InfoMax loss")
    qs = q @ s
    pos, neg = z @ qs, z_hat @ qs
    n = z.shape[0]
    return (math.fsum(np.logaddexp(0.0, -pos)) + math.fsum(np.logaddexp(0.0, neg))) / (2.0 * n)


def build_loss_nodes(plan, pnodes, perm):
    """Tape version of the training objective; returns the loss node.

    The clean pass encodes the plan's features, the corrupted pass the same
    features with their rows shuffled by ``perm``.
    """
    _, head, ((h, _), (h_hat, _)) = mdl.build_forward(plan, pnodes, [None, perm])
    return ad.infomax_bce(h[-1], h_hat[-1], pnodes.disc_q, *head)


@dataclass
class TrainResult:
    params: object
    embeddings: np.ndarray
    loss_history: list[float]
    best_epoch: int
    best_loss: float


def train(
    graph: MultiplexGraph,
    hmge_config: mdl.HmgeConfig,
    train_config: TrainConfig,
    *,
    params=None,
    train_alpha: bool = True,
    log_path=None,
) -> TrainResult:
    """Run the InfoMax loop; returns best-loss parameters, embeddings, history.

    ``train_alpha=False`` freezes the combination logits (used by the
    uniform-weights ablation). A fresh parameter set is drawn from the seed
    unless ``params`` is supplied; supplied parameters that do not match
    ``hmge_config`` raise ConfigError before the first epoch, and matching
    ones are copied, never stepped. Each epoch's tape holds the live arrays
    that Adam steps in place; an epoch that improves the loss first copies
    them into the best-loss set, the one other copy kept, allocated once
    before the first epoch. On glibc the first call sets the process-wide
    malloc policy of ``model.pin_malloc``.
    """
    mdl.pin_malloc()
    seed_init, seed_corrupt = np.random.SeedSequence(train_config.rng_seed).spawn(2)
    if params is None:
        params = mdl.init_params(
            hmge_config, graph.num_dims, graph.num_features,
            np.random.default_rng(seed_init),
        )
    else:
        mdl.check_params(hmge_config, params, graph.num_dims, graph.num_features)
        params = params.copy()
    plan = mdl.EncodePlan(graph, hmge_config)
    corrupt_rng = np.random.default_rng(seed_corrupt)

    trained = [(arr, decay) for _, arr, decay, trainable
               in mdl.param_leaves(params, train_alpha) if trainable]
    flat_refs, decay_flags = [arr for arr, _ in trained], [decay for _, decay in trained]
    adam = AdamState(flat_refs)
    # The one best-loss set, written in place whenever the loss improves.
    best_params = params.copy()
    best_pairs = [(best, live) for (_, best, _, _), (_, live, _, _)
                  in zip(mdl.param_leaves(best_params), mdl.param_leaves(params))]

    history: list[float] = []
    best_loss = math.inf
    best_epoch = -1
    since_best = 0
    start = time.perf_counter()
    log_rows = []

    for epoch in range(train_config.epochs):
        perm = corrupt_rng.permutation(graph.num_nodes)
        tape = ad.Tape()
        pnodes = mdl.lift_params(tape, params, train_alpha=train_alpha)
        loss_node = build_loss_nodes(plan, pnodes, perm)
        loss = float(loss_node.value)
        if not math.isfinite(loss):
            raise NumericError(
                f"training aborted: non-finite loss {loss!r} at epoch {epoch} "
                f"(lr={train_config.learning_rate}, seed={train_config.rng_seed})"
            )
        history.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_epoch = epoch
            # The tape's leaves are the live arrays: copy them before Adam steps them.
            for best, live in best_pairs:
                np.copyto(best, live)
            since_best = 0
        else:
            since_best += 1
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        log_rows.append((epoch, loss, best_loss, elapsed_ms))
        if since_best >= train_config.patience:
            tape.release()
            break
        tape.backward(loss_node)
        adam.step(flat_refs, tape.gradients(), train_config.learning_rate,
                  train_config.weight_decay, decay_flags)
        tape.release()

    if log_path is not None:
        _write_train_log(log_path, log_rows)

    trace = mdl.encode(graph, best_params, hmge_config, plan=plan)
    return TrainResult(
        params=best_params,
        embeddings=trace.z,
        loss_history=history,
        best_epoch=best_epoch,
        best_loss=best_loss,
    )


def _write_train_log(path, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "best_loss", "elapsed_ms"])
        for epoch, loss, best, ms in rows:
            writer.writerow([epoch, repr(loss), repr(best), f"{ms:.3f}"])
