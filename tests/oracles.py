"""Eager references that the tests compare the tape against, and helpers
that only the tests use.

Production runs every step below on the tape (``hmge.model``); these
numpy versions compute the same quantities one matrix at a time, in the
order the paper writes them, so the tests can check the tape's results.
``elementwise_mul``, ``tanh``, ``add``, ``scale`` and ``sum_all`` are tape
ops that only the tests use, to turn an op's output into a scalar loss;
``relu``, ``attention_weights`` and ``mix_stack`` are the attention step
unfused, three tape ops, the reference for ``autodiff.attend``;
``linearize_relu`` makes every ReLU of the encoder the identity;
``permute_rows`` shuffles the rows of a stack, the reference for the
column-shuffled first-level operator of the one-hot corrupted pass;
``select_matrix`` slices one matrix out of a stack, for the unfused output
head (``spmm_var``, then a slice, then ``matmul``) that the tests compare
the fused ``infomax_bce`` head against;
``negative_gradients`` is the corrupted side's exact loss gradient, row by
row; ``grad_check`` compares a tape's gradients with central differences, and
``full_loss_builder`` wraps the whole training objective for it.
``csr_combine_stack``, ``csr_normalize`` and ``spmm_values`` put the latent
graphs on the tape as (nnz, D) value blocks, normalized on their own
diagonal-extended pattern (``extended_plan``), with their own pullbacks:
``value_block_loss`` runs the training loss through them, the reference
for the closed-form pullback that ``autodiff.NormalizePlan`` folds
straight into the combination weights. Its blocks come from
``latent_structure_from_inputs`` (every level from the inputs, as the
model builds them) or ``chained_latent_structure`` (level by level, each
from the one before with a ReLU after every level). ``from_dense`` and ``to_dense`` convert
between ``SparseAdjacency`` and dense matrices; ``expected_edge_counts``
is the closed-form edge count of an SBM draw.
``union_pattern`` and ``position_map`` build the latent-path patterns with
scipy additions and binary searches, one adjacency at a time, as
references for ``autodiff.UnionPattern`` and ``autodiff.NormalizePlan``;
``extended_pattern`` adds the diagonal the same way. ``normalized_dense``
and ``latent_dense`` form a normalized graph as a dense matrix.
``edge_list_loop`` and ``feature_rows_loop`` parse an edge list and a
feature file line by line with ``int()`` and ``float()``, as the references
for both readers of ``multiplex.load_multiplex``.
``auc_roc_loop`` ranks tied scores one run at a time, as the reference for
``evaluation.auc_roc``. ``split_links_loop`` samples negatives one
candidate at a time and rebuilds every training dimension from its kept
edge list, as the reference for ``evaluation.split_links``.
"""

import math
import warnings

import numpy as np
import scipy.sparse as sp

from hmge import autodiff as ad
from hmge import model as mdl
from hmge.autodiff import Node, _accum_owned, _same_tape
from hmge.errors import ConfigError, DataFormatError, NumericError
from hmge.evaluation import LinkSplit
from hmge.multiplex import MultiplexGraph, SparseAdjacency, mirror_positions
from hmge.sbm import SbmConfig
from hmge.training import build_loss_nodes


def gcn_forward(h_prev: np.ndarray, a_norm, w: np.ndarray, activation="relu") -> np.ndarray:
    """One graph convolution: activation(A_norm @ H @ W)."""
    h_prev = np.asarray(h_prev, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if h_prev.ndim != 2 or w.ndim != 2 or h_prev.shape[1] != w.shape[0]:
        raise ValueError(f"gcn shape mismatch: {h_prev.shape} @ {w.shape}")
    if a_norm.num_nodes != h_prev.shape[0]:
        raise ValueError(
            f"gcn shape mismatch: {a_norm.num_nodes} nodes vs H {h_prev.shape}"
        )
    out = (a_norm.to_scipy() @ h_prev) @ w
    return np.maximum(out, 0.0) if activation == "relu" else out


def attention_aggregate(embeddings, attn_v, attn_y, guard: float = ad.ATTENTION_GUARD):
    """Weight per-dimension embeddings by tanh attention scores.

    Returns (aggregated N x M matrix, attention weights N x D). Rows of the
    weights sum to 1, through the uniform fallback when the signed score sum
    is within ``guard`` of zero.
    """
    mats = [np.asarray(h, dtype=np.float64) for h in embeddings]
    if not mats:
        raise ValueError("attention needs at least one embedding matrix")
    n = mats[0].shape[0]
    d_in = len(mats)
    if d_in == 1:
        return mats[0].copy(), np.ones((n, 1))
    scores = np.empty((n, d_in))
    for d, (h, v, y) in enumerate(zip(mats, attn_v, attn_y)):
        scores[:, d] = np.tanh((h @ np.asarray(v).T) @ np.asarray(y))
    sums = scores.sum(axis=1, keepdims=True)
    floor = np.maximum(
        guard, np.abs(scores).max(axis=1, keepdims=True) / ad.AMPLIFICATION_BOUND
    )
    safe = np.abs(sums) >= floor
    beta = np.where(safe, scores / np.where(safe, sums, 1.0), ad.uniform_weights(d_in))
    agg = np.zeros_like(mats[0])
    for d, h in enumerate(mats):
        agg += beta[:, d][:, None] * h
    return agg, beta


def union_pattern(adjacencies) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the union of the patterns, by repeated scipy addition."""
    n = adjacencies[0].num_nodes
    acc = None
    for adj in adjacencies:
        part = sp.csr_matrix(
            (np.ones(adj.nnz, dtype=np.float64), adj.indices, adj.indptr), shape=(n, n)
        )
        acc = part if acc is None else acc + part
    acc = acc.tocsr()
    acc.sort_indices()
    if np.any(acc.diagonal()):
        raise ValueError("union pattern unexpectedly contains diagonal entries")
    return acc.indptr.astype(np.int64), acc.indices.astype(np.int64)


def _keys(n, indptr, indices) -> np.ndarray:
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return rows * n + indices


def position_map(indptr, indices, adj: SparseAdjacency) -> np.ndarray:
    """Slot in the pattern (indptr, indices) of every stored entry of ``adj``."""
    n = adj.num_nodes
    # Canonical CSR order makes row*n + col globally sorted.
    own_keys = _keys(n, indptr, indices)
    adj_keys = _keys(n, adj.indptr, adj.indices)
    pos = np.searchsorted(own_keys, adj_keys)
    if np.any(pos >= own_keys.shape[0]) or np.any(own_keys[pos] != adj_keys):
        raise ValueError("adjacency entry missing from union pattern")
    return pos


def extended_pattern(n, indptr, indices):
    """The pattern plus the diagonal, by scipy addition of the identity.

    Returns (out_indptr, out_indices, in2out, diag_positions): the extended
    CSR pattern, the extended slot of every input entry and of every
    diagonal entry.
    """
    base = sp.csr_matrix((np.ones(indices.shape[0]), indices, indptr), shape=(n, n))
    ext = (base + sp.identity(n, format="csr")).tocsr()
    ext.sort_indices()
    out_indptr = ext.indptr.astype(np.int64)
    out_indices = ext.indices.astype(np.int64)
    out_keys = _keys(n, out_indptr, out_indices)
    in2out = np.searchsorted(out_keys, _keys(n, indptr, indices))
    diag_positions = np.searchsorted(out_keys, np.arange(n, dtype=np.int64) * (n + 1))
    return out_indptr, out_indices, in2out, diag_positions


def normalized_dense(a):
    """D^{-1/2}(A + I)D^{-1/2} of a dense symmetric adjacency."""
    ahat = a + np.eye(a.shape[0])
    dinv = 1.0 / np.sqrt(ahat.sum(axis=1))
    return ahat * np.outer(dinv, dinv)


def latent_dense(adjacencies, weights) -> np.ndarray:
    """The latent graph mixed from ``adjacencies`` by ``weights``, one per
    input, normalized, as a dense matrix."""
    return normalized_dense(sum(w * to_dense(a) for w, a in zip(weights, adjacencies)))


def combine_adjacencies(
    adjacencies, alpha_logits: np.ndarray, activation: str = "relu"
) -> list[SparseAdjacency]:
    """Softmax-weighted sums of adjacency matrices on their union pattern."""
    adjacencies = list(adjacencies)
    logits = np.asarray(alpha_logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] != len(adjacencies):
        raise ValueError(
            f"alpha shape {logits.shape} does not match {len(adjacencies)} inputs"
        )
    weights = np.exp(logits - logits.max(axis=0, keepdims=True))
    weights /= weights.sum(axis=0, keepdims=True)
    indptr, indices = union_pattern(adjacencies)
    maps = [position_map(indptr, indices, a) for a in adjacencies]
    outs = []
    for j in range(logits.shape[1]):
        vals = np.zeros(indices.shape[0])
        for i, (a, m) in enumerate(zip(adjacencies, maps)):
            vals[m] += weights[i, j] * a.values
        if activation == "relu":
            vals = np.maximum(vals, 0.0)
        outs.append(SparseAdjacency(adjacencies[0].num_nodes, indptr, indices, vals))
    return outs


def edge_list_loop(text: str, name: str, num_nodes: int) -> SparseAdjacency:
    """An edge list's adjacency, one stripped ``u<TAB>v`` line at a time.

    Blank lines are skipped; the first bad line raises DataFormatError
    naming it as ``name:line``. ``int()`` also takes ``_`` between digits
    and non-ASCII digits, which the loader refuses.
    """
    us, vs = [], []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"{name}:{ln}: expected 'u<TAB>v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataFormatError(f"{name}:{ln}: non-integer node id") from exc
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise DataFormatError(f"{name}:{ln}: node index out of range [0, {num_nodes})")
        if u == v:
            raise DataFormatError(f"{name}:{ln}: self-loop not allowed")
        us.append(u)
        vs.append(v)
    return SparseAdjacency.from_undirected_edges(num_nodes, us, vs)


def feature_rows_loop(text: str, num_nodes: int, num_features: int) -> np.ndarray:
    """A feature file's (N, F) matrix, one comma-separated line at a time.

    Blank lines are skipped; the first bad line raises DataFormatError
    naming it. ``float()`` also takes ``_`` between digits and non-ASCII
    digits, which the loader refuses.
    """
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError as exc:
            raise DataFormatError(f"features.csv:{ln}: bad float") from exc
        if len(row) != num_features:
            raise DataFormatError(
                f"features.csv:{ln}: expected {num_features} values, got {len(row)}"
            )
        rows.append(row)
    if len(rows) != num_nodes:
        raise DataFormatError(f"features.csv: expected {num_nodes} rows, got {len(rows)}")
    return np.asarray(rows, dtype=np.float64)


def auc_roc_loop(scores, labels) -> float:
    """Rank-sum AUC with the average rank of every run of ties found by a loop."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.shape[0], dtype=np.float64)
    i = 0
    while i < sorted_scores.shape[0]:
        j = i
        while j + 1 < sorted_scores.shape[0] and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos = int(labels.sum())
    neg = labels.shape[0] - pos
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def split_links_loop(graph: MultiplexGraph, ratio: float, rng: np.random.Generator) -> LinkSplit:
    """Remove ``ratio`` of each dimension's undirected edges, uniformly.

    Each dimension loses ceil(ratio * E_d) edges (at least one); dimensions
    with fewer than two edges are skipped with a warning. An equal number
    of distinct uniform non-edges per dimension is sampled as negatives.
    """
    if not (0.0 < ratio < 1.0):
        raise ConfigError(f"removal ratio must be in (0, 1), got {ratio}")
    n = graph.num_nodes
    positives: list[tuple[int, int, int]] = []
    negatives: list[tuple[int, int, int]] = []
    new_dims = []
    for d, dim in enumerate(graph.dimensions):
        pairs = dim.undirected_pairs()
        num_edges = pairs.shape[0]
        if num_edges < 2:
            warnings.warn(
                f"dimension {d} has {num_edges} edge(s); skipping link removal"
            )
            new_dims.append(dim)
            continue
        n_remove = min(num_edges, max(1, math.ceil(ratio * num_edges)))
        removed = rng.choice(num_edges, size=n_remove, replace=False)
        keep_mask = np.ones(num_edges, dtype=bool)
        keep_mask[removed] = False
        kept = pairs[keep_mask]
        new_dims.append(
            SparseAdjacency.from_undirected_edges(n, kept[:, 0], kept[:, 1])
        )
        for u, v in pairs[~keep_mask]:
            positives.append((d, int(u), int(v)))

        max_non_edges = n * (n - 1) // 2 - num_edges
        if max_non_edges < n_remove:
            raise DataFormatError(
                f"dimension {d} is too dense to sample {n_remove} negative pairs"
            )
        edge_keys = set(pairs[:, 0] * n + pairs[:, 1])
        chosen: set[int] = set()
        while len(chosen) < n_remove:
            batch = max(4 * (n_remove - len(chosen)), 16)
            us = rng.integers(0, n, size=batch)
            vs = rng.integers(0, n, size=batch)
            lo = np.minimum(us, vs)
            hi = np.maximum(us, vs)
            for a, b in zip(lo, hi):
                if a == b:
                    continue
                key = int(a) * n + int(b)
                if key in edge_keys or key in chosen:
                    continue
                chosen.add(key)
                negatives.append((d, int(a), int(b)))
                if len(chosen) >= n_remove:
                    break
    return LinkSplit(
        training_graph=graph.with_dimensions(new_dims),
        positives=positives,
        negatives=negatives,
    )


def discriminate(h: np.ndarray, s: np.ndarray, q: np.ndarray) -> float:
    """Probability that a patch/summary pair is genuine: sigmoid(h^T Q s)."""
    h = np.asarray(h, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (h.shape[0], s.shape[0]):
        raise ValueError(f"bilinear shape mismatch: {h.shape}, {q.shape}, {s.shape}")
    return float(ad.sigmoid_value(h @ q @ s))


def negative_gradients(z, z_hat, q, s_mat=None, w=None) -> np.ndarray:
    """d(loss)/d(h_hat) of the mean BCE over z_hat = S h_hat W, row by row.

    Each corrupted row i contributes -log(1 - sigma(z_hat_i^T Q s)) / 2N,
    with s = mean(z), so the gradient is S^T [sigma(z_hat_i^T Q s) / 2N]_i
    (W Q s)^T; sigma comes from ``discriminate``. S and W default to the
    identity (the loss without an output head).
    """
    z, z_hat = np.asarray(z, dtype=np.float64), np.asarray(z_hat, dtype=np.float64)
    n, m = z.shape
    s_mat = np.eye(n) if s_mat is None else s_mat
    w = np.eye(m) if w is None else w
    s = z.mean(axis=0)
    sig = np.array([discriminate(row, s, q) for row in z_hat])
    return s_mat.T @ np.outer(sig, w @ q @ s) / (2 * n)


def elementwise_mul(a: Node, b: Node) -> Node:
    tape = _same_tape(a, b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"elementwise_mul shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            _accum_owned(a, g * b.value)
        if b.requires_grad:
            _accum_owned(b, g * a.value)

    return tape._add(a.value * b.value, (a, b), backward, name="mul")


def select_matrix(stack: Node, index: int) -> Node:
    """Slice (D, N, M) -> (N, M) at the given leading index."""
    if stack.value.ndim != 3 or not (0 <= index < stack.value.shape[0]):
        raise ValueError(f"bad slice {index} for shape {stack.value.shape}")

    def backward(g):
        if stack.requires_grad:
            if stack.adjoint is None:
                stack.adjoint = np.zeros_like(stack.value)
            stack.adjoint[index] += g

    return stack.tape._add(stack.value[index].copy(), (stack,), backward, name="select_matrix")


def permute_rows(a: Node, perm: np.ndarray) -> Node:
    """Reorder the rows of every matrix in a (D, N, M) stack by one fixed
    permutation, into a C-contiguous stack (np.take; the fancy index
    ``a[:, perm]`` returns a strided one). The reference for the one-hot
    corrupted pass, which ``model.EncodePlan.shuffled_first_gcn`` runs
    without a shuffled copy: ``spmm`` of this op's output."""
    if a.value.ndim != 3 or perm.shape != (a.value.shape[1],):
        raise ValueError(f"bad permutation for shape {a.value.shape}")

    def backward(g):
        if a.requires_grad:
            _accum_owned(a, np.take(g, np.argsort(perm), axis=1))

    return a.tape._add(np.take(a.value, perm, axis=1), (a,), backward, name="permute_rows")


def attention_weights(h: Node, v: Node, y: Node) -> Node:
    """Attention weights (N, D) of a rectified (D, N, M) embedding stack.

    The weights half of ``autodiff.attend``, as its own op: scores
    s_nd = tanh(h_nd V_d^T y_d), each row divided by its signed sum, and
    ill-conditioned rows at uniform weights with no gradient.
    """
    tape = _same_tape(h, v, y)
    hv, vv, yv = h.value, v.value, y.value
    d, m = hv.shape[0], hv.shape[-1]
    if hv.ndim != 3 or vv.shape != (d, m, m) or yv.shape != (d, m):
        raise ValueError(
            f"attention_weights shape mismatch: {hv.shape}, {vv.shape}, {yv.shape}"
        )
    u = np.einsum("dnm,dn->dm", vv, yv)
    scores = np.ascontiguousarray(np.tanh(np.einsum("dnm,dm->dn", hv, u)).T)
    sums = scores.sum(axis=1, keepdims=True)
    floor = np.maximum(
        ad.ATTENTION_GUARD, np.abs(scores).max(axis=1, keepdims=True) / ad.AMPLIFICATION_BOUND
    )
    safe = np.abs(sums) >= floor
    denom = np.where(safe, sums, 1.0)
    beta = np.where(safe, scores / denom, ad.uniform_weights(d))

    def backward(g):
        inner = (g * beta).sum(axis=1, keepdims=True)
        c = (np.where(safe, (g - inner) / denom, 0.0) * (1.0 - scores * scores)).T
        if h.requires_grad:
            _accum_owned(h, c[:, :, None] * u[:, None, :])
        if v.requires_grad or y.requires_grad:
            du = np.einsum("dnm,dn->dm", hv, c)
            if v.requires_grad:
                _accum_owned(v, yv[:, :, None] * du[:, None, :])
            if y.requires_grad:
                _accum_owned(y, np.einsum("dnm,dm->dn", vv, du))

    return tape._add(beta, (h, v, y), backward, name="attention_weights")


def mix_stack(stack: Node, weights: Node) -> Node:
    """Attention mix: sum_d weights[n, d] * stack[d, n, :] -> (N, M)."""
    tape = _same_tape(stack, weights)
    sv, wv = stack.value, weights.value
    if sv.ndim != 3 or wv.ndim != 2 or wv.shape != (sv.shape[1], sv.shape[0]):
        raise ValueError(f"mix_stack shape mismatch: {sv.shape} vs {wv.shape}")

    def backward(g):
        if stack.requires_grad:
            _accum_owned(stack, wv.T[:, :, None] * g[None, :, :])
        if weights.requires_grad:
            _accum_owned(weights, np.einsum("dnm,nm->nd", sv, g))

    return tape._add(np.einsum("dnm,nd->nm", sv, wv), (stack, weights), backward, name="mix_stack")


def relu(a: Node) -> Node:
    """max(a, 0) by ``autodiff._relu``, the activation ``attend`` applies."""
    value, slope = ad._relu(a.value)

    def backward(g):
        _accum_owned(a, g * slope)

    return a.tape._add(value, (a,), backward, name="relu")


def unfused_attention(pre: Node, v: Node, y: Node) -> tuple[Node, Node]:
    """``autodiff.attend`` as three ops: relu, attention_weights, mix_stack.
    Returns (fused rows, weights); ``pre`` is left as it was."""
    h = relu(pre)
    beta = attention_weights(h, v, y)
    return mix_stack(h, beta), beta


def linearize_relu(monkeypatch) -> None:
    """Make every ReLU of the encoder the identity, derivative included.

    ``autodiff._relu`` is the one activation that ``autodiff.attend`` and
    this module's ``relu`` apply; its identity returns the input itself and
    a slope of ones.
    """
    monkeypatch.setattr(ad, "_relu", lambda x, inplace=False: (x, np.ones(x.shape, dtype=bool)))


def tanh(a: Node) -> Node:
    t = np.tanh(a.value)

    def backward(g):
        _accum_owned(a, g * (1.0 - t * t))

    return a.tape._add(t, (a,), backward, name="tanh")


def add(*nodes: Node) -> Node:
    if len(nodes) < 2:
        raise ValueError("add needs at least two operands")
    tape = _same_tape(*nodes)
    shape = nodes[0].value.shape
    for n in nodes[1:]:
        if n.value.shape != shape:
            raise ValueError(f"add shape mismatch: {shape} vs {n.value.shape}")
    value = nodes[0].value.copy()
    for n in nodes[1:]:
        value += n.value

    def backward(g):
        for n in nodes:
            _accum_owned(n, g.copy())

    return tape._add(value, nodes, backward, name="add")


def scale(a: Node, factor: float) -> Node:
    factor = float(factor)

    def backward(g):
        _accum_owned(a, g * factor)

    return a.tape._add(a.value * factor, (a,), backward, name="scale")


def sum_all(a: Node) -> Node:
    # fsum: exactly rounded and independent of traversal order.
    total = math.fsum(a.value.ravel())

    def backward(g):
        _accum_owned(a, np.full(a.value.shape, g))

    return a.tape._add(np.asarray(total), (a,), backward, name="sum")


def grad_check(build_loss, params) -> float:
    """Max relative error between tape gradients and central differences.

    ``build_loss`` must deterministically map (tape, parameter nodes) to a
    scalar loss node. Relative error uses max(|analytic|, |numeric|, 1e-8)
    as the denominator.
    """
    base = [np.array(p, dtype=np.float64) for p in params]

    def run(values):
        tape = ad.Tape()
        nodes = [tape.parameter(v) for v in values]
        loss = build_loss(tape, nodes)
        return tape, nodes, loss

    tape, nodes, loss = run(base)
    if loss.value.size != 1:
        raise ValueError("grad_check needs a scalar loss")
    if not np.all(np.isfinite(loss.value)):
        raise NumericError("grad_check: loss is not finite")
    tape.backward(loss)
    analytic = [
        n.adjoint if n.adjoint is not None else np.zeros_like(n.value) for n in nodes
    ]
    tape.release()

    def loss_at(values) -> float:
        t, _, node = run(values)
        val = float(node.value)
        t.release()
        if not math.isfinite(val):
            raise NumericError("grad_check: perturbed loss is not finite")
        return val

    eps = 1e-5
    worst = 0.0
    for k, p in enumerate(base):
        flat = p.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_at(base)
            flat[i] = orig - eps
            f_minus = loss_at(base)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[k].reshape(-1)[i])
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst


def csr_combine_stack(weights: Node, stacked: sp.csr_matrix) -> Node:
    """All weighted combinations of constant inputs in one product.

    ``stacked`` holds the input adjacency values row-per-input on the union
    pattern (D_in x nnz); column j of the (nnz, D_out) result combines them
    with column j of the (D_in, D_out) ``weights``.
    """
    if weights.value.ndim != 2 or weights.value.shape[0] != stacked.shape[0]:
        raise ValueError(
            f"weights {weights.value.shape} do not match {stacked.shape[0]} stacked inputs"
        )

    def backward(g):
        if weights.requires_grad:
            _accum_owned(weights, stacked @ g)

    return weights.tape._add(
        stacked.T @ weights.value, (weights,), backward, name="csr_combine_stack"
    )


def extended_plan(pattern) -> ad.SpmmPlan:
    """Multiply plan for ``pattern`` (a UnionPattern) extended with the
    diagonal, the pattern of ``csr_normalize``'s output."""
    n = pattern.num_nodes
    return ad.SpmmPlan(n, *extended_pattern(n, pattern.indptr, pattern.indices)[:2])


def _normalize_column(values, n, out_indptr, out_indices, in2out, diag_positions):
    """(normalized values, dinv_r * dinv_c, degrees) of one column."""
    vhat = np.zeros(out_indptr[-1])
    vhat[in2out] = values
    vhat[diag_positions] = 1.0
    deg = np.add.reduceat(vhat, out_indptr[:-1])
    dinv = 1.0 / np.sqrt(deg)
    prod = dinv[np.repeat(np.arange(n), np.diff(out_indptr))] * dinv[out_indices]
    return vhat * prod, prod, deg


def csr_normalize(values: Node, pattern) -> Node:
    """Symmetric normalization with self-loops of an (nnz, D) value block.

    The values live on ``pattern`` (a UnionPattern), the result on that
    pattern extended with the diagonal (``extended_pattern``, multiplied by
    ``extended_plan``). The forward normalizes column by column, each
    degree a segment sum of its row; the pullback goes entry by entry:
    each entry's own term, plus the degree adjoint of its row, which
    gathers every stored entry of the row and of its mirror.
    """
    if values.value.ndim != 2 or values.value.shape[0] != pattern.nnz:
        raise ValueError(f"normalize expects {pattern.nnz} values, got {values.value.shape}")
    n = pattern.num_nodes
    ext = extended_pattern(n, pattern.indptr, pattern.indices)
    out, prod, deg = (np.stack(p, axis=1) for p in zip(
        *(_normalize_column(v, n, *ext) for v in values.value.T)))
    out_indptr, out_indices, in2out, _ = ext
    starts = out_indptr[:-1]
    mirror = mirror_positions(n, out_indptr, out_indices)

    def backward(g):
        if values.requires_grad:
            q = g * out
            ddeg = -(np.add.reduceat(q, starts) + np.add.reduceat(q[mirror], starts)) / (2.0 * deg)
            _accum_owned(values, g[in2out] * prod[in2out] + ddeg[pattern.rows])

    return values.tape._add(out, (values,), backward, name="csr_normalize")


def sddmm(plan, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """out[e] = g[row_e] . h[col_e] over the stored entries of ``plan``'s
    pattern, entry by entry."""
    rows = np.repeat(np.arange(plan.num_nodes), np.diff(plan.indptr))
    return np.einsum("ek,ek->e", g[rows], h[plan.indices])


def spmm_values(values: Node, plan, h: Node) -> Node:
    """S_d @ H for every column d of an (nnz, D) value block on ``plan`` (an
    ``SpmmPlan``); returns (D, N, M). Gradients flow to H and to the values,
    by an eager SDDMM (``sddmm``) in either kernel mode."""
    tape = _same_tape(values, h)
    if values.value.ndim != 2 or values.value.shape[0] != plan.nnz:
        raise ValueError(f"expected {plan.nnz} values per column, got {values.value.shape}")
    columns = values.value.T
    kernels = [{} for _ in columns]
    out = np.stack([plan.matmul(v, h.value, k) for v, k in zip(columns, kernels)])

    def backward(g):
        if h.requires_grad:
            _accum_owned(h, sum(plan.matmul_transpose(v, gd, k)
                                for v, gd, k in zip(columns, g, kernels)))
        if values.requires_grad:
            _accum_owned(values, np.stack([sddmm(plan, gd, h.value) for gd in g], axis=1))

    return tape._add(out, (values, h), backward, name="spmm_values")


def latent_structure_from_inputs(plan, pnodes):
    """Every level's latent graphs as value blocks on the tape.

    P_l composed by ``matmul`` as the model does, then ``csr_combine_stack``
    of the stacked inputs and ``csr_normalize``. Returns (raw, gcn_ready):
    the (nnz, D_{l+1}) raw and the normalized value block of every level.
    """
    raw, gcn_ready, mixing = [], [], None
    for layer in pnodes.layers:
        weights = ad.softmax_cols(layer.alpha)
        mixing = weights if mixing is None else ad.matmul(mixing, weights)
        raw.append(csr_combine_stack(mixing, plan.stacked))
        gcn_ready.append(csr_normalize(raw[-1], plan.union))
    return raw, gcn_ready


def chained_latent_structure(plan, pnodes):
    """``latent_structure_from_inputs`` by the chained form.

    Layer 0 combines the stacked inputs with ``csr_combine_stack``; each
    later layer mixes the previous level's (nnz, D_l) block with ``matmul``;
    a ReLU follows every level. Returns (raw, gcn_ready).
    """
    raw, gcn_ready = [], []
    for layer in pnodes.layers:
        weights = ad.softmax_cols(layer.alpha)
        if raw:
            block = ad.matmul(raw[-1], weights)
        else:
            block = csr_combine_stack(weights, plan.stacked)
        raw.append(relu(block))
        gcn_ready.append(csr_normalize(raw[-1], plan.union))
    return raw, gcn_ready


def value_block_loss(plan, pnodes, perm, latent_structure=latent_structure_from_inputs):
    """The hierarchical training loss with every latent graph a value block.

    ``latent_structure`` builds the blocks; ``spmm_values`` consumes them
    on their own ``extended_plan``, and the output head runs unfused:
    z = S h W by ``spmm_values``, ``select_matrix`` and ``matmul``, then the
    head-free ``infomax_bce``.
    Returns (loss, raw, gcn_ready).
    """
    raw, gcn_ready = latent_structure(plan, pnodes)
    spmm, layers, zs = extended_plan(plan.union), pnodes.layers, []
    for p in (None, perm):
        pre = mdl._first_level(plan, layers[0].gcn_w, p)
        for l, layer in enumerate(layers):
            h, _ = mdl._stack_attention(pre, layer.attn_v, layer.attn_y)
            if l + 1 < len(layers):
                prop = spmm_values(gcn_ready[l], spmm, h)
                pre = ad.batched_matmul(prop, layers[l + 1].gcn_w)
        zs.append(ad.matmul(select_matrix(spmm_values(gcn_ready[-1], spmm, h), 0), pnodes.final_w))
    return ad.infomax_bce(*zs, pnodes.disc_q), raw, gcn_ready


def full_loss_builder(graph, config, params, perm: np.ndarray):
    """(build_loss, flat parameter copies) for grad_check over the whole model."""
    plan = mdl.EncodePlan(graph, config)
    arrays = [arr.copy() for _, arr, _, _ in mdl.param_leaves(params)]

    def build(tape, nodes):
        return build_loss_nodes(plan, mdl.structure_from_leaves(params, nodes), perm)

    return build, arrays


def from_dense(mat) -> SparseAdjacency:
    """The nonzero entries of a square dense matrix as a SparseAdjacency."""
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DataFormatError(f"dense adjacency must be square, got {arr.shape}")
    s = sp.csr_matrix(arr)
    s.sort_indices()
    return SparseAdjacency(arr.shape[0], s.indptr, s.indices, s.data)


def to_dense(adj: SparseAdjacency) -> np.ndarray:
    return adj.to_scipy().toarray()


def expected_edge_counts(labels: np.ndarray, config: SbmConfig) -> tuple[float, float, int, int]:
    """(expected within, expected cross, within pairs, cross pairs) for a
    realized class assignment: the oracle for density checks."""
    sizes = np.bincount(labels, minlength=config.num_classes)
    within_pairs = int(sum(s * (s - 1) // 2 for s in sizes))
    total_pairs = config.num_nodes * (config.num_nodes - 1) // 2
    cross_pairs = int(total_pairs - within_pairs)
    return (
        within_pairs * config.p_in,
        cross_pairs * config.p_out,
        within_pairs,
        cross_pairs,
    )
