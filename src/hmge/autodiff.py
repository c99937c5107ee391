"""Reverse-mode automatic differentiation over dense matrices and CSR-backed
sparse values.

A Tape records nodes in construction order; backward walks them strictly in
reverse, accumulating adjoints additively. All arithmetic is float64. Scalar
reductions use compensated summation so results do not depend on chunking.

A latent adjacency matrix is the inputs mixed by one column of a weight
matrix P; its normalized form S = D^{-1/2}(A + I)D^{-1/2} is never stored.
Every consumer scales its thin operand instead, S X = dn (A (dn X) + dn X)
with dn = D^{-1/2}, reads forward-only caches on P's node and pulls its
gradient straight back to P (``NormalizePlan``). The last level's graph is
applied through the inputs, one CSR product per input
(``NormalizePlan.through_inputs``), by ``infomax_bce``'s head and by
``model.encode``. An inner level's graphs become a block of mixed value
columns on the inputs' union pattern (UnionPattern) when ``spmm_var``
first multiplies by them, and the plan builds that pattern on its first
such product, so a one-level plan never builds it. The pullback goes
through the inputs in sparse mode and runs a BLAS product and an SDDMM in
dense mode. Plain ``spmm`` treats its sparse operand as a constant.
Every input is a dimension of a ``multiplex.MultiplexGraph``: exactly
symmetric and free of diagonal entries, checked where the graph is built
and nowhere here. Each product that reads A_k^T as A_k rests on it.

The attention step is one op: ``attend`` rectifies a (D, N, M)
pre-activation stack, scores it, normalizes the scores per node and forms
the weighted sum over dimensions, with one hand-written pullback into the
stack, V and y. The training objective is one op too: ``infomax_bce``
maps the clean and the corrupted last-layer outputs, the output head (the
last mixing node, its ``NormalizePlan`` and ``final_w``) and the
discriminator matrix to the scalar loss; the linear baseline, whose
embeddings are its last-layer outputs, passes no head. Every op here is
one that production calls. Every op on a (D, N, M) stack returns and pulls
back C-contiguous arrays, so reshapes downstream (``spmm``'s operand,
Adam's flat views) are views. The corrupted pass shuffles no stack: with
one-hot features ``model`` shuffles the columns of ``spmm``'s operator.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import HmgeError, NumericError
from .multiplex import SparseAdjacency, index_dtype

# Latent graphs whose normalized form is at least this dense (and small
# enough) multiply on BLAS-backed dense kernels, the rest in CSR; the two
# agree to ~1e-12 and are regression-tested. The value gradient does not
# depend on this choice.
DENSE_DENSITY_THRESHOLD = 0.05
DENSE_MAX_NODES = 2600

# Dense mode takes the value gradient (an SDDMM) over row blocks whose dense
# B x N product holds at most SDDMM_BLOCK_ELEMS float64 (2 MB, cache-sized):
# one GEMM per block, whose entries are gathered. Sparse mode has no SDDMM;
# its latent pullback takes one CSR product per input. On a 2-core x86-64
# host with OpenBLAS (2 threads), N in {1000, 2000, 8000} and K in {32, 64},
# a GEMM cost 0.026-0.040 ns per multiply-add and a CSR product 0.40-0.80 ns
# per entry-column, so the two break even at 3-10 % density, about where
# DENSE_DENSITY_THRESHOLD splits the modes.
SDDMM_BLOCK_ELEMS = 1 << 18


class Node:
    """One tape entry: a value and the pullback closure into its producers."""

    __slots__ = (
        "tape",
        "value",
        "requires_grad",
        "is_parameter",
        "name",
        "adjoint",
        "_backward",
        "_cache",
    )

    def __init__(self, tape, value, backward=None, requires_grad=False,
                 is_parameter=False, name=None):
        self.tape = tape
        self.value = value
        self.requires_grad = requires_grad
        self.is_parameter = is_parameter
        self.name = name
        self.adjoint = None
        self._backward = backward
        self._cache = None

    @property
    def shape(self):
        return self.value.shape

    def cache(self) -> dict:
        if self._cache is None:
            self._cache = {}
        return self._cache

    def __repr__(self):
        tag = self.name or ("param" if self.is_parameter else "node")
        return f"Node({tag}, shape={getattr(self.value, 'shape', None)})"


class Tape:
    """Append-only computation record; confined to one logical thread."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.parameters: list[Node] = []
        self._backward_done = False

    def _add(self, value, parents=(), backward=None, name=None) -> Node:
        value = np.asarray(value, dtype=np.float64)
        requires = any(p.requires_grad for p in parents)
        node = Node(self, value, backward, requires_grad=requires, name=name)
        self.nodes.append(node)
        return node

    def constant(self, value, name=None) -> Node:
        node = Node(self, np.asarray(value, dtype=np.float64), name=name)
        self.nodes.append(node)
        return node

    def parameter(self, value, name=None) -> Node:
        """A leaf whose adjoint ``backward`` keeps. A float64 array is held as
        is, not copied: no op writes to a leaf, and the caller may step it in
        place once ``backward`` has run."""
        node = Node(self, np.asarray(value, dtype=np.float64), requires_grad=True,
                    is_parameter=True, name=name)
        self.nodes.append(node)
        self.parameters.append(node)
        return node

    def backward(self, loss: Node) -> None:
        """Fill ``adjoint`` of every reachable node with d(loss)/d(node).

        Reverse insertion order guarantees every consumer of a node ran
        before the node itself, so intermediate adjoints and kernel caches
        are dropped as soon as they have been propagated (parameters keep
        theirs), and each pullback as soon as it has run, with the arrays
        it captured. Node values stay until ``release``, except where a
        pullback frees its own input's (``attend``).
        """
        if self._backward_done:
            raise HmgeError("backward already ran on this tape; rebuild the forward pass")
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if loss.value.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        if not np.all(np.isfinite(loss.value)):
            raise NumericError("loss is not finite")
        self._backward_done = True
        loss.adjoint = np.ones_like(loss.value)
        for node in reversed(self.nodes):
            if node.adjoint is not None and node._backward is not None:
                node._backward(node.adjoint)
            node._backward = None
            if not node.is_parameter:
                node.adjoint = None
                node._cache = None

    def gradients(self) -> list[np.ndarray]:
        """Adjoints of all parameters, zeros where a parameter is unused."""
        return [
            p.adjoint if p.adjoint is not None else np.zeros_like(p.value)
            for p in self.parameters
        ]

    def release(self) -> None:
        """Break node reference cycles so large arrays free immediately.

        Values, adjoints, and closures all go; the tape is unusable after.
        """
        for node in self.nodes:
            node._backward = None
            node._cache = None
            node.adjoint = None
            node.value = None
        self.nodes = []
        self.parameters = []


def _accum_owned(node: Node, delta: np.ndarray) -> None:
    """Accumulate a freshly allocated delta; takes ownership on first touch."""
    if not node.requires_grad:
        return
    if node.adjoint is None:
        node.adjoint = delta
    else:
        node.adjoint += delta


def _stack(arrays) -> np.ndarray:
    """np.stack along a new leading axis; a single array becomes a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _same_tape(*nodes: Node) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise ValueError("operands belong to different tapes")
    return tape


# ---------------------------------------------------------------------------
# dense ops


def matmul(a: Node, b: Node) -> Node:
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

    def backward(g):
        if a.requires_grad:
            _accum_owned(a, g @ bv.T)
        if b.requires_grad:
            _accum_owned(b, av.T @ g)

    return tape._add(av @ bv, (a, b), backward, name="matmul")


def _relu(x: np.ndarray, inplace: bool = False):
    """(max(x, 0), its slope 1[x > 0]), into x itself with ``inplace``: the
    encoder's one non-linearity, which ``relu`` and ``attend`` both apply.

    The slope at exactly zero is taken as zero. np.maximum passes NaN
    through (np.where would zero it), so a non-finite pre-activation still
    reaches the non-finite-loss guard in Tape.backward.
    """
    slope = x > 0.0
    return np.maximum(x, 0.0, out=x if inplace else None), slope


def relu(a: Node) -> Node:
    value, slope = _relu(a.value)

    def backward(g):
        _accum_owned(a, g * slope)

    return a.tape._add(value, (a,), backward, name="relu")


def sigmoid_value(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (eager helper).

    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with one
    exponential e = exp(-|x|) that cannot overflow; min(x, -x) is -|x| and
    passes a NaN through as it is, so the bits equal those of the two
    branches evaluated apart.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax_cols(a: Node) -> Node:
    """Softmax down each column; columns of the result sum to one."""
    if a.value.ndim != 2:
        raise ValueError("softmax_cols expects a matrix")
    e = np.exp(a.value - a.value.max(axis=0, keepdims=True))
    s = e / e.sum(axis=0, keepdims=True)

    def backward(g):
        inner = (g * s).sum(axis=0, keepdims=True)
        _accum_owned(a, s * (g - inner))

    return a.tape._add(s, (a,), backward, name="softmax_cols")


def batched_matmul(a: Node, b: Node) -> Node:
    """Per-block matrix product: (D, N, K) @ (D, K, M) -> (D, N, M)."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim != 3 or bv.ndim != 3 or av.shape[0] != bv.shape[0]:
        raise ValueError(f"batched_matmul expects stacked operands: {av.shape} @ {bv.shape}")
    if av.shape[2] != bv.shape[1]:
        raise ValueError(f"batched_matmul shape mismatch: {av.shape} @ {bv.shape}")

    def backward(g):
        if a.requires_grad:
            _accum_owned(a, g @ np.swapaxes(bv, 1, 2))
        if b.requires_grad:
            _accum_owned(b, np.swapaxes(av, 1, 2) @ g)

    return tape._add(av @ bv, (a, b), backward, name="batched_matmul")


# A row of attention scores is ill-conditioned when its signed sum lies
# within ATTENTION_GUARD of zero or below max|score| / AMPLIFICATION_BOUND:
# dividing by a sum much smaller than the scores themselves would scale the
# weights by orders of magnitude (observed four orders at 41 dimensions),
# which drowns the aggregated signal.
ATTENTION_GUARD = 1e-6
AMPLIFICATION_BOUND = 10.0


def uniform_weights(width: int) -> np.ndarray:
    """1/width per entry, last entry compensated so the true sum is exactly 1."""
    row = np.full(width, 1.0 / width)
    row[-1] = 1.0 - (width - 1) * (1.0 / width)
    return row


def attend(pre: Node, v: Node, y: Node) -> Node:
    """The attention step of a (D, N, M) pre-activation stack: the fused
    rows sum_d beta_nd h_dn (N, M), with the weights beta (N, D) kept
    forward-only in the node's cache ("beta").

    h = relu(pre) is taken in place, and the pullback overwrites that
    buffer with ``pre``'s adjoint and sets ``pre.value`` to None, so the
    buffer lives on only as the adjoint and no second (D, N, M) array is
    kept in either direction: ``pre`` must be an op's fresh output that
    nothing else reads and whose own pullback does not read it, as
    ``spmm``'s and ``batched_matmul``'s; a leaf is refused. Scores
    s_nd = tanh(h_nd V_d^T y_d) are evaluated as h_nd u_d with
    u_d = V_d^T y_d, one (D, M) block instead of a projected stack. Each
    row is divided by its signed sum, so its weights sum to 1 and stay
    bounded by AMPLIFICATION_BOUND; ill-conditioned rows fall back to
    uniform weights 1/D and pass no gradient through the weights.
    With one dimension every weight is exactly 1. The pullback forms
    c = d(loss)/d(h_nd . u_d) and the gradients of V and y from h, then
    writes the stack gradient (beta_.d g + c_d u_d^T) 1[h_d > 0] over h,
    slice by slice.
    """
    tape = _same_tape(pre, v, y)
    hv, vv, yv = pre.value, v.value, y.value
    d, m = hv.shape[0], hv.shape[-1]
    if hv.ndim != 3 or vv.shape != (d, m, m) or yv.shape != (d, m):
        raise ValueError(f"attend shape mismatch: {hv.shape}, {vv.shape}, {yv.shape}")
    if pre._backward is None:
        raise ValueError("attend rectifies its input in place: pass an op's output, not a leaf")
    hv, slope = _relu(hv, inplace=True)
    u = np.einsum("dnm,dn->dm", vv, yv)
    scores = np.ascontiguousarray(np.tanh(np.einsum("dnm,dm->dn", hv, u)).T)
    sums = scores.sum(axis=1, keepdims=True)
    floor = np.maximum(
        ATTENTION_GUARD, np.abs(scores).max(axis=1, keepdims=True) / AMPLIFICATION_BOUND
    )
    safe = np.abs(sums) >= floor
    denom = np.where(safe, sums, 1.0)
    beta = np.where(safe, scores / denom, uniform_weights(d))

    def backward(g):
        g_beta = np.einsum("dnm,nm->nd", hv, g)
        inner = (g_beta * beta).sum(axis=1, keepdims=True)
        # d(loss)/d(h_nd . u_d), through the normalization and the tanh.
        c = (np.where(safe, (g_beta - inner) / denom, 0.0) * (1.0 - scores * scores)).T
        if v.requires_grad or y.requires_grad:
            du = np.einsum("dnm,dn->dm", hv, c)
            if v.requires_grad:
                _accum_owned(v, yv[:, :, None] * du[:, None, :])
            if y.requires_grad:
                _accum_owned(y, np.einsum("dnm,dm->dn", vv, du))
        if pre.requires_grad:
            # h is read for the last time above. One (N, M) slice at a time,
            # so each stays in cache. At M = 32 einsum forms these broadcast
            # products ~1.5x faster than np.multiply (2-core x86-64, numpy
            # 2.4), to the same bits.
            cu = np.empty_like(g)
            for k in range(d):
                np.einsum("n,nm->nm", beta[:, k], g, out=hv[k])
                np.einsum("n,m->nm", c[k], u[k], out=cu)
                hv[k] += cu
                hv[k] *= slope[k]
            _accum_owned(pre, hv)
        pre.value = None

    node = tape._add(np.einsum("dnm,nd->nm", hv, beta), (pre, v, y), backward, name="attend")
    node.cache()["beta"] = beta
    return node


def infomax_bce(h: Node, h_hat: Node, q: Node, mixing: Node | None = None,
                plan: NormalizePlan | None = None, w: Node | None = None) -> Node:
    """The InfoMax objective: mean BCE of the discriminator sigma(z_i^T Q s).

    The rows of z = S h W are the positives and the rows of z_hat = S h_hat W
    the negatives; the summary s is the mean of the rows of z. S is the one
    latent graph of ``mixing`` (D_in x 1), normalized by ``plan``, and W is
    ``w``; without them (the linear baseline) z = h. z is never formed: the
    scores are S(h u) and S(h_hat u) with u = W Q s, and s = (S 1)^T h W / N
    (S being symmetric), so the head applies S to thin operands only, each
    time through the inputs (``plan.through_inputs``): S 1, the scores,
    S g_scores and S(h dp). The last two also give the entry term of the
    pullback to ``mixing`` (``plan.backward``). The logs are exact at any
    score x: log sigma(x) = -logaddexp(0, -x) and log(1 - sigma(x)) =
    -logaddexp(0, x).
    """
    head = () if mixing is None else (mixing, w)
    tape = _same_tape(h, h_hat, q, *head)
    hv, hh, qv = h.value, h_hat.value, q.value
    n = hv.shape[0]
    if hv.ndim != 2 or hh.shape != hv.shape or qv.shape != (hv.shape[1],) * 2 or head and (
        mixing.value.shape[1:] != (1,) or plan.num_nodes != n or w.value.shape != qv.shape
    ):
        shapes = [a.value.shape for a in (h, h_hat, q, *head)]
        raise ValueError(f"infomax_bce shape mismatch: {shapes}")
    if head:
        latent, weights, wv = plan.latent(mixing), mixing.value[:, 0], w.value
        dn, ones = latent["dn"], np.ones((n, 1))
        c = plan.through_inputs(dn, weights, ones)[0][:, 0]  # S 1
        p = (c @ hv) / n
        s = p @ wv
        qs = qv @ s
        u = wv @ qs
    else:
        c = np.ones(n)
        s = hv.mean(axis=0)
        u = qs = qv @ s
    ab = np.stack([hv @ u, hh @ u], axis=1)
    scores = plan.through_inputs(dn, weights, ab)[0] if head else ab
    pos, neg = scores[:, 0], scores[:, 1]
    # fsum: exactly rounded and independent of traversal order.
    loss = (math.fsum(np.logaddexp(0.0, -pos)) + math.fsum(np.logaddexp(0.0, neg))) / (2.0 * n)

    def backward(g):
        # d(loss)/d(score) on each side, through the log and the sigmoid.
        g = g / (2.0 * n)
        g_scores = np.stack([-g * sigmoid_value(-pos), g * sigmoid_value(neg)], axis=1)
        # d(loss)/d(h u) and d(loss)/d(h_hat u), then back through u and s.
        g_ab, first = plan.through_inputs(
            dn, weights, g_scores, ab if mixing.requires_grad else None
        ) if head else (g_scores, None)
        du = hv.T @ g_ab[:, 0]
        du += hh.T @ g_ab[:, 1]
        dqs = wv.T @ du if head else du
        ds = qv.T @ dqs
        dp = (wv @ ds if head else ds) / n
        if h_hat.requires_grad:
            _accum_owned(h_hat, np.outer(g_ab[:, 1], u))
        if q.requires_grad:
            _accum_owned(q, np.outer(dqs, s))
        if h.requires_grad:
            dh = np.outer(g_ab[:, 0], u)
            dh += np.outer(c, dp)
            _accum_owned(h, dh)
        if head and w.requires_grad:
            dw = np.outer(du, qs)
            dw += np.outer(p, ds)
            _accum_owned(w, dw)
        if head and mixing.requires_grad:
            # S is read by the scores, G = g_scores on H = ab, and by the
            # mean, s reading 1^T S: G = 1 on H = h dp, where S G = c. Its
            # entry term pairs G = h dp with H = 1, the same by symmetry.
            hdp = (hv @ dp)[:, None]
            shdp, first_mean = plan.through_inputs(dn, weights, hdp, ones)
            g2, h2 = np.column_stack([g_scores, ones]), np.column_stack([ab, hdp])
            y2, sg2 = np.column_stack([scores, shdp]), np.column_stack([g_ab, c])
            dp_head = plan.backward(latent, 0, g2, h2, y2, sg2, first + first_mean)
            _accum_owned(mixing, dp_head[:, None])

    return tape._add(np.asarray(loss), (h, h_hat, q, *head), backward, name="infomax_bce")


# ---------------------------------------------------------------------------
# sparse-pattern support


class UnionPattern:
    """Union of the sparsity patterns of a graph's D dimensions over N nodes
    (``MultiplexGraph``), so of one size and diagonal-free.

    Built from one sort of the keys row * N + col of every stored entry of
    every adjacency: the distinct keys, in order, are the union in CSR
    order, and an entry's rank among them is its slot. ``slots`` holds the
    slot of every input entry, adjacency by adjacency in CSR order.
    """

    def __init__(self, adjacencies: Sequence[SparseAdjacency]):
        n = adjacencies[0].num_nodes
        keys = np.concatenate([adj.row_indices() * n + adj.indices for adj in adjacencies])
        keys, slots = np.unique(keys, return_inverse=True)
        index = index_dtype(keys.shape[0], n)
        self.slots = slots.astype(index, copy=False)
        self.num_nodes = int(n)
        rows, indices = np.divmod(keys, n)
        self.rows, self.indices = rows.astype(index), indices.astype(index)
        self.indptr = np.searchsorted(rows, np.arange(n + 1)).astype(index)
        self.nnz = int(keys.shape[0])

    def to_adjacency(self, values: np.ndarray) -> SparseAdjacency:
        return SparseAdjacency(self.num_nodes, self.indptr, self.indices, values)


class SpmmPlan:
    """Kernels for A @ H where A has a fixed pattern and per-pass values.

    The pattern and the values are symmetric (A == A^T), as ``NormalizePlan``
    mixes them from a graph's dimensions (``MultiplexGraph``), so A^T @ H
    runs on the kernel of A. ``dense_mode`` picks the kernels: dense mode
    scatters the values into a dense matrix and runs BLAS, and takes the
    value gradient by a row-blocked SDDMM; sparse mode stays in CSR and has
    no value gradient (the latent pullback runs through the inputs instead,
    see ``spmm_var``). The density of the pattern plus the diagonal, which
    the normalization adds, picks the mode through DENSE_DENSITY_THRESHOLD
    and DENSE_MAX_NODES; to force a mode, set those constants before the
    plan is built, which ``NormalizePlan`` does on its first inner-level
    product. Dense mode plans its row blocks on its first product or SDDMM
    (``_row_blocks``).
    """

    def __init__(self, num_nodes, indptr, indices):
        self.num_nodes = n = int(num_nodes)
        self.indptr = indptr
        self.indices = indices
        self.nnz = int(indices.shape[0])
        density = (self.nnz + n) / float(n) ** 2
        self.dense_mode = bool(density >= DENSE_DENSITY_THRESHOLD and n <= DENSE_MAX_NODES)
        self.blocks = None

    def _row_blocks(self) -> list:
        """(first row, end row, first entry, end entry, offsets) of every row
        block that holds entries, where ``offsets`` places each of its
        entries in the block's dense (B x N) matrix; built on first use."""
        if self.blocks is None:
            n, indptr = self.num_nodes, self.indptr
            rows = max(1, SDDMM_BLOCK_ELEMS // n)
            flat = np.repeat(np.arange(n, dtype=np.int64) % rows, np.diff(indptr))
            flat *= n
            flat += self.indices
            self.blocks = []
            for lo in range(0, n, rows):
                hi = min(lo + rows, n)
                a, b = int(indptr[lo]), int(indptr[hi])
                if a < b:
                    self.blocks.append((lo, hi, a, b, flat[a:b]))
        return self.blocks

    def _dense(self, values: np.ndarray, cache: dict) -> np.ndarray:
        if "dense" not in cache:
            mat = np.zeros((self.num_nodes, self.num_nodes))
            for lo, hi, a, b, flat in self._row_blocks():
                mat[lo:hi].reshape(-1)[flat] = values[a:b]
            cache["dense"] = mat
        return cache["dense"]

    def _csr(self, values: np.ndarray, cache: dict) -> sp.csr_matrix:
        """A in CSR, built once per ``cache``."""
        if "csr" not in cache:
            n = self.num_nodes
            cache["csr"] = sp.csr_matrix((values, self.indices, self.indptr), shape=(n, n))
        return cache["csr"]

    def matmul(self, values, dense, cache: dict) -> np.ndarray:
        if self.dense_mode:
            return self._dense(values, cache) @ dense
        return self._csr(values, cache) @ dense

    def matmul_transpose(self, values, dense, cache: dict) -> np.ndarray:
        if self.dense_mode:
            return self._dense(values, cache).T @ dense
        return self._csr(values, cache) @ dense

    def grad_values(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """d(loss)/d(values) for out = A @ H given d(loss)/d(out) = g; dense mode only.

        The SDDMM out[e] = g[row_e] . h[col_e], block by block: each block
        multiplies its rows of g by h^T into one reused buffer (one GEMM)
        and gathers its entries.
        """
        n, blocks = self.num_nodes, self._row_blocks()
        out = np.empty(self.nnz)
        buf = np.empty(max((hi - lo for lo, hi, *_ in blocks), default=0) * n)
        for lo, hi, a, b, flat in blocks:
            prod = buf[: (hi - lo) * n]
            np.matmul(g[lo:hi], h.T, out=prod.reshape(hi - lo, n))
            np.take(prod, flat, out=out[a:b])
        return out


class NormalizePlan:
    """D^{-1/2}(A + I)D^{-1/2} of latent graphs mixed from fixed inputs.

    ``per_input`` holds each input as an (N x N) CSR matrix and ``row_sums``
    their row sums R (D_in x N), so a latent graph's degree is 1 + R^T p.
    Only an inner level (``spmm_var``) reads the rest, built on first access:
    the inputs' diagonal-free union ``pattern``, ``stacked``, their values
    one row per input on it, so mixing column p makes a graph
    A = stacked^T p on it, and ``spmm``, which multiplies by such a graph.
    Every consumer applies the normalized graph S by scaling the thin
    operand with dn = deg^{-1/2}: S X = dn (A (dn X) + dn X), A being the
    mixed graph (``forward``) or the sum of the weighted inputs
    (``through_inputs``).

    The inputs are a graph's dimensions, symmetric and loop-free
    (``MultiplexGraph``), so ``through_inputs`` reads A_k as A_k^T. The
    latent graphs are forward-only (``latent``, ``graphs``). A consumer
    of Y = S H with G = d(loss)/dY pulls the gradient straight back to p;
    ``backward`` folds
      dp[k] = sum_{(i,j) in A_k} A_k[ij] dn_i dn_j (G_i . H_j) + sum_i R[k, i] ddeg_i,
      ddeg_i = -(G_i . Y_i + H_i . (S G)_i) / (2 deg_i).
    The inputs being symmetric, the entry term of input k is also
    sum_i (dn H)_i . (A_k (dn G))_i, or the same with G and H swapped.
    """

    def __init__(self, adjacencies: Sequence[SparseAdjacency]):
        self.adjacencies = tuple(adjacencies)
        self.num_nodes = n = adjacencies[0].num_nodes
        self.per_input = [adj.to_scipy() for adj in adjacencies]
        self.row_sums = np.stack([a @ np.ones(n) for a in self.per_input])

    @functools.cached_property
    def pattern(self) -> UnionPattern:
        return UnionPattern(self.adjacencies)

    @functools.cached_property
    def stacked(self) -> sp.csr_matrix:
        offsets = np.cumsum([0] + [adj.nnz for adj in self.adjacencies])
        data = np.concatenate([adj.values for adj in self.adjacencies])
        shape = (len(self.adjacencies), self.pattern.nnz)
        return sp.csr_matrix((data, self.pattern.slots, offsets), shape=shape)

    @functools.cached_property
    def spmm(self) -> SpmmPlan:
        return SpmmPlan(self.num_nodes, self.pattern.indptr, self.pattern.indices)

    def latent(self, mixing: Node) -> dict:
        """The degrees of the latent graphs of ``mixing`` (D_in x D), cached on
        its node: "deg" = 1 + R^T P and "dn" = deg^{-1/2}, both (N, D)."""
        cache = mixing.cache()
        if "deg" not in cache:
            deg = 1.0 + self.row_sums.T @ mixing.value
            cache.update(deg=deg, dn=1.0 / np.sqrt(deg))
        return cache

    def graphs(self, mixing: Node) -> dict:
        """``latent`` plus the mixed graphs, built once per node: "values"
        (nnz, D) = stacked^T P, column-major, and one multiply-kernel dict
        per column ("kernels"). Only ``forward``, for the inner levels,
        reads them."""
        cache = self.latent(mixing)
        if "values" not in cache:
            values = np.asfortranarray(self.stacked.T @ mixing.value)
            cache.update(values=values, kernels=[{} for _ in range(values.shape[1])])
        return cache

    def forward(self, latent: dict, d: int, x: np.ndarray) -> np.ndarray:
        """S X for graph ``d`` of a ``graphs`` cache: dn (A (dn X) + dn X)."""
        dn = latent["dn"][:, d, None]
        dnx = dn * x
        sx = self.spmm.matmul(latent["values"][:, d], dnx, latent["kernels"][d])
        sx += dnx
        sx *= dn
        return sx

    def backward(self, latent: dict, d: int, g, h, y, sg, first) -> np.ndarray:
        """dp for graph ``d`` of a ``latent`` cache whose consumer holds
        Y = S H (``y``), G (``g``), S G (``sg``) and the entry term, one
        value per input (``first``)."""
        ddeg = (np.einsum("nk,nk->n", g, y) + np.einsum("nk,nk->n", h, sg)) / (
            -2.0 * latent["deg"][:, d])
        return first + self.row_sums @ ddeg

    def through_inputs(self, dn, weights, g, h=None):
        """(S G, entry term) of the graph mixed by ``weights``, whose dn is the
        column ``dn`` (N, 1), from one CSR product per input, P_k = A_k (dn G):
          S G = dn (sum_k weights[k] P_k + dn G),  first[k] = sum(dn H * P_k).
        Without ``h`` the entry term is None. The P_k are formed one at a
        time, never as one (D_in N x M) block.
        """
        dng = dn * g
        sg = dng.copy()
        first = None if h is None else np.empty(len(self.per_input))
        dnh = None if h is None else dn * h
        for k, (a_k, w) in enumerate(zip(self.per_input, weights)):
            p_k = a_k @ dng
            if dnh is not None:
                first[k] = np.vdot(dnh, p_k)
            p_k *= w
            sg += p_k
        sg *= dn
        return sg, first


# ---------------------------------------------------------------------------
# sparse ops


def spmm(adj: sp.csr_matrix, h: Node) -> Node:
    """Constant block-diagonal sparse matrix times a (D, N, M) stack.

    ``adj`` is a scipy CSR matrix holding D graphs over N nodes each as one
    matrix over D*N nodes; its block d multiplies ``h[d]``. No gradient
    flows to the matrix.
    """
    if not (sp.issparse(adj) and adj.format == "csr"):
        raise ValueError("spmm expects a scipy CSR matrix")
    size = adj.shape[0]
    shape = h.value.shape
    if h.value.ndim != 3 or shape[0] * shape[1] != size:
        raise ValueError(f"spmm shape mismatch: {size} nodes vs {shape}")

    def backward(g):
        if h.requires_grad:
            _accum_owned(h, (adj.T @ g.reshape(size, -1)).reshape(shape))

    out = adj @ h.value.reshape(size, -1)
    return h.tape._add(out.reshape(shape), (h,), backward, name="spmm")


def spmm_var(mixing: Node, plan: NormalizePlan, h: Node) -> Node:
    """S_d @ H for every latent graph d of ``mixing`` (D_in x D); returns (D, N, M).

    S_d, the normalized latent graph of mixing column d, is applied by
    ``plan.forward`` to the mixed graph of the forward-only cache of
    ``plan.graphs``: the first product builds the mixed values and the
    multiply kernel, once per mixing node, so every product with the same
    graphs (the clean and the corrupted pass) shares them. Gradients flow
    to H and, through ``plan.backward``, straight to ``mixing``. In dense
    mode S_d G_d is ``plan.forward`` again and the entry term a GEMM SDDMM
    folded onto the inputs; in sparse mode one CSR product per input gives
    both (``through_inputs``). The pullback takes S_d^T as S_d: the inputs
    are a graph's dimensions, symmetric by its contract (``MultiplexGraph``).
    """
    tape = _same_tape(mixing, h)
    spmm = plan.spmm
    if h.value.ndim != 2 or h.value.shape[0] != spmm.num_nodes:
        raise ValueError(f"spmm_var shape mismatch: {spmm.num_nodes} vs {h.value.shape}")
    latent, hv = plan.graphs(mixing), h.value
    out = _stack([plan.forward(latent, d, hv) for d in range(mixing.value.shape[1])])

    def backward(g):
        dh, dp = None, np.empty(mixing.value.shape) if mixing.requires_grad else None
        for d, gd in enumerate(g):
            dn = latent["dn"][:, d, None]
            if spmm.dense_mode:
                sg = plan.forward(latent, d, gd)  # S_d G_d, S_d being symmetric
                if dp is not None:
                    first = plan.stacked @ spmm.grad_values(dn * gd, dn * hv)
            else:
                sg, first = plan.through_inputs(
                    dn, mixing.value[:, d], gd, None if dp is None else hv)
            if dp is not None:
                dp[:, d] = plan.backward(latent, d, gd, hv, out[d], sg, first)
            if h.requires_grad:
                dh = sg if dh is None else np.add(dh, sg, out=dh)
        _accum_owned(h, dh)
        _accum_owned(mixing, dp)

    return tape._add(out, (mixing, h), backward, name="spmm_var")
