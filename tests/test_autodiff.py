import numpy as np
import pytest
import scipy.sparse as sp

from hmge import autodiff as ad
from hmge.errors import HmgeError, NumericError
from hmge.multiplex import SparseAdjacency, normalize_adjacency
from hmge.training import infomax_loss
from oracles import (
    add,
    attention_weights,
    csr_combine_stack,
    csr_normalize,
    elementwise_mul,
    extended_pattern,
    extended_plan,
    from_dense,
    grad_check,
    latent_dense,
    mix_stack,
    negative_gradients,
    permute_rows,
    normalized_dense,
    position_map,
    scale,
    select_matrix,
    sddmm,
    spmm_values,
    sum_all,
    tanh,
    to_dense,
    unfused_attention,
)


def force_mode(monkeypatch, num_nodes, dense_mode):
    """Make every plan built next on ``num_nodes`` nodes pick the given kernels.

    The mode follows from the pattern through DENSE_DENSITY_THRESHOLD and
    DENSE_MAX_NODES, so those are set to values that select it.
    """
    if dense_mode:
        monkeypatch.setattr(ad, "DENSE_DENSITY_THRESHOLD", 0.0)
        monkeypatch.setattr(ad, "DENSE_MAX_NODES", num_nodes)
    else:
        monkeypatch.setattr(ad, "DENSE_DENSITY_THRESHOLD", 2.0)


def forced_plan(monkeypatch, union, dense_mode):
    """SpmmPlan on ``union`` in the given kernel mode; the assert keeps a
    test from running one kernel twice."""
    force_mode(monkeypatch, union.num_nodes, dense_mode)
    plan = ad.SpmmPlan(union.num_nodes, union.indptr, union.indices)
    assert plan.dense_mode is dense_mode
    return plan


def forced_norm_plan(monkeypatch, adjacencies, dense_mode):
    """NormalizePlan of ``adjacencies`` in the given kernel mode."""
    force_mode(monkeypatch, adjacencies[0].num_nodes, dense_mode)
    plan = ad.NormalizePlan(adjacencies)
    assert plan.spmm.dense_mode is dense_mode
    return plan


def weighted_inputs(mask, rng, dims=2):
    """``dims`` weighted symmetric adjacencies whose union pattern is ``mask``
    (symmetric 0/1, zero diagonal): the first holds every entry, the others
    about half of them, so many entries belong to several inputs."""
    out = []
    for d in range(dims):
        keep = rng.random(mask.shape) < (1.0 if d == 0 else 0.5)
        upper = np.triu(mask * keep * rng.uniform(0.5, 2.0, mask.shape), 1)
        out.append(from_dense(upper + upper.T))
    return out


def symmetric_value_block(union, rng, columns):
    """(nnz, columns) value block; each column is a symmetric matrix on ``union``."""
    block = []
    for _ in range(columns):
        sym = to_dense(union.to_adjacency(rng.uniform(0.2, 1.5, union.nnz)))
        sym = 0.5 * (sym + sym.T)
        block.append(sym[union.rows, union.indices])
    return np.stack(block, axis=1)


def random_sym_dense(n, rng, density, isolated=0):
    """0/1 symmetric adjacency; the last ``isolated`` nodes have no edge."""
    m = (rng.random((n, n)) < density).astype(float)
    m[n - isolated:] = m[:, n - isolated:] = 0.0
    m = np.triu(m, 1)
    return m + m.T


def random_sym_adj(n, density, seed):
    return from_dense(random_sym_dense(n, np.random.default_rng(seed), density))


class TestForwardValues:
    def test_sigmoid_zero(self):
        assert ad.sigmoid_value(np.zeros(1))[0] == 0.5

    def test_sigmoid_matches_the_two_branch_form_bitwise(self):
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0.0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            e = np.exp(x[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        rng = np.random.default_rng(5)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
        draws = np.concatenate([rng.normal(0.0, 3.0, 1000), rng.uniform(-700, 700, 1000)])
        # exp(-800) underflows to zero in either form; nothing else may
        # overflow, divide by zero or make a NaN.
        for x, errors in ((special, {"all": "raise"}), (draws, {"all": "raise"}),
                          (np.array([800.0, -800.0]), {"all": "raise", "under": "ignore"})):
            with np.errstate(**errors):
                got, want = ad.sigmoid_value(x), two_branch(x)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_relu_negative_and_derivative(self):
        t = ad.Tape()
        x = t.parameter(np.array([-3.0]))
        loss = sum_all(ad.relu(x))
        assert loss.value == 0.0
        t.backward(loss)
        assert x.adjoint[0] == 0.0

    def test_relu_at_zero_has_zero_derivative(self):
        t = ad.Tape()
        x = t.parameter(np.array([0.0]))
        loss = sum_all(ad.relu(x))
        t.backward(loss)
        assert x.adjoint[0] == 0.0

    def test_relu_propagates_nan(self):
        # A NaN pre-activation must reach the loss, and so the non-finite
        # guard in Tape.backward, instead of being clipped to zero.
        t = ad.Tape()
        x = t.parameter(np.array([np.nan, -1.0, 2.0]))
        out = ad.relu(x)
        assert np.isnan(out.value[0]) and out.value[1] == 0.0 and out.value[2] == 2.0
        loss = sum_all(out)
        assert np.isnan(loss.value)
        with pytest.raises(NumericError):
            t.backward(loss)

    def test_softmax_cols_columns_sum_to_one(self):
        t = ad.Tape()
        logits = np.random.default_rng(0).standard_normal((5, 3))
        out = ad.softmax_cols(t.constant(logits))
        assert np.abs(out.value.sum(axis=0) - 1.0).max() < 1e-12

    def test_shape_mismatch_fails_before_compute(self):
        t = ad.Tape()
        a = t.constant(np.ones((2, 3)))
        b = t.constant(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ad.matmul(a, b)
        with pytest.raises(ValueError):
            elementwise_mul(a, t.constant(np.ones((3, 2))))
        with pytest.raises(ValueError):
            ad.infomax_bce(a, b, t.constant(np.ones((2, 2))))


class TestBackwardBasics:
    def test_sum_of_matrix_gives_ones(self):
        t = ad.Tape()
        w = t.parameter(np.random.default_rng(0).standard_normal((2, 2)))
        loss = sum_all(w)
        t.backward(loss)
        assert np.array_equal(w.adjoint, np.ones((2, 2)))

    def test_fanout_accumulates_exactly(self):
        t = ad.Tape()
        x = t.parameter(np.array([1.5]))
        loss = sum_all(add(x, x))
        t.backward(loss)
        assert x.adjoint[0] == 2.0

    def test_backward_twice_raises(self):
        t = ad.Tape()
        x = t.parameter(np.ones(1))
        loss = sum_all(x)
        t.backward(loss)
        with pytest.raises(HmgeError):
            t.backward(loss)

    def test_non_scalar_loss_rejected(self):
        t = ad.Tape()
        x = t.parameter(np.ones(3))
        with pytest.raises(ValueError):
            t.backward(x)

    def test_deterministic_replay(self):
        def run():
            t = ad.Tape()
            rng = np.random.default_rng(42)
            a = t.parameter(rng.standard_normal((4, 3)))
            b = t.parameter(rng.standard_normal((3, 4)))
            loss = sum_all(tanh(ad.matmul(a, b)))
            t.backward(loss)
            return float(loss.value), a.adjoint.copy(), b.adjoint.copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1 == l2
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)

    def test_matmul_chain_matches_fd(self):
        rng = np.random.default_rng(1)
        arrays = [rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (3, 4))]

        def build(tape, nodes):
            return sum_all(tanh(ad.matmul(nodes[0], nodes[1])))

        assert grad_check(build, arrays) < 1e-4

    def test_linear_loss_exact(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 5)
        arrays = [rng.uniform(-1, 1, 5)]

        def build(tape, nodes):
            return sum_all(elementwise_mul(nodes[0], tape.constant(x)))

        assert grad_check(build, arrays) < 1e-10


def attention_arrays(rng, dims, n=5, m=4):
    """(h, V, y) for ``attention_weights`` with positive, well-conditioned scores."""
    h = rng.uniform(0.1, 1.0, (dims, n, m))
    v = np.eye(m) + rng.uniform(-0.3, 0.3, (dims, m, m))
    y = rng.uniform(0.2, 1.0, (dims, m))
    return [h, v, y]


def pre_arrays(rng, dims, n=5, m=4):
    """(pre, V, y) for ``attend``: ``attention_arrays`` with about a third of
    the pre-activations negative, every entry at least 0.1 from the kink."""
    pre, v, y = attention_arrays(rng, dims, n, m)
    pre[rng.random(pre.shape) < 0.35] *= -1.0
    return [pre, v, y]


def fallback_attention_arrays(rng):
    """Two dimensions whose scores cancel exactly: y_1 = -y_0, the rest equal."""
    h, v, y = attention_arrays(rng, 1)
    return [np.concatenate([h, h]), np.concatenate([v, v]), np.concatenate([y, -y])]


def saturated_infomax_arrays(rng):
    """(z, z_hat, Q) whose scores z_i^T Q s are at least 42 in magnitude on
    z row 0 and z_hat rows 1 and 2, where the discriminator saturates, and
    at most 8.5 on every other row."""
    z, z_hat = rng.uniform(-0.5, 0.5, (6, 3)), rng.uniform(-0.5, 0.5, (6, 3))
    z[0], z_hat[1], z_hat[2] = 6.0, 6.0, -6.0
    return [z, z_hat, 4.0 * np.eye(3)]


def head_arrays(rng, saturated=False, n=6, m=3):
    """(P, h, h_hat, W, Q) and the NormalizePlan for the fused output head.

    S is the normalized mix by P (2 x 1) of two weighted inputs on ``n``
    nodes that share entries; the last node is isolated, so S holds a 1 at
    that node's diagonal and nothing else in its row and column. With
    ``saturated`` the corrupted row of that node scores 50, where the
    discriminator saturates.
    """
    adjs = weighted_inputs(random_sym_dense(n, rng, 0.6, isolated=1), rng)
    mixing = rng.uniform(0.2, 1.0, (2, 1))
    h, h_hat = rng.uniform(-1, 1, (2, n, m))
    w, q = rng.uniform(-1.5, 1.5, (2, m, m))
    if saturated:
        c = latent_dense(adjs, mixing[:, 0]).sum(axis=0)
        u = w @ q @ ((c @ h) @ w / n)
        h_hat[-1] = 50.0 * u / (u @ u)
    return [mixing, h, h_hat, w, q], ad.NormalizePlan(adjs)


def op_cases():
    rng = np.random.default_rng(7)

    def away_from_zero(shape, scale=1.0):
        # keep relu inputs clear of the kink
        x = rng.uniform(-1, 1, shape)
        x = np.where(np.abs(x) < 1e-3, 0.5, x)
        return x * scale

    cases = []
    cases.append(
        ("matmul", [rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (3, 5))],
         lambda t, n: sum_all(ad.matmul(n[0], n[1])))
    )
    cases.append(
        ("add3", [rng.uniform(-1, 1, (3, 3)) for _ in range(3)],
         lambda t, n: sum_all(tanh(add(*n))))
    )
    cases.append(
        ("scale", [rng.uniform(-1, 1, (3, 3))],
         lambda t, n: sum_all(scale(n[0], -2.5)))
    )
    cases.append(
        ("mul", [rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))],
         lambda t, n: sum_all(elementwise_mul(n[0], n[1])))
    )
    cases.append(
        ("relu", [away_from_zero((4, 4))],
         lambda t, n: sum_all(ad.relu(n[0])))
    )
    cases.append(("tanh", [rng.uniform(-1, 1, (4, 4))], lambda t, n: sum_all(tanh(n[0]))))
    c_sc = rng.uniform(-1, 1, (4, 5))
    cases.append(
        ("softmax_cols", [rng.uniform(-1, 1, (4, 5))],
         lambda t, n: sum_all(elementwise_mul(ad.softmax_cols(n[0]), t.constant(c_sc))))
    )
    cases.append(
        ("select_matrix", [rng.uniform(-1, 1, (3, 4, 2))],
         lambda t, n: sum_all(tanh(select_matrix(n[0], 1))))
    )
    cases.append(
        ("batched_matmul", [rng.uniform(-1, 1, (2, 4, 3)), rng.uniform(-1, 1, (2, 3, 5))],
         lambda t, n: sum_all(tanh(ad.batched_matmul(n[0], n[1]))))
    )
    cases.append(
        ("mix_stack", [rng.uniform(-1, 1, (3, 5, 2)), rng.uniform(-1, 1, (5, 3))],
         lambda t, n: sum_all(tanh(mix_stack(n[0], n[1]))))
    )
    # Weights sum to 1 per row, so the loss weighs them by fixed coefficients.
    c_aw = rng.uniform(-1, 1, (5, 3))
    cases.append(
        ("attention_weights", attention_arrays(rng, 3),
         lambda t, n: sum_all(elementwise_mul(attention_weights(*n), t.constant(c_aw))))
    )
    cases.append(
        ("attention_weights_d1", attention_arrays(rng, 1),
         lambda t, n: sum_all(tanh(mix_stack(n[0], attention_weights(*n)))))
    )
    c_fb = rng.uniform(-1, 1, (5, 2))
    cases.append(
        ("attention_weights_fallback", fallback_attention_arrays(rng),
         lambda t, n: sum_all(elementwise_mul(attention_weights(*n), t.constant(c_fb))))
    )
    cases.append(
        ("infomax_bce", [rng.uniform(-1, 1, (6, 3)) for _ in range(2)] + [rng.uniform(-2, 2, (3, 3))],
         lambda t, n: ad.infomax_bce(*n))
    )
    cases.append(
        ("infomax_bce_clamped", saturated_infomax_arrays(rng), lambda t, n: ad.infomax_bce(*n))
    )
    z_c, z_hat_c, q_c = (rng.uniform(-1, 1, shape) for shape in ((6, 3), (6, 3), (3, 3)))
    cases.append(
        ("infomax_bce_z_only", [z_c],
         lambda t, n: ad.infomax_bce(n[0], t.constant(z_hat_c), t.constant(q_c)))
    )
    cases.append(
        ("infomax_bce_q_only", [q_c],
         lambda t, n: ad.infomax_bce(t.constant(z_c), t.constant(z_hat_c), n[0]))
    )
    perm = rng.permutation(5)
    c_pr = rng.uniform(-1, 1, (2, 5, 3))
    cases.append(
        ("permute_rows", [rng.uniform(-1, 1, (2, 5, 3))],
         lambda t, n: sum_all(tanh(add(
             permute_rows(n[0], perm), elementwise_mul(n[0], t.constant(c_pr))))))
    )
    for name, saturated in (("infomax_bce_head", False), ("infomax_bce_head_clamped", True)):
        arrays, plan = head_arrays(rng, saturated)
        cases.append(
            (name, arrays,
             lambda t, n, plan=plan: ad.infomax_bce(n[1], n[2], n[4], n[0], plan, n[3]))
        )
    # The closed-form pullback of the normalization into the mixing weights.
    norm = ad.NormalizePlan(weighted_inputs(random_sym_dense(7, rng, 0.5), rng, 3))
    cases.append(
        ("spmm_var", [rng.uniform(0.2, 1.0, (3, 2)), rng.uniform(-1, 1, (7, 3))],
         lambda t, n: sum_all(tanh(ad.spmm_var(n[0], norm, n[1]))))
    )
    # The fused attention step. ``scale`` by 1 hands ``attend`` an op's
    # output, which it rectifies in place; pre_arrays keep the kink clear.
    for name, arrays in (("attend", pre_arrays(rng, 3)), ("attend_d1", pre_arrays(rng, 1)),
                         ("attend_fallback", fallback_attention_arrays(rng))):
        c_at = rng.uniform(-1, 1, arrays[0].shape[1:])
        cases.append(
            (name, arrays,
             lambda t, n, c=c_at: sum_all(tanh(elementwise_mul(
                 ad.attend(scale(n[0], 1.0), n[1], n[2]), t.constant(c)))))
        )
    return cases


@pytest.mark.parametrize("case", op_cases(), ids=lambda c: c[0])
def test_op_gradients_match_finite_differences(case):
    _, arrays, build = case
    assert grad_check(build, arrays) < 1e-4


@pytest.mark.parametrize("width", [1, 2])
def test_attention_weights_degenerate_rows_pass_no_gradient(width):
    # One dimension gives weight exactly 1; two dimensions whose scores
    # cancel exactly fall back to uniform weights. Neither passes a gradient.
    rng = np.random.default_rng(8)
    arrays = attention_arrays(rng, 1) if width == 1 else fallback_attention_arrays(rng)
    t = ad.Tape()
    h, v, y = (t.parameter(a) for a in arrays)
    beta = attention_weights(h, v, y)
    expected = np.tile(ad.uniform_weights(width), (5, 1))
    assert np.array_equal(beta.value, expected)
    loss = sum_all(elementwise_mul(beta, t.constant(rng.uniform(-1, 1, (5, width)))))
    t.backward(loss)
    for node in (h, v, y):
        assert node.adjoint is not None and not np.any(node.adjoint)


def attend_pair(arrays, coeffs, fused: bool):
    """(tape, (pre, V, y) parameters, output, beta) after backward of
    sum(out * coeffs), through ``attend`` or the unfused reference."""
    t = ad.Tape()
    pre, v, y = (t.parameter(a) for a in arrays)
    if fused:
        out = ad.attend(scale(pre, 1.0), v, y)
        beta = out.cache()["beta"]
    else:
        out, beta_node = unfused_attention(scale(pre, 1.0), v, y)
        beta = beta_node.value
    t.backward(sum_all(elementwise_mul(out, t.constant(coeffs))))
    return t, (pre, v, y), out.value, beta


@pytest.mark.parametrize("dims", [1, 3, 24])
def test_attend_matches_unfused_chain(dims):
    # relu -> attention_weights -> mix_stack, three ops, against the one.
    rng = np.random.default_rng(20 + dims)
    arrays = pre_arrays(rng, dims, n=9, m=6)
    arrays[0][rng.random(arrays[0].shape) < 0.05] = 0.0
    coeffs = rng.uniform(-1, 1, (9, 6))
    _, fused, out, beta = attend_pair(arrays, coeffs, fused=True)
    _, unfused, ref_out, ref_beta = attend_pair(arrays, coeffs, fused=False)
    assert np.array_equal(out, ref_out) and np.array_equal(beta, ref_beta)
    for got, want in zip(fused, unfused):
        assert np.abs(got.adjoint - want.adjoint).max() <= 1e-12 * np.abs(want.adjoint).max()
    # Exactly-zero and negative pre-activations get exactly zero gradient.
    assert np.all(fused[0].adjoint[arrays[0] <= 0.0] == 0.0)


def test_attend_rectifies_its_input_in_place():
    rng = np.random.default_rng(30)
    pre, v, y = pre_arrays(rng, 3)
    t = ad.Tape()
    x = t.parameter(pre)
    prod = scale(x, 1.0)
    out = ad.attend(prod, t.constant(v), t.constant(y))
    assert np.array_equal(prod.value, np.maximum(pre, 0.0))
    assert out.value.shape == pre.shape[1:] and not np.shares_memory(out.value, prod.value)
    with pytest.raises(ValueError, match="leaf"):
        ad.attend(x, t.constant(v), t.constant(y))


@pytest.mark.parametrize("dims", [1, 3])
def test_attend_pullback_writes_over_its_input(dims):
    # The adjoint attend hands its input's op is that op's own value buffer,
    # which then lives on only as that adjoint, and every gradient equals
    # the unfused chain's to the bit.
    rng = np.random.default_rng(32 + dims)
    arrays = pre_arrays(rng, dims, n=9, m=6)
    coeffs = rng.uniform(-1, 1, (9, 6))
    t = ad.Tape()
    pre, v, y = (t.parameter(a) for a in arrays)
    prod = scale(pre, 1.0)
    buffer, pullback, seen = prod.value, prod._backward, []
    prod._backward = lambda g: seen.append(g) or pullback(g)
    out = ad.attend(prod, v, y)
    t.backward(sum_all(elementwise_mul(out, t.constant(coeffs))))
    assert len(seen) == 1 and seen[0] is buffer and prod.value is None
    assert repr(prod).endswith("shape=None)")
    _, unfused, _, _ = attend_pair(arrays, coeffs, fused=False)
    for got, want in zip((pre, v, y), unfused):
        assert np.array_equal(got.adjoint, want.adjoint)


@pytest.mark.parametrize("width", [1, 2])
def test_attend_degenerate_rows_pass_no_weight_gradient(width):
    # One dimension gives weight exactly 1; two dimensions whose scores
    # cancel exactly fall back to uniform weights. Neither passes a gradient
    # through the weights: V and y get none, the stack only beta_.d g.
    rng = np.random.default_rng(8)
    arrays = pre_arrays(rng, 1) if width == 1 else fallback_attention_arrays(rng)
    coeffs = rng.uniform(-1, 1, (5, 4))
    _, (pre, v, y), _, beta = attend_pair(arrays, coeffs, fused=True)
    weights = ad.uniform_weights(width)
    assert np.array_equal(beta, np.tile(weights, (5, 1)))
    expected = weights[:, None, None] * coeffs * (arrays[0] > 0.0)
    assert np.array_equal(pre.adjoint, expected)
    for node in (v, y):
        assert node.adjoint is not None and not np.any(node.adjoint)


def test_attend_nan_pre_activation_reaches_the_guard():
    rng = np.random.default_rng(31)
    pre, v, y = pre_arrays(rng, 3)
    pre[1, 2, 0] = np.nan
    t = ad.Tape()
    out = ad.attend(scale(t.parameter(pre), 1.0), t.parameter(v), t.parameter(y))
    # Its row falls back to uniform weights; the NaN column reaches the loss.
    assert np.isnan(out.value[2, 0]) and np.isfinite(np.delete(out.value, 2, 0)).all()
    loss = sum_all(out)
    assert np.isnan(loss.value)
    with pytest.raises(NumericError):
        t.backward(loss)


@pytest.mark.parametrize("dims", [1, 3])
def test_permute_rows_gathers_contiguous_stacks(dims):
    # The fancy-index gather a[:, perm] returns a strided stack; permute_rows
    # returns and pulls back C-contiguous ones holding the same bits.
    rng = np.random.default_rng(40 + dims)
    a, g = rng.standard_normal((2, dims, 7, 4))
    perm = rng.permutation(7)
    t = ad.Tape()
    x = t.parameter(a)
    out = permute_rows(x, perm)
    t.backward(sum_all(elementwise_mul(out, t.constant(g))))
    assert out.value.flags.c_contiguous and np.array_equal(out.value, a[:, perm])
    assert x.adjoint.flags.c_contiguous and np.array_equal(x.adjoint, g[:, np.argsort(perm)])


def test_infomax_bce_matches_eager_loss():
    rng = np.random.default_rng(9)
    for z, z_hat, q in (
        [rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, (6, 3)), rng.uniform(-2, 2, (3, 3))],
        saturated_infomax_arrays(rng),
    ):
        t = ad.Tape()
        loss = ad.infomax_bce(t.constant(z), t.constant(z_hat), t.constant(q))
        assert float(loss.value) == infomax_loss(z, z_hat, z.mean(axis=0), q)


def test_infomax_bce_saturated_entries_pass_exact_gradient():
    # z_hat row 1 scores >= 42, on the wrong side: its gradient is about
    # Qs / 2N. Row 2 scores <= -42: its gradient is tiny but not zero.
    z, z_hat, q = saturated_infomax_arrays(np.random.default_rng(10))
    qs = q @ z.mean(axis=0)
    assert z[0] @ qs >= 42.0 and np.all(np.abs(z[1:] @ qs) <= 8.5)
    assert z_hat[1] @ qs >= 42.0 and z_hat[2] @ qs <= -42.0
    t = ad.Tape()
    zn, hn, qn = (t.parameter(a) for a in (z, z_hat, q))
    t.backward(ad.infomax_bce(zn, hn, qn))
    expected = negative_gradients(z, z_hat, q)
    assert np.all(np.abs(hn.adjoint - expected) <= 1e-12 * np.abs(expected))
    assert np.abs(hn.adjoint[1] - qs / 12.0).max() <= 1e-12 * np.abs(qs).max()
    assert 0.0 < np.abs(hn.adjoint[2]).max() < 1e-15


def test_infomax_bce_head_saturated_row_passes_exact_gradient():
    # The isolated node's corrupted score is S_rr (h_hat u)_r = 50, where
    # sigma rounds to 1: its adjoint is u / 2N, as the eager oracle has it.
    arrays, plan = head_arrays(np.random.default_rng(10), saturated=True)
    t = ad.Tape()
    mixing, h, h_hat, w, q = (t.parameter(a) for a in arrays)
    t.backward(ad.infomax_bce(h, h_hat, q, mixing, plan, w))
    s_mat = normalized_dense(sum(w * a.toarray() for w, a in zip(arrays[0][:, 0], plan.per_input)))
    expected = negative_gradients(s_mat @ arrays[1] @ arrays[3], s_mat @ arrays[2] @ arrays[3],
                                  arrays[4], s_mat, arrays[3])
    assert np.abs(h_hat.adjoint - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.all(np.abs(h_hat.adjoint[-1] - expected[-1]) <= 1e-12 * np.abs(expected[-1]))
    assert np.all(h_hat.adjoint[-1] != 0.0)
    assert np.all(np.any(h.adjoint != 0.0, axis=1))


@pytest.mark.parametrize("dense_mode", [True, False])
def test_infomax_bce_head_matches_unfused_chain(monkeypatch, dense_mode):
    # z = S h W through the value-block chain (csr_combine_stack,
    # csr_normalize, spmm_values on the diagonal-extended pattern, a slice
    # and matmul), then the head-free loss.
    rng = np.random.default_rng(61)
    plan = forced_norm_plan(
        monkeypatch, weighted_inputs(banded_mask(40, 12, 0.1, 3, seed=60), rng, 3), dense_mode
    )
    arrays = [rng.uniform(0.2, 1.0, (3, 1)),
              *rng.uniform(-1, 1, (2, 40, 4)), *rng.uniform(-2, 2, (2, 4, 4))]

    def run(fused):
        t = ad.Tape()
        nodes = [t.parameter(a) for a in arrays]
        mixing, h, h_hat, w, q = nodes
        if fused:
            loss = ad.infomax_bce(h, h_hat, q, mixing, plan, w)
        else:
            values = csr_normalize(csr_combine_stack(mixing, plan.stacked), plan.pattern)
            ext = extended_plan(plan.pattern)
            z, z_hat = (ad.matmul(select_matrix(spmm_values(values, ext, x), 0), w)
                        for x in (h, h_hat))
            loss = ad.infomax_bce(z, z_hat, q)
        t.backward(loss)
        return float(loss.value), [n.adjoint for n in nodes]

    (loss, grads), (ref_loss, ref_grads) = run(True), run(False)
    assert abs(loss - ref_loss) <= 1e-12 and abs(ref_loss - np.log(2)) > 1e-3
    for got, ref in zip(grads, ref_grads):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_infomax_bce_head_invariant_under_output_basis_change():
    # W -> W A and Q -> A^{-1} Q A^{-T} map z to z A and s to A^T s, so every
    # score z_i^T Q s, and with it the loss, keeps its value.
    rng = np.random.default_rng(62)
    (mixing, h, h_hat, w, q), plan = head_arrays(rng)
    a = np.eye(3) + rng.uniform(-0.3, 0.3, (3, 3))
    assert np.linalg.cond(a) < 4.0
    a_inv = np.linalg.inv(a)

    def loss(w, q):
        t = ad.Tape()
        h_n, h_hat_n, q_n, mixing_n, w_n = (t.constant(x) for x in (h, h_hat, q, mixing, w))
        return float(ad.infomax_bce(h_n, h_hat_n, q_n, mixing_n, plan, w_n).value)

    base = loss(w, q)
    assert abs(base - np.log(2)) > 1e-3
    assert abs(loss(w @ a, a_inv @ q @ a_inv.T) - base) <= 1e-12 * base


class TestSparseOps:
    @pytest.mark.parametrize("case", ["values", "pattern"])
    def test_normalize_plan_rejects_asymmetric_inputs(self, case):
        # through_inputs reads every input as its own transpose, so the graph
        # that holds the inputs refuses, where it is built, an input with
        # asymmetric values on a symmetric pattern, and a one-directional
        # input whose union with the others is symmetric.
        from hmge.errors import DataFormatError
        from hmge.multiplex import MultiplexGraph

        upper = np.triu(random_sym_dense(5, np.random.default_rng(13), 0.6), 1)
        if case == "values":
            inputs = [from_dense(upper + 2.0 * upper.T)]
        else:
            inputs = [from_dense(upper), from_dense(upper.T)]
        assert ad.UnionPattern(inputs).nnz == 2 * np.count_nonzero(upper)
        with pytest.raises(DataFormatError, match="dimension 1 is not symmetric"):
            ad.NormalizePlan(
                MultiplexGraph(5, [from_dense(upper + upper.T), *inputs], np.eye(5)).dimensions)

    @pytest.mark.parametrize("dense_mode", [True, False], ids=["dense", "sparse"])
    def test_normalize_plan_forward_matches_dense(self, monkeypatch, dense_mode):
        # S X = dn (A (dn X) + dn X) against the dense normalized mix of the
        # inputs. The last node is isolated: S holds a 1 at its diagonal, so
        # its row of S X is its row of X, exactly.
        rng = np.random.default_rng(63)
        adjs = weighted_inputs(random_sym_dense(9, rng, 0.5, isolated=1), rng, 3)
        plan = forced_norm_plan(monkeypatch, adjs, dense_mode)
        mixing = ad.Tape().constant(rng.uniform(0.2, 1.0, (3, 2)))
        latent = plan.graphs(mixing)
        x = rng.standard_normal((9, 4))
        for d in range(2):
            s_mat = latent_dense(adjs, mixing.value[:, d])
            got = plan.forward(latent, d, x)
            assert np.all(np.abs(got - s_mat @ x) <= 1e-12 * (np.abs(s_mat) @ np.abs(x)))
            assert np.array_equal(got[-1], x[-1])

    @pytest.mark.parametrize("dense_mode", [True, False], ids=["dense", "sparse"])
    def test_kernel_mode_fixed_at_first_inner_product(self, monkeypatch, dense_mode):
        # The multiply plan is built on the first inner-level product, so the
        # DENSE_* constants in force then pick its mode, not those at
        # construction; once built, the mode stays. forced_norm_plan reads
        # ``spmm`` while its constants are set, so it still forces the mode.
        rng = np.random.default_rng(64)
        adjs = weighted_inputs(random_sym_dense(9, rng, 0.5), rng, 3)
        force_mode(monkeypatch, 9, not dense_mode)
        plan = ad.NormalizePlan(adjs)
        assert "spmm" not in vars(plan)
        force_mode(monkeypatch, 9, dense_mode)
        tape = ad.Tape()
        mixing = tape.constant(rng.uniform(0.2, 1.0, (3, 2)))
        ad.spmm_var(mixing, plan, tape.constant(rng.standard_normal((9, 4))))
        assert vars(plan)["spmm"].dense_mode is dense_mode
        force_mode(monkeypatch, 9, not dense_mode)
        assert plan.spmm.dense_mode is dense_mode
        for mode in (dense_mode, not dense_mode):
            assert forced_norm_plan(monkeypatch, adjs, mode).spmm.dense_mode is mode

    def test_spmm_constant_operand(self):
        adj = random_sym_adj(6, 0.5, 0)
        norm = normalize_adjacency(adj).to_scipy()
        rng = np.random.default_rng(1)
        arrays = [rng.uniform(-1, 1, (1, 6, 3))]

        def build(tape, nodes):
            return sum_all(tanh(ad.spmm(norm, nodes[0])))

        assert grad_check(build, arrays) < 1e-4

    def test_spmm_value_matches_dense(self):
        adj = random_sym_adj(7, 0.4, 2)
        h = np.random.default_rng(3).standard_normal((1, 7, 4))
        t = ad.Tape()
        out = ad.spmm(adj.to_scipy(), t.constant(h))
        assert np.allclose(out.value[0], to_dense(adj) @ h[0], atol=1e-13)

    def test_csr_combine_stack_gradients(self):
        adjs = [random_sym_adj(6, 0.4, s) for s in (6, 7, 8)]
        union = ad.UnionPattern(adjs)
        slots = np.concatenate(
            [position_map(union.indptr, union.indices, a) for a in adjs]
        )
        indptr = np.cumsum([0] + [a.nnz for a in adjs])
        data = np.concatenate([a.values for a in adjs])
        stacked = sp.csr_matrix((data, slots, indptr), shape=(3, union.nnz))
        rng = np.random.default_rng(9)
        coeff = rng.uniform(-1, 1, (union.nnz, 2))
        arrays = [rng.uniform(-1, 1, (3, 2))]

        def build(tape, nodes):
            mixed = csr_combine_stack(nodes[0], stacked)
            return sum_all(elementwise_mul(mixed, tape.constant(coeff)))

        assert grad_check(build, arrays) < 1e-4

        # value equals the per-column dense weighted sum
        t = ad.Tape()
        out = csr_combine_stack(t.constant(arrays[0]), stacked)
        for j in range(2):
            expected = sum(arrays[0][i, j] * to_dense(a) for i, a in enumerate(adjs))
            got = to_dense(union.to_adjacency(out.value[:, j]))
            assert np.allclose(got, expected, atol=1e-14)

    def test_csr_normalize_matches_dense_and_gradients(self):
        union = ad.UnionPattern([random_sym_adj(6, 0.5, 11)])
        ext_indptr, ext_indices = extended_pattern(6, union.indptr, union.indices)[:2]
        rng = np.random.default_rng(12)
        # symmetric values so they form a valid undirected matrix
        sym_vals = to_dense(union.to_adjacency(rng.uniform(0.2, 2.0, union.nnz)))
        sym_vals = 0.5 * (sym_vals + sym_vals.T)
        vals = sym_vals[union.rows, union.indices][:, None]

        t = ad.Tape()
        out = csr_normalize(t.constant(vals), union)
        dense = sym_vals + np.eye(6)
        dinv = 1.0 / np.sqrt(dense.sum(axis=1))
        expected = dense * np.outer(dinv, dinv)
        got = to_dense(SparseAdjacency(6, ext_indptr, ext_indices, out.value[:, 0]))
        assert np.abs(got - expected).max() < 1e-13

        coeff = rng.uniform(-1, 1, (union.nnz + 6, 1))

        def build(tape, nodes):
            normed = csr_normalize(nodes[0], union)
            return sum_all(elementwise_mul(normed, tape.constant(coeff)))

        assert grad_check(build, [vals]) < 1e-4

    def test_csr_normalize_block_columns_independent(self):
        union = ad.UnionPattern([random_sym_adj(5, 0.6, 20)])
        rng = np.random.default_rng(21)
        block = rng.uniform(0.2, 1.5, (union.nnz, 3))
        t = ad.Tape()
        out_block = csr_normalize(t.constant(block), union)
        for j in range(3):
            t2 = ad.Tape()
            out_col = csr_normalize(t2.constant(block[:, j:j + 1].copy()), union)
            assert np.array_equal(out_block.value[:, j], out_col.value[:, 0])

        coeff = rng.uniform(-1, 1, (union.nnz + 5, 3))

        def build(tape, nodes):
            normed = csr_normalize(nodes[0], union)
            return sum_all(elementwise_mul(normed, tape.constant(coeff)))

        assert grad_check(build, [block]) < 1e-4

    def test_spmm_var_gradients_both_modes(self, monkeypatch):
        rng = np.random.default_rng(31)
        adjs = weighted_inputs(random_sym_dense(6, rng, 0.5), rng, 3)
        arrays = [rng.uniform(0.2, 1.0, (3, 2)), rng.uniform(-1, 1, (6, 3))]
        for dense_mode in (True, False):
            plan = forced_norm_plan(monkeypatch, adjs, dense_mode)

            def build(tape, nodes):
                return sum_all(tanh(ad.spmm_var(nodes[0], plan, nodes[1])))

            assert grad_check(build, arrays) < 1e-4

    def test_spmm_var_dense_sparse_agree(self, monkeypatch):
        rng = np.random.default_rng(41)
        adjs = weighted_inputs(random_sym_dense(8, rng, 0.4), rng, 3)
        mixing, h = rng.uniform(0.2, 1.0, (3, 3)), rng.uniform(-1, 1, (8, 4))
        outs = []
        for dense_mode in (True, False):
            plan = forced_norm_plan(monkeypatch, adjs, dense_mode)
            t = ad.Tape()
            p = t.parameter(mixing)
            hn = t.parameter(h)
            out = ad.spmm_var(p, plan, hn)
            loss = sum_all(tanh(out))
            t.backward(loss)
            outs.append((out.value.copy(), p.adjoint.copy(), hn.adjoint.copy()))
        for a, b in zip(outs[0], outs[1]):
            assert np.abs(a - b).max() < 1e-12


def banded_mask(n, band, sparse_density, empty, seed):
    """Symmetric 0/1 matrix: nodes [0, band) ~30 % linked among themselves,
    the others at ``sparse_density``, and the last ``empty`` nodes isolated."""
    rng = np.random.default_rng(seed)
    m = rng.random((n, n)) < sparse_density
    m[:band, :band] = rng.random((band, band)) < 0.3
    m = np.triu(m, 1)
    m = m | m.T
    m[n - empty:, :] = False
    m[:, n - empty:] = False
    return m.astype(float)


def banded_pattern(n, band, sparse_density, empty, seed):
    """The union pattern of ``banded_mask``."""
    return ad.UnionPattern([from_dense(banded_mask(n, band, sparse_density, empty, seed))])


def sddmm_scale(plan, g, h):
    """sum_k |g[row_e, k]| |h[col_e, k]| over the entries of ``plan``'s
    pattern: the size of the rounding of the SDDMM's entry e."""
    rows = np.repeat(np.arange(plan.num_nodes), np.diff(plan.indptr))
    return np.einsum("ek,ek->e", np.abs(g[rows]), np.abs(h[plan.indices]))


def assert_sddmm_matches_oracle(plan, g, h):
    """The GEMM blocks cover every entry and equal the eager einsum to 1e-12."""
    got = plan.grad_values(g, h)
    assert sum(b - a for _, _, a, b, _ in plan.blocks) == plan.nnz
    assert np.all(np.abs(got - sddmm(plan, g, h)) <= 1e-12 * sddmm_scale(plan, g, h))


class TestBlockedSddmm:
    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("dense_mode", [True, False])
    def test_mixed_blocks_match_oracle(self, monkeypatch, width, dense_mode):
        # 1024 nodes make 4 dense-mode blocks of 256 rows: a dense band,
        # sparse rows and 7 isolated rows. Dense mode takes the entry term
        # from the GEMM SDDMM and S G from ``forward``, sparse mode both from
        # one product per input; each matches its entry-by-entry oracle.
        rng = np.random.default_rng(51)
        adjs = weighted_inputs(banded_mask(1024, 256, 0.003, 7, seed=50), rng, 3)
        plan = forced_norm_plan(monkeypatch, adjs, dense_mode)
        mixing = ad.Tape().constant(rng.uniform(0.2, 1.0, (3, 2)))
        latent = plan.graphs(mixing)
        g = rng.standard_normal((1024, width))
        h = rng.standard_normal((1024, width))
        dn = latent["dn"][:, 1, None]
        want = plan.stacked @ sddmm(plan.spmm, dn * g, dn * h)
        scale = plan.stacked @ sddmm_scale(plan.spmm, dn * g, dn * h)
        if dense_mode:
            assert_sddmm_matches_oracle(plan.spmm, dn * g, dn * h)
            assert [hi - lo for lo, hi, *_ in plan.spmm.blocks] == [256] * 4
            first = plan.stacked @ plan.spmm.grad_values(dn * g, dn * h)
            sg = plan.forward(latent, 1, g)
        else:
            sg, first = plan.through_inputs(dn, mixing.value[:, 1], g, h)
            assert plan.spmm.blocks is None
        assert np.all(np.abs(first - want) <= 1e-12 * scale)
        s = latent_dense(adjs, mixing.value[:, 1])
        assert np.all(np.abs(sg - s @ g) <= 1e-12 * (abs(s) @ np.abs(g)))

    def test_one_row_blocks_above_budget(self, monkeypatch):
        monkeypatch.setattr(ad, "SDDMM_BLOCK_ELEMS", 64)
        union = banded_pattern(100, 20, 0.02, 5, seed=52)
        plan = forced_plan(monkeypatch, union, True)
        rng = np.random.default_rng(53)
        assert_sddmm_matches_oracle(
            plan, rng.standard_normal((100, 3)), rng.standard_normal((100, 3))
        )
        assert all(hi - lo == 1 for lo, hi, *_ in plan.blocks)

    @pytest.mark.parametrize("dense_mode", [True, False])
    def test_spmm_var_gradients_mixed_blocks(self, monkeypatch, dense_mode):
        monkeypatch.setattr(ad, "SDDMM_BLOCK_ELEMS", 48)
        rng = np.random.default_rng(55)
        adjs = weighted_inputs(banded_mask(12, 4, 0.15, 1, seed=54), rng)
        plan = forced_norm_plan(monkeypatch, adjs, dense_mode)
        arrays = [rng.uniform(0.2, 1.0, (2, 2)), rng.uniform(-1, 1, (12, 2))]

        def build(tape, nodes):
            return sum_all(tanh(ad.spmm_var(nodes[0], plan, nodes[1])))

        assert grad_check(build, arrays) < 1e-4
        # Dense mode: three blocks of four rows; sparse mode has no SDDMM.
        blocks = plan.spmm.blocks
        assert ([hi - lo for lo, hi, *_ in blocks] == [4] * 3) if dense_mode else blocks is None

    def test_sparse_mode_builds_csr_once_per_values(self, monkeypatch):
        union = banded_pattern(30, 10, 0.1, 2, seed=56)
        plan = forced_plan(monkeypatch, union, False)
        rng = np.random.default_rng(57)
        vals = symmetric_value_block(union, rng, 1)[:, 0]
        h = rng.standard_normal((30, 3))
        eager = sp.csr_matrix((vals, union.indices, union.indptr), shape=(30, 30))
        cache = {}
        assert np.array_equal(plan.matmul(vals, h, cache), eager @ h)
        assert np.array_equal(plan.matmul_transpose(vals, h, cache), eager.T.tocsr() @ h)
        built = dict(cache)
        # Symmetric values: S^T @ H runs on the kernel of S.
        assert set(built) == {"csr"}
        plan.matmul(vals, h, cache)
        plan.matmul_transpose(vals, h, cache)
        assert all(cache[k] is built[k] for k in built)

    @pytest.mark.parametrize("dense_mode", [True, False])
    def test_spmm_var_shares_column_kernels_across_products(self, monkeypatch, dense_mode):
        rng = np.random.default_rng(59)
        adjs = weighted_inputs(banded_mask(30, 10, 0.1, 2, seed=58), rng)
        plan = forced_norm_plan(monkeypatch, adjs, dense_mode)
        t = ad.Tape()
        p = t.constant(rng.uniform(0.2, 1.5, (2, 2)))
        first = ad.spmm_var(p, plan, t.constant(rng.standard_normal((30, 3))))
        latent = p.cache()
        built = [dict(kernels) for kernels in latent["kernels"]]
        h = rng.standard_normal((30, 3))
        second = ad.spmm_var(p, plan, t.constant(h))
        assert first.value.shape == second.value.shape == (2, 30, 3)
        assert len(built) == 2 and all(built)
        for d, kernels in enumerate(built):
            assert all(latent["kernels"][d][k] is kernels[k] for k in kernels)
            eager = latent_dense(adjs, p.value[:, d])
            assert np.abs(second.value[d] - eager @ h).max() < 1e-12


class TestGradCheckHelper:
    def test_nonfinite_loss_raises(self):
        from hmge.errors import NumericError

        def build(tape, nodes):
            # 0 * inf produces a NaN loss
            return sum_all(scale(nodes[0], float("inf")))

        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(NumericError):
                grad_check(build, [np.zeros(2)])
