import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hmge import autodiff as ad
from hmge import model as mdl
from hmge.errors import ConfigError, DataFormatError
from hmge.model import (
    EncodePlan,
    HmgeConfig,
    HmgeParams,
    LinearParams,
    encode,
    init_linear_params,
    init_params,
    load_model,
    readout,
    save_model,
    softmax_alpha,
)
from hmge.evaluation import split_links
from hmge.multiplex import (
    MultiplexGraph,
    SparseAdjacency,
    load_multiplex,
    mirror_positions,
    normalize_adjacency,
    save_multiplex,
)
from hmge.model import param_leaves
from hmge.training import build_loss_nodes
from oracles import (
    attention_aggregate,
    chained_latent_structure,
    combine_adjacencies,
    discriminate,
    elementwise_mul,
    from_dense,
    gcn_forward,
    linearize_relu,
    normalized_dense,
    permute_rows,
    position_map,
    sum_all,
    to_dense,
    union_pattern,
    value_block_loss,
)


def random_sym_dense(n, rng, density=0.4):
    m = (rng.random((n, n)) < density).astype(float)
    m = np.triu(m, 1)
    return m + m.T


def circulant_dense(n, offsets):
    """Symmetric circulant adjacency; circulants commute with one another."""
    m = np.zeros((n, n))
    for k in offsets:
        for i in range(n):
            m[i, (i + k) % n] = 1.0
            m[(i + k) % n, i] = 1.0
    np.fill_diagonal(m, 0.0)
    return m


def two_dim_graph(a1, a2, x):
    n = a1.shape[0]
    return MultiplexGraph(
        n,
        (from_dense(a1), from_dense(a2)),
        x,
    )


class TestConfig:
    def test_schedule_defaults(self):
        assert HmgeConfig(num_layers=2).schedule_for(41) == (41, 21, 1)
        assert HmgeConfig(num_layers=2).schedule_for(3) == (3, 2, 1)
        assert HmgeConfig(num_layers=1).schedule_for(5) == (5, 1)
        assert HmgeConfig(num_layers=0).schedule_for(7) == (7,)

    def test_trailing_ones_allowed(self):
        assert HmgeConfig(num_layers=1, dims_schedule=(1, 1)).schedule_for(1) == (1, 1)
        assert HmgeConfig(num_layers=2).schedule_for(2) == (2, 1, 1)

    def test_increasing_schedule_rejected(self):
        with pytest.raises(ConfigError):
            HmgeConfig(num_layers=2, dims_schedule=(3, 4, 1))
        with pytest.raises(ConfigError):
            HmgeConfig(num_layers=2, dims_schedule=(3, 3, 1))

    def test_schedule_graph_mismatch(self):
        cfg = HmgeConfig(num_layers=1, dims_schedule=(3, 1))
        with pytest.raises(ConfigError):
            cfg.schedule_for(4)


class TestGcnForward:
    def test_edgeless_identity_passthrough(self):
        adj = from_dense(np.zeros((3, 3)))
        norm = normalize_adjacency(adj)  # identity matrix
        h = np.abs(np.random.default_rng(0).standard_normal((3, 3)))
        out = gcn_forward(h, norm, np.eye(3))
        assert np.allclose(out, h, atol=0, rtol=0)

    def test_zero_weights_give_zero(self):
        adj = SparseAdjacency.from_undirected_edges(3, [0], [1])
        out = gcn_forward(np.ones((3, 2)), normalize_adjacency(adj), np.zeros((2, 4)))
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_two_node_hand_value(self):
        adj = SparseAdjacency.from_undirected_edges(2, [0], [1])
        out = gcn_forward(np.array([[1.0], [0.0]]), normalize_adjacency(adj), np.array([[1.0]]))
        assert np.abs(out - np.array([[0.5], [0.5]])).max() < 1e-15

    def test_relu_applied(self):
        adj = from_dense(np.zeros((2, 2)))
        out = gcn_forward(np.array([[1.0], [1.0]]), normalize_adjacency(adj), np.array([[-2.0]]))
        assert np.array_equal(out, np.zeros((2, 1)))


class TestAttentionAggregate:
    def test_single_dimension_identity(self):
        h = np.random.default_rng(0).standard_normal((4, 3))
        agg, beta = attention_aggregate([h], [np.eye(3)], [np.ones(3)])
        assert np.array_equal(agg, h)
        assert np.array_equal(beta, np.ones((4, 1)))

    def test_identical_dimensions_split_evenly(self):
        rng = np.random.default_rng(1)
        h = np.abs(rng.standard_normal((5, 3))) + 0.1
        v, y = np.eye(3), np.ones(3)
        agg, beta = attention_aggregate([h, h], [v, v], [y, y])
        assert np.abs(beta - 0.5).max() < 1e-12
        assert np.allclose(agg, h)

    def test_hand_set_scores(self):
        # scores 0.3 and 0.6 for every node -> weights 1/3 and 2/3
        h1 = np.full((2, 1), math.atanh(0.3))
        h2 = np.full((2, 1), math.atanh(0.6))
        v, y = np.array([[1.0]]), np.array([1.0])
        agg, beta = attention_aggregate([h1, h2], [v, v], [y, y])
        assert np.abs(beta[0] - np.array([1 / 3, 2 / 3])).max() < 1e-12
        expected = (1 / 3) * h1[0] + (2 / 3) * h2[0]
        assert np.abs(agg[0] - expected).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((6, 4)) for _ in range(3)]
        vs = [rng.standard_normal((4, 4)) for _ in range(3)]
        ys = [rng.standard_normal(4) for _ in range(3)]
        _, beta = attention_aggregate(mats, vs, ys)
        assert np.abs(beta.sum(axis=1) - 1.0).max() < 1e-9

    def test_guard_fallback_uniform(self):
        import math

        from hmge.autodiff import uniform_weights

        # zero scores for every dimension trip the guard
        h = np.zeros((3, 2))
        v, y = np.eye(2), np.ones(2)
        _, beta = attention_aggregate([h, h, h], [v] * 3, [y] * 3)
        assert np.abs(beta - 1 / 3).max() < 1e-15
        for row in beta:
            assert np.array_equal(row, uniform_weights(3))
            assert math.fsum(row) == 1.0


class TestCombineAdjacencies:
    def test_single_input_passthrough(self):
        adj = SparseAdjacency.from_undirected_edges(3, [0], [1])
        outs = combine_adjacencies([adj], np.zeros((1, 1)))
        assert len(outs) == 1
        assert np.allclose(to_dense(outs[0]), to_dense(adj))

    def test_equal_logits_average(self):
        rng = np.random.default_rng(0)
        a1 = random_sym_dense(5, rng)
        a2 = random_sym_dense(5, rng)
        g1, g2 = from_dense(a1), from_dense(a2)
        outs = combine_adjacencies([g1, g2], np.zeros((2, 1)))
        assert np.allclose(to_dense(outs[0]), 0.5 * a1 + 0.5 * a2)

    def test_disjoint_edges_both_present(self):
        g1 = SparseAdjacency.from_undirected_edges(3, [0], [1])
        g2 = SparseAdjacency.from_undirected_edges(3, [1], [2])
        out = to_dense(combine_adjacencies([g1, g2], np.zeros((2, 1)))[0])
        assert out[0, 1] == 0.5 and out[1, 2] == 0.5

    def test_output_pattern_is_union(self):
        g1 = SparseAdjacency.from_undirected_edges(4, [0], [1])
        g2 = SparseAdjacency.from_undirected_edges(4, [2], [3])
        out = combine_adjacencies([g1, g2], np.zeros((2, 2)))
        assert out[0].nnz == 4 and out[1].nnz == 4

    def test_symmetric_output(self):
        rng = np.random.default_rng(1)
        adjs = [from_dense(random_sym_dense(6, rng)) for _ in range(3)]
        outs = combine_adjacencies(adjs, rng.standard_normal((3, 2)))
        for o in outs:
            dense = to_dense(o)
            assert np.abs(dense - dense.T).max() == 0.0

    def test_softmax_columns_sum_to_one(self):
        logits = np.random.default_rng(3).standard_normal((4, 3)) * 5
        w = softmax_alpha(logits)
        assert np.abs(w.sum(axis=0) - 1.0).max() < 1e-12

    def test_matches_tape_latent_adjacencies(self):
        # The tape builds every layer's latent graphs as one value block on
        # the union pattern; the oracle combines them layer by layer.
        cfg = HmgeConfig(embed_size=4, num_layers=2, dims_schedule=(4, 2, 1))
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            mats = [from_dense(random_sym_dense(9, rng)) for _ in range(4)]
            graph = MultiplexGraph(9, tuple(mats), rng.standard_normal((9, 3)))
            params = init_params(cfg, 4, 3, rng)
            for layer in params.layers:
                layer.alpha = rng.standard_normal(layer.alpha.shape)
            trace = encode(graph, params, cfg)
            inputs = graph.dimensions
            for layer, latent in zip(params.layers, trace.latent_adjacencies):
                expected = combine_adjacencies(inputs, layer.alpha, "relu")
                assert len(latent) == len(expected)
                for got, want in zip(latent, expected):
                    assert np.abs(to_dense(got) - to_dense(want)).max() <= 1e-12
                inputs = expected


class TestReadoutDiscriminate:
    def test_readout_zeros(self):
        assert np.array_equal(readout(np.zeros((4, 3))), np.zeros(3))

    def test_readout_identical_rows(self):
        r = np.array([2.0, -1.0, 0.5])
        z = np.tile(r, (5, 1))
        assert np.array_equal(readout(z), r)

    def test_readout_mean(self):
        z = np.array([[1.0, 3.0], [3.0, 5.0]])
        assert np.array_equal(readout(z), np.array([2.0, 4.0]))

    def test_discriminate_zero_matrix(self):
        rng = np.random.default_rng(0)
        assert discriminate(rng.standard_normal(4), rng.standard_normal(4), np.zeros((4, 4))) == 0.5

    def test_discriminate_identity_unit(self):
        e1 = np.zeros(3)
        e1[0] = 1.0
        val = discriminate(e1, e1, np.eye(3))
        assert abs(val - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12

    def test_discriminate_matches_direct(self):
        rng = np.random.default_rng(1)
        h, s = rng.standard_normal(5), rng.standard_normal(5)
        q = rng.standard_normal((5, 5))
        direct = 1.0 / (1.0 + math.exp(-float(h @ q @ s)))
        assert abs(discriminate(h, s, q) - direct) < 1e-12


class TestChainedLatentStructure:
    """Every level combined from the inputs against the chained form."""

    @staticmethod
    def weighted_graph(rng, n=9, dims=4):
        mats = []
        for d in range(dims):
            weights = rng.uniform(0.5, 2.0, (n, n))
            adj = from_dense(random_sym_dense(n, rng) * (weights + weights.T))
            values = adj.values.copy()
            if d == 0:
                # An explicitly stored zero, on both sides.
                values[[0, mirror_positions(n, adj.indptr, adj.indices)[0]]] = 0.0
            mats.append(SparseAdjacency(n, adj.indptr, adj.indices, values))
        return MultiplexGraph(n, tuple(mats), rng.standard_normal((n, 3)))

    @staticmethod
    def run(plan, params, perm, reference=None):
        """(raw blocks, alpha gradients) of one training loss on the tape:
        the model's, or ``value_block_loss`` with ``reference`` blocks."""
        tape = ad.Tape()
        pnodes = mdl.lift_params(tape, params)
        if reference is None:
            latent, head, ((h, _), (h_hat, _)) = mdl.build_forward(plan, pnodes, [None, perm])
            tape.backward(ad.infomax_bce(h[-1], h_hat[-1], pnodes.disc_q, *head))
            raw = [plan.stacked.T @ p.value for p in latent]
        else:
            loss, raw, _ = value_block_loss(plan, pnodes, perm, reference)
            tape.backward(loss)
            raw = [r.value for r in raw]
        out = raw, [layer.alpha.adjoint for layer in pnodes.layers]
        tape.release()
        return out

    @pytest.mark.parametrize("schedule", [(4, 2, 1), (4, 3, 2, 1)])
    def test_matches_chained_form(self, schedule):
        cfg = HmgeConfig(embed_size=4, num_layers=len(schedule) - 1, dims_schedule=schedule)
        rng = np.random.default_rng(41)
        graph = self.weighted_graph(rng)
        params = init_params(cfg, 4, 3, rng)
        for layer in params.layers:
            layer.alpha = rng.standard_normal(layer.alpha.shape)
            # The other rows' softmax weights underflow to exactly 0.
            layer.alpha[:2] += 1000.0
        plan = EncodePlan(graph, cfg)
        perm = rng.permutation(graph.num_nodes)
        raw, grads = self.run(plan, params, perm)
        chained_raw, chained_grads = self.run(plan, params, perm, chained_latent_structure)
        assert any(np.any(softmax_alpha(layer.alpha) == 0.0) for layer in params.layers)
        assert any(np.any(block == 0.0) for block in raw)
        for got, want in zip(raw, chained_raw, strict=True):
            assert np.abs(got - want).max() <= 1e-12
        for got, want in zip(grads, chained_grads, strict=True):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestLatentPullback:
    """The pullback straight into the mixing weights against the value-block chain.

    ``value_block_loss`` puts every latent graph on the tape as a value
    block (``csr_combine_stack``, ``csr_normalize``, ``spmm_values``, the
    unfused head), so its gradients reach the combination weights through
    nnz-sized adjoints and normalizes them on its own pattern; the model's
    consumers scale their thin operands and pull back in closed form.
    """

    @pytest.mark.parametrize("dense_mode", [True, False], ids=["dense", "sparse"])
    @pytest.mark.parametrize("one_hot", [False, True], ids=["real", "onehot"])
    @pytest.mark.parametrize("schedule", [(4, 1), (4, 2, 1), (4, 3, 2, 1)],
                             ids=["l1", "l2", "l3"])
    def test_gradients_match_value_block_chain(self, schedule, one_hot, dense_mode,
                                               monkeypatch):
        if dense_mode:
            monkeypatch.setattr(ad, "DENSE_DENSITY_THRESHOLD", 0.0)
        else:
            # Sparse mode takes the entry term through the inputs, not the SDDMM.
            monkeypatch.setattr(ad, "DENSE_DENSITY_THRESHOLD", 2.0)
            monkeypatch.setattr(ad.SpmmPlan, "grad_values", None)
        rng = np.random.default_rng(71)
        graph = TestChainedLatentStructure.weighted_graph(rng)
        if one_hot:
            graph = graph.with_features(np.eye(graph.num_nodes))
        cfg = HmgeConfig(embed_size=4, num_layers=len(schedule) - 1, dims_schedule=schedule)
        params = init_params(cfg, 4, graph.num_features, rng)
        for name, arr, _, _ in param_leaves(params):
            # Larger weights move the loss well away from ln 2.
            arr[...] = rng.standard_normal(arr.shape) if name.startswith("alpha") else 3.0 * arr
        plan = EncodePlan(graph, cfg)
        assert plan.norm_plan.spmm.dense_mode is dense_mode
        assert np.bincount(plan.union.slots).max() > 1  # entries shared by inputs
        perm = rng.permutation(graph.num_nodes)

        tape = ad.Tape()
        pnodes = mdl.lift_params(tape, params)
        latent, head, ((h, _), (h_hat, _)) = mdl.build_forward(plan, pnodes, [None, perm])
        loss = ad.infomax_bce(h[-1], h_hat[-1], pnodes.disc_q, *head)
        blocks = [plan.norm_plan.graphs(p)["values"] for p in latent]
        tape.backward(loss)
        ref_tape = ad.Tape()
        ref_loss, raw, _ = value_block_loss(plan, mdl.lift_params(ref_tape, params), perm)
        ref_tape.backward(ref_loss)

        # The mixed graphs are the chain's raw blocks, bit for bit.
        for got, want in zip(blocks, raw, strict=True):
            assert np.array_equal(got, want.value)
        assert abs(float(loss.value) - float(ref_loss.value)) <= 1e-12
        assert abs(float(ref_loss.value) - math.log(2)) > 1e-4
        for got, want in zip(tape.gradients(), ref_tape.gradients(), strict=True):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.fixture
def linear_relu(monkeypatch):
    """Every ReLU of the encoder becomes the identity."""
    linearize_relu(monkeypatch)


def oracle_instance(rng, commuting: bool, m=4, n=5):
    """(graph, params, config, alpha weights, X, W) for the closed-form tests.

    A zero attention vector y scores every dimension 0, so the attention
    guard weighs the two dimensions by exactly 1/2.
    """
    if commuting:
        options = [(1,), (2,), (1, 2)]
        a1 = circulant_dense(n, options[rng.integers(0, 3)])
        a2 = circulant_dense(n, options[rng.integers(0, 3)])
    else:
        a1, a2 = random_sym_dense(n, rng), random_sym_dense(n, rng)
    x = rng.standard_normal((n, m))
    w = rng.standard_normal((m, m))
    logits = rng.standard_normal((2, 1))
    weights = softmax_alpha(logits)[:, 0]
    graph = two_dim_graph(a1, a2, x)
    config = HmgeConfig(embed_size=m, num_layers=1, dims_schedule=(2, 1))
    params = init_params(config, 2, m, rng)
    params.layers[0].alpha = logits.copy()
    params.layers[0].gcn_w = np.stack([w, w])
    params.layers[0].attn_y[:] = 0.0
    params.final_w = w.copy()
    return graph, params, config, weights, (a1, a2, x, w)


@pytest.mark.usefixtures("linear_relu")
class TestClosedFormOracles:
    """The paper's two-layer expansions on the production encoder, with the
    ReLUs made linear and the attention at its uniform 1/2 split."""

    def test_hierarchical_matches_product_form_any_graph(self):
        # Unsimplified two-layer form: N(a1 A1 + a2 A2) (N(A1) + N(A2))/2 X W^2.
        for trial in range(20):
            rng = np.random.default_rng(500 + trial)
            graph, params, config, w8s, (a1, a2, x, w) = oracle_instance(rng, commuting=False)
            trace = encode(graph, params, config)
            assert np.array_equal(trace.attention[0], np.full((5, 2), 0.5))
            expected = (
                normalized_dense(w8s[0] * a1 + w8s[1] * a2)
                @ (0.5 * (normalized_dense(a1) + normalized_dense(a2)))
                @ x @ w @ w
            )
            assert np.abs(trace.z - expected).max() < 1e-8

    def test_hierarchical_matches_printed_closed_form_commuting(self):
        # With Ã = A + I, a k-regular circulant normalizes to c Ã, c = 1/(k+1),
        # and a1 + a2 = 1 gives N(a1 A1 + a2 A2) = c (a1 Ã1 + a2 Ã2) with
        # c = 1/(a1 k1 + a2 k2 + 1). Circulant pairs commute, so
        # z = c/2 (a1 c1 Ã1^2 + (a1 c2 + a2 c1) Ã1 Ã2 + a2 c2 Ã2^2) X W^2:
        # the printed (a1, a1 + a2, a2) expansion times a scalar when k1 = k2.
        for trial in range(20):
            rng = np.random.default_rng(900 + trial)
            graph, params, config, w8s, (a1, a2, x, w) = oracle_instance(rng, commuting=True)
            trace = encode(graph, params, config)
            t1, t2 = a1 + np.eye(5), a2 + np.eye(5)
            k1, k2 = a1.sum(axis=1)[0], a2.sum(axis=1)[0]
            c1, c2 = 1.0 / (k1 + 1.0), 1.0 / (k2 + 1.0)
            c = 1.0 / (w8s[0] * k1 + w8s[1] * k2 + 1.0)
            expected = 0.5 * c * (
                w8s[0] * c1 * t1 @ t1
                + (w8s[0] * c2 + w8s[1] * c1) * t1 @ t2
                + w8s[1] * c2 * t2 @ t2
            ) @ x @ w @ w
            assert np.abs(trace.z - expected).max() < 1e-8

    def test_linear_aggregation_matches_closed_form(self):
        # (N(A1)^2 + N(A2)^2)/2 X W^2 holds for arbitrary graphs.
        for trial in range(20):
            rng = np.random.default_rng(700 + trial)
            a1, a2 = random_sym_dense(5, rng), random_sym_dense(5, rng)
            x = rng.standard_normal((5, 4))
            w = rng.standard_normal((4, 4))
            graph = two_dim_graph(a1, a2, x)
            params = init_linear_params(4, 2, 4, 2, rng)
            params.gcn_w = [np.stack([w, w]), np.stack([w, w])]
            params.attn_y[:] = 0.0
            config = HmgeConfig(embed_size=4, num_layers=0)
            z = encode(graph, params, config).z
            n1, n2 = normalized_dense(a1), normalized_dense(a2)
            expected = 0.5 * (n1 @ n1 + n2 @ n2) @ x @ w @ w
            assert np.abs(z - expected).max() < 1e-8


class TestEncode:
    def make_graph(self, n=8, dims=2, seed=0, density=0.5):
        rng = np.random.default_rng(seed)
        mats = [
            from_dense(random_sym_dense(n, rng, density))
            for _ in range(dims)
        ]
        x = rng.standard_normal((n, 3))
        return MultiplexGraph(n, tuple(mats), x)

    def test_zero_layers_equals_linear_depth_one(self):
        graph = self.make_graph()
        cfg = HmgeConfig(embed_size=4, num_layers=0)
        params = init_params(cfg, 2, 3, np.random.default_rng(1))
        assert isinstance(params, LinearParams)
        trace = encode(graph, params, cfg)
        depth_one = init_linear_params(4, 2, 3, 1, np.random.default_rng(1))
        assert np.array_equal(trace.z, encode(graph, depth_one, cfg).z)

    def test_single_dimension_is_plain_gcn_stack(self):
        graph = self.make_graph(dims=1)
        cfg = HmgeConfig(embed_size=4, num_layers=1, dims_schedule=(1, 1))
        params = init_params(cfg, 1, 3, np.random.default_rng(2))
        trace = encode(graph, params, cfg)
        norm = normalize_adjacency(graph.dimensions[0])
        h1 = gcn_forward(graph.features, norm, params.layers[0].gcn_w[0])
        # the embedding head is linear
        z = gcn_forward(h1, norm, params.final_w, activation="identity")
        assert np.abs(trace.z - z).max() < 1e-12

    def test_trace_shapes_and_invariants(self):
        graph = self.make_graph(dims=3)
        cfg = HmgeConfig(embed_size=4, num_layers=2, dims_schedule=(3, 2, 1))
        params = init_params(cfg, 3, 3, np.random.default_rng(3))
        trace = encode(graph, params, cfg)
        assert [len(layer) for layer in trace.latent_adjacencies] == [2, 1]
        assert trace.z.shape == (8, 4)
        assert trace.summary.shape == (4,)
        for beta in trace.attention:
            assert np.abs(beta.sum(axis=1) - 1.0).max() < 1e-9
        for layer in trace.latent_adjacencies:
            for adj in layer:
                dense = to_dense(adj)
                assert np.abs(dense - dense.T).max() == 0.0

    def test_wrong_dimension_count_raises(self):
        graph = self.make_graph(dims=2)
        cfg = HmgeConfig(embed_size=4, num_layers=1, dims_schedule=(3, 1))
        params = init_params(cfg, 3, 3, np.random.default_rng(4))
        with pytest.raises(ConfigError):
            encode(graph, params, cfg)

    def test_plan_from_other_features_rejected(self):
        graph = self.make_graph()
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        params = init_params(cfg, 2, 3, np.random.default_rng(8))
        plan = EncodePlan(graph, cfg)
        shuffled = graph.with_features(graph.features[::-1])
        assert np.array_equal(encode(graph.with_features(graph.features.copy()), params, cfg,
                                     plan=plan).z, encode(graph, params, cfg).z)
        with pytest.raises(ConfigError):
            encode(shuffled, params, cfg, plan=plan)

    def test_plan_from_other_dimensions_rejected(self):
        graph = self.make_graph()
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        params = init_params(cfg, 2, 3, np.random.default_rng(8))
        plan = EncodePlan(graph, cfg)
        same = graph.with_dimensions(
            [SparseAdjacency(8, d.indptr.copy(), d.indices.copy(), d.values.copy())
             for d in graph.dimensions]
        )
        assert np.array_equal(encode(same, params, cfg, plan=plan).z,
                              encode(graph, params, cfg).z)
        other = self.make_graph(seed=1).with_features(graph.features)
        with pytest.raises(ConfigError, match="dimensions"):
            encode(other, params, cfg, plan=plan)
        with pytest.raises(ConfigError, match="dimensions"):
            encode(graph.with_dimensions(graph.dimensions[:1]), params, cfg, plan=plan)

    def test_zero_layer_plan_rejected_by_hierarchical_encode(self):
        graph = self.make_graph()
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        params = init_params(cfg, 2, 3, np.random.default_rng(8))
        plan = EncodePlan(graph, HmgeConfig(embed_size=4, num_layers=0))
        with pytest.raises(ConfigError, match="zero layers"):
            encode(graph, params, cfg, plan=plan)

    def test_permutation_equivariance(self):
        graph = self.make_graph(n=8, dims=2, seed=5)
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        params = init_params(cfg, 2, 3, np.random.default_rng(6))
        trace = encode(graph, params, cfg)

        perm = np.random.default_rng(7).permutation(8)
        inv = np.argsort(perm)
        perm_dims = []
        for d in graph.dimensions:
            dense = to_dense(d)[np.ix_(perm, perm)]
            perm_dims.append(from_dense(dense))
        perm_graph = MultiplexGraph(8, tuple(perm_dims), graph.features[perm])
        trace_p = encode(perm_graph, params, cfg)
        assert np.abs(trace_p.z[inv] - trace.z).max() < 1e-9

    def test_identity_features_match_dense_path(self):
        rng = np.random.default_rng(9)
        mats = [
            from_dense(random_sym_dense(10, rng, 0.5)) for _ in range(2)
        ]
        eye_graph = MultiplexGraph(10, tuple(mats), np.eye(10))
        cfg = HmgeConfig(embed_size=3, num_layers=1)
        params = init_params(cfg, 2, 10, np.random.default_rng(10))
        plan_fast = EncodePlan(eye_graph, cfg)
        assert plan_fast.identity_features
        trace_fast = encode(eye_graph, params, cfg, plan=plan_fast)
        plan_slow = EncodePlan(eye_graph, cfg)
        plan_slow.identity_features = False
        plan_slow.feature_prop = plan_slow.propagate(eye_graph.features)
        trace_slow = encode(eye_graph, params, cfg, plan=plan_slow)
        assert np.abs(trace_fast.z - trace_slow.z).max() < 1e-12


@st.composite
def multiplex_graphs(draw):
    """Small graphs with empty, repeated and weighted dimensions, N down to 1."""
    n = draw(st.integers(1, 9))
    dims = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "empty", "repeat"]))
        if kind == "repeat" and dims:
            dims.append(draw(st.sampled_from(dims)))
            continue
        upper = np.zeros((n, n))
        if kind == "random":
            rows, cols = np.triu_indices(n, 1)
            flags = draw(st.lists(st.booleans(), min_size=rows.size, max_size=rows.size))
            weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.25, 3.0]),
                                    min_size=rows.size, max_size=rows.size))
            upper[rows, cols] = np.where(flags, weights, 0.0)
        dims.append(from_dense(upper + upper.T))
    return MultiplexGraph(n, tuple(dims), np.eye(n))


@pytest.mark.parametrize("layers", [0, 1])
def test_shuffled_operator_matches_permuted_stack(layers, monkeypatch):
    # With one-hot features the corrupted pass multiplies w_0 by the
    # column-shuffled operator. The reference shuffles w_0's rows and
    # multiplies by the plain one: same loss and gradients to the bit.
    n = 12
    rng = np.random.default_rng(41)
    dims = tuple(from_dense(random_sym_dense(n, rng, 0.4)) for _ in range(3))
    graph = MultiplexGraph(n, dims, np.eye(n))
    cfg = HmgeConfig(embed_size=4, num_layers=layers)
    params = init_params(cfg, 3, n, np.random.default_rng(42))
    plan = EncodePlan(graph, cfg)
    perm = np.random.default_rng(43).permutation(n)

    gcn, shuffled = plan.first_gcn, plan.shuffled_first_gcn(perm)
    assert np.shares_memory(shuffled.data, gcn.data)
    assert np.shares_memory(shuffled.indptr, gcn.indptr)
    assert shuffled.indices.dtype == gcn.indices.dtype
    w, g = rng.standard_normal((2, 3, n, 4))
    outs, grads = [], []
    for fused in (True, False):
        t = ad.Tape()
        x = t.parameter(w)
        out = ad.spmm(shuffled, x) if fused else ad.spmm(gcn, permute_rows(x, perm))
        t.backward(sum_all(elementwise_mul(out, t.constant(g))))
        outs.append(out.value)
        grads.append(x.adjoint)
    assert np.array_equal(*outs) and np.array_equal(*grads)

    def loss_and_gradients():
        tape = ad.Tape()
        loss = build_loss_nodes(plan, mdl.lift_params(tape, params), perm)
        tape.backward(loss)
        return float(loss.value), tape.gradients()

    loss, gradients = loss_and_gradients()

    def reference(plan, w, perm):
        return ad.spmm(plan.first_gcn, w if perm is None else permute_rows(w, perm))

    monkeypatch.setattr(mdl, "_first_level", reference)
    ref_loss, ref_gradients = loss_and_gradients()
    assert loss == ref_loss
    assert all(np.array_equal(a, b) for a, b in zip(gradients, ref_gradients))


def test_fifty_thousand_nodes_keep_int32_indices_and_wide_keys(tmp_path):
    # N^2 > 2^31: every key u * N + v must be formed in int64, while the
    # index arrays themselves stay int32.
    n, rng = 50_000, np.random.default_rng(44)
    dims = []
    for _ in range(3):
        u, v = rng.integers(0, n, (2, 300))
        u, v = np.append(u[u != v], [0, n - 2]), np.append(v[u != v], [n - 1, n - 1])
        dims.append(SparseAdjacency.from_undirected_edges(n, u, v))
    graph = MultiplexGraph(n, tuple(dims), rng.random((n, 2)))
    save_multiplex(graph, tmp_path / "big")
    loaded = load_multiplex(tmp_path / "big")
    assert all(a.equals(b) for a, b in zip(loaded.dimensions, graph.dimensions))
    edge_sets = []
    for d in loaded.dimensions:
        assert d.indptr.dtype == d.indices.dtype == np.int32
        pairs = d.undirected_pairs()
        assert pairs.min() >= 0 and pairs.max() == n - 1 and np.all(pairs[:, 0] < pairs[:, 1])
        edge_sets.append(set(map(tuple, pairs.tolist())))

    keep = np.arange(len(edge_sets[0])) % 3 > 0
    kept = loaded.dimensions[0].keep_pairs(keep)
    want = loaded.dimensions[0].undirected_pairs()[keep]
    assert kept.indices.dtype == np.int32
    assert kept.equals(SparseAdjacency.from_undirected_edges(n, want[:, 0], want[:, 1]))

    split = split_links(loaded, 0.2, np.random.default_rng(45))
    for d, (dim, edges) in enumerate(zip(split.training_graph.dimensions, edge_sets)):
        assert dim.indices.dtype == np.int32
        removed = {(u, v) for k, u, v in split.positives if k == d}
        negatives = [(u, v) for k, u, v in split.negatives if k == d]
        assert removed <= edges and len(negatives) == len(removed)
        assert all(0 <= u < v < n and (u, v) not in edges for u, v in negatives)
        assert set(map(tuple, dim.undirected_pairs().tolist())) == edges - removed

    train_graph = split.training_graph
    cfg = HmgeConfig(embed_size=4, num_layers=2, dims_schedule=(3, 2, 1))
    plan = EncodePlan(train_graph, cfg)
    params = init_params(cfg, 3, 2, np.random.default_rng(46))
    z = encode(train_graph, params, cfg, plan=plan).z
    assert z.shape == (n, 4) and np.all(np.isfinite(z))
    union = plan.union
    assert union.indptr.dtype == union.indices.dtype == union.rows.dtype == np.int32
    indptr, indices = union_pattern(train_graph.dimensions)
    assert np.array_equal(union.indptr, indptr) and np.array_equal(union.indices, indices)
    keys = union.rows.astype(np.int64) * n + union.indices
    assert keys.max() > np.iinfo(np.int32).max and np.all(np.diff(keys) > 0)


class TestEncodePlanPatterns:
    """The one-sort plan against the per-adjacency scipy and searchsorted builds."""

    @settings(max_examples=150, deadline=None)
    @given(multiplex_graphs())
    def test_plan_matches_reference_builds(self, graph):
        n = graph.num_nodes
        plan = EncodePlan(graph, HmgeConfig(embed_size=2, num_layers=1))
        union = plan.union
        indptr, indices = union_pattern(graph.dimensions)
        assert np.array_equal(union.indptr, indptr)
        assert np.array_equal(union.indices, indices)
        maps = [position_map(indptr, indices, d) for d in graph.dimensions]
        assert np.array_equal(union.slots, np.concatenate(maps))

        stacked = plan.stacked
        assert stacked.shape == (graph.num_dims, union.nnz)
        assert np.array_equal(stacked.indptr, np.cumsum([0] + [d.nnz for d in graph.dimensions]))
        assert np.array_equal(stacked.indices, np.concatenate(maps))
        assert np.array_equal(stacked.data, np.concatenate([d.values for d in graph.dimensions]))

        norm = plan.norm_plan
        rows = np.repeat(np.arange(n), np.diff(indptr))
        mirrors = np.searchsorted(rows * n + indices, indices * n + rows)
        assert np.array_equal(mirror_positions(n, union.indptr, union.indices), mirrors)
        # One multiply plan, on the union pattern; its mode counts the diagonal.
        spmm = norm.spmm
        assert spmm.indptr is union.indptr and spmm.indices is union.indices
        density = (union.nnz + n) / n**2
        dense_mode = density >= ad.DENSE_DENSITY_THRESHOLD and n <= ad.DENSE_MAX_NODES
        assert spmm.dense_mode is dense_mode and spmm.blocks is None
        if stacked.nnz:
            assert np.shares_memory(stacked.indices, union.slots)
        # The union's index arrays are the ones scipy keeps: a product's CSR
        # matrix shares them instead of copying them every epoch.
        csr = spmm._csr(np.ones(union.nnz), {})
        assert np.shares_memory(csr.indptr, union.indptr)
        if union.nnz:
            assert np.shares_memory(csr.indices, union.indices)
        # One CSR matrix per input, in CSR order, and their row sums.
        assert len(norm.per_input) == graph.num_dims
        for a, d in zip(norm.per_input, graph.dimensions):
            assert np.array_equal(a.indptr, d.indptr) and np.array_equal(a.indices, d.indices)
            assert np.array_equal(a.data, d.values)
        dense = np.stack([to_dense(d) for d in graph.dimensions])
        assert norm.row_sums.shape == (graph.num_dims, n)
        assert np.abs(norm.row_sums - dense.sum(axis=2)).max() <= 1e-12

    def test_diagonal_entries_rejected(self):
        # The graph refuses a stored diagonal entry where it is built, so no
        # union pattern is ever made over one.
        looped = from_dense(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DataFormatError, match="dimension 0 has a self-loop"):
            ad.UnionPattern(MultiplexGraph(2, [looped], np.ones((2, 1))).dimensions)

    def test_lazy_union_matches_fresh_build(self):
        # At L = 2 the plan builds its union, stacked block and multiply plan
        # on the first inner-level product, equal to a fresh build bitwise,
        # index dtypes included.
        rng = np.random.default_rng(31)
        dims = tuple(from_dense(random_sym_dense(12, rng, 0.3)) for _ in range(3))
        graph = MultiplexGraph(12, dims, rng.standard_normal((12, 2)))
        cfg = HmgeConfig(embed_size=3, num_layers=2, dims_schedule=(3, 2, 1))
        plan = EncodePlan(graph, cfg)
        assert {"pattern", "stacked", "spmm"}.isdisjoint(vars(plan.norm_plan))
        encode(graph, init_params(cfg, 3, 2, np.random.default_rng(32)), cfg, plan=plan)
        assert {"pattern", "stacked", "spmm"} <= vars(plan.norm_plan).keys()
        union, fresh = plan.union, ad.UnionPattern(dims)
        for name in ("slots", "rows", "indices", "indptr"):
            got, want = getattr(union, name), getattr(fresh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (union.num_nodes, union.nnz) == (fresh.num_nodes, fresh.nnz)
        offsets = np.cumsum([0] + [d.nnz for d in dims])
        data = np.concatenate([d.values for d in dims])
        want = sp.csr_matrix((data, fresh.slots, offsets), shape=(3, fresh.nnz))
        got = plan.stacked
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert plan.norm_plan.spmm.indptr is union.indptr

    @pytest.mark.parametrize("identity", [False, True], ids=["features", "one-hot"])
    @pytest.mark.parametrize("layers", [0, 1])
    def test_lazy_first_level_matches_eager_build(self, layers, identity):
        # The first-level operator and the propagation of the clean
        # features are built on first use, equal to the eager builds
        # bitwise, index dtypes included.
        rng = np.random.default_rng(33)
        dims = tuple(from_dense(random_sym_dense(12, rng, 0.3)) for _ in range(3))
        graph = MultiplexGraph(12, dims, np.eye(12) if identity else rng.standard_normal((12, 2)))
        cfg = HmgeConfig(embed_size=3, num_layers=layers)
        plan = EncodePlan(graph, cfg)
        assert {"first_gcn", "feature_prop"}.isdisjoint(vars(plan))
        encode(graph, init_params(cfg, 3, graph.num_features, np.random.default_rng(34)), cfg,
               plan=plan)
        assert "first_gcn" in vars(plan) and ("feature_prop" in vars(plan)) is not identity
        want = mdl._block_diagonal([normalize_adjacency(d) for d in dims])
        for name in ("indptr", "indices", "data"):
            a, b = getattr(plan.first_gcn, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        if identity:
            assert plan.feature_prop is None
        else:
            eager = (want @ np.tile(graph.features, (3, 1))).reshape(3, 12, -1)
            assert np.array_equal(plan.feature_prop, eager)


class TestLearnedAttention:
    """The tape's learned attention against the eager ``attention_aggregate``."""

    def make_graph(self, seed, n=12, dims=4):
        rng = np.random.default_rng(seed)
        mats = [from_dense(random_sym_dense(n, rng)) for _ in range(dims)]
        return MultiplexGraph(n, tuple(mats), rng.standard_normal((n, 3)))

    def test_hierarchical_matches_eager_reference(self):
        cfg = HmgeConfig(embed_size=5, num_layers=2, dims_schedule=(4, 2, 1))
        worst = 0.0
        for seed in range(20):
            graph = self.make_graph(seed)
            params = init_params(cfg, 4, 3, np.random.default_rng(100 + seed))
            trace = encode(graph, params, cfg)
            h = graph.features
            layer_graphs = graph.dimensions
            for l, layer in enumerate(params.layers):
                stack = [
                    gcn_forward(h, normalize_adjacency(adj), w)
                    for adj, w in zip(layer_graphs, layer.gcn_w)
                ]
                h, beta = attention_aggregate(stack, layer.attn_v, layer.attn_y)
                worst = max(worst, np.abs(trace.embeddings[l] - h).max(),
                            np.abs(trace.attention[l] - beta).max())
                h = trace.embeddings[l]
                layer_graphs = trace.latent_adjacencies[l]
        assert worst <= 1e-12

    def test_linear_matches_eager_reference(self):
        cfg = HmgeConfig(embed_size=5, num_layers=0)
        for seed in range(20):
            graph = self.make_graph(seed)
            params = init_linear_params(5, 4, 3, 2, np.random.default_rng(200 + seed))
            trace = encode(graph, params, cfg)
            stack = []
            for d, adj in enumerate(graph.dimensions):
                h = graph.features
                for w in params.gcn_w:
                    h = gcn_forward(h, normalize_adjacency(adj), w[d])
                stack.append(h)
            h, beta = attention_aggregate(stack, params.attn_v, params.attn_y)
            assert np.abs(trace.embeddings[0] - h).max() <= 1e-12
            assert np.abs(trace.attention[0] - beta).max() <= 1e-12


class TestLinearAggregation:
    def test_identical_dimensions_halve_attention(self):
        rng = np.random.default_rng(0)
        a = random_sym_dense(6, rng)
        x = rng.standard_normal((6, 3))
        graph2 = two_dim_graph(a, a, x)
        graph1 = MultiplexGraph(6, (from_dense(a),), x)
        params2 = init_linear_params(4, 2, 3, 1, rng)
        # same stack and attention for both dims
        for w in params2.gcn_w:
            w[1] = w[0]
        params2.attn_v[1] = params2.attn_v[0]
        params2.attn_y[1] = params2.attn_y[0]
        params1 = LinearParams(
            gcn_w=[w[:1].copy() for w in params2.gcn_w],
            attn_v=params2.attn_v[:1].copy(),
            attn_y=params2.attn_y[:1].copy(),
            disc_q=params2.disc_q.copy(),
        )
        cfg = HmgeConfig(embed_size=4, num_layers=0)
        z2 = encode(graph2, params2, cfg).z
        z1 = encode(graph1, params1, cfg).z
        # identical dims with identical weights: attention 0.5/0.5 reproduces
        # the single-dimension embedding
        assert np.abs(z2 - z1).max() < 1e-12


class TestModelFile:
    def test_round_trip_hierarchical(self, tmp_path):
        cfg = HmgeConfig(embed_size=3, num_layers=2, dims_schedule=(3, 2, 1))
        params = init_params(cfg, 3, 5, np.random.default_rng(0))
        path = tmp_path / "model.bin"
        save_model(path, cfg, params)
        cfg2, params2, identity_features = load_model(path)
        assert cfg2 == cfg
        assert isinstance(params2, HmgeParams)
        assert identity_features is False
        for (_, a, _, _), (_, b, _, _) in zip(param_leaves(params), param_leaves(params2)):
            assert np.array_equal(a, b)

    def test_round_trip_linear(self, tmp_path):
        params = init_linear_params(4, 3, 5, 2, np.random.default_rng(1))
        cfg = HmgeConfig(embed_size=4, num_layers=0)
        path = tmp_path / "model.bin"
        save_model(path, cfg, params, identity_features=True)
        cfg2, params2, identity_features = load_model(path)
        assert isinstance(params2, LinearParams)
        assert identity_features is True
        assert params2.depth == 2
        for (_, a, _, _), (_, b, _, _) in zip(param_leaves(params), param_leaves(params2)):
            assert np.array_equal(a, b)

    def test_exports_write_the_per_row_join_text(self, tmp_path):
        # The bytes the per-row join wrote: each value's repr, commas
        # between, one line per row.
        from hmge.model import export_combination_weights, export_embeddings

        def join(rows):
            lines = [",".join(repr(float(x)) for x in row) for row in rows]
            return ("\n".join(lines) + "\n").encode()

        z = np.array([[-0.0, 5e-324, 1e300], [1 / 3, -1e-300, 2.5]])
        assert export_embeddings(z, tmp_path / "z.csv").read_bytes() == join(z)
        cfg = HmgeConfig(embed_size=3, num_layers=2, dims_schedule=(3, 2, 1))
        params = init_params(cfg, 3, 5, np.random.default_rng(0))
        params.layers[0].alpha[:] = [[0.0, -744.0], [-0.0, 700.0], [1e-300, 0.0]]
        paths = export_combination_weights(params, tmp_path / "alpha")
        assert [p.name for p in paths] == ["alpha_l0.csv", "alpha_l1.csv"]
        for path, layer in zip(paths, params.layers):
            assert path.read_bytes() == join(softmax_alpha(layer.alpha))

    @pytest.mark.parametrize("layers", [0, 2])
    def test_load_draws_no_parameters(self, layers, tmp_path, monkeypatch):
        import hmge.model

        cfg = HmgeConfig(embed_size=3, num_layers=layers)
        params = init_params(cfg, 3, 5, np.random.default_rng(0))
        save_model(tmp_path / "model.bin", cfg, params)

        def refuse(*args):
            raise AssertionError("load_model drew a parameter set")

        monkeypatch.setattr(hmge.model, "init_params", refuse)
        monkeypatch.setattr(hmge.model, "init_linear_params", refuse)
        _, loaded, _ = load_model(tmp_path / "model.bin")
        for (_, a, _, _), (_, b, _, _) in zip(param_leaves(params), param_leaves(loaded),
                                              strict=True):
            assert np.array_equal(a, b)

    def test_other_activation_rejected(self, tmp_path):
        from hmge.errors import DataFormatError

        cfg = HmgeConfig(embed_size=3, num_layers=1)
        params = init_params(cfg, 2, 4, np.random.default_rng(2))
        path = tmp_path / "model.bin"
        save_model(path, cfg, params)
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(str(arrays.pop("meta")))
        assert meta["config"]["activation"] == "relu"
        meta["config"]["activation"] = "identity"
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.str_(json.dumps(meta)), **arrays)
        with pytest.raises(DataFormatError, match="unsupported activation 'identity'"):
            load_model(path)

    def test_bad_file_rejected(self, tmp_path):
        from hmge.errors import DataFormatError

        bad = tmp_path / "junk.bin"
        bad.write_bytes(b"not a model")
        with pytest.raises(DataFormatError):
            load_model(bad)
