import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hmge
from hmge import autodiff as ad
from hmge.errors import ConfigError, NumericError
from hmge.model import (
    EncodePlan,
    HmgeConfig,
    init_linear_params,
    init_params,
    lift_params,
    param_leaves,
)
from hmge.multiplex import MultiplexGraph
from hmge.sbm import SbmConfig, generate_multiplex
from hmge.training import (
    AdamState,
    TrainConfig,
    build_loss_nodes,
    infomax_loss,
    train,
)
from oracles import from_dense, full_loss_builder, grad_check, linearize_relu, to_dense


def er_multiplex(n, probs, fseed):
    rng = np.random.default_rng(fseed)
    dims = []
    for p in probs:
        m = (rng.random((n, n)) < p).astype(float)
        m = np.triu(m, 1)
        dims.append(from_dense(m + m.T))
    x = rng.standard_normal((n, 3))
    return MultiplexGraph(n, tuple(dims), x)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 2000
        assert cfg.learning_rate == 0.001
        assert cfg.weight_decay == 1e-5
        assert cfg.patience == 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=300, epochs=200)


class TestInfomaxLoss:
    def test_zero_discriminator_gives_ln2(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((8, 4))
        z_hat = rng.standard_normal((8, 4))
        s = z.mean(axis=0)
        assert infomax_loss(z, z_hat, s, np.zeros((4, 4))) == math.log(2)

    def test_perfect_discrimination_approaches_zero(self):
        # positives scored near 1, negatives near 0
        z = np.ones((5, 2)) * 50.0
        z_hat = -np.ones((5, 2)) * 50.0
        s = np.ones(2)
        loss = infomax_loss(z, z_hat, s, np.eye(2))
        assert loss < 1e-9

    def test_single_node_hand_value(self):
        # D(z, s) = 0.8 and D(z_hat, s) = 0.3
        z = np.array([[math.log(0.8 / 0.2)]])
        z_hat = np.array([[math.log(0.3 / 0.7)]])
        s = np.array([1.0])
        q = np.array([[1.0]])
        expected = -(math.log(0.8) + math.log(0.7)) / 2.0
        assert abs(infomax_loss(z, z_hat, s, q) - expected) < 1e-12
        assert abs(expected - 0.2899) < 5e-5

    def test_nonfinite_rejected(self):
        z = np.array([[np.nan]])
        with pytest.raises(NumericError):
            infomax_loss(z, z, np.array([1.0]), np.array([[1.0]]))


class TestAdam:
    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(0)
        params = [rng.standard_normal((3, 3)), rng.standard_normal(4)]
        before = [p.copy() for p in params]
        grads = [rng.standard_normal((3, 3)), rng.standard_normal(4)]
        adam = AdamState(params)
        adam.step(params, grads, 0.0, 0.1, [True, True])
        for p, b in zip(params, before):
            assert np.array_equal(p, b)

    def test_step_moves_against_gradient(self):
        params = [np.zeros(2)]
        adam = AdamState(params)
        adam.step(params, [np.array([1.0, -1.0])], 0.1, 0.0, [False])
        assert params[0][0] < 0 < params[0][1]

    def test_sliced_step_matches_whole_array_update(self):
        from hmge.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ADAM_SLICE

        rng = np.random.default_rng(3)
        shape = (3, ADAM_SLICE // 2 + 7, 2)  # three slices, the last one short
        params = [rng.standard_normal(shape)]
        ref = params[0].copy()
        m, v = np.zeros(shape), np.zeros(shape)
        adam = AdamState(params)
        for t in (1, 2):
            g = rng.standard_normal(shape)
            adam.step(params, [g], 0.01, 0.1, [True])
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
            update = (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
            ref -= 0.01 * (update + 0.1 * ref)
        assert np.array_equal(params[0], ref)

    def test_decay_only_flagged(self):
        params = [np.full(2, 10.0), np.full(2, 10.0)]
        adam = AdamState(params)
        adam.step(params, [np.zeros(2), np.zeros(2)], 0.1, 0.5, [True, False])
        assert params[0][0] < 10.0
        assert params[1][0] == 10.0


class TestTrainLoop:
    def graph16(self):
        ds = generate_multiplex(
            SbmConfig(num_nodes=16, num_dims=2, p_in=0.6, p_out=0.2, rng_seed=3)
        )
        return ds.graph

    def test_epoch0_loss_is_exactly_ln2_with_zero_q(self):
        g = self.graph16()
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        params = init_params(cfg, 2, g.num_features, np.random.default_rng(0))
        params.disc_q[:] = 0.0
        res = train(g, cfg, TrainConfig(epochs=1, patience=1, rng_seed=5), params=params)
        assert res.loss_history[0] == math.log(2)

    def test_loss_drops_below_ln2_on_20_nodes(self):
        ds = generate_multiplex(
            SbmConfig(num_nodes=20, num_dims=2, p_in=0.6, p_out=0.2, rng_seed=1)
        )
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        res = train(
            ds.graph, cfg,
            TrainConfig(epochs=51, patience=51, rng_seed=2, learning_rate=0.01),
        )
        assert res.loss_history[50] < math.log(2)

    def test_sparse_mode_step_skips_the_sddmm(self, monkeypatch):
        # Sparse mode pulls the latent gradient through the inputs, so a
        # whole training run at L = 2 never calls the SDDMM.
        from hmge import autodiff as ad

        def refuse(*args):
            raise AssertionError("SpmmPlan.grad_values called in sparse mode")

        monkeypatch.setattr(ad, "DENSE_DENSITY_THRESHOLD", 2.0)
        monkeypatch.setattr(ad.SpmmPlan, "grad_values", refuse)
        g = generate_multiplex(
            SbmConfig(num_nodes=40, num_dims=3, p_in=0.3, p_out=0.05, rng_seed=4)
        ).graph
        cfg = HmgeConfig(embed_size=4, num_layers=2, dims_schedule=(3, 2, 1))
        res = train(g, cfg, TrainConfig(epochs=2, patience=2, rng_seed=1))
        assert len(res.loss_history) == 2 and np.all(np.isfinite(res.loss_history))
        assert res.loss_history[1] != res.loss_history[0]

    @staticmethod
    def sbm40():
        return generate_multiplex(
            SbmConfig(num_nodes=40, num_dims=3, p_in=0.3, p_out=0.05, rng_seed=4)
        ).graph

    @pytest.mark.parametrize("dense_mode", [True, False], ids=["dense", "sparse"])
    def test_last_level_runs_through_the_inputs(self, monkeypatch, dense_mode):
        # At L = 1 the one latent graph is the last: the training head and
        # encode apply it through the inputs, in either kernel mode, and
        # never normalize its value block or multiply by it.
        from hmge import autodiff as ad
        from hmge.model import EncodePlan, encode

        def refuse(*args):
            raise AssertionError("the last latent graph went through its value block")

        monkeypatch.setattr(ad, "DENSE_DENSITY_THRESHOLD", 0.0 if dense_mode else 2.0)
        g, cfg = self.sbm40(), HmgeConfig(embed_size=4, num_layers=1)
        assert EncodePlan(g, cfg).norm_plan.spmm.dense_mode is dense_mode
        monkeypatch.setattr(ad.NormalizePlan, "forward", refuse)
        monkeypatch.setattr(ad.SpmmPlan, "matmul", refuse)
        monkeypatch.setattr(ad.SpmmPlan, "matmul_transpose", refuse)
        res = train(g, cfg, TrainConfig(epochs=2, patience=2, rng_seed=1))
        assert len(res.loss_history) == 2 and res.loss_history[1] != res.loss_history[0]
        assert np.array_equal(encode(g, res.params, cfg).z, res.embeddings)

    @pytest.mark.parametrize("dense_mode", [True, False], ids=["dense", "sparse"])
    def test_inner_value_block_built_once_per_epoch(self, monkeypatch, dense_mode):
        # At L = 2 the inner level's mixed value block is built once per
        # epoch, when the clean chain first multiplies by it, and the
        # corrupted chain reuses it; the last level never builds one.
        from hmge import autodiff as ad

        monkeypatch.setattr(ad, "DENSE_DENSITY_THRESHOLD", 0.0 if dense_mode else 2.0)
        built, products = [], []
        graphs, spmm_var = ad.NormalizePlan.graphs, ad.spmm_var

        def counting_graphs(plan, mixing):
            if "values" not in mixing.cache():
                built.append(mixing.value.shape)
            return graphs(plan, mixing)

        monkeypatch.setattr(ad.NormalizePlan, "graphs", counting_graphs)
        monkeypatch.setattr(ad, "spmm_var", lambda mixing, plan, h: products.append(
            (mixing, "values" in mixing.cache())) or spmm_var(mixing, plan, h))
        cfg = HmgeConfig(embed_size=4, num_layers=2, dims_schedule=(3, 2, 1))
        train(self.sbm40(), cfg, TrainConfig(epochs=2, patience=2, rng_seed=1))
        # Two epochs, then the final encode: one build and one product each,
        # plus the corrupted chain's product in each epoch.
        assert built == [(3, 2)] * 3
        assert [cached for _, cached in products] == [False, True, False, True, False]
        assert products[0][0] is products[1][0] and products[2][0] is products[3][0]

    @pytest.mark.parametrize("layers", [1, 2])
    def test_dense_row_blocks_built_on_first_use(self, monkeypatch, layers):
        # Dense mode plans its SDDMM row blocks when it first multiplies by
        # a mixed graph: never at L = 1, whose one latent graph runs through
        # the inputs, and once per plan at L = 2.
        from hmge import autodiff as ad
        from hmge.model import EncodePlan, encode

        built, row_blocks = [], ad.SpmmPlan._row_blocks

        def counting_row_blocks(plan):
            if plan.blocks is None:
                built.append(plan)
            return row_blocks(plan)

        monkeypatch.setattr(ad.SpmmPlan, "_row_blocks", counting_row_blocks)
        g = self.sbm40()
        schedule = (3, 1) if layers == 1 else (3, 2, 1)
        cfg = HmgeConfig(embed_size=4, num_layers=layers, dims_schedule=schedule)
        assert EncodePlan(g, cfg).norm_plan.spmm.dense_mode
        res = train(g, cfg, TrainConfig(epochs=2, patience=2, rng_seed=1))
        assert len(built) == layers - 1
        encode(g, res.params, cfg)
        assert len(built) == 2 * (layers - 1)

    @pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "features"])
    def test_one_layer_plans_build_no_union(self, monkeypatch, one_hot):
        # At L = 1 nothing reads the union pattern, the stacked block or the
        # multiply plan: train() and encode() leave all three unbuilt.
        from hmge.model import encode

        plans, init = [], ad.NormalizePlan.__init__
        monkeypatch.setattr(ad.NormalizePlan, "__init__",
                            lambda plan, adjs: init(plan, adjs) or plans.append(plan))
        g = self.sbm40()
        if one_hot:
            g = g.with_features(np.eye(g.num_nodes))
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        res = train(g, cfg, TrainConfig(epochs=1, patience=1, rng_seed=1))
        assert np.array_equal(encode(g, res.params, cfg).z, res.embeddings)
        assert len(plans) == 2
        for plan in plans:
            assert {"pattern", "stacked", "spmm"}.isdisjoint(vars(plan))

    def test_bit_identical_histories(self):
        g = self.graph16()
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        tcfg = TrainConfig(epochs=12, patience=12, rng_seed=7)
        a = train(g, cfg, tcfg)
        b = train(g, cfg, tcfg)
        assert a.loss_history == b.loss_history
        assert np.array_equal(a.embeddings, b.embeddings)

    def test_early_stopping_returns_best(self):
        g = self.graph16()
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        res = train(
            g, cfg, TrainConfig(epochs=60, patience=5, rng_seed=3, learning_rate=0.05)
        )
        assert res.best_loss == min(res.loss_history)
        assert res.loss_history[res.best_epoch] == res.best_loss
        # stopped before exhausting the budget or ran to the end; either way
        # the tail after the best epoch is at most patience long when stopped
        if len(res.loss_history) < 60:
            assert len(res.loss_history) - 1 - res.best_epoch == 5

    def test_returned_params_reproduce_best_loss(self):
        from hmge.model import EncodePlan, lift_params
        from hmge.training import build_loss_nodes
        from hmge import autodiff as ad

        g = self.graph16()
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        tcfg = TrainConfig(epochs=20, patience=20, rng_seed=11, learning_rate=0.02)
        res = train(g, cfg, tcfg)
        # recompute the loss at the recorded best epoch with the returned
        # parameters and the same corruption stream
        seed_init, seed_corrupt = np.random.SeedSequence(tcfg.rng_seed).spawn(2)
        rng = np.random.default_rng(seed_corrupt)
        perm = None
        for _ in range(res.best_epoch + 1):
            perm = rng.permutation(g.num_nodes)
        plan = EncodePlan(g, cfg)
        tape = ad.Tape()
        pnodes = lift_params(tape, res.params)
        loss_node = build_loss_nodes(plan, pnodes, perm)
        assert float(loss_node.value) == res.best_loss

    @pytest.mark.parametrize("layers", [0, 2])
    def test_tape_loss_matches_discriminate_oracle(self, layers):
        # Mean BCE of the eager discriminator over the clean rows (label 1)
        # and the corrupted rows (label 0), against the summary of the clean
        # embeddings.
        from oracles import discriminate

        from hmge import autodiff as ad
        from hmge.model import EncodePlan, encode, lift_params, readout
        from hmge.training import build_loss_nodes

        g = er_multiplex(12, (0.5, 0.4, 0.6), 31)
        cfg = HmgeConfig(embed_size=4, num_layers=layers)
        params = init_params(cfg, 3, g.num_features, np.random.default_rng(32))
        params.disc_q = 10.0 * np.random.default_rng(33).standard_normal((4, 4))
        perm = np.random.default_rng(34).permutation(12)
        tape = ad.Tape()
        loss = build_loss_nodes(EncodePlan(g, cfg), lift_params(tape, params), perm)
        z = encode(g, params, cfg).z
        z_hat = encode(g.with_features(g.features[perm]), params, cfg).z
        s = readout(z)
        # 1 - sigma(x) = sigma(-x): the corrupted rows score against -Q.
        terms = [math.log(discriminate(row, s, params.disc_q)) for row in z]
        terms += [math.log(discriminate(row, s, -params.disc_q)) for row in z_hat]
        expected = -math.fsum(terms) / (2 * 12)
        assert abs(float(loss.value) - expected) <= 1e-12
        assert abs(expected - math.log(2)) > 1e-4

    @pytest.mark.parametrize("layers", [1, 2])
    def test_tape_holds_no_output_head_ops(self, layers):
        # The last layer's GCN lives inside infomax_bce: only the inner
        # layers of each of the two chains run spmm_var.
        from hmge import autodiff as ad
        from hmge.model import EncodePlan, lift_params
        from hmge.training import build_loss_nodes

        g = self.graph16()
        cfg = HmgeConfig(embed_size=3, num_layers=layers, dims_schedule=(2, 1, 1)[:layers + 1])
        params = init_params(cfg, 2, g.num_features, np.random.default_rng(1))
        tape = ad.Tape()
        build_loss_nodes(EncodePlan(g, cfg), lift_params(tape, params),
                         np.random.default_rng(2).permutation(g.num_nodes))
        names = [node.name for node in tape.nodes]
        assert names.count("spmm_var") == 2 * (layers - 1)
        assert names.count("infomax_bce") == 1 and "select_matrix" not in names
        assert names.count("matmul") == layers - 1  # the inner layers' latent mixes

    def test_wd_zero_allowed(self):
        g = self.graph16()
        cfg = HmgeConfig(embed_size=3, num_layers=1)
        res = train(g, cfg, TrainConfig(epochs=2, patience=2, rng_seed=0, weight_decay=0.0))
        assert len(res.loss_history) == 2

    def test_train_log_written(self, tmp_path):
        g = self.graph16()
        cfg = HmgeConfig(embed_size=3, num_layers=1)
        log = tmp_path / "train_log.csv"
        train(g, cfg, TrainConfig(epochs=4, patience=4, rng_seed=0), log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch,loss,best_loss,elapsed_ms"
        assert len(lines) == 5

    def test_linear_model_trains(self):
        g = self.graph16()
        cfg = HmgeConfig(embed_size=4, num_layers=0)
        res = train(g, cfg, TrainConfig(epochs=5, patience=5, rng_seed=1))
        assert res.embeddings.shape == (16, 4)

    @pytest.mark.parametrize("train_alpha", [True, False])
    def test_returned_params_share_no_memory_with_adam(self, monkeypatch, train_alpha):
        # The best-loss snapshot is a copy of the live arrays; later Adam
        # steps must not reach it.
        updated = []
        step = AdamState.step

        def recording_step(adam, params, *args):
            updated.extend(params)
            step(adam, params, *args)

        monkeypatch.setattr(AdamState, "step", recording_step)
        res = train(self.graph16(), HmgeConfig(embed_size=4, num_layers=1),
                    TrainConfig(epochs=6, patience=6, rng_seed=3, learning_rate=0.05),
                    train_alpha=train_alpha)
        assert updated
        for _, arr, _, _ in param_leaves(res.params):
            assert not any(np.shares_memory(arr, p) for p in updated)

    @pytest.mark.parametrize("layers", [0, 1, 2])
    def test_best_params_outlive_later_steps(self, monkeypatch, layers):
        # Every epoch's tape holds the live arrays themselves. Here the best
        # epoch is neither the first nor the last, so Adam stepped the live
        # arrays past it: the returned parameters share no memory with them,
        # differ from them and encode to the returned embeddings.
        import hmge.model
        from hmge.model import encode

        lift, lifted = hmge.model.lift_params, []

        def recording_lift(tape, params, **kwargs):
            pnodes = lift(tape, params, **kwargs)
            lifted.append((params, all(node.value is arr for (_, node, _, _), (_, arr, _, _)
                                        in zip(param_leaves(pnodes), param_leaves(params)))))
            return pnodes

        monkeypatch.setattr(hmge.model, "lift_params", recording_lift)
        g, cfg = self.graph16(), HmgeConfig(embed_size=4, num_layers=layers)
        res = train(g, cfg, TrainConfig(epochs=8, patience=8, rng_seed=0, learning_rate=0.2))
        assert 0 < res.best_epoch < len(res.loss_history) - 1
        # One lift per epoch, then the final encode's, of the best parameters.
        live = lifted[0][0]
        assert len(lifted) == 9 and lifted[-1][0] is res.params
        assert all(p is live and shared for p, shared in lifted[:-1])
        best = [arr for _, arr, _, _ in param_leaves(res.params)]
        now = [arr for _, arr, _, _ in param_leaves(live)]
        assert not any(np.shares_memory(a, b) for a in best for b in now)
        assert not all(np.array_equal(a, b) for a, b in zip(best, now))
        assert np.array_equal(encode(g, res.params, cfg).z, res.embeddings)

    @pytest.mark.parametrize("layers", [0, 1, 2])
    def test_backward_drops_every_pullback(self, layers):
        # Each pullback goes once it has run, with the arrays it captured.
        g = self.graph16()
        cfg = HmgeConfig(embed_size=3, num_layers=layers)
        params = init_params(cfg, g.num_dims, g.num_features, np.random.default_rng(0))
        tape = ad.Tape()
        loss = build_loss_nodes(EncodePlan(g, cfg), lift_params(tape, params),
                                np.random.default_rng(1).permutation(g.num_nodes))
        assert any(node._backward is not None for node in tape.nodes)
        tape.backward(loss)
        assert all(node._backward is None for node in tape.nodes)

    def test_frozen_alpha_stays_uniform(self):
        g = self.graph16()
        cfg = HmgeConfig(embed_size=4, num_layers=1)
        res = train(
            g, cfg,
            TrainConfig(epochs=10, patience=10, rng_seed=2, learning_rate=0.05),
            train_alpha=False,
        )
        assert np.array_equal(res.params.layers[0].alpha, np.zeros((2, 1)))


GRAD_CHECK_CASES = {
    # name: (config, input dimensions, one-hot features, linear depth, linear
    # ReLUs); the zero-layer configs train the linear baseline at that depth.
    "l1": (HmgeConfig(embed_size=4, num_layers=1), 2, False, None, False),
    # Linear ReLUs keep finite differences off the kinks: with the ReLU one
    # 6e-8 gradient entry reads 1.3e-4 from step noise alone.
    "l2": (HmgeConfig(embed_size=4, num_layers=2, dims_schedule=(3, 2, 1)), 3, False, None,
           True),
    "l2-onehot": (HmgeConfig(embed_size=4, num_layers=2, dims_schedule=(3, 2, 1)), 3, True,
                  None, True),
    # Two compositions of the combination weights: P_2 = P_1 softmax(alpha_2).
    "l3": (HmgeConfig(embed_size=4, num_layers=3, dims_schedule=(3, 2, 1, 1)), 3, False, None,
           True),
    "linear2": (HmgeConfig(embed_size=4, num_layers=0), 2, False, 2, False),
    "linear2-onehot": (HmgeConfig(embed_size=4, num_layers=0), 2, True, 2, False),
}


HEAP_SCRIPT = textwrap.dedent("""
    import resource, statistics
    import numpy as np
    from hmge import autodiff as ad
    from hmge.model import HmgeConfig
    from hmge.multiplex import MultiplexGraph, SparseAdjacency
    from hmge.training import TrainConfig, train

    n, rng = 2000, np.random.default_rng(0)
    dims = []
    for _ in range(3):
        u, v = rng.integers(0, n, (2, 10 * n))
        keep = u != v
        dims.append(SparseAdjacency.from_undirected_edges(n, u[keep], v[keep]))
    graph = MultiplexGraph(n, tuple(dims), rng.standard_normal((n, 8)))
    faults = []
    release = ad.Tape.release

    def counting_release(tape):
        release(tape)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    ad.Tape.release = counting_release
    train(graph, HmgeConfig(embed_size=64, num_layers=1),
          TrainConfig(epochs=8, patience=8, rng_seed=1))
    print(statistics.median(np.diff(faults)[2:]))
""")


# Peak RSS of one train() on a one-hot graph whose first-level operator is
# ~19 MB, with an unused plan of that graph held across it when argv[1] is 1;
# prints the peak in bytes and the operator's bytes.
HELD_PLAN_SCRIPT = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from hmge.model import EncodePlan, HmgeConfig
    from hmge.multiplex import MultiplexGraph, SparseAdjacency
    from hmge.training import TrainConfig, train

    n, rng = 1000, np.random.default_rng(0)
    dims = []
    for _ in range(4):
        u, v = rng.integers(0, n, (2, 250_000))
        keep = u != v
        dims.append(SparseAdjacency.from_undirected_edges(n, u[keep], v[keep]))
    graph = MultiplexGraph(n, tuple(dims), np.eye(n))
    config = HmgeConfig(embed_size=4, num_layers=1)
    held = EncodePlan(graph, config) if sys.argv[1] == "1" else None
    train(graph, config, TrainConfig(epochs=2, patience=2, rng_seed=1))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    gcn = EncodePlan(graph, config).first_gcn
    print(peak, gcn.data.nbytes + gcn.indices.nbytes + gcn.indptr.nbytes)
""")


def mismatched_params():
    """(id, config, params) whose params the config does not describe, on
    the 3-dimension graph of ``sbm60``."""
    def hmge(embed_size, layers):
        return init_params(HmgeConfig(embed_size, layers), 3, 3, np.random.default_rng(0))

    return [
        ("linear-under-1-layer", HmgeConfig(4, 1),
         init_linear_params(4, 3, 3, 1, np.random.default_rng(0))),
        ("1-layer-under-0-layer", HmgeConfig(4, 0), hmge(4, 1)),
        ("2-layer-under-1-layer", HmgeConfig(4, 1), hmge(4, 2)),
        ("embed-4-under-8", HmgeConfig(8, 1), hmge(4, 1)),
    ]


class TestParamsMatchConfig:
    @staticmethod
    def sbm60():
        graph = generate_multiplex(SbmConfig(60, 3, rng_seed=1)).graph
        assert (graph.num_dims, graph.num_features) == (3, 3)
        return graph

    @staticmethod
    def count_epochs(monkeypatch):
        import hmge.training

        calls = []
        build = hmge.training.build_loss_nodes
        monkeypatch.setattr(hmge.training, "build_loss_nodes",
                            lambda *args: calls.append(1) or build(*args))
        return calls

    def test_epoch_counter_sees_matching_params_train(self, monkeypatch):
        calls = self.count_epochs(monkeypatch)
        cfg = HmgeConfig(4, 1)
        train(self.sbm60(), cfg, TrainConfig(epochs=3, patience=3),
              params=init_params(cfg, 3, 3, np.random.default_rng(0)))
        assert len(calls) == 3

    @pytest.mark.parametrize("case", mismatched_params(), ids=lambda c: c[0])
    def test_train_refuses_before_first_epoch(self, case, monkeypatch):
        _, cfg, params = case
        calls = self.count_epochs(monkeypatch)
        with pytest.raises(ConfigError):
            train(self.sbm60(), cfg, TrainConfig(epochs=3, patience=3), params=params)
        assert calls == []

    @pytest.mark.parametrize("layers", [0, 1, 2])
    def test_negative_value_refused_before_first_epoch(self, layers, monkeypatch):
        # Latent graphs are convex combinations of the inputs and take no
        # ReLU, so no input may hold a negative value. Refused where the
        # graph is built, so before any plan or epoch at every depth.
        from hmge.errors import DataFormatError
        from hmge.model import EncodePlan

        from hmge.multiplex import MultiplexGraph, SparseAdjacency, mirror_positions

        graph = self.sbm60()
        bad = graph.dimensions[1]
        values = bad.values.copy()
        values[[0, mirror_positions(60, bad.indptr, bad.indices)[0]]] = -0.5
        dims = list(graph.dimensions)
        dims[1] = SparseAdjacency(60, bad.indptr, bad.indices, values)
        assert dims[1].is_symmetric()
        cfg = HmgeConfig(4, layers)
        calls = self.count_epochs(monkeypatch)
        with pytest.raises(DataFormatError, match="negative") as plan_error:
            EncodePlan(MultiplexGraph(60, dims, graph.features), cfg)
        with pytest.raises(DataFormatError, match="negative") as train_error:
            train(graph.with_dimensions(dims), cfg, TrainConfig(epochs=3, patience=3))
        assert str(plan_error.value) == str(train_error.value) == "dimension 1 has a negative value"
        assert calls == []

    @pytest.mark.parametrize("layers", [0, 1, 2])
    @pytest.mark.parametrize("case", ["values", "pattern"])
    def test_asymmetric_input_refused_before_first_epoch(self, case, layers, monkeypatch):
        # The latent path reads every input as its own transpose. Refused
        # where the graph is built, so before any plan or epoch at every
        # depth, the linear baseline included: asymmetric values on a
        # symmetric pattern, and two one-directional inputs whose union is
        # symmetric.
        import scipy.sparse as sp

        from hmge.errors import DataFormatError
        from hmge.model import EncodePlan
        from hmge.multiplex import MultiplexGraph, SparseAdjacency

        graph = self.sbm60()
        dims = list(graph.dimensions)
        if case == "values":
            values = dims[1].values.copy()
            values[0] = 2.0
            dims[1] = SparseAdjacency(60, dims[1].indptr, dims[1].indices, values)
        else:
            upper = sp.triu(dims[1].to_scipy(), 1, format="csr")
            upper.sort_indices()
            dims[1:] = [SparseAdjacency(60, m.indptr, m.indices, m.data)
                        for m in (upper, upper.T.tocsr())]
        assert not dims[1].is_symmetric()
        cfg = HmgeConfig(4, layers)
        calls = self.count_epochs(monkeypatch)
        with pytest.raises(DataFormatError, match="dimension 1 is not symmetric"):
            EncodePlan(MultiplexGraph(60, dims, graph.features), cfg)
        with pytest.raises(DataFormatError, match="dimension 1 is not symmetric"):
            train(graph.with_dimensions(dims), cfg, TrainConfig(epochs=3, patience=3))
        assert calls == []

    @pytest.mark.parametrize("layers", [0, 1, 2])
    def test_diagonal_input_refused_before_first_epoch(self, layers, monkeypatch):
        # The union pattern is built lazily, but its diagonal-free contract
        # holds from the moment the graph is built, at every depth.
        from hmge.errors import DataFormatError
        from hmge.model import EncodePlan
        from hmge.multiplex import MultiplexGraph

        graph = self.sbm60()
        dense = to_dense(graph.dimensions[1])
        dense[5, 5] = 1.0
        dims = list(graph.dimensions)
        dims[1] = from_dense(dense)
        cfg = HmgeConfig(4, layers)
        calls = self.count_epochs(monkeypatch)
        with pytest.raises(DataFormatError, match="dimension 1 has a self-loop"):
            EncodePlan(MultiplexGraph(60, dims, graph.features), cfg)
        with pytest.raises(DataFormatError, match="dimension 1 has a self-loop"):
            train(graph.with_dimensions(dims), cfg, TrainConfig(epochs=3, patience=3))
        assert calls == []

    @pytest.mark.parametrize("case", mismatched_params(), ids=lambda c: c[0])
    def test_save_model_refuses(self, case, tmp_path):
        from hmge.model import save_model

        _, cfg, params = case
        with pytest.raises(ConfigError):
            save_model(tmp_path / "model.bin", cfg, params)
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize("case", mismatched_params(), ids=lambda c: c[0])
    def test_encode_refuses(self, case):
        from hmge.model import encode

        _, cfg, params = case
        with pytest.raises(ConfigError):
            encode(self.sbm60(), params, cfg)

    @pytest.mark.parametrize("layers", [0, 1])
    def test_feature_width_checked_where_the_graph_is_known(self, layers, monkeypatch, tmp_path):
        from hmge.model import encode, save_model

        cfg = HmgeConfig(4, layers)
        params = init_params(cfg, 3, 5, np.random.default_rng(0))
        calls = self.count_epochs(monkeypatch)
        with pytest.raises(ConfigError, match="w_0"):
            train(self.sbm60(), cfg, TrainConfig(epochs=3, patience=3), params=params)
        assert calls == []
        with pytest.raises(ConfigError, match="w_0"):
            encode(self.sbm60(), params, cfg)
        # A model file does not know its graph: it keeps any width.
        save_model(tmp_path / "model.bin", cfg, params)
        assert (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize("depth", [None, 1, 2])
    def test_copy_owns_every_array(self, depth):
        if depth is None:
            params = init_params(HmgeConfig(4, 2), 3, 3, np.random.default_rng(0))
        else:
            params = init_linear_params(4, 3, 3, depth, np.random.default_rng(0))
        copy = params.copy()
        assert type(copy) is type(params)
        for (name, a, decay, _), (name2, b, decay2, _) in zip(
            param_leaves(params), param_leaves(copy), strict=True
        ):
            assert (name, decay) == (name2, decay2)
            assert np.array_equal(a, b) and not np.shares_memory(a, b)


class TestHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc policy")
    def test_steady_epochs_reuse_the_heap(self):
        # Without the malloc policy each epoch faults its released tape
        # arrays back in: ~13k minor faults per epoch on this graph.
        src = str(Path(hmge.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", HEAP_SCRIPT], capture_output=True, text=True,
            timeout=300, check=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert float(out.stdout.split()[-1]) <= 64

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc policy")
    def test_plan_held_across_train_builds_nothing(self):
        # A plan builds its first-level operator on first use, so one held
        # unused across train() adds none of it to the peak; built eagerly
        # it added all of it (19.0 MB for an 18.9 MB operator).
        src = str(Path(hmge.__file__).resolve().parents[1])
        peaks = []
        for hold in ("0", "1"):
            out = subprocess.run(
                [sys.executable, "-c", HELD_PLAN_SCRIPT, hold], capture_output=True, text=True,
                timeout=300, check=True, env={**os.environ, "PYTHONPATH": src},
            )
            peak, operator_bytes = map(int, out.stdout.split())
            peaks.append(peak)
        assert peaks[1] - peaks[0] < operator_bytes / 2


class TestFullGradients:
    @pytest.mark.parametrize("case", list(GRAD_CHECK_CASES))
    def test_full_loss_grad_check(self, case, monkeypatch):
        cfg, num_dims, one_hot, depth, linear_relu = GRAD_CHECK_CASES[case]
        if linear_relu:
            linearize_relu(monkeypatch)
        graph = er_multiplex(6, (0.6, 0.4, 0.5)[:num_dims], 3)
        if one_hot:
            graph = graph.with_features(np.eye(6))
        if depth is None:
            params = init_params(cfg, num_dims, graph.num_features, np.random.default_rng(4))
        else:
            params = init_linear_params(
                4, num_dims, graph.num_features, depth, np.random.default_rng(4)
            )
        rng = np.random.default_rng(4)
        for name, arr, _, _ in param_leaves(params):
            if name.startswith("alpha"):
                arr += rng.normal(0.0, 1.0, size=arr.shape)
            else:
                arr *= 1.5
        perm = np.random.default_rng(11).permutation(6)
        build, arrays = full_loss_builder(graph, cfg, params, perm)
        assert grad_check(build, arrays) < 1e-4


@pytest.mark.parametrize("one_hot", [False, True])
def test_tape_keeps_one_stack_per_chain_and_layer(one_hot):
    # The attention step rectifies its (D_l, N, M) pre-activation stack in
    # place, so no ReLU copy is kept. Every other (D_l, N, M) value is named:
    # at l = 1 the latent GCN's operand (spmm_var's product); with one-hot
    # features the first GCN weight w_0, which the corrupted chain reads
    # through a column-shuffled operator, not as a shuffled copy.
    n, m = 9, 5
    cfg = HmgeConfig(embed_size=m, num_layers=2, dims_schedule=(4, 2, 1))
    graph = er_multiplex(n, (0.6, 0.4, 0.5, 0.5), 3)
    if one_hot:
        graph = graph.with_features(np.eye(n))
    params = init_params(cfg, 4, graph.num_features, np.random.default_rng(0))
    tape = ad.Tape()
    build_loss_nodes(EncodePlan(graph, cfg), lift_params(tape, params),
                     np.random.default_rng(1).permutation(n))
    stacks = [node for node in tape.nodes
              if node.value.ndim == 3 and node.value.shape[1:] == (n, m)]
    first = "spmm" if one_hot else "batched_matmul"
    expected = {(first, 4): 2, ("batched_matmul", 2): 2, ("spmm_var", 2): 2}
    if one_hot:
        expected |= {("w_0", 4): 1}
    assert Counter((node.name, node.value.shape[0]) for node in stacks) == expected
    for node in stacks:
        if node.name in ("spmm", "batched_matmul"):
            assert node.value.min() >= 0.0 and node.value.max() > 0.0


@pytest.mark.parametrize("layers", [0, 1])
def test_one_hot_step_peak_holds_few_stacks(layers):
    # At its traced peak one one-hot step (lift, forward, backward) holds
    # w_0's tape copy, the two chains' pre-activation stacks, w_0's adjoint
    # and one spmm pullback in flight: five (D, N, M) stacks, plus the
    # shuffled operator's column indices and smaller arrays, about six in
    # all. A fresh stack gradient in attend's pullback, or a shuffled copy
    # of w_0 and its gather back, would take the peak to about eight.
    n, d, m = 300, 8, 32
    graph = er_multiplex(n, [0.02] * d, 3).with_features(np.eye(n))
    cfg = HmgeConfig(embed_size=m, num_layers=layers)
    params = init_params(cfg, d, n, np.random.default_rng(13))
    plan = EncodePlan(graph, cfg)
    perm = np.random.default_rng(14).permutation(n)
    tracemalloc.start()
    try:
        tape = ad.Tape()
        tape.backward(build_loss_nodes(plan, lift_params(tape, params), perm))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * d * n * m * 8


@pytest.mark.parametrize("layers, one_hot", [(1, True), (0, True), (2, False)])
def test_parameter_gradients_are_contiguous(layers, one_hot):
    # Adam steps through flat views of each gradient, which copy a strided
    # one whole. With one-hot features w_0's adjoint starts in the corrupted
    # chain's spmm pullback, and the clean chain adds into it.
    n = 9
    graph = er_multiplex(n, (0.6, 0.4, 0.5, 0.5), 3)
    if one_hot:
        graph = graph.with_features(np.eye(n))
    cfg = HmgeConfig(embed_size=5, num_layers=layers)
    params = init_params(cfg, 4, graph.num_features, np.random.default_rng(0))
    tape = ad.Tape()
    tape.backward(build_loss_nodes(EncodePlan(graph, cfg), lift_params(tape, params),
                                   np.random.default_rng(1).permutation(n)))
    grads = tape.gradients()
    assert len(grads) == len(list(param_leaves(params)))
    assert all(g.flags.c_contiguous for g in grads)


# Loss history and embeddings after 3 epochs, recorded from the per-dimension
# parameter lists and per-column latent ops the stacked encoders replaced.
PINNED_RUNS = {
    "l2": (
        [0.6931306998162279, 0.6931084305626516, 0.6930906357299289],
        [
            [0.015020499455853457, 0.039127839299128955, 0.022442486812571844],
            [0.01375964382077586, 0.03582431506903554, 0.018632633438524265],
            [0.01610656972944214, 0.04194593568470942, 0.022944963601155232],
            [0.01516573198671658, 0.03949744637157431, 0.021777708264206972],
            [0.01614300305017196, 0.04202674773443525, 0.021573773689529275],
            [0.016129424560291657, 0.04198431070369328, 0.020838864597188738],
            [0.01504590428248436, 0.03919715309869562, 0.022797540567149086],
            [0.017127600397991532, 0.044596717450353325, 0.023563784435626216],
        ],
    ),
    "l1-onehot": (
        [0.6931607651858849, 0.6931312000039768, 0.6931128024104586],
        [
            [0.006212569487439128, -0.0072131349484948265, 0.015334929385298556],
            [0.005038623361042628, -0.011533277889196706, 0.015984091640496797],
            [0.012527026662573134, -0.01016758602281796, 0.020538300616410123],
            [-0.012559369543915164, -0.0057826560304215, 0.005447558718449986],
            [0.0074031981095158215, -0.010791704468527516, 0.018829352250459418],
            [0.004976186565112771, -0.008933726407937317, 0.018027282539707774],
            [0.011170625338828023, -0.011677650569388378, 0.01968867659432615],
            [-0.019350827015541795, -0.0029856743494836913, -0.0011814785732674224],
        ],
    ),
    "linear2": (
        [0.6932028720942007, 0.6931796120039313, 0.6931438444669187],
        [
            [0.04050595310275095, 0.004582950606191462, 0.008687485423530001],
            [0.08424466299209193, 0.0022338495074658805, 0.0027642842487823763],
            [0.0, 0.028533289227069627, 0.02007055355614716],
            [0.0524934285387497, 0.0032247321742573127, 0.004624742440017509],
            [0.05281295048074953, 0.006243338603812443, 0.006191720802251383],
            [0.052960980354131194, 0.011727077552349231, 0.010337845866979332],
            [0.0673455369925715, 0.003739176223861798, 0.005710218454354128],
            [0.0021609275684732446, 0.023809044216380162, 0.01668996395200772],
        ],
    ),
}


def pinned_setups():
    """(name, graph, config, linear depth) of the three pinned training runs."""
    g3 = er_multiplex(8, (0.5, 0.4, 0.6), 21)
    g2 = er_multiplex(8, (0.5, 0.4), 22)
    return [
        ("l2", g3, HmgeConfig(embed_size=3, num_layers=2), None),
        ("l1-onehot", g2.with_features(np.eye(8)), HmgeConfig(embed_size=3, num_layers=1), None),
        ("linear2", g2, HmgeConfig(embed_size=3, num_layers=0), 2),
    ]


@pytest.mark.parametrize("setup", pinned_setups(), ids=lambda s: s[0])
def test_training_matches_pinned_numerics(setup):
    name, graph, cfg, depth = setup
    params = None
    if depth is not None:
        params = init_linear_params(
            3, graph.num_dims, graph.num_features, depth, np.random.default_rng(6)
        )
    res = train(
        graph, cfg, TrainConfig(epochs=3, patience=3, rng_seed=5, learning_rate=0.01),
        params=params,
    )
    losses, embeddings = PINNED_RUNS[name]
    assert np.abs(np.array(res.loss_history) - losses).max() <= 1e-12
    assert np.abs(res.embeddings - np.array(embeddings)).max() <= 1e-12
