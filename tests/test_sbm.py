import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hmge import sbm
from hmge.errors import ConfigError
from hmge.multiplex import SparseAdjacency
from hmge.sbm import (
    PER_DIM_LABELS_FILE,
    SbmConfig,
    generate_dimension,
    generate_multiplex,
    save_dataset,
)
from oracles import expected_edge_counts, to_dense


def reference_dimension(config, rng):
    """The direct sampler: one uniform per upper-triangle pair, all at once.

    generate_dimension streams the same draws in chunks, so the two must
    agree bitwise; this one needs O(N^2) memory.
    """
    n, k = config.num_nodes, config.num_classes
    labels = rng.choice(k, size=n, p=np.full(k, 1.0 / k))
    iu, iv = np.triu_indices(n, k=1)
    same = labels[iu] == labels[iv]
    prob = np.where(same, config.p_in, config.p_out)
    mask = rng.random(prob.shape[0]) < prob
    adjacency = SparseAdjacency.from_undirected_edges(n, iu[mask], iv[mask])
    return adjacency, labels


class TestConfig:
    def test_defaults_match_reference_settings(self):
        cfg = SbmConfig(num_nodes=10, num_dims=2)
        assert cfg.num_classes == 2
        assert cfg.p_in == 0.05 and cfg.p_out == 0.01

    def test_probability_validation(self):
        with pytest.raises(ConfigError):
            SbmConfig(num_nodes=10, num_dims=1, p_in=0.01, p_out=0.05)
        with pytest.raises(ConfigError):
            SbmConfig(num_nodes=0, num_dims=1)


class TestGenerateDimension:
    def test_zero_probabilities_edgeless(self):
        cfg = SbmConfig(num_nodes=30, num_dims=1, p_in=0.0, p_out=0.0)
        adj, labels = generate_dimension(cfg, np.random.default_rng(0))
        assert adj.nnz == 0
        assert labels.shape == (30,)

    def test_unit_probabilities_complete(self):
        cfg = SbmConfig(num_nodes=20, num_dims=1, p_in=1.0, p_out=1.0)
        adj, _ = generate_dimension(cfg, np.random.default_rng(0))
        expected = np.ones((20, 20)) - np.eye(20)
        assert np.array_equal(to_dense(adj), expected)

    def test_structure_valid(self):
        cfg = SbmConfig(num_nodes=60, num_dims=1, p_in=0.3, p_out=0.05)
        adj, labels = generate_dimension(cfg, np.random.default_rng(1))
        assert adj.is_symmetric()
        assert adj.has_zero_diagonal()
        assert adj.is_binary()
        assert set(np.unique(labels)) <= {0, 1}

    def test_edge_count_within_three_sigma(self):
        cfg = SbmConfig(num_nodes=1000, num_dims=1)
        rng = np.random.default_rng(7)
        labels_seen = []
        for _ in range(3):
            adj, labels = generate_dimension(cfg, rng)
            labels_seen.append(labels)
            within_mean, cross_mean, within_pairs, cross_pairs = expected_edge_counts(
                labels, cfg
            )
            same = labels[:, None] == labels[None, :]
            dense = to_dense(adj).astype(bool)
            triu = np.triu(np.ones((1000, 1000), dtype=bool), 1)
            within_edges = int((dense & same & triu).sum())
            cross_edges = int((dense & ~same & triu).sum())
            sigma_w = np.sqrt(within_pairs * cfg.p_in * (1 - cfg.p_in))
            sigma_c = np.sqrt(cross_pairs * cfg.p_out * (1 - cfg.p_out))
            assert abs(within_edges - within_mean) <= 3 * sigma_w
            assert abs(cross_edges - cross_mean) <= 3 * sigma_c
        # consecutive draws differ
        assert not np.array_equal(labels_seen[0], labels_seen[1])

    @pytest.mark.parametrize("chunk", [sbm.SAMPLE_CHUNK, 5, 64])
    @pytest.mark.parametrize("n", [1, 2, 37, 700])
    @pytest.mark.parametrize("p_in,p_out", [(0.0, 0.0), (1.0, 1.0), (0.3, 0.05)])
    def test_matches_direct_sampler(self, monkeypatch, chunk, n, p_in, p_out):
        # Chunks of 5 and 64 end mid-row for every n here but n = 2.
        monkeypatch.setattr(sbm, "SAMPLE_CHUNK", chunk)
        cfg = SbmConfig(num_nodes=n, num_dims=1, num_classes=3, p_in=p_in, p_out=p_out)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(2):
            adj, labels = generate_dimension(cfg, rng)
            ref_adj, ref_labels = reference_dimension(cfg, ref_rng)
            assert adj.equals(ref_adj)
            assert np.array_equal(labels, ref_labels)
        # both samplers leave the stream at the same point
        assert rng.random() == ref_rng.random()

    def test_memory_grows_with_edges_not_pairs(self):
        # 6000 nodes are 18M pairs: about 720 MB for a sampler that holds
        # every pair at once, against ~30k edges at mean degree ~10.
        script = textwrap.dedent("""
            import resource, sys
            from hmge.sbm import SbmConfig, generate_multiplex
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            ds = generate_multiplex(SbmConfig(num_nodes=6000, num_dims=1,
                                              p_in=0.0028, p_out=0.0005, rng_seed=1))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            scale = 1 if sys.platform == "darwin" else 1024
            print((after - before) * scale / 2**20, ds.graph.dimensions[0].num_edges)
        """)
        src = str(Path(sbm.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout.split()
        grown_mb, edges = float(out[0]), int(out[1])
        assert 20_000 < edges < 40_000
        assert grown_mb < 100


class TestGenerateMultiplex:
    def test_single_dimension_global_equals_local(self):
        ds = generate_multiplex(SbmConfig(num_nodes=50, num_dims=1, p_in=0.3, p_out=0.1, rng_seed=3))
        assert np.array_equal(ds.global_labels, ds.per_dim_labels[0])

    def test_majority_vote(self):
        # a node in class c1 twice and c2 once lands in c1
        ds = generate_multiplex(SbmConfig(num_nodes=200, num_dims=3, p_in=0.2, p_out=0.05, rng_seed=5))
        counts = np.zeros((200, 2))
        for d in range(3):
            counts[np.arange(200), ds.per_dim_labels[d]] += 1
        decided = counts.max(axis=1) >= 2  # always true for odd D, K=2
        assert decided.all()
        assert np.array_equal(ds.global_labels, np.argmax(counts, axis=1))

    def test_tie_break_deterministic(self):
        cfg = SbmConfig(num_nodes=120, num_dims=2, p_in=0.2, p_out=0.05, rng_seed=11)
        a = generate_multiplex(cfg)
        b = generate_multiplex(cfg)
        assert np.array_equal(a.global_labels, b.global_labels)
        # with D=2 ties exist and both classes win some of them
        ties = a.per_dim_labels[0] != a.per_dim_labels[1]
        assert ties.any()
        tie_choices = a.global_labels[ties]
        assert set(np.unique(tie_choices)) == {0, 1}

    def test_same_seed_identical_dataset(self):
        cfg = SbmConfig(num_nodes=80, num_dims=3, p_in=0.2, p_out=0.02, rng_seed=21)
        a = generate_multiplex(cfg)
        b = generate_multiplex(cfg)
        assert np.array_equal(a.graph.features, b.graph.features)
        assert np.array_equal(a.per_dim_labels, b.per_dim_labels)
        for da, db in zip(a.graph.dimensions, b.graph.dimensions):
            assert da.equals(db)

    def test_dataset_is_the_same_at_every_pool_size(self, monkeypatch):
        # Three workers on fewer cores draw dimensions 0, 3 / 1, 4 / 2 each.
        cfg = SbmConfig(num_nodes=90, num_dims=5, num_classes=3, p_in=0.2, p_out=0.05,
                        rng_seed=8)
        datasets = []
        for cores in (1, 3):
            monkeypatch.setattr(sbm, "_usable_cores", lambda: cores)
            datasets.append(generate_multiplex(cfg))
        a, b = datasets
        assert np.array_equal(a.per_dim_labels, b.per_dim_labels)
        assert np.array_equal(a.global_labels, b.global_labels)
        assert np.array_equal(a.graph.features, b.graph.features)
        assert all(da.equals(db) for da, db in zip(a.graph.dimensions, b.graph.dimensions))
        rng = np.random.default_rng(np.random.SeedSequence(8).spawn(6)[4])
        adjacency, labels = generate_dimension(cfg, rng)
        assert adjacency.equals(a.graph.dimensions[4]) and np.array_equal(labels, a.per_dim_labels[4])

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="malloc arenas are glibc's")
    def test_pool_allocates_from_one_malloc_arena(self):
        # An arena per worker kept what the workers freed out of the heap's
        # reach for the rest of the process.
        script = textwrap.dedent("""
            import ctypes
            from hmge import sbm
            sbm._usable_cores = lambda: 3
            sbm.generate_multiplex(sbm.SbmConfig(num_nodes=400, num_dims=6, rng_seed=1))
            ctypes.CDLL(None).malloc_stats()
        """)
        src = str(Path(sbm.__file__).resolve().parents[1])
        stats = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, check=True, env={**os.environ, "PYTHONPATH": src},
        ).stderr
        assert stats.count("Arena ") == 1

    def test_different_seeds_differ(self):
        a = generate_multiplex(SbmConfig(num_nodes=80, num_dims=2, p_in=0.2, p_out=0.02, rng_seed=1))
        b = generate_multiplex(SbmConfig(num_nodes=80, num_dims=2, p_in=0.2, p_out=0.02, rng_seed=2))
        assert not np.array_equal(a.per_dim_labels, b.per_dim_labels)

    def test_features_are_normalized_degrees(self):
        ds = generate_multiplex(SbmConfig(num_nodes=60, num_dims=2, p_in=0.4, p_out=0.1, rng_seed=9))
        feats = ds.graph.features
        assert feats.shape == (60, 2)
        for d, adj in enumerate(ds.graph.dimensions):
            deg = adj.row_sums()
            assert np.allclose(feats[:, d], deg / deg.max())
        assert feats.max() == 1.0

    def test_global_label_balance(self):
        ds = generate_multiplex(SbmConfig(num_nodes=1500, num_dims=5, rng_seed=13))
        freq = np.bincount(ds.global_labels, minlength=2) / 1500
        assert 0.4 <= freq[0] <= 0.6 and 0.4 <= freq[1] <= 0.6

    def test_graph_labels_mirror_votes(self):
        ds = generate_multiplex(SbmConfig(num_nodes=40, num_dims=3, p_in=0.3, p_out=0.1, rng_seed=17))
        assert ds.graph.labels == tuple((int(c),) for c in ds.global_labels)


class TestSaveDataset:
    def test_writes_audit_file(self, tmp_path):
        ds = generate_multiplex(SbmConfig(num_nodes=20, num_dims=3, p_in=0.4, p_out=0.1, rng_seed=2))
        save_dataset(ds, tmp_path / "out")
        audit = (tmp_path / "out" / PER_DIM_LABELS_FILE).read_text().splitlines()
        assert len(audit) == 20
        first = [int(x) for x in audit[0].split(",")]
        assert first == list(ds.per_dim_labels[:, 0])
