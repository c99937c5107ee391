import json
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hmge import multiplex
from hmge.errors import DataFormatError
from hmge.multiplex import (
    MultiplexGraph,
    SparseAdjacency,
    index_dtype,
    load_multiplex,
    normalize_adjacency,
    save_multiplex,
)
from oracles import edge_list_loop, feature_rows_loop, from_dense, to_dense


def graph_from_edges(n, edge_lists, features=None, labels=None):
    dims = tuple(
        SparseAdjacency.from_undirected_edges(n, [u for u, _ in e], [v for _, v in e])
        for e in edge_lists
    )
    if features is None:
        features = np.arange(n, dtype=float).reshape(n, 1) + 0.5
    return MultiplexGraph(n, dims, features, labels)


def dense_normalize(a: np.ndarray) -> np.ndarray:
    ahat = a + np.eye(a.shape[0])
    dinv = 1.0 / np.sqrt(ahat.sum(axis=1))
    return ahat * np.outer(dinv, dinv)


class TestSparseAdjacency:
    def test_from_undirected_edges_symmetrizes(self):
        adj = SparseAdjacency.from_undirected_edges(3, [0], [1])
        dense = to_dense(adj)
        assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
        assert adj.nnz == 2 and adj.num_edges == 1

    def test_duplicate_edges_collapse(self):
        adj = SparseAdjacency.from_undirected_edges(3, [0, 1, 0], [1, 0, 1])
        assert adj.nnz == 2
        assert np.all(adj.values == 1.0)

    def test_self_loop_rejected(self):
        with pytest.raises(DataFormatError):
            SparseAdjacency.from_undirected_edges(3, [1], [1])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataFormatError):
            SparseAdjacency.from_undirected_edges(3, [0], [3])

    def test_malformed_csr_rejected(self):
        with pytest.raises(DataFormatError):
            SparseAdjacency(2, np.array([0, 1, 1]), np.array([5]), np.array([1.0]))
        with pytest.raises(DataFormatError):
            SparseAdjacency(2, np.array([0, 2, 2]), np.array([1, 1]), np.ones(2))
        with pytest.raises(DataFormatError):
            SparseAdjacency(2, np.array([0, 1, 2]), np.array([0, 1]), np.array([np.inf, 1.0]))
        # Indices are stored as int32 here, but checked before they narrow:
        # 2^32 + 1 would wrap to 1.
        with pytest.raises(DataFormatError, match="out of range"):
            SparseAdjacency(2, np.array([0, 1, 1]), np.array([2**32 + 1]), np.ones(1))

    def test_empty_trailing_rows(self):
        adj = SparseAdjacency.from_undirected_edges(5, [0], [1])
        assert adj.row_sums().tolist() == [1, 1, 0, 0, 0]

    def test_round_trip_dense(self):
        rng = np.random.default_rng(0)
        m = rng.random((6, 6))
        m = np.triu(m, 1) + np.triu(m, 1).T
        adj = from_dense(m)
        assert np.allclose(to_dense(adj), m)

    def test_undirected_pairs(self):
        adj = SparseAdjacency.from_undirected_edges(4, [0, 2], [1, 3])
        pairs = {tuple(p) for p in adj.undirected_pairs()}
        assert pairs == {(0, 1), (2, 3)}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_keep_pairs_matches_rebuild_from_kept_edges(self, seed):
        rng = np.random.default_rng(seed)
        m = (rng.random((25, 25)) < 0.3).astype(float)
        adj = from_dense(np.triu(m, 1) + np.triu(m, 1).T)
        pairs = adj.undirected_pairs()
        keep = rng.random(pairs.shape[0]) < 0.6
        kept = adj.keep_pairs(keep)
        assert kept.equals(
            SparseAdjacency.from_undirected_edges(25, pairs[keep, 0], pairs[keep, 1])
        )
        assert not kept.indices.flags.writeable

    def test_keep_pairs_keeps_values_and_drops_diagonal(self):
        m = np.array([[2.0, 0.5, 0.0], [0.5, 0.0, 3.0], [0.0, 3.0, 0.0]])
        adj = from_dense(m)
        kept = adj.keep_pairs(np.array([False, True]))
        assert np.array_equal(to_dense(kept), [[0, 0, 0], [0, 0, 3.0], [0, 3.0, 0]])

    def test_keep_pairs_rejects_asymmetric_and_misaligned(self):
        with pytest.raises(DataFormatError, match="symmetric"):
            from_dense(np.array([[0.0, 1.0], [0.0, 0.0]])).keep_pairs(np.ones(1, bool))
        adj = SparseAdjacency.from_undirected_edges(3, [0, 1], [1, 2])
        with pytest.raises(ValueError):
            adj.keep_pairs(np.ones(3, bool))


class TestNormalize:
    @pytest.mark.parametrize("n, density, seed", [(1, 0.0, 0), (7, 0.0, 1), (40, 0.2, 2)])
    def test_output_passes_public_checks(self, n, density, seed):
        rng = np.random.default_rng(seed)
        m = (rng.random((n, n)) < density) * rng.random((n, n))
        out = normalize_adjacency(from_dense(np.triu(m, 1) + np.triu(m, 1).T))
        assert SparseAdjacency(n, out.indptr, out.indices, out.values).equals(out)
        index = index_dtype(n, out.nnz)
        for a, dtype in ((out.indptr, index), (out.indices, index), (out.values, np.float64)):
            assert a.dtype == dtype and a.flags.c_contiguous and not a.flags.writeable

    def test_single_node_no_edges(self):
        adj = from_dense(np.zeros((1, 1)))
        out = normalize_adjacency(adj)
        assert np.array_equal(to_dense(out), np.array([[1.0]]))

    def test_edgeless_graph_is_identity(self):
        adj = from_dense(np.zeros((3, 3)))
        assert np.array_equal(to_dense(normalize_adjacency(adj)), np.eye(3))

    def test_two_nodes_one_edge(self):
        # Degrees with self-loops are 2, so every entry becomes 1/2.
        adj = SparseAdjacency.from_undirected_edges(2, [0], [1])
        expected = np.full((2, 2), 0.5)
        assert np.abs(to_dense(normalize_adjacency(adj)) - expected).max() < 1e-15

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 17, 40, 64):
            m = (rng.random((n, n)) < 0.3).astype(float)
            m = np.triu(m, 1) + np.triu(m, 1).T
            adj = from_dense(m)
            got = to_dense(normalize_adjacency(adj))
            assert np.abs(got - dense_normalize(m)).max() < 1e-12

    def test_exact_symmetry(self):
        rng = np.random.default_rng(7)
        m = (rng.random((20, 20)) < 0.4).astype(float)
        m = np.triu(m, 1) + np.triu(m, 1).T
        out = to_dense(normalize_adjacency(from_dense(m)))
        assert np.abs(out - out.T).max() == 0.0

    def test_diagonal_is_inverse_degree(self):
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 1.0
        m[1, 2] = m[2, 1] = 1.0
        out = to_dense(normalize_adjacency(from_dense(m)))
        degrees = m.sum(axis=1) + 1.0
        assert np.abs(np.diag(out) - 1.0 / degrees).max() < 1e-15

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 10_000))
    def test_spectral_radius_bounded(self, n, seed):
        # Symmetric normalization with self-loops keeps eigenvalues in [-1, 1].
        # (Row sums of the symmetric form can exceed 1 on hubs, so they make
        # no usable bound; the spectrum does.)
        rng = np.random.default_rng(seed)
        m = (rng.random((n, n)) < 0.35).astype(float)
        m = np.triu(m, 1) + np.triu(m, 1).T
        out = normalize_adjacency(from_dense(m))
        eigs = np.linalg.eigvalsh(to_dense(out))
        assert np.abs(eigs).max() <= 1.0 + 1e-12

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(11)
        m = (rng.random((15, 15)) < 0.5).astype(float)
        m = np.triu(m, 1) + np.triu(m, 1).T
        vals = normalize_adjacency(from_dense(m)).values
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DataFormatError):
            SparseAdjacency(2, np.array([0, 1, 2]), np.array([1, 0]), np.array([np.nan, 1.0]))

    def test_rejects_negative(self):
        adj = SparseAdjacency(2, np.array([0, 1, 2]), np.array([1, 0]), np.array([-1.0, -1.0]))
        with pytest.raises(DataFormatError):
            normalize_adjacency(adj)

    def test_not_idempotent(self):
        adj = SparseAdjacency.from_undirected_edges(2, [0], [1])
        once = normalize_adjacency(adj)
        twice = normalize_adjacency(once)
        assert not np.allclose(to_dense(once), to_dense(twice))


class TestGraphModel:
    def test_invariants(self):
        g = graph_from_edges(3, [[(0, 1)], [(1, 2)]])
        assert g.num_dims == 2 and g.num_features == 1

    def test_dimension_size_mismatch(self):
        d1 = SparseAdjacency.from_undirected_edges(3, [0], [1])
        d2 = SparseAdjacency.from_undirected_edges(4, [0], [1])
        with pytest.raises(DataFormatError):
            MultiplexGraph(3, (d1, d2), np.ones((3, 1)))

    def test_feature_row_mismatch(self):
        d1 = SparseAdjacency.from_undirected_edges(3, [0], [1])
        with pytest.raises(DataFormatError):
            MultiplexGraph(3, (d1,), np.ones((4, 1)))

    def test_with_features_shares_structure(self):
        g = graph_from_edges(3, [[(0, 1)]])
        g2 = g.with_features(np.zeros((3, 2)))
        assert g2.dimensions[0] is g.dimensions[0]
        assert g2.num_features == 2

    def test_with_dimensions_shares_features_and_labels(self):
        g = graph_from_edges(3, [[(0, 1)], [(1, 2)]], labels=((0,), (1,), (0, 1)))
        g2 = g.with_dimensions(g.dimensions[::-1])
        assert g2.dimensions == g.dimensions[::-1] and isinstance(g2.dimensions, tuple)
        assert g2.features is g.features and g2.labels is g.labels

    def test_with_features_copies_and_freezes(self):
        g = graph_from_edges(3, [[(0, 1)]], labels=((0,), (1,), (0,)))
        feats = np.ones(3)[:, None]
        g2 = g.with_features(feats)
        assert g2.labels is g.labels and not np.shares_memory(g2.features, feats)
        assert not g2.features.flags.writeable and g.num_features == 1

    @pytest.mark.parametrize("features", [np.ones((4, 1)), np.ones((3, 0)),
                                          np.array([[1.0], [np.nan], [0.0]])],
                             ids=["rows", "empty", "nan"])
    def test_with_features_refuses_bad_features(self, features):
        g = graph_from_edges(3, [[(0, 1)]])
        with pytest.raises(DataFormatError):
            g.with_features(features)

    def test_with_dimensions_refuses_bad_dimensions(self):
        g = graph_from_edges(3, [[(0, 1)]])
        with pytest.raises(DataFormatError, match="at least one dimension"):
            g.with_dimensions([])
        with pytest.raises(DataFormatError, match="dimension 1 has 4 nodes"):
            g.with_dimensions([g.dimensions[0], SparseAdjacency.from_undirected_edges(4, [0], [1])])

    @pytest.mark.parametrize("entries, message", [
        ({(0, 1): 1.0}, "dimension 1 is not symmetric"),
        ({(0, 1): 1.0, (1, 0): 2.0}, "dimension 1 is not symmetric"),
        ({(0, 1): 0.0}, "dimension 1 is not symmetric"),
        ({(0, 1): 1.0, (1, 0): 1.0, (2, 2): 0.0}, "dimension 1 has a self-loop"),
        ({(0, 1): -0.5, (1, 0): -0.5, (1, 2): 1.0, (2, 1): 1.0},
         "dimension 1 has a negative value"),
    ], ids=["one-directional", "values", "stored-zero", "zero-diagonal", "negative"])
    def test_graph_refuses_dimension_off_contract(self, entries, message):
        # Exact symmetry, no stored diagonal entry (explicit zeros included)
        # and no negative value, wherever a graph is built.
        (rows, cols), values = zip(*entries), list(entries.values())
        m = sp.csr_matrix((values, (rows, cols)), shape=(3, 3))
        m.sort_indices()
        bad = SparseAdjacency(3, m.indptr, m.indices, m.data)
        g = graph_from_edges(3, [[(0, 1)]])
        with pytest.raises(DataFormatError, match=message):
            MultiplexGraph(3, (g.dimensions[0], bad), g.features)
        with pytest.raises(DataFormatError, match=message):
            g.with_dimensions([g.dimensions[0], bad])

    def test_replacing_one_field_checks_only_that_field(self, monkeypatch):
        import hmge.multiplex as mx

        def refuse(*args):
            raise AssertionError("a kept field was checked again")

        g = graph_from_edges(3, [[(0, 1)]], labels=((0,), (1,), (0,)))
        monkeypatch.setattr(mx, "_checked_dimensions", refuse)
        assert g.with_features(np.zeros((3, 2))).num_features == 2
        monkeypatch.undo()
        monkeypatch.setattr(mx, "_checked_features", refuse)
        assert g.with_dimensions(g.dimensions * 2).num_dims == 2


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        g = graph_from_edges(
            3,
            [[(0, 1), (1, 2)], [(0, 2)]],
            features=np.array([[0.25, -1.5], [2.0, 3.125], [1e-3, 7.0]]),
            labels=((0,), (1,), (0, 1)),
        )
        save_multiplex(g, tmp_path / "ds")
        g2 = load_multiplex(tmp_path / "ds")
        assert g2.num_nodes == g.num_nodes
        assert g2.labels == g.labels
        assert np.array_equal(g2.features, g.features)
        for a, b in zip(g.dimensions, g2.dimensions):
            assert a.equals(b)

    def test_tables_spanning_chunks_match_per_row_text(self, tmp_path):
        # 2^17 values per %-format: three chunks of features; label rows go
        # 2^16 at a time, two chunks here, ragged (multilabel) rows among them.
        n = 70_000
        features = np.random.default_rng(6).standard_normal((n, 4))
        features[0, 0], features[1, 1] = -0.0, 5e-324
        labels = tuple((k % 3,) if k % 5 else (0, k % 7) for k in range(n))
        adj = SparseAdjacency.from_undirected_edges(n, [0], [1])
        save_multiplex(MultiplexGraph(n, (adj,), features, labels), tmp_path / "ds")
        text = lambda rows, sep: "".join(sep.join(map(repr, r)) + "\n" for r in rows)
        assert (tmp_path / "ds" / "features.csv").read_text() == text(features.tolist(), ",")
        assert (tmp_path / "ds" / "labels.csv").read_text() == text(labels, ";")

    def test_loaded_indices_are_shared_with_scipy(self, tmp_path):
        # int32 index arrays are the ones scipy keeps, so the CSR matrices of
        # a loaded graph are views of its arrays, not copies.
        from hmge.autodiff import NormalizePlan

        save_multiplex(graph_from_edges(4, [[(0, 1), (1, 2)], [(0, 3)]]), tmp_path / "ds")
        g = load_multiplex(tmp_path / "ds")
        plan = NormalizePlan(g.dimensions)
        for d, a in zip(g.dimensions, plan.per_input):
            assert d.indptr.dtype == d.indices.dtype == np.int32
            for m in (d.to_scipy(), a):
                assert np.shares_memory(m.indptr, d.indptr)
                assert np.shares_memory(m.indices, d.indices)

    def test_round_trip_exact_floats(self, tmp_path):
        rng = np.random.default_rng(5)
        g = graph_from_edges(4, [[(0, 1)]], features=rng.standard_normal((4, 3)))
        save_multiplex(g, tmp_path / "ds")
        g2 = load_multiplex(tmp_path / "ds")
        assert np.array_equal(g2.features, g.features)

    def test_symmetrization_on_load(self, tmp_path):
        root = tmp_path / "ds"
        root.mkdir()
        (root / "meta.json").write_text('{"num_nodes": 3, "num_dims": 1, "num_features": 1}')
        (root / "dim_0.tsv").write_text("0\t1\n")
        (root / "features.csv").write_text("1.0\n2.0\n3.0\n")
        g = load_multiplex(root)
        dense = to_dense(g.dimensions[0])
        assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0

    def test_edge_out_of_range(self, tmp_path):
        root = tmp_path / "ds"
        root.mkdir()
        (root / "meta.json").write_text('{"num_nodes": 3, "num_dims": 1, "num_features": 1}')
        (root / "dim_0.tsv").write_text("0\t5\n")
        (root / "features.csv").write_text("1.0\n2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="out of range"):
            load_multiplex(root)

    def test_missing_dim_file(self, tmp_path):
        root = tmp_path / "ds"
        root.mkdir()
        (root / "meta.json").write_text('{"num_nodes": 2, "num_dims": 2, "num_features": 1}')
        (root / "dim_0.tsv").write_text("0\t1\n")
        (root / "features.csv").write_text("1.0\n2.0\n")
        with pytest.raises(DataFormatError, match="dim_1"):
            load_multiplex(root)

    def test_dim_count_mismatch_extra_file(self, tmp_path):
        g = graph_from_edges(3, [[(0, 1)]])
        save_multiplex(g, tmp_path / "ds")
        (tmp_path / "ds" / "dim_1.tsv").write_text("0\t2\n")
        with pytest.raises(DataFormatError, match="declares only"):
            load_multiplex(tmp_path / "ds")

    def test_self_loop_rejected(self, tmp_path):
        root = tmp_path / "ds"
        root.mkdir()
        (root / "meta.json").write_text('{"num_nodes": 2, "num_dims": 1, "num_features": 1}')
        (root / "dim_0.tsv").write_text("1\t1\n")
        (root / "features.csv").write_text("1.0\n2.0\n")
        with pytest.raises(DataFormatError, match="self-loop"):
            load_multiplex(root)

    @pytest.mark.parametrize("name", ["dim_0.tsv", "features.csv"])
    def test_non_utf8_file_rejected(self, tmp_path, name):
        root = tmp_path / "ds"
        save_multiplex(graph_from_edges(2, [[(0, 1)]]), root)
        (root / name).write_bytes(b"0\t1\n\xff\xfe\x00binary\n")
        with pytest.raises(DataFormatError, match=f"{name} is not UTF-8"):
            load_multiplex(root)

    def test_unwritable_path(self, tmp_path):
        g = graph_from_edges(2, [[(0, 1)]])
        target = tmp_path / "file"
        target.write_text("occupied")
        with pytest.raises(DataFormatError):
            save_multiplex(g, target / "nested")

    def test_sbm_round_trip(self, tmp_path):
        from hmge.sbm import SbmConfig, generate_multiplex

        ds = generate_multiplex(SbmConfig(num_nodes=25, num_dims=3, p_in=0.4, p_out=0.1, rng_seed=9))
        save_multiplex(ds.graph, tmp_path / "sbm")
        g2 = load_multiplex(tmp_path / "sbm")
        assert np.array_equal(g2.features, ds.graph.features)
        assert g2.labels == ds.graph.labels
        for a, b in zip(ds.graph.dimensions, g2.dimensions):
            assert a.equals(b)

    def test_saved_bytes_are_pinned(self, tmp_path):
        import hashlib

        from hmge.sbm import SbmConfig, generate_multiplex, save_dataset

        cfg = SbmConfig(num_nodes=30, num_dims=3, num_classes=3, p_in=0.3, p_out=0.05, rng_seed=4)
        save_dataset(generate_multiplex(cfg), tmp_path / "sbm")
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in (tmp_path / "sbm").iterdir()
        }
        assert digests == {
            "dim_0.tsv": "bc237b4bf28974e0",
            "dim_1.tsv": "0b813a7458bbc24d",
            "dim_2.tsv": "38205d57ba28ff42",
            "features.csv": "a03848b19d8f63e0",
            "labels.csv": "51d6314993196c7b",
            "labels_per_dim.csv": "4b74875b0ed6ccfe",
            "meta.json": "605ffc5e1e4914ea",
        }

        g = graph_from_edges(3, [[(2, 0), (0, 1)], []],
                             features=np.array([[1 / 3], [-0.0], [1e-300]]))
        save_multiplex(g, tmp_path / "small")
        assert (tmp_path / "small" / "dim_0.tsv").read_bytes() == b"0\t1\n0\t2\n"
        assert (tmp_path / "small" / "dim_1.tsv").read_bytes() == b""
        assert (tmp_path / "small" / "features.csv").read_bytes() == (
            b"0.3333333333333333\n-0.0\n1e-300\n"
        )

    @pytest.mark.parametrize("labels", [((0,), (), (1,)), ((0,), (1, -1), (1,))])
    def test_save_refuses_labels_that_load_refuses(self, tmp_path, labels):
        # Refused where the graph is built, so save has nothing to write.
        with pytest.raises(DataFormatError, match="non-negative class ids"):
            save_multiplex(graph_from_edges(3, [[(0, 1)]], labels=labels), tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 6), data=st.data())
    def test_save_writes_only_what_load_reads_back_equal(self, n, data):
        # Symmetric dimensions with a value drawn per stored pair, explicit
        # zeros and weights among them: save refuses and writes nothing, or
        # load returns the dimensions it saved.
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        value = st.one_of(st.just(1.0), st.sampled_from([0.0, 0.5, 2.0]))
        dims = []
        for _ in range(data.draw(st.integers(1, 3))):
            chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
            values = [data.draw(value) for _ in chosen]
            us, vs = (list(end) for end in zip(*chosen)) if chosen else ([], [])
            m = sp.csr_matrix((values * 2, (us + vs, vs + us)), shape=(n, n))
            m.sort_indices()
            dims.append(SparseAdjacency(n, m.indptr, m.indices, m.data))
        graph = MultiplexGraph(n, dims, np.arange(n, dtype=float)[:, None])
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "ds"
            try:
                save_multiplex(graph, root)
            except DataFormatError as exc:
                assert "stores a value other than 1.0" in str(exc)
                assert not root.exists()
                return
            loaded = load_multiplex(root)
        assert all(a.equals(b) for a, b in zip(loaded.dimensions, graph.dimensions))

    def test_edge_list_spans_format_chunks(self, tmp_path):
        # The edge list is formatted 2^16 edges at a time; a dimension with
        # more edges than that is written line for line as one would be.
        u, v = np.triu_indices(400, 1)
        assert u.size > 1 << 16
        graph = graph_from_edges(400, [list(zip(u.tolist(), v.tolist()))])
        save_multiplex(graph, tmp_path / "big")
        want = "".join(f"{a}\t{b}\n" for a, b in zip(u.tolist(), v.tolist()))
        assert (tmp_path / "big" / "dim_0.tsv").read_text() == want
        assert load_multiplex(tmp_path / "big").dimensions[0].equals(graph.dimensions[0])


def write_dataset(root: Path, num_nodes: int, dims, features: str, labels=None,
                  num_features: int = 1) -> Path:
    """A dataset directory from raw file texts, written as UTF-8 bytes."""
    root.mkdir()
    meta = {"num_nodes": num_nodes, "num_dims": len(dims), "num_features": num_features}
    (root / "meta.json").write_text(json.dumps(meta))
    for k, text in enumerate(dims):
        (root / f"dim_{k}.tsv").write_bytes(text.encode("utf-8"))
    (root / "features.csv").write_bytes(features.encode("utf-8"))
    if labels is not None:
        (root / "labels.csv").write_bytes(labels.encode("utf-8"))
    return root


def load_outcome(load):
    """What a load returns, or the message of the DataFormatError it raises."""
    try:
        return "ok", load()
    except DataFormatError as exc:
        return "error", str(exc)


# Characters that stand around, between and inside ids and values: ASCII and
# non-ASCII whitespace and line breaks, signs, and what no number holds.
MESSY = st.sampled_from(list("0123456789+-.e,\t \n\r\x0b\x0c\x1c\x1e\x1fxn"
                             "\x00\x85\xa0\u2028\u3000\ufeff")
                        + ["\r\n", "inf", "0\t1", "2\t1", " 3 \t 0", "1.5,", "-2e-3"])

# Text over the bytes that load_multiplex hands to np.loadtxt
# (multiplex._EDGE_BYTES, multiplex._FEATURE_BYTES): well-formed lines with
# spaces, signs and every line break, among single bytes and blank lines,
# so that many draws are tables that the loadtxt pass reads.
EDGE_TEXT = st.lists(st.one_of(
    st.from_regex(r" ?[+-]?[0-9]{1,2} ?\t ?[+-]?[0-9]{1,2} ?(\n|\r\n|\r)", fullmatch=True),
    st.sampled_from(list("0123456789+- \t\r\n") + ["\r\n"]),
), max_size=12).map("".join)
FEATURE_VALUE = r" ?[+-]?([0-9]{1,2}(\.[0-9]?)?([eE][+-]?[0-9])?|\.[0-9]|inf|nan) ?"
FEATURE_TEXT = st.lists(st.one_of(
    st.from_regex(rf"{FEATURE_VALUE}(,{FEATURE_VALUE}){{0,2}}(\n|\r\n|\r)", fullmatch=True),
    st.sampled_from(list("0123456789+- \t\r\n.,eEinfa") + ["\r\n"]),
), max_size=8).map("".join)


class TestTextGrammar:
    """Both readers of load_multiplex, np.loadtxt and its own line readers,
    against the line-by-line references."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 40), data=st.data(),
           newline=st.sampled_from(["\n", "\r\n"]))
    def test_edge_layouts_load_as_the_reference(self, n, data, newline):
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=60))
        lines = []
        for u, v in pairs:
            pad = data.draw(st.sampled_from(["", " ", "  "]))
            sign = data.draw(st.sampled_from(["", "+"]))
            lines.append(f"{pad}{sign}{u}{pad}\t{pad}{v}{pad}")
            if data.draw(st.booleans()):
                lines.append(data.draw(st.sampled_from(["", " ", "\t"])))
        text = newline.join(lines) + data.draw(st.sampled_from(["", newline]))
        want = SparseAdjacency.from_undirected_edges(n, [u for u, _ in pairs],
                                                     [v for _, v in pairs])
        assert edge_list_loop(text, "dim_0.tsv", n).equals(want)
        with tempfile.TemporaryDirectory() as tmp:
            root = write_dataset(Path(tmp) / "ds", n, [text], "1\n" * n)
            assert load_multiplex(root).dimensions[0].equals(want)

    @settings(max_examples=300, deadline=None)
    @given(text=st.lists(MESSY, max_size=30).map("".join), n=st.integers(1, 12))
    def test_any_edge_text_loads_or_fails_as_the_reference(self, text, n):
        want = load_outcome(lambda: edge_list_loop(text, "dim_0.tsv", n))
        with tempfile.TemporaryDirectory() as tmp:
            root = write_dataset(Path(tmp) / "ds", n, [text], "1\n" * n)
            got = load_outcome(lambda: load_multiplex(root).dimensions[0])
        assert got[0] == want[0]
        assert got[1] == want[1] if got[0] == "error" else got[1].equals(want[1])

    @settings(max_examples=300, deadline=None)
    @given(text=st.lists(MESSY, max_size=30).map("".join), n=st.integers(1, 3),
           num_features=st.integers(1, 3))
    def test_any_feature_text_loads_or_fails_as_the_reference(self, text, n, num_features):
        want = load_outcome(lambda: feature_rows_loop(text, n, num_features))
        if want[0] == "ok" and not np.all(np.isfinite(want[1])):
            want = ("error", "features must be finite")
        with tempfile.TemporaryDirectory() as tmp:
            root = write_dataset(Path(tmp) / "ds", n, [""], text, num_features=num_features)
            got = load_outcome(lambda: load_multiplex(root).features)
        assert got[0] == want[0]
        assert got[1] == want[1] if got[0] == "error" else np.array_equal(got[1], want[1])

    @settings(max_examples=300, deadline=None)
    @given(text=EDGE_TEXT, n=st.integers(1, 12))
    def test_loadtxt_edge_text_loads_or_fails_as_the_reference(self, text, n):
        assert not text.encode().translate(None, multiplex._EDGE_BYTES)
        want = load_outcome(lambda: edge_list_loop(text, "dim_0.tsv", n))
        with tempfile.TemporaryDirectory() as tmp:
            root = write_dataset(Path(tmp) / "ds", n, [text], "1\n" * n)
            got = load_outcome(lambda: load_multiplex(root).dimensions[0])
        assert got[0] == want[0]
        assert got[1] == want[1] if got[0] == "error" else got[1].equals(want[1])

    @settings(max_examples=300, deadline=None)
    @given(text=FEATURE_TEXT, n=st.integers(1, 3),
           num_features=st.integers(1, 3))
    def test_loadtxt_feature_text_loads_or_fails_as_the_reference(self, text, n, num_features):
        assert not text.encode().translate(None, multiplex._FEATURE_BYTES)
        want = load_outcome(lambda: feature_rows_loop(text, n, num_features))
        if want[0] == "ok" and not np.all(np.isfinite(want[1])):
            want = ("error", "features must be finite")
        with tempfile.TemporaryDirectory() as tmp:
            root = write_dataset(Path(tmp) / "ds", n, [""], text, num_features=num_features)
            got = load_outcome(lambda: load_multiplex(root).features)
        assert got[0] == want[0]
        assert got[1] == want[1] if got[0] == "error" else np.array_equal(got[1], want[1])

    def test_saved_dataset_loads_without_the_line_readers(self, tmp_path, monkeypatch):
        from hmge.sbm import SbmConfig, generate_multiplex, save_dataset

        ds = generate_multiplex(SbmConfig(num_nodes=40, num_dims=3, p_in=0.3, p_out=0.05,
                                          rng_seed=2))
        save_dataset(ds, tmp_path / "lf")
        crlf = tmp_path / "crlf"
        crlf.mkdir()
        for path in (tmp_path / "lf").iterdir():
            data = path.read_bytes()
            if path.suffix == ".tsv" or path.name == "features.csv":
                data = b"\r\n" + data.replace(b"\n", b"\r\n\r\n")
            (crlf / path.name).write_bytes(data)

        def line_reader(*args):
            raise AssertionError("a line reader read a file that save_multiplex wrote")

        monkeypatch.setattr(multiplex, "_edge_lines", line_reader)
        monkeypatch.setattr(multiplex, "_feature_lines", line_reader)
        for root in (tmp_path / "lf", crlf):
            graph = load_multiplex(root)
            assert np.array_equal(graph.features, ds.graph.features)
            assert graph.labels == ds.graph.labels
            assert all(a.equals(b) for a, b in zip(graph.dimensions, ds.graph.dimensions))

    @pytest.mark.parametrize("file, text, message", [
        ("dim", "0\t1\n\n1\t2\t0\n", "dim_0.tsv:3: expected 'u<TAB>v'"),
        ("dim", "\n \n0\tx\n", "dim_0.tsv:3: non-integer node id"),
        ("dim", "0\t1\r\n\r\n0\t3\r\n", "dim_0.tsv:3: node index out of range [0, 3)"),
        ("dim", "0\t1\n\t\n-1\t2\n", "dim_0.tsv:3: node index out of range [0, 3)"),
        ("dim", "0\t1\n\n2\t+2\n", "dim_0.tsv:3: self-loop not allowed"),
        # int() takes these two; the loader does not.
        ("dim", "\n0\t1_0\n", "dim_0.tsv:2: non-integer node id"),
        ("dim", "\n0\t\u0661\n", "dim_0.tsv:2: non-integer node id"),
        ("features", "1.0\n\n2.0\nabc\n", "features.csv:4: bad float"),
        ("features", "1.0\n\n2.0,3.0\n3.0\n", "features.csv:3: expected 1 values, got 2"),
        ("features", "1.0\n \n2.0\n", "features.csv: expected 3 rows, got 2"),
        ("features", "1.0\n2.0\n3.0\n4.0\n", "features.csv: expected 3 rows, got 4"),
        ("features", "1.0\n\n1_0\n3.0\n", "features.csv:3: bad float"),
        ("labels", "0\n\n1\n", "labels.csv:2: empty label row"),
        ("labels", "0\n1;x\n1\n", "labels.csv:2: bad class id"),
        ("labels", "0\n1;-1\n1\n", "labels.csv:2: bad class id"),
        # int() takes these two; the loader does not.
        ("labels", "0\n1_0\n1\n", "labels.csv:2: bad class id"),
        ("labels", "0\n\u0661\n1\n", "labels.csv:2: bad class id"),
        ("labels", "0\n1\n", "labels.csv: expected 3 rows, got 2"),
    ])
    def test_malformed_file_names_its_line(self, tmp_path, file, text, message):
        files = {"dim": "0\t1\n", "features": "1.0\n2.0\n3.0\n", "labels": "0\n1\n0\n"}
        files[file] = text
        root = write_dataset(tmp_path / "ds", 3, [files["dim"]], files["features"],
                             files["labels"])
        with pytest.raises(DataFormatError) as info:
            load_multiplex(root)
        assert str(info.value) == message

    @pytest.mark.parametrize("key, size", [("num_nodes", 2.9), ("num_dims", True),
                                           ("num_features", "1")])
    def test_meta_size_must_be_a_json_integer(self, tmp_path, key, size):
        # int() would read these as 2, 1 and 1.
        root = write_dataset(tmp_path / "ds", 3, ["0\t1\n"], "1.0\n2.0\n3.0\n")
        meta = {"num_nodes": 3, "num_dims": 1, "num_features": 1, key: size}
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataFormatError, match="^malformed meta.json"):
            load_multiplex(root)

    @pytest.mark.parametrize("text", ["", "\n\n", " \r\n"])
    def test_empty_edge_list_loads_without_a_warning(self, tmp_path, text):
        root = write_dataset(tmp_path / "ds", 2, [text, "0\t1\n"], "1\n2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = load_multiplex(root)
        assert graph.dimensions[0].nnz == 0 and graph.dimensions[1].num_edges == 1

    def test_overstated_node_count_fails_before_building_dimensions(self, tmp_path):
        # A meta.json that claims 5M nodes over 3 feature rows: the parent
        # build of every dimension first took O(N) memory per dimension.
        root = write_dataset(tmp_path / "ds", 5_000_000, ["0\t1\n"] * 3, "1\n2\n3\n")
        script = textwrap.dedent(f"""
            import resource, sys
            from hmge.errors import DataFormatError
            from hmge.multiplex import load_multiplex
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                load_multiplex({str(root)!r})
            except DataFormatError as exc:
                print(exc)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            scale = 1 if sys.platform == "darwin" else 1024
            print((after - before) * scale / 2**20)
        """)
        src = str(Path(multiplex.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout.splitlines()
        assert out[0] == "features.csv: expected 5000000 rows, got 3"
        assert float(out[1]) < 50
