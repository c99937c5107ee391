import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmge.autodiff import sigmoid_value
from hmge.errors import ConfigError, DataFormatError
from hmge.evaluation import (
    accuracy,
    auc_roc,
    average_precision,
    classify,
    f1_scores,
    link_scores,
    logistic_fit,
    split_links,
    stratified_split,
    EvalReport,
)
from hmge.multiplex import MultiplexGraph, SparseAdjacency
from hmge.sbm import SbmConfig, generate_multiplex
from oracles import auc_roc_loop, from_dense, split_links_loop, to_dense


def brute_force_auc(scores, labels):
    """Pairwise positive-vs-negative comparison; ties count one half."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_ap(scores, labels):
    """Walk items by descending score (index-stable), averaging precision
    at each positive."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    terms = []
    for rank, idx in enumerate(order, start=1):
        if labels[idx]:
            hits += 1
            terms.append(hits / rank)
    return math.fsum(terms) / sum(labels)


class TestRankingMetrics:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auc_roc(scores, labels) == 1.0
        assert average_precision(scores, labels) == 1.0

    def test_perfectly_inverted(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([1, 1, 0, 0])
        assert auc_roc(scores, labels) == 0.0

    def test_reference_example(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        labels = np.array([1, 0, 1, 0])
        assert auc_roc(scores, labels) == 0.75
        assert abs(average_precision(scores, labels) - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            auc_roc(np.array([0.5, 0.6]), np.array([1, 1]))
        with pytest.raises(ConfigError):
            average_precision(np.array([0.5, 0.6]), np.array([0, 0]))

    def test_ties_count_half(self):
        scores = np.array([0.5, 0.5])
        labels = np.array([1, 0])
        assert auc_roc(scores, labels) == 0.5

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_small_cases(self, data):
        n = data.draw(st.integers(2, 10))
        labels = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(
                lambda ls: any(ls) and not all(ls)
            )
        )
        # coarse score grid to force ties
        scores = data.draw(
            st.lists(
                st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7, 0.9]),
                min_size=n,
                max_size=n,
            )
        )
        scores = np.array(scores)
        labels_arr = np.array(labels, dtype=bool)
        assert auc_roc(scores, labels_arr) == pytest.approx(
            brute_force_auc(scores, labels), abs=0
        )
        assert average_precision(scores, labels_arr) == pytest.approx(
            brute_force_ap(scores, labels), abs=0
        )

    def test_matches_tie_loop_on_large_case(self):
        # Distinct, rounded (heavily tied) and saturated scores, as link
        # scoring produces them; the vectorized ranks must agree bitwise.
        rng = np.random.default_rng(8)
        scores = rng.random(32768)
        scores[:12000] = np.round(scores[:12000], 2)
        scores[12000:16000] = 1.0
        labels = rng.random(32768) < 0.5
        assert auc_roc(scores, labels) == auc_roc_loop(scores, labels)


class TestClassificationMetrics:
    def test_perfect_predictions(self):
        pred = np.array([0, 1, 2, 1])
        macro, micro = f1_scores(pred, pred, 3)
        assert macro == 1.0 and micro == 1.0 and accuracy(pred, pred) == 1.0

    def test_hand_counted_binary(self):
        # TP=2, FP=1, FN=1, TN=6 for class 1
        actual = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        pred = np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])
        macro, micro = f1_scores(pred, actual, 2)
        class1_f1 = 2 * 2 / (2 * 2 + 1 + 1)
        assert abs(class1_f1 - 2 / 3) < 1e-12
        assert micro == accuracy(pred, actual) == 0.8

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_micro_equals_accuracy_single_label(self, data):
        n = data.draw(st.integers(1, 30))
        k = data.draw(st.integers(2, 5))
        actual = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        pred = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        _, micro = f1_scores(pred, actual, k)
        assert micro == accuracy(pred, actual)

    def test_absent_class_excluded_from_macro(self):
        actual = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        macro3, _ = f1_scores(pred, actual, 3)  # class 2 never appears
        assert macro3 == 1.0

    def test_multilabel_sets(self):
        actual = [(0, 1), (1,), (2,)]
        pred = [(0,), (1,), (2,)]
        macro, micro = f1_scores(pred, actual, 3)
        assert accuracy(pred, actual) == pytest.approx(2 / 3)
        assert micro == pytest.approx(2 * 3 / (2 * 3 + 0 + 1))


class TestLogistic:
    def test_separable_toy_set(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(0, 0.1, (20, 2)) + np.array([0, 0])
        x1 = rng.normal(0, 0.1, (20, 2)) + np.array([2, 2])
        x = np.vstack([x0, x1])
        y = np.array([0] * 20 + [1] * 20)
        clf = logistic_fit(x, y, 2)
        assert accuracy(classify(clf, x), y) == 1.0

    def test_identical_embeddings_predict_majority(self):
        x = np.ones((10, 3))
        y = np.array([0] * 7 + [1] * 3)
        clf = logistic_fit(x, y, 2)
        assert np.all(classify(clf, x) == 0)

    def test_gaussian_blobs(self):
        rng = np.random.default_rng(1)
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        xs, ys = [], []
        for c in range(3):
            xs.append(rng.normal(0, 0.1, (60, 2)) + centers[c])
            ys.extend([c] * 60)
        x = np.vstack(xs)
        y = np.array(ys)
        clf = logistic_fit(x, y, 3)
        assert accuracy(classify(clf, x), y) >= 0.95

    def test_single_class_warns_constant(self):
        x = np.random.default_rng(2).standard_normal((5, 2))
        with pytest.warns(UserWarning, match="single-class"):
            clf = logistic_fit(x, np.zeros(5, dtype=int), 2)
        assert np.all(classify(clf, x) == 0)

    def test_multilabel_mode(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(0, 0.1, (30, 2)), rng.normal(2.0, 0.1, (30, 2))])
        labels = [(0,)] * 30 + [(0, 1)] * 30
        clf = logistic_fit(x, labels, 2, multilabel=True)
        preds = classify(clf, x)
        assert isinstance(preds[0], tuple)
        _, micro = f1_scores(preds, labels, 2)
        assert micro > 0.9


def small_multiplex(seed=0, n=30, dims=2, density=0.3):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(dims):
        m = (rng.random((n, n)) < density).astype(float)
        m = np.triu(m, 1) + np.triu(m, 1).T
        mats.append(from_dense(m))
    x = rng.standard_normal((n, 4))
    labels = tuple((int(c),) for c in rng.integers(0, 2, n))
    return MultiplexGraph(n, tuple(mats), x, labels)


class RecordingRng:
    """A seeded generator that keeps every ``integers`` draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.draws.append(out.tolist())
        return out


class TestSplitLinks:
    def test_exact_counts(self):
        graph = small_multiplex(seed=1, n=40, density=0.3)
        total_edges = [d.num_edges for d in graph.dimensions]
        split = split_links(graph, 0.1, np.random.default_rng(0))
        expected = sum(max(1, math.ceil(0.1 * e)) for e in total_edges)
        assert len(split.positives) == expected
        assert len(split.negatives) == expected

    def test_tiny_ratio_removes_one(self):
        graph = small_multiplex(seed=2, n=20, dims=1, density=0.2)
        split = split_links(graph, 1e-9, np.random.default_rng(0))
        assert len(split.positives) == 1

    def test_removed_edges_absent_from_training(self):
        graph = small_multiplex(seed=3)
        split = split_links(graph, 0.2, np.random.default_rng(1))
        for d, u, v in split.positives:
            dense = to_dense(split.training_graph.dimensions[d])
            assert dense[u, v] == 0.0 and dense[v, u] == 0.0

    def test_union_of_training_and_positives_is_original(self):
        graph = small_multiplex(seed=4)
        split = split_links(graph, 0.15, np.random.default_rng(2))
        for d, dim in enumerate(graph.dimensions):
            kept = {tuple(p) for p in split.training_graph.dimensions[d].undirected_pairs()}
            removed = {(u, v) for dd, u, v in split.positives if dd == d}
            original = {tuple(p) for p in dim.undirected_pairs()}
            assert kept | removed == original
            assert kept & removed == set()

    def test_negatives_are_non_edges(self):
        graph = small_multiplex(seed=5)
        split = split_links(graph, 0.2, np.random.default_rng(3))
        for d, u, v in split.negatives:
            assert to_dense(graph.dimensions[d])[u, v] == 0.0
            assert u != v

    def test_sparse_dimension_skipped_with_warning(self):
        n = 10
        d_ok = SparseAdjacency.from_undirected_edges(n, [0, 1, 2, 3], [4, 5, 6, 7])
        d_tiny = SparseAdjacency.from_undirected_edges(n, [0], [9])
        graph = MultiplexGraph(n, (d_ok, d_tiny), np.ones((n, 1)))
        with pytest.warns(UserWarning, match="skipping"):
            split = split_links(graph, 0.5, np.random.default_rng(0))
        assert all(d == 0 for d, _, _ in split.positives)
        assert split.training_graph.dimensions[1].equals(d_tiny)

    def test_nothing_to_hold_out_is_data_error(self):
        # Every dimension is skipped, so there is no positive to score.
        dims = tuple(SparseAdjacency.from_undirected_edges(6, [u], [u + 1]) for u in (0, 2))
        graph = MultiplexGraph(6, dims, np.ones((6, 1)))
        with pytest.warns(UserWarning, match="skipping"):
            with pytest.raises(DataFormatError, match="no dimension has two or more edges"):
                split_links(graph, 0.1, np.random.default_rng(0))

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            split_links(small_multiplex(), 1.5, np.random.default_rng(0))

    def test_complete_dimension_too_dense(self):
        n = 6
        complete = from_dense(np.ones((n, n)) - np.eye(n))
        graph = MultiplexGraph(n, (complete,), np.ones((n, 1)))
        with pytest.raises(DataFormatError, match="too dense"):
            split_links(graph, 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("case", ["sbm-1", "sbm-7", "sbm-31", "dense"])
    def test_matches_loop_reference(self, case):
        if case == "dense":
            # 339 of 435 pairs are edges: 34 negatives come from 96
            # non-edges, which takes several rounds with repeats.
            graph = small_multiplex(seed=6, n=30, dims=1, density=0.8)
            seed = 4
        else:
            seed = int(case.split("-")[1])
            graph = generate_multiplex(
                SbmConfig(num_nodes=120, num_dims=3, p_in=0.2, p_out=0.03, rng_seed=seed)
            ).graph
        rng = RecordingRng(seed)
        split = split_links(graph, 0.1, rng)
        expected = split_links_loop(graph, 0.1, np.random.default_rng(seed))
        assert split.positives == expected.positives
        assert split.negatives == expected.negatives
        assert all(type(x) is int for pair in split.positives + split.negatives for x in pair)
        for got, want in zip(split.training_graph.dimensions, expected.training_graph.dimensions):
            assert got.equals(want)
        if case == "dense":
            rounds = list(zip(rng.draws[::2], rng.draws[1::2]))
            assert len(rounds) >= 2
            edge_keys = set(graph.dimensions[0].undirected_pairs() @ [graph.num_nodes, 1])
            repeated = False
            for us, vs in rounds:
                keys = [min(u, v) * graph.num_nodes + max(u, v) for u, v in zip(us, vs) if u != v]
                candidates = [k for k in keys if k not in edge_keys]
                repeated |= len(set(candidates)) < len(candidates)
            assert repeated


class TestLinkScores:
    def test_orthogonal_half(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        scores = link_scores(z, [(0, 0, 1)])
        assert scores[0] == 0.5

    def test_unit_self_similarity(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        scores = link_scores(z, [(0, 0, 1)])
        assert abs(scores[0] - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12

    def test_batch_matches_per_pair(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((10, 4))
        pairs = [(0, int(u), int(v)) for u, v in rng.integers(0, 10, (15, 2))]
        batch = link_scores(z, pairs)
        for score, (_, u, v) in zip(batch, pairs):
            expected = 1.0 / (1.0 + math.exp(-float(z[u] @ z[v])))
            assert abs(score - expected) < 1e-12

    @pytest.mark.parametrize("chunk", [7, None])
    def test_chunks_match_whole_gather(self, chunk, monkeypatch):
        # Pair counts that are not a multiple of the chunk size, in one and
        # in several chunks; scores equal the unchunked form bit for bit.
        from hmge import evaluation

        if chunk is not None:
            monkeypatch.setattr(evaluation, "LINK_CHUNK", chunk)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((300, 32))
        for count in (1, 5, 50, 2 * evaluation.LINK_CHUNK + 3):
            pairs = [(0, int(u), int(v)) for u, v in rng.integers(0, 300, (count, 2))]
            us, vs = np.array([p[1] for p in pairs]), np.array([p[2] for p in pairs])
            expected = sigmoid_value(np.einsum("ij,ij->i", z[us], z[vs]))
            assert np.array_equal(link_scores(z, pairs), expected)


class TestStratifiedSplit:
    def test_fraction_and_coverage(self):
        labels = np.array([0] * 50 + [1] * 50)
        train, test = stratified_split(labels, 0.1, np.random.default_rng(0))
        assert len(train) == 10
        assert len(np.intersect1d(train, test)) == 0
        assert len(train) + len(test) == 100
        assert set(labels[train]) == {0, 1}

    def test_minimum_one_per_class(self):
        labels = np.array([0] * 99 + [1])
        train, _ = stratified_split(labels, 0.05, np.random.default_rng(0))
        assert 1 in labels[train]

    def test_empty_test_side_rejected(self):
        # ceil(0.99 * k) = k for every class below 100 members
        with pytest.raises(ConfigError, match="nothing is left to test"):
            stratified_split(np.array([0] * 30 + [1] * 30), 0.99, np.random.default_rng(0))
        # one member per class: the guaranteed training row takes it
        with pytest.raises(ConfigError, match="nothing is left to test"):
            stratified_split(np.arange(5), 0.1, np.random.default_rng(0))

    def test_empty_multilabel_test_side_rejected(self):
        labels = [(0, 1)] * 10 + [(1,)] * 10
        train, test = stratified_split(labels, 0.9, np.random.default_rng(0))
        assert len(train) == 18 and len(test) == 2
        with pytest.raises(ConfigError, match="nothing is left to test"):
            stratified_split(labels, 0.99, np.random.default_rng(0))


class TestEvalReport:
    def test_metric_range_enforced(self):
        with pytest.raises(ValueError):
            EvalReport(task="link", metrics={"auc": 1.5}, seed=0)

    def test_to_dict(self):
        report = EvalReport(task="link", metrics={"auc": 0.9}, seed=3, config={"m": 8})
        payload = report.to_dict()
        assert payload["task"] == "link" and payload["metrics"]["auc"] == 0.9


class TestSyntheticExperiment:
    def test_smoke_sweep_writes_reproducible_csv(self, tmp_path):
        from hmge.evaluation import run_synthetic_experiment

        settings = dict(num_nodes=40, embed_size=4, epochs=3, patience=3)
        first, second = tmp_path / "a" / "fig6.csv", tmp_path / "b" / "fig6.csv"
        rows = run_synthetic_experiment([2, 3], [1], out_csv=first, **settings)
        run_synthetic_experiment([2, 3], [1], out_csv=second, **settings)
        assert [(r["dims"], r["method"], r["seed"]) for r in rows] == [
            (2, "hmge", 1), (2, "linear", 1), (3, "hmge", 1), (3, "linear", 1)
        ]
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
        lines = first.read_text().splitlines()
        assert lines[0] == "dims,method,seed,accuracy"
        assert len(lines) == 5
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.slow
class TestEndToEnd:
    def test_ablation_report_shape(self):
        from hmge.evaluation import run_ablations
        from hmge.model import HmgeConfig
        from hmge.training import TrainConfig

        ds = generate_multiplex(SbmConfig(num_nodes=60, num_dims=2, p_in=0.4, p_out=0.1, rng_seed=4))
        rows = run_ablations(
            ds.graph,
            HmgeConfig(embed_size=8, num_layers=1),
            TrainConfig(epochs=5, patience=5, rng_seed=0),
            ratio=0.2,
            train_fraction=0.2,
        )
        assert [r["model"] for r in rows] == ["full", "no_hierarchy", "uniform_weights"]
        for row in rows:
            for key in ("auc", "ap", "f1_macro", "f1_micro"):
                assert 0.0 <= row[key] <= 1.0

    def test_uniform_ablation_matches_full_at_init(self):
        # alpha logits start at zero, so both variants encode identically
        # before any update
        import numpy as np

        from hmge.model import HmgeConfig, encode, init_params

        ds = generate_multiplex(SbmConfig(num_nodes=40, num_dims=3, p_in=0.4, p_out=0.1, rng_seed=6))
        cfg = HmgeConfig(embed_size=6, num_layers=1)
        params = init_params(cfg, 3, ds.graph.num_features, np.random.default_rng(0))
        z_full = encode(ds.graph, params, cfg).z
        z_uniform = encode(ds.graph, params, cfg).z  # same params: alpha is zero
        assert np.array_equal(z_full, z_uniform)
