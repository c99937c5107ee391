"""Downstream evaluation: link-prediction splits and ranking metrics, node
classification with an in-package logistic regression, and the ablation
runner.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

import numpy as np

from . import model as mdl
from .autodiff import sigmoid_value
from .errors import ConfigError, DataFormatError
from .multiplex import MultiplexGraph
from .training import TrainConfig, train

LOGISTIC_L2 = 1e-4
# Pairs whose endpoint rows link_scores gathers at once, into reused buffers.
LINK_CHUNK = 4096
LOGISTIC_ITERATIONS = 500
LOGISTIC_LEARNING_RATE = 0.1


# ---------------------------------------------------------------------------
# link prediction


@dataclass
class LinkSplit:
    """Training graph with held-out positives and sampled negatives.

    Pairs are (dimension, u, v) with u < v, as Python ints. The negatives of
    dimension d are non-edges of dimension d in the original graph, one per
    positive; they may be edges of another dimension.
    """

    training_graph: MultiplexGraph
    positives: list[tuple[int, int, int]]
    negatives: list[tuple[int, int, int]]


def split_links(graph: MultiplexGraph, ratio: float, rng: np.random.Generator) -> LinkSplit:
    """Remove ``ratio`` of each dimension's undirected edges, uniformly.

    Each dimension loses ceil(ratio * E_d) edges (at least one); dimensions
    with fewer than two edges are skipped with a warning, and DataFormatError
    is raised when all are, leaving nothing to score. An equal number of
    distinct uniform non-edges per dimension is sampled as negatives
    (``_sample_non_edges``). Dimensions are symmetric (``MultiplexGraph``).
    A seeded split is identical to the one earlier versions drew with a
    per-pair loop: same positives and negatives in the same order, same
    training graph.
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
        keep = np.ones(num_edges, dtype=bool)
        keep[removed] = False
        new_dims.append(dim.keep_pairs(keep))
        positives.extend(zip(repeat(d), *pairs[~keep].T.tolist()))

        max_non_edges = n * (n - 1) // 2 - num_edges
        if max_non_edges < n_remove:
            raise DataFormatError(
                f"dimension {d} is too dense to sample {n_remove} negative pairs"
            )
        keys = _sample_non_edges(n, pairs[:, 0] * n + pairs[:, 1], n_remove, rng)
        negatives.extend(zip(repeat(d), (keys // n).tolist(), (keys % n).tolist()))
    if not positives:
        raise DataFormatError("no dimension has two or more edges to hold out")
    return LinkSplit(
        training_graph=graph.with_dimensions(new_dims),
        positives=positives,
        negatives=negatives,
    )


def _sample_non_edges(
    n: int, edge_keys: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct uniform non-edges as keys u * n + v (u < v), in
    the order drawn.

    ``edge_keys`` holds the edges' keys, at least one, strictly increasing.
    Each round draws max(4 * remaining, 16) endpoint pairs, all first
    endpoints then all second ones, and accepts in draw order the first
    ``remaining`` candidates that are off the diagonal, not an edge, not
    accepted in an earlier round and not drawn earlier in the same round.
    """
    taken = edge_keys  # strictly increasing: edges, then accepted non-edges
    rounds = []
    remaining = count
    while remaining:
        batch = max(4 * remaining, 16)
        us = rng.integers(0, n, size=batch)
        vs = rng.integers(0, n, size=batch)
        keys = np.minimum(us, vs) * n + np.maximum(us, vs)
        distinct, first = np.unique(keys, return_index=True)
        slot = np.minimum(np.searchsorted(taken, distinct), taken.size - 1)
        fresh = (us != vs)[first] & (taken[slot] != distinct)
        accepted = keys[np.sort(first[fresh])[:remaining]]
        rounds.append(accepted)
        remaining -= accepted.size
        added = np.sort(accepted)
        taken = np.insert(taken, np.searchsorted(taken, added), added)
    return np.concatenate(rounds)


def link_scores(z: np.ndarray, pairs) -> np.ndarray:
    """sigmoid(z_u . z_v) for each (dim, u, v) pair; dimension is ignored.

    Each dot product is the per-row einsum of the unchunked form, bit for bit.
    """
    z = np.asarray(z, dtype=np.float64)
    if not pairs:
        return np.zeros(0)
    us = np.fromiter(map(itemgetter(1), pairs), dtype=np.int64, count=len(pairs))
    vs = np.fromiter(map(itemgetter(2), pairs), dtype=np.int64, count=len(pairs))
    dots, rows_u = np.empty(len(pairs)), np.empty((min(LINK_CHUNK, len(pairs)), z.shape[1]))
    rows_v = np.empty_like(rows_u)
    for lo in range(0, len(pairs), LINK_CHUNK):
        u, v = us[lo:lo + LINK_CHUNK], vs[lo:lo + LINK_CHUNK]
        a, b = np.take(z, u, 0, rows_u[: len(u)]), np.take(z, v, 0, rows_v[: len(u)])
        np.einsum("ij,ij->i", a, b, out=dots[lo:lo + len(u)])
    return sigmoid_value(dots)


def _check_binary_labels(labels: np.ndarray) -> None:
    if labels.size == 0 or labels.min() == labels.max():
        raise ConfigError("ranking metrics need at least one positive and one negative")


def auc_roc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties at 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels differ in length")
    _check_binary_labels(labels)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # A run of tied scores shares the mean of its 1-based ranks: the run
    # ending at rank r with c members gets r - (c - 1) / 2.
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    pos = int(labels.sum())
    neg = labels.shape[0] - pos
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def average_precision(scores, labels) -> float:
    """Step-wise AP: mean precision at each positive, descending by score.

    Ties are broken by original index (stable), matching the enumeration
    oracle used in the tests.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels differ in length")
    _check_binary_labels(labels)
    order = np.argsort(-scores, kind="stable")
    hits = labels[order]
    cum = np.cumsum(hits)
    precision = cum / np.arange(1, hits.shape[0] + 1)
    # fsum: exactly rounded, so any enumeration of the same terms agrees
    return math.fsum(precision[hits]) / int(labels.sum())


# ---------------------------------------------------------------------------
# node classification


def _as_label_sets(labels) -> list[frozenset]:
    out = []
    for row in labels:
        if isinstance(row, (tuple, list, set, frozenset)):
            out.append(frozenset(int(c) for c in row))
        else:
            out.append(frozenset((int(row),)))
    return out


def _single_label_array(labels) -> np.ndarray | None:
    sets = _as_label_sets(labels)
    if all(len(s) == 1 for s in sets):
        return np.array([next(iter(s)) for s in sets], dtype=np.int64)
    return None


@dataclass
class LogisticClassifier:
    weights: np.ndarray          # (features + 1) x classes, last row is the bias
    num_classes: int
    multilabel: bool
    feature_mean: np.ndarray
    feature_scale: np.ndarray


def _augment(z: np.ndarray) -> np.ndarray:
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    return np.hstack([z, np.ones((z.shape[0], 1))])


def logistic_fit(
    z_train: np.ndarray, labels, num_classes: int, multilabel: bool = False
) -> LogisticClassifier:
    """Full-batch gradient-descent softmax regression (or K one-vs-rest
    sigmoid classifiers in multilabel mode) with an L2 penalty off the bias.

    Inputs are standardized per column from the training rows, as any
    off-the-shelf implementation would, so fixed-step gradient descent is
    insensitive to the embedding scale.
    """
    z_train = np.atleast_2d(np.asarray(z_train, dtype=np.float64))
    mean = z_train.mean(axis=0)
    scale = z_train.std(axis=0)
    scale[scale < 1e-12] = 1.0
    x = _augment((z_train - mean) / scale)
    n = x.shape[0]
    if n < num_classes:
        raise ConfigError(f"need at least {num_classes} training rows, got {n}")
    sets = _as_label_sets(labels)
    if len(sets) != n:
        raise ValueError("label count does not match the training rows")
    y = np.zeros((n, num_classes))
    for i, s in enumerate(sets):
        for c in s:
            if not (0 <= c < num_classes):
                raise ValueError(f"label {c} out of range for {num_classes} classes")
            y[i, c] = 1.0
    observed = {c for s in sets for c in s}
    if len(observed) < 2:
        warnings.warn("single-class training set: classifier will be constant")

    w = np.zeros((x.shape[1], num_classes))
    reg_mask = np.ones_like(w)
    reg_mask[-1, :] = 0.0
    for _ in range(LOGISTIC_ITERATIONS):
        logits = x @ w
        if multilabel:
            probs = sigmoid_value(logits)
        else:
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            probs = e / e.sum(axis=1, keepdims=True)
        grad = x.T @ (probs - y) / n + LOGISTIC_L2 * (w * reg_mask)
        w -= LOGISTIC_LEARNING_RATE * grad
    return LogisticClassifier(
        weights=w,
        num_classes=num_classes,
        multilabel=multilabel,
        feature_mean=mean,
        feature_scale=scale,
    )


def classify(classifier: LogisticClassifier, z: np.ndarray):
    """Predicted labels: an int array, or per-node tuples in multilabel mode."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    z = (z - classifier.feature_mean) / classifier.feature_scale
    logits = _augment(z) @ classifier.weights
    if not classifier.multilabel:
        return np.argmax(logits, axis=1).astype(np.int64)
    probs = sigmoid_value(logits)
    return [tuple(np.flatnonzero(row >= 0.5)) for row in probs]


def accuracy(predicted, actual) -> float:
    """Exact-match accuracy (set equality for multilabel rows)."""
    pred = _as_label_sets(predicted)
    act = _as_label_sets(actual)
    if len(pred) != len(act):
        raise ValueError("prediction and truth differ in length")
    return float(np.mean([p == a for p, a in zip(pred, act)]))


def f1_scores(predicted, actual, num_classes: int) -> tuple[float, float]:
    """(macro, micro) F1. Classes absent from both sides are excluded from
    the macro average; micro pools true/false positives over all classes."""
    pred = _as_label_sets(predicted)
    act = _as_label_sets(actual)
    if len(pred) != len(act):
        raise ValueError("prediction and truth differ in length")
    tp = np.zeros(num_classes, dtype=np.int64)
    fp = np.zeros(num_classes, dtype=np.int64)
    fn = np.zeros(num_classes, dtype=np.int64)
    for p, a in zip(pred, act):
        for c in p & a:
            tp[c] += 1
        for c in p - a:
            fp[c] += 1
        for c in a - p:
            fn[c] += 1
    per_class = []
    for c in range(num_classes):
        support = tp[c] + fp[c] + fn[c]
        if support == 0:
            continue
        per_class.append(2.0 * tp[c] / (2.0 * tp[c] + fp[c] + fn[c]))
    macro = float(np.mean(per_class)) if per_class else 0.0
    denom = 2.0 * tp.sum() + fp.sum() + fn.sum()
    micro = float(2.0 * tp.sum() / denom) if denom else 0.0
    return macro, micro


def _check_split(single: np.ndarray | None, n: int, train_fraction: float) -> None:
    """Raise ConfigError unless ``stratified_split`` leaves rows to test on.

    ``single`` is ``_single_label_array`` of the n labels. The split sizes
    depend only on the class sizes and the fraction, not on the draw, so
    callers check them before training.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError(f"train fraction must be in (0, 1), got {train_fraction}")
    sizes = [n] if single is None else np.unique(single, return_counts=True)[1]
    if sum(max(1, math.ceil(train_fraction * int(s))) for s in sizes) >= n:
        raise ConfigError(
            f"train fraction {train_fraction} puts all {n} labeled nodes in the "
            "training split; nothing is left to test"
        )


def stratified_split(
    labels, train_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class random split; every class keeps at least one training row.

    Raises ConfigError when the fraction leaves no row to test on.
    """
    single = _single_label_array(labels)
    n = len(labels)
    _check_split(single, n, train_fraction)
    if single is None:
        # Multilabel: plain random split, stratification is ill-defined.
        perm = rng.permutation(n)
        cut = max(1, math.ceil(train_fraction * n))
        train_idx, test_idx = np.sort(perm[:cut]), np.sort(perm[cut:])
    else:
        train_idx = []
        for c in np.unique(single):
            members = np.flatnonzero(single == c)
            members = members[rng.permutation(members.shape[0])]
            take = max(1, math.ceil(train_fraction * members.shape[0]))
            train_idx.extend(members[:take])
        train_idx = np.sort(np.array(train_idx, dtype=np.int64))
        mask = np.ones(n, dtype=bool)
        mask[train_idx] = False
        test_idx = np.flatnonzero(mask)
    return train_idx, test_idx


# ---------------------------------------------------------------------------
# reports and experiment drivers


@dataclass(frozen=True)
class EvalReport:
    task: str
    metrics: dict
    seed: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value in self.metrics.items():
            if not (0.0 <= float(value) <= 1.0):
                raise ValueError(f"metric {name}={value} outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
            "seed": self.seed,
            "config": self.config,
        }


def evaluate_link_prediction(
    graph: MultiplexGraph,
    hmge_config: mdl.HmgeConfig,
    train_config: TrainConfig,
    ratio: float = 0.1,
    *,
    train_alpha: bool = True,
) -> dict:
    """Split (seeded by the run seed), retrain, and score held-out pairs."""
    split = split_links(graph, ratio, np.random.default_rng(train_config.rng_seed))
    return _link_metrics(split, hmge_config, train_config, train_alpha)


def _link_metrics(split: LinkSplit, hmge_config, train_config, train_alpha: bool) -> dict:
    """Train on ``split``'s training graph and score its held-out pairs."""
    result = train(split.training_graph, hmge_config, train_config, train_alpha=train_alpha)
    pairs = split.positives + split.negatives
    scores = link_scores(result.embeddings, pairs)
    labels = np.array([1] * len(split.positives) + [0] * len(split.negatives))
    return {
        "auc": auc_roc(scores, labels),
        "ap": average_precision(scores, labels),
    }


def evaluate_classification(
    graph: MultiplexGraph,
    hmge_config: mdl.HmgeConfig,
    train_config: TrainConfig,
    train_fraction: float = 0.1,
    *,
    train_alpha: bool = True,
) -> dict:
    """Unsupervised embeddings, then logistic regression on a labeled subset
    drawn with the run seed."""
    require_labels(graph, train_fraction)
    result = train(graph, hmge_config, train_config, train_alpha=train_alpha)
    rng = np.random.default_rng(train_config.rng_seed)
    return classification_metrics(result.embeddings, graph.labels, train_fraction, rng)


def require_labels(graph: MultiplexGraph, train_fraction: float) -> None:
    """Raise DataFormatError unless ``graph`` has node labels to classify, and
    ConfigError unless ``train_fraction`` leaves some of them to test on."""
    if graph.labels is None:
        raise DataFormatError("classification needs node labels")
    _check_split(_single_label_array(graph.labels), graph.num_nodes, train_fraction)


def classification_metrics(z, labels, train_fraction, rng) -> dict:
    sets = _as_label_sets(labels)
    num_classes = max(max(s) for s in sets if s) + 1
    multilabel = _single_label_array(labels) is None
    train_idx, test_idx = stratified_split(labels, train_fraction, rng)
    clf = logistic_fit(
        z[train_idx], [sets[i] for i in train_idx], num_classes, multilabel
    )
    predictions = classify(clf, z[test_idx])
    truth = [sets[i] for i in test_idx]
    macro, micro = f1_scores(predictions, truth, num_classes)
    return {
        "accuracy": accuracy(predictions, truth),
        "f1_macro": macro,
        "f1_micro": micro,
    }


ABLATION_VARIANTS = ("full", "no_hierarchy", "uniform_weights")


def run_ablations(
    graph: MultiplexGraph,
    hmge_config: mdl.HmgeConfig,
    train_config: TrainConfig,
    *,
    ratio: float = 0.1,
    train_fraction: float = 0.1,
) -> list[dict]:
    """Full model vs no-hidden-layer vs frozen-uniform combination weights.

    Each variant is trained separately for the link and classification
    tasks; the report has one row per variant with all four metrics. One
    link split, seeded by the run seed as in ``evaluate_link_prediction``,
    serves every variant.
    """
    require_labels(graph, train_fraction)
    split = split_links(graph, ratio, np.random.default_rng(train_config.rng_seed))
    rows = []
    for variant in ABLATION_VARIANTS:
        if variant == "no_hierarchy":
            config = mdl.HmgeConfig(embed_size=hmge_config.embed_size, num_layers=0)
            train_alpha = True
        else:
            config = hmge_config
            train_alpha = variant != "uniform_weights"
        link = _link_metrics(split, config, train_config, train_alpha)
        cls = evaluate_classification(
            graph, config, train_config, train_fraction, train_alpha=train_alpha
        )
        rows.append(
            {
                "model": variant,
                "auc": link["auc"],
                "ap": link["ap"],
                "f1_macro": cls["f1_macro"],
                "f1_micro": cls["f1_micro"],
            }
        )
    return rows
