"""Multiplex graph data model: CSR adjacency storage, symmetric normalization,
and the on-disk dataset directory format.

A multiplex graph is a set of D adjacency matrices (dimensions) over one node
set with a shared feature matrix. Its dimensions are undirected: every one
is exactly symmetric, pattern and values, stores no diagonal entry and no
negative value. ``MultiplexGraph`` refuses a dimension that breaks this
wherever a graph is made (load, synth, a link split, code), so nothing
downstream checks it again. Loaded dimensions hold 1.0 at every edge;
matrices produced later by trainable combinations hold arbitrary
non-negative reals in the same CSR container.
"""

from __future__ import annotations

import io
import itertools
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataFormatError

META_FILE = "meta.json"
FEATURES_FILE = "features.csv"
LABELS_FILE = "labels.csv"


def index_dtype(*sizes: int) -> type:
    """np.int32 where it holds every one of ``sizes`` (node and entry
    counts), else np.int64: the index type scipy keeps, so the CSR matrices
    built on index arrays of it share them instead of copying them. Index
    arithmetic that can leave the range, such as ``indices * n``, widens
    first.
    """
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


def _frozen_array(a: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    if out is a:
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SparseAdjacency:
    """Square CSR matrix: per-row sorted column indices, no duplicate entries.

    Immutable after construction; the backing arrays are marked read-only so
    instances can be shared freely across passes and threads. ``indptr`` and
    ``indices`` are of ``index_dtype(num_nodes, nnz)``.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = self.num_nodes
        if n < 1:
            raise DataFormatError(f"adjacency needs at least one node, got {n}")
        # Checked as int64, so no out-of-range index wraps into range.
        indptr, indices = (np.asarray(a, dtype=np.int64) for a in (self.indptr, self.indices))
        values = _frozen_array(self.values, np.float64)
        object.__setattr__(self, "values", values)
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise DataFormatError("malformed CSR indptr")
        if np.any(np.diff(indptr) < 0):
            raise DataFormatError("CSR indptr must be non-decreasing")
        if indices.shape != values.shape:
            raise DataFormatError("CSR indices and values length mismatch")
        if indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise DataFormatError("CSR column index out of range")
            # Sorted strictly increasing inside each row <=> sorted and no duplicates.
            row_start = np.zeros(indices.size, dtype=bool)
            boundaries = indptr[1:-1]
            row_start[boundaries[boundaries < indices.size]] = True
            interior = np.diff(indices) > 0
            if not np.all(interior | row_start[1:]):
                raise DataFormatError("CSR columns must be sorted and unique per row")
        if not np.all(np.isfinite(values)):
            raise DataFormatError("adjacency values must be finite")
        index = index_dtype(n, indices.shape[0])
        object.__setattr__(self, "indptr", _frozen_array(self.indptr, index))
        object.__setattr__(self, "indices", _frozen_array(self.indices, index))

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def num_edges(self) -> int:
        """Undirected edge count for a symmetric zero-diagonal matrix."""
        return self.nnz // 2

    @classmethod
    def from_undirected_edges(cls, num_nodes: int, u, v) -> "SparseAdjacency":
        """Build a binary symmetric adjacency from undirected edge endpoints.

        Both orientations are stored; duplicate edges collapse to a single
        entry. Self-loops are rejected (normalization adds them explicitly).
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise DataFormatError("edge endpoint arrays differ in length")
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= num_nodes):
            raise DataFormatError(
                f"edge endpoint out of range for {num_nodes} nodes"
            )
        if np.any(u == v):
            raise DataFormatError("self-loops are not allowed in input graphs")
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        mat = sp.csr_matrix(
            (np.ones(rows.size, dtype=np.float64), (rows, cols)),
            shape=(num_nodes, num_nodes),
        )
        mat.sum_duplicates()
        mat.sort_indices()
        mat.data[:] = 1.0
        return cls(num_nodes, mat.indptr, mat.indices, mat.data)

    def to_scipy(self) -> sp.csr_matrix:
        n = self.num_nodes
        return sp.csr_matrix((self.values, self.indices, self.indptr), shape=(n, n))

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.to_scipy().sum(axis=1)).ravel()

    def row_indices(self) -> np.ndarray:
        """Row index of every stored entry, in CSR order."""
        return np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
        )

    def is_symmetric(self) -> bool:
        """Pattern and values equal the transpose's, explicit zeros included."""
        t = self.to_scipy().T.tocsr()  # sorted, explicit zeros kept
        return all(np.array_equal(a, b) for a, b in (
            (t.indptr, self.indptr), (t.indices, self.indices), (t.data, self.values)))

    def has_zero_diagonal(self) -> bool:
        """No diagonal entry is stored, not even an explicit zero."""
        return not np.any(self.row_indices() == self.indices)

    def is_binary(self) -> bool:
        """Every stored value is 1.0 (no explicit zero): each entry is an edge."""
        return bool(np.all(self.values == 1.0))

    def undirected_pairs(self) -> np.ndarray:
        """All stored (u, v) pairs with u < v, as an array of shape (E, 2)."""
        rows = self.row_indices()
        mask = rows < self.indices
        return np.stack([rows[mask], self.indices[mask]], axis=1)

    def keep_pairs(self, keep: np.ndarray) -> "SparseAdjacency":
        """The adjacency holding the undirected pairs where ``keep`` is True.

        ``keep`` is a boolean mask aligned with ``undirected_pairs()``; both
        stored orientations of a pair go or stay together, with their values.
        The matrix must be symmetric; diagonal entries are dropped.
        """
        upper = self.row_indices() < self.indices
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (np.count_nonzero(upper),):
            raise ValueError(f"keep has shape {keep.shape}, expected one flag per pair")
        mirror = mirror_positions(self.num_nodes, self.indptr, self.indices)
        upper_keep = np.zeros(self.nnz, dtype=bool)
        upper_keep[upper] = keep
        entry_keep = upper_keep | upper_keep[mirror]
        kept_before = np.concatenate([[0], np.cumsum(entry_keep)])
        return _trusted_adjacency(
            self.num_nodes, kept_before[self.indptr], self.indices[entry_keep],
            self.values[entry_keep],
        )

    def equals(self, other: "SparseAdjacency") -> bool:
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )


def mirror_positions(num_nodes: int, indptr, indices) -> np.ndarray:
    """Data index of each entry's mirror in a structurally symmetric CSR pattern.

    The transpose in CSR order holds each entry's position: a symmetric
    pattern is its own transpose, so those positions map every entry to its
    mirror. Raises DataFormatError on a pattern that is not symmetric.
    """
    mirror = sp.csr_matrix(
        (np.arange(indices.shape[0], dtype=np.int64), indices, indptr),
        shape=(num_nodes, num_nodes),
    ).tocsc()
    if not (np.array_equal(mirror.indptr, indptr) and np.array_equal(mirror.indices, indices)):
        raise DataFormatError("CSR pattern is not structurally symmetric")
    return mirror.data


def _trusted_adjacency(num_nodes: int, indptr, indices, values) -> SparseAdjacency:
    """A SparseAdjacency from arrays that this module built valid and that
    no caller holds: they are converted and frozen but not checked or copied.
    """
    adj = object.__new__(SparseAdjacency)
    object.__setattr__(adj, "num_nodes", num_nodes)
    index = index_dtype(num_nodes, len(indices))
    for name, a, dtype in (("indptr", indptr, index), ("indices", indices, index),
                           ("values", values, np.float64)):
        out = np.ascontiguousarray(a, dtype=dtype)
        out.setflags(write=False)
        object.__setattr__(adj, name, out)
    return adj


def normalize_adjacency(adj: SparseAdjacency) -> SparseAdjacency:
    """D^{-1/2} (A + I) D^{-1/2} with D the degree matrix of A + I.

    Every row of A + I has a positive sum because of the self-loop, so the
    operation is total on valid inputs. Values must be non-negative, which
    a graph's dimensions are by its contract; this takes bare adjacencies
    too, so it checks. A SparseAdjacency is finite by construction. The
    result is symmetric for symmetric A, entry (i, i) equals 1/deg(i), and
    all stored values lie in (0, 1].
    """
    if adj.values.size and adj.values.min() < 0.0:
        raise DataFormatError("cannot normalize: negative adjacency value")
    n = adj.num_nodes
    ahat = (adj.to_scipy() + sp.identity(n, dtype=np.float64, format="csr")).tocsr()
    ahat.sort_indices()
    deg = np.asarray(ahat.sum(axis=1)).ravel()
    dinv = 1.0 / np.sqrt(deg)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(ahat.indptr))
    # dinv[r] * dinv[c] first: commutative, so the result is exactly symmetric.
    vals = ahat.data * (dinv[rows] * dinv[ahat.indices])
    return _trusted_adjacency(n, ahat.indptr, ahat.indices, vals)


def _checked_dimensions(num_nodes: int, dimensions) -> tuple[SparseAdjacency, ...]:
    """The graph's dimensions, each over ``num_nodes`` nodes, loop-free,
    exactly symmetric and non-negative; DataFormatError names the first
    that is not."""
    dims = tuple(dimensions)
    if len(dims) < 1:
        raise DataFormatError("graph needs at least one dimension")
    for k, d in enumerate(dims):
        if d.num_nodes != num_nodes:
            raise DataFormatError(f"dimension {k} has {d.num_nodes} nodes, expected {num_nodes}")
        if not d.has_zero_diagonal():
            raise DataFormatError(f"dimension {k} has a self-loop")
        if not d.is_symmetric():
            raise DataFormatError(f"dimension {k} is not symmetric")
        if d.values.size and d.values.min() < 0.0:
            raise DataFormatError(f"dimension {k} has a negative value")
    return dims


def _checked_features(num_nodes: int, features) -> np.ndarray:
    feats = _frozen_array(np.atleast_2d(features), np.float64)
    if feats.shape[0] != num_nodes or feats.shape[1] < 1:
        raise DataFormatError(
            f"feature matrix shape {feats.shape} does not match {num_nodes} nodes"
        )
    if not np.all(np.isfinite(feats)):
        raise DataFormatError("features must be finite")
    return feats


@dataclass(frozen=True)
class MultiplexGraph:
    """Node set shared across D adjacency dimensions plus one feature matrix.

    Every dimension is exactly symmetric, non-negative and stores no
    diagonal entry (``_checked_dimensions``). ``labels`` is optional; each
    node carries a tuple of one or more non-negative class ids so that
    multilabel datasets fit the same container (single-label nodes hold a
    1-tuple).
    """

    num_nodes: int
    dimensions: tuple[SparseAdjacency, ...]
    features: np.ndarray
    labels: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.num_nodes < 1:
            raise DataFormatError("graph needs at least one node")
        object.__setattr__(self, "dimensions", _checked_dimensions(self.num_nodes, self.dimensions))
        object.__setattr__(self, "features", _checked_features(self.num_nodes, self.features))
        if self.labels is not None:
            labels = tuple(tuple(map(int, row)) for row in self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.num_nodes:
                raise DataFormatError("labels length does not match node count")
            if not all(row and min(row) >= 0 for row in labels):
                raise DataFormatError("every label row needs one or more non-negative class ids")

    @property
    def num_dims(self) -> int:
        return len(self.dimensions)

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    def with_features(self, features: np.ndarray) -> "MultiplexGraph":
        """New graph sharing all adjacency structure with replaced features;
        only those are checked, the rest is valid already."""
        return self._replace(features=_checked_features(self.num_nodes, features))

    def with_dimensions(self, dimensions) -> "MultiplexGraph":
        """New graph sharing features and labels with replaced dimensions;
        only those are checked, the rest is valid already."""
        return self._replace(dimensions=_checked_dimensions(self.num_nodes, dimensions))

    def _replace(self, **fields) -> "MultiplexGraph":
        """This graph with ``fields`` replaced, bypassing ``__post_init__``."""
        graph = object.__new__(MultiplexGraph)
        graph.__dict__.update(self.__dict__, **fields)
        return graph


def save_multiplex(graph: MultiplexGraph, path) -> None:
    """Write a graph as a dataset directory (see load_multiplex for layout).

    The edge-list format is unweighted: each undirected edge is written
    once and reads back as 1.0, so a dimension that stores any other value
    (an explicit zero too) raises DataFormatError before any file is
    written. The graph's own checks cover symmetry, loops and labels.
    """
    for k, d in enumerate(graph.dimensions):
        if not d.is_binary():
            raise DataFormatError(f"dimension {k} stores a value other than 1.0")
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
        meta = {
            "num_nodes": graph.num_nodes,
            "num_dims": graph.num_dims,
            "num_features": graph.num_features,
        }
        (root / META_FILE).write_text(json.dumps(meta, indent=2) + "\n")
        for k, dim in enumerate(graph.dimensions):
            write_table(root / f"dim_{k}.tsv", dim.undirected_pairs(), "%d", "\t")
        # %r is repr, which round-trips exactly through float(), keeping
        # save/load bit-equal.
        write_table(root / FEATURES_FILE, graph.features, "%r", ",")
        if graph.labels is not None:
            with open(root / LABELS_FILE, "w") as out:
                # Rows may differ in length (multilabel): one line pattern per length.
                lines = {k: ";".join(["%d"] * k) + "\n" for k in set(map(len, graph.labels))}
                for lo in range(0, len(graph.labels), 1 << 16):
                    rows = graph.labels[lo:lo + (1 << 16)]
                    out.write("".join(map(lines.__getitem__, map(len, rows)))
                              % tuple(itertools.chain.from_iterable(rows)))
    except OSError as exc:
        raise DataFormatError(f"cannot write dataset to {root}: {exc}") from exc


def write_table(path, table: np.ndarray, field: str, sep: str) -> None:
    """Write the rows of a 2-D array as lines of ``field``-formatted values
    joined by ``sep``.

    Python ints and floats from tolist() format several times faster than
    numpy scalars, with the same text. One %-format per 2^17 values beats a
    format or a join per line and bounds the text held at once.
    """
    rows, width = table.shape
    line = sep.join([field] * width) + "\n"
    step = max(1, (1 << 17) // width)
    with open(path, "w") as out:
        for lo in range(0, rows, step):
            chunk = table[lo:lo + step]
            out.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def _decode(data: bytes, name: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # a binary file, say
        raise DataFormatError(f"{name} is not UTF-8 text: {exc}") from exc


def _read_text(path: Path) -> str:
    return _decode(path.read_bytes(), path.name)


# One-character ASCII stand-ins for non-ASCII text, so that a file parses
# as bytes with its lines and fields where str.splitlines(), str.strip(),
# int() and float() put them: the non-ASCII line breaks become \x1e (a
# break too), the non-ASCII whitespace a space. Every other non-ASCII
# character becomes "?", which no number holds.
_ASCII_STAND_INS = str.maketrans({
    **dict.fromkeys("\x85\u2028\u2029", "\x1e"),
    **dict.fromkeys("\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
                    "\u2008\u2009\u200a\u202f\u205f\u3000", " "),
})


def _read_ascii(path: Path) -> bytes:
    """A UTF-8 text file as ASCII bytes, through the stand-ins above."""
    data = path.read_bytes()
    if data.isascii():
        return data
    return _decode(data, path.name).translate(_ASCII_STAND_INS).encode("ascii", "replace")


# int() also takes "1_0"; a node id (and a class id) is ASCII digits with
# an optional sign.
_NODE_ID = re.compile(r" *[+-]?[0-9]+ *")
# The bytes of the tables that save_multiplex writes, and CR for CRLF
# files: a table of only these is read by np.loadtxt, any other line by line.
_EDGE_BYTES = b"0123456789+- \t\r\n"
_FEATURE_BYTES = _EDGE_BYTES + b".,eEinfa"


def _loadtxt(data: bytes, alphabet: bytes, delimiter: str, dtype, width: int) -> np.ndarray | None:
    """The rows of an ASCII table ``width`` values wide, read by np.loadtxt,
    or None where the table holds a byte outside ``alphabet``, the reader
    fails or the rows are of another width.

    Over these alphabets np.loadtxt takes a subset of what the line readers
    below take, and reads it as they do: lines end at LF, CRLF or CR, empty
    ones are skipped, and spaces and tabs around a value are dropped. It
    decodes as it reads, so it holds O(chunk) temporaries beside the rows.
    """
    if data.translate(None, alphabet):
        return None
    if not data.strip():  # blank lines only, on which np.loadtxt warns
        return np.empty((0, width), dtype=dtype)
    try:
        rows = np.loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="ascii"),
                          delimiter=delimiter, comments=None, ndmin=2, dtype=dtype)
    except ValueError:
        return None
    return rows if rows.shape[1] == width else None


def _edge_lines(text: str, name: str, num_nodes: int) -> np.ndarray:
    """(E, 2) endpoints of an edge list, one stripped line at a time; the
    first bad line raises DataFormatError naming it."""
    pairs = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"{name}:{ln}: expected 'u<TAB>v'")
        if not all(map(_NODE_ID.fullmatch, parts)):
            raise DataFormatError(f"{name}:{ln}: non-integer node id")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise DataFormatError(f"{name}:{ln}: node index out of range [0, {num_nodes})")
        if u == v:
            raise DataFormatError(f"{name}:{ln}: self-loop not allowed")
        pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _feature_lines(text: str, num_nodes: int, num_features: int) -> np.ndarray:
    """The (N, F) rows of a features.csv, one line at a time; the first bad
    line raises DataFormatError naming it."""
    rows = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:  # float() takes "1_0", the grammar does not
            row = [float(field) for field in line.replace("_", "?").split(",")]
        except ValueError as exc:
            raise DataFormatError(f"{FEATURES_FILE}:{ln}: bad float") from exc
        if len(row) != num_features:
            raise DataFormatError(
                f"{FEATURES_FILE}:{ln}: expected {num_features} values, got {len(row)}"
            )
        rows.append(row)
    if len(rows) != num_nodes:
        raise DataFormatError(f"{FEATURES_FILE}: expected {num_nodes} rows, got {len(rows)}")
    return np.array(rows, dtype=np.float64)


def _read_labels(path: Path, num_nodes: int) -> tuple[tuple[int, ...], ...]:
    label_rows = []
    for ln, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            raise DataFormatError(f"{LABELS_FILE}:{ln}: empty label row")
        fields = line.split(";")
        if not all(map(_NODE_ID.fullmatch, fields)) or min(row := tuple(map(int, fields))) < 0:
            raise DataFormatError(f"{LABELS_FILE}:{ln}: bad class id")
        label_rows.append(row)
    if len(label_rows) != num_nodes:
        raise DataFormatError(
            f"{LABELS_FILE}: expected {num_nodes} rows, got {len(label_rows)}"
        )
    return tuple(label_rows)


def load_multiplex(path) -> MultiplexGraph:
    """Load a dataset directory.

    Layout: ``meta.json`` with num_nodes/num_dims/num_features;
    ``dim_<k>.tsv`` (k = 0..D-1) with one ``u<TAB>v`` edge per line (0-based
    indices, symmetrized on load); ``features.csv`` with N rows of F
    comma-separated values; optional ``labels.csv`` with semicolon-separated
    class ids per node. Every file is UTF-8 text (DataFormatError otherwise);
    the README gives the line grammar.

    An edge list or feature file that holds only the bytes save_multiplex
    writes (and CR) is read by np.loadtxt in one pass. Any other file, and
    one that this pass reads into an id out of range, a self-loop or the
    wrong row count, is read line by line; those readers define the
    grammar and name the first bad line. The feature and label rows are
    counted before any dimension is built, so a num_nodes that the files
    do not hold fails before O(N) memory per dimension is spent on it.
    """
    root = Path(path)
    meta_path = root / META_FILE
    if not meta_path.is_file():
        raise DataFormatError(f"missing {META_FILE} in {root}")
    try:
        meta = json.loads(_read_text(meta_path))
        n, num_dims, num_features = (meta[k] for k in ("num_nodes", "num_dims", "num_features"))
        # type(), not isinstance(): a float, a string or a bool is no size.
        if not all(type(size) is int for size in (n, num_dims, num_features)):
            raise TypeError("sizes must be JSON integers")
    except (ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed {META_FILE}: {exc}") from exc
    if n < 1 or num_dims < 1 or num_features < 1:
        raise DataFormatError(f"non-positive sizes in {META_FILE}")

    dim_paths = [root / f"dim_{k}.tsv" for k in range(num_dims)]
    for k, dim_path in enumerate(dim_paths):
        if not dim_path.is_file():
            raise DataFormatError(
                f"missing dim_{k}.tsv: header declares {num_dims} dimensions"
            )
    extra = root / f"dim_{num_dims}.tsv"
    if extra.is_file():
        raise DataFormatError(
            f"found {extra.name} but header declares only {num_dims} dimensions"
        )

    feat_path = root / FEATURES_FILE
    if not feat_path.is_file():
        raise DataFormatError(f"missing {FEATURES_FILE} in {root}")
    data = _read_ascii(feat_path)
    features = _loadtxt(data, _FEATURE_BYTES, ",", np.float64, num_features)
    if features is None or features.shape[0] != n:
        features = _feature_lines(data.decode("ascii"), n, num_features)

    label_path = root / LABELS_FILE
    labels = _read_labels(label_path, n) if label_path.is_file() else None

    dims = []
    for dim_path in dim_paths:
        data = _read_ascii(dim_path)
        pairs = _loadtxt(data, _EDGE_BYTES, "\t", np.int64, 2)
        if (pairs is None or np.any(pairs[:, 0] == pairs[:, 1])
                or pairs.size and (pairs.min() < 0 or pairs.max() >= n)):
            pairs = _edge_lines(data.decode("ascii"), dim_path.name, n)
        dims.append(SparseAdjacency.from_undirected_edges(n, pairs[:, 0], pairs[:, 1]))

    # The label rows are checked tuples of ints already, one per node.
    return MultiplexGraph(n, tuple(dims), features)._replace(labels=labels)
