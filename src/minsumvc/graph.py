"""Weighted multigraphs and sum-vertex-cover evaluation.

A graph is undirected, has vertices 0..n-1, strictly positive edge weights,
no self-loops, and may contain parallel edges (kept distinct, never merged
implicitly).

An ordering sigma visits one vertex per step, steps numbered from 1.  An edge
is covered the first time one of its endpoints is visited, and its cover time
is that step number.  The sum-vertex-cover value of an ordering is

    svc(sigma) = sum_e w_e * cover_time(sigma, e)

which equals the sum over t = 0..n-1 of the total weight still uncovered
after the first t visits.  Both computations are implemented; tests hold
them against each other.

Text format (LF line endings, 0-based vertex ids)::

    msvc-graph 1
    <n> <m>
    <u> <v> <w>     (m lines)

The record reader and writer in this module serve all four text
formats (graph, unique games, labels, hardness config): blank lines after
the header are skipped, row counts must match exactly, and errors name the
line of the file.
"""

from __future__ import annotations

import io
import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

GRAPH_MAGIC = "msvc-graph 1"

# Exhaustive subset enumeration refuses above this many subsets.
SUBSET_BUDGET = 10**7

# Bitmask tables are only built while 2^n stays modest.
_TABLE_MAX_BITS = 24

# Above this, min_subset_density prefers plain subset enumeration to a
# full 2^n table.
_DENSITY_BITMASK_BITS = 22


class GraphFormatError(ValueError):
    """A graph/instance file does not match its documented text format."""


def _first_problem(bad):
    """(row, reason) for the first row flagged in a {reason: row mask} dict, or None."""
    first = {reason: int(np.argmax(mask)) for reason, mask in bad.items() if mask.any()}
    if not first:
        return None
    reason = min(first, key=first.get)
    return first[reason], reason


def _edge_problem(n, u, v, w):
    """(row, reason) for the first edge that breaks the graph invariants, or None."""
    return _first_problem({
        "vertex id out of range": (u < 0) | (u >= n) | (v < 0) | (v >= n),
        "self-loop": u == v,
        "weight must be positive and finite": ~(np.isfinite(w) & (w > 0.0)),
    })


class WeightedGraph:
    """Undirected weighted multigraph without self-loops."""

    __slots__ = ("n", "_u", "_v", "_w")

    def __init__(self, n, edges):
        self._assign(n, [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges])

    @classmethod
    def from_arrays(cls, n, u, v, w):
        g = cls.__new__(cls)
        g._assign(n, u, v, w)
        return g

    def _assign(self, n, u, v, w):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = int(n)
        self._u = np.asarray(u, dtype=np.int64)
        self._v = np.asarray(v, dtype=np.int64)
        self._w = np.asarray(w, dtype=np.float64)
        problem = _edge_problem(self.n, self._u, self._v, self._w)
        if problem is not None:
            raise ValueError(f"edge {problem[0]}: {problem[1]}")

    @property
    def m(self):
        return int(self._u.size)

    @property
    def edges(self):
        return [
            (int(a), int(b), float(c))
            for a, b, c in zip(self._u, self._v, self._w)
        ]

    def edge_arrays(self):
        """Return (u, v, w) as read-only views of the internal arrays."""
        return self._u, self._v, self._w

    def total_weight(self):
        return float(self._w.sum())

    def is_unit_weighted(self):
        return bool(np.all(self._w == 1.0))

    def weight_matrix(self):
        """Symmetric n x n matrix of aggregated pair weights."""
        a = np.zeros((self.n, self.n))
        np.add.at(a, (self._u, self._v), self._w)
        np.add.at(a, (self._v, self._u), self._w)
        return a

    def weighted_degrees(self):
        d = np.zeros(self.n)
        np.add.at(d, self._u, self._w)
        np.add.at(d, self._v, self._w)
        return d

    def degrees(self):
        d = np.zeros(self.n, dtype=np.int64)
        np.add.at(d, self._u, 1)
        np.add.at(d, self._v, 1)
        return d

    def aggregate_parallel(self):
        """Merge parallel edges, summing weights. Explicit, never implicit."""
        lo = np.minimum(self._u, self._v)
        hi = np.maximum(self._u, self._v)
        key = lo * self.n + hi
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        uniq, start = np.unique(key_s, return_index=True)
        sums = np.add.reduceat(self._w[order], start) if key_s.size else np.array([])
        return WeightedGraph.from_arrays(self.n, uniq // self.n, uniq % self.n, sums)

    def relabel(self, perm):
        """New graph with vertex i renamed to perm[i]."""
        p = np.asarray(perm, dtype=np.int64)
        if sorted(p.tolist()) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        return WeightedGraph.from_arrays(self.n, p[self._u], p[self._v], self._w.copy())

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._u, other._u)
            and np.array_equal(self._v, other._v)
            and np.array_equal(self._w, other._w)
        )

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


class Ordering:
    """A permutation of 0..n-1; position 0 is visited first (step 1)."""

    __slots__ = ("perm", "_pos")

    def __init__(self, perm):
        p = tuple(int(x) for x in perm)
        if sorted(p) != list(range(len(p))):
            raise ValueError("not a permutation of 0..n-1")
        self.perm = p
        self._pos = None

    def __len__(self):
        return len(self.perm)

    def __iter__(self):
        return iter(self.perm)

    def positions(self):
        """positions()[v] = 0-based step at which v is visited."""
        if self._pos is None:
            pos = np.empty(len(self.perm), dtype=np.int64)
            pos[np.asarray(self.perm, dtype=np.int64)] = np.arange(len(self.perm))
            self._pos = pos
        return self._pos

    def __repr__(self):
        return f"Ordering({list(self.perm)})"


def cover_times(graph, ordering):
    """1-indexed cover time per edge, aligned with graph.edges order."""
    if len(ordering) != graph.n:
        raise ValueError("ordering length does not match vertex count")
    pos = ordering.positions()
    u, v, _ = graph.edge_arrays()
    return np.minimum(pos[u], pos[v]) + 1


def svc_value(graph, ordering):
    """Sum over edges of weight times cover time."""
    _, _, w = graph.edge_arrays()
    return float(np.dot(w, cover_times(graph, ordering)))


def svc_value_suffix(graph, ordering):
    """Same value accumulated as uncovered weight after each prefix.

    Kept as an independent code path; tests compare it with svc_value.
    """
    if len(ordering) != graph.n:
        raise ValueError("ordering length does not match vertex count")
    u, v, w = graph.edge_arrays()
    visited = np.zeros(graph.n, dtype=bool)
    total = 0.0
    for t, vertex in enumerate(ordering):
        uncovered = ~(visited[u] | visited[v])
        total += float(w[uncovered].sum())
        visited[vertex] = True
    return total


def inside_weight_table(graph):
    """table[mask] = total weight of edges with both endpoints in mask.

    Size 2^n; refuses for n above the bitmask limit.
    """
    n = graph.n
    if n > _TABLE_MAX_BITS:
        raise ValueError(f"bitmask table limited to n <= {_TABLE_MAX_BITS}")
    a = graph.weight_matrix()
    table = np.zeros(1 << n)
    for v in range(n - 1, -1, -1):
        rest = np.arange(0, 1 << (n - v - 1), dtype=np.int64) << (v + 1)
        cross = np.zeros(rest.size)
        for u in range(v + 1, n):
            if a[v, u] != 0.0:
                cross += a[v, u] * ((rest >> u) & 1)
        table[rest | (1 << v)] = table[rest] + cross
    return table


@dataclass
class SubsetDensityReport:
    k: int
    r: float
    min_density: float
    witness: tuple
    mode: str
    exact: bool


def min_subset_density(graph, k, mode="exhaustive", trials=10000, seed=0):
    """Minimum over k-subsets S of w(S,S) / w(V,V).

    mode="exhaustive" enumerates every subset (budget-guarded); the reported
    minimum is exact.  mode="sampled" draws seeded random subsets and reports
    an upper estimate of the true minimum, marked exact=False.
    """
    n = graph.n
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    total = graph.total_weight()
    if total <= 0.0:
        raise ValueError("graph has no edges")
    if k == 0:
        return SubsetDensityReport(0, 0.0, 0.0, (), "exhaustive", True)

    if mode == "exhaustive":
        if math.comb(n, k) > SUBSET_BUDGET:
            raise ValueError(
                f"C({n},{k}) exceeds the exhaustive budget {SUBSET_BUDGET}; "
                "use mode='sampled'"
            )
        if n <= _DENSITY_BITMASK_BITS:
            table = inside_weight_table(graph)
            masks = np.arange(1 << n, dtype=np.int64)
            sel = masks[np.bitwise_count(masks) == k]
            vals = table[sel]
            i = int(np.argmin(vals))
            best_mask = int(sel[i])
            witness = tuple(b for b in range(n) if best_mask >> b & 1)
            best = float(vals[i])
        else:
            a = graph.weight_matrix()
            best = math.inf
            witness = None
            for comb in combinations(range(n), k):
                idx = np.asarray(comb)
                val = float(a[np.ix_(idx, idx)].sum()) / 2.0
                if val < best:
                    best, witness = val, comb
        return SubsetDensityReport(k, k / n, best / total, tuple(witness), "exhaustive", True)

    if mode == "sampled":
        rng = np.random.default_rng(seed)
        a = graph.weight_matrix()
        best = math.inf
        witness = None
        for _ in range(trials):
            idx = rng.permutation(n)[:k]
            val = float(a[np.ix_(idx, idx)].sum()) / 2.0
            if val < best:
                best, witness = val, tuple(sorted(int(x) for x in idx))
        return SubsetDensityReport(k, k / n, best / total, witness, "sampled", False)

    raise ValueError(f"unknown mode {mode!r}")


def _format_weight(w):
    if w == int(w) and abs(w) < 1e15:
        return str(int(w))
    return repr(w)


class _RecordFormat(NamedTuple):
    """A text format: magic line, header of nonnegative integers, rows.

    A table's header ends with its row count and columns is its row dtype.
    With columns None, header field k + 1 is the length of integer row k.
    build(header, fields) makes the object; check(header, fields) may name
    a bad row as (row, reason); float_text writes float fields.
    """

    magic: str
    header: tuple
    columns: np.dtype | None
    error: type
    build: Callable
    check: Callable | None = None
    float_text: Callable = repr


def _read_records(text, fmt):
    """Parse text in format fmt and return fmt.build(header, fields).

    Line 1 is the magic line and line 2 the header.  Blank lines after them
    are skipped and the row count must match exactly.  Numbers are read by
    np.loadtxt.  Errors are fmt.error; those about a line name it.
    """

    def parse(chunk, dtype):
        data = io.BytesIO(chunk.encode())
        return np.loadtxt(data, dtype=dtype, comments=None, ndmin=1, encoding="utf-8")

    lines = text.split("\n", 2)
    if lines[0].strip() != fmt.magic:
        raise fmt.error(f"line 1: expected header {fmt.magic!r}")
    head = lines[1] if len(lines) > 1 else ""
    try:
        header = parse(head, np.int64).tolist() if head.split() else []
    except ValueError:
        header = []
    if len(header) != len(fmt.header) or min(header) < 0:
        raise fmt.error(f"line 2: expected {' '.join(fmt.header)!r}, nonnegative integers")
    body = lines[2] if len(lines) > 2 else ""

    def numbered():
        """(line number, line) of each nonblank line after the header."""
        return [(i, ln) for i, ln in enumerate(body.split("\n"), start=3) if ln.strip()]

    def fail(row, reason):
        """Raise for the given row; a row past the last names the line after the text."""
        found, last = numbered(), body.split("\n")
        number = found[row][0] if row < len(found) else 2 + len(last) + (last[-1] != "")
        raise fmt.error(f"line {number}: {reason}")

    if fmt.columns is None:
        count, fields = len(header) - 1, []
        for row, ((_, line), size) in enumerate(zip(numbered(), header[1:])):
            try:
                fields.append(parse(line, np.int64))
            except ValueError:
                fail(row, f"expected {size} integers")
            if fields[-1].size != size:
                fail(row, f"expected {size} integers")
        found = len(numbered())
    else:
        count = header[-1]
        try:
            table = parse(body, fmt.columns) if body and not body.isspace() else np.empty(0, fmt.columns)
        except ValueError:
            # loadtxt's messages do not name the line: bisect for the
            # first row it rejects, parsing about as much text again
            rows = [ln for _, ln in numbered()]
            lo, hi = 0, len(rows)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    parse("\n".join(rows[lo:mid]), fmt.columns)
                    lo = mid
                except ValueError:
                    hi = mid
            if lo < count:
                fail(lo, f"expected {' '.join(fmt.columns.names)!r}")
            fail(count, f"expected {count} rows")
        found = table.size
        fields = [np.ascontiguousarray(table[name]) for name in fmt.columns.names]
    if found != count:
        fail(count, f"expected {count} rows")
    problem = fmt.check and fmt.check(header, fields)
    if problem:
        fail(*problem)
    try:
        return fmt.build(header, fields)
    except ValueError as exc:
        raise fmt.error(str(exc)) from None


def _write_records(fmt, header, fields):
    """The text of format fmt; fields are a table's columns or the rows.

    Each distinct value of a field is formatted once.
    """
    texts = []
    for values in map(np.asarray, fields):
        to_text = str if values.dtype.kind == "i" else fmt.float_text
        # distinct by bit pattern, so that 0.0 and -0.0 keep their own text
        keys, index = np.unique(values.view(np.uint64), return_inverse=True)
        names = [to_text(x) for x in keys.view(values.dtype).tolist()]
        texts.append(np.array(names, dtype=object)[index])
    rows = zip(*texts) if fmt.columns is not None else texts
    return "\n".join([fmt.magic, " ".join(map(str, header)), *map(" ".join, rows)]) + "\n"


_GRAPH_FORMAT = _RecordFormat(
    GRAPH_MAGIC,
    ("n", "m"),
    np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)]),
    GraphFormatError,
    build=lambda header, fields: WeightedGraph.from_arrays(header[0], *fields),
    check=lambda header, fields: _edge_problem(header[0], *fields),
    float_text=_format_weight,
)


def write_graph(graph):
    """Serialize to the documented text format."""
    return _write_records(_GRAPH_FORMAT, (graph.n, graph.m), graph.edge_arrays())


def read_graph(text):
    """Parse the documented text format; errors name the 1-based line."""
    return _read_records(text, _GRAPH_FORMAT)


def load_graph(path):
    with open(path, "r", encoding="ascii") as fh:
        return read_graph(fh.read())


def save_graph(graph, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(write_graph(graph))


# ---------------------------------------------------------------------------
# small graph factories, used by tests and the counterexample construction


def complete_graph(n, weight=1.0):
    return WeightedGraph(n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves, weight=1.0):
    return WeightedGraph(leaves + 1, [(0, i, weight) for i in range(1, leaves + 1)])


def path_graph(n, weight=1.0):
    return WeightedGraph(n, [(i, i + 1, weight) for i in range(n - 1)])


def cycle_graph(n, weight=1.0):
    return WeightedGraph(n, [(i, (i + 1) % n, weight) for i in range(n)])


def complete_bipartite(a, b, weight=1.0):
    return WeightedGraph(a + b, [(i, a + j, weight) for i in range(a) for j in range(b)])


def disjoint_union(graphs):
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset, w) for u, v, w in g.edges)
        offset += g.n
    return WeightedGraph(offset, edges)


def random_weighted_graph(n, p, seed, unit_weights=False):
    """G(n, p) with unit or Uniform(0.1, 2) weights, at least one edge."""
    if n < 2:
        raise ValueError(f"need n >= 2 for at least one edge, got {n}")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = 1.0 if unit_weights else float(rng.uniform(0.1, 2.0))
                edges.append((i, j, w))
    if not edges:
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.append((int(i), int(j), 1.0))
    return WeightedGraph(n, edges)


def random_regular_graph(n, d, seed, max_tries=1000):
    """Simple d-regular graph by the pairing model with rejection."""
    if n * d % 2 != 0:
        raise ValueError("n*d must be even")
    if d >= n:
        raise ValueError("need d < n")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_tries):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        key = lo * n + hi
        if np.unique(key).size != key.size:
            continue
        return WeightedGraph(n, [(int(a), int(b), 1.0) for a, b in zip(lo, hi)])
    raise RuntimeError("pairing model failed to produce a simple graph")
