"""Independent reference implementations that the test modules check against.

Not a test module (pytest collects only test_*.py); the tests import it by
name from this directory.
"""

import io
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from minsumvc import Ordering, SolveResult, WeightedGraph, inside_weight_table, svc_value

# Exhaustive subset enumeration refuses above this many subsets.
SUBSET_BUDGET = 10**7

# Above this, min_subset_density prefers plain subset enumeration to a
# full 2^n table.
_DENSITY_BITMASK_BITS = 22


def svc_value_suffix(graph, ordering):
    """svc value accumulated as the uncovered weight after each prefix."""
    if len(ordering) != graph.n:
        raise ValueError("ordering length does not match vertex count")
    u, v, w = graph.edge_arrays()
    visited = np.zeros(graph.n, dtype=bool)
    total = 0.0
    for vertex in ordering:
        uncovered = ~(visited[u] | visited[v])
        total += float(w[uncovered].sum())
        visited[vertex] = True
    return total


def aggregate_parallel(graph):
    """Merge parallel edges, summing weights."""
    u, v, w = graph.edge_arrays()
    n = graph.n
    key = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    uniq, start = np.unique(key_s, return_index=True)
    sums = np.add.reduceat(w[order], start) if key_s.size else np.array([])
    return WeightedGraph.from_arrays(n, uniq // n, uniq % n, sums)


def relabel(graph, perm):
    """New graph with vertex i renamed to perm[i]."""
    p = np.asarray(perm, dtype=np.int64)
    if sorted(p.tolist()) != list(range(graph.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    u, v, w = graph.edge_arrays()
    return WeightedGraph.from_arrays(graph.n, p[u], p[v], w.copy())


def msvc_random(graph, seed):
    """Seeded uniformly random ordering baseline."""
    rng = np.random.default_rng(seed)
    ordering = Ordering(tuple(int(x) for x in rng.permutation(graph.n)))
    return SolveResult(svc_value(graph, ordering), ordering, f"random({seed})")


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


def inside_weight_table_loop(graph):
    """The bit-test table build in float64, one pass per later vertex."""
    n = graph.n
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


def msvc_exact_dp_layered(graph):
    """The subset DP by popcount layers of whole masks, with a parent array: (value, perm).

    Each mask takes the first v, in ascending order, whose f(S minus v) is
    strictly lower than all before it.
    """
    n = graph.n
    size = 1 << n
    full = size - 1
    table = inside_weight_table(graph)
    f = np.full(size, np.inf)
    f[0] = 0.0
    parent = np.zeros(size, dtype=np.int8)
    pop = np.bitwise_count(np.arange(size, dtype=np.int32))
    for k in range(1, n + 1):
        masks = np.flatnonzero(pop == k)
        best = np.full(masks.size, np.inf)
        best_v = np.zeros(masks.size, dtype=np.int8)
        for v in range(n):
            # a mask without bit v reads a layer k + 1 superset, still inf
            cand = f[masks ^ (1 << v)]
            better = cand < best
            np.copyto(best, cand, where=better)
            np.copyto(best_v, v, where=better)
        f[masks] = table[masks ^ full] + best
        parent[masks] = best_v
    perm = [0] * n
    mask = full
    for pos in range(n - 1, -1, -1):
        perm[pos] = int(parent[mask])
        mask ^= 1 << perm[pos]
    return float(f[full] + table[full]), tuple(perm)


def max_kvc_loop(graph, k):
    """Max-k-VC by one gather per k-combination, in lexicographic order.

    A combination replaces the best so far when it covers over 1e-15 more.
    """
    a = graph.weight_matrix()
    row = a.sum(axis=1)
    best_val, best_set = -1.0, None
    for comb in combinations(range(graph.n), k):
        idx = np.asarray(comb)
        cov = float(row[idx].sum()) - float(a[np.ix_(idx, idx)].sum()) / 2.0
        if cov > best_val + 1e-15:
            best_val, best_set = cov, comb
    return tuple(best_set)


def max_kvc_masks(graph, k):
    """Max-k-VC by the first argmin of W(S^c, S^c) over all k-set masks, ascending."""
    n = graph.n
    table = inside_weight_table(graph)
    pop = np.bitwise_count(np.arange(1 << n, dtype=np.int32))
    masks = np.flatnonzero(pop == k)
    # covered(S) = total - W(S^c, S^c)
    best = int(masks[int(np.argmin(table[masks ^ ((1 << n) - 1)]))])
    return tuple(b for b in range(n) if best >> b & 1)


def optimize_two_phase_grid(alpha, step=1e-5):
    """(optimal_eps, optimal_ratio, branch_gap) as the first minimum over the
    whole grid np.arange(step, 0.25, step): 24,999 points at the default step."""
    from minsumvc.regular import _sup_second_branch

    eps_grid = np.arange(step, 0.25, step)
    sup = _sup_second_branch(eps_grid, alpha)
    greedy = 4.0 / (3.0 + 12.0 * eps_grid)
    ratios = np.maximum(greedy, sup)
    i = int(np.argmin(ratios))
    gap = abs(float(greedy[i]) - float(sup[i]))
    if gap > 1e-3:
        raise AssertionError(f"branches fail to cross at the optimum (gap {gap})")
    return float(eps_grid[i]), float(ratios[i]), gap


def random_regular_graph_pairing(n, d, seed, max_tries=1000):
    """random_regular_graph by the pairing model alone, with no switch fallback."""
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


def pad_to_target_rounds(adj, target, rng):
    """First-fit gadget padding that reads every deficit off adj again each round.

    Edits adj in place; the number of edges added, or None when a round adds none.
    """
    added = 0
    while True:
        rows = np.repeat(np.arange(adj.shape[0]), target - adj.sum(axis=1))
        cols = np.repeat(np.arange(adj.shape[1]), target - adj.sum(axis=0))
        if rows.size == 0:
            return added
        rng.shuffle(rows)
        cols = list(rng.permutation(cols))
        progress = False
        for r in rows:
            for j, c in enumerate(cols):
                if not adj[r, c]:
                    adj[r, c] = True
                    added += 1
                    cols.pop(j)
                    progress = True
                    break
        if not progress:
            return None


# The str record codec that the byte codec in minsumvc.graph replaced: a
# whole-text writer and a reader of decoded, split text.


def read_records_text(text, fmt):
    """Parse str text in format fmt and return fmt.build(header, fields).

    Line 1 is the magic line and line 2 the header.  Blank lines after them
    are skipped and the row count must match exactly.  Numbers are read by
    np.loadtxt, integers in 64 bits, and stored clamped into fmt.columns.
    Errors are fmt.error; those about a line name it.
    """

    def parse(chunk, dtype):
        """np.loadtxt of chunk, with integer fields in 64 bits."""
        if dtype is not np.int64:
            dtype = [(name, np.int64 if dtype[name].kind == "i" else dtype[name]) for name in dtype.names]
        data = io.BytesIO(chunk.encode())
        return np.loadtxt(data, dtype=dtype, comments=None, ndmin=1, encoding="utf-8")

    def stored(column, dtype):
        """A parsed column as fmt.columns holds it: integers clamped to the dtype's range."""
        if dtype.kind == "i":
            column = np.clip(column, np.iinfo(dtype).min, np.iinfo(dtype).max)
        return np.ascontiguousarray(column, dtype=dtype)

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
        fields = [stored(table[name], fmt.columns[name]) for name in fmt.columns.names]
    if found != count:
        fail(count, f"expected {count} rows")
    problem = fmt.check and fmt.check(header, fields)
    if problem:
        fail(*problem)
    try:
        return fmt.build(header, fields)
    except ValueError as exc:
        raise fmt.error(str(exc)) from None


def write_records_text(fmt, header, fields):
    """The text of format fmt as one str; fields are a table's columns or the rows.

    Each distinct value of a field is formatted once, then every row is
    joined from an object array of those texts.
    """
    texts = []
    for values in map(np.asarray, fields):
        to_text = str if values.dtype.kind == "i" else fmt.float_text
        # distinct by bit pattern, so that 0.0 and -0.0 keep their own text
        keys, index = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
        names = [to_text(x) for x in keys.view(values.dtype).tolist()]
        texts.append(np.array(names, dtype=object)[index])
    rows = zip(*texts) if fmt.columns is not None else texts
    return "\n".join([fmt.magic, " ".join(map(str, header)), *map(" ".join, rows)]) + "\n"


def load_records_text(path, fmt):
    """read_records_text of the file at path, opened in text mode."""
    with open(path, "r", encoding="ascii") as fh:
        return read_records_text(fh.read(), fmt)
