"""Exact and approximate minimum sum vertex cover solvers.

The exact solver is a subset dynamic program over bitmasks: with
W(S, S) the weight inside S and f(0) = 0,

    f(S) = W(S^c, S^c) + min_{v in S} f(S minus v)

gives the cover-time sum of steps 1..|S| for the best schedule whose first
|S| picks are exactly S; the optimum is f(V) plus the step-0 term W(V, V).
The DP holds one 2^n array: f(S) overwrites W(S^c, S^c) in the
inside-weight table, a slot only f(S) reads, once W(V, V) is saved.  The
table, and the scratch in its dtype, is float32 when the weights are
integers and (n + 1) W(V, V) <= 2^24: every W and f(S) is then an integer
float32 holds exactly, so value, ordering and Max-k-VC subset are those
of float64, in half the bytes.  The
table is viewed as 2^(n - lo) x 2^lo, so that f(S) sits at row S >> lo,
column S & (2^lo - 1) of its reversed rows and columns: rows hold the
high mask bits, columns the low lo = min(n, _LOW_BITS).  Rows are relaxed
in layers of high-bit popcount, in order, on the calling thread, in
tasks of at most DP_CHUNK >> lo rows, one after another, in one scratch
set that the call allocates up front: a task allocates no array.  (A
thread pool per layer cost more in start-up and interpreter-lock
hand-offs than a second CPU gave these short tasks.)  A task takes the
min over the high bits of S as whole rows of the layer below, then over
the low bits layer by layer inside its cache-sized block, transposed so
that each gather takes whole rows.  The ordering is rebuilt from f: from
V down, drop the lowest v minimizing f(S minus v).  The min is exact, so
every f(S) adds the same two operands as a per-mask scan, and the
rebuild picks the v a strict-< scan keeps: value and ordering do not
depend on lo or the task size.  Exact Max-k-VC scans the same table in
the same layout, DP_CHUNK >> lo rows at a time.  A brute-force
enumeration over all n! orderings serves as an independent oracle for
n <= 8.

Approximate solvers: greedy by uncovered incident weight and a two-phase
schedule built around an exact or local-search Max-k-VC subset at
k = floor(n/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, permutations

import numpy as np

from .graph import Ordering, WeightedGraph, inside_weight_table, svc_value

DP_MAX_VERTICES = 24
BRUTE_MAX_VERTICES = 8
KVC_BUDGET = 10**7
# k-subsets scored per array block above DP_MAX_VERTICES
_KVC_BLOCK = 1 << 15
# masks per exact-DP task
DP_CHUNK = 1 << 16
# low mask bits solved inside one cache-sized row block
_LOW_BITS = 10


@dataclass(frozen=True)
class SolveResult:
    """An ordering, its svc value, and the method that produced it."""

    value: float
    ordering: Ordering
    method: str

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("svc value must be non-negative")


def msvc_exact_dp(graph, *, table=None):
    """Exact MSVC over all 2^n subsets; n <= 24.

    A given table = inside_weight_table(graph) is copied, never changed.
    """
    n = graph.n
    if n > DP_MAX_VERTICES:
        raise ValueError(f"exact DP limited to n <= {DP_MAX_VERTICES}, got {n}")
    return _exact_dp_in_place(graph, inside_weight_table(graph) if table is None else table.copy())


def _exact_dp_in_place(graph, table):
    """msvc_exact_dp on table = inside_weight_table(graph), which f overwrites.

    For callers that are done with the table: it is left holding f, not W.
    """
    n = graph.n
    if n == 0:
        return SolveResult(0.0, Ordering(()), "exact-dp")
    full = (1 << n) - 1
    inside_all = table[full]  # W(V, V), in the slot of f(0)
    lo = min(n, _LOW_BITS)
    top, low = (1 << (n - lo)) - 1, (1 << lo) - 1
    # f(S) overwrites W(S^c, S^c) = table[S ^ full], which only f(S) reads:
    # row r, column c of t is the slot of S = (r ^ top) << lo | (c ^ low)
    t = table.reshape(top + 1, low + 1)
    # per popcount j of S's low bits: its columns, and for each low bit of
    # S the columns of S minus that bit (popcount j - 1)
    col_layers = []
    for cols in reversed(_popcount_layers(lo)):
        bits, minus = cols ^ low, []
        while bits[0]:
            minus.append(cols ^ (bits & -bits))
            bits = bits & (bits - 1)
        col_layers.append((cols, minus))
    row_layers = _popcount_layers(n - lo)
    step = max(1, DP_CHUNK >> lo)
    cap = min(step, max(map(len, row_layers)))
    width = max(cols.size for cols, _ in col_layers)
    # one set for every task in turn: cap rows, the same transposed, and
    # three blocks of one low layer
    scratch = tuple(np.empty(shape, table.dtype) for shape in ((cap, low + 1), (low + 1) * cap, 3 * width * cap))
    for rows in row_layers:
        rows = rows ^ top
        for start in range(0, rows.size, step):
            _relax(t, col_layers, rows[start : start + step], scratch)

    f = table[::-1]  # f[S], flat
    value = float(f[full]) + float(inside_all)
    perm = [0] * n
    mask = full
    for pos in range(n - 1, -1, -1):
        # the lowest v reaching the min, as the strict-< scan kept
        perm[pos] = min((v for v in range(n) if mask >> v & 1), key=lambda v: f[mask ^ (1 << v)])
        mask ^= 1 << perm[pos]
    return SolveResult(value, Ordering(tuple(perm)), "exact-dp")


def _relax(t, col_layers, rows, scratch_set):
    """Set f on the given rows of t, one layer of the high bits, in scratch_set."""
    top, low = t.shape[0] - 1, t.shape[1] - 1
    k = rows.size
    rows_buf, cols_buf, blocks = scratch_set
    best, f_t = rows_buf[:k], cols_buf[: (low + 1) * k].reshape(low + 1, k)
    # high bits: the min over whole rows of the layer below, one row per
    # high bit of S, gathered into the memory f_t takes up next
    best.fill(np.inf)
    below = f_t.reshape(k, low + 1)
    bits = rows ^ top
    for _ in range(np.bitwise_count(bits[0])):
        t.take(rows ^ (bits & -bits), axis=0, out=below, mode="clip")
        np.minimum(best, below, out=best)
        bits = bits & (bits - 1)
    # low bits: one popcount layer of columns at a time, on f's rows
    # transposed, so that each gather takes whole rows of k values
    np.copyto(f_t, best.T)
    comp_rows = rows_buf[:k]
    t.take(rows, axis=0, out=comp_rows, mode="clip")  # still W(S^c, S^c)
    for j, (cols, minus) in enumerate(col_layers):
        size = cols.size * k
        cand, other = blocks[:size].reshape(-1, k), blocks[size : 2 * size].reshape(-1, k)
        comp = blocks[2 * size : 3 * size].reshape(k, -1)
        f_t.take(cols, axis=0, out=cand, mode="clip")
        for prev in minus:
            f_t.take(prev, axis=0, out=other, mode="clip")
            np.minimum(cand, other, out=cand)
        comp_rows.take(cols, axis=1, out=comp, mode="clip")
        np.copyto(other, comp.T)
        np.add(other, cand, out=cand)
        f_t[cols] = cand
        if j == 0 and rows[0] == top:
            f_t[low, 0] = 0.0  # f(0)
    t[rows] = f_t.T


def _popcount_layers(bits):
    """The integers below 2^bits grouped by popcount, each group ascending."""
    pop = np.bitwise_count(np.arange(1 << bits))
    return [np.flatnonzero(pop == k) for k in range(bits + 1)]


def msvc_bruteforce(graph):
    """Exhaustive minimum over all n! orderings; n <= 8."""
    n = graph.n
    if n > BRUTE_MAX_VERTICES:
        raise ValueError(f"brute force limited to n <= {BRUTE_MAX_VERTICES}, got {n}")
    if n == 0:
        return SolveResult(0.0, Ordering(()), "brute")

    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    pos = np.argsort(perms, axis=1)
    u, v, w = graph.edge_arrays()
    if graph.m == 0:
        return SolveResult(0.0, Ordering(tuple(range(n))), "brute")
    times = np.minimum(pos[:, u], pos[:, v]) + 1
    values = times @ w
    i = int(np.argmin(values))
    return SolveResult(float(values[i]), Ordering(tuple(int(x) for x in perms[i])), "brute")


def msvc_greedy(graph):
    """Greedy by uncovered incident weight, ties to lowest id."""
    perm = _phased_greedy_order(graph, np.ones(graph.n, dtype=bool))
    ordering = Ordering(tuple(perm))
    return SolveResult(svc_value(graph, ordering), ordering, "greedy")


def covered_weight(graph, subset):
    """Total weight of edges with at least one endpoint in subset."""
    u, v, w = graph.edge_arrays()
    mark = np.zeros(graph.n, dtype=bool)
    mark[list(subset)] = True
    return float(w[mark[u] | mark[v]].sum())


def max_kvc(graph, k, mode="exact", restarts=10, seed=0, *, table=None):
    """A k-subset maximizing covered edge weight.

    mode="exact" enumerates subsets (budget C(n,k) <= 10^7 enforced), by
    table = inside_weight_table(graph) while n <= DP_MAX_VERTICES, and
    returns a true maximizer; mode="local-search" runs steepest-swap hill
    climbing from seeded random starts.  Returns a sorted vertex tuple.

    On ties the two exact paths may differ.  Up to DP_MAX_VERTICES (24)
    vertices the table scan returns the least mask among the maximizers
    (bit v is vertex v).  Above it, the enumeration returns the first subset
    in combinations order that covers over 1e-15 more than every subset
    before it.  With a unique maximum both return it.

    Swapping x in S for y outside it gains (row[y] - into[y]) - (row[x] -
    into[x]) + a[x, y], with a the pair weights, row its row sums and into[v]
    the weight from v into S.  Each climbing step scores all k(n - k) swaps
    and takes the first best in (x, y) order while it gains over 1e-12.
    """
    n = graph.n
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    if k == 0:
        return ()
    if k == n:
        return tuple(range(n))

    if mode == "exact":
        if math.comb(n, k) > KVC_BUDGET:
            raise ValueError(f"C({n},{k}) exceeds the exact budget {KVC_BUDGET}")
        if n <= DP_MAX_VERTICES:
            if table is None:
                table = inside_weight_table(graph)
            return _max_kvc_table(table, n, k)
        a = graph.weight_matrix()
        row = a.sum(axis=1)
        combos = combinations(range(n), k)
        best_val, best_set = -1.0, None
        while (c := np.fromiter(islice(combos, _KVC_BLOCK), dtype=(np.intp, k))).size:
            cov = row[c].sum(axis=1) - a[c[:, :, None], c[:, None, :]].sum(axis=(1, 2)) / 2.0
            # in order, a subset replaces the best when it covers over 1e-15 more
            for i in np.flatnonzero(cov > best_val + 1e-15):
                if cov[i] > best_val + 1e-15:
                    best_val, best_set = cov[i], c[i]
        return tuple(int(v) for v in best_set)

    if mode == "local-search":
        rng = np.random.default_rng(seed)
        a = graph.weight_matrix()
        row = a.sum(axis=1)

        best_val, best_set = -1.0, None
        for _ in range(max(1, restarts)):
            inside = np.zeros(n, dtype=bool)
            inside[rng.choice(n, size=k, replace=False)] = True
            while True:
                ins, outs = np.nonzero(inside)[0], np.nonzero(~inside)[0]
                to_out = row - a[:, inside].sum(axis=1)
                gain = to_out[outs] - to_out[ins][:, None] + a[np.ix_(ins, outs)]
                x, y = divmod(int(np.argmax(gain)), outs.size)
                if not gain[x, y] > 1e-12:
                    break
                inside[ins[x]] = False
                inside[outs[y]] = True
            idx = np.nonzero(inside)[0]
            val = float(row[idx].sum()) - float(a[np.ix_(idx, idx)].sum()) / 2.0
            if val > best_val:
                best_val = val
                best_set = tuple(int(i) for i in idx)
        return best_set

    raise ValueError(f"unknown mode {mode!r}")


def _max_kvc_table(table, n, k):
    """The least k-set S minimizing W(S^c, S^c) = total - covered(S).

    Blocks in the DP's layout, of one high-bit popcount c and DP_CHUNK >> lo
    rows (high layer c x low layer k - c), each in ascending mask order: the
    least (W, mask) of the blocks' first minima is the first minimum over
    all k-sets ascending.
    """
    lo = min(n, _LOW_BITS)
    comp = table.reshape(1 << (n - lo), 1 << lo)[::-1, ::-1]
    row_layers, col_layers = _popcount_layers(n - lo), _popcount_layers(lo)
    step = max(1, DP_CHUNK >> lo)
    best = None
    for c in range(max(0, k - lo), min(k, n - lo) + 1):
        cols = col_layers[k - c]
        for rows in np.split(row_layers[c], range(step, row_layers[c].size, step)):
            block = comp[np.ix_(rows, cols)]
            i, j = divmod(int(np.argmin(block)), cols.size)
            cand = (block[i, j], int(rows[i]) << lo | int(cols[j]))
            if best is None or cand < best:
                best = cand
    return tuple(b for b in range(n) if best[1] >> b & 1)


def msvc_two_phase(graph, kvc_mode=None, restarts=10, seed=0):
    """Visit a max-coverage half greedily, then the rest greedily.

    Phase 1 picks the vertices of a Max-k-VC subset at k = floor(n/2)
    (greedy internal order); phase 2 visits the complement the same way.
    Returns the better of this schedule and plain greedy.  kvc_mode None
    means "exact" while C(n, n/2) <= KVC_BUDGET and "local-search" beyond.
    """
    n = graph.n
    k = n // 2
    if kvc_mode is None:
        kvc_mode = "exact" if math.comb(n, k) <= KVC_BUDGET else "local-search"
    subset = max_kvc(graph, k, mode=kvc_mode, restarts=restarts, seed=seed)
    inside = np.zeros(n, dtype=bool)
    inside[list(subset)] = True
    perm = _phased_greedy_order(graph, inside)
    ordering = Ordering(tuple(perm))
    value = svc_value(graph, ordering)
    fallback = msvc_greedy(graph)
    if fallback.value < value:
        return SolveResult(fallback.value, fallback.ordering, "two-phase")
    return SolveResult(value, ordering, "two-phase")


def _phased_greedy_order(graph, inside):
    n = graph.n
    u, v, w = graph.edge_arrays()
    covered = np.zeros(graph.m, dtype=bool)
    picked = np.zeros(n, dtype=bool)
    out = []
    for phase_mask in (inside, ~inside):
        for _ in range(int(phase_mask.sum())):
            gain = np.zeros(n)
            live = ~covered
            np.add.at(gain, u[live], w[live])
            np.add.at(gain, v[live], w[live])
            gain[picked | ~phase_mask] = -1.0
            pick = int(np.argmax(gain))
            out.append(pick)
            picked[pick] = True
            covered |= (u == pick) | (v == pick)
    return out
