"""Exact DP against brute force, approximation bands, Max-k-VC."""

import math
import sys
import threading
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from minsumvc import (
    CounterexampleParams,
    Ordering,
    SolveResult,
    WeightedGraph,
    complete_bipartite,
    complete_graph,
    counterexample_graph,
    covered_weight,
    cycle_graph,
    disjoint_union,
    max_kvc,
    msvc_bruteforce,
    msvc_exact_dp,
    msvc_greedy,
    msvc_two_phase,
    path_graph,
    random_regular_graph,
    random_weighted_graph,
    star_graph,
    svc_value,
    verify_counterexample,
)
from minsumvc import solvers
from minsumvc.graph import inside_weight_table

from _oracles import inside_weight_table_loop, max_kvc_loop, max_kvc_masks, msvc_exact_dp_layered, msvc_random


def _random_dyadic_graph(rng):
    # weights k/64 make DP and brute sums exactly representable
    n = int(rng.integers(2, 9))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.55:
                edges.append((i, j, float(rng.integers(1, 257)) / 64.0))
    if not edges:
        edges.append((0, 1, 1.0))
    return WeightedGraph(n, edges)


def _dp_reference(graph):
    """The subset DP with per-bit filtered gathers, kept as an oracle: (value, perm)."""
    n = graph.n
    size = 1 << n
    full = size - 1
    table = inside_weight_table(graph)
    comp = table[np.arange(size) ^ full]
    f = np.full(size, np.inf)
    f[0] = 0.0
    parent = np.zeros(size, dtype=np.int8)
    pop = np.bitwise_count(np.arange(size, dtype=np.int64))
    order = np.argsort(pop, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(pop, minlength=n + 1))))
    for k in range(1, n + 1):
        masks = order[offsets[k]:offsets[k + 1]]
        best = np.full(masks.size, np.inf)
        best_v = np.zeros(masks.size, dtype=np.int8)
        for v in range(n):
            bit = 1 << v
            has = (masks & bit) != 0
            cand = f[masks[has] ^ bit]
            slot = np.nonzero(has)[0]
            better = cand < best[slot]
            best[slot[better]] = cand[better]
            best_v[slot[better]] = v
        f[masks] = comp[masks] + best
        parent[masks] = best_v
    perm = [0] * n
    mask = full
    for pos in range(n - 1, -1, -1):
        perm[pos] = int(parent[mask])
        mask ^= 1 << perm[pos]
    return float(f[full] + table[full]), tuple(perm)


def _local_search_reference(graph, k, restarts, seed):
    """Steepest-swap Max-k-VC recomputing the coverage of every swap, kept as an oracle."""
    n = graph.n
    rng = np.random.default_rng(seed)
    a = graph.weight_matrix()
    row = a.sum(axis=1)

    def cov_of(mask_arr):
        idx = np.nonzero(mask_arr)[0]
        return float(row[idx].sum()) - float(a[np.ix_(idx, idx)].sum()) / 2.0

    best_val, best_set = -1.0, None
    for _ in range(max(1, restarts)):
        inside = np.zeros(n, dtype=bool)
        inside[rng.choice(n, size=k, replace=False)] = True
        val = cov_of(inside)
        improved = True
        while improved:
            improved = False
            step_best, step_pair = val + 1e-12, None
            for x in np.nonzero(inside)[0]:
                for y in np.nonzero(~inside)[0]:
                    inside[x], inside[y] = False, True
                    cand = cov_of(inside)
                    inside[x], inside[y] = True, False
                    if cand > step_best:
                        step_best, step_pair = cand, (x, y)
            if step_pair is not None:
                inside[step_pair[0]], inside[step_pair[1]] = False, True
                val = step_best
                improved = True
        if val > best_val:
            best_val = val
            best_set = tuple(int(i) for i in np.nonzero(inside)[0])
    return best_set


def test_dp_matches_filtered_gather_reference():
    rng = np.random.default_rng(31)
    for trial in range(40):
        g = random_weighted_graph(int(rng.integers(2, 13)), 0.5, int(rng.integers(1 << 30)))
        res = msvc_exact_dp(g)
        assert (res.value, res.ordering.perm) == _dp_reference(g)


@pytest.mark.parametrize("workers", [None, 8])
def test_dp_layer_chunks_match_reference_serial_or_oversubscribed(monkeypatch, workers):
    # chunks of 7 masks split every layer but the ends into many tasks, run
    # in order on the calling thread, also with a pool size of more threads
    # than CPUs set and threads switching every microsecond
    monkeypatch.setattr(solvers, "DP_CHUNK", 7)
    if workers is not None:
        monkeypatch.setattr("minsumvc.graph._workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rng = np.random.default_rng(43)
        for trial in range(12):
            g = random_weighted_graph(int(rng.integers(2, 13)), 0.5, int(rng.integers(1 << 30)))
            res = msvc_exact_dp(g)
            assert (res.value, res.ordering.perm) == _dp_reference(g)
    finally:
        sys.setswitchinterval(interval)


def _tie_heavy_graphs():
    rng = np.random.default_rng(17)
    dyadic = [
        WeightedGraph.from_arrays(g.n, *g.edge_arrays()[:2], rng.integers(1, 257, g.m) / 64.0)
        for g in (random_weighted_graph(9, 0.5, 3), random_regular_graph(12, 3, 4))
    ]
    return [
        complete_graph(7),
        star_graph(8),
        cycle_graph(11),
        complete_bipartite(4, 5),
        disjoint_union([complete_graph(3), cycle_graph(4), complete_bipartite(2, 2)]),
        disjoint_union([star_graph(3), star_graph(3), complete_graph(4)]),
        counterexample_graph(CounterexampleParams.from_fraction(1, 10)),
        *dyadic,
    ]


def test_dp_blocks_match_reference_at_every_split(monkeypatch):
    # every low/high split, one row per task, on graphs with many tied optima
    for g in _tie_heavy_graphs():
        expected = _dp_reference(g)
        for lo in range(1, g.n + 1):
            monkeypatch.setattr(solvers, "_LOW_BITS", lo)
            monkeypatch.setattr(solvers, "DP_CHUNK", 1 << lo)
            res = msvc_exact_dp(g)
            assert (res.value, res.ordering.perm) == expected, (g.n, lo)


def test_dp_matches_layered_dp_on_a_cubic_graph():
    g = random_regular_graph(20, 3, 5)
    res = msvc_exact_dp(g)
    assert (res.value, res.ordering.perm) == msvc_exact_dp_layered(g)


def test_dp_leaves_a_shared_table_intact():
    for g in (random_weighted_graph(13, 0.5, 8), random_regular_graph(16, 3, 2)):
        table = inside_weight_table(g)
        before = table.copy()
        res = msvc_exact_dp(g, table=table)
        assert np.array_equal(table.view(np.uint64), before.view(np.uint64))
        assert (res.value, res.ordering.perm) == _dp_reference(g)


def test_max_kvc_table_blocks_break_ties_like_the_mask_scan(monkeypatch):
    # every k and every low/high split, so ties straddle block borders;
    # unit weights tie often, float weights rarely
    for n in range(2, 17):
        g = random_weighted_graph(n, 0.5, n)
        unit = WeightedGraph.from_arrays(n, *g.edge_arrays()[:2], np.ones(g.m))
        for h in (unit, g):
            table = inside_weight_table(h)
            expected = [max_kvc_masks(h, k) for k in range(n + 1)]
            for lo in range(1, n + 1):
                monkeypatch.setattr(solvers, "_LOW_BITS", lo)
                got = [max_kvc(h, k, mode="exact", table=table) for k in range(n + 1)]
                assert got == expected, (n, lo, h.total_weight())


def _peak_over_table(fn, n):
    """tracemalloc peak of fn() in units of one 2^n float table."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 << n)


def test_exact_solvers_hold_one_table():
    # in units of a float64 table: unit weights get a float32 table, half
    # of one, and uniform weights a float64 one
    bounds = {"table": 0.55, "dp": 0.65, "kvc": 0.6, "kvc given table": 0.1}
    wide = {"table": 1.1, "dp": 1.25, "kvc": 1.1, "kvc given table": 0.1}
    for g, bound in ((random_regular_graph(20, 3, 5), bounds), (random_weighted_graph(20, 0.3, 1), wide)):
        table = inside_weight_table(g)
        peaks = {
            "table": _peak_over_table(lambda: inside_weight_table(g), g.n),
            "dp": _peak_over_table(lambda: msvc_exact_dp(g), g.n),
            "kvc": _peak_over_table(lambda: max_kvc(g, 10, mode="exact"), g.n),
            "kvc given table": _peak_over_table(lambda: max_kvc(g, 10, mode="exact", table=table), g.n),
        }
        assert all(peaks[name] <= bound[name] for name in bound), (table.dtype, peaks)


def _dp_peak_beyond_table(g, table):
    tracemalloc.start()
    try:
        solvers._exact_dp_in_place(g, table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_dp_tasks_allocate_nothing_beyond_the_scratch(monkeypatch, workers):
    # one scratch set for every task in turn, whatever the pool size: at
    # n = 20, two blocks of 64 rows of 2^10 entries and three of
    # 64 x C(10, 5) in the table's dtype, 0.7 MB in float32 and 1.4 MB in
    # float64; tasks that allocated their own blocks held four of 512 KiB
    # each, and a set per thread held one set per CPU
    monkeypatch.setattr("minsumvc.graph._workers", lambda: workers)
    for g in (random_regular_graph(20, 3, 5), random_weighted_graph(20, 0.3, 1)):
        table = inside_weight_table(g)
        scratch = table.itemsize * 64 * (2 * 1024 + 3 * math.comb(10, 5))
        assert _dp_peak_beyond_table(g, table) <= scratch + (192 << 10), table.dtype
    # a 4-vertex graph sizes its scratch by its one task of one row
    small = complete_graph(4)
    assert _dp_peak_beyond_table(small, inside_weight_table(small)) < 64 << 10


def test_exact_dp_and_counterexample_check_start_no_thread(monkeypatch):
    # even where the process may use two CPUs, every row layer is relaxed
    # on the calling thread
    def refuse(thread):
        raise AssertionError(f"thread started: {thread!r}")

    g = random_weighted_graph(16, 0.5, 3)
    params = CounterexampleParams.from_fraction(1, 10, 2)
    expected = verify_counterexample(params)
    monkeypatch.setattr("minsumvc.graph._workers", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    res = msvc_exact_dp(g)
    assert (res.value, res.ordering.perm) == msvc_exact_dp_layered(g)
    assert verify_counterexample(params) == expected


def test_dp_matches_reference_on_random_graphs_up_to_16_vertices():
    # row layers of one task and of many
    rng = np.random.default_rng(47)
    graphs = [random_weighted_graph(int(rng.integers(2, 17)), 0.5, int(rng.integers(1 << 30))) for _ in range(8)]
    graphs.append(random_regular_graph(16, 3, 1))
    for g in graphs:
        expected = _dp_reference(g) if g.n <= 12 else msvc_exact_dp_layered(g)
        res = msvc_exact_dp(g)
        assert (res.value, res.ordering.perm) == expected, g.n


def test_float32_tables_give_the_float64_results():
    # integer weights, small (many ties) or with (n + 1) W(V, V) up to
    # 2^24: value, ordering and Max-k-VC subsets equal those of a float64
    # table from the bit-test loop
    rng = np.random.default_rng(53)
    for trial in range(40):
        n = int(rng.integers(2, 17))
        g = random_weighted_graph(n, 0.5, int(rng.integers(1 << 30)))
        top = 3 if trial % 2 else (1 << 24) // ((n + 1) * g.m)
        g = WeightedGraph.from_arrays(n, *g.edge_arrays()[:2], rng.integers(1, top + 1, g.m).astype(float))
        assert inside_weight_table(g).dtype == np.float32
        wide = inside_weight_table_loop(g)
        res, ref = msvc_exact_dp(g), msvc_exact_dp(g, table=wide)
        assert (res.value, res.ordering.perm) == (ref.value, ref.ordering.perm), (trial, n)
        for k in range(1, n):
            assert max_kvc(g, k, mode="exact") == max_kvc(g, k, mode="exact", table=wide), (trial, n, k)


def test_max_kvc_table_row_chunks_break_ties_like_the_mask_scan(monkeypatch):
    # blocks of one, two and three rows, so ties straddle chunk borders
    for n in (9, 12):
        g = random_weighted_graph(n, 0.5, n)
        unit = WeightedGraph.from_arrays(n, *g.edge_arrays()[:2], np.ones(g.m))
        for h in (unit, g):
            table = inside_weight_table(h)
            expected = [max_kvc_masks(h, k) for k in range(n + 1)]
            monkeypatch.setattr(solvers, "_LOW_BITS", 4)
            for rows in (1, 2, 3):
                monkeypatch.setattr(solvers, "DP_CHUNK", rows << 4)
                assert [max_kvc(h, k, mode="exact", table=table) for k in range(n + 1)] == expected, (n, rows)


def test_max_kvc_blocks_match_the_per_subset_loop(monkeypatch):
    # the enumeration beyond the table limit; float weights, then unit
    # weights where many subsets tie
    monkeypatch.setattr(solvers, "DP_MAX_VERTICES", 0)
    monkeypatch.setattr(solvers, "_KVC_BLOCK", 1000)
    for n in (14, 16, 18):
        for g in (random_weighted_graph(n, 0.4, n), random_regular_graph(n, 3, n)):
            for k in (3, n // 2):
                assert max_kvc(g, k, mode="exact") == max_kvc_loop(g, k), (n, k)
    # vertex 1 covers 0.1 + 0.2, above vertex 0's 0.3 by under 1e-15: vertex 0 stays
    g = WeightedGraph(5, [(0, 4, 0.3), (1, 2, 0.1), (1, 3, 0.2)])
    assert max_kvc(g, 1, mode="exact") == max_kvc_loop(g, 1) == (0,)


def test_max_kvc_table_scan_and_enumeration_agree_on_a_unique_maximum(monkeypatch):
    # both exact paths, on the k where the best subset leads the next by
    # more than the enumeration's 1e-15 margin
    checked = 0
    for n in range(4, 12):
        g = random_weighted_graph(n, 0.5, 100 + n)
        for k in range(1, n):
            cov = sorted(covered_weight(g, c) for c in combinations(range(n), k))
            if cov[-1] - cov[-2] <= 1e-9:
                continue
            monkeypatch.setattr(solvers, "DP_MAX_VERTICES", 24)
            by_table = max_kvc(g, k, mode="exact")
            monkeypatch.setattr(solvers, "DP_MAX_VERTICES", 0)
            assert max_kvc(g, k, mode="exact") == by_table, (n, k)
            checked += 1
    assert checked >= 20


def test_local_search_matches_recompute_reference():
    # unit and dyadic weights keep coverage sums exact
    rng = np.random.default_rng(37)
    for trial in range(30):
        if trial % 2:
            n = int(rng.integers(4, 15))
            g = random_weighted_graph(n, 0.4, int(rng.integers(1 << 30)), unit_weights=True)
        else:
            g = _random_dyadic_graph(rng)
        k = int(rng.integers(1, g.n))
        seed = int(rng.integers(1 << 30))
        assert max_kvc(g, k, mode="local-search", restarts=3, seed=seed) == _local_search_reference(g, k, 3, seed)


def test_local_search_result_has_no_improving_swap():
    rng = np.random.default_rng(41)
    for trial in range(20):
        n = int(rng.integers(4, 14))
        g = random_weighted_graph(n, 0.5, int(rng.integers(1 << 30)))
        k = int(rng.integers(1, n))
        best = max_kvc(g, k, mode="local-search", restarts=2, seed=trial)
        base = covered_weight(g, best)
        for x in best:
            for y in set(range(n)) - set(best):
                assert covered_weight(g, set(best) - {x} | {y}) <= base + 1e-12


def test_dp_matches_bruteforce_exactly():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        g = _random_dyadic_graph(rng)
        dp = msvc_exact_dp(g)
        brute = msvc_bruteforce(g)
        assert dp.value == brute.value
        assert svc_value(g, dp.ordering) == dp.value
        assert svc_value(g, brute.ordering) == brute.value


def test_exact_known_values():
    assert msvc_exact_dp(complete_graph(3)).value == 4.0
    assert msvc_exact_dp(star_graph(6)).value == 6.0
    assert msvc_exact_dp(path_graph(3)).value == 2.0
    # two disjoint edges: one endpoint each at steps 1 and 2
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert msvc_exact_dp(g).value == 3.0


def test_empty_and_edgeless_graphs():
    assert msvc_exact_dp(WeightedGraph(0, [])).value == 0.0
    assert msvc_bruteforce(WeightedGraph(0, [])).value == 0.0
    g = WeightedGraph(3, [])
    assert msvc_exact_dp(g).value == 0.0
    assert msvc_bruteforce(g).value == 0.0


def test_size_guards():
    with pytest.raises(ValueError):
        msvc_bruteforce(WeightedGraph(9, [(0, 1, 1.0)]))
    with pytest.raises(ValueError):
        msvc_exact_dp(WeightedGraph(25, [(0, 1, 1.0)]))


def test_solve_result_validation():
    with pytest.raises(ValueError):
        SolveResult(-1.0, Ordering((0,)), "bad")


def test_greedy_and_two_phase_are_feasible_and_ordered():
    rng = np.random.default_rng(5)
    for trial in range(20):
        g = random_weighted_graph(int(rng.integers(2, 12)), 0.4, int(rng.integers(1 << 30)))
        for res in (msvc_greedy(g), msvc_two_phase(g), msvc_random(g, trial)):
            assert res.value == pytest.approx(svc_value(g, res.ordering), rel=1e-12)
            assert sorted(res.ordering) == list(range(g.n))


def test_two_phase_never_worse_than_greedy():
    rng = np.random.default_rng(17)
    for trial in range(20):
        g = random_weighted_graph(int(rng.integers(3, 12)), 0.5, int(rng.integers(1 << 30)))
        assert msvc_two_phase(g).value <= msvc_greedy(g).value + 1e-12


def test_heuristics_within_four_thirds_on_cubic_graphs():
    for seed in range(12):
        g = random_regular_graph(12, 3, seed)
        opt = msvc_exact_dp(g).value
        for res in (msvc_greedy(g), msvc_two_phase(g)):
            assert opt - 1e-9 <= res.value <= (4.0 / 3.0) * opt + 1e-9


def test_greedy_deterministic_ties_to_low_id():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert tuple(msvc_greedy(g).ordering) == (0, 2, 1, 3)


def test_two_phase_defaults_to_local_search_beyond_the_kvc_budget():
    # C(26, 13) exceeds KVC_BUDGET, so the exact Max-k-VC would refuse
    g = random_regular_graph(26, 3, 0)
    assert math.comb(26, 13) > solvers.KVC_BUDGET
    with pytest.raises(ValueError, match="exact budget"):
        msvc_two_phase(g, kvc_mode="exact")
    res = msvc_two_phase(g)
    assert res == msvc_two_phase(g, kvc_mode="local-search")
    assert res.value == pytest.approx(svc_value(g, res.ordering), rel=1e-12)
    # within the budget the default stays exact
    small = random_regular_graph(12, 3, 0)
    assert msvc_two_phase(small) == msvc_two_phase(small, kvc_mode="exact")


def test_random_solver_is_seed_deterministic():
    g = random_weighted_graph(10, 0.5, 1)
    a = msvc_random(g, 42)
    b = msvc_random(g, 42)
    assert a.value == b.value and tuple(a.ordering) == tuple(b.ordering)
    assert msvc_random(g, 43).method == "random(43)"


def test_covered_weight_direct():
    g = WeightedGraph(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 5.0)])
    assert covered_weight(g, ()) == 0.0
    assert covered_weight(g, (1,)) == 5.0
    assert covered_weight(g, (0, 3)) == 7.0
    assert covered_weight(g, (0, 1, 2, 3)) == 10.0


def test_max_kvc_exact_on_k4():
    g = complete_graph(4)
    best = max_kvc(g, 2, mode="exact")
    assert len(best) == 2 and list(best) == sorted(best)
    assert covered_weight(g, best) == 5.0


def test_max_kvc_exact_matches_enumeration():
    rng = np.random.default_rng(9)
    for trial in range(15):
        n = int(rng.integers(3, 10))
        g = random_weighted_graph(n, 0.5, int(rng.integers(1 << 30)))
        k = int(rng.integers(1, n))
        best = max_kvc(g, k, mode="exact")
        target = max(covered_weight(g, c) for c in combinations(range(n), k))
        assert covered_weight(g, best) == pytest.approx(target, rel=1e-12)


def test_max_kvc_local_search_is_feasible_and_seeded():
    g = random_weighted_graph(14, 0.4, 2)
    a = max_kvc(g, 7, mode="local-search", restarts=5, seed=0)
    b = max_kvc(g, 7, mode="local-search", restarts=5, seed=0)
    assert a == b and len(a) == 7
    exact = max_kvc(g, 7, mode="exact")
    assert covered_weight(g, a) <= covered_weight(g, exact) + 1e-9


def test_max_kvc_edges_and_errors():
    g = complete_graph(4)
    assert max_kvc(g, 0) == ()
    assert max_kvc(g, 4) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        max_kvc(g, 5)
    with pytest.raises(ValueError):
        max_kvc(g, 2, mode="nope")
