"""Graph container, svc evaluation, subset tables, and the text format."""

import itertools
import math
from fractions import Fraction
import sys
import threading

import numpy as np
import pytest

from minsumvc import (
    GRAPH_MAGIC,
    GraphFormatError,
    Ordering,
    WeightedGraph,
    blow_up,
    build_long_code_graph,
    complete_bipartite,
    complete_graph,
    cover_times,
    cycle_graph,
    disjoint_union,
    inside_weight_table,
    load_graph,
    path_graph,
    random_affine_instance,
    random_regular_graph,
    random_weighted_graph,
    read_graph,
    save_graph,
    star_graph,
    svc_value,
    unweight,
    write_graph,
)
from minsumvc import graph as graph_module

from _oracles import (
    aggregate_parallel,
    inside_weight_table_loop,
    min_subset_density,
    random_regular_graph_pairing,
    relabel,
    svc_value_suffix,
)

TRIANGLE = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def test_triangle_every_ordering_scores_four():
    # step 1 covers two unit edges, step 2 covers the last one
    from itertools import permutations

    for perm in permutations(range(3)):
        assert svc_value(TRIANGLE, Ordering(perm)) == 4.0


def test_star_center_first_is_leaf_count():
    g = star_graph(5)
    assert svc_value(g, Ordering((0, 1, 2, 3, 4, 5))) == 5.0
    # center last: leaf visited at step t covers its own edge at t
    assert svc_value(g, Ordering((1, 2, 3, 4, 5, 0))) == 1 + 2 + 3 + 4 + 5


def test_path_middle_first():
    g = path_graph(3)
    assert svc_value(g, Ordering((1, 0, 2))) == 2.0
    assert svc_value(g, Ordering((0, 1, 2))) == 1.0 + 2.0


def test_weighted_cover_times():
    g = WeightedGraph(4, [(0, 1, 2.5), (2, 3, 0.5)])
    sigma = Ordering((2, 0, 1, 3))
    assert list(cover_times(g, sigma)) == [2, 1]
    assert svc_value(g, sigma) == 2.5 * 2 + 0.5 * 1


def test_svc_value_is_the_dot_of_float_cover_times():
    # svc_value gathers cover times in chunks of 2^16 edges; 150,001 edges
    # end in a partial third chunk
    rng = np.random.default_rng(11)
    n, m = 700, 150_001
    u = rng.integers(0, n, m)
    v = (u + rng.integers(1, n, m)) % n
    big = WeightedGraph.from_arrays(n, u, v, rng.uniform(0.1, 2.0, m))
    assert m > graph_module._CHUNK_ROWS
    for g in (big, TRIANGLE, WeightedGraph(4, [(0, 1, 2.5), (2, 3, 0.5)])):
        sigma = Ordering(rng.permutation(g.n))
        _, _, w = g.edge_arrays()
        assert svc_value(g, sigma) == float(np.dot(w, cover_times(g, sigma).astype(np.float64)))


def test_suffix_identity_matches_direct_value():
    # dual route: per-edge cover times vs uncovered weight per prefix
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(2, 10))
        g = random_weighted_graph(n, 0.5, int(rng.integers(1 << 30)))
        sigma = Ordering(tuple(int(x) for x in rng.permutation(n)))
        direct = svc_value(g, sigma)
        suffix = svc_value_suffix(g, sigma)
        assert direct == pytest.approx(suffix, rel=1e-12)


def test_svc_relabel_invariance():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        g = random_weighted_graph(n, 0.6, int(rng.integers(1 << 30)))
        perm = [int(x) for x in rng.permutation(n)]
        sigma = tuple(int(x) for x in rng.permutation(n))
        relabeled_sigma = Ordering(tuple(perm[v] for v in sigma))
        assert svc_value(g, Ordering(sigma)) == pytest.approx(
            svc_value(relabel(g, perm), relabeled_sigma), rel=1e-12
        )


def test_svc_scales_linearly_in_weights():
    g = random_weighted_graph(7, 0.5, 3)
    scaled = WeightedGraph(7, [(u, v, 3.25 * w) for u, v, w in g.edges])
    sigma = Ordering((3, 1, 0, 6, 2, 5, 4))
    assert svc_value(scaled, sigma) == pytest.approx(3.25 * svc_value(g, sigma), rel=1e-12)


def test_parallel_edges_kept_and_counted():
    g = WeightedGraph(2, [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 0.5)])
    assert g.m == 3
    assert g.total_weight() == 3.5
    assert svc_value(g, Ordering((0, 1))) == 3.5
    merged = aggregate_parallel(g)
    assert merged.m == 1
    assert merged.edges == [(0, 1, 3.5)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(-1, 2, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, 0.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, -2.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, math.inf)])
    with pytest.raises(ValueError):
        WeightedGraph(-1, [])
    for n, edges in (
        (3, [(0, 0, 1.0)]),
        (3, [(0, 3, 1.0)]),
        (3, [(-1, 2, 1.0)]),
        (3, [(0, 1, math.nan)]),
        (-1, []),
    ):
        with pytest.raises(ValueError):
            WeightedGraph.from_arrays(n, *np.asarray(edges).reshape(-1, 3).T)


def test_edge_arrays_hold_int32_ids_however_the_graph_is_made(tmp_path):
    g = build_long_code_graph(random_affine_instance(2, 2, 1, seed=0)[0], -0.5)
    path = tmp_path / "g.graph"
    save_graph(g, path)
    graphs = [
        g,
        load_graph(path),
        read_graph(write_graph(g)),
        WeightedGraph(3, []),
        TRIANGLE,
        WeightedGraph.from_arrays(3, np.array([0, 1]), np.array([2, 0], np.uint8), [1.0, 2.0]),
        blow_up(TRIANGLE, 2)[0],
        unweight(WeightedGraph(2, [(0, 1, 0.5)]), 8, Fraction(1, 4), seed=11)[0],
        random_regular_graph(8, 3, seed=0),
    ]
    for graph in graphs:
        u, v, _ = graph.edge_arrays()
        assert u.dtype == v.dtype == np.int32
    # int32 ids are checked and kept as they come, not copied
    u, v = np.array([0, 1], np.int32), np.array([2, 2], np.int32)
    ids = WeightedGraph.from_arrays(3, u, v, [1.0, 1.0]).edge_arrays()[:2]
    assert ids[0] is u and ids[1] is v


def test_degree_accessors():
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 3.0)])
    assert list(g.degrees()) == [1, 2, 1]
    assert list(g.weighted_degrees()) == [2.0, 5.0, 3.0]
    assert not g.is_unit_weighted()
    assert cycle_graph(4).is_unit_weighted()


def test_ordering_validation_and_positions():
    with pytest.raises(ValueError):
        Ordering((0, 0, 1))
    with pytest.raises(ValueError):
        Ordering((1, 2, 3))
    sigma = Ordering((2, 0, 1))
    assert len(sigma) == 3
    assert list(sigma.positions()) == [1, 2, 0]
    with pytest.raises(ValueError):
        svc_value(TRIANGLE, Ordering((0, 1)))


def test_ordering_equality_and_hash_follow_perm():
    a, b = Ordering((0, 1, 2)), Ordering([0, 1, 2])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert Ordering((0, 1)) == Ordering((0, 1))
    assert Ordering((1, 0)) != Ordering((0, 1))
    assert Ordering((0, 1)) != (0, 1)


def test_inside_weight_table_against_direct_sum():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(2, 8))
        g = random_weighted_graph(n, 0.6, int(rng.integers(1 << 30)))
        table = inside_weight_table(g)
        for mask in range(1 << n):
            inside = [v for v in range(n) if mask >> v & 1]
            direct = sum(w for u, v, w in g.edges if u in inside and v in inside)
            assert table[mask] == pytest.approx(direct, abs=1e-12)


def test_inside_weight_table_doubling_matches_bit_test_loop():
    # the same additions in the same order, so the bits agree exactly; the
    # unit-weight graphs get float32 tables, whose integers widen to the
    # float64 oracle's bits
    graphs = [random_weighted_graph(n, 0.5, n) for n in (2, 5, 12, 15, 18)]
    graphs += [random_regular_graph(n, 3, n) for n in (12, 16, 18)]
    graphs.append(WeightedGraph(4, [(0, 3, 0.1), (0, 3, 0.2), (1, 2, 1e-300)]))
    dtypes = [np.float64] * 5 + [np.float32] * 3 + [np.float64]
    for g, dtype in zip(graphs, dtypes, strict=True):
        table = inside_weight_table(g)
        assert table.dtype == dtype, g
        bits = table.astype(np.float64, copy=False).view(np.uint64)
        assert np.array_equal(bits, inside_weight_table_loop(g).view(np.uint64))


def test_inside_weight_table_is_float32_while_integer_sums_fit_in_24_bits():
    # (n + 1) W(V, V) = 4 * 2^22 = 2^24 exactly, then one weight unit over
    at_bound = WeightedGraph(3, [(0, 1, float((1 << 22) - 1)), (1, 2, 1.0)])
    over = WeightedGraph(3, [(0, 1, float(1 << 22)), (1, 2, 1.0)])
    half = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 1.0)])
    wide = WeightedGraph(2, [(0, 1, float((1 << 24) + 1))])
    for g, dtype in ((at_bound, np.float32), (over, np.float64), (half, np.float64), (wide, np.float64)):
        table = inside_weight_table(g)
        assert table.dtype == dtype, g
        assert np.array_equal(table.astype(np.float64, copy=False), inside_weight_table_loop(g))
    assert inside_weight_table(at_bound)[-1] == 1 << 22


def test_parallel_map_runs_short_lists_without_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("pool started")

    monkeypatch.setattr(graph_module, "ThreadPoolExecutor", no_pool)
    assert graph_module._parallel_map(lambda x: 2 * x, []) == []
    assert graph_module._parallel_map(lambda x: 2 * x, [3]) == [6]
    with pytest.raises(AssertionError, match="pool started"):
        graph_module._parallel_map(lambda x: 2 * x, [3, 4])


def test_parallel_map_on_more_threads_than_cpus_keeps_input_order(monkeypatch):
    # uneven work and a short switch interval let later items finish first
    def work(i):
        return i, threading.get_ident(), sum(range(i * 7919 % 5000))

    monkeypatch.setattr(graph_module, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = graph_module._parallel_map(work, range(400))
    finally:
        sys.setswitchinterval(interval)
    assert [i for i, _, _ in results] == list(range(400))
    assert len({thread for _, thread, _ in results}) > 1


def test_distinct_matches_np_unique():
    rng = np.random.default_rng(4)
    cases = [np.empty(0), np.array([7], dtype=np.int64), np.array([0.0, -0.0, 2.0, 0.0, -0.0])]
    for size in (2, 10, 1000):
        cases.append(rng.integers(0, 5, size))
        cases.append(rng.choice([0.5, 0.25, -1.0], size))
        cases.append(rng.random(size).view(np.uint64))
    for values in cases:
        got, expected = graph_module._distinct(values), np.unique(values)
        assert got.dtype == expected.dtype
        assert np.array_equal(got.view(np.uint8), expected.view(np.uint8)), values


def test_min_subset_density_exhaustive_and_witness():
    from itertools import combinations

    g = disjoint_union([complete_graph(4), path_graph(4)])
    rep = min_subset_density(g, 4, mode="exhaustive")
    assert rep.exact and rep.mode == "exhaustive"
    assert len(rep.witness) == 4
    inside = set(rep.witness)
    direct = sum(w for u, v, w in g.edges if u in inside and v in inside)
    assert rep.min_density == pytest.approx(direct / g.total_weight(), rel=1e-12)
    brute = min(
        sum(w for u, v, w in g.edges if u in c and v in c)
        for c in map(set, combinations(range(g.n), 4))
    )
    assert rep.min_density == pytest.approx(brute / g.total_weight(), rel=1e-12)
    # one K4 edge is forced: only three pairwise-disconnected vertices exist
    assert rep.min_density == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_min_subset_density_sampled_upper_bounds_exact():
    rng = np.random.default_rng(13)
    for trial in range(5):
        g = random_weighted_graph(9, 0.5, int(rng.integers(1 << 30)))
        exact = min_subset_density(g, 4, mode="exhaustive")
        sampled = min_subset_density(g, 4, mode="sampled", trials=3000, seed=trial)
        assert not sampled.exact
        assert sampled.min_density >= exact.min_density - 1e-12
    with pytest.raises(ValueError):
        min_subset_density(g, 20)
    with pytest.raises(ValueError):
        min_subset_density(g, 4, mode="nope")


def test_graph_io_round_trip(tmp_path):
    g = WeightedGraph(5, [(0, 4, 1.0), (1, 2, 0.125), (1, 2, 2.0)])
    text = write_graph(g)
    assert text.startswith(GRAPH_MAGIC + "\n5 3\n")
    assert read_graph(text) == g
    spaced = text.replace("\n1 2", "\n\n   \n1 2") + "\n"
    assert read_graph(spaced) == g
    path = tmp_path / "g.graph"
    save_graph(g, path)
    assert load_graph(path) == g


def test_graph_io_weight_formatting():
    g = WeightedGraph(2, [(0, 1, 2.0)])
    assert "0 1 2\n" in write_graph(g)
    g2 = WeightedGraph(2, [(0, 1, 1.0 / 3.0)])
    assert read_graph(write_graph(g2)) == g2


def test_graph_format_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 1"):
        read_graph("not-a-graph\n1 0\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        read_graph(GRAPH_MAGIC + "\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        read_graph(GRAPH_MAGIC + "\nx y\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        read_graph(GRAPH_MAGIC + "\n2 1\n0 1\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        read_graph(GRAPH_MAGIC + "\n2 1\n0 2 1.0\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        read_graph(GRAPH_MAGIC + "\n2 1\n0 0 1.0\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        read_graph(GRAPH_MAGIC + "\n2 1\n0 1 -1.0\n")
    with pytest.raises(GraphFormatError, match="line 4"):
        read_graph(GRAPH_MAGIC + "\n2 2\n0 1 1.0\n")
    with pytest.raises(GraphFormatError, match="line 5"):
        read_graph(GRAPH_MAGIC + "\n3 2\n\n0 1 1.0\n0 0 1.0\n")
    with pytest.raises(GraphFormatError, match="line 4"):
        read_graph(GRAPH_MAGIC + "\n2 1\n0 1 1.0\n0 1 1.0\n\n")
    with pytest.raises(GraphFormatError, match="line 6"):
        read_graph(GRAPH_MAGIC + "\n3 3\n0 1 1\n\n\n0 x 1\n1 2 1\n")


def test_factories_shapes():
    assert complete_graph(5).m == 10
    assert star_graph(4).m == 4
    assert path_graph(6).m == 5
    assert cycle_graph(6).m == 6
    kb = complete_bipartite(2, 3)
    assert kb.n == 5 and kb.m == 6
    assert all(u < 2 <= v for u, v, _ in kb.edges)


def test_random_weighted_graph_needs_two_vertices():
    for n in (0, 1):
        with pytest.raises(ValueError, match="need n >= 2"):
            random_weighted_graph(n, 0.5, 0)
    # with p = 0 the one-edge fallback joins the only two vertices
    assert random_weighted_graph(2, 0.0, 0).edges == [(0, 1, 1.0)]


def test_random_regular_graph_is_regular_and_simple():
    for seed in range(5):
        g = random_regular_graph(10, 3, seed)
        assert list(g.degrees()) == [3] * 10
        pairs = {(min(u, v), max(u, v)) for u, v, _ in g.edges}
        assert len(pairs) == g.m
    with pytest.raises(ValueError):
        random_regular_graph(5, 3, 0)
    with pytest.raises(ValueError):
        random_regular_graph(4, 4, 0)


def _assert_simple_regular(g, n, d):
    assert g.n == n and list(g.degrees()) == [d] * n
    pairs = {(min(u, v), max(u, v)) for u, v, _ in g.edges}
    assert len(pairs) == g.m and all(u != v for u, v in pairs)


def test_random_regular_graph_keeps_every_pairing_model_graph():
    # where the pairing model succeeds the graph is the one it drew, edge for
    # edge; where it gives up (20 tries fail for some seeds at d = 5), the
    # switches still give a simple regular graph
    switched = 0
    for n in range(4, 15):
        for d in range(1, min(n, 6)):
            if n * d % 2:
                continue
            for seed, tries in itertools.product(range(3), (20, 1000)):
                g = random_regular_graph(n, d, seed, max_tries=tries)
                try:
                    assert g.edges == random_regular_graph_pairing(n, d, seed, max_tries=tries).edges
                except RuntimeError:
                    switched += 1
                _assert_simple_regular(g, n, d)
    assert switched


def test_random_regular_graph_switches_where_the_pairing_model_fails():
    for n, d in ((200, 6), (400, 10)):
        with pytest.raises(RuntimeError, match="pairing model failed"):
            random_regular_graph_pairing(n, d, 1)
        g = random_regular_graph(n, d, 1)
        _assert_simple_regular(g, n, d)
        assert g == random_regular_graph(n, d, 1)
