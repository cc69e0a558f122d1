"""Two-phase ratio analysis and the regular-graph counterexample family."""

import math

import numpy as np
import pytest

from minsumvc import (
    ALPHA_BISECTION_LIMIT,
    ALPHA_MAX2SAT_BISECTION,
    CounterexampleParams,
    Ordering,
    WeightedGraph,
    complete_graph,
    counterexample_graph,
    coverage_bound_check,
    inside_weight_table,
    msvc_exact_dp,
    optimize_two_phase,
    random_weighted_graph,
    staged_ordering,
    staged_value_formula,
    star_graph,
    svc_value,
    two_phase_ratio,
    verify_counterexample,
)
from minsumvc import regular, solvers

from _oracles import optimize_two_phase_grid, peak_bytes


def _second_branch(delta, alpha):
    return (8.0 - 5.0 * alpha + 5.0 * alpha * np.sqrt(delta)) / (3.0 + 12.0 * delta)


def _critical_delta_or_none(alpha):
    a = 60.0 * alpha
    b = 192.0 - 120.0 * alpha
    c = -15.0 * alpha
    u = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return u * u if u > 0.0 else None


def _two_phase_ratio_grid(eps, alpha):
    """The supremum over delta as a 100,000-point max, kept as an oracle."""
    greedy_branch = 4.0 / (3.0 + 12.0 * eps)
    grid = np.linspace(eps * 1e-5, eps, 100_000)
    sup = float(np.max(_second_branch(grid, alpha)))
    crit = _critical_delta_or_none(alpha)
    if crit is not None and crit <= eps:
        sup = max(sup, float(_second_branch(np.array(crit), alpha)))
    return max(greedy_branch, sup)


def _optimize_two_phase_running_max(alpha, step=1e-5):
    """(optimal_eps, optimal_ratio, branch_gap) with the sup as a running max."""
    eps_grid = np.arange(step, 0.25, step)
    sup = np.maximum.accumulate(_second_branch(eps_grid, alpha))
    crit = _critical_delta_or_none(alpha)
    if crit is not None and crit < 0.25:
        peak = float(_second_branch(np.array(crit), alpha))
        sup = np.where(eps_grid >= crit, np.maximum(sup, peak), sup)
    greedy = 4.0 / (3.0 + 12.0 * eps_grid)
    ratios = np.maximum(greedy, sup)
    i = int(np.argmin(ratios))
    gap = abs(float(greedy[i]) - float(sup[i]))
    if gap > 1e-3:
        raise AssertionError(f"branches fail to cross at the optimum (gap {gap})")
    return float(eps_grid[i]), float(ratios[i]), gap


def test_ratio_small_eps_follows_greedy_branch():
    # the greedy branch 4 / (3 + 12 eps) dominates near zero
    for eps in (1e-4, 1e-3, 5e-3):
        assert two_phase_ratio(eps) == pytest.approx(4.0 / (3.0 + 12.0 * eps), abs=1e-9)


def test_ratio_domain_checks():
    with pytest.raises(ValueError):
        two_phase_ratio(0.0)
    with pytest.raises(ValueError):
        two_phase_ratio(0.25)
    with pytest.raises(ValueError):
        two_phase_ratio(0.01, alpha=0.0)
    with pytest.raises(ValueError):
        two_phase_ratio(0.01, alpha=1.01)
    with pytest.raises(ValueError):
        optimize_two_phase(alpha=0.8)


def test_ratio_always_above_one():
    rng = np.random.default_rng(1)
    for trial in range(50):
        eps = float(rng.uniform(1e-4, 0.2499))
        alpha = float(rng.uniform(0.05, 1.0))
        assert two_phase_ratio(eps, alpha) >= 1.0


def test_optimized_ratio_frozen_values():
    rep = optimize_two_phase(ALPHA_MAX2SAT_BISECTION)
    assert rep.optimal_ratio == pytest.approx(1.2245498, abs=2e-4)
    assert rep.optimal_eps == pytest.approx(0.02221, abs=5e-4)
    assert rep.branch_gap <= 1e-3

    rep2 = optimize_two_phase(ALPHA_BISECTION_LIMIT)
    assert rep2.optimal_ratio == pytest.approx(1.2208998, abs=2e-4)
    assert rep2.optimal_eps == pytest.approx(0.02303, abs=5e-4)

    rep3 = optimize_two_phase(1.0)
    assert rep3.optimal_ratio == pytest.approx(1.1508541, abs=2e-4)
    assert rep3.optimal_eps == pytest.approx(0.03964, abs=5e-4)


def test_optimized_ratio_decreases_with_alpha():
    ratios = [optimize_two_phase(a).optimal_ratio for a in (0.85, 0.9401, 0.9431, 1.0)]
    assert all(x > y for x, y in zip(ratios, ratios[1:]))


def test_ratio_analysis_is_consistent_with_direct_calls():
    rep = optimize_two_phase(ALPHA_MAX2SAT_BISECTION)
    assert rep.ratio(rep.optimal_eps) == pytest.approx(rep.optimal_ratio, abs=1e-5)
    # the optimum is a minimum on its grid neighborhood
    for delta in (-0.003, 0.003):
        assert rep.ratio(rep.optimal_eps + delta) >= rep.optimal_ratio - 1e-9


def test_ratio_closed_form_sup_equals_grid_oracle():
    for alpha in (0.9401, 0.9431, 0.85, 0.9, 1.0, 0.5, 0.2):
        for i in range(250):
            eps = 1e-5 + 1e-3 * i
            assert two_phase_ratio(eps, alpha) == _two_phase_ratio_grid(eps, alpha)


def test_optimize_closed_form_sup_equals_running_max_oracle():
    alphas = [float(a) for a in np.linspace(0.8, 1.0, 41)[1:]]
    for alpha in alphas + [0.8005012531328322, 0.8035087719298246, 0.85, 0.9401, 0.9431]:
        try:
            expected = _optimize_two_phase_running_max(alpha)
        except AssertionError:
            # a few alphas just above 0.8 miss the crossing on the grid
            with pytest.raises(AssertionError, match="fail to cross"):
                optimize_two_phase(alpha)
            continue
        rep = optimize_two_phase(alpha)
        assert (rep.optimal_eps, rep.optimal_ratio, rep.branch_gap) == expected


def _optimum_or_error(optimize, alpha, step):
    try:
        rep = optimize(alpha, step)
    except AssertionError as err:
        return str(err)
    return rep if isinstance(rep, tuple) else (rep.optimal_eps, rep.optimal_ratio, rep.branch_gap)


def test_closed_form_optimum_equals_the_whole_grid():
    # 400 alphas in (0.8, 1] and the two paper values at the default step,
    # then coarser and odd steps, where the seven points reach a grid end;
    # a few alphas just above 0.8 miss the crossing and raise the same error
    alphas = [round(0.8 + 0.0005 * i, 4) for i in range(1, 401)] + [0.9401, 0.9431]
    raised = []
    for alpha in alphas:
        expected = _optimum_or_error(optimize_two_phase_grid, alpha, 1e-5)
        assert _optimum_or_error(optimize_two_phase, alpha, 1e-5) == expected, alpha
        if isinstance(expected, str):
            raised.append(alpha)
    assert raised == [0.8005, 0.801, 0.8015, 0.8035]
    rng = np.random.default_rng(3)
    for step in (2e-5, 3.7e-4, 1e-3, 0.01, 0.03, 0.1, 0.2):
        for alpha in [*map(float, rng.uniform(0.8001, 1.0, 10)), 1.0]:
            expected = _optimum_or_error(optimize_two_phase_grid, alpha, step)
            assert _optimum_or_error(optimize_two_phase, alpha, step) == expected, (alpha, step)


def test_critical_delta_is_the_branch_peak_below_a_quarter():
    for alpha in np.linspace(0.01, 1.0, 100):
        crit = regular._interior_critical_delta(float(alpha))
        assert 0.0 < crit <= 0.0329
        peak = float(regular._second_branch(crit, alpha))
        for delta in (crit * 0.999, crit * 1.001):
            assert float(regular._second_branch(delta, alpha)) <= peak


def test_params_validation_and_delta():
    p = CounterexampleParams(1, 10, 10, 2, 2)
    assert abs(p.delta - 0.01) < 1e-15
    with pytest.raises(ValueError):
        CounterexampleParams(0, 10, 10, 2, 2)
    with pytest.raises(ValueError):
        CounterexampleParams(1, 6, 10, 2, 2)
    with pytest.raises(ValueError):
        CounterexampleParams(1, 10, 11, 2, 2)
    with pytest.raises(ValueError):
        CounterexampleParams(1, 10, 13, 3, 2)
    # n = 2t + 3s holds but t, s do not match the stage fractions for n = 26
    with pytest.raises(ValueError):
        CounterexampleParams(1, 10, 26, 4, 6)


def test_params_from_fraction():
    p = CounterexampleParams.from_fraction(1, 10)
    assert (p.n, p.t, p.s) == (10, 2, 2)
    p2 = CounterexampleParams.from_fraction(1, 10, scale=2)
    assert (p2.n, p2.t, p2.s) == (20, 4, 4)
    p3 = CounterexampleParams.from_fraction(1, 7)
    assert (p3.n, p3.t, p3.s) == (28, 2, 8)
    p4 = CounterexampleParams.from_fraction(2, 13)
    assert (p4.n, p4.t, p4.s) == (52, 2, 16)
    with pytest.raises(ValueError):
        CounterexampleParams.from_fraction(1, 5)
    with pytest.raises(ValueError):
        CounterexampleParams.from_fraction(1, 10, scale=0)


def test_counterexample_graph_structure():
    p = CounterexampleParams.from_fraction(1, 10)
    g = counterexample_graph(p)
    assert g.n == 10 and g.m == 10
    assert list(g.degrees()) == [2] * 10
    # first K_{2,2} block is bipartite between {0,1} and {2,3}
    block = {(u, v) for u, v, _ in g.edges if u < 4 and v < 4}
    assert block == {(0, 2), (0, 3), (1, 2), (1, 3)}
    # K_3 blocks start at 2t = 4
    tri = {(u, v) for u, v, _ in g.edges if 4 <= u < 7 or 4 <= v < 7}
    assert tri == {(4, 5), (4, 6), (5, 6)}


def test_staged_ordering_matches_formula():
    for p, q, scale in ((1, 10, 1), (1, 10, 2), (1, 7, 1), (2, 13, 1), (1, 8, 2)):
        params = CounterexampleParams.from_fraction(p, q, scale)
        g = counterexample_graph(params)
        sigma = staged_ordering(params)
        assert svc_value(g, sigma) == staged_value_formula(params)


def test_staged_ordering_frozen_values():
    assert staged_value_formula(CounterexampleParams.from_fraction(1, 10)) == 31.0
    assert staged_value_formula(CounterexampleParams.from_fraction(1, 10, 2)) == 114.0
    assert staged_value_formula(CounterexampleParams.from_fraction(1, 7)) == 226.0
    assert staged_value_formula(CounterexampleParams.from_fraction(2, 13)) == 766.0
    assert staged_value_formula(CounterexampleParams.from_fraction(1, 8, 2)) == 288.0


def test_verify_counterexample_small_exact():
    rep = verify_counterexample(CounterexampleParams.from_fraction(1, 10))
    assert rep.exact_mode
    assert rep.staged_value == rep.exact_value == 31.0
    assert rep.value_over_n2 == pytest.approx(0.31)
    assert rep.best_half_coverage == 9.0
    assert rep.coverage_cap == pytest.approx(9.0)
    assert rep.coverage_margin == pytest.approx(0.0)
    assert rep.uncovered_after_half == pytest.approx(1.0)
    assert rep.vertex_cover_number == 6
    assert rep.normalized_gap == pytest.approx(0.31 - 0.26)


def test_verify_counterexample_scale_two():
    rep = verify_counterexample(CounterexampleParams.from_fraction(1, 10, 2))
    assert rep.exact_mode
    assert rep.staged_value == rep.exact_value == 114.0
    assert rep.value_over_n2 == pytest.approx(0.285)


def test_verify_counterexample_large_reports_without_exact():
    params = CounterexampleParams.from_fraction(1, 7)
    rep = verify_counterexample(params)
    assert not rep.exact_mode
    assert rep.staged_value == rep.exact_value == 226.0
    assert math.isnan(rep.best_half_coverage)
    assert rep.vertex_cover_number == params.t + 2 * params.s


def test_normalized_value_approaches_quarter_plus_delta():
    gaps = []
    for scale in (1, 2, 4, 8):
        rep = verify_counterexample(CounterexampleParams.from_fraction(1, 10, scale))
        gaps.append(rep.normalized_gap)
    assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))


def test_vertex_cover_number_of_blocks():
    # each K_{2,2} needs 2 vertices, each K_3 needs 2
    for p, q in ((1, 10), (1, 8)):
        params = CounterexampleParams.from_fraction(p, q)
        if params.n <= 16:
            rep = verify_counterexample(params)
            assert rep.vertex_cover_number == params.t + 2 * params.s


@pytest.mark.parametrize("chunk", [7, 64, 1 << 16])
def test_vertex_cover_number_reads_the_table_in_chunks(monkeypatch, chunk):
    # the popcount pass reads DP_CHUNK >> lo rows at a time: one row at 7
    monkeypatch.setattr(solvers, "DP_CHUNK", chunk)
    for seed in range(10):
        graph = random_weighted_graph(3 + seed, 0.35, seed)
        covers = [s for s in range(1 << graph.n) if all(s >> u & 1 or s >> v & 1 for u, v, _ in graph.edges)]
        oracle = min(bin(s).count("1") for s in covers)
        assert regular._exact_facts(graph)[1] == oracle


def test_counterexample_checks_build_one_table(monkeypatch):
    params = CounterexampleParams.from_fraction(1, 8)
    graph = counterexample_graph(params)
    # unshared: the popcount pass and the DP each build their own table
    monkeypatch.setattr(regular, "_exact_dp_in_place", lambda g, table: solvers.msvc_exact_dp(g))
    monkeypatch.setattr(
        regular, "_popcount_minima", lambda table, n: solvers._popcount_minima(inside_weight_table(graph), n)
    )
    unshared = verify_counterexample(params), coverage_bound_check(graph, params.delta)
    monkeypatch.undo()

    calls = []

    def counting_table(g):
        calls.append(g.n)
        return inside_weight_table(g)

    monkeypatch.setattr(regular, "inside_weight_table", counting_table)
    monkeypatch.setattr(solvers, "inside_weight_table", counting_table)
    assert verify_counterexample(params) == unshared[0]
    assert calls == [params.n]
    calls.clear()
    assert coverage_bound_check(graph, params.delta) == unshared[1]
    assert calls == [params.n]


def test_counterexample_checks_hold_one_table():
    # the popcount pass reads the table, then the DP overwrites it: no
    # copy.  The DP adds one scratch set, the pass two blocks of 64 rows.
    # Unit weights: a uint16 table, a quarter of a float64 one (0.3027 and
    # 0.3023 measured, 0.3025 and 0.3022 with the one-k scan and the chunked
    # cover count; 0.387 with a 2^n mask and index for the cover
    # number, 0.64 and 0.59 with a float32 table)
    params = CounterexampleParams.from_fraction(1, 10, 2)
    graph = counterexample_graph(params)
    assert params.n == 20
    for check in (lambda: verify_counterexample(params), lambda: coverage_bound_check(graph, params.delta)):
        assert peak_bytes(check) / (8 << params.n) <= 0.31


def test_coverage_bound_applicable_on_counterexample():
    g = counterexample_graph(CounterexampleParams.from_fraction(1, 10))
    rep = coverage_bound_check(g, 0.01)
    assert rep.applicable and rep.reason == ""
    assert rep.msvc_value == 31.0
    assert rep.value_over_nw == pytest.approx(0.31)
    assert rep.coverage_target == pytest.approx(9.0)
    assert rep.coverage_margin == pytest.approx(0.0)
    assert rep.holds


def test_coverage_bound_at_scale_two_and_off_the_target():
    g = counterexample_graph(CounterexampleParams.from_fraction(1, 10, 2))
    rep = coverage_bound_check(g, 0.01)
    assert rep.applicable
    assert rep.msvc_value == 114.0
    assert rep.best_half_coverage == pytest.approx(18.0)
    assert rep.coverage_target == pytest.approx(18.0)
    assert rep.holds
    # K_10 sits at 0.366667, not at 1/4 + 0.01 within 1/n
    wrong = coverage_bound_check(complete_graph(10), 0.01)
    assert not wrong.applicable and "normalized value 0.366667 is not 1/4 + delta" in wrong.reason


def test_coverage_bound_not_applicable_cases():
    rep = coverage_bound_check(complete_graph(4), 0.01)
    assert not rep.applicable and "fitted delta" in rep.reason
    two_edges = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    rep2 = coverage_bound_check(two_edges, 0.01)
    assert not rep2.applicable
    assert rep2.holds and rep2.coverage_margin == pytest.approx(0.2)
    rep3 = coverage_bound_check(complete_graph(4), 0.2)
    assert not rep3.applicable and "outside (0, 1/16)" in rep3.reason


def test_coverage_bound_error_paths():
    with pytest.raises(ValueError, match="regular"):
        coverage_bound_check(star_graph(3), 0.01)
    with pytest.raises(ValueError, match="even"):
        coverage_bound_check(complete_graph(3), 0.01)
    # n = 28: past the exact solver's 24 vertices, with no way round it
    big = counterexample_graph(CounterexampleParams.from_fraction(1, 7))
    with pytest.raises(ValueError, match=r"n <= 24 vertices, got 28") as err:
        coverage_bound_check(big, 0.02)
    assert "msvc_value" not in str(err.value)
