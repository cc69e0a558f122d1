"""Hardness profiles, the composite ratio machinery, and config files."""

import math

import numpy as np
import pytest

from minsumvc import (
    CONFIG_MAGIC,
    ConfigFormatError,
    CoverProfile,
    HardnessConfig,
    OptimizeResult,
    completeness_limit,
    completeness_profile,
    composite_ratio,
    copula_diag_integral,
    figure1_config,
    format_hardness_config,
    load_hardness_config,
    optimize_config,
    parse_hardness_config,
    save_hardness_config,
    single_ratio,
    soundness_profile,
)
from minsumvc import hardness
from minsumvc.hardness import _greedy_schedule

TAU = 2.0 * math.pi


def _single_ratio_oracle(rho):
    return (3.0 - rho) * (0.25 + math.asin((1.0 + rho) / 2.0) / TAU)


def _greedy_schedule_loop(alphas, profiles, per_graph):
    """The step-at-a-time greedy scheduler, kept as an oracle."""
    k = len(profiles)
    total_steps = k * per_graph
    node_times = np.arange(per_graph + 1) / per_graph
    fv = np.stack([p.evaluate(node_times) for p in profiles])
    gains = alphas[:, None] * np.diff(fv, axis=1)

    nxt = np.zeros(k, dtype=np.int64)
    cur = gains[:, 0].copy()
    trace = np.empty(total_steps, dtype=np.int32)
    coverage = np.empty(total_steps + 1)
    covered = float(alphas @ fv[:, 0])
    coverage[0] = covered
    for step in range(total_steps):
        i = int(np.argmax(cur))
        trace[step] = i
        covered += cur[i]
        j = int(nxt[i]) + 1
        nxt[i] = j
        cur[i] = gains[i, j] if j < per_graph else -np.inf
        coverage[step + 1] = covered

    total_alpha = float(alphas.sum())
    value = float(np.trapezoid(1.0 - coverage / total_alpha, dx=1.0 / total_steps))
    return value, trace


def _assert_same_schedule(alphas, profiles, per_graph):
    value, trace = _greedy_schedule(alphas, profiles, per_graph)
    ref_value, ref_trace = _greedy_schedule_loop(alphas, profiles, per_graph)
    assert value == ref_value
    assert trace.dtype == ref_trace.dtype and np.array_equal(trace, ref_trace)


def test_single_ratio_matches_closed_form():
    for rho in (-0.99, -0.75, -0.52, -0.3, -0.1, 0.0):
        assert single_ratio(rho) == pytest.approx(_single_ratio_oracle(rho), abs=1e-6)


def test_single_ratio_matches_copula_quadrature():
    # pins the Simpson quadrature of the copula diagonal to Sheppard's form
    for rho in np.linspace(-1.0, 0.0, 21):
        rho = float(rho)
        assert abs((3.0 - rho) * copula_diag_integral(rho) - single_ratio(rho)) <= 1e-12


def test_single_ratio_peak_location_and_value():
    grid = np.arange(-0.60, -0.40, 0.001)
    vals = [_single_ratio_oracle(float(r)) for r in grid]
    best = float(grid[int(np.argmax(vals))])
    assert abs(best - (-0.513)) < 0.01
    assert single_ratio(best) == pytest.approx(1.015780, abs=5e-5)
    assert single_ratio(-0.52) == pytest.approx(1.01578, abs=2e-4)


def test_single_ratio_boundaries():
    assert single_ratio(0.0) == pytest.approx(1.0, abs=1e-5)
    assert single_ratio(-1.0) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        single_ratio(0.1)
    with pytest.raises(ValueError):
        single_ratio(-1.01)


def test_completeness_limit_closed_form():
    for rho in (0.0, -0.3, -0.52, -0.9, -0.999):
        assert completeness_limit(rho) == pytest.approx(1.0 / (3.0 - rho), abs=1e-10)


def test_completeness_limit_with_gamma_is_a_fixed_point():
    for rho, gamma in ((-0.5, 0.01), (-0.2, 0.1), (0.0, 0.05)):
        x = completeness_limit(rho, gamma)
        image = 0.25 + (1.0 + rho) / 4.0 * x + (1.0 - rho) / 4.0 * gamma
        assert x == pytest.approx(image, abs=1e-10)
    with pytest.raises(ValueError):
        completeness_limit(-0.5, -0.1)
    with pytest.raises(ValueError):
        completeness_limit(0.5)


def test_cover_profile_validation():
    good = np.linspace(0.0, 1.0, (1 << 10) + 1)
    CoverProfile(good, "completeness-c")
    with pytest.raises(ValueError):
        CoverProfile(good, "other")
    with pytest.raises(ValueError):
        CoverProfile(np.linspace(0.0, 1.0, 100), "completeness-c")
    with pytest.raises(ValueError):
        CoverProfile(good[::-1].copy(), "completeness-c")
    with pytest.raises(ValueError):
        CoverProfile(good * 1.5, "completeness-c")
    with pytest.raises(ValueError, match="finite"):
        CoverProfile([0.0, math.nan, 1.0], "soundness-s")


def test_cover_profile_evaluate_and_area():
    grid = np.linspace(0.0, 1.0, (1 << 10) + 1)
    p = CoverProfile(grid, "completeness-c")
    assert p(0.5) == pytest.approx(0.5, abs=1e-12)
    assert p.evaluate(0.0) == 0.0
    assert p.uncovered_area() == pytest.approx(0.5, abs=1e-12)


def test_completeness_profile_area_matches_limit():
    for rho in (0.0, -0.3, -0.52, -0.9):
        profile = completeness_profile(rho)
        assert profile.uncovered_area() == pytest.approx(
            completeness_limit(rho), abs=1e-3
        )


def test_completeness_profile_is_monotone_and_bounded():
    p = completeness_profile(-0.52)
    assert p.grid[0] >= 0.0 and p.grid[-1] <= 1.0
    assert np.all(np.diff(p.grid) >= -1e-12)
    with pytest.raises(ValueError):
        completeness_profile(-0.5, g=8)
    with pytest.raises(ValueError):
        completeness_profile(-0.5, depth=0)


def test_completeness_profile_raises_when_depth_ends_unconverged():
    with pytest.raises(RuntimeError, match="depth=2"):
        completeness_profile(-0.5, depth=2)


def test_soundness_profile_area_is_diagonal_integral():
    # integral of (1 - s(t)) dt with s(t) = 1 - C(1-t, 1-t) is the diagonal mass
    for rho in (-0.75, -0.52, -0.2):
        p = soundness_profile(rho)
        assert p.uncovered_area() == pytest.approx(copula_diag_integral(rho), abs=1e-5)
    with pytest.raises(ValueError):
        soundness_profile(-0.5, eps=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
def test_gamma_and_eps_must_be_non_negative_and_finite(soundness_builds, value):
    cfg = HardnessConfig(((1.0, -0.5), (2.0, -0.3)))
    calls = (
        lambda: completeness_limit(-0.5, gamma=value),
        lambda: completeness_profile(-0.5, gamma=value, g=10),
        lambda: soundness_profile(-0.5, eps=value, g=10),
        lambda: composite_ratio(cfg, 2000, gamma=value, g=10),
        lambda: composite_ratio(cfg, 2000, eps=value, g=10),
    )
    for call in calls:
        with pytest.raises(ValueError, match="must be non-negative and finite"):
            call()
    # nothing that failed is kept
    assert hardness._profile_memo == {}


def test_config_validation_and_properties():
    cfg = HardnessConfig(((1.0, -0.5), (2.0, -0.3)))
    assert cfg.k == 2
    assert list(cfg.alphas) == [1.0, 2.0]
    assert list(cfg.rhos) == [-0.5, -0.3]
    with pytest.raises(ValueError):
        HardnessConfig(())
    with pytest.raises(ValueError):
        HardnessConfig(((0.0, -0.5),))
    with pytest.raises(ValueError):
        HardnessConfig(((1.0, 0.5),))


def test_config_io_round_trip(tmp_path):
    cfg = HardnessConfig(((1.0, -0.5), (2.5, -0.125)))
    text = format_hardness_config(cfg)
    assert text.startswith(CONFIG_MAGIC + "\n2\n")
    assert parse_hardness_config(text).pairs == cfg.pairs
    path = tmp_path / "c.cfg"
    save_hardness_config(cfg, path)
    assert load_hardness_config(path).pairs == cfg.pairs
    signed = format_hardness_config(HardnessConfig(((1.0, -0.0), (1.0, 0.0))))
    assert signed.endswith("\n1 -0\n1 0\n")


def test_config_format_errors_carry_line_numbers():
    with pytest.raises(ConfigFormatError, match="line 1"):
        parse_hardness_config("bogus\n1\n1 -0.5\n")
    with pytest.raises(ConfigFormatError, match="line 2"):
        parse_hardness_config(CONFIG_MAGIC + "\n")
    with pytest.raises(ConfigFormatError, match="line 4"):
        parse_hardness_config(CONFIG_MAGIC + "\n2\n1 -0.5\n")
    with pytest.raises(ConfigFormatError, match="line 3"):
        parse_hardness_config(CONFIG_MAGIC + "\n1\n1 -0.5 9\n")
    with pytest.raises(ConfigFormatError, match="line 3"):
        parse_hardness_config(CONFIG_MAGIC + "\n1\nx y\n")
    with pytest.raises(ConfigFormatError, match="line 4"):
        parse_hardness_config(CONFIG_MAGIC + "\n1\n1 -0.5\n1 -0.5\n")
    with pytest.raises(ConfigFormatError, match="line 5"):
        parse_hardness_config(CONFIG_MAGIC + "\n2\n1 -0.5\n\n1 x\n")
    with pytest.raises(ConfigFormatError, match="line 2"):
        parse_hardness_config(CONFIG_MAGIC + "\n-1\n")
    for row in ("0 -0.5", "inf -0.5"):
        with pytest.raises(ConfigFormatError, match="^line 4: alpha must be positive and finite$"):
            parse_hardness_config(CONFIG_MAGIC + f"\n2\n1 -0.5\n{row}\n")
    for row in ("1 -1.5", "1 nan"):
        with pytest.raises(ConfigFormatError, match=r"^line 4: rho must lie in \(-1, 0\]$"):
            parse_hardness_config(CONFIG_MAGIC + f"\n2\n1 -0.5\n{row}\n")
    two = parse_hardness_config(CONFIG_MAGIC + "\n2\n\n1 -0.5\n\n2 -0.25\n")
    assert two.pairs == ((1.0, -0.5), (2.0, -0.25))


def test_figure1_config_shape_and_endpoints():
    cfg = figure1_config()
    assert cfg.k == 60
    assert cfg.pairs[0] == pytest.approx((1.0, -0.979))
    assert cfg.pairs[-1] == pytest.approx((608.43, -0.917))
    assert np.all(cfg.alphas > 0)
    assert np.all((cfg.rhos > -1.0) & (cfg.rhos <= 0.0))


def test_composite_single_pair_collapses_to_single_ratio():
    for rho in (-0.75, -0.52, -0.3):
        rep = composite_ratio(HardnessConfig(((1.0, rho),)), steps=20000)
        assert rep.ratio == pytest.approx(single_ratio(rho), abs=2e-3)
        assert rep.completeness_value == pytest.approx(completeness_limit(rho), abs=2e-3)


def test_composite_ratio_fields_and_alpha_scaling():
    cfg = HardnessConfig(((1.0, -0.6), (3.0, -0.4)))
    rep = composite_ratio(cfg, steps=4000)
    assert rep.ratio == pytest.approx(rep.soundness_value / rep.completeness_value)
    assert rep.steps == rep.completeness_schedule.size == rep.soundness_schedule.size
    assert rep.steps_per_graph == 2000
    scaled = HardnessConfig(tuple((7.0 * a, r) for a, r in cfg.pairs))
    rep2 = composite_ratio(scaled, steps=4000)
    assert rep2.ratio == pytest.approx(rep.ratio, rel=1e-12)
    with pytest.raises(ValueError):
        composite_ratio(cfg, steps=500)


def test_composite_ratio_is_stable_under_step_doubling():
    cfg = HardnessConfig(((1.0, -0.7), (2.0, -0.5), (4.0, -0.3)))
    a = composite_ratio(cfg, steps=20000).ratio
    b = composite_ratio(cfg, steps=40000).ratio
    assert abs(a - b) <= 2e-3


def test_greedy_schedule_matches_step_loop_on_figure_profiles():
    cfg = figure1_config()
    made = {rho: (completeness_profile(rho), soundness_profile(rho)) for rho in set(cfg.rhos.tolist())}
    for side in (0, 1):
        profiles = [made[rho][side] for _, rho in cfg.pairs]
        for steps in (20000, 100000):
            _assert_same_schedule(cfg.alphas, profiles, round(steps / cfg.k))


def test_greedy_schedule_matches_step_loop_on_nonconcave_profiles():
    # coarse lattice values give zero and repeated gains; per_graph equal to
    # the node count reads the nodes exactly, other values interpolate
    rng = np.random.default_rng(11)
    for trial in range(1200):
        k = int(rng.integers(1, 7))
        size = (1 << int(rng.integers(1, 5))) + 1
        profiles = []
        for _ in range(k):
            steps = rng.integers(0, 4, size=size).astype(float)
            steps[0] = rng.integers(0, 3)
            grid = np.cumsum(steps) / max(steps.sum(), 1.0)
            profiles.append(CoverProfile(grid, "soundness-s"))
        if trial % 3 == 0:
            alphas = np.full(k, 1.5)
        else:
            alphas = rng.choice([0.5, 1.0, 2.0, 3.0], size=k)
        per_graph = size - 1 if trial % 2 else int(rng.integers(1, 3 * size))
        _assert_same_schedule(alphas, profiles, per_graph)


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture
def soundness_builds(monkeypatch):
    """An empty profile memo for the test, and the (rho, eps, g) of each soundness profile built."""
    built = []

    def counting_soundness(rho, eps=0.0, g=12):
        built.append((rho, eps, g))
        return soundness_profile(rho, eps, g)

    monkeypatch.setattr(hardness, "_profile_memo", {})
    monkeypatch.setattr(hardness, "soundness_profile", counting_soundness)
    return built


def test_composite_profiles_built_in_threads_match_serial_build(monkeypatch, soundness_builds):
    # a repeated rho is built once; a pair built on two threads has the
    # bits of one built on one
    cfg = HardnessConfig(((1.0, -0.3), (2.0, -0.7), (0.5, -0.3), (1.5, -0.1), (1.0, -0.9)))
    keys = [(rho, 0.0, 0.0, 12) for rho in (-0.3, -0.7, -0.1, -0.9)]

    def run():
        hardness._profile_memo.clear()
        soundness_builds.clear()
        rep = composite_ratio(cfg, steps=5000)
        assert sorted(soundness_builds) == sorted((rho, 0.0, 12) for rho, _, _, _ in keys)
        assert list(hardness._profile_memo) == keys
        return rep, [hardness._profile_memo[key] for key in keys]

    monkeypatch.setattr("minsumvc.graph._workers", lambda: 2)
    threaded, threaded_pairs = run()
    monkeypatch.setattr(hardness, "_parallel_map", lambda fn, items: list(map(fn, items)))
    serial, serial_pairs = run()
    for (c, s), (serial_c, serial_s) in zip(threaded_pairs, serial_pairs):
        assert _same_bits(c.grid, serial_c.grid)
        assert _same_bits(s.grid, serial_s.grid)
    assert threaded.completeness_value == serial.completeness_value
    assert threaded.soundness_value == serial.soundness_value
    assert threaded.ratio == serial.ratio
    assert np.array_equal(threaded.completeness_schedule, serial.completeness_schedule)
    assert np.array_equal(threaded.soundness_schedule, serial.soundness_schedule)


def test_composite_memo_builds_each_profile_pair_once_per_key(soundness_builds):
    built = soundness_builds
    cfg = HardnessConfig(((1.0, -0.3), (2.0, -0.7), (0.5, -0.3)))
    cold = composite_ratio(cfg, steps=5000)
    assert sorted(built) == [(-0.7, 0.0, 12), (-0.3, 0.0, 12)]

    # another steps count, and the same one again, build nothing
    built.clear()
    composite_ratio(cfg, steps=8000)
    warm = composite_ratio(cfg, steps=5000)
    assert built == []
    assert (warm.completeness_value, warm.soundness_value) == (cold.completeness_value, cold.soundness_value)
    assert np.array_equal(warm.soundness_schedule, cold.soundness_schedule)

    # gamma, eps and g are part of the key
    for kwargs, eps, g in (({"gamma": 0.01}, 0.0, 12), ({"eps": 0.01}, 0.01, 12), ({"g": 10}, 0.0, 10)):
        built.clear()
        composite_ratio(cfg, steps=5000, **kwargs)
        assert sorted(built) == [(-0.7, eps, g), (-0.3, eps, g)], kwargs


def test_optimize_config_builds_no_key_twice(soundness_builds):
    # the CLI's default budget; the memo keeps every pair, so the rhos the
    # search revisits are not built again
    res = optimize_config(figure1_config(), budget=200, steps=2000, g=10)
    assert res.evaluations == 200
    assert len(soundness_builds) == len(set(soundness_builds)) == 113
    assert len(hardness._profile_memo) == 113


def test_optimize_config_stops_at_its_budget_in_every_phase():
    # k = 2: 1 + 5 deltas * 2 pairs * 4 moves = 41 coordinate evaluations,
    # then per ascent round 8 finite differences (hi, lo per slot) and up
    # to 5 line-search steps; the fourth round's 0.1 step (evaluation 77)
    # is refused and its 0.03 step (78) taken
    seed_cfg = HardnessConfig(((1.0, -0.45), (2.0, -0.6)))
    results = {}
    for budget in (30, 41, 42, 76, 77, 78):
        res = results[budget] = optimize_config(seed_cfg, budget=budget, steps=2000, g=10)
        assert res.evaluations == budget
        assert composite_ratio(res.config, 2000, g=10).ratio == res.ratio
    ratios = [res.ratio for res in results.values()]
    assert ratios == sorted(ratios)
    # a finite difference never moves the config: stopping between a hi and
    # its lo (42), or after a refused line-search step (77), keeps the last
    for before, after in ((41, 42), (76, 77)):
        assert results[after].config.pairs == results[before].config.pairs
    assert results[78].ratio > results[77].ratio
    assert optimize_config(seed_cfg, budget=1000, steps=2000, g=10).evaluations > 78


def test_composite_beats_best_single_on_figure_config():
    cfg = figure1_config()
    rep = composite_ratio(cfg, steps=20000)
    assert rep.ratio > 1.07
    assert rep.ratio > max(single_ratio(float(r)) for r in cfg.rhos)


def test_optimize_config_improves_and_respects_budget():
    seed_cfg = HardnessConfig(((1.0, -0.3),))
    base = composite_ratio(seed_cfg, steps=4000).ratio
    res = optimize_config(seed_cfg, budget=60, steps=4000)
    assert isinstance(res, OptimizeResult)
    assert res.evaluations <= 60
    assert res.ratio >= base - 1e-12
    assert res.config.k == 1
    # the single-pair optimum sits near the single-ratio peak
    assert abs(res.config.rhos[0] - (-0.513)) < 0.02
    check = composite_ratio(res.config, steps=4000).ratio
    assert res.ratio == pytest.approx(check, abs=1e-9)


def test_optimize_config_deterministic():
    seed_cfg = HardnessConfig(((1.0, -0.45), (2.0, -0.6)))
    a = optimize_config(seed_cfg, budget=25, steps=2000)
    b = optimize_config(seed_cfg, budget=25, steps=2000)
    assert a.config.pairs == b.config.pairs
    assert a.ratio == b.ratio and a.evaluations == b.evaluations
