"""Inapproximability-ratio machinery: cover profiles, the completeness
recurrence, greedy scheduling across graph families, and config optimization.

A single hardness instance at correlation rho yields the ratio

    single_ratio(rho) = (3 - rho) * integral over r of C_rho(r, r) dr,

the soundness integral divided by the completeness limit 1/(3 - rho).  The
integral is Pr[X <= Z, Y <= Z] for standard normals X, Y with correlation
rho and an independent standard normal Z: the orthant probability of
(Z - X, Z - Y), whose correlation is (1 + rho)/2.  Sheppard's formula
(Phil. Trans. R. Soc. A 192, 1899) gives it in closed form as
1/4 + arcsin((1 + rho)/2) / (2 pi), so no quadrature is needed.

Composite instances take k weighted sub-instances (alpha_i, rho_i).  The
completeness and soundness sides are each represented by a coverage profile
(fraction of edge weight covered as a function of fractional time) and a
greedy scheduler distributes discrete time steps across the k sub-instances,
always advancing the one with the largest weighted marginal coverage gain.
The reported value per side is the area above the aggregate coverage curve,
i.e. the average cover time; the ratio is soundness over completeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .gaussian import copula_diag_grid
from .graph import (
    _first_problem, _load_records, _parallel_map, _read_records, _RecordFormat, _save_records, _write_records,
)

CONFIG_MAGIC = "msvc-hardness 1"


class ConfigFormatError(ValueError):
    """A hardness config file does not match its documented text format."""


@dataclass(eq=False)
class CoverProfile:
    """Piecewise-linear coverage bound on 2^g + 1 uniform nodes over [0, 1]."""

    grid: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("completeness-c", "soundness-s"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        grid = np.asarray(self.grid, dtype=np.float64)
        size = grid.size
        if size < 3 or (size - 1) & (size - 2):
            raise ValueError("profile needs 2^g + 1 nodes")
        if not np.all((grid >= -1e-12) & (grid <= 1.0 + 1e-12)):
            raise ValueError("profile values must be finite and lie in [0, 1]")
        if np.any(np.diff(grid) < -1e-12):
            raise ValueError("profile must be nondecreasing")
        grid = np.clip(grid, 0.0, 1.0)
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    @property
    def times(self):
        return np.linspace(0.0, 1.0, self.grid.size)

    def evaluate(self, t):
        return np.interp(t, self.times, self.grid)

    __call__ = evaluate

    def uncovered_area(self):
        """integral of (1 - profile) over [0, 1], trapezoid rule."""
        return float(np.trapezoid(1.0 - self.grid, dx=1.0 / (self.grid.size - 1)))


def _check_rho(rho):
    if not -1.0 < rho <= 0.0:
        raise ValueError(f"rho must lie in (-1, 0], got {rho}")


def _check_slack(name, value):
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be non-negative and finite, got {value}")


def completeness_limit(rho, gamma=0.0):
    """Fixed point of t <- 1/4 + ((1+rho)/4) t + ((1-rho)/4) gamma.

    The map is linear with slope (1+rho)/4 < 1, so the fixed point is the
    closed form (1 + (1-rho) gamma) / (3-rho); at gamma = 0 this is
    1/(3-rho), the limiting average cover time of the nested completeness
    ordering.
    """
    _check_rho(rho)
    _check_slack("gamma", gamma)
    return (1.0 + (1.0 - rho) * gamma) / (3.0 - rho)


def single_ratio(rho):
    """Soundness integral over completeness limit for one instance.

    Defined on [-1, 0]; the boundary rho = -1 is the continuity limit 1.
    The integral is Sheppard's closed form (module docstring).
    """
    if not -1.0 <= rho <= 0.0:
        raise ValueError(f"rho must lie in [-1, 0], got {rho}")
    return (3.0 - rho) * (0.25 + math.asin((1.0 + rho) / 2.0) / (2.0 * math.pi))


def completeness_profile(rho, gamma=0.0, depth=60, g=12):
    """Iterate the halving recurrence for the completeness coverage bound.

    With nu the ((1+rho)/4, (1-rho)/4, ...) correlated-bit distribution:

        c'(t) = nu00 * c(2t) + (nu01 + nu10) * 2t - 2*gamma       t <= 1/2
        c'(t) = (nu00 + nu01 + nu10) + nu11 * c(2t - 1) - 2*gamma  t > 1/2

    starting from the zero profile, clamped to [0, 1] each round, stopping
    at sup-norm change below 1e-9; raises RuntimeError if depth rounds do
    not get there.  The dyadic grid maps 2t and 2t - 1 of grid nodes onto
    grid nodes exactly.
    """
    _check_rho(rho)
    _check_slack("gamma", gamma)
    if g < 10:
        raise ValueError("grid exponent g must be at least 10")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    size = (1 << g) + 1
    half = 1 << (g - 1)
    nu00 = (1.0 + rho) / 4.0
    nu11 = nu00
    nu_mix = (1.0 - rho) / 2.0

    t_low = np.linspace(0.0, 0.5, half + 1)
    c = np.zeros(size)
    for _ in range(depth):
        new = np.empty(size)
        new[:half + 1] = nu00 * c[0::2] + nu_mix * 2.0 * t_low - 2.0 * gamma
        new[half + 1:] = (nu00 + nu_mix) + nu11 * c[2::2] - 2.0 * gamma
        np.clip(new, 0.0, 1.0, out=new)
        np.maximum.accumulate(new, out=new)
        delta = float(np.max(np.abs(new - c)))
        c = new
        if delta < 1e-9:
            break
    else:
        raise RuntimeError(
            f"completeness_profile({rho}) not converged in depth={depth} rounds: "
            f"last change {delta}"
        )
    return CoverProfile(c, "completeness-c")


def soundness_profile(rho, eps=0.0, g=12):
    """Sample the soundness coverage cap s(t) = 1 - C_rho(1-t, 1-t) + eps."""
    _check_rho(rho)
    _check_slack("eps", eps)
    t = np.linspace(0.0, 1.0, (1 << g) + 1)
    s = 1.0 - copula_diag_grid(rho, 1.0 - t) + eps
    return CoverProfile(np.clip(s, 0.0, 1.0), "soundness-s")


@dataclass(frozen=True)
class HardnessConfig:
    """Weighted correlation pairs (alpha_i, rho_i) for a composite instance."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((float(a), float(r)) for a, r in self.pairs)
        if not pairs:
            raise ValueError("config needs at least one (alpha, rho) pair")
        for a, r in pairs:
            if not (a > 0.0 and np.isfinite(a)):
                raise ValueError(f"alpha must be positive and finite, got {a}")
            _check_rho(r)
        object.__setattr__(self, "pairs", pairs)

    @property
    def k(self):
        return len(self.pairs)

    @property
    def alphas(self):
        return np.array([a for a, _ in self.pairs])

    @property
    def rhos(self):
        return np.array([r for _, r in self.pairs])


_CONFIG_FORMAT = _RecordFormat(
    CONFIG_MAGIC,
    ("k",),
    np.dtype([("alpha", np.float64), ("rho", np.float64)]),
    ConfigFormatError,
    build=lambda header, fields: HardnessConfig(tuple(zip(*(f.tolist() for f in fields)))),
    check=lambda header, fields: _first_problem({
        "alpha must be positive and finite": ~(np.isfinite(fields[0]) & (fields[0] > 0.0)),
        "rho must lie in (-1, 0]": ~((fields[1] > -1.0) & (fields[1] <= 0.0)),
    }),
    float_text="{:.10g}".format,
)


def parse_hardness_config(text):
    return _read_records(text, _CONFIG_FORMAT)


def _config_records(cfg):
    return _write_records(_CONFIG_FORMAT, (cfg.k,), (cfg.alphas, cfg.rhos))


def format_hardness_config(cfg):
    return b"".join(_config_records(cfg)).decode()


def load_hardness_config(path):
    return _load_records(path, parse_hardness_config)


def save_hardness_config(cfg, path):
    _save_records(path, _config_records(cfg))


def figure1_config():
    """The bundled 60-pair composite config reproducing the 1.0748 ratio."""
    text = resources.files("minsumvc").joinpath("data/figure1.cfg").read_text("ascii")
    return parse_hardness_config(text)


@dataclass(eq=False)
class RatioReport:
    completeness_value: float
    soundness_value: float
    ratio: float
    completeness_schedule: np.ndarray
    soundness_schedule: np.ndarray
    steps_per_graph: int

    @property
    def steps(self):
        return self.completeness_schedule.size


def _greedy_schedule(alphas, profiles, per_graph):
    """Greedy step assignment over k sub-instances.

    profiles[i] maps the i-th instance's internal fractional time to covered
    fraction; each instance owns per_graph internal steps.  Returns the
    average cover time (area above the aggregate weighted coverage curve)
    and the per-step trace of chosen instance indices.

    Greedy advances the instance with the largest next gain, ties to the
    lowest index.  A gain waits behind the earlier gains of its row, so the
    greedy order is a stable descending sort of each row's prefix minima of
    gains (ties by row, then step), concave rows or not; the coverage sums
    are added in that order, as the step loop adds them.
    """
    node_times = np.arange(per_graph + 1) / per_graph
    fv = np.stack([p.evaluate(node_times) for p in profiles])
    gains = alphas[:, None] * np.diff(fv, axis=1)

    # the ravel order is (row, step), so a stable sort breaks ties by both
    order = np.argsort(-np.minimum.accumulate(gains, axis=1).ravel(), kind="stable")
    trace = (order // per_graph).astype(np.int32)
    coverage = np.add.accumulate(np.concatenate(([alphas @ fv[:, 0]], gains.ravel()[order])))

    total_alpha = float(alphas.sum())
    value = float(np.trapezoid(1.0 - coverage / total_alpha, dx=1.0 / trace.size))
    return value, trace


# Profile pairs built in this process, keyed (rho, gamma, eps, g), in the
# order first built; about 65.5 KB per pair at g = 12.  Nothing is dropped,
# so `hardness composite` then `hardness optimize` in one process, and all
# the evaluations of one optimize_config call, build each key once.  With
# no entry ever dropped, concurrent calls need no lock: at worst both build
# a key and store pairs of equal bits.
_profile_memo = {}
_profile_hits = 0  # distinct keys composite_ratio calls found in it, for the CLI manifest


def _build_pair(key):
    rho, gamma, eps, g = key
    return completeness_profile(rho, gamma, g=g), soundness_profile(rho, eps, g=g)


def composite_ratio(cfg, steps, gamma=0.0, eps=0.0, g=12):
    """Greedy-scheduled soundness/completeness ratio of a composite config.

    The profile pair of each distinct (rho, gamma, eps, g) is built once
    per process and kept in _profile_memo, so later calls (another steps
    count, other configs sharing rhos) build only the pairs not in it.
    Those are built on one thread per CPU (graph._parallel_map), each
    exactly as on one thread, so the bits depend on neither the CPU count
    nor what the memo held.
    """
    if steps < 1000:
        raise ValueError("steps must be at least 1000")
    global _profile_hits
    per_graph = max(1, round(steps / cfg.k))
    alphas = cfg.alphas

    keys = [(rho, gamma, eps, g) for _, rho in cfg.pairs]
    distinct = dict.fromkeys(keys)
    missing = [key for key in distinct if key not in _profile_memo]
    _profile_hits += len(distinct) - len(missing)
    _profile_memo.update(zip(missing, _parallel_map(_build_pair, missing)))
    c_profiles, s_profiles = zip(*(_profile_memo[key] for key in keys))

    c_value, c_trace = _greedy_schedule(alphas, c_profiles, per_graph)
    s_value, s_trace = _greedy_schedule(alphas, s_profiles, per_graph)
    return RatioReport(
        completeness_value=c_value,
        soundness_value=s_value,
        ratio=s_value / c_value,
        completeness_schedule=c_trace,
        soundness_schedule=s_trace,
        steps_per_graph=per_graph,
    )


RHO_MIN, RHO_MAX = -0.999, 0.0


@dataclass(frozen=True)
class OptimizeResult:
    """An improved config, its ratio, and the evaluations spent finding it."""

    config: HardnessConfig
    ratio: float
    evaluations: int


class _BudgetSpent(Exception):
    """optimize_config has spent its evaluation budget."""


def optimize_config(seed_cfg, budget, steps=20000, g=12):
    """Coordinate grid refinement then finite-difference ascent on the ratio.

    budget caps composite_ratio evaluations; only improving moves are
    accepted, so the result never scores below seed_cfg.  Deterministic.
    The evaluations take their profiles from composite_ratio's memo, so
    each rho's profiles are built at most once per process, and not at all
    if the memo holds them (as after composite_ratio on seed_cfg).
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    evaluations = 0

    def evaluate(cand):
        nonlocal evaluations
        if evaluations == budget:
            raise _BudgetSpent
        evaluations += 1
        return composite_ratio(HardnessConfig(tuple(cand)), steps, g=g).ratio

    def offer(cand):
        """Move to cand if it beats the best ratio by over 1e-12; whether it did."""
        nonlocal pairs, best
        val = evaluate(cand)
        if val > best + 1e-12:
            pairs, best = cand, val
            return True
        return False

    def moved(i, d, x, base=None):
        """base (the current pairs) with pair i's alpha times x (d = 0) or rho plus x in [RHO_MIN, RHO_MAX]."""
        cand = [p[:] for p in base or pairs]
        cand[i][d] = cand[i][0] * x if d == 0 else min(RHO_MAX, max(RHO_MIN, cand[i][1] + x))
        return cand

    def step(size):
        """The current pairs moved size along direction."""
        cand = pairs
        for i in range(k):
            cand = moved(i, 0, float(np.exp(size * direction[2 * i])), cand)
            cand = moved(i, 1, size * direction[2 * i + 1], cand)
        return cand

    pairs = [list(p) for p in seed_cfg.pairs]
    best = evaluate(pairs)
    k = len(pairs)
    try:
        # coordinate refinement, shrinking step sizes
        for delta in (0.08, 0.04, 0.02, 0.01, 0.005):
            for i in range(k):
                for sign in (+1, -1):
                    offer(moved(i, 1, sign * delta))
                if k > 1:
                    for factor in (1.0 + 2.0 * delta, 1.0 / (1.0 + 2.0 * delta)):
                        offer(moved(i, 0, factor))

        # finite-difference gradient ascent on (log alpha_i, rho_i)
        h = 1e-3
        while True:
            grad = np.zeros(2 * k)
            for i in range(k):
                for d, up, down in ((0, np.exp(h), np.exp(-h)), (1, h, -h)):
                    grad[2 * i + d] = (evaluate(moved(i, d, up)) - evaluate(moved(i, d, down))) / (2 * h)
            norm = float(np.linalg.norm(grad))
            if norm < 1e-12:
                break
            direction = grad / norm
            if not any(offer(step(size)) for size in (0.1, 0.03, 0.01, 0.003, 0.001)):
                break
    except _BudgetSpent:
        pass
    return OptimizeResult(HardnessConfig(tuple(tuple(p) for p in pairs)), best, evaluations)
