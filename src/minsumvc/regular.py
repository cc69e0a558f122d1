"""Approximation-ratio analysis on regular graphs and its tightness limits.

The two-phase algorithm first buys an optimal half cover sized by a
Max-k-VC subroutine with guarantee alpha, then finishes greedily.  Its
worst-case ratio on regular graphs is the larger of two branches in a
threshold eps: a pure-greedy bound 4 / (3 + 12 eps) and, for the regime
where the optimum covers a (1/4 + delta) fraction by time n/2,

    (8 - 5 alpha + 5 alpha sqrt(delta)) / (3 + 12 delta),  delta in (0, eps].

In u = sqrt(delta) the second branch rises up to the positive root of
15 alpha - 24 (8 - 5 alpha) u - 60 alpha u^2 and falls after it, so its
supremum over (0, eps] is its value at min(eps, delta*), delta* the square
of that root; no sweep over delta is needed.

The disjoint union of K_{2,2} and K_3 blocks shows the half-time coverage
factor 1 - sqrt(delta) behind that second branch cannot be improved to
1 - delta; the construction and its exhaustive verification live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Ordering, WeightedGraph, inside_weight_table, svc_value
from .solvers import DP_MAX_VERTICES, _exact_dp_in_place, _popcount_minima, covered_weight

# best published guarantee for Max-2-Sat subject to a bisection constraint
ALPHA_MAX2SAT_BISECTION = 0.9401
# limit no algorithm of that family can exceed
ALPHA_BISECTION_LIMIT = 0.9431

RATIO_GRID_STEP = 1e-5


def _second_branch(delta, alpha):
    return (8.0 - 5.0 * alpha + 5.0 * alpha * np.sqrt(delta)) / (3.0 + 12.0 * delta)


def _interior_critical_delta(alpha):
    """The stationary point of the second branch in u = sqrt(delta).

    The quadratic 60 alpha u^2 + (192 - 120 alpha) u - 15 alpha has roots
    of opposite signs for alpha > 0; delta* is the positive one squared,
    0.0328 at alpha = 1 and smaller for smaller alpha.
    """
    a = 60.0 * alpha
    b = 192.0 - 120.0 * alpha
    c = -15.0 * alpha
    disc = b * b - 4.0 * a * c
    u = (-b + math.sqrt(disc)) / (2.0 * a)
    return u * u


def _sup_second_branch(eps, alpha):
    """Supremum of the second branch over delta in (0, eps], elementwise in eps."""
    return _second_branch(np.minimum(eps, _interior_critical_delta(alpha)), alpha)


def two_phase_ratio(eps, alpha=ALPHA_MAX2SAT_BISECTION):
    """Worst-case ratio of the two-phase algorithm at threshold eps."""
    if not 0.0 < eps < 0.25:
        raise ValueError(f"eps must lie in (0, 1/4), got {eps}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    greedy_branch = 4.0 / (3.0 + 12.0 * eps)
    return max(greedy_branch, float(_sup_second_branch(eps, alpha)))


@dataclass(frozen=True)
class RatioAnalysis:
    """Optimized threshold for a given Max-k-VC guarantee."""

    alpha: float
    optimal_eps: float
    optimal_ratio: float
    branch_gap: float
    grid_step: float

    def ratio(self, eps):
        return two_phase_ratio(eps, self.alpha)


def optimize_two_phase(alpha=ALPHA_MAX2SAT_BISECTION, step=RATIO_GRID_STEP):
    """Minimize the ratio over the eps grid step, 2 step, ... below 1/4.

    The greedy branch falls in eps while the sup branch rises up to delta*
    and is flat after it, so the minimax sits where they cross: at
    eps* = (1 - 4/(5 alpha))^2 if that is at most delta*, else where the
    greedy branch meets the flat value S at delta*, eps* = (4/S - 3)/12.
    Only the seven grid points around eps* are scored; the first minimum
    among them is the first minimum of the whole grid.
    """
    if not 0.8 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0.8, 1], got {alpha}")
    crit = _interior_critical_delta(alpha)
    eps = (1.0 - 4.0 / (5.0 * alpha)) ** 2
    if eps > crit:
        eps = (4.0 / float(_second_branch(crit, alpha)) - 3.0) / 12.0
    # grid point i is step + i * step, as np.arange(step, 0.25, step) has it
    count = math.ceil((0.25 - step) / step)
    near = round(eps / step) - 1
    eps_grid = step + np.arange(max(0, near - 3), min(near + 3, count - 1) + 1) * step
    sup = _sup_second_branch(eps_grid, alpha)
    greedy = 4.0 / (3.0 + 12.0 * eps_grid)
    ratios = np.maximum(greedy, sup)
    i = int(np.argmin(ratios))
    gap = abs(float(greedy[i]) - float(sup[i]))
    if gap > 1e-3:
        raise AssertionError(f"branches fail to cross at the optimum (gap {gap})")
    return RatioAnalysis(
        alpha=alpha,
        optimal_eps=float(eps_grid[i]),
        optimal_ratio=float(ratios[i]),
        branch_gap=gap,
        grid_step=step,
    )


@dataclass(frozen=True)
class CounterexampleParams:
    """Block counts for the K_{2,2} / K_3 union with delta = (p/q)^2."""

    p: int
    q: int
    n: int
    t: int
    s: int

    def __post_init__(self):
        if self.p < 1 or self.q <= 6 * self.p:
            raise ValueError("need 0 < p and q > 6p so both block counts are positive")
        if self.t <= 0 or self.t % 2 or self.s <= 0:
            raise ValueError(f"t must be a positive even integer and s positive, got t={self.t} s={self.s}")
        if self.n != 2 * self.t + 3 * self.s:
            raise ValueError("n must equal 2t + 3s")
        if self.t * self.q != self.n * (self.q - 6 * self.p) // 2 or self.s * self.q != 2 * self.p * self.n:
            raise ValueError("t and s do not match (1/2 - 3 p/q) n and 2 (p/q) n")

    @property
    def delta(self):
        return (self.p / self.q) ** 2

    @classmethod
    def from_fraction(cls, p, q, scale=1):
        """Smallest feasible size for sqrt(delta) = p/q, scaled up by `scale`."""
        if scale < 1:
            raise ValueError(f"scale must be at least 1, got {scale}")
        if p < 1 or q <= 6 * p:
            raise ValueError("need 0 < p and q > 6p so both block counts are positive")
        for n0 in range(1, 4 * q + 1):
            tq2 = n0 * (q - 6 * p)
            sq = 2 * p * n0
            if tq2 % (2 * q) or sq % q:
                continue
            t = tq2 // (2 * q)
            if t % 2 or t == 0:
                continue
            n = n0 * scale
            return cls(p, q, n, t * scale, (sq // q) * scale)
        raise ValueError(f"no feasible size below 4q = {4 * q}")


def counterexample_graph(params):
    """t/2 disjoint K_{2,2} blocks then s disjoint K_3 blocks, unit weights.

    K_{2,2} block j occupies ids 4j..4j+3 with left side {4j, 4j+1}; K_3
    block j occupies 2t + 3j .. 2t + 3j + 2.  The graph is 2-regular with
    m = n edges.
    """
    t, s = params.t, params.s
    edges = []
    for j in range(t // 2):
        b = 4 * j
        edges += [(b, b + 2, 1.0), (b, b + 3, 1.0), (b + 1, b + 2, 1.0), (b + 1, b + 3, 1.0)]
    for j in range(s):
        b = 2 * t + 3 * j
        edges += [(b, b + 1, 1.0), (b, b + 2, 1.0), (b + 1, b + 2, 1.0)]
    return WeightedGraph(params.n, edges)


def staged_ordering(params):
    """One vertex per K_3, then the K_{2,2} left sides, then the K_3 seconds.

    Remaining vertices follow in ascending id order; they cover nothing new.
    """
    t, s = params.t, params.s
    stage1 = [2 * t + 3 * j for j in range(s)]
    stage2 = [x for j in range(t // 2) for x in (4 * j, 4 * j + 1)]
    stage3 = [2 * t + 3 * j + 1 for j in range(s)]
    head = stage1 + stage2 + stage3
    rest = sorted(set(range(params.n)) - set(head))
    return Ordering(head + rest)


def staged_value_formula(params):
    """Closed form t^2 + 3st + 5s^2/2 + t + 3s/2 for the staged ordering."""
    t, s = params.t, params.s
    return t * t + 3 * s * t + 5 * s * s / 2 + t + 3 * s / 2


def _exact_facts(graph):
    """(Max-k-VC subset at n // 2, vertex cover number, exact MSVC value) from
    one inside-weight table: the popcount pass reads it, the DP overwrites it."""
    n = graph.n
    table = inside_weight_table(graph)
    minima, masks = _popcount_minima(table, n)
    subset = tuple(b for b in range(n) if masks[n // 2] >> b & 1)
    # S covers every edge iff no weight lies inside its complement
    cover = int(np.flatnonzero(minima == 0)[0])
    return subset, cover, _exact_dp_in_place(graph, table).value


@dataclass(frozen=True)
class CounterexampleReport:
    params: CounterexampleParams
    n: int
    m: int
    staged_value: float
    formula_value: float
    exact_value: float
    exact_mode: bool
    value_over_n2: float
    value_over_nm: float
    normalized_target: float
    normalized_gap: float
    best_half_coverage: float
    coverage_cap: float
    coverage_margin: float
    uncovered_after_half: float
    vertex_cover_number: int


def verify_counterexample(params):
    """Build the graph and check the staged, exact, and coverage claims.

    The exact branch (dynamic program plus exhaustive half-cover search)
    runs when n <= DP_MAX_VERTICES (24); beyond that the staged simulation
    and the closed forms are reported with exact_mode False.
    """
    graph = counterexample_graph(params)
    n, m = graph.n, graph.m
    staged = svc_value(graph, staged_ordering(params))
    formula = staged_value_formula(params)
    if abs(staged - formula) > 1e-9:
        raise AssertionError(f"staged simulation {staged} disagrees with formula {formula}")

    exact_mode = n <= DP_MAX_VERTICES
    if exact_mode:
        subset, vc, exact = _exact_facts(graph)
        coverage = covered_weight(graph, subset)
        if staged < exact - 1e-9:
            raise AssertionError("staged ordering beats the exact optimum")
    else:
        exact, coverage, vc = staged, float("nan"), params.t + 2 * params.s

    cap = (1.0 - params.p / params.q) * m
    return CounterexampleReport(
        params=params,
        n=n,
        m=m,
        staged_value=staged,
        formula_value=formula,
        exact_value=exact,
        exact_mode=exact_mode,
        value_over_n2=exact / (n * n),
        value_over_nm=exact / (n * m),
        normalized_target=0.25 + params.delta,
        normalized_gap=exact / (n * n) - (0.25 + params.delta),
        best_half_coverage=coverage,
        coverage_cap=cap,
        coverage_margin=coverage - cap if exact_mode else float("nan"),
        uncovered_after_half=m - coverage if exact_mode else float("nan"),
        vertex_cover_number=vc,
    )


@dataclass(frozen=True)
class CoverageBoundReport:
    applicable: bool
    reason: str
    delta: float
    fitted_delta: float
    msvc_value: float
    value_over_nw: float
    value_over_n2: float
    best_half_coverage: float
    coverage_target: float
    coverage_margin: float
    holds: bool


def coverage_bound_check(graph, delta):
    """Check that an optimal half prefix covers a 1 - sqrt(delta) fraction.

    Applies when the graph is weighted-regular with even order and its
    exact normalized value sits at 1/4 + delta (within 1/n) for a delta in
    (0, 1/16); outside that regime the report carries the coverage numbers
    anyway with applicable=False and the failed condition named.  The exact
    value and half cover come from _exact_facts, so n <= DP_MAX_VERTICES.
    """
    n = graph.n
    incident = graph.weighted_degrees()
    top = float(incident.max())
    if top <= 0.0 or (top - float(incident.min())) > 1e-9 * top:
        raise ValueError("graph is not weighted-regular")
    if n % 2:
        raise ValueError("graph order must be even")
    if n > DP_MAX_VERTICES:
        raise ValueError(f"exact solve limited to n <= {DP_MAX_VERTICES} vertices, got {n}")
    subset, _, msvc_value = _exact_facts(graph)

    total = graph.total_weight()
    norm = msvc_value / (n * total)
    fitted = norm - 0.25
    reason = ""
    if not 0.0 < delta < 1.0 / 16.0:
        reason = f"delta {delta} outside (0, 1/16)"
    elif abs(norm - (0.25 + delta)) > 1.0 / n:
        reason = (
            f"normalized value {norm:.6f} is not 1/4 + delta = {0.25 + delta:.6f} "
            f"within 1/n"
        )
    elif not 0.0 < fitted < 1.0 / 16.0:
        reason = f"fitted delta {fitted:.6f} outside (0, 1/16)"

    coverage = covered_weight(graph, subset)
    target = (1.0 - math.sqrt(delta)) * total
    return CoverageBoundReport(
        applicable=not reason,
        reason=reason,
        delta=delta,
        fitted_delta=fitted,
        msvc_value=msvc_value,
        value_over_nw=norm,
        value_over_n2=msvc_value / (n * n),
        best_half_coverage=coverage,
        coverage_target=target,
        coverage_margin=coverage - target,
        holds=coverage >= target - 1e-9,
    )
