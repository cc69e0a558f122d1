"""Vertex blow-up and bipartite gadget sampling for weight removal.

Each vertex of a weighted graph becomes a block of m copies; each weighted
edge (u, v, w) becomes an unweighted bipartite gadget between the blocks in
which every vertex has degree exactly (1 + eps) * w * m.  A gadget is drawn
as floor(wm) disjoint perfect matchings, each one random permutation
repaired by column swaps, plus random row-column pairs for the rest of wm;
it is rejected unless all degrees land in the band
[(1 - eps) w m, (1 + eps) w m], then padded first-fit with extra edges
(never by removing any) until the degree is exact.  A subset-deviation
check bounds |e(S,T) - w|S||T|| over all subset pairs against
3 eps w m^2: exactly, by enumeration, for m <= 12, and otherwise by a
certificate read off the padded adjacency (the exact degrees, or the
expander mixing lemma), with enumeration again when neither certificate
fits and m <= 16.  No check samples, so a gadget is accepted only when the
bound is proved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import WeightedGraph, _distinct

RETRY_BUDGET = 64
EXHAUSTIVE_MAX_M = 12
# enumeration still proves the bound where no certificate fits (~0.15 s at 16)
EXHAUSTIVE_FALLBACK_MAX_M = 16
BLOWUP_MAX_VERTICES = 10_000_000


class GadgetSamplingError(RuntimeError):
    """Retry budget exhausted while drawing a gadget."""


@dataclass(frozen=True)
class BlowUpMap:
    """Partition of the blown-up vertex set into per-original blocks."""

    m: int
    original_n: int

    def block(self, v):
        """The new ids replacing original vertex v, as a range."""
        if not 0 <= v < self.original_n:
            raise ValueError(f"vertex {v} out of range")
        return range(v * self.m, (v + 1) * self.m)

    def image(self, subset):
        """All new ids replacing a set of original vertices."""
        out = []
        for v in subset:
            out.extend(self.block(v))
        return out


def blow_up(graph, m):
    """Replace each vertex by m copies and each edge by an m x m biclique.

    Copied edges keep the original weight, so the total scales by m^2.
    """
    if m < 1:
        raise ValueError(f"duplication factor must be at least 1, got {m}")
    if graph.n * m > BLOWUP_MAX_VERTICES:
        raise ValueError(f"blow-up would create {graph.n * m} vertices")
    u, v, w = graph.edge_arrays()
    i = np.arange(m, dtype=np.int64)
    shape = (graph.m, m, m)
    # ids times m in 64 bits: int32 ids times m would wrap past 2^31
    src = np.broadcast_to(u[:, None, None].astype(np.int64) * m + i[None, :, None], shape).reshape(-1)
    dst = np.broadcast_to(v[:, None, None].astype(np.int64) * m + i[None, None, :], shape).reshape(-1)
    ww = np.repeat(w, m * m)
    return WeightedGraph.from_arrays(graph.n * m, src, dst, ww), BlowUpMap(m, graph.n)


@dataclass(frozen=True)
class GadgetSpec:
    """Parameters of one bipartite degree-(1+eps)wm gadget."""

    m: int
    weight: float
    eps: Fraction
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.m < 1:
            raise ValueError(f"side size must be at least 1, got {self.m}")
        if not 0.0 < self.weight < 1.0:
            raise ValueError(f"weight must lie in (0, 1), got {self.weight}")
        if not 0 < self.eps < Fraction(1, 2):
            raise ValueError(f"eps must lie in (0, 1/2), got {self.eps}")
        t = (1.0 + float(self.eps)) * self.weight * self.m
        if abs(t - round(t)) > 1e-9 * max(1.0, t):
            raise ValueError(
                f"(1+eps)*w*m = {t!r} is not an integer for weight {self.weight}"
            )
        if round(t) > self.m:
            raise ValueError(
                f"target degree {round(t)} exceeds side size {self.m}"
            )

    @property
    def target_degree(self):
        return int(round((1.0 + float(self.eps)) * self.weight * self.m))

    @property
    def band(self):
        """Inclusive accepted degree range after sampling, before padding."""
        lo = (1.0 - float(self.eps)) * self.weight * self.m
        return int(np.floor(lo + 1e-12)), self.target_degree


@dataclass(frozen=True)
class SubsetCheck:
    mode: str
    pairs_checked: int
    max_deviation: float
    bound: float

    @property
    def margin(self):
        return self.bound - self.max_deviation

    @property
    def passed(self):
        return self.mode != "none" and self.max_deviation <= self.bound


@dataclass(frozen=True)
class GadgetResult:
    spec: GadgetSpec
    adjacency: np.ndarray
    retries: int
    sampled_edges: int
    added_edges: int
    subset_check: SubsetCheck

    @property
    def edge_count(self):
        return self.sampled_edges + self.added_edges


def _disjoint_matching(adj, rng, tries=40):
    """A random perfect matching avoiding existing edges, as row r's column cols[r], or None.

    Each try draws one permutation and repairs it.  A row whose column is
    already an edge swaps columns with a random row, one for which both
    new pairs are non-edges when there is such a row; otherwise the other
    row may be left on an edge, and is repaired next.  A try ends after
    2m repairs, or at a row with no non-edge.
    """
    m = adj.shape[0]
    for _ in range(tries):
        cols = rng.permutation(m)
        bad = np.flatnonzero(adj[np.arange(m), cols]).tolist()
        for _ in range(2 * m):
            if not bad:
                return cols
            r = bad.pop()
            c = cols[r]
            free = ~adj[r, cols]
            partners = np.flatnonzero(free & ~adj[:, c])
            if partners.size == 0:
                partners = np.flatnonzero(free)
                if partners.size == 0:
                    break
            s = int(partners[rng.integers(partners.size)])
            cols[r], cols[s] = cols[s], c
            if adj[s, c] and s not in bad:
                bad.append(s)
            elif not adj[s, c] and s in bad:
                bad.remove(s)
    return None


def _sample_attempt(m, weight, rng):
    """Overlay floor(w*m) disjoint matchings plus a partial matching.

    The partial matching pairs random distinct rows with random distinct
    columns and drops the pairs that are already edges, so every degree
    stays in {floor(wm), floor(wm)+1} and a successful draw always lands
    inside the acceptance band.  Returns None when a disjoint matching
    cannot be found.
    """
    adj = np.zeros((m, m), dtype=bool)
    rows = np.arange(m)
    wm = weight * m
    full = int(np.floor(wm + 1e-12))
    for _ in range(full):
        cols = _disjoint_matching(adj, rng)
        if cols is None:
            return None
        adj[rows, cols] = True
    rest = int(round((wm - full) * m))
    if rest:
        r = rng.permutation(m)[:rest]
        c = rng.permutation(m)[:rest]
        adj[r, c] = True
    return adj


def _pad_to_target(adj, row_need, col_need, rng):
    """Add row_need[r] edges at each row r and col_need[c] at each column c.

    Each round shuffles the deficient rows and columns, one entry per unit
    of need, and gives each row in turn the first column it is not yet
    joined to; the rows and columns left over go to the next round.
    Returns the number of edges added, or None when a round adds none (the
    attempt is then discarded; edges are never removed).
    """
    rows = np.repeat(np.arange(adj.shape[0]), row_need)
    cols = np.repeat(np.arange(adj.shape[1]), col_need)
    lines = adj.tolist()
    added_rows, added_cols = [], []
    while rows.size:
        rng.shuffle(rows)
        cols = rng.permutation(cols).tolist()
        left = []
        for r in rows.tolist():
            line = lines[r]
            for j, c in enumerate(cols):
                if not line[c]:
                    line[c] = True
                    added_rows.append(r)
                    added_cols.append(cols.pop(j))
                    break
            else:
                left.append(r)
        if len(left) == rows.size:
            return None
        # in index order, as np.repeat lists them
        rows, cols = np.array(sorted(left), np.intp), sorted(cols)
    adj[added_rows, added_cols] = True
    return len(added_rows)


def _exhaustive_subset_check(adj, weight, bound):
    """Exact deviation extremes over all 2^m x 2^m subset pairs.

    For a fixed row subset, the column counts it induces are sorted once;
    prefix sums of the largest and smallest entries give the extreme edge
    counts over every column subset of each size.
    """
    m = adj.shape[0]
    a = adj.astype(np.int32)
    counts = np.zeros((1 << m, m), dtype=np.int32)
    for s in range(1, 1 << m):
        low = s & -s
        counts[s] = counts[s ^ low] + a[low.bit_length() - 1]
    ordered = np.sort(counts, axis=1)
    top = np.concatenate(
        [np.zeros((1 << m, 1), np.int64), np.cumsum(ordered[:, ::-1], axis=1, dtype=np.int64)],
        axis=1,
    )
    bot = np.concatenate(
        [np.zeros((1 << m, 1), np.int64), np.cumsum(ordered, axis=1, dtype=np.int64)],
        axis=1,
    )
    sizes = np.bitwise_count(np.arange(1 << m, dtype=np.int64))
    expected = weight * sizes[:, None] * np.arange(m + 1)[None, :]
    dev = max(float(np.max(top - expected)), float(np.max(expected - bot)))
    return SubsetCheck("exact", (1 << m) * (1 << m), dev, bound)


def _certified_subset_check(adj, weight, bound):
    """A proven upper bound on |e(S,T) - w|S||T|| over all subset pairs.

    Degree certificate, when every row and column degree equals d:
    e(S,T) <= d min(|S|,|T|) gives e - w|S||T| <= d^2 / (4w), and each row
    of S has at most m - |T| edges leaving T, so w|S||T| - e <= w m (m - d).
    Spectral fallback (expander mixing lemma): |1_S' (A - wJ) 1_T| is at
    most sigma_max(A - wJ) sqrt(|S||T|) <= sigma_max(A - wJ) m.  Mode
    "none" carries the smaller bound when neither fits.
    """
    m = adj.shape[0]
    degrees = np.concatenate([adj.sum(axis=1), adj.sum(axis=0)])
    degree = np.inf
    if np.all(degrees == degrees[0]):
        d = int(degrees[0])
        degree = max(d * d / (4 * weight), weight * m * (m - d))
        if degree <= bound:
            return SubsetCheck("degree", 0, degree, bound)
    # rounded up by a relative 1e-9, far above the SVD's rounding error: the
    # bound is attained (S = T = all) whenever d - wm is the top singular value
    spectral = float(np.linalg.norm(adj - weight, 2)) * m * (1 + 1e-9)
    if spectral <= bound:
        return SubsetCheck("spectral", 0, spectral, bound)
    return SubsetCheck("none", 0, min(degree, spectral), bound)


def _hoeffding_min_m(eps, weight):
    """Smallest m with 4m * exp(-2 (eps w)^2 m) below 1/2."""
    rate = 2.0 * (float(eps) * weight) ** 2
    m = 1
    while m < 1 << 40 and 4.0 * m * np.exp(-rate * m) >= 0.5:
        m *= 2
    return m


def sample_gadget(spec):
    """Draw a bipartite gadget with every degree exactly (1+eps)*w*m.

    The adjacency matrix rows index one block and columns the other.  The
    same spec (including seed) always returns the same gadget.
    """
    target = spec.target_degree
    lo, hi = spec.band
    bound = 3.0 * float(spec.eps) * spec.m * spec.m * spec.weight
    added_cap = 2.0 * float(spec.eps) * spec.weight * spec.m * spec.m
    root = np.random.SeedSequence(spec.seed)
    for attempt in range(RETRY_BUDGET):
        rng = np.random.default_rng(root.spawn(1)[0])
        adj = _sample_attempt(spec.m, spec.weight, rng)
        if adj is None:
            continue
        deg_r = adj.sum(axis=1)
        deg_c = adj.sum(axis=0)
        if deg_r.min() < lo or deg_r.max() > hi or deg_c.min() < lo or deg_c.max() > hi:
            continue
        added = _pad_to_target(adj, target - deg_r, target - deg_c, rng)
        if added is None:
            continue
        if added > added_cap:
            raise GadgetSamplingError(
                f"padding added {added} edges, above the 2*eps*w*m^2 cap {added_cap:.3f}"
            )
        if spec.m <= EXHAUSTIVE_MAX_M:
            check = _exhaustive_subset_check(adj, spec.weight, bound)
        else:
            check = _certified_subset_check(adj, spec.weight, bound)
            if check.mode == "none" and spec.m <= EXHAUSTIVE_FALLBACK_MAX_M:
                check = _exhaustive_subset_check(adj, spec.weight, bound)
        if not check.passed:
            what = "no subset certificate: bound" if check.mode == "none" else "subset deviation"
            raise GadgetSamplingError(
                f"{what} {check.max_deviation:.6f} exceeds 3*eps*w*m^2 = {bound:.6f}"
            )
        adj.flags.writeable = False
        return GadgetResult(spec, adj, attempt, int(deg_r.sum()), added, check)
    raise GadgetSamplingError(
        f"no acceptable gadget in {RETRY_BUDGET} attempts for m={spec.m}, "
        f"w={spec.weight}, eps={spec.eps}; concentration suggests "
        f"m >= {_hoeffding_min_m(spec.eps, spec.weight)}"
    )


@dataclass(frozen=True)
class UnweightReport:
    m: int
    eps: Fraction
    gadgets: tuple
    degree_histogram: dict
    degree_spread: int
    input_total_weight: float
    output_edge_count: int

    @property
    def blowup_total_weight(self):
        """Total weight of the intermediate blown-up graph."""
        return self.m * self.m * self.input_total_weight

    @property
    def slack_3eps_blowup(self):
        """3 eps times the blown-up total weight."""
        return 3.0 * float(self.eps) * self.blowup_total_weight

    @property
    def slack_2eps_output(self):
        """2 eps times the output edge count."""
        return 2.0 * float(self.eps) * self.output_edge_count


def unweight(graph, m, eps, seed):
    """Replace every weighted edge by a sampled gadget between blocks.

    Returns the unit-weight graph on n*m vertices and a report with the
    per-gadget margins and the degree statistics.  Weighted-regular inputs
    yield outputs in which every degree equals (1 + eps) * m * d where d is
    the common incident weight.
    """
    eps = Fraction(eps)
    u, v, w = graph.edge_arrays()
    for we in _distinct(w):
        GadgetSpec(m, float(we), eps, 0)
    src, dst, results = [], [], []
    for idx in range(graph.m):
        child = np.random.SeedSequence(seed, spawn_key=(idx,))
        gadget_seed = int(child.generate_state(1, np.uint64)[0])
        res = sample_gadget(GadgetSpec(m, float(w[idx]), eps, gadget_seed))
        rows, cols = np.nonzero(res.adjacency)
        # in Python ints: an int32 id times m would wrap past 2^31
        src.append(int(u[idx]) * m + rows)
        dst.append(int(v[idx]) * m + cols)
        results.append(res)
    n = graph.n * m
    if src:
        out = WeightedGraph.from_arrays(
            n,
            np.concatenate(src),
            np.concatenate(dst),
            np.ones(sum(s.size for s in src)),
        )
    else:
        out = WeightedGraph.from_arrays(n, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))

    degrees = out.degrees()
    counts = np.bincount(degrees)
    report = UnweightReport(
        m=m,
        eps=eps,
        gadgets=tuple(results),
        degree_histogram={int(d): int(counts[d]) for d in np.flatnonzero(counts)},
        degree_spread=int(degrees.max() - degrees.min()) if n else 0,
        input_total_weight=graph.total_weight(),
        output_edge_count=out.m,
    )
    return out, report
