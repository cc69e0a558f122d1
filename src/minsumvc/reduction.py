"""Affine unique-games instances and the long-code graph construction.

An affine instance over Z_L has bipartite sides U and V and constraints
z(u) - z(v) = c_e (mod L) on its edges.  The output graph's vertices are
pairs (v, x) with v a V-side vertex and x a length-L bit string, packed as

    vertex id = v * 2^L + int(x)    (bit i of the integer is coordinate i).

For every U-side vertex u and every ordered pair (e1, e2) of edges incident
to u, each code pair (x, y) contributes an edge between (v1, x) and (v2, y)
weighted by the product distribution of correlated bit pairs: with d the
Hamming distance between the two cyclically shifted codes (shift by c_e
aligns a label's coordinate across an edge), the weight is

    ((1 + rho) / 4)^(L - d) * ((1 - rho) / 4)^d.

Each (u, e1, e2) block sums to exactly 1.  Pairs that would form self-loops
(same v, same code) are dropped; their mass is recomputed analytically by
the verifier, which checks per-vertex incident weight against the uniform
target D_v * D_u * 2^(1-L) and the total against the block count.

The nested completeness ordering visits, for a labeling z, the cube slices
in which coordinates z(v)+1, ..., z(v)+L-1, z(v) (all mod L) switch from 0
to 1 in that significance order, vertices ascending within a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _CHUNK_ROWS, Ordering, WeightedGraph, _cover_times_into, _distinct, _first_problem, _positions
from .graph import _load_records, _read_records, _RecordFormat, _save_records, _vertex_count, _write_records

UG_MAGIC = "msvc-ug 1"
LABELS_MAGIC = "msvc-labels 1"

LONG_CODE_MAX_ALPHABET = 14


class UGFormatError(ValueError):
    """A unique-games or labels file does not match its documented format."""


@dataclass(frozen=True)
class AffineUGInstance:
    """Bipartite affine constraint system z(u) - z(v) = c_e over Z_L.

    Biregularity (all U-side degrees equal, all V-side degrees equal) is
    required; parallel edges are allowed.
    """

    alphabet: int
    u_count: int
    v_count: int
    edges: tuple

    def __post_init__(self):
        L = self.alphabet
        if L < 1:
            raise ValueError("alphabet size must be at least 1")
        if self.u_count < 1 or self.v_count < 1:
            raise ValueError("both sides must be non-empty")
        edges = tuple((int(u), int(v), int(c)) for u, v, c in self.edges)
        du = [0] * self.u_count
        dv = [0] * self.v_count
        for u, v, c in edges:
            if not 0 <= u < self.u_count:
                raise ValueError(f"u id {u} out of range")
            if not 0 <= v < self.v_count:
                raise ValueError(f"v id {v} out of range")
            if not 0 <= c < L:
                raise ValueError(f"shift {c} outside Z_{L}")
            du[u] += 1
            dv[v] += 1
        if len(set(du)) > 1 or len(set(dv)) > 1:
            raise ValueError("instance is not biregular")
        object.__setattr__(self, "edges", edges)

    @property
    def m(self):
        return len(self.edges)

    @property
    def u_degree(self):
        return self.m // self.u_count if self.m else 0

    @property
    def v_degree(self):
        return self.m // self.v_count if self.m else 0


@dataclass(frozen=True)
class UGLabeling:
    """One label in Z_L per vertex on each side."""

    alphabet: int
    u_labels: tuple
    v_labels: tuple

    def __post_init__(self):
        u = tuple(int(x) for x in self.u_labels)
        v = tuple(int(x) for x in self.v_labels)
        L = self.alphabet
        if any(not 0 <= x < L for x in u + v):
            raise ValueError(f"labels must lie in Z_{L}")
        object.__setattr__(self, "u_labels", u)
        object.__setattr__(self, "v_labels", v)

    def shifted(self, a):
        """The labeling z + a (mod L) on both sides."""
        L = self.alphabet
        return UGLabeling(
            L,
            tuple((x + a) % L for x in self.u_labels),
            tuple((x + a) % L for x in self.v_labels),
        )


def ug_value(instance, labeling):
    """Fraction of constraints satisfied by the labeling."""
    if labeling.alphabet != instance.alphabet:
        raise ValueError("alphabet mismatch")
    if len(labeling.u_labels) != instance.u_count or len(labeling.v_labels) != instance.v_count:
        raise ValueError("labeling does not cover the instance")
    if instance.m == 0:
        return 1.0
    L = instance.alphabet
    zu, zv = labeling.u_labels, labeling.v_labels
    hit = sum(1 for u, v, c in instance.edges if (zu[u] - zv[v]) % L == c)
    return hit / instance.m


def _pair_weights(rho, L):
    """Edge weight by Hamming distance d of the aligned code pair."""
    same = (1.0 + rho) / 4.0
    diff = (1.0 - rho) / 4.0
    return np.array([same ** (L - d) * diff ** d for d in range(L + 1)])


def _rotate(codes, shift, L):
    """Cyclic shift moving bit i to position i + shift (mod L)."""
    shift %= L
    if shift == 0:
        return codes
    mask = (1 << L) - 1
    return ((codes << shift) | (codes >> (L - shift))) & mask


def _block_pairs(instance):
    """(v1, c1, v2, c2) per (u, e1, e2) block: u ascending, then e1 and e2 in input order."""
    by_u = [[] for _ in range(instance.u_count)]
    for u, v, c in instance.edges:
        by_u[u].append((v, c))
    return [(v1, c1, v2, c2) for edges in by_u for v1, c1 in edges for v2, c2 in edges]


def _long_code_blocks(instance, rho):
    """(m, blocks): the reduction graph's edge count, and an iterator over the
    (u, v, w) of its blocks in edge order, int32 ids, self-loops dropped.

    The alphabet, rho and the vertex count are checked before anything is allocated.
    """
    L = instance.alphabet
    if L > LONG_CODE_MAX_ALPHABET:
        raise ValueError(f"alphabet limited to {LONG_CODE_MAX_ALPHABET}, got {L}")
    if not -1.0 < rho < 0.0:
        raise ValueError(f"rho must lie in (-1, 0), got {rho}")
    _vertex_count(instance.v_count << L)
    size, pw, pairs = 1 << L, _pair_weights(rho, L), _block_pairs(instance)
    codes = np.arange(size, dtype=np.int32)
    off_diagonal = ~np.eye(size, dtype=bool).ravel()  # all but a v1 == v2 block's self-loops

    def block(v1, c1, v2, c2):
        keep = off_diagonal if v1 == v2 else slice(None)
        w = pw[np.bitwise_count(np.bitwise_xor.outer(_rotate(codes, c1, L), _rotate(codes, c2, L)).ravel())][keep]
        return np.repeat(v1 * size + codes, size)[keep], np.tile(v2 * size + codes, size)[keep], w

    return sum(size * size - size * (v1 == v2) for v1, _, v2, _ in pairs), (block(*p) for p in pairs)


def build_long_code_graph(instance, rho):
    """The weighted reduction graph on v_count * 2^L vertices; its arrays,
    allocated once, are filled from _long_code_blocks a block at a time."""
    m, blocks = _long_code_blocks(instance, rho)
    u, v, w = np.empty(m, np.int32), np.empty(m, np.int32), np.empty(m)
    end = 0
    for bu, bv, bw in blocks:
        start, end = end, end + bw.size
        u[start:end], v[start:end], w[start:end] = bu, bv, bw
        del bu, bv, bw  # before the next block is built
    return WeightedGraph.from_arrays(instance.v_count << instance.alphabet, u, v, w)


def long_code_svc(instance, rho, ordering):
    """(svc, total weight, m) of the reduction graph under an ordering, without the graph:
    only its weights and float64 cover times, filled a block at a time, so svc and the
    total have the bits of svc_value and total_weight() on the graph."""
    m, blocks = _long_code_blocks(instance, rho)
    pos = _positions(instance.v_count << instance.alphabet, ordering)
    w, times = np.empty(m), np.empty(m)
    end = 0
    for bu, bv, bw in blocks:
        start, end = end, end + bw.size
        w[start:end] = bw
        _cover_times_into(times[start:end], pos, bu, bv)
        del bu, bv, bw  # before the next block is built
    return float(np.dot(w, times)), float(w.sum()), m


def _loop_mass(instance, rho):
    """Per-vertex mass of the dropped self-loop pairs, indexed by vertex id."""
    L = instance.alphabet
    size, pw = 1 << L, _pair_weights(rho, L)
    codes = np.arange(size, dtype=np.int64)
    out = np.zeros(instance.v_count * size)
    for v1, c1, v2, c2 in _block_pairs(instance):
        if v1 == v2:
            out[v1 * size : (v1 + 1) * size] += pw[np.bitwise_count(_rotate(codes, c1, L) ^ _rotate(codes, c2, L))]
    return out


def completeness_ordering(instance, labeling):
    """The nested cube ordering induced by a labeling.

    Sort key per vertex (v, x): coordinates z(v)+1, ..., z(v)+L-1 of x
    (most significant first), then coordinate z(v), then v.  Vertices whose
    labeled slice bits are all zero come first; the final coordinate splits
    the innermost block into its two passes over V.
    """
    if len(labeling.v_labels) != instance.v_count or labeling.alphabet != instance.alphabet:
        raise ValueError("labeling does not cover the instance")
    L = instance.alphabet
    size = 1 << L
    ids = np.arange(instance.v_count * size, dtype=np.int64)
    v = ids >> L
    code = ids & (size - 1)
    z = np.asarray(labeling.v_labels, dtype=np.int64)[v]

    key = np.zeros_like(ids)
    for i in list(range(1, L)) + [0]:
        bit = (code >> ((z + i) % L)) & 1
        key = (key << 1) | bit
    order = np.argsort(key * instance.v_count + v, kind="stable")
    return Ordering(tuple(int(x) for x in order))


@dataclass(frozen=True)
class ReductionReport:
    """Structural checks of a constructed reduction graph."""

    per_vertex_target: float
    max_incident_deviation: float
    total_weight: float
    expected_total: float
    total_deviation: float
    ordered_pair_total: float
    unordered_pair_total: float
    block_sum_deviation: float
    loop_mass_total: float
    weight_values_ok: bool
    passed: bool


def verify_reduction(graph, instance, rho):
    """Check regularity, totals, block normalization, and weight values.

    Incident weights have the dropped self-loop mass added back (it counts
    twice, once per endpoint) before comparison with the uniform target.
    """
    L = instance.alphabet
    size = 1 << L
    if graph.n != instance.v_count * size:
        raise ValueError(f"graph has {graph.n} vertices, the instance's reduction has {instance.v_count * size}")
    du, dv = instance.u_degree, instance.v_degree
    target = dv * du * 2.0 ** (1 - L)

    incident = graph.weighted_degrees()
    loops = _loop_mass(instance, rho)
    loop_total = float(loops.sum())

    if target > 0.0:
        max_dev = float(np.max(np.abs(incident + 2.0 * loops - target))) / target
    else:
        max_dev = float(np.max(np.abs(incident))) if graph.n else 0.0

    ordered_total = float(instance.u_count * du * du)
    expected = ordered_total - loop_total
    total = graph.total_weight()
    total_dev = abs(total - expected) / expected if expected > 0.0 else abs(total)
    unordered_total = (ordered_total + instance.m) / 2.0

    # every block's mass is rotation-invariant: 2^L * sum_d C(L,d) pw[d]
    pw = _pair_weights(rho, L)
    block = float(size * sum(math.comb(L, d) * pw[d] for d in range(L + 1)))
    block_dev = abs(block - 1.0) if instance.m else 0.0

    # each chunk's distinct weights lie within 1e-12 max(pw) of some pw[d]
    w = graph.edge_arrays()[2]
    ok = all(
        np.all(np.min(np.abs(vals[:, None] - pw[None, :]), axis=1) <= 1e-12 * np.max(pw))
        for vals in (_distinct(w[lo : lo + _CHUNK_ROWS]) for lo in range(0, w.size, _CHUNK_ROWS))
    )

    passed = max_dev <= 1e-9 and total_dev <= 1e-9 and block_dev <= 1e-12 and ok
    return ReductionReport(
        per_vertex_target=target,
        max_incident_deviation=max_dev,
        total_weight=total,
        expected_total=expected,
        total_deviation=total_dev,
        ordered_pair_total=ordered_total,
        unordered_pair_total=unordered_total,
        block_sum_deviation=block_dev,
        loop_mass_total=loop_total,
        weight_values_ok=ok,
        passed=passed,
    )


def random_affine_instance(alphabet, size, degree, seed, satisfiable=True):
    """A biregular instance built from `degree` random perfect matchings.

    Both sides have `size` vertices.  satisfiable=True plants a labeling
    (returned alongside) whose constraints it satisfies exactly; otherwise
    shifts are uniform random and the returned labeling is just a sample.
    """
    rng = np.random.default_rng(seed)
    zu = tuple(int(x) for x in rng.integers(0, alphabet, size=size))
    zv = tuple(int(x) for x in rng.integers(0, alphabet, size=size))
    edges = []
    for _ in range(degree):
        perm = rng.permutation(size)
        for u in range(size):
            v = int(perm[u])
            if satisfiable:
                c = (zu[u] - zv[v]) % alphabet
            else:
                c = int(rng.integers(0, alphabet))
            edges.append((u, v, c))
    instance = AffineUGInstance(alphabet, size, size, tuple(edges))
    return instance, UGLabeling(alphabet, zu, zv)


_UG_FORMAT = _RecordFormat(
    UG_MAGIC,
    ("L", "|U|", "|V|", "m"),
    np.dtype([("u", np.int64), ("v", np.int64), ("c", np.int64)]),
    UGFormatError,
    build=lambda header, fields: AffineUGInstance(
        *header[:3], tuple(zip(*(f.tolist() for f in fields)))
    ),
    check=lambda header, fields: _first_problem({
        "u id out of range": (fields[0] < 0) | (fields[0] >= header[1]),
        "v id out of range": (fields[1] < 0) | (fields[1] >= header[2]),
        f"shift outside Z_{header[0]}": (fields[2] < 0) | (fields[2] >= header[0]),
    }),
)

_LABELS_FORMAT = _RecordFormat(
    LABELS_MAGIC,
    ("L", "|U|", "|V|"),
    None,
    UGFormatError,
    build=lambda header, fields: UGLabeling(header[0], *fields),
    check=lambda header, fields: _first_problem({
        f"labels must lie in Z_{header[0]}": np.array([np.any((f < 0) | (f >= header[0])) for f in fields]),
    }),
)


def parse_ug(text):
    return _read_records(text, _UG_FORMAT)


def _ug_records(instance):
    header = (instance.alphabet, instance.u_count, instance.v_count, instance.m)
    return _write_records(_UG_FORMAT, header, np.array(instance.edges, dtype=np.int64).reshape(-1, 3).T)


def format_ug(instance):
    return b"".join(_ug_records(instance)).decode()


def load_ug(path):
    return _load_records(path, parse_ug)


def save_ug(instance, path):
    _save_records(path, _ug_records(instance))


def parse_labels(text):
    return _read_records(text, _LABELS_FORMAT)


def _labels_records(labeling):
    header = (labeling.alphabet, len(labeling.u_labels), len(labeling.v_labels))
    return _write_records(_LABELS_FORMAT, header, (labeling.u_labels, labeling.v_labels))


def format_labels(labeling):
    return b"".join(_labels_records(labeling)).decode()


def load_labels(path):
    return _load_records(path, parse_labels)


def save_labels(labeling, path):
    _save_records(path, _labels_records(labeling))
