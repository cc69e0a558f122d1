"""Blow-up, gadget sampling, and the full unweighting pipeline."""

import json
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from minsumvc import (
    AffineUGInstance,
    GadgetSamplingError,
    GadgetSpec,
    Ordering,
    WeightedGraph,
    blow_up,
    build_long_code_graph,
    complete_graph,
    msvc_exact_dp,
    path_graph,
    sample_gadget,
    save_graph,
    svc_value,
    unweight,
)
from minsumvc.cli import main
from minsumvc.unweighting import (
    SubsetCheck,
    _certified_subset_check,
    _disjoint_matching,
    _exhaustive_subset_check,
    _pad_to_target,
    _sample_attempt,
)

from _oracles import min_subset_density, pad_to_target_rounds


def test_blow_up_single_edge():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    big, bmap = blow_up(g, 2)
    assert big.n == 4 and big.m == 4
    assert big.total_weight() == 4.0
    assert set(bmap.block(0)) == {0, 1}
    assert set(bmap.block(1)) == {2, 3}
    assert sorted(bmap.image((0, 1))) == [0, 1, 2, 3]
    pairs = {(min(u, v), max(u, v)) for u, v, _ in big.edges}
    assert pairs == {(0, 2), (0, 3), (1, 2), (1, 3)}
    with pytest.raises(ValueError):
        blow_up(g, 0)
    with pytest.raises(ValueError):
        bmap.block(2)


def test_blow_up_identity():
    g = path_graph(4, weight=0.5)
    big, _ = blow_up(g, 1)
    assert big == WeightedGraph.from_arrays(4, *(np.asarray(col) for col in zip(*g.edges)))


def test_blow_up_preserves_subset_density():
    # the image of any subset holds exactly the m^2-scaled inside weight
    g = WeightedGraph(4, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.25), (0, 3, 0.25)])
    m = 3
    big, bmap = blow_up(g, m)
    assert big.total_weight() == pytest.approx(m * m * g.total_weight(), rel=1e-12)
    for k in (1, 2, 3):
        for subset in combinations(range(4), k):
            inside = sum(w for u, v, w in g.edges if u in subset and v in subset)
            image = set(bmap.image(subset))
            inside_big = sum(w for u, v, w in big.edges if u in image and v in image)
            assert inside_big == pytest.approx(m * m * inside, rel=1e-12)


def test_blow_up_block_ordering_value_formula():
    # visiting blocks in an original order sigma gives, per edge of cover
    # time t: m^3 (t - 1) + m^2 (m + 1) / 2 times its weight
    g = complete_graph(3)
    m = 3
    big, bmap = blow_up(g, m)
    sigma = (2, 0, 1)
    block_order = [x for v in sigma for x in bmap.block(v)]
    base = svc_value(g, Ordering(sigma))
    total = g.total_weight()
    expected = m**3 * (base - total) + total * m**2 * (m + 1) / 2.0
    assert svc_value(big, Ordering(block_order)) == pytest.approx(expected, rel=1e-12)


def test_blow_up_normalized_msvc_does_not_increase():
    g = complete_graph(3)
    big, _ = blow_up(g, 2)
    norm = msvc_exact_dp(g).value / (g.n * g.total_weight())
    norm_big = msvc_exact_dp(big).value / (big.n * big.total_weight())
    assert norm_big <= norm + 1e-12


def test_gadget_spec_validation():
    spec = GadgetSpec(8, 0.5, Fraction(1, 4), seed=0)
    assert spec.target_degree == 5
    assert spec.band == (3, 5)
    assert spec.eps == Fraction(1, 4)
    with pytest.raises(ValueError):
        GadgetSpec(8, 0.0, Fraction(1, 4), 0)
    with pytest.raises(ValueError):
        GadgetSpec(8, 1.0, Fraction(1, 4), 0)
    with pytest.raises(ValueError):
        GadgetSpec(8, 0.5, Fraction(3, 4), 0)
    with pytest.raises(ValueError, match="0.3"):
        # (1 + 1/4) * 0.3 * 8 = 3 works; m = 6 gives 2.25, not integral
        GadgetSpec(6, 0.3, Fraction(1, 4), 0)


def test_sample_gadget_exact_degrees_and_budget():
    for seed in range(8):
        res = sample_gadget(GadgetSpec(8, 0.5, Fraction(1, 4), seed))
        adj = res.adjacency
        assert adj.shape == (8, 8)
        assert list(adj.sum(axis=1)) == [5] * 8
        assert list(adj.sum(axis=0)) == [5] * 8
        assert res.retries < 64
        assert res.sampled_edges + res.added_edges == res.edge_count == 40
        assert res.added_edges <= 2.0 * 0.25 * 0.5 * 64


def test_sample_gadget_deterministic():
    a = sample_gadget(GadgetSpec(10, 0.5, Fraction(1, 5), 7))
    b = sample_gadget(GadgetSpec(10, 0.5, Fraction(1, 5), 7))
    assert np.array_equal(a.adjacency, b.adjacency)
    assert a.retries == b.retries and a.added_edges == b.added_edges


def test_sample_gadget_forced_complete():
    # weight and eps tuned so the target degree is m itself
    res = sample_gadget(GadgetSpec(4, 0.8, Fraction(1, 4), 3))
    assert np.all(res.adjacency == 1)
    assert res.subset_check.max_deviation <= res.subset_check.bound


def _shuffled_circulant(m, k, seed):
    """An m x m adjacency of k disjoint perfect matchings, rows and columns shuffled.

    Its non-edges form an (m - k)-regular bipartite graph, so each of them
    lies in some perfect matching (Konig).
    """
    rng = np.random.default_rng(seed)
    rows, cols = rng.permutation(m), rng.permutation(m)
    return (rows[:, None] - cols[None, :]) % m < k


def test_disjoint_matching_is_a_permutation_avoiding_adj():
    for m, k in ((1, 0), (2, 1), (6, 3), (16, 8), (48, 30), (48, 47)):
        adj = _shuffled_circulant(m, k, m + k)
        for seed in range(20):
            cols = _disjoint_matching(adj, np.random.default_rng(seed))
            assert sorted(cols.tolist()) == list(range(m))
            assert not adj[np.arange(m), cols].any()
    # a full row or a full column leaves no perfect matching
    adj = np.zeros((5, 5), dtype=bool)
    adj[2] = True
    assert _disjoint_matching(adj, np.random.default_rng(0)) is None
    assert _disjoint_matching(adj.T.copy(), np.random.default_rng(0)) is None


def test_disjoint_matching_meets_every_column_a_row_may_take():
    adj = _shuffled_circulant(7, 3, 0)
    met = np.zeros_like(adj)
    for seed in range(200):
        cols = _disjoint_matching(adj, np.random.default_rng(seed))
        met[np.arange(7), cols] = True
    assert np.array_equal(met, ~adj)


def test_partial_matching_keeps_degrees_within_one():
    for m, w in ((8, 0.5), (10, 0.35), (48, 9 / 64), (48, 3 / 64), (12, 5 / 8)):
        full = int(np.floor(w * m + 1e-12))
        for seed in range(20):
            adj = _sample_attempt(m, w, np.random.default_rng(seed))
            for degrees in (adj.sum(axis=1), adj.sum(axis=0)):
                assert full <= degrees.min() and degrees.max() <= full + 1


def test_padding_matches_the_round_by_round_loop():
    # the same first-fit completion, and the same rng draws, as the loop that
    # read each round's deficits off the adjacency with numpy indexing
    outcomes = set()
    for m, w, target in ((8, 0.5, 5), (12, 5 / 8, 9), (16, 0.5, 10), (48, 9 / 64, 9), (6, 0.5, 4)):
        for seed in range(30):
            adj = _sample_attempt(m, w, np.random.default_rng(seed))
            if adj is None:
                continue
            old = adj.copy()
            added = _pad_to_target(adj, target - adj.sum(axis=1), target - adj.sum(axis=0),
                                   np.random.default_rng([seed, 1]))
            assert added == pad_to_target_rounds(old, target, np.random.default_rng([seed, 1]))
            if added is not None:
                assert np.array_equal(adj, old)
                assert set(adj.sum(axis=0)) == set(adj.sum(axis=1)) == {target}
            outcomes.add(added is None)
    assert outcomes == {True, False}


# (m, w, eps) and the mean retries over seeds 0-39 of the per-row matching
# sampler that the whole-array one replaced
RETRY_CASES = [
    (8, 0.5, Fraction(1, 4), 1.1), (10, 0.5, Fraction(1, 5), 1.72), (6, 0.5, Fraction(1, 3), 1.48),
    (16, 0.5, Fraction(1, 4), 2.3), (32, 0.5, Fraction(1, 4), 4.53), (64, 3 / 8, Fraction(1, 3), 2.0),
    (12, 5 / 8, Fraction(1, 5), 4.68), (48, 9 / 64, Fraction(1, 3), 0.18), (48, 3 / 64, Fraction(1, 3), 0.0),
]


@pytest.mark.parametrize("m, w, eps, before", RETRY_CASES)
def test_gadget_retries_stay_near_the_per_row_sampler(m, w, eps, before):
    retries = [sample_gadget(GadgetSpec(m, w, eps, seed)).retries for seed in range(40)]
    assert np.mean(retries) <= 1.5 * before + 0.5


def test_dense_gadgets_draw_every_matching():
    # floor(wm) = m - 1 or m - 2: the last matchings must avoid all but two
    # or three columns of each row, where the per-row sampler ran out of
    # retries for every one of these seeds
    for m, w, eps in ((48, 47 / 48, Fraction(1, 47)), (32, 15 / 16, Fraction(1, 15))):
        for seed in range(5):
            res = sample_gadget(GadgetSpec(m, w, eps, seed))
            assert res.adjacency.all() and res.subset_check.passed


def test_unweight_of_a_benchmark_shaped_graph_prints_what_it_did(tmp_path, capsys):
    # an L = 2 reduction graph of 224 edges, m = 48, eps = 1/3: the gadgets
    # differ from those of the per-row sampler, but stdout and the
    # certificate counts do not
    instance = AffineUGInstance(2, 4, 4, tuple((u, (u + j) % 4, u * j % 2) for j in range(2) for u in range(4)))
    save_graph(build_long_code_graph(instance, -0.5), tmp_path / "in.graph")
    argv = ["unweight", "--input", str(tmp_path / "in.graph"), "--m", "48", "--eps", "1/3", "--seed", "0",
            "--out", str(tmp_path / "out.graph")]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == (
        '{\n  "n": 768,\n  "m": 47616,\n  "degree_spread": 0,\n  "degree_histogram": {\n    "124": 768\n  },\n'
        '  "slack_3eps_blowup": 35712.0,\n  "slack_2eps_output": 31744.0\n}\n'
    )
    assert json.loads(err.splitlines()[0])["certificates"] == {"degree": 224}


def test_subset_check_matches_direct_enumeration():
    # same maximum deviation as brute force over all subset pairs
    for seed in (0, 1, 2):
        res = sample_gadget(GadgetSpec(6, 0.5, Fraction(1, 3), seed))
        adj = res.adjacency.astype(float)
        w = res.spec.weight
        worst = 0.0
        for ka in range(7):
            for sa in combinations(range(6), ka):
                rows = adj[list(sa), :].sum(axis=0)
                for kb in range(7):
                    for sb in combinations(range(6), kb):
                        e = rows[list(sb)].sum()
                        worst = max(worst, abs(e - w * ka * kb))
        assert res.subset_check.mode == "exact"
        assert res.subset_check.max_deviation == pytest.approx(worst, abs=1e-9)
        assert res.subset_check.pairs_checked == 2**6 * 2**6


def test_subset_check_degree_certificate_on_larger_gadgets():
    # the first bound term leads at w = 1/2, the second at w = 1/64 (the
    # tightest case of the README's m = 48 example: 35.25 <= 36)
    for m, w, eps, d in ((16, 0.5, Fraction(1, 4), 10), (48, 1 / 64, Fraction(1, 3), 1)):
        res = sample_gadget(GadgetSpec(m, w, eps, 1))
        assert res.spec.target_degree == d
        assert res.subset_check.mode == "degree"
        assert res.subset_check.pairs_checked == 0
        assert res.subset_check.passed
        assert res.subset_check.margin >= 0.0
        assert res.subset_check.max_deviation == max(d * d / (4 * w), w * m * (m - d))


def test_subset_certificates_bound_the_exhaustive_deviation():
    # every certificate, passing or not, bounds the exact maximum deviation;
    # a zero limit forces mode none (the smaller of the two bounds), and an
    # irregular adjacency leaves only the spectral bound
    specs = [
        (6, 0.5, Fraction(1, 3)), (6, 0.25, Fraction(1, 3)),
        (8, 0.5, Fraction(1, 4)), (8, 0.3, Fraction(1, 4)), (8, 4 / 9, Fraction(1, 8)),
        (10, 0.4, Fraction(1, 4)), (10, 0.3, Fraction(1, 3)), (10, 6 / 11, Fraction(1, 10)),
        (12, 0.5, Fraction(1, 6)), (12, 0.2, Fraction(1, 4)), (12, 6 / 13, Fraction(1, 12)),
        # d - wm is the top singular value: the spectral bound is attained
        (10, 0.75, Fraction(1, 3)), (11, 8 / 11, Fraction(1, 4)),
    ]
    modes = set()
    for m, w, eps in specs:
        for seed in range(3):
            res = sample_gadget(GadgetSpec(m, w, eps, seed))
            bound = res.subset_check.bound
            exact = res.subset_check.max_deviation
            for adj, limit in ((res.adjacency, bound), (res.adjacency, 0.0)):
                cert = _certified_subset_check(adj, w, limit)
                assert cert.max_deviation >= exact
                modes.add(cert.mode)
            irregular = res.adjacency.copy()
            irregular[tuple(np.argwhere(irregular)[seed])] = False
            cert = _certified_subset_check(irregular, w, np.inf)
            assert cert.mode == "spectral"
            assert cert.max_deviation >= _exhaustive_subset_check(irregular, w, bound).max_deviation
    assert modes == {"degree", "none"}


def test_subset_check_falls_back_to_spectral_below_eps_0101():
    # eps < 5 - sqrt(24): (1+eps)^2 > 12 eps, so the degree bound never fits,
    # and at these sizes the spectral bound does not either; at m = 16
    # enumeration still proves the bound, at m = 24 nothing does
    res = sample_gadget(GadgetSpec(16, 8 / 17, Fraction(1, 16), 0))
    check = res.subset_check
    assert check.mode == "exact" and check.passed and check.pairs_checked == 1 << 32
    assert check.max_deviation == _exhaustive_subset_check(res.adjacency, 8 / 17, check.bound).max_deviation
    assert _certified_subset_check(res.adjacency, 8 / 17, check.bound).mode == "none"
    with pytest.raises(GadgetSamplingError, match="no subset certificate"):
        sample_gadget(GadgetSpec(24, 0.5, Fraction(1, 12), 0))
    # large enough for the expander mixing lemma: sigma_max(A - wJ) * m
    res = sample_gadget(GadgetSpec(100, 0.5, Fraction(1, 10), 0))
    a = res.adjacency.astype(float)
    check = res.subset_check
    assert check.mode == "spectral" and check.passed and check.pairs_checked == 0
    assert check.max_deviation == pytest.approx(np.linalg.svd(a - 0.5)[1][0] * 100, rel=1e-8)
    # it dominates the best column set for 2000 random row sets
    rows = np.random.default_rng(0).integers(0, 2, size=(2000, 100))
    counts = np.sort(rows @ a, axis=1)
    k = np.arange(101)
    top = np.concatenate([np.zeros((2000, 1)), np.cumsum(counts[:, ::-1], axis=1)], axis=1)
    bot = np.concatenate([np.zeros((2000, 1)), np.cumsum(counts, axis=1)], axis=1)
    expected = 0.5 * rows.sum(axis=1)[:, None] * k[None, :]
    assert check.max_deviation >= max(np.max(top - expected), np.max(expected - bot))


def test_subset_check_passes_only_with_a_certificate():
    assert SubsetCheck("degree", 0, 1.0, 2.0).passed
    assert not SubsetCheck("degree", 0, 3.0, 2.0).passed
    assert not SubsetCheck("none", 0, 1.0, 2.0).passed


def test_unweight_single_edge():
    g = WeightedGraph(2, [(0, 1, 0.5)])
    out, rep = unweight(g, 8, Fraction(1, 4), seed=11)
    assert out.n == 16
    assert out.is_unit_weighted()
    assert list(out.degrees()) == [5] * 16
    assert rep.degree_spread == 0
    assert rep.degree_histogram == {5: 16}
    assert rep.output_edge_count == 40
    assert rep.blowup_total_weight == pytest.approx(64 * 0.5)
    assert rep.slack_3eps_blowup == pytest.approx(3 * 0.25 * 32.0)
    assert rep.slack_2eps_output == pytest.approx(2 * 0.25 * 40)
    assert len(rep.gadgets) == 1


def test_unweight_two_weights_and_determinism():
    g = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.3)])
    out1, rep1 = unweight(g, 8, Fraction(1, 4), seed=5)
    out2, _ = unweight(g, 8, Fraction(1, 4), seed=5)
    assert out1 == out2
    # middle block sees both gadgets: degree 5 + 3; ends see one each
    assert rep1.degree_histogram == {3: 8, 5: 8, 8: 8}
    out3, _ = unweight(g, 8, Fraction(1, 4), seed=6)
    assert out1 != out3


# 2^31 // 48 * 48 < 2^31 <= (2^31 // 48 + 1) * 48: the last two edges take an id times m past 2^31
@pytest.mark.parametrize("n, ends", [
    (2**31 // 48 + 1, (2**31 // 48, 0)),
    (2**31 // 48 + 2, (2**31 // 48 + 1, 0)),
    (2**31 // 48 + 2, (0, 2**31 // 48 + 1)),
])
def test_unweight_past_2_to_the_31_vertices_fails_the_vertex_count_check(n, ends):
    """Ids times m are computed in 64 bits: they do not wrap into the int32 range, and warn nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^vertex count must be below 2\^31, got {n * 48}$"):
            unweight(WeightedGraph(n, [(*ends, 0.5)]), 48, Fraction(1, 3), 0)


def test_unweight_rejects_unrealizable_weight():
    g = WeightedGraph(2, [(0, 1, 0.37)])
    with pytest.raises(ValueError):
        unweight(g, 8, Fraction(1, 4), seed=0)


def test_unweight_normalized_value_stays_in_band():
    # single edge of weight 1/2: normalized msvc is exactly 1/2; the
    # unit-weight stand-in must stay within the 3 eps envelope
    g = WeightedGraph(2, [(0, 1, 0.5)])
    out, _ = unweight(g, 8, Fraction(1, 4), seed=2)
    norm = msvc_exact_dp(g).value / (g.n * g.total_weight())
    norm_out = msvc_exact_dp(out).value / (out.n * out.total_weight())
    assert abs(norm_out - norm) <= 3 * 0.25 + 1.0 / 8


def test_unweight_output_min_density_respects_gadget_bound():
    g = WeightedGraph(2, [(0, 1, 0.5)])
    out, rep = unweight(g, 6, Fraction(1, 3), seed=4)
    res = rep.gadgets[0]
    half = min_subset_density(out, out.n // 2)
    assert res.subset_check.passed
    assert 0.0 <= half.min_density <= 1.0
