"""Long-code reduction: construction, verification, completeness ordering."""

import math
import tracemalloc

import numpy as np
import pytest

from minsumvc import (
    LABELS_MAGIC,
    UG_MAGIC,
    AffineUGInstance,
    Ordering,
    UGFormatError,
    UGLabeling,
    WeightedGraph,
    build_long_code_graph,
    completeness_ordering,
    format_labels,
    format_ug,
    load_ug,
    parse_labels,
    parse_ug,
    random_affine_instance,
    save_ug,
    svc_value,
    ug_value,
    verify_reduction,
)
from minsumvc.reduction import long_code_svc

SMALL = AffineUGInstance(2, 2, 2, ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)))


def test_instance_validation():
    with pytest.raises(ValueError):
        AffineUGInstance(0, 1, 1, ())
    with pytest.raises(ValueError):
        AffineUGInstance(2, 0, 1, ())
    with pytest.raises(ValueError):
        AffineUGInstance(2, 1, 1, ((1, 0, 0),))
    with pytest.raises(ValueError):
        AffineUGInstance(2, 1, 1, ((0, 0, 2),))
    with pytest.raises(ValueError):
        AffineUGInstance(2, 2, 2, ((0, 0, 0), (0, 1, 0), (1, 0, 0)))


def test_instance_degrees():
    assert SMALL.m == 4
    assert SMALL.u_degree == 2
    assert SMALL.v_degree == 2
    single = AffineUGInstance(3, 1, 1, ((0, 0, 2),))
    assert single.u_degree == single.v_degree == 1


def test_labeling_validation_and_shift():
    with pytest.raises(ValueError):
        UGLabeling(2, (0, 2), (0,))
    lab = UGLabeling(3, (0, 1), (2, 0))
    shifted = lab.shifted(2)
    assert shifted.u_labels == (2, 0)
    assert shifted.v_labels == (1, 2)


def test_ug_value_planted_and_shift_invariance():
    for L in (2, 3, 5):
        inst, lab = random_affine_instance(L, 6, 3, seed=L)
        assert ug_value(inst, lab) == 1.0
        # difference constraints are invariant under a global shift
        for a in range(L):
            assert ug_value(inst, lab.shifted(a)) == 1.0


def test_ug_value_counts_fractions():
    lab = UGLabeling(2, (0, 0), (0, 0))
    # constraints with shift 1 are violated by the all-zero labeling
    assert ug_value(SMALL, lab) == 0.5
    with pytest.raises(ValueError):
        ug_value(SMALL, UGLabeling(3, (0, 0), (0, 0)))
    with pytest.raises(ValueError):
        ug_value(SMALL, UGLabeling(2, (0,), (0, 0)))


def test_random_instance_unsatisfiable_flag():
    inst, lab = random_affine_instance(4, 8, 3, seed=5, satisfiable=False)
    assert inst.m == 24
    assert 0.0 <= ug_value(inst, lab) <= 1.0


def test_build_shapes_and_weight_values():
    rho = -0.5
    g = build_long_code_graph(SMALL, rho)
    assert g.n == SMALL.v_count * (1 << SMALL.alphabet)
    L = SMALL.alphabet
    allowed = {((1 + rho) / 4.0) ** (L - d) * ((1 - rho) / 4.0) ** d for d in range(L + 1)}
    for _, _, w in g.edges:
        assert any(abs(w - a) <= 1e-15 for a in allowed)
    with pytest.raises(ValueError):
        build_long_code_graph(SMALL, 0.0)
    with pytest.raises(ValueError):
        build_long_code_graph(SMALL, -1.0)
    with pytest.raises(ValueError):
        build_long_code_graph(AffineUGInstance(15, 1, 1, ((0, 0, 0),)), -0.5)


def _per_pair_graph(instance, rho):
    """The reduction graph's (u, v, w) lists, one code pair (x, y) of one (u, e1, e2) triple at a time."""
    L, size = instance.alphabet, 1 << instance.alphabet
    by_u = [[(v, c) for u, v, c in instance.edges if u == k] for k in range(instance.u_count)]

    def rotate(x, c):
        return ((x << c) | (x >> (L - c))) & (size - 1) if c else x

    u, v, w = [], [], []
    for edges in by_u:
        for v1, c1 in edges:
            for v2, c2 in edges:
                for x in range(size):
                    for y in range(size):
                        if v1 == v2 and x == y:
                            continue
                        d = bin(rotate(x, c1) ^ rotate(y, c2)).count("1")
                        u.append(v1 * size + x)
                        v.append(v2 * size + y)
                        w.append(((1.0 + rho) / 4.0) ** (L - d) * ((1.0 - rho) / 4.0) ** d)
    return u, v, w


@pytest.mark.parametrize("L", range(1, 7))
def test_build_and_the_streamed_order_path_equal_direct_constructions_bit_for_bit(L):
    inst, lab = random_affine_instance(L, 3, 2, seed=L, satisfiable=L % 2 == 0)
    order = completeness_ordering(inst, lab)
    for rho in (-0.25, -0.52, -0.75):
        g = build_long_code_graph(inst, rho)
        u, v, w = g.edge_arrays()
        assert (u.tolist(), v.tolist(), w.tolist()) == _per_pair_graph(inst, rho)
        svc, total, m = long_code_svc(inst, rho, order)
        assert (svc, total, m) == (svc_value(g, order), g.total_weight(), g.m)
        assert svc / (len(order) * total) == svc_value(g, order) / (g.n * g.total_weight())


def test_an_alphabet_past_the_limit_raises_before_any_allocation():
    wide = AffineUGInstance(15, 1, 1, ((0, 0, 0),))
    calls = (
        lambda: build_long_code_graph(wide, -0.5),
        lambda: long_code_svc(wide, -0.5, Ordering([0])),
        lambda: long_code_svc(SMALL, 0.0, Ordering(range(8))),
    )
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="alphabet limited to 14|rho must lie"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


def test_the_order_path_checks_the_ordering_length():
    with pytest.raises(ValueError, match="ordering length"):
        long_code_svc(SMALL, -0.5, Ordering(range(7)))


def test_total_weight_closed_form():
    # ordered-pair mass per u-pair block is exactly 1; loops are dropped
    for L, rho in ((2, -0.5), (3, -0.25)):
        inst, _ = random_affine_instance(L, 4, 2, seed=L)
        g = build_long_code_graph(inst, rho)
        rep = verify_reduction(g, inst, rho)
        ordered = inst.u_count * inst.u_degree**2
        assert rep.ordered_pair_total == ordered
        assert g.total_weight() == pytest.approx(ordered - rep.loop_mass_total, rel=1e-12)


def test_verify_reduction_passes_on_planted_instances():
    for L in (1, 2, 3):
        for rho in (-0.25, -0.52, -0.75):
            inst, _ = random_affine_instance(L, 4, 3, seed=10 * L)
            g = build_long_code_graph(inst, rho)
            rep = verify_reduction(g, inst, rho)
            assert rep.passed, (L, rho, rep)
            assert rep.max_incident_deviation <= 1e-9
            assert rep.total_deviation <= 1e-9
            assert rep.block_sum_deviation <= 1e-12
            assert rep.weight_values_ok


def test_verify_reduction_flags_perturbation():
    inst, _ = random_affine_instance(2, 3, 2, seed=1)
    g = build_long_code_graph(inst, -0.5)
    edges = g.edges
    u0, v0, w0 = edges[0]
    edges[0] = (u0, v0, w0 * (1.0 + 1e-3))
    bad = WeightedGraph(g.n, edges)
    rep = verify_reduction(bad, inst, -0.5)
    assert not rep.passed
    assert rep.max_incident_deviation > 1e-9


def test_verify_reduction_flags_wrong_rho():
    inst, _ = random_affine_instance(2, 3, 2, seed=2)
    g = build_long_code_graph(inst, -0.5)
    rep = verify_reduction(g, inst, -0.25)
    assert not rep.passed
    assert not rep.weight_values_ok


def test_completeness_ordering_small_case():
    inst = AffineUGInstance(2, 1, 1, ((0, 0, 0),))
    lab = UGLabeling(2, (0,), (1,))
    sigma = completeness_ordering(inst, lab)
    assert tuple(sigma) == (0, 2, 1, 3)


def test_completeness_ordering_is_a_permutation_grouped_by_key():
    inst, lab = random_affine_instance(3, 5, 2, seed=9)
    sigma = completeness_ordering(inst, lab)
    assert sorted(sigma) == list(range(inst.v_count * 8))
    # first v_count vertices carry the all-zero labeled slice
    first = list(sigma)[: inst.v_count]
    L = inst.alphabet
    for vid in first:
        v, code = vid >> L, vid & ((1 << L) - 1)
        assert code == 0 or code == (1 << (lab.v_labels[v] % L))
    with pytest.raises(ValueError):
        completeness_ordering(inst, UGLabeling(3, (), ()))


def test_completeness_ordering_meets_limit_bound():
    for L, rho in ((2, -0.52), (3, -0.52), (2, -0.75)):
        inst, lab = random_affine_instance(L, 4, 3, seed=L + 1)
        g = build_long_code_graph(inst, rho)
        sigma = completeness_ordering(inst, lab)
        normalized = svc_value(g, sigma) / (g.n * g.total_weight())
        assert normalized <= 1.0 / (3.0 - rho) + 2.0 ** (-L) + 1e-9


def test_ug_io_round_trip(tmp_path):
    text = format_ug(SMALL)
    assert text.startswith(UG_MAGIC + "\n")
    again = parse_ug(text)
    assert again == SMALL
    path = tmp_path / "inst.ug"
    save_ug(SMALL, path)
    assert load_ug(path) == SMALL


def test_ug_format_errors_carry_line_numbers():
    with pytest.raises(UGFormatError, match="line 1"):
        parse_ug("wrong\n")
    with pytest.raises(UGFormatError, match="line 2"):
        parse_ug(UG_MAGIC + "\n")
    with pytest.raises(UGFormatError, match="line 2"):
        parse_ug(UG_MAGIC + "\n2 2 2\n")
    with pytest.raises(UGFormatError, match="line 3"):
        parse_ug(UG_MAGIC + "\n2 1 1 1\n0 0\n")
    with pytest.raises(UGFormatError, match="line 3"):
        parse_ug(UG_MAGIC + "\n2 1 1 1\nx y z\n")
    with pytest.raises(UGFormatError, match="line 4"):
        parse_ug(UG_MAGIC + "\n2 1 1 1\n0 0 1\n0 0 1\ngarbage\n")
    with pytest.raises(UGFormatError, match="line 2"):
        parse_ug(UG_MAGIC + "\n2 1 1 -1\n")
    with pytest.raises(UGFormatError, match="line 5"):
        parse_ug(UG_MAGIC + "\n2 1 1 2\n0 0 1\n\n0 0\n")
    with pytest.raises(UGFormatError, match="line 5"):
        parse_ug(UG_MAGIC + "\n2 1 1 1\n0 0 1\n\n0 0 1\n")
    with pytest.raises(UGFormatError, match="line 3: shift outside Z_2"):
        parse_ug(UG_MAGIC + "\n2 1 1 1\n0 0 5\n")
    with pytest.raises(UGFormatError, match="line 4: shift outside Z_2"):
        parse_ug(UG_MAGIC + "\n2 1 1 2\n0 0 1\n0 0 2\n")
    with pytest.raises(UGFormatError, match="line 5: v id out of range"):
        parse_ug(UG_MAGIC + "\n2 1 1 2\n0 0 1\n\n0 1 0\n")
    with pytest.raises(UGFormatError, match="line 4: u id out of range"):
        parse_ug(UG_MAGIC + "\n2 2 1 2\n0 0 1\n-1 0 0\n")
    assert parse_ug(UG_MAGIC + "\n2 1 1 1\n\n0 0 1\n\n") == parse_ug(UG_MAGIC + "\n2 1 1 1\n0 0 1\n")


def test_labels_io_round_trip_and_errors():
    lab = UGLabeling(3, (0, 2), (1, 0, 2))
    text = format_labels(lab)
    assert text.startswith(LABELS_MAGIC + "\n")
    again = parse_labels(text)
    assert again == lab
    with pytest.raises(UGFormatError, match="line 1"):
        parse_labels("nope\n")
    with pytest.raises(UGFormatError, match="line 3: labels must lie in Z_3"):
        parse_labels(LABELS_MAGIC + "\n3 2 1\n0 5\n1\n")
    with pytest.raises(UGFormatError, match="line 5: labels must lie in Z_3"):
        parse_labels(LABELS_MAGIC + "\n3 2 1\n0 1\n\n3\n")
    with pytest.raises(UGFormatError, match="line 4: labels must lie in Z_3"):
        parse_labels(LABELS_MAGIC + "\n3 2 1\n0 1\n-1\n")
    with pytest.raises(UGFormatError, match="line 5"):
        parse_labels(LABELS_MAGIC + "\n3 2 1\n0 1\n\n1 2\n")
    with pytest.raises(UGFormatError, match="line 6"):
        parse_labels(LABELS_MAGIC + "\n3 2 1\n0 1\n2\n\n1\n")
    assert parse_labels(LABELS_MAGIC + "\n3 2 3\n\n0 2\n\n1 0 2\n") == lab


def test_verify_reduction_rejects_the_graph_of_another_alphabet():
    instance, _ = random_affine_instance(2, 3, 2, seed=0)
    wider, _ = random_affine_instance(3, 3, 2, seed=0)
    graph = build_long_code_graph(wider, -0.5)
    with pytest.raises(ValueError, match="^graph has 24 vertices, the instance's reduction has 12$"):
        verify_reduction(graph, instance, -0.5)
