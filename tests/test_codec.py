"""The byte record codec shared by the four text formats."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from minsumvc import (
    AffineUGInstance,
    GraphFormatError,
    HardnessConfig,
    UGLabeling,
    WeightedGraph,
    build_long_code_graph,
    format_hardness_config,
    format_labels,
    format_ug,
    load_graph,
    load_hardness_config,
    load_labels,
    load_ug,
    parse_hardness_config,
    parse_labels,
    parse_ug,
    random_affine_instance,
    read_graph,
    save_graph,
    save_hardness_config,
    save_labels,
    save_ug,
    write_graph,
)
from minsumvc import graph as graph_module
from minsumvc.graph import _GRAPH_FORMAT
from minsumvc.hardness import _CONFIG_FORMAT
from minsumvc.reduction import _LABELS_FORMAT, _UG_FORMAT

from _oracles import load_records_text, read_records_text, write_records_text

CODEC = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Rows per written chunk: 1 to 5 put small tables on both sides of a chunk
# boundary; the last is the module's own constant.
CHUNK_ROWS = st.sampled_from([1, 2, 3, 4, 5, graph_module._CHUNK_ROWS])

SUBNORMAL = 5e-324
WEIGHTS = st.one_of(
    st.sampled_from([1.0, 0.5, 2.0, 1e15 - 1.0, 1e15, np.nextafter(1e15, 0.0), 1e15 + 2.0,
                     SUBNORMAL, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0)]),
    st.integers(1, 10**17).map(float),
    st.floats(min_value=SUBNORMAL, max_value=1e308, allow_nan=False, allow_infinity=False),
)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 40))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(st.tuples(ends, WEIGHTS), max_size=14))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges])


def _bits(g):
    u, v, w = g.edge_arrays()
    return g.n, u.tolist(), v.tolist(), w.view(np.uint64).tolist()


@CODEC
@given(g=graphs(), rows=CHUNK_ROWS)
@example(g=WeightedGraph(3, []), rows=4)
@example(g=WeightedGraph(3, [(0, 2, 1e15 - 1.0)]), rows=4)
@example(g=WeightedGraph(2, [(0, 1, 1e15), (1, 0, SUBNORMAL), (0, 1, 1e-310)]), rows=4)
@example(g=WeightedGraph(5, [(i, i + 1, 0.1 * (i + 1)) for i in range(4)]), rows=4)
@example(g=WeightedGraph(6, [(i, i + 1, 0.1 * (i + 1)) for i in range(5)]), rows=4)
@example(g=WeightedGraph(9, [(i, i + 1, 3.0) for i in range(8)]), rows=4)
def test_graph_codec_matches_the_str_oracle(tmp_path, g, rows):
    path = tmp_path / "g.graph"
    with mock.patch.object(graph_module, "_CHUNK_ROWS", rows):
        text = write_graph(g)
        save_graph(g, path)
    assert text == write_records_text(_GRAPH_FORMAT, (g.n, g.m), g.edge_arrays())
    assert path.read_bytes() == text.encode()
    assert _bits(read_graph(text)) == _bits(g)
    assert _bits(load_graph(path)) == _bits(g)
    assert _bits(read_records_text(text, _GRAPH_FORMAT)) == _bits(g)


@st.composite
def ug_files(draw):
    """(instance, labeling) of a biregular instance with |U| = |V|."""
    alphabet = draw(st.integers(1, 300))
    size = draw(st.integers(1, 6))
    degree = draw(st.integers(0, 3))
    matchings = [draw(st.permutations(range(size))) for _ in range(degree)]
    shift = st.integers(0, alphabet - 1)
    edges = [(u, perm[u], draw(shift)) for perm in matchings for u in range(size)]
    labels = st.lists(shift, min_size=size, max_size=size)
    return AffineUGInstance(alphabet, size, size, edges), UGLabeling(alphabet, draw(labels), draw(labels))


CONFIGS = st.lists(
    st.tuples(
        st.floats(min_value=SUBNORMAL, max_value=1e300, allow_nan=False, allow_infinity=False),
        st.floats(min_value=-0.999, max_value=-1e-6),
    ),
    min_size=1,
    max_size=9,
).map(HardnessConfig)


@CODEC
@given(files=ug_files(), cfg=CONFIGS, rows=CHUNK_ROWS)
@example(
    files=(AffineUGInstance(5, 2, 2, [(0, 1, 4), (1, 0, 0)]), UGLabeling(5, (1, 2), (3, 4))),
    cfg=HardnessConfig(((1.0, -0.5), (0.25, -0.125), (3.0, -0.75), (2.0, -0.25), (1.5, -0.625))),
    rows=4,
)
def test_ug_labels_and_config_files_round_trip(tmp_path, files, cfg, rows):
    instance, labeling = files
    path = tmp_path / "f"
    ug_header = (instance.alphabet, instance.u_count, instance.v_count, instance.m)
    cases = [
        (instance, format_ug, save_ug, parse_ug, load_ug, _UG_FORMAT, ug_header,
         np.array(instance.edges, dtype=np.int64).reshape(-1, 3).T),
        (labeling, format_labels, save_labels, parse_labels, load_labels, _LABELS_FORMAT,
         (labeling.alphabet, len(labeling.u_labels), len(labeling.v_labels)),
         (labeling.u_labels, labeling.v_labels)),
        (cfg, format_hardness_config, save_hardness_config, parse_hardness_config,
         load_hardness_config, _CONFIG_FORMAT, (cfg.k,), (cfg.alphas, cfg.rhos)),
    ]
    for obj, fmt_text, save, parse, load, fmt, header, fields in cases:
        with mock.patch.object(graph_module, "_CHUNK_ROWS", rows):
            text = fmt_text(obj)
            save(obj, path)
        assert text == write_records_text(fmt, header, fields)
        assert path.read_bytes() == text.encode()
        back = load(path)
        assert back == parse(text) == read_records_text(text, fmt)
        # the config writes 10 significant digits: exact after one round
        assert fmt_text(back) == text
        if fmt is not _CONFIG_FORMAT:
            assert back == obj


FILES = {
    "graph": (load_graph, _GRAPH_FORMAT, b"msvc-graph 1\n3 2\n0 1 1.5\n1 2 2\n", "expected 'u v w'"),
    "ug": (load_ug, _UG_FORMAT, b"msvc-ug 1\n3 2 2 2\n0 1 2\n1 0 0\n", "expected 'u v c'"),
    "labels": (load_labels, _LABELS_FORMAT, b"msvc-labels 1\n3 2 2\n0 1\n2 2\n", "expected 2 integers"),
    "config": (load_hardness_config, _CONFIG_FORMAT, b"msvc-hardness 1\n2\n1 -0.5\n2 -0.25\n",
               "expected 'alpha rho'"),
}


@pytest.mark.parametrize("kind", sorted(FILES))
def test_loaders_accept_crlf_and_reject_bare_cr(tmp_path, kind):
    load, fmt, data, _ = FILES[kind]
    path = tmp_path / kind
    path.write_bytes(data)
    expected = load(path)
    path.write_bytes(data.replace(b"\n", b"\r\n"))
    assert load(path) == load_records_text(path, fmt) == expected
    path.write_bytes(data.replace(b"\n", b"\r"))
    with pytest.raises(fmt.error, match="^line 1: expected header"):
        load(path)


@pytest.mark.parametrize("kind", sorted(FILES))
@pytest.mark.parametrize("byte", [b"\xe9", b"\xa0", b"\xc2\xa0", b"\xff"])
def test_a_non_ascii_byte_is_an_error_on_its_line(tmp_path, kind, byte):
    load, fmt, data, reason = FILES[kind]
    lines = data.split(b"\n")
    path = tmp_path / kind
    for number in (1, 2, 4):
        bad = lines.copy()
        bad[number - 1] += byte
        path.write_bytes(b"\n".join(bad))
        expected = {1: "line 1: expected header", 2: "line 2: expected"}.get(number, f"line 4: {reason}")
        with pytest.raises(fmt.error, match=f"^{expected}"):
            load(path)
    # after the last row, in a blank-looking line
    path.write_bytes(data + b"\n" + byte + b"\n")
    with pytest.raises(fmt.error, match="^line 6: "):
        load(path)


def test_a_str_with_a_lone_surrogate_is_an_error_on_its_line():
    with pytest.raises(GraphFormatError, match="^line 4: expected 'u v w'"):
        read_graph("msvc-graph 1\n3 2\n0 1 1.5\n1 2 2\ud800\n")


def test_save_and_load_graph_peaks_stay_near_the_file_size(tmp_path):
    """Traced peaks in units of the file size, on a 260,864-edge long-code graph."""
    instance, _ = random_affine_instance(7, 4, 2, seed=0)
    g = build_long_code_graph(instance, -0.52)
    assert g.m >= 1 << 17
    path = tmp_path / "long_code.graph"
    tracemalloc.start()
    try:
        save_graph(g, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_graph(path)
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert loaded == g
    assert save_peak < 2.5 * size
    assert load_peak < 3.25 * size
