"""The byte record codec shared by the four text formats."""

import io
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
    Ordering,
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
    svc_value,
    write_graph,
)
from minsumvc import graph as graph_module
from minsumvc.graph import _GRAPH_FORMAT
from minsumvc.hardness import _CONFIG_FORMAT
from minsumvc.reduction import _LABELS_FORMAT, _UG_FORMAT, long_code_svc

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

# Bytes per block read: 1 to 8 end blocks inside and at the ends of rows;
# the last is the module's own constant.
BLOCK_BYTES = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, graph_module._BLOCK_BYTES])

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
@given(g=graphs(), rows=CHUNK_ROWS, block=BLOCK_BYTES)
@example(g=WeightedGraph(3, []), rows=4, block=1)
@example(g=WeightedGraph(3, [(0, 2, 1e15 - 1.0)]), rows=4, block=3)
@example(g=WeightedGraph(2, [(0, 1, 1e15), (1, 0, SUBNORMAL), (0, 1, 1e-310)]), rows=4, block=8)
@example(g=WeightedGraph(5, [(i, i + 1, 0.1 * (i + 1)) for i in range(4)]), rows=4, block=4)
@example(g=WeightedGraph(6, [(i, i + 1, 0.1 * (i + 1)) for i in range(5)]), rows=4, block=6)
@example(g=WeightedGraph(9, [(i, i + 1, 3.0) for i in range(8)]), rows=4, block=1 << 16)
def test_graph_codec_matches_the_str_oracle(tmp_path, g, rows, block):
    path = tmp_path / "g.graph"
    with mock.patch.object(graph_module, "_CHUNK_ROWS", rows):
        text = write_graph(g)
        save_graph(g, path)
    assert text == write_records_text(_GRAPH_FORMAT, (g.n, g.m), g.edge_arrays())
    assert path.read_bytes() == text.encode()
    with mock.patch.object(graph_module, "_BLOCK_BYTES", block):
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
@given(files=ug_files(), cfg=CONFIGS, rows=CHUNK_ROWS, block=BLOCK_BYTES)
@example(
    files=(AffineUGInstance(5, 2, 2, [(0, 1, 4), (1, 0, 0)]), UGLabeling(5, (1, 2), (3, 4))),
    cfg=HardnessConfig(((1.0, -0.5), (0.25, -0.125), (3.0, -0.75), (2.0, -0.25), (1.5, -0.625))),
    rows=4,
    block=5,
)
def test_ug_labels_and_config_files_round_trip(tmp_path, files, cfg, rows, block):
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
        with mock.patch.object(graph_module, "_BLOCK_BYTES", block):
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


# Per table format: reader of bytes, loader, format, header for a row
# count, six valid rows, and rows that break a token, the column count,
# the format's check or its build.
TABLES = {
    "graph": (read_graph, load_graph, _GRAPH_FORMAT, b"msvc-graph 1\n4 %d\n",
              [b"0 1 1.5", b"1 2 2", b"2 3 0.25", b"3 0 4", b"0 2 1e-3", b"1 3 7"],
              [b"0 1 x", b"0 1", b"0 1 1 1", b"2 2 1", b"0 4 1", b"0 1 -1"]),
    "ug": (parse_ug, load_ug, _UG_FORMAT, b"msvc-ug 1\n3 3 3 %d\n",
           [b"0 0 1", b"0 1 2", b"1 1 0", b"1 2 1", b"2 2 2", b"2 0 0"],
           [b"0 x 1", b"0 0", b"3 0 1", b"0 0 3", b"0 2 1"]),
    "config": (parse_hardness_config, load_hardness_config, _CONFIG_FORMAT, b"msvc-hardness 1\n%d\n",
               [b"1 -0.5", b"2 -0.25", b"0.5 -0.75", b"3 -0.125", b"1e-3 -0.999", b"4 -0.5"],
               [b"1 y", b"1", b"1 -0.5 2", b"0 -0.5", b"1 -1.5"]),
}


def _table_texts(header, rows, bad_rows):
    """Valid texts, and texts with a problem at each row in turn.

    Read with blocks of every size up to a few rows, each problem falls
    first, inside and last in a block; surplus rows fall in later blocks.
    """
    k = len(rows)
    yield header % k + b"\n".join(rows) + b"\n"
    yield header % k + b"\n".join(rows)
    yield header % k + b"\r\n \r\n\r\n".join(rows) + b"\r\n\t\r\n"
    yield header % 0 + b"\n \n"
    for i in range(k):
        for bad in bad_rows:
            yield header % k + b"\n".join(rows[:i] + [bad] + rows[i + 1 :]) + b"\n"
        yield header % k + b"\r\n\r\n".join(rows[:i] + [rows[i] + b"\xe9"] + rows[i + 1 :])
        yield header % k + b"\n".join(rows[:i]) + b"\n\n"
        yield header % k + b"\n".join(rows + [b""] * i + rows[i:]) + b"\n"
        yield header % i + b"\n\n".join(rows) + b"\n"


def _outcome(read):
    """("ok", what was read) or (the error's type, its message)."""
    try:
        result = read()
    except ValueError as exc:
        return type(exc), str(exc)
    return "ok", _bits(result) if isinstance(result, WeightedGraph) else result


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_tables_read_in_blocks_fail_like_the_str_oracle(tmp_path, kind):
    parse, load, fmt, header, rows, bad_rows = TABLES[kind]
    path = tmp_path / kind
    messages = []
    for text in _table_texts(header, rows, bad_rows):
        expected = _outcome(lambda: read_records_text(text.decode(errors="replace"), fmt))
        messages.append(expected[1] if expected[0] == fmt.error else "ok")
        path.write_bytes(text)
        for block in range(1, 4 * len(rows[0]) + 1):
            with mock.patch.object(graph_module, "_BLOCK_BYTES", block):
                assert _outcome(lambda: parse(text)) == expected, (text, block)
                assert _outcome(lambda: load(path)) == expected, (text, block)
    # the texts read, and fail at every row for several reasons
    assert "ok" in messages
    assert len(set(messages)) > 3 * len(rows)


@pytest.mark.parametrize("kind, data", [
    ("graph", b"msvc-graph 1\n3 1000000000000\n0 1 1\n"),
    ("ug", b"msvc-ug 1\n3 2 2 1000000000000\n0 1 2\n"),
    ("config", b"msvc-hardness 1\n1000000000000\n1 -0.5\n"),
])
def test_a_row_count_the_file_cannot_hold_allocates_nothing(tmp_path, kind, data):
    load, fmt, _, _ = FILES[kind]
    path = tmp_path / kind
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(fmt.error, match="^line 4: expected 1000000000000 rows$"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("kind, data, reason", [
    ("graph", b"msvc-graph 1\n3 1000000000000\n0 1 x\n", "expected 'u v w'"),
    ("ug", b"msvc-ug 1\n3 2 2 1000000000000\n0 x 2\n", "expected 'u v c'"),
    ("config", b"msvc-hardness 1\n1000000000000\n1 y\n", "expected 'alpha rho'"),
])
def test_a_bad_row_under_a_row_count_the_file_cannot_hold_names_its_line(tmp_path, kind, data, reason):
    load, fmt, _, _ = FILES[kind]
    path = tmp_path / kind
    path.write_bytes(data)
    tracemalloc.start()
    try:
        outcome = _outcome(lambda: load(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == _outcome(lambda: read_records_text(data.decode(), fmt)) == (fmt.error, f"line 3: {reason}")
    assert peak < 1 << 20


def test_save_and_load_graph_peaks_stay_near_the_file_size(tmp_path):
    """Traced peaks on a 260,864-edge long-code graph.

    In units of the graph's own arrays (24 bytes per edge) for the build
    and svc_value, and of the file size for save and load.
    """
    instance, _ = random_affine_instance(7, 4, 2, seed=0)
    ordering = Ordering(np.random.default_rng(0).permutation(instance.v_count << 7))
    path = tmp_path / "long_code.graph"

    def traced(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    g, build_peak = traced(lambda: build_long_code_graph(instance, -0.52))
    _, save_peak = traced(lambda: save_graph(g, path))
    loaded, load_peak = traced(lambda: load_graph(path))
    _, svc_peak = traced(lambda: svc_value(g, ordering))
    arrays, size = 24 * g.m, path.stat().st_size
    assert g.m >= 1 << 17
    assert loaded == g
    assert build_peak < 1.5 * arrays
    assert save_peak < 1.0 * size
    assert load_peak < 1.25 * size
    assert svc_peak < 0.85 * arrays


def test_a_long_code_graph_holds_16_bytes_per_edge(tmp_path):
    """Traced peaks on the graph of the test above, with int32 ids.

    An int64 array as long as the edge list would add 0.5x the graph's
    arrays (16 bytes per edge) to the build, and about 0.28x the file size
    to save and load.  The order path holds the weights and the float64
    cover times (16 bytes per edge) and a block of edges, not the graph.
    """
    instance, _ = random_affine_instance(7, 4, 2, seed=0)
    ordering = Ordering(np.random.default_rng(0).permutation(instance.v_count << 7))
    path = tmp_path / "long_code.graph"
    tracemalloc.start()
    try:
        g = build_long_code_graph(instance, -0.52)
        build_held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        save_graph(g, path)
        save_peak = tracemalloc.get_traced_memory()[1] - build_held
        del g
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        long_code_svc(instance, -0.52, ordering)
        order_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loaded = load_graph(path)
        load_held, load_peak = (size - start for size in tracemalloc.get_traced_memory())
        size = path.stat().st_size
        # the same file with a self-loop for its last row fails without
        # building its edge check's masks over the whole edge list
        body, last = path.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)
        u = last.split()[0]
        path.write_bytes(body + b"\n" + u + b" " + u + b" 1\n")
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph(path)
        fail_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    arrays = 16 * loaded.m
    assert [a.dtype for a in loaded.edge_arrays()] == [np.int32, np.int32, np.float64]
    assert build_held < 1.01 * arrays
    assert build_peak < 1.25 * arrays
    assert save_peak < 0.3 * size
    assert order_peak < 1.3 * arrays
    assert load_held < 0.6 * size
    assert load_peak < 0.75 * size
    assert fail_peak < min(load_peak + 0.01 * size, 0.75 * size)


def test_a_bad_last_row_of_a_long_code_graph_fails_in_file_sized_memory(tmp_path):
    """The graph of the test above with its last row broken, then a self-loop.

    Each error names the last line, and the traced peak of the failing load
    stays under the bound of a valid load.
    """
    instance, _ = random_affine_instance(7, 4, 2, seed=0)
    body, last = write_graph(build_long_code_graph(instance, -0.52)).encode().rstrip(b"\n").rsplit(b"\n", 1)
    number = body.count(b"\n") + 2
    u = last.split()[0]
    path = tmp_path / "long_code.graph"
    assert number - 2 >= 1 << 17
    for row, reason in [(b"0 1 x", "expected 'u v w'"), (u + b" " + u + b" 1", "self-loop")]:
        path.write_bytes(body + b"\n" + row + b"\n")
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError, match=f"^line {number}: {reason}$"):
                load_graph(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * path.stat().st_size


# Table texts as _write_records writes them, and in the other spellings of
# a number that the plain-row parser takes: leading zeros, ids of up to 18
# digits, floats without a digit on one side of the point, with an
# exponent, a sign or a capital E.
PLAIN_FLOATS = st.one_of(
    WEIGHTS.map(lambda w: repr(float(w))),
    st.floats(min_value=-1.0, max_value=0.0).map(repr),
    st.sampled_from(["1e-5", "1.", ".5", "1E+05", "-0.0", "+2.5", "0", "007", "-.25", "1e400", "-1e-400",
                     "2.4703282292062328e-324", "9007199254740993", "0.30000000000000004441"]),
)
PLAIN_IDS = st.one_of(st.integers(0, 40), st.integers(0, 10**18 - 1)).map(str) | st.sampled_from(
    ["00", "007", "999999999999999999", "000000000000000001"]
)
# Per table format: the header text for a row count, and each column's tokens.
PLAIN_TABLES = {
    "graph": (_GRAPH_FORMAT, "msvc-graph 1\n1000000000000000000 %d\n", (PLAIN_IDS, PLAIN_IDS, PLAIN_FLOATS)),
    "ug": (_UG_FORMAT, "msvc-ug 1\n50 1000000000000000000 1000000000000000000 %d\n",
           (PLAIN_IDS, PLAIN_IDS, st.integers(0, 60).map(str))),
    "config": (_CONFIG_FORMAT, "msvc-hardness 1\n%d\n", (PLAIN_FLOATS, PLAIN_FLOATS)),
}


@st.composite
def plain_tables(draw):
    kind = draw(st.sampled_from(sorted(PLAIN_TABLES)))
    fmt, header, tokens = PLAIN_TABLES[kind]
    rows = draw(st.lists(st.tuples(*tokens), min_size=1, max_size=12))
    return fmt, header % len(rows) + "".join(" ".join(row) + "\n" for row in rows)


def _fields(fmt):
    """fmt, building the list of its columns, so that they compare bit for bit."""
    return fmt._replace(build=lambda header, fields: fields)


def _column_outcome(read):
    """("ok", each column's dtype and bytes) or (the error's type, its message)."""
    outcome = _outcome(read)
    if outcome[0] != "ok":
        return outcome
    return "ok", [(column.dtype.str, column.tobytes()) for column in outcome[1]]


def _spy_loadtxt():
    """A patch of graph._loadtxt that records the dtype of each call."""
    return mock.patch.object(graph_module, "_loadtxt", side_effect=graph_module._loadtxt)


@CODEC
@given(table=plain_tables(), block=BLOCK_BYTES)
def test_plain_tables_parse_bit_for_bit_like_the_str_oracle_without_loadtxt(table, block):
    fmt, text = table
    expected = _column_outcome(lambda: read_records_text(text, _fields(fmt)))
    with _spy_loadtxt() as loadtxt, mock.patch.object(graph_module, "_BLOCK_BYTES", block):
        assert _column_outcome(lambda: graph_module._read_records(text, _fields(fmt))) == expected
    # np.loadtxt read the header only
    assert [call.args[1] for call in loadtxt.call_args_list] == [np.int64]


def test_plain_rows_cover_every_spelling_of_a_weight():
    weights = ["0.1", "1e-5", "1.", ".5", "1E+05", "+2.5", "5e-324", "1e308", "2E-3", "123456789012345678901234"]
    ids = ["0", "7", "123456789012345678", "000000000000000001"]
    # graph ids are int32: the 18-digit ids are read from a UG table, whose columns are int64
    graph_ids = ["0", "7", "3", "000000000000000001"]
    tables = [
        (_GRAPH_FORMAT, f"msvc-graph 1\n8 {len(weights)}\n" + "".join(
            f"{graph_ids[i % 4]} {graph_ids[(i + 1) % 4]} {w}\n" for i, w in enumerate(weights))),
        (_UG_FORMAT, f"msvc-ug 1\n50 {10**18} {10**18} {len(weights)}\n" + "".join(
            f"{ids[i % 4]} {ids[(i + 1) % 4]} {i}\n" for i in range(len(weights)))),
    ]
    read = []
    for fmt, text in tables:
        with _spy_loadtxt() as loadtxt:
            read.append(graph_module._read_records(text, _fields(fmt)))
        assert loadtxt.call_count == 1
        assert [(c.dtype.str, c.tobytes()) for c in read[-1]] == _column_outcome(
            lambda: read_records_text(text, _fields(fmt)))[1]
    assert read[0][2].tolist() == [float(w) for w in weights]
    assert read[0][0].tolist() == [int(graph_ids[i % 4]) for i in range(len(weights))]
    assert read[1][0].tolist() == [int(ids[i % 4]) for i in range(len(weights))]


@pytest.mark.parametrize("bad", [-1, 2**31, 2**40, 10**18])
def test_an_id_past_the_int32_range_is_out_of_range_on_its_line(tmp_path, bad):
    """Ids are parsed in 64 bits and stored clamped to int32, in plain rows and in np.loadtxt's."""
    rows = [b"0 1 1.5", b"1 2 2", b"2 3 0.25", b"3 0 4"]
    path = tmp_path / "g.graph"
    for i in range(len(rows)):
        for column in (0, 1):
            for separator in (b" ", b"\t"):
                ends = rows[i].split(b" ")
                ends[column] = b"%d" % bad
                broken = rows[:i] + [ends[0] + separator + ends[1] + b" " + ends[2]] + rows[i + 1 :]
                text = b"msvc-graph 1\n4 4\n" + b"\n".join(broken) + b"\n"
                expected = (GraphFormatError, f"line {i + 3}: vertex id out of range")
                assert _outcome(lambda: read_records_text(text.decode(), _GRAPH_FORMAT)) == expected
                path.write_bytes(text)
                for block in (1, 8, graph_module._BLOCK_BYTES):
                    with _spy_loadtxt() as loadtxt, mock.patch.object(graph_module, "_BLOCK_BYTES", block):
                        assert _outcome(lambda: read_graph(text)) == expected, (text, block)
                        assert _outcome(lambda: load_graph(path)) == expected, (text, block)
                    # a plain row of at most 18 digits is parsed without np.loadtxt
                    plain = separator == b" " and 0 <= bad < 10**18
                    assert (_GRAPH_FORMAT.columns in [call.args[1] for call in loadtxt.call_args_list]) != plain


def test_a_vertex_count_of_2_to_the_31_is_rejected():
    limit = 2**31
    text = f"msvc-graph 1\n{limit - 1} 1\n0 {limit - 2} 1\n"
    g = read_graph(text)
    assert (g.n, g.edges) == (limit - 1, [(0, limit - 2, 1.0)])
    with pytest.raises(GraphFormatError, match="^line 3: vertex id out of range$"):
        read_graph(text.replace(f" {limit - 2} ", f" {limit - 1} "))
    with pytest.raises(GraphFormatError, match=r"^vertex count must be below 2\^31, got 2147483648$"):
        read_graph(f"msvc-graph 1\n{limit} 1\n0 {limit - 2} 1\n")
    for make in (lambda: WeightedGraph(limit, []), lambda: WeightedGraph.from_arrays(limit, [], [], [])):
        with pytest.raises(ValueError, match=r"^vertex count must be below 2\^31"):
            make()


# Rows np.loadtxt reads or rejects that are not plain, in place of the
# second row of a graph table; and the same table without its final newline.
NOT_PLAIN = [b"1\t2 0.5", b"1  2 0.5", b"1 2 0.5\r", b"", b" ", b"1 2 0.5 ", b" 1 2 0.5", b"+1 2 0.5",
             b"1 2 nan", b"1 2 inf", b"1 2 1_0", b"1 2 0x10", b"0000000000000000001 2 0.5",
             b"1 2 1.00000000000000000000001", b"1 2 1e", b"1 2 .", b"1 2 --1", b"1 2 0.5e+-1", b"1 -2 0.5",
             b"1 2.0 0.5", b"1e3 2 0.5", b"a 2 0.5", b"1 2 0.5\xe9", b"1 2", b"1 2 0.5 7", b"1\x0b2 0.5",
             b"1 2 \x1c0.5"]


@pytest.mark.parametrize("row", NOT_PLAIN)
def test_rows_that_are_not_plain_go_to_loadtxt_and_read_like_the_str_oracle(tmp_path, row):
    rows = [b"0 1 1.5", row, b"2 3 0.25", b"3 0 4"]
    path = tmp_path / "g.graph"
    for text in (b"msvc-graph 1\n4 %d\n" % len(rows) + b"\n".join(rows) + b"\n",
                 b"msvc-graph 1\n4 4\n0 1 1.5\n1 2 0.5\n2 3 0.25\n3 0 4"):
        expected = _outcome(lambda: read_records_text(text.decode(errors="replace"), _GRAPH_FORMAT))
        path.write_bytes(text)
        for block in (1, 8, graph_module._BLOCK_BYTES):
            with _spy_loadtxt() as loadtxt, mock.patch.object(graph_module, "_BLOCK_BYTES", block):
                assert _outcome(lambda: read_graph(text)) == expected, (text, block)
                assert _outcome(lambda: load_graph(path)) == expected, (text, block)
        # in one block with the other rows, the row sends the block to np.loadtxt
        assert _GRAPH_FORMAT.columns in [call.args[1] for call in loadtxt.call_args_list]


def test_a_hash_collision_falls_back_to_loadtxt():
    text = "msvc-graph 1\n3 4\n0 1 1.5\n1 2 2.5\n0 2 1.5\n2 0 0.25\n"
    expected = _column_outcome(lambda: read_records_text(text, _fields(_GRAPH_FORMAT)))
    with _spy_loadtxt() as loadtxt:
        assert _column_outcome(lambda: graph_module._read_records(text, _fields(_GRAPH_FORMAT))) == expected
    assert loadtxt.call_count == 1
    # every token hashes alike: the byte comparison refutes the one group
    with _spy_loadtxt() as loadtxt, mock.patch.object(graph_module, "_HASH", np.zeros(3, np.uint64)):
        assert _column_outcome(lambda: graph_module._read_records(text, _fields(_GRAPH_FORMAT))) == expected
    assert [call.args[1] for call in loadtxt.call_args_list] == [np.int64, _GRAPH_FORMAT.columns]


def test_no_table_read_starts_a_pool(tmp_path):
    def no_pool(*args, **kwargs):
        raise AssertionError("pool started")

    g = build_long_code_graph(random_affine_instance(2, 2, 1, seed=0)[0], -0.5)
    path = tmp_path / "g.graph"
    save_graph(g, path)
    for kind, (_, _, data, _) in FILES.items():
        (tmp_path / kind).write_bytes(data)
    with mock.patch.object(graph_module, "ThreadPoolExecutor", no_pool):
        for block in (1, 8, 64, graph_module._BLOCK_BYTES):
            with mock.patch.object(graph_module, "_BLOCK_BYTES", block):
                assert _bits(load_graph(path)) == _bits(g)
                for kind, (load, fmt, data, _) in FILES.items():
                    expected = _outcome(lambda: read_records_text(data.decode(), fmt))
                    assert _outcome(lambda: load(tmp_path / kind)) == expected


def test_a_loaded_graph_checks_its_edges_once(tmp_path):
    g = build_long_code_graph(random_affine_instance(2, 2, 1, seed=0)[0], -0.5)
    path = tmp_path / "g.graph"
    save_graph(g, path)
    with mock.patch.object(graph_module, "_edge_problem", side_effect=graph_module._edge_problem) as check:
        assert load_graph(path) == g
        assert check.call_count == 1
        path.write_bytes(write_graph(g).encode() + b"0 0 1\n")
        with pytest.raises(GraphFormatError, match=f"^line {g.m + 3}: expected {g.m} rows$"):
            load_graph(path)
    # graphs built from arrays or edges still check theirs
    for bad in [(0, 0, 1.0), (0, g.n, 1.0), (0, 1, 0.0)]:
        with pytest.raises(ValueError):
            WeightedGraph.from_arrays(g.n, *np.array([bad]).T)
        with pytest.raises(ValueError):
            WeightedGraph(g.n, [bad])


def _line_number_by_lines(text, row):
    """The line of nonblank row `row` of the text after a two-line header, from all its lines.

    A row past the last names the line after the text.
    """
    lines = text.split(b"\n")
    numbers = [i for i, line in enumerate(lines, start=3) if line.strip(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")]
    return numbers[row] if row < len(numbers) else 2 + len(lines) + (lines[-1] != b"")


@CODEC
@given(lines=st.lists(st.sampled_from([b"", b" ", b"\t\r", b"\x0b\x0c", b"\x1c\x1f", b"0 1 2", b"x", b"\xe9", b"\r7\r",
                                       b"\x00"]), max_size=12),
       final=st.booleans(), block=BLOCK_BYTES, data=st.data())
def test_line_numbers_counted_a_block_at_a_time_match_the_lines(lines, final, block, data):
    text = b"\n".join(lines) + (b"\n" if final and lines else b"")
    rows = sum(1 for line in lines if line.strip(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "))
    row = data.draw(st.integers(0, rows + 1))
    stream = io.BytesIO(b"msvc-graph 1\n1 1\n" + text)
    with mock.patch.object(graph_module, "_BLOCK_BYTES", block):
        assert graph_module._line_number(stream, 17, row) == _line_number_by_lines(text, row)
