"""End-to-end CLI behavior: payloads, manifests, exit codes, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minsumvc
from minsumvc import (
    HardnessConfig,
    WeightedGraph,
    build_long_code_graph,
    complete_graph,
    figure1_config,
    load_graph,
    load_hardness_config,
    random_affine_instance,
    random_weighted_graph,
    save_graph,
    save_hardness_config,
    save_labels,
    save_ug,
    write_graph,
)
from minsumvc import cli, gaussian, hardness
from minsumvc import graph as graph_module
from minsumvc.cli import main
from minsumvc.solvers import _exact_dp_in_place

from _oracles import inside_weight_table_loop


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest_of(err):
    return json.loads(err.splitlines()[0])


def test_solve_exact_triangle(tmp_path, capsys):
    path = tmp_path / "k3.graph"
    save_graph(complete_graph(3), path)
    code, out, err = run_cli(capsys, "solve", "--method", "exact", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4.0
    assert payload["method"] == "exact-dp"
    assert sorted(payload["ordering"]) == [0, 1, 2]
    manifest = manifest_of(err)
    assert manifest["subcommand"] == "solve"
    assert str(path) in manifest["input_digests"]
    assert len(manifest["input_digests"][str(path)]) == 64
    assert manifest["seed"] == 0
    assert manifest["wall_time_s"] >= 0.0
    assert "error" not in manifest


def test_solve_exact_manifest_names_the_dp_table(tmp_path, capsys):
    # uint16 while integer sums stay below 2^15, float32 for larger integer
    # weights, float64 for uniform ones; stdout is the float64 table's
    # result either way
    g = random_weighted_graph(12, 0.5, 3)
    small = WeightedGraph.from_arrays(12, *g.edge_arrays()[:2], np.arange(1, g.m + 1, dtype=float))
    large = WeightedGraph.from_arrays(12, *g.edge_arrays()[:2], 100 * small.edge_arrays()[2])
    for graph, dtype in ((small, "uint16"), (large, "float32"), (g, "float64")):
        path = tmp_path / f"{dtype}.graph"
        save_graph(graph, path)
        code, out, err = run_cli(capsys, "solve", "--method", "exact", "--input", str(path))
        assert code == 0
        ref = _exact_dp_in_place(graph, inside_weight_table_loop(graph))
        expected = {"value": ref.value, "ordering": list(ref.ordering), "method": "exact-dp"}
        assert out == json.dumps(expected, indent=2) + "\n"
        size = np.dtype(dtype).itemsize << 12
        assert manifest_of(err)["dp_table"] == {"dtype": dtype, "bytes": size}
    small = tmp_path / "k3.graph"
    save_graph(complete_graph(3), small)
    for method in ("brute", "greedy"):
        _, _, err = run_cli(capsys, "solve", "--method", method, "--input", str(small))
        assert "dp_table" not in manifest_of(err)


def test_solve_two_phase_manifest_names_the_dp_table(tmp_path, capsys, monkeypatch):
    # its exact Max-k-VC scans a table for 2 <= n <= 24: the manifest names
    # it, and stdout, JSON and CSV, is what float64 tables print
    g = random_weighted_graph(14, 0.4, 5)
    cases = [
        (complete_graph(3), "uint16"),
        (WeightedGraph.from_arrays(14, *g.edge_arrays()[:2], np.arange(1, g.m + 1, dtype=float)), "uint16"),
        (WeightedGraph.from_arrays(14, *g.edge_arrays()[:2], 1000 * np.arange(1, g.m + 1, dtype=float)), "float32"),
        (g, "float64"),
    ]
    outs = []
    for i, (graph, dtype) in enumerate(cases):
        path = tmp_path / f"{i}.graph"
        save_graph(graph, path)
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, "solve", "--method", "two-phase", "--input", str(path), "--format", fmt)
            assert code == 0
            assert manifest_of(err)["dp_table"] == {"dtype": dtype, "bytes": np.dtype(dtype).itemsize << graph.n}
            outs.append((path, fmt, out))
    monkeypatch.setattr(graph_module, "_table_dtype", lambda graph: np.dtype(np.float64))
    for path, fmt, out in outs:
        assert run_cli(capsys, "solve", "--method", "two-phase", "--input", str(path), "--format", fmt)[1] == out
    # no table for one vertex (k = 0), nor beyond 24 vertices (local search)
    for graph in (WeightedGraph(1, []), random_weighted_graph(26, 0.2, 1)):
        path = tmp_path / f"{graph.n}.graph"
        save_graph(graph, path)
        code, _, err = run_cli(capsys, "solve", "--method", "two-phase", "--input", str(path))
        assert code == 0 and "dp_table" not in manifest_of(err)


def test_only_a_cli_run_records_input_digests(tmp_path, capsys):
    path = tmp_path / "k3.graph"
    save_graph(complete_graph(3), path)
    run_cli(capsys, "solve", "--method", "exact", "--input", str(path))
    for _ in range(5):
        load_graph(path)
    assert not graph_module._digests


def test_solve_all_methods_agree_on_triangle(tmp_path, capsys):
    path = tmp_path / "k3.graph"
    save_graph(complete_graph(3), path)
    for method in ("exact", "brute", "greedy", "two-phase"):
        code, out, _ = run_cli(capsys, "solve", "--method", method, "--input", str(path))
        assert code == 0
        assert json.loads(out)["value"] == 4.0


def test_gaussian_commands(capsys):
    code, out, _ = run_cli(
        capsys, "gaussian", "gamma", "--rho", "0", "--x", "0.3", "--y", "0.7"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.21, abs=1e-10)
    code, out, _ = run_cli(capsys, "gaussian", "integral", "--rho", "0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_hardness_single_value(capsys):
    code, out, _ = run_cli(capsys, "hardness", "single", "--rho", "-0.52")
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(1.01578, abs=1e-4)


def test_hardness_composite_with_config(tmp_path, capsys):
    cfg_path = tmp_path / "two.cfg"
    save_hardness_config(HardnessConfig(((1.0, -0.6), (2.0, -0.45))), cfg_path)
    code, out, err = run_cli(
        capsys, "hardness", "composite", "--config", str(cfg_path), "--steps", "2000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2
    assert payload["steps_per_graph"] == 1000
    assert payload["ratio"] == pytest.approx(
        payload["soundness_value"] / payload["completeness_value"], abs=1e-6
    )
    assert manifest_of(err)["subcommand"] == "hardness composite"


def test_hardness_composite_limit(capsys):
    code, out, err = run_cli(capsys, "hardness", "composite", "--limit")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "k", "g", "completeness_value", "soundness_value", "limit", "refinement_gap", "concavity", "concave"
    ]
    assert payload["limit"] == hardness.composite_limit(figure1_config()).limit >= 1.0748
    assert payload["refinement_gap"] < 1e-7 and payload["concave"] is True
    assert manifest_of(err)["parameters"]["limit"] is True
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["hardness", "composite", "--help"])
    options = capsys.readouterr().out.split("\noptions:\n")[1]
    assert options.index("--steps") < options.index("--limit") < options.index("--format")


def test_hardness_optimize_writes_config(tmp_path, capsys):
    cfg_path = tmp_path / "seed.cfg"
    out_path = tmp_path / "opt.cfg"
    save_hardness_config(HardnessConfig(((1.0, -0.3),)), cfg_path)
    code, out, err = run_cli(
        capsys, "hardness", "optimize", "--config", str(cfg_path),
        "--budget", "40", "--steps", "2000", "--out", str(out_path),
    )
    assert code == 0
    assert manifest_of(err)["workers"] == len(os.sched_getaffinity(0))
    payload = json.loads(out)
    assert payload["evaluations"] <= payload["budget"] == 40
    assert payload["ratio"] > 1.0
    written = load_hardness_config(out_path)
    for (a1, r1), (a2, r2) in zip(written.pairs, payload["pairs"]):
        assert a1 == pytest.approx(a2) and r1 == pytest.approx(r2)


def test_reduce_build_verify_order_round_trip(tmp_path, capsys):
    inst, lab = random_affine_instance(2, 3, 2, seed=0)
    ug_path = tmp_path / "inst.ug"
    labels_path = tmp_path / "inst.labels"
    graph_path = tmp_path / "red.graph"
    save_ug(inst, ug_path)
    save_labels(lab, labels_path)

    code, out, _ = run_cli(
        capsys, "reduce", "build", "--input", str(ug_path),
        "--rho", "-0.5", "--out", str(graph_path),
    )
    assert code == 0
    build_payload = json.loads(out)
    assert build_payload["passed"] is True
    assert build_payload["n"] == 12
    assert load_graph(graph_path).n == 12

    code, out, err = run_cli(
        capsys, "reduce", "verify", "--input", str(ug_path),
        "--graph", str(graph_path), "--rho", "-0.5",
    )
    assert code == 0
    verify_payload = json.loads(out)
    assert verify_payload["passed"] is True
    assert verify_payload["max_incident_deviation"] <= 1e-9
    digests = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (ug_path, graph_path, labels_path)}
    assert manifest_of(err)["input_digests"] == {k: digests[k] for k in (str(ug_path), str(graph_path))}

    code, out, err = run_cli(
        capsys, "reduce", "order", "--input", str(ug_path),
        "--labels", str(labels_path), "--rho", "-0.5",
    )
    assert code == 0
    assert manifest_of(err)["input_digests"] == {k: digests[k] for k in (str(ug_path), str(labels_path))}
    order_payload = json.loads(out)
    assert sorted(order_payload["ordering"]) == list(range(12))
    assert order_payload["normalized"] <= order_payload["completeness_bound"] + 1e-9


def test_reduce_manifests_count_long_code_blocks_edges_and_bytes(tmp_path, capsys):
    inst, lab = random_affine_instance(3, 3, 2, seed=4)
    ug_path, labels_path, graph_path = tmp_path / "inst.ug", tmp_path / "inst.labels", tmp_path / "red.graph"
    save_ug(inst, ug_path)
    save_labels(lab, labels_path)
    graph = build_long_code_graph(inst, -0.5)
    # 3 U vertices of degree 2: 12 (u, e1, e2) blocks of 64 code pairs, less 8 loops in each with v1 = v2
    same_v = sum(u1 == u2 and v1 == v2 for u1, v1, _ in inst.edges for u2, v2, _ in inst.edges)
    counts = {"blocks": 12, "edges": 12 * 64 - 8 * same_v}
    assert graph.m == counts["edges"]

    code, out, err = run_cli(capsys, "reduce", "build", "--input", str(ug_path), "--rho", "-0.5", "--out", str(graph_path))
    manifest = manifest_of(err)
    assert code == 0 and json.loads(out)["m"] == graph.m
    assert manifest["long_code"] == counts
    assert manifest["bytes_written"] == graph_path.stat().st_size == len(write_graph(graph))

    order = ["reduce", "order", "--input", str(ug_path), "--labels", str(labels_path)]
    code, out, err = run_cli(capsys, *order, "--rho", "-0.5")
    assert code == 0 and "svc" in json.loads(out)
    assert manifest_of(err)["long_code"] == counts
    code, out, err = run_cli(capsys, *order)
    assert code == 0 and "long_code" not in manifest_of(err)


def test_reduce_verify_against_another_instance_exits_one(tmp_path, capsys):
    instance, _ = random_affine_instance(2, 3, 2, seed=0)
    wider, _ = random_affine_instance(3, 3, 2, seed=0)
    ug_path, graph_path = tmp_path / "inst.ug", tmp_path / "wider.graph"
    save_ug(instance, ug_path)
    save_graph(build_long_code_graph(wider, -0.5), graph_path)
    code, out, err = run_cli(
        capsys, "reduce", "verify", "--input", str(ug_path), "--graph", str(graph_path), "--rho", "-0.5",
    )
    assert (code, out) == (1, "")
    assert err.splitlines()[1] == "error: graph has 24 vertices, the instance's reduction has 12"


def test_reduce_bare_form_rewrites_to_build(tmp_path, capsys):
    inst, _ = random_affine_instance(2, 2, 2, seed=3)
    ug_path = tmp_path / "inst.ug"
    graph_path = tmp_path / "red.graph"
    save_ug(inst, ug_path)
    code, out, _ = run_cli(
        capsys, "reduce", "--input", str(ug_path), "--rho", "-0.25", "--out", str(graph_path),
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert graph_path.exists()


def test_unweight_command_and_determinism(tmp_path, capsys):
    in_path = tmp_path / "in.graph"
    out_a = tmp_path / "a.graph"
    out_b = tmp_path / "b.graph"
    report_path = tmp_path / "report.json"
    save_graph(WeightedGraph(2, [(0, 1, 0.5)]), in_path)

    code, out1, err = run_cli(
        capsys, "unweight", "--input", str(in_path), "--m", "8",
        "--eps", "1/4", "--seed", "9", "--out", str(out_a),
        "--report", str(report_path),
    )
    assert code == 0
    payload = json.loads(out1)
    assert payload["n"] == 16
    assert payload["degree_spread"] == 0
    assert payload["degree_histogram"] == {"5": 16}
    assert manifest_of(err)["certificates"] == {"exact": 1}

    report = json.loads(report_path.read_text())
    assert report["eps"] == "1/4"
    assert len(report["gadgets"]) == 1
    assert report["gadgets"][0]["subset_mode"] == "exact"
    assert report["gadgets"][0]["subset_margin"] >= 0.0

    # above m = 12 the degree certificate replaces enumeration
    code, _, err = run_cli(
        capsys, "unweight", "--input", str(in_path), "--m", "16",
        "--eps", "1/4", "--seed", "9", "--out", str(out_b),
    )
    assert code == 0
    assert manifest_of(err)["certificates"] == {"degree": 1}

    code, out2, _ = run_cli(
        capsys, "unweight", "--input", str(in_path), "--m", "8",
        "--eps", "1/4", "--seed", "9", "--out", str(out_b),
    )
    assert code == 0
    assert out1 == out2
    assert out_a.read_bytes() == out_b.read_bytes()


def test_regular_ratio_and_curve(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "regular", "ratio", "--emit-curve", str(curve))
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["alpha", "optimal_eps", "optimal_ratio", "branch_gap"]
    assert payload["alpha"] == 0.9401
    assert payload["optimal_ratio"] == pytest.approx(1.2245, abs=1e-3)
    lines = curve.read_text().splitlines()
    assert lines[0] == "eps,ratio"
    assert len(lines) > 100
    first_eps, first_ratio = lines[1].split(",")
    assert float(first_ratio) > 1.0


def test_regular_counterexample_verify(tmp_path, capsys):
    out_path = tmp_path / "ce.graph"
    code, out, _ = run_cli(
        capsys, "regular", "counterexample", "--p", "1", "--q", "10",
        "--verify", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["p", "q", "scale", "delta", "n", "t", "s", "m", "verify"]
    assert list(payload["verify"]) == [
        "staged_value", "exact_value", "exact_mode", "value_over_n2", "value_over_nm",
        "normalized_target", "normalized_gap", "best_half_coverage", "coverage_cap",
        "coverage_margin", "uncovered_after_half", "vertex_cover_number",
    ]
    assert payload["n"] == 10 and payload["t"] == 2 and payload["s"] == 2
    assert payload["verify"]["staged_value"] == 31.0
    assert payload["verify"]["exact_value"] == 31.0
    assert payload["verify"]["coverage_margin"] == pytest.approx(0.0)
    assert load_graph(out_path).m == 10


def test_regular_counterexample_verify_manifest_names_the_dp_table(capsys):
    # the exact checks hold one uint16 table at n = 20; stdout keeps the
    # bytes it had before the manifest named the table (their sha256)
    code, out, err = run_cli(capsys, "regular", "counterexample", "--p", "1", "--q", "10", "--scale", "2", "--verify")
    assert code == 0
    assert manifest_of(err)["dp_table"] == {"dtype": "uint16", "bytes": 2097152}
    assert hashlib.sha256(out.encode()).hexdigest() == "b5c8a25afe1b3216a7f62684b2cdadbfc2cadb0d82e5dcb4a1a63884f599f10b"
    # no table past n = 24, nor without --verify
    for argv in (("--q", "7", "--verify"), ("--q", "10")):
        code, _, err = run_cli(capsys, "regular", "counterexample", "--p", "1", *argv)
        assert code == 0 and "dp_table" not in manifest_of(err)


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "hardness", "single", "--rho", "-0.52", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rho,ratio"
    rho, ratio = lines[1].split(",")
    assert float(rho) == -0.52
    assert float(ratio) == pytest.approx(1.01578, abs=1e-4)


def test_missing_file_returns_one_with_manifest(capsys):
    code, out, err = run_cli(capsys, "solve", "--method", "exact", "--input", "/nonexistent")
    assert code == 1
    assert out == ""
    manifest = manifest_of(err)
    assert "error" in manifest
    assert err.splitlines()[1].startswith("error:")


def test_computation_error_returns_one(tmp_path, capsys):
    path = tmp_path / "big.graph"
    save_graph(WeightedGraph(30, [(0, 1, 1.0)]), path)
    code, _, err = run_cli(capsys, "solve", "--method", "brute", "--input", str(path))
    assert code == 1
    assert "brute force limited" in manifest_of(err)["error"]


@pytest.mark.parametrize("eps", ["1/0", "abc"])
def test_unweight_bad_eps_returns_one_with_manifest(tmp_path, capsys, eps):
    path = tmp_path / "edge.graph"
    save_graph(WeightedGraph(2, [(0, 1, 0.5)]), path)
    out_path = tmp_path / "u.graph"
    code, out, err = run_cli(
        capsys, "unweight", "--input", str(path), "--m", "8", "--eps", eps, "--out", str(out_path)
    )
    assert (code, out) == (1, "")
    manifest = manifest_of(err)
    assert manifest["parameters"]["eps"] == eps
    assert manifest["error"] == f"--eps must be a fraction p/q with q > 0, got {eps!r}"
    assert err.splitlines()[1] == f"error: {manifest['error']}"
    assert not out_path.exists()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "bogus", "--input", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["hardness"])
    assert exc.value.code == 2
    # the limit has its own step count
    with pytest.raises(SystemExit) as exc:
        main(["hardness", "composite", "--limit", "--steps", "5000"])
    assert exc.value.code == 2


_GRAPH, _CONFIG = ("msvc-graph 1",), ("msvc-hardness 1",)
_REDUCE = ("msvc-ug 1", "msvc-labels 1", "msvc-graph 1")
# every parser: its words, whether it runs a command, the format lines its epilog shows
_PARSERS = [
    ((), False, ()),
    (("gaussian",), False, ()),
    (("gaussian", "gamma"), True, ()),
    (("gaussian", "integral"), True, ()),
    (("solve",), True, _GRAPH),
    (("hardness",), False, ()),
    (("hardness", "single"), True, ()),
    (("hardness", "composite"), True, _CONFIG),
    (("hardness", "optimize"), True, _CONFIG),
    (("reduce",), False, _REDUCE),
    (("reduce", "build"), True, _REDUCE),
    (("reduce", "verify"), True, _REDUCE),
    (("reduce", "order"), True, _REDUCE),
    (("unweight",), True, _GRAPH),
    (("regular",), False, ()),
    (("regular", "ratio"), True, ()),
    (("regular", "counterexample"), True, ()),
]


def test_help_epilog_documents_formats(capsys):
    # parsed without main, whose reduce shorthand would read "reduce --help"
    # as "reduce build --help"
    for words, leaf, formats in _PARSERS:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([*words, "--help"])
        assert exc.value.code == 0, words
        out = capsys.readouterr().out
        assert {line for line in _REDUCE + _CONFIG if line in out} == set(formats), words
        options = out.split("\noptions:\n")[1].split("\n\n")[0]
        last = [line for line in options.splitlines() if line.startswith("  -")][-1]
        assert last.startswith("  --format {json,csv}") == leaf, words


def test_stdout_bit_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "gaussian", "integral", "--rho", "-0.52")
    code2, out2, _ = run_cli(capsys, "gaussian", "integral", "--rho", "-0.52")
    assert code1 == code2 == 0
    assert out1 == out2


# Runs the CLI in a fresh interpreter.  Pinning happens before minsumvc (and
# numpy) is imported, so every thread the run starts inherits one CPU.  The
# small DP_CHUNK makes the n = 16 layers split into several tasks.
_PINNED_CHILD = """
import os, sys
if {pin}:
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
sys.path.insert(0, {src!r})
import minsumvc.solvers
minsumvc.solvers.DP_CHUNK = 1 << 10
from minsumvc.cli import main
sys.exit(main({argv!r}))
"""


def _run_child(argv, pin):
    src = str(Path(minsumvc.__file__).resolve().parent.parent)
    code = _PINNED_CHILD.format(pin=pin, src=src, argv=list(argv))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
    return proc.stdout, json.loads(proc.stderr.decode().splitlines()[0])


def test_stdout_identical_on_one_cpu_and_on_all(tmp_path):
    path = tmp_path / "n16.graph"
    save_graph(random_weighted_graph(16, 0.4, 5), path)
    cpus = len(os.sched_getaffinity(0))
    for argv in (
        ["hardness", "composite", "--steps", "20000"],
        ["solve", "--method", "exact", "--input", str(path)],
    ):
        one_out, one_manifest = _run_child(argv, pin=True)
        all_out, all_manifest = _run_child(argv, pin=False)
        assert one_out == all_out
        if argv[0] == "hardness":
            assert (one_manifest["workers"], all_manifest["workers"]) == (1, cpus)
        else:  # the exact DP runs on the calling thread
            assert "workers" not in one_manifest and "workers" not in all_manifest


def test_hardness_optimize_after_composite_prints_its_fresh_process_bytes(capsys, monkeypatch):
    # the composite run leaves figure 1's profile pairs in the memo, so the
    # optimize run builds only the rhos its candidates move to
    optimize = ["hardness", "optimize", "--budget", "3", "--steps", "2000"]
    fresh_out, _ = _run_child(optimize, pin=False)
    built = []
    soundness_profile = hardness.soundness_profile

    def counting_soundness(rho, eps, g):
        built.append(rho)
        return soundness_profile(rho, eps, g)

    monkeypatch.setattr(hardness, "_profile_memo", {})
    monkeypatch.setattr(hardness, "soundness_profile", counting_soundness)
    assert run_cli(capsys, "hardness", "composite", "--steps", "2000")[0] == 0
    distinct = len(set(figure1_config().rhos.tolist()))
    assert len(built) == distinct
    code, out, _ = run_cli(capsys, *optimize)
    assert code == 0
    assert out.encode() == fresh_out
    assert len(built) == len(set(built)) == distinct + 2


def test_solve_reads_a_graph_from_a_pipe(tmp_path):
    path = tmp_path / "g.graph"
    save_graph(random_weighted_graph(12, 0.4, 7), path)
    src = str(Path(minsumvc.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); from minsumvc.cli import main; sys.exit(main(sys.argv[1:]))"

    def solve(where, data=b""):
        argv = [sys.executable, "-c", code, "solve", "--method", "exact", "--input", where]
        return subprocess.run(argv, input=data, capture_output=True, timeout=60)

    by_path = solve(str(path))
    by_pipe = solve("/dev/stdin", path.read_bytes())
    assert by_path.returncode == by_pipe.returncode == 0
    assert by_pipe.stdout == by_path.stdout
    # the manifest hashes the bytes as read: opening /dev/stdin again
    # after the pipe was drained would give the digest of b""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    for where, proc in ((str(path), by_path), ("/dev/stdin", by_pipe)):
        assert json.loads(proc.stderr.decode().splitlines()[0])["input_digests"] == {where: digest}
    lines = path.read_bytes().split(b"\n")
    lines[4] = b"0 1 x"
    bad = solve("/dev/stdin", b"\n".join(lines))
    assert (bad.returncode, bad.stdout) == (1, b"")
    assert bad.stderr.decode().splitlines()[1] == "error: line 5: expected 'u v w'"


# Runs CLI commands in one fresh interpreter and reports, after the import
# and after each command, whether a module has been loaded.
_MODULE_PROBE_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import minsumvc.cli
seen = [["import", 0, {module!r} in sys.modules]]
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = minsumvc.cli.main(argv)
    seen.append([" ".join(argv[:2]), code, {module!r} in sys.modules])
print(json.dumps(seen))
"""


def _probe_module(module, runs):
    src = str(Path(minsumvc.__file__).resolve().parent.parent)
    code = _MODULE_PROBE_CHILD.format(src=src, module=module, runs=runs)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def _reduction_and_unweight_runs(tmp_path):
    inst, lab = random_affine_instance(2, 3, 2, seed=0)
    ug, labels, red, edge = (tmp_path / name for name in ("i.ug", "i.labels", "red.graph", "edge.graph"))
    save_ug(inst, ug)
    save_labels(lab, labels)
    save_graph(WeightedGraph(2, [(0, 1, 0.5)]), edge)
    return [
        ["reduce", "build", "--input", str(ug), "--rho", "-0.5", "--out", str(red)],
        ["reduce", "verify", "--input", str(ug), "--graph", str(red), "--rho", "-0.5"],
        ["reduce", "order", "--input", str(ug), "--labels", str(labels), "--rho", "-0.5"],
        ["unweight", "--input", str(edge), "--m", "8", "--eps", "1/4", "--out", str(tmp_path / "u.graph")],
    ]


def _scipy_probe_runs(tmp_path):
    """Every kind of command, ending with the first one that needs scipy."""
    small = tmp_path / "g.graph"
    save_graph(random_weighted_graph(8, 0.5, 3), small)
    return _reduction_and_unweight_runs(tmp_path) + [
        ["solve", "--method", "exact", "--input", str(small)],
        ["hardness", "single", "--rho", "-0.52"],
        ["regular", "counterexample", "--p", "1", "--q", "10", "--verify"],
        ["regular", "ratio"],
        ["hardness", "composite", "--steps", "2000"],
    ]


def test_only_the_copula_commands_load_scipy(tmp_path):
    seen = _probe_module("scipy", _scipy_probe_runs(tmp_path))
    assert [step[1] for step in seen] == [0] * len(seen)
    assert [step[2] for step in seen] == [False] * (len(seen) - 1) + [True], seen


def test_no_command_loads_scipy_special(tmp_path):
    # ndtr comes from its own compiled module; scipy.special's package
    # import (numpy.ma, numpy.testing, numpy.f2py, ...) is never run
    runs = _scipy_probe_runs(tmp_path) + [
        ["hardness", "optimize", "--budget", "2", "--steps", "2000"],
        ["gaussian", "gamma", "--rho", "-0.52", "--x", "0.3", "--y", "0.6"],
        ["gaussian", "integral", "--rho", "-0.52"],
    ]
    seen = _probe_module("scipy.special", runs)
    assert seen == [["import", 0, False]] + [[" ".join(argv[:2]), 0, False] for argv in runs]


def test_reduction_and_unweight_do_not_load_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (about 0.6 MB resident) on its first call;
    # the writer, verify_reduction, unweight and the popcount pass take
    # distinct values without it.  hardness composite loads scipy, but not
    # scipy.special, which would import numpy.ma
    small = tmp_path / "g.graph"
    save_graph(random_weighted_graph(8, 0.5, 3), small)
    runs = _reduction_and_unweight_runs(tmp_path) + [
        ["hardness", "composite", "--steps", "2000"],
        *(["solve", "--method", method, "--input", str(small)] for method in ("exact", "two-phase", "greedy", "brute")),
        ["regular", "counterexample", "--p", "1", "--q", "10", "--verify"],
    ]
    seen = _probe_module("numpy.ma", runs)
    assert seen == [["import", 0, False]] + [[" ".join(argv[:2]), 0, False] for argv in runs]


def test_a_usage_error_leaves_the_cached_parser_as_it_was(capsys):
    # main parses with one parser per process; a failed parse that had set
    # --format first must not change how the next call parses
    fresh_out, _ = _run_child(["gaussian", "integral", "--rho", "-0.52"], pin=False)
    with pytest.raises(SystemExit) as exc:
        main(["gaussian", "integral", "--format", "csv", "--rho", "bogus"])
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "gaussian", "integral", "--rho", "-0.52")
    assert code == 0
    assert out.encode() == fresh_out
    assert cli.build_parser() is cli.build_parser()


def test_hardness_manifests_count_profiles_and_name_the_ndtr_module(capsys, monkeypatch):
    monkeypatch.setattr(hardness, "_profile_memo", {})
    composite = ["hardness", "composite", "--steps", "2000"]
    optimize = ["hardness", "optimize", "--budget", "3", "--steps", "2000"]
    fresh = [_run_child(argv, pin=False)[0] for argv in (composite, optimize)]
    seen = []
    for argv, fresh_out in zip((composite, optimize), fresh):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out.encode() == fresh_out
        manifest = manifest_of(err)
        seen.append(manifest["profiles"])
        # scipy.special itself where another test has imported it
        assert manifest["ndtr"] == gaussian._ndtr_module().__name__
    distinct = len(set(figure1_config().rhos.tolist()))
    assert distinct == 50
    assert seen[0] == {"built": distinct, "from_memo": 0}
    assert seen[1]["built"] >= 1 and seen[1]["from_memo"] >= distinct
    # a fresh process takes ndtr from its compiled module
    assert _run_child(composite, pin=False)[1]["ndtr"] == "scipy.special._special_ufuncs"
