"""End-to-end CLI behavior: payloads, manifests, exit codes, reproducibility."""

import json

import pytest

from minsumvc import (
    HardnessConfig,
    WeightedGraph,
    complete_graph,
    load_graph,
    load_hardness_config,
    random_affine_instance,
    save_graph,
    save_hardness_config,
    save_labels,
    save_ug,
)
from minsumvc.cli import main


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


def test_hardness_optimize_writes_config(tmp_path, capsys):
    cfg_path = tmp_path / "seed.cfg"
    out_path = tmp_path / "opt.cfg"
    save_hardness_config(HardnessConfig(((1.0, -0.3),)), cfg_path)
    code, out, _ = run_cli(
        capsys, "hardness", "optimize", "--config", str(cfg_path),
        "--budget", "40", "--steps", "2000", "--out", str(out_path),
    )
    assert code == 0
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

    code, out, _ = run_cli(
        capsys, "reduce", "verify", "--input", str(ug_path),
        "--graph", str(graph_path), "--rho", "-0.5",
    )
    assert code == 0
    verify_payload = json.loads(out)
    assert verify_payload["passed"] is True
    assert verify_payload["max_incident_deviation"] <= 1e-9

    code, out, _ = run_cli(
        capsys, "reduce", "order", "--input", str(ug_path),
        "--labels", str(labels_path), "--rho", "-0.5",
    )
    assert code == 0
    order_payload = json.loads(out)
    assert sorted(order_payload["ordering"]) == list(range(12))
    assert order_payload["normalized"] <= order_payload["completeness_bound"] + 1e-9


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
    assert payload["n"] == 10 and payload["t"] == 2 and payload["s"] == 2
    assert payload["verify"]["staged_value"] == 31.0
    assert payload["verify"]["exact_value"] == 31.0
    assert payload["verify"]["coverage_margin"] == pytest.approx(0.0)
    assert load_graph(out_path).m == 10


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


def test_help_epilog_documents_formats(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "msvc-graph 1" in out
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "build", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "msvc-ug 1" in out and "msvc-labels 1" in out


def test_stdout_bit_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "gaussian", "integral", "--rho", "-0.52")
    code2, out2, _ = run_cli(capsys, "gaussian", "integral", "--rho", "-0.52")
    assert code1 == code2 == 0
    assert out1 == out2
