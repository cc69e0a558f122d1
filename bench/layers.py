"""Per-layer metrics of one traced pass, computed from its spans.

Layers are the modules of ``minsumvc``.  For a function X, ``X.s`` is the
time inside its calls and ``X.self_s`` that time minus the spans of the
traced calls it made; ``<layer>.self_s`` sums the self time of all of the
layer's spans.  Counts come from the arguments and results the tracer saw
(see ``child.OBSERVERS``).  A layer a workload does not run reads 0.
"""

from collections import Counter, defaultdict

LAYERS = ("cli", "gaussian", "hardness", "graph", "reduction", "unweighting", "solvers", "regular")
CLI_VERBS = (
    "hardness_composite", "hardness_single", "hardness_optimize",
    "reduce_build", "reduce_verify", "reduce_order",
    "unweight", "solve_exact", "solve_two_phase", "regular_counterexample",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, stdout_bytes):
    """{name: (value, unit)} for one traced pass."""
    inclusive = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    counts = defaultdict(Counter)
    verb_s = Counter()
    grids_in_integral = 0
    profile_keys = set()
    profile_repeats = 0
    for _, parent, name, start, end, info in spans:
        took = end - start
        inclusive[name] += took
        own[name] += took
        calls[name] += 1
        parent_name = spans[parent][2] if parent is not None else None
        if parent_name is not None:
            own[parent_name] -= took
        info = info or {}
        if name == "cli.main":
            verb_s[info["verb"]] += took
        if name == "gaussian.copula_diag_grid" and parent_name == "gaussian.copula_diag_integral":
            grids_in_integral += 1
        if "key" in info:
            key = (name, info["key"])
            profile_repeats += key in profile_keys
            profile_keys.add(key)
        counts[name].update({k: v for k, v in info.items() if isinstance(v, int)})

    layer_self = Counter()
    for name, value in own.items():
        layer_self[name.split(".", 1)[0]] += value

    def s(fn):
        return inclusive[fn], "s"

    def self_s(fn):
        return own[fn], "s"

    def n(fn):
        return calls[fn], "count"

    gadgets = calls["unweighting.sample_gadget"]
    gadget = counts["unweighting.sample_gadget"]
    read, write = counts["graph.read_graph"], counts["graph.write_graph"]
    profiles = calls["hardness.completeness_profile"] + calls["hardness.soundness_profile"]
    m = {f"cli.{verb}_s": (verb_s[verb], "s") for verb in CLI_VERBS}
    m.update({f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS})
    m.update({
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        # gaussian
        "gaussian.copula_diag_grid.self_s": self_s("gaussian.copula_diag_grid"),
        "gaussian.copula_diag_grid.calls": n("gaussian.copula_diag_grid"),
        "gaussian.grid_points": (counts["gaussian.copula_diag_grid"]["points"], "count"),
        "gaussian.copula_diag_integral.s": s("gaussian.copula_diag_integral"),
        "gaussian.grid_calls_per_integral": (
            _ratio(grids_in_integral, calls["gaussian.copula_diag_integral"]), "1"),
        # hardness
        "hardness.completeness_profile.s": s("hardness.completeness_profile"),
        "hardness.completeness_profile.calls": n("hardness.completeness_profile"),
        "hardness.soundness_profile.self_s": self_s("hardness.soundness_profile"),
        "hardness.soundness_profile.calls": n("hardness.soundness_profile"),
        "hardness.profile_repeat_ratio": (_ratio(profile_repeats, profiles), "1"),
        "hardness.composite_ratio.self_s": self_s("hardness.composite_ratio"),
        "hardness.schedule_steps": (counts["hardness.composite_ratio"]["steps"], "count"),
        "hardness.optimize_config.self_s": self_s("hardness.optimize_config"),
        "hardness.single_ratio.self_s": self_s("hardness.single_ratio"),
        # graph
        "graph.read_graph.s": s("graph.read_graph"),
        "graph.write_graph.s": s("graph.write_graph"),
        "graph.read_bytes": (read["bytes"], "bytes"),
        "graph.write_bytes": (write["bytes"], "bytes"),
        "graph.read_mb_per_s": (_ratio(read["bytes"] / 1e6, inclusive["graph.read_graph"]), "MB/s"),
        "graph.write_mb_per_s": (_ratio(write["bytes"] / 1e6, inclusive["graph.write_graph"]), "MB/s"),
        "graph.edges_parsed": (read["edges"], "count"),
        "graph.file_io_s": (own["graph.load_graph"] + own["graph.save_graph"], "s"),
        "graph.inside_weight_table.s": s("graph.inside_weight_table"),
        "graph.inside_weight_table.calls": n("graph.inside_weight_table"),
        "graph.svc_value.s": s("graph.svc_value"),
        # reduction
        "reduction.build_long_code_graph.s": s("reduction.build_long_code_graph"),
        "reduction.edges_built": (counts["reduction.build_long_code_graph"]["edges"], "count"),
        "reduction.verify_reduction.s": s("reduction.verify_reduction"),
        "reduction.completeness_ordering.s": s("reduction.completeness_ordering"),
        "reduction.load_ug.s": s("reduction.load_ug"),
        # unweighting
        "unweighting.sample_gadget.s": s("unweighting.sample_gadget"),
        "unweighting.sample_gadget.calls": n("unweighting.sample_gadget"),
        "unweighting.unweight.self_s": self_s("unweighting.unweight"),
        "unweighting.gadget_retries": (gadget["retries"], "count"),
        "unweighting.gadget_accept_ratio": (_ratio(gadgets, gadgets + gadget["retries"]), "1"),
        "unweighting.padding_edges": (gadget["added"], "count"),
        "unweighting.subset_pairs_checked": (gadget["pairs"], "count"),
        "unweighting.subset_mode_sampled": (gadget["sampled"], "count"),
        # solvers
        "solvers.msvc_exact_dp.self_s": self_s("solvers.msvc_exact_dp"),
        "solvers.dp_states": (counts["solvers.msvc_exact_dp"]["states"], "count"),
        "solvers.dp_states_per_s": (
            _ratio(counts["solvers.msvc_exact_dp"]["states"], inclusive["solvers.msvc_exact_dp"]), "1/s"),
        "solvers.max_kvc.self_s": self_s("solvers.max_kvc"),
        "solvers.msvc_two_phase.self_s": self_s("solvers.msvc_two_phase"),
        "solvers.msvc_greedy.s": s("solvers.msvc_greedy"),
        # regular
        "regular.verify_counterexample.self_s": self_s("regular.verify_counterexample"),
        "regular.counterexample_graph.s": s("regular.counterexample_graph"),
    })
    return m
