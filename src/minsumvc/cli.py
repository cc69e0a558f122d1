"""Command-line interface exposing every operation as a subcommand.

Output conventions: results go to standard output as JSON (or CSV with
--format csv); a one-line run manifest (subcommand, parameters, seed,
version, sha256 of each input file, wall time, for unweight the gadget
count per subset-check certificate, for hardness composite and hardness
optimize the thread pool size `workers`, and for solve --method exact the
2^n table's `dp_table` dtype and bytes) goes to standard error.
Exit codes: 0 success, 2 usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import __version__
from . import graph as graph_module
from .graph import _table_dtype, _workers, load_graph, save_graph, svc_value
from .hardness import (
    composite_ratio,
    figure1_config,
    load_hardness_config,
    optimize_config,
    save_hardness_config,
    single_ratio,
)
from .gaussian import copula_diag_integral, gaussian_copula
from .reduction import (
    build_long_code_graph,
    completeness_ordering,
    load_labels,
    load_ug,
    verify_reduction,
)
from .regular import (
    ALPHA_MAX2SAT_BISECTION,
    CounterexampleParams,
    counterexample_graph,
    optimize_two_phase,
    two_phase_ratio,
    verify_counterexample,
)
from .solvers import msvc_bruteforce, msvc_exact_dp, msvc_greedy, msvc_two_phase
from .unweighting import unweight

GRAPH_FORMAT_HELP = """\
graph file format (text, LF-terminated):
  line 1: msvc-graph 1
  line 2: n m
  then m lines: u v w   (0-based integer ids below 2^31, decimal weight; unit graphs use w = 1)
"""

CONFIG_FORMAT_HELP = """\
hardness config file format (text):
  line 1: msvc-hardness 1
  line 2: k
  then k lines: alpha rho
"""

UG_FORMAT_HELP = """\
unique-games file format (text):
  line 1: msvc-ug 1
  line 2: L |U| |V| m
  then m lines: u v c   (constraint z(u) - z(v) = c mod L)
"""

LABELS_FORMAT_HELP = """\
labels file format (text):
  line 1: msvc-labels 1
  line 2: L |U| |V|
  line 3: |U| labels for the U side, space-separated
  line 4: |V| labels for the V side, space-separated
"""

def _clean(value):
    if isinstance(value, float) and not np.isfinite(value):
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def _flatten(payload, prefix=""):
    out = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.extend(_flatten(value, f"{name}."))
        elif isinstance(value, (list, tuple)):
            out.append((name, " ".join(str(v) for v in value)))
        else:
            out.append((name, "" if value is None else str(value)))
    return out


def _emit(payload, fmt):
    payload = _clean(payload)
    if fmt == "csv":
        rows = _flatten(payload)
        print(",".join(name for name, _ in rows))
        print(",".join(val for _, val in rows))
    else:
        print(json.dumps(payload, indent=2))


def _common_flags(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="output format on stdout (default json)")


def _cmd_gaussian_gamma(args):
    value = gaussian_copula(args.rho, args.x, args.y)
    return {"rho": args.rho, "x": args.x, "y": args.y, "value": value}


def _cmd_gaussian_integral(args):
    return {"rho": args.rho, "value": copula_diag_integral(args.rho)}


def _cmd_solve(args):
    graph = load_graph(args.input)
    extra = {}
    if args.method == "exact":
        res = msvc_exact_dp(graph)
        dtype = _table_dtype(graph)
        extra["dp_table"] = {"dtype": dtype.name, "bytes": dtype.itemsize << graph.n}
    elif args.method == "brute":
        res = msvc_bruteforce(graph)
    elif args.method == "greedy":
        res = msvc_greedy(graph)
    else:
        res = msvc_two_phase(graph, seed=args.seed)
    return {"value": res.value, "ordering": list(res.ordering), "method": res.method}, extra


def _cmd_hardness_single(args):
    return {"rho": args.rho, "ratio": round(single_ratio(args.rho), 6)}


def _config(args):
    """The config file of --config, or the bundled figure-1 family."""
    return load_hardness_config(args.config) if args.config else figure1_config()


def _cmd_hardness_composite(args):
    cfg = _config(args)
    rep = composite_ratio(cfg, steps=args.steps)
    payload = {
        "k": cfg.k,
        "steps_per_graph": rep.steps_per_graph,
        "completeness_value": rep.completeness_value,
        "soundness_value": rep.soundness_value,
        "ratio": round(rep.ratio, 6),
    }
    return payload, {"workers": _workers()}


def _cmd_hardness_optimize(args):
    res = optimize_config(_config(args), budget=args.budget, steps=args.steps)
    if args.out:
        save_hardness_config(res.config, args.out)
    payload = {
        "k": res.config.k,
        "budget": args.budget,
        "evaluations": res.evaluations,
        "ratio": round(res.ratio, 6),
        "pairs": [[a, r] for a, r in res.config.pairs],
    }
    return payload, {"workers": _workers()}


def _cmd_reduce_build(args):
    inst = load_ug(args.input)
    graph = build_long_code_graph(inst, args.rho)
    save_graph(graph, args.out)
    rep = verify_reduction(graph, inst, args.rho)
    payload = {
        "n": graph.n,
        "m": graph.m,
        "total_weight": graph.total_weight(),
        "per_vertex_target": rep.per_vertex_target,
        "loop_mass_dropped": rep.loop_mass_total,
        "passed": rep.passed,
    }
    return payload


def _cmd_reduce_verify(args):
    inst = load_ug(args.input)
    graph = load_graph(args.graph)
    rep = verify_reduction(graph, inst, args.rho)
    return asdict(rep)


def _cmd_reduce_order(args):
    inst = load_ug(args.input)
    labeling = load_labels(args.labels)
    order = completeness_ordering(inst, labeling)
    payload = {"n": len(order), "ordering": list(order)}
    if args.rho is not None:
        graph = build_long_code_graph(inst, args.rho)
        value = svc_value(graph, order)
        payload["svc"] = value
        payload["normalized"] = value / (graph.n * graph.total_weight())
        payload["completeness_bound"] = 1.0 / (3.0 - args.rho) + 2.0 ** (-inst.alphabet)
    return payload


def _cmd_unweight(args):
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--eps must be a fraction p/q with q > 0, got {args.eps!r}") from None
    graph = load_graph(args.input)
    out, rep = unweight(graph, args.m, eps, args.seed)
    save_graph(out, args.out)
    gadgets = [
        {
            "edge_index": i,
            "weight": g.spec.weight,
            "target_degree": g.spec.target_degree,
            "retries": g.retries,
            "sampled_edges": g.sampled_edges,
            "added_edges": g.added_edges,
            "subset_mode": g.subset_check.mode,
            "subset_deviation": g.subset_check.max_deviation,
            "subset_bound": g.subset_check.bound,
            "subset_margin": g.subset_check.margin,
        }
        for i, g in enumerate(rep.gadgets)
    ]
    payload = {
        "n": out.n,
        "m": out.m,
        "degree_spread": rep.degree_spread,
        "degree_histogram": {str(k): v for k, v in sorted(rep.degree_histogram.items())},
        "slack_3eps_blowup": rep.slack_3eps_blowup,
        "slack_2eps_output": rep.slack_2eps_output,
    }
    if args.report:
        report = dict(payload)
        report["eps"] = str(rep.eps)
        report["gadgets"] = gadgets
        with open(args.report, "w", encoding="ascii") as fh:
            json.dump(_clean(report), fh, indent=2)
            fh.write("\n")
    certificates = Counter(g.subset_check.mode for g in rep.gadgets)
    return payload, {"certificates": dict(sorted(certificates.items()))}


def _fields(report, *omit):
    """A report dataclass's fields as a dict, in declaration order, less those named."""
    return {k: v for k, v in asdict(report).items() if k not in omit}


def _cmd_regular_ratio(args):
    analysis = optimize_two_phase(args.alpha)
    if args.emit_curve:
        eps_grid = np.arange(analysis.grid_step, 0.25, analysis.grid_step * 100)
        with open(args.emit_curve, "w", encoding="ascii") as fh:
            fh.write("eps,ratio\n")
            for e in eps_grid:
                fh.write(f"{e:.6f},{two_phase_ratio(float(e), args.alpha):.10f}\n")
    return _fields(analysis, "grid_step")


def _cmd_regular_counterexample(args):
    params = CounterexampleParams.from_fraction(args.p, args.q, args.scale)
    graph = counterexample_graph(params)
    payload = {
        "p": params.p,
        "q": params.q,
        "scale": args.scale,
        "delta": params.delta,
        "n": params.n,
        "t": params.t,
        "s": params.s,
        "m": graph.m,
    }
    if args.out:
        save_graph(graph, args.out)
    if args.verify:
        rep = verify_counterexample(params)
        payload["verify"] = _fields(rep, "params", "n", "m", "formula_value")
    return payload


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minsumvc",
        description="Minimum sum vertex cover: solvers, hardness ratios, reductions.",
    )
    parser.add_argument("--version", action="version", version=f"minsumvc {__version__}")
    top = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    gaussian = top.add_parser("gaussian", help="correlated gaussian quadrant probabilities")
    gsub = gaussian.add_subparsers(dest="verb", required=True, metavar="VERB")
    gg = gsub.add_parser("gamma", help="copula value at (x, y)")
    gg.add_argument("--rho", type=float, required=True)
    gg.add_argument("--x", type=float, required=True)
    gg.add_argument("--y", type=float, required=True)
    _common_flags(gg)
    gg.set_defaults(handler=_cmd_gaussian_gamma)
    gi = gsub.add_parser("integral", help="diagonal integral of the copula")
    gi.add_argument("--rho", type=float, required=True)
    _common_flags(gi)
    gi.set_defaults(handler=_cmd_gaussian_integral)

    solve = top.add_parser(
        "solve",
        help="order a graph and report the svc value",
        epilog=GRAPH_FORMAT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    solve.add_argument("--method", choices=("exact", "brute", "greedy", "two-phase"), required=True)
    solve.add_argument("--input", required=True, metavar="FILE")
    solve.add_argument("--seed", type=int, default=0)
    _common_flags(solve)
    solve.set_defaults(handler=_cmd_solve)

    hardness = top.add_parser("hardness", help="inapproximability ratios")
    hsub = hardness.add_subparsers(dest="verb", required=True, metavar="VERB")
    hs = hsub.add_parser("single", help="single-graph ratio at correlation rho")
    hs.add_argument("--rho", type=float, required=True)
    _common_flags(hs)
    hs.set_defaults(handler=_cmd_hardness_single)
    hc = hsub.add_parser(
        "composite",
        help="scheduled ratio over a weighted family",
        epilog=CONFIG_FORMAT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    hc.add_argument("--config", metavar="FILE", help="defaults to the bundled 60-pair family")
    hc.add_argument("--steps", type=int, default=100_000)
    _common_flags(hc)
    hc.set_defaults(handler=_cmd_hardness_composite)
    ho = hsub.add_parser(
        "optimize",
        help="refine a family by coordinate and gradient steps",
        epilog=CONFIG_FORMAT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ho.add_argument("--config", metavar="FILE", help="defaults to the bundled 60-pair family")
    ho.add_argument("--budget", type=int, default=200)
    ho.add_argument("--steps", type=int, default=20_000)
    ho.add_argument("--out", metavar="FILE", help="write the optimized config here")
    _common_flags(ho)
    ho.set_defaults(handler=_cmd_hardness_optimize)

    reduce_fmt = UG_FORMAT_HELP + "\n" + LABELS_FORMAT_HELP + "\n" + GRAPH_FORMAT_HELP
    reduce = top.add_parser(
        "reduce",
        help="long-code reduction graphs",
        epilog=reduce_fmt,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    rsub = reduce.add_subparsers(dest="verb", required=True, metavar="VERB")
    rb = rsub.add_parser(
        "build",
        help="build the reduction graph from a unique-games instance",
        epilog=reduce_fmt,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    rb.add_argument("--input", required=True, metavar="FILE")
    rb.add_argument("--rho", type=float, required=True)
    rb.add_argument("--out", required=True, metavar="FILE")
    _common_flags(rb)
    rb.set_defaults(handler=_cmd_reduce_build)
    rv = rsub.add_parser(
        "verify",
        help="check a built graph against its instance",
        epilog=reduce_fmt,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    rv.add_argument("--input", required=True, metavar="FILE", help="unique-games instance")
    rv.add_argument("--graph", required=True, metavar="FILE", help="built reduction graph")
    rv.add_argument("--rho", type=float, required=True)
    _common_flags(rv)
    rv.set_defaults(handler=_cmd_reduce_verify)
    ro = rsub.add_parser(
        "order",
        help="completeness ordering induced by a labeling",
        epilog=reduce_fmt,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ro.add_argument("--input", required=True, metavar="FILE", help="unique-games instance")
    ro.add_argument("--labels", required=True, metavar="FILE")
    ro.add_argument("--rho", type=float, help="also build the graph and evaluate the ordering")
    _common_flags(ro)
    ro.set_defaults(handler=_cmd_reduce_order)

    unw = top.add_parser(
        "unweight",
        help="replace weighted edges by sampled regular gadgets",
        epilog=GRAPH_FORMAT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    unw.add_argument("--input", required=True, metavar="FILE")
    unw.add_argument("--m", type=int, required=True, help="copies per vertex")
    unw.add_argument("--eps", required=True, help="rational slack, e.g. 1/3")
    unw.add_argument("--seed", type=int, default=0)
    unw.add_argument("--out", required=True, metavar="FILE")
    unw.add_argument("--report", metavar="FILE", help="write per-gadget margins as JSON")
    _common_flags(unw)
    unw.set_defaults(handler=_cmd_unweight)

    regular = top.add_parser("regular", help="regular-graph approximation analysis")
    resub = regular.add_subparsers(dest="verb", required=True, metavar="VERB")
    rr = resub.add_parser("ratio", help="optimize the two-phase threshold")
    rr.add_argument("--alpha", type=float, default=ALPHA_MAX2SAT_BISECTION)
    rr.add_argument("--emit-curve", metavar="FILE", help="write an eps,ratio CSV sweep")
    _common_flags(rr)
    rr.set_defaults(handler=_cmd_regular_ratio)
    rc = resub.add_parser("counterexample", help="K_{2,2} + K_3 tightness construction")
    rc.add_argument("--p", type=int, required=True)
    rc.add_argument("--q", type=int, required=True)
    rc.add_argument("--scale", type=int, default=1)
    rc.add_argument("--verify", action="store_true")
    rc.add_argument("--out", metavar="FILE", help="write the graph here")
    _common_flags(rc)
    rc.set_defaults(handler=_cmd_regular_counterexample)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "reduce" and len(argv) > 1 and argv[1].startswith("-"):
        argv.insert(1, "build")
    parser = build_parser()
    args = parser.parse_args(argv)

    start = time.perf_counter()
    manifest = {
        "subcommand": " ".join(
            p for p in (args.subcommand, getattr(args, "verb", None)) if p
        ),
        "parameters": {
            k: _clean(v)
            for k, v in sorted(vars(args).items())
            if k not in ("handler", "subcommand", "verb") and not callable(v)
        },
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "input_digests": {},
        "wall_time_s": None,
    }
    graph_module._digests = {}
    try:
        payload = args.handler(args)
        if isinstance(payload, tuple):  # (payload, manifest entries)
            payload, extra = payload
            manifest.update(extra)
        manifest["input_digests"] = graph_module._digests
    except (ValueError, OSError, RuntimeError, AssertionError, ZeroDivisionError) as exc:
        manifest["wall_time_s"] = round(time.perf_counter() - start, 6)
        manifest["error"] = str(exc)
        print(json.dumps(manifest), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        graph_module._digests = None
    _emit(payload, args.format)
    manifest["wall_time_s"] = round(time.perf_counter() - start, 6)
    print(json.dumps(manifest), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
