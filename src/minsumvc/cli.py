"""Command-line interface exposing every operation as a subcommand.

Output conventions: results go to standard output as JSON (or CSV with
--format csv); a one-line run manifest (subcommand, parameters, seed,
version, sha256 of each input file, wall time, for unweight the gadget
count per subset-check certificate, for hardness composite and hardness
optimize the thread pool size `workers`, the profile pairs `built` and
taken `from_memo`, and the module `ndtr` came from, and for solve
--method exact, two-phase where its exact Max-k-VC reads a table, and
regular counterexample --verify up to n = 24, the 2^n table's `dp_table`
dtype (uint16, float32 or float64) and bytes, for reduce build and reduce
order --rho the `long_code` blocks and edges, and for reduce build the
`bytes_written`) goes to standard error.
Exit codes: 0 success, 2 usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import __version__
from . import graph as graph_module
from . import hardness as hardness_module
from .graph import _table_dtype, _workers, load_graph, save_graph
from .hardness import (
    composite_limit,
    composite_ratio,
    figure1_config,
    load_hardness_config,
    optimize_config,
    save_hardness_config,
    single_ratio,
)
from .gaussian import _ndtr_module, copula_diag_integral, gaussian_copula
from .reduction import (
    build_long_code_graph,
    completeness_ordering,
    load_labels,
    load_ug,
    long_code_svc,
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
from .solvers import DP_MAX_VERTICES, msvc_bruteforce, msvc_exact_dp, msvc_greedy, msvc_two_phase
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


def _cmd_gaussian_gamma(args):
    value = gaussian_copula(args.rho, args.x, args.y)
    return {"rho": args.rho, "x": args.x, "y": args.y, "value": value}


def _cmd_gaussian_integral(args):
    return {"rho": args.rho, "value": copula_diag_integral(args.rho)}


def _cmd_solve(args):
    graph = load_graph(args.input)
    if args.method == "exact":
        res = msvc_exact_dp(graph)
    elif args.method == "brute":
        res = msvc_bruteforce(graph)
    elif args.method == "greedy":
        res = msvc_greedy(graph)
    else:
        res = msvc_two_phase(graph, seed=args.seed)
    payload = {"value": res.value, "ordering": list(res.ordering), "method": res.method}
    # two-phase reads a table for Max-k-VC at 0 < k = n // 2 < n <= 24,
    # where C(n, k) is within the exact budget
    if args.method == "exact" or (args.method == "two-phase" and 2 <= graph.n <= DP_MAX_VERTICES):
        return payload, _dp_table_entry(graph)
    return payload


def _dp_table_entry(graph):
    """The manifest entry naming the dtype and bytes of the graph's 2^n table."""
    dtype = _table_dtype(graph)
    return {"dp_table": {"dtype": dtype.name, "bytes": dtype.itemsize << graph.n}}


def _cmd_hardness_single(args):
    return {"rho": args.rho, "ratio": round(single_ratio(args.rho), 6)}


def _config(args):
    """The config file of --config, or the bundled figure-1 family."""
    return load_hardness_config(args.config) if args.config else figure1_config()


def _memo_counts():
    """Profile pairs in composite_ratio's memo, and keys it has served."""
    return len(hardness_module._profile_memo), hardness_module._profile_hits


def _copula_entries(before):
    """Manifest entries of a hardness command, given _memo_counts() before it."""
    built, from_memo = (after - b for after, b in zip(_memo_counts(), before))
    return {
        "workers": _workers(),
        "profiles": {"built": built, "from_memo": from_memo},
        "ndtr": _ndtr_module().__name__,
    }


def _cmd_hardness_composite(args):
    cfg = _config(args)
    before = _memo_counts()
    if args.limit:
        return {"k": cfg.k, **_fields(composite_limit(cfg))}, _copula_entries(before)
    rep = composite_ratio(cfg, steps=args.steps)
    payload = {
        "k": cfg.k,
        "steps_per_graph": rep.steps_per_graph,
        "completeness_value": rep.completeness_value,
        "soundness_value": rep.soundness_value,
        "ratio": round(rep.ratio, 6),
    }
    return payload, _copula_entries(before)


def _cmd_hardness_optimize(args):
    before = _memo_counts()
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
    return payload, _copula_entries(before)


def _cmd_reduce_build(args):
    inst = load_ug(args.input)
    graph = build_long_code_graph(inst, args.rho)
    written = save_graph(graph, args.out)
    rep = verify_reduction(graph, inst, args.rho)
    payload = {
        "n": graph.n,
        "m": graph.m,
        "total_weight": graph.total_weight(),
        "per_vertex_target": rep.per_vertex_target,
        "loop_mass_dropped": rep.loop_mass_total,
        "passed": rep.passed,
    }
    counts = {"blocks": inst.u_count * inst.u_degree**2, "edges": graph.m}
    return payload, {"long_code": counts, "bytes_written": written}


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
    if args.rho is None:
        return payload
    value, total, edges = long_code_svc(inst, args.rho, order)
    payload.update(svc=value, normalized=value / (len(order) * total),
                   completeness_bound=1.0 / (3.0 - args.rho) + 2.0 ** (-inst.alphabet))
    return payload, {"long_code": {"blocks": inst.u_count * inst.u_degree**2, "edges": edges}}


def _cmd_unweight(args):
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--eps must be a fraction p/q with q > 0, got {args.eps!r}") from None
    graph = load_graph(args.input)
    out, rep = unweight(graph, args.m, eps, args.seed)
    save_graph(out, args.out)
    payload = {
        "n": out.n,
        "m": out.m,
        "degree_spread": rep.degree_spread,
        "degree_histogram": {str(k): v for k, v in sorted(rep.degree_histogram.items())},
        "slack_3eps_blowup": rep.slack_3eps_blowup,
        "slack_2eps_output": rep.slack_2eps_output,
    }
    if args.report:
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
        report = {**payload, "eps": str(rep.eps), "gadgets": gadgets}
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
        if rep.exact_mode:
            return payload, _dp_table_entry(graph)
    return payload


def _command(parent, name, handler, help, epilog=None):
    """Subparser name of parent, running handler (None for a verb group); an
    epilog keeps its line breaks."""
    layout = {"epilog": epilog, "formatter_class": argparse.RawDescriptionHelpFormatter} if epilog else {}
    sub = parent.add_parser(name, help=help, **layout)
    if handler:
        sub.set_defaults(handler=handler)
    return sub


def _group(top, name, help, epilog=None):
    """A command whose verbs are added to the subparsers returned."""
    return _command(top, name, None, help, epilog).add_subparsers(dest="verb", required=True, metavar="VERB")


@functools.cache
def build_parser():
    """The argument parser, built once per process (main parses every call with it)."""
    parser = argparse.ArgumentParser(
        prog="minsumvc",
        description="Minimum sum vertex cover: solvers, hardness ratios, reductions.",
    )
    parser.add_argument("--version", action="version", version=f"minsumvc {__version__}")
    top = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    gsub = _group(top, "gaussian", "correlated gaussian quadrant probabilities")
    gg = _command(gsub, "gamma", _cmd_gaussian_gamma, "copula value at (x, y)")
    gg.add_argument("--rho", type=float, required=True)
    gg.add_argument("--x", type=float, required=True)
    gg.add_argument("--y", type=float, required=True)
    gi = _command(gsub, "integral", _cmd_gaussian_integral, "diagonal integral of the copula")
    gi.add_argument("--rho", type=float, required=True)

    solve = _command(top, "solve", _cmd_solve, "order a graph and report the svc value", GRAPH_FORMAT_HELP)
    solve.add_argument("--method", choices=("exact", "brute", "greedy", "two-phase"), required=True)
    solve.add_argument("--input", required=True, metavar="FILE")
    solve.add_argument("--seed", type=int, default=0)

    hsub = _group(top, "hardness", "inapproximability ratios")
    hs = _command(hsub, "single", _cmd_hardness_single, "single-graph ratio at correlation rho")
    hs.add_argument("--rho", type=float, required=True)
    hc = _command(
        hsub, "composite", _cmd_hardness_composite, "scheduled ratio over a weighted family", CONFIG_FORMAT_HELP
    )
    hc.add_argument("--config", metavar="FILE", help="defaults to the bundled 60-pair family")
    steps = hc.add_mutually_exclusive_group()
    steps.add_argument("--steps", type=int, default=100_000)
    steps.add_argument(
        "--limit",
        action="store_true",
        help="print the steps -> infinity limit, at 2^12 steps per graph, with its refinement gap and concavity",
    )
    ho = _command(
        hsub, "optimize", _cmd_hardness_optimize, "refine a family by coordinate and gradient steps", CONFIG_FORMAT_HELP
    )
    ho.add_argument("--config", metavar="FILE", help="defaults to the bundled 60-pair family")
    ho.add_argument("--budget", type=int, default=200)
    ho.add_argument("--steps", type=int, default=20_000)
    ho.add_argument("--out", metavar="FILE", help="write the optimized config here")

    reduce_fmt = UG_FORMAT_HELP + "\n" + LABELS_FORMAT_HELP + "\n" + GRAPH_FORMAT_HELP
    rsub = _group(top, "reduce", "long-code reduction graphs", reduce_fmt)
    rb = _command(
        rsub, "build", _cmd_reduce_build, "build the reduction graph from a unique-games instance", reduce_fmt
    )
    rb.add_argument("--input", required=True, metavar="FILE")
    rb.add_argument("--rho", type=float, required=True)
    rb.add_argument("--out", required=True, metavar="FILE")
    rv = _command(rsub, "verify", _cmd_reduce_verify, "check a built graph against its instance", reduce_fmt)
    rv.add_argument("--input", required=True, metavar="FILE", help="unique-games instance")
    rv.add_argument("--graph", required=True, metavar="FILE", help="built reduction graph")
    rv.add_argument("--rho", type=float, required=True)
    ro = _command(rsub, "order", _cmd_reduce_order, "completeness ordering induced by a labeling", reduce_fmt)
    ro.add_argument("--input", required=True, metavar="FILE", help="unique-games instance")
    ro.add_argument("--labels", required=True, metavar="FILE")
    ro.add_argument("--rho", type=float, help="also build the graph and evaluate the ordering")

    unw = _command(
        top, "unweight", _cmd_unweight, "replace weighted edges by sampled regular gadgets", GRAPH_FORMAT_HELP
    )
    unw.add_argument("--input", required=True, metavar="FILE")
    unw.add_argument("--m", type=int, required=True, help="copies per vertex")
    unw.add_argument("--eps", required=True, help="rational slack, e.g. 1/3")
    unw.add_argument("--seed", type=int, default=0)
    unw.add_argument("--out", required=True, metavar="FILE")
    unw.add_argument("--report", metavar="FILE", help="write per-gadget margins as JSON")

    resub = _group(top, "regular", "regular-graph approximation analysis")
    rr = _command(resub, "ratio", _cmd_regular_ratio, "optimize the two-phase threshold")
    rr.add_argument("--alpha", type=float, default=ALPHA_MAX2SAT_BISECTION)
    rr.add_argument("--emit-curve", metavar="FILE", help="write an eps,ratio CSV sweep")
    rc = _command(resub, "counterexample", _cmd_regular_counterexample, "K_{2,2} + K_3 tightness construction")
    rc.add_argument("--p", type=int, required=True)
    rc.add_argument("--q", type=int, required=True)
    rc.add_argument("--scale", type=int, default=1)
    rc.add_argument("--verify", action="store_true")
    rc.add_argument("--out", metavar="FILE", help="write the graph here")

    # last, so that it closes every command's option list
    for leaf in (gg, gi, solve, hs, hc, ho, rb, rv, ro, unw, rr, rc):
        leaf.add_argument(
            "--format", choices=("json", "csv"), default="json", help="output format on stdout (default json)"
        )
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
