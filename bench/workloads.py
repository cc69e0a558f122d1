"""The two benchmark workloads: seeded inputs, the calls of one pass, checks.

A workload runs two parts in each pass.  A part writes its input files
from the benchmark seed, lists its calls (CLI argument vectors for
``minsumvc.cli.main``, plus one library call in ``solve``), and checks
its outputs.  The program only ever sees the generated files and
argument vectors.

- hardness_solve: the ``hardness`` part (gaussian and hardness do nearly
  all the work, the graph code is idle; ``optimize`` re-evaluates
  profiles for mostly unchanged rhos, so a profile cache shows here),
  then the ``solve`` part (memory set by 2^n DP tables).
- reduction_unweight: the ``reduction`` part (the graph text codec on
  fractional weights dominates time and memory), then the ``unweight``
  part (gadget sampling and the subset check; a tiny weighted read and a
  write-heavy unit-weight output).

Every module of ``minsumvc`` runs in one of the two, so the per-layer
metrics of a traced run split each pass by module.  Two workloads, not
four, so that each run can be long: the machine's speed drifts by tens
of percent over minutes, and a run has to average over that drift.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

# Sizes per part.  "full" is what a measured run uses; "smoke" is the
# tiny variant that only checks the harness end to end.
SIZES = {
    "hardness": {
        "full": {"steps": 100_000, "sweep": 12, "budget": 2},
        "smoke": {"steps": 100_000, "sweep": 12, "budget": 1},
    },
    "reduction": {
        "full": {"L": 8, "size": 4, "degree": 2},
        "smoke": {"L": 3, "size": 4, "degree": 3},
    },
    "unweight": {
        "full": {"L": 2, "size": 4, "degree": 2, "m": 48},
        "smoke": {"L": 2, "size": 2, "degree": 1, "m": 48},
    },
    "solve": {
        "full": {"n": 22, "n_local": 60},
        "smoke": {"n": 10, "n_local": 12},
    },
}

REDUCTION_RHO = -0.52
UNWEIGHT_RHO = -0.5
UNWEIGHT_EPS = "1/3"
COMPOSITE_FLOOR = 1.0748 - 5e-3
SINGLE_PEAK, SINGLE_TOL = 1.0157, 5e-4
RHO_LO, RHO_HI = -0.999, 0.0


def cli_call(label, *argv):
    return {"label": label, "kind": "cli", "argv": [str(a) for a in argv]}


def _rng(seed, part):
    return np.random.default_rng([seed, sorted(SIZES).index(part)])


def _write(path, lines):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_ug(work, rng, L, size, degree):
    """A biregular affine unique-games instance with a planted labeling.

    u's neighbours are perm[u], perm[u + 1], ... (mod size): no parallel
    constraints, so the reduction graph's edge count, and with it the
    pass's work, is the same for every seed.
    """
    zu = rng.integers(0, L, size)
    zv = rng.integers(0, L, size)
    perm = rng.permutation(size)
    edges = []
    for j in range(degree):
        for u in range(size):
            v = int(perm[(u + j) % size])
            edges.append((u, v, int(zu[u] - zv[v]) % L))
    ug, labels = f"{work}/inst.ug", f"{work}/inst.labels"
    _write(ug, ["msvc-ug 1", f"{L} {size} {size} {len(edges)}"] + [f"{u} {v} {c}" for u, v, c in edges])
    _write(labels, ["msvc-labels 1", f"{L} {size} {size}",
                    " ".join(map(str, zu)), " ".join(map(str, zv))])
    return ug, labels


def _cubic_edges(rng, n):
    """A simple 3-regular graph on n vertices, pairing model with rejection."""
    stubs = np.repeat(np.arange(n), 3)
    while True:
        pairs = np.sort(rng.permutation(stubs).reshape(-1, 2), axis=1)
        if np.all(pairs[:, 0] != pairs[:, 1]) and len({tuple(p) for p in pairs.tolist()}) == len(pairs):
            return pairs.tolist()


def _write_graph(path, n, edges):
    _write(path, ["msvc-graph 1", f"{n} {len(edges)}"] + [f"{u} {v} {w}" for u, v, w in edges])


def read_graph_file(path):
    """(n, [(u, v, w)]) from a graph text file; the benchmark's own reader."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    n = int(lines[1].split()[0])
    edges = [(int(u), int(v), float(w)) for u, v, w in (ln.split() for ln in lines[2:] if ln)]
    return n, edges


def svc(edges, ordering):
    """Sum over edges of weight times 1-based cover time."""
    pos = {v: i for i, v in enumerate(ordering)}
    return sum(w * (min(pos[u], pos[v]) + 1) for u, v, w in edges)


# ---------------------------------------------------------------------------
# calls of one pass


def hardness_calls(work, seed, p):
    spacing = (RHO_HI - RHO_LO) / p["sweep"]
    offset = float(_rng(seed, "hardness").uniform(0.0, spacing))
    rhos = [RHO_LO + offset + i * spacing for i in range(p["sweep"])]
    return (
        [cli_call("composite", "hardness", "composite", "--steps", p["steps"])]
        + [cli_call(f"single_{i}", "hardness", "single", "--rho", repr(r)) for i, r in enumerate(rhos)]
        + [cli_call("optimize", "hardness", "optimize", "--budget", p["budget"],
                    "--out", f"{work}/optimized.cfg")]
    )


def reduction_calls(work, seed, p):
    ug, labels = _write_ug(work, _rng(seed, "reduction"), p["L"], p["size"], p["degree"])
    graph = f"{work}/reduction.graph"
    return [
        cli_call("build", "reduce", "build", "--input", ug, "--rho", REDUCTION_RHO, "--out", graph),
        cli_call("verify", "reduce", "verify", "--input", ug, "--graph", graph, "--rho", REDUCTION_RHO),
        cli_call("order", "reduce", "order", "--input", ug, "--labels", labels, "--rho", REDUCTION_RHO),
    ]


def unweight_calls(work, seed, p):
    ug, _ = _write_ug(work, _rng(seed, "unweight"), p["L"], p["size"], p["degree"])
    weighted = f"{work}/dyadic.graph"
    return [
        cli_call("build", "reduce", "build", "--input", ug, "--rho", UNWEIGHT_RHO, "--out", weighted),
        cli_call("unweight", "unweight", "--input", weighted, "--m", p["m"], "--eps", UNWEIGHT_EPS,
                 "--seed", seed, "--out", f"{work}/unit.graph", "--report", f"{work}/gadgets.json"),
    ]


def solve_calls(work, seed, p):
    rng = _rng(seed, "solve")
    small, large = f"{work}/cubic.graph", f"{work}/cubic_local.graph"
    _write_graph(small, p["n"], [(u, v, 1) for u, v in _cubic_edges(rng, p["n"])])
    _write_graph(large, p["n_local"], [(u, v, 1) for u, v in _cubic_edges(rng, p["n_local"])])
    return [
        cli_call("exact", "solve", "--method", "exact", "--input", small),
        cli_call("two_phase", "solve", "--method", "two-phase", "--input", small),
        cli_call("counterexample", "regular", "counterexample", "--p", 1, "--q", 10, "--scale", 2, "--verify"),
        # the CLI cannot select the local-search Max-k-VC, so call the library
        {"label": "local_search", "kind": "two_phase_local_search", "graph": large, "seed": seed},
    ]


# ---------------------------------------------------------------------------
# output checks: each returns {label: reason} for the calls that failed


def _arg(call, flag):
    return call["argv"][call["argv"].index(flag) + 1]


def check_hardness(out, calls, p):
    bad = {}
    if out["composite"]["ratio"] < COMPOSITE_FLOOR:
        bad["composite"] = f"composite ratio {out['composite']['ratio']} below {COMPOSITE_FLOOR}"
    sweep = [k for k in out if k.startswith("single_")]
    peak = max(out[k]["ratio"] for k in sweep)
    if abs(peak - SINGLE_PEAK) > SINGLE_TOL:
        bad.update({k: f"sweep maximum {peak} not within {SINGLE_TOL} of {SINGLE_PEAK}" for k in sweep})
    return bad


def check_reduction(out, calls, p):
    bad = {k: "passed is not true" for k in ("build", "verify") if out[k]["passed"] is not True}
    order = out["order"]
    if order["normalized"] > order["completeness_bound"] + 1e-9:
        bad["order"] = "planted labeling ordering exceeds the completeness bound"
    return bad


def check_unweight(out, calls, p):
    bad = {} if out["build"]["passed"] is True else {"build": "passed is not true"}
    n, edges = read_graph_file(_arg(calls[0], "--out"))
    incident = [0.0] * n
    for u, v, w in edges:
        incident[u] += w
        incident[v] += w
    # every output degree is (1 + eps) * m times the vertex's incident weight
    expected = float((1 + Fraction(UNWEIGHT_EPS)) * p["m"]) * (max(incident) - min(incident))
    if abs(out["unweight"]["degree_spread"] - expected) > 1e-9:
        bad["unweight"] = f"degree_spread {out['unweight']['degree_spread']} != {expected}"
    return bad


def check_solve(out, calls, p):
    bad = {}
    for call in calls:
        label = call["label"]
        if label == "counterexample":
            continue
        n, edges = read_graph_file(_arg(call, "--input") if call["kind"] == "cli" else call["graph"])
        ordering = out[label]["ordering"]
        if sorted(ordering) != list(range(n)) or abs(svc(edges, ordering) - out[label]["value"]) > 1e-9:
            bad[label] = "ordering is not a permutation with the reported value"
    exact, two = out["exact"]["value"], out["two_phase"]["value"]
    if not exact - 1e-9 <= two <= 4.0 / 3.0 * exact + 1e-9:
        bad["two_phase"] = f"two-phase {two} outside [exact, 4/3 exact] with exact {exact}"
    return bad


PARTS = {
    "hardness": (hardness_calls, check_hardness),
    "reduction": (reduction_calls, check_reduction),
    "unweight": (unweight_calls, check_unweight),
    "solve": (solve_calls, check_solve),
}

WORKLOADS = {
    "hardness_solve": ("hardness", "solve"),
    "reduction_unweight": ("reduction", "unweight"),
}


def pass_calls(workload, work, seed, size):
    """The calls of one pass, labelled ``<part>.<call>``.

    Each part writes its inputs into its own subdirectory of ``work``.
    """
    calls = []
    for part in WORKLOADS[workload]:
        part_dir = os.path.join(work, part)
        os.mkdir(part_dir)
        for call in PARTS[part][0](part_dir, seed, SIZES[part][size]):
            calls.append({**call, "label": f"{part}.{call['label']}"})
    return calls


def _check_part(part, calls, stdouts, size):
    parsed = {}
    bad = {}
    for call in calls:
        try:
            parsed[call["label"]] = json.loads(stdouts[call["label"]])
        except (TypeError, ValueError):
            bad[call["label"]] = "stdout is not JSON"
    if bad:
        return bad
    try:
        return PARTS[part][1](parsed, calls, SIZES[part][size])
    except (KeyError, TypeError, ValueError) as exc:
        return {call["label"]: f"output check raised {exc!r}" for call in calls}


def check_pass(workload, calls, stdouts, size):
    """{label: reason} for every call of a pass whose output is wrong."""
    bad = {}
    for part in WORKLOADS[workload]:
        prefix = part + "."
        own = [{**c, "label": c["label"][len(prefix):]} for c in calls if c["label"].startswith(prefix)]
        outs = {c["label"]: stdouts[prefix + c["label"]] for c in own}
        bad.update({prefix + label: why for label, why in _check_part(part, own, outs, size).items()})
    return bad
