"""Benchmark of the minsumvc command line on two seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Closed loop with one client: each pass runs the workload's calls (see
``workloads.py``) in a fresh child process (``child.py``) on input files
generated from the seed, and the next pass starts when the previous one
has ended.  Passes keep starting while the next one is expected to end
within ``--seconds``.  Children run one at a time with BLAS thread counts
set to one.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
medians over the passes: ``wall_s`` (the pass's calls, inputs on disk to
stdout and output files), ``peak_rss_mb`` (the child's own peak RSS) and
``setup_s`` (fresh interpreter to ``minsumvc.cli`` imported, at least five
samples).  With ``--trace 1`` untraced and traced passes alternate and the
line holds the per-layer metrics of the traced passes (``layers.py``) and
``trace_overhead_s``, traced minus untraced ``wall_s``.

Every call is checked: exit code 0, stdout equal to the first pass's (so
traced output equals untraced), the stdout sha256 pinned in
``digests.json`` for seed 0, and the workload's own output checks.
``attempted`` counts calls and ``failed`` those failing a check.

``--smoke`` runs every workload on tiny inputs, traced and untraced, and
checks that each metric named in ``BENCHMARK.json`` is reported with its
unit.  Run records, samples and spans are written to ``bench/out/``.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layers import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 90
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # One BLAS thread: the program's wall time is the same with more, but
    # extra threads spin on the second CPU and make timings depend on
    # whatever else the machine runs.
    env.update({var: "1" for var in BLAS_VARS})
    return env


def run_child(calls, trace, env):
    """One pass in a fresh interpreter; returns the child's JSON report."""
    spec = {"spawned_at": monotonic(), "trace": trace, "calls": calls}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"pass child printed no report:\n{proc.stdout[-2000:]}") from None


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    p = 100 * (n - 10) // n
    return {"percentile": p, "value": sorted(samples)[max(0, math.ceil(p * n / 100) - 1)]}


def git_state():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None, None
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30).stdout.strip() != ""
        return sha, dirty
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_record(seed, nproc, env):
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": nproc,
        "mem_total_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "seed": seed,
        "children_at_once": 1,
    }


def load_digests(workload, seed, size):
    """{label: stdout sha256} pinned for seed 0, keyed like the pass's calls."""
    if seed != 0 or size != "full":
        return {}
    with open(BENCH / "digests.json", encoding="ascii") as fh:
        pinned = json.load(fh)
    return {f"{part}.{label}": digest for part in workloads.WORKLOADS[workload]
            for label, digest in pinned[part].items()}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_pass(workload, calls, report, reference, digests, size):
    """{label: reason} for the calls of one pass that failed a check."""
    bad = workloads.check_pass(workload, calls, {c["label"]: c["stdout"] for c in report["calls"]}, size)
    for c in report["calls"]:
        label = c["label"]
        if c["code"] != 0:
            bad[label] = f"exit code {c['code']}: {c['stderr'][-500:]}"
        elif c["stdout"] != reference[label]:
            bad[label] = "stdout differs from the first (untraced) pass"
        elif label in digests and sha256(c["stdout"]) != digests[label]:
            bad[label] = "stdout sha256 differs from the pinned digest"
    return bad


def median_metrics(per_pass):
    return {name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()}


def run_workload(workload, seed, seconds, trace, size="full"):
    """Measure one workload, write its run record; returns the result line."""
    if not (ROOT / "src" / "minsumvc" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'minsumvc'} is missing")
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        calls = workloads.pass_calls(workload, str(work), seed, size)
        run_child([], False, env)  # warm-up: byte-code caches, page cache
        passes = []
        start = monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            began = monotonic()
            report = run_child(calls, traced, env)
            report["traced"] = traced
            report["elapsed_s"] = monotonic() - began
            passes.append(report)
            expected_end = monotonic() - start + statistics.median(p["elapsed_s"] for p in passes)
            if expected_end > seconds and (not trace or len(passes) >= 2):
                break
        setups = [p["setup_s"] for p in passes]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_child([], False, env)["setup_s"])
        # checks read the pass's input and output files, so run them here
        digests = load_digests(workload, seed, size)
        reference = {c["label"]: c["stdout"] for c in passes[0]["calls"]}
        failures = []
        for i, report in enumerate(passes):
            bad = check_pass(workload, calls, report, reference, digests, size)
            failures += [{"pass": i, "call": label, "reason": why} for label, why in sorted(bad.items())]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p["calls"]) for p in passes)

    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p["spans"], sum(len(c["stdout"].encode()) for c in p["calls"]))
                    for p in traced]
        metrics = median_metrics(per_pass)
        overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(walls)
        metrics["trace_overhead_s"] = (overhead, "s")
        with open(OUT / f"{workload}-seed{seed}-spans.json", "w", encoding="ascii") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "counts"],
                       "passes": [p["spans"] for p in traced]}, fh)
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "record": run_record(seed, nproc, env),
        "workload": workload,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "timings": {
            "wall_s": {"median": statistics.median(walls), "samples": len(walls),
                       "tail": tail_percentile(walls)},
            "setup_s": {"median": statistics.median(setups), "samples": len(setups),
                        "tail": tail_percentile(setups)},
        },
        "setup_samples": setups,
        "passes": [{
            "traced": p["traced"],
            "wall_s": p["wall_s"],
            "peak_rss_mb": p["peak_rss_mb"],
            "setup_s": p["setup_s"],
            "calls": [{"label": c["label"], "code": c["code"], "wall_s": c["wall_s"],
                       "stdout_bytes": len(c["stdout"].encode()), "stdout_sha256": sha256(c["stdout"])}
                      for c in p["calls"]],
        } for p in passes],
        "failures": failures,
        "result": result,
    }
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    return result


def smoke():
    """Every workload once on tiny inputs; every declared metric with its unit."""
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        declared = json.load(fh)
    problems = []
    for workload in declared["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(workload["name"], 0, 0, trace, size="smoke")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared[key]}
            where = f"{workload['name']} trace={int(trace)}"
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got.items()) ^ set(want.items()))} "
                                "differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} calls failed")
            print(f"{where}: {result['attempted']} calls, {result['failed']} failed", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every workload, check metric names")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
