"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py SPEC_JSON

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and a spec holding the
monotonic clock reading taken just before the spawn, the pass's calls, and
whether to trace.  It measures set-up (interpreter start to ``minsumvc.cli``
imported), runs the calls in-process with stdout captured, and prints one
JSON object: set-up time, per-call exit code, time and stdout, the pass's
wall time and peak RSS, and in a traced pass the spans.
"""

import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import resource
import sys
import time
import traceback


def monotonic():
    # CLOCK_MONOTONIC is shared by all processes, so the parent's spawn
    # time and this process's clock readings can be subtracted.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _observe_main(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    if argv[0] == "solve":
        verb = "solve_" + argv[argv.index("--method") + 1]
    elif argv[0] == "unweight":
        verb = "unweight"
    else:
        verb = f"{argv[0]}_{argv[1]}"
    return {"verb": verb.replace("-", "_")}


def _observe_grid(args, kwargs, result):
    return {"points": int(result.size)}


def _observe_profile(args, kwargs, result):
    return {"key": repr((args, sorted(kwargs.items())))}


def _observe_composite(args, kwargs, result):
    return {"steps": int(result.completeness_schedule.size + result.soundness_schedule.size)}


def _observe_read(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text), "edges": result.m}


def _observe_write(args, kwargs, result):
    return {"bytes": len(result)}


def _observe_build(args, kwargs, result):
    return {"edges": result.m}


def _observe_gadget(args, kwargs, result):
    check = result.subset_check
    return {
        "retries": result.retries,
        "added": result.added_edges,
        "pairs": check.pairs_checked,
        "sampled": int(check.mode == "sampled"),
    }


def _observe_dp(args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    return {"states": 1 << graph.n}


# Counts read from the arguments and results at a traced boundary.
OBSERVERS = {
    "cli.main": _observe_main,
    "gaussian.copula_diag_grid": _observe_grid,
    "hardness.completeness_profile": _observe_profile,
    "hardness.soundness_profile": _observe_profile,
    "hardness.composite_ratio": _observe_composite,
    "graph.read_graph": _observe_read,
    "graph.write_graph": _observe_write,
    "reduction.build_long_code_graph": _observe_build,
    "unweighting.sample_gadget": _observe_gadget,
    "solvers.msvc_exact_dp": _observe_dp,
}


class Tracer:
    """Spans [id, parent id, name, start, end, counts] kept in memory."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None, name, 0.0, 0.0, None]
            self.spans.append(span)
            self._open.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every public function of the package under every name it has.

        A function imported into another module (``minsumvc.cli.load_graph``
        is ``minsumvc.graph.load_graph``) gets the same wrapper there, so
        calls through either name are traced once.
        """
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[obj])


def two_phase_local_search(minsumvc, call):
    graph = minsumvc.graph.load_graph(call["graph"])
    res = minsumvc.solvers.msvc_two_phase(graph, kvc_mode="local-search", seed=call["seed"])
    print(json.dumps({"value": res.value, "ordering": list(res.ordering)}, indent=2))
    return 0


LIBRARY_CALLS = {"two_phase_local_search": two_phase_local_search}


def run_call(minsumvc, call):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if call["kind"] == "cli":
                code = minsumvc.cli.main(call["argv"])
            else:
                code = LIBRARY_CALLS[call["kind"]](minsumvc, call)
    except Exception:  # a crash is one failed call; the pass goes on
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    failed = code != 0
    return {
        "label": call["label"],
        "code": code,
        "wall_s": wall,
        "stdout": out.getvalue(),
        "stderr": err.getvalue() if failed else "",
    }


def main():
    spec = json.loads(sys.argv[1])
    import minsumvc.cli

    setup_s = monotonic() - spec["spawned_at"]
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install(minsumvc)
    start = time.perf_counter()
    calls = [run_call(minsumvc, call) for call in spec["calls"]]
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak_kib / 1024.0,
        "calls": calls,
        "spans": tracer.spans if tracer is not None else None,
    }))


if __name__ == "__main__":
    main()
