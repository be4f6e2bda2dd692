"""Spans recorded around calls into crowdbp's public functions.

Only the traced run uses this module.  ``Tracer.install`` replaces module
attributes of the already imported ``crowdbp`` package with wrappers that
record a span per call; ``Tracer.uninstall`` puts the originals back.  The
package source is never edited, so the untraced run executes the library
exactly as a user would.

A span holds its name, start and end (``time.perf_counter``), the process
CPU time it covered, its parent span and the run id it belongs to.  Spans
are kept in memory and written as JSON lines once the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

# The library's default convergence tolerance: a fixed-budget decode whose
# last change fell below it would have converged under default settings.
DEFAULT_TOL = 1e-5


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    thread: int = 0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; safe to use from the harness thread pool."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = "untraced"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = Span(len(self.spans), name, self.run, parent, 0.0,
                        thread=threading.get_ident())
            self.spans.append(span)
        stack.append(span.id)
        span.cpu = time.process_time()
        span.start = time.perf_counter()
        return span

    def end(self, span: Span, error: BaseException | None = None) -> None:
        span.end = time.perf_counter()
        span.cpu = time.process_time() - span.cpu
        if error is not None:
            span.error = type(error).__name__
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form, for the benchmark's own calls."""
        span = self.begin(name)
        try:
            yield span
        except BaseException as exc:
            self.end(span, exc)
            raise
        self.end(span)

    def start_run(self, run: str) -> Span:
        """Open the root span of one traced setup or pass."""
        self.run = run
        root = self.begin(run)
        self._root = root.id
        return root

    def finish_run(self, root: Span) -> None:
        self.end(root)
        self._root = None

    # -- attribute patching ----------------------------------------------

    def _wrap(self, func, name: str, on_result=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer.end(span, exc)
                raise
            tracer.end(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, attr: str, name: str, on_result=None,
                      everywhere: bool = True) -> None:
        """Wrap ``module.attr``; with ``everywhere`` also every crowdbp module
        that imported the same function object by name."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrap(original, name, on_result)
        owners = [sys.modules[module]]
        if everywhere:
            owners = [mod for key, mod in sorted(sys.modules.items())
                      if (key == "crowdbp" or key.startswith("crowdbp."))
                      and mod.__dict__.get(attr) is original]
        for owner in owners:
            self._patch(owner, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str, on_result=None) -> None:
        descriptor = cls.__dict__[attr]
        if isinstance(descriptor, classmethod):
            wrapped = self._wrap(descriptor.__func__, name, on_result)
            self._patch(cls, attr, classmethod(wrapped))
        else:
            self._patch(cls, attr, self._wrap(descriptor, name, on_result))

    def install(self) -> None:
        import crowdbp.cli  # noqa: F401  (loads every module the wrappers patch)
        from crowdbp.estimators import EstimatorSpec
        from crowdbp.priors import FactorTable

        def keep_graph(span, args, kwargs, result):
            span.attrs["graph"] = graph_shape(result)

        def keep_report(span, args, kwargs, result):
            span.attrs["iterations"] = result.iterations_run
            span.attrs["converged"] = bool(result.converged
                                           or result.max_delta < DEFAULT_TOL)

        def keep_atoms(span, args, kwargs, result):
            span.attrs["atoms"] = int(result.atom_p.size)

        def keep_r_max(span, args, kwargs, result):
            span.attrs["r_max"] = int(result.r_max)

        def keep_boundary(span, args, kwargs, result):
            span.attrs["clamped_share"] = result.boundary_tasks.size / args[0].n_tasks

        def keep_dataset(span, args, kwargs, result):
            span.attrs["graph"] = graph_shape(result.graph)
            span.attrs["rows"] = int(result.graph.n_edges)

        fn = self.wrap_function
        fn("crowdbp.graph", "generate_regular_bipartite", "graph.generate", keep_graph)
        fn("crowdbp.graph", "sample_ground_truth", "graph.sample")
        fn("crowdbp.graph", "sample_answers", "graph.sample")
        # Only the graph module's reference: that is the by_task/by_worker build.
        fn("crowdbp.graph", "build_grouping", "graph.grouping", everywhere=False)
        fn("crowdbp.bp", "bp_run", "bp.run", keep_report)
        fn("crowdbp.bp", "bp_update_task_messages", "bp.task_half")
        fn("crowdbp.bp", "bp_update_worker_messages", "bp.worker_half")
        fn("crowdbp.bp", "bp_compute_beliefs", "bp.beliefs")
        fn("crowdbp.priors", "empirical_prior", "priors.empirical_prior", keep_atoms)
        fn("crowdbp.estimators", "majority_vote", "estimators.mv")
        fn("crowdbp.estimators", "kos_run", "estimators.kos", keep_report)
        fn("crowdbp.estimators", "em_run", "estimators.em", keep_report)
        fn("crowdbp.estimators", "ebp_run", "estimators.ebp", keep_report)
        fn("crowdbp.exact", "oracle_task_estimate", "exact.oracle")
        fn("crowdbp.exact", "extract_bfs_tree", "exact.bfs", keep_boundary)
        fn("crowdbp.harness", "load_dataset", "harness.load", keep_dataset)
        fn("crowdbp.harness", "save_dataset", "harness.save")
        fn("crowdbp.harness", "run_inference", "harness.run_inference")
        self.wrap_method(FactorTable, "build", "priors.factor_table", keep_r_max)
        self.wrap_method(EstimatorSpec, "run", "harness.decode")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path, **common) -> None:
        """One JSON object per span, each carrying ``common`` (workload, seed)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({**common, **asdict(span)}) + "\n")


def graph_shape(graph) -> dict:
    """Counts the padded edge layout needs: cells = segments x widest segment."""
    task_deg, worker_deg = graph.task_degrees, graph.worker_degrees
    return {
        "tasks": int(graph.n_tasks), "workers": int(graph.n_workers),
        "answers": int(graph.n_edges),
        "padded_cells": int(graph.n_tasks * (task_deg.max() if task_deg.size else 0)
                            + graph.n_workers * (worker_deg.max() if worker_deg.size else 0)),
    }


# -- per-layer metrics ---------------------------------------------------

def _total(spans, name) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _share(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 0.0


def layer_metrics(spans: list[Span], *, runs: set[str], threads: int, kos_runs: set[str],
                  bench_walls: tuple[float, float] | None, import_seconds: dict[str, float],
                  overhead_share: float) -> dict:
    """Per-layer numbers from the spans of the given traced runs.

    Times ending in ``_s`` are totals over those runs, except the three bp
    half-sweep times, which are per-call medians next to their call counts.
    ``kos_runs`` are the runs where kos ran on the only busy thread;
    ``bench_walls`` holds the traced bench times with ``threads`` and with 1
    thread.  A layer the workload never calls reads 0.
    """
    by_id = {s.id: s for s in spans}
    mine = [s for s in spans if s.run in runs]

    def named(name):
        return [s for s in mine if s.name == name]

    child_seconds: dict[int, float] = {}
    for s in mine:
        if s.parent is not None:
            child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds

    def under(span, ancestor_name):
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == ancestor_name:
                return True
            parent = by_id[parent].parent
        return False

    graphs = [s.attrs["graph"] for s in mine if "graph" in s.attrs]
    padded = sum(g["padded_cells"] for g in graphs)
    answers = sum(g["answers"] for g in graphs)
    bp_runs = named("bp.run")
    kos = named("estimators.kos")
    kos_single = [s for s in spans if s.name == "estimators.kos" and s.run in kos_runs]
    em = named("estimators.em")
    loads = named("harness.load")
    load_s = sum(s.seconds for s in loads)
    bench_wall, one_thread_wall = bench_walls or (0.0, 0.0)
    infers = named("cli.infer")
    infer_self = sum(s.seconds for s in infers) - sum(
        s.seconds for s in mine
        if s.name in ("harness.load", "harness.run_inference") and under(s, "cli.infer"))

    return {
        "graph.generate_s": _total(mine, "graph.generate"),
        "graph.sample_s": _total(mine, "graph.sample"),
        "graph.grouping_s": _total(mine, "graph.grouping"),
        "segments.pad_waste_ratio": padded / (2 * answers) if answers else 0.0,
        "bp.task_half_s": _median(s.seconds for s in named("bp.task_half")),
        "bp.task_half_calls": len(named("bp.task_half")),
        "bp.worker_half_s": _median(s.seconds for s in named("bp.worker_half")),
        "bp.worker_half_calls": len(named("bp.worker_half")),
        "bp.beliefs_s": _median(s.seconds for s in named("bp.beliefs")),
        "bp.beliefs_calls": len(named("bp.beliefs")),
        "bp.sweeps": sum(s.attrs.get("iterations", 0) for s in bp_runs),
        "bp.converged_share": _share(s.attrs.get("converged", False) for s in bp_runs),
        "bp.calls": len(bp_runs),
        "bp.run_self_s": sum(s.seconds - child_seconds.get(s.id, 0.0) for s in bp_runs),
        "priors.factor_table_s": _total(mine, "priors.factor_table"),
        "priors.factor_table_calls": len(named("priors.factor_table")),
        "priors.r_max": max((s.attrs.get("r_max", 0) for s in named("priors.factor_table")),
                            default=0),
        "priors.empirical_atoms": max((s.attrs.get("atoms", 0)
                                       for s in named("priors.empirical_prior")), default=0),
        "estimators.kos_s": sum(s.seconds for s in kos),
        "estimators.kos_cpu_ratio": (sum(s.cpu for s in kos_single)
                                     / sum(s.seconds for s in kos_single)
                                     if kos_single else 0.0),
        "estimators.em_s": sum(s.seconds for s in em),
        "estimators.em_iterations": sum(s.attrs.get("iterations", 0) for s in em),
        "estimators.em_converged_share": _share(s.attrs.get("converged", False) for s in em),
        "exact.oracle_s": _total(mine, "exact.oracle"),
        "exact.bfs_s": _total(mine, "exact.bfs"),
        "exact.bfs_calls": len(named("exact.bfs")),
        "exact.oracle_bp_s": sum(s.seconds for s in bp_runs if under(s, "exact.oracle")),
        "exact.clamped_task_share": _share(s.attrs["clamped_share"]
                                           for s in named("exact.bfs")),
        "harness.thread_busy_share": (_total(mine, "harness.decode") / (bench_wall * threads)
                                      if bench_wall else 0.0),
        "harness.thread_speedup": one_thread_wall / bench_wall if bench_wall else 0.0,
        "harness.load_s": load_s,
        "harness.save_s": _total(mine, "harness.save"),
        "harness.load_rows_per_s": (sum(s.attrs["rows"] for s in loads) / load_s
                                    if load_s else 0.0),
        "cli.import_s": import_seconds["crowdbp"],
        "cli.import_scipy_special_s": import_seconds["scipy.special"],
        "cli.infer_self_s": infer_self,
        "trace.overhead_share": overhead_share,
        "trace.spans": len(mine),
    }
