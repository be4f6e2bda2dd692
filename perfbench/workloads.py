"""The four benchmark workloads, their inputs and their output checks.

Every workload is a closed loop: one caller runs a fixed sequence of
library or CLI calls (a *pass*), waits for each to finish, and repeats the
pass as often as the measuring time allows.  Inputs come only from the
workload seed.  Iterative in-process decoders run a fixed sweep budget (``tol=0``),
so each seed does the same amount of work and run-to-run spread reflects
the machine rather than how fast a particular random instance converges.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crowdbp as cb
import crowdbp.cli
from spans import graph_shape

PRIOR = "sh"


@dataclass(frozen=True)
class Sizes:
    """Instance sizes; the benchmark uses ``FULL``, its tests ``TINY``."""

    regular_tasks: int = 100_000  # (10, 5)-regular: 1M answers
    sweep_tasks: int = 200
    sweep_trials: int = 3          # per sweep point; two points
    file_tasks: int = 100_000      # (10, 5)-regular file: 1M rows
    skewed_tasks: int = 4_000      # 5 answers per task before de-duplication
    skewed_max_degree: int = 1_000


FULL = Sizes()
TINY = Sizes(regular_tasks=500, sweep_tasks=30, sweep_trials=2, file_tasks=500,
             skewed_tasks=300, skewed_max_degree=100)

# Fixed sweep budgets (k_max with tol=0) per workload and decoder.  bp and
# kos get the sweeps the default tolerance needs on these shapes in crowdbp
# 0.1.0.  em would stop anywhere from 64 to 100 iterations depending on the
# seed, so it gets a fixed 50.  ebp2 gets half its 12 per round, so that a
# skewed-real pass takes 20-25 s on 2 CPUs instead of 30-40 s.
REGULAR_BUDGET = {"bp": 15, "kos": 12, "em": 50}
SKEWED_BUDGET = {"bp": 10, "ebp2": 6, "kos": 7, "em": 50}


@dataclass
class Op:
    """One timed call inside a pass."""

    name: str
    seconds: float
    answers: int
    failure: str | None = None
    error_rate: float | None = None


@dataclass
class PassResult:
    wall: float
    ops: list[Op]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Context:
    """Where a run may read and write, and how it starts the CLI."""

    root: Path
    tmp: Path
    seed: int
    sizes: Sizes
    threads: int
    tracer: object = None  # a spans.Tracer during traced calls, else None

    def span(self, name: str):
        """A span of the benchmark's own code; yields None when untraced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def cli_env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


# -- output checks ---------------------------------------------------------

def report_problems(name: str, labels: np.ndarray, margins: np.ndarray) -> list[str]:
    """Labels must be the sign of the margins (ties to +1), margins in [-1, 1]."""
    problems = []
    margins = np.asarray(margins, dtype=np.float64)
    if not np.all(np.isfinite(margins)) or np.abs(margins).max(initial=0.0) > 1.0:
        problems.append(f"{name}: margins outside [-1, 1]")
    expected = np.where(margins >= 0.0, 1, -1)
    wrong = np.flatnonzero(np.asarray(labels) != expected)
    if wrong.size:
        problems.append(f"{name}: {wrong.size} labels disagree with the margin sign "
                        f"(first task {int(wrong[0])})")
    return problems


def decode(name: str, graph, truth_labels, call, problems: list[str]) -> Op:
    """Time one decoder call; a CrowdBPError is a failed op, not an abort."""
    start = time.perf_counter()
    try:
        report = call()
    except cb.CrowdBPError as exc:
        return Op(name, time.perf_counter() - start, graph.n_edges, type(exc).__name__)
    seconds = time.perf_counter() - start
    problems.extend(report_problems(name, report.labels, report.margins))
    return Op(name, seconds, graph.n_edges,
              error_rate=cb.error_rate(report, truth_labels))


def instance_shape(graph, answers) -> dict:
    """Tasks, workers, answers, degree skew and the first-round ebp atom count."""
    degrees = graph.worker_degrees
    a = np.asarray(answers.answers)
    labels = cb.majority_vote(graph, answers).labels
    matches = np.bincount(graph.edges[:, 1], weights=a == labels[graph.edges[:, 0]],
                          minlength=graph.n_workers)
    # The agreement score ebp_run turns into one empirical atom per distinct value.
    scores = (0.25 + matches) / (0.5 + degrees)
    return {
        "tasks": int(graph.n_tasks), "workers": int(graph.n_workers),
        "answers": int(graph.n_edges), "max_worker_degree": int(degrees.max()),
        "one_answer_worker_share": float(np.mean(degrees == 1)),
        "empirical_atoms": int(np.unique(scores[degrees > 0]).size),
    }


# -- instances ---------------------------------------------------------------

@dataclass
class Instance:
    graph: object
    truth: object
    answers: object

    def warm(self) -> "Instance":
        # Build both edge groupings now: they belong to loading the input.
        self.graph.by_task, self.graph.by_worker
        return self


def regular_instance(ctx: Context, n_tasks: int) -> Instance:
    """The (10, 5)-regular instance ``crowdbp simulate`` writes for this seed."""
    seed = ctx.seed
    prior = cb.parse_prior_spec(PRIOR)
    graph = cb.generate_regular_bipartite(n_tasks, 10, 5, cb.child_seed(seed, "graph"))
    truth = cb.sample_ground_truth(graph, prior, cb.child_seed(seed, "truth"))
    answers = cb.sample_answers(graph, truth, cb.child_seed(seed, "answers"))
    return Instance(graph, truth, answers)


def zipf_degrees(total: int, max_degree: int, exponent: float = 1.6) -> np.ndarray:
    """Worker degrees at the midpoint quantiles of a Zipf law cut at ``max_degree``.

    The sequence depends only on its arguments, so every seed gets the same
    degree profile (about 44% one-answer workers at exponent 1.6) and
    only the pairing and the answers change.
    """
    k = np.arange(1, max_degree + 1)
    cdf = np.cumsum(k ** -exponent)
    cdf /= cdf[-1]
    mean = float(k @ np.diff(cdf, prepend=0.0))
    workers = max(1, int(total / mean))
    while True:
        degrees = np.searchsorted(cdf, (np.arange(workers) + 0.5) / workers) + 1
        if degrees.sum() >= total:
            break
        workers += 1
    degrees[-1] -= degrees.sum() - total
    return degrees


def skewed_instances(ctx: Context, n_tasks: int, max_degree: int) -> tuple[Instance, Instance]:
    """A heavy-tailed real-shaped graph and its prolific variant.

    Each task gets 5 worker stubs; worker stubs follow ``zipf_degrees`` and
    are paired uniformly, keeping the first of any repeated (task, worker)
    pair.  The prolific variant adds one worker answering 40% of the tasks.
    """
    prior = cb.parse_prior_spec(PRIOR)
    rng = np.random.default_rng(cb.child_seed(ctx.seed, "skewed"))
    degrees = zipf_degrees(5 * n_tasks, max_degree)
    n_workers = degrees.size
    with ctx.span("graph.generate") as span:
        task_stubs = np.repeat(np.arange(n_tasks), 5)
        worker_stubs = rng.permutation(np.repeat(np.arange(n_workers), degrees))
        _, first = np.unique(task_stubs * n_workers + worker_stubs, return_index=True)
        keep = np.sort(first)
        graph = cb.AssignmentGraph(n_tasks, n_workers,
                                   np.column_stack((task_stubs[keep], worker_stubs[keep])))
    truth = cb.sample_ground_truth(graph, prior, cb.child_seed(ctx.seed, "truth"))
    answers = cb.sample_answers(graph, truth, cb.child_seed(ctx.seed, "answers"))

    prolific_tasks = np.sort(rng.choice(n_tasks, size=round(0.4 * n_tasks), replace=False))
    with ctx.span("graph.generate") as span2:
        extra = cb.AssignmentGraph(n_tasks, n_workers + 1, np.column_stack(
            (prolific_tasks, np.full(prolific_tasks.size, n_workers))))
        truth2 = cb.GroundTruth(truth.labels,
                                np.append(truth.reliabilities, prior.sample(rng, 1)))
        graph2 = cb.AssignmentGraph(n_tasks, n_workers + 1,
                                    np.vstack((graph.edges, extra.edges)))
    extra_answers = cb.sample_answers(extra, truth2, cb.child_seed(ctx.seed, "prolific"))
    answers2 = cb.AnswerMatrix(np.concatenate((answers.answers, extra_answers.answers)))
    if span is not None:
        span.attrs["graph"] = graph_shape(graph)
        span2.attrs["graph"] = graph_shape(graph2)
    return Instance(graph, truth, answers), Instance(graph2, truth2, answers2)


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    # Keyword arguments of run_pass in the traced run, and extra traced
    # passes by run id.
    trace_mode: dict = {}
    trace_extra: dict = {}
    # Passes per run at BENCHMARK.json's run_seconds; scaled by --seconds.
    passes = 1

    def generate(self, ctx: Context):
        """Build the inputs; timed as part of setup_s."""
        raise NotImplementedError

    def run_pass(self, ctx: Context, inputs, **mode) -> PassResult:
        raise NotImplementedError

    def shapes(self, inputs) -> dict:
        """Size and degree profile of each instance, for the record."""
        raise NotImplementedError

    def named_metrics(self, passes: list[PassResult]) -> dict:
        """The workload's own end-to-end numbers: name -> (value, unit)."""
        raise NotImplementedError


def _rate(ops: list[Op], name: str) -> float:
    """Answers of successful calls per second of all calls' wall time."""
    mine = [op for op in ops if op.name.split("@")[0] == name]
    seconds = sum(op.seconds for op in mine)
    return sum(op.answers for op in mine if op.failure is None) / seconds if seconds else 0.0


def _base_error(passes: list[PassResult], name: str) -> float:
    rates = [op.error_rate for op in passes[0].ops if op.name == name and op.failure is None]
    return rates[0] if rates else math.nan


def decoder_metrics(passes: list[PassResult], names) -> dict:
    ops = [op for p in passes for op in p.ops]
    out = {f"{name}_answers_per_s": (_rate(ops, name), "1/s") for name in names}
    for name in ("bp", "ebp2"):
        if name in names:
            out[f"{name}_error_rate"] = (_base_error(passes, name), "fraction")
    return out


class Regular1M(Workload):
    name = "regular-1m"
    why = "1M answers on a (10,5)-regular graph: per-answer throughput of the bp/kos/em sweeps"
    passes = 1

    def generate(self, ctx):
        return regular_instance(ctx, ctx.sizes.regular_tasks).warm()

    def run_pass(self, ctx, inst, **mode):
        g, a, truth = inst.graph, inst.answers, inst.truth.labels
        prior = cb.parse_prior_spec(PRIOR)
        kos_seed = cb.child_seed(ctx.seed, "kos")
        b = REGULAR_BUDGET
        problems: list[str] = []
        start = time.perf_counter()
        ops = [
            decode("bp", g, truth,
                   lambda: cb.bp_run(g, a, prior, k_max=b["bp"], tol=0.0), problems),
            decode("kos", g, truth,
                   lambda: cb.kos_run(g, a, k_max=b["kos"], seed=kos_seed, tol=0.0), problems),
            decode("em", g, truth, lambda: cb.em_run(g, a, k_max=b["em"], tol=0.0), problems),
            decode("mv", g, truth, lambda: cb.majority_vote(g, a), problems),
        ]
        wall = time.perf_counter() - start
        err = {op.name: op.error_rate for op in ops if op.failure is None}
        if "bp" in err and "mv" in err and err["bp"] > err["mv"]:
            problems.append(f"bp error {err['bp']} is worse than mv error {err['mv']}")
        return PassResult(wall, ops, len(ops), sum(op.failure is not None for op in ops),
                          problems)

    def shapes(self, inst):
        return {"regular": instance_shape(inst.graph, inst.answers)}

    def named_metrics(self, passes):
        return decoder_metrics(passes, ("bp", "kos", "em"))


class SkewedReal(Workload):
    name = "skewed-real"
    why = "heavy-tailed worker degrees: padded-layout waste, large factor tables, many ebp2 atoms"
    passes = 1

    def generate(self, ctx):
        base, prolific = skewed_instances(ctx, ctx.sizes.skewed_tasks,
                                          ctx.sizes.skewed_max_degree)
        return base.warm(), prolific.warm()

    def run_pass(self, ctx, insts, **mode):
        prior = cb.parse_prior_spec(PRIOR)
        kos_seed = cb.child_seed(ctx.seed, "kos")
        b = SKEWED_BUDGET
        problems: list[str] = []
        ops = []
        start = time.perf_counter()
        for inst, suffix, names in ((insts[0], "", ("bp", "ebp2", "kos", "em", "mv")),
                                    (insts[1], "@prolific", ("bp", "kos", "em"))):
            g, a, truth = inst.graph, inst.answers, inst.truth.labels
            calls = {
                "bp": lambda: cb.bp_run(g, a, prior, k_max=b["bp"], tol=0.0),
                "ebp2": lambda: cb.ebp_run(g, a, rounds=2, k_max=b["ebp2"], tol=0.0),
                "kos": lambda: cb.kos_run(g, a, k_max=b["kos"], seed=kos_seed, tol=0.0),
                "em": lambda: cb.em_run(g, a, k_max=b["em"], tol=0.0),
                "mv": lambda: cb.majority_vote(g, a),
            }
            ops += [decode(name + suffix, g, truth, calls[name], problems)
                    for name in names]
        wall = time.perf_counter() - start
        return PassResult(wall, ops, len(ops), sum(op.failure is not None for op in ops),
                          problems)

    def shapes(self, insts):
        return {"skewed": instance_shape(insts[0].graph, insts[0].answers),
                "prolific": instance_shape(insts[1].graph, insts[1].answers)}

    def named_metrics(self, passes):
        return decoder_metrics(passes, ("bp", "ebp2", "kos", "em"))


SWEEP_ESTIMATORS = ("mv", "kos", "em", "bp", "ebp2", "oracle-task")


class SweepSmall(Workload):
    name = "sweep-small"
    why = "crowdbp bench at n=200: per-call overhead, per-trial builds, thread pool, exact oracle"
    trace_extra = {"pass-1thread": {"threads": 1}}
    passes = 3

    def generate(self, ctx):
        config = {
            "n_tasks": ctx.sizes.sweep_tasks, "sweep_values": [5, 15], "fixed_degree": 5,
            "prior": PRIOR, "estimators": list(SWEEP_ESTIMATORS),
            "trials": ctx.sizes.sweep_trials, "seed": ctx.seed,
            "threads": ctx.threads, "timing": False,
        }
        path = ctx.tmp / "sweep.json"
        path.write_text(json.dumps(config))
        return {"config": path, "csv": None}

    def run_pass(self, ctx, state, threads=None, **mode):
        out = ctx.tmp / "sweep.csv"
        argv = ["bench", "--config", str(state["config"]), "--out", str(out)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        start = time.perf_counter()
        with ctx.span("cli.bench"):
            code = crowdbp.cli.main(argv)
        wall = time.perf_counter() - start
        if code != 0:
            return PassResult(wall, [Op("bench", wall, 0, f"exit {code}")], 1, 1,
                              [f"bench exited with {code}"])
        data = out.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        problems = sweep_problems(rows)
        if state["csv"] is None:
            state["csv"] = data
        elif data != state["csv"]:
            problems.append("bench CSV differs from the first repetition")
        runs = [r for r in rows if r["estimator"] in SWEEP_ESTIMATORS]
        attempted = sum(int(r["trials"]) for r in runs)
        failed = sum(int(r["failures"]) for r in runs)
        trials = ctx.sizes.sweep_trials * 2
        return PassResult(wall, [Op("bench", wall, 0)], attempted, failed, problems,
                          {"trials": trials, "rows": rows})

    def shapes(self, state):
        config = json.loads(state["config"].read_text())
        n = config["n_tasks"]
        return {f"l={l},r=5": {"tasks": n, "workers": n * l // 5, "answers": n * l,
                               "trials": config["trials"]} for l in config["sweep_values"]}

    def named_metrics(self, passes):
        done = [p for p in passes if p.extra]
        trials = sum(p.extra["trials"] for p in done)
        wall = sum(p.wall for p in done)
        rows = done[0].extra["rows"] if done else []
        out = {"sweep_trials_per_s": (trials / wall if wall else 0.0, "1/s")}
        for name in ("bp", "ebp2"):
            errs = [(float(r["mean_error"]), int(r["trials"]) - int(r["failures"]))
                    for r in rows if r["estimator"] == name and r["mean_error"]]
            total = sum(w for _, w in errs)
            out[f"{name}_error_rate"] = (sum(e * w for e, w in errs) / total
                                         if total else math.nan, "fraction")
        return out


def sweep_problems(rows: list[dict]) -> list[str]:
    """oracle-task must be no worse than bp plus a 3-sigma pooled slack."""
    problems = []
    by = {(r["estimator"], r["l"], r["r"]): r for r in rows}
    for (name, l, r), row in by.items():
        bp = by.get(("bp", l, r))
        if name != "oracle-task" or bp is None or not row["mean_error"] or not bp["mean_error"]:
            continue
        slack = 3.0 * math.hypot(float(row["std_error"]), float(bp["std_error"]))
        if float(row["mean_error"]) > float(bp["mean_error"]) + slack:
            problems.append(f"oracle-task error {row['mean_error']} exceeds bp "
                            f"{bp['mean_error']} + {slack:.4f} at l={l}, r={r}")
    return problems


class File1M(Workload):
    name = "file-1m"
    why = "crowdbp simulate then infer --estimator mv on a 1M-row file: CSV write/read dominate"
    # Spans can only be recorded inside this process.
    trace_mode = {"in_process": True}
    passes = 2

    def generate(self, ctx):
        # The in-process twin of the file simulate writes, to check infer against.
        inst = regular_instance(ctx, ctx.sizes.file_tasks)
        return {"instance": inst,
                "mv": cb.majority_vote(inst.graph, inst.answers)}

    def _cli(self, ctx, argv: list[str], in_process: bool) -> tuple[float, str | None]:
        start = time.perf_counter()
        if in_process:
            with ctx.span(f"cli.{argv[0]}"):
                code = crowdbp.cli.main(argv)
            failure = None if code == 0 else f"exit {code}"
        else:
            proc = subprocess.run([sys.executable, "-m", "crowdbp", *argv], env=ctx.cli_env(),
                                  cwd=ctx.root, capture_output=True, text=True, timeout=150)
            failure = None if proc.returncode == 0 else f"exit {proc.returncode}"
        return time.perf_counter() - start, failure

    def run_pass(self, ctx, state, in_process=False, **mode):
        n = ctx.sizes.file_tasks
        data, labels = ctx.tmp / "answers.csv", ctx.tmp / "labels.csv"
        start = time.perf_counter()
        sim_s, sim_fail = self._cli(ctx, ["simulate", "--n", str(n), "--l", "10", "--r", "5",
                                          "--prior", PRIOR, "--seed", str(ctx.seed),
                                          "--out", str(data)], in_process)
        inf_s, inf_fail = self._cli(ctx, ["infer", "--data", str(data), "--estimator", "mv",
                                          "--out", str(labels)], in_process)
        wall = time.perf_counter() - start
        problems, error = [], None
        if sim_fail or inf_fail:
            problems.append(f"CLI failed: simulate {sim_fail}, infer {inf_fail}")
        else:
            problems, error = infer_output_problems(labels.read_text(), state["mv"],
                                                    state["instance"].truth.labels)
        ops = [Op("simulate", sim_s, n * 10, sim_fail),
               Op("infer", inf_s, n * 10, inf_fail, error)]
        return PassResult(wall, ops, 2, sum(op.failure is not None for op in ops), problems)

    def shapes(self, state):
        inst = state["instance"]
        return {"file": instance_shape(inst.graph, inst.answers)}

    def named_metrics(self, passes):
        ops = [op for p in passes for op in p.ops]
        out = {}
        for name in ("simulate", "infer"):
            out[f"{name}_s"] = (float(np.median([op.seconds for op in ops if op.name == name])),
                                "s")
        return out


def infer_output_problems(text: str, expected, truth_labels) -> tuple[list[str], float]:
    """Compare ``crowdbp infer`` output with in-process majority vote.

    Task names are the generator's integer ids; the file lists them in load
    order, so rows are matched by name.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["task", "label", "margin"]:
        return ["infer output has no task,label,margin header"], math.nan
    body = rows[1:]
    if len(body) != expected.labels.size:
        return [f"infer wrote {len(body)} rows for {expected.labels.size} tasks"], math.nan
    ids = np.array([int(r[0]) for r in body])
    labels = np.array([int(r[1]) for r in body])
    margins = np.array([float(r[2]) for r in body])
    problems = report_problems("infer", labels, margins)
    if not np.array_equal(np.sort(ids), np.arange(expected.labels.size)):
        problems.append("infer output does not list every task once")
        return problems, math.nan
    if not np.array_equal(labels, expected.labels[ids]):
        problems.append("infer labels differ from in-process majority_vote")
    if not np.array_equal(margins, expected.margins[ids]):
        problems.append("infer margins differ from in-process majority_vote")
    return problems, float(np.mean(labels != truth_labels[ids]))


WORKLOADS = {w.name: w for w in (Regular1M(), SweepSmall(), File1M(), SkewedReal())}
