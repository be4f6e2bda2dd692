"""Seeded benchmark sweeps: the error metric, the sweep config, trials run
in process or in forked workers, and the metrics CSV.

Benchmark results are deterministic for a given config and master seed:
every (sweep point, trial, stage) derives its own child seed and results
are aggregated positionally, so the trial process count never changes the
output.
"""
from __future__ import annotations

import csv
import json
import math
import os
import time
import typing
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .bp import _K_MAX, _TOL, EstimateReport
from .errors import CrowdBPError, ParameterError, check_count
from .estimators import EstimatorSpec
from .graph import _regular_shape, draw_instance
from .priors import ReliabilityPrior, parse_prior_spec
from .seeding import child_seed
from .theory import theoretical_bounds, theory_iterations, tree_probability_bound


def error_rate(estimate: EstimateReport | np.ndarray, truth_labels: np.ndarray) -> float:
    """Fraction of decoded labels disagreeing with the truth."""
    labels = estimate.labels if isinstance(estimate, EstimateReport) else np.asarray(estimate)
    truth_labels = np.asarray(truth_labels)
    if labels.shape != truth_labels.shape:
        raise ParameterError("label vectors have mismatched lengths")
    if labels.size == 0:
        raise ParameterError("cannot score an empty label vector")
    return float(np.mean(labels != truth_labels))


@dataclass(frozen=True)
class ExperimentConfig:
    """A degree sweep over freshly simulated instances.

    ``sweep`` picks which degree varies ("l" or "r"); the other stays at
    ``fixed_degree``.  ``adjust_n`` permits nudging ``n_tasks`` per point to
    the nearest value admitting a regular assignment (tie toward larger).
    ``timing=False`` zeroes the wall-time column so reruns are
    byte-identical.
    """

    n_tasks: int
    sweep_values: tuple[int, ...]
    fixed_degree: int
    prior: str
    estimators: tuple[str, ...]
    sweep: str = "l"
    trials: int = 100
    k_max: int = _K_MAX
    tol: float = _TOL
    seed: int = 0
    threads: int = 1
    timing: bool = True
    adjust_n: bool = False

    def __post_init__(self) -> None:
        # The declared types, by the rule the config files are read with.
        for name, kind in typing.get_type_hints(ExperimentConfig).items():
            try:
                object.__setattr__(self, name, _config_value(kind, getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"bad {name}: {exc}") from exc
        for name in ("n_tasks", "fixed_degree", "trials", "threads"):
            check_count(getattr(self, name), name, 1)
        for value in self.sweep_values:
            check_count(value, "sweep_values", 1)
        if self.sweep not in ("l", "r"):
            raise ParameterError(f"sweep must be 'l' or 'r', got {self.sweep!r}")
        if not self.sweep_values:
            raise ParameterError("sweep_values must not be empty")
        parse_prior_spec(self.prior)
        for name in self.estimators:  # each spec checks k_max and tol
            EstimatorSpec.parse(name, k_max=self.k_max, tol=self.tol)
        if not self.estimators:
            raise ParameterError("at least one estimator is required")


def load_experiment_config(path: str) -> ExperimentConfig:
    """Read a config file: JSON object or flat ``key = value`` lines.

    One U+FEFF at the very start, a byte-order mark, is dropped.  Text
    that the locale's encoding cannot decode and a key given twice are
    refused.
    """
    with open(path) as handle:
        try:
            text = handle.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise ParameterError(
                f"{path}: config is not valid {handle.encoding} text: {exc}") from exc
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(stripped, object_pairs_hook=lambda pairs: _unique_keys(pairs, path))
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}: bad JSON config: {exc}") from exc
    else:
        raw = {}
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in raw:
                raise ParameterError(f"{path}:{line_no}: repeated config key {key!r}")
            raw[key] = value
    return _config_from_dict(raw, path)


def _unique_keys(pairs: list[tuple[str, object]], source: str) -> dict:
    """A JSON object's pairs as a dict; a key given twice is refused."""
    raw = {}
    for key, value in pairs:
        if key in raw:
            raise ParameterError(f"{source}: repeated config key {key!r}")
        raw[key] = value
    return raw


def _config_from_dict(raw: dict, source: str) -> ExperimentConfig:
    names = {f.name for f in fields(ExperimentConfig)}
    for key in raw:
        if key not in names:
            raise ParameterError(f"{source}: unknown config key {key!r}")
    missing = {f.name for f in fields(ExperimentConfig) if f.default is MISSING} - set(raw)
    if missing:
        raise ParameterError(f"{source}: missing config keys {sorted(missing)}")
    try:
        return ExperimentConfig(**raw)
    except ParameterError as exc:
        raise ParameterError(f"{source}: {exc}") from exc


def _config_value(kind, value):
    """A config value as ``kind``, its field's declared type; TypeError
    or ValueError if it is none.  Text lists items with commas."""
    if typing.get_origin(kind) is tuple:
        if isinstance(value, str):
            value = [item.strip() for item in value.split(",") if item.strip()]
        return tuple(_config_value(typing.get_args(kind)[0], item) for item in value)
    if kind is bool:
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        if not isinstance(value, bool):
            raise ValueError("must be true or false")
        return value
    if kind is int:  # a fraction or a boolean is refused, not truncated
        return check_count(int(value) if isinstance(value, str) else value, "value")
    if kind is str and not isinstance(value, str):
        raise TypeError(f"expected text, got {value!r}")
    if kind is float and isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class MetricsRow:
    estimator: str
    l: int
    r: int
    mean_error: float | None
    std_error: float | None
    trials: int
    mean_iterations: float
    wall_time_ms: float
    failures: int

    def as_csv(self) -> list[str]:
        """The fields in order: floats by ``repr`` (None and NaN empty), the rest by ``str``."""
        def num(x):
            return "" if x is None or (isinstance(x, float) and math.isnan(x)) else repr(float(x))

        return [(num if "float" in f.type else str)(getattr(self, f.name)) for f in fields(self)]


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def nearest_feasible_n(n_tasks: int, l: int, r: int) -> int:
    """Smallest adjustment of n_tasks so that n*l is divisible by r, tie
    toward larger.  That holds exactly for the multiples n of
    ``r // gcd(l, r)``."""
    n_tasks = check_count(n_tasks, "n_tasks", 1)
    l, r = check_count(l, "l", 1), check_count(r, "r", 1)
    step = r // math.gcd(l, r)
    below, above = n_tasks - n_tasks % step, -(-n_tasks // step) * step
    return below if below >= 1 and n_tasks - below < above - n_tasks else above


def _run_trial(config: ExperimentConfig, specs: list[EstimatorSpec], prior: ReliabilityPrior,
               n: int, l: int, r: int, point: int, trial: int) -> list[tuple]:
    graph, truth, answers = draw_instance(n, l, r, prior, config.seed, point, trial)
    results = []
    for spec in specs:
        start = time.perf_counter()
        try:
            report = spec.run(graph, answers, prior=prior, truth=truth,
                              reliabilities=truth.reliabilities,
                              seed=child_seed(config.seed, "estimator", point, trial, spec.name))
            err = error_rate(report, truth.labels)
            results.append((err, report.iterations_run, time.perf_counter() - start, None))
        except CrowdBPError as exc:
            results.append((np.nan, 0, time.perf_counter() - start,
                            f"{spec.name}/trial{trial}: {exc}"))
    return results


def _sweep_points(config: ExperimentConfig) -> list[tuple[int, int, int]]:
    """``(n, l, r)`` of every sweep point, checked by the generator's rule before any trial."""
    points = []
    for value in config.sweep_values:
        l, r = (value, config.fixed_degree) if config.sweep == "l" else (config.fixed_degree, value)
        n = nearest_feasible_n(config.n_tasks, l, r) if config.adjust_n else config.n_tasks
        try:
            _regular_shape(n, l, r)
        except ParameterError as exc:
            remedy = "" if config.adjust_n else " (adjust_n = true nudges n_tasks per point)"
            raise type(exc)(f"sweep point l={l}, r={r}: {exc}{remedy}") from exc
        points.append((n, l, r))
    return points


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(config: ExperimentConfig, specs: list[EstimatorSpec], prior: ReliabilityPrior,
              points: list[tuple[int, int, int]], jobs: list[tuple[int, int]]) -> dict:
    """Every ``(point, trial)`` job's trial results, keyed by the job.

    With more than one worker (``config.threads`` capped at the job count
    and the usable CPUs) and the ``fork`` start method available, the jobs
    run in forked processes, heaviest (largest ``n * l``) first; otherwise
    they run here, in order.  Forked workers start without importing
    anything again, which a spawned worker would need most of a small
    sweep's time for.
    """
    workers = min(config.threads, len(jobs), _usable_cpus())
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import ProcessPoolExecutor

            heaviest = sorted(jobs, key=lambda job: -points[job[0]][0] * points[job[0]][1])
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                futures = {(point, trial): pool.submit(_run_trial, config, specs, prior,
                                                       *points[point], point, trial)
                           for point, trial in heaviest}
                return {job: future.result() for job, future in futures.items()}
    return {(point, trial): _run_trial(config, specs, prior, *points[point], point, trial)
            for point, trial in jobs}


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Run the configured sweep and return one row per (estimator, point)
    plus companion rows for the analytic bounds and the tree diagnostic.

    Every sweep point is validated before any trial runs.  Trials run in
    up to ``config.threads`` forked processes (see :func:`_run_jobs`);
    results are aggregated by trial position, so the rows do not depend on
    the process count or on completion order.
    """
    prior = parse_prior_spec(config.prior)
    mu, q = prior.moments()
    specs = [EstimatorSpec.parse(name, k_max=config.k_max, tol=config.tol)
             for name in config.estimators]
    points = _sweep_points(config)
    jobs = [(point, trial) for point in range(len(points)) for trial in range(config.trials)]
    results = _run_jobs(config, specs, prior, points, jobs)

    rows: list[MetricsRow] = []
    for point, (n, l, r) in enumerate(points):
        per_trial = [results[point, t] for t in range(config.trials)]
        for idx, spec in enumerate(specs):
            errs = np.array([per_trial[t][idx][0] for t in range(config.trials)])
            iters = np.array([per_trial[t][idx][1] for t in range(config.trials)], dtype=float)
            wall = sum(per_trial[t][idx][2] for t in range(config.trials))
            ok = ~np.isnan(errs)
            failures = int(config.trials - ok.sum())
            mean_err = float(errs[ok].mean()) if ok.any() else None
            std_err = (float(errs[ok].std(ddof=1) / math.sqrt(ok.sum()))
                       if ok.sum() > 1 else (0.0 if ok.any() else None))
            rows.append(MetricsRow(
                estimator=spec.name, l=l, r=r, mean_error=mean_err, std_error=std_err,
                trials=config.trials,
                mean_iterations=float(iters[ok].mean()) if ok.any() else 0.0,
                wall_time_ms=wall * 1e3 if config.timing else 0.0,
                failures=failures,
            ))

        mv_bound, kos_bound = theoretical_bounds(l, r, mu, q)
        rows.append(MetricsRow("bound:mv", l, r, mv_bound, 0.0, 0, 0.0, 0.0, 0))
        rows.append(MetricsRow("bound:kos", l, r, kos_bound, 0.0, 0, 0.0, 0.0, 0))
        rows.append(MetricsRow(
            "diag:tree", l, r,
            tree_probability_bound(n, l, r, theory_iterations(n)),
            0.0, 0, 0.0, 0.0, 0))
    return rows


def write_metrics_csv(rows: list[MetricsRow], handle) -> None:
    """Write rows to an open text handle in the fixed column order;
    RFC-4180 (CRLF, headers first)."""
    writer = csv.writer(handle)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(row.as_csv() for row in rows)
