"""Baseline label estimators: majority vote, spectral-style message passing,
bootstrapped belief propagation, known-reliability weighting, and EM.

All return an :class:`~crowdbp.bp.EstimateReport`; ties decode to +1.  The
iterative ones (kos, EM) are a start state plus a step function run by
:func:`crowdbp.bp._iterate`, the loop and stop rule ``bp_run`` uses too.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bp import EstimateReport, _iterate, bp_run, make_report
from .errors import ParameterError
from .graph import AnswerMatrix, AssignmentGraph, answer_values
from .priors import ReliabilityPrior, empirical_prior, spammer_hammer
from .segments import expand, segment_sum
from .seeding import rng_from

_P_CLAMP = 1e-9


def majority_vote(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray) -> EstimateReport:
    """Sign of the plain answer sum per task; margin is the mean answer."""
    a = answer_values(answers, graph)
    scores = segment_sum(a, graph.by_task)
    degrees = graph.task_degrees
    margins = np.divide(scores, degrees, out=np.zeros_like(scores),
                        where=degrees > 0)
    return make_report(margins, iterations_run=0, converged=True, max_delta=0.0)


def kos_run(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
            k_max: int = 100, seed: int = 0, init: str = "random-normal",
            tol: float = 1e-5) -> EstimateReport:
    """Linear message passing that weighs workers by agreement.

    Task messages x[i->u] sum the other workers' answer-weighted messages;
    worker messages y[u->i] sum the other tasks' answer-weighted ones.
    Messages grow geometrically, so y is L2-renormalized each iteration
    (decoding only uses signs and is scale invariant) and convergence is
    judged on the normalized vector.  Decode: sign of sum_u A_iu y[u->i].
    """
    if init not in ("random-normal", "ones"):
        raise ParameterError(f"unknown init {init!r}")
    a = answer_values(answers, graph)
    m = graph.n_edges

    def step(prev_y):
        ay = a * prev_y
        x = expand(segment_sum(ay, graph.by_task), graph.by_task) - ay
        ax = a * x
        y = _unit(expand(segment_sum(ax, graph.by_worker), graph.by_worker) - ax)
        return y, float(np.abs(y - prev_y).max(initial=0.0))

    y, iterations, converged, delta = _iterate(step, _unit(
        np.ones(m) if init == "ones" else rng_from(seed).standard_normal(m) + 1.0), k_max, tol)
    scores = segment_sum(a * y, graph.by_task)
    peak = np.abs(scores).max(initial=0.0)
    margins = scores / peak if peak > 0 else scores
    return make_report(margins, iterations, converged, delta)


def _unit(v: np.ndarray) -> np.ndarray:
    # numpy's pairwise sum, not BLAS: the result must not depend on the
    # number of BLAS threads.
    norm = np.sqrt(np.sum(v * v))
    return v / norm if norm > 0 else v


def ebp_run(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
            rounds: int = 2, k_max: int = 100, tol: float = 1e-5) -> EstimateReport:
    """Belief propagation with a bootstrapped empirical reliability prior.

    Round 0 labels come from majority vote.  Each round then scores every
    worker with the smoothed agreement rate (¼ + matches) / (½ + degree),
    turns those scores into an empirical atom prior, and reruns belief
    propagation under it.  Returns the report of the final round.

    The quarter pseudo-count is the posterior mean under a U-shaped
    Beta(¼, ¼) prior: it keeps estimates strictly inside (0, 1) without
    shrinking low-degree workers toward ½, which would wash out the very
    reliability signal the next round of belief propagation depends on.
    """
    if rounds < 1:
        raise ParameterError("rounds must be at least 1")
    a = answer_values(answers, graph)
    labels = majority_vote(graph, answers).labels
    report = None
    for _ in range(rounds):
        matches = segment_sum(a == labels[graph.edges[:, 0]], graph.by_worker)
        p_hat = (0.25 + matches) / (0.5 + graph.worker_degrees)
        # With no worker there is nothing to score and no answer for any
        # prior to weigh: every margin is 0.
        prior = empirical_prior(p_hat) if p_hat.size else spammer_hammer()
        report = bp_run(graph, answers, prior, k_max=k_max, tol=tol)
        labels = report.labels
    return report


def oracle_work(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
                reliabilities: np.ndarray) -> EstimateReport:
    """Optimal decoding when every worker's reliability is known exactly.

    Each answer is weighted by its worker's log-odds log(p/(1-p)); the
    margin is the exact posterior margin tanh(score / 2).
    """
    p = np.asarray(reliabilities, dtype=np.float64)
    if p.shape[0] != graph.n_workers:
        raise ParameterError("reliabilities length does not match graph")
    if (p < _P_CLAMP).any() or (p > 1.0 - _P_CLAMP).any():
        warnings.warn("reliabilities at 0 or 1 clamped for log-odds weighting",
                      stacklevel=2)
        p = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
    weights = np.log(p / (1.0 - p))
    a = answer_values(answers, graph)
    scores = segment_sum(a * weights[graph.edges[:, 1]], graph.by_task)
    return make_report(np.tanh(scores / 2.0), iterations_run=0, converged=True,
                       max_delta=0.0)


def _em_e_step(graph: AssignmentGraph, a: np.ndarray, p_hat: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Posterior P(label = +1) per task under independent answers.

    ``out`` is an optional float edge buffer for the per-edge terms.
    """
    log_odds = np.log(p_hat / (1.0 - p_hat))
    # The graph has checked every id; mode="raise" would copy through a
    # temporary instead of writing into ``out``.
    terms = np.take(log_odds, graph.by_worker.keys, out=out, mode="clip")
    terms *= a
    scores = np.bincount(graph.by_task.keys, terms, graph.n_tasks)
    return 1.0 / (1.0 + np.exp(-scores))


def _em_m_step(graph: AssignmentGraph, a: np.ndarray, w: np.ndarray,
               alpha: float, beta: float, out: np.ndarray | None = None) -> np.ndarray:
    """Beta-MAP reliability update from soft agreement counts.

    An answer's agreement with its task is ``w`` for a = +1 and ``1 - w``
    for a = -1, computed as ``(a == -1) + a * w``, which is exact for both;
    ``out`` is an optional float edge buffer for it.
    """
    agree = np.take(w, graph.by_task.keys, out=out, mode="clip")
    agree *= a
    agree += a == -1
    soft_matches = np.bincount(graph.by_worker.keys, agree, graph.n_workers)
    denom = np.maximum(alpha + beta - 2.0 + graph.worker_degrees, _P_CLAMP)
    p_hat = (alpha - 1.0 + soft_matches) / denom
    return np.clip(p_hat, _P_CLAMP, 1.0 - _P_CLAMP)


def em_run(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
           prior_alpha: float = 2.0, prior_beta: float = 1.0,
           k_max: int = 100, tol: float = 1e-5) -> EstimateReport:
    """One-coin EM with a Beta MAP update for worker reliabilities.

    Initializes the posterior weights from smoothed vote fractions, then
    alternates the posterior (E) and reliability (M) steps until the
    largest posterior change drops below ``tol``.  Both steps work in one
    edge buffer allocated per run.
    """
    if prior_alpha <= 0 or prior_beta <= 0:
        raise ParameterError("Beta prior parameters must be positive")
    a = answer_values(answers, graph)
    plus_votes = segment_sum(a == 1, graph.by_task)
    buffer = np.empty(graph.n_edges)

    def step(w):
        p_hat = _em_m_step(graph, a, w, prior_alpha, prior_beta, out=buffer)
        new_w = _em_e_step(graph, a, p_hat, out=buffer)
        return new_w, float(np.abs(new_w - w).max(initial=0.0))

    w, iterations, converged, delta = _iterate(
        step, (1.0 + plus_votes) / (2.0 + graph.task_degrees), k_max, tol)
    return make_report(2.0 * w - 1.0, iterations, converged, delta)


@dataclass(frozen=True)
class EstimatorSpec:
    """A named estimator plus the knobs the harness threads through."""

    kind: str
    rounds: int = 0
    k_max: int = 100
    tol: float = 1e-5

    _KINDS = ("mv", "kos", "bp", "ebp", "oracle-work", "oracle-task", "em")

    @classmethod
    def parse(cls, name: str, k_max: int = 100, tol: float = 1e-5) -> "EstimatorSpec":
        name = name.strip().lower()
        if name.startswith("ebp"):
            suffix = name[len("ebp"):]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ParameterError(f"unknown estimator {name!r}")
            return cls(kind="ebp", rounds=int(suffix), k_max=k_max, tol=tol)
        if name not in cls._KINDS:
            raise ParameterError(f"unknown estimator {name!r}")
        return cls(kind=name, k_max=k_max, tol=tol)

    @property
    def name(self) -> str:
        return f"ebp{self.rounds}" if self.kind == "ebp" else self.kind

    def needs_prior(self) -> bool:
        return self.kind in ("bp", "oracle-task")

    def needs_truth(self) -> bool:
        return self.kind == "oracle-task"

    def needs_reliabilities(self) -> bool:
        return self.kind == "oracle-work"

    def run(self, graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
            *, prior: ReliabilityPrior | None = None, truth=None,
            reliabilities: np.ndarray | None = None, seed: int = 0) -> EstimateReport:
        from .exact import oracle_task_estimate

        if self.kind == "mv":
            return majority_vote(graph, answers)
        if self.kind == "kos":
            return kos_run(graph, answers, k_max=self.k_max, seed=seed, tol=self.tol)
        if self.kind == "bp":
            if prior is None:
                raise ParameterError("estimator 'bp' needs a reliability prior")
            return bp_run(graph, answers, prior, k_max=self.k_max, tol=self.tol)
        if self.kind == "ebp":
            return ebp_run(graph, answers, rounds=self.rounds, k_max=self.k_max,
                           tol=self.tol)
        if self.kind == "oracle-work":
            if reliabilities is None:
                raise ParameterError("estimator 'oracle-work' needs true reliabilities")
            return oracle_work(graph, answers, reliabilities)
        if self.kind == "oracle-task":
            if prior is None or truth is None:
                raise ParameterError("estimator 'oracle-task' needs a prior and truth labels")
            return oracle_task_estimate(graph, answers, prior, truth)
        if self.kind == "em":
            return em_run(graph, answers, k_max=self.k_max, tol=self.tol)
        raise ParameterError(f"unknown estimator kind {self.kind!r}")
