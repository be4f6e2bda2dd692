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

from .bp import _K_MAX, _TOL, EstimateReport, _iterate, _max_change, bp_run, make_report
from .errors import ParameterError, check_budget, check_count, check_length, check_probabilities
from .exact import oracle_task_estimate
from .graph import AnswerMatrix, AssignmentGraph, answer_values
from .priors import ReliabilityPrior, empirical_prior, spammer_hammer
from .segments import _CHUNK, edge_blocks, gather, segment_count, segment_sum
from .seeding import rng_from

_P_CLAMP = 1e-9


def majority_vote(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray) -> EstimateReport:
    """Sign of the plain answer sum per task; margin is the mean answer."""
    a = answer_values(answers, graph)
    degrees = graph.task_degrees
    # The answer sum from the count of +1 answers: the same exact integers.
    scores = (2 * segment_count(a > 0, graph.by_task) - degrees).astype(np.float64)
    margins = np.divide(scores, degrees, out=np.zeros_like(scores),
                        where=degrees > 0)
    return make_report(margins, iterations_run=0, converged=True, max_delta=0.0)


def kos_run(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
            k_max: int = _K_MAX, seed: int = 0, tol: float = _TOL) -> EstimateReport:
    """Linear message passing that weighs workers by agreement.

    Task messages x[i->u] sum the other workers' answer-weighted messages;
    worker messages y[u->i] sum the other tasks' answer-weighted ones.
    Messages grow geometrically, so y is L2-renormalized each iteration
    (decoding only uses signs and is scale invariant) and convergence is
    judged on the normalized vector.  The start is y ~ N(1, 1) per edge,
    drawn from ``seed`` (Karger-Oh-Shah).  Decode: sign of sum_u A_iu y[u->i].
    """
    a = answer_values(answers, graph)
    tasks, workers = graph.by_task, graph.by_worker
    # Per run: two float edge buffers, y and a spare, and one block row.  A
    # step writes a y into the spare, then, in place and a block at a time
    # through the row, a x and the new y.  The spare holds each whole array
    # that np.bincount sums, and the norm is one np.einsum dot over the whole
    # y, which calls no BLAS.  The previous y's buffer is the next step's spare.
    spare, temp = np.empty(graph.n_edges), np.empty(min(_CHUNK, graph.n_edges))
    blocks = edge_blocks(graph.n_edges, _CHUNK)

    def others(y, grouping):
        # Over y, each edge's node sum less its own value, a block at a time.
        sums = segment_sum(y, grouping)
        for at in blocks:
            v = sums.take(grouping.keys[at], out=temp[:at.stop - at.start], mode="clip")
            np.subtract(v, y[at], out=y[at])

    def step(prev_y):
        nonlocal spare
        y = np.multiply(a, prev_y, out=spare)
        others(y, tasks)
        y *= a
        others(y, workers)
        delta = _unit(y, blocks, prev=prev_y)
        spare = prev_y
        return y, delta

    y = rng_from(seed).standard_normal(graph.n_edges)
    y += 1.0
    _unit(y, blocks)
    y, iterations, converged, delta = _iterate(step, y, k_max, tol)
    scores = segment_sum(np.multiply(a, y, out=spare), tasks)
    peak = np.abs(scores).max(initial=0.0)
    margins = scores / peak if peak > 0 else scores
    return make_report(margins, iterations, converged, delta)


def _unit(v: np.ndarray, blocks: list, prev: np.ndarray | None = None) -> float:
    """Scale ``v`` in place to unit L2 norm, or leave it if that is not positive.

    The norm is the square root of ``np.einsum``'s dot of ``v`` with
    itself: it calls no BLAS, so it does not depend on the BLAS thread
    count, and it allocates no edge array.  The division runs over
    ``blocks``; with ``prev``, each block's largest change against it is
    taken over ``prev``, which it overwrites, and the largest is returned.
    """
    norm = np.sqrt(np.einsum("i,i->", v, v))
    scale, change = (norm if norm > 0 else 1.0), 0.0
    for at in blocks:
        np.divide(v[at], scale, out=v[at])
        if prev is not None:
            change = max(change, _max_change(v[at], prev[at]))
    return change


def ebp_run(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
            rounds: int = 2, k_max: int = _K_MAX, tol: float = _TOL) -> EstimateReport:
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
    rounds = check_count(rounds, "rounds", 1)
    # Checked once here, not again by majority vote and every round's bp.
    answers = answers if isinstance(answers, AnswerMatrix) else AnswerMatrix(answers)
    a = answer_values(answers, graph)
    # The labels each prior is scored from, and their report, die before its bp runs.
    prior = _ebp_prior(graph, a, majority_vote(graph, answers).labels)
    for _ in range(rounds - 1):
        prior = _ebp_prior(graph, a, bp_run(graph, answers, prior, k_max=k_max, tol=tol).labels)
    return bp_run(graph, answers, prior, k_max=k_max, tol=tol)


def _ebp_prior(graph: AssignmentGraph, a: np.ndarray, labels: np.ndarray) -> ReliabilityPrior:
    """The empirical prior of every worker's smoothed agreement with ``labels``."""
    # Agreements as the degree less the counted disagreements: the same
    # exact integers, with no float copy of an edge mask.
    matches = graph.worker_degrees - segment_count(
        a != gather(labels.astype(np.int8), graph.by_task), graph.by_worker)
    p_hat = (0.25 + matches) / (0.5 + graph.worker_degrees)
    # With no worker there is nothing to score and no answer for any prior
    # to weigh: every margin is 0.
    return empirical_prior(p_hat) if p_hat.size else spammer_hammer()


def oracle_work(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
                reliabilities: np.ndarray) -> EstimateReport:
    """Optimal decoding when every worker's reliability is known exactly.

    Each answer is weighted by its worker's log-odds log(p/(1-p)); the
    margin is the exact posterior margin tanh(score / 2).
    """
    p = check_probabilities(reliabilities, "reliabilities")
    check_length(p.shape, graph.n_workers, "reliabilities", "worker")
    if (p < _P_CLAMP).any() or (p > 1.0 - _P_CLAMP).any():
        warnings.warn("reliabilities at 0 or 1 clamped for log-odds weighting",
                      stacklevel=2)
        p = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
    scores = _log_odds_vote(graph, answer_values(answers, graph), p)
    return make_report(np.tanh(scores / 2.0), iterations_run=0, converged=True,
                       max_delta=0.0)


def _log_odds_vote(graph: AssignmentGraph, a: np.ndarray, p: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Per task, the sum of its answers ``a`` weighted by their workers'
    log-odds log(p / (1 - p)); ``out`` is an optional float edge buffer."""
    terms = gather(np.log(p / (1.0 - p)), graph.by_worker, out=out)
    terms *= a
    return segment_sum(terms, graph.by_task)


def _em_e_step(graph: AssignmentGraph, a: np.ndarray, p_hat: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Posterior P(label = +1) per task under independent answers.

    ``out`` is an optional float edge buffer for the per-edge terms.
    """
    return 1.0 / (1.0 + np.exp(-_log_odds_vote(graph, a, p_hat, out)))


def _em_m_step(graph: AssignmentGraph, a: np.ndarray, w: np.ndarray,
               alpha: float, denom: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Beta-MAP reliability update from soft agreement counts.

    An answer's agreement with its task is ``w`` for a = +1 and ``1 - w``
    for a = -1, computed as ``(a == -1) + a * w``, which is exact for both;
    ``out`` is an optional float edge buffer for it.  ``denom`` is each
    worker's ``max(alpha + beta - 2 + degree, _P_CLAMP)``, fixed for a run.
    """
    agree = gather(w, graph.by_task, out=out)
    agree *= a
    agree += a == -1
    soft_matches = segment_sum(agree, graph.by_worker)
    p_hat = (alpha - 1.0 + soft_matches) / denom
    return np.clip(p_hat, _P_CLAMP, 1.0 - _P_CLAMP)


def em_run(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
           prior_alpha: float = 2.0, prior_beta: float = 1.0,
           k_max: int = _K_MAX, tol: float = _TOL) -> EstimateReport:
    """One-coin EM with a Beta MAP update for worker reliabilities.

    Initializes the posterior weights from smoothed vote fractions, then
    alternates the posterior (E) and reliability (M) steps until the
    largest posterior change drops below ``tol``.  Both steps read the
    answers in place and work in one edge buffer allocated per run.
    """
    prior = ReliabilityPrior.from_beta(prior_alpha, prior_beta)
    a = answer_values(answers, graph)
    plus_votes = segment_count(a == 1, graph.by_task)
    buffer = np.empty(graph.n_edges)
    denom = np.maximum(prior.alpha + prior.beta - 2.0 + graph.worker_degrees, _P_CLAMP)

    def step(w):
        p_hat = _em_m_step(graph, a, w, prior.alpha, denom, out=buffer)
        new_w = _em_e_step(graph, a, p_hat, out=buffer)
        return new_w, _max_change(new_w, w)

    w, iterations, converged, delta = _iterate(
        step, (1.0 + plus_votes) / (2.0 + graph.task_degrees), k_max, tol)
    return make_report(2.0 * w - 1.0, iterations, converged, delta)


@dataclass(frozen=True)
class EstimatorSpec:
    """A named estimator and the knobs the harness threads through, checked when built."""

    kind: str
    rounds: int = 0
    k_max: int = _K_MAX
    tol: float = _TOL

    # What each kind reads besides the graph and its answers.
    _NEEDS = {"mv": (), "kos": (), "bp": ("prior",), "ebp": (), "oracle-work": ("reliabilities",),
              "oracle-task": ("prior", "truth"), "em": ()}

    def __post_init__(self) -> None:
        if self.kind not in self._NEEDS:
            raise ParameterError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "ebp":
            check_count(self.rounds, "rounds", 1)
        elif self.rounds != 0:
            raise ParameterError(f"estimator {self.kind!r} takes no rounds, got {self.rounds}")
        check_budget(self.k_max, self.tol)

    @classmethod
    def parse(cls, name: str, k_max: int = _K_MAX, tol: float = _TOL) -> "EstimatorSpec":
        name = name.strip().lower()
        if name.startswith("ebp"):
            suffix = name[len("ebp"):]
            if not (suffix.isascii() and suffix.isdigit()) or int(suffix) < 1:
                raise ParameterError(f"unknown estimator {name!r}")
            return cls(kind="ebp", rounds=int(suffix), k_max=k_max, tol=tol)
        return cls(kind=name, k_max=k_max, tol=tol)

    @property
    def name(self) -> str:
        return f"ebp{self.rounds}" if self.kind == "ebp" else self.kind

    @property
    def needs(self) -> tuple[str, ...]:
        """The inputs ``run`` reads for this kind: "prior", "truth", "reliabilities"."""
        return self._NEEDS[self.kind]

    def run(self, graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
            *, prior: ReliabilityPrior | None = None, truth=None,
            reliabilities: np.ndarray | None = None, seed: int = 0) -> EstimateReport:
        given = {"prior": prior, "truth": truth, "reliabilities": reliabilities}
        missing = [need for need in self.needs if given[need] is None]
        if missing:
            raise ParameterError(f"estimator {self.name!r} needs {' and '.join(missing)}")
        if self.kind == "mv":
            return majority_vote(graph, answers)
        if self.kind == "kos":
            return kos_run(graph, answers, k_max=self.k_max, seed=seed, tol=self.tol)
        if self.kind == "bp":
            return bp_run(graph, answers, prior, k_max=self.k_max, tol=self.tol)
        if self.kind == "ebp":
            return ebp_run(graph, answers, rounds=self.rounds, k_max=self.k_max,
                           tol=self.tol)
        if self.kind == "oracle-work":
            return oracle_work(graph, answers, reliabilities)
        if self.kind == "oracle-task":
            return oracle_task_estimate(graph, answers, prior, truth)
        return em_run(graph, answers, k_max=self.k_max, tol=self.tol)
