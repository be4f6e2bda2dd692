"""The two claims of the source paper's abstract, checked at n = 20k.

1. Where every worker answers at most two tasks (r = 2), BP reaches the
   error of an oracle that sees each task's depth-k neighborhood and the
   true labels beyond it, which lower-bounds every decoder of that
   neighborhood.
2. BP beats both decoders of Karger-Oh-Shah, majority vote and iterative
   KOS, on both sides of KOS's barrier q^2 (l - 1)(r - 1) = 1.

Each instance is one seeded draw.  sigma is the binomial sigma of the
larger error of a comparison.  A claim that one decoder errs below another
is kept only where the measured gap exceeds 3 sigma at this n and seed:
the depth-1 gap at l = 8 under ``sh`` (2.1 sigma) is left out.
"""
import math

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import bp
from crowdbp.graph import answer_values, draw_instance
from crowdbp.segments import gather

N_TASKS = 20_000


def sigma(*errors: float) -> float:
    e = max(errors)
    return math.sqrt(e * (1.0 - e) / N_TASKS)


def error(report: cb.EstimateReport, truth: cb.GroundTruth) -> float:
    return cb.error_rate(report, truth.labels)


def revealed_oracle_errors(graph, answers, prior, truth, depth: int) -> list[float]:
    """The depth-1 to depth-``depth`` revealed oracles' errors.

    The first worker half reads the true labels as certain task messages;
    after k worker halves, each task's total LLR is the exact posterior of
    its depth-k tree neighborhood with the labels beyond it revealed.  A
    zero total counts as half an error.
    """
    worker_half = bp._class_kernel(graph, answer_values(answers, graph), prior)
    x = gather(truth.labels.astype(np.float64), graph.by_task)
    errors = []
    for _ in range(depth):
        total, nu = bp._task_llrs(worker_half(x), graph.by_task)
        wrong = np.where(total == 0, 0.5, np.sign(total) != truth.labels)
        errors.append(float(wrong.mean()))
        x = np.tanh(nu / 2.0)
    return errors


@pytest.mark.parametrize("l,prior,depth1_below", [
    (3, "sh", True), (8, "sh", False), (3, "beta:2,1", True), (8, "beta:2,1", True),
])
def test_bp_meets_the_revealed_oracle_at_r2(l, prior, depth1_below):
    prior = cb.parse_prior_spec(prior)
    graph, truth, answers = draw_instance(N_TASKS, l, 2, prior, 1)
    bp_error = error(cb.bp_run(graph, answers, prior), truth)
    oracle = revealed_oracle_errors(graph, answers, prior, truth, 6)
    # The oracle lower-bounds BP at every depth ...
    for oracle_error in oracle:
        assert bp_error - oracle_error >= -3 * sigma(bp_error, oracle_error)
    # ... BP meets it by depth 4 ...
    assert abs(bp_error - oracle[3]) <= 3 * sigma(bp_error, oracle[3])
    # ... and at depth 1 the revealed labels are worth more than BP's inference.
    if depth1_below:
        assert bp_error - oracle[0] > 3 * sigma(bp_error, oracle[0])


@pytest.mark.parametrize("w,above_barrier", [(0.25, False), (0.6, True)])
def test_bp_beats_majority_and_kos_on_both_sides_of_the_barrier(w, above_barrier):
    # q = E[(2p - 1)^2] = 0.81 w, so q^2 (l - 1)(r - 1) is 0.66 and 3.78.
    prior = cb.parse_prior_spec(f"atoms:0.95={w},0.5={1 - w}")
    mu, q = prior.moments()
    assert (cb.theoretical_bounds(5, 5, mu, q)[1] is not None) == above_barrier
    graph, truth, answers = draw_instance(N_TASKS, 5, 5, prior, 1)
    bp_error = error(cb.bp_run(graph, answers, prior), truth)
    mv_error = error(cb.majority_vote(graph, answers), truth)
    kos = cb.kos_run(graph, answers)
    kos_error = error(kos, truth)
    for baseline in (mv_error, kos_error):
        assert baseline - bp_error > 3 * sigma(bp_error, baseline)
    if above_barrier:
        assert mv_error - kos_error > 3 * sigma(mv_error, kos_error)
    else:
        assert kos_error - mv_error > 3 * sigma(mv_error, kos_error)
        assert not kos.converged
