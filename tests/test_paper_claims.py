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

The oracle of claim 1 is itself checked, at n = 3000, against ``bp_run``
on each root's 2k-hop ball where that ball is a tree.
"""
import math

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import bp
from crowdbp.graph import answer_values, draw_instance
from crowdbp.segments import gather
from tests.oracle_reference import reference_adjacency, reference_bfs

N_TASKS = 20_000


def sigma(*errors: float) -> float:
    e = max(errors)
    return math.sqrt(e * (1.0 - e) / N_TASKS)


def error(report: cb.EstimateReport, truth: cb.GroundTruth) -> float:
    return cb.error_rate(report, truth.labels)


def revealed_oracle_totals(graph, answers, prior, truth, depth: int) -> list[np.ndarray]:
    """The depth-1 to depth-``depth`` revealed oracles' task totals.

    The first worker half reads the true labels as certain task messages;
    after k worker halves, each task's total LLR is the exact posterior of
    its depth-k tree neighborhood with the labels beyond it revealed.
    """
    a = answer_values(answers, graph)
    worker_half = bp._class_kernel(graph, a, prior)
    x = gather(truth.labels.astype(np.float64), graph.by_task)
    lam, totals = np.zeros(graph.n_edges), []
    for _ in range(depth):
        worker_half(a * x, lam)
        total, certain = bp._task_totals(lam, graph.by_task)
        totals.append(total)
        x = np.tanh(bp._task_others(total, certain, lam, graph.by_task.keys, x) / 2.0)
    return totals


def revealed_oracle_errors(graph, answers, prior, truth, depth: int) -> list[float]:
    """The depth-1 to depth-``depth`` revealed oracles' errors.

    A zero total counts as half an error.
    """
    return [float(np.where(total == 0, 0.5, np.sign(total) != truth.labels).mean())
            for total in revealed_oracle_totals(graph, answers, prior, truth, depth)]


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


@pytest.mark.parametrize("prior", ["sh", "beta:2,1", "ash"])
def test_the_revealed_oracle_is_bp_on_the_clamped_tree_ball(prior):
    # Where a root's 2k-hop ball is a tree, the depth-k oracle's margin is that
    # of k BP sweeps on the ball with the tasks at exactly 2k hops clamped.
    prior = cb.parse_prior_spec(prior)
    graph, truth, answers = draw_instance(3000, 3, 3, prior, 1)
    a = answer_values(answers, graph)
    totals = revealed_oracle_totals(graph, answers, prior, truth, 3)
    # About a quarter of the 6-hop balls are trees: roots come in a seeded
    # order until each depth has had ten.
    trees = [0, 0, 0]
    adjacent = reference_adjacency(graph)
    for root in np.random.default_rng(1).permutation(graph.n_tasks).tolist():
        if min(trees) >= 10:
            break
        _, _, _, dist_task, dist_worker = reference_bfs(graph, root, adjacent)
        hops = dist_worker[graph.edges[:, 1]]
        for k in (1, 2, 3):
            # A worker within 2k - 1 hops answers tasks within 2k hops only.
            ball = np.flatnonzero((hops >= 0) & (hops < 2 * k))
            nodes = (np.count_nonzero((dist_task >= 0) & (dist_task <= 2 * k))
                     + np.count_nonzero((dist_worker >= 0) & (dist_worker < 2 * k)))
            if ball.size != nodes - 1:
                continue
            trees[k - 1] += 1
            ring = np.flatnonzero(dist_task == 2 * k)
            report = cb.bp_run(cb.AssignmentGraph(graph.n_tasks, graph.n_workers,
                                                  graph.edges[ball]),
                               a[ball], prior, k_max=k, tol=0.0,
                               clamp_tasks=ring, clamp_labels=truth.labels[ring])
            assert abs(report.margins[root] - np.tanh(totals[k - 1][root] / 2)) <= 1e-12
    assert min(trees) >= 10


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
