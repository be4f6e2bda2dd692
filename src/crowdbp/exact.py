"""Exact small-instance inference and the clamped-spanning-tree oracle.

Joint label configurations factor over workers: integrating a worker's
reliability against her answers contributes f(c_u, r_u), where c_u counts
answers agreeing with the hypothesized labels.  That makes exhaustive
enumeration tractable for small instances and yields three tools:

* exact posterior marginals by brute force;
* the clamped-tree estimator, which for each root takes the BFS spanning
  subtree of its component, conditions every task touching a non-tree edge
  on its true label, and reads off the root's exact tree posterior;
* exact error-gain computations for estimators that see only a subset of
  answers and a set of revealed labels, used to verify that withholding
  information never helps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bp import EstimateReport, bp_run, make_report
from .errors import NumericDegeneracyError, ParameterError, SizeError
from .graph import AnswerMatrix, AssignmentGraph, GroundTruth, answer_values
from .priors import FactorTable, ReliabilityPrior

_BRUTE_FORCE_TASK_GUARD = 20
_GAIN_EDGE_GUARD = 10
_GAIN_TASK_GUARD = 12


def _label_states(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n label vectors as (bits, +-1 values)."""
    bits = ((np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    return bits, (2 * bits - 1).astype(np.int8)


def brute_force_marginals(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
                          prior: ReliabilityPrior) -> np.ndarray:
    """Exact posterior pair (P[+1], P[-1]) per task by joint enumeration."""
    from scipy.special import logsumexp

    n = graph.n_tasks
    if n > _BRUTE_FORCE_TASK_GUARD:
        raise SizeError(f"brute force enumerates 2^{n} states; guard is "
                        f"n_tasks <= {_BRUTE_FORCE_TASK_GUARD}")
    a = answer_values(answers)
    if a.shape[0] != graph.n_edges:
        raise ParameterError("answers length does not match graph")
    r_max = int(graph.worker_degrees.max()) if graph.n_edges else 0
    factors = FactorTable.build(prior, r_max)
    bits, s = _label_states(n)
    logw = np.zeros(2**n)
    grouping = graph.by_worker
    for u in range(graph.n_workers):
        lo, hi = grouping.offsets[u], grouping.offsets[u + 1]
        eids = grouping.order[lo:hi]
        if eids.size == 0:
            continue
        c = (s[:, graph.edges[eids, 0]] == a[eids][None, :]).sum(axis=1)
        logw += factors.log_values[eids.size, c]
    total = float(logsumexp(logw))
    if total == -np.inf:
        raise NumericDegeneracyError("every label configuration has zero probability")
    pairs = np.empty((n, 2))
    for i in range(n):
        plus = bits[:, i] == 1
        with np.errstate(divide="ignore"):
            pairs[i, 0] = np.exp(logsumexp(logw[plus]) - total) if plus.any() else 0.0
            pairs[i, 1] = np.exp(logsumexp(logw[~plus]) - total) if (~plus).any() else 0.0
    return pairs


@dataclass(frozen=True)
class SpanningTree:
    """BFS spanning subtree of one root's component.

    ``tree_edges`` are edge ids into the parent graph, ascending.
    ``boundary_tasks`` are the component's tasks incident to at least one
    non-tree edge.  ``depth`` is the largest hop distance from the root.
    """

    root: int
    tree_edges: np.ndarray
    boundary_tasks: np.ndarray
    depth: int


def extract_bfs_tree(graph: AssignmentGraph, root: int) -> SpanningTree:
    """Deterministic BFS spanning tree: FIFO queue, neighbors by ascending id.

    Implemented level-synchronously: every undiscovered node adjacent to the
    current level is claimed by its earliest-queued neighbor, and the new
    level is queued sorted by (claiming parent's position, node id), which
    reproduces the sequential ascending-id BFS exactly.
    """
    if not 0 <= root < graph.n_tasks:
        raise ParameterError(f"root {root} out of range")
    edges = graph.edges
    dist_task = np.full(graph.n_tasks, -1, dtype=np.int64)
    dist_worker = np.full(graph.n_workers, -1, dtype=np.int64)
    pos_task = np.full(graph.n_tasks, -1, dtype=np.int64)
    pos_worker = np.full(graph.n_workers, -1, dtype=np.int64)
    dist_task[root] = 0
    pos_task[root] = 0
    counter = 1
    depth = 0
    tree_levels: list[np.ndarray] = []
    while True:
        task_side = depth % 2 == 0
        if task_side:
            cand = np.flatnonzero((dist_task[edges[:, 0]] == depth) & (dist_worker[edges[:, 1]] < 0))
        else:
            cand = np.flatnonzero((dist_worker[edges[:, 1]] == depth) & (dist_task[edges[:, 0]] < 0))
        if cand.size == 0:
            break
        if task_side:
            child = edges[cand, 1]
            parent_pos = pos_task[edges[cand, 0]]
        else:
            child = edges[cand, 0]
            parent_pos = pos_worker[edges[cand, 1]]
        order = np.lexsort((parent_pos, child))
        first = np.ones(order.size, dtype=bool)
        first[1:] = child[order][1:] != child[order][:-1]
        chosen = cand[order[first]]
        new_nodes = child[order[first]]
        claim_pos = parent_pos[order[first]]
        enqueue = np.lexsort((new_nodes, claim_pos))
        new_sorted = new_nodes[enqueue]
        if task_side:
            dist_worker[new_sorted] = depth + 1
            pos_worker[new_sorted] = counter + np.arange(new_sorted.size)
        else:
            dist_task[new_sorted] = depth + 1
            pos_task[new_sorted] = counter + np.arange(new_sorted.size)
        counter += new_sorted.size
        tree_levels.append(chosen)
        depth += 1

    if tree_levels:
        tree_edges = np.sort(np.concatenate(tree_levels))
    else:
        tree_edges = np.empty(0, dtype=np.int64)
    in_component = dist_task[edges[:, 0]] >= 0
    in_tree = np.zeros(graph.n_edges, dtype=bool)
    in_tree[tree_edges] = True
    boundary_tasks = np.unique(edges[in_component & ~in_tree, 0])
    return SpanningTree(root=root, tree_edges=tree_edges,
                        boundary_tasks=boundary_tasks, depth=depth)


def oracle_task_estimate(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
                         prior: ReliabilityPrior, truth: GroundTruth) -> EstimateReport:
    """Per-root exact tree inference with true labels revealed on the boundary.

    For every root the estimator sees only the answers on the root's BFS
    spanning subtree plus the true labels of tasks touching non-tree edges,
    and decodes the root's exact conditional posterior.  Roots never touch
    a non-tree edge themselves, so no root is conditioned on its own label.
    """
    a = answer_values(answers)
    labels = np.asarray(truth.labels, dtype=np.int64)
    if labels.shape[0] != graph.n_tasks:
        raise ParameterError("truth labels length does not match graph")
    margins = np.zeros(graph.n_tasks)
    iterations = 0
    for root in range(graph.n_tasks):
        tree = extract_bfs_tree(graph, root)
        if tree.tree_edges.size == 0:
            continue
        sub = graph.with_edges(tree.tree_edges)
        report = bp_run(
            sub, a[tree.tree_edges], prior,
            k_max=tree.depth // 2 + 2, tol=0.0,
            clamp_tasks=tree.boundary_tasks,
            clamp_labels=labels[tree.boundary_tasks],
        )
        margins[root] = report.margins[root]
        iterations = max(iterations, report.iterations_run)
    return make_report(margins, iterations, converged=True, max_delta=0.0)


def _bfs_distances(graph: AssignmentGraph, root: int) -> tuple[np.ndarray, np.ndarray]:
    edges = graph.edges
    dist_task = np.full(graph.n_tasks, -1, dtype=np.int64)
    dist_worker = np.full(graph.n_workers, -1, dtype=np.int64)
    dist_task[root] = 0
    depth = 0
    while True:
        if depth % 2 == 0:
            mask = (dist_task[edges[:, 0]] == depth) & (dist_worker[edges[:, 1]] < 0)
            new = np.unique(edges[mask, 1])
            dist_worker[new] = depth + 1
        else:
            mask = (dist_worker[edges[:, 1]] == depth) & (dist_task[edges[:, 0]] < 0)
            new = np.unique(edges[mask, 0])
            dist_task[new] = depth + 1
        if new.size == 0:
            break
        depth += 1
    return dist_task, dist_worker


def khop_subgraph(graph: AssignmentGraph, root: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges within 2k hops of the root and the tasks at exactly 2k hops
    that still touch an edge outside the ball."""
    if k < 1:
        raise ParameterError("k must be at least 1")
    dist_task, dist_worker = _bfs_distances(graph, root)
    edges = graph.edges
    dt = dist_task[edges[:, 0]]
    dw = dist_worker[edges[:, 1]]
    inside = (dt >= 0) & (dt <= 2 * k) & (dw >= 0) & (dw <= 2 * k)
    outside_touch = (dt == 2 * k) & ~inside
    boundary = np.unique(edges[outside_touch, 0])
    return np.flatnonzero(inside), boundary


def _gain_masses(graph: AssignmentGraph, prior: ReliabilityPrior, root: int,
                 edge_ids: np.ndarray, clamp_tasks: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Joint mass of (root label, observation) per observation outcome.

    An observation outcome is one answer configuration on ``edge_ids``
    combined with one revealed-label configuration on ``clamp_tasks``;
    the returned arrays have shape (2^|clamp|, 2^|edges|).  Unobserved
    answers integrate out exactly because each worker's answer
    distribution is a probability measure for any fixed labels.
    """
    n = graph.n_tasks
    if n > _GAIN_TASK_GUARD:
        raise SizeError(f"gain enumeration guard is n_tasks <= {_GAIN_TASK_GUARD}")
    if edge_ids.size > _GAIN_EDGE_GUARD:
        raise SizeError(f"gain enumeration guard is |edges| <= {_GAIN_EDGE_GUARD}")
    if not 0 <= root < n:
        raise ParameterError(f"root {root} out of range")
    if np.isin(root, clamp_tasks):
        raise ParameterError("the root's own label cannot be revealed")

    e = edge_ids.size
    bits, s = _label_states(n)
    a_bits, a_vals = _label_states(e)
    r_max = int(graph.worker_degrees.max()) if graph.n_edges else 0
    factors = FactorTable.build(prior, r_max)

    logw = np.zeros((2**n, 2**e))
    sub_workers = graph.edges[edge_ids, 1] if e else np.empty(0, dtype=np.int64)
    for u in np.unique(sub_workers):
        positions = np.flatnonzero(sub_workers == u)
        c = np.zeros((2**n, 2**e), dtype=np.int64)
        for pos in positions:
            task = graph.edges[edge_ids[pos], 0]
            c += s[:, task][:, None] == a_vals[None, :, pos]
        logw += factors.log_values[positions.size, c]

    weights = np.exp(logw) * 2.0 ** (-n)
    clamp_key = np.zeros(2**n, dtype=np.int64)
    for j, task in enumerate(clamp_tasks):
        clamp_key += bits[:, task].astype(np.int64) << j
    n_keys = 2 ** clamp_tasks.size
    plus_rows = bits[:, root] == 1
    mass_plus = np.zeros((n_keys, 2**e))
    mass_minus = np.zeros((n_keys, 2**e))
    np.add.at(mass_plus, clamp_key[plus_rows], weights[plus_rows])
    np.add.at(mass_minus, clamp_key[~plus_rows], weights[~plus_rows])
    return mass_plus, mass_minus


def exact_conditional_gain(graph: AssignmentGraph, prior: ReliabilityPrior, root: int,
                           edge_ids: np.ndarray, clamp_tasks: np.ndarray) -> float:
    """Exact gain (1/2 minus error probability) of the optimal root decoder
    that observes the answers on ``edge_ids`` and the true labels of
    ``clamp_tasks``, under the full generative model.
    """
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    clamp_tasks = np.asarray(clamp_tasks, dtype=np.int64)
    mass_plus, mass_minus = _gain_masses(graph, prior, root, edge_ids, clamp_tasks)
    p_err = float(np.minimum(mass_plus, mass_minus).sum())
    return 0.5 - p_err


def subset_monotonicity_check(graph: AssignmentGraph, prior: ReliabilityPrior,
                              edge_subset: np.ndarray, root: int = 0) -> tuple[float, float]:
    """Exact gains of the optimal root decoder on all answers vs. a subset.

    Both gains are read off one joint enumeration over all answers: the
    subset decoder's observation lumps together every full configuration
    that agrees on the subset, so its error mass per lump is the min of two
    sums whose addends include the full decoder's per-configuration error
    masses.  Summation orders match term for term, which keeps
    ``delta_full >= delta_subset`` true in floating point, not just in
    exact arithmetic.
    """
    edge_subset = np.asarray(edge_subset, dtype=np.int64)
    all_edges = np.arange(graph.n_edges, dtype=np.int64)
    if edge_subset.size and (edge_subset.min() < 0 or edge_subset.max() >= graph.n_edges):
        raise ParameterError("edge subset contains out-of-range ids")
    if np.unique(edge_subset).size != edge_subset.size:
        raise ParameterError("edge subset contains duplicates")
    none = np.empty(0, dtype=np.int64)
    mass_plus, mass_minus = _gain_masses(graph, prior, root, all_edges, none)
    mass_plus, mass_minus = mass_plus[0], mass_minus[0]

    # Project full answer configurations onto the subset's coordinates.
    configs = np.arange(mass_plus.size, dtype=np.int64)
    key = np.zeros_like(configs)
    for j, eid in enumerate(np.sort(edge_subset)):
        key += ((configs >> eid) & 1) << j
    n_groups = 2 ** edge_subset.size
    group_plus = np.bincount(key, weights=mass_plus, minlength=n_groups)
    group_minus = np.bincount(key, weights=mass_minus, minlength=n_groups)
    group_best = np.bincount(key, weights=np.minimum(mass_plus, mass_minus),
                             minlength=n_groups)
    delta_full = 0.5 - float(np.sum(group_best))
    delta_subset = 0.5 - float(np.sum(np.minimum(group_plus, group_minus)))
    return delta_full, delta_subset
