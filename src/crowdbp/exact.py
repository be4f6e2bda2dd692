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
    a = answer_values(answers, graph)
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


# Edge and node visits one block of roots may make: a block holds this many
# over (edges + tasks + workers) roots.  The block BFS keeps node flags per
# root and, per level, one candidate per frontier edge, about 60 bytes per
# visit in all, so this caps its temporaries (about 1 MB) and the forest
# handed to ``bp_run`` whatever the graph size.  A larger cap saves only
# per-block overhead, and bench threads each hold a block at once.
_BLOCK_VISITS = 1 << 14


@dataclass(frozen=True)
class SpanningTree:
    """BFS spanning subtree of one root's component.

    ``tree_edges`` are edge ids into the parent graph, ascending.
    ``boundary_tasks`` are the component's tasks incident to at least one
    non-tree edge.  ``depth`` is the largest hop distance from the root.
    ``region_edges`` (ascending) are the tree edges reachable from the root
    without passing through a boundary task: once the boundary labels are
    revealed, the root's posterior depends on the answers on these alone.
    """

    root: int
    tree_edges: np.ndarray
    boundary_tasks: np.ndarray
    depth: int
    region_edges: np.ndarray


@dataclass(frozen=True)
class _BfsForest:
    """BFS spanning trees of a block of roots, one copy of the graph per slot.

    Per tree edge: its root's slot, its edge id and whether it lies in the
    root's region.  ``boundary`` flags (slot, task) pairs at index
    ``slot * n_tasks + task``; ``depth`` and ``region_depth`` (the deepest
    region edge's level plus one) are per slot.
    """

    slot: np.ndarray
    edge: np.ndarray
    in_region: np.ndarray
    boundary: np.ndarray
    depth: np.ndarray
    region_depth: np.ndarray


def _adjacency(graph: AssignmentGraph) -> list[tuple[np.ndarray, ...]]:
    """Per side (tasks, workers): CSR offsets, degrees, and the edge ids and
    neighbor ids listed node by node with neighbors ascending."""
    edges = graph.edges
    sides = []
    for own, grouping in ((0, graph.by_task), (1, graph.by_worker)):
        order = np.lexsort((edges[:, 1 - own], edges[:, own]))
        sides.append((grouping.offsets, grouping.lengths, order, edges[order, 1 - own]))
    return sides


def _bfs_forest(graph: AssignmentGraph, roots: np.ndarray,
                adjacency: list[tuple[np.ndarray, ...]]) -> _BfsForest:
    """Level-synchronous BFS from every root of a block at once.

    Each slot reproduces the sequential FIFO BFS that visits neighbors by
    ascending id: a node is claimed by its earliest-queued neighbor, and a
    level is queued by (claiming parent's position, node id).  The frontier
    is kept in queue order slot by slot and expanded over the sorted
    adjacency, so candidates come out in (slot, parent position, node id)
    order: a node's claim is its first candidate, and the claims, in
    candidate order, are the next level's queue.
    """
    edges = graph.edges
    n_nodes = (graph.n_tasks, graph.n_workers)
    n_slots = roots.size
    seen = [np.zeros(n_slots * n, dtype=bool) for n in n_nodes]
    # Per (slot, node): the rank of its first candidate among a level's fresh ones.
    first = [np.empty(n_slots * n, dtype=np.int64) for n in n_nodes]
    slot = np.arange(n_slots)
    node = roots
    seen[0][slot * n_nodes[0] + node] = True
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    side = 0
    while True:
        offsets, lengths, adj_edge, adj_node = adjacency[side]
        other = 1 - side
        counts = lengths[node]
        ends = np.cumsum(counts)
        flat = (np.arange(ends[-1] if ends.size else 0)
                + np.repeat(offsets[node] - (ends - counts), counts))
        cand_slot = np.repeat(slot, counts)
        key = cand_slot * n_nodes[other] + adj_node[flat]
        fresh = np.flatnonzero(~seen[other][key])
        if fresh.size == 0:
            break
        fresh_key, rank = key[fresh], np.arange(fresh.size)
        first[other][fresh_key] = fresh.size
        np.minimum.at(first[other], fresh_key, rank)
        claim = fresh[first[other][fresh_key] == rank]
        seen[other][key[claim]] = True
        slot, node = cand_slot[claim], adj_node[flat[claim]]
        levels.append((slot, adj_edge[flat[claim]], key[claim]))
        side = other

    n_tasks = n_nodes[0]
    if levels:
        tree_slot = np.concatenate([level[0] for level in levels])
        tree_edge = np.concatenate([level[1] for level in levels])
    else:
        tree_slot = tree_edge = np.empty(0, dtype=np.int64)
    tree_degree = np.bincount(tree_slot * n_tasks + edges[tree_edge, 0],
                              minlength=n_slots * n_tasks)
    boundary = seen[0] & (tree_degree < np.tile(graph.task_degrees, n_slots))

    # A tree edge lies in its root's region when its parent is open: the
    # root, a region worker, or a region task that is not a boundary task.
    is_open = [np.zeros(n_slots * n, dtype=bool) for n in n_nodes]
    is_open[0][np.arange(n_slots) * n_tasks + roots] = True
    depth = np.zeros(n_slots, dtype=np.int64)
    region_depth = np.zeros(n_slots, dtype=np.int64)
    in_region = []
    for level, (slot, edge, child) in enumerate(levels):
        parent_side = level % 2
        inside = is_open[parent_side][slot * n_nodes[parent_side] + edges[edge, parent_side]]
        opened = child[inside]
        if parent_side == 1:
            opened = opened[~boundary[opened]]
        is_open[1 - parent_side][opened] = True
        depth[slot] = level + 1
        region_depth[slot[inside]] = level + 1
        in_region.append(inside)
    in_region = np.concatenate(in_region) if in_region else np.empty(0, dtype=bool)
    return _BfsForest(tree_slot, tree_edge, in_region, boundary, depth, region_depth)


def extract_bfs_tree(graph: AssignmentGraph, root: int) -> SpanningTree:
    """Deterministic BFS spanning tree: FIFO queue, neighbors by ascending id.

    The one-root call of the block BFS that ``oracle_task_estimate`` runs.
    """
    if not 0 <= root < graph.n_tasks:
        raise ParameterError(f"root {root} out of range")
    forest = _bfs_forest(graph, np.array([root], dtype=np.int64), _adjacency(graph))
    return SpanningTree(root=root, tree_edges=np.sort(forest.edge),
                        boundary_tasks=np.flatnonzero(forest.boundary),
                        depth=int(forest.depth[0]),
                        region_edges=np.sort(forest.edge[forest.in_region]))


def oracle_task_estimate(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
                         prior: ReliabilityPrior, truth: GroundTruth) -> EstimateReport:
    """Per-root exact tree inference with true labels revealed on the boundary.

    For every root the estimator sees only the answers on the root's BFS
    spanning subtree plus the true labels of tasks touching non-tree edges,
    and decodes the root's exact conditional posterior.  Roots never touch
    a non-tree edge themselves, so no root is conditioned on its own label.

    A revealed boundary task screens off everything beyond it, so each root
    is decoded on its region (see :class:`SpanningTree`) alone.  Roots run
    in blocks sized to a fixed visit budget: one BFS for the whole block,
    then one ``bp_run`` on the disjoint forest of its regions with the
    boundary tasks clamped.  Tasks without answers get margin 0.
    """
    a = answer_values(answers, graph)
    labels = np.asarray(truth.labels, dtype=np.int64)
    if labels.shape[0] != graph.n_tasks:
        raise ParameterError("truth labels length does not match graph")
    n_tasks, n_workers = graph.n_tasks, graph.n_workers
    margins = np.zeros(n_tasks)
    iterations = 0
    adjacency = _adjacency(graph)
    roots = np.flatnonzero(graph.task_degrees)
    block = max(1, _BLOCK_VISITS // max(1, graph.n_edges + n_tasks + n_workers))
    for start in range(0, roots.size, block):
        block_roots = roots[start:start + block]
        forest = _bfs_forest(graph, block_roots, adjacency)
        slot = forest.slot[forest.in_region]
        edge = forest.edge[forest.in_region]
        # Slot by slot in edge order: each node sums its edges in the order
        # a subgraph of the whole tree would.
        order = np.lexsort((edge, slot))
        slot, edge = slot[order], edge[order]
        task_ids, task_of = np.unique(slot * n_tasks + graph.edges[edge, 0], return_inverse=True)
        worker_ids, worker_of = np.unique(slot * n_workers + graph.edges[edge, 1],
                                          return_inverse=True)
        regions = AssignmentGraph(task_ids.size, worker_ids.size,
                                  np.column_stack((task_of, worker_of)))
        clamped = np.flatnonzero(forest.boundary[task_ids])
        report = bp_run(regions, a[edge], prior,
                        k_max=int(forest.region_depth.max()) // 2 + 2, tol=0.0,
                        clamp_tasks=clamped, clamp_labels=labels[task_ids[clamped] % n_tasks])
        at_root = np.searchsorted(task_ids, np.arange(block_roots.size) * n_tasks + block_roots)
        margins[block_roots] = report.margins[at_root]
        iterations = max(iterations, report.iterations_run)
    return make_report(margins, iterations, converged=True, max_delta=0.0)


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
