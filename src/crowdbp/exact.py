"""Exact small-instance inference and the clamped-spanning-tree oracle.

Joint label configurations factor over workers: integrating a worker's
reliability against her answers contributes f(c_u, r_u), where c_u counts
answers agreeing with the hypothesized labels.  That makes exhaustive
enumeration tractable for small instances and yields three tools:

* exact posterior marginals by brute force;
* the clamped-tree estimator, which for each root takes the BFS spanning
  subtree of its component, conditions every task touching a non-tree edge
  on its true label, and reads off the root's exact tree posterior;
* the exact gains of the optimal root decoder on all answers and on a
  subset of them, used to verify that withholding answers never helps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bp import EstimateReport, _pm_configs, _run, make_report
from .errors import NumericDegeneracyError, ParameterError, SizeError, check_ids, check_length
from .graph import AnswerMatrix, AssignmentGraph, GroundTruth, answer_values, column_edges
from .priors import FactorTable, ReliabilityPrior, _logsumexp

_BRUTE_FORCE_TASK_GUARD = 20
_GAIN_EDGE_GUARD = 10
_GAIN_TASK_GUARD = 12


def _log_weights(graph: AssignmentGraph, prior: ReliabilityPrior, s: np.ndarray,
                 edge_ids: np.ndarray, answers: np.ndarray) -> np.ndarray:
    """log prod_u f(c_u, r_u) per label configuration (row of ``s``) and answer
    configuration (column of ``answers``, one row per edge of ``edge_ids``);
    r_u and c_u count only worker u's answers on those edges."""
    factors = FactorTable.build(prior, graph.worker_degrees.max(initial=0))
    logw = np.zeros((s.shape[0], answers.shape[1]))
    workers = graph.edges[edge_ids, 1]
    for u in np.unique(workers):
        rows = np.flatnonzero(workers == u)
        c = np.zeros(logw.shape, dtype=np.int64)
        for row in rows:
            c += s[:, graph.edges[edge_ids[row], 0], None] == answers[row]
        logw += factors.log_values[rows.size, c]
    return logw


def brute_force_marginals(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
                          prior: ReliabilityPrior) -> np.ndarray:
    """Exact posterior pair (P[+1], P[-1]) per task by joint enumeration."""
    n = graph.n_tasks
    if n > _BRUTE_FORCE_TASK_GUARD:
        raise SizeError(f"brute force enumerates 2^{n} states; guard is "
                        f"n_tasks <= {_BRUTE_FORCE_TASK_GUARD}")
    a = answer_values(answers, graph)
    s = _pm_configs(n)
    logw = _log_weights(graph, prior, s, np.arange(graph.n_edges), a[:, None])[:, 0]
    total = float(_logsumexp(logw))
    if total == -np.inf:
        raise NumericDegeneracyError("every label configuration has zero probability")
    pairs = np.empty((n, 2))
    for i in range(n):
        plus = s[:, i] > 0
        with np.errstate(divide="ignore"):
            pairs[i, 0] = np.exp(_logsumexp(logw[plus]) - total)
            pairs[i, 1] = np.exp(_logsumexp(logw[~plus]) - total)
    return pairs


# Edge and node visits one block of roots may make: a block holds this many
# over (edges + tasks + workers) roots.  The block BFS keeps node flags per
# root and, per level, one candidate per frontier edge, about 60 bytes per
# visit in all, so this caps its temporaries (about 2 MB) whatever the graph
# size.  A quarter of it caps the region edges of a batch, the forest that
# one BP run decodes.  A larger cap saves only per-block overhead, and
# each bench worker process holds a block at once.
_BLOCK_VISITS = 1 << 15


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

    One pass settles the regions too.  A task's tree edges are the edge
    that claimed it (a root has none) and the edges it claims, so once its
    level has claimed, it is a boundary task when those fall short of its
    degree.  An open flag travels with the frontier: the roots are open, a
    claimed edge lies in the region when its parent is open, and its child
    is open when that edge lies in the region, unless the child is a
    boundary task.
    """
    n_nodes = (graph.n_tasks, graph.n_workers)
    n_slots = roots.size
    seen = [np.zeros(n_slots * n, dtype=bool) for n in n_nodes]
    # Per (slot, node): the rank of its first candidate among a level's fresh ones.
    first = [np.empty(n_slots * n, dtype=np.int64) for n in n_nodes]
    boundary = np.zeros(n_slots * n_nodes[0], dtype=bool)
    depth = np.zeros(n_slots, dtype=np.int64)
    region_depth = np.zeros(n_slots, dtype=np.int64)
    slot = np.arange(n_slots)
    node = roots
    own = slot * n_nodes[0] + node  # the frontier's (slot, node) keys
    seen[0][own] = True
    is_open = np.ones(n_slots, dtype=bool)
    # Per level: the tree edges' slots, edge ids and region flags.
    tree = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))]
    side = level = 0
    while True:
        offsets, lengths, adj_edge, adj_node = adjacency[side]
        other = 1 - side
        counts = lengths[node]
        ends = np.cumsum(counts)
        flat = np.arange(ends[-1] if ends.size else 0)
        flat += np.repeat(offsets[node] - (ends - counts), counts)
        key = np.repeat(slot * n_nodes[other], counts)
        key += adj_node[flat]
        fresh = np.flatnonzero(~seen[other][key])
        fresh_key, rank = key[fresh], np.arange(fresh.size)
        first[other][fresh_key] = fresh.size
        np.minimum.at(first[other], fresh_key, rank)
        claim = fresh[first[other][fresh_key] == rank]
        parent = np.repeat(np.arange(node.size), counts)[claim]  # frontier positions
        if side == 0:
            at_boundary = (np.bincount(parent, minlength=node.size) + (level > 0)
                           < graph.task_degrees[node])
            boundary[own] = at_boundary
            # Not in place: the last level's region flags are kept in ``tree``.
            is_open = is_open & ~at_boundary
        if claim.size == 0:
            break
        own = key[claim]
        seen[other][own] = True
        is_open = is_open[parent]
        slot, node = np.divmod(own, n_nodes[other])
        level += 1
        depth[slot] = level
        region_depth[slot[is_open]] = level
        tree.append((slot, adj_edge[flat[claim]], is_open))
        side = other
    tree_slot, tree_edge, in_region = (np.concatenate(part) for part in zip(*tree))
    return _BfsForest(tree_slot, tree_edge, in_region, boundary, depth, region_depth)


def extract_bfs_tree(graph: AssignmentGraph, root: int) -> SpanningTree:
    """Deterministic BFS spanning tree: FIFO queue, neighbors by ascending id.

    The one-root call of the block BFS that ``oracle_task_estimate`` runs.
    """
    root = int(check_ids(root, graph.n_tasks, "root"))
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
    the BFS in blocks sized to a fixed visit budget, one BFS per block, and
    each region edge is keyed ``root * n_edges + edge``.  Consecutive
    blocks' keys gather into batches of at most a quarter of that budget,
    and each batch runs BP once on its disjoint forest of regions with the
    boundary tasks clamped.  Tasks without answers get margin 0.
    """
    a = answer_values(answers, graph)
    check_length(truth.labels.shape, graph.n_tasks, "truth labels", "task")
    n_tasks, n_edges = graph.n_tasks, graph.n_edges
    margins = np.zeros(n_tasks)
    iterations = 0
    adjacency = _adjacency(graph)
    roots = np.flatnonzero(graph.task_degrees)
    block = max(1, _BLOCK_VISITS // max(1, n_edges + n_tasks + graph.n_workers))
    keys, at_boundary, depth = [], [], 0  # the batch, block by block
    for start in range(0, roots.size, block):
        forest = _bfs_forest(graph, roots[start:start + block], adjacency)
        slot, edge = forest.slot[forest.in_region], forest.edge[forest.in_region]
        # The batch runs before this block would take it past its edge cap.
        if keys and sum(map(len, keys)) + edge.size > _BLOCK_VISITS // 4:
            iterations = max(iterations, _decode_batch(graph, a, prior, truth.labels,
                                                       (keys, at_boundary, depth), margins))
            keys, at_boundary, depth = [], [], 0
        keys.append(roots[start + slot] * n_edges + edge)
        at_boundary.append(forest.boundary[slot * n_tasks + graph.edges[edge, 0]])
        depth = max(depth, int(forest.region_depth.max()))
    if keys:
        iterations = max(iterations, _decode_batch(graph, a, prior, truth.labels,
                                                   (keys, at_boundary, depth), margins))
    return make_report(margins, iterations, converged=True, max_delta=0.0)


def _decode_batch(graph: AssignmentGraph, a: np.ndarray, prior: ReliabilityPrior,
                  labels: np.ndarray, batch: tuple, margins: np.ndarray) -> int:
    """Decode a batch of regions in one run of BP's unchecked core, of as
    many sweeps as its deepest region needs; write each root's margin into
    ``margins`` and return the sweeps run.  ``batch`` holds the region
    edges' keys and their tasks' boundary flags, as lists of arrays, and
    the deepest region depth.  Zero-mass errors name the edges and tasks
    of ``graph``."""
    keys, at_boundary, depth = batch
    n_tasks, n_workers, n_edges = graph.n_tasks, graph.n_workers, graph.n_edges
    # Root by root in edge order, each node sums its edges as its own tree would.
    key = np.concatenate(keys)
    order = np.argsort(key)
    root, edge = np.divmod(key[order], n_edges)
    task_ids, task_of = np.unique(root * n_tasks + graph.edges[edge, 0], return_inverse=True)
    worker_ids, worker_of = np.unique(root * n_workers + graph.edges[edge, 1],
                                      return_inverse=True)
    regions = AssignmentGraph(task_ids.size, worker_ids.size, column_edges(task_of, worker_of))
    tasks = task_ids % n_tasks
    at_root = task_ids // n_tasks == tasks
    clamped = np.zeros(task_ids.size, dtype=bool)
    clamped[task_of[np.concatenate(at_boundary)[order]]] = True
    field = np.where(clamped, labels[tasks] * np.inf, -0.0)
    # Freed before the BP run, so that its own buffers set the batch's peak.
    del key, order, root, task_ids, task_of, worker_ids, worker_of, clamped
    forest_margins, iterations, _, _ = _run(regions, a[edge], prior, depth // 2 + 2, 0.0,
                                            field, origin=(graph, edge, tasks))
    margins[tasks[at_root]] = forest_margins[at_root]
    return iterations


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
    edge_subset = check_ids(edge_subset, graph.n_edges, "edge subset")
    if np.unique(edge_subset).size != edge_subset.size:
        raise ParameterError("edge subset contains duplicates")
    n = graph.n_tasks
    if n > _GAIN_TASK_GUARD:
        raise SizeError(f"gain enumeration guard is n_tasks <= {_GAIN_TASK_GUARD}")
    if graph.n_edges > _GAIN_EDGE_GUARD:
        raise SizeError(f"gain enumeration guard is |edges| <= {_GAIN_EDGE_GUARD}")
    root = int(check_ids(root, n, "root"))

    # Joint mass of (root label, answer configuration), answers on every
    # edge; a column per configuration, summed over the other labels.
    s = _pm_configs(n)
    configs = _pm_configs(graph.n_edges)
    weights = np.exp(_log_weights(graph, prior, s, np.arange(graph.n_edges), configs.T))
    weights *= 2.0 ** (-n)
    plus_rows = s[:, root] > 0
    mass_plus = weights[plus_rows].sum(axis=0)
    mass_minus = weights[~plus_rows].sum(axis=0)

    # Project full answer configurations onto the subset's coordinates.
    subset_bits = configs[:, np.sort(edge_subset)] > 0
    key = subset_bits @ (1 << np.arange(edge_subset.size))
    n_groups = 2 ** edge_subset.size
    group_plus = np.bincount(key, weights=mass_plus, minlength=n_groups)
    group_minus = np.bincount(key, weights=mass_minus, minlength=n_groups)
    group_best = np.bincount(key, weights=np.minimum(mass_plus, mass_minus),
                             minlength=n_groups)
    delta_full = 0.5 - float(np.sum(group_best))
    delta_subset = 0.5 - float(np.sum(np.minimum(group_plus, group_minus)))
    return delta_full, delta_subset
