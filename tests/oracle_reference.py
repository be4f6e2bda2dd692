"""Per-root clamped-tree oracle: the reference for ``oracle_task_estimate``.

One BFS over all edges and one ``bp_run`` on the root's whole spanning
tree per root, with every boundary task clamped to its true label.  The
package decodes all roots of a block at once on their local regions; its
labels must equal these and its margins agree within 1e-12.
"""
from __future__ import annotations

import numpy as np

from crowdbp import AssignmentGraph, ParameterError, bp_run
from crowdbp.bp import make_report
from crowdbp.exact import SpanningTree
from crowdbp.graph import answer_values


def reference_bfs_tree(graph, root: int) -> SpanningTree:
    """Deterministic BFS spanning tree: FIFO queue, neighbors by ascending id.

    Implemented level-synchronously: every undiscovered node adjacent to the
    current level is claimed by its earliest-queued neighbor, and the new
    level is queued sorted by (claiming parent's position, node id), which
    reproduces the sequential ascending-id BFS exactly.  Its ``region_edges``
    are the whole tree.
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
                        boundary_tasks=boundary_tasks, depth=depth,
                        region_edges=tree_edges)


def reference_oracle_task_estimate(graph, answers, prior, truth):
    """Per-root exact tree inference with true labels revealed on the boundary."""
    a = answer_values(answers, graph)
    labels = np.asarray(truth.labels, dtype=np.int64)
    if labels.shape[0] != graph.n_tasks:
        raise ParameterError("truth labels length does not match graph")
    margins = np.zeros(graph.n_tasks)
    iterations = 0
    for root in range(graph.n_tasks):
        tree = reference_bfs_tree(graph, root)
        if tree.tree_edges.size == 0:
            continue
        sub = AssignmentGraph(graph.n_tasks, graph.n_workers, graph.edges[tree.tree_edges])
        report = bp_run(
            sub, a[tree.tree_edges], prior,
            k_max=tree.depth // 2 + 2, tol=0.0,
            clamp_tasks=tree.boundary_tasks,
            clamp_labels=labels[tree.boundary_tasks],
        )
        margins[root] = report.margins[root]
        iterations = max(iterations, report.iterations_run)
    return make_report(margins, iterations, converged=True, max_delta=0.0)
