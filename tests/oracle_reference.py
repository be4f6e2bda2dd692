"""References for the tree oracle, all built on one sequential BFS.

``reference_bfs`` walks one node at a time, as ``extract_bfs_tree``'s
docstring states; the package claims a whole level at once.  On its walk:

- ``reference_region``, a root's region (see ``SpanningTree``);
- ``reference_oracle_task_estimate``, one ``bp_run`` on each root's whole
  spanning tree with every boundary task clamped to its true label, the
  reference for ``oracle_task_estimate``;
- ``khop_subgraph``, the ball of edges within 2k hops of a root, for the
  exact-gain tests.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from crowdbp import AssignmentGraph, ParameterError, bp_run
from crowdbp.bp import make_report
from crowdbp.graph import answer_values


def reference_adjacency(graph: AssignmentGraph) -> tuple[list, list]:
    """Each task's and each worker's (neighbor, edge id) pairs, ascending."""
    adjacent = ([[] for _ in range(graph.n_tasks)], [[] for _ in range(graph.n_workers)])
    for eid, (t, u) in enumerate(graph.edges.tolist()):
        adjacent[0][t].append((u, eid))
        adjacent[1][u].append((t, eid))
    for side in adjacent:
        for lst in side:
            lst.sort()
    return adjacent


def reference_bfs(graph: AssignmentGraph, root: int, adjacent: tuple | None = None):
    """Sequential FIFO BFS from a root task, visiting neighbors in ascending id order.

    ``adjacent`` is ``reference_adjacency(graph)``, built here when not
    given; a caller that walks from many roots builds it once.  Returns the
    tree edge ids and the boundary tasks (the component's tasks on a
    non-tree edge), both ascending, the depth, and each task's and worker's
    hop distance from the root, -1 outside its component.
    """
    if not 0 <= root < graph.n_tasks:
        raise ParameterError(f"root {root} out of range")
    if adjacent is None:
        adjacent = reference_adjacency(graph)
    dist = ([-1] * graph.n_tasks, [-1] * graph.n_workers)
    dist[0][root] = 0
    queue = deque([(0, root)])
    tree = []
    while queue:
        side, node = queue.popleft()
        for other, eid in adjacent[side][node]:
            if dist[1 - side][other] < 0:
                dist[1 - side][other] = dist[side][node] + 1
                tree.append(eid)
                queue.append((1 - side, other))
    dist_task, dist_worker = (np.array(d, dtype=np.int64) for d in dist)
    tree_edges = np.sort(np.array(tree, dtype=np.int64))
    off_tree = np.ones(graph.n_edges, dtype=bool)
    off_tree[tree_edges] = False
    boundary = np.unique(graph.edges[off_tree & (dist_task[graph.edges[:, 0]] >= 0), 0])
    depth = max(dist_task.max(), dist_worker.max(initial=0))
    return tree_edges, boundary, int(depth), dist_task, dist_worker


def reference_region(graph: AssignmentGraph, root: int) -> np.ndarray:
    """Tree edges reachable from the root without passing through a boundary task."""
    tree_edges, boundary, _, _, _ = reference_bfs(graph, root)
    boundary = set(boundary.tolist())
    adjacent: dict[tuple[str, int], list] = {}
    for eid in tree_edges.tolist():
        t, u = graph.edges[eid].tolist()
        adjacent.setdefault(("t", t), []).append((("w", u), eid))
        adjacent.setdefault(("w", u), []).append((("t", t), eid))
    region, seen, stack = [], {("t", root)}, [("t", root)]
    while stack:
        for nxt, eid in adjacent.get(stack.pop(), []):
            if nxt not in seen:
                seen.add(nxt)
                region.append(eid)
                if not (nxt[0] == "t" and nxt[1] in boundary):
                    stack.append(nxt)
    return np.array(sorted(region), dtype=np.int64)


def reference_oracle_task_estimate(graph, answers, prior, truth):
    """Per-root exact tree inference with true labels revealed on the boundary."""
    a = answer_values(answers, graph)
    labels = np.asarray(truth.labels, dtype=np.int64)
    if labels.shape[0] != graph.n_tasks:
        raise ParameterError("truth labels length does not match graph")
    margins = np.zeros(graph.n_tasks)
    iterations = 0
    adjacent = reference_adjacency(graph)
    for root in range(graph.n_tasks):
        tree_edges, boundary, depth, _, _ = reference_bfs(graph, root, adjacent)
        if tree_edges.size == 0:
            continue
        sub = AssignmentGraph(graph.n_tasks, graph.n_workers, graph.edges[tree_edges])
        report = bp_run(
            sub, a[tree_edges], prior,
            k_max=depth // 2 + 2, tol=0.0,
            clamp_tasks=boundary,
            clamp_labels=labels[boundary],
        )
        margins[root] = report.margins[root]
        iterations = max(iterations, report.iterations_run)
    return make_report(margins, iterations, converged=True, max_delta=0.0)


def khop_subgraph(graph: AssignmentGraph, root: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges within 2k hops of the root and the tasks at exactly 2k hops
    that still touch an edge outside the ball.

    Revealing those tasks' labels screens the root off from the rest of the
    graph.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    _, _, _, dist_task, dist_worker = reference_bfs(graph, root)
    edges = graph.edges
    dt = dist_task[edges[:, 0]]
    dw = dist_worker[edges[:, 1]]
    inside = (dt >= 0) & (dt <= 2 * k) & (dw >= 0) & (dw <= 2 * k)
    outside_touch = (dt == 2 * k) & ~inside
    boundary = np.unique(edges[outside_touch, 0])
    return np.flatnonzero(inside), boundary
