"""Hop-distance balls around a root, for the exact-gain tests.

``khop_subgraph`` gives the edges within 2k hops of a root and the ring of
tasks at exactly 2k hops that still answer outside the ball; revealing the
ring's labels screens the root off from the rest of the graph.
"""
from __future__ import annotations

import numpy as np

from crowdbp import AssignmentGraph, ParameterError


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
