"""Shared builders for randomized test instances."""
import numpy as np
import pytest

import crowdbp as cb
from crowdbp import graph as graph_module


def random_atom_prior(rng: np.random.Generator, max_atoms: int = 3,
                      lo: float = 0.05, hi: float = 0.95) -> cb.ReliabilityPrior:
    k = int(rng.integers(1, max_atoms + 1))
    p = rng.uniform(lo, hi, size=k)
    w = rng.dirichlet(np.ones(k))
    return cb.ReliabilityPrior.from_atoms(p, w)


def random_prior(rng: np.random.Generator) -> cb.ReliabilityPrior:
    """Either a small atom mixture or a Beta prior, both well conditioned."""
    if rng.random() < 0.5:
        return random_atom_prior(rng)
    return cb.ReliabilityPrior.from_beta(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))


def random_bipartite_tree(rng: np.random.Generator, max_tasks: int = 8,
                          max_extra: int = 12) -> cb.AssignmentGraph:
    """Random tree grown by attaching each new node to the opposite side."""
    tasks, workers = 1, 0
    edges: list[tuple[int, int]] = []
    for _ in range(int(rng.integers(1, max_extra + 1))):
        if workers and rng.random() < 0.5 and tasks < max_tasks:
            edges.append((tasks, int(rng.integers(workers))))
            tasks += 1
        else:
            edges.append((int(rng.integers(tasks)), workers))
            workers += 1
    return cb.AssignmentGraph(tasks, workers, np.array(edges))


def random_small_graph(rng: np.random.Generator, max_tasks: int = 5,
                       max_workers: int = 3, max_edges: int = 9) -> cb.AssignmentGraph:
    """Small (possibly loopy, possibly disconnected) graph for enumeration."""
    nt = int(rng.integers(2, max_tasks + 1))
    nw = int(rng.integers(1, max_workers + 1))
    edges = set()
    for u in range(nw):
        for t in rng.choice(nt, size=int(rng.integers(1, nt + 1)), replace=False):
            edges.add((int(t), u))
    edges = sorted(edges)[:max_edges]
    return cb.AssignmentGraph(nt, nw, np.array(edges))


def skewed_graph(rng, n_tasks, max_degree, min_degree=1):
    """Heavy-tailed worker degrees in [min_degree, max_degree], edges shuffled."""
    degrees = np.clip(rng.zipf(1.6, size=n_tasks), min_degree, min(max_degree, n_tasks))
    return graph_of_degrees(rng, n_tasks, degrees)


def graph_of_degrees(rng, n_tasks, degrees):
    """Worker u answers ``degrees[u]`` distinct random tasks; edges shuffled."""
    edges = np.concatenate([
        np.column_stack((rng.choice(n_tasks, size=d, replace=False), np.full(d, u)))
        for u, d in enumerate(degrees)])
    return cb.AssignmentGraph(n_tasks, degrees.size, edges[rng.permutation(len(edges))])


def star_graph(n_workers: int) -> cb.AssignmentGraph:
    """One task answered by ``n_workers`` workers."""
    return cb.AssignmentGraph(1, n_workers, np.array([[0, u] for u in range(n_workers)]))


def regular_sh_instance(n_tasks: int = 20_000):
    """A (10, 5)-regular graph, 200k edges by default, with ``sh`` answers.

    Its groupings are built here, so that a traced call does not count them.
    """
    g = cb.generate_regular_bipartite(n_tasks, 10, 5, seed=31)
    truth = cb.sample_ground_truth(g, cb.spammer_hammer(), seed=32)
    answers = cb.sample_answers(g, truth, seed=33)
    g.by_task.keys, g.by_worker.keys
    return g, answers


def skewed_sh_instance():
    """A heavy-tailed graph of 211,116 edges whose degree classes split under
    many-atom priors, with ``sh`` answers.

    Its task and worker keys are built here; the worker-ordered edge list
    that split classes use is not, so a traced call counts it.
    """
    g = skewed_graph(np.random.default_rng(5), 20_000, 100)
    truth = cb.sample_ground_truth(g, cb.spammer_hammer(), seed=1)
    answers = cb.sample_answers(g, truth, seed=2)
    g.by_task.keys, g.by_worker.keys
    return g, answers


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)


@pytest.fixture
def pair_key_searches(monkeypatch) -> list:
    """One entry per call of ``graph.repeated_pairs`` during the test."""
    calls = []
    search = graph_module.repeated_pairs

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(graph_module, "repeated_pairs", counted)
    return calls
