"""Task-worker assignment graphs and the noisy-answer generator.

Each task carries a hidden label in {-1, +1}; each worker answers every
task assigned to her correctly with a fixed per-worker probability drawn
from a reliability prior.  Assignments are bipartite graphs; the regular
generator pairs task and worker half-edge stubs uniformly and then repairs
parallel edges with seeded stub swaps, so it stays feasible in regimes
where a simple pairing is exponentially unlikely.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (GenerationError, ParameterError, SizeError, check_count, check_ids,
                     check_probabilities, check_signs)
from .segments import Grouping, build_grouping
from .seeding import child_seed, rng_from

_REPAIR_ROUNDS = 1000


@dataclass(frozen=True)
class AssignmentGraph:
    """Bipartite assignment between ``n_tasks`` tasks and ``n_workers`` workers.

    ``edges[e] = (task_id, worker_id)``.  The edge order is canonical: answer
    vectors and message arrays are indexed by it.  Nodes with no incident
    edge are allowed.
    """

    n_tasks: int
    n_workers: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        n_tasks = check_count(self.n_tasks, "n_tasks")
        n_workers = check_count(self.n_workers, "n_workers")
        edges = np.asarray(self.edges).reshape(-1, 2)
        tasks = check_ids(edges[:, 0], n_tasks, "edge task ids")
        workers = check_ids(edges[:, 1], n_workers, "edge worker ids")
        edges = np.ascontiguousarray(edges if edges.dtype == np.int64
                                     else np.column_stack((tasks, workers)))
        if repeated_pairs(tasks, workers, n_tasks, n_workers).size:
            raise ParameterError("duplicate (task, worker) edge")
        edges.setflags(write=False)
        object.__setattr__(self, "n_tasks", n_tasks)
        object.__setattr__(self, "n_workers", n_workers)
        object.__setattr__(self, "edges", edges)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def by_task(self) -> Grouping:
        return build_grouping(self.edges[:, 0], self.n_tasks)

    @cached_property
    def by_worker(self) -> Grouping:
        return build_grouping(self.edges[:, 1], self.n_workers)

    @cached_property
    def task_degrees(self) -> np.ndarray:
        return self.by_task.lengths

    @cached_property
    def worker_degrees(self) -> np.ndarray:
        return self.by_worker.lengths


@dataclass(frozen=True)
class GroundTruth:
    """True task labels (+-1) and per-worker correctness probabilities."""

    labels: np.ndarray
    reliabilities: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", check_signs(self.labels, "truth labels"))
        object.__setattr__(self, "reliabilities",
                           check_probabilities(self.reliabilities, "reliabilities"))


@dataclass(frozen=True)
class AnswerMatrix:
    """One answer in {-1, +1} per edge, aligned with ``AssignmentGraph.edges``."""

    answers: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "answers", check_signs(self.answers, "answers"))


def _check_pair_keys(n_tasks: int, n_workers: int) -> None:
    """Raise ``SizeError`` unless every (task, worker) pair has its own int64 key."""
    if n_tasks * n_workers > 2**63:
        raise SizeError(f"{n_tasks} tasks x {n_workers} workers: (task, worker) "
                        f"pairs do not fit int64 keys")


def repeated_pairs(tasks: np.ndarray, workers: np.ndarray, n_tasks: int,
                   n_workers: int) -> np.ndarray:
    """Ids, ascending, of the entries whose (task, worker) pair already
    appeared at a lower id; ``SizeError`` if ``n_tasks * n_workers > 2**63``.

    One in-place sort of the pair keys, int64 like the ids, settles the
    common case of no repeat; only a repeat builds them again.
    """
    _check_pair_keys(n_tasks, n_workers)
    ordered = tasks * n_workers + workers
    ordered.sort()
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    del ordered
    if not repeated.size:
        return np.empty(0, dtype=np.int64)
    keys = tasks * n_workers + workers
    # Not np.isin: its sort path imports numpy.ma, 0.8 MB in every forked bench worker.
    # The gather reuses the positions' buffer; "clip" maps past-the-end to the last key.
    at = np.searchsorted(repeated, keys)
    ids = np.flatnonzero(np.take(repeated, at, out=at, mode="clip") == keys)
    later = np.ones(ids.size, dtype=bool)
    later[np.unique(keys[ids], return_index=True)[1]] = False
    return ids[later]


def answer_values(answers: "AnswerMatrix | np.ndarray", graph: AssignmentGraph) -> np.ndarray:
    """The checked int64 answers, one per edge of ``graph`` in edge order, not copied."""
    if not isinstance(answers, AnswerMatrix):
        answers = AnswerMatrix(answers)
    if answers.answers.shape != (graph.n_edges,):
        raise ParameterError("answers length does not match graph")
    return answers.answers


def _regular_shape(n_tasks: int, l: int, r: int) -> tuple[int, int, int, int]:
    """``(n_tasks, l, r, n_workers)`` of (l, r)-regular graphs on ``n_tasks``
    tasks, checked; raises as ``generate_regular_bipartite`` documents."""
    n_tasks = check_count(n_tasks, "n_tasks", 1)
    l, r = check_count(l, "l", 1), check_count(r, "r", 1)
    if (n_tasks * l) % r != 0:
        raise ParameterError(f"n_tasks * l = {n_tasks * l} is not divisible by r = {r}; "
                             "no regular assignment exists")
    n_workers = n_tasks * l // r
    if r > n_tasks:
        raise ParameterError(f"r = {r} exceeds n_tasks = {n_tasks}; simple graph impossible")
    _check_pair_keys(n_tasks, n_workers)
    return n_tasks, l, r, n_workers


def generate_regular_bipartite(n_tasks: int, l: int, r: int, seed: int) -> AssignmentGraph:
    """Simple (l, r)-regular bipartite graph via configuration-model pairing.

    Every task has degree ``l`` and every worker degree ``r``; the worker
    count is ``n_tasks * l / r``, which must be integral.  The uniform stub
    pairing almost always contains parallel edges once (l-1)(r-1) is large,
    so duplicates are repaired by swapping the offending worker stubs with
    uniformly chosen partners until the graph is simple.

    Raises:
        ParameterError: on non-positive degrees, a non-integral worker count
            or r > n_tasks.
        SizeError: if ``n_tasks * n_workers > 2**63``, before any array is built.
        GenerationError: if the repair budget is exhausted.
    """
    n_tasks, l, r, n_workers = _regular_shape(n_tasks, l, r)
    m = n_tasks * l
    # The stubs are the two columns of the graph's own edge array.
    edges = np.empty((m, 2), dtype=np.int64)
    edges.reshape(n_tasks, l, 2)[:, :, 0] = np.arange(n_tasks)[:, None]
    edges.reshape(n_workers, r, 2)[:, :, 1] = np.arange(n_workers)[:, None]
    task_stubs, worker_stubs = edges[:, 0], edges[:, 1]
    rng = rng_from(seed)
    rng.shuffle(worker_stubs)

    for _ in range(_REPAIR_ROUNDS):
        repeats = repeated_pairs(task_stubs, worker_stubs, n_tasks, n_workers)
        if not repeats.size:
            return AssignmentGraph(n_tasks, n_workers, edges)
        # Swap each later occurrence of a duplicated pair with a random stub.
        for pos in repeats.tolist():
            partner = int(rng.integers(m))
            worker_stubs[pos], worker_stubs[partner] = worker_stubs[partner], worker_stubs[pos]
    raise GenerationError(
        f"could not build a simple ({l},{r})-regular graph on {n_tasks} tasks "
        f"within {_REPAIR_ROUNDS} repair rounds"
    )


def sample_ground_truth(graph: AssignmentGraph, prior, seed: int) -> GroundTruth:
    """Uniform labels for every task, i.i.d. prior draws for every worker."""
    rng = rng_from(seed)
    labels = rng.integers(0, 2, size=graph.n_tasks) * 2 - 1
    reliabilities = prior.sample(rng, graph.n_workers)
    return GroundTruth(labels, reliabilities)


def sample_answers(graph: AssignmentGraph, truth: GroundTruth, seed: int) -> AnswerMatrix:
    """Each edge reports the true label w.p. the worker's reliability, else its flip."""
    if truth.labels.shape[0] != graph.n_tasks:
        raise ParameterError("truth labels length does not match graph")
    if truth.reliabilities.shape[0] != graph.n_workers:
        raise ParameterError("reliabilities length does not match graph")
    rng = rng_from(seed)
    correct = rng.random(graph.n_edges) < truth.reliabilities[graph.edges[:, 1]]
    signs = np.where(correct, 1, -1)
    return AnswerMatrix(signs * truth.labels[graph.edges[:, 0]])


def draw_instance(n_tasks: int, l: int, r: int, prior, seed: int,
                  *key: int) -> tuple[AssignmentGraph, GroundTruth, AnswerMatrix]:
    """A seeded (l, r)-regular instance: its graph, ground truth and answers.

    Each step draws from its own child seed of ``seed``, keyed by the
    step's name ("graph", "truth", "answers") followed by ``key``, such as
    a bench trial's (point, trial).
    """
    graph = generate_regular_bipartite(n_tasks, l, r, child_seed(seed, "graph", *key))
    truth = sample_ground_truth(graph, prior, child_seed(seed, "truth", *key))
    answers = sample_answers(graph, truth, child_seed(seed, "answers", *key))
    return graph, truth, answers
