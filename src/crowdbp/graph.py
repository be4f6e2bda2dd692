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

from .errors import GenerationError, ParameterError
from .segments import Grouping, build_grouping
from .seeding import rng_from

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
        edges = np.ascontiguousarray(np.asarray(self.edges, dtype=np.int64).reshape(-1, 2))
        object.__setattr__(self, "edges", edges)
        if self.n_tasks < 0 or self.n_workers < 0:
            raise ParameterError("node counts must be non-negative")
        if edges.size:
            tasks, workers = edges[:, 0], edges[:, 1]
            if tasks.min() < 0 or tasks.max() >= self.n_tasks:
                raise ParameterError("edge task id out of range")
            if workers.min() < 0 or workers.max() >= self.n_workers:
                raise ParameterError("edge worker id out of range")
            encoded = np.sort(tasks * self.n_workers + workers)
            if (encoded[1:] == encoded[:-1]).any():
                raise ParameterError("duplicate (task, worker) edge")
        edges.setflags(write=False)

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
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.size and not np.isin(labels, (-1, 1)).all():
            raise ParameterError("truth labels must be -1 or +1")
        rel = np.asarray(self.reliabilities, dtype=np.float64)
        if rel.size and (rel.min() < 0.0 or rel.max() > 1.0):
            raise ParameterError("reliabilities must lie in [0, 1]")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "reliabilities", rel)


@dataclass(frozen=True)
class AnswerMatrix:
    """One answer in {-1, +1} per edge, aligned with ``AssignmentGraph.edges``."""

    answers: np.ndarray

    def __post_init__(self) -> None:
        answers = np.asarray(self.answers, dtype=np.int64)
        if answers.size and not np.isin(answers, (-1, 1)).all():
            raise ParameterError("answers must be -1 or +1")
        object.__setattr__(self, "answers", answers)


def answer_values(answers: "AnswerMatrix | np.ndarray", graph: AssignmentGraph) -> np.ndarray:
    """The answers as float signs, one per edge of ``graph`` in edge order."""
    if not isinstance(answers, AnswerMatrix):
        answers = AnswerMatrix(np.asarray(answers))
    if answers.answers.shape != (graph.n_edges,):
        raise ParameterError("answers length does not match graph")
    return answers.answers.astype(np.float64)


def generate_regular_bipartite(n_tasks: int, l: int, r: int, seed: int) -> AssignmentGraph:
    """Simple (l, r)-regular bipartite graph via configuration-model pairing.

    Every task has degree ``l`` and every worker degree ``r``; the worker
    count is ``n_tasks * l / r``, which must be integral.  The uniform stub
    pairing almost always contains parallel edges once (l-1)(r-1) is large,
    so duplicates are repaired by swapping the offending worker stubs with
    uniformly chosen partners until the graph is simple.

    Raises:
        ParameterError: on non-positive degrees or a non-integral worker count.
        GenerationError: if the repair budget is exhausted (e.g. r > n_tasks).
    """
    if n_tasks < 1 or l < 1 or r < 1:
        raise ParameterError("n_tasks, l and r must be positive")
    if (n_tasks * l) % r != 0:
        raise ParameterError(
            f"n_tasks * l = {n_tasks * l} is not divisible by r = {r}; "
            "no regular assignment exists"
        )
    n_workers = n_tasks * l // r
    if r > n_tasks:
        raise ParameterError(f"r = {r} exceeds n_tasks = {n_tasks}; simple graph impossible")
    m = n_tasks * l
    task_stubs = np.repeat(np.arange(n_tasks, dtype=np.int64), l)
    rng = rng_from(seed)
    worker_stubs = rng.permutation(np.repeat(np.arange(n_workers, dtype=np.int64), r))

    for _ in range(_REPAIR_ROUNDS):
        encoded = task_stubs * n_workers + worker_stubs
        order = np.argsort(encoded, kind="stable")
        dup = np.flatnonzero(encoded[order][1:] == encoded[order][:-1])
        if dup.size == 0:
            return AssignmentGraph(n_tasks, n_workers, np.column_stack((task_stubs, worker_stubs)))
        # Swap each later occurrence of a duplicated pair with a random stub.
        for pos in np.sort(order[dup + 1]):
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
