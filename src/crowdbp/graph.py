"""Task-worker assignment graphs and the noisy-answer generator.

Each task carries a hidden label in {-1, +1}; each worker answers every
task assigned to her correctly with a fixed per-worker probability drawn
from a reliability prior.  Assignments are bipartite graphs; the regular
generator pairs task and worker half-edge stubs uniformly and repairs
parallel edges with seeded stub swaps; a dense shape that the swaps cannot
settle gets a seeded circulant graph instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ParameterError, SizeError, check_count, check_ids, check_length,
                     check_probabilities, check_signs)
from .segments import _CHUNK, Grouping, build_grouping, edge_blocks
from .seeding import child_seed, rng_from

_REPAIR_ROUNDS = 1000


@dataclass(frozen=True)
class AssignmentGraph:
    """Bipartite assignment between ``n_tasks`` tasks and ``n_workers`` workers.

    ``edges[e] = (task_id, worker_id)``, an (m, 2) array; any other shape
    but an empty one raises ``ParameterError``.  The edge order is
    canonical: answer vectors and message arrays are indexed by it.  Nodes
    with no incident edge are allowed; a repeated (task, worker) pair raises
    ``RepeatedPairsError``, a ``ParameterError``.

    ``edges`` is the given array, made read-only, if it is int64 and
    contiguous, else a read-only column-major copy of it.  The generator,
    the dataset reader and the subsampler build column-major edges:
    ``by_task`` and ``by_worker`` then key by its columns without a copy,
    writable because ``np.bincount`` and ``np.take`` copy read-only indices
    on every call.  Only the given array itself becomes read-only: other
    views of the same memory, such as its base or a slice taken before,
    stay writable, and a write through them changes the graph unchecked.
    """

    n_tasks: int
    n_workers: int
    edges: np.ndarray
    # A writable view of ``edges``, whose columns key the groupings.
    _columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n_tasks = check_count(self.n_tasks, "n_tasks")
        n_workers = check_count(self.n_workers, "n_workers")
        edges = np.asarray(self.edges)
        if not edges.size:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ParameterError(f"edges must have shape (m, 2), got {edges.shape}")
        tasks = check_ids(edges[:, 0], n_tasks, "edge task ids")
        workers = check_ids(edges[:, 1], n_workers, "edge worker ids")
        if edges.dtype != np.int64 or not (edges.flags.c_contiguous or edges.flags.f_contiguous):
            edges = column_edges(tasks, workers)
        repeats = repeated_pairs(tasks, workers, n_tasks, n_workers)
        if repeats.size:
            raise RepeatedPairsError(repeats)
        columns = edges.view()
        edges.setflags(write=False)
        object.__setattr__(self, "n_tasks", n_tasks)
        object.__setattr__(self, "n_workers", n_workers)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_columns", columns)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def by_task(self) -> Grouping:
        return build_grouping(self._columns[:, 0], self.n_tasks)

    @cached_property
    def by_worker(self) -> Grouping:
        return build_grouping(self._columns[:, 1], self.n_workers)

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
    """One answer in {-1, +1} per edge, aligned with ``AssignmentGraph.edges``.

    An int8 or int64 array of signs is held as it is, any other as int64.
    """

    answers: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "answers", check_signs(self.answers, "answers"))


def _check_pair_keys(n_tasks: int, n_workers: int) -> None:
    """Raise ``SizeError`` unless every (task, worker) pair has its own int64 key."""
    if n_tasks * n_workers > 2**63:
        raise SizeError(f"{n_tasks} tasks x {n_workers} workers: (task, worker) "
                        f"pairs do not fit int64 keys")


class RepeatedPairsError(ParameterError):
    """``AssignmentGraph``'s refusal of edges whose (task, worker) pairs
    repeat; ``ids`` holds the edge ids that ``repeated_pairs`` gives."""

    def __init__(self, ids: np.ndarray) -> None:
        super().__init__("duplicate (task, worker) edge")
        self.ids = ids


def repeated_pairs(tasks: np.ndarray, workers: np.ndarray, n_tasks: int,
                   n_workers: int) -> np.ndarray:
    """Ids, ascending, of the entries whose (task, worker) pair already
    appeared at a lower id; ``SizeError`` if ``n_tasks * n_workers > 2**63``.

    A pair can repeat only within its task.  So entries listed task by task
    (task ids that never decrease, as the generator lists them and
    ``crowdbp simulate`` writes them) are checked in blocks of about
    ``_CHUNK`` entries, each cut where the task id changes, and no temporary
    is larger than a block, or than one task's entries if it has more.
    Entries in any other order, such as a shuffled file's, are checked at
    once, through one in-place sort of their int64 pair keys.
    """
    _check_pair_keys(n_tasks, n_workers)
    blocks = _task_blocks(tasks)
    if blocks is None:
        return _later_repeats(tasks, workers, n_workers)
    found = [_later_repeats(tasks[at], workers[at], n_workers) + at.start for at in blocks]
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def _task_blocks(tasks: np.ndarray) -> list[slice] | None:
    """Slices of about ``_CHUNK`` entries that cover ``tasks`` in order, each
    ending at the end of a task's entries; None if the task ids ever decrease."""
    m = tasks.size
    for lo in range(0, m - 1, _CHUNK):
        hi = min(lo + _CHUNK, m - 1)
        if (tasks[lo + 1:hi + 1] < tasks[lo:hi]).any():
            return None
    cuts = [0]
    while cuts[-1] < m:
        at = min(cuts[-1] + _CHUNK, m)
        # Take the rest of the block's last task, a window at a time.
        last = tasks[at - 1]
        while at < m:
            window = tasks[at:at + _CHUNK]
            step = int(np.searchsorted(window, last, side="right"))
            at += step
            if step < window.size:
                break
        cuts.append(at)
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _later_repeats(tasks: np.ndarray, workers: np.ndarray, n_workers: int) -> np.ndarray:
    """``repeated_pairs`` of these entries at once.

    One in-place sort of the pair keys, int64 like the ids, settles the
    common case of no repeat; only a repeat builds them again.
    """
    ordered = _pair_keys(tasks, workers, n_workers)
    ordered.sort()
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    del ordered
    if not repeated.size:
        return np.empty(0, dtype=np.int64)
    keys = _pair_keys(tasks, workers, n_workers)
    # Not np.isin: its sort path imports numpy.ma, 0.8 MB in every forked bench worker.
    # The gather reuses the positions' buffer; "clip" maps past-the-end to the last key.
    at = np.searchsorted(repeated, keys)
    ids = np.flatnonzero(np.take(repeated, at, out=at, mode="clip") == keys)
    later = np.ones(ids.size, dtype=bool)
    later[np.unique(keys[ids], return_index=True)[1]] = False
    return ids[later]


def _pair_keys(tasks: np.ndarray, workers: np.ndarray, n_workers: int) -> np.ndarray:
    """``tasks * n_workers + workers``, summed in the product's buffer:
    NumPy reuses a temporary in place only from 256 KiB up."""
    keys = tasks * n_workers
    keys += workers
    return keys


def column_edges(tasks: np.ndarray, workers: np.ndarray) -> np.ndarray:
    """The (m, 2) edge array of two id columns, column-major, so that each
    column is contiguous and keys a grouping without a copy."""
    return np.stack((tasks, workers)).T


def answer_values(answers: "AnswerMatrix | np.ndarray", graph: AssignmentGraph) -> np.ndarray:
    """The checked int8 or int64 answers, one per edge of ``graph`` in edge order, not copied."""
    if not isinstance(answers, AnswerMatrix):
        answers = AnswerMatrix(answers)
    check_length(answers.answers.shape, graph.n_edges, "answers", "edge")
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
    uniformly chosen partners until the graph is simple.  Each repair round
    is the constructor's own check: ``AssignmentGraph`` either builds the
    graph or refuses it with the ids of the stubs to swap.  Should the budget
    run out, as it can near the complete graph, stub p goes to seeded worker
    ``perm[p % n_workers]``: simple, since r <= n_tasks gives l <= n_workers.

    Raises:
        ParameterError: on non-positive degrees, a non-integral worker count
            or r > n_tasks.
        SizeError: if ``n_tasks * n_workers > 2**63``, before any array is built.
    """
    n_tasks, l, r, n_workers = _regular_shape(n_tasks, l, r)
    m = n_tasks * l
    # The stubs are the two columns of the graph's own column-major edge
    # array.  A reshape of the whole array would copy it, so each contiguous
    # column is filled through its own reshape.
    edges = np.empty((m, 2), dtype=np.int64, order="F")
    task_stubs, worker_stubs = edges[:, 0], edges[:, 1]
    task_stubs.reshape(n_tasks, l)[:] = np.arange(n_tasks)[:, None]
    worker_stubs.reshape(n_workers, r)[:] = np.arange(n_workers)[:, None]
    rng = rng_from(seed)
    rng.shuffle(worker_stubs)

    for _ in range(_REPAIR_ROUNDS):
        try:
            return AssignmentGraph(n_tasks, n_workers, edges)
        except RepeatedPairsError as refusal:
            # Swap each later occurrence of a duplicated pair with a random stub.
            for pos in refusal.ids.tolist():
                partner = int(rng.integers(m))
                worker_stubs[pos], worker_stubs[partner] = worker_stubs[partner], worker_stubs[pos]
    worker_stubs[:] = rng.permutation(n_workers)[np.arange(m) % n_workers]
    return AssignmentGraph(n_tasks, n_workers, edges)


def sample_ground_truth(graph: AssignmentGraph, prior, seed: int) -> GroundTruth:
    """Uniform labels for every task, i.i.d. prior draws for every worker."""
    rng = rng_from(seed)
    labels = rng.integers(0, 2, size=graph.n_tasks) * 2 - 1
    reliabilities = prior.sample(rng, graph.n_workers)
    return GroundTruth(labels, reliabilities)


def sample_answers(graph: AssignmentGraph, truth: GroundTruth, seed: int) -> AnswerMatrix:
    """Each edge reports the true label w.p. the worker's reliability, else its
    flip; the answers are int8.

    The uniform draws, the gathered reliabilities and labels and the signs
    are made ``_CHUNK`` edges at a time: PCG64 gives the same doubles in
    blocks as in one draw, so the answers do not depend on the block size.
    """
    check_length(truth.labels.shape, graph.n_tasks, "truth labels", "task")
    check_length(truth.reliabilities.shape, graph.n_workers, "reliabilities", "worker")
    rng = rng_from(seed)
    labels = truth.labels.astype(np.int8)
    answers = np.empty(graph.n_edges, dtype=np.int8)
    for at in edge_blocks(graph.n_edges, _CHUNK):
        # +1 where the worker is right and -1 where not, in the answers' own bytes.
        signs = answers[at]
        np.less(rng.random(at.stop - at.start), truth.reliabilities[graph.edges[at, 1]],
                out=signs.view(bool))
        signs *= 2
        signs -= 1
        signs *= labels[graph.edges[at, 0]]
    return AnswerMatrix(answers)


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
