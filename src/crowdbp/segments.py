"""Per-node reductions over edge arrays in natural (CSR-keyed) edge order.

Message sweeps repeatedly need "sum the values of the edges incident to
this node" (:func:`segment_sum`, one ``np.bincount`` over the keys), "give
every edge its node's value" (:func:`gather`, one ``np.take`` by them) and
"count this node's selected edges" (:func:`segment_count`).  A sum over
all the other edges of a node is its total less the edge's own value,
which a sweep takes a block at a time.  :func:`segment_add` adds the values
of a block of edges (see :func:`edge_blocks`) into the node sums, so that a
sweep can build those values one block at a time and sum them in the same
bits as :func:`segment_sum`.  A :class:`Grouping` keeps, for one side of
the bipartite graph, the node id of every edge in natural edge order plus
the node degrees, so each costs O(edges) whatever the degree profile.

The stable sort order and CSR offsets (edges listed node by node) are
built on first use only, for the callers that walk nodes one at a time.

The keys are C-contiguous, writable int64: ``np.bincount`` and ``np.take``
copy a read-only index array on every call, 8 bytes per edge each time.
A contiguous writable int64 array, such as a column of a graph's
column-major edges, keys a grouping as it is, shared and not copied.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


# Edges per step of segment_count, at least.
_COUNT_STEP = 2**16
# Edges per block of a block-wise sweep, whose temporaries are sized to one
# block; segment_add takes one block per call.
_CHUNK = 2**14


@dataclass(frozen=True)
class Grouping:
    n_segments: int
    keys: np.ndarray     # (m,) segment id of every edge, natural edge order
    lengths: np.ndarray  # (n_segments,)

    @cached_property
    def order(self) -> np.ndarray:
        """Edge ids sorted by segment key, stable."""
        return np.argsort(self.keys, kind="stable")

    @cached_property
    def offsets(self) -> np.ndarray:
        """(n_segments + 1,) slice bounds into ``order``."""
        return np.concatenate(([0], np.cumsum(self.lengths)))


def build_grouping(keys: np.ndarray, n_segments: int) -> Grouping:
    keys = np.require(keys, np.int64, ["C", "W"])
    lengths = np.bincount(keys, minlength=n_segments).astype(np.int64)
    return Grouping(n_segments, keys, lengths)


def segment_sum(values: np.ndarray, grouping: Grouping) -> np.ndarray:
    """Per segment, the float64 sum of its edges' values, accumulated in edge order."""
    # bincount returns int64 zeros when there are no edges.
    return np.bincount(grouping.keys, weights=np.asarray(values, dtype=np.float64),
                       minlength=grouping.n_segments).astype(np.float64, copy=False)


def edge_blocks(n_edges: int, size: int) -> list[slice]:
    """The edges ``0 .. n_edges - 1`` in order, ``size`` at a time."""
    return [slice(lo, min(lo + size, n_edges)) for lo in range(0, n_edges, size)]


def segment_add(totals: np.ndarray, keys: np.ndarray, values: np.ndarray | float) -> None:
    """Add each of ``values`` into the entry of ``totals`` that its key names,
    in order, in one ``np.add.at`` call: a sweep passes a block at a time.

    ``np.add.at`` adds them one by one in order, as ``np.bincount`` does,
    and like it raises no warning on overflow or inf - inf.  So a sweep that
    adds a grouping's edges a block at a time from edge 0 into float zeros
    gets :func:`segment_sum`'s sums bitwise: each segment's values added in
    edge order from +0.0.  Only a block of values need exist at a time.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(totals, keys, values)


def segment_count(mask: np.ndarray, grouping: Grouping) -> np.ndarray:
    """Per segment, how many of its edges ``mask`` selects, as int64.

    Weighing by ``mask`` would copy it to a float edge array.  This copies
    only the selected keys, a step of edges at a time; ``np.compress``
    selects them 3-4 times as fast as indexing by the mask.  A step spans
    at least twice the segment count, so adding up the steps' counts costs
    at most half an add per edge.
    """
    n = grouping.n_segments
    step = max(_COUNT_STEP, 2 * n)
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, mask.size, step):
        at = slice(lo, lo + step)
        counts += np.bincount(np.compress(mask[at], grouping.keys[at]), minlength=n)
    return counts


def gather(values: np.ndarray, grouping: Grouping, out: np.ndarray | None = None) -> np.ndarray:
    """Per edge, its segment's entry of ``values``, in natural edge order."""
    # The keys are valid; mode="raise" would copy through a temporary.
    return np.take(values, grouping.keys, out=out, mode="clip")
