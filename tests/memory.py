"""The peak of traced allocations during one call, in bytes or in edge arrays."""
from __future__ import annotations

import tracemalloc


def traced_peak(fn):
    """Run ``fn()`` under ``tracemalloc``; return its peak traced bytes and its result.

    Arrays built before the call, such as a graph's cached groupings, are
    not counted.
    """
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def edge_arrays(fn, graph):
    """Run ``fn()`` like ``traced_peak``; return its peak in float64 arrays of
    ``graph``'s edge count, and its result."""
    peak, result = traced_peak(fn)
    return peak / (8 * graph.n_edges), result
