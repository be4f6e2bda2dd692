"""The peak of traced allocations during one call, in bytes or in edge arrays."""
from __future__ import annotations

import sys
import tracemalloc


def traced_peak(fn):
    """Run ``fn()`` under ``tracemalloc``; return its peak traced bytes and its result.

    Arrays built before the call, such as a graph's cached groupings, are
    not counted.  Nor are modules that the call imports for the first time:
    when it adds any to ``sys.modules``, it runs a second time and that
    reading is returned, so the reading does not depend on which tests ran
    before it.
    """
    for _ in range(2):
        loaded = set(sys.modules)
        tracemalloc.start()
        try:
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if sys.modules.keys() <= loaded:
            break
    return peak, result


def edge_arrays(fn, graph):
    """Run ``fn()`` like ``traced_peak``; return its peak in float64 arrays of
    ``graph``'s edge count, and its result."""
    peak, result = traced_peak(fn)
    return peak / (8 * graph.n_edges), result
