"""The peak of traced allocations during one call."""
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
