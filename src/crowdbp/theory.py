"""Closed-form references from the asymptotic analysis: error bounds for
majority vote and agreement-weighted message passing, the chance that a
root's neighborhood is not a tree, and the sweep count the analysis uses.
"""
from __future__ import annotations

import math

from .errors import ParameterError, check_count


def theoretical_bounds(l: int, r: int, mu: float, q: float) -> tuple[float, float | None]:
    """Upper bounds on majority vote and on agreement-weighted message passing.

    The second bound only exists above the spectral barrier
    q^2 (l-1)(r-1) > 1 and is ``None`` below it.
    """
    l, r = check_count(l, "l", 1), check_count(r, "r", 1)
    if not -1.0 <= mu <= 1.0 or not 0.0 <= q <= 1.0:
        raise ParameterError("need mu in [-1, 1] and q in [0, 1]")
    mv_bound = math.exp(-l * mu * mu / 2.0)
    barrier = q * q * (l - 1) * (r - 1)
    if barrier <= 1.0:
        return mv_bound, None
    kos_bound = math.exp(-(l * q / 2.0) * (barrier - 1.0) / (3.0 * barrier + q * (l - 1)))
    return mv_bound, kos_bound


def tree_probability_bound(n_tasks: int, l: int, r: int, k: int) -> float:
    """Upper bound on the chance that a root's 2k-hop neighborhood is not a tree."""
    n_tasks = check_count(n_tasks, "n_tasks", 1)
    l, r, k = check_count(l, "l", 1), check_count(r, "r", 1), check_count(k, "k")
    scale = 3.0 * l * r / n_tasks
    growth = (l - 1) * (r - 1)
    # growth ** (2k) alone can exceed every float; past e the cap decides.
    if growth > 1 and math.log(scale) + 2 * k * math.log(growth) > 1.0:
        return 1.0
    return min(1.0, scale * float(growth) ** (2 * k))


def theory_iterations(n_tasks: int) -> int:
    """The doubly-logarithmic sweep count used by the asymptotic analysis."""
    n_tasks = check_count(n_tasks, "n_tasks", 1)
    if n_tasks <= math.e:
        return 1
    return max(1, math.ceil(math.log(math.log(n_tasks))))
