"""Exact gain of a root decoder that sees some answers and revealed labels.

The paper's lower bound conditions each task on revealed labels, and
``exact_conditional_gain`` checks that argument by brute force on small
instances: it enumerates every label configuration and every answer
configuration on the observed edges, weighs them with the package's
``exact._log_weights``, and splits the joint mass of (root label,
observation) by the revealed labels.  The package's own
``subset_monotonicity_check`` reads both of its gains off one enumeration;
this one enumerates each view separately.
"""
from __future__ import annotations

import numpy as np

from crowdbp import AssignmentGraph, ParameterError, ReliabilityPrior, SizeError
from crowdbp.bp import _pm_configs
from crowdbp.errors import check_ids
from crowdbp.exact import _GAIN_EDGE_GUARD, _GAIN_TASK_GUARD, _log_weights


def exact_conditional_gain(graph: AssignmentGraph, prior: ReliabilityPrior, root: int,
                           edge_ids: np.ndarray, clamp_tasks: np.ndarray) -> float:
    """Exact gain (1/2 minus error probability) of the optimal root decoder
    that observes the answers on ``edge_ids`` and the true labels of
    ``clamp_tasks``, under the full generative model.

    An observation is one answer configuration on ``edge_ids`` with one
    label configuration on ``clamp_tasks``.  Unobserved answers integrate
    out exactly, because each worker's answer distribution is a probability
    measure for any fixed labels.
    """
    edge_ids = check_ids(edge_ids, graph.n_edges, "edge ids")
    if np.unique(edge_ids).size != edge_ids.size:
        raise ParameterError("edge ids contain duplicates")
    clamp_tasks = check_ids(clamp_tasks, graph.n_tasks, "clamp tasks")
    n = graph.n_tasks
    if n > _GAIN_TASK_GUARD:
        raise SizeError(f"gain enumeration guard is n_tasks <= {_GAIN_TASK_GUARD}")
    if edge_ids.size > _GAIN_EDGE_GUARD:
        raise SizeError(f"gain enumeration guard is |edges| <= {_GAIN_EDGE_GUARD}")
    root = int(check_ids(root, n, "root"))
    if np.isin(root, clamp_tasks):
        raise ParameterError("the root's own label cannot be revealed")

    s = _pm_configs(n)
    weights = np.exp(_log_weights(graph, prior, s, edge_ids, _pm_configs(edge_ids.size).T))
    weights *= 2.0 ** (-n)
    # Per (revealed labels, answers): the joint mass with each root label.
    clamp_key = (s[:, clamp_tasks] > 0) @ (1 << np.arange(clamp_tasks.size))
    plus_rows = s[:, root] > 0
    masses = []
    for rows in (plus_rows, ~plus_rows):
        mass = np.zeros((2 ** clamp_tasks.size, weights.shape[1]))
        np.add.at(mass, clamp_key[rows], weights[rows])
        masses.append(mass)
    # 1/2 - sum min(+, -) when the masses sum to 1, but a sum of magnitudes
    # cannot round below 0.
    return 0.5 * float(np.abs(masses[0] - masses[1]).sum())
