"""The allocating one-coin EM loop: the reference for ``em_run``.

Each iteration gathers through the strided ``graph.edges`` columns and
builds fresh edge arrays; the package works in one preallocated edge
buffer over the contiguous grouping keys.  Margins, iteration counts and
``max_delta`` must be bitwise equal.
"""
from __future__ import annotations

import numpy as np

from crowdbp.bp import make_report
from crowdbp.graph import answer_values
from crowdbp.segments import segment_sum

_P_CLAMP = 1e-9


def reference_e_step(graph, a, p_hat):
    log_odds = np.log(p_hat / (1.0 - p_hat))
    scores = segment_sum(a * log_odds[graph.edges[:, 1]], graph.by_task)
    return 1.0 / (1.0 + np.exp(-scores))


def reference_m_step(graph, a, w, alpha, beta):
    agree = np.where(a == 1, w[graph.edges[:, 0]], 1.0 - w[graph.edges[:, 0]])
    soft_matches = segment_sum(agree, graph.by_worker)
    denom = np.maximum(alpha + beta - 2.0 + graph.worker_degrees, _P_CLAMP)
    p_hat = (alpha - 1.0 + soft_matches) / denom
    return np.clip(p_hat, _P_CLAMP, 1.0 - _P_CLAMP)


def reference_em_run(graph, answers, prior_alpha=2.0, prior_beta=1.0, k_max=100, tol=1e-5):
    a = answer_values(answers).astype(np.float64)
    plus_votes = segment_sum(a == 1, graph.by_task)
    w = (1.0 + plus_votes) / (2.0 + graph.task_degrees)
    converged = False
    delta = np.inf
    iterations = 0
    for iteration in range(1, k_max + 1):
        p_hat = reference_m_step(graph, a, w, prior_alpha, prior_beta)
        new_w = reference_e_step(graph, a, p_hat)
        iterations = iteration
        delta = float(np.abs(new_w - w).max(initial=0.0))
        w = new_w
        if delta < tol or delta == 0.0:
            converged = True
            break
    return make_report(2.0 * w - 1.0, iterations, converged, delta)
