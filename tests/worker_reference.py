"""The one-rule magnetization worker half: the reference for the degree classes.

Every edge folds in every node of the prior's top rule over the whole graph,
one atom at a time, where the package gives each degree class its own Gauss
rule.  Labels must be equal and margins equal within a stated tolerance.
They are bitwise equal wherever one class holds every worker and runs the
top rule; split classes fold their atoms in blocks, whose sums run in
another order.  ``reference_worker_kernel`` has the signature of
``crowdbp.bp._class_kernel``, so that a test can run ``bp_run`` on it by
patching that name; the function it returns, like the package's, reads the
answer-signed magnetizations ``a * x``, writes its messages over the
previous ones, ``lam``, and returns the largest change of tanh(llr / 2),
NaN if a message is NaN.
"""
from __future__ import annotations

import numpy as np

from crowdbp import bp
from tests.sweep_reference import reference_fold


def reference_worker_kernel(graph, a, prior):
    _, (atom_mu, atom_w), _ = bp._class_rules(graph.worker_degrees, prior)

    def worker_half(c, lam):
        new = reference_fold(a * c, graph.by_worker, a, atom_mu, atom_w)
        change = float(np.abs(np.tanh(new / 2.0) - np.tanh(lam / 2.0)).max(initial=0.0))
        np.copyto(lam, new)
        return change

    return worker_half
