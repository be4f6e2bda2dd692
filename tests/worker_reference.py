"""The one-rule magnetization worker half: the reference for the degree classes.

Every edge folds in every node of the prior's top rule over the whole graph,
one atom at a time, where the package gives each degree class its own Gauss
rule.  Labels must be equal and margins equal within a stated tolerance.
They are bitwise equal wherever one class holds every worker and runs the
top rule; split classes fold their atoms in blocks, whose sums run in
another order.  ``reference_worker_kernel`` has the signature of
``crowdbp.bp._class_kernel``, so that a test can run ``bp_run`` on it by
patching that name; the function it returns, like the package's, reads the
answer-signed magnetizations ``a * x`` and writes its messages into ``out``
when it is given one.
"""
from __future__ import annotations

import numpy as np

from crowdbp import bp
from tests.sweep_reference import reference_fold


def reference_worker_kernel(graph, a, prior):
    _, (atom_mu, atom_w), _ = bp._class_rules(graph.worker_degrees, prior)

    def worker_half(c, out=None):
        lam = reference_fold(a * c, graph.by_worker, a, atom_mu, atom_w)
        if out is None:
            return lam
        np.copyto(out, lam)
        return out

    return worker_half
