"""The one-rule magnetization worker half: the reference for the degree classes.

Every edge folds in every node of the prior's top rule, one node at a
time, over the whole graph: an atom prior's own atoms, or a Beta prior's
rule for the largest degree.  The package gives each degree class its own
Gauss rule and sums reduced rules in blocks.  Labels must be equal and
margins equal within a stated tolerance, and bitwise equal wherever every
class runs the top rule.

``reference_worker_kernel`` has the signature of ``crowdbp.bp._class_kernel``,
the worker half ``bp_run`` builds, so that a test can run ``bp_run`` on it by
patching that name.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from tests.sweep_reference import reference_segment_loo_log1p

_NO_ATOM_YET = -np.finfo(np.float64).max


def reference_worker_llrs(x, graph, a, atom_mu, atom_w):
    ax = a * x
    top, agree, disagree = _NO_ATOM_YET, 0.0, 0.0
    for mu, w in zip(atom_mu, atom_w):
        loo = 0.0 if mu == 0.0 else reference_segment_loo_log1p(mu * ax, graph.by_worker)
        new_top = np.maximum(top, loo)
        rescale = np.exp(top - new_top)
        weight = np.exp(loo - new_top)
        agree = agree * rescale + (w * (1.0 + mu)) * weight
        disagree = disagree * rescale + (w * (1.0 - mu)) * weight
        top = new_top
    with np.errstate(divide="ignore", invalid="ignore"):
        return a * np.log(agree / disagree)


def reference_worker_kernel(graph, a, prior):
    top = prior.n_atoms or int(graph.worker_degrees.max(initial=0)) // 2 + 1
    (atom_mu, atom_w), = prior.gauss_rules([top])
    return partial(reference_worker_llrs, graph=graph, a=a, atom_mu=atom_mu, atom_w=atom_w)
