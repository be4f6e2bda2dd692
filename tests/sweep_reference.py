"""The allocating bp sweep and kos step: the references for ``bp_run``, ``ebp_run``
and ``kos_run``.

Every half-sweep here builds fresh edge arrays, as the decoders did before
they kept a fixed set of edge buffers per run and wrote every sweep into
them, and folds every degree class one atom at a time, each edge's
leave-one-out log product its worker's sum of logs less its own.  Where
one class holds every worker, the buffered decoders keep the operation
order, so margins, iteration counts, ``converged`` and ``max_delta`` must
be bitwise equal; kos is always bitwise.  Where the classes split, bp
takes each worker's log sums from products of up to 16 factors, weighs
the atoms per worker and divides each edge's own factor out, so its sums
run in another order and :func:`assert_outcomes_match` allows rounding
there: see its docstring.

The degree classes, their Gauss rules and the stop rule are the package's
own; what is kept here is how each sweep computes its arrays.
"""
from __future__ import annotations

import numpy as np

from crowdbp import bp
from crowdbp.bp import _check_beliefs, _check_edges, _iterate, make_report
from crowdbp.graph import answer_values
from crowdbp.priors import empirical_prior, spammer_hammer
from crowdbp.segments import build_grouping, segment_sum
from crowdbp.seeding import rng_from

_NO_ATOM_YET = -np.finfo(np.float64).max
# Margins and max_delta of split degree classes agree with the reference to
# this absolute tolerance.
ATOL = 1e-12


def split_path(graph, a, prior):
    """Whether bp's worker half splits ``graph``'s workers into degree classes,
    read from the kernel it builds."""
    kernel = bp._class_kernel(graph, np.asarray(a), prior).func
    assert kernel in (bp._worker_llrs, bp._class_worker_llrs)
    return kernel is bp._class_worker_llrs


def _outcome_bytes(outcome):
    if isinstance(outcome, str):
        return outcome
    return (outcome.margins.tobytes(), outcome.labels.tobytes(), outcome.iterations_run,
            outcome.converged, outcome.max_delta)


def assert_outcomes_match(got, want, split):
    """Two runs' reports, or their degeneracy error texts, are equal: bitwise
    where one degree class holds every worker, and where the classes
    ``split`` the same error text, or margins and ``max_delta`` within
    ``ATOL``, labels equal wherever |margin| > ``ATOL``, and the same sweep
    count and ``converged``."""
    if not split or isinstance(got, str) or isinstance(want, str):
        assert _outcome_bytes(got) == _outcome_bytes(want)
        return
    np.testing.assert_allclose(got.margins, want.margins, rtol=0, atol=ATOL)
    assert abs(got.max_delta - want.max_delta) <= ATOL
    decisive = np.abs(want.margins) > ATOL
    np.testing.assert_array_equal(got.labels[decisive], want.labels[decisive])
    assert (got.iterations_run, got.converged) == (want.iterations_run, want.converged)


def reference_signed_sum(llr, grouping):
    n = grouping.n_segments
    pos = np.bincount(grouping.keys, np.maximum(llr, 0.0), n)
    neg = np.bincount(grouping.keys, np.minimum(llr, 0.0), n)
    return pos + neg


def reference_certain(n_plus, n_minus):
    return np.where(n_plus > 0, np.inf, 0.0) + np.where(n_minus > 0, -np.inf, 0.0)


def reference_task_llrs(lam, grouping):
    with np.errstate(invalid="ignore"):
        total = reference_signed_sum(lam, grouping)
        if np.isfinite(total).all():
            return total, total[grouping.keys] - lam
        plus = lam == np.inf
        minus = lam == -np.inf
        finite = np.where(plus | minus, 0.0, lam)
        total = reference_signed_sum(finite, grouping)
        n_plus = np.bincount(grouping.keys, plus, grouping.n_segments)
        n_minus = np.bincount(grouping.keys, minus, grouping.n_segments)
        others = total[grouping.keys] - finite + reference_certain(
            n_plus[grouping.keys] - plus, n_minus[grouping.keys] - minus)
        return total + reference_certain(n_plus, n_minus), others


def reference_segment_loo_log1p(y, grouping):
    keys, n = grouping.keys, grouping.n_segments
    with np.errstate(divide="ignore"):
        logs = np.log1p(y)
    zero = logs == -np.inf
    if not zero.any():
        return np.bincount(keys, logs, n)[keys] - logs
    logs[zero] = 0.0
    loo = np.bincount(keys, logs, n)[keys] - logs
    loo[np.bincount(keys, zero, n)[keys] - zero > 0] = -np.inf
    return loo


def reference_fold(x, grouping, a, atom_mu, atom_w):
    ax = a * x
    top, agree, disagree = _NO_ATOM_YET, 0.0, 0.0
    for mu, w in zip(atom_mu, atom_w):
        loo = 0.0 if mu == 0.0 else reference_segment_loo_log1p(mu * ax, grouping)
        new_top = np.maximum(top, loo)
        rescale = np.exp(top - new_top)
        weight = np.exp(loo - new_top)
        agree = agree * rescale + (w * (1.0 + mu)) * weight
        disagree = disagree * rescale + (w * (1.0 - mu)) * weight
        top = new_top
    with np.errstate(divide="ignore", invalid="ignore"):
        return a * np.log(agree / disagree)


def reference_prior_mean_llr(atom_mu, atom_w):
    one_edge = build_grouping(np.zeros(1, dtype=np.int64), 1)
    return float(reference_fold(np.zeros(1), one_edge, np.ones(1), atom_mu, atom_w)[0])


def reference_class_kernel(graph, a, prior):
    """The worker half as a function of ``x``, one fold per degree class."""
    n_atoms, (atom_mu, atom_w), classes = bp._class_rules(graph.worker_degrees, prior)
    if [k for k, _, _ in classes] == [n_atoms]:
        return lambda x: reference_fold(x, graph.by_worker, a, atom_mu, atom_w)
    prior_mean = reference_prior_mean_llr(atom_mu, atom_w)
    keys = graph.by_worker.keys
    parts = []
    for _, (mu, w), members in classes:
        edges = np.flatnonzero(members[keys])
        compact = np.cumsum(members) - 1
        grouping = build_grouping(compact[keys[edges]], int(members.sum()))
        parts.append((edges, grouping, a[edges], mu, w,
                      prior_mean - reference_prior_mean_llr(mu, w)))

    def worker_half(x):
        lam = np.empty(graph.n_edges)
        for edges, grouping, a_class, mu, w, shift in parts:
            llr = reference_fold(x[edges], grouping, a_class, mu, w)
            llr += a_class * shift
            lam[edges] = llr
        return lam

    return worker_half


def reference_bp_run(graph, answers, prior, k_max=100, tol=1e-5, *,
                     clamp_tasks=None, clamp_labels=None):
    a = answer_values(answers, graph)
    worker_half = reference_class_kernel(graph, a, prior)
    clamped = clamp_tasks is not None and len(clamp_tasks) > 0
    pin_edges, pin_llr = np.empty(0, dtype=np.int64), np.empty(0)
    if clamped:
        clamp_tasks = np.asarray(clamp_tasks, dtype=np.int64)
        clamp_labels = np.asarray(clamp_labels, dtype=np.int64)
        pinned = np.full(graph.n_tasks, np.nan)
        pinned[clamp_tasks] = np.where(clamp_labels == 1, np.inf, -np.inf)
        per_edge = pinned[graph.by_task.keys]
        pin_edges = np.flatnonzero(~np.isnan(per_edge))
        pin_llr = per_edge[pin_edges]

    def sweep(state):
        lam, x_prev, y_prev = state
        _, nu = reference_task_llrs(lam, graph.by_task)
        nu[pin_edges] = pin_llr
        _check_edges(nu, graph, "task message")
        x = np.tanh(nu / 2.0)
        lam = worker_half(x)
        _check_edges(lam, graph, "worker message")
        y = np.tanh(lam / 2.0)
        delta = 0.5 * max(float(np.abs(x - x_prev).max(initial=0.0)),
                          float(np.abs(y - y_prev).max(initial=0.0)))
        return (lam, x, y), delta

    x0 = np.zeros(graph.n_edges)
    x0[pin_edges] = np.tanh(pin_llr / 2.0)
    (lam, _, _), iterations, converged, delta = _iterate(
        sweep, (np.zeros(graph.n_edges), x0, np.zeros(graph.n_edges)), k_max, tol)
    total, _ = reference_task_llrs(lam, graph.by_task)
    margins = np.tanh(total / 2.0)
    if clamped:
        margins[clamp_tasks] = clamp_labels.astype(np.float64)
    _check_beliefs(margins)
    return make_report(margins, iterations, converged, delta)


def reference_ebp_prior(graph, a, labels):
    """The empirical prior of each worker's smoothed agreement with ``labels``."""
    matches = np.bincount(graph.by_worker.keys, a == labels[graph.by_task.keys],
                          graph.n_workers)
    p_hat = (0.25 + matches) / (0.5 + graph.worker_degrees)
    return empirical_prior(p_hat) if p_hat.size else spammer_hammer()


def reference_ebp_run(graph, answers, rounds=2, k_max=100, tol=1e-5):
    a = answer_values(answers, graph)
    # Majority vote, ties to +1.
    labels = np.where(np.bincount(graph.by_task.keys, a, graph.n_tasks) >= 0, 1, -1)
    for _ in range(rounds):
        prior = reference_ebp_prior(graph, a, labels)
        report = reference_bp_run(graph, answers, prior, k_max, tol)
        labels = report.labels
    return report


def reference_unit(v):
    norm = np.sqrt(np.einsum("i,i->", v, v))
    return v / norm if norm > 0 else v


def reference_unit_np_sum(v):
    """The unit vector as kos took it before its norm became an ``np.einsum``
    dot: the root of ``np.sum``'s pairwise sum of the squares."""
    norm = np.sqrt(np.sum(v * v))
    return v / norm if norm > 0 else v


def reference_kos_run(graph, answers, k_max=100, seed=0, tol=1e-5, unit=reference_unit):
    a = answer_values(answers, graph)
    tasks, workers = graph.by_task, graph.by_worker

    def step(prev_y):
        ay = a * prev_y
        x = segment_sum(ay, tasks)[tasks.keys] - ay
        ax = a * x
        y = unit(segment_sum(ax, workers)[workers.keys] - ax)
        return y, float(np.abs(y - prev_y).max(initial=0.0))

    y, iterations, converged, delta = _iterate(
        step, unit(rng_from(seed).standard_normal(graph.n_edges) + 1.0), k_max, tol)
    scores = segment_sum(a * y, graph.by_task)
    peak = np.abs(scores).max(initial=0.0)
    margins = scores / peak if peak > 0 else scores
    return make_report(margins, iterations, converged, delta)
