"""Sum-product message passing on the task-worker factor graph.

Every message is one log-likelihood ratio (LLR), log m(+1) - log m(-1),
per edge and direction, stored in natural edge order.  Sums over a node's
edges are one ``np.bincount`` over that side's keys and broadcasts back
are gathers (see :mod:`.segments`), so a sweep costs O(edges) whatever
the degree profile.  Sweeps are synchronous: all task-to-worker messages
from the previous worker-to-task messages, then all worker-to-task
messages from the fresh task-to-worker ones.  ``bp_run`` is one sweep
function handed to :func:`_iterate`, the loop and stop rule that the kos
and EM decoders of :mod:`.estimators` share.

Task half: nu[i->u] = L_i - lam[u->i] with L_i = sum_u lam[u->i].  The
positive and negative parts of L_i are summed separately, so incoming
LLRs that mirror each other cancel to exactly 0 and flipping every
answer negates every message bitwise.  Infinite LLRs (clamped tasks,
workers whose reliability prior puts all mass on p = 0 or 1) are counted
per task rather than subtracted; a message whose other inputs include
both +inf and -inf has zero mass and raises a degeneracy error naming
the edge.

Worker half: with incoming magnetizations x_j = tanh(nu[j->u] / 2) and
mu = 2p - 1 for each support atom p (weight w) of the reliability prior,

    m[u->i](s) ∝ sum_mu w (1 + A_iu mu s) prod_{j != i} (1 + A_ju mu x_j)

which reproduces the literal sum over neighbor label configurations
weighted by f(c, r) exactly.  The leave-one-out log product is
S_mu[u] - log(1 + mu A_iu x_i), with S_mu the per-worker sum of those
logs; factors that are exactly 0 (mu = ±1 against a certain message) are
counted per worker instead of divided out.  Atoms are folded in one at a
time under a running per-edge maximum, so memory stays O(edges) for any
atom count.  The ``naive`` kernel evaluates the configuration sum
directly and exists as the independent cross-check.

Degree classes: each atom costs a pass over the edges it is applied to,
but a worker of degree r does not need every atom.  Both lanes of the
sum above are polynomials of degree r in mu, and a k-node Gauss rule of
the prior integrates every polynomial of degree <= 2k - 1 exactly, so
r//2 + 1 nodes give that worker's messages exactly (to rounding).
Workers are put in power-of-two classes by that node count k.  Workers
that need at least the prior's K distinct atoms, or whose k times K
exceeds the edge count, share one class that keeps the atoms; every
other class runs the Gauss rule of its largest count
(:func:`.gauss_rules`).  Building a k-node rule takes a k x K Lanczos
basis and O(k^2 K) work, so that cap keeps memory O(edges) here too.  A
class whose saving over the next larger class, in atom-edge passes, is
below a fixed per-class cost folds into it.  When the prior's atoms are
left alone on the whole graph they run with no gather or scatter,
exactly as before the classes existed, so regular graphs under ``sh``
(worker degree >= 2) or ``ash`` (>= 4) and small graphs keep their
margins bitwise.  Otherwise each class runs on its own edges, and its
messages are shifted so that a worker whose other answers carry no
information (x = 0) sends bitwise the atoms' prior-mean LLR, whichever
class it is in; a tie between such workers stays exact.

The pair-valued :class:`BeliefState` API (``bp_init``,
``bp_update_*_messages``, ``bp_compute_beliefs``) runs the same core and
converts between normalized pairs and LLRs at its boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import NumericDegeneracyError, ParameterError, SizeError
from .graph import AnswerMatrix, AssignmentGraph, answer_values
from .priors import FactorTable, ReliabilityPrior, gauss_rules
from .segments import Grouping, build_grouping, segment_loo_log1p

_NAIVE_DEGREE_GUARD = 14
# What running a degree class on its own costs per sweep beyond its atom
# passes, in atom-edge passes (about 15 ns each): the gather and scatter
# of its edges and numpy's fixed per-call cost (40-60 us), plus building
# its Gauss rule, spread over the sweeps of a run.  A class that saves
# less than this over the next larger class is folded into it.
_CLASS_OVERHEAD_EDGES = 10_000
# Start of the running maximum over atoms: finite, so that subtracting it
# from a -inf log product gives -inf rather than NaN.
_NO_ATOM_YET = -np.finfo(np.float64).max


@dataclass(frozen=True)
class BeliefState:
    """Message pairs per edge in both directions plus current task beliefs."""

    msg_task_to_worker: np.ndarray  # (m, 2)
    msg_worker_to_task: np.ndarray  # (m, 2)
    beliefs: np.ndarray             # (n_tasks, 2)
    iteration: int


@dataclass(frozen=True)
class EstimateReport:
    """Decoded labels with margins in [-1, 1] and run diagnostics.

    ``labels[i] == +1`` exactly when ``margins[i] >= 0``; ties decode to +1.
    """

    labels: np.ndarray
    margins: np.ndarray
    iterations_run: int
    converged: bool
    max_delta: float


def decode_labels(margins: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(margins) >= 0.0, 1, -1).astype(np.int64)


def make_report(margins: np.ndarray, iterations_run: int, converged: bool,
                max_delta: float) -> EstimateReport:
    margins = np.asarray(margins, dtype=np.float64)
    return EstimateReport(decode_labels(margins), margins, iterations_run,
                          converged, float(max_delta))


def _iterate(step, state, k_max: int, tol: float) -> tuple[object, int, bool, float]:
    """Apply ``step(state) -> (state, delta)`` until ``delta`` falls below ``tol``.

    Runs at most ``k_max`` steps.  An exact fixed point (``delta == 0``)
    always counts as converged, so ``tol=0`` runs the full budget unless
    the state stops moving entirely.  Returns the last state, the steps
    run, whether they converged and the last ``delta``.  Pass the start
    state inline: the driver drops it after the first step, while a name
    for it in the caller would keep its arrays alive for the whole run.
    """
    if k_max < 1:
        raise ParameterError("k_max must be at least 1")
    if tol < 0:
        raise ParameterError("tol must be non-negative")
    delta = math.inf
    for iteration in range(1, k_max + 1):
        state, delta = step(state)
        if delta < tol or delta == 0.0:
            return state, iteration, True, delta
    return state, k_max, False, delta


# -- LLR core -----------------------------------------------------------------

def _check_edges(llr: np.ndarray, graph: AssignmentGraph, what: str) -> None:
    """NaN marks a message with zero mass on both labels."""
    bad = np.isnan(llr)
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        task, worker = graph.edges[idx]
        raise NumericDegeneracyError(
            f"{what} on edge {idx} (task {task}, worker {worker}) has zero mass"
        )


def _check_beliefs(belief: np.ndarray) -> None:
    bad = np.isnan(belief)
    if bad.any():
        raise NumericDegeneracyError(
            f"belief for task {int(np.flatnonzero(bad)[0])} has zero mass")


def _signed_sum(llr: np.ndarray, grouping: Grouping) -> np.ndarray:
    """Per segment, the positive parts' sum plus the negative parts' sum.

    Both parts accumulate in edge order, so a segment whose negative LLRs
    mirror its positive ones (same magnitudes, same relative order; equal
    magnitudes in any order) sums to exactly 0.
    """
    n = grouping.n_segments
    pos = np.bincount(grouping.keys, np.maximum(llr, 0.0), n)
    neg = np.bincount(grouping.keys, np.minimum(llr, 0.0), n)
    return pos + neg


def _certain(n_plus: np.ndarray, n_minus: np.ndarray) -> np.ndarray:
    """+inf, -inf, 0 or NaN (both signs: zero mass) from infinity counts."""
    return np.where(n_plus > 0, np.inf, 0.0) + np.where(n_minus > 0, -np.inf, 0.0)


def _task_llrs(lam: np.ndarray, grouping: Grouping) -> tuple[np.ndarray, np.ndarray]:
    """Per task the total incoming LLR; per edge that total minus the edge's own.

    NaN marks zero mass.
    """
    with np.errstate(invalid="ignore"):
        total = _signed_sum(lam, grouping)
        if np.isfinite(total).all():
            return total, total[grouping.keys] - lam
        # Certain messages: count the infinities instead of subtracting them.
        plus = lam == np.inf
        minus = lam == -np.inf
        finite = np.where(plus | minus, 0.0, lam)
        total = _signed_sum(finite, grouping)
        n_plus = np.bincount(grouping.keys, plus, grouping.n_segments)
        n_minus = np.bincount(grouping.keys, minus, grouping.n_segments)
        others = total[grouping.keys] - finite + _certain(
            n_plus[grouping.keys] - plus, n_minus[grouping.keys] - minus)
        return total + _certain(n_plus, n_minus), others


def _worker_llrs(x: np.ndarray, grouping: Grouping, a: np.ndarray,
                 atom_mu: np.ndarray, atom_w: np.ndarray) -> np.ndarray:
    """Worker-to-task LLRs from task-to-worker magnetizations ``x``; NaN marks zero mass.

    ``grouping`` groups the edges by worker; the rule (``atom_mu``,
    ``atom_w``) must be exact up to every worker's degree.
    """
    ax = a * x
    # Per edge: the largest log leave-one-out product so far and the two
    # lanes sum_mu w (1 ± mu) exp(loo_mu - top).  A mu = 0 atom has the
    # product 1 on every edge and stays scalar.
    top, agree, disagree = _NO_ATOM_YET, 0.0, 0.0
    for mu, w in zip(atom_mu, atom_w):
        loo = 0.0 if mu == 0.0 else segment_loo_log1p(mu * ax, grouping)
        new_top = np.maximum(top, loo)
        rescale = np.exp(top - new_top)
        weight = np.exp(loo - new_top)
        agree = agree * rescale + (w * (1.0 + mu)) * weight
        disagree = disagree * rescale + (w * (1.0 - mu)) * weight
        top = new_top
    with np.errstate(divide="ignore", invalid="ignore"):
        return a * np.log(agree / disagree)


def _worker_llrs_naive(x: np.ndarray, graph: AssignmentGraph, a: np.ndarray,
                       table: FactorTable) -> np.ndarray:
    degrees = graph.worker_degrees
    if degrees.size and degrees.max() > _NAIVE_DEGREE_GUARD:
        raise SizeError(
            f"naive kernel enumerates 2^(r-1) configurations; worker degree "
            f"{int(degrees.max())} exceeds the guard {_NAIVE_DEGREE_GUARD}"
        )
    plus_x, minus_x = (1.0 + x) / 2.0, (1.0 - x) / 2.0
    grouping = graph.by_worker
    lam = np.empty(graph.n_edges)
    for u in range(graph.n_workers):
        eids = grouping.order[grouping.offsets[u]:grouping.offsets[u + 1]]
        r = eids.size
        if r == 0:
            continue
        configs = _pm_configs(r - 1)
        for pos, e in enumerate(eids):
            others = np.delete(eids, pos)
            probs = np.where(configs == 1, plus_x[others], minus_x[others])
            prod_m = probs.prod(axis=1)
            base_c = (configs == a[others]).sum(axis=1)
            plus = np.exp(table.log_values[r, base_c + (a[e] == 1)]) @ prod_m
            minus = np.exp(table.log_values[r, base_c + (a[e] == -1)]) @ prod_m
            with np.errstate(divide="ignore", invalid="ignore"):
                lam[e] = np.log(plus) - np.log(minus)
    return lam


def _pm_configs(k: int) -> np.ndarray:
    bits = (np.arange(2**k)[:, None] >> np.arange(k)[None, :]) & 1
    return (2 * bits - 1).astype(np.int64)


def _worker_kernel(kernel: str, graph: AssignmentGraph, a: np.ndarray,
                   prior: ReliabilityPrior | None, factors: FactorTable | None,
                   r_max: int):
    """The worker half-sweep, magnetizations -> LLRs, of the named kernel."""
    if kernel == "magnetization":
        if factors is None:
            atom_p, atom_w = prior.support_atoms(r_max)
        else:
            atom_p, atom_w = factors.atom_p, factors.atom_w
        return _class_kernel(graph, a, 2.0 * np.asarray(atom_p) - 1.0,
                             np.asarray(atom_w))
    if kernel == "naive":
        # The only reader of the literal factor table f(c, r).
        table = factors if factors is not None else FactorTable.build(prior, r_max)
        return partial(_worker_llrs_naive, graph=graph, a=a, table=table)
    raise ParameterError(f"unknown kernel {kernel!r}")


def _degree_classes(degrees: np.ndarray, n_atoms: int) -> list[tuple[int, np.ndarray]]:
    """Node count and member mask of each worker class, ascending by count.

    A class at ``n_atoms`` keeps the prior's atoms.  Workers without edges
    belong to no class.
    """
    n_edges = int(degrees.sum())
    if (n_atoms - 1) * n_edges < _CLASS_OVERHEAD_EDGES:
        # No class can save its cost, so all fold into the atoms' class.
        # This spares the small graphs of the bench and the oracle's forests
        # about 50 us per call, 3% of a sweep-small pass.
        return [(n_atoms, degrees > 0)]
    need = degrees // 2 + 1
    # A k-node rule is built from a k x K Lanczos basis in O(k^2 K) work.
    # Needs with k K above the edge count keep the atoms, so the basis is
    # never larger than one edge array and its build costs at most k flops
    # per edge, well under one sweep of the K atoms.
    keep_atoms = (need >= n_atoms) | (need * n_atoms > n_edges)
    # Bucket b holds the needs in [2^(b-1), 2^b); the atoms' class is a
    # bucket above every other.
    full = 64
    bucket = np.where(keep_atoms, full, np.frexp(need)[1])
    bucket[degrees == 0] = -1
    classes = []
    for b in np.flatnonzero(np.bincount(bucket[bucket >= 0], minlength=full + 1)):
        members = bucket == b
        k = n_atoms if b == full else int(need[members].max())
        classes.append([k, int(degrees[members].sum()), members])
    if not classes or classes[-1][0] < n_atoms:
        classes.append([n_atoms, 0, np.zeros(degrees.size, dtype=bool)])
    kept = []
    for small, large in zip(classes, classes[1:]):
        if (large[0] - small[0]) * small[1] < _CLASS_OVERHEAD_EDGES:
            large[1] += small[1]
            large[2] = large[2] | small[2]
        else:
            kept.append(small)
    if classes[-1][1] or not kept:
        kept.append(classes[-1])
    return [(k, members) for k, _, members in kept]


def _class_kernel(graph: AssignmentGraph, a: np.ndarray, atom_mu: np.ndarray,
                  atom_w: np.ndarray):
    """The magnetization worker half, each degree class on its own Gauss rule."""
    n_atoms = int(np.count_nonzero(np.diff(np.sort(atom_mu)))) + 1
    classes = _degree_classes(graph.worker_degrees, n_atoms)
    if [k for k, _ in classes] == [n_atoms]:
        # The prior's own atoms on the whole graph run with no gather or
        # scatter, as they always have, so those margins stay bitwise the same.
        return partial(_worker_llrs, grouping=graph.by_worker, a=a, atom_mu=atom_mu,
                       atom_w=atom_w)
    reduced = [k for k, _ in classes if k < n_atoms]
    rules = dict(zip(reduced, gauss_rules(atom_mu, atom_w, reduced)))
    rules[n_atoms] = (atom_mu, atom_w)
    prior_mean = _prior_mean_llr(atom_mu, atom_w)
    keys = graph.by_worker.keys
    parts = []
    for k, members in classes:
        edges = np.flatnonzero(members[keys])
        compact = np.cumsum(members) - 1
        grouping = build_grouping(compact[keys[edges]], int(members.sum()))
        mu, w = rules[k]
        # Every rule gives a worker whose other answers carry no information
        # the LLR of the prior's mean, up to rounding; the shift makes it the
        # atoms' value bitwise, so ties between such workers stay exact.
        shift = prior_mean - _prior_mean_llr(mu, w)
        parts.append((edges, grouping, a[edges], mu, w, shift))
    return partial(_class_worker_llrs, parts=parts, n_edges=graph.n_edges)


def _prior_mean_llr(atom_mu: np.ndarray, atom_w: np.ndarray) -> float:
    """What the rule sends for a +1 answer whose other answers have x = 0."""
    one_edge = build_grouping(np.zeros(1, dtype=np.int64), 1)
    return float(_worker_llrs(np.zeros(1), one_edge, np.ones(1), atom_mu, atom_w)[0])


def _class_worker_llrs(x: np.ndarray, parts: list, n_edges: int) -> np.ndarray:
    lam = np.empty(n_edges)
    for edges, grouping, a, atom_mu, atom_w, shift in parts:
        llr = _worker_llrs(x[edges], grouping, a, atom_mu, atom_w)
        llr += a * shift
        lam[edges] = llr
    return lam


def _pinned_edges(graph: AssignmentGraph, clamp_tasks: np.ndarray,
                  clamp_labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids of clamped tasks and their fixed outgoing LLRs (±inf)."""
    pinned = np.full(graph.n_tasks, np.nan)
    pinned[clamp_tasks] = np.where(clamp_labels == 1, np.inf, -np.inf)
    per_edge = pinned[graph.by_task.keys]
    edges = np.flatnonzero(~np.isnan(per_edge))
    return edges, per_edge[edges]


def _start_state(n_edges: int, pin_edges: np.ndarray,
                 pin_llr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero LLRs and magnetizations, except the clamped tasks' pinned messages."""
    x = np.zeros(n_edges)
    x[pin_edges] = np.tanh(pin_llr / 2.0)
    return np.zeros(n_edges), x, np.zeros(n_edges)


# -- pair-valued sweep pieces ------------------------------------------------

def _pairs_to_llr(pairs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(pairs[:, 0]) - np.log(pairs[:, 1])


def _llr_to_pairs(llr: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.column_stack((1.0 / (1.0 + np.exp(-llr)), 1.0 / (1.0 + np.exp(llr))))


def bp_init(graph: AssignmentGraph) -> BeliefState:
    """Uninformative start: every message and belief is (1/2, 1/2)."""
    m = graph.n_edges
    return BeliefState(
        msg_task_to_worker=np.full((m, 2), 0.5),
        msg_worker_to_task=np.full((m, 2), 0.5),
        beliefs=np.full((graph.n_tasks, 2), 0.5),
        iteration=0,
    )


def bp_update_task_messages(state: BeliefState, graph: AssignmentGraph,
                            answers: AnswerMatrix | np.ndarray) -> BeliefState:
    """Each task tells each worker the product of its other workers' messages.

    Answers do not enter this half-sweep; the argument is kept for signature
    symmetry with the worker half-sweep.
    """
    del answers
    _, nu = _task_llrs(_pairs_to_llr(state.msg_worker_to_task), graph.by_task)
    _check_edges(nu, graph, "task message")
    return replace(state, msg_task_to_worker=_llr_to_pairs(nu))


def bp_update_worker_messages(state: BeliefState, graph: AssignmentGraph,
                              answers: AnswerMatrix | np.ndarray, factors: FactorTable,
                              kernel: str = "magnetization") -> BeliefState:
    """Each worker tells each task how its other answers weigh the label."""
    a = answer_values(answers, graph)
    worker_half = _worker_kernel(kernel, graph, a, None, factors, factors.r_max)
    lam = worker_half(np.tanh(_pairs_to_llr(state.msg_task_to_worker) / 2.0))
    _check_edges(lam, graph, "worker message")
    return replace(state, msg_worker_to_task=_llr_to_pairs(lam))


def bp_compute_beliefs(state: BeliefState, graph: AssignmentGraph) -> BeliefState:
    total, _ = _task_llrs(_pairs_to_llr(state.msg_worker_to_task), graph.by_task)
    _check_beliefs(total)
    return replace(state, beliefs=_llr_to_pairs(total))


# -- driver ------------------------------------------------------------------

def bp_run(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
           prior: ReliabilityPrior, k_max: int = 100, tol: float = 1e-5,
           *, kernel: str = "magnetization",
           clamp_tasks: np.ndarray | None = None,
           clamp_labels: np.ndarray | None = None) -> EstimateReport:
    """Run synchronous sweeps and decode the sign of each task's belief margin.

    Stops early once the largest absolute message change, measured on the
    probability of label +1, falls below ``tol`` (an exact fixed point
    always counts as converged, so ``tol=0`` runs the full ``k_max`` sweeps
    unless the messages stop moving entirely).  ``clamp_tasks``/
    ``clamp_labels`` pin the outgoing messages and beliefs of the given
    tasks to point masses on the given labels, which conditions the run on
    those labels being known.
    """
    a = answer_values(answers, graph)
    r_max = int(graph.worker_degrees.max()) if graph.n_edges else 0
    worker_half = _worker_kernel(kernel, graph, a, prior, None, r_max)

    clamped = clamp_tasks is not None and len(clamp_tasks) > 0
    pin_edges, pin_llr = np.empty(0, dtype=np.int64), np.empty(0)
    if clamped:
        clamp_tasks = np.asarray(clamp_tasks, dtype=np.int64)
        clamp_labels = np.asarray(clamp_labels, dtype=np.int64)
        if clamp_labels.shape != clamp_tasks.shape:
            raise ParameterError("clamp labels must match clamp tasks")
        if clamp_tasks.min() < 0 or clamp_tasks.max() >= graph.n_tasks:
            raise ParameterError(f"clamp task ids must lie in [0, {graph.n_tasks})")
        if not np.isin(clamp_labels, (-1, 1)).all():
            raise ParameterError("clamp labels must be -1 or +1")
        pin_edges, pin_llr = _pinned_edges(graph, clamp_tasks, clamp_labels)

    def sweep(state):
        lam, x_prev, y_prev = state
        _, nu = _task_llrs(lam, graph.by_task)
        nu[pin_edges] = pin_llr
        _check_edges(nu, graph, "task message")
        x = np.tanh(nu / 2.0)
        lam = worker_half(x)
        _check_edges(lam, graph, "worker message")
        y = np.tanh(lam / 2.0)
        # Changes on the probability scale: |d P(+1)| = |d tanh(llr / 2)| / 2.
        delta = 0.5 * max(float(np.abs(x - x_prev).max(initial=0.0)),
                          float(np.abs(y - y_prev).max(initial=0.0)))
        return (lam, x, y), delta

    (lam, _, _), iterations, converged, delta = _iterate(
        sweep, _start_state(graph.n_edges, pin_edges, pin_llr), k_max, tol)

    total, _ = _task_llrs(lam, graph.by_task)
    margins = np.tanh(total / 2.0)
    if clamped:
        margins[clamp_tasks] = clamp_labels.astype(np.float64)
    _check_beliefs(margins)
    return make_report(margins, iterations, converged, delta)


def theory_iterations(n_tasks: int) -> int:
    """The doubly-logarithmic sweep count used by the asymptotic analysis."""
    if n_tasks < 1:
        raise ParameterError("n_tasks must be positive")
    if n_tasks <= math.e:
        return 1
    return max(1, math.ceil(math.log(math.log(n_tasks))))
