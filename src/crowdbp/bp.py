"""Sum-product message passing on the task-worker factor graph.

Every message is one log-likelihood ratio (LLR), log m(+1) - log m(-1),
per edge and direction, stored in natural edge order.  Sums over a node's
edges are one ``np.bincount`` over that side's keys, or, where the values
exist only a block at a time, ``segment_add`` block by block in edge
order, which gives the same bits; broadcasts back are gathers (see
:mod:`.segments`).  So a sweep costs O(edges) whatever the degree
profile.  Sweeps are synchronous: all task-to-worker messages from the
previous worker-to-task messages, then all worker-to-task messages from
the fresh task-to-worker ones.  ``bp_run`` checks its inputs for
``_run``, the core that the oracle of :mod:`.exact` calls too, whose
sweep function goes to :func:`_iterate`, the loop and stop rule that the
kos and EM decoders of :mod:`.estimators` share.

Task half: nu[i->u] = L_i - lam[u->i] with L_i = h_i + sum_u lam[u->i].
The field h_i is -0.0, the exact additive identity, or ±inf for a task
clamped to a known label.  The positive and negative parts of the sum are
summed separately, so incoming LLRs that mirror each other cancel to
exactly 0 and flipping every answer negates every message bitwise.
Infinite LLRs (clamps, workers whose reliability prior puts all mass on
p = 0 or 1) are counted per task, in the pass that sums the rest, rather
than subtracted; a message or belief whose inputs include both +inf and
-inf, as where a certain worker contradicts a clamp, has zero mass, NaN.
Either half then returns a NaN change, and ``_run`` raises a degeneracy
error naming the first NaN edge that half wrote, or the NaN belief's task.

Worker half: with incoming magnetizations x_j = tanh(nu[j->u] / 2) and
mu = 2p - 1 for each support atom p (weight w) of the reliability prior,

    m[u->i](s) ∝ sum_mu w (1 + A_iu mu s) prod_{j != i} (1 + A_ju mu x_j)

which reproduces the literal sum over neighbor label configurations
weighted by f(c, r) exactly.  A sweep keeps the answer-signed
magnetizations c_j = A_ju x_j, computed once, so that each atom's factors
are 1 + mu c_j; the sign is exact, so their change between sweeps is
bitwise that of x.  The leave-one-out log product is
S_mu[u] - log(1 + mu c_i), with S_mu the per-worker sum of those logs.
A factor is exactly 0 only for mu = ±1 against a certain message, as
|c| <= 1, so only such atoms scan for zeros, which are counted per worker
instead of divided out.  One class of workers (see below) takes two
passes over the edges, a block at a time: the first sums each atom's logs
per worker, the second recomputes each block's logs and folds the atoms
in one at a time under a running per-edge maximum, in five block rows.

A run reads the int8 or int64 answers in place, allocates its buffers
once and writes every sweep over them a block at a time, so it holds two
float edge arrays whatever the atom count and the sweep count: the worker
messages lam and the signed magnetizations c.  The task half reads lam
and writes c over its old values, each block once its change is read;
the worker half reads c and writes lam over its old values, each block
once the change of tanh(lam / 2) is read.  Block rows, per-task sums and
one row of per-worker sums per atom with mu != 0 come on top: a fifth of
an edge array per atom where workers answer five tasks, and two per-task
count rows in a sweep in which some message is infinite.  Split classes
add no float edge array: their fold runs in block-sized buffers, beside
one int64 index of the edges and their answers in their own dtype, both
listed once per run.
The ``naive`` kernel of the pair API below evaluates the configuration
sum directly and exists as the independent cross-check.

Degree classes: each atom costs a pass over the edges it is applied to,
but a worker of degree r does not need every atom.  Both lanes of the
sum above are polynomials of degree r in mu, and a k-node Gauss rule of
the prior integrates every polynomial of degree <= 2k - 1 exactly, so
r//2 + 1 nodes give that worker's messages exactly (to rounding).
Workers are put in power-of-two classes by that node count k, and each
class runs the Gauss rule of its largest count, which the prior gives
(:meth:`.ReliabilityPrior.gauss_rules`).  The top class runs an atom
prior's K distinct atoms, or a Beta prior's rule for the largest degree.
An atom prior builds each smaller rule from a k x K Lanczos basis in
O(k^2 K) work, so its workers whose k times K exceeds the edge count
join the atoms' class, which keeps memory O(edges) here too.  A Beta
prior's rules are leading blocks of its closed-form Jacobi matrix, so it
takes no such cap.  A class whose saving over the next larger class, in
atom-edge passes, is below a fixed per-class cost folds into it.  Each
class's messages are shifted so that a worker whose other answers carry
no information (x = 0) sends the top rule's prior-mean LLR, whichever
class it is in; a tie between such workers stays exact.  That holds
bitwise unless the prior's mean is 0, where the two rules' values, both
rounding, need not lie within a factor of two of each other.  When one
class holds every worker, its rule runs on the whole graph with no gather
or scatter: the top rule unshifted, so regular graphs under ``sh``
(worker degree >= 2) or ``ash`` (>= 4) and small graphs keep the margins
of one fold over the top rule, bitwise, and a smaller rule, as ``ebp``'s
empirical atoms give a regular graph, shifted in place.  Otherwise each
class lists its edges worker by worker, once per run, and folds a run of
whole workers at a time.  The run lays its edges on a grid whose columns
are chunks of at most 16 of one worker's edges (``_chunk_plan``), and per
group of atoms with mu != 0, at most ``_BLOCK`` grid cells times atoms,
forms the factors f = 1 + mu c in one block.  A chunk's product is one
reduction over the grid's rows, so a worker's log sum S over an atom
takes one log per 16 factors: a nonzero factor lies in [2**-53, 2], so 16
of them neither underflow nor overflow.  The worker's weights exp(S - M),
under its largest S so far, carried from group to group, cost one exp per
worker and atom rather than per atom-edge.  An edge's two lanes, sum w
(1 ± mu) exp(S - M) / f, are then one reciprocal and one non-BLAS
``np.einsum`` per atom-edge: dividing by the edge's own factor takes it
out of the product, as the one-class fold's subtraction of its log does.
Its sums run in another order than the one-class fold's, so its messages
agree with it to rounding, not bitwise; an edge whose worker's other
answers all have x = 0 sends the prior-mean LLR exactly in both.

The pair-valued :class:`BeliefState` API (``bp_init``,
``bp_update_*_messages``, ``bp_compute_beliefs``) runs the same core, each
half-sweep over the whole graph as one block into a fresh buffer, and
converts between normalized pairs and LLRs at its boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (NumericDegeneracyError, ParameterError, SizeError, check_budget,
                     check_ids, check_signs)
from .graph import AnswerMatrix, AssignmentGraph, answer_values
from .priors import FactorTable, ReliabilityPrior
from .segments import _CHUNK, Grouping, edge_blocks, gather, segment_add

_NAIVE_DEGREE_GUARD = 14
# What running a degree class on its own costs per sweep beyond its atom
# passes, in atom-edge passes: the gather and scatter of its edges, about
# 35 NumPy calls per run of workers and 20 per group of atoms (see
# _class_worker_llrs), plus building its Gauss rule and grid, spread over
# the sweeps of a run.  A class that saves less than this over the next
# larger class is folded into it.  The value was set when an atom-edge pass
# cost about 15 ns, which made it about 150 us.  The split fold now takes
# about 4 ns per atom-edge on skewed-real's ebp2 priors (2 vCPUs, shared
# host), so the same overhead is worth about four times as many passes as
# this, and classes split where their cost does not warrant it.  The value
# is kept: moving it changes which graphs split, and so their margins to
# rounding.
_CLASS_OVERHEAD_EDGES = 10_000
# Start of the running maximum over atoms: finite, so that subtracting it
# from a -inf log product gives -inf rather than NaN.
_NO_ATOM_YET = -np.finfo(np.float64).max
# Floats per block of a split degree class's fold: a group's factors, its
# atoms times its run's grid cells, and its chunks' products.
_BLOCK = 2**16
# What a split class's weights exp(S - M) <= 1 are multiplied by: 2**865,
# about e**600, so that weights down to about 1300 nats below the largest
# stay normal floats, which the CPU multiplies at full speed, while a lane of
# weights over factors of at least 2**-53 stays below e**650 for up to 10**6
# atoms.  A power of two scales the lanes without rounding them.
_LIFT = 2.0**865
# Factors per product in a split class's log sums.  A nonzero factor 1 + mu c
# lies in [2**-53, 2], so a product of 16 neither underflows nor overflows.
_FACTORS = 16


@dataclass(frozen=True)
class BeliefState:
    """Message pairs per edge in both directions plus current task beliefs."""

    msg_task_to_worker: np.ndarray  # (m, 2)
    msg_worker_to_task: np.ndarray  # (m, 2)
    beliefs: np.ndarray             # (n_tasks, 2)


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


# The default sweep budget and stop tolerance of every iterative decoder.
_K_MAX, _TOL = 100, 1e-5


def _iterate(step, state, k_max: int, tol: float) -> tuple[object, int, bool, float]:
    """Apply ``step(state) -> (state, delta)`` until ``delta`` falls below ``tol``.

    Runs at most ``k_max`` steps.  An exact fixed point (``delta == 0``)
    always counts as converged, so ``tol=0`` runs the full budget unless
    the state stops moving entirely.  Returns the last state, the steps
    run, whether they converged and the last ``delta``.  Pass the start
    state inline: the driver drops it after the first step, while a name
    for it in the caller would keep its arrays alive for the whole run.
    """
    k_max = check_budget(k_max, tol)
    delta = math.inf
    for iteration in range(1, k_max + 1):
        state, delta = step(state)
        if delta < tol or delta == 0.0:
            return state, iteration, True, delta
    return state, k_max, False, delta


# -- LLR core -----------------------------------------------------------------

def _check_edges(llr: np.ndarray, graph: AssignmentGraph, what: str,
                 origin: tuple | None = None) -> None:
    """NaN marks a message with zero mass on both labels.  The error names
    the first such edge of ``graph``, or its edge in ``origin`` (see
    ``_run``)."""
    # One reduction finds a NaN; the mask is built only to name it.
    if np.isnan(llr.max(initial=-np.inf)):
        idx = int(np.flatnonzero(np.isnan(llr))[0])
        if origin is not None:
            graph, idx = origin[0], int(origin[1][idx])
        task, worker = graph.edges[idx]
        raise NumericDegeneracyError(
            f"{what} on edge {idx} (task {task}, worker {worker}) has zero mass"
        )


def _check_beliefs(belief: np.ndarray, origin: tuple | None = None) -> None:
    bad = np.isnan(belief)
    if bad.any():
        task = int(np.flatnonzero(bad)[0])
        if origin is not None:
            task = int(origin[2][task])
        raise NumericDegeneracyError(f"belief for task {task} has zero mass")


def _certain(n_plus: np.ndarray, n_minus: np.ndarray) -> np.ndarray:
    """+inf, -inf, 0 or NaN (both signs: zero mass) from infinity counts."""
    return np.where(n_plus > 0, np.inf, 0.0) + np.where(n_minus > 0, -np.inf, 0.0)


def _task_totals(lam: np.ndarray, grouping: Grouping,
                 field: np.ndarray | float = -0.0) -> tuple[np.ndarray, tuple | None]:
    """Per task the total incoming LLR plus its ``field`` (-0.0 or ±inf);
    NaN marks zero mass.  Only where some LLR is infinite or NaN, also per
    task the sum of its finite LLRs and the counts of its +inf and -inf
    inputs, the field's included, for ``_task_others``; ``None`` otherwise.

    One pass, a block at a time, adds each LLR into its task's entry of the
    row of its sign, at (llr < 0) n + key: both rows sum in edge order, so a
    task whose negative LLRs mirror its positive ones (same magnitudes, same
    relative order; equal magnitudes in any order) sums to exactly 0, and
    neither row is ever -0.0.  A block whose sum is not finite adds 0 in
    place of each infinite LLR and counts it at the same index of two rows.
    """
    n = grouping.n_segments
    parts, counts = np.zeros(2 * n), None
    temp = np.empty(min(_CHUNK, lam.size), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for at in edge_blocks(lam.size, _CHUNK):
            llr, index = lam[at], temp[:at.stop - at.start]
            np.less(llr, 0.0, out=index)
            index *= n
            index += grouping.keys[at]
            if not math.isfinite(llr.sum()):
                infinite = np.isinf(llr)
                if counts is None:
                    counts = np.zeros(2 * n)
                segment_add(counts, index[infinite], 1.0)
                llr = np.where(infinite, 0.0, llr)
            segment_add(parts, index, llr)
        finite = np.add(parts[:n], parts[n:])
        del parts, temp  # so that the rows below do not live beside them
        if counts is None:
            finite += field
            return finite, None
        n_plus, n_minus = counts.reshape(2, n)
        n_plus += field == np.inf
        n_minus += field == -np.inf
        return finite + _certain(n_plus, n_minus), (finite, n_plus, n_minus)


def _task_others(total: np.ndarray, certain: tuple | None, lam: np.ndarray,
                 keys: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per edge of a block keyed by ``keys``, its task's ``_task_totals`` less
    its own LLR ``lam``, or, where some message is infinite, less its own
    finite part and infinity count; written over ``out``, which is not
    ``lam``.  NaN marks zero mass."""
    if certain is None:
        return np.subtract(total.take(keys, out=out, mode="clip"), lam, out=out)
    finite, n_plus, n_minus = certain
    plus, minus = lam == np.inf, lam == -np.inf
    np.subtract(finite.take(keys, out=out, mode="clip"), np.where(plus | minus, 0.0, lam),
                out=out)
    with np.errstate(invalid="ignore"):
        out += _certain(n_plus.take(keys, mode="clip") - plus,
                        n_minus.take(keys, mode="clip") - minus)
    return out


def _task_half(lam: np.ndarray, c: np.ndarray, a: np.ndarray, grouping: Grouping,
               field: np.ndarray | float) -> float:
    """Write the task messages' answer-signed magnetizations a tanh(nu / 2)
    over ``c``, a block at a time, and return their largest change; NaN
    marks zero mass, in a message and so in the change."""
    total, certain = _task_totals(lam, grouping, field)
    temp, change = np.empty(min(_CHUNK, lam.size)), 0.0
    for at in edge_blocks(lam.size, _CHUNK):
        nu = _task_others(total, certain, lam[at], grouping.keys[at], temp[:at.stop - at.start])
        x = np.tanh(np.divide(nu, 2.0, out=nu), out=nu)
        x *= a[at]
        # A sign common to the new and old c leaves their change bitwise that of x.
        change = np.maximum(change, _max_change(x, c[at]))
        c[at] = x
    return float(change)


def _max_change(new: np.ndarray, old: np.ndarray) -> float:
    """The largest |new - old|, computed over ``old``, which it overwrites."""
    change = np.abs(np.subtract(new, old, out=old), out=old)
    return float(change.max(initial=0.0))


def _worker_llrs(c: np.ndarray, lam: np.ndarray, grouping: Grouping, a: np.ndarray,
                 atom_mu: np.ndarray, atom_w: np.ndarray, temp: np.ndarray,
                 shift: float | None = None) -> float:
    """Write the worker-to-task LLRs from the answer-signed task-to-worker
    magnetizations ``c = a x`` over the previous ones, ``lam``, and return
    the largest change of tanh(llr / 2); NaN marks zero mass, in a message
    and so in the change.

    ``grouping`` groups the edges by worker; the rule (``atom_mu``,
    ``atom_w``) must be exact up to every worker's degree.  ``temp`` holds
    five block rows, at least one float wide, and the edges run a row's
    width at a time.  A ``shift``, when given, adds ``a * shift`` to every
    message (see ``_class_kernel``).
    """
    keys, n_workers = grouping.keys, grouping.n_segments
    starts = np.flatnonzero(atom_mu)
    # Each atom with mu != 0, its mu and the end of the mu = 0 atoms after it.
    runs = list(zip(starts.tolist(), atom_mu[starts].tolist(), [*starts[1:], atom_mu.size]))
    plus, minus = atom_w * (1.0 + atom_mu), atom_w * (1.0 - atom_mu)
    # Per edge: the largest log leave-one-out product so far and the two
    # lanes sum_mu w (1 ± mu) exp(loo_mu - top).  Until the first atom with
    # mu != 0 every product is 1 and the state is scalar (see _prior_mean_llr).
    first = starts[0] if starts.size else atom_mu.size
    start = (0.0, np.cumsum(plus[:first])[-1], np.cumsum(minus[:first])[-1]) if first else (
        _NO_ATOM_YET, 0.0, 0.0)
    blocks, change = edge_blocks(c.size, temp.shape[1]), 0.0
    # log1p(-1) = -inf is counted below, a lane ratio beyond the float range
    # overflows to an infinite LLR, and 0 / 0 marks zero mass.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # First pass: each atom with mu != 0 sums its logs per worker.  A
        # factor 1 + mu c == 0, possible only at |mu| = 1 as |c| <= 1, is
        # counted per worker instead of summed as -inf, so exactly the
        # worker's other edges get a -inf product.
        sums, n_zero = np.zeros((starts.size, n_workers)), [None] * starts.size
        for at in blocks:
            c_at, keys_at, logs = c[at], keys[at], temp[0, :at.stop - at.start]
            for j, (_, mu, _) in enumerate(runs):
                np.log1p(np.multiply(c_at, mu, out=logs), out=logs)
                if abs(mu) >= 1.0 and logs.min(initial=0.0) == -np.inf:
                    zero = logs == -np.inf
                    logs[zero] = 0.0
                    if n_zero[j] is None:
                        n_zero[j] = np.zeros(n_workers, dtype=np.intp)
                    np.add.at(n_zero[j], keys_at[zero], 1)
                segment_add(sums[j], keys_at, logs)
        # Second pass: each block takes every atom's leave-one-out logs and
        # folds the atoms in order, each with the mu = 0 atoms after it.
        for at in blocks:
            c_at, keys_at, a_at = c[at], keys[at], a[at]
            loo, top_out, new_top, agree_out, disagree_out = temp[:, :at.stop - at.start]
            top, agree, disagree = start
            for j, (k0, mu, k1) in enumerate(runs):
                # The logs take new_top's row until the fold needs it.
                logs = np.log1p(np.multiply(c_at, mu, out=new_top), out=new_top)
                if n_zero[j] is not None:
                    zero = logs == -np.inf
                    logs[zero] = 0.0
                np.subtract(sums[j].take(keys_at, out=loo, mode="clip"), logs, out=loo)
                if n_zero[j] is not None:
                    loo[n_zero[j].take(keys_at, mode="clip") > zero] = -np.inf
                for k in range(k0, k1):
                    loo_k = loo if k == k0 else 0.0
                    np.maximum(top, loo_k, out=new_top)
                    rescale = np.exp(np.subtract(top, new_top, out=top_out), out=top_out)
                    weight = np.exp(np.subtract(loo_k, new_top, out=loo), out=loo)
                    np.multiply(agree, rescale, out=agree_out)
                    np.multiply(disagree, rescale, out=disagree_out)
                    # rescale is spent: its row takes each lane's increment in turn.
                    agree_out += np.multiply(plus[k], weight, out=top_out)
                    disagree_out += np.multiply(minus[k], weight, out=top_out)
                    top, agree, disagree = new_top, agree_out, disagree_out
                    top_out, new_top = new_top, top_out
            ratio = (np.log(np.divide(agree, disagree, out=agree_out), out=agree_out)
                     if starts.size else _prior_mean_llr(atom_mu, atom_w))
            # The weights and the maximum are spent: their rows take the old
            # messages' tanh(llr / 2), the shift and the new ones' tanh.
            old = np.tanh(np.divide(lam[at], 2.0, out=loo), out=loo)
            # The dtype keeps NumPy 1's value-based casting from multiplying
            # int8 answers by a scalar in float16.
            llr = np.multiply(a_at, ratio, out=lam[at], dtype=np.float64)
            if shift is not None:
                llr += np.multiply(a_at, shift, out=top_out, dtype=np.float64)
            y = np.tanh(np.divide(llr, 2.0, out=top_out), out=top_out)
            change = np.maximum(change, _max_change(y, old))
    return float(change)


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
    """All 2^k sign vectors as int8 rows, +1 where bit j of the row number is set."""
    rows = np.arange(2**k, dtype="<u8").view(np.uint8).reshape(2**k, 8)
    s = np.unpackbits(rows, axis=1, count=k, bitorder="little").view(np.int8)
    s *= 2
    s -= 1
    return s


def _degree_classes(degrees: np.ndarray, n_atoms: int,
                    capped: bool = True) -> list[tuple[int, np.ndarray]]:
    """Node count and member mask of each worker class, ascending by count.

    A class at ``n_atoms`` runs the prior's top rule.  ``capped`` marks
    smaller rules built from a Lanczos basis over ``n_atoms`` atoms.
    Workers without edges belong to no class.
    """
    n_edges = int(degrees.sum())
    need = degrees // 2 + 1
    # A capped k-node rule is built from a k x K Lanczos basis in O(k^2 K)
    # work.  Needs with k K above the edge count keep the atoms, so the basis
    # is never larger than one edge array and its build costs at most k
    # flops per edge, well under one sweep of the K atoms.
    keep_atoms = (need >= n_atoms) | (capped & (need * n_atoms > n_edges))
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


def _class_rules(degrees: np.ndarray, prior: ReliabilityPrior) -> tuple[int, tuple, list]:
    """The top rule's node count and rule, and each worker class's node count,
    Gauss rule and member mask, ascending by count.  The top rule is an atom
    prior's own atoms, whose smaller rules take a Lanczos basis, or a Beta
    prior's rule for the largest degree."""
    n_atoms = prior.n_atoms or int(degrees.max(initial=0)) // 2 + 1
    classes = _degree_classes(degrees, n_atoms, prior.kind == "atoms")
    sizes = sorted({k for k, _ in classes} | {n_atoms})
    rules = dict(zip(sizes, prior.gauss_rules(sizes)))
    return n_atoms, rules[n_atoms], [(k, rules[k], members) for k, members in classes]


def _class_kernel(graph: AssignmentGraph, a: np.ndarray, prior: ReliabilityPrior):
    """The magnetization worker half, each degree class on its prior's Gauss rule.

    The returned function ``(c, lam)`` reads the answer-signed
    magnetizations ``c = a x``, writes its messages over the previous ones,
    ``lam``, a float edge buffer other than ``c``, and returns the largest
    change of tanh(llr / 2), NaN if a message is NaN.  Its other buffers are
    allocated here, once per run.  One class runs ``_worker_llrs`` on the
    whole graph in five rows of ``_fold_width`` edges.  Split classes list
    their edges worker by worker here, each run's in the order of its grid,
    and fold in ``_class_worker_llrs``, a run of whole workers and a group
    of atoms at a time (see ``_class_blocks``), in two buffers: five rows as
    wide as the widest run's grid, and one block for a group's factors and
    its chunks' products.
    """
    n_atoms, (atom_mu, atom_w), classes = _class_rules(graph.worker_degrees, prior)
    prior_mean = _prior_mean_llr(atom_mu, atom_w)
    if len(classes) == 1:
        # One class holds every worker with edges: its rule runs on the whole
        # graph with no gather or scatter.  The top rule's margins are then
        # bitwise those of one fold over it, and a smaller rule's, shifted as
        # below, those of the split path to rounding.
        (k, (mu, w), _), = classes
        return partial(_worker_llrs, grouping=graph.by_worker, a=a, atom_mu=mu, atom_w=w,
                       temp=np.empty((5, _fold_width(graph.n_edges))),
                       shift=None if k == n_atoms else prior_mean - _prior_mean_llr(mu, w))
    degrees, order = graph.worker_degrees, graph.by_worker.order
    parts, block_size, width = [], 0, 0
    for _, (mu, w), members in classes:
        # The class's edges worker by worker, so that each run holds whole
        # workers; each run's are then listed in its grid's order.
        edges = order[np.repeat(members, degrees)]
        blocks = _class_blocks(edges, degrees[members], mu, w)
        # Every rule gives a worker whose other answers carry no information
        # the LLR of the prior's mean, up to rounding; the shift makes it the
        # top rule's value, bitwise when the two are within a factor of two.
        class_mean = _prior_mean_llr(mu, w)
        # The mu = 0 atoms' factors are all 1 and their log sums 0: they start
        # each worker's maximum at 0 and add their weight to its lanes last.
        still = mu == 0.0
        start = (0.0, np.cumsum(w[still])[-1] * _LIFT) if still.any() else (_NO_ATOM_YET, 0.0)
        parts.append((edges, a[edges], prior_mean - class_mean, class_mean, start, blocks))
        for _, _, slots, sizes, _, _, _, groups in blocks:
            width = max(width, slots * sizes.size)
            block_size = max([block_size, *(moving.size * (slots + 1) * sizes.size
                                            for moving, _, _ in groups)])
    return partial(_class_worker_llrs, parts=parts, rows=np.empty((5, width)),
                   block=np.empty(block_size))


def _fold_width(n_edges: int) -> int:
    """Edges per block of the one-class fold: a 32nd of the edges, but at
    least half of ``_CHUNK``, so that its NumPy calls run over thousands of
    edges, and at most ``_CHUNK``.  Its five rows then take at most a sixth
    of an edge array on graphs of 256k edges or more, and a fifth at 200k."""
    return max(1, min(n_edges, _CHUNK, max(_CHUNK // 2, n_edges // 32)))


def _class_blocks(edges: np.ndarray, lengths: np.ndarray, mu: np.ndarray,
                  w: np.ndarray) -> list:
    """A split class's fold plan over its ``edges`` listed worker by worker.

    The edges are cut into runs of whole workers of about ``_BLOCK / K``
    edges for a K-atom rule, and each run's listing is put in the order of
    its ``_chunk_plan`` grid, in place.  Each run takes its atoms with mu !=
    0 in groups whose factors and chunk products fit ``_BLOCK`` floats: one
    or two groups, more where one worker's edges outgrow the run, and one
    atom at a time where they outgrow ``_BLOCK``.  Per run: its edge bounds,
    its grid's slot count, each chunk's size, each worker's chunk count and
    first chunk, whether the grid's pads all trail its edges, and its
    ``_atom_groups``.
    """
    ends = np.cumsum(lengths)
    step = max(1, _BLOCK // mu.size)
    # A run ends with the first worker whose edges reach the next multiple of
    # step.  The cuts ascend, so dropping repeats takes one comparison; a plain
    # np.unique would import numpy.ma on its first call, tens of ms.
    cuts = np.append(np.searchsorted(ends, np.arange(step, ends[-1], step)) + 1, ends.size)
    cuts = cuts[np.append(cuts[1:] != cuts[:-1], True)]
    moving = mu != 0.0
    n_moving = int(moving.sum())
    blocks, first, groups = [], 0, {}
    for last in cuts:
        lo, hi = (ends[first - 1] if first else 0), ends[last - 1]
        order, slots, sizes, counts = _chunk_plan(lengths[first:last])
        edges[lo:hi] = edges[lo:hi][order]
        # The pads all trail the edges where every slot but the last is full
        # and the last slot's cells are the leading chunks'.
        trailing = bool(sizes.min() >= slots - 1 and (sizes[:-1] >= sizes[1:]).all())
        # As few groups as fit the block, of balanced sizes; runs that take
        # as many groups share them.
        count = -(-n_moving // max(1, _BLOCK // ((slots + 1) * sizes.size)))
        if count not in groups:
            groups[count] = _atom_groups(mu[moving], w[moving],
                                         max(1, -(-n_moving // max(1, count))))
        blocks.append((int(lo), int(hi), slots, sizes, counts, np.cumsum(counts) - counts,
                       trailing, groups[count]))
        first = last
    return blocks


def _chunk_plan(lengths: np.ndarray) -> tuple:
    """The grid on which a run of workers with ``lengths`` edges multiplies
    its factors, at most ``_FACTORS`` to a product.

    For a chunk length s, worker u's r edges form n = ceil(r / s) chunks,
    chunk j holding its edges j, j + n, j + 2n, ...  The chunks, worker by
    worker, are the grid's columns, and its rows, or slots, are as many as
    the longest chunk's edges: slot i holds each chunk's i-th edge, and a
    cell past a chunk's end is a pad, whose factor is 1.  So each chunk's
    product is one reduction over the slots, and a lone worker's edges keep
    their order, its pads trailing.  A cell costs about what a chunk's log
    and sum cost, so s minimizes (s + 1) times the chunk count.

    Returns the run's edges in grid order, as offsets into the run; the slot
    count; each chunk's size, as int8; and each worker's chunk count.
    """
    options = np.arange(1, _FACTORS + 1)[:, None]
    values, repeats = np.unique(lengths, return_counts=True) if lengths.size > 1 else (lengths, 1)
    cost = (options[:, 0] + 1) * (-(-values // options) * repeats).sum(axis=1)
    # The longest chunks of the least cost.
    s = _FACTORS - int(np.argmin(cost[::-1]))
    n = -(-lengths // s)
    worker = np.repeat(np.arange(lengths.size), n)
    j = np.arange(worker.size) - (np.cumsum(n) - n)[worker]
    sizes = -(-(lengths[worker] - j) // n[worker])
    slots = int(sizes.max())
    grid = np.arange(slots)[:, None]
    order = ((np.cumsum(lengths) - lengths)[worker] + j + grid * n[worker])[sizes > grid]
    return order, slots, sizes.astype(np.int8), n


def _atom_groups(mu: np.ndarray, w: np.ndarray, size: int) -> list:
    """The rule's atoms in groups of ``size``: per group their mu, the lane
    coefficients w (1 ± mu) as two rows, and whether an atom has |mu| = 1."""
    lanes = np.stack((w * (1.0 + mu), w * (1.0 - mu)))
    return [(mu[k:k + size], lanes[:, k:k + size], bool(np.any(np.abs(mu[k:k + size]) >= 1.0)))
            for k in range(0, mu.size, size)]


def _prior_mean_llr(atom_mu: np.ndarray, atom_w: np.ndarray) -> float:
    """What the rule sends for a +1 answer whose other answers have x = 0.

    Every leave-one-out product is then 1, so each lane of the fold is the
    running sum of w (1 ± mu) in atom order.
    """
    agree = np.cumsum(atom_w * (1.0 + atom_mu))[-1]
    disagree = np.cumsum(atom_w * (1.0 - atom_mu))[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.log(agree / disagree))


def _class_worker_llrs(c: np.ndarray, lam: np.ndarray, parts: list, rows: np.ndarray,
                       block: np.ndarray) -> float:
    """``_worker_llrs`` over split classes, each a run of whole workers at a time.

    Each part is a class's edges in the order of its ``_class_blocks`` plan,
    their answers, its shift, its rule's prior-mean LLR, the maximum its mu
    = 0 atoms start each worker at and the lanes they add (see
    ``_class_kernel``), and the plan; ``rows`` and ``block`` are the buffers
    ``_class_kernel`` sized for them.  Writes and returns as
    ``_worker_llrs`` does; each run takes its change before it scatters.

    A run lays its magnetizations c on its grid (see ``_chunk_plan``), 0 on
    the pads.  Per group of atoms with mu != 0, the factors f = 1 + mu c
    fill one (cells x atoms) block.  Worker u's log sums S_u = sum log f
    take one log per chunk's product; its weights B_u = exp(S_u - M_u) sit
    under M_u, its largest S_u so far, lifted by ``_LIFT``.  A cell's lanes,
    sum w (1 ± mu) B_u / f, are then one reciprocal or divide and one
    non-BLAS einsum per cell and atom, added to its earlier groups' lanes
    rescaled to the new maximum.  An edge whose worker's other answers all
    have c = 0 sends the rule's prior-mean LLR, as the one-class fold's
    exact leave-one-out sum does.
    """
    change = 0.0
    # A zero factor is counted below, a lane ratio beyond the float range
    # overflows to an infinite LLR, and 0 / 0 marks zero mass.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for edges, a, shift, prior_mean, (top0, lane0), blocks in parts:
            for lo, hi, slots, sizes, counts, first, trailing, groups in blocks:
                cells, n = slots * sizes.size, hi - lo
                c_run, lanes, fresh = rows[0, :cells], rows[1:3, :cells], rows[3:5, :cells]
                # The lanes by slot and chunk, whose worker is each column's.
                columns = lanes.reshape(2, slots, sizes.size)
                if trailing:
                    at = slice(0, n)
                    c_run[n:] = 0.0
                else:
                    at = np.flatnonzero(sizes > np.arange(slots)[:, None])
                    c_run.fill(0.0)
                c_run[at] = c.take(edges[lo:hi], mode="clip")
                if not groups:
                    lanes.fill(0.0)
                top, zeros = np.full(counts.size, top0), []
                for g, (mu, coef, certain) in enumerate(groups):
                    f = block[:mu.size * cells].reshape(cells, mu.size)
                    products = block[mu.size * cells:mu.size * (cells + sizes.size)]
                    np.einsum("e,k->ek", c_run, mu, out=f)
                    f += 1.0
                    # A factor 1 + mu c == 0, possible only at |mu| = 1 as
                    # |c| <= 1, is counted per worker and multiplied as 1.
                    # Its atom gives the worker's other edges nothing, and its
                    # own edge, where it is the one zero, the sum of the
                    # worker's other logs, which may dwarf M_u: that edge
                    # takes its own maximum in _add_zero_edges.
                    zero = None
                    if certain and f.min() == 0.0:
                        zero = f == 0.0
                        f[zero] = 1.0
                    np.multiply.reduce(f.reshape(slots, -1), axis=0, out=products)
                    logs = np.log(products, out=products).reshape(sizes.size, mu.size)
                    sums = np.add.reduceat(logs, first, axis=0)
                    if zero is not None:
                        n_zero = np.add.reduceat(np.add.reduce(
                            zero.reshape(slots, -1), axis=0, dtype=np.intp).reshape(
                                sizes.size, mu.size), first, axis=0)
                        cell, atom = np.nonzero(zero)
                        worker = np.repeat(np.arange(counts.size), counts)[cell % sizes.size]
                        one = n_zero[worker, atom] == 1
                        cell, worker, atom = cell[one], worker[one], atom[one]
                        zeros.append((cell, worker, sums[worker, atom], coef[:, atom]))
                        sums[n_zero > 0] = -np.inf
                    new_top = np.maximum(top, sums.max(axis=1))
                    weights = np.exp(np.subtract(sums, new_top[:, None], out=sums), out=sums)
                    weights *= _LIFT
                    if counts.size == 1:
                        # One worker's weights go into the lane coefficients.
                        np.reciprocal(f, out=f)
                        coef = coef * weights
                    else:
                        grid = f.reshape(slots, sizes.size, mu.size)
                        np.divide(np.repeat(weights, counts, axis=0), grid, out=grid)
                    if g:
                        if (new_top != top).any():
                            columns *= np.repeat(np.exp(top - new_top), counts)
                        lanes += np.einsum("ek,lk->le", f, coef, out=fresh)
                    else:
                        np.einsum("ek,lk->le", f, coef, out=lanes)
                    top = new_top
                if lane0:
                    columns += np.repeat(lane0 * np.exp(top0 - top), counts)
                if zeros:
                    _add_zero_edges(lanes, top, zeros)
                agree, disagree = lanes
                ratio = np.log(np.divide(agree, disagree, out=agree), out=agree)
                # Cells whose worker's other edges all have c = 0.
                informed = c_run != 0.0
                if counts.size > 1:
                    informed = informed.reshape(slots, -1)
                    others = np.repeat(np.add.reduceat(informed.sum(axis=0), first), counts)
                    ratio.reshape(slots, -1)[others - informed == 0] = prior_mean
                elif np.count_nonzero(informed) <= 1:
                    ratio[informed if informed.any() else slice(None)] = prior_mean
                a_run = a[lo:hi]
                llr = np.multiply(a_run, ratio[at], out=fresh[0, :n])
                # The other rows are spent: they take the shift and the old
                # messages' tanh(llr / 2), and the magnetizations' row the new.
                llr += np.multiply(a_run, shift, out=fresh[1, :n], dtype=np.float64)
                old = np.take(lam, edges[lo:hi], out=fresh[1, :n], mode="clip")
                old = np.tanh(np.divide(old, 2.0, out=old), out=old)
                y = np.tanh(np.divide(llr, 2.0, out=c_run[:n]), out=c_run[:n])
                change = np.maximum(change, _max_change(y, old))
                lam[edges[lo:hi]] = llr
    return float(change)


def _add_zero_edges(lanes: np.ndarray, top: np.ndarray, zeros: list) -> None:
    """Add to ``lanes``, which hold each cell's lanes under its worker's
    maximum in ``top``, the atoms for which the cell's edge holds its
    worker's one zero factor: per such atom the cell, its worker, the log
    sum of the worker's other factors and the lane coefficients, as
    ``_class_worker_llrs`` lists them.  Each such cell takes the larger of
    its maximum and those sums."""
    cell, worker, sums, coef = (np.concatenate(part, axis=-1) for part in zip(*zeros))
    at, inverse = np.unique(cell, return_inverse=True)
    old_top = np.empty(at.size)
    old_top[inverse] = top[worker]
    new_top = old_top.copy()
    np.maximum.at(new_top, inverse, sums)
    lanes[:, at] *= np.exp(old_top - new_top)
    terms = coef * (np.exp(sums - new_top[inverse]) * _LIFT)
    for lane, term in zip(lanes, terms):
        np.add.at(lane, at[inverse], term)


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
    )


def bp_update_task_messages(state: BeliefState, graph: AssignmentGraph,
                            answers: AnswerMatrix | np.ndarray) -> BeliefState:
    """Each task tells each worker the product of its other workers' messages.

    Answers do not enter this half-sweep; they are checked against the graph
    like the worker half-sweep's.
    """
    answer_values(answers, graph)
    lam = _pairs_to_llr(state.msg_worker_to_task)
    nu = _task_others(*_task_totals(lam, graph.by_task), lam, graph.by_task.keys,
                      np.empty(lam.size))
    _check_edges(nu, graph, "task message")
    return replace(state, msg_task_to_worker=_llr_to_pairs(nu))


def bp_update_worker_messages(state: BeliefState, graph: AssignmentGraph,
                              answers: AnswerMatrix | np.ndarray, factors: FactorTable,
                              kernel: str = "magnetization") -> BeliefState:
    """Each worker tells each task how its other answers weigh the label."""
    a = answer_values(answers, graph)
    x = np.tanh(_pairs_to_llr(state.msg_task_to_worker) / 2.0)
    if kernel == "magnetization":
        lam = np.zeros(graph.n_edges)
        _class_kernel(graph, a, factors.prior)(a * x, lam)
    elif kernel == "naive":
        # The only reader of the literal factor table f(c, r).
        lam = _worker_llrs_naive(x, graph, a, factors)
    else:
        raise ParameterError(f"unknown kernel {kernel!r}")
    _check_edges(lam, graph, "worker message")
    return replace(state, msg_worker_to_task=_llr_to_pairs(lam))


def bp_compute_beliefs(state: BeliefState, graph: AssignmentGraph) -> BeliefState:
    total, _ = _task_totals(_pairs_to_llr(state.msg_worker_to_task), graph.by_task)
    _check_beliefs(total)
    return replace(state, beliefs=_llr_to_pairs(total))


# -- driver ------------------------------------------------------------------

def bp_run(graph: AssignmentGraph, answers: AnswerMatrix | np.ndarray,
           prior: ReliabilityPrior, k_max: int = _K_MAX, tol: float = _TOL,
           *, clamp_tasks: np.ndarray | None = None,
           clamp_labels: np.ndarray | None = None) -> EstimateReport:
    """Run synchronous sweeps and decode the sign of each task's belief margin.

    Stops early once the largest absolute message change, measured on the
    probability of label +1, falls below ``tol`` (an exact fixed point
    always counts as converged, so ``tol=0`` runs the full ``k_max`` sweeps
    unless the messages stop moving entirely).  ``clamp_tasks``/
    ``clamp_labels``, given together, condition the run on the given tasks
    having the given labels: each such task gets the field +inf or -inf, a
    certain input that its messages and belief carry.  A task clamped to
    both labels is refused, and evidence that contradicts a clamp (a worker
    certain of the other label) raises a degeneracy error.
    """
    a = answer_values(answers, graph)
    field = -0.0
    if clamp_tasks is not None or clamp_labels is not None:
        if clamp_tasks is None or clamp_labels is None:
            raise ParameterError("clamp_tasks and clamp_labels must be given together")
        clamp_tasks = check_ids(clamp_tasks, graph.n_tasks, "clamp task ids")
        known = check_signs(clamp_labels, "clamp labels") * np.inf
        if known.shape != clamp_tasks.shape:
            raise ParameterError("clamp labels must match clamp tasks")
    if clamp_tasks is not None and clamp_tasks.size:
        field = np.full(graph.n_tasks, -0.0)
        field[clamp_tasks] = known
        clash = clamp_tasks[field[clamp_tasks] != known]
        if clash.size:
            raise ParameterError(f"clamp task {clash[0]} is clamped to both labels")
    return make_report(*_run(graph, a, prior, k_max, tol, field))


def _run(graph: AssignmentGraph, a: np.ndarray, prior: ReliabilityPrior, k_max: int,
         tol: float, field: np.ndarray | float, origin: tuple | None = None) -> tuple:
    """``bp_run``'s sweeps and decode on checked inputs: int8 or int64 signs
    and each task's field, -0.0 or ±inf for a known label (see
    ``_task_totals``), or -0.0 for all.
    Returns the margins, the sweeps run, whether they converged and the last
    change.  With ``origin = (caller, edge_ids, task_ids)``, a zero-mass
    error at edge e or task t of ``graph`` names edge ``edge_ids[e]`` or task
    ``task_ids[t]`` of ``caller``."""
    worker_half = _class_kernel(graph, a, prior)
    # Two float edge buffers, each written over a block at a time: the
    # worker messages lam, which start at 0, and the answer-signed task
    # magnetizations c, which start at each task's tanh(h / 2) times the
    # answer.  Each half of a sweep reads the other's buffer and takes its
    # own change against the values it writes over.
    lam = np.zeros(graph.n_edges)
    c = gather(np.tanh(np.broadcast_to(field, graph.n_tasks) / 2.0), graph.by_task)
    c *= a

    def sweep(_):
        # A zero-mass message, NaN, makes its half's change NaN; name its edge.
        dx = _task_half(lam, c, a, graph.by_task, field)
        if math.isnan(dx):
            _check_edges(c, graph, "task message", origin)
        dy = worker_half(c, lam)
        if math.isnan(dy):
            _check_edges(lam, graph, "worker message", origin)
        # Changes on the probability scale: |d P(+1)| = |d tanh(llr / 2)| / 2.
        return None, 0.5 * max(dx, dy)

    # The state lives in the two buffers; _iterate threads none through.
    _, iterations, converged, delta = _iterate(sweep, None, k_max, tol)
    total, _ = _task_totals(lam, graph.by_task, field)
    margins = np.tanh(total / 2.0)
    _check_beliefs(margins, origin)
    return margins, iterations, converged, delta
