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
whole workers at a time, about ``_BLOCK`` atom-edges: per group of atoms,
one (atoms x edges) block of logs whose per-worker sums are one
``np.add.reduceat`` and go back to the edges by ``np.repeat``, one exp
per atom-edge under a per-edge maximum carried from group to group, and a
non-BLAS ``np.einsum`` that adds the block into the two lanes in atom
order.  Its sums run in another order than the one-class fold's, so its
messages agree with it to rounding, not bitwise.

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
# 15 NumPy calls per run of workers and group of atoms (see
# _class_worker_llrs), plus building its Gauss rule, spread over the sweeps
# of a run.  A class that saves less than this over the next larger class
# is folded into it.  The value was set when an atom-edge pass cost about
# 15 ns, which made it about 150 us.  The split fold now takes about 5.5 ns
# per atom-edge, so the same overhead is worth more passes than this, and
# classes split where their cost does not warrant it.  The value is kept:
# moving it changes which graphs split, and so their margins to rounding.
_CLASS_OVERHEAD_EDGES = 10_000
# Start of the running maximum over atoms: finite, so that subtracting it
# from a -inf log product gives -inf rather than NaN.
_NO_ATOM_YET = -np.finfo(np.float64).max
# Atom-edge pairs per block of a split degree class's fold.
_BLOCK = 2**16


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
    their edges worker by worker here and fold in ``_class_worker_llrs``, a
    run of whole workers and a group of atoms at a time (see
    ``_class_blocks``), in two block buffers: five rows as wide as the
    widest run, and one of the most atom-edges a group takes, plus a row
    for the lanes.
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
        # The class's edges worker by worker, so that each worker's edges are
        # one run: its sums are a reduceat and their way back a repeat.
        edges = order[np.repeat(members, degrees)]
        # Every rule gives a worker whose other answers carry no information
        # the LLR of the prior's mean, up to rounding; the shift makes it the
        # top rule's value, bitwise when the two are within a factor of two.
        shift = prior_mean - _prior_mean_llr(mu, w)
        blocks = _class_blocks(degrees[members], mu, w)
        parts.append((edges, a[edges], mu, shift, blocks))
        for lo, hi, _, _, groups in blocks:
            width = max(width, hi - lo)
            block_size = max(block_size, *(plus.size * (hi - lo) for _, plus, _, _ in groups))
    return partial(_class_worker_llrs, parts=parts, rows=np.empty((5, width)),
                   block=np.empty(block_size))


def _fold_width(n_edges: int) -> int:
    """Edges per block of the one-class fold: a 32nd of the edges, but at
    least half of ``_CHUNK``, so that its NumPy calls run over thousands of
    edges, and at most ``_CHUNK``.  Its five rows then take at most a sixth
    of an edge array on graphs of 256k edges or more, and a fifth at 200k."""
    return max(1, min(n_edges, _CHUNK, max(_CHUNK // 2, n_edges // 32)))


def _class_blocks(lengths: np.ndarray, mu: np.ndarray, w: np.ndarray) -> list:
    """A split class's fold plan over its edges listed worker by worker.

    The edges are cut into runs of whole workers of about ``_BLOCK / K``
    edges for a K-atom rule, and each run's atoms into groups of at most
    ``_BLOCK`` atom-edges: one or two groups, more where one worker's
    edges outgrow the run, and one atom at a time where they outgrow
    ``_BLOCK``.  Per run: its edge bounds, its workers' starts within it
    and their edge counts, and its ``_atom_groups``.
    """
    ends = np.cumsum(lengths)
    step = max(1, _BLOCK // mu.size)
    # A run ends with the first worker whose edges reach the next multiple of step.
    cuts = np.unique(np.append(np.searchsorted(ends, np.arange(step, ends[-1], step)) + 1,
                               ends.size))
    blocks, first = [], 0
    for last in cuts:
        lo, hi = (ends[first - 1] if first else 0), ends[last - 1]
        starts = ends[first:last] - lengths[first:last] - lo
        blocks.append((int(lo), int(hi), starts, lengths[first:last],
                       _atom_groups(mu, w, max(1, _BLOCK // (hi - lo)))))
        first = last
    return blocks


def _atom_groups(mu: np.ndarray, w: np.ndarray, size: int) -> list:
    """The rule's atoms in groups of ``size``: per group its atoms, the lane
    coefficients 1 and w (1 ± mu), and whether an atom has |mu| = 1."""
    plus, minus = w * (1.0 + mu), w * (1.0 - mu)
    return [(slice(k, k + size), np.append(1.0, plus[k:k + size]),
             np.append(1.0, minus[k:k + size]), bool(np.any(np.abs(mu[k:k + size]) >= 1.0)))
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

    Each part is a class's edges listed worker by worker, their answers,
    its rule's mu, its shift and its ``_class_blocks`` plan; ``rows`` and
    ``block`` are the buffers ``_class_kernel`` sized for them.  Writes and
    returns as ``_worker_llrs`` does; each run takes its change before it
    scatters.
    """
    change = 0.0
    # log1p(-1) = -inf is counted below, a lane ratio beyond the float range
    # overflows to an infinite LLR, and 0 / 0 marks zero mass.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for edges, a, atom_mu, shift, blocks in parts:
            for lo, hi, starts, lengths, groups in blocks:
                c_run, top, new_top, agree, disagree = rows[:, :hi - lo]
                np.take(c, edges[lo:hi], out=c_run, mode="clip")
                top.fill(_NO_ATOM_YET)
                agree.fill(0.0)
                disagree.fill(0.0)
                for at, plus, minus, certain in groups:
                    # Rows 1: take the group's logs, then their leave-one-out
                    # sums, then the weights exp(loo - top); row 0 takes each
                    # rescaled lane in turn, so that the lanes sum in atom order.
                    lanes = block[:plus.size * c_run.size].reshape(plus.size, c_run.size)
                    logs = lanes[1:]
                    np.log1p(np.multiply(atom_mu[at, None], c_run, out=logs), out=logs)
                    # A factor 1 + mu c == 0, possible only at |mu| = 1 as |c| <= 1,
                    # is counted per worker instead of summed as -inf, so exactly
                    # the worker's other edges get a -inf product.
                    zero = None
                    if certain and logs.min(initial=0.0) == -np.inf:
                        zero = logs == -np.inf
                        logs[zero] = 0.0
                        n_zero = np.add.reduceat(zero, starts, axis=1, dtype=np.intp)
                    sums = np.add.reduceat(logs, starts, axis=1)
                    np.subtract(np.repeat(sums, lengths, axis=1), logs, out=logs)
                    if zero is not None:
                        logs[np.repeat(n_zero, lengths, axis=1) > zero] = -np.inf
                    np.maximum(top, logs.max(axis=0), out=new_top)
                    np.exp(np.subtract(logs, new_top, out=logs), out=logs)
                    rescale = np.exp(np.subtract(top, new_top, out=top), out=top)
                    np.multiply(agree, rescale, out=lanes[0])
                    np.einsum("k,ke->e", plus, lanes, out=agree)
                    np.multiply(disagree, rescale, out=lanes[0])
                    np.einsum("k,ke->e", minus, lanes, out=disagree)
                    top, new_top = new_top, top
                ratio = np.log(np.divide(agree, disagree, out=agree), out=agree)
                a_run = a[lo:hi]
                np.multiply(a_run, ratio, out=ratio)
                # Both maxima are spent: their rows take the shift and the old
                # messages' tanh(llr / 2), and the magnetizations' row the new.
                ratio += np.multiply(a_run, shift, out=top, dtype=np.float64)
                old = np.take(lam, edges[lo:hi], out=new_top, mode="clip")
                old = np.tanh(np.divide(old, 2.0, out=old), out=old)
                y = np.tanh(np.divide(ratio, 2.0, out=c_run), out=c_run)
                change = np.maximum(change, _max_change(y, old))
                lam[edges[lo:hi]] = ratio
    return float(change)


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
