"""End-to-end acceptance suite.

Each test prints exactly one ``ACCEPTANCE <n>: PASS|FAIL (detail)`` line and
then asserts, so a plain ``pytest -s tests/test_acceptance.py`` doubles as an
acceptance report.  All tolerances are pinned in the assertions; statistical
orderings use a 3-sigma pooled-standard-error slack.
"""
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import crowdbp as cb
from crowdbp.bp import bp_init, bp_update_worker_messages
from crowdbp.priors import FactorTable
from tests.conftest import random_atom_prior, random_bipartite_tree, random_small_graph

MASTER = 20260815
# The sweeps' rows do not depend on the process count (test_10 and
# TestRunExperiment::test_process_count_does_not_change_the_csv), so they
# use every CPU.
SWEEP_THREADS = os.cpu_count() or 1


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({detail})")
    assert ok, f"acceptance check {number} failed: {detail}"


def _rows(rows, name):
    return {(row.l, row.r): row for row in rows if row.estimator == name}


def _slack(a, b) -> float:
    return 3.0 * math.hypot(a.std_error, b.std_error)


@pytest.fixture(scope="module")
def regular_sweep():
    """n=1000 spammer-hammer sweep over the per-task budget, 100 trials."""
    config = cb.ExperimentConfig(
        n_tasks=1000, sweep_values=(2, 3, 5, 10, 15, 20), fixed_degree=5,
        prior="sh", estimators=("mv", "kos", "bp"), sweep="l",
        trials=100, seed=MASTER, timing=False, threads=SWEEP_THREADS)
    start = time.perf_counter()
    rows = cb.run_experiment(config)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_sweep():
    """n=200 spammer-hammer sweep comparing belief propagation to the
    revealed-boundary tree oracle, 100 trials."""
    config = cb.ExperimentConfig(
        n_tasks=200, sweep_values=(2, 5, 10, 15), fixed_degree=5,
        prior="sh", estimators=("bp", "oracle-task"), sweep="l",
        trials=100, seed=MASTER + 1, timing=False, threads=SWEEP_THREADS)
    return cb.run_experiment(config)


@pytest.fixture(scope="module")
def bootstrap_sweep():
    """n~200 adversarial-prior sweep over the per-worker budget comparing
    bootstrapped belief propagation to the true-prior run, 100 trials."""
    config = cb.ExperimentConfig(
        n_tasks=200, sweep_values=(3, 5, 9), fixed_degree=5,
        prior="ash", estimators=("bp", "ebp1", "ebp2"), sweep="r",
        trials=100, seed=MASTER + 2, timing=False, adjust_n=True,
        threads=SWEEP_THREADS)
    return cb.run_experiment(config)


def test_01_tree_beliefs_match_exhaustive_enumeration(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        g = random_bipartite_tree(rng, max_tasks=12, max_extra=14)
        prior = random_atom_prior(rng)
        answers = rng.choice([-1, 1], size=g.n_edges)
        report = cb.bp_run(g, answers, prior,
                           k_max=g.n_tasks + g.n_workers + 2, tol=0.0)
        pairs = cb.brute_force_marginals(g, answers, prior)
        belief = np.column_stack(((1.0 + report.margins) / 2.0,
                                  (1.0 - report.margins) / 2.0))
        worst = max(worst, float(np.abs(belief - pairs).max()))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-9 and elapsed < 60.0,
            f"max |belief - enumerated marginal| = {worst:.3e} < 1e-9 over 500 "
            f"random trees (n <= 12) in {elapsed:.1f}s < 60s")


def test_02_closed_form_worker_kernel_equals_naive_sum(rng):
    worst = 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 9))
        g = cb.AssignmentGraph(r, 1, np.array([[t, 0] for t in range(r)]))
        answers = rng.choice([-1, 1], size=r)
        table = FactorTable.build(random_atom_prior(rng), r)
        t2w = rng.uniform(0.01, 1.0, size=(r, 2))
        t2w /= t2w.sum(axis=1, keepdims=True)
        state = replace(bp_init(g), msg_task_to_worker=t2w)
        fast = bp_update_worker_messages(state, g, answers, table,
                                         kernel="magnetization")
        slow = bp_update_worker_messages(state, g, answers, table, kernel="naive")
        worst = max(worst, float(np.abs(fast.msg_worker_to_task
                                        - slow.msg_worker_to_task).max()))
    _report(2, worst < 1e-12,
            f"max kernel disagreement = {worst:.3e} < 1e-12 over 1000 "
            "single-worker configurations (r <= 8)")


def test_03_single_iteration_reduces_to_majority_vote(rng):
    checked = 0
    mismatches = 0
    while checked < 200:
        prior = random_atom_prior(rng)
        mu, _ = prior.moments()
        if mu <= 1e-6:
            continue
        n_tasks = int(rng.integers(1, 7))
        degrees = rng.integers(1, 7, size=n_tasks)
        edges = []
        worker = 0
        for t in range(n_tasks):
            for _ in range(degrees[t]):
                edges.append((t, worker))
                worker += 1
        g = cb.AssignmentGraph(n_tasks, worker, np.array(edges))
        answers = rng.choice([-1, 1], size=g.n_edges)
        one_step = cb.bp_run(g, answers, prior, k_max=1)
        votes = cb.majority_vote(g, answers)
        if not np.array_equal(one_step.labels, votes.labels):
            mismatches += 1
        checked += 1
    _report(3, mismatches == 0,
            f"{mismatches} label mismatches over {checked} instances with "
            "single-answer workers (ties included, decoded identically)")


def test_04_full_answer_set_never_decodes_worse_than_a_subset(rng):
    checked = 0
    violations = 0
    for i in range(120):
        g = random_small_graph(rng)
        prior = cb.spammer_hammer() if i % 3 == 0 else random_atom_prior(rng)
        root = int(rng.integers(g.n_tasks))
        subsets = [np.empty(0, dtype=np.int64)]
        for _ in range(2):
            size = int(rng.integers(0, g.n_edges + 1))
            subsets.append(rng.choice(g.n_edges, size=size, replace=False))
        for subset in subsets:
            delta_full, delta_subset = cb.subset_monotonicity_check(
                g, prior, subset, root=root)
            checked += 1
            if not delta_full >= delta_subset:
                violations += 1
    _report(4, violations == 0 and checked >= 300,
            f"{violations} strict violations of gain(full) >= gain(subset) over "
            f"{checked} enumerable instances (|E| <= 10), zero tolerance")


def test_05_majority_vote_error_stays_under_analytic_bound(regular_sweep):
    rows, _ = regular_sweep
    mv = _rows(rows, "mv")
    bound = _rows(rows, "bound:mv")
    pinned = {10: 0.449, 15: 0.301, 20: 0.202}
    ok = True
    details = []
    for l, rounded in pinned.items():
        row, cap = mv[(l, 5)], bound[(l, 5)].mean_error
        ok &= abs(cap - rounded) < 5e-4
        ok &= row.mean_error <= cap + 3.0 * row.std_error
        details.append(f"l={l}: {row.mean_error:.3f} <= {cap:.3f}+3se")
    _report(5, ok, "; ".join(details))


def test_06_belief_propagation_dominates_both_baselines(regular_sweep):
    rows, elapsed = regular_sweep
    bp, mv, kos = _rows(rows, "bp"), _rows(rows, "mv"), _rows(rows, "kos")
    ok = elapsed < 600.0
    worst_excess = -1.0
    for key, bp_row in bp.items():
        best = min((mv[key], kos[key]), key=lambda row: row.mean_error)
        excess = bp_row.mean_error - best.mean_error - _slack(bp_row, best)
        worst_excess = max(worst_excess, excess)
        ok &= excess <= 0.0
    _report(6, ok,
            f"bp <= best baseline + 3 pooled se at l in (2,3,5,10,15,20); worst "
            f"slack margin {worst_excess:.4f} <= 0; sweep took {elapsed:.0f}s < 600s")


def test_07_threshold_flips_the_baseline_ordering(regular_sweep):
    rows, _ = regular_sweep
    mv, kos = _rows(rows, "mv"), _rows(rows, "kos")
    low_mv, low_kos = mv[(2, 5)], kos[(2, 5)]
    high_mv, high_kos = mv[(15, 5)], kos[(15, 5)]
    low_gap = low_kos.mean_error - low_mv.mean_error
    high_gap = high_mv.mean_error - high_kos.mean_error
    ok = (low_gap >= _slack(low_mv, low_kos)
          and high_gap >= _slack(high_mv, high_kos))
    _report(7, ok,
            f"l=2: mv beats kos by {low_gap:.3f} >= {_slack(low_mv, low_kos):.3f}; "
            f"l=15: kos beats mv by {high_gap:.3f} >= {_slack(high_mv, high_kos):.3f}")


def test_08_gap_to_the_clairvoyant_tree_decoder_is_negligible(oracle_sweep):
    bp, oracle = _rows(oracle_sweep, "bp"), _rows(oracle_sweep, "oracle-task")
    gap = bp[(15, 5)].mean_error - oracle[(15, 5)].mean_error
    ok = gap <= 0.01
    for key, oracle_row in oracle.items():
        ok &= oracle_row.mean_error <= bp[key].mean_error + _slack(oracle_row, bp[key])
    _report(8, ok,
            f"bp - oracle gap at l=15 is {gap:.4f} <= 0.01; oracle <= bp + 3 "
            "pooled se at l in (2,5,10,15)")


def test_09_bootstrapped_prior_tracks_the_true_prior(bootstrap_sweep):
    bp = _rows(bootstrap_sweep, "bp")
    ebp1 = _rows(bootstrap_sweep, "ebp1")
    ebp2 = _rows(bootstrap_sweep, "ebp2")
    ok = True
    worst_gap = 0.0
    for key, bp_row in bp.items():
        gap = abs(ebp2[key].mean_error - bp_row.mean_error)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 0.02
        ok &= ebp2[key].mean_error <= ebp1[key].mean_error + _slack(ebp2[key], ebp1[key])
    _report(9, ok,
            f"|ebp2 - bp| <= 0.02 at r in (3,5,9) under the adversarial prior "
            f"(worst {worst_gap:.4f}); ebp2 <= ebp1 + 3 pooled se")


def test_10_benchmark_csv_is_identical_across_thread_counts(tmp_path):
    config = {
        "n_tasks": 60, "sweep_values": [2, 4], "fixed_degree": 4,
        "prior": "sh",
        "estimators": ["mv", "kos", "bp", "ebp1", "ebp2",
                       "oracle-work", "oracle-task", "em"],
        "trials": 8, "seed": 77, "timing": False,
    }
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    ok = True
    for threads in (1, 8):
        out = tmp_path / f"out-{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "crowdbp", "bench", "--config", str(cfg),
             "--threads", str(threads), "--out", str(out)],
            capture_output=True, text=True, timeout=600)
        ok &= proc.returncode == 0
        outputs.append(out.read_bytes() if out.exists() else b"")
    ok &= bool(outputs[0]) and outputs[0] == outputs[1]
    _report(10, ok,
            "bench CLI wrote byte-identical CSV with --threads 1 and --threads 8 "
            f"({len(outputs[0])} bytes, all 8 estimators)")


def _shaped_dataset(n_tasks: int, n_workers: int, degree: int, seed: int) -> cb.Dataset:
    rng = cb.rng_from(seed)
    edges = []
    for t in range(n_tasks):
        forced = t % n_workers
        extras = [int(w) for w in rng.permutation(n_workers) if w != forced]
        for w in sorted([forced, *extras[:degree - 1]]):
            edges.append((t, w))
    graph = cb.AssignmentGraph(n_tasks, n_workers, np.array(edges))
    labels = rng.choice([-1, 1], size=n_tasks)
    reliabilities = rng.choice([0.5, 0.9], size=n_workers)
    truth = cb.GroundTruth(labels, reliabilities)
    answers = cb.sample_answers(graph, truth, cb.child_seed(seed, "answers"))
    return cb.Dataset(graph=graph, answers=answers, truth_labels=truth.labels,
                      reliabilities=truth.reliabilities)


def test_11_file_round_trip_and_real_scale_ordering(tmp_path):
    shapes = {"small": (50, 28), "large": (462, 76)}
    estimators = ("mv", "kos", "bp", "ebp1", "ebp2",
                  "oracle-work", "oracle-task", "em")
    ok = True
    loaded = {}
    for name, (n_tasks, n_workers) in shapes.items():
        dataset = _shaped_dataset(n_tasks, n_workers, 10, cb.child_seed(MASTER + 3, name))
        path = tmp_path / f"{name}.csv"
        cb.save_dataset(dataset, str(path))
        back = cb.load_dataset(str(path))
        ok &= (back.graph.n_tasks, back.graph.n_workers) == (n_tasks, n_workers)
        sub = cb.subsample_assignments(back, 5, cb.child_seed(MASTER + 3, name, "sub"))
        for estimator in estimators:
            report = cb.run_inference(sub, estimator, prior_spec="sh", seed=9)
            error = cb.error_rate(report, sub.truth_labels)
            ok &= 0.0 <= error <= 1.0
        loaded[name] = back

    errs = {"oracle-task": [], "ebp2": [], "mv": []}
    for i in range(100):
        sub = cb.subsample_assignments(loaded["small"], 5,
                                       cb.child_seed(MASTER + 4, "resample", i))
        for estimator in errs:
            report = cb.run_inference(sub, estimator, prior_spec="sh", seed=9)
            errs[estimator].append(cb.error_rate(report, sub.truth_labels))
    mean = {k: float(np.mean(v)) for k, v in errs.items()}
    se = {k: float(np.std(v, ddof=1) / math.sqrt(len(v))) for k, v in errs.items()}

    def pooled(a, b):
        return 3.0 * math.hypot(se[a], se[b])

    ok &= mean["oracle-task"] <= mean["ebp2"] + pooled("oracle-task", "ebp2")
    ok &= mean["ebp2"] <= mean["mv"] + pooled("ebp2", "mv")
    _report(11, ok,
            "50x28 and 462x76 files round-trip through save/load/subsample and "
            "all 8 estimators; over 100 resamples oracle-task "
            f"({mean['oracle-task']:.3f}) <= ebp2 ({mean['ebp2']:.3f}) <= mv "
            f"({mean['mv']:.3f}) within 3 pooled se")
