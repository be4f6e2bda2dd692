"""Tests of the benchmark itself: tiny passes and its output checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import crowdbp as cb
import run
import workloads as wl


# The workload-specific end-to-end metrics each record must carry.
NAMED = {
    "regular-1m": {"bp_answers_per_s", "kos_answers_per_s", "em_answers_per_s",
                   "bp_error_rate"},
    "sweep-small": {"sweep_trials_per_s", "bp_error_rate", "ebp2_error_rate"},
    "file-1m": {"simulate_s", "infer_s"},
    "skewed-real": {"bp_answers_per_s", "ebp2_answers_per_s", "kos_answers_per_s",
                    "em_answers_per_s", "bp_error_rate", "ebp2_error_rate"},
}
EVERYWHERE = {"setup_s", "peak_rss_mb", "failed_share"}


@pytest.fixture(scope="module")
def declared():
    return run.declared_metrics(run.ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_pass_emits_every_metric_with_its_unit(name, trace, declared, tmp_path):
    result, record = run.run_workload(name, seed=3, seconds=1.0, trace=bool(trace),
                                      sizes=wl.TINY, out=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared[str(trace)]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert set(record["named_metrics"]) == NAMED[name] | EVERYWHERE
    for metric in record["named_metrics"].values():
        assert metric["unit"] and not math.isnan(metric["value"])
    assert record["environment"]["OPENBLAS_NUM_THREADS"]
    json.dumps(result)  # the result line must be plain JSON


@pytest.fixture(scope="module")
def small():
    ctx = wl.Context(run.ROOT, run.ROOT, 5, wl.TINY, 1)
    return wl.regular_instance(ctx, 200)


def test_flipped_label_trips_the_sign_check(small):
    report = cb.majority_vote(small.graph, small.answers)
    assert wl.report_problems("mv", report.labels, report.margins) == []
    labels = report.labels.copy()
    labels[7] = -labels[7]
    assert wl.report_problems("mv", labels, report.margins)
    assert wl.report_problems("mv", report.labels, report.margins * 2.0 + 0.5)


def _infer_text(report, order):
    lines = ["task,label,margin"]
    lines += [f"{i},{report.labels[i]:+d},{float(report.margins[i])!r}" for i in order]
    return "\n".join(lines) + "\n"


def test_infer_output_check_matches_majority_vote_and_catches_a_flip(small):
    report = cb.majority_vote(small.graph, small.answers)
    order = np.random.default_rng(0).permutation(small.graph.n_tasks)
    problems, error = wl.infer_output_problems(_infer_text(report, order), report,
                                               small.truth.labels)
    assert problems == [] and error == cb.error_rate(report, small.truth.labels)
    flipped = report.labels.copy()
    flipped[order[3]] = -flipped[order[3]]
    bad = cb.EstimateReport(flipped, report.margins, 0, True, 0.0)
    problems, _ = wl.infer_output_problems(_infer_text(bad, order), report,
                                           small.truth.labels)
    assert any("majority_vote" in p for p in problems)


def test_a_failing_decode_is_counted_with_its_exception_name(small):
    def degenerate():
        raise cb.NumericDegeneracyError("zero mass")

    problems = []
    op = wl.decode("bp", small.graph, small.truth.labels, degenerate, problems)
    assert op.failure == "NumericDegeneracyError" and problems == []


def test_oracle_worse_than_bp_beyond_slack_is_flagged():
    def row(name, err, se):
        return {"estimator": name, "l": "5", "r": "5", "mean_error": repr(err),
                "std_error": repr(se)}

    assert wl.sweep_problems([row("bp", 0.10, 0.01), row("oracle-task", 0.12, 0.01)]) == []
    assert wl.sweep_problems([row("bp", 0.10, 0.01), row("oracle-task", 0.16, 0.01)])


def test_skewed_instance_shape_is_fixed_and_seeded():
    degrees = wl.zipf_degrees(20_000, 1_000)
    assert degrees.sum() == 20_000
    assert 0.42 < np.mean(degrees == 1) < 0.46 and 900 < degrees.max() <= 1_000
    ctx = wl.Context(run.ROOT, run.ROOT, 5, wl.TINY, 1)
    base, prolific = wl.skewed_instances(ctx, 300, 100)
    again, _ = wl.skewed_instances(ctx, 300, 100)
    assert np.array_equal(base.graph.edges, again.graph.edges)
    assert np.array_equal(base.answers.answers, again.answers.answers)
    assert prolific.graph.n_workers == base.graph.n_workers + 1
    assert prolific.graph.worker_degrees[-1] == 120
    assert np.array_equal(prolific.answers.answers[:base.graph.n_edges],
                          base.answers.answers)


def test_without_the_package_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "regular-1m",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
