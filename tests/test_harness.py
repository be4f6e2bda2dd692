import dataclasses
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import experiment, graph as graph_module
from tests.test_dataset_csv import assert_same_outcome

def csv_text(rows) -> str:
    """The bytes ``write_metrics_csv`` writes for ``rows``, as text."""
    buffer = io.StringIO(newline="")
    cb.write_metrics_csv(rows, buffer)
    return buffer.getvalue()


needs_pool = pytest.mark.skipif(
    experiment._usable_cpus() < 2 or "fork" not in multiprocessing.get_all_start_methods(),
    reason="trial processes need two usable CPUs and the fork start method")


def make_sim_dataset(n=20, l=6, r=4, seed=11, with_truth=True, with_rels=True):
    g = cb.generate_regular_bipartite(n, l, r, seed=cb.child_seed(seed, "g"))
    truth = cb.sample_ground_truth(g, cb.spammer_hammer(), cb.child_seed(seed, "t"))
    answers = cb.sample_answers(g, truth, cb.child_seed(seed, "a"))
    return cb.Dataset(
        graph=g,
        answers=answers,
        truth_labels=truth.labels if with_truth else None,
        reliabilities=truth.reliabilities if with_rels else None,
    ), truth


class TestErrorRate:
    def test_basic_fractions(self):
        truth = np.array([1, 1, -1, -1])
        assert cb.error_rate(np.array([1, 1, -1, -1]), truth) == 0.0
        assert cb.error_rate(np.array([-1, -1, 1, 1]), truth) == 1.0
        assert cb.error_rate(np.array([1, 1, -1, 1]), truth) == 0.25

    def test_accepts_reports(self):
        g = cb.AssignmentGraph(1, 1, np.array([[0, 0]]))
        report = cb.majority_vote(g, np.array([1]))
        assert cb.error_rate(report, np.array([1])) == 0.0

    def test_validation(self):
        with pytest.raises(cb.ParameterError):
            cb.error_rate(np.array([1, 1]), np.array([1]))
        with pytest.raises(cb.ParameterError):
            cb.error_rate(np.array([]), np.array([]))


class TestTheoreticalBounds:
    def test_frozen_values(self):
        mv, kos = cb.theoretical_bounds(15, 5, 0.4, 0.32)
        assert mv == pytest.approx(0.30119421191220214, rel=1e-12)
        assert kos == pytest.approx(0.592131835360067, rel=1e-12)

    def test_mv_bound_decays_with_degree(self):
        values = [cb.theoretical_bounds(l, 5, 0.4, 0.32)[0] for l in (10, 15, 20)]
        assert values == pytest.approx([math.exp(-0.8), math.exp(-1.2), math.exp(-1.6)])

    def test_second_bound_needs_the_spectral_barrier(self):
        assert cb.theoretical_bounds(2, 2, 0.4, 0.32)[1] is None
        # q^2 (l-1)(r-1) == 1 exactly: still undefined
        assert cb.theoretical_bounds(3, 3, 0.4, 0.5)[1] is None
        assert cb.theoretical_bounds(3, 3, 0.4, 0.51)[1] is not None

    def test_validation(self):
        with pytest.raises(cb.ParameterError):
            cb.theoretical_bounds(0, 5, 0.4, 0.32)
        with pytest.raises(cb.ParameterError):
            cb.theoretical_bounds(5, 5, 1.5, 0.32)
        with pytest.raises(cb.ParameterError):
            cb.theoretical_bounds(5, 5, 0.4, -0.1)


class TestTreeProbabilityBound:
    def test_frozen_value(self):
        assert cb.tree_probability_bound(100, 2, 2, 1) == pytest.approx(0.12, rel=1e-12)

    def test_degree_one_side_is_always_tree(self):
        assert cb.tree_probability_bound(100, 1, 7, 1) == 0.0

    def test_clamped_to_one(self):
        assert cb.tree_probability_bound(10, 5, 5, 2) == 1.0

    def test_power_beyond_every_float_is_clamped_to_one(self):
        # 56 ** 400 exceeds the largest float.
        assert cb.tree_probability_bound(100, 15, 5, 200) == 1.0

    def test_equals_the_formula_wherever_it_is_finite(self):
        for n, l, r, k in itertools.product((10, 100, 10**6), (1, 2, 3, 6), (1, 2, 5),
                                            (0, 1, 2, 4, 8)):
            formula = 3.0 * l * r / n * float((l - 1) * (r - 1)) ** (2 * k)
            assert cb.tree_probability_bound(n, l, r, k) == min(1.0, formula)

    def test_validation(self):
        with pytest.raises(cb.ParameterError):
            cb.tree_probability_bound(100, 2, 2, -1)


class TestDatasetFiles:
    def test_round_trip_with_truth_and_reliability(self, tmp_path):
        dataset, truth = make_sim_dataset()
        path = str(tmp_path / "sim.csv")
        cb.save_dataset(dataset, path)
        loaded = cb.load_dataset(path)

        tn = np.array([int(s) for s in loaded.task_names])
        wn = np.array([int(s) for s in loaded.worker_names])
        np.testing.assert_array_equal(tn[loaded.graph.edges[:, 0]],
                                      dataset.graph.edges[:, 0])
        np.testing.assert_array_equal(wn[loaded.graph.edges[:, 1]],
                                      dataset.graph.edges[:, 1])
        np.testing.assert_array_equal(loaded.answers.answers, dataset.answers.answers)
        np.testing.assert_array_equal(loaded.truth_labels, truth.labels[tn])
        np.testing.assert_array_equal(loaded.reliabilities, truth.reliabilities[wn])

    def test_round_trip_answers_only(self, tmp_path):
        dataset, _ = make_sim_dataset(with_truth=False, with_rels=False)
        path = str(tmp_path / "plain.csv")
        cb.save_dataset(dataset, path)
        loaded = cb.load_dataset(path)
        assert loaded.truth_labels is None
        assert loaded.reliabilities is None
        assert loaded.graph.n_edges == dataset.graph.n_edges

    def test_zero_one_alphabet(self, tmp_path):
        path = tmp_path / "01.csv"
        path.write_text("# alphabet=01\nt0,w0,1,1\nt0,w1,0,1\nt1,w0,0,0\n")
        loaded = cb.load_dataset(str(path))
        assert loaded.answers.answers.tolist() == [1, -1, -1]
        assert loaded.truth_labels.tolist() == [1, -1]

    def test_plus_token_optional(self, tmp_path):
        path = tmp_path / "pm.csv"
        path.write_text("a,b,+1\na,c,1\nd,b,-1\n")
        loaded = cb.load_dataset(str(path))
        assert loaded.answers.answers.tolist() == [1, 1, -1]

    def test_ids_compact_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("beta,w9,+1\nalpha,w2,-1\nbeta,w2,+1\n")
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names == ("beta", "alpha")
        assert loaded.worker_names == ("w9", "w2")
        assert loaded.graph.edges.tolist() == [[0, 0], [1, 1], [0, 1]]

    def test_each_text_gets_one_id_whatever_its_key(self, tmp_path):
        # A name over 32 bytes or holding a NUL is keyed by a number, on a
        # quoted line as on a plain one; the UTF-8 bytes of "\xff" and
        # "\U0010ffff" lie next to the byte 0xFF that marks such keys.
        long, nul, ff, top = "L" * 40, "n\0ul", "\xff", "\U0010ffff"
        path = tmp_path / "keys.csv"
        path.write_text("\n".join([
            f'"{long}",{ff},+1', f"{long},{top},-1", f'"{nul}","{ff}",-1', f"{ff},{long},+1",
            f"{top},{ff},+1", f'"{top}","{nul}",-1', f"{nul},{long},+1", f'{long},"{long}",-1',
        ]) + "\n")
        assert_same_outcome(path)
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names == (long, nul, ff, top)
        assert loaded.worker_names == (ff, top, long, nul)
        assert loaded.graph.edges.tolist() == [[0, 0], [0, 1], [1, 0], [2, 2], [3, 0], [3, 3],
                                               [1, 2], [0, 2]]

    @pytest.mark.parametrize("content, line, fragment", [
        ("# alphabet=spam\nt,w,+1\n", 1, "unknown alphabet"),
        ("t,w\n", 1, "expected 3-5 columns"),
        ("t,w,+1\nt,v,+1,+1\n", 2, "expected 3 columns"),
        ("t,w,maybe\n", 1, "bad answer"),
        ("t,w,+1\nt,w,-1\n", 2, "duplicate answer"),
        ("t,w,+1,+1\nt,v,+1,-1\n", 2, "conflicting truth"),
        ("t,w,+1,+1,high\n", 1, "bad reliability"),
        ("t,w,+1,+1,1.5\n", 1, "outside"),
        ("t,w,+1,+1,0.8\ns,w,+1,+1,0.9\n", 2, "conflicting reliability"),
    ])
    def test_format_errors_carry_line_numbers(self, tmp_path, content, line, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(cb.DataFormatError, match=f"line {line}") as info:
            cb.load_dataset(str(path))
        assert fragment in str(info.value)

    def test_raw_answers_subsample_and_save_as_an_answer_matrix(self, tmp_path):
        # A Dataset built on a bare array of answers used to keep it, and
        # both calls below ended in an AttributeError on ``.answers``.  A
        # given AnswerMatrix is kept, not checked again.
        g = cb.generate_regular_bipartite(4, 2, 2, seed=1)
        values = np.array([1, -1, 1, 1, -1, 1, 1, -1])
        matrix = cb.AnswerMatrix(values)
        raw, wrapped = cb.Dataset(g, values), cb.Dataset(g, matrix)
        assert wrapped.answers is matrix
        raw_sub, wrapped_sub = (cb.subsample_assignments(d, 1, 0) for d in (raw, wrapped))
        np.testing.assert_array_equal(raw_sub.graph.edges, wrapped_sub.graph.edges)
        np.testing.assert_array_equal(raw_sub.answers.answers, wrapped_sub.answers.answers)
        cb.save_dataset(raw, str(tmp_path / "raw.csv"))
        cb.save_dataset(wrapped, str(tmp_path / "wrapped.csv"))
        assert (tmp_path / "raw.csv").read_bytes() == (tmp_path / "wrapped.csv").read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# alphabet=pm1\n\n")
        with pytest.raises(cb.DataFormatError, match="no answer rows"):
            cb.load_dataset(str(path))


class TestSubsample:
    def test_caps_task_degrees(self):
        dataset, _ = make_sim_dataset()
        sub = cb.subsample_assignments(dataset, 3, seed=5)
        assert sub.graph.task_degrees.max() == 3
        assert sub.graph.task_degrees.min() == 3
        np.testing.assert_array_equal(sub.truth_labels, dataset.truth_labels)

    def test_reliabilities_follow_kept_workers(self):
        dataset, _ = make_sim_dataset()
        sub = cb.subsample_assignments(dataset, 2, seed=5)
        originals = np.array([int(s) for s in sub.worker_names])
        np.testing.assert_array_equal(sub.reliabilities,
                                      dataset.reliabilities[originals])

    def test_deterministic_in_seed(self):
        dataset, _ = make_sim_dataset()
        a = cb.subsample_assignments(dataset, 3, seed=9)
        b = cb.subsample_assignments(dataset, 3, seed=9)
        np.testing.assert_array_equal(a.graph.edges, b.graph.edges)
        np.testing.assert_array_equal(a.answers.answers, b.answers.answers)

    def test_identity_when_target_covers_all(self):
        dataset, _ = make_sim_dataset()
        sub = cb.subsample_assignments(dataset, 6, seed=5)
        np.testing.assert_array_equal(sub.graph.edges, dataset.graph.edges)
        np.testing.assert_array_equal(sub.answers.answers, dataset.answers.answers)
        assert sub.graph.n_workers == dataset.graph.n_workers

    def test_isolated_workers_are_dropped(self):
        g = cb.AssignmentGraph(2, 3, np.array([[0, 0], [0, 1], [1, 2]]))
        dataset = cb.Dataset(graph=g, answers=cb.AnswerMatrix(np.array([1, -1, 1])))
        sub = cb.subsample_assignments(dataset, 1, seed=0)
        assert sub.graph.n_workers == 2
        assert sub.graph.task_degrees.tolist() == [1, 1]

    def test_target_must_be_positive(self):
        dataset, _ = make_sim_dataset()
        with pytest.raises(cb.ParameterError):
            cb.subsample_assignments(dataset, 0, seed=0)

    @pytest.mark.parametrize("columns,message", [
        (dict(reliabilities=np.full(5, 0.8)), "reliabilities must hold one value per worker"),
        (dict(worker_names=("a", "b")), "worker names must hold one value per worker"),
        (dict(truth_labels=np.ones(3, dtype=np.int64)),
         "truth labels must hold one value per task"),
    ], ids=["short-reliabilities", "short-worker-names", "short-truth"])
    def test_columns_of_the_wrong_length_are_refused(self, columns, message):
        # The first two used to end in a bare IndexError, and the 3 truth
        # labels of 20 tasks were kept.  The Dataset refuses them when built.
        dataset, _ = make_sim_dataset()
        with pytest.raises(cb.ParameterError, match=message):
            cb.subsample_assignments(dataclasses.replace(dataset, **columns), 2, seed=0)


class TestRunInference:
    def test_majority_vote_needs_nothing(self):
        dataset, _ = make_sim_dataset(with_truth=False, with_rels=False)
        report = cb.run_inference(dataset, "mv")
        assert report.labels.shape == (dataset.graph.n_tasks,)

    def test_bp_with_prior_spec(self):
        dataset, _ = make_sim_dataset(with_truth=False, with_rels=False)
        report = cb.run_inference(dataset, "bp", prior_spec="sh")
        assert report.labels.shape == (dataset.graph.n_tasks,)

    def test_bp_falls_back_to_reliability_column(self):
        dataset, _ = make_sim_dataset()
        report = cb.run_inference(dataset, "bp")
        assert report.labels.shape == (dataset.graph.n_tasks,)

    def test_bp_without_any_prior_source_fails(self):
        dataset, _ = make_sim_dataset(with_truth=False, with_rels=False)
        with pytest.raises(cb.ParameterError, match="prior"):
            cb.run_inference(dataset, "bp")

    def test_truth_requirement(self):
        with_truth, _ = make_sim_dataset()
        report = cb.run_inference(with_truth, "oracle-task", prior_spec="sh")
        assert report.labels.shape == (with_truth.graph.n_tasks,)
        without, _ = make_sim_dataset(with_truth=False, with_rels=False)
        with pytest.raises(cb.ParameterError, match="truth"):
            cb.run_inference(without, "oracle-task", prior_spec="sh")

    def test_reliability_requirement(self):
        with_rels, _ = make_sim_dataset()
        assert cb.run_inference(with_rels, "oracle-work").labels.size
        without, _ = make_sim_dataset(with_truth=False, with_rels=False)
        with pytest.raises(cb.ParameterError, match="reliability"):
            cb.run_inference(without, "oracle-work")

    def test_short_reliability_column_is_refused(self):
        # bp used to build its empirical prior from the 5 values of 20 workers.
        dataset, _ = make_sim_dataset()
        with pytest.raises(cb.ParameterError, match="reliabilities must hold one value per"):
            cb.run_inference(dataclasses.replace(dataset, reliabilities=np.full(5, 0.8)), "bp")


class TestExperimentConfig:
    def base_kwargs(self):
        return dict(n_tasks=12, sweep_values=(2, 3), fixed_degree=3,
                    prior="sh", estimators=("mv",))

    def test_accepts_reasonable_values(self):
        cfg = cb.ExperimentConfig(**self.base_kwargs())
        assert cfg.sweep == "l" and cfg.trials == 100

    @pytest.mark.parametrize("patch", [
        {"sweep": "x"}, {"trials": 0}, {"estimators": ()}, {"sweep_values": ()},
        {"prior": "bogus"}, {"estimators": ("mv", "nope")}, {"tol": -1.0},
        {"n_tasks": 0}, {"sweep_values": (0,)}, {"threads": 0},
    ])
    def test_rejects_bad_values(self, patch):
        with pytest.raises(cb.ParameterError):
            cb.ExperimentConfig(**{**self.base_kwargs(), **patch})

    def test_api_checks_the_declared_types(self):
        # Only the config file loader refused these before; the API kept them.
        with pytest.raises(cb.ParameterError):
            cb.ExperimentConfig(n_tasks=12, sweep_values=(3,), fixed_degree=3, prior="sh",
                                estimators=("mv",), timing=5, adjust_n=None, tol=True)

    @pytest.mark.parametrize("name, value", [
        ("timing", 5), ("timing", None), ("adjust_n", None), ("adjust_n", 1),
        ("tol", True), ("tol", None), ("prior", 3), ("sweep", 1),
        ("estimators", ("mv", 2)),
    ])
    def test_api_rejects_each_wrong_type_by_name(self, name, value):
        with pytest.raises(cb.ParameterError, match=name):
            cb.ExperimentConfig(**{**self.base_kwargs(), name: value})

    def test_api_and_file_share_one_rule(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.base_kwargs(), "tol": 0,
                                    "sweep_values": [2, 3], "estimators": ["mv"]}))
        from_file = cb.load_experiment_config(str(path))
        from_api = cb.ExperimentConfig(**{**self.base_kwargs(), "tol": 0})
        assert from_file == from_api and type(from_api.tol) is float


class TestConfigFiles:
    FLAT = """
# sweep over the per-task budget
n_tasks = 12
sweep_values = 2, 3
fixed_degree = 3
prior = sh
estimators = mv, kos
trials = 4
timing = false
seed = 7
"""

    def as_json(self):
        return json.dumps({
            "n_tasks": 12, "sweep_values": [2, 3], "fixed_degree": 3,
            "prior": "sh", "estimators": ["mv", "kos"], "trials": 4,
            "timing": False, "seed": 7,
        })

    def test_flat_and_json_agree(self, tmp_path):
        flat = tmp_path / "cfg.txt"
        flat.write_text(self.FLAT)
        as_json = tmp_path / "cfg.json"
        as_json.write_text(self.as_json())
        assert cb.load_experiment_config(str(flat)) == cb.load_experiment_config(str(as_json))

    def test_flat_parses_fields(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(self.FLAT)
        cfg = cb.load_experiment_config(str(path))
        assert cfg.sweep_values == (2, 3)
        assert cfg.estimators == ("mv", "kos")
        assert cfg.timing is False
        assert cfg.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(self.FLAT + "wat = 1\n")
        with pytest.raises(cb.ParameterError, match="unknown config key"):
            cb.load_experiment_config(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        # The last of the two values used to be taken silently.
        path = tmp_path / "cfg.txt"
        path.write_text(self.FLAT + "trials = 3\n")
        with pytest.raises(cb.ParameterError) as info:
            cb.load_experiment_config(str(path))
        assert str(info.value) == f"{path}:11: repeated config key 'trials'"

    def test_repeated_json_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_tasks": 30, ' + self.as_json()[1:])
        with pytest.raises(cb.ParameterError) as info:
            cb.load_experiment_config(str(path))
        assert str(info.value) == f"{path}: repeated config key 'n_tasks'"

    def test_missing_keys_reported(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n_tasks = 12\n")
        with pytest.raises(cb.ParameterError, match="missing config keys"):
            cb.load_experiment_config(str(path))

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(cb.ParameterError, match="bad JSON"):
            cb.load_experiment_config(str(path))

    def test_bool_strings_validated(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(self.FLAT.replace("timing = false", "timing = maybe"))
        with pytest.raises(cb.ParameterError, match="true or false"):
            cb.load_experiment_config(str(path))

    def test_flat_without_equals_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n_tasks 12\n")
        with pytest.raises(cb.ParameterError, match="key = value"):
            cb.load_experiment_config(str(path))


class TestNearestFeasibleN:
    @pytest.mark.parametrize("n, l, r, expected", [
        (200, 5, 3, 201),
        (200, 5, 9, 198),
        (200, 5, 5, 200),
        (5, 1, 2, 6),
    ])
    def test_values(self, n, l, r, expected):
        assert cb.nearest_feasible_n(n, l, r) == expected

    def test_matches_the_nearest_first_search(self):
        def search(n, l, r):
            """Distance 0, 1, ... from n, the larger candidate first."""
            for delta in range(r + 1):
                for candidate in (n + delta, n - delta):
                    if candidate >= 1 and (candidate * l) % r == 0:
                        return candidate

        mismatches = [(n, l, r) for n in range(1, 151) for l in range(1, 31)
                      for r in range(1, 31) if cb.nearest_feasible_n(n, l, r) != search(n, l, r)]
        assert mismatches == []


class TestRunExperiment:
    def tiny_config(self, **overrides):
        kwargs = dict(n_tasks=12, sweep_values=(2, 3), fixed_degree=3,
                      prior="sh", estimators=("mv", "kos"), trials=4,
                      seed=21, timing=False)
        kwargs.update(overrides)
        return cb.ExperimentConfig(**kwargs)

    def test_row_layout(self):
        rows = cb.run_experiment(self.tiny_config())
        assert len(rows) == 10
        names = [row.estimator for row in rows[:5]]
        assert names == ["mv", "kos", "bound:mv", "bound:kos", "diag:tree"]
        mv_row = rows[0]
        assert mv_row.l == 2 and mv_row.r == 3 and mv_row.trials == 4
        assert 0.0 <= mv_row.mean_error <= 1.0
        assert mv_row.failures == 0
        assert mv_row.wall_time_ms == 0.0

    def test_thread_count_does_not_change_results(self):
        single = cb.run_experiment(self.tiny_config(threads=1))
        pooled = cb.run_experiment(self.tiny_config(threads=3))
        assert csv_text(single) == csv_text(pooled)

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_process_count_does_not_change_the_csv(self, trials):
        single = csv_text(cb.run_experiment(self.tiny_config(trials=trials)))
        for threads in (2, 3, 8):
            pooled = cb.run_experiment(self.tiny_config(trials=trials, threads=threads))
            assert csv_text(pooled) == single

    @needs_pool
    def test_failures_in_forked_workers_are_counted_not_fatal(self, monkeypatch):
        parent, run = os.getpid(), cb.EstimatorSpec.run

        def explode_in_worker(self, graph, answers, **kwargs):
            if os.getpid() != parent:
                raise cb.NumericDegeneracyError("synthetic failure")
            return run(self, graph, answers, **kwargs)

        monkeypatch.setattr(cb.EstimatorSpec, "run", explode_in_worker)
        rows = cb.run_experiment(self.tiny_config(estimators=("mv",), threads=2))
        assert [(row.failures, row.mean_error) for row in rows if row.estimator == "mv"] \
            == [(4, None), (4, None)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_infeasible_later_point_fails_before_any_trial(self, monkeypatch, threads):
        ran = []
        monkeypatch.setattr(experiment, "_run_trial", lambda *args: ran.append(args))
        cfg = self.tiny_config(sweep="r", sweep_values=(3, 5), fixed_degree=2,
                               threads=threads)
        with pytest.raises(cb.ParameterError, match="l=2, r=5"):
            cb.run_experiment(cfg)
        assert ran == []

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("overrides, point, reason, error", [
        (dict(n_tasks=10, sweep="r", sweep_values=(2, 20), fixed_degree=2),
         "l=2, r=20", "r = 20 exceeds n_tasks = 10", cb.ParameterError),
        # adjust_n nudges n_tasks = 3 to 4 for r = 8, still below r.
        (dict(n_tasks=3, sweep="r", sweep_values=(2, 8), fixed_degree=2, adjust_n=True),
         "l=2, r=8", "r = 8 exceeds n_tasks = 4", cb.ParameterError),
        (dict(n_tasks=2**32, sweep="r", sweep_values=(2, 1), fixed_degree=1),
         "l=1, r=1", "do not fit int64 keys", cb.SizeError),
    ])
    def test_point_the_generator_refuses_fails_before_any_trial(
            self, monkeypatch, threads, overrides, point, reason, error):
        ran = []
        monkeypatch.setattr(experiment, "_run_trial", lambda *args: ran.append(args))
        with pytest.raises(cb.ParameterError) as info:
            cb.run_experiment(self.tiny_config(threads=threads, **overrides))
        message = str(info.value)
        assert type(info.value) is error and point in message and reason in message
        assert ("adjust_n" in message) is not overrides.get("adjust_n", False)
        assert ran == []

    @pytest.mark.parametrize("adjust_n", [False, True])
    def test_planner_refuses_exactly_what_the_generator_refuses(self, monkeypatch, adjust_n):
        # With no repair round the generator builds every shape it accepts
        # by its circulant fallback at once.
        monkeypatch.setattr(graph_module, "_REPAIR_ROUNDS", 0)
        for n, l, r in itertools.product(range(1, 31), range(1, 13), range(1, 13)):
            config = self.tiny_config(n_tasks=n, sweep="r", sweep_values=(r,), fixed_degree=l,
                                      adjust_n=adjust_n)
            nudged = cb.nearest_feasible_n(n, l, r) if adjust_n else n
            try:
                g = cb.generate_regular_bipartite(nudged, l, r, seed=0)
            except cb.ParameterError as refused:
                with pytest.raises(cb.ParameterError) as planned:
                    experiment._sweep_points(config)
                assert type(planned.value) is type(refused)
                assert str(refused) in str(planned.value)
                continue
            assert (g.task_degrees == l).all() and (g.worker_degrees == r).all()
            assert experiment._sweep_points(config) == [(nudged, l, r)]

    def test_dense_sweep_runs_every_point(self):
        # At r = 9 on 9 tasks, l = 8 is the complete bipartite graph, which
        # the stub swaps do not reach: the sweep used to stop there.
        rows = cb.run_experiment(self.tiny_config(n_tasks=9, sweep="l", sweep_values=(3, 8),
                                                  fixed_degree=9, estimators=("mv",)))
        mv = [row for row in rows if row.estimator == "mv"]
        assert [(row.l, row.r) for row in mv] == [(3, 9), (8, 9)]
        assert all(row.failures == 0 for row in mv)

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        # Where the platform has no sched_getaffinity, the CPU count is used,
        # and one CPU where even that is unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert experiment._usable_cpus() == os.cpu_count()
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiment._usable_cpus() == 1

    def test_pool_never_exceeds_usable_cpus(self, monkeypatch):
        # A stand-in executor records the pool it was asked for and runs
        # the jobs here, so no process is started.
        import concurrent.futures.process

        pools, submitted = [], []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                pools.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append(args[-2:])
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        serial = csv_text(cb.run_experiment(self.tiny_config()))
        for threads, trials, expected in [(8, 4, 3), (64, 4, 3), (2, 4, 2), (8, 1, 2)]:
            pools.clear()
            submitted.clear()
            rows = cb.run_experiment(self.tiny_config(threads=threads, trials=trials))
            assert pools == [(expected, "fork")]
            # Point 1 (l=3) has the larger n*l, so its trials go first.
            assert submitted == [(1, t) for t in range(trials)] + [(0, t) for t in range(trials)]
            if trials == 4:
                assert csv_text(rows) == serial
        pools.clear()
        cb.run_experiment(self.tiny_config(threads=8, trials=1, sweep_values=(2,)))
        assert pools == []

    def test_timing_flag_populates_wall_time(self):
        rows = cb.run_experiment(self.tiny_config(timing=True, sweep_values=(2,)))
        assert rows[0].wall_time_ms > 0.0

    def test_estimator_failures_are_counted_not_fatal(self, monkeypatch):
        def explode(self, graph, answers, **kwargs):
            raise cb.NumericDegeneracyError("synthetic failure")

        monkeypatch.setattr(cb.EstimatorSpec, "run", explode)
        rows = cb.run_experiment(self.tiny_config(estimators=("mv",), sweep_values=(2,)))
        assert len(rows) == 4
        assert rows[0].failures == 4
        assert rows[0].mean_error is None
        text = csv_text(rows)
        assert "mv,2,3,,,4," in text

    def test_infeasible_point_names_the_remedy(self):
        cfg = self.tiny_config(n_tasks=10, sweep_values=(3,), fixed_degree=7)
        with pytest.raises(cb.ParameterError, match="adjust_n"):
            cb.run_experiment(cfg)
        rows = cb.run_experiment(
            self.tiny_config(n_tasks=10, sweep_values=(3,), fixed_degree=7,
                             adjust_n=True))
        assert rows[0].mean_error is not None

    def test_second_bound_blank_below_barrier(self):
        rows = cb.run_experiment(self.tiny_config(sweep_values=(2,)))
        kos_bound = [r for r in rows if r.estimator == "bound:kos"][0]
        assert kos_bound.mean_error is None


class TestCsvOutput:
    def rows(self):
        return [cb.MetricsRow("mv", 2, 3, 0.25, 0.01, 4, 0.0, 1.5, 0),
                cb.MetricsRow("bound:kos", 2, 3, None, 0.0, 0, 0.0, 0.0, 0)]

    def test_header_and_crlf(self):
        text = csv_text(self.rows())
        lines = text.split("\r\n")
        assert lines[0] == ",".join(cb.CSV_COLUMNS)
        assert lines[1].startswith("mv,2,3,0.25,0.01,4,")
        assert text.endswith("\r\n")

    def test_none_and_nan_become_empty_fields(self):
        row = cb.MetricsRow("x", 1, 1, float("nan"), None, 0, 0.0, 0.0, 0)
        assert row.as_csv() == ["x", "1", "1", "", "", "0", "0.0", "0.0", "0"]

    def test_write_to_path_and_handle(self, tmp_path):
        # A file opened with newline="" holds the same bytes as the buffer.
        path = tmp_path / "out.csv"
        with open(path, "w", newline="") as handle:
            cb.write_metrics_csv(self.rows(), handle)
        assert path.read_bytes().decode() == csv_text(self.rows())


def test_cli_import_leaves_process_pools_unloaded():
    # The process pool is imported only when a sweep forks trial processes.
    script = ("import sys, crowdbp.cli; "
              "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
              "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
