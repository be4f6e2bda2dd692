import numpy as np
import pytest

import crowdbp as cb
from crowdbp import graph as graph_module
from crowdbp.cli import main
from crowdbp.seeding import child_seed
from tests.memory import traced_peak


class TestAssignmentGraph:
    def test_rejects_out_of_range_and_duplicate_edges(self):
        with pytest.raises(cb.ParameterError):
            cb.AssignmentGraph(2, 2, np.array([[0, 2]]))
        with pytest.raises(cb.ParameterError):
            cb.AssignmentGraph(2, 2, np.array([[2, 0]]))
        with pytest.raises(cb.ParameterError):
            cb.AssignmentGraph(2, 2, np.array([[0, 0], [0, 0]]))
        with pytest.raises(cb.ParameterError):
            cb.AssignmentGraph(-1, 2, np.empty((0, 2), dtype=np.int64))

    def test_pair_keys_that_would_wrap_are_refused(self):
        # 2**24 * 2**40 wraps to 0 in int64, so the two edges would share a key.
        with pytest.raises(cb.SizeError):
            cb.AssignmentGraph(2**40, 2**40, np.array([[0, 0], [2**24, 0]]))
        g = cb.AssignmentGraph(2**32, 2**31, np.array([[0, 0], [2**32 - 1, 2**31 - 1]]))
        assert g.n_edges == 2

    def test_repeated_pairs_are_the_later_occurrences_in_id_order(self):
        tasks = np.array([1, 0, 1, 0, 1, 2, 0])
        workers = np.array([0, 0, 0, 0, 1, 0, 0])
        repeats = graph_module.repeated_pairs(tasks, workers, 3, 2)
        assert repeats.dtype == np.int64
        assert repeats.tolist() == [2, 3, 6]
        assert graph_module.repeated_pairs(tasks[:2], workers[:2], 3, 2).tolist() == []
        with pytest.raises(cb.SizeError):
            graph_module.repeated_pairs(tasks, workers, 2**32, 2**31 + 1)

    def test_repeated_pairs_match_a_plain_reference(self, rng):
        # Few distinct pairs make many repeats, so every lookup path runs,
        # including the position past the last repeated key.
        for _ in range(200):
            n_tasks, n_workers = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            m = int(rng.integers(0, 40))
            tasks, workers = rng.integers(n_tasks, size=m), rng.integers(n_workers, size=m)
            seen, expected = set(), []
            for e, pair in enumerate(zip(tasks.tolist(), workers.tolist())):
                if pair in seen:
                    expected.append(e)
                seen.add(pair)
            repeats = graph_module.repeated_pairs(tasks, workers, n_tasks, n_workers)
            assert repeats.tolist() == expected

    def test_checks_keep_one_pair_key_per_edge(self):
        # The pair keys and a sorted copy of them took 17 bytes per edge.
        g = cb.generate_regular_bipartite(20_000, 10, 5, seed=0)
        edges = g.edges.copy()
        peak, _ = traced_peak(lambda: cb.AssignmentGraph(g.n_tasks, g.n_workers, edges))
        assert peak / g.n_edges < 12

    def test_degrees_and_adjacency(self):
        g = cb.AssignmentGraph(3, 2, np.array([[0, 0], [0, 1], [1, 0], [2, 1]]))
        np.testing.assert_array_equal(g.task_degrees, [2, 1, 1])
        np.testing.assert_array_equal(g.worker_degrees, [2, 2])
        by_task, by_worker = g.by_task, g.by_worker
        np.testing.assert_array_equal(
            g.edges[by_task.order[by_task.offsets[0]:by_task.offsets[1]], 1], [0, 1])
        np.testing.assert_array_equal(
            g.edges[by_worker.order[by_worker.offsets[1]:by_worker.offsets[2]], 0], [0, 2])

    def test_isolated_nodes_allowed(self):
        g = cb.AssignmentGraph(3, 2, np.array([[0, 0]]))
        assert g.task_degrees.tolist() == [1, 0, 0]
        assert g.worker_degrees.tolist() == [1, 0]


class TestRegularGenerator:
    @pytest.mark.parametrize("n,l,r", [(12, 3, 4), (10, 1, 1), (9, 4, 6), (200, 5, 5)])
    def test_degrees_are_exact(self, n, l, r):
        g = cb.generate_regular_bipartite(n, l, r, seed=7)
        assert g.n_workers == n * l // r
        assert (g.task_degrees == l).all()
        assert (g.worker_degrees == r).all()

    def test_high_collision_regime_still_succeeds(self):
        # A uniform stub pairing is essentially never simple here; the
        # repair loop must finish anyway with exact degrees.
        g = cb.generate_regular_bipartite(1000, 20, 5, seed=3)
        assert (g.task_degrees == 20).all()
        assert (g.worker_degrees == 5).all()

    def test_deterministic_per_seed(self):
        a = cb.generate_regular_bipartite(50, 4, 4, seed=11)
        b = cb.generate_regular_bipartite(50, 4, 4, seed=11)
        c = cb.generate_regular_bipartite(50, 4, 4, seed=12)
        np.testing.assert_array_equal(a.edges, b.edges)
        assert not np.array_equal(a.edges, c.edges)

    def test_peak_memory_is_about_five_edge_arrays(self):
        # The returned edges are two int64 edge arrays, and a repair round's
        # pair keys and lookups two more.  Pairing two stub arrays and
        # stacking them peaked at 6.13, and a separate array for the
        # gathered keys at 5.13.
        peak, g = traced_peak(lambda: cb.generate_regular_bipartite(20_000, 10, 5, seed=1))
        assert peak / (8 * g.n_edges) < 4.6

    def test_parameter_errors(self):
        with pytest.raises(cb.ParameterError):
            cb.generate_regular_bipartite(10, 3, 4, seed=0)  # 30 % 4 != 0
        with pytest.raises(cb.ParameterError):
            cb.generate_regular_bipartite(3, 5, 5, seed=0)  # r > n_tasks
        with pytest.raises(cb.ParameterError):
            cb.generate_regular_bipartite(0, 1, 1, seed=0)

    def test_pair_keys_that_would_wrap_are_refused_before_any_array(self, monkeypatch):
        # 2**32 tasks x 2**32 workers: the stub arrays alone would take about 32 GB.
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} reached before the pair-key guard")

        monkeypatch.setattr(graph_module, "np", NoNumpy())
        with pytest.raises(cb.SizeError):
            cb.generate_regular_bipartite(2**32, 1, 1, seed=0)

    def test_exhausted_repair_budget(self, monkeypatch, tmp_path, capsys):
        # With (l-1)(r-1)/2 = 38 expected repeats, the first pairing is never simple.
        monkeypatch.setattr(graph_module, "_REPAIR_ROUNDS", 1)
        with pytest.raises(cb.GenerationError, match="within 1 repair rounds"):
            cb.generate_regular_bipartite(100, 20, 5, seed=3)
        rc = main(["simulate", "--n", "100", "--l", "20", "--r", "5", "--prior", "sh",
                   "--out", str(tmp_path / "sim.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: could not build")
        assert not (tmp_path / "sim.csv").exists()


class TestSampling:
    def test_ground_truth_respects_prior_support(self):
        g = cb.generate_regular_bipartite(100, 3, 3, seed=0)
        truth = cb.sample_ground_truth(g, cb.spammer_hammer(), seed=5)
        assert set(np.unique(truth.labels)) <= {-1, 1}
        assert set(np.unique(truth.reliabilities)) <= {0.5, 0.9}
        again = cb.sample_ground_truth(g, cb.spammer_hammer(), seed=5)
        np.testing.assert_array_equal(truth.labels, again.labels)

    def test_answer_noise_rate_matches_reliabilities(self):
        g = cb.generate_regular_bipartite(500, 10, 10, seed=1)
        truth = cb.sample_ground_truth(g, cb.spammer_hammer(), seed=2)
        answers = cb.sample_answers(g, truth, seed=3)
        correct = answers.answers == truth.labels[g.edges[:, 0]]
        expected = truth.reliabilities[g.edges[:, 1]].mean()
        sigma = np.sqrt(expected * (1 - expected) / g.n_edges)
        assert abs(correct.mean() - expected) < 4 * sigma

    def test_sample_answers_validates_shapes(self):
        g = cb.generate_regular_bipartite(4, 2, 2, seed=0)
        truth = cb.GroundTruth(np.ones(3, dtype=int), np.full(4, 0.9))
        with pytest.raises(cb.ParameterError, match="truth labels length"):
            cb.sample_answers(g, truth, seed=0)
        truth = cb.GroundTruth(np.ones(4, dtype=int), np.full(3, 0.9))
        with pytest.raises(cb.ParameterError, match="reliabilities length"):
            cb.sample_answers(g, truth, seed=0)

    def test_answer_check_takes_no_int64_copy(self):
        # An int64 np.abs of the answers took 9 bytes per edge; each
        # comparison takes one.
        signs = np.random.default_rng(0).choice(np.array([-1, 1]), 400_000)
        peak, _ = traced_peak(lambda: cb.AnswerMatrix(signs))
        assert peak / signs.size < 4

    def test_truth_and_answer_validation(self):
        with pytest.raises(cb.ParameterError):
            cb.GroundTruth(np.array([1, 0]), np.array([0.5, 0.5]))
        with pytest.raises(cb.ParameterError):
            cb.GroundTruth(np.array([1, -1]), np.array([0.5, 1.5]))
        with pytest.raises(cb.ParameterError):
            cb.AnswerMatrix(np.array([1, 2]))


class TestChildSeed:
    def test_deterministic_and_path_sensitive(self):
        assert child_seed(42, "graph", 0, 1) == child_seed(42, "graph", 0, 1)
        assert child_seed(42, "graph", 0, 1) != child_seed(42, "graph", 1, 0)
        assert child_seed(42, "graph", 0) != child_seed(42, "truth", 0)
        assert child_seed(42, "graph", 0) != child_seed(43, "graph", 0)

    def test_rejects_negative_and_odd_types(self):
        with pytest.raises(cb.ParameterError):
            child_seed(1, -2)
        with pytest.raises(cb.ParameterError):
            child_seed(1, 2.5)
