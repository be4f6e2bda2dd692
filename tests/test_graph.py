import hashlib
import re

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import graph as graph_module
from crowdbp.cli import main
from crowdbp.seeding import child_seed
from crowdbp.segments import gather, segment_sum
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

    @pytest.mark.parametrize("edges", [
        [[0, 1, 2], [1, 2, 0]],       # (2, m): read as other pairs by a reshape
        [0, 1, 2],                    # 1-D of odd length
        [0, 1, 2, 0],                 # 1-D of even length
        [[[0, 1]], [[1, 2]]],         # (m, 1, 2)
        7,
    ])
    def test_misshapen_edge_arrays_are_refused_by_shape(self, edges):
        shape = np.shape(edges)
        with pytest.raises(cb.ParameterError, match=rf"edges must have shape \(m, 2\), "
                                                    rf"got {re.escape(str(shape))}"):
            cb.AssignmentGraph(3, 3, edges)

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2)), np.empty((0, 3), dtype=np.int64)])
    def test_an_empty_edge_array_is_an_empty_graph(self, edges):
        g = cb.AssignmentGraph(3, 3, edges)
        assert g.edges.dtype == np.int64 and g.edges.shape == (0, 2)
        assert g.task_degrees.tolist() == [0, 0, 0]

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

    def test_repeated_pairs_are_refused_with_their_ids(self):
        tasks = np.array([1, 0, 1, 0, 1, 2, 0])
        workers = np.array([0, 0, 0, 0, 1, 0, 0])
        with pytest.raises(cb.ParameterError,
                           match=r"^duplicate \(task, worker\) edge$") as refused:
            cb.AssignmentGraph(3, 2, np.column_stack((tasks, workers)))
        assert isinstance(refused.value, graph_module.RepeatedPairsError)
        assert refused.value.ids.tolist() == [2, 3, 6]
        np.testing.assert_array_equal(
            refused.value.ids, graph_module.repeated_pairs(tasks, workers, 3, 2))
        assert "RepeatedPairsError" not in cb.__all__

    def test_repeated_pairs_match_a_plain_reference(self, rng):
        # Few distinct pairs make many repeats, so every lookup path runs,
        # including the position past the last repeated key.
        for _ in range(200):
            n_tasks, n_workers = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            m = int(rng.integers(0, 40))
            tasks, workers = rng.integers(n_tasks, size=m), rng.integers(n_workers, size=m)
            repeats = graph_module.repeated_pairs(tasks, workers, n_tasks, n_workers)
            assert repeats.tolist() == reference_repeats(tasks, workers)

    @pytest.mark.parametrize("chunk", [1, 2, 5, 64])
    def test_task_grouped_repeats_match_a_plain_reference(self, monkeypatch, rng, chunk):
        # Entries listed task by task are checked a block at a time: blocks
        # end only where the task id changes, so a task with more entries
        # than a block makes a block of its own.
        monkeypatch.setattr(graph_module, "_CHUNK", chunk)
        cases = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 1, 1),
                 (np.array([0]), np.array([0]), 1, 1),
                 (np.repeat([0, 1, 2], [3, 150, 2]), np.arange(155) % 7, 3, 7)]
        for _ in range(100):
            n_tasks, n_workers = int(rng.integers(1, 8)), int(rng.integers(1, 30))
            m = int(rng.integers(0, 200))
            cases.append((np.sort(rng.integers(n_tasks, size=m)),
                          rng.integers(n_workers, size=m), n_tasks, n_workers))
        for tasks, workers, n_tasks, n_workers in cases:
            blocks = graph_module._task_blocks(tasks)
            bounds = [at.start for at in blocks] + [tasks.size]
            assert bounds[0] == 0 and all(np.diff(bounds) > 0)
            assert all(tasks[cut - 1] < tasks[cut] for cut in bounds[1:-1])
            repeats = graph_module.repeated_pairs(tasks, workers, n_tasks, n_workers)
            assert repeats.dtype == np.int64
            assert repeats.tolist() == reference_repeats(tasks, workers)

    def test_checks_keep_one_pair_key_per_edge(self):
        # Edges listed task by task, as generated, are checked _CHUNK at a
        # time: one block's keys and comparisons, 0.76 bytes per edge at 200k
        # edges.  Shuffled edges are checked at once: one pair key and a
        # byte of comparisons per edge, 9.  The pair keys and a sorted copy
        # of them took 17 bytes per edge.
        g = cb.generate_regular_bipartite(20_000, 10, 5, seed=0)
        shuffled = g.edges[np.random.default_rng(1).permutation(g.n_edges)]
        for edges, bound in ((g.edges.copy(), 1.0), (shuffled, 12)):
            peak, _ = traced_peak(lambda: cb.AssignmentGraph(g.n_tasks, g.n_workers, edges))
            assert peak / g.n_edges < bound

    def test_degrees_and_adjacency(self):
        g = cb.AssignmentGraph(3, 2, np.array([[0, 0], [0, 1], [1, 0], [2, 1]]))
        np.testing.assert_array_equal(g.task_degrees, [2, 1, 1])
        np.testing.assert_array_equal(g.worker_degrees, [2, 2])
        by_task, by_worker = g.by_task, g.by_worker
        np.testing.assert_array_equal(
            g.edges[by_task.order[by_task.offsets[0]:by_task.offsets[1]], 1], [0, 1])
        np.testing.assert_array_equal(
            g.edges[by_worker.order[by_worker.offsets[1]:by_worker.offsets[2]], 0], [0, 2])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_the_given_edge_array_becomes_read_only(self, order):
        # The graph holds this array without a copy; a write to it used to
        # change the edges to [[0, 0], [1, 7]] and the worker degrees to 8 entries.
        edges = np.array([[0, 0], [1, 1]], order=order)
        g = cb.AssignmentGraph(2, 2, edges)
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            edges[1, 1] = 7
        assert g.edges.tolist() == [[0, 0], [1, 1]]
        assert g.worker_degrees.tolist() == [1, 1]

    def test_isolated_nodes_allowed(self):
        g = cb.AssignmentGraph(3, 2, np.array([[0, 0]]))
        assert g.task_degrees.tolist() == [1, 0, 0]
        assert g.worker_degrees.tolist() == [1, 0]


def reference_repeats(tasks, workers):
    """The ids of the entries whose (task, worker) pair an earlier entry has."""
    seen, expected = set(), []
    for e, pair in enumerate(zip(tasks.tolist(), workers.tolist())):
        if pair in seen:
            expected.append(e)
        seen.add(pair)
    return expected


def assert_keys_share_the_columns(g):
    """Both groupings key by ``g.edges``' own columns: writable, not copied."""
    for side, grouping in ((0, g.by_task), (1, g.by_worker)):
        assert np.shares_memory(grouping.keys, g.edges[:, side])
        assert grouping.keys.flags.writeable and grouping.keys.flags.c_contiguous
    assert not g.edges.flags.writeable


class TestSharedColumns:
    def test_generated_graphs_share_their_columns(self):
        assert_keys_share_the_columns(cb.generate_regular_bipartite(200, 5, 5, seed=3))

    def test_loaded_and_subsampled_graphs_share_their_columns(self, tmp_path):
        path = tmp_path / "answers.csv"
        path.write_text("t0,w0,1\nt0,w1,-1\nt1,w1,1\nt2,w0,1\nt2,w2,-1\n")
        loaded = cb.load_dataset(str(path))
        assert_keys_share_the_columns(loaded.graph)
        assert_keys_share_the_columns(cb.subsample_assignments(loaded, 1, seed=0).graph)

    def test_an_argwhere_array_is_held_without_a_copy(self):
        edges = np.argwhere(np.eye(4, 3, dtype=bool) | np.eye(4, 3, k=1, dtype=bool))
        assert edges.flags.f_contiguous and not edges.flags.c_contiguous
        g = cb.AssignmentGraph(4, 3, edges)
        assert np.shares_memory(g.edges, edges)
        assert_keys_share_the_columns(g)
        with pytest.raises(ValueError, match="read-only"):
            g.edges[0, 0] = 1

    @pytest.mark.parametrize("order, writable", [("C", True), ("F", False)])
    def test_other_inputs_get_their_keys_copied_once(self, order, writable):
        edges = np.array([[0, 0], [0, 1], [1, 1], [2, 0]], order=order)
        edges.setflags(write=writable)
        g = cb.AssignmentGraph(3, 2, edges)
        for grouping in (g.by_task, g.by_worker):
            assert not np.shares_memory(grouping.keys, edges)
            assert grouping.keys.flags.writeable and grouping.keys.flags.c_contiguous
        assert g.by_task.keys.tolist() == [0, 0, 1, 2]
        assert g.edges.tobytes() == edges.tobytes()

    def test_sums_and_gathers_copy_no_keys(self):
        # np.bincount and np.take copy a read-only index array on every call:
        # read-only keys traced one more edge array than the totals here.
        g = cb.generate_regular_bipartite(100_000, 10, 5, seed=2)
        values, out = np.ones(g.n_edges), np.empty(g.n_edges)
        for grouping in (g.by_task, g.by_worker):
            peak, _ = traced_peak(
                lambda: gather(segment_sum(values, grouping), grouping, out=out))
            # The per-node totals, 0.1 edge arrays by task, plus a tenth of one.
            assert peak < 8 * grouping.n_segments + 0.1 * 8 * g.n_edges


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

    def test_peak_memory_is_about_two_edge_arrays(self):
        # The returned edges are two int64 edge arrays, and the worker ids
        # that fill the stubs a fifth of one: 2.20 in all.  A repair round
        # checks the task-grouped stubs a block at a time.  Pairing two stub
        # arrays and stacking them peaked at 6.13, a separate array for the
        # gathered keys at 5.13 and one pair key per edge at 4.13.
        peak, g = traced_peak(lambda: cb.generate_regular_bipartite(20_000, 10, 5, seed=1))
        assert peak / (8 * g.n_edges) < 2.5

    @pytest.mark.parametrize("seed, digest", [
        (1, "55b2ab1c76f6d0757fc2f9f4c0a4f63cb050e5ecee19b677128e0c9a69015643"),
        (2, "2bcaa2fd75c245d30177104a30a4d24409d12da09c23f6709f556f5d20044eba"),
        (3, "5b4e912bf725620683aabd36d1f938bb379764a2822427c76710679118510ddf"),
    ])
    def test_each_repair_round_is_one_pair_key_search(self, pair_key_searches, seed, digest):
        # At these seeds one round repairs and the next builds the graph: each
        # round is the constructor's own search, with none of the generator's.
        # The digests pin the edges.
        g = cb.generate_regular_bipartite(100_000, 10, 5, seed)
        assert len(pair_key_searches) == 2
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == digest

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

    def test_exhausted_repair_budget(self, monkeypatch, tmp_path):
        # With (l-1)(r-1)/2 = 38 expected repeats, the first pairing is never
        # simple, so stub p goes to worker perm[p % n_workers].
        monkeypatch.setattr(graph_module, "_REPAIR_ROUNDS", 1)
        g = cb.generate_regular_bipartite(100, 20, 5, seed=3)
        assert_simple_regular(g, 20, 5)
        np.testing.assert_array_equal(g.edges[:, 1], np.resize(g.edges[:g.n_workers, 1], 2000))
        again = cb.generate_regular_bipartite(100, 20, 5, seed=3)
        np.testing.assert_array_equal(g.edges, again.edges)
        other = cb.generate_regular_bipartite(100, 20, 5, seed=4)
        assert not np.array_equal(g.edges, other.edges)
        assert main(["simulate", "--n", "100", "--l", "20", "--r", "5", "--prior", "sh",
                     "--out", str(tmp_path / "sim.csv")]) == 0
        assert cb.load_dataset(str(tmp_path / "sim.csv")).graph.n_edges == 2000

    @pytest.mark.parametrize("n,l,r", [(9, 8, 9), (10, 9, 9)])
    def test_dense_shapes_build_within_the_real_budget(self, n, l, r):
        # At seed 0 the stub swaps find no simple pairing in their budget;
        # n=9, l=8, r=9 is the complete bipartite graph.
        assert_simple_regular(cb.generate_regular_bipartite(n, l, r, seed=0), l, r)


def assert_simple_regular(g, l, r):
    # AssignmentGraph refuses a repeated (task, worker) pair; this checks it again.
    keys = g.edges[:, 0] * g.n_workers + g.edges[:, 1]
    assert np.unique(keys).size == g.n_edges
    assert (g.task_degrees == l).all() and (g.worker_degrees == r).all()


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

    @pytest.mark.parametrize("labels,reliabilities,message", [
        (np.ones(3, dtype=int), np.full(4, 0.9), "truth labels must hold one value per task"),
        # 2-D labels used to end in NumPy's unnamed ValueError.
        (np.ones((4, 1), dtype=int), np.full(4, 0.9),
         "truth labels must hold one value per task"),
        (np.ones(4, dtype=int), np.full(3, 0.9), "reliabilities must hold one value per worker"),
        (np.ones(4, dtype=int), np.full((4, 2), 0.9),
         "reliabilities must hold one value per worker"),
    ], ids=["short-labels", "2d-labels", "short-reliabilities", "2d-reliabilities"])
    def test_sample_answers_validates_shapes(self, labels, reliabilities, message):
        g = cb.generate_regular_bipartite(4, 2, 2, seed=0)
        with pytest.raises(cb.ParameterError, match=message):
            cb.sample_answers(g, cb.GroundTruth(labels, reliabilities), seed=0)

    def test_peak_memory_is_the_answers_and_a_block(self):
        # The int8 answers are an eighth of an edge array; one block's
        # uniform draw, gathered reliabilities and labels add 0.39 at 200k
        # edges, 0.51 in all.  Whole-array draws and gathers peaked at
        # 2.13, and int64 signs, labels and their product at 2.5.
        g = cb.generate_regular_bipartite(20_000, 10, 5, seed=31)
        truth = cb.sample_ground_truth(g, cb.spammer_hammer(), seed=32)
        peak, answers = traced_peak(lambda: cb.sample_answers(g, truth, seed=33))
        assert answers.answers.dtype == np.int8
        assert peak / (8 * g.n_edges) < 0.6

    @pytest.mark.parametrize("chunk", [1, 7, None])
    @pytest.mark.parametrize("n_blocks", [0, 1, 2, 3])
    def test_answers_do_not_depend_on_the_block_size(self, monkeypatch, chunk, n_blocks):
        # PCG64 gives the same doubles in blocks as in one draw, so the
        # answers equal one whole-array draw's, byte for byte.
        chunk = chunk or graph_module._CHUNK
        monkeypatch.setattr(graph_module, "_CHUNK", chunk)
        m = (n_blocks - 1) * chunk + max(1, chunk // 2) if n_blocks else 0
        rng = np.random.default_rng(n_blocks)
        side = int(np.sqrt(m)) + 2
        pairs = rng.choice(side * side, size=m, replace=False)
        g = cb.AssignmentGraph(side, side, np.column_stack(np.divmod(pairs, side)))
        truth = cb.GroundTruth(rng.choice(np.array([-1, 1]), side), rng.random(side))
        answers = cb.sample_answers(g, truth, seed=9).answers
        correct = np.random.default_rng(9).random(m) < truth.reliabilities[g.edges[:, 1]]
        labels = truth.labels[g.edges[:, 0]]
        expected = np.where(correct, labels, -labels).astype(np.int8)
        assert len(graph_module.edge_blocks(m, chunk)) == n_blocks
        assert answers.dtype == np.int8 and answers.tobytes() == expected.tobytes()

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
