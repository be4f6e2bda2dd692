import re

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import bp, exact
from crowdbp.exact import extract_bfs_tree
from crowdbp.graph import draw_instance
from tests.conftest import random_atom_prior, random_bipartite_tree, random_prior, random_small_graph
from tests.gain_reference import exact_conditional_gain
from tests.memory import traced_peak
from tests.oracle_reference import (khop_subgraph, reference_adjacency, reference_bfs,
                                    reference_oracle_task_estimate, reference_region)


def path_graph():
    """task0 - w0 - task1 - w1 - task2."""
    return cb.AssignmentGraph(3, 2, np.array([[0, 0], [1, 0], [1, 1], [2, 1]]))


def four_cycle():
    return cb.AssignmentGraph(2, 2, np.array([[0, 0], [0, 1], [1, 0], [1, 1]]))


def oracle_case(rng: np.random.Generator, case: int) -> tuple[str, cb.AssignmentGraph]:
    """A small graph of one of four kinds, named."""
    if case % 5 == 0:
        return "tree", random_bipartite_tree(rng)
    nt, nw = int(rng.integers(1, 11)), int(rng.integers(1, 7))
    if case % 5 == 1:
        # Complete with two or more workers: every non-root task is clamped.
        nw = max(nw, 2)
        return "complete", cb.AssignmentGraph(nt, nw, np.argwhere(np.ones((nt, nw), bool)))
    # Sparse ones fall apart into components and leave tasks without answers.
    density = rng.uniform(0.1, 0.3) if case % 5 == 2 else rng.uniform(0.3, 0.8)
    return "random", cb.AssignmentGraph(nt, nw, np.argwhere(rng.random((nt, nw)) < density))


def block_trees(graph: cb.AssignmentGraph):
    """Each root's tree and region depth, from one BFS block of all the roots."""
    n = graph.n_tasks
    forest = exact._bfs_forest(graph, np.arange(n), exact._adjacency(graph))
    for root in range(n):
        mine = forest.slot == root
        edge = forest.edge[mine]
        boundary = forest.boundary.reshape(n, n)[root]
        tree = exact.SpanningTree(root=root, tree_edges=np.sort(edge),
                                  boundary_tasks=np.flatnonzero(boundary),
                                  depth=int(forest.depth[root]),
                                  region_edges=np.sort(edge[forest.in_region[mine]]))
        yield tree, int(forest.region_depth[root])


class TestBruteForce:
    def test_single_answer_posterior(self):
        g = cb.AssignmentGraph(1, 1, np.array([[0, 0]]))
        pairs = cb.brute_force_marginals(g, np.array([1]), cb.spammer_hammer())
        assert pairs[0, 0] == pytest.approx(0.7, rel=1e-12)
        assert pairs[0, 1] == pytest.approx(0.3, rel=1e-12)

    def test_matches_bp_on_trees(self, rng):
        worst = 0.0
        for _ in range(30):
            g = random_bipartite_tree(rng)
            prior = random_prior(rng)
            answers = rng.choice([-1, 1], size=g.n_edges)
            pairs = cb.brute_force_marginals(g, answers, prior)
            report = cb.bp_run(g, answers, prior, k_max=60, tol=0.0)
            assert report.converged
            worst = max(worst, np.abs((pairs[:, 0] - pairs[:, 1]) - report.margins).max())
        assert worst < 1e-10

    def test_memory_at_the_guard(self):
        # At n = 20 the 2^20 x 20 table of label signs is 20 MB as int8; a
        # wider temporary while building it would cost 160 MB.
        n = 20
        g = cb.AssignmentGraph(n, 2, np.array([[t, t % 2] for t in range(n)]))
        answers = np.where(np.arange(n) % 3 == 0, -1, 1)
        peak, pairs = traced_peak(lambda: cb.brute_force_marginals(g, answers,
                                                                   cb.spammer_hammer()))
        assert peak < 100 * 2**20
        assert pairs.shape == (n, 2)

    def test_task_count_guard(self):
        g = cb.AssignmentGraph(21, 1, np.array([[t, 0] for t in range(21)]))
        with pytest.raises(cb.SizeError):
            cb.brute_force_marginals(g, np.ones(21, dtype=int), cb.spammer_hammer())

    def test_answers_length_validated(self):
        g = cb.AssignmentGraph(1, 1, np.array([[0, 0]]))
        with pytest.raises(cb.ParameterError):
            cb.brute_force_marginals(g, np.array([1, 1]), cb.spammer_hammer())

    def test_zero_mass_everywhere_raises(self):
        g = cb.AssignmentGraph(1, 2, np.array([[0, 0], [0, 1]]))
        perfect = cb.ReliabilityPrior.from_atoms([1.0], [1.0])
        with pytest.raises(cb.NumericDegeneracyError):
            cb.brute_force_marginals(g, np.array([1, -1]), perfect)


class TestBfsTree:
    def test_four_cycle_frozen(self):
        tree = extract_bfs_tree(four_cycle(), 0)
        assert tree.root == 0
        assert tree.tree_edges.tolist() == [0, 1, 2]
        assert tree.boundary_tasks.tolist() == [1]
        assert tree.depth == 2

    def test_matches_sequential_reference(self, rng):
        for _ in range(30):
            g = random_small_graph(rng, max_tasks=6, max_workers=4, max_edges=18)
            adjacent = reference_adjacency(g)
            for root, (in_block, _) in enumerate(block_trees(g)):
                ref_edges, ref_boundary, ref_depth, _, _ = reference_bfs(g, root, adjacent)
                for tree in (extract_bfs_tree(g, root), in_block):
                    np.testing.assert_array_equal(tree.tree_edges, ref_edges)
                    np.testing.assert_array_equal(tree.boundary_tasks, ref_boundary)
                    assert tree.depth == ref_depth
                    assert root not in tree.boundary_tasks

    def test_region_stops_at_boundary_tasks(self):
        # task1 is clamped (its edge to w1 is a non-tree edge), so the
        # tree beyond it, w2 and task2, is not part of the root's region.
        g = cb.AssignmentGraph(3, 3, np.array([[0, 0], [0, 1], [1, 0], [1, 1], [1, 2], [2, 2]]))
        tree = extract_bfs_tree(g, 0)
        assert tree.tree_edges.tolist() == [0, 1, 2, 4, 5]
        assert tree.boundary_tasks.tolist() == [1]
        assert tree.region_edges.tolist() == [0, 1, 2]

    def test_region_matches_walk_over_the_tree(self, rng):
        for _ in range(60):
            g = random_small_graph(rng, max_tasks=8, max_workers=5, max_edges=24)
            adjacent = reference_adjacency(g)
            for root, (in_block, region_depth) in enumerate(block_trees(g)):
                want = reference_region(g, root)
                np.testing.assert_array_equal(extract_bfs_tree(g, root).region_edges, want)
                np.testing.assert_array_equal(in_block.region_edges, want)
                # An edge's level is its farther end's hop distance.
                _, _, _, dist_task, dist_worker = reference_bfs(g, root, adjacent)
                levels = np.maximum(dist_task[g.edges[want, 0]], dist_worker[g.edges[want, 1]])
                assert region_depth == levels.max(initial=0)

    def test_other_components_stay_out(self):
        g = cb.AssignmentGraph(2, 2, np.array([[0, 0], [1, 1]]))
        tree = extract_bfs_tree(g, 0)
        assert tree.tree_edges.tolist() == [0]
        assert tree.boundary_tasks.size == 0
        assert tree.depth == 1

    def test_root_out_of_range(self):
        g = four_cycle()
        with pytest.raises(cb.ParameterError):
            extract_bfs_tree(g, -1)
        with pytest.raises(cb.ParameterError):
            extract_bfs_tree(g, 2)


class TestOracleTask:
    def test_reduces_to_bp_on_a_tree(self, rng):
        g = random_bipartite_tree(rng)
        prior = cb.spammer_hammer()
        truth = cb.sample_ground_truth(g, prior, seed=3)
        answers = cb.sample_answers(g, truth, seed=4)
        oracle = cb.oracle_task_estimate(g, answers, prior, truth)
        plain = cb.bp_run(g, answers, prior, k_max=60, tol=0.0)
        np.testing.assert_allclose(oracle.margins, plain.margins, atol=1e-10)
        np.testing.assert_array_equal(oracle.labels, plain.labels)

    def test_matches_per_root_reference(self, rng, monkeypatch):
        kinds = {"tree": 0, "complete": 0, "random": 0}
        isolated = split = 0
        for case in range(150):
            kind, g = oracle_case(rng, case)
            kinds[kind] += 1
            isolated += bool((g.task_degrees == 0).any())
            split += extract_bfs_tree(g, 0).tree_edges.size < g.n_edges
            if kind == "complete":
                for root in range(g.n_tasks):
                    clamped = extract_bfs_tree(g, root).boundary_tasks
                    assert clamped.tolist() == [t for t in range(g.n_tasks) if t != root]
            prior = random_prior(rng)
            truth = cb.sample_ground_truth(g, prior, seed=case)
            answers = cb.sample_answers(g, truth, seed=case + 1000)
            want = reference_oracle_task_estimate(g, answers, prior, truth)
            # One root per block, a few per block, and the default budget.
            for visits in (1, 3 * (g.n_edges + g.n_tasks + g.n_workers), exact._BLOCK_VISITS):
                monkeypatch.setattr(exact, "_BLOCK_VISITS", visits)
                got = cb.oracle_task_estimate(g, answers, prior, truth)
                np.testing.assert_array_equal(got.labels, want.labels)
                np.testing.assert_allclose(got.margins, want.margins, rtol=0, atol=1e-12)
            monkeypatch.undo()
        assert min(kinds.values()) >= 30 and isolated >= 20 and split >= 20

    def test_batch_of_blocks_with_different_region_depths(self, monkeypatch):
        # The (2, 5)-regular part has regions 8 to 12 levels deep, the
        # (15, 5)-regular part 4; one batch holds blocks of both.
        deep = cb.generate_regular_bipartite(200, 2, 5, seed=1)
        shallow = cb.generate_regular_bipartite(100, 15, 5, seed=2)
        g = cb.AssignmentGraph(300, deep.n_workers + shallow.n_workers, np.concatenate(
            [deep.edges, shallow.edges + [deep.n_tasks, deep.n_workers]]))
        prior = cb.spammer_hammer()
        truth = cb.sample_ground_truth(g, prior, seed=3)
        answers = cb.sample_answers(g, truth, seed=4)
        # Each block's deepest region, by its first root, and each batch's
        # blocks' depths with the depth the batch runs to.
        block_depth, batches = {}, []
        bfs, decode = exact._bfs_forest, exact._decode_batch

        def recording_bfs(graph, roots, adjacency):
            forest = bfs(graph, roots, adjacency)
            block_depth[int(roots[0])] = int(forest.region_depth.max())
            return forest

        def recording(graph, a, prior, labels, batch, margins):
            keys, _, depth = batch
            batches.append(({block_depth[int(block.min()) // graph.n_edges] for block in keys},
                            depth))
            return decode(graph, a, prior, labels, batch, margins)

        monkeypatch.setattr(exact, "_bfs_forest", recording_bfs)
        monkeypatch.setattr(exact, "_decode_batch", recording)
        got = cb.oracle_task_estimate(g, answers, prior, truth)
        assert any(4 in depths and max(depths) >= 8 for depths, _ in batches)
        assert all(depth == max(depths) for depths, depth in batches)
        want = reference_oracle_task_estimate(g, answers, prior, truth)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_allclose(got.margins, want.margins, rtol=0, atol=1e-12)

    def test_forests_run_in_a_few_batches(self, monkeypatch):
        prior = cb.spammer_hammer()
        g = cb.generate_regular_bipartite(200, 15, 5, seed=1)
        truth = cb.sample_ground_truth(g, prior, seed=2)
        answers = cb.sample_answers(g, truth, seed=3)
        calls = []
        run = exact._run

        def counting(*args, **kwargs):
            calls.append(args[0].n_edges)
            return run(*args, **kwargs)

        monkeypatch.setattr(exact, "_run", counting)
        cb.oracle_task_estimate(g, answers, prior, truth)
        # One run per block of 8 roots would be 25.
        assert 1 <= len(calls) <= 6
        assert max(calls) <= exact._BLOCK_VISITS // 4

    def test_matches_per_root_reference_on_a_regular_graph(self):
        prior = cb.spammer_hammer()
        g = cb.generate_regular_bipartite(60, 6, 3, seed=5)
        truth = cb.sample_ground_truth(g, prior, seed=6)
        answers = cb.sample_answers(g, truth, seed=7)
        got = cb.oracle_task_estimate(g, answers, prior, truth)
        want = reference_oracle_task_estimate(g, answers, prior, truth)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_allclose(got.margins, want.margins, rtol=0, atol=1e-12)

    def test_peak_memory_is_bounded_by_the_block_budget(self):
        # 1,000 and 6,000 edges under one bound: the block and batch budgets,
        # not the graph, set the peak (1.4 MB at both sizes).  All the roots
        # in one block would take several times this.
        prior = cb.spammer_hammer()
        for n_tasks, l in ((200, 5), (400, 15)):
            g, truth, answers = draw_instance(n_tasks, l, 5, prior, 1)
            g.by_task.offsets, g.by_worker.offsets  # the graph's own, built before tracing
            peak, _ = traced_peak(lambda: cb.oracle_task_estimate(g, answers, prior, truth))
            assert peak < 2_500_000

    def test_isolated_root_gets_zero_margin(self):
        g = cb.AssignmentGraph(2, 1, np.array([[1, 0]]))
        truth = cb.GroundTruth(np.array([1, -1]), np.array([0.9]))
        report = cb.oracle_task_estimate(g, np.array([-1]), cb.spammer_hammer(), truth)
        assert report.margins[0] == 0.0
        assert report.labels[0] == 1

    def test_graphs_without_answers(self):
        for n_tasks in (0, 3):
            g = cb.AssignmentGraph(n_tasks, 0, np.empty((0, 2), dtype=np.int64))
            truth = cb.GroundTruth(np.ones(n_tasks, dtype=np.int64), np.empty(0))
            report = cb.oracle_task_estimate(g, np.empty(0, dtype=np.int64),
                                             cb.spammer_hammer(), truth)
            assert report.margins.tolist() == [0.0] * n_tasks

    ZERO_MASS = r"worker message on edge \d+ \(task \d+, worker \d+\) has zero mass"

    def test_worker_contradicting_revealed_labels_names_an_edge(self):
        # Under atoms at p = 0 and 1 a worker is always right or always wrong.
        # In K(3, 3) rooted at task 0, worker 0 also answers the revealed
        # tasks 1 and 2, one rightly and one wrongly: its message has no mass.
        g = cb.AssignmentGraph(3, 3, np.array([[t, u] for t in range(3) for u in range(3)]))
        truth = cb.GroundTruth(np.ones(3, dtype=np.int64), np.array([1.0, 1.0, 0.0]))
        answers = np.ones(9, dtype=np.int64)
        answers[6] = -1  # task 2, worker 0
        certain = cb.ReliabilityPrior.from_atoms([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(cb.NumericDegeneracyError, match=self.ZERO_MASS):
            cb.oracle_task_estimate(g, answers, certain, truth)

    @pytest.mark.parametrize("chunk", [1, None])
    def test_task_message_with_zero_mass_names_the_callers_edge(self, monkeypatch, chunk):
        # Under atoms at p = 0 and 1, a region's task hears a certain +1 and a
        # certain -1 from its other workers: the error comes from a task half
        # and names the edge of the caller's graph, in blocks of one edge as in
        # the shipped block.
        if chunk is not None:
            monkeypatch.setattr(bp, "_CHUNK", chunk)
        g = cb.AssignmentGraph(4, 4, np.array([[0, 3], [3, 3], [1, 0], [1, 1], [3, 0], [2, 2],
                                               [2, 1], [3, 2], [2, 3], [3, 1], [2, 0], [0, 2],
                                               [1, 2]]))
        answers = np.array([1, 1, 1, 1, 1, -1, 1, -1, -1, 1, 1, -1, 1])
        truth = cb.GroundTruth(np.ones(4, dtype=np.int64), np.full(4, 0.5))
        certain = cb.parse_prior_spec("atoms:0=0.5,1=0.5")
        with pytest.raises(cb.NumericDegeneracyError,
                           match=r"^task message on edge 3 \(task 1, worker 1\) has zero mass$"):
            cb.oracle_task_estimate(g, answers, certain, truth)
        assert g.edges[3].tolist() == [1, 1]

    def test_certain_atoms_decode_consistent_answers_and_name_an_edge_otherwise(self, rng):
        certain = cb.ReliabilityPrior.from_atoms([0.0, 1.0], [0.5, 0.5])
        for seed in range(20):
            g = cb.generate_regular_bipartite(int(rng.integers(6, 30)), 3, 3, seed=seed)
            truth = cb.sample_ground_truth(g, certain, seed=seed)
            # Each worker always right or always wrong, as the prior allows.
            report = cb.oracle_task_estimate(g, cb.sample_answers(g, truth, seed=seed),
                                             certain, truth)
            assert np.all(np.abs(report.margins) <= 1.0)
            with pytest.raises(cb.NumericDegeneracyError, match=self.ZERO_MASS):
                cb.oracle_task_estimate(g, rng.choice([-1, 1], g.n_edges), certain, truth)

    def test_zero_mass_errors_name_the_callers_edge_and_task(self, rng):
        # The batch decodes a union of forests with ids of its own; an error
        # names the edge and task of the graph the caller passed.
        certain = cb.parse_prior_spec("atoms:0=0.5,1=0.5")
        for seed in range(20):
            g = cb.generate_regular_bipartite(30, 3, 3, seed=seed)
            truth = cb.sample_ground_truth(g, certain, seed=seed)
            with pytest.raises(cb.NumericDegeneracyError, match=self.ZERO_MASS) as error:
                cb.oracle_task_estimate(g, rng.choice([-1, 1], g.n_edges), certain, truth)
            edge, task, worker = map(int, re.findall(r"\d+", str(error.value)))
            assert edge < g.n_edges and g.edges[edge].tolist() == [task, worker]
        # Rooted at task 1, workers 0 and 2 each answer one revealed task as
        # well (tasks 0 and 2): worker 0 wrongly, so it is always wrong, and
        # worker 2 rightly, so it is always right.  Both answer task 1 with
        # +1, so its belief holds +inf and -inf.
        g = cb.AssignmentGraph(3, 3, np.array([[0, 0], [0, 1], [0, 2], [1, 0], [1, 2],
                                               [2, 1], [2, 2]]))
        truth = cb.GroundTruth(np.ones(3, dtype=np.int64), np.full(3, 0.5))
        with pytest.raises(cb.NumericDegeneracyError, match="^belief for task 0 has zero mass$"):
            cb.oracle_task_estimate(g, np.array([-1, -1, 1, 1, 1, 1, 1]), certain, truth)

    def test_zero_mass_in_a_later_block_names_the_callers_edge_and_task(self, monkeypatch):
        # Ten clean stars of three tasks come first; the contradictory
        # instances of the tests above follow, so their roots make the last
        # block of a batch of several.  Each error names what the instance
        # alone names, shifted to its ids in the caller's graph.
        certain = cb.parse_prior_spec("atoms:0=0.5,1=0.5")
        clean = cb.generate_regular_bipartite(30, 1, 3, seed=4)
        n, m = clean.n_tasks, clean.n_workers
        clean_truth = cb.sample_ground_truth(clean, certain, seed=5)
        clean_answers = cb.sample_answers(clean, clean_truth, seed=6).answers
        k33 = np.array([[t, u] for t in range(3) for u in range(3)])
        cases = [
            (k33, np.array([1, 1, 1, 1, 1, 1, -1, 1, 1]), np.array([1.0, 1.0, 0.0]),
             self.ZERO_MASS),
            (np.array([[0, 0], [0, 1], [0, 2], [1, 0], [1, 2], [2, 1], [2, 2]]),
             np.array([-1, -1, 1, 1, 1, 1, 1]), np.full(3, 0.5), "^belief for task 0"),
        ]
        for edges, answers, reliabilities, message in cases:
            bad = cb.AssignmentGraph(3, 3, edges)
            bad_truth = cb.GroundTruth(np.ones(3, dtype=np.int64), reliabilities)
            with pytest.raises(cb.NumericDegeneracyError, match=message) as alone:
                cb.oracle_task_estimate(bad, answers, certain, bad_truth)
            g = cb.AssignmentGraph(n + 3, m + 3, np.concatenate([clean.edges, edges + [n, m]]))
            truth = cb.GroundTruth(np.concatenate([clean_truth.labels, bad_truth.labels]),
                                   np.concatenate([clean_truth.reliabilities, reliabilities]))
            batches = []
            decode = exact._decode_batch

            def recording(graph, a, prior, labels, batch, margins):
                batches.append(batch[0])
                return decode(graph, a, prior, labels, batch, margins)

            monkeypatch.setattr(exact, "_decode_batch", recording)
            # Blocks of three roots, the last the instance's own.
            monkeypatch.setattr(exact, "_BLOCK_VISITS", 3 * (g.n_edges + g.n_tasks + g.n_workers))
            with pytest.raises(cb.NumericDegeneracyError) as error:
                cb.oracle_task_estimate(g, np.concatenate([clean_answers, answers]),
                                        certain, truth)
            monkeypatch.undo()
            keys = batches[-1]
            assert len(keys) >= 2 and keys[-1].min() // g.n_edges == n
            assert keys[0].max() // g.n_edges < n
            want = str(alone.value)
            if "edge" in want:
                edge, task, worker = map(int, re.findall(r"\d+", want))
                want = (f"worker message on edge {edge + clean.n_edges} "
                        f"(task {task + n}, worker {worker + m}) has zero mass")
            else:
                want = want.replace("task 0", f"task {n}")
            assert str(error.value) == want

    def test_truth_length_validated(self):
        g = four_cycle()
        bad = cb.GroundTruth(np.ones(3, dtype=np.int64), np.full(2, 0.8))
        with pytest.raises(cb.ParameterError):
            cb.oracle_task_estimate(g, np.ones(4, dtype=int), cb.spammer_hammer(), bad)

    def test_answers_length_validated(self):
        g = four_cycle()
        truth = cb.GroundTruth(np.ones(2, dtype=np.int64), np.full(2, 0.8))
        with pytest.raises(cb.ParameterError, match="answers must hold one value per edge"):
            cb.oracle_task_estimate(g, np.ones(3, dtype=int), cb.spammer_hammer(), truth)


class TestKhopSubgraph:
    def test_path_example(self):
        g = path_graph()
        inside, boundary = khop_subgraph(g, 0, 1)
        assert inside.tolist() == [0, 1]
        assert boundary.tolist() == [1]
        inside2, boundary2 = khop_subgraph(g, 0, 2)
        assert inside2.tolist() == [0, 1, 2, 3]
        assert boundary2.size == 0

    def test_k_must_be_positive(self):
        with pytest.raises(cb.ParameterError):
            khop_subgraph(path_graph(), 0, 0)


class TestExactGain:
    def test_single_answer_gain_frozen(self):
        g = cb.AssignmentGraph(1, 1, np.array([[0, 0]]))
        none = np.empty(0, dtype=np.int64)
        gain = exact_conditional_gain(g, cb.spammer_hammer(), 0,
                                      np.array([0]), none)
        assert gain == pytest.approx(0.2, rel=1e-12)

    def test_revealing_a_label_never_hurts(self, rng):
        none = np.empty(0, dtype=np.int64)
        for _ in range(25):
            g = random_small_graph(rng)
            prior = random_prior(rng)
            all_edges = np.arange(g.n_edges)
            base = exact_conditional_gain(g, prior, 0, all_edges, none)
            other = int(rng.integers(1, g.n_tasks))
            more = exact_conditional_gain(g, prior, 0, all_edges,
                                          np.array([other]))
            assert more >= base - 1e-12

    def test_local_view_with_revealed_ring_beats_full_view(self, rng):
        # Workers an odd distance below the ring answer only inside it, so
        # the ring labels screen the root off from everything outside; the
        # local decoder is at least as good as one that reads every answer.
        none = np.empty(0, dtype=np.int64)
        for _ in range(40):
            g = random_small_graph(rng)
            prior = random_prior(rng)
            inside, boundary = khop_subgraph(g, 0, 1)
            local = exact_conditional_gain(g, prior, 0, inside, boundary)
            full = exact_conditional_gain(g, prior, 0, np.arange(g.n_edges), none)
            assert local >= full - 1e-12

    def test_gain_without_information_is_not_negative(self):
        # Root 11 has no answers, so the exact gain is 0.  Summing 2^12 x 2^10
        # error masses used to carry rounding past 1/2 and return -1.55e-15.
        g = cb.AssignmentGraph(12, 3, np.array([(t, t % 3) for t in range(10)]))
        gain = exact_conditional_gain(g, cb.spammer_hammer(), 11, np.arange(10),
                                      np.array([10]))
        assert 0.0 <= gain <= 1e-15

    @pytest.mark.parametrize("edge_ids", [[0, 0], [0, 0, 0]])
    def test_repeated_edge_ids_rejected(self, edge_ids):
        # [0, 0] used to read answer 0 twice and return 0.2 against
        # 0.19999999999999996 for [0]; [0, 0, 0] ended in an IndexError.
        g = cb.generate_regular_bipartite(4, 2, 2, seed=1)
        with pytest.raises(cb.ParameterError, match="edge ids"):
            exact_conditional_gain(g, cb.spammer_hammer(), 0, np.array(edge_ids),
                                   np.empty(0, dtype=np.int64))

    def test_root_clamp_rejected(self):
        g = path_graph()
        with pytest.raises(cb.ParameterError, match="root"):
            exact_conditional_gain(g, cb.spammer_hammer(), 0,
                                   np.arange(g.n_edges), np.array([0]))

    def test_enumeration_guards(self):
        wide = cb.AssignmentGraph(13, 1, np.array([[t, 0] for t in range(13)]))
        with pytest.raises(cb.SizeError):
            exact_conditional_gain(wide, cb.spammer_hammer(), 0,
                                   np.array([0]), np.empty(0, dtype=np.int64))
        edges = [(t, u) for t in range(4) for u in range(3)][:11]
        many = cb.AssignmentGraph(4, 3, np.array(edges))
        with pytest.raises(cb.SizeError):
            exact_conditional_gain(many, cb.spammer_hammer(), 0,
                                   np.arange(11), np.empty(0, dtype=np.int64))


class TestSubsetMonotonicity:
    def test_subset_validation(self):
        g = path_graph()
        prior = cb.spammer_hammer()
        with pytest.raises(cb.ParameterError):
            cb.subset_monotonicity_check(g, prior, np.array([0, 0]))
        with pytest.raises(cb.ParameterError):
            cb.subset_monotonicity_check(g, prior, np.array([4]))
        with pytest.raises(cb.ParameterError):
            cb.subset_monotonicity_check(g, prior, np.array([-1]))

    def test_full_view_never_loses_no_tolerance(self, rng):
        for _ in range(200):
            g = random_small_graph(rng)
            prior = random_atom_prior(rng) if rng.random() < 0.7 else cb.spammer_hammer()
            size = int(rng.integers(0, g.n_edges + 1))
            subset = rng.choice(g.n_edges, size=size, replace=False)
            root = int(rng.integers(g.n_tasks))
            df, ds = cb.subset_monotonicity_check(g, prior, subset, root=root)
            assert df >= ds

    def test_agrees_with_independent_enumeration(self, rng):
        none = np.empty(0, dtype=np.int64)
        for _ in range(50):
            g = random_small_graph(rng)
            prior = random_prior(rng)
            size = int(rng.integers(0, g.n_edges + 1))
            subset = rng.choice(g.n_edges, size=size, replace=False)
            root = int(rng.integers(g.n_tasks))
            df, ds = cb.subset_monotonicity_check(g, prior, subset, root=root)
            direct_full = exact_conditional_gain(g, prior, root,
                                                 np.arange(g.n_edges), none)
            direct_sub = exact_conditional_gain(g, prior, root,
                                                np.sort(subset), none)
            assert abs(df - direct_full) <= 1e-12
            assert abs(ds - direct_sub) <= 1e-12

    def test_empty_subset_has_no_gain(self, rng):
        g = random_small_graph(rng)
        _, ds = cb.subset_monotonicity_check(g, cb.spammer_hammer(),
                                             np.empty(0, dtype=np.int64))
        assert abs(ds) <= 1e-12

    def test_subset_of_everything_matches_bitwise(self, rng):
        for _ in range(10):
            g = random_small_graph(rng)
            prior = random_atom_prior(rng)
            df, ds = cb.subset_monotonicity_check(g, prior, np.arange(g.n_edges))
            assert df == ds

    def test_enumeration_guards(self):
        wide = cb.AssignmentGraph(13, 1, np.array([[t, 0] for t in range(13)]))
        with pytest.raises(cb.SizeError):
            cb.subset_monotonicity_check(wide, cb.spammer_hammer(), np.array([0]))
        edges = [(t, u) for t in range(4) for u in range(3)][:11]
        many = cb.AssignmentGraph(4, 3, np.array(edges))
        with pytest.raises(cb.SizeError):
            cb.subset_monotonicity_check(many, cb.spammer_hammer(), np.array([0]))
