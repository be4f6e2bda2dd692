import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import bp, priors
from crowdbp.bp import (bp_compute_beliefs, bp_init, bp_update_task_messages,
                        bp_update_worker_messages)
from crowdbp.graph import draw_instance
from crowdbp.priors import FactorTable
from crowdbp.segments import build_grouping, edge_blocks
from tests.conftest import (graph_of_degrees, random_atom_prior, random_bipartite_tree,
                            random_prior, regular_sh_instance, skewed_graph, skewed_sh_instance,
                            star_graph)
from tests.memory import edge_arrays, traced_peak
from tests.sweep_reference import (ATOL, assert_outcomes_match, reference_bp_run,
                                   reference_class_kernel, reference_ebp_prior,
                                   reference_task_llrs, split_path)
from tests.worker_reference import reference_worker_kernel


# The iterative decoders, which share one loop and stop rule.
DECODERS = {
    "bp": lambda g, a, **kw: cb.bp_run(g, a, cb.spammer_hammer(), **kw),
    "kos": cb.kos_run,
    "em": cb.em_run,
}


class TestSweepPieces:
    def test_init_is_uninformative(self):
        g = star_graph(3)
        state = bp_init(g)
        assert (state.msg_task_to_worker == 0.5).all()
        assert (state.msg_worker_to_task == 0.5).all()
        assert (state.beliefs == 0.5).all()

    def test_task_message_is_normalized_product_of_others(self):
        g = star_graph(3)
        state = bp_init(g)
        w2t = np.array([[0.7, 0.3], [0.6, 0.4], [0.5, 0.5]])
        state = replace(state, msg_worker_to_task=w2t)
        out = bp_update_task_messages(state, g, np.ones(3, dtype=int))
        # message to worker 2 multiplies the pairs from workers 0 and 1
        np.testing.assert_allclose(out.msg_task_to_worker[2], [7 / 9, 2 / 9], rtol=1e-12)

    def test_task_half_checks_the_answers(self):
        g = star_graph(2)
        with pytest.raises(cb.ParameterError, match="answers must hold one value per edge"):
            bp_update_task_messages(bp_init(g), g, np.ones(99))

    def test_task_half_takes_a_certain_pair_out_of_its_own_edge(self):
        # Worker 0 is certain of task 0's label: every other edge of task 0
        # hears it, and edge 0 hears the finite rest.  The LLRs are summed by
        # sign in edge order, as the sweep sums them, so the pairs are bitwise.
        g = cb.AssignmentGraph(2, 4, np.array([[0, 0], [0, 1], [0, 2], [1, 2], [1, 3]]))
        w2t = np.array([[1.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.6, 0.4], [0.7, 0.3]])
        out = bp_update_task_messages(replace(bp_init(g), msg_worker_to_task=w2t), g,
                                      np.ones(5, dtype=int))
        llr = bp._pairs_to_llr(w2t)
        task_1 = llr[3] + llr[4]
        want = bp._llr_to_pairs(np.array([llr[2], np.inf, np.inf, task_1 - llr[3],
                                          task_1 - llr[4]]))
        assert out.msg_task_to_worker.tobytes() == want.tobytes()
        np.testing.assert_array_equal(out.msg_task_to_worker[1:3], [[1.0, 0.0], [1.0, 0.0]])

    def test_task_half_names_the_edge_that_hears_both_certain_labels(self):
        # Workers 1 and 2 are certain of opposite labels for task 1: each of
        # them hears the other's, and worker 3 hears both and gets zero mass.
        g = cb.AssignmentGraph(2, 4, np.array([[0, 0], [0, 1], [1, 1], [1, 2], [1, 3]]))
        w2t = np.array([[0.7, 0.3], [0.6, 0.4], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        state = replace(bp_init(g), msg_worker_to_task=w2t)
        with pytest.raises(cb.NumericDegeneracyError,
                           match=r"^task message on edge 4 \(task 1, worker 3\) has zero mass$"):
            bp_update_task_messages(state, g, np.ones(5, dtype=int))

    def test_beliefs_multiply_all_incoming_pairs(self):
        g = star_graph(2)
        state = bp_init(g)
        state = replace(state, msg_worker_to_task=np.array([[0.7, 0.3], [0.7, 0.3]]))
        state = bp_compute_beliefs(state, g)
        np.testing.assert_allclose(state.beliefs[0], [0.49 / 0.58, 0.09 / 0.58], rtol=1e-12)

    def test_worker_kernels_agree_on_random_states(self, rng):
        for _ in range(100):
            r = int(rng.integers(1, 9))
            g = cb.AssignmentGraph(r, 1, np.array([[t, 0] for t in range(r)]))
            a = rng.choice([-1, 1], size=r)
            prior = random_prior(rng)
            table = FactorTable.build(prior, r)
            t2w = rng.uniform(0.01, 1.0, size=(r, 2))
            t2w /= t2w.sum(axis=1, keepdims=True)
            state = replace(bp_init(g), msg_task_to_worker=t2w)
            fast = bp_update_worker_messages(state, g, a, table, kernel="magnetization")
            slow = bp_update_worker_messages(state, g, a, table, kernel="naive")
            np.testing.assert_allclose(fast.msg_worker_to_task,
                                       slow.msg_worker_to_task, atol=1e-13)

    def test_naive_kernel_skips_an_edgeless_worker(self):
        # Worker 1 answers nothing; both kernels give workers 0 and 2 the same messages.
        g = cb.AssignmentGraph(2, 3, np.array([[0, 0], [1, 0], [1, 2]]))
        a = np.array([1, -1, 1])
        table = FactorTable.build(cb.spammer_hammer(), 2)
        state = replace(bp_init(g), msg_task_to_worker=np.array([[0.8, 0.2], [0.3, 0.7],
                                                                 [0.6, 0.4]]))
        fast = bp_update_worker_messages(state, g, a, table, kernel="magnetization")
        slow = bp_update_worker_messages(state, g, a, table, kernel="naive")
        np.testing.assert_allclose(fast.msg_worker_to_task, slow.msg_worker_to_task, atol=1e-13)

    def test_naive_kernel_guards_large_degrees(self):
        g = cb.AssignmentGraph(15, 1, np.array([[t, 0] for t in range(15)]))
        table = FactorTable.build(cb.spammer_hammer(), 15)
        with pytest.raises(cb.SizeError):
            bp_update_worker_messages(bp_init(g), g, np.ones(15, dtype=int), table,
                                      kernel="naive")

    def test_unknown_kernel_rejected(self):
        g = star_graph(1)
        table = FactorTable.build(cb.spammer_hammer(), 1)
        with pytest.raises(cb.ParameterError):
            bp_update_worker_messages(bp_init(g), g, np.ones(1, dtype=int), table,
                                      kernel="bogus")


class TestRun:
    def test_star_margin_under_spammer_hammer(self):
        report = cb.bp_run(star_graph(5), np.array([1, 1, 1, -1, -1]),
                           cb.spammer_hammer(), k_max=1)
        assert report.margins[0] == pytest.approx(0.4, abs=1e-12)
        assert report.labels[0] == 1

    def test_matches_brute_force_on_random_trees(self, rng):
        worst = 0.0
        for _ in range(60):
            g = random_bipartite_tree(rng)
            a = rng.choice([-1, 1], size=g.n_edges)
            prior = random_prior(rng)
            report = cb.bp_run(g, a, prior, k_max=g.n_tasks + g.n_workers + 2, tol=0.0)
            pairs = cb.brute_force_marginals(g, a, prior)
            worst = max(worst, float(np.abs((pairs[:, 0] - pairs[:, 1]) - report.margins).max()))
        assert worst < 1e-10

    def test_single_iteration_with_unit_worker_degree_is_majority_vote(self, rng):
        # Includes even task degrees, so exact ties must decode identically.
        checked = 0
        while checked < 50:
            n = int(rng.integers(2, 12))
            l = int(rng.integers(1, 7))
            prior = random_prior(rng)
            if prior.moments()[0] <= 0:
                continue
            g = cb.generate_regular_bipartite(n, l, 1, seed=int(rng.integers(2**32)))
            a = rng.choice([-1, 1], size=g.n_edges)
            bp = cb.bp_run(g, a, prior, k_max=1)
            mv = cb.majority_vote(g, a)
            np.testing.assert_array_equal(bp.labels, mv.labels)
            checked += 1

    def test_label_flip_negates_margins_bitwise(self, rng):
        g = cb.generate_regular_bipartite(30, 4, 4, seed=3)
        a = rng.choice([-1, 1], size=g.n_edges)
        for prior in (cb.spammer_hammer(), cb.ReliabilityPrior.from_beta(2, 1)):
            pos = cb.bp_run(g, a, prior, k_max=20)
            neg = cb.bp_run(g, -a, prior, k_max=20)
            np.testing.assert_array_equal(pos.margins, -neg.margins)

    def test_reports_are_bit_deterministic(self, rng):
        g = cb.generate_regular_bipartite(40, 5, 5, seed=9)
        a = rng.choice([-1, 1], size=g.n_edges)
        first = cb.bp_run(g, a, cb.spammer_hammer())
        second = cb.bp_run(g, a, cb.spammer_hammer())
        np.testing.assert_array_equal(first.margins, second.margins)
        assert first.iterations_run == second.iterations_run
        assert first.converged == second.converged

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_exact_fixed_point_counts_as_converged_at_tol_zero(self, decoder):
        g = star_graph(1)
        report = DECODERS[decoder](g, np.array([1]), k_max=50, tol=0.0)
        assert report.converged
        assert report.iterations_run < 50
        assert report.max_delta == 0.0

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_k_max_is_respected_without_convergence(self, rng, decoder):
        g = cb.generate_regular_bipartite(20, 4, 4, seed=1)
        a = rng.choice([-1, 1], size=g.n_edges)
        report = DECODERS[decoder](g, a, k_max=3, tol=1e-12)
        assert report.iterations_run == 3
        assert not report.converged

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_parameter_validation(self, decoder):
        # kos and em used to accept a negative tol.
        g = star_graph(1)
        with pytest.raises(cb.ParameterError, match="k_max"):
            DECODERS[decoder](g, np.array([1]), k_max=0)
        with pytest.raises(cb.ParameterError, match="tol"):
            DECODERS[decoder](g, np.array([1]), tol=-1.0)
        # A NaN tol used to pass: no delta is ever below it.
        with pytest.raises(cb.ParameterError, match="tol"):
            DECODERS[decoder](g, np.array([1]), tol=float("nan"))


class TestClamping:
    def test_clamped_tasks_report_their_labels(self):
        g = cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]]))
        report = cb.bp_run(g, np.array([1, 1]), cb.spammer_hammer(),
                           clamp_tasks=np.array([0]), clamp_labels=np.array([-1]))
        assert report.margins[0] == -1.0
        assert report.labels[0] == -1

    def test_revealed_neighbor_propagates_through_a_shared_worker(self):
        # One worker answered +1 on both tasks; task 0's label is revealed
        # as +1, which vouches for the worker and pulls task 1 up.
        g = cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]]))
        clamped = cb.bp_run(g, np.array([1, 1]), cb.adversary_spammer_hammer(),
                            clamp_tasks=np.array([0]), clamp_labels=np.array([1]))
        free = cb.bp_run(g, np.array([1, 1]), cb.adversary_spammer_hammer())
        assert clamped.margins[1] > free.margins[1]

    def test_clamp_shape_mismatch_rejected(self):
        g = star_graph(1)
        with pytest.raises(cb.ParameterError):
            cb.bp_run(g, np.array([1]), cb.spammer_hammer(),
                      clamp_tasks=np.array([0]), clamp_labels=np.array([1, 1]))

    @pytest.mark.parametrize("tasks, labels", [(None, [1, -1]), ([], [7]), ([0], None),
                                               ([], [1]), (None, []), ([0], [])])
    def test_clamp_labels_without_their_tasks_rejected(self, tasks, labels):
        # Labels without tasks, or with an empty task list, used to decode as
        # if nothing were clamped.
        g = cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]]))
        with pytest.raises(cb.ParameterError, match="clamp"):
            cb.bp_run(g, np.array([1, 1]), cb.spammer_hammer(),
                      clamp_tasks=tasks, clamp_labels=labels)

    def test_no_clamp_keeps_the_unclamped_bits(self, rng):
        # An empty clamp leaves the scalar field -0.0, so the margins keep
        # their bits, signed zeros included.
        g = cb.AssignmentGraph(4, 2, np.array([[0, 0], [1, 0], [2, 1], [3, 1]]))
        a = np.array([1, -1, 1, 1])
        free = cb.bp_run(g, a, cb.spammer_hammer())
        empty = cb.bp_run(g, a, cb.spammer_hammer(), clamp_tasks=[], clamp_labels=[])
        assert empty.margins.tobytes() == free.margins.tobytes()
        assert (empty.iterations_run, empty.max_delta) == (free.iterations_run, free.max_delta)

    @pytest.mark.parametrize("tasks", [[-1], [3], [0, -3]])
    def test_out_of_range_clamp_tasks_rejected(self, tasks):
        # A negative id used to wrap around: [-1] clamped the last task.
        g = cb.AssignmentGraph(3, 1, np.array([[0, 0], [1, 0], [2, 0]]))
        with pytest.raises(cb.ParameterError, match="clamp task"):
            cb.bp_run(g, np.array([1, 1, 1]), cb.spammer_hammer(),
                      clamp_tasks=np.array(tasks), clamp_labels=np.ones(len(tasks), int))

    def test_a_task_clamped_to_both_labels_is_refused(self):
        # The last label used to win: the run reported margin -1 for task 0.
        g = cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]]))
        with pytest.raises(cb.ParameterError, match="clamp task 0 "):
            cb.bp_run(g, np.array([1, 1]), cb.spammer_hammer(),
                      clamp_tasks=np.array([0, 0]), clamp_labels=np.array([1, -1]))
        repeated = cb.bp_run(g, np.array([1, 1]), cb.spammer_hammer(),
                             clamp_tasks=np.array([0, 0]), clamp_labels=np.array([-1, -1]))
        once = cb.bp_run(g, np.array([1, 1]), cb.spammer_hammer(),
                         clamp_tasks=np.array([0]), clamp_labels=np.array([-1]))
        assert repeated.margins.tobytes() == once.margins.tobytes()

    @pytest.mark.parametrize("label", [0, 2, -2])
    def test_clamp_labels_outside_plus_minus_one_rejected(self, label):
        # Any label other than 1 used to pin the task to -1.
        g = cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]]))
        with pytest.raises(cb.ParameterError, match="clamp label"):
            cb.bp_run(g, np.array([1, 1]), cb.spammer_hammer(),
                      clamp_tasks=np.array([0]), clamp_labels=np.array([label]))


class TestDegeneracy:
    def test_contradicted_perfect_workers_name_the_task(self):
        # Four perfect single-answer workers split 2-2 leave no label with
        # positive mass once the pair floor underflows.
        perfect = cb.ReliabilityPrior.from_atoms([1.0], [1.0])
        g = star_graph(4)
        with pytest.raises(cb.NumericDegeneracyError, match="task 0"):
            cb.bp_run(g, np.array([1, 1, -1, -1]), perfect, k_max=1)

    @pytest.mark.parametrize("chunk", [1, None])
    def test_contradicted_perfect_workers_name_the_first_task_message(self, monkeypatch,
                                                                      chunk):
        # In the second sweep each edge of task 1 hears a certain +1 and a
        # certain -1 from its other workers: the run stops at its task half
        # and names the first such edge, also where blocks of one edge put
        # it in a later block than the first.
        if chunk is not None:
            monkeypatch.setattr(bp, "_CHUNK", chunk)
        perfect = cb.ReliabilityPrior.from_atoms([1.0], [1.0])
        g = cb.AssignmentGraph(2, 5, np.array([[0, 0], [1, 1], [1, 2], [1, 3], [1, 4]]))
        answers = np.array([1, 1, 1, -1, -1])
        message = r"^task message on edge 1 \(task 1, worker 1\) has zero mass$"
        for run in (cb.bp_run, reference_bp_run):
            with pytest.raises(cb.NumericDegeneracyError, match=message):
                run(g, answers, perfect, k_max=2)

    def test_clamp_contradicting_a_perfect_worker_names_the_edge(self):
        perfect = cb.ReliabilityPrior.from_atoms([1.0], [1.0])
        g = cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]]))
        with pytest.raises(cb.NumericDegeneracyError, match="edge"):
            cb.bp_run(g, np.array([1, 1]), perfect,
                      clamp_tasks=np.array([0]), clamp_labels=np.array([-1]))

    def test_clamps_that_a_certain_worker_contradicts_name_the_task(self):
        # A worker always right or always wrong answered +1 on tasks clamped
        # to +1 and -1: no reliability fits.  The clamps used to override the
        # beliefs, and the run reported margins (1, -1) as converged.
        certain = cb.parse_prior_spec("atoms:0=0.5,1=0.5")
        g = cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]]))
        with pytest.raises(cb.NumericDegeneracyError,
                           match="^belief for task 0 has zero mass$"):
            cb.bp_run(g, np.array([1, 1]), certain,
                      clamp_tasks=np.array([0, 1]), clamp_labels=np.array([1, -1]))

    @pytest.mark.parametrize("k_max,message", [
        (8, "^belief for task 2 has zero mass$"),
        (100, r"^worker message on edge 4 \(task 1, worker 2\) has zero mass$"),
    ], ids=["k8", "k100"])
    @pytest.mark.xfail(strict=True, raises=cb.NumericDegeneracyError,
                       reason="loopy BP's messages contradict each other where the exact "
                              "posterior has mass; the error says zero mass")
    def test_zero_mass_only_where_the_exact_posterior_has_none(self, k_max, message):
        # Workers always right (weight 0.111) or always wrong: the exact
        # marginals are (1/2, 1/2) at every task.  At k_max 1-7 BP decodes,
        # its margins flipping sign from sweep to sweep; from 8 it raises.
        g = cb.AssignmentGraph(3, 5, np.array([[0, 0], [0, 2], [0, 3], [0, 4], [1, 2],
                                               [1, 3], [1, 4], [2, 0], [2, 2]]))
        answers = np.array([-1, -1, 1, 1, -1, 1, 1, -1, -1])
        certain = cb.ReliabilityPrior.from_atoms([1.0, 0.0], [0.111, 0.889])
        np.testing.assert_allclose(cb.brute_force_marginals(g, answers, certain), 0.5, atol=1e-12)
        try:
            report = cb.bp_run(g, answers, certain, k_max=k_max)
        except cb.NumericDegeneracyError as error:
            assert re.search(message, str(error))
            raise
        assert np.all(np.abs(report.margins) <= 1.0)


class TestLargeDegrees:
    """Degrees whose message products underflow a probability-scale product."""

    def test_task_with_a_thousand_answers_decodes(self):
        a = np.where(np.arange(1000) < 600, 1, -1)
        report = cb.bp_run(star_graph(1000), a, cb.spammer_hammer(), k_max=3)
        # Each single-answer worker sends the LLR a * log(0.7 / 0.3).
        assert report.labels[0] == 1
        assert report.margins[0] == pytest.approx(np.tanh(100 * np.log(7 / 3)), abs=1e-12)

    def test_worker_with_1200_answers_decodes(self):
        n = 1200
        g = cb.AssignmentGraph(n, 1, np.column_stack((np.arange(n), np.zeros(n, dtype=int))))
        a = np.where(np.arange(n) % 3 == 0, -1, 1)
        report = cb.bp_run(g, a, cb.spammer_hammer(), k_max=3)
        # Single-answer tasks tell the worker nothing, so every task gets
        # the prior-mean margin E[2p - 1] = 0.4 in the direction answered.
        np.testing.assert_array_equal(report.labels, a)
        np.testing.assert_allclose(report.margins, 0.4 * a, rtol=0, atol=1e-12)

    def test_prolific_worker_on_forty_percent_of_tasks_decodes(self):
        prior = cb.spammer_hammer()
        base = cb.generate_regular_bipartite(3000, 3, 3, seed=11)
        tasks = np.flatnonzero(cb.rng_from(12).random(3000) < 0.4)
        prolific = np.column_stack((tasks, np.full(tasks.size, base.n_workers)))
        g = cb.AssignmentGraph(3000, base.n_workers + 1,
                               np.concatenate((base.edges, prolific)))
        assert g.worker_degrees.max() > 1100
        truth = cb.sample_ground_truth(g, prior, seed=13)
        answers = cb.sample_answers(g, truth, seed=14)
        report = cb.bp_run(g, answers, prior, k_max=10)
        assert np.isfinite(report.margins).all()
        bp_error = cb.error_rate(report, truth.labels)
        mv_error = cb.error_rate(cb.majority_vote(g, answers), truth.labels)
        assert bp_error <= mv_error


def naive_pair_sweeps(g, a, prior, k, clamp_tasks, clamp_labels):
    """k sweeps of the pair-valued pieces with the enumerating worker kernel."""
    table = FactorTable.build(prior, int(g.worker_degrees.max()))
    label_of = dict(zip(clamp_tasks.tolist(), clamp_labels.tolist()))
    pinned = np.array([t in label_of for t in g.edges[:, 0]], dtype=bool)
    point = np.array([[1.0, 0.0] if label_of.get(t) == 1 else [0.0, 1.0]
                      for t in g.edges[:, 0]])
    state = bp_init(g)
    for _ in range(k):
        state = bp_update_task_messages(state, g, a)
        t2w = state.msg_task_to_worker.copy()
        t2w[pinned] = point[pinned]
        state = replace(state, msg_task_to_worker=t2w)
        state = bp_update_worker_messages(state, g, a, table, kernel="naive")
    beliefs = bp_compute_beliefs(state, g).beliefs
    margins = beliefs[:, 0] - beliefs[:, 1]
    margins[clamp_tasks] = clamp_labels
    return margins


def random_loopy_graph(rng, max_tasks=8, max_workers=6, max_degree=8):
    n_tasks = int(rng.integers(3, max_tasks + 1))
    n_workers = int(rng.integers(2, max_workers + 1))
    edges = []
    for u in range(n_workers):
        degree = int(rng.integers(1, min(max_degree, n_tasks) + 1))
        edges += [(int(t), u) for t in rng.choice(n_tasks, size=degree, replace=False)]
    return cb.AssignmentGraph(n_tasks, n_workers, np.array(edges)[rng.permutation(len(edges))])


class TestLlrCore:
    def test_bp_run_matches_naive_pair_sweeps_on_loopy_graphs(self, rng):
        for case in range(120):
            g = random_loopy_graph(rng)
            a = rng.choice([-1, 1], size=g.n_edges)
            prior = random_prior(rng)
            k = int(rng.integers(1, 7))
            n_clamped = int(rng.integers(0, 3)) if case % 2 else 0
            clamp_tasks = rng.choice(g.n_tasks, size=n_clamped, replace=False)
            clamp_labels = rng.choice([-1, 1], size=n_clamped)
            report = cb.bp_run(g, a, prior, k_max=k, tol=0.0,
                               clamp_tasks=clamp_tasks, clamp_labels=clamp_labels)
            expected = naive_pair_sweeps(g, a, prior, k, clamp_tasks, clamp_labels)
            np.testing.assert_allclose(report.margins, expected, rtol=0, atol=1e-12)
            decisive = np.abs(expected) > 1e-12
            np.testing.assert_array_equal(report.labels[decisive],
                                          cb.decode_labels(expected)[decisive])

    def test_mirror_image_llrs_cancel_exactly_in_any_edge_order(self, rng):
        g = star_graph(4)
        pairs = np.array([[0.7, 0.3], [0.6, 0.4], [0.3, 0.7], [0.4, 0.6]])
        for perm in itertools.permutations(range(4)):
            state = replace(bp_init(g), msg_worker_to_task=pairs[list(perm)])
            beliefs = bp_compute_beliefs(state, g).beliefs
            assert beliefs[0, 0] == beliefs[0, 1] == 0.5
        # Two tasks, each with three single-answer workers per side, their
        # edges interleaved in random global orders.
        edges = np.array([(t, 6 * t + j) for t in range(2) for j in range(6)])
        answers = np.array([1, 1, 1, -1, -1, -1] * 2)
        for _ in range(20):
            perm = rng.permutation(12)
            g = cb.AssignmentGraph(2, 12, edges[perm])
            report = cb.bp_run(g, answers[perm], cb.spammer_hammer(), k_max=1)
            np.testing.assert_array_equal(report.margins, [0.0, 0.0])
            np.testing.assert_array_equal(report.labels, [1, 1])

    def test_certain_atom_gives_exact_zero_factor(self):
        # Atoms at p = 1 and p = 0 make (1 + mu A x) exactly 0 against the
        # certain messages below; the magnetization kernel must count those
        # zeros, not divide by them.
        g = cb.AssignmentGraph(3, 1, np.array([[0, 0], [1, 0], [2, 0]]))
        answers = np.array([1, 1, -1])
        t2w = np.array([[1.0, 0.0], [0.0, 1.0], [0.65, 0.35]])
        state = replace(bp_init(g), msg_task_to_worker=t2w)
        for p, w in (([1.0, 0.8], [0.5, 0.5]), ([0.0, 0.6, 1.0], [0.2, 0.3, 0.5])):
            table = FactorTable.build(cb.ReliabilityPrior.from_atoms(p, w), 3)
            with np.errstate(invalid="raise"):
                fast = bp_update_worker_messages(state, g, answers, table).msg_worker_to_task
            slow = bp_update_worker_messages(state, g, answers, table,
                                             kernel="naive").msg_worker_to_task
            assert np.isfinite(fast).all()
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-13)


class TestTaskTotals:
    @staticmethod
    def assert_matches_reference(lam, keys, n_tasks, field):
        # The task half's totals and each edge's leave-one-out LLR, a block of
        # _CHUNK edges at a time as _task_half takes them, against the
        # reference, which sees a clamp as one more LLR of its task after
        # the edges.  NaN marks zero mass whatever its sign bit.
        def bits(values):
            return np.where(np.isnan(values), np.nan, values).tobytes()

        g = build_grouping(keys, n_tasks)
        total, certain = bp._task_totals(lam, g, field)
        others = np.empty(lam.size)
        for at in edge_blocks(lam.size, bp._CHUNK):
            bp._task_others(total, certain, lam[at], g.keys[at], others[at])
        field = np.broadcast_to(field, n_tasks)
        clamped = np.flatnonzero(np.isinf(field))
        want_total, want_others = reference_task_llrs(
            np.concatenate([lam, field[clamped]]),
            build_grouping(np.concatenate([keys, clamped]), n_tasks))
        assert bits(total) == bits(want_total)
        assert bits(others) == bits(want_others[:lam.size])

    @pytest.mark.parametrize("chunk", [1, 5, 64, None])
    def test_totals_and_others_match_the_reference_across_blocks(self, rng, monkeypatch,
                                                                  chunk):
        # Blocks of 1, 5 and 64 edges and the shipped block.  Task 0 hears
        # ±0.0 and mirrored pairs, which cancel to exactly 0; task 1 hears
        # its finite LLRs in the first block of 64 and +inf in the fourth,
        # task 2 -inf first and its finite LLRs later; task 3 hears +inf and
        # -inf, zero mass, and task 4 a NaN; task 5 has no edges.  The rest
        # hear finite LLRs over seven orders of magnitude, so that a sum in
        # any other order would differ in its last bits.
        if chunk is not None:
            monkeypatch.setattr(bp, "_CHUNK", chunk)
        n_tasks, m = 12, 300
        keys = rng.integers(6, n_tasks, size=m)
        lam = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4, size=m)
        placed = {0: [0.0, -0.0, 1.5, -1.5, 0.75, 2.25, -0.75, -2.25],
                  1: [3.0, -0.5, 1.25, np.inf], 2: [-np.inf, 2.5, -4.0],
                  3: [0.5, np.inf, -1.0, -np.inf], 4: [1.0, np.nan, -2.0]}
        at = {0: [3, 17, 40, 41, 70, 130, 131, 299], 1: [2, 30, 63, 200],
              2: [5, 150, 250], 3: [7, 8, 100, 190], 4: [9, 65, 280]}
        for task, values in placed.items():
            keys[at[task]], lam[at[task]] = task, values
        clamps = np.full(n_tasks, -0.0)
        clamps[[1, 6]], clamps[[2, 7]] = np.inf, -np.inf
        for field in (-0.0, np.full(n_tasks, -0.0), clamps):
            self.assert_matches_reference(lam, keys, n_tasks, field)
            # Without the specials every total is finite; a clamp alone adds ±inf.
            finite = np.isfinite(lam)
            self.assert_matches_reference(lam[finite], keys[finite], n_tasks, field)
        # Random shapes, with no infinite LLR, a few or many.
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        for case in range(60):
            n_tasks, m = int(rng.integers(1, 10)), int(rng.integers(0, 200))
            keys = rng.integers(0, n_tasks, size=m)
            lam = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4, size=m)
            special = rng.random(m) < [0.0, 0.02, 0.2][case % 3]
            lam[special] = rng.choice(specials, size=int(special.sum()))
            field = np.where(rng.random(n_tasks) < 0.2, rng.choice([-np.inf, np.inf], n_tasks),
                             -0.0) if case % 2 else -0.0
            self.assert_matches_reference(lam, keys, n_tasks, field)


def empirical_atoms(rng, n_atoms):
    """An empirical prior with exactly ``n_atoms`` atoms of unequal weight."""
    values = rng.uniform(0.02, 0.98, size=n_atoms)
    return cb.empirical_prior(np.repeat(values, rng.integers(1, 5, size=n_atoms)))


def reference_run(monkeypatch, *args, **kwargs):
    """``bp_run`` with the one-rule reference as its worker half."""
    built = []

    def kernel(*kernel_args):
        built.append(kernel_args)
        return reference_worker_kernel(*kernel_args)

    with monkeypatch.context() as patch:
        patch.setattr(bp, "_class_kernel", kernel)
        report = cb.bp_run(*args, **kwargs)
    # A seam bp_run no longer calls would leave every comparison trivially true.
    assert len(built) == 1, "bp_run did not build its worker half through the reference"
    return report


def random_clamps(rng, g, case):
    n_clamped = int(rng.integers(1, 4)) if case % 2 else 0
    tasks = rng.choice(g.n_tasks, size=n_clamped, replace=False)
    return tasks, rng.choice([-1, 1], size=n_clamped)


class TestDegreeClasses:
    """Each degree class runs its own Gauss rule; the one-rule kernel is the reference."""

    # Margins of the reduced rules agree with the one-rule kernel's to this
    # absolute tolerance (the rules match the prior's moments to about 1e-14).
    ATOL = 1e-12

    PRIORS = ("sh", "ash", "atoms", "beta", "empirical")

    def make_prior(self, rng, kind):
        if kind == "atoms":
            return random_atom_prior(rng, max_atoms=6)
        if kind == "beta":
            return cb.ReliabilityPrior.from_beta(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))
        if kind == "empirical":
            return empirical_atoms(rng, int(rng.integers(50, 401)))
        return cb.parse_prior_spec(kind)

    @pytest.mark.parametrize("overhead", [0, None])
    def test_matches_one_rule_reference_on_irregular_graphs(self, rng, monkeypatch, overhead):
        # Overhead 0 splits every class even on small graphs; the default
        # constant runs larger graphs with the merge rule as shipped.
        if overhead is not None:
            monkeypatch.setattr(bp, "_CLASS_OVERHEAD_EDGES", overhead)
        split = 0
        for case in range(30):
            kind = self.PRIORS[case % len(self.PRIORS)]
            g = (skewed_graph(rng, int(rng.integers(20, 80)), 40) if overhead == 0
                 else skewed_graph(rng, 1000, 200))
            a = rng.choice([-1, 1], size=g.n_edges)
            prior = self.make_prior(rng, kind)
            clamp_tasks, clamp_labels = random_clamps(rng, g, case)
            k = int(rng.integers(1, 6))
            kwargs = dict(k_max=k, tol=0.0, clamp_tasks=clamp_tasks, clamp_labels=clamp_labels)
            got = cb.bp_run(g, a, prior, **kwargs)
            ref = reference_run(monkeypatch, g, a, prior, **kwargs)
            np.testing.assert_allclose(got.margins, ref.margins, rtol=0, atol=self.ATOL)
            # A margin within rounding of 0 may decode either way: after one
            # sweep from clamps, workers of different classes whose other
            # answers carry nothing but a clamp can tie in the reference.
            decisive = np.abs(ref.margins) > self.ATOL
            np.testing.assert_array_equal(got.labels[decisive], ref.labels[decisive])
            if k == 1 and not clamp_tasks.size:
                # One sweep from x = 0: every message is the prior-mean LLR.
                assert got.margins.tobytes() == ref.margins.tobytes()
            split += len(_classes(prior, g)) > 1
        assert split >= 10

    def test_bitwise_where_every_class_keeps_the_atoms(self, rng, monkeypatch):
        monkeypatch.setattr(bp, "_CLASS_OVERHEAD_EDGES", 0)
        for case in range(40):
            if case % 2:
                r = int(rng.integers(4, 10))
                g = cb.generate_regular_bipartite(6 * r, int(rng.integers(2, 5)), r,
                                                  seed=int(rng.integers(2**32)))
                prior = cb.parse_prior_spec(("sh", "ash")[case % 4 // 2])
            else:
                # Every worker needs r//2 + 1 >= K nodes.
                prior = random_atom_prior(rng, max_atoms=3)
                g = skewed_graph(rng, 50, 30, min_degree=2 * prior.atom_p.size - 2)
            assert [k for k, _ in bp._degree_classes(g.worker_degrees,
                                                      prior.atom_p.size)] == [prior.atom_p.size]
            a = rng.choice([-1, 1], size=g.n_edges)
            clamp_tasks, clamp_labels = random_clamps(rng, g, case)
            kwargs = dict(k_max=int(rng.integers(1, 8)), tol=0.0,
                          clamp_tasks=clamp_tasks, clamp_labels=clamp_labels)
            got = cb.bp_run(g, a, prior, **kwargs)
            ref = reference_run(monkeypatch, g, a, prior, **kwargs)
            assert got.margins.tobytes() == ref.margins.tobytes()

    def test_small_graphs_fold_into_the_prior_atoms_bitwise(self, rng, monkeypatch):
        # Below the per-class cost every class folds into the prior's atoms:
        # the oracle's forests and the acceptance sweeps run as before.
        for case in range(20):
            prior = empirical_atoms(rng, 20) if case % 2 else cb.ReliabilityPrior.from_beta(
                rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))
            g = skewed_graph(rng, 30, 25)
            assert len(_classes(prior, g)) == 1
            a = rng.choice([-1, 1], size=g.n_edges)
            got = cb.bp_run(g, a, prior, k_max=4, tol=0.0)
            ref = reference_run(monkeypatch, g, a, prior, k_max=4, tol=0.0)
            assert got.margins.tobytes() == ref.margins.tobytes()

    def test_reduced_rules_match_the_naive_factor_table(self, rng, monkeypatch):
        # Degrees 1-14 need at most 8 nodes, below the 20+ empirical atoms,
        # and 8 K stays within the edge count (the many degree-2 and -3
        # workers), so every class runs a reduced rule against the literal
        # f(c, r).
        monkeypatch.setattr(bp, "_CLASS_OVERHEAD_EDGES", 0)
        for case in range(12):
            prior = empirical_atoms(rng, int(rng.integers(20, 30)))
            degrees = np.concatenate([np.arange(1, 15), rng.integers(2, 4, size=80)])
            g = graph_of_degrees(rng, 40, rng.permutation(degrees))
            assert max(k for k, _ in bp._degree_classes(g.worker_degrees,
                                                         prior.atom_p.size)) < prior.atom_p.size
            a = rng.choice([-1, 1], size=g.n_edges)
            clamp_tasks, clamp_labels = random_clamps(rng, g, case)
            kwargs = dict(k_max=int(rng.integers(1, 5)), tol=0.0,
                          clamp_tasks=clamp_tasks, clamp_labels=clamp_labels)
            fast = cb.bp_run(g, a, prior, **kwargs)
            slow = naive_pair_sweeps(g, a, prior, kwargs["k_max"], clamp_tasks, clamp_labels)
            np.testing.assert_allclose(fast.margins, slow, rtol=0, atol=self.ATOL)

    @pytest.mark.parametrize("capped", [True, False])
    def test_classes_partition_the_workers(self, rng, capped):
        split = 0
        for _ in range(50):
            degrees = np.minimum(rng.zipf(1.5, size=int(rng.integers(1, 400))), 2000) - (
                rng.random() < 0.3)
            n_atoms = int(rng.integers(1, 500))
            classes = bp._degree_classes(degrees, n_atoms, capped)
            counts = [k for k, _ in classes]
            assert counts == sorted(set(counts)) and counts[-1] <= n_atoms
            covered = np.sum([members for _, members in classes], axis=0)
            np.testing.assert_array_equal(covered, degrees > 0)
            for k, members in classes:
                # A reduced rule is exact for its members, and a capped one's
                # k x K Lanczos basis is no larger than the edges; the top
                # rule is exact for every degree.
                assert k == n_atoms or (degrees[members] // 2 + 1 <= k).all()
                assert k == n_atoms or not capped or k * n_atoms <= degrees.sum()
            for (k, members), (k_next, _) in zip(classes, classes[1:]):
                # A class kept apart saves at least its cost over the next one.
                assert (k_next - k) * degrees[members].sum() >= bp._CLASS_OVERHEAD_EDGES
            split += len(classes) > 1
        assert split >= 10

    def test_beta_rules_build_no_lanczos_basis_and_take_no_cap(self, rng, monkeypatch):
        # Workers of degree 100-130 need 51-66 nodes of the 201-node top
        # rule.  Under a cap of k * 201 <= edges they would join the top
        # class; a Beta prior's rules are leading blocks of its Jacobi
        # matrix, so they run their own.
        def no_lanczos(*args):
            raise AssertionError("a Beta prior built a Lanczos basis")

        monkeypatch.setattr(priors, "_lanczos", no_lanczos)
        prior = cb.ReliabilityPrior.from_beta(2, 1)
        degrees = np.concatenate([[400], rng.integers(100, 131, size=4),
                                  rng.integers(1, 4, size=3000)])
        g = graph_of_degrees(rng, 500, rng.permutation(degrees))
        capped, classes = bp._degree_classes(g.worker_degrees, 201, True), _classes(prior, g)
        top = capped[-1][1]
        assert capped[-1][0] == classes[-1][0] == 201 and (g.worker_degrees[top] >= 100).sum() == 5
        assert len(classes) > len(capped) and classes[-1][1].sum() == 1
        a = rng.choice([-1, 1], size=g.n_edges)
        clamp_tasks, clamp_labels = random_clamps(rng, g, 1)
        kwargs = dict(k_max=5, tol=0.0, clamp_tasks=clamp_tasks, clamp_labels=clamp_labels)
        ran = []
        degree_classes = bp._degree_classes
        monkeypatch.setattr(bp, "_degree_classes",
                            lambda *args: ran.append(degree_classes(*args)) or ran[-1])
        got = cb.bp_run(g, a, prior, **kwargs)
        assert [k for k, _ in ran[0]] == [k for k, _ in classes]
        ref = reference_run(monkeypatch, g, a, prior, **kwargs)
        np.testing.assert_allclose(got.margins, ref.margins, rtol=0, atol=self.ATOL)

    def test_prolific_workers_keep_the_rule_build_small(self, rng):
        # Workers of degree 3,000 and 2,400 under a 3,000-atom empirical
        # prior need 1,501 and 1,201 nodes: a reduced rule would take a
        # 1,501 x 3,000 Lanczos basis (36 MB) and about 3e10 flops.  k K
        # above the edge count keeps the atoms for them instead.
        prior = empirical_atoms(rng, 3000)
        degrees = np.concatenate([[3000, 2400], rng.integers(1, 6, size=400)])
        g = graph_of_degrees(rng, 3000, rng.permutation(degrees))
        n_atoms = prior.atom_p.size
        classes = bp._degree_classes(g.worker_degrees, n_atoms)
        assert len(classes) > 1 and classes[-1][0] == n_atoms
        assert all(k * n_atoms <= g.n_edges for k, _ in classes[:-1])
        a = rng.choice([-1, 1], size=g.n_edges)
        peak, report = traced_peak(lambda: cb.bp_run(g, a, prior, k_max=1, tol=0.0))
        assert np.isfinite(report.margins).all()
        # A sweep holds at most ten edge arrays of 8 bytes per edge, plus the
        # fold's block temporaries, five more rows on a graph smaller than
        # one block: 0.9 MB here.
        assert peak < 4 * 2**20


def outcome(decoder, *args, **kwargs):
    """A decoder's report, or the text of the degeneracy error it raised."""
    try:
        return decoder(*args, **kwargs)
    except cb.NumericDegeneracyError as exc:
        return str(exc)


class TestBufferedSweeps:
    """Each run writes its sweeps into fixed edge buffers; the allocating sweep is the reference."""

    PRIORS = ("sh", "ash", "beta", "empirical", "certain")

    def make_prior(self, rng, kind):
        if kind == "certain":
            # Workers certain to be right or wrong send infinite LLRs once a
            # clamped task decides which.
            return cb.ReliabilityPrior.from_atoms([0.0, 1.0], rng.dirichlet(np.ones(2)))
        return TestDegreeClasses().make_prior(rng, kind)

    def truthful(self, rng, g, prior, clamp_tasks):
        """Answers drawn from a ground truth under ``prior``, and its labels at
        ``clamp_tasks``.  Under ``certain`` each worker is then always right or
        always wrong, so no message loses all mass and the runs compare margins."""
        truth = cb.sample_ground_truth(g, prior, int(rng.integers(2**32)))
        return cb.sample_answers(g, truth, int(rng.integers(2**32))).answers, \
            truth.labels[clamp_tasks]

    @pytest.mark.parametrize("overhead", [0, None])
    def test_bp_matches_the_allocating_sweeps(self, rng, monkeypatch, overhead):
        # Overhead 0 splits the classes of small graphs; the shipped constant
        # keeps the atoms' class alone on them.  Split classes match within
        # the tolerance, one class bitwise.
        if overhead is not None:
            monkeypatch.setattr(bp, "_CLASS_OVERHEAD_EDGES", overhead)
        split = infinite = 0
        for case in range(40):
            kind = self.PRIORS[case % len(self.PRIORS)]
            g = (skewed_graph(rng, int(rng.integers(20, 80)), 40) if overhead == 0
                 else skewed_graph(rng, 1000, 200))
            a = rng.choice([-1, 1], size=g.n_edges)
            prior = self.make_prior(rng, kind)
            clamp_tasks, clamp_labels = random_clamps(rng, g, case)
            if kind == "certain":
                a, clamp_labels = self.truthful(rng, g, prior, clamp_tasks)
            kwargs = dict(k_max=int(rng.integers(1, 12)), tol=[0.0, 1e-5][case % 3 == 0],
                          clamp_tasks=clamp_tasks, clamp_labels=clamp_labels)
            got = outcome(cb.bp_run, g, a, prior, **kwargs)
            split_case = split_path(g, a, prior)
            assert split_case == (len(_classes(prior, g)) > 1)
            assert_outcomes_match(got, outcome(reference_bp_run, g, a, prior, **kwargs),
                                  split_case)
            split += split_case
            # Clamped certain cases send infinite messages; count those that compared
            # margins, not an error text.
            infinite += kind == "certain" and clamp_tasks.size > 0 and not isinstance(got, str)
        assert split >= 5 and infinite >= 2

    def test_bp_matches_the_allocating_sweeps_on_a_regular_graph(self):
        g, answers = regular_sh_instance(2_000)
        for prior in ("sh", "ash", "beta:2,1"):
            prior = cb.parse_prior_spec(prior)
            assert not split_path(g, answers.answers, prior)
            assert_outcomes_match(outcome(cb.bp_run, g, answers, prior, k_max=30),
                                  outcome(reference_bp_run, g, answers, prior, k_max=30),
                                  split=False)

    @pytest.mark.parametrize("spec, budget", [("sh", 2.75), ("ash", 2.75), ("beta:2,1", 3.0)])
    def test_bp_peak_memory_in_edge_arrays(self, spec, budget):
        # The allocating sweeps peaked at 15.1 edge arrays here under sh, the
        # buffered ones at 8.4 with five fold rows, at 5.0 (sh) and 7.9 (ash,
        # Beta) with four rotating buffers, and at 3.9 (sh) and 6.8 (ash,
        # Beta) with three, the fold's running maximum and two lanes spanning
        # the edges under two or more atoms with mu != 0.  Two buffers are
        # written over a block at a time now: 2.59 (sh), 2.65 (ash) and 2.85
        # (Beta), with a row of worker sums per atom with mu != 0 (0.2 here)
        # and five fold rows of 8192 edges.
        g, answers = regular_sh_instance()
        peak, report = edge_arrays(
            lambda: cb.bp_run(g, answers, cb.parse_prior_spec(spec), k_max=3, tol=0.0), g)
        assert report.iterations_run == 3
        assert peak <= budget

    def test_bp_peak_memory_on_one_class_of_a_smaller_rule(self):
        # ebp's empirical prior has more atoms than the 3 Gauss nodes that
        # degree 5 needs, so the one class of this (10, 5)-regular graph runs
        # that rule on the whole graph.  Split off like one of several
        # classes, with its gather and scatter, it peaked at 11.1, and at 6.8
        # with three rotating buffers; 2.85 in two.
        g, answers = regular_sh_instance()
        a = answers.answers
        prior = reference_ebp_prior(g, a, cb.majority_vote(g, a).labels)
        assert [k for k, _ in _classes(prior, g)] == [3]
        peak, report = edge_arrays(lambda: cb.bp_run(g, answers, prior, k_max=3, tol=0.0), g)
        assert report.iterations_run == 3
        assert peak <= 3.0

    def test_bp_peak_memory_on_split_classes(self):
        # Seven degree classes under Beta(2, 1), the top one a 51-node rule.
        # Each class used to fold in the leading columns of its own logs,
        # running maximum, two lanes and gathered magnetizations, with a key
        # array per class: 10.7 edge arrays here.  Folding a run of whole
        # workers and a group of atoms at a time in block-sized buffers, the
        # peak was 7.4, the worker-ordered edge list built by the run
        # included, and 6.2 with two edge buffers for the messages and
        # magnetizations in place of three; about 0.6 of that was numpy.ma,
        # which the plan's first plain np.unique imported in a fresh
        # process.  Folding through per-worker weights on each run's chunk
        # grid, with the factors and the chunks' products in one block, and
        # with no np.unique, it is 5.5.  One (atoms x edges) array of the top
        # class's 51 atoms would break the budget.
        g, answers = skewed_sh_instance()
        prior = cb.ReliabilityPrior.from_beta(2, 1)
        peak, report = edge_arrays(lambda: cb.bp_run(g, answers, prior, k_max=3, tol=0.0), g)
        assert report.iterations_run == 3
        assert peak <= 6.5
        assert len(_classes(prior, g)) > 5 and split_path(g, answers.answers, prior)

    def test_bp_peak_memory_with_certain_messages(self, monkeypatch):
        # Workers always right or always wrong, and every hundredth task
        # clamped to the truth: from the second sweep on, the task halves
        # hear infinite messages.  Such a task half used to build the
        # leave-one-out LLRs of every edge in whole edge arrays: 9.39 edge
        # arrays here.  Counting the infinities per task and taking each
        # edge's own out a block at a time, it peaked at 3.93 with a second
        # pass that counts them, and peaks at 3.73 with one pass that sums
        # and counts.
        prior = cb.parse_prior_spec("atoms:1.0=0.8,0.0=0.2")
        g, truth, answers = draw_instance(40_000, 5, 5, prior, 1)
        g.by_task.keys, g.by_worker.keys
        tasks = np.arange(0, g.n_tasks, 100)
        kwargs = dict(k_max=3, tol=0.0, clamp_tasks=tasks, clamp_labels=truth.labels[tasks])
        task_totals, certain = bp._task_totals, []

        def spy(*args):
            totals = task_totals(*args)
            certain.append(totals[1] is not None)
            return totals

        monkeypatch.setattr(bp, "_task_totals", spy)
        peak, report = edge_arrays(lambda: cb.bp_run(g, answers, prior, **kwargs), g)
        assert report.iterations_run == 3 and any(certain)
        assert peak <= 4.0
        want = reference_bp_run(g, answers, prior, **kwargs)
        assert report.margins.tobytes() == want.margins.tobytes()

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_bp_matches_the_allocating_sweeps_across_fold_blocks(self, rng, monkeypatch,
                                                                  chunk):
        # One class's fold runs its elementwise steps a block of edges at a
        # time; blocks of 1, 5 and 64 edges split workers at every offset.
        # certain takes the per-worker count of zero factors, ash has a mu = 0
        # atom between two others, sh one atom with mu != 0 after a mu = 0
        # one, and the empirical priors 50 to 400 atoms; at one edge per
        # block, where every atom folds edge by edge, 4 to 8 atoms.  Half the
        # cases split their classes, whose fold the next test cuts.
        monkeypatch.setattr(bp, "_CHUNK", chunk)
        kinds = ("certain", "ash", "empirical", "sh")
        infinite = split = 0
        for case in range(16):
            kind = kinds[case % len(kinds)]
            with monkeypatch.context() as patch:
                if case % 8 < 4:
                    patch.setattr(bp, "_CLASS_OVERHEAD_EDGES", 0)
                g = skewed_graph(rng, int(rng.integers(20, 80)), 40)
                a = rng.choice([-1, 1], size=g.n_edges)
                if kind == "empirical" and chunk == 1:
                    prior = empirical_atoms(rng, int(rng.integers(4, 9)))
                    assert case % 8 >= 4 or len(_classes(prior, g)) > 1
                else:
                    prior = self.make_prior(rng, kind)
                clamp_tasks, clamp_labels = random_clamps(rng, g, case // 4)
                if kind == "certain":
                    a, clamp_labels = self.truthful(rng, g, prior, clamp_tasks)
                kwargs = dict(k_max=int(rng.integers(1, 8)), tol=0.0,
                              clamp_tasks=clamp_tasks, clamp_labels=clamp_labels)
                got = outcome(cb.bp_run, g, a, prior, **kwargs)
                split_case = split_path(g, a, prior)
                assert split_case == (len(_classes(prior, g)) > 1)
                assert_outcomes_match(got, outcome(reference_bp_run, g, a, prior, **kwargs),
                                      split_case)
                if kind == "certain":
                    # x = ±1 on a fifth of the edges: zero factors at every block offset.
                    x = np.where(rng.random(g.n_edges) < 0.2, rng.choice([-1.0, 1.0], g.n_edges),
                                 rng.uniform(-0.9, 0.9, g.n_edges))
                    lam = np.zeros(g.n_edges)
                    bp._class_kernel(g, a, prior)(a * x, lam)
                    np.testing.assert_allclose(lam, reference_class_kernel(g, a, prior)(x),
                                               rtol=0, atol=ATOL if split_case else 0.0)
            infinite += kind == "certain" and clamp_tasks.size > 0 and not isinstance(got, str)
            split += split_case
        assert infinite >= 2 and 0 < split < 16
        no_edges = cb.AssignmentGraph(3, 2, np.empty((0, 2), dtype=np.int64))
        for spec in ("sh", "ash"):
            report = cb.bp_run(no_edges, np.empty(0, dtype=np.int64), cb.parse_prior_spec(spec))
            assert report.margins.tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("group", [1, 2, 3, None])
    def test_split_classes_match_across_atom_groups(self, rng, monkeypatch, group):
        # Split classes fold a run of whole workers and a group of atoms at a
        # time.  Groups of 1, 2 and 3 atoms, and all atoms in one group, carry
        # each group's maximum and lanes into the next at every atom offset.
        # certain (p = 0 and 1) sends infinite messages under clamps and, on
        # random answers, raises zero-mass errors; ash has a mu = 0 atom
        # between two others; both run in runs cut at 64 atom-edges, a few
        # workers each.  The empirical priors have 50 to 400 atoms, so their
        # graphs are larger: a smaller rule's k times K must fit the edges.
        monkeypatch.setattr(bp, "_CLASS_OVERHEAD_EDGES", 0)
        atom_groups, built = bp._atom_groups, []

        def groups(mu, w, size):
            built.append((mu.size, mu.size if group is None else group))
            return atom_groups(mu, w, built[-1][1])

        monkeypatch.setattr(bp, "_atom_groups", groups)
        kinds = ("certain", "certain", "ash", "empirical")
        infinite = errors = 0
        for case in range(16):
            kind = kinds[case % len(kinds)]
            monkeypatch.setattr(bp, "_BLOCK", 2**16 if kind == "empirical" else 64)
            g = skewed_graph(rng, int(rng.integers(*((200, 400) if kind == "empirical"
                                                      else (20, 80)))), 40)
            a = rng.choice([-1, 1], size=g.n_edges)
            prior = self.make_prior(rng, kind)
            clamp_tasks, clamp_labels = random_clamps(rng, g, case // 4)
            if kind == "certain" and case % 2 == 0:
                a, clamp_labels = self.truthful(rng, g, prior, clamp_tasks)
            assert split_path(g, a, prior)
            kwargs = dict(k_max=int(rng.integers(1, 8)), tol=0.0,
                          clamp_tasks=clamp_tasks, clamp_labels=clamp_labels)
            got = outcome(cb.bp_run, g, a, prior, **kwargs)
            assert_outcomes_match(got, outcome(reference_bp_run, g, a, prior, **kwargs),
                                  split=True)
            if kind == "certain":
                x = np.where(rng.random(g.n_edges) < 0.2, rng.choice([-1.0, 1.0], g.n_edges),
                             rng.uniform(-0.9, 0.9, g.n_edges))
                lam = np.zeros(g.n_edges)
                bp._class_kernel(g, a, prior)(a * x, lam)
                np.testing.assert_allclose(lam, reference_class_kernel(g, a, prior)(x),
                                           rtol=0, atol=ATOL)
            infinite += kind == "certain" and clamp_tasks.size > 0 and not isinstance(got, str)
            errors += isinstance(got, str)
        assert infinite >= 2 and errors >= 2
        # Every rule was cut as asked, and groups met inside some rule.
        assert {size for _, size in built} == ({group} if group else {k for k, _ in built})
        assert any(k > size for k, size in built) == (group is not None)


class TestSplitFold:
    """The split classes' fold: per-worker log sums over a product grid, then per-edge lanes."""

    @pytest.mark.parametrize("block", [None, 2**12])
    def test_prolific_workers_match_the_reference(self, rng, monkeypatch, block):
        # Workers of 400 to 1,000 answers under an empirical prior of 200 to
        # 400 atoms: each such worker is a run of its own, and at 2**12 grid
        # cells per block its atoms split into many groups, whose maxima and
        # lanes carry from group to group.
        if block is not None:
            monkeypatch.setattr(bp, "_BLOCK", block)
        for case in range(4):
            degrees = np.concatenate([rng.integers(400, 1001, size=3),
                                      np.minimum(rng.zipf(1.6, size=600), 60)])
            g = graph_of_degrees(rng, 1200, rng.permutation(degrees))
            prior = empirical_atoms(rng, int(rng.integers(200, 401)))
            a = rng.choice([-1, 1], size=g.n_edges)
            assert split_path(g, a, prior)
            top = bp._class_kernel(g, a, prior).keywords["parts"][-1][-1]
            assert max(hi - lo for lo, hi, *_ in top) >= 400
            if block is not None:
                assert max(len(groups) for *_, groups in top) > 10
            x = rng.uniform(-1.0, 1.0, g.n_edges)
            lam = np.zeros(g.n_edges)
            bp._class_kernel(g, a, prior)(a * x, lam)
            want = reference_class_kernel(g, a, prior)(x)
            assert np.isfinite(want).all()
            np.testing.assert_allclose(lam, want, rtol=0, atol=ATOL)

    def test_a_certain_atom_does_not_scale_away_the_others(self, monkeypatch):
        # Worker 0 answers all 3,000 tasks, each of which one worker of degree
        # 1 answers too.  At x = 0.999 the certain atom's log sum tops the
        # others' by more than 745 nats, but the one x = -1 zeroes its factor
        # everywhere except at that edge.  A maximum taken over every atom's
        # sum, zero or not, sends 0 / 0 on the other 2,999 edges.
        monkeypatch.setattr(bp, "_CLASS_OVERHEAD_EDGES", 0)
        n = 3000
        tasks = np.arange(n)
        g = cb.AssignmentGraph(n, n + 1, np.concatenate([
            np.column_stack((tasks, np.zeros(n, dtype=np.int64))),
            np.column_stack((tasks, tasks + 1))]))
        prior = cb.parse_prior_spec("atoms:1.0=0.3,0.7=0.3,0.5=0.4")
        a = np.ones(g.n_edges, dtype=np.int64)
        assert split_path(g, a, prior)
        x = np.full(g.n_edges, 0.999)
        contradicted = 1234
        x[contradicted] = -1.0
        lam = np.zeros(g.n_edges)
        bp._class_kernel(g, a, prior)(a * x, lam)
        want = reference_class_kernel(g, a, prior)(x)
        worker0 = np.arange(n)
        assert not np.isnan(lam).any()
        assert np.isfinite(want[worker0[worker0 != contradicted]]).all()
        assert want[contradicted] == np.inf
        np.testing.assert_allclose(lam[worker0], want[worker0], rtol=0, atol=ATOL)

    def test_a_class_whose_rule_has_only_mu_zero_takes_no_block(self, rng, monkeypatch):
        # Beta(2, 2)'s one-node rule sits at mu = 0: the one-answer workers'
        # class has no atom that takes factors, and its lanes are its weight.
        monkeypatch.setattr(bp, "_CLASS_OVERHEAD_EDGES", 0)
        prior = cb.ReliabilityPrior.from_beta(2, 2)
        g = skewed_graph(rng, 60, 40)
        a = rng.choice([-1, 1], size=g.n_edges)
        (k, (mu, _), _), *_ = bp._class_rules(g.worker_degrees, prior)[2]
        assert k == 1 and mu.tolist() == [0.0] and split_path(g, a, prior)
        x = rng.uniform(-1.0, 1.0, g.n_edges)
        lam = np.zeros(g.n_edges)
        bp._class_kernel(g, a, prior)(a * x, lam)
        np.testing.assert_allclose(lam, reference_class_kernel(g, a, prior)(x), rtol=0, atol=ATOL)

    def test_grid_chunks_cover_each_workers_edges_once(self, rng):
        # A run's grid: slot i of column t holds chunk t's i-th edge.  Each
        # chunk lies within one worker and holds at most _FACTORS edges, in
        # order; the columns go worker by worker, and together they list the
        # run's edges once.  Workers of 1, 16 and 17 edges sit at a chunk's
        # bounds, and one of hundreds takes many chunks.
        for case in range(30):
            lengths = rng.permutation(np.concatenate([
                [1, 16, 17, rng.integers(100, 1001)],
                rng.integers(1, 60, size=int(rng.integers(0, 8)))]))
            if case % 3 == 0:
                lengths = lengths[:1]
            order, slots, sizes, counts = bp._chunk_plan(lengths)
            assert 1 <= slots <= bp._FACTORS
            np.testing.assert_array_equal(np.sort(order), np.arange(lengths.sum()))
            owner = np.repeat(np.arange(lengths.size), lengths)
            cells = np.flatnonzero(sizes > np.arange(slots)[:, None])
            column = cells % sizes.size
            workers = []
            for t in range(sizes.size):
                edges = order[column == t]
                assert edges.size == sizes[t] and 1 <= edges.size <= slots
                assert (owner[edges] == owner[edges[0]]).all() and (np.diff(edges) > 0).all()
                workers.append(owner[edges[0]])
            np.testing.assert_array_equal(workers, np.repeat(np.arange(lengths.size), counts))
            if lengths.size == 1:
                # One worker keeps its edges in place, its pads trailing.
                np.testing.assert_array_equal(order, np.arange(lengths[0]))
                np.testing.assert_array_equal(cells, np.arange(lengths[0]))


def _classes(prior, g):
    """The node count and member mask of each degree class of ``g`` under ``prior``."""
    return [(k, members) for k, _, members in bp._class_rules(g.worker_degrees, prior)[2]]


class TestReportShape:
    def test_decode_ties_to_plus_one(self):
        np.testing.assert_array_equal(cb.decode_labels(np.array([0.0, -0.2, 0.3])),
                                      [1, -1, 1])

    def test_labels_match_margin_signs(self, rng):
        g = cb.generate_regular_bipartite(30, 3, 3, seed=5)
        a = rng.choice([-1, 1], size=g.n_edges)
        report = cb.bp_run(g, a, cb.spammer_hammer())
        np.testing.assert_array_equal(report.labels, cb.decode_labels(report.margins))
        assert report.margins.min() >= -1.0 and report.margins.max() <= 1.0


class TestTheoryIterations:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 1), (20, 2),
                                            (1000, 2), (10**6, 3)])
    def test_values(self, n, expected):
        assert cb.theory_iterations(n) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(cb.ParameterError):
            cb.theory_iterations(0)
