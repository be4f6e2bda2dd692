import math
import os
import subprocess
import sys

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import graph as graph_module
from crowdbp.estimators import _em_e_step, _em_m_step
from tests.conftest import regular_sh_instance, star_graph
from tests.em_reference import reference_em_run
from tests.memory import traced_peak
from tests.sweep_reference import reference_kos_run


def full_bipartite(n_tasks: int, n_workers: int) -> cb.AssignmentGraph:
    edges = [(t, u) for t in range(n_tasks) for u in range(n_workers)]
    return cb.AssignmentGraph(n_tasks, n_workers, np.array(edges))


@pytest.mark.parametrize("n_workers", [2, 0])
@pytest.mark.parametrize("name", ["mv", "kos", "em", "bp", "ebp1", "ebp2"])
def test_graph_without_edges_decodes_to_zero_margins(name, n_workers):
    # mv and ebp used to raise numpy's UFuncTypeError: the per-task sum of
    # an empty edge array came back as int64.  With no worker at all, ebp
    # used to raise ParameterError: its empirical prior had no estimate.
    g = cb.AssignmentGraph(3, n_workers, np.empty((0, 2), dtype=np.int64))
    report = cb.EstimatorSpec.parse(name).run(g, np.empty(0, dtype=np.int64),
                                              prior=cb.spammer_hammer())
    np.testing.assert_array_equal(report.margins, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(report.labels, [1, 1, 1])


@pytest.mark.parametrize("answers", [[1, -1], [1, -1, 1, 1], [[1], [-1], [1]]])
@pytest.mark.parametrize("name", ["mv", "kos", "em", "bp", "ebp1", "oracle-work",
                                  "oracle-task"])
def test_wrong_answer_shape_is_a_parameter_error(name, answers):
    # mv, oracle-work and ebp used to fail inside numpy with a bare ValueError.
    g = cb.generate_regular_bipartite(3, 1, 1, seed=0)
    truth = cb.GroundTruth(np.ones(3, dtype=np.int64), np.full(3, 0.8))
    with pytest.raises(cb.ParameterError, match="answers length"):
        cb.EstimatorSpec.parse(name).run(g, np.array(answers), prior=cb.spammer_hammer(),
                                         truth=truth, reliabilities=truth.reliabilities)


def skewed_graph_script(decode: str) -> str:
    """A child-process script that prints the sha256 of ``decode``'s margins."""
    return (
        "import hashlib, numpy as np, crowdbp as cb\n"
        "rng = np.random.default_rng(31)\n"
        "degrees = np.minimum(rng.zipf(1.6, size=1200), 300)\n"
        "stubs = rng.permutation(np.repeat(np.arange(degrees.size), degrees))\n"
        "tasks = np.arange(stubs.size) % 1000\n"
        "_, first = np.unique(tasks * degrees.size + stubs, return_index=True)\n"
        "g = cb.AssignmentGraph(1000, degrees.size,\n"
        "                       np.column_stack((tasks[first], stubs[first])))\n"
        "truth = cb.sample_ground_truth(g, cb.adversary_spammer_hammer(), seed=32)\n"
        "a = cb.sample_answers(g, truth, seed=33)\n"
        f"r = {decode}\n"
        "print(hashlib.sha256(r.margins.tobytes()).hexdigest())\n"
    )


def digests_by_blas_threads(script: str) -> list[str]:
    digests = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(proc.stdout.strip())
    return digests


class TestMajorityVote:
    def test_plain_majority(self):
        report = cb.majority_vote(star_graph(3), np.array([1, 1, -1]))
        assert report.labels[0] == 1
        assert report.margins[0] == pytest.approx(1 / 3)

    def test_tie_decodes_to_plus_one(self):
        report = cb.majority_vote(star_graph(2), np.array([1, -1]))
        assert report.labels[0] == 1
        assert report.margins[0] == 0.0

    def test_task_without_answers_gets_zero_margin(self):
        g = cb.AssignmentGraph(2, 1, np.array([[0, 0]]))
        report = cb.majority_vote(g, np.array([-1]))
        assert report.margins.tolist() == [-1.0, 0.0]
        assert report.labels.tolist() == [-1, 1]


class TestKos:
    def test_deterministic_given_seed(self, rng):
        g = cb.generate_regular_bipartite(50, 5, 5, seed=4)
        a = rng.choice([-1, 1], size=g.n_edges)
        first = cb.kos_run(g, a, seed=7)
        second = cb.kos_run(g, a, seed=7)
        np.testing.assert_array_equal(first.margins, second.margins)

    def test_answer_flip_negates_margins(self, rng):
        g = cb.generate_regular_bipartite(30, 4, 4, seed=2)
        a = rng.choice([-1, 1], size=g.n_edges)
        pos = cb.kos_run(g, a, seed=3)
        neg = cb.kos_run(g, -a, seed=3)
        np.testing.assert_array_equal(pos.margins, -neg.margins)

    def test_matches_allocating_reference_bitwise(self, rng):
        # Random irregular graphs in shuffled edge order, isolated nodes
        # included, over several seeds, with both tolerance stops and
        # fixed budgets.
        for case in range(40):
            n_tasks, n_workers = rng.integers(1, 40, size=2)
            cells = rng.permutation(n_tasks * n_workers)[:rng.integers(1, n_tasks * n_workers + 1)]
            g = cb.AssignmentGraph(n_tasks, n_workers,
                                   np.column_stack((cells // n_workers, cells % n_workers)))
            answers = rng.choice([-1, 1], size=g.n_edges, p=[0.3, 0.7])
            kwargs = dict(k_max=int(rng.integers(1, 60)), seed=int(rng.integers(2**32)),
                          tol=[0.0, 1e-5][case % 2])
            got = cb.kos_run(g, answers, **kwargs)
            want = reference_kos_run(g, answers, **kwargs)
            assert got.margins.tobytes() == want.margins.tobytes()
            assert got.iterations_run == want.iterations_run
            assert got.converged == want.converged
            assert got.max_delta == want.max_delta

    def test_peak_memory_is_five_edge_arrays(self):
        # The allocating steps peaked at 8.0 edge arrays here, and the
        # buffered ones at 5.4 while they copied the answers to floats.
        g, answers = regular_sh_instance()
        peak, report = traced_peak(lambda: cb.kos_run(g, answers, k_max=3, tol=0.0))
        assert report.iterations_run == 3
        assert peak <= 5 * 8 * g.n_edges

    def test_margins_do_not_depend_on_blas_threads(self):
        # Large enough that a threaded BLAS reduction splits the vector.
        script = (
            "import hashlib, crowdbp as cb\n"
            "g = cb.generate_regular_bipartite(20000, 5, 5, seed=21)\n"
            "truth = cb.sample_ground_truth(g, cb.spammer_hammer(), seed=22)\n"
            "a = cb.sample_answers(g, truth, seed=23)\n"
            "r = cb.kos_run(g, a, k_max=10, tol=0.0, seed=24)\n"
            "print(hashlib.sha256(r.margins.tobytes()).hexdigest())\n"
        )
        digests = digests_by_blas_threads(script)
        assert digests[0] == digests[1]


class TestEbp:
    def test_margins_do_not_depend_on_blas_threads(self):
        # Heavy-tailed degrees: the empirical prior has hundreds of atoms and
        # most degree classes run a reduced Gauss rule, whose eigensystem
        # comes from LAPACK.
        script = skewed_graph_script("cb.ebp_run(g, a, rounds=2, k_max=5, tol=0.0)")
        digests = digests_by_blas_threads(script)
        assert digests[0] == digests[1]

    def test_perfect_workers_recover_truth_in_one_round(self, rng):
        g = cb.generate_regular_bipartite(30, 4, 4, seed=6)
        truth = rng.choice([-1, 1], size=30)
        answers = truth[g.edges[:, 0]]
        for rounds in (1, 2):
            report = cb.ebp_run(g, answers, rounds=rounds)
            np.testing.assert_array_equal(report.labels, truth)

    def test_single_answer_dataset(self):
        for rounds in (1, 2, 3):
            report = cb.ebp_run(star_graph(1), np.array([1]), rounds=rounds)
            assert report.labels.tolist() == [1]

    def test_rejects_zero_rounds(self):
        with pytest.raises(cb.ParameterError):
            cb.ebp_run(star_graph(1), np.array([1]), rounds=0)

    def test_checks_raw_answers_once(self, monkeypatch):
        # Each check is one np.isin pass over the answers; majority vote and
        # every round's bp used to repeat it, four passes at two rounds.
        calls = []
        check = graph_module.check_signs
        monkeypatch.setattr(graph_module, "check_signs",
                            lambda *args: calls.append(args[1]) or check(*args))
        g = cb.generate_regular_bipartite(30, 4, 4, seed=6)
        cb.ebp_run(g, np.ones(g.n_edges, dtype=np.int64), rounds=2)
        assert calls == ["answers"]


class TestOracleWork:
    def test_log_odds_outvote_a_majority(self):
        # Worker of reliability 0.9 against two at 0.6: log 9 > 2 log 1.5,
        # and the posterior margin is tanh(log(4)/2) = 0.6.
        report = cb.oracle_work(star_graph(3), np.array([1, -1, -1]),
                                np.array([0.9, 0.6, 0.6]))
        assert report.labels[0] == 1
        assert report.margins[0] == pytest.approx(0.6, rel=1e-12)

    def test_equal_reliabilities_reduce_to_majority(self):
        report = cb.oracle_work(star_graph(3), np.array([-1, -1, 1]),
                                np.full(3, 0.8))
        assert report.labels[0] == -1

    def test_extreme_reliabilities_warn_and_clamp(self):
        with pytest.warns(UserWarning):
            report = cb.oracle_work(star_graph(1), np.array([1]), np.array([1.0]))
        assert report.labels[0] == 1

    def test_margins_are_the_tanh_of_half_the_log_odds_vote(self, rng):
        # Bitwise, on irregular graphs, against the formula written out.
        for _ in range(30):
            n_tasks, n_workers = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            g = cb.AssignmentGraph(n_tasks, n_workers,
                                   np.argwhere(rng.random((n_tasks, n_workers)) < 0.3))
            a = rng.choice([-1, 1], g.n_edges)
            p = rng.uniform(0.01, 0.99, n_workers)
            weights = np.log(p / (1.0 - p))
            scores = np.bincount(g.edges[:, 0], weights=a * weights[g.edges[:, 1]],
                                 minlength=n_tasks)
            margins = cb.oracle_work(g, a, p).margins
            np.testing.assert_array_equal(margins.view(np.int64),
                                          np.tanh(scores / 2.0).view(np.int64))

    def test_validation(self):
        with pytest.raises(cb.ParameterError):
            cb.oracle_work(star_graph(2), np.array([1, 1]), np.array([0.9]))


class TestEm:
    def test_unanimous_answers_fix_immediately(self):
        g = full_bipartite(3, 2)
        report = cb.em_run(g, np.ones(6, dtype=int))
        assert report.labels.tolist() == [1, 1, 1]
        assert report.converged

    def test_m_step_map_arithmetic(self):
        # Fully trusted worker with five agreeing answers: (2-1+5)/(2+1-2+5)
        # saturates at 1 and is clipped just below it.
        g = cb.AssignmentGraph(5, 1, np.array([[t, 0] for t in range(5)]))
        w = np.ones(5)
        p_hat = _em_m_step(g, np.ones(5), w, alpha=2.0, beta=1.0)
        assert p_hat[0] == pytest.approx(1.0 - 1e-9)

    def test_e_step_is_the_log_odds_posterior(self):
        g = star_graph(1)
        w = _em_e_step(g, np.array([1.0]), np.array([0.9]))
        assert w[0] == pytest.approx(0.9, rel=1e-12)

    def test_validation(self):
        g = star_graph(1)
        with pytest.raises(cb.ParameterError):
            cb.em_run(g, np.array([1]), prior_alpha=0.0)

    def test_error_sits_between_chance_informed_extremes(self):
        # Over repeated draws EM should do no worse than majority vote and
        # no better than the true-prior decoder, up to 3 pooled sigma.
        prior = cb.spammer_hammer()
        errs = {"mv": [], "em": [], "bp": []}
        for trial in range(60):
            g = cb.generate_regular_bipartite(200, 5, 5,
                                              seed=cb.child_seed(99, "graph", trial))
            truth = cb.sample_ground_truth(g, prior, cb.child_seed(99, "truth", trial))
            answers = cb.sample_answers(g, truth, cb.child_seed(99, "answers", trial))
            errs["mv"].append(cb.error_rate(cb.majority_vote(g, answers), truth.labels))
            errs["em"].append(cb.error_rate(cb.em_run(g, answers), truth.labels))
            errs["bp"].append(cb.error_rate(cb.bp_run(g, answers, prior), truth.labels))
        mean = {k: np.mean(v) for k, v in errs.items()}
        se = {k: np.std(v, ddof=1) / math.sqrt(len(v)) for k, v in errs.items()}

        def slack(x, y):
            return 3.0 * math.hypot(se[x], se[y])

        assert mean["em"] <= mean["mv"] + slack("em", "mv")
        assert mean["bp"] <= mean["em"] + slack("bp", "em")


    def test_matches_allocating_reference_bitwise(self, rng):
        # Random irregular graphs in shuffled edge order, isolated nodes
        # included, with both tolerance stops and fixed budgets.
        for case in range(60):
            n_tasks, n_workers = rng.integers(1, 40, size=2)
            cells = rng.permutation(n_tasks * n_workers)[:rng.integers(1, n_tasks * n_workers + 1)]
            g = cb.AssignmentGraph(n_tasks, n_workers,
                                   np.column_stack((cells // n_workers, cells % n_workers)))
            answers = rng.choice([-1, 1], size=g.n_edges, p=[0.3, 0.7])
            kwargs = dict(prior_alpha=float(rng.uniform(0.5, 4.0)),
                          prior_beta=float(rng.uniform(0.5, 4.0)),
                          k_max=int(rng.integers(1, 60)), tol=[0.0, 1e-5][case % 2])
            got = cb.em_run(g, answers, **kwargs)
            want = reference_em_run(g, answers, **kwargs)
            assert got.margins.tobytes() == want.margins.tobytes()
            assert got.iterations_run == want.iterations_run
            assert got.converged == want.converged
            assert got.max_delta == want.max_delta


class TestEstimatorSpec:
    def test_parse_named_kinds(self):
        assert cb.EstimatorSpec.parse("mv").kind == "mv"
        assert cb.EstimatorSpec.parse("Oracle-Task").kind == "oracle-task"
        spec = cb.EstimatorSpec.parse("ebp2", k_max=7, tol=1e-3)
        assert (spec.kind, spec.rounds, spec.k_max, spec.tol) == ("ebp", 2, 7, 1e-3)
        assert spec.name == "ebp2"

    @pytest.mark.parametrize("bad", ["", "ebp", "ebp0", "bp-true", "magic"])
    def test_parse_rejects_unknown_names(self, bad):
        with pytest.raises(cb.ParameterError):
            cb.EstimatorSpec.parse(bad)

    def test_requirement_flags(self):
        assert "prior" in cb.EstimatorSpec.parse("bp").needs
        assert "prior" in cb.EstimatorSpec.parse("oracle-task").needs
        assert "truth" in cb.EstimatorSpec.parse("oracle-task").needs
        assert "reliabilities" in cb.EstimatorSpec.parse("oracle-work").needs
        assert "prior" not in cb.EstimatorSpec.parse("mv").needs

    def test_unknown_kind_has_no_needs(self):
        # Built directly, not through parse, the kind is checked when read.
        with pytest.raises(cb.ParameterError, match="unknown estimator kind 'bogus'"):
            cb.EstimatorSpec("bogus").needs

    def test_run_reports_missing_inputs(self):
        g = star_graph(1)
        a = np.array([1])
        with pytest.raises(cb.ParameterError):
            cb.EstimatorSpec.parse("bp").run(g, a)
        with pytest.raises(cb.ParameterError):
            cb.EstimatorSpec.parse("oracle-work").run(g, a)
        with pytest.raises(cb.ParameterError, match="^estimator 'oracle-task' needs truth$"):
            cb.EstimatorSpec.parse("oracle-task").run(g, a, prior=cb.spammer_hammer())
        with pytest.raises(cb.ParameterError, match="'oracle-task' needs prior and truth$"):
            cb.EstimatorSpec.parse("oracle-task").run(g, a)

    def test_run_dispatches_every_kind(self, rng):
        g = cb.generate_regular_bipartite(12, 3, 3, seed=8)
        prior = cb.spammer_hammer()
        truth = cb.sample_ground_truth(g, prior, seed=1)
        answers = cb.sample_answers(g, truth, seed=2)
        for name in ("mv", "kos", "bp", "ebp1", "ebp2", "oracle-work",
                     "oracle-task", "em"):
            report = cb.EstimatorSpec.parse(name).run(
                g, answers, prior=prior, truth=truth,
                reliabilities=truth.reliabilities, seed=5)
            assert report.labels.shape == (12,)
