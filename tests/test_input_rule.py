"""The one input rule: counts, ids, ±1 signs and probabilities.

Every public parameter of those four kinds is fed a fraction, a boolean, a
NaN and an out-of-range value, and must raise a ``ParameterError`` naming
it.  Before the rule lived in ``crowdbp.errors``, most of these were
truncated (1.7 answered +1, clamp task 0.5 clamped task 0), wrapped (id -1
read the last task), accepted (NaN reliabilities, boolean counts) or ended
in a ``TypeError`` or NumPy's ``ValueError``.  The test reference
``exact_conditional_gain`` keeps the package's checks and is held to the
rule too.
"""
import numpy as np
import pytest

import crowdbp as cb
from crowdbp.exact import extract_bfs_tree
from crowdbp.graph import answer_values
from crowdbp.priors import FactorTable
from tests.gain_reference import exact_conditional_gain

NAN = float("nan")
G = cb.generate_regular_bipartite(4, 2, 2, seed=1)  # 4 tasks, 4 workers, 8 edges
A = np.array([1, -1, 1, 1, -1, 1, 1, -1])
SH = cb.spammer_hammer()
EMPTY = np.empty((0, 2), dtype=np.int64)
DATASET = cb.Dataset(G, cb.AnswerMatrix(A))


def count(minimum=0):
    return (2.5, True, NAN, minimum - 1)


def ids(n):
    return (0.5, 2.5, True, NAN, n, -1)


# np.abs leaves the int64 minimum negative, so it is not a sign either.
SIGNS = (2.5, True, NAN, 0, 2, -2, 1.7, -1.5, np.iinfo(np.int64).min)
PROBABILITIES = (2.5, True, NAN, -0.5)


def config(**overrides):
    return cb.ExperimentConfig(**{"n_tasks": 12, "sweep_values": (2,), "fixed_degree": 2,
                                  "prior": "sh", "estimators": ("mv",), **overrides})


# (parameter, call with the value, what the message must name, bad values)
RULE_TABLE = [
    ("AssignmentGraph.n_tasks", lambda v: cb.AssignmentGraph(v, 2, EMPTY), "n_tasks",
     count()),
    ("AssignmentGraph.n_workers", lambda v: cb.AssignmentGraph(2, v, EMPTY), "n_workers",
     count()),
    ("AssignmentGraph.edges-task", lambda v: cb.AssignmentGraph(3, 3, [[v, v]]),
     "edge task ids", ids(3)),
    # NumPy reads [[0, True]] as the int64 edge (0, 1): only a whole array is boolean.
    ("AssignmentGraph.edges-worker", lambda v: cb.AssignmentGraph(3, 3, [[0, v]]),
     "edge worker ids", (0.5, 2.5, NAN, 3, -1)),
    ("GroundTruth.labels", lambda v: cb.GroundTruth([v, v], [0.5]), "truth labels", SIGNS),
    ("GroundTruth.reliabilities", lambda v: cb.GroundTruth([1], [v, v]), "reliabilities",
     PROBABILITIES),
    ("AnswerMatrix.answers", lambda v: cb.AnswerMatrix([v, v]), "answers", SIGNS),
    ("generate_regular_bipartite.n_tasks",
     lambda v: cb.generate_regular_bipartite(v, 2, 2, 0), "n_tasks", count(1)),
    ("generate_regular_bipartite.l", lambda v: cb.generate_regular_bipartite(4, v, 2, 0), "l",
     count(1)),
    ("generate_regular_bipartite.r", lambda v: cb.generate_regular_bipartite(4, 2, v, 0), "r",
     count(1)),
    ("generate_regular_bipartite.seed",
     lambda v: cb.generate_regular_bipartite(4, 2, 2, v), "seed", count()),
    ("bp_run.answers", lambda v: cb.bp_run(G, np.full(8, v), SH), "answers", SIGNS),
    ("bp_run.k_max", lambda v: cb.bp_run(G, A, SH, k_max=v), "k_max", count(1)),
    ("bp_run.clamp_tasks", lambda v: cb.bp_run(G, A, SH, clamp_tasks=[v], clamp_labels=[1]),
     "clamp task", ids(4)),
    ("bp_run.clamp_labels", lambda v: cb.bp_run(G, A, SH, clamp_tasks=[0], clamp_labels=[v]),
     "clamp labels", SIGNS),
    ("theory_iterations.n_tasks", cb.theory_iterations, "n_tasks", count(1)),
    ("kos_run.k_max", lambda v: cb.kos_run(G, A, k_max=v), "k_max", count(1)),
    ("kos_run.seed", lambda v: cb.kos_run(G, A, seed=v), "seed", count()),
    ("em_run.k_max", lambda v: cb.em_run(G, A, k_max=v), "k_max", count(1)),
    ("em_run.prior_alpha", lambda v: cb.em_run(G, A, prior_alpha=v), "alpha",
     (NAN, 0.0, -1.0, float("inf"))),
    ("em_run.prior_beta", lambda v: cb.em_run(G, A, prior_beta=v), "beta",
     (NAN, 0.0, -1.0, float("inf"))),
    ("ebp_run.rounds", lambda v: cb.ebp_run(G, A, rounds=v), "rounds", count(1)),
    ("oracle_work.reliabilities", lambda v: cb.oracle_work(G, A, np.full(4, v)),
     "reliabilities", PROBABILITIES),
    ("extract_bfs_tree.root", lambda v: extract_bfs_tree(G, v), "root", ids(4)),
    ("exact_conditional_gain.root", lambda v: exact_conditional_gain(G, SH, v, [0], []),
     "root", ids(4)),
    ("exact_conditional_gain.edge_ids",
     lambda v: exact_conditional_gain(G, SH, 0, [v], []), "edge ids", ids(8)),
    ("exact_conditional_gain.clamp_tasks",
     lambda v: exact_conditional_gain(G, SH, 0, [0], [v]), "clamp tasks", ids(4)),
    ("subset_monotonicity_check.edge_subset",
     lambda v: cb.subset_monotonicity_check(G, SH, [v]), "edge subset", ids(8)),
    ("subset_monotonicity_check.root",
     lambda v: cb.subset_monotonicity_check(G, SH, [0], root=v), "root", ids(4)),
    ("theoretical_bounds.l", lambda v: cb.theoretical_bounds(v, 2, 0.4, 0.3), "l", count(1)),
    ("theoretical_bounds.r", lambda v: cb.theoretical_bounds(2, v, 0.4, 0.3), "r", count(1)),
    ("tree_probability_bound.n_tasks", lambda v: cb.tree_probability_bound(v, 2, 2, 1),
     "n_tasks", count(1)),
    ("tree_probability_bound.l", lambda v: cb.tree_probability_bound(9, v, 2, 1), "l",
     count(1)),
    ("tree_probability_bound.r", lambda v: cb.tree_probability_bound(9, 2, v, 1), "r",
     count(1)),
    ("tree_probability_bound.k", lambda v: cb.tree_probability_bound(9, 2, 2, v), "k",
     count()),
    ("nearest_feasible_n.n_tasks", lambda v: cb.nearest_feasible_n(v, 2, 3), "n_tasks",
     count(1)),
    ("nearest_feasible_n.l", lambda v: cb.nearest_feasible_n(10, v, 3), "l", count(1)),
    ("nearest_feasible_n.r", lambda v: cb.nearest_feasible_n(10, 2, v), "r", count(1)),
    ("subsample_assignments.l_target", lambda v: cb.subsample_assignments(DATASET, v, 0),
     "l_target", count(1)),
    ("subsample_assignments.seed", lambda v: cb.subsample_assignments(DATASET, 1, v), "seed",
     count()),
    *[(f"ExperimentConfig.{name}", lambda v, name=name: config(**{name: v}), name,
       count(minimum)) for name, minimum in (("n_tasks", 1), ("fixed_degree", 1),
                                             ("trials", 1), ("k_max", 1), ("threads", 1),
                                             ("seed", 0))],
    ("ExperimentConfig.sweep_values", lambda v: config(sweep_values=(v,)), "sweep_values",
     count(1)),
    ("ReliabilityPrior.atom_p", lambda v: cb.ReliabilityPrior.from_atoms([v], [1.0]),
     "atom locations", PROBABILITIES),
    ("empirical_prior.estimates", lambda v: cb.empirical_prior([v, v]),
     "reliability estimates", PROBABILITIES),
    ("FactorTable.build.r_max", lambda v: FactorTable.build(SH, v), "r_max", count()),
    ("child_seed.master", lambda v: cb.child_seed(v, "graph"), "seed", count()),
    ("child_seed.parts", lambda v: cb.child_seed(1, "graph", v), "seed key part", count()),
    ("rng_from.seed", cb.rng_from, "seed", count()),
]


@pytest.mark.parametrize("call,name,value", [
    pytest.param(call, name, value, id=f"{label}-{value!r}")
    for label, call, name, values in RULE_TABLE for value in values])
def test_bad_value_is_a_parameter_error_naming_the_parameter(call, name, value):
    with pytest.raises(cb.ParameterError, match=name):
        call(value)


class TestValidEdgeValues:
    def test_whole_floats_pass_as_counts(self):
        g = cb.AssignmentGraph(3.0, 2.0, [[0, 1]])
        assert (g.n_tasks, g.n_workers) == (3, 2) and type(g.n_tasks) is int
        assert cb.bp_run(G, A, SH, k_max=3.0, tol=0.0).iterations_run == 3
        assert cb.theory_iterations(20.0) == 2
        assert config(n_tasks=12.0, sweep_values=(2.0,)).sweep_values == (2,)
        assert cb.child_seed(3.0, "x", 2.0) == cb.child_seed(3, "x", 2)
        regular = cb.generate_regular_bipartite(4.0, 2.0, 2.0, 1.0)
        assert regular.edges.tolist() == G.edges.tolist()

    def test_whole_float_signs_decode_as_their_ints(self):
        answers = cb.AnswerMatrix([1.0, -1.0]).answers
        assert answers.dtype == np.int64 and answers.tolist() == [1, -1]
        as_float = cb.bp_run(G, A.astype(np.float64), SH, clamp_tasks=[1.0],
                             clamp_labels=[-1.0])
        as_int = cb.bp_run(G, A, SH, clamp_tasks=[1], clamp_labels=[-1])
        assert as_float.margins.tobytes() == as_int.margins.tobytes()

    def test_zero_and_one_pass_as_probabilities(self):
        truth = cb.GroundTruth([1, -1], [0, 1])
        assert truth.reliabilities.dtype == np.float64
        assert cb.empirical_prior([0.0, 1.0]).atom_p.tolist() == [0.0, 1.0]
        assert cb.ReliabilityPrior.from_atoms([0, 1], [0.5, 0.5]).atom_p.tolist() == [0.0, 1.0]

    def test_empty_float_edge_array_builds_an_empty_graph(self):
        g = cb.AssignmentGraph(2, 2, np.empty((0, 2)))
        assert g.edges.dtype == np.int64 and g.edges.shape == (0, 2)

    def test_int64_arrays_pass_without_a_copy(self):
        answers = A.copy()
        assert cb.AnswerMatrix(answers).answers is answers
        assert answer_values(answers, G) is answers
        edges = G.edges.copy()
        assert np.shares_memory(cb.AssignmentGraph(4, 4, edges).edges, edges)
