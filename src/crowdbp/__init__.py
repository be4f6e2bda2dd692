"""Optimal inference of binary labels from noisy crowdsourced answers.

Tasks carry hidden +-1 labels; workers of unknown, prior-distributed
reliability answer an assigned subset of tasks.  The package provides
sum-product belief propagation on the task-worker graph, the classical
baselines (majority vote, agreement-weighted message passing, EM,
bootstrapped BP, known-reliability weighting), exact small-instance
references and the clamped-spanning-tree oracle, plus a simulator,
analytic bounds and a benchmark harness with a CLI.
"""

from .bp import (BeliefState, EstimateReport, bp_compute_beliefs, bp_init, bp_run,
                 bp_update_task_messages, bp_update_worker_messages, decode_labels,
                 theory_iterations)
from .errors import (CrowdBPError, DataFormatError, GenerationError,
                     NumericDegeneracyError, ParameterError, SizeError)
from .estimators import (EstimatorSpec, ebp_run, em_run, kos_run, majority_vote,
                         oracle_work)
from .exact import (SpanningTree, brute_force_marginals, exact_conditional_gain,
                    extract_bfs_tree, oracle_task_estimate,
                    subset_monotonicity_check)
from .graph import (AnswerMatrix, AssignmentGraph, GroundTruth,
                    generate_regular_bipartite, sample_answers, sample_ground_truth)
from .harness import (CSV_COLUMNS, Dataset, ExperimentConfig, MetricsRow, error_rate,
                      load_dataset, load_experiment_config, metrics_csv_text,
                      nearest_feasible_n, run_experiment, run_inference, save_dataset,
                      subsample_assignments, theoretical_bounds, tree_probability_bound,
                      write_metrics_csv)
from .priors import (FactorTable, ReliabilityPrior, adversary_spammer_hammer,
                     empirical_prior, parse_prior_spec, spammer_hammer)
from .seeding import child_seed, rng_from

__all__ = [
    "AnswerMatrix", "AssignmentGraph", "BeliefState", "CSV_COLUMNS", "CrowdBPError",
    "DataFormatError", "Dataset", "EstimateReport", "EstimatorSpec", "ExperimentConfig",
    "FactorTable", "GenerationError", "GroundTruth", "MetricsRow",
    "NumericDegeneracyError", "ParameterError", "ReliabilityPrior", "SizeError",
    "SpanningTree", "adversary_spammer_hammer", "bp_compute_beliefs", "bp_init",
    "bp_run", "bp_update_task_messages", "bp_update_worker_messages",
    "brute_force_marginals", "child_seed",
    "decode_labels", "ebp_run", "em_run", "empirical_prior", "error_rate",
    "exact_conditional_gain", "extract_bfs_tree", "generate_regular_bipartite",
    "kos_run", "load_dataset", "load_experiment_config",
    "majority_vote", "metrics_csv_text", "nearest_feasible_n", "oracle_task_estimate",
    "oracle_work", "parse_prior_spec", "rng_from", "run_experiment", "run_inference",
    "sample_answers", "sample_ground_truth", "save_dataset", "spammer_hammer",
    "subsample_assignments", "subset_monotonicity_check", "theoretical_bounds",
    "theory_iterations", "tree_probability_bound", "write_metrics_csv",
]

__version__ = "0.1.0"
