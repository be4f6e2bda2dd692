"""Optimal inference of binary labels from noisy crowdsourced answers.

Tasks carry hidden +-1 labels; workers of unknown, prior-distributed
reliability answer an assigned subset of tasks.  The package provides
sum-product belief propagation on the task-worker graph, the classical
baselines (majority vote, agreement-weighted message passing, EM,
bootstrapped BP, known-reliability weighting), exact small-instance
references and the clamped-spanning-tree oracle, plus a simulator,
analytic bounds and a benchmark harness with a CLI.
"""

from .bp import EstimateReport, bp_run, decode_labels
from .errors import (CrowdBPError, DataFormatError, NumericDegeneracyError, ParameterError,
                     SizeError)
from .estimators import (EstimatorSpec, ebp_run, em_run, kos_run, majority_vote,
                         oracle_work)
from .exact import brute_force_marginals, oracle_task_estimate, subset_monotonicity_check
from .graph import (AnswerMatrix, AssignmentGraph, GroundTruth,
                    generate_regular_bipartite, sample_answers, sample_ground_truth)
from .harness import (CSV_COLUMNS, Dataset, ExperimentConfig, MetricsRow, error_rate,
                      load_dataset, load_experiment_config, nearest_feasible_n,
                      run_experiment, run_inference, save_dataset, subsample_assignments,
                      write_metrics_csv)
from .priors import (ReliabilityPrior, adversary_spammer_hammer, empirical_prior,
                     parse_prior_spec, spammer_hammer)
from .seeding import child_seed, rng_from
from .theory import theoretical_bounds, theory_iterations, tree_probability_bound

__all__ = [
    "AnswerMatrix", "AssignmentGraph", "CSV_COLUMNS", "CrowdBPError",
    "DataFormatError", "Dataset", "EstimateReport", "EstimatorSpec", "ExperimentConfig",
    "GroundTruth", "MetricsRow",
    "NumericDegeneracyError", "ParameterError", "ReliabilityPrior", "SizeError",
    "adversary_spammer_hammer", "bp_run", "brute_force_marginals", "child_seed",
    "decode_labels", "ebp_run", "em_run",
    "empirical_prior", "error_rate",
    "generate_regular_bipartite", "kos_run", "load_dataset", "load_experiment_config",
    "majority_vote", "nearest_feasible_n", "oracle_task_estimate",
    "oracle_work", "parse_prior_spec", "rng_from", "run_experiment", "run_inference",
    "sample_answers", "sample_ground_truth", "save_dataset", "spammer_hammer",
    "subsample_assignments", "subset_monotonicity_check", "theoretical_bounds",
    "theory_iterations", "tree_probability_bound", "write_metrics_csv",
]

__version__ = "0.1.0"
