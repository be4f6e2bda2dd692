"""Command-line interface.

Subcommands: ``simulate`` (write a synthetic dataset), ``infer`` (label a
dataset with one estimator), ``bench`` (run a configured sweep to CSV) and
``bounds`` (print the analytic error bounds).  Exit codes: 0 success,
2 parameter/validation error, 3 data-format error, 4 numeric degeneracy.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace

from .bp import _K_MAX, _TOL
from .errors import DataFormatError, NumericDegeneracyError, ParameterError, check_count
from .estimators import EstimatorSpec
from .graph import draw_instance
from .harness import (Dataset, error_rate, load_dataset, load_experiment_config,
                      run_experiment, run_inference, save_dataset, subsample_assignments,
                      write_estimates, write_metrics_csv)
from .priors import parse_prior_spec
from .seeding import child_seed
from .theory import theoretical_bounds, tree_probability_bound


@contextmanager
def _output(path: str | None):
    """``path`` opened for CSV text, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as handle:
        yield handle


def _cmd_simulate(args: argparse.Namespace) -> int:
    prior = parse_prior_spec(args.prior)
    graph, truth, answers = draw_instance(args.n, args.l, args.r, prior, args.seed)
    dataset = Dataset(graph=graph, answers=answers, truth_labels=truth.labels,
                      reliabilities=truth.reliabilities)
    save_dataset(dataset, args.out)
    print(f"wrote {graph.n_tasks} tasks, {graph.n_workers} workers, "
          f"{graph.n_edges} answers to {args.out}", file=sys.stderr)
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    # Every flag is checked before the file is read; only the checks that
    # need the data, such as bp's reliability column, wait for it.
    spec = EstimatorSpec.parse(args.estimator, k_max=args.kmax, tol=args.tol)
    if args.prior is not None:
        if "prior" not in spec.needs:
            # run_inference reads no prior for it, so the flag would go unread.
            raise ParameterError(f"estimator {args.estimator!r} takes no --prior")
        parse_prior_spec(args.prior)
    if args.subsample_l is not None:
        check_count(args.subsample_l, "l_target", 1)
    # child_seed's check, without deriving: its first call imports numpy.random,
    # which before the read would add its memory to the reader's peak.
    check_count(args.seed, "seed")
    dataset = load_dataset(args.data)
    if args.subsample_l is not None:
        dataset = subsample_assignments(dataset, args.subsample_l,
                                        child_seed(args.seed, "subsample"))
    # Only kos draws from its seed: deriving one for another estimator would
    # import numpy.random, about 6 MB of resident memory, for nothing.
    report = run_inference(dataset, args.estimator, prior_spec=args.prior,
                           k_max=args.kmax, tol=args.tol,
                           seed=child_seed(args.seed, "estimator") if spec.kind == "kos" else 0)
    with _output(args.out) as handle:
        write_estimates(handle, report, dataset.task_names)
    print(f"iterations {report.iterations_run} converged {report.converged} "
          f"max_delta {report.max_delta!r}", file=sys.stderr)
    if dataset.truth_labels is not None:
        print(f"error_rate {error_rate(report, dataset.truth_labels)!r}", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config)
    if args.threads is not None:
        config = replace(config, threads=args.threads)
    rows = run_experiment(config)
    with _output(args.out) as handle:
        write_metrics_csv(rows, handle)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.k is not None and args.n is None:
        # Only the tree bound reads --k, and only --n asks for it.
        raise ParameterError("--k needs --n")
    # Every bound is computed before any is printed, so a bad --n or --k prints none.
    k = 1 if args.k is None else args.k
    tree = [] if args.n is None else [
        f"tree_prob_bound {tree_probability_bound(args.n, args.l, args.r, k)!r}"]
    mv_bound, kos_bound = theoretical_bounds(args.l, args.r, args.mu, args.q)
    kos = "undefined (below the spectral barrier)" if kos_bound is None else repr(kos_bound)
    print(f"mv_bound {mv_bound!r}", f"kos_bound {kos}", *tree, sep="\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdbp",
        description="Binary label inference from noisy crowdsourced answers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a simulated dataset CSV")
    p_sim.add_argument("--n", type=int, required=True, help="number of tasks")
    p_sim.add_argument("--l", type=int, required=True, help="answers per task")
    p_sim.add_argument("--r", type=int, required=True, help="answers per worker")
    p_sim.add_argument("--prior", required=True,
                       help="sh | ash | beta:A,B | atoms:p1=w1,p2=w2,...")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_inf = sub.add_parser("infer", help="estimate labels for a dataset")
    p_inf.add_argument("--data", required=True)
    p_inf.add_argument("--estimator", required=True,
                       help="mv | kos | bp | ebp<k> | oracle-work | oracle-task | em")
    p_inf.add_argument("--prior", default=None)
    p_inf.add_argument("--kmax", type=int, default=_K_MAX)
    p_inf.add_argument("--tol", type=float, default=_TOL)
    p_inf.add_argument("--seed", type=int, default=0)
    p_inf.add_argument("--subsample-l", type=int, default=None,
                       help="keep at most this many answers per task first")
    p_inf.add_argument("--out", default=None)
    p_inf.set_defaults(func=_cmd_infer)

    p_bench = sub.add_parser("bench", help="run a configured sweep to CSV")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--threads", type=int, default=None,
                         help="run trials in up to this many forked processes, capped at "
                              "the usable CPU count (in process where fork is unavailable); "
                              "the CSV does not depend on it")
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_bounds = sub.add_parser("bounds", help="print analytic error bounds")
    p_bounds.add_argument("--l", type=int, required=True)
    p_bounds.add_argument("--r", type=int, required=True)
    p_bounds.add_argument("--mu", type=float, required=True)
    p_bounds.add_argument("--q", type=float, required=True)
    p_bounds.add_argument("--n", type=int, default=None)
    p_bounds.add_argument("--k", type=int, default=None)
    p_bounds.set_defaults(func=_cmd_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericDegeneracyError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
