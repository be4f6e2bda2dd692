"""Run alternating parent/change pairs of the benchmark and fold them into a ledger.

From the repository root::

    python scripts/ledger.py --parent ../copy-a --change ../copy-b \\
        --workloads file-1m regular-1m --seeds 1-10 \\
        --claim file-1m --fresh-seeds 201-210 \\
        --change-text "what the change does" --out BENCH_new.json

``--parent`` and ``--change`` are two git checkouts at paths of equal
length: the path is part of what a process loads, so unequal paths can move
peak RSS by more than a change does.  A checkout with uncommitted changes to
tracked files is refused before any run, so that the commit the ledger
records is the code that was measured.  For each workload and seed the
script runs ``python3 perfbench/run.py --workload W --seed S --trace 0``
once in each checkout, the parent first in even pairs and the change first
in odd ones, and reads the result line that the run prints last.

The ledger keeps, per workload, side and end-to-end metric, the median and
quartiles over the seeds, and the same for each named metric of the run's
record (``perfbench-out/record-W-seedS-trace0.json``), such as a decoder's
own throughput; in how many pairs the change read lower; whether
a gain may be claimed; and the operations that failed, the operations
attempted and whether every output check held.  A gain may be claimed when
the change reads lower in at least nine tenths of the pairs (ties count for
neither) and its median is below the parent's by more than the parent's
quartile distance.  It also records the no-regression check on each
end-to-end metric, whose bound ``BENCHMARK.json`` gives as a fraction of the
parent's median (0.25 is 25%): ``within_bound`` when the change's median is
at most the parent's times one plus the bound, and ``unresolved`` when the
parent's quartile distance exceeds the bound times its median and not every
change run reads below every parent run.  With ``--claim`` (one of
``--workloads``) and ``--fresh-seeds``, the claimed workload is run again at
seeds not used while the change was written.  The ledger is a record, not a
gate: a slower change still exits 0.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# Each end-to-end metric's bound, as a fraction of the parent's median.
BOUNDS = {metric["name"]: metric["bound"]
          for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

METHOD = ("python3 perfbench/run.py --workload W --seed S --trace 0, run from "
          "checkouts of the parent and the change at paths of equal length, one pair per "
          "seed, alternating which side runs first; medians and quartiles over the seeds")


def seed_range(text: str) -> list[int]:
    """The seeds ``A-B`` (both included), or the single seed ``A``."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def uncommitted(checkout: Path) -> str:
    """What keeps ``checkout`` from being exactly its commit: its changed
    tracked files, or git's error; empty when there is nothing."""
    proc = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain",
                           "--untracked-files=no"], capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else proc.stderr or "git status failed"


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its result line and its environment."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / "perfbench-out" /
                         f"record-{workload}-seed{seed}-trace0.json").read_text())
    result["environment"] = record["environment"]
    result["named_metrics"] = {name: metric["value"]
                               for name, metric in record["named_metrics"].items()}
    return result


def run_pairs(parent: Path, change: Path, workload: str,
              seeds: list[int]) -> list[tuple[dict, dict]]:
    """One (parent, change) pair of runs per seed, alternating which runs first."""
    pairs = []
    for k, seed in enumerate(seeds):
        order = (parent, change) if k % 2 == 0 else (change, parent)
        runs = {side: run_once(side, workload, seed) for side in order}
        pairs.append((runs[parent], runs[change]))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} pass_s {runs[path]['metrics']['pass_s']['value']:.4f}"
            for side, path in (("parent", parent), ("change", change))), file=sys.stderr)
    return pairs


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def _side(results: list[dict], metrics: list[str]) -> dict:
    side = {name: _quartiles([r["metrics"][name]["value"] for r in results])
            for name in metrics}
    side["named_metrics"] = {name: _quartiles([r["named_metrics"][name] for r in results])
                             for name in results[0]["named_metrics"]}
    side["failed"] = sum(r["failed"] for r in results)
    side["attempted"] = sum(r["attempted"] for r in results)
    side["correct"] = all(r["correct"] for r in results)
    return side


def gain_holds(parent: list[float], change: list[float]) -> bool:
    """Whether a lower-is-better metric's paired values show a gain: the change
    lower in at least nine tenths of the pairs, ties counting for neither, and
    the medians apart by more than the parent's quartile distance."""
    lower = sum(c < p for p, c in zip(parent, change))
    q1, q3 = np.percentile(parent, [25, 75])
    return bool(10 * lower >= 9 * len(parent)
                and np.median(parent) - np.median(change) > q3 - q1)


def within_bound(parent: list[float], change: list[float], bound: float) -> bool:
    """Whether a lower-is-better metric's change median is at most the
    parent's median times ``1 + bound``."""
    return bool(np.median(change) <= np.median(parent) * (1 + bound))


def unresolved(parent: list[float], change: list[float], bound: float) -> bool:
    """Whether the runs spread too widely to tell a move of ``bound``: the
    parent's quartile distance exceeds ``bound`` times its median, and not
    every change run reads below every parent run."""
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    return bool(q3 - q1 > bound * median and max(change) >= min(parent))


def fold(pairs: list[tuple[dict, dict]], seeds: list[int]) -> dict:
    """One workload's ledger entry from its (parent, change) result pairs."""
    metrics = list(pairs[0][0]["metrics"])
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    values = {name: ([p["metrics"][name]["value"] for p in parent],
                     [c["metrics"][name]["value"] for c in change]) for name in metrics}
    lower = {name: sum(c < p for p, c in zip(*values[name])) for name in metrics}
    bounded = [name for name in metrics if name in BOUNDS]
    return {
        "seeds": [seeds[0], seeds[-1]],
        "pairs": len(pairs),
        "parent": _side(parent, metrics),
        "change": _side(change, metrics),
        "change_lower_in": {name: f"{k}/{len(pairs)}" for name, k in lower.items()},
        "gain_holds": {name: gain_holds(*values[name]) for name in metrics},
        "within_bound": {name: within_bound(*values[name], BOUNDS[name]) for name in bounded},
        "unresolved": {name: unresolved(*values[name], BOUNDS[name]) for name in bounded},
    }


def ledger(change_text: str, runs: dict, fresh: dict | None) -> dict:
    """The whole ledger from ``{workload: (seeds, pairs)}`` and, optionally,
    the claimed workload's fresh-seed runs in the same form."""
    parent, change = next(iter(runs.values()))[1][0]
    environment = {k: v for k, v in change["environment"].items() if k != "commit"}
    out = {
        "change": change_text,
        "method": METHOD,
        "environment": environment,
        "commits": {"parent": parent["environment"].get("commit", "unknown"),
                    "change": change["environment"].get("commit", "unknown")},
        "workloads": {name: fold(pairs, seeds) for name, (seeds, pairs) in runs.items()},
    }
    if fresh:
        out["fresh_seeds"] = {
            "note": "the claimed workload again, at seeds not used while the change was written",
            **{name: fold(pairs, seeds) for name, (seeds, pairs) in fresh.items()}}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, both included")
    parser.add_argument("--claim", help="the workload whose gain the change claims")
    parser.add_argument("--fresh-seeds", type=seed_range,
                        help="run --claim again at these seeds")
    parser.add_argument("--change-text", required=True, help="what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        parser.error(f"checkout paths differ in length: {parent} and {change}")
    if args.fresh_seeds and not args.claim:
        parser.error("--fresh-seeds needs --claim")
    if args.claim and args.claim not in args.workloads:
        parser.error(f"--claim {args.claim} is not among --workloads")
    for checkout in (parent, change):
        if status := uncommitted(checkout):
            parser.error(f"{checkout} is not a clean git checkout:\n{status}")
    runs = {name: (args.seeds, run_pairs(parent, change, name, args.seeds))
            for name in args.workloads}
    fresh = None
    if args.fresh_seeds:
        fresh = {args.claim: (args.fresh_seeds,
                              run_pairs(parent, change, args.claim, args.fresh_seeds))}
    with open(args.out, "w") as handle:
        json.dump(ledger(args.change_text, runs, fresh), handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
