"""crowdbp benchmark: one workload per cost centre, end-to-end and per layer.

Run from the root of a crowdbp checkout:

    python3 perfbench/run.py --workload regular-1m --seed 1 --seconds 20 --trace 0

``--workload all`` (the default) runs every workload in turn, each in its
own process.  With ``--trace 0`` the last stdout line is a JSON object
whose metrics are the ``end_to_end`` metrics of BENCHMARK.json; with
``--trace 1`` they are the ``per_layer`` metrics, taken from spans recorded
around calls into the package.  The lines before it name every metric with
its unit, the environment and any failed check.  A full record of the run,
and with ``--trace 1`` the spans as JSON lines, go to ``perfbench-out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
WORKLOAD_NAMES = ("regular-1m", "sweep-small", "file-1m", "skewed-real")


def python_child(ctx, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ctx.cli_env(), cwd=ctx.root,
                          capture_output=True, text=True, timeout=120, check=True)


def fresh_import_seconds(ctx) -> float:
    """Time of ``import crowdbp`` in a new interpreter, measured inside it."""
    code = ("import sys, time; t = time.perf_counter(); import crowdbp; "
            "sys.stdout.write(repr(time.perf_counter() - t))")
    return float(python_child(ctx, ["-c", code]).stdout)


def import_times(ctx) -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime``."""
    stderr = python_child(ctx, ["-X", "importtime", "-c", "import crowdbp.cli"]).stderr
    cumulative: dict[str, float] = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {"crowdbp": cumulative.get("crowdbp", 0.0) + cumulative.get("crowdbp.cli", 0.0),
            "scipy.special": cumulative.get("scipy.special", 0.0)}


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root:
        return lines[1]
    return "unknown"


def environment(root: Path) -> dict:
    """What a number depends on besides the code.  BLAS threads are left as found."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "commit": git_commit(root),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(ctx, workload, tracer):
    """Median of fresh-process import plus input generation over SETUP_REPS.

    In the traced run the last generation is traced (run id ``setup``).
    """
    samples, inputs = [], None
    for rep in range(SETUP_REPS):
        imported = fresh_import_seconds(ctx)
        traced = tracer is not None and rep == SETUP_REPS - 1
        inputs = None  # release the previous instance before building the next
        if traced:
            tracer.install()
            ctx.tracer, root_span = tracer, tracer.start_run("setup")
        start = time.perf_counter()
        try:
            inputs = workload.generate(ctx)
        finally:
            if traced:
                tracer.finish_run(root_span)
                tracer.uninstall()
                ctx.tracer = None
        samples.append(imported + time.perf_counter() - start)
    return statistics.median(samples), inputs


def pass_count(seconds: float, workload, run_seconds: float) -> int:
    """The workload's passes, scaled by ``seconds`` against ``run_seconds``.

    The count depends only on ``seconds``, never on how fast this machine
    ran, so every run takes the median over the same mix of first (cold)
    and later passes.
    """
    return max(1, round(workload.passes * seconds / run_seconds))


def traced_passes(ctx, workload, inputs, tracer):
    """An untraced first pass, the traced passes, then an untraced pass to
    compare the traced one with.  Returns the untraced passes, the traced
    passes, the wall time of each traced run and the tracing overhead."""
    untraced = [workload.run_pass(ctx, inputs, **workload.trace_mode)]
    traced, walls = [], {}
    tracer.install()
    ctx.tracer = tracer
    try:
        for run, mode in {"pass": workload.trace_mode, **workload.trace_extra}.items():
            root_span = tracer.start_run(run)
            try:
                traced.append(workload.run_pass(ctx, inputs, **mode))
            finally:
                tracer.finish_run(root_span)
            walls[run] = traced[-1].wall
    finally:
        tracer.uninstall()
        ctx.tracer = None
    untraced.append(workload.run_pass(ctx, inputs, **workload.trace_mode))
    return untraced, traced, walls, walls["pass"] / untraced[-1].wall - 1.0


def benchmark_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as handle:
        return json.load(handle)


def declared_metrics(root: Path) -> dict:
    spec = benchmark_spec(root)
    return {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None, root: Path = ROOT, out: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    from spans import Tracer, layer_metrics
    from workloads import FULL, WORKLOADS, Context

    workload = WORKLOADS[name]
    out = out or root / "perfbench-out"
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out))
    ctx = Context(root, tmp, seed, sizes or FULL, len(os.sched_getaffinity(0)))
    tracer = Tracer() if trace else None
    try:
        setup_s, inputs = measure_setup(ctx, workload, tracer)
        if trace:
            passes, traced, walls, overhead = traced_passes(ctx, workload, inputs, tracer)
            one_thread = walls.get("pass-1thread")
            values = layer_metrics(
                tracer.spans, runs={"setup", "pass"}, threads=ctx.threads,
                kos_runs={"pass-1thread"} if one_thread else {"pass"},
                bench_walls=(walls["pass"], one_thread) if one_thread else None,
                import_seconds=import_times(ctx), overhead_share=overhead)
            tracer.write_jsonl(out / f"spans-{name}-seed{seed}.jsonl", workload=name, seed=seed)
        else:
            count = pass_count(seconds, workload, benchmark_spec(root)["run_seconds"])
            passes, traced = [workload.run_pass(ctx, inputs) for _ in range(count)], []
            values = {"setup_s": setup_s,
                      "pass_s": statistics.median(p.wall for p in passes),
                      "peak_rss_mb": peak_rss_mb()}
        shapes = workload.shapes(inputs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = declared_metrics(root)["1" if trace else "0"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           "BENCHMARK.json")
    every = passes + traced
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    problems = [problem for p in every for problem in p.problems]
    failures: dict[str, int] = {}
    for op in (op for p in every for op in p.ops if op.failure):
        key = f"{op.name}: {op.failure}"
        failures[key] = failures.get(key, 0) + 1
    named = {"setup_s": (setup_s, "s"), **workload.named_metrics(passes),
             "peak_rss_mb": (peak_rss_mb(), "MB"),
             "failed_share": (failed / attempted, "fraction")}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": workload.why, "environment": environment(root), "shapes": shapes,
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "passes": [{"wall": p.wall, "ops": [vars(op) for op in p.ops]} for p in passes],
        "traced_passes": [{"wall": p.wall, "ops": [vars(op) for op in p.ops]} for p in traced],
        "failures": failures, "problems": problems, "result": result,
    }
    with open(out / f"record-{name}-seed{seed}-trace{int(trace)}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    return result, record


def print_run(result: dict, record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['passes'])} untraced and {len(record['traced_passes'])} traced "
          f"passes; {record['why']}")
    env = record["environment"]
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for part, shape in record["shapes"].items():
        print(f"instance {part} " + " ".join(f"{k}={v}" for k, v in shape.items()))
    for name, metric in record["named_metrics"].items():
        print(f"  {name:<26} {metric['value']:.6g} {metric['unit']}")
    for name, metric in result["metrics"].items():
        print(f"  [{name}] {metric['value']:.6g} {metric['unit']}")
    for failure, count in record["failures"].items():
        print(f"failed {failure} x{count}")
    for problem in record["problems"]:
        print(f"CHECK FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crowdbp" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'crowdbp'} not found; run the benchmark from a "
              "crowdbp checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark_spec(ROOT)["run_seconds"]
    if args.workload == "all":
        # One process per workload, so memory and patched modules stay apart.
        for name in WORKLOAD_NAMES:
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(result, record)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
