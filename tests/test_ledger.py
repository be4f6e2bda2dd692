"""The ledger script's fold of parent/change benchmark results."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ledger.py"
spec = importlib.util.spec_from_file_location("ledger", SCRIPT)
ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger)


def result(pass_s, setup_s=0.3, failed=0, attempted=4, correct=True, commit="abc",
           answers_per_s=1e5):
    """A result line as perfbench/run.py prints it, with the record's
    environment and named metrics."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                        "pass_s": {"value": pass_s, "unit": "s"}},
            "environment": {"cpu_count": 2, "python": "3.11", "commit": commit},
            "named_metrics": {"setup_s": setup_s, "ebp2_answers_per_s": answers_per_s}}


def test_fold_medians_quartiles_wins_and_failures():
    parent = [result(p) for p in (2.0, 2.4, 2.2, 2.6)]
    change = [result(1.5, setup_s=0.31), result(2.5, setup_s=0.29, failed=1),
              result(1.7, setup_s=0.3), result(1.6, setup_s=0.31, correct=False)]
    entry = ledger.fold(list(zip(parent, change)), [1, 2, 3, 4])
    assert entry["seeds"] == [1, 4] and entry["pairs"] == 4
    # numpy's linear quartiles: 2.0, 2.2, 2.4, 2.6 -> 2.15, 2.3, 2.45.
    assert entry["parent"]["pass_s"] == {"median": 2.3, "q1": 2.15, "q3": 2.45}
    assert entry["change"]["pass_s"] == {"median": 1.65, "q1": 1.575, "q3": 1.9}
    assert entry["change_lower_in"] == {"setup_s": "1/4", "pass_s": "3/4"}
    assert entry["gain_holds"] == {"setup_s": False, "pass_s": False}
    assert entry["within_bound"] == {"setup_s": True, "pass_s": True}
    assert entry["unresolved"] == {"setup_s": False, "pass_s": False}
    assert (entry["parent"]["failed"], entry["parent"]["attempted"]) == (0, 16)
    assert (entry["change"]["failed"], entry["change"]["attempted"]) == (1, 16)
    assert entry["parent"]["correct"] and not entry["change"]["correct"]


def test_ledger_has_bench_18_schema():
    pairs = [(result(2.0, commit="p"), result(1.0, commit="c"))] * 3
    out = ledger.ledger("a faster writer", {"file-1m": ([1, 2, 3], pairs)},
                        {"file-1m": ([201, 202, 203], pairs)})
    bench_18 = json.loads((SCRIPT.parents[1] / "BENCH_18.json").read_text())
    for key in ("change", "method", "environment", "commits", "workloads", "fresh_seeds"):
        assert key in bench_18 and key in out
    assert out["commits"] == {"parent": "p", "change": "c"}
    assert "commit" not in out["environment"]
    got, want = out["workloads"]["file-1m"], bench_18["workloads"]["file-1m"]
    # The gain rule's and the no-regression check's verdicts, and each side's
    # named metrics, are the keys added since.
    assert set(got) == set(want) | {"gain_holds", "within_bound", "unresolved"}
    assert set(got["parent"]) == set(want["parent"]) - {"peak_rss_mb"} | {"named_metrics"}
    assert out["fresh_seeds"]["file-1m"]["seeds"] == [201, 203]
    assert out["method"] == ledger.METHOD


# Ten parent runs at 2.0, 2.1, ..., 2.9 s: quartiles 2.225 and 2.675, 0.45 s apart.
PARENT = [2.0 + 0.1 * k for k in range(10)]


@pytest.mark.parametrize("change, lower, holds", [
    # 0.5 s lower in nine pairs and tied in one: nine tenths, medians 0.5 s apart.
    ([*(p - 0.5 for p in PARENT[:9]), PARENT[9]], "9/10", True),
    # As far apart, but lower in only eight pairs: a rise and a tie miss.
    ([*(p - 0.5 for p in PARENT[:8]), PARENT[8] + 0.1, PARENT[9]], "8/10", False),
    # Lower in every pair, but the medians are 0.2 s apart, within the spread.
    ([p - 0.2 for p in PARENT], "10/10", False),
])
def test_gain_rule(change, lower, holds):
    entry = ledger.fold([(result(p), result(c)) for p, c in zip(PARENT, change)],
                        list(range(1, 11)))
    assert entry["change_lower_in"]["pass_s"] == lower
    assert entry["gain_holds"]["pass_s"] is holds
    assert ledger.gain_holds(PARENT, change) is holds


# Ten parent runs at 1.0, 1.2, ..., 2.8 s: quartiles 1.45 and 2.35 around a
# 1.9 s median, a spread of 47%.
WIDE = [1.0 + 0.2 * k for k in range(10)]


@pytest.mark.parametrize("parent, change, within, unsettled", [
    # 20% slower in the median, under the 25% bound; PARENT spreads 18%.
    (PARENT, [1.2 * p for p in PARENT], True, False),
    # 30% slower in the median, beyond the bound.
    (PARENT, [1.3 * p for p in PARENT], False, False),
    # WIDE spreads beyond the bound, and the change's runs overlap it.
    (WIDE, [p - 0.1 for p in WIDE], True, True),
    (WIDE, [1.3 * p for p in WIDE], False, True),
    # As wide, but every change run reads below every parent run.
    (WIDE, [0.9] * 10, True, False),
])
def test_no_regression_check(parent, change, within, unsettled):
    entry = ledger.fold([(result(p), result(c)) for p, c in zip(parent, change)],
                        list(range(1, 11)))
    assert ledger.BOUNDS["pass_s"] == 0.25
    assert entry["within_bound"]["pass_s"] is within
    assert entry["unresolved"]["pass_s"] is unsettled
    assert ledger.within_bound(parent, change, 0.25) is within
    assert ledger.unresolved(parent, change, 0.25) is unsettled


def test_named_metrics_fold_to_medians_and_quartiles_per_side():
    # A decoder's own throughput beside the pass time: 1, 2, 3, 4 and 10 to 40
    # thousand answers per second -> quartiles 1.75, 2.5, 3.25 and 17.5, 25, 32.5.
    parent = [result(2.0, answers_per_s=1e3 * k) for k in (1, 2, 3, 4)]
    change = [result(1.0, answers_per_s=1e4 * k) for k in (4, 3, 2, 1)]
    entry = ledger.fold(list(zip(parent, change)), [1, 2, 3, 4])
    for side, scale in (("parent", 1e3), ("change", 1e4)):
        named = entry[side]["named_metrics"]
        assert set(named) == {"setup_s", "ebp2_answers_per_s"}
        assert named["ebp2_answers_per_s"] == {"median": 2.5 * scale, "q1": 1.75 * scale,
                                               "q3": 3.25 * scale}
        assert named["setup_s"] == {"median": 0.3, "q1": 0.3, "q3": 0.3}


def test_a_run_reads_the_named_metrics_of_its_record(tmp_path):
    # A stand-in benchmark that writes its record and prints its result line.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, pathlib, sys\n"
        "w, s = sys.argv[2], sys.argv[4]\n"
        "out = pathlib.Path('perfbench-out')\n"
        "out.mkdir(exist_ok=True)\n"
        "(out / f'record-{w}-seed{s}-trace0.json').write_text(json.dumps({\n"
        "    'environment': {'cpu_count': 2},\n"
        "    'named_metrics': {'ebp2_answers_per_s': {'value': 5e4, 'unit': '1/s'}}}))\n"
        "print('workload line')\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {}}))\n")
    got = ledger.run_once(tmp_path, "skewed-real", 3)
    assert got["named_metrics"] == {"ebp2_answers_per_s": 5e4}
    assert got["environment"] == {"cpu_count": 2} and got["correct"]


@pytest.mark.parametrize("text, seeds", [("1-3", [1, 2, 3]), ("7", [7]), ("201-201", [201])])
def test_seed_range(text, seeds):
    assert ledger.seed_range(text) == seeds


def test_checkouts_at_unequal_paths_are_refused(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        ledger.main(["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "bb"),
                     "--workloads", "file-1m", "--seeds", "1-2", "--change-text", "x",
                     "--out", str(tmp_path / "out.json")])
    assert exit_info.value.code == 2
    assert "differ in length" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def git_checkout(path: Path) -> Path:
    """A one-commit git repository at ``path`` that tracks ``run.py``."""
    path.mkdir()
    (path / "run.py").write_text("print(1)\n")
    for argv in (["init", "-q"], ["add", "run.py"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "one"]):
        subprocess.run(["git", "-C", str(path), *argv], check=True)
    return path


def test_checkouts_with_uncommitted_changes_are_refused(tmp_path, capsys, monkeypatch):
    parent, change = git_checkout(tmp_path / "a"), git_checkout(tmp_path / "b")
    # Untracked files leave the measured code as committed.
    (change / "perfbench-out").mkdir()
    (change / "perfbench-out" / "record.json").write_text("{}")
    assert ledger.uncommitted(parent) == ledger.uncommitted(change) == ""
    (change / "run.py").write_text("print(2)\n")
    monkeypatch.setattr(ledger, "run_pairs", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exit_info:
        ledger.main(["--parent", str(parent), "--change", str(change),
                     "--workloads", "file-1m", "--seeds", "1-2", "--change-text", "x",
                     "--out", str(tmp_path / "out.json")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{change} is not a clean git checkout" in err and "M run.py" in err
    assert not (tmp_path / "out.json").exists()


def test_claim_outside_the_workloads_is_refused(tmp_path, capsys, monkeypatch):
    parent, change = git_checkout(tmp_path / "a"), git_checkout(tmp_path / "b")
    monkeypatch.setattr(ledger, "run_pairs", lambda *args: pytest.fail("a run started"))
    for extra in ([], ["--fresh-seeds", "201-203"]):
        with pytest.raises(SystemExit) as exit_info:
            ledger.main(["--parent", str(parent), "--change", str(change),
                         "--workloads", "file-1m", "--seeds", "1-2", "--claim", "regular-1m",
                         *extra, "--change-text", "x", "--out", str(tmp_path / "out.json")])
        assert exit_info.value.code == 2
        assert "--claim regular-1m is not among --workloads" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
