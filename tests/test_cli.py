import numpy as np
import pytest

import crowdbp as cb
from crowdbp.cli import main

BENCH_CONFIG = """
n_tasks = 12
sweep_values = 2, 3
fixed_degree = 3
prior = sh
estimators = mv, kos
trials = 3
seed = 5
timing = false
"""


def simulate(tmp_path, name="sim.csv", n=30, l=4, r=4, seed=3):
    out = tmp_path / name
    rc = main(["simulate", "--n", str(n), "--l", str(l), "--r", str(r),
               "--prior", "sh", "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_dataset_and_summary(self, tmp_path, capsys):
        out = simulate(tmp_path)
        err = capsys.readouterr().err
        assert "wrote 30 tasks" in err
        loaded = cb.load_dataset(str(out))
        assert loaded.graph.n_tasks == 30
        assert loaded.graph.task_degrees.tolist() == [4] * 30
        assert loaded.truth_labels is not None
        assert loaded.reliabilities is not None

    def test_same_seed_same_bytes(self, tmp_path):
        a = simulate(tmp_path, "a.csv")
        b = simulate(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_degrees_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "10", "--l", "3", "--r", "7",
                   "--prior", "sh", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_prior_exit_2(self, tmp_path):
        rc = main(["simulate", "--n", "10", "--l", "2", "--r", "2",
                   "--prior", "nope", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestInfer:
    def test_majority_vote_to_stdout(self, tmp_path, capsys):
        data = simulate(tmp_path)
        capsys.readouterr()
        rc = main(["infer", "--data", str(data), "--estimator", "mv"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "task,label,margin"
        assert len(lines) == 31
        task, label, margin = lines[1].split(",")
        assert label in ("+1", "-1")
        float(margin)
        assert "error_rate " in captured.err

    def test_bp_with_prior_flag(self, tmp_path):
        data = simulate(tmp_path)
        assert main(["infer", "--data", str(data), "--estimator", "bp",
                     "--prior", "sh"]) == 0

    def test_bp_uses_reliability_column_when_no_prior_given(self, tmp_path):
        data = simulate(tmp_path)
        assert main(["infer", "--data", str(data), "--estimator", "bp"]) == 0

    def test_subsample_flag(self, tmp_path, capsys):
        data = simulate(tmp_path)
        capsys.readouterr()
        rc = main(["infer", "--data", str(data), "--estimator", "mv",
                   "--subsample-l", "2"])
        assert rc == 0

    def test_output_file(self, tmp_path, capsys):
        data = simulate(tmp_path)
        out = tmp_path / "labels.csv"
        capsys.readouterr()
        rc = main(["infer", "--data", str(data), "--estimator", "mv",
                   "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().splitlines()[0] == "task,label,margin"

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["infer", "--data", str(tmp_path / "absent.csv"),
                   "--estimator", "mv"])
        assert rc == 2

    def test_malformed_data_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,w,+1\nt,w,-1\n")
        rc = main(["infer", "--data", str(bad), "--estimator", "mv"])
        assert rc == 3
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"t,w,+1\ns\xe9,w,-1\n",
        b't,w,+1\n"' + b"x" * 140_000 + b'",w,-1\n',
    ], ids=["undecodable-byte", "oversized-field"])
    def test_unreadable_data_exit_3(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        rc = main(["infer", "--data", str(bad), "--estimator", "mv"])
        assert rc == 3
        assert "data error: line 2:" in capsys.readouterr().err

    def test_unknown_estimator_exit_2(self, tmp_path):
        data = simulate(tmp_path)
        rc = main(["infer", "--data", str(data), "--estimator", "wat"])
        assert rc == 2

    def test_negative_tol_exit_2(self, tmp_path, capsys):
        # kos used to accept it and exit 0.
        data = simulate(tmp_path)
        rc = main(["infer", "--data", str(data), "--estimator", "kos", "--tol", "-1"])
        assert rc == 2
        assert "tol must be non-negative" in capsys.readouterr().err

    def test_conflicting_evidence_under_certain_prior_exit_4(self, tmp_path, capsys):
        data = tmp_path / "split.csv"
        data.write_text("t0,wa,+1\nt0,wb,+1\nt0,wc,-1\nt0,wd,-1\n")
        rc = main(["infer", "--data", str(data), "--estimator", "bp",
                   "--prior", "atoms:1=1"])
        assert rc == 4
        assert "numeric error:" in capsys.readouterr().err


class TestBench:
    def test_stdout_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BENCH_CONFIG)
        rc = main(["bench", "--config", str(cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(cb.CSV_COLUMNS))
        assert out.count("\r\n") == 11  # header + 2 points x 5 rows

    def test_out_file_and_thread_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BENCH_CONFIG)
        one = tmp_path / "one.csv"
        eight = tmp_path / "eight.csv"
        assert main(["bench", "--config", str(cfg), "--threads", "1",
                     "--out", str(one)]) == 0
        assert main(["bench", "--config", str(cfg), "--threads", "4",
                     "--out", str(eight)]) == 0
        assert "wrote 10 rows" in capsys.readouterr().err
        assert one.read_bytes() == eight.read_bytes()

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BENCH_CONFIG + "mystery = 1\n")
        assert main(["bench", "--config", str(cfg)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["bench", "--config", str(tmp_path / "none.txt")]) == 2


class TestBounds:
    def test_frozen_values(self, capsys):
        rc = main(["bounds", "--l", "15", "--r", "5", "--mu", "0.4", "--q", "0.32"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        mv, kos = cb.theoretical_bounds(15, 5, 0.4, 0.32)
        assert lines[0] == f"mv_bound {mv!r}"
        assert lines[1] == f"kos_bound {kos!r}"
        assert float(lines[0].split()[1]) == pytest.approx(0.30119421191220214, rel=1e-12)
        assert float(lines[1].split()[1]) == pytest.approx(0.592131835360067, rel=1e-12)

    def test_below_barrier_message(self, capsys):
        rc = main(["bounds", "--l", "2", "--r", "2", "--mu", "0.4", "--q", "0.32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kos_bound undefined (below the spectral barrier)" in out

    def test_tree_bound_line_with_n(self, capsys):
        rc = main(["bounds", "--l", "2", "--r", "2", "--mu", "0.4", "--q", "0.32",
                   "--n", "100", "--k", "1"])
        assert rc == 0
        assert "tree_prob_bound 0.12" in capsys.readouterr().out

    def test_validation_exit_2(self, capsys):
        assert main(["bounds", "--l", "0", "--r", "2", "--mu", "0.4",
                     "--q", "0.32"]) == 2
