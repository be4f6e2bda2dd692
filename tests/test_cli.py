import json
import os
import subprocess
import sys

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

# A 400-digit count, beyond the float range.
HUGE = "1" + "0" * 400
BENCH_JSON = {"n_tasks": 12, "sweep_values": [2, 3], "fixed_degree": 3, "prior": "sh",
              "estimators": ["mv", "kos"], "trials": 3, "seed": 5, "timing": False}


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

    @pytest.mark.parametrize("prior", ["beta:nan,1", "beta:inf,2", "atoms:nan=1",
                                       "atoms:0.5=nan,0.9=1"])
    def test_non_finite_prior_exit_2(self, tmp_path, capsys, prior):
        # NaN parameters used to pass, and simulate wrote a dataset.
        out = tmp_path / "x.csv"
        rc = main(["simulate", "--n", "20", "--l", "3", "--r", "3",
                   "--prior", prior, "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_out_directory_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "10", "--l", "2", "--r", "2",
                   "--prior", "sh", "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


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

    def test_only_kos_derives_its_seed(self, tmp_path):
        # Deriving a seed imports numpy.random, about 6 MB of resident memory
        # on top of the reader's; mv's infer peaked that much higher with it.
        data = simulate(tmp_path)
        show = ("import sys; from crowdbp.cli import main; main(); "
                "print('numpy.random' in sys.modules)")
        for estimator, imported in (("mv", "False"), ("kos", "True")):
            proc = subprocess.run(
                [sys.executable, "-c", show, "infer", "--data", str(data), "--estimator",
                 estimator, "--out", str(tmp_path / "out.csv")],
                env=TestMalformedInvocations.env(), capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == imported

    def test_reports_convergence_on_stderr(self, tmp_path, capsys):
        data = simulate(tmp_path)
        capsys.readouterr()
        assert main(["infer", "--data", str(data), "--estimator", "em", "--kmax", "1"]) == 0
        err = capsys.readouterr().err
        assert "iterations 1 converged False max_delta " in err
        assert main(["infer", "--data", str(data), "--estimator", "mv"]) == 0
        assert "iterations 0 converged True max_delta 0.0\n" in capsys.readouterr().err

    def test_bp_with_prior_flag(self, tmp_path):
        data = simulate(tmp_path)
        assert main(["infer", "--data", str(data), "--estimator", "bp",
                     "--prior", "sh"]) == 0

    def test_bp_uses_reliability_column_when_no_prior_given(self, tmp_path):
        data = simulate(tmp_path)
        assert main(["infer", "--data", str(data), "--estimator", "bp"]) == 0

    def test_oracle_task_on_a_file_without_reliabilities(self, tmp_path, capsys):
        # Four columns: the truth the oracle clamps, and no reliability column,
        # so run_inference fills in placeholder reliabilities.
        full = cb.load_dataset(str(simulate(tmp_path, n=40, l=3, r=3)))
        data = tmp_path / "four.csv"
        cb.save_dataset(cb.Dataset(graph=full.graph, answers=full.answers,
                                   truth_labels=full.truth_labels,
                                   task_names=full.task_names,
                                   worker_names=full.worker_names), str(data))
        loaded = cb.load_dataset(str(data))
        assert loaded.reliabilities is None
        capsys.readouterr()
        assert main(["infer", "--data", str(data), "--estimator", "oracle-task",
                     "--prior", "sh"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        truth = cb.GroundTruth(loaded.truth_labels, np.full(loaded.graph.n_workers, 0.5))
        want = cb.oracle_task_estimate(loaded.graph, loaded.answers, cb.spammer_hammer(), truth)
        assert [float(margin) for _, _, margin in rows] == want.margins.tolist()

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

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        data = simulate(tmp_path)
        out = tmp_path / "labels.csv"
        assert main(["infer", "--data", str(data), "--estimator", "bp", "--prior", "sh",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["infer", "--data", str(data), "--estimator", "bp", "--prior", "sh"]) == 0
        assert capsys.readouterr().out == out.read_bytes().decode()

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["infer", "--data", str(tmp_path / "absent.csv"),
                   "--estimator", "mv"])
        assert rc == 2

    def test_data_directory_exit_2(self, tmp_path, capsys):
        rc = main(["infer", "--data", str(tmp_path), "--estimator", "mv"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

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

    def test_help_names_any_ebp_round_count(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["infer", "--help"])
        assert "ebp<k>" in capsys.readouterr().out
        data = simulate(tmp_path)
        assert main(["infer", "--data", str(data), "--estimator", "ebp3"]) == 0

    def test_negative_tol_exit_2(self, tmp_path, capsys):
        # kos used to accept it and exit 0.
        data = simulate(tmp_path)
        rc = main(["infer", "--data", str(data), "--estimator", "kos", "--tol", "-1"])
        assert rc == 2
        assert "tol must be non-negative" in capsys.readouterr().err

    def test_nan_tol_exit_2(self, tmp_path, capsys):
        # kos used to run to k_max and exit 0.
        data = simulate(tmp_path)
        rc = main(["infer", "--data", str(data), "--estimator", "kos", "--tol", "nan"])
        assert rc == 2
        assert "tol must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["mv", "oracle-work", "kos"])
    @pytest.mark.parametrize("budget,message", [
        (["--kmax", "0"], "k_max must be an integer >= 1, got 0"),
        (["--tol", "nan"], "tol must be non-negative"),
    ], ids=["kmax-0", "tol-nan"])
    def test_budget_refused_whatever_the_estimator(self, tmp_path, capsys, estimator, budget,
                                                   message):
        # mv and oracle-work read no budget, and used to exit 0 on one kos refuses.
        data = simulate(tmp_path)
        capsys.readouterr()
        rc = main(["infer", "--data", str(data), "--estimator", estimator, *budget])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("estimator", ["mv", "kos", "em", "ebp2", "oracle-work"])
    def test_prior_for_an_estimator_without_one_exit_2(self, tmp_path, capsys, estimator):
        # The flag used to be ignored, misspelt or not, and infer exited 0.
        data = simulate(tmp_path)
        capsys.readouterr()
        rc = main(["infer", "--data", str(data), "--estimator", estimator,
                   "--prior", "nope"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: estimator {estimator!r} takes no --prior" in captured.err

    @pytest.mark.parametrize("prior", ["beta:nan,1", "beta:1,inf", "atoms:nan=1"])
    def test_non_finite_prior_exit_2(self, tmp_path, capsys, prior):
        # beta:nan,1 used to reach bp_run and exit 4 on a zero-mass message.
        data = simulate(tmp_path)
        capsys.readouterr()
        rc = main(["infer", "--data", str(data), "--estimator", "bp", "--prior", prior])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_conflicting_evidence_under_certain_prior_exit_4(self, tmp_path, capsys):
        data = tmp_path / "split.csv"
        data.write_text("t0,wa,+1\nt0,wb,+1\nt0,wc,-1\nt0,wd,-1\n")
        rc = main(["infer", "--data", str(data), "--estimator", "bp",
                   "--prior", "atoms:1=1"])
        assert rc == 4
        assert "numeric error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--estimator", "magic"], "unknown estimator kind 'magic'"),
        (["--estimator", "kos", "--kmax", "0"], "k_max must be an integer >= 1, got 0"),
        (["--estimator", "kos", "--tol", "nan"], "tol must be non-negative"),
        (["--estimator", "bp", "--prior", "nope"], "unknown prior spec 'nope'"),
        (["--estimator", "mv", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["--estimator", "mv", "--subsample-l", "0"], "l_target must be an integer >= 1, got 0"),
    ], ids=["estimator", "kmax", "tol", "prior", "seed", "subsample-l"])
    def test_flags_are_checked_before_the_file_is_read(self, tmp_path, capsys, flags, message):
        # Each was checked only after the whole file had been read, so a
        # missing file was reported in its place.
        rc = main(["infer", "--data", str(tmp_path / "missing.csv"), *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_out_key_in_config_exit_2(self, tmp_path, capsys):
        # Only --out chooses the file; the config key used to write there.
        cfg, target = tmp_path / "cfg.txt", tmp_path / "x.csv"
        cfg.write_text(BENCH_CONFIG + f"out = {target}\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "unknown config key 'out'" in capsys.readouterr().err
        assert not target.exists()

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BENCH_CONFIG)
        out = tmp_path / "rows.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == out.read_bytes().decode()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["bench", "--config", str(tmp_path / "none.txt")]) == 2

    def test_config_directory_exit_2(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,text", [
        ("tol", BENCH_CONFIG + "tol = abc\n"),
        ("sweep_values", json.dumps({**BENCH_JSON, "sweep_values": 2})),
        ("n_tasks", json.dumps({**BENCH_JSON, "n_tasks": None})),
        ("prior", json.dumps({**BENCH_JSON, "prior": 5})),
        ("estimators", json.dumps({**BENCH_JSON, "estimators": [5]})),
        # Integer keys used to truncate a fraction and take a boolean as 1.
        ("n_tasks", json.dumps({**BENCH_JSON, "n_tasks": 12.7})),
        ("trials", json.dumps({**BENCH_JSON, "trials": True})),
        ("sweep_values", json.dumps({**BENCH_JSON, "sweep_values": [2, 3.5]})),
        ("seed", json.dumps({**BENCH_JSON, "seed": False})),
        # Boolean keys used to take any JSON value by truth, and tol a boolean as 1.0.
        ("timing", json.dumps({**BENCH_JSON, "timing": 5})),
        ("adjust_n", json.dumps({**BENCH_JSON, "adjust_n": None})),
        ("tol", json.dumps({**BENCH_JSON, "tol": True})),
        ("timing", BENCH_CONFIG + "timing = 5\n"),
    ], ids=["tol-abc", "sweep_values-2", "n_tasks-null", "prior-5", "estimators-5",
            "n_tasks-12.7", "trials-true", "sweep_values-3.5", "seed-false",
            "timing-5", "adjust_n-null", "tol-true", "timing-5-flat"])
    def test_malformed_config_value_exit_2(self, tmp_path, capsys, key, text):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert main(["bench", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: bad {key}: ")

    @pytest.mark.parametrize("prior,message", [
        ("beta:nan,1", "requires finite alpha > 0 and beta > 0"),
        ("atoms:nan=1", "atom locations must lie in [0, 1]"),
    ])
    def test_non_finite_prior_exit_2(self, tmp_path, capsys, prior, message):
        # The config used to pass, and the run failed later on NaN moments.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BENCH_CONFIG.replace("prior = sh", f"prior = {prior}"))
        assert main(["bench", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_tol_outside_the_non_negatives_exit_2(self, tmp_path, capsys, tol):
        # A NaN tol used to pass, and every trial ran to k_max.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(BENCH_CONFIG + f"tol = {tol}\n")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "tol must be non-negative" in capsys.readouterr().err


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

    def test_tree_bound_past_the_float_range_is_one(self, capsys):
        rc = main(["bounds", "--l", "15", "--r", "5", "--mu", "0.4", "--q", "0.32",
                   "--n", "100", "--k", "200"])
        assert rc == 0
        assert "tree_prob_bound 1.0\n" in capsys.readouterr().out

    def test_validation_exit_2(self, capsys):
        assert main(["bounds", "--l", "0", "--r", "2", "--mu", "0.4",
                     "--q", "0.32"]) == 2

    @pytest.mark.parametrize("bad", [["--n", "0"], ["--n", "100", "--k", "-1"]])
    def test_bad_tree_arguments_print_no_bound(self, capsys, bad):
        # The mv and kos bounds used to reach stdout before --n was checked.
        assert main(["bounds", "--l", "5", "--r", "5", "--mu", "0.3", "--q", "0.3",
                     *bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("k", ["-1", "1"])
    def test_k_without_n_prints_no_bound(self, capsys, k):
        # Only the tree bound reads --k: without --n, --k -1 used to go
        # unread, and both bounds were printed with exit 0.
        assert main(["bounds", "--l", "5", "--r", "5", "--mu", "0.3", "--q", "0.3",
                     "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --k needs --n\n"


class TestMalformedInvocations:
    """``python -m crowdbp`` on bad input: the documented exit code and message, no traceback."""

    @staticmethod
    def env():
        """This process's environment, with the tested package first on the path."""
        src = os.path.dirname(os.path.dirname(cb.__file__))
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

    @classmethod
    def run(cls, tmp_path, args):
        return subprocess.run([sys.executable, "-m", "crowdbp", *args], cwd=tmp_path,
                              env=cls.env(), capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("args,code,prefix", [
        # A negative seed used to end in a ValueError traceback from SeedSequence, exit 1.
        (["simulate", "--n", "8", "--l", "2", "--r", "2", "--prior", "sh", "--seed", "-1",
          "--out", "x.csv"], 2, "error: seed must be"),
        (["infer", "--data", "data.csv", "--estimator", "mv", "--seed", "-1"], 2,
         "error: seed must be"),
        (["bench", "--config", "seed.json"], 2, "error: seed.json: bad seed: "),
        (["simulate", "--n", "10", "--l", "3", "--r", "7", "--prior", "sh", "--out", "x.csv"],
         2, "error: "),
        (["infer", "--data", "absent.csv", "--estimator", "mv"], 2, "error: "),
        (["infer", "--data", "bad.csv", "--estimator", "mv"], 3, "data error: line 2: "),
        (["bench", "--config", "fraction.json"], 2, "error: fraction.json: bad n_tasks: "),
        (["bounds", "--l", "0", "--r", "2", "--mu", "0.4", "--q", "0.32"], 2, "error: "),
        # The third row repeats the first row's pair: the refused graph names it.
        (["infer", "--data", "repeat.csv", "--estimator", "mv"], 3,
         "data error: line 3: duplicate answer for task 'a', worker 'w'\n"),
        # "²" passes str.isdigit, but int refuses it.
        (["infer", "--data", "data.csv", "--estimator", "ebp²"], 2,
         "error: unknown estimator 'ebp²'"),
        # Counts beyond the float range are refused, not overflowed.
        (["simulate", "--n", "8", "--l", "2", "--r", "2", "--prior", "sh", "--seed", HUGE,
          "--out", "x.csv"], 2, "error: seed must be"),
        (["bench", "--config", "huge.json"], 2, "error: huge.json: bad seed: "),
        (["bench", "--config", "superscript.json"], 2, "error: superscript.json: "),
        (["bounds", "--l", HUGE, "--r", "2", "--mu", "0.4", "--q", "0.32"], 2,
         "error: l must be"),
    ], ids=["simulate-seed", "infer-seed", "bench-seed", "infeasible-degrees", "missing-data",
            "duplicate-answer", "bench-fraction", "bounds-degree", "repeated-pair",
            "estimator-superscript", "simulate-huge-seed", "bench-huge-seed", "bench-superscript",
            "bounds-huge-l"])
    def test_exit_code_and_message(self, tmp_path, args, code, prefix):
        (tmp_path / "data.csv").write_text("t0,w0,+1\nt0,w1,-1\n")
        (tmp_path / "bad.csv").write_text("t,w,+1\nt,w,-1\n")
        (tmp_path / "repeat.csv").write_text("a,w,+1\nb,w,-1\na,w,-1\n")
        (tmp_path / "seed.json").write_text(json.dumps({**BENCH_JSON, "seed": -3}))
        (tmp_path / "fraction.json").write_text(json.dumps({**BENCH_JSON, "n_tasks": 12.7}))
        (tmp_path / "huge.json").write_text(json.dumps({**BENCH_JSON, "seed": int(HUGE)}))
        (tmp_path / "superscript.json").write_text(
            json.dumps({**BENCH_JSON, "estimators": ["mv", "ebp²"]}))
        proc = self.run(tmp_path, args)
        assert proc.returncode == code
        assert proc.stderr.startswith(prefix)
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()
