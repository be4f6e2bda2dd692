"""Block-bounded memory of the dataset CSV reader and writers, and the block
writers' bytes against the whole-file writers they replaced."""
import io

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import harness
from crowdbp.cli import main
from tests.memory import traced_peak
from tests.writer_reference import save_dataset_whole_file, write_estimates_whole_file


def simulated_dataset(n, l, seed=3):
    g = cb.generate_regular_bipartite(n, l, 5, seed=seed)
    truth = cb.sample_ground_truth(g, cb.parse_prior_spec("sh"), seed=seed + 1)
    return cb.Dataset(graph=g, answers=cb.sample_answers(g, truth, seed=seed + 2),
                      truth_labels=truth.labels, reliabilities=truth.reliabilities)


class TestMemory:
    def test_load_peak_per_row(self, tmp_path):
        # 200k rows, 20k tasks and 40k workers: a 1M-row simulated file's
        # shape at a fifth of its size.  Whole-file keys, their sorts and
        # int64/float64 per-row checks peaked at 227 bytes per row here;
        # ids given as blocks arrive and checks run a block at a time
        # measure 174.
        path = tmp_path / "sim.csv"
        assert main(["simulate", "--n", "20000", "--l", "10", "--r", "5", "--prior", "sh",
                     "--seed", "3", "--out", str(path)]) == 0
        peak, loaded = traced_peak(lambda: cb.load_dataset(str(path)))
        assert loaded.graph.n_edges == 200_000
        assert peak / loaded.graph.n_edges < 192

    def test_save_peak_does_not_grow_with_the_file(self, tmp_path):
        peaks = []
        for n in (10_000, 40_000):  # 100k and 400k rows
            dataset = simulated_dataset(n, 10)
            peak, _ = traced_peak(lambda: cb.save_dataset(dataset, str(tmp_path / "out.csv")))
            peaks.append(peak)
        # Whole-file tables grew by 17 MB between these sizes; the block
        # writer keeps a few bytes per task and per worker.
        assert peaks[1] < peaks[0] + 2_000_000


def random_names(rng, n, prefix):
    """``n`` distinct names that load back as they are, some needing quotes."""
    names = [f"{prefix}{i}" for i in range(n)]
    odd = [f"{prefix},a", f'{prefix}"q"', f'"{prefix}",b', f"#{prefix},c", f"ü{prefix}"]
    for at, name in zip(rng.permutation(n), odd):
        names[at] = name
    return tuple(names)


def random_dataset(rng, n_tasks, n_workers, n_rows, named, columns):
    pairs = rng.choice(n_tasks * n_workers, size=n_rows, replace=False)
    graph = cb.AssignmentGraph(n_tasks, n_workers,
                               np.column_stack(np.divmod(pairs, n_workers)))
    # Repeated values, both zeros, and values whose repr needs 17 digits.
    rel = rng.choice([0.0, -0.0, 0.5, 1.0, 1e-05, 0.1 + 0.2, 2.0 ** -1074, 0.9],
                     size=n_workers)
    return cb.Dataset(
        graph=graph, answers=cb.AnswerMatrix(rng.choice([-1, 1], size=n_rows)),
        truth_labels=rng.choice([-1, 1], size=n_tasks) if columns >= 4 else None,
        reliabilities=rel if columns == 5 else None,
        task_names=random_names(rng, n_tasks, "t") if named else (),
        worker_names=random_names(rng, n_workers, "w") if named else ())


class TestBlockWriters:
    @pytest.mark.parametrize("row_block", [harness._ROW_BLOCK, 7])
    def test_save_dataset_bytes(self, tmp_path, monkeypatch, row_block):
        monkeypatch.setattr(harness, "_ROW_BLOCK", row_block)
        rng = np.random.default_rng(row_block)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        for case in range(30):
            n_tasks, n_workers = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            n_rows = int(rng.integers(1, n_tasks * n_workers + 1))
            dataset = random_dataset(rng, n_tasks, n_workers, n_rows, named=case % 2 == 0,
                                     columns=3 + case % 3)
            cb.save_dataset(dataset, str(got))
            save_dataset_whole_file(dataset, str(want))
            assert got.read_bytes() == want.read_bytes(), case

    def test_more_rows_than_a_block(self, tmp_path):
        rng = np.random.default_rng(11)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        for named in (True, False):
            dataset = random_dataset(rng, 700, 300, harness._ROW_BLOCK + 4321, named, 5)
            cb.save_dataset(dataset, str(got))
            save_dataset_whole_file(dataset, str(want))
            data = got.read_bytes()
            assert data == want.read_bytes()
            assert b",-0.0\n" in data and b",0.0\n" in data
            assert (b'\n"t,a",' in data) == named

    @pytest.mark.parametrize("row_block", [harness._ROW_BLOCK, 5])
    def test_infer_output_bytes(self, monkeypatch, row_block):
        monkeypatch.setattr(harness, "_ROW_BLOCK", row_block)
        rng = np.random.default_rng(row_block)
        for case in range(20):
            n = int(rng.integers(1, 40))
            margins = np.where(rng.random(n) < 0.5, rng.uniform(-1, 1, size=n),
                               rng.choice([0.0, -0.0, 0.25, -1.0, 1.0, 1e-300], size=n))
            report = cb.EstimateReport(np.where(margins >= 0, 1, -1), margins, 0, True, 0.0)
            names = random_names(rng, n, "t") if case % 2 else ()
            got, want = io.StringIO(), io.StringIO()
            harness.write_estimates(got, report, names)
            write_estimates_whole_file(want, report, names)
            assert got.getvalue() == want.getvalue(), case

    def test_infer_cli_output_bytes(self, tmp_path):
        dataset = random_dataset(np.random.default_rng(5), 300, 200, 3000, True, 5)
        data, out = tmp_path / "data.csv", tmp_path / "labels.csv"
        cb.save_dataset(dataset, str(data))
        for argv in (["--estimator", "mv"], ["--estimator", "bp", "--prior", "sh"]):
            assert main(["infer", "--data", str(data), "--out", str(out), *argv]) == 0
            loaded = cb.load_dataset(str(data))
            report = cb.run_inference(loaded, argv[1], prior_spec=argv[3] if len(argv) > 2
                                      else None, seed=cb.child_seed(0, "estimator"))
            want = io.StringIO()
            write_estimates_whole_file(want, report, loaded.task_names)
            with open(out, newline="") as handle:
                assert handle.read() == want.getvalue()
