"""Block-bounded memory of the dataset CSV reader and writers, and the block
writers' bytes against per-row ``csv.writer`` references."""
import dataclasses
import io
import locale

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import harness
from crowdbp.cli import main
from tests.memory import traced_peak
from tests.csv_reference import save_dataset_per_row, write_estimates_per_row


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

    def test_save_peak_with_names(self, tmp_path):
        # 400k rows, 40k tasks and 80k workers named t{i} and w{i}.  An int64
        # index per byte of the names' texts, and its arange, cost 46 bytes
        # per name beyond the unnamed file's peak; a mark per byte, 9.
        dataset = simulated_dataset(40_000, 10)
        graph = dataset.graph
        named = dataclasses.replace(
            dataset, task_names=tuple(f"t{i}" for i in range(graph.n_tasks)),
            worker_names=tuple(f"w{i}" for i in range(graph.n_workers)))
        peaks = [traced_peak(lambda: cb.save_dataset(d, str(tmp_path / "out.csv")))[0]
                 for d in (dataset, named)]
        assert peaks[1] < peaks[0] + 16 * (graph.n_tasks + graph.n_workers)

    def test_save_peak_with_one_very_long_name(self, tmp_path):
        # 100k rows and 10k workers, one named by 1,000,000 characters: its
        # text must not set the width of every other text.
        g = cb.generate_regular_bipartite(20_000, 5, 10, seed=4)
        truth = cb.sample_ground_truth(g, cb.parse_prior_spec("sh"), seed=5)
        names = [f"w{i}" for i in range(g.n_workers)]
        names[g.edges[70_000, 1]] = "x" * 1_000_000  # 7 of its 10 rows in the first block
        dataset = cb.Dataset(graph=g, answers=cb.sample_answers(g, truth, seed=6),
                             truth_labels=truth.labels, reliabilities=truth.reliabilities,
                             worker_names=tuple(names))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        peak, _ = traced_peak(lambda: cb.save_dataset(dataset, str(got)))
        assert g.n_edges == 100_000 and g.n_workers == 10_000
        assert peak < 64_000_000
        save_dataset_per_row(dataset, str(want))
        assert got.read_bytes() == want.read_bytes()


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
            save_dataset_per_row(dataset, str(want))
            assert got.read_bytes() == want.read_bytes(), case

    def test_more_rows_than_a_block(self, tmp_path):
        rng = np.random.default_rng(11)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        for named in (True, False):
            dataset = random_dataset(rng, 700, 300, harness._ROW_BLOCK + 4321, named, 5)
            cb.save_dataset(dataset, str(got))
            save_dataset_per_row(dataset, str(want))
            data = got.read_bytes()
            assert data == want.read_bytes()
            assert b",-0.0\n" in data and b",0.0\n" in data
            assert (b'\n"t,a",' in data) == named

    @pytest.mark.parametrize("row_block", [harness._ROW_BLOCK, 7])
    @pytest.mark.parametrize("names", [
        ("a\x00b", "\xff", "\xffy", "\U0001F600", ""),  # NUL; C3 BF; a 4-byte emoji
        ("a,b", 'say "hi"', '"', "#c,d", "x" * 300),  # quoted; one text of 38 words
    ])
    def test_save_dataset_bytes_of_edge_texts(self, tmp_path, monkeypatch, row_block, names):
        monkeypatch.setattr(harness, "_ROW_BLOCK", row_block)
        g = cb.AssignmentGraph(5, 5, np.array([(t, (t + k) % 5) for t in range(5)
                                               for k in range(3)]))
        rel = np.array([-0.0, 5e-324, 0.1 + 0.2, 0.0, 1.0])
        dataset = cb.Dataset(graph=g, answers=cb.AnswerMatrix(np.resize([1, -1, -1], 15)),
                             truth_labels=np.array([1, -1, 1, 1, -1]), reliabilities=rel,
                             task_names=names, worker_names=names[::-1])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cb.save_dataset(dataset, str(got))
        save_dataset_per_row(dataset, str(want))
        assert got.read_bytes() == want.read_bytes()
        assert b",-0.0\n" in got.read_bytes() and b",5e-324\n" in got.read_bytes()
        assert b",0.30000000000000004\n" in got.read_bytes()
        loaded = cb.load_dataset(str(got))
        assert set(loaded.task_names) == set(names)
        assert set(loaded.worker_names) == set(names)

    def test_a_quote_without_a_comma_is_quoted(self, tmp_path):
        # No text holds a comma or a line break, so the quote alone must
        # send the names through csv.writer's quoting.
        g = cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]]))
        dataset = cb.Dataset(graph=g, answers=cb.AnswerMatrix(np.array([1, -1])),
                             task_names=('say "hi"', "b"), worker_names=("w",))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cb.save_dataset(dataset, str(got))
        save_dataset_per_row(dataset, str(want))
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes() == b'# alphabet=pm1\n"say ""hi""",w,+1\nb,w,-1\n'
        report = cb.EstimateReport(np.array([1, -1]), np.array([0.5, -0.5]), 0, True, 0.0)
        out, reference = io.StringIO(), io.StringIO()
        harness.write_estimates(out, report, dataset.task_names)
        write_estimates_per_row(reference, report, dataset.task_names)
        assert out.getvalue() == reference.getvalue()
        assert out.getvalue().splitlines()[1] == '"say ""hi""",+1,0.5'

    @pytest.mark.parametrize("row_block", [harness._ROW_BLOCK, 7])
    @pytest.mark.parametrize("n", [1, 10, 11, 100_001])
    def test_ids_at_digit_boundaries(self, tmp_path, monkeypatch, row_block, n):
        monkeypatch.setattr(harness, "_ROW_BLOCK", row_block)
        # Task i answered by worker n - 1 - i, so both columns run through every id.
        g = cb.AssignmentGraph(n, n, np.column_stack([np.arange(n), np.arange(n)[::-1]]))
        dataset = cb.Dataset(graph=g, answers=cb.AnswerMatrix(np.ones(n, dtype=np.int64)))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cb.save_dataset(dataset, str(got))
        save_dataset_per_row(dataset, str(want))
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().endswith(f"\n{n - 1},0,+1\n".encode())

    def test_dataset_without_edges_writes_only_the_header(self, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        for names in ((), ("a", "b")):
            dataset = cb.Dataset(graph=cb.AssignmentGraph(2, 2, np.zeros((0, 2), np.int64)),
                                 answers=cb.AnswerMatrix(np.zeros(0, np.int64)),
                                 truth_labels=np.array([1, -1]), reliabilities=np.ones(2),
                                 task_names=names, worker_names=names)
            cb.save_dataset(dataset, str(got))
            save_dataset_per_row(dataset, str(want))
            assert got.read_bytes() == want.read_bytes() == b"# alphabet=pm1\n"

    def test_locale_encoding_is_kept(self, tmp_path, monkeypatch):
        monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "latin-1")
        g = cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]]))
        answers = cb.AnswerMatrix(np.array([1, -1]))
        path = tmp_path / "latin1.csv"
        cb.save_dataset(cb.Dataset(graph=g, answers=answers, task_names=("\xfc", "b"),
                                   worker_names=("w",)), str(path))
        assert path.read_bytes() == b"# alphabet=pm1\n\xfc,w,+1\nb,w,-1\n"
        with pytest.raises(cb.ParameterError, match="cannot be written as latin-1 text"):
            cb.save_dataset(cb.Dataset(graph=g, answers=answers, task_names=("a", "\U0001F600"),
                                       worker_names=("w",)), str(tmp_path / "emoji.csv"))
        assert not (tmp_path / "emoji.csv").exists()

    def test_each_distinct_float_is_spelled_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "repr", lambda x: calls.append(x) or repr(x),
                            raising=False)
        dataset = simulated_dataset(2000, 10)
        cb.save_dataset(dataset, str(tmp_path / "sim.csv"))
        assert len(calls) == np.unique(dataset.reliabilities).size < 10
        calls.clear()
        margins = np.resize([0.5, -0.25, 0.0, -0.0], 3000)
        report = cb.EstimateReport(np.where(margins >= 0, 1, -1), margins, 0, True, 0.0)
        harness.write_estimates(io.StringIO(), report, ())
        assert sorted(map(str, calls)) == ["-0.0", "-0.25", "0.0", "0.5"]

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
            write_estimates_per_row(want, report, names)
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
            write_estimates_per_row(want, report, loaded.task_names)
            with open(out, newline="") as handle:
                assert handle.read() == want.getvalue()
