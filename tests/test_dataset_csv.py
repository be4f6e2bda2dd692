"""The bulk dataset CSV reader and writers against their per-line references."""
import csv
import hashlib
import io
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import harness
from crowdbp.cli import main
from tests.csv_reference import load_dataset_per_line, save_dataset_per_row

# Distinct after stripping; some need csv quoting, some exceed the packed-key width.
NAMES = ["t1", "w2", "17", "", "a,b", 'q"x', "x, \"y\"", "ünï", "#tag", "a#b",
         "x" * 33, "long-" + "y" * 60, "mid dle", " em"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def outcome(load, path):
    """The dataset, or the type and text of what loading raised."""
    try:
        return load(path)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def assert_same_outcome(path):
    got, want = outcome(cb.load_dataset, path), outcome(load_dataset_per_line, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert (got.graph.n_tasks, got.graph.n_workers) == (want.graph.n_tasks, want.graph.n_workers)
    np.testing.assert_array_equal(got.graph.edges, want.graph.edges)
    np.testing.assert_array_equal(got.answers.answers, want.answers.answers)
    for field in ("truth_labels", "reliabilities"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
    assert got.task_names == want.task_names
    assert got.worker_names == want.worker_names


def field(rng, text):
    """``text`` as a CSV field, quoted when it must be and sometimes when not."""
    if any(c in text for c in ',"') or rng.random() < 0.05:
        return '"' + text.replace('"', '""') + '"'
    return text


def padded(rng, text):
    pads = ["", "", "", " ", "\t", "  "]
    return pads[rng.integers(len(pads))] + text + pads[rng.integers(len(pads))]


def label_token(rng, value, alphabet):
    if alphabet == "01":
        return "1" if value > 0 else "0"
    return str(rng.choice(["+1", "1"])) if value > 0 else "-1"


def random_csv(rng, n_rows, n_cols, errors=()):
    """Lines of a random edge-list file, with ``errors`` as (row, kind) pairs."""
    tasks = [padded(rng, n) for n in rng.permutation(NAMES)[:int(rng.integers(3, len(NAMES)))]]
    workers = [f"w{i}" for i in range(int(rng.integers(2, 40)))] + ["a,b", "ünï", "z" * 40]
    pairs = rng.permutation(len(tasks) * len(workers))[:n_rows]
    truth = {t: int(rng.choice([-1, 1])) for t in range(len(tasks))}
    rel = {w: float(rng.choice([0.0, 0.25, 0.5, 1.0])) for w in range(len(workers))}
    rel_text = {0.0: ["0", "0.0", "-0.0"], 0.25: ["0.25", " 2.5e-1"], 0.5: ["0.5", ".50 "],
                1.0: ["1", "1.0", "1e0"]}
    errors = dict(errors)
    alphabet, seen, lines = "pm1", [], []
    if rng.random() < 0.5:
        lines.append("# alphabet=pm1")
    for row, pair in enumerate(pairs):
        t, w = divmod(int(pair), len(workers))
        roll = rng.random()
        if roll < 0.04:
            alphabet = str(rng.choice(["pm1", "01"]))
            lines.append(str(rng.choice(["# alphabet=", "#alphabet=", "  ##  alphabet= "]))
                         + alphabet)
        elif roll < 0.08:
            lines.append(str(rng.choice(["", "   ", "\t", "  # note", "#", "# alphabet"])))
        kind = errors.get(row)
        if kind == "duplicate" and seen:
            t, w = seen[int(rng.integers(len(seen)))]
        seen.append((t, w))
        cells = [field(rng, tasks[t]), field(rng, padded(rng, workers[w])),
                 padded(rng, label_token(rng, int(rng.choice([-1, 1])), alphabet)),
                 padded(rng, label_token(rng, truth[t], alphabet)),
                 str(rng.choice(rel_text[rel[w]]))][:n_cols]
        if kind == "answer":
            cells[2] = str(rng.choice(["maybe", "2", "+0", "0" if alphabet == "pm1" else "-1"]))
        elif kind == "truth" and n_cols >= 4:
            cells[3] = str(rng.choice(["yes", "", "+2"]))
        elif kind == "truth_conflict" and n_cols >= 4:
            cells[3] = label_token(rng, -truth[t], alphabet)
        elif kind == "rel_parse" and n_cols == 5:
            cells[4] = str(rng.choice(["high", "0.5.1", ""]))
        elif kind == "range" and n_cols == 5:
            cells[4] = str(rng.choice(["1.5", "-0.25", "nan", "inf"]))
        elif kind == "rel_conflict" and n_cols == 5:
            cells[4] = "0.75"
        elif kind == "columns":
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["extra"]
        elif kind == "alphabet":
            lines.append("# alphabet=spam")
        elif kind == "undecodable":
            # written as the lone byte 0xE9 (see write_lines)
            cells[int(rng.integers(len(cells)))] += "\udce9"
        lines.append(",".join(cells))
    return lines


def write_lines(path, rng, lines):
    ends = rng.choice(LINE_ENDS, size=len(lines))
    text = "".join(line + end for line, end in zip(lines, ends))
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


ERROR_KINDS = ["duplicate", "answer", "truth", "truth_conflict", "rel_parse", "range",
               "rel_conflict", "columns", "alphabet", "undecodable"]


class TestReaderMatchesPerLineReference:
    @pytest.mark.parametrize("block", [harness._READ_BLOCK, 40, 301])
    def test_random_files(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(harness, "_READ_BLOCK", block)
        rng = np.random.default_rng(block)
        path = tmp_path / "data.csv"
        for case in range(120):
            n_rows = int(rng.integers(1, 120))
            n_errors = case % 3
            errors = [(int(rng.integers(n_rows)), str(rng.choice(ERROR_KINDS)))
                      for _ in range(n_errors)]
            write_lines(path, rng, random_csv(rng, n_rows, int(rng.integers(3, 6)), errors))
            assert_same_outcome(path)

    @pytest.mark.parametrize("content, line", [
        ("# alphabet=spam\nt,w,+1\n", 1),
        ("t,w\n", 1),
        ("t,w,+1\nt,v,+1,+1\n", 2),
        ("t,w,maybe\n", 1),
        ("t,w,+1\nt,w,-1\n", 2),
        ("t,w,+1,+1\nt,v,+1,-1\n", 2),
        ("t,w,+1,+1,high\n", 1),
        ("t,w,+1,+1,1.5\n", 1),
        ("t,w,+1,+1,0.8\ns,w,+1,+1,0.9\n", 2),
    ])
    def test_format_errors_after_many_valid_rows(self, tmp_path, content, line):
        n_valid = 2000
        n_cols = max(3, content.split("\n")[0].count(",") + 1)
        valid = "".join(",".join([f"p{i}", f"q{i % 97}", "+1", "-1", "0.5"][:n_cols]) + "\n"
                        for i in range(n_valid))
        path = tmp_path / "bad.csv"
        path.write_text(valid + content)
        assert_same_outcome(path)
        with pytest.raises(cb.DataFormatError, match=f"^line {n_valid + line}:"):
            cb.load_dataset(str(path))

    @pytest.mark.parametrize("content, line", [
        # the earlier of two failing lines wins, whatever the checks
        ("a,w,+1\nb,w,+1\na,w,+1\nc,w,maybe\n", 3),
        ("a,w,+1\nb,w,maybe\nb,v,+1\na,w,+1\n", 2),
        ("a,w,+1,+1\na,v,+1,-1\nc,w\n", 2),
        ("a,w,+1,+1,0.5\nb,w,+1,+1,0.6\n# alphabet=spam\n", 2),
        ("a,w,+1,+1,0.5\n# alphabet=spam\nb,w,+1,+1,0.6\n", 2),
        ('a,w,+1,+1,0.5\n"b",w,+1,+1,0.6\nc,w\n', 2),
        # within one line, the first check in order wins
        ("a,w,+1\na,w,maybe\n", 2),
        ("a,w,+1,+1\na,v,+1,bad\n", 2),
        ("a,w,+1,+1,0.5\nb,w,+1,+1,high\n", 2),
        ("a,w,+1,-1,0.5\na,v,+1,+1,1.5\n", 2),
    ])
    def test_earliest_failure_wins(self, tmp_path, content, line):
        path = tmp_path / "two.csv"
        path.write_text(content)
        assert_same_outcome(path)
        with pytest.raises(cb.DataFormatError, match=f"^line {line}:"):
            cb.load_dataset(str(path))

    @pytest.mark.parametrize("end", LINE_ENDS)
    def test_line_ends_number_lines_like_text_iteration(self, tmp_path, end):
        path = tmp_path / "ends.csv"
        path.write_bytes(end.join(["# alphabet=01", "", "a,w,1", "  # x", "b,w,2", ""]).encode())
        assert_same_outcome(path)
        with pytest.raises(cb.DataFormatError, match="^line 5: bad answer '2'"):
            cb.load_dataset(str(path))

    def test_mixed_line_ends_and_stray_carriage_returns(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_bytes(b"a,w,+1\r\r\nb,w,+1\n\rc,w,-1\r\n\r\nd,w,+1,extra\r")
        assert_same_outcome(path)
        with pytest.raises(cb.DataFormatError, match="^line 7: expected 3 columns"):
            cb.load_dataset(str(path))

    def test_quoted_lines_keep_csv_rules(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"a,b",w,+1\n"a,b" ,v,-1\nc,"x""y",+1\n  "a,b"  ,"z",-1\n')
        assert_same_outcome(path)
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names == ("a,b", "c")
        assert loaded.worker_names == ("w", "v", 'x"y', "z")
        # An unclosed quote swallows the rest of its line, never the next line.
        path.write_text('a,w,+1\n"open,w,+1\n"b",v,"-1"\n')
        assert_same_outcome(path)
        with pytest.raises(cb.DataFormatError, match="^line 2: expected 3 columns, got 1"):
            cb.load_dataset(str(path))

    def test_nul_bytes_keep_names_apart(self, tmp_path):
        path = tmp_path / "nul.csv"
        path.write_text('a,w,+1\na\x00,w,+1\n"a\x00\x00",w,-1\n')
        assert_same_outcome(path)
        assert cb.load_dataset(str(path)).task_names == ("a", "a\x00", "a\x00\x00")

    def test_alphabet_directive_applies_to_later_rows_only(self, tmp_path):
        path = tmp_path / "switch.csv"
        path.write_text("a,w,1\n# alphabet=01\nb,w,0\n #  alphabet = pm1\nc,w,0\n")
        loaded = cb.load_dataset(str(path))
        assert loaded.answers.answers.tolist() == [1, -1, -1]
        assert_same_outcome(path)

    def test_whitespace_variants_of_one_name_are_one_id(self, tmp_path):
        path = tmp_path / "pad.csv"
        path.write_text("a,w,+1\n  a  ,v,+1\n\ta,u,-1\n")
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names == ("a",)
        assert loaded.graph.edges[:, 0].tolist() == [0, 0, 0]
        assert_same_outcome(path)

    def test_field_over_the_csv_size_limit_fails_as_before(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("a,w,+1\nb,w,maybe\n" + "x" * (csv.field_size_limit() + 1) + ",w,+1\n")
        assert_same_outcome(path)
        path.write_text("a,w,+1\n" + "x" * (csv.field_size_limit() + 1) + ",w,+1\n")
        assert_same_outcome(path)
        with pytest.raises(cb.DataFormatError, match="^line 2: field larger than field limit"):
            cb.load_dataset(str(path))
        path.write_text('a,w,+1\nb,v,-1\n"' + "y" * 140_000 + '",w,+1\n')
        assert_same_outcome(path)
        with pytest.raises(cb.DataFormatError, match="^line 3: field larger than field limit"):
            cb.load_dataset(str(path))

    def test_undecodable_bytes_are_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        for content, line in [(b"a,w,+1\nb\xe9,w,-1\nc,w,+1\n", 2),
                              (b"a,w,+1\r\n# caf\xe9\r\nb,w,-1\r\n", 2),
                              (b"a,w,+1\n\"b\xe9,c\",w,-1\n", 2),
                              (b"\xff\xfea,w,+1\n", 1),
                              # an earlier failing row still wins
                              (b"a,w,+1\na,w,-1\nb\xe9,w,+1\n", 2)]:
            path.write_bytes(content)
            assert_same_outcome(path)
            with pytest.raises(cb.DataFormatError, match=f"^line {line}: "):
                cb.load_dataset(str(path))
        # Valid three-byte characters that share the lead byte 0xED stay names.
        path.write_text("\ud55c,w,+1\n\ud7a3,w,-1\n")
        assert cb.load_dataset(str(path)).task_names == ("\ud55c", "\ud7a3")
        assert_same_outcome(path)

    def test_long_name_needs_no_rows_by_width_buffer(self, tmp_path):
        name = "n" * 100_000
        rows = [f"t{i},w{i % 50},+1" for i in range(1000)]
        rows[500] = f"{name},w0,-1"
        path = tmp_path / "long.csv"
        path.write_text("\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            loaded = cb.load_dataset(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.task_names[500] == name
        # A (rows x longest name) buffer would be 100 MB.
        assert peak < 5_000_000
        assert_same_outcome(path)


def tricky_dataset():
    g = cb.AssignmentGraph(3, 3, np.array([[0, 0], [0, 1], [1, 2], [2, 0], [2, 2]]))
    return cb.Dataset(
        graph=g,
        answers=cb.AnswerMatrix(np.array([1, -1, 1, 1, -1])),
        truth_labels=np.array([1, -1, 1]),
        reliabilities=np.array([0.5, 0.9, 1e-05]),
        task_names=("a,b", 'say "hi"', "plain"),
        worker_names=("w,1", "ünï", '"'),
    )


class TestWriters:
    def test_simulate_and_infer_output_bytes_are_pinned(self, tmp_path):
        data, labels = tmp_path / "sim.csv", tmp_path / "labels.csv"
        assert main(["simulate", "--n", "2000", "--l", "10", "--r", "5", "--prior", "sh",
                     "--seed", "7", "--out", str(data)]) == 0
        assert main(["infer", "--data", str(data), "--estimator", "bp",
                     "--out", str(labels)]) == 0
        assert hashlib.sha256(data.read_bytes()).hexdigest() == (
            "4585b3cf0ad4352596f3ee9ac36b0f53831192370ae7e8ceb7ab8dbdefb9ab1a")
        assert hashlib.sha256(labels.read_bytes()).hexdigest() == (
            "647528853bf5e5b76a79478874c8471dcbd8a886bc2c4df42383f8bcbe635fc8")

    def test_bulk_writer_matches_per_row_csv_writer(self, tmp_path):
        dataset = tricky_dataset()
        bulk, per_row = tmp_path / "bulk.csv", tmp_path / "per_row.csv"
        cb.save_dataset(dataset, str(bulk))
        save_dataset_per_row(dataset, str(per_row))
        assert bulk.read_bytes() == per_row.read_bytes()
        assert b'"a,b"' in bulk.read_bytes() and b'"say ""hi"""' in bulk.read_bytes()

    def test_names_that_need_quoting_round_trip(self, tmp_path):
        dataset = tricky_dataset()
        path = tmp_path / "tricky.csv"
        cb.save_dataset(dataset, str(path))
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names == dataset.task_names
        assert loaded.worker_names == dataset.worker_names
        np.testing.assert_array_equal(loaded.graph.edges, dataset.graph.edges)
        np.testing.assert_array_equal(loaded.answers.answers, dataset.answers.answers)
        np.testing.assert_array_equal(loaded.truth_labels, dataset.truth_labels)
        np.testing.assert_array_equal(loaded.reliabilities, dataset.reliabilities)

    @pytest.mark.parametrize("tasks, workers, refused", [
        (("#c", "d"), ("w",), ("task", "#c")),
        (("a", "b\nc"), ("w",), ("task", "b\nc")),
        ((" e ", "f"), ("w",), ("task", " e ")),
        (("a", "b"), ("w\r",), ("worker", "w\r")),
        (("a", "a"), ("w",), ("task", "a")),
        (("a", "b"), ("w\u2028",), ("worker", "w\u2028")),
    ])
    def test_names_that_cannot_round_trip_are_refused(self, tmp_path, tasks, workers,
                                                      refused):
        dataset = cb.Dataset(
            graph=cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]])),
            answers=cb.AnswerMatrix(np.array([1, -1])),
            task_names=tasks, worker_names=workers)
        what, name = refused
        path = tmp_path / "names.csv"
        with pytest.raises(cb.ParameterError, match="^" + re.escape(f"{what} name {name!r} ")):
            cb.save_dataset(dataset, str(path))
        assert not path.exists()

    def test_names_that_only_look_like_comments_round_trip(self, tmp_path):
        dataset = cb.Dataset(
            graph=cb.AssignmentGraph(3, 2, np.array([[0, 0], [1, 0], [2, 1]])),
            answers=cb.AnswerMatrix(np.array([1, -1, 1])),
            task_names=("#a,b", 'say "#"', "c#"), worker_names=("#w", "a\x1cb"))
        path = tmp_path / "hash.csv"
        cb.save_dataset(dataset, str(path))
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names == dataset.task_names
        assert loaded.worker_names == dataset.worker_names

    def test_infer_quotes_task_names_like_csv_writer(self, tmp_path):
        path, out = tmp_path / "tricky.csv", tmp_path / "labels.csv"
        cb.save_dataset(tricky_dataset(), str(path))
        assert main(["infer", "--data", str(path), "--estimator", "mv", "--out", str(out)]) == 0
        report = cb.majority_vote(tricky_dataset().graph, tricky_dataset().answers)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("task", "label", "margin"))
        for name, label, margin in zip(tricky_dataset().task_names, report.labels,
                                       report.margins):
            writer.writerow((name, f"{label:+d}", repr(float(margin))))
        assert out.read_text() == expected.getvalue()


def test_cli_child_processes_match_in_process_majority_vote(tmp_path):
    """``python -m crowdbp`` simulate then infer, checked bitwise in process."""
    n, l, r, seed = 5000, 10, 5, 13
    data, labels = tmp_path / "answers.csv", tmp_path / "labels.csv"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cb.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (["simulate", "--n", str(n), "--l", str(l), "--r", str(r), "--prior", "sh",
                  "--seed", str(seed), "--out", str(data)],
                 ["infer", "--data", str(data), "--estimator", "mv", "--out", str(labels)]):
        subprocess.run([sys.executable, "-m", "crowdbp", *argv], env=env, check=True,
                       capture_output=True, timeout=300)

    graph = cb.generate_regular_bipartite(n, l, r, cb.child_seed(seed, "graph"))
    truth = cb.sample_ground_truth(graph, cb.parse_prior_spec("sh"), cb.child_seed(seed, "truth"))
    answers = cb.sample_answers(graph, truth, cb.child_seed(seed, "answers"))
    expected = cb.majority_vote(graph, answers)

    rows = list(csv.reader(io.StringIO(labels.read_text())))
    assert rows[0] == ["task", "label", "margin"]
    ids = np.array([int(row[0]) for row in rows[1:]])
    assert np.array_equal(np.sort(ids), np.arange(n))
    np.testing.assert_array_equal(np.array([int(row[1]) for row in rows[1:]]),
                                  expected.labels[ids])
    margins = np.array([float(row[2]) for row in rows[1:]])
    assert margins.tobytes() == expected.margins[ids].tobytes()
