"""The bulk dataset CSV reader and writers against their per-line references."""
import csv
import dataclasses
import hashlib
import io
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import crowdbp as cb
from crowdbp import graph as graph_module
from crowdbp import harness
from crowdbp.cli import main
from tests.csv_reference import load_dataset_per_line, save_dataset_per_row
from tests.memory import traced_peak

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
    # str.strip's whitespace: ASCII spaces, controls and separators, and
    # multi-byte characters such as NO-BREAK SPACE and LINE SEPARATOR, which
    # end no line of a file.
    pads = ["", "", "", " ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\u00a0", "\u3000", "\u2028"]
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

    @pytest.mark.parametrize("block", [40, 301])
    def test_crlf_across_a_read_boundary(self, tmp_path, monkeypatch, block):
        # The text is read a quarter block at a time.  The fourth read ends
        # in line 2's "\r", and the fifth starts with its "\n": one line
        # end, though the first chunk is cut after line 1 at that read.
        monkeypatch.setattr(harness, "_READ_BLOCK", block)
        read = -(-block // 4)
        second = "b," + "w" * (4 * read - 14) + ",+1"
        path = tmp_path / "straddle.csv"
        path.write_bytes(f"a,w,+1\r\n{second}\r\nc,w,+1\r\n\rd,w,maybe\r\n".encode())
        assert path.read_bytes()[4 * read - 1:4 * read + 1] == b"\r\n"
        assert_same_outcome(path)
        with pytest.raises(cb.DataFormatError, match="^line 5: bad answer 'maybe'"):
            cb.load_dataset(str(path))

    @pytest.mark.parametrize("block", [40, 301])
    def test_lines_longer_than_a_read_block(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(harness, "_READ_BLOCK", block)
        long = "n" * (3 * block)
        lines = ["a,w,+1", f"{long},w,-1", f'"{long},x",v,+1', f"# {long}",
                 f" \u3000{long}\u00a0 ,u,+1", " " * block + "c,w,+1" + "\t" * block,
                 "\x0c" * (2 * block), "b,w,+1", f"{long},v,maybe"]
        path = tmp_path / "long.csv"
        path.write_bytes("\r\n".join(lines).encode())
        assert_same_outcome(path)
        with pytest.raises(cb.DataFormatError, match="^line 9: bad answer 'maybe'"):
            cb.load_dataset(str(path))

    @pytest.mark.parametrize("block", [harness._READ_BLOCK, 40])
    def test_open_edges_before_every_line_kind(self, tmp_path, monkeypatch, block):
        # Runs the byte trim takes whole and one byte longer, and multi-byte
        # whitespace, in front of a comment, a directive, a quoted first
        # field and a whitespace-only line.
        monkeypatch.setattr(harness, "_READ_BLOCK", block)
        pads = [" " * harness._TRIM_STEPS, " " * (harness._TRIM_STEPS + 1), "\u3000", "\u00a0"]
        lines = ["a,w,+1"]
        for i, pad in enumerate(pads):
            lines += [f"{pad}# note {i}", f"{pad}# alphabet=01", f'{pad}"t,{i}",w,1',
                      f"{pad} \t", f"b{i},w,0", f"{pad}#  alphabet=pm1", f"c{i},w,-1"]
        path = tmp_path / "open.csv"
        path.write_text("\n".join(lines) + "\n")
        assert_same_outcome(path)
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names[:4] == ("a", "t,0", "b0", "c0")
        assert loaded.answers.answers.tolist() == [1] + [1, -1, -1] * len(pads)
        for pad in pads:
            path.write_text("\n".join(lines + [f"{pad}# alphabet=spam", "d,w,+1"]) + "\n")
            assert_same_outcome(path)
            with pytest.raises(cb.DataFormatError, match=f"^line {len(lines) + 1}: unknown"):
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

    def test_unquoted_nul_lines_are_split_on_their_commas(self, tmp_path, monkeypatch):
        # A NUL needs no quoting, so only the line holding a quote goes to
        # the csv module; the others are plain lines, and every name, NULs
        # kept, matches the per-line reader's.
        path = tmp_path / "nul-plain.csv"
        path.write_text('a\x00,w,+1\nb,\x00v\x00,-1\n"c\x00",w,+1\na\x00,\x00,+1\n')
        split, seen = harness._csv_split, []
        monkeypatch.setattr(harness, "_csv_split",
                            lambda lines: seen.extend(lines) or split(lines))
        assert_same_outcome(path)
        assert seen == ['"c\x00",w,+1']

    def test_string_token_before_its_packed_twin_keeps_its_row(self, tmp_path):
        # Line 3's quoted "y" is keyed from the fields appended after the
        # block's lines, its plain twin on line 4 from the line itself, and
        # line 2's NUL makes "x\0" a numbered token; "y" keeps line 3's id.
        path = tmp_path / "twin.csv"
        path.write_text('b,u,+1\n"x\0",w,+1\n"y",v,-1\ny,u,+1\n')
        assert_same_outcome(path)
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names == ("b", "x\0", "y")
        assert loaded.graph.edges[:, 0].tolist() == [0, 1, 2, 2]

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
        peak, loaded = traced_peak(lambda: cb.load_dataset(str(path)))
        assert loaded.task_names[500] == name
        # A (rows x longest name) buffer would be 100 MB.
        assert peak < 5_000_000
        assert_same_outcome(path)

    def test_distinct_names_decode_without_an_object_per_name(self, tmp_path):
        # 200k distinct workers: a bytes object per name, joined afterwards,
        # peaked at 35.8 MB here; one byte pass over the key table at 29.6 MB
        # (NumPy 2.4).
        n = 200_000
        path = tmp_path / "distinct.csv"
        path.write_text("".join(f"t{i % 20_000},w{i},{'+1' if i % 2 else '-1'}\n"
                                for i in range(n)))
        peak, loaded = traced_peak(lambda: cb.load_dataset(str(path)))
        assert loaded.worker_names == tuple(f"w{i}" for i in range(n))
        assert peak < 32_000_000


class TestLineEdges:
    """The reader's byte-level line ends and stripping against text iteration
    and ``str.strip``."""

    # Whitespace of each kind, a run longer than the reader trims on the
    # bytes, and characters that share a first or last UTF-8 byte with
    # multi-byte whitespace.
    PIECES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u1680", "\u2000",
              "\u200a", "\u2028", "\u2029", "\u202f", "\u205f", "\u3000",
              " " * (harness._TRIM_STEPS + 1), "a", ",", "ü", "\x80", "\u1681", "\u2010",
              "\u200b", "\u2f80", "\u3042", "\u3080", "€", "\U0001f600"]

    def test_multi_byte_whitespace_is_str_strips(self):
        wide = [c for c in map(chr, range(0x80, 0x110000)) if c.isspace()]
        assert "".join(wide) == harness._WIDE_SPACES

    def test_line_bounds_match_str_strip(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            lines = ["".join(rng.choice(self.PIECES, size=int(rng.integers(0, 6))))
                     for _ in range(int(rng.integers(1, 30)))]
            text = "".join(line + str(end)
                           for line, end in zip(lines, rng.choice(LINE_ENDS, size=len(lines))))
            if rng.random() < 0.3:  # a last line without a line end
                text = text.rstrip("\r\n")
            data = text.encode()
            raw, words = harness._bytes_and_words(data)
            starts, stops = harness._line_bounds(data, raw)
            open_edge = harness._strip_lines(raw, words, starts, stops)
            got = [data[start:stop].decode() for start, stop in zip(starts, stops)]
            want = [line.strip() for line in io.StringIO(text, newline="")]
            # The trim only ever takes whitespace; str.strip finishes each
            # line it flags, and only those.
            assert [line.strip() for line in got] == want
            assert open_edge.tolist() == [a != b for a, b in zip(got, want)]


class TestReaderWork:
    @pytest.mark.parametrize("n_cols, task", [
        (3, lambda i: f'"t,{i}"' if i % 2 else f"t{i}"),
        (5, lambda i: f"t{i}\0" if i % 2 else f"t{i}"),
        (4, lambda i: ("\u3000" if i % 4 == 1 else " " * (harness._TRIM_STEPS + 1)) + f"t{i}"
         if i % 2 else f"t{i}"),
    ], ids=["quoted", "nul", "padded"])
    def test_interleaved_line_kinds_cost_one_span_table_per_block(
            self, tmp_path, monkeypatch, n_cols, task):
        rows = [",".join([task(i), f"w{i % 7}", "+1", "-1", "0.5"][:n_cols])
                for i in range(4000)]
        path = tmp_path / "alternating.csv"
        path.write_text("\n".join(rows) + "\n")
        with open(path, newline="") as handle:
            blocks = sum(1 for _ in harness._line_chunks(handle))
        calls = []
        add_spans = harness._Column.add_spans
        monkeypatch.setattr(harness._Column, "add_spans",
                            lambda column, *args: calls.append(1) or add_spans(column, *args))
        assert_same_outcome(path)
        assert len(calls) == n_cols * blocks

    def test_valid_file_searches_its_pair_keys_once(self, tmp_path, pair_key_searches):
        path = tmp_path / "pairs.csv"
        path.write_text("a,w,+1\nb,w,-1\na,v,+1\n")
        assert cb.load_dataset(str(path)).graph.n_edges == 3
        assert len(pair_key_searches) == 1

    @pytest.mark.parametrize("content, message", [
        ("a,w,+1\nb,w,-1\na,w,+1\nc,w,maybe\n",
         "line 3: duplicate answer for task 'a', worker 'w'"),
        ("a,w,+1\nb,w,maybe\na,w,+1\n", "line 2: bad answer 'maybe'"),
    ], ids=["duplicate-first", "answer-first"])
    def test_repeated_pair_file_searches_its_pair_keys_once(self, tmp_path, pair_key_searches,
                                                            content, message):
        # The constructor's refusal names the repeated rows, so the reader
        # keeps no search of its own.
        assert not hasattr(harness, "repeated_pairs")
        path = tmp_path / "pairs.csv"
        path.write_text(content)
        with pytest.raises(cb.DataFormatError, match=f"^{re.escape(message)}"):
            cb.load_dataset(str(path))
        assert len(pair_key_searches) == 1

    def test_pair_key_overflow_stays_a_size_error(self, tmp_path, monkeypatch):
        def refuse(n_tasks, n_workers):
            raise cb.SizeError("pairs do not fit int64 keys")

        monkeypatch.setattr(graph_module, "_check_pair_keys", refuse)
        path = tmp_path / "pairs.csv"
        path.write_text("a,w,+1\nb,w,-1\n")
        with pytest.raises(cb.SizeError):
            cb.load_dataset(str(path))


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

    def test_unencodable_names_are_refused_before_the_file_is_opened(self, tmp_path):
        graph = cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]]))
        answers = cb.AnswerMatrix(np.array([1, -1]))
        path = tmp_path / "names.csv"
        cb.save_dataset(cb.Dataset(graph=graph, answers=answers), str(path))
        before = path.read_bytes()
        for tasks, workers, refused in [(("a", "b\udce9"), ("w",), "task name 'b\\udce9' "),
                                        (("a", "b"), ("\ud800",), "worker name '\\ud800' ")]:
            dataset = cb.Dataset(graph=graph, answers=answers,
                                 task_names=tasks, worker_names=workers)
            with pytest.raises(cb.ParameterError, match="^" + re.escape(refused)):
                cb.save_dataset(dataset, str(path))
            assert path.read_bytes() == before

    @pytest.mark.parametrize("truth", [[1, 0], [2, 1], [-1, -2]])
    def test_truth_labels_other_than_signs_are_refused(self, tmp_path, truth):
        path = tmp_path / "truth.csv"
        with pytest.raises(cb.ParameterError, match="truth labels must be -1 or \\+1"):
            cb.save_dataset(cb.Dataset(graph=cb.AssignmentGraph(2, 1, np.array([[0, 0], [1, 0]])),
                                       answers=cb.AnswerMatrix(np.array([1, -1])),
                                       truth_labels=np.array(truth)), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("columns, message", [
        (dict(truth_labels=[1]), "truth labels must hold one value per task"),
        (dict(truth_labels=[1, -1, 1]), "truth labels must hold one value per task"),
        (dict(truth_labels=[1, -1], reliabilities=[0.5]),
         "reliabilities must hold one value per worker"),
        (dict(truth_labels=[1, -1], reliabilities=[0.5, 0.9, 0.9]),
         "reliabilities must hold one value per worker"),
        (dict(reliabilities=[0.5, 0.9]), "reliabilities need truth labels"),
        (dict(truth_labels=[1, -1], reliabilities=[0.5, 1.7]), "reliabilities must lie in"),
        (dict(truth_labels=[1, -1], reliabilities=[np.nan, 0.5]), "reliabilities must lie in"),
        (dict(task_names=("a",)), "task names must hold one value per task"),
        (dict(worker_names=("v", "w", "x")), "worker names must hold one value per worker"),
        (dict(answers=cb.AnswerMatrix(np.array([1, -1]))), "answers must hold one value per edge"),
    ], ids=["short-truth", "long-truth", "short-reliabilities", "long-reliabilities",
            "reliabilities-without-truth", "reliability-above-1", "nan-reliability",
            "short-task-names", "long-worker-names", "short-answers"])
    def test_malformed_columns_are_refused_before_the_file_is_opened(self, tmp_path,
                                                                     columns, message):
        # Each used to fail with an IndexError or ValueError after the file
        # was opened, which kept its header, or to write a file that drops
        # values or that load_dataset refuses.  The Dataset refuses all but
        # reliabilities without truth labels when it is built.
        dataset = cb.Dataset(graph=cb.AssignmentGraph(2, 2, np.array([[0, 0], [1, 0], [1, 1]])),
                             answers=cb.AnswerMatrix(np.array([1, -1, 1])))
        path = tmp_path / "columns.csv"
        with pytest.raises(cb.ParameterError, match=re.escape(message)):
            cb.save_dataset(dataclasses.replace(dataset, **columns), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("names", [("a",), ("a", "b", "c")])
    def test_estimates_with_a_name_per_task_or_none(self, names):
        # Too few names used to write the header and then raise an
        # IndexError; too many were dropped without a word.
        report = cb.EstimateReport(np.array([1, -1]), np.array([0.5, -0.5]), 1, True, 0.0)
        out = io.StringIO()
        with pytest.raises(cb.ParameterError, match="task names must hold one value per task"):
            harness.write_estimates(out, report, names)
        assert out.getvalue() == ""

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


class TestByteOrderMark:
    """A UTF-8 byte-order mark (Excel's "CSV UTF-8" writes one) is not text."""

    def test_mark_before_a_directive(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf# alphabet=pm1\nt0,w0,+1\nt1,w0,-1\n")
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names == ("t0", "t1")
        assert loaded.answers.answers.tolist() == [1, -1]
        assert_same_outcome(path)

    def test_mark_before_the_first_row_names_no_task(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbft0,w0,1\n# alphabet=01\nt1,w0,0\n")
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names == ("t0", "t1")
        assert loaded.answers.answers.tolist() == [1, -1]
        assert_same_outcome(path)

    @pytest.mark.parametrize("content, names, line", [
        # only one mark, and only at the very start of the file
        (b"\xef\xbb\xbf\xef\xbb\xbft0,w0,+1\n", ("\ufefft0",), None),
        (b"t0,w0,+1\n\xef\xbb\xbft1,w0,+1\n", ("t0", "\ufefft1"), None),
        (b"\xef\xbb\xbf\n\nt0,w0,+1\nt0,w0,-1\n", None, 4),
        (b"\xef\xbb\xbf", None, None),
    ])
    def test_only_the_leading_mark_is_dropped(self, tmp_path, content, names, line):
        path = tmp_path / "bom.csv"
        path.write_bytes(content)
        assert_same_outcome(path)
        if names is not None:
            assert cb.load_dataset(str(path)).task_names == names
        elif line is not None:
            with pytest.raises(cb.DataFormatError, match=f"^line {line}: duplicate"):
                cb.load_dataset(str(path))
        else:
            with pytest.raises(cb.DataFormatError, match="no answer rows found"):
                cb.load_dataset(str(path))

    def test_mark_with_a_small_read_block(self, tmp_path, monkeypatch):
        # Every line is a block of its own: only the first block's mark goes.
        monkeypatch.setattr(harness, "_READ_BLOCK", 8)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf# alphabet=01\n" + b"".join(
            b"t%d,w%d,%d\n" % (i, i % 3, i % 2) for i in range(40)) + b"\xef\xbb\xbfx,w0,1\n")
        assert cb.load_dataset(str(path)).task_names[:2] == ("t0", "t1")
        assert cb.load_dataset(str(path)).task_names[-1] == "\ufeffx"
        assert_same_outcome(path)


class TestRunningTokenTable:
    """Ids are given block by block; the numbering must not depend on the blocks."""

    @pytest.mark.parametrize("block", [64, 997])
    @pytest.mark.parametrize("lead", ["folded", "first word"])
    def test_keys_that_widen_and_ids_that_outgrow_a_byte(self, tmp_path, monkeypatch, block,
                                                         lead):
        monkeypatch.setattr(harness, "_READ_BLOCK", block)
        if lead == "first word":  # many keys share a lead word: the whole keys decide
            monkeypatch.setattr(harness, "_MIX", np.array([1, 0, 0, 0], dtype=np.uint64))
        rng = np.random.default_rng(block)
        # Worker names of 1, 2 and 3 key words, numbered ones (over 32 bytes)
        # and NUL-holding ones arrive in that order, then all of them again,
        # so that the table widens between blocks and narrow blocks follow
        # wide ones.  More than 256 tasks make the task ids outgrow a byte.
        short = [f"w{i}" for i in range(12)]
        mid = [f"worker-{i:04d}" for i in range(12)]
        wide = [f"worker-name-{i:010d}-x" for i in range(12)]
        numbered = [f"worker-{'z' * 30}-{i}" for i in range(6)] + ["w\0", "w\0\0"]
        # First words rising while second words fall: the order of the words matters.
        twisted = [chr(97 + i) * 8 + chr(90 - i) for i in range(12)]
        order = short + mid + twisted + wide + numbered
        again = [order[i] for i in rng.permutation(7 * len(order)) % len(order)]
        rows = [f't{i},"{worker}",+1' if "\0" in worker else f"t{i},{worker},-1"
                for i, worker in enumerate(order + again)]
        path = tmp_path / "widen.csv"
        path.write_text("\n".join(rows) + "\n")
        assert_same_outcome(path)
        loaded = cb.load_dataset(str(path))
        assert loaded.worker_names == tuple(order)
        assert len(loaded.task_names) == 8 * len(order)

    def test_widening_keeps_the_keys_already_in_the_table(self, tmp_path, monkeypatch):
        # One-word keys sort as little-endian numbers, so "w2" comes before
        # "w10", though its bytes come after; a longer name that widens the
        # table must leave both where later blocks look for them.
        monkeypatch.setattr(harness, "_READ_BLOCK", 16)
        workers = ["w2", "w10", "w9", "w100", "w3", "worker-with-a-long-name"]
        path = tmp_path / "widen.csv"
        path.write_text("".join(f"t{i},{workers[i % 6]},+1\n" for i in range(24)))
        loaded = cb.load_dataset(str(path))
        assert loaded.worker_names == tuple(workers)
        assert_same_outcome(path)

    @pytest.mark.parametrize("block", [harness._READ_BLOCK, 24])
    def test_names_at_key_word_edges(self, tmp_path, monkeypatch, block):
        # Names of each length around the 8-byte key words and the 32-byte
        # packed limit, characters split across a word edge and a NUL, in
        # order of length, so that small blocks widen the table as they go.
        monkeypatch.setattr(harness, "_READ_BLOCK", block)
        names = ["n" * k for k in (0, 7, 8, 9, 16, 17, 31, 32, 33)]
        names += ["abcdef€", "abcdefgé", "x" * 13 + "\U0001f600", "y" * 22 + "€",
                  "a\0b"]
        names.sort(key=lambda name: len(name.encode()))
        rows = [f"{name},{name},+1" for name in names]
        rows += [f"{name},{names[0]},-1" for name in names[1:]]
        path = tmp_path / "edges.csv"
        path.write_text("\n".join(rows) + "\n")
        assert_same_outcome(path)
        loaded = cb.load_dataset(str(path))
        assert loaded.task_names == loaded.worker_names == tuple(names)

    def test_blocks_split_a_run_of_first_appearances(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_READ_BLOCK", 50)
        names = [f"n{i}" for i in range(40)]
        rows = [f"{names[i // 2]},{names[(7 * i) % 40]},+1,+1,0.5" for i in range(80)]
        path = tmp_path / "runs.csv"
        path.write_text("\n".join(rows) + "\n")
        assert_same_outcome(path)

    def test_more_than_65536_distinct_tasks(self, tmp_path):
        n = 70_000
        path = tmp_path / "many.csv"
        path.write_text("".join(f"task-{(i * 7919) % n},w{i % 13},+1\n" for i in range(n)))
        loaded = cb.load_dataset(str(path))
        assert len(loaded.task_names) == n
        assert loaded.task_names[:3] == ("task-0", "task-7919", "task-15838")
        np.testing.assert_array_equal(loaded.graph.edges[:, 0], np.arange(n))
        assert loaded.graph.edges.dtype == np.int64

