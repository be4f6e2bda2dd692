"""Experiment harness: error metrics, dataset files, degree subsampling,
and seeded benchmark sweeps with CSV output.

Benchmark results are deterministic for a given config and master seed:
every (sweep point, trial, stage) derives its own child seed and results
are aggregated positionally, so the trial process count never changes the
output.
"""
from __future__ import annotations

import bisect
import csv
import io
import json
import math
import operator
import os
import time
import typing
from dataclasses import MISSING, dataclass, fields
from itertools import chain, count, filterfalse

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bp import _K_MAX, _TOL, EstimateReport
from .errors import (CrowdBPError, DataFormatError, ParameterError, SizeError, check_count,
                     check_signs)
from .estimators import EstimatorSpec
from .graph import (AnswerMatrix, AssignmentGraph, GroundTruth, _regular_shape, draw_instance,
                    repeated_pairs)
from .priors import ReliabilityPrior, empirical_prior, parse_prior_spec
from .seeding import child_seed, rng_from
from .theory import theoretical_bounds, theory_iterations, tree_probability_bound


def error_rate(estimate: EstimateReport | np.ndarray, truth_labels: np.ndarray) -> float:
    """Fraction of decoded labels disagreeing with the truth."""
    labels = estimate.labels if isinstance(estimate, EstimateReport) else np.asarray(estimate)
    truth_labels = np.asarray(truth_labels)
    if labels.shape != truth_labels.shape:
        raise ParameterError("label vectors have mismatched lengths")
    if labels.size == 0:
        raise ParameterError("cannot score an empty label vector")
    return float(np.mean(labels != truth_labels))


# ---------------------------------------------------------------------------
# dataset files

@dataclass(frozen=True)
class Dataset:
    """An assignment graph with answers and optional truth metadata.

    ``task_names``/``worker_names`` map compact integer ids back to the
    identifiers used in the source file.
    """

    graph: AssignmentGraph
    answers: AnswerMatrix
    truth_labels: np.ndarray | None = None
    reliabilities: np.ndarray | None = None
    task_names: tuple[str, ...] = ()
    worker_names: tuple[str, ...] = ()


_ALPHABETS = {
    "pm1": {"+1": 1, "1": 1, "-1": -1},
    "01": {"1": 1, "0": -1},
}
_ALPHABET_NAMES = tuple(_ALPHABETS)
# The text the writers give each ±1 value, indexed by the value: -1 picks the last.
_SIGNS = np.array(["", "+1", "-1"], dtype=object)

# Characters read per block of lines; rows per block of the writers and of
# the reader's row checks.
_READ_BLOCK = 1 << 20
_ROW_BLOCK = 1 << 16
# Tokens up to this many UTF-8 bytes are their own packed key; longer ones,
# and those holding a NUL, are numbered and keyed by the number.
_KEY_BYTES = 32
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Line kinds: skipped, comment or directive, split by csv.reader, split on commas.
_BLANK, _COMMENT, _CSV, _PLAIN = range(4)


def _row_blocks(n_rows: int) -> list[slice]:
    """Slices of at most ``_ROW_BLOCK`` rows that cover ``range(n_rows)`` in order."""
    return [slice(lo, min(lo + _ROW_BLOCK, n_rows)) for lo in range(0, n_rows, _ROW_BLOCK)]


# Odd multipliers, one per key word, that fold a key's words into its lead word.
_MIX = np.array([1, 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], dtype=np.uint64)


def _lead(keys: np.ndarray) -> np.ndarray:
    """Each key's lead word: a one-word key itself, a longer key's words
    folded into one.  A zero word adds nothing, so padding keeps a lead."""
    lead = keys[:, 0].copy()
    for j in range(1, keys.shape[1]):
        lead ^= keys[:, j] * _MIX[j]
    return lead


def _sortable(keys: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """Each key as one value that sorts by its lead word, then by its words
    in turn: a one-word key itself, or a longer key's lead and words stored
    big-endian as one void value, which compares by memcmp."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    both = np.column_stack((lead, keys)).byteswap()
    return both.view(f"V{both.itemsize * both.shape[1]}").ravel()


def _leads(values: np.ndarray) -> np.ndarray:
    """The lead word of each ``_sortable`` value."""
    if values.dtype == np.uint64:
        return values
    return values.view(">u8")[::values.itemsize // 8].astype(np.uint64)


def _key_words(values: np.ndarray) -> np.ndarray:
    """The (rows, words) key words of ``_sortable`` values."""
    if values.dtype == np.uint64:
        return values[:, None]
    both = values.view(">u8").reshape(values.size, values.itemsize // 8)
    return both[:, 1:].astype(np.uint64, order="C")


class _Column:
    """The tokens of one CSV column, turned into ids as each block arrives.

    A token's key depends on its text alone.  A NUL-free token of up to
    ``_KEY_BYTES`` bytes is its own NUL-padded bytes.  Any other token is
    numbered in ``numbers`` and keyed by the byte 0xFF, which UTF-8 text
    never holds, followed by its number.  ``table`` holds the distinct keys
    seen so far, sorted.  Each block's keys are sorted once and looked up
    in it; those it lacks are merged in and take the next ids in order of
    first appearance.  A row keeps only its id, in the narrowest unsigned
    type that holds the ids so far, so a column of a few distinct tokens
    costs a byte per row.
    """

    def __init__(self) -> None:
        self.table = np.empty(0, dtype=np.uint64)    # distinct keys as ``_sortable`` values, sorted
        self.table_ids = np.empty(0, dtype=np.int64)  # the id of each key in ``table``
        self.ids: list[np.ndarray] = []          # per block, each row's id
        self.first_rows: list[np.ndarray] = []   # per block, the row where each new id appears
        self.n_rows = 0
        self.numbers: dict[bytes, int] = {}    # UTF-8 of the numbered tokens, in arrival order

    def add_spans(self, data: bytes, words: np.ndarray, starts: np.ndarray,
                  stops: np.ndarray) -> None:
        """Take the tokens ``data[starts[i]:stops[i]]`` of the next rows.

        ``words[i]`` holds the 8 bytes of ``data`` from offset ``i``.
        """
        lengths = stops - starts
        numbered = lengths > _KEY_BYTES
        if b"\0" in data:  # a NUL would read as key padding
            nuls = np.flatnonzero(np.frombuffer(data, np.uint8) == 0)
            numbered |= np.searchsorted(nuls, stops) > np.searchsorted(nuls, starts)
        lengths[numbered] = 0
        n_words = max(1, -(-int(lengths.max(initial=0)) // 8))
        keys = np.empty((starts.size, n_words), dtype="<u8")
        for k in range(n_words):
            keys[:, k] = words[starts + 8 * k] & _LOW_BYTES[np.clip(lengths - 8 * k, 0, 8)]
        rows = np.flatnonzero(numbered)
        if rows.size:
            tokens = list(map(data.__getitem__, map(slice, starts[rows].tolist(),
                                                    stops[rows].tolist())))
            fresh = dict.fromkeys(filterfalse(self.numbers.__contains__, tokens))
            self.numbers.update(zip(fresh, count(len(self.numbers))))
            keys[rows, 0] = np.fromiter(map(self.numbers.__getitem__, tokens), np.uint64,
                                        rows.size) << 8 | 0xFF
        self._add_keys(keys)

    def _add_keys(self, keys: np.ndarray) -> None:
        """Give the rows of ``keys`` (rows, words) their ids."""
        table = self.table
        width = 1 if table.dtype == np.uint64 else table.itemsize // 8 - 1
        if keys.shape[1] > width:  # a wider key: pad the table, in the same order
            words = np.pad(_key_words(table), ((0, 0), (0, keys.shape[1] - width)))
            table = self.table = _sortable(words, _leads(table))
        elif keys.shape[1] < width:
            keys = np.pad(keys, ((0, 0), (0, width - keys.shape[1])))
        lead = _lead(keys)
        flat = _sortable(keys, lead)
        order = np.argsort(lead)
        ordered = flat[order]
        head = np.ones(order.size, dtype=bool)
        head[1:] = ordered[1:] != ordered[:-1]
        if keys.shape[1] > 1 and (head[1:] & (lead[order[1:]] == lead[order[:-1]])).any():
            order = np.argsort(flat)  # two keys share a lead: sort by the whole keys
            ordered = flat[order]
            head[1:] = ordered[1:] != ordered[:-1]
        heads = np.flatnonzero(head)
        distinct, distinct_lead = ordered[heads], lead[order[heads]]
        table_lead = _leads(table)
        at = np.searchsorted(table_lead, distinct_lead)
        known = at < table.size
        known[known] = table[at[known]] == distinct[known]
        # A lead that the table holds for another key: search by the whole key.
        shared = np.flatnonzero(~known & (at < table.size))
        shared = shared[table_lead[at[shared]] == distinct_lead[shared]]
        if shared.size:
            at[shared] = np.searchsorted(table, distinct[shared])
            found = shared[at[shared] < table.size]
            known[found] = table[at[found]] == distinct[found]
        ids = np.empty(distinct.size, dtype=np.int64)
        ids[known] = self.table_ids[at[known]]
        new = np.flatnonzero(~known)
        first = np.minimum.reduceat(order, heads)[new]
        fresh = np.zeros(order.size, dtype=bool)
        fresh[first] = True
        n = self.table_ids.size + new.size
        ids[new] = self.table_ids.size - 1 + np.cumsum(fresh)[first]
        row_ids = np.empty(order.size, dtype=np.min_scalar_type(n - 1))
        row_ids[order] = np.repeat(ids, np.diff(heads, append=order.size))
        if new.size:  # merge the new keys into the table
            self.table = np.insert(self.table, at[new], distinct[new])
            self.table_ids = np.insert(self.table_ids, at[new], ids[new])
        self.ids.append(row_ids)
        self.first_rows.append(self.n_rows + np.flatnonzero(fresh))
        self.n_rows += order.size

    def tokens(self) -> list[str]:
        """The distinct tokens in id order, that is, in order of first
        appearance; the column gives up its table."""
        keys = _key_words(self.table[np.argsort(self.table_ids)])
        self.table = self.table_ids = None
        return self._decode(keys)

    def row_ids(self, out: np.ndarray | None = None) -> np.ndarray:
        """Each row's id, in ``out`` if given; the column gives up its
        blocks one at a time."""
        if out is None:
            out = np.empty(self.n_rows, dtype=self.ids[-1].dtype)
        lo = 0
        while self.ids:
            block = self.ids.pop(0)
            out[lo:lo + block.size] = block
            lo += block.size
        return out

    def _decode(self, keys: np.ndarray) -> list[str]:
        """The token of each key; tokens hold no newline, so one decode
        covers the packed ones."""
        numbered = np.flatnonzero(keys[:, 0] & 0xFF == 0xFF)
        numbers = (keys[numbered, 0] >> 8).tolist()
        keys[numbered] = 0  # decoded as empty text, then replaced
        packed = keys.view(f"S{8 * keys.shape[1]}").ravel().tolist()
        tokens = b"\n".join(packed).decode("utf-8", "surrogatepass").split("\n")
        texts = list(self.numbers)
        for i, number in zip(numbered.tolist(), numbers):
            tokens[i] = texts[number].decode("utf-8", "surrogatepass")
        return tokens


def _strip_names(column: _Column) -> tuple[tuple[str, ...], np.ndarray | None, np.ndarray]:
    """Strip each distinct token of ``column`` once and number the names in
    first-appearance order.  Returns the names, each token's name id (None
    when stripping changed no token) and the row where each name first
    appears."""
    tokens = column.tokens()
    first_rows = np.concatenate(column.first_rows)
    column.first_rows.clear()
    stripped = list(map(str.strip, tokens))
    if all(map(operator.is_, stripped, tokens)):
        return tuple(tokens), None, first_rows
    names = dict.fromkeys(stripped)
    index = dict(zip(names, range(len(names))))
    remap = np.fromiter(map(index.__getitem__, stripped), np.int64, len(stripped))
    return tuple(names), remap, first_rows[_first_rows(remap)]


def _bytes_and_words(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``data`` as bytes, and as the 8-byte little-endian words starting at
    each offset (an unaligned view).  Zero padding lets a key read run up
    to ``_KEY_BYTES`` past the end."""
    padded = data + bytes(_KEY_BYTES + -len(data) % 8)
    words = as_strided(np.frombuffer(padded, "<u8"), (len(padded) - 7,), (1,))
    return np.frombuffer(padded, np.uint8), words


def _csv_split(lines: list[str]) -> tuple[list[list[str]], csv.Error | None]:
    """Each line split by its own ``csv.reader``; stops at a csv error."""
    try:
        rows = list(csv.reader(lines))
        if len(rows) == len(lines):  # no quoted field ran on into the next line
            return rows, None
    except csv.Error:
        pass
    rows = []
    for line in lines:
        try:
            rows.append(next(csv.reader([line])))
        except csv.Error as exc:
            return rows, exc
    return rows, None


def _undecodable_line(data: bytes) -> int | None:
    """Index of the first line of ``data`` that held an undecodable byte.

    The file is read with ``errors="surrogateescape"``, which turns each
    such byte into a lone surrogate; decoded text never holds one, and in
    UTF-8 (with ``surrogatepass``) a surrogate is the lead byte 0xED
    followed by a byte of at least 0xA0.
    """
    at = data.find(b"\xed")
    if at < 0:
        return None
    raw = np.frombuffer(data, np.uint8)[at:]
    hits = np.flatnonzero((raw[:-1] == 0xED) & (raw[1:] >= 0xA0))
    if not hits.size:
        return None
    return data.count(b"\n", 0, at + int(hits[0]))


def _first_rows(ids: np.ndarray) -> np.ndarray:
    """Row of each id's first appearance, for ids numbered in that order."""
    return np.flatnonzero(np.diff(np.maximum.accumulate(ids), prepend=-1))


class _EdgeCsvReader:
    """Bulk tokenizer and checker behind ``load_dataset``.

    Lines arrive in blocks, and each block is read in one pass.  A line
    holding ``"`` is split by ``csv.reader`` as if on its own, and
    its fields are appended to the block's UTF-8 bytes, each after a line
    break; the other lines are split on the commas that numpy finds in
    those bytes.  So every token is a span of one buffer, one span table
    per block gives each column one key array, and how quoted and plain
    lines interleave costs nothing.  Each column turns its keys into ids
    as the block arrives (see ``_Column``), so every distinct token is
    decoded and converted once, and a row keeps only its ids, its alphabet
    and its line.  A line that fails whatever follows it (unknown alphabet,
    csv error, wrong column count) ends the reading; the per-row checks
    then run as array operations over ``_ROW_BLOCK`` rows at a time, and
    the earliest failing line wins.
    """

    def __init__(self, encoding: str) -> None:
        self.encoding = encoding
        self.alphabet = 0
        self.n_cols: int | None = None
        self.n_rows = 0
        self.columns = [_Column() for _ in range(5)]
        # Per block: its first row, the number of its first line, and each
        # row's line within the block.
        self.lines: list[tuple[int, int, np.ndarray]] = []
        self.alphabets: list[np.ndarray] = []
        self.stop: DataFormatError | None = None

    def feed(self, block: list[str], line_no: int) -> bool:
        """Take the lines after ``line_no``; False once a line stopped the file."""
        # The stripped lines live only while they are joined.
        data = "\n".join(map(str.strip, block)).encode("utf-8", "surrogatepass")
        bad = _undecodable_line(data)
        if bad is not None:
            if self.feed(block[:bad], line_no):
                self.stop = DataFormatError(
                    f"line {line_no + 1 + bad}: not valid {self.encoding} text")
            return False
        raw, words = _bytes_and_words(data)
        stops = np.append(np.flatnonzero(raw == ord("\n")), len(data))
        starts = np.concatenate(([0], stops[:-1] + 1))
        commas = np.flatnonzero(raw == ord(","))
        quotes = np.flatnonzero(raw == ord('"'))
        kinds = np.select(
            [starts == stops, raw[starts] == ord("#"),
             (np.searchsorted(quotes, stops) > np.searchsorted(quotes, starts))
             | (stops - starts > csv.field_size_limit())],
            [_BLANK, _COMMENT, _CSV], _PLAIN)
        # Each check looks only at the lines before the earliest failure so far.
        end, set_at, set_to = len(block), [], [self.alphabet]
        for i in np.flatnonzero(kinds == _COMMENT).tolist():
            body = block[i].strip().lstrip("#").strip()
            if body.startswith("alphabet="):
                name = body[len("alphabet="):].strip()
                if name not in _ALPHABETS:
                    self.stop = DataFormatError(
                        f"line {line_no + 1 + i}: unknown alphabet {name!r}")
                    end = i
                    break
                set_at.append(i)
                set_to.append(_ALPHABET_NAMES.index(name))
        self.alphabet = set_to[-1]
        quoted = np.flatnonzero(kinds[:end] == _CSV)
        split, error = _csv_split([block[i].strip() for i in quoted.tolist()])
        if error is not None:
            end = int(quoted[len(split)])
            self.stop = DataFormatError(f"line {line_no + 1 + end}: {error}")
        rows = np.flatnonzero(kinds[:end] >= _CSV)
        first = np.searchsorted(commas, starts[rows])
        fields = np.searchsorted(commas, stops[rows]) - first + 1
        is_csv = kinds[rows] == _CSV
        fields[is_csv] = list(map(len, split))
        numbers = line_no + 1 + rows
        n = self._check_fields(fields, numbers)
        if not n:
            return self.stop is None
        rows, first, is_csv = rows[:n], first[:n], is_csv[:n]
        # Token j of row i lies strictly between bounds[j, i] and bounds[j + 1, i].
        bounds = np.empty((self.n_cols + 1, n), dtype=np.int64)
        bounds[0] = starts[rows] - 1
        for j in range(1, self.n_cols):
            np.take(commas, first + (j - 1), out=bounds[j], mode="clip")
        bounds[-1] = stops[rows]
        k = np.count_nonzero(is_csv)
        if k:
            tail = ("\n" + "\n".join(chain.from_iterable(split[:k]))).encode(
                "utf-8", "surrogatepass")
            breaks = np.append(np.flatnonzero(np.frombuffer(tail, np.uint8) == ord("\n")),
                               len(tail)) + len(data)
            bounds[:, is_csv] = breaks[np.arange(self.n_cols + 1)[:, None]
                                       + self.n_cols * np.arange(k)]
            data += tail
            words = _bytes_and_words(data)[1]
        for j in range(self.n_cols):
            self.columns[j].add_spans(data, words, bounds[j] + 1, bounds[j + 1])
        self.lines.append((self.n_rows, line_no + 1,
                           rows.astype(np.min_scalar_type(len(block)))))
        self.alphabets.append(np.array(set_to, dtype=np.int8)[np.searchsorted(set_at, rows)])
        self.n_rows += n
        return self.stop is None

    def _check_fields(self, fields: np.ndarray, numbers: np.ndarray) -> int:
        """How many of the rows on lines ``numbers`` have the file's column
        count; sets ``stop`` at the first that does not."""
        if not fields.size:
            return 0
        if self.n_cols is None:
            self.n_cols = int(fields[0])
            if self.n_cols not in (3, 4, 5):
                self.stop = DataFormatError(
                    f"line {numbers[0]}: expected 3-5 columns, got {self.n_cols}")
                return 0
        wrong = np.flatnonzero(fields != self.n_cols)
        if not wrong.size:
            return fields.size
        n = int(wrong[0])
        self.stop = DataFormatError(
            f"line {numbers[n]}: expected {self.n_cols} columns, got {fields[n]}")
        return n

    def dataset(self, path: str) -> Dataset:
        if not self.n_rows:
            raise self.stop or DataFormatError(f"{path}: no answer rows found")
        n = self.n_rows
        # The per-row arrays the Dataset keeps come first, so that the
        # allocator does not place them above the temporaries freed below.
        edges = np.empty((n, 2), dtype=np.int64)
        answers = np.empty(n, dtype=np.int64)
        self.columns[0].row_ids(edges[:, 0])
        self.columns[1].row_ids(edges[:, 1])
        task_names, task_of, task_rows = _strip_names(self.columns[0])
        worker_names, worker_of, worker_rows = _strip_names(self.columns[1])
        for j, remap in ((0, task_of), (1, worker_of)):
            if remap is not None:
                for rows in _row_blocks(n):
                    edges[rows, j] = remap[edges[rows, j]]
        tokens = {j: self.columns[j].tokens() for j in range(2, self.n_cols)}
        ids = {j: self.columns[j].row_ids() for j in range(2, self.n_cols)}
        alphabets = np.concatenate(self.alphabets)
        self.alphabets.clear()
        t, w = edges[:, 0], edges[:, 1]

        def values(j: int) -> np.ndarray:
            """Each alphabet's value of each distinct token of column ``j``; 0 if none."""
            return np.array([[table.get(token.strip(), 0) for token in tokens[j]]
                             for table in _ALPHABETS.values()], dtype=np.int64)

        def bad_label(j: int, what: str):
            return lambda e: (f"bad {what} {tokens[j][ids[j][e]]!r} "
                              f"for alphabet {_ALPHABET_NAMES[alphabets[e]]!r}")

        answer_values = values(2)
        for rows in _row_blocks(n):
            answers[rows] = answer_values[alphabets[rows], ids[2][rows]]
        # (test, message) per check, in the order one line runs them.  A test
        # flags the failing rows of a block of rows; per-row values exist
        # only a block at a time.
        checks = [(lambda rows: answers[rows] == 0, bad_label(2, "answer"))]
        truth_labels = reliabilities = None
        if self.n_cols >= 4:
            truth_values = values(3)
            truth_labels = truth_values[alphabets[task_rows], ids[3][task_rows]]

            def truth(rows: slice) -> np.ndarray:
                return truth_values[alphabets[rows], ids[3][rows]]

            checks += [
                (lambda rows: truth(rows) == 0, bad_label(3, "truth label")),
                (lambda rows: truth(rows) != truth_labels[t[rows]],
                 lambda e: f"conflicting truth for task {task_names[t[e]]!r}"),
            ]
        if self.n_cols == 5:
            numbers = np.full(len(tokens[4]), np.nan)
            parsed = np.ones(len(tokens[4]), dtype=bool)
            for i, token in enumerate(tokens[4]):
                try:
                    numbers[i] = float(token)
                except ValueError:
                    parsed[i] = False
            outside = parsed & ~((numbers >= 0.0) & (numbers <= 1.0))
            reliabilities = numbers[ids[4][worker_rows]]
            checks += [
                (lambda rows: ~parsed[ids[4][rows]],
                 lambda e: f"bad reliability {tokens[4][ids[4][e]]!r}"),
                (lambda rows: outside[ids[4][rows]],
                 lambda e: f"reliability {float(numbers[ids[4][e]])} outside [0, 1]"),
                (lambda rows: numbers[ids[4][rows]] != reliabilities[w[rows]],
                 lambda e: f"conflicting reliability for worker {worker_names[w[e]]!r}"),
            ]
        failed = _earliest_failure(checks, n)
        ids.clear()
        del alphabets
        # Built last, so that no per-row array but the Dataset's lies under
        # its pair-key sort.
        try:
            graph = AssignmentGraph(len(task_names), len(worker_names), edges)
        except SizeError:
            raise
        except ParameterError:  # a repeated (task, worker) pair: the first comes first
            e = int(repeated_pairs(t, w, len(task_names), len(worker_names))[0])
            if failed is None or e <= failed[0]:
                failed = (e, f"duplicate answer for task {task_names[t[e]]!r}, "
                             f"worker {worker_names[w[e]]!r}")
        if failed is not None:
            e, message = failed
            raise DataFormatError(f"line {self._line(e)}: {message}")
        if self.stop is not None:
            raise self.stop
        return Dataset(
            graph=graph,
            answers=AnswerMatrix(answers),
            truth_labels=truth_labels,
            reliabilities=reliabilities,
            task_names=task_names,
            worker_names=worker_names,
        )

    def _line(self, row: int) -> int:
        """The number of the line that holds answer row ``row``."""
        start, line_no, lines = self.lines[
            bisect.bisect_right(self.lines, row, key=operator.itemgetter(0)) - 1]
        return line_no + int(lines[row - start])


def _earliest_failure(checks, n_rows: int) -> tuple[int, str] | None:
    """The earliest of ``n_rows`` rows that fails one of ``checks``, with the
    message of the first check it fails; None if every row passes.

    ``checks`` holds (test, message) pairs: a test flags the failing rows of
    a slice of rows, and a message takes a row.
    """
    for rows in _row_blocks(n_rows):
        failures = []
        for test, message in checks:
            mask = test(rows)
            if mask.any():
                failures.append((rows.start + int(mask.argmax()), message))
        if failures:
            e, message = min(failures, key=operator.itemgetter(0))
            return e, message(e)
    return None


def load_dataset(path: str) -> Dataset:
    """Read an edge-list CSV: ``task,worker,answer[,truth[,reliability]]``.

    Comment lines start with ``#``; a ``# alphabet=pm1`` or ``# alphabet=01``
    directive selects the answer encoding (0 maps to -1) for the rows after
    it.  The optional fourth column carries the task's true label and the
    fifth the worker's reliability; repeated values must agree.  Ids are
    arbitrary strings and are compacted in order of first appearance.  The
    first malformed line is reported as ``line N: ...``; a line that is not
    valid text in the file's encoding or that ``csv.reader`` rejects is
    malformed too.  One U+FEFF at the very start of the file, a UTF-8
    byte-order mark, is dropped.
    """
    line_no = 0
    with open(path, newline="", errors="surrogateescape") as handle:
        reader = _EdgeCsvReader(handle.encoding)
        while block := handle.readlines(_READ_BLOCK):
            if not line_no and block[0].startswith("\ufeff"):
                block[0] = block[0][1:]
            if not reader.feed(block, line_no):
                break
            line_no += len(block)
    return reader.dataset(path)


def _csv_fields(texts) -> list[str]:
    """``texts`` spelled as csv.writer spells fields of a multi-field row."""
    texts = list(texts)
    joined = "".join(texts)
    if not any(c in joined for c in ',"\r\n'):
        return texts
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    spelled = []
    for text in texts:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((text, ""))
        spelled.append(buffer.getvalue()[:-2])
    return spelled


def _spelled(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float, as an object array in which equal values
    share one text: each distinct value is spelled once.  Values are told
    apart by bit pattern, so that ``-0.0`` keeps its own spelling."""
    values = np.asarray(values, dtype=np.float64)
    _, first, inverse = np.unique(values.view(np.uint64), return_index=True, return_inverse=True)
    return np.array(list(map(repr, values[first].tolist())), dtype=object)[inverse]


def _gathered(texts: np.ndarray, ids: np.ndarray):
    """The column whose field in row i is ``texts[ids[i]]``."""
    return lambda rows: texts[ids[rows]]


def _named(names: tuple[str, ...], ids: np.ndarray):
    """The column whose field in row i names ``ids[i]``: its name, quoted
    once as csv.writer quotes it, or without names the id itself, spelled
    a block at a time."""
    if not names:
        return lambda rows: list(map(str, ids[rows].tolist()))
    return _gathered(np.array(_csv_fields(names), dtype=object), ids)


def write_rows(handle, n_rows: int, columns) -> None:
    """Write ``n_rows`` CSV rows, ``_ROW_BLOCK`` at a time; lines end in ``\\n``.

    Each column is a function from a slice of rows to their fields, spelled
    as csv.writer spells fields of a multi-field row.  The separators are
    interleaved with the fields, so no text is copied to append one.
    """
    for rows in _row_blocks(n_rows):
        cells = np.empty((rows.stop - rows.start, 2 * len(columns)), dtype=object)
        cells[:, 1::2] = ","
        cells[:, -1] = "\n"
        for j, column in enumerate(columns):
            cells[:, 2 * j] = column(rows)
        handle.write("".join(cells.ravel().tolist()))


def write_estimates(handle, report: EstimateReport, task_names: tuple[str, ...]) -> None:
    """Write ``task,label,margin`` rows, one per task in id order.  Tasks
    without names are named by their ids."""
    tasks = np.arange(report.labels.size)
    handle.write("task,label,margin\n")
    write_rows(handle, tasks.size, [
        _named(task_names, tasks),
        _gathered(_SIGNS, report.labels),
        lambda rows: list(map(repr, report.margins[rows].tolist())),
    ])


def _check_names(names: tuple[str, ...], what: str, encoding: str) -> None:
    """Raise ``ParameterError`` on the first name that cannot be written as
    ``encoding`` text, or that ``load_dataset`` would not give back: it reads
    lines before fields, strips names, takes a line whose first field starts
    with ``#`` as a comment, and merges equal names."""
    try:
        "".join(names).encode(encoding)
    except UnicodeEncodeError:
        for name in names:
            try:
                name.encode(encoding)
            except UnicodeEncodeError:
                raise ParameterError(
                    f"{what} name {name!r} cannot be written as {encoding} text") from None
    seen: set[str] = set()
    for name in names:
        if "\n" in name or "\r" in name:
            problem = "holds a line break"
        elif name != name.strip():
            problem = "has leading or trailing whitespace"
        elif what == "task" and name.startswith("#") and not any(c in name for c in ',"'):
            problem = "would turn its rows into comments"
        elif name in seen:
            problem = "appears twice"
        else:
            seen.add(name)
            continue
        raise ParameterError(f"{what} name {name!r} {problem}; the file would not load back")


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write the edge-list CSV; truth/reliability columns when present.

    Names that the locale's encoding cannot hold, or that would load back
    differently, are refused with ``ParameterError`` before the file is
    opened.
    """
    import locale

    graph = dataset.graph
    encoding = locale.getpreferredencoding(False)
    _check_names(dataset.task_names, "task", encoding)
    _check_names(dataset.worker_names, "worker", encoding)
    tasks, workers = graph.edges[:, 0], graph.edges[:, 1]
    columns = [_named(dataset.task_names, tasks), _named(dataset.worker_names, workers),
               _gathered(_SIGNS, dataset.answers.answers)]
    if dataset.truth_labels is not None:
        columns.append(_gathered(_SIGNS[check_signs(dataset.truth_labels, "truth labels")], tasks))
        if dataset.reliabilities is not None:
            columns.append(_gathered(_spelled(dataset.reliabilities), workers))
    with open(path, "w", encoding=encoding, newline="") as handle:
        handle.write("# alphabet=pm1\n")
        write_rows(handle, graph.n_edges, columns)


def subsample_assignments(dataset: Dataset, l_target: int, seed: int) -> Dataset:
    """Keep at most ``l_target`` uniformly chosen answers per task.

    Tasks are processed in ascending id order with a single generator, so
    the result is a pure function of (dataset, l_target, seed).  Workers
    left without answers are dropped and worker ids compacted; task ids and
    truth columns are untouched.
    """
    l_target = check_count(l_target, "l_target", 1)
    graph = dataset.graph
    rng = rng_from(seed)
    keep = np.zeros(graph.n_edges, dtype=bool)
    grouping = graph.by_task
    for t in range(graph.n_tasks):
        eids = grouping.order[grouping.offsets[t]:grouping.offsets[t + 1]]
        if eids.size <= l_target:
            keep[eids] = True
        else:
            keep[eids[rng.choice(eids.size, size=l_target, replace=False)]] = True

    kept_edges = graph.edges[keep]
    kept_workers = np.flatnonzero(np.bincount(kept_edges[:, 1], minlength=graph.n_workers))
    remap = np.full(graph.n_workers, -1, dtype=np.int64)
    remap[kept_workers] = np.arange(kept_workers.size)
    new_edges = np.column_stack((kept_edges[:, 0], remap[kept_edges[:, 1]]))
    names_w = dataset.worker_names or tuple(map(str, range(graph.n_workers)))
    return Dataset(
        graph=AssignmentGraph(graph.n_tasks, kept_workers.size, new_edges),
        answers=AnswerMatrix(dataset.answers.answers[keep]),
        truth_labels=dataset.truth_labels,
        reliabilities=(dataset.reliabilities[kept_workers]
                       if dataset.reliabilities is not None else None),
        task_names=dataset.task_names,
        worker_names=tuple(names_w[u] for u in kept_workers),
    )


def run_inference(dataset: Dataset, estimator: str, prior_spec: str | None = None,
                  k_max: int = _K_MAX, tol: float = _TOL, seed: int = 0) -> EstimateReport:
    """Run one estimator on a dataset, resolving its required inputs.

    A prior comes from ``prior_spec`` when given, otherwise from the
    dataset's reliability column (as an empirical atom prior).  Estimators
    needing truth or reliabilities fail with a parameter error when the
    dataset lacks them.
    """
    spec = EstimatorSpec.parse(estimator, k_max=k_max, tol=tol)
    rel = dataset.reliabilities
    inputs = {}
    if "prior" in spec.needs:
        if not prior_spec and rel is None:
            raise ParameterError(
                f"estimator {estimator!r} needs --prior or a dataset reliability column")
        inputs["prior"] = parse_prior_spec(prior_spec) if prior_spec else empirical_prior(rel)
    if "truth" in spec.needs:
        if dataset.truth_labels is None:
            raise ParameterError(f"estimator {estimator!r} needs truth labels in the dataset")
        # The oracle reads the labels only; 0.5 stands in for a missing column.
        inputs["truth"] = GroundTruth(dataset.truth_labels, np.full(dataset.graph.n_workers, 0.5)
                                      if rel is None else rel)
    if "reliabilities" in spec.needs:
        if rel is None:
            raise ParameterError(f"estimator {estimator!r} needs a dataset reliability column")
        inputs["reliabilities"] = rel
    return spec.run(dataset.graph, dataset.answers, seed=seed, **inputs)


# ---------------------------------------------------------------------------
# benchmark sweeps

@dataclass(frozen=True)
class ExperimentConfig:
    """A degree sweep over freshly simulated instances.

    ``sweep`` picks which degree varies ("l" or "r"); the other stays at
    ``fixed_degree``.  ``adjust_n`` permits nudging ``n_tasks`` per point to
    the nearest value admitting a regular assignment (tie toward larger).
    ``timing=False`` zeroes the wall-time column so reruns are
    byte-identical.
    """

    n_tasks: int
    sweep_values: tuple[int, ...]
    fixed_degree: int
    prior: str
    estimators: tuple[str, ...]
    sweep: str = "l"
    trials: int = 100
    k_max: int = _K_MAX
    tol: float = _TOL
    seed: int = 0
    threads: int = 1
    timing: bool = True
    adjust_n: bool = False

    def __post_init__(self) -> None:
        # The declared types, by the rule the config files are read with.
        for name, kind in typing.get_type_hints(ExperimentConfig).items():
            try:
                object.__setattr__(self, name, _config_value(kind, getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"bad {name}: {exc}") from exc
        for name in ("n_tasks", "fixed_degree", "trials", "k_max", "threads"):
            check_count(getattr(self, name), name, 1)
        for value in self.sweep_values:
            check_count(value, "sweep_values", 1)
        if self.sweep not in ("l", "r"):
            raise ParameterError(f"sweep must be 'l' or 'r', got {self.sweep!r}")
        if not self.sweep_values:
            raise ParameterError("sweep_values must not be empty")
        if not self.tol >= 0:
            raise ParameterError("tol must be non-negative")
        parse_prior_spec(self.prior)
        for name in self.estimators:
            EstimatorSpec.parse(name)
        if not self.estimators:
            raise ParameterError("at least one estimator is required")


def load_experiment_config(path: str) -> ExperimentConfig:
    """Read a config file: JSON object or flat ``key = value`` lines."""
    with open(path) as handle:
        text = handle.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}: bad JSON config: {exc}") from exc
    else:
        raw = {}
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    return _config_from_dict(raw, path)


def _config_from_dict(raw: dict, source: str) -> ExperimentConfig:
    names = {f.name for f in fields(ExperimentConfig)}
    for key in raw:
        if key not in names:
            raise ParameterError(f"{source}: unknown config key {key!r}")
    missing = {f.name for f in fields(ExperimentConfig) if f.default is MISSING} - set(raw)
    if missing:
        raise ParameterError(f"{source}: missing config keys {sorted(missing)}")
    try:
        return ExperimentConfig(**raw)
    except ParameterError as exc:
        raise ParameterError(f"{source}: {exc}") from exc


def _config_value(kind, value):
    """A config value as ``kind``, its field's declared type; TypeError
    or ValueError if it is none.  Text lists items with commas."""
    if typing.get_origin(kind) is tuple:
        if isinstance(value, str):
            value = [item.strip() for item in value.split(",") if item.strip()]
        return tuple(_config_value(typing.get_args(kind)[0], item) for item in value)
    if kind is bool:
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        if not isinstance(value, bool):
            raise ValueError("must be true or false")
        return value
    if kind is int:  # a fraction or a boolean is refused, not truncated
        return check_count(int(value) if isinstance(value, str) else value, "value")
    if kind is str and not isinstance(value, str):
        raise TypeError(f"expected text, got {value!r}")
    if kind is float and isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class MetricsRow:
    estimator: str
    l: int
    r: int
    mean_error: float | None
    std_error: float | None
    trials: int
    mean_iterations: float
    wall_time_ms: float
    failures: int

    def as_csv(self) -> list[str]:
        """The fields in order: floats by ``repr`` (None and NaN empty), the rest by ``str``."""
        def num(x):
            return "" if x is None or (isinstance(x, float) and math.isnan(x)) else repr(float(x))

        return [(num if "float" in f.type else str)(getattr(self, f.name)) for f in fields(self)]


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def nearest_feasible_n(n_tasks: int, l: int, r: int) -> int:
    """Smallest adjustment of n_tasks so that n*l is divisible by r, tie
    toward larger.  That holds exactly for the multiples n of
    ``r // gcd(l, r)``."""
    n_tasks = check_count(n_tasks, "n_tasks", 1)
    l, r = check_count(l, "l", 1), check_count(r, "r", 1)
    step = r // math.gcd(l, r)
    below, above = n_tasks - n_tasks % step, -(-n_tasks // step) * step
    return below if below >= 1 and n_tasks - below < above - n_tasks else above


def _run_trial(config: ExperimentConfig, specs: list[EstimatorSpec], prior: ReliabilityPrior,
               n: int, l: int, r: int, point: int, trial: int) -> list[tuple]:
    graph, truth, answers = draw_instance(n, l, r, prior, config.seed, point, trial)
    results = []
    for spec in specs:
        start = time.perf_counter()
        try:
            report = spec.run(graph, answers, prior=prior, truth=truth,
                              reliabilities=truth.reliabilities,
                              seed=child_seed(config.seed, "estimator", point, trial, spec.name))
            err = error_rate(report, truth.labels)
            results.append((err, report.iterations_run, time.perf_counter() - start, None))
        except CrowdBPError as exc:
            results.append((np.nan, 0, time.perf_counter() - start,
                            f"{spec.name}/trial{trial}: {exc}"))
    return results


def _sweep_points(config: ExperimentConfig) -> list[tuple[int, int, int]]:
    """``(n, l, r)`` of every sweep point, checked by the generator's rule before any trial."""
    points = []
    for value in config.sweep_values:
        l, r = (value, config.fixed_degree) if config.sweep == "l" else (config.fixed_degree, value)
        n = nearest_feasible_n(config.n_tasks, l, r) if config.adjust_n else config.n_tasks
        try:
            _regular_shape(n, l, r)
        except ParameterError as exc:
            remedy = "" if config.adjust_n else " (adjust_n = true nudges n_tasks per point)"
            raise type(exc)(f"sweep point l={l}, r={r}: {exc}{remedy}") from exc
        points.append((n, l, r))
    return points


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(config: ExperimentConfig, specs: list[EstimatorSpec], prior: ReliabilityPrior,
              points: list[tuple[int, int, int]], jobs: list[tuple[int, int]]) -> dict:
    """Every ``(point, trial)`` job's trial results, keyed by the job.

    With more than one worker (``config.threads`` capped at the job count
    and the usable CPUs) and the ``fork`` start method available, the jobs
    run in forked processes, heaviest (largest ``n * l``) first; otherwise
    they run here, in order.  Forked workers start without importing
    anything again, which a spawned worker would need most of a small
    sweep's time for.
    """
    workers = min(config.threads, len(jobs), _usable_cpus())
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import ProcessPoolExecutor

            heaviest = sorted(jobs, key=lambda job: -points[job[0]][0] * points[job[0]][1])
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                futures = {(point, trial): pool.submit(_run_trial, config, specs, prior,
                                                       *points[point], point, trial)
                           for point, trial in heaviest}
                return {job: future.result() for job, future in futures.items()}
    return {(point, trial): _run_trial(config, specs, prior, *points[point], point, trial)
            for point, trial in jobs}


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Run the configured sweep and return one row per (estimator, point)
    plus companion rows for the analytic bounds and the tree diagnostic.

    Every sweep point is validated before any trial runs.  Trials run in
    up to ``config.threads`` forked processes (see :func:`_run_jobs`);
    results are aggregated by trial position, so the rows do not depend on
    the process count or on completion order.
    """
    prior = parse_prior_spec(config.prior)
    mu, q = prior.moments()
    specs = [EstimatorSpec.parse(name, k_max=config.k_max, tol=config.tol)
             for name in config.estimators]
    points = _sweep_points(config)
    jobs = [(point, trial) for point in range(len(points)) for trial in range(config.trials)]
    results = _run_jobs(config, specs, prior, points, jobs)

    rows: list[MetricsRow] = []
    for point, (n, l, r) in enumerate(points):
        per_trial = [results[point, t] for t in range(config.trials)]
        for idx, spec in enumerate(specs):
            errs = np.array([per_trial[t][idx][0] for t in range(config.trials)])
            iters = np.array([per_trial[t][idx][1] for t in range(config.trials)], dtype=float)
            wall = sum(per_trial[t][idx][2] for t in range(config.trials))
            ok = ~np.isnan(errs)
            failures = int(config.trials - ok.sum())
            mean_err = float(errs[ok].mean()) if ok.any() else None
            std_err = (float(errs[ok].std(ddof=1) / math.sqrt(ok.sum()))
                       if ok.sum() > 1 else (0.0 if ok.any() else None))
            rows.append(MetricsRow(
                estimator=spec.name, l=l, r=r, mean_error=mean_err, std_error=std_err,
                trials=config.trials,
                mean_iterations=float(iters[ok].mean()) if ok.any() else 0.0,
                wall_time_ms=wall * 1e3 if config.timing else 0.0,
                failures=failures,
            ))

        mv_bound, kos_bound = theoretical_bounds(l, r, mu, q)
        rows.append(MetricsRow("bound:mv", l, r, mv_bound, 0.0, 0, 0.0, 0.0, 0))
        rows.append(MetricsRow("bound:kos", l, r, kos_bound, 0.0, 0, 0.0, 0.0, 0))
        rows.append(MetricsRow(
            "diag:tree", l, r,
            tree_probability_bound(n, l, r, theory_iterations(n)),
            0.0, 0, 0.0, 0.0, 0))
    return rows


def write_metrics_csv(rows: list[MetricsRow], handle) -> None:
    """Write rows to an open text handle in the fixed column order;
    RFC-4180 (CRLF, headers first)."""
    writer = csv.writer(handle)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(row.as_csv() for row in rows)
