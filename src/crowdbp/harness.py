"""Experiment harness: error metrics, theoretical bounds, dataset files,
degree subsampling, and seeded benchmark sweeps with CSV output.

Benchmark results are deterministic for a given config and master seed:
every (sweep point, trial, stage) derives its own child seed and results
are aggregated positionally, so thread count never changes the output.
"""
from __future__ import annotations

import csv
import io
import json
import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import filterfalse

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bp import EstimateReport
from .errors import CrowdBPError, DataFormatError, ParameterError
from .estimators import EstimatorSpec
from .graph import AnswerMatrix, AssignmentGraph, GroundTruth, \
    generate_regular_bipartite, sample_answers, sample_ground_truth
from .priors import ReliabilityPrior, empirical_prior, parse_prior_spec
from .seeding import child_seed, rng_from

CSV_COLUMNS = ("estimator", "l", "r", "mean_error", "std_error", "trials",
               "mean_iterations", "wall_time_ms", "failures")


def error_rate(estimate: EstimateReport | np.ndarray, truth_labels: np.ndarray) -> float:
    """Fraction of decoded labels disagreeing with the truth."""
    labels = estimate.labels if isinstance(estimate, EstimateReport) else np.asarray(estimate)
    truth_labels = np.asarray(truth_labels)
    if labels.shape != truth_labels.shape:
        raise ParameterError("label vectors have mismatched lengths")
    if labels.size == 0:
        raise ParameterError("cannot score an empty label vector")
    return float(np.mean(labels != truth_labels))


def theoretical_bounds(l: int, r: int, mu: float, q: float) -> tuple[float, float | None]:
    """Upper bounds on majority vote and on agreement-weighted message passing.

    The second bound only exists above the spectral barrier
    q^2 (l-1)(r-1) > 1 and is ``None`` below it.
    """
    if l < 1 or r < 1:
        raise ParameterError("degrees must be positive")
    if not -1.0 <= mu <= 1.0 or not 0.0 <= q <= 1.0:
        raise ParameterError("need mu in [-1, 1] and q in [0, 1]")
    mv_bound = math.exp(-l * mu * mu / 2.0)
    barrier = q * q * (l - 1) * (r - 1)
    if barrier <= 1.0:
        return mv_bound, None
    kos_bound = math.exp(-(l * q / 2.0) * (barrier - 1.0) / (3.0 * barrier + q * (l - 1)))
    return mv_bound, kos_bound


def tree_probability_bound(n_tasks: int, l: int, r: int, k: int) -> float:
    """Upper bound on the chance that a root's 2k-hop neighborhood is not a tree."""
    if n_tasks < 1 or l < 1 or r < 1 or k < 0:
        raise ParameterError("n_tasks, l, r must be positive and k non-negative")
    value = 3.0 * l * r / n_tasks * float((l - 1) * (r - 1)) ** (2 * k)
    return min(1.0, value)


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

# Characters read per block of lines; rows assembled per write.
_READ_BLOCK = 1 << 21
_WRITE_BLOCK = 1 << 16
# Tokens up to this many UTF-8 bytes are grouped as packed integer keys;
# longer ones, and those holding a NUL, as strings.
_KEY_BYTES = 32
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Line kinds: skipped, comment or directive, split by csv.reader, split on commas.
_BLANK, _COMMENT, _CSV, _PLAIN = range(4)


class _Column:
    """The tokens of one CSV column, in row order.

    Tokens of up to ``_KEY_BYTES`` bytes are kept as packed keys and
    grouped by one sort at the end; the others are interned as strings.
    """

    def __init__(self) -> None:
        self.keys: list[np.ndarray] = []   # (rows, words) of NUL-padded little-endian bytes
        self.texts: dict[str, int] = {}    # string tokens, numbered in first-appearance order
        self.text_rows: list[np.ndarray] = []
        self.text_ids: list[np.ndarray] = []

    def add_spans(self, data: bytes, words: np.ndarray, starts: np.ndarray,
                  stops: np.ndarray, row: int) -> None:
        """Take the tokens ``data[starts[i]:stops[i]]`` of rows ``row + i``.

        ``words[i]`` holds the 8 bytes of ``data`` from offset ``i``.
        """
        lengths = stops - starts
        long = np.flatnonzero(lengths > _KEY_BYTES)
        if long.size:
            self.add_texts(row + long, [data[starts[i]:stops[i]].decode("utf-8", "surrogatepass")
                                        for i in long.tolist()])
            starts, lengths = np.delete(starts, long), np.delete(lengths, long)
        n_words = max(1, -(-int(lengths.max(initial=0)) // 8))
        keys = np.empty((starts.size, n_words), dtype="<u8")
        for k in range(n_words):
            keys[:, k] = words[starts + 8 * k] & _LOW_BYTES[np.clip(lengths - 8 * k, 0, 8)]
        self.keys.append(keys)

    def add_strings(self, texts: list[str], row: int) -> None:
        """Take string tokens, none holding a line break, of rows ``row + i``."""
        data = "\n".join(texts).encode("utf-8", "surrogatepass")
        if b"\0" in data:  # a NUL would read as key padding
            self.add_texts(np.arange(row, row + len(texts)), texts)
            return
        raw, words = _bytes_and_words(data)
        self.add_spans(data, words, *_line_bounds(raw, len(data)), row)

    def add_texts(self, rows: np.ndarray, texts: list[str]) -> None:
        fresh = dict.fromkeys(filterfalse(self.texts.__contains__, texts))
        self.texts.update(zip(fresh, range(len(self.texts), len(self.texts) + len(fresh))))
        self.text_rows.append(rows)
        self.text_ids.append(np.fromiter(map(self.texts.__getitem__, texts), np.int64, len(texts)))

    def intern(self, n_rows: int) -> tuple[list[str], np.ndarray]:
        """Distinct tokens in first-appearance order and each row's index into them."""
        n_words = max((k.shape[1] for k in self.keys), default=1)
        keys = np.concatenate([np.pad(k, ((0, 0), (0, n_words - k.shape[1])))
                               for k in self.keys] or [np.empty((0, n_words), "<u8")])
        text_rows = np.concatenate(self.text_rows or [np.empty(0, np.int64)])
        key_rows = np.delete(np.arange(n_rows), text_rows)
        order = np.lexsort(keys.T) if n_words > 1 else np.argsort(keys[:, 0])
        ordered = keys[order]
        head = np.ones(order.size, dtype=bool)
        head[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        group = np.empty(order.size, dtype=np.int64)
        group[order] = np.cumsum(head) - 1
        heads = np.flatnonzero(head)
        first = key_rows[np.minimum.reduceat(order, heads)] if heads.size else heads
        packed = np.ascontiguousarray(ordered[heads]).view(f"S{8 * n_words}").ravel()
        ids = np.empty(n_rows, dtype=np.int64)
        if not self.texts:
            order = np.argsort(first)
            ids[key_rows] = np.argsort(order)[group]
            return _decode(packed[order]), ids
        # Merge string tokens into the grouped ones, keeping the earliest row.
        first_of = dict(zip(_decode(packed), first.tolist()))
        text_ids = np.concatenate(self.text_ids)
        for text, row in zip(self.texts, text_rows[_first_rows(text_ids)].tolist()):
            if first_of.setdefault(text, row) > row:
                first_of[text] = row
        tokens = list(first_of)
        order = np.argsort(np.fromiter(first_of.values(), np.int64, len(tokens)))
        rank = np.argsort(order)
        position = dict(zip(tokens, range(len(tokens))))
        ids[key_rows] = rank[group]
        ids[text_rows] = rank[np.fromiter(map(position.__getitem__, self.texts), np.int64,
                                          len(self.texts))][text_ids]
        return [tokens[i] for i in order.tolist()], ids


def _decode(packed: np.ndarray) -> list[str]:
    """Strings of NUL-padded UTF-8 keys; tokens hold no newline, so one
    decode covers them all."""
    if not packed.size:
        return []
    return b"\n".join(packed.tolist()).decode("utf-8", "surrogatepass").split("\n")


def _strip_names(tokens: list[str], ids: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Strip each distinct token once and renumber in first-appearance order."""
    stripped = list(map(str.strip, tokens))
    if all(map(operator.is_, stripped, tokens)):
        return tuple(tokens), ids
    names = dict.fromkeys(stripped)
    index = dict(zip(names, range(len(names))))
    remap = np.fromiter(map(index.__getitem__, stripped), np.int64, len(stripped))
    return tuple(names), remap[ids]


def _bytes_and_words(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``data`` as bytes, and as the 8-byte little-endian words starting at
    each offset (an unaligned view).  Zero padding lets a key read run up
    to ``_KEY_BYTES`` past the end."""
    padded = data + bytes(_KEY_BYTES + -len(data) % 8)
    words = as_strided(np.frombuffer(padded, "<u8"), (len(padded) - 7,), (1,))
    return np.frombuffer(padded, np.uint8), words


def _line_bounds(raw: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    stops = np.append(np.flatnonzero(raw == ord("\n")), size)
    return np.concatenate(([0], stops[:-1] + 1)), stops


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

    Lines arrive in blocks.  Within a block, the separators of plain lines
    are found with numpy over the UTF-8 bytes, and each column's tokens are
    grouped by packed byte keys, so every distinct token is decoded and
    converted once.  A line holding ``"`` or a NUL is split by
    ``csv.reader`` as if on its own.  A line that fails whatever follows it (wrong
    column count, unknown alphabet, csv error) ends the reading; the
    per-row checks then run as array operations and the earliest failing
    line wins.
    """

    def __init__(self, encoding: str) -> None:
        self.encoding = encoding
        self.alphabet = 0
        self.n_cols: int | None = None
        self.n_rows = 0
        self.columns = [_Column() for _ in range(5)]
        self.line_nos: list[np.ndarray] = []
        self.alphabets: list[np.ndarray] = []
        self.stop: DataFormatError | None = None

    def feed(self, block: list[str], line_no: int) -> bool:
        """Take the lines after ``line_no``; False once a line stopped the file."""
        lines = list(map(str.strip, block))
        data = "\n".join(lines).encode("utf-8", "surrogatepass")
        bad = _undecodable_line(data)
        if bad is not None:
            if self.feed(block[:bad], line_no):
                self.stop = DataFormatError(
                    f"line {line_no + 1 + bad}: not valid {self.encoding} text")
            return False
        raw, words = _bytes_and_words(data)
        starts, stops = _line_bounds(raw, len(data))
        commas = np.flatnonzero(raw == ord(","))
        quotes = np.flatnonzero((raw == ord('"')) | (raw == 0))
        kinds = np.select(
            [starts == stops, raw[starts] == ord("#"),
             (np.searchsorted(quotes, stops) > np.searchsorted(quotes, starts))
             | (stops - starts > csv.field_size_limit())],
            [_BLANK, _COMMENT, _CSV], _PLAIN)
        cuts = np.flatnonzero(np.diff(kinds)) + 1
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(lines)]):
            number = line_no + 1 + lo
            if kinds[lo] == _PLAIN:
                ok = self._plain_rows(data, words, commas, starts[lo:hi], stops[lo:hi], number)
            elif kinds[lo] == _CSV:
                ok = self._csv_rows(lines[lo:hi], number)
            elif kinds[lo] == _COMMENT:
                ok = all(self._directive(line, number + i) for i, line in enumerate(lines[lo:hi]))
            else:
                ok = True
            if not ok:
                return False
        return True

    def _csv_rows(self, lines: list[str], number: int) -> bool:
        """Take consecutive lines that ``csv.reader`` must split."""
        rows, error = _csv_split(lines)
        n = self._check_fields(np.fromiter(map(len, rows), np.int64, len(rows)), number)
        if n:
            for j in range(self.n_cols):
                self.columns[j].add_strings(list(map(operator.itemgetter(j), rows[:n])),
                                            self.n_rows)
            self._add_rows(n, number)
        if self.stop is None and error is not None:
            self.stop = DataFormatError(f"line {number + len(rows)}: {error}")
        return self.stop is None

    def _plain_rows(self, data: bytes, words: np.ndarray, commas: np.ndarray,
                    starts: np.ndarray, stops: np.ndarray, number: int) -> bool:
        """Take consecutive lines without quotes, the first being line ``number``."""
        first = np.searchsorted(commas, starts[0])
        fields = np.searchsorted(commas, stops) - np.searchsorted(commas, starts) + 1
        n = self._check_fields(fields, number)
        if n:
            # Token j of a row lies strictly between bounds[:, j] and bounds[:, j + 1].
            bounds = np.empty((n, self.n_cols + 1), dtype=np.int64)
            bounds[:, 0] = starts[:n] - 1
            bounds[:, 1:-1] = commas[first:first + n * (self.n_cols - 1)].reshape(n, -1)
            bounds[:, -1] = stops[:n]
            for j in range(self.n_cols):
                self.columns[j].add_spans(data, words, bounds[:, j] + 1, bounds[:, j + 1],
                                          self.n_rows)
            self._add_rows(n, number)
        return self.stop is None

    def _directive(self, line: str, number: int) -> bool:
        body = line.lstrip("#").strip()
        if body.startswith("alphabet="):
            name = body[len("alphabet="):].strip()
            if name not in _ALPHABETS:
                self.stop = DataFormatError(f"line {number}: unknown alphabet {name!r}")
                return False
            self.alphabet = _ALPHABET_NAMES.index(name)
        return True

    def _check_fields(self, fields: np.ndarray, number: int) -> int:
        """How many of the lines from ``number`` on have the file's column
        count; sets ``stop`` at the first that does not."""
        if not fields.size:
            return 0
        if self.n_cols is None:
            self.n_cols = int(fields[0])
            if self.n_cols not in (3, 4, 5):
                self.stop = DataFormatError(
                    f"line {number}: expected 3-5 columns, got {self.n_cols}")
                return 0
        wrong = np.flatnonzero(fields != self.n_cols)
        if not wrong.size:
            return fields.size
        n = int(wrong[0])
        self.stop = DataFormatError(
            f"line {number + n}: expected {self.n_cols} columns, got {fields[n]}")
        return n

    def _add_rows(self, n: int, number: int) -> None:
        self.line_nos.append(np.arange(number, number + n))
        self.alphabets.append(np.full(n, self.alphabet, dtype=np.int8))
        self.n_rows += n

    def dataset(self, path: str) -> Dataset:
        if not self.n_rows:
            raise self.stop or DataFormatError(f"{path}: no answer rows found")
        line_nos = np.concatenate(self.line_nos)
        alphabets = np.concatenate(self.alphabets)
        tokens, ids = zip(*(column.intern(self.n_rows)
                            for column in self.columns[:self.n_cols]))
        task_names, t = _strip_names(tokens[0], ids[0])
        worker_names, w = _strip_names(tokens[1], ids[1])

        def labels(j: int) -> np.ndarray:
            values = np.array([[table.get(token.strip(), 0) for token in tokens[j]]
                               for table in _ALPHABETS.values()], dtype=np.int64)
            return values[alphabets, ids[j]]

        def bad_label(j: int, what: str):
            return lambda e: (f"bad {what} {tokens[j][ids[j][e]]!r} "
                              f"for alphabet {_ALPHABET_NAMES[alphabets[e]]!r}")

        # (mask, message) per check, in the order one line runs them.
        key = t * len(worker_names) + w
        ordered = np.sort(key)
        repeat = np.zeros(key.size, dtype=bool)
        if (ordered[1:] == ordered[:-1]).any():
            repeat[:] = True
            repeat[np.unique(key, return_index=True)[1]] = False
        answers = labels(2)
        checks = [
            (repeat, lambda e: f"duplicate answer for task {task_names[t[e]]!r}, "
                               f"worker {worker_names[w[e]]!r}"),
            (answers == 0, bad_label(2, "answer")),
        ]
        truth_labels = reliabilities = None
        if self.n_cols >= 4:
            truth = labels(3)
            truth_labels = truth[_first_rows(t)]
            checks += [
                (truth == 0, bad_label(3, "truth label")),
                (truth != truth_labels[t],
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
            rel, parsed = numbers[ids[4]], parsed[ids[4]]
            reliabilities = rel[_first_rows(w)]
            checks += [
                (~parsed, lambda e: f"bad reliability {tokens[4][ids[4][e]]!r}"),
                (parsed & ~((rel >= 0.0) & (rel <= 1.0)),
                 lambda e: f"reliability {float(rel[e])} outside [0, 1]"),
                (rel != reliabilities[w],
                 lambda e: f"conflicting reliability for worker {worker_names[w[e]]!r}"),
            ]
        failed = None
        for mask, message in checks:
            e = int(mask.argmax())
            if mask[e] and (failed is None or e < failed[0]):
                failed = (e, message)
        if failed is not None:
            e, message = failed
            raise DataFormatError(f"line {line_nos[e]}: {message(e)}")
        if self.stop is not None:
            raise self.stop
        return Dataset(
            graph=AssignmentGraph(len(task_names), len(worker_names), np.column_stack((t, w))),
            answers=AnswerMatrix(answers),
            truth_labels=truth_labels,
            reliabilities=reliabilities,
            task_names=task_names,
            worker_names=worker_names,
        )


def load_dataset(path: str, fmt: str = "edge-csv") -> Dataset:
    """Read an edge-list CSV: ``task,worker,answer[,truth[,reliability]]``.

    Comment lines start with ``#``; a ``# alphabet=pm1`` or ``# alphabet=01``
    directive selects the answer encoding (0 maps to -1) for the rows after
    it.  The optional fourth column carries the task's true label and the
    fifth the worker's reliability; repeated values must agree.  Ids are
    arbitrary strings and are compacted in order of first appearance.  The
    first malformed line is reported as ``line N: ...``; a line that is not
    valid text in the file's encoding or that ``csv.reader`` rejects is
    malformed too.
    """
    if fmt != "edge-csv":
        raise ParameterError(f"unknown dataset format {fmt!r}")
    line_no = 0
    with open(path, newline="", errors="surrogateescape") as handle:
        reader = _EdgeCsvReader(handle.encoding)
        while block := handle.readlines(_READ_BLOCK):
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


def formatted_values(values: np.ndarray, spec: str) -> tuple[list[str], np.ndarray]:
    """Each distinct value formatted once, and every value's index into them."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return [format(v, spec) for v in distinct], inverse


def write_rows(handle, columns) -> None:
    """Write CSV rows whose field j is ``texts_j[ids_j[row]]``.

    ``columns`` holds one ``(texts, ids)`` pair per field.  Each distinct
    text is quoted once with csv's own rules, rows are assembled from
    object-array gathers, and lines end in ``\\n``.
    """
    ends = [","] * (len(columns) - 1) + ["\n"]
    tables = [np.array(_csv_fields(texts), dtype=object) + end
              for (texts, _), end in zip(columns, ends)]
    n_rows = len(columns[0][1])
    for lo in range(0, n_rows, _WRITE_BLOCK):
        cells = np.empty((min(n_rows - lo, _WRITE_BLOCK), len(columns)), dtype=object)
        for j, (table, (_, ids)) in enumerate(zip(tables, columns)):
            cells[:, j] = table[ids[lo:lo + cells.shape[0]]]
        handle.write("".join(cells.ravel().tolist()))


def _check_names(names: tuple[str, ...], what: str) -> None:
    """Raise ``ParameterError`` on the first name ``load_dataset`` would not
    give back: it reads lines before fields, strips names, takes a line
    whose first field starts with ``#`` as a comment, and merges equal names."""
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

    Names that would load back differently are refused with
    ``ParameterError`` before anything is written.
    """
    graph = dataset.graph
    _check_names(dataset.task_names, "task")
    _check_names(dataset.worker_names, "worker")
    names_t = dataset.task_names or tuple(str(i) for i in range(graph.n_tasks))
    names_w = dataset.worker_names or tuple(str(u) for u in range(graph.n_workers))
    tasks, workers = graph.edges[:, 0], graph.edges[:, 1]
    columns = [(names_t, tasks), (names_w, workers),
               (("-1", "+1"), (dataset.answers.answers > 0).astype(np.int64))]
    if dataset.truth_labels is not None:
        texts, ids = formatted_values(dataset.truth_labels, "+d")
        columns.append((texts, ids[tasks]))
        if dataset.reliabilities is not None:
            rel = np.asarray(dataset.reliabilities, dtype=np.float64)
            columns.append((list(map(repr, rel.tolist())), workers))
    with open(path, "w", newline="") as handle:
        handle.write("# alphabet=pm1\n")
        write_rows(handle, columns)


def subsample_assignments(dataset: Dataset, l_target: int, seed: int) -> Dataset:
    """Keep at most ``l_target`` uniformly chosen answers per task.

    Tasks are processed in ascending id order with a single generator, so
    the result is a pure function of (dataset, l_target, seed).  Workers
    left without answers are dropped and worker ids compacted; task ids and
    truth columns are untouched.
    """
    if l_target < 1:
        raise ParameterError("l_target must be at least 1")
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
    names_w = dataset.worker_names or tuple(str(u) for u in range(graph.n_workers))
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
                  k_max: int = 100, tol: float = 1e-5, seed: int = 0) -> EstimateReport:
    """Run one estimator on a dataset, resolving its required inputs.

    A prior comes from ``prior_spec`` when given, otherwise from the
    dataset's reliability column (as an empirical atom prior).  Estimators
    needing truth or reliabilities fail with a parameter error when the
    dataset lacks them.
    """
    spec = EstimatorSpec.parse(estimator, k_max=k_max, tol=tol)
    prior: ReliabilityPrior | None = None
    if spec.needs_prior():
        if prior_spec:
            prior = parse_prior_spec(prior_spec)
        elif dataset.reliabilities is not None:
            prior = empirical_prior(dataset.reliabilities)
        else:
            raise ParameterError(
                f"estimator {estimator!r} needs --prior or a dataset reliability column")
    truth = None
    if spec.needs_truth():
        if dataset.truth_labels is None:
            raise ParameterError(f"estimator {estimator!r} needs truth labels in the dataset")
        rel = dataset.reliabilities
        if rel is None:
            rel = np.full(dataset.graph.n_workers, 0.5)
        truth = GroundTruth(dataset.truth_labels, rel)
    reliabilities = None
    if spec.needs_reliabilities():
        if dataset.reliabilities is None:
            raise ParameterError(
                f"estimator {estimator!r} needs a dataset reliability column")
        reliabilities = dataset.reliabilities
    return spec.run(dataset.graph, dataset.answers, prior=prior, truth=truth,
                    reliabilities=reliabilities, seed=seed)


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
    k_max: int = 100
    tol: float = 1e-5
    seed: int = 0
    threads: int = 1
    timing: bool = True
    adjust_n: bool = False
    out: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sweep_values", tuple(int(v) for v in self.sweep_values))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.sweep not in ("l", "r"):
            raise ParameterError(f"sweep must be 'l' or 'r', got {self.sweep!r}")
        if self.n_tasks < 1 or self.fixed_degree < 1 or not self.sweep_values:
            raise ParameterError("n_tasks, fixed_degree and sweep_values must be positive")
        if min(self.sweep_values) < 1:
            raise ParameterError("sweep values must be positive")
        if self.trials < 1 or self.k_max < 1 or self.threads < 1:
            raise ParameterError("trials, k_max and threads must be at least 1")
        if self.tol < 0:
            raise ParameterError("tol must be non-negative")
        parse_prior_spec(self.prior)
        for name in self.estimators:
            EstimatorSpec.parse(name)
        if not self.estimators:
            raise ParameterError("at least one estimator is required")


_CONFIG_LIST_KEYS = {"sweep_values", "estimators"}
_CONFIG_BOOL_KEYS = {"timing", "adjust_n"}


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
    known = {f.name: f for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ParameterError(f"{source}: unknown config key {key!r}")
        if key in _CONFIG_LIST_KEYS:
            if isinstance(value, str):
                value = tuple(item.strip() for item in value.split(",") if item.strip())
            value = tuple(value)
            if key == "sweep_values":
                try:
                    value = tuple(int(v) for v in value)
                except ValueError as exc:
                    raise ParameterError(f"{source}: bad {key}: {exc}") from exc
        elif key in _CONFIG_BOOL_KEYS:
            if isinstance(value, str):
                if value.lower() not in ("true", "false"):
                    raise ParameterError(f"{source}: {key} must be true or false")
                value = value.lower() == "true"
            value = bool(value)
        elif key in ("tol",):
            value = float(value)
        elif key in ("n_tasks", "fixed_degree", "trials", "k_max", "seed", "threads"):
            try:
                value = int(value)
            except ValueError as exc:
                raise ParameterError(f"{source}: bad {key}: {exc}") from exc
        kwargs[key] = value
    missing = {"n_tasks", "sweep_values", "fixed_degree", "prior", "estimators"} - set(kwargs)
    if missing:
        raise ParameterError(f"{source}: missing config keys {sorted(missing)}")
    return ExperimentConfig(**kwargs)


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
        def num(x):
            return "" if x is None or (isinstance(x, float) and math.isnan(x)) else repr(float(x))

        return [self.estimator, str(self.l), str(self.r), num(self.mean_error),
                num(self.std_error), str(self.trials), num(self.mean_iterations),
                num(self.wall_time_ms), str(self.failures)]


def nearest_feasible_n(n_tasks: int, l: int, r: int) -> int:
    """Smallest adjustment of n_tasks so that n*l is divisible by r."""
    for delta in range(r + 1):
        for candidate in (n_tasks + delta, n_tasks - delta):
            if candidate >= 1 and (candidate * l) % r == 0:
                return candidate
    raise ParameterError(f"no feasible task count near {n_tasks} for l={l}, r={r}")


def _run_trial(config: ExperimentConfig, specs: list[EstimatorSpec], prior: ReliabilityPrior,
               n: int, l: int, r: int, point: int, trial: int) -> list[tuple]:
    graph = generate_regular_bipartite(n, l, r, child_seed(config.seed, "graph", point, trial))
    truth = sample_ground_truth(graph, prior, child_seed(config.seed, "truth", point, trial))
    answers = sample_answers(graph, truth, child_seed(config.seed, "answers", point, trial))
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


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Run the configured sweep and return one row per (estimator, point)
    plus companion rows for the analytic bounds and the tree diagnostic."""
    prior = parse_prior_spec(config.prior)
    mu, q = prior.moments()
    specs = [EstimatorSpec.parse(name, k_max=config.k_max, tol=config.tol)
             for name in config.estimators]
    from .bp import theory_iterations

    rows: list[MetricsRow] = []
    for point, value in enumerate(config.sweep_values):
        l, r = (value, config.fixed_degree) if config.sweep == "l" else (config.fixed_degree, value)
        n = config.n_tasks
        if (n * l) % r != 0:
            if not config.adjust_n:
                raise ParameterError(
                    f"sweep point l={l}, r={r}: n_tasks*l not divisible by r "
                    "(set adjust_n = true to nudge n per point)")
            n = nearest_feasible_n(n, l, r)

        per_trial = [None] * config.trials

        def job(t: int, _n=n, _l=l, _r=r, _pt=point):
            per_trial[t] = _run_trial(config, specs, prior, _n, _l, _r, _pt, t)

        if config.threads == 1:
            for t in range(config.trials):
                job(t)
        else:
            with ThreadPoolExecutor(max_workers=config.threads) as pool:
                list(pool.map(job, range(config.trials)))

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


def write_metrics_csv(rows: list[MetricsRow], destination) -> None:
    """Write rows in the fixed column order; RFC-4180 (CRLF, headers first)."""
    if isinstance(destination, (str,)):
        with open(destination, "w", newline="") as handle:
            _write_rows(rows, handle)
    else:
        _write_rows(rows, destination)


def _write_rows(rows: list[MetricsRow], handle) -> None:
    writer = csv.writer(handle)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv())


def metrics_csv_text(rows: list[MetricsRow]) -> str:
    buffer = io.StringIO(newline="")
    _write_rows(rows, buffer)
    return buffer.getvalue()
