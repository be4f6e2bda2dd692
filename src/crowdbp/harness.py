"""Dataset files: the answer-CSV reader, the dataset and estimate writers,
degree subsampling and one estimator run on a dataset.
"""
from __future__ import annotations

import bisect
import csv
import io
import operator
import typing
from dataclasses import dataclass
from itertools import chain, count, filterfalse

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bp import _K_MAX, _TOL, EstimateReport
from .errors import (DataFormatError, ParameterError, check_count, check_length,
                     check_probabilities, check_signs)
from .estimators import EstimatorSpec
from .graph import (AnswerMatrix, AssignmentGraph, GroundTruth, RepeatedPairsError,
                    answer_values, column_edges)
from .priors import empirical_prior, parse_prior_spec
from .segments import edge_blocks
from .seeding import rng_from


@dataclass(frozen=True)
class Dataset:
    """An assignment graph with answers and optional truth metadata.

    ``task_names``/``worker_names`` map compact integer ids back to the
    identifiers used in the source file.  Answers must hold one value per
    edge, truth labels (±1) one per task, reliabilities (in [0, 1]) one per
    worker, and names, when given, one per task or worker; any other column
    raises ``ParameterError``.  Answers are held as an ``AnswerMatrix``, a
    given one as it is, and the checked truth labels and reliabilities as
    ``check_signs`` and ``check_probabilities`` return them.
    """

    graph: AssignmentGraph
    answers: AnswerMatrix
    truth_labels: np.ndarray | None = None
    reliabilities: np.ndarray | None = None
    task_names: tuple[str, ...] = ()
    worker_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        graph = self.graph
        if not isinstance(self.answers, AnswerMatrix):
            object.__setattr__(self, "answers", AnswerMatrix(self.answers))
        answer_values(self.answers, graph)
        if self.truth_labels is not None:
            labels = check_signs(self.truth_labels, "truth labels")
            check_length(labels.shape, graph.n_tasks, "truth labels", "task")
            object.__setattr__(self, "truth_labels", labels)
        if self.reliabilities is not None:
            reliabilities = check_probabilities(self.reliabilities, "reliabilities")
            check_length(reliabilities.shape, graph.n_workers, "reliabilities", "worker")
            object.__setattr__(self, "reliabilities", reliabilities)
        for names, n, node in ((self.task_names, graph.n_tasks, "task"),
                               (self.worker_names, graph.n_workers, "worker")):
            if names:
                check_length((len(names),), n, f"{node} names", node)


_ALPHABETS = {
    "pm1": {"+1": 1, "1": 1, "-1": -1},
    "01": {"1": 1, "0": -1},
}
_ALPHABET_NAMES = tuple(_ALPHABETS)
# The text the writers give each ±1 value, indexed by the value: -1 picks the last.
_SIGNS = ["", "+1", "-1"]
# The writers pad texts to whole 8-byte words with this byte, which UTF-8 never holds.
_PAD = 0xFF

# UTF-8 bytes per chunk of lines that the reader takes in one pass, at
# least; rows per block of the writers and of the reader's row checks.
_READ_BLOCK = 1 << 20
_ROW_BLOCK = 1 << 16
# str.strip's whitespace beyond ASCII; none lies above U+3000.
_WIDE_SPACES = ("\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B)))
                + "\u2028\u2029\u202f\u205f\u3000")
# Per byte: 1 if it is ASCII whitespace that a line's text may hold (a line
# end it may not); 2 if a character of _WIDE_SPACES may start with it
# (_HEAD) or end with it (_TAIL).
_HEAD = np.array([chr(b).isspace() and b not in b"\r\n" for b in range(128)] + [0] * 128,
                 dtype=np.uint8)
_TAIL = _HEAD.copy()
_HEAD[[c.encode()[0] for c in _WIDE_SPACES]] = 2
_TAIL[[c.encode()[-1] for c in _WIDE_SPACES]] = 2
# The UTF-8 of _WIDE_SPACES as little-endian integers, by length in bytes.
_WIDE_KEYS = {n: np.array([int.from_bytes(c.encode(), "little") for c in _WIDE_SPACES
                           if len(c.encode()) == n], dtype=np.uint64) for n in (2, 3)}
# ASCII whitespace bytes trimmed from a line's edge before str.strip takes over.
_TRIM_STEPS = 32
# Tokens up to this many UTF-8 bytes are their own packed key; longer ones,
# and those holding a NUL, are numbered and keyed by the number.
_KEY_BYTES = 32
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


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
    """The tokens of one CSV column, turned into ids as each chunk arrives.

    A token's key depends on its text alone.  A NUL-free token of up to
    ``_KEY_BYTES`` bytes is its own NUL-padded bytes.  Any other token is
    numbered in ``numbers`` and keyed by the byte 0xFF, which UTF-8 text
    never holds, followed by its number.  ``table`` holds the distinct keys
    seen so far, sorted.  Each chunk's keys are sorted once and looked up
    in it; those it lacks are merged in and take the next ids in order of
    first appearance.  A row keeps only its id, in the narrowest unsigned
    type that holds the ids so far, so a column of a few distinct tokens
    costs a byte per row.
    """

    def __init__(self) -> None:
        self.table = np.empty(0, dtype=np.uint64)    # distinct keys as ``_sortable`` values, sorted
        self.table_ids = np.empty(0, dtype=np.int64)  # the id of each key in ``table``
        self.ids: list[np.ndarray] = []          # per chunk, each row's id
        self.first_rows: list[np.ndarray] = []   # per chunk, the row where each new id appears
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
        appearance, decoded from the table in one byte pass; the column
        gives up its table."""
        keys = _key_words(self.table[np.argsort(self.table_ids)])
        self.table = self.table_ids = None
        return self._decode(keys)

    def row_ids(self, out: np.ndarray | None = None) -> np.ndarray:
        """Each row's id, in ``out`` if given; the column gives up its
        chunks' ids one at a time."""
        if out is None:
            out = np.empty(self.n_rows, dtype=self.ids[-1].dtype)
        lo = 0
        while self.ids:
            block = self.ids.pop(0)
            out[lo:lo + block.size] = block
            lo += block.size
        return out

    def _decode(self, keys: np.ndarray) -> list[str]:
        """The token of each key, decoded in one byte pass: the keys' bytes
        with a newline after each key (no token holds one), less the zero
        pad bytes (no packed token holds a NUL), are one UTF-8 text."""
        numbered = np.flatnonzero(keys[:, 0] & 0xFF == 0xFF)
        numbers = (keys[numbered, 0] >> 8).tolist()
        keys[numbered] = 0  # decoded as empty text, then replaced
        ends = np.full(keys.shape[0], ord("\n"), dtype=np.uint8)
        text = np.column_stack((keys.view(np.uint8), ends)).ravel()[:-1]
        tokens = text[text != 0].tobytes().decode("utf-8", "surrogatepass").split("\n")
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


def _undecodable_line(data: bytes, starts: np.ndarray) -> int | None:
    """Index of the first line of ``data``, whose lines start at ``starts``,
    that held an undecodable byte.

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
    return int(np.searchsorted(starts, at + int(hits[0]), "right")) - 1


def _line_bounds(data: bytes, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each line of ``data`` starts, and where its text stops, before
    its line end.  Lines end as a text file read with ``newline=""`` ends
    them: at ``\\n``, ``\\r\\n`` or a lone ``\\r``.  ``raw`` is ``data`` as
    bytes, running on past its end with a byte that is no line end."""
    n = len(data)
    ends = raw[:n] == ord("\n")
    if b"\r" not in data:
        stops = np.flatnonzero(ends)
        after = stops + 1
    else:
        returns = raw[:n] == ord("\r")
        ends[1:] &= ~returns[:-1]  # a "\r\n" ends at its "\r"
        ends |= returns
        stops = np.flatnonzero(ends)
        after = stops + 1
        after += (raw[stops] == ord("\r")) & (raw[after] == ord("\n"))
    starts = np.concatenate(([0], after))
    if starts[-1] < n:  # a last line without a line end
        return starts, np.append(stops, n)
    return starts[:-1], stops


def _strip_lines(raw: np.ndarray, words: np.ndarray, starts: np.ndarray,
                 stops: np.ndarray) -> np.ndarray:
    """Move the bounds of each line in past the runs of ASCII whitespace at
    its edges, up to ``_TRIM_STEPS`` bytes an edge.  ``raw`` and ``words``
    are the text as by ``_bytes_and_words``.  Returns a mask of the lines
    whose edge is still whitespace, a longer run or a multi-byte character,
    which ``str.strip`` must finish."""
    open_edge = np.zeros(starts.size, dtype=bool)
    if not (_HEAD[raw[starts]] | _TAIL[raw[stops - 1]]).any():
        return open_edge
    for bounds, edge, table in ((starts, 0, _HEAD), (stops, -1, _TAIL)):
        lines = np.flatnonzero(table[raw[bounds + edge]] == 1)
        for _ in range(_TRIM_STEPS):
            lines = lines[starts[lines] < stops[lines]]
            if not lines.size:
                break
            bounds[lines] += 1 + 2 * edge
            lines = lines[table[raw[bounds[lines] + edge]] == 1]
    for at, table, before in ((starts, _HEAD, 0), (stops, _TAIL, 1)):
        kinds = table[raw[at - before]]
        open_edge |= kinds == 1
        wide = np.flatnonzero(kinds == 2)
        for n, keys in _WIDE_KEYS.items():
            open_edge[wide] |= np.isin(words[at[wide] - n * before]
                                       & np.uint64((1 << 8 * n) - 1), keys)
    return open_edge & (starts < stops)


def _first_rows(ids: np.ndarray) -> np.ndarray:
    """Row of each id's first appearance, for ids numbered in that order."""
    return np.flatnonzero(np.diff(np.maximum.accumulate(ids), prepend=-1))


class _EdgeCsvReader:
    """Bulk tokenizer and checker behind ``load_dataset``.

    Text arrives in chunks of whole lines, as UTF-8 bytes, and each chunk is
    read in one pass.  NumPy finds the line ends and the commas, and trims
    the ASCII whitespace at each line's edges on the bytes.  A plain line
    is then split on its commas.  Every other line (an edge the trim left
    open, see ``_strip_lines``, a leading ``#``, a ``"``, or more bytes
    than ``csv.field_size_limit()``) is decoded and ``str.strip``ped: it is
    then blank, a comment or directive, or a row split by ``csv.reader`` as
    if on its own, whose fields are appended to the chunk, each after a
    line break.  So every token is a span of one buffer, one span table per
    chunk gives each column one key array, and how plain and other lines
    interleave costs nothing.  Each column turns its keys into ids as the
    chunk arrives (see ``_Column``), so every distinct token is decoded and
    converted once, and a row keeps only its ids, its alphabet and its line.
    A line that fails whatever follows it (undecodable text, unknown
    alphabet, csv error, wrong column count) ends the reading; the per-row
    checks then run as array operations over ``_ROW_BLOCK`` rows at a time,
    and the earliest failing line wins.
    """

    def __init__(self, encoding: str) -> None:
        self.encoding = encoding
        self.alphabet = 0
        self.n_cols: int | None = None
        self.n_rows = 0
        self.line_no = 0  # lines read so far
        self.columns = [_Column() for _ in range(5)]
        # Per chunk: its first row, the number of its first line, and each
        # row's line within the chunk.
        self.lines: list[tuple[int, int, np.ndarray]] = []
        self.alphabets: list[np.ndarray] = []
        self.stop: DataFormatError | None = None

    def feed(self, data: bytes) -> bool:
        """Take the next lines, UTF-8 ``data`` that ends at a line end unless
        the file ends; False once a line stopped the file."""
        raw, words = _bytes_and_words(data)
        starts, stops = _line_bounds(data, raw)
        n_lines, line_no = starts.size, self.line_no
        self.line_no += n_lines
        bad = _undecodable_line(data, starts)
        if bad is not None:  # the lines before it are read
            self.stop = DataFormatError(
                f"line {line_no + 1 + bad}: not valid {self.encoding} text")
            starts, stops = starts[:bad], stops[:bad]
        commas = np.flatnonzero(raw == ord(","))
        quotes = np.flatnonzero(raw == ord('"'))
        # The lines the bytes cannot settle are read as load_dataset_per_line
        # reads every line; the others are rows split on their commas.
        decoded = (_strip_lines(raw, words, starts, stops) | (raw[starts] == ord("#"))
                   | (np.searchsorted(quotes, stops) > np.searchsorted(quotes, starts))
                   | (stops - starts > csv.field_size_limit()))
        # Each check looks only at the lines before the earliest failure so far.
        end, set_at, set_to, csv_at, csv_lines = starts.size, [], [self.alphabet], [], []
        for i in np.flatnonzero(decoded).tolist():
            line = data[starts[i]:stops[i]].decode("utf-8", "surrogatepass").strip()
            if not line.startswith("#"):
                if line:
                    csv_at.append(i)
                    csv_lines.append(line)
                continue
            body = line.lstrip("#").strip()
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
        split, error = _csv_split(csv_lines)
        if error is not None:
            end = csv_at[len(split)]
            self.stop = DataFormatError(f"line {line_no + 1 + end}: {error}")
        is_row = ~decoded & (starts < stops)
        is_row[csv_at] = True
        rows = np.flatnonzero(is_row[:end])
        # Commas before each line's end; between one line's end and the
        # next line's start lie only whitespace and line ends.
        before = np.searchsorted(commas, stops)
        first = np.concatenate(([0], before[:-1]))[rows]
        fields = before[rows] - first + 1
        is_csv = decoded[rows]
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
                           rows.astype(np.min_scalar_type(n_lines))))
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
        edges = np.empty((n, 2), dtype=np.int64, order="F")
        answers = np.empty(n, dtype=np.int8)
        self.columns[0].row_ids(edges[:, 0])
        self.columns[1].row_ids(edges[:, 1])
        task_names, task_of, task_rows = _strip_names(self.columns[0])
        worker_names, worker_of, worker_rows = _strip_names(self.columns[1])
        for j, remap in ((0, task_of), (1, worker_of)):
            if remap is not None:
                for rows in edge_blocks(n, _ROW_BLOCK):
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

        answer_signs = values(2)
        for rows in edge_blocks(n, _ROW_BLOCK):
            answers[rows] = answer_signs[alphabets[rows], ids[2][rows]]
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
        except RepeatedPairsError as refusal:  # the first repeated row comes first
            e = int(refusal.ids[0])
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
    for rows in edge_blocks(n_rows, _ROW_BLOCK):
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
    with open(path, newline="", errors="surrogateescape") as handle:
        reader = _EdgeCsvReader(handle.encoding)
        all(map(reader.feed, _line_chunks(handle)))  # up to the chunk that stops the file
    return reader.dataset(path)


def _line_chunks(handle) -> typing.Iterator[bytes]:
    """The text of ``handle`` as UTF-8, in chunks of whole lines of at
    least ``_READ_BLOCK`` bytes; only the last chunk may be shorter or lack
    a line end.  The text is read and encoded a quarter of that many
    characters at a time: reads as large as a chunk left the allocator a
    heap of freed chunk-sized buffers, and the reader's peak resident
    memory a few MiB higher.  Each chunk ends at the last line end of a
    read; a ``\\r`` that ends a read stays for the next chunk, as a
    ``\\n`` may follow it.  A line longer than a chunk takes as many reads
    as it needs.  One U+FEFF at the very start, a byte-order mark, is
    dropped."""
    reads = iter(lambda: handle.read(-(-_READ_BLOCK // 4)), "")
    pieces: list[bytes | memoryview] = []  # what was read since the last chunk
    size = 0
    for text in chain([next(reads, "").removeprefix("\ufeff")], reads):
        data = text.encode("utf-8", "surrogatepass")
        del text
        size += len(data)
        end = len(data) - data.endswith(b"\r")
        cut = max(data.rfind(b"\n", 0, end), data.rfind(b"\r", 0, end)) + 1
        if size < _READ_BLOCK or not cut:
            pieces.append(data)
            continue
        pieces.append(memoryview(data)[:cut])
        chunk = b"".join(pieces)
        pieces = [data[cut:]]
        size = len(pieces[0])
        del data
        yield chunk
        del chunk
    if size:
        yield b"".join(pieces)


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


def _spelled(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ``repr`` of each distinct float, and each value's index into
    them in the narrowest unsigned type.  Values are told apart by bit
    pattern, so that ``-0.0`` keeps its own spelling."""
    values = np.asarray(values, dtype=np.float64)
    _, first, inverse = np.unique(values.view(np.uint64), return_index=True, return_inverse=True)
    return list(map(repr, values[first].tolist())), inverse.astype(np.min_scalar_type(first.size))


def _table(texts: list[str], end: str) -> tuple[np.ndarray, np.ndarray | None]:
    """``texts``, each with ``end`` appended, as UTF-8 in 8-byte words padded
    with ``_PAD``: one text per row of a 2-D array, unless padding all to
    the longest would more than double the words.  Then the words run on
    in one array, returned with each text's first word and a last end."""
    joined = end.join(texts) + end if texts else ""
    if joined.isascii():  # one encode: per text, file-1m's 100k task names take 4x as long
        data = np.frombuffer(joined.encode("ascii"), np.uint8)
        lengths = np.fromiter(map(len, texts), np.int64, len(texts)) + len(end)
    else:
        parts = [(t + end).encode("utf-8", "surrogatepass") for t in texts]
        data = np.frombuffer(b"".join(parts), np.uint8)
        lengths = np.fromiter(map(len, parts), np.int64, len(parts))
    counts = -(-lengths // 8)
    width, size = int(counts.max(initial=1)), int(counts.sum())
    padded = width * counts.size <= 2 * size
    slots = np.full_like(counts, width) if padded else counts
    # One mark per byte of the words: each text's bytes, then its pad bytes.
    marks = np.repeat(np.tile([True, False], counts.size),
                      np.column_stack((lengths, 8 * slots - lengths)).ravel())
    words = np.full(marks.size, _PAD, np.uint8)
    words[marks] = data
    words = words.view(np.uint64)
    if padded:
        return words.reshape(-1, width), None
    return words, np.append(np.cumsum(counts) - counts, size).astype(np.min_scalar_type(size))


def _id_table(n: int, end: str) -> tuple[np.ndarray, None]:
    """``_table`` of the texts ``str(i) + end`` for ``i < n``, spelled by
    arithmetic: the ids with d digits are one range."""
    digits = len(str(max(n - 1, 0)))
    text = np.full((n, 8 * (digits // 8 + 1)), _PAD, np.uint8)
    for d in range(1, digits + 1):
        lo, hi = 10 ** (d - 1) if d > 1 else 0, min(n, 10 ** d)
        value = np.arange(lo, hi)
        for k in reversed(range(d)):
            value, text[lo:hi, k] = np.divmod(value, 10)
        text[lo:hi, :d] += ord("0")
        text[lo:hi, d] = ord(end)
    return text.view(np.uint64), None


def write_rows(handle, n_rows: int, columns) -> None:
    """Write ``n_rows`` CSV rows, ``_ROW_BLOCK`` at a time; lines end in ``\\n``.

    Column j is ``(texts, ids, via)``: its field in row i is
    ``texts[ids[via[i]]]``, or ``texts[ids[i]]`` when ``via`` is None.
    ``texts`` are the distinct fields, spelled as csv.writer spells fields
    of a multi-field row, or an int n that stands for the ids below n.
    Each text is laid out once as words, with its separator; a block is one
    word gather per column and one drop of the pad bytes.
    """
    ends = [","] * (len(columns) - 1) + ["\n"]
    tables = [_id_table(texts, end) if isinstance(texts, int) else _table(texts, end)
              for (texts, _, _), end in zip(columns, ends)]
    for rows in edge_blocks(n_rows, _ROW_BLOCK):
        picks = [(words, starts, ids[rows] if via is None else ids[via[rows]])
                 for (words, starts), (_, ids, via) in zip(tables, columns)]
        if any(starts is not None for _, starts, _ in picks):
            data = _run_on(picks).view(np.uint8)
        else:
            data = np.hstack([words[i] for words, _, i in picks]).view(np.uint8).ravel()
        data = data[data != _PAD]
        handle.write(str(data, "utf-8", "surrogatepass"))
        del picks, data  # so that no block's arrays live on beside the next


def _run_on(picks) -> np.ndarray:
    """The picked texts' words in row order when a table runs its texts on:
    each column's words are gathered through an index over them."""
    spans = []
    for words, starts, i in picks:
        i = i.astype(np.intp)
        if starts is None:
            spans.append((words.ravel(), i * words.shape[1], np.full(i.size, words.shape[1])))
        else:
            first = starts[i].astype(np.intp)
            spans.append((words, first, starts[i + 1] - first))
    counts = np.column_stack([c for _, _, c in spans])
    stops = counts.cumsum().reshape(counts.shape)
    block = np.empty(int(stops[-1, -1]), np.uint64)
    for j, (words, first, c) in enumerate(spans):
        within = np.arange(c.sum())
        within -= np.repeat(np.cumsum(c) - c, c)
        at = np.repeat(stops[:, j] - c, c)
        at += within
        first = np.repeat(first, c)
        first += within
        del within
        block[at] = words[first]
    return block


def write_estimates(handle, report: EstimateReport, task_names: tuple[str, ...]) -> None:
    """Write ``task,label,margin`` rows, one per task in id order.  Tasks
    without names are named by their ids."""
    n_tasks = report.labels.size
    if task_names:
        check_length((len(task_names),), n_tasks, "task names", "task")
    handle.write("task,label,margin\n")
    write_rows(handle, n_tasks, [(_csv_fields(task_names) or n_tasks, np.arange(n_tasks), None),
                                  (_SIGNS, report.labels, None),
                                  (*_spelled(report.margins), None)])


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

    A ``Dataset`` refuses bad columns when it is built.  What the file adds
    is refused here with ``ParameterError`` before the file is opened:
    names that the locale's encoding cannot hold or that would load back
    differently, and reliabilities without truth labels.
    """
    import locale

    graph = dataset.graph
    encoding = locale.getpreferredencoding(False)
    tasks, workers = graph.edges[:, 0], graph.edges[:, 1]
    columns = []
    for names, n, ids, what in ((dataset.task_names, graph.n_tasks, tasks, "task"),
                                (dataset.worker_names, graph.n_workers, workers, "worker")):
        _check_names(names, what, encoding)
        columns.append((_csv_fields(names) or n, ids, None))
    columns.append((_SIGNS, dataset.answers.answers, None))
    if dataset.truth_labels is not None:
        columns.append((_SIGNS, dataset.truth_labels, tasks))
    if dataset.reliabilities is not None:
        if dataset.truth_labels is None:
            raise ParameterError("reliabilities need truth labels: their column comes after "
                                 "the truth column")
        columns.append((*_spelled(dataset.reliabilities), workers))
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

    tasks, workers = graph.edges[keep, 0], graph.edges[keep, 1]
    kept_workers = np.flatnonzero(np.bincount(workers, minlength=graph.n_workers))
    remap = np.full(graph.n_workers, -1, dtype=np.int64)
    remap[kept_workers] = np.arange(kept_workers.size)
    new_edges = column_edges(tasks, remap[workers])
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
