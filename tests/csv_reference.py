"""Per-line reference implementations of the dataset CSV reader and writers.

These are the original row-at-a-time loops that ``harness.load_dataset``,
``harness.save_dataset`` and ``harness.write_estimates`` (the output of
``crowdbp infer``) replaced with bulk code.
The equivalence tests hold the bulk code to them: same ``Dataset`` fields,
same ``DataFormatError`` text and same output bytes.  Lines that are not
valid text in the file's encoding, and lines that ``csv.reader`` rejects,
fail as ``DataFormatError`` with their line number.  One U+FEFF at the very
start of a file, a UTF-8 byte-order mark, is dropped before line 1 is read.
"""
from __future__ import annotations

import csv
import re

import numpy as np

from crowdbp import AnswerMatrix, AssignmentGraph, DataFormatError, Dataset, EstimateReport
from crowdbp.harness import _ALPHABETS

# What undecodable bytes turn into when read with errors="surrogateescape".
_UNDECODED = re.compile("[\udc80-\udcff]")


def _parse_label(token: str, alphabet: str, line_no: int, what: str) -> int:
    try:
        return _ALPHABETS[alphabet][token.strip()]
    except KeyError:
        raise DataFormatError(
            f"line {line_no}: bad {what} {token!r} for alphabet {alphabet!r}"
        ) from None


def load_dataset_per_line(path: str) -> Dataset:
    alphabet = "pm1"
    task_ids: dict[str, int] = {}
    worker_ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    answers: list[int] = []
    truths: dict[int, int] = {}
    rels: dict[int, float] = {}
    n_cols: int | None = None
    seen: set[tuple[int, int]] = set()

    with open(path, newline="", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, start=1):
            if line_no == 1 and raw.startswith("\ufeff"):  # a byte-order mark
                raw = raw[1:]
            if _UNDECODED.search(raw):
                raise DataFormatError(f"line {line_no}: not valid {handle.encoding} text")
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("alphabet="):
                    alphabet = body[len("alphabet="):].strip()
                    if alphabet not in _ALPHABETS:
                        raise DataFormatError(f"line {line_no}: unknown alphabet {alphabet!r}")
                continue
            try:
                row = next(csv.reader([line]))
            except csv.Error as exc:
                raise DataFormatError(f"line {line_no}: {exc}") from None
            if n_cols is None:
                n_cols = len(row)
                if n_cols not in (3, 4, 5):
                    raise DataFormatError(
                        f"line {line_no}: expected 3-5 columns, got {len(row)}")
            elif len(row) != n_cols:
                raise DataFormatError(
                    f"line {line_no}: expected {n_cols} columns, got {len(row)}")
            t_name, w_name = row[0].strip(), row[1].strip()
            t = task_ids.setdefault(t_name, len(task_ids))
            w = worker_ids.setdefault(w_name, len(worker_ids))
            if (t, w) in seen:
                raise DataFormatError(
                    f"line {line_no}: duplicate answer for task {t_name!r}, "
                    f"worker {w_name!r}")
            seen.add((t, w))
            edges.append((t, w))
            answers.append(_parse_label(row[2], alphabet, line_no, "answer"))
            if n_cols >= 4:
                truth = _parse_label(row[3], alphabet, line_no, "truth label")
                if truths.setdefault(t, truth) != truth:
                    raise DataFormatError(
                        f"line {line_no}: conflicting truth for task {t_name!r}")
            if n_cols == 5:
                try:
                    rel = float(row[4])
                except ValueError:
                    raise DataFormatError(
                        f"line {line_no}: bad reliability {row[4]!r}") from None
                if not 0.0 <= rel <= 1.0:
                    raise DataFormatError(
                        f"line {line_no}: reliability {rel} outside [0, 1]")
                if rels.setdefault(w, rel) != rel:
                    raise DataFormatError(
                        f"line {line_no}: conflicting reliability for worker {w_name!r}")

    if not edges:
        raise DataFormatError(f"{path}: no answer rows found")
    graph = AssignmentGraph(len(task_ids), len(worker_ids), np.asarray(edges))
    truth_labels = None
    if n_cols >= 4:
        truth_labels = np.array([truths[t] for t in range(len(task_ids))])
    reliabilities = None
    if n_cols == 5:
        reliabilities = np.array([rels[w] for w in range(len(worker_ids))])
    return Dataset(
        graph=graph,
        answers=AnswerMatrix(np.asarray(answers)),
        truth_labels=truth_labels,
        reliabilities=reliabilities,
        task_names=tuple(task_ids),
        worker_names=tuple(worker_ids),
    )


def save_dataset_per_row(dataset: Dataset, path: str) -> None:
    names_t = dataset.task_names or tuple(str(i) for i in range(dataset.graph.n_tasks))
    names_w = dataset.worker_names or tuple(str(u) for u in range(dataset.graph.n_workers))
    a = dataset.answers.answers
    with open(path, "w", newline="") as handle:
        handle.write("# alphabet=pm1\n")
        writer = csv.writer(handle, lineterminator="\n")
        for e, (t, w) in enumerate(dataset.graph.edges):
            row = [names_t[t], names_w[w], f"{a[e]:+d}"]
            if dataset.truth_labels is not None:
                row.append(f"{dataset.truth_labels[t]:+d}")
                if dataset.reliabilities is not None:
                    row.append(repr(float(dataset.reliabilities[w])))
            writer.writerow(row)


def write_estimates_per_row(handle, report: EstimateReport, task_names: tuple[str, ...]) -> None:
    names = task_names or tuple(str(i) for i in range(report.labels.size))
    handle.write("task,label,margin\n")
    writer = csv.writer(handle, lineterminator="\n")
    for name, label, margin in zip(names, report.labels, report.margins):
        writer.writerow([name, f"{label:+d}", repr(float(margin))])
