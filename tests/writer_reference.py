"""The whole-file bulk writers that ``save_dataset`` and ``crowdbp infer``
used before they wrote in row blocks.

They build one quoted table of Python strings per column with its separator
appended, spell every id with ``str`` and every reliability with ``repr``,
and gather whole-file index arrays.  The tests hold ``harness.write_rows``,
which lays each distinct field out once as UTF-8 words and writes a block
of rows from one word gather per column, to their bytes.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from crowdbp import Dataset, EstimateReport

WRITE_BLOCK = 1 << 16


def names_or_ids(names: tuple[str, ...], n: int) -> tuple[str, ...]:
    return names or tuple(map(str, range(n)))


def csv_fields(texts) -> list[str]:
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
    """Write CSV rows whose field j is ``texts_j[ids_j[row]]``."""
    ends = [","] * (len(columns) - 1) + ["\n"]
    tables = [np.array(csv_fields(texts), dtype=object) + end
              for (texts, _), end in zip(columns, ends)]
    n_rows = len(columns[0][1])
    for lo in range(0, n_rows, WRITE_BLOCK):
        cells = np.empty((min(n_rows - lo, WRITE_BLOCK), len(columns)), dtype=object)
        for j, (table, (_, ids)) in enumerate(zip(tables, columns)):
            cells[:, j] = table[ids[lo:lo + cells.shape[0]]]
        handle.write("".join(cells.ravel().tolist()))


def save_dataset_whole_file(dataset: Dataset, path: str) -> None:
    graph = dataset.graph
    names_t = names_or_ids(dataset.task_names, graph.n_tasks)
    names_w = names_or_ids(dataset.worker_names, graph.n_workers)
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


def write_estimates_whole_file(handle, report: EstimateReport,
                               task_names: tuple[str, ...]) -> None:
    """``crowdbp infer``'s ``task,label,margin`` output."""
    n_tasks = report.labels.size
    names = names_or_ids(task_names, n_tasks)
    rows = np.arange(n_tasks)
    labels, label_ids = formatted_values(report.labels, "+d")
    handle.write("task,label,margin\n")
    write_rows(handle, [(names, rows), (labels, label_ids),
                        (list(map(repr, report.margins.tolist())), rows)])
