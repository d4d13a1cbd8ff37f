"""Row-by-row CSV ingest, kept as the oracle for ``dataio.load_dataset``.

This is the reader ``load_dataset`` used before it converted blocks of lines
in one numpy call: ``csv.reader`` splits each record and ``float`` converts
each feature cell, one at a time. ``load_dataset`` must return the same
feature bytes, label ids and names, feature names and ``IngestReport`` for
every input, and raise the same exception with the same message.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

from idsaug.dataio import DEFAULT_LABEL_COLUMN, Dataset, IngestReport, _label_ids
from idsaug.errors import DataError, SchemaError


class _DecodeWatch:
    """The lines of a text file opened with ``errors="surrogateescape"``. A
    line that held a byte that is not UTF-8 (now a lone surrogate) is read
    as cp1252 and counted in ``recoded``; one that cp1252 cannot read either
    passes unchanged and is counted in ``undecodable``."""

    _SURROGATE = re.compile("[\udc80-\udcff]")

    def __init__(self, fh):
        self.fh = fh
        self.recoded = 0
        self.undecodable = 0

    def __iter__(self):
        for line in self.fh:
            if self._SURROGATE.search(line):
                try:
                    line = line.encode("utf-8", "surrogateescape").decode("cp1252")
                    self.recoded += 1
                except UnicodeDecodeError:
                    self.undecodable += 1
            yield line


def load_dataset(path, label_column: str = DEFAULT_LABEL_COLUMN,
                 ignore_columns: tuple[str, ...] = ()) -> tuple[Dataset, IngestReport]:
    """Read a header-bearing CSV of numeric features plus one label column.

    A line that is not UTF-8 is read as cp1252, and a row that holds one is
    counted as ``recoded``. Rows with a wrong field count, non-numeric or
    non-finite feature values, or a byte that neither encoding reads
    (``undecodable``), are dropped and counted by reason. Columns named in
    ``ignore_columns`` (like a provenance column) are skipped entirely.
    """
    report = IngestReport()
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = _DecodeWatch(fh)
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, no header row")
        if lines.undecodable:
            raise SchemaError(f"{path}: header row holds a byte that is neither UTF-8 "
                              "nor cp1252")
        names = [h.strip() for h in header]
        if label_column not in names:
            raise SchemaError(f"{path}: label column {label_column!r} not found")
        label_idx = names.index(label_column)
        skip = {label_idx} | {i for i, n in enumerate(names) if n in ignore_columns}
        feature_names = [n for i, n in enumerate(names) if i not in skip]

        rows: list[list[float]] = []
        labels: list[str] = []
        # the counts up to the last record: a record that moves one holds such a line
        recoded_seen, undecodable_seen = lines.recoded, lines.undecodable
        for raw in reader:
            if not raw:
                continue
            report.rows_read += 1
            recoded, recoded_seen = lines.recoded != recoded_seen, lines.recoded
            if lines.undecodable != undecodable_seen:
                undecodable_seen = lines.undecodable
                report.drop("undecodable")
                continue
            report.recoded += recoded
            if len(raw) != len(names):
                report.drop("wrong_field_count")
                continue
            values = []
            bad_reason = None
            for i, cell in enumerate(raw):
                if i in skip:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    bad_reason = "non_numeric"
                    break
                if not math.isfinite(value):
                    bad_reason = "non_finite"
                    break
                values.append(value)
            if bad_reason is not None:
                report.drop(bad_reason)
                continue
            rows.append(values)
            labels.append(raw[label_idx].strip())

    if not rows:
        dropped = "".join(f"; dropped {reason}: {count}"
                          for reason, count in sorted(report.dropped.items()))
        raise DataError(f"{path}: no rows left after filtering "
                        f"({report.rows_read} rows read{dropped})")
    report.rows_kept = len(rows)
    ids, label_names = _label_ids(labels)
    features = np.array(rows, dtype=np.float64)
    return Dataset(features, ids, label_names, feature_names), report
