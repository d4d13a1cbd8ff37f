"""Flow-feature CSV ingest, label grouping, Min-Max scaling, splitting, and
the run-directory tables: binary records with a checked CSV twin each."""

from __future__ import annotations

import collections
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    FormatError,
    InputDataError,
    MappingError,
    SchemaError,
    ShapeError,
)
from .nncore.checkpoint import atomic_file, read_record, write_record
from .seeding import as_generator

DEFAULT_LABEL_COLUMN = "Label"
ORIGINAL = "original"  # the provenance tag of a row read from the input dataset
TABLE_MAGIC = b"IDSAUG-TABLE-2\n"
_WRITE_CELLS = 1 << 15  # float cells formatted per write
_FAST_TAIL_BYTES = 128  # the longest label/provenance tail the fast path pads to
# a run table's float cell: 17 significant digits round-trip every float64
CELL_FORMAT = "%.17g"

# CICIDS2017 sub-label grouping: attack variants collapse into one family
# label each, benign and single-variant attacks map to themselves.
DEFAULT_LABEL_MAP = {
    "BENIGN": "BENIGN",
    "DoS": "DoS/DDoS",
    "DoS Hulk": "DoS/DDoS",
    "DDoS": "DoS/DDoS",
    "DoS GoldenEye": "DoS/DDoS",
    "DoS slowloris": "DoS/DDoS",
    "DoS Slowhttptest": "DoS/DDoS",
    "PortScan": "PortScan",
    "FTP-Patator": "Patator",
    "SSH-Patator": "Patator",
    "Web Attack - Brute Force": "Web Attack",
    "Web Attack - XSS": "Web Attack",
    "Web Attack - Sql Injection": "Web Attack",
    "Web Attack – Brute Force": "Web Attack",
    "Web Attack – XSS": "Web Attack",
    "Web Attack – Sql Injection": "Web Attack",
    "Bot": "Bot",
    "Infiltration": "Infiltration",
    "Heartbleed": "Heartbleed",
}


@dataclass
class Dataset:
    """Numeric flow features with per-row class ids and an id-name mapping."""

    features: np.ndarray
    labels: np.ndarray
    label_names: dict[int, str]
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ShapeError("labels length must equal the number of feature rows")
        if not self.feature_names:
            self.feature_names = [f"f{i}" for i in range(self.features.shape[1])]
        if self.labels.size:
            lo, hi = int(self.labels.min()), int(self.labels.max())
            # ids in 0 .. len(label_names) - 1 are counted, not sorted; other
            # ids (unnamed ones, or names with gaps) are rare
            present = (np.flatnonzero(np.bincount(self.labels))
                       if 0 <= lo and hi < len(self.label_names) else np.unique(self.labels))
            missing = set(present.tolist()) - set(self.label_names)
            if missing:
                raise DataError(f"label ids {sorted(missing)} have no name")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> dict[int, int]:
        ids, counts = np.unique(self.labels, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    def rows_of(self, class_id: int) -> np.ndarray:
        return np.nonzero(self.labels == class_id)[0]

    def name_of(self, class_id: int) -> str:
        return self.label_names[int(class_id)]

    def id_of(self, name: str) -> int:
        for class_id, class_name in self.label_names.items():
            if class_name == name:
                return class_id
        raise DataError(f"no class named {name!r}")


@dataclass
class IngestReport:
    rows_read: int = 0
    rows_kept: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    recoded: int = 0  # rows read as cp1252, since their bytes were not UTF-8

    def drop(self, reason: str, count: int = 1):
        if count:
            self.dropped[reason] = self.dropped.get(reason, 0) + count

    @property
    def rows_dropped(self) -> int:
        return sum(self.dropped.values())

    def summary(self) -> str:
        lines = [f"rows read: {self.rows_read}", f"rows kept: {self.rows_kept}"]
        if self.recoded:
            lines.append(f"recoded (cp1252): {self.recoded}")
        for reason in sorted(self.dropped):
            lines.append(f"dropped ({reason}): {self.dropped[reason]}")
        return "\n".join(lines)


@dataclass
class NormalizationParams:
    """Per-feature ranges learned from the training partition only."""

    x_min: np.ndarray
    x_max: np.ndarray

    def __post_init__(self):
        self.x_min = np.asarray(self.x_min, dtype=np.float64)
        self.x_max = np.asarray(self.x_max, dtype=np.float64)
        if self.x_min.shape != self.x_max.shape:
            raise ShapeError("x_min and x_max must have the same shape")
        if np.any(self.x_max < self.x_min):
            raise InputDataError("x_max must be >= x_min for every feature")


@dataclass
class SplitSpec:
    train_ratio: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_ratio < 1.0:
            raise ConfigError(f"train_ratio must be inside (0, 1), got {self.train_ratio}")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _label_ids(label_strings: list[str]) -> tuple[np.ndarray, dict[int, str]]:
    names = sorted(set(label_strings))
    name_to_id = {name: i for i, name in enumerate(names)}
    ids = np.array([name_to_id[s] for s in label_strings], dtype=np.int64)
    return ids, {i: name for name, i in name_to_id.items()}


# input lines per ingest block: numpy converts a block's cells in one call,
# so ingest holds one block of the file besides the arrays it returns
INGEST_BLOCK = 1024
# bytes per read of the input file: about the lines a block still wants, at
# the mean line length so far, within these bounds
_READ_MIN, _READ_MAX = 1 << 16, 1 << 24

_SURROGATE = re.compile("[\udc80-\udcff]")
# characters that numpy would read otherwise than csv.reader and float(): a
# quote (csv quoting), NUL (refused by csv.reader before Python 3.11) and the
# separators \x1c-\x1f, which numpy strips from around a number and float()
# does not
_PER_ROW_CHARS = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")
_PER_ROW_BYTES = tuple(c.encode() for c in _PER_ROW_CHARS)


def _decode(line: str) -> str | None:
    """A line read with ``errors="surrogateescape"``: the line itself when its
    bytes are UTF-8; else those bytes (each now a lone surrogate) read as
    cp1252, the encoding of CICIDS2017's distributed files, as a new string;
    None when cp1252 leaves one of them undefined. isascii is a flag check
    on CPython strings, so a clean line costs no search."""
    if line.isascii() or _SURROGATE.search(line) is None:
        return line
    try:
        return line.encode("utf-8", "surrogateescape").decode("cp1252")
    except UnicodeDecodeError:
        return None


class _Lines:
    """The lines of an iterator through ``_decode``, counted, flagging a
    recoded line and an undecodable one (which passes unchanged)."""

    def __init__(self, lines):
        self.lines = lines
        self.read = 0
        self.recoded = self.undecodable = False

    def __iter__(self):
        for line in self.lines:
            self.read += 1
            text = _decode(line)
            if text is None:
                self.undecodable = True
                yield line
            else:
                self.recoded = self.recoded or text is not line
                yield text


class _Input:
    """A binary file after its UTF-8 byte-order mark, read once: as blocks of
    raw lines, which ``_Ingest.fast`` parses, or as text lines one at a
    time, for the header, ``_Ingest.text`` and the per-row rules.

    A raw block ends at a ``\\n``, so it never splits a ``\\r\\n``; in a read
    that holds no ``\\n``, at a ``\\r`` that is not the read's last byte, so a
    file of ``\\r`` line ends is read a block at a time too. Text lines end
    where a ``newline=""`` text reader ends them, at ``\\n``, ``\\r`` or
    ``\\r\\n``, and are decoded as UTF-8 with ``errors="surrogateescape"``. The
    text lines of a block ``push``ed back are read before the rest of the file."""

    def __init__(self, fh):
        self.fh = fh
        self._load(fh.read(3))
        self.pos = 3 if self.buf == b"\xef\xbb\xbf" else 0
        self.read_bytes = self.read_lines = 0  # handed out in blocks
        self.pending: collections.deque[str] = collections.deque()

    def _load(self, buf: bytes):
        """Make ``buf`` the bytes being read, from its start."""
        self.buf, self.pos, self.view = buf, 0, memoryview(buf)
        # the offset of each line end in buf, and how many of them are handed out
        data = np.frombuffer(buf, dtype=np.uint8)
        self.ends = np.flatnonzero(data == ord("\n"))
        if not len(self.ends):
            self.ends = np.flatnonzero(data[:-1] == ord("\r"))
        self.used = 0

    def block(self, lines: int) -> bytes:
        """The next ``lines`` lines (fewer at the end of the file) as one bytes
        object; empty once the file is read."""
        parts, wanted = [], lines
        while True:
            ends = self.ends[self.used:self.used + lines]
            if len(ends) == lines:
                end = int(ends[-1]) + 1
                parts.append(self.view[self.pos:end])
                self.pos, self.used, lines = end, self.used + lines, 0
                break
            parts.append(self.buf[self.pos:])  # a copy, so the read it ends is freed
            lines -= len(ends)
            mean = self.read_bytes // max(self.read_lines, 1)
            self._load(self.fh.read(min(max(_READ_MIN, lines * mean), _READ_MAX)))
            if not self.buf:
                break
        block = b"".join(parts)
        self.read_bytes += len(block)
        self.read_lines += wanted - lines
        return block

    def push(self, block: bytes):
        self.pending.extend(line.decode("utf-8", "surrogateescape")
                            for line in block.splitlines(keepends=True))

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if not self.pending:
            self.push(self.block(1))
            if not self.pending:
                raise StopIteration
        return self.pending.popleft()


class _Ingest:
    """The rows ``load_dataset`` has kept so far, block by block, and its report.

    Kept rows fill the next rows of arrays that grow in place, an eighth at a
    time, and shrink in place at the end, so the features are never held
    twice."""

    def __init__(self, path, n_fields: int, label_idx: int, feature_cols: list[int],
                 source: _Input):
        self.path = path
        self.source = source
        self.n_fields = n_fields
        self.label_idx = label_idx
        self.feature_cols = feature_cols
        # the feature cells among a row's n_fields cells: a slice, so a view,
        # when they are adjacent
        first = feature_cols[0] if feature_cols else 0
        adjacent = feature_cols == list(range(first, first + len(feature_cols)))
        self.columns = slice(first, first + len(feature_cols)) if adjacent else feature_cols
        self.report = IngestReport()
        self.features = np.empty((0, len(feature_cols)))
        self.label_ids = np.empty(0, dtype=np.int64)
        self.n_kept = 0
        # label (as read, or stripped) -> id, in order of first sight; a
        # missing label gets the next id. A label seen only on rows that were
        # not kept may hold an id too: result names kept rows' labels only
        self.label_index: collections.defaultdict[str, int] = collections.defaultdict()
        self.label_index.default_factory = self.label_index.__len__
        # numpy reads the label and the ignored columns through these; an
        # ignored cell's value is never used
        self.converters = {i: len for i in range(n_fields) if i not in feature_cols}
        self.converters[label_idx] = self.label_index.__getitem__

    def read(self):
        """Every block of the source: raw blocks through ``fast``, and the text
        lines of a block it refuses through ``text`` or else ``per_row``."""
        source = self.source
        while True:
            if source.pending:
                pending = source.pending
                block = [pending.popleft() for _ in range(min(INGEST_BLOCK, len(pending)))]
                if not self.text(block):
                    self.per_row(block, source)
            elif raw := source.block(INGEST_BLOCK):
                if not self.fast(raw):
                    source.push(raw)
            else:
                return

    def keep(self, features: np.ndarray, ids):
        at, end = self.n_kept, self.n_kept + len(features)
        if end > len(self.label_ids):
            # an eighth more than held, so at most an eighth spare at the end
            rows = max(end, len(self.label_ids) * 9 // 8)
            self.features.resize((rows, self.features.shape[1]), refcheck=False)
            self.label_ids.resize(rows, refcheck=False)
        self.features[at:end] = features
        self.label_ids[at:end] = ids
        self.n_kept = end

    def convert(self, lines, encoding: str) -> bool:
        """Convert the rows of ``lines`` in one numpy call, which also checks
        that each has ``n_fields`` fields and names its label. False, with no
        row recorded, when numpy refuses them."""
        try:
            # an explicit encoding: numpy before 2.0 defaults to "bytes", which
            # hands the converters bytes, not str
            cells = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                               converters=self.converters, ndmin=2, encoding=encoding)
        except ValueError:  # a bare \r, a field count that changes, a non-numeric cell
            return False
        if cells.shape[1] != self.n_fields:
            return False
        features, ids = cells[:, self.columns], cells[:, self.label_idx]
        n_read = len(cells)
        # a finite total (no NaN, no Inf, no overflow) clears every row at once
        with np.errstate(over="ignore", invalid="ignore"):
            total = features.sum()
        if not np.isfinite(total):
            finite = np.isfinite(features).all(axis=1)
            features, ids = features[finite], ids[finite]
            self.report.drop("non_finite", n_read - len(ids))
        self.keep(features, ids)
        self.report.rows_read += n_read
        return True

    def fast(self, block: bytes) -> bool:
        """Convert a raw block from its bytes. False, with no row recorded,
        when it is not ASCII, holds one of ``_PER_ROW_CHARS``, or numpy
        refuses it."""
        # numpy warns on a block of blank lines; the per-row rules read it
        if (not block.isascii() or block.isspace()
                or any(c in block for c in _PER_ROW_BYTES)):
            return False
        return self.convert(io.BytesIO(block), encoding="latin1")  # the block is ASCII

    def text(self, block: list[str]) -> bool:
        """Convert the text lines of ``block``, each read through ``_decode``,
        less those that neither encoding reads. False, with nothing recorded,
        when the block needs the per-row rules or numpy refuses it."""
        if any(c in "".join(block) for c in _PER_ROW_CHARS):
            return False
        decoded = [_decode(line) for line in block]
        lines = [line for line in decoded if line is not None]
        # as in fast, blank lines alone go to the per-row rules
        if not any(map(str.strip, lines)) or not self.convert(lines, encoding="utf-8"):
            return False
        n_undecodable = len(block) - len(lines)
        self.report.rows_read += n_undecodable
        self.report.recoded += sum(new is not old and new is not None
                                   for new, old in zip(decoded, block))
        self.report.drop("undecodable", n_undecodable)
        return True

    def per_row(self, block: list[str], rest):
        """The rules one csv record at a time, in file order, over the records
        of ``block``; one that a quote carries past the block reads on into
        ``rest``."""
        lines = _Lines(itertools.chain(block, rest))
        rows: list[list[float]] = []
        labels: list[str] = []
        report = self.report
        for raw in csv.reader(lines):
            if raw:
                report.rows_read += 1
                report.recoded += lines.recoded and not lines.undecodable
                reason, values = self._check(raw, lines.undecodable)
                if reason is None:
                    rows.append(values)
                    labels.append(raw[self.label_idx].strip())
                else:
                    report.drop(reason)
            lines.recoded = lines.undecodable = False
            if lines.read >= len(block):
                break
        self.keep(np.array(rows, dtype=np.float64).reshape(len(rows), len(self.feature_cols)),
                  [self.label_index[s] for s in labels])

    def _check(self, raw: list[str], undecodable: bool):
        """A record's drop reason and None, or None and its feature values;
        the first bad cell in column order names the reason."""
        if undecodable:
            return "undecodable", None
        if len(raw) != self.n_fields:
            return "wrong_field_count", None
        values = []
        for i in self.feature_cols:
            try:
                value = float(raw[i])
            except ValueError:
                return "non_numeric", None
            if not math.isfinite(value):
                return "non_finite", None
            values.append(value)
        return None, values

    def result(self, feature_names: list[str]) -> tuple[Dataset, IngestReport]:
        if not self.n_kept:
            dropped = "".join(f"; dropped {reason}: {count}"
                          for reason, count in sorted(self.report.dropped.items()))
            raise DataError(f"{self.path}: no rows left after filtering "
                            f"({self.report.rows_read} rows read{dropped})")
        read_as = list(self.label_index)
        kept = self.label_ids[:self.n_kept]
        # the ids of kept rows' labels -> ids in sorted order of their stripped names
        seen = np.flatnonzero(np.bincount(kept, minlength=len(read_as)))
        names = sorted({read_as[i].strip() for i in seen})
        name_ids = {name: i for i, name in enumerate(names)}
        ids = np.zeros(len(read_as), dtype=np.int64)
        ids[seen] = [name_ids[read_as[i].strip()] for i in seen]
        # shrink in place; no view of the array is left
        features = self.features
        features.resize((self.n_kept, features.shape[1]), refcheck=False)
        self.report.rows_kept = self.n_kept
        return (Dataset(features, ids[kept], dict(enumerate(names)), feature_names),
                self.report)


def load_dataset(path, label_column: str = DEFAULT_LABEL_COLUMN,
                 ignore_columns: tuple[str, ...] = ()) -> tuple[Dataset, IngestReport]:
    """Read a header-bearing CSV of numeric features plus one label column.

    A line that is not UTF-8 is read as cp1252 and counted as ``recoded``.
    Rows with a wrong field count, non-numeric or non-finite feature values,
    or a byte that neither encoding reads (``undecodable``), are dropped and
    counted by reason. Columns named in ``ignore_columns`` (like a
    provenance column) are skipped entirely. A leading UTF-8 byte-order mark
    is skipped.

    The file is read once, in binary blocks of ``INGEST_BLOCK`` lines, and
    each block goes to one numpy parse, which reads the labels and checks
    the field counts too; rows holding NaN or +-Inf are dropped by a mask.
    A block that is ASCII and holds none of ``_PER_ROW_CHARS`` is parsed
    from its bytes. Any other block is split into text lines, each decoded
    as above; the undecodable ones are dropped and the rest parsed the same
    way. Only a block that numpy refuses there too (a non-numeric cell, a
    wrong field count, a whitespace-only line), one with a quote and one of
    blank lines alone take the per-row rules, record by record in file
    order, so every block gives the same rows and counts.
    """
    with open(path, "rb") as fh:
        source = _Input(fh)
        lines = _Lines(source)
        header = next(csv.reader(lines), None)
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
        feature_cols = [i for i in range(len(names)) if i not in skip]
        ingest = _Ingest(path, len(names), label_idx, feature_cols, source)
        ingest.read()
    return ingest.result([names[i] for i in feature_cols])


def _csv_line(fields) -> str:
    """``fields`` as one ``csv.writer`` row, line terminator included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def write_csv(path, header: list, rows):
    """Write ``header`` and ``rows`` through ``csv.writer`` into ``atomic_file``;
    each float cell is written as ``repr(float(cell))``, the shortest text
    that round-trips. These are reports, read by people and a few cells
    long, so they keep the short text; run tables, written in bulk by
    ``save_dataset``, use ``CELL_FORMAT`` instead."""
    with atomic_file(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(cell)) if isinstance(cell, (float, np.floating))
                             else cell for cell in row])


@dataclass
class Table(Dataset):
    """A Dataset read from a run table's record, with the CSV twin it was
    checked against and that CSV's sha256 as the record holds it."""

    csv_path: str = ""
    csv_sha256: str = ""


def _check_prefix(dataset: Dataset, provenance, prefix: Table):
    """Raises unless ``dataset`` starts with ``prefix``'s rows, each tagged
    ``ORIGINAL``."""
    head = slice(0, prefix.n_rows)
    if not (dataset.n_features == prefix.n_features and dataset.n_rows >= prefix.n_rows
            and list(dataset.feature_names) == list(prefix.feature_names)
            and dataset.label_names == prefix.label_names
            and np.array_equal(dataset.labels[head], prefix.labels)
            # bit patterns: -0.0 and 0.0 have different CSV text
            and np.array_equal(dataset.features[head].view(np.int64),
                               prefix.features.view(np.int64))
            and provenance is not None and np.all(provenance[head] == ORIGINAL)):
        raise DataError(f"the table's first rows are not the rows of {prefix.csv_path}, "
                        f"each tagged {ORIGINAL!r}")


# The fast path of save_dataset: CELL_FORMAT text for the cells of a min-max
# scaled table, +0.0, 1.0 and [1e-4, 1), computed with numpy. Each cell is
# three little-endian 8-byte words, 24 bytes: the head (an optional comma,
# "0." and the zeros after it, then the leading digit, right-aligned and
# NUL-padded) and the 16 digits after the leading one, each trailing zero
# turned to NUL as %g drops it. Removing the NULs leaves the text.
_UNIT_LOW, _UNIT_HIGH = np.array([1e-4, 1.0]).view(np.int64)
_POW10 = np.array([float(10 ** i) for i in range(23)])  # each one exact
_SPLIT = float(2 ** 27 + 1)  # Veltkamp's splitter: a float64 into two 26-bit halves


def _head_words(comma: str) -> np.ndarray:
    """The head word at ``10 * kind + lead``: ``lead`` alone for kind 0, else
    ``0.``, ``kind - 1`` zeros and ``lead``."""
    heads = [comma + ("0." + "0" * (kind - 1) if kind else "") + str(lead)
             for kind in range(5) for lead in range(10)]
    return np.array([h.encode().rjust(8, b"\0") for h in heads], dtype="S8").view("<u8")


_HEADS, _FIRST_HEADS = _head_words(","), _head_words("")
_GROUPS = np.arange(10_000)
# the four ASCII digits of each group 0000..9999, in the low half of a word
_DIGITS4 = (np.stack([_GROUPS // 1000, _GROUPS // 100 % 10, _GROUPS // 10 % 10, _GROUPS % 10],
                     axis=1).astype(np.uint8) + ord("0")).view("<u4").ravel().astype("<u8")
_ZEROS4 = sum((_GROUPS % 10 ** i == 0).astype(np.intp) for i in range(1, 5))  # trailing zeros
# the two digit words' mask at each count of trailing zeros, 0..16
_KEEP = np.where(np.arange(16) < 16 - np.arange(17)[:, None], 0xFF, 0).astype(np.uint8).view("<u8")


def _unit_rows(block: np.ndarray) -> np.ndarray:
    """Which rows of ``block`` hold only ``+0.0``, ``1.0`` and cells in
    ``[1e-4, 1)``: a non-negative float's bits order as its value does, and
    every other float (``-0.0``, negative, NaN) falls outside the bounds."""
    bits = block.view(np.int64)
    return ((bits == 0) | ((bits >= _UNIT_LOW) & (bits <= _UNIT_HIGH))).all(axis=1)


def _times_pow10(x: np.ndarray, exponent: np.ndarray):
    """``x * 10**exponent`` exactly, as ``prod + err``: Dekker's TwoProduct,
    exact since ``10**exponent`` is an exact float64 for ``exponent <= 22``."""
    power = _POW10[exponent]
    prod = x * power
    t = _SPLIT * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    t = _SPLIT * power
    p_hi = t - (t - power)
    p_lo = power - p_hi
    return prod, ((x_hi * p_hi - prod) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo


def _unit_cells(block: np.ndarray) -> np.ndarray:
    """``CELL_FORMAT % x`` for each cell of ``block``, a C-ordered float64
    block of which ``_unit_rows`` holds for every row, byte for byte: a
    ``(rows, 24 * columns)`` array of the cells' text, NUL-padded, a comma
    before every cell but each row's first.

    17 significant digits of ``x`` with decimal exponent ``k`` are the
    integer nearest ``x * 10**(16 - k)``, ties to even, as CPython rounds.
    That product is formed exactly, so the digits are exact. ``k`` starts
    as ``floor(log10(x))``, which can be one off next to a power of ten; the
    exact product says so by falling outside ``[1e16, 1e17)``. No float64 in
    ``[1e-4, 1)`` rounds up to ``10**(k + 1)``: ``1.0`` is exact and float64
    ``0.1``, ``0.01`` and ``0.001`` lie above the powers they stand for, so
    every double below a power of ten is more than half a 17th digit from
    it."""
    rows, columns = block.shape
    x = block.ravel()
    zero = x == 0.0
    x = x + zero  # formatted as 1.0, then headed "0" with its digits dropped
    k = np.floor(np.log10(x)).astype(np.intp)
    prod, err = _times_pow10(x, 16 - k)
    low = (prod < 1e16) | ((prod == 1e16) & (err < 0))
    high = (prod > 1e17) | ((prod == 1e17) & (err >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        k[off] += high[off].astype(np.intp) - low[off]
        prod[off], err[off] = _times_pow10(x[off], 16 - k[off])
    # prod >= 1e16 > 2**53 is an even integer, so rounding err half to even
    # rounds prod + err half to even
    digits = prod.astype(np.int64) + np.rint(err).astype(np.int64)
    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    high8 = rest // 10 ** 8
    low8 = rest - high8 * 10 ** 8
    groups = [high8 // 10 ** 4, high8 % 10 ** 4, low8 // 10 ** 4, low8 % 10 ** 4]
    words = np.empty((x.size, 3), "<u8")
    head = np.where(zero, 0, lead) - 10 * k  # kind -k, 0 for "0" and "1"
    words[:, 0] = _HEADS[head]
    words[::columns, 0] = _FIRST_HEADS[head[::columns]]
    words[:, 1] = _DIGITS4[groups[0]] | _DIGITS4[groups[1]] << 32
    words[:, 2] = _DIGITS4[groups[2]] | _DIGITS4[groups[3]] << 32
    # trailing zeros start in the last group; about a tenth of cells have any
    ends = np.flatnonzero(groups[3] % 10 == 0)
    if ends.size:
        zeros = _ZEROS4[groups[3][ends]]
        for i, full in ((2, 4), (1, 8), (0, 12)):
            zeros += (zeros == full) * _ZEROS4[groups[i][ends]]
        words[ends, 1:] &= _KEEP[zeros]
    return words.view(np.uint8).reshape(rows, 24 * columns)


def _format_rows(block: np.ndarray, codes: np.ndarray, tails: list[str]) -> bytes:
    """Each row of ``block`` as ``CELL_FORMAT`` cells joined by commas, then
    ``tails[code]``, in UTF-8. A row that ``_unit_rows`` admits, whose tail
    holds no NUL and is at most ``_FAST_TAIL_BYTES`` long (every fast row's
    tail is padded to the longest), is formatted by ``_unit_cells``; every
    other row is one ``%`` of its line format. Runs of each kind are joined
    in row order."""
    columns = block.shape[1]
    encoded = [tail.encode("utf-8") for tail in tails]
    narrow = np.array([len(tail) <= _FAST_TAIL_BYTES and b"\0" not in tail for tail in encoded])
    fast = (narrow[codes] & _unit_rows(block)) if columns else np.zeros(len(codes), bool)
    if fast.any():
        table = np.array([tail if ok else b"" for tail, ok in zip(encoded, narrow)])
        buf = np.empty((int(fast.sum()), 24 * columns + table.itemsize), np.uint8)
        buf[:, :24 * columns] = _unit_cells(block[fast])
        buf[:, 24 * columns:] = table.view(np.uint8).reshape(len(tails), -1)[codes[fast]]
    cells = ",".join([CELL_FORMAT] * columns)
    formats = {c: cells + tails[c].replace("%", "%%") for c in set(codes[~fast].tolist())}
    edges = [0, *(np.flatnonzero(fast[1:] != fast[:-1]) + 1).tolist(), len(codes)]
    pieces, done = [], 0  # done: the fast rows joined so far
    for start, stop in zip(edges, edges[1:]):
        if fast[start]:
            pieces.append(buf[done:done + stop - start].tobytes().translate(None, b"\0"))
            done += stop - start
        else:
            pieces.append("".join(formats[c] % tuple(row) for row, c in zip(
                block[start:stop].tolist(), codes[start:stop].tolist())).encode("utf-8"))
    return b"".join(pieces)


def save_dataset(path, dataset: Dataset, label_column: str = DEFAULT_LABEL_COLUMN,
                 provenance: np.ndarray | None = None, prefix: Table | None = None) -> str:
    """Write a dataset back to CSV with full-precision floats; returns the
    sha256 of the bytes written.

    Each float is written as ``CELL_FORMAT % value``: 17 significant digits
    round-trip every float64 exactly, so save followed by load reproduces
    identical values. (``write_csv``'s shortest ``repr`` does too, but its
    search for the shortest digits costs about 40% more per cell, and a run
    table has millions of cells.) The bytes are those of a ``csv.writer``
    given each row's formatted floats, label and provenance: a formatted
    float never needs quoting, so a row is its cells, then the
    label/provenance tail as ``csv.writer`` writes it, made once per
    distinct pair.

    Rows are formatted in blocks of about ``_WRITE_CELLS`` cells. A row
    whose every cell is ``+0.0``, ``1.0`` or in ``[1e-4, 1)`` (every row of
    a min-max scaled run table) is formatted by numpy integer arithmetic
    (``_unit_cells``): the 17 digits are the correctly rounded integer
    nearest ``x * 10**(16 - k)``, found from that product formed exactly,
    so the text is the text ``%`` writes, byte for byte, at a fraction of
    its cost. Any other row (negatives, ``-0.0``, ``(0, 1e-4)``, ``> 1``,
    NaN, inf), and a row whose label/provenance tail holds a NUL or is
    longer than ``_FAST_TAIL_BYTES``, is one ``%`` of a line format, as
    before.

    ``prefix`` is a run table saved with every row tagged ``ORIGINAL`` (a
    split), whose rows ``dataset`` starts with under that tag: the training
    split of an augmented set. Its CSV, header included, is copied byte for
    byte and only the rows after it are formatted, after checking that the
    rows match and, once copied, that the CSV still has the sha256 of
    ``prefix``'s record. The bytes are the same as without ``prefix``. A
    failed check raises before the file is moved into place.
    """
    if provenance is not None and len(provenance) != dataset.n_rows:
        raise ShapeError("provenance length must equal the number of rows")
    if prefix is not None:
        _check_prefix(dataset, provenance, prefix)
    header = list(dataset.feature_names) + [label_column]
    if provenance is not None:
        header.append("provenance")
    first = 0 if prefix is None else prefix.n_rows
    codes, tails = _tail_codes(dataset, first, provenance)
    digest = hashlib.sha256()
    with atomic_file(path, "wb") as fh:
        def emit(data: bytes):
            digest.update(data)
            fh.write(data)

        if prefix is None:
            emit(_csv_line(header).encode("utf-8"))
        else:
            for block in _file_blocks(prefix.csv_path):
                emit(block)
            # hexdigest leaves the digest open for the rows after the prefix
            if digest.hexdigest() != prefix.csv_sha256:
                raise FormatError(f"{prefix.csv_path} no longer matches the fingerprint in "
                                  "its .tbl record")
        block_rows = max(1, _WRITE_CELLS // max(1, dataset.n_features))
        for start in range(first, dataset.n_rows, block_rows):
            stop = start + block_rows
            emit(_format_rows(np.ascontiguousarray(dataset.features[start:stop]),
                              codes[start - first:stop - first], tails))
    return digest.hexdigest()


def _tail_codes(dataset: Dataset, first: int, provenance) -> tuple[np.ndarray, list[str]]:
    """For the rows from ``first`` on: each row's index into ``tails``, the
    ``csv.writer`` text of every (label, provenance tag) pair they hold, led
    by the comma after the last float. Each run of equal tags is named once."""
    labels = np.asarray(dataset.labels[first:], dtype=np.int64)
    if provenance is None:
        tags, tag_codes = [None], np.zeros(len(labels), dtype=np.int64)
    else:
        tagged = np.asarray(provenance)[first:]
        starts = np.r_[0, np.flatnonzero(tagged[1:] != tagged[:-1]) + 1][:len(tagged)]
        index: dict[str, int] = {}
        runs = [index.setdefault(str(tag), len(index)) for tag in tagged[starts]]
        tags = list(index)
        tag_codes = np.repeat(np.array(runs, dtype=np.int64), np.diff(starts, append=len(tagged)))
    pairs, codes = np.unique(labels * len(tags) + tag_codes, return_inverse=True)
    # an empty first field stands for the comma after the last float
    lead = [""] if dataset.n_features else []
    tails = []
    for pair in pairs.tolist():
        tag = tags[pair % len(tags)]
        fields = lead + [dataset.label_names[pair // len(tags)]]
        tails.append(_csv_line(fields if tag is None else fields + [tag]))
    return codes, tails


def _record_path(path) -> str:
    return os.path.splitext(os.fspath(path))[0] + ".tbl"


def _file_blocks(path):
    """The bytes of the file at ``path``, in 1 MiB blocks."""
    with open(path, "rb") as fh:
        yield from iter(lambda: fh.read(1 << 20), b"")


def _file_sha256(path) -> str:
    """The sha256 of the file at ``path``."""
    digest = hashlib.sha256()
    for block in _file_blocks(path):
        digest.update(block)
    return digest.hexdigest()



def save_table(path, dataset: Dataset, provenance: np.ndarray | None = None,
               prefix: Table | None = None):
    """Write ``dataset`` to the CSV at ``path``, then its record beside it
    (``.tbl`` for ``.csv``): the features, the labels, both name lists and
    the sha256 of the CSV bytes. ``load_table`` reads the record alone; the
    CSV is its human-readable twin. Every run table's CSV has the feature
    columns, ``Label`` and ``provenance``; no ``provenance`` tags every row
    ``ORIGINAL``. ``prefix`` is ``save_dataset``'s."""
    if provenance is None:
        provenance = np.full(dataset.n_rows, ORIGINAL, dtype=object)
    csv_sha256 = save_dataset(path, dataset, provenance=provenance, prefix=prefix)
    metadata = {"csv_sha256": csv_sha256, "feature_names": list(dataset.feature_names),
                "label_names": {str(k): v for k, v in dataset.label_names.items()}}
    write_record(_record_path(path), TABLE_MAGIC, metadata,
                 arrays=[dataset.features, dataset.labels])


def load_table(path) -> Table:
    """The dataset ``save_table`` wrote for the CSV at ``path``, read from its
    record. The CSV is never parsed: one changed since it was written is
    refused."""
    meta, _, (features, labels) = read_record(_record_path(path), TABLE_MAGIC, n_arrays=2)
    if _file_sha256(path) != meta["csv_sha256"]:
        raise FormatError(f"{path} no longer matches the fingerprint in its .tbl record")
    return Table(features, labels.astype(np.int64),
                 {int(k): v for k, v in meta["label_names"].items()},
                 list(meta["feature_names"]), os.fspath(path), meta["csv_sha256"])


def load_label_map(path) -> dict[str, str]:
    """Two-column text file: sub-label, grouped label (comma separated)."""
    mapping: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if raw[0].strip().startswith("#"):
                continue
            if len(raw) != 2:
                raise SchemaError(f"{path}: line {line_no} needs exactly two columns")
            mapping[raw[0].strip()] = raw[1].strip()
    if not mapping:
        raise SchemaError(f"{path}: no mapping entries found")
    return mapping


def map_labels(dataset: Dataset, mapping: dict[str, str] | None = None) -> Dataset:
    """Regroup labels through ``mapping`` (defaults to the built-in grouping),
    which must cover every distinct label string."""
    if mapping is None:
        mapping = DEFAULT_LABEL_MAP
    old_names = [dataset.label_names[int(i)] for i in dataset.labels]
    unmapped = sorted({name for name in old_names if name not in mapping})
    if unmapped:
        raise MappingError(f"labels with no mapping entry: {unmapped}")
    new_strings = [mapping[name] for name in old_names]
    ids, label_names = _label_ids(new_strings)
    return Dataset(dataset.features, ids, label_names, dataset.feature_names)


def fit_minmax(train) -> NormalizationParams:
    features = train.features if isinstance(train, Dataset) else np.asarray(train, dtype=np.float64)
    if features.size == 0:
        raise DataError("cannot fit normalization on an empty dataset")
    return NormalizationParams(features.min(axis=0), features.max(axis=0))


def apply_minmax(params: NormalizationParams, data) -> np.ndarray:
    """Scale features to [0, 1]; constant features map to 0, outputs clamp.

    Clamping matters when training-set ranges are applied to test rows that
    fall outside them.
    """
    features = data.features if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.x_min.shape[0]:
        raise ShapeError(f"feature count {features.shape} does not match the "
                         f"{params.x_min.shape[0]} columns of the normalization params")
    span = params.x_max - params.x_min
    # divide rather than multiply by a reciprocal: a subnormal span would
    # overflow the reciprocal to inf and poison 0 * inf into NaN
    safe_span = np.where(span > 0.0, span, 1.0)
    scaled = (features - params.x_min) / safe_span
    return np.clip(np.where(span > 0.0, scaled, 0.0), 0.0, 1.0)


def _check_unit_range(features, context: str):
    """Reject features that are not finite or lie outside [0, 1]: the models
    expect min-max scaled input. This is the one input check of a training
    call; its batches are slices of the checked matrix."""
    if features.size and not np.isfinite(features).all():
        raise InputDataError(f"{context}: features contain NaN or Inf")
    if features.size and (features.min() < -1e-12 or features.max() > 1.0 + 1e-12):
        raise InputDataError(f"{context}: expected features normalized to [0, 1]")


def normalized_dataset(dataset: Dataset, params: NormalizationParams) -> Dataset:
    return Dataset(apply_minmax(params, dataset), dataset.labels.copy(),
                   dict(dataset.label_names), dataset.feature_names)


def stratified_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split per class with round-half-up train counts, deterministic per seed.

    A singleton class goes entirely to the training side with a warning so
    every class stays trainable.
    """
    rng = as_generator(spec.seed)
    train_idx_parts = []
    test_idx_parts = []
    for class_id in sorted(dataset.label_names):
        idx = dataset.rows_of(class_id)
        if idx.size == 0:
            continue
        perm = rng.permutation(idx)
        if idx.size == 1:
            warnings.warn(
                f"class {dataset.label_names[class_id]!r} has a single sample; "
                "keeping it in the training split"
            )
            take = 1
        else:
            take = round_half_up(spec.train_ratio * idx.size)
        train_idx_parts.append(perm[:take])
        test_idx_parts.append(perm[take:])
    train_idx = np.concatenate(train_idx_parts) if train_idx_parts else np.array([], dtype=np.int64)
    test_idx = np.concatenate(test_idx_parts) if test_idx_parts else np.array([], dtype=np.int64)

    def subset(idx):
        return Dataset(dataset.features[idx], dataset.labels[idx],
                       dict(dataset.label_names), dataset.feature_names)

    return subset(train_idx), subset(test_idx)


def conform_labels(dataset: Dataset, label_names: dict[int, str]) -> Dataset:
    """Re-index labels so ids follow a reference dictionary (matched by name).

    Needed when a partition's CSV is parsed with ``load_dataset``: a split
    that lost a class would otherwise renumber the remaining ones.
    """
    name_to_id = {name: class_id for class_id, name in label_names.items()}
    present = np.unique(dataset.labels)
    missing = [dataset.label_names[int(i)] for i in present
               if dataset.label_names[int(i)] not in name_to_id]
    if missing:
        raise MappingError(f"labels {missing} are not in the reference dictionary")
    trans = np.full(int(present.max()) + 1 if present.size else 1, -1, dtype=np.int64)
    for old_id in present:
        trans[int(old_id)] = name_to_id[dataset.label_names[int(old_id)]]
    new_labels = trans[dataset.labels] if dataset.n_rows else dataset.labels
    return Dataset(dataset.features, new_labels, dict(label_names), dataset.feature_names)


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash over feature bytes, labels, and the label dictionary."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.features).astype("<f8").tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).astype("<i8").tobytes())
    digest.update(json.dumps({str(k): v for k, v in sorted(dataset.label_names.items())}).encode())
    return digest.hexdigest()


def save_normalization(path, params: NormalizationParams):
    payload = {
        "format": "idsaug-norm-1",
        "x_min": [float(v) for v in params.x_min],
        "x_max": [float(v) for v in params.x_max],
    }
    with atomic_file(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_normalization(path) -> NormalizationParams:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "idsaug-norm-1":
        raise FormatError(f"{path}: not a normalization params file")
    return NormalizationParams(np.array(payload["x_min"]), np.array(payload["x_max"]))
