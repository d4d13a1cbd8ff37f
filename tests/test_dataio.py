import csv
import hashlib
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idsaug import dataio
from idsaug.errors import (
    ConfigError,
    DataError,
    FormatError,
    InputDataError,
    MappingError,
    SchemaError,
    ShapeError,
)
from idsaug.nncore.checkpoint import read_record, write_record

from _ingest_oracle import load_dataset as oracle_load_dataset


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


TOY = "a,b,Label\n1.0,2.0,x\n3.0,4.0,y\n5.0,6.0,x\n"


class TestLoad:
    def test_toy_csv(self, tmp_path):
        ds, report = dataio.load_dataset(write_csv(tmp_path / "t.csv", TOY))
        assert ds.n_rows == 3 and ds.n_features == 2
        assert report.rows_kept == 3 and report.rows_dropped == 0
        assert sorted(ds.label_names.values()) == ["x", "y"]

    def test_non_numeric_row_dropped_and_counted(self, tmp_path):
        text = "a,b,Label\n1,2,x\noops,4,y\n5,6,x\n"
        ds, report = dataio.load_dataset(write_csv(tmp_path / "t.csv", text))
        assert ds.n_rows == 2
        assert report.dropped == {"non_numeric": 1}

    def test_non_finite_row_dropped(self, tmp_path):
        text = "a,b,Label\n1,2,x\ninf,4,y\n5,nan,x\n7,8,y\n"
        ds, report = dataio.load_dataset(write_csv(tmp_path / "t.csv", text))
        assert ds.n_rows == 2
        assert report.dropped == {"non_finite": 2}

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(SchemaError):
            dataio.load_dataset(write_csv(tmp_path / "t.csv", "a,b,Tag\n1,2,x\n"))

    def test_all_rows_filtered_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            dataio.load_dataset(write_csv(tmp_path / "t.csv", "a,b,Label\nbad,2,x\n"))

    def test_label_whitespace_trimmed(self, tmp_path):
        ds, _ = dataio.load_dataset(write_csv(tmp_path / "t.csv", "a,Label\n1,  x \n2,x\n"))
        assert list(ds.label_names.values()) == ["x"]

    @pytest.mark.parametrize("row, cell", [(b"3,4,A\xff\n", "label"),
                                           (b"3,4\xfe,B\n", "feature")])
    def test_row_with_an_undecodable_byte_dropped_and_counted(self, tmp_path, row, cell):
        # a line that is not UTF-8 is read as cp1252 and counted: byte 0xFF
        # reads as y with diaeresis, a kept label; 0xFE as thorn, in a feature
        # cell that is then no number
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b,Label\n1,2,A\n" + row + b"5,6,B\n")
        ds, report = dataio.load_dataset(path)
        assert (report.rows_read, report.recoded) == (3, 1)
        if cell == "label":
            assert ds.label_names == {0: "A", 1: "A\xff", 2: "B"}
            assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
            assert report.dropped == {}
            # no label map names it, so the builtin mapping refuses it
            with pytest.raises(MappingError, match="A\xff"):
                dataio.map_labels(ds)
        else:
            assert ds.label_names == {0: "A", 1: "B"}
            assert ds.features.tolist() == [[1.0, 2.0], [5.0, 6.0]]
            assert report.dropped == {"non_numeric": 1}
        assert "recoded (cp1252): 1" in report.summary()

    # the five bytes that cp1252 leaves undefined, in a label or a feature
    @pytest.mark.parametrize("row", [b"3,4,A\x81", b"3,4,A\x8d", b"3,4,\x8fA", b"3\x90,4,B",
                                     b"3,\x9d4,B"])
    def test_a_line_neither_utf8_nor_cp1252_is_dropped_as_undecodable(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b,Label\n1,2,A\n" + row + b"\n5,6,B\n")
        ds, report = dataio.load_dataset(path)
        # no replacement character makes a new class of a damaged label
        assert ds.label_names == {0: "A", 1: "B"}
        assert ds.features.tolist() == [[1.0, 2.0], [5.0, 6.0]]
        assert (report.rows_read, report.rows_kept, report.recoded) == (3, 2, 0)
        assert report.dropped == {"undecodable": 1}

    def test_undecodable_header_is_a_schema_error(self, tmp_path):
        # 0x81 is neither UTF-8 nor defined in cp1252
        path = tmp_path / "t.csv"
        path.write_bytes(b"a\x81,b,Label\n1,2,A\n")
        with pytest.raises(SchemaError, match="neither UTF-8 nor cp1252"):
            dataio.load_dataset(path)

    def test_cp1252_header_is_read_as_cp1252(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"caf\xe9,Label\n1,A\n")
        ds, report = dataio.load_dataset(path)
        assert ds.feature_names == ["caf\xe9"]
        assert (report.rows_kept, report.recoded) == (1, 0)

    def test_valid_non_ascii_text_is_kept(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes("a,Label\n1,Web Attack \u2013 XSS\n2,B\n".encode("utf-8"))
        ds, report = dataio.load_dataset(path)
        assert sorted(ds.label_names.values()) == ["B", "Web Attack \u2013 XSS"]
        assert report.rows_dropped == 0

    def test_ignore_columns(self, tmp_path):
        text = "a,b,Label,provenance\n1,2,x,original\n3,4,y,scgan\n"
        ds, _ = dataio.load_dataset(write_csv(tmp_path / "t.csv", text),
                                    ignore_columns=("provenance",))
        assert ds.n_features == 2 and ds.n_rows == 2

    def test_byte_order_mark_is_skipped_before_the_label_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfLabel,a,b\nx,1,2\ny,3,4\n")
        ds, report = dataio.load_dataset(path)
        assert ds.feature_names == ["a", "b"] and ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert report.rows_kept == 2

    def test_byte_order_mark_is_not_part_of_the_first_feature_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b,Label\n1,2,x\n")
        ds, _ = dataio.load_dataset(path)
        assert ds.feature_names == ["a", "b"]


# cells for the ingest oracle test: clean ones numpy converts, and dirty ones
# for every drop reason or per-row rule. \x0b, \x0c and cp1252's \x85 (NEL
# in Latin-1) end a line for str.splitlines but not for the text reader.
CLEAN_CELLS = [b"0", b"1.5", b"-0", b" 2 ", b"\t3", b"1e-05", b".5", b"5.", b"0.1",
               b"9007199254740993", b"-7.25e+3", b"5e-324", b"0.30000000000000004",
               b"1\x0b", b"\x0c2"]
DIRTY_CELLS = [b"oops", b"", b" ", b"nan", b"NaN", b"inf", b"-inf", b"Infinity", b"1e999",
               b"1_000", b"2\x1c", b"\x1f1", b"1\xc2\x85", b"\xd9\xa1", b"1\xff", b'"4"',
               b"1\xa0", b"\xb9", b"2\x81", b"3\x85", b"\x0b"]
LABEL_CELLS = [b"x", b"y", b" x ", b"Web Attack \xe2\x80\x93 XSS", b'"a,b"', b'"q""uote"',
               b'"two\nlines"', b"", b"BENIGN", b"A\xff", b"A\x96", b"\xe2\x80\x93",
               b"A\x9d", b'"A\x96\nB"', b"A\x0bB", b"\x0cC", b"D\x85", b'"E\rF"']
IGNORED_CELLS = [b"original", b"scgan", b"not a number", b'"p,q"']


@st.composite
def ingest_files(draw):
    """The bytes of a CSV for ``load_dataset`` and its ``ignore_columns``:
    mostly clean rows among dirty ones of every kind."""
    d = draw(st.integers(0, 3))
    names = draw(st.lists(st.sampled_from(["a", "b", " c ", "Label", "provenance"]),
                          min_size=d, max_size=d))
    names.insert(draw(st.integers(0, d)), "Label")
    ignored = draw(st.booleans())
    if ignored:
        names.insert(draw(st.integers(0, len(names))), "provenance")
    label_at = names.index("Label")
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r", None]))  # None: each line picks
    lines = [",".join(names).encode()]
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from([b"", b" ", b"\t"])))
            continue
        cells = []
        for i, name in enumerate(names):
            if i == label_at:
                pool = LABEL_CELLS if draw(st.integers(0, 3)) == 0 else [b"x", b"y"]
            elif name == "provenance" and ignored:
                pool = IGNORED_CELLS
            else:
                pool = DIRTY_CELLS if draw(st.integers(0, 9)) == 0 else CLEAN_CELLS
            cells.append(draw(st.sampled_from(pool)))
        if kind == 1:
            cells.append(b"1")
        elif kind == 2:
            cells.pop()
        lines.append(b",".join(cells))
    data = b"".join(line + (newline or draw(st.sampled_from([b"\n", b"\r\n", b"\r"])))
                    for line in lines)
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data, ("provenance",) if ignored else ()


def ingest_outcome(load, path, **kwargs):
    """Everything ``load`` returns, as bytes and plain values, or the type and
    message of what it raised."""
    try:
        ds, report = load(path, **kwargs)
    except Exception as exc:  # compared with the oracle's, whatever it is
        return type(exc), str(exc)
    return (ds.features.dtype, ds.features.shape, ds.features.tobytes(), ds.labels.dtype,
            ds.labels.tobytes(), list(ds.label_names.items()), ds.feature_names,
            report.rows_read, report.rows_kept, report.dropped, report.recoded)


class TestBlockIngest:
    @settings(max_examples=400, deadline=None)
    @given(ingest_files(), st.integers(1, 6))
    def test_matches_the_row_by_row_oracle(self, case, block):
        data, ignore = case
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "INGEST_BLOCK", block)
            path = os.path.join(tmp, "t.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            assert (ingest_outcome(dataio.load_dataset, path, ignore_columns=ignore)
                    == ingest_outcome(oracle_load_dataset, path, ignore_columns=ignore))

    def test_dirty_rows_in_later_blocks_keep_the_bulk_path(self, tmp_path, monkeypatch):
        # recoded, undecodable and non-finite rows take no per-row rules
        monkeypatch.setattr(dataio, "INGEST_BLOCK", 4)
        monkeypatch.setattr(dataio._Ingest, "per_row", refuse_parsing)
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b,Label\r\n" + b"1,2,x\r\n" * 5 + b"Infinity,2,x\r\n"
                         + b"3,4,A\x96\r\n\r\n" + b"5,NaN,y\r\n" + b"6,7,y\r\n"
                         + b"8,9,B\x81\r\n")
        ds, report = dataio.load_dataset(path)
        assert ds.features.tolist() == [[1.0, 2.0]] * 5 + [[3.0, 4.0], [6.0, 7.0]]
        assert ds.label_names == {0: "A\u2013", 1: "x", 2: "y"}
        assert (report.rows_read, report.rows_kept, report.recoded) == (10, 7, 1)
        assert report.dropped == {"non_finite": 2, "undecodable": 1}

    def test_memory_is_bounded_by_the_output_and_one_block(self, tmp_path):
        # a Python float per cell, as a row-by-row reader keeps, is 4 times
        # the returned float64 cell before the array is even built
        rows, width = 50_000, 20
        values = np.random.default_rng(3).integers(0, 100, size=(rows, width))
        line = "{}" + ",{}" * (width - 1) + ",x\n"
        path = tmp_path / "clean.csv"
        path.write_text(",".join(f"f{i}" for i in range(width)) + ",Label\n"
                        + "".join(line.format(*row) for row in values.tolist()))
        block_bytes = dataio.INGEST_BLOCK * (3 * width + 2)
        tracemalloc.start()
        try:
            ds, _ = dataio.load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.features, values)
        assert peak <= 3 * ds.features.nbytes + 16 * block_bytes

    def test_features_are_held_once(self, tmp_path):
        # blocks fill one preallocated array: no second copy of the
        # features, only label-sized arrays and a block beside them
        rows, width = 50_000, 20
        values = np.random.default_rng(4).integers(0, 100, size=(rows, width))
        line = "{}" + ",{}" * (width - 1) + ",x\n"
        path = tmp_path / "clean.csv"
        path.write_text(",".join(f"f{i}" for i in range(width)) + ",Label\n"
                        + "".join(line.format(*row) for row in values.tolist()))
        block_bytes = dataio.INGEST_BLOCK * (3 * width + 2)
        tracemalloc.start()
        try:
            ds, _ = dataio.load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.features, values)
        assert ds.features.base is None
        assert peak <= ds.features.nbytes + 8 * ds.labels.nbytes + 16 * block_bytes

    def test_clean_blocks_are_parsed_from_their_bytes(self, tmp_path, monkeypatch):
        # an ASCII file of full-precision cells, several blocks long, is
        # neither decoded nor parsed from text past its header
        monkeypatch.setattr(dataio, "INGEST_BLOCK", 16)
        decoded = []
        monkeypatch.setattr(dataio, "_decode", lambda line: decoded.append(line) or line)
        monkeypatch.setattr(dataio._Ingest, "text", refuse_parsing)
        monkeypatch.setattr(dataio._Ingest, "per_row", refuse_parsing)
        values = np.random.default_rng(5).random((100, 6))
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b,c,d,e,f,Label\r\n" + b"".join(
            (",".join("%.17g" % v for v in row) + ",c%d\r\n" % (i % 3)).encode()
            for i, row in enumerate(values)))
        ds, report = dataio.load_dataset(path)
        assert np.array_equal(ds.features, values)
        assert ds.labels.tolist() == [i % 3 for i in range(100)]
        assert (report.rows_read, report.rows_kept, report.dropped) == (100, 100, {})
        assert decoded == ["a,b,c,d,e,f,Label\r\n"]

    @pytest.fixture
    def loadtxt_bytes_default(self, monkeypatch):
        # numpy before 2.0 defaults np.loadtxt to encoding="bytes", which hands
        # converters bytes; ingest names its encoding, so labels stay str
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, encoding="bytes", **kwargs:
                            loadtxt(*args, encoding=encoding, **kwargs))
        monkeypatch.setattr(dataio._Ingest, "per_row", refuse_parsing)

    def test_labels_are_str_under_the_loadtxt_default_before_numpy_2(self, tmp_path,
                                                                      monkeypatch,
                                                                      loadtxt_bytes_default):
        monkeypatch.setattr(dataio._Ingest, "text", refuse_parsing)
        ds, _ = dataio.load_dataset(write_csv(tmp_path / "t.csv", "a,b,Label\n1,2, y\n3,4,x\n"))
        assert ds.label_names == {0: "x", 1: "y"}
        assert ds.labels.tolist() == [1, 0]

    def test_decoded_labels_are_str_under_the_loadtxt_default_before_numpy_2(
            self, tmp_path, loadtxt_bytes_default):
        # the block is not ASCII, so the text path converts it
        path = tmp_path / "t.csv"
        path.write_bytes("a,b,Label\n1,2, Web Attack \u2013 XSS\n".encode()
                         + b"3,4,Web Attack \x96 Sql Injection\n5,6,x\n")
        ds, report = dataio.load_dataset(path)
        assert ds.label_names == {0: "Web Attack \u2013 Sql Injection",
                                  1: "Web Attack \u2013 XSS", 2: "x"}
        assert ds.labels.tolist() == [1, 0, 2]
        assert report.recoded == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data", [
        # a non-ASCII block in which every row has one field too many
        b"a,b,Label\n" + b"1,2,A\x96,3\n" * 3 + "4,5,B\u2013,6\n".encode() + b"7,8,C\n",
        # a label-only file, a block of it ASCII, a block with a cp1252 label
        b"Label\n" + b"x\ny\n \nBENIGN\n" + b"x\nWeb Attack \x96 XSS\n\ny\n",
        # a block of blank lines and one undecodable line, among clean blocks
        b"a,Label\n" + b"1,x\n" * 4 + b"\n\r\n\n2,A\x81\n" + b"3,y\n",
    ], ids=["extra-field", "label-only", "blank-and-undecodable"])
    def test_fixed_files_match_the_row_by_row_oracle(self, tmp_path, monkeypatch, data):
        monkeypatch.setattr(dataio, "INGEST_BLOCK", 4)
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        assert ingest_outcome(dataio.load_dataset, path) == ingest_outcome(oracle_load_dataset, path)

    def test_a_file_of_cr_line_ends_is_read_a_block_at_a_time(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "INGEST_BLOCK", 8)
        monkeypatch.setattr(dataio, "_READ_MIN", 64)
        lines_per_block = []
        block = dataio._Input.block

        def counted(source, lines):
            raw = block(source, lines)
            lines_per_block.append(len(raw.splitlines()))
            return raw

        monkeypatch.setattr(dataio._Input, "block", counted)
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,Label\r" + b"".join(b"%d,x\r" % i for i in range(500)))
        ds, report = dataio.load_dataset(path)
        assert ds.features[:, 0].tolist() == list(range(500))
        assert report.rows_read == 500
        # a read that ends in \r leaves that line end to the next read
        assert max(lines_per_block) <= 2 * 8

    @settings(max_examples=100, deadline=None)
    @given(ingest_files(), st.integers(1, 6), st.integers(1, 9))
    def test_reads_of_any_size_match_the_row_by_row_oracle(self, case, block, read):
        # a \r\n, a byte-order mark or a multi-byte character split across
        # two reads of the file is read as if it were not
        data, ignore = case
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "INGEST_BLOCK", block)
            mp.setattr(dataio, "_READ_MIN", read)
            path = os.path.join(tmp, "t.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            assert (ingest_outcome(dataio.load_dataset, path, ignore_columns=ignore)
                    == ingest_outcome(oracle_load_dataset, path, ignore_columns=ignore))

    @pytest.mark.parametrize("text, lines", [
        (b"", 0), (b"a", 1), (b"a\n", 1), (b"a\r\nb", 2), (b"a\rb\r", 2), (b"\n\r\r\n", 3),
        # after a first read of 3 bytes, for a byte-order mark, a 2**16-byte
        # read ends in the \r of this \r\n: still one ending
        (b"a" * ((1 << 16) + 2) + b"\r\nb", 2)],
        ids=["empty", "unterminated", "lf", "crlf", "cr", "mixed", "crlf-across-reads"])
    def test_text_lines_end_where_the_text_reader_ends_them(self, tmp_path, monkeypatch,
                                                            text, lines):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        with open(path, newline="", encoding="utf-8") as fh:
            expected = fh.readlines()
        assert len(expected) == lines
        for read in (1, 2, 1 << 16):
            monkeypatch.setattr(dataio, "_READ_MIN", read)
            with open(path, "rb") as fh:
                assert list(dataio._Input(fh)) == expected, read


class TestRoundTrip:
    def test_save_then_load_is_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((20, 5)) * 1e6
        labels = rng.integers(0, 3, size=20)
        ds = dataio.Dataset(features, labels, {0: "a", 1: "b", 2: "c"})
        path = tmp_path / "out.csv"
        dataio.save_dataset(path, ds)
        loaded, _ = dataio.load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.label_names == ds.label_names

    def test_provenance_column_round_trip(self, tmp_path):
        ds = dataio.Dataset(np.ones((2, 2)), [0, 1], {0: "a", 1: "b"})
        path = tmp_path / "out.csv"
        dataio.save_dataset(path, ds, provenance=np.array(["original", "skn"], dtype=object))
        text = path.read_text()
        assert "provenance" in text.splitlines()[0]
        loaded, _ = dataio.load_dataset(path, ignore_columns=("provenance",))
        assert loaded.n_rows == 2


class TestLabelNames:
    @pytest.mark.parametrize("labels, names, missing", [
        ([0, 1, 1], {0: "a", 1: "b"}, None),
        ([5, 5], {5: "x"}, None),
        ([], {0: "a"}, None),
        ([0, 2], {0: "a", 1: "b"}, [2]),
        ([0, 1, 2], {0: "a", 2: "c", 3: "d"}, [1]),
        ([-1, 0, 7], {0: "a"}, [-1, 7]),
    ])
    def test_every_label_id_needs_a_name(self, labels, names, missing):
        features = np.zeros((len(labels), 1))
        if missing is None:
            dataio.Dataset(features, labels, names)
        else:
            with pytest.raises(DataError, match=re.escape(f"label ids {missing} have no name")):
                dataio.Dataset(features, labels, names)

    def test_ids_within_the_names_are_not_sorted(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("named ids are counted, not sorted")

        labels = np.random.default_rng(0).integers(0, 3, 1000)
        monkeypatch.setattr(np, "unique", refuse)
        assert dataio.Dataset(np.zeros((1000, 2)), labels, {0: "a", 1: "b", 2: "c"}).n_rows == 1000


class TestMapLabels:
    def test_builtin_grouping(self, tmp_path):
        text = "a,Label\n1,DoS Hulk\n2,FTP-Patator\n3,BENIGN\n4,SSH-Patator\n"
        ds, _ = dataio.load_dataset(write_csv(tmp_path / "t.csv", text))
        mapped = dataio.map_labels(ds)
        names = {mapped.label_names[int(i)] for i in mapped.labels}
        assert names == {"DoS/DDoS", "Patator", "BENIGN"}
        assert mapped.n_rows == ds.n_rows
        counts = {mapped.label_names[c]: n for c, n in mapped.class_counts().items()}
        assert counts["Patator"] == 2

    def test_unknown_label_strict(self):
        ds = dataio.Dataset(np.ones((1, 1)), [0], {0: "XYZ"})
        with pytest.raises(MappingError):
            dataio.map_labels(ds, {"ABC": "other"})

    def test_total_count_preserved(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=50)
        ds = dataio.Dataset(rng.random((50, 2)), labels, {0: "DoS Hulk", 1: "DDoS"})
        mapped = dataio.map_labels(ds)
        assert mapped.n_rows == 50
        assert sum(mapped.class_counts().values()) == 50
        assert set(mapped.label_names.values()) == {"DoS/DDoS"}

    def test_builtin_grouping_covers_every_canonical_sublabel(self):
        sublabels = sorted(dataio.DEFAULT_LABEL_MAP)
        ds = dataio.Dataset(np.ones((len(sublabels), 1)),
                            np.arange(len(sublabels)),
                            dict(enumerate(sublabels)))
        mapped = dataio.map_labels(ds)
        groups = set(mapped.label_names.values())
        assert groups == {"BENIGN", "DoS/DDoS", "PortScan", "Patator",
                          "Web Attack", "Bot", "Infiltration", "Heartbleed"}

    def test_mapping_file_loader(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("# subclass, group\nDoS Hulk,DoS/DDoS\nBENIGN,BENIGN\n")
        mapping = dataio.load_label_map(path)
        assert mapping == {"DoS Hulk": "DoS/DDoS", "BENIGN": "BENIGN"}

    def test_mapping_file_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(SchemaError):
            dataio.load_label_map(path)


class TestMinMax:
    def test_fit_simple_column(self):
        params = dataio.fit_minmax(np.array([[2.0], [4.0], [6.0]]))
        assert params.x_min[0] == 2.0 and params.x_max[0] == 6.0

    def test_constant_feature(self):
        params = dataio.fit_minmax(np.array([[5.0], [5.0]]))
        assert params.x_min[0] == params.x_max[0] == 5.0
        out = dataio.apply_minmax(params, np.array([[5.0], [7.0]]))
        assert np.array_equal(out, [[0.0], [0.0]])

    def test_endpoints_map_to_unit_interval(self):
        train = np.array([[2.0], [4.0], [6.0]])
        params = dataio.fit_minmax(train)
        out = dataio.apply_minmax(params, train)
        assert out.min() == 0.0 and out.max() == 1.0
        assert dataio.apply_minmax(params, np.array([[4.0]]))[0, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unit_range_check_refuses_non_finite_values(self, bad):
        features = np.array([[0.5, 0.1], [0.2, 0.3]])
        features[0, 1] = bad
        with pytest.raises(InputDataError, match="NaN or Inf"):
            dataio._check_unit_range(features, "t")

    def test_out_of_range_values_clamp(self):
        params = dataio.fit_minmax(np.array([[2.0], [6.0]]))
        out = dataio.apply_minmax(params, np.array([[8.0], [-1.0]]))
        assert np.array_equal(out, [[1.0], [0.0]])

    def test_width_mismatch(self):
        params = dataio.fit_minmax(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            dataio.apply_minmax(params, np.ones((3, 3)))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    def test_idempotent_on_fitted_range(self, values):
        data = np.array(values).reshape(-1, 1)
        params = dataio.fit_minmax(data)
        once = dataio.apply_minmax(params, data)
        unit = dataio.NormalizationParams(np.zeros(1), np.ones(1))
        twice = dataio.apply_minmax(unit, once)
        assert np.allclose(once, twice)

    def test_params_round_trip(self, tmp_path):
        params = dataio.fit_minmax(np.random.default_rng(2).random((10, 4)) * 1e5)
        path = tmp_path / "norm.json"
        dataio.save_normalization(path, params)
        loaded = dataio.load_normalization(path)
        assert np.array_equal(loaded.x_min, params.x_min)
        assert np.array_equal(loaded.x_max, params.x_max)
        probe = np.random.default_rng(3).random((5, 4)) * 1e5
        assert np.array_equal(dataio.apply_minmax(params, probe),
                              dataio.apply_minmax(loaded, probe))


def _dataset_with_counts(counts, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, i, dtype=np.int64) for i, n in enumerate(counts)])
    features = rng.standard_normal((labels.size, dim))
    return dataio.Dataset(features, labels, {i: f"c{i}" for i in range(len(counts))})


class TestSplit:
    def test_eleven_samples_split_nine_two(self):
        ds = _dataset_with_counts([11])
        train, test = dataio.stratified_split(ds, dataio.SplitSpec(0.8, seed=1))
        assert train.n_rows == 9 and test.n_rows == 2

    def test_ten_samples_split_eight_two(self):
        ds = _dataset_with_counts([10])
        train, test = dataio.stratified_split(ds, dataio.SplitSpec(0.8, seed=1))
        assert train.n_rows == 8 and test.n_rows == 2

    def test_round_half_up_matches_published_majority_count(self):
        # 0.8 * 2273096 rounds half-up to 1818477; published size is 1818476
        assert dataio.round_half_up(0.8 * 2273096) == 1818477
        assert abs(dataio.round_half_up(0.8 * 2273096) - 1818476) <= 1

    def test_singleton_class_goes_to_train_with_warning(self):
        ds = _dataset_with_counts([5, 1])
        with pytest.warns(UserWarning, match="single sample"):
            train, test = dataio.stratified_split(ds, dataio.SplitSpec(0.8, seed=2))
        assert train.class_counts()[1] == 1
        assert 1 not in test.class_counts()

    def test_same_seed_reproduces_split(self):
        ds = _dataset_with_counts([40, 25, 9], seed=4)
        spec = dataio.SplitSpec(0.7, seed=123)
        t1, e1 = dataio.stratified_split(ds, spec)
        t2, e2 = dataio.stratified_split(ds, spec)
        assert np.array_equal(t1.features, t2.features)
        assert np.array_equal(e1.features, e2.features)

    def test_invalid_ratio(self):
        with pytest.raises(ConfigError):
            dataio.SplitSpec(1.5)
        with pytest.raises(ConfigError):
            dataio.SplitSpec(0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(2, 40), min_size=1, max_size=5),
           st.floats(0.1, 0.9), st.integers(0, 2**31))
    def test_partition_properties(self, counts, ratio, seed):
        ds = _dataset_with_counts(counts, seed=7)
        train, test = dataio.stratified_split(ds, dataio.SplitSpec(ratio, seed=seed))
        assert train.n_rows + test.n_rows == ds.n_rows
        # union is a permutation of the input rows
        key = lambda f: sorted(map(tuple, f))
        assert key(np.concatenate([train.features, test.features])) == key(ds.features)
        for class_id, n in ds.class_counts().items():
            got = train.class_counts().get(class_id, 0)
            assert abs(got - ratio * n) <= 1

    def test_fingerprint_sensitive_to_rows(self):
        ds = _dataset_with_counts([8, 8], seed=8)
        fp = dataio.dataset_fingerprint(ds)
        assert fp == dataio.dataset_fingerprint(ds)
        other = dataio.Dataset(ds.features + 1e-9, ds.labels, dict(ds.label_names))
        assert fp != dataio.dataset_fingerprint(other)


class TestConformAndSeal:
    def test_conform_restores_reference_ids(self):
        # a reloaded subset missing class "b" would renumber without conforming
        reference = {0: "a", 1: "b", 2: "c"}
        subset = dataio.Dataset(np.ones((2, 1)), [0, 1], {0: "a", 1: "c"})
        fixed = dataio.conform_labels(subset, reference)
        assert fixed.labels.tolist() == [0, 2]
        assert fixed.label_names == reference

    def test_conform_rejects_unknown_names(self):
        subset = dataio.Dataset(np.ones((1, 1)), [0], {0: "zz"})
        with pytest.raises(MappingError):
            dataio.conform_labels(subset, {0: "a"})


def csv_writer_oracle(path, dataset, label_column="Label", provenance=None):
    """The reference writer: one ``"%.17g"`` per float cell through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(dataset.feature_names) + [label_column]
        if provenance is not None:
            header.append("provenance")
        writer.writerow(header)
        for i in range(dataset.n_rows):
            row = ["%.17g" % float(v) for v in dataset.features[i]]
            row.append(dataset.label_names[int(dataset.labels[i])])
            if provenance is not None:
                row.append(str(provenance[i]))
            writer.writerow(row)


EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 0.1, 2.0 ** 53, 0.1 + 0.2]
TRICKY_NAMES = ["", ",", '"', "a\nb", " lead", "x", "a,b", 'say "hi"', "\r", "%", "%s", "50%,%d"]
names = st.one_of(st.sampled_from(TRICKY_NAMES), st.text(st.sampled_from('ab ,"\n\r\té%s'),
                                                          max_size=4))
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
any_float = st.one_of(finite, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def tables(draw, values=finite, min_rows=0, min_dim=0, label_names=names):
    """A dataset, its provenance (None, object or str array) and its ignore set."""
    n = draw(st.integers(min_rows, 8))
    d = draw(st.integers(min_dim, 3))
    k = draw(st.integers(1, 3))
    feature_names = draw(st.lists(st.one_of(st.sampled_from(["f", "Label", "provenance", " f"]),
                                            names), min_size=d, max_size=d))
    features = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d)),
                        dtype=np.float64).reshape(n, d)
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    dataset = dataio.Dataset(features, labels,
                             dict(enumerate(draw(st.lists(label_names, min_size=k,
                                                          max_size=k)))),
                             feature_names or [f"f{i}" for i in range(d)])
    kind = draw(st.sampled_from([None, object, str]))
    provenance = None
    if kind is not None:
        provenance = np.array(draw(st.lists(names, min_size=n, max_size=n)), dtype=kind)
    return dataset, provenance, () if provenance is None else ("provenance",)


def parses_back(dataset):
    """Whether ``load_dataset`` reads the CSV twin of the run table
    ``dataset`` back: rows, all finite, and distinct column and label names
    that ``.strip()`` leaves alone."""
    header = list(dataset.feature_names) + ["Label", "provenance"]
    return (dataset.n_rows > 0 and bool(np.isfinite(dataset.features).all())
            and all(len(set(n)) == len(n) and all(x == x.strip() for x in n)
                    for n in (header, list(dataset.label_names.values()))))


def refuse_parsing(*args, **kwargs):
    raise AssertionError("a run table is read from its record, never parsed")


def assert_same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        assert a == b
        return
    assert a.features.shape == b.features.shape
    assert a.features.tobytes() == b.features.tobytes()  # -0.0 included
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.label_names == b.label_names and a.feature_names == b.feature_names


class TestVectorisedWriter:
    @settings(max_examples=120, deadline=None)
    @given(tables(values=any_float))
    def test_bytes_match_the_csv_writer_oracle(self, table):
        dataset, provenance, _ = table
        with tempfile.TemporaryDirectory() as tmp:
            new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
            digest = dataio.save_dataset(new, dataset, provenance=provenance)
            csv_writer_oracle(old, dataset, provenance=provenance)
            with open(new, "rb") as fh:
                data = fh.read()
            with open(old, "rb") as fh:
                assert data == fh.read()
            assert digest == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("extra", [None, -1, 0, 1])
    def test_chunk_boundaries(self, tmp_path, extra):
        n = 0 if extra is None else dataio._WRITE_CELLS // 3 + extra
        rng = np.random.default_rng(n)
        dataset = dataio.Dataset(rng.standard_normal((n, 3)), rng.integers(0, 2, n),
                                 {0: "a,b", 1: ""})
        provenance = np.array(["original", 'q"'] * (n // 2) + ["x"] * (n % 2), dtype=object)
        digest = dataio.save_dataset(tmp_path / "new.csv", dataset, "Tag", provenance)
        csv_writer_oracle(tmp_path / "old.csv", dataset, "Tag", provenance)
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "old.csv").read_bytes()
        assert digest == hashlib.sha256(data).hexdigest()

    def test_edge_floats_have_their_pinned_text(self, tmp_path):
        # 17 significant digits, no fewer: "%.16g" would write 0.1 + 0.2 as
        # 0.3, which reads back as another float
        pinned = ["-0", "4.9406564584124654e-324", "1.0000000000000001e-05",
                  "10000000000000000", "0.10000000000000001", "9007199254740992",
                  "0.30000000000000004", "nan", "inf", "-inf"]
        values = EDGE_FLOATS + [np.nan, np.inf, -np.inf]
        dataset = dataio.Dataset(np.array([values]), [0], {0: "a"})
        dataio.save_dataset(tmp_path / "t.csv", dataset)
        cells = (tmp_path / "t.csv").read_text().splitlines()[1].split(",")
        assert cells == pinned + ["a"]
        read_back = np.array([float(c) for c in pinned[:len(EDGE_FLOATS)]])
        assert read_back.tobytes() == np.array(EDGE_FLOATS).tobytes()

    def test_lone_empty_field_is_quoted_like_csv_writer(self, tmp_path):
        dataset = dataio.Dataset(np.zeros((2, 0)), [0, 1], {0: "", 1: "a"})
        dataio.save_dataset(tmp_path / "new.csv", dataset, label_column="")
        assert (tmp_path / "new.csv").read_bytes() == b'""\r\n""\r\na\r\n'


# cells the fast path formats, and one of each kind that takes the fallback
UNIT_FLOATS = st.one_of(st.sampled_from([0.0, 1.0, 1e-4, 1 - 2.0 ** -53]),
                        st.floats(1e-4, 1.0),
                        st.integers(1, 2 ** 18 - 1).map(lambda j: j / 2 ** 18))
FALLBACK_FLOATS = st.one_of(st.sampled_from([-0.0, 5e-324, 1e-5, np.nextafter(1e-4, 0), 2.5,
                                             np.nextafter(1.0, 2), np.nan, np.inf, -np.inf]),
                            st.floats(-1.0, 0.0), st.floats(0.0, 1e-4), st.floats(min_value=1.0))
# names that send their rows to the fallback: a NUL, or a tail past the fast path's width
ODD_NAMES = st.one_of(names, st.sampled_from(["\0", "a\0b", "\0,", "é" * 70]))


@st.composite
def mixed_blocks(draw):
    """A table whose rows are mostly fast-path rows, with fallback rows (one
    fallback cell each) among them, and names that may hold a NUL or be
    too long for the fast path."""
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        row = draw(st.lists(UNIT_FLOATS, min_size=d, max_size=d))
        if draw(st.integers(0, 3)) == 0:
            row[draw(st.integers(0, d - 1))] = draw(FALLBACK_FLOATS)
        rows.append(row)
    label_names = dict(enumerate(draw(st.lists(ODD_NAMES, min_size=2, max_size=2))))
    provenance = np.array(draw(st.lists(ODD_NAMES, min_size=n, max_size=n)), dtype=object)
    return _block(rows, label_names, draw(st.sampled_from([None, provenance])))


def _block(rows, label_names=None, provenance=None):
    dataset = dataio.Dataset(np.array(rows, dtype=np.float64), np.arange(len(rows)) % 2,
                             label_names or {0: "a", 1: "Web Attack – XSS"})
    return dataset, provenance


def _around(value):
    return [np.nextafter(value, 0), value, np.nextafter(value, 2)]


def _budget_rows():
    """Rows on both sides of the first block edge at 3 columns, a fallback
    row on each side."""
    n = dataio._WRITE_CELLS // 3
    rows = np.random.default_rng(24).uniform(1e-4, 1, (n + 2, 3))
    rows[n - 1, 0], rows[n, 1] = -0.0, np.nan
    return rows


def _oracle_bytes(dataset, provenance):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "old.csv")
        csv_writer_oracle(path, dataset, provenance=provenance)
        with open(path, "rb") as fh:
            return fh.read()


class TestFastPath:
    """``save_dataset``'s numpy formatting of +0.0, 1.0 and [1e-4, 1) writes
    the bytes of one ``"%.17g"`` per cell, beside rows that take the
    fallback in the same block."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_blocks())
    @example(_block([np.arange(1, 2 ** 18, 4099) / 2 ** 18]))  # ties at the 18th digit
    @example(_block([_around(10.0 ** j) for j in range(-5, 1)] + [_around(1e-4)]))
    @example(_block([[1 - 2.0 ** -53, 1.0, 0.0]]))
    @example(_block([[-0.0, 1.0, 5e-324], [np.nan, np.inf, -np.inf]]))
    @example(_block(_budget_rows(), provenance=np.array(["original"] * (
        dataio._WRITE_CELLS // 3 + 2), dtype=object)))
    def test_mixed_blocks_match_the_csv_writer_oracle(self, table):
        dataset, provenance = table
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "new.csv")
            digest = dataio.save_dataset(path, dataset, provenance=provenance)
            with open(path, "rb") as fh:
                data = fh.read()
        assert data == _oracle_bytes(dataset, provenance)
        assert digest == hashlib.sha256(data).hexdigest()

    def test_the_fast_path_admits_exactly_its_domain(self):
        inside = [0.0, 1e-4, 0.5, 1 - 2.0 ** -53, 1.0]
        outside = [-0.0, np.nextafter(1e-4, 0), 5e-324, np.nextafter(1.0, 2), -0.5, np.nan,
                   np.inf, -np.inf]
        assert dataio._unit_rows(np.array([inside])).all()
        assert not dataio._unit_rows(np.array([inside + [x] for x in outside])).any()

    def test_a_long_label_is_not_padded_onto_every_row(self, tmp_path):
        # the fast path pads tails to the longest it takes; a 20 kB label
        # padded onto 5,000 rows would hold 100 MB
        dataset = dataio.Dataset(np.full((5000, 1), 0.5), [1] + [0] * 4999,
                                 {0: "a", 1: "x" * 20_000})
        tracemalloc.start()
        try:
            dataio.save_dataset(tmp_path / "t.csv", dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20
        assert (tmp_path / "t.csv").read_bytes() == _oracle_bytes(dataset, None)

    def test_the_text_of_a_fixed_table_is_pinned(self, tmp_path):
        # a table built from IEEE-exact operations only, so any change to the
        # text of run tables or synthbench inputs shows here
        features = np.arange(1, 40_001).reshape(-1, 20) / 40_001
        features[::7, 3] = 0.0
        features[1::7, 4] = 1.0
        features[2::9, 5] = -0.0
        features[3::11, 6] = 1e-5
        features[4::13, 7] = 2.5
        features[5::17, 8] = 2.0 ** -20
        features[6::19, 9] = 2.0 ** 60
        dataset = dataio.Dataset(features, np.arange(2000) % 2,
                                 {0: "BENIGN", 1: 'Web Attack – "XSS", 50%'})
        provenance = np.array(["original", "skn"] * 1000, dtype=object)
        dataio.save_dataset(tmp_path / "bench.csv", dataset)
        dataio.save_table(tmp_path / "run.csv", dataset, provenance=provenance)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("bench.csv", "run.csv", "run.tbl")}
        assert digests == PINNED_DIGESTS


# taken from the per-row "%" writer, before the fast path existed
PINNED_DIGESTS = {
    "bench.csv": "f421da51e18d417fc0da34d7cb467c5036f06374753c20ce9185a43cdbfe7ae0",
    "run.csv": "aca69a05cd07eefc76b0b95d36aa0cdcaacb452d2580f8bcd04c6c1288276014",
    "run.tbl": "ccdb7c5cc6adb5bc1315a24838a727d403082bc9250af657c192df6e3c235fa1",
}


class TestTableCompanion:
    @settings(max_examples=120, deadline=None)
    @given(tables(values=any_float, min_rows=0))
    def test_load_table_returns_what_save_table_was_given(self, table):
        dataset, provenance, _ = table
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "load_dataset", refuse_parsing)
            path = os.path.join(tmp, "t.csv")
            dataio.save_table(path, dataset, provenance=provenance)
            assert_same(dataio.load_table(path), dataset)

    @settings(max_examples=120, deadline=None)
    @given(tables(min_rows=1))
    def test_load_table_equals_load_dataset(self, table):
        # the CSV twin parses back to the record's table wherever it can; a
        # table saved without provenance has every row tagged original
        dataset, provenance, _ = table
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            dataio.save_table(path, dataset, provenance=provenance)
            if parses_back(dataset):
                got = dataio.load_table(path)
                parsed = dataio.load_dataset(path, ignore_columns=("provenance",))[0]
                assert_same(got, dataio.conform_labels(parsed, got.label_names))

    def test_companion_written_for_a_clean_table(self, tmp_path):
        dataset = _dataset_with_counts([3, 2], seed=1)
        dataio.save_table(tmp_path / "t.csv", dataset)
        assert (tmp_path / "t.tbl").exists()
        assert not (tmp_path / "t.tbl.tmp").exists()

    def test_failed_rewrite_keeps_the_previous_table(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot format this tag")

        n = dataio._WRITE_CELLS // 3 + 1
        dataset = _dataset_with_counts([n - 1, 1], seed=2)
        dataio.save_table(tmp_path / "t.csv", dataset)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # the header and the first block of rows are written before the tag fails
        provenance = np.array(["original"] * (n - 1) + [Unprintable()], dtype=object)
        with pytest.raises(RuntimeError, match="cannot format"):
            dataio.save_table(tmp_path / "t.csv", dataset, provenance=provenance)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("change", [
        "edit_csv", "truncate_csv", "append_csv", "delete_tbl", "truncate_tbl",
        "corrupt_tbl_payload", "corrupt_tbl_metadata", "empty_tbl"])
    def test_changes_are_refused(self, tmp_path, change, monkeypatch):
        dataset = _dataset_with_counts([4, 3], dim=3, seed=3)
        csv_path, tbl = tmp_path / "t.csv", tmp_path / "t.tbl"
        dataio.save_table(csv_path, dataset)
        text, blob = csv_path.read_text(), tbl.read_bytes()
        if change == "edit_csv":
            edited = text.replace(dataio.CELL_FORMAT % dataset.features[0, 0], "7.5", 1)
            assert edited != text
            csv_path.write_text(edited)
        elif change == "truncate_csv":
            csv_path.write_text("".join(text.splitlines(keepends=True)[:-1]))
        elif change == "append_csv":
            csv_path.write_text(text + "1.0,2.0,3.0,b\r\n")
        elif change == "delete_tbl":
            tbl.unlink()
        elif change == "truncate_tbl":
            tbl.write_bytes(blob[:len(blob) // 2])
        elif change == "corrupt_tbl_payload":
            tbl.write_bytes(blob[:-40] + bytes([blob[-40] ^ 1]) + blob[-39:])
        elif change == "corrupt_tbl_metadata":
            at = blob.index(b'"f1"')
            tbl.write_bytes(blob[:at] + b'"g1"' + blob[at + 4:])
        else:
            tbl.write_bytes(b"")
        monkeypatch.setattr(dataio, "load_dataset", refuse_parsing)
        with pytest.raises((FormatError, OSError)) as caught:
            dataio.load_table(csv_path)
        if change.endswith("_csv"):
            assert "t.csv no longer matches the fingerprint in its .tbl record" in str(
                caught.value)

    def test_parent_format_record_is_refused_by_its_magic(self, tmp_path):
        dataio.save_table(tmp_path / "t.csv", _dataset_with_counts([2, 2], seed=6))
        meta, _, arrays = read_record(tmp_path / "t.tbl", dataio.TABLE_MAGIC, n_arrays=2)
        write_record(tmp_path / "t.tbl", b"IDSAUG-TABLE-1\n", meta, arrays=arrays)
        with pytest.raises(FormatError, match="expected IDSAUG-TABLE-2"):
            dataio.load_table(tmp_path / "t.csv")

    def test_missing_csv_raises_like_load_dataset(self, tmp_path):
        dataio.save_table(tmp_path / "t.csv", _dataset_with_counts([2, 2], seed=4))
        (tmp_path / "t.csv").unlink()
        with pytest.raises(OSError):
            dataio.load_table(tmp_path / "t.csv")

    def test_companion_bytes_are_deterministic(self, tmp_path):
        dataset = _dataset_with_counts([5, 2], seed=5)
        provenance = np.array(["original"] * 5 + ["skn"] * 2, dtype=object)
        blobs = []
        for name in ("a", "b"):
            dataio.save_table(tmp_path / f"{name}.csv", dataset, provenance=provenance)
            blobs.append((tmp_path / f"{name}.tbl").read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].startswith(dataio.TABLE_MAGIC)


def _extend(split, features, labels):
    more = np.reshape(features, (len(labels), split.n_features))
    return dataio.Dataset(np.concatenate([split.features, more]),
                          np.concatenate([split.labels, np.array(labels, dtype=np.int64)]),
                          dict(split.label_names), split.feature_names)


class TestCopiedLines:
    """A table that starts with a saved table's rows copies that table's CSV
    instead of formatting the rows again."""

    @settings(max_examples=120, deadline=None)
    @given(tables(values=any_float), st.data())
    def test_extended_table_matches_the_csv_writer_oracle(self, table, data):
        # any table: no feature column, names that need quoting, line breaks
        split = table[0]
        n_more = data.draw(st.integers(0, 5))
        more = data.draw(st.lists(any_float, min_size=n_more * split.n_features,
                                  max_size=n_more * split.n_features))
        ids = data.draw(st.lists(st.sampled_from(sorted(split.label_names)),
                                 min_size=n_more, max_size=n_more))
        extended = _extend(split, more, ids)
        tags = [dataio.ORIGINAL] * split.n_rows + data.draw(
            st.lists(names, min_size=n_more, max_size=n_more))
        provenance = np.array(tags, dtype=data.draw(st.sampled_from([object, str])))
        with tempfile.TemporaryDirectory() as tmp:
            path = {name: os.path.join(tmp, f"{name}.csv") for name in ("split", "new", "old")}
            dataio.save_table(path["split"], split)
            prefix = dataio.load_table(path["split"])
            dataio.save_table(path["new"], extended, provenance=provenance, prefix=prefix)
            csv_writer_oracle(path["old"], extended, provenance=provenance)
            with open(path["split"], "rb") as fh:
                copied = fh.read()
            with open(path["new"], "rb") as new, open(path["old"], "rb") as old:
                written = new.read()
                assert written == old.read()
            assert written.startswith(copied)
            assert_same(dataio.load_table(path["new"]), extended)

    def test_blocks_of_the_copy_end_anywhere_in_a_line(self, tmp_path):
        # the copy reads 1 MiB blocks: a table this size ends one inside a line
        split = _dataset_with_counts([9000, 1000], dim=6, seed=9)
        dataio.save_table(tmp_path / "split.csv", split)
        assert (tmp_path / "split.csv").stat().st_size > 1 << 20
        extended = _extend(split, np.ones((3, 6)), [1, 1, 1])
        provenance = np.array(["original"] * split.n_rows + ["skn"] * 3, dtype=object)
        dataio.save_table(tmp_path / "new.csv", extended, provenance=provenance,
                          prefix=dataio.load_table(tmp_path / "split.csv"))
        csv_writer_oracle(tmp_path / "old.csv", extended, provenance=provenance)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("change", ["edit_row", "append_row", "drop_row", "edit_header"])
    def test_a_csv_changed_after_its_record_was_read_is_refused(self, tmp_path, change):
        split = _dataset_with_counts([4, 3], dim=3, seed=3)
        dataio.save_table(tmp_path / "split.csv", split)
        prefix = dataio.load_table(tmp_path / "split.csv")
        lines = (tmp_path / "split.csv").read_bytes().split(b"\r\n")
        if change == "edit_row":
            edited = lines[2].replace((dataio.CELL_FORMAT % split.features[1, 0]).encode(),
                                      b"0.5", 1)
            assert edited != lines[2]
            lines[2] = edited
        elif change == "append_row":
            lines.insert(-1, lines[1])
        elif change == "drop_row":
            del lines[1]
        else:
            lines[0] = lines[0].replace(b"f1", b"g1")
        (tmp_path / "split.csv").write_bytes(b"\r\n".join(lines))
        before = sorted(p.name for p in tmp_path.iterdir())
        extended = _extend(split, np.zeros(3), [1])
        provenance = np.array(["original"] * 7 + ["skn"], dtype=object)
        with pytest.raises(FormatError, match="split.csv no longer matches the fingerprint"):
            dataio.save_table(tmp_path / "aug.csv", extended, provenance=provenance,
                              prefix=prefix)
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("change", ["feature", "negative_zero", "label", "label_name",
                                        "short", "tags"])
    def test_rows_other_than_the_prefix_are_refused(self, tmp_path, change):
        split = _dataset_with_counts([4, 3], dim=3, seed=3)
        split.features[0, 0] = 0.0
        dataio.save_table(tmp_path / "split.csv", split)
        prefix = dataio.load_table(tmp_path / "split.csv")
        extended = _extend(split, np.zeros(split.n_features), [1])
        provenance = np.array(["original"] * 7 + ["skn"], dtype=object)
        if change == "feature":
            extended.features[6, 2] += 1e-12
        elif change == "negative_zero":
            extended.features[0, 0] = -0.0
        elif change == "label":
            extended.labels[3] = 1 - extended.labels[3]
        elif change == "label_name":
            extended.label_names[0] = "c9"
        elif change == "short":
            extended = dataio.Dataset(split.features[:6], split.labels[:6], split.label_names)
            provenance = provenance[:6]
        elif change == "tags":
            provenance[2] = "ros"
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(DataError, match="first rows are not the rows of"):
            dataio.save_table(tmp_path / "aug.csv", extended, provenance=provenance,
                              prefix=prefix)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
