import csv
import os
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn import data as datamod
from hybridbn.data import (
    _GATHER_BLOCK,
    _LOAD_CHUNK,
    _load_with_csv,
    _written_forms,
    CategoricalDataset,
    DataError,
    count_table,
    kfold,
    load_csv,
    observed_config_codes,
    parse_numeric_column,
    radix_code,
    row_dtype,
    write_csv,
)
from hybridbn.network import forward_sample
from hybridbn.synthetic import child_shape_network

from helpers import from_array, reference_load_csv, tally_contingency


def write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_tokens_mapped_in_first_appearance_order(self, tmp_path):
        path = write(tmp_path, "a,b,c\nfoo,x,0\nbar,y,1\nfoo,z,0\nbar,x,1\n")
        ds = load_csv(path)
        assert ds.names == ("a", "b", "c")
        assert ds.arities == (2, 3, 2)
        assert ds.n == 4
        assert ds.levels[1] == ("x", "y", "z")
        assert ds.rows[0].tolist() == [0, 0, 0]
        assert ds.rows[1].tolist() == [1, 1, 1]

    def test_ragged_row_reports_physical_line(self, tmp_path):
        path = write(tmp_path, "a,b,c\n0,1\n")
        with pytest.raises(DataError, match="ragged row 2"):
            load_csv(path)

    def test_ragged_row_later(self, tmp_path):
        path = write(tmp_path, "a,b\n0,1\n1,0\n0,1,1\n")
        with pytest.raises(DataError, match="ragged row 4"):
            load_csv(path)

    def test_constant_column_named(self, tmp_path):
        path = write(tmp_path, "a,b\n0,1\n0,0\n")
        with pytest.raises(DataError, match="constant column 'a'"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="empty file"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    def test_missing_value(self, tmp_path):
        path = write(tmp_path, "a,b\n0,\n1,1\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path)

    def test_delimiter(self, tmp_path):
        path = write(tmp_path, "a;b\n0;x\n1;y\n")
        ds = load_csv(path, delimiter=";")
        assert ds.names == ("a", "b")
        assert ds.arities == (2, 2)

    def test_emotions_shaped_file(self, tmp_path):
        # 593 rows, 72 features + 6 labels
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2, size=(593, 78))
        rows[0] = 0
        rows[1] = 1  # no constant columns
        text = ",".join(f"c{i}" for i in range(78)) + "\n"
        text += "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
        ds = load_csv(write(tmp_path, text))
        assert (ds.n, ds.d) == (593, 78)

    def test_padded_tokens_merge_in_first_appearance_order(self, tmp_path):
        path = write(tmp_path, "a,b\n b,x\na ,y\n a ,x\nb,y\na,x\n")
        ds = load_csv(path)
        assert ds.levels[0] == ("b", "a")
        assert ds.rows[:, 0].tolist() == [0, 1, 1, 0, 1]

    def test_more_tokens_than_rows(self, tmp_path):
        # four distinct tokens over three rows: every column is ranked alone
        path = write(tmp_path, "a,b\nq,s\np,t\nq,s\n")
        ds = load_csv(path)
        assert ds.levels == (("q", "p"), ("s", "t"))
        assert ds.rows.tolist() == [[0, 0], [1, 1], [0, 0]]

    def test_roundtrip_identity(self, tmp_path):
        path = write(tmp_path, "a,b\nfoo,2\nbar,3\nfoo,3\n")
        ds = load_csv(path)
        out = str(tmp_path / "out.csv")
        write_csv(ds, out)
        again = load_csv(out)
        assert again.names == ds.names
        assert again.levels == ds.levels
        assert np.array_equal(again.rows, ds.rows)

    def test_write_csv_forms_only_the_levels_rows_use(self):
        # a fold of a real-valued file carries every level of the whole
        # file, so the forms follow the cells written, not the levels
        many = tuple(str(i) for i in range(10_000))
        ds = CategoricalDataset(("a", "b"), (many, ("x", "y,z")),
                                np.array([[7, 1], [9, 1]]))
        forms = _written_forms(ds, np.array([0, len(many)]))
        made = {i: form for i, form in enumerate(forms) if form is not None}
        assert made == {7: "7", 9: "9", len(many) + 1: '"y,z"'}


# Tokens never contain a delimiter or a quote; padded and empty ones test
# the stripping and the missing-value report.
TOKENS = st.sampled_from(["0", "1", "a", "bb", " a", "a ", " 1 ", "x y", "", " "])
# One printable ASCII byte a token: the array path keys these.
BYTE_TOKENS = st.sampled_from(["0", "1", "2", "a", "Z", "~", "'", "\\"])
# Tokens wider than the array path's one-byte key: multi-byte UTF-8 and a
# byte-order mark inside a token.
WIDE_TOKENS = st.sampled_from(["é", " ü", "日本", "\ufeffa", "k" * 16])
# Tokens that leave only the csv module to read the file: quoted fields
# around the delimiter ({}), a line end or a doubled quote, a NUL, and a
# one-byte control character.
DECLINED_TOKENS = st.sampled_from(['"a{}b"', '"x\ny"', '"q""r"', "n\0", "\x7f"])
# Bytes the array path reads at a time (whole lines, at least one).
READ_BLOCKS = st.sampled_from([1, 2, 5, 16, datamod._BLOCK_BYTES])


@st.composite
def csv_files(draw):
    """(bytes, delimiter) of a small file, header line first; in about half
    the files, one row in six may be ragged or hold blank tokens. Two fifths
    of the files take their tokens from BYTE_TOKENS alone, a fifth from
    TOKENS, a fifth from TOKENS and WIDE_TOKENS, and a fifth from those and
    DECLINED_TOKENS. Lines end in \n, \r\n or a bare \r, one kind a
    file or a mix; a file may start with a byte-order mark, lack its last
    line end, or write é as one Latin-1 byte. A header of no columns is a
    blank first line."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    d = draw(st.integers(0, 5))
    n = draw(st.integers(0, 12))
    odd = draw(st.sampled_from(["bytes", "bytes", "none", "wide", "any"]))
    plain = BYTE_TOKENS if odd == "bytes" else TOKENS.filter(str.strip)
    if odd in ("wide", "any"):
        plain |= WIDE_TOKENS
    if odd == "any":
        plain |= DECLINED_TOKENS.map(lambda t: t.format(delimiter))
    ok = st.lists(plain, min_size=d, max_size=d)
    ragged = st.lists(TOKENS, min_size=0, max_size=d + 2)
    bad = draw(st.sampled_from(["none", "some"]))
    lines = [draw(st.lists(
        st.sampled_from(["a", "b", "c", "d", "e", "f", " g "]),
        min_size=d, max_size=d, unique=True,
    ))]
    for _ in range(n):
        if bad == "some" and draw(st.integers(0, 5)) == 0:
            lines.append(draw(ragged | st.lists(TOKENS, min_size=d, max_size=d)))
        else:
            lines.append(draw(ok))
    ends = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "mixed"]))
    if ends == "mixed":
        ends = st.sampled_from(["\n", "\r\n", "\r"])
    else:
        ends = st.just(ends)
    text = "".join(delimiter.join(line) + draw(ends) for line in lines)
    if draw(st.integers(0, 4)) == 0:
        text = text.removesuffix("\n").removesuffix("\r")
    if draw(st.integers(0, 4)) == 0:
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        raw = raw.replace("é".encode("utf-8"), b"\xe9", 1)
    return raw, delimiter


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "d.csv"


def load_outcome(loader, path, delimiter):
    try:
        ds = loader(path, delimiter=delimiter)
    except DataError as exc:
        return str(exc)
    except UnicodeDecodeError:
        # reference_load_csv lets the decoder's error out; load_csv names it
        return f"{path} is not UTF-8 text"
    return ds.names, ds.levels, ds.rows.dtype, ds.rows.tolist()


@settings(max_examples=400, deadline=None)
@given(case=csv_files(), block=READ_BLOCKS)
def test_load_csv_matches_reference(csv_path, case, block):
    raw, delimiter = case
    csv_path.write_bytes(raw)
    path = str(csv_path)
    want = load_outcome(reference_load_csv, path, delimiter)
    with mock.patch.object(datamod, "_BLOCK_BYTES", block):
        assert load_outcome(load_csv, path, delimiter) == want


# Every one-byte token that is not blank, a quote or a drawn delimiter.
ASCII_TOKENS = [chr(b) for b in range(33, 127) if chr(b) not in '",;|']


@st.composite
def wide_csv_files(draw):
    """(text, delimiter) of a file of a header and up to 60 rows whose
    columns each draw from up to 50 tokens, or up to 90 one-byte ones, with
    one or more spaces around some cells in about half the files, so that
    several raw tokens strip to one level. The columns share their tokens or
    keep their own; the latter gives more distinct tokens than rows. Tokens
    are one printable ASCII byte, or start with one ASCII or multi-byte
    character or a long stem. One file in ten with columns has a blank cell;
    a file of no columns has a blank first line and blank rows."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    d = draw(st.integers(0, 4))
    n = draw(st.integers(1, 60))
    shared = draw(st.booleans())
    stem = draw(st.sampled_from(["", "", "t", "é", "日", "k" * 13]))
    if stem:
        pools = [
            [f"{stem}{i}" if shared else f"c{cix}{stem}{i}"
             for i in range(draw(st.integers(1, 50)))]
            for cix in range(d)
        ]
    else:
        alphabet = st.lists(st.sampled_from(ASCII_TOKENS), min_size=2, max_size=90,
                            unique=True)
        pools = [draw(alphabet)] * d if shared else [draw(alphabet) for _ in range(d)]
    if draw(st.booleans()):
        pad = st.sampled_from(["{}", " {}", "{} ", "  {} "])
    else:
        pad = st.just("{}")
    lines = [[f"c{cix}" for cix in range(d)]]
    for _ in range(n):
        lines.append([draw(pad).format(draw(st.sampled_from(pool))) for pool in pools])
    if d and draw(st.integers(0, 9)) == 0:
        row = draw(st.integers(1, n))
        lines[row][draw(st.integers(0, d - 1))] = draw(st.sampled_from(["", " "]))
    text = "".join(delimiter.join(line) + "\n" for line in lines)
    return text, delimiter


@settings(max_examples=200, deadline=None)
@given(case=wide_csv_files(), block=READ_BLOCKS)
def test_load_csv_matches_reference_on_wide_columns(csv_path, case, block):
    text, delimiter = case
    csv_path.write_text(text, encoding="utf-8")
    path = str(csv_path)
    want = load_outcome(reference_load_csv, path, delimiter)
    with mock.patch.object(datamod, "_BLOCK_BYTES", block):
        assert load_outcome(load_csv, path, delimiter) == want


@pytest.fixture
def csv_module_reads(monkeypatch):
    """The paths load_csv hands to the csv module's reader."""
    calls = []

    def spy(path, delimiter):
        calls.append(path)
        return _load_with_csv(path, delimiter)

    monkeypatch.setattr(datamod, "_load_with_csv", spy)
    return calls


def test_benchmark_shaped_files_take_the_array_path(tmp_path, csv_module_reads):
    # a silent decline would leave the datasets equal and the loads slow
    ternary = tmp_path / "ternary.csv"
    write_csv(from_array(np.random.default_rng(0).integers(0, 3, size=(5000, 200))),
              ternary)
    child = tmp_path / "child.csv"
    write_csv(forward_sample(child_shape_network(), 20_000, seed=0), child)
    for path in map(str, (ternary, child)):
        want = load_outcome(_load_with_csv, path, ",")
        assert load_outcome(load_csv, path, ",") == want
        assert csv_module_reads == []
    quoted = write(tmp_path, 'a,b\n"0",1\n1,0\n', "quoted.csv")
    assert load_csv(quoted).levels == (("0", "1"), ("1", "0"))
    assert csv_module_reads == [quoted]


def lines_of(column):
    return "x,y\n" + "".join(f"{t},{i % 2}\n" for i, t in enumerate(column))


@pytest.mark.parametrize("text, array_path", [
    # one printable byte a token, as many levels as there are such bytes
    pytest.param(lines_of(t for t in ASCII_TOKENS + [";", "|"]), True,
                 id="every-printable-byte"),
    # a last line without its line end; names with blanks around them,
    # multi-byte names and a byte-order mark
    ("x,y\n0,0\n1,1", True),
    (" x , y\t\n0,0\n1,1\n", True),
    ("\ufeffé,日\n0,0\n1,1\n", True),
    # a token of two bytes, a blank one, a control character, a quote, or
    # the delimiter (a row of three fields here)
    (lines_of(["0", "10"]), False),
    (lines_of(["0", " "]), False),
    (lines_of(["0", "\x01"]), False),
    (lines_of(["0", "\x7f"]), False),
    (lines_of(["0", '"', "1"]), False),
    ("x,y\n0,0\n,,1\n1,1\n", False),
    # a blank line or a part line at the end
    ("x,y\n0,0\n1,1\n\n", False),
    ("x,y\n0,0\n1,1\n0", False),
    # a header with a quote, a carriage return, or a field past the csv
    # module's size limit
    ('x,"y"\n0,0\n1,1\n', False),
    ("x\ry,z\n0,0\n1,1\n", False),
    pytest.param("x" * (csv.field_size_limit() + 1) + ",y\n0,0\n1,1\n", False,
                 id="header-past-the-field-limit"),
    # the dataset would raise; the csv path alone raises
    ("x,x\n0,1\n1,0\n", False),
])
def test_the_array_path_limits(tmp_path, csv_module_reads, text, array_path):
    path = write(tmp_path, text)
    want = load_outcome(_load_with_csv, path, ",")
    assert load_outcome(load_csv, path, ",") == want
    assert (csv_module_reads == []) is array_path


@pytest.mark.parametrize("change", [-4, 4])
def test_a_file_that_changes_while_read_goes_to_the_csv_module(
        tmp_path, csv_module_reads, change):
    # the array path sizes its store by the file's size when it opens it
    path = write(tmp_path, "a,b\n0,1\n1,0\n0,0\n")
    fstat = os.fstat
    with mock.patch.object(datamod.os, "fstat", lambda fd: SimpleNamespace(
            st_size=fstat(fd).st_size + change)):
        assert load_csv(path).rows.tolist() == [[0, 0], [1, 1], [0, 1]]
    assert csv_module_reads == [path]


def test_a_wide_header_over_short_lines_allocates_no_store(tmp_path):
    # the header's 30,000 names and the 20,000 lines would make a 600 MB
    # store; the file cannot hold that many cells, so the csv path reads it
    chars = "0123456789abcdefghijklmnopqrstuvwxyz"
    names = [a + b + c for a in chars for b in chars for c in chars][:30_000]
    path = write(tmp_path, ",".join(names) + "\n" + "0\n" * 20_000)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="ragged row 2: expected 30000 fields, got 1"):
            load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


class TestLoadCsvErrors:
    def test_file_errors_after_a_ragged_row_come_first(self, tmp_path):
        # rows are mapped only up to the ragged one, but the whole file is read
        big = "x" * (csv.field_size_limit() + 1)
        path = write(tmp_path, f"a,b\n0,1\n1\n{big},0\n")
        with pytest.raises(DataError, match="bad CSV at line 4"):
            load_csv(path)
        # past the first blocks the decoder reads
        path = tmp_path / "latin1.csv"
        path.write_bytes(("a,b\n0,\n1\n" + "0,1\n" * 50000 + "z\xe9ro,0\n").encode("latin-1"))
        with pytest.raises(DataError, match="is not UTF-8 text"):
            load_csv(str(path))

    def test_ragged_rows_that_balance_each_other(self, tmp_path):
        # the block holds as many fields as two rows of three should
        path = write(tmp_path, "a,b,c\n0,1\n2,1,0,3\n")
        with pytest.raises(DataError, match="ragged row 2: expected 3 fields, got 2"):
            load_csv(path)

    def test_missing_value_before_a_later_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,b,c\n0,1,0\n1, ,1\n0,1\n")
        with pytest.raises(DataError, match="missing value at row 3, column 'b'"):
            load_csv(path)

    def test_ragged_row_before_a_later_missing_value(self, tmp_path):
        path = write(tmp_path, "a,b,c\n0,1,0\n1,1\n0,,1\n")
        with pytest.raises(DataError, match="ragged row 3: expected 3 fields, got 2"):
            load_csv(path)

    def test_first_missing_column_in_the_row(self, tmp_path):
        path = write(tmp_path, "a,b,c\n0,1,0\n1,0,\n0,,1\n1,1,1\n")
        with pytest.raises(DataError, match="missing value at row 3, column 'c'"):
            load_csv(path)
        path = write(tmp_path, "a,b,c\n0,1,0\n1,,\n0,0,1\n")
        with pytest.raises(DataError, match="missing value at row 3, column 'b'"):
            load_csv(path)


    def test_blank_first_line(self, tmp_path):
        # it once loaded as a dataset with no columns
        path = write(tmp_path, "\n\n")
        with pytest.raises(DataError, match="no column names on line 1 of "):
            load_csv(path)
        # a row after it is still ragged, and csv errors still come first
        path = write(tmp_path, "\n1,2\n")
        with pytest.raises(DataError, match="ragged row 2: expected 0 fields, got 2"):
            load_csv(path)
        path = write(tmp_path, "\n0\n1\n")
        with pytest.raises(DataError, match="ragged row 2: expected 0 fields, got 1"):
            load_csv(path)
        big = "x" * (csv.field_size_limit() + 1)
        path = write(tmp_path, f"\n\n{big}\n")
        with pytest.raises(DataError, match="bad CSV at line 3"):
            load_csv(path)


class TestDataset:
    def test_level_range_validated(self):
        with pytest.raises(DataError, match="out of range"):
            CategoricalDataset(("a",), (("0", "1"),), np.array([[2]]))

    def test_shape_validated(self):
        with pytest.raises(DataError):
            CategoricalDataset(("a", "b"), (("0", "1"),), np.zeros((2, 2), int))

    def test_rows_become_readonly(self):
        ds = from_array(np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            ds.rows[0, 0] = 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate column name 'a'"):
            CategoricalDataset(("a", "a", "b"), (("0", "1"),) * 3,
                               np.zeros((2, 3), int))

    def test_column_store(self):
        rows = np.array([[0, 2], [1, 0], [1, 1]])
        ds = from_array(rows)
        assert not hasattr(ds, "columns")
        columns, weights = ds.distinct_rows
        assert columns.dtype == np.uint8
        assert columns.flags.c_contiguous
        assert ds.rows.dtype == np.uint8 and ds.rows.flags.c_contiguous
        # every row is distinct, so the store holds them all, in code order
        np.testing.assert_array_equal(columns, rows.T)
        assert weights.tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(ValueError):
            columns[0, 0] = 1

    def test_column_store_widens_with_arity(self):
        ds = from_array(np.array([[0, 299]]))
        columns, _ = ds.distinct_rows
        assert columns.dtype == np.uint16
        assert columns[1].tolist() == [299]

    def test_from_array_infers_arities(self):
        ds = from_array(np.array([[0, 2], [1, 0]]))
        assert ds.arities == (2, 3)
        assert ds.levels[1] == ("0", "1", "2")

    def test_column_index(self):
        ds = from_array(np.array([[0, 1]]), arities=[2, 2], names=["a", "b"])
        assert ds.column_index("b") == 1
        with pytest.raises(DataError, match="unknown column"):
            ds.column_index("zzz")

    def test_subset_rows(self):
        ds = from_array(np.array([[0], [1], [0]]), arities=[2])
        sub = ds.subset_rows([2, 0])
        assert sub.rows[:, 0].tolist() == [0, 0]
        assert sub.levels == ds.levels

    def test_parse_numeric_column(self):
        ds = from_array(np.array([[0], [1], [1]]), arities=[2])
        assert parse_numeric_column(ds, 0).tolist() == [0.0, 1.0, 1.0]

    def test_parse_numeric_column_rejects_tokens(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nfoo,0\nbar,1\n", encoding="utf-8")
        ds = load_csv(str(path))
        with pytest.raises(DataError, match="not numeric"):
            parse_numeric_column(ds, 0)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_parse_numeric_column_rejects_non_finite(self, token):
        ds = CategoricalDataset(("a", "b"), (("1.5", token, "2"), ("0", "1")),
                                np.array([[0, 0], [1, 1], [2, 0]]))
        with pytest.raises(DataError, match=r"^column 'a' holds a value that "
                                            r"is not finite"):
            parse_numeric_column(ds, 0)

    def test_arities_are_kept(self):
        ds = from_array(np.array([[0, 2], [1, 0]]))
        assert ds.arities == (2, 3)
        assert ds.arities is ds.arities

    def test_indices_are_checked_before_they_are_narrowed(self):
        # 256 as uint16 and -1 as int64 would each wrap into range as uint8
        levels = (tuple(map(str, range(256))),)
        for bad in (np.array([[256]], dtype=np.uint16), np.array([[-1]])):
            with pytest.raises(DataError, match="out of range in column 'a'"):
                CategoricalDataset(("a",), levels, bad)


# Arities on each side of the uint8 and uint16 limits, with the row dtype
# each one gives.
BOUNDARY_DTYPES = {255: np.uint8, 256: np.uint8, 257: np.uint16,
                   65535: np.uint16, 65536: np.uint16, 65537: np.uint32}


@settings(max_examples=30, deadline=None)
@given(arities=st.lists(st.sampled_from([2, *BOUNDARY_DTYPES]), min_size=1, max_size=3),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       given_dtype=st.sampled_from([np.int64, np.int32, np.uint32]))
def test_rows_take_the_narrowest_dtype(arities, n, seed, given_dtype):
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.integers(0, a, n) for a in arities])
    rows[0] = np.array(arities) - 1  # the top level of every column occurs
    want = BOUNDARY_DTYPES.get(max(arities), np.uint8)
    assert row_dtype(arities) == want
    names = tuple(f"v{i}" for i in range(len(arities)))
    levels = tuple(tuple(map(str, range(a))) for a in arities)
    perm = rng.permutation(n)
    built = {
        "constructor": (CategoricalDataset(names, levels, rows.astype(given_dtype)),
                        rows),
        "from_array": (from_array(rows.astype(given_dtype)), rows),
        "subset_rows": (from_array(rows, arities=arities)
                        .subset_rows(perm), rows[perm]),
    }
    for path, (ds, values) in built.items():
        assert ds.rows.dtype == want and ds.rows.flags.c_contiguous, path
        assert ds.arities == tuple(arities), path
        assert ds.distinct_rows[0].dtype == want, path
        np.testing.assert_array_equal(ds.rows, values, err_msg=path)


@pytest.mark.parametrize("arity", sorted(BOUNDARY_DTYPES))
def test_csv_round_trip_keeps_the_row_dtype(tmp_path, arity):
    # level v of x first appears in row v, so its token keeps its index
    rows = np.column_stack([np.arange(arity), np.arange(arity) % 2])
    ds = from_array(rows, names=["x", "y"])
    path = tmp_path / "wide.csv"
    write_csv(ds, path)
    back = load_csv(str(path))
    assert back.rows.dtype == ds.rows.dtype == BOUNDARY_DTYPES[arity]
    assert back.levels == ds.levels
    np.testing.assert_array_equal(back.rows, rows)


BYTE_ORDER_MARKED = b"\xef\xbb\xbfa,b\nx,p\ny,\xef\xbb\xbfq\n"


def test_load_csv_drops_a_leading_byte_order_mark(tmp_path):
    # only the mark that opens the file goes; one inside a token is text
    path = tmp_path / "marked.csv"
    path.write_bytes(BYTE_ORDER_MARKED)
    ds = load_csv(str(path))
    assert ds.names == ("a", "b")
    assert ds.levels == (("x", "y"), ("p", "\ufeffq"))


def test_reference_load_csv_drops_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "marked.csv"
    path.write_bytes(BYTE_ORDER_MARKED)
    ds = reference_load_csv(str(path))
    assert (ds.names, ds.levels) == (("a", "b"), (("x", "y"), ("p", "\ufeffq")))


def test_load_csv_widens_in_a_later_chunk(tmp_path):
    # x has 200 levels in the first chunks and 600 after them; y repeats 3
    n = 2 * _LOAD_CHUNK
    x = np.where(np.arange(n) < _LOAD_CHUNK, np.arange(n) % 200, np.arange(n) % 600)
    lines = [f"t{a},{b}" for a, b in zip(x.tolist(), (np.arange(n) % 3).tolist())]
    path = tmp_path / "widens.csv"
    path.write_text("x,y\n" + "\n".join(lines) + "\n", encoding="utf-8")
    got, want = load_csv(str(path)), reference_load_csv(str(path))
    assert got.rows.dtype == want.rows.dtype == np.uint16
    assert got.arities == (600, 3)
    assert got.levels == want.levels
    np.testing.assert_array_equal(got.rows, want.rows)


def test_load_csv_holds_under_three_bytes_a_cell(tmp_path):
    # a 5,000 x 200 ternary file: the rows end up one byte a cell, and no
    # whole-file array wider than that is built on the way
    rows = np.random.default_rng(0).integers(0, 3, size=(5000, 200))
    path = tmp_path / "ternary.csv"
    write_csv(from_array(rows), path)
    tracemalloc.start()
    try:
        ds = load_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows.size
    assert ds.rows.shape == rows.shape and ds.rows.dtype == np.uint8


def test_written_forms_copy_no_column():
    # the used levels are counted a bounded block of rows at a time; a
    # bincount of a whole one-byte column would copy it to intp, 8 bytes a row
    n = 400_000
    ds = from_array(np.random.default_rng(0).integers(0, 2, size=(n, 3)))
    tracemalloc.start()
    try:
        forms = _written_forms(ds, np.array([0, 2, 4]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forms.tolist() == ["0", "1"] * 3
    assert peak < 2 * n


def test_write_csv_holds_the_ranks_not_an_object_a_row(tmp_path):
    # 200,000 rows of six binary columns, 64 distinct, so write_csv joins
    # one line a distinct row. Beside the rows it holds the int64 ranks
    # (8 bytes a row), the one-byte codes they are ranked from, the distinct
    # lines and one gather block: a Python object or an index per row (a
    # list of the ranks, say, at 8 bytes a row more) breaks the bound.
    n = 200_000
    ds = from_array(np.random.default_rng(0).integers(0, 2, size=(n, 6)))
    line = sys.getsizeof("0,1,0,1,0,1")
    lines = 64 * (line + 8)
    # the gathered references, their list, the joined text and its bytes
    block = _GATHER_BLOCK * (8 + 8 + 2 * 12)
    tracemalloc.start()
    try:
        write_csv(ds, tmp_path / "binary.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * n + lines + block + 64 * 1024


class TestConfigCodes:
    def test_nominal_last_column_fastest(self):
        rows = np.array([[0, 0], [0, 1], [1, 0], [1, 2]])
        codes = radix_code(rows.T, (0, 1), [2, 3], np.int64)
        assert codes.tolist() == [0, 1, 3, 5]
        # no variables (a root node of forward_sample): code 0 for every row
        codes = radix_code(rows.T, (), [], np.int64)
        assert codes.dtype == np.int64 and codes.tolist() == [0, 0, 0, 0]

    def test_observed_compresses(self):
        rows = np.array([[1, 1], [0, 0], [1, 1], [0, 2]])
        codes, l = observed_config_codes(rows, [2, 3])
        assert l == 3
        # dense codes follow the mixed-radix order of the configurations
        assert codes.tolist() == [2, 0, 2, 1]

    def test_zero_columns(self):
        codes, l = observed_config_codes(np.zeros((4, 0), dtype=int), [])
        assert codes.tolist() == [0, 0, 0, 0] and l == 1


def pair_table(ds, x, y, z=()):
    return count_table(ds, (x, y), z)


class TestContingency:
    def test_marginal_pair_table(self):
        ds = from_array(
            np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), arities=[2, 2]
        )
        t = pair_table(ds, 0, 1)
        assert (t.shape, t.sum()) == ((2, 2, 1), 4)
        assert np.array_equal(t[:, :, 0], np.ones((2, 2), dtype=int))

    def test_unseen_stratum_not_materialized(self):
        ds = from_array(
            np.array([[0, 0, 0], [1, 1, 0], [0, 1, 0]]), arities=[2, 2, 2]
        )
        t = pair_table(ds, 0, 1, (2,))
        assert t.shape[2] == 1

    def test_counts_match_brute_force_tally(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 3, size=(6, 4))
        ds = from_array(rows, arities=[3, 3, 3, 3])
        t = pair_table(ds, 0, 2, (1, 3))
        strata = tally_contingency(rows, 0, 2, (1, 3))
        r, c, l = t.shape
        assert l == len(strata)
        # match per-stratum counts irrespective of stratum indexing
        seen = sorted(
            tuple(sorted(pairs)) for pairs in strata.values()
        )
        built = []
        for k in range(l):
            pairs = []
            for i in range(r):
                for j in range(c):
                    pairs.extend([(i, j)] * int(t[i, j, k]))
            built.append(tuple(sorted(pairs)))
        assert sorted(built) == seen

    def test_marginal_invariants(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 2, size=(40, 5))
        ds = from_array(rows, arities=[2] * 5)
        t = pair_table(ds, 1, 3, (0, 4))
        assert t.sum() == ds.n == 40
        ni_k = t.sum(axis=1)
        assert np.all(ni_k.sum(axis=0) == t.sum(axis=(0, 1)))


class TestKfold:
    def test_even_split(self):
        folds = kfold(100, 10, seed=1)
        sizes = np.bincount(folds.fold_of_row, minlength=10)
        assert sizes.tolist() == [10] * 10

    def test_remainder_split(self):
        folds = kfold(11, 10, seed=1)
        sizes = sorted(np.bincount(folds.fold_of_row, minlength=10).tolist())
        assert sizes == [1] * 9 + [2]

    def test_deterministic(self):
        a = kfold(593, 10, seed=42)
        b = kfold(593, 10, seed=42)
        assert np.array_equal(a.fold_of_row, b.fold_of_row)

    def test_partition(self):
        folds = kfold(37, 5, seed=0)
        all_rows = np.concatenate([folds.test_indices(f) for f in range(5)])
        assert sorted(all_rows.tolist()) == list(range(37))
        for f in range(5):
            test = set(folds.test_indices(f).tolist())
            train = set(folds.train_indices(f).tolist())
            assert not test & train
            assert len(test | train) == 37

    def test_bounds(self):
        with pytest.raises(ValueError):
            kfold(5, 1, seed=0)
        with pytest.raises(ValueError):
            kfold(5, 6, seed=0)
