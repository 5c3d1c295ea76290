import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn.data import (
    _written_forms,
    CategoricalDataset,
    ContingencyTable,
    DataError,
    count_table,
    kfold,
    load_csv,
    observed_config_codes,
    parse_numeric_column,
    radix_code,
    write_csv,
)

from helpers import reference_load_csv, tally_contingency


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


@st.composite
def csv_files(draw):
    """(text, delimiter) of a small file, header line first; in about half
    the files, one row in six may be ragged or hold blank tokens. A header
    of no columns is a blank first line."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    d = draw(st.integers(0, 5))
    n = draw(st.integers(0, 12))
    ok = st.lists(TOKENS.filter(str.strip), min_size=d, max_size=d)
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
    text = "".join(delimiter.join(line) + "\n" for line in lines)
    return text, delimiter


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "d.csv"


def load_outcome(loader, path, delimiter):
    try:
        ds = loader(path, delimiter=delimiter)
    except DataError as exc:
        return str(exc)
    return ds.names, ds.levels, ds.rows.dtype, ds.rows.tolist()


@settings(max_examples=400, deadline=None)
@given(case=csv_files())
def test_load_csv_matches_reference(csv_path, case):
    text, delimiter = case
    csv_path.write_text(text, encoding="utf-8")
    path = str(csv_path)
    want = load_outcome(reference_load_csv, path, delimiter)
    assert load_outcome(load_csv, path, delimiter) == want


@st.composite
def wide_csv_files(draw):
    """(text, delimiter) of a file of a header and up to 60 rows whose
    columns each draw from up to 50 tokens, with one or more spaces around
    some cells, so that several raw tokens strip to one level. The columns
    share their tokens or keep their own; the latter gives more distinct
    tokens than rows. One file in ten with columns has a blank cell; a file
    of no columns has a blank first line and blank rows."""
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    d = draw(st.integers(0, 4))
    n = draw(st.integers(1, 60))
    shared = draw(st.booleans())
    pools = [
        [f"t{i}" if shared else f"c{cix}t{i}" for i in range(draw(st.integers(1, 50)))]
        for cix in range(d)
    ]
    pad = st.sampled_from(["{}", " {}", "{} ", "  {} "])
    lines = [[f"c{cix}" for cix in range(d)]]
    for _ in range(n):
        lines.append([draw(pad).format(draw(st.sampled_from(pool))) for pool in pools])
    if d and draw(st.integers(0, 9)) == 0:
        row = draw(st.integers(1, n))
        lines[row][draw(st.integers(0, d - 1))] = draw(st.sampled_from(["", " "]))
    text = "".join(delimiter.join(line) + "\n" for line in lines)
    return text, delimiter


@settings(max_examples=200, deadline=None)
@given(case=wide_csv_files())
def test_load_csv_matches_reference_on_wide_columns(csv_path, case):
    text, delimiter = case
    csv_path.write_text(text, encoding="utf-8")
    path = str(csv_path)
    want = load_outcome(reference_load_csv, path, delimiter)
    assert load_outcome(load_csv, path, delimiter) == want


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
        ds = CategoricalDataset.from_array(np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            ds.rows[0, 0] = 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate column name 'a'"):
            CategoricalDataset(("a", "a", "b"), (("0", "1"),) * 3,
                               np.zeros((2, 3), int))

    def test_column_store(self):
        rows = np.array([[0, 2], [1, 0], [1, 1]])
        ds = CategoricalDataset.from_array(rows)
        assert not hasattr(ds, "columns")
        columns, weights = ds.distinct_rows
        assert columns.dtype == np.uint8
        assert columns.flags.c_contiguous
        assert ds.rows.dtype == np.int32 and ds.rows.flags.c_contiguous
        # every row is distinct, so the store holds them all, in code order
        np.testing.assert_array_equal(columns, rows.T)
        assert weights.tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(ValueError):
            columns[0, 0] = 1

    def test_column_store_widens_with_arity(self):
        ds = CategoricalDataset.from_array(np.array([[0, 299]]))
        columns, _ = ds.distinct_rows
        assert columns.dtype == np.uint16
        assert columns[1].tolist() == [299]

    def test_from_array_infers_arities(self):
        ds = CategoricalDataset.from_array(np.array([[0, 2], [1, 0]]))
        assert ds.arities == (2, 3)
        assert ds.levels[1] == ("0", "1", "2")

    def test_column_index(self):
        ds = CategoricalDataset.from_array(np.array([[0, 1]]), arities=[2, 2],
                                           names=["a", "b"])
        assert ds.column_index("b") == 1
        with pytest.raises(DataError, match="unknown column"):
            ds.column_index("zzz")

    def test_subset_rows(self):
        ds = CategoricalDataset.from_array(np.array([[0], [1], [0]]), arities=[2])
        sub = ds.subset_rows([2, 0])
        assert sub.rows[:, 0].tolist() == [0, 0]
        assert sub.levels == ds.levels

    def test_parse_numeric_column(self):
        ds = CategoricalDataset.from_array(np.array([[0], [1], [1]]), arities=[2])
        assert parse_numeric_column(ds, 0).tolist() == [0.0, 1.0, 1.0]

    def test_parse_numeric_column_rejects_tokens(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nfoo,0\nbar,1\n", encoding="utf-8")
        ds = load_csv(str(path))
        with pytest.raises(DataError, match="not numeric"):
            parse_numeric_column(ds, 0)


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
    counts = count_table(ds, (x, y), z)
    r, c, l = counts.shape
    return ContingencyTable(r=r, c=c, l=l, counts=counts, n=ds.n)


class TestContingency:
    def test_marginal_pair_table(self):
        ds = CategoricalDataset.from_array(
            np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), arities=[2, 2]
        )
        t = pair_table(ds, 0, 1)
        assert (t.r, t.c, t.l, t.n) == (2, 2, 1, 4)
        assert np.array_equal(t.counts[:, :, 0], np.ones((2, 2), dtype=int))

    def test_unseen_stratum_not_materialized(self):
        ds = CategoricalDataset.from_array(
            np.array([[0, 0, 0], [1, 1, 0], [0, 1, 0]]), arities=[2, 2, 2]
        )
        t = pair_table(ds, 0, 1, (2,))
        assert t.l == 1

    def test_counts_match_brute_force_tally(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 3, size=(6, 4))
        ds = CategoricalDataset.from_array(rows, arities=[3, 3, 3, 3])
        t = pair_table(ds, 0, 2, (1, 3))
        strata = tally_contingency(rows, 0, 2, (1, 3))
        assert t.l == len(strata)
        # match per-stratum counts irrespective of stratum indexing
        seen = sorted(
            tuple(sorted(pairs)) for pairs in strata.values()
        )
        built = []
        for k in range(t.l):
            pairs = []
            for i in range(t.r):
                for j in range(t.c):
                    pairs.extend([(i, j)] * int(t.counts[i, j, k]))
            built.append(tuple(sorted(pairs)))
        assert sorted(built) == seen

    def test_marginal_invariants(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 2, size=(40, 5))
        ds = CategoricalDataset.from_array(rows, arities=[2] * 5)
        t = pair_table(ds, 1, 3, (0, 4))
        assert int(t.counts.sum()) == t.n == 40
        ni_k = t.counts.sum(axis=1)
        assert np.all(ni_k.sum(axis=0) == t.counts.sum(axis=(0, 1)))

    def test_table_validation(self):
        with pytest.raises(ValueError):
            ContingencyTable(r=2, c=2, l=1, counts=np.ones((2, 2, 1), int), n=5)


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
