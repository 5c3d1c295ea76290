"""Discrete datasets: CSV I/O, count tables, cross-validation folds, and
the checks shared by the JSON file readers.

Variables are categorical with 0-based level indices. A dataset keeps the
original tokens per level so predictions and exports can be mapped back.
Datasets are immutable after construction and safe for concurrent readers.
"""

import csv
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

# count_table's int64 codes over head cells and observed strata stay below this.
_CODE_LIMIT = 2**62


class DataError(ValueError):
    """An input file or dataset violates the format contract."""


@dataclass(frozen=True)
class CategoricalDataset:
    """Column-oriented table of discrete variables.

    Parameters
    ----------
    names : tuple of str
        One name per variable (column).
    levels : tuple of tuple of str
        levels[i][v] is the token behind level index v of variable i;
        the arity of variable i is len(levels[i]).
    rows : ndarray of shape (n, d)
        Integer level indices, 0 <= rows[:, i] < arity(i).
    """

    names: tuple
    levels: tuple
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2:
            raise DataError("rows must be a 2-d array")
        if rows.shape[1] != len(self.names) or len(self.names) != len(self.levels):
            raise DataError("names, levels and row width disagree")
        if len(set(self.names)) != len(self.names):
            dup = next(v for v in self.names if self.names.count(v) > 1)
            raise DataError(f"duplicate column name {dup!r}")
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        for i, lv in enumerate(self.levels):
            if len(lv) < 1:
                raise DataError(f"variable {self.names[i]!r} has no levels")
            if rows.shape[0] and (rows[:, i].min() < 0 or rows[:, i].max() >= len(lv)):
                raise DataError(f"level index out of range in column {self.names[i]!r}")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "levels", tuple(tuple(lv) for lv in self.levels))

    @cached_property
    def distinct_rows(self):
        """Read-only store of the distinct rows, as (columns, weights).

        columns has shape (d, U), column-major in the smallest unsigned
        dtype that holds every level index, with one column per distinct row
        configuration; weights[u] is the number of rows equal to distinct
        row u, as float64 (exact below 2**53). Every count table is a
        weighted ``bincount`` over the U distinct rows (see ``count_table``).
        Built on first use.
        """
        top = max(self.arities, default=1) - 1
        columns = np.ascontiguousarray(self.rows.T, dtype=np.min_scalar_type(top))
        codes, u = observed_config_codes(columns.T, self.arities)
        weights = np.bincount(codes, minlength=u).astype(np.float64)
        first = np.zeros(u, dtype=np.intp)
        first[codes] = np.arange(self.n)
        columns = np.ascontiguousarray(columns[:, first])
        columns.setflags(write=False)
        weights.setflags(write=False)
        return columns, weights

    @property
    def n(self):
        return self.rows.shape[0]

    @property
    def d(self):
        return self.rows.shape[1]

    @property
    def arities(self):
        return tuple(len(lv) for lv in self.levels)

    def arity(self, i):
        return len(self.levels[i])

    def column_index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown column {name!r}") from None

    @classmethod
    def from_array(cls, rows, arities=None, names=None):
        """Build a dataset from an integer matrix.

        Arities default to max+1 per column; tokens default to the decimal
        digits of the level indices.
        """
        rows = np.asarray(rows, dtype=np.int32)
        if rows.ndim != 2:
            raise DataError("rows must be a 2-d array")
        d = rows.shape[1]
        if arities is None:
            if rows.shape[0] == 0:
                raise DataError("cannot infer arities from an empty matrix")
            arities = [int(rows[:, i].max()) + 1 for i in range(d)]
        if names is None:
            names = [f"v{i}" for i in range(d)]
        levels = [tuple(str(v) for v in range(a)) for a in arities]
        return cls(tuple(names), tuple(levels), rows)

    def subset_rows(self, indices):
        """Dataset restricted to the given row indices (metadata shared)."""
        idx = np.asarray(indices, dtype=np.int64)
        return CategoricalDataset(self.names, self.levels, self.rows[idx])


@dataclass(frozen=True)
class ContingencyTable:
    """Joint counts n_ijk of a variable pair over observed Z-configurations.

    counts has shape (r, c, l); the last axis indexes the conditioning-set
    configurations that actually occur in the data (zero strata are never
    materialized).
    """

    r: int
    c: int
    l: int
    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (self.r, self.c, self.l):
            raise ValueError("counts shape disagrees with (r, c, l)")
        if int(counts.sum()) != self.n:
            raise ValueError("counts do not sum to n")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of rows into k cross-validation folds."""

    fold_of_row: np.ndarray

    def test_indices(self, fold):
        return np.flatnonzero(self.fold_of_row == fold)

    def train_indices(self, fold):
        return np.flatnonzero(self.fold_of_row != fold)


def one_pass_cells(rows):
    """The widest code range one ``bincount`` over rows rows fills densely:
    count_table's one-pass bound and observed_config_codes' span."""
    return 4 * rows + 1024


def observed_config_codes(rows, arities):
    """Compress the given columns into dense codes of observed configurations.

    Returns (codes, l) where codes maps each row to an index in [0, l) and l
    is the number of distinct configurations present (0 when there are no
    rows, 1 when there are no columns).

    Invariant: the map is order-preserving. Codes rank each row's
    configuration among the observed ones in mixed-radix order (last column
    fastest), so they equal the inverse of ``np.unique`` over the mixed-radix
    codes, and table layouts built from them do not depend on how the codes
    were computed. Intermediate compression keeps arbitrarily many columns
    safe.
    """
    rows = np.asarray(rows)
    n, m = rows.shape
    if m == 0:
        return np.zeros(n, dtype=np.int64), 1
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    # The code lives in the narrowest unsigned dtype that holds its range.
    # Whenever the next radix would widen that range past a few times n, the
    # prefix is ranked first; ranking preserves order, so the result is the
    # same, and the range stays far below _CODE_LIMIT.
    span = one_pass_cells(n)
    cap = int(arities[0])
    code = rows[:, 0].astype(np.min_scalar_type(cap))
    for t in range(1, m):
        a = int(arities[t])
        if cap * a > span:
            code, cap = _dense_ranks(code, cap, span)
            if cap == n:
                # Every row is distinct already; the prefix is the most
                # significant part of the code, so its ranks are final.
                return code, n
        cap *= a
        code = code.astype(np.min_scalar_type(cap), copy=False)
        code *= a
        np.add(code, rows[:, t], out=code, casting="unsafe")
    return _dense_ranks(code, cap, span)


def _dense_ranks(code, cap, span):
    # Rank of each code among the distinct codes in [0, cap), as int64. A
    # bincount presence mask and its running sum give the ranks in
    # O(cap + n); only a code range far wider than the data (very high
    # arities) falls back to a sort.
    if cap > 16 * span:
        uniq, ranks = np.unique(code, return_inverse=True)
        return ranks.astype(np.int64), int(uniq.size)
    code = code.astype(np.intp, copy=False)
    ranks = np.cumsum(np.bincount(code, minlength=cap) > 0, dtype=np.int64)
    ranks -= 1
    return ranks[code], int(ranks[-1]) + 1


def count_table(data, head, z=()):
    """Joint counts of the head variables for each observed configuration of z.

    Returns an int64 C-contiguous array of shape (*head arities, l):
    counts[i_1, ..., i_k, j] is the number of rows whose head variables take
    levels i_1..i_k and whose z takes its j-th observed configuration (in
    mixed-radix order, last of z fastest). Strata with zero total count are
    not indexed; with no z, l is 1 and the table is the nominal head table.

    The table is a weighted count over the dataset's distinct rows. When the
    nominal (head, Z) space is within ``one_pass_cells`` of the number of
    distinct rows, each row gets its mixed-radix code over that space (head
    slowest) and one ``bincount`` fills it; dropping the empty strata then
    leaves them in observed-rank order. Wider spaces rank the
    Z-configurations first with ``observed_config_codes``, which keeps the
    code range bounded by the head table times the data; that range must
    stay below 2**62.
    """
    head, z = tuple(head), tuple(z)
    columns, weights = data.distinct_rows
    shape = [data.arity(v) for v in head]
    cells = math.prod(shape)
    z_arities = [data.arity(v) for v in z]
    q = math.prod(z_arities)
    if cells * q <= one_pass_cells(weights.size):
        code = radix_code(
            columns, (*head, *z), shape + z_arities, np.min_scalar_type(cells * q))
        counts = np.bincount(code, weights, minlength=cells * q).reshape(*shape, q)
        if z:
            counts = counts[..., counts.sum(axis=tuple(range(len(head)))) > 0]
    else:
        ranks, l = observed_config_codes(columns[list(z)].T, z_arities)
        if cells * l >= _CODE_LIMIT:
            raise ValueError("nominal configuration space too large to encode")
        code = radix_code(columns, head, shape, np.int64)
        code *= l
        code += ranks
        counts = np.bincount(code, weights, minlength=cells * l).reshape(*shape, l)
    # C order fixes the summation order of every reduction over the table.
    return np.ascontiguousarray(counts, dtype=np.int64)


class JointCounts:
    """Counts of (lo, hi, *scope), kept as the nonzero cells, from which
    the (lo, hi, z) table of any z within scope is taken as an exact
    integer marginal. Each marginal has exactly the layout that
    ``count_table(data, (lo, hi), z)`` gives."""

    def __init__(self, data, lo, hi, scope):
        self.lo, self.hi = lo, hi
        self.r, self.c = data.arity(lo), data.arity(hi)
        self._arities = {v: data.arity(v) for v in scope}
        self._position = {v: i for i, v in enumerate(scope)}
        joint = count_table(data, (lo, hi, *scope)).reshape(self.r * self.c, -1)
        # head cell, scope-configuration digits and count of each nonzero cell
        self._head, config = np.nonzero(joint)
        self._weights = joint[self._head, config].astype(float)
        self.nonzero = config.size
        shape = tuple(self._arities.values())
        digits = np.unravel_index(config, shape) if scope else ()
        self._digits = np.array(digits, dtype=float).reshape(len(scope), config.size)

    @staticmethod
    def fits(data, lo, hi, scope):
        """Whether the nominal (lo, hi, *scope) table is within count_table's
        one-pass bound; only such a joint is counted."""
        cells = math.prod(data.arity(v) for v in (lo, hi, *scope))
        return cells <= one_pass_cells(data.distinct_rows[1].size)

    def strata(self, z):
        """Nominal configurations of z."""
        return math.prod(self._arities[v] for v in z)

    def marginals(self, zsets):
        """(counts, l): the (lo, hi, z) tables of the sorted zsets side by
        side, shape (r, c, sum(l)); table t holds the l[t] observed
        z-configurations in rank order, as count_table lays them out."""
        # radix[t, i]: the weight of scope variable i in z_t's mixed-radix
        # code (last of z fastest); the codes are small integers, exact in
        # the float product
        radix = np.zeros((len(zsets), len(self._position)))
        strata = np.empty(len(zsets), dtype=np.intp)
        for t, z in enumerate(zsets):
            step = 1
            for v in reversed(z):
                radix[t, self._position[v]] = step
                step *= self._arities[v]
            strata[t] = step
        ends = np.cumsum(strata)
        code = (radix @ self._digits).astype(np.intp) + (ends - strata)[:, None]
        seen = np.cumsum(np.bincount(code.ravel(), minlength=int(ends[-1])) > 0)
        total = int(seen[-1])
        cell = self._head * total + seen[code] - 1
        weights = np.broadcast_to(self._weights, cell.shape).ravel()
        counts = np.bincount(cell.ravel(), weights, minlength=self.r * self.c * total)
        l = np.diff(seen[ends - 1], prepend=0).tolist()
        return counts.reshape(self.r, self.c, total), l


def radix_code(columns, variables, arities, dtype):
    """Mixed-radix code of each position of columns over the given
    variables and their arities, first slowest; columns[v] holds the levels
    of variable v. dtype must hold the whole code range (no check is made
    here); no variables give code 0."""
    if not variables:
        return np.zeros(columns.shape[1], dtype=dtype)
    code = columns[variables[0]].astype(dtype)
    for v, a in zip(variables[1:], arities[1:]):
        code *= a
        code += columns[v]
    return code


def kfold(n, k, seed):
    """Assign n rows to k folds of near-equal size, deterministically per seed."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of rows n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    fold_of_row = np.empty(n, dtype=np.int32)
    base, rem = divmod(n, k)
    start = 0
    for f in range(k):
        size = base + (1 if f < rem else 0)
        fold_of_row[perm[start:start + size]] = f
        start += size
    return FoldAssignment(fold_of_row=fold_of_row)


class _StrippedIds(dict):
    """One column's raw token -> level index of its stripped token. Each
    raw token is stripped once, when first looked up; level indices count
    the column's distinct stripped tokens in order of first appearance, and
    stripped maps each of them, in that order, to its index."""

    def __init__(self):
        super().__init__()
        self.stripped = {}

    def __missing__(self, raw):
        tid = self[raw] = self.stripped.setdefault(raw.strip(), len(self.stripped))
        return tid


def load_csv(path, delimiter=","):
    """Load a delimited text file into a CategoricalDataset.

    The first line holds the column names. Tokens are mapped to level
    indices in first-appearance order, per column. Constant columns, ragged
    rows, empty files, a blank first line and empty tokens are errors; of
    the ragged rows and missing values, the first in file order is
    reported, by its line in the file (the header is line 1). So are files
    that are not UTF-8 text and fields the csv module rejects.
    """
    # The rows are mapped as they are read, up to the first ragged one: one
    # pass maps every cell, through its column's _StrippedIds, to its level
    # index, and no row is kept. The rest of the file is still read, so that
    # the csv module's errors come first wherever they are. Level indices
    # are below the row count, so int32 holds them for any file of fewer
    # than 2**31 rows.
    n, width = 0, None

    def rows_before_ragged(rows, d):
        nonlocal n, width
        for row in rows:
            if len(row) != d:
                width = len(row)
                return
            n += 1
            yield row

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            top = next(reader, None)
            if top is not None:
                names = [t.strip() for t in top]
                d = len(names)
                ids = [_StrippedIds() for _ in names]
                body = rows_before_ragged(reader, d)
                cells = itertools.chain.from_iterable(body)
                rows = np.fromiter(
                    map(_StrippedIds.__getitem__, itertools.cycle(ids), cells), np.int32
                )
                # with no columns the map takes no cell, so body is read here
                for _ in itertools.chain(body, reader):
                    pass
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except csv.Error as exc:
            raise DataError(f"bad CSV at line {reader.line_num} of {path}: {exc}") from None
    if top is None:
        raise DataError(f"empty file: {path}")
    if n == 0 and width is None:
        raise DataError(f"no data rows in {path}")
    rows = rows.reshape(n, d)
    # a column's id of "" is -1 while no cell of it is blank
    blank = [col.stripped.get("", -1) for col in ids]
    if max(blank, default=-1) >= 0:
        rix, cix = divmod(int(np.argmax(rows == blank)), d)
        raise DataError(f"missing value at row {rix + 2}, column {names[cix]!r}")
    if width is not None:
        raise DataError(f"ragged row {n + 2}: expected {d} fields, got {width}")
    if d == 0:
        raise DataError(f"no column names on line 1 of {path}")
    for name, col in zip(names, ids):
        if len(col.stripped) < 2:
            raise DataError(f"constant column {name!r}")
    levels = tuple(tuple(col.stripped) for col in ids)
    return CategoricalDataset(tuple(names), levels, rows)


def write_csv(data, path):
    """Write a dataset back to disk using its original tokens.

    The csv writer writes each level that some row uses once. Rows go out
    in blocks of 512, each gathered from those written forms in one lookup
    and joined, so the bytes are the ones the writer would give row by row.
    """
    d = data.d
    first = np.cumsum((0,) + data.arities)[:-1]  # each column's first form
    forms = _written_forms(data, first)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(data.names)
        for start in range(0, data.n, 512):
            block = data.rows[start:start + 512]
            cells = forms.take(block + first).ravel().tolist()
            # One list a block and one short-lived slice a row: lists are
            # containers the garbage collector counts, and 512 of them alive
            # at once moved it on so far that forked workers later
            # collected, and so copied, the whole heap they inherit.
            fh.write("\n".join([",".join(cells[i * d:(i + 1) * d])
                                for i in range(len(block))]))
            fh.write("\n")


def _written_forms(data, first):
    # The levels the rows use, as the csv writer writes them. Levels no row
    # uses stay None, so the cost follows the cells written, not the levels
    # (a fold of a real-valued file carries every level of the whole file).
    # The writer hands each row it writes to lines. A row of a column's
    # tokens that comes back as their plain join shows that each token is
    # its own form, since quoting only lengthens a field; otherwise each
    # token is written in a row of its own. So is each token of a
    # one-column file, whose row of one empty field is quoted.
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    alone = data.d == 1
    forms = np.empty(int(sum(data.arities)), dtype=object)
    for col, levels in enumerate(data.levels):
        used = np.flatnonzero(np.bincount(data.rows[:, col], minlength=len(levels)))
        tokens = [levels[i] for i in used.tolist()]
        lines.clear()
        writer.writerow(tokens)
        if alone or lines[0] != ",".join(tokens) + "\n":
            lines.clear()
            writer.writerows([t] if alone else [t, ""] for t in tokens)
            tokens = [line[:-1 if alone else -2] for line in lines]
        forms[first[col] + used] = tokens
    return forms


def parse_numeric_column(data, col):
    """Original tokens of one column as floats (for median binarization)."""
    try:
        lut = np.array([float(t) for t in data.levels[col]], dtype=float)
    except ValueError:
        raise DataError(
            f"column {data.names[col]!r} is not numeric and cannot be binarized"
        ) from None
    return lut[data.rows[:, col]]


def _not_utf8(path):
    return DataError(f"{path} is not UTF-8 text")


def read_json_object(path, fields):
    """Parse a JSON file whose top level is an object; fields maps each
    required key to the type its value must have (list or dict)."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path} does not hold a JSON object")
    for key, kind in fields.items():
        if not isinstance(doc.get(key), kind):
            kind_name = "array" if kind is list else "object"
            raise DataError(f"{path} needs a JSON {kind_name} under {key!r}")
    return doc


def write_json(doc, path):
    """Write doc as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def name_pairs(pairs, index, what):
    """Index pairs of a JSON list of [name, name] pairs; index maps names to
    indices and what names a pair in error messages."""
    out = []
    for pair in pairs:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(t, str) and t in index for t in pair)
        ):
            raise DataError(f"bad {what} {pair!r}")
        out.append((index[pair[0]], index[pair[1]]))
    return out
