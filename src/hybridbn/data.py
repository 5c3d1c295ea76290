"""Discrete datasets: CSV I/O, count tables, cross-validation folds, and
the checks shared by the JSON file readers.

Variables are categorical with 0-based level indices. A dataset keeps the
original tokens per level so predictions and exports can be mapped back.
Datasets are immutable after construction and safe for concurrent readers.
"""

import codecs
import csv
import itertools
import json
import math
import os
import stat
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

# count_table's int64 codes over head cells and observed strata stay below this.
_CODE_LIMIT = 2**62


class DataError(ValueError):
    """An input file or dataset violates the format contract."""


def row_dtype(arities):
    """The dtype a dataset holds its level indices in: the smallest unsigned
    type that holds max(arities) - 1 (uint8 up to 256 levels, uint16 up to
    65,536, uint32 above). Arithmetic on rows stays in that type unless the
    other operand is wider (NumPy 2), so widen before adding or multiplying
    past the arity."""
    return np.min_scalar_type(max(arities, default=1) - 1)


@dataclass(frozen=True)
class CategoricalDataset:
    """Column-oriented table of discrete variables.

    Parameters
    ----------
    names : tuple of str
        One name per variable (column).
    levels : tuple of tuple of str
        levels[i][v] is the token behind level index v of variable i;
        the arity of variable i, ``arities[i]``, is len(levels[i]).
    rows : ndarray of shape (n, d)
        Integer level indices, 0 <= rows[:, i] < arities[i]. They are checked
        in the dtype given and stored C-contiguous and read-only in
        ``row_dtype(arities)``.
    """

    names: tuple
    levels: tuple
    rows: np.ndarray
    arities: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2:
            raise DataError("rows must be a 2-d array")
        if rows.shape[1] != len(self.names) or len(self.names) != len(self.levels):
            raise DataError("names, levels and row width disagree")
        if len(set(self.names)) != len(self.names):
            dup = next(v for v in self.names if self.names.count(v) > 1)
            raise DataError(f"duplicate column name {dup!r}")
        levels = tuple(tuple(lv) for lv in self.levels)
        arities = tuple(len(lv) for lv in levels)
        # checked in the given dtype, so no index wraps into range first; the
        # whole array's min and max clear it at once unless some column has
        # an index at or past the smallest arity
        top = np.array(arities, dtype=np.int64)
        bad = top < 1
        if rows.size and (rows.min() < 0 or rows.max() >= min(arities)):
            bad |= (rows.min(axis=0) < 0) | (rows.max(axis=0) >= top)
        if bad.any():
            i = int(np.argmax(bad))
            if not arities[i]:
                raise DataError(f"variable {self.names[i]!r} has no levels")
            raise DataError(f"level index out of range in column {self.names[i]!r}")
        rows = np.ascontiguousarray(rows, dtype=row_dtype(arities))
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "arities", arities)

    @cached_property
    def distinct_rows(self):
        """Read-only store of the distinct rows, as (columns, weights).

        columns has shape (d, U), column-major in the rows' own dtype, with
        one column per distinct row configuration; weights[u] is the number
        of rows equal to distinct row u, as float64 (exact below 2**53).
        Every count table is a weighted ``bincount`` over the U distinct rows
        (see ``count_table``). Built on first use.
        """
        columns = np.ascontiguousarray(self.rows.T)
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

    def column_index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown column {name!r}") from None

    def subset_rows(self, indices):
        """Dataset restricted to the given row indices (metadata shared)."""
        idx = np.asarray(indices, dtype=np.int64)
        return CategoricalDataset(self.names, self.levels, self.rows[idx])


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
    # The counts become the presence mask and then its running sum in place,
    # and the ranks overwrite the intp codes, which are observed_config_codes'
    # own: each position's code is read before its rank is written there
    # (mode "raise" would buffer the output). So the pass makes one cap-long
    # and at most one row-long array.
    code = code.astype(np.intp, copy=False)
    ranks = np.bincount(code, minlength=cap)
    np.minimum(ranks, 1, out=ranks)
    np.cumsum(ranks, out=ranks)
    ranks -= 1
    return ranks.take(code, out=code, mode="clip"), int(ranks[-1]) + 1


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
    shape = [data.arities[v] for v in head]
    cells = math.prod(shape)
    z_arities = [data.arities[v] for v in z]
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
        self.r, self.c = data.arities[lo], data.arities[hi]
        self._arities = {v: data.arities[v] for v in scope}
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
        cells = math.prod(data.arities[v] for v in (lo, hi, *scope))
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


# Cells (at most) that load_csv maps before it narrows them to the row dtype.
_LOAD_CHUNK = 65536


def load_csv(path, delimiter=","):
    """Load a delimited text file into a CategoricalDataset.

    The first line holds the column names. Tokens are mapped to level
    indices in first-appearance order, per column. Constant columns, ragged
    rows, empty files, a blank first line and empty tokens are errors; of
    the ragged rows and missing values, the first in file order is
    reported, by its line in the file (the header is line 1). So are files
    that are not UTF-8 text and fields the csv module rejects. A leading
    UTF-8 byte-order mark is not part of the text.

    A regular file whose tokens are each one printable ASCII byte, other
    than a quote or the delimiter, is read with whole-array passes
    (``_load_plain``); every other file, and every file with an error, is
    read by the csv module. Both give the same dataset.
    """
    data = _load_plain(path, delimiter)
    return data if data is not None else _load_with_csv(path, delimiter)


def _load_with_csv(path, delimiter):
    # The csv path reads any file and is the only one that raises.
    #
    # The rows are mapped as they are read, up to the first ragged one: one
    # pass maps every cell, through its column's _StrippedIds, to its level
    # index, and no row is kept. The cells are taken in chunks of whole rows
    # and at most _LOAD_CHUNK cells, each narrowed to the row dtype of the
    # levels seen so far, so no whole-file array wider than the dataset's
    # own exists; slicing rows, not cells, keeps the per-cell path as short
    # as one whole-file map. Level indices are below the row count, so a
    # chunk's int32 holds them for any file of fewer than 2**31 rows. The
    # rest of the file is still read, so that the csv module's errors come
    # first wherever they are.
    n, width = 0, None

    def rows_before_ragged(rows, d):
        nonlocal n, width
        for row in rows:
            if len(row) != d:
                width = len(row)
                return
            n += 1
            yield row

    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # become part of the first column's name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            top = next(reader, None)
            if top is not None:
                names = [t.strip() for t in top]
                d = len(names)
                ids = [_StrippedIds() for _ in names]
                body = rows_before_ragged(reader, d)
                per_chunk = max(1, _LOAD_CHUNK // max(d, 1))  # whole rows
                chunks = []
                while True:
                    cells = itertools.chain.from_iterable(itertools.islice(body, per_chunk))
                    chunk = np.fromiter(
                        map(_StrippedIds.__getitem__, itertools.cycle(ids), cells), np.int32
                    )
                    if not chunk.size:
                        break
                    chunks.append(chunk.astype(row_dtype([len(c.stripped) for c in ids])))
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
    arities = [len(col.stripped) for col in ids]
    rows = np.concatenate([np.empty(0, np.uint8), *chunks], dtype=row_dtype(arities))
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
    for name, arity in zip(names, arities):
        if arity < 2:
            raise DataError(f"constant column {name!r}")
    levels = tuple(tuple(col.stripped) for col in ids)
    return CategoricalDataset(tuple(names), levels, rows)


# The array path reads files whose tokens are each one printable ASCII byte,
# as in every file the benchmark reads. Each data line then holds exactly
# 2 * d bytes, so a block of whole lines is one (k, 2 * d) array. Blocks are
# _BLOCK_BYTES rounded down to whole lines, and at least one line.
_BLOCK_BYTES = 1 << 15
# An unseen (token byte, column) pair; a column has at most 93 levels.
_NO_LEVEL = 255


class _Decline(Exception):
    """The array path cannot show that its dataset is the csv path's."""


def _load_plain(path, delimiter):
    """The dataset the csv path would return, read with whole-array passes,
    or None where that cannot be shown (the README's library tour lists
    when). In a file of one-byte tokens that are neither blank, a quote nor
    the delimiter, each line is a row and each delimiter ends a field, which
    is all the csv module would find there."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1
            and delimiter.isascii() and delimiter not in '"\r\n\0'):
        return None
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None  # a pipe would be read twice
        with open(path, "rb") as fh:
            return _read_plain(fh, ord(delimiter))
    except (OSError, UnicodeDecodeError, _Decline):
        return None


def _read_plain(fh, delimiter):
    head = fh.readline()
    size = os.fstat(fh.fileno()).st_size - len(head)  # bytes after the header
    head = head.removeprefix(codecs.BOM_UTF8)
    d = head.count(delimiter) + 1
    width = 2 * d
    # n lines of width bytes, the last maybe without its line end; so the
    # store below is at most half the file
    n = (size + 1) // width
    # (before Python 3.11, the csv module raises on a NUL)
    if (n < 1 or head == b"\n" or len(head) > csv.field_size_limit()
            or b'"' in head or b"\r" in head or b"\0" in head):
        raise _Decline
    names = [t.strip() for t in head[:-1].decode("utf-8").split(chr(delimiter))]
    if len(set(names)) < d:
        raise _Decline
    after = np.full(d, delimiter, np.uint8)  # the byte after each token
    after[-1] = ord("\n")
    # table[256 * c + byte]: column c's level index of the token byte
    table = np.full(256 * d, _NO_LEVEL, np.uint8)
    offsets = np.arange(0, 256 * d, 256)
    levels = [[] for _ in range(d)]
    rows = np.empty((n, d), np.uint8)
    per_block = max(1, _BLOCK_BYTES // width)
    for start in range(0, n, per_block):
        k = min(per_block, n - start)
        block = fh.read(k * width)
        if start + k == n and len(block) == k * width - 1:
            block += b"\n"
        if len(block) != k * width:
            raise _Decline
        lines = np.frombuffer(block, np.uint8).reshape(k, width)
        if not (lines[:, 1::2] == after).all():
            raise _Decline
        cells = np.add(lines[:, ::2], offsets, dtype=np.intp)
        ids = table.take(cells)
        new = ids == _NO_LEVEL
        if new.any():
            # a column's new tokens in order of first appearance, so that
            # its levels count them in that order
            for cell in _in_first_order(cells[new]).tolist():
                c, byte = divmod(cell, 256)
                # only printable ASCII other than a quote or the delimiter
                if not (32 < byte < 127 and byte not in (34, delimiter)):
                    raise _Decline
                table[cell] = len(levels[c])
                levels[c].append(chr(byte))
            ids = table.take(cells)
        rows[start:start + k] = ids
    if fh.read(1) or min(map(len, levels)) < 2:
        raise _Decline  # bytes past n lines, or a constant column
    return CategoricalDataset(tuple(names), tuple(map(tuple, levels)), rows)


def _in_first_order(values):
    # The distinct values in order of first appearance. np.unique without
    # indices would import numpy.ma (about 1.5 MB) into a process that
    # otherwise never loads it.
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    return values[np.sort(order[np.concatenate(([True], ranked[1:] != ranked[:-1]))])]


def write_csv(data, path):
    """Write a dataset back to disk using its original tokens.

    The csv writer writes each level that some row uses once, and lines are
    joined from those written forms, so the bytes are the ones the writer
    would give row by row. The rows are ranked with
    ``observed_config_codes``. When at most half of them are distinct, each
    distinct row's line is joined once, and the rows go out as those lines,
    _GATHER_BLOCK rows a write. Otherwise each block of _JOIN_BLOCK rows is
    joined from the forms.

    A first name that starts with U+FEFF is a DataError, as the file would
    start with a byte-order mark, which load_csv drops.
    """
    if data.names and data.names[0].startswith("\ufeff"):
        raise DataError(
            f"variable {data.names[0]!r} starts with a byte-order mark, which "
            "load_csv drops from the start of a file"
        )
    first = np.cumsum((0,) + data.arities)[:-1]  # each column's first form
    forms = _written_forms(data, first)
    ranks, u = observed_config_codes(data.rows, data.arities)
    # at most half the rows distinct: the line cache holds at most half the
    # file's lines
    if 2 * u <= data.n:
        lines = _distinct_lines(data, forms, first, ranks, u)
        blocks = (lines.take(ranks[start:start + _GATHER_BLOCK]).tolist()
                  for start in range(0, data.n, _GATHER_BLOCK))
    else:
        del ranks  # not read here; freed before the file is written
        blocks = (_row_lines(data.rows[start:start + _JOIN_BLOCK], forms, first)
                  for start in range(0, data.n, _JOIN_BLOCK))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(data.names)
        for block in blocks:
            fh.write("\n".join(block))
            fh.write("\n")


# Rows _row_lines joins at a time, rows one write of write_csv's
# distinct-line path gathers, and rows of a column _written_forms counts at
# a time.
_JOIN_BLOCK = 512
_GATHER_BLOCK = 4096
_COUNT_BLOCK = 65536


def _distinct_lines(data, forms, first, ranks, u):
    # lines[r]: the line of the distinct row of rank r. The distinct rows are
    # copied out a block at a time, so no row-length index exists beside the
    # ranks; rows of one rank hold equal levels, so it does not matter which
    # of them a repeated rank stores.
    distinct = np.empty((u, data.d), dtype=data.rows.dtype)
    for start in range(0, data.n, _GATHER_BLOCK):
        distinct[ranks[start:start + _GATHER_BLOCK]] = data.rows[start:start + _GATHER_BLOCK]
    lines = np.empty(u, dtype=object)
    for start in range(0, u, _JOIN_BLOCK):
        lines[start:start + _JOIN_BLOCK] = _row_lines(
            distinct[start:start + _JOIN_BLOCK], forms, first)
    return lines


def _row_lines(block, forms, first):
    # The lines of a block of rows, without line ends: one take of the rows'
    # level indices plus each column's offset into forms, one flat list, and
    # one join a row over its slice of that list. One list a block and one
    # short-lived slice a row: lists are containers the garbage collector
    # counts, and 512 of them alive at once moved it on so far that forked
    # workers later collected, and so copied, the whole heap they inherit.
    d = block.shape[1]
    cells = forms.take(block + first).ravel().tolist()
    return [",".join(cells[i * d:(i + 1) * d]) for i in range(len(block))]


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
        # bincount copies the column to intp, 8 bytes a row, so it counts
        # _COUNT_BLOCK rows at a time
        used = np.zeros(len(levels), dtype=bool)
        for start in range(0, data.n, _COUNT_BLOCK):
            block = data.rows[start:start + _COUNT_BLOCK, col]
            used |= np.bincount(block, minlength=len(levels)) > 0
        used = np.flatnonzero(used)
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
    """Original tokens of one column as floats (for median binarization);
    a token that is not a finite number is a DataError."""
    try:
        lut = np.array([float(t) for t in data.levels[col]], dtype=float)
    except ValueError:
        raise DataError(
            f"column {data.names[col]!r} is not numeric and cannot be binarized"
        ) from None
    if not np.isfinite(lut).all():
        raise DataError(
            f"column {data.names[col]!r} holds a value that is not finite "
            "and cannot be binarized"
        )
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
        except ValueError as exc:
            # a JSONDecodeError, or an integer of more digits than
            # sys.get_int_max_str_digits()
            raise DataError(f"invalid JSON in {path}: {exc}") from None
        except RecursionError:
            raise DataError(f"{path} nests JSON arrays or objects too deeply") from None
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
