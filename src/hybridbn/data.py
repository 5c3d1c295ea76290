"""Discrete datasets: CSV I/O, count tables, cross-validation folds, and
the checks shared by the JSON file readers.

Variables are categorical with 0-based level indices. A dataset keeps the
original tokens per level so predictions and exports can be mapped back.
Datasets are immutable after construction and safe for concurrent readers.
"""

import codecs
import contextlib
import csv
import itertools
import json
import math
import numbers
import os
import stat
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Every int64 mixed-radix code stays below this: observed_config_codes ranks
# its prefix before reaching it, and count_table refuses a wider table.
_CODE_LIMIT = 2**62


class DataError(ValueError):
    """An input file or dataset violates the format contract."""


def is_count(value):
    """True for an integer setting: NumPy integers count, but bool does not,
    though it is an int subclass (True is no tabu length)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def row_dtype(arities):
    """The dtype a dataset holds its level indices in: the smallest unsigned
    type that holds max(arities) - 1 (uint8 up to 256 levels, uint16 up to
    65,536, uint32 above). Arithmetic on rows stays in that type unless the
    other operand is wider (NumPy 2), so widen before adding or multiplying
    past the arity."""
    return np.min_scalar_type(max(arities, default=1) - 1)


@dataclass(frozen=True, eq=False)
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
    arities: tuple = field(init=False, repr=False)

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


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Partition of rows into k cross-validation folds."""

    fold_of_row: np.ndarray

    def test_indices(self, fold):
        return np.flatnonzero(self.fold_of_row == fold)

    def train_indices(self, fold):
        return np.flatnonzero(self.fold_of_row != fold)


def one_pass_cells(rows):
    """The widest code range one ``bincount`` over rows rows fills densely:
    count_table's one-pass bound, which JointCounts.fits applies too."""
    return 4 * rows + 1024


def observed_config_codes(rows, arities):
    """Compress the given columns into dense codes of observed configurations.

    Returns (codes, l) where codes maps each row to an int64 index in [0, l)
    and l is the number of distinct configurations present (0 when there
    are no rows, 1 when there are no columns).

    Invariant: the map is order-preserving. Codes rank each row's
    configuration among the observed ones in mixed-radix order (last column
    fastest), as the inverse of ``np.unique`` over the mixed-radix codes
    does, so table layouts built from them do not depend on how the codes
    were computed. Ranking on the way keeps any number of columns safe.
    """
    rows = np.asarray(rows)
    n, m = rows.shape
    if m == 0:
        return np.zeros(n, dtype=np.int64), 1
    # The prefix is ranked whenever the next radix would take the int64 code
    # to _CODE_LIMIT; ranking preserves order, so the result is the same.
    # return_inverse keeps np.unique off its numpy.ma import.
    code, cap = np.zeros(n, dtype=np.int64), 1
    for column, a in zip(rows.T, map(int, arities), strict=True):
        if cap * a >= _CODE_LIMIT:
            uniq, code = np.unique(code, return_inverse=True)
            cap = uniq.size
            if cap == n:
                # Every row is distinct already; the prefix is the most
                # significant part of the code, so its ranks are final.
                return code, n
        cap *= a
        code *= a
        code += column
    uniq, code = np.unique(code, return_inverse=True)
    return code, uniq.size


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
            # its levels count them in that order: return_index sorts
            # stably, so each index is a first appearance (and, with
            # indices, np.unique leaves numpy.ma unimported)
            fresh = cells[new]
            first = np.sort(np.unique(fresh, return_index=True)[1])
            for cell in fresh[first].tolist():
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


def write_csv(data, path):
    """Write a dataset back to disk using its original tokens.

    Before the file is opened, a dataset whose file would not load back as
    the same rows is a DataError: no columns or no rows; a column whose rows
    use fewer than two levels (load_csv refuses a constant column); a name
    or used token with blanks around it (load_csv strips them), a carriage
    return (the csv writer leaves it unquoted) or a NUL (Python 3.10's csv
    cannot write one); an empty used token (read as missing); two used
    levels of a column with one token; or a first name that starts with
    U+FEFF (read as a byte-order mark). Levels no row uses are not written,
    nor checked.

    The csv writer writes the header and each level that some row uses, once
    (``_written_forms``), so the bytes are the ones it would give row by
    row. Each used form, with the comma or line end after it, is encoded and
    padded to the widest one's width W in a table of W-byte items, one slot
    a level; a block of rows is then one ``take`` of that table by the rows'
    level indices plus each column's first slot. Where the used forms differ
    in width, a ``take`` of a keep mask of the same shape drops the padding.
    Two kinds of file are joined from the forms _JOIN_BLOCK rows at a time
    instead: one with more levels than rows (a real-valued file, whose table
    would cost more than its joins), and one whose W is more than
    _PAD_LIMIT times its mean written cell (a few long tokens among short
    ones), so that padding never multiplies the work past that.
    """
    if not data.names:
        raise DataError("the dataset has no columns, so it cannot be written to CSV")
    if data.names[0].startswith("\ufeff"):
        raise DataError(
            f"variable {data.names[0]!r} starts with a byte-order mark, which "
            "load_csv drops from the start of a file"
        )
    if not data.n:
        raise DataError("no data rows, so load_csv could not read the file back")
    first = np.cumsum((0,) + data.arities)[:-1]  # each column's first slot
    forms, counts = _written_forms(data, first)
    tables = _form_tables(forms, counts, first, data.n, data.d)
    header = []
    csv.writer(SimpleNamespace(write=header.append), lineterminator="\n").writerow(data.names)
    with open(path, "wb") as fh:
        fh.write(header[0].encode())
        if tables is None:
            by_slot = np.empty(counts.size, dtype=object)
            by_slot[np.flatnonzero(counts)] = np.fromiter(forms, object, len(forms))
            for start in range(0, data.n, _JOIN_BLOCK):
                fh.write(_joined_rows(data.rows[start:start + _JOIN_BLOCK], by_slot, first))
            return
        table, keep = tables
        per_block = max(1, _WRITE_BYTES // (data.d * (table.itemsize + 8)))
        for start in range(0, data.n, per_block):
            cells = data.rows[start:start + per_block] + first
            block = table.take(cells)
            if keep is not None:
                block = block.view(np.uint8)[keep.take(cells).view(bool)]
            fh.write(block)
            del cells, block  # freed before the next block is made


# A block of write_csv's table path is at most _WRITE_BYTES of W-byte items
# and their intp indices; a table padded past _PAD_LIMIT times the bytes it
# writes is not made, and the rows are joined _JOIN_BLOCK at a time;
# _written_forms counts _COUNT_BLOCK cells, or one a level if there are
# more levels, at a time.
_WRITE_BYTES = 1 << 19
_PAD_LIMIT = 4
_JOIN_BLOCK = 512
_COUNT_BLOCK = 65536


def _form_tables(forms, counts, first, n, d):
    # The table of the used forms, each with the comma or line end after it,
    # encoded and padded to the widest one's W bytes, one W-byte item a slot;
    # and the keep mask of the same shape, or None where every form is W
    # bytes. None where n rows of d cells are better joined: with more
    # levels than rows, as the table would cost more than the joins, or
    # where n * d items of W bytes would be more than _PAD_LIMIT times the
    # bytes the cells write.
    if counts.size > n:
        return None
    used = np.flatnonzero(counts)
    # No form holds a NUL, so one ends each form in the encoded text, and
    # then becomes the comma or line end written after it.
    encoded = ("\0".join(forms) + "\0").encode()
    ends = np.flatnonzero(np.frombuffer(encoded, np.uint8) == 0)
    widths = np.diff(ends, prepend=-1)
    wide = int(widths.max())
    if wide * n * d > _PAD_LIMIT * int(counts[used] @ widths):
        return None
    # padded, so that every form has W bytes from its start: the bytes past
    # a form belong to the next ones, and are never kept. A slot no row uses
    # starts at 0, and is never taken.
    text = np.zeros(len(encoded) + wide, np.uint8)
    text[:len(encoded)] = np.frombuffer(encoded, np.uint8)
    text[ends] = ord(",")
    text[ends[used >= first[-1]]] = ord("\n")
    starts = np.zeros(counts.size, np.intp)
    starts[used] = ends + 1 - widths
    item = np.dtype((np.void, wide))
    table = sliding_window_view(text, wide)[starts].view(item).ravel()
    if widths.min() == wide:
        return table, None
    lengths = np.zeros(counts.size, np.intp)
    lengths[used] = widths
    return table, (np.arange(wide) < lengths[:, None]).view(item).ravel()


@contextlib.contextmanager
def all_or_none(directory):
    """Make directory if it is missing, and yield a list for the paths of the
    files written into it. If the block raises, those files are removed, and
    so is each directory made here, before the exception goes on: a command
    whose last write_csv is refused leaves none of its files behind."""
    made = []
    top = os.path.abspath(directory)
    while not os.path.lexists(top):
        made.append(top)
        top = os.path.dirname(top)
    os.makedirs(directory, exist_ok=True)
    written = []
    try:
        yield written
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in made:  # the deepest first
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _joined_rows(block, forms, first):
    # The encoded lines of a block of rows: one take of the rows' level
    # indices plus each column's first slot, one flat list, and one join a
    # row over its slice of that list. One list a block and one short-lived
    # slice a row: lists are containers the garbage collector counts, and
    # 512 of them alive at once moved it on so far that forked workers later
    # collected, and so copied, the whole heap they inherit.
    d = block.shape[1]
    cells = forms.take(block + first).ravel().tolist()
    lines = [",".join(cells[i * d:(i + 1) * d]) for i in range(len(block))]
    return ("\n".join(lines) + "\n").encode()


def _written_forms(data, first):
    # The levels the rows use, as the csv writer writes them, and how many
    # rows use each (one slot a level, from each column's first slot), after
    # write_csv's checks of each name and used token. The forms are listed
    # in slot order, and levels no row uses get none, so the cost follows
    # the cells written, not the levels (a fold of a real-valued file
    # carries every level of the whole file).
    # The writer hands each row it writes to lines. A row of a column's
    # tokens that comes back as their plain join shows that each token is
    # its own form, since quoting only lengthens a field; otherwise each
    # token is written in a row of its own, followed by an empty field. A
    # non-empty field is written the same with or without other fields.
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    forms = []
    counts = np.zeros(int(sum(data.arities)), dtype=np.int64)
    # bincount copies the cells to intp, 8 bytes a cell, so it counts blocks
    # of whole rows, of about _COUNT_BLOCK cells, or about one a slot where
    # there are more slots, so that each block's slot-long count costs about
    # what its cells do
    per_block = max(1, max(_COUNT_BLOCK, counts.size) // data.d)
    for start in range(0, data.n, per_block):
        cells = data.rows[start:start + per_block] + first
        counts += np.bincount(cells.ravel(), minlength=counts.size)
        del cells
    for col, (name, levels) in enumerate(zip(data.names, data.levels)):
        count = counts[first[col]:first[col] + len(levels)]
        tokens = list(itertools.compress(levels, count.tolist()))
        # whole-column passes show whether the name or some token has a
        # fault; only then is the first one looked for
        listed = [name, *tokens]
        text = "".join(listed)
        if "\r" in text or "\0" in text or list(map(str.strip, listed)) != listed:
            token = next(t for t in listed if t != t.strip() or "\r" in t or "\0" in t)
            raise DataError(
                f"{token!r} of variable {name!r} cannot be written to CSV: "
                "blanks around it, or a carriage return or NUL in it")
        if "" in tokens:
            raise DataError(f"variable {name!r} has an empty level")
        if len(set(tokens)) < len(tokens):
            raise DataError(f"variable {name!r} has two equal levels")
        if len(tokens) < 2:
            raise DataError(
                f"constant column {name!r}: its rows use one level, and "
                "load_csv refuses such a column")
        lines.clear()
        writer.writerow(tokens)
        if lines[0] != ",".join(tokens) + "\n":
            lines.clear()
            writer.writerows([t, ""] for t in tokens)
            tokens = [line[:-2] for line in lines]
        forms += tokens
    return forms, counts


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
    indices and what names a pair in error messages. A pair naming one
    variable twice is a self-loop and a DataError."""
    out = []
    for pair in pairs:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(t, str) and t in index for t in pair)
        ):
            raise DataError(f"bad {what} {pair!r}")
        if pair[0] == pair[1]:
            raise DataError(f"bad {what}: self-loop on {pair[0]!r}")
        out.append((index[pair[0]], index[pair[1]]))
    return out
