"""Bayesian networks: CPTs, JSON I/O, maximum-likelihood fitting, sampling.

CPTs are stored as arrays of shape (arity, q) where q is the product of the
parent arities; column j corresponds to the j-th parent configuration in
mixed-radix order over the parents sorted by variable index, last parent
fastest. Every column sums to 1 within 1e-9.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    CategoricalDataset,
    DataError,
    count_table,
    name_pairs,
    radix_code,
    read_json_object,
    row_dtype,
    write_json,
)
from .graphs import Dag

_COLUMN_SUM_READ_TOL = 1e-6
_COLUMN_SUM_TOL = 1e-9

# Cells of one dense (r, q) CPT. The table alone is 8 bytes a cell, but
# fit_cpts peaks near 41 bytes a cell while it counts, write_network near 32
# and read_network near 56 (the JSON list of Python floats; tracemalloc at
# 2**21 cells). At 2**24 cells that is 0.65, 0.5 and 0.9 GiB for a single
# family, so a wider one is refused in one line instead of running a machine
# out of memory. The benchmark networks' largest CPT, true or learned, has
# 243 cells.
CPT_CELL_LIMIT = 2**24


@dataclass(frozen=True, eq=False)
class BayesianNetwork:
    """A Dag plus per-node conditional probability tables and metadata.

    ``cpts`` is stored as a tuple of read-only float arrays, so a network
    cannot change after its tables are checked.
    """

    graph: Dag
    names: tuple
    levels: tuple
    cpts: tuple

    def __post_init__(self):
        cpts = tuple(np.asarray(t, dtype=float) for t in self.cpts)
        for table in cpts:
            table.setflags(write=False)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "levels", tuple(tuple(lv) for lv in self.levels))
        object.__setattr__(self, "cpts", cpts)
        self._validate()

    @property
    def d(self):
        return self.graph.d

    @property
    def arities(self):
        return tuple(len(lv) for lv in self.levels)

    def _parent_arities(self, v):
        return [len(self.levels[p]) for p in self.graph.parents(v)]

    def _validate(self):
        if not (len(self.names) == len(self.levels) == len(self.cpts) == self.d):
            raise DataError("variable metadata does not match the graph")
        for v in range(self.d):
            r = len(self.levels[v])
            if r < 2:
                raise DataError(f"variable {self.names[v]!r} needs at least 2 levels")
            q = math.prod(self._parent_arities(v))
            _check_cpt_cells(self.names[v], r, q)
            if self.cpts[v].shape != (r, q):
                raise DataError(
                    f"CPT of {self.names[v]!r} has shape {self.cpts[v].shape}, "
                    f"expected {(r, q)}"
                )
            _check_cpt(self.names[v], self.cpts[v], _COLUMN_SUM_TOL)


def _check_cpt_cells(name, r, q):
    # q can pass Python's 4300-digit limit on int to str, so it is not printed
    if r * q > CPT_CELL_LIMIT:
        raise DataError(
            f"CPT of {name!r} is too large: {r} levels times its parent "
            f"configurations is over {CPT_CELL_LIMIT} cells"
        )


def _check_cpt(name, table, tol):
    # Written so that NaN entries fail every test.
    if not np.all(np.isfinite(table)):
        raise DataError(f"CPT of {name!r} has non-finite entries")
    # finite entries can still sum past the double range; that sum is inf
    with np.errstate(over="ignore"):
        sums = table.sum(axis=0)
    if not np.all(np.abs(sums - 1.0) <= tol):
        raise DataError(f"CPT column of {name!r} does not sum to 1")
    if not np.all(table >= 0):
        raise DataError(f"CPT of {name!r} has negative entries")


def fit_cpts(dag, data, laplace=0.0):
    """Maximum-likelihood CPTs from data, with optional Laplace smoothing.

    With laplace = 0, parent configurations never observed get a uniform
    column (there is no evidence to prefer any level). A family whose CPT
    would pass CPT_CELL_LIMIT cells is a DataError, raised before counting,
    and so is a smoothed column total past the double range.
    """
    if not (math.isfinite(laplace) and laplace >= 0):
        raise ValueError("laplace must be finite and non-negative")
    cpts = []
    for v in range(dag.d):
        r = data.arities[v]
        pa = dag.parents(v)
        q = math.prod(data.arities[p] for p in pa)
        _check_cpt_cells(data.names[v], r, q)
        counts = count_table(data, (v, *pa)).reshape(r, q).astype(float)
        counts += laplace
        with np.errstate(over="ignore"):
            totals = counts.sum(axis=0)
        if not np.all(np.isfinite(totals)):
            raise DataError(f"the CPT of {data.names[v]!r} is not finite "
                            f"with laplace = {laplace!r}")
        table = np.empty_like(counts)
        seen = totals > 0
        table[:, seen] = counts[:, seen] / totals[seen]
        table[:, ~seen] = 1.0 / r
        cpts.append(table)
    return BayesianNetwork(dag, data.names, data.levels, cpts)


# Rows forward_sample draws a node at a time: three 8-byte arrays of this
# length at most (1.5 MB), and the benchmark samples of up to 20,000 rows
# are one block.
_SAMPLE_BLOCK = 1 << 16


def forward_sample(net, n, seed):
    """Ancestral sampling: one generator per dataset, consumed in
    (lexicographically smallest) topological node order, row order within."""
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(seed)
    arities = net.arities
    rows = np.zeros((n, net.d), dtype=row_dtype(arities))
    for v in net.graph.order:
        pa = net.graph.parents(v)
        cdf = np.cumsum(net.cpts[v], axis=0)
        # A node's draws are taken _SAMPLE_BLOCK rows at a time: random()
        # takes one generator output a double, so the blocks draw the same
        # stream as one call, and only a block's draws, codes and compared
        # boundaries are alive at once.
        for start in range(0, n, _SAMPLE_BLOCK):
            block = rows[start:start + _SAMPLE_BLOCK]
            u = rng.random(len(block))
            codes = radix_code(block.T, pa, [arities[p] for p in pa], np.int64)
            # The level is the number of cdf boundaries u passes. cdf never
            # decreases, so a u past the last boundary passes every inner
            # one: counting the r - 1 inner boundaries needs no clamp. level
            # is the node's zeroed column of the block, counted in place.
            level = block[:, v]
            for boundary in cdf[:-1]:
                level += u > boundary[codes]
    return CategoricalDataset(net.names, net.levels, rows)


def write_network(net, path):
    """Serialize a network to the JSON schema (see README)."""
    doc = {
        "variables": [
            {"name": net.names[v], "levels": list(net.levels[v])}
            for v in range(net.d)
        ],
        "edges": [
            [net.names[u], net.names[v]] for u, v in net.graph.edges()
        ],
        "cpts": {
            net.names[v]: [float(x) for x in net.cpts[v].ravel(order="C")]
            for v in range(net.d)
        },
    }
    write_json(doc, path)


def read_network(path):
    """Parse and validate a network JSON file.

    Column sums are checked within 1e-6 and then renormalized exactly, so
    the in-memory invariant (1e-9) holds for every loaded network.
    """
    doc = read_json_object(path, {"variables": list, "edges": list, "cpts": dict})
    names = []
    levels = []
    for entry in doc["variables"]:
        if not (isinstance(entry, dict) and "name" in entry
                and isinstance(entry.get("levels"), list)):
            raise DataError("variable entries need 'name' and a 'levels' list")
        if len(entry["levels"]) < 2:
            raise DataError(f"variable {entry['name']!r} needs at least 2 levels")
        names.append(str(entry["name"]))
        levels.append([str(t) for t in entry["levels"]])
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise DataError("duplicate variable names")
    edges = name_pairs(doc["edges"], index, "edge")
    seen = set()
    for u, v in edges:
        if (u, v) in seen:
            raise DataError(f"duplicate edge {names[u]!r} -> {names[v]!r}")
        seen.add((u, v))
    try:
        dag = Dag(len(names), edges)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    cpts = []
    for v, name in enumerate(names):
        if name not in doc["cpts"]:
            raise DataError(f"missing CPT for {name!r}")
        r = len(levels[v])
        q = math.prod(len(levels[p]) for p in dag.parents(v))
        _check_cpt_cells(name, r, q)
        flat = doc["cpts"][name]
        if not isinstance(flat, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in flat
        ):
            raise DataError(f"CPT for {name!r} must be a flat list of numbers")
        if len(flat) != r * q:
            raise DataError(
                f"CPT for {name!r} has {len(flat)} entries, expected {r * q}"
            )
        try:
            table = np.asarray(flat, dtype=float).reshape(r, q)
        except OverflowError:  # an int past the double range
            raise DataError(f"CPT of {name!r} has non-finite entries") from None
        _check_cpt(name, table, _COLUMN_SUM_READ_TOL)
        cpts.append(table / table.sum(axis=0))
    return BayesianNetwork(dag, names, levels, cpts)
