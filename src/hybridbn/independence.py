"""Conditional independence testing with the mutual-information / G2 test.

The decision combines two reliability heuristics: a power rule that declares
a test uninformative when the average sample per contingency cell falls
below a threshold, and a per-stratum degrees-of-freedom adjustment for
structural zeros.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import JointCounts, count_table, is_count
from .special import gammaincc


POWER_CELLS = ("nominal", "observed")


@dataclass(frozen=True)
class TestConfig:
    """Knobs of the independence test.

    power_cells selects the cell count used by the power rule: "nominal"
    counts r*c*prod(arity(z)) cells whether observed or not, "observed"
    counts only strata present in the data.
    """

    alpha: float = 0.05
    power_threshold: float = 5.0
    max_condset: int | None = None
    power_cells: str = "nominal"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not (math.isfinite(self.power_threshold) and self.power_threshold > 0):
            raise ValueError("power_threshold must be finite and positive")
        if self.max_condset is not None and not (
            is_count(self.max_condset) and self.max_condset >= 0
        ):
            raise ValueError("max_condset must be None or a non-negative integer")
        if self.power_cells not in POWER_CELLS:
            raise ValueError(f"power_cells must be one of {POWER_CELLS}")


@dataclass(frozen=True)
class TestResult:
    p_value: float
    statistic: float
    dof: int
    decided_by_power_rule: bool
    independent: bool


# the power rule's verdict, also that of a table with no rows
_POWER_RULE = TestResult(1.0, 0.0, 0, True, True)


def _mi_and_dof_batch(counts, l, n):
    """Conditional mutual information, in nats, and the adjusted dof of each
    table in a batch of tables over n > 0 rows each.

    counts has shape (r, c, sum(l)) and holds the (r, c, l) tables that
    count_table(data, (x, y), z) returns side by side: table t is on the
    l[t] strata after those of the tables before it. MI = sum_ijk (n_ijk /
    n) * ln(n_ijk * n_++k / (n_i+k * n_+jk)); terms with n_ijk = 0
    contribute 0. Per stratum, an all-zero row or column is treated as
    absent: it cannot contribute degrees of freedom it does not have in the
    data.

    The counts are taken once as a C-contiguous float array, whatever the
    caller's layout. The marginals are sums of integer counts, so they are
    exact, and each table's terms are summed alone, over a C-contiguous
    copy. So every value is the one its table gets in a batch of its own,
    in any memory order, bit for bit.
    """
    counts = np.ascontiguousarray(counts, dtype=float)
    ni_k = counts.sum(axis=1, keepdims=True)
    n_jk = counts.sum(axis=0, keepdims=True)
    n__k = counts.sum(axis=(0, 1), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = counts * n__k / (ni_k * n_jk)
        terms = np.where(counts > 0, counts * np.log(ratio), 0.0)
    nonzero_rows = (ni_k > 0).sum(axis=0)
    nonzero_cols = (n_jk > 0).sum(axis=1)
    per_stratum = np.maximum(nonzero_rows - 1, 0) * np.maximum(nonzero_cols - 1, 0)
    if len(l) == 1:
        # one table: its terms are the whole array, so no copy is needed
        return [float(terms.sum() / n)], [int(per_stratum.sum())]
    ends = np.cumsum(l).tolist()
    starts = [0, *ends[:-1]]
    mi = [
        float(np.ascontiguousarray(terms[:, :, s:e]).sum() / n)
        for s, e in zip(starts, ends)
    ]
    return mi, np.add.reduceat(per_stratum[0], starts).tolist()


def chi2_survival(x, dof):
    """Upper-tail probability P(Chi2_dof >= x) via the regularized upper
    incomplete gamma function."""
    if dof < 1:
        raise ValueError("dof must be a positive integer")
    if x < 0:
        raise ValueError("x must be non-negative")
    return gammaincc(dof / 2.0, x / 2.0)


def _evaluate(data, cfg, keys):
    # The TestResults of the (x, y, z) keys, in order. Each key must name
    # three distinct parts; the nominal power rule decides it, or its
    # count_table goes to _decide. The tables of one (r, c) shape go
    # through one statistic pass every U table cells (U distinct rows).
    arity, cap = data.arities, data.distinct_rows[1].size
    out = [None] * len(keys)
    batch, cells = {}, 0

    def flush():
        for group in batch.values():
            counts = np.concatenate([table for _, table in group], axis=2)
            l = [table.shape[2] for _, table in group]
            for (i, _), res in zip(group, _decide(counts, l, data.n, cfg)):
                out[i] = res
        batch.clear()

    for i, (x, y, z) in enumerate(keys):
        if x == y or x in z or y in z:
            raise ValueError("x, y and z must be distinct")
        out[i] = _nominal_power_verdict(arity, data.n, x, y, z, cfg)
        if out[i] is None:
            table = count_table(data, (x, y), z)
            batch.setdefault(table.shape[:2], []).append((i, table))
            cells += table.size
        if cells >= cap:
            flush()
            cells = 0
    flush()
    return out


def _nominal_power_verdict(arity, n, x, y, z, cfg):
    # The power rule on the nominal cell count, which needs no table: the
    # verdict, or None.
    if cfg.power_cells == "nominal":
        cells = arity[x] * arity[y] * math.prod([arity[v] for v in z])
        if n / cells < cfg.power_threshold:
            return _POWER_RULE
    return None


def _decide(counts, l, n, cfg):
    # The verdicts on the (x, y, z) tables side by side in counts (see
    # _mi_and_dof_batch) that the nominal power rule let through: the
    # observed power rule, then dof <= 0, then the chi-square p-value.
    if not n:
        # no rows, so no evidence either way: the power rule's verdict
        return [_POWER_RULE] * len(l)
    r, c, _ = counts.shape
    observed = cfg.power_cells == "observed"
    mis, dofs = _mi_and_dof_batch(counts, l, n)
    out = []
    for li, mi, dof in zip(l, mis, dofs):
        stat = 2.0 * n * mi
        if observed and n / (r * c * li) < cfg.power_threshold:
            out.append(_POWER_RULE)
        elif dof <= 0:
            out.append(TestResult(1.0, stat, dof, False, True))
        else:
            p = chi2_survival(stat, dof)
            out.append(TestResult(p, stat, dof, False, p > cfg.alpha))
    return out


class DataIndependenceSource:
    """Statistical independence queries over a dataset, with memoization.

    Results are cached under the canonical key (min(x,y), max(x,y),
    sorted(z)); cached and uncached paths return identical values because
    the test is a pure function of the data.

    Besides the one-at-a-time queries it answers two batch queries,
    ``results`` and ``first_independent``. Each returns what the sequential
    loop it stands for would, leaves the same keys in the cache in the same
    order. A cache miss of ``result`` or ``results`` goes to the one
    evaluator, ``_evaluate``; ``first_independent`` hands marginals of one
    joint table to the same kernel (``_decide``).
    """

    def __init__(self, data, cfg=None):
        self.data = data
        self.cfg = cfg or TestConfig()
        self._cache = {}

    @property
    def n_vars(self):
        return self.data.d

    @property
    def distinct_tests(self):
        """How many distinct tests have run: the number of cache keys."""
        return len(self._cache)

    @staticmethod
    def _key(x, y, z):
        key = (x, y) if x < y else (y, x)
        return key + (tuple(sorted(z)),)

    def result(self, x, y, z=()):
        key = self._key(x, y, z)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = _evaluate(self.data, self.cfg, [key])[0]
        return hit

    def independent(self, x, y, z=()):
        return self.result(x, y, z).independent

    def p_value(self, x, y, z=()):
        return self.result(x, y, z).p_value

    def results(self, queries):
        """[result(x, y, z) for (x, y, z) in queries], in one batch.

        The uncached keys go to the evaluator together, so the statistics
        of up to about U table cells (U distinct rows) take one vectorized
        pass. A batch that raises (a query whose x, y and z are not
        distinct) leaves the cache as it was.
        """
        keys = [self._key(*q) for q in queries]
        todo = [key for key in dict.fromkeys(keys) if key not in self._cache]
        self._cache.update(zip(todo, _evaluate(self.data, self.cfg, todo)))
        return [self._cache[key] for key in keys]

    def first_independent(self, x, y, zsets, scope):
        """The first z in zsets with x and y independent given z, or None.

        The answer, the cache keys and their order are those of asking
        independent(x, y, z) for each z in turn until one holds. Every z
        must be a subset of scope. While the nominal (x, y, scope) table
        fits count_table's one-pass bound (``JointCounts.fits``), it is
        counted once, on the first uncached test, as a ``JointCounts``, and
        each z's table is one of its marginals. The tests are worked ahead
        in blocks that double from four, each of at most about U cells
        (table cells plus the joint's nonzero cells per table), and only the
        tests up to the first independent one are cached; a block that
        raises caches none of its tests. A wider scope runs the loop.
        """
        zsets = iter(zsets)
        data, cfg = self.data, self.cfg
        lo, hi = (x, y) if x < y else (y, x)
        scope = tuple(sorted(scope))
        fits = JointCounts.fits(data, lo, hi, scope)
        if not fits or lo == hi or lo in scope or hi in scope:
            return next((z for z in zsets if self.independent(x, y, z)), None)
        arity = data.arities
        rc = arity[lo] * arity[hi]
        cap = data.distinct_rows[1].size
        joint = None
        ahead = 4
        while True:
            walk, todo, cells = [], {}, 0
            for z in zsets:
                key = self._key(lo, hi, z)
                walk.append((z, key))
                hit = self._cache.get(key)
                if hit is None and key not in todo:
                    hit = todo[key] = _nominal_power_verdict(
                        arity, data.n, *key, cfg)
                    if hit is None:
                        joint = joint or JointCounts(data, lo, hi, scope)
                        cells += rc * joint.strata(key[2]) + joint.nonzero
                found = hit is not None and hit.independent
                if found or len(todo) >= ahead or cells >= cap:
                    break
            if not walk:
                return None
            counted = [key for key, hit in todo.items() if hit is None]
            if counted:
                counts, l = joint.marginals([key[2] for key in counted])
                todo.update(zip(counted, _decide(counts, l, data.n, cfg)))
            for z, key in walk:
                hit = self._cache.get(key)
                if hit is None:
                    hit = self._cache[key] = todo[key]
                if hit.independent:
                    return z
            ahead *= 2
