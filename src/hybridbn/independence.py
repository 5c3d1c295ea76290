"""Conditional independence testing with the mutual-information / G2 test.

The decision combines two reliability heuristics: a power rule that declares
a test uninformative when the average sample per contingency cell falls
below a threshold, and a per-stratum degrees-of-freedom adjustment for
structural zeros.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .data import contingency


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
        if self.max_condset is not None and self.max_condset < 0:
            raise ValueError("max_condset must be non-negative")
        if self.power_cells not in ("nominal", "observed"):
            raise ValueError("power_cells must be 'nominal' or 'observed'")


@dataclass(frozen=True)
class TestResult:
    p_value: float
    statistic: float
    dof: int
    decided_by_power_rule: bool
    independent: bool


def _mi_and_dof(table):
    # One set of marginals serves both the statistic and the dof. Per
    # stratum, an all-zero row or column is treated as absent: it cannot
    # contribute degrees of freedom it does not have in the data.
    if table.n <= 0:
        raise ValueError("table is empty")
    counts = table.counts.astype(float)
    ni_k = counts.sum(axis=1, keepdims=True)
    n_jk = counts.sum(axis=0, keepdims=True)
    n__k = counts.sum(axis=(0, 1), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = counts * n__k / (ni_k * n_jk)
        terms = np.where(counts > 0, counts * np.log(ratio), 0.0)
    nonzero_rows = (ni_k > 0).sum(axis=0)
    nonzero_cols = (n_jk > 0).sum(axis=1)
    per_stratum = np.maximum(nonzero_rows - 1, 0) * np.maximum(nonzero_cols - 1, 0)
    return float(terms.sum() / table.n), int(per_stratum.sum())


def mutual_information(table):
    """Conditional mutual information of the table, in nats.

    MI = sum_ijk (n_ijk / n) * ln(n_ijk * n_++k / (n_i+k * n_+jk)); terms
    with n_ijk = 0 contribute 0.
    """
    return _mi_and_dof(table)[0]


def g2_statistic(table):
    """G2 statistic (2n times MI) and the adjusted degrees of freedom."""
    mi, dof = _mi_and_dof(table)
    return 2.0 * table.n * mi, dof


def chi2_survival(x, dof):
    """Upper-tail probability P(Chi2_dof >= x) via the regularized upper
    incomplete gamma function."""
    if dof < 1:
        raise ValueError("dof must be a positive integer")
    if x < 0:
        raise ValueError("x must be non-negative")
    return float(gammaincc(dof / 2.0, x / 2.0))


def test_independence(data, x, y, z=(), cfg=None):
    """Decide whether x and y are conditionally independent given z.

    Follows the two-heuristic protocol: the power rule first (independent
    with p_value 1 when the table is too sparse on average), then the G2
    test with per-stratum degrees-of-freedom adjustment; dof <= 0 carries
    no evidence of dependence and is returned as independent.
    """
    cfg = cfg or TestConfig()
    z = tuple(z)
    if x == y or x in z or y in z:
        raise ValueError("x, y and z must be distinct")
    r = data.arity(x)
    c = data.arity(y)
    if cfg.power_cells == "nominal":
        cells = r * c * math.prod(data.arity(v) for v in z)
        if data.n / cells < cfg.power_threshold:
            return TestResult(1.0, 0.0, 0, True, True)
        table = contingency(data, x, y, z)
    else:
        table = contingency(data, x, y, z)
        cells = r * c * table.l
        if data.n / cells < cfg.power_threshold:
            return TestResult(1.0, 0.0, 0, True, True)
    stat, dof = g2_statistic(table)
    if dof <= 0:
        return TestResult(1.0, stat, dof, False, True)
    p = chi2_survival(stat, dof)
    return TestResult(p, stat, dof, False, p > cfg.alpha)


class DataIndependenceSource:
    """Statistical independence queries over a dataset, with memoization.

    Results are cached under the canonical key (min(x,y), max(x,y),
    sorted(z)); cached and uncached paths return identical values because
    the test is a pure function of the data.
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

    def result(self, x, y, z=()):
        key = (x, y) if x < y else (y, x)
        key = key + (tuple(sorted(z)),)
        hit = self._cache.get(key)
        if hit is None:
            hit = test_independence(self.data, key[0], key[1], key[2], self.cfg)
            self._cache[key] = hit
        return hit

    def independent(self, x, y, z=()):
        return self.result(x, y, z).independent

    def p_value(self, x, y, z=()):
        return self.result(x, y, z).p_value

