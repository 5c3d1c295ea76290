import math
import warnings

import numpy as np
import pytest

from hybridbn.graphs import Dag
from hybridbn.independence import DataIndependenceSource, chi2_survival
from hybridbn.independence import TestConfig as Config
from hybridbn.independence import TestResult as Result

from helpers import (
    DSeparationSource,
    chi2_sf_oracle,
    from_array,
    g2_statistic,
    mi_brute,
    mutual_information,
)
from helpers import test_independence as ci_test


def table(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return counts[:, :, None] if counts.ndim == 2 else counts


class TestMutualInformation:
    def test_uniform_table_is_exactly_zero(self):
        assert mutual_information(table([[10, 10], [10, 10]])) == 0.0

    def test_factorizing_tables_are_exactly_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            rows = rng.integers(1, 9, size=3)
            cols = rng.integers(1, 9, size=4)
            strata = [np.outer(rows, cols)]
            if rng.random() < 0.5:
                strata.append(np.outer(rng.integers(1, 9, 3), rng.integers(1, 9, 4)))
            counts = np.stack(strata, axis=2)
            assert mutual_information(table(counts)) == 0.0

    def test_hand_example(self):
        # 2x2 counts [[20,5],[5,20]], n = 50
        t = table([[20, 5], [5, 20]])
        expected = (
            2 * (20 / 50) * math.log(20 * 50 / (25 * 25))
            + 2 * (5 / 50) * math.log(5 * 50 / (25 * 25))
        )
        assert mutual_information(t) == pytest.approx(expected, abs=1e-12)

    def test_weighted_stratum_sum(self):
        dep = np.array([[20, 5], [5, 20]])
        ind = np.array([[10, 10], [10, 10]])
        both = table(np.stack([dep, ind], axis=2))
        dep_only = table(dep)
        expected = mi_brute(both)
        got = mutual_information(both)
        assert got == pytest.approx(expected, abs=1e-12)
        # the independent stratum contributes zero; weights by stratum mass
        share = dep_only.sum() / both.sum()
        assert got == pytest.approx(share * mutual_information(dep_only), abs=1e-12)

    def test_nonnegative_and_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            counts = rng.integers(0, 12, size=(3, 3, 2))
            if counts.sum() == 0:
                continue
            t = table(counts)
            mi = mutual_information(t)
            assert mi >= -1e-15
            assert mi == pytest.approx(mi_brute(counts), abs=1e-12)

    def test_invariant_under_level_permutation(self):
        rng = np.random.default_rng(10)
        counts = rng.integers(0, 12, size=(3, 4, 2))
        base = mutual_information(table(counts))
        perm = counts[[2, 0, 1]][:, [3, 1, 0, 2]]
        assert mutual_information(table(perm)) == pytest.approx(base, abs=1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(table(np.zeros((2, 2), dtype=int)))


class TestG2:
    def test_independent_table(self):
        stat, dof = g2_statistic(table([[10, 10], [10, 10]]))
        assert stat == 0.0 and dof == 1

    def test_statistic_is_2n_mi(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            counts = rng.integers(0, 9, size=(2, 3, 2))
            if counts.sum() == 0:
                continue
            t = table(counts)
            stat, _ = g2_statistic(t)
            # explicit log-likelihood-ratio sum
            assert stat == pytest.approx(
                2 * t.sum() * mi_brute(counts), abs=1e-9
            )

    def test_dof_zero_column(self):
        stat, dof = g2_statistic(table([[10, 0], [10, 0]]))
        assert dof == 0

    def test_dof_full_3x2x2(self):
        counts = np.ones((3, 2, 2), dtype=int)
        _, dof = g2_statistic(table(counts))
        assert dof == 4

    def test_dof_mixed_strata(self):
        full = np.ones((3, 3), dtype=int)
        holed = np.ones((3, 3), dtype=int)
        holed[1, :] = 0  # one all-zero row: (3-1-1)*(3-1) = 2
        counts = np.stack([full, holed], axis=2)
        _, dof = g2_statistic(table(counts))
        assert dof == 4 + 2

    def test_dof_single_cell_stratum(self):
        counts = np.zeros((2, 2), dtype=int)
        counts[0, 0] = 7
        _, dof = g2_statistic(table(counts))
        assert dof == 0


class TestChi2Survival:
    def test_x_zero(self):
        for dof in (1, 4, 30):
            assert chi2_survival(0.0, dof) == 1.0

    def test_quantile_examples(self):
        assert chi2_survival(3.841459, 1) == pytest.approx(0.05, abs=1e-6)
        assert chi2_survival(18.307, 10) == pytest.approx(0.05, abs=1e-4)

    def test_matches_integration_oracle(self):
        for dof in (1, 2, 5, 17, 30):
            for x in (0.0, 0.3, 1.0, 4.2, 11.5, 33.0, 60.0):
                assert chi2_survival(x, dof) == pytest.approx(
                    chi2_sf_oracle(x, dof), abs=1e-10
                )

    def test_normal_square_identity(self):
        for z in (0.1, 0.7, 1.5, 2.4, 3.3):
            assert chi2_survival(z * z, 1) == pytest.approx(
                math.erfc(z / math.sqrt(2.0)), abs=1e-9
            )

    def test_monotone_in_x(self):
        xs = np.linspace(0, 40, 81)
        vals = [chi2_survival(float(x), 5) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            chi2_survival(1.0, 0)
        with pytest.raises(ValueError):
            chi2_survival(-0.1, 1)


class TestTestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.alpha == 0.05
        assert cfg.power_threshold == 5.0
        assert cfg.max_condset is None
        assert cfg.power_cells == "nominal"

    def test_validation(self):
        with pytest.raises(ValueError):
            Config(alpha=0.0)
        with pytest.raises(ValueError):
            Config(alpha=1.0)
        with pytest.raises(ValueError):
            Config(power_threshold=0.0)
        with pytest.raises(ValueError):
            Config(max_condset=-1)
        with pytest.raises(ValueError):
            Config(power_cells="sometimes")

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    def test_max_condset_must_be_an_integer(self, value):
        # 1.5 used to pass and fail later inside the skeleton's search
        with pytest.raises(ValueError, match="max_condset"):
            Config(max_condset=value)

    def test_numpy_integers_are_max_condsets(self):
        # e.g. a value drawn with rng.integers
        assert Config(max_condset=np.int64(2)).max_condset == 2


def dataset_from_columns(*cols, arities=None):
    rows = np.column_stack([np.asarray(c, dtype=np.int32) for c in cols])
    if arities is None:
        arities = [2] * rows.shape[1]
    return from_array(rows, arities=arities)


class TestTestIndependence:
    def test_power_rule_arithmetic(self):
        # binary pair with three binary conditioners: 32 cells, n=50
        rng = np.random.default_rng(0)
        cols = [rng.integers(0, 2, 50) for _ in range(5)]
        ds = dataset_from_columns(*cols)
        res = ci_test(ds, 0, 1, (2, 3, 4))
        assert res.decided_by_power_rule
        assert res.independent
        assert res.p_value == 1.0

    def test_perfect_dependence(self):
        x = np.arange(200) % 2
        ds = dataset_from_columns(x, x)
        res = ci_test(ds, 0, 1)
        assert not res.independent
        assert res.p_value < 1e-10

    def test_monte_carlo_calibration(self):
        rng = np.random.default_rng(314)
        independent = 0
        for _ in range(100):
            ds = dataset_from_columns(
                rng.integers(0, 2, 1000), rng.integers(0, 2, 1000)
            )
            if ci_test(ds, 0, 1).independent:
                independent += 1
        assert independent >= 90

    def test_result_invariant(self):
        rng = np.random.default_rng(77)
        cfg = Config()
        for _ in range(50):
            n = int(rng.integers(10, 400))
            ds = dataset_from_columns(
                rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 2, n)
            )
            z = (2,) if rng.random() < 0.5 else ()
            res = ci_test(ds, 0, 1, z, cfg)
            assert res.independent == (
                res.decided_by_power_rule or res.p_value > cfg.alpha
            )

    def test_dof_zero_reported_independent(self):
        # second column never varies off 0 given the data, so the table
        # degenerates; from_array keeps its declared arity at 2
        x = np.arange(40) % 2
        y = np.zeros(40, dtype=np.int32)
        ds = dataset_from_columns(x, y)
        res = ci_test(ds, 0, 1)
        assert res.dof == 0
        assert res.independent and not res.decided_by_power_rule
        assert res.p_value == 1.0

    def test_observed_vs_nominal_power_cells(self):
        # conditioner never leaves level 0: nominal counts 8 cells, observed 4
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, 30)
        y = rng.integers(0, 2, 30)
        z = np.zeros(30, dtype=np.int32)
        ds = dataset_from_columns(x, y, z)
        nominal = ci_test(ds, 0, 1, (2,), Config())
        observed = ci_test(
            ds, 0, 1, (2,), Config(power_cells="observed")
        )
        assert nominal.decided_by_power_rule
        assert not observed.decided_by_power_rule

    @pytest.mark.parametrize("power_cells", ["nominal", "observed"])
    def test_no_rows(self, power_cells):
        # no observed stratum is no evidence: every query, single or in a
        # batch, gets the power rule's verdict, with no division by zero
        ds = from_array(np.zeros((0, 4), dtype=np.int32), arities=[2, 3, 2, 2])
        cfg = Config(power_cells=power_cells)
        power = Result(1.0, 0.0, 0, True, True)
        zsets = [(), (2,), (2, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            src = DataIndependenceSource(ds, cfg)
            for z in zsets:
                assert ci_test(ds, 0, 1, z, cfg) == power
                assert src.result(1, 0, z) == power
            src = DataIndependenceSource(ds, cfg)
            assert src.results([(0, 1, z) for z in zsets] + [(2, 3, ())]) == [power] * 4
            src = DataIndependenceSource(ds, cfg)
            assert src.first_independent(0, 1, [(2, 3), ()], (2, 3)) == (2, 3)
            assert list(src._cache.values()) == [power]

    def test_validates_arguments(self):
        ds = dataset_from_columns([0, 1], [1, 0], [1, 1])
        with pytest.raises(ValueError):
            ci_test(ds, 1, 1)
        with pytest.raises(ValueError):
            ci_test(ds, 0, 1, (0,))
        # a batch that raises leaves the cache as it was, even the valid
        # query asked before the bad one
        src = DataIndependenceSource(ds)
        src.result(1, 0)
        before = dict(src._cache)
        with pytest.raises(ValueError, match="distinct"):
            src.results([(0, 1, ()), (0, 2, ()), (2, 0, (1, 2))])
        assert src._cache == before
        with pytest.raises(ValueError, match="distinct"):
            src.first_independent(2, 2, [(), (0,)], (0, 1))
        assert src._cache == before


class TestSources:
    def test_data_source_caches_symmetrically(self):
        rng = np.random.default_rng(8)
        ds = dataset_from_columns(
            rng.integers(0, 2, 60), rng.integers(0, 2, 60), rng.integers(0, 2, 60)
        )
        src = DataIndependenceSource(ds)
        assert src.distinct_tests == 0
        a = src.result(0, 1, (2,))
        b = src.result(1, 0, (2,))
        assert a is b
        assert src.n_vars == 3
        src.independent(2, 1, (0,))
        src.p_value(1, 2, (0,))
        assert src.distinct_tests == 2
        assert src.p_value(0, 1, (2,)) == a.p_value

    def test_dsep_source(self):
        g = Dag(3, [(0, 1), (1, 2)])
        src = DSeparationSource(g)
        assert src.n_vars == 3
        assert src.independent(0, 2, (1,))
        assert not src.independent(0, 2)
        assert src.p_value(0, 2, (1,)) == 1.0
        assert src.p_value(0, 2) == 0.0
