"""The counting kernel against its references.

observed_config_codes ranks configurations with one sort of their int64
mixed-radix codes, so it is also checked against each row's index among
the sorted distinct rows; every count table (CI-test tables, local-score
families, CPTs) counts the dataset's distinct rows, weighted, in one pass
over the nominal (head, Z) space or over ranked Z-configurations; and the
kernel behind g2_statistic takes the statistic and the dof from one set of
marginals. All must agree exactly with the straightforward versions in
helpers.py, so every CI-test result, local score and CPT stays
bit-identical.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn import data as data_mod
from hybridbn import independence as independence_mod
from hybridbn.data import count_table, observed_config_codes
from hybridbn.graphs import Dag
from hybridbn.independence import DataIndependenceSource
from hybridbn.independence import TestConfig as Config
from hybridbn.network import fit_cpts, forward_sample
from hybridbn.scoring import ScoreConfig, Scorer
from hybridbn.skeleton import build_skeleton
from hybridbn.synthetic import child_shape_network

from helpers import (
    ReferenceSource,
    bdeu_family_oracle,
    from_array,
    g2_statistic,
    mutual_information,
    reference_config_codes,
    reference_contingency,
    reference_test_independence,
)
from helpers import test_independence as ci_test


def sorted_row_ranks(rows):
    """Each row's index among the sorted distinct row tuples: the ranks
    that mixed-radix order (last column fastest) gives, from first
    principles."""
    keys = [tuple(map(int, row)) for row in rows]
    # no columns: one configuration, the empty one, whether or not rows exist
    distinct = sorted(set(keys)) if rows.shape[1] else [()]
    index = {key: i for i, key in enumerate(distinct)}
    return [index[key] for key in keys], len(index)


def assert_same_codes(rows, arities):
    codes, l = observed_config_codes(rows, arities)
    want, want_l = reference_config_codes(rows, arities)
    assert l == want_l
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, want)
    assert (codes.tolist(), l) == sorted_row_ranks(rows)


def local_score(data, node, parents, score, ess=10.0):
    return Scorer(data, ScoreConfig(score=score, ess=ess)).local(node, parents)


def random_rows(rng, n, arities):
    # Half the columns use a few levels only, so configurations repeat.
    cols = []
    for a in arities:
        if rng.random() < 0.5:
            pool = rng.integers(0, a, size=int(rng.integers(1, 4)))
            cols.append(rng.choice(pool, size=n))
        else:
            cols.append(rng.integers(0, a, size=n))
    if not cols:
        return np.zeros((n, 0), dtype=np.int64)
    return np.column_stack(cols)


class TestObservedConfigCodes:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 80),
        arities=st.lists(st.integers(1, 7) | st.integers(8, 600), max_size=12),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.int32, np.int64, np.uint16]),
    )
    def test_matches_sorting_reference(self, n, arities, seed, dtype):
        rows = random_rows(np.random.default_rng(seed), n, arities).astype(dtype)
        assert_same_codes(rows, arities)

    def test_no_rows(self):
        assert_same_codes(np.zeros((0, 3), dtype=np.int32), [2, 300, 4])
        assert observed_config_codes(np.zeros((0, 3), dtype=np.int32), [2, 3, 4])[1] == 0

    def test_one_row(self):
        assert_same_codes(np.array([[1, 250, 2]]), [2, 300, 3])

    def test_no_columns(self):
        assert_same_codes(np.zeros((5, 0), dtype=np.int32), [])
        assert_same_codes(np.zeros((0, 0), dtype=np.int32), [])

    def test_nominal_width_past_code_limit(self):
        # 3**40 > 2**62: the mixed-radix code must be compressed on the way.
        arities = [3] * 40
        assert 3**40 > 2**62
        rows = random_rows(np.random.default_rng(4), 500, arities)
        assert_same_codes(rows, arities)

    def test_code_range_far_wider_than_the_data(self):
        arities = [100_000, 100_000, 2]
        rows = random_rows(np.random.default_rng(5), 10, arities)
        assert_same_codes(rows, arities)


class TestCodeLimits:
    """Each documented limit of the mixed-radix codes, at its edge."""

    @pytest.mark.parametrize("last", [0, 1])
    def test_observed_stops_once_every_row_is_distinct(self, last):
        # 2**40 * 2**30 codes pass _CODE_LIMIT, so the first column is ranked
        # before the second is added; it already tells the rows apart, so
        # nothing after it is read, and the last column cannot change the codes
        rows = np.array([[2**40 - 1, 2, last], [0, 1, 1], [500, 0, 0], [2**39, 2, 1]])
        calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_mod.np, "unique", spy)
            codes, l = observed_config_codes(rows, [2**40, 2**30, 2])
        assert len(calls) == 1
        assert codes.tolist() == [3, 0, 1, 2] and l == 4
        assert_same_codes(rows, [2**40, 2**30, 2])

    @pytest.mark.parametrize("q, ranked", [(257, False), (258, True)])
    def test_contingency_one_pass_up_to_4u_plus_1024(self, q, ranked):
        # one distinct row (U = 1): the bound is 1028 = 2 * 2 * 257 cells
        rows = np.array([[1, 0, q - 1]] * 3)
        data = from_array(rows, arities=[2, 2, q])
        assert takes_ranked_path(data, 0, 1, (2,)) == ranked
        assert_same_results(data, 0, 1, (2,))


def takes_ranked_path(data, x, y, z):
    """Whether count_table ranks the Z-configurations first instead of
    counting the nominal (x, y, Z) space in one pass."""
    return ranks_first(data, lambda: count_table(data, (x, y), z))


def ranks_first(data, count):
    """Whether count() builds its table on the ranked path; only that path
    calls observed_config_codes once the distinct rows are built."""
    data.distinct_rows
    calls = []

    def spy(*args):
        calls.append(args)
        return observed_config_codes(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_mod, "observed_config_codes", spy)
        count()
    return bool(calls)


def assert_same_table(data, x, y, z):
    got = count_table(data, (x, y), z)
    want = reference_contingency(data, x, y, z)
    assert got.shape == want.shape
    assert got.dtype == np.int64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


def assert_same_results(data, x, y, z):
    assert_same_table(data, x, y, z)
    for power_cells in ("nominal", "observed"):
        for power_threshold in (5.0, 0.01):
            cfg = Config(power_cells=power_cells, power_threshold=power_threshold)
            got = ci_test(data, x, y, z, cfg)
            assert got == reference_test_independence(data, x, y, z, cfg)


@st.composite
def datasets(draw):
    """Datasets whose distinct rows range from one (every row equal) to n
    (a row-index column), with arities from 1 to 300."""
    n = draw(st.integers(1, 60))
    arities = draw(st.lists(st.integers(1, 4) | st.sampled_from([7, 256, 300]),
                            min_size=3, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "pool", "distinct"]))
    if shape == "pool":
        # heavy duplication: every row is one of a few patterns
        pool = random_rows(rng, int(rng.integers(1, 4)), arities)
        rows = pool[rng.integers(0, len(pool), size=n)]
    else:
        rows = random_rows(rng, n, arities)
    if shape == "distinct":
        arities[0] = max(arities[0], n)
        rows[:, 0] = rng.permutation(n)
    return from_array(rows, arities=arities)


@settings(max_examples=300, deadline=None)
@given(data=datasets(), picks=st.randoms(use_true_random=False))
def test_table_and_test_match_reference(data, picks):
    order = list(range(data.d))
    picks.shuffle(order)
    x, y, *rest = order
    z = tuple(rest[: picks.randint(0, len(rest))])
    assert_same_results(data, x, y, z)


@pytest.mark.parametrize("shape", ["distinct", "duplicated"])
def test_both_passes_on_wide_columns(shape):
    # Arity-300 columns put the column store in uint16 and, conditioned on
    # one another, push the nominal space past the one-pass bound.
    rng = np.random.default_rng(8)
    arities = [300, 3, 300, 2, 5]
    n = 500 if shape == "distinct" else 40
    rows = random_rows(rng, n, arities)
    if shape == "duplicated":
        rows = rows[rng.integers(0, n, size=2000)]
    data = from_array(rows, arities=arities)
    assert data.distinct_rows[0].dtype == np.uint16
    cases = [(1, 3, ()), (3, 1, (4,)), (1, 3, (2, 4)), (0, 1, ()), (0, 2, (1,)),
             (1, 3, (0, 2)), (4, 3, (2, 1, 0))]
    assert {takes_ranked_path(data, *case) for case in cases} == {True, False}
    for case in cases:
        assert_same_results(data, *case)


@pytest.mark.parametrize("wide", [256, 65536])
def test_radix_at_a_dtype_boundary(wide):
    # An arity-1 column beside one of arity 256 (65536) makes a nominal code
    # space of exactly 256 (65536) cells, so the narrowest dtype of the code
    # holds its range but only just; every radix must fit it as well. At
    # 65536 the one-pass bound needs at least 16,128 distinct rows.
    n = max(wide // 4, 6)
    rows = np.column_stack([np.zeros(n, dtype=int), np.arange(n) * wide // n,
                            np.arange(n) % 2])
    rows[0, 1] = wide - 1
    data = from_array(rows, arities=[1, wide, 2])
    assert not takes_ranked_path(data, 0, 1, ())
    for case in [(0, 1, ()), (1, 0, ()), (0, 2, (1,)), (2, 0, (1,)), (0, 1, (2,))]:
        assert_same_results(data, *case)


def test_distinct_row_store():
    rows = np.array([[1, 0, 2], [0, 1, 0], [1, 0, 2], [1, 0, 2], [0, 1, 1]])
    data = from_array(rows, arities=[2, 2, 3])
    columns, weights = data.distinct_rows
    assert columns.dtype == np.uint8 and columns.flags.c_contiguous
    assert not columns.flags.writeable and not weights.flags.writeable
    # one column per distinct row, with its multiplicity
    assert sorted(zip(map(tuple, columns.T.tolist()), weights.tolist())) == [
        ((0, 1, 0), 1.0), ((0, 1, 1), 1.0), ((1, 0, 2), 3.0)]
    assert data.distinct_rows is data.distinct_rows


def test_no_rows():
    data = from_array(np.zeros((0, 3), dtype=int), arities=[2, 3, 2])
    assert data.distinct_rows[0].shape == (3, 0)
    for z in [(), (2,)]:
        assert_same_table(data, 0, 1, z)


@pytest.fixture(scope="module")
def child_sample():
    return forward_sample(child_shape_network(), 2000, seed=5)


@pytest.mark.parametrize("power_cells", ["nominal", "observed"])
def test_child_sample_matches_reference(child_sample, power_cells):
    cfg = Config(power_cells=power_cells)
    # every result of the reference source comes from the reference test
    ref = ReferenceSource(child_sample, cfg)
    ref_skeleton = build_skeleton(ref, cfg, jobs=1)
    assert len(ref._cache) > 100
    assert max(len(z) for _, _, z in ref._cache) >= 4
    for x, y, z in ref._cache:
        assert_same_table(child_sample, x, y, z)
    for jobs in (1, 2):
        src = DataIndependenceSource(child_sample, cfg)
        assert build_skeleton(src, cfg, jobs=jobs).edges == ref_skeleton.edges
        assert src._cache == ref._cache
        assert list(src._cache) == list(ref._cache)


def uniform_rows(rng, n, arities):
    return np.column_stack([rng.integers(0, a, size=n) for a in arities])


def canonical(x, y, z):
    return (x, y, tuple(sorted(z))) if x < y else (y, x, tuple(sorted(z)))


def assert_batches_match_reference(data, cfg, queries):
    """results() over the queries, test_independence() on each query's
    canonical key, first_independent() over each pair's conditioning sets,
    and every result any of them caches, equal (==) the reference test;
    returns the reference results."""
    keys = [canonical(*q) for q in queries]
    want = [reference_test_independence(data, *key, cfg) for key in keys]
    assert DataIndependenceSource(data, cfg).results(queries) == want
    assert [ci_test(data, *key, cfg) for key in keys] == want
    by_pair = {}
    for x, y, z in keys:
        by_pair.setdefault((x, y), []).append(z)
    for (x, y), zsets in by_pair.items():
        src = DataIndependenceSource(data, cfg)
        scope = sorted(set().union(*zsets))
        # one batch up to the first independent test, then every test
        src.first_independent(x, y, zsets, scope)
        for z in zsets:
            src.first_independent(x, y, [z], scope)
        assert list(src._cache) == list(dict.fromkeys((x, y, z) for z in zsets))
        for key, res in src._cache.items():
            assert res == reference_test_independence(data, *key, cfg)
    return want


class TestBatchedStatistic:
    """The batch queries compute the G2 statistic of many tables in one
    pass; every result must still equal the reference test's."""

    def test_tables_past_the_pairwise_block(self):
        # numpy sums more than 128 terms pairwise in blocks; 360 and 9,600
        # cells (the last past numpy's 8,192-element buffer too)
        rng = np.random.default_rng(11)
        arities = [6, 5, 3, 4, 40, 30, 8]
        data = from_array(
            uniform_rows(rng, 3000, arities), arities=arities)
        cfg = Config(power_threshold=0.01)
        queries = [(0, 1, (2, 3)), (1, 0, (3,)), (0, 1, ()), (0, 1, (2,)),
                   (0, 2, (3,)), (4, 5, (6,)), (5, 4, ()), (4, 5, (3,))]
        assert {6 * 5 * 12, 40 * 30 * 8} <= {
            count_table(data, (x, y), z).size for x, y, z in queries}
        assert_batches_match_reference(data, cfg, queries)

    def test_dense_tables_side_by_side(self):
        # several tables of 1,200 to 28,800 cells in one batch, dense and of
        # skewed counts, so a sum in another order would move the last
        # bits: each must be summed as if alone
        rng = np.random.default_rng(3)
        n = 100_000
        x = np.minimum(rng.geometric(0.15, size=n) - 1, 39)
        y = (x * 3 // 4 + np.minimum(rng.geometric(0.3, size=n) - 1, 29)) % 30
        z = rng.integers(0, 8, size=n)
        w = (x + rng.integers(0, 2, size=n)) % 3
        data = from_array(
            np.column_stack([x, y, z, w]), arities=[40, 30, 8, 3])
        queries = [(0, 1, (3,)), (1, 0, (2,)), (0, 1, ()), (0, 1, (2, 3))]
        assert_batches_match_reference(data, Config(power_threshold=0.5), queries)

    def test_strata_with_empty_rows_and_columns(self):
        # given z = 0, x is always 0 (all-zero rows); given z = 1, y is
        # always 1 (all-zero columns); z = 2 is unconstrained
        rng = np.random.default_rng(12)
        z = rng.integers(0, 3, size=400)
        w = rng.integers(0, 2, size=400)
        x = np.where(z == 0, 0, rng.integers(0, 3, size=400))
        y = np.where(z == 1, 1, (x + rng.integers(0, 2, size=400)) % 3)
        data = from_array(np.column_stack([x, y, z, w]))
        cfg = Config(power_threshold=0.5)
        want = assert_batches_match_reference(
            data, cfg, [(0, 1, (2,)), (0, 1, (2, 3)), (1, 0, (3,)), (0, 1, ())])
        # the adjustment drops the empty rows and columns from the dof
        assert want[0].dof == 0 + 0 + 2 * 2

    @pytest.mark.parametrize("power_cells", ["nominal", "observed"])
    def test_dof_zero_and_power_rule_verdicts(self, power_cells):
        # x copies z, so x is constant in every z stratum: dof 0; the wide
        # conditioning sets fall under the power rule
        rng = np.random.default_rng(13)
        arities = [3, 3, 3, 4, 4, 4]
        rows = uniform_rows(rng, 200, arities)
        rows[:, 0] = rows[:, 2]
        data = from_array(rows, arities=arities)
        cfg = Config(power_cells=power_cells)
        want = assert_batches_match_reference(data, cfg, [
            (0, 1, (2,)), (1, 0, (2, 3)), (0, 1, ()), (0, 1, (3, 4)),
            (1, 2, (3, 4, 5)), (1, 2, ()), (0, 1, (2, 4))])
        kinds = {(r.decided_by_power_rule, r.dof <= 0) for r in want}
        assert {(True, True), (False, True), (False, False)} <= kinds

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tables=st.integers(1, 6))
    def test_one_table_equals_its_place_in_a_batch(self, seed, tables):
        # tables of one (r, c) shape and one total n, side by side, some
        # past numpy's pairwise block: each table's g2_statistic and
        # mutual_information, alone and in C or Fortran order, equal its
        # values in the batch
        rng = np.random.default_rng(seed)
        r, c = (int(a) for a in rng.integers(1, 9, size=2))
        l = [int(a) for a in rng.integers(1, 12, size=tables)]
        n = int(rng.integers(1, 5000))
        singles = []
        for li in l:
            # skewed cell weights, many of them zero
            weights = rng.random(r * c * li) ** 4 * (rng.random(r * c * li) < 0.7)
            weights[int(rng.integers(weights.size))] += 1.0
            counts = rng.multinomial(n, weights / weights.sum()).reshape(r, c, li)
            singles.append(counts)
        batch = np.concatenate(singles, axis=2).astype(float)
        mis, dofs = independence_mod._mi_and_dof_batch(batch, l, n)
        for t, mi, dof in zip(singles, mis, dofs):
            fortran = np.asfortranarray(t)
            assert fortran.flags.f_contiguous
            for table in (t, fortran):
                assert mutual_information(table) == mi
                assert g2_statistic(table) == (2.0 * n * mi, dof)

    def test_batch_caches_up_to_its_first_independent_test(self):
        # x -> w -> y, and u apart: x and y are dependent given () and u,
        # independent given w; the block of four works past w but keeps
        # only the tests the loop asks
        rng = np.random.default_rng(14)
        n = 5000
        x = rng.integers(0, 2, size=n)
        w = np.where(rng.random(n) < 0.9, x, 1 - x)
        y = np.where(rng.random(n) < 0.9, w, 1 - w)
        u = rng.integers(0, 2, size=n)
        data = from_array(np.column_stack([x, y, w, u]))
        zsets = [(), (3,), (2,), (2, 3)]
        loop = DataIndependenceSource(data)
        assert [loop.independent(0, 1, z) for z in zsets] == [False, False, True, True]
        src = DataIndependenceSource(data)
        assert src.first_independent(0, 1, iter(zsets), (2, 3)) == (2,)
        assert src.distinct_tests == 3
        assert list(src._cache) == list(loop._cache)[:3]
        for key, res in src._cache.items():
            assert res == reference_test_independence(data, *key)


def test_family_counts_match_reference(child_sample):
    rng = np.random.default_rng(6)
    for _ in range(50):
        node = int(rng.integers(child_sample.d))
        others = [v for v in range(child_sample.d) if v != node]
        parents = tuple(rng.choice(others, size=int(rng.integers(0, 6)), replace=False))
        counts = count_table(child_sample, (node,), parents).T
        codes, m = reference_config_codes(
            child_sample.rows[:, list(parents)],
            [child_sample.arities[p] for p in parents],
        )
        r = child_sample.arities[node]
        flat = codes * r + child_sample.rows[:, node]
        want = np.bincount(flat, minlength=m * r).reshape(m, r)
        np.testing.assert_array_equal(counts, want)


def test_wide_arity_dataset_matches_reference():
    # 300 levels put the column store in uint16; count_table must not care.
    rng = np.random.default_rng(7)
    arities = [300, 3, 2, 5]
    ds = from_array(
        random_rows(rng, 400, arities), arities=arities
    )
    assert ds.distinct_rows[0].dtype == np.uint16
    for x, y, z in [(0, 1, ()), (1, 0, (2, 3)), (2, 3, (0,)), (3, 2, (0, 1))]:
        assert_same_results(ds, x, y, z)


@pytest.fixture(scope="module")
def duplicated_sample():
    # 300 rows drawn from 12 patterns: U = 12 distinct rows, so the one-pass
    # bound 4U + 1024 = 1072 lies between the families of the binary
    # parents and those of the arity-400 one (3 * 400 = 1200 cells)
    rng = np.random.default_rng(9)
    arities = [3, 2, 2, 400]
    pool = np.column_stack([rng.permutation(12) % a for a in arities])
    rows = pool[rng.integers(0, 12, size=300)]
    data = from_array(rows, arities=arities)
    assert data.distinct_rows[1].size == 12
    return data


def tallied_strata(data, node, parents):
    """{parent configuration: count per node level}, from the int32 rows."""
    strata = {}
    for row in data.rows.tolist():
        key = tuple(row[p] for p in parents)
        strata.setdefault(key, [0] * data.arities[node])[row[node]] += 1
    return dict(sorted(strata.items()))


@pytest.mark.parametrize("node, parents, ranked", [
    (0, (1, 2), False), (1, (0, 2), False), (0, (), False),
    (0, (3,), True), (0, (1, 3), True), (3, (0,), True), (3, (), False),
])
def test_scores_and_cpts_on_both_paths(duplicated_sample, node, parents, ranked):
    data = duplicated_sample
    r = data.arities[node]
    pa_arities = [data.arities[p] for p in parents]
    q = math.prod(pa_arities)
    assert ranks_first(data, lambda: count_table(data, (node,), parents)) == ranked
    strata = tallied_strata(data, node, parents)
    counts = count_table(data, (node,), parents).T
    np.testing.assert_array_equal(counts, np.array(list(strata.values())))
    for ess in (1.0, 10.0):
        assert local_score(data, node, parents, "bdeu", ess) == pytest.approx(
            bdeu_family_oracle(data, node, parents, ess), abs=1e-9)
    loglik = sum(
        c * math.log(c / sum(cells)) for cells in strata.values() for c in cells if c
    )
    assert local_score(data, node, parents, "bic") == pytest.approx(
        loglik - 0.5 * math.log(data.n) * q * (r - 1), rel=1e-12)
    dag = Dag(data.d, [(p, node) for p in parents])
    # the CPT's head is (node, *parents) with no Z: r * q cells
    assert ranks_first(data, lambda: fit_cpts(dag, data)) == (r * q > 1072)
    for laplace in (0.0, 1.0):
        table = np.full((r, q), laplace)
        for key, cells in strata.items():
            table[:, np.ravel_multi_index(key, pa_arities) if parents else 0] += cells
        totals = table.sum(axis=0)
        want = np.where(totals > 0, table / np.where(totals > 0, totals, 1), 1.0 / r)
        np.testing.assert_array_equal(fit_cpts(dag, data, laplace).cpts[node], want)


@pytest.mark.parametrize("n_parents", [62, 63])
def test_fit_cpts_rejects_a_parent_space_past_2_to_the_62(n_parents):
    # 2**62 parent configurations is the first too many; at 2**63 an int64
    # mixed-radix code of (node, *parents) would wrap silently
    rows = np.random.default_rng(10).integers(0, 2, size=(20, n_parents + 1))
    data = from_array(rows, arities=[2] * (n_parents + 1))
    parents = tuple(range(1, n_parents + 1))
    dag = Dag(data.d, [(p, 0) for p in parents])
    with pytest.raises(ValueError, match="too large"):
        fit_cpts(dag, data)
    # local scores count the observed parent configurations only
    assert count_table(data, (0,), parents).sum() == 20
    # every row is its own parent configuration, and the penalty counts q
    assert local_score(data, 0, parents, "bic") == pytest.approx(
        -0.5 * math.log(20) * 2**n_parents, rel=1e-12)
