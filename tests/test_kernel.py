"""The counting kernel against its sorting reference.

observed_config_codes ranks configurations with a presence mask instead of
a sort, and contingency tables and family counts read the dataset's column
store instead of its int32 rows. Both must agree exactly with the
straightforward versions in helpers.py, so every CI-test result and local
score stays bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn import independence as independence_mod
from hybridbn.data import CategoricalDataset, contingency, observed_config_codes
from hybridbn.independence import DataIndependenceSource
from hybridbn.independence import TestConfig as Config
from hybridbn.network import forward_sample
from hybridbn.scoring import _family_counts
from hybridbn.skeleton import build_skeleton
from hybridbn.synthetic import child_shape_network

from helpers import reference_config_codes, reference_contingency


def assert_same_codes(rows, arities):
    codes, l = observed_config_codes(rows, arities)
    want, want_l = reference_config_codes(rows, arities)
    assert l == want_l
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, want)


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


@pytest.fixture(scope="module")
def child_sample():
    return forward_sample(child_shape_network(), 2000, seed=5)


@pytest.mark.parametrize("power_cells", ["nominal", "observed"])
def test_child_sample_matches_reference(child_sample, power_cells):
    cfg = Config(power_cells=power_cells)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(independence_mod, "contingency", reference_contingency)
        ref = DataIndependenceSource(child_sample, cfg)
        ref_skeleton = build_skeleton(ref, cfg, jobs=1)
    assert len(ref._cache) > 100
    assert max(len(z) for _, _, z in ref._cache) >= 4
    for x, y, z in ref._cache:
        got = contingency(child_sample, x, y, z)
        want = reference_contingency(child_sample, x, y, z)
        assert (got.r, got.c, got.l, got.n) == (want.r, want.c, want.l, want.n)
        np.testing.assert_array_equal(got.counts, want.counts)
    for jobs in (1, 2):
        src = DataIndependenceSource(child_sample, cfg)
        assert build_skeleton(src, cfg, jobs=jobs).edges == ref_skeleton.edges
        assert src._cache == ref._cache


def test_family_counts_match_reference(child_sample):
    rng = np.random.default_rng(6)
    for _ in range(50):
        node = int(rng.integers(child_sample.d))
        others = [v for v in range(child_sample.d) if v != node]
        parents = tuple(rng.choice(others, size=int(rng.integers(0, 6)), replace=False))
        counts, _ = _family_counts(child_sample, node, parents)
        codes, m = reference_config_codes(
            child_sample.rows[:, list(parents)],
            [child_sample.arity(p) for p in parents],
        )
        r = child_sample.arity(node)
        flat = codes * r + child_sample.rows[:, node]
        want = np.bincount(flat, minlength=m * r).reshape(m, r)
        np.testing.assert_array_equal(counts, want)


def test_wide_arity_dataset_matches_reference():
    # 300 levels put the column store in uint16; contingency must not care.
    rng = np.random.default_rng(7)
    arities = [300, 3, 2, 5]
    ds = CategoricalDataset.from_array(
        random_rows(rng, 400, arities), arities=arities
    )
    assert ds.columns.dtype == np.uint16
    for x, y, z in [(0, 1, ()), (1, 0, (2, 3)), (2, 3, (0,)), (3, 2, (0, 1))]:
        got = contingency(ds, x, y, z)
        want = reference_contingency(ds, x, y, z)
        assert got.l == want.l
        np.testing.assert_array_equal(got.counts, want.counts)
