"""The batch queries of DataIndependenceSource against a sequential
reference.

results() and first_independent() may work ahead and compute many tests
in one pass, but they must give what asking independent / p_value one at a
time gives: the same answers, the same TestResults (==), and the same cache
keys in the same order. So must every discovery routine that uses them.
The sequential side is helpers.ReferenceSource, which shares no code with
the package's evaluator: one reference test per key, no batch queries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn import data as data_mod
from hybridbn import independence as independence_mod
from hybridbn import multilabel as multilabel_mod
from hybridbn.independence import DataIndependenceSource
from hybridbn.independence import TestConfig as Config
from hybridbn.skeleton import build_skeleton, hpc

from helpers import ReferenceSource, from_array


@st.composite
def datasets(draw):
    """Rows with arities 2 to 4, some columns repeated (as they are, or
    with their levels renamed) and some noisy copies, so that boundaries
    and conditioning sets grow past the one-pass bounds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(3, 8))
    n = draw(st.integers(20, 400))
    arities = [int(rng.integers(2, 5)) for _ in range(d)]
    cols = []
    for a in arities:
        kind = rng.integers(0, 4) if cols else 0
        source = cols[int(rng.integers(len(cols)))] if cols else None
        if kind == 1 and source.max() < a:
            cols.append(source.copy())
        elif kind == 2 and source.max() < a:
            cols.append((source + 1) % a)
        elif kind == 3:
            noisy = rng.random(n) < 0.2
            cols.append(np.where(noisy, rng.integers(0, a, size=n), source % a))
        else:
            cols.append(rng.integers(0, a, size=n))
    return from_array(np.column_stack(cols), arities=arities)


configs = st.builds(
    Config,
    max_condset=st.sampled_from([None, 0, 2]),
    power_cells=st.sampled_from(["nominal", "observed"]),
    power_threshold=st.sampled_from([5.0, 1.0, 0.1]),
)


def assert_same_cache(batched, sequential):
    assert list(batched._cache) == list(sequential._cache)
    assert list(batched._cache.values()) == list(sequential._cache.values())


@settings(max_examples=150, deadline=None)
@given(data=datasets(), cfg=configs)
def test_skeleton_and_hpc_match_the_sequential_source(data, cfg):
    batched = DataIndependenceSource(data, cfg)
    sequential = ReferenceSource(data, cfg)
    assert build_skeleton(batched, cfg) == build_skeleton(sequential, cfg)
    assert_same_cache(batched, sequential)
    for target in range(data.d):
        batched = DataIndependenceSource(data, cfg)
        sequential = ReferenceSource(data, cfg)
        assert hpc(target, batched, None, cfg) == hpc(target, sequential, None, cfg)
        assert_same_cache(batched, sequential)


@settings(max_examples=40, deadline=None)
@given(data=datasets(), cfg=configs)
def test_local_dag_matches_the_sequential_source(data, cfg):
    sources = []

    def source(cls):
        def make(data, cfg):
            sources.append(cls(data, cfg))
            return sources[-1]
        return make

    labels = list(range(data.d - 2, data.d))
    dags = []
    for cls in (DataIndependenceSource, ReferenceSource):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multilabel_mod, "DataIndependenceSource", source(cls))
            dags.append(multilabel_mod.learn_local_dag(data, labels, cfg))
    assert dags[0] == dags[1]
    assert_same_cache(*sources)


@st.composite
def query_plans(draw):
    """A dataset, a config and a list of batch queries: ("results",
    queries) or ("first", x, y, zsets, scope), with zsets in any order,
    repeats allowed."""
    data = draw(datasets())
    cfg = draw(configs)
    variables = st.integers(0, data.d - 1)
    plan = []
    for _ in range(draw(st.integers(1, 6))):
        x, y = draw(st.lists(variables, min_size=2, max_size=2, unique=True))
        rest = [v for v in range(data.d) if v not in (x, y)]
        scope = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
        subsets = st.lists(st.sampled_from(scope), unique=True) if scope else st.just([])
        if draw(st.booleans()):
            queries = []
            for _ in range(draw(st.integers(0, 8))):
                a, b = draw(st.permutations([x, draw(st.sampled_from(rest or [y]))]))
                if a == b:
                    continue
                z = [v for v in draw(subsets) if v not in (a, b)]
                queries.append((a, b, tuple(z)))
            plan.append(("results", queries))
        else:
            zsets = [tuple(draw(subsets)) for _ in range(draw(st.integers(0, 12)))]
            plan.append(("first", x, y, zsets, scope))
    return data, cfg, plan


@settings(max_examples=200, deadline=None)
@given(case=query_plans())
def test_batch_queries_match_the_loop(case):
    data, cfg, plan = case
    batched = DataIndependenceSource(data, cfg)
    sequential = ReferenceSource(data, cfg)
    for step in plan:
        if step[0] == "results":
            got = batched.results(step[1])
            assert got == [sequential.result(*q) for q in step[1]]
        else:
            _, x, y, zsets, scope = step
            got = batched.first_independent(x, y, iter(zsets), scope)
            want = next((z for z in zsets if sequential.independent(x, y, z)), None)
            assert got == want
        assert_same_cache(batched, sequential)


class Spies:
    """Counts the joints first_independent counts and the tables that rank
    their Z-configurations first (count_table's wide path)."""

    def __init__(self, mp):
        self.joints = 0
        self.ranked = 0
        ranks = data_mod.observed_config_codes
        spies = self

        class counting_joint(data_mod.JointCounts):
            def __init__(self, *args):
                spies.joints += 1
                super().__init__(*args)

        def counting_ranks(*args):
            self.ranked += 1
            return ranks(*args)

        mp.setattr(independence_mod, "JointCounts", counting_joint)
        mp.setattr(data_mod, "observed_config_codes", counting_ranks)


def wide_data():
    # U = 300 distinct rows at most: the one-pass bound is at most 2,224
    # cells, so a 4 x 4 table given three arity-4 variables (1,024 cells)
    # is counted in one pass and given four (4,096) is ranked first
    rng = np.random.default_rng(21)
    rows = rng.integers(0, 4, size=(300, 7))
    rows[:, 1] = np.where(rng.random(300) < 0.7, rows[:, 0], rows[:, 1])
    data = from_array(rows, arities=[4] * 7)
    data.distinct_rows
    return data


@pytest.mark.parametrize("power_cells", ["nominal", "observed"])
def test_each_path_runs_and_matches_the_loop(power_cells):
    data = wide_data()
    cfg = Config(power_cells=power_cells, power_threshold=0.01)
    batched = DataIndependenceSource(data, cfg)
    sequential = ReferenceSource(data, cfg)
    narrow, wide = (2, 3, 4), (2, 3, 4, 5, 6)
    # count_table's one-pass and ranked paths
    queries = [(0, 1, narrow), (1, 0, wide), (0, 1, ())]
    want = [sequential.result(*q) for q in queries]
    with pytest.MonkeyPatch.context() as mp:
        spies = Spies(mp)
        assert batched.results(queries) == want
        assert spies.ranked == 1 and spies.joints == 0
        # a joint within the bound, then one past it (the loop)
        for scope in (narrow, wide):
            zsets = [z for z in [(), (2,), (2, 3), scope] if set(z) <= set(scope)]
            got = batched.first_independent(0, 1, zsets, scope)
            assert got == next(
                (z for z in zsets if sequential.independent(0, 1, z)), None)
        assert spies.joints == 1
    assert_same_cache(batched, sequential)
