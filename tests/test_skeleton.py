import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn.data import DataError
from hybridbn.graphs import Dag
from hybridbn.independence import DataIndependenceSource
from hybridbn.independence import TestConfig as Config
from hybridbn.network import forward_sample
from hybridbn.scoring import ScoreConfig, hill_climb
from hybridbn.skeleton import (
    Skeleton,
    build_skeleton,
    de_pcs,
    de_sps,
    h2pc,
    hpc,
    iamb_fdr,
    read_skeleton,
    write_skeleton,
)
from hybridbn.synthetic import (
    child_shape_network,
    monotone_network,
    random_dag,
    random_network,
    recovery_network,
)

from helpers import (
    DSeparationSource,
    QueryLog,
    RecordingSource,
    random_dataset,
    reference_build_skeleton,
    reference_de_pcs,
    reference_de_sps,
    reference_hpc,
    true_skeleton,
)


def oracle(d, edges):
    return DSeparationSource(Dag(d, edges))


@st.composite
def oracle_cases(draw):
    """A random DAG of up to 9 nodes, a full or partial universe and a
    conditioning-set cap."""
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_dag(d, draw(st.integers(0, 3)), rng)
    universe = draw(st.none() | st.sets(st.integers(0, d - 1), min_size=1).map(sorted))
    cfg = Config(max_condset=draw(st.sampled_from([None, 1, 2])))
    return DSeparationSource(g), universe, cfg


@st.composite
def data_cases(draw):
    """A small sample: independent random columns, or rows drawn from a
    random network so that the learners meet real structure."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 9))
    n = draw(st.integers(40, 800))
    if draw(st.booleans()):
        ds = random_dataset(rng, d, n, max_arity=3)
    else:
        net = random_network(random_dag(d, 4, rng), rng)
        ds = forward_sample(net, n, seed=int(rng.integers(2**31)))
    cfg = Config(max_condset=draw(st.sampled_from([None, 1, 2])))
    return DataIndependenceSource(ds, cfg), None, cfg


class ScriptedSource:
    """Fixed-answer backend: everything is dependent except listed triples."""

    def __init__(self, d, independent_cases):
        self.d = d
        # {(x, y, frozenset(z))}, symmetric in (x, y)
        self.indep = set()
        for x, y, z in independent_cases:
            self.indep.add((x, y, frozenset(z)))
            self.indep.add((y, x, frozenset(z)))

    @property
    def n_vars(self):
        return self.d

    def independent(self, x, y, z=()):
        return (x, y, frozenset(z)) in self.indep

    def p_value(self, x, y, z=()):
        return 1.0 if self.independent(x, y, z) else 0.0


class TestDePcs:
    def test_collider_keeps_both_parents_and_removes_spouse_marginally(self):
        # A -> C <- B, target A: B leaves in Phase I with the empty set
        src = oracle(3, [(0, 2), (1, 2)])
        res = de_pcs(0, src, range(3))
        assert res.pcs == frozenset({2})
        assert res.dsep == {1: frozenset()}

    def test_chain_phase_two_records_singleton(self):
        # X -> Z -> Y, target X: Y falls only once Z is available
        src = oracle(3, [(0, 1), (1, 2)])
        res = de_pcs(0, src, range(3))
        assert res.pcs == frozenset({1})
        assert res.dsep == {2: frozenset({1})}

    def test_true_neighbors_never_removed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_dag(7, 3, rng)
            src = DSeparationSource(g)
            for t in range(7):
                truth = set(g.parents(t)) | set(g.children(t))
                assert truth <= set(de_pcs(t, src, range(7)).pcs)

    def test_universe_restriction(self):
        src = oracle(4, [(0, 1), (2, 3)])
        res = de_pcs(0, src, [0, 1])
        assert res.pcs == frozenset({1})
        assert 2 not in res.dsep and 3 not in res.dsep


class TestDeSps:
    def test_spouse_admitted_through_common_child(self):
        # T -> C <- S: conditioning on C turns S back on
        src = oracle(3, [(0, 1), (2, 1)])
        res = de_pcs(0, src, range(3))
        assert res.pcs == frozenset({1})
        sps = de_sps(0, src, range(3), res.pcs, res.dsep)
        assert sps == frozenset({2})

    def test_chain_has_no_spouses(self):
        src = oracle(3, [(0, 1), (1, 2)])
        res = de_pcs(0, src, range(3))
        sps = de_sps(0, src, range(3), res.pcs, res.dsep)
        assert sps == frozenset()

    def test_shrink_drops_spouse_relay(self):
        # T -> C <- S and S -> A: A activates via C but {C, S} shuts it out
        src = oracle(4, [(0, 1), (2, 1), (2, 3)])
        res = de_pcs(0, src, range(4))
        assert res.pcs == frozenset({1})
        sps = de_sps(0, src, range(4), res.pcs, res.dsep)
        assert sps == frozenset({2})

    def test_true_spouses_always_covered(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_dag(7, 3, rng)
            src = DSeparationSource(g)
            for t in range(7):
                res = de_pcs(t, src, range(7))
                sps = de_sps(t, src, range(7), res.pcs, res.dsep)
                spouses = set()
                for c in g.children(t):
                    spouses.update(p for p in g.parents(c) if p != t)
                assert spouses - res.pcs <= sps
                # Markov boundary is inside the union
                pc = set(g.parents(t)) | set(g.children(t))
                assert (pc | spouses) <= ({t} | res.pcs | sps)


class TestIambFdr:
    def test_child_and_spouse_recovered(self):
        # T -> C <- B: boundary of T is {C, B}
        src = oracle(3, [(0, 1), (2, 1)])
        assert iamb_fdr(0, src, range(3), 0.05) == {1, 2}

    def test_singleton_universe(self):
        src = oracle(1, [])
        assert iamb_fdr(0, src, [0], 0.05) == set()

    def test_chain_keeps_only_adjacent(self):
        # T -> Z -> Y: Y is admitted on a tie but shrunk back out
        src = oracle(3, [(0, 1), (1, 2)])
        assert iamb_fdr(0, src, range(3), 0.05) == {1}

    def test_matches_markov_boundary_on_random_oracles(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_dag(6, 3, rng)
            src = DSeparationSource(g)
            for t in range(6):
                pc = set(g.parents(t)) | set(g.children(t))
                spouses = {
                    p for c in g.children(t) for p in g.parents(c) if p != t
                }
                assert iamb_fdr(t, src, range(6), 0.05) == pc | spouses

    def test_statistical_chain(self):
        g = Dag(3, [(0, 1), (1, 2)])
        net = monotone_network(g)
        hits = 0
        for seed in range(10):
            ds = forward_sample(net, 5000, seed=seed)
            src = DataIndependenceSource(ds)
            if iamb_fdr(0, src, range(3), 0.05) == {1}:
                hits += 1
        assert hits >= 9


class TestFdrIapc:
    """The FDR-IAPC step of hpc: the iamb_fdr boundary estimate minus the
    members some subset of the rest of it separates from the target."""

    def test_spouse_removed_by_empty_set(self):
        src = oracle(3, [(0, 1), (2, 1)])
        assert iamb_fdr(0, src, range(3), 0.05) == {1, 2}
        assert hpc(0, src) == {1}

    def test_adjacent_pair_retained(self):
        src = oracle(2, [(0, 1)])
        assert hpc(0, src) == {1}
        assert hpc(1, src) == {0}

    def test_empty_boundary(self):
        src = oracle(3, [])
        assert hpc(0, src) == set()

    def test_max_condset_limits_the_search(self):
        # 1 is separated from 0 only by the proper subset {2, 3}; it stays
        # dependent given any one variable and given the full rest, so the
        # PCS and the boundary estimate keep it and only the subset search
        # can prune it
        src = ScriptedSource(5, [(0, 1, (2, 3))])
        assert iamb_fdr(0, src, range(5), 0.05) == {1, 2, 3, 4}
        assert hpc(0, src, cfg=Config()) == {2, 3, 4}
        assert hpc(0, src, cfg=Config(max_condset=1)) == {1, 2, 3, 4}


class TestHpc:
    def test_isolated_target(self):
        src = oracle(3, [(1, 2)])
        assert hpc(0, src) == set()

    def test_collider_target_full_pc(self):
        src = oracle(4, [(0, 2), (1, 2), (2, 3)])
        assert hpc(2, src) == {0, 1, 3}

    def test_matches_true_pc_on_random_oracles(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            g = random_dag(7, 3, rng)
            src = DSeparationSource(g)
            for t in range(7):
                truth = set(g.parents(t)) | set(g.children(t))
                assert hpc(t, src) == truth

    def test_condset_caps_by_phase(self):
        g = random_dag(8, 3, np.random.default_rng(11))
        base = DSeparationSource(g)
        rec = RecordingSource(base)
        res = de_pcs(3, rec, range(8))
        assert rec.max_z <= 1
        rec2 = RecordingSource(base)
        de_sps(3, rec2, range(8), res.pcs, res.dsep)
        assert rec2.max_z <= 2


class TestBuildSkeleton:
    def test_exact_on_random_oracles(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            g = random_dag(7, 3, rng)
            skel = build_skeleton(DSeparationSource(g))
            assert skel.edges == true_skeleton(g).edges

    def test_one_node(self):
        assert build_skeleton(oracle(1, [])).edges == frozenset()

    def test_universe_subset_learns_inside_only(self):
        src = oracle(5, [(0, 1), (1, 2), (3, 4)])
        skel = build_skeleton(src, universe=[0, 1, 2])
        assert skel.d == 5
        assert skel.edges == frozenset({(0, 1), (1, 2)})

    def test_universe_order_is_irrelevant(self):
        src = oracle(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
        a = build_skeleton(src, universe=[5, 3, 1, 0, 2, 4])
        b = build_skeleton(src, universe=range(6))
        assert a.edges == b.edges

    def test_jobs_do_not_change_the_result(self):
        g = random_dag(9, 3, np.random.default_rng(30))
        src = DSeparationSource(g)
        assert build_skeleton(src, jobs=1).edges == build_skeleton(src, jobs=4).edges

    def test_queries_run_on_the_calling_thread(self):
        g = random_dag(9, 3, np.random.default_rng(30))
        src = RecordingSource(DSeparationSource(g))
        build_skeleton(src, jobs=4)
        assert src.calls > 0
        assert src.threads == {threading.get_ident()}

    def test_statistical_recovery_on_a_chain(self):
        g = Dag(4, [(0, 1), (1, 2), (2, 3)])
        net = monotone_network(g, lo=0.05, hi=0.95)
        ds = forward_sample(net, 8000, seed=1)
        skel = build_skeleton(DataIndependenceSource(ds), cfg=Config())
        assert skel.edges == true_skeleton(g).edges


    def test_source_config_is_the_default(self):
        # without cfg, the FDR alpha and max_condset were TestConfig()'s,
        # whatever the source tested with: 25 edges here instead of 31
        ds = forward_sample(child_shape_network(), 3000, seed=1)
        cfg = Config(max_condset=0)
        src = DataIndependenceSource(ds, cfg)
        skel = build_skeleton(src)
        assert skel == build_skeleton(src, cfg)
        assert skel != build_skeleton(src, Config())
        for t in range(ds.d):
            assert hpc(t, src) == hpc(t, src, None, cfg)


class TestH2pc:
    """h2pc is build_skeleton under the source's cfg, then hill_climb on it."""

    TEST_CFG = Config(alpha=0.01, max_condset=2, power_cells="observed")
    SCORE_CFG = ScoreConfig(score="bic", tabu_length=7, patience=4)

    @pytest.mark.parametrize("network", [recovery_network, child_shape_network])
    def test_is_the_skeleton_then_the_search(self, network):
        ds = forward_sample(network(), 3000, seed=[5, 0])
        got = h2pc(DataIndependenceSource(ds, self.TEST_CFG), self.SCORE_CFG)
        src = DataIndependenceSource(ds, self.TEST_CFG)
        skel = build_skeleton(src)
        assert got.skeleton == skel
        assert got.search == hill_climb(ds, skel, self.SCORE_CFG)
        assert got.ci_tests == src.distinct_tests > 0
        assert got.search.dag.edge_count() > 0

    def test_nodes_outside_the_universe_stay_isolated(self):
        ds = forward_sample(child_shape_network(), 2000, seed=[5, 1])
        universe = {0, 1, 2, 3, 5, 8, 13}
        src = DataIndependenceSource(ds, self.TEST_CFG)
        got = h2pc(src, self.SCORE_CFG, universe=universe)
        assert got.skeleton.edges
        assert all({u, v} <= universe for u, v in got.skeleton.edges)
        assert all({u, v} <= universe for u, v in got.search.dag.edges())
        assert all({x, y, *z} <= universe for x, y, z in src._cache)

    def test_result_is_immutable(self):
        ds = forward_sample(monotone_network(Dag(3, [(0, 1), (1, 2)])), 500, seed=2)
        got = h2pc(DataIndependenceSource(ds))
        for name in ("skeleton", "search", "ci_tests"):
            with pytest.raises(AttributeError):
                setattr(got, name, None)


class TestQueryOrder:
    """de_pcs and de_sps ask the (x, y, z) queries of their loops as first
    written (helpers), in the same order, whether one at a time or in
    batches."""

    @staticmethod
    def check(src):
        for target in range(src.n_vars):
            universe = range(src.n_vars)
            got, want = QueryLog(src), QueryLog(src)
            res = de_pcs(target, got, universe)
            assert res == reference_de_pcs(target, want, universe)
            sps = de_sps(target, got, universe, res.pcs, res.dsep)
            assert sps == reference_de_sps(target, want, universe, res.pcs, res.dsep)
            assert got.queries == want.queries

    @given(oracle_cases())
    @settings(max_examples=60, deadline=None)
    def test_oracle_sources(self, case):
        self.check(case[0])

    @given(data_cases())
    @settings(max_examples=60, deadline=None)
    def test_sampled_data(self, case):
        self.check(case[0])

    def test_child_sample(self):
        ds = forward_sample(child_shape_network(), 2000, seed=0)
        src = QueryLog(DataIndependenceSource(ds))
        self.check(src)
        # both elimination loops ran: phase II (|Z| = 1) and shrink (|Z| = 2)
        assert {len(z) for _, _, z in src.queries} == {0, 1, 2}


class TestAgainstReference:
    """The skeleton and hpc hold to the unpruned reference in helpers."""

    @staticmethod
    def check(src, universe, cfg):
        skel = build_skeleton(src, cfg, universe=universe)
        assert skel.edges == reference_build_skeleton(src, cfg, universe).edges
        nodes = universe if universe is not None else range(src.n_vars)
        for t in nodes:
            assert hpc(t, src, universe, cfg) == reference_hpc(t, src, universe, cfg)

    @given(oracle_cases())
    @settings(max_examples=80, deadline=None)
    def test_oracle_sources(self, case):
        self.check(*case)

    @given(data_cases())
    @settings(max_examples=200, deadline=None)
    def test_sampled_data(self, case):
        self.check(*case)

    def test_and_rule_skip_only_removes_tests(self):
        ds = forward_sample(child_shape_network(), 2000, seed=0)
        pruned, full = DataIndependenceSource(ds), DataIndependenceSource(ds)
        assert build_skeleton(pruned).edges == reference_build_skeleton(full).edges
        assert pruned._cache.keys() < full._cache.keys()

    def test_duplicate_universe_entries_run_once(self):
        g = random_dag(8, 3, np.random.default_rng(4))
        once = RecordingSource(DSeparationSource(g))
        twice = RecordingSource(DSeparationSource(g))
        a = build_skeleton(once, universe=[0, 2, 3, 5, 6])
        b = build_skeleton(twice, universe=[6, 0, 2, 2, 3, 5, 5, 6, 0])
        assert a.edges == b.edges
        assert once.calls == twice.calls


class TestSkeletonObject:
    def test_edge_normalization_and_pc(self):
        s = Skeleton(d=3, edges=frozenset({(2, 0), (1, 2)}))
        assert s.edges == frozenset({(0, 2), (1, 2)})
        assert s.pc[2] == frozenset({0, 1})
        assert s.pc[0] == frozenset({2})

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Skeleton(d=3, edges=frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            Skeleton(d=3, edges=frozenset({(0, 3)}))


class TestSkeletonIO:
    def test_roundtrip(self, tmp_path):
        skel = Skeleton(d=4, edges=frozenset({(0, 2), (1, 2), (2, 3)}))
        names = ["a", "b", "c", "d"]
        path = tmp_path / "skel.json"
        write_skeleton(skel, names, path)
        back, back_names = read_skeleton(path)
        assert back_names == names
        assert back.edges == skel.edges

    def test_name_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_skeleton(Skeleton(d=2, edges=frozenset()), ["a"], tmp_path / "x")

    def test_read_rejects_unknown_node(self, tmp_path):
        path = tmp_path / "skel.json"
        path.write_text('{"nodes": ["a", "b"], "edges": [["a", "zz"]]}')
        with pytest.raises(ValueError, match="edge"):
            read_skeleton(path)
        # a self-loop and edges that are not pairs of names
        for edges in ('[["a", "a"]]', '[5]', '[[["a"], "b"]]', '[["a"]]'):
            path.write_text('{"nodes": ["a", "b"], "edges": %s}' % edges)
            with pytest.raises(DataError, match="bad skeleton edge"):
                read_skeleton(path)

    def test_read_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "skel.json"
        path.write_text('{"nodes": ["a", "b"]}')
        with pytest.raises(ValueError):
            read_skeleton(path)
        for text, match in (
            ('{"nodes": ["a", "b"], "edges": 5}', "array under 'edges'"),
            ('{"nodes": 3, "edges": []}', "array under 'nodes'"),
            ('["a", "b"]', "JSON object"),
            ("7", "JSON object"),
            ('{"nodes": ["a", "b", "a"], "edges": []}', "duplicate"),
        ):
            path.write_text(text)
            with pytest.raises(DataError, match=match):
                read_skeleton(path)
