import math

import numpy as np
import pytest
from hypothesis import given, settings

from hybridbn.data import DataError
from hybridbn.graphs import Dag, Pdag
from hybridbn.metrics import dag_to_cpdag, holdout_scores, shd, skeleton_metrics
from hybridbn.network import forward_sample
from hybridbn.scoring import ScoreConfig, Scorer, hill_climb
from hybridbn.skeleton import Skeleton
from hybridbn.synthetic import monotone_network, random_dag, random_network

from helpers import (
    adjacency_pairs,
    all_dags,
    brute_force_cpdag,
    covered_edge_class,
    drawn_dags,
    equivalence_key,
    meek_cpdag,
    random_pdag,
    random_pdag_pair,
    reference_shd,
    true_skeleton,
)


def skel(d, *edges):
    return Skeleton(d=d, edges=frozenset(edges))


class TestSkeletonMetrics:
    def test_identical(self):
        s = skel(4, (0, 1), (1, 2))
        m = skeleton_metrics(s, s)
        assert (m.tp, m.fp, m.fn) == (2, 0, 0)
        assert m.precision == 1.0 and m.recall == 1.0
        assert m.fpr == 0.0 and m.euclidean == 0.0

    def test_empty_learned(self):
        m = skeleton_metrics(skel(4), skel(4, (0, 1), (2, 3)))
        assert m.precision == 1.0
        assert m.recall == 0.0
        assert m.euclidean == 1.0

    def test_empty_truth(self):
        m = skeleton_metrics(skel(3, (0, 1)), skel(3))
        assert m.recall == 1.0
        assert m.precision == 0.0
        assert m.fpr == pytest.approx(1 / 3)

    def test_mixed_counts(self):
        # 9 nodes: truth 30 edges is impossible, use d high enough
        truth_edges = [(u, v) for u in range(9) for v in range(u + 1, 9)][:30]
        learned = truth_edges[:20] + [(0, 8), (1, 8)]
        while len(learned) < 30:
            learned.append(truth_edges[len(learned)])
        d = 12
        t = Skeleton(d=d, edges=frozenset(truth_edges))
        s = Skeleton(d=d, edges=frozenset(learned))
        m = skeleton_metrics(s, t)
        assert m.tp + m.fp == len(s.edges)
        assert m.tp + m.fn == len(t.edges)
        assert m.precision == pytest.approx(m.tp / len(s.edges))
        assert m.recall == pytest.approx(m.tp / len(t.edges))
        assert m.euclidean == pytest.approx(
            math.hypot(1 - m.precision, 1 - m.recall)
        )

    def test_worked_example(self):
        # truth 5 edges, learned 5 with 4 hits: precision .8, recall .8
        t = skel(6, (0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
        s = skel(6, (0, 1), (1, 2), (2, 3), (3, 4), (0, 5))
        m = skeleton_metrics(s, t)
        assert (m.tp, m.fp, m.fn) == (4, 1, 1)
        assert m.precision == 0.8 and m.recall == 0.8
        non_edges = 15 - 5
        assert m.fpr == pytest.approx(1 / non_edges)
        assert m.euclidean == pytest.approx(math.hypot(0.2, 0.2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            skeleton_metrics(skel(3), skel(4))


class TestDagToCpdag:
    def test_chain_is_fully_undirected(self):
        p = dag_to_cpdag(Dag(3, [(0, 1), (1, 2)]))
        assert p.directed == frozenset()
        assert p.undirected == frozenset({(0, 1), (1, 2)})

    def test_collider_is_fully_directed(self):
        p = dag_to_cpdag(Dag(3, [(0, 2), (1, 2)]))
        assert p.undirected == frozenset()
        assert p.directed == frozenset({(0, 2), (1, 2)})

    def test_meek_propagation_past_a_collider(self):
        # 0 -> 2 <- 1 plus 2 -> 3: the tail edge is compelled (rule 1)
        p = dag_to_cpdag(Dag(4, [(0, 2), (1, 2), (2, 3)]))
        assert (2, 3) in p.directed

    @settings(max_examples=200, deadline=None)
    @given(drawn_dags())
    def test_equivalence_class_members_share_the_pattern(self, g):
        edges = tuple(sorted(g.edges()))
        base = dag_to_cpdag(g)
        for m in covered_edge_class(g.d, edges):
            assert dag_to_cpdag(Dag(g.d, m)) == base
        assert base == brute_force_cpdag(g.d, edges)
        # the pattern's adjacencies match the DAG's skeleton
        assert adjacency_pairs(base) == equivalence_key(g.d, edges)[0]

    def test_matches_brute_force_on_small_graphs(self):
        for d in (2, 3):
            for edges in all_dags(d):
                expected = brute_force_cpdag(d, edges)
                got = dag_to_cpdag(Dag(d, edges))
                assert got == expected, (d, edges)

    def test_matches_brute_force_on_larger_graphs(self):
        # 6 to 12 nodes, up to 4 parents each: past the reach of check 4's
        # enumeration. The sequence stays because DAGs 35, 36, 75, 87, 137,
        # 156, 166, 274 and 281 of it are ones where a Meek closure that ran
        # rules 1-4 would fire rule 4 first, a case a CPDAG method is easily
        # wrong on.
        rng = np.random.default_rng(0)
        for _ in range(300):
            d = int(rng.integers(6, 13))
            g = random_dag(d, 4, rng)
            assert dag_to_cpdag(g) == brute_force_cpdag(d, tuple(g.edges()))

    def test_rules_one_to_three_close_where_rule_four_fires_first(self):
        # Kept as a regression case: a Meek closure that ran rules 1-4 would
        # orient 6 -> 0 by rule 4 here, before rules 1-3 reach it
        edges = ((1, 2), (1, 3), (1, 4), (2, 0), (2, 3), (2, 4), (2, 5),
                 (4, 0), (5, 0), (5, 4), (6, 0), (6, 1), (6, 2), (6, 3),
                 (6, 4), (6, 5))
        p = dag_to_cpdag(Dag(7, edges))
        assert (6, 0) in p.directed
        assert p == brute_force_cpdag(7, edges)

    def test_pattern_is_a_fixture_of_itself(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_dag(7, 3, rng)
            p = dag_to_cpdag(g)
            assert adjacency_pairs(p) == {
                (min(u, v), max(u, v)) for u, v in g.edges()
            }


class TestWideDags:
    """Past brute_force_cpdag's reach, Meek's closure is the oracle."""

    def test_wide_random_dag(self):
        g = random_dag(200, 3, np.random.default_rng(0))
        assert dag_to_cpdag(g) == meek_cpdag(g)

    def test_hill_climb_dag_on_the_true_skeleton(self):
        rng = np.random.default_rng(0)
        truth = random_dag(200, 3, rng)
        net = random_network(truth, rng, arities=[3] * truth.d)
        data = forward_sample(net, 5000, seed=0)
        g = hill_climb(data, true_skeleton(truth)).dag
        assert g.edge_count() > 0
        assert dag_to_cpdag(g) == meek_cpdag(g)

    def test_seeded_dags_of_20_to_60_nodes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_dag(int(rng.integers(20, 61)), 4, rng)
            assert dag_to_cpdag(g) == meek_cpdag(g)


class TestShd:
    def test_identical_graphs(self):
        p = dag_to_cpdag(Dag(3, [(0, 1), (1, 2)]))
        assert shd(p, p) == 0

    def test_extra_undirected_edge(self):
        a = Pdag(3, undirected=[(0, 1)])
        b = Pdag(3)
        assert shd(a, b) == 1

    def test_orientation_disagreement(self):
        a = Pdag(2, directed=[(0, 1)])
        b = Pdag(2, undirected=[(0, 1)])
        assert shd(a, b) == 1
        c = Pdag(2, directed=[(1, 0)])
        assert shd(a, c) == 1

    def test_worked_example(self):
        # truth: 0->1, 1-2; learned: 0->1, 2->1, 0-2
        t = Pdag(3, directed=[(0, 1)], undirected=[(1, 2)])
        s = Pdag(3, directed=[(0, 1), (2, 1)], undirected=[(0, 2)])
        assert shd(s, t) == 2

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = random_pdag_pair(rng, int(rng.integers(2, 7)))
            assert shd(a, b) == shd(b, a)
            assert shd(a, a) == 0
            if shd(a, b) == 0:
                assert adjacency_pairs(a) == adjacency_pairs(b)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(3, 6))
            a = random_pdag(d, rng)
            b = random_pdag(d, rng)
            c = random_pdag(d, rng)
            assert shd(a, c) <= shd(a, b) + shd(b, c)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shd(Pdag(2), Pdag(3))

    def test_matches_the_per_pair_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            a, b = random_pdag_pair(rng, int(rng.integers(2, 9)))
            assert shd(a, b) == reference_shd(a, b)
        for _ in range(200):
            d = int(rng.integers(2, 12))
            a = dag_to_cpdag(random_dag(d, 3, rng))
            b = dag_to_cpdag(random_dag(d, 3, rng))
            assert shd(a, b) == reference_shd(a, b)


class TestHoldoutScores:
    def test_same_data_twice(self):
        g = random_dag(5, 2, np.random.default_rng(10))
        ds = forward_sample(monotone_network(g), 300, seed=1)
        out = holdout_scores(ds, {"a": g, "b": Dag(g.d, g.edges()), "empty": Dag(5)})
        assert out["a"] == out["b"]
        assert set(out) == {"a", "b", "empty"}
        assert set(out["a"]) == {"bdeu", "bic"}
        # a shared Scorer gives the same totals as a fresh one per structure
        assert out["a"]["bdeu"] == Scorer(ds, ScoreConfig(score="bdeu")).total(g)
        assert out["a"]["bic"] == Scorer(ds, ScoreConfig(score="bic")).total(g)

    def test_generalization_gap_direction(self):
        # an overfit dense structure scores relatively worse on fresh data
        g = random_dag(5, 2, np.random.default_rng(12))
        net = monotone_network(g)
        train = forward_sample(net, 500, seed=2)
        test = forward_sample(net, 500, seed=3)
        cfg = ScoreConfig(ess=4.0)
        on_train = holdout_scores(train, {"g": g}, cfg)["g"]
        on_test = holdout_scores(test, {"g": g}, cfg)["g"]
        assert on_train["bdeu"] != on_test["bdeu"]
        assert on_test["bdeu"] == Scorer(test, cfg).total(g)

    def test_mismatched_variables_rejected(self):
        g = random_dag(3, 2, np.random.default_rng(14))
        wider = monotone_network(random_dag(4, 2, np.random.default_rng(1)))
        ds = forward_sample(wider, 50, seed=1)
        with pytest.raises(DataError):
            holdout_scores(ds, {"g": g})
