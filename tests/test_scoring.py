import math

import numpy as np
import pytest

from hybridbn.data import DataError
from hybridbn.graphs import Dag
from hybridbn.metrics import dag_to_cpdag
from hybridbn.network import forward_sample
from hybridbn.scoring import (
    ScoreConfig,
    Scorer,
    SearchResult,
    hill_climb,
)
from hybridbn.skeleton import Skeleton
from hybridbn.synthetic import monotone_network, random_dag, recovery_network

from helpers import (
    all_dags,
    bdeu_family_oracle,
    equivalence_key,
    from_array,
    random_dataset,
    total_score,
    true_skeleton,
)


def dataset(rows, arities):
    return from_array(
        np.asarray(rows, dtype=np.int32), arities=arities
    )


def bdeu_local(data, node, parents=(), ess=10.0):
    return Scorer(data, ScoreConfig(score="bdeu", ess=ess)).local(node, parents)


def bic_local(data, node, parents=()):
    return Scorer(data, ScoreConfig(score="bic")).local(node, parents)


def full_skeleton(d):
    return Skeleton(
        d=d, edges=frozenset((u, v) for u in range(d) for v in range(u + 1, d))
    )


class TestScoreConfig:
    def test_defaults(self):
        cfg = ScoreConfig()
        assert cfg.score == "bdeu"
        assert cfg.ess == 10.0
        assert cfg.tabu_length == 100
        assert cfg.patience == 15

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoreConfig(score="aic")
        with pytest.raises(ValueError):
            ScoreConfig(ess=0.0)
        with pytest.raises(ValueError):
            ScoreConfig(tabu_length=-1)
        with pytest.raises(ValueError):
            ScoreConfig(patience=0)

    @pytest.mark.parametrize("field", ["tabu_length", "patience"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_counts_must_be_integers(self, field, value):
        # tabu_length=2.5 used to pass and fail later inside deque(maxlen=...)
        with pytest.raises(ValueError, match=field):
            ScoreConfig(**{field: value})

    @pytest.mark.parametrize("field", ["tabu_length", "patience"])
    def test_numpy_integers_are_counts(self, field):
        # e.g. a value drawn with rng.integers
        assert getattr(ScoreConfig(**{field: np.int64(3)}), field) == 3


class TestBdeu:
    def test_single_observation_is_log_half(self):
        # one binary observation, ess 1: the marginal likelihood is exactly
        # the prior predictive 1/2
        ds = dataset([[0]], (2,))
        assert bdeu_local(ds, 0, (), ess=1.0) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_matches_sequential_predictive_oracle_parentless(self):
        ds = dataset([[0], [1], [1], [0], [1]], (2,))
        for ess in (0.5, 1.0, 10.0):
            assert bdeu_local(ds, 0, (), ess) == pytest.approx(
                bdeu_family_oracle(ds, 0, (), ess), abs=1e-12
            )

    def test_matches_oracle_with_parents(self):
        ds = dataset(
            [[0, 0, 1], [1, 2, 0], [0, 1, 1], [1, 0, 0], [0, 2, 1], [1, 1, 1]],
            (2, 3, 2),
        )
        for node, parents in [(0, (1,)), (2, (0, 1)), (1, (0, 2)), (1, ())]:
            for ess in (1.0, 4.0, 10.0):
                assert bdeu_local(ds, node, parents, ess) == pytest.approx(
                    bdeu_family_oracle(ds, node, parents, ess), abs=1e-12
                )

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            ds = random_dataset(rng, 4, 30, max_arity=3)
            node = int(rng.integers(0, 4))
            parents = tuple(v for v in range(4) if v != node and rng.random() < 0.5)
            assert bdeu_local(ds, node, parents, 10.0) == pytest.approx(
                bdeu_family_oracle(ds, node, parents, 10.0), abs=1e-10
            )

    def test_unobserved_configurations_contribute_nothing(self):
        # parent stuck at level 0 out of 3: same score as a bigger-arity
        # parent with identical observed strata
        ds3 = dataset([[0, 0], [0, 1], [0, 0]], (3, 2))
        ds9 = dataset([[0, 0], [0, 1], [0, 0]], (9, 2))
        # q differs (3 vs 9), so the hyperparameters differ; recompute via
        # the oracle for both to pin the exact values
        for ds in (ds3, ds9):
            assert bdeu_local(ds, 1, (0,), 6.0) == pytest.approx(
                bdeu_family_oracle(ds, 1, (0,), 6.0), abs=1e-12
            )

    def test_own_parent_rejected(self):
        ds = dataset([[0, 1], [1, 0]], (2, 2))
        with pytest.raises(ValueError):
            bdeu_local(ds, 0, (0,))

    @pytest.mark.parametrize("score", ["bdeu", "bic"])
    def test_parent_listed_twice_rejected(self, score):
        # the count table coded parent 0 twice and squared q: BDeu read
        # -141.326 against -140.589 for (0,) on this sample
        ds = random_dataset(np.random.default_rng(79), 3, 200)
        scorer = Scorer(ds, ScoreConfig(score=score))
        with pytest.raises(ValueError, match="listed twice"):
            scorer.local(2, (0, 0))
        with pytest.raises(ValueError, match="listed twice"):
            scorer.local(2, (1, 0, 1))

    @pytest.mark.parametrize("ess", [1e-320, 1e308])
    def test_score_not_finite_is_a_data_error(self, ess):
        # a lnG term is infinite: the tiny a_jk overflows lnG, or the
        # arguments pass MAXLGM; the score was NaN, with a NumPy warning
        ds = dataset([[0, 1], [1, 0], [1, 1]], (2, 2))
        scorer = Scorer(ds, ScoreConfig(ess=ess))
        with pytest.raises(DataError, match="BDeu score of 'v1' given 1 parent"):
            scorer.local(1, (0,))
        # the lnG memo kept no infinite entry: the same scorer raises again
        with pytest.raises(DataError):
            scorer.local(1, (0,))

    def test_score_equivalence_two_nodes(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            ds = random_dataset(rng, 2, 40, max_arity=3)
            fwd = bdeu_local(ds, 0, ()) + bdeu_local(ds, 1, (0,))
            rev = bdeu_local(ds, 1, ()) + bdeu_local(ds, 0, (1,))
            assert fwd == pytest.approx(rev, abs=1e-9)

    def test_score_equivalence_three_node_classes(self):
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, 3, 50, max_arity=3)
        totals = {}
        for edges in all_dags(3):
            totals.setdefault(equivalence_key(3, edges), []).append(
                total_score(ds, Dag(3, edges), ScoreConfig())
            )
        for scores in totals.values():
            assert max(scores) - min(scores) < 1e-8


class TestBic:
    def test_hand_example(self):
        ds = dataset([[0]] * 5 + [[1]] * 5, (2,))
        expected = 10 * math.log(0.5) - 0.5 * math.log(10)
        assert bic_local(ds, 0, ()) == pytest.approx(expected, abs=1e-12)

    def test_penalty_counts_nominal_configurations(self):
        # parent never leaves level 0 of 3: likelihood sees one stratum but
        # the penalty still charges q = 3
        ds = dataset([[0, 0], [0, 1], [0, 0], [0, 1]], (3, 2))
        ll = 4 * math.log(0.5)
        expected = ll - 0.5 * math.log(4) * 3 * 1
        assert bic_local(ds, 1, (0,)) == pytest.approx(expected, abs=1e-12)

    def test_deterministic_parent_wins(self):
        x = np.arange(40) % 2
        ds = dataset(np.column_stack([x, x]), (2, 2))
        assert bic_local(ds, 1, (0,)) > bic_local(ds, 1, ())

    def test_independent_parent_loses(self):
        rng = np.random.default_rng(31)
        ds = dataset(
            np.column_stack([rng.integers(0, 2, 200), rng.integers(0, 2, 200)]),
            (2, 2),
        )
        assert bic_local(ds, 1, (0,)) < bic_local(ds, 1, ())

    def test_score_equivalence_two_nodes(self):
        rng = np.random.default_rng(37)
        ds = random_dataset(rng, 2, 60, max_arity=3)
        fwd = bic_local(ds, 0, ()) + bic_local(ds, 1, (0,))
        rev = bic_local(ds, 1, ()) + bic_local(ds, 0, (1,))
        assert fwd == pytest.approx(rev, abs=1e-9)


class TestScorer:
    def test_cache_is_transparent(self):
        rng = np.random.default_rng(41)
        ds = random_dataset(rng, 4, 50)
        sc = Scorer(ds)
        a = sc.local(2, (0, 3))
        b = sc.local(2, (3, 0))
        assert a == b == bdeu_local(ds, 2, (0, 3), 10.0)

    def test_total_matches_sum_of_locals(self):
        rng = np.random.default_rng(43)
        ds = random_dataset(rng, 4, 50)
        g = random_dag(4, 2, rng)
        assert total_score(ds, g) == pytest.approx(
            sum(bdeu_local(ds, v, g.parents(v), 10.0) for v in range(4)), abs=1e-12
        )

    def test_empty_graph_total(self):
        rng = np.random.default_rng(47)
        ds = random_dataset(rng, 5, 40)
        assert total_score(ds, Dag(5)) == pytest.approx(
            sum(bdeu_local(ds, v, (), 10.0) for v in range(5)), abs=1e-12
        )

    def test_bic_config_switches_score(self):
        rng = np.random.default_rng(53)
        ds = random_dataset(rng, 3, 40)
        cfg = ScoreConfig(score="bic")
        assert total_score(ds, Dag(3), cfg) == pytest.approx(
            sum(bic_local(ds, v, ()) for v in range(3)), abs=1e-12
        )


class TestHillClimb:
    def test_empty_skeleton_stays_empty(self):
        rng = np.random.default_rng(59)
        ds = random_dataset(rng, 4, 60)
        res = hill_climb(ds, Skeleton(d=4, edges=frozenset()))
        assert res.dag.edges() == []
        assert res.moves == 0
        assert res.score == res.empty_score

    def test_copy_pair_links_up(self):
        x = np.arange(60) % 2
        ds = dataset(np.column_stack([x, x]), (2, 2))
        res = hill_climb(ds, full_skeleton(2))
        assert len(res.dag.edges()) == 1
        assert res.score > res.empty_score

    def test_result_invariants(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            g = random_dag(6, 2, rng)
            net = monotone_network(g)
            ds = forward_sample(net, 400, seed=int(rng.integers(1 << 16)))
            skel = true_skeleton(g)
            res = hill_climb(ds, skel)
            assert isinstance(res, SearchResult)
            # learned edges stay inside the skeleton
            for u, v in res.dag.edges():
                assert (min(u, v), max(u, v)) in skel.edges
            # reported score is the recomputed total of the returned DAG
            assert res.score == pytest.approx(
                total_score(ds, res.dag), abs=1e-9
            )
            assert res.score >= res.empty_score - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(67)
        g = random_dag(6, 2, rng)
        ds = forward_sample(monotone_network(g), 300, seed=9)
        a = hill_climb(ds, true_skeleton(g))
        b = hill_climb(ds, true_skeleton(g))
        assert a.dag.edges() == b.dag.edges()
        assert a.score == b.score
        assert a.moves == b.moves

    def test_tabu_disabled_still_terminates(self):
        rng = np.random.default_rng(71)
        ds = random_dataset(rng, 4, 80)
        res = hill_climb(ds, full_skeleton(4), ScoreConfig(tabu_length=0))
        assert res.score >= res.empty_score - 1e-9

    def test_scorer_sets_the_score_and_its_config_must_agree(self):
        net = recovery_network()
        ds = forward_sample(net, 500, seed=0)
        skel = true_skeleton(net.graph)
        bic = ScoreConfig(score="bic", tabu_length=5, patience=3)
        want = hill_climb(ds, skel, bic)
        assert want.score == total_score(ds, want.dag, bic)
        # with cfg omitted the search takes the scorer's
        assert hill_climb(ds, skel, scorer=Scorer(ds, bic)) == want
        assert hill_climb(ds, skel, ScoreConfig(score="bic", tabu_length=5, patience=3),
                          scorer=Scorer(ds, bic)) == want
        # a BDeu scorer used to be read as the BIC total of a BIC search
        with pytest.raises(ValueError, match="another ScoreConfig"):
            hill_climb(ds, skel, bic, scorer=Scorer(ds))
        with pytest.raises(ValueError, match="another ScoreConfig"):
            hill_climb(ds, skel, ScoreConfig(), scorer=Scorer(ds, bic))
        other = forward_sample(net, 500, seed=1)
        with pytest.raises(ValueError, match="another dataset"):
            hill_climb(ds, skel, bic, scorer=Scorer(other, bic))

    def test_mismatched_skeleton_rejected(self):
        rng = np.random.default_rng(73)
        ds = random_dataset(rng, 4, 30)
        with pytest.raises(ValueError):
            hill_climb(ds, Skeleton(d=3, edges=frozenset()))

    def test_collider_orientation_recovered(self):
        g = Dag(3, [(0, 2), (1, 2)])
        ds = forward_sample(monotone_network(g), 4000, seed=2)
        res = hill_climb(ds, true_skeleton(g))
        assert dag_to_cpdag(res.dag) == dag_to_cpdag(g)

    def test_chain_class_recovered(self):
        g = Dag(3, [(0, 1), (1, 2)])
        ds = forward_sample(monotone_network(g), 4000, seed=3)
        res = hill_climb(ds, true_skeleton(g))
        assert dag_to_cpdag(res.dag) == dag_to_cpdag(g)

    def test_true_class_recovered_across_seeds(self):
        hits = 0
        rng = np.random.default_rng(79)
        g = random_dag(7, 2, rng)
        net = monotone_network(g)
        for seed in range(10):
            ds = forward_sample(net, 20000, seed=seed)
            res = hill_climb(ds, true_skeleton(g))
            if dag_to_cpdag(res.dag) == dag_to_cpdag(g):
                hits += 1
        assert hits >= 8

    def test_stop_reason(self):
        rng = np.random.default_rng(83)
        ds = random_dataset(rng, 4, 60)
        # nothing to add on an empty skeleton
        assert hill_climb(ds, Skeleton(d=4, edges=frozenset())).stop == "no_move"
        # a full tabu list with patience 1 ends on the first non-improving move
        res = hill_climb(ds, full_skeleton(4), ScoreConfig(patience=1))
        assert res.stop == "patience"

    def test_bic_search_runs(self):
        g = Dag(3, [(0, 1), (1, 2)])
        ds = forward_sample(monotone_network(g), 2000, seed=5)
        res = hill_climb(ds, true_skeleton(g), ScoreConfig(score="bic"))
        assert set(res.dag.edges()) <= {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert res.score >= res.empty_score
