import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn import multilabel as multilabel_mod
from hybridbn.data import (
    CategoricalDataset,
    DataError,
    kfold,
    one_pass_cells,
    parse_numeric_column,
)
from hybridbn.graphs import Dag
from hybridbn.independence import DataIndependenceSource
from hybridbn.multilabel import (
    SCENARIOS,
    MlcConfig,
    _binarize_for_fold,
    _numeric_columns,
    fit_powerset_classifier,
    global_accuracy,
    learn_local_dag,
    minimal_label_powersets,
    powerset_markov_boundary,
    run_scenario,
    run_scenarios,
)
from hybridbn.network import forward_sample
from hybridbn.synthetic import random_dag, two_cluster_network

from helpers import (
    RecordingSource,
    blanket_and_minimal,
    brute_min_partition,
    d_separated,
    drawn_dags,
    from_array,
    genbase_shape_network,
    markov_sets,
    predict_mpe,
    reference_label_powersets,
    reference_powerset_tables,
)


def dataset(rows, arities):
    return from_array(
        np.asarray(rows, dtype=np.int32), arities=arities
    )


class TestDecomposition:
    def test_collider_merges_two_labels(self):
        # y0 -> f3 <- y1, y2 isolated: the common feature child joins y0, y1
        g = Dag(4, [(0, 3), (1, 3)])
        assert minimal_label_powersets(g, [0, 1, 2]) == [(0, 1), (2,)]

    def test_unrelated_labels_stay_singletons(self):
        g = Dag(5, [(0, 3), (1, 4)])
        assert minimal_label_powersets(g, [0, 1, 2]) == [(0,), (1,), (2,)]

    def test_adjacent_labels_merge(self):
        g = Dag(3, [(0, 1)])
        assert minimal_label_powersets(g, [0, 1]) == [(0, 1)]

    def test_common_label_child_does_not_link_by_itself(self):
        # y0 -> y2 <- y1 with y2 a label: the chain of adjacencies still
        # merges all three, which the d-separation oracle confirms
        g = Dag(3, [(0, 2), (1, 2)])
        assert minimal_label_powersets(g, [0, 1, 2]) == [(0, 1, 2)]
        assert brute_min_partition(g, [0, 1, 2]) == [(0, 1, 2)]

    def test_matches_brute_force_partition(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            d = int(rng.integers(4, 9))
            g = random_dag(d, 3, rng)
            n_labels = int(rng.integers(2, min(5, d)))
            labels = sorted(rng.choice(d, size=n_labels, replace=False).tolist())
            got = minimal_label_powersets(g, labels)
            want = brute_min_partition(g, labels)
            assert got == want, (trial, g.edges(), labels)

    def test_blocks_partition_the_label_set(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_dag(8, 3, rng)
            labels = [1, 3, 5, 7]
            blocks = minimal_label_powersets(g, labels)
            flat = sorted(y for b in blocks for y in b)
            assert flat == labels


@st.composite
def dags_and_labels(draw):
    # 0 to 15 nodes with up to 4 parents; labels in drawn order, from none
    # to every node
    g = draw(drawn_dags(max_nodes=15, max_parents=4, min_nodes=0))
    order = draw(st.permutations(range(g.d)))
    return g, order[:draw(st.integers(0, g.d))]


class TestAgainstOracles:
    @given(dags_and_labels())
    @settings(max_examples=300, deadline=None)
    def test_blocks_and_boundaries_match_the_oracles(self, case):
        # the depth-first search over linked label pairs for the blocks, the
        # per-node pc and sp sets for the boundaries, also of single-node
        # blocks outside the labels
        g, labels = case
        blocks = minimal_label_powersets(g, labels)
        assert blocks == reference_label_powersets(g, labels)
        pc, sp = markov_sets(g)
        for block in blocks + [(v,) for v in range(g.d) if v not in labels]:
            want = frozenset().union(*(pc[y] | sp[y] for y in block))
            assert powerset_markov_boundary(g, block, labels) == want - set(labels)


def blanket(g, x):
    # the Markov blanket of node x: its boundary as a single-node block
    # when no node is a label
    return powerset_markov_boundary(g, (x,), [])


class TestBoundary:
    def test_collider_with_child(self):
        # A(0) -> C(2) <- B(1), C -> D(3)
        g = Dag(4, [(0, 2), (1, 2), (2, 3)])
        assert blanket(g, 2) == frozenset({0, 1, 3})
        assert blanket(g, 0) == frozenset({1, 2})
        assert blanket(g, 3) == frozenset({2})

    def test_edgeless(self):
        g = Dag(3)
        assert all(not blanket(g, x) for x in range(3))

    def test_blanket_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = random_dag(7, 3, rng)
            for x in range(7):
                for y in blanket(g, x):
                    assert x in blanket(g, y)

    def test_mb_is_minimal_separating_set(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            d = 7
            g = random_dag(d, 3, rng)
            for x in range(d):
                mb = blanket(g, x)
                outside = [y for y in range(d) if y != x and y not in mb]
                for y in outside:
                    assert d_separated(g, x, y, mb)
                for m in mb:
                    reduced = mb - {m}
                    candidates = outside + [m]
                    assert any(
                        not d_separated(g, x, y, reduced) for y in candidates
                    )

    def test_parents_and_children(self):
        # features 0, 1 drive the block {3, 4}; 3 -> 4 keeps them together
        g = Dag(5, [(0, 3), (1, 3), (1, 4), (3, 4)])
        b = powerset_markov_boundary(g, (3, 4), [3, 4])
        assert b == frozenset({0, 1})

    def test_spouse_included(self):
        # label 3 -> feature 1 <- feature 2: the co-parent joins the boundary
        g = Dag(4, [(3, 1), (2, 1)])
        assert powerset_markov_boundary(g, (3,), [3]) == frozenset({1, 2})

    def test_label_members_excluded(self):
        g = Dag(4, [(0, 2), (2, 3), (1, 3)])
        b = powerset_markov_boundary(g, (2, 3), [2, 3])
        assert b == frozenset({0, 1})

    def test_blanket_and_minimality_in_the_true_graph(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(25):
            d = int(rng.integers(5, 9))
            g = random_dag(d, 3, rng)
            labels = sorted(rng.choice(d, size=3, replace=False).tolist())
            for block in minimal_label_powersets(g, labels):
                boundary = powerset_markov_boundary(g, block, labels)
                assert blanket_and_minimal(g, list(block), labels, boundary), (
                    g.edges(),
                    labels,
                    block,
                    sorted(boundary),
                )
                checked += 1
        assert checked >= 25


class TestPowersetClassifier:
    def test_perfect_feature(self):
        x = np.arange(80) % 2
        ds = dataset(np.column_stack([x, x]), (2, 2))
        clf = fit_powerset_classifier(ds, block=(1,), features=(0,))
        pred = clf.predict(ds.rows)
        assert (pred[:, 0] == ds.rows[:, 1]).all()

    def test_majority_fallback_without_features(self):
        y = np.array([0] * 30 + [1] * 10, dtype=np.int32)
        pad = np.zeros(40, dtype=np.int32)
        pad[:20] = 1
        ds = dataset(np.column_stack([pad, y]), (2, 2))
        clf = fit_powerset_classifier(ds, block=(1,), features=())
        pred = clf.predict(ds.rows)
        assert (pred[:, 0] == 0).all()

    def test_single_observed_class(self):
        rows = np.column_stack(
            [np.arange(20) % 2, np.ones(20, dtype=np.int32)]
        )
        ds = dataset(rows, (2, 2))
        clf = fit_powerset_classifier(ds, block=(1,), features=(0,))
        assert clf.classes == ((1,),)
        assert (clf.predict(ds.rows)[:, 0] == 1).all()

    def test_joint_combos_are_classes(self):
        rows = np.array(
            [[0, 0, 0], [0, 0, 0], [1, 1, 1], [1, 1, 1], [0, 1, 0], [0, 1, 0]],
            dtype=np.int32,
        )
        ds = dataset(rows, (2, 2, 2))
        clf = fit_powerset_classifier(ds, block=(1, 2), features=(0,))
        assert clf.classes == ((0, 0), (1, 0), (1, 1))

    def test_unseen_feature_level_is_smoothed(self):
        rows = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=np.int32)
        ds = dataset(rows, (3, 2))
        clf = fit_powerset_classifier(ds, block=(1,), features=(0,))
        # level 2 of the feature never appears in training
        pred = clf.predict(np.array([[2, 0]], dtype=np.int32))
        assert pred.shape == (1, 1)
        assert int(pred[0, 0]) in (0, 1)

    def test_validation(self):
        ds = dataset([[0, 1], [1, 0]], (2, 2))
        with pytest.raises(ValueError):
            fit_powerset_classifier(ds, block=(), features=(0,))
        with pytest.raises(ValueError):
            fit_powerset_classifier(ds, block=(1,), features=(1,))
        for smoothing in (-1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="smoothing"):
                fit_powerset_classifier(ds, block=(1,), features=(0,),
                                        smoothing=smoothing)

    def test_smoothing_past_the_double_range(self):
        # each smoothed class total overflowed to inf, so every
        # log-likelihood was -inf and every row predicted the first class
        ds = dataset([[0, 1], [1, 0]], (2, 2))
        fit_powerset_classifier(ds, block=(1,), features=(0,), smoothing=1e307)
        with pytest.raises(DataError, match=r"^the likelihoods of '\w+' are "
                           r"not finite with smoothing = 1e\+308$"):
            fit_powerset_classifier(ds, block=(1,), features=(0,),
                                    smoothing=1e308)

    def test_no_training_rows_rejected(self):
        # a classifier with no classes could not predict
        empty = dataset(np.zeros((0, 2)), (2, 2))
        with pytest.raises(ValueError, match="no training rows"):
            fit_powerset_classifier(empty, block=(1,), features=(0,))

    def test_mpe_concatenates_disjoint_blocks(self):
        x = np.arange(40) % 2
        rows = np.column_stack([x, x, 1 - x])
        ds = dataset(rows, (2, 2, 2))
        a = fit_powerset_classifier(ds, block=(1,), features=(0,))
        b = fit_powerset_classifier(ds, block=(2,), features=(0,))
        out = predict_mpe([a, b], np.array([1, 0, 0], dtype=np.int32))
        assert out == {1: 1, 2: 0}

    def test_mpe_rejects_overlap(self):
        x = np.arange(20) % 2
        ds = dataset(np.column_stack([x, x]), (2, 2))
        a = fit_powerset_classifier(ds, block=(1,), features=(0,))
        with pytest.raises(ValueError):
            predict_mpe([a, a], np.array([0, 0], dtype=np.int32))

    def test_block_predictions_are_local(self):
        # retraining an unrelated block leaves this block's output alone
        rng = np.random.default_rng(19)
        rows = np.column_stack(
            [rng.integers(0, 2, 60) for _ in range(4)]
        ).astype(np.int32)
        ds = dataset(rows, (2, 2, 2, 2))
        clf = fit_powerset_classifier(ds, block=(2,), features=(0,))
        before = clf.predict(ds.rows).copy()
        fit_powerset_classifier(ds, block=(3,), features=(1,))
        np.testing.assert_array_equal(clf.predict(ds.rows), before)


@st.composite
def powerset_cases(draw):
    # blocks of one to seven labels, zero to four features, arities up to 7;
    # a wide column, with more levels than 16 times one_pass_cells(n), gives
    # a block a nominal space far wider than the data.
    d = draw(st.integers(2, 10))
    arities = draw(st.lists(st.integers(1, 7), min_size=d, max_size=d))
    n = draw(st.integers(1, 120))
    if draw(st.booleans()):
        arities[draw(st.integers(0, d - 1))] = 16 * one_pass_cells(n) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.column_stack(
        [rng.integers(0, a, size=n) for a in arities]
    ).astype(np.int32)
    order = draw(st.permutations(range(d)))
    size = draw(st.integers(1, min(7, d)))
    block = tuple(order[:size])
    features = tuple(draw(st.sets(st.sampled_from(order[size:]), max_size=4))
                     if size < d else ())
    smoothing = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5]))
    return dataset(rows, arities), block, features, smoothing


def assert_equal_to_reference(ds, block, features, smoothing=1.0):
    clf = fit_powerset_classifier(ds, block, features, smoothing)
    classes, log_prior, log_like = reference_powerset_tables(
        ds, clf.block, clf.features, smoothing
    )
    assert clf.classes == classes
    np.testing.assert_array_equal(clf.log_prior, log_prior)
    assert len(clf.log_like) == len(log_like)
    for got, want in zip(clf.log_like, log_like):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


class TestPowersetTables:
    @given(powerset_cases())
    @settings(max_examples=150, deadline=None)
    def test_equal_to_the_bincount_reference(self, case):
        assert_equal_to_reference(*case)

    @pytest.mark.parametrize("block", [(8,), (8, 9, 10), tuple(range(8, 14))])
    def test_mlc_cv_shaped_training_fold(self, block):
        # a training fold of the mlc-cv data: 4,500 rows of the two-cluster
        # network, every non-label column a feature
        ds = forward_sample(two_cluster_network(), 4500, seed=3)
        assert_equal_to_reference(ds, block, range(8))


class TestGlobalAccuracy:
    def test_exact_match_only(self):
        pred = np.array([[0, 1], [1, 1], [0, 0]])
        truth = np.array([[0, 1], [1, 0], [0, 0]])
        assert global_accuracy(pred, truth) == pytest.approx(2 / 3)

    def test_upper_bounded_by_per_label_accuracy(self):
        rng = np.random.default_rng(23)
        pred = rng.integers(0, 2, size=(50, 4))
        truth = rng.integers(0, 2, size=(50, 4))
        g = global_accuracy(pred, truth)
        per_label = (pred == truth).mean(axis=0)
        assert g <= per_label.min() + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            global_accuracy(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            global_accuracy(np.zeros((0, 2)), np.zeros((0, 2)))


class TestLearnLocalDag:
    def test_two_cluster_blocks_recovered(self):
        net = two_cluster_network()
        ds = forward_sample(net, 5000, seed=4)
        labels = list(range(8, 14))
        dag = learn_local_dag(ds, labels)
        blocks = minimal_label_powersets(dag, labels)
        assert blocks == [(8, 9, 10), (11, 12, 13)]

    def test_true_graph_blocks_match(self):
        net = two_cluster_network()
        labels = list(range(8, 14))
        assert minimal_label_powersets(net.graph, labels) == [
            (8, 9, 10),
            (11, 12, 13),
        ]
        assert powerset_markov_boundary(net.graph, (8, 9, 10), labels) == frozenset(
            {0, 1, 2, 3}
        )
        assert powerset_markov_boundary(net.graph, (11, 12, 13), labels) == frozenset(
            {4, 5, 6, 7}
        )


class TestRunScenario:
    def _genbase_data(self, n=600, seed=0):
        net = genbase_shape_network()
        ds = forward_sample(net, n, seed=seed)
        labels = list(range(12, 18))
        return ds, labels

    def test_unknown_scenario_rejected(self):
        ds, labels = self._genbase_data(100)
        with pytest.raises(ValueError, match="scenario"):
            run_scenario(ds, labels, "stacking")
        # names are taken as given, not stripped or lowered
        for name in ("BR", " br"):
            with pytest.raises(ValueError, match="unknown scenario"):
                run_scenario(ds, labels, name)

    def test_label_validation(self):
        ds, _ = self._genbase_data(100)
        with pytest.raises(ValueError):
            run_scenario(ds, [], "br")
        with pytest.raises(ValueError):
            run_scenario(ds, [99], "br")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            MlcConfig(jobs=jobs)

    def test_br_report_shape(self):
        ds, labels = self._genbase_data(300)
        cfg = MlcConfig(folds=3)
        out = run_scenario(ds, labels, "br", cfg)
        assert out["scenario"] == "br"
        assert out["labels"] == [ds.names[y] for y in labels]
        assert len(out["folds"]) == 3
        for rep in out["folds"]:
            assert rep["n_blocks"] == len(labels)
            assert rep["labels_per_block"]["max"] == 1
            assert 0.0 <= rep["accuracy"] <= 1.0
        assert 0.0 <= out["accuracy_mean"] <= 1.0
        assert out["n_blocks"] == {"min": 6, "median": 6.0, "max": 6}

    def test_timing_field(self):
        ds, labels = self._genbase_data(200)
        out = run_scenario(ds, labels, "br", MlcConfig(folds=2, timing=True))
        assert all("seconds" in rep for rep in out["folds"])

    def test_mlp_learns_blocks(self):
        ds, labels = self._genbase_data(800, seed=3)
        cfg = MlcConfig(folds=3)
        out = run_scenario(ds, labels, "mlp", cfg)
        # generating graph has six isolated label families
        for rep in out["folds"]:
            assert rep["n_blocks"] >= 4

    def test_mlp_mb_boundaries_are_small(self):
        ds, labels = self._genbase_data(800, seed=5)
        out = run_scenario(ds, labels, "mlp+mb", MlcConfig(folds=2))
        for rep in out["folds"]:
            assert all(s <= len(labels) * 2 for s in rep["boundary_sizes"])

    def test_deterministic(self):
        ds, labels = self._genbase_data(300)
        a = run_scenario(ds, labels, "br", MlcConfig(folds=3))
        b = run_scenario(ds, labels, "br", MlcConfig(folds=3))
        assert a == b

    def test_jobs_do_not_change_results(self, monkeypatch):
        # every scenario in one and in two worker processes; a ternary
        # feature gives --binarize a column to split inside each fold
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ds, labels = self._genbase_data(300)
        rows = np.array(ds.rows)
        rows[:, 0] = (rows[:, 0] + rows[:, 1] + rows[:, 2]) % 3
        ds = CategoricalDataset(ds.names, (("0", "1", "2"),) + ds.levels[1:],
                                rows)
        for binarize in (False, True):
            a, b = (
                run_scenarios(ds, labels, SCENARIOS,
                              MlcConfig(folds=3, binarize=binarize, jobs=jobs))
                for jobs in (1, 2)
            )
            assert json.dumps(a) == json.dumps(b)

    def test_fold_workers_time_their_folds(self, monkeypatch):
        # with --timing, every fold carries seconds, and the reports of one
        # and two worker processes agree apart from them
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ds, labels = self._genbase_data(300)
        one, two = (
            run_scenarios(ds, labels, ["br", "mlp+mb"],
                          MlcConfig(folds=3, jobs=jobs, timing=True))
            for jobs in (1, 2)
        )
        for report in (*one.values(), *two.values()):
            for fold in report["folds"]:
                assert fold.pop("seconds") > 0
        assert json.dumps(one) == json.dumps(two)

    def test_folds_and_queries_run_on_the_calling_thread(self, monkeypatch):
        # at jobs=1; at jobs=2 the folds run in forked worker processes
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ds, labels = self._genbase_data(300)
        sources = []
        fold_threads = set()
        learn = multilabel_mod.learn_local_dag

        def recording_source(data, cfg):
            sources.append(RecordingSource(DataIndependenceSource(data, cfg)))
            return sources[-1]

        def recording_learn(*args, **kwargs):
            fold_threads.add(threading.get_ident())
            return learn(*args, **kwargs)

        monkeypatch.setattr(multilabel_mod, "DataIndependenceSource",
                            recording_source)
        monkeypatch.setattr(multilabel_mod, "learn_local_dag", recording_learn)
        run_scenarios(ds, labels, ["mlp+mb"], MlcConfig(folds=3, jobs=1))
        learn(ds, labels, jobs=4)
        assert len(sources) == 4 and all(s.calls > 0 for s in sources)
        me = threading.get_ident()
        assert fold_threads == {me}
        assert set().union(*(s.threads for s in sources)) == {me}
        # the workers' sources and fold calls stay in the workers
        run_scenarios(ds, labels, ["mlp+mb"], MlcConfig(folds=3, jobs=2))
        assert len(sources) == 4 and fold_threads == {me}

    def test_export_writes_block_csvs(self, tmp_path):
        ds, labels = self._genbase_data(200)
        # tokens unlike the level indices, so the export must map them back
        ds = CategoricalDataset(
            ds.names, [[f"L{t}" for t in lv] for lv in ds.levels], ds.rows
        )
        cfg = MlcConfig(folds=2, export_dir=str(tmp_path / "blocks"))
        run_scenario(ds, labels, "br", cfg)
        files = sorted(os.listdir(tmp_path / "blocks"))
        # 2 folds x 6 blocks x train/test
        assert len(files) == 2 * 6 * 2
        assert "fold00_block00_train.csv" in files
        assert "fold01_block05_test.csv" in files
        # br: every feature, then the block's one label, on the fold's
        # training rows in row order
        cols = [v for v in range(ds.d) if v not in labels] + [labels[0]]
        lines = [",".join(ds.names[c] for c in cols)]
        for i in kfold(ds.n, 2, cfg.seed).train_indices(0):
            lines.append(",".join(ds.levels[c][ds.rows[i, c]] for c in cols))
        want = "".join(line + "\n" for line in lines).encode()
        assert (tmp_path / "blocks" / "fold00_block00_train.csv").read_bytes() == want

    def test_binarize_path(self):
        rng = np.random.default_rng(29)
        rows = np.column_stack(
            [
                rng.integers(0, 5, 200),
                rng.integers(0, 2, 200),
                rng.integers(0, 2, 200),
            ]
        ).astype(np.int32)
        ds = dataset(rows, (5, 2, 2))
        out = run_scenario(ds, [2], "br", MlcConfig(folds=2, binarize=True))
        assert len(out["folds"]) == 2


class TestRunScenarios:
    """run_scenarios learns each fold's local DAG once for all scenarios and
    must report exactly what one run_scenario call per scenario reports."""

    @pytest.fixture
    def learns(self, monkeypatch):
        calls = []

        def counting(train, *args, **kwargs):
            calls.append(train.n)
            return learn_local_dag(train, *args, **kwargs)

        monkeypatch.setattr(multilabel_mod, "learn_local_dag", counting)
        return calls

    @staticmethod
    def _data(binary=True):
        ds = forward_sample(two_cluster_network(), 400, seed=4)
        if binary:
            return ds, list(range(8, 14))
        # a ternary feature, so --binarize has something to split
        rows = np.array(ds.rows)
        rows[:, 0] = (rows[:, 0] + rows[:, 1] + rows[:, 2]) % 3
        levels = (("0", "1", "2"),) + ds.levels[1:]
        return CategoricalDataset(ds.names, levels, rows), list(range(8, 14))

    @pytest.mark.parametrize("binarize", [False, True])
    def test_reports_equal_run_scenario(self, binarize):
        ds, labels = self._data(binary=not binarize)
        cfg = MlcConfig(folds=3, seed=2, binarize=binarize, jobs=2)
        together = run_scenarios(ds, labels, SCENARIOS, cfg)
        assert list(together) == list(SCENARIOS)
        for scenario in SCENARIOS:
            alone = run_scenario(ds, labels, scenario, cfg)
            assert json.dumps(together[scenario]) == json.dumps(alone)

    def test_one_local_dag_per_fold(self, learns):
        ds, labels = self._data()
        run_scenarios(ds, labels, ["mlp", "br", "mlp+mb", "br+mb"],
                      MlcConfig(folds=3))
        assert len(learns) == 3

    def test_no_local_dag_without_a_graph_rule(self, learns):
        ds, labels = self._data()
        run_scenarios(ds, labels, ["br"], MlcConfig(folds=3))
        assert learns == []

    def test_bad_requests_rejected(self, tmp_path):
        ds, labels = self._data()
        with pytest.raises(ValueError, match="scenario"):
            run_scenarios(ds, labels, ["br", "stacking"])
        with pytest.raises(ValueError, match="scenario"):
            run_scenarios(ds, labels, [])
        cfg = MlcConfig(folds=2, export_dir=str(tmp_path / "blocks"))
        with pytest.raises(ValueError, match="single scenario"):
            run_scenarios(ds, labels, ["br", "mlp"], cfg)


class TestFoldBinarizer:
    """mlc --binarize: each median comes from the fold's training rows only,
    and ties go low (v <= median -> 0)."""

    def _data(self):
        # column 0: numeric tokens listed out of numeric order; column 1: a
        # ternary label; column 2: a binary feature
        levels = (("10", "1", "2", "3", "4"), ("x", "y", "z"), ("p", "q"))
        values = [1, 2, 3, 4, 10, 10, 10, 10]
        rows = np.array(
            [[levels[0].index(str(v)), i % 3, i % 2] for i, v in enumerate(values)],
            dtype=np.int32,
        )
        return CategoricalDataset(("f", "y", "g"), levels, rows)

    def test_median_from_training_rows_only(self):
        ds = self._data()
        # training median of 1, 2, 3, 4, 10 is 3; all eight rows give 7
        out = _binarize_for_fold(ds, np.arange(5), _numeric_columns(ds, [1]))
        assert out.levels[0] == ("le_median", "gt_median")
        assert out.rows[:, 0].tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
        # the label and the binary feature are left as they are
        np.testing.assert_array_equal(out.rows[:, 1:], ds.rows[:, 1:])
        assert out.levels[1:] == ds.levels[1:]

    def test_ties_go_low(self):
        ds = self._data()
        # training values 3, 4, 10: the median 4 is itself a training value
        out = _binarize_for_fold(ds, np.array([2, 3, 4]),
                                 _numeric_columns(ds, [1]))
        assert out.rows[:, 0].tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    @pytest.mark.parametrize("folds", [2, 5])
    def test_each_column_is_parsed_once(self, monkeypatch, folds):
        # the parse does not depend on the fold: one per binarized column
        # (here the features 0 and 2), at any number of folds
        rng = np.random.default_rng(31)
        rows = np.column_stack(
            [rng.integers(0, a, 40) for a in (5, 2, 4, 2)]
        ).astype(np.int32)
        ds = dataset(rows, (5, 2, 4, 2))
        parsed = []

        def counting(data, col):
            parsed.append(col)
            return parse_numeric_column(data, col)

        monkeypatch.setattr(multilabel_mod, "parse_numeric_column", counting)
        run_scenario(ds, [1], "br", MlcConfig(folds=folds, binarize=True))
        assert parsed == [0, 2]

    def test_first_non_numeric_column_is_reported(self):
        levels = (("1", "2", "3"), ("a", "b", "c"), ("x", "y", "z"), ("p", "q"))
        rows = np.array([[i % 3, i % 3, (i + 1) % 3, i % 2] for i in range(12)],
                        dtype=np.int32)
        ds = CategoricalDataset(("f", "g", "h", "y"), levels, rows)
        with pytest.raises(DataError, match=r"^column 'g' is not numeric and "
                                            r"cannot be binarized$"):
            run_scenario(ds, [3], "br", MlcConfig(folds=2, binarize=True))
