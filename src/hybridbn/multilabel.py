"""Multi-label classification through minimal label-powerset decomposition.

Labels that are adjacent in the graph or act as co-parents of a feature must
be predicted jointly; connected components of that auxiliary relation are
the minimal blocks. Each block gets an independent multi-class classifier
over its (optionally Markov-boundary-restricted) feature set, and the joint
most probable explanation factorizes over blocks.
"""

import math
import os
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .data import (
    CategoricalDataset,
    DataError,
    all_or_none,
    count_table,
    kfold,
    observed_config_codes,
    parse_numeric_column,
    write_csv,
)
from .independence import DataIndependenceSource, TestConfig
from .parallel import fork_map
from .scoring import ScoreConfig
from .skeleton import h2pc, hpc


def minimal_label_powersets(g, labels):
    """Connected components of the auxiliary graph on labels.

    Two labels are linked when they are adjacent in g or when some feature
    node is a common child of both (a collider between them); one pass over
    the label pairs merges the blocks of each linked pair. Blocks are sorted
    tuples, sorted by smallest member.
    """
    label_set = set(labels)
    block_of = {y: {y} for y in label_set}
    for p, q in combinations(sorted(label_set), 2):
        shared = set(g.children(p)).intersection(g.children(q))
        if g.adjacent(p, q) or shared - label_set:
            merged = block_of[p] | block_of[q]
            for y in merged:
                block_of[y] = merged
    return sorted({tuple(sorted(b)) for b in block_of.values()})


def powerset_markov_boundary(g, block, labels):
    """Parents, children and co-parents of the block's members (a member is
    not its own co-parent), minus every label node."""
    out = set()
    for y in block:
        spouses = {p for c in g.children(y) for p in g.parents(c)} - {y}
        out |= spouses.union(g.parents(y), g.children(y))
    return frozenset(out - set(labels))


@dataclass(frozen=True, eq=False)
class PowersetClassifier:
    """Laplace-smoothed naive Bayes over a block's feature set.

    Classes are the distinct label combinations observed in training,
    ordered lexicographically; ties in prediction resolve to the smallest
    combination.
    """

    block: tuple
    features: tuple
    classes: tuple
    log_prior: np.ndarray
    log_like: list

    def _log_scores(self, rows):
        """Unnormalized log posterior of each class for each row."""
        rows = np.asarray(rows)
        scores = np.repeat(self.log_prior[None, :], len(rows), axis=0)
        for t, f in enumerate(self.features):
            scores += self.log_like[t][:, rows[:, f]].T
        return scores

    def predict(self, rows):
        """Most probable class combination per row, shape (n, len(block))."""
        idx = np.argmax(self._log_scores(rows), axis=1)
        return np.asarray(self.classes, dtype=np.int32)[idx]


def fit_powerset_classifier(train, block, features, smoothing=1.0):
    """Estimate p(class | features) for one block from training rows.

    The classes and their counts come from the training set's distinct-row
    store: ``observed_config_codes`` ranks each distinct row's block
    configuration in mixed-radix order (last label fastest), which is the
    lexicographic order of ``np.unique(..., axis=0)`` and the column order of
    ``count_table(train, (f,), block)``, and a weighted ``bincount`` of the
    ranks gives each class's count. A training set with no rows is a
    ValueError; a smoothed class total past the double range, which would
    make every log-likelihood -inf, is a DataError.
    """
    block = tuple(sorted(block))
    features = tuple(sorted(features))
    if not block:
        raise ValueError("empty block")
    if train.n == 0:
        raise ValueError("no training rows")
    if set(block) & set(features):
        raise ValueError("features must be disjoint from the block's labels")
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise ValueError("smoothing must be finite and non-negative")
    columns, weights = train.distinct_rows
    configs = columns[list(block)]
    ranks, k = observed_config_codes(configs.T, [train.arities[y] for y in block])
    n_c = np.bincount(ranks, weights, minlength=k)
    first = np.empty(k, dtype=np.intp)
    first[ranks] = np.arange(ranks.size)
    log_prior = np.log(n_c / train.n)
    log_like = []
    with np.errstate(divide="ignore", over="ignore"):
        for f in features:
            # columns of the table are the observed block configurations in
            # lexicographic order, which is the order of classes
            counts = np.ascontiguousarray(count_table(train, (f,), block).T,
                                          dtype=float) + smoothing
            totals = counts.sum(axis=1, keepdims=True)
            if not np.all(np.isfinite(totals)):
                raise DataError(
                    f"the likelihoods of {train.names[f]!r} are not finite "
                    f"with smoothing = {smoothing!r}"
                )
            log_like.append(np.log(counts / totals))
    return PowersetClassifier(
        block=block,
        features=features,
        classes=tuple(map(tuple, configs[:, first].T.tolist())),
        log_prior=log_prior,
        log_like=log_like,
    )


def _predict_matrix(classifiers, rows, label_order):
    col_of = {lbl: j for j, lbl in enumerate(label_order)}
    pred = np.zeros((len(rows), len(label_order)), dtype=np.int32)
    for clf in classifiers:
        vals = clf.predict(rows)
        for t, lbl in enumerate(clf.block):
            pred[:, col_of[lbl]] = vals[:, t]
    return pred


def global_accuracy(pred, truth):
    """Fraction of rows whose predicted labels all match (subset accuracy)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth shapes differ")
    if pred.shape[0] == 0:
        raise ValueError("no rows to score")
    return float(np.all(pred == truth, axis=1).mean())


def learn_local_dag(data, labels, test_cfg=None, score_cfg=None, jobs=1):
    """Learn a DAG around the label set only.

    Discovery runs outward once: hpc around each label over the full
    universe, then hpc around the discovered neighbors (one expansion
    ring). h2pc learns the DAG on that ring with the same source, whose
    cached tests it reuses; nodes outside the ring stay isolated.
    jobs is accepted and has no effect.
    """
    labels = sorted(set(labels))
    src = DataIndependenceSource(data, test_cfg)
    ring = set(labels)
    for t in labels:
        ring |= hpc(t, src)
    for t in sorted(ring - set(labels)):
        ring |= hpc(t, src)
    return h2pc(src, score_cfg, universe=ring).search.dag


def _boundary_features(dag, block, labels):
    return tuple(sorted(powerset_markov_boundary(dag, block, labels)))


# scenario -> (block rule, feature rule), each a function of the fold's
# local DAG. None stands for one block per label and for every non-label
# feature; a scenario learns a local DAG per fold iff it has a rule.
_SCENARIO_RULES = {
    "br": (None, None),
    "br+mb": (None, _boundary_features),
    "mlp": (minimal_label_powersets, None),
    "mlp+mb": (minimal_label_powersets, _boundary_features),
}
SCENARIOS = tuple(_SCENARIO_RULES)


def learns_graph(scenario):
    """True iff the scenario learns a local DAG on each fold."""
    return _SCENARIO_RULES[scenario] != (None, None)


@dataclass(frozen=True)
class MlcConfig:
    folds: int = 10
    seed: int = 0
    test: TestConfig = field(default_factory=TestConfig)
    score: ScoreConfig = field(default_factory=ScoreConfig)
    smoothing: float = 1.0
    binarize: bool = False
    jobs: int = 1  # worker processes over the folds
    export_dir: str | None = None
    timing: bool = False

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def _numeric_columns(data, labels):
    # {column: its values as floats} for every column the binarizer splits:
    # each non-label column with arity > 2. The parse does not depend on the
    # fold, so it is done once per dataset.
    label_set = set(labels)
    return {col: parse_numeric_column(data, col) for col in range(data.d)
            if col not in label_set and data.arities[col] > 2}


def _binarize_for_fold(data, train_idx, numeric):
    # Median split of every column of numeric (_numeric_columns), medians
    # taken from the training rows only; other columns are left alone, and
    # with no such column the data itself is returned.
    if not numeric:
        return data
    rows = np.array(data.rows)
    levels = list(data.levels)
    for col, values in numeric.items():
        med = float(np.median(values[train_idx]))
        rows[:, col] = (values > med).astype(np.int32)
        levels[col] = ("le_median", "gt_median")
    return CategoricalDataset(data.names, tuple(levels), rows)


def _export_blocks(directory, data, numeric, folds, blocks_by_fold):
    # Each fold's training and test rows of each of its (block, features),
    # written once every fold has run, so that a refused file takes the
    # files written before it, and the directory if this made it, along.
    with all_or_none(directory) as written:
        for fold, blocks in enumerate(blocks_by_fold):
            train_idx = folds.train_indices(fold)
            fold_data = _binarize_for_fold(data, train_idx, numeric)
            parts = (("train", train_idx), ("test", folds.test_indices(fold)))
            for bix, (block, features) in enumerate(blocks):
                cols = list(features) + list(block)
                names = [fold_data.names[c] for c in cols]
                levels = [fold_data.levels[c] for c in cols]
                for tag, rows_idx in parts:
                    path = os.path.join(directory, f"fold{fold:02d}_block{bix:02d}_{tag}.csv")
                    write_csv(CategoricalDataset(names, levels,
                                                 fold_data.rows[rows_idx][:, cols]), path)
                    written.append(path)


def run_scenario(data, labels, scenario, cfg=None):
    """Cross-validated multi-label experiment for one scenario.

    br: one block per label, all features. br+mb: one block per label,
    features restricted to the label's Markov boundary in the learned local
    DAG. mlp: minimal label powersets, all features. mlp+mb: minimal label
    powersets with per-block boundaries.
    """
    return run_scenarios(data, labels, [scenario], cfg)[scenario]


def run_scenarios(data, labels, scenarios, cfg=None):
    """Cross-validated experiment for several scenarios on the same folds.

    Each fold learns its local DAG once, and only if some scenario has a
    graph rule, then applies every scenario's rules to it. Returns
    {scenario: report}; each report equals run_scenario's for that
    scenario. Block exports (cfg.export_dir) name no scenario, so they
    need a single one; this process writes them once every fold has run, and
    a refused one removes those written before it. Folds run in up to
    cfg.jobs forked worker processes (``fork_map``); the reports do not
    depend on cfg.jobs.
    """
    cfg = cfg or MlcConfig()
    keys = list(dict.fromkeys(scenarios))
    for key in keys:
        if key not in SCENARIOS:
            raise ValueError(f"unknown scenario {key!r}; pick one of {SCENARIOS}")
    if not keys:
        raise ValueError("at least one scenario is required")
    if cfg.export_dir and len(keys) > 1:
        raise ValueError("block exports need a single scenario")
    labels = sorted(set(labels))
    if not labels:
        raise ValueError("at least one label column is required")
    for y in labels:
        if not 0 <= y < data.d:
            raise ValueError(f"label index {y} out of range")
    all_features = tuple(v for v in range(data.d) if v not in set(labels))
    folds = kfold(data.n, cfg.folds, cfg.seed)
    needs_graph = any(map(learns_graph, keys))
    numeric = _numeric_columns(data, labels) if cfg.binarize else {}

    def run_fold(f):
        started = time.perf_counter()
        train_idx = folds.train_indices(f)
        test_idx = folds.test_indices(f)
        fold_data = _binarize_for_fold(data, train_idx, numeric)
        train = fold_data.subset_rows(train_idx)
        dag = (
            learn_local_dag(train, labels, cfg.test, cfg.score)
            if needs_graph else None
        )
        test_rows = fold_data.rows[test_idx]
        shared = time.perf_counter() - started
        reports, exports = {}, None
        for key in keys:
            begun = time.perf_counter()
            block_rule, feature_rule = _SCENARIO_RULES[key]
            blocks = (
                block_rule(dag, labels) if block_rule else [(y,) for y in labels]
            )
            feats = [
                feature_rule(dag, b, labels) if feature_rule else all_features
                for b in blocks
            ]
            classifiers = [
                fit_powerset_classifier(train, b, fs, cfg.smoothing)
                for b, fs in zip(blocks, feats)
            ]
            pred = _predict_matrix(classifiers, test_rows, labels)
            acc = global_accuracy(pred, test_rows[:, labels])
            if cfg.export_dir:
                exports = list(zip(blocks, feats))
            sizes = [len(b) for b in blocks]
            report = {
                "fold": f,
                "accuracy": acc,
                "n_blocks": len(blocks),
                "blocks": [[data.names[y] for y in b] for b in blocks],
                "boundary_sizes": [len(fs) for fs in feats],
                "labels_per_block": {
                    "min": min(sizes),
                    "median": float(np.median(sizes)),
                    "max": max(sizes),
                },
            }
            if cfg.timing:
                # the fold's shared work plus this scenario's own
                report["seconds"] = shared + time.perf_counter() - begun
            reports[key] = report
        return reports, exports

    by_fold = fork_map(run_fold, cfg.folds, cfg.jobs)
    if cfg.export_dir:
        _export_blocks(cfg.export_dir, data, numeric, folds,
                       [exports for _, exports in by_fold])
    return {key: _summary(key, data, labels, [r[key] for r, _ in by_fold])
            for key in keys}


def _summary(key, data, labels, fold_reports):
    accs = np.array([r["accuracy"] for r in fold_reports])
    nblocks = np.array([r["n_blocks"] for r in fold_reports])
    return {
        "scenario": key,
        "labels": [data.names[y] for y in labels],
        "folds": fold_reports,
        "accuracy_mean": float(accs.mean()),
        "accuracy_sd": float(accs.std()),
        "n_blocks": {
            "min": int(nblocks.min()),
            "median": float(np.median(nblocks)),
            "max": int(nblocks.max()),
        },
    }
