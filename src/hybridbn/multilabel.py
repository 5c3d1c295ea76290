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

import numpy as np

from .data import (
    CategoricalDataset,
    count_table,
    kfold,
    parse_numeric_column,
    write_csv,
)
from .graphs import markov_sets
from .independence import DataIndependenceSource, TestConfig
from .parallel import fork_map
from .scoring import ScoreConfig, hill_climb
from .skeleton import build_skeleton, hpc


def minimal_label_powersets(g, labels):
    """Connected components of the auxiliary graph on labels.

    Two labels are linked when they are adjacent in g or when some feature
    node is a common child of both (a collider between them). Blocks are
    sorted by smallest member.
    """
    labels = sorted(set(labels))
    label_set = set(labels)
    adj = {y: set() for y in labels}
    for i, p in enumerate(labels):
        ch_p = set(g.children(p))
        for q in labels[i + 1:]:
            linked = g.adjacent(p, q)
            if not linked:
                common = ch_p & set(g.children(q))
                linked = bool(common - label_set)
            if linked:
                adj[p].add(q)
                adj[q].add(p)
    blocks = []
    seen = set()
    for y in labels:
        if y in seen:
            continue
        comp = []
        stack = [y]
        seen.add(y)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        blocks.append(tuple(sorted(comp)))
    return sorted(blocks)


def powerset_markov_boundary(g, block, labels):
    """Union of pc and sp over the block's members, minus every label node."""
    ms = markov_sets(g)
    out = set()
    for y in block:
        out |= ms.pc[y] | ms.sp[y]
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

    def log_scores(self, rows):
        """Unnormalized log posterior of each class for each row."""
        rows = np.asarray(rows)
        scores = np.repeat(self.log_prior[None, :], len(rows), axis=0)
        for t, f in enumerate(self.features):
            scores += self.log_like[t][:, rows[:, f]].T
        return scores

    def predict(self, rows):
        """Most probable class combination per row, shape (n, len(block))."""
        idx = np.argmax(self.log_scores(rows), axis=1)
        return np.asarray(self.classes, dtype=np.int32)[idx]


def fit_powerset_classifier(train, block, features, smoothing=1.0):
    """Estimate p(class | features) for one block from training rows."""
    block = tuple(sorted(block))
    features = tuple(sorted(features))
    if not block:
        raise ValueError("empty block")
    if set(block) & set(features):
        raise ValueError("features must be disjoint from the block's labels")
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise ValueError("smoothing must be finite and non-negative")
    classes, n_c = np.unique(train.rows[:, list(block)], axis=0,
                             return_counts=True)
    log_prior = np.log(n_c.astype(float) / train.n)
    log_like = []
    with np.errstate(divide="ignore"):
        for f in features:
            # columns of the table are the observed block configurations in
            # lexicographic order, which is the order of classes
            counts = np.ascontiguousarray(count_table(train, (f,), block).T,
                                          dtype=float) + smoothing
            log_like.append(np.log(counts / counts.sum(axis=1, keepdims=True)))
    return PowersetClassifier(
        block=block,
        features=features,
        classes=tuple(tuple(int(v) for v in row) for row in classes),
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
    ring). The AND-rule skeleton is built within that ring and handed to
    the constrained hill climber; nodes outside the ring stay isolated.
    jobs is accepted and has no effect.
    """
    test_cfg = test_cfg or TestConfig()
    score_cfg = score_cfg or ScoreConfig()
    labels = sorted(set(labels))
    src = DataIndependenceSource(data, test_cfg)
    ring = set(labels)
    for t in labels:
        ring |= hpc(t, src, None, test_cfg)
    for t in sorted(ring - set(labels)):
        ring |= hpc(t, src, None, test_cfg)
    skel = build_skeleton(src, test_cfg, universe=sorted(ring))
    return hill_climb(data, skel, score_cfg).dag


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


def _binarize_for_fold(data, train_idx, labels):
    # Median split of every non-label column with arity > 2, medians taken
    # from the training rows only; binary columns are left alone.
    rows = np.array(data.rows)
    levels = list(data.levels)
    label_set = set(labels)
    changed = False
    for col in range(data.d):
        if col in label_set or data.arity(col) <= 2:
            continue
        numeric = parse_numeric_column(data, col)
        med = float(np.median(numeric[train_idx]))
        rows[:, col] = (numeric > med).astype(np.int32)
        levels[col] = ("le_median", "gt_median")
        changed = True
    if not changed:
        return data
    return CategoricalDataset(data.names, tuple(levels), rows)


def _export_block(directory, fold, bix, dataset, rows_idx, block, features, tag):
    cols = list(features) + list(block)
    path = os.path.join(directory, f"fold{fold:02d}_block{bix:02d}_{tag}.csv")
    names = [dataset.names[c] for c in cols]
    levels = [dataset.levels[c] for c in cols]
    write_csv(CategoricalDataset(names, levels, dataset.rows[rows_idx][:, cols]), path)


def run_scenario(data, labels, scenario, cfg=None):
    """Cross-validated multi-label experiment for one scenario.

    br: one block per label, all features. br+mb: one block per label,
    features restricted to the label's Markov boundary in the learned local
    DAG. mlp: minimal label powersets, all features. mlp+mb: minimal label
    powersets with per-block boundaries.
    """
    key = _scenario_key(scenario)
    return run_scenarios(data, labels, [key], cfg)[key]


def _scenario_key(scenario):
    key = scenario.strip().lower()
    if key not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; pick one of {SCENARIOS}")
    return key


def run_scenarios(data, labels, scenarios, cfg=None):
    """Cross-validated experiment for several scenarios on the same folds.

    Each fold learns its local DAG once, and only if some scenario has a
    graph rule, then applies every scenario's rules to it. Returns
    {scenario: report}; each report equals run_scenario's for that
    scenario. Block exports (cfg.export_dir) name no scenario, so they
    need a single one. Folds run in up to cfg.jobs forked worker processes
    (``fork_map``); the reports do not depend on cfg.jobs.
    """
    cfg = cfg or MlcConfig()
    keys = list(dict.fromkeys(_scenario_key(s) for s in scenarios))
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
    needs_graph = any(_SCENARIO_RULES[k] != (None, None) for k in keys)

    def run_fold(f):
        started = time.perf_counter()
        train_idx = folds.train_indices(f)
        test_idx = folds.test_indices(f)
        fold_data = (
            _binarize_for_fold(data, train_idx, labels) if cfg.binarize else data
        )
        train = fold_data.subset_rows(train_idx)
        dag = (
            learn_local_dag(train, labels, cfg.test, cfg.score)
            if needs_graph else None
        )
        test_rows = fold_data.rows[test_idx]
        shared = time.perf_counter() - started
        reports = {}
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
                os.makedirs(cfg.export_dir, exist_ok=True)
                for bix, (b, fs) in enumerate(zip(blocks, feats)):
                    _export_block(cfg.export_dir, f, bix, fold_data, train_idx,
                                  b, fs, "train")
                    _export_block(cfg.export_dir, f, bix, fold_data, test_idx,
                                  b, fs, "test")
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
        return reports

    by_fold = fork_map(run_fold, cfg.folds, cfg.jobs)
    return {key: _summary(key, data, labels, [r[key] for r in by_fold])
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
