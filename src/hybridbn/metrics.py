"""Structure-quality metrics: skeleton scores, CPDAG conversion, SHD,
train/test score reporting."""

import math
from dataclasses import dataclass

from .data import DataError
from .graphs import Pdag
from .scoring import ScoreConfig, Scorer


@dataclass(frozen=True)
class SkeletonMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    fpr: float
    euclidean: float


def skeleton_metrics(learned, truth):
    """Edge-level precision, recall, false-positive rate and the Euclidean
    distance from perfect precision and recall.

    Precision of an empty output is 1 by convention: no discoveries means no
    false discoveries.
    """
    if learned.d != truth.d:
        raise ValueError("skeletons have different node sets")
    tp = len(learned.edges & truth.edges)
    fp = len(learned.edges - truth.edges)
    fn = len(truth.edges - learned.edges)
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    non_edges = truth.d * (truth.d - 1) // 2 - len(truth.edges)
    fpr = 0.0 if non_edges == 0 else fp / non_edges
    euclidean = math.hypot(1.0 - precision, 1.0 - recall)
    return SkeletonMetrics(tp, fp, fn, precision, recall, fpr, euclidean)


def dag_to_cpdag(g):
    """The DAG pattern: compelled edges directed, reversible edges undirected.

    Chickering's FIND-COMPELLED (Chickering 1995) labels the edges in one
    pass. The edges are ordered by head in topological order, then by tail
    from last to first, so the first unlabelled edge into y is x -> y with
    x the last parent of y. Each compelled w -> x either compels every edge
    into y (w not a parent of y) or compels w -> y. Failing that, a parent
    z of y that is neither x nor a parent of x compels every edge into y;
    otherwise the edges into y not yet compelled are reversible.
    """
    rank = [0] * g.d
    for i, v in enumerate(g.order):
        rank[v] = i
    compelled, reversible = set(), []
    for y in g.order:
        parents = set(g.parents(y))
        if not parents:
            continue
        x = max(parents, key=rank.__getitem__)
        x_parents = set(g.parents(x))
        w_compelled = {w for w in x_parents if (w, x) in compelled}
        into_y = {(w, y) for w in parents}
        if w_compelled - parents or parents - x_parents - {x}:
            compelled |= into_y
        else:
            w_to_y = {(w, y) for w in w_compelled}
            compelled |= w_to_y
            reversible += into_y - w_to_y
    return Pdag(g.d, directed=compelled, undirected=reversible)


def _arrow_marks(p):
    # an arrow mark u -> v for each directed edge, both for an undirected one
    return p.directed | p.undirected | {(v, u) for u, v in p.undirected}


def shd(a, b):
    """Structural Hamming distance between two PDAGs.

    One unit per node pair whose adjacency presence differs, and one unit
    per pair adjacent in both but with different orientation status
    (undirected vs directed, or directed opposite ways): the distinct node
    pairs among the arrow marks that only one of the two PDAGs has.
    """
    if a.d != b.d:
        raise ValueError("graphs have different node sets")
    return len({frozenset(m) for m in _arrow_marks(a) ^ _arrow_marks(b)})


def holdout_scores(data, graphs, cfg=None):
    """BDeu (with cfg.ess) and BIC totals of each structure on one dataset.

    graphs maps a tag to a Dag over the dataset's variables; the result maps
    each tag to {"bdeu": total, "bic": total}. One Scorer per score kind
    serves every structure.
    """
    cfg = cfg or ScoreConfig()
    if any(g.d != data.d for g in graphs.values()):
        raise DataError("structure does not cover the dataset's variables")
    bdeu = Scorer(data, ScoreConfig(score="bdeu", ess=cfg.ess))
    bic = Scorer(data, ScoreConfig(score="bic"))
    return {
        tag: {"bdeu": bdeu.total(g), "bic": bic.total(g)}
        for tag, g in graphs.items()
    }
