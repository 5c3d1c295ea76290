"""Structure-quality metrics: skeleton scores, CPDAG conversion, SHD,
train/test score reporting."""

import math
from dataclasses import dataclass
from itertools import combinations

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


def _meek_orients(p, a, b):
    # True when Meek's rule 1, 2 or 3 orients the undirected edge a-b as a->b.
    # R1: c -> a, c and b nonadjacent
    for c, w in p.directed:
        if w == a and not p.adjacent(c, b):
            return True
    # R2: a -> c -> b
    for c, w in p.directed:
        if c == a and (w, b) in p.directed:
            return True
    # R3: a - c -> b and a - d -> b with c, d nonadjacent
    und_a = {v if u == a else u for u, v in p.undirected if a in (u, v)}
    into_b = {u for u, w in p.directed if w == b}
    spokes = sorted(und_a & into_b)
    for c, d in combinations(spokes, 2):
        if not p.adjacent(c, d):
            return True
    return False


def dag_to_cpdag(g):
    """The DAG pattern: compelled edges directed, reversible edges undirected.

    The edges of g's v-structures start directed, the rest undirected, and
    Meek's rules 1-3 close the pattern. For a DAG's pattern these rules are
    complete; rule 4 is needed only with background knowledge (Meek 1995).
    """
    v_edges = set()
    for w in range(g.d):
        for u, v in combinations(g.parents(w), 2):
            if not g.adjacent(u, v):
                v_edges.update([(u, w), (v, w)])
    p = Pdag(g.d, directed=v_edges,
             undirected=[e for e in g.edges() if e not in v_edges])
    changed = True
    while changed:
        changed = False
        for a, b in sorted(p.undirected):
            if _meek_orients(p, a, b):
                p.orient(a, b)
                changed = True
            elif _meek_orients(p, b, a):
                p.orient(b, a)
                changed = True
    return p


def _pair_status(p, u, v):
    # u < v assumed; None, "und", "uv" or "vu"
    if (u, v) in p.undirected:
        return "und"
    if (u, v) in p.directed:
        return "uv"
    if (v, u) in p.directed:
        return "vu"
    return None


def shd(a, b):
    """Structural Hamming distance between two PDAGs.

    One unit per node pair whose adjacency presence differs, and one unit
    per pair adjacent in both but with different orientation status
    (undirected vs directed, or directed opposite ways).
    """
    if a.d != b.d:
        raise ValueError("graphs have different node sets")
    total = 0
    for pair in a.adjacency_pairs() | b.adjacency_pairs():
        sa = _pair_status(a, *pair)
        sb = _pair_status(b, *pair)
        if sa != sb:
            total += 1
    return total


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
