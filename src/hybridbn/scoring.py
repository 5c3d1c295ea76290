"""Decomposable structure scores and skeleton-constrained hill climbing.

Both scores decompose over node families, so the search caches local scores
keyed by (node, sorted parent tuple) and evaluates moves through deltas.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .data import observed_config_codes
from .graphs import Dag

# Plateau guard: score gains below this never count as improvement, so float
# drift cannot reset the patience counter.
_IMPROVE_EPS = 1e-9


@dataclass(frozen=True)
class ScoreConfig:
    score: str = "bdeu"
    ess: float = 10.0
    tabu_length: int = 100
    patience: int = 15

    def __post_init__(self):
        if self.score not in ("bdeu", "bic"):
            raise ValueError("score must be 'bdeu' or 'bic'")
        if not (math.isfinite(self.ess) and self.ess > 0):
            raise ValueError("ess must be finite and positive")
        if self.tabu_length < 0:
            raise ValueError("tabu_length must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")


def _family_counts(data, node, parents):
    # counts over observed parent configurations only (rows: configs,
    # columns: node levels); q is the nominal configuration count.
    r = data.arity(node)
    parents = list(parents)
    q = math.prod(data.arity(p) for p in parents)
    flat, m = observed_config_codes(
        data.columns[parents].T, [data.arity(p) for p in parents]
    )
    flat *= r
    flat += data.columns[node]
    counts = np.bincount(flat, minlength=m * r).reshape(m, r)
    return counts, q


def bdeu_local(data, node, parents=(), ess=10.0):
    """Local BDeu score with a uniform prior of equivalent sample size ess.

    Sum over parent configurations j of lnG(a_j) - lnG(a_j + n_j) plus the
    per-level terms lnG(a_jk + n_jk) - lnG(a_jk), with a_j = ess / q and
    a_jk = ess / (q r). Unobserved configurations contribute zero.
    """
    if node in parents:
        raise ValueError("node cannot be its own parent")
    counts, q = _family_counts(data, node, parents)
    r = data.arity(node)
    a_j = ess / q
    a_jk = ess / (q * r)
    n_j = counts.sum(axis=1)
    config_terms = gammaln(a_j) - gammaln(a_j + n_j)
    cell_terms = gammaln(a_jk + counts) - gammaln(a_jk)
    return float(config_terms.sum() + cell_terms.sum())


def bic_local(data, node, parents=()):
    """Local BIC: maximized multinomial log-likelihood minus
    (ln n / 2) * q * (r - 1); zero-count cells contribute nothing."""
    if node in parents:
        raise ValueError("node cannot be its own parent")
    counts, q = _family_counts(data, node, parents)
    r = data.arity(node)
    n_j = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, counts * np.log(counts / n_j), 0.0)
    penalty = 0.5 * math.log(data.n) * q * (r - 1)
    return float(terms.sum() - penalty)


class Scorer:
    """Cached local scores for one dataset and one configuration.

    Cache hits are bit-identical to recomputation because the local score is
    a pure function of (node, parent set).
    """

    def __init__(self, data, cfg=None):
        self.data = data
        self.cfg = cfg or ScoreConfig()
        self._cache = {}

    def local(self, node, parents=()):
        key = (node, tuple(sorted(parents)))
        hit = self._cache.get(key)
        if hit is None:
            if self.cfg.score == "bdeu":
                hit = bdeu_local(self.data, key[0], key[1], self.cfg.ess)
            else:
                hit = bic_local(self.data, key[0], key[1])
            self._cache[key] = hit
        return hit

    def total(self, g):
        return sum(self.local(v, g.parents(v)) for v in range(g.d))


@dataclass(frozen=True)
class SearchResult:
    dag: Dag
    score: float
    empty_score: float
    moves: int


def _legal_moves(dag, skeleton):
    # Deterministic enumeration: adds (skeleton-constrained), then deletes,
    # then reverses; each ordered by (source, target).
    d = dag.d
    for u in range(d):
        for v in sorted(skeleton.pc[u]):
            if not dag.adjacent(u, v) and not dag.has_path(v, u):
                yield ("add", u, v)
    edges = dag.edges()
    for u, v in edges:
        yield ("delete", u, v)
    for u, v in edges:
        dag.remove_edge(u, v)
        reversible = not dag.has_path(u, v)
        dag.add_edge(u, v)
        if reversible:
            yield ("reverse", u, v)


_OP_RANK = {"add": 0, "delete": 1, "reverse": 2}


def hill_climb(data, skeleton, cfg=None, scorer=None):
    """Greedy search from the empty graph with a TABU list over structures.

    Only add moves are constrained to skeleton edges; delete and reverse are
    always legal subject to acyclicity. Each step applies the best-scoring
    move whose resulting structure (canonical edge set) is not among the
    last tabu_length structures visited, even when that move worsens the
    score; the search stops after patience consecutive moves without a
    strict improvement of the best score ever seen, or when no move is
    available, and returns the best structure encountered.
    """
    if skeleton.d != data.d:
        raise ValueError("skeleton does not cover the dataset's variables")
    cfg = cfg or ScoreConfig()
    scorer = scorer or Scorer(data, cfg)
    d = data.d
    dag = Dag(d)
    local = [scorer.local(v, ()) for v in range(d)]
    current = sum(local)
    empty_score = current
    best_score = current
    best_edges = frozenset()
    current_edges = frozenset()
    # with tabu_length 0 the deque stays empty and nothing is tabu
    tabu = deque([current_edges], maxlen=cfg.tabu_length)
    stale = 0
    moves = 0
    while True:
        best_move = None
        best_key = None
        for op, u, v in _legal_moves(dag, skeleton):
            if op == "add":
                delta = scorer.local(v, dag.parents(v) + (u,)) - local[v]
                result = current_edges | {(u, v)}
            elif op == "delete":
                pa = tuple(w for w in dag.parents(v) if w != u)
                delta = scorer.local(v, pa) - local[v]
                result = current_edges - {(u, v)}
            else:
                pa_v = tuple(w for w in dag.parents(v) if w != u)
                delta = (scorer.local(v, pa_v) - local[v]) + (
                    scorer.local(u, dag.parents(u) + (v,)) - local[u]
                )
                result = (current_edges - {(u, v)}) | {(v, u)}
            if result in tabu:
                continue
            key = (-delta, _OP_RANK[op], u, v)
            if best_key is None or key < best_key:
                best_key = key
                best_move = (op, u, v, delta, result)
        if best_move is None:
            break
        op, u, v, delta, result = best_move
        if op == "add":
            dag.add_edge(u, v)
        elif op == "delete":
            dag.remove_edge(u, v)
        else:
            dag.reverse_edge(u, v)
            local[u] = scorer.local(u, dag.parents(u))
        local[v] = scorer.local(v, dag.parents(v))
        current += delta
        current_edges = result
        moves += 1
        tabu.append(current_edges)
        if current > best_score + _IMPROVE_EPS:
            best_score = current
            best_edges = current_edges
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    best_dag = Dag(d, sorted(best_edges))
    return SearchResult(
        dag=best_dag,
        score=scorer.total(best_dag),
        empty_score=empty_score,
        moves=moves,
    )
