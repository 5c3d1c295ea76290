"""Decomposable structure scores and skeleton-constrained hill climbing.

Both scores decompose over node families, so the search caches local scores
keyed by (node, sorted parent tuple) and evaluates moves through deltas.
"""

import math
import numbers
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .data import count_table
from .graphs import Dag

# Plateau guard: score gains below this never count as improvement, so float
# drift cannot reset the patience counter.
_IMPROVE_EPS = 1e-9


def _is_int(value):
    # NumPy integers count; bool is an int subclass, but True is no tabu length
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScoreConfig:
    """Score and search settings."""

    score: str = "bdeu"
    ess: float = 10.0
    tabu_length: int = 100
    patience: int = 15

    def __post_init__(self):
        if self.score not in ("bdeu", "bic"):
            raise ValueError("score must be 'bdeu' or 'bic'")
        if not (math.isfinite(self.ess) and self.ess > 0):
            raise ValueError("ess must be finite and positive")
        if not _is_int(self.tabu_length) or self.tabu_length < 0:
            raise ValueError("tabu_length must be a non-negative integer")
        if not _is_int(self.patience) or self.patience < 1:
            raise ValueError("patience must be an integer of at least 1")


def _family_counts(data, node, parents):
    # counts over observed parent configurations only (rows: configs,
    # columns: node levels); q is the nominal configuration count.
    counts = np.ascontiguousarray(count_table(data, (node,), parents).T)
    return counts, math.prod(data.arity(p) for p in parents)


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
    """stop is "patience" or "no_move", whichever ended the search."""

    dag: Dag
    score: float
    empty_score: float
    moves: int
    stop: str


def _ancestor_masks(parents):
    # Bit p of masks[v] is set iff p is a proper ancestor of v. Depth-first
    # over parent lists: each node is pushed once and rescanned once per
    # parent it waits for, so a pass is O(d + E) for bounded in-degrees.
    masks = [None] * len(parents)
    for root in range(len(parents)):
        if masks[root] is not None:
            continue
        stack = [root]
        while stack:
            v = stack[-1]
            mask = 0
            for p in parents[v]:
                above = masks[p]
                if above is None:
                    stack.append(p)
                    break
                mask |= above | (1 << p)
            else:
                masks[v] = mask
                stack.pop()
    return masks


_ADD, _DELETE, _REVERSE = 0, 1, 2  # also the tie-break rank of each op


def _moved(edges, op, u, v):
    if op == _ADD:
        return edges | {(u, v)}
    if op == _DELETE:
        return edges - {(u, v)}
    return (edges - {(u, v)}) | {(v, u)}


def hill_climb(data, skeleton, cfg=None, scorer=None):
    """Greedy search from the empty graph with a TABU list over structures.

    Only add moves are constrained to skeleton edges. Deletes are always
    legal; adds and reverses must keep the graph acyclic. Each step applies
    the best-scoring move (ties broken by add < delete < reverse, then
    source, then target) whose resulting structure (canonical edge set) is
    not among the last tabu_length structures visited, even when that move
    worsens the score; the search stops after patience consecutive moves
    without a strict improvement of the best score ever seen, or when no
    move is available, and returns the best structure encountered.

    A step costs O(candidate moves): the delta of toggling u in v's parent
    set is cached until v's family changes, acyclicity is read off
    per-node ancestor bitsets rebuilt after each move, and the tabu list is
    consulted only for moves that would beat the best one so far.
    """
    if skeleton.d != data.d:
        raise ValueError("skeleton does not cover the dataset's variables")
    cfg = cfg or ScoreConfig()
    scorer = scorer or Scorer(data, cfg)
    d = data.d
    nbrs = [tuple(sorted(skeleton.pc[v])) for v in range(d)]
    parents = [() for _ in range(d)]
    local = [scorer.local(v, ()) for v in range(d)]
    # toggle[v][u]: score delta of adding u to, or deleting it from, v's
    # parents; filled when first needed, dropped when v's family changes
    toggle = [{} for _ in range(d)]
    anc = [0] * d
    current = sum(local)
    empty_score = current
    best_score = current
    best_edges = frozenset()
    current_edges = frozenset()
    # the last tabu_length structures, and how often each occurs among them;
    # with tabu_length 0 both stay empty and nothing is tabu
    tabu = deque(maxlen=cfg.tabu_length)
    in_tabu = Counter()

    def visit(edges):
        if tabu.maxlen == 0:
            return
        if len(tabu) == tabu.maxlen:
            old = tabu.popleft()
            in_tabu[old] -= 1
            if not in_tabu[old]:
                del in_tabu[old]
        tabu.append(edges)
        in_tabu[edges] += 1

    def consider(op, u, v, delta):
        # keep the move if its key (-delta, op, u, v) beats the best so far
        # and its structure is not tabu; keys are unique, so the scan order
        # does not matter
        nonlocal best_key, best_move
        key = (-delta, op, u, v)
        if best_key is not None and not key < best_key:
            return
        if in_tabu and _moved(current_edges, op, u, v) in in_tabu:
            return
        best_key = key
        best_move = (op, u, v, delta)

    visit(current_edges)
    stale = 0
    moves = 0
    while True:
        best_move = None
        best_key = None
        for v in range(d):
            pa_v = parents[v]
            deltas = toggle[v]
            local_v = local[v]
            # reversing u -> v closes a cycle iff u is a proper ancestor of
            # another parent of v (never of u itself)
            above = 0
            for p in pa_v:
                above |= anc[p]
            for u in nbrs[v]:
                if u in pa_v:
                    delta = deltas.get(u)
                    if delta is None:
                        rest = tuple(w for w in pa_v if w != u)
                        delta = scorer.local(v, rest) - local_v
                        deltas[u] = delta
                    consider(_DELETE, u, v, delta)
                    if not above >> u & 1:
                        back = toggle[u].get(v)
                        if back is None:
                            back = scorer.local(u, parents[u] + (v,)) - local[u]
                            toggle[u][v] = back
                        consider(_REVERSE, u, v, delta + back)
                elif not anc[u] >> v & 1:
                    # v is no ancestor of u, so u is no child of v either
                    delta = deltas.get(u)
                    if delta is None:
                        delta = scorer.local(v, pa_v + (u,)) - local_v
                        deltas[u] = delta
                    consider(_ADD, u, v, delta)
        if best_move is None:
            stop = "no_move"
            break
        op, u, v, delta = best_move
        # the legality checks above keep the parent lists acyclic
        if op == _ADD:
            parents[v] = tuple(sorted(parents[v] + (u,)))
        else:
            parents[v] = tuple(w for w in parents[v] if w != u)
        if op == _REVERSE:
            parents[u] = tuple(sorted(parents[u] + (v,)))
        current_edges = _moved(current_edges, op, u, v)
        for w in (u, v) if op == _REVERSE else (v,):
            local[w] = scorer.local(w, parents[w])
            toggle[w] = {}
        anc = _ancestor_masks(parents)
        current += delta
        moves += 1
        visit(current_edges)
        if current > best_score + _IMPROVE_EPS:
            best_score = current
            best_edges = current_edges
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                stop = "patience"
                break
    best_dag = Dag(d, sorted(best_edges))
    return SearchResult(
        dag=best_dag,
        score=scorer.total(best_dag),
        empty_score=empty_score,
        moves=moves,
        stop=stop,
    )
