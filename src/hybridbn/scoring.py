"""Decomposable structure scores and skeleton-constrained hill climbing.

Both scores decompose over node families. A `Scorer` computes a family's
local score from its count table, caches it keyed by (node, sorted parent
tuple), and the search evaluates moves through differences of these.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import DataError, count_table, is_count
from .graphs import Dag
from .special import lgamma

# Plateau guard: score gains below this never count as improvement, so float
# drift cannot reset the patience counter.
_IMPROVE_EPS = 1e-9


SCORES = ("bdeu", "bic")


@dataclass(frozen=True)
class ScoreConfig:
    """Score and search settings."""

    score: str = "bdeu"
    ess: float = 10.0
    tabu_length: int = 100
    patience: int = 15

    def __post_init__(self):
        if self.score not in SCORES:
            raise ValueError(f"score must be one of {SCORES}")
        if not (math.isfinite(self.ess) and self.ess > 0):
            raise ValueError("ess must be finite and positive")
        if not is_count(self.tabu_length) or self.tabu_length < 0:
            raise ValueError("tabu_length must be a non-negative integer")
        if not is_count(self.patience) or self.patience < 1:
            raise ValueError("patience must be an integer of at least 1")


class Scorer:
    """Local scores of one dataset under one configuration, each computed
    once and cached; a hit is bit-identical to recomputation.

    BDeu with a uniform prior of equivalent sample size ess sums, over the
    observed parent configurations j, lnG(a_j) - lnG(a_j + n_j) plus the
    per-level terms lnG(a_jk + n_jk) - lnG(a_jk), with a_j = ess / q and
    a_jk = ess / (q r); a term that is not finite is a DataError. BIC is the
    maximized multinomial log-likelihood minus (ln n / 2) q (r - 1). In both
    q is the nominal number of parent configurations.
    """

    def __init__(self, data, cfg=None):
        self.data = data
        self.cfg = cfg or ScoreConfig()
        self._cache = {}
        # lgamma(a + k) per BDeu hyperparameter a: a float64 array indexed
        # by the count k, each entry NaN until first used
        self._lgammas = {}

    def local(self, node, parents=()):
        key = (node, tuple(sorted(parents)))
        hit = self._cache.get(key)
        if hit is None:
            node, parents = key
            if node in parents:
                raise ValueError("node cannot be its own parent")
            if len(set(parents)) < len(parents):
                raise ValueError("a parent is listed twice")
            # rows: observed parent configurations; columns: node levels
            counts = np.ascontiguousarray(count_table(self.data, (node,), parents).T)
            q = math.prod(self.data.arities[p] for p in parents)
            score = self._bdeu if self.cfg.score == "bdeu" else self._bic
            hit = self._cache[key] = score(node, parents, counts, q)
        return hit

    def total(self, g):
        return sum(self.local(v, g.parents(v)) for v in range(g.d))

    def _bdeu(self, node, parents, counts, q):
        ess = self.cfg.ess
        a_j = ess / q
        a_jk = ess / (q * self.data.arities[node])
        n_j = counts.sum(axis=1)
        try:
            lg_j, lg_jn = self._lgamma(a_j, n_j)
            lg_jk, lg_jkn = self._lgamma(a_jk, counts)
        except OverflowError:
            raise DataError(
                f"the BDeu score of {self.data.names[node]!r} given "
                f"{len(parents)} parent(s) is not finite with ess = {ess!r}"
            ) from None
        return float((lg_j - lg_jn).sum() + (lg_jkn - lg_jk).sum())

    def _lgamma(self, a, k):
        # (lgamma(a), lgamma(a + k)) for an int array k >= 0, each equal to
        # scipy.special.gammaln bit for bit (see hybridbn.special);
        # OverflowError when one is infinite (a + k is 0 or past MAXLGM)
        table = self._lgammas.get(a)
        if table is None:
            table = self._lgammas[a] = np.full(1, _finite_lgamma(a))
        try:
            values = table[k]
        except IndexError:
            grown = np.full(max(int(k.max()) + 1, 2 * table.size), np.nan)
            grown[:table.size] = table
            table = self._lgammas[a] = grown
            values = table[k]
        missing = np.isnan(values)
        if missing.any():
            todo = list(set(k[missing].tolist()))
            table[todo] = [_finite_lgamma(a + i) for i in todo]
            values = table[k]
        return table[0], values

    def _bic(self, node, parents, counts, q):
        n_j = counts.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(counts > 0, counts * np.log(counts / n_j), 0.0)
        penalty = 0.5 * math.log(self.data.n) * q * (self.data.arities[node] - 1)
        return float(terms.sum() - penalty)


def _finite_lgamma(x):
    value = lgamma(x)
    if not math.isfinite(value):
        raise OverflowError(f"lgamma({x!r}) is not finite")
    return value


@dataclass(frozen=True)
class SearchResult:
    """stop is "patience" or "no_move", whichever ended the search."""

    dag: Dag
    score: float
    empty_score: float
    moves: int
    stop: str


def _fill_ancestor_masks(parents, masks, nodes):
    # Fill in masks[v] for each v in nodes whose entry is None: bit p of
    # masks[v] is set iff p is a proper ancestor of v. Every other entry must
    # already be right. Depth-first over parent lists: each node is pushed
    # once and rescanned once per parent it waits for, so a pass is
    # O(nodes + their in-edges) for bounded in-degrees.
    for root in nodes:
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

    The moves wait in a heap ordered by the tie-break key (-delta, op, u, v),
    a total order, so each step walks from the front to the first legal,
    non-tabu move. A move changes one family (two for a reverse); only the
    moves whose delta reads a changed family are re-keyed. Deltas are
    scored only while their move is legal: a move a cycle blocks waits in a
    pending set, and since an add only grows ancestor sets, the set is
    rechecked only after a delete or a reverse. Acyclicity is read off
    per-node ancestor bitsets, which each move updates in place.

    Local scores come from scorer, a Scorer of data, or a new one. With a
    scorer, cfg defaults to scorer.cfg; a scorer of another dataset or
    under another cfg is a ValueError.
    """
    if skeleton.d != data.d:
        raise ValueError("skeleton does not cover the dataset's variables")
    if scorer is None:
        scorer = Scorer(data, cfg)
    elif scorer.data is not data:
        raise ValueError("scorer scores another dataset")
    elif cfg is not None and cfg != scorer.cfg:
        raise ValueError("scorer scores with another ScoreConfig")
    cfg = scorer.cfg
    d = data.d
    nbrs = [tuple(sorted(skeleton.pc[v])) for v in range(d)]
    parents = [() for _ in range(d)]
    local = [scorer.local(v, ()) for v in range(d)]
    anc = [0] * d
    # live[op, u, v] is the heap entry (-delta, op, u, v) of a move whose
    # delta is current; any other heap entry is outdated and skipped. Every
    # legal move is live. An illegal one is live or pending, or is an add
    # against an existing edge, which the move that drops that edge re-keys.
    heap = []
    live = {}
    # skeleton pairs (u, v) whose add or reverse of u -> v is not live
    # because it would close a cycle through a path of two or more edges
    pending = set()
    current = sum(local)
    empty_score = current
    best_score = current
    best_edges = frozenset()
    current_edges = frozenset()
    # the last tabu_length structures, oldest first, and the same as a set:
    # each move leaves the window, so no structure is in it twice
    tabu = deque()
    in_tabu = set()

    def visit(edges):
        tabu.append(edges)
        in_tabu.add(edges)
        while len(tabu) > cfg.tabu_length:
            in_tabu.remove(tabu.popleft())

    def toggled(v, u):
        # score delta of adding u to, or deleting it from, v's parents
        pa_v = parents[v]
        rest = tuple(w for w in pa_v if w != u) if u in pa_v else pa_v + (u,)
        return scorer.local(v, rest) - local[v]

    def reversible(u, v):
        # reversing u -> v closes a cycle iff u is a proper ancestor of
        # another parent of v (never of u itself)
        above = 0
        for p in parents[v]:
            above |= anc[p]
        return not above >> u & 1

    def put(op, u, v, delta):
        entry = live.get((op, u, v))
        if entry is None or entry[0] != -delta:
            entry = live[op, u, v] = (-delta, op, u, v)
            heapq.heappush(heap, entry)

    def block(op, u, v):
        live.pop((op, u, v), None)
        if op == _REVERSE or v not in parents[u]:
            pending.add((u, v))

    def refresh(u, v):
        # re-key the moves of u -> v from the current graph
        pending.discard((u, v))
        if u in parents[v]:
            live.pop((_ADD, u, v), None)
            delta = toggled(v, u)
            put(_DELETE, u, v, delta)
            if reversible(u, v):
                put(_REVERSE, u, v, delta + toggled(u, v))
            else:
                block(_REVERSE, u, v)
        else:
            live.pop((_DELETE, u, v), None)
            live.pop((_REVERSE, u, v), None)
            # v is no ancestor of u, so u is no child of v either
            if not anc[u] >> v & 1:
                put(_ADD, u, v, toggled(v, u))
            else:
                block(_ADD, u, v)

    visit(current_edges)
    stale = 0
    moves = 0
    changed = range(d)
    unblocked = False
    while True:
        # re-key the moves whose delta reads a changed family, and, after
        # a delete or a reverse, the pending ones
        pairs = {p for w in changed for x in nbrs[w] for p in ((x, w), (w, x))}
        if unblocked:
            pairs |= pending
        for u, v in pairs:
            refresh(u, v)
        # the first live move in key order that is legal and not tabu; the
        # tabu ones go back afterwards
        chosen = None
        held = []
        while heap:
            entry = heapq.heappop(heap)
            _, op, u, v = entry
            if live.get((op, u, v)) is not entry:
                continue
            if op == _ADD and anc[u] >> v & 1 or op == _REVERSE and not reversible(u, v):
                block(op, u, v)
            elif in_tabu and _moved(current_edges, op, u, v) in in_tabu:
                held.append(entry)
            else:
                chosen = entry
                break
        for entry in held:
            heapq.heappush(heap, entry)
        if chosen is None:
            stop = "no_move"
            break
        del live[op, u, v]
        delta = -chosen[0]
        # the legality checks above keep the parent lists acyclic
        if op == _ADD:
            parents[v] = tuple(sorted(parents[v] + (u,)))
            # v and its descendants gain u and u's ancestors
            gained = anc[u] | 1 << u
            for w in range(d):
                if w == v or anc[w] >> v & 1:
                    anc[w] |= gained
        else:
            parents[v] = tuple(w for w in parents[v] if w != u)
            if op == _REVERSE:
                parents[u] = tuple(sorted(parents[u] + (v,)))
            # only the deleted edge's head (the reversed edge's old tail)
            # and its old descendants can have other ancestors now
            top = v if op == _DELETE else u
            redo = [w for w in range(d) if w == top or anc[w] >> top & 1]
            for w in redo:
                anc[w] = None
            _fill_ancestor_masks(parents, anc, redo)
        current_edges = _moved(current_edges, op, u, v)
        changed = (u, v) if op == _REVERSE else (v,)
        unblocked = op != _ADD
        for w in changed:
            local[w] = scorer.local(w, parents[w])
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
    best_dag = Dag(d, best_edges)
    return SearchResult(
        dag=best_dag,
        score=scorer.total(best_dag),
        empty_score=empty_score,
        moves=moves,
        stop=stop,
    )
