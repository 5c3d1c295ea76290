"""Constraint-based local discovery and skeleton assembly.

The pipeline per target T: a parents-children superset via two elimination
phases with conditioning sets of size at most 1 (de_pcs), a spouse superset
with conditioning sets of size at most 2 (de_sps), then an FDR-controlled
parents-children estimate on the restricted universe {T} union PCS union
SPS (FDR-IAPC: the iamb_fdr boundary minus the members some subset of it
separates from T), with a decentralized OR phase that rescues false
negatives (hpc). The whole-graph skeleton keeps edge {X, Y} iff X is in
hpc(Y) and Y is in hpc(X). h2pc, the hybrid learner, builds that skeleton
and hands it to the tabu hill climb of hybridbn.scoring.

Iteration order over variables follows dataset column order everywhere;
with oracle sources the output is order-independent, with statistical
sources the order is the documented tie-break.
"""

import itertools
from dataclasses import dataclass, field
from typing import Protocol

from .data import DataError, name_pairs, read_json_object, write_json
from .independence import TestConfig
from .scoring import SearchResult, hill_climb


class IndependenceSource(Protocol):
    """What the discovery algorithms need from an independence backend.

    A source may also answer two batch queries, which the discovery loops
    use when present (DataIndependenceSource has both):

    - ``results(queries)``: for a list of (x, y, z), the objects that carry
      ``independent`` and ``p_value`` for each, as if each were asked in
      turn;
    - ``first_independent(x, y, zsets, scope)``: the first z of the
      iterable zsets (each a subset of scope) with ``independent(x, y, z)``,
      or None, asking no test after it.

    A source without them is asked one test at a time, in the same order.
    A source's ``cfg`` (a TestConfig), where it has one, is the default of
    hpc and build_skeleton, and so the test config of h2pc.
    """

    @property
    def n_vars(self) -> int: ...

    def independent(self, x, y, z=()) -> bool: ...

    def p_value(self, x, y, z=()) -> float: ...


def _ask_all(src, queries, answer):
    # [src.<answer>(x, y, z) for (x, y, z) in queries], answer being
    # "independent" or "p_value", in one batch where the source has one.
    batch = getattr(src, "results", None)
    if batch is None:
        ask = getattr(src, answer)
        return [ask(*q) for q in queries]
    return [getattr(res, answer) for res in batch(queries)]


@dataclass(frozen=True)
class PcsResult:
    """Output of de_pcs: the superset and the recorded separating sets.

    dsep maps every removed variable to the set that separated it from the
    target (empty for Phase I, a singleton for Phase II).
    """

    pcs: frozenset
    dsep: dict


@dataclass(frozen=True)
class Skeleton:
    """Undirected structure over d nodes; pc sets are the edge neighborhoods."""

    d: int
    edges: frozenset
    pc: tuple = field(init=False)

    def __post_init__(self):
        edges = frozenset(
            (u, v) if u < v else (v, u) for u, v in self.edges
        )
        for u, v in edges:
            if u == v or not (0 <= u < self.d and 0 <= v < self.d):
                raise ValueError(f"bad skeleton edge ({u}, {v})")
        pc = [set() for _ in range(self.d)]
        for u, v in edges:
            pc[u].add(v)
            pc[v].add(u)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "pc", tuple(frozenset(s) for s in pc))


def _eliminate(target, src, members, given=()):
    # The survivors, in order, and {dropped: w}: each member x in turn is
    # dropped on the first other survivor w with the target independent of
    # x given {w} | given (de_pcs phase II and de_sps's shrinking pass).
    kept, dropped = list(members), {}
    for x in list(kept):
        for w in [v for v in kept if v != x]:
            if src.independent(target, x, tuple(sorted((w, *given)))):
                kept.remove(x)
                dropped[x] = w
                break
    return kept, dropped


def de_pcs(target, src, universe):
    """Parents-children superset by elimination with |Z| <= 1.

    Phase I removes variables marginally independent of the target; Phase II
    removes X on the first surviving singleton Y with T independent of X
    given Y. Removed variables keep their separating set in dsep.
    """
    pcs = [v for v in sorted(universe) if v != target]
    dsep = {}
    marginal = _ask_all(src, [(target, x, ()) for x in pcs], "independent")
    for x, independent in zip(list(pcs), marginal):
        if independent:
            pcs.remove(x)
            dsep[x] = frozenset()
    pcs, separated = _eliminate(target, src, pcs)
    dsep.update((x, frozenset((y,))) for x, y in separated.items())
    return PcsResult(pcs=frozenset(pcs), dsep=dsep)


def de_sps(target, src, universe, pcs, dsep):
    """Spouse superset with |Z| <= 2.

    For each X in pcs, the growing pass admits outside variables that become
    dependent on the target once X joins their separating set (collider
    activation); the shrinking pass drops Y on the first Z in the per-X set
    with T independent of Y given {X, Z}.
    """
    outside = [v for v in sorted(universe) if v != target and v not in pcs]
    sps = set()
    for x in sorted(pcs):
        queries = [(target, y, tuple(sorted(dsep[y] | {x}))) for y in outside]
        grown = _ask_all(src, queries, "independent")
        local = [y for y, independent in zip(outside, grown) if not independent]
        sps.update(_eliminate(target, src, local, (x,))[0])
    return frozenset(sps)


def _bh_significant(pvals, alpha):
    # Benjamini-Hochberg step-up: reject the nulls of the k most significant
    # entries where k is the largest rank with p_(k) <= alpha * k / m.
    m = len(pvals)
    if m == 0:
        return set()
    order = sorted(pvals, key=lambda t: (t[1], t[0]))
    kmax = 0
    for rank, (_, p) in enumerate(order, start=1):
        if p <= alpha * rank / m:
            kmax = rank
    return {v for v, _ in order[:kmax]}


def iamb_fdr(target, src, universe, alpha):
    """Markov-boundary estimate by grow/shrink with FDR control.

    Each sweep admits at most one candidate: the most significant one, and
    only if it survives a Benjamini-Hochberg step-up over all candidate
    p-values. Shrinking re-tests every member given the rest under the same
    criterion and drops the least significant failure, one at a time, until
    all members survive. Terminates when the boundary is stable (a
    visited-state guard stops grow/shrink oscillation on noisy input).
    """
    order = [v for v in sorted(universe) if v != target]
    mb = []
    seen_states = {frozenset()}
    while True:
        changed = False
        candidates = [v for v in order if v not in mb]
        if candidates:
            queries = [(target, v, tuple(mb)) for v in candidates]
            ps = list(zip(candidates, _ask_all(src, queries, "p_value")))
            survivors = _bh_significant(ps, alpha)
            if survivors:
                best = min((p, v) for v, p in ps if v in survivors)[1]
                mb.append(best)
                changed = True
        while mb:
            queries = [(target, v, tuple(u for u in mb if u != v)) for v in mb]
            ps = list(zip(mb, _ask_all(src, queries, "p_value")))
            survivors = _bh_significant(ps, alpha)
            failures = [(p, v) for v, p in ps if v not in survivors]
            if not failures:
                break
            mb.remove(max(failures)[1])
            changed = True
        state = frozenset(mb)
        if not changed or state in seen_states:
            return set(mb)
        seen_states.add(state)


def _separated(target, x, boundary, src, max_condset):
    """Whether some subset of boundary minus {x} separates x from target.

    boundary is the target's Markov boundary estimate (sorted), so it never
    holds the target. Subsets are tried in ascending size up to
    max_condset, in itertools.combinations order within a size; the first
    separating one ends the search (a source's first_independent may work
    ahead, but asks for no test after it).
    """
    others = [v for v in boundary if v != x]
    cap = len(others) if max_condset is None else min(max_condset, len(others))
    zsets = (
        zs for size in range(cap + 1) for zs in itertools.combinations(others, size)
    )
    first = getattr(src, "first_independent", None)
    if first is None:
        return any(src.independent(target, x, zs) for zs in zsets)
    return first(target, x, zsets, others) is not None


def _config(src, cfg):
    # the test config the caller gave, else the source's own, else default
    return cfg or getattr(src, "cfg", None) or TestConfig()


def hpc(target, src, universe=None, cfg=None):
    """Hybrid parents-children discovery around one target.

    Filters the universe down to {T} union PCS union SPS, runs FDR-IAPC
    there (the iamb_fdr boundary minus the members _separated prunes),
    then rescues each discarded PCS member X whose own FDR-IAPC (within
    the same restricted universe) contains the target. cfg (the FDR alpha
    and max_condset) defaults to the source's cfg, else TestConfig().
    """
    if universe is None:
        universe = range(src.n_vars)
    return _hpc(target, src, universe, _config(src, cfg), frozenset())


def _hpc(target, src, universe, cfg, settled):
    # hpc with the members of settled left out untested. Removing one
    # member of the fixed boundary, and rescuing one PCS member, are each
    # decided on their own, so the answer for every other variable is the
    # one hpc gives. The rescue asks only whether the target survives in
    # FDR-IAPC(x), not for the rest of that set.
    universe = sorted(universe)
    res = de_pcs(target, src, universe)
    sps = de_sps(target, src, universe, res.pcs, res.dsep)
    restricted = sorted({target} | res.pcs | sps)
    mb = sorted(iamb_fdr(target, src, restricted, cfg.alpha))
    pc = {
        x for x in mb
        if x not in settled and not _separated(target, x, mb, src, cfg.max_condset)
    }
    for x in sorted(res.pcs - pc - settled):
        mbx = sorted(iamb_fdr(x, src, restricted, cfg.alpha))
        if target in mbx and not _separated(x, target, mbx, src, cfg.max_condset):
            pc.add(x)
    return pc


def build_skeleton(src, cfg=None, jobs=1, universe=None):
    """Whole-graph skeleton: run hpc per node, keep mutual edges (AND rule).

    Targets run in column order on the calling thread; jobs is accepted
    and has no effect. An edge {X, T} with X before T and T not in hpc(X)
    is already dropped, so hpc(T) skips X's subset search and OR rescue;
    the edges are those of plain hpc runs. cfg defaults as in hpc.
    """
    cfg = _config(src, cfg)
    nodes = sorted(set(universe if universe is not None else range(src.n_vars)))
    hpcs = {}
    for t in nodes:
        settled = frozenset(x for x, pc in hpcs.items() if t not in pc)
        hpcs[t] = _hpc(t, src, nodes, cfg, settled)
    edges = set()
    for x in nodes:
        for y in hpcs[x]:
            if y > x and x in hpcs[y]:
                edges.add((x, y))
    return Skeleton(d=src.n_vars, edges=frozenset(edges))


@dataclass(frozen=True)
class H2pcResult:
    """Output of h2pc: the AND-rule skeleton, the hill climb's SearchResult
    on it, and the source's distinct CI tests once the skeleton was built."""

    skeleton: Skeleton
    search: SearchResult
    ci_tests: int


def h2pc(src, score_cfg=None, universe=None):
    """H2PC: the AND-rule skeleton, then the tabu hill climb restricted to it.

    Reads three things off the source: its ``data`` (the dataset the search
    scores), its ``cfg`` (the test config of build_skeleton, TestConfig()
    where it has none) and its ``distinct_tests`` once the skeleton is
    built. Nodes outside universe (default: every node) are never tested
    and stay isolated in the skeleton and the DAG. score_cfg defaults as in
    hill_climb.
    """
    skeleton = build_skeleton(src, universe=universe)
    ci_tests = src.distinct_tests
    search = hill_climb(src.data, skeleton, score_cfg)
    return H2pcResult(skeleton=skeleton, search=search, ci_tests=ci_tests)


def write_skeleton(skel, names, path):
    """Serialize a skeleton: node names, unordered edges, per-node pc sets."""
    names = list(names)
    if len(names) != skel.d:
        raise ValueError("names do not match the skeleton")
    doc = {
        "nodes": names,
        "edges": [[names[u], names[v]] for u, v in sorted(skel.edges)],
        "pc": {
            names[v]: [names[w] for w in sorted(skel.pc[v])] for v in range(skel.d)
        },
    }
    write_json(doc, path)


def read_skeleton(path):
    """Parse a skeleton JSON file; returns (Skeleton, names)."""
    doc = read_json_object(path, {"nodes": list, "edges": list})
    names = [str(t) for t in doc["nodes"]]
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise DataError("duplicate skeleton node names")
    edges = name_pairs(doc["edges"], index, "skeleton edge")
    return Skeleton(d=len(names), edges=frozenset(edges)), names
