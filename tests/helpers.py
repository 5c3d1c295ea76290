"""Independent oracles and enumeration utilities shared by the tests.

Everything here is deliberately written from first principles (path
enumeration, covered-edge traversal, sequential Dirichlet predictive
products, high-precision integration) so that agreement with the package
is evidence, not tautology.
"""

import math
import threading
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import mpmath
import numpy as np
from hypothesis import strategies as st

from hybridbn.data import CategoricalDataset, DataError
from hybridbn.graphs import Dag, Pdag
from hybridbn.scoring import _IMPROVE_EPS, ScoreConfig, Scorer, SearchResult
from hybridbn.independence import TestConfig, _evaluate, _mi_and_dof_batch
from hybridbn.skeleton import PcsResult, Skeleton, de_pcs, de_sps, iamb_fdr
from hybridbn.synthetic import monotone_network

mpmath.mp.dps = 30


# ------------------------------------------------------------- fixtures


def from_array(rows, arities=None, names=None):
    """A CategoricalDataset of an integer matrix.

    Arities default to max+1 per column; tokens default to the decimal
    digits of the level indices; names default to v0, v1, ...
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise DataError("rows must be a 2-d array")
    if arities is None:
        if rows.shape[0] == 0:
            raise DataError("cannot infer arities from an empty matrix")
        arities = (rows.max(axis=0).astype(np.int64) + 1).tolist()
    if names is None:
        names = [f"v{i}" for i in range(rows.shape[1])]
    levels = [tuple(str(v) for v in range(a)) for a in arities]
    return CategoricalDataset(tuple(names), tuple(levels), rows)


def genbase_shape_network():
    """Six labels, each with two private feature parents and no label-label
    connection: every minimal powerset is a singleton."""
    edges = []
    for i in range(6):
        edges.append((2 * i, 12 + i))
        edges.append((2 * i + 1, 12 + i))
    names = [f"x{i}" for i in range(12)] + [f"y{i}" for i in range(6)]
    return monotone_network(Dag(18, edges), names=names)


# ---------------------------------------------------------------- graphs


@st.composite
def drawn_dags(draw, max_nodes=8, max_parents=3, min_nodes=1):
    """A DAG of min_nodes to max_nodes nodes: a node order, then for each
    node a subset of the nodes before it as parents, cut to max_parents."""
    d = draw(st.integers(min_nodes, max_nodes))
    order = draw(st.permutations(range(d)))
    edges = []
    for j, y in enumerate(order):
        picks = draw(st.lists(st.booleans(), min_size=j, max_size=j))
        parents = [x for x, pick in zip(order, picks) if pick]
        edges += [(x, y) for x in parents[:max_parents]]
    return Dag(d, edges)


def is_acyclic(d, edges):
    """True iff the candidate edge list over d nodes admits a topological
    order (Kahn's algorithm)."""
    indeg = [0] * d
    children = [[] for _ in range(d)]
    for u, v in edges:
        children[u].append(v)
        indeg[v] += 1
    queue = deque(v for v in range(d) if indeg[v] == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for w in children[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == d


def ancestors(g, nodes):
    """All ancestors of the given nodes, including the nodes themselves."""
    anc = set(nodes)
    stack = list(anc)
    while stack:
        v = stack.pop()
        for p in g.parents(v):
            if p not in anc:
                anc.add(p)
                stack.append(p)
    return anc


def d_separated(g, x, y, z):
    """Bayes-ball reachability: True iff every path between x and y is blocked.

    A path is blocked by z when some non-collider on it is in z, or some
    collider has neither itself nor any descendant in z.
    """
    z = frozenset(z)
    if x == y or x in z or y in z:
        raise ValueError("x, y must be distinct and disjoint from z")
    anc_z = ancestors(g, z)
    # states: (node, 1) reached moving up (from a child), (node, 0) moving down
    visited = set()
    queue = deque([(x, 1)])
    while queue:
        node, up = queue.popleft()
        if (node, up) in visited:
            continue
        visited.add((node, up))
        if node == y:
            return False
        if up:
            if node not in z:
                for p in g.parents(node):
                    queue.append((p, 1))
                for c in g.children(node):
                    queue.append((c, 0))
        else:
            if node not in z:
                for c in g.children(node):
                    queue.append((c, 0))
            if node in anc_z:
                for p in g.parents(node):
                    queue.append((p, 1))
    return True


def d_separated_sets(g, xs, ys, z):
    """Moralized-ancestral-graph d-separation for node sets.

    True iff z separates xs from ys in the moral graph of the ancestral
    subgraph induced by xs, ys and z. An independent route to the answer
    the Bayes-ball query d_separated gives for node pairs.
    """
    xs = frozenset(xs)
    ys = frozenset(ys)
    z = frozenset(z)
    if not xs or not ys:
        raise ValueError("xs and ys must be nonempty")
    if xs & ys or xs & z or ys & z:
        raise ValueError("xs, ys and z must be pairwise disjoint")
    keep = ancestors(g, xs | ys | z)
    adj = {v: set() for v in keep}
    for v in keep:
        pa = [p for p in g.parents(v) if p in keep]
        for p in pa:
            adj[p].add(v)
            adj[v].add(p)
        # marry co-parents
        for i in range(len(pa)):
            for j in range(i + 1, len(pa)):
                adj[pa[i]].add(pa[j])
                adj[pa[j]].add(pa[i])
    seen = set(xs)
    stack = list(xs)
    while stack:
        v = stack.pop()
        if v in ys:
            return False
        for w in adj[v]:
            if w not in z and w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def random_pdag(d, rng, p_directed=0.2, p_undirected=0.15):
    """Random partially directed graph (no acyclicity requirement)."""
    directed, undirected = [], []
    for u in range(d):
        for v in range(u + 1, d):
            roll = rng.random()
            if roll < p_directed:
                directed.append((u, v) if rng.random() < 0.5 else (v, u))
            elif roll < p_directed + p_undirected:
                undirected.append((u, v))
    return Pdag(d, directed, undirected)


def all_dags(d):
    """Every DAG on d labeled nodes, as a sorted tuple of directed edges."""
    pairs = list(combinations(range(d), 2))
    out = []
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (u, v), a in zip(pairs, assignment):
            if a == 1:
                edges.append((u, v))
            elif a == 2:
                edges.append((v, u))
        if is_acyclic(d, edges):
            out.append(tuple(sorted(edges)))
    return out


def v_structures(d, edges):
    """Canonical v-structure triples (min-parent, child, max-parent)."""
    parents = {v: set() for v in range(d)}
    adjacent = set()
    for u, v in edges:
        parents[v].add(u)
        adjacent.add((min(u, v), max(u, v)))
    out = set()
    for w in range(d):
        for a, b in combinations(sorted(parents[w]), 2):
            if (min(a, b), max(a, b)) not in adjacent:
                out.add((a, w, b))
    return frozenset(out)


def equivalence_key(d, edges):
    skeleton = frozenset((min(u, v), max(u, v)) for u, v in edges)
    return skeleton, v_structures(d, edges)


def covered_edge_class(d, edges):
    """All members of the Markov-equivalence class of (d, edges).

    Traverses the class by reversing covered edges (u -> v is covered when
    pa(v) = pa(u) + {u}); Chickering's transformational characterization
    says this reaches exactly the equivalent DAGs.
    """
    start = frozenset(edges)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        parents = {v: set() for v in range(d)}
        for u, v in cur:
            parents[v].add(u)
        for u, v in cur:
            if parents[v] == parents[u] | {u}:
                nxt = frozenset((cur - {(u, v)}) | {(v, u)})
                if nxt not in seen:
                    assert is_acyclic(d, nxt)
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def class_cpdag(d, members):
    """CPDAG of an equivalence class given all its members explicitly:
    orientations that vary across members become undirected edges."""
    any_member = next(iter(members))
    all_edges = {e for m in members for e in m}
    reversible = {(u, v) for u, v in any_member if (v, u) in all_edges}
    return Pdag(d, directed=set(any_member) - reversible, undirected=reversible)


_cpdag_memo = {}


def brute_force_cpdag(d, edges):
    """CPDAG by explicit class enumeration, memoized across class members."""
    key = (d, frozenset(edges))
    hit = _cpdag_memo.get(key)
    if hit is None:
        members = covered_edge_class(d, edges)
        hit = class_cpdag(d, members)
        for m in members:
            _cpdag_memo[(d, m)] = hit
    return hit


def _meek_orients(g, directed, undirected, a, b):
    # True when Meek's rule 1, 2 or 3 orients the undirected edge a-b as a->b.
    # Orienting keeps the skeleton, so adjacency is read off the Dag g.
    # R1: c -> a, c and b nonadjacent
    for c, w in directed:
        if w == a and not g.adjacent(c, b):
            return True
    # R2: a -> c -> b
    for c, w in directed:
        if c == a and (w, b) in directed:
            return True
    # R3: a - c -> b and a - d -> b with c, d nonadjacent
    und_a = {v if u == a else u for u, v in undirected if a in (u, v)}
    into_b = {u for u, w in directed if w == b}
    spokes = sorted(und_a & into_b)
    for c, d in combinations(spokes, 2):
        if not g.adjacent(c, d):
            return True
    return False


def meek_cpdag(g):
    """CPDAG of the Dag g by Meek's closure (Meek 1995): the edges of g's
    v-structures start directed, the rest undirected, and rules 1-3 orient
    undirected edges until none applies. Polynomial, so it reaches DAGs far
    past brute_force_cpdag's enumeration."""
    directed = set()
    for w in range(g.d):
        for u, v in combinations(g.parents(w), 2):
            if not g.adjacent(u, v):
                directed.update([(u, w), (v, w)])
    undirected = {(min(e), max(e)) for e in g.edges() if e not in directed}
    changed = True
    while changed:
        changed = False
        for a, b in sorted(undirected):
            for u, v in ((a, b), (b, a)):
                if _meek_orients(g, directed, undirected, u, v):
                    undirected.remove((a, b))
                    directed.add((u, v))
                    changed = True
                    break
    return Pdag(g.d, directed, undirected)


def descendants(d, edges, node):
    children = {v: set() for v in range(d)}
    for u, v in edges:
        children[u].add(v)
    out = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        for w in children[cur]:
            if w not in out:
                out.add(w)
                stack.append(w)
    return out


def dsep_by_paths(g, x, y, z):
    """d-separation by enumerating all simple undirected paths.

    A path is open iff every interior collider is in z or has a descendant
    in z, and no interior non-collider is in z. Exponential; small graphs
    only.
    """
    d = g.d
    edges = set(g.edges())
    z = frozenset(z)
    neighbors = {v: set() for v in range(d)}
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    unblocks = {m: bool(({m} | descendants(d, edges, m)) & z) for m in range(d)}

    def path_open(path):
        for i in range(1, len(path) - 1):
            a, m, b = path[i - 1], path[i], path[i + 1]
            collider = (a, m) in edges and (b, m) in edges
            if collider:
                if not unblocks[m]:
                    return False
            else:
                if m in z:
                    return False
        return True

    stack = [(x, [x])]
    while stack:
        node, path = stack.pop()
        if node == y:
            if path_open(path):
                return False
            continue
        for w in neighbors[node]:
            if w not in path:
                stack.append((w, path + [w]))
    return True


def true_skeleton(dag):
    return Skeleton(
        d=dag.d,
        edges=frozenset((min(u, v), max(u, v)) for u, v in dag.edges()),
    )


def random_pdag_pair(rng, d):
    return random_pdag(d, rng), random_pdag(d, rng)


def adjacency_pairs(p):
    """The (min, max) node pairs adjacent in the PDAG p."""
    return p.undirected | {(u, v) if u < v else (v, u) for u, v in p.directed}


def _pair_status(p, u, v):
    # u < v assumed; None, "und", "uv" or "vu"
    if (u, v) in p.undirected:
        return "und"
    if (u, v) in p.directed:
        return "uv"
    if (v, u) in p.directed:
        return "vu"
    return None


def reference_shd(a, b):
    """shd as first written: one unit per node pair adjacent in either PDAG
    whose status (absent, undirected, or directed one way) differs."""
    return sum(_pair_status(a, *pair) != _pair_status(b, *pair)
               for pair in adjacency_pairs(a) | adjacency_pairs(b))


# -------------------------------------------------------------- skeleton


def reference_de_pcs(target, src, universe):
    """de_pcs as first written: every test asked one at a time, phase I's
    marginal tests first, then phase II's loop."""
    pcs = [v for v in sorted(universe) if v != target]
    dsep = {}
    for x in list(pcs):
        if src.independent(target, x, ()):
            pcs.remove(x)
            dsep[x] = frozenset()
    for x in list(pcs):
        for y in [w for w in pcs if w != x]:
            if src.independent(target, x, (y,)):
                pcs.remove(x)
                dsep[x] = frozenset((y,))
                break
    return PcsResult(pcs=frozenset(pcs), dsep=dsep)


def reference_de_sps(target, src, universe, pcs, dsep):
    """de_sps as first written: per X in pcs, the growing tests one at a
    time, then the shrinking loop."""
    outside = [v for v in sorted(universe) if v != target and v not in pcs]
    sps = set()
    for x in sorted(pcs):
        local = [
            y for y in outside
            if not src.independent(target, y, tuple(sorted(dsep[y] | {x})))
        ]
        for y in list(local):
            for z in [w for w in local if w != y]:
                if src.independent(target, y, tuple(sorted((x, z)))):
                    local.remove(y)
                    break
        sps.update(local)
    return frozenset(sps)


def reference_fdr_iapc(target, src, universe, alpha, max_condset=None):
    """fdr_iapc with the subset search spelled out for every member."""
    mb = sorted(iamb_fdr(target, src, universe, alpha))
    pc = set(mb)
    for x in mb:
        others = [v for v in mb if v != x]
        cap = len(others) if max_condset is None else min(max_condset, len(others))
        separated = False
        for size in range(cap + 1):
            for zs in combinations(others, size):
                if src.independent(target, x, zs):
                    separated = True
                    break
            if separated:
                break
        if separated:
            pc.discard(x)
    return pc


def reference_hpc(target, src, universe=None, cfg=None):
    """hpc whose OR phase runs the whole fdr_iapc of every discarded PCS
    member and then looks for the target in it. cfg defaults as in hpc."""
    cfg = cfg or getattr(src, "cfg", None) or TestConfig()
    if universe is None:
        universe = range(src.n_vars)
    universe = sorted(universe)
    res = de_pcs(target, src, universe)
    sps = de_sps(target, src, universe, res.pcs, res.dsep)
    restricted = sorted({target} | res.pcs | sps)
    pc = reference_fdr_iapc(target, src, restricted, cfg.alpha, cfg.max_condset)
    for x in sorted(res.pcs - pc):
        if target in reference_fdr_iapc(x, src, restricted, cfg.alpha, cfg.max_condset):
            pc.add(x)
    return pc


def reference_build_skeleton(src, cfg=None, universe=None):
    """AND-rule skeleton from a full reference_hpc run around every node."""
    cfg = cfg or getattr(src, "cfg", None) or TestConfig()
    nodes = sorted(universe if universe is not None else range(src.n_vars))
    hpcs = {t: reference_hpc(t, src, nodes, cfg) for t in nodes}
    edges = set()
    for x in nodes:
        for y in hpcs[x]:
            if y > x and x in hpcs[y]:
                edges.add((x, y))
    return Skeleton(d=src.n_vars, edges=frozenset(edges))


# ---------------------------------------------------------------- search


def _reference_legal_moves(dag, skeleton):
    # Deterministic enumeration: adds (skeleton-constrained), then deletes,
    # then reverses; each ordered by (source, target). An add or a reverse
    # is legal when its candidate edge list is acyclic.
    d = dag.d
    edges = dag.edges()
    for u in range(d):
        for v in sorted(skeleton.pc[u]):
            if not dag.adjacent(u, v) and is_acyclic(d, edges + [(u, v)]):
                yield ("add", u, v)
    for u, v in edges:
        yield ("delete", u, v)
    for u, v in edges:
        rest = [e for e in edges if e != (u, v)]
        if is_acyclic(d, rest + [(v, u)]):
            yield ("reverse", u, v)


_REFERENCE_OP_RANK = {"add": 0, "delete": 1, "reverse": 2}


def reference_hill_climb(data, skeleton, cfg=None, scorer=None):
    """The tabu hill climb as first written: every step enumerates every
    legal move (one acyclicity check per add and reverse), rescores each
    one, builds its edge set for the tabu check and rebuilds the Dag. The
    package's incremental search must return the same result."""
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
        for op, u, v in _reference_legal_moves(dag, skeleton):
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
            key = (-delta, _REFERENCE_OP_RANK[op], u, v)
            if best_key is None or key < best_key:
                best_key = key
                best_move = (op, u, v, delta, result)
        if best_move is None:
            stop = "no_move"
            break
        op, u, v, delta, result = best_move
        dag = Dag(d, result)
        if op == "reverse":
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


# ------------------------------------------------------------ statistics


def total_score(data, g, cfg=None):
    """Sum of local scores over all node families."""
    return Scorer(data, cfg).total(g)


def _mi_and_dof(counts):
    # n, the mutual information and the adjusted dof of one (r, c, l) count
    # array, by the package's statistic kernel
    n = int(counts.sum())
    if n <= 0:
        raise ValueError("table is empty")
    (mi,), (dof,) = _mi_and_dof_batch(counts, [counts.shape[2]], n)
    return n, mi, dof


def mutual_information(counts):
    """Conditional mutual information, in nats, of the (r, c, l) counts that
    count_table(data, (x, y), z) returns, by the package's kernel.

    MI = sum_ijk (n_ijk / n) * ln(n_ijk * n_++k / (n_i+k * n_+jk)); terms
    with n_ijk = 0 contribute 0. An all-zero table raises ValueError.
    """
    return _mi_and_dof(counts)[1]


def g2_statistic(counts):
    """G2 statistic (2n times MI) and the adjusted degrees of freedom of the
    (r, c, l) counts, by the package's kernel."""
    n, mi, dof = _mi_and_dof(counts)
    return 2.0 * n * mi, dof


def test_independence(data, x, y, z=(), cfg=None):
    """The package's verdict on whether x and y are conditionally
    independent given z: its one evaluator on the one key (x, y, z).

    Follows the two-heuristic protocol: the power rule first (independent
    with p_value 1 when the table is too sparse on average), then the G2
    test with per-stratum degrees-of-freedom adjustment; dof <= 0 carries
    no evidence of dependence and is returned as independent.
    """
    return _evaluate(data, cfg or TestConfig(), [(x, y, tuple(z))])[0]


# not a test: pytest would otherwise collect it in each test module that
# imports it by this name
test_independence.__test__ = False


def chi2_sf_oracle(x, dof):
    """Upper-tail chi-square probability by high-precision integration."""
    return float(mpmath.gammainc(mpmath.mpf(dof) / 2, a=mpmath.mpf(x) / 2,
                                 regularized=True))


@cache
def temme_table(k_max=25, n_max=25):
    """The coefficients d[k][n] of Temme's expansion (DLMF 8.12.12) for
    k < k_max and n < n_max, as exact rationals.

    The steps follow scipy's _precompute/gammainc_asy.py in exact
    arithmetic, except that alpha comes from a recurrence, not Lagrange
    inversion:

    - lambda(eta) = sum alpha_m eta^m inverts eta^2 / 2 = lambda -
      log(1 + lambda), eta of lambda's sign (DLMF 8.12.1, shifted to 0).
      Differentiating gives lambda lambda' = eta (1 + lambda), whose
      coefficients give each alpha_m (DLMF 8.12.13) from those before it,
      starting at alpha_1 = 1;
    - d[0][n] = (n + 2) alpha_(n+2), except d[0][0] = -1/3;
    - d[k][n] = (-1)^k g_k d[0][n] + (n + 2) d[k-1][n+2], with Stirling's
      g_k (DLMF 5.11.3) from the a_k of DLMF 5.11.6. Those live in Q(sqrt 2)
      and are kept as pairs (p, q) = p + q sqrt 2; sqrt 2 a_2k is rational.
    """
    m = n_max + 2 * k_max
    alpha = [Fraction(0), Fraction(1)]
    for j in range(2, m + 2):
        s = alpha[j - 1] - sum((j + 1 - i) * alpha[i] * alpha[j + 1 - i]
                               for i in range(2, j))
        alpha.append(s / (j + 1))
    d0 = [Fraction(-1, 3)] + [(n + 2) * alpha[n + 2] for n in range(1, m)]

    a = [(Fraction(0), Fraction(1, 2))]  # a_0 = sqrt(2) / 2
    for k in range(1, 2 * k_max):
        p, q = a[-1][0] / k, a[-1][1] / k
        for j in range(1, k):
            (p1, q1), (p2, q2) = a[j], a[k - j]
            p -= (p1 * p2 + 2 * q1 * q2) / (j + 1)
            q -= (p1 * q2 + q1 * p2) / (j + 1)
        c = 1 + Fraction(1, k + 1)  # dividing by a_0 c multiplies by sqrt 2
        a.append((2 * q / c, p / c))
    g = []
    rising = Fraction(1)  # (1/2)_k
    for k in range(k_max):
        p, q = a[2 * k]
        assert p == 0
        g.append(2 * rising * q)  # sqrt(2) (1/2)_k a_2k
        rising *= Fraction(1, 2) + k

    d = [d0]
    for k in range(1, k_max):
        d.append([(-1) ** k * g[k] * d0[n] + (n + 2) * d[k - 1][n + 2]
                  for n in range(m - 2 * k)])
    return tuple(tuple(row[:n_max]) for row in d)

def mi_brute(counts):
    """Conditional mutual information by explicit loops over the table."""
    counts = np.asarray(counts)
    r, c, l = counts.shape
    n = counts.sum()
    total = 0.0
    for k in range(l):
        stratum = counts[:, :, k]
        nk = stratum.sum()
        for i in range(r):
            for j in range(c):
                nij = stratum[i, j]
                if nij > 0:
                    total += nij * math.log(
                        nij * nk / (stratum[i, :].sum() * stratum[:, j].sum())
                    )
    return total / n


def tally_contingency(rows, x, y, z):
    """Brute-force dict tally of (X, Y, Z-config) triples."""
    strata = {}
    for row in rows:
        key = tuple(int(row[v]) for v in z)
        strata.setdefault(key, []).append((int(row[x]), int(row[y])))
    return strata


def reference_config_codes(rows, arities):
    """Dense observed-configuration codes by sorting (np.unique inverse).

    Mixed-radix codes in int64, compressed with np.unique only when the next
    product would pass 2**62: the algorithm ``observed_config_codes`` runs
    too, so tests/test_kernel.py also checks the ranker against each row's
    index among the sorted distinct rows. ``reference_contingency`` ranks
    its Z-configurations with it.
    """
    rows = np.asarray(rows)
    n, m = rows.shape
    if m == 0:
        return np.zeros(n, dtype=np.int64), 1
    code = rows[:, 0].astype(np.int64)
    cap = int(arities[0])
    for t in range(1, m):
        a = int(arities[t])
        if cap * a >= 2**62:
            _, code = np.unique(code, return_inverse=True)
            cap = int(code.max()) + 1 if n else 1
        code = code * a + rows[:, t]
        cap *= a
    _, codes = np.unique(code, return_inverse=True)
    l = int(codes.max()) + 1 if n else 0
    return codes.astype(np.int64), l


def reference_load_csv(path, delimiter=","):
    """``load_csv`` as first written: one NumPy store per cell inside a
    row-by-row loop, so the first bad row in file order is the one met
    first."""
    import csv

    with open(path, newline="", encoding="utf-8-sig") as fh:
        physical = list(csv.reader(fh, delimiter=delimiter))
    if not physical:
        raise DataError(f"empty file: {path}")
    names = [t.strip() for t in physical[0]]
    body = physical[1:]
    d = len(names)
    if not body:
        raise DataError(f"no data rows in {path}")
    tokens = [[] for _ in range(d)]
    index = [{} for _ in range(d)]
    rows = np.empty((len(body), d), dtype=np.int32)
    for rix, row in enumerate(body):
        if len(row) != d:
            raise DataError(
                f"ragged row {rix + 2}: expected {d} fields, got {len(row)}"
            )
        for cix, raw in enumerate(row):
            tok = raw.strip()
            if tok == "":
                raise DataError(
                    f"missing value at row {rix + 2}, column {names[cix]!r}"
                )
            level = index[cix].get(tok)
            if level is None:
                level = len(tokens[cix])
                index[cix][tok] = level
                tokens[cix].append(tok)
            rows[rix, cix] = level
    if d == 0:
        raise DataError(f"no column names on line 1 of {path}")
    for cix in range(d):
        if len(tokens[cix]) < 2:
            raise DataError(f"constant column {names[cix]!r}")
    return CategoricalDataset(tuple(names), tuple(tuple(t) for t in tokens), rows)


def reference_forward_sample(net, n, seed):
    """The rows of ``forward_sample`` as first written: a node's level is the
    number of its column's r cumulative boundaries that the uniform draw
    passes, clamped to r - 1, with the parent configuration from
    ``np.ravel_multi_index``. The draws are consumed as the package does:
    one generator, nodes in its topological order."""
    rng = np.random.default_rng(seed)
    arities = net.arities
    rows = np.zeros((n, net.d), dtype=np.int32)
    for v in net.graph.order:
        u = rng.random(n)
        pa = net.graph.parents(v)
        if pa:
            codes = np.ravel_multi_index(tuple(rows[:, p] for p in pa),
                                         [arities[p] for p in pa])
        else:
            codes = np.zeros(n, dtype=np.int64)
        cdf = np.cumsum(net.cpts[v], axis=0)
        levels = (u[:, None] > cdf[:, codes].T).sum(axis=1)
        rows[:, v] = np.minimum(levels, arities[v] - 1)
    return rows


def reference_write_csv(data, path):
    """write_csv as first written: one csv row per dataset row, a token
    lookup per cell."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(data.names)
        for row in data.rows:
            writer.writerow([data.levels[i][v] for i, v in enumerate(row)])


def reference_contingency(data, x, y, z=()):
    """Contingency table from strided int32 row reads and sorted codes: the
    (r, c, l) count array."""
    z = tuple(z)
    r, c = data.arities[x], data.arities[y]
    codes, l = reference_config_codes(
        data.rows[:, list(z)], [data.arities[v] for v in z]
    )
    flat = (data.rows[:, x].astype(np.int64) * c + data.rows[:, y]) * l + codes
    return np.bincount(flat, minlength=r * c * l).reshape(r, c, l)


def reference_g2_statistic(table):
    """G2 statistic and adjusted dof of an (r, c, l) count array as first
    written: the mutual information and the dof each from their own
    marginals."""
    n = int(table.sum())
    counts = table.astype(float)
    ni_k = counts.sum(axis=1, keepdims=True)
    n_jk = counts.sum(axis=0, keepdims=True)
    n__k = counts.sum(axis=(0, 1), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = counts * n__k / (ni_k * n_jk)
        terms = np.where(counts > 0, counts * np.log(ratio), 0.0)
    mi = float(terms.sum() / n)
    nonzero_rows = (table.sum(axis=1) > 0).sum(axis=0)
    nonzero_cols = (table.sum(axis=0) > 0).sum(axis=0)
    per_stratum = np.maximum(nonzero_rows - 1, 0) * np.maximum(nonzero_cols - 1, 0)
    return 2.0 * n * mi, int(per_stratum.sum())


def reference_test_independence(data, x, y, z=(), cfg=None):
    """``test_independence`` on the reference table and G2 path."""
    from hybridbn.independence import TestConfig, TestResult, chi2_survival

    cfg = cfg or TestConfig()
    z = tuple(z)
    r, c = data.arities[x], data.arities[y]
    table = reference_contingency(data, x, y, z)
    if cfg.power_cells == "nominal":
        cells = r * c * math.prod(data.arities[v] for v in z)
    else:
        cells = r * c * table.shape[2]
    if data.n / cells < cfg.power_threshold:
        return TestResult(1.0, 0.0, 0, True, True)
    stat, dof = reference_g2_statistic(table)
    if dof <= 0:
        return TestResult(1.0, stat, dof, False, True)
    p = chi2_survival(stat, dof)
    return TestResult(p, stat, dof, False, p > cfg.alpha)


def dm_log_marginal(counts, alphas):
    """Dirichlet-multinomial log marginal likelihood, computed as the
    product of sequential predictive probabilities (no gamma functions)."""
    total = 0.0
    for cnt, a in zip(counts, alphas):
        for i in range(int(cnt)):
            total += math.log(a + i)
    a_sum = float(sum(alphas))
    for i in range(int(sum(counts))):
        total -= math.log(a_sum + i)
    return total


def bdeu_family_oracle(data, node, parents, ess):
    """BDeu local score built from the Dirichlet-multinomial oracle."""
    r = data.arities[node]
    parents = sorted(parents)
    q = 1
    for p in parents:
        q *= data.arities[p]
    strata = {}
    for row in data.rows:
        key = tuple(int(row[p]) for p in parents)
        strata.setdefault(key, [0] * r)[int(row[node])] += 1
    a_jk = ess / (q * r)
    return sum(dm_log_marginal(cells, [a_jk] * r) for cells in strata.values())


# ------------------------------------------------------- instrumentation


class RecordingSource:
    """IndependenceSource wrapper that records conditioning-set sizes and
    the threads that asked."""

    def __init__(self, inner):
        self.inner = inner
        self.max_z = -1
        self.calls = 0
        self.threads = set()

    @property
    def n_vars(self):
        return self.inner.n_vars

    @property
    def data(self):
        return self.inner.data

    @property
    def distinct_tests(self):
        return self.inner.distinct_tests

    def _note(self, z):
        self.calls += 1
        self.threads.add(threading.get_ident())
        size = len(tuple(z))
        if size > self.max_z:
            self.max_z = size

    def independent(self, x, y, z=()):
        self._note(z)
        return self.inner.independent(x, y, z)

    def p_value(self, x, y, z=()):
        self._note(z)
        return self.inner.p_value(x, y, z)


class QueryLog:
    """IndependenceSource wrapper that logs every (x, y, z) it is asked, one
    at a time or in a ``results`` batch, in the order asked. It answers
    ``results`` only where the inner source does."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = []
        if hasattr(inner, "results"):
            self.results = self._results

    @property
    def n_vars(self):
        return self.inner.n_vars

    def independent(self, x, y, z=()):
        self.queries.append((x, y, tuple(z)))
        return self.inner.independent(x, y, z)

    def p_value(self, x, y, z=()):
        self.queries.append((x, y, tuple(z)))
        return self.inner.p_value(x, y, z)

    def _results(self, queries):
        queries = list(queries)
        self.queries += [(x, y, tuple(z)) for x, y, z in queries]
        return self.inner.results(queries)


class ReferenceSource:
    """IndependenceSource that runs ``reference_test_independence`` once per
    canonical key (min(x, y), max(x, y), sorted z), one test at a time: it
    has no batch queries, so the discovery loops ask it test by test. Its
    cache holds the keys in the order first asked."""

    def __init__(self, data, cfg=None):
        self.data = data
        self.cfg = cfg or TestConfig()
        self._cache = {}

    @property
    def n_vars(self):
        return self.data.d

    @property
    def distinct_tests(self):
        return len(self._cache)

    def result(self, x, y, z=()):
        key = (min(x, y), max(x, y), tuple(sorted(z)))
        if key not in self._cache:
            self._cache[key] = reference_test_independence(self.data, *key, self.cfg)
        return self._cache[key]

    def independent(self, x, y, z=()):
        return self.result(x, y, z).independent

    def p_value(self, x, y, z=()):
        return self.result(x, y, z).p_value


class DSeparationSource:
    """Independence oracle backed by d-separation on a known DAG.

    p-values collapse to 0 (dependent) or 1 (independent), which makes the
    FDR machinery behave exactly on oracle input.
    """

    def __init__(self, dag):
        self.dag = dag
        self._cache = {}

    @property
    def n_vars(self):
        return self.dag.d

    def independent(self, x, y, z=()):
        key = (x, y) if x < y else (y, x)
        key = key + (frozenset(z),)
        hit = self._cache.get(key)
        if hit is None:
            hit = d_separated(self.dag, key[0], key[1], key[2])
            self._cache[key] = hit
        return hit

    def p_value(self, x, y, z=()):
        return 1.0 if self.independent(x, y, z) else 0.0


# ------------------------------------------------------------ multilabel


def set_partitions(items):
    """All set partitions of a sequence (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def reference_label_powersets(g, labels):
    """Minimal label powersets by depth-first search: an adjacency dict of
    the linked label pairs (adjacent in g, or with a common child outside
    the labels), walked with a stack. Blocks are sorted tuples, sorted by
    smallest member."""
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


def markov_sets(g):
    """(pc, sp) for every node of g: pc[v] holds v's parents and children,
    sp[v] its spouses (the other parents of its children); v's Markov
    blanket is pc[v] | sp[v]."""
    pc = [frozenset(g.parents(v) + g.children(v)) for v in range(g.d)]
    sp = []
    for v in range(g.d):
        s = set()
        for c in g.children(v):
            s.update(g.parents(c))
        s.discard(v)
        sp.append(frozenset(s))
    return tuple(pc), tuple(sp)


def brute_min_partition(g, labels):
    """Finest partition of the labels into blocks that are d-separated from
    the remaining labels given all features; asserts uniqueness."""
    labels = sorted(labels)
    features = [v for v in range(g.d) if v not in set(labels)]

    def valid(partition):
        for block in partition:
            others = [y for y in labels if y not in set(block)]
            if others and not d_separated_sets(g, block, others, features):
                return False
        return True

    best = None
    for partition in set_partitions(labels):
        if valid(partition):
            if best is None or len(partition) > len(best):
                best = partition
    assert best is not None  # the one-block partition is always valid
    finest = sorted(tuple(sorted(b)) for b in best)
    ties = [
        p for p in set_partitions(labels)
        if len(p) == len(best) and valid(p)
    ]
    assert len(ties) == 1, f"finest valid partition is not unique: {ties}"
    return finest


def blanket_and_minimal(g, block, labels, boundary):
    """Check that a block boundary is a Markov blanket of the block in the
    true DAG (given the remaining features) and that no member is
    redundant, i.e. the boundary is minimal."""
    features = [v for v in range(g.d) if v not in set(labels)]
    boundary = sorted(boundary)
    rest = [v for v in features if v not in set(boundary)]
    if rest and not d_separated_sets(g, block, rest, boundary):
        return False
    for m in boundary:
        reduced = [v for v in boundary if v != m]
        other = rest + [m]
        if d_separated_sets(g, block, other, reduced):
            return False
    return True


def random_dataset(rng, d, n, max_arity=2):
    arities = [int(rng.integers(2, max_arity + 1)) for _ in range(d)]
    rows = np.column_stack(
        [rng.integers(0, a, size=n, dtype=np.int32) for a in arities]
    )
    return from_array(rows, arities=arities)


def reference_powerset_tables(train, block, features, smoothing=1.0):
    """(classes, log_prior, log_like) of a powerset naive Bayes, tallied
    with its own ``bincount`` over the raw rows: the class index of each
    row comes from ``np.unique``, and feature counts are bucketed by
    class * arity + level. fit_powerset_classifier must give equal arrays."""
    sub = train.rows[:, list(block)]
    classes, y = np.unique(sub, axis=0, return_inverse=True)
    y = y.ravel()
    k = len(classes)
    n_c = np.bincount(y, minlength=k).astype(float)
    log_prior = np.log(n_c / train.n)
    log_like = []
    with np.errstate(divide="ignore"):
        for f in features:
            a = train.arities[f]
            counts = np.bincount(y * a + train.rows[:, f], minlength=k * a)
            counts = counts.reshape(k, a).astype(float) + smoothing
            log_like.append(np.log(counts / counts.sum(axis=1, keepdims=True)))
    classes = tuple(tuple(int(v) for v in row) for row in classes)
    return classes, log_prior, log_like


def predict_mpe(classifiers, row):
    """Joint most probable label assignment for one row.

    The blocks must be disjoint; the prediction is the concatenation of the
    per-block argmax combinations, returned as {label index: value}.
    """
    seen = set()
    for clf in classifiers:
        overlap = seen & set(clf.block)
        if overlap:
            raise ValueError(f"blocks overlap on {sorted(overlap)}")
        seen |= set(clf.block)
    row = np.asarray(row).reshape(1, -1)
    out = {}
    for clf in classifiers:
        combo = clf.predict(row)[0]
        for lbl, val in zip(clf.block, combo):
            out[lbl] = int(val)
    return out
