"""Independent oracles and enumeration utilities shared by the tests.

Everything here is deliberately written from first principles (path
enumeration, covered-edge traversal, sequential Dirichlet predictive
products, high-precision integration) so that agreement with the package
is evidence, not tautology.
"""

import math
import threading
from collections import deque
from itertools import combinations, product

import mpmath
import numpy as np

from hybridbn.graphs import Dag, Pdag
from hybridbn.scoring import _IMPROVE_EPS, ScoreConfig, Scorer, SearchResult
from hybridbn.independence import TestConfig
from hybridbn.skeleton import PcsResult, Skeleton, de_pcs, de_sps, iamb_fdr

mpmath.mp.dps = 30


# ---------------------------------------------------------------- graphs


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


def remove_edge(g, u, v):
    """Delete the edge u -> v of the Dag g."""
    if v not in g.children(u):
        raise ValueError(f"no edge {u}->{v}")
    g._children[u].remove(v)
    g._parents[v].remove(u)


def reverse_edge(g, u, v):
    """Turn the edge u -> v of the Dag g into v -> u; when that closes a
    cycle, g keeps u -> v and the ValueError is raised."""
    remove_edge(g, u, v)
    try:
        g.add_edge(v, u)
    except ValueError:
        g.add_edge(u, v)
        raise


def copy_pdag(p):
    """An independent copy of the Pdag p."""
    return Pdag(p.d, directed=p.directed, undirected=p.undirected)


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
    p = Pdag(d)
    for u in range(d):
        for v in range(u + 1, d):
            roll = rng.random()
            if roll < p_directed:
                if rng.random() < 0.5:
                    p.add_directed(u, v)
                else:
                    p.add_directed(v, u)
            elif roll < p_directed + p_undirected:
                p.add_undirected(u, v)
    return p


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
    p = Pdag(d)
    for u, v in any_member:
        if (v, u) in all_edges:
            if not p.adjacent(u, v):
                p.add_undirected(u, v)
        else:
            p.add_directed(u, v)
    return p


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
        remove_edge(dag, u, v)
        reversible = not dag.has_path(u, v)
        dag.add_edge(u, v)
        if reversible:
            yield ("reverse", u, v)


_REFERENCE_OP_RANK = {"add": 0, "delete": 1, "reverse": 2}


def reference_hill_climb(data, skeleton, cfg=None, scorer=None):
    """The tabu hill climb as first written: every step enumerates every
    legal move (one DFS per add and reverse), rescores each one and builds
    its edge set for the tabu check. The package's incremental search must
    return the same result."""
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
        if op == "add":
            dag.add_edge(u, v)
        elif op == "delete":
            remove_edge(dag, u, v)
        else:
            reverse_edge(dag, u, v)
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


def chi2_sf_oracle(x, dof):
    """Upper-tail chi-square probability by high-precision integration."""
    return float(mpmath.gammainc(mpmath.mpf(dof) / 2, a=mpmath.mpf(x) / 2,
                                 regularized=True))


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

    The straightforward version of ``observed_config_codes``: mixed-radix
    codes in int64, compressed with np.unique only when the next product
    would pass 2**62.
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

    from hybridbn.data import CategoricalDataset, DataError

    with open(path, newline="", encoding="utf-8") as fh:
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
    from hybridbn.graphs import topological_order

    rng = np.random.default_rng(seed)
    arities = net.arities
    rows = np.zeros((n, net.d), dtype=np.int32)
    for v in topological_order(net.graph):
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
    """Contingency table from strided int32 row reads and sorted codes."""
    from hybridbn.data import ContingencyTable

    z = tuple(z)
    r, c = data.arity(x), data.arity(y)
    codes, l = reference_config_codes(
        data.rows[:, list(z)], [data.arity(v) for v in z]
    )
    flat = (data.rows[:, x].astype(np.int64) * c + data.rows[:, y]) * l + codes
    counts = np.bincount(flat, minlength=r * c * l).reshape(r, c, l)
    return ContingencyTable(r=r, c=c, l=l, counts=counts, n=data.n)


def reference_g2_statistic(table):
    """G2 statistic and adjusted dof as first written: the mutual
    information and the dof each from their own marginals."""
    counts = table.counts.astype(float)
    ni_k = counts.sum(axis=1, keepdims=True)
    n_jk = counts.sum(axis=0, keepdims=True)
    n__k = counts.sum(axis=(0, 1), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = counts * n__k / (ni_k * n_jk)
        terms = np.where(counts > 0, counts * np.log(ratio), 0.0)
    mi = float(terms.sum() / table.n)
    nonzero_rows = (table.counts.sum(axis=1) > 0).sum(axis=0)
    nonzero_cols = (table.counts.sum(axis=0) > 0).sum(axis=0)
    per_stratum = np.maximum(nonzero_rows - 1, 0) * np.maximum(nonzero_cols - 1, 0)
    return 2.0 * table.n * mi, int(per_stratum.sum())


def reference_test_independence(data, x, y, z=(), cfg=None):
    """``test_independence`` on the reference table and G2 path."""
    from hybridbn.independence import TestConfig, TestResult, chi2_survival

    cfg = cfg or TestConfig()
    z = tuple(z)
    r, c = data.arity(x), data.arity(y)
    table = reference_contingency(data, x, y, z)
    if cfg.power_cells == "nominal":
        cells = r * c * math.prod(data.arity(v) for v in z)
    else:
        cells = r * c * table.l
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
    r = data.arity(node)
    parents = sorted(parents)
    q = 1
    for p in parents:
        q *= data.arity(p)
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
    from hybridbn.data import CategoricalDataset

    arities = [int(rng.integers(2, max_arity + 1)) for _ in range(d)]
    rows = np.column_stack(
        [rng.integers(0, a, size=n, dtype=np.int32) for a in arities]
    )
    return CategoricalDataset.from_array(rows, arities=arities)


def dag_from_edges(d, edges):
    return Dag(d, edges)


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
            a = train.arity(f)
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
