"""Directed graphs over integer node ids: DAGs, PDAGs, Markov sets, DOT."""

import heapq
from dataclasses import dataclass


class Dag:
    """Directed acyclic graph; mutations validate acyclicity.

    Nodes are 0..d-1. Edges are held as parent and child sets per node;
    add_edge rejects an edge that closes a cycle (one depth-first search).
    """

    __slots__ = ("d", "_parents", "_children")

    def __init__(self, d, edges=()):
        if d < 0:
            raise ValueError("d must be non-negative")
        self.d = d
        self._parents = [set() for _ in range(d)]
        self._children = [set() for _ in range(d)]
        for u, v in edges:
            self.add_edge(u, v)

    def _check_node(self, v):
        if not 0 <= v < self.d:
            raise ValueError(f"node {v} out of range")

    def parents(self, v):
        return tuple(sorted(self._parents[v]))

    def children(self, v):
        return tuple(sorted(self._children[v]))

    def adjacent(self, u, v):
        return v in self._children[u] or u in self._children[v]

    def edges(self):
        """Sorted list of directed edges (u, v)."""
        return sorted((u, v) for u in range(self.d) for v in self._children[u])

    def edge_count(self):
        return sum(len(c) for c in self._children)

    def _has_path(self, a, b):
        """True iff a directed path a -> ... -> b exists (a == b counts)."""
        if a == b:
            return True
        seen = {a}
        stack = [a]
        while stack:
            u = stack.pop()
            for w in self._children[u]:
                if w == b:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def add_edge(self, u, v):
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError("self-loops are not allowed")
        if v in self._children[u]:
            raise ValueError(f"duplicate edge {u}->{v}")
        if self._has_path(v, u):
            raise ValueError(f"edge {u}->{v} would create a cycle")
        self._children[u].add(v)
        self._parents[v].add(u)

    def copy(self):
        g = Dag(self.d)
        g._parents = [set(p) for p in self._parents]
        g._children = [set(c) for c in self._children]
        return g

    def __eq__(self, other):
        return (
            isinstance(other, Dag)
            and self.d == other.d
            and self._children == other._children
        )

    def __repr__(self):
        return f"Dag(d={self.d}, edges={self.edges()})"


def topological_order(g):
    """Lexicographically smallest topological order (deterministic)."""
    indeg = [len(g._parents[v]) for v in range(g.d)]
    heap = [v for v in range(g.d) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for w in sorted(g._children[u]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != g.d:
        raise ValueError("graph is cyclic")
    return order


@dataclass(frozen=True)
class MarkovSets:
    """Per-node pc (parents + children) and sp (spouses); a node's Markov
    blanket is pc | sp."""

    pc: tuple
    sp: tuple


def markov_sets(g):
    """Read pc and sp for every node off the graph."""
    pc = [frozenset(g._parents[v] | g._children[v]) for v in range(g.d)]
    sp = []
    for v in range(g.d):
        s = set()
        for c in g._children[v]:
            s |= g._parents[c]
        s.discard(v)
        sp.append(frozenset(s))
    return MarkovSets(pc=tuple(pc), sp=tuple(sp))


@dataclass(frozen=True)
class Pdag:
    """Partially directed graph over nodes 0..d-1, an immutable value.

    directed holds (u, v) pairs and undirected (min, max) pairs, both as
    frozensets. The edges are checked once, directed first, each set in the
    order given: a self-loop, a node out of range or a pair named twice
    raises ValueError.
    """

    d: int
    directed: frozenset = frozenset()
    undirected: frozenset = frozenset()

    def __post_init__(self):
        seen = set()
        for field in ("directed", "undirected"):
            edges = []
            for u, v in getattr(self, field):
                if u == v:
                    raise ValueError("self-loops are not allowed")
                if not (0 <= u < self.d and 0 <= v < self.d):
                    raise ValueError("node out of range")
                pair = (u, v) if u < v else (v, u)
                if pair in seen:
                    raise ValueError(f"pair {u},{v} already adjacent")
                seen.add(pair)
                edges.append((u, v) if field == "directed" else pair)
            object.__setattr__(self, field, frozenset(edges))

    def adjacency_pairs(self):
        return self.undirected | {
            (u, v) if u < v else (v, u) for u, v in self.directed
        }

    @classmethod
    def from_dag(cls, g):
        return cls(g.d, directed=g.edges())


def _quote(name):
    # a DOT quoted ID: backslash first, so that no escape it adds is doubled
    return '"' + str(name).replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g, names=None):
    """Render a Dag or Pdag in DOT syntax; undirected edges get dir=none."""
    names = names or [str(v) for v in range(g.d)]
    lines = ["digraph G {"]
    for v in range(g.d):
        lines.append(f"  {_quote(names[v])};")
    if isinstance(g, Dag):
        g = Pdag.from_dag(g)
    for u, v in sorted(g.directed):
        lines.append(f"  {_quote(names[u])} -> {_quote(names[v])};")
    for u, v in sorted(g.undirected):
        lines.append(f"  {_quote(names[u])} -> {_quote(names[v])} [dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"
