"""Directed graphs over integer node ids: DAGs, PDAGs, DOT."""

import heapq
from dataclasses import dataclass


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over nodes 0..d-1, an immutable value.

    The edges are checked once, in the order given: a node out of range, a
    self-loop or an edge named twice raises ValueError. One Kahn pass
    (Kahn 1962) with a heap of ready nodes then finds order, the
    lexicographically smallest topological order; edges that leave a node
    out of it close a cycle and raise ValueError. Each node's parents and
    children are kept as sorted tuples.
    """

    d: int
    order: tuple
    _parents: tuple
    _children: tuple

    def __init__(self, d, edges=()):
        if d < 0:
            raise ValueError("d must be non-negative")
        parents = [[] for _ in range(d)]
        children = [set() for _ in range(d)]
        for u, v in edges:
            for w in (u, v):
                if not 0 <= w < d:
                    raise ValueError(f"node {w} out of range")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if v in children[u]:
                raise ValueError(f"duplicate edge {u}->{v}")
            children[u].add(v)
            parents[v].append(u)
        children = tuple(tuple(sorted(c)) for c in children)
        indeg = [len(p) for p in parents]
        heap = [v for v in range(d) if not indeg[v]]  # ascending, so a heap
        order = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for w in children[u]:
                indeg[w] -= 1
                if not indeg[w]:
                    heapq.heappush(heap, w)
        if len(order) < d:
            raise ValueError("the edges close a cycle")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "_parents", tuple(tuple(sorted(p)) for p in parents))
        object.__setattr__(self, "_children", children)

    def parents(self, v):
        return self._parents[v]

    def children(self, v):
        return self._children[v]

    def adjacent(self, u, v):
        return v in self._children[u] or u in self._children[v]

    def edges(self):
        """Sorted list of directed edges (u, v)."""
        return [(u, v) for u in range(self.d) for v in self._children[u]]

    def edge_count(self):
        return sum(map(len, self._children))


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
