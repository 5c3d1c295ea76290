import itertools
import re

import numpy as np
import pytest

from hybridbn.graphs import Dag, Pdag, to_dot
from hybridbn.synthetic import random_dag

from helpers import (
    adjacency_pairs,
    all_dags,
    ancestors,
    d_separated,
    d_separated_sets,
    dsep_by_paths,
    is_acyclic,
)


class TestDag:
    def test_reads_parents_children_and_edges(self):
        g = Dag(4, [(2, 1), (0, 1), (1, 3)])
        assert g.parents(1) == (0, 2) and g.children(1) == (3,)
        assert g.parents(0) == () and g.children(2) == (1,)
        assert g.edges() == [(0, 1), (1, 3), (2, 1)] and g.edge_count() == 3
        assert g.adjacent(3, 1) and not g.adjacent(0, 2)

    def test_rejects_cycles_self_loops_duplicates(self):
        # each fault raises its own message
        faults = [
            (-1, [], "d must be non-negative"),
            (3, [(0, 3)], "node 3 out of range"),
            (3, [(-1, 0)], "node -1 out of range"),
            (3, [(1, 1)], "self-loops are not allowed"),
            (3, [(0, 1), (0, 1)], "duplicate edge 0->1"),
            (3, [(0, 1), (1, 2), (2, 0)], "the edges close a cycle"),
            # the first fault in edge order wins, and the cycle is found last
            (3, [(1, 0), (0, 1), (2, 2)], "self-loops are not allowed"),
            (3, [(0, 1), (1, 0), (0, 1)], "duplicate edge 0->1"),
            (3, [(2, 2), (0, 5)], "self-loops are not allowed"),
            (3, [(0, 5), (2, 2)], "node 5 out of range"),
        ]
        for d, edges, message in faults:
            with pytest.raises(ValueError, match=f"^{message}$"):
                Dag(d, edges)

    def test_equality(self):
        g = Dag(4, [(0, 1), (2, 1), (1, 3)])
        h = Dag(4, iter([(1, 3), (2, 1), (0, 1)]))
        assert g == h and hash(g) == hash(h)
        assert g != Dag(4, [(0, 1), (2, 1)])
        assert g != Dag(5, [(0, 1), (2, 1), (1, 3)])
        assert Dag(2, [(0, 1)]) != Dag(2, [(1, 0)])

    def test_is_immutable(self):
        g = Dag(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.d = 3
        with pytest.raises(AttributeError):
            g.order = (1, 0)


class TestAcyclicity:
    def test_chain_true(self):
        assert is_acyclic(3, [(0, 1), (1, 2)])

    def test_two_cycle_false(self):
        assert not is_acyclic(2, [(0, 1), (1, 0)])

    def test_agrees_with_dfs_oracle(self):
        def dfs_cyclic(d, edges):
            children = {v: [] for v in range(d)}
            for u, v in edges:
                children[u].append(v)
            color = [0] * d

            def visit(v):
                color[v] = 1
                for w in children[v]:
                    if color[w] == 1 or (color[w] == 0 and visit(w)):
                        return True
                color[v] = 2
                return False

            return any(color[v] == 0 and visit(v) for v in range(d))

        rng = np.random.default_rng(5)
        for _ in range(200):
            d = 15
            m = int(rng.integers(0, 30))
            edges = set()
            while len(edges) < m:
                u, v = rng.integers(0, d, size=2)
                if u != v:
                    edges.add((int(u), int(v)))
            assert is_acyclic(d, edges) == (not dfs_cyclic(d, edges))


class TestTopologicalOrder:
    def test_lexicographically_smallest(self):
        g = Dag(4, [(2, 0), (3, 1)])
        assert g.order == (2, 0, 3, 1)

    def test_smallest_permutation_that_respects_the_edges(self):
        # permutations come in lexicographic order, so the first one that
        # puts every tail before its head is the smallest
        perms = list(itertools.permutations(range(4)))
        for edges in all_dags(4):
            g = Dag(4, edges)
            assert g.order == next(
                p for p in perms
                if all(p.index(u) < p.index(v) for u, v in edges)
            ), edges

    def test_respects_edges(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_dag(8, 3, rng)
            pos = {v: i for i, v in enumerate(g.order)}
            assert sorted(g.order) == list(range(8))
            assert all(pos[u] < pos[v] for u, v in g.edges())

    def test_ancestors_include_selves(self):
        g = Dag(4, [(0, 1), (1, 2)])
        assert ancestors(g, {2}) == {0, 1, 2}
        assert ancestors(g, {3}) == {3}


class TestDSeparation:
    def test_chain(self):
        g = Dag(3, [(0, 1), (1, 2)])
        assert d_separated(g, 0, 2, {1})
        assert not d_separated(g, 0, 2, set())

    def test_collider(self):
        g = Dag(3, [(0, 1), (2, 1)])
        assert d_separated(g, 0, 2, set())
        assert not d_separated(g, 0, 2, {1})

    def test_collider_descendant_unblocks(self):
        g = Dag(4, [(0, 1), (2, 1), (1, 3)])
        assert not d_separated(g, 0, 2, {3})

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            g = random_dag(6, 3, rng)
            x, y = rng.choice(6, size=2, replace=False)
            z = {v for v in range(6) if v not in (x, y) and rng.random() < 0.3}
            assert d_separated(g, int(x), int(y), z) == d_separated(
                g, int(y), int(x), z
            )

    def test_validates_arguments(self):
        g = Dag(3, [(0, 1)])
        with pytest.raises(ValueError):
            d_separated(g, 0, 0, set())
        with pytest.raises(ValueError):
            d_separated(g, 0, 1, {1})

    def test_agrees_with_path_enumeration_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(15):
            d = int(rng.integers(5, 9))
            g = random_dag(d, 3, rng)
            for x, y in itertools.combinations(range(d), 2):
                others = [v for v in range(d) if v not in (x, y)]
                for size in range(min(3, len(others)) + 1):
                    for z in itertools.combinations(others, size):
                        expected = dsep_by_paths(g, x, y, z)
                        assert d_separated(g, x, y, z) == expected

    def test_pairwise_agrees_with_set_query(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = 7
            g = random_dag(d, 3, rng)
            x, y = (int(v) for v in rng.choice(d, size=2, replace=False))
            z = {v for v in range(d) if v not in (x, y) and rng.random() < 0.3}
            assert d_separated(g, x, y, z) == d_separated_sets(g, {x}, {y}, z)

    def test_set_query_validates(self):
        g = Dag(3, [(0, 1)])
        with pytest.raises(ValueError):
            d_separated_sets(g, set(), {1}, set())
        with pytest.raises(ValueError):
            d_separated_sets(g, {0}, {0}, set())


class TestPdag:
    def test_disjoint_adjacency(self):
        for directed, undirected, pair in [
            ([(0, 1)], [(0, 1)], "0,1"),
            ([(0, 1), (1, 0)], [], "1,0"),
            ([], [(1, 2), (2, 1)], "2,1"),
        ]:
            with pytest.raises(ValueError, match=f"^pair {pair} already adjacent$"):
                Pdag(3, directed, undirected)

    def test_rejects_self_loops_and_unknown_nodes(self):
        with pytest.raises(ValueError, match="^self-loops are not allowed$"):
            Pdag(3, directed=[(1, 1)])
        for edge in [(0, 3), (-1, 0)]:
            with pytest.raises(ValueError, match="^node out of range$"):
                Pdag(3, undirected=[edge])

    def test_from_dag_and_pairs(self):
        p = Pdag.from_dag(Dag(3, [(2, 0), (0, 1)]))
        assert p.directed == {(2, 0), (0, 1)}
        assert adjacency_pairs(p) == {(0, 2), (0, 1)}

    def test_equal_values_hash_equal(self):
        p = Pdag(3, directed=[(0, 1)], undirected=[(1, 2)])
        q = Pdag(3, directed={(0, 1)}, undirected={(2, 1)})
        assert p == q and hash(p) == hash(q)
        assert q.undirected == frozenset({(1, 2)})
        assert p != Pdag(3, directed=[(0, 1), (1, 2)])
        assert p != Pdag(4, directed=[(0, 1)], undirected=[(1, 2)])

    def test_is_immutable(self):
        p = Pdag(3, directed=[(0, 1)])
        with pytest.raises(AttributeError):
            p.directed.add((1, 2))
        with pytest.raises(AttributeError):
            p.d = 4


class TestDot:
    def test_dag_rendering(self):
        g = Dag(2, [(0, 1)])
        dot = to_dot(g, ["a", "b"])
        assert dot.startswith("digraph G {")
        assert '"a" -> "b";' in dot
        assert dot.endswith("}\n")

    def test_pdag_undirected_marker(self):
        p = Pdag(2, undirected=[(0, 1)])
        dot = to_dot(p)
        assert '"0" -> "1" [dir=none];' in dot

    def test_quoting(self):
        g = Dag(1)
        assert '"we\\"ird"' in to_dot(g, ['we"ird'])

    def test_quoted_ids_read_back_as_the_names(self):
        # a backslash that is not escaped would escape the closing quote
        names = ["a\\", 'b"c', '\\"d\\\\', "plain"]
        dot = to_dot(Dag(4, [(0, 1), (2, 3)]), names)
        ids = [re.sub(r"\\(.)", r"\1", m[1:-1])
               for m in re.findall(r'"(?:[^"\\]|\\.)*"', dot)]
        assert ids == names + names
