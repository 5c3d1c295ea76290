"""Synthetic fixtures: random DAGs, parameterized networks and the fixed
benchmark shapes used by the test suite and the demo scripts."""

import math

import numpy as np

from .graphs import Dag
from .network import BayesianNetwork


def random_dag(d, max_parents, rng):
    """Random DAG: a random node order, then up to max_parents parents per
    node drawn from its predecessors."""
    order = rng.permutation(d)
    edges = []
    for pos in range(1, d):
        node = int(order[pos])
        k = int(rng.integers(0, max_parents + 1))
        k = min(k, pos)
        if k:
            edges += [(int(p), node)
                      for p in rng.choice(order[:pos], size=k, replace=False)]
    return Dag(d, edges)


def _peaked_column(r, w, lo, hi):
    # A column whose mass peaks near level w*(r-1), linearly interpolated so
    # every parent level shift moves the distribution; for r=2 this is
    # exactly p(level 1) = lo + (hi - lo) * w.
    s = hi - lo
    base = np.full(r, (1.0 - s) / r)
    pos = w * (r - 1)
    k0 = int(math.floor(pos))
    k0 = min(k0, r - 1)
    frac = pos - k0
    base[k0] += s * (1.0 - frac)
    if frac > 0 and k0 + 1 < r:
        base[k0 + 1] += s * frac
    return base


def monotone_network(dag, arities=None, lo=0.1, hi=0.9, names=None):
    """Deterministic strong-effect CPTs: each node's distribution shifts
    monotonically with the mean normalized level of its parents.

    All parent effects have the same sign, so no path cancellation can hide
    a dependence; root distributions vary with the node index.
    """
    d = dag.d
    arities = list(arities) if arities is not None else [2] * d
    names = list(names) if names is not None else [f"n{v:02d}" for v in range(d)]
    levels = [tuple(str(k) for k in range(a)) for a in arities]
    cpts = []
    for v in range(d):
        r = arities[v]
        pa = list(dag.parents(v))
        pa_ar = [arities[p] for p in pa]
        q = math.prod(pa_ar)
        table = np.empty((r, q))
        if not pa:
            w = 0.25 * ((v % 3) + 1)
            table[:, 0] = _peaked_column(r, w, lo, hi)
        else:
            denom = sum(a - 1 for a in pa_ar)
            # the parents' levels in configuration j, last parent fastest
            for j, cfg in enumerate(zip(*np.unravel_index(range(q), pa_ar))):
                table[:, j] = _peaked_column(r, sum(cfg) / denom, lo, hi)
        cpts.append(table)
    return BayesianNetwork(dag, names, levels, cpts)


def random_network(dag, rng, arities=None, concentration=0.5, names=None):
    """CPT columns drawn from a symmetric Dirichlet; low concentration gives
    sharp, strongly informative distributions."""
    d = dag.d
    arities = list(arities) if arities is not None else [2] * d
    names = list(names) if names is not None else [f"n{v:02d}" for v in range(d)]
    levels = [tuple(str(k) for k in range(a)) for a in arities]
    cpts = []
    for v in range(d):
        r = arities[v]
        q = math.prod(arities[p] for p in dag.parents(v))
        table = rng.dirichlet([concentration] * r, size=q).T
        cpts.append(table)
    return BayesianNetwork(dag, names, levels, cpts)


def recovery_network():
    """Fixed 10-node, 12-edge binary network with strong monotone CPTs;
    the desk-scale structure-recovery benchmark."""
    edges = [
        (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6),
        (5, 6), (6, 7), (1, 8), (8, 9), (7, 9), (0, 4),
    ]
    return monotone_network(Dag(10, edges))


def child_shape_network():
    """Fixed 20-node, 25-edge binary network with max in-degree 2 and one
    hub of out-degree 7, the shape of the mid-size clinical benchmark."""
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
        (1, 8), (2, 8), (3, 9), (9, 10), (4, 10), (5, 11), (6, 11),
        (7, 12), (12, 13), (8, 13), (14, 15), (10, 15), (11, 16),
        (16, 17), (13, 17), (17, 18), (18, 19), (15, 19),
    ]
    dag = Dag(20, edges)
    assert dag.edge_count() == 25
    assert max(len(dag.parents(v)) for v in range(20)) == 2
    return monotone_network(dag)


def two_cluster_network():
    """Two independent 3-label chains, each driven by 4 private features.

    Variables 0..7 are features x0..x7, variables 8..13 are labels y0..y5.
    Labels 8-10 form one dependence cluster (fed by features 0-3), labels
    11-13 the other (features 4-7).
    """
    edges = [
        (0, 8), (1, 8), (2, 9), (8, 9), (3, 10), (9, 10),
        (4, 11), (5, 11), (6, 12), (11, 12), (7, 13), (12, 13),
    ]
    names = [f"x{i}" for i in range(8)] + [f"y{i}" for i in range(6)]
    return monotone_network(Dag(14, edges), names=names)

