"""The incremental tabu hill climb against the search as first written.

hill_climb keeps every move over the skeleton in a heap in key order,
cycle-blocked ones too, re-keys only those whose families moved, and
checks acyclicity and tabu only on the entries that reach the front. None
of that may change a result: the learned DAG, score, empty-graph score,
move count and stop reason must equal reference_hill_climb's in
helpers.py. The reference scores every add and reverse over the skeleton
at each step, a cycle-blocked one too, and an incremental search scores
each delta once per change of its family, so both must score the same
set of families.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn.graphs import Dag
from hybridbn.independence import DataIndependenceSource
from hybridbn.network import forward_sample
from hybridbn.scoring import ScoreConfig, Scorer, hill_climb
from hybridbn.skeleton import Skeleton, build_skeleton
from hybridbn.synthetic import random_dag, random_network

from helpers import (
    all_dags,
    reference_hill_climb,
    skeleton_optimum,
    total_score,
    true_skeleton,
)


class FamilyScorer(Scorer):
    """Scorer that remembers which families were asked for."""

    def __init__(self, data, cfg):
        super().__init__(data, cfg)
        self.families = set()

    def local(self, node, parents=()):
        self.families.add((node, tuple(sorted(parents))))
        return super().local(node, parents)


def skeleton_of(kind, dag):
    d = dag.d
    if kind == "empty":
        return Skeleton(d=d, edges=frozenset())
    if kind == "true":
        return true_skeleton(dag)
    return Skeleton(
        d=d, edges=frozenset((u, v) for u in range(d) for v in range(u + 1, d))
    )


def sample(seed, d, n):
    rng = np.random.default_rng(seed)
    dag = random_dag(d, 3, rng)
    net = random_network(dag, rng, arities=[int(a) for a in rng.integers(2, 4, d)])
    return dag, forward_sample(net, n, seed=seed)


def search_both(data, skeleton, cfg):
    mine, theirs = FamilyScorer(data, cfg), FamilyScorer(data, cfg)
    got = hill_climb(data, skeleton, cfg, scorer=mine)
    want = reference_hill_climb(data, skeleton, cfg, scorer=theirs)
    return got, want, mine.families, theirs.families


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    n=st.integers(5, 400),
    kind=st.sampled_from(["empty", "true", "complete"]),
    tabu_length=st.sampled_from([0, 1, 2, 100]),
    patience=st.sampled_from([1, 2, 15]),
    score=st.sampled_from(["bdeu", "bic"]),
)
def test_matches_reference_search(seed, d, n, kind, tabu_length, patience, score):
    assert_matches_reference(seed, d, n, kind, tabu_length, patience, score)


# From d of about 10, an add that a path blocks and a later delete or
# reverse frees is taken in about one search in ten.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(9, 16),
    n=st.integers(5, 400),
    kind=st.sampled_from(["true", "complete"]),
    tabu_length=st.sampled_from([0, 1, 2, 100]),
    patience=st.sampled_from([1, 2, 15]),
    score=st.sampled_from(["bdeu", "bic"]),
)
def test_matches_reference_search_wider(seed, d, n, kind, tabu_length, patience,
                                        score):
    assert_matches_reference(seed, d, n, kind, tabu_length, patience, score)


def test_blocked_add_taken_after_reverses():
    # Move 2 adds 4 -> 10 and move 3 adds 1 -> 4, so the path 1 -> 4 -> 10
    # blocks the add 10 -> 1. Moves 4, 8, 9 and 13 add 5 -> 11, 1 -> 5,
    # 11 -> 9 and 9 -> 10, a second path from 1 to 10. Moves 18 and 19
    # reverse 1 -> 4 and 1 -> 5, which leaves 1 without children, and move
    # 20 is the add 10 -> 1, onto the parents {4, 5} of 1.
    scored = assert_matches_reference(2, 12, 200, "true", 100, 15, "bdeu")
    assert (1, (4, 5, 10)) in scored


def assert_matches_reference(seed, d, n, kind, tabu_length, patience, score):
    dag, data = sample(seed, d, n)
    cfg = ScoreConfig(score=score, tabu_length=tabu_length, patience=patience)
    got, want, scored, ref_scored = search_both(data, skeleton_of(kind, dag), cfg)
    assert got.dag == want.dag
    assert got.score == want.score
    assert got.empty_score == want.empty_score
    assert got.moves == want.moves
    assert got.stop == want.stop
    assert scored == ref_scored
    return scored


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    n=st.integers(5, 300),
    kind=st.sampled_from(["empty", "true", "complete"]),
    score=st.sampled_from(["bdeu", "bic"]),
)
def test_skeleton_optimum_is_the_best_dag_in_the_skeleton(seed, d, n, kind, score):
    dag, data = sample(seed, d, n)
    skel = skeleton_of(kind, dag)
    cfg = ScoreConfig(score=score)
    inside = [g for g in all_dags(d) if all(tuple(sorted(e)) in skel.edges for e in g)]
    want = max(total_score(data, Dag(d, list(g)), cfg) for g in inside)
    assert abs(skeleton_optimum(data, skel, cfg) - want) <= 1e-9 * abs(want)


# No sound search scores above the exact optimum over its skeleton. It may
# stop below it: on 120 seeded cases of d = 2-10 it did on 4, by 2.6 to
# 28.1 nats.
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 10),
    n=st.integers(50, 800),
    score=st.sampled_from(["bdeu", "bic"]),
)
def test_search_never_beats_the_skeleton_optimum(seed, d, n, score):
    _, data = sample(seed, d, n)
    skel = build_skeleton(DataIndependenceSource(data))
    cfg = ScoreConfig(score=score)
    opt = skeleton_optimum(data, skel, cfg)
    assert hill_climb(data, skel, cfg).score <= opt + 1e-9 * abs(opt)
