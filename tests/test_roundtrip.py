"""Every file the package writes, it reads back to an equal object.

Random DAGs with arities 2 to 4 and free-text names and level tokens go
through write_network/read_network and write_skeleton/read_skeleton; random
datasets go through write_csv/load_csv.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridbn import data as data_mod
from hybridbn.cli import _check_csv_tokens
from hybridbn.data import CategoricalDataset, DataError, load_csv, write_csv
from hybridbn.network import BayesianNetwork, read_network, write_network
from hybridbn.skeleton import read_skeleton, write_skeleton
from hybridbn.synthetic import random_dag, random_network

from helpers import reference_write_csv, true_skeleton

# Names and tokens are any text JSON can carry, quotes and non-ASCII
# included; CSV tokens exclude what the format itself cannot keep (line
# breaks, surrounding blanks, the empty token).
NAMES = st.text(min_size=1, max_size=6)
TOKENS = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                 min_size=1, max_size=4)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


@st.composite
def networks(draw):
    d = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dag = random_dag(d, draw(st.integers(0, 3)), rng)
    arities = draw(st.lists(st.integers(2, 4), min_size=d, max_size=d))
    net = random_network(dag, rng, arities=arities)
    names = draw(st.lists(NAMES, min_size=d, max_size=d, unique=True))
    levels = [draw(st.lists(NAMES, min_size=a, max_size=a, unique=True))
              for a in arities]
    return BayesianNetwork(dag, names, levels, net.cpts)


@settings(max_examples=150, deadline=None)
@given(net=networks())
def test_network_roundtrip(out_dir, net):
    path = out_dir / "net.json"
    write_network(net, path)
    back = read_network(path)
    assert back.graph == net.graph
    assert back.names == net.names
    assert back.levels == net.levels
    for got, want in zip(back.cpts, net.cpts):
        # read_network renormalizes each column, which may move the last bit
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    names=st.lists(NAMES, min_size=9, max_size=9, unique=True),
)
def test_skeleton_roundtrip(out_dir, d, seed, names):
    skel = true_skeleton(random_dag(d, 3, np.random.default_rng(seed)))
    path = out_dir / "skeleton.json"
    write_skeleton(skel, names[:d], path)
    assert read_skeleton(path) == (skel, names[:d])


class Scripted:
    """Stands in for st.data() in an @example: draw returns the given
    values in order, whatever the strategy."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


def refused_for_its_mark(ds, path):
    """True, once write_csv is seen to refuse ds, when its first name starts
    with U+FEFF: the file would start with a byte-order mark, which
    load_csv drops."""
    if not ds.names or not ds.names[0].startswith("\ufeff"):
        return False
    with pytest.raises(DataError, match="starts with a byte-order mark"):
        write_csv(ds, path)
    return True


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 30),
    arities=st.lists(st.integers(2, 4), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(n=2, arities=[2, 2], seed=0, data=Scripted(["\ufeffa", "b"], ["0", "1"], ["0", "1"]))
def test_csv_roundtrip(out_dir, n, arities, seed, data):
    d = len(arities)
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.integers(0, a, size=n) for a in arities])
    rows[0] = 0
    rows[1] = np.array(arities) - 1  # every column has two levels at least
    names = data.draw(st.lists(TOKENS, min_size=d, max_size=d, unique=True))
    levels = [data.draw(st.lists(TOKENS, min_size=a, max_size=a, unique=True))
              for a in arities]
    ds = CategoricalDataset(tuple(names), tuple(map(tuple, levels)), rows)
    path = out_dir / "data.csv"
    if refused_for_its_mark(ds, path):
        return
    write_csv(ds, path)
    back = load_csv(str(path))
    assert back.names == ds.names
    # load_csv numbers levels by first appearance, so compare the tokens
    for i in range(d):
        got = np.array(back.levels[i], dtype=object)[back.rows[:, i]]
        want = np.array(ds.levels[i], dtype=object)[ds.rows[:, i]]
        assert got.tolist() == want.tolist()
        assert set(back.levels[i]) <= set(ds.levels[i])


def drawn_rows(n, arities, distinct, rng):
    """n rows over the given arities: uniform draws ("any"), or U distinct
    rows that each appear at least once, U being n // 2 ("half"),
    n // 2 + 1 ("half+1") or 1 ("one"), as far as n and the nominal space
    allow."""
    if distinct == "any" or not arities:
        return np.column_stack([rng.integers(0, a, size=n) for a in arities]
                               or [np.zeros((n, 0), dtype=int)])
    u = {"half": n // 2, "half+1": n // 2 + 1, "one": 1}[distinct]
    u = max(min(u, n, math.prod(arities)), min(n, 1))
    configs = np.array(np.unravel_index(np.arange(u), arities), dtype=int).T
    which = np.concatenate([np.arange(u), rng.integers(0, max(u, 1), size=n - u)])
    return configs.reshape(u, len(arities))[rng.permutation(which)]


# a column's name and its two levels, for examples of many binary columns
def binary_columns(d):
    return Scripted([f"c{i}" for i in range(d)], *[["0", "1"]] * d)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([0, 1, 511, 512, 513, 1100, 4095, 4097]),
    arities=st.lists(st.integers(1, 4), max_size=5),
    distinct=st.sampled_from(["any", "half", "half+1", "one"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
# a row of one empty field is the one place where the writer quotes a token
# by its context: it writes "" there, and nothing in a wider row
@example(n=3, arities=[1], distinct="any", seed=0, data=Scripted([""], [""]))
@example(n=5, arities=[2], distinct="any", seed=1, data=Scripted(["a"], ["", "x"]))
@example(n=5, arities=[2, 1], distinct="any", seed=1,
         data=Scripted(["a", "b"], ["", "x"], [""]))
@example(n=0, arities=[1], distinct="any", seed=0, data=Scripted(["a"], [""]))
@example(n=0, arities=[2, 3], distinct="any", seed=0,
         data=Scripted(["a", "b"], ["x", "y"], ["p", "q", "r"]))
# each side of write_csv's switch at U = n / 2, and of its gather block
@example(n=1100, arities=[2] * 10, distinct="half", seed=2, data=binary_columns(10))
@example(n=1100, arities=[2] * 10, distinct="half+1", seed=2, data=binary_columns(10))
@example(n=4095, arities=[2] * 11, distinct="half", seed=3, data=binary_columns(11))
@example(n=4097, arities=[2] * 12, distinct="half", seed=3, data=binary_columns(12))
@example(n=4097, arities=[2] * 12, distinct="half+1", seed=3, data=binary_columns(12))
@example(n=4097, arities=[3, 2], distinct="one", seed=4,
         data=Scripted(["a", "b"], ["x", "y,", 'z"'], ["", "p"]))
@example(n=4095, arities=[4], distinct="half", seed=5,
         data=Scripted(["a"], ["", "x", "y", "z"]))
@example(n=4097, arities=[], distinct="any", seed=0, data=Scripted([]))
def test_csv_bytes_match_the_row_by_row_writer(out_dir, n, arities, distinct, seed, data):
    # any text, commas, quotes and line breaks included, across the blocks
    # of either path, and with no column at all; rows repeat as drawn
    rows = drawn_rows(n, arities, distinct, np.random.default_rng(seed))
    text = st.text(max_size=4)
    names = data.draw(st.lists(text, min_size=len(arities), max_size=len(arities),
                               unique=True))
    levels = [data.draw(st.lists(text, min_size=a, max_size=a)) for a in arities]
    ds = CategoricalDataset(tuple(names), tuple(map(tuple, levels)), rows)
    if refused_for_its_mark(ds, out_dir / "got.csv"):
        return
    took = []
    distinct_lines = data_mod._distinct_lines

    def spy(*args):
        took.append("distinct lines")
        return distinct_lines(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_mod, "_distinct_lines", spy)
        write_csv(ds, out_dir / "got.csv")
    reference_write_csv(ds, out_dir / "want.csv")
    assert (out_dir / "got.csv").read_bytes() == (out_dir / "want.csv").read_bytes()
    # at most half the rows distinct: one line a distinct row; else blocks
    # (a file of no rows writes no row either way)
    u = len({tuple(row) for row in rows.tolist()})
    if n:
        assert took == (["distinct lines"] if 2 * u <= n else [])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tokens_sample_accepts_load_back(out_dir, data):
    # any text: what sample's checks let through, write_csv and load_csv
    # carry unchanged (line breaks inside a token included)
    text = st.text(max_size=3)
    arities = data.draw(st.lists(st.integers(2, 3), max_size=3))
    names = data.draw(st.lists(text, min_size=len(arities), max_size=len(arities),
                               unique=True))
    levels = [data.draw(st.lists(text, min_size=a, max_size=a)) for a in arities]
    net = BayesianNetwork(random_dag(len(arities), 0, np.random.default_rng(0)),
                          names, levels,
                          [np.full((a, 1), 1 / a) for a in arities])
    try:
        _check_csv_tokens(net)
    except DataError:
        return
    # row i holds level i % arity, so levels appear in their own order
    rows = np.arange(max(arities))[:, None] % np.array(arities)
    ds = CategoricalDataset(tuple(names), tuple(map(tuple, levels)), rows)
    if refused_for_its_mark(ds, out_dir / "sample.csv"):
        return
    write_csv(ds, out_dir / "sample.csv")
    back = load_csv(str(out_dir / "sample.csv"))
    assert (back.names, back.levels, back.rows.tolist()) == (
        ds.names, ds.levels, ds.rows.tolist())
