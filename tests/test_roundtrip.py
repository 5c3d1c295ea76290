"""Every file the package writes, it reads back to an equal object.

Random DAGs with arities 2 to 4 and free-text names and level tokens go
through write_network/read_network and write_skeleton/read_skeleton; random
datasets go through write_csv/load_csv. A dataset whose CSV file would not
load back as the same rows (see write_csv) is refused before the file is
made, and the tests assert that refusal wherever they draw one.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def csv_faults(ds):
    """The messages write_csv may refuse ds with, each fault's own: no
    columns, no rows, a column whose rows use fewer than two levels, a name
    or used token with blanks around it or a carriage return or NUL in it,
    an empty used token, two used levels of a column with the same token,
    and a first name that starts with U+FEFF."""
    if not ds.names:
        return ["the dataset has no columns"]
    faults = []
    if ds.names[0].startswith("\ufeff"):
        faults.append(f"variable {ds.names[0]!r} starts with a byte-order mark")
    if not ds.n:
        return faults + ["no data rows"]
    for col, name in enumerate(ds.names):
        used = [ds.levels[col][i] for i in sorted(set(ds.rows[:, col].tolist()))]
        faults += [f"{token!r} of variable {name!r} cannot be written to CSV"
                   for token in (name, *used)
                   if token != token.strip() or "\r" in token or "\0" in token]
        if "" in used:
            faults.append(f"variable {name!r} has an empty level")
        if len(set(used)) < len(used):
            faults.append(f"variable {name!r} has two equal levels")
        if len(used) < 2:
            faults.append(f"constant column {name!r}")
    return faults


def refused(ds, path):
    """True, once write_csv is seen to refuse ds with one of its faults and
    to leave path unmade, when ds has a fault (csv_faults)."""
    faults = csv_faults(ds)
    if not faults:
        return False
    path.unlink(missing_ok=True)
    with pytest.raises(DataError) as refusal:
        write_csv(ds, path)
    assert any(str(refusal.value).startswith(f) for f in faults), str(refusal.value)
    assert not path.exists()
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
    if refused(ds, path):
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


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([0, 1, 3, 9, 20, 511, 512, 513, 1100, 4097]),
    # an arity-1 column is constant, and refused (see the examples)
    arities=st.lists(st.integers(2, 4), max_size=5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
# an empty token that rows use is refused, as load_csv reads it as missing
@example(n=5, arities=[2], seed=1, data=Scripted(["a"], ["", "x"]))
@example(n=5, arities=[2, 2], seed=1, data=Scripted(["a", "b"], ["", "x"], ["p", "q"]))
# a dataset load_csv could not read back: no rows, or a constant column
@example(n=0, arities=[2, 3], seed=0,
         data=Scripted(["a", "b"], ["x", "y"], ["p", "q", "r"]))
@example(n=1100, arities=[2, 1], seed=0, data=Scripted(["a", "b"], ["x", "y"], ["p"]))
@example(n=4097, arities=[], seed=0, data=Scripted([]))
# every level used, each quoted form among them
@example(n=4097, arities=[3, 2], seed=4,
         data=Scripted(["a", "b"], ["x", "y,", 'z"'], ["p", "q\nr"]))
# rows across several blocks, every form of one width
@example(n=60_000, arities=[2, 2, 2], seed=5,
         data=Scripted(["a", "b", "c"], ["0", "1"], ["x", "y"], ["p", "q"]))
# one column whose used forms differ in width
@example(n=4097, arities=[4, 2], seed=6,
         data=Scripted(["a", "b"], ["y,", 'z"', "q\nr", "\u00e9"], ["0", "1"]))
# a one-column file
@example(n=4097, arities=[3], seed=7, data=Scripted(["a"], ["x", "yy", "zzz"]))
# a column of one-byte forms next to a column of long forms
@example(n=4097, arities=[2, 2], seed=8,
         data=Scripted(["a", "b"], ["0", "1"], ["long " * 12 + "x", "long " * 14 + "y"]))
def test_csv_bytes_match_the_row_by_row_writer(out_dir, n, arities, seed, data):
    # any text, commas, quotes and line breaks included, in files of few
    # rows (joined) and of many (taken from the form table), across blocks
    # of either. What write_csv refuses, it is seen to refuse; every other
    # file has the row-by-row writer's bytes.
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.integers(0, a, size=n) for a in arities]
                           or [np.zeros((n, 0), dtype=int)])
    text = st.text(max_size=4)
    names = data.draw(st.lists(text, min_size=len(arities), max_size=len(arities),
                               unique=True))
    levels = [data.draw(st.lists(text, min_size=a, max_size=a)) for a in arities]
    ds = CategoricalDataset(tuple(names), tuple(map(tuple, levels)), rows)
    if refused(ds, out_dir / "got.csv"):
        return
    write_csv(ds, out_dir / "got.csv")
    reference_write_csv(ds, out_dir / "want.csv")
    assert (out_dir / "got.csv").read_bytes() == (out_dir / "want.csv").read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tokens_sample_accepts_load_back(out_dir, data):
    # any text: what write_csv lets through, load_csv carries unchanged
    # (line breaks inside a token included)
    text = st.text(max_size=3)
    arities = data.draw(st.lists(st.integers(2, 3), max_size=3))
    names = data.draw(st.lists(text, min_size=len(arities), max_size=len(arities),
                               unique=True))
    levels = [data.draw(st.lists(text, min_size=a, max_size=a)) for a in arities]
    # row i holds level i % arity, so every level is used, in its own order
    rows = np.arange(max(arities, default=2))[:, None] % np.array(arities, dtype=int)
    ds = CategoricalDataset(tuple(names), tuple(map(tuple, levels)), rows)
    if refused(ds, out_dir / "sample.csv"):
        return
    write_csv(ds, out_dir / "sample.csv")
    back = load_csv(str(out_dir / "sample.csv"))
    assert (back.names, back.levels, back.rows.tolist()) == (
        ds.names, ds.levels, ds.rows.tolist())
