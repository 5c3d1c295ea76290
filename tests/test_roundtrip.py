"""Every file the package writes, it reads back to an equal object.

Random DAGs with arities 2 to 4 and free-text names and level tokens go
through write_network/read_network and write_skeleton/read_skeleton; random
datasets go through write_csv/load_csv.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn.data import CategoricalDataset, load_csv, write_csv
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


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 30),
    arities=st.lists(st.integers(2, 4), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
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
    write_csv(ds, path)
    back = load_csv(str(path))
    assert back.names == ds.names
    # load_csv numbers levels by first appearance, so compare the tokens
    for i in range(d):
        got = np.array(back.levels[i], dtype=object)[back.rows[:, i]]
        want = np.array(ds.levels[i], dtype=object)[ds.rows[:, i]]
        assert got.tolist() == want.tolist()
        assert set(back.levels[i]) <= set(ds.levels[i])


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([0, 1, 511, 512, 513, 1100]),
    arities=st.lists(st.integers(1, 4), max_size=5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_csv_bytes_match_the_row_by_row_writer(out_dir, n, arities, seed, data):
    # any text, commas, quotes and line breaks included, across the
    # 512-row blocks, and with no column at all
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.integers(0, a, size=n) for a in arities]
                           or [np.zeros((n, 0), dtype=int)])
    text = st.text(max_size=4)
    names = data.draw(st.lists(text, min_size=len(arities), max_size=len(arities),
                               unique=True))
    levels = [data.draw(st.lists(text, min_size=a, max_size=a)) for a in arities]
    ds = CategoricalDataset(tuple(names), tuple(map(tuple, levels)), rows)
    write_csv(ds, out_dir / "got.csv")
    reference_write_csv(ds, out_dir / "want.csv")
    assert (out_dir / "got.csv").read_bytes() == (out_dir / "want.csv").read_bytes()
