import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn import network
from hybridbn.data import DataError, row_dtype
from hybridbn.graphs import Dag
from hybridbn.network import (
    CPT_CELL_LIMIT,
    BayesianNetwork,
    fit_cpts,
    forward_sample,
    read_network,
    write_network,
)
from hybridbn.synthetic import (
    child_shape_network,
    monotone_network,
    random_dag,
    random_network,
)

from helpers import from_array, reference_forward_sample

B = ("0", "1")

# (r, q) of a CPT at the cell limit, 2**24, and one cell past it
CPT_EDGE = [(256, 65536), (97, 172961)]
assert [r * q - CPT_CELL_LIMIT for r, q in CPT_EDGE] == [0, 1]


def binary_chain():
    # x0 -> x1 with deterministic copy
    g = Dag(2, [(0, 1)])
    cpts = [
        np.array([[0.5], [0.5]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
    ]
    return BayesianNetwork(g, ("x0", "x1"), (B, B), cpts)


class TestValidation:
    def test_column_sum_enforced(self):
        g = Dag(1)
        with pytest.raises(ValueError, match="sum"):
            BayesianNetwork(g, ("a",), (B,), [np.array([[0.5], [0.4]])])
        # finite entries whose sum overflows: NumPy warned before the error
        with pytest.raises(DataError, match="^CPT column of 'a' does not sum to 1$"):
            BayesianNetwork(g, ("a",), (B,), [np.array([[1e308], [1e308]])])
        with pytest.raises(DataError, match="non-finite"):
            BayesianNetwork(g, ("a",), (B,), [np.array([[np.nan], [1.0]])])

    def test_shape_enforced(self):
        g = Dag(2, [(0, 1)])
        cpts = [np.array([[0.5], [0.5]]), np.array([[0.5], [0.5]])]
        with pytest.raises(ValueError, match="shape"):
            BayesianNetwork(g, ("a", "b"), (B, B), cpts)

    def test_name_count_enforced(self):
        g = Dag(1)
        with pytest.raises(ValueError, match="metadata"):
            BayesianNetwork(g, ("a", "b"), (B,), [np.array([[1.0], [0.0]])])

    def test_negative_entry_enforced(self):
        g = Dag(1)
        with pytest.raises(ValueError, match="negative"):
            BayesianNetwork(g, ("a",), (B,), [np.array([[1.5], [-0.5]])])

    @pytest.mark.parametrize("r, q", CPT_EDGE)
    def test_cpt_cell_limit(self, r, q):
        # the size is checked before the shape, so a placeholder CPT for b
        # tells the two sides of the limit apart without allocating it
        over = r * q - CPT_CELL_LIMIT
        levels = [tuple(map(str, range(q))), tuple(map(str, range(r)))]
        cpts = [np.full((q, 1), 1 / q), np.ones((1, 1))]
        with pytest.raises(DataError,
                           match="CPT of 'b' is too large" if over else "shape"):
            BayesianNetwork(Dag(2, [(0, 1)]), ("a", "b"), levels, cpts)


def dataset(rows, arities):
    return from_array(
        np.asarray(rows, dtype=np.int32), arities=arities
    )


class TestFitCpts:
    def test_maximum_likelihood_counts(self):
        ds = dataset([[0, 0], [0, 0], [0, 1], [1, 1]], (2, 2))
        net = fit_cpts(Dag(2, [(0, 1)]), ds)
        np.testing.assert_allclose(net.cpts[0][:, 0], [0.75, 0.25])
        np.testing.assert_allclose(net.cpts[1][:, 0], [2 / 3, 1 / 3])
        np.testing.assert_allclose(net.cpts[1][:, 1], [0.0, 1.0])

    def test_laplace_smoothing(self):
        ds = dataset([[0, 0], [0, 0], [1, 1]], (2, 2))
        net = fit_cpts(Dag(2, [(0, 1)]), ds, laplace=1.0)
        # parent=0: counts (2, 0) -> (3, 1)/4
        np.testing.assert_allclose(net.cpts[1][:, 0], [0.75, 0.25])
        np.testing.assert_allclose(net.cpts[1][:, 1], [1 / 3, 2 / 3])

    def test_laplace_past_the_double_range(self):
        # each smoothed column total overflows; the columns were zeroed, and
        # the data was blamed for a column that does not sum to 1
        ds = dataset([[0, 0], [0, 0], [1, 1]], (2, 2))
        fit_cpts(Dag(2, [(0, 1)]), ds, laplace=1e307)
        with pytest.raises(DataError, match=r"^the CPT of '\w+' is not finite "
                           r"with laplace = 1e\+308$"):
            fit_cpts(Dag(2, [(0, 1)]), ds, laplace=1e308)

    def test_unseen_config_uniform(self):
        # parent level 1 never appears; its column must be uniform
        ds = dataset([[0, 0], [0, 1]], (2, 2))
        net = fit_cpts(Dag(2, [(0, 1)]), ds)
        np.testing.assert_allclose(net.cpts[1][:, 1], [0.5, 0.5])

    def test_multi_parent_column_order(self):
        # column index iterates the last parent fastest
        ds = dataset([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]], (2, 2, 2))
        net = fit_cpts(Dag(3, [(0, 2), (1, 2)]), ds)
        assert net.cpts[2].shape == (2, 4)
        np.testing.assert_allclose(net.cpts[2][:, 0], [1.0, 0.0])  # a=0,b=0
        np.testing.assert_allclose(net.cpts[2][:, 1], [0.0, 1.0])  # a=0,b=1
        np.testing.assert_allclose(net.cpts[2][:, 2], [0.0, 1.0])  # a=1,b=0

    @pytest.mark.parametrize("r, q", CPT_EDGE)
    def test_cpt_cell_limit_is_checked_before_counting(self, monkeypatch, r, q):
        # a counting stub stands in for the table at the limit, which would
        # take several hundred MB
        def count_table(*args):
            raise LookupError("counted")

        monkeypatch.setattr(network, "count_table", count_table)
        over = r * q - CPT_CELL_LIMIT
        with pytest.raises(DataError if over else LookupError,
                           match="CPT of 'v0' is too large" if over else "counted"):
            fit_cpts(Dag(2, [(1, 0)]), dataset([[0, 0], [1, 1]], (r, q)))

    def test_preserves_metadata(self):
        ds = dataset([[0, 2], [1, 0], [1, 1]], (2, 3))
        net = fit_cpts(Dag(2), ds)
        assert net.names == ds.names
        assert net.arities == (2, 3)


class TestForwardSample:
    def test_deterministic_chain_copies(self):
        out = forward_sample(binary_chain(), 500, seed=3)
        assert out.rows.shape == (500, 2)
        np.testing.assert_array_equal(out.rows[:, 0], out.rows[:, 1])

    def test_marginal_frequency(self):
        g = Dag(1)
        net = BayesianNetwork(g, ("a",), (B,), [np.array([[0.5], [0.5]])])
        out = forward_sample(net, 10000, seed=11)
        assert abs(out.rows.mean() - 0.5) < 0.02

    def test_seed_determinism(self):
        net = monotone_network(random_dag(6, 3, np.random.default_rng(2)))
        a = forward_sample(net, 200, seed=5)
        b = forward_sample(net, 200, seed=5)
        c = forward_sample(net, 200, seed=6)
        np.testing.assert_array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)

    def test_values_within_levels(self):
        net = monotone_network(
            random_dag(5, 2, np.random.default_rng(7)), arities=(2, 3, 4, 2, 3)
        )
        out = forward_sample(net, 300, seed=1)
        assert out.names == net.names
        for j, arity in enumerate(net.arities):
            assert out.rows[:, j].min() >= 0
            assert out.rows[:, j].max() < arity

    def test_sequence_seed(self):
        net = binary_chain()
        a = forward_sample(net, 50, seed=[3, 500])
        b = forward_sample(net, 50, seed=[3, 500])
        c = forward_sample(net, 50, seed=[3, 501])
        np.testing.assert_array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)


@st.composite
def sampling_networks(draw):
    """Random networks of arities 2 to 6 and up to 3 parents a node. Some
    CPT columns are shrunk after validation, so that their cumulative sum
    ends well below 1.0 and draws past the last boundary are common; a
    valid CPT leaves them at most 1e-9 of room."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arities = draw(st.lists(st.integers(2, 6), min_size=d, max_size=d))
    net = random_network(random_dag(d, draw(st.integers(0, 3)), rng), rng,
                         arities=arities,
                         concentration=draw(st.sampled_from([0.01, 0.5, 5.0])))
    shrink = draw(st.sampled_from([1.0, 1.0 - 2**-40, 0.7]))
    for table in net.cpts:
        table[:, rng.random(table.shape[1]) < 0.5] *= shrink
    return net


@settings(max_examples=150, deadline=None)
@given(net=sampling_networks(),
       n=st.sampled_from([0, 1, 513, 2 * network._SAMPLE_BLOCK + 7]),
       seed=st.integers(0, 2**32 - 1))
def test_forward_sample_matches_reference(net, n, seed):
    got = forward_sample(net, n, seed)
    want = reference_forward_sample(net, n, seed)
    assert got.rows.dtype == row_dtype(net.arities)
    np.testing.assert_array_equal(got.rows, want)


def test_forward_sample_holds_one_block_of_draws():
    # the draws, parent codes and compared boundaries of one node are 8
    # bytes a row each; drawn a block at a time, only a block of them lives
    n = 300_000
    assert n > 4 * network._SAMPLE_BLOCK
    net = child_shape_network()
    tracemalloc.start()
    try:
        got = forward_sample(net, n, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < got.rows.nbytes + 3 * 8 * network._SAMPLE_BLOCK + 256 * 1024


@pytest.mark.parametrize("arity, dtype", [
    (255, np.uint8), (256, np.uint8), (257, np.uint16),
    (65535, np.uint16), (65536, np.uint16), (65537, np.uint32),
])
def test_forward_sample_draws_into_the_row_dtype(arity, dtype):
    # a root of the given arity and a binary child of it: the child's parent
    # codes come from the narrow store
    rng = np.random.default_rng(arity)
    root = rng.dirichlet(np.ones(arity))[:, None]
    child = rng.dirichlet(np.ones(2), size=arity).T
    net = BayesianNetwork(Dag(2, [(0, 1)]), ("x", "y"),
                          (tuple(map(str, range(arity))), B), [root, child])
    got = forward_sample(net, 300, seed=arity)
    assert got.rows.dtype == dtype == row_dtype(net.arities)
    np.testing.assert_array_equal(got.rows, reference_forward_sample(net, 300, arity))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        net = monotone_network(
            random_dag(7, 3, np.random.default_rng(4)), arities=(2, 3, 2, 2, 4, 2, 3)
        )
        path = tmp_path / "net.json"
        write_network(net, path)
        back = read_network(path)
        assert back.names == net.names
        assert back.levels == net.levels
        assert back.graph.edges() == net.graph.edges()
        for v in range(net.d):
            np.testing.assert_allclose(back.cpts[v], net.cpts[v], atol=1e-12)

    def test_sample_after_roundtrip_identical(self, tmp_path):
        net = monotone_network(random_dag(5, 2, np.random.default_rng(8)))
        path = tmp_path / "net.json"
        write_network(net, path)
        back = read_network(path)
        np.testing.assert_array_equal(
            forward_sample(net, 100, seed=2).rows,
            forward_sample(back, 100, seed=2).rows,
        )

    def _write(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    def _valid_doc(self):
        return {
            "variables": [
                {"name": "a", "levels": ["0", "1"]},
                {"name": "b", "levels": ["0", "1"]},
            ],
            "edges": [["a", "b"]],
            "cpts": {
                "a": [0.5, 0.5],
                "b": [1.0, 0.0, 0.0, 1.0],
            },
        }

    def test_read_valid(self, tmp_path):
        net = read_network(self._write(tmp_path, self._valid_doc()))
        assert net.names == ("a", "b")
        assert net.graph.edges() == [(0, 1)]

    def test_read_missing_key(self, tmp_path):
        doc = self._valid_doc()
        del doc["cpts"]
        with pytest.raises(ValueError, match="cpts"):
            read_network(self._write(tmp_path, doc))
        # a variable entry that is not an object
        doc = self._valid_doc()
        doc["variables"][1] = "b"
        with pytest.raises(DataError, match="variable entries"):
            read_network(self._write(tmp_path, doc))

    def test_read_unknown_edge_name(self, tmp_path):
        for edges in ([["a", "zz"]], 5, [5], [[["a"], "b"]]):
            doc = self._valid_doc()
            doc["edges"] = edges
            with pytest.raises(DataError, match="edge"):
                read_network(self._write(tmp_path, doc))

    def test_read_cycle(self, tmp_path):
        doc = self._valid_doc()
        doc["edges"] = [["a", "b"], ["b", "a"]]
        doc["cpts"]["a"] = [1.0, 0.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            read_network(self._write(tmp_path, doc))

    @pytest.mark.parametrize("edges, message", [
        # the errors name the variables as the file writes them
        ([["a", "b"], ["b", "c"], ["a", "b"]], "duplicate edge 'a' -> 'b'"),
        ([["a", "b"], ["b", "b"]], "bad edge: self-loop on 'b'"),
        ([["a", "b"], ["b", "c"], ["c", "a"]], "the edges close a cycle"),
    ])
    def test_read_bad_edges_of_three_variables(self, tmp_path, edges, message):
        doc = self._valid_doc()
        doc["variables"].append({"name": "c", "levels": ["0", "1"]})
        doc["cpts"]["c"] = [0.5, 0.5]
        read_network(self._write(tmp_path, doc))
        doc["edges"] = edges
        with pytest.raises(DataError, match=f"^{message}$"):
            read_network(self._write(tmp_path, doc))

    def test_read_negative_probability(self, tmp_path):
        doc = self._valid_doc()
        doc["cpts"]["a"] = [1.5, -0.5]
        with pytest.raises(ValueError, match="negative"):
            read_network(self._write(tmp_path, doc))

    def test_read_bad_column_sum(self, tmp_path):
        doc = self._valid_doc()
        doc["cpts"]["a"] = [0.7, 0.2]
        with pytest.raises(ValueError, match="sum"):
            read_network(self._write(tmp_path, doc))
        # json writes and reads NaN and Infinity; neither is a probability,
        # and nor is an int past the double range, which np.asarray could
        # not convert
        for column in ([float("nan"), 1.0], [float("nan"), float("nan")],
                       [float("inf"), 0.0], [10**400, 0], [-(10**400), 1]):
            doc["cpts"]["a"] = column
            with pytest.raises(DataError, match="^CPT of 'a' has non-finite entries$"):
                read_network(self._write(tmp_path, doc))

    def test_read_wrong_cpt_size(self, tmp_path):
        doc = self._valid_doc()
        doc["cpts"]["b"] = [0.5, 0.5]
        with pytest.raises(ValueError, match="entries"):
            read_network(self._write(tmp_path, doc))
        # ragged, nested and non-numeric tables
        for table in ([[1.0, 0.0], [0.0]], [[1.0, 0.0], [0.0, 1.0]],
                      ["x", "y", "z", "w"], 0.5):
            doc["cpts"]["b"] = table
            with pytest.raises(DataError, match="flat list of numbers"):
                read_network(self._write(tmp_path, doc))

    def test_read_renormalizes_rounding_noise(self, tmp_path):
        doc = self._valid_doc()
        doc["cpts"]["a"] = [0.5000001, 0.5]
        net = read_network(self._write(tmp_path, doc))
        assert abs(net.cpts[0][:, 0].sum() - 1.0) < 1e-12

    def test_read_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="JSON"):
            read_network(path)
        for text in ("[1, 2]", '"net"', "5", "null"):
            path.write_text(text)
            with pytest.raises(DataError, match="JSON object"):
                read_network(path)


class TestFixtures:
    def test_child_shape_dimensions(self):
        net = child_shape_network()
        assert net.d == 20
        assert len(net.graph.edges()) == 25
        indeg = max(len(net.graph.parents(v)) for v in range(20))
        assert indeg <= 2
