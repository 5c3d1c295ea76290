"""hybridbn.special against scipy.special, bit for bit.

Each ported routine is held to the scipy function or private ufunc that
runs the same Cephes code, with ==, not approx: the Benjamini-Hochberg step
ranks p-values, and many of them are exactly 0.0. The draws are split by
the branches of each routine, so every branch and both sides of each
switch point are exercised.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import _ufuncs

import hybridbn
from hybridbn import special
from hybridbn.data import count_table
from hybridbn.independence import chi2_survival
from hybridbn.network import forward_sample
from hybridbn.scoring import ScoreConfig, Scorer
from hybridbn.synthetic import child_shape_network

from helpers import temme_table


def assert_same(ours, theirs):
    theirs = float(theirs)
    assert isinstance(ours, float)
    if math.isnan(theirs):
        assert math.isnan(ours)
    else:
        assert ours == theirs
        assert math.copysign(1.0, ours) == math.copysign(1.0, theirs)


def floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw)


def around(*points, lo=-math.inf):
    # each point and its two neighbouring doubles on both sides, from lo on
    return st.sampled_from(sorted(
        v for p in points for v in (
            math.nextafter(math.nextafter(p, -math.inf), -math.inf),
            math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf),
            math.nextafter(math.nextafter(p, math.inf), math.inf),
        ) if v >= lo
    ))


# the switch points of lgam: the rational function on [2, 3], the
# recurrence below 13, Stirling's series, its short form from 1000, its
# leading term above 1e8, and infinity above MAXLGM
LGAM_EDGES = (0.0, 2.0, 3.0, 13.0, 1000.0, 1e8, special.MAXLGM)


class TestLgamma:
    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(
        floats(0, 2), floats(2, 3), floats(3, 13), floats(13, 1000),
        floats(1000, 1e8), floats(1e8, special.MAXLGM),
        floats(special.MAXLGM, math.inf), around(*LGAM_EDGES, lo=0.0),
    ))
    @example(x=0.0)
    @example(x=math.inf)
    @example(x=5e-324)
    @example(x=1.0)
    def test_equals_gammaln(self, x):
        assert_same(special.lgamma(x), sc.gammaln(x))

    def test_nan_and_negative(self):
        assert math.isnan(special.lgamma(math.nan))
        for x in (-1e-300, -0.5, -math.inf):
            with pytest.raises(ValueError):
                special.lgamma(x)


class TestHelpers:
    @settings(max_examples=200, deadline=None)
    @given(x=st.one_of(floats(-0.5, 0.5), floats(-1, 1), floats(0.5, 1e4),
                       around(-0.5, 0.5)))
    @example(x=math.inf)
    @example(x=-math.inf)
    def test_expm1(self, x):
        assert_same(special._expm1(x), sc.expm1(x))

    @settings(max_examples=200, deadline=None)
    @given(x=st.one_of(floats(-0.5, 0.5), floats(-1, 10, exclude_min=True),
                       around(-0.5, 0.5)))
    def test_log1pmx(self, x):
        assert_same(special._log1pmx(x), _ufuncs._log1pmx(x))

    @settings(max_examples=200, deadline=None)
    @given(x=st.one_of(floats(-0.5, 0.5), floats(0.5, 1.5), floats(1.5, 1e3),
                       around(-0.5, 0.5, 1.5)))
    def test_lgam1p(self, x):
        assert_same(special._lgam1p(x), _ufuncs._lgam1p(x))

    @settings(max_examples=200, deadline=None)
    @given(x=st.one_of(floats(0, 1, exclude_min=True), floats(1, 1e6), around(1.0)))
    def test_lanczos_sum_expg_scaled(self, x):
        assert_same(special._lanczos_sum_expg_scaled(x),
                    _ufuncs._lanczos_sum_expg_scaled(x))

    @settings(max_examples=300, deadline=None)
    @given(a=floats(1e-3, 1e3), x=floats(1e-3, 3e3))
    def test_igam_fac(self, a, x):
        assert_same(special._igam_fac(a, x), _ufuncs._igam_fac(a, x))

    @settings(max_examples=200, deadline=None)
    @given(a=floats(150, 1e4), ratio=floats(0.6, 1.4))
    def test_igam_fac_near_a(self, a, ratio):
        # |a - x| <= 0.4 a: the Lanczos form, through log1pmx from 200 on
        assert_same(special._igam_fac(a, a * ratio), _ufuncs._igam_fac(a, a * ratio))


def igamc_pairs():
    """(a, x) drawn per branch of igamc."""
    a = floats(1e-3, 20)
    return st.one_of(
        st.tuples(a, floats(1e-300, 0.5)),                      # x <= 0.5
        st.tuples(a, floats(0.5, 1.1, exclude_min=True)),       # 0.5 < x <= 1.1
        st.tuples(floats(1e-3, 2), floats(1e-3, 1.1)),          # near -0.4/log(x) = a
        st.tuples(a, floats(1.1, 60, exclude_min=True)),        # x > 1.1
        st.tuples(floats(1.2, 20), floats(0.9, 1.1)).map(      # each side of x = a
            lambda p: (p[0], p[0] * p[1])),
        st.tuples(floats(20, 200), floats(1e-3, 1e4)),          # around the
        st.tuples(floats(200, 1e5), floats(1e-3, 1e6)),         # Temme region
        st.tuples(floats(0.5, 5e3), floats(-2, 2)).map(         # the underflow
            lambda p: (p[0], underflow_edge(p[0]) + p[1])),     # edge
    )


def underflow_edge(a):
    # the x > a where a log(x) - x - lgamma(a) reaches -MAXLOG: past it,
    # igam_fac returns 0.0, not a subnormal
    lo, hi = a, a + 2000.0 + 50 * a
    for _ in range(80):
        mid = (lo + hi) / 2
        if a * math.log(mid) - mid - math.lgamma(a) < -special.MAXLOG:
            hi = mid
        else:
            lo = mid
    return lo


class TestGammaincc:
    @settings(max_examples=600, deadline=None)
    @given(pair=igamc_pairs())
    @example(pair=(1.0, 0.5))
    @example(pair=(1.0, 1.1))
    @example(pair=(20.0, 20.0))
    @example(pair=(200.0, 200.0))
    @example(pair=(0.5, underflow_edge(0.5)))
    @example(pair=(2.0, math.nextafter(underflow_edge(2.0), math.inf)))
    def test_equals_scipy(self, pair):
        a, x = pair
        assert_same(special.gammaincc(a, x), sc.gammaincc(a, x))

    @settings(max_examples=200, deadline=None)
    @given(a=floats(20, 1e5), edge=floats(-1e-3, 1e-3))
    def test_temme_region_edges(self, a, edge):
        # both sides of |x - a| / a = 0.3 (a < 200) and 4.5 / sqrt(a)
        # (a > 200): outside, igamc's series and continued fraction answer;
        # inside, Temme's expansion does
        width = 0.3 if a < 200 else 4.5 / math.sqrt(a)
        for x in (a * (1 + width + edge), a * (1 - width + edge)):
            if x >= 0:
                assert_same(special.gammaincc(a, x), sc.gammaincc(a, x))

    def test_temme_region_predicate(self):
        # the region igamc leaves to Temme's expansion, on both sides of
        # each edge; at a = 20 and a = 200 exactly igamc never uses it
        for a in (20.5, 50.0, 199.5, 200.5, 1e3, 1e5):
            width = 0.3 if a < 200 else 4.5 / math.sqrt(a)
            for sign in (1, -1):
                assert special._in_temme_region(a, a * (1 + sign * width * (1 - 1e-9)))
                assert not special._in_temme_region(
                    a, a * (1 + sign * width * (1 + 1e-9)))
        for a in (20.0, 200.0):
            assert not special._in_temme_region(a, a)
        assert special._in_temme_region(math.nextafter(20.0, 21.0), 20.0)

    def test_special_values(self):
        for a in (0.0, 0.5, 3.0, 250.0, math.inf):
            for x in (0.0, 0.5, 3.0, 250.0, math.inf):
                assert_same(special.gammaincc(a, x), sc.gammaincc(a, x))
        with pytest.raises(ValueError):
            special.gammaincc(-1.0, 1.0)
        with pytest.raises(ValueError):
            special.gammaincc(1.0, -1.0)

    @settings(max_examples=400, deadline=None)
    @given(pair=st.one_of(
        st.tuples(floats(20, 200, exclude_min=True, exclude_max=True),
                  floats(-1, 1)),
        st.tuples(floats(200, 1e5, exclude_min=True), floats(-1, 1)),
    ))
    @example(pair=(math.nextafter(20.0, 21.0), 0.0))
    @example(pair=(50.0, 0.0))
    @example(pair=(1e5, 1.0))
    @example(pair=(1e5, -1.0))
    def test_temme_region_equals_scipy(self, pair):
        # a < 200 and a > 200, x anywhere inside the region, up to its edges
        a, ratio = pair
        width = 0.3 if a < 200 else 4.5 / math.sqrt(a)
        x = a * (1 + (1 - 1e-9) * width * ratio)
        assert special._in_temme_region(a, x)
        assert_same(special.gammaincc(a, x), sc.gammaincc(a, x))

    def test_temme_table_is_the_exact_one(self):
        # each literal is the double nearest the exact rational d[k][n];
        # the oracle's first entries are Temme's closed forms
        exact = temme_table()
        assert exact[0][:4] == (Fraction(-1, 3), Fraction(1, 12),
                                Fraction(-2, 135), Fraction(1, 864))
        assert exact[1][:2] == (Fraction(-1, 540), Fraction(-1, 288))
        assert len(special._TEMME_D) == len(exact) == 25
        for k, (row, want) in enumerate(zip(special._TEMME_D, exact)):
            assert len(row) == len(want) == 25
            for n, (v, w) in enumerate(zip(row, want)):
                assert v == float(w), (k, n)

    @settings(max_examples=100, deadline=None)
    @given(dof=st.integers(41, 2000).filter(lambda d: d != 400),
           ratio=floats(-1, 1))
    def test_chi2_survival_in_the_temme_region(self, dof, ratio):
        # the p-value comes from the port of Temme's expansion and is
        # scipy's own double; a = 200 is in neither part of the region
        a = dof / 2.0
        width = 0.3 if a < 200 else 4.5 / math.sqrt(a)
        x = 2.0 * a * (1 + 0.99 * width * ratio)
        assert special._in_temme_region(a, x / 2.0)
        assert_same(chi2_survival(x, dof), sc.gammaincc(a, x / 2.0))


# the switch points of erfc: erf below 1, P / Q below 8, R / S from 8, and
# 0.0 (2.0 for negative x) where -x^2 < -MAXLOG
ERFC_EDGES = (1.0, 8.0, math.sqrt(special.MAXLOG))


class TestErfc:
    @settings(max_examples=400, deadline=None)
    @given(x=st.one_of(
        floats(-1, 1), floats(1, 8), floats(8, 27), floats(27, 1e3),
        floats(-27, -1), floats(-1e3, -27),
        around(*ERFC_EDGES), around(*(-e for e in ERFC_EDGES)),
    ))
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=math.inf)
    @example(x=-math.inf)
    @example(x=math.nan)
    def test_equals_scipy(self, x):
        assert_same(special._erfc(x), sc.erfc(x))


LEARN_AND_MLC = """
import sys
sys.modules["scipy"] = None  # an import of scipy now raises ImportError
from hybridbn.cli import main
from hybridbn.independence import chi2_survival
from hybridbn.network import forward_sample
from hybridbn.data import write_csv
from hybridbn.synthetic import child_shape_network, two_cluster_network

out = sys.argv[1]
write_csv(forward_sample(child_shape_network(), 2000, seed=0), out + "/child.csv")
write_csv(forward_sample(two_cluster_network(), 300, seed=0), out + "/mlc.csv")
assert main(["learn", "--data", out + "/child.csv", "--out", out + "/n.json"]) == 0
assert main(["mlc", "--data", out + "/mlc.csv", "--label-count", "3",
             "--scenario", "mlp+mb", "--folds", "3", "--seed", "0",
             "--report", out + "/r.json"]) == 0
print(repr(chi2_survival(100.0, 100)))  # a = x = 50: Temme's region
print(sorted(m for m, module in sys.modules.items()
             if module is not None and m.split(".")[0] == "scipy"))
# a plain np.unique imports numpy.ma (about 1.5 MB); numpy.matrixlib is not it
print(sorted(m for m in sys.modules
             if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_learn_and_mlc_load_no_scipy(tmp_path):
    src = str(Path(hybridbn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", LEARN_AND_MLC, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    p_value, loaded, masked = done.stdout.splitlines()
    assert float(p_value) == sc.gammaincc(50.0, 50.0)
    assert loaded == "[]"
    assert masked == "[]"


def test_bdeu_local_equals_the_gammaln_formula():
    # the Scorer's lnG memo gives the score that scipy's gammaln gave, bit
    # for bit, whether the memo is fresh or shared across families
    def gammaln_bdeu(data, node, parents, ess):
        counts = np.ascontiguousarray(count_table(data, (node,), parents).T)
        q = math.prod(data.arities[p] for p in parents)
        a_j, a_jk = ess / q, ess / (q * data.arities[node])
        config_terms = sc.gammaln(a_j) - sc.gammaln(a_j + counts.sum(axis=1))
        cell_terms = sc.gammaln(a_jk + counts) - sc.gammaln(a_jk)
        return float(config_terms.sum() + cell_terms.sum())

    data = forward_sample(child_shape_network(), 3000, seed=1)
    shared = {ess: Scorer(data, ScoreConfig(ess=ess)) for ess in (10.0, 1.0, 0.37, 1e4)}
    rng = np.random.default_rng(0)
    for _ in range(60):
        node = int(rng.integers(data.d))
        others = [v for v in range(data.d) if v != node]
        parents = tuple(rng.choice(others, size=rng.integers(0, 4), replace=False))
        for ess in (10.0, 1.0, 0.37, 1e4):
            # a Scorer counts the family with its parents sorted
            want = gammaln_bdeu(data, node, tuple(sorted(parents)), ess)
            assert shared[ess].local(node, parents) == want
            assert Scorer(data, ScoreConfig(ess=ess)).local(node, parents) == want
