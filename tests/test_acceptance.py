"""Whole-pipeline acceptance gate.

Eight checks, each emitting one PASS/FAIL line on the real stdout so the
verdicts stay visible under pytest's capture:

  1. oracle exactness of local discovery, skeleton assembly and the
     label-powerset decomposition over 200 random DAGs
  2. independence-test correctness: MI, G2, dof adjustment, chi-square
     tail probabilities, empirical type-I error
  3. score correctness: BDeu likelihood equivalence on enumerated
     equivalence classes plus closed-form toy datasets
  4. CPDAG and SHD correctness against brute-force enumeration
  5. desk-scale structure recovery with holdout scoring
  6. multi-label decomposition behavior on clustered generators
  7. CLI determinism across reruns and worker counts
  8. conditioning-set caps inside the two restricted discovery passes

Check 8 reads instrumentation gathered while check 1 runs; standalone it
triggers the same sweep on demand.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hybridbn.skeleton as skeleton_mod
from hybridbn.cli import main
from hybridbn.data import CategoricalDataset
from hybridbn.graphs import Dag
from hybridbn.independence import DataIndependenceSource, chi2_survival
from hybridbn.metrics import dag_to_cpdag, shd, skeleton_metrics
from hybridbn.multilabel import (
    MlcConfig,
    minimal_label_powersets,
    run_scenario,
    run_scenarios,
)
from hybridbn.network import forward_sample, write_network
from hybridbn.scoring import ScoreConfig, Scorer, hill_climb
from hybridbn.skeleton import build_skeleton, hpc
from hybridbn.synthetic import (
    monotone_network,
    random_dag,
    recovery_network,
    two_cluster_network,
)

from helpers import (
    DSeparationSource,
    RecordingSource,
    all_dags,
    bdeu_family_oracle,
    blanket_and_minimal,
    brute_force_cpdag,
    brute_min_partition,
    chi2_sf_oracle,
    equivalence_key,
    g2_statistic,
    genbase_shape_network,
    mi_brute,
    mutual_information,
    random_dataset,
    random_pdag_pair,
    true_skeleton,
)
from helpers import test_independence as ci_test
from hybridbn.multilabel import powerset_markov_boundary


# The one-line verdicts must reach the terminal even though pytest captures
# at the file-descriptor level; suspension only works from inside the test
# call phase, so the fixture hands the capture handle to _verdict instead.
_CAPTURE = {}


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    _CAPTURE["fd"] = capfd
    yield
    _CAPTURE.pop("fd", None)


def _verdict(num, name, ok, detail):
    mark = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}/8] {name}: {mark} ({detail})"
    cap = _CAPTURE.get("fd")
    if cap is not None:
        with cap.disabled():
            print("\n" + line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _table(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return counts[:, :, None] if counts.ndim == 2 else counts


# The oracle sweep feeds checks 1 and 8; its results are cached so the two
# tests share a single run when the module executes in file order.
_SWEEP = {}


def _run_oracle_sweep():
    if _SWEEP:
        return _SWEEP
    stats = {"pcs_max_z": -1, "sps_max_z": -1, "pcs_calls": 0, "sps_calls": 0}
    real_pcs, real_sps = skeleton_mod.de_pcs, skeleton_mod.de_sps

    def spy_pcs(target, src, universe):
        rec = RecordingSource(src)
        out = real_pcs(target, rec, universe)
        stats["pcs_max_z"] = max(stats["pcs_max_z"], rec.max_z)
        stats["pcs_calls"] += rec.calls
        return out

    def spy_sps(target, src, universe, pcs, dsep):
        rec = RecordingSource(src)
        out = real_sps(target, rec, universe, pcs, dsep)
        stats["sps_max_z"] = max(stats["sps_max_z"], rec.max_z)
        stats["sps_calls"] += rec.calls
        return out

    rng = np.random.default_rng(1202)
    failures = []
    started = time.perf_counter()
    skeleton_mod.de_pcs, skeleton_mod.de_sps = spy_pcs, spy_sps
    try:
        for trial in range(200):
            d = int(rng.integers(4, 13))
            g = random_dag(d, 3, rng)
            src = DSeparationSource(g)
            for t in range(d):
                want = set(g.parents(t)) | set(g.children(t))
                if hpc(t, src) != want:
                    failures.append((trial, "hpc", t))
            if build_skeleton(src).edges != true_skeleton(g).edges:
                failures.append((trial, "skeleton"))
            n_labels = int(rng.integers(2, 5))
            labels = sorted(rng.choice(d, size=n_labels, replace=False).tolist())
            blocks = minimal_label_powersets(g, labels)
            if blocks != brute_min_partition(g, labels):
                failures.append((trial, "powersets", labels))
            for block in blocks:
                boundary = powerset_markov_boundary(g, block, labels)
                if not blanket_and_minimal(g, list(block), labels, boundary):
                    failures.append((trial, "boundary", block))
    finally:
        skeleton_mod.de_pcs, skeleton_mod.de_sps = real_pcs, real_sps
    stats["failures"] = failures
    stats["seconds"] = time.perf_counter() - started
    stats["trials"] = 200
    _SWEEP.update(stats)
    return _SWEEP


def test_01_oracle_exactness():
    stats = _run_oracle_sweep()
    ok = not stats["failures"] and stats["seconds"] < 300.0
    _verdict(1, "oracle exactness", ok,
             f"{stats['trials']} graphs, {len(stats['failures'])} failures, "
             f"{stats['seconds']:.1f}s")


def test_02_ci_test_correctness():
    problems = []

    rng = np.random.default_rng(5)
    for _ in range(20):
        r, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        strata = [
            np.outer(rng.integers(1, 9, r), rng.integers(1, 9, c))
            for _ in range(int(rng.integers(1, 4)))
        ]
        if mutual_information(_table(np.stack(strata, axis=2))) != 0.0:
            problems.append("factorizing MI not exactly 0")
            break

    worst_g2 = 0.0
    for _ in range(30):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                 int(rng.integers(1, 4)))
        counts = rng.integers(1, 40, size=shape)
        t = _table(counts)
        stat, _ = g2_statistic(t)
        worst_g2 = max(worst_g2, abs(stat - 2.0 * t.sum() * mi_brute(t)))
    if worst_g2 > 1e-9:
        problems.append(f"G2 vs 2n*MI off by {worst_g2:.2e}")

    for counts, want in (
        ([[10, 10], [10, 10]], 1),
        ([[10, 0], [14, 0]], 0),
        (np.ones((3, 2, 2), dtype=int), 4),
    ):
        if g2_statistic(_table(counts))[1] != want:
            problems.append(f"dof adjustment wrong for {np.shape(counts)}")

    worst_chi = 0.0
    for dof in range(1, 31):
        for x in np.linspace(0.0, 60.0, 121):
            worst_chi = max(
                worst_chi,
                abs(chi2_survival(float(x), dof) - chi2_sf_oracle(float(x), dof)),
            )
    if worst_chi > 1e-8:
        problems.append(f"chi2 tail off by {worst_chi:.2e}")

    rng = np.random.default_rng(20260816)
    rejections = 0
    powered = 0
    for _ in range(1000):
        rows = rng.integers(0, 2, size=(1000, 2)).astype(np.int32)
        ds = CategoricalDataset(("a", "b"), (("0", "1"), ("0", "1")), rows)
        res = ci_test(ds, 0, 1)
        powered += res.decided_by_power_rule
        rejections += not res.independent
    rate = rejections / 1000.0
    band = 3.0 * math.sqrt(0.05 * 0.95 / 1000.0)
    if powered:
        problems.append(f"{powered} power-rule decisions on n=1000 pairs")
    if abs(rate - 0.05) > band:
        problems.append(f"type-I rate {rate:.4f} outside 0.05 +/- {band:.4f}")

    _verdict(2, "independence-test correctness", not problems,
             problems[0] if problems
             else f"chi2 max err {worst_chi:.1e}, type-I {rate:.4f}")


def test_03_score_correctness():
    problems = []

    worst = 0.0
    for d in (3, 4):
        dags = all_dags(d)
        groups = {}
        for edges in dags:
            groups.setdefault(equivalence_key(d, edges), []).append(edges)
        rng = np.random.default_rng(31)
        for _ in range(20):
            ds = random_dataset(rng, d, int(rng.integers(40, 160)))
            scorer = Scorer(ds, ScoreConfig(score="bdeu", ess=10.0))
            totals = {edges: scorer.total(Dag(d, edges)) for edges in dags}
            for members in groups.values():
                vals = [totals[e] for e in members]
                worst = max(worst, max(vals) - min(vals))
    if worst >= 1e-8:
        problems.append(f"equivalence-class spread {worst:.2e}")

    one = CategoricalDataset(("a",), (("0", "1"),),
                             np.array([[0]], dtype=np.int32))
    if abs(Scorer(one, ScoreConfig(ess=1.0)).local(0, ()) - math.log(0.5)) > 1e-12:
        problems.append("single-row BDeu != ln(1/2)")

    toy = CategoricalDataset(
        ("a", "b"), (("0", "1"), ("0", "1")),
        np.array([[0, 0], [0, 1], [1, 1]], dtype=np.int32),
    )
    for node, parents in ((0, ()), (1, ()), (1, (0,)), (0, (1,))):
        got = Scorer(toy, ScoreConfig(ess=3.0)).local(node, parents)
        want = bdeu_family_oracle(toy, node, parents, 3.0)
        if abs(got - want) > 1e-12:
            problems.append(f"BDeu toy mismatch at node {node}")

    two = CategoricalDataset(("a",), (("0", "1"),),
                             np.array([[0], [1]], dtype=np.int32))
    if abs(Scorer(two, ScoreConfig(score="bic")).local(0)
           - (2 * math.log(0.5) - 0.5 * math.log(2))) > 1e-12:
        problems.append("two-row BIC closed form")
    three = CategoricalDataset(("a",), (("0", "1"),),
                               np.array([[0], [0], [1]], dtype=np.int32))
    want = 2 * math.log(2 / 3) + math.log(1 / 3) - 0.5 * math.log(3)
    if abs(Scorer(three, ScoreConfig(score="bic")).local(0) - want) > 1e-12:
        problems.append("three-row BIC closed form")

    _verdict(3, "score correctness", not problems,
             problems[0] if problems else f"max class spread {worst:.1e}")


def test_04_cpdag_and_shd():
    started = time.perf_counter()
    checked = 0
    mismatches = 0
    for d in range(1, 6):
        for edges in all_dags(d):
            if dag_to_cpdag(Dag(d, edges)) != brute_force_cpdag(d, edges):
                mismatches += 1
            checked += 1

    rng = np.random.default_rng(41)
    shd_bad = 0
    for _ in range(100):
        a, b = random_pdag_pair(rng, int(rng.integers(2, 7)))
        if shd(a, a) != 0 or shd(b, b) != 0 or shd(a, b) != shd(b, a):
            shd_bad += 1

    ok = mismatches == 0 and shd_bad == 0
    _verdict(4, "CPDAG and SHD correctness", ok,
             f"{checked} DAGs enumerated, {mismatches} CPDAG mismatches, "
             f"{shd_bad} SHD violations, {time.perf_counter() - started:.1f}s")


def test_05_desk_scale_recovery():
    net = recovery_network()
    truth = net.graph
    skel_truth = true_skeleton(truth)
    pattern_truth = dag_to_cpdag(truth)
    empty = Dag(truth.d, [])
    sizes = (500, 2000, 20000)
    recalls = {n: [] for n in sizes}
    shds = {n: [] for n in sizes}
    min_margin = math.inf
    started = time.perf_counter()
    for seed in range(10):
        for si, n in enumerate(sizes):
            train = forward_sample(net, n, [seed, si, 0])
            holdout = forward_sample(net, 10000, [seed, si, 1])
            skel = build_skeleton(DataIndependenceSource(train))
            result = hill_climb(train, skel)
            recalls[n].append(skeleton_metrics(skel, skel_truth).recall)
            shds[n].append(shd(dag_to_cpdag(result.dag), pattern_truth))
            scorer = Scorer(holdout, ScoreConfig(score="bdeu", ess=10.0))
            min_margin = min(min_margin,
                             scorer.total(result.dag) - scorer.total(empty))
    elapsed = time.perf_counter() - started

    med_recall = [float(np.median(recalls[n])) for n in sizes]
    med_shd = [float(np.median(shds[n])) for n in sizes]
    problems = []
    if any(med_recall[i] > med_recall[i + 1] for i in range(2)):
        problems.append(f"median recall not non-decreasing: {med_recall}")
    if med_recall[-1] < 0.9:
        problems.append(f"median recall at n=20000 is {med_recall[-1]:.3f}")
    if any(med_shd[i] < med_shd[i + 1] for i in range(2)):
        problems.append(f"median SHD not non-increasing: {med_shd}")
    if min_margin < 0.0:
        problems.append(f"holdout BDeu fell below empty graph by {-min_margin:.1f}")
    if elapsed >= 900.0:
        problems.append(f"runtime {elapsed:.0f}s")

    _verdict(5, "desk-scale recovery", not problems,
             problems[0] if problems
             else f"recall {med_recall}, SHD {med_shd}, "
                  f"min margin +{min_margin:.1f}, {elapsed:.1f}s")


def test_06_mlc_decomposition():
    net = two_cluster_network()
    labels = list(range(8, 14))
    two_block_folds = 0
    mlp_accs, br_accs = [], []
    oversized = 0
    for seed in range(10):
        ds = forward_sample(net, 5000, seed)
        # one local DAG per fold, shared by the mlp and mlp+mb scenarios
        reports = run_scenarios(ds, labels, ["mlp", "br", "mlp+mb"],
                                MlcConfig(folds=10, seed=seed))
        mlp, br, mm = reports["mlp"], reports["br"], reports["mlp+mb"]
        two_block_folds += sum(1 for f in mlp["folds"] if f["n_blocks"] == 2)
        mlp_accs += [f["accuracy"] for f in mlp["folds"]]
        br_accs += [f["accuracy"] for f in br["folds"]]
        oversized += sum(1 for f in mm["folds"]
                         if max(f["boundary_sizes"]) > 8)

    problems = []
    if two_block_folds < 90:
        problems.append(f"only {two_block_folds}/100 folds recovered 2 blocks")
    if float(np.median(mlp_accs)) < float(np.median(br_accs)):
        problems.append("median accuracy ordering violated")
    if oversized:
        problems.append(f"{oversized} folds with boundary above feature count")

    gnet = genbase_shape_network()
    glabels = list(range(12, 18))
    if minimal_label_powersets(gnet.graph, glabels) != [(y,) for y in glabels]:
        problems.append("degenerate generator not all-singleton in the graph")
    rep = run_scenario(forward_sample(gnet, 5000, 0), glabels, "mlp",
                       MlcConfig(folds=10, seed=0))
    degenerate_ok = all(
        f["n_blocks"] == 6 and f["labels_per_block"]["max"] == 1
        for f in rep["folds"]
    )
    if not degenerate_ok:
        problems.append("degenerate case produced a non-singleton block")

    _verdict(6, "multi-label decomposition", not problems,
             problems[0] if problems
             else f"{two_block_folds}/100 two-block folds, "
                  f"median mlp {np.median(mlp_accs):.3f} >= "
                  f"br {np.median(br_accs):.3f}, degenerate all-singleton")


def test_07_cli_determinism(tmp_path):
    def run(*argv):
        code = main([str(a) for a in argv])
        assert code == 0, f"command failed: {argv}"

    def same(a, b):
        return Path(a).read_bytes() == Path(b).read_bytes()

    problems = []

    def check(tag, a, b):
        if not same(a, b):
            problems.append(tag)

    net_path = tmp_path / "net.json"
    write_network(monotone_network(random_dag(5, 2, np.random.default_rng(3))),
                  net_path)
    mnet_path = tmp_path / "mlc_net.json"
    write_network(genbase_shape_network(), mnet_path)

    for rep in ("a", "b"):
        run("sample", "--net", net_path, "--n", 400, "--seed", 7,
            "--out", tmp_path / f"rows_{rep}.csv")
    check("sample rerun", tmp_path / "rows_a.csv", tmp_path / "rows_b.csv")
    data = tmp_path / "rows_a.csv"

    for rep in ("a", "b"):
        run("learn-skeleton", "--data", data,
            "--out", tmp_path / f"skel_{rep}.json")
    run("learn-skeleton", "--data", data, "--jobs", 4,
        "--out", tmp_path / "skel_j4.json")
    check("learn-skeleton rerun", tmp_path / "skel_a.json", tmp_path / "skel_b.json")
    check("learn-skeleton jobs", tmp_path / "skel_a.json", tmp_path / "skel_j4.json")

    for rep in ("a", "b"):
        run("learn", "--data", data, "--out", tmp_path / f"learned_{rep}.json",
            "--report", tmp_path / f"report_{rep}.json")
    run("learn", "--data", data, "--jobs", 4,
        "--out", tmp_path / "learned_j4.json",
        "--report", tmp_path / "report_j4.json")
    for part in ("learned", "report"):
        check(f"learn rerun ({part})",
              tmp_path / f"{part}_a.json", tmp_path / f"{part}_b.json")
        check(f"learn jobs ({part})",
              tmp_path / f"{part}_a.json", tmp_path / f"{part}_j4.json")

    for rep in ("a", "b"):
        run("evaluate", "--learned", tmp_path / "learned_a.json",
            "--truth", net_path, "--test", data,
            "--report", tmp_path / f"eval_{rep}.json")
    check("evaluate rerun", tmp_path / "eval_a.json", tmp_path / "eval_b.json")

    for rep in ("a", "b"):
        run("benchmark", "--truth", net_path, "--sizes", "100,200",
            "--repeats", 2, "--seed", 0, "--test-n", 1000,
            "--out", tmp_path / f"bench_{rep}.csv")
    run("benchmark", "--truth", net_path, "--sizes", "100,200",
        "--repeats", 2, "--seed", 0, "--test-n", 1000, "--jobs", 4,
        "--out", tmp_path / "bench_j4.csv")
    check("benchmark rerun", tmp_path / "bench_a.csv", tmp_path / "bench_b.csv")
    check("benchmark jobs", tmp_path / "bench_a.csv", tmp_path / "bench_j4.csv")

    run("sample", "--net", mnet_path, "--n", 300, "--seed", 1,
        "--out", tmp_path / "mlc_rows.csv")
    for rep in ("a", "b"):
        run("mlc", "--data", tmp_path / "mlc_rows.csv", "--label-count", 6,
            "--scenario", "mlp", "--seed", 0,
            "--report", tmp_path / f"mlc_{rep}.json")
    run("mlc", "--data", tmp_path / "mlc_rows.csv", "--label-count", 6,
        "--scenario", "mlp", "--seed", 0, "--jobs", 4,
        "--report", tmp_path / "mlc_j4.json")
    check("mlc rerun", tmp_path / "mlc_a.json", tmp_path / "mlc_b.json")
    check("mlc jobs", tmp_path / "mlc_a.json", tmp_path / "mlc_j4.json")

    for rep in ("a", "b"):
        run("export-dot", "--net", net_path, "--cpdag",
            "--out", tmp_path / f"dot_{rep}.dot")
    check("export-dot rerun", tmp_path / "dot_a.dot", tmp_path / "dot_b.dot")

    _verdict(7, "CLI determinism", not problems,
             ", ".join(problems) if problems
             else "7 subcommands byte-stable, jobs 1 == jobs 4")


def test_08_conditioning_caps():
    stats = _run_oracle_sweep()
    problems = []
    if stats["pcs_calls"] == 0 or stats["sps_calls"] == 0:
        problems.append("instrumentation saw no calls")
    if stats["pcs_max_z"] > 1:
        problems.append(f"first pass conditioned on {stats['pcs_max_z']} variables")
    if stats["sps_max_z"] > 2:
        problems.append(f"second pass conditioned on {stats['sps_max_z']} variables")
    _verdict(8, "conditioning-set caps", not problems,
             problems[0] if problems
             else f"max |Z| {stats['pcs_max_z']} in pass 1 "
                  f"({stats['pcs_calls']} tests), "
                  f"{stats['sps_max_z']} in pass 2 ({stats['sps_calls']} tests)")
