"""The three benchmark workloads.

Each workload generates its input files in setup, then runs one op: the
library calls that `hybridbn learn`, `learn --skeleton`, `evaluate` and
`mlc` make, composed from the public functions. An op returns its outputs as
named byte strings (digested and compared by the runner) and a dict of facts
(counts and quality numbers for the per-layer report).

The generators and their parameters are pinned. The training sample is part
of the workload's definition: it is drawn once with SAMPLE_SEED, and the
workload seed only reorders its rows (and draws the holdout sample). Which
CI tests the constraint phase runs depends on the sample; across ten fresh
child samples of 20,000 rows the skeleton took 4.4 to 13.0 s. Fixing the
sample keeps that out of the run-to-run spread, while every seed still gives
the program different files.
"""

import json
import statistics

import numpy as np

from hybridbn.cli import main as cli_main
from hybridbn.data import CategoricalDataset, DataError, kfold, load_csv, write_csv
from hybridbn.graphs import Dag
from hybridbn.independence import DataIndependenceSource, TestConfig
from hybridbn.metrics import dag_to_cpdag, shd
from hybridbn.multilabel import (
    SCENARIOS,
    MlcConfig,
    fit_powerset_classifier,
    global_accuracy,
    learn_local_dag,
    minimal_label_powersets,
    powerset_markov_boundary,
    run_scenario,
)
from hybridbn.network import fit_cpts, forward_sample, read_network, write_network
from hybridbn.scoring import ScoreConfig, Scorer, hill_climb
from hybridbn.skeleton import Skeleton, build_skeleton, read_skeleton, write_skeleton
from hybridbn.synthetic import (
    child_shape_network,
    random_dag,
    random_network,
    two_cluster_network,
)

from tracing import TracingScorer, TracingSource

SAMPLE_SEED = 0
NETWORK_SEED = 0
MLC_SEED = 0


class CheckFailed(Exception):
    """An output differs from what the user-facing path produces."""


def _reorder_rows(ds, seed):
    perm = np.random.default_rng(seed).permutation(ds.n)
    return CategoricalDataset(ds.names, ds.levels, ds.rows[perm])


def _json_bytes(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _load(path, tracer, facts):
    with tracer.span("data.load_csv"):
        data = load_csv(path)
    facts["cells_loaded"] = facts.get("cells_loaded", 0) + data.n * data.d
    return data


def _cli(argv):
    code = cli_main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"hybridbn {argv[0]} exited {code}")


class _StructureWorkload:
    """Shared tail of the two structure-learning workloads: hill climb over
    a skeleton, fit and write the network, then evaluate it the way
    `hybridbn evaluate` does (CPDAG SHD against the truth, BDeu of the
    learned structure on the holdout file)."""

    jobs = 1
    other_jobs = 2

    def _search_and_evaluate(self, data, skel, files, outdir, tracer, facts):
        cfg = ScoreConfig()
        scorer = TracingScorer(data, cfg, tracer) if tracer.enabled else None
        with tracer.span("scoring.search"):
            result = hill_climb(data, skel, cfg, scorer=scorer)
        with tracer.span("network.fit_cpts"):
            net = fit_cpts(result.dag, data)
        out = outdir / "learned.json"
        with tracer.span("network.write"):
            write_network(net, out)
        holdout = _load(files["holdout"], tracer, facts)
        with tracer.span("metrics.eval"):
            truth = read_network(files["truth"])
            distance = shd(dag_to_cpdag(result.dag), dag_to_cpdag(truth.graph))
            bdeu = Scorer(holdout, ScoreConfig(score="bdeu", ess=cfg.ess)).total(result.dag)
        facts.update(
            moves=result.moves,
            skeleton_edges=len(skel.edges),
            shd=distance,
            holdout_bdeu=bdeu,
            holdout_bdeu_per_row=bdeu / holdout.n,
        )
        if scorer is not None:
            facts.update(local_calls=scorer.calls, distinct_families=len(scorer.families))
        edges = [[data.names[u], data.names[v]] for u, v in sorted(skel.edges)]
        return {
            "network": out.read_bytes(),
            "skeleton": _json_bytes(edges),
            "evaluation": _json_bytes({"shd": distance, "holdout_bdeu": bdeu}),
        }

    def _check_evaluate(self, learned, files, outdir, facts, with_test):
        argv = ["evaluate", "--learned", learned, "--truth", files["truth"],
                "--report", outdir / "evaluate.json"]
        if with_test:
            argv += ["--test", files["holdout"]]
        _cli(argv)
        report = json.loads((outdir / "evaluate.json").read_text())
        if report["shd"] != facts["shd"]:
            raise CheckFailed("evaluate reports another SHD than the op")
        if with_test and report["scores"]["learned"]["bdeu"] != facts["holdout_bdeu"]:
            raise CheckFailed("evaluate reports another holdout BDeu than the op")
        holdout = load_csv(files["holdout"])
        empty = Scorer(holdout, ScoreConfig(score="bdeu")).total(Dag(holdout.d))
        if facts["holdout_bdeu"] <= empty:
            raise CheckFailed("the learned network scores no better than the "
                              "empty graph on the holdout sample")


class LearnChild(_StructureWorkload):
    """`hybridbn learn` on the 20-node child-shaped network: the constraint
    phase dominates, with conditioning sets up to |Z| = 10."""

    name = "learn-child"

    def __init__(self, train_rows=20000, holdout_rows=10000):
        self.train_rows = train_rows
        self.holdout_rows = holdout_rows

    def setup(self, workdir, seed, tracer):
        net = child_shape_network()
        with tracer.span("network.forward_sample"):
            train = forward_sample(net, self.train_rows, seed=SAMPLE_SEED)
            holdout = forward_sample(net, self.holdout_rows, seed=[seed, 1])
        files = {
            "train": workdir / "train.csv",
            "holdout": workdir / "holdout.csv",
            "truth": workdir / "truth.json",
        }
        with tracer.span("data.write_csv"):
            write_csv(_reorder_rows(train, seed), files["train"])
            write_csv(holdout, files["holdout"])
        with tracer.span("network.write_truth"):
            write_network(net, files["truth"])
        return files

    def op(self, files, outdir, jobs, tracer):
        facts = {}
        data = _load(files["train"], tracer, facts)
        src = DataIndependenceSource(data, TestConfig())
        queried = TracingSource(src, tracer) if tracer.enabled else src
        with tracer.span("skeleton.build"):
            skel = build_skeleton(queried, src.cfg, jobs=jobs)
        if tracer.enabled:
            facts["independence"] = queried.counts()
        outputs = self._search_and_evaluate(data, skel, files, outdir, tracer, facts)
        return outputs, facts

    def cli_check(self, files, outdir, outputs, facts):
        """`hybridbn learn --jobs 2` must write the op's network (run at
        jobs=1) byte for byte; `evaluate` must agree with the op's metrics."""
        learned = outdir / "cli_learned.json"
        _cli(["learn", "--data", files["train"], "--out", learned,
              "--jobs", self.other_jobs])
        if learned.read_bytes() != outputs["network"]:
            raise CheckFailed("hybridbn learn --jobs 2 wrote another network")
        self._check_evaluate(learned, files, outdir, facts, with_test=True)


class SearchWide(_StructureWorkload):
    """`hybridbn learn --skeleton` on a 200-node ternary network with its
    true skeleton: no CI tests, the tabu hill climb dominates."""

    name = "search-wide"

    def __init__(self, nodes=200, max_parents=3, arity=3, train_rows=5000,
                 holdout_rows=5000):
        self.nodes = nodes
        self.max_parents = max_parents
        self.arity = arity
        self.train_rows = train_rows
        self.holdout_rows = holdout_rows

    def setup(self, workdir, seed, tracer):
        rng = np.random.default_rng(NETWORK_SEED)
        dag = random_dag(self.nodes, self.max_parents, rng)
        net = random_network(dag, rng, arities=[self.arity] * self.nodes)
        with tracer.span("network.forward_sample"):
            train = forward_sample(net, self.train_rows, seed=SAMPLE_SEED)
            holdout = forward_sample(net, self.holdout_rows, seed=[seed, 1])
        files = {
            "train": workdir / "train.csv",
            "holdout": workdir / "holdout.csv",
            "truth": workdir / "truth.json",
            "skeleton": workdir / "skeleton.json",
        }
        with tracer.span("data.write_csv"):
            write_csv(_reorder_rows(train, seed), files["train"])
            write_csv(holdout, files["holdout"])
        with tracer.span("network.write_truth"):
            write_network(net, files["truth"])
            write_skeleton(Skeleton(dag.d, frozenset(dag.edges())), net.names,
                           files["skeleton"])
        return files

    def op(self, files, outdir, jobs, tracer):
        # jobs is accepted for symmetry: this path has no parallel layer.
        facts = {}
        data = _load(files["train"], tracer, facts)
        with tracer.span("data.read_skeleton"):
            skel, names = read_skeleton(files["skeleton"])
        if tuple(names) != data.names:
            raise DataError("skeleton variables do not match the dataset")
        outputs = self._search_and_evaluate(data, skel, files, outdir, tracer, facts)
        return outputs, facts

    def cli_check(self, files, outdir, outputs, facts):
        """`hybridbn learn --skeleton` must write the op's network byte for
        byte; `evaluate` must agree on SHD. It runs without --test because a
        ternary level missing from 5,000 rows can make the holdout file's
        arities differ from the learned network's, which evaluate rejects."""
        learned = outdir / "cli_learned.json"
        _cli(["learn", "--data", files["train"], "--skeleton", files["skeleton"],
              "--out", learned])
        if learned.read_bytes() != outputs["network"]:
            raise CheckFailed("hybridbn learn --skeleton wrote another network")
        self._check_evaluate(learned, files, outdir, facts, with_test=False)


class MlcCv:
    """`hybridbn mlc` for all four scenarios on the two-cluster network:
    30 local-DAG learns per op on 14 variables, folds run in a thread pool."""

    name = "mlc-cv"
    jobs = 2
    other_jobs = 1

    def __init__(self, rows=5000, label_count=6, folds=10):
        self.rows = rows
        self.label_count = label_count
        self.folds = folds

    def setup(self, workdir, seed, tracer):
        net = two_cluster_network()
        with tracer.span("network.forward_sample"):
            sample = forward_sample(net, self.rows, seed=SAMPLE_SEED)
        files = {"data": workdir / "labeled.csv"}
        with tracer.span("data.write_csv"):
            write_csv(_reorder_rows(sample, seed), files["data"])
        return files

    def _config(self, jobs):
        return MlcConfig(folds=self.folds, seed=MLC_SEED, jobs=jobs)

    def op(self, files, outdir, jobs, tracer):
        facts = {}
        data = _load(files["data"], tracer, facts)
        labels = list(range(data.d - self.label_count, data.d))
        reports = {}
        for scenario in SCENARIOS:
            key = scenario.replace("+", "_")
            with tracer.span(f"multilabel.scenario.{key}"):
                reports[scenario] = run_scenario(data, labels, scenario,
                                                 self._config(jobs))
        best = reports["mlp+mb"]
        facts.update(
            subset_accuracy=best["accuracy_mean"],
            blocks_mean=statistics.fmean(f["n_blocks"] for f in best["folds"]),
            boundary_size_mean=statistics.fmean(
                s for f in best["folds"] for s in f["boundary_sizes"]
            ),
        )
        if tracer.enabled:
            accuracy = self._traced_fold(data, labels, tracer)
            if accuracy != best["folds"][0]["accuracy"]:
                raise CheckFailed("the traced fold disagrees with run_scenario")
        return {s: _json_bytes(r) for s, r in reports.items()}, facts

    def _traced_fold(self, data, labels, tracer):
        # Fold 0 of mlp+mb rebuilt from the public pieces, so the time spent
        # learning the local DAG and fitting the classifiers can be split.
        folds = kfold(data.n, self.folds, MLC_SEED)
        train = data.subset_rows(folds.train_indices(0))
        test_rows = data.rows[folds.test_indices(0)]
        with tracer.span("multilabel.local_dag"):
            dag = learn_local_dag(train, labels, jobs=1)
        with tracer.span("multilabel.fit_predict"):
            pred = np.zeros((len(test_rows), len(labels)), dtype=np.int32)
            for block in minimal_label_powersets(dag, labels):
                features = powerset_markov_boundary(dag, block, labels)
                clf = fit_powerset_classifier(train, block, features)
                values = clf.predict(test_rows)
                for t, label in enumerate(clf.block):
                    pred[:, labels.index(label)] = values[:, t]
            return global_accuracy(pred, test_rows[:, labels])

    def cli_check(self, files, outdir, outputs, facts):
        """`hybridbn mlc --jobs 1` must report what the op (jobs=2) reported,
        apart from the echoed configuration."""
        for scenario in SCENARIOS:
            path = outdir / f"cli_{scenario}.json"
            _cli(["mlc", "--data", files["data"], "--label-count", self.label_count,
                  "--scenario", scenario, "--folds", self.folds, "--seed", MLC_SEED,
                  "--jobs", self.other_jobs, "--report", path])
            report = json.loads(path.read_text())
            del report["config"]
            if _json_bytes(report) != outputs[scenario]:
                raise CheckFailed(f"hybridbn mlc --scenario {scenario} differs")
        accuracy = {s: json.loads(outputs[s])["accuracy_mean"] for s in SCENARIOS}
        if accuracy["mlp+mb"] < accuracy["br"]:
            raise CheckFailed("minimal label powersets predict worse than "
                              "binary relevance on two label clusters")


KINDS = {w.name: w for w in (LearnChild, SearchWide, MlcCv)}
NAMES = tuple(KINDS)


def make(name, **sizes):
    """The named workload, at its pinned sizes unless overridden."""
    if name not in KINDS:
        raise KeyError(f"unknown workload {name!r}; pick one of {list(NAMES)}")
    return KINDS[name](**sizes)
