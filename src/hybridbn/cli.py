"""Command-line interface: one binary, one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 data error. Reports are JSON with
sorted keys; file paths never appear in report bodies, so outputs are
byte-identical across repeated runs. --jobs sets the number of worker
processes over the folds of mlc and the (size, repeat) cells of benchmark,
capped at the cells and os.cpu_count(); outputs do not depend on it. learn
and learn-skeleton accept --jobs and run sequentially. Wall-clock fields
are emitted only behind --timing. A flag the run would not read (a test
flag on learn --skeleton; a test or score flag on mlc --scenario br; --ess
or --delimiter on evaluate without --test) is a usage error.
"""

import argparse
import csv
import math
import os
import sys
import time
from dataclasses import asdict

from .data import DataError, load_csv, write_csv, write_json
from .graphs import Dag, Pdag, to_dot
from .independence import POWER_CELLS, DataIndependenceSource, TestConfig
from .metrics import dag_to_cpdag, holdout_scores, shd, skeleton_metrics
from .multilabel import SCENARIOS, MlcConfig, run_scenario
from .network import fit_cpts, forward_sample, read_network, write_network
from .parallel import fork_map
from .scoring import SCORES, ScoreConfig, hill_climb
from .skeleton import Skeleton, build_skeleton, read_skeleton, write_skeleton

_PATH_DESTS = {
    "data", "out", "out_dir", "report", "net", "truth", "test", "skeleton",
    "learned", "export_blocks",
}


def _echo_config(args):
    # Resolved non-path configuration, for provenance inside reports.
    out = {}
    for key, value in vars(args).items():
        if key in _PATH_DESTS or key in ("func", "given", "jobs", "timing") or callable(value):
            continue
        out[key] = value
    return out


def _config(cls, **fields):
    # Config classes validate their fields; a bad flag value is a usage error.
    try:
        return cls(**fields)
    except ValueError as exc:
        raise _Usage(str(exc)) from None


def _test_cfg(args):
    return _config(
        TestConfig,
        alpha=args.alpha,
        power_threshold=args.power_threshold,
        max_condset=args.max_condset,
        power_cells=args.power_cells,
    )


def _score_cfg(args):
    return _config(
        ScoreConfig,
        score=args.score,
        ess=args.ess,
        tabu_length=args.tabu,
        patience=args.patience,
    )


class _Noted(argparse.Action):
    # checks the value against rule (ok, text), stores it, notes it in args.given
    def __init__(self, *args, rule=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.rule = rule

    def __call__(self, parser, namespace, values, option_string=None):
        if self.rule and not self.rule[0](values):
            raise _Usage(f"{option_string} {self.rule[1]}")
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


# CLI-only value rules, the rule= of a _Noted flag
_POSITIVE = (lambda v: v >= 1, "must be at least 1")
_TWO_OR_MORE = (lambda v: v >= 2, "must be at least 2")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
# NaN and infinity fail the test, so they are usage errors too
_FINITE = (lambda v: math.isfinite(v) and v >= 0, "must be finite and non-negative")
_ONE_CHAR = (lambda v: len(v) == 1, "must be a single character")


def _refuse(args, dests, reason):
    # a flag the run does not read is a usage error, whatever its value
    for dest in dests:
        if dest in getattr(args, "given", ()):
            raise _Usage(f"--{dest.replace('_', '-')} {reason}")


_TEST_DESTS = ("alpha", "power_threshold", "max_condset", "power_cells")


def _add_test_flags(p):
    p.add_argument("--alpha", type=float, default=TestConfig.alpha,
                   action=_Noted, help="type-I level of the independence test")
    p.add_argument("--power-threshold", type=float,
                   default=TestConfig.power_threshold, action=_Noted,
                   help="minimum average sample per contingency cell")
    p.add_argument("--max-condset", type=int, default=TestConfig.max_condset,
                   action=_Noted,
                   help="cap on conditioning-set size in the PC search")
    p.add_argument("--power-cells", choices=POWER_CELLS,
                   default=TestConfig.power_cells, action=_Noted,
                   help="cell count semantics of the power rule")


_SCORE_DESTS = ("score", "ess", "tabu", "patience")


def _add_score_flags(p):
    p.add_argument("--score", choices=SCORES, default=ScoreConfig.score,
                   action=_Noted)
    p.add_argument("--ess", type=float, default=ScoreConfig.ess, action=_Noted,
                   help="equivalent sample size of the BDeu prior")
    p.add_argument("--tabu", type=int, default=ScoreConfig.tabu_length,
                   action=_Noted, help="length of the structure TABU list")
    p.add_argument("--patience", type=int, default=ScoreConfig.patience,
                   action=_Noted,
                   help="moves without improvement before stopping")


def _add_jobs_flag(p, help_text="accepted and has no effect: runs are sequential"):
    p.add_argument("--jobs", type=int, default=1, action=_Noted,
                   rule=_POSITIVE, help=help_text)


def _dag_skeleton(dag):
    return Skeleton(dag.d, frozenset(dag.edges()))


def cmd_sample(args):
    given = [v not in (None, "") for v in (args.sizes, args.out_dir, args.n, args.out)]
    if given not in ([True, True, False, False], [False, False, True, True]):
        raise _Usage("either --sizes with --out-dir, or --n with --out")
    # (rows, seed, path) of each file
    if args.sizes:
        jobs = [(size, [args.seed, size],
                 os.path.join(args.out_dir, f"sample_{size}.csv"))
                for size in args.sizes.items]
    else:
        jobs = [(args.n, args.seed, args.out)]
    net = read_network(args.net)
    _check_csv_tokens(net)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    for n, seed, path in jobs:
        write_csv(forward_sample(net, n, seed=seed), path)
    return 0


def _check_csv_tokens(net):
    # load_csv strips every token and reads a blank cell as missing, and the
    # csv writer leaves a bare carriage return unquoted, so a network whose
    # names or levels break these rules samples to a file learn cannot read
    # back (write_csv itself refuses a first name that starts with U+FEFF)
    if not net.names:
        raise DataError("the network has no variables, so a sample has no columns")
    for name, levels in zip(net.names, net.levels):
        for token in (name, *levels):
            if token != token.strip() or "\r" in token:
                raise DataError(
                    f"{token!r} of variable {name!r} cannot be written to CSV: "
                    "blanks around it or a carriage return in it"
                )
        if "" in levels:
            raise DataError(f"variable {name!r} has an empty level")
        if len(set(levels)) < len(levels):
            raise DataError(f"variable {name!r} has two equal levels")


class _Listed(str):
    """A comma-list flag's text as given, which reports echo; .items holds
    its parsed values."""

    def __new__(cls, raw, items):
        listed = super().__new__(cls, raw)
        listed.items = items
        return listed


def _parse_sizes(raw):
    # the argparse type of --sizes, as _parse_labels is of --labels;
    # argparse lets a _Usage through
    try:
        sizes = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise _Usage(f"bad --sizes list: {raw!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise _Usage(f"bad --sizes list (sizes must be at least 1): {raw!r}")
    return _Listed(raw, sizes)


def _parse_labels(raw):
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not names:
        raise _Usage("--labels lists no columns")
    return _Listed(raw, names)


def cmd_learn_skeleton(args):
    cfg = _test_cfg(args)
    data = load_csv(args.data, delimiter=args.delimiter)
    src = DataIndependenceSource(data, cfg)
    skel = build_skeleton(src)
    write_skeleton(skel, data.names, args.out)
    return 0


def cmd_learn(args):
    if args.skeleton:
        _refuse(args, _TEST_DESTS, "is not read with --skeleton")
    test_cfg, score_cfg = _test_cfg(args), _score_cfg(args)
    data = load_csv(args.data, delimiter=args.delimiter)
    started = time.perf_counter()
    if args.skeleton:
        skel, names = read_skeleton(args.skeleton)
        if tuple(names) != data.names:
            raise DataError("skeleton variables do not match the dataset")
        ci_tests = 0
    else:
        src = DataIndependenceSource(data, test_cfg)
        skel = build_skeleton(src)
        ci_tests = src.distinct_tests
    result = hill_climb(data, skel, score_cfg)
    net = fit_cpts(result.dag, data, laplace=args.laplace)
    write_network(net, args.out)
    report = {
        "config": _echo_config(args),
        "n": data.n,
        "d": data.d,
        "skeleton_edges": len(skel.edges),
        "ci_tests": ci_tests,
        "phase": "search",
        "dag_edges": result.dag.edge_count(),
        "score": result.score,
        "empty_score": result.empty_score,
        "moves": result.moves,
        "stop": result.stop,
    }
    if args.timing:
        report["seconds"] = time.perf_counter() - started
    if args.report:
        write_json(report, args.report)
    return 0


def cmd_evaluate(args):
    if not args.test:
        _refuse(args, ("ess", "delimiter"), "needs --test")
    score_cfg = _config(ScoreConfig, ess=args.ess)
    learned = read_network(args.learned)
    truth = read_network(args.truth)
    if learned.names != truth.names:
        raise DataError("learned and truth networks name different variables")
    sm = skeleton_metrics(_dag_skeleton(learned.graph), _dag_skeleton(truth.graph))
    report = {
        "config": _echo_config(args),
        "skeleton": asdict(sm),
        "shd": shd(dag_to_cpdag(learned.graph), dag_to_cpdag(truth.graph)),
    }
    if args.test:
        test = load_csv(args.test, delimiter=args.delimiter)
        if test.names != learned.names:
            raise DataError("test data columns do not match the networks")
        if test.arities != learned.arities:
            raise DataError("test data arities do not match the networks")
        graphs = {"learned": learned.graph, "truth": truth.graph, "empty": Dag(test.d)}
        report["scores"] = holdout_scores(test, graphs, score_cfg)
    write_json(report, args.report)
    return 0


def cmd_benchmark(args):
    test_cfg, score_cfg = _test_cfg(args), _score_cfg(args)
    net = read_network(args.truth)
    truth_skel = _dag_skeleton(net.graph)
    truth_cpdag = dag_to_cpdag(net.graph)
    empty = Dag(net.d)
    cells = [(si, size, rep) for si, size in enumerate(args.sizes.items)
             for rep in range(args.repeats)]

    def run_cell(i):
        si, size, rep = cells[i]
        train = forward_sample(net, size, seed=[args.seed, si, rep, 0])
        test = forward_sample(net, args.test_n, seed=[args.seed, si, rep, 1])
        src = DataIndependenceSource(train, test_cfg)
        skel = build_skeleton(src)
        result = hill_climb(train, skel, score_cfg)
        sm = skeleton_metrics(skel, truth_skel)
        on_train = holdout_scores(train, {"dag": result.dag}, score_cfg)
        on_test = holdout_scores(
            test, {"dag": result.dag, "empty": empty}, score_cfg
        )
        return {
            "size": size,
            "repeat": rep,
            **asdict(sm),
            "shd": shd(dag_to_cpdag(result.dag), truth_cpdag),
            "skeleton_edges": len(skel.edges),
            "dag_edges": result.dag.edge_count(),
            "moves": result.moves,
            "bdeu_train": on_train["dag"]["bdeu"],
            "bdeu_test": on_test["dag"]["bdeu"],
            "bic_train": on_train["dag"]["bic"],
            "bic_test": on_test["dag"]["bic"],
            "bdeu_empty_test": on_test["empty"]["bdeu"],
        }

    rows = fork_map(run_cell, len(cells), args.jobs)
    if args.out.endswith(".csv"):
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            # the columns are the keys of a row, in the order built above
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    else:
        write_json({"config": _echo_config(args), "rows": rows}, args.out)
    return 0


def cmd_mlc(args):
    if args.scenario == "br":
        _refuse(args, _TEST_DESTS + _SCORE_DESTS, "is not read with --scenario br")
    if (args.labels is None) == (args.label_count is None):
        raise _Usage("exactly one of --labels or --label-count is required")
    cfg = _config(
        MlcConfig,
        folds=args.folds,
        seed=args.seed,
        test=_test_cfg(args),
        score=_score_cfg(args),
        smoothing=args.smoothing,
        binarize=args.binarize,
        jobs=args.jobs,
        export_dir=args.export_blocks,
        timing=args.timing,
    )
    data = load_csv(args.data, delimiter=args.delimiter)
    if args.labels is not None:
        labels = [data.column_index(name) for name in args.labels.items]
    else:
        if args.label_count >= data.d:
            raise _Usage("--label-count out of range")
        labels = list(range(data.d - args.label_count, data.d))
    if args.folds > data.n:
        raise _Usage(f"--folds must lie in [2, {data.n}], the number of rows")
    report = run_scenario(data, labels, args.scenario, cfg)
    report["config"] = _echo_config(args)
    write_json(report, args.report)
    return 0


def cmd_export_dot(args):
    if bool(args.net) == bool(args.skeleton):
        raise _Usage("exactly one of --net or --skeleton is required")
    if args.cpdag and not args.net:
        raise _Usage("--cpdag needs --net")
    if args.net:
        net = read_network(args.net)
        graph = dag_to_cpdag(net.graph) if args.cpdag else net.graph
        dot = to_dot(graph, net.names)
    else:
        skel, names = read_skeleton(args.skeleton)
        pdag = Pdag(skel.d, undirected=sorted(skel.edges))
        dot = to_dot(pdag, names)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dot)
    return 0


class _Usage(Exception):
    """A bad flag, flag value or flag combination: exit 1, one line."""


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage block and exits 2 by default, but exit code
    # 2 is for data errors and main prints every usage error as one line.
    # No abbreviations: a flag of another subcommand that is a prefix of one
    # of this one's (evaluate's --test of benchmark's --test-n) is an error.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _Usage(message)


def build_parser():
    root = _Parser(prog="hybridbn", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[], help="draw rows from a network")
    p.add_argument("--net", required=True)
    p.add_argument("--n", type=int, default=None, action=_Noted, rule=_POSITIVE)
    p.add_argument("--sizes", type=_parse_sizes, default=None,
                   help="comma list; one CSV per size into --out-dir")
    p.add_argument("--seed", type=int, required=True, action=_Noted, rule=_NON_NEGATIVE)
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("learn-skeleton", help="constraint-based skeleton only")
    p.add_argument("--data", required=True)
    p.add_argument("--delimiter", default=",", action=_Noted, rule=_ONE_CHAR)
    _add_test_flags(p)
    _add_jobs_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn_skeleton)

    p = sub.add_parser("learn", help="full hybrid structure learning")
    p.add_argument("--data", required=True)
    p.add_argument("--delimiter", default=",", action=_Noted, rule=_ONE_CHAR)
    _add_test_flags(p)
    _add_score_flags(p)
    _add_jobs_flag(p)
    p.add_argument("--skeleton", default=None,
                   help="reuse a previously learned skeleton JSON")
    p.add_argument("--laplace", type=float, default=0.0, action=_Noted,
                   rule=_FINITE, help="CPT smoothing when fitting the learned network")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("evaluate", help="compare a learned network to truth")
    p.add_argument("--learned", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--delimiter", default=",", action=_Noted, rule=_ONE_CHAR)
    p.add_argument("--ess", type=float, default=ScoreConfig.ess, action=_Noted)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="size sweep with repeats")
    p.add_argument("--truth", required=True)
    p.add_argument("--sizes", type=_parse_sizes, required=True)
    p.add_argument("--repeats", type=int, default=10, action=_Noted, rule=_POSITIVE)
    p.add_argument("--seed", type=int, required=True, action=_Noted, rule=_NON_NEGATIVE)
    p.add_argument("--test-n", type=int, default=10000, action=_Noted, rule=_POSITIVE)
    _add_test_flags(p)
    _add_score_flags(p)
    _add_jobs_flag(p, "worker processes over the (size, repeat) cells, at "
                      "most the CPU count; outputs do not depend on it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("mlc", help="multi-label cross-validation experiment")
    p.add_argument("--data", required=True)
    p.add_argument("--delimiter", default=",", action=_Noted, rule=_ONE_CHAR)
    p.add_argument("--labels", type=_parse_labels, default=None,
                   help="comma list of label column names")
    p.add_argument("--label-count", type=int, default=None, action=_Noted,
                   rule=_POSITIVE, help="use the trailing N columns as labels")
    p.add_argument("--scenario", choices=SCENARIOS, required=True)
    p.add_argument("--folds", type=int, default=MlcConfig.folds, action=_Noted,
                   rule=_TWO_OR_MORE)
    p.add_argument("--seed", type=int, required=True, action=_Noted, rule=_NON_NEGATIVE)
    p.add_argument("--smoothing", type=float, default=MlcConfig.smoothing,
                   action=_Noted, rule=_FINITE)
    p.add_argument("--binarize", action="store_true",
                   help="median-split non-label columns with arity > 2")
    _add_test_flags(p)
    _add_score_flags(p)
    _add_jobs_flag(p, "worker processes over the folds, at most the CPU "
                      "count; outputs do not depend on it")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--export-blocks", default=MlcConfig.export_dir,
                   help="directory for per-block train/test CSV exports")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_mlc)

    p = sub.add_parser("export-dot", help="DOT rendering of a graph file")
    p.add_argument("--net", default=None)
    p.add_argument("--skeleton", default=None)
    p.add_argument("--cpdag", action="store_true",
                   help="emit the equivalence class of --net")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_dot)

    return root


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
