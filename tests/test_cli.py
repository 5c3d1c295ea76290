import argparse
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridbn.cli import _score_cfg, _test_cfg, build_parser, main
from hybridbn.data import kfold, load_csv, write_csv
from hybridbn.graphs import Dag
from hybridbn.independence import DataIndependenceSource
from hybridbn.independence import TestConfig as Config
from hybridbn.multilabel import SCENARIOS, MlcConfig, learns_graph
from hybridbn.network import BayesianNetwork, forward_sample, write_network
from hybridbn.scoring import ScoreConfig
from hybridbn.skeleton import Skeleton, h2pc, write_skeleton
from hybridbn.synthetic import (
    child_shape_network,
    monotone_network,
    random_dag,
    recovery_network,
    two_cluster_network,
)

from helpers import genbase_shape_network

# the scenarios that learn no graph, so read no test or score flag; br is
# one, so the refusal test below never runs over an empty set
NO_GRAPH = [s for s in SCENARIOS if not learns_graph(s)]
assert "br" in NO_GRAPH


@pytest.fixture
def small_net(tmp_path):
    net = monotone_network(random_dag(5, 2, np.random.default_rng(3)))
    path = tmp_path / "net.json"
    write_network(net, path)
    return net, str(path)


def run(*argv):
    return main([str(a) for a in argv])


# the required flags of each subcommand, with values that parse
REQUIRED = {
    "sample": ["--net", "n.json", "--seed", 0],
    "learn-skeleton": ["--data", "d.csv", "--out", "o"],
    "learn": ["--data", "d.csv", "--out", "o"],
    "evaluate": ["--learned", "l.json", "--truth", "t.json", "--report", "r"],
    "benchmark": ["--truth", "t.json", "--sizes", "10", "--seed", 0,
                  "--out", "o"],
    "mlc": ["--data", "d.csv", "--scenario", "br", "--seed", 0,
            "--report", "r"],
    "export-dot": ["--out", "o"],
}

# (argv, argparse's reason) for each kind of parser error on each subcommand
PARSER_ERRORS = [
    ((), "the following arguments are required: command"),
    *(((c,), "the following arguments are required: --") for c in REQUIRED),
    *(((c, *REQUIRED[c], "--bogus", 1), "unrecognized arguments: --bogus 1")
      for c in REQUIRED),
    *(((c, *REQUIRED[c], "--score", "foo"), "argument --score: invalid choice: 'foo'")
      for c in ("learn", "benchmark", "mlc")),
    (("mlc", *REQUIRED["mlc"], "--scenario", "nope"),
     "argument --scenario: invalid choice: 'nope'"),
    *(((c, *REQUIRED[c], "--alpha", "abc"), "argument --alpha: invalid float value: 'abc'")
      for c in ("learn-skeleton", "learn", "benchmark", "mlc")),
    (("evaluate", *REQUIRED["evaluate"], "--ess", "abc"),
     "argument --ess: invalid float value: 'abc'"),
    (("sample", *REQUIRED["sample"], "--n", "abc"),
     "argument --n: invalid int value: 'abc'"),
]


def subcommand_flags():
    """{subcommand: {flag: whether it takes a value}}, read from the parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag: action.nargs != 0
               for action in parser._actions for flag in action.option_strings
               if flag.startswith("--")}
        for name, parser in sub.choices.items()
    }


def foreign_flags():
    # (subcommand, flag, takes a value) for each flag that only other
    # subcommands define
    flags = subcommand_flags()
    return [
        (command, flag, takes)
        for command in flags
        for flag, takes in sorted({f: t for other in flags if other != command
                                   for f, t in flags[other].items()}.items())
        if flag not in flags[command]
    ]


class TestExitCodes:
    def test_help_exits_zero(self):
        assert run("--help") == 0

    @pytest.mark.parametrize("command", REQUIRED)
    def test_subcommand_help_exits_zero(self, command, capsys):
        assert run(command, "--help") == 0
        assert capsys.readouterr().out.startswith(f"usage: hybridbn {command}")

    def test_missing_required_flag(self, capsys):
        assert run("learn-skeleton") == 1
        TestBadInput.assert_one_line(
            capsys, "usage error: the following arguments are required: --data, --out")

    def test_unknown_subcommand(self, capsys):
        assert run("transmogrify") == 1
        TestBadInput.assert_one_line(
            capsys, "usage error: argument command: invalid choice: 'transmogrify'")

    @pytest.mark.parametrize("argv, reason", PARSER_ERRORS)
    def test_parser_error_is_one_line(self, argv, reason, capsys):
        # argparse printed a usage block of several lines, without the reason
        assert run(*argv) == 1
        TestBadInput.assert_one_line(capsys, f"usage error: {reason}")

    @pytest.mark.parametrize("command, flag, takes_value", foreign_flags())
    def test_flag_of_another_subcommand(self, command, flag, takes_value, capsys):
        # with a value where the flag takes one, so that a flag that is a
        # prefix of one of this command's flags (--test of --test-n) is not
        # read as its abbreviation
        given = [flag, "1"] if takes_value else [flag]
        assert run(command, *REQUIRED[command], *given) == 1
        TestBadInput.assert_one_line(
            capsys, f"usage error: unrecognized arguments: {' '.join(given)}")

    def test_missing_input_file(self, tmp_path, capsys):
        code = run(
            "learn-skeleton", "--data", tmp_path / "nope.csv",
            "--out", tmp_path / "s.json",
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_malformed_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0,0\n0,0\n0,0\n")  # constant column
        code = run("learn-skeleton", "--data", bad, "--out", tmp_path / "s.json")
        assert code == 2
        capsys.readouterr()

    def test_bad_flag_combination(self, small_net, tmp_path, capsys):
        _, net_path = small_net
        assert run("sample", "--net", net_path, "--seed", 0) == 1
        capsys.readouterr()


class TestSample:
    def test_single_draw(self, small_net, tmp_path):
        net, net_path = small_net
        out = tmp_path / "rows.csv"
        assert run("sample", "--net", net_path, "--n", 50, "--seed", 7,
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(net.names)
        assert len(lines) == 51

    def test_byte_identical_repeats(self, small_net, tmp_path):
        _, net_path = small_net
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("sample", "--net", net_path, "--n", 80, "--seed", 1, "--out", a)
        run("sample", "--net", net_path, "--n", 80, "--seed", 1, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_size_sweep(self, small_net, tmp_path):
        _, net_path = small_net
        sweep = tmp_path / "sweep"
        assert run("sample", "--net", net_path, "--sizes", "20,40",
                   "--seed", 3, "--out-dir", sweep) == 0
        assert sorted(os.listdir(sweep)) == ["sample_20.csv", "sample_40.csv"]
        assert len((sweep / "sample_40.csv").read_text().splitlines()) == 41

    def test_sweep_sizes_draw_independent_streams(self, small_net, tmp_path):
        _, net_path = small_net
        sweep = tmp_path / "sweep"
        run("sample", "--net", net_path, "--sizes", "30,60",
            "--seed", 5, "--out-dir", sweep)
        small = (sweep / "sample_30.csv").read_text().splitlines()[1:]
        large = (sweep / "sample_60.csv").read_text().splitlines()[1:]
        assert small != large[:30]


@pytest.fixture
def sampled_csv(small_net, tmp_path):
    _, net_path = small_net
    out = tmp_path / "train.csv"
    run("sample", "--net", net_path, "--n", 400, "--seed", 2, "--out", out)
    return str(out)


class TestBadInput:
    """Bad flag values and unreadable inputs end in one line, not a traceback."""

    @pytest.fixture
    def tiny_csv(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,c\n0,1,0\n1,0,1\n0,0,1\n1,1,0\n")
        return str(path)

    @staticmethod
    def assert_one_line(capsys, prefix):
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @staticmethod
    def valid_args(command, net_path, csv_path, out):
        # a run of command that succeeds and writes out, before a bad flag
        return {
            "sample": ["--net", net_path, "--n", 5, "--seed", 0, "--out", out],
            "learn": ["--data", csv_path, "--out", out],
            "learn-skeleton": ["--data", csv_path, "--out", out],
            "mlc": ["--data", csv_path, "--label-count", 1, "--scenario",
                    "br", "--folds", 2, "--seed", 0, "--report", out],
            "evaluate": ["--learned", net_path, "--truth", net_path,
                         "--test", csv_path, "--report", out],
            "benchmark": ["--truth", net_path, "--sizes", 50, "--repeats", 1,
                          "--seed", 0, "--test-n", 50, "--out", out],
        }[command]

    def test_learn_alpha_out_of_range(self, tiny_csv, tmp_path, capsys):
        code = run("learn", "--data", tiny_csv, "--alpha", 2,
                   "--out", tmp_path / "o.json")
        assert code == 1
        self.assert_one_line(capsys, "usage error: alpha must lie in (0, 1)")

    def test_mlc_single_fold(self, tiny_csv, tmp_path, capsys):
        code = run("mlc", "--data", tiny_csv, "--label-count", 1,
                   "--scenario", "br", "--folds", 1, "--seed", 0,
                   "--report", tmp_path / "r.json")
        assert code == 1
        self.assert_one_line(capsys, "usage error: --folds")

    def test_mlc_more_folds_than_rows(self, tiny_csv, tmp_path, capsys):
        code = run("mlc", "--data", tiny_csv, "--label-count", 1,
                   "--scenario", "br", "--folds", 5, "--seed", 0,
                   "--report", tmp_path / "r.json")
        assert code == 1
        self.assert_one_line(capsys, "usage error: --folds must lie in [2, 4]")

    def test_sample_negative_n(self, small_net, tmp_path, capsys):
        _, net_path = small_net
        code = run("sample", "--net", net_path, "--n", -5, "--seed", 0,
                   "--out", tmp_path / "s.csv")
        assert code == 1
        self.assert_one_line(capsys, "usage error: --n must be at least 1")

    def test_mlc_negative_smoothing(self, tiny_csv, tmp_path, capsys):
        code = run("mlc", "--data", tiny_csv, "--label-count", 1,
                   "--scenario", "br", "--folds", 2, "--seed", 0,
                   "--smoothing", -1, "--report", tmp_path / "r.json")
        assert code == 1
        self.assert_one_line(capsys, "usage error: --smoothing")

    @pytest.mark.parametrize("command, flag, value, message", [
        ("learn", "--ess", "nan", "ess must be finite and positive"),
        ("learn", "--ess", "inf", "ess must be finite and positive"),
        ("learn", "--power-threshold", "nan", "power_threshold must be finite"),
        ("learn", "--laplace", "nan", "--laplace must be finite and non-negative"),
        ("learn", "--laplace", "inf", "--laplace must be finite and non-negative"),
        ("learn", "--laplace", "-1", "--laplace must be finite and non-negative"),
        ("mlc", "--smoothing", "nan", "--smoothing must be finite and non-negative"),
        ("mlc", "--smoothing", "inf", "--smoothing must be finite and non-negative"),
        ("evaluate", "--ess", "nan", "ess must be finite and positive"),
        ("learn", "--jobs", "0", "--jobs must be at least 1"),
        ("learn-skeleton", "--jobs", "-3", "--jobs must be at least 1"),
        ("mlc", "--jobs", "0", "--jobs must be at least 1"),
        ("mlc", "--jobs", "-3", "--jobs must be at least 1"),
        ("benchmark", "--jobs", "0", "--jobs must be at least 1"),
        ("benchmark", "--jobs", "-3", "--jobs must be at least 1"),
        ("benchmark", "--repeats", "0", "--repeats must be at least 1"),
        ("benchmark", "--repeats", "-2", "--repeats must be at least 1"),
        ("sample", "--seed", "-1", "--seed must be non-negative"),
        ("mlc", "--seed", "-1", "--seed must be non-negative"),
        ("benchmark", "--seed", "-1", "--seed must be non-negative"),
    ])
    def test_non_finite_or_negative_setting(self, command, flag, value, message,
                                            small_net, sampled_csv, tmp_path,
                                            capsys):
        # NaN passes a plain `x <= 0` check; each of these once ran to exit 0
        _, net_path = small_net
        out = tmp_path / "out.json"
        base = self.valid_args(command, net_path, sampled_csv, out)
        assert run(command, *base, flag, value) == 1
        self.assert_one_line(capsys, f"usage error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["learn", "evaluate", "benchmark", "mlc"])
    @pytest.mark.parametrize("ess", ["1e-320", "1e308"])
    def test_bdeu_score_not_finite(self, command, ess, small_net, sampled_csv,
                                   tmp_path, capsys):
        # both pass ScoreConfig's finite-and-positive check, yet a lnG term is
        # infinite: at 1e-320, lnG of the tiny a_jk overflows; at 1e308, the
        # arguments pass MAXLGM. NumPy warned and the reports held NaN scores.
        _, net_path = small_net
        out = tmp_path / "out.json"
        base = self.valid_args(command, net_path, sampled_csv, out)
        if command == "mlc":
            base[base.index("br")] = "mlp"
        assert run(command, *base, "--ess", ess) == 2
        self.assert_one_line(capsys, "data error: the BDeu score of ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["learn", "learn-skeleton", "evaluate", "mlc"])
    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_not_one_character(self, command, delimiter, small_net,
                                         sampled_csv, tmp_path, capsys):
        # csv.reader raised a TypeError traceback for these
        _, net_path = small_net
        out = tmp_path / "out.json"
        base = self.valid_args(command, net_path, sampled_csv, out)
        assert run(command, *base, "--delimiter", delimiter) == 1
        self.assert_one_line(
            capsys, "usage error: --delimiter must be a single character"
        )
        assert not out.exists()

    def test_learn_data_is_a_directory(self, tmp_path, capsys):
        code = run("learn", "--data", tmp_path, "--out", tmp_path / "o.json")
        assert code == 2
        self.assert_one_line(capsys, "data error:")

    def test_duplicate_column_names(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("a,a,b\n0,1,0\n1,0,1\n0,0,1\n1,1,0\n")
        code = run("learn", "--data", path, "--out", tmp_path / "o.json")
        assert code == 2
        self.assert_one_line(capsys, "data error: duplicate column name 'a'")
        assert not (tmp_path / "o.json").exists()

    def test_data_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b\nzéro,1\nun,0\n".encode("latin-1"))
        code = run("learn", "--data", path, "--out", tmp_path / "o.json")
        assert code == 2
        self.assert_one_line(capsys, f"data error: {path} is not UTF-8 text")

    def test_data_field_over_the_csv_limit(self, tmp_path, capsys):
        import csv

        path = tmp_path / "big.csv"
        path.write_text("a,b\n0,1\n" + "x" * (csv.field_size_limit() + 1) + ",0\n")
        code = run("learn", "--data", path, "--out", tmp_path / "o.json")
        assert code == 2
        self.assert_one_line(capsys, f"data error: bad CSV at line 3 of {path}")

    def test_skeleton_not_utf8(self, tiny_csv, tmp_path, capsys):
        skel = tmp_path / "skel.json"
        skel.write_bytes('{"nodes": ["a", "b", "c"], "edges": [], "x": "é"}'.encode("latin-1"))
        code = run("learn", "--data", tiny_csv, "--skeleton", skel,
                   "--out", tmp_path / "o.json")
        assert code == 2
        self.assert_one_line(capsys, f"data error: {skel} is not UTF-8 text")

    def test_network_not_utf8(self, small_net, tmp_path, capsys):
        _, net_path = small_net
        learned = tmp_path / "learned.json"
        text = Path(net_path).read_bytes()
        learned.write_bytes(text.replace(b"{", b"{\"\xe9\": 0, ", 1))
        code = run("evaluate", "--learned", learned, "--truth", net_path,
                   "--report", tmp_path / "r.json")
        assert code == 2
        self.assert_one_line(capsys, f"data error: {learned} is not UTF-8 text")

    def test_network_nested_too_deeply(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code = run("sample", "--net", deep, "--n", 5, "--seed", 0,
                   "--out", tmp_path / "o.csv")
        assert code == 2
        self.assert_one_line(
            capsys, f"data error: {deep} nests JSON arrays or objects too deeply")

    def test_network_number_with_too_many_digits(self, small_net, tmp_path, capsys):
        _, net_path = small_net
        learned = tmp_path / "learned.json"
        text = Path(net_path).read_text()
        learned.write_text(text.replace("{", '{"x": ' + "9" * 5000 + ", ", 1))
        code = run("evaluate", "--learned", learned, "--truth", net_path,
                   "--report", tmp_path / "r.json")
        assert code == 2
        self.assert_one_line(
            capsys, f"data error: invalid JSON in {learned}: Exceeds the limit")

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_mlc_binarize_non_finite_feature(self, token, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text("f,g,y\n1.5,0,0\n2.5,1,1\n%s,0,1\n3.5,1,0\n" % token)
        code = run("mlc", "--data", path, "--label-count", 1, "--scenario", "br",
                   "--folds", 2, "--seed", 0, "--binarize",
                   "--report", tmp_path / "r.json")
        assert code == 2
        self.assert_one_line(capsys, "data error: column 'f' holds a value that "
                                     "is not finite and cannot be binarized")
        assert not (tmp_path / "r.json").exists()

    def test_benchmark_zero_size(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        write_network(recovery_network(), truth)
        code = run("benchmark", "--truth", truth, "--sizes", "100,0",
                   "--repeats", 1, "--seed", 0, "--out", tmp_path / "b.json")
        assert code == 1
        self.assert_one_line(capsys, "usage error: bad --sizes list")

    def test_benchmark_empty_holdout(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        write_network(recovery_network(), truth)
        code = run("benchmark", "--truth", truth, "--sizes", "100",
                   "--test-n", 0, "--seed", 0, "--out", tmp_path / "b.json")
        assert code == 1
        self.assert_one_line(capsys, "usage error: --test-n must be at least 1")

    @pytest.mark.parametrize("argv, message", [
        (("sample", "--net", "{missing}", "--n", 0, "--seed", 0,
          "--out", "{out}"), "--n must be at least 1"),
        (("sample", "--net", "{missing}", "--sizes", "10,0", "--seed", 0,
          "--out-dir", "{out}"), "bad --sizes list"),
        (("benchmark", "--truth", "{missing}", "--sizes", "x", "--seed", 0,
          "--out", "{out}"), "bad --sizes list"),
        (("benchmark", "--truth", "{missing}", "--sizes", 50, "--test-n", 0,
          "--seed", 0, "--out", "{out}"), "--test-n must be at least 1"),
        (("benchmark", "--truth", "{missing}", "--sizes", 50, "--repeats", 0,
          "--seed", 0, "--out", "{out}"), "--repeats must be at least 1"),
        (("benchmark", "--truth", "{missing}", "--sizes", 50, "--alpha", 2,
          "--seed", 0, "--out", "{out}"), "alpha must lie in (0, 1)"),
    ])
    def test_counts_are_checked_before_the_network_is_read(self, argv, message,
                                                          tmp_path, capsys):
        # the network file was read first, so these exited 2 with "No such file"
        paths = {"{missing}": tmp_path / "missing.json", "{out}": tmp_path / "out"}
        assert run(*(paths.get(a, a) for a in argv)) == 1
        self.assert_one_line(capsys, f"usage error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (("learn-skeleton", "--alpha", 2), "alpha must lie in (0, 1)"),
        (("learn", "--alpha", 2), "alpha must lie in (0, 1)"),
        (("evaluate", "--ess", "nan"), "ess must be finite and positive"),
        (("mlc", "--scenario", "mlp", "--alpha", 2), "alpha must lie in (0, 1)"),
        (("mlc", "--scenario", "mlp", "--tabu", -1),
         "tabu_length must be a non-negative integer"),
        (("mlc", "--smoothing", -1), "--smoothing must be finite and non-negative"),
        (("mlc", "--folds", 1), "--folds must be at least 2"),
        (("mlc", "--label-count", 0), "--label-count must be at least 1"),
        (("mlc", "--labels", " , "), "--labels lists no columns"),
    ])
    def test_flags_are_checked_before_the_data_is_read(self, argv, message,
                                                       tmp_path, capsys):
        # the data or the networks were read first, so these exited 2 with
        # "No such file"
        command, *flags = argv
        missing, out = tmp_path / "missing", tmp_path / "out"
        base = self.valid_args(command, missing, missing, out)
        assert run(command, *base, *flags) == 1
        self.assert_one_line(capsys, f"usage error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--sizes", "--out-dir", "--n", "--out"),
        ("--sizes", "--out-dir", "--n"),
        ("--n", "--out", "--out-dir"),
    ])
    def test_sample_sweep_with_single_draw(self, flags, small_net, tmp_path,
                                           capsys):
        # one of the two pairs was silently ignored
        _, net_path = small_net
        sweep, out = tmp_path / "sweep", tmp_path / "s.csv"
        values = {"--sizes": "20", "--out-dir": sweep, "--n": 5, "--out": out}
        argv = [token for flag in flags for token in (flag, values[flag])]
        assert run("sample", "--net", net_path, "--seed", 0, *argv) == 1
        self.assert_one_line(
            capsys, "usage error: either --sizes with --out-dir, or --n with --out")
        assert not sweep.exists() and not out.exists()

    def test_mlc_labels_with_label_count(self, tiny_csv, tmp_path, capsys):
        # --label-count was silently ignored
        out = tmp_path / "r.json"
        code = run("mlc", "--data", tiny_csv, "--labels", "c", "--label-count", 1,
                   "--scenario", "br", "--folds", 2, "--seed", 0, "--report", out)
        assert code == 1
        self.assert_one_line(
            capsys, "usage error: exactly one of --labels or --label-count")
        assert not out.exists()

    def test_export_dot_cpdag_of_a_skeleton(self, sampled_csv, tmp_path, capsys):
        # --cpdag was silently ignored
        skel, out = tmp_path / "skel.json", tmp_path / "g.dot"
        assert run("learn-skeleton", "--data", sampled_csv, "--out", skel) == 0
        assert run("export-dot", "--skeleton", skel, "--cpdag", "--out", out) == 1
        self.assert_one_line(capsys, "usage error: --cpdag needs --net")
        assert not out.exists()


    @pytest.mark.parametrize("flag, value", [
        ("--alpha", 0.5),
        ("--alpha", 0.05),
        ("--power-threshold", 2),
        ("--max-condset", 1),
        ("--power-cells", "observed"),
    ])
    def test_learn_test_flag_with_skeleton(self, flag, value, tmp_path, capsys):
        # the search reads no test flag, yet the report echoed it; a flag
        # counts whatever its value, and is refused before any file is read
        missing, out = tmp_path / "missing", tmp_path / "n.json"
        code = run("learn", "--data", missing, "--skeleton", missing,
                   flag, value, "--out", out)
        assert code == 1
        self.assert_one_line(capsys, f"usage error: {flag} is not read with --skeleton")
        assert not out.exists()

    def test_learn_blank_first_line(self, tmp_path, capsys):
        # it once wrote a network with no variables and exited 0
        data, out = tmp_path / "blank.csv", tmp_path / "n.json"
        data.write_text("\n\n")
        assert run("learn", "--data", data, "--out", out) == 2
        self.assert_one_line(capsys, "data error: no column names on line 1 of ")
        assert not out.exists()

    @pytest.mark.parametrize("scenario, flag, value", [
        # the id names the scenario only when there are several to tell apart
        pytest.param(scenario, flag, value, id=f"{flag}-{value}"
                     if len(NO_GRAPH) == 1 else f"{scenario}-{flag}-{value}")
        for scenario in NO_GRAPH
        for flag, value in [
            ("--alpha", 0.5),
            ("--power-threshold", 2),
            ("--max-condset", 1),
            ("--power-cells", "observed"),
            ("--score", "bic"),
            ("--ess", 10),
            ("--tabu", 3),
            ("--patience", 5),
        ]
    ])
    def test_mlc_br_graph_flag(self, scenario, flag, value, tmp_path, capsys):
        # br, and any scenario the table marks as learning no graph, reads
        # none of these, yet the report echoed them
        missing, out = tmp_path / "missing.csv", tmp_path / "r.json"
        code = run("mlc", "--data", missing, "--label-count", 1,
                   "--scenario", scenario, "--seed", 0, flag, value,
                   "--report", out)
        assert code == 1
        self.assert_one_line(
            capsys, f"usage error: {flag} is not read with --scenario {scenario}"
        )
        assert not out.exists()

    @pytest.mark.parametrize("names, levels, message", [
        ([], [], "the dataset has no columns, so it cannot be written to CSV"),
        (["a"], [["x", " x"]], "' x' of variable 'a' cannot be written to CSV"),
        (["a"], [["a\rb", "c"]], "'a\\rb' of variable 'a' cannot be written"),
        (["a "], [["0", "1"]], "'a ' of variable 'a ' cannot be written"),
        (["a"], [["0", ""]], "variable 'a' has an empty level"),
        (["a"], [["0", "1", "0"]], "variable 'a' has two equal levels"),
        (["\ufeffa", "b"], [["0", "1"], ["0", "1"]],
         "variable '\\ufeffa' starts with a byte-order mark"),
        # the csv module of Python 3.10 raises on a NUL
        (["a"], [["a\0b", "c"]], "'a\\x00b' of variable 'a' cannot be written"),
    ])
    def test_sample_tokens_a_csv_cannot_carry(self, names, levels, message,
                                              tmp_path, capsys):
        # each once sampled to a file that learn could not read back; write_csv
        # checks the levels the rows use, and 200 rows use every level here
        net = BayesianNetwork(
            Dag(len(names)), names, levels,
            [np.full((len(lv), 1), 1 / len(lv)) for lv in levels],
        )
        net_path, out = tmp_path / "net.json", tmp_path / "s.csv"
        write_network(net, net_path)
        code = run("sample", "--net", net_path, "--n", 200, "--seed", 0, "--out", out)
        assert code == 2
        self.assert_one_line(capsys, f"data error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("variable, message", [
        # sampled as the tokens True and None
        ({"name": "a", "levels": [True, None]}, "level of 'a' is not a JSON string: true"),
        ({"name": "a", "levels": ["0", 1]}, "level of 'a' is not a JSON string: 1"),
        ({"name": 7, "levels": ["0", "1"]}, "variable name is not a JSON string: 7"),
        ({"name": ["a"], "levels": ["0", "1"]},
         'variable name is not a JSON string: ["a"]'),
    ])
    def test_network_names_must_be_json_strings(self, variable, message,
                                                tmp_path, capsys):
        doc = {"variables": [variable], "edges": [], "cpts": {"a": [0.5, 0.5]}}
        net_path, out = tmp_path / "net.json", tmp_path / "s.csv"
        net_path.write_text(json.dumps(doc))
        code = run("sample", "--net", net_path, "--n", 20, "--seed", 0, "--out", out)
        assert code == 2
        self.assert_one_line(capsys, f"data error: {message}\n")
        assert not out.exists()

    def test_skeleton_nodes_must_be_json_strings(self, tiny_csv, tmp_path, capsys):
        skel, out = tmp_path / "skel.json", tmp_path / "o.json"
        skel.write_text('{"nodes": ["a", "b", null], "edges": []}')
        code = run("learn", "--data", tiny_csv, "--skeleton", skel, "--out", out)
        assert code == 2
        self.assert_one_line(capsys, "data error: skeleton node is not a JSON string: null\n")
        assert not out.exists()

    def test_sample_of_one_row(self, tmp_path, capsys):
        # every column of a one-row sample is constant, which load_csv, and
        # so learn, would refuse
        net_path, out = tmp_path / "child.json", tmp_path / "s.csv"
        write_network(child_shape_network(), net_path)
        code = run("sample", "--net", net_path, "--n", 1, "--seed", 0, "--out", out)
        assert code == 2
        self.assert_one_line(capsys, "data error: constant column 'n00'")
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_sample_sizes_refused_leaves_no_file(self, existing, tmp_path, capsys):
        # " x" is drawn at 100,000 rows, not at 10: the file of 10 rows is
        # written first, and removed when the next one is refused, with the
        # directory the run made; a directory that was there stays
        net = BayesianNetwork(Dag(2), ["a", "b"], [["p", "q", " x"], ["0", "1"]],
                              [np.array([[0.5], [0.499], [0.001]]), np.full((2, 1), 0.5)])
        net_path, out_dir = tmp_path / "net.json", tmp_path / "out"
        write_network(net, net_path)
        assert run("sample", "--net", net_path, "--sizes", "10", "--seed", 0,
                   "--out-dir", tmp_path / "alone") == 0
        assert os.listdir(tmp_path / "alone") == ["sample_10.csv"]
        if existing:
            out_dir.mkdir()
            (out_dir / "kept.txt").write_text("kept")
        code = run("sample", "--net", net_path, "--sizes", "10,100000", "--seed", 0,
                   "--out-dir", out_dir)
        assert code == 2
        self.assert_one_line(capsys, "data error: ' x' of variable 'a' cannot be written")
        assert (os.listdir(out_dir) == ["kept.txt"]) if existing else not out_dir.exists()

    def test_mlc_export_of_a_token_a_csv_cannot_carry(self, tmp_path, capsys):
        # a quoted carriage return loads, but the csv writer would write it
        # bare, and every exported file would then read back ragged
        rng = np.random.default_rng(0)
        lines = [f"{x},{y}" for x, y in zip(rng.choice(['"a\rb"', "c"], 40),
                                            rng.integers(0, 2, 40).tolist())]
        data, export, report = tmp_path / "cr.csv", tmp_path / "ex", tmp_path / "r.json"
        data.write_text("x,y\n" + "\n".join(lines) + "\n", newline="")
        code = run("mlc", "--data", data, "--labels", "y", "--scenario", "br",
                   "--folds", 2, "--seed", 0, "--export-blocks", export,
                   "--report", report)
        assert code == 2
        self.assert_one_line(
            capsys, "data error: 'a\\rb' of variable 'x' cannot be written to CSV")
        assert not report.exists()
        assert not export.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_mlc_refused_export_leaves_no_file(self, existing, tmp_path, capsys):
        # the one "a\rb" row is a test row of fold 0, so fold 0's training
        # file is written, and removed when its test file is refused; a
        # directory that was there stays
        n = 40
        rng = np.random.default_rng(0)
        x = rng.choice(["a", "b"], n).astype(object)
        x[kfold(n, 2, 0).test_indices(0)[0]] = '"a\rb"'
        y = rng.integers(0, 2, n)
        data, export, report = tmp_path / "cr.csv", tmp_path / "ex", tmp_path / "r.json"
        data.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(x, y)), newline="")
        if existing:
            export.mkdir()
            (export / "kept.txt").write_text("kept")
        code = run("mlc", "--data", data, "--labels", "y", "--scenario", "br",
                   "--folds", 2, "--seed", 0, "--export-blocks", export,
                   "--report", report)
        assert code == 2
        self.assert_one_line(
            capsys, "data error: 'a\\rb' of variable 'x' cannot be written to CSV")
        assert not report.exists()
        assert (os.listdir(export) == ["kept.txt"]) if existing else not export.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--ess", 3), ("--ess", 10), ("--delimiter", ";"), ("--delimiter", ","),
    ])
    def test_evaluate_flag_without_test(self, flag, value, tmp_path, capsys):
        # only the holdout scores of --test read these
        missing, out = tmp_path / "missing.json", tmp_path / "r.json"
        code = run("evaluate", "--learned", missing, "--truth", missing,
                   flag, value, "--report", out)
        assert code == 1
        self.assert_one_line(capsys, f"usage error: {flag} needs --test")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "export-dot", "sample"])
    def test_network_with_a_huge_parent_space(self, command, tmp_path, capsys):
        # 10**4400 parent configurations: the CPT's expected entry count was
        # formatted first, past Python's 4300-digit limit, so this ended in
        # a ValueError traceback
        parents = [f"p{i}" for i in range(4400)]
        doc = {
            "variables": [{"name": p, "levels": list("0123456789")}
                          for p in parents] + [{"name": "c", "levels": ["0", "1"]}],
            "edges": [[p, "c"] for p in parents],
            "cpts": {**{p: [0.1] * 10 for p in parents}, "c": [0.5, 0.5]},
        }
        net_path, out = tmp_path / "net.json", tmp_path / "out"
        net_path.write_text(json.dumps(doc))
        argv = {
            "evaluate": ["--learned", net_path, "--truth", net_path, "--report", out],
            "export-dot": ["--net", net_path, "--out", out],
            "sample": ["--net", net_path, "--n", 5, "--seed", 0, "--out", out],
        }[command]
        assert run(command, *argv) == 2
        self.assert_one_line(capsys, "data error: CPT of 'c' is too large")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "evaluate", "benchmark",
                                         "export-dot"])
    @pytest.mark.parametrize("column, message", [
        # the integer made np.asarray raise an OverflowError traceback
        ([10**400, 0], "CPT of 'a' has non-finite entries"),
        # finite entries whose sum overflows: NumPy warned before the error
        ([1e308, 1e308], "CPT column of 'a' does not sum to 1"),
    ])
    def test_cpt_past_the_double_range(self, command, column, message,
                                       tmp_path, capsys):
        doc = {
            "variables": [{"name": "a", "levels": ["0", "1"]},
                          {"name": "b", "levels": ["0", "1"]}],
            "edges": [["a", "b"]],
            "cpts": {"a": column, "b": [0.9, 0.2, 0.1, 0.8]},
        }
        net_path, out = tmp_path / "net.json", tmp_path / "out"
        net_path.write_text(json.dumps(doc))
        argv = {
            "sample": ["--net", net_path, "--n", 5, "--seed", 0, "--out", out],
            "evaluate": ["--learned", net_path, "--truth", net_path, "--report", out],
            "benchmark": ["--truth", net_path, "--sizes", 20, "--seed", 0,
                          "--out", out],
            "export-dot": ["--net", net_path, "--out", out],
        }[command]
        assert run(command, *argv) == 2
        self.assert_one_line(capsys, f"data error: {message}")
        assert not out.exists()

    def test_laplace_past_the_double_range(self, sampled_csv, tmp_path, capsys):
        # every smoothed column total overflowed: NumPy warned, and the
        # zeroed columns were reported as not summing to 1
        out = tmp_path / "out.json"
        code = run("learn", "--data", sampled_csv, "--laplace", "1e308",
                   "--out", out)
        assert code == 2
        self.assert_one_line(capsys, "data error: the CPT of 'n00' is not "
                                     "finite with laplace = 1e+308")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_smoothing_past_the_double_range(self, jobs, tmp_path, capsys):
        # every smoothed class total overflowed, so every log-likelihood was
        # -inf and every prediction the first class: this exited 0 with
        # accuracy_mean 0.025
        data, report = tmp_path / "mlc.csv", tmp_path / "r.json"
        write_csv(forward_sample(two_cluster_network(), 40, seed=0), data)
        code = run("mlc", "--data", data, "--label-count", 6, "--scenario",
                   "br", "--folds", 2, "--seed", 0, "--smoothing", "1e308",
                   "--jobs", jobs, "--report", report)
        assert code == 2
        self.assert_one_line(capsys, "data error: the likelihoods of 'x0' are "
                                     "not finite with smoothing = 1e+308")
        assert not report.exists()


class TestDefaults:
    """An option that sets a config field defaults to the field's value."""

    def parse(self, command):
        argv = [command, *REQUIRED[command]]
        return build_parser().parse_args([str(a) for a in argv])

    @pytest.mark.parametrize("command", ["learn-skeleton", "learn", "benchmark", "mlc"])
    def test_test_config(self, command):
        assert _test_cfg(self.parse(command)) == Config()

    @pytest.mark.parametrize("command", ["learn", "benchmark", "mlc"])
    def test_score_config(self, command):
        assert _score_cfg(self.parse(command)) == ScoreConfig()

    def test_evaluate_ess(self):
        assert self.parse("evaluate").ess == ScoreConfig().ess

    def test_mlc_folds_and_smoothing(self):
        args, cfg = self.parse("mlc"), MlcConfig()
        assert (args.folds, args.smoothing) == (cfg.folds, cfg.smoothing)


class TestLearnSkeleton:
    def test_writes_skeleton_json(self, sampled_csv, tmp_path):
        out = tmp_path / "skel.json"
        assert run("learn-skeleton", "--data", sampled_csv, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"nodes", "edges", "pc"}
        assert len(doc["nodes"]) == 5

    def test_jobs_do_not_change_bytes(self, sampled_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("learn-skeleton", "--data", sampled_csv, "--jobs", 1, "--out", a)
        run("learn-skeleton", "--data", sampled_csv, "--jobs", 4, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestLearn:
    def test_byte_order_mark_is_not_a_name(self, sampled_csv, tmp_path):
        # a file saved with a leading UTF-8 byte-order mark: its first column
        # keeps its name through learn, and mlc finds it as a label
        plain = Path(sampled_csv).read_bytes()
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain)
        first = plain.split(b",", 1)[0].decode()
        for path, out in ((sampled_csv, "plain.json"), (marked, "marked.json")):
            assert run("learn", "--data", path, "--out", tmp_path / out) == 0
        assert (tmp_path / "marked.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert run("mlc", "--data", marked, "--labels", first, "--scenario", "br",
                   "--folds", 2, "--seed", 0, "--report", tmp_path / "r.json") == 0

    def test_network_and_report(self, sampled_csv, tmp_path):
        out = tmp_path / "learned.json"
        report = tmp_path / "report.json"
        assert run("learn", "--data", sampled_csv, "--out", out,
                   "--report", report) == 0
        net_doc = json.loads(out.read_text())
        assert set(net_doc) == {"variables", "edges", "cpts"}
        rep = json.loads(report.read_text())
        assert rep["phase"] == "search"
        assert rep["n"] == 400 and rep["d"] == 5
        assert {"config", "skeleton_edges", "ci_tests", "dag_edges", "score",
                "empty_score", "moves", "stop"} <= set(rep)
        assert rep["stop"] in ("patience", "no_move")
        assert rep["ci_tests"] > 0
        # resolved configuration is echoed without any paths
        assert "data" not in rep["config"] and "out" not in rep["config"]
        assert rep["config"]["alpha"] == 0.05

    def test_report_counts_are_those_of_h2pc(self, sampled_csv, tmp_path):
        report = tmp_path / "report.json"
        assert run("learn", "--data", sampled_csv, "--alpha", 0.01,
                   "--out", tmp_path / "learned.json", "--report", report) == 0
        rep = json.loads(report.read_text())
        got = h2pc(DataIndependenceSource(load_csv(sampled_csv), Config(alpha=0.01)))
        assert rep["ci_tests"] == got.ci_tests > 0
        assert rep["skeleton_edges"] == len(got.skeleton.edges)
        assert rep["dag_edges"] == got.search.dag.edge_count()

    def test_skeleton_reuse_matches_direct_run(self, sampled_csv, tmp_path):
        skel = tmp_path / "skel.json"
        run("learn-skeleton", "--data", sampled_csv, "--out", skel)
        direct = tmp_path / "direct.json"
        reused = tmp_path / "reused.json"
        run("learn", "--data", sampled_csv, "--out", direct)
        report = tmp_path / "report.json"
        assert run("learn", "--data", sampled_csv, "--skeleton", skel,
                   "--out", reused, "--report", report) == 0
        assert direct.read_bytes() == reused.read_bytes()
        assert json.loads(report.read_text())["ci_tests"] == 0

    def test_skeleton_name_mismatch(self, sampled_csv, tmp_path, capsys):
        skel = tmp_path / "skel.json"
        skel.write_text('{"nodes": ["p", "q"], "edges": []}')
        code = run("learn", "--data", sampled_csv, "--skeleton", skel,
                   "--out", tmp_path / "x.json")
        assert code == 2
        capsys.readouterr()

    def test_report_is_location_independent(self, small_net, tmp_path):
        _, net_path = small_net
        reports = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            csv_path = d / "rows.csv"
            run("sample", "--net", net_path, "--n", 300, "--seed", 4,
                "--out", csv_path)
            rep = d / "rep.json"
            run("learn", "--data", csv_path, "--out", d / "net.json",
                "--report", rep)
            reports.append(rep.read_bytes())
        assert reports[0] == reports[1]

    def test_timing_flag_adds_seconds(self, sampled_csv, tmp_path):
        rep = tmp_path / "rep.json"
        run("learn", "--data", sampled_csv, "--timing",
            "--out", tmp_path / "n.json", "--report", rep)
        assert "seconds" in json.loads(rep.read_text())


class TestEvaluate:
    def test_identical_networks(self, small_net, tmp_path):
        _, net_path = small_net
        report = tmp_path / "eval.json"
        assert run("evaluate", "--learned", net_path, "--truth", net_path,
                   "--report", report) == 0
        doc = json.loads(report.read_text())
        assert doc["shd"] == 0
        assert doc["skeleton"]["precision"] == 1.0
        assert doc["skeleton"]["recall"] == 1.0
        assert doc["skeleton"]["fp"] == 0

    def test_holdout_scores_section(self, small_net, sampled_csv, tmp_path):
        _, net_path = small_net
        report = tmp_path / "eval.json"
        assert run("evaluate", "--learned", net_path, "--truth", net_path,
                   "--test", sampled_csv, "--report", report) == 0
        doc = json.loads(report.read_text())
        assert set(doc["scores"]) == {"learned", "truth", "empty"}
        for section in doc["scores"].values():
            assert set(section) == {"bdeu", "bic"}
        assert doc["scores"]["learned"] == doc["scores"]["truth"]
        assert doc["scores"]["learned"]["bdeu"] >= doc["scores"]["empty"]["bdeu"]

    def test_name_mismatch(self, small_net, tmp_path, capsys):
        _, net_path = small_net
        other = monotone_network(
            random_dag(5, 2, np.random.default_rng(9)),
            names=("p0", "p1", "p2", "p3", "p4"),
        )
        other_path = tmp_path / "other.json"
        write_network(other, other_path)
        code = run("evaluate", "--learned", net_path, "--truth", other_path,
                   "--report", tmp_path / "r.json")
        assert code == 2
        capsys.readouterr()


class TestBenchmark:
    def test_csv_output(self, tmp_path):
        truth = tmp_path / "truth.json"
        write_network(recovery_network(), truth)
        out = tmp_path / "bench.csv"
        assert run("benchmark", "--truth", truth, "--sizes", "100,200",
                   "--repeats", 2, "--seed", 0, "--test-n", 500,
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        header = lines[0].split(",")
        assert header[:2] == ["size", "repeat"]
        assert "shd" in header and "bdeu_test" in header

    def test_json_output_and_determinism(self, tmp_path):
        truth = tmp_path / "truth.json"
        write_network(recovery_network(), truth)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("benchmark", "--truth", truth, "--sizes", "150",
                       "--repeats", 1, "--seed", 3, "--test-n", 400,
                       "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["size"] == 150

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_jobs_do_not_change_bytes(self, suffix, tmp_path):
        # four (size, repeat) cells, in one process and in two workers
        truth = tmp_path / "truth.json"
        write_network(recovery_network(), truth)
        outs = [tmp_path / f"jobs{jobs}{suffix}" for jobs in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            assert run("benchmark", "--truth", truth, "--sizes", "100,200",
                       "--repeats", 2, "--seed", 0, "--test-n", 300,
                       "--jobs", jobs, "--out", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestMlc:
    @pytest.fixture
    def mlc_csv(self, tmp_path):
        net = genbase_shape_network()
        net_path = tmp_path / "gen.json"
        write_network(net, net_path)
        data = tmp_path / "mlc.csv"
        run("sample", "--net", net_path, "--n", 300, "--seed", 1,
            "--out", data)
        return str(data), net.names

    def test_br_by_label_count(self, mlc_csv, tmp_path):
        data, _ = mlc_csv
        report = tmp_path / "mlc.json"
        assert run("mlc", "--data", data, "--label-count", 6,
                   "--scenario", "br", "--folds", 3, "--seed", 0,
                   "--report", report) == 0
        doc = json.loads(report.read_text())
        assert doc["scenario"] == "br"
        assert len(doc["labels"]) == 6
        assert len(doc["folds"]) == 3
        assert 0.0 <= doc["accuracy_mean"] <= 1.0
        assert "data" not in doc["config"]

    def test_labels_by_name(self, mlc_csv, tmp_path):
        data, names = mlc_csv
        report = tmp_path / "mlc.json"
        assert run("mlc", "--data", data,
                   "--labels", ",".join(names[12:18]),
                   "--scenario", "br", "--folds", 2, "--seed", 0,
                   "--report", report) == 0
        doc = json.loads(report.read_text())
        assert doc["labels"] == list(names[12:18])

    def test_labels_required(self, mlc_csv, tmp_path, capsys):
        data, _ = mlc_csv
        code = run("mlc", "--data", data, "--scenario", "br",
                   "--folds", 2, "--seed", 0,
                   "--report", tmp_path / "r.json")
        assert code == 1
        capsys.readouterr()

    def test_mlp_scenario_runs(self, mlc_csv, tmp_path):
        data, _ = mlc_csv
        report = tmp_path / "mlp.json"
        assert run("mlc", "--data", data, "--label-count", 6,
                   "--scenario", "mlp", "--folds", 2, "--seed", 0,
                   "--report", report) == 0
        doc = json.loads(report.read_text())
        assert all(rep["n_blocks"] >= 1 for rep in doc["folds"])

    def test_jobs_do_not_change_bytes(self, mlc_csv, tmp_path):
        data, _ = mlc_csv
        reports = [tmp_path / f"jobs{jobs}.json" for jobs in (1, 2)]
        for jobs, report in zip((1, 2), reports):
            assert run("mlc", "--data", data, "--label-count", 6,
                       "--scenario", "mlp+mb", "--folds", 3, "--seed", 0,
                       "--jobs", jobs, "--report", report) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_export_blocks(self, mlc_csv, tmp_path):
        data, _ = mlc_csv
        blocks_dir = tmp_path / "blocks"
        assert run("mlc", "--data", data, "--label-count", 6,
                   "--scenario", "br", "--folds", 2, "--seed", 0,
                   "--export-blocks", blocks_dir,
                   "--report", tmp_path / "r.json") == 0
        files = os.listdir(blocks_dir)
        assert len(files) == 2 * 6 * 2


class TestExportDot:
    def test_network_dot(self, small_net, tmp_path):
        net, net_path = small_net
        out = tmp_path / "g.dot"
        assert run("export-dot", "--net", net_path, "--out", out) == 0
        text = out.read_text()
        assert text.startswith("digraph")
        for name in net.names:
            assert f'"{name}"' in text

    def test_cpdag_dot(self, small_net, tmp_path):
        _, net_path = small_net
        out = tmp_path / "g.dot"
        assert run("export-dot", "--net", net_path, "--cpdag",
                   "--out", out) == 0
        assert out.read_text().startswith("digraph")

    def test_skeleton_dot(self, sampled_csv, tmp_path):
        skel = tmp_path / "skel.json"
        run("learn-skeleton", "--data", sampled_csv, "--out", skel)
        out = tmp_path / "s.dot"
        assert run("export-dot", "--skeleton", skel, "--out", out) == 0
        text = out.read_text()
        assert "dir=none" in text or "}" in text

    def test_exactly_one_source(self, small_net, tmp_path, capsys):
        _, net_path = small_net
        assert run("export-dot", "--out", tmp_path / "x.dot") == 1
        assert run("export-dot", "--net", net_path, "--skeleton", net_path,
                   "--out", tmp_path / "x.dot") == 1
        capsys.readouterr()


# ------------------------------------------------------------ drawn input

# byte strings that data files give meaning to, for the mutants to insert
TOKENS = [b"\n", b"\r", b",", b";", b'"', b" ", b"[", b"]", b"{", b"}", b":",
          b"-1", b"0", b"1e400", b"1e308", b"9" * 400, b"NaN", b"null",
          b"\x00", b"\xff", b"\\u0000"]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """{kind: bytes} of a valid network, CSV sample and skeleton file."""
    root = tmp_path_factory.mktemp("valid")
    net = monotone_network(Dag(3, [(0, 1), (1, 2)]))
    write_network(net, root / "net.json")
    write_csv(forward_sample(net, 24, seed=0), root / "data.csv")
    write_skeleton(Skeleton(3, frozenset({(0, 1), (1, 2)})), net.names,
                   root / "skel.json")
    return {kind: (root / name).read_bytes() for kind, name in
            [("net", "net.json"), ("csv", "data.csv"), ("skel", "skel.json")]}


@st.composite
def contents(draw, valid):
    """Drawn bytes (one time in four), or valid with up to two slices
    replaced."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    data = bytearray(valid)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        data[i:j] = draw(st.one_of(st.sampled_from(TOKENS), st.binary(max_size=8)))
    return bytes(data)


# an argv of each subcommand: a file kind ("net", "csv", "skel") stands for
# a drawn input file of that kind, a name with a suffix for an output file
DRAWN_RUNS = {
    "sample": ["--net", "net", "--n", 20, "--seed", 0, "--out", "o.csv"],
    "learn-skeleton": ["--data", "csv", "--out", "o.json"],
    "learn": ["--data", "csv", "--out", "o.json", "--report", "r.json"],
    "learn --skeleton": ["--data", "csv", "--skeleton", "skel", "--out",
                         "o.json"],
    "evaluate": ["--learned", "net", "--truth", "net", "--test", "csv",
                 "--report", "r.json"],
    "benchmark": ["--truth", "net", "--sizes", 20, "--repeats", 1, "--seed",
                  0, "--test-n", 20, "--out", "o.json"],
    "mlc": ["--data", "csv", "--label-count", 1, "--folds", 2, "--seed", 0,
            "--scenario", "mlp+mb", "--report", "r.json"],
    "mlc --binarize": ["--data", "csv", "--label-count", 1, "--folds", 2,
                       "--seed", 0, "--scenario", "br", "--binarize",
                       "--report", "r.json"],
    "export-dot --net": ["--net", "net", "--out", "o.dot"],
    "export-dot --cpdag": ["--net", "net", "--cpdag", "--out", "o.dot"],
    "export-dot --skeleton": ["--skeleton", "skel", "--out", "o.dot"],
}


@settings(max_examples=120, deadline=None)
@given(run_name=st.sampled_from(sorted(DRAWN_RUNS)), data=st.data())
def test_drawn_files_end_in_an_exit_code(valid_files, run_name, data):
    """Whatever bytes the files hold, main returns 0, 1 or 2; it raises
    nothing, and a failure is one stderr line."""
    argv = run_name.split()[:1]
    with tempfile.TemporaryDirectory() as root:
        for i, arg in enumerate(DRAWN_RUNS[run_name]):
            if arg in valid_files:
                path = os.path.join(root, f"in{i}")
                with open(path, "wb") as fh:
                    fh.write(data.draw(contents(valid_files[arg]), label=arg))
                arg = path
            elif isinstance(arg, str) and "." in arg:
                arg = os.path.join(root, arg)
            argv.append(str(arg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
