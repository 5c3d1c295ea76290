"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()
import workloads  # noqa: E402

TINY = {
    "learn-child": dict(train_rows=2000, holdout_rows=500),
    "search-wide": dict(nodes=30, train_rows=1000, holdout_rows=300),
    "mlc-cv": dict(rows=600, folds=3),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert set(TINY) == set(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace):
    line, _ = run.run_workload(workloads.make(name, **TINY[name]), 3, 0.0, trace, None)
    assert line["correct"], line
    assert line["failed"] == 0 and line["attempted"] >= 2
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in line["metrics"].items()}
    assert printed == wanted
    for value in line["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_a_perturbed_digest_counts_every_op_as_failed():
    wl = workloads.make("mlc-cv", **TINY["mlc-cv"])
    _, artifact = run.run_workload(wl, 0, 0.0, 0, None)
    pins = dict(artifact["reference_digests"])
    pins["br"] = "0" * 64
    line, _ = run.run_workload(wl, 0, 0.0, 0, pins)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 2


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlc-cv", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
