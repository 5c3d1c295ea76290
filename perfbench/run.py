"""hybridbn benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload learn-child --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory. With --trace 0 the run sets the workload up several times
(at least five times and one second; setup_s is the median), then runs ops back to back, one at a time, for at
least --seconds and at least two ops, and reports the end-to-end metrics.
With --trace 1 it alternates untraced and traced ops and reports per-layer
metrics instead. Every op's outputs are digested: an op fails when it raises
or when its digests differ from the run's first op or, at the default seed,
from the pinned digests in digests.json. Once per untraced run the hybridbn
CLI must write the same bytes as the composed op.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Spans, op times and digests go to .perfbench/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S, so
# that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
MIN_OPS = 2
# Distinct CI tests are reported by |Z| = 0 .. MAX_Z - 1, then MAX_Z and above.
MAX_Z = 10

END_TO_END = {
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("data", "independence", "skeleton", "scoring", "network", "metrics",
          "multilabel")


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {
        "data.load_csv_s": "s",
        "data.load_csv_cells_per_s": "1/s",
        "independence.queries": "count",
        "independence.distinct_tests": "count",
        "independence.cache_hit_ratio": "ratio",
        "independence.test_s": "s",
        "independence.us_per_test": "us",
    }
    for k in range(MAX_Z):
        units[f"independence.tests_z{k}"] = "count"
    units.update({
        f"independence.tests_z{MAX_Z}plus": "count",
        "independence.power_rule_verdicts": "count",
        "independence.dof0_verdicts": "count",
        "skeleton.build_s": "s",
        "skeleton.edges": "count",
        "scoring.local_calls": "count",
        "scoring.distinct_families": "count",
        "scoring.local_s": "s",
        "scoring.search_s": "s",
        "scoring.search_self_s": "s",
        "scoring.moves": "count",
        "scoring.self_us_per_move": "us",
        "network.fit_cpts_s": "s",
        "network.write_s": "s",
        "network.forward_sample_s": "s",
        "metrics.eval_s": "s",
        "metrics.shd": "count",
        "metrics.holdout_bdeu_per_row": "nats/row",
        "multilabel.scenario_s.br": "s",
        "multilabel.scenario_s.br_mb": "s",
        "multilabel.scenario_s.mlp": "s",
        "multilabel.scenario_s.mlp_mb": "s",
        "multilabel.local_dag_s": "s",
        "multilabel.fit_predict_s": "s",
        "multilabel.blocks_mean": "count",
        "multilabel.boundary_size_mean": "count",
        "multilabel.subset_accuracy": "ratio",
        "parallel.jobs1_op_s": "s",
        "parallel.jobs2_speedup": "ratio",
        "trace.op_s": "s",
        "trace.overhead_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    return units


class ProgramMissing(Exception):
    """The checkout holds no hybridbn sources to benchmark."""


def import_program():
    """Put the checkout's src/ first on sys.path and import hybridbn from it."""
    src = ROOT / "src"
    if not (src / "hybridbn" / "__init__.py").is_file():
        raise ProgramMissing(f"no hybridbn sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import hybridbn

    if Path(hybridbn.__file__).resolve().parent != (src / "hybridbn").resolve():
        raise ProgramMissing(f"hybridbn was imported from {hybridbn.__file__}")


def _digests(outputs):
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in outputs.items()}


def load_pins(workload, seed):
    """Pinned output digests for the default seed, or None."""
    if seed != DEFAULT_SEED:
        return None
    pins = json.loads((HERE / "digests.json").read_text())
    return pins.get(workload)


class Run:
    """State of one benchmark run: op times, digests and problems."""

    def __init__(self, workload, pins, workdir):
        self.workload = workload
        self.pins = pins
        self.workdir = workdir
        self.files = None
        self.reference = None
        self.reference_outputs = None
        self.reference_facts = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.op_log = []

    def op(self, jobs, tracer, label):
        """Run one op, time it, and check its outputs; returns (seconds, facts)."""
        outdir = self.workdir / f"op{self.attempted}"
        outdir.mkdir()
        self.attempted += 1
        start = time.perf_counter()
        try:
            outputs, facts = self.workload.op(self.files, outdir, jobs, tracer)
        except Exception:
            seconds = time.perf_counter() - start
            self.failed += 1
            self.problems.append(f"{label} op raised:\n{traceback.format_exc()}")
            self.op_log.append({"label": label, "jobs": jobs, "seconds": seconds})
            return seconds, None
        seconds = time.perf_counter() - start
        digests = _digests(outputs)
        if self.reference is None:
            self.reference = digests
            self.reference_outputs = outputs
            self.reference_facts = facts
        ok = digests == self.reference
        if not ok:
            self.problems.append(f"{label} op output differs from the run's first op")
        if self.pins is not None and digests != self.pins:
            ok = False
            self.problems.append(f"{label} op output differs from the pinned digests")
        self.failed += not ok
        self.op_log.append({"label": label, "jobs": jobs, "seconds": seconds,
                            "digests": digests, "ok": ok})
        shutil.rmtree(outdir)
        return seconds, facts

    def cli_check(self):
        outdir = self.workdir / "cli"
        outdir.mkdir()
        try:
            self.workload.cli_check(self.files, outdir,
                                    self.reference_outputs, self.reference_facts)
        except Exception:
            self.problems.append(f"CLI check failed:\n{traceback.format_exc()}")


def _file_digests(files):
    return {k: hashlib.sha256(Path(p).read_bytes()).hexdigest() for k, p in files.items()}


def measure_end_to_end(run, seed, seconds):
    from tracing import NullTracer

    wl = run.workload
    null = NullTracer()
    setup_times = []
    first = None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        d = run.workdir / f"setup{len(setup_times)}"
        d.mkdir()
        start = time.perf_counter()
        files = wl.setup(d, seed, null)
        setup_times.append(time.perf_counter() - start)
        fingerprint = _file_digests(files)
        first = first or fingerprint
        if fingerprint != first:
            run.problems.append("setup gave different files for the same seed")
    run.files = files

    times = []
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start < seconds:
        times.append(run.op(wl.jobs, null, "timed")[0])
    if run.reference_outputs is not None:
        run.cli_check()
    else:
        run.problems.append("no op succeeded, so the CLI check was skipped")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_s_p50": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return metrics, {"setup_s": setup_times, "op_s": times}


def layer_metrics(tracer, op_id, facts):
    """Per-layer numbers of one traced op, from its spans and facts."""
    def total(name):
        return tracer.total(op_id, name)

    self_s = tracer.self_time_by_layer(op_id)
    m = {}
    load = total("data.load_csv")
    m["data.load_csv_s"] = load
    m["data.load_csv_cells_per_s"] = facts["cells_loaded"] / load
    ind = facts.get("independence") or {"queries": 0, "distinct_tests": 0, "by_z": {},
                                         "power_rule_verdicts": 0, "dof0_verdicts": 0}
    queries, distinct = ind["queries"], ind["distinct_tests"]
    test_s = total("independence.test")
    m["independence.queries"] = queries
    m["independence.distinct_tests"] = distinct
    m["independence.cache_hit_ratio"] = (queries - distinct) / queries if queries else 0.0
    m["independence.test_s"] = test_s
    m["independence.us_per_test"] = 1e6 * test_s / distinct if distinct else 0.0
    for k in range(MAX_Z):
        m[f"independence.tests_z{k}"] = ind["by_z"].get(k, 0)
    m[f"independence.tests_z{MAX_Z}plus"] = sum(
        count for k, count in ind["by_z"].items() if k >= MAX_Z)
    m["independence.power_rule_verdicts"] = ind["power_rule_verdicts"]
    m["independence.dof0_verdicts"] = ind["dof0_verdicts"]
    m["skeleton.build_s"] = total("skeleton.build")
    m["skeleton.edges"] = facts.get("skeleton_edges", 0)
    local_s, search_s = total("scoring.local"), total("scoring.search")
    moves = facts.get("moves", 0)
    m["scoring.local_calls"] = facts.get("local_calls", 0)
    m["scoring.distinct_families"] = facts.get("distinct_families", 0)
    m["scoring.local_s"] = local_s
    m["scoring.search_s"] = search_s
    m["scoring.search_self_s"] = search_s - local_s
    m["scoring.moves"] = moves
    m["scoring.self_us_per_move"] = 1e6 * (search_s - local_s) / moves if moves else 0.0
    m["network.fit_cpts_s"] = total("network.fit_cpts")
    m["network.write_s"] = total("network.write")
    m["network.forward_sample_s"] = tracer.total("setup", "network.forward_sample")
    m["metrics.eval_s"] = total("metrics.eval")
    m["metrics.shd"] = facts.get("shd", 0)
    m["metrics.holdout_bdeu_per_row"] = facts.get("holdout_bdeu_per_row", 0.0)
    for key in ("br", "br_mb", "mlp", "mlp_mb"):
        m[f"multilabel.scenario_s.{key}"] = total(f"multilabel.scenario.{key}")
    m["multilabel.local_dag_s"] = total("multilabel.local_dag")
    m["multilabel.fit_predict_s"] = total("multilabel.fit_predict")
    m["multilabel.blocks_mean"] = facts.get("blocks_mean", 0.0)
    m["multilabel.boundary_size_mean"] = facts.get("boundary_size_mean", 0.0)
    m["multilabel.subset_accuracy"] = facts.get("subset_accuracy", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


def measure_layers(run, seed, seconds):
    from tracing import NullTracer, Tracer

    wl = run.workload
    null = NullTracer()
    tracer = Tracer()
    tracer.op_id = "setup"
    d = run.workdir / "setup"
    d.mkdir()
    run.files = wl.setup(d, seed, tracer)

    untraced, traced, per_op = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run.op(wl.jobs, null, "untraced")[0])
        tracer.op_id = run.attempted
        with tracer.span("op"):
            op_seconds, facts = run.op(wl.jobs, tracer, "traced")
        traced.append(op_seconds)
        if facts is not None:
            per_op.append(layer_metrics(tracer, tracer.op_id, facts))
    other = run.op(wl.other_jobs, null, "other-jobs")[0]
    base = statistics.median(untraced)
    jobs1, jobs2 = (base, other) if wl.jobs == 1 else (other, base)

    metrics = {}
    for name in per_layer_units():
        values = [m[name] for m in per_op if name in m]
        metrics[name] = statistics.median(values) if values else 0.0
    metrics["parallel.jobs1_op_s"] = jobs1
    metrics["parallel.jobs2_speedup"] = jobs1 / jobs2
    metrics["trace.op_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - base
    return metrics, {"untraced_op_s": untraced, "traced_op_s": traced,
                     "other_jobs_op_s": other, "spans": tracer.to_json()}


def machine_info():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(workload, seed, seconds, trace, pins):
    """One run in a scratch directory under .perfbench/; returns
    (result line, artifact dict)."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    run = Run(workload, pins, workdir)
    try:
        if trace:
            metrics, detail = measure_layers(run, seed, seconds)
            units = per_layer_units()
        else:
            metrics, detail = measure_end_to_end(run, seed, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = run.failed == 0 and not run.problems
    line = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    artifact = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_info(),
        "pinned": pins is not None,
        "reference_digests": run.reference,
        "ops": run.op_log,
        "problems": run.problems,
        **detail,
        "result": line,
    }
    return line, artifact


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    try:
        workload = workloads.make(args.workload)
    except KeyError as exc:
        print(f"perfbench: {exc.args[0]}", file=sys.stderr)
        return 2
    line, artifact = run_workload(workload, args.seed, args.seconds, args.trace,
                                  load_pins(workload.name, args.seed))
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(artifact) + "\n")
    for problem in artifact["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
