"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out perfbench/baseline.json

Runs one process at a time, in the order given, and merges the results for
each (workload, trace) into --out alongside the machine description. The
spread of a metric is (Q3 - Q1) / median over the seeds, with the quartiles
of statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else None,
        "values": values,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = machine()
    doc["run_seconds"] = args.seconds
    for name in args.workloads.split(","):
        lines = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            line["seed"] = seed
            lines.append(line)
            print(name, seed, json.dumps(line), flush=True)
        metrics = {
            metric: {"unit": lines[0]["metrics"][metric]["unit"],
                     **summarize([ln["metrics"][metric]["value"] for ln in lines])}
            for metric in lines[0]["metrics"]
        }
        doc.setdefault("workloads", {}).setdefault(name, {})[f"trace{args.trace}"] = {
            "seeds": [ln["seed"] for ln in lines],
            "all_correct": all(ln["correct"] for ln in lines),
            "attempted": sum(ln["attempted"] for ln in lines),
            "failed": sum(ln["failed"] for ln in lines),
            "metrics": metrics,
        }
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
