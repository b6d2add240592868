"""Record the benchmark's end-to-end metrics in one JSON file.

    python3 bench/run.py --out BENCH_9.json [--tier1-log tier1.log]

Run it from the root of a fastslow checkout. It runs
``perfbench/run.py --trace 0`` for every workload that ``BENCHMARK.json``
declares, with its ``run_seconds``, over seeds 1-5, one process at a time
and seed by seed, and reads each run's ``result.json``; it times nothing
itself. The file it writes holds, per workload, the median and quartiles
of every end-to-end metric with the raw values and the correctness record
of the runs (fail count, outputs changed from the reference digests); the
``src/fastslow/*.py`` line count, in total and per file; the machine
record of the first run; and, for each bundled ``_quick`` config, the
median of 3 wall times of the whole ``python -m fastslow.cli run <name>
--workers 1`` process, imports included, raw and rescaled to perfbench's
reference machine speed: perfbench's reference kernel runs before the first
process and after every one, and a time t between kernel times k0 and k1
becomes ``t * 2 * K_REF / (k0 + k1)``, as perfbench rescales serial passes.
``--tier1-log`` adds the Tier-1 outcome counts, time and ``--durations``
table parsed from a saved pytest log.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEEDS = (1, 2, 3, 4, 5)
QUICK_RUNS = 3


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method) of a list of numbers."""
    values = sorted(values)
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(results: list) -> dict:
    """One workload's record from the ``result.json`` of each of its runs."""
    names = sorted({k for r in results for k in r["metrics"]})
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"unit": results[0]["metrics"][name]["unit"],
                         **quartiles(values), "values": values}
    return {"runs": len(results),
            "seeds": [r["run"]["seed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "outputs_changed": sum(r["run"]["outputs_changed"]
                                   for r in results),
            "metrics": metrics}


_SUMMARY = re.compile(r"^=*\s*(?P<counts>\d+ \w+.*) in (?P<s>[\d.]+)s\b")
_DURATION = re.compile(r"^(?P<s>[\d.]+)s (?P<when>call|setup|teardown)\s+"
                       r"(?P<test>\S+)$")


def parse_tier1_log(text: str) -> dict:
    """Outcome counts, total seconds and the ``--durations`` table of a
    pytest log."""
    out = {"seconds": None, "counts": {}, "durations": []}
    for line in text.splitlines():
        line = line.strip()
        match = _DURATION.match(line)
        if match:
            out["durations"].append({"seconds": float(match["s"]),
                                     "when": match["when"],
                                     "test": match["test"]})
            continue
        match = _SUMMARY.match(line)
        if match:
            out["seconds"] = float(match["s"])
            out["counts"] = {word: int(n) for n, word in re.findall(
                r"(\d+) (\w+)", match["counts"])}
    return out


def src_lines(root: Path) -> dict:
    """Line count of each ``src/fastslow/*.py`` file."""
    return {p.name: len(p.read_text().splitlines())
            for p in sorted((root / "src" / "fastslow").glob("*.py"))}


def reference_kernel(root: Path):
    """``reference_kernel`` and ``K_REF`` of ``perfbench/worker.py``."""
    sys.path.insert(0, str(root / "perfbench"))  # for its ``import configs``
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", root / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.reference_kernel, worker.K_REF


def quick_config_times(root: Path, kernel, k_ref: float) -> dict:
    """Raw and rescaled median and values of ``QUICK_RUNS`` process wall
    times of every bundled ``_quick`` config, run one at a time with
    ``--workers 1``, and the ``kernel`` times around them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    configs = root / "src" / "fastslow" / "configs"
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(p.stem for p in configs.glob("*_quick.cfg")):
            print(f"fastslow run {name}", file=sys.stderr)
            values, kernels = [], [kernel()]
            for _ in range(QUICK_RUNS):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-m", "fastslow.cli", "run",
                                name, "--workers", "1", "--out", tmp],
                               cwd=root, env=env, check=True,
                               capture_output=True)
                values.append(time.perf_counter() - start)
                kernels.append(kernel())
            scaled = [t * 2 * k_ref / (k0 + k1)
                      for t, k0, k1 in zip(values, kernels, kernels[1:])]
            out[name] = {"median": statistics.median(values),
                         "values": values, "kernels": kernels,
                         "scaled_median": statistics.median(scaled),
                         "scaled_values": scaled}
    return out


def run_workload(root: Path, workload: str, seed: int,
                 seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run; returns its result.json."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                    workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", "0"], cwd=root, check=True,
                   stdout=subprocess.DEVNULL)
    out = root / ".perfbench_out" / f"{workload}-seed{seed}-trace0"
    return json.loads((out / "result.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file to write, e.g. BENCH_9.json")
    parser.add_argument("--tier1-log", type=Path,
                        help="saved output of the Tier-1 pytest run")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json under {root}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    results = {w["name"]: [] for w in spec["workloads"]}
    for seed in SEEDS:
        for workload, runs in results.items():
            print(f"perfbench {workload} seed {seed}", file=sys.stderr)
            runs.append(run_workload(root, workload, seed, seconds))
    env = dict(next(iter(results.values()))[0]["env"])
    for key in ("loadavg_before", "loadavg_after"):
        env.pop(key, None)
    lines = src_lines(root)
    record = {"seconds": seconds, "src_lines": sum(lines.values()),
              "src_file_lines": lines, "env": env,
              "workloads": {w: summarise(r) for w, r in results.items()},
              "quick_configs_s": quick_config_times(
                  root, *reference_kernel(root))}
    if args.tier1_log:
        record["tier1"] = parse_tier1_log(args.tier1_log.read_text())
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, summary in record["workloads"].items():
        m = summary["metrics"]["throughput_per_s"]
        print(f"{workload:<12} throughput_per_s {m['median']:.6g} "
              f"[{m['q1']:.6g}, {m['q3']:.6g}], failed {summary['failed']}, "
              f"outputs changed {summary['outputs_changed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
