"""Benchmark entry point: run one workload of fastslow and print its metrics.

    python3 perfbench/run.py --workload stationary --seed 1 --seconds 20 \\
        --trace 0

Run it from the root of a fastslow checkout; it imports the package from
``src/`` and writes only under ``.perfbench_out/``. Workloads: stationary,
passage, jump, single_path (see ``perfbench/README.md``).

With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
fresh processes that import ``fastslow.cli``, parse the generated configs and
build the models), median pass wall time, median throughput and the peak RSS
of the process that ran the passes. Set-up and serial passes are rescaled to
a reference machine speed measured next to them (``worker.reference_kernel``).
With ``--trace 1`` it prints the per-layer metrics of a traced run instead.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import configs  # noqa: E402

SETUP_RUNS = 3
DEADLINE_S = 170.0           # the whole run, set-up processes included

THROUGHPUT = {               # workload -> (per-workload name, unit of work)
    "stationary": ("samples_per_s", "pooled post-burn-in slow samples"),
    "passage": ("passages_per_s", "passage samples, censored included"),
    "jump": ("runs_per_s", "SSA runs plus tau-leap runs"),
    "single_path": ("slow_time_per_s", "simulated slow time over the paths"),
}


def unit_of(name: str) -> str:
    """The unit of a metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if "ns_per" in name:
        return "ns"
    if "us_per" in name:
        return "us"
    if name.endswith(("occupancy", "utilization")):
        return "ratio"
    if any(part.endswith("_s") for part in name.split(".")):
        return "s"
    return "count"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(root: Path) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src" / "fastslow").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "src_lines": src_lines}


def loadavg() -> list:
    return _read("/proc/loadavg").split()[:3]


def _child(args, timeout):
    """Run a worker process to completion; its last output line is JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=configs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fastslow" / "__init__.py").is_file():
        print(f"no fastslow sources under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    out = root / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    configs.write(args.workload, args.seed, out / "configs")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", str(out)]

    load_before = loadavg()
    try:
        setups, setup_walls = [], []
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            setups.append(_child(["setup", *common], DEADLINE_S))
            setup_walls.append(time.perf_counter() - t0)
        left = DEADLINE_S - (time.monotonic() - start)
        run = _child(["run", *common, "--seconds", str(args.seconds),
                      "--trace", str(args.trace)], left)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    load_after = loadavg()

    if args.trace:
        metrics = dict(run["layer"])
        metrics["cli.import_s"] = statistics.median(s["import_s"]
                                                    for s in setups)
        metrics["experiments.parse_s"] = statistics.median(s["parse_s"]
                                                           for s in setups)
        metrics["outputs_changed"] = run["outputs_changed"]
        per_setup = ("cli.import_s", "experiments.parse_s")
        counts = {k: SETUP_RUNS if k in per_setup
                  else run["probe_repeats"] if k.startswith("probe.")
                  else len(run["traced_walls"]) for k in metrics}
    else:
        scales = [s["speed_scale"] for s in setups]
        metrics = {"setup_s": statistics.median(
                       t * k for t, k in zip(setup_walls, scales)),
                   "wall_s": run["wall_s"],
                   "throughput_per_s": run["throughput"],
                   "peak_rss_mb": run["peak_rss_mb"]}
        counts = {"setup_s": SETUP_RUNS, "wall_s": len(run["walls"]),
                  "throughput_per_s": len(run["walls"]), "peak_rss_mb": 1}
    correct = (run["failed"] == 0 and all(c["ok"] for c in run["checks"])
               and not run["digest_mismatches"] and not run["errors"])
    env = environment(root)
    env.update(loadavg_before=load_before, loadavg_after=load_after)

    name, what = THROUGHPUT[args.workload]
    print(f"fastslow benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"  throughput_per_s is {name}: {what} per second")
    print(f"  {'metric':<48} {'value':>14} {'unit':<6} n")
    for key in sorted(metrics):
        print(f"  {key:<48} {metrics[key]:>14.6g} {unit_of(key):<6} "
              f"{counts.get(key, 1)}")
    print(f"  unscaled: median pass {run['raw_wall_s']:.4g} s, set-up "
          f"{statistics.median(setup_walls):.4g} s; reference kernel "
          f"{run['kernel_s']:.4g} s")
    ratio = run["failed"] / run["attempted"]
    print(f"  fail_ratio {run['failed']}/{run['attempted']} = {ratio:.4g}")
    for c in run["checks"]:
        print(f"  check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: "
              f"{c['detail']}")
    for err in run["errors"]:
        print(f"  error: {err}")
    if run["digest_mismatches"]:
        print(f"  outputs differ from the checked pass in "
              f"{run['digest_mismatches']} passes")
    print(f"  outputs changed from the reference: {run['outputs_changed']} "
          f"of {run['outputs_compared']} compared")
    print(f"  env: {json.dumps(env)}")
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in sorted(metrics.items())}}
    (out / "result.json").write_text(json.dumps(
        {**result, "env": env, "run": run,
         "setup_walls": setup_walls}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
