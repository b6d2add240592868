"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

They take about two minutes: two short benchmark runs, and one untraced and
one traced pass of every workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import configs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = _run("--workload", "jump", "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    # the table for people above the JSON line: name, value, unit, samples
    rows = {line.split()[0]: line.split()
            for line in proc.stdout.strip().splitlines()[:-1]
            if line.startswith("  ")}
    for name, unit in expected.items():
        assert rows[name][2] == unit


def test_refuses_to_run_without_sources(tmp_path):
    proc = _run("--workload", "jump", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", configs.WORKLOADS)
def test_seed_reaches_the_generated_configs(workload, tmp_path):
    from fastslow.experiments import parse_config

    first, params = configs.generate(workload, 5)
    assert configs.generate(workload, 5) == (first, params)
    second, other = configs.generate(workload, 6)
    paths, _ = configs.write(workload, 5, tmp_path)
    seeds = {name: parse_config(path).seed for name, path in paths.items()}
    for name, text in first.items():
        assert f"seed = {seeds[name]}" in text
        assert second[name] != text
    if "root_seed" in params:
        assert other["root_seed"] != params["root_seed"]


@pytest.mark.parametrize("workload", configs.WORKLOADS)
def test_tracing_leaves_outputs_unchanged(workload, tmp_path):
    import tracing
    import workloads
    from fastslow import experiments, rng

    original = (experiments.run_experiment, rng.RngStream.generator)
    paths, params = configs.write(workload, 2, tmp_path / "configs")
    w = workloads.build(workload, paths, params)
    plain = workloads.run_pass(w, tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = workloads.run_pass(
            w, tmp_path / "traced",
            lambda n: tracing.TracedExecutor(n, tracer))
    assert plain.digests and traced.digests == plain.digests
    assert not tracer.missing
    assert len(tracer.spans) > 1
    assert (experiments.run_experiment, rng.RngStream.generator) == original
