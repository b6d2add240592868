import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_run", Path(__file__).resolve().parents[1] / "bench" / "run.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _fake_result(tmp_path, seed, throughput, rss, failed=0, changed=0):
    """A ``result.json`` as perfbench/run.py writes it, cut to the fields
    the summary reads, written to disk and read back."""
    result = {"correct": failed == 0 and changed == 0, "attempted": 16,
              "failed": failed,
              "metrics": {"throughput_per_s": {"value": throughput,
                                               "unit": "1/s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}},
              "env": {"nproc": 2},
              "run": {"seed": seed, "outputs_changed": changed}}
    path = tmp_path / f"result{seed}.json"
    path.write_text(json.dumps(result))
    return json.loads(path.read_text())


def test_summary_gives_median_and_quartiles_of_every_metric(tmp_path):
    results = [_fake_result(tmp_path, seed, tp, rss) for seed, tp, rss in
               [(1, 10.0, 150.0), (2, 30.0, 140.0), (3, 20.0, 145.0),
                (4, 50.0, 141.0), (5, 40.0, 142.0)]]
    summary = bench.summarise(results)
    assert summary["runs"] == 5 and summary["seeds"] == [1, 2, 3, 4, 5]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == 80
    tp = summary["metrics"]["throughput_per_s"]
    assert (tp["q1"], tp["median"], tp["q3"]) == (20.0, 30.0, 40.0)
    assert tp["unit"] == "1/s" and tp["values"] == [10.0, 30.0, 20.0,
                                                    50.0, 40.0]
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["q1"], rss["median"], rss["q3"]) == (141.0, 142.0, 145.0)


def test_summary_carries_failures_and_changed_outputs(tmp_path):
    results = [_fake_result(tmp_path, 1, 10.0, 1.0),
               _fake_result(tmp_path, 2, 12.0, 1.0, failed=2, changed=1)]
    summary = bench.summarise(results)
    assert not summary["correct"]
    assert summary["failed"] == 2 and summary["outputs_changed"] == 1
    assert summary["metrics"]["throughput_per_s"]["median"] == 11.0
    one = bench.summarise(results[:1])["metrics"]["peak_rss_mb"]
    assert one["q1"] == one["median"] == one["q3"] == 1.0


@pytest.mark.parametrize("summary_line", [
    "3 passed, 1 failed, 2 warnings in 12.50s (0:00:12)",
    "===== 3 passed, 1 failed, 2 warnings in 12.50s (0:00:12) =====",
])
def test_tier1_log_is_parsed(summary_line):
    log = "\n".join([
        "........F...",
        "============================= slowest 15 durations "
        "=============================",
        "5.25s call     tests/test_jump.py::TestTauLeap::test_ks",
        "0.50s setup    tests/test_acceptance.py::test_criterion_08",
        "",
        summary_line])
    parsed = bench.parse_tier1_log(log)
    assert parsed["seconds"] == 12.5
    assert parsed["counts"] == {"passed": 3, "failed": 1, "warnings": 2}
    assert parsed["durations"] == [
        {"seconds": 5.25, "when": "call",
         "test": "tests/test_jump.py::TestTauLeap::test_ks"},
        {"seconds": 0.5, "when": "setup",
         "test": "tests/test_acceptance.py::test_criterion_08"}]


def test_quick_config_times_are_rescaled_by_the_kernels_around_them(
        tmp_path, monkeypatch):
    configs = tmp_path / "src" / "fastslow" / "configs"
    configs.mkdir(parents=True)
    (configs / "a_quick.cfg").write_text("")
    (configs / "a.cfg").write_text("")  # not a quick config
    clock, walls, ran = [0.0], iter([1.0, 2.0, 4.0]), []

    def run(cmd, **kwargs):
        ran.append(cmd[cmd.index("run") + 1])
        clock[0] += next(walls)

    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
    kernels = iter([0.1, 0.3, 0.2, 0.6])
    out = bench.quick_config_times(tmp_path, lambda: next(kernels), 0.2)
    assert ran == ["a_quick"] * 3 and list(out) == ["a_quick"]
    times = out["a_quick"]
    assert times["values"] == [1.0, 2.0, 4.0] and times["median"] == 2.0
    assert times["kernels"] == [0.1, 0.3, 0.2, 0.6]
    # t * 2 K_REF / (k0 + k1), with the kernel times on either side of t
    assert times["scaled_values"] == pytest.approx([1.0, 1.6, 2.0])
    assert times["scaled_median"] == pytest.approx(1.6)


def test_sweep_summary_counts_passes_and_finds_the_smallest_margin(
        seed_sweep):
    sweep = seed_sweep
    gate = sweep.Gate("fake", "tests/test_x.py::test_fake",
                      (sweep.Limit("ks", 0.05),
                       sweep.Limit("drop", 0.02, strict=False),
                       sweep.Limit("ratio", 0.5, strict=False, above=True),
                       sweep.Limit("gap", 0.0, above=True)),
                      run=None)
    # seed 1: drop and ratio at their bounds pass; seed 2: ks and gap at
    # their bounds fail; seed 3: drop over and ratio under their bounds
    values = {1: {"ks": 0.01, "drop": 0.02, "ratio": 0.5, "gap": 0.1},
              2: {"ks": 0.05, "drop": -0.01, "ratio": 0.7, "gap": 0.0},
              3: {"ks": 0.03, "drop": 0.025, "ratio": 0.4, "gap": 0.2}}
    summary = sweep.summarise(gate, values)
    assert (summary["seeds"], summary["passed"]) == (3, 1)
    ks, drop, ratio, gap = summary["limits"]
    assert (ks["passed"], ks["worst_seed"]) == (2, 2)
    assert ks["min_margin"] == 0.0
    assert (drop["passed"], drop["worst_seed"]) == (2, 3)
    assert drop["min_margin"] == pytest.approx(-0.005)
    assert (ratio["passed"], ratio["worst_seed"]) == (2, 3)
    assert ratio["min_margin"] == pytest.approx(-0.1)
    assert (gap["passed"], gap["worst_seed"]) == (2, 2)
    assert gap["min_margin"] == 0.0
    text = sweep.format_summary(summary)
    assert "passed 1/3 seeds" in text
    assert "ks < 0.05: 2/3, smallest margin 0 (seed 2)" in text
    assert "drop <= 0.02: 2/3, smallest margin -0.005 (seed 3)" in text
    assert "ratio >= 0.5: 2/3, smallest margin -0.1 (seed 3)" in text
    assert "gap > 0: 2/3, smallest margin 0 (seed 2)" in text


def test_sweep_gates_name_their_tests(seed_sweep):
    # each named test exists and checks its gate through the table
    for name, gate in seed_sweep.GATES.items():
        path, _, test = gate.test.partition("::")
        source = (Path(__file__).resolve().parents[1] / path).read_text()
        assert f"def {test.split('::')[-1]}(" in source
        assert f'GATES["{name}"]' in source
