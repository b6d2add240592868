"""Shared fixtures; the expensive simulations are session-scoped so the
statistics tests and the acceptance suite reuse one set of runs. Wall times
of the heavy fixtures are recorded for the acceptance runtime caps."""

import importlib.util
import time
from pathlib import Path

import pytest

import fastslow as fs
from fastslow.cli import bundled_configs, main


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def seed_sweep():
    """``bench/seed_sweep.py``: its ``GATES`` hold the computation and the
    thresholds of each statistical gate that the tests check on one seed."""
    spec = importlib.util.spec_from_file_location(
        "seed_sweep", Path(__file__).resolve().parents[1] / "bench"
        / "seed_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def linear_direct_samples(seed_sweep, timings):
    """``seed_sweep.linear_direct_samples`` at seed 424242."""
    start = time.perf_counter()
    samples = seed_sweep.linear_direct_samples(424242)
    timings["linear_direct"] = time.perf_counter() - start
    return samples


@pytest.fixture(scope="session")
def clt_variance_sweep(seed_sweep, timings):
    """``seed_sweep.clt_variances`` at seed 424242."""
    start = time.perf_counter()
    out = seed_sweep.clt_variances(424242)
    timings["clt_sweep"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def double_well_model():
    return fs.DoubleWellModel(theta=1.0, mu=1.0, sigma_f=15.0)


@pytest.fixture(scope="session")
def dw_basin(seed_sweep):
    return seed_sweep.DW_BASIN


@pytest.fixture(scope="session")
def dw_mfpt_points(seed_sweep, timings):
    """Criterion-scale passage sweeps, ``seed_sweep.dw_passages`` at seed
    777 as {scheme: {lam: (elapsed, censored)}}."""
    start = time.perf_counter()
    out = seed_sweep.dw_mfpt_points(777)
    timings["dw_mfpt"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def dw_direct_fpt(seed_sweep, timings):
    """The direct passages of ``seed_sweep.dw_passages`` at seed 777."""
    start = time.perf_counter()
    out = seed_sweep.dw_passages("direct", 1, 777)
    timings["dw_direct_fpt"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def dw_histogram_samples(seed_sweep, timings):
    """``seed_sweep.dw_histogram_samples`` at seed 1234."""
    start = time.perf_counter()
    out = seed_sweep.dw_histogram_samples(1234)
    timings["dw_histogram"] = time.perf_counter() - start
    return out


def _csv_bodies(out_dir):
    """CSV file name -> its lines without the varying ``# created:`` line."""
    return {csv.name: [l for l in csv.read_text().splitlines()
                       if not l.startswith("# created:")]
            for csv in sorted(Path(out_dir).glob("*.csv"))}


@pytest.fixture(scope="session")
def csv_bodies():
    return _csv_bodies


@pytest.fixture(scope="session")
def quick_bodies_w1(tmp_path_factory):
    """CSV bodies of every bundled quick config, run with ``--workers 1``.

    Shared by the golden test and the worker-count criterion, so the quick
    configs run serially only once per session.
    """
    root = tmp_path_factory.mktemp("quick_w1")
    out = {}
    for name in sorted(n for n in bundled_configs() if n.endswith("_quick")):
        assert main(["run", name, "--out", str(root / name),
                     "--workers", "1"]) == 0
        out[name] = _csv_bodies(root / name)
    return out
