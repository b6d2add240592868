"""Shared fixtures; the expensive simulations are session-scoped so the
statistics tests and the acceptance suite reuse one set of runs. Wall times
of the heavy fixtures are recorded for the acceptance runtime caps."""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

import fastslow as fs
from fastslow.cli import bundled_configs, main
from fastslow.ensemble import pooled_stationary_samples


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
def linear_model():
    return fs.LinearOUModel(theta=1.0, mu=0.5, sigma_f=5.0)


@pytest.fixture(scope="session")
def linear_direct_samples(linear_model, timings):
    """Direct-simulation stationary samples of the linear model.

    eps = 1e-2, micro step 0.1, total slow-time budget 1e3 over 4 chains,
    recorded every 0.08, burn-in 50 per chain.
    """
    cfg = fs.SchemeConfig(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1,
                          root_seed=424242)
    base = fs.RngStream(cfg.root_seed)
    start = time.perf_counter()
    samples = pooled_stationary_samples(linear_model.system(), "direct", cfg,
                                        0.0, None, 1000.0, 4, 50.0, base)
    timings["linear_direct"] = time.perf_counter() - start
    return samples


@pytest.fixture(scope="session")
def clt_variance_sweep(linear_model, timings):
    """Stationary variance of HMM and PHMM at lam in {1, 2, 4, 8}.

    T = 1e3 over 4 chains, burn-in 50, macro step ~0.08 snapped per lam.
    """
    base_cfg = fs.SchemeConfig(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1,
                               root_seed=424242)
    base = fs.RngStream(base_cfg.root_seed)
    model = linear_model.system()
    out = {}
    start = time.perf_counter()
    for scheme in ("hmm", "phmm"):
        for lam in (1, 2, 4, 8):
            cfg = fs.config_for_lambda(base_cfg, lam)
            samples = pooled_stationary_samples(model, scheme, cfg, 0.0, None,
                                                1000.0, 4, 50.0, base)
            out[(scheme, lam)] = float(np.var(samples, ddof=1))
    timings["clt_sweep"] = time.perf_counter() - start
    return out


DW_EPS, DW_MICRO_DT = 1e-3, 0.05


@pytest.fixture(scope="session")
def double_well_model():
    return fs.DoubleWellModel(theta=1.0, mu=1.0, sigma_f=15.0)


@pytest.fixture(scope="session")
def dw_basin():
    return fs.BasinSpec(-1.0, 1.0, "upcrossing")


@pytest.fixture(scope="session")
def dw_mfpt_points(double_well_model, dw_basin, timings):
    """Criterion-scale passage sweeps: 200 samples per (scheme, lam)."""
    cfg = fs.SchemeConfig(eps=DW_EPS, lam=1, macro_dt=0.06,
                          micro_dt=DW_MICRO_DT, root_seed=777)
    model = double_well_model.system()
    start = time.perf_counter()
    out = {
        scheme: fs.mean_first_passage_vs_lambda(model, scheme, cfg, dw_basin,
                                                [1, 2, 3, 5], 200, 2000.0)
        for scheme in ("hmm", "phmm")
    }
    timings["dw_mfpt"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def dw_direct_fpt(double_well_model, dw_basin, timings):
    """200 direct-simulation passage samples of the double-well model, as
    (elapsed, censored) arrays."""
    cfg = fs.SchemeConfig(eps=DW_EPS, lam=1, macro_dt=0.06,
                          micro_dt=DW_MICRO_DT, root_seed=777)
    start = time.perf_counter()
    out = fs.first_passage_times(double_well_model.system(), "direct", cfg,
                                 dw_basin, 200, 2000.0)
    timings["dw_direct_fpt"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def dw_histogram_samples(double_well_model, timings):
    """Pooled stationary samples for the bimodality comparison.

    T = 5e3 budget over 25 chains started evenly in both wells, burn-in 50,
    lam = 5 for the multiscale schemes.
    """
    model = double_well_model.system()
    base = fs.RngStream(1234)
    x0 = np.where(np.arange(25) % 2 == 0, -1.0, 1.0)
    out = {}
    start = time.perf_counter()
    for scheme, lam in (("direct", 1), ("hmm", 5), ("phmm", 5)):
        cfg = fs.SchemeConfig(eps=DW_EPS, lam=lam, macro_dt=0.05,
                              micro_dt=DW_MICRO_DT, root_seed=1234)
        out[scheme] = pooled_stationary_samples(model, scheme, cfg, x0, None,
                                                5000.0, 25, 50.0, base)
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
