"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The heavy simulations live in session fixtures (see conftest) and
are shared with the statistics tests.
"""

import time

import numpy as np

import fastslow as fs
from fastslow import (NonDiffusiveModel, SchemeConfig,
                      hamiltonian_nondiffusive, quasipotential,
                      quasipotential_derivative, run_scheme)
from fastslow.cli import bundled_configs, main


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_clt_variance_scaling(clt_variance_sweep, timings,
                                           seed_sweep):
    gate = seed_sweep.GATES["criterion_01"]
    values = gate.measure(clt_variance_sweep)
    elapsed = timings["clt_sweep"]
    ok = gate.passes(values) and elapsed < 120
    _report(1, ok, f"{gate.describe(values)}, runtime {elapsed:.0f}s "
                   f"(cap 120s)")


def test_criterion_02_analytic_clt_oracle(linear_direct_samples, timings,
                                          seed_sweep):
    gate = seed_sweep.GATES["criterion_02"]
    values = gate.measure(linear_direct_samples)
    elapsed = timings["linear_direct"]
    ok = gate.passes(values) and elapsed < 60
    _report(2, ok, f"direct Var vs the analytic oracle: "
                   f"{gate.describe(values)}, runtime {elapsed:.0f}s "
                   f"(cap 60s)")


def test_criterion_03_metastable_bimodality(dw_histogram_samples, timings,
                                            seed_sweep):
    # saddle occupancies relative to the well population: PHMM near
    # direct, HMM at least 5 times PHMM, and PHMM bimodal
    gate = seed_sweep.GATES["criterion_03"]
    values = gate.measure(dw_histogram_samples)
    elapsed = timings["dw_histogram"]
    ok = gate.passes(values) and elapsed < 600
    _report(3, ok, f"{gate.describe(values)}, runtime {elapsed:.0f}s "
                   f"(cap 600s)")


def test_criterion_04_mfpt_collapse(dw_mfpt_points, timings, seed_sweep):
    gate = seed_sweep.GATES["criterion_04"]
    values = gate.measure(dw_mfpt_points)
    elapsed = timings["dw_mfpt"]
    ok = gate.passes(values) and elapsed < 1200
    _report(4, ok, f"HMM log-MFPT fit and PHMM spread: "
                   f"{gate.describe(values)}, runtime {elapsed:.0f}s "
                   f"(cap 1200s)")


def test_criterion_05_fpt_distribution_fidelity(dw_mfpt_points,
                                                dw_direct_fpt, seed_sweep):
    gate = seed_sweep.GATES["criterion_05"]
    values = gate.measure(dw_direct_fpt, dw_mfpt_points["phmm"][5],
                          dw_mfpt_points["hmm"][5])
    n = [(~censored).sum() for _, censored in
         (dw_direct_fpt, dw_mfpt_points["phmm"][5], dw_mfpt_points["hmm"][5])]
    _report(5, gate.passes(values),
            f"{gate.describe(values)}; n = {n[0]}/{n[1]}/{n[2]}")


def test_criterion_06_quasipotential_consistency():
    model = NonDiffusiveModel()
    start = time.perf_counter()
    grid = np.linspace(0.3, 3.0, 100)
    # V'(x) must be the nonzero end of {theta : H(x, theta) <= 0}: the
    # nonzero root of H while nu*x*gamma(x) <= sigma^2, and past that
    # branch point (x > 2.7291), where H < 0 up to the domain edge, the edge
    # gamma^2 / (2 sigma^2) itself
    s2 = model.sigma_f ** 2
    gammas = np.array([float(model.gamma(float(x))) for x in grid])
    past = model.nu * grid * gammas > s2
    slopes = np.array([quasipotential_derivative(model, float(x))
                       for x in grid])
    h_vals = np.array([hamiltonian_nondiffusive(model, float(x), float(v))
                       for x, v in zip(grid, slopes)])
    max_h = float(np.max(np.abs(h_vals[~past])))
    edge_ok = bool(np.all(slopes[past] == gammas[past] ** 2 / (2.0 * s2))
                   and np.all(h_vals[past] < 0))
    hj_ok = max_h < 1e-8 and edge_ok
    fps = fs.fixed_points(model)
    vp_residuals = [abs(quasipotential_derivative(model, x)) for x in fps]
    vp_ok = all(r < 1e-8 for r in vp_residuals)
    left, mid, right = fps
    barrier_ratio = quasipotential(model, mid, left) / \
        quasipotential(model, mid, right)
    ratio_ok = barrier_ratio > 5.0
    elapsed = time.perf_counter() - start
    ok = hj_ok and vp_ok and ratio_ok and elapsed < 1.0
    _report(6, ok,
            f"H(x, V') = 0 on {int((~past).sum())} points with "
            f"nu*x*gamma <= sigma^2, max |H| = {max_h:.3g} (need < 1e-8); "
            f"V' = gamma^2/(2 sigma^2) with H < 0 on the {int(past.sum())} "
            f"points past the branch point: {edge_ok} (no nonzero root "
            f"exists there, so only V' = 0 could give H = 0); "
            f"max |V'(x*)| = {max(vp_residuals):.2e} "
            f"(need < 1e-8); barrier ratio = {barrier_ratio:.1f} "
            f"(need > 5); runtime {elapsed:.2f}s (cap 1s)")


def test_criterion_07_fixed_points():
    left, mid, right = fs.fixed_points(NonDiffusiveModel())
    ok = (abs(left - 0.555) < 1e-2 and abs(right - 2.459) < 1e-2
          and 1.5 < mid < 2.0)
    _report(7, ok,
            f"stable roots {left:.4f} / {right:.4f} (need 0.555 / 2.459 "
            f"within 1e-2), unstable {mid:.4f} (need in (1.5, 2.0))")


def test_criterion_08_tau_leaping_fidelity(seed_sweep):
    gate = seed_sweep.GATES["criterion_08"]
    start = time.perf_counter()
    values = gate.run(31415)
    elapsed = time.perf_counter() - start
    ok = gate.passes(values) and elapsed < 120
    _report(8, ok, f"{gate.describe(values)}, runtime {elapsed:.0f}s "
                   f"(cap 120s)")


def test_criterion_09_worker_count_determinism(tmp_path, quick_bodies_w1,
                                              csv_bodies):
    quick = sorted(n for n in bundled_configs() if n.endswith("_quick"))
    mismatched = []
    for name in quick:
        b_dir = tmp_path / f"{name}_w8"
        assert main(["run", name, "--out", str(b_dir), "--workers", "8"]) == 0
        if quick_bodies_w1[name] != csv_bodies(b_dir):
            mismatched.append(name)
    ok = not mismatched and len(quick) == 8
    _report(9, ok,
            f"{len(quick)} quick configs run with workers 1 and 8; "
            + ("all CSV bodies byte-identical" if not mismatched
               else f"mismatches in {mismatched}"))


def test_criterion_10_lambda_one_degeneracy():
    cases = [
        (fs.LinearOUModel(), SchemeConfig(1e-2, 1, 0.08, 0.1, 52), 0.3),
        (fs.DoubleWellModel(), SchemeConfig(1e-3, 1, 0.05, 0.05, 52), -1.0),
        (NonDiffusiveModel(), SchemeConfig(0.05, 1, 0.1, 0.01, 52), 2.0),
    ]
    identical = []
    for model, cfg, x0 in cases:
        system = model.system()
        mean_val = system.scalar_ou.mean(np.array([x0]))
        y0 = float(np.asarray(mean_val).reshape(-1)[0])
        a = run_scheme(system, "hmm", [x0], [y0], cfg, T=20 * cfg.macro_dt)
        b = run_scheme(system, "phmm", [x0], [y0], cfg, T=20 * cfg.macro_dt)
        identical.append(bool(np.array_equal(a.states, b.states)
                              and np.array_equal(a.times, b.times)))
    ok = all(identical)
    _report(10, ok,
            "HMM and PHMM trajectories bitwise identical at lam = 1 for "
            f"linear_ou/double_well/non_diffusive: {identical}")
