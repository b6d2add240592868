"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The heavy simulations live in session fixtures (see conftest) and
are shared with the statistics tests.
"""

import time

import numpy as np

import fastslow as fs
from fastslow import (NonDiffusiveModel, SchemeConfig,
                      fit_log_mfpt_inverse_lambda, hamiltonian_nondiffusive,
                      ks_distance, occupancy_fraction,
                      quasipotential, quasipotential_derivative, run_scheme,
                      summarize_fpt)
from fastslow.cli import bundled_configs, main


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_clt_variance_scaling(clt_variance_sweep, timings):
    lams = np.array([1, 2, 4, 8], dtype=float)
    hmm = np.array([clt_variance_sweep[("hmm", int(l))] for l in lams])
    phmm = np.array([clt_variance_sweep[("phmm", int(l))] for l in lams])
    slope = float(np.polyfit(lams, hmm, 1)[0])
    slope_ratio = slope / hmm[0]
    phmm_dev = float(np.max(np.abs(phmm / phmm[0] - 1.0)))
    elapsed = timings["clt_sweep"]
    ok = 0.8 <= slope_ratio <= 1.2 and phmm_dev < 0.2 and elapsed < 120
    _report(1, ok,
            f"HMM slope/Var(1) = {slope_ratio:.3f} (need [0.8, 1.2]), "
            f"PHMM max dev = {phmm_dev:.3f} (need < 0.2), "
            f"runtime {elapsed:.0f}s (cap 120s)")


def test_criterion_02_analytic_clt_oracle(linear_direct_samples, timings):
    # the closed form was verified against the exact stationary Lyapunov
    # solution of the full linear system and an independent long run
    predicted = fs.clt_stationary_variance_linear(
        fs.LinearOUModel(theta=1.0, mu=0.5, sigma_f=5.0), 1e-2)
    var = float(np.var(linear_direct_samples, ddof=1))
    rel = abs(var / predicted - 1.0)
    elapsed = timings["linear_direct"]
    ok = rel < 0.2 and elapsed < 60
    _report(2, ok,
            f"direct Var = {var:.4f} vs oracle {predicted:.4f} "
            f"(rel dev {rel:.3f}, need < 0.2), runtime {elapsed:.0f}s "
            f"(cap 60s)")


def test_criterion_03_metastable_bimodality(dw_histogram_samples, timings):
    def occupancies(samples):
        saddle = occupancy_fraction(samples, 0.0, 0.25)
        wells = (occupancy_fraction(samples, -1.0, 0.25)
                 + occupancy_fraction(samples, 1.0, 0.25))
        return saddle, wells

    s_direct, w_direct = occupancies(dw_histogram_samples["direct"])
    s_phmm, w_phmm = occupancies(dw_histogram_samples["phmm"])
    s_hmm, w_hmm = occupancies(dw_histogram_samples["hmm"])
    # saddle occupancy relative to the well population, as in the
    # barrier-overpopulation comparison
    rel_direct = s_direct / w_direct
    rel_phmm = s_phmm / w_phmm
    rel_hmm = s_hmm / w_hmm
    phmm_vs_direct = rel_phmm / rel_direct
    hmm_vs_phmm = rel_hmm / rel_phmm
    bimodal = (occupancy_fraction(dw_histogram_samples["phmm"], -1.0, 0.25)
               > 3 * s_phmm) and \
              (occupancy_fraction(dw_histogram_samples["phmm"], 1.0, 0.25)
               > 3 * s_phmm)
    elapsed = timings["dw_histogram"]
    ok = bimodal and 0.5 <= phmm_vs_direct <= 2.0 and hmm_vs_phmm >= 5.0 \
        and elapsed < 600
    _report(3, ok,
            f"PHMM bimodal = {bimodal}, PHMM/direct saddle occupancy ratio "
            f"= {phmm_vs_direct:.2f} (need within [0.5, 2]), HMM/PHMM = "
            f"{hmm_vs_phmm:.1f} (need >= 5), runtime {elapsed:.0f}s "
            f"(cap 600s)")


def test_criterion_04_mfpt_collapse(dw_mfpt_points, timings):
    def mfpts(scheme):
        return [summarize_fpt(*passages).mfpt
                for passages in dw_mfpt_points[scheme].values()]

    _, b, r2 = fit_log_mfpt_inverse_lambda(list(dw_mfpt_points["hmm"]),
                                           mfpts("hmm"))
    phmm_mfpts = mfpts("phmm")
    ratio = max(phmm_mfpts) / min(phmm_mfpts)
    elapsed = timings["dw_mfpt"]
    ok = b > 0 and r2 > 0.9 and ratio < 2.0 and elapsed < 1200
    _report(4, ok,
            f"HMM log-MFPT fit: b = {b:.2f} (need > 0), R^2 = {r2:.3f} "
            f"(need > 0.9); PHMM max/min = {ratio:.2f} (need < 2); "
            f"runtime {elapsed:.0f}s (cap 1200s)")


def test_criterion_05_fpt_distribution_fidelity(dw_mfpt_points,
                                                dw_direct_fpt):
    def uncensored(scheme):
        elapsed, censored = dw_mfpt_points[scheme][5]
        return elapsed[~censored]

    elapsed, censored = dw_direct_fpt
    direct = elapsed[~censored]
    phmm5, hmm5 = uncensored("phmm"), uncensored("hmm")
    ks_phmm = ks_distance(direct, phmm5)
    ks_hmm = ks_distance(direct, hmm5)
    ok = ks_phmm < 0.15 and ks_hmm > 0.5
    _report(5, ok,
            f"KS(direct, PHMM lam=5) = {ks_phmm:.3f} (need < 0.15); "
            f"KS(direct, HMM lam=5) = {ks_hmm:.3f} (need > 0.5); "
            f"n = {direct.size}/{phmm5.size}/{hmm5.size}")


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
