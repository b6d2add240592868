"""Re-run statistical test gates over many seeds and report their margins.

    PYTHONPATH=src python3 bench/seed_sweep.py

A statistical gate in the test suite is checked on one frozen seed. This
script re-runs the computation behind each gate in ``GATES`` with root
seeds 1..20 in place of that seed, and prints for every gate its pass rate
and, for each threshold, the pass rate and the smallest margin (threshold
minus value; negative where the gate failed) with the seed that gave it.
The tests assert each gate through its entry here, at their frozen seed,
so a gate's computation and thresholds live only in this table. It is
opt-in and not part of Tier-1. Point ``PYTHONPATH`` at another checkout's
``src`` to sweep that code.

Every statistical acceptance gate is in the table, so a change that
re-draws the streams a gate checks can compare its pass rate with the
parent's. The shared fixtures of the tests build their samples with the
samplers here at their frozen seeds, so a gate and its fixture share their
sizes.
"""

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fastslow as fs
from fastslow.ensemble import pooled_stationary_samples


@dataclass(frozen=True)
class Limit:
    """One threshold of a gate: ``value < bound``, or ``<=`` if not strict;
    ``value > bound`` (or ``>=``) if ``above``."""

    quantity: str
    bound: float
    strict: bool = True
    above: bool = False

    def margin(self, value: float) -> float:
        """How far ``value`` lies inside the bound (negative outside)."""
        return value - self.bound if self.above else self.bound - value

    def passes(self, value: float) -> bool:
        lo, hi = (self.bound, value) if self.above else (value, self.bound)
        return lo < hi if self.strict else lo <= hi

    @property
    def op(self) -> str:
        return (">" if self.above else "<") + ("" if self.strict else "=")


@dataclass(frozen=True)
class Gate:
    """A test assertion re-run per seed: ``run(seed)`` returns the value of
    every quantity that ``limits`` bounds."""

    name: str
    test: str
    limits: tuple
    run: Callable[[int], dict]
    measure: Callable | None = None  # values from the samples of a fixture

    def passes(self, values: dict) -> bool:
        return all(lim.passes(values[lim.quantity]) for lim in self.limits)

    def describe(self, values: dict) -> str:
        return ", ".join(f"{lim.quantity} = {values[lim.quantity]:.4f} "
                         f"(need {lim.op} {lim.bound:.4g})"
                         for lim in self.limits)


_SEEDS = 20
_RUNS = 10 ** 4


def _criterion_08(seed: int) -> dict:
    model = fs.birth_death(1.0, 1.0, eps=1e-2)
    base = fs.RngStream(seed)
    ids = np.arange(_RUNS)
    # relaxation time of the mean is 1/death = 1, so tau = 0.05 relaxation
    # times; T = 10 relaxation times from the stationary mean
    ssa = fs.ssa_final_states(model, [1.0], 10.0, ids, base)[:, 0]
    tau = fs.tau_leap_final_states(model, [1.0], 10.0, 0.05, ids, base)[:, 0]
    return {"mean_dev": abs(tau.mean() / ssa.mean() - 1.0),
            "var_dev": abs(tau.var(ddof=1) / ssa.var(ddof=1) - 1.0),
            "ks": fs.ks_distance(ssa, tau)}


def _ks_decreases_with_tau(seed: int) -> dict:
    model = fs.birth_death(1.0, 1.0, 0.01)
    base = fs.RngStream(seed)
    ids = np.arange(_RUNS)
    ssa = fs.ssa_final_states(model, [1.0], 10.0, ids, base.child(0))[:, 0]
    ks = {}
    for j, tau in enumerate((0.2, 0.1, 0.05)):
        tl = fs.tau_leap_final_states(model, [1.0], 10.0, tau, ids,
                                      base.child(j + 1))[:, 0]
        ks[tau] = fs.ks_distance(ssa, tl)
    return {"ks(0.1) - ks(0.2)": ks[0.1] - ks[0.2],
            "ks(0.05) - ks(0.1)": ks[0.05] - ks[0.1]}


_KS_NOISE = 2 * math.sqrt(2.0 / _RUNS)

_LINEAR = fs.LinearOUModel(theta=1.0, mu=0.5, sigma_f=5.0)
_DOUBLE_WELL = fs.DoubleWellModel(theta=1.0, mu=1.0, sigma_f=15.0)
DW_BASIN = fs.BasinSpec(-1.0, 1.0, "upcrossing")
DW_EPS, DW_MICRO_DT = 1e-3, 0.05


_CLT_LAMS = (1, 2, 4, 8)


def clt_variances(seed: int) -> dict:
    """Stationary variance of HMM and PHMM at lam in {1, 2, 4, 8} on the
    linear model, as {(scheme, lam): variance}.

    T = 1e3 over 4 chains, burn-in 50, macro step ~0.08 snapped per lam.
    """
    base_cfg = fs.SchemeConfig(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1,
                               root_seed=seed)
    model = _LINEAR.system()
    out = {}
    for scheme in ("hmm", "phmm"):
        for lam in _CLT_LAMS:
            samples = pooled_stationary_samples(
                model, scheme, fs.config_for_lambda(base_cfg, lam), 0.0,
                None, 1000.0, 4, 50.0, fs.RngStream(seed))
            out[(scheme, lam)] = float(np.var(samples, ddof=1))
    return out


def _criterion_01(variances) -> dict:
    # HMM inflates the variance by lam, so Var(lam) / Var(1) rises with
    # slope 1; PHMM keeps it flat
    hmm = np.array([variances[("hmm", lam)] for lam in _CLT_LAMS])
    phmm = np.array([variances[("phmm", lam)] for lam in _CLT_LAMS])
    slope = float(np.polyfit(np.array(_CLT_LAMS, dtype=float), hmm, 1)[0])
    return {"hmm slope / Var(1)": slope / hmm[0],
            "phmm max dev": float(np.max(np.abs(phmm / phmm[0] - 1.0)))}


def linear_direct_samples(seed: int) -> np.ndarray:
    """Direct-simulation stationary samples of the linear model.

    eps = 1e-2, micro step 0.1, total slow-time budget 1e3 over 4 chains,
    recorded every 0.08, burn-in 50 per chain.
    """
    cfg = fs.SchemeConfig(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1,
                          root_seed=seed)
    return pooled_stationary_samples(_LINEAR.system(), "direct", cfg, 0.0,
                                     None, 1000.0, 4, 50.0, fs.RngStream(seed))


def _criterion_02(samples) -> dict:
    # the closed form was verified against the exact stationary Lyapunov
    # solution of the full linear system and an independent long run
    predicted = fs.clt_stationary_variance_linear(_LINEAR, 1e-2)
    return {"rel_dev": abs(float(np.var(samples, ddof=1)) / predicted - 1.0)}


def dw_histogram_samples(seed: int) -> dict:
    """Pooled stationary samples of the double well by scheme, for the
    bimodality comparison.

    T = 5e3 budget over 25 chains started evenly in both wells, burn-in 50,
    lam = 5 for the multiscale schemes.
    """
    model = _DOUBLE_WELL.system()
    x0 = np.where(np.arange(25) % 2 == 0, -1.0, 1.0)
    out = {}
    for scheme, lam in (("direct", 1), ("hmm", 5), ("phmm", 5)):
        cfg = fs.SchemeConfig(eps=DW_EPS, lam=lam, macro_dt=0.05,
                              micro_dt=DW_MICRO_DT, root_seed=seed)
        out[scheme] = pooled_stationary_samples(
            model, scheme, cfg, x0, None, 5000.0, 25, 50.0,
            fs.RngStream(seed))
    return out


def _criterion_03(samples) -> dict:
    # saddle occupancy relative to the well population, as in the
    # barrier-overpopulation comparison
    def saddle_vs_wells(x):
        return fs.occupancy_fraction(x, 0.0, 0.25) / (
            fs.occupancy_fraction(x, -1.0, 0.25)
            + fs.occupancy_fraction(x, 1.0, 0.25))

    phmm = samples["phmm"]
    saddle = fs.occupancy_fraction(phmm, 0.0, 0.25)
    rel = {scheme: saddle_vs_wells(x) for scheme, x in samples.items()}
    return {"phmm left well - 3 saddle":
            fs.occupancy_fraction(phmm, -1.0, 0.25) - 3 * saddle,
            "phmm right well - 3 saddle":
            fs.occupancy_fraction(phmm, 1.0, 0.25) - 3 * saddle,
            "phmm/direct": rel["phmm"] / rel["direct"],
            "hmm/phmm": rel["hmm"] / rel["phmm"]}


def dw_passages(scheme: str, lam: int, seed: int):
    """200 passage samples of the double well from -1 up to 1, capped at
    2000, as (elapsed, censored); macro step ~0.06 snapped per lam."""
    cfg = fs.config_for_lambda(
        fs.SchemeConfig(eps=DW_EPS, lam=1, macro_dt=0.06,
                        micro_dt=DW_MICRO_DT, root_seed=seed), lam)
    return fs.first_passage_times(_DOUBLE_WELL.system(), scheme, cfg,
                                  DW_BASIN, 200, 2000.0)


def dw_mfpt_points(seed: int) -> dict:
    """``dw_passages`` of hmm and phmm at lam 1, 2, 3 and 5, as
    {scheme: {lam: (elapsed, censored)}}."""
    return {scheme: {lam: dw_passages(scheme, lam, seed)
                     for lam in (1, 2, 3, 5)}
            for scheme in ("hmm", "phmm")}


def _criterion_04(points) -> dict:
    # the HMM's log-MFPT falls linearly in 1/lam; PHMM's MFPT stays flat
    def mfpts(scheme):
        return [fs.summarize_fpt(*passages).mfpt
                for passages in points[scheme].values()]

    _, b, r2 = fs.fit_log_mfpt_inverse_lambda(list(points["hmm"]),
                                              mfpts("hmm"))
    phmm = mfpts("phmm")
    return {"b": b, "R^2": r2, "phmm max/min": max(phmm) / min(phmm)}


def _criterion_05(direct, phmm5, hmm5) -> dict:
    """KS distances of the uncensored direct passage times to those of
    phmm and hmm at lam 5; each argument is an (elapsed, censored) pair."""
    def uncensored(passages):
        elapsed, censored = passages
        return elapsed[~censored]

    times = uncensored(direct)
    return {"ks(direct, phmm5)": fs.ks_distance(times, uncensored(phmm5)),
            "ks(direct, hmm5)": fs.ks_distance(times, uncensored(hmm5))}


GATES = {gate.name: gate for gate in (
    Gate("criterion_08",
         "tests/test_acceptance.py::test_criterion_08_tau_leaping_fidelity",
         (Limit("mean_dev", 0.05), Limit("var_dev", 0.10), Limit("ks", 0.05)),
         _criterion_08),
    Gate("ks_decreases_with_tau",
         "tests/test_jump.py::TestTauLeap::test_ks_decreases_with_tau",
         (Limit("ks(0.1) - ks(0.2)", _KS_NOISE, strict=False),
          Limit("ks(0.05) - ks(0.1)", _KS_NOISE, strict=False)),
         _ks_decreases_with_tau),
    Gate("criterion_01",
         "tests/test_acceptance.py::test_criterion_01_clt_variance_scaling",
         (Limit("hmm slope / Var(1)", 0.8, strict=False, above=True),
          Limit("hmm slope / Var(1)", 1.2, strict=False),
          Limit("phmm max dev", 0.2)),
         lambda seed: _criterion_01(clt_variances(seed)),
         _criterion_01),
    Gate("criterion_02",
         "tests/test_acceptance.py::test_criterion_02_analytic_clt_oracle",
         (Limit("rel_dev", 0.2),),
         lambda seed: _criterion_02(linear_direct_samples(seed)),
         _criterion_02),
    Gate("criterion_03",
         "tests/test_acceptance.py::test_criterion_03_metastable_bimodality",
         (Limit("phmm left well - 3 saddle", 0.0, above=True),
          Limit("phmm right well - 3 saddle", 0.0, above=True),
          Limit("phmm/direct", 0.5, strict=False, above=True),
          Limit("phmm/direct", 2.0, strict=False),
          Limit("hmm/phmm", 5.0, strict=False, above=True)),
         lambda seed: _criterion_03(dw_histogram_samples(seed)),
         _criterion_03),
    Gate("criterion_04",
         "tests/test_acceptance.py::test_criterion_04_mfpt_collapse",
         (Limit("b", 0.0, above=True), Limit("R^2", 0.9, above=True),
          Limit("phmm max/min", 2.0)),
         lambda seed: _criterion_04(dw_mfpt_points(seed)),
         _criterion_04),
    Gate("criterion_05",
         "tests/test_acceptance.py::"
         "test_criterion_05_fpt_distribution_fidelity",
         (Limit("ks(direct, phmm5)", 0.15),
          Limit("ks(direct, hmm5)", 0.5, above=True)),
         lambda seed: _criterion_05(dw_passages("direct", 1, seed),
                                    dw_passages("phmm", 5, seed),
                                    dw_passages("hmm", 5, seed)),
         _criterion_05),
)}


def summarise(gate: Gate, values: dict) -> dict:
    """Pass rates and smallest margins of one gate from its values by seed
    (``{seed: {quantity: value}}``)."""
    seeds = sorted(values)
    limits = []
    for limit in gate.limits:
        margins = {s: limit.margin(values[s][limit.quantity]) for s in seeds}
        worst = min(seeds, key=margins.get)
        limits.append({
            "quantity": limit.quantity,
            "bound": limit.bound, "op": limit.op,
            "passed": sum(limit.passes(values[s][limit.quantity])
                          for s in seeds),
            "min_margin": margins[worst], "worst_seed": worst})
    passed = sum(gate.passes(values[s]) for s in seeds)
    return {"gate": gate.name, "test": gate.test, "seeds": len(seeds),
            "passed": passed, "limits": limits}


def format_summary(summary: dict) -> str:
    lines = [f"{summary['gate']} ({summary['test']}): passed "
             f"{summary['passed']}/{summary['seeds']} seeds"]
    for lim in summary["limits"]:
        lines.append(f"  {lim['quantity']} {lim['op']} {lim['bound']:.4g}: "
                     f"{lim['passed']}/{summary['seeds']}, smallest margin "
                     f"{lim['min_margin']:.4g} (seed {lim['worst_seed']})")
    return "\n".join(lines)


def main() -> int:
    for gate in GATES.values():
        start = time.perf_counter()
        values = {}
        for seed in range(1, _SEEDS + 1):
            values[seed] = gate.run(seed)
            print(f"{gate.name} seed {seed}: {values[seed]}",
                  file=sys.stderr)
        print(format_summary(summarise(gate, values)))
        print(f"  ({time.perf_counter() - start:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
