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

A gate enters the table in the change that re-draws the streams it
checks, so the pass rate can be compared with the parent's.
"""

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fastslow as fs


@dataclass(frozen=True)
class Limit:
    """One threshold of a gate: ``value < bound``, or ``<=`` if not strict."""

    quantity: str
    bound: float
    strict: bool = True

    def passes(self, value: float) -> bool:
        return value < self.bound if self.strict else value <= self.bound

    @property
    def op(self) -> str:
        return "<" if self.strict else "<="


@dataclass(frozen=True)
class Gate:
    """A test assertion re-run per seed: ``run(seed)`` returns the value of
    every quantity that ``limits`` bounds."""

    name: str
    test: str
    limits: tuple
    run: Callable[[int], dict]

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
)}


def summarise(gate: Gate, values: dict) -> dict:
    """Pass rates and smallest margins of one gate from its values by seed
    (``{seed: {quantity: value}}``)."""
    seeds = sorted(values)
    limits = []
    for limit in gate.limits:
        margins = {s: limit.bound - values[s][limit.quantity] for s in seeds}
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
