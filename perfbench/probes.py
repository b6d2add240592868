"""Kernel probes: public fastslow calls on seeded inputs, timed untraced.

Each probe reports a cost per unit of work together with the work count it
was divided by. The count is computed from the inputs (streams built, chain
steps, run-windows) or, for the SSA event loop, counted by the probe's own
propensity function.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import fastslow as fs
from fastslow import ensemble

from workloads import monomolecular_network

REPEATS = 3
DIRECT_WIDTHS = {1: 4000, 16: 4000, 64: 4000, 1024: 1000}   # width -> steps


def _median_time(fn):
    """Median wall time of ``REPEATS`` calls; ``fn(rep)`` runs one repeat."""
    times = []
    for rep in range(REPEATS):
        start = time.perf_counter()
        fn(rep)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def rng_probe(seed, n_streams=2000):
    base = fs.RngStream(seed)

    def run(rep):
        for i in range(n_streams):
            base.child(rep, i).normals(200)

    return _median_time(run) / n_streams * 1e6, n_streams


def direct_probe(seed, width, steps):
    model = fs.LinearOUModel(theta=1.0, mu=0.5, sigma_f=5.0).system()
    cfg = fs.SchemeConfig(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1,
                          root_seed=seed)
    h = cfg.eps * cfg.micro_dt
    base = fs.RngStream(seed)

    def run(rep):
        ids = np.arange(width) + rep * width
        ensemble.direct_samples(model, cfg, 0.0, None, steps * h, ids, base,
                                record_dt=steps * h)

    chain_steps = width * steps
    return _median_time(run) / chain_steps * 1e9, chain_steps


def tau_probe(seed, runs=256, t_end=1.0, tau=0.05):
    model = fs.birth_death(1.0, 1.0, eps=0.01)
    base = fs.RngStream(seed)

    def run(rep):
        ids = np.arange(runs) + rep * runs
        fs.tau_leap_final_states(model, [1.0], t_end, tau, ids, base)

    run_windows = runs * int(np.ceil(t_end / tau))
    return _median_time(run) / run_windows * 1e6, run_windows


def ssa_probe(seed, runs=256, t_end=0.5):
    inflow, outflow = [0.6, 0.4, 0.5, 0.5], [1.0, 0.8, 1.2, 1.0]
    model = monomolecular_network(inflow, outflow, 0.5, 0.02)
    events = []
    first = model.reactions[0]

    def counting(x):
        events.append(int(np.prod(np.shape(x)[:-1])))
        return first.propensity(x)

    counted = fs.JumpModel(model.dim,
                           (fs.Reaction(counting, first.stoichiometry),)
                           + model.reactions[1:], model.eps, vectorized=True)
    base = fs.RngStream(seed)
    x0 = np.full(model.dim, 0.5)

    def run(rep):
        events.clear()
        fs.ssa_final_states(counted, x0, t_end, np.arange(runs), base)

    seconds = _median_time(run)
    n_events = sum(events)
    return seconds / n_events * 1e9, n_events


def run_probes(seed) -> dict:
    m = {}
    m["probe.rng.us_per_stream200"], m["probe.rng.streams"] = rng_probe(seed)
    for width, steps in DIRECT_WIDTHS.items():
        cost, count = direct_probe(seed, width, steps)
        m[f"probe.ensemble.direct_ns_per_chain_step.B{width}"] = cost
        m[f"probe.ensemble.chain_steps.B{width}"] = count
    m["probe.jump.us_per_tau_run_window"], m["probe.jump.tau_run_windows"] = \
        tau_probe(seed)
    m["probe.jump.ns_per_ssa_event"], m["probe.jump.ssa_events"] = \
        ssa_probe(seed)
    return m
