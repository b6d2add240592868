"""Seeded inputs of the benchmark workloads (standard library only).

Every input a workload hands to ``fastslow`` comes from here: the INI
configs run through ``run_experiment`` and the parameters of the direct
library calls. The same ``(workload, seed)`` always gives the same inputs;
the seed reaches the program as the ``seed`` key of every config and as the
root seed of every direct call. Sizes are fixed, so a pass does the same
amount of scheduled work for every seed and only the random passage times
and jump counts vary.

This module must stay importable without numpy or fastslow: ``run.py``
writes the configs before any process imports the package.
"""

from __future__ import annotations

import random

WORKLOADS = ("stationary", "passage", "jump", "single_path")

# Worker threads of the executor handed to run_experiment; the passage
# workload mirrors the CLI default on a 2-CPU machine.
PASSAGE_WORKERS = 2


def _root_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2 ** 31) for _ in range(count)]


def _ini(sections: dict) -> str:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
        lines.append("")
    return "\n".join(lines)


def _stationary(seeds):
    clt = {
        "experiment": {"analysis": "variance_vs_lambda", "seed": seeds[0]},
        "model": {"name": "linear_ou", "theta": 1.0, "mu": 0.5, "sigma": 5.0},
        "scheme": {"eps": 1e-2, "micro_dt": 0.1, "macro_dt": 0.16,
                   "lambdas": "1, 2, 4, 8", "t": 200.0, "burn_in": 2.0},
        "analysis": {"schemes": "hmm, phmm", "n_replicas": 4, "x0": 0.0},
    }
    # eps * sigma^2 = 0.3 (0.225 in the bundled fig_ldp_hist): a larger eps
    # lets the direct chains cover more slow time per step, and the extra
    # noise buys more well-to-well transitions per sample.
    hist = {
        "experiment": {"analysis": "histogram", "seed": seeds[1]},
        "model": {"name": "double_well", "theta": 1.0, "mu": 1.0,
                  "sigma": 5.477225575051661},
        "scheme": {"eps": 1e-2, "micro_dt": 0.05, "macro_dt": 0.1,
                   "lambdas": 5, "t": 320.0, "burn_in": 2.0},
        "analysis": {"schemes": "direct, hmm, phmm", "n_replicas": 4,
                     "bin_min": -2.5, "bin_max": 2.5, "n_bins": 50,
                     "x0": "-1, 1"},
    }
    return {"clt_var": clt, "ldp_hist": hist}


def _passage(seeds):
    # eps * sigma^2 = 0.6: escapes to the saddle take about 10 slow time
    # units, and t_cap censors the tail of each 64-sample block.
    mfpt = {
        "experiment": {"analysis": "mfpt_vs_lambda", "seed": seeds[0]},
        "model": {"name": "double_well", "theta": 1.0, "mu": 1.0,
                  "sigma": 7.745966692414834},
        "scheme": {"eps": 1e-2, "micro_dt": 0.05, "macro_dt": 0.1,
                   "lambdas": "1, 4"},
        "analysis": {"schemes": "hmm, phmm", "n_samples": 128,
                     "t_cap": 20.0, "start": -1.0, "threshold": 0.0,
                     "direction": "upcrossing", "equil_fast_time": 10.0},
    }
    fpt = {
        "experiment": {"analysis": "fpt_cdf", "seed": seeds[1]},
        "model": {"name": "non_diffusive", "nu": 1.0,
                  "sigma": 1.7320508075688772},
        "scheme": {"eps": 0.05, "micro_dt": 0.02, "macro_dt": 0.1,
                   "lambda": 2},
        "analysis": {"schemes": "direct, hmm, phmm", "n_samples": 64,
                     "t_cap": 30.0, "start": 2.459, "threshold": 0.555,
                     "direction": "downcrossing", "equil_fast_time": 20.0},
    }
    return {"dw_mfpt": mfpt, "nd_fpt_cdf": fpt}


def _jump(seeds):
    bd = {
        "experiment": {"analysis": "jump_compare", "seed": seeds[0]},
        "model": {"name": "birth_death", "birth": 1.0, "death": 1.0,
                  "eps": 0.01},
        "analysis": {"x0": 1.0, "t": 3.0, "tau": 0.1, "n_runs": 2048},
    }
    return {"bd_jump": bd}


def generate(workload: str, seed: int) -> tuple[dict[str, str], dict]:
    """INI texts by config name, and the parameters of the direct calls."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    seeds = _root_seeds(workload, seed, 2)
    if workload == "stationary":
        configs, params = _stationary(seeds), {}
    elif workload == "passage":
        configs, params = _passage(seeds), {"workers": PASSAGE_WORKERS}
    elif workload == "jump":
        # a closed 4-species monomolecular network with 12 channels: inflow,
        # outflow and conversion to the next species for each species
        configs = _jump(seeds)
        params = {"root_seed": seeds[1], "eps": 0.02, "t": 2.0, "tau": 0.05,
                  "n_runs": 1024, "inflow": [0.6, 0.4, 0.5, 0.5],
                  "outflow": [1.0, 0.8, 1.2, 1.0], "convert": 0.5}
    else:
        configs = {}
        params = {"root_seed": seeds[0], "eps": 4e-3, "sigma": 7.5,
                  "micro_dt": 0.05, "macro_dt": 0.05, "lam": 3,
                  "direct_t": 4.0, "macro_t": 15.0, "burn_in": 1.0}
    return {name: _ini(spec) for name, spec in configs.items()}, params


def write(workload: str, seed: int, directory) -> tuple[dict, dict]:
    """Write the workload's configs into ``directory``; returns
    (config name -> path, direct-call parameters)."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    texts, params = generate(workload, seed)
    paths = {}
    for name, text in texts.items():
        paths[name] = directory / f"{name}.cfg"
        paths[name].write_text(text)
    return paths, params
