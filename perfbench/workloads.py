"""The four benchmark workloads: one pass of each, and its correctness checks.

A pass drives ``fastslow`` only through its public entry points
(``run_experiment``, ``run_scheme``, ``ssa_final_states``, ...) on the
inputs that :mod:`configs` generated from the seed. It returns the amount of
work done, a sha256 digest of every output, and the values the checks need.

An operation is one ``(config, scheme, lam)`` task of a config, one jump
method on one model, or one ``run_scheme`` call. It fails when it raises or
when a check that covers it fails.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fastslow as fs
from fastslow import experiments


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    ops: tuple  # operation keys the check covers


@dataclass
class PassResult:
    items: float                      # throughput units completed
    digests: dict                     # output name -> sha256
    ops: list                         # operation keys attempted
    output_ops: dict = field(default_factory=dict)  # output name -> ops
    failed_ops: set = field(default_factory=set)   # raised
    errors: list = field(default_factory=list)
    data: dict = field(default_factory=dict)       # values for the checks

    def record(self, name, digest, ops):
        self.digests[name] = digest
        self.output_ops[name] = tuple(ops)


# ---------------------------------------------------------------------------
# building: parse the generated configs and build the models


@dataclass
class Workload:
    name: str
    config_paths: dict                # config name -> Path
    params: dict
    configs: dict = field(default_factory=dict)    # name -> ExperimentConfig
    models: dict = field(default_factory=dict)


def _config_model(cfg):
    if cfg.model_name == "birth_death":
        return fs.birth_death(**cfg.model_params)
    params = {("sigma_f" if k == "sigma" else k): v
              for k, v in cfg.model_params.items()}
    return fs.make_model(cfg.model_name, **params).system()


def monomolecular_network(inflow, outflow, convert, eps) -> fs.JumpModel:
    """Species i is created at rate inflow[i], removed at rate outflow[i]*x_i
    and converted into species i+1 (cyclically) at rate convert*x_i."""
    dim = len(inflow)
    reactions = []
    for i in range(dim):
        unit = np.zeros(dim)
        unit[i] = 1.0
        step = np.zeros(dim)
        step[i], step[(i + 1) % dim] = -1.0, 1.0
        reactions.append(fs.Reaction(
            lambda x, b=inflow[i]: np.full(np.shape(x)[:-1], b), unit))
        reactions.append(fs.Reaction(
            lambda x, i=i, d=outflow[i]: d * x[..., i], -unit))
        reactions.append(fs.Reaction(
            lambda x, i=i: convert * x[..., i], step))
    return fs.JumpModel(dim, tuple(reactions), eps, vectorized=True,
                        name="monomolecular")


def network_stationary_mean(inflow, outflow, convert) -> np.ndarray:
    """Solves inflow + A m = 0 for the network's mean; its stationary law is
    a product of Poisson laws, so Var(x_i) = eps * m_i."""
    dim = len(inflow)
    a = np.zeros((dim, dim))
    for i in range(dim):
        a[i, i] -= outflow[i] + convert
        a[(i + 1) % dim, i] += convert
    return np.linalg.solve(a, -np.asarray(inflow, dtype=float))


def build(name: str, config_paths: dict, params: dict) -> Workload:
    """Parse every generated config and build every model of a workload."""
    w = Workload(name, dict(config_paths), dict(params))
    for cname, path in config_paths.items():
        cfg = experiments.parse_config(path, name=cname)
        w.configs[cname] = cfg
        w.models[cname] = _config_model(cfg)
    if name == "jump":
        p = params
        w.models["network"] = monomolecular_network(
            p["inflow"], p["outflow"], p["convert"], p["eps"])
    elif name == "single_path":
        w.models["double_well"] = fs.DoubleWellModel(
            theta=1.0, mu=1.0, sigma_f=params["sigma"]).system()
    return w


# ---------------------------------------------------------------------------
# digests and CSV reading


def csv_body(path: Path) -> str:
    """The CSV text without its ``# created:`` timestamp line."""
    return "".join(line for line in path.read_text().splitlines(True)
                   if not line.startswith("# created:"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_array(arr) -> str:
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


def read_csv(path: Path):
    """(header dict, rows as dicts) of a fastslow CSV table."""
    meta, rows, columns = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return meta, rows


def _tasks(cfg) -> list:
    """The (config, scheme, lam) operations of one config."""
    if cfg.analysis == "jump_compare":
        return [(cfg.name, "ssa", 1), (cfg.name, "tau_leap", 1)]
    lams = (cfg.scheme["lambdas"] if "lambdas" in cfg.scheme
            else (cfg.scheme["lambda"],))
    return [(cfg.name, s, 1 if s == "direct" else int(lam))
            for s in cfg.params["schemes"]
            for lam in (lams if s != "direct" else (1,))]


# ---------------------------------------------------------------------------
# passes


def _run_configs(w: Workload, out_dir: Path, executor, res: PassResult):
    for cname, cfg in w.configs.items():
        tasks = _tasks(cfg)
        res.ops.extend(tasks)
        try:
            _, paths = experiments.run_experiment(
                w.config_paths[cname], out_dir, name=cname, executor=executor)
        except Exception as err:  # counted as failed operations
            res.failed_ops.update(tasks)
            res.errors.append(f"{cname}: {type(err).__name__}: {err}")
            continue
        for path in paths:
            res.record(path.name, sha256_text(csv_body(path)), tasks)
            res.data[cname] = read_csv(path)


def _stationary_items(res: PassResult) -> float:
    total = 0
    for meta, rows in res.data.values():
        if meta["analysis"] == "variance_vs_lambda":
            total += sum(int(r["n_samples"]) for r in rows)
        else:
            total += sum(int(r["count"]) for r in rows)
    return float(total)


def _passage_items(res: PassResult) -> float:
    total = 0
    for meta, rows in res.data.values():
        if meta["analysis"] == "mfpt_vs_lambda":
            total += sum(int(r["n_samples"]) for r in rows
                         if r["scheme"] != "ldp_prediction")
        else:
            total += sum(int(v.split("/")[1]) for k, v in meta.items()
                         if k.startswith("censored-"))
    return float(total)


def _jump_pass(w: Workload, res: PassResult):
    p = w.params
    model = w.models["network"]
    x0 = np.round(network_stationary_mean(p["inflow"], p["outflow"],
                                          p["convert"]) / p["eps"]) * p["eps"]
    ids = np.arange(p["n_runs"])
    base = fs.RngStream(p["root_seed"])
    runs = 0
    for method in ("ssa", "tau_leap"):
        op = ("network", method, 1)
        res.ops.append(op)
        try:
            if method == "ssa":
                out = fs.ssa_final_states(model, x0, p["t"], ids, base)
            else:
                out = fs.tau_leap_final_states(model, x0, p["t"], p["tau"],
                                               ids, base)
        except Exception as err:
            res.failed_ops.add(op)
            res.errors.append(f"network {method}: {type(err).__name__}: {err}")
            continue
        res.record(f"network_{method}", sha256_array(out), [op])
        res.data[f"network_{method}"] = out
        runs += ids.size
    for meta, rows in (v for k, v in res.data.items() if k in w.configs):
        runs += sum(int(r["n_runs"]) for r in rows)
    return float(runs)


def _single_path_pass(w: Workload, res: PassResult):
    p = w.params
    model = w.models["double_well"]
    slow_time = 0.0
    for scheme in ("direct", "hmm", "phmm"):
        op = ("double_well", scheme, 1 if scheme == "direct" else p["lam"])
        res.ops.append(op)
        cfg = fs.config_for_lambda(fs.SchemeConfig(
            eps=p["eps"], lam=1, macro_dt=p["macro_dt"],
            micro_dt=p["micro_dt"], root_seed=p["root_seed"]), op[2])
        t_end = p["direct_t"] if scheme == "direct" else p["macro_t"]
        try:
            traj = fs.run_scheme(model, scheme, [-1.0], [-1.0], cfg, t_end)
            var = fs.stationary_variance(traj, p["burn_in"])
        except Exception as err:
            res.failed_ops.add(op)
            res.errors.append(f"run_scheme {scheme}: {type(err).__name__}: "
                              f"{err}")
            continue
        res.record(f"path_{scheme}", sha256_array(traj.states), [op])
        res.record(f"variance_{scheme}", sha256_array(var), [op])
        res.data[scheme] = (traj, var, cfg, t_end)
        slow_time += float(traj.times[-1])
    return slow_time


def run_pass(w: Workload, out_dir: Path, executor_factory=None) -> PassResult:
    """One pass of the workload; outputs land in ``out_dir``.

    ``executor_factory(workers)`` builds the executor handed to
    ``run_experiment``; by default a plain ``ThreadPoolExecutor``.
    """
    res = PassResult(0.0, {}, [])
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = w.params.get("workers", 1)
    if workers > 1:
        factory = executor_factory or (
            lambda n: ThreadPoolExecutor(max_workers=n))
        with factory(workers) as pool:
            _run_configs(w, out_dir, pool, res)
    else:
        _run_configs(w, out_dir, None, res)
    if w.name == "stationary":
        res.items = _stationary_items(res)
    elif w.name == "passage":
        res.items = _passage_items(res)
    elif w.name == "jump":
        res.items = _jump_pass(w, res)
    else:
        res.items = _single_path_pass(w, res)
    return res


# ---------------------------------------------------------------------------
# correctness checks: the paper's claims at stated tolerances


def _loglog_slope(lams, values) -> float:
    return float(np.polyfit(np.log(lams), np.log(values), 1)[0])


def _check_clt(cname, rows) -> list:
    var = {(r["scheme"], int(r["lam"])): float(r["variance"]) for r in rows}
    lams = sorted(l for s, l in var if s == "hmm")
    hmm = _loglog_slope(lams, [var[("hmm", l)] for l in lams])
    phmm = _loglog_slope(lams, [var[("phmm", l)] for l in lams])
    return [
        Check("hmm_variance_linear_in_lam", 0.5 <= hmm <= 1.5,
              f"slope of log HMM variance over log lam = {hmm:.3f} "
              f"(need [0.5, 1.5])", tuple((cname, "hmm", l) for l in lams)),
        Check("phmm_variance_flat", abs(phmm) < 0.45,
              f"slope of log PHMM variance over log lam = {phmm:.3f} "
              f"(need within +-0.45)",
              tuple((cname, "phmm", l) for l in lams)),
    ]


def _rel_saddle(rows, scheme, half):
    """Samples within ``half`` of the saddle over those within ``half`` of
    the two wells, from the histogram bin counts."""
    saddle = wells = 0
    for r in rows:
        if r["scheme"] != scheme or "inf" in (r["bin_left"], r["bin_right"]):
            continue
        mid = 0.5 * (float(r["bin_left"]) + float(r["bin_right"]))
        if abs(mid) < half:
            saddle += int(r["count"])
        elif abs(abs(mid) - 1.0) < half:
            wells += int(r["count"])
    return saddle / max(wells, 1)


def _check_hist(cname, rows) -> list:
    wide = {s: _rel_saddle(rows, s, 0.5) for s in ("direct", "phmm")}
    narrow = {s: _rel_saddle(rows, s, 0.2) for s in ("direct", "hmm", "phmm")}
    phmm_vs_direct = wide["phmm"] / max(wide["direct"], 1e-12)
    hmm_vs_rest = narrow["hmm"] / max(narrow["direct"], narrow["phmm"], 1e-12)
    return [
        Check("phmm_saddle_matches_direct", 0.25 <= phmm_vs_direct <= 4.0,
              f"PHMM/direct saddle-to-well occupancy within 0.5 = "
              f"{phmm_vs_direct:.2f} (need [1/4, 4])",
              ((cname, "direct", 1), (cname, "phmm", 5))),
        Check("hmm_overpopulates_saddle", hmm_vs_rest >= 1.25,
              f"HMM / max(direct, PHMM) saddle-to-well occupancy within 0.2 "
              f"= {hmm_vs_rest:.2f} (need >= 1.25)", ((cname, "hmm", 5),)),
    ]


def _check_mfpt(cname, rows) -> list:
    hmm = {int(r["lam"]): float(r["mfpt"]) for r in rows
           if r["scheme"] == "hmm"}
    lams = sorted(hmm)
    ratio = hmm[lams[-1]] / hmm[lams[0]]
    complete = all(int(r["n_samples"]) > int(r["n_censored"]) for r in rows)
    return [
        Check("hmm_mfpt_falls_with_lam", ratio < 0.6,
              f"HMM MFPT(lam={lams[-1]}) / MFPT(lam={lams[0]}) = {ratio:.3f} "
              f"(need < 0.6)", tuple((cname, "hmm", l) for l in lams)),
        Check("mfpt_rows_complete", complete,
              "every (scheme, lam) has uncensored samples",
              tuple((cname, r["scheme"], int(r["lam"])) for r in rows)),
    ]


def _check_fpt_cdf(cfg, meta, rows) -> list:
    out = []
    for scheme in cfg.params["schemes"]:
        lam = 1 if scheme == "direct" else int(cfg.scheme["lambda"])
        mine = [r for r in rows if r["scheme"] == scheme]
        t = np.array([float(r["t"]) for r in mine])
        cdf = np.array([float(r["cdf"]) for r in mine])
        counts = meta[f"censored-{scheme}-{cfg.params['direction']}"]
        n_cens, n_total = map(int, counts.split("/"))
        ok = (n_total == cfg.params["n_samples"] and len(mine) > 0
              and len(mine) == n_total - n_cens and np.all(np.diff(t) >= 0)
              and np.all(np.diff(cdf) > 0) and cdf[-1] <= 1.0)
        out.append(Check(f"fpt_cdf_well_formed_{scheme}", bool(ok),
                         f"{len(mine)} rows, censored {counts}, monotone "
                         f"CDF", ((cfg.name, scheme, lam),)))
    return out


def _check_bd(cname, rows, eps) -> list:
    r = {row["method"]: row for row in rows}
    mean = float(r["ssa"]["mean"])
    var = float(r["ssa"]["variance"])
    ks = float(r["tau_leap"]["ks_vs_ssa"])
    # birth = death = 1: stationary law eps * Poisson(1 / eps)
    return [
        Check("bd_ssa_matches_stationary_law",
              abs(mean - 1.0) < 0.02 and abs(var / eps - 1.0) < 0.2,
              f"SSA mean {mean:.4f} (need 1 +- 0.02), variance / eps "
              f"{var / eps:.3f} (need 1 +- 0.2)", ((cname, "ssa", 1),)),
        Check("bd_tau_leap_ks_small", ks < 0.1,
              f"KS(tau-leap, SSA) = {ks:.4f} (need < 0.1)",
              ((cname, "tau_leap", 1),)),
    ]


def _check_network(w: Workload, data) -> list:
    p = w.params
    if "network_ssa" not in data or "network_tau_leap" not in data:
        return []
    ssa, tau = data["network_ssa"], data["network_tau_leap"]
    mean = network_stationary_mean(p["inflow"], p["outflow"], p["convert"])
    mean_dev = float(np.max(np.abs(ssa.mean(axis=0) / mean - 1.0)))
    var_dev = float(np.max(np.abs(ssa.var(axis=0, ddof=1)
                                  / (p["eps"] * mean) - 1.0)))
    ks = max(fs.ks_distance(ssa[:, i], tau[:, i]) for i in range(ssa.shape[1]))
    return [
        Check("network_ssa_matches_poisson_law",
              mean_dev < 0.05 and var_dev < 0.3,
              f"max SSA mean dev {mean_dev:.4f} (need < 0.05), max variance "
              f"/ (eps mean) dev {var_dev:.3f} (need < 0.3)",
              (("network", "ssa", 1),)),
        Check("network_tau_leap_ks_small", ks < 0.15,
              f"max per-species KS(tau-leap, SSA) = {ks:.4f} (need < 0.15)",
              (("network", "tau_leap", 1),)),
    ]


def _check_single_path(w: Workload, data) -> list:
    out = []
    for scheme, (traj, var, cfg, t_end) in data.items():
        if scheme == "direct":
            n_expected = math.ceil(t_end / (cfg.eps * cfg.micro_dt)) + 1
        else:
            n_expected = math.ceil(t_end / cfg.macro_dt) + 1
        ok = (len(traj) == n_expected and traj.states.shape == (n_expected, 1)
              and np.isfinite(traj.states).all()
              and np.all(np.isfinite(var)) and np.all(var > 0))
        out.append(Check(f"single_path_{scheme}_well_formed", bool(ok),
                         f"{len(traj)} points (need {n_expected}), finite, "
                         f"stationary variance {float(var[0]):.4f}",
                         (("double_well", scheme, cfg.lam),)))
    return out


def check(w: Workload, res: PassResult) -> list:
    """Every check of the workload on one pass's outputs."""
    checks = []
    for cname, cfg in w.configs.items():
        if cname not in res.data:
            continue
        meta, rows = res.data[cname]
        if cfg.analysis == "variance_vs_lambda":
            checks += _check_clt(cname, rows)
        elif cfg.analysis == "histogram":
            checks += _check_hist(cname, rows)
        elif cfg.analysis == "mfpt_vs_lambda":
            checks += _check_mfpt(cname, rows)
        elif cfg.analysis == "fpt_cdf":
            checks += _check_fpt_cdf(cfg, meta, rows)
        elif cfg.analysis == "jump_compare":
            checks += _check_bd(cname, rows, cfg.model_params["eps"])
    if w.name == "jump":
        checks += _check_network(w, res.data)
    elif w.name == "single_path":
        checks += _check_single_path(w, res.data)
    return checks
