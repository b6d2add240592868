"""Declarative experiment definitions: config parsing, analyses, outputs.

An experiment is described by an INI-style file with sections
``[experiment]``, ``[model]``, ``[scheme]`` and ``[analysis]``. Parsing is
strict: unknown sections or keys are rejected with the offending line, and
every output file embeds the tool version, the canonical config hash and
the seed. Analyses write CSV tables (plus JSON mirrors on request) whose
bodies are byte-stable for a fixed seed, independent of worker count; the
only varying line is the ``# created:`` timestamp header.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import ENSEMBLE_SCHEMES, map_blocks, pooled_stationary_samples
from .fluctuations import (BasinSpec, first_passage_times,
                           fit_log_mfpt_inverse_lambda, histogram_of_samples,
                           ldp_escape_prediction, mean_first_passage_vs_lambda,
                           ks_distance, quasipotential,
                           quasipotential_derivative)
from .jump import birth_death, ssa_final_states, tau_leap_final_states
from .models import NonDiffusiveModel, fixed_points, make_model
from .rng import RngStream
from .schemes import SchemeConfig, config_for_lambda


class ConfigError(Exception):
    """Invalid experiment configuration; carries best-effort line info."""

    def __init__(self, message, *, line=None, key=None):
        loc = []
        if key is not None:
            loc.append(f"key {key!r}")
        if line is not None:
            loc.append(f"line {line}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.line = line
        self.key = key


ANALYSES = ("histogram", "variance_vs_lambda", "mfpt_vs_lambda", "fpt_cdf",
            "quasipotential", "jump_compare")

_MODEL_KEYS = {
    "linear_ou": {"theta": float, "mu": float, "sigma": float},
    "double_well": {"theta": float, "mu": float, "sigma": float},
    "non_diffusive": {"nu": float, "sigma": float},
    "birth_death": {"birth": float, "death": float, "eps": float},
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in text.split(",") if part.strip())


# per-analysis schema: section -> key -> (parser, required, default)
def _schema(analysis: str) -> dict:
    experiment = {
        "analysis": (str, True, None),
        "title": (str, False, ""),
        "seed": (int, True, None),
    }
    scheme_common = {
        "eps": (float, True, None),
        "micro_dt": (float, True, None),
        "macro_dt": (float, True, None),
    }
    model = {"name": (str, True, None)}  # parameter keys checked separately
    if analysis in ("histogram", "variance_vs_lambda"):
        scheme = dict(scheme_common)
        scheme.update({
            "lambdas": (_parse_int_list, True, None),
            "t": (float, True, None),
            "burn_in": (float, False, 0.0),
        })
        ana = {
            "schemes": (_parse_str_list, True, None),
            "n_replicas": (int, False, 1),
            "x0": (_parse_float_list, False, (0.0,)),
        }
        if analysis == "histogram":
            ana.update({
                "bin_min": (float, True, None),
                "bin_max": (float, True, None),
                "n_bins": (int, True, None),
            })
        return {"experiment": experiment, "model": model, "scheme": scheme,
                "analysis": ana}
    if analysis in ("mfpt_vs_lambda", "fpt_cdf"):
        scheme = dict(scheme_common)
        if analysis == "mfpt_vs_lambda":
            scheme["lambdas"] = (_parse_int_list, True, None)
        else:
            scheme["lambda"] = (int, True, None)
        ana = {
            "schemes": (_parse_str_list, True, None),
            "n_samples": (int, True, None),
            "t_cap": (float, True, None),
            "start": (float, True, None),
            "threshold": (float, True, None),
            "direction": (str, True, None),
            "equil_fast_time": (float, False, 50.0),
        }
        if analysis == "mfpt_vs_lambda":
            ana["ldp_curve"] = (_parse_bool, False, False)
        return {"experiment": experiment, "model": model, "scheme": scheme,
                "analysis": ana}
    if analysis == "quasipotential":
        ana = {
            "x_min": (float, True, None),
            "x_max": (float, True, None),
            "n_points": (int, True, None),
        }
        return {"experiment": experiment, "model": model, "analysis": ana}
    if analysis == "jump_compare":
        ana = {
            "x0": (float, True, None),
            "t": (float, True, None),
            "tau": (float, True, None),
            "n_runs": (int, True, None),
        }
        return {"experiment": experiment, "model": model, "analysis": ana}
    raise ConfigError(f"unknown analysis {analysis!r}; expected one of {ANALYSES}")


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    name: str
    analysis: str
    title: str
    seed: int
    model_name: str
    model_params: dict
    scheme: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        items = [f"analysis={self.analysis}", f"seed={self.seed}",
                 f"model={self.model_name}"]
        items += [f"model.{k}={self.model_params[k]!r}"
                  for k in sorted(self.model_params)]
        items += [f"scheme.{k}={self.scheme[k]!r}" for k in sorted(self.scheme)]
        items += [f"analysis.{k}={self.params[k]!r}" for k in sorted(self.params)]
        return hashlib.sha256(";".join(items).encode()).hexdigest()[:12]


def _find_line(text: str, section: str, key: str | None = None) -> int | None:
    in_section = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            in_section = line[1:-1].strip() == section
            if in_section and key is None:
                return lineno
        elif in_section and key is not None:
            stem = line.split("=", 1)[0].split(":", 1)[0].strip().lower()
            if stem == key.lower():
                return lineno
    return None


def parse_config(path, name: str | None = None) -> ExperimentConfig:
    """Parse and strictly validate an experiment config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as err:
        lineno = getattr(err, "lineno", None)
        raise ConfigError(f"config syntax error in {path}: {err}",
                          line=lineno) from err

    if not parser.has_section("experiment") or not parser.has_option(
            "experiment", "analysis"):
        raise ConfigError("missing [experiment] section with an 'analysis' key")
    analysis = parser.get("experiment", "analysis").strip()
    if analysis not in ANALYSES:
        raise ConfigError(f"unknown analysis {analysis!r}; expected one of "
                          f"{ANALYSES}",
                          line=_find_line(text, "experiment", "analysis"))
    schema = _schema(analysis)

    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unexpected section [{section}] for analysis "
                              f"{analysis!r}", line=_find_line(text, section))
    parsed: dict[str, dict] = {}
    for section, keys in schema.items():
        if section not in parser:
            if any(req for (_, req, _) in keys.values()):
                raise ConfigError(f"missing required section [{section}]")
            parsed[section] = {k: d for k, (_, _, d) in keys.items()}
            continue
        got = dict(parser.items(section))
        out = {}
        model_name = got.get("name", "").strip() if section == "model" else None
        allowed = dict(keys)
        if section == "model":
            if not model_name:
                raise ConfigError("missing model name",
                                  line=_find_line(text, "model"))
            if model_name not in _MODEL_KEYS:
                raise ConfigError(
                    f"unknown model {model_name!r}; builtins: "
                    f"{sorted(_MODEL_KEYS)}",
                    line=_find_line(text, "model", "name"))
            allowed.update({k: (fn, False, None)
                            for k, fn in _MODEL_KEYS[model_name].items()})
        for key in got:
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}] for analysis "
                    f"{analysis!r}", line=_find_line(text, section, key),
                    key=key)
        for key, (fn, required, default) in allowed.items():
            if key in got:
                try:
                    out[key] = fn(got[key])
                except (ValueError, TypeError) as err:
                    raise ConfigError(
                        f"bad value for {key!r} in [{section}]: {err}",
                        line=_find_line(text, section, key), key=key) from err
            elif required:
                raise ConfigError(f"missing required key {key!r} in "
                                  f"[{section}]", key=key,
                                  line=_find_line(text, section))
            elif default is not None or section != "model":
                out[key] = default
        parsed[section] = out

    model_params = {k: v for k, v in parsed["model"].items()
                    if k != "name" and v is not None}
    exp = parsed["experiment"]
    cfg = ExperimentConfig(
        name=name or path.stem,
        analysis=analysis,
        title=exp.get("title", ""),
        seed=int(exp["seed"]),
        model_name=parsed["model"]["name"],
        model_params=model_params,
        scheme=parsed.get("scheme", {}),
        params=parsed.get("analysis", {}),
    )
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg: ExperimentConfig) -> None:
    sde_analyses = ("histogram", "variance_vs_lambda", "mfpt_vs_lambda",
                    "fpt_cdf")
    if cfg.analysis in sde_analyses:
        if cfg.model_name == "birth_death":
            raise ConfigError(f"analysis {cfg.analysis!r} needs an SDE model, "
                              f"not {cfg.model_name!r}")
        for scheme in cfg.params.get("schemes", ()):
            if scheme not in ENSEMBLE_SCHEMES:
                raise ConfigError(f"scheme {scheme!r} is not available for "
                                  f"analysis {cfg.analysis!r}; expected one "
                                  f"of {ENSEMBLE_SCHEMES}", key="schemes")
    if cfg.analysis in ("mfpt_vs_lambda", "fpt_cdf"):
        direction = cfg.params["direction"]
        allowed = ("upcrossing", "downcrossing")
        if cfg.analysis == "fpt_cdf":
            allowed += ("both",)
        if direction not in allowed:
            raise ConfigError(f"direction must be one of {allowed}, got "
                              f"{direction!r}", key="direction")
    if cfg.analysis == "quasipotential" and cfg.model_name != "non_diffusive":
        raise ConfigError("quasipotential analysis requires the "
                          "non_diffusive model")
    if cfg.analysis == "jump_compare" and cfg.model_name != "birth_death":
        raise ConfigError("jump_compare requires the birth_death model")
    values = {**cfg.model_params, **cfg.scheme, **cfg.params}
    nonneg = ("burn_in", "equil_fast_time")
    nonneg += ("x0",) if cfg.analysis == "jump_compare" else ()
    for key in ("x_min", "x_max", "bin_min", "bin_max", "start",
                "threshold") + nonneg:
        value = values.get(key, 0.0)
        if not math.isfinite(value) or (key in nonneg and value < 0):
            kind = "finite and non-negative" if key in nonneg else "finite"
            raise ConfigError(f"{key} must be {kind}, got {value}", key=key)
    for lo, hi in (("x_min", "x_max"), ("bin_min", "bin_max")):
        if lo in values and values[lo] >= values[hi]:
            raise ConfigError(f"{lo} must be below {hi}, got {values[lo]} >= "
                              f"{values[hi]}", key=lo)
    if "threshold" in values:  # "both" runs up to threshold, then back
        up, start, thr = (values["direction"] != "downcrossing",
                          values["start"], values["threshold"])
        if thr == start or (thr < start) == up:
            raise ConfigError(f"threshold {thr} must lie "
                              f"{'above' if up else 'below'} start {start}",
                              key="threshold")
    for key in ("n_replicas", "n_samples", "n_bins", "n_runs", "n_points"):
        if key in values and values[key] < 1:
            raise ConfigError(f"{key} must be positive, got {values[key]}",
                              key=key)
    for key in ("lambdas", "lambda"):
        if key in values and any(lam < 1 for lam in np.atleast_1d(values[key])):
            raise ConfigError(f"every {key} value must be at least 1, got "
                              f"{values[key]}", key=key)
    for key in ("t", "tau", "t_cap", "eps", "micro_dt", "macro_dt"):
        if key in values and not (math.isfinite(values[key]) and values[key] > 0):
            raise ConfigError(f"{key} must be positive and finite, got "
                              f"{values[key]}", key=key)


def _model_kwargs(cfg: ExperimentConfig) -> dict:
    rename = {"sigma": "sigma_f"}
    return {rename.get(k, k): v for k, v in cfg.model_params.items()}


def _scheme_config(cfg: ExperimentConfig, lam: int) -> SchemeConfig:
    base = SchemeConfig(eps=cfg.scheme["eps"], lam=1,
                        macro_dt=cfg.scheme["macro_dt"],
                        micro_dt=cfg.scheme["micro_dt"],
                        root_seed=cfg.seed)
    return config_for_lambda(base, lam)


@dataclass
class OutputTable:
    """One CSV-able result table."""

    suffix: str
    columns: list
    rows: list
    extra_meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# analyses


def _scheme_lambda_tasks(cfg):
    """(scheme, lam) pairs; the direct scheme ignores lambda."""
    tasks = []
    for scheme in cfg.params["schemes"]:
        if scheme == "direct":
            tasks.append((scheme, 1))
        else:
            for lam in cfg.scheme["lambdas"]:
                tasks.append((scheme, int(lam)))
    return tasks


def _run_stationary(cfg: ExperimentConfig, executor) -> list[OutputTable]:
    """Histogram or variance of pooled stationary samples per (scheme, lam)."""
    model = make_model(cfg.model_name, **_model_kwargs(cfg)).system()
    base = RngStream(cfg.seed)
    n_chains = cfg.params["n_replicas"]
    starts = np.asarray(cfg.params["x0"], dtype=float)
    x0 = starts[np.arange(n_chains) % len(starts)]
    if cfg.analysis == "histogram":
        edges = np.linspace(cfg.params["bin_min"], cfg.params["bin_max"],
                            cfg.params["n_bins"] + 1)
        table = OutputTable("histogram", ["scheme", "lam", "bin_left",
                                          "bin_right", "count"], [])
    else:
        table = OutputTable("variance", ["scheme", "lam", "macro_dt",
                                         "n_samples", "variance"], [])
    for scheme, lam in _scheme_lambda_tasks(cfg):
        scfg = _scheme_config(cfg, lam)
        samples = pooled_stationary_samples(
            model, scheme, scfg, x0, None, cfg.scheme["t"], n_chains,
            cfg.scheme["burn_in"], base, executor=executor)
        if cfg.analysis == "variance_vs_lambda":
            table.rows.append([scheme, lam, repr(scfg.macro_dt), samples.size,
                               repr(float(np.var(samples, ddof=1)))])
            continue
        hist = histogram_of_samples(samples, edges)
        table.rows.append([scheme, lam, "-inf", repr(float(edges[0])),
                           hist.underflow])
        for i, count in enumerate(hist.counts):
            table.rows.append([scheme, lam, repr(float(edges[i])),
                               repr(float(edges[i + 1])), int(count)])
        table.rows.append([scheme, lam, repr(float(edges[-1])), "inf",
                           hist.overflow])
    return [table]


def _run_mfpt(cfg: ExperimentConfig, executor) -> list[OutputTable]:
    model = make_model(cfg.model_name, **_model_kwargs(cfg)).system()
    basin = BasinSpec(cfg.params["start"], cfg.params["threshold"],
                      cfg.params["direction"])
    lambdas = list(cfg.scheme["lambdas"])
    rows = []
    hmm_points = None
    for scheme in cfg.params["schemes"]:
        cfg_base = _scheme_config(cfg, 1)
        points = mean_first_passage_vs_lambda(
            model, scheme, cfg_base, basin, lambdas, cfg.params["n_samples"],
            cfg.params["t_cap"], equil_fast_time=cfg.params["equil_fast_time"],
            executor=executor)
        if scheme == "hmm":
            hmm_points = points
        for p in points:
            rows.append([p.scheme, p.lam, repr(p.macro_dt), p.n_samples,
                         p.n_censored, repr(p.mfpt), repr(p.stderr)])
    extra = {}
    if cfg.params["ldp_curve"] and hmm_points and len(hmm_points) >= 2:
        _, b, r2 = fit_log_mfpt_inverse_lambda(hmm_points)
        v_barrier = b * cfg.scheme["eps"]
        lam0 = hmm_points[0].lam
        mfpt0 = hmm_points[0].mfpt
        for lam in lambdas:
            pred = ldp_escape_prediction(v_barrier, cfg.scheme["eps"], lam,
                                         (lam0, mfpt0))
            rows.append(["ldp_prediction", lam, repr(float("nan")),
                         0, 0, repr(pred), repr(0.0)])
        extra = {"ldp-barrier-estimate": repr(v_barrier),
                 "ldp-fit-r2": repr(r2)}
    return [OutputTable("mfpt",
                        ["scheme", "lam", "macro_dt", "n_samples",
                         "n_censored", "mfpt", "stderr"],
                        rows, extra)]


def _run_fpt_cdf(cfg: ExperimentConfig, executor) -> list[OutputTable]:
    model = make_model(cfg.model_name, **_model_kwargs(cfg)).system()
    lam = cfg.scheme["lambda"]
    start, thr = cfg.params["start"], cfg.params["threshold"]
    if cfg.params["direction"] == "both":
        basins = [BasinSpec(start, thr, "upcrossing"),
                  BasinSpec(thr, start, "downcrossing")]
    else:
        basins = [BasinSpec(start, thr, cfg.params["direction"])]
    rows = []
    extra = {}
    for basin in basins:
        for scheme in cfg.params["schemes"]:
            scfg = _scheme_config(cfg, lam if scheme != "direct" else 1)
            samples = first_passage_times(
                model, scheme, scfg, basin, cfg.params["n_samples"],
                cfg.params["t_cap"],
                equil_fast_time=cfg.params["equil_fast_time"],
                executor=executor)
            good = sorted(s.elapsed for s in samples if not s.censored)
            n_total = len(samples)
            extra[f"censored-{scheme}-{basin.direction}"] = (
                f"{n_total - len(good)}/{n_total}")
            for i, t_val in enumerate(good, start=1):
                rows.append([scheme, scfg.lam, basin.direction, repr(t_val),
                             repr(i / n_total)])
    return [OutputTable("fpt_cdf",
                        ["scheme", "lam", "direction", "t", "cdf"],
                        rows, extra)]


def _run_quasipotential(cfg: ExperimentConfig, executor) -> list[OutputTable]:
    model = NonDiffusiveModel(nu=cfg.model_params.get("nu", 1.0),
                              sigma_f=cfg.model_params.get("sigma",
                                                           math.sqrt(3.0)))
    left, mid, right = fixed_points(model)
    grid = np.linspace(cfg.params["x_min"], cfg.params["x_max"],
                       cfg.params["n_points"])
    rows = []
    for x in grid:
        rows.append([repr(float(x)),
                     repr(quasipotential(model, float(x), left)),
                     repr(quasipotential_derivative(model, float(x))),
                     repr(float(model.averaged_drift(x)))])
    barrier_left = quasipotential(model, mid, left)
    barrier_right = quasipotential(model, mid, right)
    extra = {
        "fixed-point-left": repr(left),
        "fixed-point-unstable": repr(mid),
        "fixed-point-right": repr(right),
        "barrier-left-to-right": repr(barrier_left),
        "barrier-right-to-left": repr(barrier_right),
        "barrier-ratio": repr(barrier_left / barrier_right),
    }
    return [OutputTable("quasipotential",
                        ["x", "v", "v_prime", "averaged_drift"],
                        rows, extra)]


def _run_jump_compare(cfg: ExperimentConfig, executor) -> list[OutputTable]:
    model = birth_death(cfg.model_params.get("birth", 1.0),
                        cfg.model_params.get("death", 1.0),
                        cfg.model_params.get("eps", 0.01))
    base = RngStream(cfg.seed)
    n_runs = cfg.params["n_runs"]
    x0 = [cfg.params["x0"]]
    t_end = cfg.params["t"]

    def run_blocks(fn):
        return np.concatenate(map_blocks(fn, n_runs, 2048, executor))[:, 0]

    ssa = run_blocks(lambda ids: ssa_final_states(model, x0, t_end, ids, base))
    tau = run_blocks(lambda ids: tau_leap_final_states(
        model, x0, t_end, cfg.params["tau"], ids, base))
    rows = []
    for method, vals in (("ssa", ssa), ("tau_leap", tau)):
        rows.append([method, n_runs, repr(float(vals.mean())),
                     repr(float(vals.var(ddof=1))),
                     repr(ks_distance(vals, ssa))])
    return [OutputTable("jump",
                        ["method", "n_runs", "mean", "variance", "ks_vs_ssa"],
                        rows)]


_RUNNERS = {
    "histogram": _run_stationary,
    "variance_vs_lambda": _run_stationary,
    "mfpt_vs_lambda": _run_mfpt,
    "fpt_cdf": _run_fpt_cdf,
    "quasipotential": _run_quasipotential,
    "jump_compare": _run_jump_compare,
}


# ---------------------------------------------------------------------------
# output writing


def _write_table(out_dir: Path, cfg: ExperimentConfig, table: OutputTable,
                 json_mirror: bool) -> list[Path]:
    meta = {
        "fastslow-version": __version__,
        "experiment": cfg.name,
        "analysis": cfg.analysis,
        "config-hash": cfg.config_hash(),
        "seed": str(cfg.seed),
    }
    meta.update({k: str(v) for k, v in sorted(table.extra_meta.items())})
    created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    csv_path = out_dir / f"{cfg.name}_{table.suffix}.csv"
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append(f"# created: {created}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(str(v) for v in row))
    csv_path.write_text("\n".join(lines) + "\n")
    paths = [csv_path]
    if json_mirror:
        json_path = out_dir / f"{cfg.name}_{table.suffix}.json"
        payload = {"meta": {**meta, "created": created},
                   "columns": list(table.columns),
                   "rows": [[str(v) for v in row] for row in table.rows]}
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                             + "\n")
        paths.append(json_path)
    return paths


def run_experiment(config_path, out_dir, *, name=None, seed=None,
                   executor=None, json_mirror=False):
    """Execute a config file and write its outputs.

    Returns:
        (summary_line, written_paths).
    """
    cfg = parse_config(config_path, name=name)
    if seed is not None:
        cfg.seed = int(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    tables = _RUNNERS[cfg.analysis](cfg, executor)
    paths = []
    for table in tables:
        paths.extend(_write_table(out_dir, cfg, table, json_mirror))
    wall = time.perf_counter() - start
    summary = (f"{cfg.name}: {cfg.analysis} finished in {wall:.1f}s -> "
               + ", ".join(str(p) for p in paths))
    return summary, paths
