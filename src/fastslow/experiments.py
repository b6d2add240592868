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
from typing import Callable

import numpy as np

from . import __version__
from .ensemble import ENSEMBLE_SCHEMES, map_blocks, pooled_stationary_samples
from .fluctuations import (BasinSpec, first_passage_times,
                           histogram_of_samples, ks_distance, quasipotential,
                           quasipotential_derivative, summarize_fpt)
from .jump import ssa_final_states, tau_leap_final_states
from .models import fixed_points, make_model
from .rng import RngStream
from .schemes import SchemeConfig, config_for_lambda


class ConfigError(Exception):
    """Invalid experiment configuration; carries best-effort line info."""

    def __init__(self, message, *, line=None, key=None):
        loc = [f"key {key!r}"] if key is not None else []
        loc += [f"line {line}"] if line is not None else []
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.line = line
        self.key = key


REQUIRED = object()  # default of a key that every config must set

# domains: (predicate, description); list values are checked element-wise
POSITIVE = (lambda v: math.isfinite(v) and v > 0, "positive and finite")
FINITE = (math.isfinite, "finite")
NON_NEGATIVE = (lambda v: math.isfinite(v) and v >= 0,
                "finite and non-negative")
AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
AT_LEAST_2 = (lambda v: v >= 2, "at least 2")  # a sample variance or stderr


def _one_of(*choices):
    return (lambda v: v in choices, f"one of {choices}")


def _list(item):
    """Parser of a nonempty comma-separated list of ``item`` values."""
    def parse(text: str) -> tuple:
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if not parts:
            raise ValueError("empty list")
        return tuple(item(part) for part in parts)
    return parse


_EXPERIMENT_KEYS = {"analysis": (str, REQUIRED, None),
                    "title": (str, "", None), "seed": (int, REQUIRED, None)}

# model name -> its parameter keys, each the make_model parameter of the
# same name (``sigma`` is ``sigma_f``); a parameter the config does not set
# is left to the constructor's default (and out of the config hash)
_SLOW_FAST = {k: (float, None, FINITE) for k in ("theta", "mu", "sigma")}
_MODELS = {
    "linear_ou": _SLOW_FAST,
    "double_well": _SLOW_FAST,
    "non_diffusive": {k: (float, None, FINITE) for k in ("nu", "sigma")},
    "birth_death": {"birth": (float, None, NON_NEGATIVE),
                    "death": (float, None, NON_NEGATIVE),
                    "eps": (float, None, POSITIVE)},
}


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
        raise ConfigError(f"config syntax error in {path}: {err}",
                          line=getattr(err, "lineno", None)) from err

    if not parser.has_section("experiment") or not parser.has_option(
            "experiment", "analysis"):
        raise ConfigError("missing [experiment] section with an 'analysis' key")
    analysis = parser.get("experiment", "analysis").strip()
    if analysis not in ANALYSES:
        raise ConfigError(f"unknown analysis {analysis!r}; expected one of "
                          f"{tuple(ANALYSES)}",
                          line=_find_line(text, "experiment", "analysis"))
    spec = ANALYSES[analysis]
    sections = {"experiment": _EXPERIMENT_KEYS,
                "model": {"name": (str, REQUIRED, None)}, **spec.sections}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unexpected section [{section}] for analysis "
                              f"{analysis!r}", line=_find_line(text, section))
    parsed: dict[str, dict] = {}
    for section, keys in sections.items():
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")
        got = dict(parser.items(section))
        if section == "model":
            model = got.get("name", "").strip()
            if model not in spec.models:
                raise ConfigError(
                    f"model {model!r} is not available for analysis "
                    f"{analysis!r}; expected one of {spec.models}",
                    line=_find_line(text, "model", "name"), key="name")
            keys = {**keys, **_MODELS[model]}
        for key in got:
            if key not in keys:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}] for analysis "
                    f"{analysis!r}", line=_find_line(text, section, key),
                    key=key)
        out = parsed[section] = {}
        for key, (parse, default, domain) in keys.items():
            if key not in got:
                if default is REQUIRED:
                    raise ConfigError(f"missing required key {key!r} in "
                                      f"[{section}]", key=key,
                                      line=_find_line(text, section))
                if default is not None:
                    out[key] = default
                continue
            try:
                value = parse(got[key])
            except (ValueError, TypeError) as err:
                raise ConfigError(
                    f"bad value for {key!r} in [{section}]: {err}",
                    line=_find_line(text, section, key), key=key) from err
            items = value if isinstance(value, tuple) else (value,)
            bad = [v for v in items if domain and not domain[0](v)]
            if bad:
                raise ConfigError(f"{key} must be {domain[1]}, got {bad[0]!r}",
                                  line=_find_line(text, section, key), key=key)
            out[key] = value

    exp, model = parsed["experiment"], parsed["model"]
    cfg = ExperimentConfig(name or path.stem, analysis, exp["title"],
                           exp["seed"], model.pop("name"), model,
                           parsed.get("scheme", {}), parsed["analysis"])
    _check_relations(cfg)
    try:
        model = _model(cfg)
        if analysis == "quasipotential":  # its runner needs two wells
            fixed_points(model)
    except ValueError as err:
        raise ConfigError(f"bad [model] parameters: {err}",
                          line=_find_line(text, "model")) from err
    return cfg


def _check_relations(cfg: ExperimentConfig) -> None:
    """The checks that tie keys together; the domains check single keys."""
    values = {**cfg.scheme, **cfg.params}
    for lo, hi in (("x_min", "x_max"), ("bin_min", "bin_max")):
        if lo in values and values[lo] >= values[hi]:
            raise ConfigError(f"{lo} must be below {hi}, got {values[lo]} >= "
                              f"{values[hi]}", key=lo)
    if "threshold" in values:
        try:
            _basins(cfg)
        except ValueError as err:
            raise ConfigError(str(err), key="threshold") from err
    if "macro_dt" in values:
        try:
            _scheme_config(cfg, 1)
        except ValueError as err:
            raise ConfigError(str(err), key="macro_dt") from err
    if "burn_in" in values:
        t_chain = values["t"] / values["n_replicas"]
        if values["burn_in"] >= t_chain:
            raise ConfigError(f"burn_in must be below the per-chain time "
                              f"t / n_replicas = {t_chain}, got "
                              f"{values['burn_in']}", key="burn_in")


def _model(cfg: ExperimentConfig):
    """The builtin model of ``cfg``, built with its config parameters."""
    return make_model(cfg.model_name,
                      **{("sigma_f" if k == "sigma" else k): v
                         for k, v in cfg.model_params.items()})


def _scheme_config(cfg: ExperimentConfig, lam: int) -> SchemeConfig:
    base = SchemeConfig(eps=cfg.scheme["eps"], lam=1,
                        macro_dt=cfg.scheme["macro_dt"],
                        micro_dt=cfg.scheme["micro_dt"],
                        root_seed=cfg.seed)
    return config_for_lambda(base, lam)


def _basins(cfg: ExperimentConfig) -> list[BasinSpec]:
    """The passage basins of ``cfg``; ``both`` runs from start up to the
    threshold, then from the threshold back down to start."""
    start, thr = cfg.params["start"], cfg.params["threshold"]
    if cfg.params["direction"] != "both":
        return [BasinSpec(start, thr, cfg.params["direction"])]
    return [BasinSpec(start, thr, "upcrossing"),
            BasinSpec(thr, start, "downcrossing")]


@dataclass
class OutputTable:
    """One CSV-able result table."""

    suffix: str
    columns: list
    rows: list
    extra_meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# analyses


def _scheme_lambda_tasks(cfg, lambdas):
    """(scheme, scheme config) per task; the direct scheme ignores lambda."""
    return [(scheme, _scheme_config(cfg, lam))
            for scheme in cfg.params["schemes"]
            for lam in ((1,) if scheme == "direct" else lambdas)]


def _run_stationary(cfg: ExperimentConfig, executor) -> list[OutputTable]:
    """Histogram or variance of pooled stationary samples per (scheme, lam)."""
    model = _model(cfg).system()
    base = RngStream(cfg.seed)
    n_chains = cfg.params["n_replicas"]
    starts = np.asarray(cfg.params["x0"], dtype=float)
    x0 = starts[np.arange(n_chains) % len(starts)]
    if cfg.analysis == "histogram":
        edges = np.linspace(cfg.params["bin_min"], cfg.params["bin_max"],
                            cfg.params["n_bins"] + 1)
        bounds = ["-inf", *(repr(float(e)) for e in edges), "inf"]
        table = OutputTable("histogram", ["scheme", "lam", "bin_left",
                                          "bin_right", "count"], [])
    else:
        table = OutputTable("variance", ["scheme", "lam", "macro_dt",
                                         "n_samples", "variance"], [])
    for scheme, scfg in _scheme_lambda_tasks(cfg, cfg.scheme["lambdas"]):
        samples = pooled_stationary_samples(
            model, scheme, scfg, x0, None, cfg.scheme["t"], n_chains,
            cfg.scheme["burn_in"], base, executor=executor)
        if cfg.analysis == "variance_vs_lambda":
            if samples.size < 2:
                raise ConfigError(
                    f"{scheme} at lam {scfg.lam} pools {samples.size} "
                    "sample(s) after burn_in, too few for a variance",
                    key="burn_in")
            table.rows.append([scheme, scfg.lam, repr(scfg.macro_dt),
                               samples.size,
                               repr(float(np.var(samples, ddof=1)))])
            continue
        hist = histogram_of_samples(samples, edges)
        counts = [hist.underflow, *map(int, hist.counts), hist.overflow]
        table.rows += [[scheme, scfg.lam, bounds[i], bounds[i + 1], count]
                       for i, count in enumerate(counts)]
    return [table]


def _passages(cfg: ExperimentConfig, basin: BasinSpec, lambdas, executor):
    """(scheme, scheme config, elapsed, censored) of each passage task."""
    model = _model(cfg).system()
    for scheme, scfg in _scheme_lambda_tasks(cfg, lambdas):
        elapsed, censored = first_passage_times(
            model, scheme, scfg, basin, cfg.params["n_samples"],
            cfg.params["t_cap"],
            equil_fast_time=cfg.params["equil_fast_time"], executor=executor)
        yield scheme, scfg, elapsed, censored


def _run_mfpt(cfg: ExperimentConfig, executor) -> list[OutputTable]:
    (basin,) = _basins(cfg)  # one direction, never "both"
    rows = []
    for scheme, scfg, elapsed, censored in _passages(
            cfg, basin, cfg.scheme["lambdas"], executor):
        s = summarize_fpt(elapsed, censored)
        crossed = s.n_total - s.n_censored
        if crossed < 2:
            raise RuntimeError(f"{scheme} at lam {scfg.lam}: only {crossed} "
                               f"of {s.n_total} passage samples crossed "
                               "before t_cap, too few for a stderr; increase "
                               "t_cap")
        rows.append([scheme, scfg.lam, repr(scfg.macro_dt), s.n_total,
                     s.n_censored, repr(s.mfpt), repr(s.stderr)])
    return [OutputTable("mfpt",
                        ["scheme", "lam", "macro_dt", "n_samples",
                         "n_censored", "mfpt", "stderr"], rows)]


def _run_fpt_cdf(cfg: ExperimentConfig, executor) -> list[OutputTable]:
    rows, extra = [], {}
    for basin in _basins(cfg):
        for scheme, scfg, elapsed, censored in _passages(
                cfg, basin, (cfg.scheme["lambda"],), executor):
            good = np.sort(elapsed[~censored])
            n_total = elapsed.size
            extra[f"censored-{scheme}-{basin.direction}"] = (
                f"{n_total - good.size}/{n_total}")
            for i, t_val in enumerate(good.tolist(), start=1):
                rows.append([scheme, scfg.lam, basin.direction, repr(t_val),
                             repr(i / n_total)])
    return [OutputTable("fpt_cdf",
                        ["scheme", "lam", "direction", "t", "cdf"],
                        rows, extra)]


def _run_quasipotential(cfg: ExperimentConfig, executor) -> list[OutputTable]:
    model = _model(cfg)
    left, mid, right = fixed_points(model)
    grid = np.linspace(cfg.params["x_min"], cfg.params["x_max"],
                       cfg.params["n_points"])
    rows = [[repr(float(x)), repr(quasipotential(model, float(x), left)),
             repr(quasipotential_derivative(model, float(x))),
             repr(float(model.averaged_drift(x)))] for x in grid]
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
    model = _model(cfg)
    base = RngStream(cfg.seed)
    n_runs = cfg.params["n_runs"]
    x0 = [cfg.params["x0"]]
    t_end = cfg.params["t"]

    def run_blocks(fn):
        return np.concatenate(map_blocks(fn, n_runs, 2048, executor))[:, 0]

    ssa = run_blocks(lambda ids: ssa_final_states(model, x0, t_end, ids, base))
    tau = run_blocks(lambda ids: tau_leap_final_states(
        model, x0, t_end, cfg.params["tau"], ids, base))
    rows = [[method, n_runs, repr(float(vals.mean())),
             repr(float(vals.var(ddof=1))), repr(ks_distance(vals, ssa))]
            for method, vals in (("ssa", ssa), ("tau_leap", tau))]
    return [OutputTable("jump",
                        ["method", "n_runs", "mean", "variance", "ks_vs_ssa"],
                        rows)]


@dataclass(frozen=True)
class Analysis:
    """One analysis: its runner, the models it accepts and its config keys
    as section -> key -> (parser, default or REQUIRED, domain or None)."""

    runner: Callable
    models: tuple
    sections: dict


_SDE_MODELS = ("linear_ou", "double_well", "non_diffusive")
_STEPS = {key: (float, REQUIRED, POSITIVE)
          for key in ("eps", "micro_dt", "macro_dt")}
_LAMBDAS = {"lambdas": (_list(int), REQUIRED, AT_LEAST_1)}
_SCHEMES = _one_of(*ENSEMBLE_SCHEMES)
_POOLED_SCHEME = {**_STEPS, **_LAMBDAS, "t": (float, REQUIRED, POSITIVE),
                  "burn_in": (float, 0.0, NON_NEGATIVE)}
_POOLED = {"schemes": (_list(str), REQUIRED, _SCHEMES),
           "n_replicas": (int, 1, AT_LEAST_1),
           "x0": (_list(float), (0.0,), FINITE)}
_PASSAGE = {"schemes": (_list(str), REQUIRED, _SCHEMES),
            "n_samples": (int, REQUIRED, AT_LEAST_1),
            "t_cap": (float, REQUIRED, POSITIVE),
            "start": (float, REQUIRED, FINITE),
            "threshold": (float, REQUIRED, FINITE),
            "equil_fast_time": (float, 50.0, NON_NEGATIVE)}
_CROSSINGS = ("upcrossing", "downcrossing")

ANALYSES = {
    "histogram": Analysis(_run_stationary, _SDE_MODELS, {
        "scheme": _POOLED_SCHEME,
        "analysis": {**_POOLED, "bin_min": (float, REQUIRED, FINITE),
                     "bin_max": (float, REQUIRED, FINITE),
                     "n_bins": (int, REQUIRED, AT_LEAST_1)}}),
    "variance_vs_lambda": Analysis(_run_stationary, _SDE_MODELS, {
        "scheme": _POOLED_SCHEME, "analysis": _POOLED}),
    "mfpt_vs_lambda": Analysis(_run_mfpt, _SDE_MODELS, {
        "scheme": {**_STEPS, **_LAMBDAS},
        "analysis": {**_PASSAGE, "n_samples": (int, REQUIRED, AT_LEAST_2),
                     "direction": (str, REQUIRED, _one_of(*_CROSSINGS))}}),
    "fpt_cdf": Analysis(_run_fpt_cdf, _SDE_MODELS, {
        "scheme": {**_STEPS, "lambda": (int, REQUIRED, AT_LEAST_1)},
        "analysis": {**_PASSAGE,
                     "direction": (str, REQUIRED,
                                   _one_of(*_CROSSINGS, "both"))}}),
    "quasipotential": Analysis(_run_quasipotential, ("non_diffusive",), {
        "analysis": {"x_min": (float, REQUIRED, POSITIVE),
                     "x_max": (float, REQUIRED, FINITE),
                     "n_points": (int, REQUIRED, AT_LEAST_1)}}),
    "jump_compare": Analysis(_run_jump_compare, ("birth_death",), {
        "analysis": {"x0": (float, REQUIRED, NON_NEGATIVE),
                     "t": (float, REQUIRED, POSITIVE),
                     "tau": (float, REQUIRED, POSITIVE),
                     "n_runs": (int, REQUIRED, AT_LEAST_2)}}),
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
    tables = ANALYSES[cfg.analysis].runner(cfg, executor)
    paths = []
    for table in tables:
        paths.extend(_write_table(out_dir, cfg, table, json_mirror))
    wall = time.perf_counter() - start
    summary = (f"{cfg.name}: {cfg.analysis} finished in {wall:.1f}s -> "
               + ", ".join(str(p) for p in paths))
    return summary, paths
