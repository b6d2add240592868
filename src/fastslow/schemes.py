"""Macro-steppers over a fast-slow model: averaged, HMM and parallel HMM.

All three schemes advance the slow variables with macro step ``macro_dt``.
The HMM estimates the averaged drift from one short burst of the fast
process (micro step ``micro_dt`` on the unit-rate fast clock, so one micro
step advances slow time by ``eps * micro_dt``); the parallel variant
averages ``lam`` independent bursts instead, which restores the correct
fluctuation statistics. Burst length M is derived from
``macro_dt = lam * M * eps * micro_dt``.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .rng import RngStream
from .sde import (FastSlowModel, IntegrationFailure, Trajectory, _as_point,
                  direct_integrate)


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization parameters shared by the multiscale schemes.

    Args:
        eps: time-scale separation.
        lam: integer speed-up factor (1 = no speed-up).
        macro_dt: slow-variable step.
        micro_dt: unit-rate fast-process step; one micro step covers
            ``eps * micro_dt`` of slow time.
        root_seed: seed of the random stream hierarchy.

    The derived burst length ``micro_count`` must satisfy
    ``macro_dt == lam * micro_count * eps * micro_dt`` to one part in 1e12;
    configurations that round worse than that are rejected.
    """

    eps: float
    lam: int
    macro_dt: float
    micro_dt: float
    root_seed: int
    micro_count: int = 0  # derived

    def __post_init__(self):
        for name in ("eps", "macro_dt", "micro_dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got "
                                 f"{value}")
        if self.lam < 1 or int(self.lam) != self.lam:
            raise ValueError(f"lam must be a positive integer, got {self.lam}")
        slow_per_micro = self.lam * self.eps * self.micro_dt
        m = max(1, round(self.macro_dt / slow_per_micro))
        if abs(self.macro_dt - m * slow_per_micro) > 1e-12 * self.macro_dt:
            raise ValueError(
                f"macro_dt={self.macro_dt} is not an integer number of micro "
                f"steps: lam*eps*micro_dt={slow_per_micro}, nearest M={m}")
        object.__setattr__(self, "micro_count", m)
        if self.lam * self.eps > 0.1:
            warnings.warn(
                f"lam*eps = {self.lam * self.eps:.3g} > 0.1; the multiscale "
                "approximation may be inaccurate", stacklevel=2)

    def config_hash(self) -> str:
        text = (f"eps={self.eps!r};lam={self.lam};macro_dt={self.macro_dt!r};"
                f"micro_dt={self.micro_dt!r}")
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def config_for_lambda(cfg: SchemeConfig, lam: int) -> SchemeConfig:
    """Nearest valid config at speed-up ``lam``, treating macro_dt as a target.

    Keeps eps and micro_dt; picks the burst length M closest to the
    requested macro step and recomputes macro_dt = lam*M*eps*micro_dt so the
    exactness invariant holds. Used by lambda sweeps where one macro step
    cannot divide evenly for every lambda.
    """
    slow_per_micro = lam * cfg.eps * cfg.micro_dt
    m = max(1, round(cfg.macro_dt / slow_per_micro))
    return replace(cfg, lam=lam, macro_dt=m * slow_per_micro)


@dataclass(frozen=True)
class MacroState:
    """Macro iterate: step index n, slow value x, and the carried fast states.

    ``replica_fast`` has shape (k, e) with k = 1 for HMM and k = lam for the
    parallel scheme.
    """

    n: int
    x: np.ndarray
    replica_fast: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        rf = np.asarray(self.replica_fast, dtype=float)
        if rf.ndim == 1:
            rf = rf[None, :]
        object.__setattr__(self, "replica_fast", rf)


def averaged_step(F, x, dt: float) -> np.ndarray:
    """One forward Euler step x + dt * F(x) of the averaged flow."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = x + dt * np.asarray(F(x), dtype=float)
    if not np.isfinite(out).all():
        raise IntegrationFailure("non-finite averaged step")
    return out


def _euler_burst(model: FastSlowModel, x, y, xi: np.ndarray, dt: float,
                 first: int = 0):
    """One Euler-Maruyama fast step at frozen x per row of ``xi``.

    Returns ``(f_sum, y_end)``, f summed over the post-update states; a
    failure's ``micro_index`` counts from ``first``.
    """
    sq_dt = math.sqrt(dt)
    f_sum = np.zeros(model.slow_dim)
    for m in range(xi.shape[0]):
        y = (y + dt * np.asarray(model.g(x, y), dtype=float)
             + sq_dt * (np.asarray(model.sigma(x, y), dtype=float) @ xi[m]))
        if not np.isfinite(y).all():
            raise IntegrationFailure("non-finite fast state in micro burst",
                                     micro_index=first + m + 1)
        f_sum += np.asarray(model.f(x, y), dtype=float)
    return f_sum, y


def hmm_micro_burst(model: FastSlowModel, x_frozen, y0, cfg: SchemeConfig,
                    stream: RngStream):
    """Advance the unit-rate fast process for one burst at frozen x.

    Runs M = cfg.micro_count Euler-Maruyama micro steps

        y_{m+1} = y_m + dt g(x, y_m) + sqrt(dt) sigma(x, y_m) xi_m

    and returns ``(f_avg, y_end)`` where f_avg averages f(x, y_m) over the
    post-update states m = 1..M. The Gaussian block for the whole burst is
    drawn from ``stream`` in one call of shape (M, e).
    """
    x = _as_point(x_frozen, model.slow_dim, "x_frozen")
    y = _as_point(y0, model.fast_dim, "y0")
    xi = stream.normals((cfg.micro_count, model.fast_dim))
    f_sum, y = _euler_burst(model, x, y, xi, cfg.micro_dt)
    return f_sum / cfg.micro_count, y


def _replica_step(model: FastSlowModel, state: MacroState, cfg: SchemeConfig,
                  streams: Sequence[RngStream]) -> MacroState:
    """Burst replica j with streams[j] at frozen x_n, then step x by the
    replica mean of f_avg."""
    f_bar = np.zeros(model.slow_dim)
    y_new = np.empty_like(state.replica_fast)
    for j, stream in enumerate(streams):
        try:
            f_avg_j, y_new[j] = hmm_micro_burst(
                model, state.x, state.replica_fast[j], cfg, stream)
        except IntegrationFailure as err:
            raise IntegrationFailure("replica burst failed",
                                     macro_index=state.n,
                                     micro_index=err.micro_index,
                                     replica=j) from err
        f_bar += f_avg_j
    f_bar /= len(streams)
    x_new = state.x + cfg.macro_dt * f_bar
    if not np.isfinite(x_new).all():
        raise IntegrationFailure("non-finite slow state", macro_index=state.n)
    return MacroState(state.n + 1, x_new, y_new)


def hmm_step(model: FastSlowModel, state: MacroState, cfg: SchemeConfig,
             stream: RngStream) -> MacroState:
    """One HMM macro step: burst at frozen x_n, then x_{n+1} = x_n + dt f_avg.

    The burst's final fast state is carried into the returned MacroState.
    """
    if state.replica_fast.shape[0] != 1:
        raise ValueError("hmm_step expects a single carried fast state")
    return _replica_step(model, state, cfg, [stream])


def phmm_step(model: FastSlowModel, state: MacroState, cfg: SchemeConfig,
              streams: Sequence[RngStream]) -> MacroState:
    """One parallel-HMM macro step from ``lam`` independent bursts.

    Replica j advances its own fast copy with its own stream; the slow
    update uses the replica average ``x + dt * mean_j(f_avg_j)``, reduced in
    ascending replica order.
    """
    lam = cfg.lam
    if state.replica_fast.shape[0] != lam:
        raise ValueError(f"expected {lam} carried fast states, "
                         f"got {state.replica_fast.shape[0]}")
    if len(streams) != lam:
        raise ValueError(f"expected {lam} streams, got {len(streams)}")
    return _replica_step(model, state, cfg, streams)


SCHEMES = ("direct", "averaged", "hmm", "phmm")


def run_scheme(model: FastSlowModel, scheme: str, x0, y0, cfg: SchemeConfig,
               T: float) -> Trajectory:
    """Drive the chosen stepper over [0, T] and record the slow path.

    ``scheme`` is one of direct | averaged | hmm | phmm. Macro schemes take
    ceil(T / macro_dt) steps and record every macro iterate; ``direct``
    integrates at step eps*micro_dt and records every step. All randomness
    derives from cfg.root_seed through keyed substreams; :mod:`fastslow.rng`
    documents the key layout.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    base = RngStream(cfg.root_seed)
    meta = {"scheme": scheme, "config_hash": cfg.config_hash(),
            "seed": cfg.root_seed, "model": model.name, "lam": cfg.lam,
            "eps": cfg.eps}

    if scheme == "direct":
        h = cfg.eps * cfg.micro_dt
        traj = direct_integrate(model, x0, y0, cfg.eps, h, T,
                                base.child(-2, 0))
        traj.meta.update(meta)
        return traj

    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be positive and finite, got {T}")
    if T < cfg.macro_dt:
        raise ValueError("T must cover at least one macro step")
    n_steps = math.ceil(T / cfg.macro_dt)
    x = _as_point(x0, model.slow_dim, "x0")
    states = [x.copy()]
    if scheme == "averaged":
        if model.averaged_drift is None:
            raise ValueError("model has no averaged_drift; cannot run the "
                             "averaged scheme")
        for _ in range(n_steps):
            x = averaged_step(model.averaged_drift, x, cfg.macro_dt)
            states.append(x.copy())
    else:
        y = _as_point(y0, model.fast_dim, "y0")
        model.check_shapes(x, y)
        n_rep = cfg.lam if scheme == "phmm" else 1
        state = MacroState(0, x, np.repeat(y[None, :], n_rep, axis=0))
        for n in range(n_steps):
            try:
                if scheme == "hmm":
                    state = hmm_step(model, state, cfg, base.child(0, n))
                else:
                    streams = [base.child(j, n) for j in range(cfg.lam)]
                    state = phmm_step(model, state, cfg, streams)
            except IntegrationFailure as err:
                raise IntegrationFailure(
                    f"{scheme} failed", time=n * cfg.macro_dt, macro_index=n,
                    micro_index=err.micro_index, replica=err.replica) from err
            states.append(state.x.copy())
    times = np.arange(n_steps + 1) * cfg.macro_dt
    return Trajectory(times, np.array(states), meta)
