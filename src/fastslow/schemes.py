"""Multiscale schemes over a fast-slow model: averaged, HMM and parallel HMM.

All three schemes advance the slow variables with macro step ``macro_dt``.
The HMM estimates the averaged drift from one short burst of the fast
process (micro step ``micro_dt`` on the unit-rate fast clock, so one micro
step advances slow time by ``eps * micro_dt``); the parallel variant
averages ``lam`` independent bursts instead, which restores the correct
fluctuation statistics. Burst length M is derived from
``macro_dt = lam * M * eps * micro_dt``.

This module holds the scheme configuration, the averaged Euler step and
:func:`run_scheme`, which runs one path; the bursts and direct Euler steps
of every scheme are the lane drivers of :mod:`fastslow.ensemble`.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .ensemble import _DirectLanes, _fixed_horizon, _MacroLanes, _one_lane
from .rng import RngStream
from .sde import FastSlowModel, IntegrationFailure, Trajectory, _as_point


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

    The derived burst length ``micro_count`` (not an argument) must satisfy
    ``macro_dt == lam * micro_count * eps * micro_dt`` to one part in 1e12;
    configurations that round worse than that are rejected.
    """

    eps: float
    lam: int
    macro_dt: float
    micro_dt: float
    root_seed: int
    micro_count: int = field(init=False)

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


def averaged_step(F, x, dt: float) -> np.ndarray:
    """One forward Euler step x + dt * F(x) of the averaged flow."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = x + dt * np.asarray(F(x), dtype=float)
    if not np.isfinite(out).all():
        raise IntegrationFailure("non-finite averaged step")
    return out


SCHEMES = ("direct", "averaged", "hmm", "phmm")


def run_scheme(model: FastSlowModel, scheme: str, x0, y0, cfg: SchemeConfig,
               T: float) -> Trajectory:
    """Drive the chosen stepper over [0, T] and record the slow path.

    ``scheme`` is one of direct | averaged | hmm | phmm. Macro schemes take
    ceil(T / macro_dt) steps and record every macro iterate; ``direct``
    integrates at step eps*micro_dt and records every step. ``direct``,
    ``hmm`` and ``phmm`` run one lane of the ensemble drivers of
    :mod:`fastslow.ensemble`, so any :class:`FastSlowModel` works. All
    randomness derives from cfg.root_seed through keyed substreams;
    :mod:`fastslow.rng` documents the key layout.

    Raises:
        ValueError: for an unknown scheme, a horizon that is not positive
            and finite or is shorter than one step, or a point or field of
            the wrong shape.
        IntegrationFailure: with the time and step, or macro and micro
            index, of the first non-finite state; a burst failure also
            names the failing replica (0 for hmm, j < lam for phmm).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be positive and finite, got {T}")
    step = cfg.eps * cfg.micro_dt if scheme == "direct" else cfg.macro_dt
    if T < step:
        raise ValueError(f"T must cover at least one step of {step}")
    n_steps = math.ceil(T / step)
    base = RngStream(cfg.root_seed)
    meta = {"scheme": scheme, "config_hash": cfg.config_hash(),
            "seed": cfg.root_seed, "model": model.name, "lam": cfg.lam,
            "eps": cfg.eps}
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
        model.check_shapes(x[None], y[None])
        x, y = _one_lane(model, x), _one_lane(model, y)
        lane = np.zeros(1, dtype=int)  # the chain id failures report
        if scheme == "direct":
            lanes = _DirectLanes(model, cfg, lane, x, y,
                                 [base.child(-2, 0).generator])
        else:
            k = cfg.lam if scheme == "phmm" else 1
            lanes = _MacroLanes(model, cfg, lane, x,
                                np.repeat(y[:, None], k, axis=1),
                                base.children(np.arange(k)[:, None]))
        try:
            rec = _fixed_horizon(lanes, n_steps)
        except IntegrationFailure as err:
            burst = err.__cause__  # on one lane its index is the replica
            if burst is None:
                raise
            raise IntegrationFailure(
                "non-finite fast state in a replica burst", time=err.time,
                macro_index=err.macro_index, micro_index=err.micro_index,
                replica=burst.replica) from err
        states = rec.reshape(n_steps + 1, -1)
    times = np.arange(n_steps + 1) * step
    return Trajectory(times, np.array(states), meta)
