"""Multiscale schemes over a fast-slow model: HMM and parallel HMM.

Both schemes advance the slow variables with macro step ``macro_dt``.
The HMM estimates the averaged drift from one short burst of the fast
process (micro step ``micro_dt`` on the unit-rate fast clock, so one micro
step advances slow time by ``eps * micro_dt``); the parallel variant
averages ``lam`` independent bursts instead, which restores the correct
fluctuation statistics. Burst length M is derived from
``macro_dt = lam * M * eps * micro_dt``.

This module holds the scheme configuration and :func:`run_scheme`, which
runs one direct, HMM or parallel HMM path; the bursts and direct Euler
steps of every scheme are the lane drivers of :mod:`fastslow.ensemble`.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .ensemble import ENSEMBLE_SCHEMES, _fixed_horizon, _lanes, _replica_count
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
        if not (math.isfinite(self.lam) and self.lam >= 1
                and int(self.lam) == self.lam):
            raise ValueError(f"lam must be a positive integer, got {self.lam}")
        object.__setattr__(self, "lam", int(self.lam))
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


def run_scheme(model: FastSlowModel, scheme: str, x0, y0, cfg: SchemeConfig,
               T: float) -> Trajectory:
    """Drive the chosen stepper over [0, T] and record the slow path.

    ``scheme`` is one of direct | hmm | phmm. Macro schemes take
    ceil(T / macro_dt) steps and record every macro iterate; ``direct``
    integrates at step eps*micro_dt and records every step. Each scheme
    runs one lane of the ensemble drivers of :mod:`fastslow.ensemble`.
    ``x0`` and ``y0`` are scalars or of shape (1,). All randomness derives
    from cfg.root_seed through keyed substreams; :mod:`fastslow.rng`
    documents the key layout.

    Raises:
        ValueError: for an unknown scheme, a horizon that is not positive
            and finite or is shorter than one step, a start value that is
            not one scalar, or an ``f`` that does not return shape (1,) on
            one lane or, in a burst, the shape that ``burst_batch`` needs.
        IntegrationFailure: with the time and step, or macro and micro
            index, of the first non-finite state; a burst failure also
            names the failing replica (0 for hmm, j < lam for phmm).
    """
    if scheme not in ENSEMBLE_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of "
                         f"{ENSEMBLE_SCHEMES}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be positive and finite, got {T}")
    meta = {"scheme": scheme, "config_hash": cfg.config_hash(),
            "seed": cfg.root_seed, "model": model.name, "lam": cfg.lam,
            "eps": cfg.eps}
    x, y = _as_point(x0, "x0"), _as_point(y0, "y0")
    shape = np.shape(model.f(x, y))
    if shape != (1,):
        raise ValueError(f"f returned shape {shape} on one lane, expected "
                         "(1,)")
    # one lane, chain id 0, whose chain key is empty
    lanes = _lanes(model, scheme, cfg, np.zeros(1, dtype=int), x,
                   np.repeat(y[:, None], _replica_count(scheme, cfg), axis=1),
                   RngStream(cfg.root_seed).children(np.zeros((1, 0), int)))
    if T < lanes.dt:
        raise ValueError(f"T must cover at least one step of {lanes.dt}")
    try:
        times, rec = _fixed_horizon(lanes, T, lanes.dt)
    except IntegrationFailure as err:
        burst = err.__cause__  # on one lane its index is the replica
        if burst is None:
            raise
        raise IntegrationFailure(
            "non-finite fast state in a replica burst", time=err.time,
            macro_index=err.macro_index, micro_index=err.micro_index,
            replica=burst.replica) from err
    return Trajectory(times, rec, meta)

