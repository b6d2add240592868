"""Fast-slow system definitions: models, trajectories and failures.

The systems handled here couple d slow components x with e fast components
y::

    dx/dt = f(x, y)
    dy    = (1/eps) g(x, y) dt + (1/sqrt(eps)) sigma(x, y) dW

The direct Euler-Maruyama step that resolves the stiff system at the fast
scale, and the micro bursts of the multiscale schemes, are the lane
drivers of :mod:`fastslow.ensemble`; :mod:`fastslow.schemes` runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class IntegrationFailure(RuntimeError):
    """A state component became non-finite during integration.

    Attributes locate the failure: ``time`` (slow time), ``step`` (index of
    the step that produced the bad state), ``macro_index`` / ``micro_index``
    for multiscale schemes, and ``replica`` for ensemble members.
    """

    def __init__(self, message, *, time=None, step=None, macro_index=None,
                 micro_index=None, replica=None):
        parts = [message]
        for name, value in (("time", time), ("step", step),
                            ("macro_index", macro_index),
                            ("micro_index", micro_index),
                            ("replica", replica)):
            if value is not None:
                parts.append(f"{name}={value}")
        super().__init__(", ".join(parts))
        self.time = time
        self.step = step
        self.macro_index = macro_index
        self.micro_index = micro_index
        self.replica = replica


@dataclass(frozen=True)
class ScalarOU:
    """Structure hint for models whose fast process is a scalar OU.

    Declares d = e = 1, the fast drift ``g(x, y) = decay(x) * (mean(x) - y)``
    and the constant diffusion amplitude ``sigma``; a model with the hint
    takes ``g`` and ``sigma`` from it, and its ``f`` must act elementwise.
    The lane drivers keep its lanes as (B,) arrays and advance its micro
    bursts with a C-level linear recurrence; the ensemble entry points
    require it.
    """

    decay: Callable[[np.ndarray], np.ndarray]
    mean: Callable[[np.ndarray], np.ndarray]
    sigma: float


@dataclass(frozen=True)
class FastSlowModel:
    """A fast-slow system given by its vector fields.

    Args:
        slow_dim: dimension d of the slow block.
        fast_dim: dimension e of the fast block.
        f: slow drift, (x: (B, d), y: (B, e)) -> (B, d).
        g: fast drift before the 1/eps scaling, (x, y) -> (B, e).
        sigma: fast diffusion before the 1/sqrt(eps) scaling, -> (B, e, e).
        averaged_drift: optional closed-form averaged slow drift F(x),
            required by the ``averaged`` scheme.
        scalar_ou: optional :class:`ScalarOU` hint, given instead of g and
            sigma.
        name: label recorded in trajectory metadata.

    The fields take B lanes at once, lane i depending on lane i only, and
    return arrays that broadcast to the shapes above (a constant field may
    return ``np.eye(e)``). All callables must be pure; :meth:`check_shapes`
    checks one lane.
    """

    slow_dim: int
    fast_dim: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    averaged_drift: Callable[[np.ndarray], np.ndarray] | None = None
    scalar_ou: ScalarOU | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.slow_dim < 1 or self.fast_dim < 1:
            raise ValueError("slow_dim and fast_dim must be positive")
        sou, fields = self.scalar_ou, (self.g, self.sigma)
        if sou is None and None in fields:
            raise ValueError("a model without a ScalarOU hint needs g and "
                             "sigma")
        if sou is None:
            return
        if (self.slow_dim, self.fast_dim) != (1, 1):
            raise ValueError(f"a ScalarOU model has d = e = 1, got d = "
                             f"{self.slow_dim}, e = {self.fast_dim}")
        if fields != (None, None):
            raise ValueError("a ScalarOU model takes g and sigma from its "
                             "hint; pass f only")
        object.__setattr__(self, "g",
                           lambda x, y: sou.decay(x) * (sou.mean(x) - y))
        object.__setattr__(self, "sigma",
                           lambda x, y: np.full((1, 1), float(sou.sigma)))

    def check_shapes(self, x: np.ndarray, y: np.ndarray) -> None:
        """Verify the declared (d, e) on one lane, x (1, d) and y (1, e)."""
        d, e = self.slow_dim, self.fast_dim
        for label, fn, want in (("f", self.f, (d,)), ("g", self.g, (e,)),
                                ("sigma", self.sigma, (e, e))):
            shape = np.shape(fn(x, y))
            if shape not in (want, (1,) + want):
                raise ValueError(f"{label} returned shape {shape}, expected "
                                 f"{want} or {(1,) + want}")


@dataclass
class Trajectory:
    """Recorded slow-variable path with provenance metadata.

    ``times`` is strictly increasing and aligned with ``states`` of shape
    (n, d). ``meta`` carries at least the scheme name, the config hash and
    the root seed.
    """

    times: np.ndarray
    states: np.ndarray
    meta: dict

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def slow(self, component: int = 0) -> np.ndarray:
        """One slow component as a flat array."""
        return self.states[:, component]


def _as_point(value, dim: int, label: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"{label} must have shape ({dim},), got {arr.shape}")
    return arr
