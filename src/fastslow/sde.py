"""Fast-slow system definitions and the direct Euler-Maruyama integrator.

The systems handled here couple d slow components x with e fast components
y::

    dx/dt = f(x, y)
    dy    = (1/eps) g(x, y) dt + (1/sqrt(eps)) sigma(x, y) dW

The direct integrator resolves the stiff system at the fast scale; the
multiscale schemes live in :mod:`fastslow.schemes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import RngStream


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

    Declares that d = e = 1, that the fast drift is linear in y,
    ``g(x, y) = decay(x) * (mean(x) - y)``, and that the diffusion amplitude
    is the constant ``sigma``. The batched ensemble engine uses this to
    advance micro bursts with a C-level linear recurrence.
    """

    decay: Callable[[np.ndarray], np.ndarray]
    mean: Callable[[np.ndarray], np.ndarray]
    sigma: float
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]  # broadcasting slow drift


@dataclass(frozen=True)
class FastSlowModel:
    """A fast-slow system given by its vector fields.

    Args:
        slow_dim: dimension d of the slow block.
        fast_dim: dimension e of the fast block.
        f: slow drift, (x: (d,), y: (e,)) -> (d,).
        g: fast drift before the 1/eps scaling, (x, y) -> (e,).
        sigma: fast diffusion before the 1/sqrt(eps) scaling, (x, y) -> (e, e).
        averaged_drift: optional closed-form averaged slow drift F(x),
            required by the ``averaged`` scheme.
        scalar_ou: optional :class:`ScalarOU` structure hint enabling the
            fast batched code paths.
        name: label recorded in trajectory metadata.

    All callables must be pure; output shapes are checked against (d, e) on
    first use by the integrators.
    """

    slow_dim: int
    fast_dim: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    averaged_drift: Callable[[np.ndarray], np.ndarray] | None = None
    scalar_ou: ScalarOU | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.slow_dim < 1 or self.fast_dim < 1:
            raise ValueError("slow_dim and fast_dim must be positive")

    def check_shapes(self, x: np.ndarray, y: np.ndarray) -> None:
        """Verify the declared (d, e) against one evaluation point."""
        fx = np.asarray(self.f(x, y), dtype=float)
        gx = np.asarray(self.g(x, y), dtype=float)
        sx = np.asarray(self.sigma(x, y), dtype=float)
        if fx.shape != (self.slow_dim,):
            raise ValueError(f"f returned shape {fx.shape}, expected ({self.slow_dim},)")
        if gx.shape != (self.fast_dim,):
            raise ValueError(f"g returned shape {gx.shape}, expected ({self.fast_dim},)")
        if sx.shape != (self.fast_dim, self.fast_dim):
            raise ValueError(
                f"sigma returned shape {sx.shape}, expected "
                f"({self.fast_dim}, {self.fast_dim})"
            )


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


def direct_integrate(model: FastSlowModel, x0, y0, eps: float, h: float,
                     T: float, stream: RngStream) -> Trajectory:
    """Integrate the full system over [0, T], recording the slow path.

    Performs ``ceil(T/h)`` Euler-Maruyama steps and records every state
    (the initial state included). Wiener
    increments are consumed from ``stream`` in step order, so results do
    not depend on internal chunking.

    Raises:
        ValueError: for ``eps``, ``h`` or ``T`` not positive and finite.
        IntegrationFailure: carrying the step index of the first
            non-finite state.
    """
    for name, value in (("eps", eps), ("h", h), ("T", T)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if T < h:
        raise ValueError("T must be at least one step h")
    x = _as_point(x0, model.slow_dim, "x0")
    y = _as_point(y0, model.fast_dim, "y0")
    model.check_shapes(x, y)
    n_steps = math.ceil(T / h)
    sq_h_eps = math.sqrt(h / eps)
    h_eps = h / eps

    rec_times = [0.0]
    rec_states = [x.copy()]
    chunk = 4096
    step = 0
    while step < n_steps:
        todo = min(chunk, n_steps - step)
        xi = stream.normals((todo, model.fast_dim))
        for m in range(todo):
            x_new = x + h * np.asarray(model.f(x, y), dtype=float)
            y = (y + h_eps * np.asarray(model.g(x, y), dtype=float)
                 + sq_h_eps * (np.asarray(model.sigma(x, y), dtype=float) @ xi[m]))
            x = x_new
            step += 1
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                raise IntegrationFailure(
                    "non-finite state in direct integration",
                    time=step * h, step=step)
            rec_times.append(step * h)
            rec_states.append(x.copy())

    meta = {"scheme": "direct", "eps": eps, "h": h,
            "seed": stream.root_seed, "model": model.name}
    return Trajectory(np.array(rec_times), np.array(rec_states), meta)
