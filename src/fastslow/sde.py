"""Fast-slow system definitions: models, trajectories and failures.

The systems handled here couple one slow component x with one fast
component y, a scalar Ornstein-Uhlenbeck process at frozen x::

    dx/dt = f(x, y)
    dy    = (1/eps) decay(x) (mean(x) - y) dt + (sigma/sqrt(eps)) dW

The direct Euler-Maruyama step that resolves the stiff system at the fast
scale, and the micro bursts of the multiscale schemes, are the lane
drivers of :mod:`fastslow.ensemble`; :mod:`fastslow.schemes` runs them.
"""

from __future__ import annotations

import math
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
    """The fast process of a model: a scalar OU process at frozen x.

    Its drift is ``decay(x) * (mean(x) - y)`` and its diffusion amplitude
    the constant ``sigma``. ``decay`` and ``mean`` act elementwise on
    arrays of slow lanes and may return anything that broadcasts to them.
    The lane drivers keep the lanes as (B,) arrays and advance the micro
    bursts with a C-level linear recurrence.
    """

    decay: Callable[[np.ndarray], np.ndarray]
    mean: Callable[[np.ndarray], np.ndarray]
    sigma: float


@dataclass(frozen=True)
class FastSlowModel:
    """A fast-slow system: a slow drift and its scalar OU fast process.

    Args:
        f: slow drift f(x, y), elementwise in arrays of lanes.
        scalar_ou: the :class:`ScalarOU` fast process.
        name: label recorded in trajectory metadata.

    The lane drivers call ``f``, ``decay`` and ``mean`` on whole chunks of
    lanes, including lanes that have turned non-finite, so they must be
    pure and accept any float. Raises TypeError when ``scalar_ou`` is not a
    :class:`ScalarOU`.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    scalar_ou: ScalarOU
    name: str = "custom"

    def __post_init__(self):
        if not isinstance(self.scalar_ou, ScalarOU):
            raise TypeError(f"scalar_ou must be a ScalarOU, got "
                            f"{type(self.scalar_ou).__name__}")


@dataclass
class Trajectory:
    """Recorded slow-variable path with provenance metadata.

    ``times`` is strictly increasing and aligned with ``states`` of shape
    (n, d). ``meta`` carries at least the scheme, model, ``eps`` and root
    seed; a :func:`~fastslow.schemes.run_scheme` path also its config hash.
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


def _as_point(value, label: str) -> np.ndarray:
    """A scalar or (1,) start value as one (1,) lane."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape != (1,):
        raise ValueError(f"{label} must be a scalar or have shape (1,), got "
                         f"{arr.shape}")
    return arr


def _positive(name: str, value):
    """``value``; a ValueError naming it unless it is positive and finite."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _positive_int(name: str, value) -> int:
    """``value`` as an int; a ValueError naming it unless it is whole and
    at least 1."""
    if not (math.isfinite(value) and value >= 1 and int(value) == value):
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)
