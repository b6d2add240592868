"""Builtin fast-slow systems and their analytic oracles.

Three scalar (d = e = 1) systems with an Ornstein-Uhlenbeck-type fast
process:

* ``linear_ou``      dx/dt = y - x,        dy = (theta/eps)(mu x - y) dt + (sigma/sqrt(eps)) dW
* ``double_well``    dx/dt = y - x^3,      same fast process (mu > 0 gives two wells)
* ``non_diffusive``  dx/dt = y^2 - nu x,   dy = -(1/eps) gamma(x) y dt + (sigma/sqrt(eps)) dW

with gamma(x) = x^4/10 - x^2 + 3 (strictly positive, minimum 1/2). Each
model provides its closed-form averaged drift plus, for the linear system,
the stationary variance predicted for the slow variable, and for the
non-diffusive system its fixed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sde import FastSlowModel, ScalarOU


@dataclass(frozen=True)
class LinearOUModel:
    """Linear slow drift coupled to a fast OU process; mu < 1 keeps the
    averaged flow contracting toward the origin."""

    theta: float = 1.0
    mu: float = 0.5
    sigma_f: float = 5.0

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.mu >= 1:
            raise ValueError("mu must be < 1 for a stable averaged flow")
        if self.sigma_f < 0:
            raise ValueError("sigma_f must be nonnegative")

    def averaged_drift(self, x):
        return (self.mu - 1.0) * np.asarray(x, dtype=float)

    def system(self) -> FastSlowModel:
        th, mu = self.theta, self.mu
        return FastSlowModel(
            lambda x, y: y - x, averaged_drift=self.averaged_drift,
            scalar_ou=ScalarOU(decay=lambda x: th,
                               mean=lambda x: mu * np.asarray(x, dtype=float),
                               sigma=self.sigma_f),
            name="linear_ou")


@dataclass(frozen=True)
class DoubleWellModel:
    """Cubic slow drift with the same fast OU process; the averaged flow
    mu*x - x^3 has stable equilibria at +-sqrt(mu)."""

    theta: float = 1.0
    mu: float = 1.0
    sigma_f: float = 15.0

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.mu <= 0:
            raise ValueError("mu must be positive (two wells)")
        if self.sigma_f < 0:
            raise ValueError("sigma_f must be nonnegative")

    def averaged_drift(self, x):
        x = np.asarray(x, dtype=float)
        return self.mu * x - x ** 3

    def system(self) -> FastSlowModel:
        th, mu = self.theta, self.mu
        return FastSlowModel(
            lambda x, y: y - x ** 3, averaged_drift=self.averaged_drift,
            scalar_ou=ScalarOU(decay=lambda x: th,
                               mean=lambda x: mu * np.asarray(x, dtype=float),
                               sigma=self.sigma_f),
            name="double_well")


@dataclass(frozen=True)
class NonDiffusiveModel:
    """Quadratic slow drift driven by the square of a fast OU process whose
    relaxation rate gamma depends on the slow variable."""

    nu: float = 1.0
    sigma_f: float = math.sqrt(3.0)

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.sigma_f <= 0:
            raise ValueError("sigma_f must be positive")

    @staticmethod
    def gamma(x):
        x = np.asarray(x, dtype=float)
        return x ** 4 / 10.0 - x ** 2 + 3.0

    @staticmethod
    def gamma_prime(x):
        x = np.asarray(x, dtype=float)
        return 0.4 * x ** 3 - 2.0 * x

    def averaged_drift(self, x):
        x = np.asarray(x, dtype=float)
        return self.sigma_f ** 2 / (2.0 * self.gamma(x)) - self.nu * x

    def averaged_drift_prime(self, x):
        x = np.asarray(x, dtype=float)
        g = self.gamma(x)
        return -self.sigma_f ** 2 * self.gamma_prime(x) / (2.0 * g ** 2) - self.nu

    def system(self) -> FastSlowModel:
        nu = self.nu
        return FastSlowModel(
            lambda x, y: y ** 2 - nu * x,
            averaged_drift=self.averaged_drift,
            scalar_ou=ScalarOU(decay=self.gamma, mean=lambda x: 0.0,
                               sigma=self.sigma_f),
            name="non_diffusive")


BUILTIN_MODELS = {
    "linear_ou": LinearOUModel,
    "double_well": DoubleWellModel,
    "non_diffusive": NonDiffusiveModel,
}


def make_model(name: str, **params):
    """Instantiate a builtin model by registry name."""
    try:
        cls = BUILTIN_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; builtins: {sorted(BUILTIN_MODELS)}"
        ) from None
    return cls(**params)


def clt_stationary_variance_linear(model: LinearOUModel, eps: float,
                                   lam: int = 1, scheme: str = "direct") -> float:
    """Predicted stationary variance of the slow variable of ``linear_ou``.

    The slow fluctuations see an effective noise covariance equal to twice
    the integrated autocovariance of the fast drift (the Green-Kubo
    factor): eta^2 = 2 * integral_0^inf Cov(f(Y_0), f(Y_tau)) dtau
    = sigma^2/theta^2 for the fast OU process here. With the linearized
    relaxation rate 1 - mu this gives

        Var(x) = eps * eta^2 / (2 (1 - mu)) = eps sigma^2 / (2 theta^2 (1 - mu))

    for direct simulation, which matches the exact stationary Lyapunov
    solution of the full linear system, eps sigma^2 / (2 theta (1-mu)(theta+eps)),
    to leading order in eps. The parallel scheme leaves this unchanged for
    any speed-up factor; the plain HMM inflates it by ``lam``.

    Raises:
        ValueError: if mu >= 1 (no stationary regime) or unknown scheme.
    """
    if model.mu >= 1:
        raise ValueError("no stationary regime for mu >= 1")
    base = eps * model.sigma_f ** 2 / (2.0 * model.theta ** 2 * (1.0 - model.mu))
    if scheme in ("direct", "phmm"):
        return base
    if scheme == "hmm":
        return lam * base
    raise ValueError(f"unknown scheme {scheme!r}")


def fixed_points(model: NonDiffusiveModel, x_max: float = 10.0):
    """The three equilibria of the non-diffusive averaged flow on (0, x_max).

    Scans sign changes of F at resolution 1e-3 and refines each bracket by
    bisection to 1e-10. Returns (left_stable, unstable, right_stable);
    stability is classified by the sign of F'.

    Raises:
        ValueError: if the scan does not find exactly three roots with the
            stable/unstable/stable pattern.
    """
    from scipy.optimize import bisect

    def F(x):
        return float(model.averaged_drift(x))

    grid = np.arange(1e-6, x_max, 1e-3)
    values = model.averaged_drift(grid)
    sign_change = np.nonzero(np.diff(np.sign(values)) != 0)[0]
    roots = [bisect(F, grid[i], grid[i + 1], xtol=1e-10) for i in sign_change]
    if len(roots) != 3:
        raise ValueError(
            f"expected 3 fixed points for nu={model.nu}, sigma={model.sigma_f}; "
            f"found {len(roots)}: {roots}")
    roots.sort()
    slopes = [float(model.averaged_drift_prime(r)) for r in roots]
    if not (slopes[0] < 0 and slopes[1] > 0 and slopes[2] < 0):
        raise ValueError(f"unexpected stability pattern, F' = {slopes}")
    return tuple(roots)
