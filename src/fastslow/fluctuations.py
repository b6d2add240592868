"""Trajectory statistics, first-passage sampling and rare-event predictors.

Covers the small-fluctuation side (stationary moments, histograms) and the
large-fluctuation side: empirical first-passage distributions for the
schemes, the escape-time scaling curve implied by the reduced
quasi-potential of the plain HMM, and the closed-form Hamiltonian and
quasi-potential of the non-diffusive builtin model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .ensemble import first_passage_block, map_blocks
from .models import NonDiffusiveModel
from .rng import RngStream
from .schemes import SchemeConfig, config_for_lambda
from .sde import FastSlowModel, Trajectory


# ---------------------------------------------------------------------------
# stationary statistics


def stationary_variance(traj: Trajectory, burn_in: float) -> np.ndarray:
    """Sample variance of each slow component over t > burn_in.

    Raises:
        ValueError: if fewer than two samples remain after the burn-in.
    """
    keep = traj.times > burn_in
    if keep.sum() < 2:
        raise ValueError(
            f"need at least 2 samples after burn_in={burn_in}, "
            f"trajectory ends at t={traj.times[-1]}")
    return np.var(traj.states[keep], axis=0, ddof=1)


@dataclass(frozen=True)
class HistogramResult:
    """Bin counts plus the two overflow bins outside the edge range."""

    edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow


def histogram_of_samples(samples: np.ndarray, bin_edges) -> HistogramResult:
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("bin_edges must be strictly ascending with >= 2 entries")
    samples = np.asarray(samples, dtype=float).reshape(-1)
    counts, _ = np.histogram(samples, bins=edges)
    underflow = int(np.sum(samples < edges[0]))
    overflow = int(np.sum(samples > edges[-1]))
    return HistogramResult(edges, counts, underflow, overflow)


def histogram(traj: Trajectory, burn_in: float, bin_edges,
              component: int = 0) -> HistogramResult:
    """Histogram of one slow component over t > burn_in; out-of-range
    samples land in the two overflow bins."""
    keep = traj.times > burn_in
    if keep.sum() < 1:
        raise ValueError("no samples after burn_in")
    return histogram_of_samples(traj.states[keep, component], bin_edges)


def occupancy_fraction(samples: np.ndarray, center: float,
                       halfwidth: float) -> float:
    """Fraction of samples within [center - halfwidth, center + halfwidth]."""
    samples = np.asarray(samples, dtype=float).reshape(-1)
    inside = np.abs(samples - center) <= halfwidth
    return float(inside.mean())


# ---------------------------------------------------------------------------
# empirical CDFs and the Kolmogorov-Smirnov distance


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_a(t) - F_b(t)|
    over the pooled values; F_a is the right-continuous empirical CDF, k/n
    at the k-th smallest of the n values. Raises ValueError if either
    sample is empty."""
    a, b = (np.sort(np.asarray(v, dtype=float).reshape(-1)) for v in (a, b))
    if a.size == 0 or b.size == 0:
        raise ValueError("empirical CDF needs at least one sample")
    grid = np.concatenate([a, b])
    cdf_a, cdf_b = (np.searchsorted(v, grid, side="right") / v.size
                    for v in (a, b))
    return float(np.max(np.abs(cdf_a - cdf_b)))


# ---------------------------------------------------------------------------
# first-passage sampling


@dataclass(frozen=True)
class BasinSpec:
    """Start point plus the threshold whose crossing ends a passage run."""

    start_point: float
    target_threshold: float
    direction: str = "upcrossing"

    def __post_init__(self):
        if self.direction not in ("upcrossing", "downcrossing"):
            raise ValueError("direction must be 'upcrossing' or 'downcrossing'")
        if self.target_threshold == self.start_point:
            raise ValueError("threshold must differ from the start point")
        if self.direction == "upcrossing" and self.target_threshold < self.start_point:
            raise ValueError("upcrossing threshold must lie above the start point")
        if self.direction == "downcrossing" and self.target_threshold > self.start_point:
            raise ValueError("downcrossing threshold must lie below the start point")


def first_passage_times(model: FastSlowModel, scheme: str, cfg: SchemeConfig,
                        basin: BasinSpec, n_samples: int, t_cap: float,
                        equil_fast_time: float = 50.0, block_size: int = 64,
                        executor=None) -> tuple[np.ndarray, np.ndarray]:
    """Sample first-passage times of the slow variable for one scheme.

    Each sample starts at basin.start_point with a fast state equilibrated
    by ``equil_fast_time`` units of unit-rate fast time, and runs until the
    threshold crossing or ``t_cap``. Sample i draws from the substreams of
    ``RngStream(cfg.root_seed)`` keyed by i, so results do not depend on
    block size, executor or worker count.
    Returns (elapsed, censored) arrays in sample order; censored samples
    carry elapsed = t_cap and should be excluded from means.

    Raises:
        RuntimeError: if every sample was censored.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    base = RngStream(cfg.root_seed)

    def run(ids):
        return first_passage_block(model, scheme, cfg, basin, ids, t_cap,
                                   base, equil_fast_time)

    parts = map_blocks(run, n_samples, block_size, executor)
    elapsed = np.concatenate([p[0] for p in parts])
    censored = np.concatenate([p[1] for p in parts])
    if censored.all():
        raise RuntimeError(
            f"all {n_samples} passage samples were censored at t_cap={t_cap}; "
            "increase t_cap")
    return elapsed, censored


@dataclass(frozen=True)
class FptSummary:
    mfpt: float
    stderr: float
    n_censored: int
    n_total: int


def summarize_fpt(elapsed: np.ndarray, censored: np.ndarray) -> FptSummary:
    """Mean and standard error of the uncensored passage times."""
    good = elapsed[~censored]
    if good.size == 0:
        raise RuntimeError("no uncensored samples to summarize")
    stderr = float(good.std(ddof=1) / math.sqrt(good.size)) if good.size > 1 else float("nan")
    return FptSummary(float(good.mean()), stderr, elapsed.size - good.size,
                      elapsed.size)


@dataclass(frozen=True)
class MfptPoint:
    """One row of a mean-first-passage-time sweep, with its passage times
    and censoring flags in sample order (left out of ``==``, which compares
    the row)."""

    scheme: str
    lam: int
    macro_dt: float
    mfpt: float
    stderr: float
    n_censored: int
    n_samples: int
    elapsed: np.ndarray = field(compare=False)
    censored: np.ndarray = field(compare=False)


def mean_first_passage_vs_lambda(model: FastSlowModel, scheme: str,
                                 cfg_base: SchemeConfig, basin: BasinSpec,
                                 lambdas, n_samples: int, t_cap: float,
                                 equil_fast_time: float = 50.0,
                                 executor=None) -> list[MfptPoint]:
    """Mean first-passage time of one scheme across speed-up factors.

    The base config's macro step is treated as a target and snapped per
    lambda so the burst length stays integral (see ``config_for_lambda``).
    """
    if not lambdas:
        raise ValueError("lambdas must be nonempty")
    points = []
    for lam in lambdas:
        cfg = config_for_lambda(cfg_base, int(lam))
        elapsed, censored = first_passage_times(
            model, scheme, cfg, basin, n_samples, t_cap,
            equil_fast_time=equil_fast_time, executor=executor)
        s = summarize_fpt(elapsed, censored)
        points.append(MfptPoint(scheme, int(lam), cfg.macro_dt, s.mfpt,
                                s.stderr, s.n_censored, s.n_total, elapsed,
                                censored))
    return points


def fit_log_mfpt_inverse_lambda(points: list[MfptPoint]):
    """Least-squares fit log(MFPT) = a + b / lambda over sweep points.

    Returns:
        (a, b, r_squared).
    """
    lams = np.array([p.lam for p in points], dtype=float)
    logs = np.log(np.array([p.mfpt for p in points]))
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    b, a = np.polyfit(1.0 / lams, logs, 1)
    fitted = a + b / lams
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(a), float(b), r2


def ldp_escape_prediction(v_barrier: float, eps: float, lam: int,
                          calibration: tuple[int, float]) -> float:
    """Escape-time prediction MFPT0 * exp(V/eps * (1/lam - 1/lam0)).

    The large-deviation theory pins only the exponential rate, which the
    plain HMM divides by its speed-up factor; the prefactor is fixed by one
    calibration point (lam0, MFPT0).
    """
    lam0, mfpt0 = calibration
    if not mfpt0 > 0:
        raise ValueError("calibration MFPT must be positive")
    return mfpt0 * math.exp(v_barrier / eps * (1.0 / lam - 1.0 / lam0))


# ---------------------------------------------------------------------------
# Hamiltonian and quasi-potential of the non-diffusive model


def hamiltonian_nondiffusive(model: NonDiffusiveModel, x: float,
                             theta: float) -> float:
    """Scaled cumulant generating function of the non-diffusive slow drift.

    H(x, theta) = -nu x theta + (gamma(x) - sqrt(gamma(x)^2 - 2 sigma^2 theta)) / 2

    The domain is theta <= gamma^2 / (2 sigma^2), edge included; the
    discriminant is clamped at 0 there so that rounding in the edge itself
    cannot push it out of the domain.

    Raises:
        ValueError: if theta lies beyond the domain edge.
    """
    g = float(model.gamma(x))
    edge = _momentum_edge(model, g)
    if theta > edge:
        raise ValueError(
            f"theta={theta} outside the Hamiltonian domain at x={x}: "
            f"edge gamma^2/(2 sigma^2) = {edge}")
    disc = max(g * g - 2.0 * model.sigma_f ** 2 * theta, 0.0)
    return -model.nu * x * theta + 0.5 * (g - math.sqrt(disc))


def _momentum_edge(model: NonDiffusiveModel, g: float) -> float:
    """Edge gamma^2 / (2 sigma^2) of the Hamiltonian's momentum domain."""
    return g * g / (2.0 * model.sigma_f ** 2)


def quasipotential_derivative(model: NonDiffusiveModel, x: float) -> float:
    """Slope V'(x) of the quasi-potential for x > 0.

    Where nu x gamma(x) <= sigma^2 this is the nonzero root of H(x, .),
    in closed form (nu x gamma(x) - sigma^2/2) / (nu x)^2: positive where
    the averaged drift pushes left (uphill to the right), negative where it
    pushes right. The closed form comes from squaring
    sqrt(gamma^2 - 2 sigma^2 theta) = gamma - 2 nu x theta, which is valid
    only on that branch.

    Past the branch point, nu x gamma(x) > sigma^2 (x > 2.7291 at the
    defaults), the averaged drift pushes left and H(x, .) < 0 on the whole
    of (0, gamma^2/(2 sigma^2)], so theta = 0 is its only root. The slope of
    the rate function, inf over v > 0 of L(x, v)/v with L the Legendre
    transform of H, is then the domain edge gamma^2 / (2 sigma^2), reached
    as v -> infinity. The two branches meet continuously at
    nu x gamma = sigma^2.
    """
    if x <= 0:
        raise ValueError("the quasi-potential derivative is defined for x > 0")
    g = float(model.gamma(x))
    if model.nu * x * g > model.sigma_f ** 2:
        return _momentum_edge(model, g)
    return (model.nu * x * g - 0.5 * model.sigma_f ** 2) / (model.nu * x) ** 2


def quasipotential(model: NonDiffusiveModel, x: float, x_ref: float) -> float:
    """V(x) relative to x_ref by adaptive quadrature of V'.

    ``x_ref`` is conventionally the left stable fixed point, where V := 0.

    Raises:
        ValueError: if the integration range touches x <= 0, where V' is
            singular.
    """
    if x <= 0 or x_ref <= 0:
        raise ValueError("quadrature range must stay within x > 0")
    value, _ = quad(lambda s: quasipotential_derivative(model, s), x_ref, x,
                    epsabs=1e-10, epsrel=1e-10, limit=200)
    return float(value)
