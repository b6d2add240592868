"""Exact (SSA) and tau-leaping simulation of scaled Markov jump processes.

The state jumps by eps * nu_k at rate a_k(x) / eps, so jumps shrink and
quicken together as eps -> 0 and the path concentrates on the solution of
dx/dt = sum_k a_k(x) nu_k with O(sqrt(eps)) fluctuations. The SSA resolves
every jump; tau-leaping freezes the propensities over windows of length tau
and draws Poisson jump counts per window.

Draw conventions (fixed so single runs and batched ensembles agree bitwise):
the i-th SSA event consumes the i-th value of the stream's exponential
substream ``stream.child(0)`` and of its uniform substream ``stream.child(1)``;
a tau-leap interval consumes one ``poisson(lam_vector)`` call from the
stream's main generator.

An SSA event with uniform u fires the first channel whose cumulative rate
exceeds u times the last cumulative rate, so a zero-rate channel never fires
and the choice does not depend on how the rate total is summed; the waiting
time uses ``rates.sum()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import RngStream
from .sde import Trajectory

_ORTHANT_TOL = 1e-12


@dataclass(frozen=True)
class Reaction:
    """One jump channel: propensity a(x) >= 0 and stoichiometry vector."""

    propensity: Callable
    stoichiometry: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stoichiometry",
                           np.atleast_1d(np.asarray(self.stoichiometry, dtype=float)))


@dataclass(frozen=True)
class JumpModel:
    """A scaled jump process on the nonnegative orthant.

    ``vectorized`` declares that propensities accept states of shape
    (..., dim) and return (...,); the batched drivers require it.
    Propensities are clamped to zero whenever they are negative or the
    corresponding single jump would leave the orthant.
    """

    dim: int
    reactions: tuple
    eps: float
    vectorized: bool = False
    name: str = "jump"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        rx = tuple(r if isinstance(r, Reaction) else Reaction(*r)
                   for r in self.reactions)
        if not rx:
            raise ValueError("need at least one reaction")
        for r in rx:
            if r.stoichiometry.shape != (self.dim,):
                raise ValueError("stoichiometry vectors must have shape (dim,)")
        object.__setattr__(self, "reactions", rx)

    @property
    def stoichiometry_matrix(self) -> np.ndarray:
        return np.stack([r.stoichiometry for r in self.reactions])

    def guarded_rates(self, x: np.ndarray) -> np.ndarray:
        """Propensities at states x (..., dim), clamped per the orthant guard.

        Returns an array of shape (n_reactions, ...).
        """
        x = np.asarray(x, dtype=float)
        rates = np.stack([
            np.maximum(np.broadcast_to(
                np.asarray(r.propensity(x), dtype=float), x.shape[:-1]), 0.0)
            for r in self.reactions])
        nu = self.stoichiometry_matrix  # (m, dim)
        cand = x[None, ...] + self.eps * nu.reshape(
            (len(self.reactions),) + (1,) * (x.ndim - 1) + (self.dim,))
        admissible = (cand >= -_ORTHANT_TOL).all(axis=-1)
        rates = np.where(admissible, rates, 0.0)
        if not np.isfinite(rates).all():
            raise OverflowError("propensity overflow (non-finite rate)")
        return rates


def birth_death(birth: float = 1.0, death: float = 1.0,
                eps: float = 0.01) -> JumpModel:
    """Scaled birth-death chain: constant birth rate, linear death rate.

    Stationary law of x is eps * Poisson(birth / (death * eps)): mean
    birth/death, variance eps * birth/death.
    """
    if birth < 0 or death < 0:
        raise ValueError("rates must be nonnegative")

    def a_birth(x):
        return np.broadcast_to(float(birth), np.asarray(x).shape[:-1]).copy()

    def a_death(x):
        x = np.asarray(x, dtype=float)
        return death * np.clip(x[..., 0], 0.0, None)

    return JumpModel(1, (Reaction(a_birth, [1.0]), Reaction(a_death, [-1.0])),
                     eps, vectorized=True, name="birth_death")


def _meta(model, scheme, stream, absorbed):
    return {"scheme": scheme, "eps": model.eps, "model": model.name,
            "seed": stream.root_seed, "absorbed": absorbed}


def ssa_run(model: JumpModel, x0, T: float, stream: RngStream,
            max_events: int | None = None) -> Trajectory:
    """Gillespie direct method on the scaled process, recording every jump.

    Waiting times are Exp(total_rate / eps); the jump channel is chosen
    proportionally to the guarded propensities. A state with zero total
    propensity is absorbing: the run halts there with ``meta['absorbed']``
    set. Otherwise a terminal snapshot at time T closes the record.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (model.dim,):
        raise ValueError(f"x0 must have shape ({model.dim},)")
    exp_gen = stream.child(0).generator
    uni_gen = stream.child(1).generator
    nu = model.stoichiometry_matrix
    x0_arr = x
    # integer jump counts keep every state exactly on the eps-lattice
    counts = np.zeros(len(model.reactions), dtype=np.int64)
    times, states = [0.0], [x.copy()]
    t = 0.0
    absorbed = False
    events = 0
    chunk = 512
    exps = exp_gen.standard_exponential(chunk)
    unis = uni_gen.random(chunk)
    cursor = 0
    while True:
        rates = model.guarded_rates(x)
        total = float(rates.sum())
        if total <= 0.0:
            absorbed = True
            break
        if cursor == chunk:
            exps = exp_gen.standard_exponential(chunk)
            unis = uni_gen.random(chunk)
            cursor = 0
        t_next = t + model.eps * exps[cursor] / total
        u = unis[cursor]
        cursor += 1
        if t_next > T:
            break
        cum = np.cumsum(rates)
        k = min(int(np.searchsorted(cum, u * cum[-1], side="right")),
                len(rates) - 1)
        counts[k] += 1
        x = x0_arr + model.eps * (counts @ nu)
        t = t_next
        times.append(t)
        states.append(x.copy())
        events += 1
        if max_events is not None and events >= max_events:
            break
    if not absorbed and T > times[-1]:
        times.append(T)
        states.append(x.copy())
    return Trajectory(np.array(times), np.array(states),
                      _meta(model, "ssa", stream, absorbed))


def tau_leap_run(model: JumpModel, x0, T: float, tau: float,
                 stream: RngStream) -> Trajectory:
    """Tau-leaping: frozen propensities per window, Poisson jump counts.

    Windows have length ``tau`` (a shorter final window closes [0, T]); per
    window, channel k fires Poisson(a_k(x) tau / eps) times and the state
    moves by eps times the net stoichiometry. Records every window end.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (model.dim,):
        raise ValueError(f"x0 must have shape ({model.dim},)")
    gen = stream.generator
    nu = model.stoichiometry_matrix
    x0_arr = x
    counts = np.zeros(len(model.reactions), dtype=np.int64)
    n_windows = math.ceil(T / tau)
    times, states = [0.0], [x.copy()]
    t = 0.0
    for w in range(n_windows):
        dt = min(tau, T - t)
        lam = model.guarded_rates(x) * (dt / model.eps)
        counts = counts + gen.poisson(lam)
        x = x0_arr + model.eps * (counts @ nu)
        t = t + dt
        times.append(t)
        states.append(x.copy())
    return Trajectory(np.array(times), np.array(states),
                      _meta(model, "tau_leap", stream, False))


def ssa_final_states(model: JumpModel, x0, T: float, ids,
                     base: RngStream, chunk: int = 512) -> np.ndarray:
    """States at time T of many independent SSA runs, advanced in lockstep.

    Run i consumes exactly the draws of ``base.child(i)`` that a lone
    ``ssa_run(model, x0, T, base.child(i))`` would consume, so the two are
    bitwise interchangeable.
    """
    if not model.vectorized:
        raise ValueError("batched SSA needs a vectorized JumpModel")
    ids = np.asarray(ids, dtype=int)
    n = ids.size
    x0_arr = np.atleast_1d(np.asarray(x0, dtype=float))
    x = np.tile(x0_arr, (n, 1))
    counts = np.zeros((n, len(model.reactions)), dtype=np.int64)
    t = np.zeros(n)
    final = np.empty_like(x)
    pos = np.arange(n)
    exp_gens = base.children(np.column_stack(
        [ids, np.zeros_like(ids)])).generators()
    uni_gens = base.children(np.column_stack(
        [ids, np.ones_like(ids)])).generators()
    nu = model.stoichiometry_matrix
    n_channels = len(model.reactions)
    cursor = chunk
    while pos.size:
        if cursor == chunk:
            exps = np.empty((pos.size, chunk))
            unis = np.empty((pos.size, chunk))
            for i, (eg, ug) in enumerate(zip(exp_gens, uni_gens)):
                exps[i] = eg.standard_exponential(chunk)
                unis[i] = ug.random(chunk)
            cursor = 0
        rates = model.guarded_rates(x)  # (m, B)
        total = rates.sum(axis=0)
        cum = np.cumsum(rates, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_next = t + model.eps * exps[:, cursor] / total
        u_cum = unis[:, cursor] * cum[-1]
        cursor += 1
        # absorbed runs and runs whose next event falls past T both stop
        # at their current state
        done = (total <= 0.0) | (t_next > T)
        if done.any():
            final[pos[done]] = x[done]
            keep = ~done
            pos, x, t_next, counts = pos[keep], x[keep], t_next[keep], counts[keep]
            cum, u_cum = cum[:, keep], u_cum[keep]
            exps, unis = exps[keep], unis[keep]
            exp_gens = [g for g, kp in zip(exp_gens, keep) if kp]
            uni_gens = [g for g, kp in zip(uni_gens, keep) if kp]
            if not pos.size:
                break
        k = np.minimum((cum <= u_cum).sum(axis=0), n_channels - 1)
        counts[np.arange(pos.size), k] += 1
        x = x0_arr[None, :] + model.eps * (counts @ nu)
        t = t_next
    return final


def tau_leap_final_states(model: JumpModel, x0, T: float, tau: float, ids,
                          base: RngStream) -> np.ndarray:
    """States at time T of many independent tau-leaping runs.

    Matches ``tau_leap_run(model, x0, T, tau, base.child(i))`` bitwise for
    run i.
    """
    if not model.vectorized:
        raise ValueError("batched tau-leaping needs a vectorized JumpModel")
    if tau <= 0:
        raise ValueError("tau must be positive")
    ids = np.asarray(ids, dtype=int)
    n = ids.size
    x0_arr = np.atleast_1d(np.asarray(x0, dtype=float))
    x = np.tile(x0_arr, (n, 1))
    counts = np.zeros((n, len(model.reactions)), dtype=np.int64)
    gens = base.children(ids[:, None]).generators()
    nu = model.stoichiometry_matrix
    n_windows = math.ceil(T / tau)
    t = 0.0
    for w in range(n_windows):
        dt = min(tau, T - t)
        lam = model.guarded_rates(x) * (dt / model.eps)  # (m, B)
        step = np.empty_like(counts)
        for i, g in enumerate(gens):
            step[i] = g.poisson(lam[:, i])
        counts += step
        x = x0_arr[None, :] + model.eps * (counts @ nu)
        t += dt
    return x
