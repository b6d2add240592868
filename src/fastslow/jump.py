"""Exact (SSA) and tau-leaping simulation of scaled Markov jump processes.

The state jumps by eps * nu_k at rate a_k(x) / eps, so jumps shrink and
quicken together as eps -> 0 and the path concentrates on the solution of
dx/dt = sum_k a_k(x) nu_k with O(sqrt(eps)) fluctuations. The SSA resolves
every jump; tau-leaping freezes the propensities over windows of length tau
and draws Poisson jump counts per window.

Draw conventions (fixed so single runs and batched ensembles agree bitwise):
every draw is a uniform ``random()`` value read from a run's keyed row at
its counter offset (``StreamBlock.uniforms``), so no run owns a generator
and draws made earlier from the same stream object do not shift them.
SSA event j takes values 2j and 2j + 1 of the substream ``stream.child(0)``:
its waiting time is the unit exponential ``-log1p(-u)`` of the first, its
channel uniform the second; a lane reads them 512 events at a time.
Tau-leap window w of an m-channel model consumes values w*m to w*m + m - 1
of the stream itself, one per channel in channel order, zero-rate channels
included, read at most ``_TAU_CHUNK`` windows at a time. Channel k of the
window fires the smallest n with P(Poisson(lam_k) <= n) > u_k: an
inverse-CDF count that depends on its own mean and uniform only. Window w
ends at ``min((w + 1) * tau, T)``, so the last record is exactly T.

An SSA event with uniform u fires the first channel whose cumulative rate
exceeds u times the last cumulative rate, and its waiting time divides by
that same rate, so a zero-rate channel never fires and no run depends on
which other runs share its block. The cumulative rates are summed
sequentially in channel order, one add per channel over all lanes, and a
lane's state is x0 + eps * shift, where shift sums the lane's
stoichiometry vectors elementwise, per SSA event or per tau-leap window
in channel order, so non-integer stoichiometry also gives the same bits
in every block.
``ssa_run`` and ``tau_leap_run`` are one-lane calls of the lockstep lane
kernels behind the batched drivers, and ``JumpModel.guarded_rates``, whose
orthant guard runs lanes last, is the only rate evaluation of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .rng import RngStream, _run_ids
from .sde import Trajectory

_ORTHANT_TOL = 1e-12
_SSA_CHUNK = 512  # SSA events per lane per refill, two draws each
_TAU_CHUNK = 64  # tau-leap windows per uniform refill
_SEARCH_LAM_MAX = 30.0  # Poisson means below it take the CDF search
# largest tau-leap mean: a count 10 standard deviations above it fits int64
_POISSON_LAM_MAX = (np.iinfo(np.int64).max
                    - 10 * math.sqrt(np.iinfo(np.int64).max))


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
    (..., dim) and return (...,); they are then called once on all lanes
    instead of once per lane.
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
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        rx = tuple(r if isinstance(r, Reaction) else Reaction(*r)
                   for r in self.reactions)
        if not rx:
            raise ValueError("need at least one reaction")
        for r in rx:
            if r.stoichiometry.shape != (self.dim,):
                raise ValueError("stoichiometry vectors must have shape (dim,)")
            if not np.isfinite(r.stoichiometry).all():
                raise ValueError("stoichiometry entries must be finite, got "
                                 f"{r.stoichiometry}")
        object.__setattr__(self, "reactions", rx)

    @cached_property
    def stoichiometry_matrix(self) -> np.ndarray:
        """Stoichiometry vectors as rows (n_reactions, dim), read-only."""
        nu = np.stack([r.stoichiometry for r in self.reactions])
        nu.flags.writeable = False
        return nu

    @cached_property
    def _jumps(self) -> np.ndarray:
        """``eps * stoichiometry_matrix``: the single jumps, read-only."""
        jumps = self.eps * self.stoichiometry_matrix
        jumps.flags.writeable = False
        return jumps

    @cached_property
    def _lowered(self) -> tuple[np.ndarray, np.ndarray]:
        """(m, r) coordinates and steps: row k holds the coordinates that
        channel k lowers and its jumps there, padded up to r, the most any
        channel lowers, with coordinates it does not lower at step 0."""
        lowers = self._jumps < 0
        r = int(lowers.sum(axis=1).max())
        coords = np.argsort(~lowers, axis=1, kind="stable")[:, :r]
        steps = np.take_along_axis(np.minimum(self._jumps, 0.0), coords, axis=1)
        return coords, steps

    def guarded_rates(self, x: np.ndarray) -> np.ndarray:
        """Propensities at states x (..., dim), clamped per the orthant guard.

        Returns an array of shape (n_reactions, ...). Channel k is zero
        wherever a propensity is negative or any coordinate of
        x + eps * nu_k is below -1e-12 or NaN. A model that is not
        ``vectorized`` has each propensity called once per lane point. The
        guard runs lanes last; this is the only rate evaluation of the SSA
        and tau-leap kernels.
        """
        x = np.asarray(x, dtype=float)
        points = x.reshape(-1, self.dim)
        rates = np.empty((len(self.reactions),) + x.shape[:-1])
        for k, r in enumerate(self.reactions):
            a = (r.propensity(x) if self.vectorized else np.reshape(
                [r.propensity(p) for p in points], x.shape[:-1]))
            np.maximum(np.asarray(a, dtype=float), 0.0, out=rates[k, ...])
        xt = points.T
        if xt.min(initial=0.0) >= -_ORTHANT_TOL:
            # no coordinate is NaN or below -tol, and fl(x + a) >= x for
            # a >= 0: only the coordinates a channel lowers can block it
            coords, steps = self._lowered
            cand = xt[coords] + steps[:, :, None]  # (m, r, n)
        else:
            cand = xt + self._jumps[:, :, None]  # (m, dim, n)
        admissible = (cand >= -_ORTHANT_TOL).all(axis=1)
        np.copyto(rates, 0.0, where=~admissible.reshape(rates.shape))
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


def _lanes(model, x0, T, n):
    """Checked x0 and horizon T; returns x0, n lanes at x0 and their zero
    displacements (n, dim) in units of eps."""
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and nonnegative, got {T}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 must have shape ({model.dim},)")
    if not (np.isfinite(x0).all() and (x0 >= -_ORTHANT_TOL).all()):
        raise ValueError(f"x0 must be finite and nonnegative, got {x0}")
    # each lane sums its own stoichiometry vectors elementwise in event
    # and channel order, so its state does not depend on its block, and
    # integer vectors keep it exactly on the eps-lattice
    return x0, np.tile(x0, (n, 1)), np.zeros((n, model.dim))


def _ssa(model, x0, T, keys, on_event=lambda t, x: None):
    """Lockstep SSA lanes from x0 to T, one per row of the run key block:
    event j of a run reads values 2j and 2j + 1 of the keyed row of its
    ``child(0)``, kept off the run's own stream so that tau-leaping on the
    same run ids draws independently.

    ``on_event(t, x)`` sees the live lanes at the start and after every
    event. Returns the final states (B, dim) and absorbed flags (B,).
    """
    keys = keys.child(0)
    x0, x, shift = _lanes(model, x0, T, len(keys))
    t = np.zeros(len(x))
    final = np.empty_like(x)
    absorbed = np.zeros(len(x), dtype=bool)
    pos = np.arange(len(x))
    nu = model.stoichiometry_matrix
    n_channels = len(model.reactions)
    on_event(t, x)
    cursor, chunk = _SSA_CHUNK, 0
    while pos.size:
        if cursor == _SSA_CHUNK:
            draws = waits = None  # free the spent chunk before the next read
            draws = keys[pos].uniforms(2 * _SSA_CHUNK, 2 * _SSA_CHUNK * chunk
                                       ).reshape(pos.size, _SSA_CHUNK, 2)
            waits = draws[:, :, 0]  # unit exponentials -log1p(-u), in place
            np.log1p(np.negative(waits, out=waits), out=waits)
            np.negative(waits, out=waits)
            row = np.arange(pos.size)  # chunk row of each live lane
            cursor, chunk = 0, chunk + 1
        # cumulative rates in channel order, one add per channel over all
        # lanes: the sequential sums of np.cumsum without its strided walk
        cum = model.guarded_rates(x)  # (m, B)
        for prev, cur in zip(cum, cum[1:]):
            cur += prev
        total = cum[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_next = t + model.eps * draws[row, cursor, 0] / total
        u_cum = draws[row, cursor, 1] * total
        cursor += 1
        stuck = total <= 0.0
        done = stuck | (t_next > T)
        if done.any():
            final[pos[done]] = x[done]
            absorbed[pos[stuck]] = True
            keep = ~done
            pos, t_next, shift = pos[keep], t_next[keep], shift[keep]
            cum, u_cum, row = cum[:, keep], u_cum[keep], row[keep]
            if not pos.size:
                break
        k = np.minimum((cum <= u_cum).sum(axis=0), n_channels - 1)
        shift += nu[k]
        x = x0 + model.eps * shift
        t = t_next
        on_event(t, x)
    return final, absorbed


def _poisson_search(lam, u):
    """Smallest n with P(Poisson(lam) <= n) > u for 1-D float arrays, by
    summing the CDF from 0.

    One masked loop over every draw: each pass adds the next term to every
    CDF and counts it for the draws whose CDF is still at most u. Every
    operation is elementwise, so a count does not depend on its block, and
    the loop ends once every draw has settled. Near u = 1 the summed CDF
    can stop growing at or below u (at lam = 25 it stalls at 1 - 2**-53);
    such a draw ends at the first term too small to change the sum, whose
    probability is below half an ulp of 1.
    """
    u = u.copy()  # a stalled draw's u is set to -1 to end its search
    # lam is a contiguous copy, so np.exp runs one loop whatever the block
    p = np.exp(-lam)
    cdf = p.copy()
    n = np.zeros(lam.size, dtype=np.int64)
    going = cdf <= u
    k = 0
    while going.any():
        n += going
        k += 1
        p *= lam
        p /= k
        new = cdf + p
        np.copyto(u, -1.0, where=new == cdf)  # settled draws stay settled
        cdf = new
        going = cdf <= u
    return n


def _poisson_quantile(lam, u):
    """Smallest n with P(Poisson(lam) <= n) > u for 1-D float arrays of
    means of at least 30: the ceiling of the three-term Cornish-Fisher
    quantile, corrected by one ``pdtr`` step each way.

    For means from 30 to 1e4 and u in [1e-12, 1 - 1e-12] the ceiling is
    within one count of the quantile that ``pdtr`` gives, at the same cost
    for every mean (``scipy.special.pdtrik`` slows with the mean and gives
    NaN above about 1e12). Far up the tail of means above about 1e6
    ``pdtr`` is itself too close to 1, so there the correction can take
    one count off a right start.
    """
    from scipy import special

    # uniforms from ``Generator.random`` lie in {0} and [2**-53, 1 - 2**-53],
    # where |z| < 8.3: the clip moves only u = 0
    z = np.clip(special.ndtri(u), -8.3, 8.3)
    s = np.sqrt(lam)
    n = np.maximum(np.ceil(lam + z * s + (z * z - 1.0) / 6.0
                           + (z - z ** 3) / (72.0 * s)), 0.0)
    n = np.where((n > 0) & (special.pdtr(n - 1, lam) > u), n - 1, n)
    n = np.where(special.pdtr(n, lam) <= u, n + 1, n)
    return n.astype(np.int64)


def _poisson_counts(lam, u):
    """Poisson counts by inversion: the smallest n with P(N <= n) > u.

    ``lam`` and ``u`` are 1-D float arrays, means in [0, _POISSON_LAM_MAX]
    and uniforms in [0, 1). Means below ``_SEARCH_LAM_MAX`` take
    ``_poisson_search``, the others ``_poisson_quantile``; every count
    depends on its own (lam, u) only.
    """
    near = lam < _SEARCH_LAM_MAX
    n = np.empty(lam.size, dtype=np.int64)
    n[near] = _poisson_search(lam[near], u[near])
    if not near.all():
        n[~near] = _poisson_quantile(lam[~near], u[~near])
    return n


def _window_count(T, tau):
    """The fewest windows of length tau that reach T: window w ends at
    ``min((w + 1) * tau, T)``, so no window is empty and the last ends at
    exactly T, whichever way ``T / tau`` rounds."""
    n = math.ceil(T / tau)
    if n and (n - 1) * tau >= T:
        return n - 1
    return n + 1 if n * tau < T else n


def _tau_windows(model, x0, T, tau, keys, ids):
    """Lockstep tau-leap lanes from x0 to T, one per row of the key block
    and run id; yields ``(t, x)`` with x (B, dim) at t = 0 and after every
    window.

    Each window takes m uniforms per run, one per channel in channel
    order, read from chunks of at most ``_TAU_CHUNK`` windows of every
    run's keyed row.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    x0, x, shift = _lanes(model, x0, T, len(keys))
    nu = model.stoichiometry_matrix
    terms = list(zip(*np.nonzero(nu)))  # (channel, coordinate), row-major
    n_runs, m = len(keys), len(model.reactions)
    n_windows = _window_count(T, tau)
    t = 0.0
    yield t, x
    for window in range(n_windows):
        if window % _TAU_CHUNK == 0:
            size = min(_TAU_CHUNK, n_windows - window)
            draws = keys.uniforms(size * m, window * m)
            # (window, channel, run): one window's uniforms match lam (m, B)
            unis = draws.reshape(n_runs, size, m).transpose(1, 2, 0).copy()
        end = min((window + 1) * tau, T)
        lam = model.guarded_rates(x) * ((end - t) / model.eps)  # (m, B)
        over = ~(lam <= _POISSON_LAM_MAX)
        if over.any():
            k, i = np.argwhere(over)[0]
            raise OverflowError(
                f"tau-leap mean {lam[k, i]:.4g} of channel {k} is above "
                f"{_POISSON_LAM_MAX:.4g}, where counts could overflow int64"
                f" (run {ids[i]}, window {window}, t = {t!r})")
        counts = _poisson_counts(
            lam.ravel(), unis[window % _TAU_CHUNK].ravel()).reshape(m, -1)
        for k, i in terms:  # in channel order for each coordinate
            shift[:, i] += nu[k, i] * counts[k]
        x = x0 + model.eps * shift
        t = end
        yield t, x


def ssa_run(model: JumpModel, x0, T: float, stream: RngStream) -> Trajectory:
    """Gillespie direct method on the scaled process, recording every jump.

    Waiting times are Exp(total_rate / eps); the jump channel is chosen
    proportionally to the guarded propensities. A state with zero total
    propensity is absorbing: the run halts there with ``meta['absorbed']``
    set. Otherwise a terminal snapshot at time T closes the record.
    """
    path = []
    final, absorbed = _ssa(model, x0, T,
                           stream.children(np.empty((1, 0), dtype=int)),
                           lambda t, x: path.append((t[0], x[0])))
    if not absorbed[0] and T > path[-1][0]:
        path.append((T, final[0]))
    times, states = zip(*path)
    return Trajectory(np.array(times, dtype=float), np.array(states),
                      _meta(model, "ssa", stream, bool(absorbed[0])))


def tau_leap_run(model: JumpModel, x0, T: float, tau: float,
                 stream: RngStream) -> Trajectory:
    """Tau-leaping: frozen propensities per window, Poisson jump counts.

    Windows have length ``tau`` (a shorter final window closes [0, T]); per
    window, channel k fires Poisson(a_k(x) tau / eps) times, drawn by
    inversion of one uniform, and the state moves by eps times the net
    stoichiometry. Records every window end, the last at exactly T.
    """
    times, states = zip(*((t, x[0]) for t, x in _tau_windows(
        model, x0, T, tau, stream.children(np.empty((1, 0), dtype=int)),
        [0])))
    return Trajectory(np.array(times), np.array(states),
                      _meta(model, "tau_leap", stream, False))


def ssa_final_states(model: JumpModel, x0, T: float, ids,
                     base: RngStream) -> np.ndarray:
    """States at time T of many independent SSA runs, advanced in lockstep.

    Run i consumes exactly the draws of ``base.child(i)`` that a lone
    ``ssa_run(model, x0, T, base.child(i))`` would consume, so the two are
    bitwise interchangeable.
    """
    ids = _run_ids(ids)
    return _ssa(model, x0, T, base.children(ids[:, None]))[0]


def tau_leap_final_states(model: JumpModel, x0, T: float, tau: float, ids,
                          base: RngStream) -> np.ndarray:
    """States at time T of many independent tau-leaping runs.

    Matches ``tau_leap_run(model, x0, T, tau, base.child(i))`` bitwise for
    run i.
    """
    ids = _run_ids(ids)
    for _, x in _tau_windows(model, x0, T, tau, base.children(ids[:, None]),
                             ids):
        pass
    return x
