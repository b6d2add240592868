"""Lane drivers: the only code that steps the fast-slow SDE.

A lane is one chain; the drivers advance a block of lanes in lockstep
while preserving the per-chain stream discipline: lane i draws exactly the
values it would draw when run alone, so results are independent of block
composition, scheduling and worker count. The ensemble functions run many
chains per block; :func:`fastslow.schemes.run_scheme` is a one-lane call
of the same drivers with its own stream keys.

Two back-ends, picked from ``model.scalar_ou``, each with one micro
burst and one direct Euler step, and each advancing all lanes at once:

* ScalarOU models (all builtins): lanes are (B,) arrays. The micro burst
  reduces to a first-order linear recurrence: one ``scipy.signal.lfilter``
  call when all lanes share the decay, else one loop over time doing
  lfilter's float operations for all lanes, whose output must be
  C-contiguous (``mean(axis=1)`` sums a strided view in another order).
* Models without the hint, of any (d, e): lanes are (B, d) and (B, e)
  arrays, and each step calls ``f``, ``g`` and ``sigma`` once on all of
  them. No field sees a non-finite state: a burst lane that turns
  non-finite keeps its last finite state, and direct steps stop at the
  first non-finite one.

Every run steps its lanes, :class:`_MacroLanes` or :class:`_DirectLanes`,
through one chunked loop, :func:`_chunks`. Macro lanes fold each lane's key
prefix once, then only the macro index per step. The ensemble entry points (:func:`pooled_stationary_samples`,
:func:`scheme_samples`, :func:`direct_samples`, :func:`first_passage_block`)
need the hint: they start (B,) lanes, by default at the fast mean.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import lfilter

from .rng import RngStream, StreamBlock
from .sde import FastSlowModel, IntegrationFailure

ENSEMBLE_SCHEMES = ("direct", "hmm", "phmm")


def _linear_recurrence(a: np.ndarray, u: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Rows of y_m = a_i y_{m-1} + u_{i,m} for m = 1..M given y_0."""
    if a.size == 0:
        return np.empty_like(u)
    if np.all(a == a.flat[0]):
        coeff = float(a.flat[0])
        out, _ = lfilter([1.0], [1.0, -coeff], u, axis=1, zi=(a * y0)[:, None])
        return out
    # lfilter's step is y_m = z + u_m with z = a y_{m-1}; one loop over
    # time does the same float operations for all rows at once
    path = u.T.copy()
    y = y0
    for row in path:
        row += a * y
        y = row
    return path.T.copy()


def _ou_path(sou, x: np.ndarray, y0: np.ndarray, xi: np.ndarray,
             dt: float) -> np.ndarray:
    """Euler fast paths y_1..y_M, shape (B, M), of frozen-x OU chains."""
    kappa = np.broadcast_to(np.asarray(sou.decay(x), dtype=float), x.shape)
    mean = np.broadcast_to(np.asarray(sou.mean(x), dtype=float), x.shape)
    u = (kappa * mean * dt)[:, None] + (sou.sigma * math.sqrt(dt)) * xi
    return _linear_recurrence(1.0 - kappa * dt, u, y0)


def _ou_burst(model, x, y, xi, dt):
    """ScalarOU micro bursts of lanes x, y (B,) with normals xi (B, M)."""
    y_path = _ou_path(model.scalar_ou, x, y, xi, dt)
    f_path = np.asarray(model.f(x[:, None], y_path), dtype=float)
    f_avg = f_path.mean(axis=1)
    y_end = y_path[:, -1]
    bad = ~(np.isfinite(f_avg) & np.isfinite(y_end))
    if bad.any():
        lane = int(np.argmax(bad))
        steps = np.flatnonzero(~(np.isfinite(y_path[lane])
                                 & np.isfinite(f_path[lane])))
        # a lane with finite steps overflowed in the sum of its average
        raise IntegrationFailure(
            "non-finite fast state in micro burst", replica=lane,
            micro_index=int(steps[0]) + 1 if steps.size else xi.shape[1])
    return f_avg, y_end


def _fast_step(model, x, y, z, dt, sq_dt):
    """One Euler-Maruyama fast step of lanes x (B, d), y (B, e) of a model
    without the hint, driven by normals z (B, e); ``sq_dt`` is sqrt(dt)."""
    return (y + dt * model.g(x, y)
            + sq_dt * (model.sigma(x, y) @ z[:, :, None])[:, :, 0])


def _field_burst(model, x, y, xi, dt):
    """Micro bursts of lanes x (B, d), y (B, e) of a model without the hint.
    A lane that turns non-finite keeps its last finite state; the lowest
    such lane fails, at its first non-finite step."""
    sq_dt = math.sqrt(dt)
    xi = xi.reshape(len(x), -1, model.fast_dim)
    f_sum = np.zeros(x.shape)
    failed = np.zeros(len(x), dtype=int)  # first non-finite step, 0 if none
    for m in range(xi.shape[1]):
        y_new = _fast_step(model, x, y, xi[:, m], dt, sq_dt)
        if not np.isfinite(y_new).all():
            bad = ~np.isfinite(y_new).all(axis=1)
            failed[bad & (failed == 0)] = m + 1
            y_new[bad] = y[bad]
        y = y_new
        f_sum += model.f(x, y)
    if failed.any():
        lane = int(np.argmax(failed > 0))
        raise IntegrationFailure("non-finite fast state in micro burst",
                                 micro_index=int(failed[lane]), replica=lane)
    return f_sum / xi.shape[1], y


def _burst(model, x, y, xi, dt):
    """One micro burst of M steps per lane at frozen x.

    ``xi`` holds each lane's (M * e,) normals, step-major. Returns
    (f_avg, y_end): the Birkhoff averages of f over the post-update states
    and the final fast states. A failure's ``replica`` is the lane index.
    """
    burst = _ou_burst if model.scalar_ou is not None else _field_burst
    return burst(model, x, y, xi, dt)


def burst_batch(model: FastSlowModel, x: np.ndarray, y: np.ndarray,
                streams: StreamBlock, m_count: int, dt: float):
    """Advance one micro burst of M steps for a batch of frozen-x chains.

    Args:
        x, y: lanes of frozen slow values and initial fast states: shape
            (B,) for a ScalarOU model, else (B, d) and (B, e).
        streams: a block of B streams; chain i draws its (M, e) Gaussian
            block from stream i.

    Returns:
        (f_avg, y_end): Birkhoff averages over the post-update states and
        the final fast states, lane-major like ``x`` and ``y``.
    """
    xi = streams.normals(m_count * model.fast_dim)
    if xi.shape[0] != x.shape[0]:
        raise ValueError(f"{xi.shape[0]} streams for {x.shape[0]} chains")
    return _burst(model, x, y, xi, dt)


def _burst_failure(err, ids, k, burst, **where):
    """A burst failure of a block of k replicas per chain, naming the chain
    id and the replica."""
    chain, rep = divmod(err.replica, k)
    return IntegrationFailure(
        f"non-finite fast state in the {burst} of replica {rep}",
        micro_index=err.micro_index, replica=int(ids[chain]), **where)


def _replica_streams(base, ids, k, *middle):
    """Streams ``base.child(cid, *middle, rep)`` of k replicas per chain."""
    cids = np.repeat(ids, k)
    return base.children(np.column_stack(
        [cids, *(np.full_like(cids, p) for p in middle),
         np.tile(np.arange(k), len(ids))]))


class _MacroLanes:
    """HMM/PHMM lanes: chain ids, slow lanes x, k fast replicas per chain
    ``yrep`` (B, k) + fast lane shape, and the replicas' key prefix (B * k
    streams). A chunk is one macro step, whose bursts draw from
    ``prefix.child(s)`` for step index s."""

    chunk = 1

    def __init__(self, model, cfg, ids, x, yrep, prefix):
        self.model, self.cfg, self.dt = model, cfg, cfg.macro_dt
        self.ids, self.x, self.yrep, self.prefix = ids, x, yrep, prefix

    def advance(self, s, n):
        """Macro step s; returns the slow and fast lanes after it, each
        stacked along a leading axis of length 1."""
        model, cfg, x, yrep = self.model, self.cfg, self.x, self.yrep
        n_chains, k = yrep.shape[:2]
        try:
            f_avg, y_end = burst_batch(
                model, np.repeat(x, k, axis=0),
                yrep.reshape((n_chains * k,) + yrep.shape[2:]),
                self.prefix.child(s), cfg.micro_count, cfg.micro_dt)
        except IntegrationFailure as err:
            raise _burst_failure(err, self.ids, k, "burst",
                                 time=s * cfg.macro_dt, macro_index=s) from err
        self.x = x + cfg.macro_dt * f_avg.reshape(
            (n_chains, k) + f_avg.shape[1:]).mean(axis=1)
        self.yrep = y_end.reshape(yrep.shape)
        return self.x[None], self.yrep[None]

    def keep(self, mask):
        self.ids, self.x = self.ids[mask], self.x[mask]
        self.yrep = self.yrep[mask]
        self.prefix = self.prefix[np.repeat(mask, self.yrep.shape[1])]

    def failure(self, s, lane):
        return IntegrationFailure("non-finite slow state",
                                  time=s * self.dt, macro_index=s,
                                  replica=int(self.ids[lane]))


def _fast_mean(sou, x: np.ndarray) -> np.ndarray:
    """Frozen-x fast means, one per entry of x."""
    return np.asarray(np.broadcast_to(sou.mean(x), x.shape), dtype=float).copy()


def _one_lane(model, point: np.ndarray) -> np.ndarray:
    """A (dim,) point as one lane: (1,) for a ScalarOU model (d = e = 1),
    else (1, dim)."""
    return point if model.scalar_ou is not None else point[None]


def _start_arrays(model, x0, y0, n_chains, k):
    """Per-chain start values of a ScalarOU model; y0 defaults to the
    frozen-x fast mean."""
    if model.scalar_ou is None:
        raise ValueError(
            f"model {model.name!r} has no ScalarOU structure; the batched "
            "drivers support scalar fast-OU models only")
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains,)).copy()
    if y0 is None:
        y = _fast_mean(model.scalar_ou, x)
    else:
        y = np.broadcast_to(np.asarray(y0, dtype=float), (n_chains,)).copy()
    return x, np.repeat(y[:, None], k, axis=1)


def _check_scheme(scheme: str, allowed=ENSEMBLE_SCHEMES) -> None:
    if scheme not in allowed:
        raise ValueError(f"unsupported scheme {scheme!r}; expected one of "
                         f"{allowed}")


def _direct_generators(base, ids):
    """Long-lived generators of the direct draws ``base.child(cid, -2, 0)``."""
    return base.children(ids[:, None]).child(-2).child(0).generators()


def _ou_steps(model, cfg, x, y, xi):
    """Direct Euler steps of ScalarOU lanes (B,) driven by normals xi (B, n):
    the slow and fast lanes after each step, shape (n, B) each. The noise
    is scaled once per chunk and stored step-major."""
    sou = model.scalar_ou
    noise = np.multiply(sou.sigma * math.sqrt(cfg.micro_dt), xi.T, order="C")
    h, dt = cfg.eps * cfg.micro_dt, cfg.micro_dt
    xs, ys = np.empty_like(noise), np.empty_like(noise)
    for z, x_out, y_out in zip(noise, xs, ys):
        f_val = model.f(x, y)
        y = np.add(y + dt * sou.decay(x) * (sou.mean(x) - y), z, y_out)
        x = np.add(x, h * f_val, x_out)
    return xs, ys


def _field_steps(model, cfg, x, y, xi):
    """Direct Euler steps of lanes x (B, d), y (B, e) of a model without
    the hint, with normals xi (B, n * e): the lanes after each step, shapes
    (n, B, d) and (n, B, e). Stepping stops after the first non-finite step,
    so no field sees a non-finite state; :func:`_chunks` raises there."""
    h, dt = cfg.eps * cfg.micro_dt, cfg.micro_dt
    sq_dt = math.sqrt(dt)
    xi = xi.reshape(len(x), -1, model.fast_dim)
    xs = np.empty((xi.shape[1],) + x.shape)
    ys = np.empty((xi.shape[1],) + y.shape)
    for m in range(xi.shape[1]):
        x_new = x + h * model.f(x, y)
        y = ys[m] = _fast_step(model, x, y, xi[:, m], dt, sq_dt)
        x = xs[m] = x_new
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            return xs[:m + 1], ys[:m + 1]
    return xs, ys


class _DirectLanes:
    """Direct Euler lanes: chain ids, slow and fast lanes x and y, and one
    generator per lane. A chunk is 512 steps, whose ``512 * e`` normals
    each lane first draws from its generator; a lane's draws are sequential
    in its own generator, so its path depends neither on how a run is cut
    into chunks nor on which lanes share a chunk."""

    chunk = 512

    def __init__(self, model, cfg, ids, x, y, gens):
        self.model, self.cfg, self.dt = model, cfg, cfg.eps * cfg.micro_dt
        self.ids, self.x, self.y, self.gens = ids, x, y, gens

    def advance(self, s, n):
        """Steps s + 1 .. s + n; returns the slow and fast lanes after each,
        stacked along a leading axis of length n."""
        model = self.model
        xi = np.empty((len(self.gens), n * model.fast_dim))
        for row, g in zip(xi, self.gens):
            g.standard_normal(out=row)
        steps = _ou_steps if model.scalar_ou is not None else _field_steps
        xs, ys = steps(model, self.cfg, self.x, self.y, xi)
        self.x, self.y = xs[-1], ys[-1]
        return xs, ys

    def keep(self, mask):
        self.ids, self.x, self.y = self.ids[mask], self.x[mask], self.y[mask]
        self.gens = [g for g, kept in zip(self.gens, mask) if kept]

    def failure(self, s, lane):
        return IntegrationFailure("non-finite state in direct integration",
                                  time=(s + 1) * self.dt, step=s + 1,
                                  replica=int(self.ids[lane]))


def _chunks(lanes, n_steps):
    """Advance ``lanes`` over at most ``n_steps`` steps, one chunk at a time.

    Yields (s, path) per chunk: ``path[j]`` holds the slow lanes after step
    s + j + 1. Between chunks the caller may stop lanes with
    ``lanes.keep(mask)``; the loop ends early once no lane is left.

    Raises:
        IntegrationFailure: before a chunk is yielded, if a slow or fast
            lane is non-finite in it; built by ``lanes.failure`` from the
            index of the first such step and that step's first bad lane.
    """
    s = 0
    while s < n_steps and lanes.ids.size:
        path, fast = lanes.advance(s, min(lanes.chunk, n_steps - s))
        if not (np.isfinite(path).all() and np.isfinite(fast).all()):
            n, width = path.shape[:2]
            ok = (np.isfinite(path).reshape(n, width, -1).all(axis=2)
                  & np.isfinite(fast).reshape(n, width, -1).all(axis=2))
            j, lane = divmod(int(np.argmin(ok)), width)
            raise lanes.failure(s + j, lane)
        yield s, path
        s += len(path)


def _fixed_horizon(lanes, n_steps, stride=1):
    """Slow lanes at every ``stride``-th of ``n_steps`` steps, stacked after
    the start: shape (n_steps // stride + 1,) + x.shape."""
    rec = np.empty((n_steps // stride + 1,) + lanes.x.shape)
    rec[0] = lanes.x
    for s, path in _chunks(lanes, n_steps):
        j = -(s + 1) % stride  # the chunk's first recorded row
        rows = path[j::stride]
        r = (s + 1 + j) // stride
        rec[r:r + len(rows)] = rows
    return rec


def map_blocks(fn, n: int, block: int, executor=None) -> list:
    """``fn(ids)`` for consecutive id blocks of range(n), on ``executor`` if
    given; results come back in block order whatever order they finish in.
    Raises ValueError for a block size below 1."""
    if block < 1:
        raise ValueError(f"block size must be a positive integer, got {block}")
    blocks = [np.arange(lo, min(lo + block, n)) for lo in range(0, n, block)]
    if executor is None:
        return [fn(ids) for ids in blocks]
    futures = [executor.submit(fn, ids) for ids in blocks]
    return [fut.result() for fut in futures]


def scheme_samples(model: FastSlowModel, scheme: str, cfg, x0, y0,
                   t_chain: float, ids, base: RngStream):
    """Slow-variable samples of a block of hmm/phmm chains.

    Each chain cid in ``ids`` runs ceil(t_chain/macro_dt) macro steps; the
    recorded value at every macro time is returned as (n_rec, B). The fast
    replicas are carried across macro steps. ``x0``/``y0`` may be scalars or
    per-chain arrays; ``y0=None`` starts each fast replica at the frozen-x
    mean.
    """
    _check_scheme(scheme, ("hmm", "phmm"))
    ids = np.asarray(ids, dtype=int)
    k = cfg.lam if scheme == "phmm" else 1
    n_steps = math.ceil(t_chain / cfg.macro_dt)
    x, yrep = _start_arrays(model, x0, y0, ids.size, k)
    rec = _fixed_horizon(_MacroLanes(model, cfg, ids, x, yrep,
                                     _replica_streams(base, ids, k)), n_steps)
    times = np.arange(n_steps + 1) * cfg.macro_dt
    return times, rec


def direct_samples(model: FastSlowModel, cfg, x0, y0, t_chain: float, ids,
                   base: RngStream, record_dt: float | None = None):
    """Slow-variable samples of a block of direct chains.

    Integrates at step h = eps*micro_dt and records every ``record_dt`` of
    slow time (default: cfg.macro_dt). Chain cid draws sequentially from
    ``base.child(cid, -2, 0)``.
    """
    ids = np.asarray(ids, dtype=int)
    h = cfg.eps * cfg.micro_dt
    if record_dt is None:
        record_dt = cfg.macro_dt
    stride = max(1, round(record_dt / h))
    n_rec = math.ceil(t_chain / (stride * h))
    x, yrep = _start_arrays(model, x0, y0, ids.size, 1)
    rec = _fixed_horizon(_DirectLanes(model, cfg, ids, x, yrep[:, 0],
                                      _direct_generators(base, ids)),
                         n_rec * stride, stride)
    times = np.arange(n_rec + 1) * (stride * h)
    return times, rec


def pooled_stationary_samples(model: FastSlowModel, scheme: str, cfg,
                              x0, y0, t_total: float,
                              n_chains: int, burn_in: float,
                              base: RngStream, executor=None,
                              chain_block: int = 16) -> np.ndarray:
    """Post-burn-in slow samples pooled over an ensemble of chains.

    The time budget ``t_total`` is split evenly: each chain simulates
    t_total/n_chains of slow time and contributes its samples with
    t > burn_in. ``x0`` may be a per-chain array for split starting points.
    Chains are processed in fixed blocks (optionally across an executor);
    the pooled order is by chain id then time, so the result is
    worker-count independent.

    Raises:
        ValueError: for a scheme other than direct, hmm or phmm, for
            ``n_chains`` or ``chain_block`` below 1, or when the per-chain
            time does not exceed ``burn_in``.
    """
    _check_scheme(scheme)
    if n_chains < 1:
        raise ValueError(f"n_chains must be a positive integer, got {n_chains}")
    if t_total / n_chains <= burn_in:
        raise ValueError("per-chain time must exceed burn_in")
    t_chain = t_total / n_chains
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains,))

    def run(ids):
        if scheme == "direct":
            times, rec = direct_samples(model, cfg, x0[ids], y0, t_chain,
                                        ids, base)
        else:
            times, rec = scheme_samples(model, scheme, cfg, x0[ids], y0,
                                        t_chain, ids, base)
        return rec[times > burn_in]

    parts = map_blocks(run, n_chains, chain_block, executor)
    return np.concatenate([p.T.reshape(-1) for p in parts])


def _equilibrate_fast(model, cfg, x, yrep, ids, base, equil_fast_time):
    """Fast replicas yrep (B, k) after frozen-x equilibration bursts."""
    k = yrep.shape[1]
    m_eq = max(1, round(equil_fast_time / cfg.micro_dt))
    try:
        _, y_end = burst_batch(model, np.repeat(x, k), yrep.reshape(-1),
                               _replica_streams(base, ids, k, -1), m_eq,
                               cfg.micro_dt)
    except IntegrationFailure as err:
        raise _burst_failure(err, ids, k, "equilibration burst") from err
    return y_end.reshape(yrep.shape)


def first_passage_block(model: FastSlowModel, scheme: str, cfg, basin,
                        ids, t_cap: float, base: RngStream,
                        equil_fast_time: float = 50.0):
    """First-passage times for a block of chains of one scheme.

    Every chain starts at basin.start_point with a freshly equilibrated fast
    state and runs until its slow variable crosses basin.target_threshold in
    the given direction or until ``t_cap``. Returns (elapsed, censored)
    arrays aligned with ``ids``; censored chains carry elapsed = t_cap.
    Direct lanes step in chunks of 512 steps and leave at the end of the
    chunk in which they crossed; macro lanes leave after the crossing step.
    Each lane records its first crossing step.
    """
    _check_scheme(scheme)
    k = cfg.lam if scheme == "phmm" else 1
    ids = np.asarray(ids, dtype=int)
    x, yrep = _start_arrays(model, basin.start_point, None, ids.size, k)
    yrep = _equilibrate_fast(model, cfg, x, yrep, ids, base, equil_fast_time)
    if scheme == "direct":
        lanes = _DirectLanes(model, cfg, ids, x, yrep[:, 0],
                             _direct_generators(base, ids))
    else:
        lanes = _MacroLanes(model, cfg, ids, x, yrep,
                            _replica_streams(base, ids, k))
    up = basin.direction == "upcrossing"
    thr = basin.target_threshold
    elapsed = np.full(ids.size, float(t_cap))
    censored = np.ones(ids.size, dtype=bool)
    pos = np.arange(ids.size)
    for s, path in _chunks(lanes, math.ceil(t_cap / lanes.dt)):
        cross = path >= thr if up else path <= thr
        if cross.any():
            hit = cross.any(axis=0)
            elapsed[pos[hit]] = (s + cross.argmax(axis=0)[hit] + 1) * lanes.dt
            censored[pos[hit]] = False
            pos = pos[~hit]
            lanes.keep(~hit)
    return elapsed, censored
