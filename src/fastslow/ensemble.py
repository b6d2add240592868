"""Lane drivers: the only code that steps the fast-slow SDE.

A lane is one chain; the drivers advance a block of lanes in lockstep
while preserving the per-chain stream discipline: lane i draws exactly the
values it would draw when run alone, so results are independent of block
composition, scheduling and worker count. The ensemble functions run many
chains per block; :func:`fastslow.schemes.run_scheme` is a one-lane call
of the same drivers with its own stream keys.

Two field back-ends, picked from ``model.scalar_ou``, each with one micro
burst and one direct Euler step:

* ScalarOU models (all builtins): lanes are (B,) arrays and the arithmetic
  is vectorised. The micro burst reduces to a first-order linear
  recurrence: one ``scipy.signal.lfilter`` call when all lanes share the
  decay, else one loop over time doing lfilter's float operations for all
  lanes, whose output must be C-contiguous (``mean(axis=1)`` sums a
  strided view in another order).
* Models without the hint, of any (d, e): lanes are (B, d) and (B, e)
  arrays, and ``f``, ``g`` and ``sigma`` are called lane by lane.

Macro drivers fold each lane's key prefix once, then only the macro index
per step. The ensemble entry points (:func:`pooled_stationary_samples`,
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


def _require_scalar_ou(model: FastSlowModel):
    if model.scalar_ou is None:
        raise ValueError(
            f"model {model.name!r} has no ScalarOU structure; the batched "
            "drivers support scalar fast-OU models only")
    return model.scalar_ou


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


def _ou_burst(sou, x, y, xi, dt):
    """ScalarOU micro bursts of lanes x, y (B,) with normals xi (B, M)."""
    y_path = _ou_path(sou, x, y, xi, dt)
    f_path = np.asarray(sou.f(x[:, None], y_path), dtype=float)
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


def _point_step(model, x, y, z, dt, sq_dt):
    """One Euler-Maruyama fast step of one lane of a model without the
    hint, driven by the (e,) normals z; ``sq_dt`` is sqrt(dt)."""
    return (y + dt * np.asarray(model.g(x, y), dtype=float)
            + sq_dt * (np.asarray(model.sigma(x, y), dtype=float) @ z))


def _point_burst(model, x, y, xi, dt):
    """Micro bursts of lanes x (B, d), y (B, e) of a model without the hint,
    with normals xi (B, M, e)."""
    sq_dt = math.sqrt(dt)
    f_avg = np.empty((len(x), model.slow_dim))
    y_end = np.empty_like(y)
    for lane, (x_l, y_l) in enumerate(zip(x, y)):
        f_sum = np.zeros(model.slow_dim)
        for m, z in enumerate(xi[lane]):
            y_l = _point_step(model, x_l, y_l, z, dt, sq_dt)
            if not np.isfinite(y_l).all():
                raise IntegrationFailure("non-finite fast state in micro "
                                         "burst", micro_index=m + 1,
                                         replica=lane)
            f_sum += np.asarray(model.f(x_l, y_l), dtype=float)
        f_avg[lane], y_end[lane] = f_sum / xi.shape[1], y_l
    return f_avg, y_end


def _burst(model, x, y, xi, dt):
    """One micro burst of M steps per lane at frozen x.

    ``xi`` holds each lane's (M * e,) normals, step-major. Returns
    (f_avg, y_end): the Birkhoff averages of f over the post-update states
    and the final fast states. A failure's ``replica`` is the lane index.
    """
    if model.scalar_ou is not None:
        return _ou_burst(model.scalar_ou, x, y, xi, dt)
    return _point_burst(model, x, y, xi.reshape(len(x), -1, model.fast_dim),
                        dt)


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


def _replica_streams(base, ids, k, *middle):
    """Streams ``base.child(cid, *middle, rep)`` of k replicas per chain."""
    cids = np.repeat(ids, k)
    return base.children(np.column_stack(
        [cids, *(np.full_like(cids, p) for p in middle),
         np.tile(np.arange(k), len(ids))]))


def _first_bad_lane(*lanes) -> int:
    """The first lane (leading index) holding a non-finite value."""
    ok = [np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in lanes]
    return int(np.argmax(~np.logical_and.reduce(ok)))


def _macro_advance(model, cfg, ids, x, yrep, n, prefix):
    """Advance all chains one macro step; bursts draw from ``prefix.child(n)``.

    ``yrep`` holds k fast replicas per chain, shape (B, k) + fast lane shape.
    """
    n_chains, k = yrep.shape[:2]
    try:
        f_avg, y_end = burst_batch(
            model, np.repeat(x, k, axis=0),
            yrep.reshape((n_chains * k,) + yrep.shape[2:]), prefix.child(n),
            cfg.micro_count, cfg.micro_dt)
    except IntegrationFailure as err:
        chain, rep = divmod(err.replica, k)
        raise IntegrationFailure(
            f"non-finite fast state in the burst of replica {rep}",
            time=n * cfg.macro_dt, macro_index=n,
            micro_index=err.micro_index, replica=int(ids[chain])) from err
    x_new = x + cfg.macro_dt * f_avg.reshape(
        (n_chains, k) + f_avg.shape[1:]).mean(axis=1)
    if not np.isfinite(x_new).all():
        raise IntegrationFailure("non-finite slow state",
                                 time=n * cfg.macro_dt, macro_index=n,
                                 replica=int(ids[_first_bad_lane(x_new)]))
    return x_new, y_end.reshape(yrep.shape)


def _macro_path(model, cfg, ids, x, yrep, prefix, n_steps):
    """Slow lanes x after each of ``n_steps`` macro steps, stacked after the
    start: shape (n_steps + 1,) + x.shape."""
    rec = np.empty((n_steps + 1,) + x.shape)
    rec[0] = x
    for n in range(n_steps):
        x, yrep = _macro_advance(model, cfg, ids, x, yrep, n, prefix)
        rec[n + 1] = x
    return rec


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
    sou = _require_scalar_ou(model)
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains,)).copy()
    if y0 is None:
        y = _fast_mean(sou, x)
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


def _ou_steps(sou, cfg, x, y, xi):
    """Direct Euler steps of ScalarOU lanes (B,); the noise is scaled once
    per chunk and stored step-major."""
    noise = np.multiply(sou.sigma * math.sqrt(cfg.micro_dt), xi.T, order="C")
    h = cfg.eps * cfg.micro_dt
    for m in range(xi.shape[1]):
        f_val = sou.f(x, y)
        y = y + cfg.micro_dt * sou.decay(x) * (sou.mean(x) - y) + noise[m]
        x = x + h * f_val
        yield m, x, y


def _point_steps(model, cfg, x, y, xi):
    """Direct Euler steps of lanes x (B, d), y (B, e) of a model without
    the hint, with normals xi (B, n_steps, e). The lanes are updated in
    place in one copy of x and y, which every step yields."""
    h, dt = cfg.eps * cfg.micro_dt, cfg.micro_dt
    sq_dt = math.sqrt(dt)
    x, y = x.copy(), y.copy()
    lanes = list(zip(x, y))  # row views, written in place
    for m in range(xi.shape[1]):
        for lane, (x_l, y_l) in enumerate(lanes):
            x_new = x_l + h * np.asarray(model.f(x_l, y_l), dtype=float)
            y_l[...] = _point_step(model, x_l, y_l, xi[lane, m], dt, sq_dt)
            x_l[...] = x_new
        yield m, x, y


def _direct_chunk(model, cfg, x, y, gens, n_steps):
    """Iterator of (m, x, y) after each of ``n_steps`` direct Euler steps.

    Lane i first draws its ``n_steps * e`` normals from ``gens[i]``; a
    lane's draws are sequential in its own generator, so the path does not
    depend on how a run is cut into chunks or which lanes share a chunk.
    """
    xi = np.empty((len(gens), n_steps * model.fast_dim))
    for row, g in zip(xi, gens):
        g.standard_normal(out=row)
    if model.scalar_ou is not None:
        return _ou_steps(model.scalar_ou, cfg, x, y, xi)
    return _point_steps(model, cfg, x, y,
                        xi.reshape(len(gens), n_steps, model.fast_dim))


_DIRECT_DRAW = 4096  # direct steps a lane draws at a time (at least a record)


def _direct_path(model, cfg, ids, x, y, gens, n_rec, stride):
    """Slow lanes x at every ``stride``-th of ``n_rec * stride`` direct
    steps, stacked after the start: shape (n_rec + 1,) + x.shape.

    Raises:
        IntegrationFailure: with the step, time and chain id of the first
            record holding a non-finite lane.
    """
    h = cfg.eps * cfg.micro_dt
    rec = np.empty((n_rec + 1,) + x.shape)
    rec[0] = x
    per_draw = max(1, _DIRECT_DRAW // stride)
    for r0 in range(0, n_rec, per_draw):
        chunk = _direct_chunk(model, cfg, x, y, gens,
                              min(per_draw, n_rec - r0) * stride)
        for m, x, y in chunk:
            if (m + 1) % stride:
                continue
            r = r0 + (m + 1) // stride
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                raise IntegrationFailure(
                    "non-finite state in direct integration",
                    time=r * stride * h, step=r * stride,
                    replica=int(ids[_first_bad_lane(x, y)]))
            rec[r] = x
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
    n_chains = ids.size
    n_steps = math.ceil(t_chain / cfg.macro_dt)
    x, yrep = _start_arrays(model, x0, y0, n_chains,
                            cfg.lam if scheme == "phmm" else 1)
    rec = _macro_path(model, cfg, ids, x, yrep,
                      _replica_streams(base, ids, yrep.shape[1]), n_steps)
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
    rec = _direct_path(model, cfg, ids, x, yrep[:, 0],
                       _direct_generators(base, ids), n_rec, stride)
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


def _equilibrate_fast(model, cfg, x, ids, base, equil_fast_time, k):
    """Independent frozen-x fast equilibration for k replicas per chain."""
    sou = _require_scalar_ou(model)
    m_eq = max(1, round(equil_fast_time / cfg.micro_dt))
    xx = np.repeat(x, k)
    streams = _replica_streams(base, ids, k, -1)
    try:
        _, y_end = burst_batch(model, xx, _fast_mean(sou, xx), streams, m_eq,
                               cfg.micro_dt)
    except IntegrationFailure as err:
        chain, rep = divmod(err.replica, k)
        raise IntegrationFailure(
            f"non-finite fast state in the equilibration burst of replica "
            f"{rep}", micro_index=err.micro_index,
            replica=int(ids[chain])) from err
    return y_end.reshape(len(ids), k)


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
    """
    _check_scheme(scheme)
    k = cfg.lam if scheme == "phmm" else 1
    ids = np.asarray(ids, dtype=int)
    n_total = ids.size
    up = basin.direction == "upcrossing"
    thr = basin.target_threshold

    def crossed(xv):
        return xv >= thr if up else xv <= thr

    elapsed = np.full(n_total, float(t_cap))
    censored = np.ones(n_total, dtype=bool)
    x = np.full(n_total, float(basin.start_point))
    pos = np.arange(n_total)
    yrep = _equilibrate_fast(model, cfg, x, ids, base, equil_fast_time, k)

    if scheme == "direct":
        y = yrep[:, 0]
        gens = _direct_generators(base, ids)
        h = cfg.eps * cfg.micro_dt
        n_cap = math.ceil(t_cap / h)
        step = 0
        while pos.size and step < n_cap:
            todo = min(512, n_cap - step)
            # chains that cross keep integrating until the chunk ends; the
            # first crossing in the recorded path is latched
            path = np.empty((todo, pos.size))
            for m, x, y in _direct_chunk(model, cfg, x, y, gens, todo):
                path[m] = x
            cross = crossed(path)
            hit = cross.any(axis=0)
            elapsed[pos[hit]] = (step + cross.argmax(axis=0)[hit] + 1) * h
            censored[pos[hit]] = False
            step += todo
            keep = ~hit
            pos, x, y = pos[keep], x[keep], y[keep]
            gens = [g for g, kp in zip(gens, keep) if kp]
            if pos.size and not (np.isfinite(x).all() and np.isfinite(y).all()):
                bad = int(np.argmax(~(np.isfinite(x) & np.isfinite(y))))
                raise IntegrationFailure("non-finite state in passage sampling",
                                         time=step * h, replica=int(ids[pos[bad]]))
        return elapsed, censored

    prefix = _replica_streams(base, ids, k)
    n_cap = math.ceil(t_cap / cfg.macro_dt)
    n = 0
    while pos.size and n < n_cap:
        x, yrep = _macro_advance(model, cfg, ids[pos], x, yrep, n, prefix)
        n += 1
        hit = crossed(x)
        if hit.any():
            elapsed[pos[hit]] = n * cfg.macro_dt
            censored[pos[hit]] = False
            keep = ~hit
            pos, x, yrep = pos[keep], x[keep], yrep[keep]
            prefix = prefix[np.repeat(keep, k)]
    return elapsed, censored
