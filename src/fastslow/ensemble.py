"""Lockstep batched drivers for ensembles of independent chains.

Every statistics-grade computation (stationary sampling, first-passage
sampling, Birkhoff drift estimates) runs many independent chains. The
drivers here advance all chains of a block in lockstep with vectorized
numpy arithmetic while preserving the per-chain stream discipline: chain i
draws exactly the values it would draw when run alone, so results are
independent of block composition, scheduling and worker count.

The fast paths require a model with a :class:`fastslow.sde.ScalarOU`
structure hint (all builtin models have one): the micro burst then reduces
to a first-order linear recurrence evaluated by ``scipy.signal.lfilter``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import lfilter

from .rng import RngStream, StreamBlock
from .sde import FastSlowModel, IntegrationFailure


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
    out = np.empty_like(u)
    for i in range(a.shape[0]):
        out[i], _ = lfilter([1.0], [1.0, -float(a[i])], u[i], zi=[a[i] * y0[i]])
    return out


def burst_batch(model: FastSlowModel, x: np.ndarray, y: np.ndarray,
                streams: StreamBlock, m_count: int, dt: float):
    """Advance one micro burst of M steps for a batch of frozen-x chains.

    Args:
        x, y: shape (B,) frozen slow values and initial fast states.
        streams: a block of B streams; chain i draws its (M,) Gaussian block
            from stream i, matching the single-chain burst draw convention.

    Returns:
        (f_avg, y_end): shape (B,) Birkhoff averages over the post-update
        states and the final fast states.
    """
    sou = _require_scalar_ou(model)
    xi = streams.normals(m_count)
    if xi.shape[0] != x.shape[0]:
        raise ValueError(f"{xi.shape[0]} streams for {x.shape[0]} chains")
    kappa = np.broadcast_to(np.asarray(sou.decay(x), dtype=float), x.shape)
    mean = np.broadcast_to(np.asarray(sou.mean(x), dtype=float), x.shape)
    a = 1.0 - kappa * dt
    u = (kappa * mean * dt)[:, None] + (sou.sigma * math.sqrt(dt)) * xi
    y_path = _linear_recurrence(a, u, y)
    f_avg = np.asarray(sou.f(x[:, None], y_path), dtype=float).mean(axis=1)
    y_end = y_path[:, -1]
    bad = ~(np.isfinite(f_avg) & np.isfinite(y_end))
    if bad.any():
        raise IntegrationFailure("non-finite fast state in batched burst",
                                 replica=int(np.argmax(bad)))
    return f_avg, y_end


def frozen_drift_estimate(model: FastSlowModel, x, micro_dt: float,
                          t_burn: float, t_avg: float,
                          stream: RngStream) -> np.ndarray:
    """Time average of f(x, y) along the frozen-x unit-rate fast process.

    Runs ceil(t_burn/micro_dt) discarded micro steps followed by
    ceil(t_avg/micro_dt) averaged ones, drawing all Gaussians sequentially
    from ``stream``. Structured models start at the frozen-x fast mean,
    generic ones at the origin; the burn window absorbs the difference.
    """
    m_burn = math.ceil(t_burn / micro_dt) if t_burn > 0 else 0
    m_avg = math.ceil(t_avg / micro_dt)
    if m_avg < 1:
        raise ValueError("t_avg must cover at least one micro step")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))

    if model.scalar_ou is not None and x_arr.shape == (1,):
        sou = model.scalar_ou
        xi = stream.normals(m_burn + m_avg)[None, :]
        kappa = np.atleast_1d(np.asarray(sou.decay(x_arr), dtype=float))
        mean = np.broadcast_to(
            np.asarray(sou.mean(x_arr), dtype=float), x_arr.shape)
        y0 = mean.copy()
        u = (kappa * mean * micro_dt)[:, None] + (
            sou.sigma * math.sqrt(micro_dt)) * xi
        y_path = _linear_recurrence(1.0 - kappa * micro_dt, u, y0)
        f_path = np.asarray(sou.f(x_arr[:, None], y_path), dtype=float)
        return np.atleast_1d(f_path[0, m_burn:].mean())

    # generic model: plain micro-step loop
    y = np.zeros(model.fast_dim)
    sq_dt = math.sqrt(micro_dt)
    xi = stream.normals((m_burn + m_avg, model.fast_dim))
    f_sum = np.zeros(model.slow_dim)
    for m in range(m_burn + m_avg):
        y = (y + micro_dt * np.asarray(model.g(x_arr, y), dtype=float)
             + sq_dt * (np.asarray(model.sigma(x_arr, y), dtype=float) @ xi[m]))
        if not np.isfinite(y).all():
            raise IntegrationFailure("non-finite fast state", micro_index=m + 1)
        if m >= m_burn:
            f_sum += np.asarray(model.f(x_arr, y), dtype=float)
    return f_sum / m_avg


def _macro_advance(model, cfg, ids, x, yrep, n, base):
    """One lockstep macro step for all chains; returns updated (x, yrep)."""
    n_chains, k = yrep.shape
    xx = np.repeat(x, k)
    cids, reps = np.repeat(ids, k), np.tile(np.arange(k), n_chains)
    streams = base.children(np.column_stack(
        [cids, reps, np.full_like(cids, n)]))
    f_avg, y_end = burst_batch(model, xx, yrep.reshape(-1), streams,
                               cfg.micro_count, cfg.micro_dt)
    x_new = x + cfg.macro_dt * f_avg.reshape(n_chains, k).mean(axis=1)
    if not np.isfinite(x_new).all():
        chain = int(np.argmax(~np.isfinite(x_new)))
        raise IntegrationFailure("non-finite slow state",
                                 macro_index=n, replica=int(ids[chain]))
    return x_new, y_end.reshape(n_chains, k)


def _start_arrays(model, x0, y0, n_chains, k):
    """Per-chain start values; y0 defaults to the frozen-x fast mean."""
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains,)).copy()
    if y0 is None:
        sou = _require_scalar_ou(model)
        y = np.asarray(np.broadcast_to(sou.mean(x), x.shape), dtype=float).copy()
    else:
        y = np.broadcast_to(np.asarray(y0, dtype=float), (n_chains,)).copy()
    return x, np.repeat(y[:, None], k, axis=1)


def _direct_generators(base, ids):
    """Long-lived generators of the direct draws ``base.child(cid, -2, 0)``."""
    return base.children(np.column_stack(
        [ids, np.full_like(ids, -2), np.zeros_like(ids)])).generators()


def scheme_samples(model: FastSlowModel, scheme: str, cfg, x0, y0,
                   t_chain: float, ids, base: RngStream):
    """Slow-variable samples of a block of hmm/phmm chains.

    Each chain cid in ``ids`` runs ceil(t_chain/macro_dt) macro steps; the
    recorded value at every macro time is returned as (n_rec, B). The fast
    replicas are carried across macro steps. ``x0``/``y0`` may be scalars or
    per-chain arrays; ``y0=None`` starts each fast replica at the frozen-x
    mean.
    """
    ids = np.asarray(ids, dtype=int)
    n_chains = ids.size
    n_steps = math.ceil(t_chain / cfg.macro_dt)
    x, yrep = _start_arrays(model, x0, y0, n_chains,
                            cfg.lam if scheme == "phmm" else 1)
    rec = np.empty((n_steps + 1, n_chains))
    rec[0] = x
    for n in range(n_steps):
        x, yrep = _macro_advance(model, cfg, ids, x, yrep, n, base)
        rec[n + 1] = x
    times = np.arange(n_steps + 1) * cfg.macro_dt
    return times, rec


def direct_samples(model: FastSlowModel, cfg, x0, y0, t_chain: float, ids,
                   base: RngStream, record_dt: float | None = None):
    """Slow-variable samples of a block of direct chains.

    Integrates at step h = eps*micro_dt and records every ``record_dt`` of
    slow time (default: cfg.macro_dt). Chain cid draws sequentially from
    ``base.child(cid, -2, 0)``.
    """
    sou = _require_scalar_ou(model)
    ids = np.asarray(ids, dtype=int)
    n_chains = ids.size
    h = cfg.eps * cfg.micro_dt
    if record_dt is None:
        record_dt = cfg.macro_dt
    stride = max(1, round(record_dt / h))
    n_rec = math.ceil(t_chain / (stride * h))
    gens = _direct_generators(base, ids)
    x, yrep = _start_arrays(model, x0, y0, n_chains, 1)
    y = yrep[:, 0]
    rec = np.empty((n_rec + 1, n_chains))
    rec[0] = x
    s_amp = sou.sigma * math.sqrt(cfg.micro_dt)
    for r in range(n_rec):
        xi = np.empty((n_chains, stride))
        for row, g in zip(xi, gens):
            g.standard_normal(out=row)
        for m in range(stride):
            f_val = sou.f(x, y)
            y = y + cfg.micro_dt * sou.decay(x) * (sou.mean(x) - y) + s_amp * xi[:, m]
            x = x + h * f_val
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            chain = int(np.argmax(~(np.isfinite(x) & np.isfinite(y))))
            raise IntegrationFailure("non-finite state in direct block",
                                     time=(r + 1) * stride * h,
                                     replica=int(ids[chain]))
        rec[r + 1] = x
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
    """
    if t_total / n_chains <= burn_in:
        raise ValueError("per-chain time must exceed burn_in")
    t_chain = t_total / n_chains
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains,))
    blocks = [np.arange(lo, min(lo + chain_block, n_chains))
              for lo in range(0, n_chains, chain_block)]

    def run(ids):
        if scheme == "direct":
            times, rec = direct_samples(model, cfg, x0[ids], y0, t_chain,
                                        ids, base)
        else:
            times, rec = scheme_samples(model, scheme, cfg, x0[ids], y0,
                                        t_chain, ids, base)
        return rec[times > burn_in]

    if executor is None:
        parts = [run(ids) for ids in blocks]
    else:
        futures = [executor.submit(run, ids) for ids in blocks]
        parts = [fut.result() for fut in futures]
    return np.concatenate([p.T.reshape(-1) for p in parts])


def _equilibrate_fast(model, cfg, x, ids, base, equil_fast_time, k):
    """Independent frozen-x fast equilibration for k replicas per chain."""
    sou = _require_scalar_ou(model)
    m_eq = max(1, round(equil_fast_time / cfg.micro_dt))
    xx = np.repeat(x, k)
    y0 = np.asarray(np.broadcast_to(sou.mean(xx), xx.shape), dtype=float).copy()
    cids, reps = np.repeat(ids, k), np.tile(np.arange(k), len(ids))
    streams = base.children(np.column_stack(
        [cids, np.full_like(cids, -1), reps]))
    _, y_end = burst_batch(model, xx, y0, streams, m_eq, cfg.micro_dt)
    return y_end.reshape(len(ids), k)


def first_passage_block(model: FastSlowModel, scheme: str, cfg, basin,
                        ids, t_cap: float, base: RngStream,
                        equil_fast_time: float = 50.0):
    """First-passage times for a block of chains of one scheme.

    Every chain starts at basin.start_point with a freshly equilibrated fast
    state and runs until its slow variable crosses basin.target_threshold in
    the given direction or until ``t_cap``. Returns (elapsed, censored)
    arrays aligned with ``ids``; censored chains carry elapsed = t_cap.
    """
    sou = _require_scalar_ou(model)
    ids = np.asarray(ids, dtype=int)
    n_total = ids.size
    up = basin.direction == "upcrossing"
    thr = basin.target_threshold

    def crossed(xv):
        return xv >= thr if up else xv <= thr

    elapsed = np.full(n_total, float(t_cap))
    censored = np.ones(n_total, dtype=bool)
    k = cfg.lam if scheme == "phmm" else 1
    x = np.full(n_total, float(basin.start_point))
    pos = np.arange(n_total)

    if scheme == "direct":
        yrep = _equilibrate_fast(model, cfg, x, ids, base, equil_fast_time, 1)
        y = yrep[:, 0]
        gens = _direct_generators(base, ids)
        h = cfg.eps * cfg.micro_dt
        n_cap = math.ceil(t_cap / h)
        s_amp = sou.sigma * math.sqrt(cfg.micro_dt)
        step = 0
        chunk = 512
        while pos.size and step < n_cap:
            todo = min(chunk, n_cap - step)
            xi = np.empty((pos.size, todo))
            for row, g in zip(xi, gens):
                g.standard_normal(out=row)
            # chains that cross keep integrating until the chunk ends; the
            # first-crossing time is latched and the rest is discarded
            hit = np.zeros(pos.size, dtype=bool)
            for m in range(todo):
                f_val = sou.f(x, y)
                y = y + cfg.micro_dt * sou.decay(x) * (sou.mean(x) - y) + s_amp * xi[:, m]
                x = x + h * f_val
                new_hit = crossed(x) & ~hit
                if new_hit.any():
                    elapsed[pos[new_hit]] = (step + m + 1) * h
                    censored[pos[new_hit]] = False
                    hit |= new_hit
            step += todo
            keep = ~hit
            pos, x, y = pos[keep], x[keep], y[keep]
            gens = [g for g, kp in zip(gens, keep) if kp]
            if pos.size and not (np.isfinite(x).all() and np.isfinite(y).all()):
                bad = int(np.argmax(~(np.isfinite(x) & np.isfinite(y))))
                raise IntegrationFailure("non-finite state in passage sampling",
                                         time=step * h, replica=int(ids[pos[bad]]))
        return elapsed, censored

    if scheme not in ("hmm", "phmm"):
        raise ValueError(f"unsupported scheme for passage sampling: {scheme!r}")
    yrep = _equilibrate_fast(model, cfg, x, ids, base, equil_fast_time, k)
    n_cap = math.ceil(t_cap / cfg.macro_dt)
    n = 0
    while pos.size and n < n_cap:
        x, yrep = _macro_advance(model, cfg, ids[pos], x, yrep, n, base)
        n += 1
        hit = crossed(x)
        if hit.any():
            elapsed[pos[hit]] = n * cfg.macro_dt
            censored[pos[hit]] = False
            keep = ~hit
            pos, x, yrep = pos[keep], x[keep], yrep[keep]
    return elapsed, censored
