"""Lockstep batched drivers for ensembles of independent chains.

Every statistics-grade computation (stationary sampling, first-passage
sampling, Birkhoff drift estimates) runs many independent chains. The
drivers here advance all chains of a block in lockstep with vectorized
numpy arithmetic while preserving the per-chain stream discipline: chain i
draws exactly the values it would draw when run alone, so results are
independent of block composition, scheduling and worker count.

The fast paths require a model with a :class:`fastslow.sde.ScalarOU`
structure hint (all builtin models have one): the micro burst then reduces
to a first-order linear recurrence: one ``scipy.signal.lfilter`` call when
all lanes share the decay, else one loop over time doing lfilter's float
operations for all lanes, whose output must be C-contiguous
(``mean(axis=1)`` sums a strided view in another order). Macro drivers
fold each lane's ``(chain, replica)`` key prefix once, then only the macro
index per step.
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
    y_path = _ou_path(sou, x, y, xi, dt)
    f_avg = np.asarray(sou.f(x[:, None], y_path), dtype=float).mean(axis=1)
    y_end = y_path[:, -1]
    bad = ~(np.isfinite(f_avg) & np.isfinite(y_end))
    if bad.any():
        raise IntegrationFailure("non-finite fast state in batched burst",
                                 replica=int(np.argmax(bad)))
    return f_avg, y_end


def _replica_streams(base, ids, k, *middle):
    """Streams ``base.child(cid, *middle, rep)`` of k replicas per chain."""
    cids = np.repeat(ids, k)
    return base.children(np.column_stack(
        [cids, *(np.full_like(cids, p) for p in middle),
         np.tile(np.arange(k), len(ids))]))


def _macro_advance(model, cfg, ids, x, yrep, n, prefix):
    """Advance all chains one macro step; bursts draw from ``prefix.child(n)``."""
    n_chains, k = yrep.shape
    f_avg, y_end = burst_batch(model, np.repeat(x, k), yrep.reshape(-1),
                               prefix.child(n), cfg.micro_count, cfg.micro_dt)
    x_new = x + cfg.macro_dt * f_avg.reshape(n_chains, k).mean(axis=1)
    if not np.isfinite(x_new).all():
        chain = int(np.argmax(~np.isfinite(x_new)))
        raise IntegrationFailure("non-finite slow state",
                                 macro_index=n, replica=int(ids[chain]))
    return x_new, y_end.reshape(n_chains, k)


def _fast_mean(sou, x: np.ndarray) -> np.ndarray:
    """Frozen-x fast means, one per entry of x."""
    return np.asarray(np.broadcast_to(sou.mean(x), x.shape), dtype=float).copy()


def _start_arrays(model, x0, y0, n_chains, k):
    """Per-chain start values; y0 defaults to the frozen-x fast mean."""
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains,)).copy()
    if y0 is None:
        y = _fast_mean(_require_scalar_ou(model), x)
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


def _direct_chunk(sou, cfg, x, y, gens, n_steps):
    """Yield (m, x, y) after each of ``n_steps`` direct Euler steps.

    Lane i first draws its ``n_steps`` normals from ``gens[i]``; a lane's
    draws are sequential in its own generator, so the path does not depend
    on how a run is cut into chunks or which lanes share a chunk. The noise
    is scaled once per chunk and stored step-major.
    """
    xi = np.empty((len(gens), n_steps))
    for row, g in zip(xi, gens):
        g.standard_normal(out=row)
    noise = np.multiply(sou.sigma * math.sqrt(cfg.micro_dt), xi.T, order="C")
    h = cfg.eps * cfg.micro_dt
    for m in range(n_steps):
        f_val = sou.f(x, y)
        y = y + cfg.micro_dt * sou.decay(x) * (sou.mean(x) - y) + noise[m]
        x = x + h * f_val
        yield m, x, y


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
    prefix = _replica_streams(base, ids, yrep.shape[1])
    rec = np.empty((n_steps + 1, n_chains))
    rec[0] = x
    for n in range(n_steps):
        x, yrep = _macro_advance(model, cfg, ids, x, yrep, n, prefix)
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
    for r in range(n_rec):
        for _, x, y in _direct_chunk(sou, cfg, x, y, gens, stride):
            pass
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
    _, y_end = burst_batch(model, xx, _fast_mean(sou, xx), streams, m_eq,
                           cfg.micro_dt)
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
    sou = _require_scalar_ou(model)
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
            for m, x, y in _direct_chunk(sou, cfg, x, y, gens, todo):
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
