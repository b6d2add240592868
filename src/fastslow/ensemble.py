"""Lane drivers: the only code that steps the fast-slow SDE.

A lane is one chain; the drivers advance a block of lanes in lockstep
while preserving the per-chain stream discipline: lane i draws exactly the
values it would draw when run alone, so results are independent of block
composition, scheduling and worker count. The ensemble functions run many
chains per block; :func:`fastslow.schemes.run_scheme` is a one-lane call
of the same drivers whose chain key is empty.

Slow and fast lanes are (B,) arrays, and each micro burst or direct
Euler step calls the model's ``f`` and its fast process's ``decay`` and
``mean`` once on all lanes. The micro burst reduces to a first-order
linear recurrence: one ``scipy.signal.lfilter`` call when all lanes share
the decay, else one loop over time doing lfilter's float operations for
all lanes, whose output must be C-contiguous (``mean(axis=1)`` sums a
strided view in another order).

Every run builds its lanes in :func:`_lanes`, which keys them by the one
run-key rule of :func:`fastslow.rng._run_keys`, chooses their start states
(the fast replicas, by default, at the frozen-x fast mean) and, for a
passage run, equilibrates their fast replicas. Every run then steps its
lanes through one chunked loop, :func:`_chunks`; fixed-horizon runs record
on the grid of :func:`_fixed_horizon`.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RngStream, StreamBlock, _run_keys
from .sde import FastSlowModel, IntegrationFailure, _positive, _positive_int

ENSEMBLE_SCHEMES = ("direct", "hmm", "phmm")


def _linear_recurrence(a: np.ndarray, u: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Rows of y_m = a_i y_{m-1} + u_{i,m} for m = 1..M given y_0."""
    if a.size == 0:
        return np.empty_like(u)
    if np.all(a == a.flat[0]):
        from scipy.signal import lfilter

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
        x, y: (B,) lanes of frozen slow values and initial fast states.
        streams: a block of B streams; chain i draws its M normals from
            stream i.

    Returns:
        (f_avg, y_end): the Birkhoff averages of f over the post-update
        states and the final fast states, each (B,).

    Raises:
        ValueError: if ``f(x[:, None], y_path)`` on the (B, M) fast path
            returns neither shape (B, M) nor, for an ``f`` of x alone,
            (B, 1).
        IntegrationFailure: for a non-finite fast state or f value; its
            ``replica`` is the lowest failing lane and its ``micro_index``
            that lane's first non-finite step.
    """
    xi = streams.normals(m_count)
    if xi.shape[0] != x.shape[0]:
        raise ValueError(f"{xi.shape[0]} streams for {x.shape[0]} chains")
    y_path = _ou_path(model.scalar_ou, x, y, xi, dt)
    f_path = np.asarray(model.f(x[:, None], y_path), dtype=float)
    if f_path.shape not in (y_path.shape, (len(x), 1)):
        raise ValueError(f"f returned shape {f_path.shape} on a burst of "
                         f"shape {y_path.shape}, expected {y_path.shape}")
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
            micro_index=int(steps[0]) + 1 if steps.size else m_count)
    return f_avg, y_end


def _burst_failure(err, ids, k, burst, **where):
    """A burst failure of a block of k replicas per chain, naming the chain
    id and the replica."""
    chain, rep = divmod(err.replica, k)
    return IntegrationFailure(
        f"non-finite fast state in the {burst} of replica {rep}",
        micro_index=err.micro_index, replica=int(ids[chain]), **where)


class _Lanes:
    """Chain ids, slow lanes x, fast lanes y, and a block ``keys`` of one
    stream per fast lane. Chunk c, ``chunk`` steps from step c * chunk,
    draws from ``keys.child(c)``: a lane's draws depend on its keys and the
    chunk index alone, not on which lanes share a chunk."""

    def __init__(self, model, cfg, ids, x, y, keys):
        self.model, self.cfg = model, cfg
        self.ids, self.x, self.y, self.keys = ids, x, y, keys

    def draws(self, s):
        """The streams of the chunk that starts at step index s."""
        return self.keys.child(s // self.chunk)

    def keep(self, mask):
        """Stop the lanes where ``mask`` is False."""
        rows = np.repeat(mask, len(self.keys) // mask.size)
        self.ids, self.x, self.y = self.ids[mask], self.x[mask], self.y[mask]
        self.keys = self.keys[rows]


class _MacroLanes(_Lanes):
    """HMM/PHMM lanes: k fast replicas per chain, y (B, k), one key per
    replica; a chunk is one macro step."""

    chunk = 1
    dt = property(lambda self: self.cfg.macro_dt)

    def advance(self, s, n):
        """Macro step s; returns the slow and fast lanes after it, each
        stacked along a leading axis of length 1."""
        model, cfg, x, y = self.model, self.cfg, self.x, self.y
        k = y.shape[1]
        try:
            f_avg, y_end = burst_batch(
                model, np.repeat(x, k), y.reshape(-1), self.draws(s),
                cfg.micro_count, cfg.micro_dt)
        except IntegrationFailure as err:
            raise _burst_failure(err, self.ids, k, "burst",
                                 time=s * cfg.macro_dt, macro_index=s) from err
        self.x = x + cfg.macro_dt * f_avg.reshape(-1, k).mean(axis=1)
        self.y = y_end.reshape(y.shape)
        return self.x[None], self.y[None]

    def failure(self, s, lane):
        return IntegrationFailure("non-finite slow state",
                                  time=s * self.dt, macro_index=s,
                                  replica=int(self.ids[lane]))


def _replica_count(scheme: str, cfg, allowed=ENSEMBLE_SCHEMES) -> int:
    """Fast replicas per chain of ``scheme``: ``lam`` for phmm, else 1.
    Raises ValueError for a scheme not in ``allowed``."""
    if scheme not in allowed:
        raise ValueError(f"unsupported scheme {scheme!r}; expected one of "
                         f"{allowed}")
    return cfg.lam if scheme == "phmm" else 1


def _replicas(keys, k, *middle):
    """Streams ``key.child(*middle, rep)`` of k replicas per chain key."""
    rows = keys[np.repeat(np.arange(len(keys)), k)]
    for part in middle:
        rows = rows.child(part)
    return rows.child(np.tile(np.arange(k), len(keys)))


class _DirectLanes(_Lanes):
    """Direct Euler lanes: y (B,), one key per lane; a chunk is 512 steps,
    whose normals each lane takes from the start of its chunk stream."""

    chunk = 512
    dt = property(lambda self: self.cfg.eps * self.cfg.micro_dt)

    def advance(self, s, n):
        """Steps s + 1 .. s + n; returns the slow and fast lanes after each,
        shape (n, B) each. The noise is scaled once per chunk and stored
        step-major."""
        f, sou = self.model.f, self.model.scalar_ou
        dt, h = self.cfg.micro_dt, self.dt
        noise = np.multiply(sou.sigma * math.sqrt(dt),
                            self.draws(s).normals(n).T, order="C")
        x, y = self.x, self.y
        xs, ys = np.empty_like(noise), np.empty_like(noise)
        for z, x_out, y_out in zip(noise, xs, ys):
            f_val = f(x, y)
            y = np.add(y + dt * sou.decay(x) * (sou.mean(x) - y), z, y_out)
            x = np.add(x, h * f_val, x_out)
        self.x, self.y = xs[-1], ys[-1]
        return xs, ys

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
            n, width = path.shape
            ok = (np.isfinite(path)
                  & np.isfinite(fast).reshape(n, width, -1).all(axis=2))
            j, lane = divmod(int(np.argmin(ok)), width)
            raise lanes.failure(s + j, lane)
        yield s, path
        s += len(path)


def _lanes(model, scheme, cfg, base, ids, x0, y0, equil_fast_time=0.0,
           allowed=ENSEMBLE_SCHEMES):
    """The lanes of ``scheme`` on the runs ``ids`` of ``base`` (None: the
    one run of ``base``), keyed by :func:`fastslow.rng._run_keys`, at x0
    with every fast replica at y0 (None: the frozen-x fast mean), after an
    equilibration burst of ``equil_fast_time`` fast time if it is positive.
    ValueError for a scheme not in ``allowed`` or a negative or non-finite
    ``equil_fast_time``."""
    k = _replica_count(scheme, cfg, allowed)
    ids, keys = _run_keys(base, ids)
    x = np.broadcast_to(np.asarray(x0, dtype=float), ids.shape).copy()
    y = model.scalar_ou.mean(x) if y0 is None else y0
    yrep = np.repeat(np.broadcast_to(np.asarray(y, dtype=float),
                                     ids.shape)[:, None], k, axis=1)
    if not (math.isfinite(equil_fast_time) and equil_fast_time >= 0):
        raise ValueError("equil_fast_time must be finite and nonnegative, "
                         f"got {equil_fast_time}")
    if equil_fast_time > 0:
        try:
            _, y_end = burst_batch(
                model, np.repeat(x, k), yrep.reshape(-1),
                _replicas(keys, k, -1),
                max(1, round(equil_fast_time / cfg.micro_dt)), cfg.micro_dt)
        except IntegrationFailure as err:
            raise _burst_failure(err, ids, k, "equilibration burst") from err
        yrep = y_end.reshape(yrep.shape)
    if scheme == "direct":
        return _DirectLanes(model, cfg, ids, x, yrep[:, 0], keys.child(-2))
    return _MacroLanes(model, cfg, ids, x, yrep, _replicas(keys, k))


def _fixed_horizon(lanes, t_end, record_dt):
    """Record times and slow lanes of a run over ``t_end``: every stride-th
    step, stride = max(1, round(record_dt / dt)), for ceil(t_end / (stride *
    dt)) records after the start. Returns (times, rec), rec of shape
    (n_rec + 1,) + x.shape."""
    stride = max(1, round(record_dt / lanes.dt))
    n_rec = math.ceil(t_end / (stride * lanes.dt))
    rec = np.empty((n_rec + 1,) + lanes.x.shape)
    rec[0] = lanes.x
    for s, path in _chunks(lanes, n_rec * stride):
        j = -(s + 1) % stride  # the chunk's first recorded row
        rows = path[j::stride]
        r = (s + 1 + j) // stride
        rec[r:r + len(rows)] = rows
    return np.arange(n_rec + 1) * (stride * lanes.dt), rec


def map_blocks(fn, n: int, block: int, executor=None) -> list:
    """``fn(ids)`` for consecutive id blocks of range(n), on ``executor`` if
    given; results come back in block order whatever order they finish in.
    Raises ValueError for a block size below 1."""
    block = _positive_int("block size", block)
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
    mean. Raises ValueError for a scheme other than hmm or phmm.
    """
    return _fixed_horizon(_lanes(model, scheme, cfg, base, ids, x0, y0,
                                 allowed=("hmm", "phmm")),
                          _positive("t_chain", t_chain), cfg.macro_dt)


def direct_samples(model: FastSlowModel, cfg, x0, y0, t_chain: float, ids,
                   base: RngStream, record_dt: float | None = None):
    """Slow-variable samples of a block of direct chains.

    Integrates at step h = eps*micro_dt and records every ``record_dt`` of
    slow time (default: cfg.macro_dt). Steps 512c + 1 .. 512c + 512 of
    chain cid draw from ``base.child(cid, -2, c)``.
    """
    if record_dt is None:
        record_dt = cfg.macro_dt
    return _fixed_horizon(_lanes(model, "direct", cfg, base, ids, x0, y0),
                          _positive("t_chain", t_chain),
                          _positive("record_dt", record_dt))


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
    _replica_count(scheme, cfg)  # rejects an unsupported scheme up front
    n_chains = _positive_int("n_chains", n_chains)
    t_chain = _positive("t_total", t_total) / n_chains
    if not t_chain > burn_in:
        raise ValueError("per-chain time must exceed burn_in")
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
    _positive("t_cap", t_cap)
    lanes = _lanes(model, scheme, cfg, base, ids, basin.start_point, None,
                   equil_fast_time)
    pos = np.arange(lanes.ids.size)  # before lanes.keep drops lanes
    up = basin.direction == "upcrossing"
    thr = basin.target_threshold
    elapsed = np.full(pos.size, float(t_cap))
    censored = np.ones(pos.size, dtype=bool)
    for s, path in _chunks(lanes, math.ceil(t_cap / lanes.dt)):
        cross = path >= thr if up else path <= thr
        if cross.any():
            hit = cross.any(axis=0)
            elapsed[pos[hit]] = (s + cross.argmax(axis=0)[hit] + 1) * lanes.dt
            censored[pos[hit]] = False
            pos = pos[~hit]
            lanes.keep(~hit)
    return elapsed, censored
