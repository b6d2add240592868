"""The lane drivers: their bursts and direct steps must match a plain
per-step scalar Euler loop on the same keyed normals, and every lane must
be invariant to block composition, executors and whether it runs alone."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import fastslow as fs
from fastslow import RngStream, SchemeConfig
from fastslow.ensemble import (_DirectLanes, _fixed_horizon, _lanes,
                               _linear_recurrence, _MacroLanes, _replicas,
                               burst_batch, direct_samples,
                               first_passage_block,
                               pooled_stationary_samples, scheme_samples)
from fastslow.rng import StreamBlock, _run_keys


@pytest.fixture
def dw_cfg():
    return SchemeConfig(eps=1e-3, lam=1, macro_dt=0.05, micro_dt=0.05,
                        root_seed=11)


def _direct_normals(chain, n_steps):
    """The normals of n_steps direct steps of a chain: step s takes normal
    s mod 512 of ``chain.child(-2, s // 512)``."""
    chunks = [chain.child(-2, c).normals(512)
              for c in range(-(-n_steps // 512))]
    return np.concatenate(chunks)[:n_steps]


def _every_step(lanes, n_steps):
    """The slow lanes after each of n_steps steps, stacked after the start."""
    times, rec = _fixed_horizon(lanes, (n_steps - 0.5) * lanes.dt, lanes.dt)
    assert len(times) == n_steps + 1
    return rec


def _euler_burst(model, x, y, xi, dt):
    """One lane's micro burst at frozen x, one scalar Euler step per normal
    in ``xi``: (average of f over the post-update states, last state)."""
    sou, f_sum = model.scalar_ou, 0.0
    for z in xi:
        y = (y + dt * sou.decay(x) * (sou.mean(x) - y)
             + sou.sigma * math.sqrt(dt) * z)
        f_sum += model.f(x, y)
    return f_sum / len(xi), y


def _euler_direct(model, cfg, x, y, xi):
    """One lane's slow states after each direct Euler step, one scalar step
    per normal in ``xi``."""
    sou, dt, h = model.scalar_ou, cfg.micro_dt, cfg.eps * cfg.micro_dt
    xs = []
    for z in xi:
        x, y = (x + h * model.f(x, y),
                y + dt * sou.decay(x) * (sou.mean(x) - y)
                + sou.sigma * math.sqrt(dt) * z)
        xs.append(x)
    return np.array(xs)


def test_batched_burst_matches_reference(dw_cfg):
    # non_diffusive's decay differs between lanes, so its bursts take the
    # time loop of _linear_recurrence, the others one lfilter call
    x, y = np.array([0.7, 1.3, 2.0]), np.array([0.3, -0.2, 0.5])
    streams = RngStream(11).children([[i, 4] for i in range(3)])
    xi = streams.normals(dw_cfg.micro_count)
    for name in ("double_well", "linear_ou", "non_diffusive"):
        model = fs.make_model(name).system()
        bat_f, bat_y = burst_batch(model, x, y, streams, dw_cfg.micro_count,
                                   dw_cfg.micro_dt)
        for i in range(3):
            ref_f, ref_y = _euler_burst(model, x[i], y[i], xi[i],
                                        dw_cfg.micro_dt)
            assert bat_f[i] == pytest.approx(ref_f, abs=1e-12)
            assert bat_y[i] == pytest.approx(ref_y, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(b=st.integers(1, 130), m=st.integers(1, 1000),
       seed=st.integers(0, 2 ** 32 - 1))
def test_varying_decay_recurrence_is_per_row_lfilter_bitwise(b, m, seed):
    rng = np.random.default_rng(seed)
    a = 1.0 - rng.uniform(0.0, 0.5, b)
    u, y0 = rng.normal(size=(b, m)), rng.normal(size=b)
    u_in = u.copy()
    ref = np.empty_like(u)
    for i in range(b):
        ref[i], _ = lfilter([1.0], [1.0, -float(a[i])], u[i],
                            zi=[a[i] * y0[i]])
    got = _linear_recurrence(a, u, y0)
    # a strided result would change the summation order of mean(axis=1)
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(u, u_in)


def test_burst_batch_is_block_invariant(dw_cfg):
    model = fs.NonDiffusiveModel().system()
    base = RngStream(11)
    xs = np.array([0.6, 1.0, 2.2])
    ys = np.array([0.1, -0.4, 0.9])
    streams = base.children([[i, 0, 0] for i in range(3)])
    f3, y3 = burst_batch(model, xs, ys, streams, dw_cfg.micro_count,
                         dw_cfg.micro_dt)
    for i in range(3):
        f1, y1 = burst_batch(model, xs[i:i + 1], ys[i:i + 1],
                             base.children([[i, 0, 0]]), dw_cfg.micro_count,
                             dw_cfg.micro_dt)
        assert f1[0] == f3[i]
        assert y1[0] == y3[i]


@pytest.mark.filterwarnings("ignore:overflow")
def test_burst_names_the_lowest_failing_lane():
    # decay -1 at micro_dt 1 without noise doubles y every step: lane 2
    # (2^10) overflows on step 1,014, lane 1 (1) on step 1,024 and lane 0
    # never; lane 1 fails after lane 2 but is the lower lane, so it is
    # reported at its own step
    sou = fs.ScalarOU(decay=lambda x: np.full_like(x, -1.0),
                      mean=lambda x: np.zeros_like(x), sigma=0.0)
    model = fs.FastSlowModel(lambda x, y: y, sou)
    with pytest.raises(fs.IntegrationFailure) as err:
        burst_batch(model, np.zeros(3), np.array([0.0, 1.0, 2.0 ** 10]),
                    RngStream(1).children([[0], [1], [2]]), 2000, 1.0)
    assert err.value.replica == 1
    assert err.value.micro_index == 1024


def test_burst_batch_needs_one_stream_per_chain(dw_cfg):
    model = fs.DoubleWellModel().system()
    with pytest.raises(ValueError, match="2 streams for 3 chains"):
        burst_batch(model, np.zeros(3), np.zeros(3),
                    RngStream(1).children([[0], [1]]), 5, 0.1)


def test_scheme_samples_block_invariance(dw_cfg):
    model = fs.DoubleWellModel().system()
    base = RngStream(3)
    _, rec = scheme_samples(model, "phmm",
                            fs.config_for_lambda(dw_cfg, 3), -1.0, None,
                            2.0, np.arange(5), base)
    _, rec_a = scheme_samples(model, "phmm",
                              fs.config_for_lambda(dw_cfg, 3), -1.0, None,
                              2.0, np.arange(2), base)
    _, rec_b = scheme_samples(model, "phmm",
                              fs.config_for_lambda(dw_cfg, 3), -1.0, None,
                              2.0, np.arange(2, 5), base)
    assert np.array_equal(rec[:, :2], rec_a)
    assert np.array_equal(rec[:, 2:], rec_b)


def test_direct_samples_match_reference_integrator(dw_cfg):
    # a scalar Euler loop on the same keyed normals is the reference
    model = fs.DoubleWellModel().system()
    base = RngStream(21)
    times, rec = direct_samples(model, dw_cfg, -1.0, 0.5, 1.0, [4], base,
                                record_dt=0.05)
    h = dw_cfg.eps * dw_cfg.micro_dt
    stride = round(0.05 / h)
    n_steps = (len(times) - 1) * stride
    ref = _euler_direct(model, dw_cfg, -1.0, 0.5,
                        _direct_normals(base.child(4), n_steps))
    assert np.allclose(times, np.arange(len(times)) * stride * h)
    assert times[-1] == pytest.approx(1.0)
    assert rec[0, 0] == -1.0
    assert np.array_equal(rec[1:, 0], ref[stride - 1::stride])


@pytest.mark.parametrize("stride", [3, 700])
def test_direct_records_cross_chunk_boundaries(dw_cfg, stride):
    # neither stride divides the 512-step chunk, so records fall at every
    # offset within a chunk, and at 700 some chunks hold no record
    model = fs.DoubleWellModel().system()
    base = RngStream(8)
    ids = np.arange(3, 6)
    h = dw_cfg.eps * dw_cfg.micro_dt
    n_rec = 1500 // stride + 1
    _, rec = direct_samples(model, dw_cfg, -0.5, None,
                            (n_rec - 0.5) * stride * h, ids, base,
                            record_dt=stride * h)
    every = _every_step(_lanes(model, "direct", dw_cfg, base, ids, -0.5,
                               None), n_rec * stride)
    assert rec.shape == (n_rec + 1, ids.size)
    assert np.array_equal(rec, every[::stride])


_BUILTINS = {"linear_ou": fs.LinearOUModel(),
             "double_well": fs.DoubleWellModel(sigma_f=7.5),
             "non_diffusive": fs.NonDiffusiveModel()}


@pytest.mark.parametrize("scheme", ["direct", "hmm", "phmm"])
@pytest.mark.parametrize("name", sorted(_BUILTINS))
def test_lane_alone_equals_lane_in_block(name, scheme):
    # the single-versus-batched contract: run_scheme's one lane is bitwise
    # the same lane of a three-lane driver call on the same stream keys
    model = _BUILTINS[name].system()
    cfg = fs.config_for_lambda(SchemeConfig(eps=4e-3, lam=1, macro_dt=0.05,
                                            micro_dt=0.05, root_seed=5), 3)
    x0, y0 = np.array([-1.0, 0.4, 1.3]), np.array([-1.0, 0.2, 0.9])
    base = RngStream(cfg.root_seed)
    ids = np.arange(3)
    if scheme == "direct":
        t_end = 0.2
        lanes = _DirectLanes(model, cfg, ids, x0, y0,
                             base.children(np.zeros((3, 0), int)).child(-2))
        rec = _every_step(lanes, round(t_end / (cfg.eps * cfg.micro_dt)))
    else:
        t_end = 20 * cfg.macro_dt
        k = cfg.lam if scheme == "phmm" else 1
        lanes = _MacroLanes(model, cfg, ids, x0,
                            np.repeat(y0[:, None], k, axis=1),
                            base.children(np.tile(np.arange(k), 3)[:, None]))
        rec = _every_step(lanes, 20)
    for i in ids:
        alone = fs.run_scheme(model, scheme, [x0[i]], [y0[i]], cfg, t_end)
        assert np.array_equal(alone.slow(), rec[:, i])


@pytest.mark.parametrize("ensemble", [True, False])
def test_lanes_draw_the_documented_keys(ensemble):
    # the one key layout of fastslow.rng, written out in full: an ensemble
    # lane hangs its streams off the chain key (cid,), run_scheme's one lane
    # off the empty chain key
    root, k, n, m = 13, 3, 7, 6
    cfg = fs.config_for_lambda(SchemeConfig(eps=4e-3, lam=1, macro_dt=0.05,
                                            micro_dt=0.05, root_seed=root), k)
    model = fs.DoubleWellModel().system()
    base = RngStream(root)
    if ensemble:
        ids, chains = np.array([4, 9]), [(4,), (9,)]
    else:
        ids, chains = None, [()]
    direct, hmm, phmm = (_lanes(model, scheme, cfg, base, ids, 0.0, 0.0)
                         for scheme in ("direct", "hmm", "phmm"))
    keys = _run_keys(base, ids)[1]
    hmm_draws = hmm.draws(n).normals(m)
    phmm_draws = phmm.draws(n).normals(m)
    # direct chunk c holds steps 512c + 1 .. 512c + 512
    direct_draws = {c: direct.draws(512 * c).normals(m) for c in (0, 1, 3)}
    equil_draws = _replicas(keys, k, -1).normals(m)

    def ref(*key):
        return RngStream(root).child(*key).normals(m)

    for i, chain in enumerate(chains):
        for c, draws in direct_draws.items():
            assert np.array_equal(draws[i], ref(*chain, -2, c))
        assert np.array_equal(hmm_draws[i], ref(*chain, 0, n))
        for rep in range(k):
            assert np.array_equal(phmm_draws[i * k + rep], ref(*chain, rep, n))
            assert np.array_equal(equil_draws[i * k + rep],
                                  ref(*chain, -1, rep))


@pytest.mark.parametrize("scheme", ["direct", "hmm", "phmm"])
def test_pooled_samples_are_executor_invariant(scheme):
    model = fs.LinearOUModel().system()
    cfg = SchemeConfig(eps=1e-2, lam=2, macro_dt=0.08, micro_dt=0.1,
                       root_seed=9)
    base = RngStream(9)
    serial = pooled_stationary_samples(model, scheme, cfg, 0.0, None, 40.0, 8,
                                       2.0, base, chain_block=3)
    with ThreadPoolExecutor(max_workers=5) as pool:
        parallel = pooled_stationary_samples(model, scheme, cfg, 0.0, None,
                                             40.0, 8, 2.0, base,
                                             executor=pool, chain_block=3)
    assert np.array_equal(serial, parallel)


@pytest.mark.parametrize("scheme", ["averaged", "nonsense"])
def test_ensemble_drivers_reject_other_schemes(scheme):
    # a scheme without an ensemble driver must not fall through to hmm
    model = fs.LinearOUModel().system()
    cfg = SchemeConfig(eps=1e-2, lam=2, macro_dt=0.08, micro_dt=0.1,
                       root_seed=9)
    base = RngStream(9)
    with pytest.raises(ValueError, match="unsupported scheme"):
        pooled_stationary_samples(model, scheme, cfg, 0.0, None, 10.0, 2,
                                  1.0, base)
    with pytest.raises(ValueError, match="unsupported scheme"):
        first_passage_block(model, scheme, cfg, fs.BasinSpec(0.0, 0.3),
                            np.arange(2), 1.0, base)
    for name in (scheme, "direct"):
        with pytest.raises(ValueError, match="unsupported scheme"):
            scheme_samples(model, name, cfg, 0.0, None, 1.0, np.arange(2),
                           base)
    with pytest.raises(ValueError, match="unsupported scheme"):
        fs.run_scheme(model, scheme, [0.0], [0.0], cfg, 1.0)


@pytest.mark.parametrize("ids", [[0.5, 1.5], [True, False], [[0, 1]]])
def test_sde_drivers_reject_ids_that_are_not_integers(ids):
    # an id cast to int would run chain 0 twice or key a chain by a flag
    model = fs.LinearOUModel().system()
    cfg = SchemeConfig(eps=1e-2, lam=2, macro_dt=0.08, micro_dt=0.1,
                       root_seed=9)
    base, match = RngStream(9), "^ids must be a 1-D array of integers"
    with pytest.raises(ValueError, match=match):
        scheme_samples(model, "hmm", cfg, 0.0, None, 1.0, ids, base)
    with pytest.raises(ValueError, match=match):
        direct_samples(model, cfg, 0.0, None, 1.0, ids, base)
    with pytest.raises(ValueError, match=match):
        first_passage_block(model, "phmm", cfg, fs.BasinSpec(0.0, 0.3), ids,
                            1.0, base)


_BAD_SPANS = [-1.0, 0.0, math.nan, math.inf]


def _entry_setup():
    """A model, a phmm-ready config and a base stream for argument checks."""
    cfg = SchemeConfig(eps=1e-2, lam=2, macro_dt=0.08, micro_dt=0.1,
                       root_seed=9)
    return fs.LinearOUModel().system(), cfg, RngStream(9)


@pytest.mark.parametrize("name, value", [
    *(("t_cap", v) for v in _BAD_SPANS),
    *(("equil_fast_time", v) for v in (-1.0, math.nan, math.inf))])
def test_first_passage_block_names_a_bad_argument(name, value):
    model, cfg, base = _entry_setup()
    args = {"t_cap": 1.0, "equil_fast_time": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be "):
        first_passage_block(model, "phmm", cfg, fs.BasinSpec(0.0, 0.3),
                            np.arange(2), base=base, **args)


@pytest.mark.parametrize("name, value, match", [
    *(("n_samples", v, "^n_samples must be a positive integer")
      for v in (0, 2.5, math.nan, math.inf)),
    ("t_cap", -1.0, "^t_cap must be positive"),
    ("equil_fast_time", -1.0, "^equil_fast_time must be finite")])
def test_first_passage_times_names_a_bad_argument(name, value, match):
    model, cfg, _ = _entry_setup()
    args = {"n_samples": 2, "t_cap": 1.0, "equil_fast_time": 1.0,
            name: value}
    with pytest.raises(ValueError, match=match):
        fs.first_passage_times(model, "hmm", cfg, fs.BasinSpec(0.0, 0.3),
                               **args)


@pytest.mark.parametrize("t_chain", _BAD_SPANS)
def test_scheme_samples_names_a_bad_horizon(t_chain):
    model, cfg, base = _entry_setup()
    with pytest.raises(ValueError, match="^t_chain must be positive"):
        scheme_samples(model, "hmm", cfg, 0.0, None, t_chain, [0, 1], base)


@pytest.mark.parametrize("name, value", [
    *(("t_chain", v) for v in _BAD_SPANS),
    *(("record_dt", v) for v in _BAD_SPANS)])
def test_direct_samples_names_a_bad_argument(name, value):
    model, cfg, base = _entry_setup()
    args = {"t_chain": 1.0, "record_dt": 0.1, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be positive"):
        direct_samples(model, cfg, 0.0, None, ids=[0, 1], base=base, **args)


@pytest.mark.parametrize("name, value, match", [
    *(("t_total", v, "^t_total must be positive") for v in _BAD_SPANS),
    *(("n_chains", v, "^n_chains must be a positive integer")
      for v in (2.5, math.nan, math.inf)),
    ("burn_in", math.nan, "^per-chain time must exceed burn_in")])
def test_pooled_samples_name_a_bad_argument(name, value, match):
    model, cfg, base = _entry_setup()
    args = {"t_total": 10.0, "n_chains": 2, "burn_in": 1.0, name: value}
    with pytest.raises(ValueError, match=match):
        pooled_stationary_samples(model, "hmm", cfg, 0.0, None, base=base,
                                  **args)


def test_zero_sizes_are_rejected():
    model = fs.LinearOUModel().system()
    cfg = SchemeConfig(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1,
                       root_seed=9)
    with pytest.raises(ValueError, match="n_chains must be a positive"):
        pooled_stationary_samples(model, "hmm", cfg, 0.0, None, 10.0, 0,
                                  1.0, RngStream(9))
    with pytest.raises(ValueError, match="block size must be a positive"):
        pooled_stationary_samples(model, "hmm", cfg, 0.0, None, 10.0, 2,
                                  1.0, RngStream(9), chain_block=0)
    with pytest.raises(ValueError, match="block size must be a positive"):
        fs.first_passage_times(model, "hmm", cfg, fs.BasinSpec(0.0, 0.3), 4,
                               1.0, block_size=0)


def test_pooled_samples_burn_in_validation():
    model = fs.LinearOUModel().system()
    cfg = SchemeConfig(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1,
                       root_seed=9)
    with pytest.raises(ValueError, match="burn_in"):
        pooled_stationary_samples(model, "hmm", cfg, 0.0, None, 10.0, 5,
                                  3.0, RngStream(9))


@pytest.mark.parametrize("scheme", ["direct", "hmm", "phmm"])
def test_equilibration_failure_names_the_chain(scheme):
    # decay -1 at micro_dt 1 doubles the fast state every equilibration
    # step, so it overflows after about 1,025 of the 2,000 steps
    sou = fs.ScalarOU(decay=lambda x: np.full_like(x, -1.0),
                      mean=lambda x: np.zeros_like(x), sigma=1.0)
    model = fs.FastSlowModel(f=lambda x, y: y, scalar_ou=sou)
    cfg = SchemeConfig(eps=0.01, lam=2, macro_dt=0.1, micro_dt=1.0,
                       root_seed=1)
    with pytest.raises(fs.IntegrationFailure,
                       match="equilibration burst of replica 0") as err:
        first_passage_block(model, scheme, cfg, fs.BasinSpec(0.0, 1.0),
                            [5, 6], 1.0, RngStream(1), equil_fast_time=2000.0)
    assert err.value.replica == 5


@pytest.mark.parametrize("scheme", ["direct", "hmm", "phmm"])
def test_first_passage_block_invariance(double_well_model, dw_basin, scheme):
    # direct lanes leave the block only at the end of a 512-step chunk; the
    # shorter direct cap (500,000 steps) leaves some lanes censored
    t_cap = 25.0 if scheme == "direct" else 400.0
    cfg = SchemeConfig(eps=1e-3, lam=2, macro_dt=0.06, micro_dt=0.05,
                       root_seed=5)
    model = double_well_model.system()
    base = RngStream(5)
    el, cen = first_passage_block(model, scheme, cfg, dw_basin,
                                  np.arange(6), t_cap, base)
    el_a, cen_a = first_passage_block(model, scheme, cfg, dw_basin,
                                      np.arange(3), t_cap, base)
    el_b, cen_b = first_passage_block(model, scheme, cfg, dw_basin,
                                      np.arange(3, 6), t_cap, base)
    assert np.array_equal(el, np.concatenate([el_a, el_b]))
    assert np.array_equal(cen, np.concatenate([cen_a, cen_b]))
    if scheme == "direct":
        assert 0 < cen.sum() < cen.size
    else:
        assert not cen.any()


class _ScriptedKeys:
    """Stands in for the key block of direct lanes: chunk c of lane r draws
    ``script[r, 512 c:]``."""

    def __init__(self, script):
        self.script = script

    def __len__(self):
        return len(self.script)

    def __getitem__(self, rows):
        return _ScriptedKeys(self.script[rows])

    def child(self, c):
        return _ScriptedKeys(self.script[:, _DirectLanes.chunk * c:])

    def normals(self, m):
        return self.script[:, :m].copy()


def _scripted_lanes(monkeypatch, start_y, script=None):
    """Scripted noise for a model with decay * micro_dt = 1 and mean 0,
    whose every fast step sets y to sqrt(micro_dt) * xi exactly: each
    burst's last normal of lane i is ``start_y[i]`` (the others are 0), so
    the equilibrated fast state and every macro step's burst end at
    ``sqrt(micro_dt) * start_y[i]``; direct lane i draws ``script[i]``."""
    def normals(self, m):
        out = np.zeros((len(self), m))
        out[:, -1] = start_y
        return out

    monkeypatch.setattr(StreamBlock, "normals", normals)
    if script is not None:
        monkeypatch.setattr(
            "fastslow.ensemble._DirectLanes",
            lambda model, cfg, ids, x, y, keys: _DirectLanes(
                model, cfg, ids, x, y, _ScriptedKeys(script)))


def _scripted_model():
    """f = y, g = -2 y: with micro_dt = 0.5 each fast step sets y to its
    scaled normal, and x moves by h * y one step later."""
    sou = fs.ScalarOU(decay=lambda x: np.full_like(x, 2.0),
                      mean=lambda x: np.zeros_like(x), sigma=1.0)
    return fs.FastSlowModel(f=lambda x, y: y, scalar_ou=sou)


_SCRIPTED_CFG = SchemeConfig(eps=0.01, lam=1, macro_dt=0.005, micro_dt=0.5,
                             root_seed=1)


def test_direct_passage_latches_the_first_crossing(monkeypatch):
    # scripted draws place every crossing on a chosen step
    cfg = _SCRIPTED_CFG
    h = cfg.eps * cfg.micro_dt
    kick = 1000.0  # one kicked step moves x by h * sqrt(0.5) * 1000 = 3.5
    n_cap = 1100   # chunks of 512, 512 and 76 steps
    start_y = np.array([kick, 0.0, 0.0, 0.0, 0.0, 0.0])  # lane 0: step 1
    script = np.zeros((6, n_cap))
    script[1, 510] = kick                           # lane 1: step 512
    script[2, 511] = kick                           # lane 2: step 513
    script[3, 98], script[3, 99] = kick, -3 * kick  # lane 3: up at step
    script[3, 298] = 5 * kick                       # 100, down, up again
    # lane 4 never crosses
    script[5, n_cap - 2] = kick                     # lane 5: step n_cap
    _scripted_lanes(monkeypatch, start_y, script)

    # step-by-step reference: test every lane after every step
    s_amp = np.sqrt(cfg.micro_dt)
    ref = np.full(6, n_cap * h)
    for lane in range(6):
        x, y = 0.0, s_amp * start_y[lane]
        for step in range(n_cap):
            x, y = x + h * y, s_amp * script[lane, step]
            if x >= 1.0:
                ref[lane] = (step + 1) * h
                break
    assert np.array_equal(ref, [1 * h, 512 * h, 513 * h, 100 * h, n_cap * h,
                                n_cap * h])

    elapsed, censored = first_passage_block(_scripted_model(), "direct", cfg,
                                            fs.BasinSpec(0.0, 1.0),
                                            np.arange(6), n_cap * h,
                                            RngStream(1))
    assert np.array_equal(elapsed, ref)
    # a passage on the last step ends at t_cap and still counts
    assert censored.tolist() == [False, False, False, False, True, False]


@pytest.mark.filterwarnings("ignore:invalid value")
def test_direct_passage_failure_names_chain_and_step(monkeypatch):
    # lane 1 draws inf on step 601, which makes its fast state non-finite
    # there and its slow state one step later
    cfg = _SCRIPTED_CFG
    h = cfg.eps * cfg.micro_dt
    script = np.zeros((3, 1024))
    script[1, 600] = np.inf
    _scripted_lanes(monkeypatch, np.zeros(3), script)
    with pytest.raises(fs.IntegrationFailure,
                       match="non-finite state in direct integration") as err:
        first_passage_block(_scripted_model(), "direct", cfg,
                            fs.BasinSpec(0.0, 1.0), [7, 8, 9], 1024 * h,
                            RngStream(1))
    assert err.value.replica == 8
    assert err.value.step == 601
    assert err.value.time == 601 * h


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("scheme", ["hmm", "phmm"])
def test_macro_passage_failure_names_chain_and_macro_index(monkeypatch,
                                                           scheme):
    # lane 1's every burst ends at sqrt(0.5) * -5e307, so its slow state
    # falls by a fixed step until it overflows; lane 0 stays at 0
    cfg = fs.config_for_lambda(_SCRIPTED_CFG, 2)
    k = cfg.lam if scheme == "phmm" else 1
    _scripted_lanes(monkeypatch, np.repeat([0.0, -5e307], k))
    fall = cfg.macro_dt * (np.sqrt(cfg.micro_dt) * -5e307)
    x, n = 0.0, 0
    while np.isfinite(x + fall):
        x, n = x + fall, n + 1
    with pytest.raises(fs.IntegrationFailure,
                       match="non-finite slow state") as err:
        first_passage_block(_scripted_model(), scheme, cfg,
                            fs.BasinSpec(0.0, 1.0), [4, 5],
                            2 * n * cfg.macro_dt, RngStream(1))
    assert err.value.replica == 5
    assert err.value.macro_index == n
    assert err.value.time == n * cfg.macro_dt
