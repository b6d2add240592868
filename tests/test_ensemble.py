"""The lane drivers: the ScalarOU back-end must match the field back-end
(``f``, ``g`` and ``sigma`` called on all lanes at once) to rounding, and
every lane of either must be invariant to block composition, executors
and whether it runs alone."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import fastslow as fs
from fastslow import RngStream, SchemeConfig
from fastslow.ensemble import (_direct_generators, _DirectLanes,
                               _fixed_horizon, _linear_recurrence,
                               _MacroLanes, _start_arrays, burst_batch,
                               direct_samples, first_passage_block,
                               pooled_stationary_samples, scheme_samples)
from fastslow.rng import StreamBlock


@pytest.fixture
def dw_cfg():
    return SchemeConfig(eps=1e-3, lam=1, macro_dt=0.05, micro_dt=0.05,
                        root_seed=11)


def _hintless(model):
    return fs.FastSlowModel(1, 1, model.f, model.g, model.sigma)


def test_batched_burst_matches_reference(dw_cfg):
    # the field back-end is the reference of the ScalarOU one
    streams = RngStream(11).children([[0, 4]])
    for model in (fs.DoubleWellModel().system(),
                  fs.NonDiffusiveModel().system()):
        ref_f, ref_y = burst_batch(_hintless(model), np.array([[0.7]]),
                                   np.array([[0.3]]), streams,
                                   dw_cfg.micro_count, dw_cfg.micro_dt)
        bat_f, bat_y = burst_batch(model, np.array([0.7]), np.array([0.3]),
                                   streams, dw_cfg.micro_count,
                                   dw_cfg.micro_dt)
        assert bat_f[0] == pytest.approx(ref_f[0, 0], abs=1e-12)
        assert bat_y[0] == pytest.approx(ref_y[0, 0], abs=1e-12)


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


_A23 = np.array([[1.0, 0.2, 0.0], [0.1, 0.5, 0.3], [0.0, 0.4, 1.1]])


def _model_23():
    """d = 2, e = 3, with lane-dependent f, g and sigma."""
    return fs.FastSlowModel(
        2, 3,
        f=lambda x, y: np.stack([y[:, 0] * y[:, 1] - x[:, 0],
                                 np.sin(x[:, 1]) + y[:, 2]], axis=1),
        g=lambda x, y: np.concatenate([x, x[:, :1]], axis=1) - y,
        sigma=lambda x, y: _A23 * (1.0 + 0.1 * np.tanh(x[:, :1]))[:, :, None])


_HINTLESS_LANES = {
    "linear_ou": (_hintless(fs.LinearOUModel().system()), [[-1.0], [0.4],
                                                           [1.3]]),
    "double_well": (_hintless(fs.DoubleWellModel(sigma_f=7.5).system()),
                    [[-1.0], [0.4], [1.3]]),
    "non_diffusive": (_hintless(fs.NonDiffusiveModel().system()),
                      [[0.6], [1.0], [2.2]]),
    "d2_e3": (_model_23(), [[0.3, -0.2], [1.0, 0.5], [-0.7, 2.0]]),
}


@pytest.mark.parametrize("name", sorted(_HINTLESS_LANES))
def test_field_lanes_alone_equal_lanes_in_block(dw_cfg, name):
    # the field back-end steps all lanes at once; each lane must still get
    # bitwise what it gets alone, in a burst and over direct chunks
    model, x = _HINTLESS_LANES[name]
    x = np.array(x)
    y = np.linspace(-0.5, 0.5, 3 * model.fast_dim).reshape(3, -1)
    base = RngStream(17)
    ids = np.arange(3)
    streams = base.children(ids[:, None])
    f3, y3 = burst_batch(model, x, y, streams, 300, 0.05)
    rec3 = _fixed_horizon(_DirectLanes(model, dw_cfg, ids, x, y,
                                       _direct_generators(base, ids)), 700)
    for i in ids:
        one = ids[i:i + 1]
        f1, y1 = burst_batch(model, x[one], y[one], streams[one], 300, 0.05)
        rec1 = _fixed_horizon(_DirectLanes(model, dw_cfg, one, x[one],
                                           y[one],
                                           _direct_generators(base, one)),
                              700)
        assert np.array_equal(f1[0], f3[i]) and np.array_equal(y1[0], y3[i])
        assert np.array_equal(rec1[:, 0], rec3[:, i])


@pytest.mark.filterwarnings("ignore:overflow")
def test_field_burst_names_the_lowest_failing_lane():
    # g = y^3 at dt = 1 without noise: y = 3 runs 30, 2.7e4, 2e13, 8e39,
    # 5e119 and overflows on step 6, y = 30 one step earlier; lane 1 fails
    # after lane 2 but is the lower lane, so it is reported at its own step
    def g(x, y):
        assert np.isfinite(y).all()  # no field sees a non-finite state
        return y ** 3

    model = fs.FastSlowModel(1, 1, f=lambda x, y: y, g=g,
                             sigma=lambda x, y: np.zeros((1, 1)))
    with pytest.raises(fs.IntegrationFailure) as err:
        burst_batch(model, np.zeros((3, 1)), np.array([[0.0], [3.0], [30.0]]),
                    RngStream(1).children([[0], [1], [2]]), 10, 1.0)
    assert err.value.replica == 1
    assert err.value.micro_index == 6


@pytest.mark.parametrize("kwargs,match", [
    ({"g": lambda x, y: -y}, "pass f only"),
    ({"sigma": lambda x, y: np.eye(1)}, "pass f only"),
    ({"slow_dim": 2}, "d = e = 1"),
    ({"fast_dim": 2}, "d = e = 1"),
])
def test_hint_model_takes_f_and_the_hint_only(kwargs, match):
    args = {"slow_dim": 1, "fast_dim": 1, "f": lambda x, y: y,
            "scalar_ou": fs.ScalarOU(decay=lambda x: 1.0,
                                     mean=lambda x: 0.0, sigma=1.0)}
    with pytest.raises(ValueError, match=match):
        fs.FastSlowModel(**{**args, **kwargs})


@pytest.mark.parametrize("missing", ["g", "sigma"])
def test_model_without_hint_needs_g_and_sigma(missing):
    fields = {"g": lambda x, y: -y, "sigma": lambda x, y: np.eye(1)}
    del fields[missing]
    with pytest.raises(ValueError, match="needs g and sigma"):
        fs.FastSlowModel(1, 1, lambda x, y: y, **fields)


def test_burst_batch_needs_one_stream_per_chain(dw_cfg):
    model = fs.DoubleWellModel().system()
    with pytest.raises(ValueError, match="2 streams for 3 chains"):
        burst_batch(model, np.zeros(3), np.zeros(3),
                    RngStream(1).children([[0], [1]]), 5, 0.1)


def test_batched_rejects_models_without_structure(dw_cfg):
    # the ensemble entry points start lanes at the ScalarOU fast mean
    generic = _hintless(fs.LinearOUModel().system())
    base = RngStream(1)
    with pytest.raises(ValueError, match="ScalarOU"):
        pooled_stationary_samples(generic, "hmm", dw_cfg, 0.0, None, 10.0, 2,
                                  1.0, base)
    with pytest.raises(ValueError, match="ScalarOU"):
        fs.first_passage_times(generic, "direct", dw_cfg,
                               fs.BasinSpec(0.0, 0.3), 2, 1.0)


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
    # the field back-end on the same keys is the reference
    model = fs.DoubleWellModel().system()
    base = RngStream(21)
    times, rec = direct_samples(model, dw_cfg, -1.0, 0.5, 1.0, [4], base,
                                record_dt=0.05)
    h = dw_cfg.eps * dw_cfg.micro_dt
    stride = round(0.05 / h)
    ref = _fixed_horizon(_DirectLanes(_hintless(model), dw_cfg,
                                      np.array([4]), np.array([[-1.0]]),
                                      np.array([[0.5]]),
                                      _direct_generators(base, np.array([4]))),
                         (len(times) - 1) * stride, stride)
    assert np.allclose(times, np.arange(len(times)) * stride * h)
    assert np.allclose(rec[:, 0], ref[:, 0, 0], atol=1e-9)


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
    x, yrep = _start_arrays(model, -0.5, None, ids.size, 1)
    every = _fixed_horizon(_DirectLanes(model, dw_cfg, ids, x, yrep[:, 0],
                                        _direct_generators(base, ids)),
                           n_rec * stride)
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
                             [base.child(-2, 0).generator for _ in ids])
        rec = _fixed_horizon(lanes, round(t_end / (cfg.eps * cfg.micro_dt)))
    else:
        t_end = 20 * cfg.macro_dt
        k = cfg.lam if scheme == "phmm" else 1
        lanes = _MacroLanes(model, cfg, ids, x0,
                            np.repeat(y0[:, None], k, axis=1),
                            base.children(np.tile(np.arange(k), 3)[:, None]))
        rec = _fixed_horizon(lanes, 20)
    for i in ids:
        alone = fs.run_scheme(model, scheme, [x0[i]], [y0[i]], cfg, t_end)
        assert np.array_equal(alone.slow(), rec[:, i])


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
    model = fs.FastSlowModel(1, 1, f=lambda x, y: y, scalar_ou=sou)
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
    # shorter direct cap (400,000 steps) leaves some lanes censored
    t_cap = 20.0 if scheme == "direct" else 400.0
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


class _ScriptedNormals:
    """Stands in for a lane's generator: hands out a fixed noise script."""

    def __init__(self, script):
        self.script, self.pos = script, 0

    def standard_normal(self, out):
        out[:] = self.script[self.pos:self.pos + out.size]
        self.pos += out.size


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
        monkeypatch.setattr(StreamBlock, "generators", lambda self: [
            _ScriptedNormals(row) for row in script])


def _scripted_model():
    """f = y, g = -2 y: with micro_dt = 0.5 each fast step sets y to its
    scaled normal, and x moves by h * y one step later."""
    sou = fs.ScalarOU(decay=lambda x: np.full_like(x, 2.0),
                      mean=lambda x: np.zeros_like(x), sigma=1.0)
    return fs.FastSlowModel(1, 1, f=lambda x, y: y, scalar_ou=sou)


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
