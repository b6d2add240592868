"""The batched lockstep engine must reproduce the reference integrators'
statistics and be invariant to block composition and executors."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import fastslow as fs
from fastslow import RngStream, SchemeConfig
from fastslow.ensemble import (_linear_recurrence, burst_batch,
                               direct_samples, first_passage_block,
                               pooled_stationary_samples, scheme_samples)
from fastslow.rng import StreamBlock


@pytest.fixture
def dw_cfg():
    return SchemeConfig(eps=1e-3, lam=1, macro_dt=0.05, micro_dt=0.05,
                        root_seed=11)


def test_batched_burst_matches_reference(dw_cfg):
    base = RngStream(11)
    for model in (fs.DoubleWellModel().system(),
                  fs.NonDiffusiveModel().system()):
        ref_f, ref_y = fs.hmm_micro_burst(model, [0.7], [0.3], dw_cfg,
                                          base.child(0, 4))
        bat_f, bat_y = burst_batch(model, np.array([0.7]), np.array([0.3]),
                                   base.children([[0, 4]]), dw_cfg.micro_count,
                                   dw_cfg.micro_dt)
        assert bat_f[0] == pytest.approx(ref_f[0], abs=1e-12)
        assert bat_y[0] == pytest.approx(ref_y[0], abs=1e-12)


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


def test_burst_batch_needs_one_stream_per_chain(dw_cfg):
    model = fs.DoubleWellModel().system()
    with pytest.raises(ValueError, match="2 streams for 3 chains"):
        burst_batch(model, np.zeros(3), np.zeros(3),
                    RngStream(1).children([[0], [1]]), 5, 0.1)


def test_batched_rejects_models_without_structure(dw_cfg):
    generic = fs.FastSlowModel(1, 1,
                               f=lambda x, y: y - x,
                               g=lambda x, y: -y,
                               sigma=lambda x, y: np.eye(1))
    with pytest.raises(ValueError, match="ScalarOU"):
        burst_batch(generic, np.zeros(1), np.zeros(1),
                    RngStream(1).children(np.zeros((1, 0), dtype=int)), 5, 0.1)


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
    model = fs.DoubleWellModel().system()
    base = RngStream(21)
    times, rec = direct_samples(model, dw_cfg, -1.0, 0.5, 1.0, [4], base,
                                record_dt=0.05)
    h = dw_cfg.eps * dw_cfg.micro_dt
    stride = round(0.05 / h)
    ref = fs.direct_integrate(model, [-1.0], [0.5], dw_cfg.eps, h, 1.0,
                              base.child(4, -2, 0))
    ref_times, ref_x = ref.times[::stride], ref.slow()[::stride]
    assert np.allclose(times, ref_times[:len(times)])
    assert np.allclose(rec[:, 0], ref_x[:len(times)], atol=1e-9)


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


def test_direct_passage_latches_the_first_crossing(monkeypatch):
    # decay * micro_dt = 1 and mean 0 make each direct step set y to
    # s * xi exactly, and f = y moves x by h * y one step later; scripted
    # draws then place every crossing on a chosen step
    cfg = SchemeConfig(eps=0.01, lam=1, macro_dt=0.005, micro_dt=0.5,
                       root_seed=1)
    h = cfg.eps * cfg.micro_dt
    sou = fs.ScalarOU(decay=lambda x: np.full_like(x, 2.0),
                      mean=lambda x: np.zeros_like(x), sigma=1.0,
                      f=lambda x, y: y)
    model = fs.FastSlowModel(1, 1, f=lambda x, y: y,
                             g=lambda x, y: -2.0 * y,
                             sigma=lambda x, y: np.eye(1), scalar_ou=sou)
    kick = 1000.0  # one kicked step moves x by h * sqrt(0.5) * 1000 = 3.5
    n_cap = 1100   # chunks of 512, 512 and 76 steps
    start_y = np.array([kick, 0.0, 0.0, 0.0, 0.0])  # lane 0: step 1
    script = np.zeros((5, n_cap))
    script[1, 510] = kick                           # lane 1: step 512
    script[2, 511] = kick                           # lane 2: step 513
    script[3, 98], script[3, 99] = kick, -3 * kick  # lane 3: up at step
    script[3, 298] = 5 * kick                       # 100, down, up again
    # lane 4 never crosses

    def equilibrated(self, m):
        out = np.zeros((len(self), m))
        out[:, -1] = start_y
        return out

    monkeypatch.setattr(StreamBlock, "normals", equilibrated)
    monkeypatch.setattr(StreamBlock, "generators",
                        lambda self: [_ScriptedNormals(row) for row in script])

    # step-by-step reference: test every lane after every step
    s_amp = np.sqrt(cfg.micro_dt)
    ref = np.full(5, n_cap * h)
    for lane in range(5):
        x, y = 0.0, s_amp * start_y[lane]
        for step in range(n_cap):
            x, y = x + h * y, s_amp * script[lane, step]
            if x >= 1.0:
                ref[lane] = (step + 1) * h
                break
    assert np.array_equal(ref, [1 * h, 512 * h, 513 * h, 100 * h, n_cap * h])

    elapsed, censored = first_passage_block(model, "direct", cfg,
                                            fs.BasinSpec(0.0, 1.0),
                                            np.arange(5), n_cap * h,
                                            RngStream(1))
    assert np.array_equal(elapsed, ref)
    assert censored.tolist() == [False, False, False, False, True]
