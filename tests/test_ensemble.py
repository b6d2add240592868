"""The batched lockstep engine must reproduce the reference integrators'
statistics and be invariant to block composition and executors."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fastslow as fs
from fastslow import RngStream, SchemeConfig
from fastslow.ensemble import (burst_batch, direct_samples,
                               first_passage_block, pooled_stationary_samples,
                               scheme_samples)


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
    ref = fs.direct_integrate(model, [-1.0], [0.5], dw_cfg.eps, h, 1.0,
                              base.child(4, -2, 0),
                              record_stride=round(0.05 / h))
    assert np.allclose(times, ref.times[:len(times)])
    assert np.allclose(rec[:, 0], ref.slow()[:len(times)], atol=1e-9)


def test_pooled_samples_are_executor_invariant():
    model = fs.LinearOUModel().system()
    cfg = SchemeConfig(eps=1e-2, lam=2, macro_dt=0.08, micro_dt=0.1,
                       root_seed=9)
    base = RngStream(9)
    serial = pooled_stationary_samples(model, "hmm", cfg, 0.0, None, 40.0, 8,
                                       2.0, base, chain_block=3)
    with ThreadPoolExecutor(max_workers=5) as pool:
        parallel = pooled_stationary_samples(model, "hmm", cfg, 0.0, None,
                                             40.0, 8, 2.0, base,
                                             executor=pool, chain_block=3)
    assert np.array_equal(serial, parallel)


def test_pooled_samples_burn_in_validation():
    model = fs.LinearOUModel().system()
    cfg = SchemeConfig(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1,
                       root_seed=9)
    with pytest.raises(ValueError, match="burn_in"):
        pooled_stationary_samples(model, "hmm", cfg, 0.0, None, 10.0, 5,
                                  3.0, RngStream(9))


def test_first_passage_block_invariance(double_well_model, dw_basin):
    cfg = SchemeConfig(eps=1e-3, lam=2, macro_dt=0.06, micro_dt=0.05,
                       root_seed=5)
    model = double_well_model.system()
    base = RngStream(5)
    el, cen = first_passage_block(model, "hmm", cfg, dw_basin,
                                  np.arange(6), 400.0, base)
    el_a, _ = first_passage_block(model, "hmm", cfg, dw_basin,
                                  np.arange(3), 400.0, base)
    el_b, _ = first_passage_block(model, "hmm", cfg, dw_basin,
                                  np.arange(3, 6), 400.0, base)
    assert np.array_equal(el, np.concatenate([el_a, el_b]))
    assert not cen.any()
