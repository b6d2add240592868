import math

import numpy as np
import pytest

import fastslow as fs
from fastslow import (MacroState, RngStream, SchemeConfig, averaged_step,
                      config_for_lambda, hmm_micro_burst, hmm_step, phmm_step,
                      run_scheme)


def _cfg(**kw):
    args = dict(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1, root_seed=7)
    args.update(kw)
    return SchemeConfig(**args)


class TestSchemeConfig:
    def test_micro_count_is_derived(self):
        cfg = _cfg(lam=2)
        assert cfg.micro_count == 40
        assert cfg.macro_dt == pytest.approx(
            cfg.lam * cfg.micro_count * cfg.eps * cfg.micro_dt, rel=1e-13)

    def test_inexact_macro_step_is_rejected(self):
        with pytest.raises(ValueError, match="integer number of micro steps"):
            _cfg(lam=3)  # 0.08 / (3 * 1e-3) = 26.67

    def test_large_lam_eps_warns(self):
        with pytest.warns(UserWarning, match="lam\\*eps"):
            _cfg(eps=0.05, lam=5, macro_dt=0.25, micro_dt=0.1)

    @pytest.mark.parametrize("name", ["eps", "macro_dt", "micro_dt"])
    @pytest.mark.parametrize("value", [0.0, -0.1, math.inf, math.nan])
    def test_steps_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be positive and finite"):
            _cfg(**{name: value})

    def test_config_for_lambda_snaps_macro_dt(self):
        cfg = config_for_lambda(_cfg(), 3)
        assert cfg.lam == 3
        assert cfg.micro_count == 27
        assert cfg.macro_dt == pytest.approx(3 * 27 * 1e-3)


class TestAveragedStep:
    def test_linear_model_value(self):
        F = fs.LinearOUModel(theta=1.0, mu=0.5).averaged_drift
        out = averaged_step(F, [1.0], 0.1)
        assert out[0] == pytest.approx(0.95)

    def test_zero_field(self):
        out = averaged_step(lambda x: np.zeros_like(x), [1.3], 0.5)
        assert out[0] == 1.3

    def test_double_well_fixed_point(self):
        F = fs.DoubleWellModel(mu=1.0).averaged_drift
        for dt in (0.01, 0.1, 1.0):
            assert averaged_step(F, [1.0], dt)[0] == pytest.approx(1.0)


class TestMicroBurst:
    def test_frozen_fast_state(self):
        m = fs.FastSlowModel(1, 1,
                             f=lambda x, y: x + 2 * y,
                             g=lambda x, y: np.zeros(1),
                             sigma=lambda x, y: np.zeros((1, 1)))
        cfg = SchemeConfig(eps=1e-2, lam=1, macro_dt=1e-3, micro_dt=0.1,
                           root_seed=7)
        assert cfg.micro_count == 1
        f_avg, y_end = hmm_micro_burst(m, [3.0], [0.25], cfg, RngStream(7))
        assert f_avg[0] == pytest.approx(3.5)
        assert y_end[0] == 0.25

    def test_noiseless_burst_sits_at_fast_fixed_point(self):
        m = fs.LinearOUModel(sigma_f=0.0).system()
        cfg = SchemeConfig(eps=1e-2, lam=1, macro_dt=10.0, micro_dt=0.1,
                           root_seed=7)  # M = 10^4
        f_avg, y_end = hmm_micro_burst(m, [1.0], [0.5], cfg, RngStream(7))
        assert abs(f_avg[0] - (-0.5)) < 1e-6
        assert abs(y_end[0] - 0.5) < 1e-12

    def test_ergodic_average_of_fast_ou(self):
        # x frozen at 0: f-average tends to the ergodic mean 0 within
        # 3 * sqrt(sigma^2 / (2 theta^2 T_fast)) with T_fast = M * dt
        m = fs.LinearOUModel(sigma_f=5.0).system()
        cfg = SchemeConfig(eps=1e-2, lam=1, macro_dt=100.0, micro_dt=0.1,
                           root_seed=21)  # M = 10^5
        f_avg, _ = hmm_micro_burst(m, [0.0], [0.0], cfg, RngStream(21))
        band = 3 * math.sqrt(25.0 / (2 * 1e4))
        assert abs(f_avg[0]) < band

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_burst_failure_carries_micro_index(self):
        m = fs.FastSlowModel(1, 1,
                             f=lambda x, y: y,
                             g=lambda x, y: y ** 3,
                             sigma=lambda x, y: np.zeros((1, 1)))
        cfg = SchemeConfig(eps=1e-2, lam=1, macro_dt=0.1, micro_dt=1.0,
                           root_seed=7)
        with pytest.raises(fs.IntegrationFailure) as err:
            hmm_micro_burst(m, [0.0], [3.0], cfg, RngStream(7))
        assert err.value.micro_index is not None


class TestSteppers:
    def test_hmm_step_keeps_x_when_f_is_zero(self):
        m = fs.FastSlowModel(1, 1,
                             f=lambda x, y: np.zeros(1),
                             g=lambda x, y: -y,
                             sigma=lambda x, y: np.eye(1))
        state = MacroState(0, [0.7], [[0.1]])
        out = hmm_step(m, state, _cfg(), RngStream(7).child(0, 0))
        assert out.n == 1
        assert out.x[0] == 0.7
        assert out.replica_fast.shape == (1, 1)

    def test_fast_state_is_carried_between_steps(self):
        m = fs.LinearOUModel().system()
        cfg = _cfg()
        base = RngStream(cfg.root_seed)
        s1 = hmm_step(m, MacroState(0, [1.0], [[0.3]]), cfg, base.child(0, 0))
        f_avg, y_end = hmm_micro_burst(m, [1.0], [0.3], cfg,
                                       RngStream(cfg.root_seed).child(0, 0))
        assert np.array_equal(s1.replica_fast[0], y_end)

    def test_phmm_matches_hmm_at_lambda_one(self):
        m = fs.LinearOUModel().system()
        cfg = _cfg()
        base = RngStream(cfg.root_seed)
        a = hmm_step(m, MacroState(0, [1.0], [[0.0]]), cfg, base.child(0, 0))
        b = phmm_step(m, MacroState(0, [1.0], [[0.0]]), cfg,
                      [base.child(0, 0)])
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.replica_fast, b.replica_fast)

    def test_constant_slow_drift_ignores_lambda(self):
        m = fs.FastSlowModel(1, 1,
                             f=lambda x, y: np.full(1, 2.5),
                             g=lambda x, y: -y,
                             sigma=lambda x, y: np.eye(1))
        for lam in (1, 4):
            cfg = _cfg(lam=lam)
            streams = [RngStream(9).child(j, 0) for j in range(lam)]
            out = phmm_step(m, MacroState(0, [1.0], [[0.0]] * lam), cfg,
                            streams)
            assert out.x[0] == pytest.approx(1.0 + cfg.macro_dt * 2.5)

    def test_phmm_replica_count_is_checked(self):
        m = fs.LinearOUModel().system()
        cfg = _cfg(lam=2)
        with pytest.raises(ValueError, match="carried fast states"):
            phmm_step(m, MacroState(0, [1.0], [[0.0]]), cfg,
                      [RngStream(1), RngStream(2)])


class TestRunScheme:
    def test_single_macro_step_records_two_points(self):
        m = fs.LinearOUModel().system()
        cfg = _cfg()
        traj = run_scheme(m, "hmm", [1.0], [0.0], cfg, T=cfg.macro_dt)
        assert len(traj) == 2

    def test_averaged_converges_to_stable_well(self):
        m = fs.DoubleWellModel(mu=1.0).system()
        cfg = SchemeConfig(eps=1e-3, lam=1, macro_dt=0.05, micro_dt=0.05,
                           root_seed=7)
        traj = run_scheme(m, "averaged", [0.1], [0.0], cfg, T=50.0)
        assert abs(traj.slow()[-1] - 1.0) < 1e-3

    def test_averaged_requires_closed_form_drift(self):
        m = fs.FastSlowModel(1, 1,
                             f=lambda x, y: -x,
                             g=lambda x, y: -y,
                             sigma=lambda x, y: np.eye(1))
        with pytest.raises(ValueError, match="averaged_drift"):
            run_scheme(m, "averaged", [1.0], [0.0], _cfg(), T=1.0)

    @pytest.mark.parametrize("scheme", ["direct", "hmm"])
    @pytest.mark.parametrize("t_end", [math.nan, math.inf, 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, scheme, t_end):
        m = fs.LinearOUModel().system()
        with pytest.raises(ValueError, match="^T must be positive and finite"):
            run_scheme(m, scheme, [0.0], [0.0], _cfg(), T=t_end)

    def test_unknown_scheme_is_rejected(self):
        m = fs.LinearOUModel().system()
        with pytest.raises(ValueError, match="unknown scheme"):
            run_scheme(m, "midpoint", [0.0], [0.0], _cfg(), T=1.0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failure_carries_macro_index(self):
        m = fs.FastSlowModel(1, 1,
                             f=lambda x, y: x ** 3,
                             g=lambda x, y: -y,
                             sigma=lambda x, y: np.zeros((1, 1)))
        with pytest.raises(fs.IntegrationFailure) as err:
            run_scheme(m, "hmm", [5.0], [0.0], _cfg(), T=100.0)
        assert err.value.macro_index is not None


class TestAveragingConsistency:
    # over one macro step, the multiscale iterates track the averaged Euler
    # step within O(sqrt(eps * lam)) bands: 5 * (sigma/theta) * sqrt(eps lam dt)
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    @pytest.mark.parametrize("scheme", ["hmm", "phmm"])
    def test_one_macro_step_tracks_averaged_euler(self, eps, scheme):
        model = fs.LinearOUModel(theta=1.0, mu=0.5, sigma_f=5.0)
        m = model.system()
        lam = 2
        cfg = config_for_lambda(
            SchemeConfig(eps=eps, lam=1, macro_dt=0.08, micro_dt=0.1,
                         root_seed=31), lam)
        x0, y0 = 1.0, 0.5  # y0 at the frozen-x fast mean
        x_avg = averaged_step(model.averaged_drift, [x0], cfg.macro_dt)
        bound = 5 * 5.0 * math.sqrt(eps * lam * cfg.macro_dt)
        for seed in (1, 2, 3):
            cfg_s = SchemeConfig(eps=cfg.eps, lam=cfg.lam,
                                 macro_dt=cfg.macro_dt,
                                 micro_dt=cfg.micro_dt, root_seed=seed)
            traj = run_scheme(m, scheme, [x0], [y0], cfg_s, T=cfg.macro_dt)
            assert abs(traj.slow()[-1] - x_avg[0]) < bound


class TestVarianceScaling:
    def test_lambda_one_matches_direct(self, clt_variance_sweep,
                                       linear_direct_samples):
        direct_var = float(np.var(linear_direct_samples, ddof=1))
        assert abs(clt_variance_sweep[("hmm", 1)] / direct_var - 1.0) < 0.2

    def test_hmm_variance_inflates_linearly(self, clt_variance_sweep):
        v1 = clt_variance_sweep[("hmm", 1)]
        v8 = clt_variance_sweep[("hmm", 8)]
        assert abs(v8 / (8 * v1) - 1.0) < 0.25

    def test_phmm_variance_stays_flat(self, clt_variance_sweep):
        v1 = clt_variance_sweep[("phmm", 1)]
        v8 = clt_variance_sweep[("phmm", 8)]
        assert abs(v8 / v1 - 1.0) < 0.2
