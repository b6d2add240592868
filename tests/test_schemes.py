import math

import numpy as np
import pytest

import fastslow as fs
from fastslow import RngStream, SchemeConfig, config_for_lambda, run_scheme
from fastslow.ensemble import burst_batch, scheme_samples


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

    def test_micro_count_is_not_an_argument(self):
        with pytest.raises(TypeError, match="micro_count"):
            _cfg(micro_count=7)

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

    @pytest.mark.parametrize("lam", [0, -1, 1.5, math.inf, math.nan])
    def test_lam_must_be_a_positive_integer(self, lam):
        with pytest.raises(ValueError,
                           match="^lam must be a positive integer"):
            _cfg(lam=lam)

    def test_integral_float_lam_is_stored_as_int(self):
        cfg = _cfg(lam=2.0)
        assert type(cfg.lam) is int
        assert cfg.config_hash() == _cfg(lam=2).config_hash()

    def test_config_for_lambda_snaps_macro_dt(self):
        cfg = config_for_lambda(_cfg(), 3)
        assert cfg.lam == 3
        assert cfg.micro_count == 27
        assert cfg.macro_dt == pytest.approx(3 * 27 * 1e-3)


def _burst(model, x, y, m_count, dt, seed):
    """One burst of one lane on stream ``seed``."""
    f_avg, y_end = burst_batch(model, np.full(1, x), np.full(1, y),
                               RngStream(seed).children([[0]]), m_count, dt)
    return float(f_avg[0]), float(y_end[0])


def _model(f, decay, sigma):
    """Slow drift f over a fast OU process of constant decay, mean 0."""
    return fs.FastSlowModel(f, fs.ScalarOU(
        decay=lambda x: np.full_like(x, decay),
        mean=lambda x: np.zeros_like(x), sigma=sigma))


class TestMicroBurst:
    def test_frozen_fast_state(self):
        m = _model(lambda x, y: x + 2 * y, 0.0, 0.0)
        f_avg, y_end = _burst(m, 3.0, 0.25, 1, 0.1, 7)
        assert f_avg == pytest.approx(3.5)
        assert y_end == 0.25

    def test_noiseless_burst_sits_at_fast_fixed_point(self):
        m = fs.LinearOUModel(sigma_f=0.0).system()
        f_avg, y_end = _burst(m, 1.0, 0.5, 10 ** 4, 0.1, 7)
        assert abs(f_avg - (-0.5)) < 1e-6
        assert abs(y_end - 0.5) < 1e-12

    def test_ergodic_average_of_fast_ou(self):
        # x frozen at 0: f-average tends to the ergodic mean 0 within
        # 3 * sqrt(sigma^2 / (2 theta^2 T_fast)) with T_fast = M * dt
        m = fs.LinearOUModel(sigma_f=5.0).system()
        band = 3 * math.sqrt(25.0 / (2 * 1e4))
        f_avg, _ = _burst(m, 0.0, 0.0, 10 ** 5, 0.1, 21)
        assert abs(f_avg) < band

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_burst_failure_carries_micro_index(self):
        # decay -1 at micro_dt 1 doubles y each micro step: 3 * 2^1022 is
        # finite, 3 * 2^1023 overflows, inside the first 2,000-step burst
        m = _model(lambda x, y: y, -1.0, 0.0)
        cfg = SchemeConfig(eps=1e-2, lam=1, macro_dt=20.0, micro_dt=1.0,
                           root_seed=7)
        with pytest.raises(fs.IntegrationFailure) as err:
            run_scheme(m, "hmm", [0.0], [3.0], cfg, T=40.0)
        assert err.value.macro_index == 0
        assert err.value.micro_index == 1023

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_scalar_burst_failure_carries_micro_index(self):
        # decay -1 at dt = 1 doubles y each micro step: 2^1024 overflows
        m = _model(lambda x, y: y, -1.0, 0.0)
        with pytest.raises(fs.IntegrationFailure) as err:
            _burst(m, 0.0, 1.0, 2000, 1.0, 1)
        assert err.value.micro_index == 1024


class TestSteppers:
    def test_hmm_step_keeps_x_when_f_is_zero(self):
        m = _model(lambda x, y: np.zeros_like(y), 1.0, 1.0)
        cfg = _cfg()
        traj = run_scheme(m, "hmm", [0.7], [0.1], cfg, T=3 * cfg.macro_dt)
        assert np.array_equal(traj.slow(), [0.7] * 4)

    def test_fast_state_is_carried_between_steps(self):
        # two macro steps by hand: the second burst starts where the first
        # ended, at the new slow value
        m = fs.LinearOUModel().system()
        cfg = _cfg()
        traj = run_scheme(m, "hmm", [1.0], [0.3], cfg, T=2 * cfg.macro_dt)
        keys = RngStream(cfg.root_seed).children([[0]])
        x, y = np.array([1.0]), np.array([0.3])
        for n in range(2):
            f_avg, y = burst_batch(m, x, y, keys.child(n), cfg.micro_count,
                                   cfg.micro_dt)
            x = x + cfg.macro_dt * f_avg
            assert traj.slow()[n + 1] == x[0]

    def test_phmm_matches_hmm_at_lambda_one(self):
        m = fs.LinearOUModel().system()
        cfg = _cfg()
        a = run_scheme(m, "hmm", [1.0], [0.0], cfg, T=5 * cfg.macro_dt)
        b = run_scheme(m, "phmm", [1.0], [0.0], cfg, T=5 * cfg.macro_dt)
        assert np.array_equal(a.states, b.states)

    def test_constant_slow_drift_ignores_lambda(self):
        m = _model(lambda x, y: np.full_like(y, 2.5), 1.0, 1.0)
        for lam in (1, 4):
            cfg = _cfg(lam=lam)
            traj = run_scheme(m, "phmm", [1.0], [0.0], cfg, T=cfg.macro_dt)
            assert traj.slow()[1] == pytest.approx(1.0 + cfg.macro_dt * 2.5)

    def test_f_of_the_wrong_burst_shape_is_named(self):
        # (1,) on one lane passes run_scheme's check, but a burst calls f on
        # x (B, 1) and y (B, M): it used to fail with a numpy AxisError
        bad = _model(lambda x, y: np.full(1, 2.5), 1.0, 1.0)
        cfg = _cfg(lam=2)
        match = r"^f returned shape \(1,\) on a burst of shape \(\d+, \d+\)"
        for scheme in ("hmm", "phmm"):
            with pytest.raises(ValueError, match=match):
                run_scheme(bad, scheme, [1.0], [0.0], cfg, T=cfg.macro_dt)
        with pytest.raises(ValueError, match=match):
            scheme_samples(bad, "hmm", cfg, 1.0, 0.0, cfg.macro_dt, [0, 1],
                           RngStream(1))
        # an f of x alone may return (B, 1)
        of_x = _model(lambda x, y: 2.5 + 0.0 * x, 1.0, 1.0)
        traj = run_scheme(of_x, "phmm", [1.0], [0.0], cfg, T=cfg.macro_dt)
        assert traj.slow()[1] == 1.0 + cfg.macro_dt * 2.5

    def test_phmm_averages_lam_replica_bursts(self):
        # replica j of the one path draws from root.child(j, n)
        m = fs.LinearOUModel().system()
        cfg = _cfg(lam=2)
        traj = run_scheme(m, "phmm", [1.0], [0.0], cfg, T=cfg.macro_dt)
        f_avg, _ = burst_batch(m, np.ones(2), np.zeros(2),
                               RngStream(cfg.root_seed).children([[0, 0],
                                                                  [1, 0]]),
                               cfg.micro_count, cfg.micro_dt)
        assert traj.slow()[1] == 1.0 + cfg.macro_dt * f_avg.mean()

    def test_phmm_burst_failure_names_the_replica(self):
        # without decay y is the noise walk from the keys (j, 0); f turns
        # infinite on the step where it passes 1.5, so replica j fails there
        m = _model(lambda x, y: np.where(y > 1.5, np.inf, y), 0.0, 1.0)
        cfg = SchemeConfig(eps=1e-2, lam=4, macro_dt=0.4, micro_dt=1.0,
                           root_seed=6)
        walks = np.cumsum(RngStream(cfg.root_seed).children(
            [[j, 0] for j in range(4)]).normals(cfg.micro_count), axis=1)
        crossed = walks > 1.5
        rep = int(np.argmax(crossed.any(axis=1)))
        assert rep > 0 and crossed[rep + 1:].any()  # not the first, not alone
        with pytest.raises(fs.IntegrationFailure) as err:
            run_scheme(m, "phmm", [0.0], [0.0], cfg, T=cfg.macro_dt)
        assert err.value.macro_index == 0
        assert err.value.replica == rep
        assert err.value.micro_index == int(np.argmax(crossed[rep])) + 1


class TestRunScheme:
    def test_single_macro_step_records_two_points(self):
        m = fs.LinearOUModel().system()
        cfg = _cfg()
        traj = run_scheme(m, "hmm", [1.0], [0.0], cfg, T=cfg.macro_dt)
        assert len(traj) == 2

    @pytest.mark.parametrize("scheme", ["direct", "hmm"])
    @pytest.mark.parametrize("t_end", [math.nan, math.inf, 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, scheme, t_end):
        m = fs.LinearOUModel().system()
        with pytest.raises(ValueError, match="^T must be positive and finite"):
            run_scheme(m, scheme, [0.0], [0.0], _cfg(), T=t_end)

    def test_unknown_scheme_is_rejected(self):
        m = fs.LinearOUModel().system()
        for scheme in ("midpoint", "averaged"):
            with pytest.raises(ValueError, match="unknown scheme"):
                run_scheme(m, scheme, [0.0], [0.0], _cfg(), T=1.0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failure_carries_macro_index(self):
        m = _model(lambda x, y: x ** 3, 1.0, 0.0)
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
        x_avg = x0 + cfg.macro_dt * model.averaged_drift(x0)
        bound = 5 * 5.0 * math.sqrt(eps * lam * cfg.macro_dt)
        for seed in (1, 2, 3):
            cfg_s = SchemeConfig(eps=cfg.eps, lam=cfg.lam,
                                 macro_dt=cfg.macro_dt,
                                 micro_dt=cfg.micro_dt, root_seed=seed)
            traj = run_scheme(m, scheme, [x0], [y0], cfg_s, T=cfg.macro_dt)
            assert abs(traj.slow()[-1] - x_avg) < bound


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
