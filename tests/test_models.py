import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_lyapunov

import fastslow as fs
from fastslow import (DoubleWellModel, LinearOUModel, NonDiffusiveModel,
                      RngStream, clt_stationary_variance_linear, fixed_points)
from fastslow.ensemble import burst_batch


class TestBuiltinConstruction:
    def test_registry_names(self):
        for name in ("linear_ou", "double_well", "non_diffusive"):
            model = fs.make_model(name)
            assert model.system().name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            fs.make_model("pendulum")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LinearOUModel(mu=1.0)  # averaged flow not contracting
        with pytest.raises(ValueError):
            DoubleWellModel(mu=0.0)  # needs two wells
        with pytest.raises(ValueError):
            NonDiffusiveModel(nu=-1.0)

    def test_gamma_is_positive(self):
        x = np.linspace(-6, 6, 1001)
        g = NonDiffusiveModel.gamma(x)
        assert g.min() > 0
        assert g.min() == pytest.approx(0.5, abs=1e-3)  # at x^2 = 5


class TestAveragedDrift:
    def test_linear(self):
        assert LinearOUModel(theta=1.0, mu=0.5).averaged_drift(1.0) == -0.5

    def test_double_well_equilibria(self):
        m = DoubleWellModel(mu=1.0)
        assert m.averaged_drift(1.0) == 0.0
        assert m.averaged_drift(-1.0) == 0.0
        assert m.averaged_drift(0.0) == 0.0

    def test_non_diffusive_vanishes_at_fixed_points(self):
        m = NonDiffusiveModel()
        for x_star in fixed_points(m):
            assert abs(m.averaged_drift(x_star)) < 1e-8


class TestFixedPoints:
    def test_values(self):
        left, mid, right = fixed_points(NonDiffusiveModel())
        assert abs(left - 0.555) < 1e-2
        assert abs(right - 2.459) < 1e-2
        assert 1.5 < mid < 2.0

    def test_stability_pattern(self):
        m = NonDiffusiveModel()
        left, mid, right = fixed_points(m)
        assert m.averaged_drift_prime(left) < 0
        assert m.averaged_drift_prime(mid) > 0
        assert m.averaged_drift_prime(right) < 0

    def test_wrong_root_count_is_rejected(self):
        # huge noise floor pushes the averaged drift monostable
        with pytest.raises(ValueError, match="expected 3 fixed points"):
            fixed_points(NonDiffusiveModel(nu=1.0, sigma_f=10.0))


class TestCltVarianceOracle:
    def test_against_exact_lyapunov_solution(self):
        # independent oracle: stationary covariance of the full 2-D linear
        # SDE from the continuous Lyapunov equation
        eps, th, mu, sig = 1e-3, 1.0, 0.5, 5.0
        A = np.array([[-1.0, 1.0], [th * mu / eps, -th / eps]])
        B = np.array([[0.0], [sig / math.sqrt(eps)]])
        C = solve_continuous_lyapunov(A, -(B @ B.T))
        predicted = clt_stationary_variance_linear(
            LinearOUModel(th, mu, sig), eps)
        assert C[0, 0] == pytest.approx(predicted, rel=2 * eps)

    def test_scheme_values(self):
        m = LinearOUModel(theta=1.0, mu=0.5, sigma_f=5.0)
        base = clt_stationary_variance_linear(m, 1e-2, scheme="direct")
        assert base == pytest.approx(0.25)
        assert clt_stationary_variance_linear(m, 1e-2, 4, "hmm") == \
            pytest.approx(1.0)
        assert clt_stationary_variance_linear(m, 1e-2, 4, "phmm") == \
            pytest.approx(0.25)

    def test_no_stationary_regime(self):
        m = DoubleWellModel()  # mu = 1 reused as a stand-in container
        bad = LinearOUModel(theta=1.0, mu=0.99, sigma_f=1.0)
        object.__setattr__(bad, "mu", 1.5)  # bypass constructor check
        with pytest.raises(ValueError, match="stationary"):
            clt_stationary_variance_linear(bad, 1e-2)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_homogeneous_in_sigma(self, scale):
        m1 = LinearOUModel(theta=1.3, mu=0.4, sigma_f=2.0)
        m2 = LinearOUModel(theta=1.3, mu=0.4, sigma_f=2.0 * scale)
        v1 = clt_stationary_variance_linear(m1, 1e-2)
        v2 = clt_stationary_variance_linear(m2, 1e-2)
        assert v2 == pytest.approx(scale ** 2 * v1, rel=1e-12)


def _birkhoff_drift(model, x, micro_dt, t_burn, t_avg, seed):
    """Estimate of the averaged drift F(x): a burn-in burst, then an
    averaging burst, of ``burst_batch`` on one lane at frozen x, drawing
    from the keyed streams (0,) and (1,) of ``RngStream(seed)``, starting
    at the frozen-x fast mean."""
    x_lane = np.array([float(x)])
    y = np.zeros(1) + model.scalar_ou.mean(x_lane)
    base = RngStream(seed)
    _, y = burst_batch(model, x_lane, y, base.children([[0]]),
                       round(t_burn / micro_dt), micro_dt)
    f_avg, _ = burst_batch(model, x_lane, y, base.children([[1]]),
                           round(t_avg / micro_dt), micro_dt)
    return float(f_avg[0])


class TestEmpiricalAveragedDrift:
    def test_linear_at_origin(self):
        m = LinearOUModel(theta=1.0, mu=0.5, sigma_f=5.0).system()
        est = _birkhoff_drift(m, 0.0, 0.1, 50.0, 1000.0, 5)
        band = 3 * math.sqrt(25.0 / (2 * 1e3))
        assert abs(est) < band

    def test_noiseless_fast_flow_is_exact(self):
        m = LinearOUModel(theta=1.0, mu=0.5, sigma_f=0.0).system()
        est = _birkhoff_drift(m, 2.0, 0.05, 10.0, 100.0, 5)
        assert est == pytest.approx(-1.0, abs=1e-12)  # (mu-1)*x

    def test_non_diffusive_matches_closed_form(self):
        # E[Y^2] = sigma^2/(2 gamma(1)) = 1.5/2.1, so F(1) ~ -0.2857; the
        # Monte Carlo band is 3*sqrt(2 Var(y^2) tau_int / T) plus a small
        # allowance for the Euler variance inflation at gamma*dt = 0.021
        model = NonDiffusiveModel()
        est = _birkhoff_drift(model.system(), 1.0, 0.01, 50.0, 2000.0, 5)
        expected = float(model.averaged_drift(1.0))
        s2 = 3.0 / (2 * 2.1)
        band = 3 * math.sqrt(2 * (2 * s2 ** 2) * (1 / (2 * 2.1)) / 2000.0)
        assert abs(est - expected) < band + 0.01

    @pytest.mark.parametrize("maker,xs", [
        (lambda: LinearOUModel(sigma_f=5.0), (-1.0, 0.5, 2.0)),
        (lambda: DoubleWellModel(sigma_f=5.0), (-1.0, 0.3, 1.5)),
        (lambda: NonDiffusiveModel(), (0.5, 1.0, 2.5)),
    ])
    def test_converges_to_closed_form(self, maker, xs):
        model = maker()
        m = model.system()
        for i, x in enumerate(xs):
            est = _birkhoff_drift(m, x, 0.01, 50.0, 4000.0, 100 + i)
            expected = float(model.averaged_drift(x))
            # generous 3-sigma band: fast OU time-average fluctuations are
            # at most ~ sigma/sqrt(theta_min^2 T) for these models
            band = 3 * 5.0 / math.sqrt(0.5 * 4000.0) + 0.02
            assert abs(est - expected) < band

