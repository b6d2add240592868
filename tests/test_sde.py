import math

import numpy as np
import pytest
from scipy.linalg import expm

import fastslow as fs
from fastslow import (FastSlowModel, IntegrationFailure, SchemeConfig,
                      Trajectory, run_scheme)


def _direct(model, x0, y0, eps, h, T, seed=1):
    """``run_scheme`` direct at step h = eps * micro_dt."""
    cfg = SchemeConfig(eps=eps, lam=1, macro_dt=h, micro_dt=h / eps,
                       root_seed=seed)
    return run_scheme(model, "direct", x0, y0, cfg, T)


def _zero_model(d=2, e=3):
    return FastSlowModel(
        d, e,
        f=lambda x, y: np.zeros(d),
        g=lambda x, y: np.zeros(e),
        sigma=lambda x, y: np.zeros((e, e)),
        name="zero",
    )


def test_zero_fields_leave_state_unchanged():
    m = _zero_model()
    traj = _direct(m, [1.0, -2.0], [0.5, 0.5, 0.5], eps=0.1, h=0.25, T=1.0)
    assert np.array_equal(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert all(np.array_equal(row, [1.0, -2.0]) for row in traj.states)


def test_noiseless_fast_relaxation_matches_matrix_exponential():
    # sigma = 0 makes the system linear ODE; the matrix exponential is the
    # independent oracle. Over slow time 0.1 the fast variable collapses
    # onto the slow manifold y ~ mu*x (up to the adiabatic lag ~ eps*|xdot|).
    eps, theta, mu = 0.01, 1.0, 0.5
    m = fs.LinearOUModel(theta=theta, mu=mu, sigma_f=0.0).system()
    h = eps * 0.1
    # one step past t = 0.1: the slow update x' = x + h (y - x) gives back
    # the fast state y(0.1) from the recorded slow path
    traj = _direct(m, [1.0], [0.0], eps, h, 101 * h, seed=3)
    assert len(traj) == 102
    x, x_next = traj.slow()[100], traj.slow()[101]
    y = x + (x_next - x) / h
    A = np.array([[-1.0, 1.0], [theta * mu / eps, -theta / eps]])
    exact = expm(0.1 * A) @ np.array([1.0, 0.0])
    assert abs(x - exact[0]) < 1e-4
    assert abs(y - exact[1]) < 1e-4
    assert abs(y - mu * x) < 3e-3  # started at |y - mu*x| = 0.5


def test_single_step_trajectory_has_two_points():
    m = _zero_model(1, 1)
    traj = _direct(m, [0.0], [0.0], eps=0.1, h=0.5, T=0.5)
    assert len(traj) == 2
    assert traj.meta["scheme"] == "direct"


def test_deterministic_euler_recursion():
    # zero noise, f = -x, g = 0: x(T) = x0 (1-h)^(T/h) exactly
    m = FastSlowModel(1, 1,
                      f=lambda x, y: -x,
                      g=lambda x, y: np.zeros(1),
                      sigma=lambda x, y: np.zeros((1, 1)))
    h, T, x0 = 0.01, 1.0, 2.0
    traj = _direct(m, [x0], [0.0], eps=0.1, h=h, T=T)
    expected = x0 * (1 - h) ** round(T / h)
    assert traj.slow()[-1] == pytest.approx(expected, rel=1e-12)
    # every step is recorded
    assert np.allclose(np.diff(traj.times), h)


@pytest.mark.filterwarnings("ignore:overflow")
def test_blowup_is_reported_with_step_index():
    # the second f raises on inf (math.sin), so the integrator must stop
    # before the field sees the overflowed state
    for f in (lambda x, y: x ** 3,
              lambda x, y: x ** 3 + 0.0 * math.sin(x[0, 0])):
        m = FastSlowModel(1, 1,
                          f=f,
                          g=lambda x, y: np.zeros(1),
                          sigma=lambda x, y: np.zeros((1, 1)))
        with pytest.raises(IntegrationFailure) as err:
            _direct(m, [4.0], [0.0], eps=0.1, h=1.0, T=50.0)
        # x runs 68, 3.1e5, 3.1e16, 3.0e49, 2.7e148, then overflows on
        # step 6
        assert err.value.step == 6
        assert err.value.time == 6.0


def test_dimension_mismatch_is_rejected():
    bad = FastSlowModel(2, 1,
                        f=lambda x, y: np.zeros(1),  # wrong: d = 2
                        g=lambda x, y: np.zeros(1),
                        sigma=lambda x, y: np.zeros((1, 1)))
    with pytest.raises(ValueError, match="f returned shape"):
        _direct(bad, [0.0, 0.0], [0.0], 0.1, 0.1, 1.0)


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), {})
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros((3, 1)), {})


def test_direct_stationary_variance_and_mean(linear_direct_samples):
    # stationary variance against the verified linear-model prediction,
    # and the time average of x tends to zero within Monte Carlo error
    predicted = fs.clt_stationary_variance_linear(fs.LinearOUModel(), 1e-2)
    var = float(np.var(linear_direct_samples, ddof=1))
    assert abs(var / predicted - 1.0) < 0.2
    assert abs(float(linear_direct_samples.mean())) < 0.07
