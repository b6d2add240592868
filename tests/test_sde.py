import dataclasses

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


def _model(f, decay=0.0, sigma=0.0):
    """Slow drift f over a fast OU process of constant decay, mean 0."""
    return FastSlowModel(f, fs.ScalarOU(decay=lambda x: decay,
                                        mean=lambda x: 0.0, sigma=sigma))


def test_zero_fields_leave_state_unchanged():
    m = _model(lambda x, y: np.zeros_like(y))
    traj = _direct(m, [1.0], [0.5], eps=0.1, h=0.25, T=1.0)
    assert np.array_equal(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(traj.slow(), [1.0] * 5)


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
    m = _model(lambda x, y: np.zeros_like(y))
    traj = _direct(m, [0.0], [0.0], eps=0.1, h=0.5, T=0.5)
    assert len(traj) == 2
    assert traj.meta["scheme"] == "direct"


def test_deterministic_euler_recursion():
    # zero noise, f = -x, g = 0: x(T) = x0 (1-h)^(T/h) exactly
    m = _model(lambda x, y: -x)
    h, T, x0 = 0.01, 1.0, 2.0
    traj = _direct(m, [x0], [0.0], eps=0.1, h=h, T=T)
    expected = x0 * (1 - h) ** round(T / h)
    assert traj.slow()[-1] == pytest.approx(expected, rel=1e-12)
    # every step is recorded
    assert np.allclose(np.diff(traj.times), h)


@pytest.mark.filterwarnings("ignore:overflow")
def test_blowup_is_reported_with_step_index():
    m = _model(lambda x, y: x ** 3)
    with pytest.raises(IntegrationFailure) as err:
        _direct(m, [4.0], [0.0], eps=0.1, h=1.0, T=50.0)
    # x runs 68, 3.1e5, 3.1e16, 3.0e49, 2.7e148, then overflows on step 6
    assert err.value.step == 6
    assert err.value.time == 6.0


@pytest.mark.parametrize("kwargs", [
    {}, {"scalar_ou": None}, {"scalar_ou": (1.0, 0.0, 1.0)},
    {"scalar_ou": fs.ScalarOU(lambda x: 1.0, lambda x: 0.0, 1.0),
     "g": lambda x, y: -y},
])
def test_model_is_f_and_a_scalar_ou(kwargs):
    # a missing or malformed fast process, or a field of the deleted
    # general (d, e) form, fails when the model is built
    with pytest.raises(TypeError):
        FastSlowModel(lambda x, y: y, **kwargs)


def test_dimension_mismatch_is_rejected():
    m = fs.LinearOUModel().system()
    for x0, y0, label in (([0.0, 0.0], [0.0], "x0"), (0.0, [[0.0]], "y0"),
                          (0.0, np.zeros(2), "y0")):
        with pytest.raises(ValueError,
                           match=f"^{label} must be a scalar or have shape"):
            _direct(m, x0, y0, 0.1, 0.1, 1.0)
    # scalars and (1,) start values give the same path
    assert np.array_equal(_direct(m, 0.5, 0.2, 0.1, 0.1, 1.0).states,
                          _direct(m, [0.5], [0.2], 0.1, 0.1, 1.0).states)
    # an f that returns two values would fail inside the lane drivers
    two = _model(lambda x, y: np.concatenate([x, y]), decay=1.0)
    for scheme in ("direct", "hmm", "phmm"):
        with pytest.raises(ValueError, match=r"f returned shape \(2,\)"):
            run_scheme(two, scheme, [0.0], [0.0], _REPLACE_CFG, 1.0)


_REPLACE_CFG = SchemeConfig(eps=4e-3, lam=3, macro_dt=0.06, micro_dt=0.05,
                            root_seed=3)


def _runs(model):
    """run_scheme states of the three lane schemes."""
    return [run_scheme(model, scheme, [-0.5], [0.2], _REPLACE_CFG, T).states
            for scheme, T in (("direct", 0.05), ("hmm", 1.2), ("phmm", 1.2))]


def test_replace_renames_a_hint_model():
    model = fs.DoubleWellModel().system()
    renamed = dataclasses.replace(model, name="renamed")
    assert renamed.name == "renamed"
    assert renamed.scalar_ou is model.scalar_ou
    for a, b in zip(_runs(model), _runs(renamed)):
        assert np.array_equal(a, b)


def test_replace_takes_a_new_fast_process():
    model = fs.LinearOUModel().system()
    hint = fs.ScalarOU(decay=lambda x: 2.0 + 0.0 * x, mean=lambda x: 0.3 * x,
                       sigma=4.0)
    rehinted = dataclasses.replace(model, scalar_ou=hint)
    fresh = FastSlowModel(model.f, scalar_ou=hint)
    assert rehinted.scalar_ou is hint
    for a, b, old in zip(_runs(rehinted), _runs(fresh), _runs(model)):
        assert np.array_equal(a, b)
        assert not np.array_equal(a, old)
    with pytest.raises(TypeError, match="must be a ScalarOU"):
        dataclasses.replace(model, scalar_ou=None)


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
