import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastslow import (JumpModel, Reaction, RngStream, birth_death,
                      ks_distance, ssa_final_states, ssa_run,
                      tau_leap_final_states, tau_leap_run)
from fastslow.rng import StreamBlock


def _pure_birth(rate=1.0, eps=0.01):
    prop = lambda x: np.broadcast_to(float(rate), np.asarray(x).shape[:-1]).copy()
    return JumpModel(1, (Reaction(prop, [1.0]),), eps, vectorized=True,
                     name="pure_birth")


def _dead_model(eps=0.01):
    prop = lambda x: np.broadcast_to(0.0, np.asarray(x).shape[:-1]).copy()
    return JumpModel(1, (Reaction(prop, [1.0]),), eps, vectorized=True)


class TestModelValidation:
    def test_dimensions_checked(self):
        with pytest.raises(ValueError, match="stoichiometry"):
            JumpModel(2, ((lambda x: 1.0, [1.0]),), 0.01)
        with pytest.raises(ValueError):
            JumpModel(1, (), 0.01)
        with pytest.raises(ValueError):
            birth_death(birth=-1.0)

    def test_orthant_guard_zeroes_blocked_channels(self):
        model = birth_death(1.0, 1.0, 0.01)
        rates = model.guarded_rates(np.array([0.0]))
        assert rates[0] == 1.0   # birth allowed
        assert rates[1] == 0.0   # death would leave the orthant


class TestSsa:
    def test_absorbing_state_single_record(self):
        traj = ssa_run(_dead_model(), [2.0], 5.0, RngStream(1))
        assert len(traj) == 1
        assert traj.meta["absorbed"] is True
        assert traj.states[0, 0] == 2.0

    def test_pure_birth_is_scaled_poisson(self):
        # X(T) - x0 = eps * Poisson(c T / eps): mean 1, variance eps
        model = _pure_birth(1.0, 0.01)
        finals = ssa_final_states(model, [0.0], 1.0, np.arange(10000),
                                  RngStream(8))[:, 0]
        n = finals.size
        assert abs(finals.mean() - 1.0) < 3 * math.sqrt(0.01 / n)
        # var(sample var) of eps^2*Poisson(100): ~ (2 k^2 + k) eps^4
        sd_var = math.sqrt((2 * 100 ** 2 + 100) / n) * 0.01 ** 2
        assert abs(finals.var(ddof=1) - 0.01) < 3 * sd_var

    def test_birth_death_stationary_mean(self):
        model = birth_death(1.0, 1.0, 0.01)
        finals = ssa_final_states(model, [1.0], 10.0, np.arange(4000),
                                  RngStream(9))[:, 0]
        # stationary law is eps * Poisson(1/eps)
        assert abs(finals.mean() - 1.0) < 3 * math.sqrt(0.01 / 4000)
        assert abs(finals.var(ddof=1) / 0.01 - 1.0) < 0.1

    def test_single_run_matches_batched_run(self):
        model = birth_death(1.0, 1.0, 0.01)
        base = RngStream(55)
        finals = ssa_final_states(model, [1.0], 3.0, np.arange(5), base)
        for i in range(5):
            traj = ssa_run(model, [1.0], 3.0, base.child(i))
            assert traj.states[-1, 0] == finals[i, 0]

    def test_event_path_is_recorded(self):
        traj = ssa_run(_pure_birth(1.0, 0.1), [0.0], 2.0, RngStream(3))
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == 2.0  # terminal snapshot
        # every jump adds exactly eps
        steps = np.diff(traj.states[:-1, 0])
        assert np.allclose(steps, 0.1)


class _ForcedDraws:
    """Stands in for a generator: unit exponentials, one fixed uniform."""

    def __init__(self, u):
        self.u = u

    def standard_exponential(self, n):
        return np.ones(n)

    def random(self, n):
        return np.full(n, self.u)


def _constant_rate_network(rates, eps=0.5):
    """len(rates) channels; channel k fires at rates[k] and moves e_k."""
    dim = len(rates)
    reactions = tuple(
        Reaction(lambda x, r=float(r): np.full(np.shape(x)[:-1], r),
                 np.eye(dim)[k])
        for k, r in enumerate(rates))
    return JumpModel(dim, reactions, eps, vectorized=True)


class TestSsaChannelSelection:
    @staticmethod
    def _fired(rates, u, monkeypatch):
        """Channel fired first by ssa_run and by ssa_final_states."""
        monkeypatch.setattr(RngStream, "generator",
                            property(lambda self: _ForcedDraws(u)))
        monkeypatch.setattr(StreamBlock, "generators",
                            lambda self: [_ForcedDraws(u) for _ in self.parts])
        model = _constant_rate_network(rates)
        x0 = np.zeros(len(rates))
        # unit exponentials: the second event falls past T
        t_end = 1.5 * model.eps / float(np.sum(rates))
        single = ssa_run(model, x0, t_end, RngStream(1)).states[-1]
        batched = ssa_final_states(model, x0, t_end, [0], RngStream(1))[0]
        return int(np.argmax(single)), int(np.argmax(batched))

    def test_uniform_next_to_one_fires_the_last_channel(self, monkeypatch):
        u = 1.0 - 2.0 ** -53
        gen = np.random.default_rng(0)
        rates = gen.random(12) * 10
        # a 12-channel rate vector whose pairwise sum exceeds its cumsum
        while not u * rates.sum() > np.cumsum(rates)[-1]:
            rates = gen.random(12) * 10
        assert self._fired(rates, u, monkeypatch) == (11, 11)

    def test_zero_uniform_skips_zero_rate_channels(self, monkeypatch):
        rates = np.r_[0.0, 0.0, np.linspace(1.0, 3.0, 10)]
        assert self._fired(rates, 0.0, monkeypatch) == (2, 2)


class TestTauLeap:
    def test_zero_propensities_stay_constant(self):
        traj = tau_leap_run(_dead_model(), [2.0], 1.0, 0.25, RngStream(1))
        assert np.all(traj.states == 2.0)

    def test_pure_birth_matches_ssa_in_distribution(self):
        # state-independent propensity makes tau-leaping exact for any tau
        model = _pure_birth(1.0, 0.01)
        base = RngStream(66)
        a = ssa_final_states(model, [0.0], 1.0, np.arange(10000), base.child(0))
        b = tau_leap_final_states(model, [0.0], 1.0, 0.3, np.arange(10000),
                                  base.child(1))
        assert ks_distance(a[:, 0], b[:, 0]) < 0.05

    def test_single_run_matches_batched_run(self):
        model = birth_death(1.0, 1.0, 0.01)
        base = RngStream(77)
        finals = tau_leap_final_states(model, [1.0], 3.0, 0.1, np.arange(4),
                                       base)
        for i in range(4):
            traj = tau_leap_run(model, [1.0], 3.0, 0.1, base.child(i))
            assert traj.states[-1, 0] == finals[i, 0]

    def test_partial_final_window(self):
        traj = tau_leap_run(birth_death(1.0, 1.0, 0.01), [1.0], 1.05, 0.25,
                            RngStream(5))
        assert traj.times[-1] == pytest.approx(1.05)
        assert len(traj) == 6  # 4 full windows + 1 partial + initial

    def test_ks_decreases_with_tau(self):
        model = birth_death(1.0, 1.0, 0.01)
        base = RngStream(88)
        n = 10000
        ssa = ssa_final_states(model, [1.0], 10.0, np.arange(n),
                               base.child(0))[:, 0]
        ks = {}
        for j, tau in enumerate((0.2, 0.1, 0.05)):
            tl = tau_leap_final_states(model, [1.0], 10.0, tau, np.arange(n),
                                       base.child(j + 1))[:, 0]
            ks[tau] = ks_distance(ssa, tl)
        noise = 2 * math.sqrt(2.0 / n)
        assert ks[0.1] <= ks[0.2] + noise
        assert ks[0.05] <= ks[0.1] + noise

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_mass_balance(self, seed):
        # every recorded state sits exactly on x0 + eps * (integer counts)
        model = birth_death(1.3, 0.8, 0.05)
        traj = tau_leap_run(model, [1.0], 2.0, 0.2, RngStream(seed))
        lattice = np.round((traj.states[:, 0] - 1.0) / 0.05)
        assert np.array_equal(traj.states[:, 0], 1.0 + 0.05 * lattice)
        traj2 = ssa_run(model, [1.0], 1.0, RngStream(seed))
        lattice2 = np.round((traj2.states[:, 0] - 1.0) / 0.05)
        assert np.array_equal(traj2.states[:, 0], 1.0 + 0.05 * lattice2)


class TestEpsScaling:
    def test_variance_proportional_to_eps(self):
        # Var(X(T)) at fixed T scales linearly in eps for the birth-death
        # chain started at its stationary mean
        eps_values = (0.04, 0.02, 0.01)
        variances = []
        for j, eps in enumerate(eps_values):
            model = birth_death(1.0, 1.0, eps)
            finals = ssa_final_states(model, [1.0], 8.0, np.arange(2000),
                                      RngStream(300 + j))[:, 0]
            variances.append(float(finals.var(ddof=1)))
        x = np.array(eps_values)
        y = np.array(variances)
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        r2 = 1 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 > 0.95
        assert slope == pytest.approx(1.0, rel=0.2)  # var = eps * b/d


def test_determinism_same_seed_same_path():
    model = birth_death(1.0, 1.0, 0.01)
    a = ssa_run(model, [1.0], 2.0, RngStream(123))
    b = ssa_run(model, [1.0], 2.0, RngStream(123))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
