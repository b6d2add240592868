import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fastslow import (JumpModel, Reaction, RngStream, birth_death,
                      ks_distance, ssa_final_states, ssa_run,
                      tau_leap_final_states, tau_leap_run)
from fastslow.jump import (_SEARCH_LAM_MAX, _TAU_CHUNK, _poisson_counts,
                           _poisson_search, _tau_windows)
from fastslow.rng import StreamBlock, _run_keys


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

    @pytest.mark.parametrize("birth, death", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        (-1.0, 1.0), (1.0, -0.5)])
    def test_birth_death_rates_must_be_finite_and_nonnegative(self, birth,
                                                              death):
        # a NaN rate used to pass and fail late as a propensity overflow
        with pytest.raises(ValueError,
                           match="^rates must be finite and nonnegative"):
            birth_death(birth, death)

    @pytest.mark.parametrize("eps, nu, match", [
        (math.nan, [1.0], "^eps must be positive and finite"),
        (math.inf, [1.0], "^eps must be positive and finite"),
        (0.0, [1.0], "^eps must be positive and finite"),
        (-0.01, [1.0], "^eps must be positive and finite"),
        (0.01, [math.nan], "^stoichiometry entries must be finite"),
        (0.01, [-math.inf], "^stoichiometry entries must be finite"),
    ])
    def test_eps_and_stoichiometry_must_be_finite(self, eps, nu, match):
        birth = birth_death().reactions[0]
        with pytest.raises(ValueError, match=match):
            JumpModel(1, ((birth.propensity, nu),), eps)

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

    def test_events_read_two_values_of_the_child_stream_each(self):
        # event j waits -log1p(-u) for value 2j of child(0) and picks its
        # channel with value 2j + 1; recomputed here one event at a time
        model, x0, t_end = birth_death(1.0, 1.0, 0.05), 1.0, 2.0
        path = ssa_run(model, [x0], t_end, RngStream(12))
        draws = RngStream(12).child(0).generator.random(2 * len(path))
        t, shift, n_events = 0.0, 0.0, len(path) - 2
        assert n_events > 20
        for j in range(n_events):
            total = 1.0 + (x0 + model.eps * shift)  # birth plus death rate
            t = t + model.eps * -np.log1p(-draws[2 * j]) / total
            shift += 1.0 if 1.0 > draws[2 * j + 1] * total else -1.0
            assert path.times[j + 1] == t
            assert path.states[j + 1, 0] == x0 + model.eps * shift
        assert path.times[-1] == t_end

    def test_batched_run_reads_the_child_stream_of_its_id(self):
        # the id keys a run's stream, not its position in the block
        model, base, ids = birth_death(1.0, 1.0, 0.05), RngStream(13), [4, 0, 9]
        finals = ssa_final_states(model, [1.0], 1.5, ids, base)
        for i, final in zip(ids, finals):
            assert np.array_equal(
                final, ssa_run(model, [1.0], 1.5, base.child(i)).states[-1])

    def test_event_path_is_recorded(self):
        traj = ssa_run(_pure_birth(1.0, 0.1), [0.0], 2.0, RngStream(3))
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == 2.0  # terminal snapshot
        # every jump adds exactly eps
        steps = np.diff(traj.states[:-1, 0])
        assert np.allclose(steps, 0.1)


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
        """Channel fired first by ssa_run and by ssa_final_states, with
        unit waiting times and every channel uniform u."""
        def uniforms(self, m, start):
            # even values give the waiting times -log1p(-u) = 1, odd the
            # channel uniforms; a zero waiting time would never reach T
            draws = np.full((len(self), m), u)
            draws[:, ::2] = 1.0 - math.exp(-1.0)
            return draws

        monkeypatch.setattr(StreamBlock, "uniforms", uniforms)
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


def _cyclic_network(inflow, outflow, convert, eps):
    """Species i enters at inflow[i], leaves at outflow[i] * x_i and turns
    into species i + 1 (cyclically) at convert * x_i: 3 channels a species."""
    eye = np.eye(len(inflow))
    reactions = []
    for i, (b, d) in enumerate(zip(inflow, outflow)):
        reactions += [
            Reaction(lambda x, b=b: np.full(np.shape(x)[:-1], float(b)), eye[i]),
            Reaction(lambda x, i=i, d=d: d * x[..., i], -eye[i]),
            Reaction(lambda x, i=i: convert * x[..., i],
                     np.roll(eye[i], 1) - eye[i])]
    return JumpModel(len(inflow), tuple(reactions), eps, vectorized=True)


class TestLaneKernels:
    def test_run_does_not_depend_on_its_block(self):
        # numpy sums the 12 rates of a lone lane pairwise but those of
        # several lanes sequentially; a run's event times must not change
        # with the lanes that share its block
        model = _cyclic_network([1.0, 2.0, 0.5, 1.5], [1.0, 0.5, 2.0, 1.0],
                                0.7, 0.05)
        x0 = np.array([1.0, 2.35, 0.8, 1.2])
        base = RngStream(3)
        path = ssa_run(model, x0, 0.1, base.child(0))
        assert len(path) > 20
        for t_end, state in zip(path.times, path.states):
            for ids in ([0], np.arange(8)):
                finals = ssa_final_states(model, x0, t_end, ids, base)
                assert np.array_equal(finals[0], state)

    def test_unvectorized_model_gives_the_same_runs(self):
        # bitwise, on one species and on the 12 channels of four species
        network = _cyclic_network([1.0, 2.0, 0.5, 1.5], [1.0, 0.5, 2.0, 1.0],
                                  0.7, 0.05)
        for vec, x0 in ((birth_death(1.3, 0.8, 0.05), [1.0]),
                        (network, [1.0, 2.35, 0.8, 1.2])):
            lone = JumpModel(vec.dim, vec.reactions, vec.eps,
                             vectorized=False)
            runs = (lambda m: ssa_run(m, x0, 2.0, RngStream(4)),
                    lambda m: tau_leap_run(m, x0, 2.0, 0.2, RngStream(4)))
            for run in runs:
                a, b = run(vec), run(lone)
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.states, b.states)
            ids, base = np.arange(5), RngStream(6)
            assert np.array_equal(ssa_final_states(lone, x0, 2.0, ids, base),
                                  ssa_final_states(vec, x0, 2.0, ids, base))
            assert np.array_equal(
                tau_leap_final_states(lone, x0, 2.0, 0.2, ids, base),
                tau_leap_final_states(vec, x0, 2.0, 0.2, ids, base))

    def test_fractional_stoichiometry_runs_do_not_depend_on_their_block(self):
        # x sums non-integer stoichiometry vectors, whose float sums depend
        # on their order: a lane's order must not depend on its block
        model = JumpModel(2, (
            Reaction(lambda x: np.full(np.shape(x)[:-1], 1.5), [0.1, 1 / 3]),
            Reaction(lambda x: 2.0 * x[..., 0], [-0.3, 0.1]),
            Reaction(lambda x: x[..., 1], [1 / 3, -0.3]),
            Reaction(lambda x: 0.5 * x[..., 0], [0.1, -0.3])),
            0.05, vectorized=True)
        x0, t_end, tau, base = [1.0, 1.0], 1.0, 0.05, RngStream(8)
        ids = np.arange(64)
        for batched, lone in (
                (lambda ids: ssa_final_states(model, x0, t_end, ids, base),
                 lambda i: ssa_run(model, x0, t_end, base.child(i))),
                (lambda ids: tau_leap_final_states(model, x0, t_end, tau,
                                                   ids, base),
                 lambda i: tau_leap_run(model, x0, t_end, tau,
                                        base.child(i)))):
            block = batched(ids)
            assert np.array_equal(block, np.concatenate(
                [batched(part) for part in np.split(ids, 4)]))
            for i in ids:
                assert np.array_equal(block[i], lone(int(i)).states[-1])

    def test_batched_drivers_check_x0_shape(self):
        model = birth_death()
        with pytest.raises(ValueError, match="x0 must have shape"):
            ssa_final_states(model, [1.0, 2.0], 1.0, [0, 1], RngStream(1))
        with pytest.raises(ValueError, match="x0 must have shape"):
            tau_leap_final_states(model, [1.0, 2.0], 1.0, 0.1, [0, 1],
                                  RngStream(1))

    @pytest.mark.parametrize("x0, ids, match", [
        ([math.nan], [0, 1], "^x0 must be finite"),
        ([math.inf], [0, 1], "^x0 must be finite"),
        ([-1.0], [0, 1], "^x0 must be finite and nonnegative"),
        ([1.0], [[0, 1]], "^ids must be a 1-D array of integers"),
        ([1.0], [0.5, 1.5], "^ids must be a 1-D array of integers"),
        ([1.0], [True, False], "^ids must be a 1-D array of integers"),
    ])
    def test_batched_drivers_reject_bad_inputs(self, x0, ids, match):
        model, base = birth_death(), RngStream(1)
        with pytest.raises(ValueError, match=match):
            ssa_final_states(model, x0, 1.0, ids, base)
        with pytest.raises(ValueError, match=match):
            tau_leap_final_states(model, x0, 1.0, 0.1, ids, base)
        if match.startswith("^x0"):
            with pytest.raises(ValueError, match=match):
                ssa_run(model, x0, 1.0, base)
            with pytest.raises(ValueError, match=match):
                tau_leap_run(model, x0, 1.0, 0.1, base)

    def test_drivers_accept_empty_ids_and_tiny_negative_x0(self):
        model, base = birth_death(), RngStream(1)
        assert ssa_final_states(model, [1.0], 1.0, [], base).shape == (0, 1)
        assert tau_leap_final_states(model, [1.0], 1.0, 0.1, [],
                                     base).shape == (0, 1)
        # within the orthant tolerance a state counts as nonnegative
        finals = ssa_final_states(model, [-1e-13], 0.5, [0], base)
        assert finals.shape == (1, 1)

    def test_ssa_lanes_ending_around_a_draw_refill_match_lone_runs(self):
        # about 2 / eps = 40 events per unit time: at T = 12.8 a lane
        # consumes about 512 draws, so some lanes end within the first draw
        # chunk, before the refill, and the others after it
        model = birth_death(1.0, 1.0, 0.05)
        base, t_end, ids = RngStream(21), 12.8, np.arange(48)
        finals = ssa_final_states(model, [1.0], t_end, ids, base)
        draws = []
        for i in ids:
            path = ssa_run(model, [1.0], t_end, base.child(int(i)))
            assert np.array_equal(path.states[-1], finals[i])
            draws.append(len(path) - 1)  # events plus the overshooting one
        assert min(draws) < 512 < max(draws)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
    def test_drivers_reject_a_bad_horizon(self, t_end):
        model, base = birth_death(), RngStream(1)
        calls = (lambda: ssa_final_states(model, [1.0], t_end, [0, 1], base),
                 lambda: tau_leap_final_states(model, [1.0], t_end, 0.1,
                                               [0, 1], base),
                 lambda: ssa_run(model, [1.0], t_end, base),
                 lambda: tau_leap_run(model, [1.0], t_end, 0.1, base))
        for call in calls:
            with pytest.raises(ValueError, match="^T must be finite"):
                call()

    def test_blocked_removal_keeps_lanes_alone_and_nonnegative(self):
        # constant-rate removals that only the orthant guard stops at 0
        eye = np.eye(2)
        model = JumpModel(2, tuple(
            Reaction(lambda x, r=r: np.full(np.shape(x)[:-1], r), nu)
            for r, nu in ((1.0, eye[0]), (2.0, -eye[0]),
                          (0.5, eye[1] - eye[0]), (1.0, -eye[1]))),
            0.25, vectorized=True)
        base, ids = RngStream(9), np.arange(8)
        finals = ssa_final_states(model, [0.0, 0.0], 6.0, ids, base)
        blocked = 0
        for i in ids:
            path = ssa_run(model, [0.0, 0.0], 6.0, base.child(int(i)))
            assert np.array_equal(path.states[-1], finals[i])
            assert (path.states >= 0.0).all()
            blocked += np.count_nonzero((path.states == 0.0).any(axis=1))
        assert blocked > 8  # lanes came back to the boundary after t = 0


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

    @pytest.mark.parametrize("t_end, tau", [(2.1, 0.3), (0.14, 0.02),
                                            (0.07, 0.01), (6.0, 0.05)])
    def test_windows_end_exactly_at_the_horizon(self, t_end, tau):
        # T / tau rounds to just above an integer for the first three
        model, base = birth_death(), RngStream(1)
        path = tau_leap_run(model, [1.0], t_end, tau, base.child(2))
        assert path.times[-1] == t_end
        assert np.all(np.diff(path.times) > 0)
        assert len(path) == round(t_end / tau) + 1
        finals = tau_leap_final_states(model, [1.0], t_end, tau, [0, 1, 2],
                                       base)
        assert np.array_equal(finals[2], path.states[-1])

    def test_run_alone_and_in_a_block_of_8_match_across_a_refill(self):
        # 70 windows, so the uniforms are drawn again after window 64;
        # species 3 has Poisson means near 80, the others below 1
        model = _cyclic_network([1.0, 2.0, 0.5, 400.0], [1.0, 0.5, 2.0, 1.0],
                                0.7, 0.05)
        x0 = np.array([1.0, 2.35, 0.8, 400.0])
        base, t_end, tau = RngStream(12), 0.7, 0.01
        path = tau_leap_run(model, x0, t_end, tau, base.child(3))
        assert len(path) == 71 > _TAU_CHUNK + 1
        ids = np.arange(8)
        block = _tau_windows(model, x0, t_end, tau, *_run_keys(base, ids))
        for (t, x), t_lone, x_lone in zip(block, path.times, path.states,
                                          strict=True):
            assert t == t_lone
            assert np.array_equal(x[3], x_lone)

    def test_runs_on_one_stream_object_repeat_a_fresh_stream(self):
        model, stream = birth_death(), RngStream(5)
        paths = [tau_leap_run(model, [1.0], 3.0, 0.1, s)
                 for s in (stream, stream, RngStream(5))]
        stream.normals(3)  # draws from the stream's own generator
        paths.append(tau_leap_run(model, [1.0], 3.0, 0.1, stream))
        for path in paths[1:]:
            assert np.array_equal(path.times, paths[0].times)
            assert np.array_equal(path.states, paths[0].states)

    def test_partial_final_window(self):
        traj = tau_leap_run(birth_death(1.0, 1.0, 0.01), [1.0], 1.05, 0.25,
                            RngStream(5))
        assert traj.times[-1] == pytest.approx(1.05)
        assert len(traj) == 6  # 4 full windows + 1 partial + initial

    def test_mean_above_the_poisson_limit_names_channel_run_and_window(self):
        # counts of means above ~9.2e18 could overflow int64
        with pytest.raises(OverflowError, match=r"channel 0 .*\(run 3, "
                           r"window 0, t = 0\.0\)"):
            tau_leap_final_states(birth_death(1e19, 1.0, 0.01), [1.0], 1.0,
                                  0.1, [3, 4], RngStream(1))
        # window 0 draws about 1e18 births; the death mean then reaches 1e20
        with pytest.raises(OverflowError, match=r"channel 1 .*\(run 5, "
                           r"window 1, t = 0\.1\)"):
            tau_leap_final_states(birth_death(1e17, 1e3, 0.01), [1.0], 1.0,
                                  0.1, [5, 9], RngStream(1))

    def test_ks_decreases_with_tau(self, seed_sweep):
        # KS against the SSA does not grow as tau shrinks, up to KS noise
        gate = seed_sweep.GATES["ks_decreases_with_tau"]
        values = gate.run(88)
        assert gate.passes(values), gate.describe(values)

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


_EDGE_UNIFORMS = [0.0, 1.0 - 2.0 ** -53]
_MEANS = [0.0, 1e-300, 1e-3, 9.99, np.nextafter(_SEARCH_LAM_MAX, 0.0),
          _SEARCH_LAM_MAX, np.nextafter(_SEARCH_LAM_MAX, 1e3), 1e3, 1e6]


@given(st.lists(
    st.tuples(st.sampled_from(_MEANS),
              st.sampled_from(_EDGE_UNIFORMS)
              | st.floats(0.0, 1.0, exclude_max=True))
    # at 1e18 float64 spaces counts 128 apart, and scipy's pdtr is far off
    # in the upper tail of large means (P(N > lam + 5 sd) is 100 times too
    # small at 1e12), so it can only check the quartiles and the edges
    | st.tuples(st.just(1e18), st.sampled_from(_EDGE_UNIFORMS
                                               + [0.25, 0.5, 0.75])),
    min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_poisson_counts_invert_the_cdf(draws):
    lam, u = (np.array(col) for col in zip(*draws))
    n = _poisson_counts(lam, u)
    slack = np.where(lam >= 2.0 ** 53, np.spacing(lam), 0.0)
    below = np.where(n > 0, special.pdtr(n - 1 - slack, lam), 0.0)
    assert (below <= u + 1e-12).all()
    assert (u < special.pdtr(n + slack, lam) + 1e-12).all()
    assert (n[lam == 0.0] == 0).all()
    for i in range(lam.size):  # a draw's count does not depend on its block
        assert _poisson_counts(lam[i:i + 1], u[i:i + 1])[0] == n[i]


@pytest.mark.parametrize("lam", [3.3, 29.9, 1e3])
def test_poisson_counts_mean_and_variance(lam):
    size = 10 ** 5
    n = _poisson_counts(np.full(size, lam),
                        RngStream(17).generator.random(size))
    assert abs(n.mean() - lam) < 5 * math.sqrt(lam / size)
    # the sample variance of Poisson(lam) has variance ~ (2 lam^2 + lam) / n
    assert abs(n.var(ddof=1) - lam) < 5 * math.sqrt((2 * lam ** 2 + lam)
                                                    / size)


def _reference_search(lam, u):
    """The CDF search written out per draw in Python floats, from the terms
    ``p0`` of one ``np.exp(-lam)`` over the whole array, as the kernel
    takes them: count terms while the CDF is at most u, and stop at a term
    too small to change the CDF."""
    counts = []
    for p, m, v in zip(np.exp(-lam).tolist(), lam.tolist(), u.tolist()):
        cdf, n = p, 0
        while cdf <= v:
            n += 1
            p = p * m / n
            if cdf + p == cdf:
                break
            cdf += p
        counts.append(n)
    return np.array(counts)


def test_poisson_search_matches_the_reference_bitwise():
    # with these means half the draws settle within the first terms while
    # the others run on, up to the stall of the CDF just below 1
    means = np.array([1e-3, 0.5, 3.0, 12.0, 29.9])
    uniforms = np.array([0.0, 1e-9, 0.3, 0.5, 0.9, 1 - 1e-9, 1 - 2.0 ** -53])
    lam, u = (a.ravel() for a in np.meshgrid(means, uniforms))
    order = np.random.default_rng(4).permutation(lam.size)
    lam, u = lam[order], u[order]
    n = _poisson_search(lam.copy(), u)
    assert n.dtype == np.int64
    assert np.array_equal(n, _reference_search(lam, u))
    assert np.mean(n <= 1) >= 0.4


def _reference_guarded_rates(model, x):
    """The orthant guard written out plainly (stack, clamp, mask, check):
    the reference ``JumpModel.guarded_rates`` must match bitwise."""
    x = np.asarray(x, dtype=float)
    rates = np.stack([
        np.maximum(np.broadcast_to(
            np.asarray(r.propensity(x), dtype=float), x.shape[:-1]), 0.0)
        for r in model.reactions])
    nu = np.stack([r.stoichiometry for r in model.reactions])
    cand = x[None, ...] + model.eps * nu.reshape(
        (len(model.reactions),) + (1,) * (x.ndim - 1) + (model.dim,))
    admissible = (cand >= -1e-12).all(axis=-1)
    rates = np.where(admissible, rates, 0.0)
    if not np.isfinite(rates).all():
        raise OverflowError("propensity overflow (non-finite rate)")
    return rates


class TestGuardedRates:
    @staticmethod
    def _model(nan_channel=False):
        """Two species: a scalar inflow, a signed propensity (clamped where
        negative), a death that leaves the orthant at x_1 = 0 and,
        optionally, a NaN propensity on a channel that needs x_0 >= 1."""
        reactions = [
            Reaction(lambda x: 0.7, [1.0, 0.0]),
            Reaction(lambda x: x[..., 0] - x[..., 1], [0.0, 1.0]),
            Reaction(lambda x: 2.0 * x[..., 1], [0.0, -1.0]),
        ]
        if nan_channel:
            reactions.append(Reaction(
                lambda x: np.full(np.shape(x)[:-1], np.nan), [-1.0, 0.0]))
        return JumpModel(2, tuple(reactions), 1.0, vectorized=True)

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 4, 2)])
    def test_matches_the_reference_formula_bitwise(self, shape):
        model = self._model()
        x = np.random.default_rng(1).integers(0, 3, size=shape).astype(float)
        x.reshape(-1, 2)[0] = [0.0, 0.0]  # a blocked death channel
        rates = model.guarded_rates(x)
        expected = _reference_guarded_rates(model, x)
        assert rates.shape == (3,) + shape[:-1]
        assert rates.tobytes() == expected.tobytes()
        assert rates[2].reshape(-1)[0] == 0.0
        assert rates[0].reshape(-1)[0] == 0.7  # scalar propensity broadcast

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 4, 2)])
    def test_nan_rate_raises_only_where_admissible(self, shape):
        model = self._model(nan_channel=True)
        blocked = np.full(shape, 0.5)  # x_0 - 1 < 0: NaN channel is blocked
        assert (model.guarded_rates(blocked).tobytes()
                == _reference_guarded_rates(model, blocked).tobytes())
        admissible = np.full(shape, 1.0)
        for guard in (model.guarded_rates,
                      lambda x: _reference_guarded_rates(model, x)):
            with pytest.raises(OverflowError, match="non-finite rate"):
                guard(admissible)

    def test_stoichiometry_matrix_is_read_only_and_built_once(self,
                                                              monkeypatch):
        model = self._model()
        stacks = []
        stack = np.stack
        monkeypatch.setattr(np, "stack",
                            lambda *a, **k: stacks.append(1) or stack(*a, **k))
        nu = model.stoichiometry_matrix
        for _ in range(3):
            model.guarded_rates(np.ones((4, 2)))
        assert model.stoichiometry_matrix is nu
        assert len(stacks) == 1
        assert np.array_equal(nu, [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(ValueError, match="read-only"):
            nu[0, 0] = 5.0

    @staticmethod
    def _association(eps=0.25):
        """Three species at constant rates: A + B -> C lowers two
        coordinates, a null channel moves none, an inflow of A only raises
        and a decay of C lowers one."""
        return JumpModel(3, tuple(
            Reaction(lambda x, r=r: np.full(np.shape(x)[:-1], r), nu)
            for r, nu in ((1.0, [-1.0, -1.0, 1.0]), (2.0, [0.0, 0.0, 0.0]),
                          (3.0, [1.0, 0.0, 0.0]), (4.0, [0.0, 0.0, -1.0]))),
            eps, vectorized=True)

    @pytest.mark.parametrize("model, edges, inflow_of_0", [
        (_association(), (-0.0, -1e-13, -2e-12, np.nan, np.inf), 2),
        # birth-death lowers its one coordinate, and its death rate is
        # infinite at x = inf
        (birth_death(1.0, 1.0, 0.25), (-0.0, -1e-13, -2e-12, np.nan), 0),
    ])
    def test_sparse_guard_matches_the_reference_on_the_edges(
            self, model, edges, inflow_of_0):
        # each edge value in each coordinate, on lattice lanes: in one
        # block, in the block of the lanes inside the orthant, and alone
        lattice = np.random.default_rng(3).integers(0, 3, (4, model.dim))
        x = [lattice * model.eps]
        for i in range(model.dim):
            for v in edges:
                lane = lattice * model.eps
                lane[:, i] = v
                x.append(lane)
        x = np.concatenate(x)
        inside = (x >= -1e-12).all(axis=1)
        for block in (x, x[inside]):
            assert (model.guarded_rates(block).tobytes()
                    == _reference_guarded_rates(model, block).tobytes())
        rates = model.guarded_rates(x)
        for xi, ri in zip(x, rates.T):
            lone = model.guarded_rates(xi)
            assert lone.tobytes() == ri.tobytes()
            assert (lone.tobytes()
                    == _reference_guarded_rates(model, xi).tobytes())
        # a channel that raises a coordinate below -1e-12 still fires
        assert (rates[inflow_of_0, x[:, 0] == -2e-12] > 0).all()
        assert not rates[:, np.isnan(x).any(axis=1)].any()

    def test_boundary_lanes_match_lone_lanes_and_the_rule(self):
        # lanes on the orthant boundary: zeros, -1e-13 (inside the
        # tolerance), -2e-12 (outside it) and a NaN component
        model = _cyclic_network([1.0, 2.0, 0.5, 1.5], [1.0, 0.5, 2.0, 1.0],
                                0.7, 0.05)
        x = np.random.default_rng(2).integers(0, 3, (9, 4)) * model.eps
        x[0] = 0.0
        x[1, [0, 2]] = -1e-13
        x[2, 1] = -2e-12
        x[3, 3] = np.nan
        x[4, :2] = 0.0
        rates = model.guarded_rates(x)
        lone = np.stack([model.guarded_rates(xi) for xi in x], axis=1)
        assert rates.tobytes() == lone.tobytes()
        # the rule: zero where any x + eps * nu_k is below -1e-12 or NaN
        rule = np.empty_like(rates)
        for k, r in enumerate(model.reactions):
            for i, xi in enumerate(x):
                cand = xi + model.eps * r.stoichiometry
                blocked = any(c < -1e-12 or math.isnan(c) for c in cand)
                rule[k, i] = 0.0 if blocked else max(
                    float(r.propensity(xi[None])[0]), 0.0)
        assert rates.tobytes() == rule.tobytes()
        assert not rates[:, 3].any()
        # -2e-12 blocks the inflow of species 0 but not that of species 1
        assert rates[0, 2] == 0.0 and rates[3, 2] == 2.0
