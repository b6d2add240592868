import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

import fastslow as fs
from fastslow import (BasinSpec, NonDiffusiveModel, SchemeConfig, Trajectory,
                      first_passage_times, fit_log_mfpt_inverse_lambda,
                      hamiltonian_nondiffusive, histogram, ks_distance,
                      ldp_escape_prediction, occupancy_fraction,
                      quasipotential, quasipotential_derivative,
                      stationary_variance, summarize_fpt)


def _traj(values, dt=1.0):
    values = np.asarray(values, dtype=float)
    return Trajectory(np.arange(len(values)) * dt, values[:, None], {})


class TestStationaryVariance:
    def test_constant_trajectory(self):
        assert stationary_variance(_traj([2.0] * 50), 10.0)[0] == 0.0

    def test_burn_in_longer_than_trajectory(self):
        with pytest.raises(ValueError, match="burn_in"):
            stationary_variance(_traj([0.0, 1.0, 2.0]), 5.0)

    def test_matches_linear_prediction(self, linear_direct_samples):
        predicted = fs.clt_stationary_variance_linear(fs.LinearOUModel(),
                                                      1e-2)
        var = float(np.var(linear_direct_samples, ddof=1))
        assert abs(var / predicted - 1.0) < 0.2


class TestHistogram:
    def test_single_sample_in_one_bin(self):
        traj = _traj([0.0, 3.5])  # burn-in removes the first point
        h = histogram(traj, 0.5, [3.0, 4.0, 5.0])
        assert list(h.counts) == [1, 0]
        assert h.underflow == 0 and h.overflow == 0

    def test_overflow_bins(self):
        traj = _traj([0.0, -10.0, 10.0, 0.5])
        h = histogram(traj, 0.5, [0.0, 1.0])
        assert h.underflow == 1 and h.overflow == 1
        assert h.total == 3

    def test_non_ascending_edges_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            histogram(_traj([0.0, 1.0]), 0.0, [1.0, 1.0])

    def test_double_well_bimodality(self, dw_histogram_samples):
        # verified-oracle version of the barrier-population comparison: the
        # peak-to-saddle density ratio of the stationary law exp(-2U/D)
        # with D = eps * sigma^2/theta^2 (times lam for the plain HMM)
        def predicted_ratio(lam):
            beta = 2.0 / (1e-3 * 225.0 * lam)
            well = quad(lambda x: math.exp(-beta * (x ** 4 / 4 - x ** 2 / 2)),
                        0.75, 1.25)[0]
            saddle = quad(lambda x: math.exp(-beta * (x ** 4 / 4 - x ** 2 / 2)),
                          -0.25, 0.25)[0]
            return well / saddle

        for scheme, lam in (("direct", 1), ("phmm", 1), ("hmm", 5)):
            samples = dw_histogram_samples[scheme]
            occ0 = occupancy_fraction(samples, 0.0, 0.25)
            occ_wells = (occupancy_fraction(samples, -1.0, 0.25)
                         + occupancy_fraction(samples, 1.0, 0.25)) / 2
            measured = occ_wells / occ0
            assert measured == pytest.approx(predicted_ratio(lam), rel=0.3)

    def test_hmm_overpopulates_barrier(self, dw_histogram_samples):
        # relative saddle population (normalized by the well population)
        # under HMM exceeds the PHMM one by at least 5x
        def rel_occ(samples):
            occ0 = occupancy_fraction(samples, 0.0, 0.25)
            wells = (occupancy_fraction(samples, -1.0, 0.25)
                     + occupancy_fraction(samples, 1.0, 0.25))
            return occ0 / wells

        ratio = rel_occ(dw_histogram_samples["hmm"]) / \
            rel_occ(dw_histogram_samples["phmm"])
        assert ratio >= 5.0


class TestEmpiricalCDF:
    """The right-continuous empirical CDFs that ks_distance compares."""

    def test_evaluates_to_k_over_n(self):
        # against one point mass at c the distance is max(F(c-), 1 - F(c)),
        # so it reads the CDF of [3, 1, 2] on both sides of c
        sample = [3.0, 1.0, 2.0]
        for c, dist in ((0.0, 1.0), (1.0, 2 / 3), (2.0, 1 / 3), (2.5, 2 / 3),
                        (3.0, 2 / 3), (4.0, 1.0)):
            assert ks_distance(sample, [c]) == pytest.approx(dist, abs=1e-15)
        with pytest.raises(ValueError, match="at least one sample"):
            ks_distance([], sample)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_reaches_one(self, values):
        # a sample lying wholly below another is at distance 1, and a
        # distance is a difference of two CDFs in [0, 1]
        top = max(values)
        assert ks_distance(values, [top + 1]) == 1.0
        assert 0.0 <= ks_distance(values, [top]) <= 1.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
           st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_ks_symmetric(self, a, b):
        assert ks_distance(a, b) == pytest.approx(ks_distance(b, a))
        assert ks_distance(a, a) == 0.0

    def test_ks_matches_scipy(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=300), rng.normal(0.3, size=200)
        assert ks_distance(a, b) == pytest.approx(
            stats.ks_2samp(a, b).statistic, abs=1e-12)


class TestBasinSpec:
    def test_threshold_must_differ(self):
        with pytest.raises(ValueError):
            BasinSpec(1.0, 1.0, "upcrossing")

    def test_direction_consistency(self):
        with pytest.raises(ValueError):
            BasinSpec(0.0, -1.0, "upcrossing")
        with pytest.raises(ValueError):
            BasinSpec(0.0, 1.0, "downcrossing")
        with pytest.raises(ValueError):
            BasinSpec(0.0, 1.0, "sideways")


class TestFirstPassage:
    def test_noiseless_crossing_time_matches_averaged_flow(self):
        # start at 1, threshold 0.5, downcrossing; with sigma = 0 the slow
        # variable follows dx/dt = -x/2 so the crossing time is 2 ln 2
        model = fs.LinearOUModel(theta=1.0, mu=0.5, sigma_f=0.0).system()
        basin = BasinSpec(1.0, 0.5, "downcrossing")
        for scheme in ("direct", "hmm", "phmm"):
            cfg = SchemeConfig(eps=1e-3, lam=2, macro_dt=0.01, micro_dt=0.05,
                               root_seed=4)
            elapsed, censored = first_passage_times(model, scheme, cfg,
                                                    basin, 3, 50.0)
            assert not censored.any()
            assert elapsed == pytest.approx(np.full(3, 2 * math.log(2)),
                                            rel=0.05)

    def test_all_censored_raises(self):
        model = fs.LinearOUModel(sigma_f=0.0).system()
        basin = BasinSpec(0.0, 5.0, "upcrossing")  # never reached, no noise
        cfg = SchemeConfig(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1,
                           root_seed=4)
        with pytest.raises(RuntimeError, match="censored"):
            first_passage_times(model, "hmm", cfg, basin, 4, 2.0)

    def test_censored_samples_are_flagged_and_counted(self):
        model = fs.DoubleWellModel().system()
        basin = BasinSpec(-1.0, 1.0, "upcrossing")
        cfg = SchemeConfig(eps=1e-3, lam=1, macro_dt=0.06, micro_dt=0.05,
                           root_seed=4)
        elapsed, censored = first_passage_times(model, "hmm", cfg, basin, 16,
                                                20.0)
        summary = summarize_fpt(elapsed, censored)
        assert summary.n_censored == censored.sum() >= 1  # mean ~ 47 >> 20
        assert summary.n_total == 16
        assert np.all(elapsed[censored] == 20.0)
        assert summary.mfpt == elapsed[~censored].mean()

    def test_block_and_executor_invariance(self):
        from concurrent.futures import ThreadPoolExecutor
        model = fs.DoubleWellModel().system()
        basin = BasinSpec(-1.0, 1.0, "upcrossing")
        cfg = SchemeConfig(eps=1e-3, lam=5, macro_dt=0.05, micro_dt=0.05,
                           root_seed=4)
        ref = first_passage_times(model, "hmm", cfg, basin, 10, 100.0,
                                  block_size=64)
        alt = first_passage_times(model, "hmm", cfg, basin, 10, 100.0,
                                  block_size=3)
        with ThreadPoolExecutor(max_workers=4) as pool:
            par = first_passage_times(model, "hmm", cfg, basin, 10, 100.0,
                                      block_size=3, executor=pool)
        for run in (alt, par):
            assert np.array_equal(ref[0], run[0])
            assert np.array_equal(ref[1], run[1])

    def test_direct_passage_distribution_is_seed_stable(self):
        # two independent 500-sample batches of a fast passage problem agree
        # in distribution (KS below the n=500 two-sample 1% quantile)
        model = fs.LinearOUModel(theta=1.0, mu=0.5, sigma_f=5.0).system()
        basin = BasinSpec(0.0, 0.3, "upcrossing")
        def batch(seed):
            cfg = SchemeConfig(eps=1e-2, lam=1, macro_dt=0.08, micro_dt=0.1,
                               root_seed=seed)
            elapsed, censored = first_passage_times(model, "direct", cfg,
                                                    basin, 500, 200.0)
            return elapsed[~censored]
        a, b = batch(101), batch(202)
        assert ks_distance(a, b) < 0.103  # 1.63 * sqrt(2/500)


class TestMfptSweep:
    def test_lambda_one_schemes_coincide(self, dw_mfpt_points):
        h1 = dw_mfpt_points["hmm"][0]
        p1 = dw_mfpt_points["phmm"][0]
        assert h1.lam == p1.lam == 1
        joint = math.hypot(h1.stderr, p1.stderr)
        assert abs(h1.mfpt - p1.mfpt) <= 2 * joint

    def test_hmm_median_much_faster_than_direct(self, dw_mfpt_points,
                                                dw_direct_fpt):
        # verified against the reduced-quasi-potential prediction: the
        # escape exponent drops by the factor lam, so at lam = 5 the
        # passage-time scale shrinks by exp((V/eps)(1 - 1/5)) ~ 6x
        hmm5 = [p for p in dw_mfpt_points["hmm"] if p.lam == 5][0]
        elapsed, censored = dw_direct_fpt
        med_h = float(np.median(hmm5.elapsed[~hmm5.censored]))
        med_d = float(np.median(elapsed[~censored]))
        assert med_d / med_h > 4.0

    def test_empty_lambda_list_rejected(self, double_well_model, dw_basin):
        cfg = SchemeConfig(eps=1e-3, lam=1, macro_dt=0.06, micro_dt=0.05,
                           root_seed=1)
        with pytest.raises(ValueError, match="nonempty"):
            fs.mean_first_passage_vs_lambda(double_well_model.system(),
                                            "hmm", cfg, dw_basin, [], 5, 10.0)


class TestEscapePrediction:
    @given(st.floats(0.01, 10.0), st.floats(1e-3, 0.1),
           st.integers(1, 16), st.floats(0.1, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_calibration_point_is_exact(self, v, eps, lam0, mfpt0):
        assert ldp_escape_prediction(v, eps, lam0, (lam0, mfpt0)) == \
            pytest.approx(mfpt0, rel=1e-12)

    @given(st.integers(1, 16), st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_zero_barrier_is_flat(self, lam0, lam):
        assert ldp_escape_prediction(0.0, 0.01, lam, (lam0, 3.0)) == 3.0

    def test_doubling_lambda_with_log100_barrier(self):
        # V/eps = ln(100): predicted MFPT at lam = 2 is MFPT0 / 10
        pred = ldp_escape_prediction(math.log(100.0) * 0.01, 0.01, 2, (1, 50.0))
        assert pred == pytest.approx(5.0, rel=1e-12)

    def test_fit_recovers_affine_law(self):
        pts = [fs.MfptPoint("hmm", lam, 0.06, math.exp(1.0 + 2.0 / lam),
                            0.0, 0, 10, np.empty(0), np.empty(0, dtype=bool))
               for lam in (1, 2, 4, 8)]
        a, b, r2 = fit_log_mfpt_inverse_lambda(pts)
        assert a == pytest.approx(1.0, abs=1e-9)
        assert b == pytest.approx(2.0, abs=1e-9)
        assert r2 == pytest.approx(1.0)


class TestHamiltonianAndQuasipotential:
    def setup_method(self):
        self.model = NonDiffusiveModel()

    def test_zero_momentum(self):
        for x in np.linspace(0.2, 3.5, 20):
            assert hamiltonian_nondiffusive(self.model, x, 0.0) == 0.0

    def test_momentum_slope_at_zero_is_averaged_drift(self):
        for x_star in fs.fixed_points(self.model):
            fd = (hamiltonian_nondiffusive(self.model, x_star, 1e-7)
                  - hamiltonian_nondiffusive(self.model, x_star, -1e-7)) / 2e-7
            assert abs(fd) < 1e-6

    def test_domain_error(self):
        g = float(self.model.gamma(1.0))
        theta_max = g * g / (2 * self.model.sigma_f ** 2)
        with pytest.raises(ValueError, match="domain"):
            hamiltonian_nondiffusive(self.model, 1.0, theta_max * 1.01)

    def test_convex_in_momentum(self):
        for x in (0.5, 1.0, 2.0):
            g = float(self.model.gamma(x))
            theta_max = g * g / (2 * self.model.sigma_f ** 2)
            grid = np.linspace(-2.0, theta_max * 0.98, 41)
            vals = [hamiltonian_nondiffusive(self.model, x, t) for t in grid]
            second = np.diff(vals, 2)
            assert np.all(second >= -1e-8)

    def test_hamilton_jacobi_identity_on_valid_branch(self):
        # the closed-form V' solves H(x, V') = 0 exactly where the nonzero
        # root exists, i.e. while nu x gamma(x) <= sigma^2 (x <~ 2.7291)
        for x in np.linspace(0.3, 2.72, 120):
            h = hamiltonian_nondiffusive(
                self.model, x, quasipotential_derivative(self.model, x))
            assert abs(h) < 1e-8

    def test_nonzero_root_vanishes_past_branch_point(self):
        # beyond nu x gamma = sigma^2 (x > 2.7291) the Hamiltonian stays
        # negative up to its domain edge, so theta = 0 is the only root and
        # no nonzero V' can satisfy H(x, V') = 0: V' is the domain edge
        # itself, where H < 0
        x = 2.9
        assert x * float(self.model.gamma(x)) > self.model.sigma_f ** 2
        g = float(self.model.gamma(x))
        theta_max = g * g / (2 * self.model.sigma_f ** 2)
        assert hamiltonian_nondiffusive(self.model, x, theta_max) < 0
        h = hamiltonian_nondiffusive(
            self.model, x, quasipotential_derivative(self.model, x))
        assert h < -1e-2

    def _rate_slope(self, x):
        # inf over v > 0 of L(x, v) / v, with the Legendre transform
        # L(x, v) = sup_theta (theta v - H(x, theta)) and the infimum both
        # found by bounded scalar search; past the branch point the
        # infimum is approached as v -> infinity, so v runs up to 1e8
        g = float(self.model.gamma(x))
        theta_max = g * g / (2 * self.model.sigma_f ** 2)

        def lagrangian(v):
            res = minimize_scalar(
                lambda t: hamiltonian_nondiffusive(self.model, x, t) - t * v,
                bounds=(-10.0, theta_max), method="bounded",
                options={"xatol": 1e-12})
            return -res.fun

        res = minimize_scalar(lambda u: lagrangian(math.exp(u)) / math.exp(u),
                              bounds=(math.log(1e-4), math.log(1e8)),
                              method="bounded", options={"xatol": 1e-10})
        return res.fun

    def test_derivative_matches_legendre_oracle(self):
        # x = 1.0 and 2.6 lie on the closed-form branch, 2.9 and 3.2 past
        # the branch point; the averaged drift pushes left at all four, so
        # V' is the slope of the uphill rate function there
        for x in (1.0, 2.6, 2.9, 3.2):
            assert quasipotential_derivative(self.model, x) == pytest.approx(
                self._rate_slope(x), rel=1e-5, abs=1e-7)

    def test_derivative_continuous_at_branch_point(self):
        s2 = self.model.sigma_f ** 2
        x_b = brentq(lambda x: self.model.nu * x * float(self.model.gamma(x))
                     - s2, 2.5, 3.0, xtol=1e-14)
        assert x_b == pytest.approx(2.7291, abs=1e-4)
        below = quasipotential_derivative(self.model, x_b - 1e-9)
        above = quasipotential_derivative(self.model, x_b + 1e-9)
        assert abs(above - below) < 1e-6

    def test_hamiltonian_accepts_domain_edge(self):
        # the edge is part of the domain; rounding in gamma^2/(2 sigma^2)
        # must not push it outside for any x. The discriminant there is 0
        # up to rounding, whose square root is O(1e-8)
        for x in np.linspace(2.73, 4.0, 2001):
            g = float(self.model.gamma(x))
            theta_max = g * g / (2 * self.model.sigma_f ** 2)
            h = hamiltonian_nondiffusive(self.model, x, theta_max)
            assert h == pytest.approx(-self.model.nu * x * theta_max + g / 2,
                                      abs=1e-7)

    def test_derivative_vanishes_at_fixed_points(self):
        for x_star in fs.fixed_points(self.model):
            assert abs(quasipotential_derivative(self.model, x_star)) < 1e-8

    def test_potential_is_zero_at_reference(self):
        left = fs.fixed_points(self.model)[0]
        assert quasipotential(self.model, left, left) == 0.0

    def test_barrier_asymmetry(self):
        left, mid, right = fs.fixed_points(self.model)
        uphill = quasipotential(self.model, mid, left)
        downhill_back = quasipotential(self.model, mid, right)
        assert uphill / downhill_back > 5.0

    def test_monotone_between_left_well_and_saddle(self):
        left, mid, _ = fs.fixed_points(self.model)
        xs = np.linspace(left, mid, 40)
        vs = [quasipotential(self.model, x, left) for x in xs]
        assert np.all(np.diff(vs) >= -1e-12)

    def test_quadrature_across_origin_rejected(self):
        with pytest.raises(ValueError, match="x > 0"):
            quasipotential(self.model, -1.0, 1.0)
        with pytest.raises(ValueError):
            quasipotential_derivative(self.model, 0.0)
