"""Multiscale integrators and fluctuation statistics for stiff fast-slow
stochastic systems.

The package integrates systems with an O(eps) time-scale separation three
ways: direct Euler-Maruyama at the fast scale, a heterogeneous-multiscale
macro-stepper (HMM) that estimates the averaged drift from one short fast
burst, and its parallel-ensemble variant (PHMM) that averages independent
bursts. The statistics toolkit quantifies how each scheme reproduces or
distorts small (Gaussian) and large (rare-event) fluctuations, and an
SSA/tau-leaping module does the analogous comparison for Markov jump
processes.
"""

__version__ = "0.1.0"

from .rng import RngStream
from .sde import FastSlowModel, IntegrationFailure, ScalarOU, Trajectory
from .schemes import SchemeConfig, config_for_lambda, run_scheme
from .models import (BUILTIN_MODELS, DoubleWellModel, LinearOUModel,
                     NonDiffusiveModel, clt_stationary_variance_linear,
                     fixed_points, make_model)
from .fluctuations import (BasinSpec, FptSummary, HistogramResult,
                           first_passage_times, fit_log_mfpt_inverse_lambda,
                           hamiltonian_nondiffusive, histogram_of_samples,
                           ks_distance, occupancy_fraction, quasipotential,
                           quasipotential_derivative, stationary_variance,
                           summarize_fpt)
from .jump import (JumpModel, Reaction, birth_death, ssa_final_states,
                   ssa_run, tau_leap_final_states, tau_leap_run)

__all__ = [
    "__version__",
    "RngStream",
    "FastSlowModel", "IntegrationFailure", "ScalarOU", "Trajectory",
    "SchemeConfig", "config_for_lambda", "run_scheme",
    "BUILTIN_MODELS", "DoubleWellModel", "LinearOUModel", "NonDiffusiveModel",
    "clt_stationary_variance_linear", "fixed_points", "make_model",
    "BasinSpec", "FptSummary", "HistogramResult", "first_passage_times",
    "fit_log_mfpt_inverse_lambda", "hamiltonian_nondiffusive",
    "histogram_of_samples", "ks_distance", "occupancy_fraction",
    "quasipotential", "quasipotential_derivative", "stationary_variance",
    "summarize_fpt",
    "JumpModel", "Reaction", "birth_death", "ssa_final_states", "ssa_run",
    "tau_leap_final_states", "tau_leap_run",
]
