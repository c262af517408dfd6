"""Bayesian multivariate Hawkes processes with blended Beta-mixture kernels.

Core pieces: event containers and windowed pair structures, intensity and
likelihood evaluation, a cluster simulator with ground-truth branching, a
Metropolis-within-Gibbs sampler, a stochastic variational engine, curve
metrics, and LOBSTER order-flow ingestion. The ``hawkesmix`` CLI drives
config-based experiments over all of it.
"""

import os

# One BLAS thread per process unless the environment already sets one: the
# CLI runs its tasks in parallel worker processes, and OpenBLAS's default of
# a thread per core oversubscribes the cores. Set before NumPy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .events import EventSequence, load_events, save_events
from .kernels import BetaMixture, ExcitationModel, beta_cdf, beta_pdf, beta_log_pdf
from .params import HawkesParams, Hyperparams, load_params, save_params
from .pairs import PairData, build_pairs, candidate_parents
from .likelihood import (
    LatentState,
    augmented_log_likelihood,
    intensity,
    log_likelihood,
    spectral_radius,
)
from .simulate import (
    SimScenario,
    benchmark_beta_params,
    benchmark_exponential_params,
    expected_rates,
    simulate_branching,
    simulate_thinning,
)
from .mcmc import McmcConfig, McmcSampler, PosteriorSamples, run_chain, select_best_restart
from .svi import (
    SviConfig,
    VariationalState,
    elbo,
    learning_rate,
    q_expected_log_beta,
    run_svi,
    sample_from_variational,
    select_window,
    taylor_elbo_bound,
)
from .metrics import (
    CurveSamples,
    GridSpec,
    coverage_acr,
    curve_samples_from_draws,
    excitation_bands,
    interval_score,
    rmise,
    spectral_histogram,
)
from .lobster import IngestConfig, LobsterMessage, build_event_sequence, parse_messages

__version__ = "0.1.0"

__all__ = [
    "EventSequence", "load_events", "save_events",
    "BetaMixture", "ExcitationModel", "beta_cdf", "beta_pdf", "beta_log_pdf",
    "HawkesParams", "Hyperparams", "load_params", "save_params",
    "PairData", "build_pairs", "candidate_parents",
    "LatentState", "augmented_log_likelihood", "intensity", "log_likelihood", "spectral_radius",
    "SimScenario", "benchmark_beta_params", "benchmark_exponential_params",
    "expected_rates", "simulate_branching", "simulate_thinning",
    "McmcConfig", "McmcSampler", "PosteriorSamples", "run_chain", "select_best_restart",
    "SviConfig", "VariationalState", "elbo", "learning_rate", "q_expected_log_beta",
    "run_svi", "sample_from_variational", "select_window", "taylor_elbo_bound",
    "CurveSamples", "GridSpec", "coverage_acr", "curve_samples_from_draws",
    "excitation_bands", "interval_score", "rmise", "spectral_histogram",
    "IngestConfig", "LobsterMessage", "build_event_sequence", "parse_messages",
    "__version__",
]
