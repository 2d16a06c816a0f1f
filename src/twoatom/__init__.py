"""Two-atom spontaneous-emission simulator and rate toolkit.

Stochastic simulation of the photon pair emitted by dissociated atom
pairs, statistical inference of the first/second/single-atom emission
rates, and an amplitude engine that derives the same rate relations from
discretized matrix elements over symmetrized two-particle states.
"""

__version__ = "0.1.0"

from .amplitudes import (
    PropertyRateResult,
    RateRatioReport,
    first_emission_amplitude,
    first_emission_rate_ratio,
    property_case_rate,
    receding_pair,
    second_emission_amplitude,
    second_emission_rate_ratio,
)
from .config import AmplitudeParams, ExperimentConfig
from .eventsim import simulate_ensemble
from .grids import SpatialGrid
from .inference import (
    FitResult,
    Histogram,
    fit_cumulative_curve,
    fit_exponential_mle,
)
from .kinetics import (
    RateTriple,
    detection_densities,
)
from .packets import (
    GaussianPacket,
    apply_recoil,
    evolve_free,
    make_packet,
    overlap,
    sample_packet,
)
from .pairstate import (
    ProductPair,
    TwoAtomState,
    make_two_atom_gaussian,
)
from .pipeline import (
    ReportBundle,
    reproduce_figure1,
    run_experiment,
    run_full,
    run_rate_derivation,
)

__all__ = [
    "AmplitudeParams",
    "ExperimentConfig",
    "FitResult",
    "GaussianPacket",
    "Histogram",
    "ProductPair",
    "PropertyRateResult",
    "RateRatioReport",
    "RateTriple",
    "ReportBundle",
    "SpatialGrid",
    "TwoAtomState",
    "apply_recoil",
    "detection_densities",
    "evolve_free",
    "first_emission_amplitude",
    "first_emission_rate_ratio",
    "fit_cumulative_curve",
    "fit_exponential_mle",
    "make_packet",
    "make_two_atom_gaussian",
    "overlap",
    "property_case_rate",
    "receding_pair",
    "reproduce_figure1",
    "run_experiment",
    "run_full",
    "run_rate_derivation",
    "sample_packet",
    "second_emission_amplitude",
    "second_emission_rate_ratio",
    "simulate_ensemble",
]
