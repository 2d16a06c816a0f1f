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
    property_case_rate,
    first_emission_amplitude,
    first_emission_rate_ratio,
    receding_pair,
    second_emission_amplitude,
    second_emission_rate_ratio,
)
from .eventsim import (
    SimConfig,
    assign_detections,
    build_histogram,
    coincidence_differences,
    detector_streams,
    simulate_ensemble,
)
from .grids import SpatialGrid
from .inference import (
    FitResult,
    Histogram,
    KsTwoSampleResult,
    fit_cumulative_curve,
    fit_exponential_histogram,
    fit_exponential_mle,
    ks_two_sample,
)
from .kinetics import (
    CountSnapshot,
    RateTriple,
    coincidence_density,
    cumulative_counts,
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
    TwoAtomState,
    make_two_atom_gaussian,
    schmidt_spectrum,
    symmetrized_norm,
    symmetrized_pair_state,
)
from .pipeline import (
    AmplitudeParams,
    ExperimentConfig,
    ReportBundle,
    reproduce_figure1,
    run_experiment,
    run_full,
    run_rate_derivation,
)

__all__ = [
    "AmplitudeParams",
    "CountSnapshot",
    "ExperimentConfig",
    "FitResult",
    "GaussianPacket",
    "Histogram",
    "KsTwoSampleResult",
    "PropertyRateResult",
    "RateRatioReport",
    "RateTriple",
    "ReportBundle",
    "SimConfig",
    "SpatialGrid",
    "TwoAtomState",
    "property_case_rate",
    "apply_recoil",
    "assign_detections",
    "build_histogram",
    "coincidence_density",
    "coincidence_differences",
    "cumulative_counts",
    "detection_densities",
    "detector_streams",
    "evolve_free",
    "first_emission_amplitude",
    "first_emission_rate_ratio",
    "fit_cumulative_curve",
    "fit_exponential_histogram",
    "fit_exponential_mle",
    "ks_two_sample",
    "make_packet",
    "make_two_atom_gaussian",
    "overlap",
    "receding_pair",
    "reproduce_figure1",
    "run_experiment",
    "run_full",
    "run_rate_derivation",
    "sample_packet",
    "schmidt_spectrum",
    "second_emission_amplitude",
    "second_emission_rate_ratio",
    "simulate_ensemble",
    "symmetrized_norm",
    "symmetrized_pair_state",
]
