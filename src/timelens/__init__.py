"""Upconversion time-lens simulator for two-photon joint spectra.

Models a time lens built from dispersion and sum-frequency generation
with a chirped escort pulse, applied to one photon of an energy-time
entangled pair.  Two mutually cross-validating engines are provided: a
closed-form Gaussian model (:mod:`timelens.lens`) and a brute-force
numeric grid (:mod:`timelens.grid`), next to a measurement-side fitting
pipeline (:mod:`timelens.analysis`) and a command-line front end
(:mod:`timelens.cli`).
"""

from .analysis import (
    CalibrationError,
    CalibrationResult,
    CountRates,
    FitReport,
    GaussianFitParams,
    MonteCarloResult,
    ResolutionModel,
    Spectrum2D,
    calibrate_phasematching,
    deconvolve_resolution,
    fit_gaussian_2d,
    g2_cross_correlation,
    montecarlo_errorbars,
)
from .grid import (
    CoverageError,
    Grid1D,
    GridField2D,
    IntensityMoments,
    StatsReport,
    SweepResult,
    compute_stats,
    delay_sweep,
    grids_for_state,
    intensity_moments,
    sample_jsa,
    sfg_convolve,
    to_time_domain,
)
from .lens import (
    LensConfig,
    OutputStatePrediction,
    SingularConfigurationError,
    TimeToFrequencyError,
    limit_infinite_escort,
    limit_m_minus1,
    magnification,
    output_correlation,
    output_sigma3,
    predict_output,
    solve_imaging,
    tunability,
)
from .states import (
    EscortPulse,
    GaussianJSA,
    PhasematchingModel,
    chirped_temporal_width,
    jsa_amplitude,
    joint_energy_uncertainty,
    schmidt_number,
    statistical_correlation,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "CalibrationResult",
    "CountRates",
    "CoverageError",
    "EscortPulse",
    "FitReport",
    "GaussianFitParams",
    "GaussianJSA",
    "Grid1D",
    "GridField2D",
    "IntensityMoments",
    "LensConfig",
    "MonteCarloResult",
    "OutputStatePrediction",
    "PhasematchingModel",
    "ResolutionModel",
    "SingularConfigurationError",
    "Spectrum2D",
    "StatsReport",
    "SweepResult",
    "TimeToFrequencyError",
    "calibrate_phasematching",
    "chirped_temporal_width",
    "compute_stats",
    "deconvolve_resolution",
    "delay_sweep",
    "fit_gaussian_2d",
    "g2_cross_correlation",
    "grids_for_state",
    "intensity_moments",
    "jsa_amplitude",
    "joint_energy_uncertainty",
    "limit_infinite_escort",
    "limit_m_minus1",
    "magnification",
    "montecarlo_errorbars",
    "output_correlation",
    "output_sigma3",
    "predict_output",
    "sample_jsa",
    "schmidt_number",
    "sfg_convolve",
    "solve_imaging",
    "statistical_correlation",
    "to_time_domain",
    "tunability",
]
