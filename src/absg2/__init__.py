"""Second-order temporal interference of two independent light beams at a
lossless asymmetrical beam splitter.

Closed-form coherence curves and visibilities for laser, thermal and
single-photon sources in all six pairings, a random-phase Monte Carlo
oracle, visibility maximization over intensity ratio and reflectivity, and
the thresholds beyond which nonclassical pairings beat the classical 0.5
contrast bound.
"""

from .core import (
    ALGEBRA_TOL,
    Alternative,
    BeamSplitter,
    DomainError,
    ExperimentConfig,
    G2Curve,
    PairKind,
    PathProbabilities,
    SourceKind,
    VisibilityResult,
)
from .probability import path_probabilities, way_probabilities
from .alternatives import (
    PhaseModel,
    enumerate_alternatives,
    independent_phase_slots,
    phase_model,
)
from .analytic import (
    ClosedFormG2,
    g2_analytic,
    g2_closed_form,
    g2_curve_analytic,
    visibility_analytic,
    visibility_expression,
    visibility_from_extrema,
)
from .montecarlo import (
    McSettings,
    fit_cosine,
    g2_monte_carlo,
    visibility_from_curve,
)
from .optimize import (
    VisibilityMaximum,
    feasible_reflectivity_interval,
    maximize_visibility,
    threshold_min_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "ALGEBRA_TOL",
    "Alternative",
    "BeamSplitter",
    "ClosedFormG2",
    "DomainError",
    "ExperimentConfig",
    "G2Curve",
    "McSettings",
    "PairKind",
    "PathProbabilities",
    "PhaseModel",
    "SourceKind",
    "VisibilityMaximum",
    "VisibilityResult",
    "enumerate_alternatives",
    "feasible_reflectivity_interval",
    "fit_cosine",
    "g2_analytic",
    "g2_closed_form",
    "g2_curve_analytic",
    "g2_monte_carlo",
    "independent_phase_slots",
    "maximize_visibility",
    "path_probabilities",
    "phase_model",
    "threshold_min_ratio",
    "visibility_analytic",
    "visibility_expression",
    "visibility_from_curve",
    "visibility_from_extrema",
    "way_probabilities",
]
