"""Coverage and capacity analysis for RIS-assisted LEO satellite
downlinks, with an independent Monte Carlo link simulator for
cross-validation."""

from .channel import (
    DirectPath,
    GammaApprox,
    LinkConfig,
    RisLink,
    abs_A_pdf,
    gamma_approx,
    gamma_fits,
    mean_abs_A,
    snr_pdf,
    var_abs_A,
)
from .errors import (
    ComputationError,
    ConfigError,
    ConvergenceError,
    DivergentMomentError,
    DomainError,
    LeorisError,
)
from .fading import KappaMuParams, envelope_cdf, envelope_moment, envelope_pdf, sample_envelope
from .geometry import (
    Constellation,
    CylinderGeometry,
    ris_distance_cdf,
    ris_distance_moment,
    ris_distance_pdf,
    sample_nearest_sat_distance,
    sat_distance_cdf,
    sat_distance_moment,
    sat_distance_pdf,
)
from .metrics import (
    CapacityResult,
    CoverageQuery,
    capacity_quadrature,
    coverage_probabilities,
    coverage_probability,
    ergodic_capacities,
    ergodic_capacity,
)
from .montecarlo import Estimate, SimOptions, SimResult, simulate_snr
from .runner import RunSummary, SweepTable, run_scenario, sweep
from .scenario import ScenarioConfig, SweepSpec, load_scenario, parse_scenario

__version__ = "0.1.0"
