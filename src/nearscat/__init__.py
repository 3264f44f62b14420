"""nearscat: near-field acoustic imaging of 2D impenetrable scatterers.

Reconstructs sound-soft/sound-hard obstacle or cavity boundaries from
point-source near-field data on a measurement circle: the scattered field
is continued toward the unknown boundary by truncated Fourier-Hankel /
Fourier-Bessel expansions, and the boundary shows up as the zero set of a
boundary-condition indicator evaluated on an imaging grid.  Ships its own
boundary-integral forward solver and an analytic circle oracle for data
synthesis and verification.
"""

from .continuation import (ModeCoefficients, compute_coefficients, eval_field, radial_tables,
                           truncation_order)
from .forward import RingMeasurement, SourceSet, analytic_circle, simulate_ring
from .geometry import BoundaryCurve, ImagingGrid, ShapeSpec, imaging_grid, make_curve
from .indicator import (IndicatorImage, indicator_hard, indicator_soft, normalize,
                        reciprocal, superpose_multifrequency)
from .noise import NoiseSpec, add_noise
from .pipeline import (RateReport, RayReport, ScenarioConfig, convergence_study,
                       radial_boundary_error, reconstruct, render_pgm, run_scenario)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCurve", "ImagingGrid", "IndicatorImage", "ModeCoefficients", "NoiseSpec",
    "RateReport", "RayReport", "RingMeasurement", "ScenarioConfig", "ShapeSpec",
    "SourceSet", "add_noise", "analytic_circle", "compute_coefficients",
    "convergence_study", "eval_field", "imaging_grid", "indicator_hard",
    "indicator_soft", "make_curve", "normalize", "radial_boundary_error",
    "radial_tables", "reciprocal", "reconstruct", "render_pgm", "run_scenario",
    "simulate_ring", "superpose_multifrequency", "truncation_order",
]
