"""nearscat: near-field acoustic imaging of 2D impenetrable scatterers.

Reconstructs sound-soft/sound-hard obstacle or cavity boundaries from
point-source near-field data on a measurement circle: the scattered field
is continued toward the unknown boundary by truncated Fourier-Hankel /
Fourier-Bessel expansions, and the boundary shows up as the zero set of a
boundary-condition indicator evaluated on an imaging grid.  Ships its own
boundary-integral forward solver and an analytic circle oracle for data
synthesis and verification.

Each export loads its module on first access (PEP 562): ``import nearscat``
loads no scipy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the names it exports
    "continuation": "ModeCoefficients compute_coefficients eval_field radial_tables "
                    "truncation_order",
    "formats": "render_pgm",
    "forward": "analytic_circle simulate_ring",
    "geometry": "BoundaryCurve ImagingGrid IndicatorImage RingMeasurement ShapeSpec SourceSet "
                "imaging_grid make_curve",
    "indicator": "indicator_hard indicator_soft normalize reciprocal superpose_multifrequency",
    "noise": "NoiseSpec add_noise",
    "pipeline": "RateReport RayReport ScenarioConfig convergence_study radial_boundary_error "
                "reconstruct run_scenario",
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE)


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
