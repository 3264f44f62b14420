"""Boundary-condition indicator functions on the imaging grid.

Sound-soft: the modulus of the continued total field, summed over the
source circle with equal weights 2 pi r_src / n_src,

    I_s(x) = w * sum_j | u_N(x; z_j) + u_i(x; z_j) |.

Sound-hard: per grid point pick the reference source with the largest
continued total-field gradient, rotate that gradient a quarter turn to
get the unit vector nu (complex components, Euclidean norm), then

    I_h(x) = w * sum_j | grad(u_N + u_i)(x; z_j) . nu |

with the UNCONJUGATED bilinear dot product, so the reference source's own
term vanishes identically.  Both indicators dip to zero along the
scatterer boundary, where the boundary condition kills the total field
(or its rotated gradient).

Grid points where every gradient is numerically zero are flagged
degenerate and render as 0 rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .continuation import ModeCoefficients, eval_field, eval_gradient
from .forward import SourceSet, incident_field, incident_gradient
from .geometry import ImagingGrid

RECIPROCAL_FLOOR = 1e-12
DEGENERATE_GRADIENT = 1e-14
_MIN_SOURCE_DIST = 1e-9
_MIN_RADIUS = 1e-12

FLAG_OK = 0
FLAG_DEGENERATE = 1


@dataclass(frozen=True)
class IndicatorImage:
    """Indicator values on an imaging grid; masked points hold NaN."""

    grid: ImagingGrid
    values: np.ndarray           # (n_points,) float, NaN where masked
    kind: str                    # "soft" | "hard"
    wavenumbers: tuple[float, ...]
    state: str                   # "raw" | "normalized" | "reciprocal"
    flags: np.ndarray            # (n_points,) uint8

    @property
    def unmasked(self) -> np.ndarray:
        return ~self.grid.mask


def _polar(points: np.ndarray):
    r = np.hypot(points[:, 0], points[:, 1])
    theta = np.arctan2(points[:, 1], points[:, 0])
    return r, theta


def _check_sources(coeffs: ModeCoefficients, sources: SourceSet, points: np.ndarray):
    if coeffs.n_sources != sources.count:
        raise ValueError("coefficient rows do not match the source count")
    d = points[:, None, :] - sources.positions[None, :, :]
    if np.hypot(d[..., 0], d[..., 1]).min() < _MIN_SOURCE_DIST:
        raise ValueError("a grid point coincides with a source location")


def indicator_values(coeffs: ModeCoefficients, sources: SourceSet,
                     points, kind: str):
    """Raw indicator values and flags at arbitrary points; (P,), (P,) uint8."""
    if kind not in ("soft", "hard"):
        raise ValueError(f"unknown indicator kind {kind!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _check_sources(coeffs, sources, pts)
    weight = 2.0 * np.pi * sources.radius / sources.count
    r, theta = _polar(pts)
    ok = r >= _MIN_RADIUS
    values = np.zeros(pts.shape[0])
    flags = np.full(pts.shape[0], FLAG_DEGENERATE, dtype=np.uint8)
    if not np.any(ok):
        return values, flags
    rp, tp, sub = r[ok], theta[ok], pts[ok]

    if kind == "soft":
        total = eval_field(coeffs, rp, tp)                       # (n_src, P)
        for j, z in enumerate(sources.positions):
            total[j] += incident_field(sub, z, coeffs.k)
        values[ok] = weight * np.abs(total).sum(axis=0)
        flags[ok] = FLAG_OK
        return values, flags

    grad, norms, ref = _reference_gradients(coeffs, sources, sub)
    cols = np.arange(rp.size)
    xi = grad[ref, :, cols].T                                    # (2, P)
    xi_norm = norms[ref, cols]
    good = xi_norm > DEGENERATE_GRADIENT
    nu = np.zeros_like(xi)
    nu[0, good] = -xi[1, good] / xi_norm[good]
    nu[1, good] = xi[0, good] / xi_norm[good]
    dots = grad[:, 0, :] * nu[0][None, :] + grad[:, 1, :] * nu[1][None, :]
    vals = weight * np.abs(dots).sum(axis=0)
    vals[~good] = 0.0
    values[ok] = vals
    sub_flags = np.where(good, FLAG_OK, FLAG_DEGENERATE).astype(np.uint8)
    flags[ok] = sub_flags
    return values, flags


def _reference_gradients(coeffs: ModeCoefficients, sources: SourceSet,
                         points: np.ndarray):
    """Continued total-field gradients at (P, 2) points, their norms and the
    reference source per point (argmax norm, lowest index on ties);
    shapes (n_src, 2, P), (n_src, P), (P,)."""
    grad = eval_gradient(coeffs, *_polar(points))
    for j, z in enumerate(sources.positions):
        grad[j] += incident_gradient(points, z, coeffs.k).T
    norms = np.sqrt(np.abs(grad[:, 0, :]) ** 2 + np.abs(grad[:, 1, :]) ** 2)
    return grad, norms, np.argmax(norms, axis=0)


def _on_grid(coeffs: ModeCoefficients, sources: SourceSet, grid: ImagingGrid,
             kind: str) -> IndicatorImage:
    values = np.full(grid.n_points, np.nan)
    flags = np.zeros(grid.n_points, dtype=np.uint8)
    live = ~grid.mask
    vals, fl = indicator_values(coeffs, sources, grid.points[live], kind)
    values[live] = vals
    flags[live] = fl
    return IndicatorImage(grid=grid, values=values, kind=kind,
                          wavenumbers=(coeffs.k,), state="raw", flags=flags)


def indicator_soft(coeffs: ModeCoefficients, sources: SourceSet,
                   grid: ImagingGrid) -> IndicatorImage:
    """Raw sound-soft indicator image."""
    return _on_grid(coeffs, sources, grid, "soft")


def indicator_hard(coeffs: ModeCoefficients, sources: SourceSet,
                   grid: ImagingGrid) -> IndicatorImage:
    """Raw sound-hard indicator image."""
    return _on_grid(coeffs, sources, grid, "hard")


def normalize(image: IndicatorImage) -> IndicatorImage:
    """Scale so the maximum over unmasked points is 1; idempotent."""
    live = image.unmasked
    peak = np.nanmax(image.values[live]) if np.any(live) else 0.0
    if not peak > 0.0:
        raise ValueError("cannot normalize an all-zero indicator image")
    return replace(image, values=image.values / peak, state="normalized")


def reciprocal(image: IndicatorImage) -> IndicatorImage:
    """1 / max(value, 1e-12) of a normalized image (peaks mark the boundary)."""
    if image.state != "normalized":
        raise ValueError("reciprocal expects a normalized image")
    vals = 1.0 / np.maximum(image.values, RECIPROCAL_FLOOR)
    return replace(image, values=vals, state="reciprocal")


def superpose_multifrequency(images: list[IndicatorImage]) -> IndicatorImage:
    """Pointwise sum of normalized single-frequency images, renormalized."""
    if not images:
        raise ValueError("nothing to superpose")
    first = images[0]
    total = np.zeros_like(first.values)
    flags = np.zeros_like(first.flags)
    ks: list[float] = []
    for img in images:
        if img.state != "normalized":
            raise ValueError("superposition expects normalized images")
        if img.kind != first.kind:
            raise ValueError("mixed indicator kinds")
        g = img.grid
        if (g.nx, g.ny, g.xmin, g.xmax, g.ymin, g.ymax) != (
                first.grid.nx, first.grid.ny, first.grid.xmin, first.grid.xmax,
                first.grid.ymin, first.grid.ymax) or not np.array_equal(g.mask, first.grid.mask):
            raise ValueError("superposition expects identical grids")
        total = total + img.values
        flags = np.maximum(flags, img.flags)
        ks.extend(img.wavenumbers)
    out = IndicatorImage(grid=first.grid, values=total, kind=first.kind,
                         wavenumbers=tuple(ks), state="raw", flags=flags)
    return normalize(out)
