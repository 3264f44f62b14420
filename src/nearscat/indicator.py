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

Each point's value needs only its own continued field or gradient and its
own incident terms, so the points are evaluated in blocks of
BLOCK_POINTS: only one block's fields, gradients, incident terms and
reductions exist at a time, and the values go straight into the output.
The cylinder-function table (``radial_tables``), which serves the field
and its gradient alike, and the polar angles are formed once, at one
point per orbit (see ``indicator_values``), and gathered per block.

When a quarter turn R(x, y) = (-y, x) maps the layout onto itself (4 | S
sources centred at the origin, points in ``ImagingGrid.quarter_orbits``),
each point R^-q x is evaluated in the frame turned by R^q, which moves
neither indicator, and no gradient is turned.  In that frame the point is
its orbit's representative x and source j sits at R^q z_j = z_{j+qS/4}:
every source's incident terms at x serve the four turns, relabelled, and
``eval_field`` and ``eval_gradient`` give the turns from the modes at x by
exact phases.  A block is BLOCK_POINTS / 4 whole orbits, turn-major (x_1..x_Q,
then R^-1 x_1..R^-1 x_Q, ...); otherwise each point is its own orbit and a
block holds BLOCK_POINTS points.  The grid and sources turn onto themselves
to rounding only, so turned values differ from direct ones by about 1e-14
relative.  Each turn's columns start at multiples of 64 and the order does
not depend on the block size, so with one BLAS thread the values equal
those of one evaluation over every point bit for bit.  With several,
OpenBLAS's threaded ``zgemm`` rounds the columns at its thread split,
which moves with the product's shape, so each turn has its own n_src-row
product: one product stacking the four turns' rows was threaded on a 41^2
image, where the per-turn ones are not, and 5-11 values then differed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .continuation import (MIN_RADIUS, ModeCoefficients, RadialTables, eval_field,
                           eval_gradient, radial_tables)
from .forward import _diff_to_source, incident_field, incident_gradient
from .geometry import ImagingGrid, IndicatorImage, SourceSet

RECIPROCAL_FLOOR = 1e-12
DEGENERATE_GRADIENT = 1e-14
# Points per evaluation block.  A multiple of 4 * 64: a block holds whole
# quarter-turn orbits, and each turn's matrix products round like the same
# columns of one product over every point (a 97-point block changed the
# last bit of some values).
BLOCK_POINTS = 8192

FLAG_OK = 0
FLAG_DEGENERATE = 1


def indicator_values(coeffs: ModeCoefficients, sources: SourceSet,
                     points: np.ndarray, kind: str, orbits: np.ndarray | None = None):
    """Raw indicator values and flags at (P, 2) points; (P,), (P,) uint8.

    Evaluated in blocks of BLOCK_POINTS points.  ``orbits``, a (4, Q)
    ``ImagingGrid.quarter_orbits`` table indexing ``points``, is used only
    when the quarter turn maps the S sources onto themselves (4 | S,
    centred at the origin): blocks are then whole orbits, turn-major, the
    radial table, polar angles, modes and incident terms are formed at row
    0 only, and a point in no orbit stays 0 and degenerate.  Otherwise each
    point with r >= MIN_RADIUS is its own orbit.
    """
    if kind not in ("soft", "hard"):
        raise ValueError(f"unknown indicator kind {kind!r}")
    if coeffs.n_sources != sources.count:
        raise ValueError("coefficient rows do not match the source count")
    r = np.hypot(points[:, 0], points[:, 1])
    ok = r >= MIN_RADIUS
    for p in points[~ok]:      # the origin is in no block and gets no incident term
        _diff_to_source(sources.positions, p)
    values = np.zeros(points.shape[0])
    flags = np.full(points.shape[0], FLAG_DEGENERATE, dtype=np.uint8)
    if orbits is None or orbits.shape[0] != 4 or sources.count % 4 or any(sources.center):
        orbits = np.flatnonzero(ok)[None, :]                    # every point its own orbit
    if not orbits.size:
        return values, flags
    turns, n_orbits = orbits.shape
    theta = np.arctan2(points[orbits[0], 1], points[orbits[0], 0])
    tables = radial_tables(coeffs, r[orbits[0]])
    step = BLOCK_POINTS // turns
    for start in range(0, n_orbits, step):
        reps = slice(start, start + step)
        idx = orbits[:, reps].ravel()                  # turn-major: every x_p, every R^-1 x_p, ...
        values[idx], flags[idx] = _block_values(
            coeffs, sources, points[orbits[0, reps]], theta[reps],
            tables._replace(inverse=tables.inverse[reps]), kind, turns)
    return values, flags


def _block_values(coeffs: ModeCoefficients, sources: SourceSet, points: np.ndarray,
                  theta: np.ndarray, tables: RadialTables, kind: str, turns: int):
    """Indicator values and flags (T Q,) at the (Q, 2) points x_p, r > 0,
    with polar angles ``theta`` and radii ``tables`` (as in ``eval_field``),
    and turn-major at their turns: run q at R^-q x_p, in the frame turned by
    R^q.  Everything formed here is freed before the next block."""
    weight = 2.0 * np.pi * sources.radius / sources.count
    if kind == "soft":
        total = eval_field(coeffs, theta, tables, turns)        # (n_src, T Q)
        _add_incident(total, sources, points, coeffs.k, turns)
        return weight * np.abs(total).sum(axis=0), FLAG_OK

    grad, norms, ref = _reference_gradients(coeffs, sources, points, theta, tables, turns)
    cols = np.arange(ref.size)
    xi = grad[ref, :, cols].T                                    # (2, T Q)
    xi_norm = norms[ref, cols]
    good = xi_norm > DEGENERATE_GRADIENT
    nu = np.zeros_like(xi)
    nu[0, good] = -xi[1, good] / xi_norm[good]
    nu[1, good] = xi[0, good] / xi_norm[good]
    # grad . nu in place: three fresh (n_src, B) temporaries per block took
    # 14 ms per 300^2 cavity image, against 3 ms in place
    grad *= nu
    dots = grad[:, 0, :]
    dots += grad[:, 1, :]
    vals = weight * np.abs(dots).sum(axis=0)
    vals[~good] = 0.0
    return vals, np.where(good, FLAG_OK, FLAG_DEGENERATE)


def _reference_gradients(coeffs: ModeCoefficients, sources: SourceSet,
                         points: np.ndarray, theta: np.ndarray, tables: RadialTables,
                         turns: int = 1):
    """Continued total-field gradients at the (Q, 2) points and their
    turns, laid out as in ``_block_values``, their norms and the reference
    source per point (argmax norm, lowest index on ties); shapes
    (n_src, 2, T Q), (n_src, T Q), (T Q,)."""
    grad = eval_gradient(coeffs, theta, tables, turns)
    _add_incident(grad, sources, points, coeffs.k, turns)
    norms = np.sqrt(np.abs(grad[:, 0, :]) ** 2 + np.abs(grad[:, 1, :]) ** 2)
    return grad, norms, np.argmax(norms, axis=0)


def _add_incident(out: np.ndarray, sources: SourceSet, points: np.ndarray, k: float,
                  turns: int) -> None:
    """Add the incident fields (``out`` (n_src, T Q)) or gradients (``out``
    (n_src, 2, T Q)) laid out as in ``_block_values``, from each source's
    terms at the (Q, 2) points x_p: run q's row j takes the terms of source
    j + q S/T, which sits at R^q z_j."""
    runs = np.split(out, turns, axis=-1)
    for j, z in enumerate(sources.positions):
        term = incident_gradient(points, z, k).T if out.ndim == 3 else incident_field(points, z, k)
        for q, run in enumerate(runs):
            run[(j - q * sources.count // turns) % sources.count] += term


def _on_grid(coeffs: ModeCoefficients, sources: SourceSet, grid: ImagingGrid,
             kind: str) -> IndicatorImage:
    values = np.full(grid.n_points, np.nan)
    flags = np.zeros(grid.n_points, dtype=np.uint8)
    live = ~grid.mask
    orbits = grid.quarter_orbits()
    if orbits is not None:                      # grid indices -> indices of the live points
        orbits = (np.cumsum(live) - 1)[orbits]
    vals, fl = indicator_values(coeffs, sources, grid.points[live], kind, orbits)
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
    live = ~image.grid.mask
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
