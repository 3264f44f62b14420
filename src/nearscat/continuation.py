"""Fourier coefficients on the measurement ring and truncated mode expansions.

From scattered-field samples u(theta_m) on an equispaced ring the discrete
coefficients

    c_n = (1/M) sum_m u(theta_m) exp(-i n theta_m),   n = -N..N

feed the truncated expansion continued off the ring,

    u_N(r, theta) = sum_n c_n  C_n(k r) / C_n(k r_anchor)  exp(i n theta),

with C = H^(1) on the radiating (exterior) side and C = J on the regular
(interior) side.  The expansion and its gradient run entirely on the
in-house cylinder-function module; negative orders reduce by symmetry so
the C_{-n}/C_{-n} ratios never see the (-1)^n factors.  The radial factor
depends on |x| alone, so the cylinder functions are evaluated once per
distinct radius (a fraction of the points on a Cartesian grid) and
gathered to the points; the values are those of a per-point evaluation,
bit for bit.  ``radial_tables`` builds them once for a whole evaluation
and is the one check of the radius floor; ``eval_field`` and
``eval_gradient`` require them and serve one block of their points at a
time, given as a (P,) array of theta (and of r for the gradient), and
return (n_src, P) values or (n_src, 2, P) gradients.

The interior ratio J_n(k r)/J_n(k R) blows up whenever k R sits near a
zero of J_n; ``compute_coefficients`` zeroes and flags such modes.

The DFT and the mode sums run on scipy's BLAS through ``forward._gemm``:
a ``@`` would wake numpy's own OpenBLAS pool beside scipy's, and its idle
workers would spin on the cores the rest of the pipeline needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import cylfun
from .forward import RingMeasurement, _gemm

DEFAULT_MODE_GUARD = 1e-8
MIN_RADIUS = 1e-12


@dataclass(frozen=True)
class ModeCoefficients:
    """Truncated ring Fourier coefficients, one row per source.

    ``values[s, N + n]`` is the coefficient of exp(i n theta) for source s,
    n = -N..N.  ``excluded`` marks interior modes zeroed by the guard.
    """

    values: np.ndarray           # (n_src, 2N+1) complex
    anchor_radius: float
    k: float
    side: str                    # "exterior" | "interior"
    excluded: np.ndarray         # (2N+1,) bool

    @property
    def truncation(self) -> int:
        return self.values.shape[1] // 2

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.truncation, self.truncation + 1)

    @property
    def n_sources(self) -> int:
        return self.values.shape[0]

    @property
    def excluded_orders(self) -> list[int]:
        return [int(n) for n in self.orders[self.excluded]]


def truncation_order(delta: float, side: str) -> int:
    """Noise-coupled truncation: floor(|ln delta|) + 1 (exterior) or
    floor(1.5 |ln delta|) + 1 (interior)."""
    if not 0.0 < delta < 1.0:
        if delta == 0.0:
            raise ValueError("clean data (delta = 0): supply an explicit truncation")
        raise ValueError(f"noise level {delta} outside (0, 1)")
    scale = 1.0 if side == "exterior" else 1.5
    if side not in ("exterior", "interior"):
        raise ValueError(f"unknown side {side!r}")
    return int(math.floor(scale * abs(math.log(delta)))) + 1


def compute_coefficients(ring: RingMeasurement, truncation: int,
                         mode_guard: float = DEFAULT_MODE_GUARD) -> ModeCoefficients:
    """Discrete Fourier coefficients of the ring samples for n = -N..N.

    Plain DFT sums (trapezoid rule on the equispaced receivers); requires
    2N+1 <= number of receivers.  On the interior side, modes whose anchor
    denominator |J_n(kR)| < mode_guard are zeroed and flagged; the exterior
    side excludes none.
    """
    m_rec = ring.n_receivers
    if 2 * truncation + 1 > m_rec:
        raise ValueError(
            f"truncation {truncation} violates Nyquist (needs >= {2 * truncation + 1} "
            f"receivers, have {m_rec})")
    orders = np.arange(-truncation, truncation + 1)
    basis = np.exp(-1j * np.outer(orders, ring.angles))      # (2N+1, M)
    values = _gemm(ring.samples, basis.T) / m_rec
    excluded = np.zeros(2 * truncation + 1, dtype=bool)
    if ring.side == "interior":
        denom = cylfun.bessel_j_all(truncation, ring.k * ring.radius)
        excluded = np.abs(denom[np.abs(orders)]) < mode_guard
        values = np.where(excluded[None, :], 0.0, values)
    return ModeCoefficients(values=values, anchor_radius=ring.radius, k=ring.k,
                            side=ring.side, excluded=excluded)


class RadialTables(NamedTuple):
    """Radial factors per signed order n on the distinct radii, and the index
    of each point's radius among them.

    ``ratio`` is C_n(kr)/C_n(k r_anchor) and ``deriv`` its r-derivative
    (None when not asked for), both (2N+1, U) with excluded modes zeroed;
    ``inverse`` is (P,).  ``tables._replace(inverse=tables.inverse[block])``
    serves a block of the points.
    """

    ratio: np.ndarray
    deriv: np.ndarray | None
    inverse: np.ndarray


def radial_tables(coeffs: ModeCoefficients, r, with_deriv: bool) -> RadialTables:
    """The cylinder-function tables of ``coeffs`` at the radii ``r``.

    Evaluated once per distinct radius.  Build them once for all points of
    an evaluation and serve blocks from them: the Miller recurrence picks
    its start order from the largest argument of the call, so tables built
    per block could differ in the last bits.  Excluded modes are zeroed here
    so every evaluation path honors the guard.  ValueError for a radius
    below MIN_RADIUS.
    """
    n_top = coeffs.truncation
    k = coeffs.k
    radii, inverse = np.unique(r, return_inverse=True)
    if np.any(radii < MIN_RADIUS):
        raise ValueError("radius below 1e-12")
    kr = k * radii
    ka = k * coeffs.anchor_radius
    if coeffs.side == "exterior":
        vals = cylfun.hankel1_all(n_top + 1, kr)
        anchor = cylfun.hankel1_all(n_top, float(ka))
    else:
        vals = cylfun.bessel_j_all(n_top + 1, kr).astype(complex)
        anchor = cylfun.bessel_j_all(n_top, float(ka)).astype(complex)
    tiny = np.abs(anchor) < 1e-300
    anchor = np.where(tiny, 1.0, anchor)

    n_abs = np.abs(coeffs.orders)
    keep = ~coeffs.excluded[:, None]
    # per signed order n: ratio_n = ratio_{|n|} (symmetric), masked by the guard
    ratio = (vals[:-1] / anchor[:, None])[n_abs] * keep
    deriv = None
    if with_deriv:
        deriv = k * cylfun.derivative_all(vals, kr) / anchor[:, None]
        deriv = deriv[n_abs] * keep
    return RadialTables(ratio, deriv, inverse)


def eval_field(coeffs: ModeCoefficients, theta: np.ndarray,
               tables: RadialTables) -> np.ndarray:
    """Continued field u_N at the (P,) polar angles ``theta`` of the points
    whose radii ``tables`` (from ``radial_tables``, ``inverse`` covering
    these points) were built on; (n_src, P).

    At r = anchor this is exactly the order-N Fourier partial sum of the
    ring data.
    """
    ratio, _, inverse = tables
    modes = ratio[:, inverse]
    modes *= np.exp(1j * np.outer(coeffs.orders, theta))     # (2N+1, P)
    return _gemm(coeffs.values, modes)


def eval_gradient(coeffs: ModeCoefficients, r: np.ndarray, theta: np.ndarray,
                  tables: RadialTables) -> np.ndarray:
    """Cartesian gradient of the continued field at (P,) polar points;
    (n_src, 2, P).

    Radial part k C_n'(kr)/C_n(k r_anchor), angular part (i n / r) times the
    mode ratio, rotated with (cos th, sin th) and (-sin th, cos th).  Each
    (2N+1, P) table is freed once its product with the coefficients is
    formed, and both components are written into one output array.
    ``tables`` are as in ``eval_field``, built with ``with_deriv=True``.
    """
    ratio, dratio, inverse = tables
    ratio, dratio = ratio[:, inverse], dratio[:, inverse]
    # not exp(..., out=...): in place, the malloc heap layout it leaves raised
    # the peak resident memory of the 300^2 cavity benchmark by 16 MB
    phases = np.exp(1j * np.outer(coeffs.orders, theta))
    dratio *= phases
    g_rad = _gemm(coeffs.values, dratio)                     # (n_src, P)
    del dratio
    ang = 1j * coeffs.orders[:, None] / r[None, :]
    ang *= ratio
    del ratio
    ang *= phases
    del phases
    g_ang = _gemm(coeffs.values, ang)
    del ang
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    out = np.empty((coeffs.n_sources, 2, r.size), dtype=complex)
    np.multiply(g_rad, cos_t, out=out[:, 0])
    np.multiply(g_rad, sin_t, out=out[:, 1])
    out[:, 0] -= np.multiply(g_ang, sin_t, out=g_rad)
    g_ang *= cos_t
    out[:, 1] += g_ang
    return out
