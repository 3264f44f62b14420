"""Fourier coefficients on the measurement ring and truncated mode expansions.

From scattered-field samples u(theta_m) on an equispaced ring the discrete
coefficients

    c_n = (1/M) sum_m u(theta_m) exp(-i n theta_m),   n = -N..N

feed the truncated expansion continued off the ring,

    u_N(r, theta) = sum_n c_n  C_n(k r) / C_n(k r_anchor)  exp(i n theta),

with C = H^(1) on the radiating (exterior) side and C = J on the regular
(interior) side.  The expansion and its gradient run entirely on the
in-house cylinder-function module, on one table of C_m(k r) for the signed
orders m = -N-1..N+1 (negative orders by the exact C_{-m} = (-1)^m C_m):
the field takes its rows -N..N, and the gradient its rows shifted one
order up and one down, by the ladder identity (DLMF 10.6.2).  The radial
factor depends on |x| alone, so the cylinder functions are evaluated once
per distinct radius (a fraction of the points on a Cartesian grid) and
gathered to the points; the values are those of a per-point evaluation,
bit for bit.  ``radial_tables`` builds the table once for a whole
evaluation and is the one check of the radius floor; ``eval_field`` and
``eval_gradient`` require it and serve one block of its points at a time,
given as a (Q,) array of theta, and return (n_src, T Q) values or
(n_src, 2, T Q) gradients at those points and their T - 1 quarter turns
R^-q x, R(x, y) = (-y, x).  A turn keeps r and shifts theta by -pi/2, so
the modes at R^-q x are those at x times the exact factors (-i)^(mq): the
exponentials and the radial gather are formed for the Q points only, and
each turn takes one product of its n_src coefficient rows, times those
factors, with them.

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
from .forward import _gemm
from .geometry import RingMeasurement

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


def _check_truncation(truncation: int, n_receivers: int) -> None:
    """ValueError unless N >= 0, 2N+1 <= n_receivers (Nyquist) and the
    cylinder-function tables reach order N + 1, which the gradient reads."""
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    if 2 * truncation + 1 > n_receivers:
        raise ValueError(f"truncation {truncation} violates Nyquist (needs >= "
                         f"{2 * truncation + 1} receivers, have {n_receivers})")
    if truncation + 1 > cylfun.MAX_ORDER:
        raise ValueError(f"truncation {truncation} above {cylfun.MAX_ORDER - 1}: the gradient "
                         f"reads order N + 1 of tables that end at {cylfun.MAX_ORDER}")


def compute_coefficients(ring: RingMeasurement, truncation: int,
                         mode_guard: float = DEFAULT_MODE_GUARD) -> ModeCoefficients:
    """Discrete Fourier coefficients of the ring samples for n = -N..N.

    Plain DFT sums (trapezoid rule on the equispaced receivers); the
    truncation N must pass ``_check_truncation``.  On the interior side,
    modes whose anchor denominator |J_n(kR)| < mode_guard are zeroed and
    flagged; the exterior side excludes none.
    """
    m_rec = ring.n_receivers
    _check_truncation(truncation, m_rec)
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
    """Cylinder functions per signed order on the distinct radii, the
    coefficients they multiply, and the index of each point's radius.

    ``table`` is C_m(kr) for m = -N-1..N+1, (2N+3, U); ``scaled`` is
    c_n / C_n(k r_anchor) for n = -N..N, (n_src, 2N+1), zero on excluded
    modes; ``inverse`` is (P,).  ``tables._replace(inverse=tables.inverse[block])``
    serves a block of the points.
    """

    table: np.ndarray
    scaled: np.ndarray
    inverse: np.ndarray


def radial_tables(coeffs: ModeCoefficients, r) -> RadialTables:
    """The cylinder-function table of ``coeffs`` at the radii ``r``.

    Evaluated once per distinct radius.  Build it once for all points of
    an evaluation and serve blocks from it: the Miller recurrence picks
    its start order from the largest argument of the call, so tables built
    per block could differ in the last bits.  Excluded modes are zeroed in
    ``scaled`` so every evaluation path honors the guard.  ValueError for
    a radius below MIN_RADIUS.
    """
    n_top = coeffs.truncation
    radii, inverse = np.unique(r, return_inverse=True)
    if np.any(radii < MIN_RADIUS):
        raise ValueError("radius below 1e-12")
    cyl = cylfun.hankel1_all if coeffs.side == "exterior" else cylfun.bessel_j_all
    vals = cyl(n_top + 1, coeffs.k * radii)
    anchor = cyl(n_top, float(coeffs.k * coeffs.anchor_radius))
    anchor = np.where(np.abs(anchor) < 1e-300, 1.0, anchor)
    # C_{-m} = (-1)^m C_m: the signs are exact and cancel in c_n C_n(kr) / C_n(kR)
    orders = np.arange(-n_top - 1, n_top + 2)
    sign = (-1.0) ** np.minimum(orders, 0)
    table = vals[np.abs(orders)] * sign[:, None]
    scaled = coeffs.values / (anchor[np.abs(coeffs.orders)] * sign[1:-1])
    return RadialTables(table, np.where(coeffs.excluded, 0.0, scaled), inverse)


def eval_field(coeffs: ModeCoefficients, theta: np.ndarray, tables: RadialTables,
               turns: int = 1) -> np.ndarray:
    """Continued field u_N at the (Q,) polar angles ``theta`` of the points
    whose radii ``tables`` (from ``radial_tables``, ``inverse`` covering
    these points) were built on, and at their ``turns`` - 1 quarter turns;
    (n_src, turns Q), column q Q + p the value at R^-q x_p.

    At r = anchor this is the order-N Fourier partial sum of the ring data.
    """
    table, scaled, inverse = tables
    modes = np.exp(1j * np.outer(coeffs.orders, theta))
    modes *= table[1:-1, inverse]                            # (2N+1, Q)
    out = np.empty((coeffs.n_sources, turns * theta.size), dtype=complex)
    for q, cols in enumerate(np.split(out, turns, axis=1)):
        cols[:] = _gemm(_turned(scaled, coeffs.orders, q), modes)
    return out


def eval_gradient(coeffs: ModeCoefficients, theta: np.ndarray, tables: RadialTables,
                  turns: int = 1) -> np.ndarray:
    """Cartesian gradient of the continued field at the (Q,) polar angles
    ``theta`` and their turns, in the columns of ``eval_field``;
    (n_src, 2, turns Q).  ``tables`` as there.

    By the ladder identity (d_x +- i d_y)[C_n(kr) e^{in theta}]
    = -+k C_{n+-1}(kr) e^{i(n+-1) theta} (DLMF 10.6.2), the sums
    A = (d_x + i d_y) u_N and B = (d_x - i d_y) u_N shift the mode table by
    one order either way, and grad u_N = ((A + B)/2, (A - B)/(2i)).
    """
    table, scaled, inverse = tables
    n_top = coeffs.truncation + 1
    # not exp(..., out=...): in place, the malloc heap layout it leaves raised
    # the peak resident memory of the 300^2 cavity benchmark by 16 MB
    modes = np.exp(1j * np.outer(np.arange(-n_top, n_top + 1), theta))
    modes *= table[:, inverse]                               # (2N+3, Q)
    out = np.empty((coeffs.n_sources, 2, turns * theta.size), dtype=complex)
    for q, cols in enumerate(np.split(out, turns, axis=2)):
        # A/2 and B/2, orders n + 1 and n - 1 (the power-of-two scale is exact)
        a = _gemm(_turned(-coeffs.k / 2 * scaled, coeffs.orders + 1, q), modes[2:])
        b = _gemm(_turned(coeffs.k / 2 * scaled, coeffs.orders - 1, q), modes[:-2])
        np.add(a, b, out=cols[:, 0])
        np.subtract(b, a, out=cols[:, 1])
        cols[:, 1] *= 1j
    return out


def _turned(weights: np.ndarray, orders: np.ndarray, q: int) -> np.ndarray:
    """``weights`` (n_src, len(orders)) times (-i)^(m q) per order m, exact:
    e^{i m theta} at R^-q x, whose angle is theta - q pi/2, is e^{i m theta}
    at x times that factor."""
    if q == 0:
        return weights
    return weights * np.array([1, -1j, -1, 1j])[orders * q % 4]
