"""Integer-order cylinder functions J_n, Y_n, H_n^(1) on the real half-line.

Self-contained double-precision evaluation, independent of any library
special-function code.  One downward Miller pass serves J_n, Y_0 and Y_1
at every argument, so a J, Y or H = J + iY table costs one pass:

* J_n by Miller's downward recurrence, normalized with
  J_0(t) + 2 sum_k J_{2k}(t) = 1  (DLMF 10.12.4 at theta = pi/2),
* Y_0, Y_1 from the Neumann sums that the same pass accumulates,
    (pi/2) Y_0 = (ln(t/2) + gamma) J_0 - 2 sum_{k>=1} (-1)^k J_{2k} / k
  (Abramowitz & Stegun 9.1.88) and, from Y_1 = -Y_0' with
  2 J_{2k}' = J_{2k-1} - J_{2k+1},
    (pi/2) Y_1 = (ln(t/2) + gamma - 1) J_1 - J_0 / t
                 - sum_{k>=1} (-1)^k (2k+1) / (k(k+1)) J_{2k+1};
  every term is bounded by |J| <= 1, so nothing cancels catastrophically,
* Y_n for n >= 2 by upward recurrence, stable because |Y_n| grows with
  the order.

Arguments are t = 0 (J only, the exact limits) or 1e-40 <= t <= MAX_ARG.
Below 1e-40 one recurrence step 2m/t could overflow the rescaled trial
values.  Above MAX_ARG = 1e4 the Miller pass, whose start order grows
like t + 9 sqrt(t), would cost more than the 0.09-0.11 s it takes for
one argument at t = 1e4 (one core), and about ten times that per decade
of t.  Tables cover the orders 0..n_max; callers reduce negative orders
through J_{-n} = (-1)^n J_n, Y_{-n} = (-1)^n Y_n.  |Y_n| saturates at
``SATURATION`` instead of overflowing to inf; ``np.abs(y) >= SATURATION``
marks the clamped entries.  :func:`derivative_all` turns a J or H table
into derivatives by the one recurrence C_n' = (n/t) C_n - C_{n+1}
(DLMF 10.6.2), which every cylinder function obeys.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286061
SATURATION = 1e280          # |Y_n| clamp; beyond this only the sign is meaningful
MAX_ORDER = 200             # supported |n|
MAX_ARG = 1e4               # largest t (see the module docstring)

_MIN_ARG = 1e-40            # smallest positive t (see the module docstring)
_MILLER_PAD = 10
_MILLER_SLOPE = 1.5
_RESCALE_LIMIT = 1e250


class DomainError(ValueError):
    """Argument or order outside the supported domain."""


def _as_flat(t, positive: bool) -> tuple[np.ndarray, tuple]:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    if positive:
        if np.any(arr <= 0.0):
            raise DomainError("argument must be positive")
    elif np.any(arr < 0.0):
        raise DomainError("argument must be nonnegative")
    if np.any((arr > 0.0) & (arr < _MIN_ARG)):
        raise DomainError(f"positive argument must be >= {_MIN_ARG:g}")
    if np.any(arr > MAX_ARG):
        raise DomainError(f"argument must be <= {MAX_ARG:g}")
    return np.atleast_1d(arr).ravel(), arr.shape


# ---------------------------------------------------------------------------
# J_n, Y_n and H_n^(1) tables, derivatives
# ---------------------------------------------------------------------------

def bessel_j_all(n_max: int, t, with_y: bool = False):
    """J_0 .. J_{n_max} at t (scalar or array); shape (n_max+1,) + shape(t).

    t = 0 is allowed and returns the exact limits (1, 0, 0, ...).  With
    ``with_y`` (t > 0 only) the pair (J, Y) of such tables from one Miller
    pass: Y_0, Y_1 from its Neumann sums, Y_n by upward recurrence,
    clamped at +-SATURATION.
    """
    if not 0 <= n_max <= MAX_ORDER:
        raise DomainError(f"n_max = {n_max} outside 0..{MAX_ORDER}")
    flat, shape = _as_flat(t, positive=with_y)
    dims = (n_max + 1,) + shape
    if with_y:
        j, s0, s1 = _bessel_j_miller(n_max, flat, neumann=True)
        log_half = np.log(0.5 * flat) + EULER_GAMMA
        y = np.empty_like(j)
        y[0] = (2.0 / math.pi) * (log_half * j[0] - 2.0 * s0)
        if n_max >= 1:
            y[1] = (2.0 / math.pi) * ((log_half - 1.0) * j[1] - j[0] / flat - s1)
        for n in range(1, n_max):
            y[n + 1] = np.clip((2.0 * n / flat) * y[n] - y[n - 1], -SATURATION, SATURATION)
        return j.reshape(dims), y.reshape(dims)
    out = np.zeros((n_max + 1, flat.size))
    zero = flat == 0.0
    out[0, zero] = 1.0
    if not np.all(zero):
        out[:, ~zero] = _bessel_j_miller(n_max, flat[~zero])
    return out.reshape(dims)


def _neumann_weight(order: int) -> float:
    # coefficient of J_order, order >= 2, in s0 (even orders) or s1 (odd orders)
    k = order // 2
    sign = -1.0 if k % 2 else 1.0
    return sign / k if order % 2 == 0 else sign * (2 * k + 1) / (k * (k + 1))


def _bessel_j_miller(n_max: int, t: np.ndarray, neumann: bool = False):
    """J_0 .. J_{n_max} at t > 0; with ``neumann`` also the sums s0, s1.

    s0 = sum_{k>=1} (-1)^k J_{2k} / k and
    s1 = sum_{k>=1} (-1)^k (2k+1) / (k(k+1)) J_{2k+1} are accumulated from
    the same trial values as the normalization, so they cost one pass.
    """
    # Start deep enough that the truncated tail of the normalization series
    # J_0 + 2 sum J_2k stays below ~1e-18: J_m(t) ~ (e t / 2m)^m needs
    # m - t to grow like sqrt(t).  The n + 10 + 1.5 t rule alone leaves a
    # ~1e-11 tail for small n.
    tmax = float(t.max())
    depth = max(_MILLER_PAD + _MILLER_SLOPE * tmax, tmax + 9.0 * math.sqrt(tmax) + 25.0)
    m_start = n_max + int(math.ceil(depth))
    if m_start % 2:
        m_start += 1
    out = np.zeros((n_max + 1, t.size))
    p_hi = np.zeros_like(t)                  # trial value at order m_start + 1
    p = np.full_like(t, 1e-30)               # trial value at order m_start
    norm = 2.0 * p
    sums = [_neumann_weight(m_start) * p, np.zeros_like(t)] if neumann else []
    for m in range(m_start, 0, -1):
        p_lo = (2.0 * m / t) * p - p_hi      # order m - 1
        p_hi, p = p, p_lo
        order = m - 1
        if order <= n_max:
            out[order] = p
        if order == 0:
            norm = norm + p
        elif order % 2 == 0:
            norm = norm + 2.0 * p
        if neumann and order >= 2:
            sums[order % 2] = sums[order % 2] + _neumann_weight(order) * p
        big = np.abs(p) > _RESCALE_LIMIT
        if np.any(big):
            scale = np.where(big, 1e-250, 1.0)
            out *= scale
            p = p * scale
            p_hi = p_hi * scale
            norm = norm * scale
            sums = [s * scale for s in sums]
    if neumann:
        return out / norm, sums[0] / norm, sums[1] / norm
    return out / norm


def bessel_y_all(n_max: int, t) -> np.ndarray:
    """Y_0 .. Y_{n_max} at t > 0, clamped at +-SATURATION."""
    return bessel_j_all(n_max, t, with_y=True)[1]


def hankel1_all(n_max: int, t) -> np.ndarray:
    """H_0^(1) .. H_{n_max}^(1) = J + iY at t > 0, complex, from one Miller pass."""
    j, y = bessel_j_all(n_max, t, with_y=True)
    return j + 1j * y


def derivative_all(table: np.ndarray, t) -> np.ndarray:
    """C_0' .. C_N' at t from the table C_0 .. C_{N+1} (orders along axis 0),
    C_n' = -C_{n+1} + n C_n / t for J and H^(1) alike.  t > 0 broadcasts
    against ``table[0]``.
    """
    orders = np.arange(table.shape[0] - 1).reshape((-1,) + (1,) * (table.ndim - 1))
    return -table[1:] + orders * table[:-1] / t
