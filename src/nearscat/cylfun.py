"""Integer-order cylinder functions J_n, Y_n, H_n^(1) on the real half-line.

Self-contained double-precision evaluation, independent of any library
special-function code:

* J_n by Miller's downward recurrence, normalized with
  J_0(t) + 2 sum_k J_{2k}(t) = 1  (DLMF 10.12.4 at theta = pi/2),
* Y_0, Y_1 by the ascending series with logarithmic term (DLMF 10.8.1)
  for small arguments and by the Hankel asymptotic expansion
  (DLMF 10.17.4) for large arguments,
* Y_n for n >= 2 by upward recurrence, stable because |Y_n| grows with
  the order.

Tables cover the orders 0..n_max; callers reduce negative orders through
J_{-n} = (-1)^n J_n, Y_{-n} = (-1)^n Y_n.  |Y_n| saturates at
``SATURATION`` instead of overflowing to inf; callers can detect the
clamp via the ``return_saturated`` flag of :func:`bessel_y_all`.
:func:`derivative_all` turns a J or H table into derivatives by the
standard recurrences.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286061
SATURATION = 1e280          # |Y_n| clamp; beyond this only the sign is meaningful
MAX_ORDER = 200             # supported |n|

_TINY_ARG = 1e-6            # below this J_n comes from the two-term series
_SERIES_SPLIT = 12.0        # Y_0/Y_1: ascending series <=, Hankel expansion >
_MILLER_PAD = 10
_MILLER_SLOPE = 1.5
_RESCALE_LIMIT = 1e250


class DomainError(ValueError):
    """Argument or order outside the supported domain."""


def _check_order(n: int) -> int:
    n = int(n)
    if abs(n) > MAX_ORDER:
        raise DomainError(f"order |{n}| exceeds supported maximum {MAX_ORDER}")
    return n


def _as_flat(t, positive: bool) -> tuple[np.ndarray, tuple]:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    if positive:
        if np.any(arr <= 0.0):
            raise DomainError("argument must be positive")
    elif np.any(arr < 0.0):
        raise DomainError("argument must be nonnegative")
    return np.atleast_1d(arr).ravel(), arr.shape


# ---------------------------------------------------------------------------
# J_n
# ---------------------------------------------------------------------------

def bessel_j_all(n_max: int, t) -> np.ndarray:
    """J_0 .. J_{n_max} at t (scalar or array); shape (n_max+1,) + shape(t).

    t = 0 is allowed and returns the exact limits (1, 0, 0, ...).
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    _check_order(n_max)
    flat, shape = _as_flat(t, positive=False)
    out = np.zeros((n_max + 1, flat.size))

    zero = flat == 0.0
    tiny = (flat < _TINY_ARG) & ~zero
    rest = ~(zero | tiny)
    if np.any(zero):
        out[0, zero] = 1.0
    if np.any(tiny):
        out[:, tiny] = _bessel_j_small(n_max, flat[tiny])
    if np.any(rest):
        out[:, rest] = _bessel_j_miller(n_max, flat[rest])
    return out.reshape((n_max + 1,) + shape)


def _bessel_j_small(n_max: int, t: np.ndarray) -> np.ndarray:
    # first two series terms; relative error O(t^4) < 1e-24 for t < 1e-6
    out = np.zeros((n_max + 1, t.size))
    half = 0.5 * t
    factor = np.ones_like(t)          # (t/2)^n / n!
    for n in range(n_max + 1):
        out[n] = factor * (1.0 - half * half / (n + 1.0))
        factor = factor * half / (n + 1.0)
    return out


def _bessel_j_miller(n_max: int, t: np.ndarray) -> np.ndarray:
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
    norm = np.zeros_like(t)
    if m_start <= n_max:
        out[m_start] = p
    if m_start % 2 == 0:
        norm = norm + 2.0 * p
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
        big = np.abs(p) > _RESCALE_LIMIT
        if np.any(big):
            scale = np.where(big, 1e-250, 1.0)
            out *= scale
            p = p * scale
            p_hi = p_hi * scale
            norm = norm * scale
    return out / norm


# ---------------------------------------------------------------------------
# Y_n
# ---------------------------------------------------------------------------

def _y01_series(t: np.ndarray, j0: np.ndarray, j1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Alternating sums cancel down from ~1e4 at t ~ 12; extended precision
    # keeps the cancellation error below the float64 target.
    tx = t.astype(np.longdouble)
    x = 0.25 * tx * tx
    log_half = np.log(0.5 * tx) + np.longdouble(EULER_GAMMA)

    s0 = np.zeros_like(tx)                # sum_{m>=1} (-1)^{m+1} H_m x^m/(m!)^2
    s1 = np.ones_like(tx)                 # sum_{m>=0} (-1)^m (H_m+H_{m+1}) x^m/(m!(m+1)!)
    term0 = np.ones_like(tx)
    term1 = np.ones_like(tx)
    h_m = np.longdouble(0.0)
    sign = 1.0
    for m in range(1, 200):
        term0 = term0 * x / (m * m)
        term1 = term1 * x / (m * (m + 1.0))
        h_m += np.longdouble(1.0) / m
        h_m1 = h_m + np.longdouble(1.0) / (m + 1.0)
        s0 += sign * h_m * term0
        s1 += (-sign) * (h_m + h_m1) * term1
        sign = -sign
        if float(term0.max()) < 1e-24 and float(term1.max()) < 1e-24:
            break
    y0 = (2.0 / np.longdouble(math.pi)) * (log_half * j0 + s0)
    y1 = (2.0 / np.longdouble(math.pi)) * (log_half * j1 - 1.0 / tx - 0.25 * tx * s1)
    return y0.astype(float), y1.astype(float)


def _y_asymptotic(nu: int, t: np.ndarray) -> np.ndarray:
    """Hankel expansion Y_nu ~ sqrt(2/(pi t)) (sin w P + cos w Q), w = t - nu pi/2 - pi/4.

    Terms a_j(nu)/t^j stop at the per-element optimal truncation point
    (first nondecreasing term); residual ~1e-11 relative at t = 12.
    """
    mu = 4.0 * nu * nu
    p = np.zeros_like(t)
    q = np.zeros_like(t)
    a = 1.0
    tpow = np.ones_like(t)               # 1/t^j
    prev = np.full(t.shape, np.inf)
    active = np.ones(t.shape, dtype=bool)
    for j in range(60):
        term = a * tpow
        mag = np.abs(term)
        active = active & (mag < prev)
        if not active.any():
            break
        contrib = np.where(active, term, 0.0)
        sign = 1.0 if (j // 2) % 2 == 0 else -1.0
        if j % 2 == 0:
            p += sign * contrib
        else:
            q += sign * contrib
        prev = mag
        a = a * (mu - (2 * j + 1) ** 2) / (8.0 * (j + 1))
        tpow = tpow / t
    w = t - nu * 0.5 * math.pi - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * t)) * (np.sin(w) * p + np.cos(w) * q)


def bessel_y_all(n_max: int, t, return_saturated: bool = False):
    """Y_0 .. Y_{n_max} at t > 0, clamped at +-SATURATION.

    With ``return_saturated=True`` also returns a boolean array marking
    entries that hit the clamp (their true magnitude exceeds SATURATION).
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    _check_order(n_max)
    flat, shape = _as_flat(t, positive=True)

    out = np.empty((n_max + 1, flat.size))
    small = flat <= _SERIES_SPLIT
    y0 = np.empty_like(flat)
    y1 = np.empty_like(flat)
    if np.any(small):
        ts = flat[small]
        j01 = bessel_j_all(1, ts)
        y0[small], y1[small] = _y01_series(ts, j01[0], j01[1])
    if np.any(~small):
        tl = flat[~small]
        y0[~small] = _y_asymptotic(0, tl)
        y1[~small] = _y_asymptotic(1, tl)

    out[0] = y0
    if n_max >= 1:
        out[1] = y1
    for n in range(1, n_max):
        nxt = (2.0 * n / flat) * out[n] - out[n - 1]
        out[n + 1] = np.clip(nxt, -SATURATION, SATURATION)
    out = np.clip(out, -SATURATION, SATURATION)
    saturated = np.abs(out) >= SATURATION
    out = out.reshape((n_max + 1,) + shape)
    if return_saturated:
        return out, saturated.reshape((n_max + 1,) + shape)
    return out


# ---------------------------------------------------------------------------
# H_n^(1) and derivatives
# ---------------------------------------------------------------------------

def hankel1_all(n_max: int, t) -> np.ndarray:
    """H_0^(1) .. H_{n_max}^(1) at t > 0 as a complex array."""
    j = bessel_j_all(n_max, t)
    y = bessel_y_all(n_max, t)
    return j + 1j * y


def derivative_all(table: np.ndarray, t, kind: str) -> np.ndarray:
    """C_0' .. C_N' at t from the table C_0 .. C_{N+1} (orders along axis 0).

    kind "J": J_n' = J_{n-1} - n J_n / t with J_0' = -J_1; kind "H":
    H_n^(1)' = -H_{n+1}^(1) + n H_n^(1) / t.  t > 0 broadcasts against
    ``table[0]``.
    """
    orders = np.arange(table.shape[0] - 1).reshape((-1,) + (1,) * (table.ndim - 1))
    if kind == "H":
        return -table[1:] + orders * table[:-1] / t
    if kind != "J":
        raise ValueError(f"unknown cylinder-function kind {kind!r}")
    out = np.empty_like(table[:-1])
    out[0] = -table[1]
    out[1:] = table[:-2] - orders[1:] * table[1:-1] / t
    return out
