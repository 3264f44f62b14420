"""Two-sided envelope checks for |H_n^(1)(t)| and |J_n(t)| in the deep
evanescent regime n >> t, on the tables of ``nearscat.cylfun``.

The ratios involve 2^n Gamma(n), so they are formed in log-space and
never overflow for supported orders.  Criterion A1 and the cylfun tests
use them to verify the in-house tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nearscat import cylfun as cf


class OverflowGuardError(ArithmeticError):
    """A log-space bound check hit a non-representable magnitude."""


@dataclass(frozen=True)
class BoundCheckReport:
    """Result of a two-sided envelope check over a contiguous order range."""

    argument: float
    n_start: int
    n_stop: int
    orders: np.ndarray
    ratios: np.ndarray
    lower: float
    upper: float

    @property
    def passed(self) -> bool:
        if self.ratios.size == 0:
            return True
        return bool(np.all(self.ratios >= self.lower) and np.all(self.ratios <= self.upper))

    @property
    def min_ratio(self) -> float:
        return float(self.ratios.min()) if self.ratios.size else math.nan

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max()) if self.ratios.size else math.nan


def hankel_bound_start(t: float) -> int:
    """Smallest order covered by the |H_n^(1)| envelope: n > (e t + 1)/2, n >= 1."""
    return max(1, int(math.floor((math.e * t + 1.0) / 2.0)) + 1)


def bessel_bound_start(t: float) -> int:
    """Smallest order covered by the |J_n| envelope: n > max(ceil(0.3 t^2 - 1), 1)."""
    return max(int(math.ceil(0.3 * t * t - 1.0)), 1) + 1


def check_hankel_bounds(t: float, n_max: int) -> BoundCheckReport:
    """Ratios pi t^n |H_n^(1)(t)| / (3 2^(n-1) Gamma(n)) for covered orders.

    Every ratio must lie in [1/2, e^t].  Gamma(n) = (n-1)! enters through
    lgamma, the whole ratio through its logarithm.
    """
    t = float(t)
    if t <= 0.0:
        raise cf.DomainError("argument must be positive")
    if not 0 <= n_max <= cf.MAX_ORDER:
        raise cf.DomainError(f"n_max = {n_max} outside 0..{cf.MAX_ORDER}")
    n_start = hankel_bound_start(t)
    orders = np.arange(n_start, n_max + 1)
    if orders.size == 0:
        return BoundCheckReport(t, n_start, n_max, orders, np.empty(0), 0.5, math.exp(t))

    jv = cf.bessel_j_all(n_max, t)
    yv = cf.bessel_y_all(n_max, t)
    if np.any(np.abs(yv[orders]) >= cf.SATURATION):
        raise OverflowGuardError("|Y_n| saturated inside the checked order range")
    log_ratio = np.empty(orders.size)
    for i, n in enumerate(orders):
        log_h = math.log(math.hypot(jv[n], yv[n]))
        log_ratio[i] = (math.log(math.pi) + n * math.log(t) + log_h
                        - math.log(3.0) - (n - 1) * math.log(2.0) - math.lgamma(n))
    if np.any(log_ratio > 700.0):
        raise OverflowGuardError("bound ratio exceeds representable range")
    ratios = np.exp(log_ratio)
    return BoundCheckReport(t, int(orders[0]), n_max, orders, ratios, 0.5, math.exp(t))


def check_bessel_bounds(t: float, n_max: int) -> BoundCheckReport:
    """Ratios 2^n n! |J_n(t)| / t^n for covered orders; must lie in [1/6, 1]."""
    t = float(t)
    if t <= 0.0:
        raise cf.DomainError("argument must be positive")
    if not 0 <= n_max <= cf.MAX_ORDER:
        raise cf.DomainError(f"n_max = {n_max} outside 0..{cf.MAX_ORDER}")
    n_start = bessel_bound_start(t)
    orders = np.arange(n_start, n_max + 1)
    if orders.size == 0:
        return BoundCheckReport(t, n_start, n_max, orders, np.empty(0), 1.0 / 6.0, 1.0)

    jv = cf.bessel_j_all(n_max, t)
    log_ratio = np.empty(orders.size)
    for i, n in enumerate(orders):
        if jv[n] == 0.0:
            raise OverflowGuardError(f"J_{n}({t}) underflowed; ratio not representable")
        log_ratio[i] = (n * math.log(2.0) + math.lgamma(n + 1.0)
                        + math.log(abs(jv[n])) - n * math.log(t))
    ratios = np.exp(log_ratio)
    return BoundCheckReport(t, int(orders[0]), n_max, orders, ratios, 1.0 / 6.0, 1.0)
