"""Parametric closed boundary curves, the rectangular imaging grid, and the
data records that live on them: source and receiver circles, ring
measurements and indicator images.  The module imports numpy only, so the
file formats and the noise model load no solver.

All curves are counterclockwise, 2*pi-periodic, and each component is a
finite trigonometric series sum_j a_j cos(jt) + b_j sin(jt), so the first
and second parameter derivatives are closed-form (the boundary-integral
quadrature needs exact x'' for its diagonal terms).  Every shape goes
through the one series evaluator; the built-in shapes are fixed harmonics:

* ``circle``   : c + a (cos t, sin t)
* ``kite``     : (cos t + 0.6 cos 2t - 0.3, 1.3 sin t)
* ``starfish`` : (1 + 0.2 cos 5t)(cos t, sin t)
                 = (cos t + 0.1 cos 4t + 0.1 cos 6t, sin t - 0.1 sin 4t + 0.1 sin 6t)
* ``trig``     : the harmonics given in the spec

Outward unit normal for a counterclockwise curve: nu = (x2', -x1')/|x'|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

N_DENSE = 4096           # curve samples behind BoundaryCurve.radial_profile
CONTAINS_BLOCK = 1 << 16  # point-edge or edge-edge pairs per block of contains, crossing
# an exclusion disk also masks points this fraction of its radius outside it, so a
# point on its circle to rounding is masked in every turn and mirror of a symmetric grid
EXCLUSION_BAND = 1e-12


def equispaced_angles(count: int) -> np.ndarray:
    """2 pi j / count for j = 0..count-1: the layout of curve nodes,
    sources, receivers and rays."""
    return 2.0 * np.pi * np.arange(count) / count


@dataclass(frozen=True)
class ShapeSpec:
    """Description of a closed boundary shape plus its node count.

    ``x_cos``/``x_sin``/``y_cos``/``y_sin`` hold the trig-series harmonics
    (index j is the coefficient of cos(j t) / sin(j t)) of ``kind="trig"``;
    ``center`` and ``radius`` are those of ``kind="circle"``.
    """

    kind: str
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0
    x_cos: tuple[float, ...] = ()
    x_sin: tuple[float, ...] = ()
    y_cos: tuple[float, ...] = ()
    y_sin: tuple[float, ...] = ()
    n_nodes: int = 256

    def validate(self) -> None:
        if self.kind not in ("circle", "kite", "starfish", "trig"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.n_nodes < 16 or self.n_nodes % 2 != 0:
            raise ValueError("n_nodes must be even and >= 16")
        if self.kind == "circle" and self.radius <= 0.0:
            raise ValueError("circle radius must be positive")
        # x = sum a_j cos(jt) + b_j sin(jt), y = sum c_j cos(jt) + d_j sin(jt)
        # encloses the signed area pi sum_j j (a_j d_j - b_j c_j); the normals
        # and the boundary integral equations assume it is positive, which
        # also refuses a trig series without harmonics
        series = self.harmonics()
        n = max(map(len, series))
        a, b, c, d = (np.pad(np.asarray(h, dtype=float), (0, n - len(h)))[1:] for h in series)
        area = np.pi * np.sum(np.arange(1, n) * (a * d - b * c))
        if not area > 0.0:
            raise ValueError(f"shape must run counter-clockwise: its signed area "
                             f"{area:.3g} is not positive")

    def harmonics(self) -> tuple[tuple[float, ...], ...]:
        """(x_cos, x_sin, y_cos, y_sin) of the shape's trigonometric series."""
        if self.kind == "circle":
            (cx, cy), a = self.center, self.radius
            return (cx, a), (), (cy,), (0.0, a)
        return _HARMONICS.get(self.kind, (self.x_cos, self.x_sin, self.y_cos, self.y_sin))


_HARMONICS = {
    "kite": ((-0.3, 1.0, 0.6), (), (), (0.0, 1.3)),
    "starfish": ((0.0, 1.0, 0.0, 0.0, 0.1, 0.0, 0.1), (), (),
                 (0.0, 1.0, 0.0, 0.0, -0.1, 0.0, 0.1)),
}


# d^n/dt^n of a cos(jt) and b sin(jt) is sign * j^n * fn(jt) times a or b
_TERMS = {0: ((1.0, np.cos), (1.0, np.sin)),
          1: ((-1.0, np.sin), (1.0, np.cos)),
          2: ((-1.0, np.cos), (-1.0, np.sin))}


def _trig_eval(coeffs_cos, coeffs_sin, t, deriv):
    """Series sum_j a_j cos(jt) + b_j sin(jt), or its first or second derivative.

    The j >= 1 terms go in ascending j, cosines before sines, and the
    constant a_0 last."""
    out = np.zeros_like(t)
    for coeffs, (sign, fn) in zip((coeffs_cos, coeffs_sin), _TERMS[deriv]):
        for j, a in enumerate(coeffs[1:], start=1):
            if a != 0.0:
                out += sign * a * j ** deriv * fn(j * t)
    if deriv == 0 and coeffs_cos and coeffs_cos[0] != 0.0:
        out += coeffs_cos[0]
    return out


class BoundaryCurve:
    """Closed curve sampled at t_j = 2 pi j / M with analytic derivatives:
    plain data, which no solve changes."""

    def __init__(self, spec: ShapeSpec):
        spec.validate()
        self.spec = spec
        self.n_nodes = spec.n_nodes
        self.t = equispaced_angles(self.n_nodes)
        self.points = self.position(self.t)           # (M, 2)
        self.tangents = self.derivative(self.t)       # x'
        self.seconds = self.second_derivative(self.t)  # x''
        self.speed = np.hypot(self.tangents[:, 0], self.tangents[:, 1])
        self.normals = np.column_stack([self.tangents[:, 1], -self.tangents[:, 0]])
        self.normals /= self.speed[:, None]

    # -- analytic evaluation at arbitrary parameters -------------------------

    def _eval(self, t, deriv: int) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x_cos, x_sin, y_cos, y_sin = self.spec.harmonics()
        return np.column_stack([_trig_eval(x_cos, x_sin, t, deriv),
                                _trig_eval(y_cos, y_sin, t, deriv)])

    def position(self, t) -> np.ndarray:
        return self._eval(t, 0)

    def derivative(self, t) -> np.ndarray:
        return self._eval(t, 1)

    def second_derivative(self, t) -> np.ndarray:
        return self._eval(t, 2)

    # -- derived quantities ---------------------------------------------------

    def radial_profile(self, theta) -> np.ndarray:
        """Radius of the curve along rays of angle theta from the origin.

        Nearest-angle lookup on N_DENSE samples; valid for curves that are
        star-shaped with respect to the origin.
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        td = equispaced_angles(N_DENSE)
        p = self.position(td)
        ang = np.mod(np.arctan2(p[:, 1], p[:, 0]), 2.0 * np.pi)
        rad = np.hypot(p[:, 0], p[:, 1])
        order = np.argsort(ang)
        ang, rad = ang[order], rad[order]
        q = np.mod(theta, 2.0 * np.pi)
        idx = np.searchsorted(ang, q)
        lo = (idx - 1) % N_DENSE
        hi = idx % N_DENSE
        d_lo = np.abs(q - ang[lo])
        d_hi = np.abs(ang[hi] - q)
        d_lo = np.minimum(d_lo, 2 * np.pi - d_lo)
        d_hi = np.minimum(d_hi, 2 * np.pi - d_hi)
        return np.where(d_lo <= d_hi, rad[lo], rad[hi])

    def contains(self, points) -> np.ndarray:
        """Even-odd (crossing number) point-in-curve test on the node polygon,
        in blocks of at most CONTAINS_BLOCK point-edge pairs; the crossing
        abscissa is formed on the straddling edges only, as per point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x0, y0 = self.points[:, 0], self.points[:, 1]
        x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
        inside = np.empty(pts.shape[0], dtype=bool)
        step = max(1, CONTAINS_BLOCK // self.n_nodes)
        for lo in range(0, pts.shape[0], step):
            px, py = pts[lo:lo + step, 0], pts[lo:lo + step, 1]
            p, e = np.nonzero((y0 > py[:, None]) != (y1 > py[:, None]))
            xi = x0[e] + (py[p] - y0[e]) * (x1[e] - x0[e]) / (y1[e] - y0[e])
            inside[lo:lo + step] = np.bincount(p[px[p] < xi], minlength=px.size) % 2 == 1
        return inside

    def crossing(self) -> tuple[int, int] | None:
        """The first pair i < j of non-adjacent node-polygon edges (edge i joins
        nodes i and i + 1) whose ends lie strictly on both sides of each
        other's line, or None; in blocks of at most CONTAINS_BLOCK pairs."""
        m, a = self.n_nodes, self.points
        e = np.roll(a, -1, axis=0) - a
        step = max(1, CONTAINS_BLOCK // m)
        for lo in range(0, m, step):
            i, k = np.arange(lo, min(lo + step, m))[:, None], np.arange(lo, m)   # k >= i
            d = a[k] - a[i]                               # node k from node i
            hit = ((_cross(e[i], d) * _cross(e[i], d + e[k]) < 0.0)
                   & (_cross(e[k], d) * _cross(e[k], d - e[i]) < 0.0)
                   & (k > i + 1) & (k - i < m - 1))
            if hit.any():
                row, col = np.argwhere(hit)[0]
                return lo + int(row), lo + int(col)
        return None


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def make_curve(spec: ShapeSpec) -> BoundaryCurve:
    """Build a sampled BoundaryCurve; raises ValueError on a bad spec."""
    return BoundaryCurve(spec)


@dataclass(frozen=True)
class ImagingGrid:
    """Rectangular imaging grid, row-major with y decreasing then x increasing."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int
    points: np.ndarray = field(repr=False)       # (nx*ny, 2)
    mask: np.ndarray = field(repr=False)          # True = excluded
    exclusion: tuple[float, float, float] | None  # (cx, cy, radius)

    @property
    def spacing_x(self) -> float:
        return (self.xmax - self.xmin) / (self.nx - 1)

    @property
    def spacing_y(self) -> float:
        return (self.ymax - self.ymin) / (self.ny - 1)

    @property
    def n_points(self) -> int:
        return self.nx * self.ny

    def index_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row-major indices of the grid nodes nearest to the (P,) points
        (x, y), rounding half to even; -1 where a point lies outside."""
        ix = np.rint((x - self.xmin) / self.spacing_x)
        iy = np.rint((self.ymax - y) / self.spacing_y)
        inside = (0 <= ix) & (ix < self.nx) & (0 <= iy) & (iy < self.ny)
        idx = np.full(ix.shape, -1, dtype=np.int64)
        idx[inside] = iy[inside] * self.nx + ix[inside]
        return idx

    def as_image(self, values: np.ndarray) -> np.ndarray:
        """Reshape a flat per-point array into (ny, nx) with top row = max y."""
        return np.asarray(values).reshape(self.ny, self.nx)

    def quarter_orbits(self) -> np.ndarray | None:
        """(4, Q) indices of the unmasked points whose row m holds R^-m of row
        0, R(x, y) = (-y, x); an odd grid's centre is in none.  None unless R
        maps the grid onto itself: nx = ny, coordinates antisymmetric about 0
        to 1e-12 relative, and the mask unchanged."""
        n = self.nx
        xs, ys = self.points[:n, 0], self.points[::n, 1]
        tol = 1e-12 * max(abs(self.xmin), abs(self.xmax))
        mask = self.as_image(self.mask)
        if (self.ny != n or np.abs(xs + xs[::-1]).max() > tol or np.abs(ys - xs[::-1]).max() > tol
                or not np.array_equal(mask, np.rot90(mask))):
            return None
        idx = self.as_image(np.arange(n * n))    # rot90 holds at each x the index of R^-1 x
        orbits = np.stack([np.rot90(idx, m)[:n // 2, :(n + 1) // 2].ravel() for m in range(4)])
        return orbits[:, ~self.mask[orbits[0]]]


def imaging_grid(xmin: float, xmax: float, ymin: float, ymax: float,
                 nx: int, ny: int, exclusion=None) -> ImagingGrid:
    """Equispaced grid on [xmin, xmax] x [ymin, ymax].

    Ordering: top row (y = ymax) first, x increasing within a row.  The
    optional exclusion is a circle (center, radius); grid points with
    |p - center| <= radius (1 + EXCLUSION_BAND) are masked.
    """
    if nx < 2 or ny < 2:
        raise ValueError("nx and ny must be >= 2")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("degenerate grid bounds")
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymax, ymin, ny)
    gx, gy = np.meshgrid(xs, ys)           # row-major: y decreasing, x increasing
    points = np.column_stack([gx.ravel(), gy.ravel()])
    if exclusion is not None:
        center, radius = exclusion
        if radius < 0.0:
            raise ValueError("exclusion radius must be nonnegative")
        d = points - np.asarray(center, dtype=float)[None, :]
        mask = np.hypot(d[:, 0], d[:, 1]) <= radius * (1.0 + EXCLUSION_BAND)
        excl = (float(center[0]), float(center[1]), float(radius))
    else:
        mask = np.zeros(points.shape[0], dtype=bool)
        excl = None
    return ImagingGrid(xmin=float(xmin), xmax=float(xmax), ymin=float(ymin),
                       ymax=float(ymax), nx=int(nx), ny=int(ny),
                       points=points, mask=mask, exclusion=excl)


# ---------------------------------------------------------------------------
# Records: sources, ring measurements, indicator images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceSet:
    """Point sources equally spaced on a circle, starting at angle 0."""

    center: tuple[float, float]
    radius: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("need at least one source")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"source circle radius must be finite and positive, "
                             f"got {self.radius}")
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"source circle centre must be finite, got {self.center}")

    @property
    def positions(self) -> np.ndarray:
        return ring_points(self.radius, self.count) + self.center


@dataclass(frozen=True)
class RingMeasurement:
    """Complex field samples on a measurement circle, one row per source.

    Receiver m sits at angle 2 pi m / M, M = ``samples.shape[1]``.
    """

    radius: float
    k: float
    samples: np.ndarray          # (n_src, n_rec) complex, the scattered field
    noise_level: float
    side: str                    # "exterior" | "interior"
    sources: SourceSet
    reciprocity: float = math.nan    # the forward solve's reciprocity_error; nan if unknown

    def __post_init__(self):
        if self.side not in ("exterior", "interior"):
            raise ValueError(f"unknown side {self.side!r}")

    @property
    def n_receivers(self) -> int:
        return self.samples.shape[1]

    @property
    def angles(self) -> np.ndarray:
        return equispaced_angles(self.n_receivers)

    @property
    def receiver_points(self) -> np.ndarray:
        return ring_points(self.radius, self.n_receivers)


def ring_points(radius: float, count: int) -> np.ndarray:
    """(count, 2) equispaced receivers on the circle of ``radius`` about the
    origin, the first at angle 0."""
    a = equispaced_angles(count)
    return np.column_stack([radius * np.cos(a), radius * np.sin(a)])


@dataclass(frozen=True)
class IndicatorImage:
    """Indicator values on an imaging grid; masked points hold NaN."""

    grid: ImagingGrid
    values: np.ndarray           # (n_points,) float, NaN where masked
    kind: str                    # "soft" | "hard"
    wavenumbers: tuple[float, ...]
    state: str                   # "raw" | "normalized" | "reciprocal"
    flags: np.ndarray            # (n_points,) uint8
