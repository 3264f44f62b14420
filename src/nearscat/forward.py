"""Synthetic near-field data: point-source incidence, Nystrom BIE solvers,
and an analytic separation-of-variables oracle for circular scatterers.

Formulation
-----------
Incident field of a point source at z (2D free-space Green's function):

    u_i(x; z) = (i/4) H_0^(1)(k |x - z|)

Scattered-field representations and boundary equations (jump relations as
in Colton & Kress, "Inverse Acoustic and Electromagnetic Scattering
Theory"; quadrature as in Kress, "Linear Integral Equations", sect. 12.3):

    exterior Dirichlet : u_s = (D - i k S) phi,  (I/2 + K - i k S) phi = -u_i
    exterior Neumann   : u_s = S phi,            (K' - I/2) phi = -du_i/dnu
    interior Dirichlet : u_s = D phi,            (K - I/2) phi  = -u_i
    interior Neumann   : u_s = S phi,            (K' + I/2) phi = -du_i/dnu

The combined representation for the exterior Dirichlet problem is immune
to irregular frequencies; the single-layer Neumann representations are
not, which is why the solver carries a condition estimate and refuses to
return garbage near a representation breakdown.

Discretization: global trigonometric Nystrom on M equispaced nodes with
the standard splitting  kernel = A1(t, tau) ln(4 sin^2((t - tau)/2)) + A2
and the spectrally accurate log-quadrature weights R_j; spectral accuracy
on analytic curves.

Assembly comes in two parts.  A ``NystromGeometry`` holds everything that
does not depend on k (distances, the log factor, the weights R_j, the
normal products of the operators in use) and is built once per curve and
target set; ``run_scenario`` shares one across its wavenumbers.  Its
arrays share one anonymous memory mapping, off the malloc heap.  Its
per-k pass ``blocks(k)`` makes the Bessel calls and forms each operator
in place, freeing every M x M temporary as soon as it is used.  The
arithmetic and its order are those of a one-shot assembly, so the blocks
are bit for bit the same.

All kernel assembly here is vectorized through scipy.special; the series
oracle below runs on the in-house cylinder-function module instead, so
the two routes share no special-function code.  The Hankel functions are
formed as H_n^(1) = J_n + i Y_n from the Cephes routines j0, j1, y0 and y1
rather than scipy.special.hankel1: hankel1 goes through AMOS, which on
large argument arrays costs several times the J and Y calls together,
and the kernels need J_0 and J_1 on their own anyway.  Only the operators
a representation uses are assembled (see ``_OPERATORS``).
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
from scipy.special import j0 as _sp_j0
from scipy.special import j1 as _sp_j1
from scipy.special import y0 as _sp_y0
from scipy.special import y1 as _sp_y1

from . import cylfun
from .geometry import BoundaryCurve

EULER_GAMMA = cylfun.EULER_GAMMA
CONDITION_LIMIT = 1e12
SOURCE_ON_BOUNDARY_TOL = 1e-9
_ORACLE_REL_TOL = 1e-14
_ORACLE_RUN = 8          # consecutive negligible terms required
_ORACLE_MAX_ORDER = 180


class GeometryError(ValueError):
    """Sources/receivers on the wrong side of the boundary or on it."""


class SingularityError(ValueError):
    """Field evaluation requested at (or too close to) the source point."""


class ResonanceError(RuntimeError):
    """Boundary system too ill-conditioned (representation breakdown)."""


class ModeDegeneracyError(RuntimeError):
    """Circle oracle hit an interior eigenvalue: a mode denominator vanished."""


class SeriesConvergenceError(RuntimeError):
    """Circle oracle series failed to converge within the order cap."""


# ---------------------------------------------------------------------------
# Sources, measurements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceSet:
    """Point sources equally spaced on a circle, starting at angle 0."""

    center: tuple[float, float]
    radius: float
    count: int
    side: str                    # "exterior" | "interior"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("need at least one source")
        if self.radius <= 0.0:
            raise ValueError("source circle radius must be positive")
        if self.side not in ("exterior", "interior"):
            raise ValueError(f"unknown side {self.side!r}")

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.count) / self.count

    @property
    def positions(self) -> np.ndarray:
        a = self.angles
        return np.column_stack([self.center[0] + self.radius * np.cos(a),
                                self.center[1] + self.radius * np.sin(a)])


@dataclass(frozen=True)
class RingMeasurement:
    """Complex field samples on a measurement circle, one row per source."""

    radius: float
    angles: np.ndarray           # (n_rec,)
    k: float
    samples: np.ndarray          # (n_src, n_rec) complex
    field_kind: str              # "scattered" | "total"
    noise_level: float
    side: str
    sources: SourceSet

    @property
    def n_receivers(self) -> int:
        return self.angles.size

    @property
    def receiver_points(self) -> np.ndarray:
        return np.column_stack([self.radius * np.cos(self.angles),
                                self.radius * np.sin(self.angles)])

    def with_samples(self, samples: np.ndarray, noise_level: float) -> "RingMeasurement":
        return replace(self, samples=samples, noise_level=noise_level)


# ---------------------------------------------------------------------------
# Incident field
# ---------------------------------------------------------------------------

def _hankel1(order: int, x: np.ndarray, j: np.ndarray | None = None) -> np.ndarray:
    """H_order^(1)(x) = J_order(x) + i Y_order(x) for order 0 or 1.

    Pass ``j`` to reuse J_order(x) already computed.
    """
    j_fn, y_fn = (_sp_j0, _sp_y0) if order == 0 else (_sp_j1, _sp_y1)
    h = np.empty(x.shape, dtype=complex)
    h.real = j_fn(x) if j is None else j
    h.imag = y_fn(x)
    return h


def _diff_to_source(x, z):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    d = pts - np.asarray(z, dtype=float)[None, :]
    r = np.hypot(d[:, 0], d[:, 1])
    if np.any(r < 1e-12):
        raise SingularityError("evaluation point coincides with the source")
    return pts, d, r


def incident_field(x, z, k: float):
    """Point-source incident field (i/4) H_0^(1)(k|x-z|); x may be (..., 2)."""
    x_arr = np.asarray(x, dtype=float)
    pts, _, r = _diff_to_source(x_arr.reshape(-1, 2), z)
    vals = 0.25j * _hankel1(0, k * r)
    return complex(vals[0]) if x_arr.ndim == 1 else vals.reshape(x_arr.shape[:-1])


def incident_gradient(x, z, k: float):
    """grad_x u_i = -(i k/4) H_1^(1)(k|x-z|) (x-z)/|x-z|; shape (..., 2)."""
    x_arr = np.asarray(x, dtype=float)
    _, d, r = _diff_to_source(x_arr.reshape(-1, 2), z)
    fac = -0.25j * k * _hankel1(1, k * r) / r
    g = fac[:, None] * d
    return g[0] if x_arr.ndim == 1 else g.reshape(x_arr.shape)


# ---------------------------------------------------------------------------
# Nystrom discretization
# ---------------------------------------------------------------------------

def _log_weights_from_diff(dt: np.ndarray, m_nodes: int) -> np.ndarray:
    """Kress weights R_j(t) for the ln(4 sin^2((t - t_j)/2)) factor.

    dt holds t - t_j; with 2n nodes:
    R_j(t) = -(2 pi/n) sum_{m=1}^{n-1} cos(m (t - t_j))/m - (pi/n^2) cos(n (t - t_j)).
    """
    n = m_nodes // 2
    m = np.arange(1, n)
    acc = np.cos(dt[..., None] * m) / m          # (..., n-1)
    return -(2.0 * np.pi / n) * acc.sum(axis=-1) - (np.pi / n**2) * np.cos(n * dt)


def _log_weight_circulant(m_nodes: int, out: np.ndarray | None = None) -> np.ndarray:
    """R_{|i-j|} as a full (M, M) circulant, built from one weight vector
    (into ``out`` when given)."""
    d = 2.0 * np.pi * np.arange(m_nodes) / m_nodes
    row = _log_weights_from_diff(d, m_nodes)      # R at distance d
    idx = (np.arange(m_nodes)[:, None] - np.arange(m_nodes)[None, :]) % m_nodes
    return np.take(row, idx, out=out)


def _mapped_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array in an anonymous memory mapping of its
    own, unmapped when the array and its views are gone.

    The Nystrom geometry lives in one of these rather than on the malloc
    heap.  Its arrays outlive every per-k temporary of the same size; on
    the heap, whether the blocks freed around them were reused or stayed
    resident beside new ones depended on where small objects happened to
    sit, and peak memory moved by one M x M complex block from run to run.
    """
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count, 1) * np.dtype(float).itemsize)
    return np.frombuffer(buf, dtype=float, count=count).reshape(shape)


class NystromGeometry:
    """The k-free part of the Nystrom blocks ``ops`` ("S", "K", "K'") for one
    curve and one set of target parameters.

    Holds |x(t) - x(tau)| (1 on the diagonal), ln(4 sin^2((t - tau)/2)), the
    log-quadrature weights R_j, the double-layer diagonal limits and the
    normal products of the K/K' kernels that ``ops`` names; ``blocks(k)``
    adds the Bessel part of one wavenumber.  With ``diagonal=True`` the
    targets are the curve nodes themselves and the split-kernel diagonal
    limits are inserted.  The geometry keeps the curve's spec, not the
    curve, so a curve may hold its geometry without forming a cycle.  Its
    M x M arrays are rows of one ``_mapped_empty`` block.
    """

    def __init__(self, curve: BoundaryCurve, t_targets: np.ndarray, pos_t: np.ndarray,
                 tan_t: np.ndarray, diagonal: bool, ops):
        mm = curve.n_nodes
        self.spec = curve.spec
        self.n_nodes = mm
        self.diagonal = diagonal
        self.ops = tuple(ops)
        self.speed = curve.speed
        y = curve.points
        names = [name for name in ("K", "K'") if name in self.ops]
        self.r, self.lg, self.rw, *normals = _mapped_empty((3 + len(names), len(t_targets), mm))
        self.normal = dict(zip(names, normals))
        dt = t_targets[:, None] - curve.t[None, :]
        dx = pos_t[:, None, 0] - y[None, :, 0]            # x(t) - x(tau)
        dy = pos_t[:, None, 1] - y[None, :, 1]
        np.hypot(dx, dy, out=self.r)
        np.log(np.maximum(4.0 * np.sin(0.5 * dt) ** 2, 1e-300), out=self.lg)
        if diagonal:
            np.fill_diagonal(self.r, 1.0)
            np.fill_diagonal(self.lg, 0.0)
            _log_weight_circulant(mm, out=self.rw)
            tg, sc = curve.tangents, curve.seconds
            w = tg[:, 0] * sc[:, 1] - tg[:, 1] * sc[:, 0]
            self.dl_diag = (0.0, -w / (4.0 * np.pi * self.speed**2))
        else:
            self.rw[...] = _log_weights_from_diff(dt, mm)
            self.dl_diag = None
        del dt
        if "K" in self.ops:
            nj = np.column_stack([curve.tangents[:, 1], -curve.tangents[:, 0]])  # nu |x'|
            # double layer: nu(tau) . (x(tau) - x(t)) = -(n_j . dx)
            np.negative(dx * nj[None, :, 0] + dy * nj[None, :, 1], out=self.normal["K"])
        if "K'" in self.ops:
            sp_t = np.hypot(tan_t[:, 0], tan_t[:, 1])
            nt = np.column_stack([tan_t[:, 1], -tan_t[:, 0]])
            # adjoint double layer: nu(t) . (x(t) - x(tau)) = n_t . dx
            b_kp = self.normal["K'"]
            np.add(dx * nt[:, None, 0], dy * nt[:, None, 1], out=b_kp)
            b_kp *= self.speed[None, :] / sp_t[:, None]

    def check(self, curve: BoundaryCurve, bc: str, side: str) -> None:
        """Raise ValueError unless this is the node geometry of the (side, bc)
        system on ``curve``."""
        ops = _operators(bc, side)
        if curve.n_nodes != self.n_nodes:
            raise ValueError(f"Nystrom geometry built for {self.n_nodes} nodes, "
                             f"the curve has {curve.n_nodes}")
        if curve.spec != self.spec:
            raise ValueError("Nystrom geometry built for another curve")
        if not self.diagonal:
            raise ValueError("Nystrom geometry built for off-node targets")
        if self.ops != ops:
            raise ValueError(f"Nystrom geometry built for operators {self.ops}, "
                             f"the {side} {bc} system needs {ops}")

    def _split(self, a1: np.ndarray, full: np.ndarray, diag) -> np.ndarray:
        """R_j A1 + h A2 with A2 = full - A1 ln(4 sin^2((t - tau)/2)), formed in
        ``full``; ``a1`` is overwritten.

        ``diag`` holds the diagonal limits (A1, A2), or None for off-node targets.
        """
        full -= a1 * self.lg
        if diag is not None:
            np.fill_diagonal(a1, diag[0])
            np.fill_diagonal(full, diag[1])
        full *= 2.0 * np.pi / self.n_nodes
        a1 *= self.rw
        full += a1
        return full

    def blocks(self, k: float) -> dict[str, np.ndarray]:
        """The blocks named in ``ops`` at wavenumber k, mapping node densities
        to values at the targets.  Each block is computed the same way
        whatever else ``ops`` names."""
        spj = self.speed
        kr = k * self.r
        blocks = {}
        if "S" in self.ops:
            j0 = _sp_j0(kr)
            s1 = np.multiply(-(0.25 / np.pi), j0)
            s1 *= spj[None, :]
            s_full = _hankel1(0, kr, j0)
            del j0
            np.multiply(0.25j, s_full, out=s_full)
            s_full *= spj[None, :]
            s_diag = None
            if self.diagonal:                                # J_0(0) = 1
                s_diag = (-(0.25 / np.pi) * spj,
                          (0.25j - (np.log(0.5 * k * spj) + EULER_GAMMA) / (2.0 * np.pi)) * spj)
            blocks["S"] = self._split(s1, s_full, s_diag)
            del s1, s_full
        names = [name for name in ("K", "K'") if name in self.ops]
        if names:
            j1 = _sp_j1(kr)
            c_full = _hankel1(1, kr, j1)
            del kr
            c1 = np.multiply(0.25 * k / np.pi, j1, out=j1)
            c1 /= self.r
            np.multiply(-0.25j * k, c_full, out=c_full)
            c_full /= self.r
            *first, last = names
            for name in first:               # only when both K and K' are asked for
                b = self.normal[name]
                blocks[name] = self._split(c1 * b, c_full * b, self.dl_diag)
            c1 *= self.normal[last]
            c_full *= self.normal[last]
            blocks[last] = self._split(c1, c_full, self.dl_diag)
        return blocks


def _kernel_blocks(curve: BoundaryCurve, k: float, t_targets: np.ndarray,
                   pos_t: np.ndarray, tan_t: np.ndarray, diagonal: bool,
                   ops) -> dict[str, np.ndarray]:
    """One wavenumber's Nystrom blocks ``ops`` from a geometry built for it alone."""
    return NystromGeometry(curve, t_targets, pos_t, tan_t, diagonal, ops).blocks(k)


_REPRESENTATION = {
    ("exterior", "soft"): "combined-layer",
    ("exterior", "hard"): "single-layer",
    ("interior", "soft"): "double-layer",
    ("interior", "hard"): "single-layer",
}

# the boundary operators each (side, bc) system and its trace use
_OPERATORS = {
    ("exterior", "soft"): ("S", "K"),
    ("exterior", "hard"): ("K'",),
    ("interior", "soft"): ("K",),
    ("interior", "hard"): ("K'",),
}


def _operators(bc: str, side: str) -> tuple[str, ...]:
    if (side, bc) not in _OPERATORS:
        raise ValueError(f"unknown problem variant side={side!r} bc={bc!r}")
    return _OPERATORS[(side, bc)]


def boundary_geometry(curve: BoundaryCurve, bc: str, side: str) -> NystromGeometry:
    """The k-free Nystrom geometry of the (side, bc) boundary system on the
    curve nodes; pass it to ``simulate_ring`` or ``solve_densities`` to share
    it across wavenumbers."""
    return NystromGeometry(curve, curve.t, curve.points, curve.tangents, diagonal=True,
                           ops=_operators(bc, side))


def _system_matrix(curve: BoundaryCurve, bc: str, side: str, k: float,
                   geometry: NystromGeometry | None = None) -> np.ndarray:
    if geometry is None:
        geometry = boundary_geometry(curve, bc, side)
    else:
        geometry.check(curve, bc, side)
    ops = geometry.blocks(k)
    # +-I/2, then -i k S, in place: the order of the sum (I/2 + K) - i k S
    a = ops["K"] if bc == "soft" else ops["K'"]
    diagonal = np.einsum("ii->i", a)
    if (side, bc) in (("exterior", "soft"), ("interior", "hard")):
        diagonal += 0.5
    else:
        diagonal -= 0.5
    if "S" in ops:
        a -= np.multiply(1j * k, ops["S"], out=ops["S"])
    return a


@dataclass
class DensitySolution:
    """Solved boundary densities (one row per source) plus solve diagnostics."""

    density: np.ndarray          # (n_src, M) complex
    representation: str
    condition_estimate: float
    system_residual: float
    bc: str
    side: str
    k: float


def _rhs(curve: BoundaryCurve, bc: str, k: float, sources: SourceSet) -> np.ndarray:
    zs = sources.positions
    if bc == "soft":
        return -np.array([incident_field(curve.points, z, k) for z in zs])
    rows = []
    for z in zs:
        g = incident_gradient(curve.points, z, k)
        rows.append(-(g[:, 0] * curve.normals[:, 0] + g[:, 1] * curve.normals[:, 1]))
    return np.array(rows)


def _condition_estimate(a: np.ndarray, lu_piv) -> float:
    """LAPACK's 1-norm condition estimate from the LU factors; inf if singular."""
    anorm = float(np.abs(a).sum(axis=0).max())
    rcond, info = sla.lapack.zgecon(lu_piv[0], anorm, norm="1")
    if info != 0:
        raise RuntimeError(f"zgecon failed with info={info}")
    return math.inf if rcond == 0.0 else 1.0 / rcond


def solve_densities(curve: BoundaryCurve, bc: str, side: str, k: float,
                    sources: SourceSet, geometry: NystromGeometry | None = None
                    ) -> DensitySolution:
    """Assemble and solve the boundary system for every source at once.

    ``geometry`` is the curve's ``boundary_geometry`` for (bc, side), built
    here when not given; ValueError if it was built for anything else.
    """
    if bc not in ("soft", "hard"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    zs = sources.positions
    d = zs[:, None, :] - curve.points[None, :, :]
    if np.hypot(d[..., 0], d[..., 1]).min() < SOURCE_ON_BOUNDARY_TOL:
        raise GeometryError("a source lies on the boundary")
    inside = curve.contains(zs)
    if side == "exterior" and np.any(inside):
        raise GeometryError("exterior problem but a source is inside the scatterer")
    if side == "interior" and not np.all(inside):
        raise GeometryError("interior problem but a source is outside the cavity")

    a = _system_matrix(curve, bc, side, k, geometry)
    lu_piv = sla.lu_factor(a)
    cond = _condition_estimate(a, lu_piv)
    if cond > CONDITION_LIMIT:
        raise ResonanceError(
            f"boundary system condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e} "
            f"(k={k}, side={side}, bc={bc}); likely an irregular frequency")
    rhs = _rhs(curve, bc, k, sources)
    phi = sla.lu_solve(lu_piv, rhs.T).T
    res = np.linalg.norm(phi @ a.T - rhs, axis=1) / np.linalg.norm(rhs, axis=1)
    return DensitySolution(density=phi, representation=_REPRESENTATION[(side, bc)],
                           condition_estimate=cond, system_residual=float(res.max()),
                           bc=bc, side=side, k=k)


def evaluate_scattered(curve: BoundaryCurve, sol: DensitySolution, points) -> np.ndarray:
    """Layer-potential evaluation of u_s at points off the boundary; (n_src, P)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    y = curve.points
    nj = np.column_stack([curve.tangents[:, 1], -curve.tangents[:, 0]])
    d = pts[:, None, :] - y[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    kr = sol.k * r
    if sol.representation != "double-layer":
        s_ker = 0.25j * _hankel1(0, kr) * curve.speed[None, :]
    if sol.representation == "single-layer":
        g = s_ker
    else:
        d_ker = 0.25j * sol.k * _hankel1(1, kr) \
            * (d[..., 0] * nj[None, :, 0] + d[..., 1] * nj[None, :, 1]) / r
        g = d_ker if sol.representation == "double-layer" else d_ker - 1j * sol.k * s_ker
    h = 2.0 * np.pi / curve.n_nodes
    return h * (sol.density @ g.T)


def solve_forward(curve: BoundaryCurve, bc: str, side: str, k: float,
                  sources: SourceSet, eval_points,
                  geometry: NystromGeometry | None = None) -> np.ndarray:
    """Scattered field u_s(x; z_j) at eval points, one row per source."""
    sol = solve_densities(curve, bc, side, k, sources, geometry=geometry)
    return evaluate_scattered(curve, sol, eval_points)


def simulate_ring(curve: BoundaryCurve, bc: str, side: str, k: float,
                  sources: SourceSet, ring_radius: float, n_receivers: int,
                  center=(0.0, 0.0), geometry: NystromGeometry | None = None
                  ) -> RingMeasurement:
    """Clean scattered-field samples on an equispaced receiver circle.

    Pass the curve's ``boundary_geometry`` as ``geometry`` to reuse it
    across wavenumbers.
    """
    angles = 2.0 * np.pi * np.arange(n_receivers) / n_receivers
    pts = np.column_stack([center[0] + ring_radius * np.cos(angles),
                           center[1] + ring_radius * np.sin(angles)])
    inside = curve.contains(pts)
    if side == "exterior" and np.any(inside):
        raise GeometryError("exterior problem but a receiver is inside the scatterer")
    if side == "interior" and not np.all(inside):
        raise GeometryError("interior problem but a receiver is outside the cavity")
    samples = solve_forward(curve, bc, side, k, sources, pts, geometry)
    if not np.all(np.isfinite(samples)):
        raise RuntimeError("forward solve produced non-finite ring samples")
    return RingMeasurement(radius=float(ring_radius), angles=angles, k=float(k),
                           samples=samples, field_kind="scattered", noise_level=0.0,
                           side=side, sources=sources)


def _trig_interp(values: np.ndarray, t_star: np.ndarray) -> np.ndarray:
    mm = values.size
    c = np.fft.fft(values) / mm
    modes = np.where(np.arange(mm) < mm // 2, np.arange(mm), np.arange(mm) - mm)
    return np.exp(1j * np.outer(t_star, modes)) @ c


def boundary_residual(curve: BoundaryCurve, sol: DensitySolution, sources: SourceSet,
                      t_checkpoints) -> float:
    """Max relative residual of B(u_i + u_s) at off-node boundary parameters.

    The trace of the layer potential is evaluated with the same split-kernel
    quadrature at off-node targets, plus the jump term with a trigonometric
    interpolation of the density; the residual is scaled by the maximum of
    |B u_i| over the checkpoints.
    """
    t_star = np.atleast_1d(np.asarray(t_checkpoints, dtype=float))
    gap = np.abs((t_star[:, None] - curve.t[None, :] + np.pi) % (2 * np.pi) - np.pi)
    if gap.min() < 1e-10:
        raise ValueError("checkpoints must be off-node")
    pos = curve.position(t_star)
    tan = curve.derivative(t_star)
    rows = _kernel_blocks(curve, sol.k, t_star, pos, tan, diagonal=False,
                          ops=_OPERATORS[(sol.side, sol.bc)])
    phi_star = np.array([_trig_interp(p, t_star) for p in sol.density])

    worst = 0.0
    for i, z in enumerate(sources.positions):
        phi = sol.density[i]
        if sol.bc == "soft":
            ui = incident_field(pos, z, sol.k)
            if sol.representation == "combined-layer":
                trace = (rows["K"] - 1j * sol.k * rows["S"]) @ phi + 0.5 * phi_star[i]
            else:                       # interior double layer
                trace = rows["K"] @ phi - 0.5 * phi_star[i]
            resid = np.abs(ui + trace).max() / np.abs(ui).max()
        else:
            g = incident_gradient(pos, z, sol.k)
            nu = curve.normal(t_star)
            dn_ui = g[:, 0] * nu[:, 0] + g[:, 1] * nu[:, 1]
            jump = -0.5 if sol.side == "exterior" else 0.5
            trace = rows["K'"] @ phi + jump * phi_star[i]
            resid = np.abs(dn_ui + trace).max() / np.abs(dn_ui).max()
        worst = max(worst, float(resid))
    return worst


# ---------------------------------------------------------------------------
# Analytic circle oracle (separation of variables, in-house special functions)
# ---------------------------------------------------------------------------

def _oracle_arrays(n_hi: int, bc: str, side: str, k: float, a: float):
    """Per-order boundary coefficients: numerator and denominator factors."""
    ka = k * a
    if bc == "soft":
        num_a, den_a = cylfun.bessel_j_all(n_hi, ka), cylfun.hankel1_all(n_hi, ka)
    else:
        num_a = cylfun.derivative_all(cylfun.bessel_j_all(n_hi + 1, ka), ka, "J")
        den_a = cylfun.derivative_all(cylfun.hankel1_all(n_hi + 1, ka), ka, "H")
    if side == "interior":
        num_a, den_a = den_a, num_a
    return num_a, den_a


def analytic_circle(radius: float, bc: str, side: str, k: float, z, eval_points,
                    radial_derivative: bool = False, center=(0.0, 0.0)) -> np.ndarray:
    """Scattered field of a sound-soft/hard circle for one point source.

    Returns u_s at each eval point (``radial_derivative=True`` gives
    du_s/dr instead).  Exterior soft:

        u_s = -(i/4) sum_n [J_n(ka)/H_n(ka)] H_n(k r_x) H_n(k r_z) e^{i n (th_x - th_z)}

    with J'/H' ratios for the hard case and the reciprocal ratios with
    J_n radial factors for the interior problem.  The series is truncated
    once 8 consecutive terms fall below 1e-14 of the partial sum.
    """
    a = float(radius)
    if a <= 0.0:
        raise ValueError("radius must be positive")
    c = np.asarray(center, dtype=float)
    zz = np.asarray(z, dtype=float) - c
    rz = float(np.hypot(zz[0], zz[1]))
    if abs(rz - a) < SOURCE_ON_BOUNDARY_TOL:
        raise GeometryError("source on the circle")
    if side == "exterior" and rz < a:
        raise GeometryError("exterior oracle needs the source outside the circle")
    if side == "interior" and rz > a:
        raise GeometryError("interior oracle needs the source inside the circle")
    th_z = math.atan2(zz[1], zz[0])

    pts = np.atleast_2d(np.asarray(eval_points, dtype=float)) - c[None, :]
    rx = np.hypot(pts[:, 0], pts[:, 1])
    th_x = np.arctan2(pts[:, 1], pts[:, 0])
    if np.any(rx < 1e-12) and side == "exterior":
        raise GeometryError("exterior oracle evaluation at the origin")

    n_hi = min(_ORACLE_MAX_ORDER, max(40, int(k * max(rx.max(), rz, a)) + 30))
    while True:
        result = _circle_series_attempt(n_hi, a, bc, side, k, rz, th_z, rx, th_x,
                                        radial_derivative)
        if result is not None:
            return result
        if n_hi >= _ORACLE_MAX_ORDER:
            raise SeriesConvergenceError(
                f"circle series not converged by order {n_hi} (k={k}, side={side})")
        n_hi = min(_ORACLE_MAX_ORDER, 2 * n_hi)


def _circle_series_attempt(n_hi, a, bc, side, k, rz, th_z, rx, th_x, radial_derivative):
    num_a, den_a = _oracle_arrays(n_hi, bc, side, k, a)
    # A tiny denominator marks an eigenvalue collision only for n <= ka
    # (the first zero of J_n / J_n' lies above n).  Beyond that both the
    # denominator and the source factor are evanescent-small and their
    # ratio is well defined, so those modes are evaluated normally.
    degenerate = (np.abs(den_a) < 1e-12) & (np.arange(n_hi + 1) <= k * a)
    safe_den = np.where(den_a == 0.0, 1e-300, den_a)

    if side == "exterior":
        radial = cylfun.hankel1_all(n_hi + 1, k * rx)
        src = cylfun.hankel1_all(n_hi, k * rz)
    else:
        radial = cylfun.bessel_j_all(n_hi + 1, k * rx).astype(complex)
        src = cylfun.bessel_j_all(n_hi, k * rz).astype(complex)
    if radial_derivative:
        kind = "H" if side == "exterior" else "J"
        rad = k * cylfun.derivative_all(radial, k * rx, kind)
    else:
        rad = radial[:-1]

    d_th = th_x[None, :] - th_z
    ang = np.cos(np.arange(n_hi + 1)[:, None] * d_th) * 2.0
    ang[0] = 1.0

    # grouping (num_a * radial) * (src / den_a) keeps intermediates bounded
    terms = (num_a[:, None] * rad) * (src / safe_den)[:, None] * ang
    terms[degenerate] = 0.0          # poisoned anyway; reported below if needed
    mags = np.abs(terms).max(axis=1)
    partial = np.cumsum(terms, axis=0)
    psums = np.abs(partial).max(axis=1)

    run = 0
    n_stop = None
    for n in range(n_hi + 1):
        run = run + 1 if mags[n] <= _ORACLE_REL_TOL * max(psums[n], 1e-300) else 0
        if run >= _ORACLE_RUN:
            n_stop = n
            break
    if n_stop is None:
        return None
    if np.any(degenerate[: n_stop + 1]):
        bad = int(np.nonzero(degenerate[: n_stop + 1])[0][0])
        raise ModeDegeneracyError(
            f"mode n={bad} denominator below 1e-12 at ka={k * a:.6g} ({side} {bc})")
    return -0.25j * partial[n_stop]
