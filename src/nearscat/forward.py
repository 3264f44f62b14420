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
on analytic curves.  With h = 2 pi / M, R_{|i-j|} A1 + h A2 = A1 W + h kernel
off the diagonal, for one k-free circulant weight
W_ij = R_{|i-j|} - h ln(4 sin^2(pi (i - j)/M)); on it, W_ii = R_0 and the
entries take the limits h A2_ii + R_0 A1_ii.

Assembly comes in two parts.  A ``NystromGeometry`` holds everything that
does not depend on k (distances, W, the node vectors of the system's K
or K') and is built on the nodes when a boundary system is first solved
on a curve.  The curve keeps it (``BoundaryCurve.nystrom``) until a system
with other operators is solved on it, so every wavenumber solved on one
curve shares it.  It stores the node distances as their sorted distinct
values plus each entry's index among them: |x_i - x_j| is symmetric, and
a symmetric or rotation-invariant curve repeats most distances (6835
distinct among the 1024^2 of a 1024-node circle).  That index, in a
memory mapping of its own, is its one M x M array.  Its per-k pass
``blocks(k)`` makes the Bessel calls and applies every per-distance factor
on the distinct values only, then forms each operator F-ordered, block by
block of rows, in one gather-multiply-add, factor (A1 W + h kernel).  A
single-operator solve so holds 40 bytes per node pair at its peak: the
index, the system matrix and the LU's copy of it.

All kernel assembly here is vectorized through scipy.special; the series
oracle below runs on the in-house cylinder-function module instead, so
the two routes share no special-function code.  The Hankel functions are
formed as H_n^(1) = J_n + i Y_n from the Cephes routines j0, j1, y0 and y1
rather than scipy.special.hankel1: hankel1 goes through AMOS, which on
large argument arrays costs several times the J and Y calls together,
and the kernels need J_0 and J_1 on their own anyway.  Only the operators
a representation uses are assembled.

``_FORMULATIONS`` holds the four rows above (representation, operators,
jump); the geometry, the system matrix and the layer-potential evaluation
all take them from there.

Every dense product of the package goes through ``_gemm`` on scipy's
BLAS, never through ``@``.  The numpy and scipy wheels each bundle an
OpenBLAS with its own thread pool, whose workers busy-wait for a while
after each threaded call.  The LU already wakes scipy's pool; a ``@``
would wake numpy's too, and its spinning workers would take CPU from the
single-threaded numpy code between the products.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.special import j0 as _sp_j0
from scipy.special import j1 as _sp_j1
from scipy.special import y0 as _sp_y0
from scipy.special import y1 as _sp_y1

from . import cylfun
from .geometry import BoundaryCurve, equispaced_angles

EULER_GAMMA = cylfun.EULER_GAMMA
CONDITION_LIMIT = 1e12
SOURCE_ON_BOUNDARY_TOL = 1e-9
ASSEMBLY_BLOCK = 1 << 16   # operator entries per block of NystromGeometry._operator
_ORACLE_REL_TOL = 1e-14
_ORACLE_RUN = 8          # consecutive negligible terms required
_ORACLE_MAX_ORDER = 180


class GeometryError(ValueError):
    """Sources/receivers on the wrong side of the boundary or on it."""


class SingularityError(ValueError):
    """Field evaluation requested at (or too close to) the source point."""


class ResonanceError(ValueError):
    """Boundary system too ill-conditioned (representation breakdown)."""


class ModeDegeneracyError(ValueError):
    """Circle oracle hit an interior eigenvalue: a mode denominator vanished."""


class SeriesConvergenceError(ValueError):
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

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("need at least one source")
        if self.radius <= 0.0:
            raise ValueError("source circle radius must be positive")

    @property
    def angles(self) -> np.ndarray:
        return equispaced_angles(self.count)

    @property
    def positions(self) -> np.ndarray:
        a = self.angles
        return np.column_stack([self.center[0] + self.radius * np.cos(a),
                                self.center[1] + self.radius * np.sin(a)])


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
        a = self.angles
        return np.column_stack([self.radius * np.cos(a), self.radius * np.sin(a)])


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


def _gemm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for complex matrices, on scipy's BLAS (see the module docstring).

    Row-major x y is column-major y^T x^T.  Each operand goes in as an
    F-contiguous view (its transpose, or itself with BLAS transposing it),
    so that f2py copies neither: the residual's M x M ``a.T`` stays a view.
    """
    a, trans_a = (y, 1) if y.flags.f_contiguous else (y.T, 0)
    b, trans_b = (x, 1) if x.flags.f_contiguous else (x.T, 0)
    return sla.blas.zgemm(1.0, a, b, trans_a=trans_a, trans_b=trans_b).T


def _diff_to_source(x: np.ndarray, z: np.ndarray):
    d = x - z
    r = np.hypot(d[:, 0], d[:, 1])
    if np.any(r < SOURCE_ON_BOUNDARY_TOL):
        raise SingularityError("evaluation point coincides with a source")
    return d, r


def incident_field(x: np.ndarray, z: np.ndarray, k: float) -> np.ndarray:
    """Point-source incident field (i/4) H_0^(1)(k|x-z|) at (P, 2) points; (P,)."""
    _, r = _diff_to_source(x, z)
    return 0.25j * _hankel1(0, k * r)


def incident_gradient(x: np.ndarray, z: np.ndarray, k: float) -> np.ndarray:
    """grad_x u_i = -(i k/4) H_1^(1)(k|x-z|) (x-z)/|x-z| at (P, 2) points; (P, 2)."""
    d, r = _diff_to_source(x, z)
    fac = -0.25j * k * _hankel1(1, k * r) / r
    return fac[:, None] * d


# ---------------------------------------------------------------------------
# Nystrom discretization
# ---------------------------------------------------------------------------

def _weight_circulant(m_nodes: int) -> np.ndarray:
    """W of the module docstring as a read-only (M, M) view of 2M - 1
    values.  With M = 2n, R_d = -(2 pi/n) sum_{m<n} cos(2 pi m d/M)/m
    - (pi/n^2) (-1)^d: one real FFT of 1/m for d = 0..n, mirrored to
    w_{M-d} = w_d, so row i is row 0 rolled by i, a sliding window over
    two periods of row 0."""
    n = m_nodes // 2
    inv_m = np.zeros(m_nodes)
    inv_m[1:n] = 1.0 / np.arange(1, n)
    d = np.arange(n + 1)
    half = -(2.0 * np.pi / n) * np.fft.rfft(inv_m).real - (np.pi / n**2) * (1 - 2 * (d % 2))
    half[1:] -= (2.0 * np.pi / m_nodes) * np.log(4.0 * np.sin(np.pi * d[1:] / m_nodes) ** 2)
    row = np.concatenate((half, half[n - 1:0:-1]))
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((row[1:], row)), m_nodes)
    return windows[::-1]


def _mapped_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array in an anonymous memory mapping of its
    own, unmapped when the array and its views are gone.

    The Nystrom geometry's M x M index lives in one of these rather than
    on the malloc heap.  It outlives every per-k temporary of the same
    size; on the heap, whether the blocks freed around it were reused or
    stayed resident beside new ones depended on where small objects
    happened to sit, and peak memory moved by one M x M complex block
    from run to run.
    """
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count, 1) * np.dtype(float).itemsize)
    return np.frombuffer(buf, dtype=float, count=count).reshape(shape)


def _distinct_distances(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of the symmetric (M, M) array ``r`` and
    each entry's index among them, an intp array written over ``r``.

    Only the upper triangle is sorted, which holds every value because
    |x_i - x_j| is exactly symmetric in IEEE arithmetic.  Beside ``r`` this
    holds the triangle, its permutation and its sorted copy; the indices
    go into the sorted copy's memory, then the triangle's, then ``r``'s.
    (``np.unique(r, return_inverse=True)`` would hold a flat copy, a
    permutation, the sorted copy, a mask, its cumsum and the inverse.)
    """
    upper = ~np.tri(*r.shape, k=-1, dtype=bool)
    tri = r[upper]
    order = np.argsort(tri)
    srt = tri[order]
    new = np.empty(srt.size, dtype=bool)
    new[0] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    radii = srt[new]
    new[0] = False               # a sorted value's index: the new values before it
    ids = np.cumsum(new, dtype=np.intp, out=srt.view(np.intp))
    del new
    tri = tri.view(np.intp)
    tri[order] = ids
    del order, ids, srt
    inverse = r.view(np.intp)
    inverse[upper] = tri
    inverse.T[upper] = tri
    return radii, inverse


class NystromGeometry:
    """The k-free part of the (side, bc) boundary system's Nystrom blocks on
    the curve nodes: the distances |x(t) - x(tau)| (1 on the diagonal) as
    their sorted distinct values ``radii`` and each entry's index among them
    ``inverse`` (a ``_mapped_empty`` block), the circulant weight W
    (``weight``, a read-only view, see the module docstring), the
    double-layer diagonal limits, and the (2, M) node points and normals
    nu |x'| of the normal product of its K or K'.  ``blocks(k)`` adds one
    wavenumber's Bessel part, evaluated on ``radii``.  It depends on the
    system only through its operators ``ops`` and holds no reference to the
    curve, so the curve holds it without forming a cycle."""

    def __init__(self, curve: BoundaryCurve, bc: str, side: str):
        mm = curve.n_nodes
        self.ops = _formulation(bc, side)[1]
        self.n_nodes = mm
        self.speed = curve.speed
        tg, sc = curve.tangents, curve.seconds
        w = tg[:, 0] * sc[:, 1] - tg[:, 1] * sc[:, 0]
        self.dl_diag = (0.0, -w / (4.0 * np.pi * self.speed**2))
        self.points = np.ascontiguousarray(curve.points.T)
        self.scaled_normals = np.stack([tg[:, 1], -tg[:, 0]])
        (x0, x1), r = self.points, _mapped_empty((mm, mm))
        np.hypot(x0[:, None] - x0, x1[:, None] - x1, out=r)
        np.fill_diagonal(r, 1.0)
        self.radii, self.inverse = _distinct_distances(r)
        self.weight = _weight_circulant(mm)

    def _operator(self, name: str, a1_table: np.ndarray, h_full_table: np.ndarray,
                  diag) -> np.ndarray:
        """Operator ``name``, factor (A1 W + h full), A1 and h full gathered
        from their tables on ``radii``, with the diagonal limits ``diag`` =
        (A1_ii, A2_ii), F-ordered.  A1 W + h full is exactly symmetric, so its
        transpose is built in C-ordered blocks of ASSEMBLY_BLOCK entries,
        times the transposed factor, and returned as ``.T``.  ``take`` with
        ``mode="clip"`` (``inverse`` is in range) does not buffer ``out``."""
        mm, (x0, x1), nu = self.n_nodes, self.points, self.scaled_normals
        out = np.empty((mm, mm), dtype=complex)
        step = max(1, ASSEMBLY_BLOCK // mm)
        scratch = np.empty((2, min(step, mm), mm))
        for lo in range(0, mm, step):
            rows = slice(lo, lo + step)
            block, index = out[rows], self.inverse[rows]
            fx, fy = scratch[:, :block.shape[0]]
            h_full_table.take(index, out=block, mode="clip")
            a1_table.take(index, out=fx, mode="clip")
            fx *= self.weight[rows]
            block.real += fx
            if name == "S":
                block *= self.speed[rows, None]
                continue
            # entry (i, j) here sits at (t, tau) = (t_j, t_i).  K: nu(tau) .
            # (x(tau) - x(t)) = -(n_tau . dx);  K': nu(t) . dx |x'(tau)|/|x'(t)|
            np.subtract(x0, x0[rows, None], out=fx)          # dx = x(t) - x(tau)
            np.subtract(x1, x1[rows, None], out=fy)
            n = nu[:, rows, None] if name == "K" else nu
            fx *= n[0]
            fy *= n[1]
            fx += fy
            fx *= -1.0 if name == "K" else np.divide(self.speed[rows, None], self.speed, out=fy)
            block *= fx
        np.fill_diagonal(out, 2.0 * np.pi / mm * diag[1] + self.weight[0, 0] * diag[0])
        return out.T

    def blocks(self, k: float) -> dict[str, np.ndarray]:
        """The blocks named in ``ops`` at wavenumber k, mapping node densities
        to node values.  Every per-distance factor, h included, is applied
        on the distinct distances ``radii`` before the gather."""
        h = 2.0 * np.pi / self.n_nodes
        spj = self.speed
        kr = k * self.radii
        blocks = {}
        if "S" in self.ops:
            s1 = _sp_j0(kr)                              # J_0, then A1's table
            s_full = _hankel1(0, kr, s1)
            np.multiply(-(0.25 / np.pi), s1, out=s1)
            np.multiply(0.25j, s_full, out=s_full)
            s_full *= h
            s_diag = (-(0.25 / np.pi) * spj,                 # J_0(0) = 1
                      (0.25j - (np.log(0.5 * k * spj) + EULER_GAMMA) / (2.0 * np.pi)) * spj)
            blocks["S"] = self._operator("S", s1, s_full, s_diag)
            del s1, s_full
        c1 = _sp_j1(kr)                                  # J_1, then A1's table
        c_full = _hankel1(1, kr, c1)
        del kr
        np.multiply(0.25 * k / np.pi, c1, out=c1)
        c1 /= self.radii
        np.multiply(-0.25j * k, c_full, out=c_full)
        c_full /= self.radii
        c_full *= h
        blocks[self.ops[-1]] = self._operator(self.ops[-1], c1, c_full, self.dl_diag)
        return blocks


# (side, bc) -> (representation, boundary operators, jump).  The last
# operator is the main one (K or K'): the boundary system is  main + jump I,
# less i k S when "S" is listed, and the trace of the representation on the
# boundary is that same operator applied to the density.
_FORMULATIONS = {
    ("exterior", "soft"): ("combined-layer", ("S", "K"), 0.5),
    ("exterior", "hard"): ("single-layer", ("K'",), -0.5),
    ("interior", "soft"): ("double-layer", ("K",), -0.5),
    ("interior", "hard"): ("single-layer", ("K'",), 0.5),
}


def _formulation(bc: str, side: str) -> tuple[str, tuple[str, ...], float]:
    if (side, bc) not in _FORMULATIONS:
        raise ValueError(f"unknown problem variant side={side!r} bc={bc!r}")
    return _FORMULATIONS[(side, bc)]


def _system_matrix(curve: BoundaryCurve, bc: str, side: str, k: float) -> np.ndarray:
    _, ops, jump = _formulation(bc, side)
    if curve.nystrom is None or curve.nystrom.ops != ops:
        curve.nystrom = NystromGeometry(curve, bc, side)
    blocks = curve.nystrom.blocks(k)
    # jump I, then -i k S, in place: the order of the sum (I/2 + K) - i k S
    a = blocks[ops[-1]]
    np.einsum("ii->i", a)[:] += jump
    if "S" in blocks:
        a -= np.multiply(1j * k, blocks["S"], out=blocks["S"])
    return a


@dataclass
class DensitySolution:
    """Solved boundary densities (one row per source) plus solve diagnostics."""

    density: np.ndarray          # (n_src, M) complex
    representation: str
    condition_estimate: float
    system_residual: float
    k: float


def _boundary_data(bc: str, k: float, sources: SourceSet, points: np.ndarray,
                   normals: np.ndarray) -> np.ndarray:
    """u_i (soft) or du_i/dnu (hard) of every source at the boundary points;
    (n_src, P)."""
    zs = sources.positions
    if bc == "soft":
        return np.array([incident_field(points, z, k) for z in zs])
    grads = [incident_gradient(points, z, k) for z in zs]
    return np.array([g[:, 0] * normals[:, 0] + g[:, 1] * normals[:, 1] for g in grads])


def _condition_estimate(a: np.ndarray, lu_piv) -> float:
    """LAPACK's 1-norm condition estimate from the LU factors; inf if singular.
    The norm is taken over blocks of the F-ordered columns of ``a``, so no
    M x M |a| is formed."""
    step = max(1, ASSEMBLY_BLOCK // a.shape[0])
    anorm = max(float(np.abs(a[:, lo:lo + step]).sum(axis=0).max())
                for lo in range(0, a.shape[1], step))
    rcond, info = sla.lapack.zgecon(lu_piv[0], anorm, norm="1")
    if info != 0:
        raise RuntimeError(f"zgecon failed with info={info}")
    return math.inf if rcond == 0.0 else 1.0 / rcond


def _check_placement(curve: BoundaryCurve, side: str, points: np.ndarray, what: str) -> None:
    """GeometryError unless every point lies farther than SOURCE_ON_BOUNDARY_TOL
    from each curve node and on the problem's side of the curve."""
    dx = points[:, None, 0] - curve.points[None, :, 0]
    dy = points[:, None, 1] - curve.points[None, :, 1]
    dx *= dx                     # squared distances in place: hypot and its (P, M)
    dx += np.square(dy, out=dy)  # temporaries took 3 ms more per k at P = 128, M = 1024
    if dx.min() < SOURCE_ON_BOUNDARY_TOL ** 2:
        raise GeometryError(f"a {what} lies on the boundary")
    inside = curve.contains(points)
    if side == "exterior" and np.any(inside):
        raise GeometryError(f"exterior problem but a {what} is inside the scatterer")
    if side == "interior" and not np.all(inside):
        raise GeometryError(f"interior problem but a {what} is outside the cavity")


def solve_densities(curve: BoundaryCurve, bc: str, side: str, k: float,
                    sources: SourceSet) -> DensitySolution:
    """Assemble and solve the boundary system for every source at once."""
    representation = _formulation(bc, side)[0]
    _check_placement(curve, side, sources.positions, "source")

    a = _system_matrix(curve, bc, side, k)
    lu_piv = sla.lu_factor(a)
    cond = _condition_estimate(a, lu_piv)
    if cond > CONDITION_LIMIT:
        raise ResonanceError(
            f"boundary system condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e} "
            f"(k={k}, side={side}, bc={bc}); likely an irregular frequency")
    rhs = -_boundary_data(bc, k, sources, curve.points, curve.normals)
    phi = sla.lu_solve(lu_piv, rhs.T).T
    res = np.linalg.norm(_gemm(phi, a.T) - rhs, axis=1) / np.linalg.norm(rhs, axis=1)
    return DensitySolution(density=phi, representation=representation,
                           condition_estimate=cond, system_residual=float(res.max()), k=k)


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
    return h * _gemm(sol.density, g.T)


def simulate_ring(curve: BoundaryCurve, bc: str, side: str, k: float,
                  sources: SourceSet, ring_radius: float, n_receivers: int) -> RingMeasurement:
    """Clean scattered-field samples on an equispaced receiver circle about the origin."""
    angles = equispaced_angles(n_receivers)
    pts = np.column_stack([ring_radius * np.cos(angles), ring_radius * np.sin(angles)])
    _check_placement(curve, side, pts, "receiver")
    sol = solve_densities(curve, bc, side, k, sources)
    samples = evaluate_scattered(curve, sol, pts)
    if not np.all(np.isfinite(samples)):
        raise RuntimeError("forward solve produced non-finite ring samples")
    return RingMeasurement(radius=float(ring_radius), k=float(k), samples=samples,
                           noise_level=0.0, side=side, sources=sources)


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
                    radial_derivative: bool = False) -> np.ndarray:
    """Scattered field of a sound-soft/hard circle about the origin for one point source.

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
    zz = np.asarray(z, dtype=float)
    rz = float(np.hypot(zz[0], zz[1]))
    if abs(rz - a) < SOURCE_ON_BOUNDARY_TOL:
        raise GeometryError("source on the circle")
    if side == "exterior" and rz < a:
        raise GeometryError("exterior oracle needs the source outside the circle")
    if side == "interior" and rz > a:
        raise GeometryError("interior oracle needs the source inside the circle")
    th_z = math.atan2(zz[1], zz[0])

    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
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
