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

Assembly (``_operators``) goes block by block of rows: each block forms
its node distances (1 on the diagonal), makes its Bessel calls on them,
applies the per-distance factors and writes its rows of each operator,
F-ordered, factor (A1 W + h kernel).  Nothing of it outlives the solve,
and the curve is not touched.  A single-operator solve so holds 32 bytes
per node pair at its peak: the system matrix and the LU's copy of it.

All kernel assembly here is vectorized through scipy.special; the series
oracle below runs on the in-house cylinder-function module instead, so
the two routes share no special-function code.  The Hankel functions are
formed as H_n^(1) = J_n + i Y_n from the Cephes routines j0, j1, y0 and y1
rather than scipy.special.hankel1: hankel1 goes through AMOS, which on
large argument arrays costs several times the J and Y calls together,
and the kernels need J_0 and J_1 on their own anyway.  Only the operators
a representation uses are assembled.

``_FORMULATIONS`` holds the four rows above (representation, operators,
jump); the assembly, the system matrix and the layer-potential evaluation
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
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.special import j0 as _sp_j0
from scipy.special import j1 as _sp_j1
from scipy.special import y0 as _sp_y0
from scipy.special import y1 as _sp_y1

from . import cylfun
from .geometry import BoundaryCurve, RingMeasurement, SourceSet, _cross, ring_points

EULER_GAMMA = cylfun.EULER_GAMMA
CONDITION_LIMIT = 1e12
SOURCE_ON_BOUNDARY_TOL = 1e-9
ASSEMBLY_BLOCK = 1 << 16   # operator entries per block of _operators
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
# Incident field
# ---------------------------------------------------------------------------

def _hankel1(order: int, x: np.ndarray) -> np.ndarray:
    """H_order^(1)(x) = J_order(x) + i Y_order(x) for order 0 or 1."""
    j_fn, y_fn = (_sp_j0, _sp_y0) if order == 0 else (_sp_j1, _sp_y1)
    h = np.empty(x.shape, dtype=complex)
    h.real = j_fn(x)
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


def _operators(curve: BoundaryCurve, ops: tuple[str, ...], k: float) -> dict[str, np.ndarray]:
    """The blocks named in ``ops`` (S, K, K') at wavenumber k, mapping node
    densities to node values, each factor (A1 W + h full) with the diagonal
    limits on the diagonal, F-ordered.  A1 W + h full is exactly symmetric,
    so each block's transpose is built in C-ordered blocks of ASSEMBLY_BLOCK
    entries, straight from that block's node distances (1 on the diagonal),
    times the transposed factor, and returned as ``.T``."""
    mm, spj = curve.n_nodes, curve.speed
    h = 2.0 * np.pi / mm
    weight = _weight_circulant(mm)
    x0, x1 = curve.points.T
    nu = np.stack([curve.tangents[:, 1], -curve.tangents[:, 0]])    # nu |x'|
    dl_diag = (0.0, -_cross(curve.tangents, curve.seconds) / (4.0 * np.pi * spj**2))
    diags = {"S": (-(0.25 / np.pi) * spj,                               # J_0(0) = 1
                   (0.25j - (np.log(0.5 * k * spj) + EULER_GAMMA) / (2.0 * np.pi)) * spj),
             "K": dl_diag, "K'": dl_diag}
    out = {name: np.empty((mm, mm), dtype=complex) for name in ops}
    step = max(1, ASSEMBLY_BLOCK // mm)
    for lo in range(0, mm, step):
        rows = slice(lo, lo + step)
        # entry (i, j) here sits at (t, tau) = (t_j, t_i)
        dx, dy = x0 - x0[rows, None], x1 - x1[rows, None]          # x(t) - x(tau)
        r = np.hypot(dx, dy)
        np.fill_diagonal(r[:, lo:], 1.0)
        kr = k * r
        for name in ops:
            block = out[name][rows]
            j_fn, y_fn = (_sp_j0, _sp_y0) if name == "S" else (_sp_j1, _sp_y1)
            a1 = j_fn(kr)                                 # J_n, then A1
            block.real = a1
            y_fn(kr, out=block.imag)
            if name == "S":
                np.multiply(-(0.25 / np.pi), a1, out=a1)
                np.multiply(0.25j, block, out=block)
            else:
                np.multiply(0.25 * k / np.pi, a1, out=a1)
                a1 /= r
                np.multiply(-0.25j * k, block, out=block)
                block /= r
            block *= h
            a1 *= weight[rows]
            block.real += a1
            del a1
            if name == "S":
                block *= spj[rows, None]
                continue
            # K: nu(tau) . (x(tau) - x(t)) = -(n_tau . dx);  K': nu(t) . dx |x'(tau)|/|x'(t)|.
            # In place: K or K' is the last operator of ``ops``.
            n = nu[:, rows, None] if name == "K" else nu
            dx *= n[0]
            dy *= n[1]
            dx += dy
            dx *= -1.0 if name == "K" else np.divide(spj[rows, None], spj, out=dy)
            block *= dx
        del dx, dy, r, kr       # before the next block's are formed
    for name, a in out.items():
        diag = diags[name]
        np.fill_diagonal(a, h * diag[1] + weight[0, 0] * diag[0])
    return {name: a.T for name, a in out.items()}


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
    blocks = _operators(curve, ops, k)
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
    d = pts[:, None, :] - y[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    kr = sol.k * r
    if sol.representation != "double-layer":
        s_ker = 0.25j * _hankel1(0, kr) * curve.speed[None, :]
    if sol.representation == "single-layer":
        g = s_ker
    else:
        d_ker = 0.25j * sol.k * _hankel1(1, kr) * _cross(d, curve.tangents) / r   # d . nu |x'|
        g = d_ker if sol.representation == "double-layer" else d_ker - 1j * sol.k * s_ker
    h = 2.0 * np.pi / curve.n_nodes
    return h * _gemm(sol.density, g.T)


def reciprocity_error(curve: BoundaryCurve, sol: DensitySolution, sources: SourceSet) -> float:
    """Oracle-free estimate of the forward error from reciprocity,
    u_s(x; z) = u_s(z; x) (Colton & Kress): max |U - U^T| / max |U| for the
    S x S fields U of every source at every source position; nan for one
    source, which has no pair.  It under-reads where symmetry makes U
    symmetric whatever the error (a circle with equispaced sources), which
    ``density_tail`` catches."""
    if sources.count < 2:
        return math.nan
    u = evaluate_scattered(curve, sol, sources.positions)
    return float(np.abs(u - u.T).max() / np.abs(u).max())


def density_tail(sol: DensitySolution) -> float:
    """Largest ratio, over sources, of the density's largest Fourier mode
    with |n| >= M/4 to its largest mode: near 1 when the M nodes do not
    resolve the density, exponentially small on an analytic curve when
    they do."""
    mags = np.abs(np.fft.fft(sol.density, axis=1))
    m = mags.shape[1]
    q = (m + 3) // 4
    return float((mags[:, q:m - q + 1].max(axis=1) / mags.max(axis=1)).max())


def simulate_ring(curve: BoundaryCurve, bc: str, side: str, k: float, sources: SourceSet,
                  ring_radius: float, n_receivers: int,
                  sol: DensitySolution | None = None) -> RingMeasurement:
    """Clean scattered-field samples on an equispaced receiver circle about
    the origin, with the solve's ``reciprocity_error``.  ``sol``, when given,
    is that (curve, bc, side, k, sources) solve, already made."""
    pts = ring_points(ring_radius, n_receivers)
    _check_placement(curve, side, pts, "receiver")
    if sol is None:
        sol = solve_densities(curve, bc, side, k, sources)
    samples = evaluate_scattered(curve, sol, pts)
    if not np.all(np.isfinite(samples)):
        raise RuntimeError("forward solve produced non-finite ring samples")
    return RingMeasurement(radius=float(ring_radius), k=float(k), samples=samples,
                           noise_level=0.0, side=side, sources=sources,
                           reciprocity=reciprocity_error(curve, sol, sources))


# ---------------------------------------------------------------------------
# Analytic circle oracle (separation of variables, in-house special functions)
# ---------------------------------------------------------------------------

def _oracle_arrays(n_hi: int, bc: str, side: str, k: float, a: float):
    """Per-order boundary factors (numerator, denominator) from one Miller
    pass: (J_n(ka), H_n(ka)) exterior soft, their derivatives exterior hard,
    and the reverse pairs interior."""
    ka = k * a
    j, y = cylfun.bessel_j_all(n_hi + (bc == "hard"), ka, with_y=True)
    factors = (j, j + 1j * y)
    if bc == "hard":
        factors = tuple(cylfun.derivative_all(f, ka) for f in factors)
    return factors if side == "exterior" else factors[::-1]


def analytic_circle(radius: float, bc: str, side: str, k: float, z,
                    eval_points) -> np.ndarray:
    """Scattered field of a sound-soft/hard circle about the origin for one point source.

    Returns u_s at each eval point.  Exterior soft:

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
        result = _circle_series_attempt(n_hi, a, bc, side, k, rz, th_z, rx, th_x)
        if result is not None:
            return result
        if n_hi >= _ORACLE_MAX_ORDER:
            raise SeriesConvergenceError(
                f"circle series not converged by order {n_hi} (k={k}, side={side})")
        n_hi = min(_ORACLE_MAX_ORDER, 2 * n_hi)


def _circle_series_attempt(n_hi, a, bc, side, k, rz, th_z, rx, th_x):
    num_a, den_a = _oracle_arrays(n_hi, bc, side, k, a)
    # A tiny denominator marks an eigenvalue collision only for n <= ka
    # (the first zero of J_n / J_n' lies above n).  Beyond that both the
    # denominator and the source factor are evanescent-small and their
    # ratio is well defined, so those modes are evaluated normally.
    degenerate = (np.abs(den_a) < 1e-12) & (np.arange(n_hi + 1) <= k * a)
    safe_den = np.where(den_a == 0.0, 1e-300, den_a)

    cyl = cylfun.hankel1_all if side == "exterior" else cylfun.bessel_j_all
    radial, src = cyl(n_hi, k * rx), cyl(n_hi, k * rz)

    d_th = th_x[None, :] - th_z
    ang = np.cos(np.arange(n_hi + 1)[:, None] * d_th) * 2.0
    ang[0] = 1.0

    # grouping (num_a * radial) * (src / den_a) keeps intermediates bounded
    terms = (num_a[:, None] * radial) * (src / safe_den)[:, None] * ang
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
