import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nearscat import continuation as ct
from nearscat import cylfun as cf
from nearscat import forward as fw
from nearscat.forward import _gemm
from nearscat.geometry import imaging_grid

from oracle_series import FIRST_J0_ZERO


def _ring(samples, radius=2.2, k=3.0, side="exterior", n_src=1):
    samples = np.atleast_2d(samples)
    sources = fw.SourceSet(center=(0.0, 0.0), radius=radius, count=n_src)
    return fw.RingMeasurement(radius=radius, k=k, samples=samples,
                              noise_level=0.0, side=side, sources=sources)


def _field(co, r, theta):
    """``eval_field`` at the (P,) polar points (r, theta), on tables built from r."""
    return ct.eval_field(co, theta, ct.radial_tables(co, r))


def _gradient(co, r, theta):
    """``eval_gradient`` at the (P,) polar points (r, theta), on tables built from r."""
    return ct.eval_gradient(co, theta, ct.radial_tables(co, r))


def _at(fn, co, r, theta):
    """``fn`` (_field or _gradient) at the one polar point (r, theta)."""
    return fn(co, np.array([r]), np.array([theta]))[..., 0]


class TestTruncationOrder:
    def test_paper_rule_values(self):
        assert ct.truncation_order(0.05, "exterior") == 3
        assert ct.truncation_order(0.02, "interior") == 6
        assert ct.truncation_order(0.02, "exterior") == 4

    def test_domain(self):
        with pytest.raises(ValueError):
            ct.truncation_order(0.0, "exterior")
        with pytest.raises(ValueError):
            ct.truncation_order(1.5, "exterior")
        with pytest.raises(ValueError):
            ct.truncation_order(0.1, "sideways")


class TestComputeCoefficients:
    def test_band_limited_mode(self):
        th = 2 * np.pi * np.arange(64) / 64
        co = ct.compute_coefficients(_ring(np.exp(2j * th)), 3)
        assert co.values[0, co.truncation + 2] == pytest.approx(1.0, abs=1e-14)
        rest = np.delete(co.values[0], co.truncation + 2)
        assert np.abs(rest).max() < 1e-14

    def test_coefficient_layout(self):
        # one row per source, columns n = -N..N, nothing excluded off the interior
        th = 2 * np.pi * np.arange(16) / 16
        ring = _ring(np.exp(1j * th)[None, :].repeat(2, axis=0), n_src=2)
        co = ct.compute_coefficients(ring, 2)
        assert co.values.shape == (2, 5)
        assert co.orders.tolist() == [-2, -1, 0, 1, 2]
        assert not co.excluded.any() and co.excluded_orders == []
        assert co.values[:, 3] == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_constant_input(self):
        co = ct.compute_coefficients(_ring(np.full(32, 2.5 + 1.0j)), 4)
        assert co.values[0, co.truncation] == pytest.approx(2.5 + 1.0j, abs=1e-14)
        rest = np.delete(co.values[0], co.truncation)
        assert np.abs(rest).max() < 1e-14

    def test_partial_sums_reconstruct_ring(self, oracle_ring_single_source):
        ring = oracle_ring_single_source
        norm = np.sqrt(np.mean(np.abs(ring.samples[0]) ** 2))
        prev = np.inf
        for n in (2, 4, 6, 8):
            co = ct.compute_coefficients(ring, n)
            recon = _field(co, np.full(128, ring.radius), ring.angles)[0]
            err = np.sqrt(np.mean(np.abs(recon - ring.samples[0]) ** 2)) / norm
            assert err < prev
            prev = err
        assert prev < 1e-3

    def test_nyquist_violation(self):
        with pytest.raises(ValueError):
            ct.compute_coefficients(_ring(np.ones(16, complex)), 8)

    def test_negative_truncation(self):
        # a named error, not numpy's "negative dimensions are not allowed"
        with pytest.raises(ValueError, match="truncation must be >= 0, got -1"):
            ct.compute_coefficients(_ring(np.ones(16, complex)), -1)


class TestEvalField:
    def test_anchor_identity(self, oracle_ring_single_source):
        ring = oracle_ring_single_source
        co = ct.compute_coefficients(ring, 5)
        theta = ring.angles[11]
        got = _at(_field, co, ring.radius, theta)[0]
        partial = sum(co.values[0, co.truncation + n] * np.exp(1j * n * theta)
                      for n in range(-5, 6))
        assert got == pytest.approx(partial, abs=1e-12)

    def test_continued_value_matches_oracle(self, oracle_ring_single_source):
        ring = oracle_ring_single_source
        co = ct.compute_coefficients(ring, 10)
        got = _at(_field, co, 1.4, 0.0)[0]
        ref = fw.analytic_circle(1.0, "soft", "exterior", 3.0, np.array([2.2, 0.0]),
                                 np.array([[1.4, 0.0]]))[0]
        assert abs(got - ref) / abs(ref) < 1e-3

    def test_linearity(self, oracle_ring_single_source):
        ring = oracle_ring_single_source
        u1 = ring.samples[0]
        u2 = np.exp(3j * ring.angles) * 0.7
        both = ct.compute_coefficients(
            replace(ring, samples=(u1 + u2)[None, :], noise_level=0.0), 6)
        a = ct.compute_coefficients(replace(ring, samples=u1[None, :], noise_level=0.0), 6)
        b = ct.compute_coefficients(replace(ring, samples=u2[None, :], noise_level=0.0), 6)
        r, th = 1.7, 0.9
        got = _at(_field, both, r, th)[0]
        want = _at(_field, a, r, th)[0] + _at(_field, b, r, th)[0]
        assert got == pytest.approx(want, abs=1e-13)

    def test_radius_floor(self, oracle_ring_single_source):
        co = ct.compute_coefficients(oracle_ring_single_source, 3)
        with pytest.raises(ValueError):
            ct.radial_tables(co, np.array([1e-13]))


class TestEvalGradient:
    def test_finite_difference(self, oracle_ring_single_source):
        co = ct.compute_coefficients(oracle_ring_single_source, 10)
        r0, t0 = 1.3, 0.7
        x0, y0 = r0 * np.cos(t0), r0 * np.sin(t0)
        h = 1e-6

        def field(x, y):
            return _at(_field, co, np.hypot(x, y), np.arctan2(y, x))[0]

        g = _at(_gradient, co, r0, t0)[0]
        fx = (field(x0 + h, y0) - field(x0 - h, y0)) / (2 * h)
        fy = (field(x0, y0 + h) - field(x0, y0 - h)) / (2 * h)
        scale = np.hypot(abs(fx), abs(fy))
        assert abs(g[0] - fx) / scale < 1e-6
        assert abs(g[1] - fy) / scale < 1e-6

    def test_axisymmetric_gradient_is_radial(self):
        ring = _ring(np.full(32, 1.7 - 0.4j))       # only n = 0 survives
        co = ct.compute_coefficients(ring, 0)
        for theta in (0.0, 1.1, 4.0):
            g = _at(_gradient, co, 1.5, theta)[0]
            tangential = -g[0] * np.sin(theta) + g[1] * np.cos(theta)
            assert abs(tangential) < 1e-13 * max(abs(g[0]), abs(g[1]))

    def test_hard_circle_neumann_trace(self, unit_circle_512):
        # clean hard-exterior data: grad(u_N + u_i) . nu should be small on
        # the boundary (relative to the gradient size) at N = 12
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
        ring = fw.simulate_ring(unit_circle_512, "hard", "exterior", 3.0, sources,
                                2.2, 128)
        co = ct.compute_coefficients(ring, 12)
        th = 2 * np.pi * np.arange(64) / 64
        pts = np.column_stack([np.cos(th), np.sin(th)])
        g = _gradient(co, np.ones(64), th)[0]
        g[0] += fw.incident_gradient(pts, sources.positions[0], 3.0)[:, 0]
        g[1] += fw.incident_gradient(pts, sources.positions[0], 3.0)[:, 1]
        normal_part = np.abs(g[0] * np.cos(th) + g[1] * np.sin(th))
        size = np.sqrt(np.abs(g[0]) ** 2 + np.abs(g[1]) ** 2)
        # pointwise ratio is meaningless where the total gradient itself
        # vanishes (the point radially aligned with the source), so scale by
        # the typical gradient magnitude along the boundary
        assert normal_part.max() / np.median(size) < 1e-2


class TestInteriorGuard:
    def _interior_ring(self, k):
        m = 64
        sources = fw.SourceSet(center=(0.0, 0.0), radius=0.5, count=1)
        return fw.RingMeasurement(radius=0.5, k=k, samples=np.ones((1, m), complex),
                                  noise_level=0.0, side="interior", sources=sources)

    def test_first_j0_zero_excludes_mode_zero(self):
        k = FIRST_J0_ZERO / 0.5
        co = ct.compute_coefficients(self._interior_ring(k), 4)
        assert co.excluded_orders == [0]
        assert co.values[0, co.truncation] == 0.0

    def test_kr_1p5_no_exclusions(self):
        co = ct.compute_coefficients(self._interior_ring(3.0), 6)
        assert co.excluded_orders == []

    def test_zero_threshold_never_excludes(self):
        k = FIRST_J0_ZERO / 0.5
        co = ct.compute_coefficients(self._interior_ring(k), 6, mode_guard=0.0)
        assert co.excluded_orders == []

    def test_exterior_excludes_nothing(self, oracle_ring_single_source):
        plain = ct.compute_coefficients(oracle_ring_single_source, 3, mode_guard=0.0)
        for mode_guard in (ct.DEFAULT_MODE_GUARD, 1.0, np.inf):
            co = ct.compute_coefficients(oracle_ring_single_source, 3, mode_guard=mode_guard)
            assert co.excluded_orders == []
            assert np.array_equal(co.values, plain.values)

    def test_excluded_modes_contribute_zero(self):
        k = FIRST_J0_ZERO / 0.5
        guarded = ct.compute_coefficients(self._interior_ring(k), 2)
        val = _at(_field, guarded, 0.9, 0.3)[0]
        # the n = 0 column is zeroed, so only |n| in {1, 2} can contribute
        assert guarded.values[0, guarded.truncation] == 0.0
        assert np.isfinite(val)


class TestCleanDecay:
    def test_log_linear_decay_on_boundary(self, oracle_ring_single_source):
        ring = oracle_ring_single_source
        th = 2 * np.pi * np.arange(64) / 64
        pts = np.column_stack([np.cos(th), np.sin(th)])
        ref = fw.analytic_circle(1.0, "soft", "exterior", 3.0, np.array([2.2, 0.0]), pts)
        errs = []
        orders = range(2, 11)
        for n in orders:
            co = ct.compute_coefficients(ring, n)
            u_n = _field(co, np.ones(64), th)[0]
            errs.append(np.sqrt(np.mean(np.abs(u_n - ref) ** 2)))
        errs = np.asarray(errs)
        assert np.all(np.diff(np.log(errs)) < 0.0)        # monotone decay
        slope, icpt = np.polyfit(list(orders), np.log(errs), 1)
        assert np.exp(slope) < 1.0                         # geometric ratio < 1
        resid = np.log(errs) - (slope * np.array(list(orders)) + icpt)
        assert np.abs(resid).max() < 0.5                   # close to log-linear


def _per_point_tables(co, r):
    """The signed-order table C_m(kr), m = -N-1..N+1, evaluated at every point
    as before the distinct-radius gather, and the scaled coefficients
    c_n / C_n(kR) with excluded modes zeroed."""
    cyl = cf.hankel1_all if co.side == "exterior" else cf.bessel_j_all
    vals = cyl(co.truncation + 1, co.k * r)
    anchor = cyl(co.truncation, float(co.k * co.anchor_radius))
    anchor = np.where(np.abs(anchor) < 1e-300, 1.0, anchor)
    orders = np.arange(-co.truncation - 1, co.truncation + 2)
    sign = np.where((orders < 0) & (orders % 2 == 1), -1.0, 1.0)
    table = vals[np.abs(orders)] * sign[:, None]
    scaled = co.values / (anchor[np.abs(co.orders)] * sign[1:-1])
    return table, np.where(co.excluded, 0.0, scaled)


def _per_point_field(co, r, theta):
    table, scaled = _per_point_tables(co, r)
    phases = np.exp(1j * np.outer(co.orders, theta))
    return _gemm(scaled, phases * table[1:-1])


def _per_point_gradient(co, r, theta):
    """The ladder form: A = (d_x + i d_y) u and B = (d_x - i d_y) u."""
    table, scaled = _per_point_tables(co, r)
    n = co.truncation + 1
    modes = np.exp(1j * np.outer(np.arange(-n, n + 1), theta)) * table
    a = _gemm(-co.k * scaled, modes[2:])
    b = _gemm(co.k * scaled, modes[:-2])
    return np.stack([(a + b) / 2, (a - b) / 2j], axis=1)


def _polar_tables(co, r):
    """C_n(kr)/C_n(kR) and k C_n'(kr)/C_n(kR) per signed order at every point,
    negative orders by symmetry of the ratios: the radial/angular route that
    the ladder identity replaced, kept as an independent reference."""
    kr = co.k * r
    ka = co.k * co.anchor_radius
    if co.side == "exterior":
        vals = cf.hankel1_all(co.truncation + 1, kr)
        anchor = cf.hankel1_all(co.truncation, float(ka))
    else:
        vals = cf.bessel_j_all(co.truncation + 1, kr).astype(complex)
        anchor = cf.bessel_j_all(co.truncation, float(ka)).astype(complex)
    anchor = np.where(np.abs(anchor) < 1e-300, 1.0, anchor)
    ratio = vals[:-1] / anchor[:, None]
    deriv = co.k * cf.derivative_all(vals, kr) / anchor[:, None]
    n_abs = np.abs(co.orders)
    keep = ~co.excluded
    return ratio[n_abs] * keep[:, None], deriv[n_abs] * keep[:, None]


def _polar_field(co, r, theta):
    ratio, _ = _polar_tables(co, r)
    phases = np.exp(1j * np.outer(co.orders, theta))
    return _gemm(co.values, ratio * phases)


def _polar_gradient(co, r, theta):
    """Radial part k C_n'/C_n(kR), angular part (i n / r) C_n/C_n(kR), rotated
    with (cos th, sin th) and (-sin th, cos th)."""
    ratio, dratio = _polar_tables(co, r)
    phases = np.exp(1j * np.outer(co.orders, theta))
    g_rad = _gemm(co.values, dratio * phases)
    g_ang = _gemm(co.values, (1j * co.orders[:, None] / r[None, :]) * ratio * phases)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    gx = g_rad * cos_t[None, :] - g_ang * sin_t[None, :]
    gy = g_rad * sin_t[None, :] + g_ang * cos_t[None, :]
    return np.stack([gx, gy], axis=1)


def _random_coeffs(side, truncation, n_src=12, excluded_order=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n_src, 2 * truncation + 1)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    orders = np.arange(-truncation, truncation + 1)
    # excluded columns keep their values: the guard in the tables must zero them
    excluded = np.abs(orders) == excluded_order
    return ct.ModeCoefficients(values=values, anchor_radius=2.2 if side == "exterior" else 0.5,
                               k=3.0, side=side, excluded=excluded)


def _grid_polar(n):
    pts = imaging_grid(-1.5, 1.5, -1.5, 1.5, n, n).points
    return np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDistinctRadii:
    """The distinct-radius evaluation repeats the per-point formulas bit for bit."""

    CASES = [("exterior", 3, None), ("exterior", 5, 2), ("interior", 5, None),
             ("interior", 4, 0)]

    @pytest.fixture(scope="class")
    def grid_polar(self):
        return _grid_polar(150)

    @pytest.mark.parametrize("side,truncation,excluded_order", CASES)
    def test_grid_points(self, grid_polar, side, truncation, excluded_order):
        co = _random_coeffs(side, truncation, excluded_order=excluded_order)
        r, th = grid_polar
        assert _same_bits(_field(co, r, th), _per_point_field(co, r, th))
        assert _same_bits(_gradient(co, r, th), _per_point_gradient(co, r, th))

    @pytest.mark.parametrize("side,truncation,excluded_order", CASES)
    def test_one_radius(self, side, truncation, excluded_order):
        # the convergence study evaluates on np.full(n, a)
        co = _random_coeffs(side, truncation, excluded_order=excluded_order)
        r, th = np.full(256, 1.0), 2 * np.pi * np.arange(256) / 256
        assert _same_bits(_field(co, r, th), _per_point_field(co, r, th))
        assert _same_bits(_gradient(co, r, th), _per_point_gradient(co, r, th))


class TestLadderAgainstPolar:
    """The one signed-order table and the ladder identity give the field and
    gradient of the ratio tables, the radial derivative k C_n' and the
    angular term i n / r (the polar route they replaced) to rounding."""

    @pytest.fixture(scope="class")
    def grid_polar(self):
        return _grid_polar(150)

    @pytest.mark.parametrize("side", ["exterior", "interior"])
    @pytest.mark.parametrize("truncation,excluded_order",
                             [(0, None), (1, None), (3, 1), (5, 2), (8, None), (12, 0),
                              (12, 7)])
    def test_grid_points(self, grid_polar, side, truncation, excluded_order):
        co = _random_coeffs(side, truncation, excluded_order=excluded_order)
        r, th = grid_polar
        for ladder, polar in ((_field(co, r, th), _polar_field(co, r, th)),
                              (_gradient(co, r, th), _polar_gradient(co, r, th))):
            assert ladder.shape == polar.shape
            assert np.abs(ladder - polar).max() <= 1e-14 * np.abs(polar).max()


@pytest.mark.parametrize("truncation", [3, 5])
def test_gradient_peak_memory(truncation):
    # one (2N+3, P) mode table and the two shifted products live beside the
    # output, and both components are written into it, so the peak stays
    # near the output's own size
    co = _random_coeffs("interior", truncation, n_src=12)
    r, th = _grid_polar(150)
    _gradient(co, r[:100], th[:100])
    tracemalloc.start()
    try:
        out = _gradient(co, r, th)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * out.nbytes


class TestTurnedEvaluation:
    """With ``turns``, the field and gradient at one point per quarter-turn
    orbit give the other three by the exact phases (-i)^(m q): they match a
    direct evaluation at the turned points' own angles and radii."""

    @pytest.mark.parametrize("side", ["exterior", "interior"])
    @pytest.mark.parametrize("truncation,excluded_order", [(0, None), (3, 1), (5, 0), (12, 7)])
    @pytest.mark.parametrize("n,half_width", [(40, 1.21875), (41, 1.25)])
    def test_matches_direct_evaluation(self, side, truncation, excluded_order, n, half_width):
        # spacing 1/16: the turned points are exact, so they share their
        # orbit's radius, and near a zero of C_n a last-bit radius would move
        # the value more than the turn does
        co = _random_coeffs(side, truncation, excluded_order=excluded_order)
        grid = imaging_grid(-half_width, half_width, -half_width, half_width, n, n)
        orbits = grid.quarter_orbits()
        q_reps = orbits.shape[1]
        pts = grid.points[orbits.ravel()]                    # every x_p, every R^-1 x_p, ...
        r, th = np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])
        assert np.array_equal(r.reshape(4, q_reps), np.tile(r[:q_reps], (4, 1)))
        tables = ct.radial_tables(co, r)
        reps = tables._replace(inverse=tables.inverse[:q_reps])
        # the sums' rounding scale: the moduli of their terms
        terms = np.abs(tables.table[:, tables.inverse])
        field_scale = np.abs(tables.scaled) @ terms[1:-1]
        gradient_scale = co.k * np.abs(tables.scaled) @ (terms[2:] + terms[:-2])
        for fn, scale in ((ct.eval_field, field_scale),
                          (ct.eval_gradient, gradient_scale[:, None])):
            got = fn(co, th[:q_reps], reps, 4)
            want = fn(co, th, tables)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-13 * scale)
            assert _same_bits(got[..., :q_reps], fn(co, th[:q_reps], reps))
