import math

import numpy as np
import pytest

from nearscat import geometry
from nearscat.geometry import ShapeSpec, imaging_grid, make_curve

from oracle_series import central_diff

KITE_TRIG = ShapeSpec(kind="trig", x_cos=(-0.3, 1.0, 0.6), y_sin=(0.0, 1.3),
                      n_nodes=64)


def circle_reference(t, a, cx, cy):
    """Circle c + a (cos t, sin t): points, x' and x'' by the closed form."""
    c, s = np.cos(t), np.sin(t)
    return (np.column_stack([cx + a * c, cy + a * s]),
            np.column_stack([-a * s, a * c]),
            np.column_stack([-a * c, -a * s]))


def kite_reference(t):
    """Kite (cos t + 0.6 cos 2t - 0.3, 1.3 sin t) by the closed form."""
    return (np.column_stack([np.cos(t) + 0.6 * np.cos(2 * t) - 0.3, 1.3 * np.sin(t)]),
            np.column_stack([-np.sin(t) - 1.2 * np.sin(2 * t), 1.3 * np.cos(t)]),
            np.column_stack([-np.cos(t) - 2.4 * np.cos(2 * t), -1.3 * np.sin(t)]))


def starfish_reference(t):
    """Starfish r(t) (cos t, sin t), r = 1 + 0.2 cos 5t, by the product rule."""
    r, rp, rpp = 1.0 + 0.2 * np.cos(5 * t), -np.sin(5 * t), -5.0 * np.cos(5 * t)
    c, s = np.cos(t), np.sin(t)
    return (np.column_stack([r * c, r * s]),
            np.column_stack([rp * c - r * s, rp * s + r * c]),
            np.column_stack([rpp * c - 2 * rp * s - r * c, rpp * s + 2 * rp * c - r * s]))


def contains_by_loop(curve, points):
    """Per-point even-odd crossing test on the node polygon: the reference
    for the blocked ``BoundaryCurve.contains``."""
    x0, y0 = curve.points[:, 0], curve.points[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    inside = np.zeros(points.shape[0], dtype=bool)
    for i, (px, py) in enumerate(points):
        cond = (y0 > py) != (y1 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
        inside[i] = np.count_nonzero(cond & (px < xi)) % 2 == 1
    return inside


def crossing_by_loop(curve):
    """First pair i < j of non-adjacent node-polygon edges whose ends lie
    strictly on both sides of each other's line, pair by pair: the reference
    for the blocked ``BoundaryCurve.crossing``."""
    p, m = curve.points, curve.n_nodes

    def side(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    for i in range(m):
        for j in range(i + 2, m - 1 if i == 0 else m):
            a, b, c, d = p[i], p[(i + 1) % m], p[j], p[(j + 1) % m]
            if side(a, b, c) * side(a, b, d) < 0 and side(c, d, a) * side(c, d, b) < 0:
                return i, j
    return None


# x = sin t + 0.1 cos t, y = sin 2t + 0.1 sin t: signed area 0.01 pi
FIGURE_EIGHT = dict(kind="trig", x_cos=(0.0, 0.1), x_sin=(0.0, 1.0), y_sin=(0.0, 0.1, 1.0))
# the limacon r = 0.5 + cos t, whose inner loop crosses the outer one at the origin
LIMACON = dict(kind="trig", x_cos=(0.5, 0.5, 0.5), y_sin=(0.0, 0.5, 0.5))


def node_arrays(curve):
    return curve.points, curve.tangents, curve.seconds


def polygon_area(curve) -> float:
    """Signed shoelace area of the node polygon (positive = counterclockwise)."""
    x, y = curve.points[:, 0], curve.points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def min_distance(curve, center, radius: float) -> float:
    """min_j | |x(t_j) - center| - radius | over the curve nodes."""
    d = curve.points - np.asarray(center, dtype=float)[None, :]
    return float(np.abs(np.hypot(d[:, 0], d[:, 1]) - radius).min())


class TestShapes:
    def test_circle_nodes_on_radius(self):
        c = make_curve(ShapeSpec(kind="circle", radius=1.0, n_nodes=64))
        assert np.allclose(np.hypot(c.points[:, 0], c.points[:, 1]), 1.0, atol=1e-14)

    def test_kite_at_zero(self):
        c = make_curve(ShapeSpec(kind="kite", n_nodes=64))
        assert c.points[0] == pytest.approx([1.3, 0.0], abs=1e-15)

    def test_starfish_at_zero(self):
        c = make_curve(ShapeSpec(kind="starfish", n_nodes=64))
        assert c.points[0] == pytest.approx([1.2, 0.0], abs=1e-15)

    def test_trig_series_matches_kite(self):
        kite = make_curve(ShapeSpec(kind="kite", n_nodes=64))
        trig = make_curve(KITE_TRIG)
        for got, want in zip(node_arrays(trig), node_arrays(kite)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_nodes", [64, 512])
    @pytest.mark.parametrize("radius,center", [(1.0, (0.0, 0.0)), (0.7, (0.3, -0.2))])
    def test_circle_matches_closed_form(self, n_nodes, radius, center):
        # bit for bit; array_equal lets zeros differ in sign
        c = make_curve(ShapeSpec(kind="circle", radius=radius, center=center,
                                 n_nodes=n_nodes))
        for got, want in zip(node_arrays(c), circle_reference(c.t, radius, *center)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_nodes", [64, 512])
    def test_kite_matches_closed_form(self, n_nodes):
        c = make_curve(ShapeSpec(kind="kite", n_nodes=n_nodes))
        for got, want in zip(node_arrays(c), kite_reference(c.t)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_nodes", [64, 512])
    def test_starfish_matches_product_form(self, n_nodes):
        c = make_curve(ShapeSpec(kind="starfish", n_nodes=n_nodes))
        for got, want in zip(node_arrays(c), starfish_reference(c.t)):
            assert np.abs(got - want).max() <= 1e-13

    def test_analytic_derivatives_match_finite_differences(self):
        for kind in ("circle", "kite", "starfish"):
            c = make_curve(ShapeSpec(kind=kind, n_nodes=32))
            for t0 in (0.37, 2.2, 5.1):
                fd1 = central_diff(lambda t: c.position(np.array([t]))[0], t0, 1e-6)
                assert c.derivative(np.array([t0]))[0] == pytest.approx(fd1, abs=1e-8)
                fd2 = central_diff(lambda t: c.derivative(np.array([t]))[0], t0, 1e-6)
                assert c.second_derivative(np.array([t0]))[0] == pytest.approx(
                    fd2, abs=1e-7)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            make_curve(ShapeSpec(kind="circle", radius=-1.0))
        with pytest.raises(ValueError):
            make_curve(ShapeSpec(kind="circle", n_nodes=15))
        with pytest.raises(ValueError):
            make_curve(ShapeSpec(kind="circle", n_nodes=14))
        with pytest.raises(ValueError):
            make_curve(ShapeSpec(kind="pentagon"))


class TestCurveInvariants:
    @pytest.mark.parametrize("kind", ["circle", "kite", "starfish"])
    def test_normals_unit_and_orthogonal(self, kind):
        c = make_curve(ShapeSpec(kind=kind, n_nodes=128))
        dots = np.einsum("ij,ij->i", c.normals, c.tangents)
        assert np.abs(dots).max() < 1e-12
        assert np.abs(np.hypot(c.normals[:, 0], c.normals[:, 1]) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("kind", ["circle", "kite", "starfish"])
    def test_counterclockwise(self, kind):
        c = make_curve(ShapeSpec(kind=kind, n_nodes=128))
        assert polygon_area(c) > 0.0

    def test_circle_speed_and_radial_normal(self):
        c = make_curve(ShapeSpec(kind="circle", radius=0.7, n_nodes=64))
        assert np.abs(c.speed - 0.7).max() < 1e-12
        radial = c.points / np.hypot(c.points[:, 0], c.points[:, 1])[:, None]
        assert np.abs(c.normals - radial).max() < 1e-12

    def test_polygon_area_converges(self):
        truth = math.pi
        err = [abs(polygon_area(make_curve(ShapeSpec(kind="circle", n_nodes=m)))
                   - truth) for m in (64, 128, 256)]
        assert err[1] <= err[0] and err[2] <= err[1]

    def test_contains(self):
        c = make_curve(ShapeSpec(kind="kite", n_nodes=256))
        inside = c.contains(np.array([[0.0, 0.0], [2.0, 0.0], [-0.6, 0.1]]))
        assert inside.tolist() == [True, False, True]

    @pytest.mark.parametrize("kind", ["circle", "kite", "starfish"])
    def test_contains_matches_per_point_loop(self, kind):
        # random points, points at node heights and the nodes themselves,
        # over many blocks of the 1024-node polygon
        c = make_curve(ShapeSpec(kind=kind, n_nodes=1024))
        rng = np.random.default_rng(5)
        heights = c.points[rng.integers(0, 1024, 300), 1]
        pts = np.concatenate([rng.uniform(-2.0, 2.0, (700, 2)),
                              np.column_stack([rng.uniform(-2.0, 2.0, 300), heights]),
                              c.points[::8]])
        got = c.contains(pts)
        assert got.dtype == bool and got.shape == (pts.shape[0],)
        assert np.array_equal(got, contains_by_loop(c, pts))
        assert 0 < got.sum() < got.size

    @pytest.mark.parametrize("shape", [dict(kind="circle"), dict(kind="kite"),
                                       dict(kind="starfish"), FIGURE_EIGHT, LIMACON],
                             ids=["circle", "kite", "starfish", "figure-eight", "limacon"])
    @pytest.mark.parametrize("n_nodes", [16, 64, 128])
    def test_crossing_matches_per_pair_loop(self, monkeypatch, shape, n_nodes):
        # 256 edge pairs per block: 16-edge polygons in one block, 128-edge in 64
        monkeypatch.setattr(geometry, "CONTAINS_BLOCK", 256)
        c = make_curve(ShapeSpec(n_nodes=n_nodes, **shape))
        want = crossing_by_loop(c)
        assert c.crossing() == want
        assert (want is None) == (shape["kind"] != "trig")

    @pytest.mark.parametrize("kind", ["circle", "kite", "starfish"])
    def test_builtin_shapes_are_simple_at_the_ceiling(self, kind):
        assert make_curve(ShapeSpec(kind=kind, n_nodes=1024)).crossing() is None

    def test_radial_profile_circle(self):
        c = make_curve(ShapeSpec(kind="circle", radius=1.3, n_nodes=128))
        th = np.linspace(0, 2 * np.pi, 17)
        assert np.allclose(c.radial_profile(th), 1.3, atol=1e-5)


class TestMinDistance:
    def test_concentric_circles(self):
        c = make_curve(ShapeSpec(kind="circle", radius=1.0, n_nodes=256))
        assert min_distance(c, (0.0, 0.0), 0.5) == pytest.approx(0.5, abs=1e-12)
        assert min_distance(c, (0.0, 0.0), 2.2) == pytest.approx(1.2, abs=1e-12)

    def test_kite_vs_circle_brute_force(self):
        kite = make_curve(ShapeSpec(kind="kite", n_nodes=4096))
        got = min_distance(kite, (0.0, 0.0), 0.5)
        # independent brute force on a finer, offset parameter sampling
        t = 2 * np.pi * (np.arange(8192) + 0.5) / 8192
        p = kite.position(t)
        want = np.abs(np.hypot(p[:, 0], p[:, 1]) - 0.5).min()
        assert got > 0.0
        assert got == pytest.approx(want, abs=1e-5)


class TestImagingGrid:
    def test_paper_grid(self):
        g = imaging_grid(-1.5, 1.5, -1.5, 1.5, 150, 150)
        assert g.n_points == 22500
        assert g.spacing_x == pytest.approx(3.0 / 149)
        assert g.spacing_x == (1.5 - (-1.5)) / (150 - 1)

    def test_exclusion_mask_count(self):
        g = imaging_grid(-1.5, 1.5, -1.5, 1.5, 150, 150, exclusion=((0.0, 0.0), 0.5))
        want = np.hypot(g.points[:, 0], g.points[:, 1]) <= 0.5
        assert np.array_equal(g.mask, want)
        assert g.mask.sum() == want.sum() > 0

    def test_two_by_two_corners(self):
        g = imaging_grid(0.0, 1.0, 0.0, 1.0, 2, 2)
        assert g.points.tolist() == [[0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, 0.0]]

    def test_index_of_roundtrip(self):
        g = imaging_grid(-1.5, 1.5, -1.5, 1.5, 150, 150)
        ids = np.array([0, 77, 149 * 150, 22499])
        x, y = g.points[ids].T
        assert g.index_of(x, y).tolist() == ids.tolist()
        assert g.index_of(np.array([5.0, 0.0]), np.array([0.0, -1.6])).tolist() == [-1, -1]

    def test_degenerate_bounds(self):
        with pytest.raises(ValueError):
            imaging_grid(0.0, 0.0, 0.0, 1.0, 5, 5)
        with pytest.raises(ValueError):
            imaging_grid(0.0, 1.0, 0.0, 1.0, 1, 5)


class TestSourceSet:
    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
    def test_radius_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="source circle radius must be finite and positive"):
            geometry.SourceSet(center=(0.0, 0.0), radius=radius, count=4)

    @pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, -math.inf)])
    def test_centre_finite(self, center):
        with pytest.raises(ValueError, match="source circle centre must be finite"):
            geometry.SourceSet(center=center, radius=1.0, count=4)


class TestQuarterOrbits:
    """ImagingGrid.quarter_orbits: row m of the (4, Q) table holds R^-m of
    row 0, R(x, y) = (-y, x), over the unmasked points."""

    @pytest.mark.parametrize("n,excl", [(2, None), (3, None), (40, None), (41, None),
                                        (41, ((0.0, 0.0), 0.45)),
                                        (300, ((0.0, 0.0), 0.5))])
    def test_rows_are_turns_of_row_zero(self, n, excl):
        self._assert_orbits(imaging_grid(-1.5, 1.5, -1.5, 1.5, n, n, exclusion=excl))

    @pytest.mark.parametrize("half,n", [(1.5, 61), (1.5, 151), (1.5, 301), (1.0, 41)])
    def test_odd_cavity_grids(self, half, n):
        # points on the r = 0.5 circle to rounding, which EXCLUSION_BAND
        # masks in every quarter turn
        g = imaging_grid(-half, half, -half, half, n, n, exclusion=((0.0, 0.0), 0.5))
        self._assert_orbits(g)

    @staticmethod
    def _assert_orbits(g):
        n = g.nx
        orbits = g.quarter_orbits()
        x, y = g.points[orbits[0]].T
        for m, (tx, ty) in enumerate([(x, y), (y, -x), (-x, -y), (-y, x)]):
            assert np.abs(g.points[orbits[m]] - np.column_stack([tx, ty])).max() <= 1e-15
        # every unmasked point once, but the centre of an odd grid
        live = np.flatnonzero(~g.mask)
        centre = [n * n // 2] if n % 2 and not g.mask[n * n // 2] else []
        assert np.array_equal(np.sort(np.concatenate([orbits.ravel(), centre])), live)

    @pytest.mark.parametrize("bounds,n,excl", [
        ((-1.5, 1.5, -1.5, 1.5), (40, 41), None),           # nx != ny
        ((-1.5, 1.6, -1.5, 1.6), (40, 40), None),           # off-centre bounds
        ((-1.5, 1.5, -1.0, 1.0), (40, 40), None),           # a rectangle
        ((-1.2, 1.2, -1.2, 1.2), (41, 41), ((0.6, -0.3), 0.25)),  # off-centre disk
    ])
    def test_refused(self, bounds, n, excl):
        assert imaging_grid(*bounds, *n, exclusion=excl).quarter_orbits() is None
