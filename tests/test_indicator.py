import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearscat import continuation as ct
from nearscat import forward as fw
from nearscat import indicator as ind
from nearscat import noise as nz
from nearscat.geometry import ShapeSpec, imaging_grid, make_curve
from nearscat.pipeline import reconstruct


def _coeffs(values, radius=2.2, k=3.0, side="exterior", n_trunc=None):
    values = np.atleast_2d(np.asarray(values, complex))
    n = (values.shape[1] - 1) // 2 if n_trunc is None else n_trunc
    return ct.ModeCoefficients(values=values, anchor_radius=radius, k=k, side=side,
                               truncation=n,
                               excluded=np.zeros(values.shape[1], dtype=bool))


def _reference(co, sources, x):
    """Reference source index and its total-field gradient at one point."""
    grad, _, ref = ind._reference_gradients(co, sources, np.asarray(x, float).reshape(1, 2))
    return int(ref[0]), grad[ref[0], :, 0]


def _scenario_coeffs(unit_circle_512, exterior_sources, bc="soft", k=3.0,
                     delta=0.05, seed=7, n=None):
    ring = fw.simulate_ring(unit_circle_512, bc, "exterior", k, exterior_sources,
                            2.2, 128)
    if delta > 0:
        ring = nz.add_noise(ring, nz.NoiseSpec(level=delta, seed=seed))
        n = n if n is not None else ct.truncation_order(delta, "exterior")
    return ct.compute_coefficients(ring, n)


class TestSoftIndicator:
    def test_exact_cancellation_single_source(self):
        # one source; a single n = 0 mode tuned so u_N = -u_i at a target on
        # the anchor ring (mode ratio is exactly 1 there)
        src = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1, side="exterior")
        target = 2.2 * np.array([np.cos(2.0), np.sin(2.0)])
        ui = fw.incident_field(target, src.positions[0], 3.0)
        co = _coeffs([-ui], radius=2.2)
        vals, flags = ind.indicator_values(co, src, target[None, :], "soft")
        assert vals[0] <= 1e-14 * abs(ui)
        assert flags[0] == ind.FLAG_OK

    def test_formula_against_hand_loop(self, unit_circle_512, exterior_sources):
        co = _scenario_coeffs(unit_circle_512, exterior_sources)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.4, 1.4, size=(24, 2))
        got, flags = ind.indicator_values(co, exterior_sources, pts, "soft")
        w = 2 * np.pi * 2.2 / 12
        for i, p in enumerate(pts):
            r, th = np.hypot(*p), np.arctan2(p[1], p[0])
            total = 0.0
            for j, z in enumerate(exterior_sources.positions):
                u_n = ct.eval_field(co, r, th)[j]
                total += abs(u_n + fw.incident_field(p, z, co.k))
            assert got[i] == pytest.approx(w * total, rel=1e-12)
            assert flags[i] == ind.FLAG_OK

    def test_scaling_homogeneity(self, unit_circle_512, exterior_sources):
        # scaling scattered and incident data by c scales the raw indicator
        # by c; realized here directly on the modulus sum
        co = _scenario_coeffs(unit_circle_512, exterior_sources)
        pts = np.array([[0.3, 0.2], [1.2, -0.4]])
        base, _ = ind.indicator_values(co, exterior_sources, pts, "soft")
        w = 2 * np.pi * 2.2 / 12
        for c in (2.0, 0.5):
            for i, p in enumerate(pts):
                r, th = np.hypot(*p), np.arctan2(p[1], p[0])
                scaled = sum(abs(c * ct.eval_field(co, r, th)[j]
                                 + c * fw.incident_field(p, z, co.k))
                             for j, z in enumerate(exterior_sources.positions))
                assert w * scaled == pytest.approx(c * base[i], rel=1e-12)

    def test_grid_point_on_source_rejected(self):
        src = fw.SourceSet(center=(0.0, 0.0), radius=1.0, count=1, side="exterior")
        co = _coeffs([0.1, 0.2, 0.1], radius=2.2)
        with pytest.raises(ValueError):
            ind.indicator_values(co, src, np.array([[1.0, 0.0]]), "soft")


class TestHardIndicator:
    def test_single_source_image_vanishes(self, unit_circle_512):
        src = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1, side="exterior")
        ring = fw.simulate_ring(unit_circle_512, "hard", "exterior", 3.0, src, 2.2, 64)
        co = ct.compute_coefficients(ring, 4)
        grid = imaging_grid(-1.2, 1.2, -1.2, 1.2, 9, 9)
        img = ind.indicator_hard(co, src, grid)
        live = ~np.isnan(img.values)
        assert np.abs(img.values[live]).max() < 1e-12

    def test_reference_source_selection(self, unit_circle_512, exterior_sources):
        co = _scenario_coeffs(unit_circle_512, exterior_sources, bc="hard",
                              k=4.0, delta=0.02)
        x = np.array([0.7, 0.3])
        j0, xi = _reference(co, exterior_sources, x)
        # brute-force argmax over per-source gradient norms
        norms = []
        r, th = np.hypot(*x), np.arctan2(x[1], x[0])
        g = ct.eval_gradient(co, r, th)
        for j, z in enumerate(exterior_sources.positions):
            gj = g[j, :, 0] if g.ndim == 3 else g[j]
            gj = gj + fw.incident_gradient(x, z, co.k)
            norms.append(np.sqrt(abs(gj[0]) ** 2 + abs(gj[1]) ** 2))
        assert j0 == int(np.argmax(norms))

    def test_reference_near_boundary_point(self, unit_circle_512, exterior_sources):
        # regression: at (1, 0) the winner is one of the sources closest in
        # angle (0 deg or +-30 deg)
        co = _scenario_coeffs(unit_circle_512, exterior_sources, bc="hard",
                              k=4.0, delta=0.02)
        j0, _ = _reference(co, exterior_sources, (1.0, 0.0))
        assert j0 in (0, 1, 11)

    def test_reference_term_vanishes(self, unit_circle_512, exterior_sources):
        co = _scenario_coeffs(unit_circle_512, exterior_sources, bc="hard",
                              k=4.0, delta=0.02)
        rng = np.random.default_rng(1)
        for p in rng.uniform(-1.4, 1.4, size=(50, 2)):
            j0, xi = _reference(co, exterior_sources, p)
            norm = np.sqrt(abs(xi[0]) ** 2 + abs(xi[1]) ** 2)
            nu = np.array([-xi[1], xi[0]]) / norm
            assert abs(xi[0] * nu[0] + xi[1] * nu[1]) <= 1e-12 * norm

    def test_formula_against_hand_loop(self, unit_circle_512, exterior_sources):
        co = _scenario_coeffs(unit_circle_512, exterior_sources, bc="hard",
                              k=4.0, delta=0.02)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.4, 1.4, size=(16, 2))
        got, flags = ind.indicator_values(co, exterior_sources, pts, "hard")
        w = 2 * np.pi * 2.2 / 12
        for i, p in enumerate(pts):
            r, th = np.hypot(*p), np.arctan2(p[1], p[0])
            grads = []
            for j, z in enumerate(exterior_sources.positions):
                gj = ct.eval_gradient(co, r, th)[j] + fw.incident_gradient(p, z, co.k)
                grads.append(gj)
            norms = [np.sqrt(abs(g[0]) ** 2 + abs(g[1]) ** 2) for g in grads]
            xi = grads[int(np.argmax(norms))]
            nrm = np.sqrt(abs(xi[0]) ** 2 + abs(xi[1]) ** 2)
            nu = np.array([-xi[1], xi[0]]) / nrm
            total = sum(abs(g[0] * nu[0] + g[1] * nu[1]) for g in grads)
            assert got[i] == pytest.approx(w * total, rel=1e-10)


class TestImageAlgebra:
    def _image(self, values, grid=None):
        grid = grid or imaging_grid(0.0, 1.0, 0.0, 1.0, 2, 2)
        return ind.IndicatorImage(grid=grid, values=np.asarray(values, float),
                                  kind="soft", wavenumbers=(3.0,), state="raw",
                                  flags=np.zeros(len(values), dtype=np.uint8))

    def test_normalize_constant(self):
        out = ind.normalize(self._image([2.0, 2.0, 2.0, 2.0]))
        assert np.allclose(out.values, 1.0)

    def test_normalize_max_is_one_and_idempotent(self):
        out = ind.normalize(self._image([0.5, 2.0, 1.0, 0.0]))
        assert out.values.max() == 1.0
        again = ind.normalize(out)
        assert np.array_equal(out.values, again.values)

    def test_normalize_all_zero_raises(self):
        with pytest.raises(ValueError):
            ind.normalize(self._image([0.0, 0.0, 0.0, 0.0]))

    def test_reciprocal_values(self):
        norm = ind.normalize(self._image([1.0, 0.0, 0.5, 1.0]))
        rec = ind.reciprocal(norm)
        assert rec.values[0] == 1.0
        assert rec.values[1] == 1e12
        assert rec.values[2] == pytest.approx(2.0)

    def test_reciprocal_requires_normalized(self):
        with pytest.raises(ValueError):
            ind.reciprocal(self._image([1.0, 1.0, 1.0, 1.0]))

    def test_reciprocal_order_reversing(self):
        norm = ind.normalize(self._image([0.2, 0.4, 0.8, 1.0]))
        rec = ind.reciprocal(norm)
        assert np.all(np.diff(rec.values) < 0)

    def test_superpose_identity(self):
        norm = ind.normalize(self._image([0.5, 1.0, 0.25, 0.75]))
        out = ind.superpose_multifrequency([norm])
        assert np.allclose(out.values, norm.values)

    def test_superpose_two_identical(self):
        norm = ind.normalize(self._image([0.5, 1.0, 0.25, 0.75]))
        out = ind.superpose_multifrequency([norm, norm])
        assert np.allclose(out.values, norm.values)

    def test_superpose_grid_mismatch(self):
        a = ind.normalize(self._image([0.5, 1.0, 0.25, 0.75]))
        other = imaging_grid(0.0, 2.0, 0.0, 2.0, 2, 2)
        b = ind.normalize(self._image([0.5, 1.0, 0.25, 0.75], grid=other))
        with pytest.raises(ValueError):
            ind.superpose_multifrequency([a, b])

    def test_superpose_kind_mismatch(self):
        a = ind.normalize(self._image([0.5, 1.0, 0.25, 0.75]))
        from dataclasses import replace
        b = replace(a, kind="hard")
        with pytest.raises(ValueError):
            ind.superpose_multifrequency([a, b])


class TestBoundaryDip:
    TH = 2 * np.pi * np.arange(64) / 64

    def _dip_ratio(self, curve, bc, side, k, n, offset_radius, delta=0.0, seed=7):
        ring_r = 2.2 if side == "exterior" else 0.5
        srcs = fw.SourceSet(center=(0.0, 0.0), radius=ring_r, count=12, side=side)
        ring = fw.simulate_ring(curve, bc, side, k, srcs, ring_r, 128)
        if delta > 0:
            ring = nz.add_noise(ring, nz.NoiseSpec(level=delta, seed=seed))
        co = ct.compute_coefficients(ring, n)
        if side == "interior":
            co = ct.guard_interior_modes(co)
        bpts = np.column_stack([np.cos(self.TH), np.sin(self.TH)])
        opts = offset_radius * bpts
        vb, _ = ind.indicator_values(co, srcs, bpts, bc)
        vo, _ = ind.indicator_values(co, srcs, opts, bc)
        return np.median(vb) / np.median(vo)

    @pytest.mark.parametrize("bc,side,offset", [
        ("soft", "exterior", 1.3), ("hard", "exterior", 1.3),
        ("soft", "interior", 0.7), ("hard", "interior", 0.7)])
    def test_clean_dip_all_variants(self, unit_circle_512, bc, side, offset):
        ratio = self._dip_ratio(unit_circle_512, bc, side, 3.0, 10, offset)
        assert ratio <= 0.1

    def test_noisy_soft_dip(self, unit_circle_512):
        # truncation error at N(5%) = 3 keeps the measured ratio near 0.32
        ratio = self._dip_ratio(unit_circle_512, "soft", "exterior", 3.0, 3,
                                1.3, delta=0.05)
        assert ratio <= 0.35

    def test_noisy_hard_dip(self, unit_circle_512):
        ratio = self._dip_ratio(unit_circle_512, "hard", "exterior", 4.0, 4,
                                1.3, delta=0.02)
        assert ratio <= 0.40


class TestCircleSymmetry:
    """12 sources and 128 receivers on a circle about a centred circle: a
    quarter turn maps source j to j + 3 (receiver m to m + 32) and y -> -y
    maps source j to 12 - j (receiver m to 128 - m).  The discrete problem
    has the same symmetries (128 nodes), so on a centred square grid the
    indicator image is unchanged by either, up to rounding."""

    CURVE = make_curve(ShapeSpec(kind="circle", radius=1.0, n_nodes=128))
    SOURCES = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=12, side="exterior")

    @settings(max_examples=20, deadline=None)
    @given(bc=st.sampled_from(["soft", "hard"]), k=st.floats(1.0, 6.0),
           truncation=st.integers(1, 10), n=st.integers(2, 41),
           half_width=st.floats(0.5, 2.0))
    def test_quarter_turn_and_reflection(self, bc, k, truncation, n, half_width):
        ring = fw.simulate_ring(self.CURVE, bc, "exterior", k, self.SOURCES, 2.2, 128)
        grid = imaging_grid(-half_width, half_width, -half_width, half_width, n, n)
        _, image = reconstruct(ring, bc, grid, truncation)
        values = grid.as_image(image.values)
        tol = 1e-6 * np.abs(values).max()     # with 13 sources the gap is about 0.2
        assert np.abs(np.rot90(values) - values).max() <= tol
        assert np.abs(np.flipud(values) - values).max() <= tol
