import numpy as np
import pytest
from scipy.special import hankel1

from nearscat import forward as fw
from nearscat.geometry import ShapeSpec, make_curve

from oracle_series import FIRST_J0_ZERO, h1_series, j_series, y0_series


class TestIncidentField:
    def test_value_against_series_oracle(self):
        # k = 1, |x - z| = 1:  (i/4) H_0^(1)(1)
        want = 0.25j * complex(j_series(0, 1.0), y0_series(1.0))
        got = fw.incident_field(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1.0)
        assert got == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(-0.0220642411 + 0.1912994216j, abs=1e-9)

    def test_depends_only_on_distance(self):
        x, z = np.array([0.3, 0.8]), np.array([-1.1, 0.2])
        k = 2.3
        assert fw.incident_field(x, z, k) == fw.incident_field(z, x, k)

    def test_k3_distance2(self):
        got = fw.incident_field(np.array([2.0, 0.0]), np.array([0.0, 0.0]), 3.0)
        assert got == pytest.approx(0.25j * h1_series(0, 6.0), rel=1e-9)

    def test_singularity_error(self):
        with pytest.raises(fw.SingularityError):
            fw.incident_field(np.array([1.0, 1.0]), np.array([1.0, 1.0 + 1e-13]), 1.0)

    def test_field_and_gradient_match_amos_hankel(self):
        # the J + iY route against scipy's AMOS hankel1 over k r in [1e-4, 80]
        k, z = 2.5, np.array([0.3, -0.2])
        x = z + (np.geomspace(1e-4, 80.0, 500) / k)[:, None] * np.array([0.6, 0.8])
        d = x - z
        r = np.hypot(d[:, 0], d[:, 1])
        want = 0.25j * hankel1(0, k * r)
        got = fw.incident_field(x, z, k)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
        want_g = (-0.25j * k * hankel1(1, k * r) / r)[:, None] * d
        got_g = fw.incident_gradient(x, z, k)
        rel = np.linalg.norm(got_g - want_g, axis=1) / np.linalg.norm(want_g, axis=1)
        assert rel.max() < 1e-13


class TestIncidentGradient:
    def test_finite_difference(self):
        x, z, k = np.array([1.0, 0.0]), np.array([0.0, 0.0]), 2.0
        h = 1e-6
        g = fw.incident_gradient(x, z, k)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (fw.incident_field(x + e, z, k) - fw.incident_field(x - e, z, k)) / (2 * h)
            assert g[axis] == pytest.approx(fd, abs=1e-6)

    def test_antisymmetric_under_swap(self):
        x, z, k = np.array([0.9, -0.4]), np.array([-0.3, 1.2]), 3.0
        assert fw.incident_gradient(x, z, k) == pytest.approx(
            -fw.incident_gradient(z, x, k), rel=1e-14)

    def test_parallel_to_separation(self):
        x, z, k = np.array([1.4, 0.7]), np.array([0.2, -0.5]), 2.5
        g = fw.incident_gradient(x, z, k)
        d = x - z
        cross = g[0] * d[1] - g[1] * d[0]
        assert abs(cross) < 1e-14 * np.abs(g).max()


class TestAnalyticCircle:
    def test_reciprocity(self):
        x1 = np.array([1.7, 0.4])
        z1 = np.array([-0.2, 2.0])
        a = fw.analytic_circle(1.0, "soft", "exterior", 3.0, z1, x1[None, :])[0]
        b = fw.analytic_circle(1.0, "soft", "exterior", 3.0, x1, z1[None, :])[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_soft_boundary_trace(self):
        th = 2 * np.pi * np.arange(64) / 64
        pts = np.column_stack([np.cos(th), np.sin(th)])
        z = np.array([2.2, 0.0])
        us = fw.analytic_circle(1.0, "soft", "exterior", 3.0, z, pts)
        ui = fw.incident_field(pts, z, 3.0)
        assert np.abs(us + ui).max() / np.abs(ui).max() < 1e-10

    def test_hard_normal_derivative_trace(self):
        th = 2 * np.pi * np.arange(64) / 64
        pts = np.column_stack([np.cos(th), np.sin(th)])
        z = np.array([2.2, 0.0])
        dus = fw.analytic_circle(1.0, "hard", "exterior", 3.0, z, pts,
                                 radial_derivative=True)
        gi = fw.incident_gradient(pts, z, 3.0)
        dn_ui = gi[:, 0] * pts[:, 0] + gi[:, 1] * pts[:, 1]
        assert np.abs(dus + dn_ui).max() / np.abs(dn_ui).max() < 1e-10

    def test_interior_variants_trace(self):
        th = 2 * np.pi * np.arange(32) / 32
        pts = np.column_stack([np.cos(th), np.sin(th)])
        z = np.array([0.4, 0.1])
        us = fw.analytic_circle(1.0, "soft", "interior", 3.0, z, pts)
        ui = fw.incident_field(pts, z, 3.0)
        assert np.abs(us + ui).max() / np.abs(ui).max() < 1e-10

    def test_mode_degeneracy_error(self):
        # k a exactly at the first J_0 zero: interior Dirichlet eigenvalue
        with pytest.raises(fw.ModeDegeneracyError):
            fw.analytic_circle(1.0, "soft", "interior", FIRST_J0_ZERO,
                               np.array([0.4, 0.0]), np.array([[0.5, 0.0]]))

    def test_wrong_side_source(self):
        with pytest.raises(fw.GeometryError):
            fw.analytic_circle(1.0, "soft", "exterior", 3.0, np.array([0.2, 0.0]),
                               np.array([[1.5, 0.0]]))


class TestNystrom:
    def test_exterior_soft_matches_oracle(self, unit_circle_512):
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1, side="exterior")
        ring = fw.simulate_ring(unit_circle_512, "soft", "exterior", 3.0, sources,
                                2.2, 128)
        ref = fw.analytic_circle(1.0, "soft", "exterior", 3.0,
                                 sources.positions[0], ring.receiver_points)
        err = np.abs(ring.samples[0] - ref).max() / np.abs(ref).max()
        assert err < 1e-6

    def test_interior_hard_matches_oracle(self, unit_circle_512):
        sources = fw.SourceSet(center=(0.0, 0.0), radius=0.5, count=1, side="interior")
        ring = fw.simulate_ring(unit_circle_512, "hard", "interior", 4.0, sources,
                                0.5, 64)
        ref = fw.analytic_circle(1.0, "hard", "interior", 4.0,
                                 sources.positions[0], ring.receiver_points)
        err = np.abs(ring.samples[0] - ref).max() / np.abs(ref).max()
        assert err < 1e-6

    @pytest.mark.parametrize("bc,side", [("soft", "exterior"), ("hard", "exterior"),
                                         ("soft", "interior"), ("hard", "interior")])
    def test_boundary_residual_kite(self, kite_512, bc, side):
        radius = 2.2 if side == "exterior" else 0.5
        sources = fw.SourceSet(center=(0.0, 0.0), radius=radius, count=3, side=side)
        sol = fw.solve_densities(kite_512, bc, side, 3.0, sources)
        assert sol.system_residual < 1e-10
        t_chk = 2 * np.pi * (np.arange(37) + 0.531) / 37
        assert fw.boundary_residual(kite_512, sol, sources, t_chk) < 1e-6

    def test_self_convergence(self, kite_512):
        kite_256 = make_curve(ShapeSpec(kind="kite", n_nodes=256))
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2, side="exterior")
        a = fw.simulate_ring(kite_256, "soft", "exterior", 3.0, sources, 2.2, 64)
        b = fw.simulate_ring(kite_512, "soft", "exterior", 3.0, sources, 2.2, 64)
        assert np.abs(a.samples - b.samples).max() < 1e-8

    def test_reciprocity_kite(self, kite_512):
        # u_s(x; z) = u_s(z; x): both points on one circle so a single
        # equispaced source set contains them
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.5, count=8, side="exterior")
        pos = sources.positions
        samples = fw.solve_forward(kite_512, "soft", "exterior", 3.0, sources,
                                   np.array([pos[3], pos[0]]))
        assert samples[0, 0] == pytest.approx(samples[3, 1], rel=1e-8)

    @pytest.mark.parametrize("shape", ["kite", "starfish"])
    @pytest.mark.parametrize("side,bc", sorted(fw._OPERATORS))
    def test_reciprocity_matrix(self, shape, side, bc):
        # 12 sources and 12 receivers on one circle, both starting at angle 0:
        # samples[j, m] = u_s(x_m; z_j) = u_s(z_j; x_m) = samples[m, j]
        curve = make_curve(ShapeSpec(kind=shape, n_nodes=512))
        radius = 2.5 if side == "exterior" else 0.5
        sources = fw.SourceSet(center=(0.0, 0.0), radius=radius, count=12, side=side)
        s = fw.simulate_ring(curve, bc, side, 3.0, sources, radius, 12).samples
        assert np.abs(s - s.T).max() <= 1e-8 * np.abs(s).max()

    def test_resonance_guard(self):
        # the exterior Neumann single-layer representation breaks down at an
        # interior Dirichlet eigenvalue (k a = first J_0 zero)
        circ = make_curve(ShapeSpec(kind="circle", radius=1.0, n_nodes=256))
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1, side="exterior")
        with pytest.raises(fw.ResonanceError):
            fw.solve_densities(circ, "hard", "exterior", FIRST_J0_ZERO, sources)

    @pytest.mark.parametrize("side,bc", sorted(fw._OPERATORS))
    def test_pruned_operators_match_full(self, kite_512, side, bc):
        # each representation builds only its own blocks, bit for bit the
        # blocks an all-operators assembly gives, on and off the nodes
        k, all_ops = 3.0, ("S", "K", "K'")
        full = fw._kernel_blocks(kite_512, k, kite_512.t, kite_512.points,
                                 kite_512.tangents, diagonal=True, ops=all_ops)
        pruned = fw._boundary_operators(kite_512, k, side, bc)
        assert set(pruned) == set(fw._OPERATORS[(side, bc)])
        for name, block in pruned.items():
            assert np.array_equal(block, full[name])
        t_off = 2 * np.pi * (np.arange(37) + 0.531) / 37
        args = (kite_512, k, t_off, kite_512.position(t_off), kite_512.derivative(t_off))
        full = fw._kernel_blocks(*args, diagonal=False, ops=all_ops)
        for name, block in fw._kernel_blocks(*args, diagonal=False,
                                             ops=fw._OPERATORS[(side, bc)]).items():
            assert np.array_equal(block, full[name])

    def test_solve_leaves_global_rng_alone(self, kite_512):
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2, side="exterior")
        before = np.random.get_state()
        fw.solve_densities(kite_512, "hard", "exterior", 3.0, sources)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    def test_source_side_checks(self, unit_circle_512):
        inside = fw.SourceSet(center=(0.0, 0.0), radius=0.5, count=2, side="exterior")
        with pytest.raises(fw.GeometryError):
            fw.solve_densities(unit_circle_512, "soft", "exterior", 3.0, inside)
        outside = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2, side="interior")
        with pytest.raises(fw.GeometryError):
            fw.solve_densities(unit_circle_512, "soft", "interior", 3.0, outside)

    def test_representations(self, unit_circle_512):
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1, side="exterior")
        sol = fw.solve_densities(unit_circle_512, "soft", "exterior", 3.0, sources)
        assert sol.representation == "combined-layer"
        sol = fw.solve_densities(unit_circle_512, "hard", "exterior", 3.0, sources)
        assert sol.representation == "single-layer"
