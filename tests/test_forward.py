import gc
import mmap
import weakref

import numpy as np
import pytest
from scipy.special import hankel1

from nearscat import forward as fw
from nearscat.geometry import ShapeSpec, make_curve

from oracle_series import FIRST_J0_ZERO, h1_series, j_series, y0_series

_ALL_OPS = ("S", "K", "K'")
_KS = (2.5, 3.0, 4.0, 6.0)
_T_OFF = 2 * np.pi * (np.arange(37) + 0.531) / 37


def _log_weights_from_diff(dt, m_nodes):
    """Kress weights R_j(t) at targets off the nodes; dt holds t - t_j."""
    n = m_nodes // 2
    m = np.arange(1, n)
    acc = np.cos(dt[..., None] * m) / m
    return -(2.0 * np.pi / n) * acc.sum(axis=-1) - (np.pi / n**2) * np.cos(n * dt)


def _blocks_reference(curve, k, t_targets, pos_t, tan_t, diagonal, ops):
    """The Nystrom blocks as one function of k, with out-of-place arithmetic:
    the reference that the geometry plus per-k pass must match bit for bit.
    Each operator is factor (A1 (R_j - h ln 4 sin^2) + h full), with the
    weight on the nodes taken from the geometry's own weight function."""
    mm, h, spj = curve.n_nodes, 2.0 * np.pi / curve.n_nodes, curve.speed
    dt = t_targets[:, None] - curve.t[None, :]
    dx = pos_t[:, None, :] - curve.points[None, :, :]
    r = np.hypot(dx[..., 0], dx[..., 1])
    if diagonal:
        np.fill_diagonal(r, 1.0)
        w = fw._weight_circulant(mm)
        tg, sc = curve.tangents, curve.seconds
        dl_diag = (0.0, -(tg[:, 0] * sc[:, 1] - tg[:, 1] * sc[:, 0]) / (4.0 * np.pi * spj**2))
    else:
        w = _log_weights_from_diff(dt, mm) - h * np.log(4.0 * np.sin(0.5 * dt) ** 2)
        dl_diag = None
    kr = k * r

    def split(a1, full, factor, diag):
        block = (a1 * w + h * full) * factor
        if diag is not None:
            np.fill_diagonal(block, h * diag[1] + w[0, 0] * diag[0])
        return block

    blocks = {}
    if "S" in ops:
        j0 = fw._sp_j0(kr)
        s_diag = None
        if diagonal:
            s_diag = (-(0.25 / np.pi) * spj,
                      (0.25j - (np.log(0.5 * k * spj) + fw.EULER_GAMMA) / (2.0 * np.pi)) * spj)
        blocks["S"] = split(-(0.25 / np.pi) * j0, 0.25j * fw._hankel1(0, kr, j0),
                            spj[None, :], s_diag)
    j1 = fw._sp_j1(kr)
    c1 = (0.25 * k / np.pi) * j1 / r
    c_full = -0.25j * k * fw._hankel1(1, kr, j1) / r
    if "K" in ops:
        nj = np.column_stack([curve.tangents[:, 1], -curve.tangents[:, 0]])
        b_k = -(dx[..., 0] * nj[None, :, 0] + dx[..., 1] * nj[None, :, 1])
        blocks["K"] = split(c1, c_full, b_k, dl_diag)
    if "K'" in ops:
        nt = np.column_stack([tan_t[:, 1], -tan_t[:, 0]])
        b_kp = dx[..., 0] * nt[:, None, 0] + dx[..., 1] * nt[:, None, 1]
        b_kp *= spj[None, :] / np.hypot(tan_t[:, 0], tan_t[:, 1])[:, None]
        blocks["K'"] = split(c1, c_full, b_kp, dl_diag)
    return blocks


def _nodes(curve):
    """``_blocks_reference`` targets at the curve nodes."""
    return curve.t, curve.points, curve.tangents, True


def _trig_interp(values, t_star):
    mm = values.size
    c = np.fft.fft(values) / mm
    modes = np.where(np.arange(mm) < mm // 2, np.arange(mm), np.arange(mm) - mm)
    return np.exp(1j * np.outer(t_star, modes)) @ c


def boundary_residual(curve, sol, bc, side, sources, t_checkpoints):
    """Max relative residual of B(u_i + u_s) at off-node boundary parameters.

    The trace of the layer potential is the split-kernel quadrature of the
    solver's own ``_FORMULATIONS`` row at off-node targets
    (``_blocks_reference``), plus the jump term with a trigonometric
    interpolation of the density; each source's residual is scaled by the
    maximum of |B u_i| over the checkpoints.
    """
    t_star = np.atleast_1d(np.asarray(t_checkpoints, dtype=float))
    gap = np.abs((t_star[:, None] - curve.t[None, :] + np.pi) % (2 * np.pi) - np.pi)
    if gap.min() < 1e-10:
        raise ValueError("checkpoints must be off-node")
    _, ops, jump = fw._FORMULATIONS[(side, bc)]
    pos, tan = curve.position(t_star), curve.derivative(t_star)
    blocks = _blocks_reference(curve, sol.k, t_star, pos, tan, False, ops)
    main = blocks[ops[-1]]
    if "S" in blocks:
        main = main - 1j * sol.k * blocks["S"]
    phi_star = np.array([_trig_interp(p, t_star) for p in sol.density])
    normals = np.column_stack([tan[:, 1], -tan[:, 0]]) / np.hypot(tan[:, 0], tan[:, 1])[:, None]
    data = fw._boundary_data(bc, sol.k, sources, pos, normals)
    trace = sol.density @ main.T + jump * phi_star
    return float((np.abs(data + trace).max(axis=1) / np.abs(data).max(axis=1)).max())


class TestRingMeasurement:
    def _ring(self, side):
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
        return fw.RingMeasurement(radius=2.2, k=3.0, samples=np.ones((1, 8), complex),
                                  noise_level=0.0, side=side, sources=sources)

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="unknown side 'sideways'"):
            self._ring("sideways")

    def test_receivers_equispaced_from_zero(self):
        ring = self._ring("interior")
        assert ring.n_receivers == 8
        assert ring.angles.tobytes() == (2.0 * np.pi * np.arange(8) / 8).tobytes()


class TestIncidentField:
    def test_value_against_series_oracle(self):
        # k = 1, |x - z| = 1:  (i/4) H_0^(1)(1)
        want = 0.25j * complex(j_series(0, 1.0), y0_series(1.0))
        got = fw.incident_field(np.array([[1.0, 0.0]]), np.array([0.0, 0.0]), 1.0)[0]
        assert got == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(-0.0220642411 + 0.1912994216j, abs=1e-9)

    def test_depends_only_on_distance(self):
        x, z = np.array([0.3, 0.8]), np.array([-1.1, 0.2])
        k = 2.3
        assert fw.incident_field(x[None], z, k)[0] == fw.incident_field(z[None], x, k)[0]

    def test_k3_distance2(self):
        got = fw.incident_field(np.array([[2.0, 0.0]]), np.array([0.0, 0.0]), 3.0)[0]
        assert got == pytest.approx(0.25j * h1_series(0, 6.0), rel=1e-9)

    def test_singularity_error(self):
        with pytest.raises(fw.SingularityError):
            fw.incident_field(np.array([[1.0, 1.0]]), np.array([1.0, 1.0 + 1e-13]), 1.0)

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
        g = fw.incident_gradient(x[None], z, k)[0]
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (fw.incident_field(x[None] + e, z, k)[0]
                  - fw.incident_field(x[None] - e, z, k)[0]) / (2 * h)
            assert g[axis] == pytest.approx(fd, abs=1e-6)

    def test_antisymmetric_under_swap(self):
        x, z, k = np.array([0.9, -0.4]), np.array([-0.3, 1.2]), 3.0
        assert fw.incident_gradient(x[None], z, k)[0] == pytest.approx(
            -fw.incident_gradient(z[None], x, k)[0], rel=1e-14)

    def test_parallel_to_separation(self):
        x, z, k = np.array([1.4, 0.7]), np.array([0.2, -0.5]), 2.5
        g = fw.incident_gradient(x[None], z, k)[0]
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
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
        ring = fw.simulate_ring(unit_circle_512, "soft", "exterior", 3.0, sources,
                                2.2, 128)
        ref = fw.analytic_circle(1.0, "soft", "exterior", 3.0,
                                 sources.positions[0], ring.receiver_points)
        err = np.abs(ring.samples[0] - ref).max() / np.abs(ref).max()
        assert err < 1e-6

    def test_interior_hard_matches_oracle(self, unit_circle_512):
        sources = fw.SourceSet(center=(0.0, 0.0), radius=0.5, count=1)
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
        sources = fw.SourceSet(center=(0.0, 0.0), radius=radius, count=3)
        sol = fw.solve_densities(kite_512, bc, side, 3.0, sources)
        assert sol.system_residual < 1e-10
        assert boundary_residual(kite_512, sol, bc, side, sources, _T_OFF) < 1e-6

    def test_self_convergence(self, kite_512):
        kite_256 = make_curve(ShapeSpec(kind="kite", n_nodes=256))
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2)
        a = fw.simulate_ring(kite_256, "soft", "exterior", 3.0, sources, 2.2, 64)
        b = fw.simulate_ring(kite_512, "soft", "exterior", 3.0, sources, 2.2, 64)
        assert np.abs(a.samples - b.samples).max() < 1e-8

    def test_reciprocity_kite(self, kite_512):
        # u_s(x; z) = u_s(z; x): both points on one circle so a single
        # equispaced source set contains them
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.5, count=8)
        pos = sources.positions
        sol = fw.solve_densities(kite_512, "soft", "exterior", 3.0, sources)
        samples = fw.evaluate_scattered(kite_512, sol, np.array([pos[3], pos[0]]))
        assert samples[0, 0] == pytest.approx(samples[3, 1], rel=1e-8)

    @pytest.mark.parametrize("shape", ["kite", "starfish"])
    @pytest.mark.parametrize("side,bc", sorted(fw._FORMULATIONS))
    def test_reciprocity_matrix(self, shape, side, bc):
        # 12 sources and 12 receivers on one circle, both starting at angle 0:
        # samples[j, m] = u_s(x_m; z_j) = u_s(z_j; x_m) = samples[m, j]
        curve = make_curve(ShapeSpec(kind=shape, n_nodes=512))
        radius = 2.5 if side == "exterior" else 0.5
        sources = fw.SourceSet(center=(0.0, 0.0), radius=radius, count=12)
        s = fw.simulate_ring(curve, bc, side, 3.0, sources, radius, 12).samples
        assert np.abs(s - s.T).max() <= 1e-8 * np.abs(s).max()

    def test_resonance_guard(self):
        # the exterior Neumann single-layer representation breaks down at an
        # interior Dirichlet eigenvalue (k a = first J_0 zero)
        circ = make_curve(ShapeSpec(kind="circle", radius=1.0, n_nodes=256))
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
        with pytest.raises(fw.ResonanceError):
            fw.solve_densities(circ, "hard", "exterior", FIRST_J0_ZERO, sources)

    @pytest.mark.parametrize("side,bc", sorted(fw._FORMULATIONS))
    def test_pruned_operators_match_full(self, kite_512, side, bc):
        # each system builds only its own blocks, bit for bit the blocks an
        # all-operators assembly gives
        k = 3.0
        full = _blocks_reference(kite_512, k, *_nodes(kite_512), _ALL_OPS)
        pruned = fw.NystromGeometry(kite_512, bc, side).blocks(k)
        assert set(pruned) == set(fw._FORMULATIONS[(side, bc)][1])
        for name, block in pruned.items():
            assert np.array_equal(block, full[name])

    @pytest.mark.parametrize("shape", ["circle", "kite", "starfish"])
    @pytest.mark.parametrize("side,bc", sorted(fw._FORMULATIONS))
    def test_geometry_reuse_bit_identical(self, shape, side, bc):
        # one geometry serves every k, bit for bit as a fresh assembly and as
        # the out-of-place reference
        curve = make_curve(ShapeSpec(kind=shape, n_nodes=128))
        ops = fw._FORMULATIONS[(side, bc)][1]
        geometry = fw.NystromGeometry(curve, bc, side)
        for k in _KS:
            fresh = fw.NystromGeometry(curve, bc, side).blocks(k)
            reference = _blocks_reference(curve, k, *_nodes(curve), ops)
            blocks = geometry.blocks(k)
            assert set(blocks) == set(fresh) == set(ops)
            for name in ops:
                assert np.array_equal(blocks[name], fresh[name])
                assert np.array_equal(blocks[name], reference[name])

    @pytest.mark.parametrize("shape", ["circle", "kite", "starfish"])
    def test_all_operator_blocks_match_reference(self, shape):
        # S, K and K' of the four systems against one all-operators reference
        curve = make_curve(ShapeSpec(kind=shape, n_nodes=64))
        geometries = [fw.NystromGeometry(curve, bc, side) for side, bc in fw._FORMULATIONS]
        assert {name for g in geometries for name in g.ops} == set(_ALL_OPS)
        for k in _KS:
            reference = _blocks_reference(curve, k, *_nodes(curve), _ALL_OPS)
            for geometry in geometries:
                for name, block in geometry.blocks(k).items():
                    assert np.array_equal(block, reference[name])

    @pytest.mark.parametrize("side,bc", sorted(fw._FORMULATIONS))
    def test_system_matrix_in_place(self, kite_512, side, bc):
        # +-I/2 and -i k S applied in place: bit for bit the out-of-place sums
        k = 3.0
        ops = _blocks_reference(kite_512, k, *_nodes(kite_512), _ALL_OPS)
        half_eye = 0.5 * np.eye(kite_512.n_nodes)
        want = {("exterior", "soft"): lambda: half_eye + ops["K"] - 1j * k * ops["S"],
                ("exterior", "hard"): lambda: ops["K'"] - half_eye,
                ("interior", "soft"): lambda: ops["K"] - half_eye,
                ("interior", "hard"): lambda: ops["K'"] + half_eye}[(side, bc)]()
        assert np.array_equal(fw._system_matrix(kite_512, bc, side, k), want)

    @pytest.mark.parametrize("shape", ["circle", "kite", "starfish"])
    def test_distances_stored_as_distinct_values(self, shape):
        # radii[inverse] is |x_i - x_j| bit for bit off the diagonal (1 on it)
        curve = make_curve(ShapeSpec(kind=shape, n_nodes=128))
        mm = curve.n_nodes
        geometry = fw.NystromGeometry(curve, "soft", "exterior")
        radii, inverse = geometry.radii, geometry.inverse
        assert np.all(np.diff(radii) > 0.0)
        assert radii.size <= mm * (mm + 1) // 2
        assert inverse.dtype == np.intp and inverse.shape == (mm, mm)
        d = curve.points[:, None, :] - curve.points[None, :, :]
        r = np.hypot(d[..., 0], d[..., 1])
        off = ~np.eye(mm, dtype=bool)
        assert np.array_equal(radii[inverse][off], r[off])
        assert np.all(radii[inverse.diagonal()] == 1.0)

    @pytest.mark.parametrize("mm", [16, 64, 512, 1024])
    def test_weight_matches_its_definition(self, mm):
        # W_ij = R_j(t_i - t_j) - h ln(4 sin^2((t_i - t_j)/2)) off the diagonal
        # and R_0 on it, evaluated on the distinct differences t_i - t_j
        h = 2.0 * np.pi / mm
        t = 2.0 * np.pi * np.arange(mm) / mm
        diffs, idx = np.unique(t[:, None] - t[None, :], return_inverse=True)
        with np.errstate(divide="ignore"):
            table = (_log_weights_from_diff(diffs, mm)
                     - h * np.log(4.0 * np.sin(0.5 * diffs) ** 2))
        want = table[idx.reshape(mm, mm)]
        np.fill_diagonal(want, _log_weights_from_diff(np.zeros(1), mm)[0])
        got = fw._weight_circulant(mm)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert all(np.array_equal(got[i + 1], np.roll(got[i], 1)) for i in range(mm - 1))

    @pytest.mark.parametrize("side,bc", sorted(fw._FORMULATIONS))
    def test_bessel_calls_on_distinct_distances(self, monkeypatch, side, bc):
        # blocks(k) calls each Cephes routine on the distinct distances only
        curve = make_curve(ShapeSpec(kind="kite", n_nodes=128))
        geometry = fw.NystromGeometry(curve, bc, side)
        assert geometry.radii.size < curve.n_nodes ** 2 // 2
        sizes = {}
        for name in ("_sp_j0", "_sp_j1", "_sp_y0", "_sp_y1"):
            def counting(x, fn=getattr(fw, name), name=name):
                sizes.setdefault(name, []).append(np.size(x))
                return fn(x)
            monkeypatch.setattr(fw, name, counting)
        geometry.blocks(3.0)
        want = {"_sp_j1", "_sp_y1"} | ({"_sp_j0", "_sp_y0"} if "S" in geometry.ops else set())
        assert set(sizes) == want
        assert all(calls == [geometry.radii.size] for calls in sizes.values())

    @pytest.mark.parametrize("side,bc", sorted(fw._FORMULATIONS))
    def test_geometry_in_one_mapping_released_with_it(self, kite_512, side, bc):
        # the geometry's one M x M array, the distance index, sits in an
        # anonymous mapping of its own, off the malloc heap, and the mapping
        # is gone with the geometry (no cycle collector needed); W is a
        # read-only view of 2M - 1 values
        mm = kite_512.n_nodes
        geometry = fw.NystromGeometry(kite_512, bc, side)
        square = [name for name, value in vars(geometry).items()
                  if isinstance(value, np.ndarray) and value.size == mm * mm]
        assert sorted(square) == ["inverse", "weight"]
        assert not geometry.weight.flags.writeable
        assert np.array_equal(geometry.weight, fw._weight_circulant(mm))
        low, high = np.lib.array_utils.byte_bounds(geometry.weight)
        assert high - low == (2 * mm - 1) * 8
        owner = geometry.inverse
        while isinstance(owner, np.ndarray):
            owner = owner.base
        owner = owner.obj if isinstance(owner, memoryview) else owner
        assert isinstance(owner, mmap.mmap)
        assert len(owner) == mm ** 2 * 8
        assert np.shares_memory(geometry.inverse, np.frombuffer(owner))
        mapping = weakref.ref(owner)
        del owner
        gc.disable()
        try:
            geometry.blocks(3.0)
            del geometry
            assert mapping() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("side,bc", sorted(fw._FORMULATIONS))
    def test_operators_reach_lapack_f_ordered(self, monkeypatch, side, bc):
        # every block and every system matrix is F-contiguous, so lu_factor
        # copies it without transposing; the values are checked bit for bit
        # against _blocks_reference above
        curve = make_curve(ShapeSpec(kind="kite", n_nodes=128))
        geometry = fw.NystromGeometry(curve, bc, side)
        assert all(block.flags.f_contiguous for block in geometry.blocks(3.0).values())
        assert fw._system_matrix(curve, bc, side, 3.0).flags.f_contiguous
        layouts = []
        lu_factor = fw.sla.lu_factor

        def recording(a, *args, **kwargs):
            layouts.append(a.flags.f_contiguous)
            return lu_factor(a, *args, **kwargs)
        monkeypatch.setattr(fw.sla, "lu_factor", recording)
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2 if side == "exterior" else 0.3,
                               count=2)
        fw.solve_densities(curve, bc, side, 4.0, sources)
        assert layouts == [True]

    @pytest.mark.parametrize("side,bc", sorted(fw._FORMULATIONS))
    def test_solve_footprint(self, kite_512, traced_peak, side, bc):
        # with the geometry built, a solve holds the system matrix, LAPACK's
        # copy of it and blocks of ASSEMBLY_BLOCK entries: 34.0 M^2 bytes
        # traced for the single-operator systems (40.0 with the C-ordered
        # matrix and an M x M |a|); exterior soft adds S beside K and the
        # distinct-distance tables, 46.9 M^2 (50.9 before)
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2 if side == "exterior" else 0.3,
                               count=12)
        fw.solve_densities(kite_512, bc, side, 3.0, sources)
        _, peak = traced_peak(fw.solve_densities, kite_512, bc, side, 4.0, sources)
        bound = 48.0 if (side, bc) == ("exterior", "soft") else 36.0
        assert peak < bound * kite_512.n_nodes ** 2

    def test_curve_keeps_one_geometry(self, kite_512):
        # the curve holds the geometry of the last system solved on it: every
        # k shares it, another system replaces it, and rings and densities are
        # bit for bit those of a fresh curve
        with pytest.raises(ValueError, match="unknown problem variant"):
            fw.NystromGeometry(kite_512, "hard", "outside")
        spec = ShapeSpec(kind="kite", n_nodes=128)
        curve = make_curve(spec)
        assert curve.nystrom is None
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2)
        shared = []
        for k in (3.0, 4.0):
            want = fw.simulate_ring(make_curve(spec), "hard", "exterior", k, sources, 2.2, 16)
            got = fw.simulate_ring(curve, "hard", "exterior", k, sources, 2.2, 16)
            shared.append(curve.nystrom)
            assert np.array_equal(got.samples, want.samples)
        assert shared[0] is shared[1] is not None
        for bc in ("soft", "hard", "soft"):
            want = fw.solve_densities(make_curve(spec), bc, "exterior", 3.0, sources)
            got = fw.solve_densities(curve, bc, "exterior", 3.0, sources)
            assert curve.nystrom.ops == fw._FORMULATIONS[("exterior", bc)][1]
            assert np.array_equal(got.density, want.density)

    @pytest.mark.parametrize("count", [127, 128])
    def test_placement_on_boundary_rejected(self, count):
        # a receiver or source on a curve node (index 0 of either layout) is
        # refused before any solver work, ahead of the side check
        curve = make_curve(ShapeSpec(kind="circle", n_nodes=128))
        off = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2)
        on = fw.SourceSet(center=(0.0, 0.0), radius=1.0, count=count)
        with pytest.raises(fw.GeometryError, match="a receiver lies on the boundary"):
            fw.simulate_ring(curve, "soft", "exterior", 3.0, off, 1.0, count)
        with pytest.raises(fw.GeometryError, match="a source lies on the boundary"):
            fw.simulate_ring(curve, "soft", "exterior", 3.0, on, 2.2, 16)
        assert curve.nystrom is None

    def test_solve_leaves_global_rng_alone(self, kite_512):
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2)
        before = np.random.get_state()
        fw.solve_densities(kite_512, "hard", "exterior", 3.0, sources)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    def test_source_side_checks(self, unit_circle_512):
        inside = fw.SourceSet(center=(0.0, 0.0), radius=0.5, count=2)
        with pytest.raises(fw.GeometryError):
            fw.solve_densities(unit_circle_512, "soft", "exterior", 3.0, inside)
        outside = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2)
        with pytest.raises(fw.GeometryError):
            fw.solve_densities(unit_circle_512, "soft", "interior", 3.0, outside)

    def test_representations(self, unit_circle_512):
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
        sol = fw.solve_densities(unit_circle_512, "soft", "exterior", 3.0, sources)
        assert sol.representation == "combined-layer"
        sol = fw.solve_densities(unit_circle_512, "hard", "exterior", 3.0, sources)
        assert sol.representation == "single-layer"
