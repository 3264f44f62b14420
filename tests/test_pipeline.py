import gc
import math
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearscat import formats
from nearscat import indicator as ind
from nearscat import pipeline
from nearscat.geometry import ShapeSpec, imaging_grid, make_curve
from nearscat.pipeline import (ConfigError, ScenarioConfig, convergence_study,
                               radial_boundary_error, reconstruct, render_pgm,
                               run_scenario)

SMALL = ScenarioConfig(side="exterior", bc="soft", shape="circle",
                       wavenumbers=(3.0,), delta=0.05, seed=7,
                       grid_nx=40, grid_ny=40, forward_nodes=256)


class TestConfig:
    def test_round_trip(self):
        cfg = ScenarioConfig(side="interior", bc="hard", shape="kite",
                             wavenumbers=(3.0, 4.5), delta=0.02, seed=11,
                             truncation=6)
        back = ScenarioConfig.from_text(cfg.to_text())
        assert back == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ScenarioConfig(shape="starfish", wavenumbers=(3.0, 6.0))
        path = tmp_path / "config.txt"
        cfg.to_file(path)
        assert ScenarioConfig.from_file(path) == cfg

    def test_comments_and_blanks(self):
        cfg = ScenarioConfig.from_text("# a comment\n\nside = interior\nseed = 3\n")
        assert cfg.side == "interior" and cfg.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_text("sidee = exterior\n")

    def test_side_defaults(self):
        ext = ScenarioConfig(side="exterior").resolved()
        assert ext.source_radius == 2.2 and ext.receiver_radius == 2.2
        assert ext.exclusion_radius is None
        inte = ScenarioConfig(side="interior").resolved()
        assert inte.source_radius == 0.5 and inte.receiver_radius == 0.5
        assert inte.exclusion_radius == 0.5

    def test_clean_data_needs_truncation(self):
        cfg = ScenarioConfig(delta=0.0)
        with pytest.raises(ValueError):
            cfg.truncation_for(3.0)
        assert ScenarioConfig(delta=0.0, truncation=9).truncation_for(3.0) == 9

    def test_nyquist_guard(self):
        cfg = ScenarioConfig(delta=0.05, truncation=20, receiver_count=32)
        with pytest.raises(ValueError):
            cfg.truncation_for(3.0)
        with pytest.raises(ConfigError, match="41 receivers"):
            cfg.resolved()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
_HARMONICS = st.lists(_FINITE, max_size=4).map(tuple)
# every config these draw passes validate(): 2N+1 <= 43 <= receiver_count
_VALID_CONFIGS = st.builds(
    ScenarioConfig,
    side=st.sampled_from(["exterior", "interior"]), bc=st.sampled_from(["soft", "hard"]),
    shape=st.sampled_from(["circle", "kite", "starfish", "trig"]),
    shape_radius=_POSITIVE, shape_center=st.tuples(_FINITE, _FINITE),
    shape_x_cos=_HARMONICS, shape_x_sin=_HARMONICS,
    shape_y_cos=_HARMONICS, shape_y_sin=_HARMONICS,
    wavenumbers=st.lists(_POSITIVE, min_size=1, max_size=4).map(tuple),
    delta=st.floats(min_value=1e-6, max_value=0.99),
    source_radius=st.none() | _POSITIVE, source_count=st.integers(1, 64),
    receiver_radius=st.none() | _POSITIVE, receiver_count=st.integers(43, 512),
    grid_xmin=_FINITE, grid_xmax=_FINITE, grid_ymin=_FINITE, grid_ymax=_FINITE,
    grid_nx=st.integers(2, 400), grid_ny=st.integers(2, 400),
    exclusion_radius=st.none() | st.floats(min_value=0.0, max_value=10.0),
    truncation=st.none() | st.integers(0, 21),
    mode_guard=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(-2**40, 2**40), forward_nodes=st.integers(8, 2048).map(lambda m: 2 * m))


class TestConfigValidation:
    @settings(max_examples=200, deadline=None)
    @given(cfg=_VALID_CONFIGS)
    def test_text_round_trip(self, cfg):
        cfg.validate()
        back = ScenarioConfig.from_text(cfg.to_text())
        assert back == cfg
        for f in fields(cfg):
            assert type(getattr(back, f.name)) is type(getattr(cfg, f.name)), f.name

    def test_empty_wavenumbers(self, tmp_path):
        with pytest.raises(ConfigError, match="no wavenumbers"):
            run_scenario(replace(SMALL, wavenumbers=()), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("k", [-3.0, 0.0, math.inf, math.nan])
    def test_nonpositive_or_nonfinite_wavenumber(self, tmp_path, k):
        with pytest.raises(ConfigError, match="finite and positive"):
            run_scenario(replace(SMALL, wavenumbers=(3.0, k)), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_shape_center_needs_two_entries(self, tmp_path):
        with pytest.raises(ConfigError, match="shape_center"):
            run_scenario(replace(SMALL, shape_center=(0.1,)), tmp_path / "run")
        with pytest.raises(ConfigError, match="shape_center"):
            ScenarioConfig.from_text("shape_center = 0.1, 0.2, 0.3\n").resolved()

    def test_unknown_side_and_bc(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(side="outside").resolved()
        with pytest.raises(ConfigError):
            ScenarioConfig(bc="sticky").resolved()

    def test_clean_data_error_is_named(self):
        with pytest.raises(ConfigError, match="clean data"):
            ScenarioConfig(delta=0.0).resolved()


class TestRunScenario:
    def test_outputs_and_determinism(self, tmp_path):
        r1 = run_scenario(SMALL, tmp_path / "a")
        for name in ("ring_k3.csv", "indicator_k3.csv", "indicator_k3.pgm",
                     "config.txt", "manifest.txt"):
            assert (tmp_path / "a" / name).exists()
        assert r1.truncation_by_k == {3.0: 3}
        r2 = run_scenario(SMALL, tmp_path / "b")
        assert r1.checksums == r2.checksums

    def test_seed_changes_outputs(self, tmp_path):
        r1 = run_scenario(SMALL, tmp_path / "a")
        r2 = run_scenario(replace(SMALL, seed=8), tmp_path / "b")
        assert r1.checksums["ring_k3.csv"] != r2.checksums["ring_k3.csv"]

    def test_close_wavenumbers_get_distinct_artifacts(self, tmp_path):
        # k = 3 and 3.0000001 both print as "3" under %g; neither run may
        # overwrite the other's files or manifest lines
        cfg = replace(SMALL, wavenumbers=(3.0, 3.0000001), grid_nx=20, grid_ny=20,
                      forward_nodes=128)
        result = run_scenario(cfg, tmp_path)
        for tag in ("3", "3.0000001"):
            for name in (f"ring_k{tag}.csv", f"indicator_k{tag}.csv",
                         f"indicator_k{tag}.pgm"):
                assert name in result.checksums and (tmp_path / name).exists()
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "# N_k3 = 3" in manifest and "# N_k3.0000001 = 3" in manifest
        assert sum(line.startswith("# sha256 ring_k") for line in manifest) == 2

    def test_config_echo_reproduces(self, tmp_path):
        r1 = run_scenario(SMALL, tmp_path / "a")
        echoed = ScenarioConfig.from_file(tmp_path / "a" / "config.txt")
        r2 = run_scenario(echoed, tmp_path / "b")
        assert r1.checksums == r2.checksums

    def test_multi_k_superposition_written(self, tmp_path):
        cfg = replace(SMALL, wavenumbers=(3.0, 4.0), bc="hard", delta=0.02)
        result = run_scenario(cfg, tmp_path / "m")
        assert (tmp_path / "m" / "indicator_multi.csv").exists()
        assert result.superposed is not None
        assert result.superposed.state == "normalized"

    def test_interior_warning_and_exclusions(self, tmp_path):
        cfg = replace(SMALL, side="interior", wavenumbers=(6.0,), delta=0.05)
        result = run_scenario(cfg, tmp_path / "i")
        assert any("J_0 zero" in w for w in result.warnings)

    def test_round_trip_of_written_grid(self, tmp_path):
        result = run_scenario(SMALL, tmp_path / "a")
        img = formats.read_grid_csv(result.files["indicator_k3.csv"])
        assert img.state == "normalized"
        live = ~img.grid.mask
        assert np.nanmax(img.values[live]) == pytest.approx(1.0)


class TestReconstruct:
    def test_matches_run_scenario_from_written_ring(self, tmp_path):
        # the written ring CSV is lossless, so one reconstruct call on it
        # repeats the run's raw image bit for bit
        result = run_scenario(SMALL, tmp_path)
        ring, _ = formats.read_ring_csv(result.files["ring_k3.csv"])
        cfg = SMALL.resolved()
        coeffs, image = reconstruct(ring, cfg.bc, cfg.grid(), cfg.truncation_for(3.0))
        assert coeffs.truncation == result.truncation_by_k[3.0]
        assert image.state == "raw" and image.kind == "soft"
        np.testing.assert_array_equal(image.values, result.images[3.0].values)
        with pytest.raises(ValueError, match="boundary condition"):
            reconstruct(ring, "Soft", cfg.grid(), 3)


class TestBenchmarkHooks:
    """perfbench/ rebinds these module attributes to trace and capture runs."""

    def test_span_targets_resolve(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans
        for module, attr, _, _ in spans.TARGETS:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    def test_simulate_ring_looked_up_per_k(self, tmp_path, monkeypatch):
        calls = []
        real = pipeline.simulate_ring

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "simulate_ring", counting)
        cfg = replace(SMALL, wavenumbers=(3.0, 4.0), grid_nx=20, grid_ny=20,
                      forward_nodes=128)
        run_scenario(cfg, tmp_path)
        assert calls == [3.0, 4.0]

    def test_geometry_shared_and_released_before_imaging(self, tmp_path, monkeypatch):
        # one Nystrom geometry serves every k and is freed by reference
        # counting alone (no cycle) before the first image is formed
        refs, alive_at_imaging = [], []
        real_simulate, real_reconstruct = pipeline.simulate_ring, pipeline.reconstruct

        def simulate(*args, geometry=None, **kwargs):
            refs.append(weakref.ref(geometry))
            return real_simulate(*args, geometry=geometry, **kwargs)

        def imaging(*args, **kwargs):
            alive_at_imaging.append(refs[0]() is not None)
            return real_reconstruct(*args, **kwargs)

        monkeypatch.setattr(pipeline, "simulate_ring", simulate)
        monkeypatch.setattr(pipeline, "reconstruct", imaging)
        cfg = replace(SMALL, wavenumbers=(3.0, 4.0), grid_nx=20, grid_ny=20,
                      forward_nodes=128)
        gc.disable()
        try:
            run_scenario(cfg, tmp_path)
        finally:
            gc.enable()
        assert len(refs) == 2 and refs[0] is refs[1]
        assert alive_at_imaging == [False, False]
        assert refs[0]() is None


class TestRadialBoundaryError:
    def test_synthetic_zero_on_truth(self):
        curve = make_curve(ShapeSpec(kind="circle", radius=1.0, n_nodes=256))
        grid = imaging_grid(-1.5, 1.5, -1.5, 1.5, 150, 150)
        values = np.ones(grid.n_points)
        for p in curve.points:
            idx = grid.index_of(p[0], p[1])
            values[idx] = 0.0
        img = ind.IndicatorImage(grid=grid, values=values, kind="soft",
                                 wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(grid.n_points, dtype=np.uint8))
        report = radial_boundary_error(img, curve)
        assert report.informative
        assert np.nanmax(report.distances) <= grid.spacing_x + 1e-12

    def test_constant_image_flagged(self):
        curve = make_curve(ShapeSpec(kind="circle", radius=1.0, n_nodes=64))
        grid = imaging_grid(-1.5, 1.5, -1.5, 1.5, 50, 50)
        img = ind.IndicatorImage(grid=grid, values=np.ones(grid.n_points),
                                 kind="soft", wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(grid.n_points, dtype=np.uint8))
        report = radial_boundary_error(img, curve)
        assert not report.informative
        assert math.isnan(report.median)

    def test_example1_median(self, example1_image, unit_circle_512):
        report = radial_boundary_error(example1_image, unit_circle_512)
        cell = example1_image.grid.spacing_x
        assert report.median <= 2 * cell

    def test_clean_vs_noisy_monotonicity(self, example1_ring, exterior_sources,
                                         paper_grid, unit_circle_512):
        from nearscat import continuation as ct
        from nearscat import noise as nz
        wins = 0
        seeds = range(5)
        for seed in seeds:
            med = {}
            for delta in (0.01, 0.05):
                ring = nz.add_noise(example1_ring, nz.NoiseSpec(level=delta, seed=seed))
                co = ct.compute_coefficients(ring, ct.truncation_order(delta, "exterior"))
                img = ind.indicator_soft(co, exterior_sources, paper_grid)
                med[delta] = radial_boundary_error(img, unit_circle_512).median
            wins += med[0.01] <= med[0.05]
        assert wins > len(seeds) // 2


class TestConvergenceStudy:
    def test_exterior_predictions_exact(self):
        report = convergence_study("exterior", deltas=(1e-2, 1e-3), seeds=(0,),
                                   clean_orders=range(4, 9))
        r1, r2, r3 = report.rates
        assert r1 == pytest.approx(4.4)
        assert r2 == pytest.approx(2.0)
        assert r3 == pytest.approx(2.2)
        assert report.predicted_exponent == pytest.approx(
            math.log(2.0) / math.log(4.4))
        assert report.predicted_exponent == pytest.approx(0.4678, abs=5e-4)

    def test_interior_predictions_exact(self):
        report = convergence_study("interior", deltas=(1e-2, 1e-3), seeds=(0,),
                                   clean_orders=range(4, 9))
        r1, r2, r3 = report.rates
        assert r1 == pytest.approx(2.4)
        assert report.gap == pytest.approx(0.2)
        assert r2 == pytest.approx(1.2)
        assert report.predicted_exponent == pytest.approx(0.2082, abs=5e-4)

    def test_interior_clean_ratio_within_factor_two(self):
        report = convergence_study("interior", deltas=(1e-2,), seeds=(0,))
        assert report.ratio_factor <= 2.0

    def test_summary_mentions_rule(self):
        report = convergence_study("exterior", deltas=(1e-2,), seeds=(0,),
                                   clean_orders=range(4, 7))
        assert "ln" in report.noise_rule or "floor" in report.noise_rule
        assert "fitted exponent" in report.summary()

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            convergence_study("exterior", analysis_radius=1.5)
        with pytest.raises(ValueError):
            convergence_study("elsewhere")


class TestRenderPgm:
    def test_render_from_csv(self, tmp_path):
        result = run_scenario(SMALL, tmp_path / "a")
        out = tmp_path / "img.pgm"
        render_pgm(result.files["indicator_k3.csv"], out, scale="linear")
        pix = formats.read_pgm(out)
        assert pix.shape == (40, 40)
        assert pix.max() == formats.PGM_MAXVAL

    def test_reciprocal_image_shows_bright_ring(self, tmp_path):
        # full standard scenario: the rendered reciprocal image has its row
        # maxima (through the center) within 2 cells of x = +-1
        cfg = ScenarioConfig(side="exterior", bc="soft", shape="circle",
                             wavenumbers=(3.0,), delta=0.05, seed=7)
        result = run_scenario(cfg, tmp_path / "ex1")
        pix = formats.read_pgm(result.files["indicator_k3.pgm"])
        xs = np.linspace(-1.5, 1.5, 150)
        cell = 3.0 / 149
        for row in (74, 75):                  # the two rows straddling y = 0
            line = pix[row]
            left = xs[np.argmax(line[:75])]
            right = xs[75 + np.argmax(line[75:])]
            assert abs(left + 1.0) <= 2 * cell
            assert abs(right - 1.0) <= 2 * cell
