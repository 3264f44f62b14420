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
from nearscat.forward import analytic_circle
from nearscat.geometry import EXCLUSION_BAND, ShapeSpec, imaging_grid, make_curve
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

    def test_repeated_key_rejected(self):
        # the later line used to win silently
        with pytest.raises(ConfigError, match="config key 'seed' given twice"):
            ScenarioConfig.from_text("seed = 1\nside = exterior\nseed = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_text("sidee = exterior\n")

    @pytest.mark.parametrize("line,key", [("grid_nx = abc", "grid_nx"),
                                          ("wavenumbers = 3,x", "wavenumbers"),
                                          ("seed = 1.5", "seed")])
    def test_unparsable_value_names_key(self, line, key):
        with pytest.raises(ConfigError, match=f"config key '{key}': cannot parse"):
            ScenarioConfig.from_text(f"side = exterior\n{line}\n")

    @pytest.mark.parametrize("cfg", [ScenarioConfig(),
                                     ScenarioConfig(side="interior", grid_nx=300, grid_ny=300)])
    def test_standard_layouts_turn_onto_themselves(self, cfg):
        # the indicator takes the incident terms of a quarter of the sources
        # on these: a grid, mask or source change that loses the quarter turn
        # costs 4x the incident work
        cfg = cfg.resolved()
        sources = cfg.sources()
        assert sources.count % 4 == 0 and sources.center == (0.0, 0.0)
        assert cfg.grid().quarter_orbits() is not None

    def test_side_defaults(self):
        ext = ScenarioConfig(side="exterior").resolved()
        assert ext.source_radius == 2.2 and ext.receiver_radius == 2.2
        assert ext.exclusion_radius is None
        inte = ScenarioConfig(side="interior").resolved()
        assert inte.source_radius == 0.5 and inte.receiver_radius == 0.5
        assert inte.exclusion_radius == 0.5
        assert inte.grid().exclusion == (0.0, 0.0, 0.5)
        no_disk = ScenarioConfig(side="interior", exclusion_radius=0.0).resolved()
        assert no_disk.grid().exclusion is None and not no_disk.grid().mask.any()

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(), ScenarioConfig(side="interior"),
        ScenarioConfig(source_radius=2.2), ScenarioConfig(receiver_radius=2.2),
        ScenarioConfig(side="interior", source_radius=0.5, receiver_radius=0.5)])
    @pytest.mark.parametrize("builder", ["grid", "sources"])
    def test_builders_refuse_unresolved_config(self, cfg, builder):
        # an unresolved interior grid would lack the receiver disk, and
        # unresolved sources would have no radius
        with pytest.raises(ConfigError, match=r"call resolved\(\) first"):
            getattr(cfg, builder)()
        getattr(cfg.resolved(), builder)()

    def test_clean_data_needs_truncation(self):
        cfg = ScenarioConfig(delta=0.0)
        with pytest.raises(ValueError):
            cfg.truncation_order()
        assert ScenarioConfig(delta=0.0, truncation=9).truncation_order() == 9

    def test_nyquist_guard(self):
        cfg = ScenarioConfig(delta=0.05, truncation=20, receiver_count=32)
        with pytest.raises(ConfigError, match="41 receivers"):
            cfg.resolved()

    def test_run_scenario_checks_config_once(self, tmp_path, monkeypatch):
        # resolved() fills the side defaults and checks; the builders and
        # truncation_order() of the resolved config check nothing again
        calls, check, want = [], ScenarioConfig._check, SMALL.resolved()
        monkeypatch.setattr(ScenarioConfig, "_check", lambda cfg: calls.append(cfg) or check(cfg))
        run_scenario(SMALL, tmp_path / "run")
        assert calls == [want]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
_SMALL = st.floats(-0.1, 0.1)


def _harmonics(first):
    """A constant term (any finite value: it does not enter the signed area),
    a first harmonic drawn from ``first`` and up to two small higher ones."""
    return st.builds(lambda c, f, rest: (c, f, *rest), _FINITE, first,
                     st.lists(_SMALL, max_size=2))


_BOUNDS = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2, unique=True).map(sorted)


def _config_on_bounds(grid_x, grid_y, **kwargs) -> ScenarioConfig:
    return ScenarioConfig(grid_xmin=grid_x[0], grid_xmax=grid_x[1],
                          grid_ymin=grid_y[0], grid_ymax=grid_y[1], **kwargs)


def _corner_unmasked(cfg: ScenarioConfig) -> bool:
    """A grid corner lies outside the exclusion disk (by default the
    receiver circle, 0.5 unless set, inside a cavity)."""
    excl = cfg.exclusion_radius
    if excl is None and cfg.side == "interior":
        excl = 0.5 if cfg.receiver_radius is None else cfg.receiver_radius
    xs, ys = np.meshgrid((cfg.grid_xmin, cfg.grid_xmax), (cfg.grid_ymin, cfg.grid_ymax))
    return not excl or not np.all(np.hypot(xs, ys) <= excl * (1.0 + EXCLUSION_BAND))


# every config these draw passes resolved(): 2N+1 <= 43 <= receiver_count,
# increasing grid bounds, k r <= 500 hypot(10, 10) below cylfun.MAX_ARG, a
# trig shape runs counter-clockwise: a_1 d_1 >= 1 outweighs the at most
# 0.01 + 2 (0.02) + 3 (0.02) that the other harmonics take off the signed
# area, and the exclusion disk leaves a grid corner unmasked
_VALID_CONFIGS = st.builds(
    _config_on_bounds,
    side=st.sampled_from(["exterior", "interior"]), bc=st.sampled_from(["soft", "hard"]),
    shape=st.sampled_from(["circle", "kite", "starfish", "trig"]),
    shape_radius=_POSITIVE, shape_center=st.tuples(_FINITE, _FINITE),
    shape_x_cos=_harmonics(st.floats(1.0, 1e3)), shape_y_sin=_harmonics(st.floats(1.0, 1e3)),
    shape_x_sin=st.just(()) | _harmonics(_SMALL), shape_y_cos=st.just(()) | _harmonics(_SMALL),
    wavenumbers=st.lists(st.floats(1e-3, 500.0), min_size=1, max_size=4,
                         unique=True).map(tuple),
    delta=st.floats(min_value=1e-6, max_value=0.99),
    source_radius=st.none() | _POSITIVE, source_count=st.integers(1, 64),
    receiver_radius=st.none() | st.floats(1e-3, 10.0), receiver_count=st.integers(43, 512),
    grid_x=_BOUNDS, grid_y=_BOUNDS,
    grid_nx=st.integers(2, 400), grid_ny=st.integers(2, 400),
    exclusion_radius=st.none() | st.floats(min_value=0.0, max_value=10.0),
    truncation=st.none() | st.integers(0, 21),
    mode_guard=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 2**40), forward_nodes=st.integers(8, 2048).map(lambda m: 2 * m),
).filter(_corner_unmasked)


class TestConfigValidation:
    @settings(max_examples=200, deadline=None)
    @given(cfg=_VALID_CONFIGS)
    def test_text_round_trip(self, cfg):
        cfg.resolved()
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

    def test_repeated_wavenumber(self, tmp_path):
        # would write ring_k3 and indicator_k3 twice and superpose k = 3 with itself
        with pytest.raises(ConfigError, match="repeated wavenumbers"):
            run_scenario(replace(SMALL, wavenumbers=(3.0, 4.0, 3.0)), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("changes", [
        {"wavenumbers": (3.0, 4600.0)},                  # 4600 x receiver radius 2.2
        {"wavenumbers": (3.0, 1000.0), "grid_xmin": -8.0, "grid_ymax": 8.0},  # corner
        {"wavenumbers": (1e6,)}])
    def test_wavenumber_beyond_cylfun_ceiling(self, tmp_path, changes):
        # the continuation's Miller pass would take minutes at k = 1e6; the
        # config check refuses before any solve, without calling cylfun
        cfg = replace(SMALL, **changes)
        with pytest.raises(ConfigError, match="wavenumbers .* above the cylinder-function"):
            cfg.resolved()
        with pytest.raises(ConfigError, match="wavenumbers"):
            run_scenario(cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_wavenumber_at_cylfun_ceiling(self):
        # k = 4500 reaches k r = 9900 at the receivers (2.2) and 9546 at the
        # grid corner (1.5, 1.5): inside the ceiling
        replace(SMALL, wavenumbers=(4500.0,)).resolved()
        replace(SMALL, wavenumbers=(1000.0,), grid_xmax=7.0, grid_ymax=7.0).resolved()

    @pytest.mark.parametrize("key", ["source_radius", "receiver_radius"])
    @pytest.mark.parametrize("radius", [-2.2, 0.0, math.inf, math.nan])
    def test_nonpositive_or_nonfinite_radius(self, tmp_path, key, radius):
        with pytest.raises(ConfigError, match=f"{key} must be finite and positive"):
            run_scenario(replace(SMALL, **{key: radius}), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["grid_xmin", "grid_xmax", "grid_ymin", "grid_ymax"])
    @pytest.mark.parametrize("bound", [-math.inf, math.inf, math.nan])
    def test_nonfinite_grid_bound(self, tmp_path, key, bound):
        # an infinite bound still "increases", so only the finiteness check
        # stops it before any output is written
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            run_scenario(replace(SMALL, **{key: bound}), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_shape_center_needs_two_entries(self, tmp_path):
        with pytest.raises(ConfigError, match="shape_center"):
            run_scenario(replace(SMALL, shape_center=(0.1,)), tmp_path / "run")
        with pytest.raises(ConfigError, match="shape_center"):
            ScenarioConfig.from_text("shape_center = 0.1, 0.2, 0.3\n").resolved()

    @pytest.mark.parametrize("change,match", [
        pytest.param(dict(source_count=0), "source_count", id="no-sources"),
        pytest.param(dict(shape="blob"), "unknown shape kind", id="unknown-shape"),
        pytest.param(dict(shape_radius=0.0), "circle radius", id="zero-radius"),
        pytest.param(dict(shape="trig", shape_x_cos=(0.0, 1.0), shape_y_sin=(0.0, -1.0)),
                     "counter-clockwise", id="clockwise-trig"),
        pytest.param(dict(shape="trig", shape_x_cos=(0.0, 1.0)), "counter-clockwise",
                     id="degenerate-trig"),
        pytest.param(dict(shape="trig"), "counter-clockwise", id="empty-trig"),
        pytest.param(dict(shape="trig", shape_x_cos=(0.0, 0.1), shape_x_sin=(0.0, 1.0),
                          shape_y_sin=(0.0, 0.1, 1.0)), "crosses itself",
                     id="self-intersecting-trig"),
        pytest.param(dict(shape_radius=math.nan), "shape_radius must be finite",
                     id="nan-shape-radius"),
        pytest.param(dict(shape_radius=math.inf), "shape_radius must be finite",
                     id="infinite-shape-radius"),
        pytest.param(dict(shape_center=(0.0, math.nan)), "shape_center must be finite",
                     id="nan-shape-center"),
        pytest.param(dict(shape_center=(-math.inf, 0.0)), "shape_center must be finite",
                     id="infinite-shape-center"),
        pytest.param(dict(shape="trig", shape_x_cos=(0.0, 1.0), shape_y_sin=(0.0, math.nan)),
                     "shape_y_sin must be finite", id="nan-trig-harmonic"),
        pytest.param(dict(shape="trig", shape_x_sin=(0.0, math.inf), shape_y_cos=(0.0, 1.0)),
                     "shape_x_sin must be finite", id="infinite-trig-harmonic"),
        pytest.param(dict(forward_nodes=255), "n_nodes", id="odd-nodes"),
        pytest.param(dict(forward_nodes=14), "n_nodes", id="too-few-nodes"),
        pytest.param(dict(grid_nx=1), "grid_nx and grid_ny", id="one-column"),
        pytest.param(dict(grid_ny=0), "grid_nx and grid_ny", id="no-rows"),
        pytest.param(dict(grid_xmin=1.5, grid_xmax=-1.5), "grid bounds", id="inverted-x"),
        pytest.param(dict(grid_ymin=0.5, grid_ymax=0.5), "grid bounds", id="flat-y"),
        pytest.param(dict(truncation=3, delta=1.0), "noise level", id="delta-one"),
        pytest.param(dict(truncation=3, delta=-0.1), "noise level", id="negative-delta"),
        pytest.param(dict(truncation=-1), "truncation must be >= 0", id="negative-truncation"),
        pytest.param(dict(seed=-1), "seed must be >= 0", id="negative-seed"),
        pytest.param(dict(seed=1.5), "seed must be an integer", id="fractional-seed"),
        pytest.param(dict(grid_nx=150.0), "grid_nx must be an integer", id="float-grid-nx"),
        pytest.param(dict(receiver_count=64.0), "receiver_count must be an integer",
                     id="float-receiver-count"),
        pytest.param(dict(forward_nodes=256.0), "forward_nodes must be an integer",
                     id="float-forward-nodes"),
        pytest.param(dict(truncation=3.0), "truncation must be an integer",
                     id="float-truncation"),
        pytest.param(dict(side="interior", mode_guard=math.nan), "mode_guard", id="nan-guard"),
        pytest.param(dict(side="interior", exclusion_radius=math.nan), "exclusion_radius",
                     id="nan-exclusion"),
        pytest.param(dict(exclusion_radius=-1.0), "exclusion_radius", id="negative-exclusion"),
        pytest.param(dict(side="interior", exclusion_radius=math.inf), "exclusion_radius",
                     id="infinite-exclusion"),
        pytest.param(dict(side="interior", shape="kite", grid_xmin=-0.3, grid_xmax=0.3,
                          grid_ymin=-0.3, grid_ymax=0.3, grid_nx=20, grid_ny=20,
                          forward_nodes=128), "exclusion_radius 0.5 masks the whole",
                     id="grid-inside-exclusion"),
        pytest.param(dict(shape="kite", source_radius=0.5),
                     "exterior problem but a source is inside", id="source-inside-kite"),
        pytest.param(dict(receiver_radius=0.5),
                     "exterior problem but a receiver is inside", id="receiver-inside"),
        pytest.param(dict(side="interior", source_radius=1.2),
                     "interior problem but a source is outside", id="source-outside-cavity"),
    ])
    def test_malformed_config_rejected_before_output(self, tmp_path, change, match):
        with pytest.raises(ConfigError, match=match):
            run_scenario(replace(SMALL, **change), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_truncation_beyond_cylfun_tables(self, tmp_path):
        # the gradient reads order N + 1 of tables that end at cylfun.MAX_ORDER
        cfg = ScenarioConfig(truncation=200, receiver_count=402, grid_nx=8, grid_ny=8,
                             delta=0.0, forward_nodes=128)
        with pytest.raises(ConfigError, match="truncation 200 above 199"):
            run_scenario(cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()
        replace(cfg, truncation=199).resolved()

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
        coeffs, image = reconstruct(ring, cfg.bc, cfg.grid(), cfg.truncation_order())
        assert coeffs.truncation == result.truncation_by_k[3.0]
        assert image.state == "raw" and image.kind == "soft"
        np.testing.assert_array_equal(image.values, result.images[3.0].values)
        with pytest.raises(ValueError, match="boundary condition"):
            reconstruct(ring, "Soft", cfg.grid(), 3)
        with pytest.raises(ValueError, match="truncation must be >= 0, got -1"):
            reconstruct(ring, "soft", cfg.grid(), -1)


class TestBenchmarkHooks:
    """perfbench/ rebinds these module attributes to trace and capture runs."""

    def test_span_targets_resolve(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans
        for module, attr, _, _ in spans.TARGETS:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    def test_traced_run_reaches_every_span(self, tmp_path, monkeypatch):
        # a rebound name that the pipeline no longer calls through its module
        # would leave its span empty
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans
        tracer = spans.Tracer()
        cfg = replace(SMALL, bc="hard", wavenumbers=(3.0, 4.0), grid_nx=20, grid_ny=20,
                      forward_nodes=128)
        with tracer.operation(0):
            run_scenario(cfg, tmp_path)
        assert {s.name for s in tracer.op_spans(0)} == set(spans.TIME_METRICS)
        counts = tracer.exact_counts(0)
        assert counts["indicator.points"] == 2 * 20 * 20
        # boundary data of the node ladder's one trial solve (k = 4 passes on
        # 64 nodes, and its ring reuses that solve) and of k = 3's solve, per
        # source; and per wavenumber the indicator's 3 of 12 sources, whose
        # quarter turns give the other 9 on the centred square grid
        assert counts["forward.incident.points"] == 2 * (12 * 64 + 3 * 20 * 20)

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

    def test_reference_ring_hook(self):
        # perfbench/make_refs.py records reference rings with this call, on a
        # curve of twice the config's nodes
        cfg = replace(SMALL, shape="kite", wavenumbers=(3.0, 4.0), forward_nodes=32).resolved()
        fine = pipeline.make_curve(cfg.shape_spec(n_nodes=2 * cfg.forward_nodes))
        for k in cfg.wavenumbers:
            ring = pipeline.simulate_ring(fine, cfg.bc, cfg.side, k, cfg.sources(),
                                          cfg.receiver_radius, cfg.receiver_count)
            assert ring.k == k and ring.radius == cfg.receiver_radius
            assert ring.samples.shape == (cfg.source_count, cfg.receiver_count)

    def test_geometry_shared_and_released_before_imaging(self, tmp_path, monkeypatch):
        # one curve serves every k and is freed by reference counting alone
        # (no cycle) before the first image is formed
        refs, alive_at_imaging = [], []
        real_simulate, real_reconstruct = pipeline.simulate_ring, pipeline.reconstruct

        def simulate(curve, *args, **kwargs):
            ring = real_simulate(curve, *args, **kwargs)
            refs.append(weakref.ref(curve))
            return ring

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
        values[grid.index_of(curve.points[:, 0], curve.points[:, 1])] = 0.0
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
        report = convergence_study("exterior", seeds=(0,))
        r1, r2, r3 = report.rates
        assert r1 == pytest.approx(4.4)
        assert r2 == pytest.approx(2.0)
        assert r3 == pytest.approx(2.2)
        assert report.predicted_exponent == pytest.approx(
            math.log(2.0) / math.log(4.4))
        assert report.predicted_exponent == pytest.approx(0.4678, abs=5e-4)

    def test_interior_predictions_exact(self):
        report = convergence_study("interior", seeds=(0,))
        r1, r2, r3 = report.rates
        assert r1 == pytest.approx(2.4)
        assert report.gap == pytest.approx(0.2)
        assert r2 == pytest.approx(1.2)
        assert report.predicted_exponent == pytest.approx(0.2082, abs=5e-4)

    def test_interior_clean_ratio_within_factor_two(self):
        report = convergence_study("interior", seeds=(0,))
        assert report.ratio_factor <= 2.0

    def test_summary_mentions_rule(self):
        report = convergence_study("exterior", seeds=(0,))
        assert "ln" in report.noise_rule or "floor" in report.noise_rule
        assert "fitted exponent" in report.summary()

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            convergence_study("elsewhere")

    @pytest.mark.parametrize("k", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_bad_wavenumber(self, k, monkeypatch):
        # refused before the oracle runs, with k named
        monkeypatch.setattr(pipeline, "analytic_circle", None)
        with pytest.raises(ValueError, match="k must be finite and positive"):
            convergence_study("exterior", k=k)


class TestRenderPgm:
    def test_render_from_csv(self, tmp_path):
        result = run_scenario(SMALL, tmp_path / "a")
        out = tmp_path / "img.pgm"
        render_pgm(result.files["indicator_k3.csv"], out, clip_percent=100.0)
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


def test_every_public_name_resolves():
    import nearscat
    assert [name for name in nearscat.__all__ if not hasattr(nearscat, name)] == []


class TestNodeLadder:
    """forward_nodes is the ceiling: rings are solved on the coarsest curve
    whose largest-k solve passes the reciprocity and density-tail checks."""

    @pytest.mark.parametrize("name,nodes", [("ext_hard_circle_dense", 64),
                                            ("ext_soft_kite", 128),
                                            ("int_hard_kite_fine", 256)])
    def test_benchmark_workloads(self, monkeypatch, name, nodes):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
        rings, used, warnings = pipeline.simulate_rings(workloads.scenario(name, 7).resolved())
        assert used == nodes and not warnings
        assert all(ring.reciprocity <= pipeline.RECIPROCITY_TOL for ring in rings)

    def test_one_source_uses_the_ceiling(self, monkeypatch):
        solves = []
        real = pipeline.forward.solve_densities
        monkeypatch.setattr(pipeline.forward, "solve_densities",
                            lambda curve, *a: solves.append(curve.n_nodes) or real(curve, *a))
        cfg = replace(SMALL, source_count=1, forward_nodes=128).resolved()
        rings, used, warnings = pipeline.simulate_rings(cfg)
        assert used == 128 and solves == [128] and not warnings
        assert math.isnan(rings[0].reciprocity)

    def test_ceiling_warning(self):
        # 512 nodes resolve nothing at k = 80 on the kite: ring error 1.9e-2;
        # the reciprocity tolerance named is 1.5 eps times the condition estimate
        cfg = replace(SMALL, shape="kite", wavenumbers=(80.0,), forward_nodes=512).resolved()
        rings, used, warnings = pipeline.simulate_rings(cfg)
        assert used == 512 and len(warnings) == 2
        assert warnings[0] == ("forward_nodes = 512 does not pass the accuracy checks at "
                               "k = 80: 4.7 nodes per wavelength (at least 6), reciprocity "
                               "error 2.7e-03 (at most 2.3e-14), density tail 6.2e-01 (at most "
                               "0.01)")
        assert warnings[1].startswith("k = 80: reciprocity error 2.7e-03 above 1e-06")

    def test_condition_scaled_reciprocity_tolerance(self):
        # the exterior hard (single-layer) system's reciprocity error has a
        # floor near eps * cond: 2.5e-13 at 0.93 eps * cond on 128 nodes at
        # k = 20, so a fixed 1e-14 refused every count up to the ceiling
        cfg = replace(SMALL, bc="hard", wavenumbers=(20.0,), forward_nodes=512).resolved()
        rings, used, warnings = pipeline.simulate_rings(cfg)
        assert used == 128 and not warnings
        ring = rings[0]
        for row, z in zip(ring.samples, ring.sources.positions):
            ref = analytic_circle(1.0, "hard", "exterior", 20.0, z, ring.receiver_points)
            assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_manifest_records_nodes_estimates_and_warnings(self, tmp_path):
        cfg = replace(SMALL, side="interior", shape="kite", forward_nodes=64, grid_nx=20,
                      grid_ny=20)
        result = run_scenario(cfg, tmp_path)
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "# forward_nodes_used = 64" in manifest
        assert "# reciprocity_k3 = 1.9e-04" in manifest
        assert f"# warning: {result.warnings[0]}" in manifest
        assert [w.split(":")[0] for w in result.warnings] == [
            "forward_nodes = 64 does not pass the accuracy checks at k = 3", "k = 3"]

    def test_wavelength_floor(self):
        # 64 nodes would pass both checks on the interior circle at k = 20.2
        # with a ring error of 2e-3: the kernel is sampled too coarsely
        cfg = replace(SMALL, side="interior", bc="hard", wavenumbers=(20.2,),
                      forward_nodes=512, receiver_count=16).resolved()
        (ring,), used, _ = pipeline.simulate_rings(cfg)
        ref = np.array([pipeline.analytic_circle(1.0, "hard", "interior", 20.2, z,
                                                 ring.receiver_points)
                        for z in cfg.sources().positions])
        assert used == 128
        assert np.abs(ring.samples - ref).max() <= 1e-12 * np.abs(ref).max()
        # a ceiling below the floor is used, with a warning, whatever it reads
        _, used, warnings = pipeline.simulate_rings(replace(cfg, forward_nodes=64))
        assert used == 64
        assert warnings[0].startswith("forward_nodes = 64 does not pass the accuracy checks at "
                                      "k = 20.2: 3.2 nodes per wavelength (at least 6)")

    def test_receivers_nearer_the_boundary_than_the_sources(self):
        # a layer potential needs more nodes near the boundary: on 64 nodes
        # the ring at radius 1.2 is off by 1e-5 while the sources at 2.2
        # read roundoff, so the checks also run on sources at radius 1.2
        cfg = replace(SMALL, receiver_radius=1.2, receiver_count=16, forward_nodes=512).resolved()
        (ring,), used, warnings = pipeline.simulate_rings(cfg)
        ref = np.array([pipeline.analytic_circle(1.0, "soft", "exterior", 3.0, z,
                                                 ring.receiver_points)
                        for z in cfg.sources().positions])
        assert used == 256 and not warnings
        assert np.abs(ring.samples - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_coarse_polygon_cannot_refuse_a_point(self):
        # receivers 1e-4 inside the unit circle, halfway along the chords of
        # the 64-node polygon, lie outside it: the ladder skips that curve
        # instead of refusing the config, and no coarser curve than the
        # ceiling resolves a ring that near the boundary
        cfg = replace(SMALL, side="interior", receiver_radius=0.9999).resolved()
        coarse = pipeline.make_curve(cfg.shape_spec(64))
        with pytest.raises(pipeline.GeometryError, match="outside the cavity"):
            pipeline.forward._check_placement(coarse, "interior",
                                              pipeline.ring_points(0.9999, 128), "receiver")
        _, used, warnings = pipeline.simulate_rings(cfg)
        assert used == cfg.forward_nodes
        assert warnings[0].startswith("forward_nodes = 256 does not pass the accuracy checks")
