"""Scenario orchestration: simulate -> noise -> truncate -> continue ->
indicate -> render, plus convergence-rate studies and boundary-localization
diagnostics.

A scenario is described by a flat ``key = value`` config (see
``ScenarioConfig``); ``run_scenario`` writes, per wavenumber, the noisy
ring CSV, the normalized indicator grid CSV and a reciprocal-image PGM,
plus a superposed image when several wavenumbers are given, a
round-trippable ``config.txt`` and a ``manifest.txt`` with sha-256
checksums of every artifact.  Identical config + seed reproduces
identical checksums at a fixed BLAS thread count (``OPENBLAS_NUM_THREADS``):
OpenBLAS's threaded products round the entries at a thread split
differently, so the ring and indicator CSVs of 1 and 2 threads differ in
last bits.
"""

from __future__ import annotations

import io
import math
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import continuation as ct
from . import cylfun, formats, forward
from . import indicator as ind
from .formats import render_pgm  # perfbench's render step calls pipeline.render_pgm
from .forward import DensitySolution, GeometryError, analytic_circle, simulate_ring
from .geometry import (BoundaryCurve, ImagingGrid, IndicatorImage, RingMeasurement, ShapeSpec,
                       SourceSet, equispaced_angles, imaging_grid, make_curve, ring_points)
from .noise import NoiseSpec, add_noise

FIRST_J0_ZERO = 2.404825557695773
LADDER_START = 64        # forward_curve's coarsest node count,
NODES_PER_WAVELENGTH = 6  # and its fewest nodes per wavelength along the boundary
# forward_curve's acceptance of a node count, set by the study in CHANGES.md:
# every accepted count read a reciprocity error <= 5.7e-15 and a tail <= 5.6e-3;
# the refused count nearest the tolerance read 1.1e-14, at a ring error of 1.1e-13
RECIPROCITY_TOL = 1e-14
# or at most RECIPROCITY_COND * eps * the condition estimate, the rounding floor
# of an ill-conditioned system: converged counts read up to 1.1 of eps * cond
# (the exterior hard circle at k = 20: 0.93), under-resolved ones 2.1 and more
RECIPROCITY_COND = 1.5
DENSITY_TAIL_TOL = 1e-2
FORWARD_WARN = 1e-6      # a ring's reciprocity error above this warns (the A2 gate)
N_RAYS = 64              # rays of radial_boundary_error
STUDY_SOURCES = 12       # sources of convergence_study, on the measurement circle
STUDY_POINTS = 256       # its receivers, and its points on the boundary
STUDY_DELTAS = (1e-2, 1e-3, 1e-4)   # its noise levels


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    """A scenario config that cannot describe a run."""


_RING_RADIUS = {"exterior": 2.2, "interior": 0.5}     # source/receiver default per side


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description; unset radii default per problem side.

    Side defaults mirror the standard setup: sources/receivers at radius
    2.2 (exterior) or 0.5 (interior), imaging grid 150x150 on
    [-1.5, 1.5]^2, the interior grid excluding the measurement disk.
    """

    side: str = "exterior"
    bc: str = "soft"
    shape: str = "circle"
    shape_radius: float = 1.0
    shape_center: tuple[float, float] = (0.0, 0.0)
    shape_x_cos: tuple[float, ...] = ()
    shape_x_sin: tuple[float, ...] = ()
    shape_y_cos: tuple[float, ...] = ()
    shape_y_sin: tuple[float, ...] = ()
    wavenumbers: tuple[float, ...] = (3.0,)
    delta: float = 0.05
    source_radius: float | None = None
    source_count: int = 12
    receiver_radius: float | None = None
    receiver_count: int = 128
    grid_xmin: float = -1.5
    grid_xmax: float = 1.5
    grid_ymin: float = -1.5
    grid_ymax: float = 1.5
    grid_nx: int = 150
    grid_ny: int = 150
    exclusion_radius: float | None = None
    truncation: int | None = None
    mode_guard: float = ct.DEFAULT_MODE_GUARD
    seed: int = 1
    forward_nodes: int = 512     # largest Nystrom node count; see forward_curve

    def resolved(self) -> "ScenarioConfig":
        """The config with the side defaults filled in (source and receiver radius;
        inside a cavity, the receiver disk excluded from the grid), checked."""
        if self.side not in _RING_RADIUS:
            raise ConfigError(f"unknown side {self.side!r}")
        ring_default = _RING_RADIUS[self.side]
        src = self.source_radius if self.source_radius is not None else ring_default
        rec = self.receiver_radius if self.receiver_radius is not None else ring_default
        excl = self.exclusion_radius
        if excl is None and self.side == "interior":
            excl = rec
        cfg = replace(self, source_radius=src, receiver_radius=rec, exclusion_radius=excl)
        cfg._check()
        return cfg

    def _check(self) -> None:
        """ConfigError unless this resolved config can run every wavenumber (README
        lists the checks; shape and noise rules are ``ShapeSpec``'s and ``NoiseSpec``'s)."""
        if self.bc not in ("soft", "hard"):
            raise ConfigError(f"unknown boundary condition {self.bc!r}")
        if not self.wavenumbers:
            raise ConfigError("no wavenumbers given")
        if not all(0.0 < k < math.inf for k in self.wavenumbers):
            raise ConfigError(f"wavenumbers must be finite and positive: {self.wavenumbers}")
        if len(set(self.wavenumbers)) != len(self.wavenumbers):
            raise ConfigError(f"repeated wavenumbers: {self.wavenumbers}")
        for key in _INT_KEYS:
            value = getattr(self, key)
            if value is not None and not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if len(self.shape_center) != 2:
            raise ConfigError(f"shape_center needs 2 entries, got {self.shape_center}")
        for key in ("shape_radius", "shape_center", "shape_x_cos", "shape_x_sin",
                    "shape_y_cos", "shape_y_sin", "grid_xmin", "grid_xmax", "grid_ymin",
                    "grid_ymax"):
            if not np.all(np.isfinite(getattr(self, key))):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        try:
            self.shape_spec().validate()
            NoiseSpec(level=self.delta, seed=self.seed).validate()
            ct._check_truncation(self.truncation_order(), self.receiver_count)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.source_count < 1:
            raise ConfigError(f"source_count must be >= 1, got {self.source_count}")
        for key in ("source_radius", "receiver_radius"):
            radius = getattr(self, key)
            if not 0.0 < radius < math.inf:
                raise ConfigError(f"{key} must be finite and positive, got {radius}")
        excl = self.exclusion_radius
        if excl is not None and not 0.0 <= excl < math.inf:
            raise ConfigError(f"exclusion_radius must be finite and >= 0, got {excl}")
        if min(self.grid_nx, self.grid_ny) < 2:
            raise ConfigError(f"grid_nx and grid_ny must be >= 2, "
                              f"got {self.grid_nx} and {self.grid_ny}")
        if not (self.grid_xmax > self.grid_xmin and self.grid_ymax > self.grid_ymin):
            raise ConfigError(f"grid bounds must increase: x [{self.grid_xmin}, "
                              f"{self.grid_xmax}], y [{self.grid_ymin}, {self.grid_ymax}]")
        # the continuation evaluates cylinder functions at k r out to the
        # farther grid corner and at the receiver radius
        corner = math.hypot(max(abs(self.grid_xmin), abs(self.grid_xmax)),
                            max(abs(self.grid_ymin), abs(self.grid_ymax)))
        radius = max(corner, self.receiver_radius)
        if max(self.wavenumbers) * radius > cylfun.MAX_ARG:
            raise ConfigError(
                f"wavenumbers {self.wavenumbers} reach k r = {max(self.wavenumbers) * radius:g} "
                f"at radius {radius:g} (farther grid corner or receiver_radius), above the "
                f"cylinder-function ceiling {cylfun.MAX_ARG:g}")
        # the disk grid() masks holds the whole grid when it masks the four
        # corners, the 2 x 2 grid on the same bounds
        if excl and imaging_grid(self.grid_xmin, self.grid_xmax, self.grid_ymin, self.grid_ymax,
                                 2, 2, exclusion=((0.0, 0.0), excl)).mask.all():
            raise ConfigError(f"exclusion_radius {excl:g} masks the whole imaging grid: "
                              f"its four corners lie in the disk")
        if not self.mode_guard >= 0.0:
            raise ConfigError(f"mode_guard must be >= 0, got {self.mode_guard}")

    # -- geometry builders ---------------------------------------------------

    def shape_spec(self, n_nodes: int | None = None) -> ShapeSpec:
        return ShapeSpec(kind=self.shape, center=self.shape_center,
                         radius=self.shape_radius,
                         x_cos=self.shape_x_cos, x_sin=self.shape_x_sin,
                         y_cos=self.shape_y_cos, y_sin=self.shape_y_sin,
                         n_nodes=n_nodes or self.forward_nodes)

    def curve(self) -> BoundaryCurve:
        return make_curve(self.shape_spec())

    def _require_resolved(self) -> None:
        """ConfigError unless ``resolved`` has filled the side defaults."""
        if (self.source_radius is None or self.receiver_radius is None
                or self.side == "interior" and self.exclusion_radius is None):
            raise ConfigError("config has unset side defaults: call resolved() first")

    def sources(self) -> SourceSet:
        """The source circle of a resolved config."""
        self._require_resolved()
        return SourceSet(center=(0.0, 0.0), radius=self.source_radius, count=self.source_count)

    def grid(self) -> ImagingGrid:
        """The imaging grid of a resolved config, its exclusion disk masked."""
        self._require_resolved()
        excl = ((0.0, 0.0), self.exclusion_radius) if self.exclusion_radius else None
        return imaging_grid(self.grid_xmin, self.grid_xmax, self.grid_ymin,
                            self.grid_ymax, self.grid_nx, self.grid_ny, exclusion=excl)

    def truncation_order(self) -> int:
        """Truncation N: ``truncation``, else the noise rule for ``delta``."""
        if self.truncation is not None:
            return self.truncation
        return ct.truncation_order(self.delta, self.side)

    # -- flat text form --------------------------------------------------------

    def to_text(self) -> str:
        out = io.StringIO()
        for f_ in fields(self):
            value = getattr(self, f_.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(repr(v) for v in value)
            out.write(f"{f_.name} = {value}\n")
        return out.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        return cls(**_config_items(text))

    def to_file(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="ascii")

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        return cls.from_text(Path(path).read_text(encoding="ascii"))


def _config_items(text: str) -> dict:
    """The keys a config text sets, with their parsed values."""
    kwargs: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if key in kwargs:
            raise ConfigError(f"config key {key!r} given twice")
        kwargs[key] = _parse_value(key, value)
    return kwargs


_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)


def _value_type(key: str) -> type:
    """Scalar type of a config field: X for ``X``, ``X | None`` and the
    items of ``tuple[X, ...]``."""
    hint = _FIELD_TYPES[key]
    return next((a for a in typing.get_args(hint) if a not in (type(None), Ellipsis)), hint)


_INT_KEYS = [key for key in _FIELD_TYPES if _value_type(key) is int]


def _parse_value(key: str, value: str):
    convert = _value_type(key)
    many = typing.get_origin(_FIELD_TYPES[key]) is tuple
    try:
        if many:
            return tuple(convert(v) for v in value.split(",")) if value else ()
        return convert(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as "
                          f"{'comma-separated ' if many else ''}{convert.__name__}") from None


# ---------------------------------------------------------------------------
# Scenario run
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    files: dict[str, Path]
    truncation_by_k: dict[float, int]
    excluded_by_k: dict[float, list[int]]
    checksums: dict[str, str]
    images: dict[float, IndicatorImage]
    superposed: IndicatorImage | None
    warnings: list[str]


def _k_tag(k: float) -> str:
    """Artifact-name tag for k: the short %g form when it reads back as k,
    else the exact repr, so that distinct wavenumbers never share a tag."""
    tag = f"{k:g}"
    return tag if float(tag) == k else repr(k)


def reconstruct(ring: RingMeasurement, bc: str, grid: ImagingGrid, truncation: int,
                mode_guard: float = ct.DEFAULT_MODE_GUARD):
    """One wavenumber's imaging step on ``ring``: the Fourier coefficients up
    to order ``truncation`` (interior modes with |J_n(kR)| < mode_guard
    dropped) and the raw ``bc`` indicator image on ``grid``."""
    if bc not in ("soft", "hard"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    coeffs = ct.compute_coefficients(ring, truncation, mode_guard)
    indicator = ind.indicator_soft if bc == "soft" else ind.indicator_hard
    return coeffs, indicator(coeffs, ring.sources, grid)


def _node_ladder(least: float, ceiling: int):
    """LADDER_START, twice that, ... from ``least`` up to below ``ceiling``, then ``ceiling``."""
    m = LADDER_START
    while m < ceiling:
        if m >= least:
            yield m
        m *= 2
    yield ceiling


def forward_curve(cfg: ScenarioConfig, sources: SourceSet
                  ) -> tuple[BoundaryCurve, DensitySolution | None, list[str]]:
    """The curve the rings of a resolved config and its ``sources`` are
    solved on; its accepted solve of the largest k for ``sources`` (None
    when no count was accepted); and the warnings (README, Forward
    resolution).

    The largest k is solved on 64, 128, ... nodes, from NODES_PER_WAVELENGTH
    per boundary wavelength (a kernel sampled more coarsely fools both
    checks) up to forward_nodes, until ``reciprocity_error`` <=
    max(RECIPROCITY_TOL, RECIPROCITY_COND * eps * condition estimate) and
    ``density_tail`` <= DENSITY_TAIL_TOL; a ceiling below the wavelength
    floor never passes.  The checks see the field at the sources only, so
    a receiver circle of another radius gets as many sources of its own.
    If no count passes: forward_nodes and a warning naming the tolerances;
    with one source, which has no reciprocity pair: forward_nodes, untried.

    GeometryError, before any solve, when a source or receiver lies on the
    forward_nodes curve or on the wrong side of it, or when that curve is a
    trig shape whose node polygon crosses itself.
    """
    ceiling = cfg.curve()
    if cfg.shape == "trig" and (pair := ceiling.crossing()) is not None:
        raise GeometryError(f"trig shape crosses itself: edges {pair[0]} and {pair[1]} of "
                            f"its {cfg.forward_nodes}-node polygon intersect")
    receivers = ring_points(cfg.receiver_radius, cfg.receiver_count)
    forward._check_placement(ceiling, cfg.side, sources.positions, "source")
    forward._check_placement(ceiling, cfg.side, receivers, "receiver")
    if sources.count < 2:
        return ceiling, None, []
    probes = [sources]
    if cfg.receiver_radius != cfg.source_radius:
        probes.append(replace(sources, radius=cfg.receiver_radius))
    k = max(cfg.wavenumbers)
    wavelengths = k * ceiling.speed.mean()        # k L / 2 pi, as the mean speed is L / 2 pi
    least = NODES_PER_WAVELENGTH * wavelengths
    recip = tail = math.nan
    recip_tol = RECIPROCITY_TOL
    for m in _node_ladder(least, cfg.forward_nodes):
        curve = ceiling if m == cfg.forward_nodes else make_curve(cfg.shape_spec(m))
        try:            # a coarse node polygon can cut off a point the ceiling's keeps
            forward._check_placement(curve, cfg.side, receivers, "receiver")
            sols = [forward.solve_densities(curve, cfg.bc, cfg.side, k, p) for p in probes]
        except GeometryError:
            continue
        recip = max(forward.reciprocity_error(curve, sol, p) for sol, p in zip(sols, probes))
        tail = max(forward.density_tail(sol) for sol in sols)
        cond = sols[0].condition_estimate              # every probe solves one system
        recip_tol = max(RECIPROCITY_TOL, RECIPROCITY_COND * np.finfo(float).eps * cond)
        if m >= least and recip <= recip_tol and tail <= DENSITY_TAIL_TOL:
            return curve, sols[0], []
    return ceiling, None, [
        f"forward_nodes = {cfg.forward_nodes} does not pass the accuracy checks at k = "
        f"{_k_tag(k)}: {cfg.forward_nodes / wavelengths:.1f} nodes per wavelength (at least "
        f"{NODES_PER_WAVELENGTH}), reciprocity error {recip:.1e} (at most {recip_tol:.2g}), "
        f"density tail {tail:.1e} (at most {DENSITY_TAIL_TOL:g})"]


def simulate_rings(cfg: ScenarioConfig) -> tuple[list[RingMeasurement], int, list[str]]:
    """Clean rings of a resolved config, one per wavenumber in order, all on
    ``forward_curve``'s curve; the largest k reuses the node ladder's
    accepted solve.  With that curve's node count and the forward warnings,
    among them one per ring whose reciprocity error is above FORWARD_WARN.

    ConfigError when a source or receiver lies on the shape or on the wrong
    side of it, before any solve.
    """
    sources, k_top = cfg.sources(), max(cfg.wavenumbers)
    try:
        curve, solved, warnings = forward_curve(cfg, sources)
        rings = [simulate_ring(curve, cfg.bc, cfg.side, k, sources, cfg.receiver_radius,
                               cfg.receiver_count, solved if k == k_top else None)
                 for k in cfg.wavenumbers]
    except GeometryError as exc:
        raise ConfigError(str(exc)) from None
    warnings += [f"k = {_k_tag(ring.k)}: reciprocity error {ring.reciprocity:.1e} above "
                 f"{FORWARD_WARN:g}, the A2 gate; raise forward_nodes"
                 for ring in rings if ring.reciprocity > FORWARD_WARN]
    return rings, curve.n_nodes, warnings


def _write_ring(out: Path, ring: RingMeasurement, cfg: ScenarioConfig) -> Path:
    """Write ``ring`` to ``out/ring_k<k>.csv`` with the scenario's bc, shape and seed."""
    path = out / f"ring_k{_k_tag(ring.k)}.csv"
    formats.write_ring_csv(path, ring, extra={"bc": cfg.bc, "shape": cfg.shape,
                                              "seed": cfg.seed})
    return path


def _write_indicator(out: Path, stem: str, norm: IndicatorImage, bc: str, shape: str,
                     coeffs: ct.ModeCoefficients | None = None) -> dict[str, Path]:
    """Write a normalized image to ``<stem>.csv`` and its reciprocal to ``<stem>.pgm``."""
    extra = {"bc": bc, "shape": shape}
    if coeffs is not None:
        extra["truncation"] = coeffs.truncation
        extra["excluded"] = " ".join(str(n) for n in coeffs.excluded_orders)
    paths = {name: out / name for name in (f"{stem}.csv", f"{stem}.pgm")}
    formats.write_grid_csv(paths[f"{stem}.csv"], norm, extra=extra)
    formats.write_pgm(paths[f"{stem}.pgm"], formats.pixels_from_image(ind.reciprocal(norm)))
    return paths


def write_images(out: Path, jobs, bc: str, grid: ImagingGrid, mode_guard: float):
    """Reconstruct each (ring, truncation, shape) job on ``grid``, write it
    normalized as ``indicator_k<k>`` and, for several, their superposition
    as ``indicator_multi``.  Returns the (coefficients, raw image) pairs,
    the superposed image (or None) and the written files by name."""
    results, normalized, files = [], [], {}
    for ring, truncation, shape in jobs:
        coeffs, raw = reconstruct(ring, bc, grid, truncation, mode_guard)
        results.append((coeffs, raw))
        normalized.append(ind.normalize(raw))
        files.update(_write_indicator(out, f"indicator_k{_k_tag(ring.k)}", normalized[-1],
                                      bc, shape, coeffs))
    superposed = None
    if len(normalized) > 1:
        superposed = ind.superpose_multifrequency(normalized)
        files.update(_write_indicator(out, "indicator_multi", superposed, bc, shape))
    return results, superposed, files


def run_scenario(config: ScenarioConfig, outdir) -> RunResult:
    """Execute the full imaging pipeline and write all artifacts."""
    cfg = config.resolved()
    grid = cfg.grid()
    # All rings first: a config error surfaces before the output directory
    # exists.
    rings, nodes, warnings = simulate_rings(cfg)
    reciprocity = {ring.k: ring.reciprocity for ring in rings}
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.side == "interior":
        limit = FIRST_J0_ZERO / max(cfg.wavenumbers)
        if cfg.receiver_radius >= limit:
            warnings.append(
                f"measurement radius {cfg.receiver_radius} >= {limit:.4f}: "
                f"k R reaches past the first J_0 zero; the mode guard covers it")

    # Noise is seeded per (seed, source): writing all rings first moves no byte.
    rings = [add_noise(ring, NoiseSpec(level=cfg.delta, seed=cfg.seed)) for ring in rings]
    files = {path.name: path for path in (_write_ring(out, ring, cfg) for ring in rings)}
    truncation = cfg.truncation_order()
    results, superposed, image_files = write_images(
        out, [(ring, truncation, cfg.shape) for ring in rings], cfg.bc, grid, cfg.mode_guard)
    files.update(image_files)
    images = {coeffs.k: raw for coeffs, raw in results}
    truncation_by_k = {coeffs.k: coeffs.truncation for coeffs, _ in results}
    excluded_by_k = {coeffs.k: coeffs.excluded_orders for coeffs, _ in results}

    cfg_path = out / "config.txt"
    config.to_file(cfg_path)
    files["config.txt"] = cfg_path

    checksums = {name: formats.sha256_file(path) for name, path in sorted(files.items())}
    manifest = out / "manifest.txt"
    with open(manifest, "w", encoding="ascii") as f:
        f.write("# nearscat run manifest\n")
        f.write(cfg.to_text())
        f.write(f"# forward_nodes_used = {nodes}\n")
        for k in cfg.wavenumbers:
            f.write(f"# N_k{_k_tag(k)} = {truncation_by_k[k]}\n")
            f.write(f"# excluded_k{_k_tag(k)} = "
                    f"{' '.join(str(n) for n in excluded_by_k[k])}\n")
            f.write(f"# reciprocity_k{_k_tag(k)} = {reciprocity[k]:.1e}\n")
        for w in warnings:
            f.write(f"# warning: {w}\n")
        for name, digest in checksums.items():
            f.write(f"# sha256 {name} = {digest}\n")
    files["manifest.txt"] = manifest

    return RunResult(files=files, truncation_by_k=truncation_by_k,
                     excluded_by_k=excluded_by_k, checksums=checksums,
                     images=images, superposed=superposed, warnings=warnings)


# ---------------------------------------------------------------------------
# Boundary-localization diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RayReport:
    """Per-ray distance between the indicator's radial minimum and the truth."""

    distances: np.ndarray        # NaN on non-informative rays
    median: float
    informative: bool


def radial_boundary_error(image: IndicatorImage, truth: BoundaryCurve) -> RayReport:
    """Radial argmin of the indicator vs the true boundary, per ray.

    Along each of N_RAYS equiangular rays from the origin the indicator is
    sampled at the nearest grid node every half cell inside the annulus
    [0.6, 1.4] * r_truth(theta); a ray whose samples are all equal (to
    1e-12 relative) is flagged non-informative.  Truth curves star-shaped
    about the origin only.
    """
    grid = image.grid
    step = 0.5 * min(grid.spacing_x, grid.spacing_y)
    angles = equispaced_angles(N_RAYS)
    r_truth = truth.radial_profile(angles)
    dists = np.full(N_RAYS, np.nan)
    for i, (theta, r_t) in enumerate(zip(angles, r_truth)):
        radii = np.arange(0.6 * r_t, 1.4 * r_t, step)
        idx = grid.index_of(radii * math.cos(theta), radii * math.sin(theta))
        vals = np.where((idx >= 0) & ~grid.mask[idx], image.values[idx], np.nan)
        live = ~np.isnan(vals)
        vals, radii = vals[live], radii[live]
        if not vals.size:
            raise ValueError(f"ray at {theta:.3f} rad has no unmasked annulus samples")
        spread = vals.max() - vals.min()
        if spread <= 1e-12 * max(abs(vals.max()), 1e-300):
            continue                      # constant along the ray: minimum not unique
        dists[i] = abs(radii[int(np.argmin(vals))] - r_t)
    good = ~np.isnan(dists)
    median = float(np.median(dists[good])) if np.any(good) else math.nan
    return RayReport(distances=dists, median=median, informative=bool(np.any(good)))


# ---------------------------------------------------------------------------
# Convergence-rate study (concentric circles)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateReport:
    """Predicted vs fitted decay rates for the concentric-circle setup.

    Exterior: rates = (rho/R, (R+gap)/R, rho/(R+gap)) with
    gap = dist(anchor circle, boundary); exponent = ln r2 / ln r1.
    Interior analog with (rho/R, rho/(rho-gap), (rho-gap)/R).
    """

    side: str
    obstacle_radius: float
    measurement_radius: float
    analysis_radius: float
    gap: float
    rates: tuple[float, float, float]
    predicted_exponent: float
    fitted_ratio: float
    noise_orders: tuple[int, ...]
    fitted_exponent: float
    noise_rule: str

    @property
    def ratio_factor(self) -> float:
        """fitted/predicted decay ratio, folded to >= 1."""
        f = self.fitted_ratio / self.rates[1]
        return f if f >= 1.0 else 1.0 / f

    @property
    def exponent_factor(self) -> float:
        return self.fitted_exponent / self.predicted_exponent

    def summary(self) -> str:
        r1, r2, r3 = self.rates
        lines = [
            f"side               : {self.side}",
            f"radii (a, meas, an): {self.obstacle_radius} {self.measurement_radius} "
            f"{self.analysis_radius}",
            f"gap                : {self.gap:.6g}",
            f"rates r1,r2,r3     : {r1:.6g} {r2:.6g} {r3:.6g}",
            f"predicted exponent : {self.predicted_exponent:.6g}",
            f"clean fitted ratio : {self.fitted_ratio:.6g} "
            f"(factor {self.ratio_factor:.3f} of r2 = {r2:.6g})",
            f"noise rule         : {self.noise_rule}",
            f"noise N per delta  : {list(self.noise_orders)}",
            f"fitted exponent    : {self.fitted_exponent:.6g} "
            f"(x{self.exponent_factor:.3f} of predicted)",
        ]
        return "\n".join(lines)


def convergence_study(side: str, *, k: float = 3.0,
                      seeds: tuple[int, ...] = (0, 1, 2)) -> RateReport:
    """Clean-order (N = 4..12) and noise-level (STUDY_DELTAS) sweeps on the
    concentric-circle setup: a sound-soft unit circle, measured at radius
    2.2 (exterior) or 0.5 (interior) and analysed at radius 0.5 or 1.2.

    The data come from the analytic circle oracle (so distances and rates
    are exact); errors are RMS values of (continued - true) scattered
    field on the circular boundary, pooled over the sources (pooling keeps
    the fitted exponent from riding on a single amplified top mode's noise
    draw).

    The noise sweep truncates at N = floor(|ln d|) + 1 on the exterior
    side (the practical noise-coupled rule) and at
    N = floor(ln(1/d)/ln r1) on the interior side, where the 1.5 |ln d|
    rule would exceed what the mode guard admits at small k R.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be finite and positive, got {k}")
    if side not in _RING_RADIUS:
        raise ValueError(f"unknown side {side!r}")
    a, meas = 1.0, _RING_RADIUS[side]
    if side == "exterior":
        anchor = 0.5
        gap = a - anchor                        # dist(anchor circle, boundary)
        r1 = meas / anchor
        r2 = (anchor + gap) / anchor
        r3 = meas / (anchor + gap)
        noise_rule = "floor(|ln delta|) + 1"
        rule = lambda d: ct.truncation_order(d, "exterior")
    else:
        anchor = 1.2
        gap = anchor - a                        # dist(analysis circle, boundary)
        r1 = anchor / meas
        r2 = anchor / (anchor - gap)
        r3 = (anchor - gap) / meas
        noise_rule = "floor(ln(1/delta)/ln r1)"
        rule = lambda d, _r1=r1: int(math.floor(math.log(1.0 / d) / math.log(_r1)))
    exponent = math.log(r2) / math.log(r1)

    th = equispaced_angles(STUDY_POINTS)
    sources = SourceSet(center=(0.0, 0.0), radius=meas, count=STUDY_SOURCES)

    def oracle(r: float) -> np.ndarray:
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        return np.array([analytic_circle(a, "soft", side, k, z, pts) for z in sources.positions])

    ring = RingMeasurement(radius=meas, k=k, samples=oracle(meas), noise_level=0.0,
                           side=side, sources=sources)
    u_true = oracle(a)

    def boundary_error(data: RingMeasurement, n: int) -> float:
        coeffs = ct.compute_coefficients(data, n)
        tables = ct.radial_tables(coeffs, np.full(STUDY_POINTS, a))
        u_n = ct.eval_field(coeffs, th, tables)
        return float(np.sqrt(np.mean(np.abs(u_n - u_true) ** 2)))

    orders = np.arange(4, 13)
    clean_errors = np.array([boundary_error(ring, n) for n in orders])
    fitted_ratio = float(np.exp(-np.polyfit(orders, np.log(clean_errors), 1)[0]))

    noise_orders = tuple(rule(d) for d in STUDY_DELTAS)
    errors = np.zeros((len(STUDY_DELTAS), len(seeds)))
    for i, d in enumerate(STUDY_DELTAS):
        for j, s in enumerate(seeds):
            noisy = add_noise(ring, NoiseSpec(level=d, seed=s))
            errors[i, j] = boundary_error(noisy, noise_orders[i])
    med = np.median(errors, axis=1)
    nslope = np.polyfit(np.log(STUDY_DELTAS), np.log(med), 1)[0]

    return RateReport(side=side, obstacle_radius=a, measurement_radius=meas,
                      analysis_radius=anchor, gap=gap, rates=(r1, r2, r3),
                      predicted_exponent=exponent, fitted_ratio=fitted_ratio,
                      noise_orders=noise_orders, fitted_exponent=float(nslope),
                      noise_rule=noise_rule)
