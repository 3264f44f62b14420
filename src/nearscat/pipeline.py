"""Scenario orchestration: simulate -> noise -> truncate -> continue ->
indicate -> render, plus convergence-rate studies and boundary-localization
diagnostics.

A scenario is described by a flat ``key = value`` config (see
``ScenarioConfig``); ``run_scenario`` writes, per wavenumber, the noisy
ring CSV, the normalized indicator grid CSV and a reciprocal-image PGM,
plus a superposed image when several wavenumbers are given, a
round-trippable ``config.txt`` and a ``manifest.txt`` with sha-256
checksums of every artifact.  Identical config + seed reproduces
identical checksums.
"""

from __future__ import annotations

import io
import math
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import continuation as ct
from . import formats
from . import indicator as ind
from .forward import (RingMeasurement, SourceSet, analytic_circle, boundary_geometry,
                      simulate_ring)
from .geometry import BoundaryCurve, ImagingGrid, ShapeSpec, imaging_grid, make_curve
from .indicator import IndicatorImage
from .noise import NoiseSpec, add_noise

FIRST_J0_ZERO = 2.404825557695773


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
    forward_nodes: int = 512

    def resolved(self) -> "ScenarioConfig":
        self.validate()
        ring_default = _RING_RADIUS[self.side]
        src = self.source_radius if self.source_radius is not None else ring_default
        rec = self.receiver_radius if self.receiver_radius is not None else ring_default
        excl = self.exclusion_radius
        if excl is None and self.side == "interior":
            excl = rec
        return replace(self, source_radius=src, receiver_radius=rec,
                       exclusion_radius=excl)

    def validate(self) -> None:
        """Raise ConfigError unless every wavenumber can run: known side and
        bc, finite k > 0, a 2-entry shape center, 2N+1 <= receiver_count."""
        if self.side not in _RING_RADIUS:
            raise ConfigError(f"unknown side {self.side!r}")
        if self.bc not in ("soft", "hard"):
            raise ConfigError(f"unknown boundary condition {self.bc!r}")
        if not self.wavenumbers:
            raise ConfigError("no wavenumbers given")
        if not all(0.0 < k < math.inf for k in self.wavenumbers):
            raise ConfigError(f"wavenumbers must be finite and positive: {self.wavenumbers}")
        if len(self.shape_center) != 2:
            raise ConfigError(f"shape_center needs 2 entries, got {self.shape_center}")
        n = self._truncation()
        if 2 * n + 1 > self.receiver_count:
            raise ConfigError(
                f"truncation {n} needs {2 * n + 1} receivers, have {self.receiver_count}")

    def _truncation(self) -> int:
        if self.truncation is not None:
            return self.truncation
        try:
            return ct.truncation_order(self.delta, self.side)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    # -- geometry builders ---------------------------------------------------

    def shape_spec(self, n_nodes: int | None = None) -> ShapeSpec:
        return ShapeSpec(kind=self.shape, center=self.shape_center,
                         radius=self.shape_radius,
                         x_cos=self.shape_x_cos, x_sin=self.shape_x_sin,
                         y_cos=self.shape_y_cos, y_sin=self.shape_y_sin,
                         n_nodes=n_nodes or self.forward_nodes)

    def curve(self) -> BoundaryCurve:
        return make_curve(self.shape_spec())

    def sources(self) -> SourceSet:
        cfg = self.resolved()
        return SourceSet(center=(0.0, 0.0), radius=cfg.source_radius,
                         count=cfg.source_count, side=cfg.side)

    def grid(self) -> ImagingGrid:
        cfg = self.resolved()
        excl = None
        if cfg.exclusion_radius is not None and cfg.exclusion_radius > 0.0:
            excl = ((0.0, 0.0), cfg.exclusion_radius)
        return imaging_grid(cfg.grid_xmin, cfg.grid_xmax, cfg.grid_ymin,
                            cfg.grid_ymax, cfg.grid_nx, cfg.grid_ny, exclusion=excl)

    def truncation_for(self, k: float) -> int:
        """Truncation N at wavenumber k: ``truncation``, else the noise rule."""
        self.validate()
        return self._truncation()

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
            kwargs[key] = _parse_value(key, value)
        return cls(**kwargs)

    def to_file(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="ascii")

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        return cls.from_text(Path(path).read_text(encoding="ascii"))


_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)


def _value_type(key: str) -> type:
    """Scalar type of a config field: X for ``X``, ``X | None`` and the
    items of ``tuple[X, ...]``."""
    hint = _FIELD_TYPES[key]
    return next((a for a in typing.get_args(hint) if a not in (type(None), Ellipsis)), hint)


def _parse_value(key: str, value: str):
    convert = _value_type(key)
    if typing.get_origin(_FIELD_TYPES[key]) is tuple:
        return tuple(convert(v) for v in value.split(",")) if value else ()
    return convert(value)


# ---------------------------------------------------------------------------
# Scenario run
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    outdir: Path
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


def _coefficients(ring: RingMeasurement, truncation: int,
                  mode_guard: float = ct.DEFAULT_MODE_GUARD) -> ct.ModeCoefficients:
    """Ring Fourier coefficients up to order N, mode-guarded on the interior side."""
    coeffs = ct.compute_coefficients(ring, truncation)
    if ring.side == "interior":
        coeffs = ct.guard_interior_modes(coeffs, mode_guard)
    return coeffs


def reconstruct(ring: RingMeasurement, bc: str, grid: ImagingGrid, truncation: int,
                mode_guard: float = ct.DEFAULT_MODE_GUARD):
    """One wavenumber's imaging step on ``ring``: the Fourier coefficients up
    to order ``truncation`` (interior modes with |J_n(kR)| < mode_guard
    dropped) and the raw ``bc`` indicator image on ``grid``."""
    if bc not in ("soft", "hard"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    coeffs = _coefficients(ring, truncation, mode_guard)
    indicator = ind.indicator_soft if bc == "soft" else ind.indicator_hard
    return coeffs, indicator(coeffs, ring.sources, grid)


def _write_indicator(out: Path, stem: str, norm: IndicatorImage, cfg: ScenarioConfig,
                     coeffs: ct.ModeCoefficients | None = None) -> dict[str, Path]:
    """Write a normalized image to ``<stem>.csv`` and its reciprocal to ``<stem>.pgm``."""
    extra = {"bc": cfg.bc, "shape": cfg.shape}
    if coeffs is not None:
        extra["truncation"] = coeffs.truncation
        extra["excluded"] = " ".join(str(n) for n in coeffs.excluded_orders)
    paths = {name: out / name for name in (f"{stem}.csv", f"{stem}.pgm")}
    formats.write_grid_csv(paths[f"{stem}.csv"], norm, extra=extra)
    formats.write_pgm(paths[f"{stem}.pgm"], formats.pixels_from_image(ind.reciprocal(norm)))
    return paths


def run_scenario(config: ScenarioConfig, outdir) -> RunResult:
    """Execute the full imaging pipeline and write all artifacts."""
    cfg = config.resolved()
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    curve = cfg.curve()
    sources = cfg.sources()
    grid = cfg.grid()
    warnings: list[str] = []
    if cfg.side == "interior":
        limit = FIRST_J0_ZERO / max(cfg.wavenumbers)
        if cfg.receiver_radius >= limit:
            warnings.append(
                f"measurement radius {cfg.receiver_radius} >= {limit:.4f}: "
                f"k R reaches past the first J_0 zero; the mode guard covers it")

    files: dict[str, Path] = {}
    images: dict[float, IndicatorImage] = {}
    truncation_by_k: dict[float, int] = {}
    excluded_by_k: dict[float, list[int]] = {}
    normalized: list[IndicatorImage] = []

    # All rings first, sharing one Nystrom geometry, which is then released
    # before imaging.  Noise is seeded per (seed, source), so the order of
    # the phases does not change any byte.
    geometry = boundary_geometry(curve, cfg.bc, cfg.side)
    rings = [simulate_ring(curve, cfg.bc, cfg.side, k, sources, cfg.receiver_radius,
                           cfg.receiver_count, geometry=geometry)
             for k in cfg.wavenumbers]
    del geometry

    for k, ring in zip(cfg.wavenumbers, rings):
        ring = add_noise(ring, NoiseSpec(level=cfg.delta, seed=cfg.seed))
        coeffs, images[k] = reconstruct(ring, cfg.bc, grid, cfg.truncation_for(k),
                                        cfg.mode_guard)
        truncation_by_k[k] = coeffs.truncation
        excluded_by_k[k] = coeffs.excluded_orders
        normalized.append(ind.normalize(images[k]))

        ring_name = f"ring_k{_k_tag(k)}.csv"
        files[ring_name] = out / ring_name
        formats.write_ring_csv(files[ring_name], ring, extra={
            "bc": cfg.bc, "shape": cfg.shape, "seed": cfg.seed})
        files.update(_write_indicator(out, f"indicator_k{_k_tag(k)}", normalized[-1],
                                      cfg, coeffs))

    superposed = None
    if len(cfg.wavenumbers) > 1:
        superposed = ind.superpose_multifrequency(normalized)
        files.update(_write_indicator(out, "indicator_multi", superposed, cfg))

    cfg_path = out / "config.txt"
    config.to_file(cfg_path)
    files["config.txt"] = cfg_path

    checksums = {name: formats.sha256_file(path) for name, path in sorted(files.items())}
    manifest = out / "manifest.txt"
    with open(manifest, "w", encoding="ascii") as f:
        f.write("# nearscat run manifest\n")
        f.write(cfg.to_text())
        for k in cfg.wavenumbers:
            f.write(f"# N_k{_k_tag(k)} = {truncation_by_k[k]}\n")
            f.write(f"# excluded_k{_k_tag(k)} = "
                    f"{' '.join(str(n) for n in excluded_by_k[k])}\n")
        for w in warnings:
            f.write(f"# warning: {w}\n")
        for name, digest in checksums.items():
            f.write(f"# sha256 {name} = {digest}\n")
    files["manifest.txt"] = manifest

    return RunResult(outdir=out, files=files, truncation_by_k=truncation_by_k,
                     excluded_by_k=excluded_by_k, checksums=checksums,
                     images=images, superposed=superposed, warnings=warnings)


# ---------------------------------------------------------------------------
# Boundary-localization diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RayReport:
    """Per-ray distance between the indicator's radial minimum and the truth."""

    angles: np.ndarray
    distances: np.ndarray        # NaN on non-informative rays
    median: float
    q90: float
    informative: bool


def radial_boundary_error(image: IndicatorImage, truth: BoundaryCurve,
                          n_rays: int = 64, center=(0.0, 0.0)) -> RayReport:
    """Radial argmin of the indicator vs the true boundary, per ray.

    Along each equiangular ray the indicator is sampled at the nearest grid
    node every half cell inside the annulus [0.6, 1.4] * r_truth(theta); a
    ray whose samples are all equal (to 1e-12 relative) is flagged
    non-informative.  Star-shaped truth curves only.
    """
    grid = image.grid
    step = 0.5 * min(grid.spacing_x, grid.spacing_y)
    angles = 2.0 * np.pi * np.arange(n_rays) / n_rays
    r_truth = truth.radial_profile(angles, center=center)
    dists = np.full(n_rays, np.nan)
    for i, (theta, r_t) in enumerate(zip(angles, r_truth)):
        radii = np.arange(0.6 * r_t, 1.4 * r_t, step)
        vals, rad = [], []
        for r in radii:
            idx = grid.index_of(center[0] + r * math.cos(theta),
                                center[1] + r * math.sin(theta))
            if idx < 0 or grid.mask[idx] or np.isnan(image.values[idx]):
                continue
            vals.append(image.values[idx])
            rad.append(r)
        if not vals:
            raise ValueError(f"ray at {theta:.3f} rad has no unmasked annulus samples")
        varr = np.asarray(vals)
        spread = varr.max() - varr.min()
        if spread <= 1e-12 * max(abs(varr.max()), 1e-300):
            continue                      # constant along the ray: minimum not unique
        dists[i] = abs(rad[int(np.argmin(varr))] - r_t)
    good = ~np.isnan(dists)
    if np.any(good):
        median = float(np.median(dists[good]))
        q90 = float(np.quantile(dists[good], 0.9))
    else:
        median = q90 = math.nan
    return RayReport(angles=angles, distances=dists, median=median, q90=q90,
                     informative=bool(np.any(good)))


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
    clean_orders: np.ndarray
    clean_errors: np.ndarray
    fitted_ratio: float
    clean_fit_residual: float
    noise_deltas: tuple[float, ...]
    noise_orders: tuple[int, ...]
    noise_errors: np.ndarray          # (n_delta, n_seed)
    fitted_exponent: float
    noise_fit_residual: float
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


def _study_ring(side: str, a: float, meas_r: float, k: float, bc: str,
                n_src: int, n_rec: int):
    angles = 2.0 * np.pi * np.arange(n_rec) / n_rec
    pts = np.column_stack([meas_r * np.cos(angles), meas_r * np.sin(angles)])
    sources = SourceSet(center=(0.0, 0.0), radius=meas_r, count=n_src, side=side)
    us = np.array([analytic_circle(a, bc, side, k, z, pts)
                   for z in sources.positions])
    return RingMeasurement(radius=meas_r, angles=angles, k=k, samples=us,
                           field_kind="scattered", noise_level=0.0, side=side,
                           sources=sources)


def convergence_study(side: str, *, obstacle_radius: float = 1.0,
                      measurement_radius: float | None = None,
                      analysis_radius: float | None = None,
                      k: float = 3.0, bc: str = "soft",
                      deltas: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
                      seeds: tuple[int, ...] = (0, 1, 2),
                      clean_orders=range(4, 13),
                      n_sources: int = 12,
                      n_receivers: int = 256,
                      n_boundary: int = 256) -> RateReport:
    """Clean-order and noise-level sweeps on the concentric-circle setup.

    The data come from the analytic circle oracle (so distances and rates
    are exact); errors are RMS values of (continued - true) scattered
    field on the circular boundary, pooled over n_sources equispaced
    sources on the measurement circle (pooling keeps the fitted exponent
    from riding on a single amplified top mode's noise draw).

    The noise sweep truncates at N = floor(|ln d|) + 1 on the exterior
    side (the practical noise-coupled rule) and at
    N = floor(ln(1/d)/ln r1) on the interior side, where the 1.5 |ln d|
    rule would exceed what the mode guard admits at small k R.
    """
    if side == "exterior":
        meas = 2.2 if measurement_radius is None else measurement_radius
        anchor = 0.5 if analysis_radius is None else analysis_radius
        gap = obstacle_radius - anchor          # dist(anchor circle, boundary)
        r1 = meas / anchor
        r2 = (anchor + gap) / anchor
        r3 = meas / (anchor + gap)
        noise_rule = "floor(|ln delta|) + 1"
        rule = lambda d: int(math.floor(abs(math.log(d)))) + 1
    elif side == "interior":
        meas = 0.5 if measurement_radius is None else measurement_radius
        anchor = 1.2 if analysis_radius is None else analysis_radius
        gap = anchor - obstacle_radius          # dist(analysis circle, boundary)
        r1 = anchor / meas
        r2 = anchor / (anchor - gap)
        r3 = (anchor - gap) / meas
        noise_rule = "floor(ln(1/delta)/ln r1)"
        rule = lambda d, _r1=r1: int(math.floor(math.log(1.0 / d) / math.log(_r1)))
    else:
        raise ValueError(f"unknown side {side!r}")
    if gap <= 0.0:
        raise ValueError("analysis circle must be separated from the boundary")
    exponent = math.log(r2) / math.log(r1)

    a = obstacle_radius
    ring = _study_ring(side, a, meas, k, bc, n_sources, n_receivers)
    th = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
    bpts = np.column_stack([a * np.cos(th), a * np.sin(th)])
    u_true = np.array([analytic_circle(a, bc, side, k, z, bpts)
                       for z in ring.sources.positions])

    def boundary_error(r, n: int) -> float:
        u_n = ct.eval_field(_coefficients(r, n), np.full(n_boundary, a), th)
        return float(np.sqrt(np.mean(np.abs(u_n - u_true) ** 2)))

    orders = np.array(list(clean_orders), dtype=int)
    clean_errors = np.array([boundary_error(ring, n) for n in orders])
    slope, intercept = np.polyfit(orders, np.log(clean_errors), 1)
    resid_c = float(np.sqrt(np.mean(
        (np.log(clean_errors) - (slope * orders + intercept)) ** 2)))
    fitted_ratio = float(np.exp(-slope))

    noise_orders = tuple(rule(d) for d in deltas)
    errors = np.zeros((len(deltas), len(seeds)))
    for i, d in enumerate(deltas):
        for j, s in enumerate(seeds):
            noisy = add_noise(ring, NoiseSpec(level=d, seed=s))
            errors[i, j] = boundary_error(noisy, noise_orders[i])
    med = np.median(errors, axis=1)
    if len(deltas) >= 2:
        nslope, nintercept = np.polyfit(np.log(deltas), np.log(med), 1)
        resid_n = float(np.sqrt(np.mean(
            (np.log(med) - (nslope * np.log(deltas) + nintercept)) ** 2)))
    else:
        nslope, resid_n = math.nan, math.nan

    return RateReport(side=side, obstacle_radius=a, measurement_radius=meas,
                      analysis_radius=anchor, gap=gap, rates=(r1, r2, r3),
                      predicted_exponent=exponent, clean_orders=orders,
                      clean_errors=clean_errors, fitted_ratio=fitted_ratio,
                      clean_fit_residual=resid_c, noise_deltas=tuple(deltas),
                      noise_orders=noise_orders, noise_errors=errors,
                      fitted_exponent=float(nslope), noise_fit_residual=resid_n,
                      noise_rule=noise_rule)


def render_pgm(csv_path, out_path, scale: str = "percentile",
               clip_percent: float = 99.0) -> None:
    """Render an indicator grid CSV to an ASCII PGM."""
    image = formats.read_grid_csv(csv_path)
    formats.write_pgm(out_path, formats.pixels_from_image(
        image, scale=scale, clip_percent=clip_percent))
