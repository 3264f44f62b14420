"""File formats: ring-data CSV, indicator-grid CSV, ASCII PGM, checksums.

Both CSV formats carry `# key=value` header lines followed by data rows
with 17 significant digits, so a write/read round trip is lossless.

Ring CSV rows:   source_index,receiver_index,theta,re,im
Grid CSV rows:   x,y,value,flag          (masked grid points are omitted)
PGM:             P2 (ASCII), maxval 65535, top row = max y.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .forward import RingMeasurement, SourceSet
from .geometry import imaging_grid
from .indicator import IndicatorImage

PGM_MAXVAL = 65535


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_header(f, meta: dict) -> None:
    for key, value in meta.items():
        f.write(f"# {key}={value}\n")


def _read_header(path) -> tuple[dict, list[str]]:
    meta: dict[str, str] = {}
    rows: list[str] = []
    with open(path, "r", encoding="ascii") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
            else:
                rows.append(line)
    return meta, rows


# ---------------------------------------------------------------------------
# Ring data
# ---------------------------------------------------------------------------

def write_ring_csv(path, ring: RingMeasurement, extra: dict | None = None) -> None:
    meta = {
        "format": "nearscat-ring-1",
        "k": repr(ring.k),
        "side": ring.side,
        "field": ring.field_kind,
        "ring_radius": repr(ring.radius),
        "n_receivers": ring.n_receivers,
        "n_sources": ring.sources.count,
        "source_radius": repr(ring.sources.radius),
        "source_center": f"{ring.sources.center[0]!r} {ring.sources.center[1]!r}",
        "delta": repr(ring.noise_level),
    }
    if extra:
        meta.update(extra)
    with open(path, "w", encoding="ascii") as f:
        _write_header(f, meta)
        f.write("# columns=source_index,receiver_index,theta,re,im\n")
        for j in range(ring.sources.count):
            for m in range(ring.n_receivers):
                v = ring.samples[j, m]
                f.write(f"{j},{m},{ring.angles[m]:.17g},{v.real:.17g},{v.imag:.17g}\n")


def read_ring_csv(path) -> tuple[RingMeasurement, dict]:
    meta, rows = _read_header(path)
    if meta.get("format") != "nearscat-ring-1":
        raise ValueError(f"{path}: not a nearscat ring CSV")
    n_src = int(meta["n_sources"])
    n_rec = int(meta["n_receivers"])
    cx, cy = (float(v) for v in meta["source_center"].split())
    sources = SourceSet(center=(cx, cy), radius=float(meta["source_radius"]),
                        count=n_src, side=meta["side"])
    angles = np.zeros(n_rec)
    samples = np.zeros((n_src, n_rec), dtype=complex)
    if len(rows) != n_src * n_rec:
        raise ValueError(f"{path}: expected {n_src * n_rec} rows, found {len(rows)}")
    for line in rows:
        parts = line.split(",")
        j, m = int(parts[0]), int(parts[1])
        angles[m] = float(parts[2])
        samples[j, m] = complex(float(parts[3]), float(parts[4]))
    ring = RingMeasurement(radius=float(meta["ring_radius"]), angles=angles,
                           k=float(meta["k"]), samples=samples,
                           field_kind=meta["field"], noise_level=float(meta["delta"]),
                           side=meta["side"], sources=sources)
    return ring, meta


# ---------------------------------------------------------------------------
# Indicator grids
# ---------------------------------------------------------------------------

def write_grid_csv(path, image: IndicatorImage, extra: dict | None = None) -> None:
    g = image.grid
    meta = {
        "format": "nearscat-grid-1",
        "xmin": repr(g.xmin), "xmax": repr(g.xmax),
        "ymin": repr(g.ymin), "ymax": repr(g.ymax),
        "nx": g.nx, "ny": g.ny,
        "kind": image.kind,
        "state": image.state,
        "wavenumbers": " ".join(repr(k) for k in image.wavenumbers),
    }
    if g.exclusion is not None:
        meta["exclusion"] = f"{g.exclusion[0]!r} {g.exclusion[1]!r} {g.exclusion[2]!r}"
    if extra:
        meta.update(extra)
    with open(path, "w", encoding="ascii") as f:
        _write_header(f, meta)
        f.write("# columns=x,y,value,flag\n")
        for i in range(g.n_points):
            if g.mask[i]:
                continue
            x, y = g.points[i]
            f.write(f"{x:.17g},{y:.17g},{image.values[i]:.17g},{int(image.flags[i])}\n")


def read_grid_csv(path) -> IndicatorImage:
    meta, rows = _read_header(path)
    if meta.get("format") != "nearscat-grid-1":
        raise ValueError(f"{path}: not a nearscat grid CSV")
    exclusion = None
    if "exclusion" in meta:
        cx, cy, rad = (float(v) for v in meta["exclusion"].split())
        exclusion = ((cx, cy), rad)
    grid = imaging_grid(float(meta["xmin"]), float(meta["xmax"]),
                        float(meta["ymin"]), float(meta["ymax"]),
                        int(meta["nx"]), int(meta["ny"]), exclusion=exclusion)
    values = np.full(grid.n_points, np.nan)
    flags = np.zeros(grid.n_points, dtype=np.uint8)
    for line in rows:
        xs, ys, vs, fs = line.split(",")
        idx = grid.index_of(float(xs), float(ys))
        if idx < 0:
            raise ValueError(f"{path}: row outside the grid: {line}")
        values[idx] = float(vs)
        flags[idx] = int(fs)
    live = ~grid.mask
    if np.any(np.isnan(values[live])):
        raise ValueError(f"{path}: missing rows for unmasked grid points")
    ks = tuple(float(v) for v in meta["wavenumbers"].split())
    return IndicatorImage(grid=grid, values=values, kind=meta["kind"],
                          wavenumbers=ks, state=meta["state"], flags=flags)


# ---------------------------------------------------------------------------
# PGM rendering
# ---------------------------------------------------------------------------

def pixels_from_image(image: IndicatorImage, scale: str = "percentile",
                      clip_percent: float = 99.0) -> np.ndarray:
    """Map indicator values to a (ny, nx) uint array; masked points become 0.

    linear: pixel = round(65535 * v / max); percentile: the clip_percent
    quantile of the unmasked values maps to 65535, larger values saturate.
    """
    g = image.grid
    vals = image.values.copy()
    live = ~g.mask & ~np.isnan(vals)
    if not np.any(live):
        raise ValueError("nothing to render: all grid points masked")
    v = vals[live]
    if scale == "linear":
        top = float(v.max())
    elif scale == "percentile":
        top = float(np.percentile(v, clip_percent))
    else:
        raise ValueError(f"unknown scale {scale!r}")
    if top <= 0.0:
        top = 1.0
    pix = np.zeros(g.n_points, dtype=np.int64)
    pix[live] = np.rint(PGM_MAXVAL * np.minimum(vals[live], top) / top).astype(np.int64)
    return g.as_image(pix)


def write_pgm(path, pixels: np.ndarray) -> None:
    ny, nx = pixels.shape
    lines = ["P2", f"{nx} {ny}", str(PGM_MAXVAL)]
    for row in pixels:
        lines.append(" ".join(str(int(p)) for p in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_pgm(path) -> np.ndarray:
    tokens = Path(path).read_text(encoding="ascii").split()
    if tokens[0] != "P2":
        raise ValueError(f"{path}: not an ASCII PGM")
    nx, ny, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    data = np.array([int(t) for t in tokens[4:4 + nx * ny]], dtype=np.int64)
    if data.size != nx * ny or maxval != PGM_MAXVAL:
        raise ValueError(f"{path}: malformed PGM payload")
    return data.reshape(ny, nx)
