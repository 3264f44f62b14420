"""File formats: ring-data CSV, indicator-grid CSV, ASCII PGM, checksums.

Both CSV formats carry `# key=value` header lines followed by data rows
with 17 significant digits, so a write/read round trip is lossless.

Ring CSV rows:   source_index,receiver_index,theta,re,im
Grid CSV rows:   x,y,value,flag          (masked grid points are omitted)
PGM:             P2 (ASCII), maxval 65535, top row = max y.

Writers format whole arrays, each grid coordinate and receiver angle
once, and emit the bytes of formatting every row with `%.17g`.  Readers
parse all data rows with one `np.loadtxt` call and raise ValueError,
naming the row, for a repeated grid point or (source, receiver) pair, a
point outside the grid or an index out of range, a row at a masked grid
point, a non-integer index or flag, and ring rows of one receiver that
disagree on its theta; missing rows are rejected too, and so is a header
without a key the reader needs (named in the error).  A PGM must hold
exactly nx*ny pixels, each in 0..maxval.
"""

from __future__ import annotations

import hashlib
import io
import warnings
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


def _read_table(path, fmt: str, dtype: np.dtype, required) -> tuple[dict, np.ndarray]:
    """Header of a `fmt` CSV and its data rows as a structured array.

    The leading `#` lines form the header, which must hold every key in
    `required`.  The data rows after it are
    parsed by one `np.loadtxt` call, which skips empty lines and rejects a
    comment, a wrong column count or, in an integer field, non-integer text.
    """
    meta: dict[str, str] = {}
    first = ""
    with open(path, "r", encoding="ascii") as f:
        for line in f:
            body = line.strip()
            if not body:
                continue
            if not body.startswith("#"):
                first = line
                break
            key, eq, value = body[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        if meta.get("format") != fmt:
            raise ValueError(f"{path}: not a {fmt} file")
        missing = [key for key in required if key not in meta]
        if missing:
            raise ValueError(f"{path}: header has no {missing[0]!r} line")
        text = first + f.read()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)     # no data rows
            rows = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",",
                              comments=None, ndmin=1)
    except ValueError as exc:
        raise ValueError(f"{path}: data rows: {exc}") from exc
    return meta, rows


def _reject(path, rows: np.ndarray, bad: np.ndarray, why: str) -> None:
    """Raise ValueError naming the first data row where `bad` holds."""
    if bad.any():
        i = int(np.argmax(bad))
        row = ",".join(str(v) for v in rows[i].tolist())
        raise ValueError(f"{path}: data row {i + 1} ({row}) {why}")


def _repeats(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """True for each row whose key in [0, n_keys) an earlier row already has."""
    repeated = np.zeros(keys.size, dtype=bool)
    if keys.size and np.bincount(keys, minlength=n_keys).max() > 1:
        repeated[:] = True
        repeated[np.unique(keys, return_index=True)[1]] = False
    return repeated


# ---------------------------------------------------------------------------
# Ring data
# ---------------------------------------------------------------------------

_RING_ROW = np.dtype([("source", np.int64), ("receiver", np.int64),
                      ("theta", np.float64), ("re", np.float64), ("im", np.float64)])
_RING_KEYS = ("k", "side", "field", "ring_radius", "n_receivers", "n_sources",
              "source_radius", "source_center", "delta")


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
    thetas = [f"{t:.17g}," for t in ring.angles.tolist()]
    re, im = ring.samples.real.tolist(), ring.samples.imag.tolist()
    with open(path, "w", encoding="ascii") as f:
        _write_header(f, meta)
        f.write("# columns=source_index,receiver_index,theta,re,im\n")
        for j in range(ring.sources.count):
            f.write("".join([f"{j},{m},{t}{a:.17g},{b:.17g}\n"
                             for m, (t, a, b) in enumerate(zip(thetas, re[j], im[j]))]))


def read_ring_csv(path) -> tuple[RingMeasurement, dict]:
    meta, rows = _read_table(path, "nearscat-ring-1", _RING_ROW, _RING_KEYS)
    n_src = int(meta["n_sources"])
    n_rec = int(meta["n_receivers"])
    cx, cy = (float(v) for v in meta["source_center"].split())
    sources = SourceSet(center=(cx, cy), radius=float(meta["source_radius"]),
                        count=n_src, side=meta["side"])
    if rows.size != n_src * n_rec:
        raise ValueError(f"{path}: expected {n_src * n_rec} rows, found {rows.size}")
    j, m = rows["source"], rows["receiver"]
    _reject(path, rows, (j < 0) | (j >= n_src) | (m < 0) | (m >= n_rec),
            "has a source or receiver index out of range")
    _reject(path, rows, _repeats(j * n_rec + m, n_src * n_rec),
            "repeats the (source, receiver) pair of an earlier row")
    # every (source, receiver) pair occurs once: receiver m's first row sets its angle
    angles = rows["theta"][np.unique(m, return_index=True)[1]]
    _reject(path, rows, rows["theta"] != angles[m],
            "disagrees with an earlier row on the receiver's theta")
    samples = np.zeros((n_src, n_rec), dtype=complex)
    samples.real[j, m] = rows["re"]
    samples.imag[j, m] = rows["im"]
    ring = RingMeasurement(radius=float(meta["ring_radius"]), angles=angles,
                           k=float(meta["k"]), samples=samples,
                           field_kind=meta["field"], noise_level=float(meta["delta"]),
                           side=meta["side"], sources=sources)
    return ring, meta


# ---------------------------------------------------------------------------
# Indicator grids
# ---------------------------------------------------------------------------

_GRID_ROW = np.dtype([("x", np.float64), ("y", np.float64),
                      ("value", np.float64), ("flag", np.int64)])
_GRID_KEYS = ("xmin", "xmax", "ymin", "ymax", "nx", "ny", "kind", "state", "wavenumbers")


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
    # Each coordinate is formatted once.  A grid row's text is one `%` over
    # the templates of its live columns, filled with (y, value, flag) triples;
    # going one grid row at a time keeps memory flat.
    templates = [f"{x:.17g},%s%.17g,%d\n" for x in g.points[:g.nx, 0].tolist()]
    ys = [f"{y:.17g}," for y in g.points[::g.nx, 1].tolist()]
    live = ~g.mask.reshape(g.ny, g.nx)
    values = image.values.reshape(g.ny, g.nx)
    flags = image.flags.reshape(g.ny, g.nx)
    with open(path, "w", encoding="ascii") as f:
        _write_header(f, meta)
        f.write("# columns=x,y,value,flag\n")
        for y, keep, v, flag in zip(ys, live, values, flags):
            fill = [y] * (3 * int(keep.sum()))
            fill[1::3] = v[keep].tolist()
            fill[2::3] = flag[keep].astype(np.int64).tolist()
            row = "".join(map(templates.__getitem__, np.flatnonzero(keep).tolist()))
            f.write(row % tuple(fill))


def read_grid_csv(path) -> IndicatorImage:
    meta, rows = _read_table(path, "nearscat-grid-1", _GRID_ROW, _GRID_KEYS)
    exclusion = None
    if "exclusion" in meta:
        cx, cy, rad = (float(v) for v in meta["exclusion"].split())
        exclusion = ((cx, cy), rad)
    grid = imaging_grid(float(meta["xmin"]), float(meta["xmax"]),
                        float(meta["ymin"]), float(meta["ymax"]),
                        int(meta["nx"]), int(meta["ny"]), exclusion=exclusion)
    # Nearest node, rounding half to even as in ImagingGrid.index_of.
    ix = np.rint((rows["x"] - grid.xmin) / grid.spacing_x)
    iy = np.rint((grid.ymax - rows["y"]) / grid.spacing_y)
    inside = (0 <= ix) & (ix < grid.nx) & (0 <= iy) & (iy < grid.ny)
    _reject(path, rows, ~inside, "lies outside the grid")
    idx = (iy * grid.nx + ix).astype(np.int64)
    _reject(path, rows, grid.mask[idx], "lies at a masked grid point")
    _reject(path, rows, _repeats(idx, grid.n_points),
            "repeats the grid point of an earlier row")
    flag = rows["flag"]
    _reject(path, rows, (flag < 0) | (flag > np.iinfo(np.uint8).max),
            "has a flag outside 0..255")
    values = np.full(grid.n_points, np.nan)
    flags = np.zeros(grid.n_points, dtype=np.uint8)
    values[idx] = rows["value"]
    flags[idx] = flag
    if np.any(np.isnan(values[~grid.mask])):
        raise ValueError(f"{path}: missing rows or NaN values for unmasked grid points")
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
    lines += [" ".join(map(str, row.tolist())) for row in pixels.astype(np.int64)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_pgm(path) -> np.ndarray:
    """Pixels of a PGM that `write_pgm` wrote, as a (ny, nx) int64 array.

    The pipeline never reads a PGM back.  This reader is kept on purpose
    as the writer's round-trip partner: the tests check every written
    image through it.
    """
    tokens = Path(path).read_text(encoding="ascii").split()
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not an ASCII PGM")
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated PGM header")
    nx, ny, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if nx < 1 or ny < 1 or len(tokens) != 4 + nx * ny or maxval != PGM_MAXVAL:
        raise ValueError(f"{path}: malformed PGM payload")
    data = np.array(tokens[4:], dtype=np.int64)
    if data.min() < 0 or data.max() > maxval:
        raise ValueError(f"{path}: pixel value outside 0..{maxval}")
    return data.reshape(ny, nx)
