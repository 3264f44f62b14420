"""File formats: ring-data CSV, indicator-grid CSV, binary PGM (P5), checksums.

Both CSV formats carry `# key=value` header lines followed by data rows
with 17 significant digits, so a write/read round trip is lossless.

Ring CSV rows:   source_index,receiver_index,theta,re,im
Grid CSV rows:   x,y,value,flag          (masked grid points are omitted)
PGM:             P5, maxval 65535, 2 bytes a sample, MSB first, top row = max y.

The CSV writers emit exactly the bytes of `%.17g` on every float and `%d` on
every integer, without formatting each number in Python.  `_g17_words` turns a float64 array
into fixed-width little-endian uint64 words holding the `%.17g` text and
NUL padding: it rounds m 2^q 10^s to 17 digits exactly in 128-bit
integer arithmetic and lays the digits out through 4-digit tables, and
hands the rare numbers outside 1e-11 <= |v| < 1e17 (and zeros, non-finite
numbers) to `%` itself.  Grid coordinates, receiver angles and indices
are formatted once per column, row or receiver, flags come from a
table, and each block of at most 4096 rows is written as its word
matrix's bytes with the NULs deleted, so memory stays flat in the file
size.  Each reader parses all data rows with one `np.loadtxt` call.  The
grid reader takes only what the writer writes, a row per unmasked grid
point in grid order with x and y the `%.17g` text of the point: it
compares x and y as text, parsing no coordinate, with the writer's texts
from `_coordinate_texts`.  Readers raise ValueError, naming the row, for
a grid row off that layout, a repeated (source, receiver) pair, an index
out of range, a non-integer index or flag, a flag outside 0..255, a
non-finite theta, re, im or grid value, and a ring row whose theta lies
more than 1e-12 from 2 pi m / M for its receiver m of M (the equispaced
layout the expansion assumes); a wrong row count is rejected too, and so
is a header without a key the reader needs or with a value that does
not parse or is not finite (the key named in the error), a ring header
whose k, ring_radius, n_receivers, n_sources or source_radius is not
positive or whose delta lies outside [0, 1), a grid header that
describes no grid, and a ring file whose field is not `scattered` or
whose side is not `exterior` or `interior`.  Every error names the file;
the header is checked before any data row is read.
`write_pgm` refuses pixels outside 0..65535, and `read_pgm` any header
or payload length but what `write_pgm` writes.
"""

from __future__ import annotations

import hashlib
import math
import re
import warnings
from pathlib import Path

import numpy as np

from .geometry import IndicatorImage, RingMeasurement, SourceSet, imaging_grid

PGM_MAXVAL = 65535


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_header(f, meta: dict) -> None:
    f.write("".join(f"# {key}={value}\n" for key, value in meta.items()).encode("ascii"))


def _read_header(path, fmt: str, required) -> tuple[dict, int]:
    """Header of a `fmt` CSV and its line count.

    The leading `#` lines form the header, which must hold every key in
    `required`.
    """
    meta: dict[str, str] = {}
    n_header = 0
    with open(path, "r", encoding="ascii") as f:
        for line in f:
            body = line.strip()
            if body and not body.startswith("#"):
                break
            n_header += 1
            key, eq, value = body[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
    if meta.get("format") != fmt:
        raise ValueError(f"{path}: not a {fmt} file")
    missing = [key for key in required if key not in meta]
    if missing:
        raise ValueError(f"{path}: header has no {missing[0]!r} line")
    return meta, n_header


def _read_rows(path, dtype: np.dtype, n_header: int) -> np.ndarray:
    """The data rows after a header of `n_header` lines as a structured
    array, parsed by one `np.loadtxt` call, which skips empty lines and
    rejects a comment, a wrong column count or, in an integer field,
    non-integer text; text in a bytes field longer than it is truncated.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)     # no data rows
            return np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                              skiprows=n_header, ndmin=1, encoding="ascii")
    except ValueError as exc:
        raise ValueError(f"{path}: data rows: {exc}") from exc


def _header_value(path, meta: dict, key: str, convert=float, count: int | None = 1):
    """Header value ``key`` as ``count`` space-separated ``convert`` values:
    the value itself for 1, a tuple otherwise, of any length for None.
    ValueError naming the file and the key when it does not parse."""
    try:
        values = tuple(convert(v) for v in meta[key].split())
    except ValueError:
        values = None
    if values is None or count is not None and len(values) != count:
        raise ValueError(f"{path}: cannot parse header value {key}={meta[key]!r}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: header value {key}={meta[key]!r} is not finite")
    return values[0] if count == 1 else values


def _reject(path, n_header: int, bad: np.ndarray, why: str) -> None:
    """Raise ValueError naming the first data row where `bad` holds, quoted
    as written: the data rows are the non-empty lines after the header."""
    if bad.any():
        i = int(np.argmax(bad))
        with open(path, "r", encoding="ascii") as f:
            row = [line for line in f.read().split("\n")[n_header:] if line][i]
        raise ValueError(f"{path}: data row {i + 1} ({row}) {why}")


def _repeats(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """True for each row whose key in [0, n_keys) an earlier row already has."""
    repeated = np.zeros(keys.size, dtype=bool)
    if keys.size and np.bincount(keys, minlength=n_keys).max() > 1:
        repeated[:] = True
        repeated[np.unique(keys, return_index=True)[1]] = False
    return repeated


# ---------------------------------------------------------------------------
# Text as words: exact `%.17g` without formatting each number
# ---------------------------------------------------------------------------
#
# A text field is a run of little-endian '<u8' words whose bytes, NULs
# deleted, are the text; a row is the concatenation of its fields' words.
# All uint64 arithmetic uses np.uint64 operands: numpy < 2 promotes
# uint64 with a Python int to float64.

_U = np.uint64
_BLOCK_ROWS = 4096
_G17_WORDS = 6                    # a formatted float; its last byte is always NUL
_LAST_COMMA, _LAST_NEWLINE = _U(0x2C << 56), _U(0x0A << 56)    # for that last byte
_POW5 = np.array([5 ** s for s in range(28)], dtype="<u8")     # 5^27 < 2^63
# "%04d" % i as 4 ASCII bytes in the low half of a word, and its trailing zeros
_I4 = np.arange(10000, dtype="<u8")
_DIGITS4 = sum(((_I4 // _U(10 ** (3 - k)) % _U(10) + _U(0x30)) << _U(8 * k)
                for k in range(4)), _U(0))
_TRAILING_ZEROS4 = sum((_I4 % _U(10 ** k) == _U(0)).astype(np.int64) for k in range(1, 5))
_KEEP = np.array([(1 << 8 * c) - 1 for c in range(9)], dtype="<u8")  # the first c bytes
# A '.' at digit c (1..16) of two words of digits 1..16; index 0 is none.
_POINT1 = np.array([0] + [0x2E << 8 * c for c in range(8)] + [0] * 8, dtype="<u8")
_POINT2 = np.array([0] * 9 + [0x2E << 8 * c for c in range(8)], dtype="<u8")
# The lead word by case: no point, a point after the first digit, or
# "0." and 0-3 zeros for a fixed-notation |v| < 1; the first digit's shift.
_LEAD = np.array([0, 0x2E << 16] + [int.from_bytes(b"\0" + b"0." + b"0" * z, "little")
                                    for z in range(4)], dtype="<u8")
_LEAD_SHIFT = np.array([8, 8, 24, 32, 40, 48], dtype="<u8")
_EXP_SIGN = np.array([0x2B00, 0x2D00], dtype="<u8")      # "+", "-" after the "e"
_FLAG_WORDS = np.array([int.from_bytes(b"%d\n" % i, "little") for i in range(256)],
                       dtype="<u8")


def _text_words(texts: list[str], width: int | None = None) -> np.ndarray:
    """(len(texts), width) words of ASCII texts, NUL-padded; the width
    defaults to the fewest words that hold the longest text."""
    raw = [t.encode("ascii") for t in texts]
    if width is None:
        width = (max(map(len, raw), default=0) + 7) // 8
    return np.frombuffer(b"".join(r.ljust(8 * width, b"\0") for r in raw),
                         dtype="<u8").reshape(len(raw), width)


def _mul_128(m: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) 64-bit halves of m * p for m < 2^53 and p < 2^63, from four
    32 x 32-bit products (no partial sum reaches 2^64)."""
    low32 = _U(0xFFFFFFFF)
    m0, m1 = m & low32, m >> _U(32)
    p0, p1 = p & low32, p >> _U(32)
    a = m0 * p0
    mid = m0 * p1 + m1 * p0 + (a >> _U(32))
    return m1 * p1 + (mid >> _U(32)), (mid << _U(32)) | (a & low32)


def _g17_words(values: np.ndarray) -> np.ndarray:
    """(n, 6) words of `'%.17g' % v` for each v of a float64 array; the
    last byte of each row is NUL, free for a separator.

    For 1e-11 <= |v| < 1e17, with v = m 2^q and e10 its decimal exponent,
    the 17 digits are D = round-half-even(m 5^s 2^(q+s)) for s = 16 - e10:
    m 5^s is exact in 128 bits and the shift -(q+s) lies in [1, 63], or is
    a left shift of at most 4 with nothing to round.  e10 starts as
    floor(log10|v|) and is corrected until the unrounded quotient lies in
    [1e16, 1e17); a D that rounds up to 1e17 carries to the next exponent.
    The text is laid out in fields whose unused bytes are NUL: a lead word
    (sign, "0.000" for a fixed-notation |v| < 1, the first digit, a point
    after it), digits 1..16 kept up to the point, digits 1..16 kept after
    it up to the last nonzero one (with the point, when it follows digit
    1 or a later one), and "e-XX" or "e+XX".  Zeros, subnormals,
    non-finite values and the rest are formatted by `%`.
    """
    v = np.ascontiguousarray(values, dtype="<f8").reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        e10 = np.floor(np.log10(np.abs(v)))
    idx = np.flatnonzero((e10 >= -11) & (e10 <= 16))
    bits = v.view("<u8").take(idx)
    e = e10.take(idx).astype(np.int64)
    m = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    q = (bits >> _U(52)).astype(np.int64) % 2048 - 1075
    while True:
        s = 16 - e
        hi, lo = _mul_128(m, _POW5.take(s))
        r = -(q + s)
        shift = np.maximum(r, 1).astype("<u8")
        t = (hi << (_U(64) - shift)) | (lo >> shift)
        exact = np.flatnonzero(r <= 0)                # |v| >= 2^51: no rounding
        t[exact] = lo[exact] << (-r[exact]).astype("<u8")
        if ((t - _U(10 ** 16)) < _U(9 * 10 ** 16)).all():
            break
        e += (t >= _U(10 ** 17)).astype(np.int64) - (t < _U(10 ** 16))
        kept = (e >= -11) & (e <= 16)
        idx, bits, e, m, q = idx[kept], bits[kept], e[kept], m[kept], q[kept]
    rem = lo & ((_U(1) << shift) - _U(1))
    half = _U(1) << (shift - _U(1))
    d = t + ((rem > half) | (rem == half) & (t & _U(1)).astype(bool))
    d[exact] = t[exact]
    carry = d == _U(10 ** 17)
    d[carry] = _U(10 ** 16)
    e += carry

    first = d // _U(10 ** 16)
    rest = (d - first * _U(10 ** 16)).view(np.int64)  # table indices are int64
    high8 = rest // 10 ** 8
    groups = []                                       # digits 1-4, 5-8, 9-12, 13-16
    for g8 in (high8, rest - high8 * 10 ** 8):
        g4 = g8 // 10000
        groups += [g4, g8 - g4 * 10000]
    digits1 = _DIGITS4.take(groups[0]) | _DIGITS4.take(groups[1]) << _U(32)
    digits2 = _DIGITS4.take(groups[2]) | _DIGITS4.take(groups[3]) << _U(32)
    last = 16 - _TRAILING_ZEROS4.take(groups[3])      # the last nonzero digit, 0..16
    for i in (2, 1, 0):
        zero = np.flatnonzero(last == 4 * i + 4)      # groups after i all zero
        last[zero] -= _TRAILING_ZEROS4.take(groups[i][zero])
    fixed = (e >= -4) & (e < 17)
    point = e * fixed                                 # the point follows this digit
    before = np.maximum(point, 0)
    lead = np.maximum(1 - point, 0)
    lead -= (point == 0) & (last == 0)
    words = np.empty((idx.size, _G17_WORDS), dtype="<u8")
    words[:, 0] = (_LEAD.take(lead) | (first + _U(0x30)) << _LEAD_SHIFT.take(lead)
                   | (bits >> _U(63)) * _U(0x2D))
    keep1 = _KEEP.take(np.minimum(before, 8))
    keep2 = _KEEP.take(np.maximum(before - 8, 0))
    words[:, 1] = digits1 & keep1
    words[:, 2] = digits2 & keep2
    dot = before * (last > before)
    words[:, 3] = digits1 & _KEEP.take(np.minimum(last, 8)) & ~keep1 | _POINT1.take(dot)
    words[:, 4] = digits2 & _KEEP.take(np.maximum(last - 8, 0)) & ~keep2 | _POINT2.take(dot)
    words[:, 5] = 0
    sci = np.flatnonzero(~fixed)
    if sci.size:
        x = e[sci]
        words[sci, 5] = (_U(0x65) | _EXP_SIGN.take((x < 0).view(np.int8))
                         | _DIGITS4.take(np.abs(x)) & _U(0xFFFF0000))
    if idx.size == v.size:
        return words
    out = np.zeros((v.size, _G17_WORDS), dtype="<u8")
    out[idx] = words
    slow = np.ones(v.size, dtype=bool)
    slow[idx] = False
    out[slow] = _text_words(["%.17g" % x for x in v[slow].tolist()], _G17_WORDS)
    return out


def _write_words(f, blocks) -> None:
    """Write each block of words to the binary file f, NULs deleted."""
    for words in blocks:
        f.write(words.tobytes().translate(None, b"\0"))


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
        "k": ring.k,
        "side": ring.side,
        "field": "scattered",
        "ring_radius": ring.radius,
        "n_receivers": ring.n_receivers,
        "n_sources": ring.sources.count,
        "source_radius": ring.sources.radius,
        "source_center": " ".join(map(format, ring.sources.center)),
        "delta": ring.noise_level,
    }
    if extra:
        meta.update(extra)
    # A row is "j," and "m,theta," from tables, then re and im as words with
    # the comma and the newline in their free last bytes.
    sources = _text_words([f"{j}," for j in range(ring.sources.count)])
    receivers = _text_words([f"{m},{t:.17g}," for m, t in enumerate(ring.angles.tolist())])
    samples = ring.samples.reshape(-1)

    def blocks():
        for start in range(0, samples.size, _BLOCK_ROWS):
            z = samples[start:start + _BLOCK_ROWS]
            j, m = np.divmod(np.arange(start, start + z.size), ring.n_receivers)
            pair = _g17_words(np.stack([z.real, z.imag], axis=-1)).reshape(z.size, -1)
            pair[:, _G17_WORDS - 1] |= _LAST_COMMA
            pair[:, -1] |= _LAST_NEWLINE
            yield np.hstack([sources.take(j, axis=0), receivers.take(m, axis=0), pair])

    with open(path, "wb") as f:
        _write_header(f, meta)
        f.write(b"# columns=source_index,receiver_index,theta,re,im\n")
        _write_words(f, blocks())


def read_ring_csv(path) -> tuple[RingMeasurement, dict]:
    meta, n_header = _read_header(path, "nearscat-ring-1", _RING_KEYS)
    if meta["field"] != "scattered":
        raise ValueError(f"{path}: field={meta['field']}, expected the scattered field")
    if meta["side"] not in ("exterior", "interior"):
        raise ValueError(f"{path}: side={meta['side']}, expected exterior or interior")
    n_src = _header_value(path, meta, "n_sources", int)
    n_rec = _header_value(path, meta, "n_receivers", int)
    k, ring_radius, delta = (_header_value(path, meta, key)
                             for key in ("k", "ring_radius", "delta"))
    for key, ok, rule in (("k", k > 0.0, "> 0"), ("ring_radius", ring_radius > 0.0, "> 0"),
                          ("delta", 0.0 <= delta < 1.0, "in [0, 1)"),
                          ("n_receivers", n_rec >= 1, ">= 1")):
        if not ok:
            raise ValueError(f"{path}: header value {key}={meta[key]!r} is not {rule}")
    center = _header_value(path, meta, "source_center", count=2)
    source_radius = _header_value(path, meta, "source_radius")
    try:
        sources = SourceSet(center=center, radius=source_radius, count=n_src)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    rows = _read_rows(path, _RING_ROW, n_header)
    if rows.size != n_src * n_rec:
        raise ValueError(f"{path}: expected {n_src * n_rec} rows, found {rows.size}")
    j, m = rows["source"], rows["receiver"]
    _reject(path, n_header, (j < 0) | (j >= n_src) | (m < 0) | (m >= n_rec),
            "has a source or receiver index out of range")
    _reject(path, n_header, _repeats(j * n_rec + m, n_src * n_rec),
            "repeats the (source, receiver) pair of an earlier row")
    _reject(path, n_header, ~(np.isfinite(rows["theta"]) & np.isfinite(rows["re"])
                              & np.isfinite(rows["im"])), "has a non-finite theta, re or im")
    _reject(path, n_header, np.abs(rows["theta"] - 2.0 * np.pi * m / n_rec) > 1e-12,
            "has a theta more than 1e-12 from 2 pi m / M for its receiver m")
    samples = np.zeros((n_src, n_rec), dtype=complex)
    samples.real[j, m] = rows["re"]
    samples.imag[j, m] = rows["im"]
    ring = RingMeasurement(radius=ring_radius, k=k, samples=samples, noise_level=delta,
                           side=meta["side"], sources=sources)
    return ring, meta


# ---------------------------------------------------------------------------
# Indicator grids
# ---------------------------------------------------------------------------

_GRID_KEYS = ("xmin", "xmax", "ymin", "ymax", "nx", "ny", "kind", "state", "wavenumbers")


def write_grid_csv(path, image: IndicatorImage, extra: dict | None = None) -> None:
    g = image.grid
    meta = {
        "format": "nearscat-grid-1",
        "xmin": g.xmin, "xmax": g.xmax, "ymin": g.ymin, "ymax": g.ymax,
        "nx": g.nx, "ny": g.ny,
        "kind": image.kind,
        "state": image.state,
        "wavenumbers": " ".join(map(format, image.wavenumbers)),
    }
    if g.exclusion is not None:
        meta["exclusion"] = " ".join(map(format, g.exclusion))
    if extra:
        meta.update(extra)
    # A row is "x," and "y," from tables, the value as words with the comma
    # in its free last byte, and "flag\n" from a table; masked points drop out.
    xs, ys = (_text_words([t + "," for t in texts]) for texts in _coordinate_texts(g))

    def blocks():
        for start in range(0, g.n_points, _BLOCK_ROWS):
            i = start + np.flatnonzero(~g.mask[start:start + _BLOCK_ROWS])
            row, col = np.divmod(i, g.nx)
            value = _g17_words(image.values.take(i))
            value[:, -1] |= _LAST_COMMA
            yield np.hstack([xs.take(col, axis=0), ys.take(row, axis=0), value,
                             _FLAG_WORDS.take(image.flags.take(i))[:, None]])

    with open(path, "wb") as f:
        _write_header(f, meta)
        f.write(b"# columns=x,y,value,flag\n")
        _write_words(f, blocks())


def read_grid_csv(path) -> IndicatorImage:
    meta, n_header = _read_header(path, "nearscat-grid-1", _GRID_KEYS)
    grid = _header_grid(path, meta)
    ks = _header_value(path, meta, "wavenumbers", count=None)
    xs, ys = (np.array(texts, dtype=bytes) for texts in _coordinate_texts(grid))
    # one byte wider than the longest coordinate: a longer text, truncated, matches none
    text = f"S{max(xs.itemsize, ys.itemsize) + 1}"
    rows = _read_rows(path, np.dtype([("x", text), ("y", text), ("value", np.float64),
                                      ("flag", np.int64)]), n_header)
    idx = np.flatnonzero(~grid.mask)
    row, col = np.divmod(idx[:rows.size], grid.nx)
    moved = (rows["x"][:row.size] != xs[col]) | (rows["y"][:row.size] != ys[row])
    if moved.any():
        i = int(np.argmax(moved))
        _reject(path, n_header, moved, "does not hold the next unmasked grid point: expected "
                                       f"x={xs[col[i]].decode()}, y={ys[row[i]].decode()}")
    if rows.size != idx.size:
        raise ValueError(f"{path}: expected {idx.size} rows, one per unmasked grid point, "
                         f"found {rows.size}")
    _reject(path, n_header, ~np.isfinite(rows["value"]), "has a non-finite value")
    _reject(path, n_header, (rows["flag"] < 0) | (rows["flag"] > np.iinfo(np.uint8).max),
            "has a flag outside 0..255")
    values = np.full(grid.n_points, np.nan)
    flags = np.zeros(grid.n_points, dtype=np.uint8)
    values[idx] = rows["value"]
    flags[idx] = rows["flag"]
    return IndicatorImage(grid=grid, values=values, kind=meta["kind"],
                          wavenumbers=ks, state=meta["state"], flags=flags)


def _coordinate_texts(grid) -> tuple[list[str], list[str]]:
    """The `%.17g` texts of the grid's x per column and y per row."""
    return (["%.17g" % x for x in grid.points[:grid.nx, 0].tolist()],
            ["%.17g" % y for y in grid.points[::grid.nx, 1].tolist()])


def _header_grid(path, meta: dict):
    """The imaging grid a grid CSV's header describes; ValueError naming
    the file when ``imaging_grid`` refuses it."""
    exclusion = None
    if "exclusion" in meta:
        cx, cy, rad = _header_value(path, meta, "exclusion", count=3)
        exclusion = ((cx, cy), rad)
    bounds = [_header_value(path, meta, key) for key in ("xmin", "xmax", "ymin", "ymax")]
    shape = [_header_value(path, meta, key, int) for key in ("nx", "ny")]
    try:
        return imaging_grid(*bounds, *shape, exclusion=exclusion)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# PGM rendering
# ---------------------------------------------------------------------------

def pixels_from_image(image: IndicatorImage, clip_percent: float = 99.0) -> np.ndarray:
    """Map indicator values to a (ny, nx) uint array; masked points become 0.

    The clip_percent quantile of the unmasked values maps to 65535, larger
    values saturate; clip_percent = 100 is the linear map
    round(65535 * v / max).  ValueError unless 0 < clip_percent <= 100.
    """
    if not 0.0 < clip_percent <= 100.0:
        raise ValueError(f"clip percent must lie in (0, 100], got {clip_percent}")
    g = image.grid
    vals = image.values.copy()
    live = ~g.mask & ~np.isnan(vals)
    if not np.any(live):
        raise ValueError("nothing to render: all grid points masked")
    v = vals[live]
    top = float(np.percentile(v, clip_percent))
    if top <= 0.0:
        top = 1.0
    pix = np.zeros(g.n_points, dtype=np.int64)
    pix[live] = np.rint(PGM_MAXVAL * np.minimum(vals[live], top) / top).astype(np.int64)
    return g.as_image(pix)


def render_pgm(csv_path, out_path, clip_percent: float = 99.0) -> None:
    """Render an indicator grid CSV to a binary PGM (P5)."""
    image = read_grid_csv(csv_path)
    write_pgm(out_path, pixels_from_image(image, clip_percent))


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write a (ny, nx) array of integers in 0..PGM_MAXVAL as a binary PGM
    (P5); ValueError, before anything is written, for a pixel outside it."""
    pixels = np.asarray(pixels).astype(np.int64)
    ny, nx = pixels.shape
    if pixels.size and (pixels.min() < 0 or pixels.max() > PGM_MAXVAL):
        raise ValueError(f"{path}: pixel value outside 0..{PGM_MAXVAL}")
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n%d\n" % (nx, ny, PGM_MAXVAL))
        f.write(pixels.astype(">u2").tobytes())


def read_pgm(path) -> np.ndarray:
    """Pixels of a PGM that `write_pgm` wrote, as a (ny, nx) int64 array.

    Exactly one whitespace byte ends the header (Netpbm's rule), as the
    first payload byte may be whitespace too.  The pipeline never reads a
    PGM back: this is the writer's round-trip partner in the tests.
    """
    data = Path(path).read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if header is None:
        raise ValueError(f"{path}: no binary PGM (P5) header")
    nx, ny, maxval = map(int, header.groups())
    if nx < 1 or ny < 1 or maxval != PGM_MAXVAL:
        raise ValueError(f"{path}: {nx}x{ny} pixels, maxval {maxval}; expected >= 1x1, {PGM_MAXVAL}")
    n_bytes = len(data) - header.end()
    if n_bytes != 2 * nx * ny:
        raise ValueError(f"{path}: expected {2 * nx * ny} payload bytes, found {n_bytes}")
    return np.frombuffer(data, ">u2", offset=header.end()).astype(np.int64).reshape(ny, nx)
