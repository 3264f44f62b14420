import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nearscat import formats
from nearscat import forward as fw
from nearscat import indicator as ind
from nearscat.geometry import imaging_grid


def _ring():
    rng = np.random.default_rng(3)
    m, n_src = 16, 2
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=n_src)
    samples = rng.normal(size=(n_src, m)) + 1j * rng.normal(size=(n_src, m))
    return fw.RingMeasurement(radius=2.2, k=3.0, samples=samples,
                              noise_level=0.05, side="exterior", sources=sources)


def _image(state="raw"):
    grid = imaging_grid(-1.0, 1.0, -1.0, 1.0, 5, 5, exclusion=((0.0, 0.0), 0.4))
    rng = np.random.default_rng(5)
    values = rng.uniform(0.1, 2.0, grid.n_points)
    values[grid.mask] = np.nan
    flags = np.zeros(grid.n_points, dtype=np.uint8)
    flags[7] = ind.FLAG_DEGENERATE
    return ind.IndicatorImage(grid=grid, values=values, kind="soft",
                              wavenumbers=(3.0, 4.5), state=state, flags=flags)


def _data_rows(path, columns):
    return path.read_text().split(f"# columns={columns}\n", 1)[1]


# Per-row reference writers: the bulk writers must emit exactly these bytes.

def _grid_rows_by_loop(image):
    g, out = image.grid, []
    for i in range(g.n_points):
        if g.mask[i]:
            continue
        x, y = g.points[i]
        out.append(f"{x:.17g},{y:.17g},{image.values[i]:.17g},{int(image.flags[i])}\n")
    return "".join(out)


def _ring_rows_by_loop(ring):
    out = []
    for j in range(ring.sources.count):
        for m in range(ring.n_receivers):
            v = ring.samples[j, m]
            out.append(f"{j},{m},{ring.angles[m]:.17g},{v.real:.17g},{v.imag:.17g}\n")
    return "".join(out)


def _pgm_by_loop(pixels):
    ny, nx = pixels.shape
    header = f"P5\n{nx} {ny}\n{formats.PGM_MAXVAL}\n".encode("ascii")
    return header + b"".join(struct.pack(">H", int(p)) for row in pixels for p in row)


# Finite values spanning the subnormals up to 1e300, and both zeros.
_EXTREME = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300]) | st.floats(
    min_value=5e-324, max_value=1e300)
_FILE_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


def _spread(rng, n, special):
    """n log-uniform values in [5e-324, 1e300], led by the drawn extremes."""
    values = 10.0 ** rng.uniform(-323.3, 300.0, n)
    k = min(n, len(special))
    values[:k] = special[:k]
    return values


def _edit_data_row(path, i, new):
    lines = path.read_text().splitlines()
    data = [n for n, line in enumerate(lines) if not line.startswith("#")]
    lines[data[i]] = new(lines[data[i]])
    path.write_text("\n".join(lines) + "\n")


def _g17(values):
    """The texts of formats._g17_words, one per value."""
    words = formats._g17_words(np.asarray(values, dtype=np.float64))
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in words]


def _percent_g17(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def _ulps_around(x, n):
    """x and the n doubles on either side of it."""
    out, up, down = [x], x, x
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [float(up), float(down)]
    return out


# Raw 64-bit patterns, and patterns whose exponent field puts |v| in
# [2^-40, 2^60), around the integer path's range 1e-11 <= |v| < 1e17.
_RAW_BITS = st.integers(0, 2**64 - 1)
_FAST_BITS = st.builds(lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
                       st.integers(0, 1), st.integers(1023 - 40, 1023 + 59),
                       st.integers(0, 2**52 - 1))


class TestG17Words:
    @settings(max_examples=150, deadline=None)
    @given(bits=st.lists(_RAW_BITS | _FAST_BITS, min_size=1, max_size=64))
    def test_matches_percent_on_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assert _g17(values) == _percent_g17(values)

    def test_powers_of_ten_and_their_neighbours(self):
        values = [v for p in range(-12, 18) for v in _ulps_around(float(f"1e{p}"), 40)]
        values = np.array(values + [-v for v in values])
        assert _g17(values) == _percent_g17(values)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,     # zeros, subnormal, tiniest normal
        float(np.nextafter(1.0, 0.0)), 1.0, -1.0, 0.5, 0.1, 123.456,
        1e-07,                               # "9.9999999999999995e-08": its log10 is -7
        1000000000000000.25, 1000000000000000.75, -1000000000000000.25,   # exact ties
        2.0 ** 52, 2.0 ** 53 + 2.0, 2.0 ** 56, 99999999999999984.0,       # left shifts
        1e-11, 3e-12, 1e-100, -2.5e-200,                                  # below the range
        1e17, 1.7976931348623157e308, 1e200, -4.2e123,                    # above it
        1.5e-5, 0.00012345, 0.0001, 0.001, 1e16, 12345678901234567.0,
        float("inf"), float("-inf"), float("nan")])
    def test_named_edges(self, value):
        assert _g17([value]) == _percent_g17([value])

    def test_block_mixing_integer_path_and_fallback(self):
        # fast rows interleaved with every kind of fallback row, and each
        # row's last byte left NUL for the writers' separators
        rng = np.random.default_rng(17)
        values = rng.normal(size=600) * 10.0 ** rng.uniform(-15.0, 20.0, 600)
        values[::7] = rng.choice([0.0, -0.0, 5e-324, 1e-300, 3e-12, 1e17, 2e250,
                                  np.inf, -np.inf, np.nan], values[::7].size)
        words = formats._g17_words(values)
        assert not np.any(words[:, -1] >> np.uint64(56))
        assert _g17(values) == _percent_g17(values)


_HEADER_FLOAT = st.floats(-1e6, 1e6)
_HEADER_POSITIVE = st.floats(1e-3, 1e3)


class TestHeaderNumbers:
    """Header numbers are written with ``format``: a Python float's repr, and
    for a numpy scalar the same shortest text, where numpy 2's repr,
    ``np.float64(0.05)``, does not parse."""

    @settings(max_examples=300, deadline=None)
    @given(bits=_RAW_BITS)
    def test_format_of_float64_is_repr_of_float(self, bits):
        # so a run whose numbers are Python floats writes the bytes it wrote
        # when the headers used repr
        v = struct.unpack("<d", struct.pack("<Q", bits))[0]
        if np.isfinite(v):
            assert format(np.float64(v)) == format(v) == repr(v)

    @_FILE_SETTINGS
    @given(k=_HEADER_POSITIVE, radius=_HEADER_POSITIVE, source_radius=_HEADER_POSITIVE,
           center=st.tuples(_HEADER_FLOAT, _HEADER_FLOAT), delta=st.floats(0.0, 0.99),
           n_src=st.integers(1, 3), n_rec=st.integers(1, 6))
    def test_numpy_scalar_ring_header_reads_back(self, tmp_path, k, radius, source_radius,
                                                 center, delta, n_src, n_rec):
        f64 = np.float64
        sources = fw.SourceSet(center=(f64(center[0]), f64(center[1])),
                               radius=f64(source_radius), count=np.int64(n_src))
        ring = fw.RingMeasurement(radius=f64(radius), k=f64(k),
                                  samples=np.ones((n_src, n_rec), dtype=complex),
                                  noise_level=f64(delta), side="interior", sources=sources)
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, ring, extra={"seed": np.int64(7)})
        back, meta = formats.read_ring_csv(path)
        assert (back.k, back.radius, back.noise_level) == (k, radius, delta)
        assert (back.sources.center, back.sources.radius) == (center, source_radius)
        assert (back.sources.count, back.n_receivers, meta["seed"]) == (n_src, n_rec, "7")

    @_FILE_SETTINGS
    @given(x0=_HEADER_FLOAT, y0=_HEADER_FLOAT, width=_HEADER_POSITIVE,
           height=_HEADER_POSITIVE, nx=st.integers(2, 6), ny=st.integers(2, 6),
           disk=st.tuples(_HEADER_FLOAT, _HEADER_FLOAT, _HEADER_POSITIVE),
           wavenumbers=st.lists(_HEADER_POSITIVE, min_size=1, max_size=3))
    def test_numpy_scalar_grid_header_reads_back(self, tmp_path, x0, y0, width, height,
                                                 nx, ny, disk, wavenumbers):
        f64 = np.float64
        grid = imaging_grid(f64(x0), f64(x0) + f64(width), f64(y0), f64(y0) + f64(height),
                            np.int64(nx), np.int64(ny), exclusion=(disk[:2], disk[2]))
        grid = replace(grid, exclusion=tuple(map(f64, disk)))     # imaging_grid takes float()
        image = ind.IndicatorImage(grid=grid, values=np.ones(grid.n_points), kind="soft",
                                   wavenumbers=tuple(map(f64, wavenumbers)), state="raw",
                                   flags=np.zeros(grid.n_points, dtype=np.uint8))
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, image)
        back = formats.read_grid_csv(path)
        g = back.grid
        assert (g.xmin, g.xmax, g.ymin, g.ymax) == (grid.xmin, grid.xmax, grid.ymin, grid.ymax)
        assert (g.nx, g.ny, g.exclusion) == (nx, ny, disk)
        assert back.wavenumbers == tuple(wavenumbers)


class TestRingCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ring = _ring()
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, ring, extra={"bc": "soft", "shape": "circle",
                                                  "seed": 7})
        back, meta = formats.read_ring_csv(path)
        assert np.array_equal(back.samples, ring.samples)
        assert np.array_equal(back.angles, ring.angles)
        assert back.k == ring.k and back.radius == ring.radius
        assert back.noise_level == ring.noise_level
        assert back.sources == ring.sources
        assert meta["bc"] == "soft" and meta["seed"] == "7"

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("# format=other\n1,2,3\n")
        with pytest.raises(ValueError):
            formats.read_ring_csv(path)

    def test_rejects_truncated(self, tmp_path):
        ring = _ring()
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, ring)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError):
            formats.read_ring_csv(path)

    def test_rejects_repeated_pair(self, tmp_path):
        # the row count still matches, but sample (1, 15) would read as 0j
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        _edit_data_row(path, -1, lambda line: "0,0," + line.split(",", 2)[2])
        with pytest.raises(ValueError, match="data row 32 .*repeats"):
            formats.read_ring_csv(path)

    def test_rejects_negative_source_index(self, tmp_path):
        # -1 would wrap to the last source and leave sample (0, 3) as 0j
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        _edit_data_row(path, 3, lambda line: "-1" + line[1:])
        with pytest.raises(ValueError, match="data row 4 .*out of range"):
            formats.read_ring_csv(path)

    @pytest.mark.parametrize("edited", [1, 17])
    def test_rejects_disagreeing_theta(self, tmp_path, edited):
        # rows 2 and 18 both carry receiver 1; its angle used to come from
        # whichever was read last.  The edited row is off the 2 pi m / M layout.
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        _edit_data_row(path, edited, lambda line: ",".join(
            line.split(",")[:2] + ["2.5"] + line.split(",")[3:]))
        with pytest.raises(ValueError, match=f"data row {edited + 1} .*theta"):
            formats.read_ring_csv(path)

    def test_refused_row_quoted_as_written(self, tmp_path):
        # the row is quoted as the file has it, not as parsed (1.0 for theta)
        sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2)
        ring = fw.RingMeasurement(radius=2.2, k=3.0, samples=np.ones((2, 4), dtype=complex),
                                  noise_level=0.0, side="exterior", sources=sources)
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, ring)
        row = "0,1,1.00000000000000000000000000,1,0"
        _edit_data_row(path, 1, lambda line: row)
        with pytest.raises(ValueError, match=re.escape(f"ring.csv: data row 2 ({row}) has a ")):
            formats.read_ring_csv(path)

    @pytest.mark.parametrize("column,value", [(2, "nan"), (3, "inf"), (4, "-nan"),
                                              (3, "-inf")])
    def test_rejects_non_finite_number(self, tmp_path, column, value):
        # a nan theta passed the layout check, which is False for NaN, and a
        # non-finite sample went on to the noise model and the indicator
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        _edit_data_row(path, 5, lambda line: ",".join(
            value if i == column else part for i, part in enumerate(line.split(","))))
        with pytest.raises(ValueError, match="data row 6 .*non-finite theta, re or im"):
            formats.read_ring_csv(path)

    def test_rejects_unknown_side(self, tmp_path):
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        path.write_text(path.read_text().replace("# side=exterior\n", "# side=sideways\n"))
        with pytest.raises(ValueError, match="ring.csv: side=sideways"):
            formats.read_ring_csv(path)

    def test_rejects_missing_header_key(self, tmp_path):
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        path.write_text(path.read_text().replace("# n_sources=2\n", ""))
        with pytest.raises(ValueError, match="ring.csv: header has no 'n_sources'"):
            formats.read_ring_csv(path)

    @pytest.mark.parametrize("line,bad", [("# k=3.0\n", "# k=abc\n"),
                                          ("# n_sources=2\n", "# n_sources=x\n"),
                                          ("# source_center=0.0 0.0\n",
                                           "# source_center=0.0\n")])
    def test_rejects_unparsable_header_value(self, tmp_path, line, bad):
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        path.write_text(path.read_text().replace(line, bad))
        key = bad[2:bad.index("=")]
        with pytest.raises(ValueError, match=f"ring.csv: cannot parse header value {key}="):
            formats.read_ring_csv(path)

    @pytest.mark.parametrize("line,bad", [("# k=3.0\n", "# k=inf\n"),
                                          ("# delta=0.05\n", "# delta=nan\n"),
                                          ("# ring_radius=2.2\n", "# ring_radius=-inf\n"),
                                          ("# source_center=0.0 0.0\n",
                                           "# source_center=0.0 nan\n")])
    def test_rejects_non_finite_header_value(self, tmp_path, line, bad):
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        path.write_text(path.read_text().replace(line, bad))
        key = bad[2:bad.index("=")]
        with pytest.raises(ValueError, match=f"ring.csv: header value {key}=.* is not finite"):
            formats.read_ring_csv(path)

    def test_rejects_total_field(self, tmp_path):
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        assert "# field=scattered\n" in path.read_text()
        path.write_text(path.read_text().replace("# field=scattered\n", "# field=total\n"))
        with pytest.raises(ValueError, match="ring.csv: field=total"):
            formats.read_ring_csv(path)

    @pytest.mark.parametrize("line,bad,why", [
        ("# k=3.0\n", "# k=-3.0\n", "header value k='-3.0' is not > 0"),
        ("# ring_radius=2.2\n", "# ring_radius=-2.2\n",
         "header value ring_radius='-2.2' is not > 0"),
        ("# delta=0.05\n", "# delta=-0.5\n", r"header value delta='-0.5' is not in \[0, 1\)"),
        ("# delta=0.05\n", "# delta=1.0\n", r"header value delta='1.0' is not in \[0, 1\)"),
        ("# n_receivers=16\n", "# n_receivers=0\n", "header value n_receivers='0' is not >= 1"),
        ("# n_sources=2\n", "# n_sources=0\n", "need at least one source"),
        ("# source_radius=2.2\n", "# source_radius=-2.2\n", "source circle radius")],
        ids=["k", "ring_radius", "delta_negative", "delta_one", "n_receivers", "n_sources",
             "source_radius"])
    def test_rejects_out_of_range_header_value(self, tmp_path, line, bad, why):
        # refused before the data rows, one of which does not parse
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        path.write_text(path.read_text().replace(line, bad))
        _edit_data_row(path, 0, lambda row: "x" + row)
        with pytest.raises(ValueError, match=f"ring.csv: {why}"):
            formats.read_ring_csv(path)

    @_FILE_SETTINGS
    @given(n_src=st.integers(1, 5), n_rec=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), special=st.lists(_EXTREME, max_size=8))
    def test_bytes_and_round_trip(self, tmp_path, n_src, n_rec, seed, special):
        rng = np.random.default_rng(seed)
        n = 2 * n_src * n_rec
        parts = _spread(rng, n, special) * rng.choice([-1.0, 1.0], n)
        samples = np.empty((n_src, n_rec), dtype=complex)
        samples.real, samples.imag = parts.reshape(2, n_src, n_rec)
        sources = fw.SourceSet(center=(0.25, -0.5), radius=2.2, count=n_src)
        ring = fw.RingMeasurement(radius=2.5, k=3.0, samples=samples,
                                  noise_level=0.05, side="exterior", sources=sources)
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, ring)
        assert _data_rows(path, "source_index,receiver_index,theta,re,im") == \
            _ring_rows_by_loop(ring)
        back, _ = formats.read_ring_csv(path)
        assert back.samples.tobytes() == ring.samples.tobytes()
        assert back.angles.tobytes() == ring.angles.tobytes()


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        img = _image("normalized")
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, img)
        back = formats.read_grid_csv(path)
        live = ~img.grid.mask
        assert np.array_equal(back.values[live], img.values[live])
        assert np.array_equal(back.flags, img.flags)
        assert back.kind == img.kind and back.state == img.state
        assert back.wavenumbers == img.wavenumbers
        assert np.array_equal(back.grid.mask, img.grid.mask)

    def test_masked_rows_omitted(self, tmp_path):
        img = _image()
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, img)
        n_rows = sum(1 for line in path.read_text().splitlines()
                     if line and not line.startswith("#"))
        assert n_rows == int((~img.grid.mask).sum())

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# format=nearscat-grid-1\n# xmin=0\n")
        with pytest.raises(ValueError, match="bad.csv: header has no 'xmax'"):
            formats.read_grid_csv(path)

    def test_rejects_unparsable_header_value(self, tmp_path):
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        path.write_text(path.read_text().replace("# nx=5\n", "# nx=abc\n"))
        with pytest.raises(ValueError, match="grid.csv: cannot parse header value nx="):
            formats.read_grid_csv(path)

    @pytest.mark.parametrize("line,bad,why", [
        ("# nx=5\n", "# nx=1\n", "nx and ny must be >= 2"),
        ("# xmax=1.0\n", "# xmax=-2.0\n", "degenerate grid bounds"),
        ("# exclusion=0.0 0.0 0.4\n", "# exclusion=0 0 -1\n",
         "exclusion radius must be nonnegative")], ids=["nx", "xmax", "exclusion"])
    def test_rejects_header_of_no_grid(self, tmp_path, line, bad, why):
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        path.write_text(path.read_text().replace(line, bad))
        with pytest.raises(ValueError, match=f"grid.csv: {why}"):
            formats.read_grid_csv(path)

    def test_header_checked_before_data_rows(self, tmp_path):
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        path.write_text(path.read_text().replace("# nx=5\n", "# nx=abc\n"))
        _edit_data_row(path, 3, lambda line: line.rsplit(",", 1)[0])      # three columns
        with pytest.raises(ValueError, match="grid.csv: cannot parse header value nx="):
            formats.read_grid_csv(path)

    def test_written_file_with_nan_takes_one_data_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        _edit_data_row(path, 3, lambda line: ",".join(
            "nan" if i == 2 else part for i, part in enumerate(line.split(","))))
        x, y = _data_rows(path, "x,y,value,flag").splitlines()[3].split(",")[:2]
        passes = []
        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: passes.append(1) or real(*a, **kw))
        with pytest.raises(ValueError, match=re.escape(
                f"grid.csv: data row 4 ({x},{y},nan,0) has a non-finite value")):
            formats.read_grid_csv(path)
        assert len(passes) == 1

    def test_rejects_duplicated_row(self, tmp_path):
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        _edit_data_row(path, -1, lambda line: line + "\n" + line.rsplit(",", 2)[0] + ",9.5,0")
        with pytest.raises(ValueError, match="grid.csv: expected 24 rows, one per unmasked "
                                             "grid point, found 25"):
            formats.read_grid_csv(path)

    def test_rejects_row_at_masked_point(self, tmp_path):
        # (0, 0) lies inside the exclusion disk of radius 0.4
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        _edit_data_row(path, -1, lambda line: line + "\n0,0,0.5,0")
        with pytest.raises(ValueError, match="grid.csv: expected 24 rows, one per unmasked "
                                             "grid point, found 25"):
            formats.read_grid_csv(path)

    @pytest.mark.parametrize("bad,why", [pytest.param(bad, why, id=bad) for bad, why in [
        ("3,4,0.5,0", r"data row 1 \(3,4,0.5,0\) does not hold the next unmasked grid point: "
                      r"expected x=-1, y=1$"),
        ("0.5,0.5,0.5,1.5", "data rows"),
        ("0.5,0.5,0.5,256", r"data row 1 \(0.5,0.5,0.5,256\) does not hold the next"),
        ("-1,1,0.5,256", r"data row 1 \(-1,1,0.5,256\) has a flag outside 0..255")]])
    def test_rejects_bad_row(self, tmp_path, bad, why):
        # off the first grid point, a non-integer flag, a flag beyond uint8
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        _edit_data_row(path, 0, lambda line: bad)
        with pytest.raises(ValueError, match=f"grid.csv: {why}"):
            formats.read_grid_csv(path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_rejects_non_finite_value(self, tmp_path, value):
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        _edit_data_row(path, 3, lambda line: ",".join(
            value if i == 2 else part for i, part in enumerate(line.split(","))))
        with pytest.raises(ValueError, match="grid.csv: data row 4 .*non-finite value"):
            formats.read_grid_csv(path)

    @pytest.mark.parametrize("edit", [
        lambda line: line + "\n# a comment among the data rows",
        lambda line: line.rsplit(",", 1)[0]])              # three columns
    def test_rejects_unparsable_data(self, tmp_path, edit):
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        _edit_data_row(path, 3, edit)
        with pytest.raises(ValueError, match="grid.csv: data rows"):
            formats.read_grid_csv(path)

    @staticmethod
    def _edit_coordinates(path, edit):
        """Rewrite every data row's x and y text through edit(x, y)."""
        lines = path.read_text().splitlines()
        for n, line in enumerate(lines):
            if not line.startswith("#"):
                x, y, rest = line.split(",", 2)
                lines[n] = ",".join([*edit(x, y), rest])
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("edit", [
        lambda x, y: ("5e-1" if x == "0.5" else x, y),
        lambda x, y: (x, "+0.5" if y == "0.5" else y),
        lambda x, y: (x.ljust(40, "0") if x == "0.5" else x, y),     # 40 characters
        lambda x, y: ("-0.50" if x == "-0.5" else x, y)])           # one byte past "-0.5"
    def test_coordinate_text_of_another_writer(self, tmp_path, monkeypatch, edit):
        # the same numbers in another text are not the writer's rows, and the
        # reader refuses them after its one pass
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        written = path.read_bytes()
        self._edit_coordinates(path, edit)
        assert path.read_bytes() != written
        passes = []
        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: passes.append(1) or real(*a, **kw))
        with pytest.raises(ValueError, match=r"grid.csv: data row \d+ \(.*\) does not hold "
                                             r"the next unmasked grid point: expected "):
            formats.read_grid_csv(path)
        assert len(passes) == 1

    def test_shuffled_rows(self, tmp_path):
        # rows out of grid order are refused at the first one out of place
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        lines = path.read_text().splitlines()
        n_header = sum(line.startswith("#") for line in lines)
        data = lines[n_header:]
        order = np.random.default_rng(2).permutation(len(data))
        path.write_text("\n".join(lines[:n_header] + [data[i] for i in order]) + "\n")
        first = int(np.argmax(order != np.arange(len(data))))
        (x, y), (want_x, want_y) = (data[i].split(",")[:2] for i in (order[first], first))
        with pytest.raises(ValueError, match=re.escape(f"grid.csv: data row {first + 1} ({x},{y},")
                           + r".*\) does not hold the next unmasked grid point: "
                           + re.escape(f"expected x={want_x}, y={want_y}")):
            formats.read_grid_csv(path)

    def test_text_past_a_coordinate_rejected(self, tmp_path):
        # "-0.5x" would read as "-0.5" in a field as wide as the longest
        # coordinate; the reader's fields are one byte wider
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        self._edit_coordinates(path, lambda x, y: ("-0.5x" if x == "-0.5" else x, y))
        with pytest.raises(ValueError, match=r"grid.csv: data row 2 \(-0.5x,1,.*\) does not "
                                             r"hold the next unmasked grid point: expected "
                                             r"x=-0.5, y=1$"):
            formats.read_grid_csv(path)

    def test_refused_row_quoted_as_written(self, tmp_path):
        # an x longer than the reader's text field is quoted whole
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        self._edit_coordinates(path, lambda x, y: (x.ljust(30, "0") if x == "-0.5" else x, y))
        row = _data_rows(path, "x,y,value,flag").splitlines()[1]
        assert row.startswith("-0.5".ljust(30, "0") + ",1,")
        with pytest.raises(ValueError, match=re.escape(f"grid.csv: data row 2 ({row}) does not "
                                                       "hold the next unmasked grid point")):
            formats.read_grid_csv(path)

    def test_written_file_takes_one_data_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        passes = []
        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: passes.append(1) or real(*a, **kw))
        formats.read_grid_csv(path)
        assert len(passes) == 1

    def test_blank_lines_skipped(self, tmp_path):
        img = _image()
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, img)
        lines = path.read_text().splitlines()
        lines.insert(2, "")                                  # in the header
        n_header = sum(line.startswith("#") for line in lines)
        lines[n_header + 1:n_header + 1] = ["", "  "]        # among the data rows
        path.write_text("\n".join(lines) + "\n\n")
        back = formats.read_grid_csv(path)
        live = ~img.grid.mask
        assert np.array_equal(back.values[live], img.values[live])
        assert np.array_equal(back.flags, img.flags)

    def test_header_only_file(self, tmp_path):
        # every grid point masked: the file has no data rows
        grid = imaging_grid(-1.0, 1.0, -1.0, 1.0, 3, 3, exclusion=((0.0, 0.0), 2.0))
        img = ind.IndicatorImage(grid=grid, values=np.full(9, np.nan), kind="soft",
                                 wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(9, dtype=np.uint8))
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, img)
        assert all(line.startswith("#") for line in path.read_text().splitlines())
        back = formats.read_grid_csv(path)
        assert np.all(np.isnan(back.values)) and np.all(back.grid.mask)

    @_FILE_SETTINGS
    @given(x0=st.floats(-10.0, 10.0), y0=st.floats(-10.0, 10.0),
           width=st.floats(1e-3, 20.0), height=st.floats(1e-3, 20.0),
           nx=st.integers(2, 40), ny=st.integers(2, 40),
           disk=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                      st.floats(0.0, 0.8)),
           seed=st.integers(0, 2**32 - 1), special=st.lists(_EXTREME, max_size=8))
    def test_bytes_and_round_trip(self, tmp_path, x0, y0, width, height, nx, ny, disk,
                                  seed, special):
        exclusion = None
        if disk is not None:     # center and radius relative to the bounds
            exclusion = ((x0 + disk[0] * width, y0 + disk[1] * height),
                         disk[2] * max(width, height))
        grid = imaging_grid(x0, x0 + width, y0, y0 + height, nx, ny, exclusion=exclusion)
        rng = np.random.default_rng(seed)
        values = _spread(rng, grid.n_points, special)
        values[grid.mask] = np.nan
        flags = rng.integers(0, 2, grid.n_points).astype(np.uint8)
        image = ind.IndicatorImage(grid=grid, values=values, kind="hard",
                                   wavenumbers=(3.0,), state="raw", flags=flags)
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, image)
        assert _data_rows(path, "x,y,value,flag") == _grid_rows_by_loop(image)
        back = formats.read_grid_csv(path)
        live = ~grid.mask
        assert np.array_equal(back.grid.mask, grid.mask)
        assert back.values[live].tobytes() == values[live].tobytes()
        assert np.all(np.isnan(back.values[grid.mask]))
        assert np.array_equal(back.flags[live], flags[live])
        assert not np.any(back.flags[grid.mask])


    def test_writer_memory_does_not_grow_with_the_image(self, tmp_path):
        # rows are formatted a block at a time: the peak allocation is the
        # same for a 300^2 and a 600^2 image and smaller than the 300^2 file
        peaks = {}
        for n in (300, 600):
            grid = imaging_grid(-1.0, 1.0, -1.0, 1.0, n, n)
            values = np.random.default_rng(n).uniform(0.01, 2.0, grid.n_points)
            image = ind.IndicatorImage(grid=grid, values=values, kind="soft",
                                       wavenumbers=(3.0,), state="raw",
                                       flags=np.zeros(grid.n_points, dtype=np.uint8))
            tracemalloc.start()
            try:
                formats.write_grid_csv(tmp_path / f"grid{n}.csv", image)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[600] - peaks[300]) <= 0.1 * peaks[300], peaks
        assert peaks[300] < (tmp_path / "grid300.csv").stat().st_size, peaks


class TestPgm:
    def test_constant_grid_uniform_pixels(self, tmp_path):
        grid = imaging_grid(0.0, 1.0, 0.0, 1.0, 3, 3)
        img = ind.IndicatorImage(grid=grid, values=np.full(9, 0.7), kind="soft",
                                 wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(9, dtype=np.uint8))
        pix = formats.pixels_from_image(img, clip_percent=100.0)
        assert np.all(pix == formats.PGM_MAXVAL)

    def test_two_by_two_linear(self, tmp_path):
        grid = imaging_grid(0.0, 1.0, 0.0, 1.0, 2, 2)
        img = ind.IndicatorImage(grid=grid, values=np.array([0.0, 1.0, 1.0, 0.0]),
                                 kind="soft", wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(4, dtype=np.uint8))
        pix = formats.pixels_from_image(img, clip_percent=100.0)
        assert pix.tolist() == [[0, 65535], [65535, 0]]

    def test_round_trip_and_orientation(self, tmp_path):
        grid = imaging_grid(0.0, 1.0, 0.0, 1.0, 2, 2)
        img = ind.IndicatorImage(grid=grid, values=np.array([0.0, 1.0, 0.5, 0.25]),
                                 kind="soft", wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(4, dtype=np.uint8))
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, formats.pixels_from_image(img, clip_percent=100.0))
        pix = formats.read_pgm(path)
        assert pix.shape == (2, 2)
        assert pix[0, 1] == 65535            # top row = max y

    def test_rejects_payload_of_wrong_length(self, tmp_path):
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, np.array([[0, 1], [2, 3]]))
        written = path.read_bytes()
        for payload, n in ((written + b"\0", 9), (written[:-1], 7)):
            path.write_bytes(payload)
            with pytest.raises(ValueError, match=f"img.pgm: expected 8 payload bytes, found {n}"):
                formats.read_pgm(path)

    def test_rejects_other_magic_or_maxval(self, tmp_path):
        # an 8-bit P5, and an ASCII P2 of the same pixels
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 1\n255\n\x00\x01")
        with pytest.raises(ValueError, match="img.pgm: 2x1 pixels, maxval 255; expected "):
            formats.read_pgm(path)
        path.write_text(f"P2\n2 1\n{formats.PGM_MAXVAL}\n0 1\n")
        with pytest.raises(ValueError, match=re.escape("img.pgm: no binary PGM (P5) header")):
            formats.read_pgm(path)

    @pytest.mark.parametrize("header,why", [
        pytest.param(b"P5\n2 1\n", re.escape("no binary PGM (P5) header"), id="no maxval"),
        pytest.param(b"P5\n2 1 65535", re.escape("no binary PGM (P5) header"), id="no end byte"),
        pytest.param(b"P5\n0 1\n65535\n", "0x1 pixels", id="zero width"),
        pytest.param(b"P5\n2 0\n65535\n", "2x0 pixels", id="zero height")])
    def test_rejects_header(self, tmp_path, header, why):
        path = tmp_path / "img.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match=f"img.pgm: .*{why}"):
            formats.read_pgm(path)

    @pytest.mark.parametrize("first", [0x0A00, 0x2000, 0x0900])
    def test_payload_led_by_a_whitespace_byte(self, tmp_path, first):
        # one whitespace byte ends the header: the payload's first byte,
        # here a newline, space or tab, belongs to the first pixel
        pixels = np.array([[first, 7, formats.PGM_MAXVAL], [1, 0, 2]])
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, pixels)
        assert path.read_bytes() == _pgm_by_loop(pixels)
        assert np.array_equal(formats.read_pgm(path), pixels)

    @pytest.mark.parametrize("pixels", [[[70000, -1]], [[0, formats.PGM_MAXVAL + 1]], [[-1]]])
    def test_writer_rejects_pixel_outside_range(self, tmp_path, pixels):
        # the writer used to write what its own reader rejects
        path = tmp_path / "img.pgm"
        with pytest.raises(ValueError, match=f"img.pgm: pixel value outside 0..{formats.PGM_MAXVAL}"):
            formats.write_pgm(path, np.array(pixels))
        assert not path.exists()

    @_FILE_SETTINGS
    @given(nx=st.integers(1, 30), ny=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_bytes_and_round_trip(self, tmp_path, nx, ny, seed):
        pixels = np.random.default_rng(seed).integers(0, formats.PGM_MAXVAL + 1, (ny, nx))
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, pixels)
        assert path.read_bytes() == _pgm_by_loop(pixels)
        assert np.array_equal(formats.read_pgm(path), pixels)

    def test_full_size_bytes_with_extremes(self, tmp_path):
        # a 300^2 image holding 0 and 65535, byte for byte the per-pixel packing
        pixels = np.random.default_rng(11).integers(0, formats.PGM_MAXVAL + 1, (300, 300))
        pixels[0, 0], pixels[-1, -1], pixels[150, :7] = 0, formats.PGM_MAXVAL, formats.PGM_MAXVAL
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, pixels)
        assert path.read_bytes() == _pgm_by_loop(pixels)

    def test_masked_points_render_zero(self):
        img = _image()
        pix = formats.pixels_from_image(img, clip_percent=100.0)
        mask_img = img.grid.as_image(img.grid.mask)
        assert np.all(pix[mask_img] == 0)

    def test_percentile_clip(self):
        grid = imaging_grid(0.0, 1.0, 0.0, 1.0, 10, 10)
        values = np.arange(100, dtype=float)
        img = ind.IndicatorImage(grid=grid, values=values, kind="soft",
                                 wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(100, dtype=np.uint8))
        pix = formats.pixels_from_image(img, clip_percent=50.0)
        flat = pix.flatten()
        top = np.percentile(values, 50.0)
        assert np.all(flat[values > top] == 65535)       # clipped to maxval
        assert flat[10] == round(65535 * 10 / top)

    @pytest.mark.parametrize("clip", [0.0, -5.0, 150.0, float("nan")])
    def test_clip_outside_range_rejected(self, clip):
        # 0 gave a saturated image and 150 failed inside np.percentile
        with pytest.raises(ValueError, match=r"clip percent must lie in \(0, 100\]"):
            formats.pixels_from_image(_image(), clip_percent=clip)

    def test_clip_of_100_maps_the_maximum(self):
        # clip 100 is the linear map round(65535 v / max)
        img = _image()
        live = ~img.grid.mask
        v = img.values[live]
        want = np.zeros(img.grid.n_points, dtype=np.int64)
        want[live] = np.rint(formats.PGM_MAXVAL * v / v.max())
        assert np.array_equal(formats.pixels_from_image(img, clip_percent=100.0),
                              img.grid.as_image(want))


def test_sha256(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("abc")
    assert formats.sha256_file(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
