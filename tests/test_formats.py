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
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=n_src, side="exterior")
    samples = rng.normal(size=(n_src, m)) + 1j * rng.normal(size=(n_src, m))
    return fw.RingMeasurement(radius=2.2, angles=2 * np.pi * np.arange(m) / m,
                              k=3.0, samples=samples, field_kind="scattered",
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
    lines = ["P2", f"{nx} {ny}", str(formats.PGM_MAXVAL)]
    for row in pixels:
        lines.append(" ".join(str(int(p)) for p in row))
    return "\n".join(lines) + "\n"


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
        # whichever was read last
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        _edit_data_row(path, edited, lambda line: ",".join(
            line.split(",")[:2] + ["2.5"] + line.split(",")[3:]))
        with pytest.raises(ValueError, match="data row 18 .*theta"):
            formats.read_ring_csv(path)

    def test_rejects_missing_header_key(self, tmp_path):
        path = tmp_path / "ring.csv"
        formats.write_ring_csv(path, _ring())
        path.write_text(path.read_text().replace("# n_sources=2\n", ""))
        with pytest.raises(ValueError, match="ring.csv: header has no 'n_sources'"):
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
        sources = fw.SourceSet(center=(0.25, -0.5), radius=2.2, count=n_src, side="exterior")
        ring = fw.RingMeasurement(radius=2.5, angles=2 * np.pi * np.arange(n_rec) / n_rec,
                                  k=3.0, samples=samples, field_kind="scattered",
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

    def test_rejects_duplicated_row(self, tmp_path):
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        _edit_data_row(path, -1, lambda line: line + "\n" + line.rsplit(",", 2)[0] + ",9.5,0")
        with pytest.raises(ValueError, match="data row 25 .*repeats"):
            formats.read_grid_csv(path)

    def test_rejects_row_at_masked_point(self, tmp_path):
        # (0, 0) lies inside the exclusion disk of radius 0.4
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        _edit_data_row(path, -1, lambda line: line + "\n0,0,0.5,0")
        with pytest.raises(ValueError, match="data row 25 .*masked"):
            formats.read_grid_csv(path)

    @pytest.mark.parametrize("bad", ["3,4,0.5,0", "0.5,0.5,0.5,1.5", "0.5,0.5,0.5,256"])
    def test_rejects_bad_row(self, tmp_path, bad):
        # outside the grid, a non-integer flag, a flag beyond uint8
        path = tmp_path / "grid.csv"
        formats.write_grid_csv(path, _image())
        _edit_data_row(path, 0, lambda line: bad)
        with pytest.raises(ValueError):
            formats.read_grid_csv(path)

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


class TestPgm:
    def test_constant_grid_uniform_pixels(self, tmp_path):
        grid = imaging_grid(0.0, 1.0, 0.0, 1.0, 3, 3)
        img = ind.IndicatorImage(grid=grid, values=np.full(9, 0.7), kind="soft",
                                 wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(9, dtype=np.uint8))
        pix = formats.pixels_from_image(img, scale="linear")
        assert np.all(pix == formats.PGM_MAXVAL)

    def test_two_by_two_linear(self, tmp_path):
        grid = imaging_grid(0.0, 1.0, 0.0, 1.0, 2, 2)
        img = ind.IndicatorImage(grid=grid, values=np.array([0.0, 1.0, 1.0, 0.0]),
                                 kind="soft", wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(4, dtype=np.uint8))
        pix = formats.pixels_from_image(img, scale="linear")
        assert pix.tolist() == [[0, 65535], [65535, 0]]

    def test_round_trip_and_orientation(self, tmp_path):
        grid = imaging_grid(0.0, 1.0, 0.0, 1.0, 2, 2)
        img = ind.IndicatorImage(grid=grid, values=np.array([0.0, 1.0, 0.5, 0.25]),
                                 kind="soft", wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(4, dtype=np.uint8))
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, formats.pixels_from_image(img, scale="linear"))
        pix = formats.read_pgm(path)
        assert pix.shape == (2, 2)
        assert pix[0, 1] == 65535            # top row = max y

    def test_rejects_trailing_tokens(self, tmp_path):
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, np.array([[0, 1], [2, 3]]))
        path.write_text(path.read_text() + "7\n")
        with pytest.raises(ValueError):
            formats.read_pgm(path)

    def test_rejects_pixel_above_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, np.array([[0, 1], [2, 3]]))
        path.write_text(path.read_text().replace("2 3\n", f"2 {formats.PGM_MAXVAL + 1}\n"))
        with pytest.raises(ValueError):
            formats.read_pgm(path)

    @_FILE_SETTINGS
    @given(nx=st.integers(1, 30), ny=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_bytes_and_round_trip(self, tmp_path, nx, ny, seed):
        pixels = np.random.default_rng(seed).integers(0, formats.PGM_MAXVAL + 1, (ny, nx))
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, pixels)
        assert path.read_text() == _pgm_by_loop(pixels)
        assert np.array_equal(formats.read_pgm(path), pixels)

    def test_masked_points_render_zero(self):
        img = _image()
        pix = formats.pixels_from_image(img, scale="linear")
        mask_img = img.grid.as_image(img.grid.mask)
        assert np.all(pix[mask_img] == 0)

    def test_percentile_clip(self):
        grid = imaging_grid(0.0, 1.0, 0.0, 1.0, 10, 10)
        values = np.arange(100, dtype=float)
        img = ind.IndicatorImage(grid=grid, values=values, kind="soft",
                                 wavenumbers=(3.0,), state="raw",
                                 flags=np.zeros(100, dtype=np.uint8))
        pix = formats.pixels_from_image(img, scale="percentile", clip_percent=50.0)
        flat = pix.flatten()
        top = np.percentile(values, 50.0)
        assert np.all(flat[values > top] == 65535)       # clipped to maxval
        assert flat[10] == round(65535 * 10 / top)


def test_sha256(tmp_path):
    p = tmp_path / "x.txt"
    p.write_text("abc")
    assert formats.sha256_file(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
