import numpy as np
import pytest

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
        with pytest.raises(KeyError):
            formats.read_grid_csv(path)


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
