import os
import subprocess
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from nearscat import cli, formats, pipeline
from nearscat import forward as fw
from nearscat.cli import main
from nearscat.geometry import IndicatorImage, imaging_grid
from nearscat.pipeline import FIRST_J0_ZERO, ScenarioConfig, forward_curve


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "side = exterior\n"
        "bc = soft\n"
        "shape = circle\n"
        "wavenumbers = 3.0\n"
        "delta = 0.05\n"
        "seed = 7\n"
        "grid_nx = 30\n"
        "grid_ny = 30\n"
        "forward_nodes = 256\n"
        "receiver_count = 64\n"
    )
    return path


def test_simulate_noise_reconstruct_chain(tmp_path, small_config):
    data = tmp_path / "data"
    assert main(["simulate", "-c", str(small_config), "-o", str(data)]) == 0
    clean = data / "ring_k3.csv"
    assert clean.exists()
    ring, _ = formats.read_ring_csv(clean)
    assert ring.noise_level == 0.0

    noisy = data / "ring_k3_noisy.csv"
    assert main(["noise", "-i", str(clean), "-o", str(noisy),
                 "--delta", "0.05", "--seed", "7"]) == 0
    nring, meta = formats.read_ring_csv(noisy)
    assert nring.noise_level == 0.05
    assert np.all(np.abs(nring.samples - ring.samples)
                  <= 0.05 * np.abs(ring.samples) * (1 + 1e-15))

    recon = tmp_path / "recon"
    assert main(["reconstruct", "-r", str(noisy), "-o", str(recon),
                 "--grid-nx", "30", "--grid-ny", "30"]) == 0
    img = formats.read_grid_csv(recon / "indicator_k3.csv")
    assert img.state == "normalized"
    assert (recon / "indicator_k3.pgm").exists()


def test_close_wavenumbers_get_distinct_files(tmp_path, small_config):
    # k = 3 and 3.0000001 both print as "3" under %g; neither file may
    # overwrite the other in simulate or reconstruct
    data, recon = tmp_path / "data", tmp_path / "recon"
    assert main(["simulate", "-c", str(small_config), "-o", str(data),
                 "--k", "3", "3.0000001", "--forward-nodes", "128"]) == 0
    assert sorted(p.name for p in data.iterdir()) == ["ring_k3.0000001.csv", "ring_k3.csv"]
    args = ["reconstruct", "-o", str(recon), "--truncation", "3", "--grid-nx", "20", "--grid-ny", "20"]
    for path in sorted(data.iterdir()):
        args += ["-r", str(path)]
    assert main(args) == 0
    for tag in ("3", "3.0000001"):
        for ext in ("csv", "pgm"):
            assert (recon / f"indicator_k{tag}.{ext}").exists()
    assert (recon / "indicator_multi.csv").exists()


def test_reconstruct_rejects_two_rings_of_one_k(tmp_path, small_config, capsys):
    data, recon = tmp_path / "data", tmp_path / "recon"
    assert main(["simulate", "-c", str(small_config), "-o", str(data),
                 "--forward-nodes", "128"]) == 0
    first, second = data / "seed7.csv", data / "seed8.csv"
    for path, seed in ((first, "7"), (second, "8")):
        assert main(["noise", "-i", str(data / "ring_k3.csv"), "-o", str(path),
                     "--delta", "0.05", "--seed", seed]) == 0
    grid = ["--grid-nx", "20", "--grid-ny", "20"]
    assert main(["reconstruct", "-r", str(first), "-o", str(recon), *grid]) == 0
    before = {p.name: p.read_bytes() for p in recon.iterdir()}
    capsys.readouterr()
    assert main(["reconstruct", "-r", str(first), "-r", str(second), "-o", str(recon),
                 *grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nearscat: error: ") and "both have k = 3" in err
    assert str(first) in err and str(second) in err
    assert {p.name: p.read_bytes() for p in recon.iterdir()} == before


@pytest.mark.parametrize("change", [["--side", "interior"], ["--bc", "hard"]],
                         ids=["side", "bc"])
def test_reconstruct_rejects_mixed_rings(tmp_path, small_config, change, capsys):
    # an exterior ring with an interior one, or a soft ring with a hard one,
    # is refused before any image is written
    data, recon = tmp_path / "data", tmp_path / "recon"
    simulate = ["simulate", "-c", str(small_config), "--forward-nodes", "128"]
    assert main([*simulate, "-o", str(data / "a")]) == 0
    assert main([*simulate, "-o", str(data / "b"), "--k", "4", *change]) == 0
    first, second = data / "a" / "ring_k3.csv", data / "b" / "ring_k4.csv"
    capsys.readouterr()
    assert main(["reconstruct", "-r", str(first), "-r", str(second), "-o", str(recon),
                 "--truncation", "3", "--grid-nx", "20", "--grid-ny", "20"]) == 2
    err = capsys.readouterr().err
    assert "cannot be superposed" in err
    assert str(first) in err and str(second) in err
    assert not recon.exists()


def test_reconstruct_rejects_mixed_shapes(tmp_path, small_config, capsys):
    # a kite ring and a circle ring were superposed into one indicator_multi
    # labelled with the last ring's shape; rings without a shape label, all
    # "unknown", still combine
    data, recon = tmp_path / "data", tmp_path / "recon"
    simulate = ["simulate", "-c", str(small_config), "--forward-nodes", "128"]
    assert main([*simulate, "-o", str(data / "a"), "--shape", "kite"]) == 0
    assert main([*simulate, "-o", str(data / "b"), "--k", "4"]) == 0
    first, second = data / "a" / "ring_k3.csv", data / "b" / "ring_k4.csv"
    reconstruct = ["reconstruct", "--truncation", "3", "--grid-nx", "20", "--grid-ny", "20"]
    capsys.readouterr()
    assert main([*reconstruct, "-r", str(first), "-r", str(second), "-o", str(recon)]) == 2
    err = capsys.readouterr().err
    assert f"{first} (exterior soft kite) and {second} (exterior soft circle)" in err
    assert "cannot be superposed" in err and not recon.exists()

    for path in (first, second):
        formats.write_ring_csv(path, formats.read_ring_csv(path)[0])    # no shape key
    assert main([*reconstruct, "-r", str(first), "-r", str(second), "-o", str(recon)]) == 0
    assert "# shape=unknown\n" in (recon / "indicator_multi.csv").read_text()


def test_reconstruct_rejects_off_layout_ring_before_output(tmp_path, small_config, capsys):
    # receiver 5 of the second ring sits 1e-6 off 2 pi m / M in every row;
    # the first ring's images must not be written before that is found
    data, recon = tmp_path / "data", tmp_path / "recon"
    assert main(["simulate", "-c", str(small_config), "-o", str(data),
                 "--forward-nodes", "128", "--k", "3", "4"]) == 0
    first, second = data / "ring_k3.csv", data / "ring_k4.csv"
    lines = second.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.split(",")
        if not line.startswith("#") and fields[1] == "5":
            fields[2] = repr(float(fields[2]) + 1e-6)
            lines[i] = ",".join(fields)
    second.write_text("".join(lines))
    capsys.readouterr()
    assert main(["reconstruct", "-r", str(first), "-r", str(second), "-o", str(recon),
                 "--truncation", "3", "--grid-nx", "20", "--grid-ny", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"nearscat: error: {second}: data row 6 ") and "theta" in err
    assert not recon.exists()


def test_simulate_rejects_source_inside_before_output(tmp_path, small_config, capsys):
    out = tmp_path / "data"
    assert main(["simulate", "-c", str(small_config), "-o", str(out),
                 "--source-radius", "0.5"]) == 2
    assert "exterior problem but a source is inside" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["rates", "--side", "exterior", "--k", "-1"], "k must be finite and positive"),
    (["oracle-check", "--k", "3", "0", "--nodes", "64"], "--k must be finite and positive"),
    (["oracle-check", "--k", "nan", "--nodes", "64"], "--k must be finite and positive"),
    (["oracle-check", "--tol", "nan", "--nodes", "64"], "--tol must be finite and positive"),
    (["oracle-check", "--tol", "-1", "--nodes", "64"], "--tol must be finite and positive"),
], ids=["rates-k-negative", "oracle-check-k-zero", "oracle-check-k-nan", "oracle-check-tol-nan",
        "oracle-check-tol-negative"])
def test_bad_wavenumber_exits_2(argv, named, capsys):
    # refused before any solve, with k named, instead of failing deep in
    # the special functions or in LAPACK; likewise a tolerance no error can
    # pass, which ran all eight solves and printed [FAIL] on every line
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("nearscat: error: ") and named in captured.err
    assert "max rel err" not in captured.out


def test_simulate_rejects_receiver_on_shape_before_output(tmp_path, capsys):
    # receiver 0 sits on node 0 of the 128-node circle
    out = tmp_path / "data"
    assert main(["simulate", "-o", str(out), "--shape", "circle", "--bc", "soft",
                 "--forward-nodes", "128", "--receiver-radius", "1.0",
                 "--receiver-count", "127"]) == 2
    assert capsys.readouterr().err == "nearscat: error: a receiver lies on the boundary\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["pipeline", "--shape", "circle", "--bc", "hard"], "condition estimate"),
    (["oracle-check", "--nodes", "64"], "condition estimate"),
    (["rates", "--side", "interior"], "mode n=0 denominator"),
], ids=["pipeline-resonance", "oracle-check-resonance", "rates-mode-degeneracy"])
def test_wavenumber_errors_exit_2(tmp_path, argv, named, capsys):
    # k a at the first J_0 zero, a wavenumber the user chose: one error
    # line, no traceback, no output directory
    out = tmp_path / "run"
    if argv[0] == "pipeline":
        argv = argv + ["-o", str(out)]
    assert main(argv + ["--k", repr(FIRST_J0_ZERO)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nearscat: error: ") and named in err and err.count("\n") == 1
    assert not out.exists()


def test_noise_rejects_negative_seed(tmp_path, capsys):
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
    ring = fw.RingMeasurement(radius=2.2, k=3.0, samples=np.ones((1, 8), complex),
                              noise_level=0.0, side="exterior", sources=sources)
    clean, noisy = tmp_path / "ring.csv", tmp_path / "noisy.csv"
    formats.write_ring_csv(clean, ring)
    assert main(["noise", "-i", str(clean), "-o", str(noisy), "--delta", "0.05",
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "nearscat: error: noise seed must be >= 0, got -1\n"
    assert not noisy.exists()


def test_noise_refuses_non_finite_header(tmp_path, capsys):
    # noise used to exit 0 on delta=nan and k=inf and carry k=inf forward
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
    ring = fw.RingMeasurement(radius=2.2, k=3.0, samples=np.ones((1, 8), complex),
                              noise_level=0.0, side="exterior", sources=sources)
    clean, noisy = tmp_path / "ring.csv", tmp_path / "noisy.csv"
    formats.write_ring_csv(clean, ring)
    text = clean.read_text()
    assert "# k=3.0\n" in text and "# delta=0.0\n" in text
    clean.write_text(text.replace("# k=3.0\n", "# k=inf\n").replace("# delta=0.0\n",
                                                                   "# delta=nan\n"))
    assert main(["noise", "-i", str(clean), "-o", str(noisy), "--delta", "0.05"]) == 2
    assert capsys.readouterr().err == (f"nearscat: error: {clean}: header value "
                                       "k='inf' is not finite\n")
    assert not noisy.exists()


def test_non_finite_ring_leaves_no_output(tmp_path, capsys):
    # noise used to write "nan,-inf" and exit 0, and reconstruct then made its
    # output directory before failing on an all-zero image
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
    samples = np.ones((1, 8), complex)
    samples[0, 3] = complex(np.nan, -np.inf)
    ring = fw.RingMeasurement(radius=2.2, k=3.0, samples=samples, noise_level=0.0,
                              side="exterior", sources=sources)
    clean, noisy, recon = tmp_path / "ring.csv", tmp_path / "noisy.csv", tmp_path / "recon"
    formats.write_ring_csv(clean, ring)
    assert main(["noise", "-i", str(clean), "-o", str(noisy), "--delta", "0.05"]) == 2
    assert main(["reconstruct", "-r", str(clean), "-o", str(recon), "--truncation", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("data row 4 " in line and "non-finite" in line for line in err)
    assert not noisy.exists() and not recon.exists()


@pytest.mark.parametrize("argv,named", [
    (["simulate", "--grid-nx", "abc"], "config key 'grid_nx': cannot parse 'abc' as int"),
    (["pipeline", "--seed", "1.5"], "config key 'seed': cannot parse '1.5' as int"),
    (["pipeline", "--delta", "x"], "config key 'delta': cannot parse 'x' as float"),
], ids=["simulate-grid-nx", "pipeline-seed", "pipeline-delta"])
def test_bad_flag_value_names_key(tmp_path, argv, named, capsys):
    # flags parse like config-file values: a ConfigError naming the key
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 2
    assert capsys.readouterr().err == f"nearscat: error: {named}\n"
    assert not out.exists()


def test_reconstruct_bad_flag_value_names_key(tmp_path, capsys):
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
    ring = fw.RingMeasurement(radius=2.2, k=3.0, samples=np.ones((1, 8), complex),
                              noise_level=0.0, side="exterior", sources=sources)
    path, recon = tmp_path / "ring.csv", tmp_path / "recon"
    formats.write_ring_csv(path, ring)
    assert main(["reconstruct", "-r", str(path), "-o", str(recon), "--grid-nx", "2.5"]) == 2
    assert capsys.readouterr().err == ("nearscat: error: config key 'grid_nx': "
                                       "cannot parse '2.5' as int\n")
    assert not recon.exists()


def test_override_flags_cover_the_scalar_config_keys():
    # cli keeps its own copy of the list, since deriving it would import the
    # solver into the numpy-only data commands
    scalar = [f.name for f in fields(ScenarioConfig)
              if typing.get_origin(pipeline._FIELD_TYPES[f.name]) is not tuple]
    assert sorted(cli._OVERRIDE_KEYS) == sorted(scalar)


_SCIPY_LOADED = """
import sys
{body}
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("body", [
    "from nearscat.cli import main; assert main(sys.argv[1:5]) == 0",
    "from nearscat.cli import main; assert main(sys.argv[5:]) == 0",
    "import nearscat; nearscat.RingMeasurement, nearscat.IndicatorImage, nearscat.add_noise",
    "import nearscat.formats, nearscat.noise",
], ids=["cli-noise", "cli-render", "package", "data-modules"])
def test_data_commands_load_no_scipy(tmp_path, body):
    # the data layer imports numpy only; scipy comes with the solver
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2)
    ring = fw.RingMeasurement(radius=2.2, k=3.0, samples=np.ones((2, 8), complex),
                              noise_level=0.0, side="exterior", sources=sources)
    formats.write_ring_csv(tmp_path / "ring.csv", ring)
    grid = imaging_grid(-1.0, 1.0, -1.0, 1.0, 4, 4)
    formats.write_grid_csv(tmp_path / "grid.csv", IndicatorImage(
        grid=grid, values=np.linspace(0.1, 1.0, 16), kind="soft", wavenumbers=(3.0,),
        state="normalized", flags=np.zeros(16, dtype=np.uint8)))
    argv = ["noise", f"-i{tmp_path / 'ring.csv'}", f"-o{tmp_path / 'noisy.csv'}", "--delta=0.05",
            "render", f"-i{tmp_path / 'grid.csv'}", f"-o{tmp_path / 'grid.pgm'}"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _SCIPY_LOADED.format(body=body), *argv],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("delta", ["0.001", "0"])
def test_noise_refuses_noisy_ring(tmp_path, capsys, delta):
    # re-noising would write a header delta the data do not carry
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=2)
    ring = fw.RingMeasurement(radius=2.2, k=3.0, samples=np.ones((2, 8), complex),
                              noise_level=0.0, side="exterior", sources=sources)
    clean, once, twice = tmp_path / "ring.csv", tmp_path / "n1.csv", tmp_path / "n2.csv"
    formats.write_ring_csv(clean, ring)
    assert main(["noise", "-i", str(clean), "-o", str(once), "--delta", "0.05",
                 "--seed", "7"]) == 0
    capsys.readouterr()
    assert main(["noise", "-i", str(once), "-o", str(twice), "--delta", delta,
                 "--seed", "8"]) == 2
    assert capsys.readouterr().err == ("nearscat: error: ring data already carry noise "
                                       "(delta=0.05); perturb the clean ring instead\n")
    assert not twice.exists()


@pytest.mark.parametrize("clip", ["0", "150"])
def test_render_rejects_clip_outside_range(tmp_path, small_config, capsys, clip):
    out = tmp_path / "run"
    assert main(["pipeline", "-c", str(small_config), "-o", str(out)]) == 0
    pgm = tmp_path / "img.pgm"
    capsys.readouterr()
    assert main(["render", "-i", str(out / "indicator_k3.csv"), "-o", str(pgm),
                 "--clip", clip]) == 2
    assert "clip percent must lie in (0, 100]" in capsys.readouterr().err
    assert not pgm.exists()


def test_render_refuses_shuffled_rows(tmp_path, capsys):
    # a grid CSV is read only in the writer's row order
    grid = imaging_grid(-1.0, 1.0, -1.0, 1.0, 4, 4)
    csv = tmp_path / "grid.csv"
    formats.write_grid_csv(csv, IndicatorImage(
        grid=grid, values=np.linspace(0.1, 1.0, 16), kind="soft", wavenumbers=(3.0,),
        state="normalized", flags=np.zeros(16, dtype=np.uint8)))
    lines = csv.read_text().splitlines(keepends=True)
    n_header = sum(line.startswith("#") for line in lines)
    csv.write_text("".join(lines[:n_header] + lines[:n_header - 1:-1]))
    pgm = tmp_path / "img.pgm"
    assert main(["render", "-i", str(csv), "-o", str(pgm)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"nearscat: error: {csv}: data row 1 ({lines[-1].rsplit(',', 2)[0]},")
    assert "does not hold the next unmasked grid point: expected x=-1, y=1" in err
    assert not pgm.exists()


def test_pipeline_refuses_truncation_beyond_cylfun_tables(tmp_path, capsys):
    # the delta rule gives N = 208 inside a cavity at delta = 1e-60; the
    # gradient would read order 209 of tables that end at 200
    out = tmp_path / "out"
    assert main(["pipeline", "-o", str(out), "--side", "interior", "--delta", "1e-60",
                 "--receiver-count", "420"]) == 2
    assert "truncation 208 above 199" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unexpected_errors_keep_their_traceback(tmp_path, small_config, monkeypatch):
    # only ValueError and OSError become exit status 2
    def boom(*args, **kwargs):
        raise RuntimeError("not a usage error")

    monkeypatch.setattr("nearscat.pipeline.run_scenario", boom)
    with pytest.raises(RuntimeError, match="not a usage error"):
        main(["pipeline", "-c", str(small_config), "-o", str(tmp_path / "run")])


def test_simulate_shares_one_geometry(tmp_path, small_config):
    # every wavenumber on the curve the node ladder resolves for the largest
    # k: the same bytes as simulating every k on that curve
    cfg = replace(ScenarioConfig.from_file(small_config).resolved(), wavenumbers=(3.0, 4.0, 5.0))
    sources = cfg.sources()
    curve, _, _ = forward_curve(cfg, sources)
    assert curve.n_nodes < cfg.forward_nodes
    expected = {}
    for k in (3.0, 4.0, 5.0):
        ring = fw.simulate_ring(curve, cfg.bc, cfg.side, k, sources,
                                cfg.receiver_radius, cfg.receiver_count)
        path = tmp_path / f"expected_k{k:g}.csv"
        formats.write_ring_csv(path, ring, extra={"bc": cfg.bc, "shape": cfg.shape,
                                                  "seed": cfg.seed})
        expected[f"ring_k{k:g}.csv"] = path.read_bytes()

    data = tmp_path / "data"
    assert main(["simulate", "-c", str(small_config), "-o", str(data),
                 "--k", "3", "4", "5"]) == 0
    assert {p.name: p.read_bytes() for p in data.iterdir()} == expected


def test_reconstruct_defaults_follow_config(tmp_path, small_config):
    data, recon = tmp_path / "data", tmp_path / "recon"
    main(["simulate", "-c", str(small_config), "-o", str(data),
          "--side", "interior", "--forward-nodes", "128"])
    assert main(["reconstruct", "-r", str(data / "ring_k3.csv"), "-o", str(recon),
                 "--truncation", "4"]) == 0
    img = formats.read_grid_csv(recon / "indicator_k3.csv")
    defaults = ScenarioConfig(side="interior").resolved()
    assert (img.grid.nx, img.grid.ny) == (defaults.grid_nx, defaults.grid_ny)
    assert (img.grid.xmin, img.grid.ymax) == (defaults.grid_xmin, defaults.grid_ymax)
    assert img.grid.exclusion == (0.0, 0.0, defaults.receiver_radius)


def test_reconstruct_repeats_pipeline_from_its_config(tmp_path):
    # a run with a non-default grid, exclusion disk and mode guard, re-imaged
    # from its own rings with its config.txt, writes the same images byte for
    # byte; the guard drops the orders +-5 at k = 3 (|J_5(1.5)| = 1.8e-3)
    cfg = tmp_path / "scenario.txt"
    cfg.write_text("side = interior\nwavenumbers = 3.0,4.5\nseed = 7\nforward_nodes = 128\n"
                   "receiver_count = 64\ngrid_xmin = -1.2\ngrid_xmax = 1.2\n"
                   "grid_ymin = -1.2\ngrid_ymax = 1.2\ngrid_nx = 24\ngrid_ny = 24\n"
                   "exclusion_radius = 0.4\nmode_guard = 0.01\n")
    run, recon = tmp_path / "run", tmp_path / "recon"
    assert main(["pipeline", "-c", str(cfg), "-o", str(run)]) == 0
    rings = ["-r", str(run / "ring_k3.csv"), "-r", str(run / "ring_k4.5.csv")]
    assert main(["reconstruct", "-c", str(run / "config.txt"), "-o", str(recon), *rings]) == 0
    names = sorted(p.name for p in recon.iterdir())
    assert names == sorted(f"indicator_{tag}.{ext}" for tag in ("k3", "k4.5", "multi")
                           for ext in ("csv", "pgm"))
    for name in names:
        assert (recon / name).read_bytes() == (run / name).read_bytes(), name
    assert "# excluded=-5 5\n" in (recon / "indicator_k3.csv").read_text()
    image = formats.read_grid_csv(recon / "indicator_k3.csv")
    assert (image.grid.nx, image.grid.xmin, image.grid.exclusion) == (24, -1.2, (0.0, 0.0, 0.4))


@pytest.mark.parametrize("flags,named", [
    (["--side", "interior"], "side = exterior, but the config sets side = interior"),
    (["--receiver-count", "16"], "receiver_count = 8, but the config sets receiver_count = 16"),
    (["--delta", "0.02"], "delta = 0.0, but the config sets delta = 0.02"),
    (["--bc", "hard"], "bc = soft, but the config sets bc = hard"),
], ids=["side", "receiver-count", "delta", "bc"])
def test_reconstruct_refuses_config_against_ring(tmp_path, flags, named, capsys):
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
    ring = fw.RingMeasurement(radius=2.2, k=3.0, samples=np.ones((1, 8), complex),
                              noise_level=0.0, side="exterior", sources=sources)
    path, recon = tmp_path / "ring.csv", tmp_path / "recon"
    formats.write_ring_csv(path, ring, extra={"bc": "soft"})
    assert main(["reconstruct", "-r", str(path), "-o", str(recon), "--truncation", "1",
                 *flags]) == 2
    assert capsys.readouterr().err == f"nearscat: error: {path} has {named}\n"
    cfg = tmp_path / "config.txt"
    cfg.write_text("wavenumbers = 3.5,4.0\n")
    assert main(["reconstruct", "-r", str(path), "-o", str(recon), "-c", str(cfg)]) == 2
    assert "k = 3.0, which is not among the config's wavenumbers" in capsys.readouterr().err
    assert not recon.exists()


def test_reconstruct_old_grid_flags_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["reconstruct", "-r", "ring.csv", "-o", str(tmp_path / "recon"), "--nx", "30"])
    assert exit_.value.code == 2 and "unrecognized arguments: --nx" in capsys.readouterr().err


def test_pipeline_command_matches_library(tmp_path, small_config, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "-c", str(small_config), "-o", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "N=3" in captured
    assert (out / "manifest.txt").exists()


def test_flag_overrides_config(tmp_path, small_config):
    out = tmp_path / "run"
    assert main(["pipeline", "-c", str(small_config), "-o", str(out),
                 "--seed", "9", "--delta", "0.02"]) == 0
    text = (out / "config.txt").read_text()
    assert "seed = 9" in text
    assert "delta = 0.02" in text


def test_render_command(tmp_path, small_config):
    out = tmp_path / "run"
    main(["pipeline", "-c", str(small_config), "-o", str(out)])
    pgm = tmp_path / "img.pgm"
    assert main(["render", "-i", str(out / "indicator_k3.csv"), "-o", str(pgm),
                 "--clip", "100"]) == 0
    assert formats.read_pgm(pgm).shape == (30, 30)


def test_rates_command(tmp_path, capsys):
    out = tmp_path / "rates.txt"
    assert main(["rates", "--side", "interior", "--seeds", "0", "-o", str(out)]) == 0
    assert "fitted exponent" in out.read_text()


def test_oracle_check_command(capsys):
    assert main(["oracle-check", "--k", "3", "--nodes", "256"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "worst" in out[-1]
    # the node count each (side, bc) was solved on, before its rings
    assert out[::2][:4] == [f"{side:8s} {bc:4s} solved on 64 nodes (at most 256)"
                            for side in ("exterior", "interior") for bc in ("soft", "hard")]


def test_simulate_prints_forward_warnings(tmp_path, small_config, capsys):
    assert main(["simulate", "-c", str(small_config), "-o", str(tmp_path), "--side",
                 "interior", "--shape", "kite", "--forward-nodes", "64"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("warning: forward_nodes = 64 does not pass the accuracy checks")
    assert err[1].startswith("warning: k = 3: reciprocity error 1.9e-04 above 1e-06")
