"""Acceptance suite: every criterion printed as one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Criterion A4's starfish clause is known-unattainable
(see the radial-minimum floor analysis in the project notes): the
Fourier-Hankel continuation diverges inside its singularity disk, so the
lobe valleys at radius 0.8 never show an indicator dip at k = 3.  The
test states the criterion as written and is expected to fail honestly.
"""

import math
import time

import numpy as np
import pytest

from nearscat import continuation as ct
from nearscat import cylfun as cf
from nearscat import forward as fw
from nearscat import indicator as ind
from nearscat import noise as nz
from nearscat.geometry import ShapeSpec, imaging_grid, make_curve
from nearscat.pipeline import (ScenarioConfig, convergence_study,
                               radial_boundary_error, reconstruct, run_scenario)

import envelope_checks as envelope

GRID_CELL = 3.0 / 149


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _median_cells(shape: str, bc: str, side: str, k: float, delta: float,
                  seed: int = 7, wavenumbers=None):
    """Full-pipeline boundary-localization medians, in grid cells."""
    curve = make_curve(ShapeSpec(kind=shape, n_nodes=512))
    ring_r = 2.2 if side == "exterior" else 0.5
    sources = fw.SourceSet(center=(0.0, 0.0), radius=ring_r, count=12)
    excl = ((0.0, 0.0), ring_r) if side == "interior" else None
    grid = imaging_grid(-1.5, 1.5, -1.5, 1.5, 150, 150, exclusion=excl)
    ks = wavenumbers or (k,)
    meds, normalized = {}, []
    for kk in ks:
        ring = fw.simulate_ring(curve, bc, side, kk, sources, ring_r, 128)
        ring = nz.add_noise(ring, nz.NoiseSpec(level=delta, seed=seed))
        _, image = reconstruct(ring, bc, grid, ct.truncation_order(delta, side))
        meds[kk] = radial_boundary_error(image, curve).median / GRID_CELL
        normalized.append(ind.normalize(image))
    sup_med = None
    if len(ks) > 1:
        sup = ind.superpose_multifrequency(normalized)
        sup_med = radial_boundary_error(sup, curve).median / GRID_CELL
    return meds, sup_med


# ---------------------------------------------------------------------------
# A1: special functions
# ---------------------------------------------------------------------------

def test_a1_special_functions():
    t0 = time.perf_counter()
    for t in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        report = envelope.check_hankel_bounds(t, 60)
        assert report.passed, f"|H_n| envelope violated at t={t}"
    for t in (0.5, 1.0, 2.0, 4.0):
        report = envelope.check_bessel_bounds(t, 60)
        assert report.passed, f"|J_n| envelope violated at t={t}"
    tg = np.linspace(0.1, 60.0, 300)
    j = cf.bessel_j_all(81, tg)
    y = cf.bessel_y_all(81, tg)
    w = j[1:] * y[:-1] - j[:-1] * y[1:]
    wron = np.max(np.abs(w - 2.0 / (math.pi * tg)) / (2.0 / (math.pi * tg)))
    elapsed = time.perf_counter() - t0
    ok = wron <= 1e-9 and elapsed < 5.0
    _report("A1 special functions", ok,
            f"wronskian {wron:.2e}, envelopes ok, {elapsed:.2f}s")
    assert wron <= 1e-9
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# A2: forward correctness
# ---------------------------------------------------------------------------

def test_a2_forward_vs_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    circle = make_curve(ShapeSpec(kind="circle", radius=1.0, n_nodes=512))
    for side, ring_r in (("exterior", 2.2), ("interior", 0.5)):
        sources = fw.SourceSet(center=(0.0, 0.0), radius=ring_r, count=12)
        for bc in ("soft", "hard"):
            for k in (3.0, 4.0, 5.0, 6.0):
                ring = fw.simulate_ring(circle, bc, side, k, sources, ring_r, 128)
                for j, z in enumerate(sources.positions):
                    ref = fw.analytic_circle(1.0, bc, side, k, z,
                                             ring.receiver_points)
                    err = np.abs(ring.samples[j] - ref).max() / np.abs(ref).max()
                    worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report("A2 forward correctness", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# A3: continuation rates
# ---------------------------------------------------------------------------

def test_a3_convergence_rates():
    t0 = time.perf_counter()
    ext = convergence_study("exterior", seeds=(0, 1, 2))
    inte = convergence_study("interior", seeds=(0, 1, 2))
    elapsed = time.perf_counter() - t0
    ok_clean = ext.ratio_factor <= 2.0 and inte.ratio_factor <= 2.0
    ok_alpha = abs(ext.exponent_factor - 1.0) <= 0.30
    ok_beta = abs(inte.exponent_factor - 1.0) <= 0.30
    ok = ok_clean and ok_alpha and ok_beta and elapsed < 120.0
    _report("A3 continuation rates", ok,
            f"clean factors {ext.ratio_factor:.2f}/{inte.ratio_factor:.2f}, "
            f"exponents {ext.fitted_exponent:.3f} vs {ext.predicted_exponent:.3f} "
            f"and {inte.fitted_exponent:.3f} vs {inte.predicted_exponent:.3f}, "
            f"{elapsed:.1f}s")
    assert ext.predicted_exponent == pytest.approx(0.4682, abs=6e-4)
    assert inte.predicted_exponent == pytest.approx(0.2082, abs=6e-4)
    assert ok_clean
    assert ok_alpha
    assert ok_beta
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# A4: soft exterior reconstruction
# ---------------------------------------------------------------------------

def test_a4_circle():
    t0 = time.perf_counter()
    meds, _ = _median_cells("circle", "soft", "exterior", 3.0, 0.05)
    elapsed = time.perf_counter() - t0
    ok = meds[3.0] <= 2.0 and elapsed < 120.0
    _report("A4 soft exterior circle", ok, f"median {meds[3.0]:.2f} cells, {elapsed:.1f}s")
    assert meds[3.0] <= 2.0
    assert elapsed < 120.0


def test_a4_starfish():
    # Stated bound: median <= 2 cells at k = 3, delta = 5%.  Unattainable:
    # the continuation's singularity disk (radius ~1.04 here) hides the lobe
    # valleys at radius 0.8, and N(5%) = 3 cannot carry the 5-lobe harmonic.
    # Measured floor: ~4.9-5.2 cells noisy, 1.63 cells even with clean data
    # at N = 30.  Kept as stated; fails honestly.
    t0 = time.perf_counter()
    meds, _ = _median_cells("starfish", "soft", "exterior", 3.0, 0.05)
    elapsed = time.perf_counter() - t0
    ok = meds[3.0] <= 2.0 and elapsed < 120.0
    _report("A4 soft exterior starfish", ok,
            f"median {meds[3.0]:.2f} cells, {elapsed:.1f}s")
    assert meds[3.0] <= 2.0, (
        "starfish localization floor sits above the stated bound; "
        "see tests/test_acceptance.py docstring and the analysis notes")
    assert elapsed < 120.0


def test_a4_kite():
    t0 = time.perf_counter()
    meds, _ = _median_cells("kite", "soft", "exterior", 3.0, 0.05)
    elapsed = time.perf_counter() - t0
    ok = meds[3.0] <= 4.0 and elapsed < 120.0
    _report("A4 soft exterior kite", ok, f"median {meds[3.0]:.2f} cells, {elapsed:.1f}s")
    assert meds[3.0] <= 4.0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# A5: hard exterior reconstruction + multi-frequency
# ---------------------------------------------------------------------------

def test_a5_hard_exterior():
    meds, sup = _median_cells("circle", "hard", "exterior", 4.0, 0.02,
                              wavenumbers=(3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0))
    single = meds[4.0]
    ok = single <= 3.0 and sup <= single + 1.0
    _report("A5 hard exterior circle", ok,
            f"k=4 median {single:.2f} cells, superposed {sup:.2f}")
    assert single <= 3.0
    assert sup <= single + 1.0


# ---------------------------------------------------------------------------
# A6: interior reconstruction
# ---------------------------------------------------------------------------

def test_a6_interior_circle():
    meds, _ = _median_cells("circle", "soft", "interior", 3.0, 0.05)
    ok = meds[3.0] <= 3.0
    _report("A6 interior circle", ok, f"median {meds[3.0]:.2f} cells")
    assert meds[3.0] <= 3.0


def test_a6_interior_kite_completes(tmp_path):
    cfg = ScenarioConfig(side="interior", bc="soft", shape="kite",
                         wavenumbers=(3.0,), delta=0.05, seed=7)
    result = run_scenario(cfg, tmp_path / "kite_cavity")
    produced = [name for name in result.files
                if name.endswith(".csv") or name.endswith(".pgm")]
    ok = ("indicator_k3.pgm" in result.files
          and result.files["indicator_k3.pgm"].exists())
    _report("A6 interior kite", ok, f"run completed, wrote {sorted(produced)}")
    assert ok


# ---------------------------------------------------------------------------
# A7: noise contract
# ---------------------------------------------------------------------------

def test_a7_noise_contract(example1_ring):
    worst = 0.0
    for seed in range(10):
        noisy = nz.add_noise(example1_ring, nz.NoiseSpec(level=0.05, seed=seed))
        diff = np.abs(noisy.samples - example1_ring.samples)
        bound = 0.05 * np.abs(example1_ring.samples)
        assert np.all(diff <= bound * (1 + 1e-15))
        lhs = np.linalg.norm(noisy.samples - example1_ring.samples, axis=1)
        rhs = 0.05 * np.linalg.norm(example1_ring.samples, axis=1)
        assert np.all(lhs <= rhs)
        worst = max(worst, float((diff / np.maximum(bound, 1e-300)).max()))
    clean = nz.add_noise(example1_ring, nz.NoiseSpec(level=0.0, seed=3))
    passthrough = np.array_equal(clean.samples, example1_ring.samples)
    ok = passthrough and worst <= 1.0 + 1e-12
    _report("A7 noise contract", ok,
            f"10 seeds, worst |du|/(d|u|) = {worst:.6f}, delta=0 bit-identical")
    assert passthrough


# ---------------------------------------------------------------------------
# A8: determinism
# ---------------------------------------------------------------------------

def test_a8_determinism(tmp_path):
    cfg = ScenarioConfig(side="exterior", bc="soft", shape="circle",
                         wavenumbers=(3.0,), delta=0.05, seed=7)
    r1 = run_scenario(cfg, tmp_path / "run1")
    r2 = run_scenario(cfg, tmp_path / "run2")
    ok = r1.checksums == r2.checksums
    _report("A8 determinism", ok, f"{len(r1.checksums)} artifact checksums identical")
    assert ok
    # the manifest carries the checksums, so the manifests agree too
    m1 = (tmp_path / "run1" / "manifest.txt").read_text()
    m2 = (tmp_path / "run2" / "manifest.txt").read_text()
    assert m1 == m2


# ---------------------------------------------------------------------------
# A9: indicator algebra
# ---------------------------------------------------------------------------

def test_a9_indicator_algebra(example1_ring, exterior_sources, paper_grid,
                              unit_circle_512):
    # hard-indicator reference term, checked on every unmasked grid point
    ring = fw.simulate_ring(unit_circle_512, "hard", "exterior", 4.0,
                            exterior_sources, 2.2, 128)
    ring = nz.add_noise(ring, nz.NoiseSpec(level=0.02, seed=7))
    coeffs = ct.compute_coefficients(ring, 4)
    pts = paper_grid.points
    tables = ct.radial_tables(coeffs, np.hypot(pts[:, 0], pts[:, 1]))
    grad, norms, ref = ind._reference_gradients(coeffs, exterior_sources, pts,
                                                np.arctan2(pts[:, 1], pts[:, 0]), tables)
    cols = np.arange(pts.shape[0])
    xi = grad[ref, :, cols].T
    xi_norm = norms[ref, cols]
    dot = np.abs(-xi[0] * xi[1] / xi_norm + xi[1] * xi[0] / xi_norm)
    worst = float((dot / np.maximum(xi_norm, 1e-300)).max())
    ok_ref = worst <= 1e-12

    img = ind.indicator_soft(ct.compute_coefficients(
        nz.add_noise(example1_ring, nz.NoiseSpec(level=0.05, seed=7)), 3),
        exterior_sources, paper_grid)
    norm1 = ind.normalize(img)
    norm2 = ind.normalize(norm1)
    ok_idem = np.array_equal(norm1.values[~paper_grid.mask],
                             norm2.values[~paper_grid.mask])
    sup = ind.superpose_multifrequency([norm1])
    ok_sup = np.allclose(sup.values[~paper_grid.mask],
                         norm1.values[~paper_grid.mask], atol=1e-15)
    ok = ok_ref and ok_idem and ok_sup
    _report("A9 indicator algebra", ok,
            f"reference term {worst:.2e}, idempotent {ok_idem}, identity {ok_sup}")
    assert ok_ref
    assert ok_idem
    assert ok_sup
