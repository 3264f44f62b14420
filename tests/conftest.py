import numpy as np
import pytest

from nearscat import continuation as ct
from nearscat import forward as fw
from nearscat import indicator as ind
from nearscat import noise as nz
from nearscat.geometry import ShapeSpec, imaging_grid, make_curve


@pytest.fixture(scope="session")
def unit_circle_512():
    return make_curve(ShapeSpec(kind="circle", radius=1.0, n_nodes=512))


@pytest.fixture(scope="session")
def kite_512():
    return make_curve(ShapeSpec(kind="kite", n_nodes=512))


@pytest.fixture(scope="session")
def exterior_sources():
    return fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=12)


@pytest.fixture(scope="session")
def paper_grid():
    return imaging_grid(-1.5, 1.5, -1.5, 1.5, 150, 150)


@pytest.fixture(scope="session")
def example1_ring(unit_circle_512, exterior_sources):
    """Clean soft-exterior circle data, k = 3, 12 sources / 128 receivers at 2.2."""
    return fw.simulate_ring(unit_circle_512, "soft", "exterior", 3.0,
                            exterior_sources, 2.2, 128)


@pytest.fixture(scope="session")
def example1_image(example1_ring, exterior_sources, paper_grid):
    """Raw soft indicator for the standard scenario (delta = 5%, seed 7)."""
    ring = nz.add_noise(example1_ring, nz.NoiseSpec(level=0.05, seed=7))
    coeffs = ct.compute_coefficients(ring, ct.truncation_order(0.05, "exterior"))
    return ind.indicator_soft(coeffs, exterior_sources, paper_grid)


@pytest.fixture(scope="session")
def oracle_ring_single_source():
    """Single-source clean ring data from the circle oracle (exterior soft k=3)."""
    k = 3.0
    z = np.array([2.2, 0.0])
    angles = 2.0 * np.pi * np.arange(128) / 128
    pts = np.column_stack([2.2 * np.cos(angles), 2.2 * np.sin(angles)])
    us = fw.analytic_circle(1.0, "soft", "exterior", k, z, pts)
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=1)
    return fw.RingMeasurement(radius=2.2, k=k, samples=us[None, :], noise_level=0.0,
                              side="exterior", sources=sources)
