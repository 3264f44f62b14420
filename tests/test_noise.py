import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearscat import forward as fw
from nearscat import noise as nz


def _ring(samples):
    samples = np.atleast_2d(samples)
    sources = fw.SourceSet(center=(0.0, 0.0), radius=2.2, count=samples.shape[0])
    return fw.RingMeasurement(radius=2.2, k=3.0, samples=samples,
                              noise_level=0.0, side="exterior", sources=sources)


def _random_samples(n_src, m, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_src, m)) + 1j * rng.normal(size=(n_src, m))


class TestAddNoise:
    def test_zero_level_is_bit_identical(self):
        ring = _ring(_random_samples(3, 32, 0))
        out = nz.add_noise(ring, nz.NoiseSpec(level=0.0, seed=5))
        assert np.array_equal(out.samples, ring.samples)
        assert out.samples is not ring.samples

    def test_pointwise_bound(self):
        ring = _ring(_random_samples(4, 64, 1))
        delta = 0.07
        out = nz.add_noise(ring, nz.NoiseSpec(level=delta, seed=3))
        assert np.all(np.abs(out.samples - ring.samples)
                      <= delta * np.abs(ring.samples) * (1 + 1e-15))

    def test_l2_hypothesis_follows(self):
        ring = _ring(_random_samples(2, 128, 2))
        delta = 0.05
        out = nz.add_noise(ring, nz.NoiseSpec(level=delta, seed=11))
        for j in range(2):
            lhs = np.linalg.norm(out.samples[j] - ring.samples[j])
            rhs = delta * np.linalg.norm(ring.samples[j])
            assert lhs <= rhs

    def test_deterministic(self):
        ring = _ring(_random_samples(3, 32, 4))
        a = nz.add_noise(ring, nz.NoiseSpec(level=0.02, seed=42))
        b = nz.add_noise(ring, nz.NoiseSpec(level=0.02, seed=42))
        assert np.array_equal(a.samples, b.samples)
        c = nz.add_noise(ring, nz.NoiseSpec(level=0.02, seed=43))
        assert not np.array_equal(a.samples, c.samples)

    def test_zero_field_stays_zero(self):
        ring = _ring(np.zeros((2, 16), complex))
        out = nz.add_noise(ring, nz.NoiseSpec(level=0.5, seed=1))
        assert np.all(out.samples == 0.0)

    def test_per_source_substreams(self):
        # source j's noise must not depend on how many sources the ring has
        samples3 = _random_samples(3, 32, 5)
        one = nz.add_noise(_ring(samples3[1:2]), nz.NoiseSpec(level=0.1, seed=9))
        three = nz.add_noise(_ring(samples3), nz.NoiseSpec(level=0.1, seed=9))
        # same physical samples for source index 1 differ (different stream) ...
        assert not np.array_equal(three.samples[1] - samples3[1],
                                  one.samples[0] - samples3[1])
        # ... while stream 0 is reproducible regardless of the other rows
        lone0 = nz.add_noise(_ring(samples3[0:1]), nz.NoiseSpec(level=0.1, seed=9))
        assert np.array_equal(three.samples[0], lone0.samples[0])

    def test_level_validation(self):
        ring = _ring(np.ones((1, 8), complex))
        with pytest.raises(ValueError):
            nz.add_noise(ring, nz.NoiseSpec(level=1.0, seed=0))
        with pytest.raises(ValueError):
            nz.add_noise(ring, nz.NoiseSpec(level=-0.1, seed=0))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            nz.add_noise(_ring(np.ones((1, 8), complex)), nz.NoiseSpec(level=0.1, seed=-1))

    def test_generator_sanity(self):
        draws = nz._source_rng(123, 0).uniform(-1.0, 1.0, size=100000)
        assert abs(draws.mean()) < 0.02
        assert np.all(np.abs(draws) <= 1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1),
           delta=st.floats(min_value=1e-6, max_value=0.999))
    def test_bound_property(self, seed, delta):
        ring = _ring(_random_samples(2, 16, 7))
        out = nz.add_noise(ring, nz.NoiseSpec(level=delta, seed=seed))
        assert np.all(np.abs(out.samples - ring.samples)
                      <= delta * np.abs(ring.samples) * (1 + 1e-15))
