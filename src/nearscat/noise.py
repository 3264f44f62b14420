"""Multiplicative random perturbation of ring data, reproducibly.

Per sample:  u_noisy = u + delta * r1 * |u| * exp(i pi r2),  r1, r2 ~ U(-1, 1).

Pointwise |u_noisy - u| <= delta |u|, so the relative L2 noise bound holds
on every ring by construction.

Determinism contract (generator id "pcg64-v1"): source j draws from
numpy's PCG64 seeded with SeedSequence(seed, spawn_key=(j,)), filling an
(n_receivers, 2) uniform array in C order, i.e. receiver-minor with r1
before r2.  Per-source substreams keep one source's noise unchanged when
another source gains receivers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .forward import RingMeasurement

GENERATOR_ID = "pcg64-v1"       # the determinism contract above


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level and seed of the GENERATOR_ID scheme."""

    level: float
    seed: int

    def validate(self) -> None:
        if not 0.0 <= self.level < 1.0:
            raise ValueError(f"noise level {self.level} outside [0, 1)")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"noise seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"noise seed must be >= 0, got {self.seed}")


def _source_rng(seed: int, source_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(source_index,))
    return np.random.Generator(np.random.PCG64(ss))


def add_noise(ring: RingMeasurement, spec: NoiseSpec) -> RingMeasurement:
    """Apply the multiplicative perturbation to a clean ring (the result
    states ``spec.level`` as its noise); delta = 0 is a bit-identical copy."""
    spec.validate()
    if ring.noise_level > 0.0:
        raise ValueError(f"ring data already carry noise (delta={ring.noise_level!r}); "
                         f"perturb the clean ring instead")
    if spec.level == 0.0:
        return replace(ring, samples=ring.samples.copy(), noise_level=0.0)
    noisy = np.empty_like(ring.samples)
    for j in range(ring.samples.shape[0]):
        draws = _source_rng(spec.seed, j).uniform(-1.0, 1.0, size=(ring.n_receivers, 2))
        r1, r2 = draws[:, 0], draws[:, 1]
        u = ring.samples[j]
        noisy[j] = u + spec.level * r1 * np.abs(u) * np.exp(1j * np.pi * r2)
    return replace(ring, samples=noisy, noise_level=spec.level)
