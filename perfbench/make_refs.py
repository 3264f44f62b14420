"""Record the reference data the benchmark checks against (refs/<workload>.npz).

    python3 perfbench/make_refs.py [workload ...]

Per workload and per noise seed the benchmark can use, the written
normalized indicator grids, subsampled every REF_STRIDE-th row and column
and stored as float32 (keys ``s<seed>.indicator_k3`` ...).  For non-circle
shapes also the clean ring data from a Nystrom solve with twice the
workload's nodes (keys ``ring0``, ``ring1`` ... in wavenumber order), the
forward reference where no analytic oracle exists.  Re-record only when a
change is meant to alter the images beyond last-bit level.
"""

from __future__ import annotations

import sys

from run import OUT, import_nearscat, pin_blas_threads
from workloads import (NOISE_VARIANTS, SETUP_NOISE_SEED, WORKLOADS, indicator_files, operation,
                       scenario)


def record(name: str, pipeline) -> dict:
    import numpy as np
    from checks import csv_image
    arrays = {}
    for nseed in range(SETUP_NOISE_SEED, SETUP_NOISE_SEED + NOISE_VARIANTS):
        result = operation(pipeline, name, scenario(name, nseed), OUT / "make_refs" / name)
        grid = next(iter(result.images.values())).grid
        for stem, path in indicator_files(result).items():
            arrays[f"s{nseed}.{stem}"] = csv_image(path, grid).astype(np.float32)
    cfg = scenario(name, SETUP_NOISE_SEED).resolved()
    if cfg.shape != "circle":
        fine = pipeline.make_curve(cfg.shape_spec(n_nodes=2 * cfg.forward_nodes))
        for i, k in enumerate(cfg.wavenumbers):
            ring = pipeline.simulate_ring(fine, cfg.bc, cfg.side, k, cfg.sources(),
                                          cfg.receiver_radius, cfg.receiver_count)
            arrays[f"ring{i}"] = ring.samples
    return arrays


def main() -> None:
    pin_blas_threads()
    pipeline = import_nearscat()
    import numpy as np
    from checks import REFS
    REFS.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(WORKLOADS):
        np.savez_compressed(REFS / f"{name}.npz", **record(name, pipeline))
        print(f"recorded {REFS / name}.npz")


if __name__ == "__main__":
    main()
