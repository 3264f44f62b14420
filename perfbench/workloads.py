"""The benchmark's workloads (ScenarioConfig keyword sets) and one operation.

Kept free of numpy/nearscat imports so that ``run.py`` can time
``import nearscat`` itself.
"""

from __future__ import annotations

DELTA = 0.05
# The discarded first operation always runs the paper's standard noise seed;
# it carries the seed-independent quality guard (loc_err_cells).
SETUP_NOISE_SEED = 7
# Measured operations draw their noise seed from --seed among this many
# realizations; each has a reference image recorded in refs/.
NOISE_VARIANTS = 4
# Reference images keep every REF_STRIDE-th grid row and column.
REF_STRIDE = 3

WORKLOADS: dict[str, dict] = {
    # Paper's standard setup (ROADMAP baseline); cost spread over the
    # kernel assembly, incident fields and grid CSV writing.
    "ext_soft_kite": dict(
        side="exterior", bc="soft", shape="kite", wavenumbers=(3.0, 4.0, 5.0),
        forward_nodes=512),
    # Solver-bound: 1024 Nystrom nodes, tiny grid.  k avoids the unit-disk
    # Dirichlet eigenvalues (k = 7 sits 0.016 from j_11).  Circle, so the
    # ring data have the analytic oracle.
    "ext_hard_circle_dense": dict(
        side="exterior", bc="hard", shape="circle", wavenumbers=(3.0, 4.0, 6.0),
        forward_nodes=1024, grid_nx=48, grid_ny=48),
    # Imaging- and format-bound: gradient indicator, J_n tables, mode guard,
    # 300^2 grid written and then read back by the render step.
    "int_hard_kite_fine": dict(
        side="interior", bc="hard", shape="kite", wavenumbers=(3.0,),
        forward_nodes=256, grid_nx=300, grid_ny=300),
}

# Workloads whose operation ends with `nearscat render` of the k = 3 grid CSV.
RENDER = {"int_hard_kite_fine"}


def noise_seed(seed: int) -> int:
    """Noise seed of the measured operations for benchmark seed ``seed``."""
    return SETUP_NOISE_SEED + seed % NOISE_VARIANTS


def scenario(name: str, nseed: int):
    from nearscat.pipeline import ScenarioConfig
    return ScenarioConfig(delta=DELTA, seed=nseed, **WORKLOADS[name])


def indicator_files(result) -> dict:
    """Written indicator grid CSVs of a run, by file stem."""
    return {n[:-4]: p for n, p in result.files.items()
            if n.startswith("indicator_") and n.endswith(".csv")}


def operation(pipeline, name: str, cfg, outdir):
    """One benchmark operation: run_scenario, then render where RENDER says."""
    result = pipeline.run_scenario(cfg, outdir)
    if name in RENDER:
        csv = next(p for n, p in indicator_files(result).items() if n != "indicator_multi")
        pipeline.render_pgm(csv, outdir / "render.pgm")
    return result
