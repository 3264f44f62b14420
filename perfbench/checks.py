"""Output checks of one benchmark operation, and the quality guard.

Imported only after the timed set-up, since it imports numpy.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from nearscat.forward import analytic_circle
from nearscat.pipeline import radial_boundary_error
from workloads import REF_STRIDE, indicator_files

REFS = Path(__file__).resolve().parent / "refs"
A2_GATE = 1e-6            # max relative error of the clean ring data
IMAGE_ATOL = 1e-6         # normalized indicator vs reference; far above last-bit changes


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_image(path, grid):
    """Values column of a written grid CSV, subsampled as the reference images.

    Returns None when the row count does not match the unmasked grid.
    """
    vals = np.loadtxt(path, delimiter=",", usecols=2, comments="#", ndmin=1)
    live = ~grid.mask
    if vals.size != live.sum():
        return None
    full = np.full(grid.n_points, np.nan)
    full[live] = vals
    return grid.as_image(full)[::REF_STRIDE, ::REF_STRIDE]


def circle_oracle(cfg) -> list[np.ndarray]:
    """Analytic clean ring data per k for a circle scenario."""
    c = cfg.resolved()
    th = 2.0 * np.pi * np.arange(c.receiver_count) / c.receiver_count
    pts = np.column_stack([c.receiver_radius * np.cos(th), c.receiver_radius * np.sin(th)])
    return [np.array([analytic_circle(c.shape_radius, c.bc, c.side, k, z, pts)
                      for z in c.sources().positions])
            for k in c.wavenumbers]


class Checker:
    """Checks one operation's outputs; ``check`` returns a list of problems."""

    def __init__(self, name: str):
        with np.load(REFS / f"{name}.npz", allow_pickle=False) as refs:
            self.refs = dict(refs)
        self._forward_ref = None
        self.forward_err = 0.0
        self.digests: dict[str, str] | None = None
        self._image_problems: dict[tuple, list[str]] = {}

    def forward_reference(self, cfg) -> list[np.ndarray]:
        """Clean ring data per k: the analytic oracle on the circle, else the
        2x-node Nystrom rings recorded in refs/.  Computed once per process."""
        if self._forward_ref is None:
            self._forward_ref = circle_oracle(cfg) if cfg.shape == "circle" else [
                self.refs[f"ring{i}"] for i in range(len(cfg.wavenumbers))]
        return self._forward_ref

    def check(self, cfg, result, rings, outdir: Path, same_as_first: bool) -> list[str]:
        problems = []
        # every manifest checksum matches its file
        listed = {}
        for line in (outdir / "manifest.txt").read_text(encoding="ascii").splitlines():
            if line.startswith("# sha256 "):
                fname, _, digest = line[len("# sha256 "):].partition(" = ")
                listed[fname] = digest
        expected = set(result.files) - {"manifest.txt"}
        if set(listed) != expected:
            problems.append(f"manifest lists {sorted(listed)}, run wrote {sorted(expected)}")
        digests = {f.name: sha256(f) for f in sorted(outdir.iterdir())}
        problems += [f"checksum mismatch for {f}" for f, d in listed.items()
                     if digests.get(f) != d]
        # identical artifacts across the measured operations of a run (A8)
        if same_as_first:
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("artifacts differ from the run's first operation")
        # clean ring data against the forward reference (A2 gate)
        if [r.k for r in rings] != list(cfg.wavenumbers):
            problems.append(f"simulated k {[r.k for r in rings]}, expected {cfg.wavenumbers}")
        else:
            err = max(float((np.abs(r.samples - u).max(axis=1) / np.abs(u).max(axis=1)).max())
                      for r, u in zip(rings, self.forward_reference(cfg)))
            self.forward_err = max(self.forward_err, err)
            if not err <= A2_GATE:
                problems.append(f"forward relative error {err:.3e} above {A2_GATE:g}")
        # written normalized indicator grids against the reference images;
        # byte-identical files were already compared
        files = indicator_files(result)
        key = (cfg.seed,) + tuple(digests[p.name] for p in files.values())
        if key not in self._image_problems:
            self._image_problems[key] = self.image_problems(cfg, result, files)
        return problems + self._image_problems[key]

    def image_problems(self, cfg, result, files) -> list[str]:
        problems = []
        grid = next(iter(result.images.values())).grid
        for stem, path in files.items():
            key = f"s{cfg.seed}.{stem}"
            sub = csv_image(path, grid)
            if key not in self.refs or sub is None:
                problems.append(f"{stem}: no reference {key} or wrong row count")
                continue
            want = self.refs[key]
            nan_ok = np.array_equal(np.isnan(sub), np.isnan(want))
            dev = float(np.nanmax(np.abs(sub - want))) if nan_ok else math.inf
            if not dev <= IMAGE_ATOL:
                problems.append(f"{stem}: max deviation {dev:.3e} from reference")
        return problems


def loc_err_cells(cfg, result) -> float:
    """Median over the run's images of the radial boundary error, in cells."""
    curve = cfg.curve()
    images = list(result.images.values())
    if result.superposed is not None:
        images.append(result.superposed)
    cell = images[0].grid.spacing_x
    return float(np.median([radial_boundary_error(im, curve).median / cell
                            for im in images]))
