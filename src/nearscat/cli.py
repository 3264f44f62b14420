"""Command-line front end.

Subcommands mirror the pipeline stages so every experiment is scriptable:

  simulate      forward-solve clean ring data for a scenario
  noise         perturb a ring CSV
  reconstruct   indicator images from (noisy) ring CSVs
  pipeline      the whole chain for one scenario config
  rates         concentric-circle convergence study
  render        grid CSV -> binary PGM (P5) of its values as they are
  oracle-check  Nystrom solver vs the analytic circle oracle

Config files are flat ``key = value`` text (keys = ScenarioConfig fields);
command-line flags override config-file keys.  ``simulate`` and ``pipeline``
run the checked ``Scenario`` these resolve to; ``reconstruct`` resolves one
per ring file, whose header supplies the side, k, noise level and source
and receiver circles (a config value that contradicts it is an error), and
takes its grid, truncation and mode guard from the config file and flags.
Flags that set config keys parse like config-file values.  A ValueError
(every error the package names is one) or an OSError prints
``nearscat: error: <message>`` to stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import formats
from .noise import NoiseSpec, add_noise

# config keys settable as --key-name flags on simulate, pipeline and reconstruct
_OVERRIDE_KEYS = ("side", "bc", "shape", "shape_radius", "delta", "seed", "truncation",
                  "source_radius", "source_count", "receiver_radius", "receiver_count",
                  "forward_nodes", "grid_xmin", "grid_xmax", "grid_ymin", "grid_ymax",
                  "grid_nx", "grid_ny", "exclusion_radius", "mode_guard")
# scenario keys that rings must share for their images to be superposed
_IMAGE_KEYS = ("side", "bc", "grid_xmin", "grid_xmax", "grid_ymin", "grid_ymax", "grid_nx",
               "grid_ny", "exclusion_radius")


def _add_config_args(p: argparse.ArgumentParser, wavenumbers: bool = True) -> None:
    p.add_argument("--config", "-c", type=Path, help="flat key = value config file")
    p.add_argument("--outdir", "-o", required=True)
    for key in _OVERRIDE_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", default=None)
    if wavenumbers:
        p.add_argument("--k", type=float, nargs="+", default=None,
                       help="wavenumber list (overrides config)")


def _flag_items(args) -> dict:
    """The config keys the flags given set, parsed as config values."""
    from .pipeline import _parse_value
    items = {key: _parse_value(key, getattr(args, key)) for key in _OVERRIDE_KEYS
             if getattr(args, key) is not None}
    if getattr(args, "k", None) is not None:
        items["wavenumbers"] = tuple(args.k)
    return items


def _config_from_args(args):
    from .pipeline import ScenarioConfig
    cfg = ScenarioConfig.from_file(args.config) if args.config else ScenarioConfig()
    return replace(cfg, **_flag_items(args))


def _cmd_simulate(args) -> int:
    from .pipeline import _write_ring, simulate_rings
    cfg = _config_from_args(args).resolved()
    rings, _, warnings = simulate_rings(cfg)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for ring in rings:
        print(f"wrote {_write_ring(outdir, ring, cfg)}")
    return 0


def _cmd_noise(args) -> int:
    ring, meta = formats.read_ring_csv(args.input)
    noisy = add_noise(ring, NoiseSpec(level=args.delta, seed=args.seed))
    extra = {key: meta[key] for key in ("bc", "shape") if key in meta}
    extra["seed"] = args.seed
    formats.write_ring_csv(args.output, noisy, extra=extra)
    print(f"wrote {args.output}")
    return 0


def _cmd_reconstruct(args) -> int:
    from .pipeline import ConfigError, ScenarioConfig, _config_items, _k_tag, write_images
    given = _config_items(args.config.read_text(encoding="ascii")) if args.config else {}
    given.update(_flag_items(args))
    jobs = []
    for path in args.ring:
        ring, meta = formats.read_ring_csv(path)
        # the ring file records the side, k, noise level and source and
        # receiver circles (and the bc, when it names one); the config and
        # flags supply the rest, such as the grid, truncation and mode guard
        header = {"side": ring.side, "bc": meta.get("bc", given.get("bc", "soft")),
                  "delta": ring.noise_level, "source_radius": ring.sources.radius,
                  "source_count": ring.sources.count, "receiver_radius": ring.radius,
                  "receiver_count": ring.n_receivers}
        for key, value in header.items():
            if key in given and given[key] != value:
                raise ConfigError(f"{path} has {key} = {value}, but the config sets "
                                  f"{key} = {given[key]}")
        if "wavenumbers" in given and ring.k not in given["wavenumbers"]:
            raise ConfigError(f"{path} has k = {ring.k}, which is not among the config's "
                              f"wavenumbers {given['wavenumbers']}")
        cfg = ScenarioConfig(**{**given, **header, "wavenumbers": (ring.k,)}).resolved()
        jobs.append((path, ring, meta.get("shape", "unknown"), cfg))
    path_by_tag: dict[str, str] = {}
    first_path, _, first_shape, first = jobs[0]
    for path, ring, shape, cfg in jobs:
        tag = _k_tag(ring.k)
        if tag in path_by_tag:
            raise ValueError(f"ring files {path_by_tag[tag]} and {path} both have k = {tag}; "
                             f"their indicator_k{tag} images would overwrite each other")
        path_by_tag[tag] = path
        if shape != first_shape or any(getattr(cfg, k) != getattr(first, k) for k in _IMAGE_KEYS):
            raise ValueError(f"ring files {first_path} ({first.side} {first.bc} {first_shape}) "
                             f"and {path} ({cfg.side} {cfg.bc} {shape}) differ in side, bc, "
                             f"shape or imaging grid; their images cannot be superposed")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results, superposed, _ = write_images(
        outdir, [(ring, cfg.order, shape) for _, ring, shape, cfg in jobs],
        first.bc, first.grid(), first.mode_guard)
    for coeffs, _ in results:
        print(f"wrote {outdir}/indicator_k{_k_tag(coeffs.k)}.csv (N={coeffs.truncation})")
    if superposed is not None:
        print(f"wrote {outdir / 'indicator_multi.csv'}")
    return 0


def _cmd_pipeline(args) -> int:
    from .pipeline import _k_tag, run_scenario
    cfg = _config_from_args(args)
    result = run_scenario(cfg, args.outdir)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for k, n in result.truncation_by_k.items():
        excl = result.excluded_by_k[k]
        note = f", excluded modes {excl}" if excl else ""
        print(f"k={_k_tag(k)}: N={n}{note}")
    print(f"manifest: {result.files['manifest.txt']}")
    return 0


def _cmd_rates(args) -> int:
    from .pipeline import convergence_study
    report = convergence_study(args.side, k=args.k, seeds=tuple(args.seeds))
    print(report.summary())
    if args.output:
        Path(args.output).write_text(report.summary() + "\n", encoding="ascii")
        print(f"wrote {args.output}")
    return 0


def _cmd_render(args) -> int:
    formats.render_pgm(args.input, args.output, clip_percent=args.clip)
    print(f"wrote {args.output}")
    return 0


def _cmd_oracle_check(args) -> int:
    from .forward import analytic_circle
    from .pipeline import ScenarioConfig, simulate_rings
    if not all(0.0 < k < math.inf for k in args.k):
        raise ValueError(f"--k must be finite and positive, got {args.k}")
    if not 0.0 < args.tol < math.inf:
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    worst = 0.0
    for side in ("exterior", "interior"):
        for bc in ("soft", "hard"):
            # the unit circle, 3 sources and 64 receivers at the side's default radius
            cfg = ScenarioConfig(side=side, bc=bc, wavenumbers=tuple(args.k), source_count=3,
                                 receiver_count=64, forward_nodes=args.nodes).resolved()
            rings, nodes, _ = simulate_rings(cfg)
            print(f"{side:8s} {bc:4s} solved on {nodes} nodes (at most {args.nodes})")
            for ring in rings:
                err = 0.0
                for j, z in enumerate(ring.sources.positions):
                    ref = analytic_circle(1.0, bc, side, ring.k, z, ring.receiver_points)
                    err = max(err, float(np.abs(ring.samples[j] - ref).max()
                                         / np.abs(ref).max()))
                worst = max(worst, err)
                status = "ok" if err <= args.tol else "FAIL"
                print(f"{side:8s} {bc:4s} k={ring.k:g}: max rel err {err:.3e} [{status}]")
    print(f"worst: {worst:.3e} (tolerance {args.tol:g})")
    return 0 if worst <= args.tol else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nearscat", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="forward-solve clean ring data")
    _add_config_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("noise", help="perturb a ring CSV")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("reconstruct", help="indicator images from ring CSVs")
    p.add_argument("--ring", "-r", action="append", required=True,
                   help="ring CSV path (repeat per wavenumber)")
    _add_config_args(p, wavenumbers=False)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("pipeline", help="full scenario run")
    _add_config_args(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("rates", help="concentric-circle convergence study")
    p.add_argument("--side", choices=("exterior", "interior"), required=True)
    p.add_argument("--k", type=float, default=3.0)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("render", help="grid CSV -> binary PGM (P5)", description=(
        "Draw a grid CSV's values as they are: a normalized indicator is dark on the "
        "boundary, where the pipeline's indicator_k*.pgm, its reciprocal, are bright."))
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--clip", type=float, default=99.0,
                   help="percentile that maps to white; 100 is the linear map")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("oracle-check", help="Nystrom vs analytic circle oracle")
    p.add_argument("--k", type=float, nargs="+", default=[3.0, 4.0, 5.0, 6.0])
    p.add_argument("--nodes", type=int, default=512,
                   help="largest Nystrom node count; runs use the coarsest that passes "
                        "the accuracy checks")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_oracle_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"nearscat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
