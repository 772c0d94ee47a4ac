"""Command-line interface.

Subcommands: ``split`` a cloud into training/validation/test files, ``fit``
a surface, ``eval`` a surface against a cloud, ``compare`` the weighted
quasi-interpolant against the multilevel baseline, ``sample`` a surface onto
a grid of points, and ``synth`` to generate benchmark clouds.  A point
file's extension is its format: ``.csv`` is CSV with an ``x,y,z`` header,
any other is XYZ.  Exit status is 0 on success, 1 on usage errors, 2 on data
errors.  Reports are JSON with sorted keys and no timestamps, so a fixed
seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import __version__
from .clouds import bounding_box, check_integer
from .io import (
    read_cloud,
    read_config,
    load_surface,
    save_surface,
    write_cloud,
    write_report,
    write_surface_grid,
)
from .mba import fit_mba
from .metrics import DEFAULT_DENSITY, hausdorff, punctual_errors, surface_sample_points
from .pipeline import DEFAULT_FRACTIONS, fit_split, split
from .synthetic import hemisphere_cloud, perturb


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _fractions(text: str) -> tuple[float, float, float]:
    try:
        train, validation, test = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected three comma-separated fractions") from None
    return train, validation, test


def _seed(text: str) -> int:
    if not text.isdecimal():  # int() would also take a sign, blanks and underscores
        raise argparse.ArgumentTypeError("expected a nonnegative integer")
    return int(text)


def _resolution(text: str) -> tuple[int, int]:
    try:
        rx, ry = map(int, text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError("expected RESxRES, e.g. 50x40") from None
    return rx, ry


@cache
def _parser() -> _Parser:
    """The one parser of the process: building it costs more than a parse."""
    parser = _Parser(prog="wqisa", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="split a cloud into train/validation/test files")
    p.add_argument("--cloud", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--fractions", type=_fractions, default=DEFAULT_FRACTIONS)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--format", choices=("xyz", "csv"), default="xyz")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("fit", help="fit a surface with the data-driven loop")
    p.add_argument("--cloud", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--surface-out", required=True)
    p.add_argument("--report-out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="evaluate a fitted surface against a cloud")
    p.add_argument("--surface", required=True)
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--density", type=int, default=DEFAULT_DENSITY, help="surface samples per element edge")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="side-by-side report against the multilevel baseline")
    p.add_argument("--cloud", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--density", type=int, default=DEFAULT_DENSITY)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sample", help="sample a surface onto a uniform grid of x,y,z points")
    p.add_argument("--surface", required=True)
    p.add_argument("--resolution", type=_resolution, required=True)
    p.add_argument("--out", required=True, help="point file: CSV if it ends in .csv, else XYZ")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("synth", help="generate a synthetic benchmark cloud")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--outlier-fraction", type=float, default=0.0)
    p.add_argument("--outlier-scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def _cmd_split(args) -> int:
    cloud = read_cloud(args.cloud)
    data = split(cloud, args.fractions, args.seed)
    for name, subset in (
        ("train", data.training),
        ("validation", data.validation),
        ("test", data.test),
    ):
        write_cloud(f"{args.out_prefix}_{name}.{args.format}", subset)
    return 0


def _fit_run(args):
    """The configs, split, box and fit of ``fit`` and ``compare``; the config
    first, so a refused key is named without parsing the cloud."""
    run_config = read_config(args.config)
    fit_config = run_config.to_fit_config()
    cloud = read_cloud(args.cloud)
    domain = bounding_box(cloud)
    data = split(cloud, fit_config.fractions, fit_config.seed)
    surface, report = fit_split(data, fit_config, domain=domain)
    return run_config, fit_config, data, domain, surface, report


def _cmd_fit(args) -> int:
    run_config, _, _, _, surface, report = _fit_run(args)
    save_surface(surface, args.surface_out)
    write_report(
        {
            "tool_version": __version__,
            "config": run_config.to_dict(),
            "report": report.to_json_dict(),
        },
        args.report_out,
    )
    return 0


def _cmd_eval(args) -> int:
    surface = load_surface(args.surface)
    assessed = _assess(surface, read_cloud(args.cloud), args.density)
    write_report(
        {
            "tool_version": __version__,
            "stats": assessed["punctual"],
            "hausdorff": assessed["hausdorff"],
            "hausdorff_sample_density": args.density,
        },
        args.out,
    )
    return 0


def _assess(surface, test, density: int) -> dict:
    """A surface's punctual errors on *test* and Hausdorff distance to it."""
    return {
        "punctual": punctual_errors(surface, test).to_dict(),
        "hausdorff": hausdorff(test, surface_sample_points(surface, density)),
    }


def _cmd_compare(args) -> int:
    # the density is checked first, so a bad one costs no fit
    check_integer("density", args.density, 1)
    run_config, fit_config, data, domain, wq_surface, wq_report = _fit_run(args)
    wq_errors = _assess(wq_surface, data.test, args.density)

    mba_surface, mba_history = fit_mba(
        data.training,
        fit_config.max_iterations,
        data.validation,
        degrees=fit_config.degrees,
        domain=domain,
    )

    write_report(
        {
            "tool_version": __version__,
            "config": run_config.to_dict(),
            "wqisa": {
                **wq_errors,
                "iterations": len(wq_report.iterations),
                "stop_reason": wq_report.stop_reason,
                "validation_gmse": wq_report.iterations[wq_report.best_iteration - 1].gmse,
            },
            "mba": {
                **_assess(mba_surface, data.test, args.density),
                "iterations": len(mba_surface.levels),
                "validation_gmse": mba_history[len(mba_surface.levels) - 1],
            },
        },
        args.out,
    )
    return 0


def _cmd_sample(args) -> int:
    surface = load_surface(args.surface)
    write_surface_grid(surface, args.resolution, args.out)
    return 0


def _cmd_synth(args) -> int:
    # perturb checks every option and leaves the cloud as it is at zero noise
    cloud = perturb(
        hemisphere_cloud(args.n, args.seed),
        noise_std=args.noise_std,
        outlier_fraction=args.outlier_fraction,
        outlier_scale=args.outlier_scale,
        seed=args.seed,
    )
    write_cloud(args.out, cloud)
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit status."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every refusal of the data is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
