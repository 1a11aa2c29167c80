"""Command-line entry points.

Subcommands: run (full pipeline), eval (reports against ground truth),
geodesic (ad-hoc inverse queries), perturb (synthesize noisy detections),
render (re-render an SVG from a diagram CSV).

Exit codes, by the role of what failed: 0 success, 2 configuration (the
config file or a value), 3 input (a file that is read), 4 pipeline (a stage
after ingest), 5 output (a file that is written).
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import CONFIG_SCHEMA, _check_title, load_config
from .errors import ConfigError, InputError, OutputError, PipelineError, ValidationError
from .geodesy import Ellipsoid, GeoPoint, geodesic_inverse
from .kitti import format_detections, parse_label_file, perturb_ground_truth, read_input
from .pipeline import _write, run_pipeline, write_eval_outputs, write_run_outputs
from .render import render_svg
from .trajectory import diagram_from_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_PIPELINE = 4
EXIT_OUTPUT = 5


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("config overrides",
                                      "any config key can be set directly")
    for section, keys in CONFIG_SCHEMA.items():
        for key in keys:
            group.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                               default=None, metavar="VALUE",
                               help=f"[{section}] {key}")


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides = {}
    for section, keys in CONFIG_SCHEMA.items():
        for key in keys:
            value = getattr(args, f"cfg_{key}", None)
            if value is not None:
                overrides[key] = value
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _collect_overrides(args))
    paths = write_run_outputs(run_pipeline(cfg))
    print(f"{args.config}: wrote {paths['diagram.csv']}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _collect_overrides(args))
    if not cfg.labels:
        raise ConfigError("eval needs a labels file, from the config or --labels")
    result = run_pipeline(cfg)
    write_run_outputs(result)
    paths = write_eval_outputs(result)
    print(f"wrote {len(paths)} report files to {cfg.output_dir}")
    return EXIT_OK


def _cmd_geodesic(args: argparse.Namespace) -> int:
    try:  # every value comes from the command line, so a bad one is a config error
        ellipsoid = Ellipsoid(args.semi_major_axis_m, args.flattening)
        start, end = GeoPoint(args.lat1, args.lon1), GeoPoint(args.lat2, args.lon2)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    solution = geodesic_inverse(start, end, ellipsoid)
    print(f"distance_m = {solution.distance_m:.4f}")
    print(f"azimuth1_deg = {solution.azimuth1_deg:.9f}")
    print(f"azimuth2_deg = {solution.azimuth2_deg:.9f}")
    return EXIT_OK


def _cmd_perturb(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _collect_overrides(args))
    if not cfg.labels:
        raise ConfigError("perturb needs a labels file, from the config or --labels")
    records = read_input(cfg.labels, parse_label_file)
    perturbed = perturb_ground_truth(records, cfg.jitter_px, cfg.drop_rate, cfg.seed)
    _write(args.out, format_detections(perturbed))
    print(f"wrote {len(perturbed)} detections to {args.out}")
    return EXIT_OK


def _read_diagram(path: str, link_length_m: float | None):
    return read_input(path, lambda lines: diagram_from_csv(lines, link_length_m))


def _cmd_render(args: argparse.Namespace) -> int:
    if args.link_length is not None and not 0.0 < args.link_length < math.inf:
        raise ConfigError(f"--link-length must be finite and positive, got {args.link_length}")
    _check_title("--title", args.title or "")
    diagram = _read_diagram(args.csv, args.link_length)
    reference = _read_diagram(args.reference, args.link_length) if args.reference else None
    _write(args.out, render_svg(diagram, reference, title=args.title))
    print(f"wrote {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsdiag",
        description="Reconstruct time-space diagrams for oncoming traffic from "
                    "street-view detections, probe GPS logs, and camera geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full reconstruction pipeline")
    run_p.add_argument("config", help="INI config file of one sequence")
    _add_override_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    eval_p = sub.add_parser("eval", help="run the pipeline and score it against "
                                         "the annotated ground truth")
    eval_p.add_argument("config", help="INI config file (labels path required)")
    _add_override_flags(eval_p)
    eval_p.set_defaults(func=_cmd_eval)

    geo_p = sub.add_parser("geodesic", help="solve one inverse geodesic problem")
    geo_p.add_argument("lat1", type=float)
    geo_p.add_argument("lon1", type=float)
    geo_p.add_argument("lat2", type=float)
    geo_p.add_argument("lon2", type=float)
    geo_p.add_argument("--semi-major-axis-m", type=float, default=6378137.0)
    geo_p.add_argument("--flattening", type=float, default=1.0 / 298.257223563)
    geo_p.set_defaults(func=_cmd_geodesic)

    pert_p = sub.add_parser("perturb", help="synthesize noisy detections from labels, "
                                            "as a run with no detections file does")
    pert_p.add_argument("config", nargs="?", default=None,
                        help="INI config file; its labels, jitter_px, drop_rate and seed apply")
    pert_p.add_argument("--out", required=True)
    _add_override_flags(pert_p)
    pert_p.set_defaults(func=_cmd_perturb)

    render_p = sub.add_parser("render", help="re-render an SVG from a diagram CSV")
    render_p.add_argument("--csv", required=True)
    render_p.add_argument("--out", required=True)
    render_p.add_argument("--reference", default=None,
                          help="overlay this diagram CSV in red")
    render_p.add_argument("--link-length", type=float, default=None)
    render_p.add_argument("--title", default=None)
    render_p.set_defaults(func=_cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
