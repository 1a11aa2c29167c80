"""Command-line entry points.

Subcommands: run (full pipeline), eval (reports against ground truth),
geodesic (ad-hoc inverse queries), perturb (synthesize noisy detections),
render (re-render an SVG from a diagram CSV).

Exit codes: 0 success, 2 configuration error, 3 input parse error,
4 pipeline error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import CONFIG_SCHEMA, load_config
from .errors import ConfigError, ParseError, PipelineError, ValidationError
from .geodesy import Ellipsoid, GeoPoint, geodesic_inverse
from .kitti import format_detections, parse_label_file, perturb_ground_truth, without_dontcare
from .pipeline import run_pipeline, write_eval_outputs, write_run_outputs
from .render import render_svg
from .trajectory import diagram_from_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_PIPELINE = 4


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
    print(f"{args.config}: wrote {paths['csv']}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _collect_overrides(args))
    result = run_pipeline(cfg)
    write_run_outputs(result)
    paths = write_eval_outputs(result)
    print(f"wrote {len(paths)} report files to {cfg.output_dir}")
    return EXIT_OK


def _cmd_geodesic(args: argparse.Namespace) -> int:
    ellipsoid = Ellipsoid(args.semi_major_axis_m, args.flattening)
    solution = geodesic_inverse(GeoPoint(args.lat1, args.lon1),
                                GeoPoint(args.lat2, args.lon2), ellipsoid)
    print(f"distance_m = {solution.distance_m:.4f}")
    print(f"azimuth1_deg = {solution.azimuth1_deg:.9f}")
    print(f"azimuth2_deg = {solution.azimuth2_deg:.9f}")
    return EXIT_OK


def _cmd_perturb(args: argparse.Namespace) -> int:
    with open(args.labels) as fh:
        records = without_dontcare(parse_label_file(fh))
    perturbed = perturb_ground_truth(records, args.jitter_px, args.drop_rate, args.seed)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(format_detections(perturbed))
    print(f"wrote {len(perturbed)} detections to {args.out}")
    return EXIT_OK


def _read_diagram(path: str, link_length_m: float | None):
    with open(path) as fh:
        text = fh.read()
    try:
        return diagram_from_csv(text, link_length_m=link_length_m)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _cmd_render(args: argparse.Namespace) -> int:
    diagram = _read_diagram(args.csv, args.link_length)
    reference = _read_diagram(args.reference, args.link_length) if args.reference else None
    with open(args.out, "w") as fh:
        fh.write(render_svg(diagram, reference, title=args.title))
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

    pert_p = sub.add_parser("perturb", help="synthesize noisy detections from labels")
    pert_p.add_argument("--labels", required=True)
    pert_p.add_argument("--out", required=True)
    pert_p.add_argument("--jitter-px", type=float, default=0.0)
    pert_p.add_argument("--drop-rate", type=float, default=0.0)
    pert_p.add_argument("--seed", type=int, default=0)
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
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PARSE if exc.stage == "ingest" else EXIT_PIPELINE
    except (ParseError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
