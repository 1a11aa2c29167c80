"""End-to-end orchestration: ingest, track, filter, compose, render, report."""

from __future__ import annotations

import contextlib
import os
import platform
from dataclasses import dataclass

import numpy

from .config import PipelineConfig, dump_config
from .errors import ParseError, PipelineError, ValidationError
from .evaluation import (
    ErrorReport,
    HotaReport,
    boxes_from_records,
    boxes_from_tracks,
    error_report_to_csv,
    error_report_to_text,
    hota,
    hota_report_to_csv,
    hota_report_to_text,
    range_error_report,
    trajectory_error_report,
)
from .geodesy import probe_distances
from .kitti import (
    DetectionRecord,
    FrameClock,
    load_embeddings,
    load_oxts,
    parse_detections_file,
    parse_label_file,
    parse_timestamps,
    perturb_ground_truth,
    without_dontcare,
)
from .render import render_svg
from .tracker import Track, Tracker, tracks_from_ground_truth
from .version import __version__
from .trajectory import (
    TimeSpaceDiagram,
    build_diagram,
    diagram_to_csv,
    opposite_lane_filter,
    smooth_diagram,
)

__all__ = ["PipelineResult", "run_pipeline", "write_run_outputs",
           "build_reference_diagram", "evaluate", "write_eval_outputs"]


@dataclass
class PipelineResult:
    config: PipelineConfig
    diagram: TimeSpaceDiagram
    tracks: list[Track]
    kept_tracks: list[Track]
    detections: list[DetectionRecord]
    gt_records: list[DetectionRecord] | None
    probe: list[tuple[float, float]]  # (time [s], link distance [m]) at each frame


@dataclass
class EvalResult:
    range_gt: ErrorReport
    range_pred: ErrorReport
    trajectory: ErrorReport
    hota_report: HotaReport


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as a PipelineError naming the stage."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def _read(parse, path: str):
    """Parse one input file; a parse error names the file."""
    with open(path) as fh:
        try:
            return parse(fh)
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"{path}: {exc}") from None


def _check_frames(records: list[DetectionRecord], path: str, n_fixes: int,
                  oxts_path: str) -> None:
    """Every record's frame must have a GPS fix, or it would have no place on the link."""
    for record in records:
        if record.frame_index >= n_fixes:
            raise ValidationError(
                f"{path}: frame {record.frame_index} has no GPS sample; {oxts_path} holds "
                f"frames 0 to {n_fixes - 1}")


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute ingest -> (perturb) -> track -> lane filter -> diagram."""
    gt_records = None
    with _stage("ingest"):
        if not cfg.oxts:
            raise ValidationError("no OXTS path configured")
        if not os.path.exists(cfg.oxts):
            raise ValidationError(f"OXTS path {cfg.oxts!r} does not exist")
        oxts = load_oxts(cfg.oxts)
        if not oxts:
            raise ValidationError(f"OXTS path {cfg.oxts!r} holds no GPS fixes")

        if cfg.labels:
            gt_records = _read(parse_label_file, cfg.labels)
            _check_frames(gt_records, cfg.labels, len(oxts), cfg.oxts)

        if cfg.timestamps:
            stamps = _read(parse_timestamps, cfg.timestamps)
            if len(stamps) < len(oxts):
                raise ValidationError(f"{cfg.timestamps}: frame {len(stamps)} beyond the "
                                      f"{len(stamps)} explicit timestamps")
            clock = FrameClock(frame_rate_hz=cfg.frame_rate_hz,
                               explicit_timestamps=tuple(stamps))
        else:
            clock = FrameClock(frame_rate_hz=cfg.frame_rate_hz)
        distances = probe_distances(cfg.link_start, (s.position for s in oxts),
                                    cfg.distance_mode)
        probe = [(clock.time_for_frame(frame), distance)
                 for frame, distance in enumerate(distances)]

        if cfg.detections:
            detections = _read(parse_detections_file, cfg.detections)
            _check_frames(detections, cfg.detections, len(oxts), cfg.oxts)
        elif gt_records is not None:
            base = gt_records if cfg.include_dontcare else without_dontcare(gt_records)
            detections = perturb_ground_truth(base, cfg.jitter_px, cfg.drop_rate, cfg.seed)
        else:
            raise ValidationError("need either a detections file or a labels file")

        detections = [d for d in detections if d.class_label in cfg.classes]

        embeddings = _read(load_embeddings, cfg.embeddings) if cfg.embeddings else None

    with _stage("tracking"):
        tracker = Tracker(cfg.tracker)
        tracks = tracker.run(detections, n_frames=len(oxts), embeddings=embeddings)

    with _stage("lane_filter"):
        kept = opposite_lane_filter(tracks, cfg.image_width_px, cfg.lane)

    with _stage("diagram"):
        diagram = build_diagram(
            kept, probe, cfg.link_length_m, cfg.intrinsics,
            min_bbox_height_px=cfg.min_bbox_height_px,
            max_range_m=cfg.max_range_m,
        )
        if cfg.smoothing_window > 1:
            diagram = smooth_diagram(diagram, cfg.smoothing_window)

    return PipelineResult(
        config=cfg,
        diagram=diagram,
        tracks=tracks,
        kept_tracks=kept,
        detections=detections,
        gt_records=gt_records,
        probe=probe,
    )


def _run_meta(cfg: PipelineConfig) -> str:
    lines = [
        "# tsdiag run manifest; re-parses as a pipeline config",
        f"# tsdiag {__version__} on python {platform.python_version()}",
        f"# numpy {numpy.__version__}",
        f"# seed {cfg.seed}",
        "",
    ]
    return "\n".join(lines) + dump_config(cfg)


def write_run_outputs(result: PipelineResult, out_dir: str | None = None) -> dict[str, str]:
    """Write diagram.csv, diagram.svg, and run_meta.txt; returns the paths."""
    out_dir = out_dir or result.config.output_dir
    with _stage("render"):
        os.makedirs(out_dir, exist_ok=True)
        paths = {
            "csv": os.path.join(out_dir, "diagram.csv"),
            "svg": os.path.join(out_dir, "diagram.svg"),
            "meta": os.path.join(out_dir, "run_meta.txt"),
        }
        with open(paths["csv"], "w") as fh:
            fh.write(diagram_to_csv(result.diagram))
        with open(paths["svg"], "w") as fh:
            fh.write(render_svg(result.diagram,
                                title=result.config.sequence_id or None))
        with open(paths["meta"], "w") as fh:
            fh.write(_run_meta(result.config))
    return paths


def build_reference_diagram(gt_records, probe, cfg: PipelineConfig) -> TimeSpaceDiagram:
    """Ground-truth diagram: annotated identities and depths, same lane filter,
    on the run's probe trajectory.

    DontCare rows never enter it: tracks_from_ground_truth drops them.
    """
    ref_tracks = tracks_from_ground_truth(
        r for r in gt_records if r.class_label in cfg.classes and r.gt_depth_m is not None)
    ref_tracks = opposite_lane_filter(ref_tracks, cfg.image_width_px, cfg.lane)
    return build_diagram(ref_tracks, probe, cfg.link_length_m, cfg.intrinsics,
                         range_source="gt_depth")


def evaluate(result: PipelineResult) -> EvalResult:
    """Range, trajectory, and tracking reports against the annotated truth."""
    if result.gt_records is None:
        raise PipelineError("evaluation", "evaluation requires a labels file")
    cfg = result.config
    with _stage("evaluation"):
        gt = [r for r in without_dontcare(result.gt_records)
              if r.class_label in cfg.classes]
        range_gt = range_error_report(gt, cfg.intrinsics)
        range_pred = range_error_report(gt, cfg.intrinsics, predicted=result.detections)
        reference = build_reference_diagram(result.gt_records, result.probe, cfg)
        trajectory = trajectory_error_report(result.diagram, reference)
        hota_report = hota(boxes_from_records(gt),
                           boxes_from_tracks(result.kept_tracks))
    return EvalResult(range_gt, range_pred, trajectory, hota_report)


def write_eval_outputs(result: PipelineResult, out_dir: str | None = None) -> dict[str, str]:
    evaluation = evaluate(result)
    out_dir = out_dir or result.config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, report in (("range_report_gt", evaluation.range_gt),
                         ("range_report_pred", evaluation.range_pred),
                         ("trajectory_report", evaluation.trajectory)):
        paths[name + ".txt"] = os.path.join(out_dir, name + ".txt")
        paths[name + ".csv"] = os.path.join(out_dir, name + ".csv")
        with open(paths[name + ".txt"], "w") as fh:
            fh.write(error_report_to_text(report))
        with open(paths[name + ".csv"], "w") as fh:
            fh.write(error_report_to_csv(report))
    paths["hota_report.txt"] = os.path.join(out_dir, "hota_report.txt")
    paths["hota_report.csv"] = os.path.join(out_dir, "hota_report.csv")
    with open(paths["hota_report.txt"], "w") as fh:
        fh.write(hota_report_to_text(evaluation.hota_report))
    with open(paths["hota_report.csv"], "w") as fh:
        fh.write(hota_report_to_csv(evaluation.hota_report))
    return paths
