"""End-to-end orchestration: ingest, track, filter, compose, render, report."""

from __future__ import annotations

import contextlib
import os
import platform
import statistics
from dataclasses import dataclass
from operator import attrgetter

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
    track_matching,
    trajectory_error_report,
)
from .geodesy import probe_distances
from .kitti import (
    DetectionRecord,
    LabelRecord,
    load_oxts,
    parse_detections_file,
    parse_label_file,
    parse_timestamps,
    perturb_ground_truth,
)
from .photogrammetry import QUALITY_OK
from .render import render_svg
from .tracker import Track, Tracker
from .version import __version__
from .trajectory import (
    TimeSpaceDiagram,
    build_diagram,
    diagram_to_csv,
    opposite_lane_filter,
    place_point,
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
    gt_records: list[LabelRecord] | None


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
    """Execute ingest -> (perturb) -> track -> lane filter -> diagram.

    Labels reach the tracker only as perturb_ground_truth's plain
    DetectionRecords; gt_records keeps them for evaluation.
    """
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

        # the probe's (time, link distance) at each frame; fix i is frame i
        if cfg.timestamps:
            times = _read(parse_timestamps, cfg.timestamps)
            if len(times) < len(oxts):
                raise ValidationError(f"{cfg.timestamps}: frame {len(times)} beyond the "
                                      f"{len(times)} explicit timestamps")
            if len(times) > len(oxts):
                raise ValidationError(f"{cfg.timestamps}: {len(times)} timestamps for the "
                                      f"{len(oxts)} GPS fixes in {cfg.oxts}")
        else:
            times = [frame / cfg.frame_rate_hz for frame in range(len(oxts))]
        probe = list(zip(times, probe_distances(cfg.link_start, (s.position for s in oxts),
                                                cfg.distance_mode)))

        if cfg.detections:
            detections = _read(parse_detections_file, cfg.detections)
            _check_frames(detections, cfg.detections, len(oxts), cfg.oxts)
        elif gt_records is not None:
            detections = perturb_ground_truth(gt_records, cfg.jitter_px, cfg.drop_rate,
                                              cfg.seed)
        else:
            raise ValidationError("need either a detections file or a labels file")

        detections = [d for d in detections if d.class_label in cfg.classes]

    with _stage("tracking"):
        tracker = Tracker(cfg.tracker)
        tracks = tracker.run(detections, n_frames=len(oxts))

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
    )


def _run_meta(cfg: PipelineConfig) -> str:
    lines = [
        "# tsdiag run manifest; re-parses as a pipeline config",
        f"# tsdiag {__version__} on python {platform.python_version()}",
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
    """Ground-truth diagram on the run's probe trajectory.

    One trajectory per annotated identity of a configured class, each point
    ranged by its annotated depth; DontCare rows and rows without an
    annotated location and depth are left out.  With the lane filter on,
    an identity is kept when the median of its lateral offsets lies at or
    beyond lane_offset_threshold_m (its mirror for left-hand traffic).
    """
    by_identity: dict[int, list[LabelRecord]] = {}
    for record in gt_records:
        if (record.gt_track_id >= 0 and not record.is_dontcare
                and record.class_label in cfg.classes and record.gt_depth_m is not None
                and record.gt_location_camera is not None):
            by_identity.setdefault(record.gt_track_id, []).append(record)
    lane = cfg.lane
    trajectories = {}
    for identity in sorted(by_identity):
        records = sorted(by_identity[identity], key=attrgetter("frame_index"))
        if lane.enabled:
            lateral = statistics.median(r.gt_location_camera[0] for r in records)
            if lane.traffic_side == "right":
                oncoming = lateral <= lane.lane_offset_threshold_m
            else:
                oncoming = lateral >= -lane.lane_offset_threshold_m
            if not oncoming:
                continue
        trajectories[identity] = [
            place_point(probe, r.frame_index, r.gt_depth_m, QUALITY_OK, cfg.link_length_m)
            for r in records]
    return TimeSpaceDiagram(
        link_length_m=cfg.link_length_m,
        probe_trajectory=list(probe),
        vehicle_trajectories=trajectories,
    )


def evaluate(result: PipelineResult) -> EvalResult:
    """Range, trajectory, and tracking reports against the annotated truth."""
    if result.gt_records is None:
        raise PipelineError("evaluation", "evaluation requires a labels file")
    cfg = result.config
    with _stage("evaluation"):
        gt = [r for r in result.gt_records
              if not r.is_dontcare and r.class_label in cfg.classes]
        range_gt = range_error_report(gt, cfg.intrinsics)
        range_pred = range_error_report(gt, cfg.intrinsics, predicted=result.detections)
        reference = build_reference_diagram(result.gt_records,
                                            result.diagram.probe_trajectory, cfg)
        trajectory = trajectory_error_report(result.diagram, reference,
                                             track_matching(result.kept_tracks, gt))
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
