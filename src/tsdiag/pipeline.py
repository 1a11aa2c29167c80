"""End-to-end orchestration: ingest, track, filter, compose, render, report."""

from __future__ import annotations

import contextlib
import os
import sys
from typing import NamedTuple

from .config import PipelineConfig, dump_config
from .errors import ConfigError, InputError, OutputError, PipelineError
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
    read_input,
)
from .render import render_svg
from .tracker import Track, Tracker
from .version import __version__
from .trajectory import (
    Observation,
    TimeSpaceDiagram,
    build_diagram,
    diagram_to_csv,
    observe,
    opposite_lane_filter,
    smooth_diagram,
)

__all__ = ["PipelineResult", "run_pipeline", "write_run_outputs",
           "build_reference_diagram", "evaluate", "write_eval_outputs"]


class PipelineResult(NamedTuple):
    config: PipelineConfig
    diagram: TimeSpaceDiagram
    tracks: list[Track]
    kept_tracks: list[Track]
    detections: list[DetectionRecord]
    gt_records: list[LabelRecord] | None


class EvalResult(NamedTuple):
    range_gt: ErrorReport
    range_pred: ErrorReport
    trajectory: ErrorReport
    hota_report: HotaReport


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as a PipelineError naming the stage.

    An InputError or OutputError already names its file and passes unchanged.
    """
    try:
        yield
    except (PipelineError, InputError, OutputError):
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def _write(path: str, text: str) -> None:
    """Write one output file, creating its directory if missing; a failure names the file."""
    try:
        os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"{path}: {exc}") from exc


def _write_files(out_dir: str, files: dict[str, str]) -> dict[str, str]:
    """Write each file name's text into out_dir; returns each file name's path."""
    paths = {name: os.path.join(out_dir, name) for name in files}
    for name, text in files.items():
        _write(paths[name], text)
    return paths


def _check_frames(records: list[DetectionRecord], path: str, n_fixes: int,
                  oxts_path: str) -> None:
    """Every record's frame must have a GPS fix, or it would have no place on the link."""
    for record in records:
        if record.frame_index >= n_fixes:
            raise InputError(
                f"{path}: frame {record.frame_index} has no GPS sample; {oxts_path} holds "
                f"frames 0 to {n_fixes - 1}")


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute ingest -> (perturb) -> track -> observe -> lane filter -> diagram.

    Labels reach the tracker only as perturb_ground_truth's plain
    DetectionRecords; gt_records keeps them for evaluation.
    """
    if not cfg.oxts:
        raise ConfigError("no OXTS path configured")
    if not (cfg.detections or cfg.labels):
        raise ConfigError("need either a detections file or a labels file")
    gt_records = None
    with _stage("ingest"):
        # the probe's link distance at each frame; fix i is frame i.  Only the
        # distances are kept: nothing after this reads a fix
        distances = probe_distances(cfg.link_start,
                                    (s.position for s in load_oxts(cfg.oxts)), cfg.distance_mode)
        n_fixes = len(distances)
        if not n_fixes:
            raise InputError(f"{cfg.oxts}: holds no GPS fixes")

        if cfg.labels:
            gt_records = read_input(cfg.labels, parse_label_file)
            _check_frames(gt_records, cfg.labels, n_fixes, cfg.oxts)

        if cfg.timestamps:
            times = read_input(cfg.timestamps, parse_timestamps)
            if len(times) < n_fixes:
                raise InputError(f"{cfg.timestamps}: frame {len(times)} beyond the "
                                 f"{len(times)} explicit timestamps")
            if len(times) > n_fixes:
                raise InputError(f"{cfg.timestamps}: {len(times)} timestamps for the "
                                 f"{n_fixes} GPS fixes in {cfg.oxts}")
        else:
            times = [frame / cfg.frame_rate_hz for frame in range(n_fixes)]
        probe = list(zip(times, distances))

        if cfg.detections:
            detections = read_input(cfg.detections, parse_detections_file)
            _check_frames(detections, cfg.detections, n_fixes, cfg.oxts)
        else:
            detections = perturb_ground_truth(gt_records, cfg.jitter_px, cfg.drop_rate,
                                              cfg.seed)

        detections = [d for d in detections if d.class_label in cfg.classes]

    with _stage("tracking"):
        tracker = Tracker(cfg.tracker)
        tracks = tracker.run(detections, n_frames=n_fixes)

    with _stage("lane_filter"):
        observed = observe(tracks, cfg.intrinsics, min_bbox_height_px=cfg.min_bbox_height_px,
                           max_range_m=cfg.max_range_m)
        kept = opposite_lane_filter(observed, cfg.lane)

    with _stage("diagram"):
        diagram = build_diagram(kept, probe, cfg.link_length_m)
        if cfg.smoothing_window > 1:
            diagram = smooth_diagram(diagram, cfg.smoothing_window)

    return PipelineResult(
        config=cfg,
        diagram=diagram,
        tracks=tracks,
        kept_tracks=[t for t in tracks if t.track_id in kept],
        detections=detections,
        gt_records=gt_records,
    )


def _run_meta(cfg: PipelineConfig) -> str:
    lines = [
        "# tsdiag run manifest; re-parses as a pipeline config",
        f"# tsdiag {__version__} on python {sys.version.split()[0]}",
        f"# seed {cfg.seed}",
        "",
    ]
    return "\n".join(lines) + dump_config(cfg)


def write_run_outputs(result: PipelineResult) -> dict[str, str]:
    """Write diagram.csv, diagram.svg and run_meta.txt to output_dir; returns each one's path."""
    cfg = result.config
    with _stage("render"):
        files = {
            "diagram.csv": diagram_to_csv(result.diagram),
            "diagram.svg": render_svg(result.diagram, title=cfg.sequence_id or None),
            "run_meta.txt": _run_meta(cfg),
        }
        return _write_files(cfg.output_dir, files)


def build_reference_diagram(gt_records, probe, cfg: PipelineConfig) -> TimeSpaceDiagram:
    """Ground-truth diagram on the run's probe trajectory.

    Each annotated identity of a configured class is observed at its
    annotated depth and lateral offset, in frame order; rows without a
    positive depth are left out.  The identities then pass the run's lane
    filter and diagram builder, as a run's observed tracks do.
    """
    observed: dict[int, list[Observation]] = {}
    for record in sorted(gt_records, key=lambda r: r.frame_index):
        if (record.gt_track_id >= 0 and record.class_label in cfg.classes
                and record.gt_depth_m is not None):
            observed.setdefault(record.gt_track_id, []).append(Observation(
                record.frame_index, record.gt_depth_m, record.gt_location_camera[0]))
    return build_diagram(opposite_lane_filter(observed, cfg.lane), probe, cfg.link_length_m)


def evaluate(result: PipelineResult) -> EvalResult:
    """Range, trajectory, and tracking reports against the annotated truth."""
    if result.gt_records is None:
        raise ConfigError("evaluation requires a labels file")
    cfg = result.config
    with _stage("evaluation"):
        gt = [r for r in result.gt_records if r.class_label in cfg.classes]
        range_gt = range_error_report(gt, cfg.intrinsics)
        range_pred = range_error_report(gt, cfg.intrinsics, predicted=result.detections)
        reference = build_reference_diagram(result.gt_records,
                                            result.diagram.probe_trajectory, cfg)
        trajectory = trajectory_error_report(result.diagram, reference,
                                             track_matching(result.kept_tracks, gt))
        hota_report = hota(boxes_from_records(gt),
                           boxes_from_tracks(result.kept_tracks))
    return EvalResult(range_gt, range_pred, trajectory, hota_report)


def write_eval_outputs(result: PipelineResult) -> dict[str, str]:
    """Write each report as .txt and .csv to output_dir; returns each file name's path."""
    evaluation = evaluate(result)
    files = {}
    for name, report in (("range_report_gt", evaluation.range_gt),
                         ("range_report_pred", evaluation.range_pred),
                         ("trajectory_report", evaluation.trajectory)):
        files[name + ".txt"] = error_report_to_text(report)
        files[name + ".csv"] = error_report_to_csv(report)
    files["hota_report.txt"] = hota_report_to_text(evaluation.hota_report)
    files["hota_report.csv"] = hota_report_to_csv(evaluation.hota_report)
    return _write_files(result.config.output_dir, files)
