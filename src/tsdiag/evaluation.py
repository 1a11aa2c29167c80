"""Quality metrics: range-error and trajectory-error RMSE reports and the
higher-order tracking accuracy (HOTA) score family.

HOTA is computed per localization threshold alpha: ground-truth and
predicted boxes are matched one-to-one per frame (maximizing total overlap
among pairs at or above alpha), detection accuracy is TP/(TP+FN+FP),
association accuracy averages, over true positives, the alignment between
the two identities involved, and the final score is the geometric mean of
the two, averaged over alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .kitti import DetectionRecord, group_by_frame
from .photogrammetry import CameraIntrinsics, QUALITY_OK, range_from_height
from .tracker import iou_matrix, solve_assignment
from .trajectory import TimeSpaceDiagram

__all__ = [
    "ErrorReport",
    "HotaReport",
    "rmse",
    "range_error_report",
    "trajectory_error_report",
    "hota",
    "boxes_from_records",
    "boxes_from_tracks",
    "error_report_to_text",
    "error_report_to_csv",
    "hota_report_to_text",
    "hota_report_to_csv",
]

DEFAULT_ALPHAS = tuple(round(0.05 * i, 2) for i in range(1, 20))
_RANGE_MATCH_IOU = 0.5  # overlap at which a predicted box is a range instance


@dataclass
class ErrorReport:
    per_track_rmse_m: dict[int, float]
    mean_rmse_m: float
    std_rmse_m: float
    instance_count: int
    scenario: str
    skipped_pairs: int = 0
    missed_reference_tracks: int = 0


@dataclass
class HotaReport:
    hota: float
    det_a: float
    ass_a: float
    loc_a: float
    per_alpha: list[dict] = field(default_factory=list)
    degenerate: bool = False


def rmse(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Root mean square difference of two equal-length value lists."""
    if len(pred) != len(truth):
        raise ValidationError(f"length mismatch: {len(pred)} vs {len(truth)}")
    if not pred:
        raise ValidationError("rmse of empty lists is undefined")
    return math.sqrt(sum((p - t) ** 2 for p, t in zip(pred, truth)) / len(pred))


def _summarize(per_track: dict[int, float], count: int, scenario: str,
               skipped: int = 0, missed: int = 0) -> ErrorReport:
    values = list(per_track.values())
    mean = sum(values) / len(values) if values else 0.0
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values)) if values else 0.0
    return ErrorReport(
        per_track_rmse_m=per_track,
        mean_rmse_m=mean,
        std_rmse_m=std,
        instance_count=count,
        scenario=scenario,
        skipped_pairs=skipped,
        missed_reference_tracks=missed,
    )


def _overlaps_by_frame(frames: Iterable[int], rows: Mapping[int, Sequence],
                       cols: Mapping[int, Sequence], box) -> dict[int, np.ndarray]:
    """IoU matrix between the boxes of rows[f] and cols[f] for each frame f.

    ``box`` gets the (left, top, right, bottom) box of an item.  Frames
    with equal box counts share one stacked ``iou_matrix`` call, so the
    number of numpy calls follows the number of distinct frame shapes, not
    the number of frames.
    """
    by_shape: dict[tuple[int, int], list[int]] = {}
    for frame in frames:
        by_shape.setdefault((len(rows[frame]), len(cols[frame])), []).append(frame)
    overlaps: dict[int, np.ndarray] = {}
    for (n_rows, n_cols), group in by_shape.items():
        stacked = iou_matrix(
            np.reshape([[box(item) for item in rows[f]] for f in group], (len(group), n_rows, 4)),
            np.reshape([[box(item) for item in cols[f]] for f in group], (len(group), n_cols, 4)))
        overlaps.update(zip(group, stacked))
    return overlaps


def _overlap_matches(overlap: np.ndarray, thresholds: Sequence[float],
                     ) -> list[list[tuple[int, int, float]]]:
    """Per threshold, the optimal one-to-one matching of an overlap matrix.

    A pair is eligible at threshold t when its overlap is >= t and > 0.
    The matching minimizes the cost -overlap on eligible pairs and 0
    elsewhere, and keeps its eligible pairs, as (row, col, overlap) in row
    order.  Eligible sets are nested in the threshold, so a threshold with
    as many eligible pairs as the one before it poses the same problem and
    reuses its matching; a threshold without eligible pairs needs no solve.
    """
    positive = overlap[overlap > 0.0].tolist()
    matches = []
    count, kept = 0, []
    for threshold in thresholds:
        eligible = sum(value >= threshold for value in positive)
        if eligible != count:
            count, kept = eligible, []
            if eligible:
                cost = np.where(overlap >= threshold, -overlap, 0.0)
                kept = [(i, j, overlap[i, j]) for i, j in solve_assignment(cost)
                        if cost[i, j] < 0.0]
        matches.append(kept)
    return matches


def _match_to_ground_truth(predicted: Sequence[DetectionRecord],
                           reference: Sequence[DetectionRecord],
                           ) -> list[tuple[DetectionRecord, DetectionRecord]]:
    # optimal per-frame box matching; pairs below _RANGE_MATCH_IOU are not matches
    by_frame_pred = group_by_frame(predicted)
    by_frame_ref = group_by_frame(reference)
    overlaps = _overlaps_by_frame([f for f in by_frame_ref if f in by_frame_pred],
                                  by_frame_ref, by_frame_pred, attrgetter("bbox"))
    pairs = []
    for frame, refs in sorted(by_frame_ref.items()):
        preds = by_frame_pred.get(frame, [])
        if not preds:
            continue
        [matches] = _overlap_matches(overlaps[frame], (_RANGE_MATCH_IOU,))
        pairs.extend((refs[i], preds[j]) for i, j, _ in matches)
    return pairs


def range_error_report(records: Sequence[DetectionRecord],
                       intrinsics: CameraIntrinsics,
                       predicted: Sequence[DetectionRecord] | None = None,
                       class_labels: Sequence[str] | None = None) -> ErrorReport:
    """Per-track RMSE between estimated camera ranges and annotated depths.

    With predicted boxes the estimate is computed from each true-positive
    prediction (matched to ground truth at IoU >= 0.5); otherwise the
    annotated boxes themselves are used.
    """
    gt = [r for r in records
          if not r.is_dontcare and r.gt_depth_m is not None
          and (class_labels is None or r.class_label in class_labels)]
    scenario = "gt_boxes" if predicted is None else "predicted_boxes"
    if predicted is None:
        instances = [(r, r) for r in gt]
    else:
        instances = _match_to_ground_truth(predicted, gt)

    errors_by_track: dict[int, list[float]] = {}
    count = 0
    for gt_rec, box_rec in instances:
        estimate = range_from_height(box_rec.height, box_rec.class_label, intrinsics,
                                     min_bbox_height_px=0.0, max_range_m=math.inf)
        errors_by_track.setdefault(gt_rec.gt_track_id, []).append(
            estimate.distance_m - gt_rec.gt_depth_m)
        count += 1
    per_track = {tid: math.sqrt(sum(e * e for e in errs) / len(errs))
                 for tid, errs in sorted(errors_by_track.items())}
    return _summarize(per_track, count, scenario)


def _greedy_mean_distance_matching(predicted: TimeSpaceDiagram,
                                   reference: TimeSpaceDiagram) -> dict[int, int]:
    def mean_distance(points):
        return sum(p.link_distance_m for p in points) / len(points)

    pred_means = {tid: mean_distance(pts)
                  for tid, pts in predicted.vehicle_trajectories.items() if pts}
    ref_means = {tid: mean_distance(pts)
                 for tid, pts in reference.vehicle_trajectories.items() if pts}
    candidates = sorted(
        (abs(pm - rm), pid, rid)
        for pid, pm in pred_means.items() for rid, rm in ref_means.items())
    matching: dict[int, int] = {}
    used_refs: set[int] = set()
    for _, pid, rid in candidates:
        if pid in matching or rid in used_refs:
            continue
        matching[pid] = rid
        used_refs.add(rid)
    return matching


def trajectory_error_report(predicted: TimeSpaceDiagram,
                            reference: TimeSpaceDiagram,
                            quality_ok_only: bool = False) -> ErrorReport:
    """Per-track RMSE of link distances at common timestamps.

    Track correspondence comes from the annotated identities recorded in
    the predicted diagram, else from greedy nearest-mean-distance matching.
    """
    matching = (predicted.gt_track_map
                or _greedy_mean_distance_matching(predicted, reference))

    per_track: dict[int, float] = {}
    count = 0
    skipped = 0
    matched_refs: set[int] = set()
    for pred_id, ref_id in sorted(matching.items()):
        pred_points = predicted.vehicle_trajectories.get(pred_id, [])
        ref_points = reference.vehicle_trajectories.get(ref_id, [])
        if quality_ok_only:
            pred_points = [p for p in pred_points if p.quality == QUALITY_OK]
        ref_by_time = {round(p.time_s, 9): p for p in ref_points}
        pairs = [(p.link_distance_m, ref_by_time[round(p.time_s, 9)].link_distance_m)
                 for p in pred_points if round(p.time_s, 9) in ref_by_time]
        if not pairs:
            skipped += 1
            continue
        matched_refs.add(ref_id)
        per_track[pred_id] = rmse([a for a, _ in pairs], [b for _, b in pairs])
        count += len(pairs)
    missed = len([tid for tid in reference.vehicle_trajectories
                  if tid not in matched_refs])
    return _summarize(per_track, count, "trajectory", skipped, missed)


def boxes_from_records(records: Iterable[DetectionRecord],
                       ) -> list[tuple[int, int, tuple[float, float, float, float]]]:
    """Adapt annotated records to (frame, identity, bbox) triples."""
    return [(r.frame_index, r.gt_track_id, r.bbox) for r in records
            if not r.is_dontcare and r.gt_track_id >= 0]


def boxes_from_tracks(tracks) -> list[tuple[int, int, tuple[float, float, float, float]]]:
    """Adapt confirmed tracks to (frame, identity, bbox) triples."""
    return [(record.frame_index, track.track_id, record.bbox)
            for track in tracks if track.ever_confirmed for record in track.records]


def hota(gt_boxes: Sequence[tuple[int, int, tuple]],
         pred_boxes: Sequence[tuple[int, int, tuple]],
         alpha_values: Sequence[float] = DEFAULT_ALPHAS) -> HotaReport:
    """HOTA over (frame, identity, bbox) triples; see the module docstring.

    An instance with no ground truth and no predictions is degenerate and
    scores 1.0 across the board by convention.
    """
    if not gt_boxes and not pred_boxes:
        ones = [1.0] * len(alpha_values)
        per_alpha = [{"alpha": a, "det_a": 1.0, "ass_a": 1.0, "loc_a": 1.0,
                      "hota": 1.0, "tp": 0, "fn": 0, "fp": 0}
                     for a in alpha_values]
        return HotaReport(1.0, 1.0, 1.0, 1.0, per_alpha, True)

    frames = sorted({f for f, _, _ in gt_boxes} | {f for f, _, _ in pred_boxes})
    gt_by_frame = {f: [] for f in frames}
    pred_by_frame = {f: [] for f in frames}
    for f, tid, bbox in gt_boxes:
        gt_by_frame[f].append((tid, bbox))
    for f, tid, bbox in pred_boxes:
        pred_by_frame[f].append((tid, bbox))

    gt_counts: dict[int, int] = {}
    for f, tid, _ in gt_boxes:
        gt_counts[tid] = gt_counts.get(tid, 0) + 1
    pred_counts: dict[int, int] = {}
    for f, tid, _ in pred_boxes:
        pred_counts[tid] = pred_counts.get(tid, 0) + 1
    total_gt = len(gt_boxes)
    total_pred = len(pred_boxes)

    # overlap matrices are alpha-independent; compute once
    overlaps = _overlaps_by_frame([f for f in frames if gt_by_frame[f] and pred_by_frame[f]],
                                  gt_by_frame, pred_by_frame, itemgetter(1))

    # (gt_id, pred_id, iou) of each alpha's true positives, in frame order
    tp_by_alpha: list[list[tuple[int, int, float]]] = [[] for _ in alpha_values]
    for f in frames:
        gts = gt_by_frame[f]
        preds = pred_by_frame[f]
        if not gts or not preds:
            continue
        for tp_pairs, matches in zip(tp_by_alpha, _overlap_matches(overlaps[f], alpha_values)):
            tp_pairs.extend((gts[i][0], preds[j][0], o) for i, j, o in matches)

    per_alpha = []
    for alpha, tp_pairs in zip(alpha_values, tp_by_alpha):
        tp = len(tp_pairs)
        fn = total_gt - tp
        fp = total_pred - tp
        det_a = tp / (tp + fn + fp) if (tp + fn + fp) > 0 else 0.0
        pair_counts: dict[tuple[int, int], int] = {}
        for g, p, _ in tp_pairs:
            pair_counts[(g, p)] = pair_counts.get((g, p), 0) + 1
        if tp > 0:
            ass_sum = 0.0
            for g, p, _ in tp_pairs:
                tpa = pair_counts[(g, p)]
                ass_sum += tpa / (gt_counts[g] + pred_counts[p] - tpa)
            ass_a = ass_sum / tp
            loc_a = sum(o for _, _, o in tp_pairs) / tp
        else:
            ass_a = 0.0
            loc_a = 1.0
        per_alpha.append({
            "alpha": alpha,
            "det_a": det_a,
            "ass_a": ass_a,
            "loc_a": loc_a,
            "hota": math.sqrt(det_a * ass_a),
            "tp": tp, "fn": fn, "fp": fp,
        })

    n = len(per_alpha)
    return HotaReport(
        hota=sum(row["hota"] for row in per_alpha) / n,
        det_a=sum(row["det_a"] for row in per_alpha) / n,
        ass_a=sum(row["ass_a"] for row in per_alpha) / n,
        loc_a=sum(row["loc_a"] for row in per_alpha) / n,
        per_alpha=per_alpha,
    )


# ---------------------------------------------------------------------------
# report serialization (column orders are stable interfaces)


def error_report_to_text(report: ErrorReport) -> str:
    lines = [
        f"scenario = {report.scenario}",
        f"instance_count = {report.instance_count}",
        f"track_count = {len(report.per_track_rmse_m)}",
        f"mean_rmse_m = {report.mean_rmse_m:.6f}",
        f"std_rmse_m = {report.std_rmse_m:.6f}",
        f"skipped_pairs = {report.skipped_pairs}",
        f"missed_reference_tracks = {report.missed_reference_tracks}",
        "",
        "track_id rmse_m",
    ]
    for tid in sorted(report.per_track_rmse_m):
        lines.append(f"{tid} {report.per_track_rmse_m[tid]:.6f}")
    return "\n".join(lines) + "\n"


def error_report_to_csv(report: ErrorReport) -> str:
    lines = ["track_id,rmse_m"]
    for tid in sorted(report.per_track_rmse_m):
        lines.append(f"{tid},{report.per_track_rmse_m[tid]:.6f}")
    return "\n".join(lines) + "\n"


def hota_report_to_text(report: HotaReport) -> str:
    lines = [
        f"hota = {report.hota:.6f}",
        f"det_a = {report.det_a:.6f}",
        f"ass_a = {report.ass_a:.6f}",
        f"loc_a = {report.loc_a:.6f}",
        f"degenerate = {report.degenerate}",
    ]
    return "\n".join(lines) + "\n"


def hota_report_to_csv(report: HotaReport) -> str:
    lines = ["alpha,det_a,ass_a,loc_a,hota,tp,fn,fp"]
    for row in report.per_alpha:
        lines.append(
            f"{row['alpha']:.2f},{row['det_a']:.6f},{row['ass_a']:.6f},"
            f"{row['loc_a']:.6f},{row['hota']:.6f},{row['tp']},{row['fn']},{row['fp']}")
    return "\n".join(lines) + "\n"
