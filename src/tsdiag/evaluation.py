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
from bisect import bisect_left
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ValidationError
from .kitti import DetectionRecord, LabelRecord
from .photogrammetry import CameraIntrinsics, QUALITY_OK, range_from_height
from .tracker import Track, iou, solve_assignment
from .trajectory import TimeSpaceDiagram

__all__ = [
    "ErrorReport",
    "HotaReport",
    "rmse",
    "range_error_report",
    "track_matching",
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


class ErrorReport(NamedTuple):
    """Per-track RMSE rows; the mean and spread are derived from them."""

    per_track_rmse_m: dict[int, float]
    instance_count: int
    scenario: str
    skipped_pairs: int = 0
    missed_reference_tracks: int = 0

    @property
    def mean_rmse_m(self) -> float:
        values = list(self.per_track_rmse_m.values())
        return sum(values) / len(values) if values else 0.0

    @property
    def std_rmse_m(self) -> float:
        values = list(self.per_track_rmse_m.values())
        mean = self.mean_rmse_m
        return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values)) if values else 0.0


class HotaReport(NamedTuple):
    """One row per alpha; each score is the mean of its column over the rows."""

    per_alpha: list[dict]
    degenerate: bool = False

    def _mean(self, column: str) -> float:
        return sum(row[column] for row in self.per_alpha) / len(self.per_alpha)

    hota = property(lambda self: self._mean("hota"))
    det_a = property(lambda self: self._mean("det_a"))
    ass_a = property(lambda self: self._mean("ass_a"))
    loc_a = property(lambda self: self._mean("loc_a"))


def rmse(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Root mean square difference of two equal-length value lists."""
    if len(pred) != len(truth):
        raise ValidationError(f"length mismatch: {len(pred)} vs {len(truth)}")
    if not pred:
        raise ValidationError("rmse of empty lists is undefined")
    return math.sqrt(sum((p - t) ** 2 for p, t in zip(pred, truth)) / len(pred))


def _overlaps(rows: Sequence[tuple], cols: Sequence[tuple]) -> list[list[float]]:
    """IoU between every (left, top, right, bottom) box of rows and of cols.

    One list of floats per row, each entry ``tsdiag.tracker.iou`` of its
    pair; a pair disjoint in x gets that 0.0 without the call.
    """
    matrix = []
    for a in rows:
        left, right = a[0], a[2]
        matrix.append([0.0 if b[0] >= right or b[2] <= left else iou(a, b) for b in cols])
    return matrix


def _overlap_matches(overlap: Sequence[Sequence[float]], thresholds: Sequence[float],
                     ) -> list[list[tuple[int, int, float]]]:
    """Per threshold, the optimal one-to-one matching of an overlap matrix.

    ``overlap`` is a list of equal-length rows.  A pair is eligible at
    threshold t when its overlap is >= t and > 0.  The matching minimizes
    the cost -overlap on eligible pairs and 0 elsewhere, and keeps its
    eligible pairs, as (row, col, overlap) in row order.  Eligible sets are
    nested in the threshold, so a threshold with as many eligible pairs as
    the one before it poses the same problem and reuses its matching; a
    threshold without eligible pairs needs no solve.
    """
    positive = sorted(value for row in overlap for value in row if value > 0.0)
    matches = []
    count, kept = 0, []
    for threshold in thresholds:
        eligible = len(positive) - bisect_left(positive, threshold)
        if eligible != count:
            count, kept = eligible, []
            if eligible:
                cost = [[-value if value >= threshold else 0.0 for value in row]
                        for row in overlap]
                kept = [(i, j, overlap[i][j]) for i, j in solve_assignment(cost)
                        if cost[i][j] < 0.0]
        matches.append(kept)
    return matches


def _frame_matches(refs: Iterable[tuple[int, object, tuple]],
                   preds: Iterable[tuple[int, object, tuple]],
                   thresholds: Sequence[float]) -> list[list[tuple[object, object, float]]]:
    """Per threshold, the (ref key, pred key, overlap) pairs of each frame's matching.

    ``refs`` and ``preds`` are (frame, key, bbox) triples.  Each frame that
    holds both is matched by ``_overlap_matches`` on the overlaps of its
    boxes, references as rows in input order; pairs come frame by frame in
    frame order.
    """
    cols_by_frame: dict[int, list] = {}
    for item in preds:
        cols_by_frame.setdefault(item[0], []).append(item)
    rows_by_frame: dict[int, list] = {}
    for item in refs:
        if item[0] in cols_by_frame:
            rows_by_frame.setdefault(item[0], []).append(item)
    pairs: list[list[tuple[object, object, float]]] = [[] for _ in thresholds]
    for frame, rows in sorted(rows_by_frame.items()):
        cols = cols_by_frame[frame]
        overlap = _overlaps([bbox for _, _, bbox in rows], [bbox for _, _, bbox in cols])
        for kept, matches in zip(pairs, _overlap_matches(overlap, thresholds)):
            kept.extend((rows[i][1], cols[j][1], o) for i, j, o in matches)
    return pairs


def range_error_report(records: Sequence[LabelRecord],
                       intrinsics: CameraIntrinsics,
                       predicted: Sequence[DetectionRecord] | None = None,
                       class_labels: Sequence[str] | None = None) -> ErrorReport:
    """Per-track RMSE between estimated camera ranges and annotated depths.

    With predicted boxes the estimate is computed from each true-positive
    prediction (matched to ground truth at IoU >= 0.5); otherwise the
    annotated boxes themselves are used.
    """
    gt = [r for r in records
          if r.gt_depth_m is not None
          and (class_labels is None or r.class_label in class_labels)]
    scenario = "gt_boxes" if predicted is None else "predicted_boxes"
    if predicted is None:
        instances = [(r, r) for r in gt]
    else:
        [matches] = _frame_matches([(r.frame_index, r, r.bbox) for r in gt],
                                   [(d.frame_index, d, d.bbox) for d in predicted],
                                   (_RANGE_MATCH_IOU,))
        instances = [(r, d) for r, d, _ in matches]

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
    return ErrorReport(per_track, count, scenario)


def track_matching(tracks: Sequence[Track],
                   reference: Sequence[LabelRecord]) -> dict[int, int]:
    """Pair each confirmed track with the annotated identity its records match most.

    A record matches an annotated box when the optimal per-frame matching
    pairs them at IoU >= 0.5, as in CLEAR MOT and HOTA.  Every label takes
    part in the matching, so one without an identity (track id < 0) can
    take a box, but it pairs with no track.  A tie goes to the identity
    matched first; a track that matches no box with an identity stays
    unpaired.
    """
    [matches] = _frame_matches([(r.frame_index, r.gt_track_id, r.bbox) for r in reference],
                               boxes_from_tracks(tracks), (_RANGE_MATCH_IOU,))
    tallies: dict[int, dict[int, int]] = {}
    for gt_id, track_id, _ in matches:
        if gt_id >= 0:
            tally = tallies.setdefault(track_id, {})
            tally[gt_id] = tally.get(gt_id, 0) + 1
    # pairs come in frame order, and max keeps the first of equal counts
    return {track_id: max(tally, key=tally.get) for track_id, tally in sorted(tallies.items())}


def trajectory_error_report(predicted: TimeSpaceDiagram,
                            reference: TimeSpaceDiagram,
                            matching: Mapping[int, int],
                            quality_ok_only: bool = False) -> ErrorReport:
    """Per-track RMSE of link distances at equal timestamps.

    ``matching`` pairs a predicted track id with a reference track id;
    ``track_matching`` gives it.  Points pair only when their times are the
    same float: both diagrams are built on one probe trajectory, so a frame
    has one time in each.
    """
    per_track: dict[int, float] = {}
    count = 0
    skipped = 0
    matched_refs: set[int] = set()
    for pred_id, ref_id in sorted(matching.items()):
        pred_points = predicted.vehicle_trajectories.get(pred_id, [])
        ref_points = reference.vehicle_trajectories.get(ref_id, [])
        if quality_ok_only:
            pred_points = [p for p in pred_points if p.quality == QUALITY_OK]
        ref_by_time = {p.time_s: p for p in ref_points}
        pairs = [(p.link_distance_m, ref_by_time[p.time_s].link_distance_m)
                 for p in pred_points if p.time_s in ref_by_time]
        if not pairs:
            skipped += 1
            continue
        matched_refs.add(ref_id)
        per_track[pred_id] = rmse([a for a, _ in pairs], [b for _, b in pairs])
        count += len(pairs)
    missed = len([tid for tid in reference.vehicle_trajectories
                  if tid not in matched_refs])
    return ErrorReport(per_track, count, "trajectory", skipped, missed)


def boxes_from_records(records: Iterable[LabelRecord],
                       ) -> list[tuple[int, int, tuple[float, float, float, float]]]:
    """Adapt annotated records to (frame, identity, bbox) triples."""
    return [(r.frame_index, r.gt_track_id, r.bbox) for r in records if r.gt_track_id >= 0]


def boxes_from_tracks(tracks) -> list[tuple[int, int, tuple[float, float, float, float]]]:
    """Adapt confirmed tracks to (frame, identity, bbox) triples."""
    return [(record.frame_index, track.track_id, record.bbox)
            for track in tracks if track.ever_confirmed for record in track.records]


def hota(gt_boxes: Sequence[tuple[int, int, tuple]],
         pred_boxes: Sequence[tuple[int, int, tuple]],
         alpha_values: Sequence[float] = DEFAULT_ALPHAS) -> HotaReport:
    """HOTA over (frame, identity, bbox) triples; see the module docstring.

    An instance with no ground truth and no predictions is degenerate and
    scores 1.0 across the board by convention.  alpha_values must hold at
    least one value, each in (0, 1].
    """
    if not alpha_values or not all(0.0 < a <= 1.0 for a in alpha_values):  # NaN fails too
        raise ValidationError(f"alpha_values must be one or more values in (0, 1], "
                              f"got {tuple(alpha_values)}")
    if not gt_boxes and not pred_boxes:
        per_alpha = [{"alpha": a, "det_a": 1.0, "ass_a": 1.0, "loc_a": 1.0,
                      "hota": 1.0, "tp": 0, "fn": 0, "fp": 0}
                     for a in alpha_values]
        return HotaReport(per_alpha, degenerate=True)

    gt_counts = Counter(tid for _, tid, _ in gt_boxes)
    pred_counts = Counter(tid for _, tid, _ in pred_boxes)
    total_gt = len(gt_boxes)
    total_pred = len(pred_boxes)

    # (gt_id, pred_id, iou) of each alpha's true positives, in frame order
    tp_by_alpha = _frame_matches(gt_boxes, pred_boxes, alpha_values)
    per_alpha = []
    for alpha, tp_pairs in zip(alpha_values, tp_by_alpha):
        tp = len(tp_pairs)
        fn = total_gt - tp
        fp = total_pred - tp
        det_a = tp / (tp + fn + fp) if (tp + fn + fp) > 0 else 0.0
        pair_counts = Counter((g, p) for g, p, _ in tp_pairs)
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

    return HotaReport(per_alpha)


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
