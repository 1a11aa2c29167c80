"""Assembly of time-space diagrams from tracks, the probe trajectory, and camera ranges.

Each tracked vehicle contributes one polyline of (time, link distance)
points, where the link distance is the probe's own distance along the link
plus the camera-to-vehicle range.  Oncoming traffic is selected either by
annotated lateral position or by an image-side heuristic.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .errors import ParseError, ValidationError
from .photogrammetry import (
    CameraIntrinsics,
    DEFAULT_MAX_RANGE_M,
    DEFAULT_MIN_BBOX_HEIGHT_PX,
    QUALITY_OK,
    range_from_height,
)
from .tracker import Track

__all__ = [
    "QUALITY_OUT_OF_LINK",
    "LaneFilterConfig",
    "TrajectoryPoint",
    "TimeSpaceDiagram",
    "opposite_lane_filter",
    "compose_distance",
    "build_diagram",
    "smooth_track",
    "smooth_diagram",
    "diagram_to_csv",
    "diagram_from_csv",
]

QUALITY_OUT_OF_LINK = "out_of_link"

OUT_OF_LINK_MARGIN_M = 20.0  # how far past the link end a point may lie and stay ok


@dataclass(frozen=True)
class LaneFilterConfig:
    enabled: bool = True
    traffic_side: str = "right"           # side the probe drives on
    lane_offset_threshold_m: float = -1.5  # lateral camera x for oncoming traffic
    image_fraction: float = 0.5            # image share where oncoming cars appear
    min_side_fraction: float = 0.7         # share of frames required on that side

    def __post_init__(self):
        if self.traffic_side not in ("right", "left"):
            raise ValidationError(f"traffic_side must be right or left, got {self.traffic_side!r}")
        if not math.isfinite(self.lane_offset_threshold_m):
            raise ValidationError(f"lane_offset_threshold_m must be finite, "
                                  f"got {self.lane_offset_threshold_m}")
        for name in ("image_fraction", "min_side_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class TrajectoryPoint:
    time_s: float
    link_distance_m: float
    probe_distance_m: float
    camera_range_m: float
    quality: str = QUALITY_OK


@dataclass
class TimeSpaceDiagram:
    link_length_m: float
    probe_trajectory: list[tuple[float, float]]
    vehicle_trajectories: dict[int, list[TrajectoryPoint]]
    # diagram track id -> annotated identity most of its records carry;
    # empty when the records carry none
    gt_track_map: dict[int, int] = field(default_factory=dict)


def _is_closing(ranges: Sequence[float]) -> bool:
    # oncoming traffic closes in, then possibly recedes after passing:
    # range must fall strictly to its minimum and rise strictly afterwards;
    # a minimum at the first sample means the track only ever receded
    if len(ranges) < 2:
        return True
    pivot = min(range(len(ranges)), key=lambda i: ranges[i])
    if pivot == 0:
        return False
    falling = all(ranges[i] > ranges[i + 1] for i in range(pivot))
    rising = all(ranges[i] < ranges[i + 1] for i in range(pivot, len(ranges) - 1))
    return falling and rising


def opposite_lane_filter(tracks: Iterable[Track], image_width_px: float,
                         config: LaneFilterConfig | None = None) -> list[Track]:
    """Keep tracks that look like oncoming traffic.

    With annotated 3D positions the median lateral offset decides; without
    them a track must sit on the oncoming side of the image for most of its
    frames and its apparent size must evolve like closing traffic.
    """
    config = config or LaneFilterConfig()
    if not config.enabled:
        return list(tracks)
    kept = []
    for track in tracks:
        lateral = [r.gt_location_camera[0] for r in track.records
                   if r.gt_location_camera is not None]
        if lateral:
            median_x = statistics.median(lateral)
            if config.traffic_side == "right":
                if median_x <= config.lane_offset_threshold_m:
                    kept.append(track)
            else:
                if median_x >= -config.lane_offset_threshold_m:
                    kept.append(track)
            continue
        centers = [r.center_x for r in track.records]
        if not centers:
            continue
        if config.traffic_side == "right":
            on_side = [c <= config.image_fraction * image_width_px for c in centers]
        else:
            on_side = [c >= (1.0 - config.image_fraction) * image_width_px for c in centers]
        if sum(on_side) / len(on_side) < config.min_side_fraction:
            continue
        # box height grows as range shrinks, so 1/height tracks the range
        proxy_ranges = [1.0 / r.height for r in track.records]
        if _is_closing(proxy_ranges):
            kept.append(track)
    return kept


def compose_distance(probe_distance_m: float, camera_range_m: float) -> float:
    """Vehicle distance along the link: probe distance plus camera range."""
    return probe_distance_m + camera_range_m


def build_diagram(tracks: Iterable[Track], probe: Sequence[tuple[float, float]],
                  link_length_m: float, intrinsics: CameraIntrinsics, *,
                  min_bbox_height_px: float = DEFAULT_MIN_BBOX_HEIGHT_PX,
                  max_range_m: float = DEFAULT_MAX_RANGE_M,
                  range_source: str = "bbox") -> TimeSpaceDiagram:
    """Compose per-track link distances over time into a diagram.

    probe holds the probe's (time [s], link distance [m]) at each frame,
    frame i at index i; a record's time and probe distance are its frame's.
    Tracks must already be lane-filtered; only tracks that reached the
    confirmed state contribute.  range_source "bbox" estimates the camera
    range photogrammetrically, "gt_depth" takes the annotated depth and is
    used to build reference diagrams.
    """
    if range_source not in ("bbox", "gt_depth"):
        raise ValidationError(f"unknown range_source {range_source!r}")
    vehicle_trajectories: dict[int, list[TrajectoryPoint]] = {}
    gt_track_map: dict[int, int] = {}
    for track in sorted(tracks, key=lambda t: t.track_id):
        if not track.ever_confirmed:
            continue
        class_label = track.class_label
        points = []
        for record in track.records:
            frame = record.frame_index
            if frame >= len(probe):
                raise ValidationError(f"frame {frame} has no GPS sample")
            time_s, probe_distance = probe[frame]
            if range_source == "gt_depth":
                if record.gt_depth_m is None:
                    raise ValidationError(
                        f"frame {frame}: record lacks annotated depth for reference diagram")
                camera_range = record.gt_depth_m
                quality = QUALITY_OK
            else:
                estimate = range_from_height(
                    record.height, class_label, intrinsics,
                    min_bbox_height_px, max_range_m)
                camera_range = estimate.distance_m
                quality = estimate.quality_flag
            link_distance = compose_distance(probe_distance, camera_range)
            if quality == QUALITY_OK and not (
                    0.0 <= link_distance <= link_length_m + OUT_OF_LINK_MARGIN_M):
                quality = QUALITY_OUT_OF_LINK
            points.append(TrajectoryPoint(
                time_s=time_s,
                link_distance_m=link_distance,
                probe_distance_m=probe_distance,
                camera_range_m=camera_range,
                quality=quality,
            ))
        if points:
            vehicle_trajectories[track.track_id] = points
            gt_id = track.majority_gt_track_id
            if gt_id >= 0:
                gt_track_map[track.track_id] = gt_id

    return TimeSpaceDiagram(
        link_length_m=link_length_m,
        probe_trajectory=list(probe),
        vehicle_trajectories=vehicle_trajectories,
        gt_track_map=gt_track_map,
    )


def smooth_track(points: Sequence[TrajectoryPoint], window: int) -> list[TrajectoryPoint]:
    """Centered median filter on the link distance (edge windows truncated).

    The camera range is re-derived from the smoothed link distance so the
    probe + range = link identity stays exact.  Window 1 is the identity.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd integer, got {window}")
    if window == 1 or len(points) < 2:
        return list(points)
    half = window // 2
    values = [p.link_distance_m for p in points]
    out = []
    for i, point in enumerate(points):
        lo = max(0, i - half)
        hi = min(len(values), i + half + 1)
        med = statistics.median(values[lo:hi])
        camera_range = med - point.probe_distance_m
        out.append(replace(
            point,
            camera_range_m=camera_range,
            link_distance_m=compose_distance(point.probe_distance_m, camera_range),
        ))
    return out


def smooth_diagram(diagram: TimeSpaceDiagram, window: int) -> TimeSpaceDiagram:
    smoothed = {tid: smooth_track(points, window)
                for tid, points in diagram.vehicle_trajectories.items()}
    return TimeSpaceDiagram(
        link_length_m=diagram.link_length_m,
        probe_trajectory=list(diagram.probe_trajectory),
        vehicle_trajectories=smoothed,
        gt_track_map=dict(diagram.gt_track_map),
    )


_CSV_HEADER = "track_id,time_s,link_distance_m,probe_distance_m,camera_range_m,quality"
_CSV_COLUMNS = _CSV_HEADER.split(",")


def diagram_to_csv(diagram: TimeSpaceDiagram) -> str:
    """Serialize a diagram; probe rows carry track_id 0.

    Every vehicle row is re-checked against the probe + range = link
    identity before it is written.
    """
    lines = [_CSV_HEADER]
    for time_s, distance in diagram.probe_trajectory:
        lines.append(f"0,{time_s:.6f},{distance:.6f},{distance:.6f},0.000000,ok")
    for track_id in sorted(diagram.vehicle_trajectories):
        for p in diagram.vehicle_trajectories[track_id]:
            if p.link_distance_m != p.probe_distance_m + p.camera_range_m:
                raise ValidationError(
                    f"track {track_id} at t={p.time_s}: link distance "
                    "does not equal probe distance plus camera range")
            lines.append(
                f"{track_id},{p.time_s:.6f},{p.link_distance_m:.6f},"
                f"{p.probe_distance_m:.6f},{p.camera_range_m:.6f},{p.quality}")
    return "\n".join(lines) + "\n"


def diagram_from_csv(text: str, link_length_m: float | None = None) -> TimeSpaceDiagram:
    """Rebuild a diagram from its CSV form (values carry 6-decimal rounding)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _CSV_HEADER:
        raise ParseError("missing or unexpected diagram CSV header")
    probe = []
    vehicles: dict[int, list[TrajectoryPoint]] = {}
    max_distance = 0.0
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 6:
            raise ParseError(f"line {line_no}: expected 6 columns, got {len(fields)}")
        try:
            track_id = int(fields[0])
            time_s, link, probe_d, camera = map(float, fields[1:5])
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric column") from None
        for name, value, token in zip(_CSV_COLUMNS[1:5], (time_s, link, probe_d, camera),
                                      fields[1:5]):
            if not math.isfinite(value):
                raise ParseError(f"line {line_no}: non-finite {name} {token!r}")
        max_distance = max(max_distance, link)
        if track_id == 0:
            probe.append((time_s, probe_d))
        else:
            vehicles.setdefault(track_id, []).append(TrajectoryPoint(
                time_s=time_s, link_distance_m=link,
                probe_distance_m=probe_d, camera_range_m=camera,
                quality=fields[5]))
    return TimeSpaceDiagram(
        link_length_m=link_length_m if link_length_m is not None else max_distance,
        probe_trajectory=probe,
        vehicle_trajectories=vehicles,
    )
