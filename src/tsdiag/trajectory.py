"""Assembly of time-space diagrams from tracks, the probe trajectory, and camera ranges.

Each tracked vehicle contributes one polyline of (time, link distance)
points, where the link distance is the probe's own distance along the link
plus the camera-to-vehicle range.  Oncoming traffic is selected by its
lateral offset from the camera, estimated from the boxes.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from typing import IO, Iterable, Sequence

from .config import LaneFilterConfig
from .errors import ParseError, ValidationError
from .photogrammetry import (
    CameraIntrinsics,
    DEFAULT_MAX_RANGE_M,
    DEFAULT_MIN_BBOX_HEIGHT_PX,
    QUALITY_ABOVE_MAX_RANGE,
    QUALITY_BELOW_MIN_HEIGHT,
    QUALITY_OK,
    range_from_height,
)
from .tracker import Track

__all__ = [
    "QUALITY_OUT_OF_LINK",
    "TrajectoryPoint",
    "TimeSpaceDiagram",
    "is_oncoming",
    "opposite_lane_filter",
    "place_point",
    "build_diagram",
    "smooth_track",
    "smooth_diagram",
    "diagram_to_csv",
    "diagram_from_csv",
]

QUALITY_OUT_OF_LINK = "out_of_link"

OUT_OF_LINK_MARGIN_M = 20.0  # how far past the link end a point may lie and stay ok

# a diagram CSV's link cell may differ from its probe and range cells' sum by
# this much: three values each rounded to 6 decimals
_LINK_TOLERANCE_M = 2e-6
_QUALITIES = frozenset(
    (QUALITY_OK, QUALITY_BELOW_MIN_HEIGHT, QUALITY_ABOVE_MAX_RANGE, QUALITY_OUT_OF_LINK))


@dataclass(frozen=True)
class TrajectoryPoint:
    time_s: float
    probe_distance_m: float
    camera_range_m: float
    quality: str = QUALITY_OK

    @property
    def link_distance_m(self) -> float:
        """The vehicle's distance along the link: probe distance plus camera range."""
        return self.probe_distance_m + self.camera_range_m


@dataclass
class TimeSpaceDiagram:
    link_length_m: float
    probe_trajectory: list[tuple[float, float]]
    vehicle_trajectories: dict[int, list[TrajectoryPoint]]


def is_oncoming(lateral_offsets_m: Iterable[float], config: LaneFilterConfig) -> bool:
    """Whether a vehicle at these lateral camera offsets [m] drives in the oncoming lanes.

    An offset is the camera-frame x, positive to the right.  The median
    offset must be at most lane_offset_threshold_m for right-hand traffic,
    or at least its negation for left-hand traffic.
    """
    median = statistics.median(lateral_offsets_m)
    if config.traffic_side == "right":
        return median <= config.lane_offset_threshold_m
    return median >= -config.lane_offset_threshold_m


def opposite_lane_filter(tracks: Iterable[Track], intrinsics: CameraIntrinsics,
                         config: LaneFilterConfig | None = None) -> list[Track]:
    """Keep tracks that look like oncoming traffic.

    Each box gives the vehicle's lateral offset X = (center_x - c_x) * r / f,
    with c_x half the camera's image width, f its focal length and r the range
    range_from_height gives its height for the track's class; a track is
    kept when is_oncoming holds for its offsets.  Only the boxes are read.
    """
    config = config or LaneFilterConfig()
    if not config.enabled:
        return list(tracks)
    principal_x = intrinsics.image_width_px / 2.0
    focal = intrinsics.focal_length_px
    kept = []
    for track in tracks:
        if not track.records:
            continue
        class_label = track.class_label
        offsets = [(r.center_x - principal_x)
                   * range_from_height(r.height, class_label, intrinsics).distance_m / focal
                   for r in track.records]
        if is_oncoming(offsets, config):
            kept.append(track)
    return kept


def place_point(probe: Sequence[tuple[float, float]], frame: int, camera_range_m: float,
                quality: str, link_length_m: float) -> TrajectoryPoint:
    """The diagram point of a vehicle seen at camera_range_m in a frame.

    probe holds the probe's (time [s], link distance [m]) at each frame,
    frame i at index i; the point takes its frame's time and probe
    distance.  An ok point beyond the link, by more than
    OUT_OF_LINK_MARGIN_M past its end, is flagged out_of_link.
    """
    if frame >= len(probe):
        raise ValidationError(f"frame {frame} has no GPS sample")
    time_s, probe_distance = probe[frame]
    point = TrajectoryPoint(time_s=time_s, probe_distance_m=probe_distance,
                            camera_range_m=camera_range_m, quality=quality)
    if quality == QUALITY_OK and not (
            0.0 <= point.link_distance_m <= link_length_m + OUT_OF_LINK_MARGIN_M):
        point = replace(point, quality=QUALITY_OUT_OF_LINK)
    return point


def build_diagram(tracks: Iterable[Track], probe: Sequence[tuple[float, float]],
                  link_length_m: float, intrinsics: CameraIntrinsics, *,
                  min_bbox_height_px: float = DEFAULT_MIN_BBOX_HEIGHT_PX,
                  max_range_m: float = DEFAULT_MAX_RANGE_M) -> TimeSpaceDiagram:
    """Compose per-track link distances over time into a diagram.

    Each record's camera range is estimated from its box height and placed
    on the probe trajectory by place_point.  Tracks must already be
    lane-filtered; only tracks that reached the confirmed state contribute.
    """
    vehicle_trajectories: dict[int, list[TrajectoryPoint]] = {}
    for track in sorted(tracks, key=lambda t: t.track_id):
        if not track.ever_confirmed:
            continue
        class_label = track.class_label
        points = []
        for record in track.records:
            estimate = range_from_height(record.height, class_label, intrinsics,
                                         min_bbox_height_px, max_range_m)
            points.append(place_point(probe, record.frame_index, estimate.distance_m,
                                      estimate.quality_flag, link_length_m))
        if points:
            vehicle_trajectories[track.track_id] = points

    return TimeSpaceDiagram(
        link_length_m=link_length_m,
        probe_trajectory=list(probe),
        vehicle_trajectories=vehicle_trajectories,
    )


def smooth_track(points: Sequence[TrajectoryPoint], window: int) -> list[TrajectoryPoint]:
    """Centered median filter on the link distance (edge windows truncated).

    Each point keeps its probe distance and takes the camera range that
    puts it at the smoothed link distance.  Window 1 is the identity.
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
        out.append(replace(point, camera_range_m=med - point.probe_distance_m))
    return out


def smooth_diagram(diagram: TimeSpaceDiagram, window: int) -> TimeSpaceDiagram:
    return replace(diagram, probe_trajectory=list(diagram.probe_trajectory),
                   vehicle_trajectories={tid: smooth_track(points, window) for tid, points
                                         in diagram.vehicle_trajectories.items()})


_CSV_HEADER = "track_id,time_s,link_distance_m,probe_distance_m,camera_range_m,quality"
_CSV_COLUMNS = _CSV_HEADER.split(",")


def diagram_to_csv(diagram: TimeSpaceDiagram) -> str:
    """Serialize a diagram; probe rows carry track_id 0."""
    lines = [_CSV_HEADER]
    for time_s, distance in diagram.probe_trajectory:
        lines.append(f"0,{time_s:.6f},{distance:.6f},{distance:.6f},0.000000,ok")
    for track_id in sorted(diagram.vehicle_trajectories):
        for p in diagram.vehicle_trajectories[track_id]:
            lines.append(
                f"{track_id},{p.time_s:.6f},{p.link_distance_m:.6f},"
                f"{p.probe_distance_m:.6f},{p.camera_range_m:.6f},{p.quality}")
    return "\n".join(lines) + "\n"


def diagram_from_csv(stream: IO[str] | Iterable[str],
                     link_length_m: float | None = None) -> TimeSpaceDiagram:
    """Rebuild a diagram from the lines of its CSV form.

    A track id is 0 (a probe row, whose range is 0) or a positive integer,
    written as diagram_to_csv writes it.  Values carry 6-decimal rounding,
    so a row's link cell may differ from its probe and range cells' sum by
    at most 2e-6 m; the link distance is derived from those two.  The
    quality is one of the four flags.  Blank lines are skipped, and an
    error names its line's place in the file.
    """
    rows = ((line_no, line.rstrip("\n")) for line_no, line in enumerate(stream, start=1)
            if line.strip())
    if next(rows, (0, None))[1] != _CSV_HEADER:
        raise ParseError("missing or unexpected diagram CSV header")
    probe = []
    vehicles: dict[int, list[TrajectoryPoint]] = {}
    max_distance = 0.0
    for line_no, line in rows:
        fields = line.split(",")
        if len(fields) != 6:
            raise ParseError(f"line {line_no}: expected 6 columns, got {len(fields)}")
        try:
            track_id = int(fields[0])
            time_s, link, probe_d, camera = map(float, fields[1:5])
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric column") from None
        if track_id < 0 or str(track_id) != fields[0]:
            raise ParseError(f"line {line_no}: track_id {fields[0]!r} is not 0 or a "
                             "positive integer in plain digits")
        for name, value, token in zip(_CSV_COLUMNS[1:5], (time_s, link, probe_d, camera),
                                      fields[1:5]):
            if not math.isfinite(value):
                raise ParseError(f"line {line_no}: non-finite {name} {token!r}")
        if not abs(link - (probe_d + camera)) <= _LINK_TOLERANCE_M:
            raise ValidationError(f"line {line_no}: link_distance_m {fields[2]!r} is not "
                                  "probe_distance_m + camera_range_m")
        if fields[5] not in _QUALITIES:
            raise ParseError(f"line {line_no}: unknown quality {fields[5]!r}")
        max_distance = max(max_distance, link)
        if track_id == 0:
            if camera != 0.0:
                raise ParseError(f"line {line_no}: probe row (track_id 0) has "
                                 f"camera_range_m {fields[4]!r}, not 0")
            probe.append((time_s, probe_d))
        else:
            vehicles.setdefault(track_id, []).append(TrajectoryPoint(
                time_s=time_s, probe_distance_m=probe_d, camera_range_m=camera,
                quality=fields[5]))
    return TimeSpaceDiagram(
        link_length_m=link_length_m if link_length_m is not None else max_distance,
        probe_trajectory=probe,
        vehicle_trajectories=vehicles,
    )
