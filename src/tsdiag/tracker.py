"""Tracking-by-detection with a constant-velocity Kalman filter.

Per-frame detections are linked into identity-stable tracks: predicted box
states are matched to detections in two stages (appearance or combined
motion cost for confirmed tracks, then plain overlap for the rest), matched
states are corrected with measurement noise scaled down for confident
detections, and track lifecycles follow the usual tentative / confirmed /
deleted scheme.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError
from .kitti import DetectionRecord, group_by_frame

__all__ = [
    "TrackerConfig",
    "KalmanState",
    "Track",
    "TrackSnapshot",
    "Tracker",
    "TENTATIVE",
    "CONFIRMED",
    "DELETED",
    "kalman_initiate",
    "kalman_predict",
    "kalman_update",
    "gating_distance",
    "iou",
    "solve_assignment",
    "associate",
    "load_embeddings",
    "tracks_from_ground_truth",
]

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
DELETED = "deleted"

# chi-square 95% quantile for 4 degrees of freedom
CHI2_95_4DOF = 9.4877

_POS_WEIGHT = 1.0 / 20.0
_VEL_WEIGHT = 1.0 / 160.0
_GATE_COST = 1e5  # sentinel for forbidden assignment edges


# constant-velocity transition and position-only observation, built once
# and read-only so no caller can alter them for the rest of the process
_TRANSITION = np.eye(8)
_TRANSITION[:4, 4:] = np.eye(4)
_TRANSITION.flags.writeable = False
_TRANSITION_T = _TRANSITION.T
_OBSERVATION = np.zeros((4, 8))
_OBSERVATION[:, :4] = np.eye(4)
_OBSERVATION.flags.writeable = False
_OBSERVATION_T = _OBSERVATION.T


@dataclass(frozen=True)
class TrackerConfig:
    nn_metric: str = "cosine"          # cosine | euclidean
    max_dist: float = 0.2              # appearance matching threshold
    max_iou_dist: float = 0.7          # overlap-stage gate on (1 - IoU)
    max_age: int = 30                  # missed frames before deletion
    n_init: int = 2                    # hits needed to confirm
    appearance_ema_alpha: float = 0.9
    use_appearance: bool = False
    mahalanobis_gate: float = CHI2_95_4DOF

    def __post_init__(self):
        if self.nn_metric not in ("cosine", "euclidean"):
            raise ValidationError(f"unknown nn_metric {self.nn_metric!r}")
        if not 0.0 < self.max_dist <= 1.0:
            raise ValidationError(f"max_dist {self.max_dist} outside (0, 1]")
        if not 0.0 < self.max_iou_dist <= 1.0:
            raise ValidationError(f"max_iou_dist {self.max_iou_dist} outside (0, 1]")
        if self.max_age < 1:
            raise ValidationError(f"max_age must be >= 1, got {self.max_age}")
        if self.n_init < 1:
            raise ValidationError(f"n_init must be >= 1, got {self.n_init}")
        if not 0.0 <= self.appearance_ema_alpha <= 1.0:
            raise ValidationError("appearance_ema_alpha outside [0, 1]")


@dataclass(frozen=True)
class KalmanState:
    """Box state (cx, cy, aspect, h) plus per-frame velocities, with covariance."""

    mean: np.ndarray        # shape (8,)
    covariance: np.ndarray  # shape (8, 8)


def _bbox_to_xyah(bbox) -> np.ndarray:
    left, top, right, bottom = bbox
    w = right - left
    h = bottom - top
    return np.array([left + w / 2.0, top + h / 2.0, w / h, h])


def _xyah_to_bbox(mean) -> tuple[float, float, float, float]:
    cx, cy, aspect, h = mean[:4]
    w = aspect * h
    return (float(cx - w / 2.0), float(cy - h / 2.0),
            float(cx + w / 2.0), float(cy + h / 2.0))


def kalman_initiate(bbox, position_weight: float = _POS_WEIGHT,
                    velocity_weight: float = _VEL_WEIGHT) -> KalmanState:
    """Initial state from an unassociated detection: zero velocity, wide covariance."""
    measured = _bbox_to_xyah(bbox)
    mean = np.concatenate([measured, np.zeros(4)])
    h = measured[3]
    std = np.array([
        2.0 * position_weight * h, 2.0 * position_weight * h, 1e-2,
        2.0 * position_weight * h,
        10.0 * velocity_weight * h, 10.0 * velocity_weight * h, 1e-5,
        10.0 * velocity_weight * h,
    ])
    return KalmanState(mean, np.diag(std ** 2))


def kalman_predict(state: KalmanState, position_weight: float = _POS_WEIGHT,
                   velocity_weight: float = _VEL_WEIGHT) -> KalmanState:
    """Advance one frame under constant velocity; grow covariance by process noise."""
    if not (np.all(np.isfinite(state.mean)) and np.all(np.isfinite(state.covariance))):
        raise ValidationError("non-finite Kalman state")
    h = state.mean[3]
    std = np.array([
        position_weight * h, position_weight * h, 1e-2, position_weight * h,
        velocity_weight * h, velocity_weight * h, 1e-5, velocity_weight * h,
    ])
    mean = _TRANSITION @ state.mean
    covariance = _TRANSITION @ state.covariance @ _TRANSITION_T + np.diag(std ** 2)
    return KalmanState(mean, covariance)


def _measurement_noise(h: float, confidence: float) -> np.ndarray:
    # noise shrinks with detection confidence; floored to stay invertible
    std = np.array([_POS_WEIGHT * h, _POS_WEIGHT * h, 1e-1, _POS_WEIGHT * h])
    scaled = (1.0 - confidence) * std ** 2
    floor = (1e-6 * max(h, 1.0)) ** 2
    return np.diag(np.maximum(scaled, floor))


def kalman_update(state: KalmanState, bbox, confidence: float) -> KalmanState:
    """Standard linear correction against the measured box."""
    if not 0.0 <= confidence <= 1.0:
        raise ValidationError(f"confidence {confidence} outside [0, 1]")
    measured = _bbox_to_xyah(bbox)
    noise = _measurement_noise(state.mean[3], confidence)
    projected_mean = _OBSERVATION @ state.mean
    projected_cov = _OBSERVATION @ state.covariance @ _OBSERVATION_T + noise
    try:
        gain = np.linalg.solve(projected_cov.T, (state.covariance @ _OBSERVATION_T).T).T
    except np.linalg.LinAlgError:
        raise ValidationError("singular innovation covariance in Kalman update") from None
    innovation = measured - projected_mean
    mean = state.mean + gain @ innovation
    covariance = state.covariance - gain @ projected_cov @ gain.T
    return KalmanState(mean, covariance)


def gating_distance(state: KalmanState, bboxes: Sequence) -> np.ndarray:
    """Squared Mahalanobis distance of measurements to the predicted box."""
    noise = _measurement_noise(state.mean[3], 0.0)
    projected_mean = _OBSERVATION @ state.mean
    projected_cov = _OBSERVATION @ state.covariance @ _OBSERVATION_T + noise
    measured = np.array([_bbox_to_xyah(b) for b in bboxes])
    diff = measured - projected_mean
    solved = np.linalg.solve(projected_cov, diff.T)
    return np.sum(diff.T * solved, axis=0)


def iou(a, b) -> float:
    """Intersection-over-union of two (left, top, right, bottom) boxes."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0


def solve_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost bipartite assignment; returns min(rows, cols) (row, col) pairs."""
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class TrackSnapshot:
    """Immutable view of a track after one tracking step."""

    track_id: int
    frame_index: int
    status: str
    bbox: tuple[float, float, float, float]
    class_label: str
    confidence: float
    hits: int
    frames_since_update: int
    gt_track_id: int = -1


@dataclass
class Track:
    """One identity's Kalman state, lifecycle and matched observations.

    ``observe`` is the only way to add an observation after construction:
    it appends to ``history`` and ``records`` and keeps running tallies of
    class labels and annotated identities, so ``class_label`` and
    ``majority_gt_track_id`` cost the same however old the track is.
    ``records`` passed to the constructor seed those tallies.
    """

    track_id: int
    state: KalmanState
    status: str = TENTATIVE
    hits: int = 1
    frames_since_update: int = 0
    history: list[tuple[int, tuple[float, float, float, float], float]] = field(default_factory=list)
    records: list[DetectionRecord] = field(default_factory=list)
    appearance: np.ndarray | None = None
    ever_confirmed: bool = False
    # insertion-ordered, so most_common(1) breaks ties toward the first seen
    _label_counts: Counter = field(default_factory=Counter, init=False, repr=False,
                                   compare=False)
    _gt_id_counts: Counter = field(default_factory=Counter, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        for record in self.records:
            self._tally(record)

    def _tally(self, record: DetectionRecord) -> None:
        self._label_counts[record.class_label] += 1
        if record.gt_track_id >= 0:
            self._gt_id_counts[record.gt_track_id] += 1

    def observe(self, frame_index: int, det: DetectionRecord) -> None:
        """Record one matched detection in history, records and the tallies."""
        self.history.append((frame_index, det.bbox, det.confidence))
        self.records.append(det)
        self._tally(det)

    @property
    def class_label(self) -> str:
        if not self._label_counts:
            return "other"
        return self._label_counts.most_common(1)[0][0]

    @property
    def majority_gt_track_id(self) -> int:
        if not self._gt_id_counts:
            return -1
        return self._gt_id_counts.most_common(1)[0][0]

    def snapshot(self, frame_index: int) -> TrackSnapshot:
        return TrackSnapshot(
            track_id=self.track_id,
            frame_index=frame_index,
            status=self.status,
            bbox=_xyah_to_bbox(self.state.mean),
            class_label=self.class_label,
            confidence=self.history[-1][2] if self.history else 0.0,
            hits=self.hits,
            frames_since_update=self.frames_since_update,
            gt_track_id=self.majority_gt_track_id,
        )


def _appearance_cost(track: Track, embedding: np.ndarray, metric: str) -> float:
    if metric == "cosine":
        return 1.0 - float(np.dot(track.appearance, embedding))
    return float(np.linalg.norm(track.appearance - embedding))


def associate(tracks: Sequence[Track], detections: Sequence[DetectionRecord],
              config: TrackerConfig,
              embeddings: Sequence[np.ndarray | None] | None = None,
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Two-stage matching of track indices to detection indices.

    Stage 1 matches confirmed tracks with an appearance cost (when enabled
    and embeddings are present) or a combined overlap/Mahalanobis cost,
    gated by the Mahalanobis distance.  Stage 2 matches everything left
    over on plain overlap.  Both stages solve the assignment optimally.
    Returns (matches, unmatched_track_indices, unmatched_detection_indices).
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))

    gate = config.mahalanobis_gate
    n_dets = len(detections)
    det_boxes = [d.bbox for d in detections]

    matches: list[tuple[int, int]] = []
    matched_dets: set[int] = set()

    confirmed = [i for i, t in enumerate(tracks) if t.status == CONFIRMED]
    others = [i for i, t in enumerate(tracks) if t.status != CONFIRMED]

    def _run_stage(track_indices, det_indices, cost):
        # assign, then split gated-out pairs and leftovers back to unmatched
        leftover_tracks = []
        assigned_rows = set()
        for row, col in solve_assignment(cost):
            assigned_rows.add(row)
            if cost[row, col] < _GATE_COST:
                matches.append((track_indices[row], det_indices[col]))
                matched_dets.add(det_indices[col])
            else:
                leftover_tracks.append(track_indices[row])
        for row in range(len(track_indices)):
            if row not in assigned_rows:
                leftover_tracks.append(track_indices[row])
        return leftover_tracks

    leftover: list[int] = []
    if confirmed:
        cost = np.full((len(confirmed), n_dets), _GATE_COST)
        for row, ti in enumerate(confirmed):
            track = tracks[ti]
            predicted = _xyah_to_bbox(track.state.mean)
            maha = gating_distance(track.state, det_boxes)
            for col in range(n_dets):
                if maha[col] > gate:
                    continue
                embedding = embeddings[col] if embeddings is not None else None
                if (config.use_appearance and track.appearance is not None
                        and embedding is not None):
                    value = _appearance_cost(track, embedding, config.nn_metric)
                    if value > config.max_dist:
                        continue
                else:
                    overlap = iou(predicted, det_boxes[col])
                    value = 0.5 * (1.0 - overlap) + 0.5 * min(maha[col] / gate, 1.0)
                cost[row, col] = value
        leftover = _run_stage(confirmed, list(range(n_dets)), cost)

    stage2_tracks = sorted(others + leftover)
    free_dets = [j for j in range(n_dets) if j not in matched_dets]
    if stage2_tracks and free_dets:
        cost = np.full((len(stage2_tracks), len(free_dets)), _GATE_COST)
        for row, ti in enumerate(stage2_tracks):
            predicted = _xyah_to_bbox(tracks[ti].state.mean)
            for col, dj in enumerate(free_dets):
                value = 1.0 - iou(predicted, det_boxes[dj])
                if value <= config.max_iou_dist:
                    cost[row, col] = value
        unmatched_tracks = _run_stage(stage2_tracks, free_dets, cost)
    else:
        unmatched_tracks = stage2_tracks

    unmatched_dets = [j for j in range(n_dets) if j not in matched_dets]
    matches.sort()
    unmatched_tracks.sort()
    return matches, unmatched_tracks, unmatched_dets


class Tracker:
    """Sequence-local tracking state; call step() once per frame in order."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self._live: list[Track] = []  # self.tracks minus DELETED, same order
        self._next_id = 1
        self._last_frame: int | None = None

    @property
    def live_tracks(self) -> list[Track]:
        return list(self._live)

    def step(self, detections: Sequence[DetectionRecord], frame_index: int,
             embeddings: Sequence[np.ndarray | None] | None = None,
             ) -> list[TrackSnapshot]:
        """Predict, associate, update, and manage lifecycles for one frame."""
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValidationError(
                f"frame {frame_index} not after previous frame {self._last_frame}")
        self._last_frame = frame_index

        live = self._live
        for track in live:
            track.state = kalman_predict(track.state)

        matches, unmatched_tracks, unmatched_dets = associate(
            live, detections, self.config, embeddings)

        alpha = self.config.appearance_ema_alpha
        for track_idx, det_idx in matches:
            track = live[track_idx]
            det = detections[det_idx]
            track.state = kalman_update(track.state, det.bbox, det.confidence)
            track.hits += 1
            track.frames_since_update = 0
            track.observe(frame_index, det)
            embedding = embeddings[det_idx] if embeddings is not None else None
            if embedding is not None:
                if track.appearance is None:
                    track.appearance = embedding
                else:
                    blended = alpha * track.appearance + (1.0 - alpha) * embedding
                    norm = np.linalg.norm(blended)
                    if norm > 0.0:
                        track.appearance = blended / norm
            if track.status == TENTATIVE and track.hits >= self.config.n_init:
                track.status = CONFIRMED
                track.ever_confirmed = True

        for track_idx in unmatched_tracks:
            track = live[track_idx]
            track.frames_since_update += 1
            if track.status == TENTATIVE:
                # a miss before confirmation kills the candidate immediately
                track.status = DELETED
            elif track.frames_since_update > self.config.max_age:
                track.status = DELETED

        self._live = [t for t in live if t.status != DELETED]

        for det_idx in unmatched_dets:
            det = detections[det_idx]
            embedding = embeddings[det_idx] if embeddings is not None else None
            track = Track(track_id=self._next_id, state=kalman_initiate(det.bbox),
                          appearance=embedding)
            track.observe(frame_index, det)
            if self.config.n_init <= 1:
                track.status = CONFIRMED
                track.ever_confirmed = True
            self._next_id += 1
            self.tracks.append(track)
            self._live.append(track)

        return [t.snapshot(frame_index) for t in self._live]

    def run(self, records: Iterable[DetectionRecord], n_frames: int | None = None,
            embeddings: Mapping[tuple[int, int], np.ndarray] | None = None,
            ) -> list[Track]:
        """Track a whole detection stream; empty frames still age the tracks."""
        by_frame = group_by_frame(records)
        if n_frames is None:
            n_frames = max(by_frame, default=-1) + 1
        for frame in range(n_frames):
            dets = by_frame.get(frame, [])
            frame_embeddings = None
            if embeddings is not None:
                frame_embeddings = [embeddings.get((frame, j)) for j in range(len(dets))]
            self.step(dets, frame, frame_embeddings)
        return self.tracks


def load_embeddings(stream: IO[str] | Iterable[str]) -> dict[tuple[int, int], np.ndarray]:
    """Load per-detection appearance vectors.

    Format: `frame detection_index dim v1 ... vdim`, one per line; vectors
    are renormalized to unit length.
    """
    from .kitti import _float_field, _int_field, _iter_content_lines

    table: dict[tuple[int, int], np.ndarray] = {}
    for line_no, line in _iter_content_lines(stream):
        fields = line.split()
        if len(fields) < 4:
            raise ValidationError(f"line {line_no}: embedding line too short")
        frame = _int_field(fields[0], line_no)
        det_index = _int_field(fields[1], line_no)
        dim = _int_field(fields[2], line_no)
        if len(fields) != 3 + dim:
            raise ValidationError(
                f"line {line_no}: expected {dim} vector components, got {len(fields) - 3}")
        vec = np.array([_float_field(tok, line_no) for tok in fields[3:]])
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValidationError(f"line {line_no}: zero-norm embedding")
        table[(frame, det_index)] = vec / norm
    return table


def tracks_from_ground_truth(records: Iterable[DetectionRecord]) -> list[Track]:
    """Build reference tracks directly from annotated identities."""
    grouped: dict[int, list[DetectionRecord]] = {}
    for record in records:
        if record.is_dontcare or record.gt_track_id < 0:
            continue
        grouped.setdefault(record.gt_track_id, []).append(record)
    tracks = []
    for gt_id in sorted(grouped):
        recs = sorted(grouped[gt_id], key=lambda r: r.frame_index)
        track = Track(
            track_id=gt_id,
            state=kalman_initiate(recs[-1].bbox),
            status=CONFIRMED,
            hits=len(recs),
            history=[(r.frame_index, r.bbox, r.confidence) for r in recs],
            records=recs,
            ever_confirmed=True,
        )
        tracks.append(track)
    return tracks
