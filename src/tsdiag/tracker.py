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
    "iou_matrix",
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


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Constant-velocity transition and identity matrices, built once and
# read-only so no caller can alter them for the rest of the process.  The
# observation takes the first four state components, so it is a slice.
_TRANSITION = np.eye(8)
_TRANSITION[:4, 4:] = np.eye(4)
_TRANSITION = _readonly(_TRANSITION)
_TRANSITION_T = _TRANSITION.T
_EYE4 = _readonly(np.eye(4))
_EYE8 = _readonly(np.eye(8))

# Noise standard deviations are h * weights + constant per component, h
# being the box height: every component scales with h except the aspect
# ratio and its velocity, which get fixed values.
_STATE_STD_CONSTANT = _readonly(np.array([0.0, 0.0, 1e-2, 0.0, 0.0, 0.0, 1e-5, 0.0]))
_MEASUREMENT_STD_WEIGHTS = _readonly(np.array([_POS_WEIGHT, _POS_WEIGHT, 0.0, _POS_WEIGHT]))
_MEASUREMENT_STD_CONSTANT = _readonly(np.array([0.0, 0.0, 1e-1, 0.0]))


def _state_std_weights(position_weight: float, velocity_weight: float) -> np.ndarray:
    return np.array([position_weight, position_weight, 0.0, position_weight,
                     velocity_weight, velocity_weight, 0.0, velocity_weight])


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
    """Box state (cx, cy, aspect, h) plus per-frame velocities, with covariance.

    One track has mean (8,) and covariance (8, 8); a stack of n tracks has
    mean (n, 8) and covariance (n, 8, 8), and the Kalman functions below
    work row by row on either.
    """

    mean: np.ndarray        # shape (..., 8)
    covariance: np.ndarray  # shape (..., 8, 8)


def _bbox_to_xyah(bbox) -> np.ndarray:
    """(..., 4) boxes (left, top, right, bottom) to (..., 4) (cx, cy, aspect, h)."""
    bbox = np.asarray(bbox, dtype=float)
    top_left = bbox[..., :2]
    size = bbox[..., 2:] - top_left  # (w, h)
    height = size[..., 1:]
    return np.concatenate([top_left + size / 2.0, size[..., :1] / height, height], axis=-1)


def _xyah_to_bbox(mean) -> np.ndarray:
    """(..., >= 4) states to (..., 4) boxes (left, top, right, bottom)."""
    center = mean[..., :2]
    height = mean[..., 3:4]
    half = np.concatenate([mean[..., 2:3] * height, height], axis=-1) / 2.0
    return np.concatenate([center - half, center + half], axis=-1)


def _take_rows(states: KalmanState, rows) -> KalmanState:
    """A copy of the given rows of stacked states."""
    return KalmanState(states.mean.take(rows, axis=0), states.covariance.take(rows, axis=0))


def kalman_initiate(bbox, position_weight: float = _POS_WEIGHT,
                    velocity_weight: float = _VEL_WEIGHT) -> KalmanState:
    """Initial state from an unassociated detection: zero velocity, wide covariance.

    ``bbox`` is one box or an (n, 4) array of boxes, giving n states.
    """
    measured = _bbox_to_xyah(bbox)
    mean = np.concatenate([measured, np.zeros_like(measured)], axis=-1)
    weights = _state_std_weights(2.0 * position_weight, 10.0 * velocity_weight)
    std = measured[..., 3:4] * weights + _STATE_STD_CONSTANT
    return KalmanState(mean, (std ** 2)[..., None] * _EYE8)


def kalman_predict(state: KalmanState, position_weight: float = _POS_WEIGHT,
                   velocity_weight: float = _VEL_WEIGHT) -> KalmanState:
    """Advance one frame under constant velocity; grow covariance by process noise."""
    if not (np.isfinite(state.mean).all() and np.isfinite(state.covariance).all()):
        raise ValidationError("non-finite Kalman state")
    weights = _state_std_weights(position_weight, velocity_weight)
    std = state.mean[..., 3:4] * weights + _STATE_STD_CONSTANT
    mean = state.mean @ _TRANSITION_T
    covariance = (_TRANSITION @ state.covariance @ _TRANSITION_T
                  + (std ** 2)[..., None] * _EYE8)
    return KalmanState(mean, covariance)


def _project(state: KalmanState, confidence) -> tuple[np.ndarray, np.ndarray]:
    """Measurement-space mean and innovation covariance of (stacked) states.

    ``confidence`` broadcasts against (..., 1).  Measurement noise shrinks
    with detection confidence and is floored to stay invertible.  The floor
    is squared with float_power, which calls the C library's pow like the
    scalar ``** 2`` it replaces; ``x * x`` differs from that in the last
    bit for about one value in a thousand.
    """
    h = state.mean[..., 3:4]
    std = h * _MEASUREMENT_STD_WEIGHTS + _MEASUREMENT_STD_CONSTANT
    noise = np.maximum((1.0 - confidence) * std ** 2,
                       np.float_power(1e-6 * np.maximum(h, 1.0), 2))
    return (state.mean[..., :4],
            state.covariance[..., :4, :4] + noise[..., None] * _EYE4)


def kalman_update(state: KalmanState, bbox, confidence) -> KalmanState:
    """Standard linear correction against the measured box.

    For a stack of n states, ``bbox`` is (n, 4) and ``confidence`` (n,).
    """
    confidence = np.asarray(confidence, dtype=float)
    in_range = (confidence >= 0.0) & (confidence <= 1.0)
    if not in_range.all():
        raise ValidationError(f"confidence {confidence[~in_range].flat[0]} outside [0, 1]")
    measured = _bbox_to_xyah(bbox)
    projected_mean, projected_cov = _project(state, confidence[..., None])
    try:
        # solves gain @ projected_cov = covariance @ observation.T, transposed
        gain_t = np.linalg.solve(projected_cov.swapaxes(-1, -2),
                                 state.covariance[..., :, :4].swapaxes(-1, -2))
    except np.linalg.LinAlgError:
        raise ValidationError("singular innovation covariance in Kalman update") from None
    gain = gain_t.swapaxes(-1, -2)
    innovation = measured - projected_mean
    mean = state.mean + (gain @ innovation[..., None])[..., 0]
    covariance = state.covariance - gain @ projected_cov @ gain_t
    return KalmanState(mean, covariance)


def gating_distance(state: KalmanState, bboxes) -> np.ndarray:
    """Squared Mahalanobis distance of m measurements to the predicted box.

    Returns (m,) for one state and (n, m) for a stack of n states.
    """
    projected_mean, projected_cov = _project(state, 0.0)
    measured = _bbox_to_xyah(np.asarray(bboxes, dtype=float).reshape(-1, 4))
    diff = (measured - projected_mean[..., None, :]).swapaxes(-1, -2)  # (..., 4, m)
    product = diff * np.linalg.solve(projected_cov, diff)
    return product[..., 0, :] + product[..., 1, :] + product[..., 2, :] + product[..., 3, :]


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


def iou_matrix(a, b) -> np.ndarray:
    """``iou`` of every pair: boxes a (..., n, 4) and b (..., m, 4) give (..., n, m)."""
    a = np.asarray(a, dtype=float)[..., :, None, :]
    b = np.asarray(b, dtype=float)[..., None, :, :]
    overlap = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    inter = overlap[..., 0] * overlap[..., 1]
    size_a = np.maximum(0.0, a[..., 2:] - a[..., :2])
    size_b = np.maximum(0.0, b[..., 2:] - b[..., :2])
    union = size_a[..., 0] * size_a[..., 1] + size_b[..., 0] * size_b[..., 1] - inter
    positive = (np.minimum(overlap[..., 0], overlap[..., 1]) > 0.0) & (union > 0.0)
    return np.divide(inter, union, out=np.zeros(union.shape), where=positive)


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

    ``records`` holds each matched detection once, in frame order; its
    frame, box and confidence are the track's observation history.
    ``observe`` is the only way to add one after construction: it appends
    to ``records`` and keeps running tallies of class labels and annotated
    identities, so ``class_label`` and ``majority_gt_track_id`` cost the
    same however old the track is.  ``records`` passed to the constructor
    seed those tallies.
    """

    track_id: int
    state: KalmanState
    status: str = TENTATIVE
    hits: int = 1
    frames_since_update: int = 0
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

    def observe(self, det: DetectionRecord) -> None:
        """Record one matched detection in records and the tallies."""
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
        return self._snapshot(frame_index, tuple(_xyah_to_bbox(self.state.mean).tolist()))

    def _snapshot(self, frame_index: int,
                  bbox: tuple[float, float, float, float]) -> TrackSnapshot:
        return TrackSnapshot(
            track_id=self.track_id,
            frame_index=frame_index,
            status=self.status,
            bbox=bbox,
            class_label=self.class_label,
            confidence=self.records[-1].confidence if self.records else 0.0,
            hits=self.hits,
            frames_since_update=self.frames_since_update,
            gt_track_id=self.majority_gt_track_id,
        )


def _appearance_cost(appearances: np.ndarray, embeddings: np.ndarray,
                     metric: str) -> np.ndarray:
    """Cost of every (track appearance, detection embedding) pair."""
    if metric == "cosine":
        return 1.0 - appearances @ embeddings.T
    return np.linalg.norm(appearances[:, None, :] - embeddings[None, :, :], axis=-1)


def associate(tracks: Sequence[Track], detections: Sequence[DetectionRecord],
              config: TrackerConfig,
              embeddings: Sequence[np.ndarray | None] | None = None,
              states: KalmanState | None = None,
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Two-stage matching of track indices to detection indices.

    Stage 1 matches confirmed tracks with an appearance cost (when enabled
    and embeddings are present) or a combined overlap/Mahalanobis cost,
    gated by the Mahalanobis distance.  Stage 2 matches everything left
    over on plain overlap.  Both stages solve the assignment optimally.
    ``states`` are the tracks' Kalman states stacked row for row; when
    omitted they are stacked from each track's ``state``.
    Returns (matches, unmatched_track_indices, unmatched_detection_indices).
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))
    if states is None:
        states = KalmanState(np.stack([t.state.mean for t in tracks]),
                             np.stack([t.state.covariance for t in tracks]))

    n_dets = len(detections)
    det_boxes = np.array([d.bbox for d in detections], dtype=float)
    predicted = _xyah_to_bbox(states.mean)

    matches: list[tuple[int, int]] = []
    free = np.ones(n_dets, dtype=bool)

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
                free[det_indices[col]] = False
            else:
                leftover_tracks.append(track_indices[row])
        for row in range(len(track_indices)):
            if row not in assigned_rows:
                leftover_tracks.append(track_indices[row])
        return leftover_tracks

    leftover: list[int] = []
    if confirmed:
        gate = config.mahalanobis_gate
        maha = gating_distance(_take_rows(states, confirmed), det_boxes)
        cost = (0.5 * (1.0 - iou_matrix(predicted[confirmed], det_boxes))
                + 0.5 * np.minimum(maha / gate, 1.0))
        if config.use_appearance and embeddings is not None:
            rows = [row for row, ti in enumerate(confirmed)
                    if tracks[ti].appearance is not None]
            cols = [col for col in range(n_dets) if embeddings[col] is not None]
            if rows and cols:
                value = _appearance_cost(
                    np.array([tracks[confirmed[row]].appearance for row in rows]),
                    np.array([embeddings[col] for col in cols]), config.nn_metric)
                cost[np.ix_(rows, cols)] = np.where(value > config.max_dist, _GATE_COST, value)
        cost[maha > gate] = _GATE_COST
        leftover = _run_stage(confirmed, range(n_dets), cost)

    stage2_tracks = sorted(others + leftover)
    free_dets = free.nonzero()[0].tolist()
    if stage2_tracks and free_dets:
        value = 1.0 - iou_matrix(predicted[stage2_tracks], det_boxes[free_dets])
        cost = np.where(value <= config.max_iou_dist, value, _GATE_COST)
        unmatched_tracks = _run_stage(stage2_tracks, free_dets, cost)
    else:
        unmatched_tracks = stage2_tracks

    unmatched_dets = free.nonzero()[0].tolist()
    matches.sort()
    unmatched_tracks.sort()
    return matches, unmatched_tracks, unmatched_dets


class Tracker:
    """Sequence-local tracking state; call step() once per frame in order.

    The Kalman states of the live tracks are kept stacked, one row per live
    track in ``live_tracks`` order, so each step predicts, gates and
    updates every track with one call each; each live track's ``state``
    holds a copy of its row after every step.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self._live: list[Track] = []  # self.tracks minus DELETED, same order
        self._states = KalmanState(np.empty((0, 8)), np.empty((0, 8, 8)))
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
        for det in detections:
            if det.frame_index != frame_index:
                raise ValidationError(
                    f"detection of frame {det.frame_index} passed to the step of "
                    f"frame {frame_index}")
        self._last_frame = frame_index

        live = self._live
        states = self._states
        if live:
            states = kalman_predict(states)

        matches, unmatched_tracks, unmatched_dets = associate(
            live, detections, self.config, embeddings, states)

        if matches:
            rows = np.array([track_idx for track_idx, _ in matches])
            matched = [detections[det_idx] for _, det_idx in matches]
            updated = kalman_update(_take_rows(states, rows), [det.bbox for det in matched],
                                    [det.confidence for det in matched])
            states.mean[rows] = updated.mean
            states.covariance[rows] = updated.covariance
        for row, track in enumerate(live):
            # a copy, so a deleted track does not keep the whole stack alive
            track.state = KalmanState(states.mean[row].copy(), states.covariance[row].copy())

        alpha = self.config.appearance_ema_alpha
        for track_idx, det_idx in matches:
            track = live[track_idx]
            det = detections[det_idx]
            track.hits += 1
            track.frames_since_update = 0
            track.observe(det)
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

        keep = [row for row, track in enumerate(live) if track.status != DELETED]
        if len(keep) < len(live):
            live = [live[row] for row in keep]
            states = _take_rows(states, keep)

        if unmatched_dets:
            born = [detections[det_idx] for det_idx in unmatched_dets]
            initial = kalman_initiate([det.bbox for det in born])
            for row, (det_idx, det) in enumerate(zip(unmatched_dets, born)):
                embedding = embeddings[det_idx] if embeddings is not None else None
                track = Track(track_id=self._next_id,
                              state=KalmanState(initial.mean[row], initial.covariance[row]),
                              appearance=embedding)
                track.observe(det)
                if self.config.n_init <= 1:
                    track.status = CONFIRMED
                    track.ever_confirmed = True
                self._next_id += 1
                self.tracks.append(track)
                live.append(track)
            states = KalmanState(np.concatenate([states.mean, initial.mean]),
                                 np.concatenate([states.covariance, initial.covariance]))

        self._live = live
        self._states = states
        boxes = _xyah_to_bbox(states.mean).tolist()
        return [track._snapshot(frame_index, tuple(box)) for track, box in zip(live, boxes)]

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
            records=recs,
            ever_confirmed=True,
        )
        tracks.append(track)
    return tracks
