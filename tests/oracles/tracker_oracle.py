"""Per-track reference tracker on dense covariances.

Each frame predicts, gates and updates the live tracks one at a time with
single-track Kalman functions on full 8x8 covariances that build their
noise matrices with ``np.diag`` and project with an explicit observation
matrix, and both association stages fill their cost matrices pair by pair
with the scalar ``iou``.  Each live track's state is kept apart from its
``Track``, keyed by track id.  Only ``Track``, ``iou`` and the assignment
solver are shared with the production tracker, so ``Tracker``, whose
kernels keep a covariance as four 2x2 blocks, must reproduce this one's
tracks, lifecycles and states bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tsdiag.errors import ValidationError
from tsdiag.tracker import (
    CONFIRMED,
    DELETED,
    TENTATIVE,
    Track,
    TrackerConfig,
    iou,
    solve_assignment,
)

_POS_WEIGHT = 1.0 / 20.0
_VEL_WEIGHT = 1.0 / 160.0
_GATE_COST = 1e5

_TRANSITION = np.eye(8)
_TRANSITION[:4, 4:] = np.eye(4)
_OBSERVATION = np.zeros((4, 8))
_OBSERVATION[:, :4] = np.eye(4)


@dataclass(frozen=True)
class DenseState:
    """One track's Kalman state with its full covariance matrix."""

    mean: np.ndarray        # (8,)
    covariance: np.ndarray  # (8, 8)


def _xyah(bbox):
    left, top, right, bottom = bbox
    w = right - left
    h = bottom - top
    return np.array([left + w / 2.0, top + h / 2.0, w / h, h])


def _box(mean):
    cx, cy, aspect, h = mean[:4]
    w = aspect * h
    return (float(cx - w / 2.0), float(cy - h / 2.0),
            float(cx + w / 2.0), float(cy + h / 2.0))


def kalman_initiate(bbox):
    measured = _xyah(bbox)
    h = measured[3]
    std = np.array([
        2.0 * _POS_WEIGHT * h, 2.0 * _POS_WEIGHT * h, 1e-2, 2.0 * _POS_WEIGHT * h,
        10.0 * _VEL_WEIGHT * h, 10.0 * _VEL_WEIGHT * h, 1e-5, 10.0 * _VEL_WEIGHT * h,
    ])
    return DenseState(np.concatenate([measured, np.zeros(4)]), np.diag(std ** 2))


def kalman_predict(state):
    if not (np.all(np.isfinite(state.mean)) and np.all(np.isfinite(state.covariance))):
        raise ValidationError("non-finite Kalman state")
    h = state.mean[3]
    std = np.array([
        _POS_WEIGHT * h, _POS_WEIGHT * h, 1e-2, _POS_WEIGHT * h,
        _VEL_WEIGHT * h, _VEL_WEIGHT * h, 1e-5, _VEL_WEIGHT * h,
    ])
    mean = _TRANSITION @ state.mean
    covariance = _TRANSITION @ state.covariance @ _TRANSITION.T + np.diag(std ** 2)
    return DenseState(mean, covariance)


def _measurement_noise(h, confidence):
    std = np.array([_POS_WEIGHT * h, _POS_WEIGHT * h, 1e-1, _POS_WEIGHT * h])
    scaled = (1.0 - confidence) * std ** 2
    floor = (1e-6 * max(h, 1.0)) ** 2
    return np.diag(np.maximum(scaled, floor))


def kalman_update(state, bbox, confidence):
    if not 0.0 <= confidence <= 1.0:
        raise ValidationError(f"confidence {confidence} outside [0, 1]")
    measured = _xyah(bbox)
    noise = _measurement_noise(state.mean[3], confidence)
    projected_mean = _OBSERVATION @ state.mean
    projected_cov = _OBSERVATION @ state.covariance @ _OBSERVATION.T + noise
    try:
        gain = np.linalg.solve(projected_cov.T, (state.covariance @ _OBSERVATION.T).T).T
    except np.linalg.LinAlgError:
        raise ValidationError("singular innovation covariance in Kalman update") from None
    mean = state.mean + gain @ (measured - projected_mean)
    covariance = state.covariance - gain @ projected_cov @ gain.T
    return DenseState(mean, covariance)


def gating_distance(state, bboxes):
    noise = _measurement_noise(state.mean[3], 0.0)
    projected_mean = _OBSERVATION @ state.mean
    projected_cov = _OBSERVATION @ state.covariance @ _OBSERVATION.T + noise
    diff = np.array([_xyah(b) for b in bboxes]) - projected_mean
    solved = np.linalg.solve(projected_cov, diff.T)
    return np.sum(diff.T * solved, axis=0)


def _appearance_cost(track, embedding):
    return 1.0 - float(np.dot(track.appearance, embedding))


def _unit(values):
    """values at unit length, None for the zero vector.

    The tracker's formula: scaled by the largest component, then by
    ``math.hypot``.  ``np.linalg.norm`` sums squares with a BLAS dot, which
    rounds differently in the last bit.
    """
    scale = max(map(abs, values))
    if scale == 0.0:
        return None
    scaled = [value / scale for value in values]
    norm = math.hypot(*scaled)
    return [value / norm for value in scaled]


def _vector(det):
    return None if det.embedding is None else np.asarray(det.embedding)


def associate(tracks, states, detections, config):
    """Two-stage matching with per-pair cost loops; see tsdiag.tracker.associate.

    ``states`` holds one Kalman state per track, in ``tracks`` order.
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))

    gate = config.mahalanobis_gate
    n_dets = len(detections)
    det_boxes = [d.bbox for d in detections]

    matches = []
    matched_dets = set()

    confirmed = [i for i, t in enumerate(tracks) if t.status == CONFIRMED]
    others = [i for i, t in enumerate(tracks) if t.status != CONFIRMED]

    def _run_stage(track_indices, det_indices, cost):
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

    leftover = []
    if confirmed:
        cost = np.full((len(confirmed), n_dets), _GATE_COST)
        for row, ti in enumerate(confirmed):
            track = tracks[ti]
            predicted = _box(states[ti].mean)
            maha = gating_distance(states[ti], det_boxes)
            for col in range(n_dets):
                if maha[col] > gate:
                    continue
                embedding = _vector(detections[col])
                if (config.use_appearance and track.appearance is not None
                        and embedding is not None):
                    value = _appearance_cost(track, embedding)
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
            predicted = _box(states[ti].mean)
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


class OracleTracker:
    """Per-track tracking loop; call step() once per frame in order."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self.states: dict[int, DenseState] = {}  # live track id -> state
        self._next_id = 1

    def live_tracks(self) -> list[Track]:
        return [t for t in self.tracks if t.status != DELETED]

    def step(self, detections, frame_index):
        live = self.live_tracks()
        states = self.states
        for track in live:
            states[track.track_id] = kalman_predict(states[track.track_id])

        matches, unmatched_tracks, unmatched_dets = associate(
            live, [states[t.track_id] for t in live], detections, self.config)

        alpha = self.config.appearance_ema_alpha
        for track_idx, det_idx in matches:
            track = live[track_idx]
            det = detections[det_idx]
            states[track.track_id] = kalman_update(states[track.track_id], det.bbox,
                                                   det.confidence)
            track.frames_since_update = 0
            track.records.append(det)
            embedding = _vector(det)
            if embedding is not None:
                if track.appearance is None:
                    track.appearance = embedding
                else:
                    blended = alpha * track.appearance + (1.0 - alpha) * embedding
                    unit = _unit(blended.tolist())
                    if unit is not None:
                        track.appearance = np.array(unit)
            if track.status == TENTATIVE and len(track.records) >= self.config.n_init:
                track.status = CONFIRMED
                track.ever_confirmed = True

        for track_idx in unmatched_tracks:
            track = live[track_idx]
            track.frames_since_update += 1
            if track.status == TENTATIVE or track.frames_since_update > self.config.max_age:
                track.status = DELETED
                del states[track.track_id]

        for det_idx in unmatched_dets:
            det = detections[det_idx]
            track = Track(track_id=self._next_id, records=[det], appearance=_vector(det))
            states[track.track_id] = kalman_initiate(det.bbox)
            if self.config.n_init <= 1:
                track.status = CONFIRMED
                track.ever_confirmed = True
            self._next_id += 1
            self.tracks.append(track)
