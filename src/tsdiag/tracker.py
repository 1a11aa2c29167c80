"""Tracking-by-detection with a constant-velocity Kalman filter.

Per-frame detections are linked into identity-stable tracks: predicted box
states are matched to detections in two stages (appearance or combined
motion cost for confirmed tracks, then plain overlap for the rest), matched
states are corrected with measurement noise scaled down for confident
detections, and track lifecycles follow the usual tentative / confirmed /
deleted scheme.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .kitti import DetectionRecord, group_by_frame

__all__ = [
    "TrackerConfig",
    "KalmanState",
    "Track",
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


# Read-only identity matrices: no caller can alter them for the rest of the process.
_EYE2 = _readonly(np.eye(2))
_EYE4 = _readonly(np.eye(4))

# Noise standard deviations are h * weights + constant, h being the box
# height; state noise has a (position, velocity) row per box component.
# Every component scales with h except the aspect ratio and its velocity.
_STATE_STD_CONSTANT = _readonly(np.array([[0.0, 0.0], [0.0, 0.0], [1e-2, 1e-5], [0.0, 0.0]]))
_MEASUREMENT_STD_WEIGHTS = _readonly(np.array([_POS_WEIGHT, _POS_WEIGHT, 0.0, _POS_WEIGHT]))
_MEASUREMENT_STD_CONSTANT = _readonly(np.array([0.0, 0.0, 1e-1, 0.0]))
# process noise of one predict; a new track's state starts twice as
# uncertain in position and ten times as uncertain in velocity
_PROCESS_STD_WEIGHTS = _readonly(np.array([[_POS_WEIGHT, _VEL_WEIGHT], [_POS_WEIGHT, _VEL_WEIGHT],
                                           [0.0, 0.0], [_POS_WEIGHT, _VEL_WEIGHT]]))
_INITIAL_STD_WEIGHTS = _readonly(_PROCESS_STD_WEIGHTS * [2.0, 10.0])


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
        if not self.mahalanobis_gate > 0.0:  # also false for NaN
            raise ValidationError(
                f"mahalanobis_gate must be positive, got {self.mahalanobis_gate}")


@dataclass(frozen=True)
class KalmanState:
    """Box state (cx, cy, aspect, h) plus per-frame velocities, with covariance.

    Each box component is correlated only with its own velocity, so the
    covariance is four 2x2 (position, velocity) blocks in (cx, cy, aspect, h)
    order.  One track has mean (8,) and covariance (4, 2, 2); a stack of n
    tracks has mean (n, 8) and covariance (n, 4, 2, 2), and the Kalman
    functions below work row by row on either.
    """

    mean: np.ndarray        # shape (..., 8)
    covariance: np.ndarray  # shape (..., 4, 2, 2)


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


def kalman_initiate(bbox) -> KalmanState:
    """Initial state from an unassociated detection: zero velocity, wide covariance.

    ``bbox`` is one box or an (n, 4) array of boxes, giving n states.
    """
    measured = _bbox_to_xyah(bbox)
    mean = np.concatenate([measured, np.zeros_like(measured)], axis=-1)
    std = measured[..., 3:4, None] * _INITIAL_STD_WEIGHTS + _STATE_STD_CONSTANT
    return KalmanState(mean, (std ** 2)[..., None] * _EYE2)


def kalman_predict(state: KalmanState) -> KalmanState:
    """Advance one frame under constant velocity; grow covariance by process noise.

    Each block P becomes F P F' + Q with F = [[1, 1], [0, 1]].  Q is added
    whole: its zeros turn an off-diagonal -0.0 into +0.0, as the reference does.
    """
    if not (np.isfinite(state.mean).all() and np.isfinite(state.covariance).all()):
        raise ValidationError("non-finite Kalman state")
    std = state.mean[..., 3:4, None] * _PROCESS_STD_WEIGHTS + _STATE_STD_CONSTANT
    mean = state.mean.copy()
    mean[..., :4] += mean[..., 4:]
    covariance = state.covariance.copy()
    covariance[..., 0, :] += covariance[..., 1, :]
    covariance[..., :, 0] += covariance[..., :, 1]
    covariance += (std ** 2)[..., None] * _EYE2
    return KalmanState(mean, covariance)


def _innovation_variance(state: KalmanState, confidence) -> np.ndarray:
    """(..., 4) diagonal of the innovation covariance: position variance plus noise.

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
    return state.covariance[..., 0, 0] + noise


def kalman_update(state: KalmanState, bbox, confidence) -> KalmanState:
    """Standard linear correction against the measured box.

    For a stack of n states, ``bbox`` is (n, 4) and ``confidence`` (n,).
    Each block's gain k is its first column times 1 / d, d the innovation
    variance, which rounds as LAPACK's solve does; the block shrinks by (k d) k'.
    """
    confidence = np.asarray(confidence, dtype=float)
    in_range = (confidence >= 0.0) & (confidence <= 1.0)
    if not in_range.all():
        raise ValidationError(f"confidence {confidence[~in_range].flat[0]} outside [0, 1]")
    variance = _innovation_variance(state, confidence[..., None])
    if not (variance > 0.0).all():
        raise ValidationError("singular innovation covariance in Kalman update")
    gain = state.covariance[..., 0] * (1.0 / variance)[..., None]  # (..., 4, 2)
    correction = gain * (_bbox_to_xyah(bbox) - state.mean[..., :4])[..., None]
    mean = state.mean + correction.swapaxes(-1, -2).reshape(state.mean.shape)
    covariance = state.covariance - (gain * variance[..., None])[..., :, None] * gain[..., None, :]
    return KalmanState(mean, covariance)


def gating_distance(state: KalmanState, bboxes) -> np.ndarray:
    """Squared Mahalanobis distance of m measurements to the predicted box.

    Returns (m,) for one state and (n, m) for a stack of n states.  The
    diagonal innovation covariance is solved as a matrix: LAPACK rounds one
    measurement and several differently, and the reference rounds the same.
    """
    variance = _innovation_variance(state, 0.0)
    measured = _bbox_to_xyah(np.asarray(bboxes, dtype=float).reshape(-1, 4))
    diff = (measured - state.mean[..., None, :4]).swapaxes(-1, -2)  # (..., 4, m)
    product = diff * np.linalg.solve(variance[..., None] * _EYE4, diff)
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
    """Minimum-cost bipartite assignment; returns min(rows, cols) (row, col) pairs.

    Shortest augmenting paths on the rectangular matrix (Crouse 2016, "On
    implementing 2D rectangular assignment algorithms"), with the scan
    order and tie-breaks of ``scipy.optimize.linear_sum_assignment``, so an
    equal-cost optimum resolves to the same pairs.  A tall matrix is solved
    transposed; pairs come sorted by row.  ``+inf`` forbids a pair; a NaN
    or ``-inf`` entry, or no complete assignment of finite cost, raises
    ValueError.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return []
    if cost.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {cost.ndim}-D array")
    if not cost.min() > -math.inf:  # also false for NaN
        raise ValueError("matrix contains invalid numeric entries")
    if cost.shape[1] < cost.shape[0]:
        col4row = _solve_wide(cost.T.tolist())
        return sorted((row, col) for col, row in enumerate(col4row))
    return list(enumerate(_solve_wide(cost.tolist())))


def _solve_wide(cost: list[list[float]]) -> list[int]:
    col4row = _distinct_row_minima(cost)
    return _shortest_augmenting_paths(cost) if col4row is None else col4row


def _distinct_row_minima(cost: list[list[float]]) -> list[int] | None:
    """Each row's argmin, if every row has a unique finite minimum in its own column.

    That assignment is then the unique optimum, and it is also what the
    augmenting-path search returns: with every dual still 0 each row's
    reduced costs are its own costs, so each row in turn takes its
    minimum column while that column is still free.  None otherwise.
    """
    col4row = []
    for row in cost:
        lowest = min(row)
        if lowest == math.inf or row.count(lowest) != 1:
            return None
        col4row.append(row.index(lowest))
    return col4row if len(set(col4row)) == len(col4row) else None


def _shortest_augmenting_paths(cost: list[list[float]]) -> list[int]:
    """Column assigned to each row of a wide (rows <= columns) cost matrix.

    Rows are added one at a time.  Each addition runs a Dijkstra-like
    search over reduced costs from the new row to an unassigned column,
    then flips the path and updates the row and column duals.
    """
    n_rows, n_cols = len(cost), len(cost[0])
    inf = math.inf
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        shortest = [inf] * n_cols
        # scanned last to first, so a constant matrix gives the identity
        remaining = list(range(n_cols - 1, -1, -1))
        scanned_rows: list[int] = []
        scanned_cols: list[int] = []
        min_val = 0.0
        row = cur_row
        sink = -1
        while sink == -1:
            scanned_rows.append(row)
            row_cost = cost[row]
            u_row = u[row]
            lowest = inf
            index = -1
            for it, col in enumerate(remaining):
                reduced = min_val + row_cost[col] - u_row - v[col]
                best = shortest[col]
                if reduced < best:
                    path[col] = row
                    shortest[col] = best = reduced
                # on a tie prefer a column that ends the path
                if best < lowest or (best == lowest and row4col[col] == -1):
                    lowest = best
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            col = remaining[index]
            if row4col[col] == -1:
                sink = col
            else:
                row = row4col[col]
            scanned_cols.append(col)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for row in scanned_rows[1:]:
            u[row] += min_val - shortest[col4row[row]]
        for col in scanned_cols:
            v[col] -= min_val - shortest[col]

        col = sink
        while True:
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == cur_row:
                break
    return col4row


@dataclass
class Track:
    """One identity's lifecycle, matched observations and appearance.

    ``records`` holds each matched detection once, in frame order; its
    frame, box and confidence are the track's observation history, and its
    length is the track's hit count.  ``class_label`` and
    ``majority_gt_track_id`` count over ``records`` when read; a tie goes
    to the value seen first.  A track holds no Kalman state: ``Tracker``
    keeps its live tracks' states stacked.
    """

    track_id: int
    status: str = TENTATIVE
    frames_since_update: int = 0
    records: list[DetectionRecord] = field(default_factory=list)
    appearance: np.ndarray | None = None
    ever_confirmed: bool = False

    @property
    def class_label(self) -> str:
        return _most_common((r.class_label for r in self.records), "other")

    @property
    def majority_gt_track_id(self) -> int:
        return _most_common((r.gt_track_id for r in self.records if r.gt_track_id >= 0), -1)


def _most_common(values: Iterable, default):
    """The most frequent value, the first seen on a tie; ``default`` if none."""
    counts = Counter(values)
    return counts.most_common(1)[0][0] if counts else default


def _appearance_cost(appearances: np.ndarray, embeddings: np.ndarray,
                     metric: str) -> np.ndarray:
    """Cost of every (track appearance, detection embedding) pair."""
    if metric == "cosine":
        return 1.0 - appearances @ embeddings.T
    return np.linalg.norm(appearances[:, None, :] - embeddings[None, :, :], axis=-1)


def associate(tracks: Sequence[Track], detections: Sequence[DetectionRecord],
              states: KalmanState, boxes: np.ndarray, config: TrackerConfig,
              embeddings: Sequence[np.ndarray | None] | None = None,
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Two-stage matching of track indices to detection indices.

    ``states`` are the tracks' predicted Kalman states stacked row for row,
    and ``boxes`` the detections' boxes as one (m, 4) array.  Stage 1
    matches confirmed tracks with an appearance cost (when enabled and
    embeddings are present) or a combined overlap/Mahalanobis cost, gated
    by the Mahalanobis distance.  Stage 2 matches everything left over on
    plain overlap.  Both stages solve the assignment optimally and read
    their overlaps from one IoU matrix of every track against every
    detection.
    Returns (matches, unmatched_track_indices, unmatched_detection_indices).
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))

    n_dets = len(detections)
    overlap = iou_matrix(_xyah_to_bbox(states.mean), boxes)

    matches: list[tuple[int, int]] = []

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
            else:
                leftover_tracks.append(track_indices[row])
        for row in range(len(track_indices)):
            if row not in assigned_rows:
                leftover_tracks.append(track_indices[row])
        return leftover_tracks

    leftover: list[int] = []
    if confirmed:
        gate = config.mahalanobis_gate
        if others:
            maha = gating_distance(_take_rows(states, confirmed), boxes)
            confirmed_overlap = overlap.take(confirmed, axis=0)
        else:
            maha = gating_distance(states, boxes)
            confirmed_overlap = overlap
        cost = 0.5 * (1.0 - confirmed_overlap) + 0.5 * np.minimum(maha / gate, 1.0)
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

    def _free_dets():
        matched = {det_idx for _, det_idx in matches}
        return [det_idx for det_idx in range(n_dets) if det_idx not in matched]

    stage2_tracks = sorted(others + leftover)
    free_dets = _free_dets()
    if stage2_tracks and free_dets:
        value = 1.0 - overlap.take(stage2_tracks, axis=0).take(free_dets, axis=1)
        cost = np.where(value <= config.max_iou_dist, value, _GATE_COST)
        unmatched_tracks = _run_stage(stage2_tracks, free_dets, cost)
    else:
        unmatched_tracks = stage2_tracks

    unmatched_dets = _free_dets()
    matches.sort()
    unmatched_tracks.sort()
    return matches, unmatched_tracks, unmatched_dets


class Tracker:
    """Sequence-local tracking state; call step() once per frame in order.

    The result is the track list: ``tracks`` holds every track ever born,
    in birth order, and ``live_tracks`` those not yet deleted; step()
    returns nothing.  The tracker alone holds Kalman states: those of the
    live tracks, stacked one row per live track in ``live_tracks`` order,
    so each step predicts, gates and updates every track with one call
    each.  A deleted track's state is dropped with its row.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self._live: list[Track] = []  # self.tracks minus DELETED, same order
        self._states = KalmanState(np.empty((0, 8)), np.empty((0, 4, 2, 2)))
        self._next_id = 1
        self._last_frame: int | None = None

    @property
    def live_tracks(self) -> list[Track]:
        return list(self._live)

    def step(self, detections: Sequence[DetectionRecord], frame_index: int,
             embeddings: Sequence[np.ndarray | None] | None = None) -> None:
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
        boxes = np.array([det.bbox for det in detections], dtype=float).reshape(-1, 4)

        live = self._live
        states = self._states
        if live:
            try:
                states = kalman_predict(states)
            except ValidationError:
                finite = (np.isfinite(states.mean).all(axis=1)
                          & np.isfinite(states.covariance).all(axis=(1, 2, 3)))
                ids = [str(live[row].track_id) for row in np.flatnonzero(~finite)]
                raise ValidationError(
                    f"frame {frame_index}: non-finite Kalman state of "
                    f"{'track' if len(ids) == 1 else 'tracks'} {', '.join(ids)}") from None

        matches, unmatched_tracks, unmatched_dets = associate(
            live, detections, states, boxes, self.config, embeddings)

        if matches:
            rows = [track_idx for track_idx, _ in matches]
            cols = [det_idx for _, det_idx in matches]
            measured = boxes.take(cols, axis=0)
            confidences = [detections[det_idx].confidence for det_idx in cols]
            if len(rows) == len(live):  # every track matched, in row order
                states = kalman_update(states, measured, confidences)
            else:
                updated = kalman_update(_take_rows(states, rows), measured, confidences)
                states.mean[rows] = updated.mean
                states.covariance[rows] = updated.covariance

        alpha = self.config.appearance_ema_alpha
        for track_idx, det_idx in matches:
            track = live[track_idx]
            track.frames_since_update = 0
            track.records.append(detections[det_idx])
            embedding = embeddings[det_idx] if embeddings is not None else None
            if embedding is not None:
                if track.appearance is None:
                    track.appearance = embedding
                else:
                    blended = alpha * track.appearance + (1.0 - alpha) * embedding
                    norm = np.linalg.norm(blended)
                    if norm > 0.0:
                        track.appearance = blended / norm
            if track.status == TENTATIVE and len(track.records) >= self.config.n_init:
                track.status = CONFIRMED
                track.ever_confirmed = True

        deleted = False
        for track_idx in unmatched_tracks:
            track = live[track_idx]
            track.frames_since_update += 1
            # a miss before confirmation kills the candidate immediately
            if track.status == TENTATIVE or track.frames_since_update > self.config.max_age:
                track.status = DELETED
                deleted = True
        if deleted:
            keep = [row for row, track in enumerate(live) if track.status != DELETED]
            live = [live[row] for row in keep]
            states = _take_rows(states, keep)

        if unmatched_dets:
            initial = kalman_initiate(boxes.take(unmatched_dets, axis=0))
            for det_idx in unmatched_dets:
                embedding = embeddings[det_idx] if embeddings is not None else None
                track = Track(track_id=self._next_id, records=[detections[det_idx]],
                              appearance=embedding)
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

    def run(self, records: Iterable[DetectionRecord], n_frames: int | None = None,
            embeddings: Mapping[tuple[int, int], np.ndarray] | None = None,
            ) -> list[Track]:
        """Track a whole detection stream and return ``tracks``.

        Empty frames still age the tracks.  A record of frame ``n_frames``
        or later raises ValidationError.
        """
        by_frame = group_by_frame(records)
        if n_frames is None:
            n_frames = max(by_frame, default=-1) + 1
        past = [frame for frame in by_frame if frame >= n_frames]
        if past:
            raise ValidationError(
                f"detection of frame {min(past)} at or past n_frames {n_frames}")
        for frame in range(n_frames):
            dets = by_frame.get(frame, [])
            frame_embeddings = None
            if embeddings is not None:
                frame_embeddings = [embeddings.get((frame, j)) for j in range(len(dets))]
            self.step(dets, frame, frame_embeddings)
        return self.tracks


def tracks_from_ground_truth(records: Iterable[DetectionRecord]) -> list[Track]:
    """Build reference tracks directly from annotated identities."""
    grouped: dict[int, list[DetectionRecord]] = {}
    for record in records:
        if record.is_dontcare or record.gt_track_id < 0:
            continue
        grouped.setdefault(record.gt_track_id, []).append(record)
    return [Track(track_id=gt_id, status=CONFIRMED,
                  records=sorted(grouped[gt_id], key=lambda r: r.frame_index),
                  ever_confirmed=True)
            for gt_id in sorted(grouped)]
