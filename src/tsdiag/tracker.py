"""Tracking-by-detection with a constant-velocity Kalman filter.

Per-frame detections are linked into identity-stable tracks: predicted box
states are matched to detections in two stages (appearance or combined
motion cost for confirmed tracks, then plain overlap for the rest), matched
states are corrected with measurement noise scaled down for confident
detections, and track lifecycles follow the usual tentative / confirmed /
deleted scheme.

The tracker runs on plain Python floats: with a handful of live tracks
the per-call cost of array operations outweighs their arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress, repeat
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .config import TrackerConfig
from .errors import ValidationError
from .kitti import DetectionRecord, _unit_vector, group_by_frame

__all__ = [
    "KalmanState",
    "Track",
    "Tracker",
    "kalman_initiate",
    "kalman_predict",
    "kalman_update",
    "gating_distance",
    "iou",
    "solve_assignment",
    "associate",
]

_POS_WEIGHT = 1.0 / 20.0
_VEL_WEIGHT = 1.0 / 160.0
_GATE_COST = 1e5  # sentinel for forbidden assignment edges

# Noise standard deviations are h * weight + constant, h being the box
# height: every component scales with h except the aspect ratio, whose
# standard deviations are constants.  A new track's state starts twice as
# uncertain in position and ten times as uncertain in velocity as one
# predict adds.
_INITIAL_POS_WEIGHT = _POS_WEIGHT * 2.0
_INITIAL_VEL_WEIGHT = _VEL_WEIGHT * 10.0
_ASPECT_POS_STD = 1e-2
_ASPECT_VEL_STD = 1e-5
_ASPECT_MEASUREMENT_STD = 1e-1
# (h * 0.0 + std) squared, for every finite h: predict takes finite states only
_ASPECT_POS_VAR = _ASPECT_POS_STD * _ASPECT_POS_STD
_ASPECT_VEL_VAR = _ASPECT_VEL_STD * _ASPECT_VEL_STD


class KalmanState(NamedTuple):
    """One track's box state (cx, cy, aspect, h) plus per-frame velocities.

    ``mean`` is 8 floats: the box, then its velocities.  Each box component
    is correlated only with its own velocity, so ``covariance`` is four
    2x2 (position, velocity) blocks in (cx, cy, aspect, h) order, 16 floats
    with block k at ``covariance[4 * k:4 * k + 4]`` as
    (pos-pos, pos-vel, vel-pos, vel-vel).  The kernels below each take
    one state and never modify it.
    """

    mean: list[float]
    covariance: list[float]


def _xyah(bbox) -> tuple[float, float, float, float]:
    """A (left, top, right, bottom) box as the measurement (cx, cy, aspect, h)."""
    left, top, right, bottom = bbox
    width = right - left
    height = bottom - top
    return (left + width / 2.0, top + height / 2.0, width / height, height)


def _box(mean) -> tuple[float, float, float, float]:
    """The (left, top, right, bottom) box of a state mean."""
    cx, cy, aspect, height = mean[0], mean[1], mean[2], mean[3]
    half_width = aspect * height / 2.0
    half_height = height / 2.0
    return (cx - half_width, cy - half_height, cx + half_width, cy + half_height)


def _is_finite(state: KalmanState) -> bool:
    return all(map(math.isfinite, state.mean)) and all(map(math.isfinite, state.covariance))


def kalman_initiate(measurement) -> KalmanState:
    """Initial state from an unassociated measurement: zero velocity, wide covariance."""
    cx, cy, aspect, h = measurement
    pos = h * _INITIAL_POS_WEIGHT
    vel = h * _INITIAL_VEL_WEIGHT
    pos_var, vel_var = pos * pos, vel * vel
    aspect_pos = h * 0.0 + _ASPECT_POS_STD
    aspect_vel = h * 0.0 + _ASPECT_VEL_STD
    return KalmanState(
        [cx, cy, aspect, h, 0.0, 0.0, 0.0, 0.0],
        [pos_var, 0.0, 0.0, vel_var,
         pos_var, 0.0, 0.0, vel_var,
         aspect_pos * aspect_pos, 0.0, 0.0, aspect_vel * aspect_vel,
         pos_var, 0.0, 0.0, vel_var])


def kalman_predict(state: KalmanState) -> KalmanState:
    """Advance one frame under constant velocity; grow covariance by process noise.

    Each block P becomes F P F' + Q with F = [[1, 1], [0, 1]], summed in
    the order that matches the dense 8x8 product bit for bit.  Q's zeros
    are added too: they turn an off-diagonal -0.0 into +0.0, as the dense
    sum does.
    """
    if not _is_finite(state):
        raise ValidationError("non-finite Kalman state")
    (x, y, a, h, vx, vy, va, vh), covariance = state
    pos = h * _POS_WEIGHT
    vel = h * _VEL_WEIGHT
    pos_var, vel_var = pos * pos, vel * vel
    (x00, x01, x10, x11, y00, y01, y10, y11,
     a00, a01, a10, a11, h00, h01, h10, h11) = covariance
    x01 += x11
    y01 += y11
    a01 += a11
    h01 += h11
    return KalmanState(
        [x + vx, y + vy, a + va, h + vh, vx, vy, va, vh],
        [x00 + x10 + x01 + pos_var, x01 + 0.0, x10 + x11 + 0.0, x11 + vel_var,
         y00 + y10 + y01 + pos_var, y01 + 0.0, y10 + y11 + 0.0, y11 + vel_var,
         a00 + a10 + a01 + _ASPECT_POS_VAR, a01 + 0.0, a10 + a11 + 0.0, a11 + _ASPECT_VEL_VAR,
         h00 + h10 + h01 + pos_var, h01 + 0.0, h10 + h11 + 0.0, h11 + vel_var])


def _noise_floor(h: float) -> float:
    """Squared floor of the measurement noise, which keeps it invertible.

    Squared with ``** 2``, which calls the C library's pow like the
    reference; ``x * x`` differs from that in the last bit for about one
    value in a thousand.  Where pow overflows Python raises, not inf.
    """
    try:
        return (1e-6 * max(h, 1.0)) ** 2
    except OverflowError:
        return math.inf


def _innovation_variance(state: KalmanState, confidence: float) -> list[float]:
    """Diagonal of the innovation covariance: position variance plus noise.

    Measurement noise shrinks with detection confidence and is floored.
    A NaN noise term stays NaN: ``max`` keeps its first argument when the
    two do not compare.
    """
    h = state.mean[3]
    cov = state.covariance
    scale = 1.0 - confidence
    floor = _noise_floor(h)
    pos = h * _POS_WEIGHT
    pos_noise = max(scale * (pos * pos), floor)
    aspect = h * 0.0 + _ASPECT_MEASUREMENT_STD
    aspect_noise = max(scale * (aspect * aspect), floor)
    return [cov[0] + pos_noise, cov[4] + pos_noise, cov[8] + aspect_noise, cov[12] + pos_noise]


def kalman_update(state: KalmanState, measurement, confidence: float) -> KalmanState:
    """Standard linear correction of a state against its measurement.

    Each block's gain k is its first column times 1 / d, d the innovation
    variance, which rounds as a linear solve does; the block shrinks by
    (k d) k'.
    """
    if not 0.0 <= confidence <= 1.0:
        raise ValidationError(f"confidence {float(confidence)} outside [0, 1]")
    variance = _innovation_variance(state, confidence)
    if not all(v > 0.0 for v in variance):
        raise ValidationError("singular innovation covariance in Kalman update")
    mean, cov = state
    new_mean = list(mean)
    covariance = []
    for k, v in enumerate(variance):
        p00, p01, p10, p11 = cov[4 * k:4 * k + 4]
        reciprocal = 1.0 / v
        k0, k1 = p00 * reciprocal, p10 * reciprocal
        innovation = measurement[k] - mean[k]
        new_mean[k] = mean[k] + k0 * innovation
        new_mean[k + 4] = mean[k + 4] + k1 * innovation
        d0, d1 = k0 * v, k1 * v
        covariance += (p00 - d0 * k0, p01 - d0 * k1, p10 - d1 * k0, p11 - d1 * k1)
    return KalmanState(new_mean, covariance)


def gating_distance(state: KalmanState, measurements) -> list[float]:
    """Squared Mahalanobis distance of each measurement to the predicted box.

    The innovation covariance is diagonal, and each term rounds as a
    linear solve of it does: one measurement is divided by the variance,
    several are multiplied by its reciprocal.  A variance that is not
    positive raises ValidationError, as in kalman_update.
    """
    v0, v1, v2, v3 = _innovation_variance(state, 0.0)
    if not (v0 > 0.0 and v1 > 0.0 and v2 > 0.0 and v3 > 0.0):
        raise ValidationError("singular innovation covariance in gating")
    m0, m1, m2, m3 = state.mean[:4]
    row = []
    if len(measurements) == 1:
        for z0, z1, z2, z3 in measurements:
            d0, d1, d2, d3 = z0 - m0, z1 - m1, z2 - m2, z3 - m3
            row.append(d0 * (d0 / v0) + d1 * (d1 / v1) + d2 * (d2 / v2) + d3 * (d3 / v3))
    else:
        r0, r1, r2, r3 = 1.0 / v0, 1.0 / v1, 1.0 / v2, 1.0 / v3
        for z0, z1, z2, z3 in measurements:
            d0, d1, d2, d3 = z0 - m0, z1 - m1, z2 - m2, z3 - m3
            row.append(d0 * (d0 * r0) + d1 * (d1 * r1) + d2 * (d2 * r2) + d3 * (d3 * r3))
    return row


def iou(a, b) -> float:
    """Intersection-over-union of two (left, top, right, bottom) boxes.

    Disjoint, touching, empty and inverted boxes give 0.0, and so does a
    NaN coordinate: it makes the union NaN.  Two boxes that overlap both
    have positive width and height, so their areas need no clamp at 0.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    # min and max as conditionals, which cost a fraction of the builtin calls
    ix = (b2 if b2 < a2 else a2) - (b0 if b0 > a0 else a0)
    iy = (b3 if b3 < a3 else a3) - (b1 if b1 > a1 else a1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = (a2 - a0) * (a3 - a1) + (b2 - b0) * (b3 - b1) - inter
    return inter / union if union > 0.0 else 0.0


def solve_assignment(cost: Sequence[Sequence[float]]) -> list[tuple[int, int]]:
    """Minimum-cost bipartite assignment; returns min(rows, cols) (row, col) pairs.

    ``cost`` is a list of equal-length rows.  Shortest augmenting paths on
    the rectangular matrix (Crouse 2016, "On implementing 2D rectangular
    assignment algorithms"), with the scan order and tie-breaks of
    ``scipy.optimize.linear_sum_assignment``, so an equal-cost optimum
    resolves to the same pairs.  A tall matrix is solved transposed; pairs
    come sorted by row.  ``+inf`` forbids a pair; a NaN or ``-inf`` entry,
    or no complete assignment of finite cost, raises ValueError.
    """
    rows = [list(row) for row in cost]
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("cost matrix rows differ in length")
    if width == 0:
        return []
    if not all(value > -math.inf for row in rows for value in row):  # also false for NaN
        raise ValueError("matrix contains invalid numeric entries")
    if width < len(rows):
        col4row = _shortest_augmenting_paths(list(zip(*rows)))
        return sorted((row, col) for col, row in enumerate(col4row))
    return list(enumerate(_shortest_augmenting_paths(rows)))


def _shortest_augmenting_paths(cost: Sequence[Sequence[float]]) -> list[int]:
    """Column assigned to each row of a wide (rows <= columns) cost matrix.

    Rows are added one at a time.  Each addition runs a Dijkstra-like
    search over reduced costs from the new row to an unassigned column,
    then flips the path and updates the row and column duals.

    Each search's first step scans the new row alone, on builtins: its
    reduced costs are its own costs until the loop first runs, then
    ``c - v[col]``.  If a free column holds their minimum, the first one
    ends the search, as in the loop, which on a tie prefers a column that
    ends the path; else (an all-``+inf`` row, or a taken minimum) the loop runs.
    """
    n_cols = len(cost[0])
    inf = math.inf
    u: list[float] = []  # the row duals and col4row grow by one row per search
    col4row: list[int] = []
    row4col = [-1] * n_cols
    v: list[float] = []  # with path, allocated when the loop first runs
    for cur_row in range(len(cost)):
        first_scan = [c - d for c, d in zip(cost[cur_row], v)] if v else cost[cur_row]
        lowest = min(first_scan)
        col = first_scan.index(lowest)
        while row4col[col] != -1 and lowest in first_scan[col + 1:]:
            col = first_scan.index(lowest, col + 1)
        if lowest < inf and row4col[col] == -1:
            u.append(0.0 + lowest)  # the loop's 0.0 + c: -0.0 is stored as 0.0
            col4row.append(col)
            row4col[col] = cur_row
            continue
        u.append(0.0)
        col4row.append(-1)
        if not v:
            v, path = [0.0] * n_cols, [-1] * n_cols
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


class Track:
    """One identity's lifecycle, matched observations and appearance.

    ``records`` holds each matched detection once, in frame order; its
    frame, box and confidence are the track's observation history, and its
    length is the track's hit count.  ``class_label`` counts over
    ``records`` when read; a tie goes to the label seen first.
    ``confirmed`` is set at the ``n_init``-th record and never cleared.
    ``appearance`` blends the vectors of its detections, and stays None
    unless the tracker uses appearance.  ``state`` is its Kalman state,
    predicted and corrected at each step while the track lives and kept
    as it was when the track is deleted.
    """

    __slots__ = ("track_id", "confirmed", "frames_since_update", "records", "appearance", "state")

    def __init__(self, track_id: int, confirmed: bool = False, frames_since_update: int = 0,
                 records: list[DetectionRecord] | None = None,
                 appearance: tuple[float, ...] | None = None, state: KalmanState | None = None):
        self.track_id = track_id
        self.confirmed = confirmed
        self.frames_since_update = frames_since_update
        self.records = [] if records is None else records
        self.appearance = appearance
        self.state = state

    @property
    def class_label(self) -> str:
        counts = Counter(r.class_label for r in self.records)
        return counts.most_common(1)[0][0] if counts else "other"


def _appearance_cost(appearance: tuple[float, ...], embedding: tuple[float, ...]) -> float:
    """Cosine distance of a track appearance to a detection vector, both unit vectors."""
    return 1.0 - sum(map(mul, appearance, embedding))


def _blend_appearance(appearance: tuple[float, ...], embedding: tuple[float, ...],
                      alpha: float) -> tuple[float, ...]:
    """Exponential moving average of unit vectors, renormalized; kept if it vanishes."""
    beta = 1.0 - alpha
    blended = _unit_vector([alpha * a + beta * e for a, e in zip(appearance, embedding)])
    return appearance if blended is None else blended


def _each_track(kernel, tracks: Sequence[Track], *columns) -> list:
    """``kernel(track.state, *row)`` for each track and its row of ``columns``.

    When a call raises ValidationError, each track is tried on its own,
    and one error names every track whose call raised the first failing
    track's message: "<message> of track 2" or "<message> of tracks 2, 4".
    """
    try:
        return list(map(kernel, [track.state for track in tracks], *columns))
    except ValidationError:
        pass  # run again, track by track, to name every track at fault
    failed: dict[str, list[str]] = {}
    for track, *row in zip(tracks, *columns):
        try:
            kernel(track.state, *row)
        except ValidationError as exc:
            failed.setdefault(str(exc), []).append(str(track.track_id))
    message, ids = next(iter(failed.items()))
    raise ValidationError(
        f"{message} of {'track' if len(ids) == 1 else 'tracks'} {', '.join(ids)}")


def associate(tracks: Sequence[Track], detections: Sequence[DetectionRecord],
              measurements, config: TrackerConfig,
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Two-stage matching of track indices to detection indices.

    Each track's ``state`` is its predicted Kalman state, and
    ``measurements`` are the detections' boxes as (cx, cy, aspect, h).
    Stage 1 matches confirmed tracks with an appearance cost (when
    enabled and both the track and the detection have a vector) or a
    combined overlap/Mahalanobis cost, gated by the Mahalanobis distance;
    a gated pair costs the gate sentinel whatever its overlap and its
    appearance, so neither is computed.  Stage 2 matches everything left
    over on plain overlap.  Both stages solve the assignment optimally.
    Returns (matches, unmatched_track_indices, unmatched_detection_indices);
    the unmatched indices are those no match uses, in order.  A gating
    failure raises ValidationError naming the tracks at fault.
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))

    n_dets = len(detections)
    boxes = [det.bbox for det in detections]
    predicted = [_box(track.state.mean) for track in tracks]

    matches: list[tuple[int, int]] = []

    def _run_stage(track_indices, det_indices, cost):
        # keep the assigned pairs that pass the gate
        matches.extend((track_indices[row], det_indices[col])
                       for row, col in solve_assignment(cost) if cost[row][col] < _GATE_COST)

    def _unmatched():
        # the track and detection indices that no match uses, in order
        free_tracks = [True] * len(tracks)
        free_dets = [True] * n_dets
        for track_idx, det_idx in matches:
            free_tracks[track_idx] = free_dets[det_idx] = False
        return (list(compress(range(len(tracks)), free_tracks)),
                list(compress(range(n_dets), free_dets)))

    confirmed = [i for i, t in enumerate(tracks) if t.confirmed]
    if confirmed:
        gate = config.mahalanobis_gate
        max_dist = config.max_dist
        vectors = [det.embedding for det in detections]
        cost = []
        distances = _each_track(gating_distance, [tracks[i] for i in confirmed],
                                repeat(measurements))
        for track_idx, row_distances in zip(confirmed, distances):
            box = predicted[track_idx]
            appearance = tracks[track_idx].appearance if config.use_appearance else None
            line = []
            for col, distance in enumerate(row_distances):
                if distance > gate:
                    line.append(_GATE_COST)
                elif appearance is not None and vectors[col] is not None:
                    value = _appearance_cost(appearance, vectors[col])
                    line.append(_GATE_COST if value > max_dist else value)
                else:
                    line.append(0.5 * (1.0 - iou(box, boxes[col]))
                                + 0.5 * min(distance / gate, 1.0))
            cost.append(line)
        _run_stage(confirmed, range(n_dets), cost)

    unmatched_tracks, unmatched_dets = _unmatched()
    if unmatched_tracks and unmatched_dets:
        max_iou_dist = config.max_iou_dist
        cost = []
        for track_idx in unmatched_tracks:
            box = predicted[track_idx]
            line = []
            for det_idx in unmatched_dets:
                value = 1.0 - iou(box, boxes[det_idx])
                line.append(value if value <= max_iou_dist else _GATE_COST)
            cost.append(line)
        _run_stage(unmatched_tracks, unmatched_dets, cost)
        unmatched_tracks, unmatched_dets = _unmatched()

    matches.sort()
    return matches, unmatched_tracks, unmatched_dets


class Tracker:
    """Sequence-local tracking state; call step() once per frame in order.

    The result is the track list: ``tracks`` holds every track ever born,
    in birth order, so track ids run 1, 2, ... along it, and
    ``live_tracks`` those not yet deleted; step() returns nothing.  Each
    step predicts every live track's ``state`` and corrects each matched
    one; a kernel's failure raises ValidationError naming the frame and
    the tracks at fault.  A track is deleted, leaving ``live_tracks``, at
    its first miss while unconfirmed and at miss ``max_age + 1`` once confirmed.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self._live: list[Track] = []  # the tracks not yet deleted, in birth order
        self._last_frame: int | None = None

    @property
    def live_tracks(self) -> list[Track]:
        return list(self._live)

    def step(self, detections: Sequence[DetectionRecord], frame_index: int) -> None:
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
        measurements = [_xyah(det.bbox) for det in detections]

        live = self._live
        try:
            for track, state in zip(live, _each_track(kalman_predict, live)):
                track.state = state
            matches, unmatched_tracks, unmatched_dets = associate(
                live, detections, measurements, self.config)
            matched = [live[track_idx] for track_idx, _ in matches]
            updated = _each_track(kalman_update, matched,
                                  [measurements[det_idx] for _, det_idx in matches],
                                  [detections[det_idx].confidence for _, det_idx in matches])
        except ValidationError as exc:
            raise ValidationError(f"frame {frame_index}: {exc}") from None
        for track, state, (_, det_idx) in zip(matched, updated, matches):
            track.state = state
            self._take(track, detections[det_idx])

        if unmatched_tracks:
            for track_idx in unmatched_tracks:
                live[track_idx].frames_since_update += 1
            # a miss before confirmation kills the candidate immediately
            max_age = self.config.max_age
            live = [track for track in live
                    if track.frames_since_update <= (max_age if track.confirmed else 0)]

        for det_idx in unmatched_dets:
            track = Track(track_id=len(self.tracks) + 1,
                          state=kalman_initiate(measurements[det_idx]))
            self._take(track, detections[det_idx])
            self.tracks.append(track)
            live.append(track)
        self._live = live

    def _take(self, track: Track, det: DetectionRecord) -> None:
        """One detection taken by a track, matched or born from it.

        With appearance off no vector is kept: nothing would read it.  A
        track is confirmed at its n_init-th record.
        """
        track.frames_since_update = 0
        track.records.append(det)
        if self.config.use_appearance and det.embedding is not None:
            if track.appearance is None:
                track.appearance = det.embedding
            else:
                track.appearance = _blend_appearance(track.appearance, det.embedding,
                                                     self.config.appearance_ema_alpha)
        if len(track.records) == self.config.n_init:
            track.confirmed = True

    def run(self, records: Iterable[DetectionRecord],
            n_frames: int | None = None) -> list[Track]:
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
            self.step(by_frame.get(frame, []), frame)
        return self.tracks
