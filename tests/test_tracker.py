import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.assignment_oracle import brute_force_min_cost
from oracles.iou_oracle import iou_matrix
from oracles import tracker_oracle as reference
from oracles.tracker_oracle import OracleTracker
from tsdiag.config import CHI2_95_4DOF
from tsdiag.errors import ParseError, ValidationError
from tsdiag.kitti import LabelRecord, parse_detections_file
from tsdiag.tracker import (
    CONFIRMED,
    DELETED,
    TENTATIVE,
    KalmanState,
    Track,
    Tracker,
    TrackerConfig,
    associate,
    gating_distance,
    iou,
    kalman_initiate,
    kalman_predict,
    kalman_update,
    solve_assignment,
)
from tsdiag.tracker import _appearance_cost, _distinct_row_minima, _xyah


def det(frame, bbox, conf=1.0, cls="car", gt=-1, embedding=None):
    # a label, so that a test can tell which object a track followed; the
    # tracker reads only the fields of a detection
    return LabelRecord(frame_index=frame, class_label=cls, bbox=bbox,
                       confidence=conf, gt_track_id=gt, embedding=embedding)


def box_at(cx, cy, w=40.0, h=50.0):
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


# np.eye(8) as four 2x2 blocks
_IDENTITY_BLOCKS = [1.0, 0.0, 0.0, 1.0] * 4


def _dense(covariance):
    """16 block floats as an (8, 8) matrix, every off-block entry +0.0."""
    dense = np.zeros((8, 8))
    for component in range(4):
        for a in range(2):
            for b in range(2):
                dense[component + 4 * a, component + 4 * b] = covariance[4 * component + 2 * a + b]
    return dense


def _measurements(boxes):
    return [_xyah(tuple(box)) for box in np.asarray(boxes, dtype=float).reshape(-1, 4).tolist()]


def _initiate(bbox):
    return kalman_initiate(_measurements([bbox]))[0]


def _predict(state):
    return kalman_predict([state])[0]


def _update(state, bbox, confidence):
    return kalman_update([state], _measurements([bbox]), [confidence])[0]


def _gate(state, bboxes):
    return gating_distance([state], _measurements(bboxes))[0]


def _live_states(tracker):
    """(track, mean, covariance) per live track, read from the tracker's states."""
    live = tracker.live_tracks
    assert len(tracker._states) == len(live)
    assert all(len(s.mean) == 8 and len(s.covariance) == 16 for s in tracker._states)
    return [(track, state.mean, state.covariance)
            for track, state in zip(live, tracker._states)]


def _summary(tracker):
    """Everything the tracker has produced so far, as comparable values."""
    tracks = [(t.track_id, t.status, t.frames_since_update, t.ever_confirmed,
               t.class_label, t.records)
              for t in tracker.tracks]
    states = [(t.track_id, list(mean), list(covariance))
              for t, mean, covariance in _live_states(tracker)]
    return tracks, states


def _associate(tracks, states, dets, config):
    return associate(tracks, dets, states, _measurements([d.bbox for d in dets]), config)


def _summaries_per_frame(frames):
    """A new default tracker's summary after each frame of the stream."""
    tracker = Tracker()
    per_frame = []
    for frame, dets in enumerate(frames):
        tracker.step(dets, frame)
        per_frame.append(_summary(tracker))
    return per_frame


class TestKalman:
    def test_zero_velocity_position_fixed_covariance_grows(self):
        state = _initiate((80.0, 75.0, 120.0, 125.0))
        predicted = _predict(state)
        assert np.allclose(predicted.mean[:4], state.mean[:4])
        assert np.all(np.diag(_dense(predicted.covariance)) > np.diag(_dense(state.covariance)))

    def test_linear_propagation(self):
        state = KalmanState([100.0, 100.0, 2.0, 50.0, 5.0, 0.0, 0.0, 0.0], _IDENTITY_BLOCKS)
        predicted = _predict(state)
        assert np.allclose(predicted.mean,
                           [105.0, 100.0, 2.0, 50.0, 5.0, 0.0, 0.0, 0.0])

    def test_two_predicts_double_the_displacement(self):
        state = KalmanState([100.0, 100.0, 2.0, 50.0, 5.0, 0.0, 0.0, 0.0], _IDENTITY_BLOCKS)
        twice = _predict(_predict(state))
        assert twice.mean[0] == pytest.approx(110.0)

    def test_update_with_predicted_measurement_keeps_mean(self):
        state = _predict(_initiate((10.0, 10.0, 50.0, 60.0)))
        bbox = (state.mean[0] - state.mean[2] * state.mean[3] / 2,
                state.mean[1] - state.mean[3] / 2,
                state.mean[0] + state.mean[2] * state.mean[3] / 2,
                state.mean[1] + state.mean[3] / 2)
        updated = _update(state, bbox, confidence=0.8)
        assert np.allclose(updated.mean[:4], state.mean[:4], atol=1e-9)

    def test_confident_measurement_pulls_harder(self):
        base = _predict(_initiate((10.0, 10.0, 50.0, 60.0)))
        shifted = (18.0, 12.0, 58.0, 62.0)
        low = _update(base, shifted, confidence=0.0)
        high = _update(base, shifted, confidence=0.99)
        target = np.array([38.0, 37.0])  # measured center
        base_center = np.array(base.mean[:2])
        assert (np.linalg.norm(np.array(high.mean[:2]) - target)
                < np.linalg.norm(np.array(low.mean[:2]) - target))
        assert np.linalg.norm(np.array(low.mean[:2]) - base_center) > 0.0

    def test_update_contracts_measured_covariance(self):
        state = _predict(_initiate((10.0, 10.0, 50.0, 60.0)))
        updated = _update(state, (11.0, 11.0, 51.0, 61.0), confidence=0.7)
        prior_diag = np.diag(_dense(state.covariance))[:4]
        post_diag = np.diag(_dense(updated.covariance))[:4]
        assert np.all(post_diag <= prior_diag + 1e-12)

    def test_non_finite_state_rejected(self):
        state = KalmanState([np.nan] * 8, _IDENTITY_BLOCKS)
        with pytest.raises(ValidationError):
            kalman_predict([state])

    def test_singular_innovation_rejected(self):
        # covariance engineered to cancel the measurement noise exactly,
        # leaving a zero innovation covariance
        state = _initiate((0.0, 0.0, 10.0, 10.0))
        h = state.mean[3]
        noise = [(h / 20.0) ** 2, (h / 20.0) ** 2, 1e-2, (h / 20.0) ** 2]
        cov = [0.0] * 16
        for component in range(4):
            cov[4 * component] = -noise[component]
        with pytest.raises(ValidationError):
            _update(KalmanState(state.mean, cov), (0.0, 0.0, 10.0, 10.0), 0.0)

    def test_mean_constant_when_measurements_match_predictions(self):
        state = _initiate((10.0, 10.0, 50.0, 60.0))
        for _ in range(20):
            state = _predict(state)
            bbox = (state.mean[0] - state.mean[2] * state.mean[3] / 2,
                    state.mean[1] - state.mean[3] / 2,
                    state.mean[0] + state.mean[2] * state.mean[3] / 2,
                    state.mean[1] + state.mean[3] / 2)
            state = _update(state, bbox, confidence=0.9)
        # bbox (10, 10, 50, 60): center (30, 35), aspect 40/50, height 50
        assert np.allclose(state.mean[:4], [30.0, 35.0, 0.8, 50.0], atol=1e-6)


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        assert iou((0, 0, 2, 2), (1, 0, 3, 2)) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_degenerate_box_is_zero(self):
        assert iou((0, 0, 0, 0), (0, 0, 2, 2)) == 0.0

    @given(st.floats(-100, 100), st.floats(-100, 100),
           st.floats(0.1, 50), st.floats(0.1, 50),
           st.floats(-100, 100), st.floats(-100, 100),
           st.floats(0.1, 50), st.floats(0.1, 50))
    @settings(max_examples=80)
    def test_bounded_and_symmetric(self, x1, y1, w1, h1, x2, y2, w2, h2):
        a = (x1, y1, x1 + w1, y1 + h1)
        b = (x2, y2, x2 + w2, y2 + h2)
        value = iou(a, b)
        assert 0.0 <= value <= 1.0
        assert iou(b, a) == pytest.approx(value, abs=1e-12)


def _random_boxes(rng, n):
    left, top = rng.uniform(0.0, 1200.0, n), rng.uniform(0.0, 300.0, n)
    width, height = rng.uniform(5.0, 300.0, n), rng.uniform(5.0, 200.0, n)
    return np.stack([left, top, left + width, top + height], axis=-1)


def _random_states(rng, n):
    # realistic states: initiated, then moved and corrected a few times
    boxes = _random_boxes(rng, n)
    states = kalman_initiate(_measurements(boxes))
    for _ in range(rng.randint(0, 4)):
        states = kalman_predict(states)
        boxes = boxes + rng.uniform(-3.0, 3.0, size=(n, 1))
        states = kalman_update(states, _measurements(boxes), rng.uniform(0.0, 1.0, n).tolist())
    return states


def _reference_row(states, i):
    """State i as the reference's state, with its full covariance."""
    return reference.DenseState(np.array(states[i].mean), _dense(states[i].covariance))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_state(a, b):
    return _same_bits(a.mean, b.mean) and _same_bits(a.covariance, b.covariance)


stack_sizes = st.integers(0, 6)
seeds = st.integers(0, 2**31 - 1)
confidence_values = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


class TestStackedKalman:
    """Calls on n states equal the calls on each state alone, bit for bit."""

    @given(stack_sizes, seeds)
    @settings(max_examples=100, deadline=None)
    def test_initiate_and_predict_match_rows(self, n, seed):
        rng = np.random.RandomState(seed)
        measurements = _measurements(_random_boxes(rng, n))
        initial = kalman_initiate(measurements)
        states = _random_states(rng, n)
        predicted = kalman_predict(states)
        assert len(initial) == len(predicted) == n
        for i in range(n):
            assert _same_state(initial[i], kalman_initiate([measurements[i]])[0])
            assert _same_state(predicted[i], kalman_predict([states[i]])[0])

    @given(stack_sizes, st.integers(1, 6), seeds)
    @settings(max_examples=100, deadline=None)
    def test_gating_matches_rows(self, n, m, seed):
        rng = np.random.RandomState(seed)
        states = kalman_predict(_random_states(rng, n))
        measurements = _measurements(_random_boxes(rng, m))
        distances = gating_distance(states, measurements)
        assert [len(row) for row in distances] == [m] * n
        for i in range(n):
            assert _same_bits(distances[i], gating_distance([states[i]], measurements)[0])

    @given(st.data(), stack_sizes, seeds)
    @settings(max_examples=100, deadline=None)
    def test_update_matches_rows(self, data, n, seed):
        rng = np.random.RandomState(seed)
        states = kalman_predict(_random_states(rng, n))
        measurements = _measurements(_random_boxes(rng, n))
        confidences = data.draw(st.lists(confidence_values, min_size=n, max_size=n))
        updated = kalman_update(states, measurements, confidences)
        assert len(updated) == n
        for i in range(n):
            single = kalman_update([states[i]], [measurements[i]], [confidences[i]])[0]
            assert _same_state(updated[i], single)

    @given(stack_sizes, seeds)
    @settings(max_examples=50, deadline=None)
    def test_non_finite_row_rejected(self, n, seed):
        rng = np.random.RandomState(seed)
        states = _random_states(rng, n + 1)
        row = rng.randint(n + 1)
        mean = list(states[row].mean)
        mean[rng.randint(8)] = float(rng.choice([np.nan, np.inf]))
        states[row] = KalmanState(mean, states[row].covariance)
        with pytest.raises(ValidationError, match="non-finite"):
            kalman_predict(states)

        # through the tracker, the error names the frame and the bad tracks
        tracker = Tracker(TrackerConfig())
        tracker.step([det(0, box_at(100.0 * k, 100.0)) for k in range(n + 1)], 0)
        bad = sorted(set(rng.randint(n + 1, size=rng.randint(1, 3)).tolist()))
        for row in bad:
            if rng.randint(2):
                tracker._states[row].mean[rng.randint(8)] = float(rng.choice([np.nan, np.inf]))
            else:
                tracker._states[row].covariance[rng.randint(16)] = np.nan
        ids = ", ".join(str(tracker.live_tracks[row].track_id) for row in bad)
        noun = "track" if len(bad) == 1 else "tracks"
        with pytest.raises(ValidationError) as info:
            tracker.step([], 5)
        assert str(info.value) == f"frame 5: non-finite Kalman state of {noun} {ids}"

    @given(stack_sizes, seeds, st.sampled_from([-0.1, 1.5, np.nan]))
    @settings(max_examples=50, deadline=None)
    def test_confidence_outside_unit_interval_rejected(self, n, seed, bad):
        rng = np.random.RandomState(seed)
        states = kalman_predict(_random_states(rng, n + 1))
        confidences = rng.uniform(0.0, 1.0, n + 1).tolist()
        confidences[rng.randint(n + 1)] = bad
        with pytest.raises(ValidationError, match=f"^confidence {bad} outside"):
            kalman_update(states, _measurements(_random_boxes(rng, n + 1)), confidences)

    @given(stack_sizes, seeds)
    @settings(max_examples=50, deadline=None)
    def test_singular_innovation_row_rejected(self, n, seed):
        # one row's covariance cancels its measurement noise exactly
        rng = np.random.RandomState(seed)
        measurements = _measurements(np.tile([0.0, 0.0, 10.0, 10.0], (n + 1, 1)))
        states = kalman_initiate(measurements)
        bad = rng.randint(n + 1)
        noise = [(10.0 / 20.0) ** 2, (10.0 / 20.0) ** 2, 1e-2, (10.0 / 20.0) ** 2]
        covariance = [0.0] * 16
        for component in range(4):
            covariance[4 * component] = -noise[component]
        states[bad] = KalmanState(states[bad].mean, covariance)
        with pytest.raises(ValidationError, match="singular"):
            kalman_update(states, measurements, [0.0] * (n + 1))


class TestKernelsMatchReference:
    """The kernels equal the per-track dense reference kernels bit for bit."""

    @given(st.data(), stack_sizes, st.integers(1, 6), seeds)
    @settings(max_examples=100, deadline=None)
    def test_each_row_equals_reference(self, data, n, m, seed):
        rng = np.random.RandomState(seed)
        boxes = _random_boxes(rng, n)
        initial = kalman_initiate(_measurements(boxes))
        states = _random_states(rng, n)
        predicted = kalman_predict(states)
        bboxes = [tuple(b) for b in _random_boxes(rng, m).tolist()]
        distances = gating_distance(predicted, _measurements(bboxes))
        confidences = data.draw(st.lists(confidence_values, min_size=n, max_size=n))
        updated = kalman_update(predicted, _measurements(boxes), confidences)
        for i in range(n):
            box = tuple(boxes[i].tolist())
            expected = reference.kalman_initiate(box)
            assert _same_bits(initial[i].mean, expected.mean)
            assert _same_bits(_dense(initial[i].covariance), expected.covariance)
            expected = reference.kalman_predict(_reference_row(states, i))
            assert _same_bits(predicted[i].mean, expected.mean)
            assert _same_bits(_dense(predicted[i].covariance), expected.covariance)
            row = _reference_row(predicted, i)
            assert _same_bits(distances[i], reference.gating_distance(row, bboxes))
            expected = reference.kalman_update(row, box, confidences[i])
            assert _same_bits(updated[i].mean, expected.mean)
            assert _same_bits(_dense(updated[i].covariance), expected.covariance)


    def test_noise_floor_matches_reference_over_many_heights(self):
        # With a fully confident measurement and no prior position variance
        # the innovation covariance is the noise floor alone, and the gain
        # divides the cross-covariance by it, so the floor's last bit shows.
        rng = np.random.RandomState(3)
        boxes = _random_boxes(rng, 4000)
        cross = [0.0, 1.0, 1.0, 0.0] * 4
        states = [KalmanState(state.mean, cross)
                  for state in kalman_initiate(_measurements(boxes))]
        updated = kalman_update(states, _measurements(boxes + 0.5), [1.0] * len(boxes))
        for i in range(len(boxes)):
            expected = reference.kalman_update(_reference_row(states, i),
                                               tuple(boxes[i] + 0.5), 1.0)
            assert _same_bits(updated[i].mean, expected.mean)
            assert _same_bits(_dense(updated[i].covariance), expected.covariance)

    def test_negative_zero_blocks_predict_as_reference(self):
        # the dense sum adds +0.0 to every entry, which turns -0.0 into +0.0
        state = _initiate((10.0, 20.0, 50.0, 80.0))
        blocks = [-0.0] * 16
        predicted = _predict(KalmanState(state.mean, blocks))
        expected = reference.kalman_predict(
            reference.DenseState(np.array(state.mean), _dense(blocks)))
        assert _same_bits(predicted.mean, expected.mean)
        assert _same_bits(_dense(predicted.covariance), expected.covariance)


box_coordinates = st.floats(-50.0, 50.0, allow_nan=False)
any_boxes = st.lists(st.tuples(box_coordinates, box_coordinates, box_coordinates,
                               box_coordinates), max_size=5)


class TestIouMatrix:
    @given(any_boxes, any_boxes)
    @settings(max_examples=200, deadline=None)
    def test_every_pair_equals_scalar_iou(self, a, b):
        # unordered corners give degenerate and inverted boxes too
        matrix = iou_matrix(np.reshape(a, (-1, 4)), np.reshape(b, (-1, 4)))
        assert matrix.shape == (len(a), len(b))
        for i, box_a in enumerate(a):
            for j, box_b in enumerate(b):
                assert _same_bits(matrix[i, j], np.float64(iou(box_a, box_b)))

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), seeds)
    @settings(max_examples=50, deadline=None)
    def test_stacked_frames_equal_single_frames(self, k, n, m, seed):
        rng = np.random.RandomState(seed)
        a = _random_boxes(rng, k * n).reshape(k, n, 4)
        b = _random_boxes(rng, k * m).reshape(k, m, 4)
        stacked = iou_matrix(a, b)
        assert stacked.shape == (k, n, m)
        for f in range(k):
            assert _same_bits(stacked[f], iou_matrix(a[f], b[f]))


def _scipy_pairs(cost):
    """linear_sum_assignment's pairs, or ValueError; the reference solver."""
    from scipy.optimize import linear_sum_assignment

    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError:
        return ValueError
    return list(zip(rows.tolist(), cols.tolist()))


def _our_pairs(cost):
    try:
        return solve_assignment(cost.tolist())
    except ValueError:
        return ValueError


@st.composite
def cost_matrices(draw, entries, max_side=7):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    values = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


small_integers = st.integers(0, 3).map(float)
real_costs = st.floats(-1e3, 1e3, allow_nan=False)


class TestAssignment:
    @given(cost_matrices(small_integers))
    @settings(max_examples=400, deadline=None)
    def test_equals_scipy_on_small_integer_costs(self, cost):
        # ties are common here, so this pins the tie-breaks, not just the optimum
        assert _our_pairs(cost) == _scipy_pairs(cost)

    @given(cost_matrices(st.one_of(small_integers, real_costs)))
    @settings(max_examples=200, deadline=None)
    def test_equals_scipy_on_real_costs(self, cost):
        assert _our_pairs(cost) == _scipy_pairs(cost)

    @given(cost_matrices(st.one_of(small_integers, st.just(1e5), st.just(np.inf),
                                   st.floats(0.0, 1.0))))
    @settings(max_examples=400, deadline=None)
    def test_equals_scipy_with_gate_sentinels_and_inf(self, cost):
        # +inf forbids a pair; a matrix without a finite assignment raises
        assert _our_pairs(cost) == _scipy_pairs(cost)

    @given(cost_matrices(small_integers), st.sampled_from([np.nan, -np.inf]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_nan_and_negative_inf_rejected(self, cost, bad, data):
        if cost.size == 0:
            return
        row = data.draw(st.integers(0, cost.shape[0] - 1))
        col = data.draw(st.integers(0, cost.shape[1] - 1))
        cost[row, col] = bad
        assert _scipy_pairs(cost) is ValueError
        with pytest.raises(ValueError, match="invalid numeric entries"):
            solve_assignment(cost.tolist())

    @pytest.mark.parametrize("cost", [
        [[np.inf, np.inf], [1.0, 2.0]],
        [[np.inf], [np.inf]],
        [[1.0, np.inf], [2.0, np.inf], [np.inf, np.inf]],
    ])
    def test_infeasible_rejected(self, cost):
        assert _scipy_pairs(np.array(cost)) is ValueError
        with pytest.raises(ValueError, match="infeasible"):
            solve_assignment(cost)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 5), (5, 1), (2, 6), (6, 2)])
    def test_shapes(self, shape):
        cost = np.arange(shape[0] * shape[1], dtype=float).reshape(shape)[:, ::-1] % 4
        pairs = solve_assignment(cost.tolist())
        assert pairs == _scipy_pairs(cost)
        assert len(pairs) == min(shape)
        assert [row for row, _ in pairs] == sorted(row for row, _ in pairs)

    @pytest.mark.parametrize("cost, distinct_minima", [
        ([[1.0, 1.0, 2.0], [0.0, 3.0, 3.0]], False),    # row 0's minimum is tied
        ([[1.0, 2.0, 3.0], [0.5, 4.0, 1.0]], False),    # both rows' minimum is column 0
        ([[np.inf, np.inf, np.inf], [0.0, 1.0, 2.0]], False),  # an all-+inf row
        ([[np.inf, np.inf], [1.0, 2.0], [3.0, 0.0]], True),    # tall: left unassigned
        ([[0.1, 5.0], [4.0, 0.2], [3.0, 3.0]], True),          # tall
        ([[0.3, 0.1, 0.2], [0.0, 9.0, 0.5]], True),
        ([[0.0, -0.0, 1.0], [1.0, 1.0, 0.0]], False),   # -0.0 ties 0.0
    ])
    def test_distinct_row_minima_equal_scipy(self, cost, distinct_minima):
        # the shortcut takes each row's strict minimum when no two rows share it
        cost = np.array(cost)
        wide = cost if cost.shape[0] <= cost.shape[1] else cost.T
        assert (_distinct_row_minima(wide.tolist()) is not None) == distinct_minima
        assert _our_pairs(cost) == _scipy_pairs(cost)

    def test_constant_matrix_gives_identity(self):
        assert solve_assignment([[1.0] * 4] * 3) == [(0, 0), (1, 1), (2, 2)]
        assert solve_assignment([[1.0] * 3] * 4) == [(0, 0), (1, 1), (2, 2)]

    def test_documented_matrix(self):
        cost = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]]
        pairs = solve_assignment(cost)
        assert sorted(pairs) == [(0, 2), (1, 1), (2, 0)]
        assert sum(cost[r][c] for r, c in pairs) == 10.0

    def test_empty(self):
        assert solve_assignment([]) == []
        assert solve_assignment([[], []]) == []

    @pytest.mark.parametrize("cost", [[[1.0, 2.0], [3.0]], [[], [1.0]], [[1.0], []]])
    def test_rows_of_unequal_length_rejected(self, cost):
        with pytest.raises(ValueError, match="rows differ in length"):
            solve_assignment(cost)

    def test_array_rows_equal_list_rows(self):
        # the reference tracker passes numpy arrays; rows of any float sequence work
        cost = np.array([[0.5, 0.2, 0.9], [0.1, 0.4, 0.3]])
        assert solve_assignment(cost) == solve_assignment(cost.tolist()) == [(0, 1), (1, 0)]

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, rows, cols, seed):
        import math

        rng = np.random.RandomState(seed)
        cost = rng.uniform(0.0, 10.0, size=(rows, cols))
        pairs = solve_assignment(cost.tolist())
        total = math.fsum(float(cost[r, c]) for r, c in pairs)
        assert total == brute_force_min_cost(cost.tolist())


class TestAssociate:
    def _tentative_track(self, bbox):
        tracker = Tracker(TrackerConfig())
        tracker.step([det(0, bbox)], 0)
        return tracker.live_tracks, tracker._states

    def test_track_atop_detection_matches(self):
        tracks, states = self._tentative_track(box_at(100, 100))
        matches, unmatched_t, unmatched_d = _associate(
            tracks, states, [det(1, box_at(100, 100))], TrackerConfig())
        assert matches == [(0, 0)]
        assert unmatched_t == [] and unmatched_d == []

    def test_low_overlap_fails_gate(self):
        # overlap 0.2 -> cost 0.8 above the 0.7 gate
        tracks, states = self._tentative_track((0.0, 0.0, 10.0, 10.0))
        probe = (0.0, 0.0, 10.0, 10.0)
        candidate = (0.0, 0.0, 10.0, 2.0)
        assert iou(probe, candidate) == pytest.approx(0.2)
        matches, unmatched_t, unmatched_d = _associate(
            tracks, states, [det(1, candidate)], TrackerConfig())
        assert matches == []
        assert unmatched_t == [0] and unmatched_d == [0]

    def test_overlap_gate_is_inclusive(self):
        # overlap 0.5 -> cost exactly 0.5, on the gate
        tracks, states = self._tentative_track((0.0, 0.0, 10.0, 10.0))
        matches, _, _ = _associate(tracks, states, [det(1, (0.0, 0.0, 10.0, 5.0))],
                                   TrackerConfig(max_iou_dist=0.5))
        assert matches == [(0, 0)]

    def test_mahalanobis_gate_is_inclusive(self):
        # a confirmed track and a detection without overlap, so only the
        # first stage can match them, at a distance exactly on the gate
        track = Track(track_id=1, status=CONFIRMED)
        states = kalman_predict(kalman_initiate(_measurements([box_at(100, 100)])))
        far = box_at(160, 100)
        distance = gating_distance(states, _measurements([far]))[0][0]
        assert iou(box_at(100, 100), far) == 0.0
        for gate, expected in ((distance, [(0, 0)]), (np.nextafter(distance, 0.0), [])):
            matches, _, _ = _associate([track], states, [det(1, far)],
                                       TrackerConfig(mahalanobis_gate=gate))
            assert matches == expected

    def test_state_rows_follow_track_order(self):
        # row i of the states is track i's, whatever order the tracks are in
        tracker = Tracker(TrackerConfig(n_init=1))
        tracker.step([det(0, box_at(100, 100)), det(0, box_at(400, 100))], 0)
        tracks = tracker.live_tracks
        states = kalman_predict(tracker._states)
        dets = [det(1, box_at(405, 101)), det(1, box_at(103, 99))]
        assert (_associate(tracks, states, dets, TrackerConfig())
                == ([(0, 1), (1, 0)], [], []))
        assert (_associate(tracks[::-1], states[::-1], dets, TrackerConfig())
                == ([(0, 0), (1, 1)], [], []))

    def test_empty_inputs(self):
        assert _associate([], [], [], TrackerConfig()) == ([], [], [])
        tracks, states = self._tentative_track(box_at(50, 50))
        assert _associate(tracks, states, [], TrackerConfig()) == ([], [0], [])


class TestLifecycle:
    def test_first_frame_spawns_tentative_with_sequential_ids(self):
        tracker = Tracker()
        tracker.step([det(0, box_at(100, 100)), det(0, box_at(400, 100))], 0)
        assert [t.track_id for t in tracker.live_tracks] == [1, 2]
        assert all(t.status == TENTATIVE for t in tracker.live_tracks)

    def test_confirmed_on_second_hit(self):
        tracker = Tracker(TrackerConfig(n_init=2))
        tracker.step([det(0, box_at(100, 100))], 0)
        tracker.step([det(1, box_at(101, 100))], 1)
        (track,) = tracker.live_tracks
        assert track.status == CONFIRMED
        assert len(track.records) == 2

    def test_deleted_after_max_age_misses(self):
        config = TrackerConfig(max_age=30)
        tracker = Tracker(config)
        tracker.step([det(0, box_at(100, 100))], 0)
        tracker.step([det(1, box_at(100, 100))], 1)  # confirm
        for frame in range(2, 2 + config.max_age):
            tracker.step([], frame)
            assert tracker.tracks[0].status == CONFIRMED
        tracker.step([], 2 + config.max_age)  # miss number max_age + 1
        assert tracker.tracks[0].status == DELETED

    def test_tentative_miss_deletes_immediately(self):
        tracker = Tracker()
        tracker.step([det(0, box_at(100, 100))], 0)
        tracker.step([], 1)
        assert tracker.tracks[0].status == DELETED

    def test_out_of_order_frame_rejected(self):
        tracker = Tracker()
        tracker.step([det(0, box_at(100, 100))], 0)
        with pytest.raises(ValidationError):
            tracker.step([det(0, box_at(100, 100))], 0)

    def test_detection_of_another_frame_rejected(self):
        tracker = Tracker()
        with pytest.raises(ValidationError, match="frame 7.*frame 0"):
            tracker.step([det(0, box_at(100, 100)), det(7, box_at(400, 100))], 0)
        assert tracker.tracks == []
        # the rejected call leaves the tracker as it was
        assert tracker.step([det(0, box_at(100, 100))], 0) is None
        assert [t.records[0].frame_index for t in tracker.live_tracks] == [0]

    def test_run_rejects_records_at_or_past_n_frames(self):
        records = [det(frame, box_at(100 + frame, 100)) for frame in range(20)]
        tracker = Tracker()
        with pytest.raises(ValidationError,
                           match=r"^detection of frame 10 at or past n_frames 10$"):
            tracker.run(records, n_frames=10)
        assert tracker.tracks == []
        assert len(Tracker().run(records, n_frames=20)[0].records) == 20

    def test_track_ids_never_reused(self):
        tracker = Tracker()
        seen = set()
        for frame in range(25):
            # alternate detections so tentative tracks die and respawn
            dets = [det(frame, box_at(100 + 30 * (frame % 3), 100))] if frame % 2 == 0 else []
            tracker.step(dets, frame)
        ids = [t.track_id for t in tracker.tracks]
        assert len(ids) == len(set(ids))
        seen.update(ids)


class TestDeterminismAndStability:
    def _stream(self, n_frames=50):
        frames = []
        for frame in range(n_frames):
            frames.append([
                det(frame, box_at(100 + 2 * frame, 100), conf=0.9, gt=1),
                det(frame, box_at(900 - 2 * frame, 300), conf=0.8, gt=2),
            ])
        return frames

    def test_identical_streams_identical_outputs(self):
        assert _summaries_per_frame(self._stream()) == _summaries_per_frame(self._stream())

    def test_well_separated_objects_never_swap(self):
        tracker = Tracker()
        for frame, dets in enumerate(self._stream()):
            tracker.step(dets, frame)
        confirmed = [t for t in tracker.tracks if t.ever_confirmed]
        assert len(confirmed) == 2
        for track in confirmed:
            gt_ids = {r.gt_track_id for r in track.records}
            assert len(gt_ids) == 1  # every track stayed on one object
        assert {_oracle_gt_id(t.records) for t in confirmed} == {1, 2}


_ROW = "0 car 100 50 180 120 0.9"


class TestAppearance:
    def test_detection_vectors_renormalize(self):
        text = f"{_ROW} 3 3.0 0.0 4.0\n1,car,100,50,180,120,0.9,3,0.0,2.0,0.0\n{_ROW}\n"
        first, bare, second = parse_detections_file(text.splitlines())
        assert first.embedding == pytest.approx((0.6, 0.0, 0.8), abs=1e-15)
        assert second.embedding == (0.0, 1.0, 0.0)
        assert bare.embedding is None
        # components past the float range keep their direction
        [huge] = parse_detections_file([f"{_ROW} 4 1e308 1e308 1e308 1e308"])
        assert huge.embedding == (0.5, 0.5, 0.5, 0.5)

    def test_bad_embedding_lines_rejected(self):
        for vector, error, message in [
            ("3 1.0 0.0", ParseError, "expected 3 vector components, got 2"),
            ("1 1.0 0.0", ParseError, "expected 1 vector components, got 2"),
            ("7", ParseError, "expected 7 vector components, got 0"),
            ("0", ParseError, "vector dimension must be >= 1, got 0"),
            ("-1 1.0", ParseError, "vector dimension must be >= 1, got -1"),
            ("2.5 1.0 0.0", ParseError, "non-integer field '2.5'"),
            ("car", ParseError, "non-numeric field 'car'"),
            ("2 1.0 nan", ParseError, "NaN field"),
            ("2 1.0 inf", ParseError, "non-finite field 'inf'"),
            ("2 0.0 -0.0", ValidationError, "zero-norm appearance vector"),
        ]:
            with pytest.raises(error, match=f"^line 2: {message}$"):
                parse_detections_file([f"{_ROW} 2 1 0", f"{_ROW} {vector}"])

    def test_dimension_change_rejected_naming_the_lines(self):
        with pytest.raises(ValidationError,
                           match=r"^line 2: 3-dimensional vector, but line 1 is 2-dimensional$"):
            parse_detections_file([f"{_ROW} 2 1 0", f"{_ROW} 3 1 0 0"])
        with pytest.raises(ValidationError, match=r"^line 5: 1-dimensional"):
            parse_detections_file(["# dim 2", f"{_ROW} 2 1 0", _ROW, "", f"{_ROW} 1 1"])

    def test_appearance_ema_stays_unit_norm(self):
        config = TrackerConfig(use_appearance=True, appearance_ema_alpha=0.9)
        tracker = Tracker(config)
        tracker.step([det(0, box_at(100, 100), embedding=(1.0, 0.0))], 0)
        tracker.step([det(1, box_at(100, 100), embedding=(0.0, 1.0))], 1)
        track = tracker.tracks[0]
        assert np.linalg.norm(track.appearance) == pytest.approx(1.0, abs=1e-12)
        # blend leans toward the running average
        assert track.appearance[0] > track.appearance[1]

    def test_appearance_match_beats_distance_gate(self):
        config = TrackerConfig(use_appearance=True, max_dist=0.2)
        tracker = Tracker(config)
        e = (1.0, 0.0)
        tracker.step([det(0, box_at(100, 100), embedding=e)], 0)
        tracker.step([det(1, box_at(100, 100), embedding=e)], 1)  # confirmed now
        tracker.step([det(2, box_at(104, 100), embedding=e)], 2)
        assert len(tracker.tracks[0].records) == 3

    def test_no_appearance_kept_when_appearance_is_off(self):
        # vectors on every detection, but nothing reads a track's appearance
        tracker = Tracker(TrackerConfig(use_appearance=False))
        for frame, vector in enumerate([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]):
            tracker.step([det(frame, box_at(100, 100), embedding=vector),
                          det(frame, box_at(400, 100), embedding=vector)], frame)
        assert [len(t.records) for t in tracker.tracks] == [3, 3]
        assert [t.appearance for t in tracker.tracks] == [None, None]

    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 6), seeds)
    @settings(max_examples=50, deadline=None)
    def test_appearance_costs_match_pairwise_formula(self, k, l, dim, seed):
        rng = np.random.RandomState(seed)
        appearances = rng.normal(size=(k, dim))
        embeddings = rng.normal(size=(l, dim))
        for i in range(k):
            for j in range(l):
                cost = _appearance_cost(tuple(appearances[i].tolist()),
                                        tuple(embeddings[j].tolist()))
                expected = 1.0 - float(np.dot(appearances[i], embeddings[j]))
                assert cost == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_appearance_gate_is_inclusive(self):
        # appearance cost exactly max_dist, and no overlap for the second stage
        track = Track(track_id=1, status=CONFIRMED, appearance=(1.0, 0.0))
        states = kalman_predict(kalman_initiate(_measurements([box_at(100, 100)])))
        far = det(1, box_at(160, 100), embedding=(0.5, float(np.sqrt(0.75))))
        for max_dist, expected in ((0.5, [(0, 0)]), (np.nextafter(0.5, 0.0), [])):
            config = TrackerConfig(use_appearance=True, max_dist=max_dist, mahalanobis_gate=1e9)
            matches, _, _ = _associate([track], states, [far], config)
            assert matches == expected

    def test_appearance_mismatch_falls_back_to_overlap_stage(self):
        # a confirmed track whose appearance gate rejects the detection
        # still gets an overlap-based second chance
        config = TrackerConfig(use_appearance=True, max_dist=0.2)
        tracker = Tracker(config)
        e = (1.0, 0.0)
        orthogonal = (0.0, 1.0)
        tracker.step([det(0, box_at(100, 100), embedding=e)], 0)
        tracker.step([det(1, box_at(100, 100), embedding=e)], 1)
        tracker.step([det(2, box_at(100, 100), embedding=orthogonal)], 2)
        assert len(tracker.tracks[0].records) == 3
        assert len(tracker.tracks) == 1  # no spurious new identity


class TestGating:
    def test_gating_distance_zero_at_predicted_mean(self):
        state = _predict(_initiate(box_at(100, 100)))
        bbox = box_at(state.mean[0], state.mean[1])
        distances = _gate(state, [bbox])
        assert distances[0] == pytest.approx(0.0, abs=1e-9)

    def test_gating_distance_grows_with_offset(self):
        state = _predict(_initiate(box_at(100, 100)))
        near = box_at(102, 100)
        far = box_at(160, 100)
        values = _gate(state, [near, far])
        assert values[0] < values[1]

    def test_zero_innovation_variance_rejected(self):
        # a singular solve raised LinAlgError; the float kernel names the
        # cause.  -0.25 px² cancels the cx measurement noise; -1e4 leaves a
        # negative variance, which would gate a box at a distance below 0
        state = _initiate((0.0, 0.0, 10.0, 10.0))
        for cx_variance in (-((10.0 / 20.0) ** 2), -1e4):
            covariance = [0.0] * 16
            covariance[0] = cx_variance
            with pytest.raises(ValidationError,
                               match="^singular innovation covariance in gating$"):
                _gate(KalmanState(state.mean, covariance),
                      [(0.0, 0.0, 10.0, 10.0), (1.0, 0.0, 11.0, 10.0)])


class TestConcurrentSequences:
    def test_threaded_sequences_match_sequential(self):
        # distinct sequences may be tracked on distinct threads
        import threading

        def stream(offset):
            return [[det(f, box_at(100 + offset + 2 * f, 100), gt=offset)]
                    for f in range(30)]

        sequential = [_summaries_per_frame(stream(0)), _summaries_per_frame(stream(500))]
        results = [None, None]
        threads = [threading.Thread(target=lambda i=i, o=o: results.__setitem__(
                       i, _summaries_per_frame(stream(o))))
                   for i, o in enumerate((0, 500))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] == sequential[0]
        assert results[1] == sequential[1]


class TestGroundTruthTracks:
    def test_builds_one_track_per_identity(self):
        # noise-free boxes of two far-apart identities, one of them missed
        # in a frame: the tracker follows each with one track
        records = [det(0, box_at(10, 10), gt=4), det(1, box_at(12, 10), gt=4),
                   det(2, box_at(14, 10), gt=4), det(0, box_at(300, 10), gt=9),
                   det(2, box_at(300, 10), gt=9)]
        tracks = Tracker(TrackerConfig(n_init=1)).run(records)
        assert [_oracle_gt_id(t.records) for t in tracks] == [4, 9]
        assert [len(t.records) for t in tracks] == [3, 2]
        assert all(t.ever_confirmed for t in tracks)
        assert all({r.gt_track_id for r in t.records} == {_oracle_gt_id(t.records)}
                   for t in tracks)

    def test_label_and_identity_tallies_seeded(self):
        # one identity's labels in frame order; the tie resolves toward it
        labels = {3: "car", 0: "van", 2: "van", 1: "car", 4: "truck"}
        records = [det(f, box_at(10 + f, 10), cls=labels[f], gt=4) for f in sorted(labels)]
        track = Track(track_id=4, status=CONFIRMED, records=records, ever_confirmed=True)
        assert track.class_label == _oracle_label(track.records) == "van"
        assert _oracle_gt_id(track.records) == 4


def _oracle_label(records) -> str:
    if not records:
        return "other"
    return Counter(r.class_label for r in records).most_common(1)[0][0]


def _oracle_gt_id(records) -> int:
    ids = [r.gt_track_id for r in records if r.gt_track_id >= 0]
    if not ids:
        return -1
    return Counter(ids).most_common(1)[0][0]


def _assert_tallies_match(track):
    assert track.class_label == _oracle_label(track.records)


class TestTallyLeader:
    def test_catch_up_tie_goes_to_the_value_seen_first(self):
        # X leads, L draws level (X was seen first), L overtakes, X draws level
        observed = [("van", 7), ("car", 3), ("car", 3), ("van", 7)]
        leaders = [("van", 7), ("van", 7), ("car", 3), ("van", 7)]
        track = Track(track_id=1)
        for frame, ((cls, gt), leader) in enumerate(zip(observed, leaders)):
            track.records.append(det(frame, box_at(100, 100), cls=cls, gt=gt))
            assert (track.class_label, _oracle_gt_id(track.records)) == leader
            seeded = Track(track_id=2, records=list(track.records))
            assert (seeded.class_label, _oracle_gt_id(seeded.records)) == leader
            _assert_tallies_match(track)


# small alphabets so that tied counts are common
observations = st.tuples(st.sampled_from(["car", "van", "truck"]),
                         st.sampled_from([-1, 0, 1, 2]))


class TestTrackTallies:
    @given(st.lists(observations, max_size=6), st.lists(observations, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_observe_matches_recount_after_every_step(self, seeded, observed):
        records = [det(f, box_at(100, 100), cls=cls, gt=gt)
                   for f, (cls, gt) in enumerate(seeded)]
        track = Track(track_id=1, records=records)
        assert track.class_label == _oracle_label(track.records)
        for frame, (cls, gt) in enumerate(observed, start=len(seeded)):
            track.records.append(det(frame, box_at(100, 100), conf=0.5, cls=cls, gt=gt))
            _assert_tallies_match(track)


# per frame, each of two far-apart objects is either missed (None) or seen
# with a label and an identity; misses give births, losses and deletions
frame_streams = st.lists(
    st.tuples(st.none() | observations, st.none() | observations),
    min_size=1, max_size=40)


def _stream_detections(frame, objects):
    return [det(frame, box_at(100 + 400 * k + frame, 100), cls=obs[0], gt=obs[1])
            for k, obs in enumerate(objects) if obs is not None]


class TestTrackerTallies:
    @given(frame_streams)
    @settings(max_examples=100, deadline=None)
    def test_track_tallies_match_recount_after_every_step(self, stream):
        tracker = Tracker(TrackerConfig(max_age=3))
        for frame, objects in enumerate(stream):
            tracker.step(_stream_detections(frame, objects), frame)
            for track in tracker.tracks:
                _assert_tallies_match(track)


class TestLiveTracks:
    @given(frame_streams)
    @settings(max_examples=100, deadline=None)
    def test_live_tracks_equal_filtered_tracks(self, stream):
        tracker = Tracker(TrackerConfig(max_age=3))
        for frame, objects in enumerate(stream):
            tracker.step(_stream_detections(frame, objects), frame)
            expected = [t for t in tracker.tracks if t.status != DELETED]
            assert [id(t) for t in tracker.live_tracks] == [id(t) for t in expected]

    def test_births_misses_and_deletions(self):
        tracker = Tracker(TrackerConfig(max_age=2))
        a, b = ("car", 1), ("van", 2)
        stream = [(a, None), (a, b), (a, b), (None, b), (None, None), (a, None),
                  (None, None), (None, None), (None, None), (a, b), (a, b)]
        statuses = set()
        for frame, objects in enumerate(stream):
            tracker.step(_stream_detections(frame, objects), frame)
            statuses.update(t.status for t in tracker.tracks)
            expected = [t for t in tracker.tracks if t.status != DELETED]
            assert [id(t) for t in tracker.live_tracks] == [id(t) for t in expected]
        assert statuses == {TENTATIVE, CONFIRMED, DELETED}
        assert len(tracker.tracks) > len(tracker.live_tracks) > 0


# A vehicle enters at `start`, moves at constant image velocity while its
# height changes, and is missed during its gaps; vehicles sharing a row and
# moving in opposite directions cross in the image.
vehicles = st.fixed_dictionaries({
    "start": st.integers(0, 20),
    "length": st.integers(1, 25),
    "cx": st.floats(100.0, 1100.0),
    "cy": st.sampled_from([150.0, 200.0, 260.0]),
    "vx": st.sampled_from([-14.0, -6.0, -2.0, 0.0, 3.0, 9.0]),
    "vy": st.floats(-1.5, 1.5),
    "w": st.floats(20.0, 120.0),
    "h": st.floats(20.0, 100.0),
    "dh": st.floats(-1.0, 1.0),
    "gaps": st.lists(st.tuples(st.integers(0, 24), st.integers(1, 7)), max_size=2),
})


def _vehicle_frames(vehicles_spec, seed):
    """Per-frame detections of the vehicles, jittered and shuffled by seed."""
    rng = np.random.RandomState(seed)
    n_frames = max(v["start"] + v["length"] for v in vehicles_spec)
    frames = []
    for frame in range(n_frames):
        dets = []
        for k, v in enumerate(vehicles_spec):
            age = frame - v["start"]
            if not 0 <= age < v["length"]:
                continue
            if any(offset <= age < offset + span for offset, span in v["gaps"]):
                continue
            cx = v["cx"] + v["vx"] * age + rng.uniform(-2.0, 2.0)
            cy = v["cy"] + v["vy"] * age + rng.uniform(-2.0, 2.0)
            h = max(8.0, v["h"] + v["dh"] * age + rng.uniform(-1.0, 1.0))
            confidence = 1.0 if rng.rand() < 0.3 else float(rng.uniform(0.3, 1.0))
            dets.append(det(frame, box_at(cx, cy, v["w"], h), conf=confidence, gt=k))
        rng.shuffle(dets)
        frames.append(dets)
    return frames


def _assert_same_tracking(tracker, oracle):
    assert len(tracker.tracks) == len(oracle.tracks)
    for track, expected in zip(tracker.tracks, oracle.tracks):
        assert ((track.track_id, track.status, track.frames_since_update,
                 track.ever_confirmed, track.class_label)
                == (expected.track_id, expected.status, expected.frames_since_update,
                    expected.ever_confirmed, expected.class_label))
        assert track.records == expected.records
    assert ([t.track_id for t in tracker.live_tracks]
            == [t.track_id for t in oracle.live_tracks()])
    for track, mean, covariance in _live_states(tracker):
        expected = oracle.states[track.track_id]
        assert _same_bits(mean, expected.mean)
        assert _same_bits(_dense(covariance), expected.covariance)
    assert len(oracle.states) == len(tracker.live_tracks)


def _with_one_hot_vectors(dets):
    # one direction per vehicle: every appearance cost is then exact
    return [dataclasses.replace(d, embedding=tuple(np.eye(8)[d.gt_track_id % 8].tolist()))
            for d in dets]


def _run_against_oracle(config, frames):
    tracker, oracle = Tracker(config), OracleTracker(config)
    for frame, dets in enumerate(frames):
        if config.use_appearance:
            dets = _with_one_hot_vectors(dets)
        tracker.step(dets, frame)
        oracle.step(dets, frame)
        _assert_same_tracking(tracker, oracle)
        if config.use_appearance:
            for track, expected in zip(tracker.tracks, oracle.tracks):
                assert _same_bits(track.appearance, expected.appearance)
    return tracker


class TestTrackerOracle:
    """The batched tracker reproduces the per-track loop after every frame."""

    @given(st.lists(vehicles, min_size=1, max_size=6), seeds,
           st.integers(1, 4), st.integers(1, 3), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_generated_multi_vehicle_streams(self, vehicles_spec, seed, max_age, n_init,
                                             use_appearance):
        config = TrackerConfig(max_age=max_age, n_init=n_init, use_appearance=use_appearance)
        _run_against_oracle(config, _vehicle_frames(vehicles_spec, seed))

    def test_crossings_misses_and_same_frame_births_and_deaths(self):
        # two cars cross head-on; a third is missed past max_age and comes
        # back as a new identity in the frame where a fourth one's tentative
        # track dies
        spec = [
            dict(start=0, length=30, cx=200.0, cy=200.0, vx=12.0, vy=0.0, w=60.0, h=50.0,
                 dh=0.2, gaps=[]),
            dict(start=0, length=30, cx=560.0, cy=204.0, vx=-12.0, vy=0.0, w=60.0, h=50.0,
                 dh=-0.2, gaps=[]),
            dict(start=2, length=26, cx=900.0, cy=150.0, vx=2.0, vy=0.5, w=50.0, h=40.0,
                 dh=0.0, gaps=[(6, 5)]),
            dict(start=12, length=1, cx=1000.0, cy=260.0, vx=0.0, vy=0.0, w=40.0, h=30.0,
                 dh=0.0, gaps=[]),
        ]
        frames = _vehicle_frames(spec, seed=7)
        for n_init in (1, 2):
            tracker = _run_against_oracle(TrackerConfig(max_age=3, n_init=n_init), frames)
            assert DELETED in {t.status for t in tracker.tracks}
            # the crossing cars keep their identities through the crossing
            for track in tracker.tracks[:2]:
                assert {r.gt_track_id for r in track.records} == {_oracle_gt_id(track.records)}
            # the third car is split into two identities by its long miss
            assert sum(_oracle_gt_id(t.records) == 2 for t in tracker.tracks) == 2


def _random_vehicles(rng, n):
    """n vehicles drawn from the ranges of the ``vehicles`` strategy."""
    return [dict(start=int(rng.randint(0, 21)), length=int(rng.randint(1, 26)),
                 cx=float(rng.uniform(100.0, 1100.0)),
                 cy=float(rng.choice([150.0, 200.0, 260.0])),
                 vx=float(rng.choice([-14.0, -6.0, -2.0, 0.0, 3.0, 9.0])),
                 vy=float(rng.uniform(-1.5, 1.5)), w=float(rng.uniform(20.0, 120.0)),
                 h=float(rng.uniform(20.0, 100.0)), dh=float(rng.uniform(-1.0, 1.0)),
                 gaps=[(int(rng.randint(0, 25)), int(rng.randint(1, 8)))
                       for _ in range(rng.randint(0, 3))])
            for _ in range(n)]


def _with_random_vectors(frames, seed, dim=16):
    """Per vehicle a random direction; per detection that direction plus noise, unit length.

    The noise puts same-vehicle cosine costs around the default max_dist
    of 0.2, so the appearance gate both passes and rejects such pairs.
    """
    rng = np.random.RandomState(seed)
    directions = rng.normal(size=(8, dim))
    out = []
    for dets in frames:
        row = []
        for d in dets:
            vector = directions[d.gt_track_id] + rng.normal(scale=0.5, size=dim)
            row.append(dataclasses.replace(
                d, embedding=tuple((vector / np.linalg.norm(vector)).tolist())))
        out.append(row)
    return out


def _partition(config, frames):
    """Each track's detections as its first frame and, per frame from there,
    the vehicle it held or '-' for a miss."""
    tracker = Tracker(config)
    for frame, dets in enumerate(frames):
        tracker.step(dets, frame)
    out = []
    for track in tracker.tracks:
        held = {r.frame_index: r.gt_track_id for r in track.records}
        first = min(held)
        out.append(f"{first}:" + "".join(str(held.get(frame, "-"))
                                         for frame in range(first, max(held) + 1)))
    return out


class TestAppearancePartition:
    """Which detections each track holds with appearance on, pinned.

    Random unit vectors, not one-hot ones, so every cost and blend rounds:
    a change in that arithmetic which moves an assignment shows here.  On
    these scenes appearance decides: with it off, the partitions differ.
    """

    @pytest.mark.parametrize("seed, expected", [
        (34, ["1:00000000000", "5:5555555555", "6:1111111111111111111111-33",
              "6:3333333333333", "8:222222222", "19:44444444444", "22:22", "24:33"]),
        (100, ["8:0000000000000000-00000000", "14:3333333333", "15:11", "15:55---555555",
               "17:1", "17:444", "18:1", "19:22222", "19:1", "27:444444444444", "31:3"]),
    ])
    def test_track_partition_pinned(self, seed, expected):
        frames = _with_random_vectors(
            _vehicle_frames(_random_vehicles(np.random.RandomState(seed), 6), seed), seed)
        config = TrackerConfig(max_age=3, use_appearance=True)
        assert _partition(config, frames) == expected
        assert _partition(TrackerConfig(max_age=3), frames) != expected


# boxes from a few pixels up to 1e300 px, anywhere from the origin to far off it
huge_boxes = st.builds(
    lambda scale, left, top, width, height: (left * scale, top * scale,
                                             left * scale + width * scale,
                                             top * scale + height * scale),
    st.sampled_from([1.0, 1e100, 1e150, 1e200, 1e250, 1e300]),
    st.sampled_from([0.0, -0.5, 0.25]), st.sampled_from([0.0, -1.0, 0.5]),
    st.floats(0.1, 1.0), st.floats(0.1, 1.0))


class TestExtremeBoxes:
    """Python floats raise where numpy returned inf; the tracker must not."""

    def test_1e200_px_tall_detection_is_a_non_finite_state(self):
        # its covariance overflows at birth; the next predict names the track
        tracker = Tracker()
        tracker.step([det(0, (0.0, 0.0, 10.0, 1e200))], 0)
        with pytest.raises(ValidationError) as info:
            tracker.step([det(1, (0.0, 0.0, 10.0, 1e200))], 1)
        assert str(info.value) == "frame 1: non-finite Kalman state of track 1"

    def test_singular_update_names_the_frame_and_the_track(self):
        # the height doubles from 1e155 px each frame; by frame 3 the
        # predicted height squares to inf in the measurement noise, and a
        # confidence of 1 scales that by 0, giving NaN
        tracker = Tracker()
        with pytest.raises(ValidationError) as info:
            for frame in range(4):
                tracker.step([det(frame, box_at(100.0, 100.0)),
                              det(frame, (0.0, 0.0, 1e100, 1e155 * 2.0 ** frame))], frame)
        assert str(info.value) == ("frame 3: singular innovation covariance in "
                                   "Kalman update of track 2")

    def test_singular_gating_names_the_frame_and_the_track(self):
        # track 2's position variance in x is set so that, predicted, it
        # cancels the measurement noise (1 px² for a 20 px box) exactly, or
        # leaves the innovation variance negative
        boxes = [(0.0, 0.0, 20.0, 20.0), (100.0, 0.0, 120.0, 20.0)]
        for cx_variance in (-2.0, -1e4):
            tracker = Tracker(TrackerConfig(n_init=1))
            tracker.step([det(0, box) for box in boxes], 0)
            mean, covariance = tracker._states[1]
            tracker._states[1] = KalmanState(mean, [cx_variance, 0.0, 0.0, 0.0] + covariance[4:])
            with pytest.raises(ValidationError) as info:
                tracker.step([det(1, box) for box in boxes], 1)
            assert str(info.value) == ("frame 1: singular innovation covariance in gating "
                                       "of track 2")

    @given(st.lists(st.lists(huge_boxes, max_size=3), min_size=1, max_size=8),
           st.sampled_from([0.7, 1.0]), st.sampled_from([1, 2]),
           st.sampled_from([CHI2_95_4DOF, 1e300]))
    @settings(max_examples=300, deadline=None)
    def test_huge_finite_boxes_raise_no_arithmetic_error(self, frames, max_iou_dist, n_init,
                                                         gate):
        # OverflowError and ZeroDivisionError are ArithmeticErrors, not
        # ValueErrors, so they fail the test
        tracker = Tracker(TrackerConfig(max_iou_dist=max_iou_dist, n_init=n_init,
                                        mahalanobis_gate=gate))
        try:
            for frame, boxes in enumerate(frames):
                tracker.step([det(frame, box) for box in boxes], frame)
        except ValueError:
            pass  # ValidationError, or the solver refusing a NaN cost of an overflowed state


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            TrackerConfig(max_dist=0.0)
        with pytest.raises(ValidationError):
            TrackerConfig(max_iou_dist=1.5)
        with pytest.raises(ValidationError):
            TrackerConfig(max_age=0)
        with pytest.raises(ValidationError):
            TrackerConfig(n_init=0)
