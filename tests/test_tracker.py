from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.assignment_oracle import brute_force_min_cost
from oracles import tracker_oracle as reference
from oracles.tracker_oracle import OracleTracker
from tsdiag.errors import ValidationError
from tsdiag.kitti import DetectionRecord
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
    iou_matrix,
    kalman_initiate,
    kalman_predict,
    kalman_update,
    load_embeddings,
    solve_assignment,
    tracks_from_ground_truth,
)


def det(frame, bbox, conf=1.0, cls="car", gt=-1):
    return DetectionRecord(frame_index=frame, class_label=cls, bbox=bbox,
                           confidence=conf, gt_track_id=gt)


def box_at(cx, cy, w=40.0, h=50.0):
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


class TestKalman:
    def test_zero_velocity_position_fixed_covariance_grows(self):
        state = kalman_initiate((80.0, 75.0, 120.0, 125.0))
        predicted = kalman_predict(state)
        assert np.allclose(predicted.mean[:4], state.mean[:4])
        assert np.all(np.diag(predicted.covariance) > np.diag(state.covariance))

    def test_linear_propagation(self):
        mean = np.array([100.0, 100.0, 2.0, 50.0, 5.0, 0.0, 0.0, 0.0])
        state = KalmanState(mean, np.eye(8))
        predicted = kalman_predict(state)
        assert np.allclose(predicted.mean,
                           [105.0, 100.0, 2.0, 50.0, 5.0, 0.0, 0.0, 0.0])

    def test_two_predicts_double_the_displacement(self):
        mean = np.array([100.0, 100.0, 2.0, 50.0, 5.0, 0.0, 0.0, 0.0])
        state = KalmanState(mean, np.eye(8))
        twice = kalman_predict(kalman_predict(state))
        assert twice.mean[0] == pytest.approx(110.0)

    def test_update_with_predicted_measurement_keeps_mean(self):
        state = kalman_initiate((10.0, 10.0, 50.0, 60.0))
        state = kalman_predict(state)
        bbox = (state.mean[0] - state.mean[2] * state.mean[3] / 2,
                state.mean[1] - state.mean[3] / 2,
                state.mean[0] + state.mean[2] * state.mean[3] / 2,
                state.mean[1] + state.mean[3] / 2)
        updated = kalman_update(state, bbox, confidence=0.8)
        assert np.allclose(updated.mean[:4], state.mean[:4], atol=1e-9)

    def test_confident_measurement_pulls_harder(self):
        base = kalman_predict(kalman_initiate((10.0, 10.0, 50.0, 60.0)))
        shifted = (18.0, 12.0, 58.0, 62.0)
        low = kalman_update(base, shifted, confidence=0.0)
        high = kalman_update(base, shifted, confidence=0.99)
        target = np.array([38.0, 37.0])  # measured center
        base_center = base.mean[:2]
        assert (np.linalg.norm(high.mean[:2] - target)
                < np.linalg.norm(low.mean[:2] - target))
        assert np.linalg.norm(low.mean[:2] - base_center) > 0.0

    def test_update_contracts_measured_covariance(self):
        state = kalman_predict(kalman_initiate((10.0, 10.0, 50.0, 60.0)))
        updated = kalman_update(state, (11.0, 11.0, 51.0, 61.0), confidence=0.7)
        prior_diag = np.diag(state.covariance)[:4]
        post_diag = np.diag(updated.covariance)[:4]
        assert np.all(post_diag <= prior_diag + 1e-12)

    def test_non_finite_state_rejected(self):
        state = KalmanState(np.full(8, np.nan), np.eye(8))
        with pytest.raises(ValidationError):
            kalman_predict(state)

    def test_singular_innovation_rejected(self):
        # covariance engineered to cancel the measurement noise exactly,
        # leaving a zero innovation covariance
        state = kalman_initiate((0.0, 0.0, 10.0, 10.0))
        h = state.mean[3]
        noise = np.diag([(h / 20.0) ** 2, (h / 20.0) ** 2, 1e-2, (h / 20.0) ** 2])
        cov = np.zeros((8, 8))
        cov[:4, :4] = -noise
        with pytest.raises(ValidationError):
            kalman_update(KalmanState(state.mean, cov), (0.0, 0.0, 10.0, 10.0), 0.0)

    def test_mean_constant_when_measurements_match_predictions(self):
        state = kalman_initiate((10.0, 10.0, 50.0, 60.0))
        for _ in range(20):
            state = kalman_predict(state, position_weight=0.0, velocity_weight=0.0)
            bbox = (state.mean[0] - state.mean[2] * state.mean[3] / 2,
                    state.mean[1] - state.mean[3] / 2,
                    state.mean[0] + state.mean[2] * state.mean[3] / 2,
                    state.mean[1] + state.mean[3] / 2)
            state = kalman_update(state, bbox, confidence=0.9)
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
    # realistic stacks: initiated, then moved and corrected a few times
    boxes = _random_boxes(rng, n)
    states = kalman_initiate(boxes)
    for _ in range(rng.randint(0, 4)):
        states = kalman_predict(states)
        boxes = boxes + rng.uniform(-3.0, 3.0, size=(n, 1))
        states = kalman_update(states, boxes, rng.uniform(0.0, 1.0, n))
    return states


def _row(states, i):
    return KalmanState(states.mean[i].copy(), states.covariance[i].copy())


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


stack_sizes = st.integers(0, 6)
seeds = st.integers(0, 2**31 - 1)
confidence_values = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


class TestStackedKalman:
    """Stacked calls equal the single-track calls row by row, bit for bit."""

    @given(stack_sizes, seeds)
    @settings(max_examples=100, deadline=None)
    def test_initiate_and_predict_match_rows(self, n, seed):
        rng = np.random.RandomState(seed)
        boxes = _random_boxes(rng, n)
        initial = kalman_initiate(boxes)
        states = _random_states(rng, n)
        predicted = kalman_predict(states)
        for i in range(n):
            single = kalman_initiate(tuple(boxes[i].tolist()))
            assert _same_bits(initial.mean[i], single.mean)
            assert _same_bits(initial.covariance[i], single.covariance)
            single = kalman_predict(_row(states, i))
            assert _same_bits(predicted.mean[i], single.mean)
            assert _same_bits(predicted.covariance[i], single.covariance)

    @given(stack_sizes, st.integers(1, 6), seeds)
    @settings(max_examples=100, deadline=None)
    def test_gating_matches_rows(self, n, m, seed):
        rng = np.random.RandomState(seed)
        states = kalman_predict(_random_states(rng, n))
        bboxes = [tuple(b) for b in _random_boxes(rng, m).tolist()]
        distances = gating_distance(states, bboxes)
        assert distances.shape == (n, m)
        for i in range(n):
            assert _same_bits(distances[i], gating_distance(_row(states, i), bboxes))

    @given(st.data(), stack_sizes, seeds)
    @settings(max_examples=100, deadline=None)
    def test_update_matches_rows(self, data, n, seed):
        rng = np.random.RandomState(seed)
        states = kalman_predict(_random_states(rng, n))
        boxes = _random_boxes(rng, n)
        confidences = data.draw(st.lists(confidence_values, min_size=n, max_size=n))
        updated = kalman_update(states, boxes, confidences)
        for i in range(n):
            single = kalman_update(_row(states, i), tuple(boxes[i].tolist()), confidences[i])
            assert _same_bits(updated.mean[i], single.mean)
            assert _same_bits(updated.covariance[i], single.covariance)

    @given(stack_sizes, seeds)
    @settings(max_examples=50, deadline=None)
    def test_non_finite_row_rejected(self, n, seed):
        rng = np.random.RandomState(seed)
        states = _random_states(rng, n + 1)
        mean = states.mean.copy()
        mean[rng.randint(n + 1), rng.randint(8)] = rng.choice([np.nan, np.inf])
        with pytest.raises(ValidationError, match="non-finite"):
            kalman_predict(KalmanState(mean, states.covariance))

    @given(stack_sizes, seeds, st.sampled_from([-0.1, 1.5, np.nan]))
    @settings(max_examples=50, deadline=None)
    def test_confidence_outside_unit_interval_rejected(self, n, seed, bad):
        rng = np.random.RandomState(seed)
        states = kalman_predict(_random_states(rng, n + 1))
        confidences = rng.uniform(0.0, 1.0, n + 1)
        confidences[rng.randint(n + 1)] = bad
        with pytest.raises(ValidationError, match="confidence"):
            kalman_update(states, _random_boxes(rng, n + 1), confidences)

    @given(stack_sizes, seeds)
    @settings(max_examples=50, deadline=None)
    def test_singular_innovation_row_rejected(self, n, seed):
        # one row's covariance cancels its measurement noise exactly
        rng = np.random.RandomState(seed)
        boxes = np.tile([0.0, 0.0, 10.0, 10.0], (n + 1, 1))
        states = kalman_initiate(boxes)
        covariance = states.covariance.copy()
        bad = rng.randint(n + 1)
        noise = np.diag([(10.0 / 20.0) ** 2, (10.0 / 20.0) ** 2, 1e-2, (10.0 / 20.0) ** 2])
        covariance[bad] = 0.0
        covariance[bad, :4, :4] = -noise
        with pytest.raises(ValidationError, match="singular"):
            kalman_update(KalmanState(states.mean, covariance), boxes, np.zeros(n + 1))


class TestKernelsMatchReference:
    """Stacked kernels equal the per-track reference kernels bit for bit."""

    @given(st.data(), stack_sizes, st.integers(1, 6), seeds)
    @settings(max_examples=100, deadline=None)
    def test_each_row_equals_reference(self, data, n, m, seed):
        rng = np.random.RandomState(seed)
        boxes = _random_boxes(rng, n)
        initial = kalman_initiate(boxes)
        states = _random_states(rng, n)
        predicted = kalman_predict(states)
        bboxes = [tuple(b) for b in _random_boxes(rng, m).tolist()]
        distances = gating_distance(predicted, bboxes)
        confidences = data.draw(st.lists(confidence_values, min_size=n, max_size=n))
        updated = kalman_update(predicted, boxes, confidences)
        for i in range(n):
            box = tuple(boxes[i].tolist())
            expected = reference.kalman_initiate(box)
            assert _same_bits(initial.mean[i], expected.mean)
            assert _same_bits(initial.covariance[i], expected.covariance)
            expected = reference.kalman_predict(_row(states, i))
            assert _same_bits(predicted.mean[i], expected.mean)
            assert _same_bits(predicted.covariance[i], expected.covariance)
            row = _row(predicted, i)
            assert _same_bits(distances[i], reference.gating_distance(row, bboxes))
            expected = reference.kalman_update(row, box, confidences[i])
            assert _same_bits(updated.mean[i], expected.mean)
            assert _same_bits(updated.covariance[i], expected.covariance)


    def test_noise_floor_matches_reference_over_many_heights(self):
        # With a fully confident measurement and no prior position variance
        # the innovation covariance is the noise floor alone, and the gain
        # divides the cross-covariance by it, so the floor's last bit shows.
        rng = np.random.RandomState(3)
        boxes = _random_boxes(rng, 4000)
        mean = kalman_initiate(boxes).mean
        covariance = np.zeros((len(boxes), 8, 8))
        covariance[:, 4:, :4] = covariance[:, :4, 4:] = np.eye(4)
        states = KalmanState(mean, covariance)
        updated = kalman_update(states, boxes + 0.5, np.ones(len(boxes)))
        for i in range(len(boxes)):
            expected = reference.kalman_update(_row(states, i), tuple(boxes[i] + 0.5), 1.0)
            assert _same_bits(updated.mean[i], expected.mean)
            assert _same_bits(updated.covariance[i], expected.covariance)


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


class TestAssignment:
    def test_documented_matrix(self):
        cost = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]])
        pairs = solve_assignment(cost)
        assert sorted(pairs) == [(0, 2), (1, 1), (2, 0)]
        assert sum(cost[r, c] for r, c in pairs) == 10.0

    def test_empty(self):
        assert solve_assignment(np.zeros((0, 3))) == []

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, rows, cols, seed):
        import math

        rng = np.random.RandomState(seed)
        cost = rng.uniform(0.0, 10.0, size=(rows, cols))
        pairs = solve_assignment(cost)
        total = math.fsum(float(cost[r, c]) for r, c in pairs)
        assert total == brute_force_min_cost(cost.tolist())


class TestAssociate:
    def _tentative_track(self, bbox):
        tracker = Tracker(TrackerConfig())
        tracker.step([det(0, bbox)], 0)
        return tracker.live_tracks

    def test_track_atop_detection_matches(self):
        tracks = self._tentative_track(box_at(100, 100))
        matches, unmatched_t, unmatched_d = associate(
            tracks, [det(1, box_at(100, 100))], TrackerConfig())
        assert matches == [(0, 0)]
        assert unmatched_t == [] and unmatched_d == []

    def test_low_overlap_fails_gate(self):
        # overlap 0.2 -> cost 0.8 above the 0.7 gate
        tracks = self._tentative_track((0.0, 0.0, 10.0, 10.0))
        probe = (0.0, 0.0, 10.0, 10.0)
        candidate = (0.0, 0.0, 10.0, 2.0)
        assert iou(probe, candidate) == pytest.approx(0.2)
        matches, unmatched_t, unmatched_d = associate(
            tracks, [det(1, candidate)], TrackerConfig())
        assert matches == []
        assert unmatched_t == [0] and unmatched_d == [0]

    def test_overlap_gate_is_inclusive(self):
        # overlap 0.5 -> cost exactly 0.5, on the gate
        tracks = self._tentative_track((0.0, 0.0, 10.0, 10.0))
        matches, _, _ = associate(tracks, [det(1, (0.0, 0.0, 10.0, 5.0))],
                                  TrackerConfig(max_iou_dist=0.5))
        assert matches == [(0, 0)]

    def test_mahalanobis_gate_is_inclusive(self):
        # a confirmed track and a detection without overlap, so only the
        # first stage can match them, at a distance exactly on the gate
        track = Track(track_id=1, state=kalman_predict(kalman_initiate(box_at(100, 100))),
                      status=CONFIRMED)
        far = box_at(160, 100)
        distance = float(gating_distance(track.state, [far])[0])
        assert iou(box_at(100, 100), far) == 0.0
        for gate, expected in ((distance, [(0, 0)]), (np.nextafter(distance, 0.0), [])):
            matches, _, _ = associate([track], [det(1, far)],
                                      TrackerConfig(mahalanobis_gate=gate))
            assert matches == expected

    def test_explicit_states_equal_stacked_track_states(self):
        tracker = Tracker(TrackerConfig(n_init=1))
        tracker.step([det(0, box_at(100, 100)), det(0, box_at(400, 100))], 0)
        tracks = tracker.live_tracks
        for track in tracks:
            track.state = kalman_predict(track.state)
        dets = [det(1, box_at(405, 101)), det(1, box_at(103, 99))]
        states = KalmanState(np.stack([t.state.mean for t in tracks]),
                             np.stack([t.state.covariance for t in tracks]))
        assert (associate(tracks, dets, TrackerConfig(), states=states)
                == associate(tracks, dets, TrackerConfig())
                == ([(0, 1), (1, 0)], [], []))

    def test_empty_inputs(self):
        assert associate([], [], TrackerConfig()) == ([], [], [])
        tracks = self._tentative_track(box_at(50, 50))
        assert associate(tracks, [], TrackerConfig()) == ([], [0], [])


class TestLifecycle:
    def test_first_frame_spawns_tentative_with_sequential_ids(self):
        tracker = Tracker()
        snaps = tracker.step([det(0, box_at(100, 100)), det(0, box_at(400, 100))], 0)
        assert [s.track_id for s in snaps] == [1, 2]
        assert all(s.status == TENTATIVE for s in snaps)

    def test_confirmed_on_second_hit(self):
        tracker = Tracker(TrackerConfig(n_init=2))
        tracker.step([det(0, box_at(100, 100))], 0)
        snaps = tracker.step([det(1, box_at(101, 100))], 1)
        assert snaps[0].status == CONFIRMED
        assert snaps[0].hits == 2

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
        assert [s.frame_index for s in tracker.step([det(0, box_at(100, 100))], 0)] == [0]

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
        outputs = []
        for _ in range(2):
            tracker = Tracker()
            snaps = [tracker.step(dets, f) for f, dets in enumerate(self._stream())]
            outputs.append(snaps)
        assert outputs[0] == outputs[1]

    def test_well_separated_objects_never_swap(self):
        tracker = Tracker()
        for frame, dets in enumerate(self._stream()):
            tracker.step(dets, frame)
        confirmed = [t for t in tracker.tracks if t.ever_confirmed]
        assert len(confirmed) == 2
        for track in confirmed:
            gt_ids = {r.gt_track_id for r in track.records}
            assert len(gt_ids) == 1  # every track stayed on one object
        assert {t.majority_gt_track_id for t in confirmed} == {1, 2}


class TestAppearance:
    def test_load_embeddings_renormalizes(self):
        text = "0 0 3 3.0 0.0 4.0\n1 2 2 1.0 0.0\n"
        table = load_embeddings(text.splitlines())
        assert np.allclose(table[(0, 0)], [0.6, 0.0, 0.8])
        assert np.allclose(table[(1, 2)], [1.0, 0.0])

    def test_bad_embedding_lines_rejected(self):
        with pytest.raises(ValidationError):
            load_embeddings(["0 0 3 1.0 0.0"])
        with pytest.raises(ValidationError):
            load_embeddings(["0 0 2 0.0 0.0"])

    def test_appearance_ema_stays_unit_norm(self):
        config = TrackerConfig(use_appearance=True, appearance_ema_alpha=0.9)
        tracker = Tracker(config)
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        tracker.step([det(0, box_at(100, 100))], 0, [e0])
        tracker.step([det(1, box_at(100, 100))], 1, [e1])
        track = tracker.tracks[0]
        assert np.linalg.norm(track.appearance) == pytest.approx(1.0, abs=1e-12)
        # blend leans toward the running average
        assert track.appearance[0] > track.appearance[1]

    def test_appearance_match_beats_distance_gate(self):
        config = TrackerConfig(use_appearance=True, max_dist=0.2)
        tracker = Tracker(config)
        e = np.array([1.0, 0.0])
        tracker.step([det(0, box_at(100, 100))], 0, [e])
        tracker.step([det(1, box_at(100, 100))], 1, [e])  # confirmed now
        snaps = tracker.step([det(2, box_at(104, 100))], 2, [e])
        assert snaps[0].hits == 3

    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 6), seeds,
           st.sampled_from(["cosine", "euclidean"]))
    @settings(max_examples=50, deadline=None)
    def test_appearance_costs_match_pairwise_formula(self, k, l, dim, seed, metric):
        from tsdiag.tracker import _appearance_cost

        rng = np.random.RandomState(seed)
        appearances = rng.normal(size=(k, dim))
        embeddings = rng.normal(size=(l, dim))
        cost = _appearance_cost(appearances, embeddings, metric)
        for i in range(k):
            for j in range(l):
                if metric == "cosine":
                    expected = 1.0 - float(np.dot(appearances[i], embeddings[j]))
                else:
                    expected = float(np.linalg.norm(appearances[i] - embeddings[j]))
                assert cost[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_appearance_gate_is_inclusive(self):
        # appearance cost exactly max_dist, and no overlap for the second stage
        track = Track(track_id=1, state=kalman_predict(kalman_initiate(box_at(100, 100))),
                      status=CONFIRMED, appearance=np.array([1.0, 0.0]))
        far = det(1, box_at(160, 100))
        embedding = np.array([0.5, np.sqrt(0.75)])
        for max_dist, expected in ((0.5, [(0, 0)]), (np.nextafter(0.5, 0.0), [])):
            config = TrackerConfig(use_appearance=True, max_dist=max_dist, mahalanobis_gate=1e9)
            matches, _, _ = associate([track], [far], config, [embedding])
            assert matches == expected

    def test_appearance_mismatch_falls_back_to_overlap_stage(self):
        # a confirmed track whose appearance gate rejects the detection
        # still gets an overlap-based second chance
        config = TrackerConfig(use_appearance=True, max_dist=0.2)
        tracker = Tracker(config)
        e = np.array([1.0, 0.0])
        orthogonal = np.array([0.0, 1.0])
        tracker.step([det(0, box_at(100, 100))], 0, [e])
        tracker.step([det(1, box_at(100, 100))], 1, [e])
        snaps = tracker.step([det(2, box_at(100, 100))], 2, [orthogonal])
        assert snaps[0].hits == 3
        assert len(tracker.tracks) == 1  # no spurious new identity


class TestGating:
    def test_gating_distance_zero_at_predicted_mean(self):
        state = kalman_predict(kalman_initiate(box_at(100, 100)))
        bbox = box_at(float(state.mean[0]), float(state.mean[1]))
        distances = gating_distance(state, [bbox])
        assert distances[0] == pytest.approx(0.0, abs=1e-9)

    def test_gating_distance_grows_with_offset(self):
        state = kalman_predict(kalman_initiate(box_at(100, 100)))
        near = box_at(102, 100)
        far = box_at(160, 100)
        values = gating_distance(state, [near, far])
        assert values[0] < values[1]


class TestConcurrentSequences:
    def test_threaded_sequences_match_sequential(self):
        # distinct sequences may be tracked on distinct threads
        import threading

        def stream(offset):
            return [[det(f, box_at(100 + offset + 2 * f, 100), gt=offset)]
                    for f in range(30)]

        def run(frames):
            tracker = Tracker()
            return [tracker.step(dets, f) for f, dets in enumerate(frames)]

        sequential = [run(stream(0)), run(stream(500))]
        results = [None, None]
        threads = [threading.Thread(target=lambda i=i, o=o: results.__setitem__(i, run(stream(o))))
                   for i, o in enumerate((0, 500))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] == sequential[0]
        assert results[1] == sequential[1]


class TestGroundTruthTracks:
    def test_builds_one_track_per_identity(self):
        records = [det(0, box_at(10, 10), gt=4), det(1, box_at(12, 10), gt=4),
                   det(0, box_at(300, 10), gt=9)]
        tracks = tracks_from_ground_truth(records)
        assert [t.track_id for t in tracks] == [4, 9]
        assert [len(t.records) for t in tracks] == [2, 1]
        assert all(t.ever_confirmed for t in tracks)

    def test_label_and_identity_tallies_seeded(self):
        # frames given out of order; the tie resolves toward frame order
        labels = {3: "car", 0: "van", 2: "van", 1: "car", 4: "truck"}
        records = [det(f, box_at(10 + f, 10), cls=cls, gt=4) for f, cls in labels.items()]
        (track,) = tracks_from_ground_truth(records)
        assert track.class_label == _oracle_label(track.records) == "van"
        assert track.majority_gt_track_id == 4


def _oracle_label(records) -> str:
    if not records:
        return "other"
    return Counter(r.class_label for r in records).most_common(1)[0][0]


def _oracle_gt_id(records) -> int:
    ids = [r.gt_track_id for r in records if r.gt_track_id >= 0]
    if not ids:
        return -1
    return Counter(ids).most_common(1)[0][0]


def _assert_tallies_match(track, frame_index):
    assert track.class_label == _oracle_label(track.records)
    assert track.majority_gt_track_id == _oracle_gt_id(track.records)
    snap = track.snapshot(frame_index)
    assert snap.class_label == track.class_label
    assert snap.gt_track_id == track.majority_gt_track_id
    assert snap.confidence == track.records[-1].confidence


# small alphabets so that tied counts are common
observations = st.tuples(st.sampled_from(["car", "van", "truck"]),
                         st.sampled_from([-1, 0, 1, 2]))


class TestTrackTallies:
    @given(st.lists(observations, max_size=6), st.lists(observations, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_observe_matches_recount_after_every_step(self, seeded, observed):
        records = [det(f, box_at(100, 100), cls=cls, gt=gt)
                   for f, (cls, gt) in enumerate(seeded)]
        track = Track(track_id=1, state=kalman_initiate(box_at(100, 100)),
                      records=records)
        assert track.class_label == _oracle_label(track.records)
        assert track.majority_gt_track_id == _oracle_gt_id(track.records)
        for frame, (cls, gt) in enumerate(observed, start=len(seeded)):
            track.observe(det(frame, box_at(100, 100), conf=0.5, cls=cls, gt=gt))
            _assert_tallies_match(track, frame)


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
    def test_step_snapshots_match_recount(self, stream):
        tracker = Tracker(TrackerConfig(max_age=3))
        for frame, objects in enumerate(stream):
            snaps = tracker.step(_stream_detections(frame, objects), frame)
            by_id = {t.track_id: t for t in tracker.tracks}
            for snap in snaps:
                track = by_id[snap.track_id]
                assert snap.class_label == _oracle_label(track.records)
                assert snap.gt_track_id == _oracle_gt_id(track.records)
            for track in tracker.tracks:
                _assert_tallies_match(track, frame)


class TestLiveTracks:
    @given(frame_streams)
    @settings(max_examples=100, deadline=None)
    def test_live_tracks_equal_filtered_tracks(self, stream):
        tracker = Tracker(TrackerConfig(max_age=3))
        for frame, objects in enumerate(stream):
            snaps = tracker.step(_stream_detections(frame, objects), frame)
            expected = [t for t in tracker.tracks if t.status != DELETED]
            assert [id(t) for t in tracker.live_tracks] == [id(t) for t in expected]
            assert [s.track_id for s in snaps] == [t.track_id for t in expected]

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


def _assert_same_tracking(tracker, oracle, snaps, oracle_snaps):
    assert snaps == oracle_snaps
    assert len(tracker.tracks) == len(oracle.tracks)
    for track, expected in zip(tracker.tracks, oracle.tracks):
        assert ((track.track_id, track.status, track.hits, track.frames_since_update,
                 track.ever_confirmed)
                == (expected.track_id, expected.status, expected.hits,
                    expected.frames_since_update, expected.ever_confirmed))
        assert track.records == expected.records
        assert _same_bits(track.state.mean, expected.state.mean)
        assert _same_bits(track.state.covariance, expected.state.covariance)
    assert ([t.track_id for t in tracker.live_tracks]
            == [t.track_id for t in oracle.live_tracks()])


def _one_hot_embeddings(dets):
    # one direction per vehicle: every appearance cost is then exact
    return [np.eye(8)[d.gt_track_id % 8] for d in dets]


def _run_against_oracle(config, frames):
    tracker, oracle = Tracker(config), OracleTracker(config)
    for frame, dets in enumerate(frames):
        embeddings = _one_hot_embeddings(dets) if config.use_appearance else None
        snaps = tracker.step(dets, frame, embeddings)
        oracle_snaps = oracle.step(dets, frame, embeddings)
        _assert_same_tracking(tracker, oracle, snaps, oracle_snaps)
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
                assert {r.gt_track_id for r in track.records} == {track.majority_gt_track_id}
            # the third car is split into two identities by its long miss
            assert sum(t.majority_gt_track_id == 2 for t in tracker.tracks) == 2


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
        with pytest.raises(ValidationError):
            TrackerConfig(nn_metric="manhattan")
