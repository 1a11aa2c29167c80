from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.assignment_oracle import brute_force_min_cost
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
        assert [len(t.history) for t in tracks] == [2, 1]
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
    assert snap.confidence == track.history[-1][2]


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
                      history=[(r.frame_index, r.bbox, r.confidence) for r in records],
                      records=records)
        assert track.class_label == _oracle_label(track.records)
        assert track.majority_gt_track_id == _oracle_gt_id(track.records)
        for frame, (cls, gt) in enumerate(observed, start=len(seeded)):
            track.observe(frame, det(frame, box_at(100, 100), conf=0.5, cls=cls, gt=gt))
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
