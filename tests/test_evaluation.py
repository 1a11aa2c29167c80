import dataclasses
import gc
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.hota_oracle import brute_force_hota
from oracles.iou_oracle import iou_matrix
from tsdiag.errors import ValidationError
from tsdiag.evaluation import (
    DEFAULT_ALPHAS,
    boxes_from_records,
    error_report_to_csv,
    error_report_to_text,
    hota,
    hota_report_to_csv,
    range_error_report,
    rmse,
    trajectory_error_report,
)
from tsdiag import evaluation, geodesy
from tsdiag.config import build_config, load_config
from tsdiag.kitti import DetectionRecord, LabelRecord, OxtsSample, parse_label_file
from tsdiag.photogrammetry import bbox_height_at_range, kitti_intrinsics
from tsdiag.pipeline import (
    PipelineResult,
    build_reference_diagram,
    evaluate,
    run_pipeline,
    write_eval_outputs,
)
from tsdiag.synth import write_fixture
from tsdiag.tracker import CONFIRMED, Track, Tracker
from tsdiag.trajectory import TimeSpaceDiagram, TrajectoryPoint, build_diagram, diagram_to_csv

KITTI = kitti_intrinsics()


def gt_record(frame, track_id, depth, center_x=300.0, height=None):
    h = height if height is not None else bbox_height_at_range(depth, "car", KITTI)
    w = 1.1 * h
    return LabelRecord(
        frame_index=frame, class_label="car",
        bbox=(center_x - w / 2, 100.0, center_x + w / 2, 100.0 + h),
        gt_track_id=track_id, gt_location_camera=(-2.0, 1.6, depth))


def simple_diagram(points_by_track, probe=None):
    return TimeSpaceDiagram(
        link_length_m=300.0,
        probe_trajectory=probe or [(0.0, 0.0)],
        vehicle_trajectories=points_by_track,
    )


def traj_points(pairs, quality="ok"):
    return [TrajectoryPoint(time_s=t, probe_distance_m=0.0, camera_range_m=d,
                            quality=quality)
            for t, d in pairs]


class TestRmse:
    def test_equal_inputs_zero(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_offset(self):
        assert rmse([2.0, 2.0], [0.0, 0.0]) == 2.0

    def test_hand_arithmetic(self):
        assert rmse([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-9)
        assert rmse([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(0.8165, abs=1e-4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rmse([], [])

    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                    min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_nonnegative_and_permutation_invariant(self, pairs, rng):
        pred = [p for p, _ in pairs]
        truth = [t for _, t in pairs]
        value = rmse(pred, truth)
        assert value >= 0.0
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert rmse([p for p, _ in shuffled], [t for _, t in shuffled]) == pytest.approx(
            value, rel=1e-12, abs=1e-12)


# boxes on a coarse integer grid: equal and half overlaps are common
grid_boxes = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 6),
                       st.integers(1, 6)).map(
    lambda b: (float(b[0]), float(b[1]), float(b[0] + b[2]), float(b[1] + b[3])))


class TestRangeErrorReport:
    def test_exactly_inverted_boxes_give_zero(self):
        records = [gt_record(f, tid, depth)
                   for f, (tid, depth) in enumerate([(1, 10.0), (1, 20.0),
                                                     (2, 35.0), (2, 50.0)])]
        report = range_error_report(records, KITTI)
        assert report.scenario == "gt_boxes"
        assert report.instance_count == 4
        assert set(report.per_track_rmse_m) == {1, 2}
        for value in report.per_track_rmse_m.values():
            assert value == pytest.approx(0.0, abs=1e-9)

    def test_inflated_boxes_halve_the_range(self):
        depths = [10.0, 20.0, 40.0]
        records = []
        for f, depth in enumerate(depths):
            h = 2.0 * bbox_height_at_range(depth, "car", KITTI)
            records.append(gt_record(f, 1, depth, height=h))
        report = range_error_report(records, KITTI)
        expected = math.sqrt(sum((d / 2 - d) ** 2 for d in depths) / len(depths))
        assert report.per_track_rmse_m[1] == pytest.approx(expected, rel=1e-9)

    def test_hand_arithmetic_single_track(self):
        records = [gt_record(0, 7, 10.0, height=bbox_height_at_range(11.0, "car", KITTI)),
                   gt_record(1, 7, 20.0, height=bbox_height_at_range(19.0, "car", KITTI))]
        report = range_error_report(records, KITTI)
        assert report.per_track_rmse_m[7] == pytest.approx(1.0, rel=1e-9)
        assert report.mean_rmse_m == pytest.approx(1.0, rel=1e-9)

    def test_predicted_scenario_matches_at_half_iou(self):
        gt = [gt_record(0, 1, 20.0)]
        # prediction equal to the annotation: IoU 1, one true positive
        pred_same = [DetectionRecord(frame_index=0, class_label="car",
                                     bbox=gt[0].bbox, confidence=0.9)]
        report = range_error_report(gt, KITTI, predicted=pred_same)
        assert report.scenario == "predicted_boxes"
        assert report.instance_count == 1
        assert report.per_track_rmse_m[1] == pytest.approx(0.0, abs=1e-9)

    def test_predicted_scenario_rejects_poor_overlap(self):
        gt = [gt_record(0, 1, 20.0)]
        left, top, right, bottom = gt[0].bbox
        shifted = (left + 500.0, top, right + 500.0, bottom)
        pred = [DetectionRecord(frame_index=0, class_label="car",
                                bbox=shifted, confidence=0.9)]
        report = range_error_report(gt, KITTI, predicted=pred)
        assert report.instance_count == 0
        assert report.per_track_rmse_m == {}
        assert report.mean_rmse_m == 0.0

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4), grid_boxes), max_size=12),
           st.lists(st.tuples(st.integers(0, 2), grid_boxes), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_predicted_instances_are_hota_true_positives_at_half_overlap(self, labels, boxes):
        labels = [LabelRecord(frame_index=f, class_label="car", bbox=bbox, gt_track_id=tid,
                              gt_location_camera=(-2.0, 1.6, 20.0))
                  for f, tid, bbox in labels]
        dets = [DetectionRecord(frame_index=f, class_label="car", bbox=bbox)
                for f, bbox in boxes]
        report = hota(boxes_from_records(labels),
                      [(d.frame_index, k, d.bbox) for k, d in enumerate(dets)])
        assert DEFAULT_ALPHAS[9] == 0.5
        assert (range_error_report(labels, KITTI, predicted=dets).instance_count
                == report.per_alpha[9]["tp"])

    def test_class_filter(self):
        records = [gt_record(0, 1, 10.0)]
        report = range_error_report(records, KITTI, class_labels=("van",))
        assert report.instance_count == 0


class TestTrajectoryErrorReport:
    def test_identical_diagrams_zero(self):
        points = {1: traj_points([(0.0, 10.0), (0.1, 12.0)])}
        report = trajectory_error_report(simple_diagram(points), simple_diagram(points), {1: 1})
        assert report.per_track_rmse_m[1] == 0.0
        assert report.instance_count == 2

    def test_points_a_tenth_of_a_nanosecond_apart_pair_with_their_own_frame(self):
        # parse_timestamps takes 0.0 then 1e-10 as strictly increasing
        points = {1: traj_points([(0.0, 10.0), (1e-10, 20.0), (0.2, 30.0)])}
        report = trajectory_error_report(simple_diagram(points), simple_diagram(points), {1: 1})
        assert report.per_track_rmse_m[1] == 0.0
        assert report.instance_count == 3

    def test_uniform_shift_gives_that_rmse(self):
        ref = {1: traj_points([(0.0, 10.0), (0.1, 12.0), (0.2, 14.0)])}
        pred = {1: traj_points([(0.0, 13.0), (0.1, 15.0), (0.2, 17.0)])}
        report = trajectory_error_report(simple_diagram(pred), simple_diagram(ref), {1: 1})
        assert report.per_track_rmse_m[1] == pytest.approx(3.0, abs=1e-12)

    def test_no_common_timestamps_skipped_with_warning(self):
        ref = {1: traj_points([(5.0, 10.0)])}
        pred = {1: traj_points([(0.0, 10.0)])}
        report = trajectory_error_report(simple_diagram(pred), simple_diagram(ref), {1: 1})
        assert report.skipped_pairs == 1
        assert report.per_track_rmse_m == {}
        assert report.missed_reference_tracks == 1

    def test_matching_names_the_reference_track(self):
        ref = {9: traj_points([(0.0, 10.0)])}
        pred = {4: traj_points([(0.0, 11.0)])}
        report = trajectory_error_report(simple_diagram(pred), simple_diagram(ref), {4: 9})
        assert report.per_track_rmse_m[4] == pytest.approx(1.0)

    def test_quality_filter(self):
        ref = {1: traj_points([(0.0, 10.0), (0.1, 12.0)])}
        pred_pts = (traj_points([(0.0, 10.0)]) +
                    traj_points([(0.1, 99.0)], quality="above_max_range"))
        report = trajectory_error_report(simple_diagram({1: pred_pts}),
                                         simple_diagram(ref), {1: 1}, quality_ok_only=True)
        assert report.instance_count == 1
        assert report.per_track_rmse_m[1] == 0.0


def _as_detection(record):
    """The label as a detector reports it: its box, no annotation."""
    return DetectionRecord(frame_index=record.frame_index, class_label=record.class_label,
                           bbox=record.bbox)


def _confirmed(track_id, records):
    return Track(track_id=track_id, status=CONFIRMED, records=list(records),
                 ever_confirmed=True)


class TestTrackMatching:
    def test_crossing_tracks_pair_by_their_boxes_not_their_mean_distances(self):
        # car 1 closes in from 10 m to 40 m of range while car 2 recedes from
        # 42 m to 12 m; track 7 sees car 1 only at its last frame and track 8
        # sees car 2 only at its first, so each track's mean link distance
        # lies nearer the other car's mean
        cfg = build_config({})
        gt = ([gt_record(f, 1, depth) for f, depth in enumerate([10.0, 25.0, 40.0])]
              + [gt_record(f, 2, depth, center_x=800.0)
                 for f, depth in enumerate([42.0, 27.0, 12.0])])
        tracks = [_confirmed(7, [_as_detection(gt[2])]), _confirmed(8, [_as_detection(gt[3])])]
        probe = [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)]
        diagram = build_diagram(tracks, probe, cfg.link_length_m, cfg.intrinsics)
        result = PipelineResult(config=cfg, diagram=diagram, tracks=tracks,
                                kept_tracks=tracks,
                                detections=[r for t in tracks for r in t.records],
                                gt_records=gt)
        assert evaluation.track_matching(tracks, gt) == {7: 1, 8: 2}
        report = evaluate(result).trajectory
        assert report.per_track_rmse_m == {7: pytest.approx(0.0, abs=1e-9),
                                           8: pytest.approx(0.0, abs=1e-9)}
        assert report.missed_reference_tracks == 0

    def test_tie_goes_to_the_identity_matched_first(self):
        gt = [gt_record(0, 5, 20.0), gt_record(1, 3, 20.0),
              gt_record(2, 3, 20.0, center_x=900.0)]
        track = _confirmed(1, [_as_detection(r) for r in gt[:2]])
        assert evaluation.track_matching([track], gt) == {1: 5}
        track.records.append(_as_detection(gt[2]))
        assert evaluation.track_matching([track], gt) == {1: 3}

    def test_track_without_a_match_or_never_confirmed_is_left_unpaired(self):
        gt = [gt_record(0, 1, 20.0), gt_record(1, -1, 20.0)]
        far = dataclasses.replace(_as_detection(gt[0]), bbox=(900.0, 0.0, 950.0, 40.0))
        tentative = Track(track_id=3, records=[_as_detection(gt[0])])
        unidentified = _confirmed(4, [_as_detection(gt[1])])
        assert evaluation.track_matching([_confirmed(2, [far]), tentative, unidentified],
                                         gt) == {}

    def test_unidentified_label_takes_the_box_it_overlaps_most(self):
        # the label without an identity overlaps the track's box at IoU 0.9,
        # the one with identity 5 at IoU 0.6: the first takes the box, so
        # the track pairs with no identity
        box = (0.0, 0.0, 10.0, 10.0)
        gt = [LabelRecord(frame_index=0, class_label="car", bbox=(0.0, 0.0, 9.0, 10.0)),
              LabelRecord(frame_index=0, class_label="car", bbox=(0.0, 0.0, 6.0, 10.0),
                          gt_track_id=5)]
        track = _confirmed(1, [DetectionRecord(frame_index=0, class_label="car", bbox=box)])
        assert evaluation.track_matching([track], gt) == {}
        assert evaluation.track_matching([track], gt[1:]) == {1: 5}


def unit_box(x, y, size=10.0):
    return (x, y, x + size, y + size)


class TestHota:
    def test_perfect_tracker(self):
        gt = [(f, 1, unit_box(5.0 * f, 0.0)) for f in range(6)]
        report = hota(gt, gt)
        assert report.hota == pytest.approx(1.0)
        assert report.det_a == pytest.approx(1.0)
        assert report.ass_a == pytest.approx(1.0)
        assert report.loc_a == pytest.approx(1.0)
        assert not report.degenerate

    def test_split_track_instance(self):
        gt = [(f, 1, unit_box(5.0 * f, 0.0)) for f in range(10)]
        pred = [(f, 101 if f < 5 else 102, unit_box(5.0 * f, 0.0)) for f in range(10)]
        report = hota(gt, pred)
        assert report.det_a == pytest.approx(1.0, abs=1e-12)
        assert report.ass_a == pytest.approx(0.5, abs=1e-12)
        assert report.hota == pytest.approx(math.sqrt(0.5), abs=1e-9)
        for row in report.per_alpha:
            assert row["hota"] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_all_frames_missed(self):
        gt = [(f, 1, unit_box(5.0 * f, 0.0)) for f in range(5)]
        report = hota(gt, [])
        assert report.det_a == 0.0
        assert report.hota == 0.0

    def test_empty_everything_degenerate(self):
        report = hota([], [])
        assert report.degenerate
        assert report.hota == 1.0

    @pytest.mark.parametrize("alpha_values", [(), (0.0,), (1.5,), (math.nan,)])
    def test_unusable_alpha_list_rejected(self, alpha_values):
        gt = [(0, 1, unit_box(0.0, 0.0))]
        for pred in (gt, []):
            with pytest.raises(ValidationError, match="alpha_values"):
                hota(gt, pred, alpha_values=alpha_values)
        with pytest.raises(ValidationError, match="alpha_values"):
            hota([], [], alpha_values=alpha_values)

    def test_alpha_grid_default(self):
        assert DEFAULT_ALPHAS[0] == pytest.approx(0.05)
        assert DEFAULT_ALPHAS[-1] == pytest.approx(0.95)
        assert len(DEFAULT_ALPHAS) == 19

    def test_removing_false_positive_never_decreases_det_a(self):
        gt = [(0, 1, unit_box(0.0, 0.0)), (1, 1, unit_box(5.0, 0.0))]
        pred = [(0, 7, unit_box(0.0, 0.0)), (1, 7, unit_box(5.0, 0.0)),
                (1, 8, unit_box(500.0, 0.0))]  # pure false positive
        with_fp = hota(gt, pred)
        without_fp = hota(gt, pred[:-1])
        assert without_fp.det_a >= with_fp.det_a

    def _random_instance(self, rng, n_frames, max_objects):
        gt, pred = [], []
        for f in range(n_frames):
            for tid in range(rng.randint(0, max_objects)):
                x, y = rng.uniform(0, 80), rng.uniform(0, 80)
                gt.append((f, tid, unit_box(x, y)))
                if rng.random() < 0.85:  # noisy, possibly missing prediction
                    dx, dy = rng.uniform(-4, 4), rng.uniform(-4, 4)
                    pid = tid if rng.random() < 0.8 else tid + 10
                    pred.append((f, pid, unit_box(x + dx, y + dy)))
            if rng.random() < 0.3:  # occasional stray false positive
                pred.append((f, 99, unit_box(rng.uniform(0, 80), rng.uniform(0, 80))))
        return gt, pred

    def test_matches_brute_force_on_small_instances(self):
        import random

        alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
        rng = random.Random(42)
        for _ in range(20):
            gt, pred = self._random_instance(rng, n_frames=rng.randint(1, 6),
                                             max_objects=4)
            got = hota(gt, pred, alphas)
            expected = brute_force_hota(gt, pred, alphas)
            assert got.hota == pytest.approx(expected["hota"], abs=1e-9)
            assert got.det_a == pytest.approx(expected["det_a"], abs=1e-9)
            assert got.ass_a == pytest.approx(expected["ass_a"], abs=1e-9)
            assert got.loc_a == pytest.approx(expected["loc_a"], abs=1e-9)


# a coarse grid makes touching, zero-area, inverted and disjoint boxes
# common; the special values check that no pair skips past the oracle
box_coordinates = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
)
frame_boxes = st.lists(st.tuples(box_coordinates, box_coordinates, box_coordinates,
                                 box_coordinates), min_size=1, max_size=5)


class TestOverlapsByFrame:
    @given(st.lists(st.tuples(frame_boxes, frame_boxes), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_equals_iou_matrix_oracle_bit_for_bit(self, frames):
        for a, b in frames:
            overlaps = evaluation._overlaps(a, b)
            assert all(type(value) is float for row in overlaps for value in row)
            with np.errstate(invalid="ignore", over="ignore"):
                expected = iou_matrix(a, b)
            assert np.array(overlaps).shape == (len(a), len(b))
            assert np.array(overlaps).tobytes() == expected.tobytes()

    def test_disjoint_touching_and_empty_pairs_are_zero(self):
        box = (0.0, 0.0, 10.0, 10.0)
        others = [(10.0, 0.0, 20.0, 10.0),   # touches on the right
                  (-10.0, 0.0, 0.0, 10.0),   # touches on the left
                  (0.0, 10.0, 10.0, 20.0),   # touches below
                  (30.0, 0.0, 40.0, 10.0),   # disjoint in x
                  (0.0, 30.0, 10.0, 40.0),   # disjoint in y
                  (5.0, 5.0, 5.0, 8.0),      # zero width, inside
                  (5.0, 0.0, 15.0, 10.0)]    # half overlap
        assert evaluation._overlaps([box], others) == [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                                         50.0 / 150.0]]


def _old_overlap_matches(overlap, threshold):
    """The per-frame matching as it was before thresholds shared solves:
    threshold the cost, solve with scipy, keep the eligible pairs."""
    from scipy.optimize import linear_sum_assignment

    cost = np.where(overlap >= threshold, -overlap, 0.0)
    rows, cols = linear_sum_assignment(cost)
    return [(i, j, overlap[i, j]) for i, j in zip(rows.tolist(), cols.tolist())
            if overlap[i, j] >= threshold and cost[i, j] < 0.0]


@st.composite
def overlap_matrices(draw):
    """IoU matrices of boxes on a coarse grid: overlaps, conflicts and equal
    IoU values are common; some rows are zeroed."""
    def boxes(n):
        corners = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2),
                                          st.integers(1, 3), st.integers(1, 3)),
                                min_size=n, max_size=n))
        return [(10.0 * x, 10.0 * y, 10.0 * (x + w), 10.0 * (y + h)) for x, y, w, h in corners]

    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    overlap = iou_matrix(boxes(n), boxes(m))
    zero_rows = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    overlap[np.array(zero_rows)] = 0.0
    return overlap


def counting_solver(monkeypatch):
    calls = []
    real = evaluation.solve_assignment
    monkeypatch.setattr(evaluation, "solve_assignment",
                        lambda cost: calls.append(cost) or real(cost))
    return calls


class TestOverlapMatches:
    @given(overlap_matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_threshold_solve_filter(self, overlap, data):
        thresholds = [0.0, *DEFAULT_ALPHAS, data.draw(st.sampled_from(overlap.ravel().tolist()))]
        # any order: equal eligible counts of neighbouring thresholds still mean equal sets
        thresholds = data.draw(st.permutations(thresholds))
        got = evaluation._overlap_matches(overlap.tolist(), thresholds)
        assert len(got) == len(thresholds)
        for threshold, matches in zip(thresholds, got):
            assert matches == _old_overlap_matches(overlap, threshold), threshold

    def test_equal_eligible_sets_share_one_solve(self, monkeypatch):
        calls = counting_solver(monkeypatch)
        overlap = [[0.0, 0.8, 0.0], [0.6, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert evaluation._overlap_matches(overlap, [0.0, 0.5, 0.7, 0.75, 0.9]) == [
            [(0, 1, 0.8), (1, 0, 0.6)], [(0, 1, 0.8), (1, 0, 0.6)],
            [(0, 1, 0.8)], [(0, 1, 0.8)], []]
        # one solve with two eligible pairs, one with one, none with none
        assert len(calls) == 2

    def test_no_eligible_pair_needs_no_solve(self, monkeypatch):
        calls = counting_solver(monkeypatch)
        overlap = [[0.5, 0.4], [0.4, 0.0]]
        assert evaluation._overlap_matches(overlap, [0.6, 0.9]) == [[], []]
        assert evaluation._overlap_matches([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [0.0]) == [[]]
        assert calls == []
        # at 0.3 row 0 and column 0 each hold two eligible pairs
        assert evaluation._overlap_matches(overlap, [0.3]) == [[(0, 1, 0.4), (1, 0, 0.4)]]
        assert len(calls) == 1


class TestSerialization:
    def test_error_report_text_and_csv(self):
        records = [gt_record(0, 3, 10.0), gt_record(1, 5, 20.0)]
        report = range_error_report(records, KITTI)
        text = error_report_to_text(report)
        assert "scenario = gt_boxes" in text
        assert "track_id rmse_m" in text
        csv = error_report_to_csv(report)
        assert csv.splitlines()[0] == "track_id,rmse_m"
        assert len(csv.splitlines()) == 3

    def test_hota_csv_columns(self):
        gt = [(0, 1, unit_box(0.0, 0.0))]
        report = hota(gt, gt)
        lines = hota_report_to_csv(report).splitlines()
        assert lines[0] == "alpha,det_a,ass_a,loc_a,hota,tp,fn,fp"
        assert len(lines) == 1 + len(DEFAULT_ALPHAS)

    def test_boxes_from_records_excludes_dontcare(self):
        # the label reader leaves a DontCare row out, even one with an identity
        lines = ["0 1 Car 0 0 0.0 100.0 100.0 150.0 150.0 1.5 1.6 3.9 -2.0 1.6 10.0 0.0",
                 "0 7 DontCare 0 0 0.0 0.0 0.0 5.0 5.0 1.5 1.6 3.9 -4.0 1.6 30.0 0.0"]
        assert boxes_from_records(parse_label_file(lines)) == [
            (0, 1, (100.0, 100.0, 150.0, 150.0))]


class TestDontCare:
    # KITTI marks unannotated regions with DontCare rows: the first as the
    # dataset writes them, the second carrying an identity and a depth, so
    # nothing but its type keeps it out of the reference diagram
    DONTCARE_ROWS = [
        "5 -1 DontCare -1 -1 -10 900.0 50.0 950.0 100.0 -1 -1 -1 -1000 -1000 -1000 -10",
        "40 7 DontCare 0 0 0.0 1000.0 40.0 1060.0 90.0 1.5 1.6 3.9 -4.0 1.6 30.0 0.0",
    ]

    def _run(self, directory):
        cfg = load_config(os.path.join(directory, "config.ini"))
        result = run_pipeline(cfg)
        reference = build_reference_diagram(result.gt_records,
                                            result.diagram.probe_trajectory, cfg)
        return result, diagram_to_csv(reference)

    def test_dontcare_rows_reach_neither_detections_nor_reference(self, tmp_path):
        directory = str(tmp_path / "scene")
        write_fixture(directory)
        clean, clean_reference = self._run(directory)
        with open(os.path.join(directory, "labels.txt"), "a") as fh:
            fh.write("\n".join(self.DONTCARE_ROWS) + "\n")
        result, reference = self._run(directory)
        assert result.gt_records == clean.gt_records
        assert result.detections == clean.detections
        assert reference == clean_reference
        # the probe (track id 0) and the car; no row of a DontCare region
        assert {row.split(",")[0] for row in reference.splitlines()[1:]} == {"0", "1"}


class TestReferenceDiagram:
    PROBE = [(f / 10.0, 2.0 * f) for f in range(4)]

    @staticmethod
    def _at(record, lateral_x):
        return dataclasses.replace(record, gt_location_camera=(lateral_x, 1.6, record.gt_depth_m))

    def _identities(self, labels, **values):
        return set(build_reference_diagram(labels, self.PROBE,
                                           build_config(values)).vehicle_trajectories)

    def test_one_trajectory_per_identity_at_annotated_depth(self):
        # rows out of frame order, with boxes whose heights give other ranges
        labels = [gt_record(2, 4, 30.0, height=50.0), gt_record(1, 9, 20.0, height=50.0),
                  gt_record(0, 4, 37.5, height=50.0)]
        reference = build_reference_diagram(labels, self.PROBE, build_config({}))
        assert sorted(reference.vehicle_trajectories) == [4, 9]
        assert [(p.time_s, p.probe_distance_m, p.camera_range_m, p.link_distance_m, p.quality)
                for p in reference.vehicle_trajectories[4]] == [
            (0.0, 0.0, 37.5, 37.5, "ok"), (0.2, 4.0, 30.0, 34.0, "ok")]
        assert reference.probe_trajectory == self.PROBE

    def test_median_annotated_offset_decides(self):
        # identity 1 drives in the probe's lane but on the oncoming side of
        # the image; identity 2 is oncoming at the image's far right, with
        # one stray offset that moves its mean past the threshold
        labels = ([self._at(gt_record(f, 1, 20.0, center_x=100.0), 2.0) for f in range(3)]
                  + [self._at(gt_record(f, 2, 20.0, center_x=1200.0), x)
                     for f, x in enumerate([-3.0, -2.0, 4.0])])
        assert self._identities(labels) == {2}
        assert self._identities(labels, traffic_side="left") == {1}
        assert self._identities(labels, lane_offset_threshold_m="-2.5") == set()
        assert self._identities(labels, lane_filter="false") == {1, 2}

    def test_unusable_rows_left_out(self):
        # left out: no identity, a class not configured, a non-positive
        # depth, no location, and a class no configuration can name
        dontcare = LabelRecord(frame_index=0, class_label="dontcare",
                               bbox=(0.0, 0.0, 5.0, 5.0), gt_track_id=5,
                               gt_location_camera=(-4.0, 1.6, 30.0))
        labels = [gt_record(0, 1, 20.0), gt_record(1, -1, 20.0),
                  dataclasses.replace(gt_record(0, 2, 20.0), class_label="van"),
                  dataclasses.replace(gt_record(0, 3, 20.0), gt_location_camera=(-2.0, 1.6, 0.0)),
                  dataclasses.replace(gt_record(0, 6, 20.0), gt_location_camera=None),
                  dontcare]
        assert self._identities(labels) == {1}
        assert self._identities(labels, classes="car,van", class_heights="car:1.5,van:2") \
            == {1, 2}

    def test_points_are_placed_as_in_the_run_diagram(self):
        # one placement for both diagrams: a 5 m link keeps points up to
        # 5 + OUT_OF_LINK_MARGIN_M ok, and a frame without a fix is an error
        labels = [gt_record(0, 1, 24.0), gt_record(1, 1, 24.0)]
        reference = build_reference_diagram(labels, self.PROBE,
                                            build_config({"link_length_m": "5"}))
        assert [p.quality for p in reference.vehicle_trajectories[1]] == ["ok", "out_of_link"]
        with pytest.raises(ValidationError, match="frame 7 has no GPS sample"):
            build_reference_diagram([gt_record(7, 1, 20.0)], self.PROBE, build_config({}))


class TestProbeTrajectory:
    def test_one_geodesic_solve_per_fix_per_run_and_eval(self, tmp_path, monkeypatch):
        # the run's diagram and the reference diagram share one probe
        # trajectory, so evaluating does not solve each fix again
        cfg = load_config(write_fixture(str(tmp_path / "scene")),
                          {"distance_mode": "direct", "output_dir": str(tmp_path / "out")})
        solve = geodesy.geodesic_inverse
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(geodesy, "geodesic_inverse", counted)
        write_eval_outputs(run_pipeline(cfg))
        assert len(calls) == 100  # the fixture's fixes

    def test_gps_fixes_are_freed_before_tracking(self, tmp_path, monkeypatch):
        # ingest keeps only the probe distances; the fixes are not held
        # through tracking and the diagram
        cfg = load_config(write_fixture(str(tmp_path / "scene")))
        run = Tracker.run
        alive = []

        def fixes_alive():
            return sum(isinstance(obj, OxtsSample) for obj in gc.get_objects())

        def counted(self, *args, **kwargs):
            alive.append(fixes_alive())
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Tracker, "run", counted)
        before = fixes_alive()
        run_pipeline(cfg)
        assert alive == [before]
