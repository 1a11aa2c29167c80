import statistics

import pytest
from hypothesis import assume, given, settings, strategies as st

import tsdiag.trajectory
from tsdiag.config import PipelineConfig, load_config
from tsdiag.errors import ParseError, ValidationError
from tsdiag.kitti import DetectionRecord, LabelRecord
from tsdiag.photogrammetry import bbox_height_at_range, kitti_intrinsics, range_from_height
from tsdiag.pipeline import build_reference_diagram, run_pipeline
from tsdiag.synth import write_fixture
from tsdiag.tracker import Track
from tsdiag.trajectory import (
    OUT_OF_LINK_MARGIN_M,
    LaneFilterConfig,
    TimeSpaceDiagram,
    TrajectoryPoint,
    _median,
    build_diagram,
    diagram_from_csv,
    diagram_to_csv,
    is_oncoming,
    observe,
    opposite_lane_filter,
    place_point,
    smooth_diagram,
    smooth_track,
)

KITTI = kitti_intrinsics()
_CSV_HEADER = "track_id,time_s,link_distance_m,probe_distance_m,camera_range_m,quality"
CAR_RANGE_AT_100PX = 406644.0 / 36200.0


def make_track(track_id, entries, confirmed=True, track_type=Track):
    """entries: list of (frame, bbox)."""
    records = [DetectionRecord(frame_index=frame, class_label="car", bbox=bbox)
               for frame, bbox in entries]
    return track_type(
        track_id=track_id,
        status="confirmed" if confirmed else "tentative",
        records=records,
        ever_confirmed=confirmed,
    )


class LabelReadCounter(Track):
    """A track that counts the reads of its class label."""

    reads = 0

    @property
    def class_label(self) -> str:
        self.reads += 1
        return super().class_label


def box_with_height(center_x, height, top=100.0):
    w = 1.1 * height
    return (center_x - w / 2, top, center_x + w / 2, top + height)


def pinhole_track(lateral_m, ranges_m, edge_jitter_px=None):
    """A car at a lateral camera offset, one frame per range, boxed by the
    pinhole model: height from bbox_height_at_range, centre at
    W/2 + f * X / r; edge_jitter_px adds (left, top, right, bottom) per box."""
    entries = []
    for frame, range_m in enumerate(ranges_m):
        height = bbox_height_at_range(range_m, "car", KITTI)
        center_x = KITTI.image_width_px / 2 + KITTI.focal_length_px * lateral_m / range_m
        box = box_with_height(center_x, height, top=150.0)
        if edge_jitter_px is not None:
            box = tuple(edge + noise for edge, noise in zip(box, edge_jitter_px[frame]))
        entries.append((frame, box))
    return make_track(1, entries)


def estimated_range(record):
    """The camera range a box gives for a car."""
    return range_from_height(record.height, "car", KITTI).distance_m


def estimated_offset(record):
    """The lateral offset a box gives: (center_x - W/2) * r / f."""
    return (record.center_x - KITTI.image_width_px / 2) * estimated_range(record) / (
        KITTI.focal_length_px)


def lane_filter(tracks, intrinsics, config=None):
    """The tracks opposite_lane_filter keeps of what observe gives for them."""
    kept = opposite_lane_filter(observe(tracks, intrinsics), config)
    return [t for t in tracks if t.track_id in kept]


def make_probe(n_frames, metres_per_frame=0.0):
    """The probe's (time, link distance) at 10 Hz, one pair per frame."""
    return [(f / 10.0, f * metres_per_frame) for f in range(n_frames)]


def link_distance(probe_distance_m, camera_range_m):
    return TrajectoryPoint(time_s=0.0, probe_distance_m=probe_distance_m,
                           camera_range_m=camera_range_m).link_distance_m


class TestComposeDistance:
    # a point's link distance is derived: probe distance plus camera range
    def test_worked_example(self):
        assert link_distance(50.0, CAR_RANGE_AT_100PX) == pytest.approx(61.2332, abs=1e-3)

    def test_probe_at_link_start(self):
        assert link_distance(0.0, 7.5) == 7.5

    def test_colocated_vehicle(self):
        assert link_distance(12.25, 0.0) == 12.25


class TestOppositeLaneFilter:
    WIDTH = KITTI.image_width_px

    def test_left_side_closing_track_kept(self):
        heights = [20.0, 25.0, 31.0, 40.0]  # shrinking range
        track = make_track(1, [(f, box_with_height(0.25 * self.WIDTH, h))
                               for f, h in enumerate(heights)])
        assert lane_filter([track], KITTI) == [track]

    def test_wrong_side_removed(self):
        heights = [20.0, 25.0, 31.0, 40.0]
        track = make_track(1, [(f, box_with_height(0.8 * self.WIDTH, h))
                               for f, h in enumerate(heights)])
        assert lane_filter([track], KITTI) == []

    def test_annotations_are_not_read(self):
        # a label that places the car in the probe's own lane, boxed far to
        # the oncoming side: only the offsets the boxes give count
        heights = [20.0, 25.0, 31.0, 40.0]
        records = [LabelRecord(frame_index=f, class_label="car",
                               bbox=box_with_height(0.25 * self.WIDTH, h), gt_track_id=1,
                               gt_location_camera=(2.0, 1.6, 10.0))
                   for f, h in enumerate(heights)]
        track = Track(track_id=1, status="confirmed", records=records, ever_confirmed=True)
        assert lane_filter([track], KITTI) == [track]

    def test_receding_track_on_the_oncoming_side_kept(self):
        # only the offsets decide, not how the box heights evolve
        heights = [40.0, 31.0, 25.0, 20.0]
        track = make_track(1, [(f, box_with_height(0.25 * self.WIDTH, h))
                               for f, h in enumerate(heights)])
        assert lane_filter([track], KITTI) == [track]

    def test_passing_v_shape_kept(self):
        heights = [20.0, 30.0, 45.0, 30.0, 20.0]  # closes, passes, recedes
        track = make_track(1, [(f, box_with_height(0.25 * self.WIDTH, h))
                               for f, h in enumerate(heights)])
        assert lane_filter([track], KITTI) == [track]

    def test_left_hand_traffic_mirrors_sides(self):
        config = LaneFilterConfig(traffic_side="left")
        heights = [20.0, 25.0, 31.0, 40.0]
        right_track = make_track(1, [(f, box_with_height(0.8 * self.WIDTH, h))
                                     for f, h in enumerate(heights)])
        assert lane_filter([right_track], KITTI, config) == [right_track]
        left_track = make_track(2, [(f, box_with_height(0.2 * self.WIDTH, h))
                                    for f, h in enumerate(heights)])
        assert lane_filter([left_track], KITTI, config) == []

    def test_idempotent(self):
        heights = [20.0, 25.0, 31.0, 40.0]
        tracks = [
            make_track(1, [(f, box_with_height(0.25 * self.WIDTH, h))
                           for f, h in enumerate(heights)]),
            make_track(2, [(f, box_with_height(0.9 * self.WIDTH, h))
                           for f, h in enumerate(heights)]),
        ]
        once = lane_filter(tracks, KITTI)
        twice = lane_filter(once, KITTI)
        assert once == twice

    def test_disabled_filter_keeps_everything(self):
        config = LaneFilterConfig(enabled=False)
        track = make_track(1, [(0, box_with_height(0.9 * self.WIDTH, 20.0))])
        assert lane_filter([track], KITTI, config) == [track]

    def test_empty_input(self):
        assert lane_filter([], KITTI) == []

    def test_principal_point_is_half_the_camera_width(self):
        # boxes centred at 500 px: dead ahead on a 1000-px camera, well to
        # the oncoming side on the 1242-px KITTI one
        heights = [20.0, 25.0, 31.0, 40.0]
        track = make_track(1, [(f, box_with_height(500.0, h)) for f, h in enumerate(heights)])
        assert lane_filter([track], KITTI._replace(image_width_px=1000.0)) == []
        assert lane_filter([track], KITTI) == [track]

    @pytest.mark.parametrize("side, lateral_m, kept", [
        ("right", 0.0, False), ("right", -0.3, False), ("right", -3.5, True),
        ("right", 3.5, False),
        ("left", 0.0, False), ("left", 0.3, False), ("left", 3.5, True), ("left", -3.5, False)])
    def test_kept_by_estimated_lateral_offset(self, side, lateral_m, kept):
        # noise-free boxes over 40 to 8 m: a lead dead ahead, or 0.3 m to
        # the oncoming side of the camera axis, drives in the probe's lane
        # although its box centres lie on the oncoming half of the image
        track = pinhole_track(lateral_m, [40.0, 30.0, 20.0, 12.0, 8.0])
        config = LaneFilterConfig(traffic_side=side)
        assert lane_filter([track], KITTI, config) == (
            [track] if kept else [])

    @given(st.sampled_from(["right", "left"]), st.floats(-12.0, 12.0),
           st.lists(st.tuples(st.floats(5.0, 60.0), st.tuples(*[st.floats(-1.0, 1.0)] * 4)),
                    min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_kept_exactly_on_the_oncoming_side_of_the_threshold(self, side, lateral_m, boxes):
        # at least 1 m from the threshold, 1 px of edge noise at up to 60 m
        # cannot move a track's estimated offset across it
        config = LaneFilterConfig(traffic_side=side)
        threshold = config.lane_offset_threshold_m * (1.0 if side == "right" else -1.0)
        assume(abs(lateral_m - threshold) >= 1.0)
        ranges, noise = zip(*boxes)
        track = pinhole_track(lateral_m, ranges, noise)
        oncoming = lateral_m <= threshold if side == "right" else lateral_m >= threshold
        assert lane_filter([track], KITTI, config) == (
            [track] if oncoming else [])

    @given(st.sampled_from(["right", "left"]), st.floats(-4.0, 4.0),
           st.lists(st.tuples(st.floats(5.0, 60.0), st.tuples(*[st.floats(-1.0, 1.0)] * 4)),
                    min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_run_and_reference_agree_on_the_same_offsets(self, side, lateral_m, boxes):
        # labels annotated with the ranges and offsets their boxes give: the
        # reference diagram keeps the identity exactly when the run keeps the
        # track, and places it at the run's points
        ranges, noise = zip(*boxes)
        track = pinhole_track(lateral_m, ranges, noise)
        labels = [LabelRecord(frame_index=r.frame_index, class_label="car", bbox=r.bbox,
                              gt_track_id=1,
                              gt_location_camera=(estimated_offset(r), 1.6, estimated_range(r)))
                  for r in track.records]
        cfg = PipelineConfig(lane=LaneFilterConfig(traffic_side=side))
        probe = make_probe(len(labels))
        reference = build_reference_diagram(labels, probe, cfg)
        kept = lane_filter([track], KITTI, cfg.lane)
        assert bool(kept) == (1 in reference.vehicle_trajectories)
        run = build_diagram(opposite_lane_filter(observe([track], KITTI), cfg.lane), probe,
                            cfg.link_length_m)
        assert reference.vehicle_trajectories == run.vehicle_trajectories


class TestIsOncoming:
    def test_median_against_the_threshold(self):
        right, left = LaneFilterConfig(), LaneFilterConfig(traffic_side="left")
        assert is_oncoming([-1.5], right) and not is_oncoming([-1.4], right)
        assert is_oncoming([1.5], left) and not is_oncoming([1.4], left)
        # one stray offset does not move the median
        assert is_oncoming([-3.0, -2.0, 4.0], right)
        assert not is_oncoming([-3.0, 1.0, 4.0], right)

    # the edges of the float range too: the mean of two values near 1e308 overflows
    _FLOATS = st.floats(allow_nan=False) | st.sampled_from(
        [0.0, -0.0, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308])

    @given(st.lists(_FLOATS, min_size=1, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_median_is_statistics_median_bit_for_bit(self, values):
        # float.hex tells -0.0 from 0.0, and nan from inf
        assert _median(values).hex() == statistics.median(values).hex()
        assert _median(values + values[:1]).hex() == statistics.median(values + values[:1]).hex()


class TestBuildDiagram:
    def test_stationary_probe_fixed_car(self):
        height = 100.0
        track = make_track(1, [(f, box_with_height(300.0, height)) for f in range(10)])
        probe = make_probe(10)  # probe parked at the link start
        diagram = build_diagram(observe([track], KITTI), probe, 300.0)
        points = diagram.vehicle_trajectories[1]
        assert len(points) == 10
        assert points[0].time_s == 0.0
        assert points[-1].time_s == pytest.approx(0.9)
        for p in points:
            assert p.link_distance_m == pytest.approx(CAR_RANGE_AT_100PX, abs=1e-6)
            assert p.probe_distance_m == 0.0
            assert p.quality == "ok"

    def test_advancing_probe_slope(self):
        # 1.113195 m/frame = 11.13195 m/s at 10 Hz
        height = 100.0
        track = make_track(1, [(f, box_with_height(300.0, height)) for f in range(10)])
        diagram = build_diagram(observe([track], KITTI), make_probe(10, 1.113195), 300.0)
        points = diagram.vehicle_trajectories[1]
        slope = ((points[-1].link_distance_m - points[0].link_distance_m)
                 / (points[-1].time_s - points[0].time_s))
        assert slope == pytest.approx(11.13195, abs=1e-9)

    def test_record_takes_time_and_probe_distance_of_its_frame(self):
        # explicit, uneven timestamps: frame f is the probe trajectory's entry f
        probe = [(0.0, 0.0), (0.15, 2.0), (0.22, 3.5), (0.4, 7.0)]
        track = make_track(1, [(f, box_with_height(300.0, 100.0)) for f in (1, 3)])
        diagram = build_diagram(observe([track], KITTI), probe, 300.0)
        points = diagram.vehicle_trajectories[1]
        assert [(p.time_s, p.probe_distance_m) for p in points] == [(0.15, 2.0), (0.4, 7.0)]
        assert diagram.probe_trajectory == probe

    def test_no_confirmed_tracks_probe_only(self):
        tentative = make_track(1, [(0, box_with_height(300.0, 50.0))], confirmed=False)
        diagram = build_diagram(observe([tentative], KITTI), make_probe(5), 300.0)
        assert diagram.vehicle_trajectories == {}
        assert len(diagram.probe_trajectory) == 5

    def test_missing_oxts_frame_names_frame(self):
        track = make_track(1, [(7, box_with_height(300.0, 50.0)),
                               (8, box_with_height(300.0, 51.0))])
        with pytest.raises(ValidationError, match="frame 7") as failure:
            build_diagram(observe([track], KITTI), make_probe(5), 300.0)
        assert str(failure.value) == "vehicle 1: frame 7 has no GPS sample"

    def test_identity_holds_bit_exact(self):
        heights = [30.0, 35.0, 41.0, 50.0, 66.0]
        track = make_track(1, [(f, box_with_height(250.0, h))
                               for f, h in enumerate(heights)])
        diagram = build_diagram(observe([track], KITTI), make_probe(5, 2.2263898), 300.0)
        for p in diagram.vehicle_trajectories[1]:
            assert p.link_distance_m == p.probe_distance_m + p.camera_range_m

    def test_out_of_link_flagging(self):
        # a 5 m link keeps points up to 5 + OUT_OF_LINK_MARGIN_M (20 m) ok
        heights = [bbox_height_at_range(r, "car", KITTI) for r in (24.0, 26.0)]
        track = make_track(1, [(f, box_with_height(300.0, h)) for f, h in enumerate(heights)])
        diagram = build_diagram(observe([track], KITTI), make_probe(2), 5.0)
        assert OUT_OF_LINK_MARGIN_M == 20.0
        assert [p.quality for p in diagram.vehicle_trajectories[1]] == ["ok", "out_of_link"]

    def test_gt_depth_reference_mode(self):
        # the reference diagram ranges a label by its annotated depth, not
        # its box, and places it with the place_point build_diagram uses
        height = bbox_height_at_range(40.0, "car", KITTI)
        label = LabelRecord(frame_index=1, class_label="car",
                            bbox=box_with_height(300.0, height), gt_track_id=3,
                            gt_location_camera=(-2.0, 1.6, 37.5))
        probe = make_probe(2, 1.5)
        reference = build_reference_diagram([label], probe, PipelineConfig())
        assert reference.vehicle_trajectories == {3: [place_point(probe, 1, 37.5, "ok", 300.0)]}
        assert reference.vehicle_trajectories[3][0].camera_range_m == 37.5

    def test_quality_flags_retained_not_dropped(self):
        far = bbox_height_at_range(140.0, "car", KITTI)  # past the 120 m cutoff
        tiny = 5.0  # below the 8 px floor
        track = make_track(1, [(0, box_with_height(300.0, 100.0)),
                               (1, box_with_height(300.0, far)),
                               (2, box_with_height(300.0, tiny))])
        diagram = build_diagram(observe([track], KITTI), make_probe(3), 300.0)
        qualities = [p.quality for p in diagram.vehicle_trajectories[1]]
        assert qualities == ["ok", "above_max_range", "below_min_height"]
        assert len(diagram.vehicle_trajectories[1]) == 3


    def test_class_label_read_once_per_track(self):
        # the label counts over every record when read, so a read per
        # record would make observing quadratic in track length
        lengths = (1, 5, 40)
        tracks = [make_track(k + 1, [(f, box_with_height(300.0, 60.0)) for f in range(n)],
                             track_type=LabelReadCounter)
                  for k, n in enumerate(lengths)]
        observed = observe(tracks, KITTI)
        assert [len(observed[t.track_id]) for t in tracks] == [1, 5, 40]
        assert [t.reads for t in tracks] == [1, 1, 1]

    def test_run_ranges_each_box_of_a_confirmed_track_once(self, tmp_path, monkeypatch):
        # the lane filter and the diagram read the same observations, so a
        # kept car's boxes are not ranged a second time
        ranged = []
        range_from_height = tsdiag.trajectory.range_from_height

        def counting(*args, **kwargs):
            ranged.append(args)
            return range_from_height(*args, **kwargs)

        monkeypatch.setattr(tsdiag.trajectory, "range_from_height", counting)
        result = run_pipeline(load_config(write_fixture(str(tmp_path))))
        assert result.diagram.vehicle_trajectories
        assert len(ranged) == sum(len(t.records) for t in result.tracks if t.ever_confirmed)


class TestSmoothing:
    def _points(self, link_values, probe=5.0):
        return [TrajectoryPoint(time_s=0.1 * i, probe_distance_m=probe,
                                camera_range_m=v - probe)
                for i, v in enumerate(link_values)]

    def test_window_one_is_identity(self):
        points = self._points([10.0, 12.0, 9.0])
        assert smooth_track(points, 1) == points

    def test_flicker_spike_removed(self):
        points = self._points([10.0, 10.0, 50.0, 10.0, 10.0])
        smoothed = smooth_track(points, 3)
        assert [p.link_distance_m for p in smoothed] == pytest.approx([10.0] * 5)

    def test_monotone_preserved(self):
        values = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0]
        smoothed = smooth_track(self._points(values), 3)
        out = [p.link_distance_m for p in smoothed]
        assert all(a <= b + 1e-9 for a, b in zip(out, out[1:]))

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            smooth_track(self._points([1.0, 2.0]), 2)

    def test_timestamps_unchanged_and_identity_exact(self):
        points = self._points([10.0, 40.0, 12.0, 11.0, 35.0])
        smoothed = smooth_track(points, 5)
        assert [p.time_s for p in smoothed] == [p.time_s for p in points]
        for p in smoothed:
            assert p.link_distance_m == p.probe_distance_m + p.camera_range_m

    @given(st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=30),
           st.sampled_from([1, 3, 5, 7]))
    @settings(max_examples=60)
    def test_values_stay_within_window_bounds(self, values, window):
        points = self._points(values)
        smoothed = smooth_track(points, window)
        half = window // 2
        for i, p in enumerate(smoothed):
            lo = max(0, i - half)
            hi = min(len(values), i + half + 1)
            assert min(values[lo:hi]) - 1e-9 <= p.link_distance_m <= max(values[lo:hi]) + 1e-9


class TestDiagramCsv:
    def _diagram(self):
        heights = [40.0, 50.0, 66.0]
        track = make_track(1, [(f, box_with_height(250.0, h))
                               for f, h in enumerate(heights)])
        return build_diagram(observe([track], KITTI), make_probe(3, 1.113195), 300.0)

    def test_header_and_probe_rows(self):
        diagram = self._diagram()
        text = diagram_to_csv(diagram)
        lines = text.strip().split("\n")
        assert lines[0] == "track_id,time_s,link_distance_m,probe_distance_m,camera_range_m,quality"
        probe_rows = [ln for ln in lines[1:] if ln.startswith("0,")]
        assert len(probe_rows) == 3
        assert probe_rows[0] == "0,0.000000,0.000000,0.000000,0.000000,ok"

    def test_serialization_deterministic(self):
        assert diagram_to_csv(self._diagram()) == diagram_to_csv(self._diagram())

    def test_round_trip_structure(self):
        diagram = self._diagram()
        parsed = diagram_from_csv(diagram_to_csv(diagram).splitlines(), link_length_m=300.0)
        assert len(parsed.probe_trajectory) == len(diagram.probe_trajectory)
        assert set(parsed.vehicle_trajectories) == set(diagram.vehicle_trajectories)
        for tid, points in diagram.vehicle_trajectories.items():
            got = parsed.vehicle_trajectories[tid]
            assert len(got) == len(points)
            for a, b in zip(points, got):
                assert b.link_distance_m == pytest.approx(a.link_distance_m, abs=1e-6)
                assert b.quality == a.quality

    @pytest.mark.parametrize("row, column", [
        ("1,nan,inf,1,2,ok", "time_s"),
        ("1,0.5,inf,1,2,ok", "link_distance_m"),
        ("1,0.5,3,-inf,2,ok", "probe_distance_m"),
        ("1,0.5,3,1,NaN,ok", "camera_range_m"),
    ])
    def test_reader_rejects_non_finite_values(self, row, column):
        text = diagram_to_csv(self._diagram()) + row + "\n"
        line_no = text.count("\n")
        with pytest.raises(ParseError, match=rf"^line {line_no}: non-finite {column} "):
            diagram_from_csv(text.splitlines())

    def test_reader_rejects_broken_identity(self):
        # a link cell more than the rounding of three cells off probe + range
        for link in ("4.000003", "3.999997", "1.000000"):
            lines = diagram_to_csv(self._diagram()).splitlines() + [f"1,9.9,{link},2,2,ok"]
            with pytest.raises(ValidationError, match=rf"^line {len(lines)}: link_distance_m "
                                                      rf"'{link}' is not "):
                diagram_from_csv(lines)

    def test_reader_takes_the_link_within_rounding(self):
        lines = diagram_to_csv(self._diagram()).splitlines()
        for link in ("4.000001", "3.999999"):
            diagram = diagram_from_csv(lines + [f"9,9.9,{link},2,2,ok"])
            assert diagram.vehicle_trajectories[9][0].link_distance_m == 4.0

    def test_error_names_the_line_of_the_file(self):
        # blank lines keep their place in the line count
        lines = [_CSV_HEADER, "", "0,nan,0,0,0,ok"]
        with pytest.raises(ParseError, match=r"^line 3: non-finite time_s 'nan'$"):
            diagram_from_csv(lines)
        with pytest.raises(ParseError, match=r"^line 5: "):
            diagram_from_csv(["", " ", _CSV_HEADER, "0,0,0,0,0,ok", "0,0,0,0,0,okay"])

    @pytest.mark.parametrize("quality", ["okay", "OK", "", "1", " ok", "below-min-height"])
    def test_reader_rejects_an_unknown_quality(self, quality):
        lines = [_CSV_HEADER, "0,0,0,0,0,ok", f"1,0,5,0,5,{quality}"]
        with pytest.raises(ParseError, match=rf"^line 3: unknown quality {quality!r}$"):
            diagram_from_csv(lines)

    def test_reader_takes_every_quality_flag(self):
        flags = ["ok", "below_min_height", "above_max_range", "out_of_link"]
        lines = [_CSV_HEADER] + [f"1,{k},5,0,5,{flag}" for k, flag in enumerate(flags)]
        diagram = diagram_from_csv(lines)
        assert [p.quality for p in diagram.vehicle_trajectories[1]] == flags

    def test_reader_rejects_a_probe_row_with_a_range(self):
        lines = [_CSV_HEADER, "0,0.000000,10.000000,10.000000,0.000000,ok",
                 "0,0.100000,40.000000,11.000000,29.000000,ok"]
        with pytest.raises(ParseError, match=r"^line 3: probe row \(track_id 0\) has "
                                             r"camera_range_m '29.000000', not 0$"):
            diagram_from_csv(lines)

    @given(st.text(alphabet="0123456789+-_ ", min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_only_a_written_track_id_reads_back(self, token):
        # int() takes "00", "-0", "+1", " 1" and "1_0"; "00" used to read as
        # a probe row and "-3" as vehicle -3
        lines = [_CSV_HEADER, f"{token},0.100000,5.000000,5.000000,0.000000,ok"]
        written = token.isdigit() and (token == "0" or not token.startswith("0"))
        if not written:
            with pytest.raises(ParseError, match=r"^line 2: (non-numeric column|track_id )"):
                diagram_from_csv(lines)
            return
        diagram = diagram_from_csv(lines)
        if token == "0":
            assert diagram.probe_trajectory == [(0.1, 5.0)]
            assert diagram.vehicle_trajectories == {}
        else:
            assert diagram.probe_trajectory == []
            assert list(diagram.vehicle_trajectories) == [int(token)]

    @given(st.lists(st.tuples(st.integers(1, 4), st.floats(0.0, 1e4), st.floats(-1e4, 1e5),
                              st.floats(-150.0, 150.0), st.sampled_from(
                                  ["ok", "below_min_height", "above_max_range",
                                   "out_of_link"])), min_size=1, max_size=12),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_written_rows_read_back_and_a_moved_link_cell_fails(self, rows, data):
        points = {}
        for track_id, time_s, probe_distance, camera_range, quality in rows:
            points.setdefault(track_id, []).append(TrajectoryPoint(
                time_s=time_s, probe_distance_m=probe_distance,
                camera_range_m=camera_range, quality=quality))
        diagram = TimeSpaceDiagram(300.0, [(0.0, 0.0)], points)
        lines = diagram_to_csv(diagram).splitlines()
        parsed = diagram_from_csv(lines)
        for track_id, written in points.items():
            read = parsed.vehicle_trajectories[track_id]
            assert [p.quality for p in read] == [p.quality for p in written]
            for a, b in zip(written, read):
                assert abs(b.link_distance_m - a.link_distance_m) <= 2e-6
        # move one vehicle row's link cell by 1e-5 m
        line_no = data.draw(st.integers(3, len(lines)))
        fields = lines[line_no - 1].split(",")
        fields[2] = f"{float(fields[2]) + data.draw(st.sampled_from([1e-5, -1e-5])):.6f}"
        lines[line_no - 1] = ",".join(fields)
        with pytest.raises(ValidationError, match=rf"^line {line_no}: link_distance_m "):
            diagram_from_csv(lines)

    def test_smoothed_diagram_still_serializes(self):
        diagram = smooth_diagram(self._diagram(), 3)
        text = diagram_to_csv(diagram)
        assert text.count("\n") >= 6
