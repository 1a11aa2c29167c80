import pytest
from hypothesis import given, settings, strategies as st

from tsdiag.errors import ParseError, ValidationError
from tsdiag.kitti import DetectionRecord
from tsdiag.photogrammetry import bbox_height_at_range, kitti_intrinsics
from tsdiag.tracker import Track
from tsdiag.trajectory import (
    OUT_OF_LINK_MARGIN_M,
    LaneFilterConfig,
    TrajectoryPoint,
    build_diagram,
    compose_distance,
    diagram_from_csv,
    diagram_to_csv,
    opposite_lane_filter,
    smooth_diagram,
    smooth_track,
)

KITTI = kitti_intrinsics()
CAR_RANGE_AT_100PX = 406644.0 / 36200.0


def make_track(track_id, entries, lateral_x=None, confirmed=True, track_type=Track):
    """entries: list of (frame, bbox); lateral_x optionally sets annotated x."""
    records = []
    for frame, bbox in entries:
        depth = None
        location = None
        if lateral_x is not None:
            depth = 10.0
            location = (lateral_x, 1.6, depth)
        records.append(DetectionRecord(
            frame_index=frame, class_label="car", bbox=bbox,
            gt_track_id=track_id, gt_location_camera=location, gt_depth_m=depth))
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


def make_probe(n_frames, metres_per_frame=0.0):
    """The probe's (time, link distance) at 10 Hz, one pair per frame."""
    return [(f / 10.0, f * metres_per_frame) for f in range(n_frames)]


class TestComposeDistance:
    def test_worked_example(self):
        assert compose_distance(50.0, CAR_RANGE_AT_100PX) == pytest.approx(
            61.2332, abs=1e-3)

    def test_probe_at_link_start(self):
        assert compose_distance(0.0, 7.5) == 7.5

    def test_colocated_vehicle(self):
        assert compose_distance(12.25, 0.0) == 12.25


class TestOppositeLaneFilter:
    WIDTH = 1242.0

    def test_left_side_closing_track_kept(self):
        heights = [20.0, 25.0, 31.0, 40.0]  # shrinking range
        track = make_track(1, [(f, box_with_height(0.25 * self.WIDTH, h))
                               for f, h in enumerate(heights)])
        assert opposite_lane_filter([track], self.WIDTH) == [track]

    def test_wrong_side_removed(self):
        heights = [20.0, 25.0, 31.0, 40.0]
        track = make_track(1, [(f, box_with_height(0.8 * self.WIDTH, h))
                               for f, h in enumerate(heights)])
        assert opposite_lane_filter([track], self.WIDTH) == []

    def test_annotated_lateral_position_dominates(self):
        heights = [20.0, 25.0, 31.0, 40.0]
        track = make_track(1, [(f, box_with_height(0.25 * self.WIDTH, h))
                               for f, h in enumerate(heights)], lateral_x=2.0)
        assert opposite_lane_filter([track], self.WIDTH) == []

    def test_annotated_oncoming_kept_regardless_of_image_side(self):
        heights = [20.0, 18.0, 16.0]  # receding, image-side heuristic would drop
        track = make_track(1, [(f, box_with_height(0.8 * self.WIDTH, h))
                               for f, h in enumerate(heights)], lateral_x=-2.5)
        assert opposite_lane_filter([track], self.WIDTH) == [track]

    def test_receding_unannotated_track_removed(self):
        heights = [40.0, 31.0, 25.0, 20.0]  # growing range: leading traffic
        track = make_track(1, [(f, box_with_height(0.25 * self.WIDTH, h))
                               for f, h in enumerate(heights)])
        assert opposite_lane_filter([track], self.WIDTH) == []

    def test_passing_v_shape_kept(self):
        heights = [20.0, 30.0, 45.0, 30.0, 20.0]  # closes, passes, recedes
        track = make_track(1, [(f, box_with_height(0.25 * self.WIDTH, h))
                               for f, h in enumerate(heights)])
        assert opposite_lane_filter([track], self.WIDTH) == [track]

    def test_left_hand_traffic_mirrors_sides(self):
        config = LaneFilterConfig(traffic_side="left")
        heights = [20.0, 25.0, 31.0, 40.0]
        right_track = make_track(1, [(f, box_with_height(0.8 * self.WIDTH, h))
                                     for f, h in enumerate(heights)])
        assert opposite_lane_filter([right_track], self.WIDTH, config) == [right_track]
        annotated = make_track(2, [(f, box_with_height(0.8 * self.WIDTH, h))
                                   for f, h in enumerate(heights)], lateral_x=2.0)
        assert opposite_lane_filter([annotated], self.WIDTH, config) == [annotated]

    def test_idempotent(self):
        heights = [20.0, 25.0, 31.0, 40.0]
        tracks = [
            make_track(1, [(f, box_with_height(0.25 * self.WIDTH, h))
                           for f, h in enumerate(heights)]),
            make_track(2, [(f, box_with_height(0.9 * self.WIDTH, h))
                           for f, h in enumerate(heights)]),
        ]
        once = opposite_lane_filter(tracks, self.WIDTH)
        twice = opposite_lane_filter(once, self.WIDTH)
        assert once == twice

    def test_disabled_filter_keeps_everything(self):
        config = LaneFilterConfig(enabled=False)
        track = make_track(1, [(0, box_with_height(0.9 * self.WIDTH, 20.0))])
        assert opposite_lane_filter([track], self.WIDTH, config) == [track]

    def test_empty_input(self):
        assert opposite_lane_filter([], self.WIDTH) == []


class TestBuildDiagram:
    def test_stationary_probe_fixed_car(self):
        height = 100.0
        track = make_track(1, [(f, box_with_height(300.0, height)) for f in range(10)])
        probe = make_probe(10)  # probe parked at the link start
        diagram = build_diagram([track], probe, 300.0, KITTI)
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
        diagram = build_diagram([track], make_probe(10, 1.113195), 300.0, KITTI)
        points = diagram.vehicle_trajectories[1]
        slope = ((points[-1].link_distance_m - points[0].link_distance_m)
                 / (points[-1].time_s - points[0].time_s))
        assert slope == pytest.approx(11.13195, abs=1e-9)

    def test_record_takes_time_and_probe_distance_of_its_frame(self):
        # explicit, uneven timestamps: frame f is the probe trajectory's entry f
        probe = [(0.0, 0.0), (0.15, 2.0), (0.22, 3.5), (0.4, 7.0)]
        track = make_track(1, [(f, box_with_height(300.0, 100.0)) for f in (1, 3)])
        diagram = build_diagram([track], probe, 300.0, KITTI)
        points = diagram.vehicle_trajectories[1]
        assert [(p.time_s, p.probe_distance_m) for p in points] == [(0.15, 2.0), (0.4, 7.0)]
        assert diagram.probe_trajectory == probe

    def test_no_confirmed_tracks_probe_only(self):
        tentative = make_track(1, [(0, box_with_height(300.0, 50.0))], confirmed=False)
        diagram = build_diagram([tentative], make_probe(5), 300.0, KITTI)
        assert diagram.vehicle_trajectories == {}
        assert len(diagram.probe_trajectory) == 5

    def test_missing_oxts_frame_names_frame(self):
        track = make_track(1, [(7, box_with_height(300.0, 50.0)),
                               (8, box_with_height(300.0, 51.0))])
        with pytest.raises(ValidationError, match="frame 7"):
            build_diagram([track], make_probe(5), 300.0, KITTI)

    def test_identity_holds_bit_exact(self):
        heights = [30.0, 35.0, 41.0, 50.0, 66.0]
        track = make_track(1, [(f, box_with_height(250.0, h))
                               for f, h in enumerate(heights)])
        diagram = build_diagram([track], make_probe(5, 2.2263898), 300.0, KITTI)
        for p in diagram.vehicle_trajectories[1]:
            assert p.link_distance_m == p.probe_distance_m + p.camera_range_m

    def test_out_of_link_flagging(self):
        # a 5 m link keeps points up to 5 + OUT_OF_LINK_MARGIN_M (20 m) ok
        heights = [bbox_height_at_range(r, "car", KITTI) for r in (24.0, 26.0)]
        track = make_track(1, [(f, box_with_height(300.0, h)) for f, h in enumerate(heights)])
        diagram = build_diagram([track], make_probe(2), 5.0, KITTI)
        assert OUT_OF_LINK_MARGIN_M == 20.0
        assert [p.quality for p in diagram.vehicle_trajectories[1]] == ["ok", "out_of_link"]

    def test_gt_depth_reference_mode(self):
        height = bbox_height_at_range(40.0, "car", KITTI)
        records = [DetectionRecord(frame_index=0, class_label="car",
                                   bbox=box_with_height(300.0, height),
                                   gt_track_id=3, gt_depth_m=37.5)]
        track = Track(track_id=3, status="confirmed", ever_confirmed=True,
                      records=records)
        diagram = build_diagram([track], make_probe(1), 300.0, KITTI,
                                range_source="gt_depth")
        assert diagram.vehicle_trajectories[3][0].camera_range_m == 37.5

    def test_quality_flags_retained_not_dropped(self):
        far = bbox_height_at_range(140.0, "car", KITTI)  # past the 120 m cutoff
        tiny = 5.0  # below the 8 px floor
        track = make_track(1, [(0, box_with_height(300.0, 100.0)),
                               (1, box_with_height(300.0, far)),
                               (2, box_with_height(300.0, tiny))])
        diagram = build_diagram([track], make_probe(3), 300.0, KITTI)
        qualities = [p.quality for p in diagram.vehicle_trajectories[1]]
        assert qualities == ["ok", "above_max_range", "below_min_height"]
        assert len(diagram.vehicle_trajectories[1]) == 3


    def test_class_label_read_once_per_track(self):
        # the label counts over every record when read, so a read per
        # record would make the diagram quadratic in track length
        lengths = (1, 5, 40)
        tracks = [make_track(k + 1, [(f, box_with_height(300.0, 60.0)) for f in range(n)],
                             track_type=LabelReadCounter)
                  for k, n in enumerate(lengths)]
        diagram = build_diagram(tracks, make_probe(40), 300.0, KITTI)
        assert [len(diagram.vehicle_trajectories[t.track_id]) for t in tracks] == [1, 5, 40]
        assert [t.reads for t in tracks] == [1, 1, 1]


class TestSmoothing:
    def _points(self, link_values, probe=5.0):
        return [TrajectoryPoint(time_s=0.1 * i, link_distance_m=v,
                                probe_distance_m=probe, camera_range_m=v - probe)
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
        return build_diagram([track], make_probe(3, 1.113195), 300.0, KITTI)

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
        parsed = diagram_from_csv(diagram_to_csv(diagram), link_length_m=300.0)
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
            diagram_from_csv(text)

    def test_writer_rejects_broken_identity(self):
        diagram = self._diagram()
        bad = TrajectoryPoint(time_s=9.9, link_distance_m=1.0,
                              probe_distance_m=2.0, camera_range_m=3.0)
        diagram.vehicle_trajectories[1].append(bad)
        with pytest.raises(ValidationError):
            diagram_to_csv(diagram)

    def test_smoothed_diagram_still_serializes(self):
        diagram = smooth_diagram(self._diagram(), 3)
        text = diagram_to_csv(diagram)
        assert text.count("\n") >= 6
