import math

import pytest
from hypothesis import given, settings, strategies as st

from tsdiag.errors import ValidationError
from tsdiag.photogrammetry import (
    CameraIntrinsics,
    QUALITY_ABOVE_MAX_RANGE,
    QUALITY_BELOW_MIN_HEIGHT,
    QUALITY_OK,
    bbox_height_at_range,
    kitti_intrinsics,
    range_from_height,
)

KITTI = kitti_intrinsics()

# hand-evaluated with the preset constants F=721, H_real=1.50, I=376, S=362
CAR_RANGE_AT_100PX = 406644.0 / 36200.0   # 11.233259668...


class TestRangeFromBbox:
    def test_worked_example_100px(self):
        estimate = range_from_height(100.0, "car", KITTI)
        assert estimate.distance_m == pytest.approx(CAR_RANGE_AT_100PX, abs=1e-9)
        assert estimate.distance_m == pytest.approx(11.2332, abs=1e-3)
        assert estimate.quality_flag == QUALITY_OK

    def test_half_height_doubles_range(self):
        estimate = range_from_height(50.0, "car", KITTI)
        assert estimate.distance_m == pytest.approx(22.4665, abs=1e-3)
        assert estimate.distance_m == pytest.approx(2 * CAR_RANGE_AT_100PX, rel=1e-12)

    def test_tiny_box_flagged(self):
        estimate = range_from_height(4.0, "car", KITTI)
        assert estimate.quality_flag == QUALITY_BELOW_MIN_HEIGHT

    def test_distant_box_flagged(self):
        # 130 m: box still above the 8 px floor but past the 120 m cutoff
        height = bbox_height_at_range(130.0, "car", KITTI)
        assert height > 8.0
        estimate = range_from_height(height, "car", KITTI)
        assert estimate.quality_flag == QUALITY_ABOVE_MAX_RANGE

    def test_min_height_flag_takes_precedence(self):
        height = bbox_height_at_range(150.0, "car", KITTI)  # 7.5 px, 150 m
        estimate = range_from_height(height, "car", KITTI)
        assert estimate.quality_flag == QUALITY_BELOW_MIN_HEIGHT

    def test_missing_class_height_names_class(self):
        with pytest.raises(ValidationError, match="tram"):
            range_from_height(50.0, "tram", KITTI)

    def test_nonpositive_height_rejected(self):
        for height in (0.0, -5.0):
            with pytest.raises(ValidationError, match="bbox height must be positive"):
                range_from_height(height, "car", KITTI)


class TestInversion:
    def test_worked_inverse(self):
        assert bbox_height_at_range(CAR_RANGE_AT_100PX, "car", KITTI) == pytest.approx(
            100.0, abs=1e-9)

    def test_double_distance_halves_height(self):
        h1 = bbox_height_at_range(17.0, "car", KITTI)
        h2 = bbox_height_at_range(34.0, "car", KITTI)
        assert h2 == pytest.approx(h1 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("distance", [5.0, 20.0, 80.0])
    def test_round_trip_named_distances(self, distance):
        height = bbox_height_at_range(distance, "car", KITTI)
        estimate = range_from_height(height, "car", KITTI,
                                     min_bbox_height_px=0.0, max_range_m=1e9)
        assert abs(estimate.distance_m - distance) / distance <= 1e-9

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValidationError):
            bbox_height_at_range(0.0, "car", KITTI)


class TestScaleLaws:
    def test_focal_length_scaling(self):
        doubled = CameraIntrinsics(2 * 721.0, 376.0, 362.0, 1242.0, {"car": 1.5})
        assert range_from_height(100.0, "car", doubled).distance_m == pytest.approx(
            2 * CAR_RANGE_AT_100PX, rel=1e-12)

    def test_sensor_height_scaling(self):
        doubled = CameraIntrinsics(721.0, 376.0, 2 * 362.0, 1242.0, {"car": 1.5})
        assert range_from_height(100.0, "car", doubled).distance_m == pytest.approx(
            CAR_RANGE_AT_100PX / 2, rel=1e-12)

    def test_class_height_scaling(self):
        doubled = CameraIntrinsics(721.0, 376.0, 362.0, 1242.0, {"car": 3.0})
        assert range_from_height(100.0, "car", doubled).distance_m == pytest.approx(
            2 * CAR_RANGE_AT_100PX, rel=1e-12)

    @given(st.floats(min_value=1.0, max_value=370.0),
           st.floats(min_value=0.1, max_value=360.0))
    @settings(max_examples=60)
    def test_strictly_decreasing_in_height(self, h, delta):
        lo = range_from_height(h + delta, "car", KITTI,
                               min_bbox_height_px=0.0, max_range_m=1e9)
        hi = range_from_height(h, "car", KITTI,
                               min_bbox_height_px=0.0, max_range_m=1e9)
        assert lo.distance_m < hi.distance_m


class TestIntrinsicsValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(ValidationError):
            CameraIntrinsics(0.0, 376.0, 362.0, 1242.0, {"car": 1.5})
        with pytest.raises(ValidationError):
            CameraIntrinsics(721.0, 376.0, 362.0, 1242.0, {"car": -1.0})

    @pytest.mark.parametrize("width, shown", [(0.0, "0.0"), (math.nan, "nan"), (math.inf, "inf")])
    def test_image_width_finite_and_positive(self, width, shown):
        with pytest.raises(ValidationError) as info:
            CameraIntrinsics(721.0, 376.0, 362.0, width, {"car": 1.5})
        assert str(info.value) == f"image_width_px must be finite and positive, got {shown}"

    def test_kitti_preset_values(self):
        assert KITTI.focal_length_px == 721.0
        assert KITTI.image_height_px == 376.0
        assert KITTI.image_width_px == 1242.0
        assert KITTI.sensor_height_px == 362.0
        assert KITTI.class_height_m["car"] == 1.50
