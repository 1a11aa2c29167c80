"""Monocular range estimation from bounding-box heights.

A pinhole camera shrinks an object of known real-world height in proportion
to its distance, so the box height in pixels, rescaled from image raster to
sensor raster, gives the camera-to-object range directly.  Estimates from
tiny boxes or beyond a configurable range are flagged rather than dropped.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import Checked, ValidationError

__all__ = [
    "CameraIntrinsics",
    "RangeEstimate",
    "QUALITY_OK",
    "QUALITY_BELOW_MIN_HEIGHT",
    "QUALITY_ABOVE_MAX_RANGE",
    "kitti_intrinsics",
    "range_from_height",
    "bbox_height_at_range",
]

QUALITY_OK = "ok"
QUALITY_BELOW_MIN_HEIGHT = "below_min_height"
QUALITY_ABOVE_MAX_RANGE = "above_max_range"

DEFAULT_MIN_BBOX_HEIGHT_PX = 8.0
DEFAULT_MAX_RANGE_M = 120.0


class _CameraIntrinsics(NamedTuple):
    focal_length_px: float
    image_height_px: float
    sensor_height_px: float
    image_width_px: float
    class_height_m: Mapping[str, float]


class CameraIntrinsics(Checked, _CameraIntrinsics):
    """The whole camera: pinhole parameters, image size [px] (c_x at half the
    width) and real-world object heights per class [m]."""

    __slots__ = ()

    def __new__(cls, focal_length_px, image_height_px, sensor_height_px, image_width_px,
                class_height_m):
        # a read-only copy of the heights: a checked camera cannot change, so it may be shared
        return super().__new__(cls, focal_length_px, image_height_px, sensor_height_px,
                               image_width_px, MappingProxyType(dict(class_height_m)))

    def _check(self):
        if not (math.isfinite(self.image_width_px) and self.image_width_px > 0.0):
            raise ValidationError(f"image_width_px must be finite and positive, "
                                  f"got {self.image_width_px}")
        values = [(name, getattr(self, name))
                  for name in ("focal_length_px", "image_height_px", "sensor_height_px")]
        values += [(f"class height for {label!r}", height)
                   for label, height in self.class_height_m.items()]
        for name, value in values:
            if not value > 0.0:
                raise ValidationError(f"{name} must be positive")
            if value == math.inf:
                raise ValidationError(f"{name} must be finite, got inf")

    def height_for_class(self, class_label: str) -> float:
        try:
            return self.class_height_m[class_label]
        except KeyError:
            raise ValidationError(
                f"no real-world height configured for class {class_label!r}") from None


def kitti_intrinsics() -> CameraIntrinsics:
    """Preset for the KITTI colour camera: 721 px focal length, a 1242 x 376 px
    image, 362 px sensor height, 1.50 m average car height."""
    return CameraIntrinsics(
        focal_length_px=721.0,
        image_height_px=376.0,
        sensor_height_px=362.0,
        image_width_px=1242.0,
        class_height_m={"car": 1.50},
    )


class RangeEstimate(NamedTuple):
    distance_m: float
    quality_flag: str = QUALITY_OK


def range_from_height(bbox_height_px: float, class_label: str,
                      intrinsics: CameraIntrinsics,
                      min_bbox_height_px: float = DEFAULT_MIN_BBOX_HEIGHT_PX,
                      max_range_m: float = DEFAULT_MAX_RANGE_M) -> RangeEstimate:
    """Camera-to-object range from a box height via similar triangles."""
    if not bbox_height_px > 0.0:
        raise ValidationError(f"bbox height must be positive, got {bbox_height_px}")
    real_height = intrinsics.height_for_class(class_label)
    distance = (intrinsics.focal_length_px * real_height *
                intrinsics.image_height_px) / (bbox_height_px * intrinsics.sensor_height_px)
    if bbox_height_px < min_bbox_height_px:
        flag = QUALITY_BELOW_MIN_HEIGHT
    elif distance > max_range_m:
        flag = QUALITY_ABOVE_MAX_RANGE
    else:
        flag = QUALITY_OK
    return RangeEstimate(distance_m=distance, quality_flag=flag)


def bbox_height_at_range(distance_m: float, class_label: str,
                         intrinsics: CameraIntrinsics) -> float:
    """Exact inverse of range_from_height: box height [px] at a given range."""
    if not distance_m > 0.0:
        raise ValidationError(f"distance must be positive, got {distance_m}")
    real_height = intrinsics.height_for_class(class_label)
    return (intrinsics.focal_length_px * real_height *
            intrinsics.image_height_px) / (distance_m * intrinsics.sensor_height_px)
