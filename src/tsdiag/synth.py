"""Deterministic synthetic head-on scenes for pipeline exercises and fixtures.

A probe drives east along an equatorial link while one oncoming car closes
in.  Ground-truth boxes are produced by exactly inverting the range model,
so a noise-free run must reproduce the car's trajectory to rounding error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .config import build_config, dump_config
from .geodesy import GeoPoint, WGS84
from .kitti import LabelRecord, OxtsSample
from .photogrammetry import CameraIntrinsics, bbox_height_at_range, kitti_intrinsics

__all__ = ["SyntheticScene", "head_on_scene", "write_scene_files", "write_fixture"]


@dataclass
class SyntheticScene:
    records: list[LabelRecord]
    oxts: list[OxtsSample]
    frame_rate_hz: float
    link_start: GeoPoint
    link_length_m: float
    intrinsics: CameraIntrinsics


def head_on_scene() -> SyntheticScene:
    """One probe, one oncoming car, boxes synthesized while the car is in view.

    10 s at 10 Hz on a 300 m link: the probe drives east at 10 m/s, and the
    car, 255 m along the link at the start and 2 m to the probe's left,
    closes at 15 m/s.  A box is kept while its height is 10 to 370 px.
    """
    intrinsics = kitti_intrinsics()
    frame_rate_hz, probe_speed_mps = 10.0, 10.0
    link_length_m, lateral_m = 300.0, -2.0

    records = []
    oxts = []
    center_y = 190.0
    for frame in range(100):
        t = frame / frame_rate_hz
        probe_d = probe_speed_mps * t
        car_d = 255.0 - 15.0 * t

        lon = math.degrees(probe_d / WGS84.semi_major_axis_m)
        raw = [0.0] * 30
        raw[0], raw[1], raw[2] = 0.0, lon, 112.0
        raw[6], raw[7] = 0.0, probe_speed_mps  # heading due east
        oxts.append(OxtsSample(tuple(raw)))

        camera_range = car_d - probe_d
        if camera_range <= 0.0:
            continue
        height = bbox_height_at_range(camera_range, "car", intrinsics)
        if not 10.0 <= height <= 370.0:
            continue
        width = 1.1 * height
        center_x = (intrinsics.image_width_px / 2.0
                    + intrinsics.focal_length_px * lateral_m / camera_range)
        records.append(LabelRecord(
            frame_index=frame,
            class_label="car",
            bbox=(center_x - width / 2.0, center_y - height / 2.0,
                  center_x + width / 2.0, center_y + height / 2.0),
            confidence=1.0,
            gt_track_id=1,
            gt_location_camera=(lateral_m, 1.6, camera_range),
        ))

    return SyntheticScene(
        records=records,
        oxts=oxts,
        frame_rate_hz=frame_rate_hz,
        link_start=GeoPoint(0.0, 0.0),
        link_length_m=link_length_m,
        intrinsics=intrinsics,
    )


def _label_line(r: LabelRecord) -> str:
    # full-precision floats so exactly inverted boxes survive the disk trip
    x, y, z = r.gt_location_camera
    left, top, right, bottom = r.bbox
    return (f"{r.frame_index} {r.gt_track_id} Car 0 0 0.0 "
            f"{left!r} {top!r} {right!r} {bottom!r} "
            f"1.50 1.62 3.88 {x!r} {y!r} {z!r} 0.0")


def write_scene_files(scene: SyntheticScene, directory: str) -> dict[str, str]:
    """Write the scene as on-disk inputs: labels file and OXTS directory."""
    os.makedirs(directory, exist_ok=True)
    labels_path = os.path.join(directory, "labels.txt")
    with open(labels_path, "w") as fh:
        for record in scene.records:
            fh.write(_label_line(record) + "\n")
    oxts_dir = os.path.join(directory, "oxts")
    os.makedirs(oxts_dir, exist_ok=True)
    for frame, sample in enumerate(scene.oxts):
        path = os.path.join(oxts_dir, f"{frame:010d}.txt")
        with open(path, "w") as fh:
            fh.write(" ".join(f"{v!r}" for v in sample.raw_fields) + "\n")
    return {"labels": labels_path, "oxts": oxts_dir}


def write_fixture(directory: str) -> str:
    """Write a ready-to-run demo sequence plus config; returns the config path.

    Try it with:  tsdiag run <directory>/config.ini
    """
    scene = head_on_scene()
    paths = write_scene_files(scene, directory)
    cfg = build_config({
        "labels": paths["labels"],
        "oxts": paths["oxts"],
        "output_dir": os.path.join(directory, "out"),
        "link_length_m": repr(scene.link_length_m),
        "sequence_id": "synthetic-head-on",
    })
    config_path = os.path.join(directory, "config.ini")
    with open(config_path, "w") as fh:
        fh.write(dump_config(cfg))
    return config_path
