"""Seeded multi-vehicle scenes written as tsdiag inputs.

A probe drives east along an equatorial link at constant speed while
oncoming, same-direction and lead vehicles share the road.  Every box
height comes from tsdiag's exact inverse ``bbox_height_at_range``, so with
no detector noise the true diagram is known to rounding.  A box is left
out of the labels while a nearer box covers at least half of it, which
gives occlusion gaps and crossings in the image.

The same ``(spec, seed)`` always writes byte-identical files.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

from tsdiag.geodesy import WGS84
from tsdiag.photogrammetry import bbox_height_at_range, kitti_intrinsics

FRAME_RATE_HZ = 10.0
IMAGE_WIDTH_PX = 1242.0
IMAGE_HEIGHT_PX = 376.0
HORIZON_Y_PX = 180.0
CAMERA_HEIGHT_M = 1.65
BOX_ASPECT = 1.2          # width / height of a car box
OCCLUSION_SHARE = 0.5     # share of a box a nearer box must cover to hide it
PROBE_SPEED_MPS = 10.0
PROBE_START_M = 10.0
VISIBLE_RANGE_M = 110.0   # about where a car box shrinks to 10 px

# lateral camera offsets [m]; the lane filter keeps offsets <= -1.5
ONCOMING_LANES = (-3.5, -7.0)
LEAD_LANE = 0.0
SAME_DIRECTION_LANES = (3.5, 7.0)


@dataclass(frozen=True)
class SceneSpec:
    frames: int
    oncoming: int
    same_direction: int
    leads: int
    jitter_px: float
    drop_rate: float
    oxts_layout: str   # "dir": one file per frame; "file": one line per frame


@dataclass(frozen=True)
class Vehicle:
    track_id: int
    kind: str          # oncoming | same_direction | lead
    lateral_m: float
    start_link_m: float
    speed_mps: float   # signed, along the link
    sway_m: float = 0.0
    sway_period_s: float = 1.0

    def link_distance(self, t: float) -> float:
        sway = self.sway_m * math.sin(2.0 * math.pi * t / self.sway_period_s)
        return self.start_link_m + self.speed_mps * t + sway


def probe_distance(t: float) -> float:
    return PROBE_START_M + PROBE_SPEED_MPS * t


def _vehicles(spec: SceneSpec, rng: random.Random) -> list[Vehicle]:
    # entry times are stratified over the run and the random ranges are
    # narrow, so the amount of work barely changes from seed to seed
    duration = spec.frames / FRAME_RATE_HZ
    vehicles = []
    next_id = 1
    for i in range(spec.leads):
        vehicles.append(Vehicle(
            next_id, "lead", LEAD_LANE if i % 2 == 0 else SAME_DIRECTION_LANES[0],
            PROBE_START_M + 18.0 + 14.0 * i + rng.uniform(-2.0, 2.0),
            PROBE_SPEED_MPS, sway_m=rng.uniform(1.5, 3.0),
            sway_period_s=rng.uniform(20.0, 40.0)))
        next_id += 1
    slot = duration / max(spec.oncoming, 1)
    for i in range(spec.oncoming):
        enter_t = (i + rng.uniform(0.3, 0.7)) * slot - 2.0
        speed = rng.uniform(11.0, 13.0)
        # at enter_t the car is VISIBLE_RANGE_M ahead of the probe
        start = probe_distance(enter_t) + VISIBLE_RANGE_M + speed * enter_t
        vehicles.append(Vehicle(next_id, "oncoming",
                                ONCOMING_LANES[i % len(ONCOMING_LANES)], start, -speed))
        next_id += 1
    slot = duration / max(spec.same_direction, 1)
    for i in range(spec.same_direction):
        meet_t = (i + rng.uniform(0.3, 0.7)) * slot
        relative = (-1.0) ** i * rng.uniform(2.0, 2.6)
        # at meet_t the car is 12 m ahead; faster cars pull away from there,
        # slower ones were overtaken there
        start = probe_distance(meet_t) + 12.0 - (PROBE_SPEED_MPS + relative) * meet_t
        vehicles.append(Vehicle(next_id, "same_direction",
                                SAME_DIRECTION_LANES[i // 2 % len(SAME_DIRECTION_LANES)],
                                start, PROBE_SPEED_MPS + relative))
        next_id += 1
    return vehicles


def _box(lateral_m: float, range_m: float, intrinsics) -> tuple | None:
    height = bbox_height_at_range(range_m, "car", intrinsics)
    width = BOX_ASPECT * height
    center_x = IMAGE_WIDTH_PX / 2.0 + intrinsics.focal_length_px * lateral_m / range_m
    bottom = HORIZON_Y_PX + intrinsics.focal_length_px * CAMERA_HEIGHT_M / range_m
    box = (center_x - width / 2.0, bottom - height, center_x + width / 2.0, bottom)
    if box[0] < 0.0 or box[2] > IMAGE_WIDTH_PX or box[1] < 0.0 or box[3] > IMAGE_HEIGHT_PX:
        return None
    return box


def _covered_share(box, by) -> float:
    ix = min(box[2], by[2]) - max(box[0], by[0])
    iy = min(box[3], by[3]) - max(box[1], by[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    return ix * iy / ((box[2] - box[0]) * (box[3] - box[1]))


def _label_line(frame: int, vehicle: Vehicle, box, range_m: float, occluded: int) -> str:
    left, top, right, bottom = box
    return (f"{frame} {vehicle.track_id} Car 0 {occluded} 0.0 "
            f"{left!r} {top!r} {right!r} {bottom!r} 1.50 1.80 4.20 "
            f"{vehicle.lateral_m!r} {CAMERA_HEIGHT_M - 0.75!r} {range_m!r} 0.0")


def _oxts_line(t: float) -> str:
    raw = [0.0] * 30
    raw[1] = math.degrees(probe_distance(t) / WGS84.semi_major_axis_m)
    raw[2] = 112.0
    raw[7] = PROBE_SPEED_MPS  # heading due east
    return " ".join(repr(v) for v in raw)


def write_scene(spec: SceneSpec, seed: int, directory: str, name: str) -> dict:
    """Write labels, both OXTS layouts and config.ini; returns paths and sizes."""
    rng = random.Random(f"{name}:{seed}")
    intrinsics = kitti_intrinsics()
    vehicles = _vehicles(spec, rng)
    os.makedirs(directory, exist_ok=True)

    label_lines = []
    seen = set()
    occluded_boxes = 0
    for frame in range(spec.frames):
        t = frame / FRAME_RATE_HZ
        probe = probe_distance(t)
        visible = []
        for vehicle in vehicles:
            range_m = vehicle.link_distance(t) - probe
            if not 0.0 < range_m <= VISIBLE_RANGE_M:
                continue
            box = _box(vehicle.lateral_m, range_m, intrinsics)
            if box is not None:
                visible.append((range_m, vehicle.track_id, vehicle, box))
        visible.sort()
        drawn = []
        for range_m, _, vehicle, box in visible:
            cover = max((_covered_share(box, near) for near in drawn), default=0.0)
            drawn.append(box)
            if cover >= OCCLUSION_SHARE:
                occluded_boxes += 1
                continue
            label_lines.append(_label_line(frame, vehicle, box, range_m,
                                           1 if cover > 0.0 else 0))
            seen.add(vehicle.track_id)

    labels = os.path.join(directory, "labels.txt")
    with open(labels, "w") as fh:
        fh.write("".join(line + "\n" for line in label_lines))

    oxts_lines = [_oxts_line(frame / FRAME_RATE_HZ) for frame in range(spec.frames)]
    oxts_dir = os.path.join(directory, "oxts")
    os.makedirs(oxts_dir, exist_ok=True)
    for frame, line in enumerate(oxts_lines):
        with open(os.path.join(oxts_dir, f"{frame:010d}.txt"), "w") as fh:
            fh.write(line + "\n")
    oxts_file = os.path.join(directory, "oxts.txt")
    with open(oxts_file, "w") as fh:
        fh.write("".join(line + "\n" for line in oxts_lines))

    link_length = probe_distance(spec.frames / FRAME_RATE_HZ) + VISIBLE_RANGE_M + 20.0
    config = os.path.join(directory, "config.ini")
    with open(config, "w") as fh:
        fh.write(
            "[paths]\n"
            f"labels = {labels}\n"
            f"oxts = {oxts_dir if spec.oxts_layout == 'dir' else oxts_file}\n"
            f"output_dir = {os.path.join(directory, 'out')}\n\n"
            "[link]\n"
            f"link_length_m = {link_length!r}\n\n"
            "[run]\n"
            f"sequence_id = {name}-{seed}\n"
            f"seed = {seed}\n"
            f"jitter_px = {spec.jitter_px!r}\n"
            f"drop_rate = {spec.drop_rate!r}\n")

    kinds = [v.kind for v in vehicles if v.track_id in seen]
    return {
        "config": config,
        "sizes": {
            "frames": spec.frames,
            "label_boxes": len(label_lines),
            "occluded_boxes": occluded_boxes,
            "vehicles": len(kinds),
            "oncoming": kinds.count("oncoming"),
            "same_direction": kinds.count("same_direction"),
            "leads": kinds.count("lead"),
            "oxts_fixes": spec.frames,
            "oxts_layout": spec.oxts_layout,
            "jitter_px": spec.jitter_px,
            "drop_rate": spec.drop_rate,
        },
    }
