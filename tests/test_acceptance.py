"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  The terminal summary (see conftest) prints one line per
criterion."""

import json
import math
import os
import random
import time

import numpy as np
import pytest

from oracles.assignment_oracle import brute_force_min_cost
from oracles.hota_oracle import brute_force_hota
from tsdiag.cli import main
from tsdiag.evaluation import hota, track_matching, trajectory_error_report
from tsdiag.geodesy import GeoPoint, geodesic_inverse, probe_distances
from tsdiag.config import PipelineConfig
from tsdiag.kitti import parse_label_file, perturb_ground_truth
from tsdiag.photogrammetry import (
    CameraIntrinsics,
    bbox_height_at_range,
    kitti_intrinsics,
    range_from_height,
)
from tsdiag.pipeline import build_reference_diagram
from tsdiag.synth import head_on_scene, write_fixture
from tsdiag.tracker import Tracker, TrackerConfig, iou, solve_assignment
from tsdiag.trajectory import build_diagram, observe, opposite_lane_filter


def test_geodesic_oracle_suite(data_dir):
    """>= 100 frozen high-precision cases within 1 mm, plus the equatorial
    closed form, in under a second."""
    with open(os.path.join(data_dir, "geodesic_cases.json")) as fh:
        payload = json.load(fh)
    cases = payload["cases"]
    assert len(cases) >= 100
    by_kind = {}
    for case in cases:
        by_kind.setdefault(case["kind"], []).append(case)
    assert len(by_kind.get("near_antipodal", ())) >= 5
    assert by_kind.get("equatorial") and by_kind.get("meridional")

    start = time.perf_counter()
    worst = 0.0
    for case in cases:
        got = geodesic_inverse(GeoPoint(*case["p1"]), GeoPoint(*case["p2"])).distance_m
        worst = max(worst, abs(got - case["distance_m"]))
    equator = geodesic_inverse(GeoPoint(0, 0), GeoPoint(0, 1)).distance_m
    elapsed = time.perf_counter() - start

    assert worst <= 1e-3, f"worst oracle disagreement {worst} m"
    assert abs(equator - 111319.4908) <= 1e-3
    assert elapsed < 1.0, f"geodesic suite took {elapsed:.3f} s"


def test_photogrammetry_round_trip():
    """1000 random (class, range) pairs invert to 1e-9 relative; the worked
    example lands within 1e-3 m; runtime under a second."""
    intrinsics = CameraIntrinsics(721.0, 376.0, 362.0, 1242.0,
                                  {"car": 1.50, "van": 2.0, "truck": 3.2})
    rng = random.Random(1234)
    start = time.perf_counter()
    for _ in range(1000):
        label = rng.choice(["car", "van", "truck"])
        distance = rng.uniform(1.0, 200.0)
        height = bbox_height_at_range(distance, label, intrinsics)
        estimate = range_from_height(height, label, intrinsics,
                                     min_bbox_height_px=0.0, max_range_m=math.inf)
        assert abs(estimate.distance_m - distance) / distance <= 1e-9
    worked = range_from_height(100.0, "car", kitti_intrinsics())
    elapsed = time.perf_counter() - start
    assert abs(worked.distance_m - 11.2332) <= 1e-3
    assert elapsed < 1.0, f"round-trip suite took {elapsed:.3f} s"


def test_association_optimality():
    """500 random cost matrices up to 6x6: solver total equals the
    brute-force permutation minimum exactly."""
    rng = np.random.RandomState(77)
    for _ in range(500):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        cost = rng.uniform(0.0, 10.0, size=(rows, cols))
        pairs = solve_assignment(cost)
        total = math.fsum(float(cost[r, c]) for r, c in pairs)
        assert total == brute_force_min_cost(cost.tolist())


def _random_hota_instance(rng):
    gt, pred = [], []
    n_frames = rng.randint(1, 6)
    for frame in range(n_frames):
        for tid in range(rng.randint(0, 4)):
            x, y = rng.uniform(0, 60), rng.uniform(0, 60)
            gt.append((frame, tid, (x, y, x + 10, y + 10)))
            if rng.random() < 0.85:
                dx, dy = rng.uniform(-4, 4), rng.uniform(-4, 4)
                pid = tid if rng.random() < 0.75 else tid + 20
                pred.append((frame, pid, (x + dx, y + dy, x + dx + 10, y + dy + 10)))
        if rng.random() < 0.25:
            x, y = rng.uniform(0, 60), rng.uniform(0, 60)
            pred.append((frame, 99, (x, y, x + 10, y + 10)))
    return gt, pred


def test_hota_oracle_equivalence():
    """50 random small instances match the exhaustive evaluator to 1e-9, and
    the 10-frame split-track instance scores sqrt(0.5)."""
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    rng = random.Random(2024)
    for _ in range(50):
        gt, pred = _random_hota_instance(rng)
        got = hota(gt, pred, alphas)
        expected = brute_force_hota(gt, pred, alphas)
        assert abs(got.hota - expected["hota"]) <= 1e-9
        assert abs(got.det_a - expected["det_a"]) <= 1e-9
        assert abs(got.ass_a - expected["ass_a"]) <= 1e-9
        assert abs(got.loc_a - expected["loc_a"]) <= 1e-9

    gt = [(f, 1, (5.0 * f, 0.0, 5.0 * f + 10.0, 10.0)) for f in range(10)]
    split = [(f, 101 if f < 5 else 102, box) for f, _, box in gt]
    report = hota(gt, split)
    assert abs(report.hota - math.sqrt(0.5)) <= 1e-9
    assert abs(report.hota - 0.7071) <= 1e-4


def _run_synthetic(scene, jitter_px, seed):
    detections = perturb_ground_truth(scene.records, jitter_px, 0.0, seed)
    tracker = Tracker(TrackerConfig())
    tracks = tracker.run(detections, n_frames=len(scene.oxts))
    kept = opposite_lane_filter(observe(tracks, scene.intrinsics, max_range_m=25.0))
    distances = probe_distances(scene.link_start, (s.position for s in scene.oxts))
    probe = [(f / scene.frame_rate_hz, d) for f, d in enumerate(distances)]
    predicted = build_diagram(kept, probe, scene.link_length_m)
    reference = build_reference_diagram(
        scene.records, probe, PipelineConfig(link_length_m=scene.link_length_m))
    return tracks, predicted, reference, track_matching(
        [t for t in tracks if t.track_id in kept], scene.records)


def test_end_to_end_synthetic_scene():
    """Probe at 10 m/s on an equatorial link, one oncoming car at 15 m/s,
    boxes by exact inversion at 10 Hz over a 10 s sequence: noise-free
    reconstruction under 1 cm with a negative slope; 2 px jitter stays
    under 1 m on trusted points with a single stable identity."""
    start = time.perf_counter()
    scene = head_on_scene()  # 10 s at 10 Hz, probe 10 m/s, car 15 m/s oncoming
    assert len(scene.oxts) == 100

    # noise-free run reconstructs the full trajectory almost exactly
    tracks, predicted, reference, matching = _run_synthetic(scene, jitter_px=0.0, seed=0)
    confirmed = [t for t in tracks if t.confirmed]
    assert len(confirmed) == 1
    report = trajectory_error_report(predicted, reference, matching, quality_ok_only=False)
    assert report.per_track_rmse_m, "no trajectory reconstructed"
    assert max(report.per_track_rmse_m.values()) < 0.01

    points = predicted.vehicle_trajectories[confirmed[0].track_id]
    times = [p.time_s for p in points]
    dists = [p.link_distance_m for p in points]
    t_mean = sum(times) / len(times)
    d_mean = sum(dists) / len(dists)
    slope = (sum((t - t_mean) * (d - d_mean) for t, d in zip(times, dists)) /
             sum((t - t_mean) ** 2 for t in times))
    assert slope < 0.0, "oncoming car must move toward the link start"
    assert abs(slope - (-15.0)) < 0.5

    # jittered run: still one identity, trusted points within a meter
    tracks, predicted, reference, matching = _run_synthetic(scene, jitter_px=2.0, seed=1)
    confirmed = [t for t in tracks if t.confirmed]
    assert len(confirmed) == 1, "identity switched under jitter"
    labels = {g.frame_index: g.bbox for g in scene.records if g.gt_track_id == 1}
    assert matching == {confirmed[0].track_id: 1}
    assert all(iou(r.bbox, labels[r.frame_index]) >= 0.5 for r in confirmed[0].records)
    report = trajectory_error_report(predicted, reference, matching, quality_ok_only=True)
    assert report.per_track_rmse_m, "no trusted points survived"
    assert max(report.per_track_rmse_m.values()) < 1.0

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"synthetic scene took {elapsed:.3f} s"


def test_tracker_lifecycle():
    """Confirmation after exactly 2 hits and deletion after exactly 30
    missed frames, per the default configuration."""
    config = TrackerConfig()
    assert config.n_init == 2 and config.max_age == 30

    def det(frame):
        from tsdiag.kitti import DetectionRecord
        return DetectionRecord(frame_index=frame, class_label="car",
                               bbox=(100.0, 100.0, 140.0, 150.0))

    tracker = Tracker(config)
    tracker.step([det(0)], 0)
    track = tracker.tracks[0]
    assert not track.confirmed
    tracker.step([det(1)], 1)
    assert track.confirmed  # hit number n_init

    for frame in range(2, 2 + config.max_age):
        tracker.step([], frame)
        assert tracker.live_tracks == [track], f"deleted too early at miss {frame - 1}"
    tracker.step([], 2 + config.max_age)
    assert tracker.live_tracks == []  # miss number max_age + 1

    # a tentative track disappears after a single miss
    tracker2 = Tracker(config)
    tracker2.step([det(0)], 0)
    tracker2.step([], 1)
    assert tracker2.live_tracks == []


def test_kitti_ground_truth_range_distribution(kitti_tracking_root):
    """Data-conditional: annotated car boxes must land the per-track range
    RMSE mean inside [0.9, 2.0] m; skipped when the dataset is absent."""
    if kitti_tracking_root is None:
        pytest.skip("KITTI tracking data not present locally")
    from tsdiag.evaluation import range_error_report

    label_dir = os.path.join(kitti_tracking_root, "label_02")
    per_track_values = []
    for name in sorted(os.listdir(label_dir)):
        if not name.endswith(".txt"):
            continue
        with open(os.path.join(label_dir, name)) as fh:
            records = parse_label_file(fh)
        report = range_error_report(records, kitti_intrinsics(),
                                    class_labels=("car",))
        per_track_values.extend(report.per_track_rmse_m.values())
    assert per_track_values, "no car tracks found in the dataset"
    mean = sum(per_track_values) / len(per_track_values)
    assert 0.9 <= mean <= 2.0, f"per-track RMSE mean {mean:.3f} m outside [0.9, 2.0]"


def test_cmd_run_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV and SVG."""
    fixture = write_fixture(str(tmp_path / "scene"))
    outputs = []
    for name in ("first", "second"):
        out_dir = str(tmp_path / name)
        code = main(["run", fixture, "--output-dir", out_dir,
                     "--jitter-px", "2.0", "--seed", "21"])
        assert code == 0
        with open(os.path.join(out_dir, "diagram.csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(out_dir, "diagram.svg"), "rb") as fh:
            svg_bytes = fh.read()
        outputs.append((csv_bytes, svg_bytes))
    assert outputs[0][0] == outputs[1][0], "CSV outputs differ between runs"
    assert outputs[0][1] == outputs[1][1], "SVG outputs differ between runs"
