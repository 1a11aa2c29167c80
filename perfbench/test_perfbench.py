"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import filecmp
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
from scenes import SceneSpec, write_scene  # noqa: E402

from tsdiag.kitti import load_oxts, parse_label_file  # noqa: E402
from tsdiag.photogrammetry import kitti_intrinsics, range_from_height  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMALL = SceneSpec(frames=120, oncoming=6, same_direction=3, leads=2,
                  jitter_px=0.0, drop_rate=0.0, oxts_layout="file")


def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def scene_files(directory: Path) -> list[str]:
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*") if p.is_file())


def test_scene_is_byte_identical_per_seed(tmp_path):
    write_scene(SMALL, 7, str(tmp_path / "a"), "small")
    write_scene(SMALL, 7, str(tmp_path / "b"), "small")
    names = scene_files(tmp_path / "a")
    assert names == scene_files(tmp_path / "b")
    # config.ini names its own directory, so compare it with that swapped
    config_a = (tmp_path / "a" / "config.ini").read_text().replace(str(tmp_path / "a"), "")
    config_b = (tmp_path / "b" / "config.ini").read_text().replace(str(tmp_path / "b"), "")
    assert config_a == config_b
    others = [n for n in names if n != "config.ini"]
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", others,
                                           shallow=False)
    assert not mismatch and not errors


def test_scene_differs_across_seeds(tmp_path):
    write_scene(SMALL, 1, str(tmp_path / "a"), "small")
    write_scene(SMALL, 2, str(tmp_path / "b"), "small")
    assert ((tmp_path / "a" / "labels.txt").read_bytes()
            != (tmp_path / "b" / "labels.txt").read_bytes())


def test_scene_has_every_vehicle_kind_and_occlusion(tmp_path):
    sizes = write_scene(SMALL, 3, str(tmp_path), "small")["sizes"]
    assert sizes["oncoming"] == 6 and sizes["same_direction"] == 3 and sizes["leads"] == 2
    assert sizes["occluded_boxes"] > 0


def test_oxts_layouts_hold_the_same_fixes(tmp_path):
    write_scene(SMALL, 4, str(tmp_path), "small")
    per_frame = load_oxts(str(tmp_path / "oxts"))
    one_file = load_oxts(str(tmp_path / "oxts.txt"))
    assert len(per_frame) == SMALL.frames
    assert [s.raw_fields for s in per_frame] == [s.raw_fields for s in one_file]


def test_box_heights_invert_to_the_true_range(tmp_path):
    write_scene(SMALL, 5, str(tmp_path), "small")
    with open(tmp_path / "labels.txt") as fh:
        records = parse_label_file(fh)
    intrinsics = kitti_intrinsics()
    assert records
    for record in records:
        estimate = range_from_height(record.height, "car", intrinsics)
        assert estimate.distance_m == pytest.approx(record.gt_depth_m, rel=1e-9)


def test_benchmark_json_follows_the_naming_rules():
    spec = bench()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_per_layer_metric_has_a_source():
    produced = set(layers.SPAN_METRICS) | {
        "cli.import_s", "cli.import_numpy_s", "cli.import_scipy_s", "config.load_s",
        "pipeline.run_s", "pipeline.write_s", "pipeline.evaluate_s", "trace.overhead"}
    assert {m["name"] for m in bench()["per_layer"]} == produced


def test_self_time_subtracts_child_spans():
    spans = [["outer", 0.0, 10.0, None, None],
             ["inner", 1.0, 4.0, 0, None],
             ["inner", 5.0, 6.0, 0, None],
             ["leaf", 2.0, 2.5, 1, None]]
    table = layers.SpanTable(spans)
    assert table.self_total("outer") == pytest.approx(6.0)
    assert table.self_total("inner") == pytest.approx(3.5)
    assert table.total("inner") == pytest.approx(4.0)
    assert table.calls("leaf", root="outer") == 1
    with pytest.raises(LookupError):
        table.total("missing")


def test_missing_function_is_reported_absent():
    tracer = layers.Tracer()
    tracer.wrap("tsdiag.tracker", "no_such_function", "tracker.predict", None)
    values, absent = layers.span_metrics([], tracer.missing)
    assert "tracker.predict_s" in absent and "no_such_function" in absent["tracker.predict_s"]
    assert "kitti.oxts_s" in absent and "did not run" in absent["kitti.oxts_s"]
    assert not values


def test_high_percentile_needs_ten_samples_above():
    assert run.high_percentile([float(i) for i in range(10)])["percentile"] is None
    high = run.high_percentile([float(i) for i in range(20)])
    assert high["percentile"] == 50 and high["value"] == 9.0
    assert run.high_percentile([float(i) for i in range(100)])["percentile"] == 90
    assert run.high_percentile([float(i) for i in range(200)])["percentile"] == 95


def test_diagram_check_flags_a_broken_identity(tmp_path):
    csv = tmp_path / "diagram.csv"
    csv.write_text("track_id,time_s,link_distance_m,probe_distance_m,camera_range_m,quality\n"
                   "0,0.000000,10.000000,10.000000,0.000000,ok\n"
                   "3,0.000000,60.000000,10.000000,50.000000,ok\n"
                   "3,0.100000,59.000000,11.000000,48.500000,ok\n")
    checked = run.check_diagram(csv)
    assert checked["rows"] == 3 and checked["vehicle_rows"] == 2
    assert checked["identity_error_m"] == pytest.approx(0.5)
    assert len(checked["sha256"]) == 64


@pytest.mark.parametrize("trace", [0, 1])
def test_every_listed_metric_is_produced(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cold_small", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = [m["name"] for m in bench()["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == listed
    if not trace:
        assert result["metrics"]["hota"]["value"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
