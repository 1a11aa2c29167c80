import argparse
import dataclasses
import functools
import json
import os
import string
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from tsdiag.cli import _add_override_flags, _collect_overrides, main
from tsdiag.config import CONFIG_SCHEMA, PipelineConfig, build_config, dump_config, load_config
from tsdiag.errors import ConfigError, PipelineError, ValidationError
from tsdiag.pipeline import _stage
from tsdiag.kitti import parse_detections_file
from tsdiag.synth import head_on_scene, write_fixture, write_scene_files
from tsdiag.trajectory import diagram_from_csv


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("scene")
    config_path = write_fixture(str(directory))
    return str(directory), config_path


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = build_config({})
        assert load_config_from_text(dump_config(cfg)) == cfg

    def test_fixture_config_round_trip(self, fixture_dir):
        _, config_path = fixture_dir
        cfg = load_config(config_path)
        assert load_config_from_text(dump_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"frobnicate": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"max_age": "many"})
        with pytest.raises(ConfigError):
            build_config({"distance_mode": "diagonal"})
        with pytest.raises(ConfigError):
            build_config({"smoothing_window": "4"})
        with pytest.raises(ConfigError):
            build_config({"drop_rate": "1.0"})

    def test_kitti_preset_resolves(self):
        cfg = build_config({"preset": "kitti"})
        assert cfg.intrinsics.focal_length_px == 721.0
        assert cfg.intrinsics.class_height_m == {"car": 1.5}

    def test_explicit_camera_overrides_preset(self):
        cfg = build_config({"preset": "kitti", "focal_length_px": "800.0"})
        assert cfg.intrinsics.focal_length_px == 800.0

    def test_class_heights_parsed(self):
        cfg = build_config({"class_heights": "car:1.5, van:2.1"})
        assert cfg.intrinsics.class_height_m == {"car": 1.5, "van": 2.1}

    def test_overrides_win_over_file(self, fixture_dir):
        _, config_path = fixture_dir
        cfg = load_config(config_path, {"seed": "99"})
        assert cfg.seed == 99


TABLE_KEYS = [key for keys in CONFIG_SCHEMA.values() for key in keys]

# dump_config(build_config({})) as it must stay: run_meta.txt is built on it
DEFAULT_MANIFEST = "\n".join([
    "[paths]", "labels = ", "detections = ", "oxts = ", "timestamps = ", "embeddings = ",
    "output_dir = out", "",
    "[camera]", "preset = ", "focal_length_px = 721.0", "image_height_px = 376.0",
    "sensor_height_px = 362.0", "image_width_px = 1242.0", "class_heights = car:1.5", "",
    "[tracker]", "nn_metric = cosine", "max_dist = 0.2", "max_iou_dist = 0.7", "max_age = 30",
    "n_init = 2", "appearance_ema_alpha = 0.9", "use_appearance = false",
    "mahalanobis_gate = 9.4877", "",
    "[lane_filter]", "lane_filter = true", "traffic_side = right",
    "lane_offset_threshold_m = -1.5", "image_fraction = 0.5", "min_side_fraction = 0.7", "",
    "[range]", "min_bbox_height_px = 8.0", "max_range_m = 120.0", "",
    "[link]", "link_start_lat = 0.0", "link_start_lon = 0.0", "link_length_m = 300.0", "",
    "[run]", "sequence_id = ", "classes = car", "distance_mode = direct", "frame_rate_hz = 10.0",
    "smoothing_window = 1", "seed = 0", "jitter_px = 0.0", "drop_rate = 0.0",
    "include_dontcare = false", "", "",
])


def _float_text(**bounds):
    return st.floats(allow_nan=False, **bounds).map(repr)


_label = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=8)
_text = st.text(alphabet=string.ascii_letters + string.digits + "/._- ", max_size=12)
_bool_text = st.sampled_from(["true", "false", "yes", "no", "1", "0", "on", "off", "TRUE", "Off"])
_positive = _float_text(min_value=1e-3, max_value=1e6)
_unit = _float_text(min_value=0.0, max_value=1.0)
_open_unit = _float_text(min_value=0.0, max_value=1.0, exclude_min=True)

# one strategy of valid text per key
VALID_VALUES = {
    "labels": _text, "detections": _text, "oxts": _text, "timestamps": _text,
    "embeddings": _text, "output_dir": _text,
    "preset": st.sampled_from(["", "none", "kitti", "KITTI", " None "]),
    "focal_length_px": _positive, "image_height_px": _positive,
    "sensor_height_px": _positive,
    "image_width_px": _float_text(min_value=0.0, exclude_min=True, allow_infinity=False),
    "nn_metric": st.sampled_from(["cosine", "euclidean"]),
    "max_dist": _open_unit, "max_iou_dist": _open_unit,
    "max_age": st.integers(1, 1000).map(str), "n_init": st.integers(1, 10).map(str),
    "appearance_ema_alpha": _unit, "use_appearance": _bool_text,
    "mahalanobis_gate": _float_text(min_value=0.0, exclude_min=True),
    "lane_filter": _bool_text, "traffic_side": st.sampled_from(["right", "left", " left "]),
    "lane_offset_threshold_m": _float_text(allow_infinity=False), "image_fraction": _unit,
    "min_side_fraction": _unit,
    "min_bbox_height_px": _float_text(min_value=0.0, allow_infinity=False),
    "max_range_m": _positive,
    "link_start_lat": _float_text(min_value=-90.0, max_value=90.0),
    "link_start_lon": _float_text(min_value=-180.0, max_value=180.0),
    "link_length_m": _positive,
    "sequence_id": _text,
    "distance_mode": st.sampled_from(["direct", "cumulative"]),
    "frame_rate_hz": _positive,
    "smoothing_window": st.integers(0, 10).map(lambda k: str(2 * k + 1)),
    "seed": st.integers(-2**31, 2**31).map(str),
    "jitter_px": _float_text(min_value=0.0, max_value=100.0),
    "drop_rate": _float_text(min_value=0.0, max_value=1.0, exclude_max=True),
    "include_dontcare": _bool_text,
}

CLASS_KEYS = {"classes", "class_heights"}


@st.composite
def _class_values(draw):
    """Valid text of classes and class_heights, drawn together.

    Either key may be left out (the defaults are car and car:1.5), but
    every class must have a height.
    """
    values = {}
    labels = ["car"]
    heights = draw(st.none() | st.dictionaries(
        _label, st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=3))
    if heights is not None:
        values["class_heights"] = ", ".join(f"{label}:{h!r}" for label, h in heights.items())
        labels = list(heights)
    if "car" not in labels or draw(st.booleans()):
        values["classes"] = ",".join(
            draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3)))
    return values


class TestConfigTable:
    def test_every_key_written_once(self):
        assert len(TABLE_KEYS) == len(set(TABLE_KEYS)) == 39
        assert not CLASS_KEYS & set(VALID_VALUES)
        assert set(VALID_VALUES) | CLASS_KEYS == set(TABLE_KEYS)

    def test_paths_name_fields_and_only_preset_maps_to_none(self):
        defaults = PipelineConfig()
        unmapped = []
        for keys in CONFIG_SCHEMA.values():
            for key, path in keys.items():
                if path is None:
                    unmapped.append(key)
                    continue
                *owner_path, name = path.split(".")
                owner = functools.reduce(getattr, owner_path, defaults)
                assert name in {f.name for f in dataclasses.fields(owner)}, key
        assert unmapped == ["preset"]

    def test_defaults_equal_dataclass_defaults(self):
        assert build_config({}) == PipelineConfig()

    def test_default_manifest_pinned(self):
        assert dump_config(build_config({})) == DEFAULT_MANIFEST

    def test_manifest_formats_composite_values(self):
        cfg = build_config({"classes": "Car, van", "class_heights": "van:2, car:1.5",
                            "use_appearance": "YES", "max_age": "7", "seed": "-3"})
        lines = dump_config(cfg).splitlines()
        for line in ("classes = car,van", "class_heights = car:1.5,van:2.0",
                     "use_appearance = true", "max_age = 7", "seed = -3"):
            assert line in lines

    @given(st.fixed_dictionaries({}, optional=VALID_VALUES), _class_values())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_over_valid_values(self, values, class_values):
        cfg = build_config({**values, **class_values})
        assert load_config_from_text(dump_config(cfg)) == cfg

    def test_each_key_has_one_flag_and_one_manifest_line(self):
        parser = argparse.ArgumentParser()
        _add_override_flags(parser)
        flags = [option for action in parser._actions if action.dest.startswith("cfg_")
                 for option in action.option_strings]
        assert sorted(flags) == sorted(f"--{key.replace('_', '-')}" for key in TABLE_KEYS)
        for key in TABLE_KEYS:
            args = parser.parse_args([f"--{key.replace('_', '-')}", "v"])
            assert _collect_overrides(args) == {key: "v"}
        manifest_keys = [line.split(" = ")[0] for line in dump_config(build_config({})).splitlines()
                         if " = " in line]
        assert manifest_keys == TABLE_KEYS

    @pytest.mark.parametrize("preset", ["", "none", "NONE", "kitti", " Kitti "])
    @pytest.mark.parametrize("camera", [
        {}, {"focal_length_px": "800.0"}, {"class_heights": "car:1.6, van:2.0"},
        {"image_height_px": "400", "sensor_height_px": "380"}])
    def test_every_preset_spelling_gives_the_same_config(self, preset, camera):
        assert build_config({"preset": preset, **camera}) == build_config(camera)

    @pytest.mark.parametrize("values, message", [
        ({"frobnicate": "1"}, "unknown configuration key 'frobnicate'"),
        ({"max_age": "many"}, "bad value 'many' for key 'max_age' (expected int)"),
        ({"use_appearance": "maybe"}, "bad value 'maybe' for key 'use_appearance' (expected bool)"),
        ({"max_dist": "x"}, "bad value 'x' for key 'max_dist' (expected float)"),
        ({"preset": "Nikon"}, "unknown camera preset 'nikon'"),
        ({"class_heights": "car"}, "class_heights entry 'car' must look like label:meters"),
        ({"class_heights": "car:-1"}, "class height for 'car' must be positive"),
        ({"focal_length_px": "0"}, "focal_length_px must be positive"),
        ({"max_age": "0"}, "max_age must be >= 1, got 0"),
        ({"traffic_side": "up"}, "traffic_side must be right or left, got 'up'"),
        ({"distance_mode": "diagonal"},
         "distance_mode must be direct or cumulative, got 'diagonal'"),
        ({"smoothing_window": "4"}, "smoothing_window must be a positive odd integer, got 4"),
        ({"drop_rate": "1.0"}, "drop_rate must be in [0, 1), got 1.0"),
        ({"jitter_px": "-1"}, "jitter_px must be >= 0, got -1.0"),
        ({"frame_rate_hz": "0"}, "frame_rate_hz must be positive, got 0.0"),
        ({"link_length_m": "-5"}, "link_length_m must be positive, got -5.0"),
        ({"classes": " , "}, "classes must name at least one class label"),
        ({"classes": "", "link_length_m": "0"}, "link_length_m must be positive, got 0.0"),
        ({"image_fraction": "-1"}, "image_fraction must be in [0, 1], got -1.0"),
        ({"image_fraction": "nan"}, "image_fraction must be in [0, 1], got nan"),
        ({"min_side_fraction": "3"}, "min_side_fraction must be in [0, 1], got 3.0"),
        ({"link_start_lat": "91"}, "link start: latitude 91.0 outside [-90, 90]"),
        ({"link_start_lon": "inf"}, "link start: longitude inf is not finite"),
        ({"image_width_px": "0"}, "image_width_px must be finite and positive, got 0.0"),
        ({"image_width_px": "nan"}, "image_width_px must be finite and positive, got nan"),
        ({"image_width_px": "inf"}, "image_width_px must be finite and positive, got inf"),
        ({"max_range_m": "-1"}, "max_range_m must be positive, got -1.0"),
        ({"max_range_m": "nan"}, "max_range_m must be positive, got nan"),
        ({"min_bbox_height_px": "-3"}, "min_bbox_height_px must be finite and >= 0, got -3.0"),
        ({"min_bbox_height_px": "nan"}, "min_bbox_height_px must be finite and >= 0, got nan"),
        ({"min_bbox_height_px": "inf"}, "min_bbox_height_px must be finite and >= 0, got inf"),
        ({"mahalanobis_gate": "-1"}, "mahalanobis_gate must be positive, got -1.0"),
        ({"mahalanobis_gate": "0"}, "mahalanobis_gate must be positive, got 0.0"),
        ({"mahalanobis_gate": "nan"}, "mahalanobis_gate must be positive, got nan"),
        ({"lane_offset_threshold_m": "nan"}, "lane_offset_threshold_m must be finite, got nan"),
        ({"lane_offset_threshold_m": "-inf"},
         "lane_offset_threshold_m must be finite, got -inf"),
        ({"classes": "car,tram"}, "no class_heights entry for 'tram' in classes"),
        ({"classes": "Van, truck", "class_heights": "car:1.5,van:2"},
         "no class_heights entry for 'truck' in classes"),
        ({"class_heights": "van:2"}, "no class_heights entry for 'car' in classes"),
    ])
    def test_error_messages(self, values, message):
        with pytest.raises(ConfigError) as info:
            build_config(values)
        assert str(info.value) == message

    def test_range_checks_live_on_the_dataclass(self):
        with pytest.raises(ValidationError, match="smoothing_window"):
            PipelineConfig(smoothing_window=4)
        with pytest.raises(ValidationError, match="classes"):
            PipelineConfig(classes=())

    def test_configs_do_not_share_class_heights(self):
        assert build_config({}).intrinsics.class_height_m is not \
            build_config({}).intrinsics.class_height_m


class TestStage:
    def test_exception_reraised_naming_the_stage(self):
        original = OSError("disk gone")
        with pytest.raises(PipelineError) as info:
            with _stage("render"):
                raise original
        assert info.value.stage == "render"
        assert str(info.value) == "render: disk gone"
        assert info.value.__cause__ is original

    def test_pipeline_error_passes_unchanged(self):
        inner = PipelineError("ingest", "no OXTS")
        with pytest.raises(PipelineError) as info:
            with _stage("diagram"):
                raise inner
        assert info.value is inner

    def test_interrupt_is_not_wrapped(self):
        with pytest.raises(KeyboardInterrupt):
            with _stage("tracking"):
                raise KeyboardInterrupt

    def test_clean_block_passes(self):
        with _stage("tracking"):
            value = 1
        assert value == 1


def load_config_from_text(text):
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        return load_config(path)
    finally:
        os.unlink(path)


class TestRunCommand:
    def test_run_succeeds_and_writes_outputs(self, fixture_dir, capsys):
        directory, config_path = fixture_dir
        assert main(["run", config_path]) == 0
        out_dir = os.path.join(directory, "out")
        for name in ("diagram.csv", "diagram.svg", "run_meta.txt"):
            assert os.path.exists(os.path.join(out_dir, name))
        with open(os.path.join(out_dir, "diagram.csv")) as fh:
            text = fh.read()
        probe_rows = [ln for ln in text.splitlines()[1:] if ln.startswith("0,")]
        assert len(probe_rows) == 100  # one per frame

    def test_csv_rows_satisfy_identity_to_precision(self, fixture_dir):
        directory, config_path = fixture_dir
        main(["run", config_path])
        with open(os.path.join(directory, "out", "diagram.csv")) as fh:
            for line in fh.read().splitlines()[1:]:
                _, _, link, probe, camera, _ = line.split(",")
                assert abs(float(link) - (float(probe) + float(camera))) <= 2e-6

    def test_run_meta_reparses_to_equal_config(self, fixture_dir):
        directory, config_path = fixture_dir
        main(["run", config_path])
        cfg = load_config(config_path)
        reparsed = load_config(os.path.join(directory, "out", "run_meta.txt"))
        assert reparsed == cfg

    def test_determinism_byte_identical(self, fixture_dir, tmp_path):
        _, config_path = fixture_dir
        outputs = []
        for name in ("a", "b"):
            out_dir = str(tmp_path / name)
            assert main(["run", config_path, "--output-dir", out_dir]) == 0
            with open(os.path.join(out_dir, "diagram.csv"), "rb") as fh:
                csv_bytes = fh.read()
            with open(os.path.join(out_dir, "diagram.svg"), "rb") as fh:
                svg_bytes = fh.read()
            outputs.append((csv_bytes, svg_bytes))
        assert outputs[0] == outputs[1]

    def test_missing_oxts_exits_3_and_names_path(self, fixture_dir, tmp_path, capsys):
        _, config_path = fixture_dir
        code = main(["run", config_path, "--oxts", "/nonexistent/oxts",
                     "--output-dir", str(tmp_path / "x")])
        assert code == 3
        assert "/nonexistent/oxts" in capsys.readouterr().err

    def test_bad_oxts_token_exits_3_and_names_the_file(self, tmp_path, capsys):
        config_path = write_fixture(str(tmp_path / "scene"))
        bad = tmp_path / "scene" / "oxts" / "0000000042.txt"
        fields = bad.read_text().split()
        fields[1] = "abc"
        bad.write_text(" ".join(fields) + "\n")
        code = main(["run", config_path, "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert (f"pipeline error: ingest: {bad}: line 1: non-numeric field 'abc'"
                in capsys.readouterr().err)

    def test_config_error_exits_2(self, fixture_dir, tmp_path, capsys):
        _, config_path = fixture_dir
        code = main(["run", config_path, "--max-age", "zero"])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--min-side-fraction", "3"),
                                             ("--image-fraction", "-1"),
                                             ("--link-start-lat", "91"),
                                             ("--image-width-px", "0"),
                                             ("--mahalanobis-gate", "-1")])
    def test_out_of_range_value_exits_2_naming_it(self, fixture_dir, tmp_path, capsys,
                                                  flag, value):
        _, config_path = fixture_dir
        code = main(["run", config_path, flag, value, "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert str(float(value)) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_class_without_height_exits_2_naming_it(self, fixture_dir, tmp_path, capsys):
        # rejected before ingest, whether or not the sequence holds that class
        _, config_path = fixture_dir
        code = main(["run", config_path, "--classes", "car,tram",
                     "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert ("config error: no class_heights entry for 'tram' in classes"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_explicit_timestamps_file(self, fixture_dir, tmp_path):
        directory, config_path = fixture_dir
        stamps_path = str(tmp_path / "stamps.txt")
        with open(stamps_path, "w") as fh:
            fh.writelines(f"{0.25 * i}\n" for i in range(100))
        out_dir = str(tmp_path / "ts")
        assert main(["run", config_path, "--timestamps", stamps_path,
                     "--output-dir", out_dir]) == 0
        with open(os.path.join(out_dir, "diagram.csv")) as fh:
            second_probe_row = fh.read().splitlines()[2]
        assert second_probe_row.startswith("0,0.250000,")

    def test_multi_config_jobs(self, fixture_dir, tmp_path):
        _, config_path = fixture_dir
        out_a, out_b = str(tmp_path / "ja"), str(tmp_path / "jb")
        # same config twice into separate dirs via two sequential runs
        assert main(["run", config_path, "--output-dir", out_a]) == 0
        assert main(["run", config_path, "--output-dir", out_b]) == 0
        with open(os.path.join(out_a, "diagram.csv"), "rb") as fa, \
                open(os.path.join(out_b, "diagram.csv"), "rb") as fb:
            assert fa.read() == fb.read()


class TestEvalCommand:
    def test_eval_reports_zero_error_on_exact_scene(self, fixture_dir, tmp_path):
        _, config_path = fixture_dir
        out_dir = str(tmp_path / "eval")
        assert main(["eval", config_path, "--output-dir", out_dir]) == 0
        with open(os.path.join(out_dir, "range_report_gt.txt")) as fh:
            text = fh.read()
        assert "mean_rmse_m = 0.000000" in text
        with open(os.path.join(out_dir, "trajectory_report.txt")) as fh:
            text = fh.read()
        assert "mean_rmse_m = 0.000000" in text
        with open(os.path.join(out_dir, "hota_report.txt")) as fh:
            assert "hota = 1.000000" in fh.read()

    def test_eval_on_noisy_detections_reports_sensible_numbers(self, fixture_dir, tmp_path):
        _, config_path = fixture_dir
        out_dir = str(tmp_path / "noisy")
        code = main(["eval", config_path, "--jitter-px", "1.5",
                     "--drop-rate", "0.1", "--seed", "3",
                     "--output-dir", out_dir])
        assert code == 0

        def mean_of(name):
            with open(os.path.join(out_dir, name)) as fh:
                for line in fh:
                    if line.startswith("mean_rmse_m"):
                        return float(line.split("=")[1])
            raise AssertionError(f"no mean in {name}")

        gt_mean = mean_of("range_report_gt.txt")
        pred_mean = mean_of("range_report_pred.txt")
        assert gt_mean == pytest.approx(0.0, abs=1e-6)  # annotated boxes invert exactly
        assert pred_mean > gt_mean                      # jittered boxes do not
        with open(os.path.join(out_dir, "hota_report.txt")) as fh:
            text = fh.read()
        hota_value = float([ln for ln in text.splitlines() if ln.startswith("hota")][0].split("=")[1])
        assert 0.5 < hota_value < 1.0  # degraded but not destroyed by noise

    def test_dontcare_region_does_not_reach_the_diagram(self, tmp_path):
        # KITTI writes a DontCare row's location as -1000 placeholders; read
        # as a lateral offset, they made a region marked in ten frames an
        # oncoming "other" track, which has no real-world height (exit 4)
        config_path = write_fixture(str(tmp_path / "scene"))
        with open(tmp_path / "scene" / "labels.txt", "a") as fh:
            fh.writelines(f"{frame} -1 DontCare -1 -1 -10 900.0 50.0 950.0 100.0 "
                          "-1 -1 -1 -1000 -1000 -1000 -10\n" for frame in range(10, 20))
        outputs = []
        for include in ("true", "false"):
            out_dir = tmp_path / f"out_{include}"
            assert main(["eval", config_path, "--classes", "car,other",
                         "--class-heights", "car:1.5,other:1.5",
                         "--include-dontcare", include, "--output-dir", str(out_dir)]) == 0
            diagram = diagram_from_csv((out_dir / "diagram.csv").read_text())
            outputs.append(list(diagram.vehicle_trajectories.values()))
        assert outputs[0] == outputs[1]  # the car alone, under its own track id
        assert len(outputs[0]) == 1

    def test_eval_requires_labels(self, fixture_dir, tmp_path, capsys):
        directory, config_path = fixture_dir
        dets_path = str(tmp_path / "dets.txt")
        main(["perturb", "--labels", os.path.join(directory, "labels.txt"),
              "--out", dets_path])
        code = main(["eval", config_path, "--labels", "",
                     "--detections", dets_path,
                     "--output-dir", str(tmp_path / "e2")])
        assert code == 4
        assert "labels" in capsys.readouterr().err


class TestGeodesicCommand:
    def test_equator_degree(self, capsys):
        assert main(["geodesic", "0", "0", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "distance_m = 111319.4908" in out
        assert "azimuth1_deg" in out and "azimuth2_deg" in out

    def test_sphere_flag(self, capsys):
        assert main(["geodesic", "0", "0", "0", "1", "--flattening", "0"]) == 0
        out = capsys.readouterr().out
        assert "distance_m = 111319.4908" in out


class TestPerturbCommand:
    def test_writes_parseable_interchange_file(self, fixture_dir, tmp_path, capsys):
        directory, _ = fixture_dir
        out_path = str(tmp_path / "dets.txt")
        code = main(["perturb", "--labels", os.path.join(directory, "labels.txt"),
                     "--out", out_path, "--jitter-px", "2.0", "--seed", "5"])
        assert code == 0
        with open(out_path) as fh:
            records = parse_detections_file(fh)
        assert records
        assert all(0.5 <= r.confidence <= 1.0 for r in records)

    def test_deterministic_given_seed(self, fixture_dir, tmp_path):
        directory, _ = fixture_dir
        paths = [str(tmp_path / f"d{i}.txt") for i in range(2)]
        for path in paths:
            main(["perturb", "--labels", os.path.join(directory, "labels.txt"),
                  "--out", path, "--jitter-px", "1.5", "--drop-rate", "0.2",
                  "--seed", "11"])
        with open(paths[0]) as fa, open(paths[1]) as fb:
            assert fa.read() == fb.read()


class TestRenderCommand:
    def test_render_from_csv(self, fixture_dir, tmp_path):
        directory, config_path = fixture_dir
        main(["run", config_path])
        csv_path = os.path.join(directory, "out", "diagram.csv")
        svg_path = str(tmp_path / "re.svg")
        assert main(["render", "--csv", csv_path, "--out", svg_path]) == 0
        with open(svg_path) as fh:
            svg = fh.read()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") >= 2  # probe + one vehicle

    def test_overlay_polyline_count(self, fixture_dir, tmp_path):
        directory, config_path = fixture_dir
        main(["run", config_path])
        csv_path = os.path.join(directory, "out", "diagram.csv")
        with open(csv_path) as fh:
            diagram = diagram_from_csv(fh.read())
        n_tracks = len(diagram.vehicle_trajectories)
        svg_path = str(tmp_path / "overlay.svg")
        assert main(["render", "--csv", csv_path, "--out", svg_path,
                     "--reference", csv_path]) == 0
        with open(svg_path) as fh:
            svg = fh.read()
        assert svg.count("<polyline") == 2 * n_tracks + 2

    def test_non_finite_csv_value_exits_3_naming_line_and_column(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("track_id,time_s,link_distance_m,probe_distance_m,"
                            "camera_range_m,quality\n0,0.0,0.0,0.0,0.0,ok\n1,nan,inf,1,2,ok\n")
        code = main(["render", "--csv", str(csv_path), "--out", str(tmp_path / "bad.svg")])
        assert code == 3
        assert f"{csv_path}: line 3: non-finite time_s 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "bad.svg").exists()
        # a bad --reference is named too, not the good --csv read before it
        good_path = tmp_path / "good.csv"
        good_path.write_text("track_id,time_s,link_distance_m,probe_distance_m,"
                             "camera_range_m,quality\n0,0.0,0.0,0.0,0.0,ok\n")
        code = main(["render", "--csv", str(good_path), "--reference", str(csv_path),
                     "--out", str(tmp_path / "bad.svg")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{csv_path}: line 3: non-finite time_s 'nan'" in err
        assert str(good_path) not in err
        assert not (tmp_path / "bad.svg").exists()

    def test_render_deterministic(self, fixture_dir, tmp_path):
        directory, config_path = fixture_dir
        main(["run", config_path])
        csv_path = os.path.join(directory, "out", "diagram.csv")
        svgs = []
        for name in ("r1.svg", "r2.svg"):
            path = str(tmp_path / name)
            main(["render", "--csv", csv_path, "--out", path])
            with open(path, "rb") as fh:
                svgs.append(fh.read())
        assert svgs[0] == svgs[1]


class TestSceneFiles:
    def test_scene_files_round_trip_through_parsers(self, tmp_path):
        from tsdiag.kitti import load_oxts, parse_label_file

        scene = head_on_scene()
        paths = write_scene_files(scene, str(tmp_path / "s"))
        with open(paths["labels"]) as fh:
            records = parse_label_file(fh)
        assert len(records) == len(scene.records)
        oxts = load_oxts(paths["oxts"])
        assert len(oxts) == len(scene.oxts)
        assert oxts[0].position.latitude_deg == 0.0


class TestPipelineErrors:
    @pytest.mark.parametrize("frames", [(150,), (150, 151)], ids=["one_row", "two_rows"])
    def test_frame_without_gps_sample_exits_3(self, tmp_path, capsys, frames):
        # labels reference frames the 100-fix GPS trace never covers: one
        # such row used to be dropped silently, two failed at the diagram
        directory = str(tmp_path / "broken")
        config_path = write_fixture(directory)
        labels_path = os.path.join(directory, "labels.txt")
        with open(labels_path) as fh:
            lines = fh.read().splitlines()
        for frame in frames:
            fields = lines[0].split()
            fields[0] = str(frame)
            lines.append(" ".join(fields))
        with open(labels_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code = main(["run", config_path, "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert (f"pipeline error: ingest: {labels_path}: frame 150 has no GPS sample; "
                f"{os.path.join(directory, 'oxts')} holds frames 0 to 99"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_detection_frame_without_gps_sample_exits_3(self, tmp_path, capsys):
        config_path = write_fixture(str(tmp_path / "scene"))
        dets_path = tmp_path / "dets.txt"
        dets_path.write_text("3 car 10 10 50 50 0.9\n100 car 10 10 50 50 0.9\n")
        code = main(["run", config_path, "--detections", str(dets_path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert f"ingest: {dets_path}: frame 100 has no GPS sample" in capsys.readouterr().err

    def test_too_few_timestamps_exits_3_naming_the_file(self, tmp_path, capsys):
        config_path = write_fixture(str(tmp_path / "scene"))
        stamps_path = tmp_path / "stamps.txt"
        stamps_path.write_text("".join(f"{0.1 * i}\n" for i in range(50)))
        code = main(["run", config_path, "--timestamps", str(stamps_path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert (f"pipeline error: ingest: {stamps_path}: frame 50 beyond the 50 explicit "
                "timestamps" in capsys.readouterr().err)

    @pytest.mark.parametrize("key, text, message", [
        ("labels", None, "line 5: non-numeric field 'x'"),
        ("detections", "0 car 1 2 30 x 0.9\n", "line 1: non-numeric field 'x'"),
        ("timestamps", "0.0\n0.1\nabc\n", "line 3: non-numeric field 'abc'"),
        ("embeddings", "0 0 2 1.0 y\n", "line 1: non-numeric field 'y'"),
    ], ids=["labels", "detections", "timestamps", "embeddings"])
    def test_reader_error_names_the_file(self, tmp_path, capsys, key, text, message):
        config_path = write_fixture(str(tmp_path / "scene"))
        if text is None:  # a bad token in the fixture's own labels
            path = tmp_path / "scene" / "labels.txt"
            lines = path.read_text().splitlines()
            fields = lines[4].split()
            fields[6] = "x"
            lines[4] = " ".join(fields)
            path.write_text("\n".join(lines) + "\n")
        else:
            path = tmp_path / f"{key}.txt"
            path.write_text(text)
        code = main(["run", config_path, f"--{key}", str(path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert f"pipeline error: ingest: {path}: {message}" in capsys.readouterr().err


class TestEmbeddingsPath:
    def test_embeddings_file_feeds_appearance_matching(self, tmp_path):
        directory = str(tmp_path / "se")
        config_path = write_fixture(directory)
        scene = head_on_scene()
        # constant unit embedding for the single object in every frame
        emb_path = os.path.join(directory, "embeddings.txt")
        with open(emb_path, "w") as fh:
            for r in scene.records:
                fh.write(f"{r.frame_index} 0 4 1.0 0.0 0.0 0.0\n")
        code = main(["run", config_path,
                     "--embeddings", emb_path, "--use-appearance", "true",
                     "--output-dir", str(tmp_path / "oute")])
        assert code == 0
        with open(os.path.join(str(tmp_path / "oute"), "diagram.csv")) as fh:
            rows = [ln for ln in fh.read().splitlines()[1:] if not ln.startswith("0,")]
        assert rows  # the vehicle still tracked end to end


class TestRuntimeDependencies:
    def test_run_and_eval_never_import_scipy(self, tmp_path):
        # scipy is a test-only dependency: with its import made to fail, the
        # CLI must still import, run and evaluate
        script = textwrap.dedent("""
            import json, sys
            sys.modules["scipy"] = None
            from tsdiag.cli import main
            after_import = sorted(m for m in sys.modules if m.startswith("scipy"))
            from tsdiag.synth import write_fixture
            config = write_fixture(sys.argv[1])
            codes = [main(["run", config]), main(["eval", config])]
            print(json.dumps({"codes": codes, "after_import": after_import,
                              "after_run": sorted(m for m in sys.modules
                                                  if m.startswith("scipy"))}))
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "scene")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result == {"codes": [0, 0], "after_import": ["scipy"], "after_run": ["scipy"]}
        assert (tmp_path / "scene" / "out" / "hota_report.txt").is_file()
