import argparse
import functools
import hashlib
import json
import os
import string
import subprocess
import sys
import textwrap
import xml.dom.minidom

import pytest
from hypothesis import given, settings, strategies as st

from tsdiag.cli import _add_override_flags, _collect_overrides, main
from tsdiag.config import CONFIG_SCHEMA, PipelineConfig, build_config, dump_config, load_config
from tsdiag.errors import ConfigError, InputError, OutputError, PipelineError, ValidationError
from tsdiag.pipeline import _stage, run_pipeline
from tsdiag.kitti import DetectionRecord, format_detections, parse_detections_file
from tsdiag.synth import head_on_scene, write_fixture, write_scene_files
from tsdiag.trajectory import diagram_from_csv, diagram_to_csv, smooth_diagram


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("scene")
    config_path = write_fixture(str(directory))
    return str(directory), config_path


def _put_bad_token_on_line_5(path):
    """Replace a numeric field on line 5 of a label file with 'x'."""
    lines = path.read_text().splitlines()
    fields = lines[4].split()
    fields[6] = "x"
    lines[4] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")


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
        # the KITTI camera is the default one, with no key to select it
        cfg = build_config({})
        assert cfg.intrinsics.focal_length_px == 721.0
        assert cfg.intrinsics.class_height_m == {"car": 1.5}

    def test_explicit_camera_overrides_preset(self):
        cfg = build_config({"focal_length_px": "800.0"})
        assert cfg.intrinsics.focal_length_px == 800.0
        assert cfg.intrinsics.image_height_px == 376.0

    @pytest.mark.parametrize("section, key", [("paths", "embeddings"), ("camera", "preset"),
                                              ("run", "include_dontcare"),
                                              ("tracker", "nn_metric"),
                                              ("lane_filter", "image_fraction"),
                                              ("lane_filter", "min_side_fraction")])
    def test_removed_key_in_a_file_exits_2(self, tmp_path, capsys, section, key):
        # as an older run_meta.txt writes it; ignoring the key would drop
        # what it meant without a word
        config_path = tmp_path / "config.ini"
        config_path.write_text(f"[{section}]\n{key} = \n")
        assert main(["run", str(config_path)]) == 2
        assert (f"config error: unknown key {key!r} in section [{section}]"
                in capsys.readouterr().err)

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
    "[paths]", "labels = ", "detections = ", "oxts = ", "timestamps = ", "output_dir = out", "",
    "[camera]", "focal_length_px = 721.0", "image_height_px = 376.0",
    "sensor_height_px = 362.0", "image_width_px = 1242.0", "class_heights = car:1.5", "",
    "[tracker]", "max_dist = 0.2", "max_iou_dist = 0.7", "max_age = 30",
    "n_init = 2", "appearance_ema_alpha = 0.9", "use_appearance = false",
    "mahalanobis_gate = 9.4877", "",
    "[lane_filter]", "lane_filter = true", "traffic_side = right",
    "lane_offset_threshold_m = -1.5", "",
    "[range]", "min_bbox_height_px = 8.0", "max_range_m = 120.0", "",
    "[link]", "link_start_lat = 0.0", "link_start_lon = 0.0", "link_length_m = 300.0", "",
    "[run]", "sequence_id = ", "classes = car", "distance_mode = direct", "frame_rate_hz = 10.0",
    "smoothing_window = 1", "seed = 0", "jitter_px = 0.0", "drop_rate = 0.0", "", "",
])


def _float_text(**bounds):
    return st.floats(allow_nan=False, **bounds).map(repr)


_label = st.sampled_from(["car", "van", "truck", "pedestrian", "person_sitting", "cyclist",
                          "tram", "misc"])
_text = st.text(alphabet=string.ascii_letters + string.digits + "/._- ", max_size=12)
_bool_text = st.sampled_from(["true", "false", "yes", "no", "1", "0", "on", "off", "TRUE", "Off"])
_positive = _float_text(min_value=1e-3, max_value=1e6)
_unit = _float_text(min_value=0.0, max_value=1.0)
_open_unit = _float_text(min_value=0.0, max_value=1.0, exclude_min=True)

# one strategy of valid text per key
VALID_VALUES = {
    "labels": _text, "detections": _text, "oxts": _text, "timestamps": _text,
    "output_dir": _text,
    "focal_length_px": _positive, "image_height_px": _positive,
    "sensor_height_px": _positive,
    "image_width_px": _float_text(min_value=0.0, exclude_min=True, allow_infinity=False),
    "max_dist": _open_unit, "max_iou_dist": _open_unit,
    "max_age": st.integers(1, 1000).map(str), "n_init": st.integers(1, 10).map(str),
    "appearance_ema_alpha": _unit, "use_appearance": _bool_text,
    "mahalanobis_gate": _float_text(min_value=0.0, exclude_min=True),
    "lane_filter": _bool_text, "traffic_side": st.sampled_from(["right", "left", " left "]),
    "lane_offset_threshold_m": _float_text(allow_infinity=False),
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
}

CLASS_KEYS = {"classes", "class_heights"}


@st.composite
def _class_values(draw):
    """Valid text of classes and class_heights, drawn together.

    Either key may be left out (the defaults are car and car:1.5), but
    every class must have a height, and no class is named twice.
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
            draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True)))
    return values


class TestConfigTable:
    def test_every_key_written_once(self):
        assert len(TABLE_KEYS) == len(set(TABLE_KEYS)) == 33
        assert not CLASS_KEYS & set(VALID_VALUES)
        assert set(VALID_VALUES) | CLASS_KEYS == set(TABLE_KEYS)

    def test_every_path_names_a_field(self):
        defaults = PipelineConfig()
        for keys in CONFIG_SCHEMA.values():
            for key, path in keys.items():
                *owner_path, name = path.split(".")
                owner = functools.reduce(getattr, owner_path, defaults)
                assert name in owner._fields, key

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
        # each spelling that used to parse, and set nothing, now fails alike
        with pytest.raises(ConfigError) as info:
            build_config({"preset": preset, **camera})
        assert str(info.value) == "unknown configuration key 'preset'"

    @pytest.mark.parametrize("values, message", [
        ({"frobnicate": "1"}, "unknown configuration key 'frobnicate'"),
        ({"max_age": "many"}, "bad value 'many' for key 'max_age' (expected int)"),
        ({"use_appearance": "maybe"}, "bad value 'maybe' for key 'use_appearance' (expected bool)"),
        ({"max_dist": "x"}, "bad value 'x' for key 'max_dist' (expected float)"),
        ({"preset": "kitti"}, "unknown configuration key 'preset'"),
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
        ({"image_fraction": "0.5"}, "unknown configuration key 'image_fraction'"),
        ({"min_side_fraction": "0.7"}, "unknown configuration key 'min_side_fraction'"),
        ({"lane_offset_threshold_m": "inf"}, "lane_offset_threshold_m must be finite, got inf"),
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
        ({"embeddings": "vectors.txt"}, "unknown configuration key 'embeddings'"),
        ({"class_heights": "car:1.5, Car:1.7"}, "class_heights names 'car' more than once"),
        ({"classes": "car,bus", "class_heights": "car:1.5,bus:3"},
         "unknown class 'bus' in classes; the classes are car, van, truck, pedestrian, "
         "person_sitting, cyclist, tram, misc"),
        ({"classes": "other,dontcare"}, "unknown class 'other', 'dontcare' in classes; the "
         "classes are car, van, truck, pedestrian, person_sitting, cyclist, tram, misc"),
        ({"include_dontcare": "true"}, "unknown configuration key 'include_dontcare'"),
        ({"jitter_px": "nan"}, "jitter_px must be >= 0, got nan"),
        ({"focal_length_px": "inf"}, "focal_length_px must be finite, got inf"),
        ({"image_height_px": "inf"}, "image_height_px must be finite, got inf"),
        ({"sensor_height_px": "inf"}, "sensor_height_px must be finite, got inf"),
        ({"class_heights": "car:inf"}, "class height for 'car' must be finite, got inf"),
        ({"link_length_m": "inf"}, "link_length_m must be finite, got inf"),
        ({"frame_rate_hz": "inf"}, "frame_rate_hz must be finite, got inf"),
        ({"class_heights": "car:1.5,bsu:3"},
         "unknown class 'bsu' in class_heights; the classes are car, van, truck, "
         "pedestrian, person_sitting, cyclist, tram, misc"),
        ({"classes": "car, Car"}, "classes names 'car' more than once"),
        ({"sequence_id": "demo\nrun 2"}, "value of key 'sequence_id' holds a line break"),
        ({"labels": "a.txt\r"}, "value of key 'labels' holds a line break"),
        ({"max_age": "3\n"}, "value of key 'max_age' holds a line break"),
        ({"sequence_id": "demo\x0brun"},
         "value of key 'sequence_id' holds U+000B, which an XML title cannot hold"),
        ({"sequence_id": "\x00"},
         "value of key 'sequence_id' holds U+0000, which an XML title cannot hold"),
        ({"sequence_id": "run \udcff"},
         "value of key 'sequence_id' holds U+DCFF, which an XML title cannot hold"),
        ({"sequence_id": "run \ufffe"},
         "value of key 'sequence_id' holds U+FFFE, which an XML title cannot hold"),
        ({"sequence_id": "run \uffff"},
         "value of key 'sequence_id' holds U+FFFF, which an XML title cannot hold"),
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

    def test_input_error_passes_unchanged(self):
        inner = InputError("labels.txt: line 5: non-numeric field 'x'")
        with pytest.raises(InputError) as info:
            with _stage("ingest"):
                raise inner
        assert info.value is inner

    def test_output_error_passes_unchanged(self):
        inner = OutputError("out/diagram.csv: [Errno 21] Is a directory")
        with pytest.raises(OutputError) as info:
            with _stage("render"):
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
        assert probe_rows[13].startswith("0,1.300000,")  # frame 13 at the default 10 Hz

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

    def test_smoothing_window_smooths_the_written_diagram(self, fixture_dir, tmp_path):
        # jittered boxes, so the median filter moves points
        _, config_path = fixture_dir
        noise = {"jitter_px": "2", "seed": "1"}
        raw = run_pipeline(load_config(config_path, noise)).diagram
        out_dir = tmp_path / "smoothed"
        assert main(["run", config_path, "--jitter-px", "2", "--seed", "1",
                     "--smoothing-window", "5", "--output-dir", str(out_dir)]) == 0
        text = (out_dir / "diagram.csv").read_text()
        assert text == diagram_to_csv(smooth_diagram(raw, 5))
        assert text != diagram_to_csv(raw)
        for line in text.splitlines()[1:]:
            _, _, link, probe, camera, _ = line.split(",")
            assert abs(float(link) - (float(probe) + float(camera))) <= 2e-6

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

    @pytest.mark.parametrize("threshold, rows", [("-1.9", 42), ("-2.1", 0)])
    def test_lane_threshold_keeps_the_car_by_its_offset(self, fixture_dir, tmp_path,
                                                         threshold, rows):
        # the demo car is boxed 2.0 m to the probe's left: a threshold just
        # past that offset keeps all its 42 boxes, one just short drops it
        _, config_path = fixture_dir
        out_dir = tmp_path / "lane"
        assert main(["run", config_path, "--lane-offset-threshold-m", threshold,
                     "--output-dir", str(out_dir)]) == 0
        lines = (out_dir / "diagram.csv").read_text().splitlines()[1:]
        assert sum(not line.startswith("0,") for line in lines) == rows

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
        assert (f"input error: {bad}: line 1: non-numeric field 'abc'"
                in capsys.readouterr().err)

    def test_config_error_exits_2(self, fixture_dir, tmp_path, capsys):
        _, config_path = fixture_dir
        code = main(["run", config_path, "--max-age", "zero"])
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--oxts", "", "--labels", "/missing/labels.txt"], "no OXTS path configured"),
        (["--oxts", "/missing/oxts", "--labels", "", "--detections", ""],
         "need either a detections file or a labels file"),
    ], ids=["oxts", "detections-or-labels"])
    def test_unset_input_path_exits_2_before_any_read(self, fixture_dir, tmp_path, capsys,
                                                      flags, message):
        # the other input path is missing: had it been read first, the exit would be 3
        _, config_path = fixture_dir
        code = main(["run", config_path, *flags, "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--lane-offset-threshold-m", "nan"),
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

    def test_value_with_a_line_break_exits_2_naming_it(self, fixture_dir, tmp_path, capsys):
        # run_meta.txt would hold the value's second line as a line of its own
        _, config_path = fixture_dir
        code = main(["run", config_path, "--sequence-id", "demo\nrun 2",
                     "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert (capsys.readouterr().err
                == "config error: value of key 'sequence_id' holds a line break\n")
        assert not (tmp_path / "x").exists()

    def test_title_control_character_exits_2_naming_it(self, fixture_dir, tmp_path, capsys):
        # diagram.svg is titled with the sequence id, and XML has no vertical tab
        _, config_path = fixture_dir
        code = main(["run", config_path, "--sequence-id", "demo\x0brun",
                     "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == ("config error: value of key 'sequence_id' holds "
                                           "U+000B, which an XML title cannot hold\n")
        assert not (tmp_path / "x").exists()

    def test_continuation_line_exits_2_naming_the_key(self, fixture_dir, tmp_path, capsys):
        _, config_path = fixture_dir
        with open(config_path) as fh:
            text = fh.read()
        continued = tmp_path / "continued.ini"
        continued.write_text(text.replace("sequence_id = synthetic-head-on\n",
                                          "sequence_id = demo\n  second line\n"))
        code = main(["run", str(continued), "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert (capsys.readouterr().err
                == "config error: value of key 'sequence_id' holds a line break\n")
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

    def test_repeated_class_exits_2_naming_it(self, fixture_dir, tmp_path, capsys):
        # as a repeated class_heights label is; it used to run and write classes = car,car
        _, config_path = fixture_dir
        code = main(["run", config_path, "--classes", "car,Car",
                     "--output-dir", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == "config error: classes names 'car' more than once\n"
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

    def test_eval_with_uneven_timestamps_is_pinned(self, fixture_dir, tmp_path):
        # line i of the timestamps file is frame i's time; the reference
        # diagram is built on the same probe times, so the error stays 0
        _, config_path = fixture_dir
        stamps_path = tmp_path / "stamps.txt"
        stamps_path.write_text("".join(f"{0.1 * i + 0.003 * (i % 4)!r}\n" for i in range(100)))
        out_dir = tmp_path / "eval_ts"
        assert main(["eval", config_path, "--timestamps", str(stamps_path),
                     "--output-dir", str(out_dir)]) == 0
        digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                   for name in ("diagram.csv", "trajectory_report.txt")}
        assert digests == {
            "diagram.csv": "04f4959b890b64eb7f7ae2f037e8d5c79bdb615576c56e6cbbce24def4c6b744",
            "trajectory_report.txt":
                "0397f540431bbd884008c766122afb8202bfc53a1d3baf6096f05b8cbd69aee2",
        }

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
        # oncoming track.  Neither diagram nor any report sees the rows.
        config_path = write_fixture(str(tmp_path / "scene"))
        outputs = []
        for name in ("clean", "dontcare"):
            if name == "dontcare":
                with open(tmp_path / "scene" / "labels.txt", "a") as fh:
                    fh.writelines(f"{frame} -1 DontCare -1 -1 -10 900.0 50.0 950.0 100.0 "
                                  "-1 -1 -1 -1000 -1000 -1000 -10\n" for frame in range(10, 20))
            out_dir = tmp_path / name
            assert main(["eval", config_path, "--output-dir", str(out_dir)]) == 0
            outputs.append({path.name: path.read_bytes() for path in out_dir.iterdir()
                            if path.name != "run_meta.txt"})
        assert outputs[0] == outputs[1]
        diagram = diagram_from_csv(outputs[1]["diagram.csv"].decode().splitlines())
        assert len(diagram.vehicle_trajectories) == 1  # the car alone

    def test_labels_and_a_detections_file_of_the_same_boxes_score_alike(self, fixture_dir,
                                                                        tmp_path):
        # the run reads no annotation, so noisy boxes from the labels and the
        # same boxes read back from a detections file give one result
        directory, config_path = fixture_dir
        labels_out = tmp_path / "labels"
        assert main(["eval", config_path, "--jitter-px", "2", "--seed", "1",
                     "--output-dir", str(labels_out)]) == 0
        dets_path = tmp_path / "dets.txt"
        assert main(["perturb", "--labels", os.path.join(directory, "labels.txt"),
                     "--out", str(dets_path), "--jitter-px", "2", "--seed", "1"]) == 0
        dets_out = tmp_path / "dets"
        assert main(["eval", config_path, "--detections", str(dets_path),
                     "--output-dir", str(dets_out)]) == 0
        for name in ("hota_report.txt", "hota_report.csv"):
            assert (dets_out / name).read_bytes() == (labels_out / name).read_bytes(), name

        def trajectories(out_dir):
            return len(diagram_from_csv((out_dir / "diagram.csv").read_text().splitlines())
                       .vehicle_trajectories)

        assert trajectories(dets_out) == trajectories(labels_out) == 1

    @pytest.mark.parametrize("jitter", ["0", "2"])
    def test_run_path_holds_plain_detections_only(self, fixture_dir, jitter):
        _, config_path = fixture_dir
        result = run_pipeline(load_config(config_path, {"jitter_px": jitter, "seed": "1"}))
        records = result.detections + [r for t in result.tracks for r in t.records]
        assert records and result.kept_tracks
        annotated = ("gt_track_id", "gt_location_camera", "gt_depth_m")
        for record in records:
            assert type(record) is DetectionRecord
            assert not any(hasattr(record, name) for name in annotated)

    def test_eval_on_a_detections_file_pairs_the_car_by_its_boxes(self, fixture_dir, tmp_path):
        # the detections file carries no identities: the car's track pairs
        # with the annotated car through its boxes, and with the boxes as
        # annotated the trajectory error is 0
        directory, config_path = fixture_dir
        dets_path = str(tmp_path / "dets.txt")
        assert main(["perturb", "--labels", os.path.join(directory, "labels.txt"),
                     "--out", dets_path]) == 0
        out_dir = tmp_path / "dets"
        assert main(["eval", config_path, "--detections", dets_path,
                     "--output-dir", str(out_dir)]) == 0
        header, table = (out_dir / "trajectory_report.txt").read_text().split("\n\n")
        values = dict(line.split(" = ") for line in header.splitlines())
        assert (values["track_count"], values["skipped_pairs"],
                values["missed_reference_tracks"]) == ("1", "0", "0")
        (row,) = table.splitlines()[1:]
        assert row.split()[1] == "0.000000"

    def test_eval_requires_labels(self, fixture_dir, tmp_path, capsys):
        directory, config_path = fixture_dir
        dets_path = str(tmp_path / "dets.txt")
        main(["perturb", "--labels", os.path.join(directory, "labels.txt"),
              "--out", dets_path])
        capsys.readouterr()
        code = main(["eval", config_path, "--labels", "",
                     "--detections", dets_path,
                     "--output-dir", str(tmp_path / "e2")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: eval needs a labels file, from the config or --labels\n")
        assert not (tmp_path / "e2").exists()


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

    @pytest.mark.parametrize("argv, message", [
        (["95", "0", "0", "0"], "latitude 95.0 outside [-90, 90]"),
        (["0", "0", "0", "inf"], "longitude inf is not finite"),
        (["0", "0", "0", "1", "--semi-major-axis-m", "-1"],
         "semi-major axis must be positive, got -1.0"),
    ], ids=["latitude", "longitude", "ellipsoid"])
    def test_bad_value_exits_2_naming_it(self, capsys, argv, message):
        # no file is read: every value is a flag's
        assert main(["geodesic", *argv]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")


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

    def test_config_gives_the_run_detections(self, tmp_path):
        # the config's labels, jitter, drop rate and seed are those the run
        # perturbs, and a flag overrides the config as for run
        config = write_fixture(str(tmp_path / "scene"))
        labels = str(tmp_path / "scene" / "labels.txt")
        noise = ["--jitter-px", "1.5", "--drop-rate", "0.2", "--seed", "11"]
        assert main(["perturb", config, "--out", str(tmp_path / "a.txt"), *noise]) == 0
        assert main(["perturb", "--labels", labels, "--out", str(tmp_path / "b.txt"),
                     *noise]) == 0
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()
        cfg = load_config(config, {"jitter_px": "1.5", "drop_rate": "0.2", "seed": "11"})
        assert (tmp_path / "a.txt").read_text() == format_detections(
            run_pipeline(cfg).detections)

    @pytest.mark.parametrize("flags, message", [
        (["--jitter-px", "nan"], "jitter_px must be >= 0, got nan"),
        (["--jitter-px", "-1"], "jitter_px must be >= 0, got -1.0"),
        (["--drop-rate", "1.5"], "drop_rate must be in [0, 1), got 1.5"),
        (["--seed", "x"], "bad value 'x' for key 'seed' (expected int)"),
        (["--labels", ""], "perturb needs a labels file, from the config or --labels"),
    ])
    def test_bad_value_exits_2_naming_it(self, fixture_dir, tmp_path, capsys, flags,
                                         message):
        directory, _ = fixture_dir
        out = tmp_path / "d.txt"
        code = main(["perturb", "--labels", os.path.join(directory, "labels.txt"),
                     "--out", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_parse_error_names_the_labels_file(self, tmp_path, capsys):
        write_fixture(str(tmp_path / "scene"))
        path = tmp_path / "scene" / "labels.txt"
        _put_bad_token_on_line_5(path)
        code = main(["perturb", "--labels", str(path), "--out", str(tmp_path / "d.txt")])
        assert code == 3
        assert (f"input error: {path}: line 5: non-numeric field 'x'"
                in capsys.readouterr().err)


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
            diagram = diagram_from_csv(fh)
        n_tracks = len(diagram.vehicle_trajectories)
        svg_path = str(tmp_path / "overlay.svg")
        assert main(["render", "--csv", csv_path, "--out", svg_path,
                     "--reference", csv_path]) == 0
        with open(svg_path) as fh:
            svg = fh.read()
        assert svg.count("<polyline") == 2 * n_tracks + 2

    def test_missing_output_directory_is_created(self, fixture_dir, tmp_path):
        directory, config_path = fixture_dir
        main(["run", config_path])
        csv_path = os.path.join(directory, "out", "diagram.csv")
        svg_path = tmp_path / "new" / "deeper" / "re.svg"
        assert main(["render", "--csv", csv_path, "--out", str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<svg")

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

    def test_error_after_a_blank_line_names_the_line_of_the_file(self, tmp_path, capsys):
        csv_path = tmp_path / "blank.csv"
        csv_path.write_text(_DIAGRAM_HEADER + "\n0,nan,0,0,0,ok\n")
        code = main(["render", "--csv", str(csv_path), "--out", str(tmp_path / "r.svg")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"input error: {csv_path}: line 3: non-finite time_s 'nan'\n")

    @pytest.mark.parametrize("row, message", [
        ("1,0.1,5.0,0.0,5.0,good", "unknown quality 'good'"),
        ("1,0.1,5.0,0.0,5.0,5.000000", "unknown quality '5.000000'"),
        ("1,0.1,5.00001,0.0,5.0,ok", "link_distance_m '5.00001' is not probe_distance_m + "
                                     "camera_range_m"),
        # int() takes both: "00" used to read as a probe point, "-3" as vehicle -3
        ("00,0.1,40.0,11.0,29.0,ok", "track_id '00' is not 0 or a positive integer in plain "
                                     "digits"),
        ("-3,0.1,40.0,11.0,29.0,ok", "track_id '-3' is not 0 or a positive integer in plain "
                                     "digits"),
        ("0,0.1,40.0,11.0,29.0,ok", "probe row (track_id 0) has camera_range_m '29.0', not 0"),
    ], ids=["misspelled", "shifted", "link", "zero-padded", "negative", "probe-range"])
    def test_bad_row_exits_3_naming_its_line(self, tmp_path, capsys, row, message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(_DIAGRAM_HEADER + "0,0.0,0.0,0.0,0.0,ok\n\n" + row + "\n")
        code = main(["render", "--csv", str(csv_path), "--out", str(tmp_path / "r.svg")])
        assert code == 3
        assert capsys.readouterr().err == f"input error: {csv_path}: line 4: {message}\n"
        assert not (tmp_path / "r.svg").exists()

    @pytest.mark.parametrize("length, shown", [("inf", "inf"), ("nan", "nan"), ("0", "0.0"),
                                               ("-5", "-5.0")])
    def test_link_length_must_be_finite_and_positive(self, fixture_dir, tmp_path, capsys,
                                                     length, shown):
        directory, config_path = fixture_dir
        main(["run", config_path])
        csv_path = os.path.join(directory, "out", "diagram.csv")
        code = main(["render", "--csv", csv_path, "--out", str(tmp_path / "r.svg"),
                     "--link-length", length])
        assert code == 2
        assert capsys.readouterr().err == (f"config error: --link-length must be finite and "
                                           f"positive, got {shown}\n")
        assert not (tmp_path / "r.svg").exists()

    def test_title_control_character_exits_2_before_any_read(self, tmp_path, capsys):
        # the --csv file is missing: had it been read first, the exit would be 3
        svg_path = tmp_path / "r.svg"
        code = main(["render", "--csv", str(tmp_path / "missing.csv"), "--out", str(svg_path),
                     "--title", "a\x01b"])
        assert code == 2
        assert capsys.readouterr().err == ("config error: --title holds U+0001, which an XML "
                                           "title cannot hold\n")
        assert not svg_path.exists()

    def test_title_with_a_tab_renders(self, fixture_dir, tmp_path):
        directory, config_path = fixture_dir
        main(["run", config_path])
        csv_path = os.path.join(directory, "out", "diagram.csv")
        svg_path = str(tmp_path / "tab.svg")
        assert main(["render", "--csv", csv_path, "--out", svg_path, "--title", "a\tb"]) == 0
        texts = xml.dom.minidom.parse(svg_path).getElementsByTagName("text")
        assert [t.firstChild.data for t in texts if "\t" in t.firstChild.data] == ["a\tb"]

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

    def test_demo_fixture_bytes_pinned(self, tmp_path):
        # the demo scene is the cold_small benchmark's input and CI's demo run
        directory = str(tmp_path / "scene")
        config_path = write_fixture(directory)
        oxts_dir = os.path.join(directory, "oxts")
        names = sorted(os.listdir(oxts_dir))
        assert names == [f"{frame:010d}.txt" for frame in range(100)]
        oxts = b""
        for name in names:
            with open(os.path.join(oxts_dir, name), "rb") as fh:
                oxts += fh.read()
        with open(os.path.join(directory, "labels.txt"), "rb") as fh:
            labels = fh.read()
        with open(config_path, "rb") as fh:
            config = fh.read().replace(directory.encode(), b"<dir>")
        assert hashlib.sha256(labels).hexdigest() == (
            "f2073d8f97233b70aa7d04341910df6385b75f31876262d58bb1330e8d0f84e7")
        assert hashlib.sha256(oxts).hexdigest() == (
            "bce897c035a29ac731dabf29a1068293128c8e437a24d12fe0e14677cf06657c")
        assert hashlib.sha256(config).hexdigest() == (
            "d8e53dce1864cc07385126db2ccc5dc75df4cd0bde6604d8c02171b8309d3b33")


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
        assert (f"input error: {labels_path}: frame 150 has no GPS sample; "
                f"{os.path.join(directory, 'oxts')} holds frames 0 to 99"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_dontcare_row_past_the_last_fix_is_not_placed(self, tmp_path):
        # a DontCare row only marks a region, so its frame needs no GPS fix
        config_path = write_fixture(str(tmp_path / "scene"))
        clean = tmp_path / "clean"
        assert main(["eval", config_path, "--output-dir", str(clean)]) == 0
        with open(tmp_path / "scene" / "labels.txt", "a") as fh:
            fh.write("150 -1 DontCare -1 -1 -10 900.0 50.0 950.0 100.0 "
                     "-1 -1 -1 -1000 -1000 -1000 -10\n")
        out = tmp_path / "out"
        assert main(["eval", config_path, "--output-dir", str(out)]) == 0
        for path in clean.iterdir():
            if path.name != "run_meta.txt":
                assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_detection_frame_without_gps_sample_exits_3(self, tmp_path, capsys):
        config_path = write_fixture(str(tmp_path / "scene"))
        dets_path = tmp_path / "dets.txt"
        dets_path.write_text("3 car 10 10 50 50 0.9\n100 car 10 10 50 50 0.9\n")
        code = main(["run", config_path, "--detections", str(dets_path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert (f"input error: {dets_path}: frame 100 has no GPS sample"
                in capsys.readouterr().err)

    def test_too_few_timestamps_exits_3_naming_the_file(self, tmp_path, capsys):
        config_path = write_fixture(str(tmp_path / "scene"))
        stamps_path = tmp_path / "stamps.txt"
        stamps_path.write_text("".join(f"{0.1 * i}\n" for i in range(50)))
        code = main(["run", config_path, "--timestamps", str(stamps_path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert (f"input error: {stamps_path}: frame 50 beyond the 50 explicit "
                "timestamps" in capsys.readouterr().err)

    def test_too_many_timestamps_exits_3_naming_both_files(self, tmp_path, capsys):
        config_path = write_fixture(str(tmp_path / "scene"))
        stamps_path = tmp_path / "stamps.txt"
        stamps_path.write_text("".join(f"{0.1 * i}\n" for i in range(150)))
        code = main(["run", config_path, "--timestamps", str(stamps_path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        oxts_path = load_config(config_path).oxts
        assert (f"input error: {stamps_path}: 150 timestamps for the 100 GPS "
                f"fixes in {oxts_path}" in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, text, message", [
        ("labels", None, "line 5: non-numeric field 'x'"),
        ("detections", "0 car 1 2 30 x 0.9\n", "line 1: non-numeric field 'x'"),
        ("timestamps", "0.0\n0.1\nabc\n", "line 3: non-numeric field 'abc'"),
        ("timestamps", "0.0\n0.1 7\n", "line 2: expected one timestamp, got 2 fields"),
        ("detections", "0 car 1 2 30 40 0.9 2 1.0 0.0\n0 car 1 2 30 40 0.9 2 1.0 y\n",
         "line 2: non-numeric field 'y'"),
    ], ids=["labels", "detections", "timestamps", "timestamps-extra-field", "embeddings"])
    def test_reader_error_names_the_file(self, tmp_path, capsys, key, text, message):
        config_path = write_fixture(str(tmp_path / "scene"))
        if text is None:  # a bad token in the fixture's own labels
            path = tmp_path / "scene" / "labels.txt"
            _put_bad_token_on_line_5(path)
        else:
            path = tmp_path / f"{key}.txt"
            path.write_text(text)
        code = main(["run", config_path, f"--{key}", str(path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert f"input error: {path}: {message}" in capsys.readouterr().err

    def test_undecodable_byte_deep_in_a_large_file_is_placed_in_the_file(self, tmp_path):
        # a UTF-8 labels file with a bad byte 20,000 bytes in, past two 8 KiB
        # chunks: the position counts from the start of the file
        config_path = write_fixture(str(tmp_path / "scene"))
        path = tmp_path / "scene" / "labels.txt"
        head = "# Kennzeichen unleserlich: \u00fc\n".encode("utf-8") + path.read_bytes()
        path.write_bytes(head + b"#" + b"x" * (20000 - len(head) - 2) + b"\n\xff\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONUTF8="1")
        script = "import sys; from tsdiag.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run([sys.executable, "-c", script, "run", config_path,
                               "--output-dir", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 3, done.stderr
        assert done.stderr == (f"input error: {path}: 'utf-8' codec can't decode byte 0xff "
                               f"in position 20000: invalid start byte\n")


_DIAGRAM_HEADER = "track_id,time_s,link_distance_m,probe_distance_m,camera_range_m,quality\n"

# each command's path arguments as (flag, kind); None is the positional
# config file, and out and output_dir are the written paths
_PATH_ARGUMENTS = {
    "run": [(None, "config"), ("--labels", "labels"), ("--detections", "detections"),
            ("--oxts", "oxts"), ("--timestamps", "timestamps"), ("--output-dir", "output_dir")],
    "perturb": [(None, "config"), ("--labels", "labels"), ("--out", "out")],
    "render": [("--csv", "diagram"), ("--reference", "diagram"), ("--out", "out")],
}
_PATH_ARGUMENTS["eval"] = _PATH_ARGUMENTS["run"]
_OUTPUTS = {"out", "output_dir"}
# a malformed file of each kind that is read
_MALFORMED = {
    "config": "no section header\n",
    "labels": "0 1 Car x\n",
    "detections": "0 car 1 2 30 x 0.9\n",
    "oxts": "49.0 x\n",
    "timestamps": "abc\n",
    "diagram": _DIAGRAM_HEADER + "0,nan,0,0,0,ok\n",
}
# a file the command writes late into its output directory
_LATE_OUTPUT = {"run": "run_meta.txt", "eval": "hota_report.txt"}
_FAULTS = ("missing", "directory", "file", "malformed", "undecodable")
_CONTENT_FAULTS = ("malformed", "undecodable")


def _faulty_path(tmp_path, command, kind, fault):
    """A path of the given kind with one fault."""
    if fault == "missing":
        return tmp_path / "missing" / "deeper" / "name"
    if fault == "file":  # a file where a directory belongs
        (tmp_path / "a_file").write_text("")
        return tmp_path / "a_file" if kind == "output_dir" else tmp_path / "a_file" / "name"
    if fault == "directory":  # a directory where a file belongs
        if kind == "output_dir":
            (tmp_path / "out" / _LATE_OUTPUT[command]).mkdir(parents=True)
            return tmp_path / "out"
        (tmp_path / "a_dir").mkdir()
        return tmp_path / "a_dir"
    path = tmp_path / fault
    if fault == "undecodable":  # not UTF-8
        path.write_bytes(b"\xff\n")
    else:
        path.write_text(_MALFORMED[kind])
    return path


def _argv(command, config_path, tmp_path):
    """The command on good paths: the fixture's inputs, outputs in tmp_path."""
    if command == "render":
        diagram = tmp_path / "diagram.csv"
        diagram.write_text(_DIAGRAM_HEADER + "0,0.000000,0.0,0.0,0.0,ok\n")
        return ["render", "--csv", str(diagram), "--out", str(tmp_path / "diagram.svg")]
    if command == "perturb":
        return ["perturb", config_path, "--out", str(tmp_path / "dets.txt")]
    return [command, config_path, "--output-dir", str(tmp_path / "out")]


class TestFailureContract:
    """Every path argument of every command under each fault.

    The exit code follows the path's role, whatever the exception: 2 for
    the config file, 3 for a file that is read, 5 for one that is written
    (a missing output directory is created).  The message names the path,
    and an input or output error's message leads with it.
    """

    @pytest.mark.parametrize("command, flag, kind, fault", [
        pytest.param(command, flag, kind, fault,
                     id=f"{command}-{(flag or 'config').lstrip('-')}-{fault}")
        for command, arguments in _PATH_ARGUMENTS.items() for flag, kind in arguments
        for fault in _FAULTS if not (kind in _OUTPUTS and fault in _CONTENT_FAULTS)])
    def test_exit_code_follows_the_role_of_the_path(self, fixture_dir, tmp_path, capsys,
                                                    command, flag, kind, fault):
        _, config_path = fixture_dir
        path = _faulty_path(tmp_path, command, kind, fault)
        argv = _argv(command, config_path, tmp_path)
        if flag is None:
            argv[1] = str(path)
        elif flag in argv:
            argv[argv.index(flag) + 1] = str(path)
        else:
            argv += [flag, str(path)]
        code = main(argv)
        err = capsys.readouterr().err
        if kind in _OUTPUTS and fault == "missing":
            assert (code, err) == (0, "")
            assert path.exists()
        elif kind in _OUTPUTS:
            assert code == 5, err
            assert err.startswith(f"output error: {path}")
        elif kind == "config":
            assert code == 2, err
            assert err.startswith("config error: ") and str(path) in err
        else:
            assert code == 3, err
            assert err.startswith(f"input error: {path}: ")


class TestEmbeddingsPath:
    def test_embeddings_file_feeds_appearance_matching(self, tmp_path):
        directory = str(tmp_path / "se")
        config_path = write_fixture(directory)
        # constant unit vector for the single object in every frame
        records = [r._replace(embedding=(1.0, 0.0, 0.0, 0.0))
                   for r in head_on_scene().records]
        dets_path = os.path.join(directory, "dets.txt")
        with open(dets_path, "w") as fh:
            fh.write(format_detections(records))
        code = main(["run", config_path,
                     "--detections", dets_path, "--use-appearance", "true",
                     "--output-dir", str(tmp_path / "oute")])
        assert code == 0
        with open(os.path.join(str(tmp_path / "oute"), "diagram.csv")) as fh:
            rows = [ln for ln in fh.read().splitlines()[1:] if not ln.startswith("0,")]
        assert rows  # the vehicle still tracked end to end

    def test_each_vector_stays_with_its_own_box(self, tmp_path):
        # a pedestrian row before each car row: the class filter removes
        # the pedestrians, and the car track must carry the car's vector
        config_path = write_fixture(str(tmp_path / "scene"))
        lines = []
        for r in head_on_scene().records:
            left, top, right, bottom = r.bbox
            lines.append(f"{r.frame_index} pedestrian {left - 300.0!r} {top!r} "
                         f"{left - 280.0!r} {bottom!r} 1.0 2 0.0 1.0")
            lines.append(f"{r.frame_index} car {left!r} {top!r} {right!r} {bottom!r} "
                         f"1.0 2 1.0 0.0")
        dets_path = tmp_path / "dets.txt"
        dets_path.write_text("\n".join(lines) + "\n")
        cfg = load_config(config_path, {"detections": str(dets_path),
                                        "use_appearance": "true"})
        tracks = run_pipeline(cfg).tracks
        assert [t.class_label for t in tracks] == ["car"]
        assert tracks[0].appearance == (1.0, 0.0)


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

    def test_cli_import_leaves_out_statistics_and_platform(self):
        # run needs neither, and with them every start-up paid for fractions,
        # decimal and platform's regexes; nor does it need dataclasses, which
        # loads inspect, dis, ast and tokenize; -S keeps site's imports out
        script = ("import sys, tsdiag.cli; print(sorted({'statistics', 'platform', "
                  "'fractions', 'decimal', 'dataclasses', 'inspect', 'dis', 'ast', "
                  "'tokenize'} & set(sys.modules)))")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-S", "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    @pytest.fixture(scope="class")
    def numpy_blocked(self, tmp_path_factory):
        # numpy is a test-only dependency: one process with its import made
        # to fail loads the config, hits a config error, runs, evaluates,
        # perturbs, and runs on detections with vectors, appearance off and
        # on; each test below checks its part of the run
        bare = tmp_path_factory.mktemp("numpy_blocked") / "bare"
        script = textwrap.dedent("""
            import json, sys
            sys.modules["numpy"] = None
            import tsdiag.config
            from tsdiag.cli import main
            from tsdiag.synth import write_fixture
            scene = sys.argv[1]
            config = write_fixture(scene)
            plain, with_vectors = scene + "/dets.txt", scene + "/vectors.txt"
            codes = [main(["run", config, "--max-age", "0"]), main(["run", config]),
                     main(["eval", config]), main(["perturb", config, "--out", plain])]
            with open(plain) as fh, open(with_vectors, "w") as out:
                for row, line in enumerate(fh):
                    vector = " 2 1.0 0.0" if row % 2 else " 2 0.9 0.2"
                    out.write(line.rstrip("\\n") + vector + "\\n")
            codes.append(main(["run", config, "--detections", with_vectors,
                               "--output-dir", scene + "/vectors"]))
            codes.append(main(["run", config, "--detections", with_vectors,
                               "--use-appearance", "true", "--output-dir", scene + "/appearance"]))
            print(json.dumps({"codes": codes,
                              "numpy": sorted(m for m in sys.modules if m.startswith("numpy")
                                              and sys.modules[m] is not None)}))
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-c", script, str(bare)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["numpy"] == []
        return bare, result["codes"], done.stderr

    def test_config_and_run_never_import_numpy(self, numpy_blocked, tmp_path):
        # the config loads, a config error exits 2 with its message, and run
        # writes the same diagram as a process that has numpy
        bare, codes, stderr = numpy_blocked
        assert codes[:2] == [2, 0]
        assert "config error: max_age must be >= 1, got 0" in stderr

        config = write_fixture(str(tmp_path / "full"))
        assert main(["run", config]) == 0
        for name in ("diagram.csv", "diagram.svg"):
            assert ((bare / "out" / name).read_bytes()
                    == (tmp_path / "full" / "out" / name).read_bytes()), name

    def test_eval_never_imports_numpy(self, numpy_blocked, tmp_path):
        # eval exits 0 and writes the same eight reports as a process that
        # has numpy
        bare, codes, _ = numpy_blocked
        assert codes[2] == 0

        config = write_fixture(str(tmp_path / "full"))
        assert main(["run", config]) == 0
        assert main(["eval", config]) == 0
        reports = [f"{name}.{ext}" for name in ("range_report_gt", "range_report_pred",
                                                "trajectory_report", "hota_report")
                   for ext in ("txt", "csv")]
        for name in reports:
            assert ((bare / "out" / name).read_bytes()
                    == (tmp_path / "full" / "out" / name).read_bytes()), name

    def test_run_on_detections_with_vectors_never_imports_numpy(self, numpy_blocked, tmp_path):
        # perturb writes detections, vectors are parsed on plain Python, and
        # with appearance off the vectors leave the diagram as it was, and
        # with it on the one car is tracked as without them
        bare, codes, _ = numpy_blocked
        assert codes[3:] == [0, 0, 0]
        assert " 2 1.0 0.0" in (bare / "vectors.txt").read_text()

        assert main(["run", str(bare / "config.ini"), "--detections", str(bare / "dets.txt"),
                     "--output-dir", str(tmp_path / "plain")]) == 0
        plain = (tmp_path / "plain" / "diagram.csv").read_bytes()
        for run in ("vectors", "appearance"):
            assert (bare / run / "diagram.csv").read_bytes() == plain, run
