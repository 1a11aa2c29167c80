"""Every name a module lists in ``__all__`` exists on that module, the
package states one version, and a checked record checks on ``_replace``."""

import importlib
import math
import os
import pkgutil
import re

import pytest

import tsdiag
from tsdiag.config import LaneFilterConfig, PipelineConfig, TrackerConfig
from tsdiag.errors import ValidationError
from tsdiag.geodesy import Ellipsoid, GeoPoint
from tsdiag.kitti import DetectionRecord, LabelRecord, OxtsSample
from tsdiag.photogrammetry import kitti_intrinsics
from tsdiag.version import __version__

MODULES = sorted(info.name for info in pkgutil.iter_modules(tsdiag.__path__, "tsdiag."))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path) as fh:
        project = fh.read().split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]*)"$', project, re.MULTILINE) == [__version__]


BOX = {"frame_index": 0, "class_label": "car", "bbox": (0.0, 0.0, 1.0, 1.0)}
# each checked class: a valid record, a bad field value, the check's message
CHECKED = [
    (Ellipsoid(), {"flattening": 1.0}, "flattening must be in [0, 1), got 1.0"),
    (GeoPoint(0.0, 0.0), {"latitude_deg": 91.0}, "latitude 91.0 outside [-90, 90]"),
    (kitti_intrinsics(), {"focal_length_px": math.inf}, "focal_length_px must be finite, got inf"),
    (TrackerConfig(), {"max_age": 0}, "max_age must be >= 1, got 0"),
    (LaneFilterConfig(), {"traffic_side": "up"}, "traffic_side must be right or left, got 'up'"),
    (PipelineConfig(), {"frame_rate_hz": math.inf}, "frame_rate_hz must be finite, got inf"),
    (DetectionRecord(**BOX), {"confidence": 2.0}, "confidence 2.0 outside [0, 1]"),
    (LabelRecord(**BOX), {"bbox": (1.0, 0.0, 1.0, 1.0)}, "degenerate bbox (1.0, 0.0, 1.0, 1.0)"),
    (OxtsSample((0.0,) * 30), {"raw_fields": (0.0,)},
     "raw_fields must have exactly 30 entries, got 1"),
]


@pytest.mark.parametrize("record, bad, message", CHECKED,
                         ids=[type(record).__name__ for record, _, _ in CHECKED])
def test_replace_checks_as_the_constructor_does(record, bad, message):
    with pytest.raises(ValidationError) as built:
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(ValidationError) as replaced:
        record._replace(**bad)
    assert str(built.value) == str(replaced.value) == message


def test_replace_normalizes_longitude():
    assert GeoPoint(0.0, 0.0)._replace(longitude_deg=-200.0).longitude_deg == 160.0
