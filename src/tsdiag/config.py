"""Run configuration: INI-style files with key = value sections.

CONFIG_SCHEMA lists every key once, with the PipelineConfig attribute it
sets; a key's type, default and check are those of its attribute, all
defined here.  Every key is also a command-line flag of the same name;
dump_config() writes a manifest that re-parses to an equal PipelineConfig,
which is what run_meta.txt relies on.
"""

from __future__ import annotations

import configparser
import functools
import io
import math
import re
from collections.abc import Mapping
from typing import NamedTuple

from .errors import Checked, ConfigError, ValidationError
from .geodesy import GeoPoint
from .photogrammetry import (DEFAULT_MAX_RANGE_M, DEFAULT_MIN_BBOX_HEIGHT_PX, CameraIntrinsics,
                             kitti_intrinsics)

__all__ = ["PipelineConfig", "TrackerConfig", "LaneFilterConfig", "CONFIG_SCHEMA",
           "load_config", "build_config", "dump_config"]

# section -> key -> attribute path in PipelineConfig; keys are globally
# unique so each doubles as a CLI flag name
CONFIG_SCHEMA: dict[str, dict[str, str]] = {
    "paths": {
        "labels": "labels",
        "detections": "detections",
        "oxts": "oxts",
        "timestamps": "timestamps",
        "output_dir": "output_dir",
    },
    "camera": {
        "focal_length_px": "intrinsics.focal_length_px",
        "image_height_px": "intrinsics.image_height_px",
        "sensor_height_px": "intrinsics.sensor_height_px",
        "image_width_px": "intrinsics.image_width_px",
        "class_heights": "intrinsics.class_height_m",
    },
    "tracker": {
        "max_dist": "tracker.max_dist",
        "max_iou_dist": "tracker.max_iou_dist",
        "max_age": "tracker.max_age",
        "n_init": "tracker.n_init",
        "appearance_ema_alpha": "tracker.appearance_ema_alpha",
        "use_appearance": "tracker.use_appearance",
        "mahalanobis_gate": "tracker.mahalanobis_gate",
    },
    "lane_filter": {
        "lane_filter": "lane.enabled",
        "traffic_side": "lane.traffic_side",
        "lane_offset_threshold_m": "lane.lane_offset_threshold_m",
    },
    "range": {
        "min_bbox_height_px": "min_bbox_height_px",
        "max_range_m": "max_range_m",
    },
    "link": {
        "link_start_lat": "link_start_lat",
        "link_start_lon": "link_start_lon",
        "link_length_m": "link_length_m",
    },
    "run": {
        "sequence_id": "sequence_id",
        "distance_mode": "distance_mode",
        "frame_rate_hz": "frame_rate_hz",
        "smoothing_window": "smoothing_window",
        "seed": "seed",
        "jitter_px": "jitter_px",
        "drop_rate": "drop_rate",
    },
}

_KEY_PATHS = {key: path for keys in CONFIG_SCHEMA.values() for key, path in keys.items()}


# the object types of the KITTI devkit, lower-cased
_CLASS_LABELS = (
    "car", "van", "truck", "pedestrian", "person_sitting", "cyclist", "tram", "misc",
)
# chi-square 95% quantile for 4 degrees of freedom
CHI2_95_4DOF = 9.4877


class _TrackerConfig(NamedTuple):
    max_dist: float = 0.2              # appearance matching threshold
    max_iou_dist: float = 0.7          # overlap-stage gate on (1 - IoU)
    max_age: int = 30                  # missed frames before deletion
    n_init: int = 2                    # hits needed to confirm
    appearance_ema_alpha: float = 0.9
    use_appearance: bool = False
    mahalanobis_gate: float = CHI2_95_4DOF


class TrackerConfig(Checked, _TrackerConfig):
    __slots__ = ()

    def _check(self):
        if not 0.0 < self.max_dist <= 1.0:
            raise ValidationError(f"max_dist {self.max_dist} outside (0, 1]")
        if not 0.0 < self.max_iou_dist <= 1.0:
            raise ValidationError(f"max_iou_dist {self.max_iou_dist} outside (0, 1]")
        if self.max_age < 1:
            raise ValidationError(f"max_age must be >= 1, got {self.max_age}")
        if self.n_init < 1:
            raise ValidationError(f"n_init must be >= 1, got {self.n_init}")
        if not 0.0 <= self.appearance_ema_alpha <= 1.0:
            raise ValidationError(
                f"appearance_ema_alpha {self.appearance_ema_alpha} outside [0, 1]")
        if not self.mahalanobis_gate > 0.0:  # also false for NaN
            raise ValidationError(
                f"mahalanobis_gate must be positive, got {self.mahalanobis_gate}")


class _LaneFilterConfig(NamedTuple):
    enabled: bool = True
    traffic_side: str = "right"           # side the probe drives on
    # lateral camera x [m] of oncoming traffic: a run tests the offsets its
    # boxes give, the reference diagram the annotated ones
    lane_offset_threshold_m: float = -1.5


class LaneFilterConfig(Checked, _LaneFilterConfig):
    __slots__ = ()

    def _check(self):
        if self.traffic_side not in ("right", "left"):
            raise ValidationError(f"traffic_side must be right or left, got {self.traffic_side!r}")
        if not math.isfinite(self.lane_offset_threshold_m):
            raise ValidationError(f"lane_offset_threshold_m must be finite, "
                                  f"got {self.lane_offset_threshold_m}")


class _PipelineConfig(NamedTuple):
    labels: str = ""
    detections: str = ""
    oxts: str = ""
    timestamps: str = ""
    output_dir: str = "out"
    intrinsics: CameraIntrinsics = kitti_intrinsics()
    tracker: TrackerConfig = TrackerConfig()
    lane: LaneFilterConfig = LaneFilterConfig()
    min_bbox_height_px: float = DEFAULT_MIN_BBOX_HEIGHT_PX
    max_range_m: float = DEFAULT_MAX_RANGE_M
    link_start_lat: float = 0.0
    link_start_lon: float = 0.0
    link_length_m: float = 300.0
    sequence_id: str = ""
    distance_mode: str = "direct"
    frame_rate_hz: float = 10.0
    smoothing_window: int = 1
    seed: int = 0
    jitter_px: float = 0.0
    drop_rate: float = 0.0


class PipelineConfig(Checked, _PipelineConfig):
    __slots__ = ()

    def _check(self):
        if self.distance_mode not in ("direct", "cumulative"):
            raise ValidationError(f"distance_mode must be direct or cumulative, "
                                  f"got {self.distance_mode!r}")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ValidationError(f"smoothing_window must be a positive odd integer, "
                                  f"got {self.smoothing_window}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValidationError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if not self.jitter_px >= 0.0:  # also true for NaN
            raise ValidationError(f"jitter_px must be >= 0, got {self.jitter_px}")
        for name in ("frame_rate_hz", "link_length_m"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValidationError(f"{name} must be positive, got {value}")
            if value == math.inf:
                raise ValidationError(f"{name} must be finite, got inf")
        if not (math.isfinite(self.min_bbox_height_px) and self.min_bbox_height_px >= 0.0):
            raise ValidationError(f"min_bbox_height_px must be finite and >= 0, "
                                  f"got {self.min_bbox_height_px}")
        if not self.max_range_m > 0.0:
            raise ValidationError(f"max_range_m must be positive, got {self.max_range_m}")
        # the classes with a height are the classes tracked and evaluated
        if not self.intrinsics.class_height_m:
            raise ValidationError("class_heights must name at least one class")
        unknown = [c for c in self.intrinsics.class_height_m if c not in _CLASS_LABELS]
        if unknown:
            raise ValidationError(f"unknown class {', '.join(map(repr, unknown))} in "
                                  f"class_heights; the classes are {', '.join(_CLASS_LABELS)}")
        try:
            self.link_start  # builds the GeoPoint, which range-checks it
        except ValidationError as exc:
            raise ValidationError(f"link start: {exc}") from None

    @property
    def link_start(self) -> GeoPoint:
        return GeoPoint(self.link_start_lat, self.link_start_lon)


def _lookup(cfg: PipelineConfig, path: str):
    return functools.reduce(getattr, path.split("."), cfg)


def _parse_class_heights(raw: str) -> dict[str, float]:
    heights = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"class_heights entry {chunk!r} must look like label:meters")
        label, _, value = chunk.partition(":")
        label = label.strip().lower()
        if label in heights:
            raise ConfigError(f"class_heights names {label!r} more than once")
        try:
            heights[label] = float(value)
        except ValueError:
            raise ConfigError(f"bad class height {chunk!r}") from None
    return heights


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def _convert(key: str, raw: str, kind: type):
    """A key's text as a value of its attribute's type."""
    raw = raw.strip()
    if issubclass(kind, Mapping):
        return _parse_class_heights(raw)
    try:
        return _parse_bool(raw) if kind is bool else kind(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for key {key!r} "
                          f"(expected {kind.__name__})") from None


# a title is one line of XML 1.0 characters: no C0 control but tab, no lone
# surrogate, neither U+FFFE nor U+FFFF
_NON_TITLE_CHAR = re.compile("[\x00-\x08\x0a-\x1f\ud800-\udfff\ufffe\uffff]")


def _check_title(name: str, title: str) -> None:
    if bad := _NON_TITLE_CHAR.search(title):
        raise ConfigError(f"{name} holds U+{ord(bad.group()):04X}, which an XML title cannot hold")


def build_config(values: dict[str, str]) -> PipelineConfig:
    """Build a validated PipelineConfig from flat key -> string values.

    A value holding a line break is rejected: ``dump_config`` writes each
    value on one line.  ``sequence_id`` titles the SVG, so it must pass ``_check_title``.
    """
    for key, raw in values.items():
        if key not in _KEY_PATHS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if "\n" in raw or "\r" in raw:
            raise ConfigError(f"value of key {key!r} holds a line break")
        if key == "sequence_id":
            _check_title(f"value of key {key!r}", raw)
    base = PipelineConfig()
    top: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    for key, path in _KEY_PATHS.items():
        if key not in values:
            continue
        value = _convert(key, values[key], type(_lookup(base, path)))
        head, _, leaf = path.partition(".")
        if leaf:
            nested.setdefault(head, {})[leaf] = value
        else:
            top[head] = value
    try:
        for head, fields in nested.items():
            top[head] = getattr(base, head)._replace(**fields)
        return base._replace(**top)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | None = None,
                overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Parse an INI config file and apply flat key overrides on top."""
    values: dict[str, str] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}") from None
        if parser.defaults():  # configparser would merge these keys into every section
            raise ConfigError(f"unknown config section [{parser.default_section}]")
        for section in parser.sections():
            if section not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in CONFIG_SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                values[key] = raw
    if overrides:
        values.update(overrides)
    return build_config(values)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Mapping):
        return ",".join(f"{label}:{height!r}" for label, height in sorted(value.items()))
    return str(value)


def dump_config(cfg: PipelineConfig) -> str:
    """Serialize to INI text; load_config on the result gives an equal config."""
    out = io.StringIO()
    for section, keys in CONFIG_SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, path in keys.items():
            out.write(f"{key} = {_format_value(_lookup(cfg, path))}\n")
        out.write("\n")
    return out.getvalue()
