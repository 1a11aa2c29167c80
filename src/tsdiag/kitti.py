"""Ingestion of KITTI-style tracking labels, OXTS GPS logs, timestamps,
external detection files and appearance embeddings, plus ground-truth
perturbation for detector-free pipeline runs.

All parsers are pure functions over text streams and return immutable
records, so parsed collections can move freely between threads.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, Iterator

from .errors import ParseError, ValidationError
from .geodesy import GeoPoint

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DetectionRecord",
    "FrameClock",
    "OxtsSample",
    "format_detections",
    "group_by_frame",
    "load_embeddings",
    "load_oxts",
    "parse_detections_file",
    "parse_label_file",
    "parse_timestamps",
    "perturb_ground_truth",
    "without_dontcare",
]

_CLASS_LABELS = (
    "car", "van", "truck", "tram", "misc",
    "cyclist", "pedestrian", "person_sitting", "other",
)

# KITTI tracking label line:
# frame track_id type truncated occluded alpha bbox(l t r b) dims(h w l)
# location(x y z) rotation_y [score]
_LABEL_FIELDS_NO_SCORE = 17
_LABEL_FIELDS_WITH_SCORE = 18

_OXTS_FIELD_COUNT = 30


def _class_label(token: str) -> str:
    label = token.strip().lower()
    return label if label in _CLASS_LABELS else "other"


@dataclass(frozen=True)
class DetectionRecord:
    """One detected (or annotated) object in one frame."""

    frame_index: int
    class_label: str
    bbox: tuple[float, float, float, float]  # left, top, right, bottom [px]
    confidence: float = 1.0
    gt_track_id: int = -1
    gt_location_camera: tuple[float, float, float] | None = None
    gt_depth_m: float | None = None
    is_dontcare: bool = False

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValidationError(f"frame_index must be >= 0, got {self.frame_index}")
        if not all(map(math.isfinite, self.bbox)):
            raise ValidationError(f"non-finite bbox {self.bbox}")
        left, top, right, bottom = self.bbox
        if not (left < right and top < bottom):
            raise ValidationError(f"degenerate bbox {self.bbox}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(f"confidence {self.confidence} outside [0, 1]")
        if self.gt_depth_m is not None and not self.gt_depth_m > 0.0:
            raise ValidationError(f"gt_depth_m must be positive, got {self.gt_depth_m}")

    @property
    def height(self) -> float:
        return self.bbox[3] - self.bbox[1]

    @property
    def center_x(self) -> float:
        return (self.bbox[0] + self.bbox[2]) / 2.0


@dataclass(frozen=True)
class OxtsSample:
    """One GPS/IMU fix; raw_fields keeps the 30 OXTS values verbatim.

    A fix's frame is its position in the list load_oxts returns.
    """

    position: GeoPoint
    raw_fields: tuple[float, ...] = ()

    def __post_init__(self):
        if self.raw_fields and len(self.raw_fields) != _OXTS_FIELD_COUNT:
            raise ValidationError(
                f"raw_fields must have exactly {_OXTS_FIELD_COUNT} entries, "
                f"got {len(self.raw_fields)}")


@dataclass(frozen=True)
class FrameClock:
    """Maps frame indices to seconds; fixed rate unless explicit stamps given."""

    frame_rate_hz: float = 10.0
    explicit_timestamps: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.frame_rate_hz > 0.0:
            raise ValidationError(f"frame_rate_hz must be positive, got {self.frame_rate_hz}")
        ts = self.explicit_timestamps
        if ts is not None:
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValidationError("explicit timestamps must be strictly increasing")

    def time_for_frame(self, frame_index: int) -> float:
        if frame_index < 0:
            raise ValidationError(f"frame index {frame_index} is negative")
        if self.explicit_timestamps is not None:
            if frame_index >= len(self.explicit_timestamps):
                raise ValidationError(
                    f"frame {frame_index} beyond the {len(self.explicit_timestamps)} "
                    "explicit timestamps")
            return self.explicit_timestamps[frame_index]
        return frame_index / self.frame_rate_hz


def _float_field(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {line_no}: non-numeric field {token!r}") from None
    if not math.isfinite(value):
        if math.isnan(value):
            raise ParseError(f"line {line_no}: NaN field")
        raise ParseError(f"line {line_no}: non-finite field {token!r}")
    return value


def _int_field(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        pass
    value = _float_field(token, line_no)  # such as "3.0" or "1e1"
    if not value.is_integer():
        raise ParseError(f"line {line_no}: non-integer field {token!r}")
    return int(value)


def _iter_content_lines(stream: IO[str] | Iterable[str]) -> Iterator[tuple[int, str]]:
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def parse_label_file(stream: IO[str] | Iterable[str]) -> list[DetectionRecord]:
    """Parse a KITTI tracking label file into records sorted by (frame, track).

    "DontCare" rows are kept but marked, with no location and no depth:
    KITTI writes -1000 placeholders there.  Use without_dontcare() to drop
    them.  An identity (track id >= 0) has at most one non-DontCare row per
    frame; a repeated one raises ValidationError naming both lines.
    """
    records = []
    line_of: dict[tuple[int, int], int] = {}  # (frame, track id) -> line
    for line_no, line in _iter_content_lines(stream):
        fields = line.split()
        if len(fields) not in (_LABEL_FIELDS_NO_SCORE, _LABEL_FIELDS_WITH_SCORE):
            raise ParseError(
                f"line {line_no}: expected {_LABEL_FIELDS_NO_SCORE} or "
                f"{_LABEL_FIELDS_WITH_SCORE} fields, got {len(fields)}")
        frame = _int_field(fields[0], line_no)
        track_id = _int_field(fields[1], line_no)
        raw_type = fields[2]
        is_dontcare = raw_type.lower() == "dontcare"
        _float_field(fields[3], line_no)  # truncated and occluded: checked, not kept
        _int_field(fields[4], line_no)
        bbox = tuple(_float_field(fields[i], line_no) for i in range(6, 10))
        location = tuple(_float_field(fields[i], line_no) for i in range(13, 16))
        confidence = (_float_field(fields[17], line_no)
                      if len(fields) == _LABEL_FIELDS_WITH_SCORE else 1.0)
        if is_dontcare:
            location = depth = None
        else:
            depth = location[2] if location[2] > 0.0 else None
        try:
            records.append(DetectionRecord(
                frame_index=frame,
                class_label=_class_label(raw_type),
                bbox=bbox,
                confidence=confidence,
                gt_track_id=track_id,
                gt_location_camera=location,
                gt_depth_m=depth,
                is_dontcare=is_dontcare,
            ))
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
        if track_id >= 0 and not is_dontcare:
            first = line_of.setdefault((frame, track_id), line_no)
            if first != line_no:
                raise ValidationError(
                    f"line {line_no}: frame {frame} track {track_id} already has a row "
                    f"on line {first}")
    records.sort(key=lambda r: (r.frame_index, r.gt_track_id))
    return records


def parse_detections_file(stream: IO[str] | Iterable[str]) -> list[DetectionRecord]:
    """Parse the detection interchange format:

        frame class left top right bottom confidence

    one object per line, whitespace or comma separated, '#' comments ignored.
    """
    records = []
    for line_no, line in _iter_content_lines(stream):
        fields = line.replace(",", " ").split()
        if len(fields) != 7:
            raise ParseError(f"line {line_no}: expected 7 fields, got {len(fields)}")
        frame = _int_field(fields[0], line_no)
        bbox = tuple(_float_field(fields[i], line_no) for i in range(2, 6))
        confidence = _float_field(fields[6], line_no)
        try:
            records.append(DetectionRecord(
                frame_index=frame,
                class_label=_class_label(fields[1]),
                bbox=bbox,
                confidence=confidence,
            ))
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
    records.sort(key=lambda r: r.frame_index)
    return records


def format_detections(records: Iterable[DetectionRecord]) -> str:
    """Serialize records to the detection interchange format (6 decimals)."""
    lines = []
    for r in records:
        left, top, right, bottom = r.bbox
        lines.append(
            f"{r.frame_index} {r.class_label} {left:.6f} {top:.6f} "
            f"{right:.6f} {bottom:.6f} {r.confidence:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")


def group_by_frame(records: Iterable[DetectionRecord]) -> dict[int, list[DetectionRecord]]:
    grouped: dict[int, list[DetectionRecord]] = {}
    for record in records:
        grouped.setdefault(record.frame_index, []).append(record)
    return grouped


def without_dontcare(records: Iterable[DetectionRecord]) -> list[DetectionRecord]:
    return [r for r in records if not r.is_dontcare]


def _parse_oxts_line(line: str, line_no: int) -> OxtsSample:
    fields = line.split()[:_OXTS_FIELD_COUNT]
    if len(fields) < _OXTS_FIELD_COUNT:
        raise ParseError(
            f"line {line_no}: OXTS record needs >= {_OXTS_FIELD_COUNT} fields, "
            f"got {len(fields)}")
    try:
        values = list(map(float, fields))
        clean = all(map(math.isfinite, values))
    except ValueError:
        clean = False
    if not clean:  # parse field by field for the error that names the bad token
        values = [_float_field(tok, line_no) for tok in fields]
    lat, lon = values[0], values[1]
    if not -90.0 <= lat <= 90.0:
        raise ValidationError(f"line {line_no}: latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValidationError(f"line {line_no}: longitude {lon} outside [-180, 180]")
    return OxtsSample(position=GeoPoint(lat, lon), raw_fields=tuple(values))


def parse_oxts_lines(stream: IO[str] | Iterable[str]) -> list[OxtsSample]:
    """Parse a single multi-line OXTS file (one fix per line, line order = frame order)."""
    return [_parse_oxts_line(line, line_no) for line_no, line in _iter_content_lines(stream)]


def _oxts_files_by_frame(path: str) -> list[str]:
    # a per-frame file is named by its frame number (0000000042.txt); every
    # frame from 0 up must have exactly one file, so none can shift
    files: dict[int, str] = {}
    for name in os.listdir(path):
        if not name.endswith(".txt"):
            continue
        stem = name[:-4]
        if not (stem.isascii() and stem.isdigit()):
            raise ValidationError(f"{path}: OXTS file {name!r} is not named by a frame number")
        frame_index = int(stem)
        if frame_index in files:
            raise ValidationError(
                f"{path}: OXTS files {files[frame_index]!r} and {name!r} are both frame "
                f"{frame_index}")
        files[frame_index] = name
    for frame_index in range(len(files)):
        if frame_index not in files:
            raise ValidationError(f"{path}: no OXTS file for frame {frame_index}")
    return [files[frame_index] for frame_index in range(len(files))]


def load_oxts(path: str) -> list[OxtsSample]:
    """Load OXTS fixes from a directory of per-frame files or one multi-line file.

    In a directory, each ``<frame>.txt`` file holds the fix of the frame
    its name gives; frames must run from 0 without a gap.
    """
    if os.path.isdir(path):
        return [_read_oxts_fix(os.path.join(path, name), frame_index)
                for frame_index, name in enumerate(_oxts_files_by_frame(path))]
    with open(path) as fh:
        try:
            return parse_oxts_lines(fh)
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"{path}: {exc}") from None


def _read_bytes(path: str) -> bytes:
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _read_oxts_fix(file_path: str, frame_index: int) -> OxtsSample:
    """The first fix of a per-frame OXTS file, read whole as raw bytes.

    The reader sees the lines a text-mode reader sees: they end at LF,
    CRLF or a lone CR, and a file that is not plain ASCII is decoded in
    the locale's encoding, as ``open`` does.
    """
    data = _read_bytes(file_path)
    if data.isascii():
        text = data.decode("ascii")
    else:
        with open(file_path) as fh:
            text = fh.read()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, line in _iter_content_lines(lines):
        try:
            return _parse_oxts_line(line, line_no)
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"{file_path}: {exc}") from None
    raise ValidationError(f"{file_path}: no OXTS fix for frame {frame_index}")


def parse_timestamps(stream: IO[str] | Iterable[str]) -> list[float]:
    """Parse a timestamps file: one strictly increasing value [s] per line."""
    stamps = []
    for line_no, line in _iter_content_lines(stream):
        value = _float_field(line.split()[0], line_no)
        if stamps and value <= stamps[-1]:
            raise ValidationError(
                f"line {line_no}: timestamp {value} not strictly increasing")
        stamps.append(value)
    return stamps


def load_embeddings(stream: IO[str] | Iterable[str]) -> dict[tuple[int, int], np.ndarray]:
    """Load per-detection appearance vectors, keyed by (frame, detection index).

    Format: `frame detection_index dim v1 ... vdim`, one per line; vectors
    are renormalized to unit length.  Every vector must have the first
    one's dimension, and a detection may have only one.
    """
    # imported here, not at the top: loading numpy before the rest of the
    # package raised a run's peak RSS by about 0.4 MB (CPython 3.11,
    # numpy 2.4 on Linux x86-64)
    import numpy as np

    table: dict[tuple[int, int], np.ndarray] = {}
    line_of: dict[tuple[int, int], int] = {}
    first: tuple[int, int] | None = None  # dimension and line of the first vector
    for line_no, line in _iter_content_lines(stream):
        fields = line.split()
        if len(fields) < 4:
            raise ValidationError(f"line {line_no}: embedding line too short")
        key = (_int_field(fields[0], line_no), _int_field(fields[1], line_no))
        dim = _int_field(fields[2], line_no)
        if len(fields) != 3 + dim:
            raise ValidationError(
                f"line {line_no}: expected {dim} vector components, got {len(fields) - 3}")
        if key in line_of:
            raise ValidationError(
                f"line {line_no}: frame {key[0]} detection {key[1]} already has a vector "
                f"on line {line_of[key]}")
        if first is None:
            first = (dim, line_no)
        elif dim != first[0]:
            raise ValidationError(f"line {line_no}: {dim}-dimensional vector, but line "
                                  f"{first[1]} is {first[0]}-dimensional")
        vec = np.array([_float_field(tok, line_no) for tok in fields[3:]])
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValidationError(f"line {line_no}: zero-norm embedding")
        table[key] = vec / norm
        line_of[key] = line_no
    return table


def perturb_ground_truth(records: Iterable[DetectionRecord], jitter_px: float,
                         drop_rate: float, seed: int) -> list[DetectionRecord]:
    """Simulate detector noise on ground-truth boxes, deterministically.

    Each surviving box gets independent uniform edge noise in
    [-jitter_px, +jitter_px] (box validity preserved) and a confidence that
    shrinks with the applied noise magnitude; records are dropped i.i.d.
    with probability drop_rate.  Ground-truth fields are kept so the output
    stays usable for evaluation.
    """
    if jitter_px < 0.0:
        raise ValueError(f"jitter_px must be >= 0, got {jitter_px}")
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
    rng = random.Random(seed)
    uniform = rng.uniform
    out = []
    for record in records:
        if drop_rate > 0.0 and rng.random() < drop_rate:
            continue
        if jitter_px == 0.0:
            out.append(record)
            continue
        left, top, right, bottom = record.bbox
        noise = [0.0, 0.0, 0.0, 0.0]
        for _ in range(100):
            candidate = [uniform(-jitter_px, jitter_px) for _ in range(4)]
            if (left + candidate[0] < right + candidate[2] and
                    top + candidate[1] < bottom + candidate[3]):
                noise = candidate
                break
        magnitude = sum(map(abs, noise)) / 4.0
        confidence = min(1.0, max(0.5, 1.0 - magnitude / (2.0 * jitter_px)))
        out.append(DetectionRecord(
            frame_index=record.frame_index,
            class_label=record.class_label,
            bbox=(left + noise[0], top + noise[1], right + noise[2], bottom + noise[3]),
            confidence=confidence,
            gt_track_id=record.gt_track_id,
            gt_location_camera=record.gt_location_camera,
            gt_depth_m=record.gt_depth_m,
            is_dontcare=record.is_dontcare,
        ))
    return out
