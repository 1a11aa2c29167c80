"""Ingestion of KITTI-style tracking labels, OXTS GPS logs, timestamps and
external detection files (with optional appearance vectors), plus
ground-truth perturbation for detector-free pipeline runs.

A detection (``DetectionRecord``) holds only what a detector reports; a
label (``LabelRecord``) adds the annotated truth, which only evaluation
reads.  All parsers are pure functions over text streams and return
immutable records, so parsed collections can move freely between threads;
``read_input`` is the one function that opens an input file for them.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import IO, Callable, Iterable, Iterator, TypeVar

from .config import _CLASS_LABELS
from .errors import InputError, ParseError, ValidationError
from .geodesy import GeoPoint

__all__ = [
    "DetectionRecord",
    "LabelRecord",
    "OxtsSample",
    "format_detections",
    "group_by_frame",
    "load_oxts",
    "parse_detections_file",
    "parse_label_file",
    "parse_timestamps",
    "perturb_ground_truth",
    "read_input",
]

# DontCare, the devkit's ninth type, marks unannotated regions; the label reader drops its rows
_DONTCARE = "dontcare"

# KITTI tracking label line:
# frame track_id type truncated occluded alpha bbox(l t r b) dims(h w l)
# location(x y z) rotation_y [score]
_LABEL_FIELDS_NO_SCORE = 17
_LABEL_FIELDS_WITH_SCORE = 18
# the columns read as numbers: frame, track id, truncated, occluded, bbox,
# location, then the score when there is one
_LABEL_NUMBERS = itemgetter(0, 1, 3, 4, 6, 7, 8, 9, 13, 14, 15)
_SCORED_LABEL_NUMBERS = itemgetter(0, 1, 3, 4, 6, 7, 8, 9, 13, 14, 15, 17)
# an integer token below this in size converts to float exactly; 2**53 + 1 rounds to it
_EXACT_INT_LIMIT = 2.0 ** 53

_OXTS_FIELD_COUNT = 30

# what reading an input file can raise: the file cannot be opened or
# decoded, or its content is malformed or invalid
_INPUT_FAULTS = (OSError, UnicodeDecodeError, ParseError, ValidationError)

_T = TypeVar("_T")


def _class_label(token: str, line_no: int) -> str:
    label = token.lower()
    if label not in _CLASS_LABELS:
        raise ParseError(f"line {line_no}: unknown class {token!r}")
    return label


@dataclass(frozen=True)
class DetectionRecord:
    """One detected object in one frame."""

    frame_index: int
    class_label: str
    bbox: tuple[float, float, float, float]  # left, top, right, bottom [px]
    confidence: float = 1.0
    embedding: tuple[float, ...] | None = None  # unit appearance vector

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

    @property
    def height(self) -> float:
        return self.bbox[3] - self.bbox[1]

    @property
    def center_x(self) -> float:
        return (self.bbox[0] + self.bbox[2]) / 2.0


@dataclass(frozen=True)
class LabelRecord(DetectionRecord):
    """One annotated object in one frame: its box plus the annotated truth."""

    gt_track_id: int = -1
    gt_location_camera: tuple[float, float, float] | None = None

    @property
    def gt_depth_m(self) -> float | None:
        """The location's forward coordinate when it is positive, else None."""
        location = self.gt_location_camera
        return location[2] if location is not None and location[2] > 0.0 else None


@dataclass(frozen=True)
class OxtsSample:
    """One GPS/IMU fix: the 30 OXTS values verbatim.

    Its position is read from the first two, latitude and longitude.  A
    fix's frame is its position in the list load_oxts returns.
    """

    raw_fields: tuple[float, ...]

    def __post_init__(self):
        if len(self.raw_fields) != _OXTS_FIELD_COUNT:
            raise ValidationError(
                f"raw_fields must have exactly {_OXTS_FIELD_COUNT} entries, "
                f"got {len(self.raw_fields)}")

    @property
    def position(self) -> GeoPoint:
        return GeoPoint(self.raw_fields[0], self.raw_fields[1])


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


def _label_numbers(fields: list[str], line_no: int):
    """Frame, track id, bbox, location and score of a label row.

    Truncated and occluded are checked, not kept.  One ``map(float)`` pass
    converts the row; a row it does not take whole (a bad token, a
    fractional integer column, or an integer of 2**53 or more, which a
    float may round) goes field by field, which names the first bad token in
    column order or keeps the integer exact.
    """
    scored = len(fields) == _LABEL_FIELDS_WITH_SCORE
    try:
        values = list(map(float, (_SCORED_LABEL_NUMBERS if scored else _LABEL_NUMBERS)(fields)))
    except ValueError:
        values = None
    if values is not None and all(map(math.isfinite, values)):
        frame, track_id, _, occluded = values[:4]
        if (frame.is_integer() and track_id.is_integer() and occluded.is_integer()
                and max(abs(frame), abs(track_id), abs(occluded)) < _EXACT_INT_LIMIT):
            return (int(frame), int(track_id), tuple(values[4:8]), tuple(values[8:11]),
                    values[11] if scored else 1.0)
    frame = _int_field(fields[0], line_no)
    track_id = _int_field(fields[1], line_no)
    _float_field(fields[3], line_no)
    _int_field(fields[4], line_no)
    bbox = tuple(_float_field(fields[i], line_no) for i in range(6, 10))
    location = tuple(_float_field(fields[i], line_no) for i in range(13, 16))
    confidence = _float_field(fields[17], line_no) if scored else 1.0
    return frame, track_id, bbox, location, confidence


def parse_label_file(stream: IO[str] | Iterable[str]) -> list[LabelRecord]:
    """Parse a KITTI tracking label file into records sorted by (frame, track).

    Every row has the first row's field count: 17, or 18 with a score.
    The type is one of the KITTI devkit's; any other raises ParseError.
    A DontCare row is checked like any other, then left out: it only
    marks a region left unannotated.  An identity (track id >= 0) has at
    most one row per frame; a repeated one raises ValidationError naming
    both lines.
    """
    records = []
    line_of: dict[tuple[int, int], int] = {}  # (frame, track id) -> line
    width: tuple[int, int] | None = None  # field count and line of the first row
    for line_no, line in _iter_content_lines(stream):
        fields = line.split()
        if len(fields) not in (_LABEL_FIELDS_NO_SCORE, _LABEL_FIELDS_WITH_SCORE):
            raise ParseError(
                f"line {line_no}: expected {_LABEL_FIELDS_NO_SCORE} or "
                f"{_LABEL_FIELDS_WITH_SCORE} fields, got {len(fields)}")
        if width is None:
            width = (len(fields), line_no)
        elif len(fields) != width[0]:
            raise ParseError(f"line {line_no}: {len(fields)} fields, but line {width[1]} "
                             f"has {width[0]}")
        frame, track_id, bbox, location, confidence = _label_numbers(fields, line_no)
        dontcare = fields[2].lower() == _DONTCARE
        try:
            record = LabelRecord(
                frame_index=frame,
                class_label=_DONTCARE if dontcare else _class_label(fields[2], line_no),
                bbox=bbox,
                confidence=confidence,
                gt_track_id=track_id,
                gt_location_camera=location,
            )
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
        if dontcare:
            continue
        records.append(record)
        if track_id >= 0:
            first = line_of.setdefault((frame, track_id), line_no)
            if first != line_no:
                raise ValidationError(
                    f"line {line_no}: frame {frame} track {track_id} already has a row "
                    f"on line {first}")
    records.sort(key=attrgetter("frame_index", "gt_track_id"))
    return records


def _appearance_vector(fields: list[str], line_no: int) -> tuple[float, ...]:
    """The ``dim v1 ... vdim`` fields of a detection row as a unit vector."""
    dim = _int_field(fields[0], line_no)
    if dim < 1:
        raise ParseError(f"line {line_no}: vector dimension must be >= 1, got {dim}")
    if len(fields) != 1 + dim:
        raise ParseError(
            f"line {line_no}: expected {dim} vector components, got {len(fields) - 1}")
    vector = _unit_vector([_float_field(token, line_no) for token in fields[1:]])
    if vector is None:
        raise ValidationError(f"line {line_no}: zero-norm appearance vector")
    return vector


def _unit_vector(values: list[float]) -> tuple[float, ...] | None:
    """Finite ``values`` at unit length, None for the zero vector.

    Scaled by the largest component first, so that the norm stays finite.
    """
    scale = max(map(abs, values))
    if scale == 0.0:
        return None
    values = [value / scale for value in values]
    norm = math.hypot(*values)
    return tuple(value / norm for value in values)


def parse_detections_file(stream: IO[str] | Iterable[str]) -> list[DetectionRecord]:
    """Parse the detection interchange format:

        frame class left top right bottom confidence [dim v1 ... vdim]

    one object per line, '#' comments ignored.  The class is one of the
    KITTI devkit's object types.  A row with a comma is split on commas,
    and none of its cells may be empty; any other row is split on
    whitespace.  The optional appearance vector is renormalized to unit
    length, and every vector must have the first one's dimension.
    """
    records = []
    first: tuple[int, int] | None = None  # dimension and line of the first vector
    for line_no, line in _iter_content_lines(stream):
        if "," in line:
            fields = [cell.strip() for cell in line.split(",")]
            if "" in fields:
                raise ParseError(f"line {line_no}: cell {fields.index('') + 1} is empty")
        else:
            fields = line.split()
        if len(fields) < 7:
            raise ParseError(f"line {line_no}: expected 7 fields, got {len(fields)}")
        frame = _int_field(fields[0], line_no)
        class_label = _class_label(fields[1], line_no)
        bbox = tuple(_float_field(fields[i], line_no) for i in range(2, 6))
        confidence = _float_field(fields[6], line_no)
        embedding = None
        if len(fields) > 7:
            embedding = _appearance_vector(fields[7:], line_no)
            if first is None:
                first = (len(embedding), line_no)
            elif len(embedding) != first[0]:
                raise ValidationError(
                    f"line {line_no}: {len(embedding)}-dimensional vector, but line "
                    f"{first[1]} is {first[0]}-dimensional")
        try:
            records.append(DetectionRecord(
                frame_index=frame,
                class_label=class_label,
                bbox=bbox,
                confidence=confidence,
                embedding=embedding,
            ))
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
    records.sort(key=lambda r: r.frame_index)
    return records


def format_detections(records: Iterable[DetectionRecord]) -> str:
    """Serialize records to the detection interchange format.

    Boxes and confidences get 6 decimals.  A vector's components are
    written in full (repr), so it reads back to within the rounding of its
    renormalization.
    """
    lines = []
    for r in records:
        left, top, right, bottom = r.bbox
        line = (f"{r.frame_index} {r.class_label} {left:.6f} {top:.6f} "
                f"{right:.6f} {bottom:.6f} {r.confidence:.6f}")
        if r.embedding is not None:
            line += f" {len(r.embedding)} " + " ".join(map(repr, r.embedding))
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def group_by_frame(records: Iterable[DetectionRecord]) -> dict[int, list[DetectionRecord]]:
    grouped: dict[int, list[DetectionRecord]] = {}
    for record in records:
        grouped.setdefault(record.frame_index, []).append(record)
    return grouped


def _parse_oxts_line(line: str, line_no: int) -> OxtsSample:
    fields = line.split()
    if len(fields) != _OXTS_FIELD_COUNT:
        raise ParseError(
            f"line {line_no}: OXTS record needs {_OXTS_FIELD_COUNT} fields, "
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
    return OxtsSample(tuple(values))


def parse_oxts_lines(stream: IO[str] | Iterable[str]) -> list[OxtsSample]:
    """Parse a single multi-line OXTS file (one fix per line, line order = frame order)."""
    return [_parse_oxts_line(line, line_no) for line_no, line in _iter_content_lines(stream)]


def _oxts_files_by_frame(path: str) -> list[str]:
    # a per-frame file is named by its frame number (0000000042.txt); every
    # frame from 0 up must have exactly one file, so none can shift
    try:
        files: dict[int, str] = {}
        for name in os.listdir(path):
            if not name.endswith(".txt"):
                continue
            stem = name[:-4]
            if not (stem.isascii() and stem.isdigit()):
                raise ValidationError(f"OXTS file {name!r} is not named by a frame number")
            frame_index = int(stem)
            if frame_index in files:
                raise ValidationError(
                    f"OXTS files {files[frame_index]!r} and {name!r} are both frame "
                    f"{frame_index}")
            files[frame_index] = name
        for frame_index in range(len(files)):
            if frame_index not in files:
                raise ValidationError(f"no OXTS file for frame {frame_index}")
    except _INPUT_FAULTS as exc:
        raise InputError(f"{path}: {exc}") from exc
    return [files[frame_index] for frame_index in range(len(files))]


def _first_fix(lines: Iterable[str]) -> OxtsSample:
    """The fix of a per-frame OXTS file: the first it holds."""
    for line_no, line in _iter_content_lines(lines):
        return _parse_oxts_line(line, line_no)
    raise ValidationError("no OXTS fix")


def load_oxts(path: str) -> list[OxtsSample]:
    """Load OXTS fixes from a directory of per-frame files or one multi-line file.

    In a directory, each ``<frame>.txt`` file holds the fix of the frame
    its name gives; frames must run from 0 without a gap.
    """
    if os.path.isdir(path):
        return [read_input(os.path.join(path, name), _first_fix)
                for name in _oxts_files_by_frame(path)]
    return read_input(path, parse_oxts_lines)


def _read_bytes(path: str) -> bytes:
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _lines(text: str) -> Iterator[str]:
    """The LF-separated lines of text, one at a time.

    A list of every line of a large file, held beside the records parsed
    from it, would raise the run's peak memory.
    """
    start = 0
    end = text.find("\n")
    while end >= 0:
        yield text[start:end]
        start = end + 1
        end = text.find("\n", start)
    yield text[start:]


def read_input(path: str, parse: Callable[[Iterator[str]], _T]) -> _T:
    """``parse`` applied to the lines of one input file; any failure names the file.

    The file is read whole as raw bytes, and ``parse`` gets the lines a
    text-mode reader sees: they end at LF, CRLF or a lone CR, and a file
    that is not plain ASCII is decoded in the locale's encoding, as
    ``open`` does.  A read, decode, parse or validation failure becomes
    an InputError that leads with the path and keeps the failure as its
    cause.
    """
    try:
        data = _read_bytes(path)
        if data.isascii():
            text = data.decode("ascii")
        else:
            with open(path) as fh:
                text = fh.read()
        return parse(_lines(text.replace("\r\n", "\n").replace("\r", "\n")))
    except _INPUT_FAULTS as exc:
        raise InputError(f"{path}: {exc}") from exc


def parse_timestamps(stream: IO[str] | Iterable[str]) -> list[float]:
    """Parse a timestamps file: one strictly increasing value [s] per line."""
    stamps = []
    for line_no, line in _iter_content_lines(stream):
        fields = line.split()
        if len(fields) != 1:
            raise ParseError(f"line {line_no}: expected one timestamp, got {len(fields)} fields")
        value = _float_field(fields[0], line_no)
        if stamps and value <= stamps[-1]:
            raise ValidationError(
                f"line {line_no}: timestamp {value} not strictly increasing")
        stamps.append(value)
    return stamps


def perturb_ground_truth(records: Iterable[DetectionRecord], jitter_px: float,
                         drop_rate: float, seed: int) -> list[DetectionRecord]:
    """Simulate a detector on annotated boxes, deterministically.

    Each record is dropped i.i.d. with probability drop_rate; a survivor
    becomes a plain DetectionRecord with the record's frame, class and
    vector, its box moved by independent uniform edge noise in
    [-jitter_px, +jitter_px] (box validity preserved) and a confidence
    that shrinks with the applied noise magnitude.  With no jitter the
    box and confidence stay as they are.  No annotated field is carried
    over.
    """
    if not jitter_px >= 0.0:  # also true for NaN
        raise ValueError(f"jitter_px must be >= 0, got {jitter_px}")
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
    rng = random.Random(seed)
    uniform = rng.uniform
    out = []
    for record in records:
        if drop_rate > 0.0 and rng.random() < drop_rate:
            continue
        bbox, confidence = record.bbox, record.confidence
        if jitter_px > 0.0:
            left, top, right, bottom = bbox
            noise = [0.0, 0.0, 0.0, 0.0]
            for _ in range(100):
                candidate = [uniform(-jitter_px, jitter_px) for _ in range(4)]
                if (left + candidate[0] < right + candidate[2] and
                        top + candidate[1] < bottom + candidate[3]):
                    noise = candidate
                    break
            magnitude = sum(map(abs, noise)) / 4.0
            confidence = min(1.0, max(0.5, 1.0 - magnitude / (2.0 * jitter_px)))
            bbox = (left + noise[0], top + noise[1], right + noise[2], bottom + noise[3])
        out.append(DetectionRecord(
            frame_index=record.frame_index,
            class_label=record.class_label,
            bbox=bbox,
            confidence=confidence,
            embedding=record.embedding,
        ))
    return out
