import io
import locale
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tsdiag import kitti
from tsdiag.errors import InputError, ParseError, ValidationError
from tsdiag.kitti import (
    DetectionRecord,
    LabelRecord,
    format_detections,
    group_by_frame,
    load_oxts,
    parse_detections_file,
    parse_label_file,
    parse_oxts_lines,
    parse_timestamps,
    perturb_ground_truth,
    read_input,
)
from tsdiag.cli import _read_diagram
from tsdiag.synth import write_fixture
from tsdiag.trajectory import diagram_from_csv

LABEL_LINE = "0 2 Car 0 0 -1.79 515.2 178.9 616.3 260.2 1.50 1.62 3.88 -2.7 1.7 13.8 -1.6"
OXTS_LINE = ("49.011212 8.422885 112.83 0.03 0.01 -0.9 "
             + " ".join("0.0" for _ in range(24)))


class TestParseLabelFile:
    def test_documented_line(self):
        records = parse_label_file(io.StringIO(LABEL_LINE))
        assert len(records) == 1
        r = records[0]
        assert r.frame_index == 0
        assert r.gt_track_id == 2
        assert r.class_label == "car"
        assert r.bbox == (515.2, 178.9, 616.3, 260.2)
        assert r.gt_depth_m == pytest.approx(13.8)
        assert r.gt_location_camera == (-2.7, 1.7, 13.8)
        assert r.confidence == 1.0
        assert type(r) is LabelRecord

    def test_wrong_field_count_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_label_file(io.StringIO("0 2 Car 0 0"))

    def test_case_normalized_class(self):
        line = LABEL_LINE.replace("Car", "Van")
        records = parse_label_file(io.StringIO(line))
        assert records[0].class_label == "van"
        assert records[0].bbox == (515.2, 178.9, 616.3, 260.2)

    def test_unknown_class_rejected_naming_line_and_token(self):
        # read as some catch-all class, a bus would vanish under classes = car,bus
        lines = [LABEL_LINE, LABEL_LINE.replace("0 2 Car", "1 2 Bus")]
        with pytest.raises(ParseError, match=r"^line 2: unknown class 'Bus'$"):
            parse_label_file(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize("token", ["Car", "Van", "Truck", "Pedestrian", "Person_sitting",
                                       "Cyclist", "Tram", "Misc"])
    def test_every_kitti_object_type_read(self, token):
        line = LABEL_LINE.replace("Car", token)
        assert parse_label_file(io.StringIO(line))[0].class_label == token.lower()

    def test_dontcare_checked_then_left_out(self):
        # a DontCare row only marks a region left unannotated
        line = "0 -1 DontCare -1 -1 -10 219.31 188.49 245.50 218.56 -1 -1 -1 -1000 -1000 -1000 -10"
        assert parse_label_file(io.StringIO(line)) == []
        assert parse_label_file(io.StringIO(LABEL_LINE + "\n" + line)) == \
            parse_label_file(io.StringIO(LABEL_LINE))
        with pytest.raises(ParseError, match=r"^line 2: non-numeric field 'abc'$"):
            parse_label_file(io.StringIO(LABEL_LINE + "\n" + line.replace("219.31", "abc")))
        with pytest.raises(ValidationError, match=r"^line 1: degenerate bbox"):
            parse_label_file(io.StringIO(line.replace("245.50", "219.31")))
        with pytest.raises(ParseError, match=r"^line 2: 18 fields, but line 1 has 17$"):
            parse_label_file(io.StringIO(LABEL_LINE + "\n" + line + " 0.5"))

    def test_empty_file_is_empty_list(self):
        assert parse_label_file(io.StringIO("")) == []

    def test_non_numeric_field_names_line(self):
        bad = LABEL_LINE.replace("515.2", "abc")
        with pytest.raises(ParseError, match="line 1"):
            parse_label_file(io.StringIO(bad))

    def test_output_sorted_by_frame_then_track(self):
        lines = [
            LABEL_LINE.replace("0 2 Car", "3 7 Car"),
            LABEL_LINE.replace("0 2 Car", "1 5 Car"),
            LABEL_LINE.replace("0 2 Car", "1 2 Car"),
            LABEL_LINE.replace("0 2 Car", "3 1 Car"),
        ]
        records = parse_label_file(io.StringIO("\n".join(lines)))
        keys = [(r.frame_index, r.gt_track_id) for r in records]
        assert keys == sorted(keys)

    def test_score_field_becomes_confidence(self):
        records = parse_label_file(io.StringIO(LABEL_LINE + " 0.85"))
        assert records[0].confidence == pytest.approx(0.85)

    def test_scientific_notation_accepted(self):
        line = LABEL_LINE.replace("515.2", "5.152e2")
        assert parse_label_file(io.StringIO(line))[0].bbox[0] == pytest.approx(515.2)

    def test_out_of_range_score_rejected(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_label_file(io.StringIO(LABEL_LINE + " 1.7"))


    def test_row_of_the_other_width_rejected_naming_the_line(self):
        # a scored row that lost a cell would read as unscored, its columns shifted
        scored = LABEL_LINE + " 0.85"
        short = scored.replace(" 1.62", "")
        with pytest.raises(ParseError, match=r"^line 2: 17 fields, but line 1 has 18$"):
            parse_label_file(io.StringIO(scored + "\n" + short))
        with pytest.raises(ParseError, match=r"^line 3: 18 fields, but line 1 has 17$"):
            parse_label_file(io.StringIO(LABEL_LINE + "\n\n" + scored))

    def test_repeated_identity_in_a_frame_rejected_naming_both_lines(self):
        # a second row of track 2 in frame 0 would be a second box of one vehicle
        lines = [LABEL_LINE, LABEL_LINE.replace("0 2 Car", "0 5 Car"), "",
                 LABEL_LINE.replace("515.2", "600.0")]
        with pytest.raises(ValidationError,
                           match=r"^line 4: frame 0 track 2 already has a row on line 1$"):
            parse_label_file(io.StringIO("\n".join(lines)))

    def test_identity_may_repeat_across_frames_and_dontcare_rows(self):
        dontcare = ("0 -1 DontCare -1 -1 -10 219.31 188.49 245.50 218.56 "
                    "-1 -1 -1 -1000 -1000 -1000 -10")
        lines = [LABEL_LINE, LABEL_LINE.replace("0 2 Car", "1 2 Car"), dontcare, dontcare,
                 LABEL_LINE.replace("0 2 Car", "0 -1 Car"),
                 LABEL_LINE.replace("0 2 Car", "0 -1 Van")]
        records = parse_label_file(io.StringIO("\n".join(lines)))
        assert [(r.frame_index, r.gt_track_id) for r in records] == [
            (0, -1), (0, -1), (0, 2), (1, 2)]


def _labels_field_by_field(lines):
    """parse_label_file as it read a row before its one-pass conversion: one
    checked call per numeric column, in column order."""
    records = []
    line_of = {}
    width = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (17, 18):
            raise ParseError(f"line {line_no}: expected 17 or 18 fields, got {len(fields)}")
        if width is None:
            width = (len(fields), line_no)
        elif len(fields) != width[0]:
            raise ParseError(f"line {line_no}: {len(fields)} fields, but line {width[1]} "
                             f"has {width[0]}")
        frame = kitti._int_field(fields[0], line_no)
        track_id = kitti._int_field(fields[1], line_no)
        dontcare = fields[2].lower() == "dontcare"
        kitti._float_field(fields[3], line_no)
        kitti._int_field(fields[4], line_no)
        bbox = tuple(kitti._float_field(fields[i], line_no) for i in range(6, 10))
        location = tuple(kitti._float_field(fields[i], line_no) for i in range(13, 16))
        confidence = kitti._float_field(fields[17], line_no) if len(fields) == 18 else 1.0
        class_label = "dontcare" if dontcare else kitti._class_label(fields[2], line_no)
        try:
            record = LabelRecord(
                frame_index=frame, class_label=class_label, bbox=bbox,
                confidence=confidence, gt_track_id=track_id, gt_location_camera=location)
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
        if dontcare:
            continue
        records.append(record)
        if track_id >= 0:
            first = line_of.setdefault((frame, track_id), line_no)
            if first != line_no:
                raise ValidationError(f"line {line_no}: frame {frame} track {track_id} "
                                      f"already has a row on line {first}")
    records.sort(key=lambda r: (r.frame_index, r.gt_track_id))
    return records


def _parse_outcome(parse, lines):
    try:
        return parse(lines)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


label_numbers = st.one_of(st.integers(-3, 400).map(str),
                          st.floats(-1e3, 1e3, allow_nan=False).map(repr),
                          st.sampled_from(["1e1", "3.0", "-0.0", "+2", "5.152e2"]))
bad_tokens = st.sampled_from([
    "abc", "nan", "NaN", "inf", "-inf", "Infinity", "1e400",    # not finite
    "1.5", "2.000001", "-0.5", "1e-3",                          # fractional
    "9007199254740993", "1e20", "-12345678901234567890",        # integers past 2**53
])


@st.composite
def label_rows(draw):
    """A label row as tokens: mostly valid, some values at the edge of valid."""
    left = draw(st.floats(0.0, 1000.0))
    top = draw(st.floats(0.0, 300.0))
    tokens = [
        draw(st.integers(0, 5).map(str) | st.sampled_from(["3.0", "1e1", "-0.0"])),
        draw(st.integers(-1, 3).map(str)),
        draw(st.sampled_from(["Car", "Van", "DontCare", "Pedestrian"])),
        draw(label_numbers), draw(st.integers(0, 3).map(str)), draw(label_numbers),
        repr(left), repr(top),
        repr(left + draw(st.floats(0.5, 200.0))), repr(top + draw(st.floats(0.5, 200.0))),
        draw(label_numbers), draw(label_numbers), draw(label_numbers),
        draw(label_numbers), draw(label_numbers), draw(label_numbers), draw(label_numbers),
    ]
    if draw(st.booleans()):
        tokens.append(repr(draw(st.floats(0.0, 1.0))))
    return tokens


class TestLabelOnePass:
    @given(st.lists(label_rows(), min_size=1, max_size=4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_records_or_first_error_as_field_by_field(self, rows, data):
        # one corrupted token, in any column of any row, or none
        if data.draw(st.booleans()):
            row = data.draw(st.integers(0, len(rows) - 1))
            column = data.draw(st.integers(0, len(rows[row]) - 1))
            rows[row][column] = data.draw(bad_tokens)
        lines = [" ".join(tokens) for tokens in rows]
        assert (_parse_outcome(parse_label_file, lines)
                == _parse_outcome(_labels_field_by_field, lines))


@st.composite
def dontcare_row(draw, scored):
    """A valid DontCare row as tokens, with KITTI's placeholders for the rest."""
    left = draw(st.floats(0.0, 1000.0))
    top = draw(st.floats(0.0, 300.0))
    tokens = [str(draw(st.integers(0, 5))), str(draw(st.integers(-1, 3))),
              draw(st.sampled_from(["DontCare", "dontcare", "DONTCARE"])), "-1", "-1", "-10",
              repr(left), repr(top),
              repr(left + draw(st.floats(0.5, 200.0))), repr(top + draw(st.floats(0.5, 200.0))),
              "-1", "-1", "-1", "-1000", "-1000", "-1000", "-10"]
    if scored:
        tokens.append(repr(draw(st.floats(0.0, 1.0))))
    return tokens


@st.composite
def label_file_and_dontcare_rows(draw):
    """Rows of one width, one identity each, and DontCare rows of that width."""
    scored = draw(st.booleans())
    rows = []
    for k, tokens in enumerate(draw(st.lists(label_rows(), max_size=5))):
        tokens = tokens[:17] + ([repr(draw(st.floats(0.0, 1.0)))] if scored else [])
        tokens[1] = str(k)
        rows.append(tokens)
    extra = draw(st.lists(dontcare_row(scored), min_size=1, max_size=4))
    return rows, extra


def _insert(rows, extra, data):
    """rows with each of extra inserted at a drawn place; returns the lines and
    the line number each extra row landed on."""
    lines = [" ".join(tokens) for tokens in rows]
    marked = [None] * len(lines)
    for k, tokens in enumerate(extra):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, " ".join(tokens))
        marked.insert(at, k)
    return lines, [marked.index(k) + 1 for k in range(len(extra))]


# columns a DontCare row still has checked, and tokens each kind rejects
_INT_COLUMNS = (0, 1, 4)
_FLOAT_COLUMNS = (3, 6, 7, 8, 9, 13, 14, 15)
_NON_FINITE = ["abc", "nan", "NaN", "inf", "-inf", "Infinity", "1e400"]
_NON_INTEGER = _NON_FINITE + ["1.5", "2.000001", "-0.5", "1e-3"]


class TestDontCarePlacement:
    @given(label_file_and_dontcare_rows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_dontcare_rows_anywhere_leave_the_records_as_they_are(self, files, data):
        rows, extra = files
        lines, _ = _insert(rows, extra, data)
        assert (_parse_outcome(parse_label_file, lines)
                == _parse_outcome(parse_label_file, [" ".join(tokens) for tokens in rows]))

    @given(label_file_and_dontcare_rows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_dontcare_row_fails_naming_its_line(self, files, data):
        rows, extra = files
        bad = list(extra[0])
        if data.draw(st.booleans()):
            bad[8] = bad[6]  # right edge on the left edge
            expected = ValidationError, "degenerate bbox"
        else:
            column = data.draw(st.sampled_from(
                _INT_COLUMNS + _FLOAT_COLUMNS + ((17,) if len(bad) == 18 else ())))
            tokens = _NON_INTEGER if column in _INT_COLUMNS else _NON_FINITE
            bad[column] = data.draw(st.sampled_from(tokens))
            expected = ParseError, ""
        lines, line_numbers = _insert(rows, [bad] + extra[1:], data)
        with pytest.raises(expected[0], match=rf"^line {line_numbers[0]}: {expected[1]}"):
            parse_label_file(lines)


class TestParseOxts:
    def test_documented_line(self):
        samples = parse_oxts_lines(io.StringIO(OXTS_LINE))
        assert len(samples) == 1
        s = samples[0]
        assert s.position.latitude_deg == pytest.approx(49.011212)
        assert s.position.longitude_deg == pytest.approx(8.422885)
        assert s.raw_fields[2] == pytest.approx(112.83)
        assert len(s.raw_fields) == 30

    def test_empty_input_is_empty_list(self):
        assert parse_oxts_lines(io.StringIO("")) == []

    def test_latitude_out_of_range(self):
        bad = OXTS_LINE.replace("49.011212", "95.0")
        with pytest.raises(ValidationError, match="latitude"):
            parse_oxts_lines(io.StringIO(bad))

    def test_infinite_altitude_names_line(self):
        bad = OXTS_LINE.replace("112.83", "-inf")
        with pytest.raises(ParseError, match="line 1: non-finite"):
            parse_oxts_lines(io.StringIO(bad))

    def test_too_few_fields(self):
        with pytest.raises(ParseError, match="30"):
            parse_oxts_lines(io.StringIO("49.0 8.4 112.8"))

    def test_too_many_fields(self):
        with pytest.raises(ParseError, match=r"^line 1: OXTS record needs 30 fields, got 31$"):
            parse_oxts_lines(io.StringIO(OXTS_LINE + " 0.0"))

    def test_multi_line_file_assigns_frames_in_order(self):
        two = OXTS_LINE + "\n" + OXTS_LINE.replace("49.011212", "49.011300")
        samples = parse_oxts_lines(io.StringIO(two))
        assert [s.position.latitude_deg for s in samples] == pytest.approx([49.011212, 49.0113])

    def test_velocity_fields(self):
        fields = OXTS_LINE.split()
        fields[6], fields[7] = "3.5", "-1.25"
        s = parse_oxts_lines(io.StringIO(" ".join(fields)))[0]
        assert s.raw_fields[6:8] == (3.5, -1.25)


# line ends of every kind, comments, whitespace that str.split() splits on
# but bytes.split() does not, a line separator only str.splitlines() knows,
# and a byte that is not UTF-8
_LINE_PIECES = ["\n", "\r\n", "\r", "# comment", "  ", "\t", "\x0c", "\x1c", "\xa0",
                "\u2028", b"\xff"]
# and a fix and a bad token
_OXTS_PIECES = _LINE_PIECES + [OXTS_LINE, OXTS_LINE.replace("112.83", "abc"), "abc"]


def _write_pieces(path, pieces):
    """The pieces as one file: text in the encoding ``open`` uses, line ends as given."""
    encoding = locale.getpreferredencoding(False)
    with open(path, "wb") as fh:
        fh.write(b"".join(p if isinstance(p, bytes) else p.encode(encoding) for p in pieces))


def _outcome(read):
    try:
        return read()
    except (ParseError, ValidationError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


def _input_outcome(path, read):
    """What read() returns, or the failure its InputError wraps, as _outcome gives it."""
    try:
        return read()
    except InputError as exc:
        assert str(exc) == f"{path}: {exc.__cause__}"
        return type(exc.__cause__), str(exc.__cause__)


def _oxts_dir(directory, frame_names):
    """One OXTS file per name; the latitude encodes the name's position."""
    directory.mkdir()
    for k, name in enumerate(frame_names):
        (directory / name).write_text(OXTS_LINE.replace("49.011212", f"49.{k:06d}") + "\n")
    return str(directory)


class TestLoadOxtsDirectory:
    def test_frame_index_comes_from_file_stem(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", [f"{i:010d}.txt" for i in range(3)])
        samples = load_oxts(path)
        assert [s.position.latitude_deg for s in samples] == pytest.approx(
            [49.0, 49.000001, 49.000002], abs=1e-9)

    def test_unpadded_stems_are_ordered_numerically(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", [f"{i}.txt" for i in range(12)])
        samples = load_oxts(path)
        assert [s.position.latitude_deg for s in samples] == pytest.approx(
            [49.0 + k * 1e-6 for k in range(12)], abs=1e-9)

    def test_missing_file_names_directory_and_first_missing_frame(self, tmp_path):
        # 0000000002.txt is absent: frame 2 must not get frame 3's fix
        names = [f"{i:010d}.txt" for i in (0, 1, 3, 4, 6)]
        path = _oxts_dir(tmp_path / "oxts", names)
        with pytest.raises(InputError, match=r"frame 2\b") as info:
            load_oxts(path)
        assert str(info.value).startswith(f"{path}: ")
        assert type(info.value.__cause__) is ValidationError

    def test_first_frame_missing(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", [f"{i:010d}.txt" for i in (1, 2)])
        with pytest.raises(InputError, match=r"frame 0\b") as info:
            load_oxts(path)
        assert type(info.value.__cause__) is ValidationError

    def test_non_numeric_name_rejected(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", ["0000000000.txt", "notes.txt"])
        with pytest.raises(InputError, match="notes.txt") as info:
            load_oxts(path)
        assert str(info.value).startswith(f"{path}: ")
        assert type(info.value.__cause__) is ValidationError

    def test_two_files_for_one_frame_rejected(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", ["0.txt", "00.txt", "1.txt"])
        with pytest.raises(InputError, match=r"frame 0\b") as info:
            load_oxts(path)
        assert type(info.value.__cause__) is ValidationError

    def test_file_without_a_fix_names_the_file(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", [f"{i:010d}.txt" for i in range(4)])
        (tmp_path / "oxts" / "0000000002.txt").write_text("# no fix here\n")
        with pytest.raises(InputError) as info:
            load_oxts(path)
        assert str(info.value) == f"{tmp_path / 'oxts' / '0000000002.txt'}: no OXTS fix"
        assert type(info.value.__cause__) is ValidationError

    def test_other_extensions_ignored(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", ["0.txt", "1.txt"])
        (tmp_path / "oxts" / "README.md").write_text("not a fix\n")
        assert [s.position.latitude_deg for s in load_oxts(path)] == pytest.approx(
            [49.0, 49.000001], abs=1e-9)

    @pytest.mark.parametrize("old, new, error, message", [
        ("8.422885", "abc", ParseError, "line 1: non-numeric field 'abc'"),
        ("112.83", "inf", ParseError, "line 1: non-finite field 'inf'"),
        ("49.000042", "95.0", ValidationError, "line 1: latitude 95.0 outside [-90, 90]"),
        ("8.422885", "-200.0", ValidationError,
         "line 1: longitude -200.0 outside [-180, 180]"),
    ])
    def test_bad_fix_names_the_file(self, tmp_path, old, new, error, message):
        path = _oxts_dir(tmp_path / "oxts", [f"{i:010d}.txt" for i in range(43)])
        bad = tmp_path / "oxts" / "0000000042.txt"
        bad.write_text(bad.read_text().replace(old, new))
        with pytest.raises(InputError) as info:
            load_oxts(path)
        assert str(info.value) == f"{bad}: {message}"
        assert type(info.value.__cause__) is error

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_end_lines(self, tmp_path, newline):
        directory = tmp_path / "oxts"
        directory.mkdir()
        later = OXTS_LINE.replace("49.011212", "1.0")
        text = newline.join(["# written by the logger", "", OXTS_LINE, later, ""])
        (directory / "0.txt").write_bytes(text.encode())
        (directory / "1.txt").write_bytes(
            newline.join(["# bad fix", "  ", OXTS_LINE.replace("112.83", "x")]).encode())
        with pytest.raises(InputError, match=r"1\.txt: line 3: non-numeric field 'x'") as info:
            load_oxts(str(directory))
        assert type(info.value.__cause__) is ParseError
        (directory / "1.txt").unlink()
        (sample,) = load_oxts(str(directory))
        assert sample.position.latitude_deg == pytest.approx(49.011212)
        assert sample.raw_fields == parse_oxts_lines(io.StringIO(OXTS_LINE))[0].raw_fields

    def test_comment_before_the_fix(self, tmp_path):
        directory = tmp_path / "oxts"
        directory.mkdir()
        (directory / "0.txt").write_text(f"# lat lon alt ...\n\n   \n{OXTS_LINE}\n")
        (sample,) = load_oxts(str(directory))
        assert sample.raw_fields[2] == pytest.approx(112.83)

    @given(st.lists(st.sampled_from(_OXTS_PIECES), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_reader_sees_the_lines_of_the_text_mode_reader(self, pieces):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "0.txt")
            _write_pieces(path, pieces)

            def text_mode():
                # the lines up to the first that is neither blank nor a comment
                lines = []
                with open(path) as fh:
                    for line in fh:
                        lines.append(line)
                        if line.strip() and not line.strip().startswith("#"):
                            break
                return parse_oxts_lines(lines)

            def per_frame():
                try:
                    return load_oxts(directory)
                except InputError as exc:
                    if str(exc) == f"{path}: no OXTS fix":
                        return []
                    raise

            assert _input_outcome(path, per_frame) == _outcome(text_mode)


def _oxts_file(path, lines):
    """One multi-line OXTS file: a comment, then line k + 1 is frame k's fix."""
    path.write_text("# lat lon alt ...\n" + "".join(line + "\n" for line in lines))
    return str(path)


class TestLoadOxtsFile:
    """The one-file layout, as the dense_traffic benchmark scene writes it."""

    def test_same_fixes_as_the_directory_layout(self, tmp_path):
        write_fixture(str(tmp_path / "scene"))
        directory = tmp_path / "scene" / "oxts"
        lines = [(directory / f"{frame:010d}.txt").read_text().strip() for frame in range(100)]
        one_file = _oxts_file(tmp_path / "oxts.txt", lines)
        from_file, from_directory = load_oxts(one_file), load_oxts(str(directory))
        assert len(from_file) == 100
        assert from_file == from_directory

    @pytest.mark.parametrize("line", [2, 8, 44])
    def test_bad_token_names_the_file_and_the_line(self, tmp_path, line):
        # the comment is line 1, so line k holds frame k - 2's fix
        lines = [OXTS_LINE.replace("49.011212", f"49.{k:06d}") for k in range(43)]
        lines[line - 2] = lines[line - 2].replace("8.422885", "abc")
        path = _oxts_file(tmp_path / "oxts.txt", lines)
        with pytest.raises(InputError) as info:
            load_oxts(path)
        assert str(info.value) == f"{path}: line {line}: non-numeric field 'abc'"
        assert type(info.value.__cause__) is ParseError



_DIAGRAM_HEADER = "track_id,time_s,link_distance_m,probe_distance_m,camera_range_m,quality"
# each whole-file reader as (text-mode parse, reader of a path, first piece,
# pieces of its lines: good ones and a bad one)
_READERS = {
    "labels": (parse_label_file, lambda path: read_input(path, parse_label_file), "",
               [LABEL_LINE, LABEL_LINE.replace("13.8", "abc")]),
    "detections": (parse_detections_file,
                   lambda path: read_input(path, parse_detections_file), "",
                   ["0 car 1 2 30 40 0.9", "1,car,1,2,30,40,0.5", "2 car 1 2 30 x 0.9"]),
    "timestamps": (parse_timestamps, lambda path: read_input(path, parse_timestamps), "",
                   ["0.5", "1.5", "abc"]),
    "oxts-file": (parse_oxts_lines, load_oxts, "",
                  [OXTS_LINE, OXTS_LINE.replace("112.83", "abc")]),
    "diagram": (diagram_from_csv,
                lambda path: _read_diagram(path, None), _DIAGRAM_HEADER,
                ["0,0.000000,0.0,0.0,0.0,ok", "1,0.1,5.0,0.0,5.0,ok", "1,nan,0,0,0,ok"]),
}


class TestReadInput:
    @pytest.mark.parametrize("name", list(_READERS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_records_or_error_as_the_text_mode_reader(self, name, data):
        parse, read, first, lines = _READERS[name]
        pieces = [first] + data.draw(st.lists(st.sampled_from(_LINE_PIECES + lines),
                                              max_size=8))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, name)
            _write_pieces(path, pieces)

            def text_mode():
                with open(path) as fh:
                    return parse(fh)

            assert _input_outcome(path, lambda: read(path)) == _outcome(text_mode)

    def test_failure_keeps_its_cause_and_leads_with_the_path(self, tmp_path):
        path = tmp_path / "missing.txt"
        with pytest.raises(InputError) as info:
            read_input(str(path), list)
        assert type(info.value.__cause__) is FileNotFoundError
        assert str(info.value) == f"{path}: {info.value.__cause__}"


class TestParseDetectionsFile:
    def test_documented_line(self):
        records = parse_detections_file(io.StringIO("0 car 100 50 180 120 0.91"))
        r = records[0]
        assert (r.frame_index, r.class_label) == (0, "car")
        assert r.bbox == (100.0, 50.0, 180.0, 120.0)
        assert r.confidence == pytest.approx(0.91)
        assert type(r) is DetectionRecord

    def test_inverted_bbox_rejected(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_detections_file(io.StringIO("0 car 180 50 100 120 0.91"))

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_detections_file(io.StringIO("3 van 10 10 20 30 1.2"))

    @pytest.mark.parametrize("token", ["bus", "other", "DontCare", "5"])
    def test_unknown_class_rejected(self, token):
        text = f"0 car 100 50 180 120 0.9\n1 {token} 100 50 180 120 0.9\n"
        with pytest.raises(ParseError, match=f"^line 2: unknown class {token!r}$"):
            parse_detections_file(io.StringIO(text))

    def test_comma_separated_and_comments(self):
        text = "# header comment\n0,car,100,50,180,120,0.91\n"
        records = parse_detections_file(io.StringIO(text))
        assert len(records) == 1
        assert records[0].bbox == (100.0, 50.0, 180.0, 120.0)

    @pytest.mark.parametrize("row, cell", [
        ("0,car,100,,50,180,120,0.9", 4),
        ("0,car,100,50,180,120,0.9,2,,1,0", 9),
        ("0,car,100,50,180,120,0.9,", 8),
        (", 0 car 100 50 180 120 0.9", 1),
    ])
    def test_empty_cell_of_a_comma_row_names_the_line(self, row, cell):
        # an empty cell dropped would move every later value one column left
        text = f"0,car,100,50,180,120,0.9\n{row}\n"
        with pytest.raises(ParseError, match=f"^line 2: cell {cell} is empty$"):
            parse_detections_file(io.StringIO(text))

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="7 fields"):
            parse_detections_file(io.StringIO("0 car 1 2 3 4"))

    @pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e400"])
    def test_infinite_field_names_line(self, token):
        text = f"0 car 100 100 180 150 0.9\n0 car 100 100 {token} 150 0.9\n"
        with pytest.raises(ParseError, match=f"line 2: non-finite field {token!r}"):
            parse_detections_file(io.StringIO(text))

    def test_infinite_frame_names_line(self):
        with pytest.raises(ParseError, match="line 1: non-finite field 'inf'"):
            parse_detections_file(io.StringIO("inf car 100 100 180 150 0.9"))

    def test_nan_field_names_line(self):
        with pytest.raises(ParseError, match="line 1: NaN field"):
            parse_detections_file(io.StringIO("0 car 100 nan 180 150 0.9"))

    @pytest.mark.parametrize("token", ["1.7", "-0.5", "2.000001", "1e-3"])
    def test_fractional_frame_names_line_and_token(self, token):
        text = f"0 car 100 100 180 150 0.9\n{token} car 100 100 180 150 0.9\n"
        with pytest.raises(ParseError, match=f"line 2: non-integer field {token!r}"):
            parse_detections_file(io.StringIO(text))

    @pytest.mark.parametrize("token, frame", [("3", 3), (" 3", 3), ("+3", 3), ("3.0", 3),
                                              ("3e0", 3), ("1e1", 10), ("-0.0", 0)])
    def test_integral_frame_tokens_accepted(self, token, frame):
        [record] = parse_detections_file(io.StringIO(f"{token},car,100,100,180,150,0.9"))
        assert record.frame_index == frame and type(record.frame_index) is int

    def test_nan_frame_names_line(self):
        with pytest.raises(ParseError, match="line 1: NaN field"):
            parse_detections_file(io.StringIO("nan car 100 100 180 150 0.9"))

    @pytest.mark.parametrize("column", [0, 1, 4])
    def test_fractional_label_integer_columns_rejected(self, column):
        fields = LABEL_LINE.split()
        fields[column] = "2.5"
        with pytest.raises(ParseError, match="line 1: non-integer field '2.5'"):
            parse_label_file(io.StringIO(" ".join(fields)))


@st.composite
def detection_records(draw):
    frame = draw(st.integers(min_value=0, max_value=500))
    label = draw(st.sampled_from(["car", "van", "truck", "pedestrian"]))
    left = draw(st.floats(min_value=0, max_value=1000))
    top = draw(st.floats(min_value=0, max_value=300))
    w = draw(st.floats(min_value=0.5, max_value=400))
    h = draw(st.floats(min_value=0.5, max_value=200))
    conf = draw(st.floats(min_value=0, max_value=1))
    # a unit appearance vector, or none
    vector = draw(st.none() | st.lists(st.integers(-1000, 1000),
                                       min_size=3, max_size=3).filter(any))
    if vector is not None:
        norm = math.hypot(*vector)
        vector = tuple(v / norm for v in vector)
    return DetectionRecord(frame_index=frame, class_label=label,
                           bbox=(left, top, left + w, top + h), confidence=conf,
                           embedding=vector)


def _one_cell_mutations(rows):
    """(line number, lines) for each row with one cell deleted, duplicated or
    emptied; of the rows that split on whitespace into the same fields, as
    an emptied cell and the same cell deleted do, only the first."""
    for index, row in enumerate(rows):
        cells = row.split(" ")
        seen = set()
        for j in range(len(cells)):
            for mutated in (cells[:j] + cells[j + 1:], cells[:j + 1] + cells[j:],
                            cells[:j] + [""] + cells[j + 1:]):
                line = " ".join(mutated)
                if tuple(line.split()) not in seen:
                    seen.add(tuple(line.split()))
                    yield index + 1, rows[:index] + [line] + rows[index + 1:]


class TestReadersNeverShiftACell:
    """Over the demo fixture's inputs, deleting, duplicating or emptying any
    one cell of any row gives an error naming that row's line, or the
    records read before."""

    @pytest.fixture(scope="class")
    def fixture_rows(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("scene")
        write_fixture(str(directory))
        labels = (directory / "labels.txt").read_text().splitlines()
        detections = format_detections(
            perturb_ground_truth(parse_label_file(labels), 2.0, 0.0, seed=1)).splitlines()
        oxts = [(directory / "oxts" / name).read_text().strip()
                for name in sorted(os.listdir(directory / "oxts"))]
        return {"labels": labels, "detections": detections, "oxts": oxts}

    @pytest.mark.parametrize("name, parse", [("labels", parse_label_file),
                                             ("detections", parse_detections_file),
                                             ("oxts", parse_oxts_lines)],
                             ids=["labels", "detections", "oxts"])
    def test_one_cell_mutated(self, fixture_rows, name, parse):
        rows = fixture_rows[name]
        before = parse(rows)
        assert len(before) == len(rows)
        for line_no, lines in _one_cell_mutations(rows):
            try:
                after = parse(lines)
            except (ParseError, ValidationError) as exc:
                assert re.search(rf"\bline {line_no}\b", str(exc)), (lines[line_no - 1], exc)
            else:
                assert after == before, lines[line_no - 1]


class TestInterchangeRoundTrip:
    @given(st.lists(detection_records(), max_size=20))
    @settings(max_examples=50)
    def test_serialize_parse_round_trip(self, records):
        text = format_detections(sorted(records, key=lambda r: r.frame_index))
        reparsed = parse_detections_file(io.StringIO(text))
        assert len(reparsed) == len(records)
        for a, b in zip(sorted(records, key=lambda r: r.frame_index), reparsed):
            assert a.frame_index == b.frame_index
            assert a.class_label == b.class_label
            assert (a.bbox, a.confidence) == (b.bbox, b.confidence)
            if a.embedding is None:
                assert b.embedding is None
            else:
                assert b.embedding == pytest.approx(a.embedding, rel=1e-15, abs=1e-15)


class TestPerturb:
    def _records(self, n=100):
        return [DetectionRecord(frame_index=i, class_label="car",
                                bbox=(10.0 + i, 20.0, 60.0 + i, 70.0))
                for i in range(n)]

    def _labels(self, n=100):
        return [LabelRecord(frame_index=i, class_label="car",
                            bbox=(10.0 + i, 20.0, 60.0 + i, 70.0), confidence=0.9,
                            gt_track_id=i % 5, gt_location_camera=(-2.0, 1.6, 30.0))
                for i in range(n)]

    def test_zero_jitter_zero_drop_is_identity(self):
        records = self._records()
        assert perturb_ground_truth(records, 0.0, 0.0, seed=3) == records

    def test_same_seed_same_output(self):
        records = self._records()
        a = perturb_ground_truth(records, 2.0, 0.3, seed=7)
        b = perturb_ground_truth(records, 2.0, 0.3, seed=7)
        assert a == b

    def test_drop_rate_survivor_count(self):
        records = self._records(1000)
        survivors = perturb_ground_truth(records, 2.0, 0.5, seed=7)
        assert 400 <= len(survivors) <= 600

    def test_drop_rate_one_rejected(self):
        with pytest.raises(ValueError):
            perturb_ground_truth(self._records(), 0.0, 1.0, seed=0)

    def test_perturbed_record_keeps_every_other_field(self):
        # of the fields a detection has; the annotated ones are dropped
        record = LabelRecord(frame_index=3, class_label="van",
                             bbox=(10.0, 20.0, 60.0, 70.0), confidence=0.8,
                             gt_track_id=9,
                             gt_location_camera=(1.0, 2.0, 30.0), embedding=(0.6, 0.8))
        (out,) = perturb_ground_truth([record], 2.0, 0.0, seed=5)
        assert out.bbox != record.bbox
        assert out == DetectionRecord(frame_index=3, class_label="van", bbox=out.bbox,
                                      confidence=out.confidence, embedding=(0.6, 0.8))

    @pytest.mark.parametrize("jitter", [0.0, 3.0])
    def test_labels_become_plain_detections_in_order(self, jitter):
        labels = self._labels()
        out = perturb_ground_truth(labels, jitter, 0.0, seed=1)
        assert all(type(r) is DetectionRecord for r in out)
        assert [r.frame_index for r in out] == [r.frame_index for r in labels]
        if not jitter:
            assert [(r.bbox, r.confidence) for r in out] == [(r.bbox, r.confidence)
                                                             for r in labels]

    def test_dontcare_rows_skipped_without_a_draw(self):
        # the label reader leaves a DontCare row out, so it draws nothing and
        # the rows around it get the noise they get without it
        lines = [LABEL_LINE.replace("0 2 Car", f"{i} {i % 5} Car") for i in range(10)]
        dontcare = "4 -1 DontCare -1 -1 -10 0.0 0.0 5.0 5.0 -1 -1 -1 -1000 -1000 -1000 -10"
        with_dontcare = parse_label_file(lines[:4] + [dontcare] + lines[4:])
        assert (perturb_ground_truth(with_dontcare, 2.0, 0.3, seed=4)
                == perturb_ground_truth(parse_label_file(lines), 2.0, 0.3, seed=4))

    @pytest.mark.parametrize("jitter", [-1.0, float("nan")])
    def test_negative_or_nan_jitter_rejected(self, jitter):
        with pytest.raises(ValueError, match="jitter_px must be >= 0"):
            perturb_ground_truth(self._records(), jitter, 0.0, seed=0)

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=40)
    def test_boxes_stay_valid_and_confidence_bounded(self, seed, jitter):
        out = perturb_ground_truth(self._records(20), jitter, 0.0, seed=seed)
        for r in out:
            left, top, right, bottom = r.bbox
            assert left < right and top < bottom
            assert 0.5 <= r.confidence <= 1.0


class TestTimestampsFile:
    def test_parses_increasing(self):
        assert parse_timestamps(io.StringIO("0.0\n0.1\n0.25\n")) == [0.0, 0.1, 0.25]

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            parse_timestamps(io.StringIO("0.0\n0.1\n0.1\n"))

    def test_infinite_stamp_names_line(self):
        with pytest.raises(ParseError, match="line 3: non-finite"):
            parse_timestamps(io.StringIO("0.0\n0.1\ninf\n"))


class TestGrouping:
    def test_group_by_frame(self):
        records = parse_label_file(io.StringIO(
            LABEL_LINE + "\n" + LABEL_LINE.replace("0 2 Car", "1 2 Car")))
        grouped = group_by_frame(records)
        assert sorted(grouped) == [0, 1]
        assert all(r.frame_index == f for f, rs in grouped.items() for r in rs)


class TestRecordValidation:
    def test_negative_frame_rejected(self):
        with pytest.raises(ValidationError):
            DetectionRecord(frame_index=-1, class_label="car", bbox=(0, 0, 1, 1))

    def test_nonpositive_depth_reads_as_none(self):
        # the depth is the location's forward coordinate, and only a positive one
        def depth(location):
            return LabelRecord(frame_index=0, class_label="car", bbox=(0, 0, 1, 1),
                               gt_location_camera=location).gt_depth_m
        assert depth((1.0, 2.0, 13.8)) == 13.8
        assert depth((1.0, 2.0, 0.0)) is None
        assert depth((1.0, 2.0, -1000.0)) is None
        assert depth(None) is None

    def test_label_validates_its_box_as_a_detection_does(self):
        with pytest.raises(ValidationError, match="degenerate bbox"):
            LabelRecord(frame_index=0, class_label="car", bbox=(1, 0, 1, 1),
                        gt_location_camera=(1.0, 2.0, 5.0))

    def test_detection_has_no_annotated_field(self):
        names = set(DetectionRecord._fields)
        assert names == {"frame_index", "class_label", "bbox", "confidence", "embedding"}
        assert set(LabelRecord._fields) - names == {
            "gt_track_id", "gt_location_camera"}

    @pytest.mark.parametrize("bbox", [(0, 0, float("inf"), 1), (float("-inf"), 0, 1, 1),
                                      (0, float("nan"), 1, 1)])
    def test_non_finite_bbox_rejected(self, bbox):
        with pytest.raises(ValidationError, match="non-finite bbox"):
            DetectionRecord(frame_index=0, class_label="car", bbox=bbox)
