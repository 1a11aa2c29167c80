import dataclasses
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tsdiag.errors import ParseError, ValidationError
from tsdiag.kitti import (
    DetectionRecord,
    FrameClock,
    format_detections,
    group_by_frame,
    load_oxts,
    parse_detections_file,
    parse_label_file,
    parse_oxts_lines,
    parse_timestamps,
    perturb_ground_truth,
    without_dontcare,
)

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
        assert not r.is_dontcare

    def test_wrong_field_count_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_label_file(io.StringIO("0 2 Car 0 0"))

    def test_case_normalized_class(self):
        line = LABEL_LINE.replace("Car", "Van")
        records = parse_label_file(io.StringIO(line))
        assert records[0].class_label == "van"
        assert records[0].bbox == (515.2, 178.9, 616.3, 260.2)

    def test_unknown_class_maps_to_other(self):
        line = LABEL_LINE.replace("Car", "Unicycle")
        assert parse_label_file(io.StringIO(line))[0].class_label == "other"

    def test_dontcare_retained_but_flagged(self):
        line = "0 -1 DontCare -1 -1 -10 219.31 188.49 245.50 218.56 -1 -1 -1 -1000 -1000 -1000 -10"
        records = parse_label_file(io.StringIO(line))
        assert len(records) == 1
        assert records[0].is_dontcare
        assert records[0].gt_depth_m is None
        assert without_dontcare(records) == []

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
            (0, -1), (0, -1), (0, -1), (0, -1), (0, 2), (1, 2)]


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
# a fix and a bad token
_OXTS_PIECES = ["\n", "\r\n", "\r", "# comment", "  ", "\t", "\x0c", "\x1c", "\xa0",
                "\u2028", OXTS_LINE, OXTS_LINE.replace("112.83", "abc"), "abc"]


def _outcome(read):
    try:
        return read()
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


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
        with pytest.raises(ValidationError, match=r"frame 2\b") as info:
            load_oxts(path)
        assert path in str(info.value)

    def test_first_frame_missing(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", [f"{i:010d}.txt" for i in (1, 2)])
        with pytest.raises(ValidationError, match=r"frame 0\b"):
            load_oxts(path)

    def test_non_numeric_name_rejected(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", ["0000000000.txt", "notes.txt"])
        with pytest.raises(ValidationError, match="notes.txt") as info:
            load_oxts(path)
        assert path in str(info.value)

    def test_two_files_for_one_frame_rejected(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", ["0.txt", "00.txt", "1.txt"])
        with pytest.raises(ValidationError, match=r"frame 0\b"):
            load_oxts(path)

    def test_file_without_a_fix_names_the_file(self, tmp_path):
        path = _oxts_dir(tmp_path / "oxts", [f"{i:010d}.txt" for i in range(4)])
        (tmp_path / "oxts" / "0000000002.txt").write_text("# no fix here\n")
        with pytest.raises(ValidationError, match="0000000002.txt"):
            load_oxts(path)

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
        with pytest.raises(error) as info:
            load_oxts(path)
        assert str(info.value) == f"{bad}: {message}"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_end_lines(self, tmp_path, newline):
        directory = tmp_path / "oxts"
        directory.mkdir()
        later = OXTS_LINE.replace("49.011212", "1.0")
        text = newline.join(["# written by the logger", "", OXTS_LINE, later, ""])
        (directory / "0.txt").write_bytes(text.encode())
        (directory / "1.txt").write_bytes(
            newline.join(["# bad fix", "  ", OXTS_LINE.replace("112.83", "x")]).encode())
        with pytest.raises(ParseError, match=r"1\.txt: line 3: non-numeric field 'x'"):
            load_oxts(str(directory))
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
            with open(path, "w", newline="") as fh:  # newlines written as given
                fh.write("".join(pieces))

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
                except ValidationError as exc:
                    if str(exc) == f"{path}: no OXTS fix for frame 0":
                        return []
                    raise

            expected, found = _outcome(text_mode), _outcome(per_frame)
            if isinstance(expected, tuple):
                expected = (expected[0], f"{path}: {expected[1]}")
            assert found == expected


class TestParseDetectionsFile:
    def test_documented_line(self):
        records = parse_detections_file(io.StringIO("0 car 100 50 180 120 0.91"))
        r = records[0]
        assert (r.frame_index, r.class_label) == (0, "car")
        assert r.bbox == (100.0, 50.0, 180.0, 120.0)
        assert r.confidence == pytest.approx(0.91)
        assert r.gt_track_id == -1
        assert r.gt_depth_m is None

    def test_inverted_bbox_rejected(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_detections_file(io.StringIO("0 car 180 50 100 120 0.91"))

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_detections_file(io.StringIO("3 van 10 10 20 30 1.2"))

    def test_comma_separated_and_comments(self):
        text = "# header comment\n0,car,100,50,180,120,0.91\n"
        records = parse_detections_file(io.StringIO(text))
        assert len(records) == 1
        assert records[0].bbox == (100.0, 50.0, 180.0, 120.0)

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
    return DetectionRecord(frame_index=frame, class_label=label,
                           bbox=(left, top, left + w, top + h), confidence=conf)


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
            for x, y in zip(a.bbox, b.bbox):
                assert abs(x - y) <= 1e-6
            assert abs(a.confidence - b.confidence) <= 1e-6


class TestPerturb:
    def _records(self, n=100):
        return [DetectionRecord(frame_index=i, class_label="car",
                                bbox=(10.0 + i, 20.0, 60.0 + i, 70.0),
                                gt_track_id=i % 5)
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
        record = DetectionRecord(frame_index=3, class_label="van",
                                 bbox=(10.0, 20.0, 60.0, 70.0), confidence=0.8,
                                 gt_track_id=9,
                                 gt_location_camera=(1.0, 2.0, 30.0), gt_depth_m=30.0)
        (out,) = perturb_ground_truth([record], 2.0, 0.0, seed=5)
        assert out.bbox != record.bbox
        assert out == dataclasses.replace(record, bbox=out.bbox, confidence=out.confidence)

    def test_track_ids_preserved(self):
        records = self._records()
        out = perturb_ground_truth(records, 3.0, 0.0, seed=1)
        assert [r.gt_track_id for r in out] == [r.gt_track_id for r in records]

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=40)
    def test_boxes_stay_valid_and_confidence_bounded(self, seed, jitter):
        out = perturb_ground_truth(self._records(20), jitter, 0.0, seed=seed)
        for r in out:
            left, top, right, bottom = r.bbox
            assert left < right and top < bottom
            assert 0.5 <= r.confidence <= 1.0


class TestFrameClock:
    def test_default_rate(self):
        clock = FrameClock()
        assert clock.time_for_frame(13) == pytest.approx(1.3)

    def test_explicit_timestamps(self):
        clock = FrameClock(explicit_timestamps=(0.0, 0.11, 0.19))
        assert clock.time_for_frame(2) == pytest.approx(0.19)
        with pytest.raises(ValidationError, match="frame 3"):
            clock.time_for_frame(3)

    def test_non_monotone_timestamps_rejected(self):
        with pytest.raises(ValidationError):
            FrameClock(explicit_timestamps=(0.0, 0.2, 0.2))

    def test_bad_rate_rejected(self):
        with pytest.raises(ValidationError):
            FrameClock(frame_rate_hz=0.0)


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

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ValidationError):
            DetectionRecord(frame_index=0, class_label="car", bbox=(0, 0, 1, 1),
                            gt_depth_m=0.0)

    @pytest.mark.parametrize("bbox", [(0, 0, float("inf"), 1), (float("-inf"), 0, 1, 1),
                                      (0, float("nan"), 1, 1)])
    def test_non_finite_bbox_rejected(self, bbox):
        with pytest.raises(ValidationError, match="non-finite bbox"):
            DetectionRecord(frame_index=0, class_label="car", bbox=bbox)
