"""Tests for record parsing, serialization, splitting, and the generator."""

import copy
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, pose_at, rotation_about
from poseconf import dataset_io
from poseconf.coverage import INT64_MAX, ImageDims, InlierSet
from poseconf.dataset_io import (
    FAILED_QUERY_FRACTION,
    MIN_CORRESPONDENCES,
    PoseRecord,
    SplitSpec,
    SynthConfig,
    build_extended,
    group_by_query,
    grouped_split,
    label_records,
    parse_record,
    parse_records,
    read_records,
    record_lines,
    serialize_record,
    synth_generate,
    write_records,
    _as_point_list,
)
from poseconf.errors import (
    InvalidConfig,
    InvariantViolation,
    MissingGroundTruth,
    SchemaError,
    TooFewQueries,
)
from poseconf import pose_metrics
from poseconf.pose_metrics import ErrorThreshold, refused_poses
from poseconf.cli import main
from test_error_contract import MODEL_TEXT, RECORD_DOCS, mutate

IDENTITY = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


def record_obj(**overrides):
    """A minimal valid JSON record; keyword overrides patch fields."""
    obj = {
        "query_id": "q0",
        "candidate_rank": 1,
        "query_width": 32,
        "query_height": 24,
        "db_width": 48,
        "db_height": 36,
        "query_inliers": [[4, 4], [10, 7], [20, 18]],
        "db_inliers": [[5, 5], [12, 9], [25, 20]],
        "num_correspondences": 8,
        "rotation": list(IDENTITY),
        "translation": [0.0, 0.0, 0.0],
    }
    obj.update(overrides)
    return obj


class TestParseRecord:
    def test_minimal_record(self):
        record = parse_record(record_obj())
        assert record.query_id == "q0"
        assert record.inlier_count == 3
        assert record.query_dims == ImageDims(32, 24)
        assert record.db_dims == ImageDims(48, 36)
        assert record.ground_truth_pose is None
        assert record.pv_score is None
        assert not record.has_ground_truth()

    def test_ground_truth_parsed_when_both_given(self):
        obj = record_obj(gt_rotation=list(IDENTITY), gt_translation=[1.0, 2.0, 3.0])
        record = parse_record(obj)
        assert record.has_ground_truth()
        np.testing.assert_array_equal(
            record.ground_truth_pose.translation, [1.0, 2.0, 3.0]
        )

    def test_one_sided_ground_truth_rejected(self):
        with pytest.raises(SchemaError, match="together"):
            parse_record(record_obj(gt_rotation=list(IDENTITY)))
        with pytest.raises(SchemaError, match="together"):
            parse_record(record_obj(gt_translation=[0.0, 0.0, 0.0]))

    def test_missing_field_names_the_field_and_line(self):
        obj = record_obj()
        del obj["num_correspondences"]
        with pytest.raises(SchemaError, match="num_correspondences") as info:
            parse_record(obj, line=7)
        assert "line 7" in str(info.value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("query_id", 12),
            ("candidate_rank", 0),
            ("candidate_rank", 1.5),
            ("candidate_rank", True),
            ("query_width", 0),
            ("num_correspondences", -1),
            ("rotation", [1.0] * 8),
            ("translation", [0.0, 0.0, "x"]),
            ("translation", [0.0, 0.0, float("nan")]),
            ("query_inliers", [[1, 2], [3]]),
            ("query_inliers", [[1.5, 2]]),
            ("query_inliers", [[True, 2]]),
            ("query_inliers", "none"),
            ("pv_score", "high"),
            ("translation", [0.0, 0.0, 2**2000]),  # beyond the float range
        ],
    )
    def test_malformed_values_rejected(self, field, value):
        with pytest.raises(SchemaError):
            parse_record(record_obj(**{field: value}))

    def test_inlier_on_the_width_edge_rejected(self):
        obj = record_obj(query_inliers=[[32, 0], [1, 1], [2, 2]])
        with pytest.raises(InvariantViolation) as info:
            parse_record(obj, line=3)
        assert info.value.line == 3

    def test_non_orthonormal_rotation_rejected_with_line(self):
        obj = record_obj(rotation=[2.0, 0, 0, 0, 2.0, 0, 0, 0, 2.0])
        with pytest.raises(InvariantViolation) as info:
            parse_record(obj, line=11)
        assert info.value.line == 11

    def test_unknown_keys_ignored(self):
        obj = record_obj(confidence=0.9, run_id="exp-4")
        record = parse_record(obj)
        assert record == parse_record(record_obj())

    def test_explicit_null_pv_score_reads_as_absent(self):
        assert parse_record(record_obj(pv_score=None)).pv_score is None

    def test_inlier_count_above_correspondences_rejected(self):
        obj = record_obj(num_correspondences=2)
        with pytest.raises(InvariantViolation):
            parse_record(obj)

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            parse_record([1, 2, 3])

    @pytest.mark.parametrize("value", [2**70, -(2**70), 2**63])
    def test_out_of_range_coordinate_names_the_field_and_line(self, value):
        line = json.dumps(record_obj(db_inliers=[[5, 5], [12, value], [25, 20]]))
        with pytest.raises(SchemaError, match="out of range") as info:
            parse_records(["", line])
        assert (info.value.line, info.value.field) == (2, "db_inliers")

    @pytest.mark.parametrize("field", ["query_width", "query_height", "db_width", "db_height"])
    @pytest.mark.parametrize("value", [2**63, 2**70])
    def test_out_of_range_image_size_names_the_field_and_line(self, field, value):
        line = json.dumps(record_obj(**{field: value}))
        with pytest.raises(SchemaError, match="out of range") as info:
            parse_records([line])
        assert (info.value.line, info.value.field) == (1, field)

    def test_pixel_count_beyond_int64_is_rejected(self):
        # each side fits in int64, their product does not: the covered area
        # would overflow
        line = json.dumps(record_obj(db_width=2**60))
        with pytest.raises(SchemaError, match="out of range") as info:
            parse_records([line])
        assert (info.value.line, info.value.field) == (1, "db_height")
        assert parse_records([json.dumps(record_obj(db_width=2**40))])[0].db_dims.width == 2**40


class TestParseStream:
    def test_empty_stream(self):
        assert parse_records([]) == []
        assert parse_records(["", "   ", "\n"]) == []

    def test_line_numbers_are_one_based_and_skip_blanks(self):
        lines = [json.dumps(record_obj()), "", "{not json"]
        with pytest.raises(SchemaError, match="line 3"):
            parse_records(lines)

    def test_parse_failure_names_the_line(self):
        lines = [json.dumps(record_obj()), json.dumps(record_obj(candidate_rank=-2))]
        with pytest.raises(SchemaError, match="line 2"):
            parse_records(lines)

    @pytest.mark.parametrize("pad", [0, 10_000], ids=["first-chunk", "later-chunk"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, pad):
        lines = [json.dumps(record_obj(), separators=(",", ":")).encode() for _ in range(4)]
        lines[0] = lines[0][:-1] + b',"note":"' + b"x" * pad + b'"}'
        lines[2] = lines[2][:9] + b"\xff\xfe" + lines[2][9:]
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\r\n".join(lines) + b"\n")
        with pytest.raises(SchemaError) as info:
            read_records(path)
        assert info.value.line == 3
        assert str(info.value) == "line 3: not UTF-8 text: invalid start byte"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_token_in_an_unknown_key_is_refused(self, token):
        line = json.dumps(record_obj())[:-1] + f', "note": {token}}}'
        with pytest.raises(SchemaError, match="line 2") as info:
            parse_records([json.dumps(record_obj()), line])
        assert token in str(info.value)


def loop_point_list(value, field: str, line: int) -> np.ndarray:
    """The per-entry parse of an inlier list, the reference for `_as_point_list`."""
    if not isinstance(value, list):
        raise SchemaError(line=line, field=field, message="expected a list of [x, y] pairs")
    points = np.zeros((len(value), 2), dtype=np.int64)
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(line=line, field=field, message=f"entry {i} is not an [x, y] pair")
        for j in range(2):
            v = pair[j]
            if isinstance(v, bool) or not isinstance(v, int):
                raise SchemaError(
                    line=line,
                    field=field,
                    message=f"entry {i} coordinate {j} is not an integer: {v!r}",
                )
            try:
                points[i, j] = v
            except OverflowError:
                raise SchemaError(
                    line=line,
                    field=field,
                    message=f"entry {i} coordinate {j} is out of range: {v!r}",
                ) from None
    return points


def point_list_outcome(parse, value):
    try:
        return parse(value, "db_inliers", 4)
    except SchemaError as exc:
        return exc.line, exc.field, str(exc)


def assert_parses_like_the_loop(value):
    got = point_list_outcome(_as_point_list, value)
    expected = point_list_outcome(loop_point_list, value)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got.dtype == np.int64 and got.shape == (len(value), 2)
        np.testing.assert_array_equal(got, expected)


small_ints = st.integers(-50, 50)
ints = st.one_of(
    small_ints,
    st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64, -(2**64)]),
)
not_ints = st.one_of(
    st.booleans(),
    st.floats(),
    st.none(),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), ints, max_size=1),
    st.lists(ints, max_size=2),
)
entries = st.one_of(
    st.lists(ints, min_size=2, max_size=2),
    st.lists(st.one_of(ints, not_ints), min_size=1, max_size=3),
    st.tuples(ints, ints),
    ints,
    not_ints,
)
point_lists = st.one_of(
    st.lists(st.lists(small_ints, min_size=2, max_size=2), max_size=8),
    st.lists(st.lists(ints, min_size=2, max_size=2), max_size=8),
    st.lists(st.lists(small_ints | st.booleans() | st.floats(), min_size=2, max_size=2), max_size=6),
    # entries of one length k, which the one conversion reshapes to k/2 columns
    st.integers(0, 4).flatmap(
        lambda k: st.lists(st.lists(ints, min_size=k, max_size=k), max_size=6)
    ),
    st.lists(entries, max_size=8),
    not_ints,
)


@settings(max_examples=400, deadline=None)
@given(value=point_lists)
def test_point_list_parses_like_the_per_entry_loop(value):
    assert_parses_like_the_loop(value)


@pytest.mark.parametrize(
    "value",
    [[], [[True, 2]], [[1, 2, 3], [4, 5, 6]], [[1], [2]], [[2**63, 0]], [[3, 4], [5, 6]]],
)
def test_point_list_fixed_cases(value):
    assert_parses_like_the_loop(value)


class TestSerialization:
    def test_field_names_are_exact(self):
        record = parse_record(
            record_obj(gt_rotation=list(IDENTITY), gt_translation=[1.0, 0.0, 0.0])
        )
        doc = serialize_record(record)
        assert set(doc) == {
            "query_id",
            "candidate_rank",
            "query_width",
            "query_height",
            "db_width",
            "db_height",
            "query_inliers",
            "db_inliers",
            "num_correspondences",
            "rotation",
            "translation",
            "gt_rotation",
            "gt_translation",
        }

    def test_optional_fields_omitted_when_absent(self):
        doc = serialize_record(parse_record(record_obj()))
        assert "gt_rotation" not in doc
        assert "gt_translation" not in doc
        assert "pv_score" not in doc

    def test_round_trip_preserves_the_record(self):
        obj = record_obj(
            gt_rotation=list(IDENTITY), gt_translation=[1.0, 2.0, 3.0], pv_score=0.7
        )
        record = parse_record(obj)
        again = parse_record(serialize_record(record))
        assert again == record

    def test_serialized_lines_are_byte_stable(self):
        records = [parse_record(record_obj(query_id=f"q{i}")) for i in range(3)]
        assert list(record_lines(records)) == list(record_lines(records))

    def test_extra_keys_appended_and_survive_reparse(self):
        record = parse_record(record_obj())
        lines = list(record_lines([record], confidences=[0.875]))
        assert json.loads(lines[0])["confidence"] == 0.875
        assert parse_records(lines) == [record]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_extras_are_not_written(self, value):
        record = parse_record(record_obj())
        with pytest.raises(ValueError):
            list(record_lines([record], confidences=[value]))

    def test_file_round_trip(self, tmp_path):
        records = [
            parse_record(record_obj(query_id="qa")),
            parse_record(record_obj(query_id="qb", pv_score=0.25)),
        ]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        assert read_records(path) == records

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        record = parse_record(record_obj())
        path = tmp_path / "scored.jsonl"
        write_records([record], path, confidences=[0.5])
        before = path.read_bytes()
        # the second line cannot be written: a NaN is refused mid-file
        with pytest.raises(ValueError):
            write_records([record, record], path, confidences=[0.25, float("nan")])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["scored.jsonl"]

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_confidence_count_unlike_the_record_count_is_refused(self, tmp_path, count):
        record = parse_record(record_obj())
        confidences = [0.5] * count
        with pytest.raises(InvariantViolation, match=f"^2 records but {count} confidences$"):
            list(record_lines([record, record], confidences))
        path = tmp_path / "scored.jsonl"
        with pytest.raises(InvariantViolation):
            write_records([record, record], path, confidences)
        assert list(tmp_path.iterdir()) == []  # neither the file nor a temporary one


class TestSourcePassThrough:
    """A parsed record is written back as its source line unless a confidence is added."""

    LINE = (
        '{ "translation": [0.0, 0.0, 0.0],  "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],'
        ' "query_id": "q0", "candidate_rank": 1, "note": "kept",'
        ' "query_width": 32, "query_height": 24, "db_width": 48, "db_height": 36,'
        ' "query_inliers": [[4, 4], [10, 7], [20, 18]],'
        ' "db_inliers": [[5, 5], [12, 9], [25, 20]], "num_correspondences": 8 }'
    )

    @staticmethod
    def canonical(record, confidence=None):
        return json.dumps(
            serialize_record(record, confidence), separators=(",", ":"), allow_nan=False
        )

    def test_parsed_record_keeps_its_line(self):
        (record,) = parse_records([" \t" + self.LINE + " \r\n"])
        assert record.source == self.LINE
        assert list(record_lines([record])) == [self.LINE]

    def test_source_is_not_part_of_equality_or_repr(self):
        (record,) = parse_records([self.LINE])
        assert record == parse_record(json.loads(self.LINE))
        assert self.LINE not in repr(record)

    def test_extras_are_appended_to_the_source(self):
        (record,) = parse_records([self.LINE])
        (line,) = record_lines([record], confidences=[0.25])
        assert line == self.LINE[:-1] + ',"confidence":0.25}'
        assert json.loads(line) == {**json.loads(self.LINE), "confidence": 0.25}

    @pytest.mark.parametrize("key", ['"confidence"', r'"confid\u0065nce"'])
    def test_a_source_naming_an_extra_key_re_encodes_canonically(self, key):
        (record,) = parse_records([self.LINE.replace('"note"', key + ': 0.9, "note"')])
        (line,) = record_lines([record], confidences=[0.25])
        assert line == self.canonical(record, 0.25)
        # one confidence, the new one, last
        assert line.count("confidence") == 1
        assert list(json.loads(line))[-1] == "confidence"
        assert json.loads(line)["confidence"] == 0.25

    def test_a_key_named_only_below_the_top_level_is_appended(self):
        source = self.LINE.replace('"kept"', '"confidence", "extra": {"confidence": 1}')
        (record,) = parse_records([source])
        (line,) = record_lines([record], confidences=[0.25])
        assert line == source[:-1] + ',"confidence":0.25}'

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_extras_are_not_appended(self, value):
        (record,) = parse_records([self.LINE])
        with pytest.raises(ValueError):
            list(record_lines([record], confidences=[value]))

    def test_replaced_record_re_encodes(self):
        (record,) = parse_records([self.LINE])
        fields = {name: getattr(record, name) for name in (
            "query_id", "query_inliers", "db_inliers", "num_correspondences",
            "estimated_pose", "ground_truth_pose", "pv_score")}
        moved = PoseRecord(candidate_rank=2, **fields)
        assert moved.source is None
        assert list(record_lines([moved])) == [self.canonical(moved)]

    def test_built_records_encode_canonically(self):
        records = synth_generate(SynthConfig(queries=2, candidates_per_query=2), seed=4)
        assert all(r.source is None for r in records)
        assert list(record_lines(records)) == [self.canonical(r) for r in records]


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def inlier_sets(draw, n):
    """n inliers anywhere on an image up to 2**62 pixels wide, the far edge
    (beyond float precision on the widest images) included, and sizes on
    both sides of the encoder's word-table limit (2**16) among the draws."""

    def sizes(top):
        edges = [size for size in (2**16 - 1, 2**16, 2**16 + 1, 10**6 + 1) if size <= top]
        return st.integers(1, top) | st.sampled_from([*edges, top])

    width = draw(sizes(2**62))
    dims = ImageDims(width, draw(sizes(min(2**62, INT64_MAX // width))))

    def coordinate(size):
        return st.integers(0, size - 1) | st.just(size - 1)

    points = draw(
        st.lists(
            st.tuples(coordinate(dims.width), coordinate(dims.height)), min_size=n, max_size=n
        )
    )
    return InlierSet(np.asarray(points, dtype=np.int64).reshape(-1, 2), dims)


@st.composite
def built_records(draw):
    n = draw(st.integers(0, 12))
    poses = st.builds(
        pose_at,
        st.tuples(*[st.floats(-1e300, 1e300)] * 3),  # a camera center; -R c stays finite
        st.builds(rotation_about, st.sampled_from([(1, 0, 0), (1, 2, 3)]), st.floats(-180, 180)),
    )
    return PoseRecord(
        query_id=draw(st.text(max_size=8)),
        candidate_rank=draw(st.integers(1, 2**70)),
        query_inliers=draw(inlier_sets(n)),
        db_inliers=draw(inlier_sets(n)),
        num_correspondences=n + draw(st.integers(0, 5)),
        estimated_pose=draw(poses),
        ground_truth_pose=draw(st.none() | poses),
        pv_score=draw(st.none() | finite_floats),
    )


json_values = st.none() | st.booleans() | st.integers() | finite_floats | st.text(max_size=8)
confidences = st.none() | st.floats()  # NaN and infinities included


def only_line(record, confidence):
    """The one line `record_lines` writes for `record` with `confidence`
    (None: no confidence), or None when it refuses a non-finite one."""
    lines = record_lines([record], None if confidence is None else [confidence])
    if confidence is None or math.isfinite(confidence):
        (line,) = lines
        return line
    with pytest.raises(ValueError):
        list(lines)
    return None


@settings(max_examples=300, deadline=None)
@given(record=built_records(), confidence=confidences)
def test_record_lines_match_the_reference_encoding(record, confidence):
    line = only_line(record, confidence)
    if line is None:
        return
    assert line == TestSourcePassThrough.canonical(record, confidence)
    # a confidence goes after the schema fields
    schema = list(serialize_record(record))
    assert list(json.loads(line)) == schema + ["confidence"] * (confidence is not None)


@pytest.mark.parametrize(
    "points",
    [[], [[0, 0]], [[7, 42], [305, 4096], [12345, 1]], [[10**5, 999999]],
     [[2**16 - 1, 2**16 - 1]], [[2**16, 0]], [[0, 10**6]], [[2**62 - 1, 3]]],
)
def test_points_json_matches_json(points):
    array = np.array(points, dtype=np.int64).reshape(-1, 2)
    assert dataset_io._points_json(array) == json.dumps(array.tolist(), separators=(",", ":"))


@st.composite
def source_lines(draw):
    """A valid record line in any key order, compact or spaced, with unknown
    keys, some named like an extra, and escapes in some string values."""
    doc = dict(draw(st.sampled_from(RECORD_DOCS), label="record"))
    doc.update(
        draw(
            st.dictionaries(
                st.sampled_from(["note", "confidence", "extra", "r\u00e9sum\u00e9"]),
                json_values | st.just({"confidence": 1}) | st.just("confidence"),
                max_size=3,
            ),
            label="unknown keys",
        )
    )
    doc = {key: doc[key] for key in draw(st.permutations(list(doc)), label="key order")}
    separators = draw(st.sampled_from([None, (",", ":"), (" ,", " : ")]), label="spacing")
    return json.dumps(doc, separators=separators, ensure_ascii=draw(st.booleans(), label="ascii"))


@settings(max_examples=200, deadline=None)
@given(source=source_lines(), confidence=confidences)
def test_record_lines_append_extras_to_the_source(source, confidence):
    (record,) = parse_records([source])
    line = only_line(record, confidence)
    if line is None:
        return
    if confidence is None:
        assert line == source
    elif "confidence" not in json.loads(source):
        assert line == source[:-1] + "," + compact({"confidence": confidence})[1:]
        assert json.loads(line) == {**json.loads(source), "confidence": confidence}
    else:
        assert line == TestSourcePassThrough.canonical(record, confidence)


def _refuse_constant(token):
    raise ValueError(f"non-standard token {token}")


def reference_records(lines):
    """The whole-line reader, the reference for `parse_records`: every line
    decoded by json, inlier arrays included, then `parse_record`."""
    decoder = json.JSONDecoder(parse_constant=_refuse_constant)
    records = []
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = decoder.decode(raw)
        except ValueError as exc:
            message = getattr(exc, "msg", exc)
            raise SchemaError(line=line_no, message=f"invalid JSON: {message}") from None
        record = parse_record(obj, line_no)
        object.__setattr__(record, "source", raw.strip(" \t\r\n"))
        records.append(record)
    return records


def reader_outcome(read, lines):
    try:
        return read(lines)
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "field", None), str(exc)


def assert_reads_like_the_reference(lines):
    got = reader_outcome(parse_records, lines)
    expected = reader_outcome(reference_records, lines)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert got == expected  # every field, the inlier arrays and poses included
    for mine, theirs in zip(got, expected):
        assert mine.source == theirs.source
        for side in ("query_inliers", "db_inliers"):
            points = getattr(mine, side).points
            assert points.dtype == np.int64
            assert points.shape == getattr(theirs, side).points.shape
        for side in ("estimated_pose", "ground_truth_pose"):
            pose = getattr(mine, side)
            if pose is not None:
                assert pose.rotation.dtype == pose.translation.dtype == np.float64
                assert (pose.rotation.shape, pose.translation.shape) == ((3, 3), (3,))


def compact(doc):
    return json.dumps(doc, separators=(",", ":"))


SYNTH_LINES = list(
    record_lines(
        [
            *synth_generate(SynthConfig(queries=3, candidates_per_query=3, width=64, height=48), 11),
            *synth_generate(
                SynthConfig(queries=2, candidates_per_query=4, junk_fraction=0.5, include_pv=True),
                12,
            ),
        ]
    )
)


def test_synth_lines_take_the_text_conversion():
    # the property below compares that path, so it must be the one taken
    assert all(dataset_io._decode_with_inliers(line) is not None for line in SYNTH_LINES)
    assert any(r.inlier_count == 0 for r in parse_records(SYNTH_LINES))  # empty arrays too


# factors around 1 that put a deviation from an orthonormal rotation just
# below or just above ORTHONORMALITY_TOL
NEAR_THE_TOLERANCE = [0.99, 0.999, 1.001, 1.01]
INF = "a 1e999 entry"  # json writes no inf, so the text gets it afterwards
POSE_DAMAGE = {  # a damaged copy of rotation r, given a factor f
    "skew": lambda r, f: r + [[0, 0.1, 0], [0, 0, 0], [0, 0, 0]],
    "reflection": lambda r, f: -r,
    # det stays 1, max |R^T R - I| is about 1e-6 times f
    "columns": lambda r, f: r * [1 + 5e-7 * f, 1 / (1 + 5e-7 * f), 1],
    # max |R^T R - I| is about 0.67e-6, |det R - 1| about 1e-6 times f
    "scale": lambda r, f: r * (1 + 1e-6 / 3 * f),
}
BAD_ENTRIES = {"1e999": INF, "past the float range": 2**1100, "bool": True, "string": "1"}


def damage_pose(doc, data):
    """A copy of a record document with one of its poses damaged."""
    doc = copy.deepcopy(doc)
    prefix = data.draw(st.sampled_from(["", "gt_"]), label="pose")
    damage = data.draw(st.sampled_from([*POSE_DAMAGE, *BAD_ENTRIES, "half"]), label="damage")
    if damage == "half":  # a ground truth rotation without its translation, or the reverse
        del doc["gt_" + data.draw(st.sampled_from(["rotation", "translation"]), label="kept")]
    elif damage in BAD_ENTRIES:
        values = doc[prefix + data.draw(st.sampled_from(["rotation", "translation"]), label="of")]
        values[data.draw(st.integers(0, len(values) - 1), label="entry")] = BAD_ENTRIES[damage]
    else:
        rotation = np.asarray(doc[prefix + "rotation"]).reshape(3, 3)
        factor = data.draw(st.sampled_from(NEAR_THE_TOLERANCE), label="factor")
        doc[prefix + "rotation"] = POSE_DAMAGE[damage](rotation, factor).ravel().tolist()
    return doc


def record_text(doc, data):
    text = json.dumps(doc) if data.draw(st.booleans(), label="spaced") else compact(doc)
    return text.replace(json.dumps(INF), "1e999")


def test_pose_damage_reaches_both_sides_of_the_tolerance():
    doc = RECORD_DOCS[0]
    rotation = np.asarray(doc["rotation"]).reshape(3, 3)
    for damage in ("columns", "scale"):
        outcomes = []
        for factor in NEAR_THE_TOLERANCE:
            damaged = POSE_DAMAGE[damage](rotation, factor).ravel().tolist()
            line = compact({**doc, "rotation": damaged})
            outcomes.append(isinstance(reader_outcome(reference_records, [line]), list))
        assert outcomes == [True, True, False, False]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_matches_the_whole_line_decoder(data):
    lines = data.draw(st.lists(st.sampled_from(SYNTH_LINES), max_size=3), label="synth")
    for _ in range(data.draw(st.integers(0, 3), label="mutated")):
        doc = data.draw(st.sampled_from(RECORD_DOCS), label="record")
        damage = data.draw(st.sampled_from([mutate, damage_pose]), label="mutation")
        lines.append(record_text(damage(doc, data), data))
    lines = data.draw(st.permutations(lines), label="order")
    assert_reads_like_the_reference([line + "\n" for line in lines])


@pytest.mark.parametrize("pose_first", [True, False], ids=["pose-first", "schema-first"])
@pytest.mark.parametrize("damage", ["reflection", "1e999"])
def test_the_first_bad_line_fails_first(pose_first, damage):
    doc = RECORD_DOCS[1]
    if damage == "1e999":
        bad_pose = compact({**doc, "gt_translation": [0.0, INF, 0.0]})
        bad_pose = bad_pose.replace(json.dumps(INF), "1e999")
    else:
        bad_pose = compact({**doc, "rotation": [-v for v in doc["rotation"]]})
    bad_schema = compact({k: v for k, v in doc.items() if k != "num_correspondences"})
    first, second = (bad_pose, bad_schema) if pose_first else (bad_schema, bad_pose)
    lines = [SYNTH_LINES[0], first, "", SYNTH_LINES[1], second]
    assert_reads_like_the_reference(lines)
    error = reader_outcome(parse_records, lines)
    assert error[1] == 2
    if pose_first and damage == "reflection":
        assert error[0] is InvariantViolation and "det" in error[3]
    elif pose_first:
        assert error[:3] == (SchemaError, 2, "gt_translation") and error[3].endswith("got inf")
    else:
        assert error[:3] == (SchemaError, 2, "num_correspondences")


# a fault outside the poses of a RECORD_DOCS line (64x48 images, >= 3 inliers)
OTHER_FAULTS = {
    "query_id": {"query_id": 7},
    "rank": {"candidate_rank": 0},
    "pv_score": {"pv_score": "high"},
    "correspondences": {"num_correspondences": 2},
    "outside": {"db_width": 1},
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_bad_pose_and_another_fault_read_like_the_whole_line_decoder(data):
    lines = data.draw(st.lists(st.sampled_from(SYNTH_LINES), max_size=2), label="synth")
    doc = damage_pose(data.draw(st.sampled_from(RECORD_DOCS), label="record"), data)
    fault = data.draw(st.sampled_from([*OTHER_FAULTS, "mutate"]), label="fault")
    doc = mutate(doc, data) if fault == "mutate" else {**doc, **OTHER_FAULTS[fault]}
    lines.insert(data.draw(st.integers(0, len(lines)), label="at"), record_text(doc, data))
    assert_reads_like_the_reference([line + "\n" for line in lines])


REFLECTED = [-v for v in IDENTITY]


@pytest.mark.parametrize(
    "pose_fault, other_fault, error",
    [
        (
            {"gt_rotation": REFLECTED, "gt_translation": [0.0, 0.0, 0.0]},
            {"query_inliers": [[4, 4], [10, 7], [32, 18]]},
            (InvariantViolation, 1, None, "line 1: inlier outside 32x24 image"),
        ),
        (
            {"translation": [0.0, float("inf"), 0.0]},
            {"pv_score": "high"},
            (SchemaError, 1, "pv_score", "line 1: field 'pv_score': expected a number, got 'high'"),
        ),
        (
            {"rotation": REFLECTED},
            {"num_correspondences": 2},
            (InvariantViolation, 1, None, "line 1: 3 inliers exceed 2 correspondences"),
        ),
    ],
    ids=["reflected-gt-and-outside", "1e999-and-pv_score", "reflected-and-correspondences"],
)
def test_a_line_names_its_other_fault_before_its_pose(pose_fault, other_fault, error):
    def text(obj):  # json writes no inf, so the text gets 1e999 afterwards
        return json.dumps(obj).replace("Infinity", "1e999")

    obj = record_obj(**pose_fault, **other_fault)
    assert reader_outcome(lambda o: parse_record(o, 1), obj) == error
    assert reader_outcome(parse_records, [text(obj)]) == error
    # the pose fault alone still fails the line
    alone = reader_outcome(parse_records, [text(record_obj(**pose_fault))])
    assert isinstance(alone, tuple) and alone[1] == 1 and alone[3] != error[3]


# a text file is decoded in chunks of 8 KB; 3 lines of about 280 bytes stay
# inside the first, 100 reach past the third
@pytest.mark.parametrize("copies", [3, 100], ids=["first-chunk", "later-chunk"])
def test_a_bad_pose_fails_before_a_later_undecodable_byte(tmp_path, copies):
    bad_pose = compact(record_obj(rotation=[-v for v in IDENTITY]))
    text = "".join(line + "\n" for line in [bad_pose, *[compact(record_obj())] * copies]).encode()
    path = tmp_path / "records.jsonl"
    path.write_bytes(text + b"\xff\n")
    with pytest.raises(InvariantViolation) as info:
        read_records(path)
    assert info.value.line == 1


MISSING_RANK = "line 1: field 'candidate_rank': missing required field"


def test_a_missing_field_fails_before_an_undecodable_byte_in_its_chunk(tmp_path, capsys):
    ranks = [compact(record_obj(candidate_rank=k)).encode() for k in (1, 2, 3)]
    lines = [b'{"query_id": "q"}', *ranks, b'{"x": "\xff"}']  # 5 lines, 860 bytes
    data = tmp_path / "records.jsonl"
    data.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(SchemaError) as info:
        read_records(data)
    assert (info.value.line, str(info.value)) == (1, MISSING_RANK)
    model = tmp_path / "model.json"
    model.write_text(MODEL_TEXT)
    argv = ["score", "--data", str(data), "--model", str(model), "--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: SchemaError: {MISSING_RANK}\n"


@pytest.mark.parametrize(
    "char, reason",
    [("\udcff", "invalid start byte"), ("\ud800", "surrogates not allowed")],
    ids=["escaped-byte", "lone-surrogate"],
)
def test_a_lone_surrogate_from_a_caller_is_not_utf8(char, reason):
    doc = {**RECORD_DOCS[1], "query_id": "q" + char}
    lines = [compact(RECORD_DOCS[0]), json.dumps(doc, separators=(",", ":"), ensure_ascii=False)]
    with pytest.raises(SchemaError) as info:
        parse_records(lines)
    assert str(info.value) == f"line 2: not UTF-8 text: {reason}"


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_every_line_end_ends_a_line(tmp_path, end):
    lines = [compact(d) for d in RECORD_DOCS[:3]]
    path = tmp_path / "records.jsonl"
    encoded = [line.encode() for line in lines]
    path.write_bytes(b"".join(line + end for line in encoded))
    assert [r.source for r in read_records(path)] == lines
    path.write_bytes(b"".join(line + end for line in [*encoded[:2], b'{"x": "\xff"}']))
    with pytest.raises(SchemaError) as info:  # the bad byte's line counts every line end
        read_records(path)
    assert str(info.value) == "line 3: not UTF-8 text: invalid start byte"


# one-pixel-high images 2**62 wide, so 18- and 19-digit coordinates fit
BASE = compact(
    record_obj(
        query_width=2**62,
        query_height=1,
        db_width=2**62,
        db_height=1,
        query_inliers=[[4, 0], [10, 0], [20, 0]],
        db_inliers=[[5, 0], [12, 0], [25, 0]],
    )
)
QUERY = '"query_inliers":[[4,0],[10,0],[20,0]]'


def with_query(text):
    return BASE.replace(QUERY, text)


# (line, whether the text conversion may take it)
READER_CASES = {
    "base": (BASE, True),
    "padded": (" \t" + BASE + " \r\n", True),
    "spaces in an array": (with_query('"query_inliers":[[4, 0],[10,0],[20,0]]'), False),
    "space between pairs": (with_query('"query_inliers":[[4,0], [10,0],[20,0]]'), False),
    "space after the key": (with_query('"query_inliers": [[4,0],[10,0],[20,0]]'), False),
    "leading zero": (with_query('"query_inliers":[[04,0],[10,0],[20,0]]'), False),
    "zero then digits": (with_query('"query_inliers":[[0,0],[10,0],[20,018]]'), False),
    "zeros": (with_query('"query_inliers":[[0,0],[10,0],[20,0]]'), True),
    "minus zero": (with_query('"query_inliers":[[-0,0],[10,0],[20,0]]'), False),
    "negative": (with_query('"query_inliers":[[-1,0],[10,0],[20,0]]'), False),
    "exponent": (with_query('"query_inliers":[[1e2,0],[10,0],[20,0]]'), False),
    "fraction": (with_query('"query_inliers":[[1.0,0],[10,0],[20,0]]'), False),
    "18 digits": (with_query('"query_inliers":[[999999999999999999,0],[10,0],[20,0]]'), True),
    "19 digits": (with_query('"query_inliers":[[1000000000000000000,0],[10,0],[20,0]]'), False),
    "int64 max": (with_query('"query_inliers":[[9223372036854775807,0],[10,0],[20,0]]'), False),
    "past int64": (with_query('"query_inliers":[[9223372036854775808,0],[10,0],[20,0]]'), False),
    "4301 digits": (with_query('"query_inliers":[[1' + "0" * 4300 + ',0],[10,0],[20,0]]'), False),
    "empty arrays": (
        with_query('"query_inliers":[]').replace('"db_inliers":[[5,0],[12,0],[25,0]]', '"db_inliers":[]'),
        True,
    ),
    "one empty array": (with_query('"query_inliers":[]'), True),
    "three coordinates": (with_query('"query_inliers":[[4,4,0],[10,0],[20,0]]'), False),
    "one coordinate": (with_query('"query_inliers":[[4],[10,0],[20,0]]'), False),
    "flat": (with_query('"query_inliers":[4,4,10,7,20,18]'), False),
    "empty pair": (with_query('"query_inliers":[[],[10,0],[20,0]]'), False),
    "trailing comma": (with_query('"query_inliers":[[4,0],[10,0],[20,0],]'), False),
    "missing bracket": (with_query('"query_inliers":[[4,0],[10,0],[20,0]'), False),
    "extra bracket": (with_query('"query_inliers":[[4,0],[10,0],[20,0]]]'), False),
    "outside the image": (with_query('"query_inliers":[[4,0],[10,0],[20,1]]'), True),
    "placeholder then a fraction": (with_query(QUERY + ".5"), False),
    "placeholder then an exponent": (with_query(QUERY + "e5"), False),
    "placeholder then a digit": (with_query(QUERY + "0"), False),
    "duplicate key": (BASE[:-1] + ',"query_inliers":[[1,0],[2,0],[3,0]]}', False),
    "duplicate key first": ('{"query_inliers":[[1,0],[2,0],[3,0]],' + BASE[1:], False),
    "duplicate key holding the placeholder": (BASE[:-1] + ',"query_inliers":0}', False),
    "nested namesake": (BASE[:-1] + ',"extra":{"query_inliers":[[1,1]]}}', False),
    "nested only": (
        with_query('"extra":{"query_inliers":[[4,0],[10,0],[20,0]]}'), False
    ),
    "key name as a string": (BASE[:-1] + ',"note":"query_inliers"}', False),
    "key name in a string": (BASE[:-1] + r',"note":"\"query_inliers\":[[1,1]]"}', False),
    "escaped key holding the placeholder": (
        with_query(r'"query\u005finliers":0,"extra":{"query_inliers":[[4,0],[10,0],[20,0]]}'),
        False,
    ),
    "escape elsewhere": (BASE.replace('"q0"', r'"q\u0030"'), False),
    "placeholder value": (with_query('"query_inliers":0'), False),
    "NaN elsewhere": (BASE[:-1] + ',"note":NaN}', False),
    "missing field": (BASE.replace('"candidate_rank":1,', ""), True),
    "not an object": ("[" + QUERY.split(":", 1)[1] + "]", False),
    "trailing text": (BASE + "x", False),
    "truncated": (BASE[:-1], False),
}


# the cases that hold a valid record; every other one fails
READER_CASES_THAT_PARSE = {
    "base", "padded", "spaces in an array", "space between pairs", "space after the key",
    "zeros", "minus zero",
    "18 digits", "19 digits", "empty arrays", "duplicate key", "duplicate key first",
    "nested namesake", "key name as a string", "key name in a string", "escape elsewhere",
}


@pytest.mark.parametrize("name", list(READER_CASES))
def test_reader_fixed_cases(name):
    line, converted = READER_CASES[name]
    assert (dataset_io._decode_with_inliers(line) is not None) == converted
    assert_reads_like_the_reference([BASE, line])
    parsed = isinstance(reader_outcome(reference_records, [line]), list)
    assert parsed == (name in READER_CASES_THAT_PARSE)


class TestPoseRecordValidation:
    def test_rank_must_be_positive(self):
        with pytest.raises(InvariantViolation):
            make_record(candidate_rank=0)

    def test_inlier_sides_must_pair_up(self):
        with pytest.raises(InvariantViolation):
            make_record(query_points=[(1, 1), (2, 2)], db_points=[(1, 1)])

    def test_count_cannot_exceed_correspondences(self):
        with pytest.raises(InvariantViolation):
            make_record(num_correspondences=2)

    def test_pv_score_must_be_finite(self):
        with pytest.raises(InvariantViolation):
            make_record(pv_score=float("inf"))


class TestBuildExtended:
    def test_boundary_at_min_correspondences(self):
        keep = make_record("qa", num_correspondences=MIN_CORRESPONDENCES)
        drop = PoseRecord(
            query_id="qb",
            candidate_rank=1,
            query_inliers=InlierSet(np.array([[1, 1]]), ImageDims(8, 8)),
            db_inliers=InlierSet(np.array([[1, 1]]), ImageDims(8, 8)),
            num_correspondences=MIN_CORRESPONDENCES - 1,
            estimated_pose=pose_at((0, 0, 0)),
        )
        assert build_extended([keep, drop]) == [keep]

    def test_preserves_order_and_is_idempotent(self):
        records = [make_record(f"q{i}") for i in range(5)]
        out = build_extended(records)
        assert out == records
        assert build_extended(out) == out

    def test_dataset_scale_counts(self):
        # 3290 records with 922 under-threshold ones scattered throughout
        # leave 2368 — the filter is count-exact at realistic scale, not
        # just on toy pairs.
        rng = random.Random(0)
        junk_at = set(rng.sample(range(3290), 922))
        records = []
        for i in range(3290):
            if i in junk_at:
                records.append(
                    make_record(
                        f"q{i:04d}",
                        query_points=((1, 1),),
                        db_points=((2, 2),),
                        num_correspondences=rng.randrange(1, MIN_CORRESPONDENCES),
                    )
                )
            else:
                records.append(make_record(f"q{i:04d}"))
        kept = build_extended(records)
        assert len(kept) == 2368
        assert kept == [r for r in records if r.num_correspondences >= MIN_CORRESPONDENCES]


class TestGroupedSplit:
    def make_grouped(self, n_queries=4, per_query=10):
        return [
            make_record(f"q{q}", candidate_rank=r + 1)
            for q in range(n_queries)
            for r in range(per_query)
        ]

    def test_three_to_one_query_split(self):
        records = self.make_grouped()
        train, test = grouped_split(records, SplitSpec(0.75, seed=0))
        assert len(train) == 30 and len(test) == 10
        train_ids = {r.query_id for r in train}
        test_ids = {r.query_id for r in test}
        assert len(train_ids) == 3 and len(test_ids) == 1
        assert not train_ids & test_ids

    def test_partition_is_exact(self):
        records = self.make_grouped(6, 3)
        train, test = grouped_split(records, SplitSpec(0.5, seed=3))
        by_id = lambda rs: sorted((r.query_id, r.candidate_rank) for r in rs)
        assert sorted(by_id(train) + by_id(test)) == by_id(records)

    def test_same_seed_same_split(self):
        records = self.make_grouped(8, 4)
        a = grouped_split(records, SplitSpec(0.7, seed=11))
        b = grouped_split(records, SplitSpec(0.7, seed=11))
        assert a == b

    def test_different_seeds_shuffle_queries(self):
        records = self.make_grouped(12, 2)
        splits = {
            tuple(sorted({r.query_id for r in grouped_split(records, SplitSpec(0.5, s))[0]}))
            for s in range(8)
        }
        assert len(splits) > 1

    def test_test_side_never_empty(self):
        records = self.make_grouped(2, 1)
        train, test = grouped_split(records, SplitSpec(0.99, seed=0))
        assert len(train) == 1 and len(test) == 1

    def test_too_few_queries_rejected(self):
        with pytest.raises(TooFewQueries):
            grouped_split([make_record("only")])

    def test_split_spec_validation(self):
        with pytest.raises(InvalidConfig):
            SplitSpec(0.0)
        with pytest.raises(InvalidConfig):
            SplitSpec(1.0)

    @pytest.mark.parametrize("args, kwargs, field", [
        ((0.5,), {"seed": 1.5}, "seed"),
        ((0.5,), {"seed": True}, "seed"),
        ((0.5,), {"seed": "1"}, "seed"),
        (("0.5",), {}, "train_fraction"),
        ((True,), {}, "train_fraction"),
        ((None,), {}, "train_fraction"),
    ])
    def test_split_spec_refuses_a_wrong_type(self, args, kwargs, field):
        with pytest.raises(InvalidConfig, match=f"{field} must be"):
            SplitSpec(*args, **kwargs)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(InvalidConfig, match="seed"):
            SplitSpec(0.5, seed=-1)


class TestLabeling:
    def correct_and_wrong(self):
        gt = pose_at((0.0, 0.0, 0.0))
        return [
            make_record("qa", estimated_pose=pose_at((0.0, 0.0, 0.0)), ground_truth_pose=gt),
            make_record("qb", estimated_pose=pose_at((0.4, 0.0, 0.0)), ground_truth_pose=gt),
            make_record("qc", estimated_pose=pose_at((3.0, 0.0, 0.0)), ground_truth_pose=gt),
            make_record(
                "qd",
                estimated_pose=pose_at((0.0, 0.0, 0.0), rotation_about((0, 0, 1), 25.0)),
                ground_truth_pose=gt,
            ),
        ]

    def test_labels_against_hand_computation(self):
        labels = label_records(self.correct_and_wrong(), ErrorThreshold(1.0, 10.0))
        assert labels.dtype == np.float64
        np.testing.assert_array_equal(labels, [1.0, 1.0, 0.0, 0.0])

    def test_looser_threshold_keeps_all_stricter_positives(self):
        records = self.correct_and_wrong()
        strict = label_records(records, ErrorThreshold(0.5, 10.0))
        loose = label_records(records, ErrorThreshold(5.0, 45.0))
        assert np.all(loose >= strict)

    def test_missing_ground_truth_named(self):
        with pytest.raises(MissingGroundTruth) as info:
            label_records([make_record("q9", candidate_rank=4)])
        message = str(info.value)
        assert "q9" in message and "4" in message


def test_group_by_query_keeps_first_appearance_order():
    records = [
        make_record("qb", 1),
        make_record("qa", 1),
        make_record("qb", 2),
        make_record("qc", 1),
    ]
    groups = group_by_query(records)
    assert list(groups) == ["qb", "qa", "qc"]
    assert [r.candidate_rank for r in groups["qb"]] == [1, 2]


class TestSynthConfigValidation:
    def test_bad_fractions_rejected(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(correct_fraction=1.2)
        with pytest.raises(InvalidConfig):
            SynthConfig(adversarial_fraction=-0.1)

    def test_bad_sizes_rejected(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(queries=-1)
        with pytest.raises(InvalidConfig):
            SynthConfig(candidates_per_query=0)
        with pytest.raises(InvalidConfig):
            SynthConfig(width=0)

    def test_pixel_count_beyond_int64_rejected(self):
        with pytest.raises(InvalidConfig, match="width x height"):
            SynthConfig(width=2**32, height=2**32)
        with pytest.raises(InvalidConfig, match="width x height"):
            SynthConfig(width=INT64_MAX // 16 + 1, height=16)
        SynthConfig(width=INT64_MAX // 16, height=16)  # the largest count still fits

    @pytest.mark.parametrize("name, value", [
        ("queries", True), ("queries", 2.5), ("candidates_per_query", "3"),
        ("width", 320.0), ("height", np.int64(240)), ("correct_fraction", True),
        ("adversarial_fraction", "0.3"), ("junk_fraction", None),
        ("include_pv", "no"), ("include_pv", 1),
    ])
    def test_a_field_of_the_wrong_type_is_named(self, name, value):
        with pytest.raises(InvalidConfig, match=f"^{name} must be"):
            SynthConfig(**{name: value})

    def test_integer_fractions_are_numbers(self):
        SynthConfig(correct_fraction=1, adversarial_fraction=0, junk_fraction=0)


class TestSynthGenerate:
    def test_deterministic_for_a_seed(self):
        config = SynthConfig(queries=12, candidates_per_query=4, width=96, height=72)
        assert list(synth_generate(config, seed=3)) == list(synth_generate(config, seed=3))
        assert list(record_lines(synth_generate(config, seed=3))) == list(
            record_lines(synth_generate(config, seed=3))
        )

    def test_different_seeds_differ(self):
        config = SynthConfig(queries=12, candidates_per_query=4, width=96, height=72)
        assert list(synth_generate(config, seed=1)) != list(synth_generate(config, seed=2))

    def test_zero_queries(self):
        assert list(synth_generate(SynthConfig(queries=0), seed=0)) == []

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(InvalidConfig):
            synth_generate(SynthConfig(queries=2), seed=-1)

    def test_too_many_records_is_a_config_error(self):
        # numpy refuses the query permutation before anything is allocated
        with pytest.raises(InvalidConfig, match="too many"):
            synth_generate(SynthConfig(queries=2**62, candidates_per_query=1), seed=0)

    def test_is_a_lazy_re_iterable_sequence(self):
        config = SynthConfig(queries=5, candidates_per_query=3, width=64, height=48)
        records = synth_generate(config, seed=9)
        first = list(records)
        assert len(records) == len(first) == 15
        assert list(records) == first  # a second pass replays the same stream
        assert records[0] == first[0] and records[-1] == first[-1]
        assert records[7] == first[7] and records[-15] == first[0]
        for index in (15, -16):
            with pytest.raises(IndexError):
                records[index]

    def test_writing_holds_one_record_at_a_time(self, tmp_path):
        path = tmp_path / "synth.jsonl"
        config = SynthConfig(queries=40)
        write_records(synth_generate(config, 0), path)  # warm up imports and caches
        tracemalloc.start()
        try:
            write_records(synth_generate(config, 0), path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a list of the 400 records alone takes about 6.5 MB
        assert peak < 2**20

    def test_writing_memory_does_not_grow_with_candidates(self, tmp_path):
        path = tmp_path / "synth.jsonl"
        config = SynthConfig(queries=2, candidates_per_query=200)
        write_records(synth_generate(config, 0), path)  # warm up imports and caches
        tracemalloc.start()
        try:
            write_records(synth_generate(config, 0), path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # as for 400 records over 40 queries

    def test_poses_are_checked_a_chunk_at_a_time(self, monkeypatch):
        batches = []

        def counting(rotations, translations):
            batches.append(len(rotations))
            return refused_poses(rotations, translations)

        def no_pose(*args):
            raise AssertionError("a generated pose was checked on its own")

        monkeypatch.setattr(dataset_io, "refused_poses", counting)
        monkeypatch.setattr(pose_metrics, "refused_poses", no_pose)  # what Pose(...) calls
        records = list(synth_generate(SynthConfig(queries=30), seed=4))
        assert len(records) == 300
        assert len(batches) <= math.ceil(300 / dataset_io.SYNTH_CHUNK)
        assert sum(batches) == 600  # an estimate and a ground truth per record

    def test_a_refused_pose_names_its_position(self, monkeypatch):
        axis_angle = dataset_io._axis_angle  # called once per record, for its estimate
        bad = dataset_io.SYNTH_CHUNK + 4  # a record of the second chunk
        calls = []

        def reflect_one(axis, angle):
            calls.append(None)
            rotation = axis_angle(axis, angle)
            return -rotation if len(calls) == bad else rotation

        monkeypatch.setattr(dataset_io, "_axis_angle", reflect_one)
        made = iter(synth_generate(SynthConfig(queries=bad, candidates_per_query=2), seed=2))
        first = [next(made) for _ in range(dataset_io.SYNTH_CHUNK)]  # the first chunk passes
        assert first[-1].estimated_pose.rotation.shape == (3, 3)
        with pytest.raises(InvariantViolation, match=f"^line {bad}: rotation is not orthonormal"):
            list(made)

    def test_record_invariants(self):
        config = SynthConfig(
            queries=20,
            candidates_per_query=5,
            width=128,
            height=96,
            junk_fraction=0.1,
            include_pv=True,
        )
        records = synth_generate(config, seed=8)
        assert len(records) == 100
        for r in records:
            assert r.inlier_count <= r.num_correspondences
            assert r.has_ground_truth()
            assert 0.0 <= r.pv_score <= 1.0
            assert r.query_dims == ImageDims(128, 96)
        ranks = [r.candidate_rank for r in records if r.query_id == "q0003"]
        assert ranks == [1, 2, 3, 4, 5]

    def test_junk_records_fall_below_min_correspondences(self):
        config = SynthConfig(
            queries=30, candidates_per_query=4, width=64, height=48, junk_fraction=0.3
        )
        records = synth_generate(config, seed=5)
        n_junk = sum(r.num_correspondences < MIN_CORRESPONDENCES for r in records)
        # junk is drawn only for the queries that are not failed ones
        n_normal = (30 - round(FAILED_QUERY_FRACTION * 30)) * 4
        assert n_junk == round(0.3 * n_normal)

    def test_round_trips_through_serialization(self):
        config = SynthConfig(queries=6, candidates_per_query=3, width=80, height=60)
        records = list(synth_generate(config, seed=13))
        assert parse_records(record_lines(records)) == records

    def test_both_classes_appear_at_default_threshold(self):
        records = synth_generate(
            SynthConfig(queries=30, candidates_per_query=5), seed=21
        )
        labels = label_records(records)
        assert 0 < labels.sum() < len(labels)
