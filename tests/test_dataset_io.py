"""Tests for record parsing, serialization, splitting, and the generator."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, pose_at, rotation_about
from poseconf.coverage import ImageDims, InlierSet
from poseconf.dataset_io import (
    MIN_CORRESPONDENCES,
    PoseRecord,
    SplitSpec,
    SynthConfig,
    build_extended,
    group_by_query,
    grouped_split,
    label_records,
    labels_only,
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
from poseconf.pose_metrics import ErrorThreshold

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
        lines = list(record_lines([record], extras=[{"confidence": 0.875}]))
        assert json.loads(lines[0])["confidence"] == 0.875
        assert parse_records(lines) == [record]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_extras_are_not_written(self, value):
        record = parse_record(record_obj())
        with pytest.raises(ValueError):
            list(record_lines([record], extras=[{"confidence": value}]))

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
        write_records([record], path, extras=[{"confidence": 0.5}])
        before = path.read_bytes()
        # the second line cannot be written: a NaN is refused mid-file
        with pytest.raises(ValueError):
            write_records(
                [record, record], path, extras=[{"confidence": 0.25}, {"confidence": float("nan")}]
            )
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["scored.jsonl"]


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
        labeled = label_records(self.correct_and_wrong(), ErrorThreshold(1.0, 10.0))
        assert [lab for _, lab in labeled] == [1, 1, 0, 0]
        np.testing.assert_array_equal(labels_only(labeled), [1.0, 1.0, 0.0, 0.0])

    def test_looser_threshold_keeps_all_stricter_positives(self):
        records = self.correct_and_wrong()
        strict = labels_only(label_records(records, ErrorThreshold(0.5, 10.0)))
        loose = labels_only(label_records(records, ErrorThreshold(5.0, 45.0)))
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
        with pytest.raises(InvalidConfig):
            SynthConfig(sparse_correct_fraction=0.7, hard_correct_fraction=0.5)

    def test_bad_sizes_rejected(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(queries=-1)
        with pytest.raises(InvalidConfig):
            SynthConfig(candidates_per_query=0)
        with pytest.raises(InvalidConfig):
            SynthConfig(width=0)


class TestSynthGenerate:
    def test_deterministic_for_a_seed(self):
        config = SynthConfig(queries=12, candidates_per_query=4, width=96, height=72)
        assert synth_generate(config, seed=3) == synth_generate(config, seed=3)
        assert list(record_lines(synth_generate(config, seed=3))) == list(
            record_lines(synth_generate(config, seed=3))
        )

    def test_different_seeds_differ(self):
        config = SynthConfig(queries=12, candidates_per_query=4, width=96, height=72)
        assert synth_generate(config, seed=1) != synth_generate(config, seed=2)

    def test_zero_queries(self):
        assert synth_generate(SynthConfig(queries=0), seed=0) == []

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
            queries=30, candidates_per_query=4, width=64, height=48,
            junk_fraction=0.3, failed_query_fraction=0.0,
        )
        records = synth_generate(config, seed=5)
        n_junk = sum(r.num_correspondences < MIN_CORRESPONDENCES for r in records)
        assert n_junk == round(0.3 * len(records))

    def test_round_trips_through_serialization(self):
        config = SynthConfig(queries=6, candidates_per_query=3, width=80, height=60)
        records = synth_generate(config, seed=13)
        assert parse_records(record_lines(records)) == records

    def test_both_classes_appear_at_default_threshold(self):
        records = synth_generate(
            SynthConfig(queries=30, candidates_per_query=5), seed=21
        )
        labels = labels_only(label_records(records))
        assert 0 < labels.sum() < len(labels)
