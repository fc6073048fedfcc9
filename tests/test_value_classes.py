"""The value classes' construction, equality, hashing, immutability and repr.

Each class takes its fields positionally in declaration order or by
keyword, with the defaults below.  The classes marked `VALUE` compare and
hash by their field values; `TrainData` by identity; the rest compare by
their own `__eq__` and are unhashable.  No field can be assigned or
deleted, and `PoseRecord.source` is neither an argument nor part of `==`
or `repr`.
"""

import copy
import pickle

import numpy as np
import pytest

from conftest import make_record, pose_at
from poseconf.confidence_model import ConfidenceModel, TrainData, TrainResult
from poseconf.coverage import CoverageMap, CoverageParams, ImageDims, InlierSet
from poseconf.dataset_io import PoseRecord, SplitSpec, SynthConfig, parse_records, record_lines
from poseconf.evaluation import PRCurve, SweepRow
from poseconf.features import Standardizer
from poseconf.pose_metrics import ErrorThreshold, Pose, PoseError


def _model() -> ConfidenceModel:
    return ConfidenceModel(("inlier_count",), np.array([0.5]), -0.25,
                           Standardizer(np.array([3.0]), np.array([2.0])), {"n": 4})


def _record_fields():
    record = make_record(pv_score=0.5, ground_truth_pose=pose_at((1.0, 0.0, 0.0)))
    return ("query_id", "candidate_rank", "query_inliers", "db_inliers", "num_correspondences",
            "estimated_pose", "ground_truth_pose", "pv_score"), record


# class -> (field names, a valid value per field), in declaration order
def _cases():
    dims = ImageDims(4, 3)
    names, record = _record_fields()
    return {
        ImageDims: (("width", "height"), (320, 240)),
        CoverageParams: (("neighborhood_fraction", "min_half_extent"), (0.125, 2)),
        InlierSet: (("points", "dims"), (np.array([[0, 0], [3, 2]], dtype=np.int64), dims)),
        CoverageMap: (("dims", "covered"), (dims, np.ones((3, 4), dtype=bool))),
        Pose: (("rotation", "translation"), (np.eye(3), np.array([1.0, 2.0, 3.0]))),
        ErrorThreshold: (("max_translation_m", "max_rotation_deg"), (0.5, 5.0)),
        PoseError: (("translation_m", "rotation_deg"), (0.25, 3.0)),
        PoseRecord: (names, tuple(getattr(record, name) for name in names)),
        SplitSpec: (("train_fraction", "seed"), (0.5, 3)),
        SynthConfig: (
            ("queries", "candidates_per_query", "width", "height", "correct_fraction",
             "adversarial_fraction", "junk_fraction", "include_pv"),
            (2, 3, 64, 48, 0.5, 0.25, 0.125, True),
        ),
        TrainData: (("z", "y"), (np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))),
        ConfidenceModel: (
            ("feature_set", "weights", "bias", "standardizer", "training_meta"),
            (("inlier_count",), np.array([0.5]), -0.25,
             Standardizer(np.array([3.0]), np.array([2.0])), {"n": 4}),
        ),
        TrainResult: (("model", "final_loss", "epochs_run", "converged", "loss_history"),
                      (_model(), 0.5, 3, True, (0.7, 0.6, 0.5))),
        Standardizer: (("means", "stds"), (np.array([1.0, 2.0]), np.array([0.5, 4.0]))),
        PRCurve: (("points", "auc"), (((0.0, 1.0), (1.0, 0.5)), 0.75)),
        SweepRow: (("threshold", "n_records", "n_positive", "model_auc", "inliers_auc"),
                   (ErrorThreshold(), 10, 4, 0.75, 0.5)),
    }


CASES = _cases()
CLASSES = list(CASES)
VALUE = [ImageDims, CoverageParams, ErrorThreshold, PoseError, SplitSpec, SynthConfig, PRCurve,
         SweepRow, TrainResult]
OWN_EQ = [InlierSet, CoverageMap, Pose, PoseRecord, ConfidenceModel, Standardizer]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _values(obj) -> list:
    return [getattr(obj, name) for name in CASES[type(obj)][0]]


def _assert_same_values(a, b):
    assert type(a) is type(b)
    assert all(_same(x, y) for x, y in zip(_values(a), _values(b)))


def _build(cls, **changes):
    names, values = CASES[cls]
    return cls(**{**dict(zip(names, values)), **changes})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    names, values = CASES[cls]
    by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
    _assert_same_values(by_position, by_keyword)
    for name, value in zip(names, values):
        assert _same(getattr(by_position, name), value)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("make, expected", [
    (lambda: CoverageParams(), (1.0 / 15.0, 1)),
    (lambda: ErrorThreshold(), (1.0, 10.0)),
    (lambda: SplitSpec(), (0.75, 0)),
    (lambda: SynthConfig(), (200, 10, 320, 240, 0.45, 0.35, 0.0, False)),
    (lambda: PoseRecord(*CASES[PoseRecord][1][:6]), CASES[PoseRecord][1][:6] + (None, None)),
], ids=["CoverageParams", "ErrorThreshold", "SplitSpec", "SynthConfig", "PoseRecord"])
def test_defaults(make, expected):
    assert all(_same(a, b) for a, b in zip(_values(make()), expected))


def test_each_model_gets_its_own_default_meta():
    names, values = CASES[ConfidenceModel]
    a, b = ConfidenceModel(*values[:4]), ConfidenceModel(*values[:4])
    assert a.training_meta == {} and a.training_meta is not b.training_meta


@pytest.mark.parametrize("cls", VALUE, ids=lambda c: c.__name__)
def test_value_classes_compare_and_hash_by_value(cls):
    a, b = _build(cls), _build(cls)
    assert a == b and not a != b
    if cls is TrainResult:  # the hash of its fields, and a model has none
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    changes = {
        ImageDims: {"width": 321}, CoverageParams: {"neighborhood_fraction": 0.25},
        ErrorThreshold: {"max_translation_m": 0.75}, PoseError: {"translation_m": 0.5},
        SplitSpec: {"train_fraction": 0.25}, SynthConfig: {"queries": 5},
        PRCurve: {"points": ((0.0, 1.0), (1.0, 0.0)), "auc": 0.5},
        SweepRow: {"threshold": ErrorThreshold(0.5)}, TrainResult: {"loss_history": (0.7, 0.5)},
    }[cls]
    changed = _build(cls, **changes)
    assert a != changed and not a == changed
    assert a != tuple(CASES[cls][1]) and a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls", OWN_EQ, ids=lambda c: c.__name__)
def test_array_holding_classes_compare_by_value_and_are_unhashable(cls):
    a, b = _build(cls), _build(cls)
    assert a == b and a.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError):
        hash(a)


def test_train_data_compares_by_identity():
    a, b = _build(TrainData), _build(TrainData)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    obj = _build(cls)
    name, value = CASES[cls][0][0], CASES[cls][1][0]
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.unknown_field = 1
    _assert_same_values(obj, _build(cls))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copies_and_pickles_keep_every_field(cls):
    obj = _build(cls)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        _assert_same_values(twin, obj)


@pytest.mark.parametrize("obj, text", [
    (ImageDims(320, 240), "ImageDims(width=320, height=240)"),
    (ErrorThreshold(), "ErrorThreshold(max_translation_m=1.0, max_rotation_deg=10.0)"),
    (SplitSpec(0.5, 3), "SplitSpec(train_fraction=0.5, seed=3)"),
    (SweepRow(ErrorThreshold(0.5), 4, 1, None, None),
     "SweepRow(threshold=ErrorThreshold(max_translation_m=0.5, max_rotation_deg=10.0), "
     "n_records=4, n_positive=1, model_auc=None, inliers_auc=None)"),
], ids=["ImageDims", "ErrorThreshold", "SplitSpec", "SweepRow"])
def test_repr_names_each_field(obj, text):
    assert repr(obj) == text


class TestPoseRecordSource:
    def test_parsed_record_keeps_its_line_out_of_eq_and_repr(self):
        built = make_record(pv_score=0.5)
        (line,) = record_lines([built])
        (parsed,) = parse_records([" " + line + "\n"])
        assert parsed.source == line and built.source is None
        assert parsed == built
        assert repr(parsed) == repr(built)
        assert "source" not in repr(parsed) and line not in repr(parsed)
        assert repr(parsed).startswith("PoseRecord(query_id='q0', candidate_rank=1, query_inliers=")

    def test_source_is_no_argument(self):
        names, values = CASES[PoseRecord]
        with pytest.raises(TypeError):
            PoseRecord(*values, source="{}")
        with pytest.raises(TypeError):
            PoseRecord(*values, "{}")

    def test_source_can_be_neither_assigned_nor_deleted(self):
        (parsed,) = parse_records(record_lines([make_record()]))
        with pytest.raises(AttributeError):
            parsed.source = None
        with pytest.raises(AttributeError):
            del parsed.source
        assert parsed.source is not None
