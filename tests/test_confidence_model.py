"""Tests for the logistic confidence model: math, training, serialization."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_record
from poseconf import confidence_model
from poseconf.coverage import CoverageParams
from poseconf.confidence_model import (
    ConfidenceModel,
    TrainData,
    from_json_dict,
    gradient,
    hessian,
    load_model,
    logsig,
    nll_loss,
    predict,
    predict_record,
    prepare_train_data,
    raw_space_parameters,
    save_model,
    score_records,
    to_json_dict,
    train,
    train_features,
)
from poseconf.dataset_io import (
    SynthConfig,
    build_extended,
    label_records,
    synth_generate,
)
from poseconf.errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidConfig,
    InvariantViolation,
    SchemaError,
    SingleClassData,
)
from poseconf.features import (
    DEFAULT_FEATURE_SET,
    FEATURE_INLIER_COUNT,
    KNOWN_FEATURES,
    STD_FLOOR,
    Standardizer,
    feature_matrix,
    identity_standardizer,
)
from poseconf.pose_metrics import ErrorThreshold


class TestLogsig:
    def test_known_values(self):
        assert logsig(0.0) == 0.5
        assert logsig(1.0) == pytest.approx(0.7310585786300049, abs=0)

    def test_extreme_arguments_stay_in_bounds(self):
        with np.errstate(over="raise"):
            assert logsig(1000.0) == 1.0
            assert logsig(-1000.0) == 0.0
            out = logsig(np.array([-750.0, -30.0, 0.0, 30.0, 750.0]))
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(np.diff(out) >= 0.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(logsig(2.0), float)
        assert isinstance(logsig(np.array([1.0, 2.0])), np.ndarray)

    @settings(max_examples=100, deadline=None)
    @given(m=st.floats(-700, 700))
    def test_complement_symmetry(self, m):
        assert logsig(-m) == pytest.approx(1.0 - logsig(m), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(m=st.floats(-50, 50))
    def test_matches_naive_formula_in_safe_range(self, m):
        assert logsig(m) == pytest.approx(1.0 / (1.0 + math.exp(-m)), rel=1e-14)


class TestLoss:
    def test_zero_parameters_give_log_two(self):
        data = TrainData(np.array([[0.3], [-1.2], [4.0]]), np.array([1.0, 0.0, 1.0]))
        assert nll_loss(np.zeros(1), 0.0, data) == pytest.approx(
            0.6931471805599453, rel=1e-15
        )

    def test_single_positive_at_margin_one(self):
        data = TrainData(np.array([[0.0]]), np.array([1.0]))
        loss = nll_loss(np.zeros(1), 1.0, data)
        assert loss == pytest.approx(0.3132616875182228, rel=1e-15)
        assert loss == pytest.approx(-math.log(logsig(1.0)), rel=1e-15)

    def test_loss_is_finite_at_huge_margins(self):
        data = TrainData(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        assert math.isfinite(nll_loss(np.array([5000.0]), 0.0, data))
        assert math.isfinite(nll_loss(np.array([-5000.0]), 0.0, data))


def finite_difference(w, b, data, h=1e-5):
    """Central differences of nll_loss in every coordinate."""
    grad_w = np.zeros_like(w)
    for i in range(len(w)):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad_w[i] = (nll_loss(up, b, data) - nll_loss(down, b, data)) / (2 * h)
    grad_b = (nll_loss(w, b + h, data) - nll_loss(w, b - h, data)) / (2 * h)
    return grad_w, grad_b


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, k = int(rng.integers(2, 40)), int(rng.integers(1, 5))
            data = TrainData(
                rng.normal(size=(n, k)),
                rng.integers(0, 2, size=n).astype(float),
            )
            w = rng.normal(size=k)
            b = float(rng.normal())
            grad_w, grad_b = gradient(w, b, data)
            fd_w, fd_b = finite_difference(w, b, data)
            np.testing.assert_allclose(grad_w, fd_w, rtol=1e-5, atol=1e-8)
            assert grad_b == pytest.approx(fd_b, rel=1e-5, abs=1e-8)

    def test_hessian_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(10):
            n, k = int(rng.integers(2, 40)), int(rng.integers(1, 5))
            data = TrainData(
                rng.normal(size=(n, k)),
                rng.integers(0, 2, size=n).astype(float),
            )
            w = rng.normal(size=k)
            b = float(rng.normal())
            fd = np.zeros((k + 1, k + 1))
            for i in range(k + 1):
                step = np.zeros(k + 1)
                step[i] = h
                up = np.append(*gradient(w + step[:k], b + step[k], data))
                down = np.append(*gradient(w - step[:k], b - step[k], data))
                fd[:, i] = (up - down) / (2 * h)
            np.testing.assert_allclose(hessian(w, b, data), fd, rtol=1e-5, atol=1e-8)

    def test_bias_gradient_at_origin(self):
        # residual at zero parameters is (0.5 - y)
        data = TrainData(
            np.array([[1.0], [2.0], [3.0], [4.0]]),
            np.array([1.0, 1.0, 1.0, 0.0]),
        )
        _, grad_b = gradient(np.zeros(1), 0.0, data)
        assert grad_b == pytest.approx(0.5 - 0.75, abs=0)


class TestPrepareTrainData:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            prepare_train_data(np.zeros((0, 2)), np.zeros(0))

    def test_single_class_rejected(self):
        x = np.array([[1.0], [2.0]])
        with pytest.raises(SingleClassData):
            prepare_train_data(x, [1, 1])
        with pytest.raises(SingleClassData):
            prepare_train_data(x, [0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            prepare_train_data(np.zeros((3, 1)), [1, 0])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(InvalidConfig):
            TrainData(np.zeros((2, 1)), np.array([0.5, 1.0]))


def two_cluster_data(n=60, seed=5):
    rng = np.random.default_rng(seed)
    pos = rng.normal(2.0, 0.7, size=(n // 2, 1))
    neg = rng.normal(-2.0, 0.7, size=(n // 2, 1))
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n // 2), np.zeros(n // 2)])
    return x, y


class TestTraining:
    def test_loss_history_is_non_increasing(self):
        x, y = two_cluster_data()
        result = train_features(x, y, (FEATURE_INLIER_COUNT,))
        history = np.array(result.loss_history)
        assert len(history) == result.epochs_run + 1
        assert np.all(np.diff(history) <= 0.0)
        assert result.final_loss == history[-1]

    def test_separable_clusters_are_classified(self):
        # the optimum lies at infinity; the fit must still stop at finite
        # parameters
        x, y = two_cluster_data()
        result = train_features(x, y, (FEATURE_INLIER_COUNT,))
        assert np.all(np.isfinite(result.model.weights))
        assert math.isfinite(result.model.bias)
        preds = predict(result.model, x)
        assert np.all((preds > 0.5) == (y == 1.0))

    def test_training_is_deterministic(self):
        x, y = two_cluster_data()
        a = train_features(x, y, (FEATURE_INLIER_COUNT,))
        b = train_features(x, y, (FEATURE_INLIER_COUNT,))
        assert np.array_equal(a.model.weights, b.model.weights)
        assert a.model.bias == b.model.bias
        assert a.model == b.model

    def test_intercept_only_recovers_base_rate(self):
        # a constant feature standardizes to zero, leaving pure intercept
        # fitting: the optimum is logit of the positive fraction
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        x = np.zeros((10, 1))
        result = train_features(x, labels, (FEATURE_INLIER_COUNT,))
        assert result.model.bias == pytest.approx(-0.8472978603872036, abs=1e-3)

    def test_gradient_vanishes_at_the_fit(self):
        records = build_extended(synth_generate(SynthConfig(queries=20), 3))
        labels = label_records(records, ErrorThreshold(1.0, 10.0))
        x = feature_matrix(records, DEFAULT_FEATURE_SET)
        result = train_features(x, labels, DEFAULT_FEATURE_SET)
        data, _ = prepare_train_data(x, labels)
        grad_w, grad_b = gradient(result.model.weights, result.model.bias, data)
        assert result.converged
        assert max(np.max(np.abs(grad_w)), abs(grad_b)) < 1e-6

    @pytest.mark.parametrize("value", [0.0, 7.0])
    def test_constant_feature_keeps_zero_weight(self, value):
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        x = np.full((10, 1), value)
        result = train_features(x, labels, (FEATURE_INLIER_COUNT,))
        assert result.model.weights[0] == 0.0
        assert abs(result.model.bias - math.log(3 / 7)) < 1e-9
        assert result.epochs_run <= 20

    def test_iteration_cap_is_respected(self, monkeypatch):
        monkeypatch.setattr(confidence_model, "_MAX_ITERATIONS", 1)
        x, y = two_cluster_data()
        result = train_features(x, y, (FEATURE_INLIER_COUNT,))
        assert result.epochs_run == 1
        assert not result.converged

    def test_non_descent_step_falls_back_to_the_gradient(self, monkeypatch):
        # a negated Hessian turns every Newton step uphill; flipped labels
        # give the clusters a finite optimum that gradient steps can reach
        x, y = two_cluster_data()
        y[[0, 1, 30, 31]] = 1.0 - y[[0, 1, 30, 31]]
        newton = train_features(x, y, (FEATURE_INLIER_COUNT,))
        exact = confidence_model.hessian
        monkeypatch.setattr(confidence_model, "hessian", lambda *args: -exact(*args))
        fallback = train_features(x, y, (FEATURE_INLIER_COUNT,))
        assert fallback.converged
        assert np.all(np.diff(fallback.loss_history) <= 0.0)
        assert fallback.final_loss == pytest.approx(newton.final_loss, abs=1e-6)

    def test_metadata_records_the_run(self):
        x, y = two_cluster_data()
        result = train_features(x, y, (FEATURE_INLIER_COUNT,))
        meta = result.model.training_meta
        assert meta["n_train"] == 60
        assert meta["n_positive"] == 30
        assert meta["epochs_run"] == result.epochs_run
        assert meta["converged"] == result.converged
        assert "config" not in meta
        assert set(meta["coverage_params"]) == {
            "neighborhood_fraction",
            "min_half_extent",
        }

    def test_record_level_train_matches_feature_level(self):
        records = []
        labels = []
        rng = np.random.default_rng(12)
        for i in range(12):
            n = int(rng.integers(3, 15))
            pts = np.column_stack(
                [rng.uniform(0, 32, size=n), rng.uniform(0, 24, size=n)]
            )
            records.append(
                make_record(query_id=f"q{i}", query_points=pts, db_points=pts)
            )
            labels.append(i % 2)
        via_records = train(records, labels)
        via_matrix = train_features(
            feature_matrix(records, DEFAULT_FEATURE_SET), labels, DEFAULT_FEATURE_SET
        )
        assert via_records.model == via_matrix.model

    def test_empty_records_rejected(self):
        with pytest.raises(EmptyDataset):
            train([], [])


class TestPredict:
    def test_handmade_model_matches_logsig(self):
        model = ConfidenceModel(
            (FEATURE_INLIER_COUNT,), np.array([1.0]), 0.0, identity_standardizer(1)
        )
        assert predict(model, np.array([1.0])) == pytest.approx(
            0.7310585786300049, abs=0
        )
        out = predict(model, np.array([[0.0], [1.0], [2.0]]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0.0)

    def test_score_records_uses_stored_coverage_params(self):
        record = make_record()
        x, y = two_cluster_data()
        # same parameters, different stored coverage settings -> different score
        narrow = train_features(
            x,
            y,
            ("query_coverage",),
            params=CoverageParams(neighborhood_fraction=0.05),
        ).model
        wide = ConfidenceModel(
            narrow.feature_set,
            narrow.weights,
            narrow.bias,
            narrow.standardizer,
            {**narrow.training_meta, "coverage_params": {"neighborhood_fraction": 0.9}},
        )
        assert score_records(narrow, [record])[0] != score_records(wide, [record])[0]

    def test_score_records_is_predict_over_the_feature_matrix(self):
        records = build_extended(synth_generate(SynthConfig(queries=6, width=96, height=72), 4))
        labels = label_records(records, ErrorThreshold(1.0, 10.0))
        params = CoverageParams(neighborhood_fraction=0.1)
        model = train(records, labels, params=params).model
        expected = predict(model, feature_matrix(records, model.feature_set, params))
        np.testing.assert_array_equal(score_records(model, records), expected)
        assert predict_record(model, records[3]) == float(score_records(model, [records[3]])[0])

    def test_score_records_of_nothing_is_empty(self):
        x, y = two_cluster_data()
        model = train_features(x, y, (FEATURE_INLIER_COUNT,)).model
        assert score_records(model, []).shape == (0,)

    def test_model_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            ConfidenceModel(
                ("inlier_count",), np.array([1.0, 2.0]), 0.0, identity_standardizer(1)
            )
        with pytest.raises(DimensionMismatch):
            ConfidenceModel(
                ("inlier_count",), np.array([1.0]), 0.0, identity_standardizer(2)
            )


# Each example draws its numbers from one of these ranges.  The largest,
# the float range, admits every finite model and feature value; the smaller
# ones keep most margins where a confidence still has bits to lose.
BOUNDS = (10.0, 1e3, sys.float_info.max)


@st.composite
def finite_models(draw, bound):
    """A model over the first k of the known features, k in 1..4, whose
    numbers lie in [-bound, bound]."""
    k = draw(st.integers(1, 4))
    values = arrays(np.float64, k, elements=st.floats(-bound, bound))
    return ConfidenceModel(
        KNOWN_FEATURES[:k],
        draw(values),
        draw(st.floats(-bound, bound)),
        Standardizer(draw(values), draw(arrays(np.float64, k, elements=st.floats(STD_FLOOR, bound)))),
    )


def _bits(model, x):
    """predict's float64 bits for x, or None where its margin overflows."""
    try:
        return np.asarray(predict(model, x), dtype=np.float64).tobytes()
    except InvariantViolation:
        return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_rows_confidence_does_not_depend_on_its_batch(data):
    bound = data.draw(st.sampled_from(BOUNDS), label="bound")
    model = data.draw(finite_models(bound), label="model")
    n = data.draw(st.integers(1, 40), label="n")
    x = data.draw(arrays(np.float64, (n, len(model.feature_set)),
                         elements=st.floats(-bound, bound)), label="x")
    alone = [_bits(model, row) for row in x]  # each row as a 1-D vector
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)), label="cuts")) if n > 1 else []
    for start, stop in zip([0, *cuts], [*cuts, n]):
        chunk = alone[start:stop]
        # a chunk overflows exactly where one of its rows does alone
        expected = None if None in chunk else b"".join(chunk)
        assert _bits(model, x[start:stop]) == expected
    assert _bits(model, x) == (None if None in alone else b"".join(alone))


PV_RECORDS = build_extended(
    synth_generate(SynthConfig(queries=8, candidates_per_query=5, width=96, height=72,
                               include_pv=True), 9)
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_records_confidence_alone_is_its_confidence_in_the_file(data):
    model = data.draw(finite_models(data.draw(st.sampled_from(BOUNDS))), label="model")
    alone = []
    for record in PV_RECORDS:
        try:
            alone.append(np.float64(predict_record(model, record)).tobytes())
        except InvariantViolation:
            alone.append(None)
    try:
        in_file = score_records(model, PV_RECORDS).tobytes()
    except InvariantViolation:
        in_file = None
    assert in_file == (None if None in alone else b"".join(alone))


class TestRawSpaceParameters:
    def test_predictions_agree_in_both_spaces(self):
        rng = np.random.default_rng(21)
        x = np.column_stack(
            [rng.normal(900, 400, size=80), rng.uniform(0, 1, size=80)]
        )
        y = (x[:, 0] + 1500 * x[:, 1] > 1500).astype(float)
        if y.min() == y.max():  # pragma: no cover - guard for strategy drift
            y[0] = 1.0 - y[0]
        result = train_features(x, y, ("inlier_count", "query_coverage"))
        w_raw, b_raw = raw_space_parameters(result.model)
        direct = np.asarray(logsig(x @ w_raw + b_raw))
        np.testing.assert_allclose(direct, predict(result.model, x), atol=1e-12)

    def test_identity_standardizer_is_a_fixed_point(self):
        model = ConfidenceModel(
            ("inlier_count",), np.array([2.0]), -1.0, identity_standardizer(1)
        )
        w_raw, b_raw = raw_space_parameters(model)
        assert w_raw.tolist() == [2.0]
        assert b_raw == -1.0


class TestSerialization:
    def make_trained(self):
        x, y = two_cluster_data()
        return train_features(x, y, (FEATURE_INLIER_COUNT,)).model

    def test_round_trip_preserves_model(self, tmp_path):
        model = self.make_trained()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model

    def test_round_trip_preserves_predictions_bitwise(self, tmp_path):
        model = self.make_trained()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        x = np.linspace(-4, 4, 33).reshape(-1, 1)
        np.testing.assert_array_equal(predict(loaded, x), predict(model, x))

    def test_file_is_stable_json(self, tmp_path):
        model = self.make_trained()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())  # parses as plain JSON

    def test_unsupported_version_rejected(self):
        doc = to_json_dict(self.make_trained())
        doc["format_version"] = 99
        with pytest.raises(SchemaError, match="format_version"):
            from_json_dict(doc)

    def test_missing_fields_rejected(self):
        doc = to_json_dict(self.make_trained())
        del doc["weights"]
        with pytest.raises(SchemaError):
            from_json_dict(doc)

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            from_json_dict(["not", "a", "model"])

    def test_malformed_values_rejected(self):
        doc = to_json_dict(self.make_trained())
        doc["bias"] = "very"
        with pytest.raises(SchemaError):
            from_json_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["weights", "bias", "means", "stds"])
    def test_non_finite_numbers_rejected(self, field, value):
        doc = to_json_dict(self.make_trained())
        if field == "bias":
            doc["bias"] = value
        elif field == "weights":
            doc["weights"][0] = value
        else:
            doc["standardizer"][field][0] = value
        with pytest.raises(SchemaError, match="finite") as info:
            from_json_dict(doc)
        assert info.value.field.endswith(field)

    @pytest.mark.parametrize(
        "params", [[1, 2], {"width": 3}, {"min_half_extent": 1.5}, {"neighborhood_fraction": 0}]
    )
    def test_corrupt_coverage_params_rejected_on_load(self, params):
        doc = to_json_dict(self.make_trained())
        doc["training_meta"]["coverage_params"] = params
        with pytest.raises(SchemaError):
            from_json_dict(doc)

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (["feature_set"], "inlier_count", "feature_set"),
            (["feature_set"], ["inlier_count", 1], "feature_set"),
            (["weights"], "2.5", "weights"),
            (["weights"], [True], "weights"),
            (["bias"], "0.5", "bias"),
            (["bias"], [0.5], "bias"),
            (["bias"], False, "bias"),
            (["standardizer", "means"], ["3"], "standardizer.means"),
            (["standardizer", "stds"], [True], "standardizer.stds"),
            (["training_meta"], [["n_train", 4]], "training_meta"),
            # the message names a coverage parameter
            (["training_meta", "coverage_params"], {"neighborhood_fraction": True}, None),
            (["training_meta", "coverage_params"], {"min_half_extent": True}, None),
        ],
    )
    def test_only_json_numbers_load_as_numbers(self, path, value, field):
        doc = to_json_dict(self.make_trained())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(SchemaError, match=field or next(iter(value))) as info:
            from_json_dict(doc)
        assert info.value.field == field

    def test_config_keys_of_older_models_still_load(self):
        # models written while the fit still had settings carry them here
        doc = to_json_dict(self.make_trained())
        doc["training_meta"]["config"] = {
            "max_epochs": 5000, "tol": 1e-8, "l2": 0.0,
            "seed": 0, "balance_classes": False, "init": "zero",
        }
        assert from_json_dict(doc).training_meta["config"]["init"] == "zero"

    def test_number_beyond_float_range_rejected(self):
        doc = to_json_dict(self.make_trained())
        doc["weights"][0] = 2**2000
        with pytest.raises(SchemaError):
            from_json_dict(doc)

    def test_non_finite_model_is_not_written(self, tmp_path):
        model = self.make_trained()
        broken = ConfidenceModel(
            model.feature_set, np.array([np.nan]), model.bias, model.standardizer
        )
        with pytest.raises(ValueError):
            save_model(broken, tmp_path / "model.json")
