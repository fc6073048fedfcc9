"""Logistic confidence model over pose-candidate features.

The confidence of a pose candidate is sigmoid(bias + w . x) where x is the
standardized feature vector.  Training minimizes the negative log
likelihood by damped Newton steps (iteratively reweighted least squares) —
the problem is convex with at most a handful of parameters, so a
from-scratch optimizer keeps the package dependency-free while staying
exactly reproducible.  The fit has no settings.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ._frozen import Frozen
from .coverage import CoverageParams
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidConfig,
    InvariantViolation,
    SchemaError,
    SingleClassData,
)
from .features import (
    DEFAULT_FEATURE_SET,
    Standardizer,
    apply_standardizer,
    feature_matrix,
    fit_standardizer,
    parse_feature_set,
)
from .fileio import atomic_open

# Bound but not called: the benchmark tracer (perfbench/trace.py) wraps it here.
from .features import assemble  # noqa: F401

if TYPE_CHECKING:
    from .dataset_io import PoseRecord

MODEL_FORMAT_VERSION = 1

_MAX_ITERATIONS = 5000
_LOSS_TOL = 1e-8
_MAX_HALVINGS = 60
_GRAD_INF_STOP = 1e-10


def logsig(m):
    """Numerically stable sigmoid; returns a float for scalar input.

    Both np.where branches are evaluated, so each one clips its exp
    argument to the sign range it owns — neither can overflow.
    """
    m = np.asarray(m, dtype=np.float64)
    exp_neg = np.exp(-np.clip(m, 0.0, None))  # exp(-m), valid where m >= 0
    exp_pos = np.exp(np.clip(m, None, 0.0))  # exp(m), valid where m < 0
    out = np.where(m >= 0.0, 1.0 / (1.0 + exp_neg), exp_pos / (1.0 + exp_pos))
    if out.ndim == 0:
        return float(out)
    return out


def _softplus(m: np.ndarray) -> np.ndarray:
    # log(1 + exp(m)) without overflow
    return np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))


class TrainData(Frozen):
    """Standardized design matrix, (n, k), plus binary labels, (n,) in {0.0, 1.0}."""

    __slots__ = _fields = ("z", "y")
    __eq__ = object.__eq__  # compared by identity
    __hash__ = object.__hash__

    def __init__(self, z: np.ndarray, y: np.ndarray):
        z = np.asarray(z, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if z.ndim != 2:
            raise DimensionMismatch(f"z must be (n, k), got shape {z.shape}")
        if z.shape[0] != y.shape[0]:
            raise DimensionMismatch(f"z has {z.shape[0]} rows but y has {y.shape[0]}")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise InvalidConfig("labels must be 0 or 1")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.z.shape[0]


class ConfidenceModel(Frozen):
    """Logistic weights in standardized feature space, the standardizer, and
    what the fit recorded (`training_meta`, a new dict when not given)."""

    __slots__ = _fields = ("feature_set", "weights", "bias", "standardizer", "training_meta")

    def __init__(self, feature_set: tuple[str, ...], weights: np.ndarray, bias: float,
                 standardizer: Standardizer, training_meta: dict | None = None):
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        feature_set = tuple(feature_set)
        if weights.shape[0] != len(feature_set):
            raise DimensionMismatch(
                f"{len(feature_set)} features but {weights.shape[0]} weights"
            )
        if len(standardizer) != len(feature_set):
            raise DimensionMismatch(
                f"{len(feature_set)} features but standardizer expects "
                f"{len(standardizer)}"
            )
        object.__setattr__(self, "feature_set", feature_set)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", float(bias))
        object.__setattr__(self, "standardizer", standardizer)
        object.__setattr__(self, "training_meta", {} if training_meta is None else training_meta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfidenceModel):
            return NotImplemented
        return (
            self.feature_set == other.feature_set
            and np.array_equal(self.weights, other.weights)
            and self.bias == other.bias
            and self.standardizer == other.standardizer
            and self.training_meta == other.training_meta
        )

    def coverage_params(self) -> CoverageParams:
        meta = self.training_meta.get("coverage_params", {})
        return CoverageParams(**meta) if meta else CoverageParams()


def predict(model: ConfidenceModel, features) -> np.ndarray | float:
    """Confidence in (0, 1) for raw (unstandardized) feature vector(s)."""
    # finite model numbers can still overflow on these features
    with np.errstate(over="ignore", invalid="ignore"):
        margin = apply_standardizer(model.standardizer, features) @ model.weights + model.bias
    if not np.all(np.isfinite(margin)):
        raise InvariantViolation("model score overflows on these features")
    return logsig(margin)


def score_records(model: ConfidenceModel, records: Sequence["PoseRecord"]) -> np.ndarray:
    """Confidences, shape (n,), for records, using the coverage settings the
    model was trained with.  `score` and `rerank` score through this
    function; `eval` builds the same matrix itself to reuse it for
    `--ablate`."""
    return predict(model, feature_matrix(records, model.feature_set, model.coverage_params()))


def predict_record(model: ConfidenceModel, record: "PoseRecord") -> float:
    """Confidence for one record (see score_records)."""
    return float(score_records(model, [record])[0])


def nll_loss(weights: np.ndarray, bias: float, data: TrainData) -> float:
    """Mean negative log likelihood.

    Uses the softplus identity -log sigmoid(m) = softplus(-m), which stays
    finite for any margin.
    """
    m = data.z @ weights + bias
    per_sample = data.y * _softplus(-m) + (1.0 - data.y) * _softplus(m)
    return float(np.mean(per_sample))


def gradient(weights: np.ndarray, bias: float, data: TrainData) -> tuple[np.ndarray, float]:
    """Exact gradient of nll_loss with respect to (weights, bias)."""
    m = data.z @ weights + bias
    residual = np.asarray(logsig(m)) - data.y
    grad_w = data.z.T @ residual / len(data)
    grad_b = float(np.mean(residual))
    return grad_w, grad_b


def hessian(weights: np.ndarray, bias: float, data: TrainData) -> np.ndarray:
    """Exact (k+1, k+1) Hessian of nll_loss over (weights, bias), bias last."""
    m = data.z @ weights + bias
    p = np.asarray(logsig(m))
    z1 = np.column_stack([data.z, np.ones(len(data))])
    return (z1.T * (p * (1.0 - p))) @ z1 / len(data)


def prepare_train_data(
    features: np.ndarray, labels: Sequence[bool] | np.ndarray
) -> tuple[TrainData, Standardizer]:
    """Standardize a raw (n, k) feature matrix and attach its labels; also
    returns the fitted standardizer.  Single-class labels raise SingleClassData."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"features must be (n, k), got shape {x.shape}")
    if x.shape[0] == 0:
        raise EmptyDataset("no training records")
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"{x.shape[0]} feature rows but {y.shape[0]} labels")
    n_pos = int(np.sum(y == 1.0))
    if n_pos == 0 or n_pos == len(y):
        raise SingleClassData(
            f"training labels are all {'positive' if n_pos else 'negative'}"
        )
    standardizer = fit_standardizer(x)
    return TrainData(apply_standardizer(standardizer, x), y), standardizer


class TrainResult(Frozen):
    """A fitted model and how its fit went; `loss_history` holds the loss
    before the first and after each iteration."""

    __slots__ = _fields = ("model", "final_loss", "epochs_run", "converged", "loss_history")

    def __init__(self, model: ConfidenceModel, final_loss: float, epochs_run: int,
                 converged: bool, loss_history: tuple[float, ...]):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "final_loss", final_loss)
        object.__setattr__(self, "epochs_run", epochs_run)
        object.__setattr__(self, "converged", converged)
        object.__setattr__(self, "loss_history", loss_history)


def train_features(
    features: np.ndarray,
    labels: Sequence[bool] | np.ndarray,
    feature_set: Sequence[str],
    params: CoverageParams = CoverageParams(),
) -> TrainResult:
    """Fit the logistic model on an already-assembled raw feature matrix.

    Deterministic for a given (features, labels, feature_set).  The fit
    starts from zero and each iteration takes a Newton step (the gradient
    direction if that step does not descend), halved until the loss does
    not increase (backtracking), so `loss_history` is non-increasing.  It
    stops once the gradient vanishes, a step improves the loss by less than
    `_LOSS_TOL`, or after `_MAX_ITERATIONS` iterations (not converged); the
    package's datasets take a few tens at most.

    `params` is recorded in the model metadata as the coverage settings the
    matrix was built with, so scoring reproduces the same features.
    """
    feature_set = parse_feature_set(feature_set)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != len(feature_set):
        raise DimensionMismatch(
            f"feature matrix shape {features.shape} does not match "
            f"{len(feature_set)} features"
        )
    data, standardizer = prepare_train_data(features, labels)

    k = len(feature_set)
    w, b = np.zeros(k), 0.0

    loss = nll_loss(w, b, data)
    history = [loss]
    epochs_run = 0
    converged = False
    for _ in range(_MAX_ITERATIONS):
        grad_w, grad_b = gradient(w, b, data)
        grad = np.append(grad_w, grad_b)
        if np.max(np.abs(grad)) < _GRAD_INF_STOP:
            converged = True
            break
        # a constant feature standardizes to a zero column and makes the
        # Hessian singular; the minimum-norm step leaves its weight alone
        step = -np.linalg.lstsq(hessian(w, b, data), grad, rcond=None)[0]
        if not grad @ step < 0.0:  # not a descent direction
            step = -grad
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            w_new = w + scale * step[:k]
            b_new = b + scale * float(step[k])
            loss_new = nll_loss(w_new, b_new, data)
            if loss_new <= loss:
                break
            scale *= 0.5
        else:
            converged = True  # no productive step exists at float precision
            break
        epochs_run += 1
        improvement = loss - loss_new
        w, b, loss = w_new, b_new, loss_new
        history.append(loss)
        if improvement < _LOSS_TOL:
            converged = True
            break

    meta = {
        "n_train": len(data),
        "n_positive": int(np.sum(data.y == 1.0)),
        "epochs_run": epochs_run,
        "converged": converged,
        "final_loss": loss,
        "coverage_params": {
            "neighborhood_fraction": params.neighborhood_fraction,
            "min_half_extent": params.min_half_extent,
        },
    }
    model = ConfidenceModel(feature_set, w, b, standardizer, meta)
    return TrainResult(
        model=model,
        final_loss=loss,
        epochs_run=epochs_run,
        converged=converged,
        loss_history=tuple(history),
    )


def train(
    records: Sequence["PoseRecord"],
    labels: Sequence[bool] | np.ndarray,
    feature_set: Sequence[str] | None = None,
    params: CoverageParams = CoverageParams(),
) -> TrainResult:
    """Assemble features from records, then fit (see train_features)."""
    feature_set = parse_feature_set(feature_set or DEFAULT_FEATURE_SET)
    if len(records) == 0:
        raise EmptyDataset("no training records")
    x = feature_matrix(records, feature_set, params)
    return train_features(x, labels, feature_set, params)


def raw_space_parameters(model: ConfidenceModel) -> tuple[np.ndarray, float]:
    """Equivalent (weights, bias) acting on unstandardized features.

    sigmoid(b + w.(x-mu)/sd) == sigmoid(b' + w'.x) with w' = w/sd and
    b' = b - sum(w*mu/sd).
    """
    s = model.standardizer
    w_raw = model.weights / s.stds
    b_raw = model.bias - float(np.sum(model.weights * s.means / s.stds))
    return w_raw, b_raw


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(model: ConfidenceModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_set": list(model.feature_set),
        "weights": [float(v) for v in model.weights],
        "bias": model.bias,
        "standardizer": {
            "means": [float(v) for v in model.standardizer.means],
            "stds": [float(v) for v in model.standardizer.stds],
        },
        "training_meta": model.training_meta,
    }


def _model_numbers(value, field: str) -> np.ndarray:
    """A list of JSON numbers, ints or floats but not booleans, as float64."""
    if not (isinstance(value, list) and set(map(type, value)) <= {int, float}):
        raise SchemaError(field=field, message="expected numbers (ints or floats)")
    numbers = np.asarray(value, dtype=np.float64)  # OverflowError past the float range
    # json reads NaN and Infinity, with which a model would score records as NaN
    if not np.all(np.isfinite(numbers)):
        raise SchemaError(field=field, message="model numbers must be finite")
    return numbers


def from_json_dict(obj: Mapping) -> ConfidenceModel:
    if not isinstance(obj, Mapping):
        raise SchemaError(message="model document must be a JSON object")
    version = obj.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise SchemaError(
            field="format_version",
            message=f"unsupported model format_version {version!r}",
        )
    try:
        feature_set = obj["feature_set"]
        if not (isinstance(feature_set, list) and set(map(type, feature_set)) <= {str}):
            raise SchemaError(field="feature_set", message="expected a list of feature names")
        weights = _model_numbers(obj["weights"], "weights")
        (bias,) = _model_numbers([obj["bias"]], "bias")
        means = _model_numbers(obj["standardizer"]["means"], "standardizer.means")
        stds = _model_numbers(obj["standardizer"]["stds"], "standardizer.stds")
        training_meta = obj.get("training_meta", {})
        if not isinstance(training_meta, dict):
            raise SchemaError(field="training_meta", message="expected an object")
        model = ConfidenceModel(
            feature_set=parse_feature_set(feature_set),
            weights=weights,
            bias=bias,
            standardizer=Standardizer(means, stds),
            training_meta=dict(training_meta),
        )
        model.coverage_params()  # a corrupt entry fails here, not when scoring
    except KeyError as exc:
        raise SchemaError(field=str(exc), message=f"model document missing {exc}") from exc
    except (TypeError, ValueError, OverflowError, InvalidConfig) as exc:
        raise SchemaError(message=f"malformed model document: {exc}") from exc
    return model


def save_model(model: ConfidenceModel, path: str | os.PathLike) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(model), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_model(path: str | os.PathLike) -> ConfidenceModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, a long int, too deep
            raise SchemaError(message=f"model file is not valid JSON: {exc}") from None
    return from_json_dict(obj)
