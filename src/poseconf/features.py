"""Feature assembly and standardization for the confidence model.

The canonical feature order is (inlier_count, query_coverage, db_coverage)
with pv_score as an optional fourth input.  Inlier counts span a few
thousand while coverages live in [0, 1], so features are standardized
before training; the fitted parameters travel inside the model, which
keeps scoring self-contained and leaves the model family untouched (an
affine reparameterization, see `raw_space_parameters`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .coverage import CoverageParams, coverage_fraction

# Bound here but not called: the benchmark tracer (perfbench/trace.py) wraps
# the raster coverage functions through these attributes of this module.
from .coverage import coverage_map, coverage_score  # noqa: F401
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidConfig,
    InvariantViolation,
    MissingFeature,
)

if TYPE_CHECKING:
    from .dataset_io import PoseRecord

FEATURE_INLIER_COUNT = "inlier_count"
FEATURE_QUERY_COVERAGE = "query_coverage"
FEATURE_DB_COVERAGE = "db_coverage"
FEATURE_PV_SCORE = "pv_score"

KNOWN_FEATURES = (
    FEATURE_INLIER_COUNT,
    FEATURE_QUERY_COVERAGE,
    FEATURE_DB_COVERAGE,
    FEATURE_PV_SCORE,
)
DEFAULT_FEATURE_SET = (
    FEATURE_INLIER_COUNT,
    FEATURE_QUERY_COVERAGE,
    FEATURE_DB_COVERAGE,
)

# short names accepted on the command line
_ALIASES = {
    "inliers": FEATURE_INLIER_COUNT,
    "qcov": FEATURE_QUERY_COVERAGE,
    "dbcov": FEATURE_DB_COVERAGE,
    "pv": FEATURE_PV_SCORE,
}

STD_FLOOR = 1e-12


def parse_feature_set(spec: str | Sequence[str]) -> tuple[str, ...]:
    """Normalize a feature-set description; accepts CLI short names."""
    names = spec.split(",") if isinstance(spec, str) else list(spec)
    out: list[str] = []
    for raw in names:
        if not isinstance(raw, str):
            raise InvalidConfig(f"feature names must be strings, got {raw!r}")
        name = raw.strip()
        name = _ALIASES.get(name, name)
        if name not in KNOWN_FEATURES:
            raise InvalidConfig(
                f"unknown feature {raw.strip()!r}; known: {', '.join(KNOWN_FEATURES)}"
            )
        if name in out:
            raise InvalidConfig(f"duplicate feature {name!r}")
        out.append(name)
    if not out:
        raise InvalidConfig("feature set is empty")
    return tuple(out)


def assemble(
    record: "PoseRecord",
    feature_set: Sequence[str],
    params: CoverageParams = CoverageParams(),
) -> np.ndarray:
    """Extract the requested features from one record, in set order.

    Coverage values are computed with each image's own dimensions.
    Raises MissingFeature when pv_score is requested but absent.
    """
    feature_set = parse_feature_set(feature_set)
    values = np.empty(len(feature_set), dtype=np.float64)
    for i, name in enumerate(feature_set):
        if name == FEATURE_INLIER_COUNT:
            values[i] = float(len(record.query_inliers))
        elif name == FEATURE_QUERY_COVERAGE:
            values[i] = coverage_fraction(record.query_inliers, params)
        elif name == FEATURE_DB_COVERAGE:
            values[i] = coverage_fraction(record.db_inliers, params)
        else:  # pv_score
            if record.pv_score is None:
                raise MissingFeature(
                    f"record {record.query_id!r} (rank {record.candidate_rank}) "
                    "has no pv_score"
                )
            values[i] = float(record.pv_score)
    if not np.all(np.isfinite(values)):
        raise InvariantViolation("feature vector contains non-finite values")
    return values


def feature_matrix(
    records: Sequence["PoseRecord"],
    feature_set: Sequence[str],
    params: CoverageParams = CoverageParams(),
) -> np.ndarray:
    """Stack assemble() over records into an (n, k) matrix."""
    feature_set = parse_feature_set(feature_set)
    if not records:
        return np.zeros((0, len(feature_set)), dtype=np.float64)
    return np.stack([assemble(r, feature_set, params) for r in records])


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-feature centering and scaling fitted on training data only."""

    means: np.ndarray
    stds: np.ndarray  # floored at STD_FLOOR so constant features map to zero

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64).reshape(-1)
        stds = np.asarray(self.stds, dtype=np.float64).reshape(-1)
        if means.shape != stds.shape:
            raise DimensionMismatch(
                f"means length {means.shape[0]} != stds length {stds.shape[0]}"
            )
        if np.any(stds < STD_FLOOR):
            raise InvariantViolation(f"stds must be >= {STD_FLOOR}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)

    def __len__(self) -> int:
        return len(self.means)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Standardizer):
            return NotImplemented
        return np.array_equal(self.means, other.means) and np.array_equal(
            self.stds, other.stds
        )


def identity_standardizer(n_features: int) -> Standardizer:
    return Standardizer(np.zeros(n_features), np.ones(n_features))


def fit_standardizer(vectors: Iterable[np.ndarray] | np.ndarray) -> Standardizer:
    """Per-feature sample mean and population (divide-by-n) std deviation."""
    matrix = np.asarray(
        vectors if isinstance(vectors, np.ndarray) else list(vectors),
        dtype=np.float64,
    )
    if matrix.ndim != 2:
        raise DimensionMismatch(f"expected an (n, k) matrix, got shape {matrix.shape}")
    if matrix.shape[0] < 2:
        raise InsufficientData(
            f"need >= 2 vectors to fit a standardizer, got {matrix.shape[0]}"
        )
    means = matrix.mean(axis=0)
    stds = np.maximum(matrix.std(axis=0), STD_FLOOR)
    return Standardizer(means, stds)


def apply_standardizer(s: Standardizer, v: np.ndarray) -> np.ndarray:
    """(v - mean) / std per component; accepts a vector or an (n, k) matrix."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != len(s):
        raise DimensionMismatch(
            f"vector has {v.shape[-1]} components, standardizer expects {len(s)}"
        )
    return (v - s.means) / s.stds
