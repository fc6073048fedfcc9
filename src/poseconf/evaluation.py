"""Precision-recall analysis, candidate reranking, and ablation tables.

Scores are treated purely as a ranking: tied scores form a single
operating point (all-or-nothing), which keeps the frequently-tied
inlier-count baseline deterministic.  AUC uses the trapezoidal rule over
the resulting points; the same rule is shared by the brute-force oracle
in the test suite, so fast path and oracle are comparable exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._frozen import Frozen
from .confidence_model import predict, train_features
from .coverage import CoverageParams
from .dataset_io import PoseRecord, label_records
from .errors import EmptyCandidates, EmptyDataset, InvariantViolation, NoPositives
from .features import FEATURE_INLIER_COUNT, feature_matrix, parse_feature_set
from .pose_metrics import ErrorThreshold

_AUC_CONSISTENCY_TOL = 1e-9


class PRCurve(Frozen):
    """Points (recall, precision) ordered by recall, plus their trapezoid area."""

    __slots__ = _fields = ("points", "auc")

    def __init__(self, points: tuple[tuple[float, float], ...], auc: float):
        points = tuple((float(r), float(p)) for r, p in points)
        if not points:
            raise InvariantViolation("a curve needs at least one point")
        for r, p in points:
            if not (0.0 <= r <= 1.0 and 0.0 <= p <= 1.0):
                raise InvariantViolation(f"point ({r}, {p}) outside the unit square")
        recalls = [r for r, _ in points]
        if any(b < a for a, b in zip(recalls, recalls[1:])):
            raise InvariantViolation("recall must be non-decreasing along the curve")
        if not (0.0 <= auc <= 1.0):
            raise InvariantViolation(f"auc must lie in [0, 1], got {auc}")
        if len(points) >= 2 and abs(auc - _trapezoid(points)) > _AUC_CONSISTENCY_TOL:
            raise InvariantViolation("stored auc does not match the curve points")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "auc", float(auc))


def _trapezoid(points: Sequence[tuple[float, float]]) -> float:
    total = 0.0
    for (r0, p0), (r1, p1) in zip(points, points[1:]):
        total += (r1 - r0) * (p0 + p1) / 2.0
    return total


def pr_curve_from_scores(scores, labels) -> PRCurve:
    """PR curve from parallel score/label arrays.

    Descending score order; each distinct score value is one threshold
    step; the (0, precision-of-first-group) anchor is prepended so the
    curve always starts at zero recall.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if scores.shape != labels.shape:
        raise InvariantViolation(
            f"{scores.shape[0]} scores but {labels.shape[0]} labels"
        )
    if not np.all(np.isfinite(scores)):
        raise InvariantViolation("scores must be finite")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InvariantViolation("labels must be 0 or 1")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise NoPositives("precision-recall needs at least one positive label")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # inclusive end index of each tied-score group
    ends = np.append(np.nonzero(np.diff(sorted_scores))[0], len(sorted_scores) - 1)
    true_pos = np.cumsum(sorted_labels)[ends]
    predicted_pos = ends + 1
    recall = true_pos / n_pos
    precision = true_pos / predicted_pos
    points = [(0.0, float(precision[0]))]
    points.extend((float(r), float(p)) for r, p in zip(recall, precision))
    return PRCurve(tuple(points), _trapezoid(points))


# ---------------------------------------------------------------------------
# selection / reranking


def _same_query(candidates: Sequence[PoseRecord]) -> None:
    if not candidates:
        raise EmptyCandidates("no candidates to select from")
    ids = {c.query_id for c in candidates}
    if len(ids) > 1:
        raise InvariantViolation(f"candidates span multiple queries: {sorted(ids)}")


def select_best(candidates: Sequence[PoseRecord], scores: Sequence[float]) -> int:
    """Index of the highest-scoring candidate.

    Ties fall back to the higher inlier count, then to the lower (better)
    retrieval rank, so selection is deterministic.
    """
    _same_query(candidates)
    if len(scores) != len(candidates):
        raise InvariantViolation(
            f"{len(candidates)} candidates but {len(scores)} scores"
        )
    return max(
        range(len(candidates)),
        key=lambda i: (
            scores[i],
            candidates[i].inlier_count,
            -candidates[i].candidate_rank,
        ),
    )


def select_per_query(records: Sequence[PoseRecord], scores: Sequence[float]) -> list[int]:
    """Index into `records` of each query's best-scoring candidate.

    Queries come in first-appearance order; ties break as in select_best.
    """
    if len(scores) != len(records):
        raise InvariantViolation(f"{len(records)} records but {len(scores)} scores")
    groups: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        groups.setdefault(record.query_id, []).append(i)
    return [
        rows[select_best([records[i] for i in rows], [scores[i] for i in rows])]
        for rows in groups.values()
    ]


def select_max_inliers(candidates: Sequence[PoseRecord]) -> int:
    """Baseline selection: most inliers wins, lower rank breaks ties."""
    return select_best(candidates, [float(c.inlier_count) for c in candidates])


def accuracy_at(records: Sequence[PoseRecord], threshold: ErrorThreshold) -> float:
    """Fraction of selected candidates whose pose is correct at the threshold."""
    if not records:
        raise EmptyDataset("accuracy over an empty selection is undefined")
    return float(label_records(records, threshold).mean())


# ---------------------------------------------------------------------------
# experiment tables


def ablation(
    train_records: Sequence[PoseRecord],
    train_labels,
    x_test,
    test_columns: Sequence[str],
    test_labels,
    feature_sets: Sequence[Sequence[str]],
    params: CoverageParams = CoverageParams(),
) -> list[tuple[tuple[str, ...], float | None]]:
    """Test AUC per feature subset, each trained on the same split.

    `x_test` is the test feature matrix, one column per name in
    `test_columns`, which must cover every requested feature and the
    inlier count; the training records are assembled once for the same
    columns and sliced per row.  The inliers-only baseline row is appended
    when the request left it out, so the table always anchors against
    raw-count ranking.  A single-class test labeling gives every row an
    absent AUC, as in `sweep_scores`, and fits nothing.
    """
    subsets = [parse_feature_set(s) for s in feature_sets]
    if (FEATURE_INLIER_COUNT,) not in subsets:
        subsets.append((FEATURE_INLIER_COUNT,))
    columns = parse_feature_set(test_columns)
    column = {name: i for i, name in enumerate(columns)}
    requested = {name for subset in subsets for name in subset}
    if not requested <= column.keys():
        raise InvariantViolation(f"test features {columns} lack one of {sorted(requested)}")
    x_test = np.asarray(x_test, dtype=np.float64)
    test_labels = np.asarray(test_labels, dtype=np.float64).reshape(-1)
    if x_test.shape != (len(test_labels), len(columns)):
        raise InvariantViolation(
            f"test features of shape {x_test.shape} for {len(test_labels)} labels "
            f"and {len(columns)} columns"
        )
    n_pos = int(test_labels.sum())
    if n_pos == 0 or n_pos == len(test_labels):
        return [(subset, None) for subset in subsets]
    x_train = feature_matrix(train_records, columns, params)

    rows = []
    for subset in subsets:
        idx = [column[name] for name in subset]
        result = train_features(x_train[:, idx], train_labels, subset, params=params)
        scores = predict(result.model, x_test[:, idx])
        rows.append((subset, pr_curve_from_scores(scores, test_labels).auc))
    return rows


class SweepRow(Frozen):
    """One relabeling of the evaluation set: both AUCs, or a degenerate marker."""

    __slots__ = _fields = ("threshold", "n_records", "n_positive", "model_auc", "inliers_auc")

    def __init__(self, threshold: ErrorThreshold, n_records: int, n_positive: int,
                 model_auc: float | None, inliers_auc: float | None):
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "n_records", n_records)
        object.__setattr__(self, "n_positive", n_positive)
        object.__setattr__(self, "model_auc", model_auc)
        object.__setattr__(self, "inliers_auc", inliers_auc)

    @property
    def degenerate(self) -> bool:
        return self.model_auc is None


def sweep_scores(
    records: Sequence[PoseRecord],
    scores,
    thresholds: Sequence[ErrorThreshold],
) -> list[SweepRow]:
    """Relabel the records at each threshold and compare score vs count AUC.

    Only the labels change between rows.  Single-class labelings (nothing
    correct, or everything correct) give a degenerate row with both AUCs
    absent.
    """
    counts = np.asarray([float(r.inlier_count) for r in records])
    rows = []
    for threshold in thresholds:
        labels = label_records(records, threshold)
        n_pos = int(labels.sum())
        if n_pos == 0 or n_pos == len(labels):
            rows.append(SweepRow(threshold, len(labels), n_pos, None, None))
            continue
        rows.append(
            SweepRow(
                threshold,
                len(labels),
                n_pos,
                pr_curve_from_scores(scores, labels).auc,
                pr_curve_from_scores(counts, labels).auc,
            )
        )
    return rows
