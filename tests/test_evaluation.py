"""Tests for PR curves, reranking, ablation tables, and threshold sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, pose_at
from poseconf.confidence_model import ConfidenceModel, score_records
from poseconf.errors import (
    EmptyCandidates,
    EmptyDataset,
    InvariantViolation,
    MissingGroundTruth,
    NoPositives,
)
from poseconf.evaluation import (
    PRCurve,
    accuracy_at,
    ablation,
    pr_curve_from_scores,
    select_best,
    select_max_inliers,
    select_per_query,
    sweep_scores,
)
from poseconf.features import DEFAULT_FEATURE_SET, feature_matrix, identity_standardizer
from poseconf.pose_metrics import ErrorThreshold


def oracle_pr(scores, labels):
    """Slow reference: enumerate every distinct score as a threshold.

    O(n^2) — each threshold rescans the whole list.  Deliberately written
    against the definition rather than the library's sort-and-group pass.
    """
    total_pos = sum(labels)
    assert total_pos > 0
    points = []
    for t in sorted(set(scores), reverse=True):
        kept = [lab for s, lab in zip(scores, labels) if s >= t]
        tp = sum(kept)
        points.append((tp / total_pos, tp / len(kept)))
    points.insert(0, (0.0, points[0][1]))
    area = sum(
        (r1 - r0) * (p0 + p1) / 2.0
        for (r0, p0), (r1, p1) in zip(points, points[1:])
    )
    return points, area


class TestPRCurveWorkedExamples:
    def test_perfect_ranking(self):
        curve = pr_curve_from_scores([0.9, 0.1], [1, 0])
        assert curve.points == ((0.0, 1.0), (1.0, 1.0), (1.0, 0.5))
        assert curve.auc == 1.0

    def test_inverted_ranking(self):
        curve = pr_curve_from_scores([0.1, 0.9], [1, 0])
        assert curve.points == ((0.0, 0.0), (0.0, 0.0), (1.0, 0.5))
        assert curve.auc == 0.25

    def test_alternating_ranking(self):
        curve = pr_curve_from_scores([4, 3, 2, 1], [1, 0, 1, 0])
        recalls = [r for r, _ in curve.points]
        precisions = [p for _, p in curve.points]
        assert recalls == [0.0, 0.5, 0.5, 1.0, 1.0]
        assert precisions == [1.0, 1.0, 0.5, 2 / 3, 0.5]
        assert curve.auc == pytest.approx(19 / 24, abs=1e-15)

    def test_tied_scores_form_one_step(self):
        curve = pr_curve_from_scores([0.5, 0.5, 0.2], [1, 0, 1])
        # anchor + two distinct score values, not three
        assert len(curve.points) == 3
        assert curve.points[1] == (0.5, 0.5)

    def test_all_tied_is_a_single_operating_point(self):
        curve = pr_curve_from_scores([1.0, 1.0, 1.0, 1.0], [1, 0, 1, 0])
        assert curve.points == ((0.0, 0.5), (1.0, 0.5))
        assert curve.auc == 0.5


class TestPRCurveAgainstOracle:
    def test_random_instances_with_heavy_ties(self):
        rng = np.random.default_rng(99)
        for _ in range(150):
            n = int(rng.integers(1, 31))
            scores = (rng.integers(0, 6, size=n) / 4.0).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            if sum(labels) == 0:
                labels[rng.integers(0, n)] = 1
            got = pr_curve_from_scores(scores, labels)
            want_points, want_area = oracle_pr(scores, labels)
            assert len(got.points) == len(want_points)
            np.testing.assert_allclose(got.points, want_points, atol=1e-12)
            assert got.auc == pytest.approx(want_area, abs=1e-12)

    def test_distinct_scores_against_oracle(self):
        rng = np.random.default_rng(5)
        scores = rng.permutation(20).tolist()
        labels = (rng.uniform(size=20) < 0.4).astype(int).tolist()
        labels[3] = 1
        got = pr_curve_from_scores(scores, labels)
        _, want_area = oracle_pr(scores, labels)
        assert got.auc == pytest.approx(want_area, abs=1e-12)

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(17)
        scores = rng.normal(size=40)
        labels = (rng.uniform(size=40) < 0.5).astype(int)
        labels[0] = 1
        base = pr_curve_from_scores(scores, labels)
        shifted = pr_curve_from_scores(2.0 * scores + 5.0, labels)
        cubed = pr_curve_from_scores(scores**3, labels)
        assert shifted.points == base.points
        assert shifted.auc == base.auc
        assert cubed.points == base.points


class TestPRCurveValidation:
    def test_no_positives_rejected(self):
        with pytest.raises(NoPositives):
            pr_curve_from_scores([0.5, 0.2], [0, 0])
        with pytest.raises(NoPositives):
            pr_curve_from_scores([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvariantViolation):
            pr_curve_from_scores([0.5], [1, 0])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(InvariantViolation):
            pr_curve_from_scores([np.nan, 0.5], [1, 0])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(InvariantViolation):
            pr_curve_from_scores([0.5, 0.6], [1, 2])

    def test_curve_invariants_enforced(self):
        with pytest.raises(InvariantViolation):
            PRCurve(((0.0, 1.5),))  # precision above 1
        with pytest.raises(InvariantViolation):
            PRCurve(((0.5, 1.0), (0.2, 1.0)))  # recall goes backwards

    def test_area_comes_from_the_points(self):
        assert PRCurve(((0.0, 1.0), (1.0, 1.0))).auc == 1.0
        assert PRCurve(((0.0, 1.0), (0.5, 1.0), (1.0, 0.5))).auc == 0.875
        assert PRCurve(((0.0, 0.5),)).auc == 0.0



@settings(max_examples=80, deadline=None)
@given(
    labels=st.lists(st.integers(0, 1), min_size=1, max_size=25).filter(
        lambda ls: any(ls)
    ),
    seed=st.integers(0, 2**31),
)
def test_curve_properties_hold_on_random_inputs(labels, seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 5, size=len(labels)).astype(float)
    curve = pr_curve_from_scores(scores, labels)
    assert 0.0 <= curve.auc <= 1.0
    recalls = [r for r, _ in curve.points]
    assert recalls == sorted(recalls)
    assert recalls[-1] == 1.0  # the last group keeps everything


def candidate_set():
    spread = [(2, 2), (28, 3), (3, 20), (29, 21), (15, 12)]
    tight = [(14, 11), (15, 11), (14, 12), (15, 12), (16, 12)]
    low = make_record("q7", 1, tight, tight)
    broad = make_record("q7", 2, spread, spread)
    return [low, broad]


class TestSelection:
    def test_select_best_picks_highest_score(self):
        cands = candidate_set()
        assert select_best(cands, [0.2, 0.9]) == 1
        assert select_best(cands, [0.9, 0.2]) == 0

    def test_score_ties_fall_back_to_inlier_count(self):
        a = make_record("q1", 1, [(1, 1)], [(1, 1)], num_correspondences=5)
        b = make_record("q1", 2, [(1, 1), (2, 2)], [(1, 1), (2, 2)])
        assert select_best([a, b], [0.5, 0.5]) == 1

    def test_full_ties_fall_back_to_retrieval_rank(self):
        a = make_record("q1", 3)
        b = make_record("q1", 1)
        c = make_record("q1", 2)
        assert select_best([a, b, c], [0.5, 0.5, 0.5]) == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(EmptyCandidates):
            select_best([], [])
        with pytest.raises(EmptyCandidates):
            select_max_inliers([])

    def test_mixed_queries_rejected(self):
        cands = [make_record("qa"), make_record("qb")]
        with pytest.raises(InvariantViolation):
            select_best(cands, [0.1, 0.2])

    def test_score_length_mismatch_rejected(self):
        with pytest.raises(InvariantViolation):
            select_best(candidate_set(), [0.5])

    def test_select_max_inliers(self):
        a = make_record("q1", 1, [(1, 1)], [(2, 2)], num_correspondences=9)
        b = make_record("q1", 2, [(1, 1), (3, 3), (5, 5)], [(2, 2), (4, 4), (6, 6)])
        assert select_max_inliers([a, b]) == 1

    def test_select_per_query_picks_within_each_query(self):
        # queries interleave; ties inside q2 fall back to retrieval rank
        records = [
            make_record("q1", 1), make_record("q2", 2), make_record("q1", 2),
            make_record("q2", 1), make_record("q3", 1),
        ]
        scores = [0.1, 0.5, 0.7, 0.5, 0.2]
        assert select_per_query(records, scores) == [2, 3, 4]
        assert select_per_query([], []) == []
        with pytest.raises(InvariantViolation):
            select_per_query(records, scores[:-1])

    def test_rerank_prefers_broad_coverage_at_equal_count(self):
        # positive coverage weights and equal inlier counts: the spread
        # candidate must win over the clustered one
        cands = candidate_set()
        model = ConfidenceModel(
            ("query_coverage", "db_coverage"),
            np.array([5.0, 5.0]),
            0.0,
            identity_standardizer(2),
        )
        assert select_best(cands, score_records(model, cands)) == 1


class TestAccuracyAt:
    def make_labeled(self, errors_m):
        return [
            make_record(
                f"q{i}",
                1,
                estimated_pose=pose_at((err, 0.0, 0.0)),
                ground_truth_pose=pose_at((0.0, 0.0, 0.0)),
            )
            for i, err in enumerate(errors_m)
        ]

    def test_counts_strictly_correct_fraction(self):
        records = self.make_labeled([0.0] * 6 + [5.0] * 4)
        assert accuracy_at(records, ErrorThreshold(1.0, 10.0)) == pytest.approx(0.6)

    def test_boundary_error_is_incorrect(self):
        records = self.make_labeled([1.0])
        assert accuracy_at(records, ErrorThreshold(1.0, 10.0)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            accuracy_at([], ErrorThreshold(1.0, 10.0))

    def test_missing_ground_truth_rejected(self):
        records = [make_record("q0")]
        with pytest.raises(MissingGroundTruth):
            accuracy_at(records, ErrorThreshold(1.0, 10.0))


def signal_records(n, seed):
    """Records where high inlier count and broad coverage mean positive."""
    rng = np.random.default_rng(seed)
    records, labels = [], []
    for i in range(n):
        positive = i % 2 == 0
        count = int(rng.integers(40, 70)) if positive else int(rng.integers(5, 20))
        if positive:
            pts = np.column_stack(
                [rng.uniform(0, 32, size=count), rng.uniform(0, 24, size=count)]
            )
        else:
            pts = np.column_stack(
                [rng.uniform(10, 14, size=count), rng.uniform(10, 14, size=count)]
            )
        records.append(make_record(f"q{i}", 1, pts, pts))
        labels.append(int(positive))
    return records, labels


def held_out_features(records):
    """The test side of `ablation`: every default feature, in that order."""
    return feature_matrix(records, DEFAULT_FEATURE_SET), DEFAULT_FEATURE_SET


class TestAblation:
    def test_rows_follow_request_and_append_baseline(self):
        train_recs, train_labels = signal_records(24, 1)
        test_recs, test_labels = signal_records(12, 2)
        rows = ablation(
            train_recs,
            train_labels,
            *held_out_features(test_recs),
            test_labels,
            [("inlier_count", "query_coverage"), ("query_coverage",)],
        )
        assert [subset for subset, _ in rows] == [
            ("inlier_count", "query_coverage"),
            ("query_coverage",),
            ("inlier_count",),
        ]
        for _, value in rows:
            assert 0.0 <= value <= 1.0

    def test_duplicate_subsets_give_identical_rows(self):
        train_recs, train_labels = signal_records(24, 3)
        test_recs, test_labels = signal_records(12, 4)
        rows = ablation(
            train_recs,
            train_labels,
            *held_out_features(test_recs),
            test_labels,
            [("inlier_count",), ("inlier_count",)],
        )
        assert len(rows) == 2  # baseline already present, nothing appended
        assert rows[0][1] == rows[1][1]

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_test_labels_give_degenerate_rows(self, label):
        train_recs, train_labels = signal_records(24, 7)
        test_recs, _ = signal_records(12, 8)
        x_test, columns = held_out_features(test_recs)
        rows = ablation(
            train_recs, train_labels, x_test, columns, [label] * len(test_recs), [("inlier_count",)]
        )
        assert rows == [(("inlier_count",), None)]
        with pytest.raises(InvariantViolation):
            ablation(train_recs, train_labels, x_test, columns, [label], [("inlier_count",)])

    def test_cli_aliases_accepted(self):
        train_recs, train_labels = signal_records(24, 5)
        test_recs, test_labels = signal_records(12, 6)
        rows = ablation(
            train_recs, train_labels, *held_out_features(test_recs), test_labels, [("inliers", "qcov")]
        )
        assert rows[0][0] == ("inlier_count", "query_coverage")

    def test_columns_are_found_by_name(self):
        train_recs, train_labels = signal_records(24, 9)
        test_recs, test_labels = signal_records(12, 10)
        x_test, columns = held_out_features(test_recs)
        subsets = [("query_coverage", "inlier_count"), ("db_coverage",)]
        expected = ablation(train_recs, train_labels, x_test, columns, test_labels, subsets)
        reversed_x = x_test[:, ::-1]
        assert ablation(
            train_recs, train_labels, reversed_x, columns[::-1], test_labels, subsets
        ) == expected
        with pytest.raises(InvariantViolation, match="lack"):
            ablation(train_recs, train_labels, x_test[:, 1:], columns[1:], test_labels, subsets)


class TestThresholdSweep:
    def model_scores(self, records):
        model = ConfidenceModel(
            ("inlier_count",), np.array([0.01]), 0.0, identity_standardizer(1)
        )
        return score_records(model, records)

    def make_records(self):
        # translation errors 0, 0, 1.5, 3.0 with matching inlier counts
        errors = [0.0, 0.0, 1.5, 3.0]
        counts = [40, 35, 10, 5]
        records = []
        for i, (err, count) in enumerate(zip(errors, counts)):
            pts = [(j % 30, j // 30) for j in range(count)]
            records.append(
                make_record(
                    f"q{i}",
                    1,
                    pts,
                    pts,
                    estimated_pose=pose_at((err, 0.0, 0.0)),
                    ground_truth_pose=pose_at((0.0, 0.0, 0.0)),
                )
            )
        return records

    def test_rows_relabel_per_threshold(self):
        records = self.make_records()
        thresholds = [
            ErrorThreshold(0.5, 10.0),
            ErrorThreshold(2.0, 10.0),
            ErrorThreshold(5.0, 10.0),
        ]
        rows = sweep_scores(records, self.model_scores(records), thresholds)
        assert [row.n_positive for row in rows] == [2, 3, 4]
        assert rows[0].n_records == 4
        assert not rows[0].degenerate and not rows[1].degenerate
        # every record correct at 5 m: single class, no curve to draw
        assert rows[2].degenerate
        assert rows[2].model_auc is None and rows[2].inliers_auc is None

    def test_identical_labelings_give_identical_rows(self):
        records = self.make_records()
        rows = sweep_scores(
            records,
            self.model_scores(records),
            [ErrorThreshold(0.25, 10.0), ErrorThreshold(0.5, 10.0)],
        )
        assert rows[0].model_auc == rows[1].model_auc
        assert rows[0].inliers_auc == rows[1].inliers_auc

    def test_reversed_scores_lower_the_model_auc(self):
        records = self.make_records()
        scores = self.model_scores(records)
        # reversed scores rank the two correct records last
        rows = sweep_scores(records, [-s for s in scores], [ErrorThreshold(0.5, 10.0)])
        assert rows[0].model_auc < 1.0
        assert rows[0].inliers_auc == 1.0

    def test_perfect_ranking_scores_unit_auc(self):
        records = self.make_records()
        rows = sweep_scores(records, self.model_scores(records), [ErrorThreshold(1.0, 10.0)])
        # counts rank the two correct records first: AUC 1 for both scorers
        assert rows[0].model_auc == 1.0
        assert rows[0].inliers_auc == 1.0
