"""Tests for feature assembly and standardization."""

import numpy as np
import pytest

from conftest import make_record
from poseconf.coverage import CoverageParams, coverage_map, coverage_score
from poseconf.errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidConfig,
    MissingFeature,
)
from poseconf.features import (
    DEFAULT_FEATURE_SET,
    FEATURE_DB_COVERAGE,
    FEATURE_INLIER_COUNT,
    FEATURE_PV_SCORE,
    FEATURE_QUERY_COVERAGE,
    STD_FLOOR,
    Standardizer,
    apply_standardizer,
    assemble,
    feature_matrix,
    fit_standardizer,
    identity_standardizer,
    parse_feature_set,
)


class TestParseFeatureSet:
    def test_cli_short_names(self):
        assert parse_feature_set("inliers,qcov,dbcov") == DEFAULT_FEATURE_SET

    def test_canonical_names_pass_through(self):
        assert parse_feature_set("inlier_count,pv_score") == (
            FEATURE_INLIER_COUNT,
            FEATURE_PV_SCORE,
        )

    def test_accepts_sequences_and_whitespace(self):
        assert parse_feature_set([" qcov ", "inliers"]) == (
            FEATURE_QUERY_COVERAGE,
            FEATURE_INLIER_COUNT,
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidConfig, match="bogus"):
            parse_feature_set("inliers,bogus")

    def test_duplicates_rejected_across_aliases(self):
        with pytest.raises(InvalidConfig, match="duplicate"):
            parse_feature_set("inliers,inlier_count")

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_feature_set([])

    def test_non_string_name_rejected(self):
        with pytest.raises(InvalidConfig, match="strings"):
            parse_feature_set(["inliers", None])


class TestAssemble:
    def test_inlier_count_is_query_side(self):
        record = make_record(query_points=[(1, 1), (2, 2), (3, 3), (4, 4)],
                             db_points=[(1, 1), (2, 2), (3, 3), (4, 4)])
        x = assemble(record, (FEATURE_INLIER_COUNT,))
        assert x.tolist() == [4.0]

    def test_coverage_features_match_coverage_module(self):
        record = make_record()
        x = assemble(record, DEFAULT_FEATURE_SET)
        expected_q = coverage_score(coverage_map(record.query_inliers))
        expected_db = coverage_score(coverage_map(record.db_inliers))
        assert x[1] == expected_q
        assert x[2] == expected_db

    def test_order_follows_the_request(self):
        record = make_record()
        forward = assemble(record, (FEATURE_INLIER_COUNT, FEATURE_QUERY_COVERAGE))
        reverse = assemble(record, (FEATURE_QUERY_COVERAGE, FEATURE_INLIER_COUNT))
        assert forward[0] == reverse[1]
        assert forward[1] == reverse[0]

    def test_coverage_params_are_honored(self):
        record = make_record()
        wide = CoverageParams(neighborhood_fraction=0.9)
        x_default = assemble(record, (FEATURE_QUERY_COVERAGE,))
        x_wide = assemble(record, (FEATURE_QUERY_COVERAGE,), wide)
        assert x_wide[0] > x_default[0]

    def test_pv_score_passthrough(self):
        record = make_record(pv_score=0.62)
        assert assemble(record, (FEATURE_PV_SCORE,)).tolist() == [0.62]

    def test_missing_pv_score_raises(self):
        record = make_record(pv_score=None)
        with pytest.raises(MissingFeature, match="q0"):
            assemble(record, (FEATURE_PV_SCORE,))


class TestFeatureMatrix:
    def test_shape_and_row_agreement(self):
        records = [make_record(query_id=f"q{i}") for i in range(4)]
        matrix = feature_matrix(records, DEFAULT_FEATURE_SET)
        assert matrix.shape == (4, 3)
        np.testing.assert_array_equal(matrix[2], assemble(records[2], DEFAULT_FEATURE_SET))

    def test_empty_input_gives_empty_matrix(self):
        assert feature_matrix([], DEFAULT_FEATURE_SET).shape == (0, 3)


class TestStandardizer:
    def test_fit_uses_population_std(self):
        s = fit_standardizer(np.array([[1.0], [2.0], [3.0], [4.0]]))
        assert s.means[0] == 2.5
        assert s.stds[0] == pytest.approx(1.118033988749895, abs=0)

    def test_apply_known_value(self):
        s = fit_standardizer(np.array([[1.0], [2.0], [3.0], [4.0]]))
        z = apply_standardizer(s, np.array([4.0]))
        assert z[0] == pytest.approx(1.3416407864998738, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.normal(3.0, 2.0, size=(40, 3))
        s = fit_standardizer(x)
        z = apply_standardizer(s, x)
        np.testing.assert_allclose(z * s.stds + s.means, x, atol=1e-12)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_maps_to_zero(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        s = fit_standardizer(x)
        assert s.stds[0] == STD_FLOOR
        z = apply_standardizer(s, x)
        np.testing.assert_array_equal(z[:, 0], 0.0)

    def test_single_row_is_insufficient(self):
        with pytest.raises(InsufficientData):
            fit_standardizer(np.array([[1.0, 2.0]]))

    def test_requires_a_matrix(self):
        with pytest.raises(DimensionMismatch):
            fit_standardizer(np.array([1.0, 2.0, 3.0]))

    def test_apply_rejects_wrong_width(self):
        s = identity_standardizer(3)
        with pytest.raises(DimensionMismatch):
            apply_standardizer(s, np.array([1.0, 2.0]))

    def test_identity_is_a_no_op(self):
        s = identity_standardizer(2)
        v = np.array([[3.0, -1.0], [0.5, 2.0]])
        np.testing.assert_array_equal(apply_standardizer(s, v), v)

    def test_equality_and_length(self):
        a = Standardizer(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        b = Standardizer(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        c = Standardizer(np.array([1.0, 2.0]), np.array([3.0, 5.0]))
        assert a == b and a != c
        assert len(a) == 2

    def test_mismatched_parameter_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            Standardizer(np.zeros(2), np.ones(3))
