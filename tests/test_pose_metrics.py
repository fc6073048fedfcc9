"""Tests for pose construction, error metrics, and correctness labelling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pose_at, random_rotation, rotation_about
from poseconf.errors import InvariantViolation
from poseconf.pose_metrics import (
    ErrorThreshold,
    Pose,
    PoseError,
    is_correct,
    pose_error,
    refused_poses,
    rotation_error,
    translation_error,
)


class TestPoseValidation:
    def test_rejects_scaled_rotation(self):
        with pytest.raises(InvariantViolation):
            Pose(1.1 * np.eye(3), np.zeros(3))

    def test_rejects_reflection(self):
        # orthonormal but det -1
        with pytest.raises(InvariantViolation, match="det"):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvariantViolation):
            Pose(np.eye(2), np.zeros(3))
        with pytest.raises(InvariantViolation):
            Pose(np.eye(3), np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(InvariantViolation):
            Pose(np.eye(3), np.array([0.0, np.nan, 0.0]))
        rot = np.eye(3)
        rot[0, 0] = np.inf
        with pytest.raises(InvariantViolation):
            Pose(rot, np.zeros(3))

    @pytest.mark.parametrize("value", [1e200, -1e300])
    def test_huge_entries_are_refused_without_a_warning(self, value):
        # R^T R overflows; a RuntimeWarning would fail the test
        rot = np.eye(3)
        rot[0, 1] = value
        with pytest.raises(InvariantViolation, match="not orthonormal"):
            Pose(rot, np.zeros(3))

    def test_accepts_rotation_within_tolerance(self):
        # orthonormal up to ~1e-8 noise, well inside the 1e-6 tolerance
        rot = rotation_about((1.0, 2.0, 3.0), 37.0)
        noisy = rot + 1e-8
        Pose(noisy, np.zeros(3))

    def test_equality_is_by_value(self):
        a = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        b = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        c = Pose(np.eye(3), np.array([1.0, 2.0, 4.0]))
        assert a == b
        assert a != c
        assert a != "not a pose"


def refused_one_by_one(rotation, translation):
    """The per-pose check `Pose` ran before `refused_poses`, the reference."""
    if not (np.all(np.isfinite(rotation)) and np.all(np.isfinite(translation))):
        return True
    with np.errstate(all="ignore"):
        deviation = float(np.max(np.abs(rotation.T @ rotation - np.eye(3))))
        det = float(np.linalg.det(rotation))
    return deviation > 1e-6 or abs(det - 1.0) > 1e-6


@st.composite
def pose_stacks(draw):
    """Rotations near, at and beyond the tolerance, reflections, and huge or
    non-finite entries, with translations that may hold one too."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotations = np.stack([random_rotation(rng) for _ in range(n)])
    noise = st.sampled_from([0, 3e-7, 5e-7, 1e-6, 2e-6, 1e-3])
    scales = draw(st.lists(noise, min_size=n, max_size=n))
    rotations += rng.normal(size=(n, 3, 3)) * np.asarray(scales)[:, None, None]
    translations = rng.normal(size=(n, 3)) * 10
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 8))
        value = draw(st.sampled_from([np.inf, -np.inf, np.nan, 1e200, -1e308, -1.0]))
        if j < 9:
            rotations[i].flat[j] = value if value != -1.0 else -rotations[i].flat[j]
        else:
            translations[i, 0] = value
    if draw(st.booleans()):
        rotations[0] *= -1  # a reflection
    return rotations, translations


@settings(max_examples=300, deadline=None)
@given(stack=pose_stacks())
def test_refused_poses_is_the_per_pose_check_row_by_row(stack):
    rotations, translations = stack
    expected = [refused_one_by_one(r, t) for r, t in zip(rotations, translations)]
    assert refused_poses(rotations, translations).tolist() == expected
    # rows inside a wider buffer, as the reader holds them
    rows = np.concatenate([rotations.reshape(-1, 9), translations], axis=1)
    assert refused_poses(rows[:, :9].reshape(-1, 3, 3), rows[:, 9:]).tolist() == expected
    for r, t, refused in zip(rotations, translations, expected):
        if refused:
            with pytest.raises(InvariantViolation):
                Pose(r, t)
        else:
            Pose(r, t)


class TestCameraCenter:
    def test_identity_rotation(self):
        pose = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(pose.camera_center(), [-1.0, -2.0, -3.0])

    def test_round_trips_through_constructor(self):
        center = np.array([4.0, -2.5, 7.0])
        pose = pose_at(center, rotation_about((0.0, 0.0, 1.0), 90.0))
        np.testing.assert_allclose(pose.camera_center(), center, atol=1e-12)


class TestTranslationError:
    def test_is_distance_between_camera_centers(self):
        a = pose_at((0.0, 0.0, 0.0))
        b = pose_at((3.0, 4.0, 0.0))
        assert translation_error(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_ignores_rotation_when_centers_match(self):
        center = (1.0, 2.0, 3.0)
        a = pose_at(center)
        b = pose_at(center, rotation_about((1.0, 0.0, 0.0), 120.0))
        assert translation_error(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_differs_from_raw_translation_distance(self):
        # same translation vector, different rotations: the translation
        # vectors match but the cameras sit in different places
        t = np.array([0.0, 0.0, 5.0])
        a = Pose(np.eye(3), t)
        b = Pose(rotation_about((0.0, 1.0, 0.0), 180.0), t)
        assert np.allclose(a.translation, b.translation)
        assert translation_error(a, b) == pytest.approx(10.0, abs=1e-9)


class TestRotationError:
    @pytest.mark.parametrize("angle", [0.5, 10.0, 45.0, 90.0, 135.0, 179.5])
    @pytest.mark.parametrize("axis", [(1, 0, 0), (0, 0, 1), (1, 1, 1), (2, -3, 5)])
    def test_recovers_axis_angle(self, angle, axis):
        a = Pose(np.eye(3), np.zeros(3))
        b = Pose(rotation_about(axis, angle), np.zeros(3))
        assert rotation_error(b, a) == pytest.approx(angle, abs=1e-7)

    def test_identical_rotations_give_zero(self):
        rot = rotation_about((3.0, 1.0, 2.0), 77.7)
        pose = Pose(rot, np.zeros(3))
        assert rotation_error(pose, pose) == 0.0

    def test_clamps_trace_noise_at_zero_angle(self):
        # A @ A.T on a noisy rotation can push cos(angle) past 1; the
        # result must stay a real 0, not NaN
        rot = rotation_about((1.0, 1.0, 1.0), 60.0)
        a = Pose(rot, np.zeros(3))
        b = Pose(rot @ np.eye(3), np.zeros(3))
        err = rotation_error(a, b)
        assert math.isfinite(err)
        assert err == pytest.approx(0.0, abs=1e-5)

    def test_half_turn_is_180(self):
        a = Pose(np.eye(3), np.zeros(3))
        b = Pose(rotation_about((1.0, 0.0, 0.0), 180.0), np.zeros(3))
        assert rotation_error(b, a) == pytest.approx(180.0, abs=1e-9)


def test_pose_error_bundles_both_metrics():
    est = pose_at((0.0, 0.0, 1.0), rotation_about((0.0, 1.0, 0.0), 15.0))
    gt = pose_at((0.0, 0.0, 0.0))
    err = pose_error(est, gt)
    assert err.translation_m == pytest.approx(translation_error(est, gt))
    assert err.rotation_deg == pytest.approx(rotation_error(est, gt))
    assert err.translation_m == pytest.approx(1.0, abs=1e-12)
    assert err.rotation_deg == pytest.approx(15.0, abs=1e-9)


class TestIsCorrect:
    def test_both_below_is_correct(self):
        assert is_correct(PoseError(0.999, 9.999), ErrorThreshold(1.0, 10.0))

    def test_boundary_translation_is_incorrect(self):
        assert not is_correct(PoseError(1.0, 5.0), ErrorThreshold(1.0, 10.0))

    def test_boundary_rotation_is_incorrect(self):
        assert not is_correct(PoseError(0.5, 10.0), ErrorThreshold(1.0, 10.0))

    def test_either_exceeding_is_incorrect(self):
        threshold = ErrorThreshold(1.0, 10.0)
        assert not is_correct(PoseError(1.5, 1.0), threshold)
        assert not is_correct(PoseError(0.1, 25.0), threshold)


def test_threshold_validation():
    with pytest.raises(InvariantViolation):
        ErrorThreshold(0.0, 10.0)
    with pytest.raises(InvariantViolation):
        ErrorThreshold(-1.0, 10.0)
    with pytest.raises(InvariantViolation):
        ErrorThreshold(1.0, 0.0)
    with pytest.raises(InvariantViolation):
        ErrorThreshold(1.0, 181.0)
    ErrorThreshold(1.0, 180.0)  # inclusive upper bound


@pytest.mark.parametrize("args, field", [
    ((True, 10.0), "max_translation_m"),
    (("1", 10.0), "max_translation_m"),
    ((None, 10.0), "max_translation_m"),
    ((1.0, False), "max_rotation_deg"),
    ((1.0, "10"), "max_rotation_deg"),
])
def test_threshold_refuses_a_non_number_by_type(args, field):
    with pytest.raises(InvariantViolation, match=f"{field} must be a number"):
        ErrorThreshold(*args)


@pytest.mark.parametrize("args, field", [
    ((True, 5.0), "translation_m"),
    (("0.5", 5.0), "translation_m"),
    ((0.5, False), "rotation_deg"),
    ((0.5, None), "rotation_deg"),
])
def test_pose_error_refuses_a_non_number_by_type(args, field):
    with pytest.raises(InvariantViolation, match=f"{field} must be a number"):
        PoseError(*args)


def test_numpy_numbers_are_numbers():
    assert ErrorThreshold(np.float32(0.5), np.int64(10)).max_rotation_deg == 10
    assert PoseError(np.float64(0.5), np.int32(3)).translation_m == 0.5


def test_pose_error_validation():
    with pytest.raises(InvariantViolation):
        PoseError(-0.1, 5.0)
    with pytest.raises(InvariantViolation):
        PoseError(1.0, -1.0)
    with pytest.raises(InvariantViolation):
        PoseError(1.0, 180.5)
    PoseError(0.0, 0.0)
    PoseError(0.0, 180.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rotation_error_properties(seed):
    rng = np.random.default_rng(seed)
    a = Pose(random_rotation(rng), np.zeros(3))
    b = Pose(random_rotation(rng), np.zeros(3))
    forward = rotation_error(a, b)
    backward = rotation_error(b, a)
    assert 0.0 <= forward <= 180.0
    assert forward == pytest.approx(backward, abs=1e-9)
    assert rotation_error(a, a) == pytest.approx(0.0, abs=1e-5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), angle=st.floats(0.01, 179.9))
def test_relative_rotation_angle_is_invariant_to_base(seed, angle):
    # applying a known relative rotation to any base produces exactly
    # that angle of error
    rng = np.random.default_rng(seed)
    base = random_rotation(rng)
    delta = rotation_about(rng.normal(size=3), angle)
    a = Pose(base, np.zeros(3))
    b = Pose(delta @ base, np.zeros(3))
    assert rotation_error(b, a) == pytest.approx(angle, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_translation_error_properties(seed):
    rng = np.random.default_rng(seed)
    c1 = rng.uniform(-20, 20, size=3)
    c2 = rng.uniform(-20, 20, size=3)
    a = pose_at(c1, random_rotation(rng))
    b = pose_at(c2, random_rotation(rng))
    err = translation_error(a, b)
    assert err == pytest.approx(float(np.linalg.norm(c1 - c2)), abs=1e-9)
    assert err == pytest.approx(translation_error(b, a), abs=1e-12)
