"""Camera poses, pose errors, and correctness labelling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

ORTHONORMALITY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Pose:
    """World-to-camera transform: x_cam = rotation @ x_world + translation.

    The rotation must be orthonormal with determinant +1 (checked to
    absolute tolerance 1e-6, loose enough for single-precision upstream
    pipelines).
    """

    rotation: np.ndarray  # (3, 3), row-major
    translation: np.ndarray  # (3,), meters

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        trans = np.asarray(self.translation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise InvariantViolation(f"rotation must be 3x3, got shape {rot.shape}")
        if trans.shape != (3,):
            raise InvariantViolation(
                f"translation must be a 3-vector, got shape {trans.shape}"
            )
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(trans))):
            raise InvariantViolation("pose contains non-finite values")
        deviation = float(np.max(np.abs(rot.T @ rot - np.eye(3))))
        det = float(np.linalg.det(rot))
        if deviation > ORTHONORMALITY_TOL or abs(det - 1.0) > ORTHONORMALITY_TOL:
            raise InvariantViolation(
                "rotation is not orthonormal with det +1 "
                f"(max |R^T R - I| = {deviation:.3g}, det = {det:.9f})"
            )
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    def camera_center(self) -> np.ndarray:
        """Camera position in world coordinates, -R^T t."""
        return -self.rotation.T @ self.translation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pose):
            return NotImplemented
        return np.array_equal(self.rotation, other.rotation) and np.array_equal(
            self.translation, other.translation
        )


@dataclass(frozen=True)
class ErrorThreshold:
    """Correctness bounds: translation in meters, rotation in degrees."""

    max_translation_m: float = 1.0
    max_rotation_deg: float = 10.0

    def __post_init__(self):
        # finite, so every threshold written to a strict JSON report is valid
        if not (self.max_translation_m > 0 and math.isfinite(self.max_translation_m)):
            raise InvariantViolation("max_translation_m must be finite and > 0")
        if not 0 < self.max_rotation_deg <= 180:
            raise InvariantViolation("max_rotation_deg must be in (0, 180]")


@dataclass(frozen=True)
class PoseError:
    translation_m: float
    rotation_deg: float

    def __post_init__(self):
        if not self.translation_m >= 0:
            raise InvariantViolation("translation_m must be >= 0")
        if not 0 <= self.rotation_deg <= 180:
            raise InvariantViolation("rotation_deg must be in [0, 180]")


def translation_error(estimated: Pose, ground_truth: Pose) -> float:
    """Euclidean distance in meters between the two camera centers.

    Centers are -R^T t; comparing raw translation vectors would conflate
    rotation and position error.
    """
    return float(
        np.linalg.norm(estimated.camera_center() - ground_truth.camera_center())
    )


def rotation_error(estimated: Pose, ground_truth: Pose) -> float:
    """Geodesic angle in degrees between the two rotations, in [0, 180]."""
    cos_angle = (np.trace(ground_truth.rotation.T @ estimated.rotation) - 1.0) / 2.0
    # float noise can push the trace slightly outside the arccos domain
    cos_angle = min(1.0, max(-1.0, float(cos_angle)))
    return math.degrees(math.acos(cos_angle))


def pose_error(estimated: Pose, ground_truth: Pose) -> PoseError:
    return PoseError(
        translation_error(estimated, ground_truth),
        rotation_error(estimated, ground_truth),
    )


def is_correct(error: PoseError, threshold: ErrorThreshold) -> bool:
    """Both errors strictly below their bounds; boundary values are incorrect."""
    return (
        error.translation_m < threshold.max_translation_m
        and error.rotation_deg < threshold.max_rotation_deg
    )
