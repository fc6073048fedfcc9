"""Camera poses, pose errors, and correctness labelling."""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Frozen, is_number
from .errors import InvariantViolation

ORTHONORMALITY_TOL = 1e-6


class Pose(Frozen):
    """World-to-camera transform: x_cam = rotation @ x_world + translation.

    The rotation (3, 3, row-major) must be orthonormal with determinant +1
    (checked to absolute tolerance 1e-6, loose enough for single-precision
    upstream pipelines); the translation is a 3-vector in meters.
    """

    __slots__ = _fields = ("rotation", "translation")

    def __init__(self, rotation: np.ndarray, translation: np.ndarray):
        rot = np.asarray(rotation, dtype=np.float64)
        trans = np.asarray(translation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise InvariantViolation(f"rotation must be 3x3, got shape {rot.shape}")
        if trans.shape != (3,):
            raise InvariantViolation(
                f"translation must be a 3-vector, got shape {trans.shape}"
            )
        if refused_poses(rot[None], trans[None])[0]:
            if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(trans))):
                raise InvariantViolation("pose contains non-finite values")
            deviation, det = _orthonormality(rot[None])
            raise InvariantViolation(
                "rotation is not orthonormal with det +1 "
                f"(max |R^T R - I| = {deviation[0]:.3g}, det = {det[0]:.9f})"
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


_IDENTITY = np.eye(3)


@np.errstate(all="ignore")  # as a decorator it costs less per call than a with block
def _orthonormality(rotations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max |R^T R - I| and det R of each rotation of an (n, 3, 3) stack.

    Products of huge or non-finite values overflow without a warning: the
    row is refused for them, or reads NaN, which no tolerance test refuses.
    """
    gram = np.matmul(rotations.transpose(0, 2, 1), rotations)
    return np.maximum.reduce(np.abs(gram - _IDENTITY), axis=(1, 2)), np.linalg.det(rotations)


def refused_poses(rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """Which of n poses `Pose` refuses, as a bool (n,) mask, for float64
    rotations (n, 3, 3) and translations (n, 3), with one set of numpy calls.

    A pose is refused when a value is not finite, or when its rotation is
    not orthonormal with det +1 to ORTHONORMALITY_TOL.  A row's outcome does
    not depend on the other rows, so a file's poses are checked at once.
    """
    deviation, det = _orthonormality(rotations)
    # fmax skips a NaN: a NaN deviation refuses nothing, as a NaN det does not
    out_of_tolerance = np.fmax(deviation, np.abs(det - 1.0)) > ORTHONORMALITY_TOL
    finite = np.logical_and.reduce(np.isfinite(rotations), axis=(1, 2)) & np.logical_and.reduce(
        np.isfinite(translations), axis=1
    )
    return out_of_tolerance | ~finite


class ErrorThreshold(Frozen):
    """Correctness bounds: translation in meters, rotation in degrees."""

    __slots__ = _fields = ("max_translation_m", "max_rotation_deg")

    def __init__(self, max_translation_m: float = 1.0, max_rotation_deg: float = 10.0):
        _require_number("max_translation_m", max_translation_m)
        _require_number("max_rotation_deg", max_rotation_deg)
        # finite, so every threshold written to a strict JSON report is valid
        if not (max_translation_m > 0 and math.isfinite(max_translation_m)):
            raise InvariantViolation("max_translation_m must be finite and > 0")
        if not 0 < max_rotation_deg <= 180:
            raise InvariantViolation("max_rotation_deg must be in (0, 180]")
        object.__setattr__(self, "max_translation_m", max_translation_m)
        object.__setattr__(self, "max_rotation_deg", max_rotation_deg)


class PoseError(Frozen):
    __slots__ = _fields = ("translation_m", "rotation_deg")

    def __init__(self, translation_m: float, rotation_deg: float):
        _require_number("translation_m", translation_m)
        _require_number("rotation_deg", rotation_deg)
        if not translation_m >= 0:
            raise InvariantViolation("translation_m must be >= 0")
        if not 0 <= rotation_deg <= 180:
            raise InvariantViolation("rotation_deg must be in [0, 180]")
        object.__setattr__(self, "translation_m", translation_m)
        object.__setattr__(self, "rotation_deg", rotation_deg)


def _require_number(name: str, value) -> None:
    if not is_number(value):  # a bool is no number
        raise InvariantViolation(f"{name} must be a number, got {value!r}")


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
