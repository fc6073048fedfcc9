"""Record schema, JSON Lines I/O, dataset construction, and a seeded
synthetic generator.

A record couples one query image with one retrieved database candidate:
the matched inlier keypoints on both images, the pose estimated from
them, and (when available) the ground-truth pose used for labeling.
Files are newline-delimited JSON, one record per line; unknown keys are
ignored on input so augmented files (e.g. with a `confidence` field)
remain parseable.
"""

from __future__ import annotations

import copy
import json
import math
import operator
import os
import random
import re
from array import array
from collections import Counter
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._frozen import Frozen, is_integer, is_number
from .coverage import INT64_MAX, ImageDims, InlierSet
from .errors import (
    InvalidConfig,
    InvariantViolation,
    MissingGroundTruth,
    SchemaError,
    TooFewQueries,
)
from .fileio import atomic_open
from .pose_metrics import ErrorThreshold, Pose, is_correct, pose_error, refused_poses

MIN_CORRESPONDENCES = 3  # below this, estimation is trivially failed


class PoseRecord(Frozen):
    """One (query image, database candidate) pair with its estimated pose."""

    _fields = ("query_id", "candidate_rank", "query_inliers", "db_inliers",
               "num_correspondences", "estimated_pose", "ground_truth_pose", "pv_score")
    # `source` is the JSON text this record was parsed from; `record_lines`
    # writes it back, a confidence appended.  It is no argument, so built
    # records carry none, and neither `==` nor `repr` shows it.
    __slots__ = (*_fields, "source")

    def __init__(self, query_id: str, candidate_rank: int, query_inliers: InlierSet,
                 db_inliers: InlierSet, num_correspondences: int, estimated_pose: Pose,
                 ground_truth_pose: Pose | None = None, pv_score: float | None = None):
        if not isinstance(query_id, str):
            raise InvariantViolation("query_id must be a string")
        if candidate_rank < 1:
            raise InvariantViolation(f"candidate_rank must be >= 1, got {candidate_rank}")
        if num_correspondences < 0:
            raise InvariantViolation(
                f"num_correspondences must be >= 0, got {num_correspondences}"
            )
        if len(query_inliers) != len(db_inliers):
            raise InvariantViolation(
                "inliers are matched pairs: query has "
                f"{len(query_inliers)}, db has {len(db_inliers)}"
            )
        if len(query_inliers) > num_correspondences:
            raise InvariantViolation(
                f"{len(query_inliers)} inliers exceed {num_correspondences} correspondences"
            )
        if pv_score is not None and not math.isfinite(pv_score):
            raise InvariantViolation(f"pv_score must be finite, got {pv_score}")
        object.__setattr__(self, "query_id", query_id)
        object.__setattr__(self, "candidate_rank", candidate_rank)
        object.__setattr__(self, "query_inliers", query_inliers)
        object.__setattr__(self, "db_inliers", db_inliers)
        object.__setattr__(self, "num_correspondences", num_correspondences)
        object.__setattr__(self, "estimated_pose", estimated_pose)
        object.__setattr__(self, "ground_truth_pose", ground_truth_pose)
        object.__setattr__(self, "pv_score", pv_score)
        object.__setattr__(self, "source", None)

    @property
    def query_dims(self) -> ImageDims:
        return self.query_inliers.dims

    @property
    def db_dims(self) -> ImageDims:
        return self.db_inliers.dims

    @property
    def inlier_count(self) -> int:
        return len(self.query_inliers)

    def has_ground_truth(self) -> bool:
        return self.ground_truth_pose is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PoseRecord):
            return NotImplemented
        return (
            self.query_id == other.query_id
            and self.candidate_rank == other.candidate_rank
            and self.query_inliers == other.query_inliers
            and self.db_inliers == other.db_inliers
            and self.num_correspondences == other.num_correspondences
            and self.estimated_pose == other.estimated_pose
            and self.ground_truth_pose == other.ground_truth_pose
            and self.pv_score == other.pv_score
        )


class SplitSpec(Frozen):
    __slots__ = _fields = ("train_fraction", "seed")

    def __init__(self, train_fraction: float = 0.75, seed: int = 0):
        if not is_number(train_fraction):  # a bool is no number
            raise InvalidConfig(f"train_fraction must be a number, got {train_fraction!r}")
        if not is_integer(seed):
            raise InvalidConfig(f"seed must be an integer, got {seed!r}")
        if not (0.0 < train_fraction < 1.0):
            raise InvalidConfig(f"train_fraction must lie in (0, 1), got {train_fraction}")
        if seed < 0:  # random.Random would shuffle as for abs(seed)
            raise InvalidConfig(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "train_fraction", train_fraction)
        object.__setattr__(self, "seed", seed)


# ---------------------------------------------------------------------------
# parsing


def _require(obj: Mapping, field: str, line: int):
    if field not in obj:
        raise SchemaError(line=line, field=field, message="missing required field")
    return obj[field]


def _as_int(
    value, field: str, line: int, minimum: int | None = None, maximum: int | None = None
) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(line=line, field=field, message=f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(line=line, field=field, message=f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise SchemaError(line=line, field=field, message=f"is out of range: {value!r}")
    return value


def _as_image_dims(obj: Mapping, image: str, line: int) -> ImageDims:
    # coverage counts pixels in int64, so a larger image cannot be scored
    width, height = (
        _as_int(_require(obj, field, line), field, line, 1, INT64_MAX)
        for field in (f"{image}_width", f"{image}_height")
    )
    try:
        return ImageDims(width, height)
    except InvariantViolation as exc:  # the pixel count passes int64
        raise SchemaError(line=line, field=f"{image}_height", message=exc.description) from None


def _as_real(value, field: str, line: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(line=line, field=field, message=f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(line=line, field=field, message=f"must be finite, got {value!r}")
    return out


def _as_real_list(value, n: int, field: str, line: int) -> list:
    """`n` reals.  A list of exact ints and floats is returned as it is: the
    pose batch (`_Poses`) converts it and checks that it is finite."""
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(line=line, field=field, message=f"expected a list of {n} numbers")
    if set(map(type, value)) <= {int, float}:  # exact types: a bool is an int
        return value
    return [_as_real(v, field, line) for v in value]


def _as_point_list(value, field: str, line: int) -> np.ndarray:
    if not isinstance(value, list):
        raise SchemaError(line=line, field=field, message="expected a list of [x, y] pairs")
    # One flat conversion when every entry is a two-element list and every
    # coordinate exactly an int (types, not isinstance: a bool is an int).
    # Everything else, and values beyond int64, falls through to the loop,
    # which names the first bad entry.
    if set(map(type, value)) <= {list} and set(map(len, value)) <= {2}:
        flat = list(chain.from_iterable(value))
        if set(map(type, flat)) <= {int}:
            try:
                return np.fromiter(flat, np.int64, len(flat)).reshape(-1, 2)
            except OverflowError:
                pass
    points = np.zeros((len(value), 2), dtype=np.int64)
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(
                line=line, field=field, message=f"entry {i} is not an [x, y] pair"
            )
        for j in range(2):
            v = pair[j]
            if isinstance(v, bool) or not isinstance(v, int):
                raise SchemaError(
                    line=line,
                    field=field,
                    message=f"entry {i} coordinate {j} is not an integer: {v!r}",
                )
            try:
                points[i, j] = v
            except OverflowError:
                raise SchemaError(
                    line=line,
                    field=field,
                    message=f"entry {i} coordinate {j} is out of range: {v!r}",
                ) from None
    return points


def parse_record(obj: Mapping, line: int = 0) -> PoseRecord:
    """Build one validated record from a decoded JSON object: a batch of one,
    checked as `parse_records` checks a file."""
    poses = _Poses()
    record = _record_from(obj, line, poses)
    poses.check()
    return record


def _inlier_points(obj: Mapping, field: str, line: int, points: dict | None) -> np.ndarray:
    if points is not None:
        return points[field]
    return _as_point_list(_require(obj, field, line), field, line)


def _record_from(obj: Mapping, line: int, poses: _Poses, points: dict | None = None) -> PoseRecord:
    """A record with every field checked but its poses, which wait in
    `poses` to be checked with the rest of the batch.  `points` maps each
    inlier key to its (n, 2) int64 array when the reader converted them."""
    if not isinstance(obj, Mapping):
        raise SchemaError(line=line, message="record must be a JSON object")
    query_id = _require(obj, "query_id", line)
    if not isinstance(query_id, str):
        raise SchemaError(line=line, field="query_id", message="expected a string")
    candidate_rank = _as_int(_require(obj, "candidate_rank", line), "candidate_rank", line, 1)
    query_dims = _as_image_dims(obj, "query", line)
    db_dims = _as_image_dims(obj, "db", line)
    num_correspondences = _as_int(
        _require(obj, "num_correspondences", line), "num_correspondences", line, 0
    )
    rotation = _as_real_list(_require(obj, "rotation", line), 9, "rotation", line)
    values = rotation + _as_real_list(_require(obj, "translation", line), 3, "translation", line)

    has_gt_rot = "gt_rotation" in obj
    has_gt_trans = "gt_translation" in obj
    if has_gt_rot != has_gt_trans:
        raise SchemaError(
            line=line,
            field="gt_rotation" if has_gt_rot else "gt_translation",
            message="gt_rotation and gt_translation must be given together",
        )
    ground_truth = None
    if has_gt_rot:
        values += _as_real_list(obj["gt_rotation"], 9, "gt_rotation", line)
        values += _as_real_list(obj["gt_translation"], 3, "gt_translation", line)
        ground_truth = object.__new__(Pose)  # `poses.check` gives it its values

    pv_score = None
    if obj.get("pv_score") is not None:
        pv_score = _as_real(obj["pv_score"], "pv_score", line)

    try:
        query_inliers = InlierSet(
            _inlier_points(obj, "query_inliers", line, points), query_dims
        )
        db_inliers = InlierSet(_inlier_points(obj, "db_inliers", line, points), db_dims)
        record = PoseRecord(
            query_id=query_id,
            candidate_rank=candidate_rank,
            query_inliers=query_inliers,
            db_inliers=db_inliers,
            num_correspondences=num_correspondences,
            estimated_pose=object.__new__(Pose),
            ground_truth_pose=ground_truth,
            pv_score=pv_score,
        )
    except InvariantViolation as exc:
        if exc.line is None:
            raise InvariantViolation(exc.description, line=line) from None
        raise
    poses.add(record, values, line)
    return record


def _refuse_constant(token: str):
    raise ValueError(f"non-standard token {token}")


# json.loads also reads NaN, Infinity and -Infinity; a record holding one in
# an unknown key would be copied into a file that strict JSON cannot read
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)

_INLIER_KEYS = ("query_inliers", "db_inliers")  # also the PoseRecord attribute names

# An inlier array written right after its key, compact, each coordinate a
# non-negative integer of at most 18 digits without a leading zero: text that
# np.fromstring reads exactly (it would take "01" and "-0", and clamp values
# past int64 without a warning).  Every repetition is possessive: after a
# coordinate's digits, the last pair and the optional group, only "," or "]"
# may follow, so giving any of them back never lets a match succeed.
_COORD = r"(?:0|[1-9][0-9]{0,17}+)"
_PAIR = rf"\[{_COORD},{_COORD}\]"
_INLIER_TEXT = {
    key: (f'"{key}"', re.compile(rf'"{key}":(\[(?:{_PAIR}(?:,{_PAIR})*+)?+\])'))
    for key in _INLIER_KEYS
}
_NO_BRACKETS = str.maketrans("", "", "[]")


def _points_from_text(array: str) -> np.ndarray:
    # "[]" becomes "", which reads as no values (blank text would read as [0])
    return np.fromstring(array.translate(_NO_BRACKETS), dtype=np.int64, sep=",").reshape(-1, 2)


def _decode_with_inliers(raw: str) -> tuple[dict, dict] | None:
    """Decode a line and convert each inlier array straight from its text,
    or return None when the line is not one this can vouch for.

    Each inlier key must occur once in the text, so there is no duplicate
    key and no namesake in another object or in a string, and the line must
    hold no backslash, so no `\\u` escape spells a key the count misses.
    Both arrays become the placeholder 0 for `_DECODER`, and the arrays are
    used only if the decoded object holds that int at both keys.
    """
    if "\\" in raw:
        return None
    matches = []
    for quoted, pattern in _INLIER_TEXT.values():
        match = pattern.search(raw) if raw.count(quoted) == 1 else None
        if match is None:
            return None
        matches.append(match)
    first, second = sorted(matches, key=lambda m: m.start(1))
    text = (
        raw[: first.start(1)] + "0" + raw[first.end(1) : second.start(1)] + "0"
        + raw[second.end(1) :]
    )
    try:
        obj = _DECODER.decode(text)
    except (ValueError, RecursionError):  # the whole line is decoded again, and fails there
        return None
    if type(obj) is not dict:
        return None
    for key in _INLIER_KEYS:
        value = obj.get(key)
        if type(value) is not int or value != 0:
            return None
    return obj, {key: _points_from_text(m.group(1)) for key, m in zip(_INLIER_KEYS, matches)}


# the field of each value a record adds to `_Poses`, ground truth last
_POSE_FIELDS = ["rotation"] * 9 + ["translation"] * 3 + ["gt_rotation"] * 9 + ["gt_translation"] * 3


def _refuse_poses(values: list, line: int) -> None:
    """Raise the error of a record whose pose values the batch refuses: the
    first value that is not finite, in field order, else the ground-truth
    pose's, else the estimate's."""
    for field, value in zip(_POSE_FIELDS, values):
        _as_real(value, field, line)
    for start in range(len(values) - 12, -1, -12):  # 9 rotation, then 3 translation values
        try:
            Pose(np.reshape(values[start : start + 9], (3, 3)), values[start + 9 : start + 12])
        except InvariantViolation as exc:
            raise InvariantViolation(exc.description, line=line) from None


class _Poses:
    """The poses of a batch of records, made without their values, which
    wait here in one flat buffer until `check` validates them all at once."""

    def __init__(self):
        self.values = array("d")  # per pose, 9 rotation then 3 translation values
        self.records: list[tuple[PoseRecord, int]] = []  # with their lines

    def add(self, record: PoseRecord, values: list, line: int) -> None:
        try:  # leaves the buffer as it was when a value does not convert
            self.values.fromlist(values)
        except OverflowError:  # an integer past the float range
            _refuse_poses(values, line)
        self.records.append((record, line))

    def check(self) -> None:
        """Give each pose its arrays, rows of one (n, 12) array, once
        `refused_poses` passes them all; the first record with a refused
        pose fails with its line."""
        rows = np.frombuffer(self.values).reshape(-1, 12)
        rotations, translations = rows[:, :9].reshape(-1, 3, 3), rows[:, 9:]
        refused = refused_poses(rotations, translations).tolist()
        row = 0
        for record, line in self.records:
            n = 1 if record.ground_truth_pose is None else 2
            if True in refused[row : row + n]:
                _refuse_poses(rows[row : row + n].ravel().tolist(), line)
            for pose in (record.estimated_pose, record.ground_truth_pose)[:n]:
                object.__setattr__(pose, "rotation", rotations[row])
                object.__setattr__(pose, "translation", translations[row])
                row += 1

    def checked(self) -> list[PoseRecord]:
        """The records of the batch, in order, once `check` passes."""
        self.check()
        return [record for record, _ in self.records]


def parse_records(lines: Iterable[str]) -> list[PoseRecord]:
    """Parse newline-delimited JSON records; blank lines are skipped.

    Each record keeps its line, without the surrounding JSON whitespace, as
    its `source`.  Any failure carries the 1-based line number it occurred on,
    and the first failure in line order is raised, with the type, field and
    message `parse_record` gives that line.  A line that is not ASCII must
    encode, through `surrogateescape`, to bytes that decode as UTF-8.  A line
    whose inlier arrays are plain `[[x,y],...]` text has each array converted
    from that text (`_decode_with_inliers`); every other line is decoded
    whole.  The poses of the file are one `_Poses` batch, as a line's are in
    `parse_record`.
    """
    poses = _Poses()
    try:
        for line_no, raw in enumerate(lines, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeError as exc:
                    raise SchemaError(line=line_no, message=f"not UTF-8 text: {exc.reason}") from None
            if not raw.strip():
                continue
            obj, points = _decode_with_inliers(raw) or (None, None)
            if points is None:
                try:
                    obj = _DECODER.decode(raw)
                except (ValueError, RecursionError) as exc:  # not JSON, NaN, a long int, too deep
                    message = getattr(exc, "msg", exc)
                    raise SchemaError(line=line_no, message=f"invalid JSON: {message}") from None
            record = _record_from(obj, line_no, poses, points)
            object.__setattr__(record, "source", raw.strip(" \t\r\n"))
    except Exception:  # any error, one from reading the file too, comes after
        poses.check()  # a bad pose on an earlier line
        raise
    return poses.checked()


def read_records(path: str | os.PathLike) -> list[PoseRecord]:
    """Parse a record file in one pass; `parse_records` checks each line as UTF-8."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_records(fh)


def _record_fields(record: PoseRecord, confidence: float | None) -> dict:
    """The fields of `serialize_record`, in order, with the inlier values
    still the record's (n, 2) int64 arrays."""
    obj = {
        "query_id": record.query_id,
        "candidate_rank": record.candidate_rank,
        "query_width": record.query_dims.width,
        "query_height": record.query_dims.height,
        "db_width": record.db_dims.width,
        "db_height": record.db_dims.height,
        "query_inliers": record.query_inliers.points,
        "db_inliers": record.db_inliers.points,
        "num_correspondences": record.num_correspondences,
        "rotation": record.estimated_pose.rotation.reshape(-1).tolist(),
        "translation": record.estimated_pose.translation.tolist(),
    }
    gt = record.ground_truth_pose
    if gt is not None:
        obj["gt_rotation"] = gt.rotation.reshape(-1).tolist()
        obj["gt_translation"] = gt.translation.tolist()
    if record.pv_score is not None:
        obj["pv_score"] = record.pv_score
    if confidence is not None:
        obj["confidence"] = confidence
    return obj


def serialize_record(record: PoseRecord, confidence: float | None = None) -> dict:
    """Record as a JSON-ready dict; optional fields omitted when absent, and
    a given `confidence` appended last."""
    obj = _record_fields(record, confidence)
    for key in _INLIER_KEYS:
        obj[key] = obj[key].tolist()
    return obj


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


_WORD_LIMIT = 1 << 16  # coordinates below this are formatted through the word tables
_word_tables: tuple[np.ndarray, np.ndarray] | None = None  # built and grown on first use


def _coordinate_words(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The text `[v,` and `v],` of each v < `size` (at most _WORD_LIMIT), each
    as the uint64 whose little-endian bytes are that text, NUL-padded to 8."""
    v = np.arange(size, dtype=np.uint64)
    ndigits = np.ones(size, dtype=np.uint64)
    for power in (10, 100, 1000, 10000):
        ndigits += v >= power
    digits = np.zeros(size, dtype=np.uint64)
    for i in range(5):  # the i-th digit from the right goes to byte ndigits - 1 - i
        byte = v // np.uint64(10**i) % np.uint64(10) + np.uint64(ord("0"))
        # past the last digit the shift wraps around; np.where drops those
        digits |= np.where(i < ndigits, byte << (np.uint64(8) * (ndigits - 1 - i)), 0)
    end = np.uint64(8) * ndigits  # the bit the digits end at
    comma = np.uint64(ord(",")) << (end + np.uint64(8))
    x_words = np.uint64(ord("[")) | digits << np.uint64(8) | comma
    y_words = digits | np.uint64(ord("]")) << end | comma
    return x_words, y_words


def _points_json(points: np.ndarray) -> str:
    """The text of `json.dumps(points.tolist(), separators=(",", ":"))` for
    an (n, 2) int64 array."""
    global _word_tables
    if not len(points):
        return "[]"
    top = int(points.view(np.uint64).max())  # a negative value reads as past the limit
    if top >= _WORD_LIMIT:  # json writes an int with int.__repr__, which is what %d gives
        return ("[" + ",".join(["[%d,%d]"] * len(points)) + "]") % tuple(points.ravel().tolist())
    tables = _word_tables  # read once, so a smaller table stored meanwhile is never indexed
    if tables is None or top >= len(tables[0]):
        tables = _word_tables = _coordinate_words(1 << top.bit_length())
    x_words, y_words = tables
    words = np.empty(points.shape, dtype="<u8")  # the words' bytes in text order on any host
    words[:, 0] = x_words[points[:, 0]]
    words[:, 1] = y_words[points[:, 1]]
    text = words.tobytes().translate(None, b"\0")
    return "[" + text[:-1].decode("ascii") + "]"


def _record_json(record: PoseRecord, confidence: float | None) -> str:
    """The compact JSON of `serialize_record(record, confidence)`, byte for
    byte, with each inlier array formatted in one step instead of as n lists."""
    parts = []
    run: dict = {}  # consecutive fields json encodes as one object
    for key, value in _record_fields(record, confidence).items():
        if key in _INLIER_KEYS:
            if run:
                parts.append(_ENCODER.encode(run)[1:-1])
                run = {}
            parts.append(f'"{key}":{_points_json(value)}')
        else:
            run[key] = value
    if run:
        parts.append(_ENCODER.encode(run)[1:-1])
    return "{" + ",".join(parts) + "}"


def _holds_confidence(source: str) -> bool:
    """Whether the JSON object `source` holds `confidence` at its top level."""
    if "\\" not in source and '"confidence"' not in source:
        return False  # without escapes, the key's name is in the text as it is
    return "confidence" in _DECODER.decode(source)


def record_lines(
    records: Sequence[PoseRecord], confidences: Sequence[float] | None = None
) -> Iterator[str]:
    """One JSON line per record, with `confidences[i]`, when given, as the
    `confidence` field of the i-th, last.  `confidences` must hold one value
    per record; a length that differs raises InvariantViolation before the
    first line.

    A parsed record is written as its source line, the confidence appended
    through the strict, compact encoder, so unknown keys, key order and
    spacing survive.  A record without a source (built, not parsed), or one
    whose source already holds a top-level `confidence`, gets the compact
    encoding of `serialize_record` instead.
    """
    if confidences is not None and len(confidences) != len(records):
        raise InvariantViolation(f"{len(records)} records but {len(confidences)} confidences")
    for i, record in enumerate(records):
        source = record.source
        confidence = None if confidences is None else confidences[i]
        if source is None or (confidence is not None and _holds_confidence(source)):
            yield _record_json(record, confidence)
        elif confidence is None:
            yield source
        else:
            yield f'{source[:-1]},"confidence":{_ENCODER.encode(confidence)}}}'


def write_records(
    records: Sequence[PoseRecord],
    path: str | os.PathLike,
    confidences: Sequence[float] | None = None,
) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for line in record_lines(records, confidences):
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# dataset construction


def build_extended(records: Sequence[PoseRecord]) -> list[PoseRecord]:
    """Keep every candidate pair that has enough correspondences to pose.

    Pairs with fewer than MIN_CORRESPONDENCES matches cannot support an
    estimate and are dropped; order is preserved and the operation is
    idempotent.
    """
    return [r for r in records if r.num_correspondences >= MIN_CORRESPONDENCES]


def grouped_split(
    records: Sequence[PoseRecord], spec: SplitSpec = SplitSpec()
) -> tuple[list[PoseRecord], list[PoseRecord]]:
    """Split into train/test keeping each query's candidates together.

    Query ids are shuffled with a seeded Mersenne-Twister generator
    (random.Random) over the sorted id list, then assigned greedily to the
    train side until it holds at least train_fraction of the records.  If
    that greedy walk swallows every query, the last one added is moved back
    so the test side is never empty.
    """
    counts = Counter(r.query_id for r in records)
    ids = sorted(counts)
    if len(ids) < 2:
        raise TooFewQueries(f"grouped split needs >= 2 distinct queries, got {len(ids)}")
    rng = random.Random(spec.seed)
    rng.shuffle(ids)
    target = spec.train_fraction * len(records)
    train_ids: set[str] = set()
    accumulated = 0
    last_added = None
    for qid in ids:
        train_ids.add(qid)
        accumulated += counts[qid]
        last_added = qid
        if accumulated >= target:
            break
    if len(train_ids) == len(ids):
        train_ids.remove(last_added)
    train = [r for r in records if r.query_id in train_ids]
    test = [r for r in records if r.query_id not in train_ids]
    return train, test


def label_records(
    records: Sequence[PoseRecord], threshold: ErrorThreshold = ErrorThreshold()
) -> np.ndarray:
    """1.0 for each record whose pose is correct at the threshold, else 0.0."""
    labels = np.zeros(len(records))
    for i, record in enumerate(records):
        if record.ground_truth_pose is None:
            raise MissingGroundTruth(record.query_id, record.candidate_rank)
        error = pose_error(record.estimated_pose, record.ground_truth_pose)
        labels[i] = is_correct(error, threshold)
    return labels


def group_by_query(records: Sequence[PoseRecord]) -> dict[str, list[PoseRecord]]:
    """Group records by query_id, preserving first-appearance order."""
    groups: dict[str, list[PoseRecord]] = {}
    for record in records:
        groups.setdefault(record.query_id, []).append(record)
    return groups


# ---------------------------------------------------------------------------
# synthetic data


# what SynthConfig leaves fixed: the sparse and hard shares of the correct
# candidates, the share of queries with none, and the correctness threshold
SPARSE_CORRECT_FRACTION = 0.25
HARD_CORRECT_FRACTION = 0.1
FAILED_QUERY_FRACTION = 0.2
SYNTH_THRESHOLD = ErrorThreshold()


class SynthConfig(Frozen):
    """Generator settings for the synthetic benchmark.

    Candidates fall into several regimes.  Correct poses come well-spread
    (dense), well-spread but few (sparse), or — rarely — clustered (hard:
    correct despite poor coverage).  Incorrect poses are either ordinary
    low-count failures (plain) or high-count/low-coverage decoys sized by
    adversarial_fraction, which exist so inlier count alone cannot
    separate the classes.  FAILED_QUERY_FRACTION of the queries get no
    correct candidate at all, so best-candidate evaluation sees both
    labels.  junk_fraction emits under-correspondence pairs that the
    extended-dataset filter drops.
    """

    __slots__ = _fields = ("queries", "candidates_per_query", "width", "height", "correct_fraction",
                           "adversarial_fraction", "junk_fraction", "include_pv")

    def __init__(self, queries: int = 200, candidates_per_query: int = 10, width: int = 320,
                 height: int = 240, correct_fraction: float = 0.45,
                 adversarial_fraction: float = 0.35, junk_fraction: float = 0.0,
                 include_pv: bool = False):
        values = (queries, candidates_per_query, width, height, correct_fraction,
                  adversarial_fraction, junk_fraction, include_pv)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        for name in ("queries", "candidates_per_query", "width", "height", "include_pv"):
            kind, value = bool if name == "include_pv" else int, getattr(self, name)
            if type(value) is not kind:  # exact, as a record file holds it: a bool is no int
                raise InvalidConfig(f"{name} must be of type {kind.__name__}, got {value!r}")
        if self.queries < 0:
            raise InvalidConfig(f"queries must be >= 0, got {self.queries}")
        if self.candidates_per_query < 1:
            raise InvalidConfig(
                f"candidates_per_query must be >= 1, got {self.candidates_per_query}"
            )
        if self.width < 16 or self.height < 16:
            raise InvalidConfig(
                f"image dims must be >= 16x16, got {self.width}x{self.height}"
            )
        if self.queries * self.candidates_per_query > INT64_MAX:  # past numpy's index range
            raise InvalidConfig(f"queries x candidates_per_query exceeds {INT64_MAX}")
        if self.width * self.height > INT64_MAX:  # past what ImageDims can count
            raise InvalidConfig(f"width x height exceeds {INT64_MAX}")
        for name in ("correct_fraction", "adversarial_fraction", "junk_fraction"):
            value = getattr(self, name)
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (real and 0.0 <= value <= 1.0):
                raise InvalidConfig(f"{name} must be a number in [0, 1], got {value!r}")


def _random_unit(rng: np.random.Generator, n: int = 3) -> np.ndarray:
    while True:
        v = rng.normal(size=n)
        norm = math.sqrt(v @ v)  # what np.linalg.norm computes for a float vector
        if norm > 1e-8:
            return v / norm


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    # uniform over SO(3) via a normalized quaternion
    w, x, y, z = _random_unit(rng, 4).tolist()
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _axis_angle(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle_rad) * k + (1.0 - math.cos(angle_rad)) * (k @ k)


def _pose_pair(
    rng: np.random.Generator,
    translation_error_m: float,
    rotation_error_deg: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ground-truth pose plus an estimate at exactly the requested errors, as
    (R_est, t_est, R_gt, t_gt)."""
    r_gt = _random_rotation(rng)
    center = rng.uniform(0.0, 50.0, size=3)
    center_est = center + translation_error_m * _random_unit(rng)
    r_est = _axis_angle(_random_unit(rng), math.radians(rotation_error_deg)) @ r_gt
    return r_est, -r_est @ center_est, r_gt, -r_gt @ center


def _spread_points(
    rng: np.random.Generator, dims: ImageDims, count: int, spread: float
) -> np.ndarray:
    """Uniform points inside a randomly placed box covering `spread` of each axis."""
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    box_w = max(1, int(round(spread * dims.width)))
    box_h = max(1, int(round(spread * dims.height)))
    x0 = int(rng.integers(0, dims.width - box_w + 1))
    y0 = int(rng.integers(0, dims.height - box_h + 1))
    xs = rng.integers(x0, x0 + box_w, size=count)
    ys = rng.integers(y0, y0 + box_h, size=count)
    return np.stack([xs, ys], axis=1)


def _cluster_points(
    rng: np.random.Generator,
    dims: ImageDims,
    count: int,
    n_clusters: int,
    std_fraction: float,
) -> np.ndarray:
    """Points in a few tight blobs — large counts, tiny footprint."""
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    std = std_fraction * min(dims.width, dims.height)
    centers = np.stack(
        [
            rng.uniform(0, dims.width, size=n_clusters),
            rng.uniform(0, dims.height, size=n_clusters),
        ],
        axis=1,
    )
    assignment = rng.integers(0, n_clusters, size=count)
    pts = centers[assignment] + rng.normal(0.0, std, size=(count, 2))
    pts[:, 0] = np.clip(pts[:, 0], 0, dims.width - 1)
    pts[:, 1] = np.clip(pts[:, 1], 0, dims.height - 1)
    return np.floor(pts).astype(np.int64)


def _clip_int(rng: np.random.Generator, mean: float, std: float, lo: int, hi: int) -> int:
    return min(max(round(rng.normal(mean, std)), lo), hi)


def _make_record(
    rng: np.random.Generator,
    query_id: str,
    rank: int,
    tag: str,
    dims: ImageDims,
    include_pv: bool,
) -> tuple[PoseRecord, list]:
    """A record whose poses wait for their values, and the 24 values: the
    estimate's 9 rotation and 3 translation values, then the ground truth's."""
    max_t = SYNTH_THRESHOLD.max_translation_m
    max_r = SYNTH_THRESHOLD.max_rotation_deg

    if tag in ("dense", "sparse", "hard"):
        quality = rng.uniform(0.2, 1.0) if tag == "dense" else rng.uniform(0.55, 1.0)
        e_t = ((1.0 - quality) * 0.85 + 0.03) * max_t
        e_r = ((1.0 - quality) * 0.6 + 0.03) * max_r
        if tag == "dense":
            count = _clip_int(rng, 250 + 950 * quality, 90, 60, 2400)
            spread_q = min(max(0.35 + 0.6 * quality + rng.uniform(-0.08, 0.08), 0.15), 1.0)
        else:
            count = _clip_int(rng, 170, 50, 60, 320)
            spread_q = rng.uniform(0.75, 1.0)
        if tag == "hard":
            # correct pose whose inliers nonetheless sit in tight blobs;
            # count is the only feature that vouches for these
            count = _clip_int(rng, 650, 150, 300, 1100)
            k = int(rng.integers(1, 3))
            q_pts = _cluster_points(rng, dims, count, k, rng.uniform(0.02, 0.05))
            d_pts = _cluster_points(rng, dims, count, k, rng.uniform(0.02, 0.05))
        else:
            spread_d = min(max(spread_q + rng.uniform(-0.12, 0.12), 0.15), 1.0)
            q_pts = _spread_points(rng, dims, count, spread_q)
            d_pts = _spread_points(rng, dims, count, spread_d)
        pv_mean, pv_std = 0.62 + 0.25 * quality, 0.10
    else:
        e_t = rng.uniform(2.05, 40.0) * max_t
        e_r = rng.uniform(1.5, 17.0) * max_r
        if tag == "decoy":
            count = _clip_int(rng, 900, 300, 250, 2500)
            k = int(rng.integers(1, 4))
            # half the decoys collapse on both images; the rest only on one
            # side, so each coverage feature has failures only it can flag
            sided = rng.random()
            if sided < 0.3:
                q_pts = _spread_points(rng, dims, count, rng.uniform(0.25, 0.55))
                d_pts = _cluster_points(rng, dims, count, k, rng.uniform(0.012, 0.025))
            elif sided < 0.6:
                q_pts = _cluster_points(rng, dims, count, k, rng.uniform(0.012, 0.025))
                d_pts = _spread_points(rng, dims, count, rng.uniform(0.25, 0.55))
            else:
                q_pts = _cluster_points(rng, dims, count, k, rng.uniform(0.012, 0.025))
                d_pts = _cluster_points(rng, dims, count, k, rng.uniform(0.012, 0.025))
            pv_mean, pv_std = 0.45, 0.12
        elif tag == "plain":
            count = _clip_int(rng, 130, 70, 3, 380)
            k = int(rng.integers(1, 4))
            q_pts = _cluster_points(rng, dims, count, k, rng.uniform(0.02, 0.06))
            d_pts = _cluster_points(rng, dims, count, k, rng.uniform(0.02, 0.06))
            pv_mean, pv_std = 0.30, 0.12
        else:  # junk: too few correspondences to estimate anything
            count = int(rng.integers(0, MIN_CORRESPONDENCES))
            q_pts = _spread_points(rng, dims, count, 1.0)
            d_pts = _spread_points(rng, dims, count, 1.0)
            pv_mean, pv_std = 0.2, 0.1
    pv = min(max(rng.normal(pv_mean, pv_std), 0.0), 1.0) if include_pv else None

    e_r = min(e_r, 179.0)
    r_est, t_est, r_gt, t_gt = _pose_pair(rng, e_t, e_r)
    if tag == "junk":
        num_correspondences = count
    else:
        num_correspondences = count + int(rng.integers(0, max(2, count // 3)))
    record = PoseRecord(
        query_id=query_id,
        candidate_rank=rank,
        query_inliers=InlierSet(q_pts, dims),
        db_inliers=InlierSet(d_pts, dims),
        num_correspondences=num_correspondences,
        estimated_pose=object.__new__(Pose),  # `_Poses.check` gives both their values
        ground_truth_pose=object.__new__(Pose),
        pv_score=pv,
    )
    return record, np.concatenate([r_est.ravel(), t_est, r_gt.ravel(), t_gt]).tolist()


# the regimes of the pooled candidates, in their order in the pool before it is shuffled
_POOLED_TAGS = ("junk", "sparse", "hard", "dense", "decoy", "plain")

# records made at a time, their poses checked as one `_Poses` batch; a fixed
# count, not a query, so memory does not grow with candidates_per_query
SYNTH_CHUNK = 16


class SynthRecords(Sequence[PoseRecord]):
    """The records of `synth_generate`, made in chunks of at most
    SYNTH_CHUNK as they are reached, each chunk's poses checked as one batch.

    Nothing is kept between chunks: every pass replays the same random
    stream from the generator state left after the regime draws, so two
    passes give equal records, and an index replays the stream up to its
    position.  A refused pose fails with its record's 1-based position, its
    line in a written file.  Call `list()` on it for repeated random access.
    """

    def __init__(self, config: SynthConfig, seed: int):
        if seed < 0:  # numpy seeds are non-negative
            raise InvalidConfig(f"seed must be >= 0, got {seed}")
        self.config = config
        self._dims = ImageDims(config.width, config.height)  # query and database images alike
        rng = np.random.default_rng(seed)
        n_failed = int(round(FAILED_QUERY_FRACTION * config.queries))
        n_normal = (config.queries - n_failed) * config.candidates_per_query
        n_junk = int(round(config.junk_fraction * n_normal))
        n_correct = int(round(config.correct_fraction * (n_normal - n_junk)))
        n_incorrect = n_normal - n_junk - n_correct
        n_sparse = int(round(SPARSE_CORRECT_FRACTION * n_correct))
        n_hard = int(round(HARD_CORRECT_FRACTION * n_correct))
        n_decoy = int(round(config.adversarial_fraction * n_incorrect))
        counts = [n_junk, n_sparse, n_hard, n_correct - n_sparse - n_hard,
                  n_decoy, n_incorrect - n_decoy]
        try:
            self._failed = set(rng.permutation(config.queries)[:n_failed].tolist())
            # one tag index per pooled record, shuffled so regimes spread across queries
            pool = np.repeat(np.arange(len(_POOLED_TAGS), dtype=np.uint8), counts)
            self._pool = pool[rng.permutation(n_normal)]
        except (ValueError, MemoryError):  # numpy's size limit, or no memory for the pool
            raise InvalidConfig(
                f"{config.queries} x {config.candidates_per_query} synthetic records "
                "are too many to generate"
            ) from None
        self._rng = rng

    def __len__(self) -> int:
        return self.config.queries * self.config.candidates_per_query

    def __iter__(self) -> Iterator[PoseRecord]:
        config = self.config
        rng = copy.deepcopy(self._rng)
        next_pooled = 0
        poses = _Poses()
        for qi in range(config.queries):
            query_id = f"q{qi:04d}"
            for rank in range(1, config.candidates_per_query + 1):
                if qi in self._failed:
                    tag = "decoy" if rng.random() < config.adversarial_fraction else "plain"
                else:
                    tag = _POOLED_TAGS[self._pool[next_pooled]]
                    next_pooled += 1
                if len(poses.records) == SYNTH_CHUNK:
                    yield from poses.checked()
                    poses = _Poses()
                record, values = _make_record(rng, query_id, rank, tag, self._dims, config.include_pv)
                poses.add(record, values, qi * config.candidates_per_query + rank)
        yield from poses.checked()

    def __getitem__(self, index: int) -> PoseRecord:
        n = len(self)
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"synthetic record index {index} out of range for {n} records")
        return next(islice(self, i, None))


def synth_generate(config: SynthConfig, seed: int = 0) -> SynthRecords:
    """Deterministic synthetic benchmark records (see SynthConfig), as a lazy,
    re-iterable sequence (see SynthRecords).

    A failed-query subset gets only incorrect candidates; the remaining
    records draw from a fraction-sized regime pool that is shuffled so the
    regimes spread across queries.
    """
    return SynthRecords(config, seed)
