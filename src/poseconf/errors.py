"""Exception types shared across the toolkit."""

from __future__ import annotations


class PoseconfError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(PoseconfError):
    """A record field is missing, has the wrong type, or is out of domain."""

    def __init__(
        self,
        line: int | None = None,
        field: str | None = None,
        message: str = "malformed record",
    ):
        self.line = line
        self.field = field
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        parts.append(message)
        super().__init__(": ".join(parts))


class InvariantViolation(PoseconfError):
    """A structural or cross-field invariant does not hold."""

    def __init__(self, description: str, line: int | None = None):
        self.line = line
        self.description = description
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{description}")


class InvalidConfig(PoseconfError):
    """A configuration value is outside its allowed range."""


class MissingFeature(PoseconfError):
    """A requested feature is not available on the record."""


class InsufficientData(PoseconfError):
    """Too few samples for the requested fit."""


class DimensionMismatch(PoseconfError):
    """Vector length does not match the expected feature count."""


class EmptyDataset(PoseconfError):
    """An operation requiring at least one sample received none."""


class SingleClassData(PoseconfError):
    """Training data contains only one label class."""


class NoPositives(PoseconfError):
    """Precision-recall is undefined without at least one positive label."""


class MissingGroundTruth(PoseconfError):
    """A record lacks the ground-truth pose required by the operation."""

    def __init__(self, query_id: str, candidate_rank: int):
        self.query_id = query_id
        self.candidate_rank = candidate_rank
        super().__init__(
            f"record {query_id!r} (rank {candidate_rank}) has no ground-truth pose"
        )


class EmptyCandidates(PoseconfError):
    """Reranking requires at least one candidate."""


class TooFewQueries(PoseconfError):
    """Grouped splitting requires at least two distinct query ids."""
