"""Exception types shared across the package, and the one JSON reader every
input file goes through."""

import json


class LanecastError(Exception):
    """Base class for all lanecast errors."""


class ConfigError(LanecastError):
    """Invalid or inconsistent configuration values."""


class ParseError(LanecastError):
    """A file violates its schema. `field` names the offending entry."""

    def __init__(self, field, message=None):
        self.field = field
        super().__init__(message or f"invalid or missing field: {field}")


class ShapeError(LanecastError):
    """Operands have incompatible shapes."""


class ContractError(LanecastError):
    """A documented precondition or invariant was violated by the caller."""


class EvaluationError(LanecastError):
    """Predictions and ground truth cannot be matched up."""


class EnsembleError(LanecastError):
    """Sub-model predictions are inconsistent or incomplete."""


class TrainingError(LanecastError):
    """Training aborted (non-finite loss or similar)."""


def parse_json(data, what):
    """Bytes or str -> JSON value; any undecodable input is ParseError."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except (ValueError, RecursionError) as e:  # incl. bad UTF-8, huge ints
        raise ParseError("document", f"document: {what} is not valid JSON: {e}") from e
