"""Exception types shared across the package, and the JSON readers every
input file goes through: a whole document, or a list element by element."""

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


def iter_json_list(data, what):
    """Bytes or str holding a JSON list -> its elements, decoded one at a time.
    Any other input is ParseError, raised once the scan reaches the fault."""
    skip = json.decoder.WHITESPACE.match  # the whitespace json.loads skips
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        decode = json.JSONDecoder().raw_decode
        i = skip(text).end()
        if not text.startswith("[", i):
            raise ValueError(what)
        i = skip(text, i + 1).end()
        more = not text.startswith("]", i)
        while more:
            item, i = decode(text, i)
            yield item
            i = skip(text, i).end()
            more = text.startswith(",", i)
            i = skip(text, i + more).end()  # past the comma
        if not text.startswith("]", i) or skip(text, i + 1).end() != len(text):
            raise ValueError(what)
    except (ValueError, RecursionError):  # incl. JSONDecodeError, bad UTF-8, huge ints
        parse_json(data, what)
        raise ParseError("document", f"{what} must be a JSON list") from None
