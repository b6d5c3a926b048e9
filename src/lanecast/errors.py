"""Exception types shared across the package, the JSON readers every input
file goes through (a whole document, or a list element by element), and the
field rules they apply: ids are strings, numbers finite non-boolean numbers."""

import json
from itertools import chain

import numpy as np


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


def require(obj, key, path=""):
    """obj[key]; ParseError naming `path.key` when `obj` is no JSON object
    or lacks `key`."""
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{path}.{key}" if path else key)
    return obj[key]


def string(value, field, seen=None):
    """A JSON string; with `seen` (string -> field it was read from), also a
    new one, which is added."""
    if not isinstance(value, str):
        raise ParseError(field, f"{field}: must be a string, got {value!r:.60}")
    if seen is not None and seen.setdefault(value, field) != field:
        raise ParseError(field, f"{field}: {value!r:.60} repeats {seen[value]}")
    return value


def integer(value, field, low):
    """A JSON integer, not a boolean, of at least `low`."""
    if type(value) is not int or value < low:
        raise ParseError(field, f"{field}: must be an integer >= {low}, got {value!r:.60}")
    return value


def one_of(value, field, choices):
    """A member of the tuple `choices`."""
    if value not in choices:
        raise ParseError(field, f"{field}: must be one of {', '.join(choices)}, got {value!r:.60}")
    return value


def numbers(value, field, shape, bools=True):
    """Nested JSON lists of finite, non-boolean numbers (one number for shape
    ()) -> float64 array of `shape`; None in it matches any size.
    `bools=False` skips the walk for booleans over every number: for values
    from a document that spells neither `true` nor `false`."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind == "O" and all(type(x) in (int, float) for x in arr.flat):
            arr = arr.astype(np.float64)  # ints beyond int64
        ok = arr.dtype.kind in "iuf"
    except (ValueError, OverflowError):  # ragged nesting; an int beyond float range
        ok = False
    if ok and bools:
        leaves = [value]
        for _ in range(arr.ndim):
            leaves = chain.from_iterable(leaves)
        ok = bool not in map(type, leaves)
    if ok:
        arr = arr.astype(np.float64, copy=False)
        ok = np.isfinite(arr).all()
    if not ok:
        raise ParseError(field, f"{field}: must be finite, non-boolean numbers "
                                f"in equal-length lists")
    if arr.shape != shape and (arr.ndim != len(shape) or any(
            want not in (None, n) for want, n in zip(shape, arr.shape))):
        want = ", ".join("*" if w is None else str(w) for w in shape)
        raise ParseError(field, f"{field}: shape {list(arr.shape)}, want [{want}]")
    return arr
