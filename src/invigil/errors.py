"""The engine's error base, and the checks that every reader and value type shares.

This module imports no other engine module: it is the bottom of the
import graph, so any module can import from it without a cycle. Besides
`EngineError` it holds `decode_json`, the decoder of every JSON file the
engine reads (orjson, with the stdlib decoder for what orjson refuses);
`as_int`, `as_number`, `as_finite`, `as_str`, `as_object`
and `as_list`, which return a JSON value or raise naming its field where
a constructor would coerce a bool, float or string; `arrays_eq`, the
`__eq__` of the frozen dataclasses that hold arrays; `json_fields`, the
`to_dict` of the result dataclasses; and `json_document`, the writer of
every JSON result document. Concrete error classes live next to the code
that raises them.
"""

import json
import sys
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any

import numpy as np
import orjson


class EngineError(Exception):
    """Base class for all engine-level validation and data errors."""


def _float64_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer with {len(text)} digits is beyond the float64 range")
    return value


# Every number the engine reads ends up a float64, so the stdlib decoder turns
# away integers beyond that range as a ValueError, like invalid JSON, rather
# than leave them to overflow in a later float(). Nesting past the recursion
# limit raises RecursionError; callers catch both.
_stdlib_decode = json.JSONDecoder(parse_int=_float64_int).decode

# orjson builds nested values by recursion with no depth limit, and a closed
# nesting 100,000 deep crashes the process, so text with more `[` and `{`
# than this goes to the stdlib decoder. The bound is below the stdlib's
# recursion limit, so orjson never decodes a nesting the stdlib refuses.
_MAX_OPENERS = 512


def _few_openers(text: str) -> bool:
    n = 0
    for opener in "[{":
        i = text.find(opener)
        while i != -1:
            n += 1
            if n > _MAX_OPENERS:
                return False
            i = text.find(opener, i + 1)
    return True


def decode_json(text: str) -> Any:
    """The JSON value of `text`, as the stdlib decoder above gives it.

    orjson decodes it when it can, to the same values: it refuses NaN,
    Infinity, numbers that overflow a float64, lone surrogates and invalid
    JSON, and the stdlib decoder then accepts the text or raises its own
    message. The one difference: orjson reads an integer literal outside
    [-2**63, 2**64) as a float, which an integer field then refuses.
    """
    if _few_openers(text):
        try:
            return orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
    return _stdlib_decode(text)


def as_int(value: Any, what: str, error: type[Exception] = ValueError) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def as_number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def as_finite(value: Any, what: str, error: type[Exception] = ValueError) -> float:
    # compared, not converted, so an int beyond the float64 range is refused too
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise error(f"{what} must be a finite number, got {value!r}")
    return float(value)


def as_str(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def as_object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object")
    return value


def as_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def arrays_eq(self: Any, other: object) -> bool:
    """`__eq__` for a frozen dataclass holding arrays: same class, every field equal by content."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def json_fields(value: Any) -> Any:
    """`to_dict` for a result dataclass: the JSON value of a field value.

    A dataclass becomes an object of its fields, in field order, leaving out
    those that are None; an enum member becomes its value, a tuple or list a
    list, and a dict an object with sorted keys. Anything else is returned.
    """
    if is_dataclass(value):
        return {f.name: json_fields(v) for f in fields(value) if (v := getattr(value, f.name)) is not None}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [json_fields(v) for v in value]
    if isinstance(value, dict):
        return {k: json_fields(value[k]) for k in sorted(value)}
    return value


def json_document(data: Any) -> bytes:
    """A result document's bytes: strict JSON (no NaN or Infinity), sorted keys, indent 2, LF-terminated."""
    return (json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("utf-8")
