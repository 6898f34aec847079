"""The engine's error base, and the checks that every reader and value type shares.

This module imports no other engine module: it is the bottom of the
import graph, so any module can import from it without a cycle. Besides
`EngineError` it holds `decode_json`, the decoder of every JSON file the
engine reads; `as_int`, `as_number`, `as_finite`, `as_str` and
`as_object`, which return a JSON value or raise naming its field where a
constructor would coerce a bool, float or string; and `arrays_eq`, the
`__eq__` of the frozen dataclasses that hold arrays. Concrete error
classes live next to the code that raises them.
"""

import json
import sys
from dataclasses import fields
from typing import Any

import numpy as np


class EngineError(Exception):
    """Base class for all engine-level validation and data errors."""


def _float64_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer with {len(text)} digits is beyond the float64 range")
    return value


# Every number the engine reads ends up a float64, so JSON input is decoded
# with integers beyond that range turned away as a ValueError, like invalid
# JSON, rather than left to overflow in a later float(). Nesting past the
# recursion limit raises RecursionError; callers catch both.
decode_json = json.JSONDecoder(parse_int=_float64_int).decode


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


def arrays_eq(self: Any, other: object) -> bool:
    """`__eq__` for a frozen dataclass holding arrays: same class, every field equal by content."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
