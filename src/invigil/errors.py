"""The engine's error base, and the checks that every reader and value type shares.

This module imports no other engine module: it is the bottom of the
import graph, so any module can import from it without a cycle. Besides
`EngineError` it holds `decode_json`, the decoder of every JSON file the
engine reads (orjson, with the stdlib decoder for what orjson refuses),
and `json_lines`, the one reader of the JSON-lines inputs through it,
with `json_record` for a single line, which hands a byte line to orjson
undecoded and falls back to `decode_json` for anything orjson does not
read as an object;
`as_int`, `as_number`, `as_finite`, `as_bool`, `as_str`, `as_object`
and `as_list`, which return a JSON value or raise naming its field where
a constructor would coerce a bool, float or string; `arrays_eq`, the
`__eq__` of the frozen dataclasses that hold arrays; `json_fields`, the
`to_dict` of the result dataclasses, and `from_json` with `check_fields`,
its inverse for the typed inputs; and `json_document`, the writer of
every JSON result document. Concrete error classes live next to the code
that raises them.
"""

import json
import sys
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import cache
from typing import Any, Iterable, Iterator, get_args, get_origin, get_type_hints

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


def _few_openers(text: bytes | str) -> bool:
    """Whether `text` holds at most `_MAX_OPENERS` `[` and `{`, quoted or not.

    A text holds no more openers than characters, so a text this short is
    not counted. Otherwise each opener is found with `find` (a memchr), which
    stops at the first opener past the bound. UTF-8 never puts the bytes of
    `[` and `{` inside another character, so a byte line counts the same as
    its text.
    """
    if len(text) <= _MAX_OPENERS:
        return True
    left = _MAX_OPENERS
    for opener in ("[", "{") if isinstance(text, str) else (b"[", b"{"):
        at = text.find(opener)
        while at >= 0:
            left -= 1
            if left < 0:
                return False
            at = text.find(opener, at + 1)
    return True


def decode_json(text: str) -> Any:
    """The JSON value of `text`, as the stdlib decoder above gives it.

    orjson decodes it when it can, to the same values: it refuses NaN,
    Infinity, numbers that overflow a float64, lone surrogates and invalid
    JSON, and the stdlib decoder then accepts the text or raises its own
    message. Text with more than `_MAX_OPENERS` `[` and `{` goes to the
    stdlib decoder alone (`_few_openers`). The one difference: orjson reads
    an integer literal outside [-2**63, 2**64) as a float, which an integer
    field then refuses.
    """
    if _few_openers(text):
        try:
            return orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
    return _stdlib_decode(text)


def json_record(line: bytes | str, lineno: int, where: str, error: type[Exception]) -> dict | None:
    """The JSON object on line `lineno`, or None when the line is blank.

    A line is blank when it is empty or all whitespace (`str.isspace`). A line
    that is not UTF-8, not JSON or not an object raises `error`, its message
    starting with `where` and the line number.

    When `_few_openers` allows, the line goes to orjson as it is, bytes
    undecoded, and an object orjson reads is returned. orjson refuses a byte
    line that is not UTF-8 or starts with a byte order mark, and reads any
    other the same as its text, so that object is the one `decode_json`
    gives. Any other line is decoded, checked for blankness, read by
    `decode_json` and checked to be an object, which gives every value and
    every message.
    """
    if _few_openers(line):
        try:
            rec = orjson.loads(line)
        except orjson.JSONDecodeError:
            pass
        else:
            if type(rec) is dict:
                return rec
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{where}{lineno}: not valid UTF-8: {exc}") from exc
    if not line or line.isspace():
        return None
    try:
        rec = decode_json(line)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}{lineno}: not valid JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise error(f"{where}{lineno}: record must be a JSON object")
    return rec


def json_lines(lines: Iterable[bytes | str], where: str, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) of each non-blank line, decoded one at a time by `json_record`."""
    for lineno, line in enumerate(lines, start=1):
        rec = json_record(line, lineno, where, error)
        if rec is not None:
            yield lineno, rec


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


def as_bool(value: Any, what: str, error: type[Exception] = ValueError) -> bool:
    if not isinstance(value, bool):
        raise error(f"{what} must be true or false, got {value!r}")
    return value


def as_str(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def as_object(value: Any, what: str, error: type[Exception] = ValueError) -> dict:
    if not isinstance(value, dict):
        raise error(f"{what} must be an object")
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


def from_json(cls: type, value: Any, what: str, error: type[Exception]) -> Any:
    """The dataclass `cls` read from the JSON object `value`, called `what` in errors.

    A key that names no field is refused, and so is a missing one whose field
    has no default. The values go to `cls` as given: its `__post_init__`
    checks them through `check_fields`.
    """
    obj = as_object(value, what, error)
    _check_keys(cls, obj, "", False, error)
    return cls(**obj)


def check_fields(value: Any, error: type[Exception]) -> None:
    """`__post_init__` of a type `from_json` reads: each field read as its annotation says.

    `float` takes a finite number, `int` an integer, `bool` true or false, an
    enum a member or its value, `tuple[X, ...]` a list and `dict[str, X]` an
    object. A dataclass field takes an instance or an object that gives every
    field, since it replaces the whole value; one in a list may leave out those
    with a default. Errors name the path, such as `episodes[0].start_ms`.
    """
    hints = _hints(type(value))
    for f in fields(value):
        object.__setattr__(value, f.name, _read(hints[f.name], getattr(value, f.name), f.name, error))


@cache
def _hints(cls: type) -> dict[str, Any]:
    return get_type_hints(cls)


def _check_keys(cls: type, obj: dict, prefix: str, every: bool, error: type[Exception]) -> None:
    names = {f.name for f in fields(cls)}
    for key in obj:
        if key not in names:
            raise error(f"unknown key {prefix + key!r}")
    for f in fields(cls):
        if f.name not in obj and (every or (f.default is MISSING and f.default_factory is MISSING)):
            raise error(f"missing key {prefix + f.name!r}")


def _read(tp: Any, value: Any, what: str, error: type[Exception], every: bool = True) -> Any:
    if tp is float:
        return as_finite(value, what, error)
    if tp is int:
        return as_int(value, what, error)
    if tp is bool:
        return as_bool(value, what, error)
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise error(f"{what} must be one of {[m.value for m in tp]}, got {value!r}") from None
    if is_dataclass(tp):
        obj = vars(value) if isinstance(value, tp) else as_object(value, what, error)
        _check_keys(tp, obj, f"{what}.", every, error)
        kwargs = {k: _read(_hints(tp)[k], v, f"{what}.{k}", error) for k, v in obj.items()}
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise error(f"{what}: {exc}") from exc
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise error(f"{what} must be a list")
        return tuple(_read(args[0], v, f"{what}[{i}]", error, False) for i, v in enumerate(value))
    if origin is dict:
        return {k: _read(args[1], v, f"{what}[{k!r}]", error) for k, v in as_object(value, what, error).items()}
    raise TypeError(f"{what}: no JSON reading for {tp!r}")


def json_document(data: Any) -> bytes:
    """A result document's bytes: strict JSON (no NaN or Infinity), sorted keys, indent 2, LF-terminated."""
    return (json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("utf-8")
