"""The checks in `errors`: the JSON decoder against the stdlib decoder it
falls back to, the shared `__eq__` of the value types that hold arrays
(`arrays_eq`), the shared `to_dict` of the result types (`json_fields`),
the result-document writer, the finite-number check, and `from_json`
reading back what `json_fields` writes."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invigil import errors
from invigil.audio.dsp import PcmWindow, Spectrogram
from invigil.audio.train import CVReport, TrainingConfig
from invigil.config import BadConfig, EngineConfig, config_from_dict
from invigil.errors import _MAX_OPENERS, _stdlib_decode, decode_json, from_json, json_document, json_fields
from invigil.events import AudioWindowPayload
from invigil.facematch import Embedding, ReferenceSet
from invigil.objectgate import AccuracyTable, DeviceThresholds
from invigil.segmentation import Frame, PersonMask
from invigil.simulator import InvalidSpec, ScenarioSpec, random_scenario

# ---------------------------------------------------------------------------
# decode_json against the stdlib decoder


def _outcome(decode, text):
    try:
        return "value", decode(text)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def _same(got, want) -> bool:
    """got is want: same types, floats bit for bit, keys in the same order.

    The one difference allowed: an integer outside [-2**63, 2**64) may be
    read as the float nearest it (it is, unless orjson refused the text).
    """
    if type(want) is int and not -(2**63) <= want < 2**64 and type(got) is float:
        return struct.pack("<d", got) == struct.pack("<d", float(want))
    if type(got) is not type(want):
        return False
    if type(want) is float:
        return struct.pack("<d", got) == struct.pack("<d", want) or (math.isnan(got) and math.isnan(want))
    if type(want) is list:
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    if type(want) is dict:
        return list(got) == list(want) and all(_same(got[k], want[k]) for k in want)
    return got == want


def _assert_decodes_as_stdlib(text: str) -> None:
    got, want = _outcome(decode_json, text), _outcome(_stdlib_decode, text)
    if want[0] == "value":
        assert got[0] == "value" and _same(got[1], want[1]), (text[:200], got, want)
    else:
        assert got == want, text[:200]


def _float_from_bits(bits: int) -> str:
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    return repr(x) if math.isfinite(x) else "NaN" if math.isnan(x) else ("-" if x < 0 else "") + "Infinity"


_DIGIT_NUMBERS = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.from_regex(r"\A(0|[1-9][0-9]{0,39})\Z", fullmatch=True),
    st.sampled_from(["", ".5"]) | st.from_regex(r"\A\.[0-9]{1,40}\Z", fullmatch=True),
    st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 340)),
)

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_decode_json_reads_floats_from_any_bit_pattern_as_stdlib(bits):
    text = _float_from_bits(bits)
    _assert_decodes_as_stdlib(text)
    _assert_decodes_as_stdlib(f"[{text}]")


@settings(max_examples=300, deadline=None)
@given(_DIGIT_NUMBERS)
def test_decode_json_reads_long_digit_strings_with_exponents_as_stdlib(text):
    _assert_decodes_as_stdlib(text)
    _assert_decodes_as_stdlib('{"n": ' + text + "}")


@pytest.mark.parametrize(
    "text",
    ["NaN", "-Infinity", "[Infinity, 1]", "1e400", "-1e400", "1e-400", "-1e-400", str(10**400), "9" * 5000]
    # the integers at the edges of [-2**63, 2**64), where decode_json starts to read floats
    + ["-0", "-0.0", str(2**63), str(2**64 - 1), str(2**64), str(-(2**63)), str(-(2**63) - 1), str(10**308)],
)
def test_decode_json_reads_non_finite_and_edge_numbers_as_stdlib(text):
    _assert_decodes_as_stdlib(text)


@settings(max_examples=200, deadline=None)
@given(st.integers(0xD800, 0xDFFF), st.sampled_from(['"\\u{:04x}"', '["\\u{:04X}x"]', '{{"\\u{:04x}": 1}}']))
def test_decode_json_reads_lone_surrogate_escapes_as_stdlib(code, template):
    _assert_decodes_as_stdlib(template.format(code))
    _assert_decodes_as_stdlib('"' + chr(code) + '"')  # the surrogate itself, not escaped


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), _JSON_VALUES), max_size=6))
def test_decode_json_keeps_the_last_of_duplicate_keys_as_stdlib(items):
    _assert_decodes_as_stdlib("{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items) + "}")


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES, st.booleans())
def test_decode_json_reads_any_json_value_as_stdlib(value, ensure_ascii):
    _assert_decodes_as_stdlib(json.dumps(value, ensure_ascii=ensure_ascii))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='[]{}:,"\\ -+.0123456789eEtrufalsnNIiy\t\n\x00\x7f\ud800\xe9'))
def test_decode_json_reads_any_text_as_stdlib(text):
    _assert_decodes_as_stdlib(text)


@pytest.mark.parametrize("depth", [_MAX_OPENERS, _MAX_OPENERS + 1, 100_000])
@pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"k": ', "}")])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
def test_decode_json_reads_deep_nesting_as_stdlib(depth, opener, closer, closed):
    # open, the `[` texts are 512 and 513 characters: one is shorter than the
    # opener bound and is not counted, the other is counted
    text = opener * depth + ("1" + closer * depth if closed else "")
    assert _outcome(decode_json, text) == _outcome(_stdlib_decode, text)  # no floats, so == is exact


def test_decode_json_counts_openers_inside_a_string(monkeypatch):
    # the bound counts every `[` and `{`, quoted ones too, so this text goes to the stdlib decoder
    text = '"' + "[" * 600 + '"'
    texts = []
    monkeypatch.setattr(errors, "_stdlib_decode", lambda t: texts.append(t) or _stdlib_decode(t))
    assert decode_json(text) == _stdlib_decode(text) == "[" * 600
    assert texts == [text]


_RNG = np.random.default_rng(5)
_WINDOW = _RNG.uniform(-0.5, 0.5, 16_000)
_VECTOR = _RNG.normal(size=128)
_PIXELS = _RNG.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
_BITMAP = _RNG.random((4, 5)) < 0.5
_MAGNITUDES = _RNG.random((3, 257))


def _bumped(a: np.ndarray) -> np.ndarray:
    """A copy of a with its last element changed."""
    b = a.copy()
    b.flat[-1] = ~b.flat[-1] if b.dtype == np.bool_ else b.flat[-1] + 1
    return b


# per type: a function that builds a fresh value from copies of the arrays,
# and values that differ from it in one array element or one other field
_TYPES = {
    "Embedding": (
        lambda: Embedding(_VECTOR.copy()),
        [lambda: Embedding(_bumped(_VECTOR))],
    ),
    "ReferenceSet": (
        lambda: ReferenceSet(np.stack([_VECTOR, -_VECTOR])),
        [lambda: ReferenceSet(np.stack([_VECTOR, _bumped(-_VECTOR)]))],
    ),
    "AudioWindowPayload": (
        lambda: AudioWindowPayload(samples=_WINDOW.copy()),
        [
            lambda: AudioWindowPayload(samples=_bumped(_WINDOW)),
            lambda: AudioWindowPayload(path="w.pcm"),
        ],
    ),
    "AudioWindowPayload path": (
        lambda: AudioWindowPayload(path="w.pcm", sha256="ab"),
        [
            lambda: AudioWindowPayload(path="v.pcm", sha256="ab"),
            lambda: AudioWindowPayload(path="w.pcm", sha256="cd"),
            lambda: AudioWindowPayload(path="w.pcm"),
        ],
    ),
    "PcmWindow": (
        lambda: PcmWindow(_WINDOW.copy()),
        [
            lambda: PcmWindow(_bumped(_WINDOW)),
            lambda: PcmWindow(_WINDOW[:8000].copy(), sample_rate=8000),
        ],
    ),
    "Spectrogram": (
        lambda: Spectrogram(_MAGNITUDES.copy(), frame_len=512, hop=256),
        [
            lambda: Spectrogram(_bumped(_MAGNITUDES), frame_len=512, hop=256),
            lambda: Spectrogram(_MAGNITUDES.copy(), frame_len=513, hop=256),  # 257 bins too
            lambda: Spectrogram(_MAGNITUDES.copy(), frame_len=512, hop=128),
        ],
    ),
    "Frame": (
        lambda: Frame(_PIXELS.copy()),
        [lambda: Frame(_bumped(_PIXELS))],
    ),
    "PersonMask": (
        lambda: PersonMask(mask_id=1, bitmap=_BITMAP.copy()),
        [
            lambda: PersonMask(mask_id=1, bitmap=_bumped(_BITMAP)),
            lambda: PersonMask(mask_id=2, bitmap=_BITMAP.copy()),
        ],
    ),
}


@pytest.mark.parametrize("name", list(_TYPES))
def test_array_types_compare_every_field_by_content(name):
    make, others = _TYPES[name]
    a, b = make(), make()
    assert a == b and not a != b
    for other in others:
        c = other()
        assert a != c and c != a and not a == c
    other_type = _TYPES["PersonMask" if isinstance(a, Frame) else "Frame"][0]()
    for stranger in (None, 1, "w.pcm", object(), other_type):
        assert a != stranger
    if isinstance(a, Embedding):
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


class _Colour(str, Enum):
    RED = "red"


@dataclass(frozen=True)
class _Inner:
    colour: _Colour
    note: str | None = None


@dataclass(frozen=True)
class _Outer:
    zero: float
    absent: int | None
    inner: _Inner
    items: tuple[_Inner, ...]
    table: dict[str, float]
    to_dict = json_fields


def test_json_fields_turns_a_result_dataclass_into_its_json_value():
    value = _Outer(
        zero=0.0,
        absent=None,
        inner=_Inner(_Colour.RED),
        items=(_Inner(_Colour.RED, note="n"),),
        table={"b": 2.0, "a": 1.0},
    )
    d = value.to_dict()
    assert d == {
        "zero": 0.0,
        "inner": {"colour": "red"},
        "items": [{"colour": "red", "note": "n"}],
        "table": {"a": 1.0, "b": 2.0},
    }
    assert type(d["inner"]["colour"]) is str and type(d["items"]) is list
    assert list(d["table"]) == ["a", "b"]
    assert json_document(d) == (json.dumps(d, sort_keys=True, indent=2) + "\n").encode()
    with pytest.raises(ValueError, match="Out of range float values"):
        json_document({"nan": float("nan")})


def test_result_types_keep_their_document_keys():
    table = AccuracyTable(
        accuracy={"phone": 0.5, "person": 1.0}, thresholds={"phone": 0.3, "person": 0.5}, matched={}, total={}
    )
    assert table.to_dict() == {
        "accuracy": {"person": 1.0, "phone": 0.5},
        "iou_thresholds": {"person": 0.5, "phone": 0.3},
        "matched": {},
        "total": {},
    }
    report = CVReport(accuracies=(0.5, 1.0), min=0.5, max=1.0, mean=0.75, k=2, repeats=1)
    assert report.to_dict() == {
        "accuracies": [0.5, 1.0], "k": 2, "max": 1.0, "mean": 0.75, "min": 0.5, "repeats": 1, "runs": 2
    }


def test_an_int_beyond_float64_is_not_a_finite_number():
    # decode_json keeps such an int out of JSON input, but a library caller can pass one
    with pytest.raises(BadConfig, match="face_threshold must be a finite number"):
        config_from_dict({"face_threshold": 10**400})
    with pytest.raises(BadConfig, match=r"iou_thresholds\['person'\] must be a finite number"):
        config_from_dict({"iou_thresholds": {"person": 10**400}})
    with pytest.raises(ValueError, match="learning_rate must be a finite number"):
        TrainingConfig(learning_rate=10**400)


# ---------------------------------------------------------------------------
# from_json reads back what json_fields writes


def _read_back(value):
    error = {EngineConfig: BadConfig, ScenarioSpec: InvalidSpec, TrainingConfig: ValueError}[type(value)]
    return from_json(type(value), decode_json(json_document(value.to_dict()).decode()), "document", error)


_UNIT = st.floats(0.0, 1.0)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_INT64 = 2**63 - 1


@st.composite
def _engine_configs(draw):
    low, high = sorted(draw(st.tuples(_UNIT, _UNIT)))
    recheck_min = draw(st.integers(0, _INT64 - 1))
    return EngineConfig(
        face_threshold=draw(_POSITIVE),
        device_thresholds=DeviceThresholds(low=low, high=high),
        person_score_min=draw(_UNIT),
        absence_long_ms=draw(st.integers(recheck_min + 1, _INT64)),
        absence_recheck_min_ms=recheck_min,
        evidence_clip_ms=draw(st.integers(1, _INT64)),
        max_fps=draw(_POSITIVE),
        voice_threshold=draw(_UNIT),
        reference_count=draw(st.integers(1, _INT64)),
        iou_thresholds=draw(st.dictionaries(st.text(max_size=8), _UNIT, max_size=4)),
        blur_radius=draw(st.integers(1, _INT64)),
        recheck_on_any_return=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(_engine_configs())
def test_from_json_reads_back_a_drawn_engine_config(cfg):
    assert _read_back(cfg) == cfg


@pytest.mark.parametrize(
    "value",
    [
        EngineConfig(),
        TrainingConfig(),
        TrainingConfig(learning_rate=0.5, batch_size=3, max_epochs=7, patience=2, val_fraction=0.25),
        ScenarioSpec(duration_ms=1000),
        *(random_scenario(seed) for seed in range(8)),
    ],
    ids=repr,
)
def test_from_json_reads_back_what_json_fields_writes(value):
    back = _read_back(value)
    assert back == value
    assert json_document(back.to_dict()) == json_document(value.to_dict())


def test_from_json_reads_json_numbers_as_their_field_says():
    # a float field given a JSON integer holds a float, so it prints as one
    cfg = config_from_dict({"max_fps": 5, "device_thresholds": {"low": 0, "high": 1}})
    assert type(cfg.max_fps) is float and type(cfg.device_thresholds.low) is float
    assert type(TrainingConfig(learning_rate=1).learning_rate) is float
    with pytest.raises(BadConfig, match="absence_long_ms must be an integer, got 10000.0"):
        config_from_dict({"absence_long_ms": 10000.0})
