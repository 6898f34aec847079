"""The checks in `errors`: the shared `__eq__` of the value types that hold
arrays (`arrays_eq`), the shared `to_dict` of the result types
(`json_fields`), the result-document writer and the finite-number check."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest

from invigil.audio.dsp import PcmWindow, Spectrogram
from invigil.audio.train import CVReport, TrainingConfig
from invigil.config import BadConfig, config_from_dict
from invigil.errors import json_document, json_fields
from invigil.events import AudioWindowPayload
from invigil.facematch import Embedding, ReferenceSet
from invigil.objectgate import AccuracyTable
from invigil.segmentation import Frame, PersonMask

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
    with pytest.raises(BadConfig, match="iou threshold for 'person' must be a finite number"):
        config_from_dict({"iou_thresholds": {"person": 10**400}})
    with pytest.raises(ValueError, match="learning_rate must be a finite number"):
        TrainingConfig(learning_rate=10**400)
