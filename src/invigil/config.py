"""Engine configuration and the JSON config-file surface.

All rule constants live in EngineConfig so a session log can embed the
exact configuration it was captured under and a run can override it
from a config file. Unknown keys in config files are rejected.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .errors import EngineError, as_finite, as_int, decode_json, json_fields
from .facematch import DEFAULT_FACE_THRESHOLD
from .objectgate import DEFAULT_IOU_THRESHOLDS, DEFAULT_PERSON_SCORE_MIN, DeviceThresholds


class BadConfig(EngineError):
    """A config file or embedded config snapshot violates the schema."""


_NUMBER_FIELDS = ("face_threshold", "person_score_min", "max_fps", "voice_threshold")
_INTEGER_FIELDS = (
    "absence_long_ms",
    "absence_recheck_min_ms",
    "evidence_clip_ms",
    "reference_count",
    "blur_radius",
)


@dataclass(frozen=True)
class EngineConfig:
    """Thresholds and timing constants for the detection rules.

    Times are integer milliseconds. The absence rules use strict
    comparisons: an episode longer than absence_long_ms flags absence
    outright; one longer than absence_recheck_min_ms (but not longer
    than absence_long_ms) schedules an identity recheck on return.
    """

    face_threshold: float = DEFAULT_FACE_THRESHOLD
    device_thresholds: DeviceThresholds = field(default_factory=DeviceThresholds)
    person_score_min: float = DEFAULT_PERSON_SCORE_MIN
    absence_long_ms: int = 10_000
    absence_recheck_min_ms: int = 5_000
    evidence_clip_ms: int = 5_000
    max_fps: float = 3.0
    voice_threshold: float = 0.5
    reference_count: int = 20
    iou_thresholds: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_IOU_THRESHOLDS)
    )
    blur_radius: int = 9
    recheck_on_any_return: bool = False

    def __post_init__(self) -> None:
        for name in _NUMBER_FIELDS:
            as_finite(getattr(self, name), name, BadConfig)
        for name in _INTEGER_FIELDS:
            as_int(getattr(self, name), name, BadConfig)
        if self.face_threshold <= 0:
            raise BadConfig("face_threshold must be positive")
        if not (0.0 <= self.person_score_min <= 1.0):
            raise BadConfig("person_score_min must be in [0, 1]")
        if not (0.0 <= self.voice_threshold <= 1.0):
            raise BadConfig("voice_threshold must be in [0, 1]")
        if self.absence_recheck_min_ms >= self.absence_long_ms:
            raise BadConfig("absence_recheck_min_ms must be smaller than absence_long_ms")
        if self.absence_recheck_min_ms < 0:
            raise BadConfig("absence_recheck_min_ms must be non-negative")
        if self.evidence_clip_ms <= 0:
            raise BadConfig("evidence_clip_ms must be positive")
        if self.max_fps <= 0:
            raise BadConfig("max_fps must be positive")
        if self.reference_count < 1:
            raise BadConfig("reference_count must be at least 1")
        if self.blur_radius < 1:
            raise BadConfig("blur_radius must be at least 1")
        for cls, th in self.iou_thresholds.items():
            if not (0.0 <= th <= 1.0):
                raise BadConfig(f"iou threshold for {cls!r} must be in [0, 1]")

    to_dict = json_fields

    def merged(self, overrides: Mapping[str, Any]) -> "EngineConfig":
        """Return a copy with the given fields replaced. Unknown keys raise."""
        return _config_from_dict(self.to_dict() | _validate_keys(overrides))


_ENGINE_KEYS = {f.name for f in dataclasses.fields(EngineConfig)}


def _validate_keys(data: Mapping[str, Any]) -> dict[str, Any]:
    unknown = set(data) - _ENGINE_KEYS
    if unknown:
        raise BadConfig(f"unknown config keys: {sorted(unknown)}")
    return dict(data)


def _config_from_dict(data: Mapping[str, Any]) -> EngineConfig:
    values = _validate_keys(data)
    if "device_thresholds" in values:
        dt = values["device_thresholds"]
        if not isinstance(dt, Mapping):
            raise BadConfig("device_thresholds must be an object with low and high")
        extra = set(dt) - {"low", "high"}
        if extra:
            raise BadConfig(f"unknown device_thresholds keys: {sorted(extra)}")
        try:
            values["device_thresholds"] = DeviceThresholds(
                low=as_finite(dt["low"], "device_thresholds.low", BadConfig),
                high=as_finite(dt["high"], "device_thresholds.high", BadConfig),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadConfig(f"bad device_thresholds: {exc}") from exc
    if "iou_thresholds" in values:
        it = values["iou_thresholds"]
        if not isinstance(it, Mapping):
            raise BadConfig("iou_thresholds must be a mapping of class to threshold")
        values["iou_thresholds"] = {
            str(k): as_finite(v, f"iou threshold for {k!r}", BadConfig) for k, v in it.items()
        }
    try:
        return EngineConfig(**values)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"bad config values: {exc}") from exc


def config_from_dict(data: Mapping[str, Any]) -> EngineConfig:
    """Build an EngineConfig from a (possibly partial) plain dict."""
    return EngineConfig().merged(data)


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Read a JSON config file and validate its keys.

    The file may set any EngineConfig field plus an optional "audio"
    object with training hyperparameters (see audio.train). Returns the
    raw validated dict so callers control merge order.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = decode_json(fh.read())
    except (ValueError, RecursionError) as exc:
        raise BadConfig(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BadConfig(f"{path}: config file must hold a JSON object")
    audio = data.pop("audio", None)
    _validate_keys(data)
    if audio is not None:
        if not isinstance(audio, dict):
            raise BadConfig(f"{path}: audio section must be an object")
        data["audio"] = audio
    return data
