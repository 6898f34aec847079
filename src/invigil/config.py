"""Engine configuration.

All rule constants live in EngineConfig so a session log can embed the
exact configuration it was captured under and a run can override it
from a config file. Both are read through `errors.from_json`, so unknown
keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import EngineError, check_fields, from_json, json_fields
from .facematch import DEFAULT_FACE_THRESHOLD
from .objectgate import DEFAULT_IOU_THRESHOLDS, DEFAULT_PERSON_SCORE_MIN, DeviceThresholds


class BadConfig(EngineError):
    """A config file or embedded config snapshot violates the schema."""


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
        check_fields(self, BadConfig)
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
        return config_from_dict({**self.to_dict(), **overrides})


def config_from_dict(data: Mapping[str, Any]) -> EngineConfig:
    """The EngineConfig of a JSON object of fields; those it leaves out keep their defaults."""
    return from_json(EngineConfig, data, "config", BadConfig)
