"""Session replay state machine: events in, flags and a report out.

The engine folds `step` over a session's sensor events. Frame events
drive presence, person-count, and device rules; embedding events answer
identity rechecks; audio windows run through the voice classifier.
Every flag carries a 5-second evidence-clip request anchored at the
flag time. A session with no flags is Clean, anything else is Suspect.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from enum import Enum

from .audio.dsp import PcmWindow, stft_spectrogram
from .audio.model import VoiceModel, band_contrast_model, classify_window
from .config import EngineConfig
from .errors import EngineError
from .events import (
    AudioIntegrityError,
    AudioWindowPayload,
    EventKind,
    FaceEmbeddingPayload,
    FrameDetections,
    SensorEvent,
    SessionLog,
)
from .facematch import ReferenceSet, Verdict, classify_identity
from .objectgate import DEVICE_CLASSES, DeviceVerdict, gate_device_score, person_count


class OutOfOrderEvent(EngineError):
    """An event timestamp went backwards during replay."""


class UnknownEventKind(EngineError):
    """The state machine has no rule for this event kind."""


class FlagKind(str, Enum):
    ANOTHER_PERSON = "AnotherPerson"
    PHONE_DETECTION = "PhoneDetection"
    GENERAL_SUSPICIOUS = "GeneralSuspicious"
    CANDIDATE_ABSENCE = "CandidateAbsence"
    MULTIPLE_PERSONS = "MultiplePersons"
    VOICE_DETECTION = "VoiceDetection"


class SessionLabel(str, Enum):
    CLEAN = "Clean"
    SUSPECT = "Suspect"


_DEVICE_FLAG_KINDS = {
    DeviceVerdict.GENERAL_SUSPICIOUS: FlagKind.GENERAL_SUSPICIOUS,
    DeviceVerdict.PHONE_DETECTION: FlagKind.PHONE_DETECTION,
}


@dataclass(frozen=True)
class EvidenceClipRequest:
    start_t_ms: int
    duration_ms: int
    flag_kind: FlagKind

    def to_dict(self) -> dict:
        return {
            "start_t_ms": self.start_t_ms,
            "duration_ms": self.duration_ms,
            "flag_kind": self.flag_kind.value,
        }


@dataclass(frozen=True)
class FlagEvent:
    """One piece of cheating evidence.

    The payload field depends on the kind: identity flags carry the
    embedding distance, device and voice flags a score or probability,
    absence flags the gap duration, multi-person flags the head count.
    """

    kind: FlagKind
    t_ms: int
    score: float | None = None
    distance: float | None = None
    duration_ms: int | None = None
    person_count: int | None = None
    clip_request: EvidenceClipRequest | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value, "t_ms": self.t_ms}
        if self.score is not None:
            out["score"] = self.score
        if self.distance is not None:
            out["distance"] = self.distance
        if self.duration_ms is not None:
            out["duration_ms"] = self.duration_ms
        if self.person_count is not None:
            out["person_count"] = self.person_count
        if self.clip_request is not None:
            out["clip_request"] = self.clip_request.to_dict()
        return out


@dataclass(frozen=True)
class SessionReport:
    session_id: str
    final_label: SessionLabel
    flags: tuple[FlagEvent, ...]

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "final_label": self.final_label.value,
            "flags": [f.to_dict() for f in self.flags],
        }


def report_to_json(report: SessionReport) -> bytes:
    """Canonical report document: strict JSON, sorted keys, LF-terminated, byte-stable."""
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


@dataclass
class PipelineState:
    """Mutable per-session replay state.

    Holds everything `step` needs between events: presence tracking,
    the single open absence episode, the pending identity recheck bit,
    open device/multi-person/voice episodes, and the flags emitted so
    far. One instance per session; never share across sessions.
    """

    references: ReferenceSet
    last_event_t_ms: int | None = None
    last_present_t_ms: int | None = None
    absence_since_ms: int | None = None
    pending_identity_recheck: bool = False
    in_multi_person: bool = False
    device_flag_index: int | None = None
    in_voice_run: bool = False
    flags: list[FlagEvent] = field(default_factory=list)

    @classmethod
    def initial(cls, references: ReferenceSet) -> "PipelineState":
        return cls(references=references)

    def open_clip_windows(self, now_ms: int) -> list[EvidenceClipRequest]:
        """Clip requests still recording at `now_ms`."""
        return [
            f.clip_request
            for f in self.flags
            if f.clip_request is not None
            and f.clip_request.start_t_ms <= now_ms < f.clip_request.start_t_ms + f.clip_request.duration_ms
        ]


def _clip(t_ms: int, kind: FlagKind, cfg: EngineConfig) -> EvidenceClipRequest:
    return EvidenceClipRequest(start_t_ms=t_ms, duration_ms=cfg.evidence_clip_ms, flag_kind=kind)


def _emit(state: PipelineState, flag: FlagEvent) -> FlagEvent:
    state.flags.append(flag)
    return flag


def _close_absence(state: PipelineState, t_ms: int, cfg: EngineConfig, new: list[FlagEvent]) -> None:
    duration = t_ms - state.absence_since_ms
    state.absence_since_ms = None
    if duration > cfg.absence_long_ms:
        new.append(
            _emit(
                state,
                FlagEvent(
                    kind=FlagKind.CANDIDATE_ABSENCE,
                    t_ms=t_ms,
                    duration_ms=duration,
                    clip_request=_clip(t_ms, FlagKind.CANDIDATE_ABSENCE, cfg),
                ),
            )
        )
    elif duration > cfg.absence_recheck_min_ms:
        state.pending_identity_recheck = True
    if cfg.recheck_on_any_return:
        state.pending_identity_recheck = True


def _step_frame(
    state: PipelineState, ev: SensorEvent, payload: FrameDetections, cfg: EngineConfig
) -> list[FlagEvent]:
    new: list[FlagEvent] = []
    persons = person_count(payload.detections, cfg.person_score_min)

    # Presence / absence bookkeeping. The gap runs from the last frame
    # that still showed the candidate, or from the first empty frame
    # when the session opens on an empty room.
    if persons == 0:
        if state.absence_since_ms is None:
            anchor = state.last_present_t_ms if state.last_present_t_ms is not None else ev.t_ms
            state.absence_since_ms = anchor
    else:
        if state.absence_since_ms is not None:
            _close_absence(state, ev.t_ms, cfg, new)
        state.last_present_t_ms = ev.t_ms

    # Second person alongside the candidate: one flag per contiguous run.
    if persons >= 2:
        if not state.in_multi_person:
            state.in_multi_person = True
            new.append(
                _emit(
                    state,
                    FlagEvent(
                        kind=FlagKind.MULTIPLE_PERSONS,
                        t_ms=ev.t_ms,
                        person_count=persons,
                        clip_request=_clip(ev.t_ms, FlagKind.MULTIPLE_PERSONS, cfg),
                    ),
                )
            )
    else:
        state.in_multi_person = False

    # Device rule: gate the best phone/laptop score of the frame. One
    # flag per contiguous above-low run, holding the run's max score;
    # the kind upgrades in place if a later frame crosses the high bar.
    best_score: float | None = None
    best_label = ""
    for det in payload.detections:
        if det.label in DEVICE_CLASSES and (best_score is None or det.score > best_score):
            best_score = det.score
            best_label = det.label
    verdict = (
        DeviceVerdict.NO_FLAG
        if best_score is None
        else gate_device_score(best_label, best_score, cfg.device_thresholds)
    )
    if verdict is DeviceVerdict.NO_FLAG:
        state.device_flag_index = None
    elif state.device_flag_index is None:
        state.device_flag_index = len(state.flags)
        new.append(
            _emit(
                state,
                FlagEvent(
                    kind=_DEVICE_FLAG_KINDS[verdict],
                    t_ms=ev.t_ms,
                    score=best_score,
                    clip_request=_clip(ev.t_ms, _DEVICE_FLAG_KINDS[verdict], cfg),
                ),
            )
        )
    else:
        open_flag = state.flags[state.device_flag_index]
        if best_score > open_flag.score:
            kind = open_flag.kind
            if verdict is DeviceVerdict.PHONE_DETECTION:
                kind = FlagKind.PHONE_DETECTION
            state.flags[state.device_flag_index] = dataclasses.replace(
                open_flag,
                kind=kind,
                score=best_score,
                clip_request=dataclasses.replace(open_flag.clip_request, flag_kind=kind),
            )
    return new


def _step_embedding(
    state: PipelineState, ev: SensorEvent, payload: FaceEmbeddingPayload, cfg: EngineConfig
) -> list[FlagEvent]:
    if not state.pending_identity_recheck:
        return []
    state.pending_identity_recheck = False
    decision = classify_identity(payload.embedding, state.references, cfg.face_threshold)
    if decision.verdict is Verdict.CLEAN:
        return []
    return [
        _emit(
            state,
            FlagEvent(
                kind=FlagKind.ANOTHER_PERSON,
                t_ms=ev.t_ms,
                distance=decision.min_distance,
                clip_request=_clip(ev.t_ms, FlagKind.ANOTHER_PERSON, cfg),
            ),
        )
    ]


def _step_audio(
    state: PipelineState,
    ev: SensorEvent,
    payload: AudioWindowPayload,
    cfg: EngineConfig,
    voice_model: VoiceModel | None,
) -> list[FlagEvent]:
    if voice_model is None:
        return []
    if payload.samples is None:
        raise AudioIntegrityError(
            f"audio window at t={ev.t_ms} references {payload.path!r}; "
            "resolve file references before replay"
        )
    window = PcmWindow(sample_rate=payload.sample_rate, samples=payload.samples)
    prob = classify_window(stft_spectrogram(window), voice_model)
    if prob <= cfg.voice_threshold:
        state.in_voice_run = False
        return []
    if state.in_voice_run:
        return []
    state.in_voice_run = True
    return [
        _emit(
            state,
            FlagEvent(
                kind=FlagKind.VOICE_DETECTION,
                t_ms=ev.t_ms,
                score=prob,
                clip_request=_clip(ev.t_ms, FlagKind.VOICE_DETECTION, cfg),
            ),
        )
    ]


def step(
    state: PipelineState,
    ev: SensorEvent,
    cfg: EngineConfig,
    voice_model: VoiceModel | None = None,
) -> tuple[PipelineState, list[FlagEvent]]:
    """Advance the state machine by one event.

    Mutates and returns the same state object together with the flags
    this event emitted. Events must arrive in non-decreasing t_ms.
    """
    if state.last_event_t_ms is not None and ev.t_ms < state.last_event_t_ms:
        raise OutOfOrderEvent(
            f"event at t={ev.t_ms} after t={state.last_event_t_ms}"
        )
    if ev.kind is EventKind.FRAME_DETECTIONS:
        new = _step_frame(state, ev, ev.payload, cfg)
    elif ev.kind is EventKind.FACE_EMBEDDING:
        new = _step_embedding(state, ev, ev.payload, cfg)
    elif ev.kind is EventKind.AUDIO_WINDOW:
        new = _step_audio(state, ev, ev.payload, cfg, voice_model)
    elif ev.kind is EventKind.FRAME_IMAGE:
        new = []  # evidence imagery only; no rule reads it
    else:
        raise UnknownEventKind(f"no rule for event kind {ev.kind!r}")
    state.last_event_t_ms = ev.t_ms
    return state, new


def finalize_report(
    state: PipelineState, session_id: str, cfg: EngineConfig | None = None
) -> SessionReport:
    """Close the session: settle any open absence episode, sort, label.

    With a config, an absence still open at the last event time emits
    CandidateAbsence if its observed duration already exceeds the long
    threshold. Suspect iff at least one flag exists.
    """
    if (
        cfg is not None
        and state.absence_since_ms is not None
        and state.last_event_t_ms is not None
    ):
        duration = state.last_event_t_ms - state.absence_since_ms
        if duration > cfg.absence_long_ms:
            t = state.last_event_t_ms
            _emit(
                state,
                FlagEvent(
                    kind=FlagKind.CANDIDATE_ABSENCE,
                    t_ms=t,
                    duration_ms=duration,
                    clip_request=_clip(t, FlagKind.CANDIDATE_ABSENCE, cfg),
                ),
            )
            state.absence_since_ms = None
    flags = tuple(sorted(state.flags, key=lambda f: f.t_ms))
    label = SessionLabel.SUSPECT if flags else SessionLabel.CLEAN
    return SessionReport(session_id=session_id, final_label=label, flags=flags)


def run_session(
    log: SessionLog,
    cfg: EngineConfig | None = None,
    voice_model: VoiceModel | None = None,
) -> SessionReport:
    """Replay one full session log and return its report.

    Uses the log's embedded config when none is given, and the built-in
    band-contrast classifier for audio windows when no voice model is
    given, as `analyze` does. The log is replayed as-is; apply
    resample_frames first when the source may exceed the frame-rate cap.
    """
    if cfg is None:
        cfg = log.config
    if voice_model is None:
        voice_model = band_contrast_model()
    state = PipelineState.initial(log.reference_embeddings)
    for index, ev in enumerate(log.events):
        try:
            step(state, ev, cfg, voice_model)
        except EngineError as exc:
            raise type(exc)(f"event {index}: {exc}") from exc
    return finalize_report(state, log.session_id, cfg)
