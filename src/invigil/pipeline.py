"""Session replay state machine: events in, flags and a report out.

The engine folds `step` over a session's sensor events. Frame events
drive presence, person-count, and device rules; embedding events answer
identity rechecks; audio windows run through the voice classifier.
Every flag carries a 5-second evidence-clip request anchored at the
flag time. A session with no flags is Clean, anything else is Suspect.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .audio.dsp import PcmWindow, stft_spectrogram
from .audio.model import NonFiniteOutput, VoiceModel, band_contrast_model, classify_window
from .config import EngineConfig
from .errors import EngineError, json_document, json_fields
from .events import (
    AudioIntegrityError,
    ClassifiedWindow,
    EventKind,
    FaceEmbeddingPayload,
    FrameDetections,
    SensorEvent,
    SessionLog,
)
from .facematch import ReferenceSet, Verdict, classify_identity
from .objectgate import DEVICE_CLASSES, DeviceVerdict, gate_device_score, person_count


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


DEVICE_FLAG_KINDS = {
    DeviceVerdict.GENERAL_SUSPICIOUS: FlagKind.GENERAL_SUSPICIOUS,
    DeviceVerdict.PHONE_DETECTION: FlagKind.PHONE_DETECTION,
}


@dataclass(frozen=True)
class EvidenceClipRequest:
    start_t_ms: int
    duration_ms: int
    flag_kind: FlagKind

    to_dict = json_fields


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

    to_dict = json_fields


@dataclass(frozen=True)
class SessionReport:
    session_id: str
    final_label: SessionLabel
    flags: tuple[FlagEvent, ...]

    to_dict = json_fields


def report_to_json(report: SessionReport) -> bytes:
    """Canonical report document, byte-stable: `json_document` of the report's fields."""
    return json_document(report.to_dict())


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


def _flag(state: PipelineState, kind: FlagKind, t_ms: int, cfg: EngineConfig, **detail) -> None:
    """Record a flag of `kind` at `t_ms` with its evidence-clip request starting then."""
    clip = EvidenceClipRequest(start_t_ms=t_ms, duration_ms=cfg.evidence_clip_ms, flag_kind=kind)
    state.flags.append(FlagEvent(kind=kind, t_ms=t_ms, clip_request=clip, **detail))


def _close_absence(state: PipelineState, t_ms: int, cfg: EngineConfig) -> None:
    duration = t_ms - state.absence_since_ms
    state.absence_since_ms = None
    if duration > cfg.absence_long_ms:
        _flag(state, FlagKind.CANDIDATE_ABSENCE, t_ms, cfg, duration_ms=duration)
    elif duration > cfg.absence_recheck_min_ms:
        state.pending_identity_recheck = True
    if cfg.recheck_on_any_return:
        state.pending_identity_recheck = True


def _step_frame(
    state: PipelineState, ev: SensorEvent, payload: FrameDetections, cfg: EngineConfig
) -> None:
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
            _close_absence(state, ev.t_ms, cfg)
        state.last_present_t_ms = ev.t_ms

    # Second person alongside the candidate: one flag per contiguous run.
    if persons >= 2:
        if not state.in_multi_person:
            state.in_multi_person = True
            _flag(state, FlagKind.MULTIPLE_PERSONS, ev.t_ms, cfg, person_count=persons)
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
        _flag(state, DEVICE_FLAG_KINDS[verdict], ev.t_ms, cfg, score=best_score)
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


def _step_embedding(
    state: PipelineState, ev: SensorEvent, payload: FaceEmbeddingPayload, cfg: EngineConfig
) -> None:
    if not state.pending_identity_recheck:
        return
    state.pending_identity_recheck = False
    decision = classify_identity(payload.embedding, state.references, cfg.face_threshold)
    if decision.verdict is not Verdict.CLEAN:
        _flag(state, FlagKind.ANOTHER_PERSON, ev.t_ms, cfg, distance=decision.min_distance)


def window_probability(ev: SensorEvent, voice_model: VoiceModel) -> float:
    """The voice probability of an audio-window event's inline samples, by `voice_model`.

    Raises AudioIntegrityError for a window that still references a file,
    and NonFiniteOutput when the model gives no finite probability.
    """
    payload = ev.payload
    if payload.samples is None:
        raise AudioIntegrityError(
            f"audio window at t={ev.t_ms} references {payload.path!r}; "
            "resolve file references before replay"
        )
    window = PcmWindow(sample_rate=payload.sample_rate, samples=payload.samples)
    spec = stft_spectrogram(window)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a non-finite probability
        prob = classify_window(spec, voice_model)
    if not math.isfinite(prob):
        raise NonFiniteOutput(f"voice model gave probability {prob} for the audio window at t={ev.t_ms}")
    return prob


def _step_voice(state: PipelineState, t_ms: int, prob: float, cfg: EngineConfig) -> None:
    """The voice rule: one flag per run of windows above the threshold."""
    if prob <= cfg.voice_threshold:
        state.in_voice_run = False
    elif not state.in_voice_run:
        state.in_voice_run = True
        _flag(state, FlagKind.VOICE_DETECTION, t_ms, cfg, score=prob)


def step(state: PipelineState, ev: SensorEvent, cfg: EngineConfig, voice_model: VoiceModel) -> None:
    """Advance the state machine by one event.

    Mutates `state`; the flags so far are in `state.flags`, where a device
    flag is upgraded in place while its run lasts. An audio window is
    classified by `voice_model`; a `ClassifiedWindow` carries its
    probability. Events must arrive in non-decreasing t_ms; the fold does
    not check this. Order is checked where events enter the engine: by
    the log parser (before the frame-rate cap, which could drop an
    out-of-order frame) and by `SessionLog` for in-memory logs.
    """
    if ev.kind is EventKind.FRAME_DETECTIONS:
        _step_frame(state, ev, ev.payload, cfg)
    elif ev.kind is EventKind.FACE_EMBEDDING:
        _step_embedding(state, ev, ev.payload, cfg)
    elif ev.kind is EventKind.AUDIO_WINDOW:
        if type(ev.payload) is ClassifiedWindow:
            prob = ev.payload.probability
        else:
            prob = window_probability(ev, voice_model)
        _step_voice(state, ev.t_ms, prob, cfg)
    # FrameImage: evidence imagery only; no rule reads it
    state.last_event_t_ms = ev.t_ms


def finalize_report(state: PipelineState, session_id: str, cfg: EngineConfig) -> SessionReport:
    """Close the session: settle any open absence episode, sort, label.

    An absence still open at the last event time emits CandidateAbsence
    if its observed duration already exceeds the long threshold. The
    last event time is the one `step` recorded; like `step`, this trusts
    the events to have arrived in order. Suspect iff at least one flag
    exists.
    """
    if state.absence_since_ms is not None:
        t = state.last_event_t_ms
        duration = t - state.absence_since_ms
        if duration > cfg.absence_long_ms:
            _flag(state, FlagKind.CANDIDATE_ABSENCE, t, cfg, duration_ms=duration)
            state.absence_since_ms = None
    flags = tuple(sorted(state.flags, key=lambda f: f.t_ms))
    label = SessionLabel.SUSPECT if flags else SessionLabel.CLEAN
    return SessionReport(session_id=session_id, final_label=label, flags=flags)


def replay_events(
    references: ReferenceSet,
    session_id: str,
    events: Iterable[tuple[int, SensorEvent]],
    cfg: EngineConfig,
    voice_model: VoiceModel | None = None,
    unit: str = "line",
) -> SessionReport:
    """Fold `step` over numbered events and return the session's report.

    The events are replayed as given, one at a time, and none is kept.
    An EngineError raised by an event is re-raised with `unit` and that
    event's number in front, so errors during the replay of a log file
    name its line. Audio windows go through the built-in band-contrast
    classifier when no voice model is given.
    """
    if voice_model is None:
        voice_model = band_contrast_model()
    state = PipelineState.initial(references)
    for number, ev in events:
        try:
            step(state, ev, cfg, voice_model)
        except EngineError as exc:
            raise type(exc)(f"{unit} {number}: {exc}") from exc
    return finalize_report(state, session_id, cfg)


def run_session(log: SessionLog, voice_model: VoiceModel | None = None) -> SessionReport:
    """Replay one full in-memory session log and return its report.

    Uses the log's embedded config and the same voice classifier default
    as `analyze`. The log is replayed as-is, and errors name the event's
    index in it; apply resample_frames first when the source may exceed
    the frame-rate cap.
    """
    return replay_events(
        log.reference_embeddings,
        log.session_id,
        enumerate(log.events),
        log.config,
        voice_model,
        unit="event",
    )
