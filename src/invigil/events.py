"""Sensor-event data model and session-log I/O.

A session log is a line-delimited JSON stream: a header record, a
reference-embeddings record, then timestamped sensor events (frame
detections, face embeddings, one-second audio windows, frame image
references). Serialization is canonical so identical logs give
identical bytes.

Reading is one pass over the lines. `read_session_log` parses the header
and references at once and then yields each event, decoded and validated,
as its line is read, paired with the line's number in the file; nothing
of a line is kept once the next one is read, so memory does not grow with
the session. The first bad line stops the read and is the one reported.
The frame-rate cap (`frame_rate_cap`) and audio-file loading
(`resolve_audio`) also work one event at a time. `parse_session_log`,
`resample_frames` and `resolve_audio_refs` are the same steps applied to
a whole in-memory `SessionLog`.

Timestamps are integer milliseconds since session start, strictly
non-decreasing; ties keep file order so detections and embeddings can
share a frame.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Union

import numpy as np

from .config import BadConfig, EngineConfig, config_from_dict
from .errors import EngineError
from .facematch import Embedding, ReferenceSet
from .objectgate import BoundingBox, Detection, InvalidScore

DEFAULT_SAMPLE_RATE = 16_000

# Detector label aliases normalised at parse time (COCO naming).
LABEL_ALIASES = {"cell phone": "phone", "mobile phone": "phone"}


class MalformedRecord(EngineError):
    """A log line is not a valid record; the message carries the line number."""


class NonMonotonicTime(EngineError):
    """An event timestamp is earlier than its predecessor."""


class MissingReferences(EngineError):
    """The log has no reference-embeddings record."""


class AudioIntegrityError(EngineError):
    """A referenced audio file fails its hash or length check."""


class EventKind(str, Enum):
    FRAME_DETECTIONS = "FrameDetections"
    FACE_EMBEDDING = "FaceEmbedding"
    AUDIO_WINDOW = "AudioWindow"
    FRAME_IMAGE = "FrameImage"


# Kinds subject to the frames-per-second cap; audio and embeddings are not.
FRAME_KINDS = frozenset({EventKind.FRAME_DETECTIONS, EventKind.FRAME_IMAGE})


@dataclass(frozen=True)
class FrameDetections:
    detections: tuple[Detection, ...]


@dataclass(frozen=True)
class FaceEmbeddingPayload:
    embedding: Embedding


@dataclass(frozen=True, eq=False)
class AudioWindowPayload:
    """Exactly one second of mono PCM, inline or by file reference.

    Inline samples are validated to sample_rate entries at construction.
    File references carry a sha256 over the raw PCM bytes and are
    checked when loaded.
    """

    sample_rate: int = DEFAULT_SAMPLE_RATE
    samples: np.ndarray | None = None
    path: str | None = None
    sha256: str | None = None

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if (self.samples is None) == (self.path is None):
            raise ValueError("audio window needs exactly one of inline samples or a path")
        if self.samples is not None:
            arr = np.asarray(self.samples, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != self.sample_rate:
                raise ValueError(
                    f"audio window must hold exactly {self.sample_rate} samples, got shape {arr.shape}"
                )
            if not np.isfinite(arr).all():
                raise ValueError("audio samples must be finite")
            object.__setattr__(self, "samples", arr)

    @property
    def inline(self) -> bool:
        return self.samples is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AudioWindowPayload):
            return NotImplemented
        if (self.sample_rate, self.path, self.sha256) != (
            other.sample_rate,
            other.path,
            other.sha256,
        ):
            return False
        if (self.samples is None) != (other.samples is None):
            return False
        return self.samples is None or bool(np.array_equal(self.samples, other.samples))


@dataclass(frozen=True)
class FrameImageRef:
    """Reference to an evidence frame image on disk (binary PPM)."""

    path: str


Payload = Union[FrameDetections, FaceEmbeddingPayload, AudioWindowPayload, FrameImageRef]

_PAYLOAD_TYPES: dict[EventKind, type] = {
    EventKind.FRAME_DETECTIONS: FrameDetections,
    EventKind.FACE_EMBEDDING: FaceEmbeddingPayload,
    EventKind.AUDIO_WINDOW: AudioWindowPayload,
    EventKind.FRAME_IMAGE: FrameImageRef,
}


@dataclass(frozen=True)
class SensorEvent:
    t_ms: int
    kind: EventKind
    payload: Payload

    def __post_init__(self) -> None:
        if not isinstance(self.t_ms, int) or isinstance(self.t_ms, bool):
            raise ValueError(f"t_ms must be an integer, got {self.t_ms!r}")
        if self.t_ms < 0:
            raise ValueError(f"t_ms must be non-negative, got {self.t_ms}")
        expected = _PAYLOAD_TYPES[EventKind(self.kind)]
        if not isinstance(self.payload, expected):
            raise ValueError(
                f"payload for {self.kind} must be {expected.__name__}, got {type(self.payload).__name__}"
            )


@dataclass(frozen=True)
class SessionLog:
    session_id: str
    config: EngineConfig
    reference_embeddings: ReferenceSet
    events: tuple[SensorEvent, ...]

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for prev, cur in zip(events, events[1:]):
            if cur.t_ms < prev.t_ms:
                raise NonMonotonicTime(
                    f"event at t={cur.t_ms} follows event at t={prev.t_ms}"
                )
        object.__setattr__(self, "events", events)


# ---------------------------------------------------------------------------
# Parsing


def _expect(record: Mapping, key: str, lineno: int) -> Any:
    if key not in record:
        raise MalformedRecord(f"line {lineno}: missing key {key!r}")
    return record[key]


def _as_int(value: Any, what: str, lineno: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedRecord(f"line {lineno}: {what} must be an integer, got {value!r}")
    return value


def _as_number(value: Any, what: str, lineno: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedRecord(f"line {lineno}: {what} must be a number, got {value!r}")
    return float(value)


def _parse_box(rec: Any, lineno: int) -> BoundingBox:
    if not isinstance(rec, Mapping):
        raise MalformedRecord(f"line {lineno}: box must be an object")
    try:
        return BoundingBox(
            x=_as_number(_expect(rec, "x", lineno), "box.x", lineno),
            y=_as_number(_expect(rec, "y", lineno), "box.y", lineno),
            w=_as_number(_expect(rec, "w", lineno), "box.w", lineno),
            h=_as_number(_expect(rec, "h", lineno), "box.h", lineno),
        )
    except ValueError as exc:
        raise MalformedRecord(f"line {lineno}: {exc}") from exc


def _parse_payload(kind: EventKind, payload: Any, lineno: int) -> Payload:
    if not isinstance(payload, Mapping):
        raise MalformedRecord(f"line {lineno}: payload must be an object")
    if kind is EventKind.FRAME_DETECTIONS:
        items = _expect(payload, "detections", lineno)
        if not isinstance(items, list):
            raise MalformedRecord(f"line {lineno}: detections must be a list")
        dets = []
        for item in items:
            if not isinstance(item, Mapping):
                raise MalformedRecord(f"line {lineno}: detection must be an object")
            label = _expect(item, "class", lineno)
            if not isinstance(label, str):
                raise MalformedRecord(f"line {lineno}: detection class must be a string, got {label!r}")
            label = LABEL_ALIASES.get(label.lower(), label.lower())
            score = _as_number(_expect(item, "score", lineno), "score", lineno)
            box = _parse_box(_expect(item, "box", lineno), lineno)
            try:
                dets.append(Detection(label=label, score=score, box=box))
            except InvalidScore as exc:
                raise MalformedRecord(f"line {lineno}: {exc}") from exc
        return FrameDetections(detections=tuple(dets))
    if kind is EventKind.FACE_EMBEDDING:
        values = _expect(payload, "embedding", lineno)
        if not isinstance(values, list):
            raise MalformedRecord(f"line {lineno}: embedding must be a list")
        try:
            return FaceEmbeddingPayload(embedding=Embedding.from_list(values))
        except (EngineError, TypeError, ValueError) as exc:
            raise MalformedRecord(f"line {lineno}: {exc}") from exc
    if kind is EventKind.AUDIO_WINDOW:
        rate = _as_int(payload.get("sample_rate", DEFAULT_SAMPLE_RATE), "sample_rate", lineno)
        samples = payload.get("samples")
        path = payload.get("path")
        sha = payload.get("sha256")
        try:
            if samples is not None:
                return AudioWindowPayload(
                    sample_rate=rate, samples=np.asarray(samples, dtype=np.float64)
                )
            if path is None:
                raise ValueError("audio window needs samples or a path")
            return AudioWindowPayload(
                sample_rate=rate, path=str(path), sha256=None if sha is None else str(sha)
            )
        except (TypeError, ValueError) as exc:
            raise MalformedRecord(f"line {lineno}: {exc}") from exc
    if kind is EventKind.FRAME_IMAGE:
        return FrameImageRef(path=str(_expect(payload, "path", lineno)))
    raise MalformedRecord(f"line {lineno}: unhandled kind {kind}")


@dataclass(frozen=True)
class SessionStream:
    """A session log opened for one pass: header and references read.

    `events` yields (line number in the file, SensorEvent) pairs, each
    record parsed and validated when its line is read. It can be
    consumed once.
    """

    session_id: str
    config: EngineConfig
    reference_embeddings: ReferenceSet
    events: Iterator[tuple[int, SensorEvent]]


def _records(lines: Iterable[bytes | str]) -> Iterator[tuple[int, Mapping]]:
    """(line number, JSON object) of each non-blank line, decoded one at a time."""
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedRecord(f"line {lineno}: not valid UTF-8: {exc}") from exc
        if not line or line.isspace():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"line {lineno}: not valid JSON: {exc}") from exc
        if not isinstance(rec, Mapping):
            raise MalformedRecord(f"line {lineno}: record must be a JSON object")
        yield lineno, rec


def _events(records: Iterator[tuple[int, Mapping]]) -> Iterator[tuple[int, SensorEvent]]:
    last_t: int | None = None
    for lineno, rec in records:
        t_ms = _as_int(_expect(rec, "t_ms", lineno), "t_ms", lineno)
        if t_ms < 0:
            raise MalformedRecord(f"line {lineno}: t_ms must be non-negative, got {t_ms}")
        kind_raw = _expect(rec, "kind", lineno)
        try:
            kind = EventKind(kind_raw)
        except ValueError as exc:
            raise MalformedRecord(f"line {lineno}: unknown event kind {kind_raw!r}") from exc
        if last_t is not None and t_ms < last_t:
            raise NonMonotonicTime(
                f"line {lineno}: t_ms {t_ms} is earlier than previous event at {last_t}"
            )
        last_t = t_ms
        payload = _parse_payload(kind, _expect(rec, "payload", lineno), lineno)
        yield lineno, SensorEvent(t_ms=t_ms, kind=kind, payload=payload)


def read_session_log(lines: Iterable[bytes | str]) -> SessionStream:
    """Open a line-delimited session log for one streaming pass.

    `lines` is an iterable of byte or text lines (an open binary file).
    The header and reference records are parsed here; events are parsed
    and validated lazily as `SessionStream.events` is consumed. Raises
    MalformedRecord with the offending line number, NonMonotonicTime
    when timestamps go backwards, and MissingReferences when the
    reference-embeddings record is absent.
    """
    records = _records(lines)
    first = next(records, None)
    if first is None:
        raise MissingReferences("empty log: no reference embeddings")
    lineno, header = first
    if header.get("kind") != "header":
        raise MalformedRecord(
            f"line {lineno}: first record must be the header, got kind {header.get('kind')!r}"
        )
    session_id = str(_expect(header, "session_id", lineno))
    raw_config = header.get("config", {})
    if not isinstance(raw_config, Mapping):
        raise MalformedRecord(f"line {lineno}: config must be an object")
    try:
        config = config_from_dict(raw_config)
    except BadConfig as exc:
        raise MalformedRecord(f"line {lineno}: {exc}") from exc

    second = next(records, None)
    if second is None:
        raise MissingReferences("log ends before the reference embeddings record")
    lineno, refs_rec = second
    if refs_rec.get("kind") != "references":
        raise MissingReferences(
            f"second record must hold reference embeddings, got kind {refs_rec.get('kind')!r}"
        )
    rows = _expect(refs_rec, "embeddings", lineno)
    if not isinstance(rows, list) or not rows:
        raise MissingReferences("reference embeddings record is empty")
    try:
        references = ReferenceSet.from_lists(rows, expected_count=config.reference_count)
    except (EngineError, TypeError, ValueError) as exc:
        raise MalformedRecord(f"line {lineno}: {exc}") from exc
    return SessionStream(session_id, config, references, _events(records))


def parse_session_log(stream: bytes | str | Iterable[bytes]) -> SessionLog:
    """Parse and validate a whole session log into memory.

    Accepts raw bytes, text, or an iterable of byte lines (an open
    binary file); reads through `read_session_log`, so it raises the
    same errors.
    """
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)
    elif isinstance(stream, str):
        stream = io.StringIO(stream, newline="\n")
    log = read_session_log(stream)
    return SessionLog(
        session_id=log.session_id,
        config=log.config,
        reference_embeddings=log.reference_embeddings,
        events=tuple(ev for _, ev in log.events),
    )


# ---------------------------------------------------------------------------
# Serialization


def _dump(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _payload_to_dict(payload: Payload) -> dict:
    if isinstance(payload, FrameDetections):
        return {
            "detections": [
                {
                    "class": d.label,
                    "score": d.score,
                    "box": {"x": d.box.x, "y": d.box.y, "w": d.box.w, "h": d.box.h},
                }
                for d in payload.detections
            ]
        }
    if isinstance(payload, FaceEmbeddingPayload):
        return {"embedding": [float(v) for v in payload.embedding.values]}
    if isinstance(payload, AudioWindowPayload):
        out: dict[str, Any] = {"sample_rate": payload.sample_rate}
        if payload.inline:
            out["samples"] = [float(v) for v in payload.samples]
        else:
            out["path"] = payload.path
            if payload.sha256 is not None:
                out["sha256"] = payload.sha256
        return out
    if isinstance(payload, FrameImageRef):
        return {"path": payload.path}
    raise TypeError(f"unknown payload type {type(payload).__name__}")


def serialize_session_log(log: SessionLog) -> bytes:
    """Canonical line-delimited form; parses back to an equal SessionLog."""
    lines = [
        _dump({"kind": "header", "session_id": log.session_id, "config": log.config.to_dict()}),
        _dump(
            {
                "kind": "references",
                "embeddings": [
                    [float(v) for v in emb.values]
                    for emb in log.reference_embeddings.references
                ],
            }
        ),
    ]
    for ev in log.events:
        lines.append(
            _dump({"t_ms": ev.t_ms, "kind": ev.kind.value, "payload": _payload_to_dict(ev.payload)})
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Sampling policy


def frame_rate_cap(max_fps: float) -> Callable[[SensorEvent], bool]:
    """A predicate that keeps at most one frame-kind event per 1000/max_fps ms bucket.

    It keeps the first event of each bucket, tracking buckets per kind so
    paired detection and image events survive together. Audio windows
    and embeddings always pass. Feed it events in log order.
    """
    if max_fps <= 0:
        raise ValueError(f"max_fps must be positive, got {max_fps}")
    last_bucket: dict[EventKind, int] = {}

    def keep(ev: SensorEvent) -> bool:
        if ev.kind not in FRAME_KINDS:
            return True
        bucket = math.floor(ev.t_ms * max_fps / 1000.0)
        if last_bucket.get(ev.kind) == bucket:
            return False
        last_bucket[ev.kind] = bucket
        return True

    return keep


def resample_frames(log: SessionLog, max_fps: float | None = None) -> SessionLog:
    """Thin the log's frame-kind events with `frame_rate_cap`.

    Uses the log's own max_fps when none is given. Order is preserved.
    Idempotent.
    """
    keep = frame_rate_cap(log.config.max_fps if max_fps is None else max_fps)
    return replace(log, events=tuple(ev for ev in log.events if keep(ev)))


# ---------------------------------------------------------------------------
# Audio resolution


def load_audio_samples(payload: AudioWindowPayload, base_dir: str | Path = ".") -> np.ndarray:
    """Return the window's samples, reading and verifying file references.

    Referenced files hold raw 16-bit little-endian PCM. The sha256 (when
    present) is checked over the raw bytes, and the decoded length must
    be exactly one second at the declared sample rate.
    """
    if payload.inline:
        assert payload.samples is not None
        return payload.samples
    path = Path(base_dir) / payload.path
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise AudioIntegrityError(f"cannot read audio file {path}: {exc}") from exc
    if payload.sha256 is not None:
        digest = hashlib.sha256(raw).hexdigest()
        if digest != payload.sha256.lower():
            raise AudioIntegrityError(
                f"audio file {path} hash mismatch: expected {payload.sha256}, got {digest}"
            )
    if len(raw) % 2:
        raise AudioIntegrityError(f"audio file {path} holds {len(raw)} bytes, not whole 16-bit samples")
    samples = pcm_samples(raw)
    if samples.shape[0] != payload.sample_rate:
        raise AudioIntegrityError(
            f"audio file {path} holds {samples.shape[0]} samples, expected {payload.sample_rate}"
        )
    return samples


def resolve_audio(ev: SensorEvent, base_dir: str | Path) -> SensorEvent:
    """The event with a file-referenced audio window loaded inline; any other event as is."""
    if ev.kind is not EventKind.AUDIO_WINDOW or ev.payload.inline:
        return ev
    samples = load_audio_samples(ev.payload, base_dir)
    return replace(ev, payload=AudioWindowPayload(sample_rate=ev.payload.sample_rate, samples=samples))


def resolve_audio_refs(log: SessionLog, base_dir: str | Path) -> SessionLog:
    """Materialise all file-referenced audio windows as inline samples."""
    return replace(log, events=tuple(resolve_audio(ev, base_dir) for ev in log.events))


def pcm_bytes(samples: np.ndarray) -> bytes:
    """Encode float samples in [-1, 1] as raw 16-bit little-endian PCM.

    Uses the same 1/32768 step as pcm_samples, so values already on the
    16-bit grid survive an encode/decode round trip bit-exactly.
    """
    scaled = np.round(np.asarray(samples, dtype=np.float64) * 32768.0)
    return np.clip(scaled, -32768, 32767).astype("<i2").tobytes()


def pcm_samples(raw: bytes) -> np.ndarray:
    """Decode raw 16-bit little-endian PCM to float64 samples in [-1, 1)."""
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
