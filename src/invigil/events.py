"""Sensor-event data model and session-log I/O.

A session log is a line-delimited JSON stream: a header record, a
reference-embeddings record, then timestamped sensor events (frame
detections, face embeddings, one-second audio windows, frame image
references). Serialization is canonical so identical logs give
identical bytes, written whole or one line at a time (`session_log_lines`).

Reading is one pass over the lines. `read_session_log` parses the header
and references at once; `SessionStream.events(max_fps)` then yields each
event, decoded and validated, as its line is read, paired with the line's
number in the file. Nothing of a line is kept once the next one is read,
so memory does not grow with the session. The first bad line stops the
read and is the one reported. `read_event_line` checks one event line
the same way, order aside. `parse_session_log` reads the same way with
no cap; `resample_frames` applies the same `frame_rate_cap` predicate to
a whole in-memory `SessionLog`, and `resolve_audio` / `resolve_audio_refs`
load audio side files per event or per log.

Audio windows are stored inline as JSON floats or, as a client ships
them, in 16-bit PCM side files named in the log with their sha256.
`write_audio_side_files` moves a log's inline windows to side files
through `write_side_file`; it only takes samples already on the 16-bit
grid, so the move is lossless.

Each check is written once. The types own the value checks: `SensorEvent`
the timestamp and the payload type, `AudioWindowPayload` the 16 kHz rate
and the samples, `Embedding` and `ReferenceSet` shape and finiteness,
`BoundingBox` and `Detection` the extent and score (`objectgate.check_box`
and `check_score`). The parser adds what JSON needs on top: present keys,
and JSON types where a constructor would coerce a bool, float or string,
checked with `errors.as_int`, `as_number`, `as_str` and `as_object`, which
the other JSON readers use too. It re-raises whatever a check raises as a
`MalformedRecord` that names the line. Lines are decoded by `errors.json_record`,
as the other JSON-lines inputs are. Its decoder, `errors.decode_json`
(orjson, or the stdlib decoder for what orjson refuses), turns away
integers beyond the float64 range and over-deep nesting, and reads an
integer outside [-2**63, 2**64) as a float, which `t_ms` then refuses.

Each event line is taken in this order: its kind; its payload, checked
field by field; its `t_ms`; its order against the line before; and last
the frame-rate cap. A line can also arrive already read, as a
`ClassifiedWindow`: an audio window that another process checked and
classified (`analyze` splits a log's audio windows so, see `cli`). Of such a
line the reader checks only the order. Frame payloads are checked in place by
the parser, with the types' own check functions, and turned into objects only
when the cap keeps the frame, so a dropped frame costs its checks and nothing
more; other payloads are built, and so checked, as they are read.

Timestamps are integer milliseconds since session start, strictly
non-decreasing; ties keep file order so detections and embeddings can
share a frame. Order is checked where events enter the engine, and only
there: the reader checks each line before the cap sees it (the cap could
drop an out-of-order frame that falls in the same bucket), and
`SessionLog` checks logs built in memory. The replay fold in `pipeline`
assumes order and does not check it again.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Union

import numpy as np

from .config import EngineConfig, config_from_dict
from .errors import EngineError, arrays_eq, as_int, as_number, as_object, as_str, json_record
from .facematch import Embedding, ReferenceSet
from .objectgate import BoundingBox, Detection, check_box, check_score

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

_KINDS = {kind.value: kind for kind in EventKind}


def _event_kind(raw: Any) -> EventKind:
    """The EventKind named by raw, a member or its string value; ValueError otherwise."""
    kind = _KINDS.get(raw) if type(raw) is str else None
    return EventKind(raw) if kind is None else kind


def _check_t_ms(t_ms: Any) -> None:
    if as_int(t_ms, "t_ms") < 0:
        raise ValueError(f"t_ms must be non-negative, got {t_ms}")


@dataclass(frozen=True)
class FrameDetections:
    detections: tuple[Detection, ...]


@dataclass(frozen=True)
class FaceEmbeddingPayload:
    embedding: Embedding


@dataclass(frozen=True, eq=False)
class AudioWindowPayload:
    """Exactly one second of mono 16 kHz PCM, inline or by file reference.

    Inline samples are validated to sample_rate entries at construction.
    File references carry a sha256 over the raw PCM bytes and are
    checked when loaded.
    """

    sample_rate: int = DEFAULT_SAMPLE_RATE
    samples: np.ndarray | None = None
    path: str | None = None
    sha256: str | None = None

    def __post_init__(self) -> None:
        if self.sample_rate != DEFAULT_SAMPLE_RATE:
            raise ValueError(
                f"sample_rate must be {DEFAULT_SAMPLE_RATE} Hz, the rate every voice model takes; "
                f"got {self.sample_rate}"
            )
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

    __eq__ = arrays_eq

    @property
    def inline(self) -> bool:
        return self.samples is not None


@dataclass(frozen=True)
class ClassifiedWindow:
    """An audio window's line as another process read it: the window's t_ms and its voice probability.

    That process ran the line through `read_event_line`, `resolve_audio` and
    `pipeline.window_probability`, so the fold applies the voice rule to the
    probability as it would to the window's own.
    """

    t_ms: int
    probability: float


@dataclass(frozen=True)
class FrameImageRef:
    """Reference to an evidence frame image on disk (binary PPM)."""

    path: str


Payload = Union[FrameDetections, FaceEmbeddingPayload, AudioWindowPayload, ClassifiedWindow, FrameImageRef]

_PAYLOAD_TYPES: dict[EventKind, tuple[type, ...]] = {
    EventKind.FRAME_DETECTIONS: (FrameDetections,),
    EventKind.FACE_EMBEDDING: (FaceEmbeddingPayload,),
    EventKind.AUDIO_WINDOW: (AudioWindowPayload, ClassifiedWindow),
    EventKind.FRAME_IMAGE: (FrameImageRef,),
}


@dataclass(frozen=True)
class SensorEvent:
    """One timestamped event; `kind` is stored as the EventKind member."""

    t_ms: int
    kind: EventKind
    payload: Payload

    def __post_init__(self) -> None:
        _check_t_ms(self.t_ms)
        if type(self.kind) is not EventKind:
            object.__setattr__(self, "kind", _event_kind(self.kind))
        expected = _PAYLOAD_TYPES[self.kind]
        if not isinstance(self.payload, expected):
            names = " or ".join(t.__name__ for t in expected)
            raise ValueError(f"payload for {self.kind} must be {names}, got {type(self.payload).__name__}")


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


def _expect(record: dict, key: str) -> Any:
    if key not in record:
        raise MalformedRecord(f"missing key {key!r}")
    return record[key]


def _check_detections(items: Any) -> None:
    """Check a frame's detection records the way `_detection` reads them, building nothing.

    Each record's fields are checked in the order class, score, box.x,
    .y, .w, .h, then its box values and score range, so a frame with
    several faults reports the first of them. The type tests and the
    score range are inlined; where one fails, the `errors.as_*` check or
    `check_score` that owns the message raises it.
    """
    if type(items) is not list:
        raise MalformedRecord("detections must be a list")
    for item in items:
        if type(item) is not dict:
            as_object(item, "detection")
        try:
            if type(item["class"]) is not str:
                as_str(item["class"], "detection class")
            score = item["score"]
            if type(score) is not float:
                score = as_number(score, "score")
            box = item["box"]
            if type(box) is not dict:
                as_object(box, "box")
            x = box["x"]
            if type(x) is not float:
                x = as_number(x, "box.x")
            y = box["y"]
            if type(y) is not float:
                y = as_number(y, "box.y")
            w = box["w"]
            if type(w) is not float:
                w = as_number(w, "box.w")
            h = box["h"]
            if type(h) is not float:
                h = as_number(h, "box.h")
        except KeyError as exc:
            raise MalformedRecord(f"missing key {exc.args[0]!r}") from None
        check_box(x, y, w, h)
        if not 0.0 <= score <= 1.0:
            check_score(score)


def _detection(item: dict) -> Detection:
    """The Detection of a record `_check_detections` passed."""
    label = item["class"].lower()
    box = item["box"]
    return Detection(
        label=LABEL_ALIASES.get(label, label),
        score=float(item["score"]),
        box=BoundingBox(float(box["x"]), float(box["y"]), float(box["w"]), float(box["h"])),
    )


def _as_samples(value: Any) -> Any:
    """A JSON list of inline samples as float64s; a string, null, bool, array or object element is refused.

    The list is converted by one `struct.pack_into`, which reads each element
    with `PyFloat_AsDouble` as `array("d", value)` does, into a writable
    buffer. A value that is not a list goes to `AudioWindowPayload` as is,
    which says what is wrong with it.
    """
    if type(value) is not list:
        return value
    buf = bytearray(8 * len(value))
    try:
        struct.pack_into(f"{len(value)}d", buf, 0, *value)
    except struct.error:
        bad = next(v for v in value if not isinstance(v, (float, int)))
        raise MalformedRecord(f"audio samples must be numbers, got {bad!r}") from None
    # `PyFloat_AsDouble` takes true and false as 1.0 and 0.0, so only the
    # elements that read 0.0 or 1.0 can be bools
    doubles = np.frombuffer(buf)
    for i in np.flatnonzero((doubles == 0.0) | (doubles == 1.0)).tolist():
        if type(value[i]) is bool:
            raise MalformedRecord(f"audio samples must be numbers, got {value[i]!r}")
    return doubles


def _parse_payload(kind: EventKind, payload: dict) -> Payload:
    """The payload of a non-frame event: a face embedding or an audio window."""
    if kind is EventKind.FACE_EMBEDDING:
        return FaceEmbeddingPayload(embedding=Embedding(_expect(payload, "embedding")))
    rate = as_int(payload.get("sample_rate", DEFAULT_SAMPLE_RATE), "sample_rate")
    samples = payload.get("samples")
    if samples is not None:  # inline samples win; a path beside them is ignored
        return AudioWindowPayload(sample_rate=rate, samples=_as_samples(samples))
    path, sha = payload.get("path"), payload.get("sha256")
    return AudioWindowPayload(
        sample_rate=rate,
        path=None if path is None else as_str(path, "audio path"),
        sha256=None if sha is None else as_str(sha, "audio sha256"),
    )


# What a record's own checks raise; the reader re-raises it as a
# MalformedRecord that names the line.
_RECORD_ERRORS = (EngineError, TypeError, ValueError)


@dataclass(frozen=True)
class SessionStream:
    """A session log opened for one pass: header and references read.

    `events` reads the remaining lines, numbered; it can be called once.
    """

    session_id: str
    config: EngineConfig
    reference_embeddings: ReferenceSet
    lines: Iterator[tuple[int, bytes | str | ClassifiedWindow]]

    def events(self, max_fps: float | None = None) -> Iterator[tuple[int, SensorEvent]]:
        """(line number in the file, SensorEvent) pairs, each checked as its line is read.

        With `max_fps`, frame events go through `frame_rate_cap(max_fps)`
        after they are checked, and a frame the cap drops is not yielded
        or built. With None, every event is.
        """
        return _events(self.lines, None if max_fps is None else frame_rate_cap(max_fps))


def read_event_line(lineno: int, line: bytes | str) -> SensorEvent | None:
    """The event of one event line, checked as `SessionStream.events` checks it; None for a blank line.

    The order against other lines is not checked, and no frame is dropped.
    """
    for _, ev in _events([(lineno, line)], None):
        return ev
    return None


def _events(
    lines: Iterable[tuple[int, bytes | str | ClassifiedWindow]], keep: Callable[[int, EventKind], bool] | None
) -> Iterator[tuple[int, SensorEvent]]:
    # Per line: kind, payload, t_ms, order, then the cap. Frame payloads
    # are checked in place and built only for a frame the cap keeps.
    detections, image = EventKind.FRAME_DETECTIONS, EventKind.FRAME_IMAGE  # enum attributes are slow
    last_t = 0
    for lineno, line in lines:
        if type(line) is ClassifiedWindow:
            kind, payload, t_ms = EventKind.AUDIO_WINDOW, line, line.t_ms
        else:
            rec = json_record(line, lineno, "line ", MalformedRecord)
            if rec is None:
                continue
            try:
                kind = _event_kind(_expect(rec, "kind"))
                payload = _expect(rec, "payload")
                if type(payload) is not dict:
                    as_object(payload, "payload")
                if kind is detections:
                    items = _expect(payload, "detections")
                    _check_detections(items)
                elif kind is image:
                    as_str(_expect(payload, "path"), "image path")
                else:
                    payload = _parse_payload(kind, payload)
                t_ms = _expect(rec, "t_ms")
                if type(t_ms) is not int or t_ms < 0:  # _check_t_ms raises the message
                    _check_t_ms(t_ms)
            except _RECORD_ERRORS as exc:
                raise MalformedRecord(f"line {lineno}: {exc}") from exc
        if t_ms < last_t:
            raise NonMonotonicTime(
                f"line {lineno}: t_ms {t_ms} is earlier than previous event at {last_t}"
            )
        last_t = t_ms
        if keep is not None and not keep(t_ms, kind):
            continue
        if kind is detections:
            payload = FrameDetections(detections=tuple(map(_detection, items)))
        elif kind is image:
            payload = FrameImageRef(path=payload["path"])
        yield lineno, SensorEvent(t_ms=t_ms, kind=kind, payload=payload)


def read_session_log(lines: Iterable[bytes | str]) -> SessionStream:
    """Open a line-delimited session log for one streaming pass.

    `lines` is an iterable of byte or text lines (an open binary file).
    The header and reference records are parsed here; events are parsed
    and validated lazily as `SessionStream.events()` is consumed. Raises
    MalformedRecord with the offending line number, NonMonotonicTime
    when timestamps go backwards, and MissingReferences when the
    reference-embeddings record is absent.
    """
    numbered = enumerate(lines, start=1)
    first = _next_record(numbered)
    if first is None:
        raise MissingReferences("empty log: no reference embeddings")
    lineno, header = first
    if header.get("kind") != "header":
        raise MalformedRecord(
            f"line {lineno}: first record must be the header, got kind {header.get('kind')!r}"
        )
    try:
        session_id = as_str(_expect(header, "session_id"), "session_id")
        config = config_from_dict(header.get("config", {}))
    except _RECORD_ERRORS as exc:
        raise MalformedRecord(f"line {lineno}: {exc}") from exc

    second = _next_record(numbered)
    if second is None:
        raise MissingReferences("log ends before the reference embeddings record")
    lineno, refs_rec = second
    if refs_rec.get("kind") != "references":
        raise MissingReferences(
            f"second record must hold reference embeddings, got kind {refs_rec.get('kind')!r}"
        )
    rows = refs_rec.get("embeddings")
    if not isinstance(rows, list) or not rows:
        raise MissingReferences("reference embeddings record holds no embeddings")
    try:
        references = ReferenceSet(rows)
    except _RECORD_ERRORS as exc:
        raise MalformedRecord(f"line {lineno}: {exc}") from exc
    return SessionStream(session_id, config, references, numbered)


def _next_record(lines: Iterator[tuple[int, bytes | str]]) -> tuple[int, dict] | None:
    """The number and JSON object of the next non-blank line; None at the end."""
    for lineno, line in lines:
        rec = json_record(line, lineno, "line ", MalformedRecord)
        if rec is not None:
            return lineno, rec
    return None


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
        events=tuple(ev for _, ev in log.events()),
    )


# ---------------------------------------------------------------------------
# Serialization


def _line(obj: Any) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


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
    return b"".join(session_log_lines(log, log.events))


def session_log_lines(log: SessionLog, events: Iterable[SensorEvent]) -> Iterator[bytes]:
    """The canonical lines of `log`'s header and references, then of `events`, each made as it is taken."""
    yield _line({"kind": "header", "session_id": log.session_id, "config": log.config.to_dict()})
    yield _line({"kind": "references", "embeddings": log.reference_embeddings.matrix.tolist()})
    for ev in events:
        yield _line({"t_ms": ev.t_ms, "kind": ev.kind.value, "payload": _payload_to_dict(ev.payload)})


# ---------------------------------------------------------------------------
# Sampling policy


def frame_rate_cap(max_fps: float) -> Callable[[int, EventKind], bool]:
    """A predicate on (t_ms, kind) that keeps at most one frame-kind event per 1000/max_fps ms bucket.

    It keeps the first event of each bucket, tracking buckets per kind so
    paired detection and image events survive together. Audio windows
    and embeddings always pass. Feed it events in log order.
    """
    if max_fps <= 0:
        raise ValueError(f"max_fps must be positive, got {max_fps}")
    last_bucket: dict[EventKind, int] = {}

    def keep(t_ms: int, kind: EventKind) -> bool:
        if kind not in FRAME_KINDS:
            return True
        try:
            bucket = math.floor(t_ms * max_fps / 1000.0)
        except OverflowError:  # t_ms * max_fps is past the float range: no bucket, so the frame is kept
            return True
        if last_bucket.get(kind) == bucket:
            return False
        last_bucket[kind] = bucket
        return True

    return keep


def resample_frames(log: SessionLog, max_fps: float | None = None) -> SessionLog:
    """Thin the log's frame-kind events with `frame_rate_cap`.

    Uses the log's own max_fps when none is given. Order is preserved.
    Idempotent.
    """
    keep = frame_rate_cap(log.config.max_fps if max_fps is None else max_fps)
    return replace(log, events=tuple(ev for ev in log.events if keep(ev.t_ms, ev.kind)))


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
    try:
        samples = pcm_samples(raw)
    except ValueError as exc:
        raise AudioIntegrityError(f"audio file {path} {exc}") from exc
    if samples.shape[0] != payload.sample_rate:
        raise AudioIntegrityError(
            f"audio file {path} holds {samples.shape[0]} samples, expected {payload.sample_rate}"
        )
    return samples


def resolve_audio(ev: SensorEvent, base_dir: str | Path) -> SensorEvent:
    """The event with a file-referenced audio window loaded inline; any other event as is."""
    if type(ev.payload) is not AudioWindowPayload or ev.payload.inline:
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
    """Decode raw 16-bit little-endian PCM to float64 samples in [-1, 1).

    Raises ValueError for an odd byte count.
    """
    if len(raw) % 2:
        raise ValueError(f"holds {len(raw)} bytes, not whole 16-bit samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return samples


AUDIO_DIR = "audio"


def write_audio_side_files(log: SessionLog, out_dir: str | Path) -> SessionLog:
    """The log with each inline audio window moved to a hashed PCM side file.

    Window samples go to `out_dir/audio/<t_ms>.pcm` as raw 16-bit
    little-endian PCM; the window becomes a path relative to `out_dir`,
    where the log itself is to be written, plus the sha256 of the bytes.
    A window whose samples do not survive that encoding bit for bit (off
    the 16-bit grid, or a -0.0) raises ValueError before its file is
    written, as do two windows at the same t_ms.
    Other events and path-referenced windows pass unchanged.
    """
    out_dir = Path(out_dir)
    (out_dir / AUDIO_DIR).mkdir(parents=True, exist_ok=True)
    written: set[int] = set()
    events = []
    for ev in log.events:
        if ev.kind is EventKind.AUDIO_WINDOW and ev.payload.inline:
            raw = pcm_bytes(ev.payload.samples)
            if pcm_samples(raw).tobytes() != ev.payload.samples.tobytes():
                raise ValueError(f"audio window at t={ev.t_ms} ms is not on the 16-bit PCM grid")
            if ev.t_ms in written:
                raise ValueError(f"two audio windows at t={ev.t_ms} ms would share one side file")
            written.add(ev.t_ms)
            ev = write_side_file(out_dir, ev.t_ms, raw)
        events.append(ev)
    return replace(log, events=tuple(events))


def write_side_file(out_dir: Path, t_ms: int, raw: bytes) -> SensorEvent:
    """The audio window at `t_ms` in the side file `out_dir/audio/<t_ms>.pcm`, written with the PCM `raw`."""
    path = f"{AUDIO_DIR}/{t_ms}.pcm"
    (out_dir / path).write_bytes(raw)
    payload = AudioWindowPayload(path=path, sha256=hashlib.sha256(raw).hexdigest())
    return SensorEvent(t_ms=t_ms, kind=EventKind.AUDIO_WINDOW, payload=payload)
