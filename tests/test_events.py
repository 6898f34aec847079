from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invigil.config import EngineConfig
from invigil.events import (
    AudioIntegrityError,
    AudioWindowPayload,
    EventKind,
    MalformedRecord,
    MissingReferences,
    NonMonotonicTime,
    SensorEvent,
    SessionLog,
    load_audio_samples,
    parse_session_log,
    pcm_bytes,
    pcm_samples,
    read_session_log,
    resample_frames,
    resolve_audio_refs,
    serialize_session_log,
)

from conftest import audio_event, emb_event, frame_event, make_log, make_reference_set


@pytest.fixture
def small_log(identity):
    _, refs = identity
    events = [
        frame_event(0),
        frame_event(400, devices=(("phone", 0.8),)),
        emb_event(500, np.linspace(-1, 1, 128)),
        frame_event(700, persons=2),
    ]
    return make_log(events, refs)


def test_round_trip_preserves_log(small_log):
    data = serialize_session_log(small_log)
    back = parse_session_log(data)
    assert back.session_id == small_log.session_id
    assert back.config == small_log.config
    assert back.reference_embeddings == small_log.reference_embeddings
    assert back.events == small_log.events


def test_serialization_is_stable_bytes(small_log):
    a = serialize_session_log(small_log)
    b = serialize_session_log(parse_session_log(a))
    assert a == b


def test_inline_audio_round_trip(identity):
    _, refs = identity
    samples = np.round(np.sin(np.linspace(0, 40, 16000)) * 32768) / 32768.0
    log = make_log([audio_event(100, samples)], refs)
    back = parse_session_log(serialize_session_log(log))
    got = back.events[0].payload.samples
    assert np.array_equal(got, samples)


def test_empty_log_raises_missing_references():
    with pytest.raises(MissingReferences):
        parse_session_log(b"")


def test_header_must_come_first(small_log):
    lines = serialize_session_log(small_log).decode().splitlines()
    swapped = "\n".join([lines[1], lines[0]] + lines[2:])
    with pytest.raises(MalformedRecord, match="header"):
        parse_session_log(swapped)


def test_references_record_required(small_log):
    lines = serialize_session_log(small_log).decode().splitlines()
    with pytest.raises(MissingReferences):
        parse_session_log(lines[0])


def test_malformed_json_names_line(small_log):
    lines = serialize_session_log(small_log).decode().splitlines()
    lines[3] = "{not json"
    with pytest.raises(MalformedRecord, match="line 4"):
        parse_session_log("\n".join(lines))


def test_errors_name_file_line_after_blank_lines(small_log):
    lines = serialize_session_log(small_log).decode().splitlines()
    rec = json.loads(lines[4])
    del rec["payload"]
    lines[4] = json.dumps(rec)
    text = "\n".join(lines[:2] + ["", "   "] + lines[2:])
    # the broken record sits on file line 7 once two blank lines follow line 2
    with pytest.raises(MalformedRecord, match="line 7: missing key 'payload'"):
        parse_session_log(text)


def test_non_mapping_device_thresholds_rejected(small_log):
    lines = serialize_session_log(small_log).decode().splitlines()
    header = json.loads(lines[0])
    header["config"]["device_thresholds"] = 5
    lines[0] = json.dumps(header)
    with pytest.raises(MalformedRecord, match="line 1: device_thresholds"):
        parse_session_log("\n".join(lines))


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_inline_audio_rejected(identity, bad):
    _, refs = identity
    lines = serialize_session_log(make_log([frame_event(0), audio_event(100, np.zeros(16000))], refs))
    lines = lines.decode().splitlines()
    lines[3] = lines[3].replace("[0.0,", f"[{bad},", 1)
    with pytest.raises(MalformedRecord, match="line 4: audio samples must be finite"):
        parse_session_log("\n".join(lines))


def test_invalid_utf8_names_line(small_log):
    lines = serialize_session_log(small_log).splitlines(keepends=True)
    lines[3] = lines[3].replace(b'"kind"', b'"k\xffind"', 1)
    with pytest.raises(MalformedRecord, match="line 4: not valid UTF-8"):
        parse_session_log(b"".join(lines))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("face_threshold", float("nan"), "face_threshold must be a finite number"),
        ("absence_long_ms", 10000.5, "absence_long_ms must be an integer"),
        ("max_fps", float("inf"), "max_fps must be a finite number"),
        ("voice_threshold", True, "voice_threshold must be a finite number"),
        ("reference_count", 20.0, "reference_count must be an integer"),
    ],
)
def test_header_config_types_and_finiteness(small_log, key, value, message):
    lines = serialize_session_log(small_log).decode().splitlines()
    header = json.loads(lines[0])
    header["config"][key] = value
    lines[0] = json.dumps(header)
    with pytest.raises(MalformedRecord, match=f"line 1: {message}"):
        parse_session_log("\n".join(lines))


def test_detection_class_must_be_a_string(small_log):
    lines = serialize_session_log(small_log).decode().splitlines()
    rec = json.loads(lines[3])
    rec["payload"]["detections"][1]["class"] = None
    lines[3] = json.dumps(rec)
    with pytest.raises(MalformedRecord, match="line 4: detection class must be a string"):
        parse_session_log("\n".join(lines))


def test_read_session_log_yields_events_as_lines_are_read(small_log):
    lines = serialize_session_log(small_log).decode().splitlines()
    lines = lines[:3] + [""] + lines[3:5] + ["{not json"]
    log = read_session_log(line.encode() + b"\n" for line in lines)
    # header and references are read at once; events wait for the caller
    assert log.session_id == small_log.session_id
    assert log.config == small_log.config
    events = iter(log.events)
    assert [next(events)[0] for _ in range(3)] == [3, 5, 6]
    with pytest.raises(MalformedRecord, match="line 7"):
        next(events)


def test_unknown_event_kind_rejected(small_log):
    lines = serialize_session_log(small_log).decode().splitlines()
    rec = json.loads(lines[2])
    rec["kind"] = "Telemetry"
    lines[2] = json.dumps(rec)
    with pytest.raises(MalformedRecord, match="Telemetry"):
        parse_session_log("\n".join(lines))


def test_nonmonotonic_time_rejected(identity):
    _, refs = identity
    with pytest.raises(NonMonotonicTime):
        make_log([frame_event(1000), frame_event(400)], refs)
    log = make_log([frame_event(400), frame_event(1000)], refs)
    lines = serialize_session_log(log).decode().splitlines()
    rec3, rec4 = json.loads(lines[2]), json.loads(lines[3])
    rec3["t_ms"], rec4["t_ms"] = 1000, 400
    lines[2], lines[3] = json.dumps(rec3), json.dumps(rec4)
    with pytest.raises(NonMonotonicTime, match="line 4"):
        parse_session_log("\n".join(lines))


def test_equal_timestamps_allowed(identity):
    _, refs = identity
    log = make_log([frame_event(500), emb_event(500, np.zeros(128))], refs)
    assert [ev.t_ms for ev in log.events] == [500, 500]


def test_negative_and_fractional_t_rejected(identity):
    _, refs = identity
    with pytest.raises(ValueError):
        frame_event(-5)
    lines = serialize_session_log(make_log([frame_event(10)], refs)).decode().splitlines()
    rec = json.loads(lines[2])
    rec["t_ms"] = 10.5
    lines[2] = json.dumps(rec)
    with pytest.raises(MalformedRecord, match="t_ms"):
        parse_session_log("\n".join(lines))


def test_label_aliases_normalized(identity):
    _, refs = identity
    log = make_log([frame_event(0, devices=(("phone", 0.5),))], refs)
    lines = serialize_session_log(log).decode().splitlines()
    rec = json.loads(lines[2])
    rec["payload"]["detections"][1]["class"] = "Cell Phone"
    lines[2] = json.dumps(rec)
    back = parse_session_log("\n".join(lines))
    assert back.events[0].payload.detections[1].label == "phone"


def test_audio_window_length_enforced():
    with pytest.raises(ValueError):
        AudioWindowPayload(sample_rate=16000, samples=np.zeros(15000))


# ---------------------------------------------------------------------------
# Frame-rate cap


def test_resample_keeps_first_event_per_bucket(identity):
    _, refs = identity
    events = [frame_event(t) for t in (0, 100, 200, 334, 400, 667, 900, 1000)]
    log = make_log(events, refs)
    thinned = resample_frames(log, 3.0)
    kept = [ev.t_ms for ev in thinned.events]
    assert kept == [0, 334, 667, 1000]


def test_resample_leaves_non_frame_events(identity):
    _, refs = identity
    events = [
        frame_event(0),
        frame_event(10),
        emb_event(20, np.zeros(128)),
        emb_event(30, np.zeros(128)),
    ]
    thinned = resample_frames(make_log(events, refs), 3.0)
    kinds = [ev.kind for ev in thinned.events]
    assert kinds == [EventKind.FRAME_DETECTIONS, EventKind.FACE_EMBEDDING, EventKind.FACE_EMBEDDING]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 20_000), min_size=1, max_size=60),
    st.floats(0.5, 10.0),
)
def test_resample_idempotent_and_bucket_unique(times, max_fps):
    _, refs = make_reference_set(np.random.default_rng(1), count=3)
    events = [frame_event(t) for t in sorted(times)]
    log = make_log(events, refs)
    once = resample_frames(log, max_fps)
    twice = resample_frames(once, max_fps)
    assert once.events == twice.events
    buckets = [math.floor(ev.t_ms * max_fps / 1000.0) for ev in once.events]
    assert len(buckets) == len(set(buckets))
    # the survivor of each bucket is the earliest original event in it
    by_bucket: dict[int, int] = {}
    for t in sorted(times):
        by_bucket.setdefault(math.floor(t * max_fps / 1000.0), t)
    assert [ev.t_ms for ev in once.events] == list(by_bucket.values())


def test_resample_rejects_bad_fps(small_log):
    with pytest.raises(ValueError):
        resample_frames(small_log, 0.0)


# ---------------------------------------------------------------------------
# File-referenced audio


def test_pcm_round_trip_on_grid():
    rng = np.random.default_rng(3)
    samples = np.round(rng.uniform(-1, 1, 16000) * 32768).clip(-32768, 32767) / 32768.0
    raw = pcm_bytes(samples)
    assert len(raw) == 2 * 16000
    assert np.array_equal(pcm_samples(raw), samples)


def test_load_audio_checks_hash_and_length(tmp_path):
    samples = np.zeros(16000)
    raw = pcm_bytes(samples)
    path = tmp_path / "w.pcm"
    path.write_bytes(raw)
    good = AudioWindowPayload(sample_rate=16000, path="w.pcm", sha256=hashlib.sha256(raw).hexdigest())
    assert np.array_equal(load_audio_samples(good, tmp_path), samples)

    bad_hash = AudioWindowPayload(sample_rate=16000, path="w.pcm", sha256="0" * 64)
    with pytest.raises(AudioIntegrityError, match="hash"):
        load_audio_samples(bad_hash, tmp_path)

    path.write_bytes(raw[:-2])
    no_hash = AudioWindowPayload(sample_rate=16000, path="w.pcm")
    with pytest.raises(AudioIntegrityError, match="samples"):
        load_audio_samples(no_hash, tmp_path)

    missing = AudioWindowPayload(sample_rate=16000, path="absent.pcm")
    with pytest.raises(AudioIntegrityError, match="absent.pcm"):
        load_audio_samples(missing, tmp_path)


def test_odd_length_pcm_file_rejected(tmp_path):
    raw = pcm_bytes(np.zeros(16000)) + b"\x00"
    (tmp_path / "w.pcm").write_bytes(raw)
    for sha in (None, hashlib.sha256(raw).hexdigest()):
        payload = AudioWindowPayload(sample_rate=16000, path="w.pcm", sha256=sha)
        with pytest.raises(AudioIntegrityError, match="w.pcm holds 32001 bytes"):
            load_audio_samples(payload, tmp_path)


def test_resolve_audio_refs_materializes(tmp_path, identity):
    _, refs = identity
    samples = np.round(np.linspace(-0.4, 0.4, 16000) * 32768) / 32768.0
    raw = pcm_bytes(samples)
    (tmp_path / "w.pcm").write_bytes(raw)
    ev = SensorEvent(
        t_ms=0,
        kind=EventKind.AUDIO_WINDOW,
        payload=AudioWindowPayload(sample_rate=16000, path="w.pcm", sha256=hashlib.sha256(raw).hexdigest()),
    )
    log = make_log([ev], refs)
    resolved = resolve_audio_refs(log, tmp_path)
    assert resolved.events[0].payload.inline
    assert np.array_equal(resolved.events[0].payload.samples, samples)
