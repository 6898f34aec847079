from __future__ import annotations

import hashlib
import json
import math
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invigil.config import EngineConfig
from invigil.events import (
    AudioIntegrityError,
    AudioWindowPayload,
    EventKind,
    FrameDetections,
    MalformedRecord,
    MissingReferences,
    NonMonotonicTime,
    SensorEvent,
    SessionLog,
    _as_samples,
    frame_rate_cap,
    load_audio_samples,
    parse_session_log,
    pcm_bytes,
    pcm_samples,
    read_session_log,
    resample_frames,
    resolve_audio_refs,
    serialize_session_log,
    write_audio_side_files,
)

from invigil.objectgate import BoundingBox, Detection
from invigil.pipeline import FlagKind, SessionLabel, run_session

from conftest import audio_event, device_det, emb_event, frame_event, make_log, make_reference_set, person_det


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
        ("max_fps", 10**400, "not valid JSON: integer with 401 digits is beyond the float64 range"),
        ("recheck_on_any_return", "false", "recheck_on_any_return must be true or false, got 'false'"),
        ("recheck_on_any_return", 0, "recheck_on_any_return must be true or false, got 0"),
        ("recheck_on_any_return", None, "recheck_on_any_return must be true or false, got None"),
        ("device_thresholds", {"low": 0.2}, "missing key 'device_thresholds.high'"),
        ("not_a_key", 1, "unknown key 'not_a_key'"),
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


def _edit_detection(detections, field, value):
    """Set `field` of the second detection ("box.x" for a box member, "detection" for
    the whole record) to value, or drop it."""
    if field == "detection":
        detections[1] = value
        return
    *path, key = field.split(".")
    node = detections[1]
    for name in path:
        node = node[name]
    if value is _DROP:
        del node[key]
    else:
        node[key] = value


_DROP = object()
_DETECTION_FAULTS = [
    ("detection", "phone", "detection must be an object"),
    ("detection", None, "detection must be an object"),
    ("class", _DROP, "missing key 'class'"),
    ("class", True, "detection class must be a string, got True"),
    ("class", 7, "detection class must be a string, got 7"),
    ("class", None, "detection class must be a string, got None"),
    ("score", _DROP, "missing key 'score'"),
    ("score", True, "score must be a number, got True"),
    ("score", "0.6", "score must be a number, got '0.6'"),
    ("score", None, "score must be a number, got None"),
    ("box", _DROP, "missing key 'box'"),
    ("box", True, "box must be an object"),
    ("box", "x", "box must be an object"),
    ("box", None, "box must be an object"),
    ("box", [1, 2, 3, 4], "box must be an object"),
] + [
    (f"box.{key}", value, message.format(key))
    for key in "xywh"
    for value, message in [
        (_DROP, "missing key '{}'"),
        (False, "box.{} must be a number, got False"),
        ("1", "box.{} must be a number, got '1'"),
        (None, "box.{} must be a number, got None"),
    ]
]
# several faults in one detection: the first in the order class, score,
# box.x, .y, .w, .h is the one reported
_DETECTION_FAULT_PAIRS = [
    ([("class", _DROP), ("score", _DROP)], "missing key 'class'"),
    ([("score", None), ("box", _DROP)], "score must be a number, got None"),
    ([("box.x", "1"), ("box.y", _DROP)], "box.x must be a number, got '1'"),
    ([("box.w", _DROP), ("box.h", None)], "missing key 'w'"),
    ([("score", 1.5), ("box.h", -1)], "box extent must be non-negative, got w=40.0, h=-1.0"),
]
_DETECTION_CASES = [([(f, v)], m) for f, v, m in _DETECTION_FAULTS] + _DETECTION_FAULT_PAIRS


@pytest.mark.parametrize(
    "edits, message",
    _DETECTION_CASES,
    ids=[
        "+".join(f"{f}-{'missing' if v is _DROP else repr(v)}" for f, v in edits)
        for edits, _ in _DETECTION_CASES
    ],
)
def test_detection_field_messages_on_a_capped_frame(identity, edits, message):
    # the frame on line 4 shares the 3 fps bucket of the frame on line 3, so
    # the cap drops it; it is still checked, with the same message as ever
    _, refs = identity
    events = [frame_event(0), frame_event(100, devices=(("phone", 0.6),)), frame_event(400)]
    lines = serialize_session_log(make_log(events, refs)).decode().splitlines()
    keep = frame_rate_cap(3.0)
    assert [no for no, ev in read_session_log(lines).events() if keep(ev.t_ms, ev.kind)] == [3, 5]
    assert [no for no, _ in read_session_log(lines).events(3.0)] == [3, 5]
    rec = json.loads(lines[3])
    for field, value in edits:
        _edit_detection(rec["payload"]["detections"], field, value)
    lines[3] = json.dumps(rec)
    with pytest.raises(MalformedRecord) as err:
        [no for no, _ in read_session_log(lines).events(3.0)]
    assert str(err.value) == f"line 4: {message}"


@pytest.mark.parametrize(
    "kind, field, value, lineno, message",
    [
        ("header", "session_id", None, 1, "session_id must be a string"),
        ("header", "session_id", {"a": 1}, 1, "session_id must be a string"),
        ("FrameImage", "path", None, 7, "image path must be a string"),
        ("FrameImage", "path", 5, 7, "image path must be a string"),
        ("AudioWindow", "path", ["w.pcm"], 7, "audio path must be a string"),
        ("AudioWindow", "sha256", 5, 7, "audio sha256 must be a string"),
    ],
)
def test_identifiers_must_be_strings(small_log, kind, field, value, lineno, message):
    lines = serialize_session_log(small_log).decode().splitlines()
    if kind == "header":
        header = json.loads(lines[0])
        header[field] = value
        lines[0] = json.dumps(header)
    else:
        payload = {"path": "evidence/f.ppm"} if kind == "FrameImage" else {"path": "w.pcm"}
        payload[field] = value
        lines.append(json.dumps({"t_ms": 800, "kind": kind, "payload": payload}))
    with pytest.raises(MalformedRecord, match=f"line {lineno}: {message}"):
        parse_session_log("\n".join(lines))


@pytest.mark.parametrize(
    "lineno, edit, message",
    [
        (3, lambda rec: rec.update(t_ms=-5), "t_ms must be non-negative, got -5"),
        (3, lambda rec: rec.update(t_ms=True), "t_ms must be an integer, got True"),
        # the decoder reads an integer literal outside [-2**63, 2**64) as a float
        (3, lambda rec: rec.update(t_ms=2**64), "t_ms must be an integer, got 1.8446744073709552e+19"),
        (
            4,
            lambda rec: rec["payload"]["detections"][1].update(score=1.5),
            "detection score must be in [0, 1], got 1.5",
        ),
        (
            3,
            lambda rec: rec["payload"]["detections"][0]["box"].update(w=-1),
            "box extent must be non-negative, got w=-1",
        ),
        (
            5,
            lambda rec: rec["payload"]["embedding"].pop(),
            "embedding must have exactly 128 components, got shape (127,)",
        ),
        (
            5,
            lambda rec: rec["payload"]["embedding"].__setitem__(3, float("nan")),
            "embedding contains non-finite components",
        ),
        (2, lambda rec: rec["embeddings"][0].pop(), ""),
        (
            7,
            lambda rec: rec["payload"]["samples"].pop(),
            "audio window must hold exactly 16000 samples, got shape (15999,)",
        ),
    ],
)
def test_every_field_check_names_its_line(small_log, lineno, edit, message):
    # each field is checked once, by the type it builds; the parser adds the line
    lines = serialize_session_log(small_log).decode().splitlines()
    lines.append(json.dumps({"t_ms": 800, "kind": "AudioWindow", "payload": {"samples": [0.0] * 16000}}))
    rec = json.loads(lines[lineno - 1])
    edit(rec)
    lines[lineno - 1] = json.dumps(rec)
    with pytest.raises(MalformedRecord) as err:
        parse_session_log("\n".join(lines))
    assert str(err.value).startswith(f"line {lineno}: {message}")


def test_read_session_log_yields_events_as_lines_are_read(small_log):
    lines = serialize_session_log(small_log).decode().splitlines()
    lines = lines[:3] + [""] + lines[3:5] + ["{not json"]
    log = read_session_log(line.encode() + b"\n" for line in lines)
    # header and references are read at once; events wait for the caller
    assert log.session_id == small_log.session_id
    assert log.config == small_log.config
    events = log.events()
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


@pytest.mark.parametrize("rate", [8000, 44100, 48000, 0])
def test_audio_window_rate_must_be_16k(small_log, rate):
    with pytest.raises(ValueError, match=f"sample_rate must be 16000 Hz.*got {rate}"):
        AudioWindowPayload(sample_rate=rate, samples=np.zeros(max(rate, 1)))
    lines = serialize_session_log(small_log).decode().splitlines()
    lines.append(json.dumps({"t_ms": 800, "kind": "AudioWindow", "payload": {"sample_rate": rate, "path": "w.pcm"}}))
    with pytest.raises(MalformedRecord, match="line 7: sample_rate must be 16000 Hz"):
        parse_session_log("\n".join(lines))


@pytest.mark.parametrize(
    "t_ms, message",
    [
        (str(2**1030), "integer with 311 digits is beyond the float64 range"),
        ("9" * 5000, "Exceeds the limit"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
        # closed nestings: a decoder that recurses without a limit would crash on them
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('{"a":' * 100_000 + "0" + "}" * 100_000, "maximum recursion depth exceeded"),
    ],
)
def test_json_numbers_and_nesting_beyond_range_name_line(small_log, t_ms, message):
    lines = serialize_session_log(small_log).decode().splitlines()
    lines[3] = lines[3].replace('"t_ms":400', f'"t_ms":{t_ms}', 1)
    assert t_ms in lines[3]
    with pytest.raises(MalformedRecord, match=f"line 4: not valid JSON: .*{message}"):
        parse_session_log("\n".join(lines))


# ---------------------------------------------------------------------------
# Frame-rate cap


@pytest.mark.parametrize(
    "lineno, early_t, previous_t",
    # line 4 shares the 3 fps bucket of line 3, so the cap drops it; the cap
    # keeps line 5. Each early t_ms falls where the cap would treat it the same.
    [(4, 350, 400), (5, 300, 500)],
    ids=["dropped", "kept"],
)
@pytest.mark.parametrize("fps", [3.0, None], ids=["capped", "uncapped"])
def test_frame_line_reports_detection_then_t_ms_then_order_fault(identity, lineno, early_t, previous_t, fps):
    _, refs = identity
    events = [frame_event(400), frame_event(500, devices=(("phone", 0.6),)), frame_event(1000)]
    lines = serialize_session_log(make_log(events, refs)).decode().splitlines()
    assert [no for no, _ in read_session_log(lines).events(3.0)] == [3, 5]

    def first_error(**edits):
        rec = json.loads(lines[lineno - 1])
        detection = rec["payload"]["detections"][0]
        for key in ("class", "score"):
            if key in edits:
                detection[key] = edits.pop(key)
        rec.update(edits)
        bad = lines[: lineno - 1] + [json.dumps(rec)] + lines[lineno:]
        with pytest.raises((MalformedRecord, NonMonotonicTime)) as err:
            list(read_session_log(bad).events(fps))
        return type(err.value), str(err.value)

    detection_fault = f"line {lineno}: detection score must be in [0, 1], got 1.5"
    assert first_error(score=1.5, t_ms=-1) == (MalformedRecord, detection_fault)
    assert first_error(score=1.5, t_ms=early_t) == (MalformedRecord, detection_fault)
    assert first_error(**{"class": None, "t_ms": True}) == (
        MalformedRecord,
        f"line {lineno}: detection class must be a string, got None",
    )
    assert first_error(t_ms=-1) == (MalformedRecord, f"line {lineno}: t_ms must be non-negative, got -1")
    assert first_error(t_ms=True) == (MalformedRecord, f"line {lineno}: t_ms must be an integer, got True")
    assert first_error(t_ms=early_t) == (
        NonMonotonicTime,
        f"line {lineno}: t_ms {early_t} is earlier than previous event at {previous_t}",
    )


def test_a_frame_the_cap_drops_builds_no_objects(identity, monkeypatch):
    _, refs = identity
    # 30 fps for two seconds, a person and a phone in each frame, one
    # embedding, and two image frames in one bucket: the cap drops the second
    events = [frame_event(t, devices=(("phone", 0.6),)) for t in range(0, 2000, 33)]
    events.insert(1, emb_event(10, np.zeros(128)))
    lines = serialize_session_log(make_log(events, refs)).decode().splitlines()
    lines.insert(5, json.dumps({"t_ms": 50, "kind": "FrameImage", "payload": {"path": "f.ppm"}}))
    lines.insert(6, json.dumps({"t_ms": 60, "kind": "FrameImage", "payload": {"path": "g.ppm"}}))
    built: Counter = Counter()
    for cls in (SensorEvent, FrameDetections, Detection, BoundingBox):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    kept = [ev for _, ev in read_session_log(lines).events(3.0)]
    frames = sum(ev.kind is EventKind.FRAME_DETECTIONS for ev in kept)
    assert frames == 6  # one per 333 ms bucket
    assert [ev.kind for ev in kept].count(EventKind.FRAME_IMAGE) == 1
    assert built == {"SensorEvent": frames + 2, "FrameDetections": frames, "Detection": 2 * frames, "BoundingBox": 2 * frames}
    built.clear()
    assert len(list(read_session_log(lines).events())) == len(events) + 2
    assert built["Detection"] == 2 * (len(events) - 1)


def test_sensor_event_stores_the_kind_member(identity):
    _, refs = identity
    payload = FrameDetections(detections=(person_det(), device_det("phone", 0.9)))
    ev = SensorEvent(t_ms=0, kind="FrameDetections", payload=payload)
    assert ev.kind is EventKind.FRAME_DETECTIONS
    assert ev == SensorEvent(t_ms=0, kind=EventKind.FRAME_DETECTIONS, payload=payload)
    # the fold and the writer see the member: the phone is flagged and the log serializes
    log = make_log([ev, frame_event(1000)], refs)
    report = run_session(log)
    assert report.final_label is SessionLabel.SUSPECT
    assert [f.kind for f in report.flags] == [FlagKind.PHONE_DETECTION]
    assert parse_session_log(serialize_session_log(log)).events == log.events
    for bad in ("Telemetry", "FRAME_DETECTIONS", 5, None, ["FrameDetections"]):
        with pytest.raises(ValueError, match="is not a valid EventKind"):
            SensorEvent(t_ms=0, kind=bad, payload=payload)


@pytest.mark.parametrize("bad", ['"0.5"', '"1e3"', "null", "[0.5]", '{"a":1}', "true", "false"])
def test_inline_samples_must_be_json_numbers(identity, bad):
    _, refs = identity
    lines = serialize_session_log(make_log([frame_event(0), audio_event(100, np.zeros(16000))], refs))
    lines = lines.decode().splitlines()
    lines[3] = lines[3].replace("[0.0,0.0,", f"[0.0,{bad},", 1)
    with pytest.raises(MalformedRecord) as err:
        parse_session_log("\n".join(lines))
    assert str(err.value) == f"line 4: audio samples must be numbers, got {json.loads(bad)!r}"


def test_inline_samples_of_zeros_and_ones_pass_but_a_leading_true_does_not(identity):
    _, refs = identity
    samples = np.zeros(16000)
    samples[::3] = 1.0
    lines = serialize_session_log(make_log([frame_event(0), audio_event(100, samples)], refs)).decode().splitlines()
    assert '"samples":[1.0,0.0,0.0,1.0,' in lines[3]
    log = parse_session_log("\n".join(lines))
    assert np.asarray(log.events[1].payload.samples).tobytes() == samples.tobytes()
    # JSON integers 0 and 1 are numbers too
    lines[3] = lines[3].replace('"samples":[1.0,0.0,', '"samples":[1,0,', 1)
    log = parse_session_log("\n".join(lines))
    assert np.asarray(log.events[1].payload.samples).tobytes() == samples.tobytes()
    lines[3] = lines[3].replace('"samples":[1,', '"samples":[true,', 1)
    with pytest.raises(MalformedRecord) as err:
        parse_session_log("\n".join(lines))
    assert str(err.value) == "line 4: audio samples must be numbers, got True"


def _array_outcome(value: list):
    """What inline samples read as when `array("d", value)` converted them: the doubles, or the message."""
    try:
        samples = array("d", value)
    except TypeError:
        bad = next(v for v in value if not isinstance(v, (float, int)))
        return "error", f"audio samples must be numbers, got {bad!r}"
    bools = [v for v in value if type(v) is bool]
    if bools:
        return "error", f"audio samples must be numbers, got {bools[0]!r}"
    return "value", samples.tobytes()


def _samples_outcome(value: list):
    try:
        samples = _as_samples(value)
    except MalformedRecord as exc:
        return "error", str(exc)
    return "value", np.asarray(samples, dtype=np.float64).tobytes()


_SAMPLE_ITEMS = (
    st.floats()
    | st.sampled_from([0, 1, -1, 2**63, -(2**63), 2**64 - 1, 0.0, -0.0, 1.0])
    | st.integers(-(2**63), 2**64 - 1)
    | st.booleans()
    | st.sampled_from(["0.5", "", None, [], [0.5], {}, {"a": 1}])
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1, 1), max_size=60), st.lists(st.tuples(st.integers(0, 60), _SAMPLE_ITEMS), max_size=4))
def test_as_samples_reads_a_list_as_array_d_does(floats, inserts):
    # a list of numbers, with a few items of any JSON type put in at any position
    value = list(floats)
    for at, item in inserts:
        value.insert(at, item)
    got, want = _samples_outcome(value), _array_outcome(value)
    assert got == want, value


@pytest.mark.parametrize("bad", [True, False, "1", None, [1.0], {"a": 1}])
@pytest.mark.parametrize("at", [0, 7, 15_999])
def test_as_samples_refuses_a_non_number_anywhere_in_a_window(bad, at):
    value = np.linspace(-1, 1, 16_000).tolist()
    value[at] = bad
    assert _samples_outcome(value) == _array_outcome(value) == ("error", f"audio samples must be numbers, got {bad!r}")


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


@pytest.mark.parametrize("max_fps, t_ms", [(1e308, 100), (3.0, 10**308)], ids=["huge-max_fps", "huge-t_ms"])
def test_rate_cap_keeps_frames_whose_bucket_is_past_the_float_range(max_fps, t_ms):
    # t_ms * max_fps / 1000 overflows to infinity, which has no integer floor
    keep = frame_rate_cap(max_fps)
    assert keep(0, EventKind.FRAME_DETECTIONS)
    assert keep(t_ms, EventKind.FRAME_DETECTIONS) and keep(t_ms, EventKind.FRAME_DETECTIONS)
    assert keep(t_ms, EventKind.FRAME_IMAGE)


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


def _grid_samples(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.round(rng.uniform(-1, 1, 16000) * 32768).clip(-32768, 32767) / 32768.0 + 0.0  # no -0.0


def test_audio_side_files_round_trip(tmp_path, identity):
    _, refs = identity
    windows = [audio_event(0, _grid_samples(1)), audio_event(1000, _grid_samples(2))]
    log = make_log([frame_event(0), *windows], refs)
    moved = write_audio_side_files(log, tmp_path)
    payloads = [ev.payload for ev in moved.events if ev.kind is EventKind.AUDIO_WINDOW]
    assert [w.path for w in payloads] == ["audio/0.pcm", "audio/1000.pcm"]
    for w in payloads:
        raw = (tmp_path / w.path).read_bytes()
        assert len(raw) == 32_000
        assert w.sha256 == hashlib.sha256(raw).hexdigest()
    assert moved.events[0] == log.events[0]
    assert b'"samples"' not in serialize_session_log(moved)
    # a path-referenced window passes through unchanged
    assert write_audio_side_files(moved, tmp_path / "again").events == moved.events
    resolved = resolve_audio_refs(parse_session_log(serialize_session_log(moved)), tmp_path)
    assert serialize_session_log(resolved) == serialize_session_log(log)


def test_audio_side_file_writer_rejects_what_it_cannot_store(tmp_path, identity):
    _, refs = identity
    off_grid = make_log([audio_event(0, _grid_samples(1)), audio_event(1000, np.full(16000, 0.1))], refs)
    with pytest.raises(ValueError, match="t=1000 ms is not on the 16-bit PCM grid"):
        write_audio_side_files(off_grid, tmp_path)
    assert not (tmp_path / "audio" / "1000.pcm").exists()
    # -0.0 would come back as 0.0 and serialize differently
    negative_zero = make_log([audio_event(0, -np.zeros(16000))], refs)
    with pytest.raises(ValueError, match="t=0 ms is not on the 16-bit PCM grid"):
        write_audio_side_files(negative_zero, tmp_path / "zero")
    same_t = make_log([audio_event(0, _grid_samples(1)), audio_event(0, _grid_samples(2))], refs)
    with pytest.raises(ValueError, match="two audio windows at t=0 ms"):
        write_audio_side_files(same_t, tmp_path / "same")

