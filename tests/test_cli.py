from __future__ import annotations

import ast
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invigil import cli
from invigil.audio.model import (
    MODEL_FORMAT_VERSION,
    MODEL_MAGIC,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2,
    ShapeMismatch,
    VoiceModel,
    band_contrast_model,
    load_model,
    save_model,
)
from invigil.config import EngineConfig
from invigil.errors import EngineError
from invigil.events import (
    AudioWindowPayload,
    EventKind,
    FaceEmbeddingPayload,
    FrameDetections,
    FrameImageRef,
    SensorEvent,
    pcm_bytes,
    read_session_log,
    serialize_session_log,
)
from invigil.facematch import Embedding
from invigil.objectgate import BoundingBox, Detection
from invigil.pipeline import replay_events, report_to_json, run_session
from invigil.simulator import (
    MAX_DURATION_MS,
    Episode,
    EpisodeKind,
    ScenarioSpec,
    generate_session,
    random_scenario,
    save_scenario_file,
    scenario_from_dict,
    synth_audio,
)

from conftest import (
    FUZZ_VALUES,
    frame_event,
    fuzzed_json_lines,
    json_slots,
    make_log,
    make_reference_set,
    mutated_bytes,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    # the child imports the package from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "invigil", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    clean = ScenarioSpec(duration_ms=15000, episodes=(), seed=3)
    log, _ = generate_session(clean)
    (root / "clean.jsonl").write_bytes(serialize_session_log(log))

    speech = ScenarioSpec(
        duration_ms=15000,
        episodes=(Episode(EpisodeKind.BACKGROUND_SPEECH, 4000, 4000),),
        seed=4,
    )
    log, _ = generate_session(speech)
    (root / "speech.jsonl").write_bytes(serialize_session_log(log))

    save_scenario_file(random_scenario(seed=17), root / "scenario.json")

    corpus = root / "corpus"
    corpus.mkdir()
    lines = []
    for i in range(6):
        for kind, label in (("voiced", "voice"), ("unvoiced", "non-voice")):
            name = f"{kind}_{i}.pcm"
            (corpus / name).write_bytes(pcm_bytes(synth_audio(kind, seed=100 + i).samples))
            lines.append(json.dumps({"path": name, "label": label}))
    (root / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    (corpus / "odd.pcm").write_bytes(bytes(32_001))  # listed by no manifest of the fixture

    (root / "train.json").write_text(
        json.dumps(
            {
                "audio": {
                    "max_epochs": 2,
                    "patience": 1,
                    "batch_size": 8,
                    "learning_rate": 0.02,
                    "val_fraction": 0.25,
                }
            }
        )
    )

    rec = {
        "frame_id": "f0",
        "gt": [{"class": "person", "box": {"x": 0, "y": 0, "w": 10, "h": 10}}],
        "pred": [
            {"class": "person", "box": {"x": 0.5, "y": 0, "w": 10, "h": 10}, "score": 0.9}
        ],
    }
    (root / "frames.jsonl").write_text(json.dumps(rec) + "\n")
    return root


# ---------------------------------------------------------------------------
# analyze


def test_analyze_clean_session(assets, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "--log", str(assets / "clean.jsonl"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header = json.loads(proc.stdout.splitlines()[0])
    assert "effective_config" in header
    assert header["effective_config"]["face_threshold"] == 0.6
    report = json.loads(out.read_text())
    assert report["final_label"] == "Clean"
    assert report["flags"] == []


def test_analyze_flags_speech_session(assets, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "--log", str(assets / "speech.jsonl"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["final_label"] == "Suspect"
    assert {f["kind"] for f in report["flags"]} == {"VoiceDetection"}
    for f in report["flags"]:
        assert f["clip_request"]["duration_ms"] == 5000


def test_analyze_config_overrides_log_header(assets, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"voice_threshold": 0.99}))
    out = tmp_path / "report.json"
    proc = run_cli(
        "analyze",
        "--log",
        str(assets / "speech.jsonl"),
        "--config",
        str(cfg_path),
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    header = json.loads(proc.stdout.splitlines()[0])
    assert header["effective_config"]["voice_threshold"] == 0.99


def test_analyze_missing_log_exits_one(assets, tmp_path):
    proc = run_cli("analyze", "--log", str(assets / "nope.jsonl"), "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip())
    assert "nope.jsonl" in err["message"]
    assert err["error"]


def test_analyze_rejects_unknown_config_key(assets, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"not_a_key": 1}))
    proc = run_cli(
        "analyze",
        "--log",
        str(assets / "clean.jsonl"),
        "--config",
        str(cfg_path),
        "--out",
        str(tmp_path / "r.json"),
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr.strip())["error"] == "BadConfig"


@pytest.mark.parametrize(
    "text, message",
    [
        # before, each of these three was stored as given: "false" and 0 then
        # read as a config that rechecks on any return, and null fell out of
        # the effective-config line
        ('{"recheck_on_any_return": "false"}', "recheck_on_any_return must be true or false, got 'false'"),
        ('{"recheck_on_any_return": 0}', "recheck_on_any_return must be true or false, got 0"),
        ('{"recheck_on_any_return": null}', "recheck_on_any_return must be true or false, got None"),
        ('{"not_a_key": 1}', "unknown key 'not_a_key'"),
        # an object given for device_thresholds replaces the whole value, so
        # it gives both fields: the class default high fills in nothing
        ('{"device_thresholds": {"low": 0.2}}', "missing key 'device_thresholds.high'"),
        ('{"device_thresholds": {"low": 0.2, "high": 0.9, "mid": 0.5}}', "unknown key 'device_thresholds.mid'"),
        ('{"device_thresholds": {"low": 0.2, "high": true}}', "device_thresholds.high must be a finite number, got True"),
        ('{"device_thresholds": {"low": 0.9, "high": 0.2}}', "device_thresholds: need 0 <= low <= high <= 1, got low=0.9, high=0.2"),
        ('{"iou_thresholds": {"person": "0.5"}}', "iou_thresholds['person'] must be a finite number, got '0.5'"),
        ('{"absence_recheck_min_ms": 20000}', "absence_recheck_min_ms must be smaller than absence_long_ms"),
        ("[1]", "config must be an object"),
        ('{"audio": [1]}', "bad audio hyperparameters: audio must be an object"),
        ('{"audio": {"momentum": 0.9}}', "bad audio hyperparameters: unknown key 'momentum'"),
    ],
)
def test_config_file_content_errors_name_the_file(assets, tmp_path, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = ["analyze", "--log", str(assets / "clean.jsonl"), "--config", str(cfg), "--out", str(tmp_path / "r.json")]
    code, records = _run_in_process(argv)
    assert code == 1
    (record,) = records
    assert json.loads(record) == {"error": "BadConfig", "message": f"{cfg}: {message}"}
    assert not (tmp_path / "r.json").exists()


def test_usage_errors_exit_two():
    assert run_cli().returncode == 2
    assert run_cli("analyze").returncode == 2
    assert run_cli("frobnicate").returncode == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_artifacts_and_is_reproducible(assets, tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (dir_a, dir_b):
        proc = run_cli(
            "simulate", "--spec", str(assets / "scenario.json"), "--out-dir", str(out_dir)
        )
        assert proc.returncode == 0, proc.stderr
    names = ["session.jsonl", "ground_truth.json", "report.json", "metrics.json"]
    for name in names:
        assert (dir_a / name).exists()
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    pcm_files = sorted(p.name for p in (dir_a / "audio").iterdir())
    assert pcm_files and pcm_files == sorted(p.name for p in (dir_b / "audio").iterdir())
    for name in pcm_files:
        assert (dir_a / "audio" / name).read_bytes() == (dir_b / "audio" / name).read_bytes()
    metrics = json.loads((dir_a / "metrics.json").read_text())
    assert metrics["overall_precision"] == 1.0
    assert metrics["overall_recall"] == 1.0


@pytest.fixture(scope="module")
def simulated(assets, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("simulated")
    proc = run_cli("simulate", "--spec", str(assets / "scenario.json"), "--out-dir", str(out_dir))
    assert proc.returncode == 0, proc.stderr
    return out_dir


def _audio_lines(log_path: Path) -> list[tuple[int, dict]]:
    lines = log_path.read_text().splitlines()
    records = [(no, json.loads(line)) for no, line in enumerate(lines, start=1)]
    return [(no, rec["payload"]) for no, rec in records if rec["kind"] == "AudioWindow"]


def test_simulate_writes_audio_as_hashed_pcm_side_files(simulated):
    assert b'"samples"' not in (simulated / "session.jsonl").read_bytes()
    windows = _audio_lines(simulated / "session.jsonl")
    assert windows
    for _, payload in windows:
        assert "samples" not in payload
        raw = (simulated / payload["path"]).read_bytes()
        assert len(raw) == 32_000
        assert hashlib.sha256(raw).hexdigest() == payload["sha256"]
    assert len(list((simulated / "audio").iterdir())) == len(windows)


def test_analyze_names_the_line_of_a_corrupted_side_file(simulated, tmp_path):
    out_dir = tmp_path / "sim"
    shutil.copytree(simulated, out_dir)
    lineno, payload = _audio_lines(out_dir / "session.jsonl")[1]
    pcm = out_dir / payload["path"]
    raw = bytearray(pcm.read_bytes())
    raw[100] ^= 0x01
    pcm.write_bytes(bytes(raw))
    proc = run_cli("analyze", "--log", str(out_dir / "session.jsonl"), "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip())
    assert err["error"] == "AudioIntegrityError"
    assert err["message"].startswith(f"line {lineno}: audio file ")
    assert "hash mismatch" in err["message"]


def test_simulate_seed_override_changes_session(assets, tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_cli("simulate", "--spec", str(assets / "scenario.json"), "--out-dir", str(dir_a))
    proc = run_cli(
        "simulate",
        "--spec",
        str(assets / "scenario.json"),
        "--seed",
        "999",
        "--out-dir",
        str(dir_b),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0])["seed"] == 999
    assert (dir_a / "session.jsonl").read_bytes() != (dir_b / "session.jsonl").read_bytes()


def test_analyze_reproduces_simulated_report(assets, tmp_path):
    out_dir = tmp_path / "sim"
    run_cli("simulate", "--spec", str(assets / "scenario.json"), "--out-dir", str(out_dir))
    replayed = tmp_path / "replayed.json"
    proc = run_cli("analyze", "--log", str(out_dir / "session.jsonl"), "--out", str(replayed))
    assert proc.returncode == 0, proc.stderr
    assert replayed.read_bytes() == (out_dir / "report.json").read_bytes()


def test_library_and_analyze_give_the_same_report(tmp_path):
    log, _ = generate_session(random_scenario(3))
    (tmp_path / "session.jsonl").write_bytes(serialize_session_log(log))
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "--log", str(tmp_path / "session.jsonl"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    library = report_to_json(run_session(log))
    assert b"VoiceDetection" in library
    assert library == out.read_bytes()


def _write_lines(path: Path, log, edit) -> None:
    lines = serialize_session_log(log).decode().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def test_analyze_audio_file_error_names_file_line(identity, tmp_path):
    _, refs = identity
    bad = SensorEvent(t_ms=500, kind=EventKind.AUDIO_WINDOW, payload=AudioWindowPayload(path="w.pcm"))
    log = make_log([frame_event(0), frame_event(400), bad, frame_event(900)], refs)
    _write_lines(tmp_path / "session.jsonl", log, lambda lines: lines.insert(2, ""))
    save_model(band_contrast_model(), tmp_path / "band.ivm")
    proc = run_cli(
        "analyze",
        "--log",
        str(tmp_path / "session.jsonl"),
        "--voice-model",
        str(tmp_path / "band.ivm"),
        "--out",
        str(tmp_path / "r.json"),
    )
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip())
    assert err["error"] == "AudioIntegrityError"
    # the bad window is the third event and sits on file line 6, after a blank line
    assert err["message"].startswith("line 6: cannot read audio file")


def test_analyze_refuses_a_voice_model_for_another_window_before_reading_events(identity, tmp_path):
    # a model trained on 8 kHz windows takes 30 spectrogram frames, not the 61 of a
    # session log's 16 kHz window; it is refused before the bad event on line 4 is read
    _, refs = identity
    log = make_log([frame_event(0), frame_event(400)], refs)
    _write_lines(tmp_path / "session.jsonl", log, lambda lines: lines.__setitem__(3, "{not json"))
    model = tmp_path / "short.ivm"
    save_model(band_contrast_model(input_shape=(30, 257)), model)
    argv = ["analyze", "--log", str(tmp_path / "session.jsonl"), "--voice-model", str(model)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code, records = _run_in_process([*argv, "--out", str(tmp_path / "r.json")])
    assert code == 1
    (record,) = records
    assert json.loads(record) == {
        "error": "ShapeMismatch",
        "message": f"{model}: model input (30, 257) does not match the spectrogram shape (61, 257) "
        "of a 16000 Hz session-log window",
    }
    assert stdout.getvalue() == ""
    assert not (tmp_path / "r.json").exists()

    # a library replay with that model still names the line of the first window
    window = SensorEvent(t_ms=500, kind=EventKind.AUDIO_WINDOW, payload=AudioWindowPayload(samples=np.zeros(16000)))
    stream = read_session_log(serialize_session_log(make_log([window], refs)).splitlines())
    with pytest.raises(ShapeMismatch, match=r"^line 3: spectrogram shape \(61, 257\) does not match model input"):
        replay_events(stream.reference_embeddings, stream.session_id, stream.events(), EngineConfig(), load_model(model))


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda w, b: (w, np.array([0.0, np.nan], dtype=np.float32)), id="nan-bias"),
        # finite weights whose logits overflow; before, numpy's warnings reached stderr too
        pytest.param(lambda w, b: (np.full_like(w, 3e38), b), id="overflowing-weights"),
    ],
)
def test_analyze_refuses_a_voice_model_with_non_finite_output(assets, tmp_path, edit):
    # before, the whole session replayed and rendering the report failed
    # with a ValueError that named neither the model nor a line
    band = band_contrast_model()
    w, b = edit(band.layers[1].w, band.layers[1].b)
    save_model(VoiceModel([Flatten(), Dense(w, b)], band.input_shape), tmp_path / "m.ivm")
    log = assets / "speech.jsonl"
    proc = run_cli("analyze", "--log", str(log), "--voice-model", str(tmp_path / "m.ivm"), "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 1
    (record,) = proc.stderr.splitlines()
    err = json.loads(record)
    assert err["error"] == "NonFiniteOutput"
    lineno = _audio_lines(log)[0][0]
    assert err["message"].startswith(f"line {lineno}: voice model gave probability nan for the audio window at t=")


def test_analyze_validates_frames_the_rate_cap_drops(identity, tmp_path):
    _, refs = identity
    log = make_log([frame_event(0), frame_event(100), frame_event(400)], refs)

    def break_second_frame(lines):
        rec = json.loads(lines[3])
        del rec["payload"]["detections"][0]["box"]["w"]
        lines[3] = json.dumps(rec)

    _write_lines(tmp_path / "session.jsonl", log, break_second_frame)
    proc = run_cli("analyze", "--log", str(tmp_path / "session.jsonl"), "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip())
    assert err["error"] == "MalformedRecord"
    assert err["message"] == "line 4: missing key 'w'"


_NON_FINITE_BOXES = [
    '{"x": NaN, "y": 0, "w": Infinity, "h": 1e400}',
    '{"x": 0, "y": 0, "w": 1e400, "h": 1}',
    '{"x": 0, "y": -Infinity, "w": 1, "h": 1}',
    '{"x": 0, "y": 0, "w": 1, "h": NaN}',
]


@pytest.mark.parametrize("box", _NON_FINITE_BOXES)
def test_analyze_rejects_non_finite_boxes(identity, tmp_path, box):
    _, refs = identity
    log = make_log([frame_event(0), frame_event(400)], refs)

    def break_box(lines):
        rec = json.loads(lines[3])
        rec["payload"]["detections"][0]["box"] = "BOX"
        lines[3] = json.dumps(rec).replace('"BOX"', box)

    _write_lines(tmp_path / "session.jsonl", log, break_box)
    argv = ["analyze", "--log", str(tmp_path / "session.jsonl"), "--out", str(tmp_path / "r.json")]
    code, records = _run_in_process(argv)
    assert code == 1
    (record,) = records
    err = json.loads(record)
    assert err["error"] == "MalformedRecord"
    assert err["message"].startswith("line 4: box values must be finite")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("box", _NON_FINITE_BOXES)
def test_eval_objects_rejects_non_finite_boxes(tmp_path, box):
    # gt and pred alike: before, such a frame scored person accuracy 1.0
    fine = '{"x": 0, "y": 0, "w": 10, "h": 10}'
    path = tmp_path / "frames.jsonl"
    for gt, pred in ((box, fine), (fine, box)):
        path.write_text(
            '{"frame_id": "a", "gt": [{"class": "person", "box": ' + fine + '}], "pred": []}\n'
            '{"frame_id": "b", "gt": [{"class": "person", "box": ' + gt + '}], '
            '"pred": [{"class": "person", "score": 0.9, "box": ' + pred + "}]}\n"
        )
        code, records = _run_in_process(["eval-objects", "--dataset", str(path)])
        assert code == 1
        (record,) = records
        err = json.loads(record)
        assert err["error"] == "EngineError"
        assert err["message"].startswith(f"{path}:2: bad dataset record: box values must be finite")


def test_analyze_rejects_other_sample_rates_before_reading_side_files(identity, tmp_path):
    _, refs = identity
    window = SensorEvent(
        t_ms=500, kind=EventKind.AUDIO_WINDOW, payload=AudioWindowPayload(sample_rate=16000, path="absent.pcm")
    )
    log = make_log([frame_event(0), window], refs)

    def resample_window(lines):
        rec = json.loads(lines[3])
        rec["payload"]["sample_rate"] = 8000
        lines[3] = json.dumps(rec)

    _write_lines(tmp_path / "session.jsonl", log, resample_window)
    proc = run_cli("analyze", "--log", str(tmp_path / "session.jsonl"), "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip())
    assert err["error"] == "MalformedRecord"
    assert err["message"].startswith("line 4: sample_rate must be 16000 Hz")


def test_analyze_short_reference_set_is_reported_not_warned(tmp_path):
    # capture aims for reference_count (default 20) embeddings; fewer are
    # accepted, and the count goes on the effective-config line
    _, refs = make_reference_set(np.random.default_rng(3), count=3)
    (tmp_path / "session.jsonl").write_bytes(serialize_session_log(make_log([frame_event(0)], refs)))
    proc = run_cli("analyze", "--log", str(tmp_path / "session.jsonl"), "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 0
    assert proc.stderr == ""
    header = json.loads(proc.stdout.splitlines()[0])
    assert header["references"] == 3
    assert header["effective_config"]["reference_count"] == 20


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"max_fps": 1' + "0" * 400 + "}", "integer with 401 digits is beyond the float64 range"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
    ],
)
def test_analyze_config_file_out_of_range_is_bad_config(assets, tmp_path, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    argv = ["analyze", "--log", str(assets / "clean.jsonl"), "--config", str(cfg_path)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.run_cli([*argv, "--out", str(tmp_path / "r.json")])
    assert code == 1
    (record,) = stderr.getvalue().splitlines()
    err = json.loads(record)
    assert err["error"] == "BadConfig"
    assert err["message"].startswith(f"{cfg_path}: not valid JSON: ")
    assert message in err["message"]


def _run_in_process(argv: list[str]) -> tuple[int, list[str]]:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.run_cli(argv)
    return code, stderr.getvalue().splitlines()


_NEST = "[" * 100_000
_BIG_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "command, text, error, message",
    [
        ("simulate", _NEST, "InvalidSpec", "{path}: maximum recursion depth exceeded"),
        ("simulate", '{"duration_ms": ' + _BIG_INT + "}", "InvalidSpec", "{path}: integer with 401 digits"),
        ("train-voice", _NEST, "EngineError", "{path}:1: not valid JSON: maximum recursion depth"),
        (
            "train-voice",
            '{"path": "w.pcm", "label": "voice", "sample_rate": 1e400}',
            "EngineError",
            "{path}:1: bad manifest record: sample_rate must be an integer, got inf",
        ),
        # the manifest's and the dataset's strings and integers are checked as
        # a session log's are; before, each of these was coerced and loaded
        *(
            ("train-voice", record, "EngineError", "{path}:1: bad manifest record: " + message)
            for record, message in [
                ('{"path": "w.pcm", "label": "voice", "sample_rate": 16000.7}', "sample_rate must be an integer, got 16000.7"),
                ('{"path": "w.pcm", "label": "voice", "sample_rate": "16000"}', "sample_rate must be an integer, got '16000'"),
                ('{"path": "w.pcm", "label": 1}', "label must be a string, got 1"),
                ('{"path": 7, "label": "voice"}', "path must be a string, got 7"),
            ]
        ),
        *(
            ("eval-objects", record, "EngineError", "{path}:1: bad dataset record: " + message)
            for record, message in [
                ('{"frame_id": 7, "gt": []}', "frame_id must be a string, got 7"),
                ('{"frame_id": "f", "gt": [{"class": 5, "box": {"x": 0, "y": 0, "w": 9, "h": 9}}]}', "class must be a string, got 5"),
                # before, each of these read as Python's indexing error
                ('{"frame_id": "f", "gt": {"class": "person"}}', "gt must be a list"),
                ('{"frame_id": "f", "gt": [], "pred": [7]}', "pred item must be an object"),
                (
                    '{"frame_id": "f", "gt": [], "pred": [{"class": "person", "box": [1, 2, 3, 4], "score": 0.5}]}',
                    "box must be an object",
                ),
            ]
        ),
        *(
            (command, record, "EngineError", "{path}:1: record must be a JSON object")
            for command, record in [("train-voice", '"w.pcm"'), ("eval-objects", "[1, 2]")]
        ),
        # a line that is not UTF-8 is a bad record of its own line, not a bare UnicodeDecodeError
        *(
            (command, b'\n{"path": "\xff"}\n', "EngineError", "{path}:2: not valid UTF-8: 'utf-8' codec can't")
            for command in ["train-voice", "eval-objects"]
        ),
        (
            "eval-objects",
            '{"frame_id": "f", "gt": [{"class": "dog", "box": {"x": 0, "y": 0, "w": 9, "h": 9}}]}',
            "MissingThreshold",
            "{path}:1: no IoU threshold for class 'dog'",
        ),
        (
            "train-voice",
            '{"path": "missing.pcm", "label": "voice"}',
            "EngineError",
            "{path}:1: missing.pcm: [Errno 2] No such file or directory",
        ),
        # before, numpy's "buffer size must be a multiple of element size"
        (
            "train-voice",
            '{"path": "odd.pcm", "label": "voice"}',
            "EngineError",
            "{path}:1: odd.pcm: holds 32001 bytes, not whole 16-bit samples",
        ),
        ("eval-objects", _NEST, "EngineError", "{path}:1: not valid JSON: maximum recursion depth"),
        (
            "eval-objects",
            '{"frame_id": "f", "gt": [{"class": "person", "box": {"x": 0, "y": 0, "w": '
            + _BIG_INT
            + ', "h": 1}}]}',
            "EngineError",
            "{path}:1: not valid JSON: integer with 401 digits is beyond the float64 range",
        ),
        # numbers are JSON numbers, as in a session log; before, each of these
        # was coerced and the command exited 0
        *(
            ("simulate", '{"duration_ms": 15000, "episodes": [' + episode + "]" + seed + "}", "InvalidSpec", message)
            for episode, seed, message in [
                (
                    '{"kind": "phone_use", "start_ms": 3000.9, "length_ms": 4000}',
                    "",
                    "{path}: bad scenario document: episodes[0].start_ms must be an integer, got 3000.9",
                ),
                (
                    '{"kind": "phone_use", "start_ms": 3000, "length_ms": "4000"}',
                    "",
                    "{path}: bad scenario document: episodes[0].length_ms must be an integer, got '4000'",
                ),
                (
                    '{"kind": "phone_use", "start_ms": 3000, "length_ms": 4000}',
                    ', "seed": true',
                    "{path}: bad scenario document: seed must be an integer, got True",
                ),
                (
                    # the decoder reads an integer literal outside [-2**63, 2**64) as a float
                    '{"kind": "phone_use", "start_ms": 3000, "length_ms": 4000}',
                    ', "seed": 18446744073709551616',
                    "{path}: bad scenario document: seed must be an integer, got 1.8446744073709552e+19",
                ),
                (
                    '{"kind": "phone_use", "start_ms": 3000, "length_ms": 4000, "intensity": "0.9"}',
                    "",
                    "{path}: bad scenario document: episodes[0].intensity must be a finite number, got '0.9'",
                ),
                # before, both keys were ignored: the first ran seed 0, the second
                # intensity 0.9
                (
                    '{"kind": "phone_use", "start_ms": 3000, "length_ms": 4000}',
                    ', "seeds": 7',
                    "{path}: bad scenario document: unknown key 'seeds'",
                ),
                (
                    '{"kind": "phone_use", "start_ms": 3000, "length_ms": 4000, "intensty": 0.5}',
                    "",
                    "{path}: bad scenario document: unknown key 'episodes[0].intensty'",
                ),
                (
                    '{"kind": "juggling", "start_ms": 3000, "length_ms": 4000}',
                    "",
                    "{path}: bad scenario document: episodes[0].kind must be one of ",
                ),
                ('7', "", "{path}: bad scenario document: episodes[0] must be an object"),
            ]
        ),
        *(
            (
                "eval-objects",
                '{"frame_id": "f", "gt": [{"class": "person", "box": ' + gt_box + '}], '
                '"pred": [{"class": "person", "box": {"x": 0, "y": 0, "w": 9, "h": 9}, "score": ' + score + "}]}",
                "EngineError",
                "{path}:1: bad dataset record: " + message,
            )
            for gt_box, score, message in [
                ('{"x": "0", "y": 0, "w": 9, "h": 9}', "0.9", "box.x must be a number, got '0'"),
                ('{"x": 0, "y": true, "w": 9, "h": 9}', "0.9", "box.y must be a number, got True"),
                ('{"x": 0, "y": 0, "w": 9, "h": 9}', '"NaN"', "score must be a number, got 'NaN'"),
                ('{"x": 0, "y": 0, "w": 9, "h": 9}', "7.5", "detection score must be in [0, 1], got 7.5"),
            ]
        ),
    ],
)
def test_json_readers_turn_bad_input_into_one_error_record(assets, tmp_path, command, text, error, message):
    path = tmp_path / "input.json"
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    argv = {
        "simulate": ["simulate", "--spec", str(path), "--out-dir", str(tmp_path / "out")],
        "train-voice": [
            "train-voice", "--corpus", str(assets / "corpus"), "--manifest", str(path),
            "--out-model", str(tmp_path / "m.ivm"),
        ],
        "eval-objects": ["eval-objects", "--dataset", str(path)],
    }[command]
    code, records = _run_in_process(argv)
    assert code == 1
    (record,) = records
    err = json.loads(record)
    assert err["error"] == error
    assert err["message"].startswith(message.format(path=path))


def test_simulate_rejects_overlong_scenario(tmp_path):
    too_long = {"duration_ms": MAX_DURATION_MS + 1, "seed": 0, "episodes": []}
    # the spec is turned away before any session is generated
    with pytest.raises(EngineError, match="duration_ms must be in"):
        scenario_from_dict(too_long)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(too_long))
    argv = ["simulate", "--spec", str(spec), "--out-dir", str(tmp_path)]
    code, records = _run_in_process(argv)
    assert code == 1
    (record,) = records
    assert json.loads(record) == {
        "error": "InvalidSpec",
        "message": f"{spec}: bad scenario document: duration_ms must be in (0, {MAX_DURATION_MS}], got {MAX_DURATION_MS + 1}",
    }


@pytest.mark.parametrize("where", ["config", "t_ms"])
def test_analyze_takes_a_rate_cap_bucket_past_the_float_range(fuzz_fixture, tmp_path, where):
    # a max_fps of 1e308, or a t_ms of 10**308 (which only the stdlib decoder
    # reads, so the line holds a lone surrogate), gives t_ms * max_fps / 1000 = inf
    root, lines = fuzz_fixture
    lines = list(lines)
    if where == "t_ms":
        rec = json.loads(lines[-1])
        rec["t_ms"], rec["note"] = 10**308, "\ud800"
        lines[-1] = json.dumps(rec).encode()
    log, cfg, out = root / "capped.jsonl", tmp_path / "cfg.json", tmp_path / "r.json"
    log.write_bytes(b"\n".join(lines) + b"\n")
    cfg.write_text(json.dumps({"max_fps": 1e308 if where == "config" else 3.0}))
    code, records = _run_in_process(["analyze", "--log", str(log), "--out", str(out), "--config", str(cfg)])
    assert (code, records) == (0, [])
    json.loads(out.read_bytes(), parse_constant=_reject_constant)


def test_analyze_checks_order_before_the_rate_cap(identity, tmp_path):
    # At 3 fps, t=1010 and t=1005 share bucket 3, so the cap drops the
    # second frame: only a check ahead of the cap can see it go backwards.
    _, refs = identity
    log = make_log([frame_event(1005), frame_event(1010)], refs)
    assert log.config.max_fps == 3.0

    def swap_times(lines):
        first, second = json.loads(lines[2]), json.loads(lines[3])
        first["t_ms"], second["t_ms"] = 1010, 1005
        lines[2], lines[3] = json.dumps(first), json.dumps(second)

    _write_lines(tmp_path / "session.jsonl", log, swap_times)
    proc = run_cli("analyze", "--log", str(tmp_path / "session.jsonl"), "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip())
    assert err["error"] == "NonMonotonicTime"
    assert err["message"].startswith("line 4:")


def _engine_error_names() -> set[str]:
    names, todo = set(), [EngineError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


@pytest.fixture(scope="module")
def fuzz_fixture(tmp_path_factory):
    """A short valid log (every event kind, a PCM side file) as a list of byte lines."""
    root = tmp_path_factory.mktemp("fuzz")
    _, refs = make_reference_set(np.random.default_rng(0xF2), count=3)
    raw = pcm_bytes(synth_audio("voiced", 5).samples)
    (root / "w.pcm").write_bytes(raw)
    audio = AudioWindowPayload(sample_rate=16000, path="w.pcm", sha256=hashlib.sha256(raw).hexdigest())
    events = [
        frame_event(0),
        frame_event(400, devices=(("phone", 0.8),)),
        SensorEvent(t_ms=500, kind=EventKind.FACE_EMBEDDING, payload=FaceEmbeddingPayload(Embedding(refs.matrix[0]))),
        SensorEvent(t_ms=1000, kind=EventKind.AUDIO_WINDOW, payload=audio),
        frame_event(1200, persons=2),
        SensorEvent(t_ms=1300, kind=EventKind.FRAME_IMAGE, payload=FrameImageRef(path="f.ppm")),
        frame_event(1700, persons=0),
    ]
    log = make_log(events, refs, cfg=EngineConfig(reference_count=3))
    return root, serialize_session_log(log).splitlines()


@st.composite
def _mutated_log(draw, lines):
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["swap_t", "delete", "set", "truncate", "bad_utf8", "nest"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "nest":
            lines[i] = b"[" * 100_000
            continue
        if op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
            continue
        if op == "bad_utf8":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xe2\x82"])) + lines[i][at:]
            continue
        try:
            records = [json.loads(line) for line in lines]
        except (ValueError, RecursionError):
            continue  # an earlier mutation broke the JSON; the record-level ones need it whole
        if op == "swap_t":
            j = draw(st.integers(2, len(lines) - 1))
            i = max(i, 2)
            if not all(isinstance(records[k], dict) and "t_ms" in records[k] for k in (i, j)):
                continue
            records[i]["t_ms"], records[j]["t_ms"] = records[j]["t_ms"], records[i]["t_ms"]
            lines[i], lines[j] = json.dumps(records[i]).encode(), json.dumps(records[j]).encode()
            continue
        slots = [(c, k) for c, k in json_slots(records[i]) if op == "set" or isinstance(c, dict)]
        if not slots:
            continue
        container, key = draw(st.sampled_from(slots))
        if op == "delete":
            del container[key]
        else:
            container[key] = draw(FUZZ_VALUES)
        lines[i] = json.dumps(records[i]).encode()
    return b"\n".join(lines) + b"\n"


def _reject_constant(name):
    raise ValueError(f"report holds {name}")


@given(data=st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_analyze_fuzzed_records_give_a_report_or_an_engine_error(fuzz_fixture, data):
    root, lines = fuzz_fixture
    log_path, out = root / "session.jsonl", root / "report.json"
    log_path.write_bytes(data.draw(_mutated_log(lines)))
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run_cli(["analyze", "--log", str(log_path), "--out", str(out)])
    if code == 0:
        assert stderr.getvalue() == ""
        json.loads(out.read_bytes(), parse_constant=_reject_constant)
    else:
        assert code == 1
        records = stderr.getvalue().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["error"] in _engine_error_names()


@pytest.fixture(scope="module")
def client_log_fixture(tmp_path_factory):
    """A 1.5 s log in the client's shape: 30 fps frames with several detections, one PCM side file."""
    root = tmp_path_factory.mktemp("bytefuzz")
    _, refs = make_reference_set(np.random.default_rng(0xB7), count=3)
    raw = pcm_bytes(synth_audio("voiced", 6).samples)
    (root / "audio").mkdir()
    (root / "audio" / "1000.pcm").write_bytes(raw)
    audio = AudioWindowPayload(sample_rate=16000, path="audio/1000.pcm", sha256=hashlib.sha256(raw).hexdigest())
    clutter = (
        Detection(label="cell phone", score=0.55, box=BoundingBox(x=250.0, y=150.0, w=40.0, h=30.0)),
        Detection(label="chair", score=0.81, box=BoundingBox(x=10.5, y=20.0, w=60.0, h=35.25)),
    )
    events = []
    for t in range(0, 1500, 33):
        frame = frame_event(t, persons=1 + (t >= 1200))
        events.append(dataclasses.replace(frame, payload=FrameDetections(frame.payload.detections + clutter)))
        if t == 990:
            events.append(SensorEvent(t_ms=1000, kind=EventKind.AUDIO_WINDOW, payload=audio))
    log = make_log(events, refs, cfg=EngineConfig(reference_count=3))
    return root, serialize_session_log(log)


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_analyze_fuzzed_bytes_give_a_report_or_an_engine_error(client_log_fixture, data):
    root, log_bytes = client_log_fixture
    log_path, out = root / "session.jsonl", root / "report.json"
    pcm_path = root / "audio" / "1000.pcm"
    pcm = pcm_path.read_bytes()
    target = data.draw(st.sampled_from(["log"] * 4 + ["pcm"]))
    log_path.write_bytes(data.draw(mutated_bytes(log_bytes)) if target == "log" else log_bytes)
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        if target == "pcm":
            pcm_path.write_bytes(data.draw(mutated_bytes(pcm)))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run_cli(["analyze", "--log", str(log_path), "--out", str(out)])
    finally:
        pcm_path.write_bytes(pcm)
    if code == 0:
        assert stderr.getvalue() == ""
        json.loads(out.read_bytes(), parse_constant=_reject_constant)
    else:
        assert code == 1
        records = stderr.getvalue().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["error"] in _engine_error_names()


@pytest.fixture(scope="module")
def model_fuzz_fixture(tmp_path_factory):
    """A 3 s log with inline audio, and the bytes of a small saved conv model for its windows."""
    root = tmp_path_factory.mktemp("modelfuzz")
    spec = ScenarioSpec(duration_ms=3000, episodes=(Episode(EpisodeKind.BACKGROUND_SPEECH, 1000, 1500),), seed=5)
    log, _ = generate_session(spec)
    (root / "session.jsonl").write_bytes(serialize_session_log(log))
    rng = np.random.default_rng(0x3D)
    conv = Conv2D((rng.standard_normal((3, 3, 1, 2)) * 0.3).astype(np.float32), np.full(2, 0.01, np.float32))
    dense = Dense((rng.standard_normal((29 * 127 * 2, 2)) * 0.01).astype(np.float32), np.zeros(2, np.float32))
    save_model(VoiceModel([conv, MaxPool2(), Flatten(), dense], (61, 257)), root / "model.ivm")
    return root, (root / "model.ivm").read_bytes()


def _model_container(raw: bytes) -> tuple[dict, list[list]]:
    """The metadata and the [name, shape, float32 data] tensors of a saved model, read without the loader."""
    pos = len(MODEL_MAGIC) + 4
    (meta_len,) = struct.unpack_from("<I", raw, pos)
    meta = json.loads(raw[pos + 4 : pos + 4 + meta_len])
    pos += 4 + meta_len
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    tensors = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2 : pos + 2 + name_len]
        pos += 2 + name_len
        ndim = raw[pos]
        shape = list(struct.unpack_from(f"<{ndim}I", raw, pos + 1))
        pos += 1 + 4 * ndim
        size = 4 * math.prod(shape)
        tensors.append([name, shape, np.frombuffer(raw[pos : pos + size], dtype="<f4").copy()])
        pos += size
    return meta, tensors


def _model_bytes(meta: dict, tensors: list[list]) -> bytes:
    meta_bytes = json.dumps(meta).encode()
    chunks = [MODEL_MAGIC, struct.pack("<II", MODEL_FORMAT_VERSION, len(meta_bytes)), meta_bytes]
    chunks.append(struct.pack("<I", len(tensors)))
    for name, shape, data in tensors:
        chunks += [struct.pack("<H", len(name)), name, struct.pack("<B", len(shape)), struct.pack(f"<{len(shape)}I", *shape)]
        chunks.append(data.astype("<f4").tobytes())
    return b"".join(chunks)


_LAYER_VALUES = st.sampled_from(["conv2d", "dense", "maxpool2", "flatten", [30, 257], [61, 257, 1], [257, 61], 0])
_WEIGHT_VALUES = st.sampled_from([np.nan, np.inf, -np.inf, 3e38, -3e38, 1e20])


@st.composite
def _mutated_model(draw, raw):
    """The saved model broken one to three ways: a metadata field, a tensor
    shape, NaN or huge weights, then perhaps truncated or byte-edited."""
    meta, tensors = _model_container(raw)
    assert _model_bytes(meta, tensors) == raw
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["header", "shape", "weights"]))
        if op == "header":
            container, key = draw(st.sampled_from(list(json_slots(meta))))
            if isinstance(container, dict) and draw(st.booleans()):
                del container[key]
            else:
                container[key] = copy.deepcopy(draw(FUZZ_VALUES | _LAYER_VALUES))
        elif op == "shape":
            tensor = draw(st.sampled_from(tensors))
            if draw(st.booleans()):
                tensor[1] = draw(st.permutations(tensor[1]))  # the same size, read in another layout
            else:
                tensor[1] = draw(st.lists(st.integers(0, 64) | st.integers(0, 2**32 - 1), max_size=6))
        else:
            data = draw(st.sampled_from(tensors))[2]
            value = draw(_WEIGHT_VALUES)
            if draw(st.booleans()):
                data[:] = value
            else:
                data[draw(st.integers(0, data.size - 1))] = value
    out = _model_bytes(meta, tensors)
    ending = draw(st.sampled_from(["whole"] * 4 + ["truncated", "edited"]))
    if ending == "truncated":
        return out[: draw(st.integers(0, len(out) - 1))]
    return draw(mutated_bytes(out)) if ending == "edited" else out


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_analyze_fuzzed_voice_model_gives_a_report_or_an_engine_error(model_fuzz_fixture, data):
    root, raw = model_fuzz_fixture
    model, out = root / "fuzzed.ivm", root / "report.json"
    model.write_bytes(data.draw(_mutated_model(raw)))
    out.unlink(missing_ok=True)
    argv = ["analyze", "--log", str(root / "session.jsonl"), "--out", str(out), "--voice-model", str(model)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run_cli(argv)
    if code == 0:
        assert stderr.getvalue() == ""
        json.loads(out.read_bytes(), parse_constant=_reject_constant)
    else:
        assert code == 1
        records = stderr.getvalue().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["error"] in _engine_error_names()


# a --config file (engine fields and an "audio" object) and a --spec scenario,
# each valid as written; the fuzz below breaks them
_CONFIG = {
    "face_threshold": 0.5,
    "device_thresholds": {"low": 0.3, "high": 0.8},
    "person_score_min": 0.4,
    "absence_long_ms": 900,
    "absence_recheck_min_ms": 300,
    "max_fps": 2.0,
    "voice_threshold": 0.6,
    "iou_thresholds": {"person": 0.6},
    "recheck_on_any_return": True,
    "audio": {"max_epochs": 2, "patience": 1, "batch_size": 2, "learning_rate": 0.02, "val_fraction": 0.25},
}
_SPEC = {
    "duration_ms": 3000,
    "episodes": [
        {"kind": "absence", "start_ms": 500, "length_ms": 1200, "intensity": 0.9},
        {"kind": "background_speech", "start_ms": 1000, "length_ms": 1000},
    ],
    "seed": 3,
}
# the shared odd values, and numbers at the edges of what the fields take
_DOCUMENT_VALUES = FUZZ_VALUES | st.sampled_from([0, True, "", 2**63, 2**64 - 1, 5e-324, 1e308, -1e308])


@pytest.fixture(scope="module")
def document_fuzz_fixture(fuzz_fixture):
    """fuzz_fixture's directory with its log whole, and a corpus of four windows."""
    root, lines = fuzz_fixture
    (root / "clean.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    manifest = []
    for i, kind in enumerate(["voiced", "unvoiced"] * 2):
        (root / f"c{i}.pcm").write_bytes(pcm_bytes(synth_audio(kind, seed=40 + i).samples))
        manifest.append(json.dumps({"path": f"c{i}.pcm", "label": "voice" if kind == "voiced" else "non-voice"}))
    (root / "manifest.jsonl").write_text("\n".join(manifest) + "\n")
    return root


@pytest.mark.parametrize("command", ["analyze", "train-voice", "simulate"])
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_fuzzed_config_or_spec_gives_a_result_or_an_engine_error(document_fuzz_fixture, command, data):
    # the typed JSON documents, read through `_load_config` and `load_scenario_file`
    root = document_fuzz_fixture
    doc, out = root / "document.json", root / "out"
    doc.write_bytes(data.draw(fuzzed_json_lines([_SPEC if command == "simulate" else _CONFIG], _DOCUMENT_VALUES)))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    argv = {
        "analyze": [
            "analyze", "--log", str(root / "clean.jsonl"), "--out", str(out / "report.json"), "--config", str(doc),
        ],
        "train-voice": [
            "train-voice", "--corpus", str(root), "--manifest", str(root / "manifest.jsonl"),
            "--out-model", str(out / "m.ivm"), "--config", str(doc),
        ],
        "simulate": ["simulate", "--spec", str(doc), "--out-dir", str(out)],
    }[command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run_cli(argv)
    if code == 0:
        assert stderr.getvalue() == ""
        lines = stdout.getvalue().splitlines()
        lines += [line for path in out.glob("*.jsonl") for line in path.read_text().splitlines()]
        for line in lines:
            json.loads(line, parse_constant=_reject_constant)
        for path in out.glob("*.json"):
            json.loads(path.read_bytes(), parse_constant=_reject_constant)
    else:
        assert code == 1
        records = stderr.getvalue().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["error"] in _engine_error_names()


def test_analyze_peak_memory_does_not_grow_with_session_length(tmp_path):
    peaks = []
    for duration_ms in (60_000, 120_000):
        log, _ = generate_session(dataclasses.replace(random_scenario(3), duration_ms=duration_ms))
        path = tmp_path / f"session{duration_ms}.jsonl"
        path.write_bytes(serialize_session_log(log))
        del log
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run_cli(["analyze", "--log", str(path), "--out", str(tmp_path / "r.json")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    short, long = peaks
    assert long < 1.25 * short, peaks
    assert long < 8 * 2**20, peaks


def test_bench_tracer_patches_resolve():
    # the benchmark's traced run wraps engine attributes by name, and its
    # inputs, worker and checks import engine names; a rename in src/ must
    # fail here rather than only under the benchmark
    root = Path(__file__).resolve().parent.parent
    imports = sorted(
        (node.module, alias.name)
        for script in ("prepare.py", "checks.py", "worker.py")
        for node in ast.walk(ast.parse((root / "bench" / script).read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "invigil"
        for alias in node.names
    )
    assert ("invigil.audio.dsp", "PcmWindow") in imports
    code = (
        "import importlib, json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "for module, name in json.loads(sys.argv[3]):\n"
        "    getattr(importlib.import_module(module), name)\n"
        "from tracer import Tracer, install\n"
        "install(Tracer())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "bench"), str(root / "src"), json.dumps(imports)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# voice training


def test_train_voice_writes_loadable_model(assets, tmp_path):
    model_path = tmp_path / "voice.ivm"
    proc = run_cli(
        "train-voice",
        "--corpus",
        str(assets / "corpus"),
        "--manifest",
        str(assets / "manifest.jsonl"),
        "--out-model",
        str(model_path),
        "--config",
        str(assets / "train.json"),
        "--seed",
        "5",
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[0]["hyperparameters"]["max_epochs"] == 2
    assert "val_accuracy" in lines[1]
    model = load_model(model_path)
    assert model.input_shape == (61, 257)


def test_cv_voice_deterministic_stdout(assets):
    argv = (
        "cv-voice",
        "--corpus",
        str(assets / "corpus"),
        "--manifest",
        str(assets / "manifest.jsonl"),
        "--k",
        "2",
        "--repeats",
        "1",
        "--seed",
        "3",
        "--config",
        str(assets / "train.json"),
    )
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    summary = json.loads(first.stdout.splitlines()[1])
    assert summary["runs"] == 2
    assert summary["min"] <= summary["mean"] <= summary["max"]


def test_train_voice_bad_audio_key_exits_one(assets, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"audio": {"momentum": 0.9}}))
    proc = run_cli(
        "train-voice",
        "--corpus",
        str(assets / "corpus"),
        "--manifest",
        str(assets / "manifest.jsonl"),
        "--out-model",
        str(tmp_path / "m.ivm"),
        "--config",
        str(cfg),
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr.strip())["error"] == "BadConfig"


@pytest.mark.parametrize("command", ["train-voice", "cv-voice"])
def test_voice_corpus_too_short_for_the_model_is_one_error_record(tmp_path, command):
    # 2,000 samples at 2 kHz give a spectrogram too short for the model's two pools
    lines = []
    for i in range(6):
        (tmp_path / f"w{i}.pcm").write_bytes(pcm_bytes(synth_audio("voiced", seed=i).samples[:2000]))
        lines.append(json.dumps({"path": f"w{i}.pcm", "label": ("voice", "non-voice")[i % 2], "sample_rate": 2000}))
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    argv = [command, "--corpus", str(tmp_path), "--manifest", str(tmp_path / "manifest.jsonl")]
    argv += ["--out-model", str(tmp_path / "m.ivm")] if command == "train-voice" else ["--k", "2", "--repeats", "1"]
    code, records = _run_in_process(argv)
    assert code == 1
    (record,) = records
    assert json.loads(record)["error"] == "ShapeMismatch"
    assert not (tmp_path / "m.ivm").exists()


@pytest.mark.parametrize(
    "audio, message",
    [
        ('{"batch_size": 2.5}', "batch_size must be an integer, got 2.5"),
        ('{"batch_size": true}', "batch_size must be an integer, got True"),
        ('{"max_epochs": true}', "max_epochs must be an integer, got True"),
        ('{"patience": 2.0}', "patience must be an integer, got 2.0"),
        ('{"learning_rate": Infinity}', "learning_rate must be a finite number, got inf"),
        ('{"learning_rate": true}', "learning_rate must be a finite number, got True"),
        ('{"val_fraction": NaN}', "val_fraction must be a finite number, got nan"),
        ('{"val_fraction": 1.5}', "val_fraction must lie in (0, 1)"),
    ],
)
def test_train_voice_bad_hyperparameter_is_bad_config(assets, tmp_path, audio, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"audio": ' + audio + "}")
    argv = [
        "train-voice", "--corpus", str(assets / "corpus"), "--manifest", str(assets / "manifest.jsonl"),
        "--out-model", str(tmp_path / "m.ivm"), "--config", str(cfg),
    ]
    code, records = _run_in_process(argv)
    assert code == 1
    (record,) = records
    assert json.loads(record) == {"error": "BadConfig", "message": f"{cfg}: bad audio hyperparameters: {message}"}
    assert not (tmp_path / "m.ivm").exists()


@pytest.mark.parametrize("learning_rate", [1e30, 2**63])
def test_train_voice_with_a_diverging_learning_rate_is_one_error_record(assets, tmp_path, learning_rate):
    # numpy's overflow warnings, errors under this suite's filterwarnings, stay off stderr
    cfg = tmp_path / "lr.json"
    cfg.write_text(json.dumps({"audio": {"max_epochs": 2, "batch_size": 8, "learning_rate": learning_rate}}))
    argv = [
        "train-voice", "--corpus", str(assets / "corpus"), "--manifest", str(assets / "manifest.jsonl"),
        "--out-model", str(tmp_path / "m.ivm"), "--config", str(cfg),
    ]
    code, records = _run_in_process(argv)
    assert code == 1
    (record,) = records
    assert json.loads(record)["error"] == "DivergedLoss"
    assert not (tmp_path / "m.ivm").exists()


# ---------------------------------------------------------------------------
# eval-objects


def test_eval_objects_reports_accuracy(assets):
    proc = run_cli("eval-objects", "--dataset", str(assets / "frames.jsonl"))
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout.splitlines()[1])
    assert table["accuracy"] == {"person": 1.0}
    assert table["iou_thresholds"] == {"person": 0.7}


def test_eval_objects_threshold_override(assets, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iou_thresholds": {"person": 0.99, "laptop": 0.5, "phone": 0.3}}))
    proc = run_cli(
        "eval-objects", "--dataset", str(assets / "frames.jsonl"), "--config", str(cfg)
    )
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout.splitlines()[1])
    # the jittered box no longer clears a 0.99 bar
    assert table["accuracy"] == {"person": 0.0}
