from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from invigil import cli
from invigil.audio.model import load_model
from invigil.events import AudioWindowPayload, EventKind, SensorEvent, pcm_bytes, serialize_session_log
from invigil.pipeline import report_to_json, run_session
from invigil.simulator import (
    Episode,
    EpisodeKind,
    ScenarioSpec,
    generate_session,
    random_scenario,
    save_scenario_file,
    synth_audio,
)

from conftest import frame_event, make_log


def run_cli(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "invigil", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
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
    metrics = json.loads((dir_a / "metrics.json").read_text())
    assert metrics["overall_precision"] == 1.0
    assert metrics["overall_recall"] == 1.0


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


@pytest.mark.parametrize(
    "payload, error, message",
    [
        # replay: the band model cannot take an 8 kHz window
        (AudioWindowPayload(sample_rate=8000, samples=np.zeros(8000)), "ShapeMismatch", "spectrogram shape"),
        (AudioWindowPayload(sample_rate=16000, path="w.pcm"), "AudioIntegrityError", "cannot read audio file"),
    ],
)
def test_analyze_event_errors_name_file_line(identity, tmp_path, payload, error, message):
    _, refs = identity
    bad = SensorEvent(t_ms=500, kind=EventKind.AUDIO_WINDOW, payload=payload)
    log = make_log([frame_event(0), frame_event(400), bad, frame_event(900)], refs)
    _write_lines(tmp_path / "session.jsonl", log, lambda lines: lines.insert(2, ""))
    proc = run_cli("analyze", "--log", str(tmp_path / "session.jsonl"), "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip())
    assert err["error"] == error
    # the bad window is the third event and sits on file line 6, after a blank line
    assert err["message"].startswith(f"line 6: {message}")


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
    # the benchmark's traced run wraps engine attributes by name; a rename
    # in src/ must fail here rather than only under the benchmark
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from tracer import Tracer, install\n"
        "install(Tracer())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "bench"), str(root / "src")],
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
