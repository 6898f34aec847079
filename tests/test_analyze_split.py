"""`analyze` splits a log's audio windows with a forked helper; these tests pin
every outcome of the split to the serial loop, on logs with inline windows and
on logs with their windows in PCM side files.

The serial loop is chosen by making `cli._split_possible` say no, and the
split by making it say yes, so both run whatever the machine's CPU count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from invigil import cli
from invigil.audio.model import Conv2D, Dense, Flatten, MaxPool2, VoiceModel, band_contrast_model, save_model
from invigil.events import ClassifiedWindow, serialize_session_log, write_audio_side_files
from invigil.simulator import Episode, EpisodeKind, ScenarioSpec, generate_session

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (3, 8, 21)
FORMS = ("inline", "side")


def _session(seed: int):
    spec = ScenarioSpec(
        duration_ms=8000,
        episodes=(Episode(EpisodeKind.BACKGROUND_SPEECH, 2000, 3000), Episode(EpisodeKind.ABSENCE, 5000, 2000)),
        seed=seed,
    )
    return generate_session(spec)[0]


def _conv_model(seed: int = 0) -> VoiceModel:
    """A small conv stack over a session-log window's (61, 257) spectrogram."""
    rng = np.random.default_rng(seed)
    w1 = (rng.standard_normal((3, 3, 1, 4)) * 0.3).astype(np.float32)
    w2 = (rng.standard_normal((29 * 127 * 4, 2)) * 0.01).astype(np.float32)
    layers = [Conv2D(w1, np.full(4, 0.01, np.float32)), MaxPool2(), Flatten(), Dense(w2, np.zeros(2, np.float32))]
    return VoiceModel(layers, (61, 257))


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    band = band_contrast_model()
    nan = VoiceModel([Flatten(), Dense(band.layers[1].w, np.array([0.0, np.nan], np.float32))], band.input_shape)
    paths = {"band": None, "conv": root / "conv.ivm", "nan": root / "nan.ivm"}
    save_model(_conv_model(), paths["conv"])
    save_model(nan, paths["nan"])
    return paths


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """(log lines, {side-file path: bytes}) of each form and seed: audio inline, or in side files as a client ships it."""
    out = {}
    for seed in SEEDS:
        session, root = _session(seed), tmp_path_factory.mktemp("side")
        out["inline", seed] = serialize_session_log(session).splitlines(keepends=True), {}
        lines = serialize_session_log(write_audio_side_files(session, root)).splitlines(keepends=True)
        out["side", seed] = lines, {p.relative_to(root).as_posix(): p.read_bytes() for p in root.glob("audio/*")}
    return out


def _windows(lines: list[bytes]) -> list[int]:
    """Indices of the lines `cli._window_turns` counts as audio windows, which the split deals out by turns."""
    return [i for i, _, turn in cli._window_turns(enumerate(lines)) if turn is not None]


def _write(tmp_path: Path, lines: list[bytes], files: dict[str, bytes]) -> Path:
    """The log and its side files written to `tmp_path`; the log's path."""
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    log = tmp_path / "session.jsonl"
    log.write_bytes(b"".join(lines))
    return log


def _analyze(monkeypatch, log: Path, model: Path | None, split: bool):
    """(exit code, stdout, stderr, report bytes or None, windows the helper classified) of one in-process run."""
    monkeypatch.setattr(cli, "_split_possible", lambda fh: split)
    delivered = []
    resolve = cli.resolve_audio
    monkeypatch.setattr(cli, "resolve_audio", lambda ev, base: delivered.append(type(ev.payload)) or resolve(ev, base))
    out = log.parent / f"report-{split}.json"
    out.unlink(missing_ok=True)
    argv = ["analyze", "--log", str(log), "--out", str(out)] + ([] if model is None else ["--voice-model", str(model)])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run_cli(argv)
    report = out.read_bytes() if out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), report, delivered.count(ClassifiedWindow)


# Each mutation breaks window line `i` of `lines`, or its side file in `files`.
# `_line` writes a record as the canonical serializer does, keys in the order
# read, so a window stays a window line to the split.


def _line(rec: dict) -> bytes:
    return json.dumps(rec, separators=(",", ":")).encode() + b"\n"


def _bad_json(lines, files, i):
    lines[i] = lines[i].replace(b'"payload":', b'"payload"', 1)


def _short_window(lines, files, i):
    rec = json.loads(lines[i])
    rec["payload"]["samples"].pop()
    lines[i] = _line(rec)


def _true_sample(lines, files, i):
    rec = json.loads(lines[i])
    rec["payload"]["samples"][7] = True
    lines[i] = _line(rec)


def _image_as_window(lines, files, i):
    # an image line that starts with a window's kind: JSON takes the last of two keys
    t_ms = json.loads(lines[i])["t_ms"]
    lines[i] = b'{"kind":' + cli._WINDOW_KIND + b"," + _line({"kind": "FrameImage", "payload": {"path": "f.ppm"}, "t_ms": t_ms})[1:]


def _documented(lines, files, i):
    # a window in the form README documents for a client, t_ms first and spaced
    rec = json.loads(lines[i])
    lines[i] = json.dumps({"t_ms": rec["t_ms"], "kind": rec["kind"], "payload": rec["payload"]}).encode() + b"\n"


def _kind_last(lines, files, i):
    # a window whose kind comes after its payload, past where the split looks for it
    rec = json.loads(lines[i])
    lines[i] = _line({"payload": rec["payload"], "t_ms": rec["t_ms"], "kind": rec["kind"]})


def _earlier_t(lines, files, i):
    rec = json.loads(lines[i])
    rec["t_ms"] = json.loads(lines[i - 1])["t_ms"] - 1
    lines[i] = _line(rec)


def _huge_t(lines, files, i):
    # a t_ms beyond 64 bits, which the stdlib decoder reads as an integer: a lone
    # surrogate sends the line to it. The next line is then out of order.
    rec = json.loads(lines[i])
    rec["t_ms"], rec["note"] = 2**64 + 1, "\ud800"
    lines[i] = _line(rec)


def _truncated_last(lines, files, i):
    lines[i] = lines[i][: len(lines[i]) // 2]
    del lines[i + 1 :]


def _not_utf8(lines, files, i):
    lines[i] = lines[i].replace(b'"payload"', b'"pay\xffload"', 1)


def _bom(lines, files, i):
    lines[i] = b"\xef\xbb\xbf" + lines[i]


def _string_sample(lines, files, i):
    rec = json.loads(lines[i])
    rec["payload"]["samples"][7] = "0.5"
    lines[i] = _line(rec)


def _rate_8000(lines, files, i):
    rec = json.loads(lines[i])
    rec["payload"]["sample_rate"] = 8000
    lines[i] = _line(rec)


def _detections_payload(lines, files, i):
    rec = json.loads(lines[i])
    frame = next(json.loads(line) for line in lines if line.startswith(b'{"kind":"FrameDetections"'))
    rec["payload"] = frame["payload"]
    lines[i] = _line(rec)


def _missing_pcm(lines, files, i):
    del files[json.loads(lines[i])["payload"]["path"]]


def _sha256_mismatch(lines, files, i):
    path = json.loads(lines[i])["payload"]["path"]
    files[path] = bytes([files[path][0] ^ 1]) + files[path][1:]


def _odd_length(lines, files, i):
    # the sha256 names the shortened bytes, so the length check is the one that fails
    rec = json.loads(lines[i])
    path = rec["payload"]["path"]
    files[path] = files[path][:-1]
    rec["payload"]["sha256"] = hashlib.sha256(files[path]).hexdigest()
    lines[i] = _line(rec)


# name: (the forms it applies to, mutation)
MUTATIONS = {
    "bad-json": (FORMS, _bad_json),
    "15999-samples": (("inline",), _short_window),
    "true-sample": (("inline",), _true_sample),
    "image-as-window": (FORMS, _image_as_window),
    "documented": (FORMS, _documented),
    "kind-last": (FORMS, _kind_last),
    "earlier-t": (FORMS, _earlier_t),
    "huge-t": (FORMS, _huge_t),
    "truncated-last": (FORMS, _truncated_last),
    "not-utf8": (FORMS, _not_utf8),
    "bom": (FORMS, _bom),
    "string-sample": (("inline",), _string_sample),
    "8000-hz": (FORMS, _rate_8000),
    "detections-payload": (FORMS, _detections_payload),
    "missing-pcm": (("side",), _missing_pcm),
    "sha256-mismatch": (("side",), _sha256_mismatch),
    "odd-length": (("side",), _odd_length),
}
# the mutations that leave the report as it was: whether the split still counts the line as a window
HARMLESS = {"image-as-window": True, "documented": True, "kind-last": False}


def _assert_split_is_serial(monkeypatch, tmp_path, lines, files, model) -> tuple[int, int]:
    log = _write(tmp_path, lines, files)
    split = _analyze(monkeypatch, log, model, split=True)
    serial = _analyze(monkeypatch, log, model, split=False)
    assert serial[4] == 0
    assert split[:4] == serial[:4]
    code, _, stderr, report, _ = split
    if code == 0:
        assert stderr == "" and report is not None
    else:
        assert code == 1 and report is None
        (record,) = stderr.splitlines()
        json.loads(record)
    return code, split[4]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", ["band", "conv"])
@pytest.mark.parametrize("form", FORMS)
def test_split_gives_the_serial_report(monkeypatch, tmp_path, logs, models, form, seed, model):
    lines, files = logs[form, seed]
    code, delivered = _assert_split_is_serial(monkeypatch, tmp_path, lines, files, models[model])
    assert code == 0
    assert delivered == len(_windows(lines)) // 2  # every second window line, and the helper declined none


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", ["band", "conv"])
@pytest.mark.parametrize("owner, k", [("helper", 1), ("parent", 2)])
@pytest.mark.parametrize(
    "form, mutation", [(form, name) for name, (forms, _) in sorted(MUTATIONS.items()) for form in forms]
)
def test_split_reports_a_mutated_window_line_as_serial(
    monkeypatch, tmp_path, logs, models, form, seed, model, owner, k, mutation
):
    lines, files = logs[form, seed]
    lines, files = list(lines), dict(files)
    i = _windows(lines)[k]
    MUTATIONS[mutation][1](lines, files, i)
    code, delivered = _assert_split_is_serial(monkeypatch, tmp_path, lines, files, models[model])
    assert (code == 0) == (mutation in HARMLESS)
    if mutation in HARMLESS:
        assert (i in _windows(lines)) == HARMLESS[mutation]
    if mutation == "documented":
        assert delivered == len(_windows(lines)) // 2  # the helper classified every line of its turn
    if owner == "parent":
        assert delivered >= 1  # the helper's line before it was taken from the helper


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("owner", ["parent", "helper"])
@pytest.mark.parametrize("form", FORMS)
def test_split_reports_a_model_with_nan_output_as_serial(monkeypatch, tmp_path, logs, models, form, seed, owner):
    lines, files = logs[form, seed]
    lines = list(lines)
    if owner == "helper":  # the first audio window is then the second window line
        _image_as_window(lines, files, _windows(lines)[0])
    code, delivered = _assert_split_is_serial(monkeypatch, tmp_path, lines, files, models["nan"])
    assert code == 1 and delivered == 0


def test_split_finishes_the_log_when_the_helper_is_killed(monkeypatch, tmp_path, logs, models):
    lines, _ = logs["inline", SEEDS[0]]
    parent, probability = os.getpid(), cli.window_probability

    def slow_in_helper(*args):
        # the helper takes 50 ms a window, so it is still at work when the parent kills it
        if os.getpid() != parent:
            time.sleep(0.05)
        return probability(*args)

    monkeypatch.setattr(cli, "window_probability", slow_in_helper)
    pids = []
    fork = cli._fork_helper
    monkeypatch.setattr(cli, "_fork_helper", lambda *a: pids.append((helper := fork(*a))[0]) or helper)
    stepped = []
    resolve = cli.resolve_audio

    def kill_after_first_delivery(ev, base):
        stepped.append(type(ev.payload))
        if type(ev.payload) is ClassifiedWindow and stepped.count(ClassifiedWindow) == 1:
            os.kill(pids[0], signal.SIGKILL)
        return resolve(ev, base)

    monkeypatch.setattr(cli, "resolve_audio", kill_after_first_delivery)
    monkeypatch.setattr(cli, "_split_possible", lambda fh: True)
    log, out = _write(tmp_path, lines, {}), tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_cli(["analyze", "--log", str(log), "--out", str(out), "--voice-model", str(models["conv"])]) == 0
    assert 1 <= stepped.count(ClassifiedWindow) < len(_windows(lines)) // 2
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
    monkeypatch.undo()
    serial = _analyze(monkeypatch, log, models["conv"], split=False)
    assert serial[0] == 0 and serial[3] == out.read_bytes()


def test_split_takes_no_line_from_a_helper_that_read_another_file(monkeypatch, tmp_path, logs, models):
    # the helper reopens the log by path; here that path holds the log with a
    # space added to the helper's first line, as if the file had changed
    lines, _ = logs["inline", SEEDS[1]]
    other = list(lines)
    first = _windows(lines)[1]
    other[first] = other[first][:-1] + b" \n"
    (tmp_path / "other.jsonl").write_bytes(b"".join(other))
    fork = cli._fork_helper
    monkeypatch.setattr(cli, "_fork_helper", lambda path, *a: fork(str(tmp_path / "other.jsonl"), *a))
    code, delivered = _assert_split_is_serial(monkeypatch, tmp_path, lines, {}, models["conv"])
    assert code == 0 and delivered == 0


_NO_CHILD_LEFT = """
import contextlib, io, os, sys
from invigil import cli
cli._split_possible = lambda fh: True
good, bad, out = sys.argv[1:4]

def no_child():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

def analyze(log):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run_cli(["analyze", "--log", log, "--out", out])

outcomes = [analyze(good), no_child(), analyze(bad), no_child()]
resolve, seen = cli.resolve_audio, []
def interrupt(ev, base):
    seen.append(ev)
    if len(seen) == 20:
        raise KeyboardInterrupt
    return resolve(ev, base)
cli.resolve_audio = interrupt
try:
    analyze(good)
except KeyboardInterrupt:
    outcomes += ["interrupted", no_child()]
print(outcomes)
"""


def test_no_helper_outlives_analyze(tmp_path, logs):
    lines = list(logs["inline", SEEDS[1]][0])
    (tmp_path / "good.jsonl").write_bytes(b"".join(lines))
    _bad_json(lines, {}, _windows(lines)[4])
    (tmp_path / "bad.jsonl").write_bytes(b"".join(lines))
    argv = [str(tmp_path / name) for name in ("good.jsonl", "bad.jsonl", "r.json")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_CHILD_LEFT, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, True, 1, True, 'interrupted', True]"
    assert proc.stderr == ""


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
_SPLIT_CLI = "import sys; from invigil import cli; cli._split_possible = lambda fh: True; sys.exit(cli.run_cli(sys.argv[1:]))"


def test_split_under_multi_threaded_blas(tmp_path, logs, models):
    # the BLAS pool at its default size, as a user's shell leaves it: a fork
    # must not deadlock the helper or put a warning on stderr
    (tmp_path / "session.jsonl").write_bytes(b"".join(logs["inline", SEEDS[2]][0]))
    outputs = []
    for pinned in (True, False):
        env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
        env.update(dict.fromkeys(_THREAD_VARS if pinned else (), "1"), PYTHONPATH=str(SRC))
        out = tmp_path / f"report-{pinned}.json"
        argv = ["analyze", "--log", str(tmp_path / "session.jsonl"), "--out", str(out), "--voice-model", str(models["conv"])]
        proc = subprocess.run([sys.executable, "-c", _SPLIT_CLI, *argv], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs.append((proc.stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]
