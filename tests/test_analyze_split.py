"""`analyze` on inline-audio logs splits its long lines with a forked helper; these
tests pin every outcome of the split to the serial loop.

The serial loop is chosen by making `cli._split_possible` say no, and the
split by making it say yes, so both run whatever the machine's CPU count.
"""

from __future__ import annotations

import contextlib
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


def _session(seed: int):
    spec = ScenarioSpec(
        duration_ms=8000,
        episodes=(Episode(EpisodeKind.BACKGROUND_SPEECH, 2000, 3000), Episode(EpisodeKind.ABSENCE, 5000, 2000)),
        seed=seed,
    )
    return generate_session(spec)[0]


def _inline_lines(seed: int) -> list[bytes]:
    return serialize_session_log(_session(seed)).splitlines(keepends=True)


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
def logs():
    return {seed: _inline_lines(seed) for seed in SEEDS}


def _long(lines: list[bytes]) -> list[int]:
    """Indices of the lines long enough to be split, after the references."""
    return [i for i, line in enumerate(lines) if i > 1 and len(line) >= cli.SPLIT_LINE_BYTES]


def _analyze(monkeypatch, tmp_path: Path, data: bytes, model: Path | None, split: bool):
    """(exit code, stdout, stderr, report bytes or None, windows the helper classified) of one in-process run."""
    monkeypatch.setattr(cli, "_split_possible", lambda fh: split)
    delivered = []
    resolve = cli.resolve_audio
    monkeypatch.setattr(cli, "resolve_audio", lambda ev, base: delivered.append(type(ev.payload)) or resolve(ev, base))
    log, out = tmp_path / "session.jsonl", tmp_path / f"report-{split}.json"
    log.write_bytes(data)
    out.unlink(missing_ok=True)
    argv = ["analyze", "--log", str(log), "--out", str(out)] + ([] if model is None else ["--voice-model", str(model)])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run_cli(argv)
    report = out.read_bytes() if out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), report, delivered.count(ClassifiedWindow)


def _line(rec: dict) -> bytes:
    return json.dumps(rec).encode() + b"\n"


def _bad_json(lines, i):
    lines[i] = lines[i].replace(b"[", b"[,", 1)


def _short_window(lines, i):
    rec = json.loads(lines[i])
    rec["payload"]["samples"].pop()
    lines[i] = _line(rec)


def _true_sample(lines, i):
    rec = json.loads(lines[i])
    rec["payload"]["samples"][7] = True
    lines[i] = _line(rec)


def _long_image(lines, i):
    rec = json.loads(lines[i])
    lines[i] = _line({"t_ms": rec["t_ms"], "kind": "FrameImage", "payload": {"path": "p" * 40_000}})


def _earlier_t(lines, i):
    rec = json.loads(lines[i])
    rec["t_ms"] = json.loads(lines[i - 1])["t_ms"] - 1
    lines[i] = _line(rec)


def _huge_t(lines, i):
    # a t_ms beyond 64 bits, which the stdlib decoder reads as an integer: a lone
    # surrogate sends the line to it. The next line is then out of order.
    rec = json.loads(lines[i])
    rec["t_ms"], rec["note"] = 2**64 + 1, "\ud800"
    lines[i] = _line(rec)


def _truncated_last(lines, i):
    lines[i] = lines[i][: len(lines[i]) // 2]
    del lines[i + 1 :]


def _not_utf8(lines, i):
    lines[i] = lines[i].replace(b'"samples"', b'"sam\xffples"', 1)


def _bom(lines, i):
    lines[i] = b"\xef\xbb\xbf" + lines[i]


def _string_sample(lines, i):
    rec = json.loads(lines[i])
    rec["payload"]["samples"][7] = "0.5"
    lines[i] = _line(rec)


MUTATIONS = {
    "bad-json": _bad_json,
    "15999-samples": _short_window,
    "true-sample": _true_sample,
    "long-non-audio": _long_image,
    "earlier-t": _earlier_t,
    "huge-t": _huge_t,
    "truncated-last": _truncated_last,
    "not-utf8": _not_utf8,
    "bom": _bom,
    "string-sample": _string_sample,
}


def _assert_split_is_serial(monkeypatch, tmp_path, data: bytes, model) -> tuple[int, int]:
    split = _analyze(monkeypatch, tmp_path, data, model, split=True)
    serial = _analyze(monkeypatch, tmp_path, data, model, split=False)
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
def test_split_gives_the_serial_report(monkeypatch, tmp_path, logs, models, seed, model):
    lines = logs[seed]
    code, delivered = _assert_split_is_serial(monkeypatch, tmp_path, b"".join(lines), models[model])
    assert code == 0
    assert delivered == len(_long(lines)) // 2  # every second long line, and the helper declined none


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", ["band", "conv"])
@pytest.mark.parametrize("owner, k", [("helper", 1), ("parent", 2)])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_split_reports_a_mutated_long_line_as_serial(monkeypatch, tmp_path, logs, models, seed, model, owner, k, mutation):
    lines = list(logs[seed])
    MUTATIONS[mutation](lines, _long(lines)[k])
    code, delivered = _assert_split_is_serial(monkeypatch, tmp_path, b"".join(lines), models[model])
    assert (code == 0) == (mutation == "long-non-audio")
    if owner == "parent":
        assert delivered >= 1  # the helper's line before it was taken from the helper


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("owner", ["parent", "helper"])
def test_split_reports_a_model_with_nan_output_as_serial(monkeypatch, tmp_path, logs, models, seed, owner):
    lines = list(logs[seed])
    if owner == "helper":  # the first audio window is then the second long line
        _long_image(lines, _long(lines)[0])
    code, delivered = _assert_split_is_serial(monkeypatch, tmp_path, b"".join(lines), models["nan"])
    assert code == 1 and delivered == 0


def test_a_log_with_audio_in_side_files_is_not_split(monkeypatch, tmp_path, logs):
    # its one long line is the references record, which the split does not count
    data = serialize_session_log(write_audio_side_files(_session(SEEDS[0]), tmp_path))
    assert max(map(len, data.splitlines()[2:])) < cli.SPLIT_LINE_BYTES <= len(data.splitlines()[1])
    forks = []
    monkeypatch.setattr(cli, "_fork_helper", lambda *a: forks.append(a))
    code, _, _, report, _ = _analyze(monkeypatch, tmp_path, data, None, split=True)
    assert code == 0 and forks == []
    assert report == _analyze(monkeypatch, tmp_path, b"".join(logs[SEEDS[0]]), None, split=False)[3]


def test_split_finishes_the_log_when_the_helper_is_killed(monkeypatch, tmp_path, logs, models):
    lines = logs[SEEDS[0]]
    data = b"".join(lines)
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
    log, out = tmp_path / "session.jsonl", tmp_path / "report.json"
    log.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_cli(["analyze", "--log", str(log), "--out", str(out), "--voice-model", str(models["conv"])]) == 0
    assert 1 <= stepped.count(ClassifiedWindow) < len(_long(lines)) // 2
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
    monkeypatch.undo()
    serial = _analyze(monkeypatch, tmp_path, data, models["conv"], split=False)
    assert serial[0] == 0 and serial[3] == out.read_bytes()


def test_split_takes_no_line_from_a_helper_that_read_another_file(monkeypatch, tmp_path, logs, models):
    # the helper reopens the log by path; here that path holds the log with a
    # space added to the helper's first line, as if the file had changed
    lines = list(logs[SEEDS[1]])
    other = list(lines)
    first = _long(lines)[1]
    other[first] = other[first][:-1] + b" \n"
    (tmp_path / "other.jsonl").write_bytes(b"".join(other))
    fork = cli._fork_helper
    monkeypatch.setattr(cli, "_fork_helper", lambda path, *a: fork(str(tmp_path / "other.jsonl"), *a))
    code, delivered = _assert_split_is_serial(monkeypatch, tmp_path, b"".join(lines), models["conv"])
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
    lines = list(logs[SEEDS[1]])
    (tmp_path / "good.jsonl").write_bytes(b"".join(lines))
    _bad_json(lines, _long(lines)[4])
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
    (tmp_path / "session.jsonl").write_bytes(b"".join(logs[SEEDS[2]]))
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
