"""Output checks, run after the timed loop, and their self-test.

Every check compares an op's output with something the engine did not
compute in that op: the simulator's ground truth, the synthesizer's
labels, or a property of the method (a report does not depend on dropped
frames or on where the audio is stored; a log re-serializes to its own
bytes). Nothing is compared with a stored copy of an earlier output.

Within a run, each slot's first output is checked in full and every later
output of that slot must be byte-equal to it, since the ops of a slot have
identical inputs.

The self-test feeds each check corrupted copies of this run's outputs (a
dropped flag, a flag moved out of its window, a model whose voice
probability is always 0.5) and fails the run if any corruption passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _analyze(log: Path, out: Path) -> bytes:
    from invigil.cli import run_cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli(["analyze", "--log", str(log), "--out", str(out)])
    _require(code == 0, f"analyze {log} failed: {err.getvalue().strip()}")
    return out.read_bytes()


def match_truth(report: dict, truth: dict) -> None:
    """One flag per ground-truth window, of its kind and inside it; same label.

    Also holds the engine's own scorer, evaluate_reports, to precision and
    recall 1.0 for every flag kind.
    """
    from invigil.pipeline import EvidenceClipRequest, FlagEvent, FlagKind, SessionLabel, SessionReport
    from invigil.simulator import FlagWindow, GroundTruth, evaluate_reports

    _require(report["session_id"] == truth["session_id"], f"session id {report['session_id']!r}")
    _require(
        report["final_label"] == truth["final_label"],
        f"label {report['final_label']} where ground truth says {truth['final_label']}",
    )
    unmatched = list(truth["windows"])
    for flag in report["flags"]:
        clip = flag.get("clip_request", {})
        _require(
            clip.get("start_t_ms") == flag["t_ms"] and clip.get("flag_kind") == flag["kind"],
            f"clip request {clip} does not belong to flag {flag['kind']}@{flag['t_ms']}",
        )
        window = next(
            (
                w
                for w in unmatched
                if w["kind"] == flag["kind"] and w["start_ms"] <= flag["t_ms"] <= w["end_ms"]
            ),
            None,
        )
        _require(window is not None, f"flag {flag['kind']}@{flag['t_ms']} matches no ground-truth window")
        unmatched.remove(window)
    _require(not unmatched, f"ground-truth windows without a flag: {unmatched}")

    flags = tuple(
        FlagEvent(
            kind=FlagKind(f["kind"]),
            t_ms=f["t_ms"],
            clip_request=EvidenceClipRequest(f["t_ms"], f["clip_request"]["duration_ms"], FlagKind(f["kind"])),
        )
        for f in report["flags"]
    )
    scored = SessionReport(report["session_id"], SessionLabel(report["final_label"]), flags)
    gt = GroundTruth(
        SessionLabel(truth["final_label"]),
        tuple(FlagWindow(FlagKind(w["kind"]), w["start_ms"], w["end_ms"]) for w in truth["windows"]),
    )
    metrics = evaluate_reports([scored], [gt]).to_dict()
    scores = list(metrics["precision"].values()) + list(metrics["recall"].values())
    _require(all(s == 1.0 for s in scores), f"evaluate_reports scores {metrics}")


def _truth(session: Path) -> dict:
    return json.loads((session / "gt.json").read_text(encoding="utf-8"))


class AnalyzeInlineConv:
    """analyze --voice-model on cap-rate logs: reports match ground truth."""

    def __init__(self, sessions: list[Path], scratch: Path) -> None:
        self.sessions = sessions
        self.scratch = scratch

    def check(self, slot: int, out: Path) -> None:
        match_truth(json.loads(out.read_bytes()), _truth(self.sessions[slot]))


class AnalyzePcm30Band(AnalyzeInlineConv):
    """analyze on client-shaped logs: reports match ground truth and equal,
    byte for byte, the report of the same session at the cap with inline
    audio, since dropped frames and the audio source cannot change it."""

    def __init__(self, sessions: list[Path], scratch: Path) -> None:
        super().__init__(sessions, scratch)
        self.reference: dict[int, bytes] = {}

    def check(self, slot: int, out: Path) -> None:
        if slot not in self.reference:
            self.reference[slot] = _analyze(self.sessions[slot] / "cap.jsonl", self.scratch / f"cap-{slot}.json")
        _require(out.read_bytes() == self.reference[slot], f"{out.name} differs from the cap-rate inline report")
        super().check(slot, out)


class SimulateWrite:
    """simulate: metrics score 1.0, the log re-serializes to its own bytes,
    the report equals analyze on that log and matches ground truth."""

    def __init__(self, sessions: list[Path], scratch: Path) -> None:
        self.sessions = sessions
        self.scratch = scratch

    def check(self, slot: int, out: Path) -> None:
        from invigil.events import parse_session_log, serialize_session_log

        truth = _truth(self.sessions[slot])
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        scores = [metrics["overall_precision"], metrics["overall_recall"]]
        scores += list(metrics["precision"].values()) + list(metrics["recall"].values())
        _require(all(s == 1.0 for s in scores), f"metrics.json scores {metrics}")
        diagonal = f"{truth['final_label']}_{truth['final_label']}".lower()
        _require(metrics["confusion"].get(diagonal) == 1, f"metrics.json confusion {metrics['confusion']}")
        written = json.loads((out / "ground_truth.json").read_text(encoding="utf-8"))
        _require(written["windows"] == truth["windows"], "ground_truth.json differs from the scenario's")
        log_bytes = (out / "session.jsonl").read_bytes()
        _require(
            serialize_session_log(parse_session_log(log_bytes)) == log_bytes,
            "session.jsonl does not re-serialize to its own bytes",
        )
        report = (out / "report.json").read_bytes()
        _require(
            report == _analyze(out / "session.jsonl", self.scratch / f"sim-{slot}.json"),
            "report.json differs from analyze on session.jsonl",
        )
        match_truth(json.loads(report), truth)


class VoiceTrain:
    """train-voice: the saved model labels freshly synthesized held-out
    windows, whose labels come from the synthesizer, at least FLOOR right."""

    FLOOR = 0.95  # measured: 1.0 on 100 held-out windows for each of 12 seeds
    WINDOWS = 100

    def __init__(self, seed: int) -> None:
        from prepare import HELDOUT_DOMAIN, voice_windows

        self.heldout = voice_windows(HELDOUT_DOMAIN, seed, self.WINDOWS)

    def accuracy(self, model_path: Path) -> float:
        from invigil.audio.dsp import PcmWindow, stft_spectrogram
        from invigil.audio.model import classify_window, load_model

        model = load_model(model_path)
        right = 0
        for samples, label in self.heldout:
            prob = classify_window(stft_spectrogram(PcmWindow(samples=samples)), model)
            right += (prob > 0.5) == (label == "voice")
        return right / len(self.heldout)

    def check(self, slot: int, out: Path) -> None:
        acc = self.accuracy(out)
        _require(acc >= self.FLOOR, f"held-out accuracy {acc:.3f} below {self.FLOOR}")


def digest(path: Path) -> str:
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in files:
        h.update(p.relative_to(path).as_posix().encode() if path.is_dir() else b"")
        h.update(p.read_bytes())
    return h.hexdigest()


def verify(checker, outputs: list[tuple[int, Path]]) -> None:
    """Check each slot's first output in full, the rest by equality with it."""
    first: dict[int, tuple[Path, str]] = {}
    for slot, out in outputs:
        if slot not in first:
            checker.check(slot, out)
            first[slot] = (out, digest(out))
        else:
            _require(digest(out) == first[slot][1], f"{out.name} differs from {first[slot][0].name}")


# ---------------------------------------------------------------------------
# Self-test: corrupted outputs must be rejected.


def _rewrite_report(src: Path, dst: Path, edit) -> Path:
    report = json.loads(src.read_bytes())
    edit(report)
    dst.write_bytes((json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8"))
    return dst


def _drop_flag(report: dict) -> None:
    report["flags"].pop(0)


def _shift_flag(truth: dict):
    """Move the first flag to 1 ms before the start of its window."""

    def edit(report: dict) -> None:
        flag = report["flags"][0]
        window = next(
            w for w in truth["windows"] if w["kind"] == flag["kind"] and w["start_ms"] <= flag["t_ms"] <= w["end_ms"]
        )
        flag["t_ms"] = window["start_ms"] - 1
        flag["clip_request"]["start_t_ms"] = flag["t_ms"]

    return edit


def corruptions(checker, slot: int, out: Path, scratch: Path) -> list[tuple[str, Path]]:
    if isinstance(checker, VoiceTrain):
        import numpy as np
        from invigil.audio.model import Dense, Flatten, VoiceModel, save_model

        frames, bins = 61, 257
        flat = np.zeros((frames * bins, 2), dtype=np.float32)
        constant = VoiceModel([Flatten(), Dense(flat, np.zeros(2, dtype=np.float32))], (frames, bins))
        save_model(constant, scratch / "constant.mdl")
        return [("constant 0.5 model", scratch / "constant.mdl")]
    truth = _truth(checker.sessions[slot])
    edits = [("dropped flag", _drop_flag), ("shifted flag", _shift_flag(truth))]
    cases = []
    for i, (name, edit) in enumerate(edits):
        if out.is_dir():
            bad = scratch / f"corrupt-{i}"
            shutil.copytree(out, bad)
            _rewrite_report(out / "report.json", bad / "report.json", edit)
        else:
            bad = _rewrite_report(out, scratch / f"corrupt-{i}.json", edit)
        cases.append((name, bad))
    return cases


def self_test(checker, slot: int, out: Path, scratch: Path) -> None:
    for name, bad in corruptions(checker, slot, out, scratch):
        try:
            checker.check(slot, bad)
        except CheckFailed:
            continue
        raise CheckFailed(f"self-test: the check accepted a {name}")
