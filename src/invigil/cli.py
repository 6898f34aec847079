"""Command-line entry point.

Subcommands: analyze (replay a session log into a report), simulate
(synthesize a scenario and close the loop), train-voice / cv-voice
(voice-classifier training and cross-validation), eval-objects
(detection accuracy against labeled frames).

Every run prints its effective config and seed as one JSON line on
stdout so results can be reproduced from the console transcript alone.
Failures exit 1 with a single JSON error record on stderr; usage errors
exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import signal
import stat
import struct
import sys
import warnings
from contextlib import closing, suppress
from pathlib import Path

import numpy as np

from .audio.dsp import WindowWorkspace, spectrogram_shape
from .audio.model import ShapeMismatch, band_contrast_model, load_model, save_model
from .audio.train import TrainingConfig, cross_validate, load_corpus, train_voice_model
from .config import BadConfig, EngineConfig
from .errors import EngineError, as_object, decode_json, from_json, json_document
# parse_session_log, resample_frames and resolve_audio_refs (the whole-log
# forms of the analyze steps) are not called here but stay attributes of
# this module, because bench/tracer.py wraps them.
from .events import (  # noqa: F401
    DEFAULT_SAMPLE_RATE,
    AudioIntegrityError,
    ClassifiedWindow,
    EventKind,
    parse_session_log,
    read_event_line,
    read_session_log,
    resample_frames,
    resolve_audio,
    resolve_audio_refs,
    serialize_session_log,
    write_audio_side_files,
)
from .objectgate import evaluate_dataset, read_detection_dataset
from .pipeline import replay_events, report_to_json, run_session, window_probability
from .simulator import evaluate_reports, generate_session, load_scenario_file


def _print_effective(cfg: EngineConfig | None, seed: int | None, extra: dict | None = None) -> None:
    record: dict = {"effective_config": None if cfg is None else cfg.to_dict(), "seed": seed}
    if extra:
        record.update(extra)
    print(json.dumps(record, sort_keys=True))


def _fail(exc: BaseException) -> int:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 1


def _load_config(path: str | None, base: EngineConfig) -> tuple[EngineConfig, TrainingConfig]:
    """`--config`: an object of EngineConfig fields, merged over `base`, and an
    optional "audio" object of TrainingConfig fields. Every error names the file."""
    if path is None:
        return base, TrainingConfig()
    try:
        data = decode_json(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise BadConfig(f"{path}: not valid JSON: {exc}") from exc
    try:
        engine = as_object(data, "config", BadConfig)
        audio = engine.pop("audio", {})
        cfg = base.merged(engine)
    except BadConfig as exc:
        raise BadConfig(f"{path}: {exc}") from exc
    try:
        return cfg, from_json(TrainingConfig, audio, "audio", ValueError)
    except ValueError as exc:
        raise BadConfig(f"{path}: bad audio hyperparameters: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    base_dir = Path(args.log).parent
    # a 1 MiB buffer holds several inline-audio lines, so iterating them
    # reads the file in few system calls
    with open(args.log, "rb", buffering=1 << 20) as fh:
        log = read_session_log(fh)
        cfg, _ = _load_config(args.config, log.config)
        model = band_contrast_model() if args.voice_model is None else _session_voice_model(args.voice_model)
        _print_effective(cfg, None, {"references": len(log.reference_embeddings)})
        with closing(_split_lines(fh, args.log, log.lines, model, base_dir)) as lines:
            events = _resolved(dataclasses.replace(log, lines=lines).events(cfg.max_fps), base_dir)
            report = replay_events(log.reference_embeddings, log.session_id, events, cfg, model)
    Path(args.out).write_bytes(report_to_json(report))
    return 0


# A log's audio windows are split between two processes. From the first window
# line after the references, a forked helper takes every second one and the
# parent all other lines. A window line holds the kind below in its first 64
# bytes, whatever its key order or spacing; any other line, or one the helper
# declines, is read by the parent. The helper reads its lines from the file
# itself, and writes one record per line: line number, line length in bytes,
# t_ms, voice probability, and whether it declined the line.
_WINDOW_KIND = b'"AudioWindow"'
_HELPER_RECORD = struct.Struct("<QQQd?")


def _split_possible(fh) -> bool:
    """Whether `analyze` can fork a helper that reopens the log `fh` reads, and has a second CPU to run it on."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    )


def _window_turns(lines):
    """The split's one rule, which both processes follow: each numbered line, with whose turn it is.

    None for a line that is not an audio window; for the window lines, False
    (the parent's) and True (the helper's) by turns, from False at the first.
    """
    helpers = True
    for lineno, line in lines:
        window = _WINDOW_KIND in line[:64]
        helpers ^= window
        yield lineno, line, helpers if window else None


def _split_lines(fh, path: str, lines, model, base_dir: Path):
    """The numbered event lines, with the helper's `ClassifiedWindow` in place of each line it classified.

    The helper is forked at the first window line. A line it declined, or read
    at another number or length, is passed on as read, and so is every line
    once it has stopped or where none was forked; the reader and the fold do
    with it what they do without a helper, so the report and any error are the
    same. The helper is killed, if it still runs, and waited for on close.
    """
    helper = live = None  # live is None until the first window line
    try:
        for lineno, line, helpers in _window_turns(lines):
            if helpers is False and live is None:
                helper = _fork_helper(path, fh.tell() - len(line), lineno, model, base_dir) if _split_possible(fh) else None
                live = helper is not None
            elif helpers and live:
                record = helper[1].read(_HELPER_RECORD.size)
                if len(record) < _HELPER_RECORD.size:
                    live = False  # the helper has stopped
                else:
                    number, length, t_ms, prob, declined = _HELPER_RECORD.unpack(record)
                    if (number, length) != (lineno, len(line)):
                        live = False  # it reads another file now
                    elif not declined:
                        line = ClassifiedWindow(t_ms, prob)
            yield lineno, line
    finally:
        if helper is not None:
            pid, pipe = helper
            pipe.close()
            with suppress(ChildProcessError):  # reaped already, as where SIGCHLD is ignored
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _fork_helper(path: str, offset: int, lineno: int, model, base_dir: Path):
    """(pid, read end of its pipe) of a helper forked to run `_helper`; None when it cannot be."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns of a fork in a process with threads, such as a BLAS
            # pool; the helper only runs numpy, and OpenBLAS stops its pool across
            # a fork (tests/test_analyze_split.py runs the helper with the pool at
            # its default size)
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            _helper(path, offset, lineno, model, base_dir, write_fd)
        finally:
            # no flush of inherited stdio, no finally block or atexit handler of the parent
            os._exit(0)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _helper(path: str, offset: int, lineno: int, model, base_dir: Path, out: int) -> None:
    """Classify the helper's window lines, from line `lineno`, the first window, at byte `offset` of the log.

    Each line goes through the reader's per-line check, `resolve_audio` and
    `window_probability`, as in the parent. A line that is not an audio window,
    or that raises anything, is declined: the helper never decides an error.
    """
    workspace = WindowWorkspace()
    with open(path, "rb", buffering=1 << 20) as fh:
        fh.seek(offset)
        for lineno, line, helpers in _window_turns(enumerate(fh, start=lineno)):
            if not helpers:  # the parent's
                continue
            record = None
            try:
                ev = read_event_line(lineno, line)
                if ev is not None and ev.kind is EventKind.AUDIO_WINDOW:
                    ev = resolve_audio(ev, base_dir)
                    prob = window_probability(ev, model, workspace)
                    record = _HELPER_RECORD.pack(lineno, len(line), ev.t_ms, prob, False)
            except Exception:  # the parent reads the line again and reports what it raises
                pass
            os.write(out, record or _HELPER_RECORD.pack(lineno, len(line), 0, 0.0, True))


def _session_voice_model(path: str):
    """The voice model at `path`, refused unless it takes a session log's one-second window."""
    model = load_model(path)
    window = spectrogram_shape(DEFAULT_SAMPLE_RATE)
    if model.input_shape != window:
        raise ShapeMismatch(
            f"{path}: model input {model.input_shape} does not match the spectrogram shape {window} "
            f"of a {DEFAULT_SAMPLE_RATE} Hz session-log window"
        )
    return model


def _resolved(events, base_dir: Path):
    """Numbered events with their PCM side files loaded."""
    for no, ev in events:
        try:
            yield no, resolve_audio(ev, base_dir)
        except AudioIntegrityError as exc:
            raise AudioIntegrityError(f"line {no}: {exc}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = load_scenario_file(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    cfg = EngineConfig()
    _print_effective(cfg, spec.seed)
    log, gt = generate_session(spec, cfg)
    report = run_session(log)
    metrics = evaluate_reports([report], [gt])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "session.jsonl").write_bytes(serialize_session_log(write_audio_side_files(log, out_dir)))
    (out_dir / "ground_truth.json").write_bytes(json_document(gt.to_dict()))
    (out_dir / "report.json").write_bytes(report_to_json(report))
    (out_dir / "metrics.json").write_bytes(json_document(metrics.to_dict()))
    return 0


def _cmd_train_voice(args: argparse.Namespace) -> int:
    _, hp = _load_config(args.config, EngineConfig())
    data = load_corpus(args.corpus, args.manifest)
    rng = np.random.default_rng(np.random.SeedSequence([0xC11, args.seed & 0xFFFFFFFF]))
    order = rng.permutation(len(data))
    n_val = max(1, int(round(len(data) * hp.val_fraction)))
    val = [data[i] for i in order[:n_val]]
    train = [data[i] for i in order[n_val:]]
    _print_effective(None, args.seed, {"hyperparameters": hp.to_dict()})
    model, history = train_voice_model(train, val, hp=hp, seed=args.seed)
    save_model(model, args.out_model)
    best = history.best
    print(
        json.dumps(
            {
                "epochs": len(history.epochs),
                "best_epoch": history.best_epoch,
                "stopped_early": history.stopped_early,
                "val_loss": best.val_loss,
                "val_accuracy": best.val_accuracy,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_cv_voice(args: argparse.Namespace) -> int:
    _, hp = _load_config(args.config, EngineConfig())
    data = load_corpus(args.corpus, args.manifest)
    _print_effective(None, args.seed, {"hyperparameters": hp.to_dict()})
    report = cross_validate(data, k=args.k, repeats=args.repeats, seed=args.seed, hp=hp)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def _cmd_eval_objects(args: argparse.Namespace) -> int:
    cfg, _ = _load_config(args.config, EngineConfig())
    frames = [(gt, pred) for _, gt, pred in read_detection_dataset(args.dataset, cfg.iou_thresholds)]
    table = evaluate_dataset(frames, cfg.iou_thresholds)
    _print_effective(cfg, None)
    print(json.dumps(table.to_dict(), sort_keys=True))
    return 0


@functools.cache  # one parser per process: parse_args does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="invigil", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="replay a session log and write its report")
    p.add_argument("--log", required=True, help="session log (JSON lines)")
    p.add_argument("--config", default=None, help="JSON config overriding the log header")
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument(
        "--voice-model",
        default=None,
        help="trained voice model file (default: built-in band-contrast classifier)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="generate a synthetic session and close the loop")
    p.add_argument("--spec", required=True, help="scenario spec (JSON)")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("--out-dir", required=True, help="directory for log, report, metrics")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train-voice", help="train the voice classifier on a PCM corpus")
    p.add_argument("--corpus", required=True, help="directory of raw PCM files")
    p.add_argument("--manifest", required=True, help="JSON-lines manifest of {path, label}")
    p.add_argument("--out-model", required=True, help="model output path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON config with an 'audio' section")
    p.set_defaults(func=_cmd_train_voice)

    p = sub.add_parser("cv-voice", help="repeated k-fold cross-validation of the voice model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON config with an 'audio' section")
    p.set_defaults(func=_cmd_cv_voice)

    p = sub.add_parser("eval-objects", help="score detections against labeled frames")
    p.add_argument("--dataset", required=True, help="JSON-lines frames with gt/pred boxes")
    p.add_argument("--config", default=None, help="JSON config overriding IoU thresholds")
    p.set_defaults(func=_cmd_eval_objects)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, OSError, ValueError) as exc:
        return _fail(exc)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
