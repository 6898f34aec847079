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
import json
import sys
from pathlib import Path

import numpy as np

from .audio.dsp import spectrogram_shape
from .audio.model import ShapeMismatch, load_model, save_model
from .audio.train import TrainingConfig, cross_validate, load_corpus, train_voice_model
from .config import BadConfig, EngineConfig, load_config_file
from .errors import EngineError, json_document
# parse_session_log, resample_frames and resolve_audio_refs (the whole-log
# forms of the analyze steps) are not called here but stay attributes of
# this module, because bench/tracer.py wraps them.
from .events import (  # noqa: F401
    DEFAULT_SAMPLE_RATE,
    AudioIntegrityError,
    parse_session_log,
    read_session_log,
    resample_frames,
    resolve_audio,
    resolve_audio_refs,
    serialize_session_log,
    write_audio_side_files,
)
from .objectgate import evaluate_dataset, read_detection_dataset
from .pipeline import replay_events, report_to_json, run_session
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


def _load_cfg_overrides(path: str | None) -> tuple[dict, dict]:
    """Config-file dict split into (engine overrides, audio section)."""
    if path is None:
        return {}, {}
    data = load_config_file(path)
    audio = data.pop("audio", {})
    return data, audio


def _training_config(audio: dict) -> TrainingConfig:
    try:
        return TrainingConfig(**audio)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"bad audio hyperparameters: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    base_dir = Path(args.log).parent
    # a 1 MiB buffer holds several inline-audio lines, so iterating them
    # reads the file in few system calls
    with open(args.log, "rb", buffering=1 << 20) as lines:
        log = read_session_log(lines)
        overrides, _ = _load_cfg_overrides(args.config)
        cfg = log.config.merged(overrides)
        model = None if args.voice_model is None else _session_voice_model(args.voice_model)
        _print_effective(cfg, None, {"references": len(log.reference_embeddings)})
        events = _resolved(log.events(cfg.max_fps), base_dir)
        report = replay_events(log.reference_embeddings, log.session_id, events, cfg, model)
    Path(args.out).write_bytes(report_to_json(report))
    return 0


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
    _, audio = _load_cfg_overrides(args.config)
    hp = _training_config(audio)
    data = load_corpus(args.corpus, args.manifest)
    rng = np.random.default_rng(np.random.SeedSequence([0xC11, args.seed & 0xFFFFFFFF]))
    order = rng.permutation(len(data))
    n_val = max(1, int(round(len(data) * hp.val_fraction)))
    val = [data[i] for i in order[:n_val]]
    train = [data[i] for i in order[n_val:]]
    _print_effective(None, args.seed, {"hyperparameters": dataclasses.asdict(hp)})
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
    _, audio = _load_cfg_overrides(args.config)
    hp = _training_config(audio)
    data = load_corpus(args.corpus, args.manifest)
    _print_effective(None, args.seed, {"hyperparameters": dataclasses.asdict(hp)})
    report = cross_validate(data, k=args.k, repeats=args.repeats, seed=args.seed, hp=hp)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def _cmd_eval_objects(args: argparse.Namespace) -> int:
    overrides, _ = _load_cfg_overrides(args.config)
    cfg = EngineConfig().merged(overrides)
    frames = [(gt, pred) for _, gt, pred in read_detection_dataset(args.dataset, cfg.iou_thresholds)]
    table = evaluate_dataset(frames, cfg.iou_thresholds)
    _print_effective(cfg, None)
    print(json.dumps(table.to_dict(), sort_keys=True))
    return 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, OSError, ValueError) as exc:
        return _fail(exc)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
