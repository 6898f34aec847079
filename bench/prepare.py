"""Build the benchmark's inputs from a seed and cache them on disk.

    python3 bench/prepare.py --seed 7                  # every input for seed 7
    python3 bench/prepare.py --seed 7 --workload voice_train

Everything lands under .bench_cache/ at the repository root, which git
ignores. The measuring process only reads these files, so generating and
serializing sessions (1-2 s each) stays out of its set-up time and its
peak memory.

    model/conv.mdl             conv voice model, trained once from MODEL_SEED
    seed-<n>/sessions/s<k>/    one exam session per slot:
        cap.jsonl              frames at the 3 fps cap, inline float audio
        pcm30.jsonl            the client's shape: 10 frames per cap bucket,
                               extra COCO classes, audio as PCM side files
        audio/<t_ms>.pcm       16-bit PCM for pcm30.jsonl, hashed in the log
        spec.json              the scenario, as `simulate --spec` reads it
        gt.json                the simulator's ground truth
    seed-<n>/corpus/           PCM windows, manifest and the epoch config
                               for `train-voice`
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

WORKLOADS = ("analyze_inline_conv", "analyze_pcm30_band", "simulate_write", "voice_train")
PARTS = {
    "analyze_inline_conv": ("model", "sessions"),
    "analyze_pcm30_band": ("sessions",),
    "simulate_write": ("sessions",),
    "voice_train": ("corpus",),
}

# Each session holds one long episode (absence or impostor swap) and two
# short ones, so the two sessions of a seed cover all six episode kinds and
# every flag rule fires once per round. 43 s holds the longest such draw of
# simulator.random_scenario, so every session has the same length.
SESSIONS_PER_SEED = 2
SESSION_MS = 43_000
FPS_FACTOR = 10  # client frames per cap bucket in pcm30.jsonl
FRAME_STEP_MS = 33  # spacing of the extra frames; 9 * 33 < 333 keeps them in the bucket
CLUTTER = ("chair", "book", "cup", "keyboard", "bottle", "tv")

# voice_train op: CORPUS_WINDOWS windows for TRAIN_EPOCHS epochs.
CORPUS_WINDOWS = 32
TRAIN_EPOCHS = 2
# The conv model that analyze_inline_conv loads; independent of --seed.
MODEL_SEED = 20231201
MODEL_WINDOWS = 128
MODEL_EPOCHS = 4
# Seed domains of the synthesized voice windows, so the training corpus,
# the held-out windows of the voice_train check and the model's corpus
# never share a window.
CORPUS_DOMAIN = 0xC0B5
HELDOUT_DOMAIN = 0x4E1D
MODEL_DOMAIN = 0x3D1
KEEP_SEEDS = 24  # seed directories kept before the least recently used go
# One BLAS/OpenMP thread: steadier timings, and the trained model does not
# depend on the thread count.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _engine():
    if not (SRC / "invigil" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'invigil'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import invigil

    if Path(invigil.__file__).resolve().parent != SRC / "invigil":
        raise SystemExit(f"imported invigil from {invigil.__file__}, not from {SRC}")


def _derive(*words: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def seed_dir(seed: int) -> Path:
    return CACHE / f"seed-{seed}"


def model_path() -> Path:
    return CACHE / "model" / "conv.mdl"


def session_dirs(seed: int) -> list[Path]:
    return [seed_dir(seed) / "sessions" / f"s{k}" for k in range(SESSIONS_PER_SEED)]


def corpus_dir(seed: int) -> Path:
    return seed_dir(seed) / "corpus"


# ---------------------------------------------------------------------------
# Sessions


def session_specs(seed: int):
    import numpy as np
    from invigil.simulator import EpisodeKind, ScenarioSpec, random_scenario

    rng = np.random.default_rng(np.random.SeedSequence([0xBE7C, seed]))
    long_kinds = [EpisodeKind.ABSENCE, EpisodeKind.IMPOSTOR_SWAP]
    short_kinds = [
        EpisodeKind.PHONE_USE,
        EpisodeKind.LAPTOP_USE,
        EpisodeKind.SECOND_PERSON,
        EpisodeKind.BACKGROUND_SPEECH,
    ]
    long_order = rng.permutation(len(long_kinds))
    short_order = rng.permutation(len(short_kinds))
    specs = []
    for k in range(SESSIONS_PER_SEED):
        kinds = [long_kinds[long_order[k]]] + [short_kinds[i] for i in short_order[2 * k : 2 * k + 2]]
        kinds = [kinds[i] for i in rng.permutation(len(kinds))]
        drawn = random_scenario(_derive(0x5E55, seed, k), kinds=kinds)
        if drawn.duration_ms > SESSION_MS:
            raise AssertionError(f"scenario of {drawn.duration_ms} ms exceeds {SESSION_MS} ms")
        specs.append(ScenarioSpec(duration_ms=SESSION_MS, episodes=drawn.episodes, seed=drawn.seed))
    return specs


def _client_log(log, audio_dir: Path, rng):
    """The cap-rate log in the shape a client ships.

    Every cap frame is followed by FPS_FACTOR - 1 copies inside its rate-cap
    bucket, every frame carries detections of classes the rules ignore, and
    phones use the COCO label. Audio moves to PCM side files with sha256.
    None of this may change the report.
    """
    from dataclasses import replace

    from invigil.events import AudioWindowPayload, EventKind, FrameDetections, SensorEvent, pcm_bytes
    from invigil.objectgate import BoundingBox, Detection

    audio_dir.mkdir(parents=True)
    events = []
    for ev in log.events:
        if ev.kind is EventKind.FRAME_DETECTIONS:
            dets = [
                Detection(label="cell phone", score=d.score, box=d.box) if d.label == "phone" else d
                for d in ev.payload.detections
            ]
            for _ in range(int(rng.integers(1, 3))):
                box = BoundingBox(
                    x=round(float(rng.uniform(0, 360)), 2),
                    y=round(float(rng.uniform(0, 190)), 2),
                    w=round(float(rng.uniform(10, 60)), 2),
                    h=round(float(rng.uniform(10, 40)), 2),
                )
                label = CLUTTER[int(rng.integers(len(CLUTTER)))]
                dets.append(Detection(label=label, score=round(float(rng.uniform(0.3, 0.99)), 6), box=box))
            payload = FrameDetections(detections=tuple(dets))
            for i in range(FPS_FACTOR):
                events.append(SensorEvent(t_ms=ev.t_ms + i * FRAME_STEP_MS, kind=ev.kind, payload=payload))
        elif ev.kind is EventKind.AUDIO_WINDOW:
            raw = pcm_bytes(ev.payload.samples)
            name = f"{ev.t_ms}.pcm"
            (audio_dir / name).write_bytes(raw)
            payload = AudioWindowPayload(
                sample_rate=ev.payload.sample_rate,
                path=f"{audio_dir.name}/{name}",
                sha256=hashlib.sha256(raw).hexdigest(),
            )
            events.append(SensorEvent(t_ms=ev.t_ms, kind=ev.kind, payload=payload))
        else:
            events.append(ev)
    events.sort(key=lambda e: e.t_ms)  # stable: ties keep the cap log's order
    return replace(log, events=tuple(events))


def _build_sessions(seed: int, out: Path) -> None:
    import numpy as np
    from invigil.events import serialize_session_log
    from invigil.simulator import generate_session, save_scenario_file

    rng = np.random.default_rng(np.random.SeedSequence([0xC0C0, seed]))
    for k, spec in enumerate(session_specs(seed)):
        d = out / f"s{k}"
        d.mkdir()
        log, gt = generate_session(spec)
        save_scenario_file(spec, d / "spec.json")
        (d / "cap.jsonl").write_bytes(serialize_session_log(log))
        (d / "pcm30.jsonl").write_bytes(serialize_session_log(_client_log(log, d / "audio", rng)))
        truth = {
            "session_id": log.session_id,
            "final_label": gt.final_label.value,
            "windows": [
                {"kind": w.kind.value, "start_ms": w.start_ms, "end_ms": w.end_ms} for w in gt.windows
            ],
        }
        (d / "gt.json").write_text(json.dumps(truth, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Voice windows: the synthesizer's own labels, at random gains so that a
# model has to learn spectral shape rather than loudness.


def voice_windows(domain: int, seed: int, count: int):
    """(samples on the 16-bit grid, label) pairs, half of them voiced."""
    import numpy as np
    from invigil.simulator import _quantize, synth_audio

    rng = np.random.default_rng(np.random.SeedSequence([domain, seed]))
    out = []
    for i in range(count):
        voiced = i % 2 == 0
        gain = float(rng.uniform(0.1, 1.0))
        samples = synth_audio("voiced" if voiced else "unvoiced", _derive(domain, seed, i)).samples
        out.append((_quantize(samples * gain), "voice" if voiced else "non-voice"))
    return out


def _write_corpus(d: Path, windows, epochs: int) -> None:
    from invigil.events import pcm_bytes

    d.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (samples, label) in enumerate(windows):
        (d / f"w{i:03d}.pcm").write_bytes(pcm_bytes(samples))
        lines.append(json.dumps({"path": f"w{i:03d}.pcm", "label": label}, sort_keys=True))
    (d / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = {"audio": {"max_epochs": epochs, "patience": epochs, "batch_size": 16}}
    (d / "train.json").write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")


def _build_corpus(seed: int, out: Path) -> None:
    _write_corpus(out, voice_windows(CORPUS_DOMAIN, seed, CORPUS_WINDOWS), TRAIN_EPOCHS)


def _build_model(out: Path) -> None:
    from invigil.cli import run_cli

    corpus = out / "corpus"
    _write_corpus(corpus, voice_windows(MODEL_DOMAIN, MODEL_SEED, MODEL_WINDOWS), MODEL_EPOCHS)
    argv = [
        "train-voice",
        "--corpus", str(corpus),
        "--manifest", str(corpus / "manifest.jsonl"),
        "--config", str(corpus / "train.json"),
        "--out-model", str(out / "conv.mdl"),
        "--seed", str(MODEL_SEED),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        if run_cli(argv) != 0:
            raise SystemExit("training the conv voice model failed")


# ---------------------------------------------------------------------------


def _publish(final: Path, build) -> None:
    """Build into a scratch directory, then rename it into place."""
    if final.exists():
        return
    tmp = final.with_name(f"{final.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        build(tmp)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _prune() -> None:
    dirs = sorted(CACHE.glob("seed-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in dirs[KEEP_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)


def prepare(seed: int, workloads=WORKLOADS) -> None:
    _engine()
    parts = {p for w in workloads for p in PARTS[w]}
    if "model" in parts:
        _publish(CACHE / "model", _build_model)
    seed_parts = parts - {"model"}
    if seed_parts:
        seed_dir(seed).mkdir(parents=True, exist_ok=True)
        if "sessions" in seed_parts:
            _publish(seed_dir(seed) / "sessions", lambda tmp: _build_sessions(seed, tmp))
        if "corpus" in seed_parts:
            _publish(corpus_dir(seed), lambda tmp: _build_corpus(seed, tmp))
        os.utime(seed_dir(seed))
        _prune()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    os.environ.update({name: "1" for name in THREAD_VARS})  # before numpy loads
    t0 = time.perf_counter()
    prepare(args.seed, args.workload or WORKLOADS)
    print(json.dumps({"prepared_seed": args.seed, "seconds": round(time.perf_counter() - t0, 3)}))


if __name__ == "__main__":
    main()
