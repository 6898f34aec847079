"""Voice classifier cross-validation study on a synthetic corpus.

Builds a balanced voiced/unvoiced corpus from the simulator's audio
synthesizer, precomputes spectrograms, then runs k-fold cross-validation
repeated several times and prints the accuracy summary. The defaults
(400 windows, 5x3 CV) finish in a few minutes on a laptop CPU.

Usage:
    python3 scripts/voice_cv_study.py --windows 400 --k 5 --repeats 3
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invigil.audio.dsp import stft_spectrogram
from invigil.audio.train import TrainingConfig, cross_validate
from invigil.simulator import synth_audio


def build_corpus(windows: int):
    """Half voiced, half unvoiced, spectrograms precomputed once."""
    data = []
    per_class = windows // 2
    for i in range(per_class):
        data.append((stft_spectrogram(synth_audio("voiced", seed=i)), "voice"))
        data.append((stft_spectrogram(synth_audio("unvoiced", seed=i)), "non-voice"))
    return data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=400, help="corpus size (half per class)")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0xCF7)
    parser.add_argument("--max-epochs", type=int, default=4)
    parser.add_argument("--patience", type=int, default=2)
    parser.add_argument("--lr", type=float, default=0.01)
    args = parser.parse_args()

    t0 = time.perf_counter()
    data = build_corpus(args.windows)
    print(f"corpus: {len(data)} windows ({time.perf_counter() - t0:.1f}s to synthesize)")

    hp = TrainingConfig(
        learning_rate=args.lr, max_epochs=args.max_epochs, patience=args.patience
    )
    t0 = time.perf_counter()
    report = cross_validate(data, k=args.k, repeats=args.repeats, seed=args.seed, hp=hp)
    elapsed = time.perf_counter() - t0

    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    print(f"{report.k}x{report.repeats} CV in {elapsed:.1f}s, mean accuracy {report.mean:.4f}")
    return 0 if report.mean >= 0.90 else 1


if __name__ == "__main__":
    raise SystemExit(main())
