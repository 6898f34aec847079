"""Detection accuracy harness demo with a jittered synthetic dataset.

Writes a frames.jsonl dataset of ground-truth person/laptop/phone boxes
with noisy predictions (localization jitter, dropped objects, spurious
boxes), scores it with the per-class IoU-threshold matcher, then sweeps
the person threshold to show how accuracy degrades as the overlap
requirement tightens.

Usage:
    python3 scripts/detection_eval_demo.py --frames 200 --jitter 8
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invigil.config import EngineConfig
from invigil.objectgate import evaluate_dataset, read_detection_dataset

CLASS_SIZES = {"person": (120.0, 220.0), "laptop": (90.0, 60.0), "phone": (28.0, 52.0)}


def make_frame(rng: np.random.Generator, jitter: float, drop_p: float, spurious_p: float):
    gt = []
    pred = []
    for cls, (w, h) in CLASS_SIZES.items():
        if rng.random() < 0.3:
            continue
        x = float(rng.uniform(0, 500))
        y = float(rng.uniform(0, 300))
        gt.append({"class": cls, "box": {"x": x, "y": y, "w": w, "h": h}})
        if rng.random() < drop_p:
            continue
        dx, dy = rng.normal(0.0, jitter, size=2)
        pred.append(
            {
                "class": cls,
                "box": {"x": x + float(dx), "y": y + float(dy), "w": w, "h": h},
                "score": float(rng.uniform(0.5, 0.99)),
            }
        )
    if rng.random() < spurious_p:
        pred.append(
            {
                "class": "phone",
                "box": {"x": float(rng.uniform(700, 900)), "y": 10.0, "w": 28.0, "h": 52.0},
                "score": float(rng.uniform(0.4, 0.8)),
            }
        )
    return gt, pred


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=200)
    parser.add_argument("--jitter", type=float, default=8.0, help="box center noise sigma, px")
    parser.add_argument("--drop", type=float, default=0.05, help="missed-detection probability")
    parser.add_argument("--spurious", type=float, default=0.1, help="false-positive probability")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="detection_frames.jsonl")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        for i in range(args.frames):
            gt, pred = make_frame(rng, args.jitter, args.drop, args.spurious)
            fh.write(json.dumps({"frame_id": f"f{i:04d}", "gt": gt, "pred": pred}) + "\n")
    print(f"wrote {args.out} ({args.frames} frames)")

    cfg = EngineConfig()
    frames = [(gt, pred) for _, gt, pred in read_detection_dataset(args.out, cfg.iou_thresholds)]
    table = evaluate_dataset(frames, cfg.iou_thresholds)
    print(json.dumps(table.to_dict(), indent=2, sort_keys=True))

    print("person accuracy vs IoU threshold:")
    for thr in (0.5, 0.6, 0.7, 0.8, 0.9):
        swept = dict(cfg.iou_thresholds)
        swept["person"] = thr
        t = evaluate_dataset(frames, swept)
        print(f"  {thr:.1f}: {t.accuracy.get('person', 0.0):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
