"""Closed-loop evaluation sweep.

Generates seeded random scenarios, replays each synthetic session log
through the detection pipeline, and scores the resulting reports against
the generator's ground truth. With well-separated episodes the flag
precision and recall should both come out at 1.0.

Usage:
    python3 scripts/closed_loop_eval.py --seeds 50 --out metrics.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invigil.config import EngineConfig
from invigil.errors import json_document
from invigil.pipeline import run_session
from invigil.simulator import evaluate_reports, generate_session, random_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=50, help="number of scenario seeds")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument("--out", default=None, help="write aggregate metrics JSON here")
    parser.add_argument("--verbose", action="store_true", help="print one line per session")
    args = parser.parse_args()

    cfg = EngineConfig()
    reports = []
    truths = []
    for seed in range(args.start, args.start + args.seeds):
        spec = random_scenario(seed)
        log, gt = generate_session(spec, cfg)
        report = run_session(log)
        reports.append(report)
        truths.append(gt)
        if args.verbose:
            kinds = ",".join(f.kind.value for f in report.flags) or "-"
            print(f"seed {seed:4d}  label={report.final_label.value:7s}  flags={kinds}")

    metrics = evaluate_reports(reports, truths)
    table = metrics.to_dict()
    print(json.dumps(table, indent=2, sort_keys=True))
    if args.out:
        Path(args.out).write_bytes(json_document(table))
        print(f"wrote {args.out}")

    ok = table["overall_precision"] == 1.0 and table["overall_recall"] == 1.0
    print(f"closed loop {'EXACT' if ok else 'LOSSY'} over {args.seeds} scenarios")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
