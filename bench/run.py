"""Benchmark of the invigil command line: analyze, simulate and train-voice.

    python3 bench/run.py --workload analyze_pcm30_band --seed 3 --seconds 15 --trace 0

Run from the root of a source checkout. The steps, each in its own process:

1. bench/prepare.py builds the seed's inputs into .bench_cache/ unless they
   are there already.
2. bench/worker.py measures the workload in a fresh interpreter and checks
   every output it produced.
3. With --trace 0, set-up probes, half before the worker and half after:
   fresh interpreters that import the engine (and load the voice model
   where the workload passes one) and exit. setup_s is the median over the
   probes and the worker's own set-up. A first probe only warms the file
   cache and is discarded.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end-to-end ones with --trace 0,
per-layer ones with --trace 1). The line before it records the machine
and the speed of a fixed calibration loop during the run. Both are also
appended to .bench_cache/runs.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from prepare import CACHE, ROOT, SRC, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6
DEADLINE_S = 170.0  # a run must end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def slow_op_s(times: list[float]) -> float:
    """90th-percentile op time.

    The shared machine runs at a base speed with bursts of extra speed. The
    median moves with the share of burst time in a run; the slow end of the
    distribution tracks the base speed (see README, Measured spread).
    """
    return statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]


def run_child(argv: list[str], deadline: float) -> None:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise SystemExit("benchmark ran out of time")
    proc = subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{Path(argv[0]).name} exited with {proc.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "invigil" / "__init__.py").is_file():
        print(f"no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.perf_counter() + DEADLINE_S

    run_child([str(HERE / "prepare.py"), "--seed", str(args.seed), "--workload", args.workload], deadline)

    run_dir = CACHE / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--run-dir", str(run_dir)]
    setups: list[float] = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            probe = run_dir / "probe.json"
            t0 = time.perf_counter()
            run_child([str(HERE / "worker.py"), *common, "--result", str(probe), "--setup-only"], deadline)
            setups.append(json.loads(probe.read_text())["ready"] - t0)

    try:
        if not args.trace:
            probe_setup(1)
            setups.clear()  # the first probe only warms the file cache
            probe_setup(SETUP_PROBES // 2)
        result_path = run_dir / "result.json"
        t0 = time.perf_counter()
        run_child(
            [
                str(HERE / "worker.py"),
                *common,
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--result", str(result_path),
            ],
            deadline,
        )
        res = json.loads(result_path.read_text())
        setup_self = res["ready"] - t0
        if not args.trace:
            probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        layers = dict(res["layers"])
        untraced, traced = slow_op_s(res["op_s"]), slow_op_s(res["traced_op_s"])
        layers["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        values = layers
    else:
        setups.append(setup_self)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": 1.0 / slow_op_s(res["op_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not res["problems"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": res["machine"],
        "calibration_ms": res["calibration_ms"],
        "op_ms": sorted(round(t * 1e3, 3) for t in res["op_s"]),
        "setup_s": sorted(setups),
        "problems": res["problems"],
        "errors": res["errors"],
    }
    summary = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    with open(CACHE / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "result": summary}) + "\n")
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
