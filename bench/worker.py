"""The measuring process: one workload in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --run-dir DIR --result FILE [--setup-only]

run.py starts it with BLAS and OpenMP pinned to one thread and reads
FILE. The process imports the engine, loads the voice model if the
workload passes one, notes the time (the end of set-up), discards one
warm-up op and then runs whole rounds of ops until S seconds have passed.
An op is one in-process `invigil.cli.run_cli(argv)` call with its stdout
captured; a round is one op per input slot. Peak RSS is read right after
the last op, before the checks run.

With --trace 1 the rounds alternate between untraced and traced, so the
tracing overhead is measured against ops run in the same process phase.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import prepare

OUTPUT_SUFFIX = {
    "analyze_inline_conv": ".json",
    "analyze_pcm30_band": ".json",
    "simulate_write": "",
    "voice_train": ".mdl",
}


def op_argvs(workload: str, seed: int) -> list:
    """One argv builder per input slot; each takes the op's output path."""
    if workload in ("analyze_inline_conv", "analyze_pcm30_band"):
        inline = workload == "analyze_inline_conv"
        log = "cap.jsonl" if inline else "pcm30.jsonl"
        model = ["--voice-model", str(prepare.model_path())] if inline else []
        return [
            lambda out, d=d: ["analyze", "--log", str(d / log), "--out", str(out), *model]
            for d in prepare.session_dirs(seed)
        ]
    if workload == "simulate_write":
        builders = []
        for d in prepare.session_dirs(seed):
            spec_seed = json.loads((d / "spec.json").read_text(encoding="utf-8"))["seed"]
            builders.append(
                lambda out, d=d, s=spec_seed: [
                    "simulate", "--spec", str(d / "spec.json"), "--seed", str(s), "--out-dir", str(out)
                ]
            )
        return builders
    c = prepare.corpus_dir(seed)
    return [
        lambda out: [
            "train-voice",
            "--corpus", str(c),
            "--manifest", str(c / "manifest.jsonl"),
            "--config", str(c / "train.json"),
            "--out-model", str(out),
            "--seed", str(seed),
        ]
    ]


def checker_for(workload: str, seed: int, scratch: Path):
    import checks

    sessions = prepare.session_dirs(seed)
    if workload == "analyze_inline_conv":
        return checks.AnalyzeInlineConv(sessions, scratch)
    if workload == "analyze_pcm30_band":
        return checks.AnalyzePcm30Band(sessions, scratch)
    if workload == "simulate_write":
        return checks.SimulateWrite(sessions, scratch)
    return checks.VoiceTrain(seed)


def calibration_ms(calls: int = 7) -> float:
    """Median ms per call of a fixed pure-Python loop: the box's speed now."""
    samples = []
    for _ in range(calls):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - t) * 1e3)
    return statistics.median(samples)


def machine() -> dict:
    import os

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # older numpy: no dict form
        blas = {"unavailable": type(exc).__name__}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=prepare.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    prepare._engine()
    import invigil.cli as cli
    from tracer import OP, Tracer, install, summarize

    tracer = Tracer()
    if args.trace:
        install(tracer)
        tracer.enabled = True
    if args.workload == "analyze_inline_conv":
        cli.load_model(prepare.model_path())
    ready = time.perf_counter()
    tracer.enabled = False
    if args.setup_only:
        args.result.write_text(json.dumps({"ready": ready}), encoding="utf-8")
        return

    builders = op_argvs(args.workload, args.seed)
    suffix = OUTPUT_SUFFIX[args.workload]
    run_op = tracer.wrap(OP, cli.run_cli) if args.trace else cli.run_cli
    args.run_dir.mkdir(parents=True, exist_ok=True)
    op_dir = args.run_dir / "ops"
    op_dir.mkdir()

    def op(argv: list[str]) -> tuple[float, int, str]:
        sink = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = run_op(argv)
        return time.perf_counter() - t, code, sink.getvalue()

    op(builders[0](op_dir / f"warmup{suffix}"))  # discarded
    untraced: list[float] = []
    traced: list[float] = []
    outputs: list[tuple[int, Path]] = []
    errors: list[str] = []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        tracing = bool(args.trace) and rounds % 2 == 1
        tracer.enabled = tracing
        for slot, build in enumerate(builders):
            out = op_dir / f"op{attempted:05d}{suffix}"
            dt, code, text = op(build(out))
            attempted += 1
            if code != 0:
                failed += 1
                errors.append(text.strip()[-300:])
                continue
            (traced if tracing else untraced).append(dt)
            outputs.append((slot, out))
        rounds += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or rounds % 2 == 0):
            break
    tracer.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration = calibration_ms()

    import checks

    problems = []
    scratch = args.run_dir / "check"
    scratch.mkdir()
    checker = checker_for(args.workload, args.seed, scratch)
    try:
        checks.verify(checker, outputs)
        if outputs:
            checks.self_test(checker, *outputs[0], scratch)
    except checks.CheckFailed as exc:
        problems.append(str(exc))

    result = {
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:3],
        "problems": problems,
        "op_s": untraced,
        "peak_rss_mb": peak_rss_mb,
        "calibration_ms": calibration,
        "machine": machine(),
    }
    if args.trace:
        ops = len(traced)
        result["layers"] = summarize(tracer, ops) if ops else {}
        result["traced_op_s"] = traced
        tracer.write(prepare.CACHE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    shutil.rmtree(op_dir, ignore_errors=True)
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
