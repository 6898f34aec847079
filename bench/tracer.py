"""Spans around calls into the engine's layers, recorded from outside it.

The traced run replaces module attributes that `cli`, `pipeline` and
`audio.train` call through (and two `VoiceModel` methods) with wrappers
that record a span per call: name, parent span, start and end. Spans stay
in memory while the run measures and are written out when it ends. The
engine's source is not touched, so an untraced run executes exactly the
shipped code.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

OP = "op"  # the root span of one op; its self time is cli.self_ms


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call while enabled; after(counts, args, result)."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            record = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start, "end": end}) + "\n")

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed duration, summed self time, and call count."""
        child_time: dict[int, float] = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        return total, self_time, calls


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import invigil.audio.train as train
    import invigil.cli as cli
    import invigil.pipeline as pipeline
    from invigil.audio.model import VoiceModel
    from invigil.events import FRAME_KINDS

    def count_frames(counts, args, result):
        counts["frames_in"] += sum(1 for ev in args[0].events if ev.kind in FRAME_KINDS)
        counts["frames_out"] += sum(1 for ev in result.events if ev.kind in FRAME_KINDS)

    def count_session(counts, args, result):
        counts["events"] += len(args[0].events)
        counts["flags"] += len(result.flags)

    tracer.patch(cli, "parse_session_log", "events.parse")
    tracer.patch(cli, "resample_frames", "events.resample", count_frames)
    tracer.patch(cli, "resolve_audio_refs", "events.resolve_audio")
    tracer.patch(cli, "serialize_session_log", "events.serialize")
    tracer.patch(cli, "load_model", "audio.model.load")
    tracer.patch(cli, "run_session", "pipeline.run_session", count_session)
    tracer.patch(cli, "report_to_json", "pipeline.report_json")
    tracer.patch(cli, "generate_session", "simulator.generate")
    tracer.patch(cli, "evaluate_reports", "simulator.evaluate")
    tracer.patch(cli, "load_corpus", "audio.train.load_corpus")
    tracer.patch(cli, "train_voice_model", "audio.train.train")
    tracer.patch(pipeline, "stft_spectrogram", "audio.dsp.stft")
    tracer.patch(pipeline, "classify_window", "audio.model.classify")
    tracer.patch(pipeline, "classify_identity", "facematch.identity")
    tracer.patch(pipeline, "person_count", "objectgate.person_count")
    tracer.patch(train, "stft_spectrogram", "audio.dsp.stft")
    tracer.patch(VoiceModel, "forward", "audio.model.forward")
    tracer.patch(VoiceModel, "backward", "audio.model.backward")


def summarize(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics over `ops` traced ops.

    Times ending in _ms are per op unless the name says per window or per
    call (stft_ms, classify_ms: per window; load_ms: per call; _us: per
    call). Counts are per op. A layer the workload never calls reads 0.
    """
    total, self_time, calls = tracer.totals()

    def per_op(name: str) -> float:
        return total[name] * 1e3 / ops

    def per_call(name: str, scale: float) -> float:
        return total[name] * scale / calls[name] if calls[name] else 0.0

    frames_in = tracer.counts["frames_in"]
    return {
        "events.parse_ms": per_op("events.parse"),
        "events.resample_ms": per_op("events.resample"),
        "events.frames_kept_ratio": tracer.counts["frames_out"] / frames_in if frames_in else 0.0,
        "events.resolve_audio_ms": per_op("events.resolve_audio"),
        "events.serialize_ms": per_op("events.serialize"),
        "audio.dsp.stft_ms": per_call("audio.dsp.stft", 1e3),
        "audio.dsp.windows": calls["audio.dsp.stft"] / ops,
        "audio.model.classify_ms": per_call("audio.model.classify", 1e3),
        "audio.model.forward_ms": per_op("audio.model.forward"),
        "audio.model.forward_calls": calls["audio.model.forward"] / ops,
        "audio.model.backward_ms": per_op("audio.model.backward"),
        "audio.model.backward_calls": calls["audio.model.backward"] / ops,
        "audio.model.load_ms": per_call("audio.model.load", 1e3),
        "audio.train.load_corpus_ms": per_op("audio.train.load_corpus"),
        "audio.train.train_ms": per_op("audio.train.train"),
        "audio.train.self_ms": self_time["audio.train.train"] * 1e3 / ops,
        "pipeline.run_session_ms": per_op("pipeline.run_session"),
        "pipeline.fold_self_ms": self_time["pipeline.run_session"] * 1e3 / ops,
        "pipeline.report_json_ms": per_op("pipeline.report_json"),
        "pipeline.events": tracer.counts["events"] / ops,
        "pipeline.flags": tracer.counts["flags"] / ops,
        "facematch.identity_us": per_call("facematch.identity", 1e6),
        "facematch.rechecks": calls["facematch.identity"] / ops,
        "objectgate.person_count_us": per_call("objectgate.person_count", 1e6),
        "objectgate.frames": calls["objectgate.person_count"] / ops,
        "simulator.generate_ms": per_op("simulator.generate"),
        "simulator.evaluate_ms": per_op("simulator.evaluate"),
        "cli.self_ms": self_time[OP] * 1e3 / ops,
    }
