from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from invigil import pipeline
from invigil.audio.dsp import WindowWorkspace
from invigil.audio.model import band_contrast_model
from invigil.config import EngineConfig
from invigil.events import AudioWindowPayload, EventKind, SensorEvent
from invigil.pipeline import (
    FlagEvent,
    FlagKind,
    PipelineState,
    SessionLabel,
    SessionReport,
    finalize_report,
    report_to_json,
    run_session,
    step,
)

from conftest import audio_event, emb_event, frame_event, fuzz_log, make_log

CFG = EngineConfig()
VOICE = band_contrast_model()


def _replay(events, refs, cfg=CFG):
    state = PipelineState.initial(refs)
    for ev in events:
        step(state, ev, cfg, VOICE)
    return finalize_report(state, "test", cfg)


def _present_run(t0, t1, step_ms=500):
    return [frame_event(t) for t in range(t0, t1 + 1, step_ms)]


def _empty_run(t0, t1, step_ms=500):
    return [frame_event(t, persons=0) for t in range(t0, t1 + 1, step_ms)]


# ---------------------------------------------------------------------------
# Rule fixtures, one per behaviour


def test_long_absence_flags_candidate_absence(identity):
    _, refs = identity
    events = _present_run(0, 2000) + _empty_run(2500, 14000) + [frame_event(14500)]
    report = _replay(events, refs)
    assert [f.kind for f in report.flags] == [FlagKind.CANDIDATE_ABSENCE]
    flag = report.flags[0]
    assert flag.t_ms == 14500
    assert flag.duration_ms == 12500
    assert report.final_label is SessionLabel.SUSPECT


def test_medium_absence_plus_impostor_flags_another_person(identity):
    centroid, refs = identity
    events = (
        _present_run(0, 2000)
        + _empty_run(2500, 8500)
        + [frame_event(9000), emb_event(9200, -centroid)]
    )
    report = _replay(events, refs)
    assert [f.kind for f in report.flags] == [FlagKind.ANOTHER_PERSON]
    flag = report.flags[0]
    assert flag.t_ms == 9200
    assert flag.distance is not None and flag.distance > 0.6


def test_short_absence_flags_nothing(identity):
    _, refs = identity
    events = _present_run(0, 2000) + _empty_run(2500, 4500) + [frame_event(5000)]
    report = _replay(events, refs)
    assert report.flags == ()
    assert report.final_label is SessionLabel.CLEAN


def test_high_phone_score_flags_phone_detection(identity):
    _, refs = identity
    events = [frame_event(0), frame_event(1000, devices=(("phone", 0.85),)), frame_event(2000)]
    report = _replay(events, refs)
    assert [f.kind for f in report.flags] == [FlagKind.PHONE_DETECTION]
    flag = report.flags[0]
    assert flag.t_ms == 1000 and flag.score == 0.85
    assert flag.clip_request.start_t_ms == 1000
    assert flag.clip_request.duration_ms == 5000


def test_mid_phone_score_flags_general_suspicious(identity):
    _, refs = identity
    events = [frame_event(0), frame_event(1000, devices=(("phone", 0.5),)), frame_event(2000)]
    report = _replay(events, refs)
    assert [f.kind for f in report.flags] == [FlagKind.GENERAL_SUSPICIOUS]
    assert report.flags[0].score == 0.5


def test_two_persons_flags_multiple_persons(identity):
    _, refs = identity
    events = [frame_event(0), frame_event(1000, persons=2), frame_event(2000)]
    report = _replay(events, refs)
    assert [f.kind for f in report.flags] == [FlagKind.MULTIPLE_PERSONS]
    flag = report.flags[0]
    assert flag.t_ms == 1000 and flag.person_count == 2


def test_voiced_window_flags_voice_detection(identity, audio_pool):
    _, refs = identity
    events = [frame_event(0), audio_event(1000, audio_pool["voiced"]), frame_event(2000)]
    report = _replay(events, refs)
    assert [f.kind for f in report.flags] == [FlagKind.VOICE_DETECTION]
    flag = report.flags[0]
    assert flag.t_ms == 1000
    assert flag.score is not None and flag.score > 0.5


def test_uneventful_session_is_clean(identity, audio_pool):
    _, refs = identity
    events = [
        frame_event(0, devices=(("phone", 0.2),)),
        audio_event(500, audio_pool["unvoiced"]),
        frame_event(1000),
        frame_event(2000),
    ]
    report = _replay(events, refs)
    assert report.flags == ()
    assert report.final_label is SessionLabel.CLEAN


def test_every_flag_carries_a_clip_request(identity, audio_pool):
    centroid, refs = identity
    events = (
        [frame_event(0, persons=2, devices=(("phone", 0.9),))]
        + [audio_event(500, audio_pool["voiced"])]
        + _empty_run(1000, 12000)
        + [frame_event(12500), emb_event(12600, -centroid)]
    )
    cfg = EngineConfig(recheck_on_any_return=True)
    report = _replay(events, refs, cfg=cfg)
    kinds = {f.kind for f in report.flags}
    assert kinds == {
        FlagKind.MULTIPLE_PERSONS,
        FlagKind.PHONE_DETECTION,
        FlagKind.VOICE_DETECTION,
        FlagKind.CANDIDATE_ABSENCE,
        FlagKind.ANOTHER_PERSON,
    }
    for f in report.flags:
        assert f.clip_request is not None
        assert f.clip_request.start_t_ms == f.t_ms
        assert f.clip_request.duration_ms == cfg.evidence_clip_ms
        assert f.clip_request.flag_kind is f.kind


# ---------------------------------------------------------------------------
# Absence details


def test_absence_thresholds_are_strict(identity):
    _, refs = identity
    # exactly the long threshold: no absence flag, but over the recheck
    # minimum, so a pending recheck fires on the next embedding
    events = _present_run(0, 2000) + _empty_run(2500, 11500) + [frame_event(12000)]
    assert (12000 - 2000) == CFG.absence_long_ms
    report = _replay(events, refs)
    assert report.flags == ()

    # exactly the recheck minimum: no recheck scheduled
    centroid, refs = identity
    events = (
        _present_run(0, 2000)
        + _empty_run(2500, 6500)
        + [frame_event(7000), emb_event(7100, -centroid)]
    )
    assert (7000 - 2000) == CFG.absence_recheck_min_ms
    report = _replay(events, refs)
    assert report.flags == ()


def test_absence_anchor_is_first_empty_frame_when_never_present(identity):
    _, refs = identity
    events = _empty_run(1000, 12500) + [frame_event(13000)]
    report = _replay(events, refs)
    assert [f.kind for f in report.flags] == [FlagKind.CANDIDATE_ABSENCE]
    assert report.flags[0].duration_ms == 12000


def test_open_absence_settled_at_finalize(identity):
    _, refs = identity
    events = _present_run(0, 2000) + _empty_run(2500, 13000)
    report = _replay(events, refs)
    assert [f.kind for f in report.flags] == [FlagKind.CANDIDATE_ABSENCE]
    flag = report.flags[0]
    assert flag.t_ms == 13000 and flag.duration_ms == 11000


def test_open_short_absence_not_flagged_at_finalize(identity):
    _, refs = identity
    events = _present_run(0, 2000) + _empty_run(2500, 9000)
    report = _replay(events, refs)
    assert report.flags == ()


def test_recheck_is_consumed_by_first_embedding(identity):
    centroid, refs = identity
    clean = refs.matrix[0]
    events = (
        _present_run(0, 2000)
        + _empty_run(2500, 8500)
        + [frame_event(9000), emb_event(9200, clean), emb_event(9400, -centroid)]
    )
    report = _replay(events, refs)
    # the clean embedding consumed the recheck; the impostor one after is ignored
    assert report.flags == ()


def test_embedding_without_pending_recheck_is_ignored(identity):
    centroid, refs = identity
    events = [frame_event(0), emb_event(500, -centroid), frame_event(1000)]
    report = _replay(events, refs)
    assert report.flags == ()


def test_recheck_on_any_return_rechecks_short_gaps(identity):
    centroid, refs = identity
    cfg = EngineConfig(recheck_on_any_return=True)
    events = (
        _present_run(0, 2000)
        + _empty_run(2500, 4500)
        + [frame_event(5000), emb_event(5200, -centroid)]
    )
    report = _replay(events, refs, cfg=cfg)
    assert [f.kind for f in report.flags] == [FlagKind.ANOTHER_PERSON]
    # same gap under the default config stays silent
    assert _replay(events, refs).flags == ()


def test_recheck_on_any_return_also_rechecks_long_gaps(identity):
    centroid, refs = identity
    cfg = EngineConfig(recheck_on_any_return=True)
    events = (
        _present_run(0, 2000)
        + _empty_run(2500, 14000)
        + [frame_event(14500), emb_event(14700, -centroid)]
    )
    report = _replay(events, refs, cfg=cfg)
    assert [f.kind for f in report.flags] == [
        FlagKind.CANDIDATE_ABSENCE,
        FlagKind.ANOTHER_PERSON,
    ]


# ---------------------------------------------------------------------------
# Device run semantics


def test_device_run_emits_once_and_records_max_score(identity):
    _, refs = identity
    events = [
        frame_event(0, devices=(("phone", 0.4),)),
        frame_event(500, devices=(("phone", 0.6),)),
        frame_event(1000, devices=(("phone", 0.55),)),
        frame_event(1500),
    ]
    report = _replay(events, refs)
    assert len(report.flags) == 1
    flag = report.flags[0]
    assert flag.kind is FlagKind.GENERAL_SUSPICIOUS
    assert flag.t_ms == 0 and flag.score == 0.6


def test_device_run_upgrades_kind_in_place(identity):
    _, refs = identity
    events = [
        frame_event(0, devices=(("phone", 0.4),)),
        frame_event(500, devices=(("phone", 0.8),)),
        frame_event(1000),
    ]
    report = _replay(events, refs)
    assert len(report.flags) == 1
    flag = report.flags[0]
    assert flag.kind is FlagKind.PHONE_DETECTION
    assert flag.t_ms == 0 and flag.score == 0.8
    assert flag.clip_request.flag_kind is FlagKind.PHONE_DETECTION
    assert flag.clip_request.start_t_ms == 0


def test_device_runs_split_by_below_low_frame(identity):
    _, refs = identity
    events = [
        frame_event(0, devices=(("phone", 0.5),)),
        frame_event(500, devices=(("phone", 0.1),)),
        frame_event(1000, devices=(("phone", 0.5),)),
    ]
    report = _replay(events, refs)
    assert [f.t_ms for f in report.flags] == [0, 1000]
    assert all(f.kind is FlagKind.GENERAL_SUSPICIOUS for f in report.flags)


def test_laptop_gates_like_phone(identity):
    _, refs = identity
    events = [frame_event(0, devices=(("laptop", 0.9),))]
    report = _replay(events, refs)
    assert [f.kind for f in report.flags] == [FlagKind.PHONE_DETECTION]


def test_device_gate_uses_best_score_in_frame(identity):
    _, refs = identity
    events = [frame_event(0, devices=(("laptop", 0.4), ("phone", 0.75)))]
    report = _replay(events, refs)
    assert len(report.flags) == 1
    assert report.flags[0].kind is FlagKind.PHONE_DETECTION
    assert report.flags[0].score == 0.75


def test_multi_person_debounce(identity):
    _, refs = identity
    events = [
        frame_event(0, persons=2),
        frame_event(500, persons=3),
        frame_event(1000, persons=1),
        frame_event(1500, persons=2),
    ]
    report = _replay(events, refs)
    assert [f.t_ms for f in report.flags] == [0, 1500]
    assert report.flags[0].person_count == 2
    assert all(f.kind is FlagKind.MULTIPLE_PERSONS for f in report.flags)


def test_voice_debounce(identity, audio_pool):
    _, refs = identity
    events = [
        audio_event(0, audio_pool["voiced"]),
        audio_event(1000, audio_pool["voiced2"]),
        audio_event(2000, audio_pool["unvoiced"]),
        audio_event(3000, audio_pool["voiced"]),
    ]
    report = _replay(events, refs)
    assert [f.t_ms for f in report.flags] == [0, 3000]
    assert all(f.kind is FlagKind.VOICE_DETECTION for f in report.flags)


def test_replay_analyses_every_window_in_one_workspace(identity, audio_pool, monkeypatch):
    _, refs = identity
    seen = []
    stft = pipeline.stft_spectrogram

    def recording_stft(window, **kwargs):
        seen.append(kwargs["workspace"])
        return stft(window, **kwargs)

    monkeypatch.setattr(pipeline, "stft_spectrogram", recording_stft)
    keys = ("voiced", "unvoiced", "quiet", "voiced2")
    run_session(make_log([audio_event(1000 * i, audio_pool[k]) for i, k in enumerate(keys)], refs))
    assert len(seen) == 4
    assert isinstance(seen[0], WindowWorkspace)
    assert all(ws is seen[0] for ws in seen)


def test_band_model_audio_step_allocates_little_after_the_first_window(identity, audio_pool):
    # the first window fills the workspace; later ones reuse its arrays
    _, refs = identity
    state, ws = PipelineState.initial(refs), WindowWorkspace()
    keys = ("voiced", "unvoiced", "quiet", "voiced2", "voiced")
    events = [audio_event(1000 * i, audio_pool[k]) for i, k in enumerate(keys)]
    step(state, events[0], CFG, VOICE, ws)
    for ev in events[1:]:
        tracemalloc.start()
        try:
            step(state, ev, CFG, VOICE, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak


# ---------------------------------------------------------------------------
# Replay mechanics


def test_equal_timestamps_step_fine(identity):
    _, refs = identity
    state = PipelineState.initial(refs)
    step(state, frame_event(1000), CFG, VOICE)
    step(state, frame_event(1000, persons=2), CFG, VOICE)
    assert len(state.flags) == 1


def test_run_session_wraps_errors_with_event_index(identity):
    _, refs = identity
    from invigil.events import AudioIntegrityError

    bad = SensorEvent(
        t_ms=500,
        kind=EventKind.AUDIO_WINDOW,
        payload=AudioWindowPayload(sample_rate=16000, path="missing.pcm"),
    )
    log = make_log([frame_event(0), bad], refs)
    with pytest.raises(AudioIntegrityError, match="event 1"):
        run_session(log, voice_model=VOICE)


def test_run_session_uses_embedded_config(identity):
    _, refs = identity
    cfg = EngineConfig(device_thresholds=CFG.device_thresholds.__class__(low=0.1, high=0.2))
    log = make_log([frame_event(0, devices=(("phone", 0.15),))], refs, cfg=cfg)
    report = run_session(log)
    assert [f.kind for f in report.flags] == [FlagKind.GENERAL_SUSPICIOUS]


def test_report_json_rejects_non_finite_values():
    flag = FlagEvent(kind=FlagKind.VOICE_DETECTION, t_ms=0, score=float("nan"))
    report = SessionReport(session_id="s", final_label=SessionLabel.SUSPECT, flags=(flag,))
    with pytest.raises(ValueError):
        report_to_json(report)


def test_flags_sorted_by_time_with_stable_ties(identity):
    _, refs = identity
    events = [frame_event(0, persons=2, devices=(("phone", 0.9),))]
    report = _replay(events, refs)
    # both flags share t=0; emission order (multi-person first) survives the sort
    assert [f.kind for f in report.flags] == [
        FlagKind.MULTIPLE_PERSONS,
        FlagKind.PHONE_DETECTION,
    ]


def test_flag_count_never_decreases(identity, rng):
    centroid, refs = identity
    for _ in range(20):
        log = fuzz_log(rng, centroid, refs)
        state = PipelineState.initial(refs)
        prev = 0
        for ev in log.events:
            step(state, ev, log.config, VOICE)
            assert len(state.flags) >= prev
            prev = len(state.flags)


# ---------------------------------------------------------------------------
# Properties against oracles (small scale here; the wide sweeps live in
# the acceptance suite)


def test_split_replay_equivalence(identity, rng):
    centroid, refs = identity
    for _ in range(60):
        log = fuzz_log(rng, centroid, refs)
        whole = report_to_json(run_session(log))
        split = int(rng.integers(0, len(log.events) + 1))
        state = PipelineState.initial(refs)
        for ev in log.events[:split]:
            step(state, ev, log.config, VOICE)
        for ev in log.events[split:]:
            step(state, ev, log.config, VOICE)
        resumed = report_to_json(finalize_report(state, log.session_id, log.config))
        assert whole == resumed


def test_absence_flags_match_gap_scanner(identity, rng):
    centroid, refs = identity
    for _ in range(80):
        log = fuzz_log(rng, centroid, refs)
        report = run_session(log)
        got = [
            (f.t_ms, f.duration_ms)
            for f in report.flags
            if f.kind is FlagKind.CANDIDATE_ABSENCE
        ]
        want = oracles.expected_absence_flags(
            log.events, log.config.person_score_min, log.config.absence_long_ms
        )
        assert got == sorted(want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fuzzed_replay_is_deterministic(seed):
    from conftest import make_reference_set

    rng = np.random.default_rng(seed)
    centroid, refs = make_reference_set(np.random.default_rng(seed ^ 0xFACE), count=5)
    log = fuzz_log(rng, centroid, refs)
    assert report_to_json(run_session(log)) == report_to_json(run_session(log))
