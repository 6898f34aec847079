from __future__ import annotations

import numpy as np
import pytest

import oracles
from invigil.audio.dsp import stft_spectrogram
from invigil.audio.model import band_contrast_model
from invigil.events import serialize_session_log
from invigil.pipeline import (
    FlagKind,
    SessionLabel,
    SessionReport,
    run_session,
)
from invigil.simulator import (
    MAX_DURATION_MS,
    Episode,
    EpisodeKind,
    FlagWindow,
    GroundTruth,
    InvalidSpec,
    LengthMismatch,
    ScenarioSpec,
    evaluate_reports,
    generate_session,
    load_scenario_file,
    random_scenario,
    save_scenario_file,
    scenario_from_dict,
    synth_audio,
)

VOICE = band_contrast_model()


def _spec(*episodes, duration_ms=30000, seed=0):
    return ScenarioSpec(duration_ms=duration_ms, episodes=tuple(episodes), seed=seed)


# ---------------------------------------------------------------------------
# Scenario specs


def test_episode_bounds_validated():
    with pytest.raises(InvalidSpec):
        _spec(Episode(EpisodeKind.PHONE_USE, start_ms=28000, length_ms=5000))
    with pytest.raises(InvalidSpec):
        _spec(Episode(EpisodeKind.PHONE_USE, start_ms=-100, length_ms=500))
    with pytest.raises(InvalidSpec):
        _spec(Episode(EpisodeKind.PHONE_USE, start_ms=0, length_ms=0))


def test_intensity_validated():
    with pytest.raises(InvalidSpec):
        _spec(Episode(EpisodeKind.PHONE_USE, 1000, 3000, intensity=1.5))


def test_absence_must_end_before_session_tail():
    # an absence running into the final second would never see a return frame
    with pytest.raises(InvalidSpec):
        _spec(Episode(EpisodeKind.ABSENCE, 17000, 12500), duration_ms=30000)
    _spec(Episode(EpisodeKind.ABSENCE, 16000, 12500), duration_ms=30000)


def test_impostor_tail_rule_matches_absence():
    with pytest.raises(InvalidSpec):
        _spec(Episode(EpisodeKind.IMPOSTOR_SWAP, 21000, 9000), duration_ms=30000)


def test_scenario_round_trip(tmp_path):
    spec = _spec(
        Episode(EpisodeKind.PHONE_USE, 4000, 3000, intensity=0.8),
        Episode(EpisodeKind.SECOND_PERSON, 12000, 4000),
        seed=9,
    )
    assert scenario_from_dict(spec.to_dict()) == spec
    path = tmp_path / "s.json"
    save_scenario_file(spec, path)
    assert load_scenario_file(path) == spec


def test_scenario_duration_is_bounded():
    # only specs are built here: a session this long is never generated
    for duration_ms in (MAX_DURATION_MS + 1, 10**400):
        with pytest.raises(InvalidSpec, match="duration_ms must be in"):
            scenario_from_dict({"duration_ms": duration_ms, "seed": 0})
    assert scenario_from_dict({"duration_ms": MAX_DURATION_MS, "seed": 0}).duration_ms == MAX_DURATION_MS


@pytest.mark.parametrize(
    "doc, message",
    [([], "must be a JSON object"), ({"duration_ms": float("inf")}, "duration_ms must be an integer, got inf")],
)
def test_scenario_from_dict_rejects_non_objects_and_infinity(doc, message):
    with pytest.raises(InvalidSpec, match=message):
        scenario_from_dict(doc)


def test_scenario_from_dict_rejects_unknown_kind():
    with pytest.raises(InvalidSpec):
        scenario_from_dict(
            {
                "duration_ms": 10000,
                "seed": 0,
                "episodes": [{"kind": "juggling", "start_ms": 0, "length_ms": 100}],
            }
        )


# ---------------------------------------------------------------------------
# Audio synthesis


def test_synth_audio_deterministic_per_seed():
    a = synth_audio("voiced", seed=5)
    b = synth_audio("voiced", seed=5)
    c = synth_audio("voiced", seed=6)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_synth_audio_peak_normalized():
    for kind in ("voiced", "unvoiced"):
        w = synth_audio(kind, seed=1)
        assert np.max(np.abs(w.samples)) == pytest.approx(0.5)


def test_synth_audio_rejects_unknown_kind():
    with pytest.raises(ValueError):
        synth_audio("humming", seed=0)


def test_voiced_energy_sits_in_low_band():
    spec = stft_spectrogram(synth_audio("voiced", seed=2))
    mags = spec.magnitudes
    centroid = float(np.sum(np.arange(mags.shape[1]) * mags.sum(axis=0)) / mags.sum())
    assert centroid < 100.0
    # harmonics stop at 840 Hz: nothing meaningful above bin 100
    high = mags[:, 100:].sum()
    assert high / mags.sum() < 0.01


def test_voiced_flatter_than_unvoiced_is_false():
    # white noise has a much flatter spectrum than a harmonic stack
    voiced = stft_spectrogram(synth_audio("voiced", seed=3)).magnitudes
    unvoiced = stft_spectrogram(synth_audio("unvoiced", seed=3)).magnitudes
    assert oracles.spectral_flatness(voiced) < oracles.spectral_flatness(unvoiced) / 10


# ---------------------------------------------------------------------------
# Session generation


def test_generation_is_byte_deterministic():
    spec = random_scenario(seed=21)
    log1, gt1 = generate_session(spec)
    log2, gt2 = generate_session(spec)
    assert serialize_session_log(log1) == serialize_session_log(log2)
    assert gt1 == gt2


def test_clean_scenario_runs_clean():
    spec = _spec(duration_ms=20000, seed=4)
    log, gt = generate_session(spec)
    assert gt.final_label is SessionLabel.CLEAN
    assert gt.windows == ()
    report = run_session(log, voice_model=VOICE)
    assert report.final_label is SessionLabel.CLEAN
    assert report.flags == ()


def test_phone_episode_round_trip():
    spec = _spec(Episode(EpisodeKind.PHONE_USE, 5000, 4000, intensity=0.9), seed=7)
    log, gt = generate_session(spec)
    kinds = [w.kind for w in gt.windows]
    assert kinds == [FlagKind.PHONE_DETECTION]
    window = gt.windows[0]
    report = run_session(log, voice_model=VOICE)
    phone_flags = [f for f in report.flags if f.kind is FlagKind.PHONE_DETECTION]
    assert len(phone_flags) == 1
    assert window.contains(phone_flags[0].t_ms)
    assert report.flags == tuple(phone_flags)


def test_mid_intensity_phone_maps_to_general_suspicious():
    spec = _spec(Episode(EpisodeKind.PHONE_USE, 5000, 4000, intensity=0.5), seed=8)
    log, gt = generate_session(spec)
    assert [w.kind for w in gt.windows] == [FlagKind.GENERAL_SUSPICIOUS]
    report = run_session(log, voice_model=VOICE)
    assert [f.kind for f in report.flags] == [FlagKind.GENERAL_SUSPICIOUS]


def test_absence_episode_round_trip():
    spec = _spec(Episode(EpisodeKind.ABSENCE, 6000, 12000), duration_ms=25000, seed=5)
    log, gt = generate_session(spec)
    assert [w.kind for w in gt.windows] == [FlagKind.CANDIDATE_ABSENCE]
    report = run_session(log, voice_model=VOICE)
    flags = [f for f in report.flags if f.kind is FlagKind.CANDIDATE_ABSENCE]
    assert len(flags) == 1
    assert flags[0].duration_ms > 10000
    assert gt.windows[0].contains(flags[0].t_ms)


def test_impostor_episode_round_trip():
    spec = _spec(Episode(EpisodeKind.IMPOSTOR_SWAP, 6000, 9000), duration_ms=25000, seed=6)
    log, gt = generate_session(spec)
    assert [w.kind for w in gt.windows] == [FlagKind.ANOTHER_PERSON]
    report = run_session(log, voice_model=VOICE)
    assert [f.kind for f in report.flags] == [FlagKind.ANOTHER_PERSON]
    assert gt.windows[0].contains(report.flags[0].t_ms)


def test_speech_episode_round_trip():
    spec = _spec(Episode(EpisodeKind.BACKGROUND_SPEECH, 5000, 4000), seed=10)
    log, gt = generate_session(spec)
    assert [w.kind for w in gt.windows] == [FlagKind.VOICE_DETECTION]
    report = run_session(log, voice_model=VOICE)
    voice_flags = [f for f in report.flags if f.kind is FlagKind.VOICE_DETECTION]
    assert len(voice_flags) >= 1
    assert all(gt.windows[0].contains(f.t_ms) for f in voice_flags)


def test_second_person_episode_round_trip():
    spec = _spec(Episode(EpisodeKind.SECOND_PERSON, 5000, 4000), seed=11)
    log, gt = generate_session(spec)
    assert [w.kind for w in gt.windows] == [FlagKind.MULTIPLE_PERSONS]
    report = run_session(log, voice_model=VOICE)
    assert [f.kind for f in report.flags] == [FlagKind.MULTIPLE_PERSONS]


def test_generated_log_survives_serialization():
    spec = random_scenario(seed=33)
    log, _ = generate_session(spec)
    from invigil.events import parse_session_log

    data = serialize_session_log(log)
    back = parse_session_log(data)
    assert serialize_session_log(back) == data
    assert run_session(back, voice_model=VOICE).to_dict() == run_session(log, voice_model=VOICE).to_dict()


def test_frame_grid_respects_fps_cap():
    spec = _spec(duration_ms=10000, seed=1)
    log, _ = generate_session(spec)
    from invigil.events import EventKind, resample_frames

    frames = [ev for ev in log.events if ev.kind is EventKind.FRAME_DETECTIONS]
    thinned = resample_frames(log, log.config.max_fps)
    kept = [ev for ev in thinned.events if ev.kind is EventKind.FRAME_DETECTIONS]
    assert len(frames) == len(kept)


# ---------------------------------------------------------------------------
# Metrics


def _win(kind, a, b):
    return FlagWindow(kind=kind, start_ms=a, end_ms=b)


def _report(session, flags):
    from invigil.pipeline import FlagEvent

    return SessionReport(
        session_id=session,
        final_label=SessionLabel.SUSPECT if flags else SessionLabel.CLEAN,
        flags=tuple(FlagEvent(kind=k, t_ms=t) for k, t in flags),
    )


def test_metrics_perfect_match():
    gts = [
        GroundTruth(
            final_label=SessionLabel.SUSPECT,
            windows=(_win(FlagKind.PHONE_DETECTION, 1000, 4000),),
        )
    ]
    reports = [_report("s0", [(FlagKind.PHONE_DETECTION, 2000)])]
    m = evaluate_reports(reports, gts)
    assert m.precision == {"PhoneDetection": 1.0}
    assert m.recall == {"PhoneDetection": 1.0}
    assert m.overall_precision == 1.0 and m.overall_recall == 1.0
    assert m.confusion == {
        "clean_clean": 0,
        "clean_suspect": 0,
        "suspect_clean": 0,
        "suspect_suspect": 1,
    }


def test_metrics_counts_misses_and_false_alarms():
    gts = [
        GroundTruth(
            final_label=SessionLabel.SUSPECT,
            windows=(
                _win(FlagKind.PHONE_DETECTION, 1000, 4000),
                _win(FlagKind.VOICE_DETECTION, 8000, 9000),
            ),
        ),
        GroundTruth(final_label=SessionLabel.CLEAN, windows=()),
    ]
    reports = [
        _report("s0", [(FlagKind.PHONE_DETECTION, 2000), (FlagKind.PHONE_DETECTION, 6000)]),
        _report("s1", [(FlagKind.MULTIPLE_PERSONS, 500)]),
    ]
    m = evaluate_reports(reports, gts)
    assert m.precision["PhoneDetection"] == 0.5  # second flag fell outside the window
    assert m.precision["MultiplePersons"] == 0.0
    assert m.recall["PhoneDetection"] == 1.0
    assert m.recall["VoiceDetection"] == 0.0
    assert m.overall_precision == pytest.approx(1 / 3)
    assert m.overall_recall == pytest.approx(1 / 2)
    assert m.confusion["suspect_suspect"] == 1
    assert m.confusion["clean_suspect"] == 1


def test_metrics_cross_session_matches_do_not_count():
    gts = [
        GroundTruth(
            final_label=SessionLabel.SUSPECT,
            windows=(_win(FlagKind.PHONE_DETECTION, 1000, 4000),),
        ),
        GroundTruth(final_label=SessionLabel.CLEAN, windows=()),
    ]
    # the flag time fits session 0's window but belongs to session 1
    reports = [_report("s0", []), _report("s1", [(FlagKind.PHONE_DETECTION, 2000)])]
    m = evaluate_reports(reports, gts)
    assert m.precision["PhoneDetection"] == 0.0
    assert m.recall["PhoneDetection"] == 0.0
    assert m.confusion["suspect_clean"] == 1


def test_metrics_empty_everything_reads_perfect():
    gts = [GroundTruth(final_label=SessionLabel.CLEAN, windows=())]
    m = evaluate_reports([_report("s0", [])], gts)
    assert m.overall_precision == 1.0 and m.overall_recall == 1.0
    assert m.precision == {} and m.recall == {}
    assert m.confusion["clean_clean"] == 1


def test_metrics_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate_reports([], [GroundTruth(final_label=SessionLabel.CLEAN, windows=())])


def test_metrics_to_dict_sorted():
    gts = [
        GroundTruth(
            final_label=SessionLabel.SUSPECT,
            windows=(
                _win(FlagKind.VOICE_DETECTION, 0, 100),
                _win(FlagKind.CANDIDATE_ABSENCE, 200, 300),
            ),
        )
    ]
    reports = [_report("s0", [(FlagKind.VOICE_DETECTION, 50), (FlagKind.CANDIDATE_ABSENCE, 250)])]
    d = evaluate_reports(reports, gts).to_dict()
    assert list(d["recall"]) == sorted(d["recall"])


# ---------------------------------------------------------------------------
# Stock scenarios


def test_random_scenario_is_deterministic_and_valid():
    a = random_scenario(seed=13)
    b = random_scenario(seed=13)
    assert a == b
    assert 2 <= len(a.episodes) <= 4
    for ep in a.episodes:
        assert ep.end_ms <= a.duration_ms


def test_random_scenario_episodes_are_separated():
    for seed in range(25):
        spec = random_scenario(seed=seed)
        eps = sorted(spec.episodes, key=lambda e: e.start_ms)
        for prev, nxt in zip(eps, eps[1:]):
            assert nxt.start_ms - prev.end_ms >= 2500


def test_random_scenario_kind_filter():
    spec = random_scenario(seed=3, kinds=(EpisodeKind.PHONE_USE,))
    assert all(ep.kind is EpisodeKind.PHONE_USE for ep in spec.episodes)


def test_closed_loop_small_batch():
    reports, gts = [], []
    for seed in range(8):
        spec = random_scenario(seed=seed)
        log, gt = generate_session(spec)
        reports.append(run_session(log, voice_model=VOICE))
        gts.append(gt)
    m = evaluate_reports(reports, gts)
    assert m.overall_precision == 1.0
    assert m.overall_recall == 1.0
    assert m.confusion["clean_suspect"] == 0 and m.confusion["suspect_clean"] == 0
