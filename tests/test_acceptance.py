"""End-to-end acceptance gate.

Ten numbered criteria, each with an explicit tolerance and wall-clock
budget. Every criterion prints one `ACCEPTANCE nn: PASS|FAIL` line on
the real stdout so the gate can be read off any test transcript.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import oracles
import rule_fixtures
from conftest import fuzz_log, make_reference_set
from invigil.audio.dsp import PcmWindow, stft_spectrogram
from invigil.audio.model import Conv2D, Dense, Flatten, MaxPool2, VoiceModel, band_contrast_model
from invigil.audio.train import TrainingConfig, cross_validate, fold_plan
from invigil.config import EngineConfig
from invigil.events import serialize_session_log
from invigil.facematch import Embedding, ReferenceSet, Verdict, classify_identity
from invigil.objectgate import BoundingBox, evaluate_detections, iou
from invigil.pipeline import (
    FlagKind,
    PipelineState,
    SessionLabel,
    finalize_report,
    report_to_json,
    run_session,
    step,
)
from invigil.segmentation import (
    FaceKeypoints,
    Frame,
    PersonMask,
    attribute_candidate_mask,
    blur_frame,
    box_blur,
)
from invigil.simulator import ScenarioSpec, evaluate_reports, generate_session, random_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"


# pytest captures at the fd level, so plain prints (and even sys.__stdout__)
# vanish from the transcript; each test pushes its capfd here so _status can
# momentarily lift capture and land the line on the real terminal.
_CAPTURE: list = []


@pytest.fixture(autouse=True)
def _bypass_capture(capfd):
    _CAPTURE.append(capfd)
    yield
    _CAPTURE.pop()


def _status(number: int, ok: bool) -> None:
    line = f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'}"
    if _CAPTURE:
        with _CAPTURE[-1].disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@contextmanager
def criterion(number: int, limit_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s, budget {limit_s:.0f}s"
    except BaseException:
        _status(number, False)
        raise
    _status(number, True)


# ---------------------------------------------------------------------------


def test_01_face_match_oracle_equivalence():
    with criterion(1, 1.0):
        rng = np.random.default_rng(0xACC1)
        for _ in range(1000):
            centroid, refs = make_reference_set(rng, count=20)
            probe = centroid + rng.uniform(0.0, 1.2) * rng.standard_normal(128) * rng.uniform(0.0, 0.2)
            decision = classify_identity(Embedding(values=probe), refs, 0.6)
            # Python floats: math.dist on numpy scalars would cost more than the engine under test
            brute = [math.dist(probe.tolist(), row) for row in refs.matrix.tolist()]
            brute_min = min(brute)
            assert abs(decision.min_distance - brute_min) <= 1e-9 * max(brute_min, 1e-30)
            assert decision.verdict is (
                Verdict.CLEAN if brute_min <= 0.6 else Verdict.ANOTHER_PERSON
            )

        # boundary: min distance exactly 0.6 stays Clean
        base = np.zeros(128)
        base[0] = 1.0
        probe = base.copy()
        probe[1] += 0.36
        probe[2] += 0.48
        refs = ReferenceSet(np.tile(base, (20, 1)))
        decision = classify_identity(Embedding(values=probe), refs, 0.6)
        assert decision.min_distance == 0.6
        assert decision.verdict is Verdict.CLEAN


def test_02_rule_suite_golden_reports():
    with criterion(2, 5.0):
        reports = rule_fixtures.fixture_reports()
        expected_kinds = {
            "absence_long": [FlagKind.CANDIDATE_ABSENCE],
            "absence_recheck_impostor": [FlagKind.ANOTHER_PERSON],
            "absence_short": [],
            "phone_high": [FlagKind.PHONE_DETECTION],
            "phone_mid": [FlagKind.GENERAL_SUSPICIOUS],
            "two_persons": [FlagKind.MULTIPLE_PERSONS],
            "voice_positive": [FlagKind.VOICE_DETECTION],
            "clean": [],
        }
        assert set(reports) == set(expected_kinds)
        for name, report in reports.items():
            assert [f.kind for f in report.flags] == expected_kinds[name], name
            for f in report.flags:
                assert f.clip_request is not None
                assert f.clip_request.duration_ms == 5000
                assert f.clip_request.start_t_ms == f.t_ms
            want_label = SessionLabel.SUSPECT if expected_kinds[name] else SessionLabel.CLEAN
            assert report.final_label is want_label, name
            rendered = report_to_json(report)
            assert rendered == report_to_json(report), name  # byte-stable render
            golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
            assert rendered == golden, f"{name} drifted from its golden report"
        # spot checks the goldens cannot express structurally
        absence = reports["absence_long"].flags[0]
        assert absence.duration_ms == 12500
        impostor = reports["absence_recheck_impostor"].flags[0]
        assert impostor.distance is not None and impostor.distance > 0.6


def test_03_split_replay_equivalence():
    with criterion(3, 30.0):
        rng = np.random.default_rng(0x5011)
        centroid, refs = make_reference_set(np.random.default_rng(0x5012))
        pool = {
            "voiced": rule_fixtures.synth_audio("voiced", 31).samples,
            "voiced2": rule_fixtures.synth_audio("voiced", 32).samples,
            "unvoiced": rule_fixtures.synth_audio("unvoiced", 31).samples,
            "quiet": rule_fixtures.synth_audio("unvoiced", 32).samples * 0.1,
        }
        voice = band_contrast_model()
        for _ in range(500):
            log = fuzz_log(rng, centroid, refs, audio_pool=pool)
            whole = report_to_json(run_session(log, voice_model=voice))
            split = int(rng.integers(0, len(log.events) + 1))
            state = PipelineState.initial(refs)
            for ev in log.events[:split]:
                step(state, ev, log.config, voice)
            for ev in log.events[split:]:
                step(state, ev, log.config, voice)
            resumed = report_to_json(finalize_report(state, log.session_id, log.config))
            assert whole == resumed


def test_04_absence_flags_match_gap_scanner():
    with criterion(4, 30.0):
        rng = np.random.default_rng(0xAB5E)
        centroid, refs = make_reference_set(np.random.default_rng(0xAB5F))
        for _ in range(500):
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


def test_05_stft_against_direct_dft():
    with criterion(5, 30.0):
        rng = np.random.default_rng(0x57F7)
        for _ in range(2):
            samples = rng.uniform(-1.0, 1.0, 16000)
            spec = stft_spectrogram(PcmWindow(samples=samples))
            assert spec.shape == (61, 257)
            want = oracles.stft_naive(samples, 512, 256)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(spec.magnitudes - want)) <= 1e-6 * scale

        t = np.arange(16000) / 16000.0
        sine = stft_spectrogram(PcmWindow(samples=0.5 * np.sin(2 * np.pi * 1000.0 * t)))
        assert sine.shape == (61, 257)
        assert np.all(np.argmax(sine.magnitudes, axis=1) == 32)


def test_06_gradient_check_miniature_model():
    with criterion(6, 30.0):
        from invigil.audio.train import _loss_and_grad

        rng = np.random.default_rng(0x64AD)
        model = VoiceModel(
            layers=[
                Conv2D(0.4 * rng.standard_normal((3, 3, 1, 2)), rng.uniform(0.3, 0.6, 2), relu=True),
                MaxPool2(),
                Flatten(),
                Dense(0.4 * rng.standard_normal((18, 4)), rng.uniform(0.3, 0.6, 4), relu=True),
                Dense(0.4 * rng.standard_normal((4, 2)), np.zeros(2), relu=False),
            ],
            input_shape=(8, 9),
        )
        x = rng.standard_normal((3, 8, 9, 1)) * 0.5 + 0.2
        y = np.array([0, 1, 1])

        caches: list[dict] = []
        logits = model.forward(x, caches)
        _, dlogits = _loss_and_grad(logits, y)
        grads = model.backward(dlogits, caches)

        def loss() -> float:
            value, _ = _loss_and_grad(model.forward(x), y)
            return value

        eps = 1e-6
        worst = 0.0
        for layer, g in zip(model.layers, grads):
            for name, analytic in g.items():
                param = layer.params[name]
                flat = param.reshape(-1)
                aflat = analytic.reshape(-1)
                for i in range(flat.shape[0]):
                    orig = flat[i]
                    flat[i] = orig + eps
                    hi = loss()
                    flat[i] = orig - eps
                    lo = loss()
                    flat[i] = orig
                    numeric = (hi - lo) / (2 * eps)
                    denom = max(abs(numeric), abs(aflat[i]), 1e-8)
                    worst = max(worst, abs(aflat[i] - numeric) / denom)
        assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_07_voice_cv_study_on_synthetic_corpus():
    with criterion(7, 300.0):
        data = []
        for seed in range(200):
            data.append((stft_spectrogram(rule_fixtures.synth_audio("voiced", seed)), "voice"))
            data.append((stft_spectrogram(rule_fixtures.synth_audio("unvoiced", seed)), "non-voice"))
        assert len(data) == 400

        hp = TrainingConfig(max_epochs=4, patience=2)
        seed = 0xCF7
        report = cross_validate(data, k=5, repeats=3, seed=seed, hp=hp)
        assert len(report.accuracies) == 15
        assert report.k == 5 and report.repeats == 3
        assert report.min <= report.mean <= report.max
        assert report.mean >= 0.90, f"mean accuracy {report.mean:.4f}"

        # the folds the study ran on are provably disjoint and exhaustive
        splits = fold_plan(len(data), 5, 3, seed, hp.val_fraction)
        for split in splits:
            train, val, test = set(split.train_idx), set(split.val_idx), set(split.test_idx)
            assert not (train & val) and not (train & test) and not (val & test)
            assert train | val | test == set(range(len(data)))
        for repeat in range(3):
            tested = sorted(
                i for s in splits if s.repeat == repeat for i in s.test_idx
            )
            assert tested == list(range(len(data)))


def test_08_iou_harness_and_matching_oracle():
    with criterion(8, 10.0):
        a = BoundingBox(3.0, 4.0, 10.0, 5.0)
        assert iou(a, a) == 1.0
        assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 2, 2)) == 0.0
        assert iou(BoundingBox(0, 0, 1, 2), BoundingBox(0, 1, 1, 2)) == 1.0 / 3.0

        thresholds = {"person": 0.7, "laptop": 0.5, "phone": 0.3}
        rng = np.random.default_rng(0x10A)
        classes = ["person", "laptop", "phone"]
        for _ in range(50):
            gt, pred = [], []
            for slot in range(int(rng.integers(1, 5))):
                cls = classes[rng.integers(0, 3)]
                x, y = float(slot * 100), float(rng.integers(0, 3) * 100)
                gt.append((cls, BoundingBox(x, y, 20.0, 20.0)))
                if rng.random() < 0.8:
                    jx, jy = rng.uniform(-3, 3, 2)
                    p_cls = cls if rng.random() < 0.85 else classes[rng.integers(0, 3)]
                    pred.append((p_cls, BoundingBox(x + jx, y + jy, 20.0, 20.0), float(rng.random())))
            for _ in range(int(rng.integers(0, 3))):
                cls = classes[rng.integers(0, 3)]
                pred.append((cls, BoundingBox(float(rng.integers(500, 900)), 0.0, 15.0, 15.0), float(rng.random())))

            table = evaluate_detections(gt, pred, thresholds)
            for cls in table.total:
                g = [(c, (b.x, b.y, b.w, b.h)) for c, b in gt if c == cls]
                p = [(c, (b.x, b.y, b.w, b.h)) for c, b, _ in pred if c == cls]
                assert table.matched[cls] == oracles.max_matching(g, p, thresholds), cls
                assert table.thresholds[cls] == thresholds[cls]
                assert table.accuracy[cls] == table.matched[cls] / table.total[cls]


def test_09_segmentation_blur_and_attribution():
    with criterion(9, 30.0):
        rng = np.random.default_rng(0x5E61)
        for _ in range(30):
            h, w = int(rng.integers(6, 50)), int(rng.integers(6, 50))
            pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            radius = int(rng.integers(1, 10))
            blurred = box_blur(pixels, radius)
            assert np.array_equal(blurred, oracles.blur_shift_accumulate(pixels, radius))

            bitmap = rng.random((h, w)) < 0.3
            mask = PersonMask(mask_id=0, bitmap=bitmap)
            out = blur_frame(Frame(pixels=pixels), mask, radius=radius)
            assert np.array_equal(out.pixels[bitmap], pixels[bitmap])
            assert np.array_equal(out.pixels[~bitmap], blurred[~bitmap])

        for _ in range(200):
            h, w = int(rng.integers(8, 40)), int(rng.integers(8, 40))
            masks = [
                PersonMask(mask_id=mid, bitmap=rng.random((h, w)) < rng.uniform(0.1, 0.7))
                for mid in range(int(rng.integers(0, 4)))
            ]
            kp = FaceKeypoints(
                *[(float(rng.uniform(-2, w + 2)), float(rng.uniform(-2, h + 2))) for _ in range(5)]
            )
            got = attribute_candidate_mask(masks, kp)
            counts = {
                m.mask_id: oracles.count_points_in_mask(m.bitmap, kp.points()) for m in masks
            }
            qualified = {mid: c for mid, c in counts.items() if c >= 4}
            if not qualified:
                assert got is None
            else:
                areas = {m.mask_id: int(m.bitmap.sum()) for m in masks}
                assert got == max(qualified, key=lambda mid: (qualified[mid], areas[mid], -mid))


def test_10_closed_loop_simulation():
    with criterion(10, 60.0):
        voice = band_contrast_model()
        reports, gts = [], []
        for seed in range(50):
            spec = random_scenario(seed=seed)
            log, gt = generate_session(spec)
            reports.append(run_session(log, voice_model=voice))
            gts.append(gt)
        metrics = evaluate_reports(reports, gts)
        assert metrics.overall_precision == 1.0
        assert metrics.overall_recall == 1.0
        for kind, value in metrics.precision.items():
            assert value == 1.0, kind
        for kind, value in metrics.recall.items():
            assert value == 1.0, kind
        for report, gt in zip(reports, gts):
            assert report.final_label is gt.final_label

        # episode-free scenarios come back Clean through the same loop
        for seed in (0, 1, 2):
            log, gt = generate_session(ScenarioSpec(duration_ms=15000, episodes=(), seed=seed))
            report = run_session(log, voice_model=voice)
            assert gt.final_label is SessionLabel.CLEAN
            assert report.final_label is SessionLabel.CLEAN
            assert report.flags == ()
