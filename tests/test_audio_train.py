from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fuzzed_json_lines, mutated_bytes
from invigil.audio.dsp import Spectrogram
from invigil.audio.model import default_voice_model
from invigil.audio.train import (
    CVReport,
    DivergedLoss,
    EarlyStopper,
    EmptyDataset,
    TooFewSamples,
    TrainingConfig,
    TrainingHistory,
    cross_validate,
    evaluate_loss,
    fold_plan,
    load_corpus,
    train_voice_model,
)
from invigil.errors import EngineError
from invigil.events import pcm_bytes
from invigil.simulator import synth_audio

SHAPE = (12, 17)  # smallest grid the conv stack accepts, frame_len 32


def _toy_spec(rng, voiced: bool) -> Spectrogram:
    mags = rng.uniform(0.0, 0.3, SHAPE)
    if voiced:
        mags[:, :6] += 4.0
    else:
        mags[:, 10:] += 4.0
    return Spectrogram(magnitudes=mags, frame_len=32, hop=16)


def _toy_corpus(rng, n):
    return [
        (_toy_spec(rng, i % 2 == 0), "voice" if i % 2 == 0 else "non-voice")
        for i in range(n)
    ]


def _arrays(items):
    x = np.stack([s.model_input() for s, _ in items])[..., None].astype(np.float32)
    y = np.array([1 if label == "voice" else 0 for _, label in items])
    return x, y


# ---------------------------------------------------------------------------
# Early stopping


def test_stopper_tracks_best_epoch():
    s = EarlyStopper(patience=2)
    assert s.update(1, 1.0)
    assert s.update(2, 0.5)
    assert not s.update(3, 0.7)
    assert s.best_epoch == 2 and s.best_loss == 0.5
    assert not s.should_stop
    assert not s.update(4, 0.6)
    assert s.should_stop


def test_stopper_requires_strict_improvement():
    s = EarlyStopper(patience=1)
    assert s.update(1, 1.0)
    assert not s.update(2, 1.0)
    assert s.should_stop


def test_stopper_staleness_resets_on_improvement():
    s = EarlyStopper(patience=3)
    s.update(1, 1.0)
    s.update(2, 1.1)
    s.update(3, 1.2)
    assert s.update(4, 0.9)
    assert s.stale_epochs == 0
    assert not s.should_stop


# ---------------------------------------------------------------------------
# Fold planning


def test_fold_plan_partitions_each_run():
    splits = fold_plan(n=23, k=5, repeats=2, seed=9, val_fraction=0.1)
    assert len(splits) == 10
    for s in splits:
        train, val, test = set(s.train_idx), set(s.val_idx), set(s.test_idx)
        assert not (train & val) and not (train & test) and not (val & test)
        assert train | val | test == set(range(23))
        assert len(val) >= 1 and len(train) >= 1


def test_fold_plan_each_index_tested_once_per_repeat():
    splits = fold_plan(n=20, k=4, repeats=3, seed=1, val_fraction=0.2)
    for repeat in range(3):
        tested = [i for s in splits if s.repeat == repeat for i in s.test_idx]
        assert sorted(tested) == list(range(20))


def test_fold_plan_deterministic_and_seed_sensitive():
    a = fold_plan(12, 3, 2, seed=5, val_fraction=0.15)
    b = fold_plan(12, 3, 2, seed=5, val_fraction=0.15)
    c = fold_plan(12, 3, 2, seed=6, val_fraction=0.15)
    assert a == b
    assert a != c


def test_fold_plan_repeats_differ():
    splits = fold_plan(30, 5, 2, seed=0, val_fraction=0.1)
    first = [s.test_idx for s in splits if s.repeat == 0]
    second = [s.test_idx for s in splits if s.repeat == 1]
    assert first != second


def test_fold_plan_validates_arguments():
    with pytest.raises(ValueError):
        fold_plan(10, 1, 1, 0, 0.1)
    with pytest.raises(ValueError):
        fold_plan(10, 2, 0, 0, 0.1)
    with pytest.raises(TooFewSamples):
        fold_plan(3, 5, 1, 0, 0.1)


# ---------------------------------------------------------------------------
# Training loop


HP = TrainingConfig(learning_rate=0.05, batch_size=8, max_epochs=15, patience=3)


def test_training_converges_on_separable_corpus():
    rng = np.random.default_rng(0x7A)
    train = _toy_corpus(rng, 24)
    val = _toy_corpus(rng, 8)
    model, history = train_voice_model(train, val, hp=HP, seed=1)
    assert history.best.val_accuracy == 1.0
    assert history.epochs[0].epoch == 1
    x, y = _arrays(_toy_corpus(rng, 10))
    _, acc = evaluate_loss(model, x, y)
    assert acc == 1.0


def test_training_is_deterministic():
    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    m1, h1 = train_voice_model(_toy_corpus(rng1, 16), _toy_corpus(rng1, 6), hp=HP, seed=7)
    m2, h2 = train_voice_model(_toy_corpus(rng2, 16), _toy_corpus(rng2, 6), hp=HP, seed=7)
    assert h1 == h2
    for a, b in zip(m1.get_weights(), m2.get_weights()):
        assert np.array_equal(a, b)


def test_best_epoch_weights_are_restored():
    rng = np.random.default_rng(0x7B)
    train = _toy_corpus(rng, 24)
    val = _toy_corpus(rng, 8)
    model, history = train_voice_model(train, val, hp=HP, seed=2)
    losses = [e.val_loss for e in history.epochs]
    assert history.best.val_loss == min(losses)
    assert history.best_epoch == losses.index(min(losses)) + 1
    x_val, y_val = _arrays(val)
    loss, _ = evaluate_loss(model, x_val, y_val)
    assert loss == pytest.approx(history.best.val_loss, rel=1e-9)


def test_early_stop_bounds_epoch_count():
    rng = np.random.default_rng(0x7C)
    hp = TrainingConfig(learning_rate=0.05, batch_size=8, max_epochs=50, patience=2)
    _, history = train_voice_model(_toy_corpus(rng, 24), _toy_corpus(rng, 8), hp=hp, seed=3)
    if history.stopped_early:
        assert len(history.epochs) == history.best_epoch + hp.patience
    assert len(history.epochs) <= 50


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_learning_rate_diverges():
    rng = np.random.default_rng(0x7D)
    hp = TrainingConfig(learning_rate=1e9, batch_size=8, max_epochs=10, patience=5)
    with pytest.raises(DivergedLoss):
        train_voice_model(_toy_corpus(rng, 16), _toy_corpus(rng, 6), hp=hp, seed=0)


def test_empty_sets_rejected():
    rng = np.random.default_rng(1)
    items = _toy_corpus(rng, 4)
    with pytest.raises(EmptyDataset):
        train_voice_model([], items, hp=HP)
    with pytest.raises(EmptyDataset):
        train_voice_model(items, [], hp=HP)


def test_unknown_label_rejected():
    rng = np.random.default_rng(2)
    bad = [(_toy_spec(rng, True), "speech")]
    with pytest.raises(EngineError, match="label"):
        train_voice_model(bad, bad, hp=HP)


def test_mixed_shapes_rejected():
    rng = np.random.default_rng(4)
    other = Spectrogram(magnitudes=rng.uniform(0, 1, (20, 17)), frame_len=32, hop=16)
    items = [(_toy_spec(rng, True), "voice"), (other, "non-voice")]
    with pytest.raises(EngineError, match="shape"):
        train_voice_model(items, items[:1], hp=HP)


def test_explicit_model_must_fit_data():
    rng = np.random.default_rng(5)
    model = default_voice_model(input_shape=(16, 17), seed=0)
    items = _toy_corpus(rng, 8)
    with pytest.raises(EngineError):
        train_voice_model(items, items[:2], hp=HP, model=model)


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainingConfig(patience=0)
    with pytest.raises(ValueError):
        TrainingConfig(val_fraction=1.0)


def test_history_best_is_one_based():
    from invigil.audio.train import EpochStats

    stats = (
        EpochStats(epoch=1, train_loss=1.0, val_loss=0.9, val_accuracy=0.5),
        EpochStats(epoch=2, train_loss=0.5, val_loss=0.4, val_accuracy=0.9),
    )
    hist = TrainingHistory(epochs=stats, best_epoch=2, stopped_early=False)
    assert hist.best is stats[1]


# ---------------------------------------------------------------------------
# Cross-validation


def test_cross_validate_shape_and_bounds():
    rng = np.random.default_rng(0x7E)
    data = _toy_corpus(rng, 16)
    hp = TrainingConfig(learning_rate=0.05, batch_size=8, max_epochs=4, patience=2, val_fraction=0.2)
    report = cross_validate(data, k=2, repeats=2, seed=11, hp=hp)
    assert isinstance(report, CVReport)
    assert len(report.accuracies) == 4
    assert report.k == 2 and report.repeats == 2
    assert report.min <= report.mean <= report.max
    assert all(0.0 <= a <= 1.0 for a in report.accuracies)
    d = report.to_dict()
    assert d["runs"] == 4 and d["accuracies"] == list(report.accuracies)


def test_cross_validate_deterministic():
    rng1 = np.random.default_rng(6)
    rng2 = np.random.default_rng(6)
    hp = TrainingConfig(learning_rate=0.05, batch_size=8, max_epochs=3, patience=2, val_fraction=0.2)
    r1 = cross_validate(_toy_corpus(rng1, 12), k=2, repeats=1, seed=4, hp=hp)
    r2 = cross_validate(_toy_corpus(rng2, 12), k=2, repeats=1, seed=4, hp=hp)
    assert r1 == r2


# ---------------------------------------------------------------------------
# Corpus loading


def _write_pcm(path, samples):
    scaled = np.round(np.asarray(samples) * 32768.0).clip(-32768, 32767)
    path.write_bytes(scaled.astype("<i2").tobytes())


def test_load_corpus_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    voiced = rng.uniform(-0.5, 0.5, 16000)
    silent = np.zeros(16000)
    _write_pcm(tmp_path / "a.pcm", voiced)
    _write_pcm(tmp_path / "b.pcm", silent)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"path": "a.pcm", "label": "voice"})
        + "\n"
        + json.dumps({"path": "b.pcm", "label": "non-voice"})
        + "\n"
    )
    items = load_corpus(tmp_path, manifest)
    assert len(items) == 2
    assert items[0][1] == "voice" and items[1][1] == "non-voice"
    assert np.max(np.abs(items[0][0].samples - voiced)) <= 0.5 / 32768.0
    assert np.array_equal(items[1][0].samples, silent)


def test_load_corpus_rejects_bad_label(tmp_path):
    _write_pcm(tmp_path / "a.pcm", np.zeros(16000))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"path": "a.pcm", "label": "music"}) + "\n")
    with pytest.raises(EngineError, match="1"):
        load_corpus(tmp_path, manifest)


def test_load_corpus_reports_line_of_bad_record(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"path": "a.pcm", "label": "voice"}\n{"label": "voice"}\n')
    _write_pcm(tmp_path / "a.pcm", np.zeros(16000))
    with pytest.raises(EngineError, match="2"):
        load_corpus(tmp_path, manifest)


def test_load_corpus_rejects_short_file(tmp_path):
    _write_pcm(tmp_path / "short.pcm", np.zeros(100))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"path": "short.pcm", "label": "voice"}) + "\n")
    with pytest.raises(EngineError, match="short.pcm"):
        load_corpus(tmp_path, manifest)


@pytest.mark.parametrize(
    "raw, message",
    [
        (bytes(32_001), "b.pcm: holds 32001 bytes, not whole 16-bit samples"),
        (None, "No such file or directory"),
    ],
)
def test_load_corpus_names_line_of_unusable_pcm(tmp_path, raw, message):
    _write_pcm(tmp_path / "a.pcm", np.zeros(16000))
    if raw is not None:
        (tmp_path / "b.pcm").write_bytes(raw)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"path": "a.pcm", "label": "voice"}\n\n{"path": "b.pcm", "label": "voice"}\n')
    with pytest.raises(EngineError) as err:
        load_corpus(tmp_path, manifest)
    assert str(err.value).startswith(f"{manifest}:3: b.pcm: ")
    assert message in str(err.value)


@pytest.fixture(scope="module")
def corpus_fixture(tmp_path_factory):
    """A directory of two PCM windows, and the manifest records that list them."""
    root = tmp_path_factory.mktemp("corpusfuzz")
    records = []
    for i, (kind, label) in enumerate([("voiced", "voice"), ("unvoiced", "non-voice")]):
        (root / f"w{i}.pcm").write_bytes(pcm_bytes(synth_audio(kind, seed=i).samples))
        records.append({"path": f"w{i}.pcm", "label": label, "sample_rate": 16000})
    return root, records


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_load_corpus_fuzzed_gives_items_or_an_engine_error(corpus_fixture, data):
    # a bare ValueError or OSError is an escape, though the CLI would still catch it
    root, records = corpus_fixture
    manifest, pcm_path = root / "manifest.jsonl", root / "w0.pcm"
    pcm = pcm_path.read_bytes()
    try:
        if data.draw(st.booleans()):
            manifest.write_bytes(data.draw(fuzzed_json_lines(records)))
        else:
            manifest.write_bytes(b"".join(json.dumps(rec).encode() + b"\n" for rec in records))
            pcm_path.write_bytes(data.draw(mutated_bytes(pcm)))
        load_corpus(root, manifest)
    except EngineError:
        pass
    finally:
        pcm_path.write_bytes(pcm)


def test_load_corpus_empty_manifest(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("\n\n")
    with pytest.raises(EmptyDataset):
        load_corpus(tmp_path, manifest)
