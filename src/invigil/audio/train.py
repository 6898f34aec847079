"""Training loop with early stopping, and repeated k-fold cross-validation.

Everything is deterministic given the top-level seed. Per-run seeds are
derived from (seed, repeat, fold), never from execution order, so runs
can be scheduled in any order with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import EngineError, as_int, as_str, check_fields, json_fields, json_lines
from ..events import pcm_samples
from .dsp import PcmWindow, Spectrogram, WindowWorkspace, stft_spectrogram
from .model import ShapeMismatch, VoiceModel, default_voice_model, softmax

LABEL_VOICE = "voice"
LABEL_NON_VOICE = "non-voice"
_LABEL_INDEX = {LABEL_NON_VOICE: 0, LABEL_VOICE: 1}


class EmptyDataset(EngineError):
    """Training or validation set is empty."""


class DivergedLoss(EngineError):
    """Loss became non-finite during training."""


class TooFewSamples(EngineError):
    """Not enough samples to build the requested folds."""


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for mini-batch gradient descent."""

    learning_rate: float = 0.01
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 5
    val_fraction: float = 0.1

    def __post_init__(self) -> None:
        check_fields(self, ValueError)
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("learning_rate, batch_size and max_epochs must be positive")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if not (0.0 < self.val_fraction < 1.0):
            raise ValueError("val_fraction must lie in (0, 1)")

    to_dict = json_fields


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float


@dataclass(frozen=True)
class TrainingHistory:
    """Epoch-by-epoch record; epoch numbers are 1-based."""

    epochs: tuple[EpochStats, ...]
    best_epoch: int
    stopped_early: bool

    @property
    def best(self) -> EpochStats:
        return self.epochs[self.best_epoch - 1]


class EarlyStopper:
    """Stops when validation loss has not improved for `patience` epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_loss = np.inf
        self.best_epoch = 0
        self.stale_epochs = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record one epoch's validation loss; True when it improved."""
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.stale_epochs = 0
            return True
        self.stale_epochs += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.stale_epochs >= self.patience


LabeledItem = tuple[PcmWindow | Spectrogram, str]


def _to_arrays(
    items: Sequence[LabeledItem], what: str
) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    if not items:
        raise EmptyDataset(f"{what} set is empty")
    ws = WindowWorkspace()
    x = None
    labels = []
    for k, (obj, label) in enumerate(items):
        if label not in _LABEL_INDEX:
            raise EngineError(f"label must be '{LABEL_VOICE}' or '{LABEL_NON_VOICE}', got {label!r}")
        spec = obj if isinstance(obj, Spectrogram) else stft_spectrogram(obj, workspace=ws)
        if x is None:
            x = np.empty((len(items), *spec.shape, 1), dtype=np.float32)
        elif spec.shape != x.shape[1:3]:
            raise EngineError(f"mixed spectrogram shapes in {what} set: {x.shape[1:3]} vs {spec.shape}")
        spec.model_input(out=x[k, :, :, 0])
        labels.append(_LABEL_INDEX[label])
    y = np.asarray(labels, dtype=np.int64)
    return x, y, x.shape[1:3]


def _loss_and_grad(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    p = softmax(logits.astype(np.float64))
    n = y.shape[0]
    loss = float(-np.mean(np.log(np.maximum(p[np.arange(n), y], 1e-300))))
    dlogits = p.copy()
    dlogits[np.arange(n), y] -= 1.0
    return loss, (dlogits / n).astype(logits.dtype)


def _batched_logits(model: VoiceModel, x: np.ndarray) -> np.ndarray:
    chunk = 64  # windows per forward pass, which bounds the activations held at once
    parts = [model.forward(x[i : i + chunk]) for i in range(0, x.shape[0], chunk)]
    return np.concatenate(parts, axis=0)


def evaluate_loss(model: VoiceModel, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) without touching any training state."""
    logits = _batched_logits(model, x)
    loss, _ = _loss_and_grad(logits, y)
    accuracy = float(np.mean(logits.argmax(axis=1) == y))
    return loss, accuracy


def train_voice_model(
    train: Sequence[LabeledItem],
    val: Sequence[LabeledItem],
    hp: TrainingConfig | None = None,
    seed: int = 0,
    model: VoiceModel | None = None,
) -> tuple[VoiceModel, TrainingHistory]:
    """Fit the classifier by mini-batch gradient descent with early stopping.

    Validation loss is evaluated after every epoch; training halts when
    it has not improved for hp.patience epochs (or at hp.max_epochs) and
    the weights from the best-validation epoch are restored.
    """
    hp = hp or TrainingConfig()
    x_train, y_train, shape = _to_arrays(train, "training")
    x_val, y_val, val_shape = _to_arrays(val, "validation")
    if val_shape != shape:
        raise EngineError(f"validation shape {val_shape} differs from training shape {shape}")
    if model is None:
        model = default_voice_model(input_shape=shape, seed=seed)
    elif model.input_shape != shape:
        raise ShapeMismatch(
            f"model expects input {model.input_shape}, data has shape {shape}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed & 0xFFFFFFFF]))

    stopper = EarlyStopper(hp.patience)
    best_weights = model.get_weights()
    stats: list[EpochStats] = []
    stopped_early = False
    n = x_train.shape[0]
    for epoch in range(1, hp.max_epochs + 1):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, hp.batch_size):
            idx = perm[start : start + hp.batch_size]
            caches: list[dict] = []
            logits = model.forward(x_train[idx], caches)
            loss, dlogits = _loss_and_grad(logits, y_train[idx])
            if not np.isfinite(loss):
                raise DivergedLoss(f"non-finite training loss at epoch {epoch}")
            losses.append(loss)
            grads = model.backward(dlogits, caches)
            for layer, g in zip(model.layers, grads):
                for name, darr in g.items():
                    layer.params[name] -= hp.learning_rate * darr.astype(layer.params[name].dtype)
        val_loss, val_acc = evaluate_loss(model, x_val, y_val)
        if not np.isfinite(val_loss):
            raise DivergedLoss(f"non-finite validation loss at epoch {epoch}")
        stats.append(
            EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                val_loss=val_loss,
                val_accuracy=val_acc,
            )
        )
        if stopper.update(epoch, val_loss):
            best_weights = model.get_weights()
        if stopper.should_stop:
            stopped_early = True
            break
    model.set_weights(best_weights)
    history = TrainingHistory(
        epochs=tuple(stats), best_epoch=stopper.best_epoch, stopped_early=stopped_early
    )
    return model, history


# ---------------------------------------------------------------------------
# Repeated k-fold cross-validation


@dataclass(frozen=True)
class RunSplit:
    """Index partition for one cross-validation run; test indices are fully
    separated from train and validation."""

    repeat: int
    fold: int
    train_idx: tuple[int, ...]
    val_idx: tuple[int, ...]
    test_idx: tuple[int, ...]


@dataclass(frozen=True)
class CVReport:
    accuracies: tuple[float, ...]
    min: float
    max: float
    mean: float
    k: int
    repeats: int

    def to_dict(self) -> dict:
        return json_fields(self) | {"runs": len(self.accuracies)}


def fold_plan(
    n: int, k: int, repeats: int, seed: int, val_fraction: float
) -> list[RunSplit]:
    """Deterministic index splits for every (repeat, fold) run.

    Each repeat shuffles with its own derived seed and cuts k near-equal
    folds; each fold serves as the test set exactly once. Validation is
    carved from the front of the remaining (already shuffled) indices.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if n < k:
        raise TooFewSamples(f"need at least {k} samples for {k} folds, got {n}")
    splits: list[RunSplit] = []
    for repeat in range(repeats):
        order = np.random.default_rng(np.random.SeedSequence([seed, repeat])).permutation(n)
        folds = np.array_split(order, k)
        for fold in range(k):
            test_idx = folds[fold]
            rest = np.concatenate([folds[i] for i in range(k) if i != fold])
            val_n = max(1, int(round(val_fraction * rest.shape[0])))
            if val_n >= rest.shape[0]:
                raise TooFewSamples(f"fold {fold} leaves no training data after validation split")
            splits.append(
                RunSplit(
                    repeat=repeat,
                    fold=fold,
                    train_idx=tuple(int(i) for i in rest[val_n:]),
                    val_idx=tuple(int(i) for i in rest[:val_n]),
                    test_idx=tuple(int(i) for i in test_idx),
                )
            )
    return splits


def cross_validate(
    data: Sequence[LabeledItem],
    k: int = 5,
    repeats: int = 3,
    seed: int = 0,
    hp: TrainingConfig | None = None,
) -> CVReport:
    """k-fold cross-validation repeated `repeats` times; reports min, max and
    mean test accuracy over all k * repeats runs."""
    hp = hp or TrainingConfig()
    splits = fold_plan(len(data), k, repeats, seed, hp.val_fraction)
    accuracies: list[float] = []
    for split in splits:
        run_seed = int(
            np.random.SeedSequence([seed, split.repeat, split.fold]).generate_state(1)[0]
        )
        model, _ = train_voice_model(
            [data[i] for i in split.train_idx],
            [data[i] for i in split.val_idx],
            hp=hp,
            seed=run_seed,
        )
        x_test, y_test, _ = _to_arrays([data[i] for i in split.test_idx], "test")
        _, accuracy = evaluate_loss(model, x_test, y_test)
        accuracies.append(accuracy)
    return CVReport(
        accuracies=tuple(accuracies),
        min=min(accuracies),
        max=max(accuracies),
        mean=float(np.mean(accuracies)),
        k=k,
        repeats=repeats,
    )


# ---------------------------------------------------------------------------
# Corpus loading: raw 16-bit little-endian PCM files plus a JSONL manifest
# of {"path": ..., "label": ...} records.


def load_corpus(corpus_dir: str | Path, manifest_path: str | Path) -> list[tuple[PcmWindow, str]]:
    corpus_dir = Path(corpus_dir)
    items: list[tuple[PcmWindow, str]] = []
    # read as bytes, so a line that is not UTF-8 is a bad record of its own line
    with open(manifest_path, "rb") as fh:
        for lineno, rec in json_lines(fh, f"{manifest_path}:", EngineError):
            try:
                rel = as_str(rec["path"], "path")
                label = as_str(rec["label"], "label")
                rate = as_int(rec.get("sample_rate", 16_000), "sample_rate")
            except (KeyError, ValueError) as exc:
                raise EngineError(f"{manifest_path}:{lineno}: bad manifest record: {exc}") from exc
            if label not in _LABEL_INDEX:
                raise EngineError(
                    f"{manifest_path}:{lineno}: label must be '{LABEL_VOICE}' or "
                    f"'{LABEL_NON_VOICE}', got {label!r}"
                )
            try:
                samples = pcm_samples((corpus_dir / rel).read_bytes())
                window = PcmWindow(samples=samples, sample_rate=rate)
            except (OSError, ValueError) as exc:
                raise EngineError(f"{manifest_path}:{lineno}: {rel}: {exc}") from exc
            items.append((window, label))
    if not items:
        raise EmptyDataset(f"manifest {manifest_path} lists no usable items")
    return items
