"""Object-detection gating and the IoU evaluation harness.

Per-frame detector outputs (class label, confidence score, box) are
turned into device verdicts and person counts. A small harness scores
detector output against ground truth with one IoU threshold per class,
reporting per-class accuracy as the fraction of ground-truth objects
matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import EngineError, as_list, as_number, as_object, as_str, decode_json

PERSON = "person"
PHONE = "phone"
LAPTOP = "laptop"
DEVICE_CLASSES = frozenset({PHONE, LAPTOP})

DEFAULT_PERSON_SCORE_MIN = 0.5
DEFAULT_IOU_THRESHOLDS = {PERSON: 0.7, LAPTOP: 0.5, PHONE: 0.3}


class InvalidScore(EngineError):
    """A detection score lies outside [0, 1]."""


class MissingThreshold(EngineError):
    """No IoU threshold was supplied for a class present in the ground truth."""


def check_box(x: float, y: float, w: float, h: float) -> None:
    """Raise ValueError unless the box values are finite and its extent non-negative."""
    if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)):
        raise ValueError(f"box values must be finite, got x={x}, y={y}, w={w}, h={h}")
    if w < 0 or h < 0:
        raise ValueError(f"box extent must be non-negative, got w={w}, h={h}")


def check_score(score: float) -> None:
    """Raise InvalidScore unless the detection score lies in [0, 1]."""
    if not (0.0 <= score <= 1.0):
        raise InvalidScore(f"detection score must be in [0, 1], got {score}")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: top-left corner plus extent, pixel units."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        check_box(self.x, self.y, self.w, self.h)

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class Detection:
    """One detector output. Labels other than person/phone/laptop are carried
    verbatim and ignored by the gating rules."""

    label: str
    score: float
    box: BoundingBox

    def __post_init__(self) -> None:
        check_score(self.score)


@dataclass(frozen=True)
class DeviceThresholds:
    """Low/high confidence cutoffs for the device suspicion bands."""

    low: float = 0.35
    high: float = 0.70

    def __post_init__(self) -> None:
        if not (0.0 <= self.low <= self.high <= 1.0):
            raise ValueError(
                f"need 0 <= low <= high <= 1, got low={self.low}, high={self.high}"
            )


class DeviceVerdict(IntEnum):
    """Suspicion band for a device score; ordering supports aggregation by max."""

    NO_FLAG = 0
    GENERAL_SUSPICIOUS = 1
    PHONE_DETECTION = 2


def gate_device_score(
    device_class: str, score: float, th: DeviceThresholds = DeviceThresholds()
) -> DeviceVerdict:
    """Map a phone/laptop confidence score to its suspicion band.

    Below low: no flag. Between low and high inclusive: General
    Suspicious. Above high: Phone Detection. Laptops gate through the
    same rule as phones.
    """
    if device_class not in DEVICE_CLASSES:
        raise ValueError(f"device class must be one of {sorted(DEVICE_CLASSES)}, got {device_class!r}")
    if not (0.0 <= score <= 1.0):
        raise InvalidScore(f"device score must be in [0, 1], got {score}")
    if score < th.low:
        return DeviceVerdict.NO_FLAG
    if score <= th.high:
        return DeviceVerdict.GENERAL_SUSPICIOUS
    return DeviceVerdict.PHONE_DETECTION


def person_count(
    detections: Sequence[Detection], min_person_score: float = DEFAULT_PERSON_SCORE_MIN
) -> int:
    """Number of person detections at or above the score floor."""
    return sum(1 for d in detections if d.label == PERSON and d.score >= min_person_score)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when the union has no area."""
    ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    # rounding can push the ratio a few ulps above 1 for near-identical boxes
    return min(1.0, inter / union)


@dataclass(frozen=True)
class AccuracyTable:
    """Per-class accuracy (matched ground truth / total ground truth) at the
    per-class IoU threshold used."""

    accuracy: dict[str, float]
    thresholds: dict[str, float]
    matched: dict[str, int]
    total: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "accuracy": dict(sorted(self.accuracy.items())),
            "iou_thresholds": dict(sorted(self.thresholds.items())),
            "matched": dict(sorted(self.matched.items())),
            "total": dict(sorted(self.total.items())),
        }


GtItem = tuple[str, BoundingBox]
PredItem = tuple[str, BoundingBox, float]


def check_classes(gt: Sequence[GtItem], iou_thresholds: Mapping[str, float], where: str) -> None:
    """Raise MissingThreshold, prefixed by `where`, for a gt class with no IoU threshold."""
    for cls, _ in gt:
        if cls not in iou_thresholds:
            raise MissingThreshold(f"{where}no IoU threshold for class {cls!r}")


def match_frame(
    gt: Sequence[GtItem],
    pred: Sequence[PredItem],
    iou_thresholds: Mapping[str, float],
) -> list[tuple[int, int]]:
    """Greedy one-to-one matching of predictions to ground truth.

    Predictions are visited in descending score order (ties keep input
    order); each takes the unused same-class ground-truth box with the
    highest IoU at or above that class's threshold. Returns
    (pred_index, gt_index) pairs.
    """
    check_classes(gt, iou_thresholds, "")
    order = sorted(range(len(pred)), key=lambda i: -pred[i][2])
    used_gt: set[int] = set()
    matches: list[tuple[int, int]] = []
    for pi in order:
        p_cls, p_box, _ = pred[pi]
        if p_cls not in iou_thresholds:
            continue
        threshold = iou_thresholds[p_cls]
        best_gi = -1
        best_iou = -1.0
        for gi, (g_cls, g_box) in enumerate(gt):
            if gi in used_gt or g_cls != p_cls:
                continue
            overlap = iou(p_box, g_box)
            if overlap >= threshold and overlap > best_iou:
                best_iou = overlap
                best_gi = gi
        if best_gi >= 0:
            used_gt.add(best_gi)
            matches.append((pi, best_gi))
    return matches


def evaluate_detections(
    gt: Sequence[GtItem],
    pred: Sequence[PredItem],
    iou_thresholds: Mapping[str, float] | None = None,
) -> AccuracyTable:
    """Score one collection of predictions against its ground truth."""
    return evaluate_dataset([(gt, pred)], iou_thresholds)


def evaluate_dataset(
    frames: Iterable[tuple[Sequence[GtItem], Sequence[PredItem]]],
    iou_thresholds: Mapping[str, float] | None = None,
) -> AccuracyTable:
    """Aggregate per-frame greedy matching into a per-class accuracy table.

    Matching never crosses frame boundaries. Classes are taken from the
    ground truth; prediction-only classes do not contribute rows.
    """
    if iou_thresholds is None:
        iou_thresholds = DEFAULT_IOU_THRESHOLDS
    matched: dict[str, int] = {}
    total: dict[str, int] = {}
    for gt, pred in frames:
        for cls, _ in gt:
            total[cls] = total.get(cls, 0) + 1
        for _, gi in match_frame(gt, pred, iou_thresholds):
            cls = gt[gi][0]
            matched[cls] = matched.get(cls, 0) + 1
    accuracy = {
        cls: (matched.get(cls, 0) / n if n else 0.0) for cls, n in total.items()
    }
    thresholds = {cls: float(iou_thresholds[cls]) for cls in total}
    return AccuracyTable(
        accuracy=accuracy,
        thresholds=thresholds,
        matched={cls: matched.get(cls, 0) for cls in total},
        total=total,
    )


def read_detection_dataset(
    path: str | Path, iou_thresholds: Mapping[str, float]
) -> Iterator[tuple[str, list[GtItem], list[PredItem]]]:
    """Read a line-delimited evaluation dataset.

    Each line is a JSON record {"frame_id", "gt": [{"class", "box"}],
    "pred": [{"class", "box", "score"}]} with boxes as {"x","y","w","h"}.
    The record, its items and their boxes must be JSON objects, `gt` and
    `pred` lists. Box values and scores must be JSON numbers, checked as a
    session log's are: by `BoundingBox` and `check_score`. A ground-truth
    class with no entry in `iou_thresholds` raises MissingThreshold naming
    its line.
    Yields (frame_id, gt, pred) tuples.
    """

    def items(rec: Mapping, field: str) -> list[dict]:
        return [as_object(item, f"{field} item") for item in as_list(rec.get(field, []), field)]

    def box(value: object) -> BoundingBox:
        rec = as_object(value, "box")
        return BoundingBox(*(as_number(rec[k], f"box.{k}") for k in "xywh"))

    def score(value: object) -> float:
        value = as_number(value, "score")
        check_score(value)
        return value

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = as_object(decode_json(line), "record")
                frame_id = as_str(rec["frame_id"], "frame_id")
                gt = [(as_str(item["class"], "class"), box(item["box"])) for item in items(rec, "gt")]
                pred = [
                    (as_str(item["class"], "class"), box(item["box"]), score(item["score"]))
                    for item in items(rec, "pred")
                ]
            except (EngineError, KeyError, TypeError, ValueError, RecursionError) as exc:
                raise EngineError(f"{path}:{lineno}: bad dataset record: {exc}") from exc
            check_classes(gt, iou_thresholds, f"{path}:{lineno}: ")
            yield frame_id, gt, pred
