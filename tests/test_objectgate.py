from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import fuzzed_json_lines
from invigil.errors import EngineError
from invigil.objectgate import (
    DEFAULT_IOU_THRESHOLDS,
    BoundingBox,
    Detection,
    DeviceThresholds,
    DeviceVerdict,
    InvalidScore,
    MissingThreshold,
    evaluate_dataset,
    evaluate_detections,
    gate_device_score,
    iou,
    match_frame,
    person_count,
    read_detection_dataset,
)

box_floats = st.floats(-50, 50, allow_nan=False)
size_floats = st.floats(0.1, 40, allow_nan=False)


def boxes(draw):
    return BoundingBox(draw(box_floats), draw(box_floats), draw(size_floats), draw(size_floats))


box_strategy = st.builds(BoundingBox, box_floats, box_floats, size_floats, size_floats)


# ---------------------------------------------------------------------------
# IoU


def test_iou_identical_boxes_is_one():
    b = BoundingBox(3.0, 4.0, 10.0, 5.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint_boxes_is_zero():
    a = BoundingBox(0.0, 0.0, 2.0, 2.0)
    b = BoundingBox(10.0, 10.0, 2.0, 2.0)
    assert iou(a, b) == 0.0


def test_iou_exact_one_third():
    # 1x2 boxes offset by 1 in y: intersection 1, union 3
    a = BoundingBox(0.0, 0.0, 1.0, 2.0)
    b = BoundingBox(0.0, 1.0, 1.0, 2.0)
    assert iou(a, b) == 1.0 / 3.0


def test_iou_touching_edges_is_zero():
    a = BoundingBox(0.0, 0.0, 2.0, 2.0)
    b = BoundingBox(2.0, 0.0, 2.0, 2.0)
    assert iou(a, b) == 0.0


@settings(max_examples=200, deadline=None)
@given(box_strategy, box_strategy)
def test_iou_matches_interval_oracle(a, b):
    expected = oracles.iou_boxes((a.x, a.y, a.w, a.h), (b.x, b.y, b.w, b.h))
    assert iou(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 6), st.integers(1, 6)),
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 6), st.integers(1, 6)),
)
def test_iou_matches_pixel_enumeration(ta, tb):
    a = BoundingBox(*map(float, ta))
    b = BoundingBox(*map(float, tb))
    assert iou(a, b) == pytest.approx(oracles.iou_pixels(ta, tb), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(box_strategy, box_strategy)
def test_iou_symmetric_and_bounded(a, b):
    assert iou(a, b) == iou(b, a)
    assert 0.0 <= iou(a, b) <= 1.0


def test_box_rejects_negative_size():
    with pytest.raises(ValueError):
        BoundingBox(0.0, 0.0, -1.0, 2.0)


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_box_rejects_non_finite_values(field, value):
    values = [0.0, 0.0, 1.0, 1.0]
    values[field] = value
    with pytest.raises(ValueError, match="box values must be finite"):
        BoundingBox(*values)


# ---------------------------------------------------------------------------
# Device score gating


THRESH = DeviceThresholds()


@pytest.mark.parametrize(
    "score,expected",
    [
        (0.0, DeviceVerdict.NO_FLAG),
        (0.3499, DeviceVerdict.NO_FLAG),
        (0.35, DeviceVerdict.GENERAL_SUSPICIOUS),
        (0.5, DeviceVerdict.GENERAL_SUSPICIOUS),
        (0.70, DeviceVerdict.GENERAL_SUSPICIOUS),
        (0.7001, DeviceVerdict.PHONE_DETECTION),
        (1.0, DeviceVerdict.PHONE_DETECTION),
    ],
)
def test_gate_band_boundaries(score, expected):
    assert gate_device_score("phone", score, THRESH) == expected
    assert gate_device_score("laptop", score, THRESH) == expected


def test_gate_rejects_non_device_class():
    with pytest.raises(ValueError):
        gate_device_score("person", 0.9)


def test_gate_rejects_out_of_range_score():
    with pytest.raises(InvalidScore):
        gate_device_score("phone", 1.5)
    with pytest.raises(InvalidScore):
        gate_device_score("phone", -0.1)


def test_custom_thresholds():
    th = DeviceThresholds(low=0.1, high=0.2)
    assert gate_device_score("phone", 0.15, th) == DeviceVerdict.GENERAL_SUSPICIOUS
    assert gate_device_score("phone", 0.25, th) == DeviceVerdict.PHONE_DETECTION
    with pytest.raises(ValueError):
        DeviceThresholds(low=0.8, high=0.2)


def test_verdict_ordering_supports_max():
    assert max(DeviceVerdict.NO_FLAG, DeviceVerdict.PHONE_DETECTION) == DeviceVerdict.PHONE_DETECTION
    assert DeviceVerdict.GENERAL_SUSPICIOUS < DeviceVerdict.PHONE_DETECTION


# ---------------------------------------------------------------------------
# Person counting


def _det(label, score, x=0.0):
    return Detection(label=label, score=score, box=BoundingBox(x, 0.0, 10.0, 10.0))


def test_person_count_applies_score_floor():
    dets = [_det("person", 0.9), _det("person", 0.4, x=20.0), _det("phone", 0.99, x=40.0)]
    assert person_count(dets, min_person_score=0.5) == 1
    assert person_count(dets, min_person_score=0.3) == 2


def test_person_count_floor_is_inclusive():
    assert person_count([_det("person", 0.5)], min_person_score=0.5) == 1


def test_detection_rejects_bad_score():
    with pytest.raises(InvalidScore):
        _det("person", 1.2)


# ---------------------------------------------------------------------------
# Matching and accuracy tables


TH = {"person": 0.7, "laptop": 0.5, "phone": 0.3}


def test_match_basic_pairing():
    gt = [("person", BoundingBox(0, 0, 10, 10)), ("phone", BoundingBox(50, 0, 4, 4))]
    pred = [
        ("phone", BoundingBox(50.5, 0, 4, 4), 0.8),
        ("person", BoundingBox(0.5, 0.5, 10, 10), 0.9),
    ]
    matches = dict(match_frame(gt, pred, TH))
    assert matches == {0: 1, 1: 0}


def test_match_prefers_higher_score_prediction():
    gt = [("phone", BoundingBox(0, 0, 4, 4))]
    pred = [
        ("phone", BoundingBox(0.2, 0, 4, 4), 0.4),
        ("phone", BoundingBox(0.1, 0, 4, 4), 0.9),
    ]
    matches = match_frame(gt, pred, TH)
    assert matches == [(1, 0)]


def test_match_never_crosses_classes():
    gt = [("person", BoundingBox(0, 0, 10, 10))]
    pred = [("laptop", BoundingBox(0, 0, 10, 10), 0.99)]
    assert match_frame(gt, pred, TH) == []


def test_match_requires_threshold_for_gt_class():
    gt = [("keyboard", BoundingBox(0, 0, 4, 4))]
    with pytest.raises(MissingThreshold):
        match_frame(gt, [], TH)


def test_match_skips_unthresholded_prediction_class():
    gt = [("person", BoundingBox(0, 0, 10, 10))]
    pred = [("keyboard", BoundingBox(0, 0, 10, 10), 0.9)]
    assert match_frame(gt, pred, TH) == []


def test_match_is_one_to_one():
    gt = [("phone", BoundingBox(0, 0, 4, 4))]
    pred = [
        ("phone", BoundingBox(0, 0, 4, 4), 0.9),
        ("phone", BoundingBox(0.1, 0, 4, 4), 0.8),
    ]
    assert len(match_frame(gt, pred, TH)) == 1


def test_accuracy_table_counts():
    gt = [("person", BoundingBox(0, 0, 10, 10)), ("person", BoundingBox(30, 0, 10, 10))]
    pred = [("person", BoundingBox(0, 0, 10, 10), 0.9)]
    table = evaluate_detections(gt, pred, TH)
    assert table.matched["person"] == 1
    assert table.total["person"] == 2
    assert table.accuracy["person"] == 0.5
    assert table.thresholds["person"] == 0.7
    d = table.to_dict()
    assert d["accuracy"]["person"] == 0.5


def _spaced_frame(rng):
    """Synthetic frame: gt boxes on a coarse grid, predictions jittered
    copies plus far-away spurious boxes. Spacing guarantees each
    prediction overlaps at most one gt box, so greedy matching attains
    the exhaustive maximum."""
    gt = []
    pred = []
    classes = ["person", "laptop", "phone"]
    for slot in range(rng.integers(1, 5)):
        cls = classes[rng.integers(0, 3)]
        x = float(slot * 100)
        y = float(rng.integers(0, 3) * 100)
        box = BoundingBox(x, y, 20.0, 20.0)
        gt.append((cls, box))
        if rng.random() < 0.8:
            jitter = rng.uniform(-3, 3, size=2)
            p_cls = cls if rng.random() < 0.85 else classes[rng.integers(0, 3)]
            pred.append((p_cls, BoundingBox(x + jitter[0], y + jitter[1], 20.0, 20.0), float(rng.random())))
    for _ in range(rng.integers(0, 3)):
        cls = classes[rng.integers(0, 3)]
        pred.append((cls, BoundingBox(float(rng.integers(500, 900)), 0.0, 15.0, 15.0), float(rng.random())))
    return gt, pred


def _exhaustive_matched_by_class(gt, pred, thresholds):
    out = {}
    for cls in {c for c, _ in gt}:
        g = [(c, (b.x, b.y, b.w, b.h)) for c, b in gt if c == cls]
        p = [(c, (b.x, b.y, b.w, b.h)) for c, b, _ in pred if c == cls]
        out[cls] = oracles.max_matching(g, p, thresholds)
    return out


def test_evaluation_equals_exhaustive_oracle_on_spaced_frames():
    rng = np.random.default_rng(0x0B1)
    for _ in range(60):
        gt, pred = _spaced_frame(rng)
        table = evaluate_detections(gt, pred, TH)
        expected = _exhaustive_matched_by_class(gt, pred, TH)
        assert table.matched == expected


def test_greedy_never_exceeds_exhaustive():
    # dense overlapping boxes where greedy may be suboptimal
    rng = np.random.default_rng(7)
    for _ in range(40):
        n_gt = int(rng.integers(1, 4))
        gt = [("phone", BoundingBox(float(rng.uniform(0, 6)), 0.0, 4.0, 4.0)) for _ in range(n_gt)]
        pred = [
            ("phone", BoundingBox(float(rng.uniform(0, 6)), 0.0, 4.0, 4.0), float(rng.random()))
            for _ in range(int(rng.integers(0, 4)))
        ]
        greedy = len(match_frame(gt, pred, TH))
        best = _exhaustive_matched_by_class(gt, pred, TH).get("phone", 0)
        assert greedy <= best


def test_dataset_aggregation_spans_frames():
    gt_a = [("person", BoundingBox(0, 0, 10, 10))]
    pred_a = [("person", BoundingBox(0, 0, 10, 10), 0.9)]
    gt_b = [("person", BoundingBox(0, 0, 10, 10)), ("phone", BoundingBox(40, 0, 4, 4))]
    pred_b = []
    table = evaluate_dataset([(gt_a, pred_a), (gt_b, pred_b)], TH)
    assert table.total == {"person": 2, "phone": 1}
    assert table.matched == {"person": 1, "phone": 0}
    assert table.accuracy == {"person": 0.5, "phone": 0.0}


def test_read_detection_dataset(tmp_path):
    import json

    path = tmp_path / "frames.jsonl"
    rec = {
        "frame_id": "f0",
        "gt": [{"class": "person", "box": {"x": 0, "y": 0, "w": 10, "h": 10}}],
        "pred": [{"class": "person", "box": {"x": 1, "y": 0, "w": 10, "h": 10}, "score": 0.8}],
    }
    path.write_text(json.dumps(rec) + "\n\n")
    rows = list(read_detection_dataset(path, DEFAULT_IOU_THRESHOLDS))
    assert len(rows) == 1
    frame_id, gt, pred = rows[0]
    assert frame_id == "f0"
    assert gt[0][0] == "person" and gt[0][1].w == 10.0
    assert pred[0][2] == 0.8


def test_read_detection_dataset_reports_line(tmp_path):
    from invigil.errors import EngineError

    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame_id": "a", "gt": [], "pred": []}\n{"frame_id": 1\n')
    with pytest.raises(EngineError, match="2"):
        list(read_detection_dataset(path, DEFAULT_IOU_THRESHOLDS))


_DATASET = [
    {
        "frame_id": "f0",
        "gt": [{"class": "person", "box": {"x": 0, "y": 0, "w": 10, "h": 10}}],
        "pred": [{"class": "person", "box": {"x": 1, "y": 0, "w": 10, "h": 10}, "score": 0.8}],
    },
    {"frame_id": "f1", "gt": [{"class": "phone", "box": {"x": 40, "y": 0, "w": 4, "h": 4}}], "pred": []},
]


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    return tmp_path_factory.mktemp("datasetfuzz") / "frames.jsonl"


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_read_detection_dataset_fuzzed_gives_rows_or_an_engine_error(dataset_path, data):
    # a bare ValueError or OSError is an escape, though the CLI would still catch it
    dataset_path.write_bytes(data.draw(fuzzed_json_lines(_DATASET)))
    try:
        list(read_detection_dataset(dataset_path, DEFAULT_IOU_THRESHOLDS))
    except EngineError:
        pass
