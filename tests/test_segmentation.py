from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from invigil.errors import EngineError
from invigil.segmentation import (
    DEFAULT_BLUR_RADIUS,
    DimensionMismatch,
    FaceKeypoints,
    Frame,
    PersonMask,
    attribute_candidate_mask,
    blur_frame,
    box_blur,
    keypoints_in_mask,
    process_evidence_frames,
    read_pbm,
    read_ppm,
    write_pbm,
    write_ppm,
)


def _rand_frame(rng, h, w):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def _kp(*pts):
    return FaceKeypoints(*[(float(x), float(y)) for x, y in pts])


def _rect_mask(mask_id, h, w, y0, y1, x0, x1):
    bitmap = np.zeros((h, w), dtype=bool)
    bitmap[y0:y1, x0:x1] = True
    return PersonMask(mask_id=mask_id, bitmap=bitmap)


# ---------------------------------------------------------------------------
# Box blur


def test_blur_matches_enumeration_tiny():
    rng = np.random.default_rng(0x5E6)
    pixels = _rand_frame(rng, 6, 7)
    for radius in (1, 2, 3):
        assert np.array_equal(box_blur(pixels, radius), oracles.blur_enumerate(pixels, radius))


def test_blur_matches_shift_accumulate():
    rng = np.random.default_rng(0x5E7)
    for _ in range(8):
        h, w = int(rng.integers(3, 40)), int(rng.integers(3, 40))
        pixels = _rand_frame(rng, h, w)
        radius = int(rng.integers(1, 6))
        assert np.array_equal(box_blur(pixels, radius), oracles.blur_shift_accumulate(pixels, radius))


def test_blur_default_radius_matches_oracle():
    rng = np.random.default_rng(0x5E8)
    pixels = _rand_frame(rng, 30, 25)
    got = box_blur(pixels, DEFAULT_BLUR_RADIUS)
    assert np.array_equal(got, oracles.blur_shift_accumulate(pixels, DEFAULT_BLUR_RADIUS))


def test_blur_constant_frame_is_fixed_point():
    pixels = np.full((12, 9, 3), 137, dtype=np.uint8)
    assert np.array_equal(box_blur(pixels, 4), pixels)


def test_blur_rounds_to_nearest():
    pixels = np.zeros((1, 3, 1), dtype=np.uint8)
    pixels[0, 1, 0] = 255
    # window sums: [255+edge pad] -> mean 85 exactly at radius 1
    out = box_blur(pixels, 1)
    assert out[0, 1, 0] == 85


def test_blur_rejects_bad_radius():
    with pytest.raises(ValueError):
        box_blur(np.zeros((4, 4, 3), dtype=np.uint8), 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_blur_output_within_window_bounds(seed, radius):
    rng = np.random.default_rng(seed)
    pixels = _rand_frame(rng, 8, 8)
    out = box_blur(pixels, radius)
    assert out.dtype == np.uint8
    assert out.shape == pixels.shape
    assert out.min() >= pixels.min() and out.max() <= pixels.max()


# ---------------------------------------------------------------------------
# Keypoint attribution


def test_keypoints_in_mask_floors_coordinates():
    mask = _rect_mask(0, 10, 10, 2, 5, 2, 5)
    kp = _kp((2.9, 2.9), (4.999, 4.0), (5.0, 4.0), (1.2, 3.0), (-1.0, 3.0))
    assert keypoints_in_mask(mask, kp) == 2


def test_attribution_requires_min_points():
    masks = [_rect_mask(0, 20, 20, 0, 10, 0, 10)]
    inside = [(float(x), 1.0) for x in range(1, 6)]
    kp5 = _kp(*inside)
    assert attribute_candidate_mask(masks, kp5) == 0
    kp3 = _kp(*(inside[:3] + [(15.0, 15.0), (16.0, 16.0)]))
    assert attribute_candidate_mask(masks, kp3) is None


def test_attribution_prefers_more_points_then_area_then_lower_id():
    h = w = 30
    kp = _kp((1, 1), (2, 2), (3, 3), (4, 4), (25, 25))
    small = _rect_mask(5, h, w, 0, 6, 0, 6)  # 4 points
    big = _rect_mask(2, h, w, 0, 20, 0, 20)  # 5 points
    assert attribute_candidate_mask([small, big], kp) == 2

    # equal points: larger area wins
    a = _rect_mask(1, h, w, 0, 6, 0, 6)
    b = _rect_mask(3, h, w, 0, 10, 0, 10)
    kp4 = _kp((1, 1), (2, 2), (3, 3), (4, 4), (25, 25))
    assert attribute_candidate_mask([a, b], kp4) == 3

    # equal points and area: lower id wins
    c = _rect_mask(7, h, w, 0, 6, 0, 6)
    d = _rect_mask(4, h, w, 0, 6, 0, 6)
    assert attribute_candidate_mask([c, d], kp4) == 4


def test_attribution_matches_counting_oracle_fuzzed():
    rng = np.random.default_rng(0xA77)
    for _ in range(200):
        h, w = int(rng.integers(8, 40)), int(rng.integers(8, 40))
        masks = []
        for mid in range(int(rng.integers(0, 4))):
            bitmap = rng.random((h, w)) < rng.uniform(0.1, 0.7)
            masks.append(PersonMask(mask_id=mid, bitmap=bitmap))
        kp = _kp(*[(rng.uniform(-2, w + 2), rng.uniform(-2, h + 2)) for _ in range(5)])
        got = attribute_candidate_mask(masks, kp)
        counts = {m.mask_id: oracles.count_points_in_mask(m.bitmap, kp.points()) for m in masks}
        qualified = {mid: c for mid, c in counts.items() if c >= 4}
        if not qualified:
            assert got is None
        else:
            assert got in qualified
            areas = {m.mask_id: int(m.bitmap.sum()) for m in masks}
            best = max(qualified, key=lambda mid: (qualified[mid], areas[mid], -mid))
            assert got == best


def test_attribution_rejects_mixed_shapes():
    masks = [_rect_mask(0, 10, 10, 0, 5, 0, 5), _rect_mask(1, 12, 10, 0, 5, 0, 5)]
    with pytest.raises(DimensionMismatch):
        attribute_candidate_mask(masks, _kp((1, 1), (2, 2), (3, 3), (4, 4), (5, 5)))


def test_keypoints_require_five_points():
    with pytest.raises(TypeError):
        FaceKeypoints((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0))  # type: ignore[call-arg]


# ---------------------------------------------------------------------------
# Privacy blur


def test_candidate_pixels_bit_preserved():
    rng = np.random.default_rng(0xB10)
    frame = Frame(pixels=_rand_frame(rng, 24, 32))
    mask = _rect_mask(0, 24, 32, 5, 15, 8, 20)
    out = blur_frame(frame, mask, radius=3)
    assert np.array_equal(out.pixels[mask.bitmap], frame.pixels[mask.bitmap])


def test_background_equals_blur_oracle():
    rng = np.random.default_rng(0xB11)
    frame = Frame(pixels=_rand_frame(rng, 24, 32))
    mask = _rect_mask(0, 24, 32, 5, 15, 8, 20)
    out = blur_frame(frame, mask, radius=3)
    blurred = oracles.blur_shift_accumulate(frame.pixels, 3)
    assert np.array_equal(out.pixels[~mask.bitmap], blurred[~mask.bitmap])


def test_no_candidate_blurs_everything():
    rng = np.random.default_rng(0xB12)
    frame = Frame(pixels=_rand_frame(rng, 16, 16))
    out = blur_frame(frame, None, radius=2)
    assert np.array_equal(out.pixels, oracles.blur_shift_accumulate(frame.pixels, 2))


def test_blur_frame_rejects_mask_shape_mismatch():
    frame = Frame(pixels=np.zeros((10, 10, 3), dtype=np.uint8))
    mask = _rect_mask(0, 12, 10, 0, 5, 0, 5)
    with pytest.raises(DimensionMismatch):
        blur_frame(frame, mask)


def test_process_evidence_frames_pairs_and_reports_index():
    rng = np.random.default_rng(0xB13)
    frames = [Frame(pixels=_rand_frame(rng, 10, 12)) for _ in range(3)]
    kp_in = _kp((1, 1), (2, 2), (3, 3), (4, 4), (5, 5))
    masks = [_rect_mask(0, 10, 12, 0, 8, 0, 8)]
    outs = process_evidence_frames(frames, [masks, masks, masks], [kp_in, kp_in, kp_in])
    assert len(outs) == 3
    for f, o in zip(frames, outs):
        assert np.array_equal(o.pixels[masks[0].bitmap], f.pixels[masks[0].bitmap])

    bad_masks = [masks, [_rect_mask(0, 99, 12, 0, 8, 0, 8)], masks]
    with pytest.raises(DimensionMismatch, match="frame 1"):
        process_evidence_frames(frames, bad_masks, [kp_in, kp_in, kp_in])


def test_process_evidence_frames_length_mismatch():
    frame = Frame(pixels=np.zeros((4, 4, 3), dtype=np.uint8))
    kp = _kp((0, 0), (1, 1), (2, 2), (3, 3), (0, 1))
    with pytest.raises(ValueError, match="aligned"):
        process_evidence_frames([frame], [[], []], [kp])


def test_frame_validates_shape_and_dtype():
    with pytest.raises(ValueError):
        Frame(pixels=np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        Frame(pixels=np.zeros((4, 4, 3), dtype=np.float32))


# ---------------------------------------------------------------------------
# Portable bitmap i/o


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0xF00)
    frame = Frame(pixels=_rand_frame(rng, 9, 13))
    path = tmp_path / "f.ppm"
    write_ppm(frame, path)
    assert read_ppm(path) == frame


def test_pbm_round_trip(tmp_path):
    rng = np.random.default_rng(0xF01)
    mask = PersonMask(mask_id=3, bitmap=rng.random((11, 18)) < 0.4)
    path = tmp_path / "m.pbm"
    write_pbm(mask, path)
    back = read_pbm(path, mask_id=3)
    assert back.mask_id == 3
    assert np.array_equal(back.bitmap, mask.bitmap)


def test_pbm_widths_not_multiple_of_eight(tmp_path):
    for w in (1, 7, 8, 9, 15):
        bitmap = np.eye(5, w, dtype=bool)
        path = tmp_path / f"m{w}.pbm"
        write_pbm(PersonMask(mask_id=0, bitmap=bitmap), path)
        assert np.array_equal(read_pbm(path, mask_id=0).bitmap, bitmap)


def test_ppm_header_with_comments(tmp_path):
    frame = Frame(pixels=np.arange(12, dtype=np.uint8).reshape(2, 2, 3))
    path = tmp_path / "c.ppm"
    write_ppm(frame, path)
    raw = path.read_bytes()
    body = raw.split(b"255\n", 1)[1]
    commented = b"P6\n# a comment\n2 2\n# another\n255\n" + body
    path.write_bytes(commented)
    assert read_ppm(path) == frame


def test_ppm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(EngineError):
        read_ppm(path)


@pytest.mark.parametrize(
    "read, data, message",
    [
        # before, each of these was a bare ValueError from int() that named no file
        (read_ppm, b"P6\n2", "P6 header ends after 1 of 3 numbers"),
        (read_pbm, b"P4", "P4 header ends after 0 of 2 numbers"),
        (read_ppm, b"P6\nab 2\n255\n" + bytes(12), "P6 header holds b'ab', not a decimal number"),
        (read_pbm, b"P4\n-2 2\n" + bytes(2), "P4 header holds b'-2', not a decimal number"),
    ],
)
def test_pnm_bad_header_is_an_engine_error_naming_the_file(tmp_path, read, data, message):
    path = tmp_path / "bad.pnm"
    path.write_bytes(data)
    with pytest.raises(EngineError) as err:
        read(path)
    assert str(err.value) == f"{path}: {message}"
