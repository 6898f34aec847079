"""Candidate attribution and background blurring for evidence frames.

The candidate is the person mask containing at least 4 of the 5 facial
keypoints; every pixel outside the candidate mask is replaced by an
edge-clamped box blur. When no mask qualifies the whole frame is
blurred, so an attribution failure can never leak the background.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EngineError, arrays_eq

DEFAULT_BLUR_RADIUS = 9
MIN_KEYPOINTS = 4


class DimensionMismatch(EngineError):
    """Frame, mask, or keypoint dimensions disagree."""


@dataclass(frozen=True, eq=False)
class Frame:
    """8-bit RGB image, shape (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8 (h, w, 3), got {arr.dtype} {arr.shape}")
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    __eq__ = arrays_eq


@dataclass(frozen=True, eq=False)
class PersonMask:
    """Boolean bitmap of one segmented person, shape (height, width)."""

    mask_id: int
    bitmap: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bitmap)
        if arr.ndim != 2 or arr.dtype != np.bool_:
            raise ValueError(f"bitmap must be a 2-d boolean array, got {arr.dtype} {arr.shape}")
        object.__setattr__(self, "bitmap", arr)

    @property
    def area(self) -> int:
        return int(self.bitmap.sum())

    __eq__ = arrays_eq


@dataclass(frozen=True)
class FaceKeypoints:
    """The five facial points: eyes, nose, and both mouth corners.

    Coordinates are (x, y) pixels; sub-pixel positions are floored when
    tested against a mask.
    """

    left_eye: tuple[float, float]
    right_eye: tuple[float, float]
    nose: tuple[float, float]
    mouth_left: tuple[float, float]
    mouth_right: tuple[float, float]

    def points(self) -> tuple[tuple[float, float], ...]:
        return (self.left_eye, self.right_eye, self.nose, self.mouth_left, self.mouth_right)


def keypoints_in_mask(mask: PersonMask, kp: FaceKeypoints) -> int:
    """How many of the five keypoints land on a true mask pixel."""
    h, w = mask.bitmap.shape
    count = 0
    for x, y in kp.points():
        xi, yi = int(np.floor(x)), int(np.floor(y))
        if 0 <= xi < w and 0 <= yi < h and mask.bitmap[yi, xi]:
            count += 1
    return count


def attribute_candidate_mask(masks: Sequence[PersonMask], kp: FaceKeypoints) -> int | None:
    """Pick the mask containing at least MIN_KEYPOINTS of the five keypoints.

    Several qualifying masks resolve by most contained keypoints, then
    larger area, then lower mask_id. Returns the winning mask_id, or
    None when no mask qualifies.
    """
    if not masks:
        return None
    shape = masks[0].bitmap.shape
    for mask in masks:
        if mask.bitmap.shape != shape:
            raise DimensionMismatch(
                f"mask {mask.mask_id} shape {mask.bitmap.shape} differs from {shape}"
            )
    best: tuple[int, int, int] | None = None
    best_id: int | None = None
    for mask in masks:
        count = keypoints_in_mask(mask, kp)
        if count < MIN_KEYPOINTS:
            continue
        key = (count, mask.area, -mask.mask_id)
        if best is None or key > best:
            best = key
            best_id = mask.mask_id
    return best_id


def box_blur(pixels: np.ndarray, radius: int) -> np.ndarray:
    """Edge-clamped box blur of side 2*radius + 1 over a uint8 image.

    Each output channel is floor(window_sum / window_count + 0.5) where
    out-of-frame taps are clamped to the nearest edge pixel, so the
    count is always (2r+1)^2. Integer arithmetic throughout: the result
    is exact, not a float approximation.
    """
    if radius < 1:
        raise ValueError(f"radius must be at least 1, got {radius}")
    side = 2 * radius + 1
    count = side * side
    padded = np.pad(pixels.astype(np.int64), ((radius, radius), (radius, radius), (0, 0)), mode="edge")
    integral = np.zeros(
        (padded.shape[0] + 1, padded.shape[1] + 1, padded.shape[2]), dtype=np.int64
    )
    np.cumsum(padded, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    h, w = pixels.shape[:2]
    sums = (
        integral[side : side + h, side : side + w]
        - integral[side : side + h, :w]
        - integral[:h, side : side + w]
        + integral[:h, :w]
    )
    return ((2 * sums + count) // (2 * count)).astype(np.uint8)


def blur_frame(
    frame: Frame, candidate: PersonMask | None, radius: int = DEFAULT_BLUR_RADIUS
) -> Frame:
    """Copy candidate pixels unchanged; blur everything else.

    candidate=None blurs the entire frame.
    """
    blurred = box_blur(frame.pixels, radius)
    if candidate is None:
        return Frame(pixels=blurred)
    if candidate.bitmap.shape != frame.pixels.shape[:2]:
        raise DimensionMismatch(
            f"mask shape {candidate.bitmap.shape} does not match frame {frame.pixels.shape[:2]}"
        )
    out = blurred.copy()
    out[candidate.bitmap] = frame.pixels[candidate.bitmap]
    return Frame(pixels=out)


def process_evidence_frames(
    frames: Sequence[Frame],
    masks_per_frame: Sequence[Sequence[PersonMask]],
    keypoints_per_frame: Sequence[FaceKeypoints],
    radius: int = DEFAULT_BLUR_RADIUS,
) -> list[Frame]:
    """Attribute the candidate and blur the background, frame by frame.

    Attribution is independent per frame (no tracking). Errors from the
    inner operations are re-raised with the frame index prepended.
    """
    if not (len(frames) == len(masks_per_frame) == len(keypoints_per_frame)):
        raise ValueError(
            f"aligned lists required, got {len(frames)} frames, "
            f"{len(masks_per_frame)} mask lists, {len(keypoints_per_frame)} keypoint sets"
        )
    out: list[Frame] = []
    for i, (frame, masks, kp) in enumerate(zip(frames, masks_per_frame, keypoints_per_frame)):
        try:
            winner = attribute_candidate_mask(masks, kp)
            candidate = next((m for m in masks if m.mask_id == winner), None)
            out.append(blur_frame(frame, candidate, radius))
        except EngineError as exc:
            raise type(exc)(f"frame {i}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Fixture I/O: binary PPM (P6) frames and PBM (P4) masks.


def _read_pnm_header(path: str | Path, data: bytes, magic: bytes, fields: int) -> tuple[list[int], int]:
    if not data.startswith(magic):
        raise EngineError(f"{path}: expected {magic.decode()} header")
    pos = 2
    values: list[int] = []
    while len(values) < fields:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise EngineError(f"{path}: {magic.decode()} header ends after {len(values)} of {fields} numbers")
        if not token.isdigit():
            raise EngineError(f"{path}: {magic.decode()} header holds {token!r}, not a decimal number")
        values.append(int(token))
    if 0 in values[:2]:
        raise EngineError(f"{path}: {magic.decode()} header gives an empty {values[0]} x {values[1]} image")
    return values, pos + 1  # single whitespace byte after the header


def write_ppm(frame: Frame, path: str | Path) -> None:
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.pixels.tobytes())


def read_ppm(path: str | Path) -> Frame:
    data = Path(path).read_bytes()
    (w, h, maxval), offset = _read_pnm_header(path, data, b"P6", 3)
    if maxval != 255:
        raise EngineError(f"{path}: only maxval 255 supported, got {maxval}")
    body = data[offset : offset + w * h * 3]
    if len(body) != w * h * 3:
        raise EngineError(f"{path}: truncated pixel data")
    return Frame(pixels=np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3).copy())


def write_pbm(mask: PersonMask, path: str | Path) -> None:
    h, w = mask.bitmap.shape
    header = f"P4\n{w} {h}\n".encode("ascii")
    packed = np.packbits(mask.bitmap, axis=1)  # rows padded to full bytes
    Path(path).write_bytes(header + packed.tobytes())


def read_pbm(path: str | Path, mask_id: int = 0) -> PersonMask:
    data = Path(path).read_bytes()
    (w, h), offset = _read_pnm_header(path, data, b"P4", 2)
    row_bytes = (w + 7) // 8
    body = data[offset : offset + row_bytes * h]
    if len(body) != row_bytes * h:
        raise EngineError(f"{path}: truncated mask data")
    rows = np.frombuffer(body, dtype=np.uint8).reshape(h, row_bytes)
    bits = np.unpackbits(rows, axis=1)[:, :w].astype(bool)
    return PersonMask(mask_id=mask_id, bitmap=bits)
