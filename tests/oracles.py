"""Independent reference implementations used to check the engine.

Everything here is deliberately written the slow, obvious way (loops,
enumeration, O(N^2) transforms) and shares no code with the package.
"""

from __future__ import annotations

import math

import numpy as np


def euclid_naive(a, b) -> float:
    """Sum-of-squares loop, no vectorization."""
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return math.sqrt(total)


def min_distance_naive(probe, references) -> float:
    return min(euclid_naive(probe, ref) for ref in references)


def dft_naive(x: np.ndarray) -> np.ndarray:
    """Direct O(N^2) discrete Fourier transform."""
    n = x.shape[0]
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x.astype(np.complex128)


def stft_naive(samples: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Frame-by-frame DFT magnitudes, Hann-weighted, bins 0..frame_len/2."""
    window = np.array(
        [0.5 - 0.5 * math.cos(2.0 * math.pi * i / (frame_len - 1)) for i in range(frame_len)]
    )
    rows = []
    start = 0
    while start + frame_len <= samples.shape[0]:
        rows.append(np.abs(dft_naive(samples[start : start + frame_len] * window))[: frame_len // 2 + 1])
        start += hop
    return np.stack(rows)


def spectral_flatness(magnitudes: np.ndarray) -> float:
    """Geometric over arithmetic mean of the power spectrum."""
    power = magnitudes.astype(np.float64) ** 2 + 1e-12
    return float(np.exp(np.mean(np.log(power))) / np.mean(power))


def iou_boxes(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    """Interval-overlap IoU on (x, y, w, h) tuples."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def iou_pixels(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    """Pixel-counting IoU for integer boxes; exact by enumeration."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    cells_a = {(x, y) for x in range(ax, ax + aw) for y in range(ay, ay + ah)}
    cells_b = {(x, y) for x in range(bx, bx + bw) for y in range(by, by + bh)}
    union = len(cells_a | cells_b)
    return len(cells_a & cells_b) / union if union else 0.0


def max_matching(
    gt: list[tuple[str, tuple[float, float, float, float]]],
    pred: list[tuple[str, tuple[float, float, float, float]]],
    thresholds: dict[str, float],
) -> int:
    """Maximum one-to-one matching size by exhaustive recursion.

    An edge exists when classes agree and IoU meets the class threshold.
    """
    edges: list[list[int]] = []
    for p_label, p_box in pred:
        row = []
        for gi, (g_label, g_box) in enumerate(gt):
            if p_label == g_label and iou_boxes(p_box, g_box) >= thresholds[g_label]:
                row.append(gi)
        edges.append(row)

    best = 0

    def recurse(pi: int, used: set[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if pi == len(edges) or count + (len(edges) - pi) <= best:
            return
        recurse(pi + 1, used, count)  # leave this prediction unmatched
        for gi in edges[pi]:
            if gi not in used:
                used.add(gi)
                recurse(pi + 1, used, count + 1)
                used.discard(gi)

    recurse(0, set(), 0)
    return best


def blur_shift_accumulate(pixels: np.ndarray, radius: int) -> np.ndarray:
    """Edge-clamped box blur by explicit shifted-copy accumulation."""
    h, w = pixels.shape[:2]
    acc = np.zeros((h, w, pixels.shape[2]), dtype=np.int64)
    ys = np.arange(h)
    xs = np.arange(w)
    for dy in range(-radius, radius + 1):
        yy = np.clip(ys + dy, 0, h - 1)
        for dx in range(-radius, radius + 1):
            xx = np.clip(xs + dx, 0, w - 1)
            acc += pixels[yy][:, xx].astype(np.int64)
    count = (2 * radius + 1) ** 2
    return ((2 * acc + count) // (2 * count)).astype(np.uint8)


def blur_enumerate(pixels: np.ndarray, radius: int) -> np.ndarray:
    """Pure-Python per-pixel window enumeration; only for tiny frames."""
    h, w, c = pixels.shape
    out = np.zeros_like(pixels)
    count = (2 * radius + 1) ** 2
    for y in range(h):
        for x in range(w):
            for ch in range(c):
                s = 0
                for dy in range(-radius, radius + 1):
                    for dx in range(-radius, radius + 1):
                        yy = min(max(y + dy, 0), h - 1)
                        xx = min(max(x + dx, 0), w - 1)
                        s += int(pixels[yy, xx, ch])
                out[y, x, ch] = (2 * s + count) // (2 * count)
    return out


def count_points_in_mask(bitmap: np.ndarray, points) -> int:
    h, w = bitmap.shape
    n = 0
    for x, y in points:
        xi = math.floor(x)
        yi = math.floor(y)
        if 0 <= xi < w and 0 <= yi < h and bitmap[yi, xi]:
            n += 1
    return n


def scan_absence_gaps(events, person_score_min: float) -> list[tuple[int, int | None, int]]:
    """Linear scan for zero-person gaps over a raw event list.

    Returns (anchor_t, closing_t or None when still open, duration)
    per maximal gap; the open gap's duration runs to the last event of
    any kind. Duration is measured from the last frame that showed a
    person (or the first empty frame when none ever did).
    """
    gaps: list[tuple[int, int | None, int]] = []
    last_present: int | None = None
    open_anchor: int | None = None
    last_any: int | None = None
    for ev in events:
        last_any = ev.t_ms
        if type(ev.payload).__name__ != "FrameDetections":
            continue
        count = sum(
            1
            for d in ev.payload.detections
            if d.label == "person" and d.score >= person_score_min
        )
        if count == 0:
            if open_anchor is None:
                open_anchor = last_present if last_present is not None else ev.t_ms
        else:
            if open_anchor is not None:
                gaps.append((open_anchor, ev.t_ms, ev.t_ms - open_anchor))
                open_anchor = None
            last_present = ev.t_ms
    if open_anchor is not None and last_any is not None:
        gaps.append((open_anchor, None, last_any - open_anchor))
    return gaps


def expected_absence_flags(events, person_score_min: float, long_ms: int) -> list[tuple[int, int]]:
    """(t_ms, duration) of every CandidateAbsence flag the rules demand."""
    out = []
    last_any = max((ev.t_ms for ev in events), default=None)
    for anchor, closing, duration in scan_absence_gaps(events, person_score_min):
        if duration > long_ms:
            out.append((closing if closing is not None else last_any, duration))
    return out


class MaxPool2Oracle:
    """2x2 stride-2 max-pool by gathering each patch on a new axis.

    Forward takes the max over the axis; backward scatters dy to the
    `argmax` of each patch (the first corner holding the max, row-major),
    with zeros elsewhere and on the odd trailing row/column. It has the
    layer interface of the package's pool, so a model can be built on it.
    """

    kind = "maxpool2"
    params: dict[str, np.ndarray] = {}

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, c = in_shape
        return (h // 2, w // 2, c)

    @staticmethod
    def patches(x: np.ndarray) -> np.ndarray:
        """(n, h, w, c) -> (n, h // 2, w // 2, 4, c), corners in row-major order."""
        n, h, w, c = x.shape
        ht, wt = h // 2, w // 2
        v = x[:, : 2 * ht, : 2 * wt, :].reshape(n, ht, 2, wt, 2, c)
        return v.transpose(0, 1, 3, 2, 4, 5).reshape(n, ht, wt, 4, c)

    def forward(self, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
        patches = self.patches(x)
        if cache is not None:
            cache["idx"] = patches.argmax(axis=3)
            cache["x_shape"] = x.shape
        return patches.max(axis=3)

    def backward(self, dy: np.ndarray, cache: dict, need_dx: bool = True):
        n, h, w, c = cache["x_shape"]
        ht, wt = h // 2, w // 2
        dpatches = np.zeros((n, ht, wt, 4, c), dtype=dy.dtype)
        np.put_along_axis(dpatches, cache["idx"][:, :, :, None, :], dy[:, :, :, None, :], axis=3)
        dx = np.zeros((n, h, w, c), dtype=dy.dtype)
        dx[:, : 2 * ht, : 2 * wt, :] = (
            dpatches.reshape(n, ht, wt, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, 2 * ht, 2 * wt, c)
        )
        return dx, {}


def conv2d_dx_strided(dy: np.ndarray, w: np.ndarray, x_shape: tuple[int, ...]) -> np.ndarray:
    """Input gradient of a valid stride-1 convolution (no ReLU), col2im as strided adds.

    Each of the kh * kw taps adds its column gradients into dx for the
    whole batch at once, reading them with a stride across the tap axes.
    """
    kh, kw, cin, cout = w.shape
    n, ho, wo, _ = dy.shape
    dcols = (dy.reshape(n * ho * wo, cout) @ w.reshape(kh * kw * cin, cout).T).reshape(n, ho, wo, kh, kw, cin)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, i : i + ho, j : j + wo, :] += dcols[:, :, :, i, j, :]
    return dx


class Conv2DOracle:
    """Valid stride-1 convolution as the package first wrote it.

    Forward and backward are kept as they were before the layer stopped
    making temporaries: a broadcast bias add into a fresh array, the ReLU
    into another, `sum(axis=0)` for the bias gradient and a fresh array for
    the input gradient's columns. It has the layer interface of the
    package's conv, so a model can be built on it.
    """

    kind = "conv2d"

    def __init__(self, w: np.ndarray, b: np.ndarray, relu: bool = True):
        self.w = np.asarray(w)  # (kh, kw, cin, cout)
        self.b = np.asarray(b)  # (cout,)
        self.relu = relu

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, _ = in_shape
        kh, kw, _, cout = self.w.shape
        return (h - kh + 1, w - kw + 1, cout)

    def _cols(self, x: np.ndarray) -> np.ndarray:
        kh, kw, cin, _ = self.w.shape
        win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
        # (N, ho, wo, cin, kh, kw) -> (N, ho, wo, kh, kw, cin)
        return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))

    def forward(self, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
        kh, kw, cin, cout = self.w.shape
        cols = self._cols(x)
        n, ho, wo = cols.shape[:3]
        flat = cols.reshape(n * ho * wo, kh * kw * cin)
        z = flat @ self.w.reshape(kh * kw * cin, cout) + self.b
        z = z.reshape(n, ho, wo, cout)
        y = np.maximum(z, 0) if self.relu else z
        if cache is not None:
            cache["flat"] = flat
            cache["x_shape"] = x.shape
            if self.relu:
                cache["mask"] = z > 0
        return y

    def backward(self, dy: np.ndarray, cache: dict, need_dx: bool = True):
        kh, kw, cin, cout = self.w.shape
        if self.relu:
            dy = dy * cache["mask"]
        n, ho, wo, _ = dy.shape
        dflat = dy.reshape(n * ho * wo, cout)
        dw = (cache["flat"].T @ dflat).reshape(self.w.shape)
        db = dflat.sum(axis=0)
        if not need_dx:
            return None, {"w": dw, "b": db}
        dcols = (dflat @ self.w.reshape(kh * kw * cin, cout).T).reshape(n, ho, wo, kh, kw, cin)
        dx = np.zeros(cache["x_shape"], dtype=dy.dtype)
        taps = np.empty((kh, kw, ho, wo, cin), dtype=dcols.dtype)
        for s in range(n):
            taps[...] = dcols[s].transpose(2, 3, 0, 1, 4)
            for i in range(kh):
                for j in range(kw):
                    dx[s, i : i + ho, j : j + wo, :] += taps[i, j]
        return dx, {"w": dw, "b": db}

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}


class DenseOracle:
    """Fully connected layer as the package first wrote it; see Conv2DOracle."""

    kind = "dense"

    def __init__(self, w: np.ndarray, b: np.ndarray, relu: bool = False):
        self.w = np.asarray(w)  # (n_in, n_out)
        self.b = np.asarray(b)
        self.relu = relu

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (self.w.shape[1],)

    def forward(self, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
        z = x @ self.w + self.b
        y = np.maximum(z, 0) if self.relu else z
        if cache is not None:
            cache["x"] = x
            if self.relu:
                cache["mask"] = z > 0
        return y

    def backward(self, dy: np.ndarray, cache: dict, need_dx: bool = True):
        if self.relu:
            dy = dy * cache["mask"]
        dw = cache["x"].T @ dy
        db = dy.sum(axis=0)
        dx = dy @ self.w.T if need_dx else None
        return dx, {"w": dw, "b": db}

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}
