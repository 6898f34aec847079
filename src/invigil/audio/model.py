"""Small convolutional voice/non-voice classifier over spectrograms.

Layers implement their own forward and backward passes on top of numpy.
Inference is pure: intermediate activations go into an explicit cache
object owned by the caller, so a model can serve many threads. Class
index 1 is "voice".

The default stack: conv 3x3x8 + ReLU, 2x2 max-pool, conv 3x3x16 +
ReLU, 2x2 max-pool, flatten, dense 32 + ReLU, dense 2. Softmax lives in
the loss / classify step, the last dense layer emits logits.

Max-pooling routes each gradient to the first corner of its 2x2 patch
that holds the max, in row-major order, so ties break the same way on
every run. A model's backward pass computes parameter gradients for
every layer but no input gradient for the first layer, which nothing
would read: each layer's `backward(dy, cache, need_dx)` returns None in
place of the input gradient when need_dx is False.

A training step makes the same BLAS calls as a plain numpy transcription
and the same roundings, with fewer passes and temporaries around them:
the bias add and the ReLU run in place on the matmul output, bias
gradients are column sums by `einsum`, and a one-channel conv builds its
im2col columns one kernel tap at a time. A layer's backward works in
place on the `dy` and cache it is handed: it multiplies the ReLU mask
into `dy`, and a conv writes its input gradient's columns into the
cached im2col array once `dw` is taken. A cache therefore serves one
backward call. `VoiceModel.backward` copies `dlogits` and empties each
cache after its layer.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import EngineError, as_bool, as_int, as_list, as_object, as_str, decode_json
from .dsp import Spectrogram, WindowWorkspace

VOICE_CLASS = 1
MODEL_MAGIC = b"VOICEMDL"
MODEL_FORMAT_VERSION = 1


class ShapeMismatch(EngineError):
    """Input shape does not match the model's expected spectrogram shape."""


class BadModelFile(EngineError):
    """The model container is truncated or inconsistent."""


def _bias_grad(dflat: np.ndarray) -> np.ndarray:
    """Column sums of a (rows, units) gradient, bit for bit `dflat.sum(axis=0)`.

    With two or more columns both add the rows in order; `einsum` does so
    without the reduction's per-row overhead. One column `sum` adds
    pairwise, so it keeps that case.
    """
    return np.einsum("ij->j", dflat) if dflat.shape[1] > 1 else dflat.sum(axis=0)


class Conv2D:
    """Valid (unpadded) 2-d convolution, stride 1, optional ReLU."""

    kind = "conv2d"

    def __init__(self, w: np.ndarray, b: np.ndarray, relu: bool = True):
        self.w = np.asarray(w)  # (kh, kw, cin, cout)
        self.b = np.asarray(b)  # (cout,)
        self.relu = relu
        if self.w.ndim != 4 or self.b.shape != (self.w.shape[3],):
            raise ValueError(f"bad conv shapes w={self.w.shape} b={self.b.shape}")

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, c = in_shape
        kh, kw, cin, cout = self.w.shape
        if c != cin:
            raise ValueError(f"conv expects {cin} channels, got {c}")
        if h < kh or w < kw:
            raise ValueError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
        return (h - kh + 1, w - kw + 1, cout)

    def _cols(self, x: np.ndarray) -> np.ndarray:
        """im2col: (N, ho, wo, kh, kw, cin), contiguous."""
        kh, kw, cin, _ = self.w.shape
        if cin == 1:
            # one strided copy per tap; a transposed copy of a one-channel
            # window moves one float per inner step
            n, h, w, _ = x.shape
            ho, wo = h - kh + 1, w - kw + 1
            cols = np.empty((n, ho, wo, kh, kw, 1), dtype=x.dtype)
            for i in range(kh):
                for j in range(kw):
                    cols[:, :, :, i, j, :] = x[:, i : i + ho, j : j + wo, :]
            return cols
        win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
        # (N, ho, wo, cin, kh, kw) -> (N, ho, wo, kh, kw, cin), always a copy
        return np.array(win.transpose(0, 1, 2, 4, 5, 3), order="C")

    def forward(self, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
        kh, kw, cin, cout = self.w.shape
        cols = self._cols(x)
        n, ho, wo = cols.shape[:3]
        flat = cols.reshape(n * ho * wo, kh * kw * cin)
        z = flat @ self.w.reshape(kh * kw * cin, cout)
        # the bias repeated along a whole output row, so each add runs a
        # long inner loop rather than one of cout floats; the sums are the same
        rows = z.reshape(n * ho, wo * cout)
        rows += np.tile(self.b, wo)
        z = z.reshape(n, ho, wo, cout)
        if cache is not None:
            cache["flat"] = flat
            cache["x_shape"] = x.shape
            if self.relu:
                cache["mask"] = z > 0
        if self.relu:
            np.maximum(z, 0, out=z)
        return z

    def backward(
        self, dy: np.ndarray, cache: dict, need_dx: bool = True
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        kh, kw, cin, cout = self.w.shape
        if self.relu:
            dy *= cache["mask"]
        n, ho, wo, _ = dy.shape
        dflat = dy.reshape(n * ho * wo, cout)
        flat = cache["flat"]
        dw = (flat.T @ dflat).reshape(self.w.shape)
        db = _bias_grad(dflat)
        if not need_dx:
            return None, {"w": dw, "b": db}
        w2 = self.w.reshape(kh * kw * cin, cout)
        # dw is taken, so the cached columns can hold the input gradient's
        # columns where their dtypes agree
        out = flat if flat.dtype == np.result_type(dflat, w2) else None
        dcols = np.matmul(dflat, w2.T, out=out).reshape(n, ho, wo, kh, kw, cin)
        dx = np.zeros(cache["x_shape"], dtype=dy.dtype)
        # col2im one sample at a time through one tap-major buffer, so each
        # add reads one contiguous (ho, wo, cin) block; the adds and their
        # order are those of a strided loop over the whole batch
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


class MaxPool2:
    """2x2 max pooling with stride 2; odd trailing rows/columns are dropped.

    The output is the elementwise max of the four strided corner views of
    the input. Where several corners tie for the max, the gradient goes to
    the first of them in row-major order (top-left, top-right, bottom-left,
    bottom-right): the corner `argmax` over the flattened patch picks.
    As the first layer of a model it computes no input gradient.
    """

    kind = "maxpool2"
    params: dict[str, np.ndarray] = {}

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, c = in_shape
        if h < 2 or w < 2:
            raise ValueError(f"cannot pool a {h}x{w} map")
        return (h // 2, w // 2, c)

    @staticmethod
    def _corners(x: np.ndarray) -> list[np.ndarray]:
        ht, wt = x.shape[1] // 2, x.shape[2] // 2
        return [x[:, i : 2 * ht : 2, j : 2 * wt : 2, :] for i in (0, 1) for j in (0, 1)]

    def forward(self, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
        a, b, c, d = self._corners(x)
        y = np.maximum(np.maximum(a, b), np.maximum(c, d))
        if cache is not None:
            # masks[k]: corner k is the first corner holding the max
            first = a == y
            rest = ~first
            masks = [first]
            for corner in (b, c):
                first = corner == y
                first &= rest
                rest ^= first
                masks.append(first)
            masks.append(rest)
            cache["masks"] = masks
            cache["x_shape"] = x.shape
        return y

    def backward(
        self, dy: np.ndarray, cache: dict, need_dx: bool = True
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        if not need_dx:
            return None, {}
        dx = np.zeros(cache["x_shape"], dtype=dy.dtype)
        for view, mask in zip(self._corners(dx), cache["masks"]):
            np.multiply(dy, mask, out=view)
        dx += 0.0  # the -0.0 of a negative dy times False becomes +0.0
        return dx, {}


class Flatten:
    kind = "flatten"
    params: dict[str, np.ndarray] = {}

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(in_shape)),)

    def forward(self, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
        if cache is not None:
            cache["x_shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(
        self, dy: np.ndarray, cache: dict, need_dx: bool = True
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        return (dy.reshape(cache["x_shape"]) if need_dx else None), {}


class Dense:
    kind = "dense"

    def __init__(self, w: np.ndarray, b: np.ndarray, relu: bool = False):
        self.w = np.asarray(w)  # (n_in, n_out)
        self.b = np.asarray(b)
        self.relu = relu
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ValueError(f"bad dense shapes w={self.w.shape} b={self.b.shape}")

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if in_shape != (self.w.shape[0],):
            raise ValueError(f"dense expects {self.w.shape[0]} inputs, got {in_shape}")
        return (self.w.shape[1],)

    def forward(self, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
        z = x @ self.w
        z += self.b
        if cache is not None:
            cache["x"] = x
            if self.relu:
                cache["mask"] = z > 0
        if self.relu:
            np.maximum(z, 0, out=z)
        return z

    def backward(
        self, dy: np.ndarray, cache: dict, need_dx: bool = True
    ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        if self.relu:
            dy *= cache["mask"]
        dw = cache["x"].T @ dy
        db = _bias_grad(dy)
        dx = dy @ self.w.T if need_dx else None
        return dx, {"w": dw, "b": db}

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}


Layer = Conv2D | MaxPool2 | Flatten | Dense


@dataclass(eq=False)
class VoiceModel:
    """An ordered layer stack mapping one spectrogram to two class logits."""

    layers: list[Layer]
    input_shape: tuple[int, int]
    version: str = "1"

    def __post_init__(self) -> None:
        shape: tuple[int, ...] = (*self.input_shape, 1)
        try:
            for layer in self.layers:
                shape = layer.out_shape(shape)
        except ValueError as exc:
            raise ShapeMismatch(f"layer stack does not chain: {exc}") from exc
        if shape != (2,):
            raise ShapeMismatch(f"stack must end in 2 class logits, ends in {shape}")

    @property
    def dtype(self) -> np.dtype:
        for layer in self.layers:
            for arr in layer.params.values():
                return arr.dtype
        return np.dtype(np.float32)

    def forward(self, x: np.ndarray, caches: list[dict] | None = None) -> np.ndarray:
        """Batch forward pass; x has shape (n, frames, bins, 1)."""
        for layer in self.layers:
            if caches is None:
                x = layer.forward(x, None)
            else:
                cache: dict = {}
                x = layer.forward(x, cache)
                caches.append(cache)
        return x

    def backward(self, dlogits: np.ndarray, caches: list[dict]) -> list[dict[str, np.ndarray]]:
        """Per-layer parameter gradients, aligned with self.layers.

        The first layer's input gradient is not computed: no layer
        before it has parameters to update.
        """
        grads: list[dict[str, np.ndarray]] = [None] * len(self.layers)  # type: ignore[list-item]
        dy = np.array(dlogits)  # the layers may overwrite the gradient they are handed
        for i in range(len(self.layers) - 1, -1, -1):
            dy, grads[i] = self.layers[i].backward(dy, caches[i], need_dx=i > 0)
            caches[i].clear()
        return grads

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params.items():
                out.append((f"layer{i}.{name}", arr))
        return out

    def get_weights(self) -> list[np.ndarray]:
        return [arr.copy() for _, arr in self.parameters()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"expected {len(params)} tensors, got {len(weights)}")
        for (_, arr), new in zip(params, weights):
            if arr.shape != new.shape:
                raise ValueError(f"shape mismatch {arr.shape} vs {new.shape}")
            arr[...] = new

    def astype(self, dtype) -> "VoiceModel":
        """Copy of the model with weights cast to dtype (float64 for checks)."""
        layers: list[Layer] = []
        for layer in self.layers:
            if isinstance(layer, Conv2D):
                layers.append(Conv2D(layer.w.astype(dtype), layer.b.astype(dtype), layer.relu))
            elif isinstance(layer, Dense):
                layers.append(Dense(layer.w.astype(dtype), layer.b.astype(dtype), layer.relu))
            elif isinstance(layer, MaxPool2):
                layers.append(MaxPool2())
            else:
                layers.append(Flatten())
        return VoiceModel(layers=layers, input_shape=self.input_shape, version=self.version)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def classify_window(
    spec: Spectrogram, model: VoiceModel, workspace: WindowWorkspace | None = None
) -> float:
    """Probability that the window holds a human voice.

    Deterministic forward pass over the log-compressed spectrogram;
    raises ShapeMismatch when the spectrogram does not fit the model.
    The model input is written to an array of `workspace`, or of a fresh one
    when none is given.
    """
    if spec.shape != model.input_shape:
        raise ShapeMismatch(
            f"spectrogram shape {spec.shape} does not match model input {model.input_shape}"
        )
    ws = WindowWorkspace() if workspace is None else workspace
    x = ws.array("model_input", (1, *spec.shape, 1), model.dtype)
    spec.model_input(out=x[0, :, :, 0])
    logits = model.forward(x)
    return float(softmax(logits)[0, VOICE_CLASS])


def default_voice_model(
    input_shape: tuple[int, int] = (61, 257),
    seed: int = 0,
    dtype=np.float32,
) -> VoiceModel:
    """The standard conv stack with seeded He-normal initialisation; inputs under 10 x 10 raise ShapeMismatch."""
    h, w = input_shape
    h1, w1 = (h - 2) // 2, (w - 2) // 2
    h2, w2 = (h1 - 2) // 2, (w1 - 2) // 2
    if h2 < 1 or w2 < 1:
        raise ShapeMismatch(f"input {input_shape} is too small for two conv+pool stages")
    flat = h2 * w2 * 16
    rng = np.random.default_rng(seed)

    def he(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)

    layers: list[Layer] = [
        Conv2D(he((3, 3, 1, 8), 9), np.full(8, 0.01, dtype=dtype), relu=True),
        MaxPool2(),
        Conv2D(he((3, 3, 8, 16), 72), np.full(16, 0.01, dtype=dtype), relu=True),
        MaxPool2(),
        Flatten(),
        Dense(he((flat, 32), flat), np.full(32, 0.01, dtype=dtype), relu=True),
        Dense(he((32, 2), 32), np.zeros(2, dtype=dtype), relu=False),
    ]
    return VoiceModel(layers=layers, input_shape=input_shape)


BAND_SPLIT_BIN = 64
BAND_MARGIN = 0.25
BAND_GAIN = 6.0


def band_contrast_model(input_shape: tuple[int, int] = (61, 257)) -> VoiceModel:
    """Fixed-weight model comparing low-band and high-band energy.

    The voice logit is BAND_GAIN * (mean log-magnitude below bin
    BAND_SPLIT_BIN - mean log-magnitude from it up - BAND_MARGIN); the
    other logit is zero. Useful as a deterministic classifier for fixtures
    and simulations: harmonic signals concentrate energy below the split
    bin, wide-band noise does not.
    """
    frames, bins = input_shape
    w = np.zeros((frames * bins, 2), dtype=np.float32)
    per_bin = np.zeros(bins, dtype=np.float32)
    per_bin[:BAND_SPLIT_BIN] = BAND_GAIN / (frames * BAND_SPLIT_BIN)
    per_bin[BAND_SPLIT_BIN:] = -BAND_GAIN / (frames * (bins - BAND_SPLIT_BIN))
    w[:, VOICE_CLASS] = np.tile(per_bin, frames)
    b = np.array([0.0, -BAND_GAIN * BAND_MARGIN], dtype=np.float32)
    return VoiceModel(
        layers=[Flatten(), Dense(w, b, relu=False)],
        input_shape=input_shape,
        version="band-contrast",
    )


# ---------------------------------------------------------------------------
# Model container: magic, format version, JSON architecture header, then
# shape-tagged little-endian float32 tensors in layer order.


def save_model(model: VoiceModel, path: str | Path) -> None:
    meta = {
        "version_tag": model.version,
        "input_shape": list(model.input_shape),
        "layers": [
            {"kind": layer.kind, **({"relu": layer.relu} if hasattr(layer, "relu") else {})}
            for layer in model.layers
        ],
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks = [MODEL_MAGIC, struct.pack("<I", MODEL_FORMAT_VERSION)]
    chunks.append(struct.pack("<I", len(meta_bytes)))
    chunks.append(meta_bytes)
    params = model.parameters()
    chunks.append(struct.pack("<I", len(params)))
    for name, arr in params:
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_model(path: str | Path) -> VoiceModel:
    raw = Path(path).read_bytes()
    view = memoryview(raw)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise BadModelFile(f"{path}: truncated at byte {pos}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(len(MODEL_MAGIC))) != MODEL_MAGIC:
        raise BadModelFile(f"{path}: not a voice model container")
    (fmt,) = struct.unpack("<I", take(4))
    if fmt != MODEL_FORMAT_VERSION:
        raise BadModelFile(f"{path}: unsupported container version {fmt}")
    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = decode_json(bytes(take(meta_len)).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise BadModelFile(f"{path}: bad metadata: {exc}") from exc
    (count,) = struct.unpack("<I", take(4))
    tensors: list[np.ndarray] = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        take(name_len)  # names are informational; order is authoritative
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        size = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(4 * size), dtype="<f4").reshape(shape)
        tensors.append(np.array(data, dtype=np.float32))
    if pos != len(view):
        raise BadModelFile(f"{path}: {len(view) - pos} trailing bytes")

    layers: list[Layer] = []
    it = iter(tensors)
    try:
        meta = as_object(meta, "metadata")
        for spec in as_list(meta["layers"], "layers"):
            spec = as_object(spec, "layer")
            kind = as_str(spec["kind"], "kind")
            relu = as_bool(spec.get("relu", kind == "conv2d"), "relu")
            if kind == "conv2d":
                layers.append(Conv2D(next(it), next(it), relu=relu))
            elif kind == "dense":
                layers.append(Dense(next(it), next(it), relu=relu))
            elif kind == "maxpool2":
                layers.append(MaxPool2())
            elif kind == "flatten":
                layers.append(Flatten())
            else:
                raise BadModelFile(f"{path}: unknown layer kind {kind!r}")
        leftovers = sum(1 for _ in it)
        if leftovers:
            raise BadModelFile(f"{path}: {leftovers} unclaimed tensors")
        shape = [as_int(v, "input_shape item") for v in as_list(meta["input_shape"], "input_shape")]
        if len(shape) != 2 or min(shape) < 1:
            raise ValueError(f"input_shape must be two positive integers, got {shape}")
        model = VoiceModel(
            layers=layers,
            input_shape=(shape[0], shape[1]),
            version=as_str(meta.get("version_tag", "1"), "version_tag"),
        )
    except (KeyError, StopIteration, ValueError, ShapeMismatch) as exc:
        raise BadModelFile(f"{path}: inconsistent container: {exc}") from exc
    return model
