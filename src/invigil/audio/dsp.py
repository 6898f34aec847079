"""Spectrogram front end for one-second audio windows.

Frames are strided views of the window and the transform is numpy's
real FFT. Convention: symmetric Hann window, unnormalised forward
transform, magnitudes of the non-negative frequency bins 0..N/2. With
that convention a frame's full spectrum satisfies
sum_k |X_k|^2 = N * sum_n |w_n x_n|^2; the tests check the result
against a direct DFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EngineError, arrays_eq

DEFAULT_FRAME_LEN = 512
DEFAULT_HOP = 256


class WindowTooShort(EngineError):
    """The audio window holds fewer samples than one analysis frame."""


@dataclass(frozen=True, eq=False)
class PcmWindow:
    """Exactly one second of mono samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int = 16_000

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if arr.ndim != 1 or arr.shape[0] != self.sample_rate:
            raise ValueError(
                f"window must hold exactly {self.sample_rate} samples, got shape {arr.shape}"
            )
        object.__setattr__(self, "samples", arr)

    __eq__ = arrays_eq


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Magnitude matrix, frames by frequency bins (frame_len/2 + 1)."""

    magnitudes: np.ndarray
    frame_len: int
    hop: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.magnitudes, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"magnitudes must be a 2-d matrix, got shape {arr.shape}")
        if arr.shape[1] != self.frame_len // 2 + 1:
            raise ValueError(
                f"expected {self.frame_len // 2 + 1} bins for frame_len {self.frame_len}, "
                f"got {arr.shape[1]}"
            )
        object.__setattr__(self, "magnitudes", arr)

    __eq__ = arrays_eq

    @property
    def shape(self) -> tuple[int, int]:
        return self.magnitudes.shape  # type: ignore[return-value]

    def model_input(self, out: np.ndarray | None = None) -> np.ndarray:
        """Log-compressed magnitudes, log(1 + m), as fed to the classifier.

        Written to `out` when it is given, else to a new array.
        """
        return np.log1p(self.magnitudes, out=out)


def spectrogram_shape(n_samples: int, frame_len: int = DEFAULT_FRAME_LEN, hop: int = DEFAULT_HOP) -> tuple[int, int]:
    """(frames, bins) produced by stft_spectrogram for the given sizes."""
    return (n_samples - frame_len) // hop + 1, frame_len // 2 + 1


def hann_window(n: int) -> np.ndarray:
    """Symmetric Hann window, 0.5 - 0.5 cos(2 pi k / (n - 1))."""
    if n == 1:
        return np.ones(1)
    k = np.arange(n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / (n - 1))


class WindowWorkspace:
    """The arrays one audio window at a time is analysed in.

    `array(name, shape, dtype)` returns the same array every time it is
    asked for the same name, shape and dtype, and `hann(n)` computes each
    window function once. A replay passes one workspace to every window,
    so the STFT and the classifier input of a window allocate nothing:
    each window overwrites the arrays the previous one filled.
    """

    def __init__(self) -> None:
        self._arrays: dict[tuple, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        key = (name, shape, np.dtype(dtype))
        arr = self._arrays.get(key)
        if arr is None:
            arr = self._arrays[key] = np.empty(shape, dtype)
        return arr

    def hann(self, n: int) -> np.ndarray:
        key = ("hann", n)
        arr = self._arrays.get(key)
        if arr is None:
            arr = self._arrays[key] = hann_window(n)
        return arr


def stft_spectrogram(
    window: PcmWindow,
    frame_len: int = DEFAULT_FRAME_LEN,
    hop: int = DEFAULT_HOP,
    workspace: WindowWorkspace | None = None,
) -> Spectrogram:
    """Hann-windowed short-time transform, magnitudes of bins 0..frame_len/2.

    frame_len must be a power of two and 0 < hop <= frame_len. A
    16000-sample window at the 512/256 defaults yields a 61 x 257
    matrix.

    The windowed frames, the spectrum and the magnitudes are written to
    arrays of `workspace`, or of a fresh one when none is given. The
    returned Spectrogram holds the workspace's magnitude array, so the
    next window through the same workspace overwrites it.
    """
    if frame_len < 2 or frame_len & (frame_len - 1):
        raise ValueError(f"frame_len must be a power of two, got {frame_len}")
    if not (0 < hop <= frame_len):
        raise ValueError(f"hop must satisfy 0 < hop <= frame_len, got {hop}")
    samples = window.samples
    n = samples.shape[0]
    if n < frame_len:
        raise WindowTooShort(f"window of {n} samples is shorter than one {frame_len}-sample frame")
    ws = WindowWorkspace() if workspace is None else workspace
    frames = np.lib.stride_tricks.sliding_window_view(samples, frame_len)[::hop]
    shape = spectrogram_shape(n, frame_len, hop)
    windowed = np.multiply(frames, ws.hann(frame_len), out=ws.array("frames", frames.shape))
    spectrum = np.fft.rfft(windowed, axis=-1, out=ws.array("spectrum", shape, np.complex128))
    mags = np.abs(spectrum, out=ws.array("magnitudes", shape))
    return Spectrogram(magnitudes=mags, frame_len=frame_len, hop=hop)
