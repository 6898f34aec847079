"""Spectrogram front end for one-second audio windows.

Frames are strided views of the window and the transform is numpy's
real FFT. Convention: symmetric Hann window, unnormalised forward
transform, magnitudes of the non-negative frequency bins 0..N/2. With
that convention a frame's full spectrum satisfies
sum_k |X_k|^2 = N * sum_n |w_n x_n|^2; the tests check the result
against a direct DFT.
"""

from __future__ import annotations

import functools
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


@functools.cache
def hann_window(n: int) -> np.ndarray:
    """Symmetric Hann window, 0.5 - 0.5 cos(2 pi k / (n - 1)); cached, so read-only."""
    if n == 1:
        arr = np.ones(1)
    else:
        k = np.arange(n)
        arr = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / (n - 1))
    arr.flags.writeable = False
    return arr


def stft_spectrogram(
    window: PcmWindow,
    frame_len: int = DEFAULT_FRAME_LEN,
    hop: int = DEFAULT_HOP,
) -> Spectrogram:
    """Hann-windowed short-time transform, magnitudes of bins 0..frame_len/2.

    frame_len must be a power of two and 0 < hop <= frame_len. A
    16000-sample window at the 512/256 defaults yields a 61 x 257
    matrix, in a new array that belongs to the caller.
    """
    if frame_len < 2 or frame_len & (frame_len - 1):
        raise ValueError(f"frame_len must be a power of two, got {frame_len}")
    if not (0 < hop <= frame_len):
        raise ValueError(f"hop must satisfy 0 < hop <= frame_len, got {hop}")
    samples = window.samples
    n = samples.shape[0]
    if n < frame_len:
        raise WindowTooShort(f"window of {n} samples is shorter than one {frame_len}-sample frame")
    frames = np.lib.stride_tricks.sliding_window_view(samples, frame_len)[::hop]
    mags = np.abs(np.fft.rfft(frames * hann_window(frame_len), axis=-1))
    return Spectrogram(magnitudes=mags, frame_len=frame_len, hop=hop)
