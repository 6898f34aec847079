from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from invigil.audio.dsp import (
    PcmWindow,
    Spectrogram,
    WindowTooShort,
    hann_window,
    spectrogram_shape,
    stft_spectrogram,
)


def _rel_err(got, want):
    scale = max(np.max(np.abs(want)), 1e-12)
    return np.max(np.abs(got - want)) / scale


# ---------------------------------------------------------------------------
# Transform core, one frame at a time through stft_spectrogram


def _one_frame(x: np.ndarray) -> np.ndarray:
    """Magnitudes of the single frame spanning x."""
    n = x.shape[0]
    return stft_spectrogram(PcmWindow(samples=x, sample_rate=n), frame_len=n, hop=n).magnitudes[0]


@pytest.mark.parametrize("n", [2, 4, 8, 32, 128, 512])
def test_fft_matches_direct_dft(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    want = np.abs(oracles.dft_naive(x * hann_window(n)))[: n // 2 + 1]
    assert _rel_err(_one_frame(x), want) < 1e-9


def test_fft_batches_rows_independently():
    rng = np.random.default_rng(9)
    samples = rng.standard_normal(32 * 5)
    batched = stft_spectrogram(PcmWindow(samples=samples, sample_rate=160), frame_len=32, hop=32)
    for i in range(5):
        assert np.array_equal(batched.magnitudes[i], _one_frame(samples[32 * i : 32 * (i + 1)]))


def test_fft_parseval():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal(1024)
    spec = stft_spectrogram(PcmWindow(samples=samples, sample_rate=1024), frame_len=256, hop=128)
    power = spec.magnitudes**2
    # the half-spectrum holds bins 0 and N/2 once and every other bin's mirror twice
    full = power[:, 0] + power[:, -1] + 2.0 * power[:, 1:-1].sum(axis=1)
    frames = np.lib.stride_tricks.sliding_window_view(samples, 256)[::128]
    # unnormalised transform: sum |X|^2 = N sum |w x|^2
    want = 256 * np.sum((frames * hann_window(256)) ** 2, axis=1)
    assert np.allclose(full, want, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fft_linearity(seed):
    # magnitudes of a linear transform scale with |c| and obey the
    # parallelogram law |X(a+b)|^2 + |X(a-b)|^2 = 2|X(a)|^2 + 2|X(b)|^2
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 64))
    assert _rel_err(_one_frame(-2.5 * a), 2.5 * _one_frame(a)) < 1e-9
    lhs = _one_frame(a + b) ** 2 + _one_frame(a - b) ** 2
    rhs = 2.0 * _one_frame(a) ** 2 + 2.0 * _one_frame(b) ** 2
    assert _rel_err(lhs, rhs) < 1e-9


def test_fft_impulse_is_flat():
    x = np.zeros(32)
    x[16] = 1.0
    # an impulse keeps its window weight in every bin
    assert np.allclose(_one_frame(x), np.full(17, hann_window(32)[16]))


# ---------------------------------------------------------------------------
# Hann window


def test_hann_endpoints_and_symmetry():
    w = hann_window(512)
    assert w[0] == 0.0 and w[-1] == 0.0
    assert np.allclose(w, w[::-1])
    assert np.all((w >= 0.0) & (w <= 1.0))


def test_hann_odd_length_peaks_at_one():
    w = hann_window(33)
    assert w[16] == pytest.approx(1.0)


def test_hann_length_one():
    assert np.array_equal(hann_window(1), np.ones(1))


def test_hann_is_computed_once_and_read_only():
    w = hann_window(512)
    assert hann_window(512) is w
    with pytest.raises(ValueError):
        w[0] = 1.0


# ---------------------------------------------------------------------------
# Spectrogram


def test_default_shape_is_61_by_257():
    window = PcmWindow(samples=np.zeros(16000))
    spec = stft_spectrogram(window)
    assert spec.shape == (61, 257)
    assert spectrogram_shape(16000) == (61, 257)


def test_stft_matches_naive_oracle_small():
    rng = np.random.default_rng(0xD5B)
    samples = rng.uniform(-1, 1, 2048)
    window = PcmWindow(samples=samples, sample_rate=2048)
    spec = stft_spectrogram(window, frame_len=256, hop=128)
    want = oracles.stft_naive(samples, 256, 128)
    assert spec.magnitudes.shape == want.shape
    assert _rel_err(spec.magnitudes, want) < 1e-6


def test_stft_matches_naive_oracle_default_frame():
    rng = np.random.default_rng(0xD5C)
    samples = rng.uniform(-1, 1, 1024)
    window = PcmWindow(samples=samples, sample_rate=1024)
    spec = stft_spectrogram(window)
    want = oracles.stft_naive(samples, 512, 256)
    assert _rel_err(spec.magnitudes, want) < 1e-6


def test_sine_tone_peaks_at_expected_bin():
    t = np.arange(16000) / 16000.0
    window = PcmWindow(samples=0.5 * np.sin(2 * np.pi * 1000.0 * t))
    spec = stft_spectrogram(window)
    # 1000 Hz at 16 kHz with 512-point frames: bin 1000 * 512 / 16000 = 32
    peaks = np.argmax(spec.magnitudes, axis=1)
    assert np.all(peaks == 32)


def test_stft_rejects_bad_frame_len_and_hop():
    window = PcmWindow(samples=np.zeros(16000))
    with pytest.raises(ValueError):
        stft_spectrogram(window, frame_len=300)
    with pytest.raises(ValueError):
        stft_spectrogram(window, frame_len=1)
    with pytest.raises(ValueError):
        stft_spectrogram(window, hop=0)
    with pytest.raises(ValueError):
        stft_spectrogram(window, frame_len=256, hop=512)


def test_window_shorter_than_frame_rejected():
    window = PcmWindow(samples=np.zeros(256), sample_rate=256)
    with pytest.raises(WindowTooShort):
        stft_spectrogram(window, frame_len=512)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([512, 1024, 2048, 4096]),
    st.sampled_from([64, 128, 256]),
    st.sampled_from([1, 2, 4]),
)
def test_shape_helper_agrees_with_output(n, frame_len, hop_divisor):
    hop = frame_len // hop_divisor
    window = PcmWindow(samples=np.zeros(n), sample_rate=n)
    spec = stft_spectrogram(window, frame_len=frame_len, hop=hop)
    assert spec.shape == spectrogram_shape(n, frame_len, hop)


def test_model_input_is_log1p():
    spec = Spectrogram(magnitudes=np.full((3, 257), 2.0), frame_len=512, hop=256)
    assert np.array_equal(spec.model_input(), np.log1p(np.full((3, 257), 2.0)))


def test_magnitudes_nonnegative():
    rng = np.random.default_rng(4)
    window = PcmWindow(samples=rng.uniform(-1, 1, 16000))
    assert np.all(stft_spectrogram(window).magnitudes >= 0.0)


# ---------------------------------------------------------------------------
# Value objects


def test_pcm_window_validates_length():
    with pytest.raises(ValueError):
        PcmWindow(samples=np.zeros(15999))
    with pytest.raises(ValueError):
        PcmWindow(samples=np.zeros((2, 16000)))
    with pytest.raises(ValueError):
        PcmWindow(samples=np.zeros(100), sample_rate=0)


def test_pcm_window_equality():
    a = PcmWindow(samples=np.zeros(100), sample_rate=100)
    b = PcmWindow(samples=np.zeros(100), sample_rate=100)
    c = PcmWindow(samples=np.ones(100), sample_rate=100)
    assert a == b and a != c


def test_spectrogram_validates_bin_count():
    with pytest.raises(ValueError):
        Spectrogram(magnitudes=np.zeros((3, 100)), frame_len=512, hop=256)


def test_spectrogram_equality():
    m = np.arange(6.0).reshape(3, 2)
    a = Spectrogram(magnitudes=m, frame_len=2, hop=1)
    b = Spectrogram(magnitudes=m.copy(), frame_len=2, hop=1)
    assert a == b
    assert a != Spectrogram(magnitudes=m + 1, frame_len=2, hop=1)
