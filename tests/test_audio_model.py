from __future__ import annotations

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invigil.audio.dsp import PcmWindow, Spectrogram, WindowWorkspace, stft_spectrogram
from invigil.audio.model import (
    BadModelFile,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2,
    ShapeMismatch,
    VoiceModel,
    _bias_grad,
    band_contrast_model,
    classify_window,
    default_voice_model,
    load_model,
    save_model,
    softmax,
)
from invigil.audio.train import TrainingConfig, train_voice_model
from oracles import Conv2DOracle, DenseOracle, MaxPool2Oracle, conv2d_dx_strided


def _spec(samples: np.ndarray, rate: int = 16000) -> Spectrogram:
    return stft_spectrogram(PcmWindow(samples=samples, sample_rate=rate))


# ---------------------------------------------------------------------------
# Forward pass and shapes


def test_default_model_forward_shape():
    m = default_voice_model(seed=3)
    x = np.zeros((2, 61, 257, 1), dtype=np.float32)
    assert m.forward(x).shape == (2, 2)


def test_forward_appends_one_cache_per_layer():
    m = default_voice_model(seed=3)
    x = np.random.default_rng(5).standard_normal((1, 61, 257, 1)).astype(np.float32)
    caches: list[dict] = []
    logits = m.forward(x, caches)
    assert len(caches) == len(m.layers)
    assert all(isinstance(c, dict) for c in caches)
    # analyze classifies one window at a time without caches: the same bytes
    assert m.forward(x).tobytes() == logits.tobytes()


def test_forward_is_deterministic():
    m = default_voice_model(seed=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 61, 257, 1)).astype(np.float32)
    assert np.array_equal(m.forward(x), m.forward(x))


def test_model_rejects_mismatched_stack():
    with pytest.raises(ShapeMismatch):
        VoiceModel(
            layers=[Flatten(), Dense(np.zeros((10, 2)), np.zeros(2))],
            input_shape=(61, 257),
        )


def test_classify_window_bounds_and_shape_check():
    m = default_voice_model(seed=2)
    rng = np.random.default_rng(1)
    p = classify_window(_spec(rng.uniform(-1, 1, 16000)), m)
    assert 0.0 <= p <= 1.0
    small = Spectrogram(magnitudes=np.zeros((10, 257)), frame_len=512, hop=256)
    with pytest.raises(ShapeMismatch):
        classify_window(small, m)


def test_one_workspace_gives_the_fresh_probability_for_every_window(tmp_path, audio_pool):
    # a replay analyses all its windows in one workspace; no value of one
    # window may leak into the next, whatever model or dtype ran last
    conv_path = tmp_path / "conv.mdl"
    save_model(default_voice_model(seed=5), conv_path)
    models = [
        band_contrast_model(),
        default_voice_model(),
        load_model(conv_path),
        band_contrast_model().astype(np.float64),
    ]
    short = band_contrast_model(input_shape=(30, 257))
    rng = np.random.default_rng(9)
    windows = [
        audio_pool["voiced"],
        audio_pool["unvoiced"],
        np.zeros(16000),
        audio_pool["quiet"],
        rng.uniform(-1, 1, 16000),
        audio_pool["voiced2"],
    ]
    ws = WindowWorkspace()
    for i, samples in enumerate(windows):
        spec = stft_spectrogram(PcmWindow(samples=samples), workspace=ws)
        if i == 3:
            with pytest.raises(ShapeMismatch):
                classify_window(spec, short, workspace=ws)
        for m in models:
            fresh_spec = stft_spectrogram(PcmWindow(samples=samples))
            fresh = classify_window(fresh_spec, m)
            assert classify_window(spec, m, workspace=ws) == fresh
            # the same arithmetic as building the model input with astype
            x = fresh_spec.model_input()[None, :, :, None].astype(m.dtype)
            assert fresh == float(softmax(m.forward(x))[0, 1])
    # the spectrogram of a window lives in the workspace until the next one
    assert spec.magnitudes is ws.array("magnitudes", spec.shape)


def test_softmax_properties():
    logits = np.array([[1.0, 3.0], [1000.0, 1001.0], [-5.0, -5.0]])
    p = softmax(logits)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p > 0)
    assert np.allclose(softmax(logits + 100.0), p)
    assert p[2, 0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Layer gradients vs central differences


def _num_grad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def _check_layer(layer, x, seed=0):
    cache: dict = {}
    y = layer.forward(x, cache)
    rng = np.random.default_rng(seed)
    dy = rng.standard_normal(y.shape)
    dx, grads = layer.backward(dy.copy(), cache)

    def loss():
        return float(np.sum(layer.forward(x, None) * dy))

    num_dx = _num_grad(loss, x)
    assert np.allclose(dx, num_dx, rtol=1e-5, atol=1e-7)
    for name, g in grads.items():
        num = _num_grad(loss, layer.params[name])
        assert np.allclose(g, num, rtol=1e-5, atol=1e-7), name
    # without the input gradient, the parameter gradients are the same bytes;
    # backward overwrites its cache, so the forward pass fills a fresh one
    cache = {}
    layer.forward(x, cache)
    no_dx, same = layer.backward(dy.copy(), cache, need_dx=False)
    assert no_dx is None
    assert {k: v.tobytes() for k, v in same.items()} == {k: v.tobytes() for k, v in grads.items()}


def test_dense_gradients():
    rng = np.random.default_rng(10)
    layer = Dense(rng.standard_normal((6, 4)), rng.standard_normal(4), relu=False)
    _check_layer(layer, rng.standard_normal((3, 6)))


def test_dense_relu_gradients():
    rng = np.random.default_rng(11)
    layer = Dense(rng.standard_normal((5, 3)), rng.standard_normal(3), relu=True)
    # keep pre-activations away from the ReLU kink
    x = rng.standard_normal((4, 5)) + 0.5
    _check_layer(layer, x)


def test_conv_gradients():
    rng = np.random.default_rng(12)
    layer = Conv2D(rng.standard_normal((3, 3, 2, 3)), rng.standard_normal(3), relu=False)
    _check_layer(layer, rng.standard_normal((2, 5, 6, 2)))


def test_maxpool_routes_gradient_to_argmax():
    x = np.array([[[[1.0], [4.0]], [[3.0], [2.0]]]])  # (1, 2, 2, 1)
    layer = MaxPool2()
    cache: dict = {}
    y = layer.forward(x, cache)
    assert y[0, 0, 0, 0] == 4.0
    dx, _ = layer.backward(np.array([[[[7.0]]]]), cache)
    expected = np.zeros_like(x)
    expected[0, 0, 1, 0] = 7.0
    assert np.array_equal(dx, expected)


def test_maxpool_forward_same_with_and_without_cache():
    rng = np.random.default_rng(17)
    # small integers make ties inside pooling patches common
    x = rng.integers(-3, 4, size=(2, 9, 11, 3)).astype(np.float32)
    layer = MaxPool2()
    cache: dict = {}
    with_cache = layer.forward(x, cache)
    without = layer.forward(x)
    assert with_cache.dtype == without.dtype == np.float32
    assert with_cache.tobytes() == without.tobytes()
    # the cached masks mark one corner per output: the oracle's argmax,
    # which holds the max
    oracle_cache: dict = {}
    MaxPool2Oracle().forward(x, oracle_cache)
    idx = oracle_cache["idx"][:, :, :, None, :]
    assert np.array_equal(np.stack(cache["masks"], axis=3), np.arange(4)[:, None] == idx)
    gathered = np.take_along_axis(MaxPool2Oracle.patches(x), idx, axis=3)
    assert gathered[:, :, :, 0, :].tobytes() == without.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 9, 11, 3), (3, 8, 6, 2), (1, 59, 255, 8), (2, 2, 3, 1)])
def test_maxpool_matches_oracle_bit_for_bit(dtype, shape):
    rng = np.random.default_rng(18)
    # integer values and both signed zeros: most patches hold ties
    x = rng.choice(np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]), size=shape).astype(dtype)
    cache: dict = {}
    oracle_cache: dict = {}
    y = MaxPool2().forward(x, cache)
    expected = MaxPool2Oracle().forward(x, oracle_cache)
    assert y.dtype == expected.dtype == dtype
    assert y.tobytes() == expected.tobytes()
    # negative dy: the zeros of dx must be +0.0, as the oracle writes them
    dy = rng.standard_normal(y.shape).astype(dtype)
    dx, _ = MaxPool2().backward(dy.copy(), cache)
    expected_dx, _ = MaxPool2Oracle().backward(dy, oracle_cache)
    assert dx.dtype == dtype
    assert dx.tobytes() == expected_dx.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "x_shape, w_shape",
    [
        ((16, 29, 127, 8), (3, 3, 8, 16)),
        ((10, 61, 257, 1), (3, 3, 1, 8)),
        ((3, 5, 4, 2), (2, 3, 2, 3)),
        ((2, 4, 5, 2), (1, 1, 2, 3)),
    ],
)
def test_conv_input_gradient_matches_strided_col2im_bit_for_bit(dtype, x_shape, w_shape):
    rng = np.random.default_rng(20)
    w = rng.standard_normal(w_shape).astype(dtype)
    b = np.random.default_rng(21).standard_normal(w_shape[3]).astype(dtype)
    conv, oracle = Conv2D(w, b, relu=False), Conv2DOracle(w, b, relu=False)
    x = rng.standard_normal(x_shape).astype(dtype)
    cache: dict = {}
    oracle_cache: dict = {}
    y = conv.forward(x, cache)
    assert y.dtype == dtype
    assert y.tobytes() == oracle.forward(x, oracle_cache).tobytes()
    assert conv.forward(x).tobytes() == y.tobytes()
    dy = rng.standard_normal(y.shape).astype(dtype)
    dx, grads = conv.backward(dy.copy(), cache)
    _, expected_grads = oracle.backward(dy.copy(), oracle_cache)
    assert {k: g.tobytes() for k, g in grads.items()} == {k: g.tobytes() for k, g in expected_grads.items()}
    expected = conv2d_dx_strided(dy, conv.w, x_shape)
    assert dx.dtype == dtype
    assert dx.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "x_dtype, w_dtype, dy_dtype",
    [
        (np.float32, np.float32, np.float64),
        (np.float32, np.float64, np.float64),
        (np.float64, np.float32, np.float64),
    ],
)
def test_conv_with_mixed_dtypes_matches_the_oracle_bit_for_bit(x_dtype, w_dtype, dy_dtype):
    rng = np.random.default_rng(22)
    w = rng.standard_normal((3, 3, 2, 4)).astype(w_dtype)
    b = rng.standard_normal(4).astype(w_dtype)
    conv, oracle = Conv2D(w, b), Conv2DOracle(w, b)
    x = rng.standard_normal((2, 7, 9, 2)).astype(x_dtype)
    cache: dict = {}
    oracle_cache: dict = {}
    y = conv.forward(x, cache)
    assert y.tobytes() == oracle.forward(x, oracle_cache).tobytes()
    dy = rng.standard_normal(y.shape).astype(dy_dtype)
    dx, grads = conv.backward(dy.copy(), cache)
    expected_dx, expected_grads = oracle.backward(dy.copy(), oracle_cache)
    assert dx.dtype == expected_dx.dtype
    assert dx.tobytes() == expected_dx.tobytes()
    assert {k: g.tobytes() for k, g in grads.items()} == {k: g.tobytes() for k, g in expected_grads.items()}


def test_training_with_oracle_pool_gives_the_same_weights():
    shape = (13, 17)  # odd edges at both pools
    rng = np.random.default_rng(19)
    items = [
        (Spectrogram(rng.integers(0, 4, size=shape).astype(np.float64), frame_len=32, hop=16), label)
        for label in ["voice", "non-voice"] * 6
    ]
    hp = TrainingConfig(learning_rate=0.05, batch_size=4, max_epochs=3, patience=3)
    initial = default_voice_model(input_shape=shape, seed=4)
    oracle_layers = [
        MaxPool2Oracle() if isinstance(layer, MaxPool2) else layer for layer in initial.astype(np.float32).layers
    ]
    oracle = VoiceModel(layers=oracle_layers, input_shape=shape)
    model = initial.astype(np.float32)
    trained, history = train_voice_model(items[:10], items[10:], hp=hp, seed=4, model=model)
    trained_oracle, history_oracle = train_voice_model(items[:10], items[10:], hp=hp, seed=4, model=oracle)
    assert history == history_oracle
    weights = [w.tobytes() for w in trained.get_weights()]
    assert weights == [w.tobytes() for w in trained_oracle.get_weights()]
    assert weights != [w.tobytes() for w in initial.get_weights()]


def _oracle_stack(model: VoiceModel) -> VoiceModel:
    """The model's weights, copied into the layers as first written."""
    layers = []
    for layer in model.layers:
        if isinstance(layer, Conv2D):
            layers.append(Conv2DOracle(layer.w.copy(), layer.b.copy(), layer.relu))
        elif isinstance(layer, Dense):
            layers.append(DenseOracle(layer.w.copy(), layer.b.copy(), layer.relu))
        elif isinstance(layer, MaxPool2):
            layers.append(MaxPool2Oracle())
        else:
            layers.append(Flatten())
    return VoiceModel(layers=layers, input_shape=model.input_shape)


def test_training_at_the_bench_shape_matches_the_oracle_layers_bit_for_bit():
    # 29 training windows in batches of 16 and 13, as the bench trains them
    rng = np.random.default_rng(21)
    items = [
        (Spectrogram(rng.uniform(0.0, 3.0, size=(61, 257)), frame_len=512, hop=256), label)
        for label in ["voice", "non-voice"] * 16
    ]
    hp = TrainingConfig(learning_rate=0.05, batch_size=16, max_epochs=2, patience=2)
    model = default_voice_model(seed=7)
    oracle = _oracle_stack(model)
    initial = [w.tobytes() for w in model.get_weights()]
    trained, history = train_voice_model(items[:29], items[29:], hp=hp, seed=7, model=model)
    trained_oracle, history_oracle = train_voice_model(items[:29], items[29:], hp=hp, seed=7, model=oracle)
    assert history == history_oracle
    weights = [w.tobytes() for w in trained.get_weights()]
    assert weights == [w.tobytes() for w in trained_oracle.get_weights()]
    assert weights != initial


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        dtype=st.sampled_from([np.float32, np.float64]),
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=300),
        elements={"allow_nan": False, "allow_infinity": False, "min_value": -1e6, "max_value": 1e6},
    )
)
def test_bias_gradient_is_the_axis0_sum_bit_for_bit(dflat):
    assert _bias_grad(dflat).dtype == dflat.dtype
    assert _bias_grad(dflat).tobytes() == dflat.sum(axis=0).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(240720, 8), (54000, 16), (16, 32), (16, 2), (5000, 1)])
def test_bias_gradient_at_the_bench_shapes(dtype, shape):
    dflat = np.random.default_rng(22).standard_normal(shape).astype(dtype)
    assert _bias_grad(dflat).tobytes() == dflat.sum(axis=0).tobytes()


def test_model_backward_drops_its_caches_and_keeps_dlogits():
    m = default_voice_model(input_shape=(13, 17), seed=2)
    m.layers[-1].relu = True  # its mask would zero entries of dlogits in place
    caches: list[dict] = []
    m.forward(np.random.default_rng(24).standard_normal((2, 13, 17, 1)).astype(np.float32), caches)
    dlogits = np.array([[0.5, -0.5], [-0.25, 0.25]], dtype=np.float32)
    m.backward(dlogits, caches)
    assert caches == [{}] * len(m.layers)
    assert dlogits.tolist() == [[0.5, -0.5], [-0.25, 0.25]]


def test_training_step_peak_memory_at_batch_16():
    # a batch-16 step on the default stack peaked at 54.9 MB when every
    # bias add, ReLU and input-gradient column got a fresh array, and at
    # about 37-40 MB once they reuse their arrays
    m = default_voice_model(seed=1)
    x = np.random.default_rng(25).standard_normal((16, 61, 257, 1)).astype(np.float32)
    dlogits = np.full((16, 2), 1 / 16, dtype=np.float32)
    tracemalloc.start()
    try:
        caches: list[dict] = []
        m.forward(x, caches)
        m.backward(dlogits, caches)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 45e6


def test_maxpool_drops_odd_edges():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((1, 5, 7, 2))
    layer = MaxPool2()
    y = layer.forward(x)
    assert y.shape == (1, 2, 3, 2)
    cache: dict = {}
    layer.forward(x, cache)
    dx, _ = layer.backward(np.ones((1, 2, 3, 2)), cache)
    assert np.all(dx[:, 4, :, :] == 0.0)
    assert np.all(dx[:, :, 6, :] == 0.0)


def test_flatten_round_trip():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 3, 4, 5))
    layer = Flatten()
    cache: dict = {}
    y = layer.forward(x, cache)
    assert y.shape == (2, 60)
    dx, _ = layer.backward(y, cache)
    assert np.array_equal(dx, x)


def test_model_backward_matches_composition():
    rng = np.random.default_rng(15)
    m = VoiceModel(
        layers=[
            Conv2D(rng.standard_normal((3, 3, 1, 2)), rng.standard_normal(2), relu=False),
            MaxPool2(),
            Flatten(),
            Dense(rng.standard_normal((12, 2)), rng.standard_normal(2)),
        ],
        input_shape=(6, 8),
    )
    x = rng.standard_normal((1, 6, 8, 1))
    caches: list[dict] = []
    logits = m.forward(x, caches)
    dlogits = np.array([[1.0, -1.0]])
    grads = m.backward(dlogits, caches)
    assert len(grads) == len(m.layers)

    def loss():
        return float(np.sum(m.forward(x) * dlogits))

    for layer, g in zip(m.layers, grads):
        for name, got in g.items():
            num = _num_grad(loss, layer.params[name])
            assert np.allclose(got, num, rtol=1e-5, atol=1e-7), (layer.kind, name)


# ---------------------------------------------------------------------------
# Band-contrast stand-in


def test_band_contrast_separates_voiced_from_noise(audio_pool):
    m = band_contrast_model()
    p_voiced = classify_window(_spec(audio_pool["voiced"]), m)
    p_unvoiced = classify_window(_spec(audio_pool["unvoiced"]), m)
    p_quiet = classify_window(_spec(audio_pool["quiet"]), m)
    assert p_voiced > 0.5
    assert p_unvoiced < 0.5
    assert p_quiet < 0.5


# ---------------------------------------------------------------------------
# Container round trips


def test_save_load_round_trip(tmp_path):
    m = default_voice_model(seed=42)
    path = tmp_path / "m.ivm"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.input_shape == m.input_shape
    assert loaded.version == m.version
    for (_, a), (_, b) in zip(m.parameters(), loaded.parameters()):
        assert np.array_equal(a, b)
    rng = np.random.default_rng(6)
    spec = _spec(rng.uniform(-0.5, 0.5, 16000))
    assert classify_window(spec, loaded) == classify_window(spec, m)


def test_resave_is_byte_identical(tmp_path):
    m = band_contrast_model()
    p1, p2 = tmp_path / "a.ivm", tmp_path / "b.ivm"
    save_model(m, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ivm"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 32)
    with pytest.raises(BadModelFile, match="container"):
        load_model(path)


def test_load_rejects_truncation(tmp_path):
    m = default_voice_model(seed=0)
    path = tmp_path / "m.ivm"
    save_model(m, path)
    raw = path.read_bytes()
    for cut in (4, len(raw) // 2, len(raw) - 3):
        path.write_bytes(raw[:cut])
        with pytest.raises(BadModelFile):
            load_model(path)


def test_load_rejects_trailing_bytes(tmp_path):
    m = band_contrast_model()
    path = tmp_path / "m.ivm"
    save_model(m, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(BadModelFile, match="trailing"):
        load_model(path)


def test_load_rejects_future_format_version(tmp_path):
    m = band_contrast_model()
    path = tmp_path / "m.ivm"
    save_model(m, path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(BadModelFile, match="version"):
        load_model(path)


def _with_metadata(path, meta) -> None:
    """Replace the JSON metadata of the container at `path`; a str is written as is."""
    raw = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", raw, 12)
    body = (meta if isinstance(meta, str) else json.dumps(meta)).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<I", len(body)) + body + raw[16 + meta_len :])


_BAND_LAYERS = [{"kind": "flatten"}, {"kind": "dense", "relu": False}]


@pytest.mark.parametrize(
    "meta, message",
    [
        ([], "inconsistent container: metadata must be an object"),
        ({"layers": 5, "input_shape": [61, 257]}, "inconsistent container: layers must be a list"),
        ({"layers": ["flatten", "dense"], "input_shape": [61, 257]}, "inconsistent container: layer must be an object"),
        ({"layers": [{"kind": 5}, _BAND_LAYERS[1]], "input_shape": [61, 257]}, "inconsistent container: kind must be a string, got 5"),
        (
            {"layers": [_BAND_LAYERS[0], {"kind": "dense", "relu": "false"}], "input_shape": [61, 257]},
            "inconsistent container: relu must be true or false, got 'false'",
        ),
        ({"layers": _BAND_LAYERS, "input_shape": "61x257"}, "inconsistent container: input_shape must be a list"),
        ({"layers": _BAND_LAYERS, "input_shape": [61, 257.0]}, "inconsistent container: input_shape item must be an integer, got 257.0"),
        ({"layers": _BAND_LAYERS, "input_shape": [61, 257, 1]}, "inconsistent container: input_shape must be two positive integers"),
        ({"layers": _BAND_LAYERS, "input_shape": [-61, -257]}, "inconsistent container: input_shape must be two positive integers"),
        ({"layers": _BAND_LAYERS, "input_shape": [61, 257], "version_tag": 1}, "inconsistent container: version_tag must be a string, got 1"),
        # raw metadata text: nesting past the recursion limit, an integer beyond float64
        pytest.param("[" * 100_000, "bad metadata: maximum recursion depth exceeded", id="deep-nesting"),
        pytest.param(
            '{"layers": [], "input_shape": [61, 1' + "0" * 400 + "]}",
            "bad metadata: integer with 401 digits is beyond the float64 range",
            id="int-beyond-float64",
        ),
    ],
)
def test_load_rejects_bad_metadata_types(tmp_path, meta, message):
    path = tmp_path / "m.ivm"
    save_model(band_contrast_model(), path)
    _with_metadata(path, {"layers": _BAND_LAYERS, "input_shape": [61, 257]})
    assert load_model(path).input_shape == (61, 257)  # the splice itself keeps a loadable file
    _with_metadata(path, meta)
    with pytest.raises(BadModelFile, match=re.escape(message)):
        load_model(path)


def test_get_set_weights_round_trip():
    a = default_voice_model(seed=1)
    b = default_voice_model(seed=2)
    b.set_weights(a.get_weights())
    x = np.random.default_rng(3).standard_normal((1, 61, 257, 1)).astype(np.float32)
    assert np.array_equal(a.forward(x), b.forward(x))


def test_astype_converts_parameters():
    m = default_voice_model(seed=1)
    m64 = m.astype(np.float64)
    assert m64.dtype == np.float64
    assert m.dtype == np.float32
    for (_, a), (_, b) in zip(m.parameters(), m64.parameters()):
        assert np.allclose(a, b)
