from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invigil.facematch import (
    DEFAULT_FACE_THRESHOLD,
    EMBEDDING_DIM,
    Embedding,
    EmptyReferenceSet,
    NonFiniteInput,
    ReferenceSet,
    Verdict,
    classify_identity,
    euclidean_distance,
    min_reference_distance,
)

import oracles


def _emb(rng, scale=1.0):
    return Embedding(values=rng.standard_normal(EMBEDDING_DIM) * scale)


def test_euclidean_matches_naive_loop(rng):
    for _ in range(50):
        a, b = _emb(rng), _emb(rng)
        got = euclidean_distance(a, b)
        want = oracles.euclid_naive(a.values, b.values)
        assert got == pytest.approx(want, rel=1e-12)


def test_min_reference_distance_matches_naive(rng):
    for _ in range(30):
        probe = _emb(rng)
        refs = ReferenceSet(rng.standard_normal((20, EMBEDDING_DIM)))
        got = min_reference_distance(probe, refs)
        want = oracles.min_distance_naive(probe.values, list(refs.matrix))
        assert got == pytest.approx(want, rel=1e-12)


def test_verdict_clean_iff_within_threshold(rng):
    centroid = rng.standard_normal(EMBEDDING_DIM)
    refs = ReferenceSet(centroid + 0.05 * rng.standard_normal((20, EMBEDDING_DIM)))
    near = Embedding(values=centroid)
    far = Embedding(values=centroid + 2.0 * np.ones(EMBEDDING_DIM) / np.sqrt(EMBEDDING_DIM) * 1.0)
    assert classify_identity(near, refs, DEFAULT_FACE_THRESHOLD).verdict is Verdict.CLEAN
    assert classify_identity(far, refs, DEFAULT_FACE_THRESHOLD).verdict is Verdict.ANOTHER_PERSON


def test_boundary_distance_equal_threshold_is_clean():
    # 3-4-5 construction: sqrt(0.36^2 + 0.48^2) is exactly 0.6 in floats
    probe = Embedding(values=np.zeros(EMBEDDING_DIM))
    ref = np.zeros(EMBEDDING_DIM)
    ref[0], ref[1] = 0.36, 0.48
    refs = ReferenceSet(ref[np.newaxis])
    decision = classify_identity(probe, refs, 0.6)
    assert decision.min_distance == 0.6
    assert decision.verdict is Verdict.CLEAN


def test_boundary_any_computed_distance_as_threshold_is_clean(rng):
    for _ in range(10):
        probe = _emb(rng)
        refs = ReferenceSet(rng.standard_normal((5, EMBEDDING_DIM)))
        d = min_reference_distance(probe, refs)
        assert classify_identity(probe, refs, d).verdict is Verdict.CLEAN


def test_reference_order_irrelevant(rng):
    probe = _emb(rng)
    members = rng.standard_normal((12, EMBEDDING_DIM))
    a = min_reference_distance(probe, ReferenceSet(members))
    b = min_reference_distance(probe, ReferenceSet(members[::-1]))
    assert a == b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 5.0))
def test_distance_symmetry_and_identity(seed, scale):
    r = np.random.default_rng(seed)
    a = Embedding(values=r.standard_normal(EMBEDDING_DIM) * scale)
    b = Embedding(values=r.standard_normal(EMBEDDING_DIM) * scale)
    assert euclidean_distance(a, b) == euclidean_distance(b, a)
    assert euclidean_distance(a, a) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_min_not_larger_than_any_individual(seed):
    r = np.random.default_rng(seed)
    probe = Embedding(values=r.standard_normal(EMBEDDING_DIM))
    refs = ReferenceSet(r.standard_normal((8, EMBEDDING_DIM)))
    lo = min_reference_distance(probe, refs)
    for row in refs.matrix:
        assert lo <= euclidean_distance(probe, Embedding(values=row)) + 1e-12


def test_rejects_nonfinite_components():
    bad = np.zeros(EMBEDDING_DIM)
    bad[7] = np.nan
    with pytest.raises(NonFiniteInput):
        Embedding(values=bad)
    bad[7] = np.inf
    with pytest.raises(NonFiniteInput):
        Embedding(values=bad)


def test_rejects_wrong_dimension():
    with pytest.raises(NonFiniteInput):
        Embedding(values=np.zeros(64))


def test_empty_reference_set_raises():
    with pytest.raises(EmptyReferenceSet):
        ReferenceSet(np.empty((0, EMBEDDING_DIM)))


@pytest.mark.parametrize("shape", [(EMBEDDING_DIM,), (3, 64), (2, 3, EMBEDDING_DIM)])
def test_reference_set_rejects_wrong_shape(shape):
    with pytest.raises(NonFiniteInput, match=r"\(n, 128\) matrix"):
        ReferenceSet(np.zeros(shape))


def test_reference_set_rejects_nonfinite_rows():
    matrix = np.zeros((3, EMBEDDING_DIM))
    matrix[1, 5] = np.inf
    with pytest.raises(NonFiniteInput, match="non-finite"):
        ReferenceSet(matrix)


def test_bad_threshold_rejected(rng, identity):
    _, refs = identity
    with pytest.raises(ValueError):
        classify_identity(_emb(rng), refs, 0.0)
    with pytest.raises(ValueError):
        classify_identity(_emb(rng), refs, -1.0)


def test_embedding_equality_and_hash(rng):
    v = rng.standard_normal(EMBEDDING_DIM)
    assert Embedding(values=v.copy()) == Embedding(values=v.copy())
    assert hash(Embedding(values=v.copy())) == hash(Embedding(values=v.copy()))
    w = v.copy()
    w[0] += 1e-9
    assert Embedding(values=v) != Embedding(values=w)
