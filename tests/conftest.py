from __future__ import annotations

import copy
import json
import os
import sys

# One BLAS/OpenMP thread, as the bench runs, so the wall-clock budgets in
# test_acceptance.py time the engine and not the pool's contention on a
# shared box. The pools read these once, when numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
assert "numpy" not in sys.modules, "numpy loaded before tests/conftest.py could pin its BLAS threads"

import numpy as np
import pytest
from hypothesis import strategies as st

from invigil.config import EngineConfig
from invigil.events import (
    AudioWindowPayload,
    EventKind,
    FaceEmbeddingPayload,
    FrameDetections,
    SensorEvent,
    SessionLog,
)
from invigil.facematch import EMBEDDING_DIM, Embedding, ReferenceSet
from invigil.objectgate import BoundingBox, Detection
from invigil.simulator import synth_audio

PERSON_BOX = BoundingBox(x=120.0, y=40.0, w=80.0, h=160.0)
PHONE_BOX = BoundingBox(x=250.0, y=150.0, w=40.0, h=30.0)


def person_det(score: float = 0.9, x: float = 120.0) -> Detection:
    return Detection(label="person", score=score, box=BoundingBox(x=x, y=40.0, w=80.0, h=160.0))


def device_det(label: str, score: float) -> Detection:
    return Detection(label=label, score=score, box=PHONE_BOX)


def frame_event(t: int, persons: int = 1, devices: tuple = ()) -> SensorEvent:
    dets = [person_det(x=120.0 + 140.0 * i) for i in range(persons)]
    dets += [device_det(label, score) for label, score in devices]
    return SensorEvent(t_ms=t, kind=EventKind.FRAME_DETECTIONS, payload=FrameDetections(detections=tuple(dets)))


def emb_event(t: int, values: np.ndarray) -> SensorEvent:
    return SensorEvent(
        t_ms=t, kind=EventKind.FACE_EMBEDDING, payload=FaceEmbeddingPayload(embedding=Embedding(values=values))
    )


def audio_event(t: int, samples: np.ndarray) -> SensorEvent:
    return SensorEvent(
        t_ms=t, kind=EventKind.AUDIO_WINDOW, payload=AudioWindowPayload(sample_rate=16000, samples=samples)
    )


def unit_vec(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(EMBEDDING_DIM)
    return v / np.linalg.norm(v)


def make_reference_set(rng: np.random.Generator, count: int = 20) -> tuple[np.ndarray, ReferenceSet]:
    centroid = unit_vec(rng)
    refs = ReferenceSet(np.stack([centroid + 0.05 * unit_vec(rng) for _ in range(count)]))
    return centroid, refs


def make_log(
    events, refs: ReferenceSet, cfg: EngineConfig | None = None, session_id: str = "test"
) -> SessionLog:
    return SessionLog(
        session_id=session_id,
        config=cfg or EngineConfig(),
        reference_embeddings=refs,
        events=tuple(events),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xBEE5)


@pytest.fixture(scope="session")
def identity() -> tuple[np.ndarray, ReferenceSet]:
    return make_reference_set(np.random.default_rng(0x1D))


@pytest.fixture(scope="session")
def audio_pool() -> dict[str, np.ndarray]:
    """A few pre-synthesized windows reused across fuzz logs."""
    return {
        "voiced": synth_audio("voiced", 11).samples,
        "voiced2": synth_audio("voiced", 12).samples,
        "unvoiced": synth_audio("unvoiced", 11).samples,
        "quiet": synth_audio("unvoiced", 12).samples * 0.1,
    }


def fuzz_log(
    rng: np.random.Generator,
    centroid: np.ndarray,
    refs: ReferenceSet,
    audio_pool: dict[str, np.ndarray] | None = None,
) -> SessionLog:
    """Random but structurally valid session: mixed events, presence
    modeled as a two-state chain so zero-person gaps of every length
    around the absence thresholds occur."""
    events = []
    t = 0
    present = True
    n_events = int(rng.integers(25, 90))
    for _ in range(n_events):
        t += int(rng.integers(100, 4000))
        roll = rng.random()
        if audio_pool is not None and roll < 0.12:
            key = ("voiced", "voiced2", "unvoiced", "quiet")[int(rng.integers(0, 4))]
            events.append(audio_event(t, audio_pool[key]))
            continue
        if roll < 0.30:
            scale = 1.2 if rng.random() < 0.4 else float(rng.uniform(0.05, 0.2))
            v = centroid + scale * unit_vec(rng)
            events.append(emb_event(t, v))
            continue
        if rng.random() < 0.18:
            present = not present
        persons = 0 if not present else (2 if rng.random() < 0.15 else 1)
        devices = []
        if rng.random() < 0.30:
            label = "phone" if rng.random() < 0.5 else "laptop"
            devices.append((label, round(float(rng.uniform(0.0, 1.0)), 4)))
        events.append(frame_event(t, persons=persons, devices=tuple(devices)))
    return make_log(events, refs)


# ---------------------------------------------------------------------------
# fuzz strategies for the readers of JSON lines and side files


def json_slots(node):
    """(container, key) of every object member and of the first item of every list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield node, key
            yield from json_slots(value)
    elif isinstance(node, list) and node:
        yield node, 0
        yield from json_slots(node[0])


FUZZ_VALUES = st.sampled_from([None, "x", -1, -0.5, float("nan"), {"a": 1}, 10**400])


@st.composite
def mutated_bytes(draw, data):
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["flip", "insert", "delete"]))
        at = draw(st.integers(0, len(data) - (op != "insert")))
        if op == "flip":
            data[at] ^= draw(st.integers(1, 255))
        elif op == "insert":
            data[at:at] = bytes([draw(st.integers(0, 255))])
        else:
            del data[at : at + draw(st.integers(1, 8))]
    return bytes(data)


@st.composite
def fuzzed_json_lines(draw, records, values=FUZZ_VALUES):
    """The JSON lines of `records`, broken one way: arbitrary bytes, a few byte
    edits, or a few members deleted or set to one of `values`."""
    how = draw(st.sampled_from(["bytes", "edits", "members"]))
    if how == "bytes":
        return draw(st.binary(max_size=300))
    if how == "edits":
        return draw(mutated_bytes(b"".join(json.dumps(rec).encode() + b"\n" for rec in records)))
    records = copy.deepcopy(records)
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from([slot for rec in records for slot in json_slots(rec)]))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(values))  # a later edit may reach into it
    return b"".join(json.dumps(rec).encode() + b"\n" for rec in records)
