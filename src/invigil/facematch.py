"""Face identity verification against a pre-exam reference set.

A face is represented by a 128-dimensional characteristic vector. The
probe vector captured during the session is compared with every
reference vector by Euclidean distance; the minimum of those distances
decides between "Clean" and "AnotherPerson" at a configurable
threshold (default 0.6, ties resolved as Clean).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EngineError, arrays_eq

EMBEDDING_DIM = 128
DEFAULT_FACE_THRESHOLD = 0.6


class NonFiniteInput(EngineError):
    """An embedding component is NaN or infinite."""


class EmptyReferenceSet(EngineError):
    """The reference set contains no embeddings."""


class Verdict(str, Enum):
    CLEAN = "Clean"
    ANOTHER_PERSON = "AnotherPerson"


@dataclass(frozen=True, eq=False)
class Embedding:
    """A 128-component face characteristic vector.

    Values are treated as opaque: no re-normalisation is applied, the
    distance threshold presumes the upstream embedder's scale.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (EMBEDDING_DIM,):
            raise NonFiniteInput(
                f"embedding must have exactly {EMBEDDING_DIM} components, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInput("embedding contains non-finite components")
        object.__setattr__(self, "values", arr)

    __eq__ = arrays_eq

    def __hash__(self) -> int:  # frozen dataclass without field-based hash
        return hash(self.values.tobytes())


@dataclass(frozen=True, eq=False)
class ReferenceSet:
    """The embeddings captured before the session that define the candidate.

    One float64 row per reference embedding, shape (n, 128) with n >= 1.
    The config's reference_count is what capture aims for; a smaller set
    is accepted because real capture can lose frames.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != EMBEDDING_DIM:
            raise NonFiniteInput(
                f"reference set must be an (n, {EMBEDDING_DIM}) matrix, got shape {matrix.shape}"
            )
        if not matrix.shape[0]:
            raise EmptyReferenceSet("reference set must contain at least one embedding")
        if not np.all(np.isfinite(matrix)):
            raise NonFiniteInput("reference set contains non-finite components")
        object.__setattr__(self, "matrix", matrix)

    __eq__ = arrays_eq

    def __len__(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class IdentityDecision:
    min_distance: float
    verdict: Verdict


def euclidean_distance(a: Embedding, b: Embedding) -> float:
    """Root of the summed squared component differences of two embeddings."""
    diff = a.values - b.values
    return float(np.sqrt(np.dot(diff, diff)))


def min_reference_distance(probe: Embedding, refs: ReferenceSet) -> float:
    """Smallest Euclidean distance from the probe to any reference."""
    diffs = refs.matrix - probe.values
    return float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs).min()))


def classify_identity(
    probe: Embedding,
    refs: ReferenceSet,
    threshold: float = DEFAULT_FACE_THRESHOLD,
) -> IdentityDecision:
    """Decide Clean vs AnotherPerson from the minimum reference distance.

    The boundary case min_distance == threshold counts as Clean.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    min_d = min_reference_distance(probe, refs)
    verdict = Verdict.CLEAN if min_d <= threshold else Verdict.ANOTHER_PERSON
    return IdentityDecision(min_distance=min_d, verdict=verdict)
