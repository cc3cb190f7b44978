"""Relevance-gated sparse activation of memory frames.

Each candidate frame is condensed to a per-layer key descriptor
(`FrameKV.key_descriptor`: its layer's keys averaged over heads and
tokens, computed once per frame and kept on it); the current chunk's
queries, the [T, L, H, P, d] array attention itself reads, are condensed
by the same rule in `sma_scores`. The inner product of the two
descriptors scores each frame, the top-k frames are kept, and the
engine's attention runs over the KV of the kept frames only. Dropped
attention mass is not renormalized beyond the softmax over the kept keys.

A key descriptor depends on the frame's read-only keys alone, so keeping
it is not state of the rollout: `step_chunk` stays a pure function of
(state, prompt, chunk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyMemoryError, ShapeError
from .frames import FrameKV

__all__ = ["ActivationSet", "sma_scores", "select_top_k"]


@dataclass(frozen=True)
class ActivationSet:
    """Selected candidate indices (ascending) with their scores."""

    indices: tuple[int, ...]
    scores: tuple[float, ...]


def sma_scores(queries: np.ndarray, pool: Sequence[FrameKV]) -> np.ndarray:
    """Relevance [L, len(pool)] of each pool frame to a chunk, per layer.

    queries is the chunk's [T, L, H, P, d] query projection
    (`toymodel.project_queries`), unscaled. Its [L, d] descriptor is the
    queries averaged over frames, heads and tokens, in one reduction as
    for a frame's keys. One selection per (chunk, layer) is shared by the
    layer's heads.
    """
    if not pool:
        raise EmptyMemoryError("no candidate frames to score")
    T, _, H, P, _ = queries.shape
    query_desc = np.einsum("tlhpd->ld", queries) / (T * H * P)
    kd = np.array([f.key_descriptor for f in pool])  # [pool, L, d]
    if kd.shape[1:] != query_desc.shape:
        raise ShapeError(
            f"frame descriptors {kd.shape[1:]} do not match the query descriptor {query_desc.shape}"
        )
    # Row-wise sums, not a BLAS product: equal descriptors (the sink's
    # first frame is also the bank's first prototype) must tie exactly.
    return (kd * query_desc).sum(axis=2).T


def select_top_k(scores: Sequence[float], k: int) -> ActivationSet:
    """Indices of the k highest scores; ties favor the later frame.

    Equals the size-k subset maximizing the score sum under that tie rule.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores, dtype=np.float64).tolist()
    # A stable sort of the indices, later first, by descending score.
    ranked = sorted(range(len(scores) - 1, -1, -1), key=scores.__getitem__, reverse=True)
    picked = sorted(ranked[:k])
    return ActivationSet(tuple(picked), tuple(scores[i] for i in picked))
