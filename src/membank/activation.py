"""Relevance-gated sparse activation of memory frames.

Each candidate frame is condensed to a per-layer key descriptor
(`FrameKV.key_descriptor`: its keys pooled over tokens, then heads); the
current chunk's queries are condensed the same way. The inner product of
the two descriptors scores each frame, the top-k frames are kept, and the
engine's attention runs over the KV of the kept frames only. Dropped
attention mass is not renormalized beyond the softmax over the kept keys.
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

    queries is the chunk's [T, L, H, P, d] projection. Its descriptor is
    the layer's queries pooled over frames and tokens, then heads; one
    selection per (chunk, layer) is shared by the layer's heads.
    """
    if not pool:
        raise EmptyMemoryError("no candidate frames to score")
    qd = queries.mean(axis=(0, 3)).mean(axis=1)  # [L, d]
    kd = np.array([f.key_descriptor for f in pool])  # [pool, L, d]
    if kd.shape[1:] != qd.shape:
        raise ShapeError(f"frame descriptors {kd.shape[1:]} do not match queries {qd.shape}")
    # Row-wise sums, not a BLAS product: equal descriptors (the sink's
    # first frame is also the bank's first prototype) must tie exactly.
    return (kd * qd).sum(axis=2).T


def select_top_k(scores: Sequence[float], k: int) -> ActivationSet:
    """Indices of the k highest scores; ties favor the later frame.

    Equals the size-k subset maximizing the score sum under that tie rule.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    scores = [float(s) for s in scores]
    k = min(k, len(scores))
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], -i))
    picked = sorted(ranked[:k])
    return ActivationSet(tuple(picked), tuple(scores[i] for i in picked))
