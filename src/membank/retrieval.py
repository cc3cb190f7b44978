"""Text-conditioned memory retrieval and bank updating.

Relevance of each stored frame to the active prompt is scored by
cross-attention between the pooled text query and all bank keys: per
(layer, head) the logits over every bank token are normalized jointly by
one softmax, the weights are mean-pooled per frame, and the resulting
per-frame scores are averaged over layers and heads. With equal tokens
per frame the scores of a bank therefore sum to 1/P.

The bank update retains the top-scoring frames and appends a one-frame
prototype of the chunk that was just generated (its first frame,
unchanged), so a saturated bank rests at exactly its capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activation import select_top_k
from .errors import EmptyMemoryError, ShapeError
from .frames import FrameKV, MemoryBank, bank_append, bank_retain

__all__ = [
    "TextQuery",
    "text_relevance_scores",
    "chunk_prototype",
    "memory_update",
]


@dataclass(frozen=True)
class TextQuery:
    """Pooled prompt query, one d-vector per (layer, head): shape [L, H, d]."""

    q: np.ndarray

    def __post_init__(self):
        if self.q.ndim != 3:
            raise ShapeError("text query must be [L, H, d]")
        if not np.all(np.isfinite(self.q)):
            raise ShapeError("text query contains non-finite entries")
        self.q.setflags(write=False)


def text_relevance_scores(query: TextQuery, bank: MemoryBank) -> np.ndarray:
    """Per-frame relevance of bank contents to the prompt query.

    Returns one nonnegative score per bank frame, aligned with bank order.
    """
    if len(bank) == 0:
        raise EmptyMemoryError("cannot score an empty memory bank")
    layers, heads, d = query.q.shape
    first = bank.frames[0]
    if first.k.shape[:2] != (layers, heads) or first.k.shape[3] != d:
        raise ShapeError(
            f"query [L,H,d]={query.q.shape} incompatible with frame kv {first.k.shape}"
        )
    keys = np.concatenate([f.k for f in bank.frames], axis=2)  # [L, H, N, d]
    logits = (keys @ query.q[..., None])[..., 0] / np.sqrt(d)  # [L, H, N]
    logits -= logits.max(axis=2, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=2, keepdims=True)
    tokens_per_frame = np.array([f.k.shape[2] for f in bank.frames])
    starts = np.cumsum(tokens_per_frame) - tokens_per_frame
    per_frame = np.add.reduceat(weights, starts, axis=2) / tokens_per_frame  # [L, H, frames]
    return per_frame.sum(axis=(0, 1)) / (layers * heads)


def chunk_prototype(chunk_frames: Sequence[FrameKV]) -> FrameKV:
    """Single-frame representative of a chunk: its first frame, unchanged."""
    if not chunk_frames:
        raise EmptyMemoryError("cannot take a prototype of an empty chunk")
    return chunk_frames[0]


def memory_update(
    bank: MemoryBank, query: TextQuery, prev_chunk: Sequence[FrameKV]
) -> tuple[MemoryBank, list[int]]:
    """Retain the most relevant frames, then append the previous chunk's
    prototype.

    Retention is SMA's top-k rule (ties favor the later frame); an empty
    bank or a bank of capacity 1 retains nothing and is not scored.
    Returns the new bank and the retained frame_ids (oracle bookkeeping).
    The prototype is always the last element; the result never exceeds
    capacity.
    """
    proto = chunk_prototype(prev_chunk)
    keep = min(bank.capacity - 1, len(bank))
    if keep == 0:
        return bank_append(bank_retain(bank, ()), proto), []
    scores = text_relevance_scores(query, bank)
    trimmed = bank_retain(bank, select_top_k(scores, keep).indices)
    return bank_append(trimmed, proto), [f.frame_id for f in trimmed.frames]
