"""Text-conditioned memory retrieval and bank updating.

Relevance of each stored frame to the active prompt is scored by
cross-attention between the pooled text query and all bank keys: per
(layer, head) the logits over every bank token are normalized jointly by
one softmax, the weights are mean-pooled per frame, and the resulting
per-frame scores are averaged over layers and heads. With equal tokens
per frame the scores of a bank therefore sum to 1/P.

A frame's share of one (layer, head) softmax depends on the other frames
only through the joint normaliser, so each frame contributes its own
log-sum-exp (`FrameKV.relevance_lse`) and the bank's scores merge them by
log-sum-exp, as an online softmax merges key blocks. The frame keeps its
statistics in a one-slot memo keyed on the `TextQuery` object, so within
a segment (one prompt object) only the frame that entered since the last
update is scored, and the bank is rescored when the prompt changes. The
memo is a pure function of (frame, prompt), not state of the rollout:
`step_chunk` stays a pure function of (state, prompt, chunk), and a saved
state stepped with any prompt gives the same bits as a fresh copy.

The bank update retains the top-scoring frames and appends a one-frame
prototype of the chunk that was just generated (its first frame,
unchanged), so a saturated bank rests at exactly its capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .activation import select_top_k
from .errors import EmptyMemoryError, ShapeError
from .frames import FrameKV, MemoryBank

__all__ = [
    "TextQuery",
    "text_relevance_scores",
    "memory_update",
]


@dataclass(frozen=True, eq=False)
class TextQuery:
    """Pooled prompt query, one d-vector per (layer, head): shape [L, H, d].
    Like a frame, it compares and hashes by identity."""

    q: np.ndarray

    def __post_init__(self):
        # Frames key their relevance memo on this object, so it owns a
        # read-only copy of the caller's array.
        q = self.q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        if self.q.ndim != 3:
            raise ShapeError("text query must be [L, H, d]")
        if not np.isfinite(self.q).all():
            raise ShapeError("text query contains non-finite entries")

    @cached_property
    def scaled(self) -> np.ndarray:
        """q / sqrt(d), so that k . scaled is a relevance logit; computed
        on first use and kept."""
        scaled = self.q / np.sqrt(self.q.shape[2])
        scaled.setflags(write=False)
        return scaled


def text_relevance_scores(query: TextQuery, bank: MemoryBank) -> np.ndarray:
    """Per-frame relevance of bank contents to the prompt query.

    Returns one nonnegative score per bank frame, aligned with bank order:
    frame i's share exp(lse_i - logsumexp_j lse_j) of each (layer, head)
    softmax, over its token count, averaged over layers and heads.
    """
    if len(bank) == 0:
        raise EmptyMemoryError("cannot score an empty memory bank")
    layers, heads, _ = query.q.shape
    lse = np.concatenate([f.relevance_lse(query) for f in bank.frames]).reshape(len(bank), -1)
    shares = np.exp(lse - np.logaddexp.reduce(lse, axis=0))  # each frame's softmax mass
    return shares.sum(axis=1) / [f.k.shape[2] * layers * heads for f in bank.frames]


def memory_update(
    bank: MemoryBank, query: TextQuery, prev_chunk: Sequence[FrameKV]
) -> tuple[MemoryBank, list[int], np.ndarray]:
    """Retain the most relevant frames, then append the previous chunk's
    prototype, its first frame unchanged.

    Retention is SMA's top-k rule (ties favor the later frame); an empty
    bank or a bank of capacity 1 retains nothing and is not scored.
    Returns the new bank, the retained frame_ids (oracle bookkeeping) and
    the relevance scores of the old bank's frames, in bank order (empty
    when the bank was not scored). The prototype is always the last
    element; the result never exceeds capacity.
    """
    if not prev_chunk:
        raise EmptyMemoryError("cannot take a prototype of an empty chunk")
    keep = min(bank.capacity - 1, len(bank))
    kept: tuple[FrameKV, ...] = ()
    scores = np.empty(0)
    if keep:
        scores = text_relevance_scores(query, bank)
        kept = tuple(bank.frames[i] for i in select_top_k(scores, keep).indices)
    return MemoryBank(bank.capacity, kept + (prev_chunk[0],)), [f.frame_id for f in kept], scores
