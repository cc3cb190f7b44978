"""Frame-level KV storage: single frames and the capacity-bounded bank.

A frame stores its key/value projections for every (layer, head) as two
arrays of shape [L, H, P, d]. Banks are immutable snapshots; updates
return new banks. The rollout's frame sink is a bank too, sized to one
chunk and filled once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError

__all__ = ["FrameKV", "MemoryBank"]


@dataclass(frozen=True)
class FrameKV:
    """KV cache of a single latent frame across all layers and heads.

    k and v are finite float64 arrays of shape [L, H, P, d]; P is tokens
    per frame. `key_bound` is max |k| over the whole frame, computed once
    at construction: the attention kernel bounds its logits by it, and it
    is also the check that k is finite, since NaN and inf propagate
    through the max.
    """

    frame_id: int
    k: np.ndarray
    v: np.ndarray
    key_bound: float = field(init=False, repr=False, compare=False)
    # relevance_lse's one-slot memo: (query, its [L * H] statistics).
    _lse_memo: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # A frame owns read-only copies of its arrays: the kept descriptor
        # and relevance statistics would go stale if the keys changed under
        # them, and the caller's arrays stay as the caller left them.
        for name in ("k", "v"):
            arr = getattr(self, name).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.k.ndim != 4 or self.v.ndim != 4:
            raise ShapeError("frame k/v must be [L, H, P, d] arrays")
        if self.k.shape != self.v.shape:
            raise ShapeError(f"k shape {self.k.shape} != v shape {self.v.shape}")
        if self.k.shape[2] == 0:
            raise ShapeError("a frame needs at least one token")
        key_bound = float(np.abs(self.k).max())
        if not (np.isfinite(key_bound) and np.isfinite(self.v).all()):
            raise ShapeError("frame k/v contain non-finite entries")
        object.__setattr__(self, "key_bound", key_bound)

    @cached_property
    def key_descriptor(self) -> np.ndarray:
        """Per-layer key descriptor [L, d]: the layer's keys averaged over
        heads and tokens, in one reduction. Computed on first use and kept,
        since a frame's keys never change."""
        _, heads, tokens, _ = self.k.shape
        desc = np.einsum("lhpd->ld", self.k) / (heads * tokens)
        desc.setflags(write=False)
        return desc

    def relevance_lse(self, query) -> np.ndarray:
        """Log-sum-exp of this frame's key logits against a prompt, one per
        (layer, head): log sum_p exp(k_p . q / sqrt(d)), flattened to
        [L * H] so a bank's statistics stack with one concatenate.

        query is a `retrieval.TextQuery` matching the frame's layers,
        heads and head dim. The result is kept in a one-slot memo keyed on
        the query object (`is`); both arrays are read-only, so it is a
        pure function of (frame, query). Another query replaces the slot.
        """
        memo = self._lse_memo
        if memo is not None and memo[0] is query:
            return memo[1]
        logits = (self.k @ query.scaled[..., None])[..., 0]  # [L, H, P]
        lse = np.logaddexp.reduce(logits, axis=2).ravel()
        lse.setflags(write=False)
        object.__setattr__(self, "_lse_memo", (query, lse))
        return lse


@dataclass(frozen=True)
class MemoryBank:
    """Ordered, capacity-bounded collection of frames, oldest first.

    Every bank, however built, holds at most `capacity` frames in strictly
    increasing frame_id order; construction enforces both."""

    capacity: int
    frames: tuple[FrameKV, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.capacity < 1:
            raise ConfigError(f"bank capacity must be >= 1, got {self.capacity}")
        if len(self.frames) > self.capacity:
            raise CapacityError(
                f"{len(self.frames)} frames exceed capacity {self.capacity}"
            )
        ids = [f.frame_id for f in self.frames]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ShapeError(f"frame_ids must be strictly increasing, got {ids}")

    def __len__(self) -> int:
        return len(self.frames)

