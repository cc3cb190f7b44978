"""Frame-level KV storage: single frames and the capacity-bounded bank.

A frame stores its key/value projections for every (layer, head) as two
arrays of shape [L, H, P, d]. Banks are immutable snapshots; updates
return new banks. The rollout's frame sink is a bank too, sized to one
chunk and filled once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError

__all__ = ["FrameKV", "MemoryBank"]


@dataclass(frozen=True)
class FrameKV:
    """KV cache of a single latent frame across all layers and heads.

    k and v are finite float64 arrays of shape [L, H, P, d]; P is tokens
    per frame.
    """

    frame_id: int
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.k.ndim != 4 or self.v.ndim != 4:
            raise ShapeError("frame k/v must be [L, H, P, d] arrays")
        if self.k.shape != self.v.shape:
            raise ShapeError(f"k shape {self.k.shape} != v shape {self.v.shape}")
        if self.k.shape[2] == 0:
            raise ShapeError("a frame needs at least one token")
        if not (np.isfinite(self.k).all() and np.isfinite(self.v).all()):
            raise ShapeError("frame k/v contain non-finite entries")
        self.k.setflags(write=False)
        self.v.setflags(write=False)

    @cached_property
    def key_descriptor(self) -> np.ndarray:
        """Per-layer key descriptor [L, d]: keys pooled over tokens, then
        heads. Computed on first use and kept, since a frame's keys never
        change."""
        desc = self.k.mean(axis=2).mean(axis=1)
        desc.setflags(write=False)
        return desc


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

