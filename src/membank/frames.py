"""Frame-level KV storage: single frames and the capacity-bounded bank.

`frames_from_kv` is the only way to build frames: it copies a chunk's
stacked K/V once, and each frame holds two read-only [L, H, P, d] views
of those copies, so a frame kept in a bank keeps its chunk's stacks
alive. Banks are immutable snapshots; updates return new banks. The
rollout's frame sink is a bank too, sized to one chunk and filled once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, ConfigError, ShapeError

__all__ = ["FrameKV", "MemoryBank", "frames_from_kv"]


@dataclass(frozen=True, init=False, eq=False)
class FrameKV:
    """KV cache of a single latent frame across all layers and heads.

    Built only by `frames_from_kv`; the class has no constructor, so
    `FrameKV(...)` raises TypeError. k and v are finite, read-only float64
    arrays of shape [L, H, P, d]; P is tokens per frame. `key_bound` is
    max |k| over the whole frame: the attention kernel bounds its logits
    by it. A frame is its own identity: `==` is `is` and the hash is the
    object's, so two frames with one id and equal arrays are two frames.
    Its caches, the key descriptor and the relevance memo, live in the
    instance `__dict__` beside the four fields.
    """

    frame_id: int
    k: np.ndarray
    v: np.ndarray
    key_bound: float = field(repr=False)

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

        query is a `retrieval.TextQuery`; a query whose layers, heads or
        head dim differ from the frame's raises ShapeError. The result is
        kept in a one-slot memo, `(query, lse)` under `_lse_memo` in the
        instance `__dict__`, keyed on the query object (`is`); both arrays
        are read-only, so it is a pure function of (frame, query). Another
        query replaces the slot.
        """
        memo = self.__dict__.get("_lse_memo")
        if memo is not None and memo[0] is query:
            return memo[1]
        layers, heads, _, d = self.k.shape
        if query.q.shape != (layers, heads, d):
            raise ShapeError(f"query [L,H,d]={query.q.shape} incompatible with frame kv {self.k.shape}")
        logits = (self.k @ query.scaled[..., None])[..., 0]  # [L, H, P]
        lse = np.logaddexp.reduce(logits, axis=2).ravel()
        lse.setflags(write=False)
        self.__dict__["_lse_memo"] = (query, lse)
        return lse


def frames_from_kv(first_id: int, k: np.ndarray, v: np.ndarray) -> list[FrameKV]:
    """Frames first_id, first_id + 1, ... from K/V stacked [n, L, H, P, d].

    Copies each stack once, C-contiguous and read-only; frame i's arrays
    are the views k[i] and v[i]. The copies keep the frames' descriptor
    and relevance memos from going stale and leave the caller's arrays as
    the caller left them. One abs-max reduction gives every frame's key
    bound and is also the check that K is finite, since NaN and inf
    propagate through the max; one `isfinite` covers V. Raises ShapeError
    on a bad shape or a non-finite entry.
    """
    if k.ndim != 5 or v.ndim != 5:
        raise ShapeError("frame k/v must be [n, L, H, P, d] stacks")
    if k.shape != v.shape:
        raise ShapeError(f"k shape {k.shape[1:]} != v shape {v.shape[1:]}")
    if k.shape[3] == 0:
        raise ShapeError("a frame needs at least one token")
    k, v = k.copy(), v.copy()
    bounds = np.abs(k).max(axis=(1, 2, 3, 4)).tolist()
    if not (all(map(math.isfinite, bounds)) and np.isfinite(v).all()):
        raise ShapeError("frame k/v contain non-finite entries")
    k.setflags(write=False)
    v.setflags(write=False)
    frames = []
    for i, bound in enumerate(bounds):
        frame = object.__new__(FrameKV)
        frame.__dict__.update(frame_id=first_id + i, k=k[i], v=v[i], key_bound=bound)
        frames.append(frame)
    return frames


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

