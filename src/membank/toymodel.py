"""Deterministic training-free stand-in for the generator network.

Seeded random projections produce per-layer, per-head Q/K/V for frame
tokens and prompt tokens. Topic centroids are planted into both prompts
and frame tokens so retrieval quality has a checkable ground truth.

The query and key projections of each (layer, head) share a common random
base with a small independent jitter. Fully independent projections
would scramble query-key inner products and erase the planted alignment;
the shared base keeps the projection an approximate isometry so aligned
inputs stay aligned after projection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError
from .frames import FrameKV
from .retrieval import TextQuery

__all__ = [
    "ModelConfig",
    "TopicSpace",
    "ChunkTokens",
    "Weights",
    "make_topic_space",
    "init_weights",
    "encode_prompt",
    "synth_chunk",
    "project_kv",
    "project_queries",
    "query_descriptor",
]

# Relative size of the independent jitter between the query and key
# projections of a (layer, head); keeps them distinct without breaking
# query-key alignment.
QK_JITTER = 0.02

# Per-token perturbation magnitude applied to prompt embeddings.
PROMPT_JITTER = 0.1


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 2
    heads: int = 2
    head_dim: int = 16
    tokens_per_frame: int = 16
    frames_per_chunk: int = 3
    local_window: int = 6
    bank_capacity: int = 3
    sma_k: int = 2
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "seed" and value < 1:
                raise ConfigError(f"{f.name} must be >= 1, got {value}")
        if self.sma_k > self.bank_capacity + self.frames_per_chunk:
            raise ConfigError(
                f"sma_k={self.sma_k} exceeds bank+sink pool "
                f"{self.bank_capacity + self.frames_per_chunk}"
            )

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim


@dataclass(frozen=True)
class TopicSpace:
    """Orthonormal topic centroids in head-dim space plus a noise level."""

    centroids: np.ndarray  # [num_topics, d], unit rows
    noise_eps: float

    def __post_init__(self):
        if not 0 <= self.noise_eps < np.inf:
            raise ConfigError(f"noise_eps must be finite and >= 0, got {self.noise_eps}")
        g = self.centroids @ self.centroids.T
        off = g - np.diag(np.diag(g))
        if np.abs(off).max(initial=0.0) > 0.1:
            raise ConfigError("topic centroids must be near-orthogonal")
        self.centroids.setflags(write=False)

    @property
    def num_topics(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True)
class ChunkTokens:
    """Token embeddings for one chunk: frames is [T, P, model_dim]."""

    chunk_id: int
    frames: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.frames)):
            raise ShapeError("chunk tokens contain non-finite entries")


@dataclass(frozen=True)
class Weights:
    """Per-layer, per-head projections, each [L, H, model_dim, head_dim].

    Prompt tokens are projected through wq as well, so text queries land
    in the same subspace as frame keys.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray

    @cached_property
    def wq_head_sum(self) -> np.ndarray:
        """wq summed over heads, [L, model_dim, head_dim]; computed on first
        use and kept, for `query_descriptor`."""
        s = self.wq.sum(axis=1)
        s.setflags(write=False)
        return s


def _rng(*parts) -> np.random.Generator:
    """Deterministic generator keyed on arbitrary hashable parts."""
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return np.random.default_rng(int.from_bytes(h[:8], "little"))


def make_topic_space(num_topics: int, cfg: ModelConfig, noise_eps: float) -> TopicSpace:
    if num_topics < 1:
        raise ConfigError("need at least one topic")
    if num_topics > cfg.head_dim:
        raise ConfigError(
            f"{num_topics} orthogonal centroids do not fit in dim {cfg.head_dim}"
        )
    rng = _rng(cfg.seed, "topics")
    q, _ = np.linalg.qr(rng.standard_normal((cfg.head_dim, num_topics)))
    return TopicSpace(centroids=np.ascontiguousarray(q.T), noise_eps=noise_eps)


def init_weights(cfg: ModelConfig) -> Weights:
    rng = _rng(cfg.seed, "weights")
    dm, d = cfg.model_dim, cfg.head_dim
    shape = (cfg.layers, cfg.heads, dm, d)
    scale = 1.0 / np.sqrt(dm)
    base = rng.standard_normal(shape) * scale
    wq = base + QK_JITTER * rng.standard_normal(shape) * scale
    wk = base + QK_JITTER * rng.standard_normal(shape) * scale
    wv = rng.standard_normal(shape) * scale
    return Weights(wq=wq, wk=wk, wv=wv)


def _embed_centroid(space: TopicSpace, cfg: ModelConfig, topic: int) -> np.ndarray:
    if not 0 <= topic < space.num_topics:
        raise ConfigError(f"unknown topic {topic}")
    return np.tile(space.centroids[topic], cfg.heads)


def encode_prompt(
    text: str, topic: int, cfg: ModelConfig, space: TopicSpace, weights: Weights
) -> TextQuery:
    """Pooled per-(layer, head) query vectors for a prompt.

    Token embeddings are the topic centroid plus a per-token perturbation
    keyed on (seed, text, token index); same inputs give bit-identical
    output.
    """
    tokens = text.split()
    if not tokens:
        raise ConfigError("prompt text is empty")
    centroid = _embed_centroid(space, cfg, topic)
    emb = np.empty((len(tokens), cfg.model_dim))
    for t, word in enumerate(tokens):
        noise = _rng(cfg.seed, "prompt", text, t).standard_normal(cfg.model_dim)
        emb[t] = centroid + PROMPT_JITTER * noise / np.sqrt(cfg.model_dim)
    return TextQuery(q=np.matmul(emb, weights.wq).mean(axis=2))


def synth_chunk(
    topic: int, chunk_id: int, cfg: ModelConfig, space: TopicSpace
) -> ChunkTokens:
    """Planted-topic token embeddings for one chunk.

    Each token is the (tiled) topic centroid plus seeded noise of
    magnitude noise_eps; deterministic in (seed, chunk_id).
    """
    centroid = _embed_centroid(space, cfg, topic)
    rng = _rng(cfg.seed, "chunk", chunk_id)
    noise = rng.standard_normal(
        (cfg.frames_per_chunk, cfg.tokens_per_frame, cfg.model_dim)
    )
    frames = centroid + space.noise_eps * noise / np.sqrt(cfg.model_dim)
    return ChunkTokens(chunk_id=chunk_id, frames=frames)


def project_kv(chunk: ChunkTokens, cfg: ModelConfig, weights: Weights) -> list[FrameKV]:
    """Per-frame K/V projections of a chunk's tokens, ids consecutive.

    One matmul per weight projects the whole chunk; each `FrameKV` copies
    its views, so a frame kept in the bank does not pin the chunk's K/V
    block.
    """
    if chunk.frames.shape != (cfg.frames_per_chunk, cfg.tokens_per_frame, cfg.model_dim):
        raise ShapeError(f"chunk token shape {chunk.frames.shape} does not match config")
    tokens = chunk.frames[:, None, None]  # [T, 1, 1, P, M]
    k = np.matmul(tokens, weights.wk)  # [T, L, H, P, d]
    v = np.matmul(tokens, weights.wv)
    return [
        FrameKV(frame_id=chunk.chunk_id * cfg.frames_per_chunk + t, k=k[t], v=v[t])
        for t in range(cfg.frames_per_chunk)
    ]


def project_queries(chunk: ChunkTokens, cfg: ModelConfig, weights: Weights) -> np.ndarray:
    """Query projections for a chunk's tokens: [T, L, H, P, head_dim]."""
    return np.matmul(chunk.frames[:, None, None], weights.wq)


def query_descriptor(chunk: ChunkTokens, cfg: ModelConfig, weights: Weights) -> np.ndarray:
    """SMA query descriptor [L, head_dim]: the chunk's query projections
    averaged over frames, tokens and heads.

    The projection is linear, so the tokens are summed first and the sum
    is projected once through `Weights.wq_head_sum`, in place of reducing
    the [T, L, H, P, d] output of `project_queries`.
    """
    T, P, _ = chunk.frames.shape
    return chunk.frames.sum(axis=(0, 1)) @ weights.wq_head_sum / (T * P * cfg.heads)
