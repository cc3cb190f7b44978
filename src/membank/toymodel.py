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
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, ShapeError
from .frames import FrameKV, frames_from_kv
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
    """Orthonormal topic centroids in head-dim space, their token
    embeddings, and a noise level.

    A topic's token embedding is its centroid tiled once per head, so
    every head sees the planted direction. The space tiles every topic
    once, from its own copy of the centroids, so the table cannot
    disagree with them, and synthesis and prompt encoding index a row.
    """

    centroids: np.ndarray  # [num_topics, d], unit rows
    heads: int
    noise_eps: float
    embeddings: np.ndarray = field(init=False, repr=False)  # [num_topics, heads * d]

    def __post_init__(self):
        # Read-only copies: synthesis reads these arrays for the whole
        # rollout, and the caller's own array stays writable.
        centroids = self.centroids.copy()
        for name, a in (("centroids", centroids), ("embeddings", np.tile(centroids, self.heads))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if not 0 <= self.noise_eps < np.inf:
            raise ConfigError(f"noise_eps must be finite and >= 0, got {self.noise_eps}")
        g = self.centroids @ self.centroids.T
        off = g - np.diag(np.diag(g))
        if np.abs(off).max(initial=0.0) > 0.1:
            raise ConfigError("topic centroids must be near-orthogonal")

    @property
    def num_topics(self) -> int:
        return self.centroids.shape[0]

    def embedding(self, topic: int) -> np.ndarray:
        """Token embedding of a topic, [model_dim]; ConfigError if the
        space has no such topic."""
        if not 0 <= topic < self.num_topics:
            raise ConfigError(f"unknown topic {topic}")
        return self.embeddings[topic]


@dataclass(frozen=True)
class ChunkTokens:
    """Token embeddings for one chunk: frames is [T, P, model_dim]."""

    chunk_id: int
    frames: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.frames).all():
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
    return TopicSpace(centroids=q.T, heads=cfg.heads, noise_eps=noise_eps)


def _draw(rng: np.random.Generator, shape: tuple[int, ...], what: str) -> np.ndarray:
    """`rng.standard_normal(shape)`; ConfigError when the config asks for
    an array numpy cannot allocate."""
    try:
        return rng.standard_normal(shape)
    except (ValueError, MemoryError) as e:  # numpy's "array is too big" and failed allocations
        raise ConfigError(f"config too large: {what} of shape {shape} cannot be allocated") from e


def init_weights(cfg: ModelConfig) -> Weights:
    rng = _rng(cfg.seed, "weights")
    dm, d = cfg.model_dim, cfg.head_dim
    shape = (cfg.layers, cfg.heads, dm, d)
    scale = 1.0 / np.sqrt(dm)
    base = _draw(rng, shape, "weights") * scale
    wq = base + QK_JITTER * _draw(rng, shape, "weights") * scale
    wk = base + QK_JITTER * _draw(rng, shape, "weights") * scale
    wv = _draw(rng, shape, "weights") * scale
    return Weights(wq=wq, wk=wk, wv=wv)


def encode_prompt(
    text: str, topic: int, cfg: ModelConfig, space: TopicSpace, weights: Weights
) -> TextQuery:
    """Pooled per-(layer, head) query vectors for a prompt.

    Token embeddings are the topic's embedding plus a per-token
    perturbation keyed on (seed, text, token index); same inputs give
    bit-identical output. Each token's generator fills its row of one
    noise array, which one expression scales and shifts for all tokens.
    """
    tokens = text.split()
    if not tokens:
        raise ConfigError("prompt text is empty")
    noise = np.empty((len(tokens), cfg.model_dim))
    for t in range(len(tokens)):
        _rng(cfg.seed, "prompt", text, t).standard_normal(out=noise[t])
    emb = space.embedding(topic) + PROMPT_JITTER * noise / np.sqrt(cfg.model_dim)
    return TextQuery(q=np.matmul(emb, weights.wq).mean(axis=2))


def synth_chunk(
    topic: int, chunk_id: int, cfg: ModelConfig, space: TopicSpace
) -> ChunkTokens:
    """Planted-topic token embeddings for one chunk.

    Each token is the topic's embedding plus seeded noise of magnitude
    noise_eps, scaled and shifted in place; deterministic in (seed,
    chunk_id).
    """
    embedding = space.embedding(topic)
    rng = _rng(cfg.seed, "chunk", chunk_id)
    frames = _draw(rng, (cfg.frames_per_chunk, cfg.tokens_per_frame, cfg.model_dim), "chunk tokens")
    frames *= space.noise_eps
    frames /= np.sqrt(cfg.model_dim)
    frames += embedding
    return ChunkTokens(chunk_id=chunk_id, frames=frames)


def project_kv(chunk: ChunkTokens, cfg: ModelConfig, weights: Weights) -> list[FrameKV]:
    """Per-frame K/V projections of a chunk's tokens, ids consecutive.

    One matmul per weight projects the whole chunk, and `frames_from_kv`,
    the one frame constructor, copies, checks and bounds the chunk's K/V
    once: finite tokens can still overflow K or V, which raises
    ShapeError. The frames hold read-only views of that one copy of K and
    one of V, so a frame kept in the bank or the sink keeps the chunk's
    K/V alive.
    """
    if chunk.frames.shape != (cfg.frames_per_chunk, cfg.tokens_per_frame, cfg.model_dim):
        raise ShapeError(f"chunk token shape {chunk.frames.shape} does not match config")
    tokens = chunk.frames[:, None, None]  # [T, 1, 1, P, M]
    k = np.matmul(tokens, weights.wk)  # [T, L, H, P, d]
    v = np.matmul(tokens, weights.wv)
    return frames_from_kv(chunk.chunk_id * cfg.frames_per_chunk, k, v)


def project_queries(chunk: ChunkTokens, cfg: ModelConfig, weights: Weights) -> np.ndarray:
    """Query projections for a chunk's tokens: [T, L, H, P, head_dim]."""
    return np.matmul(chunk.frames[:, None, None], weights.wq)
