"""Capacity-bounded KV memory for streaming chunk-wise attention:
text-conditioned retrieval, first-frame prototypes, a first-chunk sink,
and relevance-gated sparse activation, plus a deterministic toy model
and rollout harness for exercising them."""

from .activation import ActivationSet, select_top_k
from .engine import Mode, rollout, step_chunk
from .frames import FrameKV, MemoryBank
from .metrics import RolloutMetrics, bench_modes, compute_metrics
from .retrieval import TextQuery, memory_update, text_relevance_scores
from .script import NarrativeScript, Segment, parse_script
from .toymodel import ModelConfig, TopicSpace, init_weights, make_topic_space

__all__ = [
    "ActivationSet",
    "select_top_k",
    "Mode",
    "rollout",
    "step_chunk",
    "FrameKV",
    "MemoryBank",
    "RolloutMetrics",
    "compute_metrics",
    "bench_modes",
    "TextQuery",
    "memory_update",
    "text_relevance_scores",
    "NarrativeScript",
    "Segment",
    "parse_script",
    "ModelConfig",
    "TopicSpace",
    "init_weights",
    "make_topic_space",
]
