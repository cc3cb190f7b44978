"""Streaming rollout over chunks: retrieval, bank update, sparse
activation, extended-window attention, and local-window roll.

Per chunk the phases run in a fixed order: the incoming prompt retrieves
and updates the bank first, then the candidate memory pool is assembled
(mode dependent), then each layer attends over [selected memory] ++
[local window] ++ [intra-chunk causal] keys, and finally the local window
rolls forward. The first chunk additionally fills the sink. The state is
an immutable value, so `step_chunk` is a pure function of (state,
prompt, chunk) and a saved state can be stepped again.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .activation import ActivationSet, select_top_k, sma_scores
from .frames import FrameKV, MemoryBank
from .retrieval import TextQuery, memory_update
from .script import NarrativeScript
from .toymodel import (
    ModelConfig,
    Weights,
    encode_prompt,
    init_weights,
    make_topic_space,
    project_kv,
    project_queries,
    synth_chunk,
)

__all__ = [
    "Mode",
    "RolloutState",
    "ChunkResult",
    "RolloutRun",
    "initial_state",
    "step_chunk",
    "rollout",
]

# Logit bytes one batched attention block may hold. 256 KiB keeps a block
# well inside a 2 MiB L2 cache; see the README's "Attention" note.
LOGIT_BLOCK_BYTES = 256 * 1024

# Largest bound on |logit| at which a block skips the max shift: every
# exp then lies in [e^-64, e^64], far inside float64's range, so neither
# the numerator nor the row sum can overflow or underflow to zero. See
# the README's "Attention" note.
UNSHIFTED_LOGIT_BOUND = 64.0


class Mode(enum.Enum):
    NO_MEMORY = "no_memory"
    FRAME_SINK = "frame_sink"
    NAM_FULL = "nam_full"
    NAM_SMA = "nam_sma"

    @property
    def uses_bank(self) -> bool:
        return self in (Mode.NAM_FULL, Mode.NAM_SMA)


@dataclass(frozen=True)
class RolloutState:
    sink: MemoryBank  # the first chunk's frames; empty before chunk 0
    bank: MemoryBank
    local_window: tuple[FrameKV, ...]
    prev_chunk: tuple[FrameKV, ...]
    mode: Mode


@dataclass
class ChunkResult:
    chunk_id: int
    attention_outputs: list[np.ndarray]  # per layer, [T, H, P, d]
    activation_sets: list[Optional[ActivationSet]]  # per layer
    attended_key_count: int
    wall_time: dict[str, float]
    retained_bank_ids: list[int]
    pre_update_bank_ids: list[int]
    selected_frame_ids: list[list[int]]  # per layer


@dataclass
class RolloutRun:
    mode: Mode
    cfg: ModelConfig
    script: NarrativeScript
    results: list[ChunkResult]
    elapsed_seconds: float


def initial_state(cfg: ModelConfig, mode: Mode) -> RolloutState:
    return RolloutState(
        sink=MemoryBank(cfg.frames_per_chunk),
        bank=MemoryBank(cfg.bank_capacity),
        local_window=(),
        prev_chunk=(),
        mode=mode,
    )


def step_chunk(
    state: RolloutState,
    prompt: TextQuery,
    chunk,
    cfg: ModelConfig,
    weights: Weights,
) -> tuple[RolloutState, ChunkResult]:
    """Run one generation iteration; returns the advanced state and the
    per-chunk record."""
    mode = state.mode
    bank = state.bank
    wall: dict[str, float] = {}

    pre_update_ids = [f.frame_id for f in bank.frames]
    retained_ids: list[int] = []
    t0 = time.perf_counter()
    if mode.uses_bank and state.prev_chunk:
        bank, retained_ids = memory_update(bank, prompt, state.prev_chunk)
    wall["retrieval_update"] = time.perf_counter() - t0

    frames = project_kv(chunk, cfg, weights)
    queries = project_queries(chunk, cfg, weights)  # [T, L, H, P, d]

    t0 = time.perf_counter()
    if mode is Mode.NO_MEMORY:
        pool: tuple[FrameKV, ...] = ()
    elif mode is Mode.FRAME_SINK:
        pool = state.sink.frames
    else:
        pool = state.sink.frames + bank.frames

    activation_sets: list[Optional[ActivationSet]] = [None] * cfg.layers
    selected: list[tuple[FrameKV, ...]] = [pool] * cfg.layers
    selected_ids: list[list[int]] = [[f.frame_id for f in pool]] * cfg.layers
    if mode is Mode.NAM_SMA and pool:
        scores = sma_scores(queries, pool)
        activation_sets = []
        selected = []
        selected_ids = []
        for l in range(cfg.layers):
            act = select_top_k(scores[l], cfg.sma_k)
            activation_sets.append(act)
            chosen = tuple(pool[i] for i in act.indices)
            selected.append(chosen)
            selected_ids.append([f.frame_id for f in chosen])
    wall["selection"] = time.perf_counter() - t0

    # Every layer's K/V is assembled once into [L, H, N, d]: selected
    # memory ++ window ++ the new chunk, viewed as L*H (layer, head) pairs.
    # Query frame i attends to the prefix that ends with its own frame, so
    # the intra-chunk causal mask is a slice. One batched block covers as
    # many pairs as fit LOGIT_BLOCK_BYTES of logits: at small P this saves
    # numpy calls, at large P one pair fills the block and a bigger one
    # would outgrow L2 cache. A block runs all T query frames before the
    # next block starts, so its pairs' K/V stay in cache across frames.
    # The K/V, logit and output buffers are allocated once per chunk: at
    # large P a fresh array per block costs more in page faults than the
    # block's maths.
    # V carries a column of ones, so the value product also yields each
    # row's softmax sum and one divide per chunk normalises every row.
    # Since |q.k| <= d * max|q| * max|k|, the max shift that keeps exp
    # from overflowing runs only when that bound exceeds
    # UNSHIFTED_LOGIT_BOUND (or is NaN).
    t0 = time.perf_counter()
    L, H, T, P, d = cfg.layers, cfg.heads, cfg.frames_per_chunk, cfg.tokens_per_frame, cfg.head_dim
    G = L * H
    q_scaled = (queries * (1.0 / math.sqrt(d))).reshape(T, G, P, d)
    # Every layer attends the same number of memory frames.
    n_keys = (len(selected[0]) + len(state.local_window) + T) * P
    n_ctx = n_keys - T * P
    k = np.empty((L, H, n_keys, d))
    v = np.empty((L, H, n_keys, d + 1))
    for l in range(L):
        context = selected[l] + state.local_window + tuple(frames)
        np.concatenate([f.k[l] for f in context], axis=1, out=k[l])
        np.concatenate([f.v[l] for f in context], axis=1, out=v[l, :, :, :d])
    v[..., d] = 1.0
    k = k.reshape(G, n_keys, d)
    v = v.reshape(G, n_keys, d + 1)
    bound = d * np.maximum(q_scaled.max(), -q_scaled.min()) * np.maximum(k.max(), -k.min())
    shift = not bound <= UNSHIFTED_LOGIT_BOUND
    g = max(1, min(G, LOGIT_BLOCK_BYTES // (8 * P * n_keys)))  # float64 logits
    logits = np.empty(g * P * n_keys)
    num = np.empty((T, G, P, d + 1))  # unnormalised outputs ++ row sums
    attended = 0
    for lo in range(0, G, g):
        hi = min(lo + g, G)
        for i in range(T):
            n = n_ctx + (i + 1) * P
            w = np.matmul(
                q_scaled[i, lo:hi], k[lo:hi, :n].transpose(0, 2, 1),
                out=logits[: (hi - lo) * P * n].reshape(hi - lo, P, n),
            )
            if shift:
                w -= w.max(axis=2, keepdims=True)
            np.exp(w, out=w)
            np.matmul(w, v[lo:hi, :n], out=num[i, lo:hi])
            attended += (hi - lo) * P * n
    out_all = num[..., :d] / num[..., d:]
    outputs = [out_all[:, l * H : (l + 1) * H] for l in range(L)]
    wall["attention"] = time.perf_counter() - t0

    sink = state.sink if state.sink.frames else replace(state.sink, frames=tuple(frames))
    new_window = (state.local_window + tuple(frames))[-cfg.local_window :]

    result = ChunkResult(
        chunk_id=chunk.chunk_id,
        attention_outputs=outputs,
        activation_sets=activation_sets,
        attended_key_count=attended,
        wall_time=wall,
        retained_bank_ids=retained_ids,
        pre_update_bank_ids=pre_update_ids,
        selected_frame_ids=selected_ids,
    )
    new_state = replace(
        state,
        sink=sink,
        bank=bank,
        local_window=new_window,
        prev_chunk=tuple(frames),
    )
    return new_state, result


def rollout(
    script: NarrativeScript,
    cfg: ModelConfig,
    mode: Mode,
    noise_eps: float = 0.05,
) -> RolloutRun:
    """Run a full multi-segment script and collect per-chunk records.

    The script's seed drives all synthesis; prompts switch at segment
    boundaries.
    """
    cfg = replace(cfg, seed=script.seed)
    weights = init_weights(cfg)
    space = make_topic_space(script.num_topics, cfg, noise_eps)
    state = initial_state(cfg, mode)
    results: list[ChunkResult] = []
    started = time.perf_counter()
    chunk_id = 0
    for seg in script.segments:
        prompt = encode_prompt(seg.prompt_text, seg.topic, cfg, space, weights)
        for _ in range(seg.chunks):
            chunk = synth_chunk(seg.topic, chunk_id, cfg, space)
            state, res = step_chunk(state, prompt, chunk, cfg, weights)
            results.append(res)
            chunk_id += 1
    elapsed = time.perf_counter() - started
    return RolloutRun(mode=mode, cfg=cfg, script=script, results=results, elapsed_seconds=elapsed)
