"""Output checks, run outside the timed sections.

Every check returns a list of problems (empty when the chunk is right);
the runner counts a chunk as failed when any check reports a problem.
"""

from __future__ import annotations

import math

import numpy as np

from membank.engine import ChunkResult, Mode, RolloutState
from membank.toymodel import ChunkTokens, ModelConfig, Weights

ATOL = 1e-9


def expected_selected(cfg: ModelConfig, mode: Mode, chunk_index: int) -> int:
    """Memory frames attended per layer at a chunk, in closed form.

    The sink holds T frames from chunk 1 on; the bank holds min(c, b)
    frames after the update at chunk c >= 1.
    """
    if chunk_index == 0 or mode is Mode.NO_MEMORY:
        return 0
    sink = cfg.frames_per_chunk
    if mode is Mode.FRAME_SINK:
        return sink
    pool = sink + min(chunk_index, cfg.bank_capacity)
    return min(cfg.sma_k, pool) if mode is Mode.NAM_SMA else pool


def expected_key_count(cfg: ModelConfig, mode: Mode, chunk_index: int) -> int:
    """Acceptance criterion 8's closed form for attended_key_count."""
    P, T = cfg.tokens_per_frame, cfg.frames_per_chunk
    window = min(chunk_index * T, cfg.local_window)
    sel = expected_selected(cfg, mode, chunk_index)
    causal = P * P * T * (T + 1) // 2
    return cfg.layers * cfg.heads * (P * T * P * (sel + window) + causal)


def check_counts(cfg: ModelConfig, mode: Mode, chunk_index: int, res: ChunkResult) -> list[str]:
    problems = []
    want = expected_selected(cfg, mode, chunk_index)
    sizes = [len(ids) for ids in res.selected_frame_ids]
    if sizes != [want] * cfg.layers:
        problems.append(f"selected frames per layer {sizes}, expected {want}")
    want_keys = expected_key_count(cfg, mode, chunk_index)
    if res.attended_key_count != want_keys:
        problems.append(f"attended_key_count {res.attended_key_count}, closed form {want_keys}")
    return problems


def check_state(cfg: ModelConfig, state: RolloutState, sink_ids: list[int]) -> list[str]:
    """The bank is within capacity and the sink still holds the first chunk."""
    problems = []
    if len(state.bank) > cfg.bank_capacity:
        problems.append(f"bank holds {len(state.bank)} > capacity {cfg.bank_capacity}")
    ids = [f.frame_id for f in state.sink.frames]
    if ids != sink_ids:
        problems.append(f"sink frame ids {ids}, expected {sink_ids}")
    return problems


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def recompute_attention(
    cfg: ModelConfig,
    weights: Weights,
    pre_state: RolloutState,
    pre_sink: tuple,
    chunk: ChunkTokens,
    selected_ids: list[list[int]],
) -> list[np.ndarray]:
    """Each layer's attention output [T, H, P, d], recomputed from the
    pre-step state and the engine's selected frame ids.

    Independent of the engine's kernel: the chunk's K/V/Q are projected
    with matmul from the token embeddings, and all T query frames attend
    at once over [memory ++ window ++ chunk] keys under a block-causal
    mask.
    """
    T, P, d = cfg.frames_per_chunk, cfg.tokens_per_frame, cfg.head_dim
    known = {f.frame_id: f for f in tuple(pre_sink) + pre_state.bank.frames + pre_state.prev_chunk}
    x = chunk.frames[:, None, None]  # [T, 1, 1, P, M]
    q_new = np.matmul(x, weights.wq)  # [T, L, H, P, d]
    k_new = np.matmul(x, weights.wk)
    v_new = np.matmul(x, weights.wv)
    frame_of_key = np.repeat(np.arange(T), P)
    frame_of_query = np.repeat(np.arange(T), P)
    future = frame_of_key[None, :] > frame_of_query[:, None]  # [T*P, T*P]
    outputs = []
    for l in range(cfg.layers):
        context = [known[i] for i in selected_ids[l]] + list(pre_state.local_window)
        out = np.empty((T, cfg.heads, P, d))
        for h in range(cfg.heads):
            k_ctx = [f.k[l, h] for f in context]
            v_ctx = [f.v[l, h] for f in context]
            keys = np.concatenate(k_ctx + [k_new[:, l, h].reshape(T * P, d)], axis=0)
            vals = np.concatenate(v_ctx + [v_new[:, l, h].reshape(T * P, d)], axis=0)
            q = q_new[:, l, h].reshape(T * P, d)
            logits = q @ keys.T / math.sqrt(d)
            n_ctx = keys.shape[0] - T * P
            logits[:, n_ctx:][future] = -np.inf
            out[:, h] = (_softmax_rows(logits) @ vals).reshape(T, P, d)
        outputs.append(out)
    return outputs


def check_attention(cfg, weights, pre_state, pre_sink, chunk, res: ChunkResult) -> list[str]:
    """Engine attention output against the independent recomputation."""
    problems = []
    mode = pre_state.mode
    if mode is Mode.NAM_FULL:
        # The full pool is the sink plus the updated bank: retained frames,
        # then the previous chunk's prototype (its first frame).
        bank = list(res.retained_bank_ids)
        if pre_state.prev_chunk:
            bank.append(pre_state.prev_chunk[0].frame_id)
        want = [f.frame_id for f in pre_sink] + bank
        if any(ids != want for ids in res.selected_frame_ids):
            problems.append(f"full-memory pool {res.selected_frame_ids[0]}, expected {want}")
            return problems
    try:
        ref = recompute_attention(cfg, weights, pre_state, pre_sink, chunk, res.selected_frame_ids)
    except KeyError as e:
        return [f"selected frame id {e} was in neither the sink, the bank nor the last chunk"]
    for l, (got, want) in enumerate(zip(res.attention_outputs, ref)):
        err = float(np.max(np.abs(got - want)))
        if not err <= ATOL:
            problems.append(f"layer {l} attention differs from recomputation by {err:.3g}")
    return problems
