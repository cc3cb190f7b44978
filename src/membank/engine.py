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
import threading
import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .activation import ActivationSet, select_top_k, sma_scores
from .errors import ShapeError
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
    "AttentionPlan",
    "Mode",
    "RolloutState",
    "ChunkResult",
    "RolloutRun",
    "initial_state",
    "attend",
    "step_chunk",
    "script_inputs",
    "rollout",
    "NOISE_EPS",
]

# Logit bytes one attention product may hold: every product covers all
# (layer, head) pairs, and a row whose logits for all pairs exceed it is
# cut into key slices that fit. 512 KiB keeps a product's logits inside a
# 2 MiB L2 cache and, at P=64 with 4 pairs, cuts rows into slices of at
# most 256 keys; see the README's "Attention" note.
LOGIT_BLOCK_BYTES = 512 * 1024

# Largest bound on |logit| at which `attend` skips the max shift: every
# exp then lies in [e^-64, e^64], far inside float64's range, so neither
# the numerator nor the row sum can overflow or underflow to zero. See
# the README's "Attention" note.
UNSHIFTED_LOGIT_BOUND = 64.0

# Token noise of the topic space a rollout synthesises its chunks from
# (`toymodel.make_topic_space`): `rollout`'s default, and every CLI run's.
NOISE_EPS = 0.05


class _Workspace(threading.local):
    """Each thread's attention buffers, one flat float64 array per name,
    kept across chunks. A buffer grows to the largest chunk yet and never
    shrinks."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}


_workspace = _Workspace()


def _scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """An exact-size `shape` view of this thread's buffer `name`. Its
    contents are left over from earlier chunks: write before reading."""
    size = math.prod(shape)
    buf = _workspace.buffers.get(name)
    if buf is None or buf.size < size:
        buf = _workspace.buffers[name] = np.empty(size)
    return buf[:size].reshape(shape)


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


class AttentionPlan(NamedTuple):
    """How `attend` ran: key slices per full row, and whether the max
    shift ran."""

    slices: int
    shifted: bool


@dataclass
class ChunkResult:
    chunk_id: int
    attention_outputs: list[np.ndarray]  # per layer, [T, H, P, d]
    activation_sets: list[Optional[ActivationSet]]  # per layer
    attended_key_count: int  # (query, key) pairs of the multiset, repeated frames counted per copy
    computed_key_count: int  # pairs `attend` computed: G*T*P*P fewer per copy the fold dropped
    attention_plan: AttentionPlan
    wall_time: dict[str, float]  # seconds per step_chunk phase; time_modes adds "synthesis"
    retained_bank_ids: list[int]
    pre_update_bank_ids: list[int]
    relevance_scores: list[float]  # aligned with pre_update_bank_ids; empty when not scored
    selected_frame_ids: list[list[int]]  # per layer


@dataclass
class RolloutRun:
    mode: Mode
    cfg: ModelConfig
    script: NarrativeScript
    results: list[ChunkResult]
    # Nothing in membank sets or reads this; only perfbench/run.py, which
    # builds RolloutRun from five positional arguments, still passes it.
    elapsed_seconds: float = 0.0


def initial_state(cfg: ModelConfig, mode: Mode) -> RolloutState:
    return RolloutState(
        sink=MemoryBank(cfg.frames_per_chunk),
        bank=MemoryBank(cfg.bank_capacity),
        local_window=(),
        prev_chunk=(),
        mode=mode,
    )


def attend(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    key_bound: float,
    *,
    budget: int = LOGIT_BLOCK_BYTES,
    unshifted_bound: float = UNSHIFTED_LOGIT_BOUND,
) -> tuple[np.ndarray, int, AttentionPlan]:
    """Causal attention of a chunk's T query frames over N keys, for G
    (layer, head) pairs at once.

    `q` is [T, G, P, d], already scaled by 1/sqrt(d). `k` is [G, d, N],
    keys-last so the logits product reads it untransposed. `v` is
    [G, N, d+1]: its last column is ones, so the value product also yields
    each row's softmax sum and one divide normalises every row. The last
    T*P keys are the chunk's own frames, and query frame i attends the
    prefix that ends with its own frame, so the intra-chunk causal mask is
    a slice. `key_bound` is at least max|k| over all N keys.

    Every `matmul -> exp -> matmul` covers all G pairs. When a row's
    logits for all pairs exceed `budget` bytes of float64, each query
    frame cuts its prefix into `s` near-equal key slices, none wider than
    the budget allows, and adds each slice's value product into its row.
    The logit and row buffers are views of this thread's workspace
    (`_scratch`), kept across calls.

    Since |q.k| <= d * max|q| * max|k|, the max shift that keeps exp from
    overflowing runs only when that bound exceeds `unshifted_bound`. A
    bound that is not finite raises ShapeError: the logits themselves
    could then overflow, and no shift rescues a row whose max is inf.
    Shifted, the slices merge as in an online softmax (FlashAttention,
    Dao et al. 2022): each slice shifts by the running row max `m`, and
    when a slice raises it the sum so far is rescaled to match.

    Returns the outputs [T, G, P, d] as a fresh array, so no view of the
    workspace escapes; the number of (query, key) pairs it computed, over
    all G pairs; and the plan.
    """
    T, G, P, d = q.shape
    n_keys = k.shape[2]
    n_ctx = n_keys - T * P
    bound = d * max(float(q.max()), -float(q.min())) * key_bound
    if not math.isfinite(bound):
        raise ShapeError(f"logit bound {bound} is not finite: the attention logits can overflow")
    shift = bound > unshifted_bound
    row_keys = max(1, budget // (8 * G * P))  # keys whose float64 logits fit, for all pairs
    s = -(-n_keys // row_keys)  # key slices per full row
    logits = _scratch("logits", (G * P * min(n_keys, row_keys),))
    num = _scratch("num", (T, G, P, d + 1))  # unnormalised outputs ++ row sums
    part = _scratch("part", (G, P, d + 1))  # a later slice's value product
    attended = 0
    for i in range(T):
        n = n_ctx + (i + 1) * P
        acc = num[i]
        s_i = min(s, n)
        for j in range(s_i):
            a, b = j * n // s_i, (j + 1) * n // s_i
            w = np.matmul(q[i], k[:, :, a:b], out=logits[: G * P * (b - a)].reshape(G, P, b - a))
            if shift:
                m_new = w.max(axis=2, keepdims=True)
                if j:
                    np.maximum(m_new, m, out=m_new)
                    acc *= np.exp(m - m_new)
                m = m_new
                w -= m
            np.exp(w, out=w)
            if j:
                acc += np.matmul(w, v[:, a:b], out=part)
            else:
                np.matmul(w, v[:, a:b], out=acc)
        attended += G * P * n
    return num[..., :d] / num[..., d:], attended, AttentionPlan(s, shift)


def _fold_repeats(window, memory):
    """Fold the repeated frames of a chunk: every layer drops the same
    number m of memory copies.

    A layer attends a frame twice when the memory it selected holds a
    frame of the local window (the window keeps the latest bank
    prototypes and, in the first chunks, the sink's frames) or holds one
    frame twice (frame 0 sits in both the sink and the bank). A copy is
    the same object: ids alone may collide. The chunk's own frames are
    never copies, since `project_kv` builds them in this step. A softmax
    over a multiset equals the softmax over its distinct keys with each
    key's weight multiplied by its count. So a layer can drop every
    memory copy of a window frame, and every copy but the first of any
    other frame, and scale the V rows of the copy it keeps, ones column
    included, by the count. `attend` runs one key count for all (layer,
    head) pairs, so each layer drops m copies, the fewest any layer can
    drop, taking its droppable copies in selection order. When every
    layer attends the whole pool they all agree, and one memory, the
    pool, stands for them all.

    `memory` holds each layer's selected frames. Returns each layer's
    memory frames kept, m, and the V scales as (layer, position in the
    context in frames, count), the layer a slice over all layers when
    they all scale alike; or None when some layer can drop no copy.
    Counting the copies costs a few set operations per layer; only a
    chunk that folds walks its layers' frames.
    """
    window_ids = {*map(id, window)}
    m = len(memory[0])
    for chosen in memory:
        m = min(m, len(chosen) - len({*map(id, chosen)} - window_ids))
        if not m:
            return None
    window_at = dict(zip(map(id, window), range(len(window))))
    kept_memory, scales = [], []
    for chosen in memory:
        n_kept = len(chosen) - m
        kept, at, extra = [], {}, {}  # frames kept; a kept frame's position; copies folded into a position
        left = m
        for f in chosen:
            x = id(f)
            if left:
                p = n_kept + window_at[x] if x in window_at else at.get(x)
                if p is not None:
                    extra[p] = extra.get(p, 1) + 1
                    left -= 1
                    continue
            at.setdefault(x, len(kept))
            kept.append(f)
        kept_memory.append(tuple(kept))
        scales.append(list(extra.items()))
    # Layers that scale the same copies by the same counts share one
    # multiply per copy.
    if all(s == scales[0] for s in scales[1:]):
        return kept_memory, m, [(slice(None), p, n) for p, n in scales[0]]
    return kept_memory, m, [(l, p, n) for l, layer in enumerate(scales) for p, n in layer]


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
    relevance: list[float] = []
    t0 = time.perf_counter()
    if mode.uses_bank and state.prev_chunk:
        bank, retained_ids, relevance_scores = memory_update(bank, prompt, state.prev_chunk)
        relevance = relevance_scores.tolist()
    wall["retrieval_update"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    frames = tuple(project_kv(chunk, cfg, weights))
    queries = project_queries(chunk, cfg, weights)  # [T, L, H, P, d]
    wall["projection"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if mode is Mode.NO_MEMORY:
        pool: tuple[FrameKV, ...] = ()
    elif mode is Mode.FRAME_SINK:
        pool = state.sink.frames
    else:
        pool = state.sink.frames + bank.frames

    activation_sets: list[Optional[ActivationSet]] = [None] * cfg.layers
    if mode is Mode.NAM_SMA and pool:
        scores = sma_scores(queries, pool)
        activation_sets = [select_top_k(scores[l], cfg.sma_k) for l in range(cfg.layers)]
    # A layer without an activation set attends the whole pool.
    selected = [pool if act is None else tuple(pool[i] for i in act.indices) for act in activation_sets]
    selected_ids = [[f.frame_id for f in chosen] for chosen in selected]
    wall["selection"] = time.perf_counter() - t0

    # Every layer's context is assembled once per chunk, selected memory
    # ++ window ++ the new chunk, into this thread's workspace (`_scratch`)
    # as the (layer, head) pairs `attend` reads: K keys-last, V with a
    # column of ones. When every layer attends the whole pool (no SMA, or
    # an SMA k that covers the pool), the context is copied for all layers
    # in one concatenate per buffer. Otherwise only the window and the
    # chunk are; the memory frames, which SMA selects per layer, are
    # copied layer by layer. Freed after each chunk, buffers this size
    # (about 0.8 MB each at P=64) let glibc trim the heap, and the next
    # chunk faults the same pages in again: 200-430 minor faults per P=64,
    # b=12 `nam_full` chunk, against 0-1 with the kept buffers.
    # A frame a layer attends more than once is assembled once, its V
    # rows scaled by its count, and every layer drops the same number of
    # copies (`_fold_repeats`), SMA's selections included. With the whole
    # pool the layers agree, and one selection and one set of scales
    # stand for all of them.
    t0 = time.perf_counter()
    L, H, T, P, d = cfg.layers, cfg.heads, cfg.frames_per_chunk, cfg.tokens_per_frame, cfg.head_dim
    G = L * H
    q_scaled = (queries * (1.0 / math.sqrt(d))).reshape(T, G, P, d)
    recent = state.local_window + frames
    whole_pool = all(len(chosen) == len(pool) for chosen in selected)
    memory, n_folded, scales = ([pool] if whole_pool else selected), 0, ()
    if pool:
        memory, n_folded, scales = _fold_repeats(state.local_window, memory) or (memory, 0, ())
    # Every layer attends the same number of memory frames.
    n_mem = len(memory[0]) * P
    n_keys = n_mem + len(recent) * P
    k = _scratch("k", (L, H, d, n_keys))
    v = _scratch("v", (L, H, n_keys, d + 1))
    if whole_pool:
        context = memory[0] + recent
        np.concatenate([f.k.swapaxes(2, 3) for f in context], axis=3, out=k)
        np.concatenate([f.v for f in context], axis=2, out=v[..., :d])
    else:
        np.concatenate([f.k.swapaxes(2, 3) for f in recent], axis=3, out=k[..., n_mem:])
        np.concatenate([f.v for f in recent], axis=2, out=v[:, :, n_mem:, :d])
        for l, chosen in enumerate(memory):
            if chosen:
                np.concatenate([f.k[l].swapaxes(1, 2) for f in chosen], axis=2, out=k[l, :, :, :n_mem])
                np.concatenate([f.v[l] for f in chosen], axis=1, out=v[l, :, :n_mem, :d])
    v[..., d] = 1.0
    for l, j, count in scales:
        rows = v[l, :, j * P : (j + 1) * P]
        rows *= count  # in place on the view; `v[...] *= count` would also write it back
    # Each frame's bound was computed once when it was built.
    key_bound = max(f.key_bound for chosen in (recent, *memory) for f in chosen)
    out_all, computed, plan = attend(
        q_scaled, k.reshape(G, d, n_keys), v.reshape(G, n_keys, d + 1), key_bound
    )
    # Each dropped copy would have given every query of every pair P keys.
    attended = computed + G * T * P * P * n_folded
    outputs = [out_all[:, l * H : (l + 1) * H] for l in range(L)]
    wall["attention"] = time.perf_counter() - t0

    sink = state.sink if state.sink.frames else replace(state.sink, frames=frames)
    new_window = recent[-cfg.local_window :]

    result = ChunkResult(
        chunk_id=chunk.chunk_id,
        attention_outputs=outputs,
        activation_sets=activation_sets,
        attended_key_count=attended,
        computed_key_count=computed,
        attention_plan=plan,
        wall_time=wall,
        retained_bank_ids=retained_ids,
        pre_update_bank_ids=pre_update_ids,
        relevance_scores=relevance,
        selected_frame_ids=selected_ids,
    )
    new_state = replace(
        state,
        sink=sink,
        bank=bank,
        local_window=new_window,
        prev_chunk=frames,
    )
    return new_state, result


def script_inputs(script: NarrativeScript, cfg: ModelConfig, noise_eps: float = NOISE_EPS):
    """The config seeded by `script`, the weights, and a lazy stream of
    each chunk's (prompt, tokens, synthesis seconds): its `synth_chunk`
    time plus its share of the segment's `encode_prompt`."""
    cfg = replace(cfg, seed=script.seed)
    weights = init_weights(cfg)
    space = make_topic_space(script.num_topics, cfg, noise_eps)

    def chunks():
        chunk_id = 0
        for seg in script.segments:
            t0 = time.perf_counter()
            prompt = encode_prompt(seg.prompt_text, seg.topic, cfg, space, weights)
            prompt_share = (time.perf_counter() - t0) / seg.chunks
            for _ in range(seg.chunks):
                t0 = time.perf_counter()
                chunk = synth_chunk(seg.topic, chunk_id, cfg, space)
                yield prompt, chunk, time.perf_counter() - t0 + prompt_share
                chunk_id += 1

    return cfg, weights, chunks()


def rollout(
    script: NarrativeScript,
    cfg: ModelConfig,
    mode: Mode,
    noise_eps: float = NOISE_EPS,
) -> RolloutRun:
    """Run a full multi-segment script, synthesising each chunk just
    before stepping it, and collect per-chunk records. `wall_time` holds
    the step_chunk phases only; `time_modes` adds "synthesis"."""
    cfg, weights, inputs = script_inputs(script, cfg, noise_eps)
    state = initial_state(cfg, mode)
    results: list[ChunkResult] = []
    for prompt, chunk, _ in inputs:
        state, res = step_chunk(state, prompt, chunk, cfg, weights)
        results.append(res)
    return RolloutRun(mode=mode, cfg=cfg, script=script, results=results)
