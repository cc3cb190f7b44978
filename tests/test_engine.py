import math
import os
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membank.activation import select_top_k
from membank.engine import (
    LOGIT_BLOCK_BYTES, AttentionPlan, Mode, RolloutState, attend, initial_state, rollout, script_inputs,
    step_chunk,
)
from membank.errors import ScriptError, ShapeError
from membank.frames import FrameKV, MemoryBank
from membank.metrics import chunk_digest, compute_metrics, determinism_hash
from membank.oracles import random_frames
from membank.script import NarrativeScript, Segment, parse_script
from membank.toymodel import (
    ModelConfig,
    encode_prompt,
    init_weights,
    make_topic_space,
    project_kv,
    project_queries,
    synth_chunk,
)
from membank.verify import expected_key_count, sma_full_pool_identity

from loop_oracles import full_memory_attention_oracle, sdp_attention_loop, sma_scores_loop

CFG = ModelConfig(seed=3)


def make_script(seed=3, pattern=(0, 1, 0), chunks=2):
    segs = tuple(Segment(f"segment {i} prompt", t, chunks) for i, t in enumerate(pattern))
    return NarrativeScript(seed=seed, segments=segs)


def run_steps(mode, n_chunks, cfg=CFG, topic=0):
    space = make_topic_space(2, cfg, 0.05)
    w = init_weights(cfg)
    prompt = encode_prompt("steady prompt", topic, cfg, space, w)
    state = initial_state(cfg, mode)
    results = []
    for c in range(n_chunks):
        chunk = synth_chunk(topic, c, cfg, space)
        state, res = step_chunk(state, prompt, chunk, cfg, w)
        results.append(res)
    return state, results


# An odd geometry: three heads, a window that is not a multiple of the
# chunk length, and a pool larger than k.
ODD_CFG = ModelConfig(
    heads=3, head_dim=8, tokens_per_frame=4, frames_per_chunk=2,
    local_window=3, bank_capacity=2, sma_k=2, seed=5,
)


def record_steps(mode, cfg, topics=(0, 0, 1, 1, 0), noise_eps=0.05):
    """Step one chunk per entry of topics (the prompt follows the topic)
    and record (pre_state, chunk, state, result) per chunk."""
    space = make_topic_space(2, cfg, noise_eps)
    w = init_weights(cfg)
    state = initial_state(cfg, mode)
    steps = []
    for c, topic in enumerate(topics):
        prompt = encode_prompt(f"prompt about topic {topic}", topic, cfg, space, w)
        chunk = synth_chunk(topic, c, cfg, space)
        pre_state = state
        state, res = step_chunk(state, prompt, chunk, cfg, w)
        steps.append((pre_state, chunk, state, res))
    return w, steps


def chunk_pool(pre_state, state):
    """The chunk's memory pool: the sink, and the updated bank in the bank
    modes."""
    if state.mode is Mode.NO_MEMORY:
        return ()
    if state.mode is Mode.FRAME_SINK:
        return pre_state.sink.frames
    return pre_state.sink.frames + state.bank.frames


def assert_matches_oracle(mode, cfg, w, steps, rows=slice(None)):
    """Every layer, head and query frame of recorded steps against the
    scalar-loop oracle at 1e-9, the intra-chunk causal prefix included.
    `rows` picks the query tokens compared (all by default)."""
    T = cfg.frames_per_chunk
    scale = 1.0 / math.sqrt(cfg.head_dim)
    for pre_state, chunk, state, res in steps:
        pool = chunk_pool(pre_state, state)
        by_id = {f.frame_id: f for f in pool}
        frames = project_kv(chunk, cfg, w)
        queries = project_queries(chunk, cfg, w)
        for l in range(cfg.layers):
            ids = res.selected_frame_ids[l]
            if mode is Mode.NAM_SMA:
                assert len(ids) == min(cfg.sma_k, len(pool))
                assert set(ids) <= set(by_id)
            else:
                assert ids == [f.frame_id for f in pool]
            memory = [by_id[i] for i in ids]
            assert res.attention_outputs[l].shape == (T, cfg.heads, cfg.tokens_per_frame, cfg.head_dim)
            for i in range(T):
                local = pre_state.local_window + tuple(frames[: i + 1])
                for h in range(cfg.heads):
                    want = full_memory_attention_oracle(queries[i, l, h][rows], memory, local, l, h, scale)
                    got = res.attention_outputs[l][i, h][rows]
                    assert np.max(np.abs(got - np.array(want))) <= 1e-9


class TestEngineAgainstOracle:
    """The engine's own attention kernel, intra-chunk causal prefix
    included, against the scalar-loop oracle."""

    @pytest.mark.parametrize("cfg", [ModelConfig(seed=3), ODD_CFG], ids=["default", "odd"])
    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    def test_attention_outputs_match_oracle(self, mode, cfg):
        w, steps = record_steps(mode, cfg)
        assert_matches_oracle(mode, cfg, w, steps)

    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    def test_large_logits_take_the_shifted_path(self, mode):
        # Token noise of 1e3 puts the logit bound far above
        # UNSHIFTED_LOGIT_BOUND; without the max shift exp overflows.
        w, steps = record_steps(mode, CFG, noise_eps=1e3)
        for *_, res in steps:
            assert res.attention_plan.shifted is True
            assert all(np.isfinite(out).all() for out in res.attention_outputs)
        assert_matches_oracle(mode, CFG, w, steps)

    @pytest.mark.parametrize("mode", [Mode.FRAME_SINK, Mode.NAM_FULL, Mode.NAM_SMA], ids=lambda m: m.value)
    def test_bound_covers_memory_frames(self, mode):
        # Only the sink and bank frames hold large keys, so only they put
        # the logit bound above UNSHIFTED_LOGIT_BOUND: a bound over the
        # window and the chunk alone would skip the max shift, and exp
        # would overflow.
        w, steps = record_steps(mode, CFG, topics=(0, 0, 1, 1))
        pre_state, chunk, _, quiet = steps[-1]
        assert quiet.attention_plan.shifted is False

        def loud(bank):
            return replace(bank, frames=tuple(FrameKV(f.frame_id, 1e4 * f.k, f.v) for f in bank.frames))

        pre_state = replace(pre_state, sink=loud(pre_state.sink), bank=loud(pre_state.bank))
        space = make_topic_space(2, CFG, 0.05)
        prompt = encode_prompt("prompt about topic 1", 1, CFG, space, w)
        state, res = step_chunk(pre_state, prompt, chunk, CFG, w)
        loud_ids = {f.frame_id for f in pre_state.sink.frames + pre_state.bank.frames}
        assert all(loud_ids & set(ids) for ids in res.selected_frame_ids)
        assert res.attention_plan.shifted is True
        assert all(np.isfinite(out).all() for out in res.attention_outputs)
        assert_matches_oracle(mode, CFG, w, [(pre_state, chunk, state, res)])


def attend_operands(rng, amplitude=1.0, G=4, P=4, n_ctx=8, d=4):
    """Random operands for `attend`: scaled queries [T, G, P, d] of T = 3
    frames, K [G, d, N] and V [G, N, d+1] with its column of ones over
    N = n_ctx + T·P keys, and K's bound."""
    T = 3
    N = n_ctx + T * P
    q = amplitude * rng.standard_normal((T, G, P, d))
    k = rng.standard_normal((G, d, N))
    v = np.concatenate([rng.standard_normal((G, N, d)), np.ones((G, N, 1))], axis=2)
    return q, k, v, float(np.abs(k).max())


def attend_oracle(q, k, v):
    """`attend` by the scalar loop: each pair's query frame i over its
    causal prefix of n_ctx + (i+1)·P keys."""
    T, G, P, d = q.shape
    n_ctx = k.shape[2] - T * P
    out = np.empty(q.shape)
    for i in range(T):
        n = n_ctx + (i + 1) * P
        for g in range(G):
            out[i, g] = sdp_attention_loop(q[i, g], k[g, :, :n].T, v[g, :n, :d], 1.0)
    return out


# Logit budgets with the key slices each gives on the default
# `attend_operands`, G = 4 pairs of P = 4 queries over N = 20 keys: the
# whole row in one product (the default budget), then the row cut into 2
# or 3 key slices.
COLUMN = 8 * 4 * 4  # bytes of one key column of logits, for all pairs
SLICE_PLANS = {
    "s1": (LOGIT_BLOCK_BYTES, 1),
    "s2": (COLUMN * 10, 2),
    "s3": (COLUMN * 7, 3),
}


class TestLogitBlocks:
    """`attend` in each slice plan, shifted and unshifted, against the
    scalar-loop oracle. Key slices and the max shift change only
    rounding."""

    @pytest.mark.parametrize("case", list(SLICE_PLANS))
    def test_budget_keeps_outputs(self, case, rng):
        budget, s = SLICE_PLANS[case]
        # At amplitude 1 the logit bound stays below UNSHIFTED_LOGIT_BOUND.
        # At 1e3 logits reach about 1e4, so exp overflows unless shifted,
        # and later slices raise the running row max.
        for amplitude, shifted in ((1.0, False), (1e3, True)):
            q, k, v, key_bound = attend_operands(rng, amplitude)
            ref, _, ref_plan = attend(q, k, v, key_bound)
            out, keys, plan = attend(q, k, v, key_bound, budget=budget)
            assert ref_plan == (1, shifted)
            assert plan == AttentionPlan(s, shifted)
            assert keys == 4 * 4 * (12 + 16 + 20)  # G·P queries over each frame's prefix
            assert np.max(np.abs(out - attend_oracle(q, k, v))) <= 1e-9
            if s == 1:
                assert np.array_equal(out, ref)
            else:
                assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
            forced, _, forced_plan = attend(q, k, v, key_bound, budget=budget, unshifted_bound=0.0)
            assert forced_plan == (s, True)
            assert np.max(np.abs(forced - out)) <= 1e-12 * np.max(np.abs(out))

    def test_overflowing_logit_bound_rejected(self, rng):
        # Finite queries of about 1e307 put d·max|q|·max|k| past float64,
        # so the logits could overflow and no shift would keep a row
        # finite. The bound is taken in Python floats, so numpy reports no
        # overflow before the ShapeError.
        q, k, v, key_bound = attend_operands(rng, 1e307)
        with np.errstate(over="raise", invalid="raise"), pytest.raises(ShapeError, match="logit bound"):
            attend(q, k, v, key_bound)


# The wide_frames benchmark geometry: its K, V, logit and output buffers
# are the largest any test steps.
WIDE_CFG = ModelConfig(tokens_per_frame=64, bank_capacity=12, sma_k=3, seed=3)


class TestLogitBudget:
    """Whenever one key column of logits for all pairs fits the budget
    (8·G·P bytes), no logits product exceeds it: a row longer than the
    budget is cut into key slices that fit."""

    @pytest.mark.parametrize(
        "cfg, budget",
        [
            (CFG, LOGIT_BLOCK_BYTES),
            (CFG, 8 * CFG.layers * CFG.heads * CFG.tokens_per_frame),  # one key per slice
            (CFG, 8 * CFG.layers * CFG.heads * CFG.tokens_per_frame * 7 + 5),  # not a multiple of a column
            (WIDE_CFG, LOGIT_BLOCK_BYTES),
            (WIDE_CFG, 100_000),
        ],
        ids=["default", "default-one-key", "default-odd", "wide", "wide-odd"],
    )
    def test_no_logits_product_exceeds_budget(self, cfg, budget, rng):
        G, T, P = cfg.layers * cfg.heads, cfg.frames_per_chunk, cfg.tokens_per_frame
        assert 8 * G * P <= budget
        # Every row length a chunk meets, up to nam_full's with a full
        # bank and window.
        widest = (2 * T + cfg.bank_capacity + cfg.local_window) * P
        for n_ctx in range(0, widest - T * P + 1, P):
            q, k, v, key_bound = attend_operands(rng, G=G, P=P, n_ctx=n_ctx, d=2)
            _, _, (s, _) = attend(q, k, v, key_bound, budget=budget)
            assert 8 * G * P * -(-k.shape[2] // s) <= budget


SAMPLE_SCRIPT = parse_script(Path(__file__).parents[1] / "sample_script.json")


class TestAttentionPlan:
    """The plans `step_chunk` records on `sample_script.json` at
    `rollout`'s default token noise, 0.05."""

    def test_default_geometry_runs_one_block_unshifted(self):
        for mode in Mode:
            run = rollout(SAMPLE_SCRIPT, ModelConfig(), mode)
            assert {res.attention_plan for res in run.results} == {AttentionPlan(1, False)}

    def test_wide_geometry_slices_only_long_rows(self):
        # At P=64 a product over all 4 pairs fits R = 256 keys, so every
        # row past the first chunk's is cut. Folded repeats shorten the
        # rows: at chunk 1 every memory mode attends only the chunk and the
        # window, which holds the sink, and `nam_full` drops 3 to 5 frames
        # per chunk. From chunk 2 on the window is full, and `nam_sma`'s
        # rows of 9 to 12 frames need 3 slices, folded or not.
        slices = {
            Mode.NO_MEMORY: [1, 2] + [3] * 10,
            Mode.FRAME_SINK: [1, 2] + [3] * 10,
            Mode.NAM_FULL: [1, 2] + [3] * 2 + [4] * 4 + [5] * 4,
            Mode.NAM_SMA: [1, 2] + [3] * 10,
        }
        for mode in Mode:
            plans = [res.attention_plan for res in rollout(SAMPLE_SCRIPT, WIDE_CFG, mode).results]
            assert plans == [AttentionPlan(s, False) for s in slices[mode]]


@pytest.mark.parametrize(
    "cfg, hashes",
    [
        (ModelConfig(), ["0196211fbf8f5f71", "07be4f6d72229ad1", "f079f9014abbea8b", "c2fa1063177000aa"]),
        (
            ModelConfig(tokens_per_frame=64, bank_capacity=12, sma_k=3),
            ["ac9e56cca433aaa6", "cfec98199ac19433", "83c8cf19ee8ac275", "5cbcdfad4a87448b"],
        ),
    ],
    ids=["default", "wide"],
)
def test_sample_script_hashes_are_pinned(cfg, hashes):
    """Every `determinism_hash` of `sample_script.json`, in `Mode` order.

    A change meant to keep every output bit must keep these. They were
    recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on one thread; another
    BLAS build may round its products differently and move them.
    """
    assert [determinism_hash(rollout(SAMPLE_SCRIPT, cfg, mode)) for mode in Mode] == hashes


def step_script(script, cfg, mode):
    """Step `script` from a fresh state; yield (cfg, weights, pre_state,
    chunk, state, result) per chunk."""
    cfg, w, inputs = script_inputs(script, cfg)
    state = initial_state(cfg, mode)
    for prompt, chunk, _ in inputs:
        pre_state = state
        state, res = step_chunk(state, prompt, chunk, cfg, w)
        yield cfg, w, pre_state, chunk, state, res


def attended_frames(pre_state, state, res):
    """Each layer's memory frames, as objects, before any fold: the pool
    as each layer's activation set selects it."""
    pool = chunk_pool(pre_state, state)
    return [pool if act is None else tuple(pool[i] for i in act.indices) for act in res.activation_sets]


def unfolded_attention(cfg, w, pre_state, chunk, selected):
    """`attend` on the whole multiset: every layer's selected memory ++
    window ++ chunk, with each repeated frame assembled once per copy."""
    L, H, T, P, d = cfg.layers, cfg.heads, cfg.frames_per_chunk, cfg.tokens_per_frame, cfg.head_dim
    recent = pre_state.local_window + tuple(project_kv(chunk, cfg, w))
    n = (len(selected[0]) + len(recent)) * P
    k = np.empty((L, H, d, n))
    v = np.ones((L, H, n, d + 1))
    for l, chosen in enumerate(selected):
        context = chosen + recent
        k[l] = np.concatenate([f.k[l] for f in context], axis=1).swapaxes(1, 2)
        v[l, :, :, :d] = np.concatenate([f.v[l] for f in context], axis=1)
    q = (project_queries(chunk, cfg, w) / math.sqrt(d)).reshape(T, L * H, P, d)
    bound = max(f.key_bound for chosen in (recent, *selected) for f in chosen)
    out, keys, _ = attend(q, k.reshape(L * H, d, n), v.reshape(L * H, n, d + 1), bound)
    return [out[:, l * H : (l + 1) * H] for l in range(L)], keys


def expected_folds(pre_state, state, res):
    """m, the copies every layer drops: the fewest any layer could drop.
    A layer could drop every copy in its memory of a frame the window
    holds, and all but one copy of any other frame it attends more than
    once."""
    window = set(map(id, pre_state.local_window))
    droppable = [
        sum(n if x in window else n - 1 for x, n in Counter(map(id, chosen)).items())
        for chosen in attended_frames(pre_state, state, res)
    ]
    return min(droppable)


def assert_fold(cfg, w, pre_state, chunk, state, res):
    """One step's fold facts: the outputs are `attend`'s on the whole
    multiset within 1e-12, `attended_key_count` counts that multiset's
    pairs, and the copies dropped, (attended - computed) / (G*T*P*P), are
    `expected_folds`. Returns the copies dropped."""
    want, keys = unfolded_attention(cfg, w, pre_state, chunk, attended_frames(pre_state, state, res))
    assert all(np.max(np.abs(got - ref)) <= 1e-12 for got, ref in zip(res.attention_outputs, want))
    assert res.attended_key_count == keys
    per_copy = cfg.layers * cfg.heads * cfg.frames_per_chunk * cfg.tokens_per_frame**2
    folded, rest = divmod(res.attended_key_count - res.computed_key_count, per_copy)
    assert rest == 0 and folded == expected_folds(pre_state, state, res)
    return folded


# 30 chunks whose topics return, so frames leave and re-enter the bank.
FOLD_SCRIPT = make_script(seed=17, pattern=(0, 1, 2, 0, 1, 0, 2, 2, 1, 0), chunks=3)


class TestFold:
    """A frame a layer attends more than once is attended once, its V
    rows scaled by its count, and every layer drops the same number of
    copies, under SMA's selections as under the whole pool. The outputs
    are those of the whole multiset, and the record still counts every
    copy."""

    @pytest.mark.parametrize("cfg", [ModelConfig(), WIDE_CFG], ids=["default", "wide"])
    @pytest.mark.parametrize("mode", list(Mode), ids=[m.value for m in Mode])
    def test_fold_keeps_the_multiset(self, mode, cfg):
        T = cfg.frames_per_chunk
        folded = computed = 0
        for c, (cfg, w, pre_state, chunk, state, res) in enumerate(step_script(FOLD_SCRIPT, cfg, mode)):
            selected = attended_frames(pre_state, state, res)
            assert res.selected_frame_ids == [[f.frame_id for f in chosen] for chosen in selected]
            m = assert_fold(cfg, w, pre_state, chunk, state, res)
            window = min(c * T, cfg.local_window)
            assert res.attended_key_count == expected_key_count(cfg, len(selected[0]), window)
            folded += m
            # `attend` ran over the memory frames left after the fold.
            computed += expected_key_count(cfg, len(selected[0]) - m, window)
        assert c + 1 == 30
        assert (folded > 0) == (mode is not Mode.NO_MEMORY)
        metrics = compute_metrics(rollout(FOLD_SCRIPT, cfg, mode))
        assert metrics.mean_computed_keys == pytest.approx(computed / 30, rel=1e-12)

    def test_copies_are_objects_not_ids(self):
        # A bank frame with a window frame's id but its own keys is not a
        # copy: it keeps its own columns and weight.
        w, steps = record_steps(Mode.NAM_FULL, CFG, topics=(0, 0, 1))
        pre_state, chunk, _, _ = steps[-1]
        twins = tuple(FrameKV(f.frame_id, 2.0 * f.k, f.v) for f in pre_state.bank.frames)
        pre_state = replace(pre_state, bank=replace(pre_state.bank, frames=twins))
        assert {f.frame_id for f in twins} & {f.frame_id for f in pre_state.local_window}
        prompt = encode_prompt("prompt about topic 1", 1, CFG, make_topic_space(2, CFG, 0.05), w)
        state, res = step_chunk(pre_state, prompt, chunk, CFG, w)
        selected = attended_frames(pre_state, state, res)
        by_id = [Counter(f.frame_id for f in pre_state.local_window + chosen) for chosen in selected]
        id_repeats = sum(max(0, min(c[i] for c in by_id) - 1) for i in by_id[0])
        assert assert_fold(CFG, w, pre_state, chunk, state, res) < id_repeats

    @staticmethod
    def steered_sma_step(sink, bank, window):
        """One `nam_sma` step of `CFG` (k = 2) from a hand-built state.

        `sink` and `bank` are tuples of (frame id, per-layer SMA score),
        and a repeated id is the same frame object; `window` names frames
        of the pool by id, plus any new ids. A frame's keys are its score
        times the chunk's unit query descriptor, so SMA ranks the pool by
        the scores given. Checks the step's fold (`assert_fold`) and
        returns the ids each layer selected and the copies dropped."""
        space = make_topic_space(2, CFG, 0.05)
        w = init_weights(CFG)
        prompt = encode_prompt("prompt about topic 0", 0, CFG, space, w)
        chunk = synth_chunk(0, 7, CFG, space)
        desc = project_queries(chunk, CFG, w).sum(axis=(0, 2, 3))
        unit = desc / np.linalg.norm(desc, axis=1, keepdims=True)
        rng = np.random.default_rng(11)
        shape = (CFG.layers, CFG.heads, CFG.tokens_per_frame, CFG.head_dim)
        frames = {}

        def frame(fid, scores=(0.0, 0.0)):
            if fid not in frames:
                k = np.broadcast_to((np.array(scores)[:, None] * unit)[:, None, None], shape)
                frames[fid] = FrameKV(fid, k.copy(), rng.standard_normal(shape))
            return frames[fid]

        pre_state = RolloutState(
            sink=MemoryBank(CFG.frames_per_chunk, tuple(frame(*f) for f in sink)),
            bank=MemoryBank(CFG.bank_capacity, tuple(frame(*f) for f in bank)),
            local_window=tuple(frame(fid) for fid in window),
            prev_chunk=(),
            mode=Mode.NAM_SMA,
        )
        state, res = step_chunk(pre_state, prompt, chunk, CFG, w)
        return res.selected_frame_ids, assert_fold(CFG, w, pre_state, chunk, state, res)

    def test_layers_drop_their_own_window_repeats(self):
        # Layer 0 selects A and B, both in the window; layer 1 selects B
        # and C, and only B is. Layer 0 drops A and layer 1 drops B: one
        # copy each, the fewer of the two layers' repeats.
        ids, folded = self.steered_sma_step(
            sink=(), bank=((10, (3, 1)), (11, (2, 2)), (12, (1, 3))), window=(5, 10, 11)
        )
        assert ids == [[10, 11], [11, 12]]
        assert folded == 1

    def test_one_layer_repeating_folds_nothing(self):
        ids, folded = self.steered_sma_step(
            sink=(), bank=((10, (3, 1)), (11, (2, 3)), (12, (1, 2))), window=(5, 10)
        )
        assert ids == [[10, 11], [11, 12]]
        assert folded == 0

    def test_frame_zero_selected_from_sink_and_bank(self):
        # Frame 0's two pool copies tie exactly and top both layers.
        ids, folded = self.steered_sma_step(
            sink=((0, (3, 3)), (1, (1, 2)), (2, (2, 1))), bank=((0, (3, 3)), (4, (0, 0))), window=(9,)
        )
        assert ids == [[0, 0], [0, 0]]
        assert folded == 1


def digests(steps):
    return [chunk_digest(res) for *_, res in steps]


def in_fresh_thread(fn, *args):
    """fn(*args) on a new thread, whose attention workspace starts empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


class TestWorkspace:
    """step_chunk keeps its attention buffers across calls, one set per
    thread. No output may depend on what an earlier chunk, geometry or
    another thread left in them."""

    def test_outputs_survive_later_chunks(self):
        for mode in Mode:
            _, [(*_, res)] = record_steps(mode, CFG, topics=(0,))
            kept = [out.copy() for out in res.attention_outputs]
            record_steps(mode, CFG)
            record_steps(mode, WIDE_CFG, topics=(0, 1))
            assert all(map(np.array_equal, res.attention_outputs, kept))

    def test_geometry_changes_match_runs_on_their_own(self):
        # Wide, then smaller buffers of another shape (and another head
        # dim), then wide again, all on one thread's workspace.
        mode = Mode.NAM_FULL
        sequence = [WIDE_CFG, CFG, ODD_CFG, WIDE_CFG]
        topics = (0, 1, 1)
        alone = {cfg: digests(in_fresh_thread(record_steps, mode, cfg, topics)[1]) for cfg in sequence}
        for cfg in sequence:
            w, steps = record_steps(mode, cfg, topics)
            assert digests(steps) == alone[cfg]
            # The scalar oracle takes seconds per wide (layer, head, frame);
            # there it checks the first, a middle and the last query token.
            rows = [0, 31, 63] if cfg is WIDE_CFG else slice(None)
            assert_matches_oracle(mode, cfg, w, steps, rows)

    def test_concurrent_threads_get_sequential_digests(self):
        jobs = [(Mode.NAM_FULL, WIDE_CFG), (Mode.NAM_SMA, CFG), (Mode.NAM_FULL, ODD_CFG)]
        want = [digests(record_steps(mode, cfg)[1]) for mode, cfg in jobs]
        start = threading.Barrier(len(jobs))

        def job(mode, cfg):
            start.wait(timeout=60)
            return [digests(record_steps(mode, cfg)[1]) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside chunks
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                got = [f.result(timeout=120) for f in [pool.submit(job, *j) for j in jobs]]
        finally:
            sys.setswitchinterval(interval)
        assert got == [[w] * 3 for w in want]


@st.composite
def model_configs(draw):
    T = draw(st.integers(1, 3))
    b = draw(st.integers(1, 4))
    return ModelConfig(
        layers=draw(st.integers(1, 3)),
        heads=draw(st.integers(1, 3)),
        head_dim=4,
        tokens_per_frame=draw(st.integers(1, 8)),
        frames_per_chunk=T,
        local_window=draw(st.integers(1, 7)),
        bank_capacity=b,
        sma_k=draw(st.integers(1, b + T)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestRandomConfigs:
    RANDOM_TOPICS = (0, 1, 1, 0)

    @given(cfg=model_configs())
    @settings(max_examples=30, deadline=None)
    def test_engine_invariants(self, cfg):
        T = cfg.frames_per_chunk
        topic = self.RANDOM_TOPICS[2]
        for mode in Mode:
            w, steps = record_steps(mode, cfg, self.RANDOM_TOPICS)
            assert_matches_oracle(mode, cfg, w, steps)
            for pre_state, chunk, state, res in steps:
                assert len(state.bank) <= cfg.bank_capacity
                assert_fold(cfg, w, pre_state, chunk, state, res)
                assert [f.frame_id for f in state.sink.frames] == list(range(T))
            # One saved state stepped twice gives the recorded chunk both times.
            pre_state, chunk, _, res = steps[2]
            prompt = encode_prompt(f"prompt about topic {topic}", topic, cfg, make_topic_space(2, cfg, 0.05), w)
            _, again = step_chunk(pre_state, prompt, chunk, cfg, w)
            _, third = step_chunk(pre_state, prompt, chunk, cfg, w)
            assert chunk_digest(again) == chunk_digest(third) == chunk_digest(res)

    @given(cfg=model_configs())
    @settings(max_examples=30, deadline=None)
    def test_sma_covering_the_pool_is_nam_full(self, cfg):
        assert sma_full_pool_identity(make_script(seed=cfg.seed, pattern=(0, 1), chunks=2), cfg)


class TestSmaSelection:
    @pytest.mark.parametrize("cfg", [ModelConfig(seed=3), ODD_CFG], ids=["default", "odd"])
    def test_selection_matches_descriptor_oracle(self, cfg):
        w, steps = record_steps(Mode.NAM_SMA, cfg, topics=(0, 1, 0, 1, 1, 0, 0))
        checked = 0
        for pre_state, chunk, state, res in steps:
            pool = pre_state.sink.frames + state.bank.frames
            if not pool:
                assert res.activation_sets == [None] * cfg.layers
                continue
            queries = project_queries(chunk, cfg, w)
            for l in range(cfg.layers):
                scores = sma_scores_loop(queries, pool, l)
                want = select_top_k(scores, cfg.sma_k)
                got = res.activation_sets[l]
                assert got.indices == want.indices
                assert np.allclose(got.scores, want.scores, rtol=1e-12, atol=1e-15)
                assert res.selected_frame_ids[l] == [pool[i].frame_id for i in want.indices]
                checked += 1
        assert checked == (len(steps) - 1) * cfg.layers


class TestStepChunk:
    def test_no_memory_attends_no_memory_frames(self):
        _, results = run_steps(Mode.NO_MEMORY, 4)
        for res in results:
            assert res.selected_frame_ids == [[] for _ in range(CFG.layers)]

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_each_layer_owns_its_selected_ids(self, mode):
        # Appending to one layer's record must leave the others as they are.
        _, results = run_steps(mode, 4)
        for res in results:
            assert len({id(ids) for ids in res.selected_frame_ids}) == CFG.layers

    def test_sink_set_after_first_chunk(self):
        assert len(initial_state(CFG, Mode.FRAME_SINK).sink) == 0
        state, _ = run_steps(Mode.FRAME_SINK, 1)
        assert [f.frame_id for f in state.sink.frames] == list(range(CFG.frames_per_chunk))

    def test_sma_selects_exactly_k_after_saturation(self):
        _, results = run_steps(Mode.NAM_SMA, 6)
        for res in results[-2:]:
            for ids in res.selected_frame_ids:
                assert len(ids) == CFG.sma_k

    def test_sma_with_full_k_matches_nam_full(self):
        full_pool = CFG.bank_capacity + CFG.frames_per_chunk
        cfg = ModelConfig(seed=3, sma_k=full_pool)
        _, full = run_steps(Mode.NAM_FULL, 5, cfg=cfg)
        _, sma = run_steps(Mode.NAM_SMA, 5, cfg=cfg)
        for a, b in zip(full, sma):
            for out_a, out_b in zip(a.attention_outputs, b.attention_outputs):
                assert np.array_equal(out_a, out_b)

    def test_local_window_rolls(self):
        state, _ = run_steps(Mode.NO_MEMORY, 5)
        assert len(state.local_window) == CFG.local_window
        ids = [f.frame_id for f in state.local_window]
        last = 5 * CFG.frames_per_chunk
        assert ids == list(range(last - CFG.local_window, last))

    def test_bank_saturates_at_capacity(self):
        state, _ = run_steps(Mode.NAM_FULL, 8)
        assert len(state.bank) == CFG.bank_capacity

    def test_frame_sink_mode_never_populates_bank(self):
        state, results = run_steps(Mode.FRAME_SINK, 6)
        assert len(state.bank) == 0
        sink_ids = [f.frame_id for f in state.sink.frames]
        for res in results[1:]:
            assert res.selected_frame_ids[0] == sink_ids


class TestModeOrdering:
    def test_attended_counts_strictly_ordered(self):
        runs = {
            mode: run_steps(mode, 8)[1] for mode in (Mode.NO_MEMORY, Mode.NAM_SMA, Mode.NAM_FULL)
        }
        last = {m: rs[-1].attended_key_count for m, rs in runs.items()}
        assert last[Mode.NO_MEMORY] < last[Mode.NAM_SMA] < last[Mode.NAM_FULL]


class TestRollout:
    def test_single_segment_single_chunk(self):
        script = NarrativeScript(seed=1, segments=(Segment("one", 0, 1),))
        run = rollout(script, CFG, Mode.NAM_SMA)
        assert len(run.results) == 1
        assert run.results[0].retained_bank_ids == []
        assert run.results[0].pre_update_bank_ids == []

    def test_six_segment_script(self):
        script = make_script(pattern=(0, 1, 2, 0, 1, 0), chunks=2)
        run = rollout(script, CFG, Mode.NAM_FULL)
        assert len(run.results) == 12
        # prompt switches at each segment boundary: 6 segments observed
        assert run.script.num_topics == 3
        assert len(run.script.segments) == 6

    def test_deterministic_repeat(self):
        script = make_script()
        a = rollout(script, CFG, Mode.NAM_SMA)
        b = rollout(script, CFG, Mode.NAM_SMA)
        for ra, rb in zip(a.results, b.results):
            assert chunk_digest(ra) == chunk_digest(rb)

    def test_causality_under_late_prompt_edit(self):
        base = make_script(pattern=(0, 1, 0), chunks=2)
        edited = NarrativeScript(
            seed=base.seed,
            segments=base.segments[:2] + (Segment("different closing prompt", 0, 2),),
        )
        a = rollout(base, CFG, Mode.NAM_SMA)
        b = rollout(edited, CFG, Mode.NAM_SMA)
        for ra, rb in zip(a.results[:4], b.results[:4]):
            assert chunk_digest(ra) == chunk_digest(rb)

    def test_empty_script_rejected(self):
        with pytest.raises(ScriptError):
            NarrativeScript(seed=0, segments=())

    def test_chunk_past_the_end_has_no_topic(self):
        script = make_script(pattern=(0, 1), chunks=2)
        assert [script.topic_of_chunk(c) for c in range(4)] == [0, 0, 1, 1]
        with pytest.raises(ScriptError, match="chunk 4 beyond script length 4"):
            script.topic_of_chunk(4)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_logits_rejected(self):
        # Token noise of 1e306 keeps K and V finite but not the logits' bound.
        with pytest.raises(ShapeError, match="logit bound"):
            rollout(make_script(), CFG, Mode.NO_MEMORY, noise_eps=1e306)


class TestFullMemoryOracle:
    def test_matches_engine_sma_full_k(self):
        # nam_sma with k covering bank + sink, at chunk 2 (both in the pool)
        cfg = ModelConfig(seed=3, sma_k=6)
        w, steps = record_steps(Mode.NAM_SMA, cfg, topics=(0, 1, 0))
        pre_state, chunk, state, res = steps[-1]
        pool = pre_state.sink.frames + state.bank.frames
        assert res.activation_sets[1].indices == tuple(range(len(pool)))
        q = project_queries(chunk, cfg, w)[0, 1, 0]
        local = pre_state.local_window + tuple(project_kv(chunk, cfg, w)[:1])
        want = full_memory_attention_oracle(q, pool, local, 1, 0, 1 / math.sqrt(cfg.head_dim))
        assert np.allclose(res.attention_outputs[1][0, 0], np.array(want), rtol=1e-9, atol=1e-12)

    def test_matches_sdp_on_concatenated_pool(self, rng):
        pool = random_frames(rng, 2)
        local = random_frames(rng, 2, start_id=2)
        q = rng.standard_normal((3, 8))
        k_cat = np.concatenate([f.k[1, 1] for f in pool + local])
        v_cat = np.concatenate([f.v[1, 1] for f in pool + local])
        got = np.array(full_memory_attention_oracle(q, pool, local, 1, 1, 0.25))
        logits = q @ k_cat.T * 0.25
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.allclose(got, (w / w.sum(axis=1, keepdims=True)) @ v_cat, rtol=1e-9, atol=1e-12)

    def test_empty_pool_attends_local_only(self, rng):
        local = random_frames(rng, 2)
        q = rng.standard_normal((3, 8))
        got = np.array(full_memory_attention_oracle(q, [], local, 0, 0, 0.25))
        want = np.array(full_memory_attention_oracle(q, local, [], 0, 0, 0.25))
        assert np.array_equal(got, want)

    def test_agrees_with_scalar_sdp_loop(self, rng):
        pool = random_frames(rng, 2)
        q = rng.standard_normal((2, 8))
        k_cat = np.concatenate([f.k[0, 0] for f in pool])
        v_cat = np.concatenate([f.v[0, 0] for f in pool])
        a = full_memory_attention_oracle(q, pool, [], 0, 0, 0.3)
        b = sdp_attention_loop(q, k_cat, v_cat, 0.3)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_engine_import_leaves_out_the_harness():
    # The package re-exports nothing, so importing the engine loads
    # neither the metrics and their timing loop nor the CLI.
    import membank

    src = Path(membank.__file__).parents[1]
    code = "import sys, membank.engine; print(sorted({'membank.metrics', 'membank.cli'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
