"""Sparse memory activation as the engine runs it: frame key descriptors,
`sma_scores` on the chunk's queries, `select_top_k`, and `step_chunk` in
`nam_sma` against `nam_full`."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from membank.activation import select_top_k, sma_scores
from membank.engine import Mode, initial_state, step_chunk
from membank.errors import ConfigError, EmptyMemoryError, ShapeError
from membank.frames import MemoryBank
from membank.oracles import best_subset, random_frames
from membank.retrieval import TextQuery
from membank.toymodel import (
    ModelConfig,
    init_weights,
    make_topic_space,
    project_kv,
    project_queries,
    synth_chunk,
)

from hand_frames import hand_frame
from loop_oracles import sma_scores_loop


def constant_frame(row, shape=(2, 2, 3)):
    """A frame whose keys equal row at every (layer, head, token)."""
    return hand_frame(0, np.broadcast_to(row, shape + (len(row),)))


def constant_queries(row, shape=(2, 2, 2, 3)):
    """[T, L, H, P, d] chunk queries that all equal row."""
    return np.broadcast_to(row, shape + (len(row),))


def random_chunk_queries(rng):
    """Random [T=2, L, H, P, d] chunk queries for frames of
    oracles.random_frames' default shape: L=2, H=2, P=4, d=8."""
    return rng.standard_normal((2, 2, 2, 4, 8))


class TestDescriptors:
    def test_constant_rows(self):
        row = [3.0, -1.0]
        assert constant_frame(row).key_descriptor.tolist() == [row, row]

    def test_single_token(self):
        # one token per head: the descriptor is the mean over heads
        f = hand_frame(0, [[[[1.0, 2.0]], [[3.0, 4.0]]]])
        assert f.key_descriptor.tolist() == [[2.0, 3.0]]

    def test_small_case(self):
        k = [[[[2, 0], [0, 2]]], [[[1, 3], [5, 7]]]]  # [L=2, H=1, P=2, d=2]
        assert hand_frame(0, k).key_descriptor.tolist() == [[1.0, 1.0], [3.0, 5.0]]

    def test_frame_descriptor_constant_keys(self):
        k = np.broadcast_to(np.arange(8.0), (2, 2, 4, 8)).copy()
        assert hand_frame(0, k).key_descriptor[1].tolist() == list(range(8))

    def test_order_preserved(self, rng):
        pool = random_frames(rng, 3)
        queries = random_chunk_queries(rng)
        got = sma_scores(queries, pool)
        assert got.shape == (2, 3)
        for l in range(2):
            assert np.allclose(got[l], sma_scores_loop(queries, pool, l), rtol=1e-12, atol=1e-15)

    def test_permutation_equivariant(self, rng):
        pool = random_frames(rng, 3)
        queries = random_chunk_queries(rng)
        fwd = sma_scores(queries, pool)
        rev = sma_scores(queries, pool[::-1])
        assert np.array_equal(fwd, rev[:, ::-1])

    def test_empty_errors(self, rng):
        with pytest.raises(EmptyMemoryError):
            sma_scores(random_chunk_queries(rng), [])

    def test_read_only(self, rng):
        (f,) = random_frames(rng, 1)
        with pytest.raises(ValueError):
            f.key_descriptor[0, 0] = 1.0

    def test_cached(self, rng):
        (f,) = random_frames(rng, 1)
        assert f.key_descriptor is f.key_descriptor


finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-50, 50),
)


def pooled(rows):
    """Key descriptor of a one-layer, one-head frame with these token rows."""
    k = np.asarray(rows, dtype=np.float64)[None, None]
    return hand_frame(0, k).key_descriptor[0]


class TestMeanPoolRows:
    def test_single_row(self):
        r = [1.0, 2.0, 3.0]
        assert pooled([r]).tolist() == r

    def test_equal_rows(self):
        r = [2.0, -1.0]
        assert pooled([r, r, r]).tolist() == r

    def test_small_case(self):
        assert pooled([[1, 3], [5, 7]]).tolist() == [3.0, 5.0]

    def test_empty_errors(self):
        with pytest.raises(ShapeError):
            pooled(np.empty((0, 3)))

    @given(finite_matrices)
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, m):
        perm = np.arange(m.shape[0])[::-1]
        assert np.allclose(pooled(m), pooled(m[perm]), atol=1e-12)


class TestRelevance:
    """SMA relevance is the inner product of the query and key descriptors."""

    def test_orthogonal(self):
        scores = sma_scores(constant_queries([1.0, 0.0]), [constant_frame([0.0, 2.0])])
        assert scores.tolist() == [[0.0], [0.0]]

    def test_unit(self):
        v = [1.0, 0.0]
        assert sma_scores(constant_queries(v), [constant_frame(v)]).tolist() == [[1.0], [1.0]]

    def test_small_case(self):
        scores = sma_scores(constant_queries([1.0, 0.0]), [constant_frame([0.5, 2.0])])
        assert scores.tolist() == [[0.5], [0.5]]

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            sma_scores(constant_queries([1.0, 0.0]), [constant_frame([1.0, 1.0, 1.0])])

    def test_scale_equivariance(self, rng):
        pool = random_frames(rng, 3)
        queries = random_chunk_queries(rng)
        scaled = [hand_frame(f.frame_id, 3.5 * f.k, f.v) for f in pool]
        got, want = sma_scores(queries, scaled), 3.5 * sma_scores(queries, pool)
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got.flat, want.flat))


class TestSelectTopK:
    def test_k_ge_length_returns_all(self):
        act = select_top_k([0.1, 0.2], 5)
        assert act.indices == (0, 1)

    def test_simple(self):
        assert select_top_k([0.2, 0.9, 0.5], 2).indices == (1, 2)

    def test_zero_k_errors(self):
        with pytest.raises(ConfigError):
            select_top_k([0.5], 0)

    def test_recency_tie(self):
        assert select_top_k([0.5, 0.5, 0.1], 1).indices == (1,)

    def test_scores_aligned_with_indices(self):
        act = select_top_k([0.2, 0.9, 0.5], 2)
        assert act.scores == (0.9, 0.5)

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, scores, data):
        k = data.draw(st.integers(1, len(scores)))
        assert select_top_k(scores, k).indices == best_subset(scores, k)


CFG = ModelConfig(seed=4)


def toy_chunk(cfg, topic=0, chunk_id=9, amp=1.0):
    """A planted-topic chunk with its tokens scaled by amp, and the weights."""
    space = make_topic_space(4, cfg, 0.02)
    chunk = synth_chunk(topic, chunk_id, cfg, space)
    return type(chunk)(chunk_id, chunk.frames * amp), init_weights(cfg)


def step_from_bank(mode, cfg, bank_frames, chunk, w):
    """One engine step from a state whose bank holds bank_frames, with an
    empty sink and window and no previous chunk, so the bank is not
    updated and the prompt is unused."""
    state = replace(initial_state(cfg, mode), bank=MemoryBank(len(bank_frames), tuple(bank_frames)))
    prompt = TextQuery(np.zeros((cfg.layers, cfg.heads, cfg.head_dim)))
    return step_chunk(state, prompt, chunk, cfg, w)[1]


def random_bank(rng, count, cfg=CFG):
    return random_frames(
        rng, count, layers=cfg.layers, heads=cfg.heads, tokens=cfg.tokens_per_frame, dim=cfg.head_dim
    )


class TestStepChunkSma:
    """The engine's SMA path: selection on the pool, then attention over
    the selected frames, the window and the causal prefix."""

    def test_k_full_pool_identity(self, rng):
        cfg = replace(CFG, sma_k=4)
        bank = random_bank(rng, 4)
        chunk, w = toy_chunk(cfg)
        sma = step_from_bank(Mode.NAM_SMA, cfg, bank, chunk, w)
        full = step_from_bank(Mode.NAM_FULL, cfg, bank, chunk, w)
        assert all(map(np.array_equal, sma.attention_outputs, full.attention_outputs))
        assert [act.indices for act in sma.activation_sets] == [(0, 1, 2, 3)] * cfg.layers

    def test_single_candidate(self, rng):
        cfg = replace(CFG, sma_k=1)
        bank = random_bank(rng, 1)
        chunk, w = toy_chunk(cfg)
        sma = step_from_bank(Mode.NAM_SMA, cfg, bank, chunk, w)
        full = step_from_bank(Mode.NAM_FULL, cfg, bank, chunk, w)
        assert all(map(np.array_equal, sma.attention_outputs, full.attention_outputs))
        assert [act.indices for act in sma.activation_sets] == [(0,)] * cfg.layers

    def test_planted_selection_matches_full(self):
        # frame 1 shares the chunk's topic and, at this token amplitude,
        # takes nearly all attention, so restricting memory to it barely
        # changes the output
        cfg = replace(CFG, sma_k=1)
        bank = []
        for i, topic in enumerate((2, 0, 3)):
            chunk, w = toy_chunk(cfg, topic, chunk_id=i, amp=16.0)
            bank.append(project_kv(chunk, cfg, w)[0])
        chunk, w = toy_chunk(cfg, 0, amp=16.0)
        sma = step_from_bank(Mode.NAM_SMA, cfg, bank, chunk, w)
        full = step_from_bank(Mode.NAM_FULL, cfg, bank, chunk, w)
        assert [act.indices for act in sma.activation_sets] == [(1,)] * cfg.layers
        got, want = sma.attention_outputs[0][0, 0], full.attention_outputs[0][0, 0]
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    def test_output_within_selected_value_range(self, rng):
        cfg = replace(CFG, sma_k=2)
        bank = random_bank(rng, 5)
        chunk, w = toy_chunk(cfg)
        res = step_from_bank(Mode.NAM_SMA, cfg, bank, chunk, w)
        new = project_kv(chunk, cfg, w)
        for l, act in enumerate(res.activation_sets):
            for i in range(cfg.frames_per_chunk):
                attended = [bank[j] for j in act.indices] + new[: i + 1]
                for h in range(cfg.heads):
                    v = np.concatenate([f.v[l, h] for f in attended])
                    out = res.attention_outputs[l][i, h]
                    assert np.all(out >= v.min(axis=0) - 1e-12) and np.all(out <= v.max(axis=0) + 1e-12)

    def test_descriptor_scaling_keeps_selection(self, rng):
        cfg = replace(CFG, sma_k=2)
        bank = random_bank(rng, 4)
        scaled = [hand_frame(f.frame_id, 2.0 * f.k, f.v) for f in bank]
        chunk, w = toy_chunk(cfg)
        a = step_from_bank(Mode.NAM_SMA, cfg, bank, chunk, w)
        b = step_from_bank(Mode.NAM_SMA, cfg, scaled, chunk, w)
        assert [x.indices for x in a.activation_sets] == [x.indices for x in b.activation_sets]

    def test_precomputed_activation_respected(self, rng):
        # each layer attends exactly its selected frames: full memory over
        # a bank of just those frames gives the same bits
        cfg = replace(CFG, sma_k=2)
        bank = random_bank(rng, 5)
        chunk, w = toy_chunk(cfg)
        sma = step_from_bank(Mode.NAM_SMA, cfg, bank, chunk, w)
        queries = project_queries(chunk, cfg, w)
        for l, act in enumerate(sma.activation_sets):
            assert act == select_top_k(sma_scores(queries, bank)[l], cfg.sma_k)
            full = step_from_bank(Mode.NAM_FULL, cfg, [bank[j] for j in act.indices], chunk, w)
            assert np.array_equal(sma.attention_outputs[l], full.attention_outputs[l])
