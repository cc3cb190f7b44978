from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membank import retrieval
from membank.engine import NOISE_EPS, Mode, initial_state, step_chunk
from membank.errors import EmptyMemoryError, ShapeError
from membank.frames import MemoryBank, frames_from_kv
from membank.metrics import chunk_digest
from membank.oracles import best_subset, random_frames, relevance_scores_loop
from membank.retrieval import TextQuery, memory_update, text_relevance_scores
from membank.toymodel import ModelConfig, encode_prompt, init_weights, make_topic_space, synth_chunk

from hand_frames import hand_frame

L, H, P, D = 2, 2, 4, 8


def make_bank(frames, capacity=8):
    return MemoryBank(capacity, tuple(frames))


def make_query(rng):
    return TextQuery(rng.standard_normal((L, H, D)))


class TestRelevanceScores:
    def test_single_frame_scores_one_over_p(self, rng):
        bank = make_bank(random_frames(rng, 1, tokens=P))
        q = make_query(rng)
        scores = text_relevance_scores(q, bank)
        assert scores.shape == (1,)
        assert abs(scores[0] - 1.0 / P) < 1e-12

    def test_aligned_frame_beats_orthogonal(self, rng):
        qvec = np.zeros((L, H, D))
        qvec[:, :, 0] = 4.0
        aligned = np.zeros((L, H, P, D))
        aligned[:, :, :, 0] = 5.0  # keys along the query direction
        ortho = np.zeros((L, H, P, D))
        ortho[:, :, :, 1] = 5.0
        bank = make_bank([hand_frame(0, aligned), hand_frame(1, ortho)])
        q = TextQuery(qvec)
        scores = text_relevance_scores(q, bank)
        assert scores[0] > scores[1]
        want = relevance_scores_loop(q, bank)
        assert np.allclose(scores, want, rtol=1e-9, atol=1e-15)

    def test_sum_is_one_over_p(self, rng):
        for n in range(1, 6):
            bank = make_bank(random_frames(rng, n, tokens=P, start_id=10 * n))
            scores = text_relevance_scores(make_query(rng), bank)
            assert abs(scores.sum() - 1.0 / P) < 1e-9

    def test_matches_scalar_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            bank = make_bank(random_frames(rng, int(rng.integers(1, 6)), tokens=P))
            q = make_query(rng)
            got = text_relevance_scores(q, bank)
            want = np.array(relevance_scores_loop(q, bank))
            assert np.allclose(got, want, rtol=1e-9, atol=1e-15)

    def test_mixed_token_counts_match_scalar_oracle(self, rng):
        frames = [
            random_frames(rng, 1, tokens=p, start_id=i)[0] for i, p in enumerate((2, 5, 1, 3))
        ]
        bank = make_bank(frames)
        q = make_query(rng)
        got = text_relevance_scores(q, bank)
        want = np.array(relevance_scores_loop(q, bank))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-15)

    def test_non_finite_query_rejected(self):
        q = np.zeros((L, H, D))
        q[1, 0, 2] = np.inf
        with pytest.raises(ShapeError):
            TextQuery(q)

    def test_query_not_lhd_rejected(self):
        with pytest.raises(ShapeError, match=r"must be \[L, H, d\]"):
            TextQuery(np.zeros((L, H)))

    def test_empty_bank_errors(self, rng):
        with pytest.raises(EmptyMemoryError):
            text_relevance_scores(make_query(rng), MemoryBank(3))

    @pytest.mark.parametrize("bad_at", [0, 1], ids=["first_frame", "later_frame"])
    @pytest.mark.parametrize("geometry", [(1, H, D), (L, 1, D), (L, H, D // 2)], ids=["layers", "heads", "dim"])
    def test_mismatched_frame_rejected(self, rng, bad_at, geometry):
        # A [1, H, P, d] frame would broadcast against an [L, H, d] query
        # and score without error unless every frame is checked.
        layers, heads, dim = geometry
        bad = random_frames(rng, 1, layers, heads, P, dim, start_id=bad_at)[0]
        frames = random_frames(rng, 2, tokens=P)
        frames[bad_at] = bad
        with pytest.raises(ShapeError, match=r"incompatible with frame kv"):
            text_relevance_scores(make_query(rng), make_bank(frames))


def planted_frame(frame_id, direction, magnitude):
    """Keys all along one basis direction of the query space."""
    k = np.zeros((L, H, P, D))
    k[:, :, :, direction] = magnitude
    return hand_frame(frame_id, k)


ALONG_0 = np.zeros((L, H, D))
ALONG_0[:, :, 0] = 4.0


class TestMemoryUpdateRetention:
    """Retention in `memory_update`: the top-k rule over relevance scores,
    keeping the bank's own frames in bank order."""

    def test_all_indices(self, rng):
        bank = make_bank(random_frames(rng, 3, tokens=P), capacity=4)
        chunk = random_frames(rng, 3, tokens=P, start_id=9)
        _, retained, _ = memory_update(bank, make_query(rng), chunk)
        assert retained == [0, 1, 2]

    def test_simple_top2(self, rng):
        # the middle frame is orthogonal to the query, so it is dropped
        bank = make_bank(
            [planted_frame(0, 0, 2.0), planted_frame(1, 1, 2.0), planted_frame(2, 0, 3.0)], capacity=3
        )
        chunk = random_frames(rng, 3, tokens=P, start_id=9)
        _, retained, _ = memory_update(bank, TextQuery(ALONG_0), chunk)
        assert retained == [0, 2]

    def test_recency_tie_break(self, rng):
        bank = make_bank([planted_frame(0, 0, 2.0), planted_frame(1, 0, 2.0)], capacity=2)
        scores = text_relevance_scores(TextQuery(ALONG_0), bank)
        assert scores[0] == scores[1]
        chunk = random_frames(rng, 3, tokens=P, start_id=9)
        _, retained, _ = memory_update(bank, TextQuery(ALONG_0), chunk)
        assert retained == [1]

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_subset_enumeration(self, cap, n, seed):
        rng = np.random.default_rng(seed)
        bank = make_bank(random_frames(rng, min(n, cap), tokens=P), capacity=cap)
        q = make_query(rng)
        chunk = random_frames(rng, 3, tokens=P, start_id=9)
        _, retained, _ = memory_update(bank, q, chunk)
        keep = min(cap - 1, len(bank))
        want = best_subset(text_relevance_scores(q, bank), keep)
        assert retained == [bank.frames[i].frame_id for i in want]

    def test_retain_all_is_identity(self, rng):
        bank = MemoryBank(5, tuple(random_frames(rng, 3)))
        query = TextQuery(rng.standard_normal((2, 2, 8)))
        new_bank, retained, _ = memory_update(bank, query, random_frames(rng, 2, start_id=9))
        assert retained == [0, 1, 2]
        assert all(a is b for a, b in zip(new_bank.frames[:3], bank.frames, strict=True))

    def test_retain_subset_keeps_order(self, rng):
        # frame 1 scores highest, then frame 0: the two are kept in bank
        # order, not score order
        k = np.zeros((3, 2, 2, 4, 8))
        k[..., 0] = np.array([2.0, 3.0, 1.0])[:, None, None, None]
        frames = frames_from_kv(0, k, np.zeros_like(k))
        query = np.zeros((2, 2, 8))
        query[..., 0] = 4.0
        chunk = random_frames(rng, 2, start_id=9)
        new_bank, retained, _ = memory_update(MemoryBank(3, tuple(frames)), TextQuery(query), chunk)
        assert retained == [0, 1]
        assert [f.frame_id for f in new_bank.frames] == [0, 1, 9]


class TestChunkPrototype:
    """`memory_update` appends the previous chunk's first frame, unchanged."""

    def appended(self, rng, chunk):
        bank = make_bank(random_frames(rng, 2, tokens=P), capacity=3)
        new_bank, _, _ = memory_update(bank, make_query(rng), chunk)
        return new_bank.frames[-1]

    def test_first_frame_of_chunk(self, rng):
        chunk = random_frames(rng, 3, tokens=P, start_id=12)
        assert self.appended(rng, chunk).frame_id == 12

    def test_single_frame_chunk(self, rng):
        chunk = random_frames(rng, 1, tokens=P, start_id=5)
        assert self.appended(rng, chunk) is chunk[0]

    def test_kv_bit_identical(self, rng):
        chunk = random_frames(rng, 2, tokens=P, start_id=5)
        proto = self.appended(rng, chunk)
        assert proto.k is chunk[0].k and proto.v is chunk[0].v

    def test_empty_chunk_errors(self, rng):
        with pytest.raises(EmptyMemoryError):
            memory_update(make_bank(random_frames(rng, 2, tokens=P)), make_query(rng), [])


class TestMemoryUpdate:
    def test_empty_bank_becomes_prototype(self, rng):
        chunk = random_frames(rng, 3, tokens=P)
        bank, retained, _ = memory_update(MemoryBank(3), make_query(rng), chunk)
        assert len(bank) == 1 and retained == []
        assert bank.frames[0].frame_id == chunk[0].frame_id

    def test_capacity_one_is_not_scored(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("a capacity-1 bank retains nothing and needs no scores")

        monkeypatch.setattr(retrieval, "text_relevance_scores", refuse)
        bank = make_bank(random_frames(rng, 1, tokens=P), capacity=1)
        chunk = random_frames(rng, 3, tokens=P, start_id=5)
        new_bank, retained, _ = memory_update(bank, make_query(rng), chunk)
        assert new_bank.frames == (chunk[0],) and retained == []

    def test_full_bank_retains_top_scored(self, rng):
        # force frame 0 orthogonal (lowest score) so frames 1,2 are kept
        qvec = np.zeros((L, H, D))
        qvec[:, :, 0] = 4.0
        k = np.zeros((3, L, H, P, D))
        for i in range(3):
            k[i, :, :, :, 0 if i else 1] = 2.0 + i
        bank = make_bank(frames_from_kv(0, k, np.zeros_like(k)), capacity=3)
        chunk = random_frames(rng, 3, tokens=P, start_id=9)
        new_bank, retained, _ = memory_update(bank, TextQuery(qvec), chunk)
        assert len(new_bank) == 3
        assert retained == [1, 2]
        assert new_bank.frames[-1].frame_id == 9
        # cross-check retained set against the scalar scoring oracle
        scores = relevance_scores_loop(TextQuery(qvec), bank)
        assert tuple(retained) == best_subset(scores, 2)

    def test_capacity_saturation(self, rng):
        bank = MemoryBank(3)
        q = make_query(rng)
        for step in range(10):
            chunk = random_frames(rng, 3, tokens=P, start_id=step * 3)
            bank, _, _ = memory_update(bank, q, chunk)
        assert len(bank) == 3

    def test_update_sequences_b3(self, rng):
        # growth over 6 chunks: length after each update = min(prev_len, b-1) + 1
        bank = MemoryBank(3)
        q = make_query(rng)
        expected_lengths = []
        prev_len = 0
        for _ in range(6):
            expected_lengths.append(min(prev_len, 2) + 1)
            prev_len = expected_lengths[-1]
        got = []
        for step in range(6):
            chunk = random_frames(rng, 3, tokens=P, start_id=step * 3)
            bank, _, _ = memory_update(bank, q, chunk)
            got.append(len(bank))
        assert got == expected_lengths == [1, 2, 3, 3, 3, 3]

    @given(st.integers(1, 5), st.integers(1, 12), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_capacity_prototype_last(self, cap, steps, seed):
        rng = np.random.default_rng(seed)
        bank = MemoryBank(cap)
        q = TextQuery(rng.standard_normal((1, 1, 4)))
        for step in range(steps):
            chunk = random_frames(rng, 2, layers=1, heads=1, tokens=2, dim=4, start_id=step * 2)
            bank, _, _ = memory_update(bank, q, chunk)
            assert len(bank) <= cap
            assert bank.frames[-1].frame_id == chunk[0].frame_id


class TestRelevanceMemo:
    """A frame's relevance statistics are kept in a one-slot memo keyed on
    the prompt object; the memo must never change a result."""

    def test_one_slot_keyed_on_the_query_object(self, rng):
        (f,) = random_frames(rng, 1, tokens=P)
        q = make_query(rng)
        first = f.relevance_lse(q)
        assert f.relevance_lse(q) is first
        equal = f.relevance_lse(TextQuery(q.q.copy()))  # equal values, another object
        assert equal is not first and np.array_equal(equal, first)
        f.relevance_lse(make_query(rng))
        assert f.relevance_lse(q) is not first

    def test_views_cannot_change_under_the_memo(self, rng):
        # A frame and a query built on views own copies, so writing to the
        # views' base arrays leaves the kept statistics true to their values.
        kv, qs = rng.standard_normal((2, L, H, P, D)), rng.standard_normal((2, L, H, D))
        (f,), q = frames_from_kv(0, kv[:1], kv[1:]), TextQuery(qs[0])
        lse, desc = f.relevance_lse(q), f.key_descriptor.copy()
        kv += 1.0
        qs += 1.0
        assert f.relevance_lse(q) is lse and np.array_equal(f.key_descriptor, desc)
        fresh = hand_frame(0, f.k, f.v)
        assert np.array_equal(fresh.relevance_lse(TextQuery(q.q.copy())), lse)
        assert np.array_equal(fresh.key_descriptor, desc)

    def test_stats_alone_equal_stats_in_a_full_bank(self, rng):
        frames = random_frames(rng, 6, tokens=P)
        q = make_query(rng)
        text_relevance_scores(q, make_bank(frames, capacity=6))
        for f in frames:
            alone = hand_frame(f.frame_id, f.k, f.v)
            text_relevance_scores(q, make_bank([alone]))
            assert alone.relevance_lse(q).tobytes() == f.relevance_lse(q).tobytes()

    def test_saved_state_stepped_with_two_prompts_matches_fresh_copies(self):
        # The saved state's bank frames hold statistics for prompt A. Step
        # it with prompt B, then with A again: each step must equal, bit
        # for bit, the same step from a copy of the state whose frames are
        # new objects with no statistics kept.
        cfg = ModelConfig(seed=3, bank_capacity=4)
        space = make_topic_space(2, cfg, NOISE_EPS)
        w = init_weights(cfg)
        prompt_a = encode_prompt("the first scene", 0, cfg, space, w)
        prompt_b = encode_prompt("the second scene", 1, cfg, space, w)
        state = initial_state(cfg, Mode.NAM_SMA)
        for c in range(6):
            state, _ = step_chunk(state, prompt_a, synth_chunk(c % 2, c, cfg, space), cfg, w)
        chunk = synth_chunk(1, 6, cfg, space)
        for prompt in (prompt_b, prompt_a):
            got_state, got = step_chunk(state, prompt, chunk, cfg, w)
            want_state, want = step_chunk(fresh_copy(state), prompt, chunk, cfg, w)
            assert len(got.relevance_scores) == cfg.bank_capacity
            assert got.relevance_scores == want.relevance_scores
            assert chunk_digest(got) == chunk_digest(want)
            assert [f.frame_id for f in got_state.bank.frames] == [f.frame_id for f in want_state.bank.frames]


def fresh_copy(state):
    """state rebuilt from new frame objects, which keep no statistics. A
    frame held in several places (sink, bank, window, last chunk) stays one
    object, as in the original."""
    new = {}

    def copy(frames):
        for f in frames:
            new.setdefault(f.frame_id, hand_frame(f.frame_id, f.k, f.v))
        return tuple(new[f.frame_id] for f in frames)

    return replace(
        state,
        sink=MemoryBank(state.sink.capacity, copy(state.sink.frames)),
        bank=MemoryBank(state.bank.capacity, copy(state.bank.frames)),
        local_window=copy(state.local_window),
        prev_chunk=copy(state.prev_chunk),
    )


def test_trace_scores_match_scalar_oracle_across_prompt_switches():
    # Criterion 3 along the engine path: on every chunk of a nam_full
    # rollout whose prompt switches every third chunk, the scores kept in
    # the chunk's record are the scalar oracle's for that chunk's prompt
    # and pre-update bank, and sum to 1/P.
    cfg = ModelConfig(seed=5, bank_capacity=4)
    space = make_topic_space(3, cfg, NOISE_EPS)
    w = init_weights(cfg)
    state = initial_state(cfg, Mode.NAM_FULL)
    scored = chunk_id = 0
    for seg, topic in enumerate((0, 1, 2, 0, 1)):
        prompt = encode_prompt(f"scene {seg} prompt", topic, cfg, space, w)
        for _ in range(3):
            pre_bank = state.bank
            state, res = step_chunk(state, prompt, synth_chunk(topic, chunk_id, cfg, space), cfg, w)
            chunk_id += 1
            assert res.pre_update_bank_ids == [f.frame_id for f in pre_bank.frames]
            if not pre_bank.frames:
                assert res.relevance_scores == []
                continue
            got = np.array(res.relevance_scores)
            want = np.array(relevance_scores_loop(prompt, pre_bank))
            assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))
            assert abs(got.sum() - 1.0 / cfg.tokens_per_frame) < 1e-9
            scored += 1
    assert scored == chunk_id - 2  # chunk 0 has no previous chunk; chunk 1 an empty bank
