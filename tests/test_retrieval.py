import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membank import retrieval
from membank.errors import EmptyMemoryError, ShapeError
from membank.frames import FrameKV, bank_append, bank_new
from membank.oracles import best_subset, random_frames, relevance_scores_loop
from membank.retrieval import TextQuery, chunk_prototype, memory_update, text_relevance_scores

L, H, P, D = 2, 2, 4, 8


def make_bank(frames, capacity=8):
    bank = bank_new(capacity)
    for f in frames:
        bank = bank_append(bank, f)
    return bank


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
        fa = FrameKV(0, k=aligned, v=np.zeros_like(aligned))
        fb = FrameKV(1, k=ortho, v=np.zeros_like(ortho))
        bank = make_bank([fa, fb])
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

    def test_empty_bank_errors(self, rng):
        with pytest.raises(EmptyMemoryError):
            text_relevance_scores(make_query(rng), bank_new(3))


def planted_frame(frame_id, direction, magnitude):
    """Keys all along one basis direction of the query space."""
    k = np.zeros((L, H, P, D))
    k[:, :, :, direction] = magnitude
    return FrameKV(frame_id, k=k, v=np.zeros_like(k))


ALONG_0 = np.zeros((L, H, D))
ALONG_0[:, :, 0] = 4.0


class TestRetrieveTop:
    """Retention in `memory_update`: the top-k rule over relevance scores."""

    def test_all_indices(self, rng):
        bank = make_bank(random_frames(rng, 3, tokens=P), capacity=4)
        chunk = random_frames(rng, 3, tokens=P, start_id=9)
        _, retained = memory_update(bank, make_query(rng), chunk)
        assert retained == [0, 1, 2]

    def test_simple_top2(self, rng):
        # the middle frame is orthogonal to the query, so it is dropped
        bank = make_bank(
            [planted_frame(0, 0, 2.0), planted_frame(1, 1, 2.0), planted_frame(2, 0, 3.0)], capacity=3
        )
        chunk = random_frames(rng, 3, tokens=P, start_id=9)
        _, retained = memory_update(bank, TextQuery(ALONG_0), chunk)
        assert retained == [0, 2]

    def test_recency_tie_break(self, rng):
        bank = make_bank([planted_frame(0, 0, 2.0), planted_frame(1, 0, 2.0)], capacity=2)
        scores = text_relevance_scores(TextQuery(ALONG_0), bank)
        assert scores[0] == scores[1]
        chunk = random_frames(rng, 3, tokens=P, start_id=9)
        _, retained = memory_update(bank, TextQuery(ALONG_0), chunk)
        assert retained == [1]

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_subset_enumeration(self, cap, n, seed):
        rng = np.random.default_rng(seed)
        bank = make_bank(random_frames(rng, min(n, cap), tokens=P), capacity=cap)
        q = make_query(rng)
        chunk = random_frames(rng, 3, tokens=P, start_id=9)
        _, retained = memory_update(bank, q, chunk)
        keep = min(cap - 1, len(bank))
        want = best_subset(text_relevance_scores(q, bank), keep)
        assert retained == [bank.frames[i].frame_id for i in want]


class TestChunkPrototype:
    def test_first_frame_of_chunk(self, rng):
        chunk = random_frames(rng, 3, start_id=12)
        assert chunk_prototype(chunk).frame_id == 12

    def test_single_frame_chunk(self, rng):
        chunk = random_frames(rng, 1)
        assert chunk_prototype(chunk) is chunk[0]

    def test_kv_bit_identical(self, rng):
        chunk = random_frames(rng, 2)
        proto = chunk_prototype(chunk)
        assert proto.k is chunk[0].k and proto.v is chunk[0].v

    def test_empty_chunk_errors(self):
        with pytest.raises(EmptyMemoryError):
            chunk_prototype([])


class TestMemoryUpdate:
    def test_empty_bank_becomes_prototype(self, rng):
        chunk = random_frames(rng, 3, tokens=P)
        bank, retained = memory_update(bank_new(3), make_query(rng), chunk)
        assert len(bank) == 1 and retained == []
        assert bank.frames[0].frame_id == chunk[0].frame_id

    def test_capacity_one_is_not_scored(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("a capacity-1 bank retains nothing and needs no scores")

        monkeypatch.setattr(retrieval, "text_relevance_scores", refuse)
        bank = make_bank(random_frames(rng, 1, tokens=P), capacity=1)
        chunk = random_frames(rng, 3, tokens=P, start_id=5)
        new_bank, retained = memory_update(bank, make_query(rng), chunk)
        assert new_bank.frames == (chunk_prototype(chunk),) and retained == []

    def test_full_bank_retains_top_scored(self, rng):
        # force frame 0 orthogonal (lowest score) so frames 1,2 are kept
        qvec = np.zeros((L, H, D))
        qvec[:, :, 0] = 4.0
        frames = []
        for i in range(3):
            k = np.zeros((L, H, P, D))
            k[:, :, :, 0 if i else 1] = 2.0 + i
            frames.append(FrameKV(i, k=k, v=np.zeros_like(k)))
        bank = make_bank(frames, capacity=3)
        chunk = random_frames(rng, 3, tokens=P, start_id=9)
        new_bank, retained = memory_update(bank, TextQuery(qvec), chunk)
        assert len(new_bank) == 3
        assert retained == [1, 2]
        assert new_bank.frames[-1].frame_id == 9
        # cross-check retained set against the scalar scoring oracle
        scores = relevance_scores_loop(TextQuery(qvec), bank)
        assert tuple(retained) == best_subset(scores, 2)

    def test_capacity_saturation(self, rng):
        bank = bank_new(3)
        q = make_query(rng)
        for step in range(10):
            chunk = random_frames(rng, 3, tokens=P, start_id=step * 3)
            bank, _ = memory_update(bank, q, chunk)
        assert len(bank) == 3

    def test_update_sequences_b3(self, rng):
        # growth over 6 chunks: length after each update = min(prev_len, b-1) + 1
        bank = bank_new(3)
        q = make_query(rng)
        expected_lengths = []
        prev_len = 0
        for _ in range(6):
            expected_lengths.append(min(prev_len, 2) + 1)
            prev_len = expected_lengths[-1]
        got = []
        for step in range(6):
            chunk = random_frames(rng, 3, tokens=P, start_id=step * 3)
            bank, _ = memory_update(bank, q, chunk)
            got.append(len(bank))
        assert got == expected_lengths == [1, 2, 3, 3, 3, 3]

    @given(st.integers(1, 5), st.integers(1, 12), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_never_exceeds_capacity_prototype_last(self, cap, steps, seed):
        rng = np.random.default_rng(seed)
        bank = bank_new(cap)
        q = TextQuery(rng.standard_normal((1, 1, 4)))
        for step in range(steps):
            chunk = random_frames(rng, 2, layers=1, heads=1, tokens=2, dim=4, start_id=step * 2)
            bank, _ = memory_update(bank, q, chunk)
            assert len(bank) <= cap
            assert bank.frames[-1].frame_id == chunk[0].frame_id
