from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membank.engine import Mode, initial_state, step_chunk
from membank.errors import CapacityError, ConfigError, ShapeError
from membank.frames import FrameKV, MemoryBank
from membank.metrics import chunk_digest
from membank.oracles import random_frames
from membank.retrieval import TextQuery, memory_update
from membank.toymodel import ModelConfig, encode_prompt, init_weights, make_topic_space, synth_chunk


def test_bank_new_capacities():
    assert MemoryBank(3).capacity == 3 and len(MemoryBank(3)) == 0
    assert MemoryBank(9).capacity == 9


def test_bank_new_zero_capacity():
    with pytest.raises(ConfigError):
        MemoryBank(0)


class TestRetain:
    """Retention in `memory_update` keeps the bank's own frames, in bank
    order."""

    def test_retain_all_is_identity(self, rng):
        bank = MemoryBank(5, tuple(random_frames(rng, 3)))
        query = TextQuery(rng.standard_normal((2, 2, 8)))
        new_bank, retained = memory_update(bank, query, random_frames(rng, 2, start_id=9))
        assert retained == [0, 1, 2]
        assert all(a is b for a, b in zip(new_bank.frames[:3], bank.frames, strict=True))

    def test_retain_subset_keeps_order(self, rng):
        # frame 1 scores highest, then frame 0: the two are kept in bank
        # order, not score order
        frames = []
        for i, magnitude in enumerate((2.0, 3.0, 1.0)):
            k = np.zeros((2, 2, 4, 8))
            k[..., 0] = magnitude
            frames.append(FrameKV(i, k=k, v=np.zeros_like(k)))
        query = np.zeros((2, 2, 8))
        query[..., 0] = 4.0
        chunk = random_frames(rng, 2, start_id=9)
        new_bank, retained = memory_update(MemoryBank(3, tuple(frames)), TextQuery(query), chunk)
        assert retained == [0, 1]
        assert [f.frame_id for f in new_bank.frames] == [0, 1, 9]


class TestAppend:
    """A bank is only ever built whole, and construction enforces its
    capacity and frame order."""

    def test_append_to_empty(self, rng):
        bank = MemoryBank(2)
        bank = replace(bank, frames=bank.frames + (random_frames(rng, 1)[0],))
        assert len(bank) == 1 and bank.capacity == 2

    def test_append_at_capacity_errors(self, rng):
        f1, f2 = random_frames(rng, 2)
        bank = MemoryBank(1, (f1,))
        with pytest.raises(CapacityError):
            replace(bank, frames=bank.frames + (f2,))

    def test_frame_id_order_enforced(self, rng):
        f1, f2 = random_frames(rng, 2)
        bank = MemoryBank(3, (f2,))
        for later in (f1, f2):  # an older frame, then the same frame again
            with pytest.raises(ShapeError):
                replace(bank, frames=bank.frames + (later,))

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 4)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, ops):
        # random interleavings of keep-a-prefix and append: every bank that
        # can be built stays <= capacity in id order, and an append to a
        # full bank is refused
        rng = np.random.default_rng(1)
        cap = 3
        bank = MemoryBank(cap)
        next_id = 0
        for do_append, arg in ops:
            if do_append:
                frames = bank.frames + (random_frames(rng, 1, start_id=next_id)[0],)
                next_id += 1
                if len(frames) > cap:
                    with pytest.raises(CapacityError):
                        MemoryBank(cap, frames)
                    frames = frames[1:]
            else:
                frames = bank.frames[: min(arg, len(bank))]
            bank = replace(bank, frames=frames)
            assert len(bank) <= cap
            ids = [f.frame_id for f in bank.frames]
            assert ids == sorted(ids) and len(set(ids)) == len(ids)


CFG = ModelConfig(seed=2)


def stepper(cfg=CFG):
    """step(state, chunk_id) -> (state, result) on one steady prompt."""
    space = make_topic_space(2, cfg, 0.05)
    w = init_weights(cfg)
    prompt = encode_prompt("a steady prompt", 0, cfg, space, w)
    return lambda state, c: step_chunk(state, prompt, synth_chunk(c % 2, c, cfg, space), cfg, w)


class TestSink:
    """The sink is an immutable bank of one chunk, filled on chunk 0."""

    def test_set_once(self):
        step = stepper()
        for saved_at in (0, 2):
            state = initial_state(CFG, Mode.NAM_SMA)
            for c in range(saved_at):
                state, _ = step(state, c)
            a_state, a = step(state, saved_at)
            b_state, b = step(state, saved_at)
            assert chunk_digest(a) == chunk_digest(b)
            assert [f.frame_id for f in a_state.sink.frames] == [f.frame_id for f in b_state.sink.frames]

    def test_second_set_errors(self, rng):
        step = stepper()
        state, _ = step(initial_state(CFG, Mode.FRAME_SINK), 0)
        with pytest.raises(CapacityError):
            replace(state.sink, frames=state.sink.frames + tuple(random_frames(rng, 1, start_id=99)))
        with pytest.raises(FrozenInstanceError):
            state.sink.frames = ()

    def test_contents_stable_after_set(self):
        step = stepper()
        state = initial_state(CFG, Mode.NAM_FULL)
        for c in range(6):
            state, _ = step(state, c)
            assert [f.frame_id for f in state.sink.frames] == list(range(CFG.frames_per_chunk))


def test_frame_arrays_read_only(rng):
    f = random_frames(rng, 1)[0]
    with pytest.raises(ValueError):
        f.k[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["k", "v"])
def test_non_finite_kv_rejected(rng, bad, field):
    arrays = {"k": rng.standard_normal((2, 2, 4, 8)), "v": rng.standard_normal((2, 2, 4, 8))}
    arrays[field][1, 0, 2, 3] = bad
    with pytest.raises(ShapeError):
        FrameKV(frame_id=0, **arrays)
