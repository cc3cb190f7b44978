from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membank.engine import Mode, initial_state, step_chunk
from membank.errors import CapacityError, ConfigError, ShapeError
from membank.frames import FrameKV, bank_append, bank_new, bank_retain
from membank.metrics import chunk_digest
from membank.oracles import random_frames
from membank.toymodel import ModelConfig, encode_prompt, init_weights, make_topic_space, synth_chunk


def test_bank_new_capacities():
    assert bank_new(3).capacity == 3 and len(bank_new(3)) == 0
    assert bank_new(9).capacity == 9


def test_bank_new_zero_capacity():
    with pytest.raises(ConfigError):
        bank_new(0)


class TestRetain:
    def test_retain_all_is_identity(self, rng):
        bank = bank_new(5)
        for f in random_frames(rng, 3):
            bank = bank_append(bank, f)
        kept = bank_retain(bank, [0, 1, 2])
        assert kept.frames == bank.frames

    def test_retain_empty(self, rng):
        bank = bank_new(5)
        for f in random_frames(rng, 3):
            bank = bank_append(bank, f)
        assert len(bank_retain(bank, [])) == 0

    def test_retain_subset_keeps_order(self, rng):
        bank = bank_new(5)
        frames = random_frames(rng, 3)
        for f in frames:
            bank = bank_append(bank, f)
        kept = bank_retain(bank, [0, 2])
        assert [f.frame_id for f in kept.frames] == [frames[0].frame_id, frames[2].frame_id]

    def test_retain_out_of_range(self, rng):
        bank = bank_append(bank_new(2), random_frames(rng, 1)[0])
        with pytest.raises(IndexError):
            bank_retain(bank, [1])

    def test_retain_composes(self, rng):
        bank = bank_new(8)
        for f in random_frames(rng, 5):
            bank = bank_append(bank, f)
        once = bank_retain(bank_retain(bank, [0, 2, 4]), [1, 2])
        direct = bank_retain(bank, [2, 4])
        assert once.frames == direct.frames


class TestAppend:
    def test_append_to_empty(self, rng):
        bank = bank_append(bank_new(2), random_frames(rng, 1)[0])
        assert len(bank) == 1

    def test_append_at_capacity_errors(self, rng):
        bank = bank_new(1)
        f1, f2 = random_frames(rng, 2)
        bank = bank_append(bank, f1)
        with pytest.raises(CapacityError):
            bank_append(bank, f2)

    def test_frame_id_order_enforced(self, rng):
        f1, f2 = random_frames(rng, 2)
        bank = bank_append(bank_new(3), f2)
        with pytest.raises(Exception):
            bank_append(bank, f1)

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 4)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, ops):
        # random interleavings of retain-prefix and append stay <= capacity
        rng = np.random.default_rng(1)
        cap = 3
        bank = bank_new(cap)
        next_id = 0
        for do_append, arg in ops:
            if do_append:
                if len(bank) >= cap:
                    bank = bank_retain(bank, list(range(len(bank) - 1)))
                bank = bank_append(bank, random_frames(rng, 1, start_id=next_id)[0])
                next_id += 1
            else:
                keep = min(arg, len(bank))
                bank = bank_retain(bank, list(range(keep)))
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
            bank_append(state.sink, random_frames(rng, 1, start_id=99)[0])
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
