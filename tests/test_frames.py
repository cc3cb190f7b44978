import copy
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membank.engine import NOISE_EPS, Mode, initial_state, step_chunk
from membank.errors import CapacityError, ConfigError, ShapeError
from membank.frames import FrameKV, MemoryBank, frames_from_kv
from membank.metrics import chunk_digest
from membank.oracles import random_frames
from membank.retrieval import TextQuery
from membank.toymodel import ModelConfig, encode_prompt, init_weights, make_topic_space, project_kv, synth_chunk


def test_bank_new_capacities():
    assert MemoryBank(3).capacity == 3 and len(MemoryBank(3)) == 0
    assert MemoryBank(9).capacity == 9


def test_bank_new_zero_capacity():
    with pytest.raises(ConfigError):
        MemoryBank(0)


class TestMemoryBank:
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
    space = make_topic_space(2, cfg, NOISE_EPS)
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


def test_frame_and_query_copy_the_callers_arrays(rng):
    k, v = rng.standard_normal((2, 3, 2, 2, 4, 8))
    q = rng.standard_normal((2, 2, 8))
    before = [a.copy() for a in (k, v, q)]
    frames, query = frames_from_kv(0, k, v), TextQuery(q)
    for passed, kept, was in zip((k, v, q), (frames[0].k.base, frames[0].v.base, query.q), before):
        assert passed.flags.writeable and np.array_equal(passed, was)
        assert kept is not passed and not np.shares_memory(kept, passed)
        assert not kept.flags.writeable and np.array_equal(kept, was)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["k", "v"])
def test_non_finite_kv_rejected(rng, bad, field):
    # One bad entry in the second frame of a stack rejects the stack.
    arrays = dict(zip("kv", rng.standard_normal((2, 3, 2, 2, 4, 8))))
    arrays[field][1, 1, 0, 2, 3] = bad
    with pytest.raises(ShapeError, match="non-finite"):
        frames_from_kv(0, **arrays)


@pytest.mark.parametrize(
    "shapes, message",
    [
        (((2, 4, 8), (2, 4, 8)), r"must be \[n, L, H, P, d\]"),
        (((2, 2, 4, 8), (1, 2, 2, 4, 8)), r"must be \[n, L, H, P, d\]"),
        (((2, 2, 4, 8), (2, 2, 4, 8)), r"must be \[n, L, H, P, d\]"),
        (((3, 2, 2, 4, 8), (3, 2, 2, 4, 1)), r"k shape \(2, 2, 4, 8\) != v shape \(2, 2, 4, 1\)"),
        (((3, 2, 2, 0, 8), (3, 2, 2, 0, 8)), "at least one token"),
    ],
    ids=["both_3d", "v_5d", "one_unstacked_frame", "k_v_differ", "no_tokens"],
)
def test_kv_not_4d_rejected(rng, shapes, message):
    k, v = (rng.standard_normal(shape) for shape in shapes)
    with pytest.raises(ShapeError, match=message):
        frames_from_kv(0, k, v)


def test_key_bound_is_max_abs_key(rng):
    space = make_topic_space(2, CFG, NOISE_EPS)
    projected = project_kv(synth_chunk(0, 0, CFG, space), CFG, init_weights(CFG))
    for f in projected + random_frames(rng, 3):
        assert f.key_bound == np.abs(f.k).max()
        assert isinstance(f.key_bound, float)


def test_built_frames_set_every_field(rng):
    # frames_from_kv sets FrameKV's fields by hand, so a field added to the
    # class and not set there would show here, on the engine's frames and
    # on the oracles' alike.
    space = make_topic_space(2, CFG, NOISE_EPS)
    projected = project_kv(synth_chunk(0, 0, CFG, space), CFG, init_weights(CFG))
    names = {f.name for f in fields(FrameKV)}
    for f in projected + random_frames(rng, 3):
        assert vars(f).keys() == names


def test_stacked_frames_match_single_frames(rng):
    # frames_from_kv takes one read-only copy of the stacked K and one of
    # V, and each frame views its own slice of them.
    k, v = rng.standard_normal((2, 3, 2, 2, 4, 8))
    stacked = frames_from_kv(5, k, v)
    for name, passed in (("k", k), ("v", v)):
        base = getattr(stacked[0], name).base
        assert all(getattr(f, name).base is base for f in stacked)
        assert not base.flags.writeable and not np.shares_memory(base, passed)
        with pytest.raises(ValueError, match="read-only"):
            base[0, 0, 0, 0, 0] = 1.0
    for i, f in enumerate(stacked):
        assert f.frame_id == 5 + i
        assert f.key_bound == np.abs(k[i]).max() and isinstance(f.key_bound, float)
        for a, passed in ((f.k, k[i]), (f.v, v[i])):
            assert np.array_equal(a, passed) and not a.flags.writeable and a.flags.c_contiguous
            assert not (np.shares_memory(a, k) or np.shares_memory(a, v))
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0, 0, 0] = 1.0


def test_key_bound_is_not_an_argument_and_not_compared(rng):
    f = random_frames(rng, 1)[0]
    # frames_from_kv is the only constructor: neither a direct call nor
    # dataclasses.replace builds a frame.
    for build in (lambda: FrameKV(0, f.k, f.v), lambda: FrameKV(0, f.k, f.v, key_bound=1.0), lambda: replace(f)):
        with pytest.raises(TypeError):
            build()
    assert "key_bound" not in repr(f)
    # Same arrays, another bound: still equal.
    other = copy.copy(f)
    object.__setattr__(other, "key_bound", f.key_bound + 1.0)
    assert other == f
