"""The benchmark's chunk driver: the loop of `engine.rollout`, timed per chunk.

It makes the same calls in the same order as `engine.rollout`, so it gives
the same outputs (the output checks compare the two), and it records each
chunk's latency: `synth_chunk` + `step_chunk`, plus `encode_prompt` on the
first chunk of a segment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

from membank import engine, toymodel
from membank.engine import ChunkResult, Mode, RolloutState
from membank.script import NarrativeScript
from membank.toymodel import ModelConfig, TopicSpace, Weights

NOISE_EPS = 0.05  # engine.rollout's default


class Calls(NamedTuple):
    """The program entry points the driver calls; the tracer swaps in wrapped ones."""

    encode_prompt: Callable
    synth_chunk: Callable
    step_chunk: Callable


def plain_calls() -> Calls:
    return Calls(toymodel.encode_prompt, toymodel.synth_chunk, engine.step_chunk)


@dataclass(frozen=True)
class Prepared:
    """What `engine.rollout` builds before its loop, built once per script."""

    script: NarrativeScript
    cfg: ModelConfig
    weights: Weights
    space: TopicSpace


def prepare(script: NarrativeScript, cfg: ModelConfig) -> Prepared:
    cfg = replace(cfg, seed=script.seed)
    weights = toymodel.init_weights(cfg)
    space = toymodel.make_topic_space(script.num_topics, cfg, NOISE_EPS)
    return Prepared(script, cfg, weights, space)


@dataclass
class Drive:
    results: list[ChunkResult]
    latencies: list[float]  # seconds per chunk
    elapsed: float  # seconds for the whole loop, as engine.rollout measures it
    final_state: Optional[RolloutState]
    states: Optional[list] = None  # traced rollouts: the state after each chunk
    spans: Optional[list] = None  # traced rollouts: their spans
    round: int = 0  # the timed round that ran it


def drive(
    prep: Prepared,
    mode: Mode,
    calls: Optional[Calls] = None,
    tracer=None,
    hook: Optional[Callable] = None,
) -> Drive:
    """One rollout from a fresh `initial_state`.

    A state cannot be stepped twice (`step_chunk` mutates the state's
    FrameSink on chunk 0), so every rollout starts from its own initial
    state. `hook(pre_state, pre_sink_frames, prompt, chunk, new_state,
    result)` runs after each step; the sink frames are snapshotted before
    the step for that same reason.
    """
    encode_prompt, synth_chunk, step_chunk = calls or plain_calls()
    cfg, weights, space = prep.cfg, prep.weights, prep.space
    state = engine.initial_state(cfg, mode)
    results: list[ChunkResult] = []
    latencies: list[float] = []
    clock = time.perf_counter
    chunk_id = 0
    started = clock()
    for seg in prep.script.segments:
        if tracer is not None:
            tracer.trace_id = chunk_id
        t0 = clock()
        prompt = encode_prompt(seg.prompt_text, seg.topic, cfg, space, weights)
        carry = clock() - t0
        for _ in range(seg.chunks):
            if tracer is not None:
                tracer.trace_id = chunk_id
            t0 = clock()
            chunk = synth_chunk(seg.topic, chunk_id, cfg, space)
            if hook is not None:
                pre_state, pre_sink = state, state.sink.frames
            state, res = step_chunk(state, prompt, chunk, cfg, weights)
            latencies.append(clock() - t0 + carry)
            carry = 0.0
            results.append(res)
            if hook is not None:
                hook(pre_state, pre_sink, prompt, chunk, state, res)
            chunk_id += 1
    elapsed = clock() - started
    return Drive(results, latencies, elapsed, state)
