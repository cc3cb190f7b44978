"""Acceptance suite: every check in `membank.verify` (each criterion that
does not depend on timing, which `membank verify` runs too) under the
time limits set here, and criterion 7's throughput ordering, the one
timed criterion. Each test prints a pass/fail line. Tolerances are
fixed, not tuned at runtime."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from membank.engine import Mode, RolloutRun, initial_state, rollout, step_chunk
from membank.metrics import determinism_hash, throughput_ordering
from membank.toymodel import encode_prompt, init_weights, make_topic_space, synth_chunk
from membank.verify import C7_CFG, C7_SCRIPT, CHECKS

# Seconds each check may take; a check not named here has no limit.
TIME_LIMITS = {
    "gated_vs_full_identity": 5.0,
    "topk_matches_enumeration": 10.0,
    "bank_capacity_invariant": 10.0,
    "planted_retrieval_precision": 60.0,
}


def report(name, ok, text):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {text}")
    assert ok, f"{name}: {text}"


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_criterion(name, check):
    started = time.perf_counter()
    passed, detail = check()
    elapsed = time.perf_counter() - started
    text = f"{elapsed:.2f}s" + (f", {detail}" if detail else "")
    report(name, passed and elapsed < TIME_LIMITS.get(name, math.inf), text)


def test_criterion_7_throughput_ordering():
    # The four modes step one stream, built as rollout builds it, chunk by
    # chunk, in an order that rotates by chunk, and only their step_chunk
    # calls are timed. Load from elsewhere on the machine then falls on
    # every mode alike, where whole rollouts in turn could leave a burst
    # on one mode. Synthesis and prompt encoding are shared, so leaving
    # them out does not change the order. A process's first chunks run
    # several times slower, so one untimed pass comes first; each mode's
    # throughput is its median over 5 timed passes.
    cfg = replace(C7_CFG, seed=C7_SCRIPT.seed)
    weights = init_weights(cfg)
    space = make_topic_space(C7_SCRIPT.num_topics, cfg, 0.05)
    stream = []
    for seg in C7_SCRIPT.segments:
        prompt = encode_prompt(seg.prompt_text, seg.topic, cfg, space, weights)
        for _ in range(seg.chunks):
            stream.append((prompt, synth_chunk(seg.topic, len(stream), cfg, space)))
    modes = list(Mode)
    cps = {mode: [] for mode in modes}
    for timed in (False,) + (True,) * 5:
        states = {mode: initial_state(cfg, mode) for mode in modes}
        results = {mode: [] for mode in modes}
        seconds = dict.fromkeys(modes, 0.0)
        for i, (prompt, chunk) in enumerate(stream):
            for mode in modes[i % len(modes):] + modes[: i % len(modes)]:
                started = time.perf_counter()
                states[mode], res = step_chunk(states[mode], prompt, chunk, cfg, weights)
                seconds[mode] += time.perf_counter() - started
                results[mode].append(res)
        if timed:
            for mode in modes:
                cps[mode].append(len(stream) / seconds[mode])
    same = all(
        determinism_hash(RolloutRun(mode, cfg, C7_SCRIPT, results[mode], 0.0))
        == determinism_hash(rollout(C7_SCRIPT, C7_CFG, mode))
        for mode in modes
    )
    medians = {mode: float(np.median(v)) for mode, v in cps.items()}
    ok = throughput_ordering(medians)
    desc = ", ".join(f"{m.value}={medians[m]:.1f}" for m in Mode)
    report("throughput_ordering", same and ok, f"{desc} chunks/s, interleaved steps hash as rollouts")
