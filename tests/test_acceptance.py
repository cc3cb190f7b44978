"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line. Tolerances are fixed, not tuned at runtime. Criteria 1-4
and 9 are the checks in `membank.verify`, which `membank verify` runs
too; their time limits are set here."""

import time
from dataclasses import replace

import numpy as np

from membank import verify
from membank.engine import Mode, initial_state, rollout, step_chunk
from membank.frames import MemoryBank
from membank.metrics import retrieval_precision, throughput_ordering
from membank.script import NarrativeScript, Segment
from membank.toymodel import (
    ModelConfig,
    encode_prompt,
    init_weights,
    make_topic_space,
    project_kv,
    synth_chunk,
)


def report(n, ok, text):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {n}: {text}")
    assert ok, f"criterion {n}: {text}"


def test_criterion_1_gated_full_pool_identity():
    started = time.perf_counter()
    ok = verify.check_gated_full_identity()
    elapsed = time.perf_counter() - started
    report(1, ok and elapsed < 5.0, f"nam_sma with k >= pool bit-identical to nam_full ({elapsed:.2f}s)")


def test_criterion_2_topk_subset_optimality():
    started = time.perf_counter()
    ok = verify.check_topk_optimality()
    elapsed = time.perf_counter() - started
    report(2, ok and elapsed < 10.0, f"top-k matches exhaustive subset-sum maximization ({elapsed:.2f}s)")


def test_criterion_3_relevance_scalar_oracle():
    ok = verify.check_relevance_scores()
    report(3, ok, "relevance scores match scalar-loop oracle within 1e-9; sum = 1/P")


def test_criterion_4_capacity_invariant():
    started = time.perf_counter()
    ok = verify.check_capacity_invariant()
    elapsed = time.perf_counter() - started
    report(4, ok and elapsed < 10.0, f">= 10000 updates: length <= capacity, prototype last ({elapsed:.2f}s)")


def test_criterion_5_planted_retrieval_precision():
    started = time.perf_counter()
    cfg = ModelConfig()
    precs = []
    for s in range(50):
        run = rollout(verify.revisiting_script(1000 + s), cfg, Mode.NAM_SMA, noise_eps=0.1)
        p = retrieval_precision(run)
        if p is not None:
            precs.append(p)
    mean_p = float(np.mean(precs))
    elapsed = time.perf_counter() - started
    report(
        5,
        mean_p >= 0.95 and elapsed < 60.0,
        f"planted retrieval precision {mean_p:.3f} >= 0.95 over {len(precs)} scripts ({elapsed:.2f}s)",
    )


def test_criterion_6_sma_fidelity():
    # amplitude 16 frozen after the recorded sweep (see README); worst
    # observed relative gap at this scale was ~9e-8
    amp = 16.0
    worst = 0.0
    ok = True
    for s in range(100):
        cfg = ModelConfig(seed=s, sma_k=1)
        space = make_topic_space(4, cfg, 0.02)
        w = init_weights(cfg)
        cands = []
        for t in range(4):
            ch = synth_chunk(t, t, cfg, space)
            ch = type(ch)(chunk_id=ch.chunk_id, frames=ch.frames * amp)
            cands.append(project_kv(ch, cfg, w)[0])
        qc = synth_chunk(0, 9, cfg, space)
        qc = type(qc)(chunk_id=9, frames=qc.frames * amp)
        # With no previous chunk the bank is not updated, so the prompt is unused.
        prompt = encode_prompt("a scene", 0, cfg, space, w)
        res = {}
        for mode in (Mode.NAM_SMA, Mode.NAM_FULL):
            state = replace(initial_state(cfg, mode), bank=MemoryBank(4, tuple(cands)))
            _, res[mode] = step_chunk(state, prompt, qc, cfg, w)
        gated = res[Mode.NAM_SMA].attention_outputs[0][0, 0]
        full = res[Mode.NAM_FULL].attention_outputs[0][0, 0]
        rel = float(np.linalg.norm(gated - full) / np.linalg.norm(full))
        worst = max(worst, rel)
        selected = [act.indices for act in res[Mode.NAM_SMA].activation_sets]
        ok = ok and selected == [(0,)] * cfg.layers and rel <= 1e-3
    report(6, ok, f"SMA(k=1) within 1e-3 of full memory attention; worst {worst:.2e}")


def test_criterion_7_throughput_ordering():
    cfg = ModelConfig(tokens_per_frame=64, bank_capacity=12, sma_k=3)
    script = NarrativeScript(
        seed=7,
        segments=tuple(Segment(f"scene {i}", i % 3, 8) for i in range(5)),  # 40 chunks
    )
    # A process's first rollouts run several times slower, so every mode
    # gets an untimed warm-up and the timed repeats go round-robin.
    for mode in Mode:
        rollout(script, cfg, mode)
    cps = {mode: [] for mode in Mode}
    for _ in range(5):
        for mode in Mode:
            run = rollout(script, cfg, mode)
            cps[mode].append(len(run.results) / run.elapsed_seconds)
    medians = {mode: float(np.median(v)) for mode, v in cps.items()}
    ok = throughput_ordering(medians)
    desc = ", ".join(f"{m.value}={medians[m]:.1f}" for m in Mode)
    report(7, ok, f"throughput ordering holds ({desc} chunks/s)")


def test_criterion_7_attended_key_ordering():
    # The machine-independent side of criterion 7, on its geometry and
    # script: mean attended keys per chunk. frame_sink and nam_sma tie,
    # because sma_k equals the sink size.
    cfg = ModelConfig(tokens_per_frame=64, bank_capacity=12, sma_k=3)
    script = NarrativeScript(
        seed=7,
        segments=tuple(Segment(f"scene {i}", i % 3, 8) for i in range(5)),  # 40 chunks
    )
    keys = {mode: float(np.mean([r.attended_key_count for r in rollout(script, cfg, mode).results])) for mode in Mode}
    ok = keys[Mode.NO_MEMORY] < keys[Mode.FRAME_SINK] <= keys[Mode.NAM_SMA] < keys[Mode.NAM_FULL]
    desc = ", ".join(f"{m.value}={keys[m]:.0f}" for m in Mode)
    report(7, ok, f"attended-key ordering holds ({desc} keys/chunk)")


def test_criterion_8_attended_key_accounting():
    cfg = ModelConfig()
    script = NarrativeScript(
        seed=8,
        segments=tuple(Segment(f"scene {i}", i % 3, 10) for i in range(6)),  # 60 chunks
    )
    run = rollout(script, cfg, Mode.NAM_SMA)
    P, T = cfg.tokens_per_frame, cfg.frames_per_chunk
    ok = len(run.results) == 60
    window = 0
    for res in run.results:
        sizes = {len(ids) for ids in res.selected_frame_ids}
        ok = ok and len(sizes) == 1
        sel = len(res.selected_frame_ids[0])
        causal = P * P * T * (T + 1) // 2
        expected = cfg.layers * cfg.heads * (P * T * P * (sel + window) + causal)
        ok = ok and res.attended_key_count == expected
        window = min(window + T, cfg.local_window)
    report(8, ok, "instrumented key counter equals closed form for all 60 chunks")


def test_criterion_9_determinism_and_causality():
    ok = verify.check_determinism_and_causality()
    report(9, ok, "repeat runs hash-identical; prompt edits only affect later chunks")
