"""Every acceptance criterion that does not depend on timing (1-6, the
attended-key side of 7, 8 and 9): the checks behind the `verify` CLI
command, which the acceptance suite runs too.

Each check recomputes an expected answer through an independent route
(scalar loops, exhaustive enumeration, a closed form, a second rollout)
and compares it with the fast path, at the criterion's own seeds, trial
counts and tolerances. Each returns `(passed, detail)`, where `detail`
is a short measured figure or "".
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .activation import select_top_k
from .engine import Mode, initial_state, rollout, step_chunk
from .errors import MembankError
from .frames import MemoryBank
from .metrics import chunk_digest, determinism_hash, retrieval_precision
from .oracles import best_subset, random_frames, relevance_scores_loop
from .retrieval import TextQuery, memory_update, text_relevance_scores
from .script import NarrativeScript, Segment
from .toymodel import ChunkTokens, ModelConfig, encode_prompt, init_weights, make_topic_space, project_kv, synth_chunk

__all__ = [
    "C7_CFG", "C7_SCRIPT", "CHECKS", "expected_key_count", "revisiting_script", "run_all_checks",
    "sma_full_pool_identity",
]

# Criterion 7's geometry and script: P=64, b=12, k=3 over 40 chunks. The
# acceptance suite's timed ordering runs on them too.
C7_CFG = ModelConfig(tokens_per_frame=64, bank_capacity=12, sma_k=3)
C7_SCRIPT = NarrativeScript(seed=7, segments=tuple(Segment(f"scene {i}", i % 3, 8) for i in range(5)))


def revisiting_script(seed: int) -> NarrativeScript:
    """Six two-chunk segments whose topics revisit earlier ones: 0 1 2 0 1 0."""
    pattern = [0, 1, 2, 0, 1, 0]
    return NarrativeScript(
        seed=seed,
        segments=tuple(Segment(f"scene {i} prompt", t, 2) for i, t in enumerate(pattern)),
    )


def sma_full_pool_identity(script: NarrativeScript, cfg: ModelConfig) -> bool:
    """With sma_k covering the whole bank+sink pool, `nam_sma` selects
    every pool frame in order and its attention outputs equal `nam_full`'s
    bit for bit."""
    cfg = replace(cfg, sma_k=cfg.bank_capacity + cfg.frames_per_chunk)
    sma = rollout(script, cfg, Mode.NAM_SMA)
    full = rollout(script, cfg, Mode.NAM_FULL)
    for a, b in zip(sma.results, full.results):
        pool = len(b.selected_frame_ids[0])
        want = [tuple(range(pool)) if pool else None] * cfg.layers
        if [None if act is None else act.indices for act in a.activation_sets] != want:
            return False
        if not all(map(np.array_equal, a.attention_outputs, b.attention_outputs)):
            return False
    return True


def expected_key_count(cfg: ModelConfig, n_selected: int, window: int) -> int:
    """Criterion 8's closed form for one chunk's attended keys: every
    (layer, head) pair's T*P queries attend the selected memory and window
    frames in full, and query frame i also attends the chunk's first i + 1
    frames."""
    P, T = cfg.tokens_per_frame, cfg.frames_per_chunk
    causal = P * P * T * (T + 1) // 2
    return cfg.layers * cfg.heads * (P * T * P * (n_selected + window) + causal)


def check_gated_full_identity() -> tuple[bool, str]:
    """Criterion 1, over 100 seeds with bank capacities drawn from 1-5."""
    for seed in range(100):
        cfg = ModelConfig(bank_capacity=int(np.random.default_rng(seed).integers(1, 6)))
        script = NarrativeScript(seed=seed, segments=(Segment("scene one", 0, 3), Segment("scene two", 1, 3)))
        if not sma_full_pool_identity(script, cfg):
            return False, ""
    return True, ""


def check_topk_optimality() -> tuple[bool, str]:
    """Criterion 2: top-k is the exhaustive best subset on 1000 score lists."""
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        scores = rng.standard_normal(n).tolist()
        if rng.random() < 0.3:  # force ties
            scores = [round(s, 1) for s in scores]
        if any(select_top_k(scores, k).indices != best_subset(scores, k) for k in range(1, n + 1)):
            return False, ""
    return True, ""


def check_relevance_scores() -> tuple[bool, str]:
    """Criterion 3: on 100 banks, scores match the scalar loop and sum to 1/P."""
    P = 8
    for seed in range(100):
        rng = np.random.default_rng(seed)
        bank = MemoryBank(8, tuple(random_frames(rng, int(rng.integers(1, 7)), tokens=P)))
        q = TextQuery(rng.standard_normal((2, 2, 8)))
        got = text_relevance_scores(q, bank)
        want = np.array(relevance_scores_loop(q, bank))
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
        if not (rel.max() < 1e-9 and abs(got.sum() - 1.0 / P) < 1e-9):
            return False, ""
    return True, ""


def check_capacity_invariant() -> tuple[bool, str]:
    """Criterion 4: over 10 000 updates, length <= capacity, and the bank
    is the retained frames, then the prototype; the retained frames are
    the exhaustive best subset of the relevance scores the update
    returns."""
    rng = np.random.default_rng(4)
    updates = 0
    while updates < 10_000:
        cap = int(rng.integers(1, 6))
        bank = MemoryBank(cap)
        q = TextQuery(rng.standard_normal((1, 1, 4)))
        for step in range(int(rng.integers(1, 12))):
            chunk = random_frames(rng, 2, layers=1, heads=1, tokens=2, dim=4, start_id=step * 2)
            old = bank.frames
            bank, retained, scores = memory_update(bank, q, chunk)
            updates += 1
            best = [old[i].frame_id for i in best_subset(scores, min(cap - 1, len(old)))]
            ids = [f.frame_id for f in bank.frames]
            if len(bank) > cap or retained != best or ids != best + [chunk[0].frame_id]:
                return False, ""
    return True, ""


def check_retrieval_precision() -> tuple[bool, str]:
    """Criterion 5: over 50 revisiting scripts at token noise 0.1, SMA's
    bank updates keep a same-topic frame with mean precision >= 0.95
    (scripts with no eligible update do not count)."""
    precisions = []
    for s in range(50):
        p = retrieval_precision(rollout(revisiting_script(1000 + s), ModelConfig(), Mode.NAM_SMA, noise_eps=0.1))
        if p is not None:
            precisions.append(p)
    mean = float(np.mean(precisions))
    return mean >= 0.95, f"mean precision {mean:.3f} over {len(precisions)} scripts"


def check_sma_fidelity() -> tuple[bool, str]:
    """Criterion 6: over 100 seeds, a query chunk of topic 0 over a bank
    of four one-topic frames, SMA at k=1 selects frame 0 in every layer
    and stays within 1e-3 (relative L2) of full-memory attention.
    Amplitude 16 was frozen after the recorded sweep (see the README)."""
    amp = 16.0
    worst = 0.0
    ok = True
    for s in range(100):
        cfg = ModelConfig(seed=s, sma_k=1)
        space = make_topic_space(4, cfg, 0.02)
        w = init_weights(cfg)
        cands = [project_kv(ChunkTokens(t, synth_chunk(t, t, cfg, space).frames * amp), cfg, w)[0] for t in range(4)]
        qc = ChunkTokens(9, synth_chunk(0, 9, cfg, space).frames * amp)
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
    return ok, f"worst relative gap {worst:.2e}"


def check_attended_key_ordering() -> tuple[bool, str]:
    """Criterion 7's side that does not depend on timing, on its geometry
    and script: mean attended keys per chunk order the modes. frame_sink
    and nam_sma tie, because sma_k equals the sink size."""
    keys = {
        mode: float(np.mean([r.attended_key_count for r in rollout(C7_SCRIPT, C7_CFG, mode).results]))
        for mode in Mode
    }
    ok = keys[Mode.NO_MEMORY] < keys[Mode.FRAME_SINK] <= keys[Mode.NAM_SMA] < keys[Mode.NAM_FULL]
    return ok, ", ".join(f"{m.value}={keys[m]:.0f}" for m in Mode) + " keys/chunk"


def check_attended_key_accounting() -> tuple[bool, str]:
    """Criterion 8: over a 60-chunk `nam_sma` rollout, every layer selects
    as many frames and the engine's attended-key count equals
    `expected_key_count` on every chunk."""
    cfg = ModelConfig()
    script = NarrativeScript(seed=8, segments=tuple(Segment(f"scene {i}", i % 3, 10) for i in range(6)))
    run = rollout(script, cfg, Mode.NAM_SMA)
    ok = len(run.results) == 60
    window = 0
    for res in run.results:
        ok = ok and len({len(ids) for ids in res.selected_frame_ids}) == 1
        ok = ok and res.attended_key_count == expected_key_count(cfg, len(res.selected_frame_ids[0]), window)
        window = min(window + cfg.frames_per_chunk, cfg.local_window)
    return ok, ""


def check_determinism_and_causality() -> tuple[bool, str]:
    """Criterion 9: reruns are identical; a prompt edit changes only later chunks."""
    cfg = ModelConfig()
    script = revisiting_script(9)
    a = rollout(script, cfg, Mode.NAM_SMA)
    b = rollout(script, cfg, Mode.NAM_SMA)
    edited = script.segments[:4] + (Segment("entirely new closing scene", 2, 2), script.segments[5])
    c = rollout(NarrativeScript(seed=script.seed, segments=edited), cfg, Mode.NAM_SMA)
    boundary = sum(s.chunks for s in script.segments[:4])
    earlier = zip(a.results[:boundary], c.results[:boundary])
    ha = determinism_hash(a)
    ok = ha == determinism_hash(b) and ha != determinism_hash(c) and all(
        chunk_digest(x) == chunk_digest(y) for x, y in earlier
    )
    return ok, ""


CHECKS = [
    ("gated_vs_full_identity", check_gated_full_identity),
    ("topk_matches_enumeration", check_topk_optimality),
    ("relevance_matches_scalar_oracle", check_relevance_scores),
    ("bank_capacity_invariant", check_capacity_invariant),
    ("planted_retrieval_precision", check_retrieval_precision),
    ("sma_fidelity", check_sma_fidelity),
    ("attended_key_ordering", check_attended_key_ordering),
    ("attended_key_accounting", check_attended_key_accounting),
    ("determinism_and_causality", check_determinism_and_causality),
]


def run_all_checks() -> bool:
    """Run every check, even after a failure, printing one PASS or FAIL
    line each with the check's detail; a package error raised inside a
    check (a bank invariant, say) counts as its failure, and its message
    is the detail."""
    ok = True
    for name, fn in CHECKS:
        try:
            passed, detail = fn()
        except MembankError as e:
            passed, detail = False, f"{type(e).__name__}: {e}"
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}" + (f" ({detail})" if detail else ""))
    return ok
