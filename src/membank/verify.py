"""Acceptance criteria 1, 2, 3, 4 and 9: the checks behind the `verify`
CLI command, which the acceptance suite runs too.

Each check recomputes an expected answer through an independent route
(scalar loops, exhaustive enumeration, a second rollout) and compares it
with the fast path, at the criterion's own seeds, trial counts and
tolerances. Each returns True when its criterion holds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .activation import select_top_k
from .engine import Mode, rollout
from .errors import MembankError
from .frames import MemoryBank
from .metrics import chunk_digest, determinism_hash
from .oracles import best_subset, random_frames, relevance_scores_loop
from .retrieval import TextQuery, memory_update, text_relevance_scores
from .script import NarrativeScript, Segment
from .toymodel import ModelConfig

__all__ = ["CHECKS", "revisiting_script", "run_all_checks", "sma_full_pool_identity"]


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


def check_gated_full_identity() -> bool:
    """Criterion 1, over 100 seeds with bank capacities drawn from 1-5."""
    for seed in range(100):
        cfg = ModelConfig(bank_capacity=int(np.random.default_rng(seed).integers(1, 6)))
        script = NarrativeScript(seed=seed, segments=(Segment("scene one", 0, 3), Segment("scene two", 1, 3)))
        if not sma_full_pool_identity(script, cfg):
            return False
    return True


def check_topk_optimality() -> bool:
    """Criterion 2: top-k is the exhaustive best subset on 1000 score lists."""
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        scores = rng.standard_normal(n).tolist()
        if rng.random() < 0.3:  # force ties
            scores = [round(s, 1) for s in scores]
        if any(select_top_k(scores, k).indices != best_subset(scores, k) for k in range(1, n + 1)):
            return False
    return True


def check_relevance_scores() -> bool:
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
            return False
    return True


def check_capacity_invariant() -> bool:
    """Criterion 4: over 10 000 updates, length <= capacity, prototype last."""
    rng = np.random.default_rng(4)
    updates = 0
    while updates < 10_000:
        cap = int(rng.integers(1, 6))
        bank = MemoryBank(cap)
        q = TextQuery(rng.standard_normal((1, 1, 4)))
        for step in range(int(rng.integers(1, 12))):
            chunk = random_frames(rng, 2, layers=1, heads=1, tokens=2, dim=4, start_id=step * 2)
            bank, _, _ = memory_update(bank, q, chunk)
            updates += 1
            if len(bank) > cap or bank.frames[-1].frame_id != chunk[0].frame_id:
                return False
    return True


def check_determinism_and_causality() -> bool:
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
    return ha == determinism_hash(b) and ha != determinism_hash(c) and all(
        chunk_digest(x) == chunk_digest(y) for x, y in earlier
    )


CHECKS = [
    ("gated_vs_full_identity", check_gated_full_identity),
    ("topk_matches_enumeration", check_topk_optimality),
    ("relevance_matches_scalar_oracle", check_relevance_scores),
    ("bank_capacity_invariant", check_capacity_invariant),
    ("determinism_and_causality", check_determinism_and_causality),
]


def run_all_checks() -> bool:
    """Run every check, even after a failure, printing one PASS or FAIL
    line each; a package error raised inside a check (a bank invariant,
    say) counts as its failure."""
    ok = True
    for name, fn in CHECKS:
        try:
            passed, why = fn(), ""
        except MembankError as e:
            passed, why = False, f" ({type(e).__name__}: {e})"
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}{why}")
    return ok
