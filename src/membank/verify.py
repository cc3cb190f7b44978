"""Built-in oracle checks behind the `verify` CLI command.

Each check recomputes an expected answer through an independent route
(scalar loops, exhaustive enumeration) and compares it with the fast
path. These are quick smoke versions of the full test suite.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .activation import select_top_k
from .engine import Mode, rollout
from .frames import bank_append, bank_new
from .metrics import determinism_hash
from .oracles import best_subset, random_frames
from .retrieval import TextQuery, memory_update, text_relevance_scores
from .script import NarrativeScript, Segment
from .toymodel import ModelConfig

__all__ = ["run_all_checks", "sma_full_pool_identity"]


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
    script = NarrativeScript(
        seed=11, segments=(Segment("a river at dawn", 0, 3), Segment("a market street", 1, 3))
    )
    return all(sma_full_pool_identity(script, ModelConfig(bank_capacity=b)) for b in (1, 3))


def check_topk_optimality() -> bool:
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        scores = np.round(rng.standard_normal(n), 2).tolist()
        for k in range(1, n + 1):
            if select_top_k(scores, k).indices != best_subset(scores, k):
                return False
    return True


def check_relevance_normalization() -> bool:
    rng = np.random.default_rng(13)
    tokens = 4
    for _ in range(20):
        frames = random_frames(rng, int(rng.integers(1, 6)), tokens=tokens)
        bank = bank_new(8)
        for f in frames:
            bank = bank_append(bank, f)
        q = TextQuery(rng.standard_normal((2, 2, 8)))
        scores = text_relevance_scores(q, bank)
        if abs(scores.sum() - 1.0 / tokens) > 1e-9:
            return False
    return True


def check_capacity_invariant() -> bool:
    rng = np.random.default_rng(14)
    bank = bank_new(3)
    q = TextQuery(rng.standard_normal((2, 2, 8)))
    for step in range(50):
        chunk = random_frames(rng, 3, start_id=step * 3)
        bank, _ = memory_update(bank, q, chunk)
        if len(bank) > 3 or bank.frames[-1].frame_id != chunk[0].frame_id:
            return False
    return True


def check_determinism() -> bool:
    script = NarrativeScript(
        seed=5,
        segments=(
            Segment("a river at dawn", 0, 2),
            Segment("a market street", 1, 2),
        ),
    )
    cfg = ModelConfig()
    a = rollout(script, cfg, Mode.NAM_SMA)
    b = rollout(script, cfg, Mode.NAM_SMA)
    return determinism_hash(a) == determinism_hash(b)


CHECKS = [
    ("gated_vs_full_identity", check_gated_full_identity),
    ("topk_matches_enumeration", check_topk_optimality),
    ("relevance_score_normalization", check_relevance_normalization),
    ("bank_capacity_invariant", check_capacity_invariant),
    ("rollout_determinism", check_determinism),
]


def run_all_checks(report=print) -> bool:
    ok = True
    for name, fn in CHECKS:
        passed = fn()
        ok = ok and passed
        report(f"{'PASS' if passed else 'FAIL'}  {name}")
    return ok
