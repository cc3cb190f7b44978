"""Acceptance suite: every check in `membank.verify` (each criterion that
does not depend on timing, which `membank verify` runs too) under the
time limits set here, and criterion 7's throughput ordering, the one
timed criterion. Each test prints a pass/fail line. Tolerances are
fixed, not tuned at runtime."""

import math
import time

import pytest

from membank.engine import Mode, rollout
from membank.metrics import bench_modes, determinism_hash
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
    # The chunks/s of `membank bench`: each mode's median over 5 timed
    # passes of chunks / (step_chunk + synthesis seconds).
    doc = bench_modes(C7_SCRIPT, C7_CFG, repeats=5)
    rows = {Mode(r["mode"]): r for r in doc["rows"]}
    same = all(rows[m]["determinism_hash"] == determinism_hash(rollout(C7_SCRIPT, C7_CFG, m)) for m in Mode)
    desc = ", ".join(f"{m.value}={rows[m]['chunks_per_second']:.1f}" for m in Mode)
    report("throughput_ordering", same and doc["throughput_ordering_ok"], f"{desc} chunks/s, interleaved steps hash as rollouts")
