"""Rollout metrics, report assembly, and the ablation grid."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import statistics
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .engine import Mode, RolloutRun, rollout
from .errors import ConfigError, InapplicableMetricError
from .script import NarrativeScript
from .toymodel import ModelConfig

__all__ = [
    "RolloutMetrics",
    "chunk_digest",
    "determinism_hash",
    "retrieval_precision",
    "sma_vs_full_l2",
    "compute_metrics",
    "run_ablation_grid",
    "metrics_to_json",
    "grid_to_csv",
]


@dataclass(frozen=True)
class RolloutMetrics:
    retrieval_precision: Optional[float]  # None when no update was eligible
    sma_vs_full_l2: float
    mean_attended_keys: float
    chunks_per_second: float
    determinism_hash: str


def chunk_digest(result) -> str:
    """Stable digest of one chunk's outcome; wall time excluded."""
    h = hashlib.sha256()
    h.update(str(result.chunk_id).encode())
    for out in result.attention_outputs:
        h.update(np.ascontiguousarray(out).tobytes())
    for act in result.activation_sets:
        h.update(repr(None if act is None else act.indices).encode())
    h.update(repr(result.retained_bank_ids).encode())
    h.update(repr(result.selected_frame_ids).encode())
    return h.hexdigest()


def determinism_hash(run: RolloutRun) -> str:
    h = hashlib.sha256()
    for res in run.results:
        h.update(chunk_digest(res).encode())
    return h.hexdigest()[:16]


def _frame_topic(frame_id: int, script: NarrativeScript, cfg: ModelConfig) -> int:
    return script.topic_of_chunk(frame_id // cfg.frames_per_chunk)


def retrieval_precision(run: RolloutRun) -> Optional[float]:
    """Fraction of eligible bank updates that kept a same-topic frame.

    An update is eligible when the pre-update bank held at least one frame
    of the chunk's planted topic. Returns None when no update was
    eligible.
    """
    if not run.mode.uses_bank:
        raise InapplicableMetricError(
            f"retrieval precision undefined for mode {run.mode.value}"
        )
    script, cfg = run.script, run.cfg
    eligible = 0
    hits = 0
    for res in run.results:
        if not res.pre_update_bank_ids:
            continue
        active = script.topic_of_chunk(res.chunk_id)
        same = [
            fid
            for fid in res.pre_update_bank_ids
            if _frame_topic(fid, script, cfg) == active
        ]
        if not same:
            continue
        eligible += 1
        if any(_frame_topic(fid, script, cfg) == active for fid in res.retained_bank_ids):
            hits += 1
    if eligible == 0:
        return None
    return hits / eligible


def sma_vs_full_l2(sma_run: RolloutRun, full_run: RolloutRun) -> float:
    """Mean relative L2 gap between gated and full-memory attention."""
    gaps = []
    for a, b in zip(sma_run.results, full_run.results):
        for out_a, out_b in zip(a.attention_outputs, b.attention_outputs):
            denom = float(np.linalg.norm(out_b))
            if denom == 0.0:
                continue
            gaps.append(float(np.linalg.norm(out_a - out_b)) / denom)
    return float(np.mean(gaps)) if gaps else 0.0


def compute_metrics(run: RolloutRun, full_run: Optional[RolloutRun] = None) -> RolloutMetrics:
    precision = retrieval_precision(run) if run.mode.uses_bank else None
    l2 = sma_vs_full_l2(run, full_run) if (run.mode is Mode.NAM_SMA and full_run) else 0.0
    mean_keys = float(np.mean([r.attended_key_count for r in run.results]))
    cps = len(run.results) / run.elapsed_seconds if run.elapsed_seconds > 0 else 0.0
    return RolloutMetrics(
        retrieval_precision=precision,
        sma_vs_full_l2=l2,
        mean_attended_keys=mean_keys,
        chunks_per_second=cps,
        determinism_hash=determinism_hash(run),
    )


def run_ablation_grid(
    script: NarrativeScript,
    cfg: ModelConfig,
    modes: Sequence[Mode],
    b_values: Sequence[int],
    noise_eps: float = 0.05,
    repeats: int = 1,
) -> dict:
    """One flat row per (mode, bank capacity): the mode, the capacity and
    the `metrics_to_dict` fields.

    chunks_per_second is the median over `repeats` runs; everything else
    comes from the first run (all runs are bit-identical apart from time).
    """
    if not modes:
        raise ConfigError("ablation grid needs at least one mode")
    if not b_values:
        raise ConfigError("ablation grid needs at least one bank capacity")
    rows = []
    for b in b_values:
        cell_cfg = replace(cfg, bank_capacity=b, sma_k=min(cfg.sma_k, b + cfg.frames_per_chunk))
        full_run = None
        if Mode.NAM_SMA in modes:
            full_run = rollout(script, cell_cfg, Mode.NAM_FULL, noise_eps)
        for mode in modes:
            runs = [rollout(script, cell_cfg, mode, noise_eps) for _ in range(repeats)]
            cps = statistics.median(len(r.results) / r.elapsed_seconds for r in runs)
            m = compute_metrics(runs[0], full_run if mode is Mode.NAM_SMA else None)
            m = replace(m, chunks_per_second=cps)
            rows.append({"mode": mode.value, "bank_capacity": b, **metrics_to_dict(m)})
    ordering = _throughput_ordering(rows)
    return {"rows": rows, "throughput_ordering_ok": ordering}


def _throughput_ordering(rows) -> Optional[bool]:
    """Check the qualitative speed order: no memory fastest, full bank
    slowest, gated in between; None when modes are missing."""
    by_mode: dict[str, float] = {}
    for row in rows:
        by_mode.setdefault(row["mode"], row["chunks_per_second"])
    needed = {m.value for m in (Mode.NO_MEMORY, Mode.FRAME_SINK, Mode.NAM_SMA, Mode.NAM_FULL)}
    if not needed <= set(by_mode):
        return None
    return (
        by_mode[Mode.NO_MEMORY.value] > by_mode[Mode.NAM_SMA.value] > by_mode[Mode.NAM_FULL.value]
        and by_mode[Mode.FRAME_SINK.value] > by_mode[Mode.NAM_SMA.value]
    )


def _sig9(x: Optional[float]):
    if x is None:
        return None
    return float(f"{x:.9g}")


def metrics_to_dict(m: RolloutMetrics) -> dict:
    return {
        "retrieval_precision": _sig9(m.retrieval_precision),
        "sma_vs_full_l2": _sig9(m.sma_vs_full_l2),
        "mean_attended_keys": _sig9(m.mean_attended_keys),
        "chunks_per_second": _sig9(m.chunks_per_second),
        "determinism_hash": m.determinism_hash,
    }


def metrics_to_json(m: RolloutMetrics, extra: Optional[dict] = None) -> str:
    doc = dict(extra or {})
    doc.update(metrics_to_dict(m))
    return json.dumps(doc, indent=2)


def grid_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(report["rows"][0]))
    writer.writeheader()
    writer.writerows(report["rows"])
    return buf.getvalue()
