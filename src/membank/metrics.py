"""Rollout metrics, report assembly, the one timing loop, and the bench
report built on it."""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .engine import Mode, RolloutRun, initial_state, script_inputs, step_chunk
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
    "ModeTimes",
    "time_modes",
    "bench_modes",
    "throughput_ordering",
    "metrics_to_dict",
]


@dataclass(frozen=True)
class RolloutMetrics:
    retrieval_precision: Optional[float]  # None when no update was eligible
    sma_vs_full_l2: float
    mean_attended_keys: float
    mean_computed_keys: float
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
    return RolloutMetrics(
        retrieval_precision=precision,
        sma_vs_full_l2=l2,
        mean_attended_keys=float(np.mean([r.attended_key_count for r in run.results])),
        mean_computed_keys=float(np.mean([r.computed_key_count for r in run.results])),
        determinism_hash=determinism_hash(run),
    )


@dataclass
class ModeTimes:
    """One mode in `time_modes`: the untimed pass's results, and what every timed pass measured."""

    run: RolloutRun  # chunks/s comes from step_seconds, in bench_modes
    step_seconds: list[float]  # per timed pass
    wall_times: list[dict[str, float]]  # per chunk of every timed pass
    minor_faults: list[int]  # per timed pass


def time_modes(script: NarrativeScript, cfg: ModelConfig, *, repeats: int) -> dict[Mode, ModeTimes]:
    """Time every mode over one stream of `script_inputs`, built once.

    One untimed pass, which takes the process's slow first chunks, then
    `repeats` timed passes. In each pass every mode steps a fresh state
    chunk by chunk, the mode order rotated by chunk index, so no mode
    steps first more often than another and load from elsewhere falls on
    every mode alike. Only `step_chunk` is timed; its minor page faults
    are read outside the timer. Passes are bit-identical apart from time,
    so each mode keeps the untimed pass's `ChunkResult`s, and no timed
    pass grows the heap to hold its own.
    """
    cfg, weights, inputs = script_inputs(script, cfg)
    inputs = list(inputs)
    modes = list(Mode)
    times = {mode: ModeTimes(RolloutRun(mode, cfg, script, []), [], [], []) for mode in modes}
    for timed in range(-1, repeats):  # -1 is the untimed pass
        states = {mode: initial_state(cfg, mode) for mode in modes}
        seconds = dict.fromkeys(modes, 0.0)
        faults = dict.fromkeys(modes, 0)
        for i, (prompt, chunk, synthesis) in enumerate(inputs):
            for mode in modes[i % len(modes) :] + modes[: i % len(modes)]:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                started = time.perf_counter()
                states[mode], res = step_chunk(states[mode], prompt, chunk, cfg, weights)
                seconds[mode] += time.perf_counter() - started
                faults[mode] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                res.wall_time["synthesis"] = synthesis
                if timed >= 0:
                    times[mode].wall_times.append(res.wall_time)
                else:
                    times[mode].run.results.append(res)
        if timed >= 0:
            for mode, t in times.items():
                t.step_seconds.append(seconds[mode])
                t.minor_faults.append(faults[mode])
    return times


def bench_modes(script: NarrativeScript, cfg: ModelConfig, *, repeats: int) -> dict:
    """The bench report of one `time_modes` call: `config`, the config
    the rows were measured at (seeded by the script), and one flat row
    per mode, in `Mode` order. A row holds the untimed pass's
    `metrics_to_dict` fields, with chunks_per_second before the hash;
    then the median ms per chunk of each `wall_time` phase and the median
    minor faults per chunk. chunks_per_second is the one throughput
    figure in membank: the median over passes of chunks / (step_chunk +
    synthesis seconds), the work rollout's loop does. `nam_sma`'s L2 gap
    is against the same pass's `nam_full`. `throughput_ordering_ok`
    checks the rows' chunks/s."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    times = time_modes(script, cfg, repeats=repeats)
    rows, cps_by_mode = [], {}
    for mode, t in times.items():
        n = len(t.run.results)
        synthesis = sum(r.wall_time["synthesis"] for r in t.run.results)
        cps_by_mode[mode] = _sig9(statistics.median(n / (s + synthesis) for s in t.step_seconds))
        m = compute_metrics(t.run, times[Mode.NAM_FULL].run if mode is Mode.NAM_SMA else None)
        row = {"mode": mode.value, **metrics_to_dict(m), "chunks_per_second": cps_by_mode[mode]}
        row["determinism_hash"] = row.pop("determinism_hash")  # after chunks_per_second
        for name in t.wall_times[0]:
            row[f"{name}_ms"] = _sig9(statistics.median(1e3 * w[name] for w in t.wall_times))
        row["minor_faults_per_chunk"] = _sig9(statistics.median(f / n for f in t.minor_faults))
        rows.append(row)
    return {
        "config": asdict(times[Mode.NO_MEMORY].run.cfg),
        "rows": rows,
        "throughput_ordering_ok": throughput_ordering(cps_by_mode),
    }


def throughput_ordering(cps_by_mode: dict[Mode, float]) -> bool:
    """Check the qualitative speed order of all four modes: no memory
    fastest, full bank slowest, gated in between."""
    return (
        cps_by_mode[Mode.NO_MEMORY] > cps_by_mode[Mode.NAM_SMA] > cps_by_mode[Mode.NAM_FULL]
        and cps_by_mode[Mode.FRAME_SINK] > cps_by_mode[Mode.NAM_SMA]
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
        "mean_computed_keys": _sig9(m.mean_computed_keys),
        "determinism_hash": m.determinism_hash,
    }
