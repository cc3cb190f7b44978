"""Command-line front-end.

Commands:
  run     one rollout, JSON metrics to stdout or --out
  ablate  mode x capacity grid, CSV or JSON report
  verify  every acceptance criterion that does not depend on timing
          (exit 2 on failure)
  bench   repeated timed runs, the modes taking turns: median throughput,
          phase times and minor page faults per chunk

Exit codes: 0 success, 1 validation failure, 2 verify/acceptance failure.
The seed comes from the script; the --seed flag overrides it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
from pathlib import Path

from .engine import Mode, rollout
from .errors import ConfigError, MembankError
from .metrics import (
    compute_metrics,
    grid_to_csv,
    metrics_to_json,
    run_ablation_grid,
)
from .script import NarrativeScript, is_int, parse_script, read_json
from .toymodel import ModelConfig
from .verify import run_all_checks

MODE_NAMES = {m.value: m for m in Mode}

# The phases, as keyed in ChunkResult.wall_time, that bench reports:
# rollout's synthesis (synth_chunk plus the chunk's share of
# encode_prompt), then step_chunk's own.
BENCH_PHASES = ("synthesis", "retrieval_update", "projection", "selection", "attention")


def load_config(path) -> ModelConfig:
    """The model config in a JSON file, or the defaults when path is None.
    A schema error, or one of ModelConfig's own checks, names the file."""
    doc = {} if path is None else read_json(path, ConfigError)
    try:
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        # The seed is the script's (or --seed's), never the config file's.
        known = {f.name for f in dataclasses.fields(ModelConfig)} - {"seed"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in doc.items():
            if not is_int(value):
                raise ConfigError(f"config field {name!r} must be an integer, got {value!r}")
        return ModelConfig(**doc)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def load_grid(path, cfg: ModelConfig) -> tuple[list[Mode], list[int]]:
    """Modes and bank capacities of an ablation grid file. A field the
    file leaves out, or every field when path is None, defaults to all
    modes and the config's bank capacity. A schema error names the file."""
    doc = {} if path is None else read_json(path, ConfigError)
    try:
        if not isinstance(doc, dict):
            raise ConfigError("grid file must hold a JSON object")
        unknown = set(doc) - {"modes", "b_values"}
        if unknown:
            raise ConfigError(f"unknown grid fields: {sorted(unknown)}")
        names = doc.get("modes", list(MODE_NAMES))
        if not isinstance(names, list) or not all(isinstance(n, str) and n in MODE_NAMES for n in names):
            raise ConfigError(f"grid modes must be a list drawn from {list(MODE_NAMES)}, got {names!r}")
        b_values = doc.get("b_values", [cfg.bank_capacity])
        if not isinstance(b_values, list) or not all(map(is_int, b_values)):
            raise ConfigError(f"grid b_values must be a list of integers, got {b_values!r}")
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    return [MODE_NAMES[n] for n in names], b_values


def _check_repeat(repeat: int) -> None:
    if repeat < 1:
        raise ConfigError(f"--repeat must be >= 1, got {repeat}")


def _effective_script(script: NarrativeScript, flag_seed) -> NarrativeScript:
    if flag_seed is None:
        return script
    return dataclasses.replace(script, seed=flag_seed)


def _write_or_print(text: str, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        print(text)


def cmd_run(args) -> int:
    script = _effective_script(parse_script(args.script), args.seed)
    cfg = load_config(args.config)
    mode = MODE_NAMES[args.mode]
    run = rollout(script, cfg, mode, noise_eps=args.noise_eps)
    full = rollout(script, cfg, Mode.NAM_FULL, noise_eps=args.noise_eps) if mode is Mode.NAM_SMA else None
    m = compute_metrics(run, full)
    doc = metrics_to_json(m, extra={"mode": mode.value, "seed": script.seed, "chunks": len(run.results)})
    _write_or_print(doc, args.out)
    return 0


def cmd_ablate(args) -> int:
    _check_repeat(args.repeat)
    script = _effective_script(parse_script(args.script), args.seed)
    cfg = load_config(args.config)
    modes, b_values = load_grid(args.grid, cfg)
    report = run_ablation_grid(script, cfg, modes, b_values, noise_eps=args.noise_eps, repeats=args.repeat)
    _print_grid_table(report)
    if args.out:
        text = grid_to_csv(report) if str(args.out).endswith(".csv") else json.dumps(report, indent=2)
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _print_grid_table(report):
    header = f"{'mode':<12}{'b':>4}{'precision':>12}{'sma_l2':>12}{'keys':>12}{'chunks/s':>12}"
    print(header)
    for row in report["rows"]:
        prec = "-" if row["retrieval_precision"] is None else f"{row['retrieval_precision']:.3f}"
        print(
            f"{row['mode']:<12}{row['bank_capacity']:>4}{prec:>12}"
            f"{row['sma_vs_full_l2']:>12.3e}{row['mean_attended_keys']:>12.1f}{row['chunks_per_second']:>12.2f}"
        )
    if report["throughput_ordering_ok"] is not None:
        print(f"throughput ordering ok: {report['throughput_ordering_ok']}")


def cmd_verify(args) -> int:
    return 0 if run_all_checks() else 2


def cmd_bench(args) -> int:
    _check_repeat(args.repeat)
    cfg = load_config(args.config)
    if args.script:
        script = _effective_script(parse_script(args.script), args.seed)
    else:
        from .script import Segment

        script = NarrativeScript(
            seed=args.seed if args.seed is not None else 0,
            segments=tuple(
                Segment(f"benchmark segment {i}", i % 3, 5) for i in range(4)
            ),
        )
    # Each repeat runs every mode once, so no mode takes all of the
    # process's warm-up and each finds the heap as the others leave it.
    # Beside the throughput: the median per-chunk wall time of each phase
    # that rollout and step_chunk time, over every chunk of every repeat,
    # and the median over repeats of the process's minor page faults per
    # chunk.
    cps = {mode: [] for mode in Mode}
    faults = {mode: [] for mode in Mode}
    phase_ms = {mode: {name: [] for name in BENCH_PHASES} for mode in Mode}
    for _ in range(args.repeat):
        for mode in Mode:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run = rollout(script, cfg, mode, noise_eps=args.noise_eps)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cps[mode].append(len(run.results) / run.elapsed_seconds)
            faults[mode].append((after - before) / len(run.results))
            for res in run.results:
                for name in BENCH_PHASES:
                    phase_ms[mode][name].append(1e3 * res.wall_time[name])
    print(
        f"{'mode':<12}{'median chunks/s':>18}"
        + "".join(f"{name + ' ms':>20}" for name in BENCH_PHASES)
        + f"{'minor faults/chunk':>20}"
    )
    for mode in Mode:
        phases = "".join(f"{statistics.median(phase_ms[mode][name]):>20.4f}" for name in BENCH_PHASES)
        print(f"{mode.value:<12}{statistics.median(cps[mode]):>18.2f}{phases}{statistics.median(faults[mode]):>20.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="membank", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON model config file")
        sp.add_argument("--seed", type=int, help="override script seed")
        sp.add_argument("--noise-eps", type=float, default=0.05, dest="noise_eps")

    sp = sub.add_parser("run", help="run one rollout and report metrics")
    sp.add_argument("--script", required=True)
    sp.add_argument("--mode", choices=sorted(MODE_NAMES), default=Mode.NAM_SMA.value)
    sp.add_argument("--out")
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("ablate", help="run a mode x capacity grid")
    sp.add_argument("--script", required=True)
    sp.add_argument("--grid", help="JSON file with modes and b_values")
    sp.add_argument("--out")
    sp.add_argument("--repeat", type=int, default=1)
    common(sp)
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("verify", help="run the acceptance criteria that do not depend on timing")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bench", help="repeated timed runs per mode")
    sp.add_argument("--script")
    sp.add_argument("--repeat", type=int, default=3)
    common(sp)
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MembankError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
