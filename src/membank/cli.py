"""Command-line front-end.

Commands:
  run     one rollout, JSON metrics to stdout or --out
  verify  every acceptance criterion that does not depend on timing
          (exit 2 on failure)
  bench   mode x capacity grid, the modes stepping chunk by chunk in
          turn over timed passes: per row the metrics, median throughput,
          phase times and minor page faults per chunk; a table, and a CSV
          or JSON report with --out

Exit codes: 0 success, 1 validation failure, 2 verify/acceptance failure.
The seed comes from the script; the --seed flag overrides it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .engine import Mode, rollout
from .errors import ConfigError, MembankError
from .metrics import check_grid, compute_metrics, grid_to_csv, metrics_to_json, run_ablation_grid
from .script import NarrativeScript, Segment, is_int, parse_script, read_json
from .toymodel import ModelConfig
from .verify import run_all_checks

MODE_NAMES = {m.value: m for m in Mode}


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
    modes and the config's bank capacity. A schema error, or one of
    `check_grid`'s, names the file."""
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
        modes = [MODE_NAMES[n] for n in names]
        check_grid(modes, b_values)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    return modes, b_values


def _load_script(args) -> NarrativeScript:
    """The --script file, or bench's built-in script without one; --seed
    overrides its seed."""
    script = parse_script(args.script) if args.script else NarrativeScript(
        seed=0, segments=tuple(Segment(f"benchmark segment {i}", i % 3, 5) for i in range(4))
    )
    return script if args.seed is None else dataclasses.replace(script, seed=args.seed)


def _write_or_print(text: str, out):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        print(text)


def cmd_run(args) -> int:
    script = _load_script(args)
    cfg = load_config(args.config)
    mode = MODE_NAMES[args.mode]
    run = rollout(script, cfg, mode, noise_eps=args.noise_eps)
    full = rollout(script, cfg, Mode.NAM_FULL, noise_eps=args.noise_eps) if mode is Mode.NAM_SMA else None
    m = compute_metrics(run, full)
    doc = metrics_to_json(m, extra={"mode": mode.value, "seed": script.seed, "chunks": len(run.results)})
    _write_or_print(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    return 0 if run_all_checks() else 2


def cmd_bench(args) -> int:
    cfg = load_config(args.config)
    script = _load_script(args)
    modes, b_values = load_grid(args.grid, cfg)
    report = run_ablation_grid(script, cfg, modes, b_values, noise_eps=args.noise_eps, repeats=args.repeat)
    widths = {name: max(len(name), 10) for name in report["rows"][0]}
    print(" ".join(f"{name:>{w}}" for name, w in widths.items()))
    for row in report["rows"]:
        cells = ("-" if v is None else v if isinstance(v, str) else f"{v:.5g}" for v in row.values())
        print(" ".join(f"{cell:>{w}}" for cell, w in zip(cells, widths.values())))
    if report["throughput_ordering_ok"] is not None:
        print(f"throughput ordering ok: {report['throughput_ordering_ok']}")
    if args.out:
        text = grid_to_csv(report) if str(args.out).endswith(".csv") else json.dumps(report, indent=2)
        Path(args.out).write_text(text, encoding="utf-8")
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

    sp = sub.add_parser("verify", help="run the acceptance criteria that do not depend on timing")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bench", help="time a mode x capacity grid")
    sp.add_argument("--script")
    sp.add_argument("--grid", help="JSON file with modes and b_values")
    sp.add_argument("--out")
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
