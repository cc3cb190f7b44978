"""Command-line front-end.

Commands:
  run     one rollout, JSON metrics to stdout or --out
  verify  every acceptance criterion that does not depend on timing
          (exit 2 on failure)
  bench   the four modes at the --config geometry over --script, stepping
          chunk by chunk in turn over timed passes: the config, per mode
          the metrics, median throughput, phase times and minor page
          faults per chunk, and whether the throughput ordering holds;
          JSON to stdout or --out

Exit codes: 0 success, 1 validation failure (a usage error included),
2 verify/acceptance failure.
A run is fixed by its script, which holds the seed, and its --config;
chunks are synthesised at engine.NOISE_EPS.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .engine import Mode, rollout
from .errors import ConfigError, MembankError
from .metrics import bench_modes, compute_metrics, metrics_to_dict
from .script import is_int, parse_script, read_json
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
        # The seed is the script's, never the config file's.
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


def _report(doc: dict, out):
    """Write `doc` as indented JSON to the file `out`, or print it when
    out is None; the file holds exactly the text that would print."""
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    script = parse_script(args.script)
    cfg = load_config(args.config)
    mode = MODE_NAMES[args.mode]
    run = rollout(script, cfg, mode)
    full = rollout(script, cfg, Mode.NAM_FULL) if mode is Mode.NAM_SMA else None
    m = compute_metrics(run, full)
    _report({"mode": mode.value, "seed": script.seed, "chunks": len(run.results), **metrics_to_dict(m)}, args.out)
    return 0


def cmd_verify(args) -> int:
    return 0 if run_all_checks() else 2


def cmd_bench(args) -> int:
    cfg = load_config(args.config)
    _report(bench_modes(parse_script(args.script), cfg, repeats=args.repeat), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error raises, so that `main` reports it as one `error:`
    line with exit 1, as it does a bad file; argparse would print a usage
    block and exit 2, the code of a verify failure."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="membank", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="run one rollout and report metrics")
    sp.add_argument("--script", required=True)
    sp.add_argument("--mode", choices=sorted(MODE_NAMES), default=Mode.NAM_SMA.value)
    sp.add_argument("--out")
    sp.add_argument("--config", help="JSON model config file")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("verify", help="run the acceptance criteria that do not depend on timing")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bench", help="time the four modes at one geometry")
    sp.add_argument("--script", required=True)
    sp.add_argument("--out")
    sp.add_argument("--repeat", type=int, default=3)
    sp.add_argument("--config", help="JSON model config file")
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (MembankError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
