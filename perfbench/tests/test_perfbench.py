"""Tests of the benchmark itself, on its quick mode.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = ["short_frames", "deep_bank", "wide_frames"]

END_TO_END = {
    "chunks_per_s.no_memory": "chunks/s",
    "chunks_per_s.frame_sink": "chunks/s",
    "chunks_per_s.nam_full": "chunks/s",
    "chunks_per_s.nam_sma": "chunks/s",
    "chunk_ms_p50.nam_full": "ms",
    "chunk_ms_p50.nam_sma": "ms",
    "chunk_ms_tail.nam_full": "ms",
    "chunk_ms_tail.nam_sma": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "retrieval_precision": "ratio",
    "sma_vs_full_l2": "ratio",
    "failed_share": "ratio",
    "trace_overhead_share": "ratio",
}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quick(capsys, workload, trace, seed=5):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--quick"]
    )
    lines = capsys.readouterr().out.splitlines()
    table = {}
    for line in lines[:-1]:
        if line and not line.startswith("#"):
            name, value, unit = line.split()
            table[name] = (float(value), unit)
    return code, table, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    code, table, result = quick(capsys, workload, trace=0)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert {k: u for k, (_, u) in table.items()} == END_TO_END
    assert table["failed_share"][0] == 0.0
    declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(capsys, workload):
    code, table, result = quick(capsys, workload, trace=1)
    assert code == 0 and result["correct"] is True
    declared = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: u for k, (_, u) in table.items()} == declared
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for layer in ("toymodel", "retrieval", "activation", "engine", "frames", "metrics"):
        assert any(name.startswith(layer + ".") for name in declared)


def _corrupting(step):
    def corrupted(state, prompt, chunk, cfg, weights):
        state, res = step(state, prompt, chunk, cfg, weights)
        res.attention_outputs[0] = res.attention_outputs[0] + 1e-6
        return state, res

    return corrupted


@pytest.mark.parametrize("where", ["program", "driver"])
def test_corrupted_output_is_counted_and_fails_the_run(capsys, monkeypatch, where):
    run.locate_program()
    import driver
    from membank import engine

    if where == "program":
        monkeypatch.setattr(engine, "step_chunk", _corrupting(engine.step_chunk))
    else:
        plain = driver.plain_calls()
        monkeypatch.setattr(driver, "plain_calls", lambda: plain._replace(step_chunk=_corrupting(plain.step_chunk)))
    code, table, result = quick(capsys, "short_frames", trace=0)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert table["failed_share"][0] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "short_frames", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1000)]) == (99.0, 989.0, 1000)
    assert run.tail([float(x) for x in range(200)]) == (95.0, 189.0, 200)
    assert run.tail([float(x) for x in range(9)]) == (100.0 * (1 - 4 / 9), 4.0, 9)
