import json
import time
from dataclasses import replace

import pytest

from membank import metrics
from membank.engine import Mode, rollout, script_inputs, step_chunk
from membank.errors import ConfigError, InapplicableMetricError, ScriptError
from membank.metrics import (
    bench_modes,
    compute_metrics,
    determinism_hash,
    metrics_to_dict,
    retrieval_precision,
    sma_vs_full_l2,
    throughput_ordering,
)
from membank.script import NarrativeScript, Segment, parse_script
from membank.toymodel import ModelConfig
from membank.verify import revisiting_script

CFG = ModelConfig(seed=4)


def write_script(tmp_path, doc):
    p = tmp_path / "script.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


class TestParseScript:
    def test_minimal(self, tmp_path):
        p = write_script(
            tmp_path,
            {"seed": 1, "segments": [{"prompt_text": "a", "topic": 0, "chunks": 1}]},
        )
        script = parse_script(p)
        assert len(script.segments) == 1 and script.seed == 1

    def test_missing_topic(self, tmp_path):
        p = write_script(
            tmp_path, {"seed": 1, "segments": [{"prompt_text": "a", "chunks": 1}]}
        )
        with pytest.raises(ScriptError, match="topic"):
            parse_script(p)

    def test_six_segments_in_order(self, tmp_path):
        doc = {
            "seed": 9,
            "segments": [
                {"prompt_text": f"p{i}", "topic": i % 2, "chunks": 2} for i in range(6)
            ],
        }
        script = parse_script(write_script(tmp_path, doc))
        assert [s.prompt_text for s in script.segments] == [f"p{i}" for i in range(6)]

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  broken\n}", encoding="utf-8")
        with pytest.raises(ScriptError, match="line 2"):
            parse_script(p)

    def test_bad_values(self, tmp_path):
        with pytest.raises(ScriptError):
            parse_script(
                write_script(
                    tmp_path,
                    {"seed": 1, "segments": [{"prompt_text": "a", "topic": 0, "chunks": 0}]},
                )
            )
        with pytest.raises(ScriptError):
            parse_script(write_script(tmp_path, {"seed": 1, "segments": []}))


def single_topic_script(chunks=4):
    return NarrativeScript(seed=11, segments=(Segment("only topic", 0, chunks),))


class TestRetrievalPrecision:
    def test_single_topic_is_perfect(self):
        run = rollout(single_topic_script(), CFG, Mode.NAM_FULL)
        assert retrieval_precision(run) == 1.0

    def test_zero_noise_orthogonal_topics(self):
        run = rollout(revisiting_script(11), CFG, Mode.NAM_FULL, noise_eps=0.0)
        assert retrieval_precision(run) == 1.0

    def test_wrong_mode_rejected(self):
        run = rollout(single_topic_script(), CFG, Mode.FRAME_SINK)
        with pytest.raises(InapplicableMetricError):
            retrieval_precision(run)

    def test_no_eligible_updates_reports_none(self):
        # single chunk per topic, never revisited: the bank never holds a
        # same-topic frame at update time
        script = NarrativeScript(
            seed=2,
            segments=tuple(Segment(f"s{i}", i, 1) for i in range(3)),
        )
        run = rollout(script, CFG, Mode.NAM_FULL)
        assert retrieval_precision(run) is None


class TestMetrics:
    def test_sma_vs_full_l2_zero_for_identical(self):
        run = rollout(single_topic_script(), CFG, Mode.NAM_FULL)
        assert sma_vs_full_l2(run, run) == 0.0

    def test_compute_metrics_fields(self):
        sma = rollout(revisiting_script(11), CFG, Mode.NAM_SMA)
        full = rollout(revisiting_script(11), CFG, Mode.NAM_FULL)
        m = compute_metrics(sma, full)
        assert 0.0 <= m.retrieval_precision <= 1.0
        assert m.sma_vs_full_l2 >= 0.0
        assert m.mean_attended_keys > 0
        assert len(m.determinism_hash) == 16

    def test_determinism_hash_repeatable(self):
        a = rollout(revisiting_script(11), CFG, Mode.NAM_SMA)
        b = rollout(revisiting_script(11), CFG, Mode.NAM_SMA)
        assert determinism_hash(a) == determinism_hash(b)

    def test_hash_ignores_wall_time(self):
        run = rollout(single_topic_script(), CFG, Mode.NAM_SMA)
        before = determinism_hash(run)
        for res in run.results:
            res.wall_time = {k: v * 10 for k, v in res.wall_time.items()}
        assert determinism_hash(run) == before

    def test_json_nine_significant_digits(self):
        run = rollout(single_topic_script(), CFG, Mode.NAM_FULL)
        x = metrics_to_dict(compute_metrics(run))["mean_attended_keys"]
        assert x == float(f"{x:.9g}")


class TestBenchModes:
    def test_rows_hash_as_rollouts(self):
        cfg = replace(CFG, bank_capacity=2)
        report = bench_modes(revisiting_script(11), cfg, repeats=1)
        assert report["config"]["bank_capacity"] == 2
        assert [r["mode"] for r in report["rows"]] == [m.value for m in Mode]
        rows = {Mode(r["mode"]): r for r in report["rows"]}
        assert report["throughput_ordering_ok"] is throughput_ordering({m: r["chunks_per_second"] for m, r in rows.items()})
        runs = {m: rollout(revisiting_script(11), cfg, m) for m in Mode}
        assert all(rows[m]["determinism_hash"] == determinism_hash(runs[m]) for m in Mode)
        gap = rows[Mode.NAM_SMA]["sma_vs_full_l2"]
        assert gap > 0 and gap == pytest.approx(sma_vs_full_l2(runs[Mode.NAM_SMA], runs[Mode.NAM_FULL]), rel=1e-8)

    def test_modes_take_turns(self, monkeypatch):
        order = []
        monkeypatch.setattr(metrics, "step_chunk", lambda state, *a: order.append(state.mode) or step_chunk(state, *a))
        bench_modes(single_topic_script(5), CFG, repeats=2)  # one untimed pass, then 2 timed
        assert order == 3 * [m for i in range(5) for m in list(Mode)[i % 4 :] + list(Mode)[: i % 4]]

    def test_results_kept_from_the_untimed_pass(self, monkeypatch):
        # Every timed pass's result claims another chunk and 0.5 s per
        # phase: the rows hash as rollouts, so they hold the untimed
        # pass's results, and their phase times are the timed passes'.
        steps = []

        def marked(state, *a):
            state, res = step_chunk(state, *a)
            steps.append(None)
            if len(steps) > 4 * 5:
                res = replace(res, chunk_id=-1, wall_time=dict.fromkeys(res.wall_time, 0.5))
            return state, res

        monkeypatch.setattr(metrics, "step_chunk", marked)
        report = bench_modes(single_topic_script(5), CFG, repeats=2)
        for row in report["rows"]:
            assert row["determinism_hash"] == determinism_hash(rollout(single_topic_script(5), CFG, Mode(row["mode"])))
            assert [row[f"{phase}_ms"] for phase in ("retrieval_update", "projection", "selection", "attention")] == [500.0] * 4

    def test_synthesis_is_the_mean_draw(self, monkeypatch):
        # The first of 5 draws sleeps 40 ms: the mean draw takes at least
        # 8 ms, while the median stays at an unslept draw.
        def slow_first(*args):
            cfg, weights, stream = script_inputs(*args)

            def draws():
                for i, drawn in enumerate(stream):
                    if not i:
                        time.sleep(0.04)
                    yield drawn

            return cfg, weights, draws()

        monkeypatch.setattr(metrics, "script_inputs", slow_first)
        report = bench_modes(single_topic_script(5), CFG, repeats=1)
        assert all(row["synthesis_ms"] >= 40 / 5 for row in report["rows"])

    def test_throughput_ordering_predicate(self):
        cps = {Mode.NO_MEMORY: 4.0, Mode.FRAME_SINK: 3.0, Mode.NAM_SMA: 2.0, Mode.NAM_FULL: 1.0}
        assert throughput_ordering(cps) is True
        assert throughput_ordering({**cps, Mode.FRAME_SINK: 2.0}) is False  # the sink must beat SMA
        assert throughput_ordering({**cps, Mode.NAM_FULL: 2.0}) is False
        assert throughput_ordering({**cps, Mode.NO_MEMORY: 2.0}) is False

    def test_capacity_sweep_rows(self):
        # A capacity sweep is one run per config. Each run's report states
        # its capacity, and only the bank modes' outputs depend on it.
        hashes = {}
        for b in (3, 6, 9):
            report = bench_modes(revisiting_script(11), replace(CFG, bank_capacity=b), repeats=1)
            assert report["config"]["bank_capacity"] == b
            assert isinstance(report["throughput_ordering_ok"], bool)
            for r in report["rows"]:
                hashes.setdefault(Mode(r["mode"]), set()).add(r["determinism_hash"])
        assert {m: len(h) for m, h in hashes.items()} == {m: 3 if m.uses_bank else 1 for m in Mode}

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_repeats_below_one_error(self, repeats):
        with pytest.raises(ConfigError, match=f"repeats must be >= 1, got {repeats}"):
            bench_modes(revisiting_script(11), CFG, repeats=repeats)

    def test_row_keys(self):
        report = bench_modes(single_topic_script(2), CFG, repeats=1)
        assert list(report) == ["config", "rows", "throughput_ordering_ok"]
        assert [r["mode"] for r in report["rows"]] == [m.value for m in Mode]
        for row in report["rows"]:
            assert list(row) == [
                "mode", "retrieval_precision", "sma_vs_full_l2", "mean_attended_keys", "mean_computed_keys",
                "chunks_per_second", "cost_vs_no_memory", "cost_vs_no_memory_iqr", "determinism_hash",
                "retrieval_update_ms", "projection_ms", "selection_ms", "attention_ms", "synthesis_ms",
                "minor_faults_per_chunk",
            ]

    def test_cost_is_the_same_pass_ratio_to_no_memory(self):
        # With one timed pass the ratio is no_memory's chunks/s over the
        # mode's, and it has no spread.
        report = bench_modes(revisiting_script(11), CFG, repeats=1)
        rows = {Mode(r["mode"]): r for r in report["rows"]}
        assert (rows[Mode.NO_MEMORY]["cost_vs_no_memory"], rows[Mode.NO_MEMORY]["cost_vs_no_memory_iqr"]) == (1.0, 0.0)
        for r in rows.values():
            cps = rows[Mode.NO_MEMORY]["chunks_per_second"] / r["chunks_per_second"]
            assert r["cost_vs_no_memory"] == pytest.approx(cps, rel=1e-8) and r["cost_vs_no_memory_iqr"] == 0.0
        three = bench_modes(revisiting_script(11), CFG, repeats=3)["rows"]
        assert three[0]["cost_vs_no_memory"] == 1.0 and all(r["cost_vs_no_memory_iqr"] >= 0 for r in three)

    def test_rows_deterministic_modulo_time(self):
        a = bench_modes(revisiting_script(11), CFG, repeats=1)
        b = bench_modes(revisiting_script(11), CFG, repeats=1)
        for ra, rb in zip(a["rows"], b["rows"]):
            for spread in ("minor_faults_per_chunk", "cost_vs_no_memory_iqr"):
                assert ra.pop(spread) >= 0 and rb.pop(spread) >= 0
            for timed in [k for k in ra if k.endswith("_ms")] + ["chunks_per_second", "cost_vs_no_memory"]:
                assert ra.pop(timed) > 0 and rb.pop(timed) > 0
            assert ra == rb
        assert [r["sma_vs_full_l2"] > 0 for r in a["rows"]] == [m is Mode.NAM_SMA for m in Mode]
