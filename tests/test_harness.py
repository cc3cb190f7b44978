import json

import pytest

from membank.engine import Mode, rollout
from membank.errors import ConfigError, InapplicableMetricError, ScriptError
from membank.metrics import (
    compute_metrics,
    determinism_hash,
    grid_to_csv,
    metrics_to_json,
    retrieval_precision,
    run_ablation_grid,
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
        assert m.chunks_per_second > 0
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
        doc = json.loads(metrics_to_json(compute_metrics(run)))
        x = doc["mean_attended_keys"]
        assert x == float(f"{x:.9g}")


class TestAblationGrid:
    def test_all_modes_one_capacity(self, monkeypatch):
        import membank.metrics

        calls = []

        def counted(script, cfg, mode, noise_eps):
            calls.append(mode)
            return rollout(script, cfg, mode, noise_eps)

        monkeypatch.setattr(membank.metrics, "rollout", counted)
        report = run_ablation_grid(revisiting_script(11), CFG, list(Mode), [3])
        assert len(report["rows"]) == 4
        cps = {Mode(r["mode"]): r["chunks_per_second"] for r in report["rows"]}
        assert report["throughput_ordering_ok"] is throughput_ordering(cps)
        # One rollout per mode: nam_sma's L2 gap reuses the grid's own
        # nam_full run. CFG's capacity is 3, so the cell's config is CFG.
        assert calls == list(Mode)
        sma, full = (rollout(revisiting_script(11), CFG, m) for m in (Mode.NAM_SMA, Mode.NAM_FULL))
        gap = report["rows"][list(Mode).index(Mode.NAM_SMA)]["sma_vs_full_l2"]
        assert gap > 0 and gap == pytest.approx(sma_vs_full_l2(sma, full), rel=1e-8)

    def test_throughput_ordering_predicate(self):
        cps = {Mode.NO_MEMORY: 4.0, Mode.FRAME_SINK: 3.0, Mode.NAM_SMA: 2.0, Mode.NAM_FULL: 1.0}
        assert throughput_ordering(cps) is True
        assert throughput_ordering({**cps, Mode.FRAME_SINK: 2.0}) is False  # the sink must beat SMA
        assert throughput_ordering({**cps, Mode.NAM_FULL: 2.0}) is False
        assert throughput_ordering({**cps, Mode.NO_MEMORY: 2.0}) is False
        assert throughput_ordering({m: c for m, c in cps.items() if m is not Mode.FRAME_SINK}) is None

    def test_capacity_sweep_rows(self):
        report = run_ablation_grid(revisiting_script(11), CFG, [Mode.NAM_FULL], [3, 6, 9])
        assert [r["bank_capacity"] for r in report["rows"]] == [3, 6, 9]
        assert report["throughput_ordering_ok"] is None

    def test_empty_modes_error(self):
        with pytest.raises(ConfigError):
            run_ablation_grid(revisiting_script(11), CFG, [], [3])

    def test_csv_shape(self):
        report = run_ablation_grid(single_topic_script(2), CFG, [Mode.NO_MEMORY], [3])
        lines = grid_to_csv(report).strip().splitlines()
        assert lines[0] == ",".join(report["rows"][0]) == (
            "mode,bank_capacity,retrieval_precision,sma_vs_full_l2,"
            "mean_attended_keys,chunks_per_second,determinism_hash"
        )
        assert len(lines) == 2

    def test_rows_deterministic_modulo_time(self):
        a = run_ablation_grid(revisiting_script(11), CFG, [Mode.NAM_SMA], [3])
        b = run_ablation_grid(revisiting_script(11), CFG, [Mode.NAM_SMA], [3])
        ra, rb = a["rows"][0], b["rows"][0]
        assert ra.pop("chunks_per_second") > 0 and rb.pop("chunks_per_second") > 0
        assert ra == rb
