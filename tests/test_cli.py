import json
from dataclasses import asdict

import pytest

from membank.cli import main
from membank.engine import Mode
from membank.metrics import bench_modes
from membank.toymodel import ModelConfig

SCRIPT = {
    "seed": 6,
    "segments": [
        {"prompt_text": "a harbor at night", "topic": 0, "chunks": 2},
        {"prompt_text": "a desert road", "topic": 1, "chunks": 2},
        {"prompt_text": "back to the harbor", "topic": 0, "chunks": 2},
    ],
}


@pytest.fixture
def script_path(tmp_path):
    p = tmp_path / "script.json"
    p.write_text(json.dumps(SCRIPT), encoding="utf-8")
    return str(p)


def test_run_writes_json(script_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "--script", script_path, "--mode", "nam_sma", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "nam_sma"
    assert doc["seed"] == SCRIPT["seed"]
    assert doc["chunks"] == 6
    assert len(doc["determinism_hash"]) == 16


def test_run_prints_without_out(script_path, capsys):
    assert main(["run", "--script", script_path, "--mode", "no_memory"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["retrieval_precision"] is None


def test_run_reports_no_throughput(script_path, capsys):
    # Throughput is `bench`'s alone; `run` reports what the rollout determines.
    assert main(["run", "--script", script_path, "--mode", "nam_sma"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "mode", "seed", "chunks", "retrieval_precision", "sma_vs_full_l2", "mean_attended_keys",
        "mean_computed_keys", "determinism_hash",
    ]


def test_run_missing_script_is_validation_failure(tmp_path, capsys):
    rc = main(["run", "--script", str(tmp_path / "nope.json")])
    assert_one_error_line(rc, capsys, "nope.json")


def test_run_malformed_script(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("not json", encoding="utf-8")
    assert main(["run", "--script", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_bench_out_writes_the_printed_text(script_path, tmp_path, capsys, monkeypatch):
    # Timings differ between runs, so both commands report one measured
    # document; what differs is only where the text goes.
    import membank.cli

    reports = []

    def bench_once(*args, **kwargs):
        if not reports:
            reports.append(bench_modes(*args, **kwargs))
        return reports[0]

    monkeypatch.setattr(membank.cli, "bench_modes", bench_once)
    assert main(["bench", "--script", script_path, "--repeat", "1"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "bench.json"
    assert main(["bench", "--script", script_path, "--repeat", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed
    assert json.loads(printed) == reports[0]


def test_bench_config_keys(script_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bank_capacity": 4}))
    assert main(["bench", "--script", script_path, "--config", str(cfg), "--repeat", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["config", "rows", "throughput_ordering_ok"]
    assert list(doc["config"]) == [
        "layers", "heads", "head_dim", "tokens_per_frame", "frames_per_chunk", "local_window", "bank_capacity",
        "sma_k", "seed",
    ]
    assert (doc["config"]["bank_capacity"], doc["config"]["seed"]) == (4, SCRIPT["seed"])
    assert [r["mode"] for r in doc["rows"]] == [m.value for m in Mode]
    assert isinstance(doc["throughput_ordering_ok"], bool)


def test_bench_defaults_print_one_document(script_path, capsys):
    # No --config and the default --repeat: the document states the
    # default config, seeded by the script.
    assert main(["bench", "--script", script_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == asdict(ModelConfig(seed=SCRIPT["seed"]))
    assert [row["mode"] for row in doc["rows"]] == [m.value for m in Mode]
    assert isinstance(doc["throughput_ordering_ok"], bool)


def test_verify_passes(capsys, monkeypatch):
    # The real checks are the acceptance criteria, which
    # tests/test_acceptance.py runs; here two passing stand-ins, one with
    # a detail, drive the command's exit-0 path.
    from membank import verify

    monkeypatch.setattr(verify, "CHECKS", [("first", lambda: (True, "")), ("second", lambda: (True, "0.5 keys"))])
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS  first", "PASS  second (0.5 keys)"]


def test_verify_failure_exits_2_and_runs_every_check(capsys, monkeypatch):
    from membank import verify
    from membank.errors import CapacityError

    ran = []

    def check(name, passed):
        def fn():
            ran.append(name)
            return passed, ""

        return name, fn

    def raises():
        ran.append("raises")
        raise CapacityError("4 frames exceed capacity 3")

    monkeypatch.setattr(verify, "CHECKS", [check("fails", False), ("raises", raises), check("passes", True)])
    assert main(["verify"]) == 2
    assert ran == ["fails", "raises", "passes"]
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  fails",
        "FAIL  raises (CapacityError: 4 frames exceed capacity 3)",
        "PASS  passes",
    ]


def test_bench_runs(script_path, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tokens_per_frame": 4, "head_dim": 4}))
    rc = main(["bench", "--script", script_path, "--repeat", "1", "--config", str(cfg)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["config"]["tokens_per_frame"], doc["config"]["head_dim"]) == (4, 4)
    assert [row["mode"] for row in doc["rows"]] == [m.value for m in Mode]
    assert isinstance(doc["throughput_ordering_ok"], bool)
    for row in doc["rows"]:
        assert row["mean_attended_keys"] >= row["mean_computed_keys"] > 0 and row["chunks_per_second"] > 0
        assert row["synthesis_ms"] > 0 and row["projection_ms"] > 0 and row["attention_ms"] > 0
        assert row["retrieval_update_ms"] >= 0 and row["selection_ms"] >= 0 and row["minor_faults_per_chunk"] >= 0


def test_bad_config_field(script_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = main(["run", "--script", script_path, "--config", str(cfg)])
    assert_one_error_line(rc, capsys, str(cfg), "unknown config fields", "bogus")


def test_config_seed_rejected(script_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 999}))
    rc = main(["run", "--script", script_path, "--config", str(cfg)])
    assert_one_error_line(rc, capsys, str(cfg), "unknown config fields", "seed")


@pytest.mark.parametrize("value", ["2", 2.5, True, None])
def test_config_field_must_be_integer(script_path, tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layers": value}))
    rc = main(["run", "--script", script_path, "--config", str(cfg)])
    assert_one_error_line(rc, capsys, str(cfg), "layers")


def test_model_config_check_names_the_file(script_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bank_capacity": 0}))
    rc = main(["run", "--script", script_path, "--config", str(cfg)])
    assert_one_error_line(rc, capsys, f"{cfg}: bank_capacity must be >= 1, got 0")


def test_config_must_be_object(script_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([["layers", 2]]))
    rc = main(["run", "--script", script_path, "--config", str(cfg)])
    assert_one_error_line(rc, capsys, str(cfg), "object")


@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_repeat_below_one_rejected(script_path, capsys, repeat):
    rc = main(["bench", "--script", script_path, "--repeat", repeat])
    assert_one_error_line(rc, capsys, f"repeats must be >= 1, got {repeat}")


def assert_one_error_line(rc, capsys, *words):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert all(w in err for w in words)


@pytest.mark.parametrize(
    "argv, words",
    [
        (["run", "--script", "s.json", "--bogus"], ["membank: unrecognized arguments: --bogus"]),
        (["bench", "--script", "s.json", "--grid", "g.json"], ["unrecognized arguments: --grid g.json"]),
        (["bench", "--script", "s.json", "--noise-eps", "0.1"], ["unrecognized arguments: --noise-eps 0.1"]),
        (["run", "--script", "s.json", "--noise-eps", "0.1"], ["unrecognized arguments: --noise-eps 0.1"]),
        (["run", "--script", "s.json", "--seed", "3"], ["unrecognized arguments: --seed 3"]),
        (["bench", "--script", "s.json", "--seed", "3"], ["unrecognized arguments: --seed 3"]),
        (["run"], ["membank run:", "required: --script"]),
        (["bench"], ["membank bench:", "required: --script"]),
        (["bench", "--script", "s.json", "--repeat", "x"], ["--repeat", "invalid int value: 'x'"]),
        (["run", "--script", "s.json", "--mode", "bogus"], ["--mode", "invalid choice: 'bogus'"]),
        ([], ["required: command"]),
    ],
    ids=["unknown_option", "grid_option", "bench_noise_option", "run_noise_option", "run_seed_option", "bench_seed_option",
         "run_without_script", "bench_without_script", "bad_int", "bad_choice", "no_command"],
)
def test_usage_error_is_one_line(capsys, argv, words):
    # A usage error is a validation failure (exit 1), not a verify failure (exit 2).
    assert_one_error_line(main(argv), capsys, *words)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    assert "--script SCRIPT" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize(
    "content, words",
    [(b"\xff\xfe", ["not UTF-8"]), (b'{"layers": 2,\n', ["invalid JSON", "line 2"])],
    ids=["not_utf8", "bad_json"],
)
def test_unreadable_config_file_rejected(script_path, tmp_path, capsys, command, content, words):
    path = tmp_path / "file.json"
    path.write_bytes(content)
    rc = main([command, "--script", script_path, "--config", str(path)])
    assert_one_error_line(rc, capsys, str(path), *words)


@pytest.mark.parametrize("field", ["seed", "topic", "chunks"])
def test_script_boolean_is_not_an_integer(tmp_path, capsys, field):
    doc = json.loads(json.dumps(SCRIPT))
    if field == "seed":
        doc["seed"] = True
    else:
        doc["segments"][0][field] = True
    path = tmp_path / "script.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_one_error_line(main(["run", "--script", str(path)]), capsys, field)


@pytest.mark.parametrize(
    "doc, words",
    [
        ([SCRIPT], ["script root must be a JSON object"]),
        ({"segments": SCRIPT["segments"]}, ["missing required field 'seed'"]),
        ({"seed": 6, "segments": [SCRIPT["segments"][0], "a desert road"]}, ["segment 1 must be an object"]),
        ({"seed": 6, "segments": [{**SCRIPT["segments"][0], "topic": -1}]}, ["segment 0: topic must be >= 0"]),
        ({"seed": 6, "segments": [{**SCRIPT["segments"][0], "prompt_text": " \t"}]}, ["segment 0: prompt_text is empty"]),
    ],
    ids=["root_not_object", "missing_seed", "segment_not_object", "negative_topic", "blank_prompt"],
)
def test_script_schema_error_names_the_file(tmp_path, capsys, doc, words):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_one_error_line(main(["run", "--script", str(path)]), capsys, f"{path}: ", *words)


@pytest.mark.parametrize("where", ["script", "segment"])
def test_script_unknown_field_rejected(tmp_path, capsys, where):
    doc = json.loads(json.dumps(SCRIPT))
    (doc if where == "script" else doc["segments"][1])["extra"] = 1
    path = tmp_path / "script.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["run", "--script", str(path)])
    assert_one_error_line(rc, capsys, f"{path}: ", "unknown", where, "extra")


def test_run_script_directory_rejected(tmp_path, capsys):
    rc = main(["run", "--script", str(tmp_path)])
    assert_one_error_line(rc, capsys, str(tmp_path))


def test_run_script_not_utf8_rejected(tmp_path, capsys):
    p = tmp_path / "bin.json"
    p.write_bytes(b"\xff\xfe")
    assert_one_error_line(main(["run", "--script", str(p)]), capsys, "UTF-8")


def test_programming_error_propagates(script_path, monkeypatch):
    import membank.cli

    def broken(*args, **kwargs):
        raise ValueError("bug inside the engine")

    monkeypatch.setattr(membank.cli, "rollout", broken)
    with pytest.raises(ValueError, match="bug inside the engine"):
        main(["run", "--script", script_path])
