import csv
import json

import pytest

from membank.cli import main
from membank.engine import Mode

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
    assert doc["chunks"] == 6
    assert len(doc["determinism_hash"]) == 16


def test_run_prints_without_out(script_path, capsys):
    assert main(["run", "--script", script_path, "--mode", "no_memory"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["retrieval_precision"] is None


def test_run_missing_script_is_validation_failure(tmp_path, capsys):
    rc = main(["run", "--script", str(tmp_path / "nope.json")])
    assert rc == 1


def test_run_malformed_script(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("not json", encoding="utf-8")
    assert main(["run", "--script", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_seed_flag_overrides_script_seed(script_path, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    out_c = tmp_path / "c.json"
    main(["run", "--script", script_path, "--seed", "123", "--out", str(out_a)])
    main(["run", "--script", script_path, "--seed", "6", "--out", str(out_b)])
    main(["run", "--script", script_path, "--out", str(out_c)])
    a, b, c = (json.loads(p.read_text()) for p in (out_a, out_b, out_c))
    assert a["seed"] == 123
    assert b["seed"] == 6 == c["seed"]
    assert b["determinism_hash"] == c["determinism_hash"]
    assert a["determinism_hash"] != c["determinism_hash"]


def test_ablate_csv(script_path, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"modes": ["no_memory", "nam_full"], "b_values": [3, 4]}))
    rc = main(["ablate", "--script", script_path, "--grid", str(grid), "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    assert {r["mode"] for r in rows} == {"no_memory", "nam_full"}


def test_ablate_json_rows_match_csv(script_path, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"modes": ["no_memory", "nam_sma"], "b_values": [3, 4]}))
    out_json, out_csv = tmp_path / "g.json", tmp_path / "g.csv"
    for out in (out_json, out_csv):
        assert main(["ablate", "--script", script_path, "--grid", str(grid), "--out", str(out)]) == 0
    doc = json.loads(out_json.read_text())
    header = out_csv.read_text().splitlines()[0].split(",")
    assert list(doc) == ["rows", "throughput_ordering_ok"]
    assert doc["throughput_ordering_ok"] is None
    assert [(r["mode"], r["bank_capacity"]) for r in doc["rows"]] == [
        ("no_memory", 3), ("nam_sma", 3), ("no_memory", 4), ("nam_sma", 4)
    ]
    assert all(list(r) == header for r in doc["rows"])


def test_ablate_default_grid_prints_table(script_path, capsys):
    assert main(["ablate", "--script", script_path]) == 0
    out = capsys.readouterr().out
    assert "mode" in out and "chunks/s" in out


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


def test_bench_runs(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tokens_per_frame": 4, "head_dim": 4}))
    rc = main(["bench", "--repeat", "1", "--config", str(cfg)])
    assert rc == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == [
        "mode", "median", "chunks/s", "synthesis", "ms", "retrieval_update", "ms", "projection", "ms",
        "selection", "ms", "attention", "ms", "minor", "faults/chunk",
    ]
    assert [row.split()[0] for row in rows] == [m.value for m in Mode]
    for row in rows:
        cps, synthesis, retrieval, projection, selection, attention, faults = map(float, row.split()[1:])
        assert cps > 0 and synthesis > 0 and projection > 0 and attention > 0
        assert retrieval >= 0 and selection >= 0 and faults >= 0


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


@pytest.mark.parametrize("command", ["ablate", "bench"])
@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_repeat_below_one_rejected(script_path, capsys, command, repeat):
    assert main([command, "--script", script_path, "--repeat", repeat]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--repeat" in err and err.count("\n") == 1


def assert_one_error_line(rc, capsys, *words):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert all(w in err for w in words)


@pytest.mark.parametrize(
    "grid, word",
    [
        ([["nam_full"], [3]], "object"),
        ({"b_values": "3"}, "b_values"),
        ({"b_values": [2.5]}, "b_values"),
        ({"modes": ["bogus"]}, "bogus"),
        ({"modes": [["nam_full"]]}, "modes"),
        ({"mode": ["nam_full"]}, "mode"),
    ],
    ids=["list", "b_values_string", "b_values_float", "unknown_mode", "unhashable_mode", "unknown_field"],
)
def test_ablate_bad_grid_rejected(script_path, tmp_path, capsys, grid, word):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    rc = main(["ablate", "--script", script_path, "--grid", str(path)])
    assert_one_error_line(rc, capsys, f"{path}: ", word)


@pytest.mark.parametrize("command, flag", [("run", "--config"), ("ablate", "--grid")])
@pytest.mark.parametrize(
    "content, words",
    [(b"\xff\xfe", ["not UTF-8"]), (b'{"layers": 2,\n', ["invalid JSON", "line 2"])],
    ids=["not_utf8", "bad_json"],
)
def test_unreadable_config_or_grid_file_rejected(script_path, tmp_path, capsys, command, flag, content, words):
    path = tmp_path / "file.json"
    path.write_bytes(content)
    rc = main([command, "--script", script_path, flag, str(path)])
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


@pytest.mark.parametrize("where", ["script", "segment"])
def test_script_unknown_field_rejected(tmp_path, capsys, where):
    doc = json.loads(json.dumps(SCRIPT))
    (doc if where == "script" else doc["segments"][1])["extra"] = 1
    path = tmp_path / "script.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["run", "--script", str(path)])
    assert_one_error_line(rc, capsys, f"{path}: ", "unknown", where, "extra")


@pytest.mark.filterwarnings("error")
def test_overflowing_logits_rejected(script_path, capsys):
    # Token noise of 1e306 keeps K and V finite but not the logits' bound.
    rc = main(["run", "--script", script_path, "--mode", "no_memory", "--noise-eps", "1e306"])
    assert_one_error_line(rc, capsys, "logit bound")


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
