"""Tests of benchmarks/bench_pipeline.py: one run of a tiny pipeline, the
suite record and its summary parser without running the suite, and the
pairing of two checkouts with the pipeline runs faked."""

import importlib.util
import json
from pathlib import Path

import pytest

from test_cli import SMALL_CONFIG

from ilrkit.config import load_config

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_pipeline.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_pipeline", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_run_appends_one_record(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    record = tmp_path / "BENCH_pipeline.json"
    record.write_text('[{"note": "earlier"}]\n')
    bench = _bench()
    assert bench.main(["--runs", "1", "--config", str(config), "--record", str(record),
                       "--note", "smoke"]) == 0
    assert str(record) in capsys.readouterr().out
    earlier, new = json.loads(record.read_text())
    assert earlier == {"note": "earlier"}
    assert new["note"] == "smoke"
    assert new["config_hash"] == load_config(config).config_hash()
    assert new["cores"] >= 1 and len(new["source_sha256"]) == 64
    (run,) = new["runs"]
    assert run["total_s"] > 0 and new["median_total_s"] == run["total_s"]
    assert list(run["stages_s"]) == [
        "generating synthetic bundle", "fitting expert head", "writing token maps",
        "building adapter-training tasks", "waiting for task building",
        "fitting fusion adapter", "evaluating matchers",
    ]
    assert list(run["workers_s"]) == ["task building and writes",
                                      "raw and expert-set writes and recall"]
    assert all(s >= 0 for s in [*run["stages_s"].values(), *run["workers_s"].values()])


def test_parse_log_reads_stage_and_worker_lines():
    text = "\n".join([
        "INFO __main__: pipeline: generating synthetic bundle",
        "INFO __main__: pipeline: fitting expert head (generating synthetic bundle took 0.65 s)",
        "INFO ilrkit.fusion: adapter training: epoch 0 mean loss 0.1",
        "INFO __main__: worker: bundle and expert-set writes took 0.19 s",
        "INFO __main__: pipeline: done (fitting expert head took 2.73 s)",
    ])
    stages, workers = _bench().parse_log(text)
    assert stages == {"generating synthetic bundle": 0.65, "fitting expert head": 2.73}
    assert workers == {"bundle and expert-set writes": 0.19}


def test_parse_summary_reads_the_last_summary_line():
    parse = _bench().parse_summary
    assert parse("....\n1071 passed in 33.59s\n") == {"passed": 1071, "failed": 0}
    text = "\n".join([
        "FAILED tests/test_cli.py::test_x - assert 'took 2 s' in 0.1s",
        "=========================== short test summary info ============",
        "2 failed, 1049 passed, 1 skipped, 3 warnings, 1 error in 75.20s (0:01:15)",
    ])
    assert parse(text) == {"failed": 2, "passed": 1049, "skipped": 1, "warnings": 3,
                           "errors": 1}
    assert parse("== 1 failed, 2 passed, 2 errors in 0.12s ==") == {
        "failed": 1, "passed": 2, "errors": 2}
    with pytest.raises(ValueError, match="no pytest summary line"):
        parse("Traceback (most recent call last):\n")


def test_suite_appends_one_record_without_pipeline_runs(tmp_path, monkeypatch, capsys):
    # run_suite is replaced: the suite must not run inside itself
    bench = _bench()
    output = "..F.\n1 failed, 3 passed in 41.02s\n"
    monkeypatch.setattr(bench, "run_suite", lambda: (41.25, output))
    record = tmp_path / "BENCH_pipeline.json"
    assert bench.main(["--suite", "--record", str(record), "--note", "suite"]) == 0
    assert "1 failed" in capsys.readouterr().out
    (new,) = json.loads(record.read_text())
    assert new["note"] == "suite" and "runs" not in new and "config_hash" not in new
    assert new["suite"] == {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "wall_s": 41.25, "passed": 3, "failed": 1,
    }


@pytest.mark.parametrize("extra", [["--runs", "2"], ["--config", "x.json"], ["--baseline", "."]])
def test_suite_takes_no_pipeline_options(tmp_path, extra):
    with pytest.raises(SystemExit) as exc:
        _bench().main(["--suite", "--record", str(tmp_path / "r.json"), *extra])
    assert exc.value.code == 2


def test_baseline_alternates_two_checkouts_and_appends_a_record_each(tmp_path, monkeypatch,
                                                                     capsys):
    # run_once is replaced: each call returns which checkout's src/ it was given
    bench = _bench()
    baseline = tmp_path / "parent"
    (baseline / "src" / "ilrkit").mkdir(parents=True)
    (baseline / "src" / "ilrkit" / "__init__.py").write_text("# the parent\n")
    calls = []

    def fake_run_once(config, workdir, src):
        calls.append(src)
        return {"total_s": float(len(calls)), "stages_s": {}, "workers_s": {}}

    monkeypatch.setattr(bench, "run_once", fake_run_once)
    record = tmp_path / "BENCH_pipeline.json"
    assert bench.main(["--runs", "3", "--baseline", str(baseline), "--record", str(record),
                       "--note", "pairs"]) == 0
    assert "baseline: 3 runs" in capsys.readouterr().out
    base_src, own_src = baseline.resolve() / "src", bench.SRC
    assert calls == [base_src, own_src, own_src, base_src, base_src, own_src]
    base, own = json.loads(record.read_text())
    assert (base["side"], own["side"]) == ("baseline", "checkout")
    assert [r["total_s"] for r in base["runs"]] == [1.0, 4.0, 5.0]
    assert [r["total_s"] for r in own["runs"]] == [2.0, 3.0, 6.0]
    assert (base["median_total_s"], own["median_total_s"]) == (4.0, 3.0)
    assert base["note"] == own["note"] == "pairs"
    assert base["config_hash"] == own["config_hash"] == load_config(None).config_hash()
    # each side carries its own source digest and git fields
    assert base["source_sha256"] == bench._source_sha256(base_src)
    assert own["source_sha256"] == bench._source_sha256(own_src)
    assert base["source_sha256"] != own["source_sha256"]
    assert base["git_sha"] is None and base["src_differs_from_git_sha"] is None
    assert own["git_sha"] == bench._checkout(bench.ROOT)["git_sha"]


def test_baseline_must_hold_the_program(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _bench().main(["--runs", "1", "--baseline", str(tmp_path),
                       "--record", str(tmp_path / "r.json")])
    assert exc.value.code == 2
