"""Smoke test of benchmarks/bench_pipeline.py: one run of a tiny pipeline."""

import importlib.util
import json
from pathlib import Path

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
        "generating synthetic bundle", "training expert head", "training fusion adapter",
        "evaluating matchers",
    ]
    assert list(run["workers_s"]) == ["task building and writes", "bundle and expert-set writes"]
    assert all(s >= 0 for s in [*run["stages_s"].values(), *run["workers_s"].values()])


def test_parse_log_reads_stage_and_worker_lines():
    text = "\n".join([
        "INFO __main__: pipeline: generating synthetic bundle",
        "INFO __main__: pipeline: training expert head (generating synthetic bundle took 0.65 s)",
        "INFO ilrkit.fusion: adapter training: epoch 0 mean loss 0.1",
        "INFO __main__: worker: bundle and expert-set writes took 0.19 s",
        "INFO __main__: pipeline: done (training expert head took 2.73 s)",
    ])
    stages, workers = _bench().parse_log(text)
    assert stages == {"generating synthetic bundle": 0.65, "training expert head": 2.73}
    assert workers == {"bundle and expert-set writes": 0.19}
