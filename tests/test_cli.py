import contextlib
import ctypes
import dataclasses
import errno
import hashlib
import io
import json
import logging
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from ilrkit import checkpoint, cli, dataengine, embedstore, evalkit, expert, fusion, synthgen
from ilrkit.config import PipelineConfig
from ilrkit.embedstore import load_embedding_set, load_token_maps, save_embedding_set
from ilrkit.errors import DataValidationError, WriterError
from ilrkit.stage import OutputStage

SMALL_CONFIG = {
    "seed": 1,
    "k": 3,
    "tau": 0.3,
    "taus": [0.1, 0.4],
    "n_tasks": 10,
    "n_train_tasks": 12,
    "n_sweep_tasks": 5,
    "synth": {
        "seed": 1, "n_categories": 2, "clusters_per_category": 3,
        "instances_per_cluster": 4, "images_per_instance": 3,
        "dim_raw": 24, "dim_general": 8, "n_tokens": 4,
    },
    "expert": {"d_out": 8},
    "adapter": {"epochs": 1, "batch_size": 4},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the subcommand chain once and share the artifacts."""
    root = tmp_path_factory.mktemp("cliwork")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(SMALL_CONFIG))
    data = root / "data"
    common = ["--config", str(config_path)]

    def run(argv):
        return cli.main(argv + common)

    assert run(["synth", "--out", str(data)]) == 0
    assert run(["split", "--embeddings", str(data / "general.jsonl"),
                "--out", str(data / "split.json")]) == 0
    assert run(["build-galleries", "--embeddings", str(data / "general.jsonl"),
                "--split", str(data / "split.json"), "--k", "3", "--tau", "0.3",
                "--n-tasks", "10", "--out", str(data / "tasks.jsonl")]) == 0
    assert run(["train-expert", "--embeddings", str(data / "raw.jsonl"),
                "--split", str(data / "split.json"),
                "--out", str(data / "expert_head.ckpt")]) == 0
    assert run(["embed", "--checkpoint", str(data / "expert_head.ckpt"),
                "--embeddings", str(data / "raw.jsonl"),
                "--out", str(data / "expert.jsonl")]) == 0
    assert run(["match", "--embeddings", str(data / "general.jsonl"),
                "--tasks", str(data / "tasks.jsonl"),
                "--out", str(data / "preds.jsonl")]) == 0
    assert run(["evaluate", "--tasks", str(data / "tasks.jsonl"),
                "--predictions", str(data / "preds.jsonl"),
                "--out", str(data / "eval")]) == 0
    return root


def _cfg(workspace):
    return ["--config", str(workspace / "config.json")]


# an image of the workspace, named by the synth generator's id scheme
_FUSE_ID = "face_c001_i002_v01"


class TestSubcommandChain:
    def test_synth_outputs(self, workspace):
        data = workspace / "data"
        for name in ("raw.jsonl", "general.jsonl", "token_maps.jsonl",
                     "ground_truth.jsonl", "manifest.json"):
            assert (data / name).exists()
        general = load_embedding_set(data / "general.jsonl")
        assert len(general.records) == 2 * 3 * 4 * 3
        assert general.dimension == 8

    def test_manifest_records_config_hash(self, workspace):
        from ilrkit.config import config_from_dict

        manifest = json.loads((workspace / "data" / "manifest.json").read_text())
        expected = config_from_dict(SMALL_CONFIG).config_hash()
        assert manifest["general.jsonl"]["config_hash"] == expected
        assert "version" in manifest["general.jsonl"]

    def test_split_is_disjoint(self, workspace):
        split = dataengine.load_split(workspace / "data" / "split.json")
        assert not (split.train_instances & split.test_instances)
        assert split.test_instances

    def test_tasks_valid(self, workspace):
        data = workspace / "data"
        tasks = dataengine.load_gallery_tasks(data / "tasks.jsonl")
        assert len(tasks) == 10
        general = load_embedding_set(data / "general.jsonl")
        for task in tasks:
            dataengine.check_gallery_task(task, general)

    def test_expert_embeddings_unit_norm(self, workspace):
        eset = load_embedding_set(workspace / "data" / "expert.jsonl")
        norms = np.linalg.norm(eset.matrix(), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_predictions_parse(self, workspace):
        data = workspace / "data"
        with open(data / "preds.jsonl") as fh:
            for line in fh:
                obj = json.loads(line)
                assert dataengine.parse_answer(obj["response"], 3) is not None

    def test_evaluate_report(self, workspace):
        report = json.loads((workspace / "data" / "eval" / "report.json").read_text())
        assert 0.0 <= report["average"] <= 1.0
        text = (workspace / "data" / "eval" / "report.txt").read_text()
        assert "Matching accuracy" in text

    def test_emit_round_trip(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "conv.jsonl"
        assert cli.main(["emit", "--tasks", str(data / "tasks.jsonl"),
                         "--stage", "match_mcq", "--out", str(out)]
                        + _cfg(workspace)) == 0
        with open(out) as fh:
            for line in fh:
                obj = json.loads(line)
                assert dataengine.parse_answer(obj["target"], 3) == obj["answer_index"]

    @pytest.mark.parametrize("epochs, seed", [(0, 1), (1, 9)],
                             ids=["closed form", "fine-tuned"])
    def test_train_adapter_names_the_seed_that_made_it(self, workspace, tmp_path, epochs,
                                                       seed):
        # the top-level seed without fine-tuning, adapter.seed with it, in
        # the manifest and the checkpoint header alike
        data = workspace / "data"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "adapter": {
            **SMALL_CONFIG["adapter"], "epochs": epochs, "seed": 9}}))
        ckpt = tmp_path / "adapter.ckpt"
        assert cli.main(["train-adapter", "--tasks", str(data / "tasks.jsonl"),
                         "--token-maps", str(data / "token_maps.jsonl"),
                         "--expert-embeddings", str(data / "expert.jsonl"),
                         "--out", str(ckpt), "--config", str(config)]) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["adapter.ckpt"]["seed"] \
            == seed
        assert json.loads(ckpt.read_bytes().split(b"\n", 1)[0])["seed"] == seed

    @pytest.mark.parametrize("command", ["train-adapter", "pipeline"])
    def test_training_tasks_are_stacked_once(self, workspace, tmp_path, monkeypatch, command):
        # the closed-form fit and the fine-tune read one stack of the tasks
        calls = []
        for name in ("stack_tasks", "matching_views"):
            def counted(*args, _name=name, _call=getattr(fusion, name), **kwargs):
                calls.append(_name)
                return _call(*args, **kwargs)

            monkeypatch.setattr(fusion, name, counted)
        data = workspace / "data"
        if command == "train-adapter":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({**SMALL_CONFIG, "adapter": {
                **SMALL_CONFIG["adapter"], "epochs": 2}}))
            argv = ["train-adapter", "--tasks", str(data / "tasks.jsonl"),
                    "--token-maps", str(data / "token_maps.jsonl"),
                    "--expert-embeddings", str(data / "expert.jsonl"),
                    "--out", str(tmp_path / "adapter.ckpt"), "--config", str(config)]
        else:
            assert SMALL_CONFIG["adapter"]["epochs"] == 1
            argv = ["pipeline", "--out", str(tmp_path / "run"), "--threads", "1"] + _cfg(workspace)
        assert cli.main(argv) == 0
        assert calls == ["stack_tasks", "matching_views"]

    def test_train_adapter_and_fuse(self, workspace, tmp_path):
        data = workspace / "data"
        train_tasks = tmp_path / "train_tasks.jsonl"
        assert cli.main(["build-galleries", "--embeddings", str(data / "general.jsonl"),
                         "--split", str(data / "split.json"), "--side", "train",
                         "--k", "3", "--tau", "0.3", "--n-tasks", "12",
                         "--out", str(train_tasks)] + _cfg(workspace)) == 0
        ckpt = tmp_path / "adapter.ckpt"
        assert cli.main(["train-adapter", "--tasks", str(train_tasks),
                         "--token-maps", str(data / "token_maps.jsonl"),
                         "--expert-embeddings", str(data / "expert.jsonl"),
                         "--out", str(ckpt)] + _cfg(workspace)) == 0
        some_id = load_embedding_set(data / "general.jsonl").image_ids[0]
        fused = tmp_path / "new" / "fused.json"  # fuse makes the directory, as others do
        assert cli.main(["fuse", "--checkpoint", str(ckpt),
                         "--token-maps", str(data / "token_maps.jsonl"),
                         "--expert-embeddings", str(data / "expert.jsonl"),
                         "--image-id", some_id, "--out", str(fused)]
                        + _cfg(workspace)) == 0
        obj = json.loads(fused.read_text())
        attention = np.asarray(obj["attention"])
        assert attention.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(attention >= 0.0)

    def test_build_detection(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "det.jsonl"
        assert cli.main(["build-detection", "--embeddings", str(data / "general.jsonl"),
                         "--split", str(data / "split.json"), "--n-tasks", "20",
                         "--out", str(out)] + _cfg(workspace)) == 0
        tasks = dataengine.load_detection_tasks(out)
        assert len(tasks) == 20

    def test_evaluate_boolean_detection_responses(self, workspace, tmp_path):
        data = workspace / "data"
        det = tmp_path / "det.jsonl"
        assert cli.main(["build-detection", "--embeddings", str(data / "general.jsonl"),
                         "--split", str(data / "split.json"), "--n-tasks", "20",
                         "--out", str(det)] + _cfg(workspace)) == 0
        tasks = dataengine.load_detection_tasks(det)
        # JSON true/false answers; the first four are wrong
        preds = tmp_path / "det_preds.jsonl"
        preds.write_text("".join(
            json.dumps({"task_id": t.task_id, "response": t.is_match != (i < 4)}) + "\n"
            for i, t in enumerate(tasks)
        ))
        assert cli.main(["evaluate", "--tasks", str(data / "tasks.jsonl"),
                         "--predictions", str(data / "preds.jsonl"),
                         "--detection-tasks", str(det),
                         "--detection-predictions", str(preds),
                         "--out", str(tmp_path / "eval")] + _cfg(workspace)) == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["detection"]["weighted"] == pytest.approx(16 / 20)

    def test_prediction_lines_are_json_dumps_bytes(self, workspace, tmp_path):
        # task ids that json.dumps escapes: quotes, backslashes, control
        # characters, non-ASCII text and a lone surrogate
        data = workspace / "data"
        odd = ['q"uote', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "é猫🙂",
               " sep", "\ud800", "/slash", ""]
        tasks = dataengine.load_gallery_tasks(data / "tasks.jsonl")
        lines = []
        for i, line in enumerate((data / "tasks.jsonl").read_text().splitlines()):
            obj = json.loads(line)
            obj["task_id"] = odd[i % len(odd)] + str(i)
            lines.append(json.dumps(obj) + "\n")
        renamed = tmp_path / "tasks.jsonl"
        renamed.write_text("".join(lines))
        out = tmp_path / "p.jsonl"
        assert cli.main(["match", "--embeddings", str(data / "general.jsonl"),
                         "--tasks", str(renamed), "--out", str(out)] + _cfg(workspace)) == 0
        view = load_embedding_set(data / "general.jsonl")
        best = evalkit.similarity_matcher(view).predict(tasks)
        want = "".join(
            json.dumps({"task_id": odd[i % len(odd)] + str(i), "response": f"Image {b + 1}"})
            + "\n" for i, b in enumerate(best)
        )
        assert out.read_bytes() == want.encode("utf-8")

    def test_pipeline_report_holds_the_sweep_once(self, workspace, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--out", str(out), "--threads", "1"]
                        + _cfg(workspace)) == 0
        report = json.loads((out / "report.json").read_text())

        def sweep_keys(node, path=()):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield from ([path + (key,)] if key == "sweep" else [])
                    yield from sweep_keys(value, path + (key,))

        assert list(sweep_keys(report)) == [("sweep",)]
        assert set(report["matching_accuracy"]) == {"expert", "fused", "general"}
        # report.txt, the fused report's table, still ends with the sweep
        text = (out / "report.txt").read_text()
        table = text[text.index("Difficulty sweep, accuracy (%) per tau"):].splitlines()
        taus = [f"{t:g}" for t in SMALL_CONFIG["taus"]]
        assert table[1].split() == ["matcher", *taus]
        for row, name in zip(table[2:], ("expert", "fused", "general")):
            cells = row.split()
            assert cells[0] == name
            assert cells[1:] == [f"{100 * report['sweep']['accuracies'][name][t]:.1f}"
                                 for t in taus]


    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_pipeline_report_against_its_own_artifacts(self, workspace, tmp_path, threads):
        # every matcher of report.json, rebuilt from the files the pipeline
        # wrote and scored by the sweep command's code path, gives the same
        # numbers, whichever process scored it
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--out", str(out), "--threads", threads]
                        + _cfg(workspace)) == 0
        report = json.loads((out / "report.json").read_text())
        general = load_embedding_set(out / "general.jsonl")
        expert_set = load_embedding_set(out / "expert.jsonl")
        token_maps = {t.image_id: t for t in load_token_maps(out / "token_maps.jsonl")}
        vectors = dict(zip(expert_set.image_ids, expert_set.matrix().astype(np.float64)))
        matchers = {
            "general": evalkit.similarity_matcher(general),
            "expert": evalkit.similarity_matcher(expert_set),
            "fused": evalkit.fused_matcher(checkpoint.load_adapter(out / "adapter.ckpt"),
                                           token_maps, vectors),
        }
        tier = dataengine.load_gallery_tasks(out / f"tasks_tau{SMALL_CONFIG['tau']:g}.jsonl")
        for name, matcher in matchers.items():
            best = matcher.predict(tier)
            log = evalkit.PredictionLog({t.task_id: b for t, b in zip(tier, best)})
            assert report["matching_accuracy"][name] == \
                evalkit.score_matching(tier, log).to_dict(), name
        test_side = dataengine.load_split(out / "split.json").test_instances
        tiers = evalkit.sweep_tasks(
            general, test_side, SMALL_CONFIG["taus"], k=SMALL_CONFIG["k"],
            n_tasks=SMALL_CONFIG["n_sweep_tasks"], seed=SMALL_CONFIG["seed"],
        )
        sweep = evalkit.SweepResult.of(evalkit.sweep_accuracies(tiers, matchers))
        assert report["sweep"] == sweep.to_dict()
        # and the sweep command, on the same files, writes the same sweep
        taus = [str(t) for t in SMALL_CONFIG["taus"]]
        assert cli.main(["sweep", "--embeddings", str(out / "general.jsonl"),
                         "--split", str(out / "split.json"),
                         "--expert-embeddings", str(out / "expert.jsonl"),
                         "--adapter", str(out / "adapter.ckpt"),
                         "--token-maps", str(out / "token_maps.jsonl"),
                         "--taus", *taus, "--k", str(SMALL_CONFIG["k"]),
                         "--n-tasks", str(SMALL_CONFIG["n_sweep_tasks"]),
                         "--out", str(tmp_path / "sweep")]
                        + _cfg(workspace)) == 0
        assert json.loads((tmp_path / "sweep" / "sweep.json").read_text()) == report["sweep"]
        assert report["recall_at_1"] == {
            name: synthgen.recall_at_1(view.subset(test_side))
            for name, view in (("general", general), ("expert", expert_set))
        }

def _command_argv(command: str, inputs: str, out: str) -> list[str]:
    """``command`` with every input flag given ``inputs`` and --out ``out``."""
    return {
        "synth": ["synth"],
        "split": ["split", "--embeddings", inputs],
        "build-galleries": ["build-galleries", "--embeddings", inputs, "--split", inputs],
        "build-detection": ["build-detection", "--embeddings", inputs, "--split", inputs],
        "emit": ["emit", "--tasks", inputs, "--stage", "match_mcq"],
        "train-expert": ["train-expert", "--embeddings", inputs],
        "embed": ["embed", "--checkpoint", inputs, "--embeddings", inputs],
        "train-adapter": ["train-adapter", "--tasks", inputs, "--token-maps", inputs,
                          "--expert-embeddings", inputs],
        "fuse": ["fuse", "--checkpoint", inputs, "--token-maps", inputs,
                 "--expert-embeddings", inputs, "--image-id", _FUSE_ID],
        "match": ["match", "--embeddings", inputs, "--tasks", inputs],
        "evaluate": ["evaluate", "--tasks", inputs, "--predictions", inputs],
        "sweep": ["sweep", "--embeddings", inputs, "--split", inputs],
        "pipeline": ["pipeline"],
    }[command] + ["--out", out]


_COMMANDS = ["synth", "split", "build-galleries", "build-detection", "emit", "train-expert",
             "embed", "train-adapter", "fuse", "match", "evaluate", "sweep", "pipeline"]
_DIRECTORY_OUTPUTS = {"synth", "evaluate", "sweep", "pipeline"}


def _assert_config_error(rc, capsys, *names):
    """Exit 2 with one JSON ConfigError line naming each of ``names``."""
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "ConfigError"
    for name in names:
        assert name in error["message"]


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"k": 1}))
        rc = cli.main(["synth", "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_k_below_two_is_2(self, workspace, tmp_path):
        data = workspace / "data"
        rc = cli.main(["build-galleries", "--embeddings", str(data / "general.jsonl"),
                       "--split", str(data / "split.json"), "--k", "1",
                       "--out", str(tmp_path / "t.jsonl")] + _cfg(workspace))
        assert rc == 2

    def test_threads_validation_is_2(self, workspace, tmp_path):
        rc = cli.main(["synth", "--out", str(tmp_path / "o"), "--threads", "0"]
                      + _cfg(workspace))
        assert rc == 2

    def test_data_error_is_3(self, workspace, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('{"image_id": "a"}\n')
        rc = cli.main(["split", "--embeddings", str(corrupt),
                       "--out", str(tmp_path / "s.json")] + _cfg(workspace))
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataValidationError"

    @pytest.mark.parametrize("command, section", [
        ("train-adapter", {"epochs": 1, "batch_size": 4, "step_size": 1e308}),
    ], ids=["adapter"])
    def test_a_diverging_trainer_writes_one_json_line(self, workspace, tmp_path, command,
                                                      section):
        # a child process: its stderr is what a user sees, warnings included
        data = workspace / "data"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "adapter": section}))
        inputs = ["--tasks", str(data / "tasks.jsonl"),
                  "--token-maps", str(data / "token_maps.jsonl"),
                  "--expert-embeddings", str(data / "expert.jsonl")]
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "ilrkit.cli", command, *inputs, "--config", str(config),
             "--out", str(out / "model.ckpt")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])])},
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "DivergenceError"
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("case, message", [
        ("one instance", "the expert fit needs >= 2 training instances"),
        ("equal images", "the expert fit needs training images that differ"),
    ])
    def test_degenerate_expert_fit_is_3(self, tmp_path, capsys, case, message):
        rng = np.random.default_rng(3)
        instances = "AAAA" if case == "one instance" else "AABB"
        save_embedding_set(embedstore.EmbeddingSet.from_records("raw", [
            embedstore.EmbeddingRecord(
                f"im{i}", inst, "object",
                rng.standard_normal(6) if case == "one instance" else np.ones(6))
            for i, inst in enumerate(instances)
        ]), tmp_path / "raw.jsonl")
        out = tmp_path / "out"
        rc = cli.main(["train-expert", "--embeddings", str(tmp_path / "raw.jsonl"),
                       "--out", str(out / "head.ckpt")])
        assert _assert_data_error(rc, capsys) == message
        assert not out.exists() or list(out.iterdir()) == []

    def test_retired_expert_fields_are_0(self, workspace, tmp_path, caplog):
        # expert.seed and expert.epochs, as perfbench's seeded_config writes
        # them: logged, and the checkpoint and its manifest entry are those
        # of the config without them
        data = workspace / "data"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {**SMALL_CONFIG, "expert": {**SMALL_CONFIG["expert"], "seed": 1, "epochs": 5}},
            indent=2, sort_keys=True))
        out = tmp_path / "out"
        assert cli.main(["train-expert", "--embeddings", str(data / "raw.jsonl"),
                         "--split", str(data / "split.json"), "--out", str(out / "expert_head.ckpt"),
                         "--config", str(config)]) == 0
        assert "expert.epochs has no effect" in caplog.text
        assert (out / "expert_head.ckpt").read_bytes() == (data / "expert_head.ckpt").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["expert_head.ckpt"] == json.loads(
            (data / "manifest.json").read_text())["expert_head.ckpt"]

    def test_repeated_sweep_taus_are_2(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--embeddings", str(data / "general.jsonl"),
                       "--split", str(data / "split.json"), "--taus", "0.5", "0.50",
                       "--out", str(out)] + _cfg(workspace))
        assert rc == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "ConfigError",
                         "message": "--taus must not repeat a threshold"}
        assert not out.exists()

    def test_repeated_config_taus_are_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "taus": [0.5, 0.5]}))
        rc = cli.main(["pipeline", "--out", str(tmp_path / "run"), "--config", str(config)])
        assert rc == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert "taus must not repeat a threshold" in error["message"]
        assert not (tmp_path / "run").exists()

    def test_config_from_the_environment_is_read_at_each_call(self, tmp_path, capsys,
                                                              monkeypatch):
        # the parser is built once per process; ILRKIT_CONFIG is read per call
        configs = {}
        for name, seed in (("a", 1), ("b", 2)):
            configs[name] = tmp_path / f"{name}.json"
            configs[name].write_text(json.dumps({**SMALL_CONFIG,
                                                 "synth": {**SMALL_CONFIG["synth"],
                                                           "seed": seed}}))
        manifests = []
        for name in ("a", "b"):
            monkeypatch.setenv("ILRKIT_CONFIG", str(configs[name]))
            out = tmp_path / f"out_{name}"
            assert cli.main(["synth", "--out", str(out), "--threads", "1"]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        assert [m["raw.jsonl"]["seed"] for m in manifests] == [1, 2]
        # --config wins over the environment
        monkeypatch.setenv("ILRKIT_CONFIG", str(tmp_path / "missing.json"))
        assert cli.main(["synth", "--out", str(tmp_path / "out_c"), "--threads", "1",
                         "--config", str(configs["a"])]) == 0
        assert cli.main(["synth", "--out", str(tmp_path / "out_d"), "--threads", "1"]) == 2
        assert "missing.json" in capsys.readouterr().err

    def test_missing_config_file_is_2(self, tmp_path):
        rc = cli.main(["synth", "--out", str(tmp_path / "o"),
                       "--config", str(tmp_path / "missing.json")])
        assert rc == 2

    def test_directory_config_is_2(self, tmp_path, capsys):
        rc = cli.main(["synth", "--out", str(tmp_path / "o"), "--config", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error = json.loads(err)
        assert error["error"] == "ConfigError" and str(tmp_path) in error["message"]

    @pytest.mark.parametrize("command, flags, named", [
        ("evaluate", ["--detection-tasks", "in"], "--detection-tasks"),
        ("evaluate", ["--detection-predictions", "in"], "--detection-predictions"),
        ("evaluate", ["--equal-weight"], "--equal-weight"),
        ("evaluate", ["--equal-weight", "--detection-predictions", "in"],
         "--detection-predictions"),
        ("sweep", ["--adapter", "in"], "--adapter"),
        ("sweep", ["--token-maps", "in"], "--token-maps"),
        ("sweep", ["--adapter", "in", "--expert-embeddings", "in"], "--adapter"),
        ("sweep", ["--token-maps", "in", "--expert-embeddings", "in"], "--token-maps"),
        ("sweep", ["--adapter", "in", "--token-maps", "in"], "--adapter"),
        ("emit", ["--captions", "in"], "--captions"),
        # a threshold flag is held to the config's rules for tau and taus
        ("sweep", ["--taus", "0.5"], "--taus must list at least 2 thresholds"),
        ("sweep", ["--taus", "0.5", "0.50"], "--taus must not repeat a threshold"),
        ("sweep", ["--taus", "1.5", "0.5"], "every threshold of --taus must lie in [0, 1)"),
        ("sweep", ["--taus", "0.2", "nan"], "every threshold of --taus must lie in [0, 1)"),
        ("build-galleries", ["--tau", "1.5"], "--tau must lie in [0, 1) for cosine similarity"),
        ("build-galleries", ["--tau", "-0.1"], "--tau must lie in [0, 1)"),
        ("build-detection", ["--tau", "1.0"], "--tau must lie in [0, 1) for cosine similarity"),
        ("build-detection", ["--tau", "nan"], "--tau must lie in [0, 1)"),
        # and a task count flag to the config's rule for task counts
        ("build-galleries", ["--n-tasks", "0"], "--n-tasks must be >= 1"),
        ("build-galleries", ["--n-tasks", "-3", "--per-category"], "--n-tasks must be >= 1"),
        ("build-detection", ["--n-tasks", "-1"], "--n-tasks must be >= 1"),
        ("sweep", ["--n-tasks", "0"], "--n-tasks must be >= 1"),
    ])
    def test_flag_that_would_do_nothing_is_2(self, workspace, tmp_path, capsys, command,
                                             flags, named):
        """Rejected before any input is read: every input here is missing.
        So is a threshold flag that the config's rules reject."""
        inputs, out = str(tmp_path / "in"), str(tmp_path / "out")
        argv = _command_argv(command, inputs, out) + [inputs if f == "in" else f for f in flags]
        _assert_config_error(cli.main(argv + _cfg(workspace)), capsys, named)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_seed_only_where_it_draws_something(self, tmp_path, command):
        """--seed is config.seed, which draws the split and the tasks; the
        other commands take their seeds from the config's sections."""
        argv = _command_argv(command, str(tmp_path / "in"), str(tmp_path / "out"))
        argv += ["--seed", "3"]
        if command in ("split", "build-galleries", "build-detection", "sweep", "pipeline"):
            assert cli.build_parser().parse_args(argv).seed == 3
        else:
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_threads_only_where_a_job_forks(self, tmp_path, command):
        """--threads runs the jobs of synth and pipeline in a worker; no
        other command has a job, so there the flag is an error."""
        argv = _command_argv(command, str(tmp_path / "in"), str(tmp_path / "out"))
        argv += ["--threads", "2"]
        if command in ("synth", "pipeline"):
            assert cli.build_parser().parse_args(argv).threads == 2
        else:
            err = io.StringIO()
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
                cli.main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads 2" in err.getvalue()
            assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("place", ["taken", "under a file"])
    @pytest.mark.parametrize("command", _COMMANDS)
    def test_output_path_of_the_wrong_kind_is_2(self, workspace, tmp_path, capsys, command,
                                                place):
        """An --out that is a directory where a file goes, a file where a
        directory goes, or under a file, is rejected before any input is
        read (every input here is missing), and nothing is written."""
        taken = tmp_path / "taken"
        if command in _DIRECTORY_OUTPUTS or place == "under a file":
            taken.write_text("kept")
        else:
            taken.mkdir()
        out = taken if place == "taken" else taken / "sub" / "out"
        argv = _command_argv(command, str(tmp_path / "in"), str(out))
        _assert_config_error(cli.main(argv + _cfg(workspace)), capsys, str(out))
        assert list(tmp_path.iterdir()) == [taken]
        if taken.is_file():
            assert taken.read_text() == "kept"
        else:
            assert list(taken.iterdir()) == []

    @pytest.mark.parametrize("n_tokens", [0, "a"])
    @pytest.mark.parametrize("command", ["synth", "split", "pipeline"])
    def test_invalid_synth_config_is_2(self, workspace, tmp_path, capsys, command, n_tokens):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"n_tokens": n_tokens}}))
        argv = {
            "synth": ["synth", "--out", str(tmp_path / "o")],
            "split": ["split", "--embeddings", str(workspace / "data" / "general.jsonl"),
                      "--out", str(tmp_path / "s.json")],
            "pipeline": ["pipeline", "--out", str(tmp_path / "o")],
        }[command]
        assert cli.main(argv + ["--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error = json.loads(err)
        assert error["error"] == "ConfigError" and "synth" in error["message"]
        assert not (tmp_path / "o").exists() and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("overrides, field", [
    ({"synth": {"n_tokens": 2.5}}, "synth.n_tokens"),
    ({"k": "x"}, "k"),
    ({"taus": 5}, "taus"),
    ({"seed": 1.5}, "seed"),
    ({"expert": {"d_out": 2.5}}, "expert.d_out"),
])
@pytest.mark.parametrize("command", ["synth", "split", "fuse", "train-expert"])
def test_mistyped_config_field_is_2(workspace, tmp_path, capsys, overrides, field, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMALL_CONFIG, **overrides)))
    data = workspace / "data"
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "o")],
        "split": ["split", "--embeddings", str(data / "general.jsonl"),
                  "--out", str(tmp_path / "s.json")],
        "fuse": ["fuse", "--checkpoint", str(tmp_path / "unused.ckpt"),
                 "--token-maps", str(data / "token_maps.jsonl"),
                 "--expert-embeddings", str(data / "expert.jsonl"), "--image-id", _FUSE_ID],
        "train-expert": ["train-expert", "--embeddings", str(data / "raw.jsonl"),
                         "--out", str(tmp_path / "s.json")],
    }[command]
    assert cli.main(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "ConfigError" and error["message"].startswith(f"{field} must be")
    assert not (tmp_path / "o").exists() and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("section, values, field, command", [
    ("adapter", {"batch_size": 0}, "adapter.batch_size", "train-adapter"),
    ("adapter", {"readout_temperature": 0.0}, "adapter.readout_temperature", "train-adapter"),
    ("expert", {"d_out": 0}, "expert.d_out", "train-expert"),
    ("adapter", {"step_size": 0.0}, "adapter.step_size", "train-adapter"),
    ("adapter", {"epochs": -1}, "adapter.epochs", "train-adapter"),
    ("synth", {"alpha": float("nan")}, "synth.alpha", "synth"),
    ("synth", {"sigma": float("inf")}, "synth.sigma", "synth"),
    (None, {"seed": -1}, "seed", "split"),
])
def test_out_of_range_config_is_2(workspace, tmp_path, capsys, section, values, field, command):
    config = dict(SMALL_CONFIG)
    if section:
        config[section] = dict(config[section], **values)
    else:
        config.update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    data = workspace / "data"
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "o")],
        "split": ["split", "--embeddings", str(data / "general.jsonl"),
                  "--out", str(tmp_path / "o" / "s.json")],
        "train-expert": ["train-expert", "--embeddings", str(data / "raw.jsonl"),
                         "--out", str(tmp_path / "o" / "e.ckpt")],
        "train-adapter": ["train-adapter", "--tasks", str(data / "tasks.jsonl"),
                          "--token-maps", str(data / "token_maps.jsonl"),
                          "--expert-embeddings", str(data / "expert.jsonl"),
                          "--out", str(tmp_path / "o" / "a.ckpt")],
    }[command]
    assert cli.main(argv + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "ConfigError" and f"{field} must be" in error["message"]
    assert not (tmp_path / "o").exists()


def _assert_data_error(rc, capsys):
    """Exit 3 with one JSON error line on stderr and no traceback; returns
    the error message."""
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "DataValidationError"
    return error["message"]


_ADAPTER_SHAPES = [[8, 8], [8], [8, 8], [8]]  # an 8-wide adapter


def _checkpoint(path, header, shapes):
    header = dict(header, params=shapes)
    blob = b""
    if isinstance(shapes, list):
        blob = b"".join(np.ones(int(np.prod(s)), "<f4").tobytes() for s in shapes)
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    return path


# Every reader of JSON text, the config last, and the faults each must turn
# into exit 3 (exit 2 for the config): bytes that are not UTF-8 (a valid
# file behind two bad bytes), nesting deeper than the parser's recursion
# limit, open or closed (orjson 3.8 crashes the process on a closed array
# this deep), and a top-level value that is not an object.
_JSON_READERS = [
    "embeddings", "token_maps", "tasks", "detection_tasks", "predictions", "captions",
    "split", "checkpoint", "manifest", "config",
]
_JSONL_READERS = {"embeddings", "token_maps", "tasks", "detection_tasks", "predictions",
                  "captions"}
_JSON_FAULTS = {
    "non_utf8": lambda valid: b"\xff\xfe" + valid,
    "deep": lambda valid: b"[" * 100_000 + b"\n",
    "deep_closed": lambda valid: b"[" * 300_000 + b"]" * 300_000 + b"\n",
    "wrong_kind": lambda valid: b"[1, 2]\n",
}


def _json_reader_run(workspace, tmp_path, reader):
    """(argv of a command that reads the file ``bad`` with ``reader``, ``bad``,
    the bytes of a valid such file, the output the command would write)."""
    data = workspace / "data"
    out = tmp_path / "out"
    bad = out / "manifest.json" if reader == "manifest" else tmp_path / "bad"
    files = {
        "embeddings": data / "general.jsonl", "token_maps": data / "token_maps.jsonl",
        "tasks": data / "tasks.jsonl", "predictions": data / "preds.jsonl",
        "split": data / "split.json", "checkpoint": data / "expert_head.ckpt",
        "manifest": data / "manifest.json",
    }
    if reader in files:
        valid = files[reader].read_bytes()
    elif reader == "captions":
        queries = dict.fromkeys(t.query_id for t in dataengine.load_gallery_tasks(
            data / "tasks.jsonl"))  # one caption per query: a repeat is rejected
        valid = "".join(
            json.dumps({"query_id": q, "caption": "[SUBJECT] here"}) + "\n" for q in queries
        ).encode()
    elif reader == "config":
        valid = json.dumps(SMALL_CONFIG).encode()
    elif reader == "detection_tasks":
        tasks = dataengine.build_detection_tasks(
            load_embedding_set(data / "general.jsonl"),
            dataengine.load_split(data / "split.json").test_instances,
            tau=0.3, n_tasks=4, seed=0,
        )
        valid = b"".join(json.dumps(vars(t)).encode() + b"\n" for t in tasks)
        (tmp_path / "det_preds.jsonl").write_text("".join(
            json.dumps({"task_id": t.task_id, "response": "yes"}) + "\n" for t in tasks
        ))
    argv = {
        "embeddings": ["split", "--embeddings", str(bad), "--out", str(out / "s.json")],
        "token_maps": ["train-adapter", "--tasks", str(data / "tasks.jsonl"),
                       "--token-maps", str(bad),
                       "--expert-embeddings", str(data / "expert.jsonl"),
                       "--out", str(out / "adapter.ckpt")],
        "tasks": ["match", "--embeddings", str(data / "general.jsonl"),
                  "--tasks", str(bad), "--out", str(out / "p.jsonl")],
        "detection_tasks": ["evaluate", "--tasks", str(data / "tasks.jsonl"),
                            "--predictions", str(data / "preds.jsonl"),
                            "--detection-tasks", str(bad),
                            "--detection-predictions", str(tmp_path / "det_preds.jsonl"),
                            "--out", str(out)],
        "predictions": ["evaluate", "--tasks", str(data / "tasks.jsonl"),
                        "--predictions", str(bad), "--out", str(out)],
        "captions": ["emit", "--tasks", str(data / "tasks.jsonl"), "--stage", "caption",
                     "--captions", str(bad), "--out", str(out / "conv.jsonl")],
        "split": ["build-galleries", "--embeddings", str(data / "general.jsonl"),
                  "--split", str(bad), "--k", "3", "--out", str(out / "t.jsonl")],
        "checkpoint": ["embed", "--checkpoint", str(bad),
                       "--embeddings", str(data / "raw.jsonl"), "--out", str(out / "e.jsonl")],
        "manifest": ["split", "--embeddings", str(data / "general.jsonl"),
                     "--out", str(out / "s.json")],
        "config": ["synth", "--out", str(out), "--config", str(bad)],
    }[reader]
    return argv + ([] if reader == "config" else _cfg(workspace)), bad, valid, out


def _check_json_fault(workspace, tmp_path, capsys, reader, fault):
    """``reader`` given a file with ``fault`` ends in its exit code with one
    JSON error line naming the file (and the line, in a JSONL file), no
    traceback, nothing promoted and no worker left. The same command given
    the valid file succeeds, so the fault is what it rejects."""
    argv, bad, valid, out = _json_reader_run(workspace, tmp_path, reader)

    def run(text: bytes) -> int:
        if out.exists():
            shutil.rmtree(out)
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(text)
        return cli.main(argv)

    assert run(valid) == 0
    capsys.readouterr()
    broken = _JSON_FAULTS[fault](valid)
    rc = run(broken)
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    error = json.loads(err)
    if reader == "config":
        assert rc == 2 and error["error"] == "ConfigError"
    else:
        assert rc == 3 and error["error"] == "DataValidationError"
    assert str(bad) in error["message"]
    if reader in _JSONL_READERS and fault != "non_utf8":
        assert f"{bad}: line 1: " in error["message"]
    if fault.startswith("deep"):
        assert "recursion" in error["message"]
    if reader == "manifest":
        assert list(out.iterdir()) == [bad] and bad.read_bytes() == broken
    else:
        assert not out.exists()
    _assert_no_child_left()


class TestMalformedInputs:
    @pytest.mark.parametrize("header, shapes", [
        ({"kind": "fusion_adapter", "temperature": 1.0}, [[8, 8], [8], [8, 8]]),
        ({"kind": "fusion_adapter", "temperature": 1.0}, [[8], [8], [8, 8], [8]]),
        ({"kind": "fusion_adapter"}, [[8, 8], [8], [8, 8], [8]]),
        ({"kind": "fusion_adapter", "temperature": "hot"}, [[8, 8], [8], [8, 8], [8]]),
        ({"kind": "fusion_adapter", "temperature": 1.0}, "not a list"),
    ])
    def test_malformed_adapter_checkpoint_is_3(self, workspace, tmp_path, capsys,
                                               header, shapes):
        data = workspace / "data"
        ckpt = _checkpoint(tmp_path / "adapter.ckpt", header, shapes)
        some_id = load_embedding_set(data / "general.jsonl").image_ids[0]
        rc = cli.main(["fuse", "--checkpoint", str(ckpt),
                       "--token-maps", str(data / "token_maps.jsonl"),
                       "--expert-embeddings", str(data / "expert.jsonl"),
                       "--image-id", some_id] + _cfg(workspace))
        _assert_data_error(rc, capsys)

    @pytest.mark.parametrize("header, shapes", [
        ({"kind": "expert_head"}, [[24, 8]]),
        # a bias that does not match the weights' width
        ({"kind": "expert_head"}, [[24, 8], [9]]),
        # a head of one output dimension
        ({"kind": "expert_head"}, [[24, 1], [1]]),
        # a head for 12-d raw vectors, applied to the 24-d raw view
        ({"kind": "expert_head"}, [[12, 8], [8]]),
        # a shape whose element count overflows int64
        ({"kind": "expert_head"}, [[2**32, 2**32], [8]]),
    ])
    def test_malformed_expert_checkpoint_is_3(self, workspace, tmp_path, capsys,
                                              header, shapes):
        ckpt = _checkpoint(tmp_path / "head.ckpt", header, shapes)
        rc = cli.main(["embed", "--checkpoint", str(ckpt),
                       "--embeddings", str(workspace / "data" / "raw.jsonl"),
                       "--out", str(tmp_path / "e.jsonl")] + _cfg(workspace))
        _assert_data_error(rc, capsys)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**401, -(10**401)],
                             ids=["NaN", "Infinity", "-Infinity", "huge", "-huge"])
    @pytest.mark.parametrize("field", ["temperature"])
    def test_non_finite_checkpoint_scalar_is_rejected(self, tmp_path, field, value):
        header = {"kind": "fusion_adapter", "temperature": value}
        ckpt = _checkpoint(tmp_path / "x.ckpt", header, _ADAPTER_SHAPES)
        with pytest.raises(DataValidationError, match=f"{field} must be a finite number"):
            checkpoint.load_adapter(ckpt)

    def test_non_finite_adapter_temperature_is_3(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        ckpt = _checkpoint(tmp_path / "adapter.ckpt",
                           {"kind": "fusion_adapter", "temperature": math.nan}, _ADAPTER_SHAPES)
        some_id = load_embedding_set(data / "general.jsonl").image_ids[0]
        rc = cli.main(["fuse", "--checkpoint", str(ckpt),
                       "--token-maps", str(data / "token_maps.jsonl"),
                       "--expert-embeddings", str(data / "expert.jsonl"),
                       "--image-id", some_id] + _cfg(workspace))
        assert "temperature must be a finite number" in _assert_data_error(rc, capsys)

    def test_checkpoint_header_not_object_is_3(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "head.ckpt"
        ckpt.write_bytes(b"[1, 2]\n")
        rc = cli.main(["embed", "--checkpoint", str(ckpt),
                       "--embeddings", str(workspace / "data" / "raw.jsonl"),
                       "--out", str(tmp_path / "e.jsonl")] + _cfg(workspace))
        _assert_data_error(rc, capsys)

    @pytest.mark.parametrize("text", [
        "not json", "[1, 2]", '{"train_instances": []}',
        '{"train_instances": [1], "test_instances": []}',
    ])
    def test_malformed_split_is_3(self, workspace, tmp_path, capsys, text):
        split = tmp_path / "split.json"
        split.write_text(text)
        rc = cli.main(["build-galleries",
                       "--embeddings", str(workspace / "data" / "general.jsonl"),
                       "--split", str(split), "--k", "3",
                       "--out", str(tmp_path / "t.jsonl")] + _cfg(workspace))
        _assert_data_error(rc, capsys)

    @pytest.mark.parametrize("line", [
        "[1, 2]", '"Image 1"', '{"task_id": ["t0"], "response": "Image 1"}',
    ])
    def test_malformed_prediction_line_is_3(self, workspace, tmp_path, capsys, line):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(line + "\n")
        rc = cli.main(["evaluate", "--tasks", str(workspace / "data" / "tasks.jsonl"),
                       "--predictions", str(preds),
                       "--out", str(tmp_path / "eval")] + _cfg(workspace))
        _assert_data_error(rc, capsys)

    def test_non_text_response_is_3(self, workspace, tmp_path, capsys):
        tasks = workspace / "data" / "tasks.jsonl"
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"task_id": t.task_id, "response": [1]}) + "\n"
            for t in dataengine.load_gallery_tasks(tasks)
        ))
        rc = cli.main(["evaluate", "--tasks", str(workspace / "data" / "tasks.jsonl"),
                       "--predictions", str(preds),
                       "--out", str(tmp_path / "eval")] + _cfg(workspace))
        _assert_data_error(rc, capsys)

    def test_boolean_response_is_a_parse_failure(self, workspace, tmp_path):
        # a detection log answers true or false; a gallery task counts either
        # as unparsed, not as "Image 2" or "Image 1"
        tasks = dataengine.load_gallery_tasks(workspace / "data" / "tasks.jsonl")
        assert {t.answer_index for t in tasks} & {0, 1}
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"task_id": t.task_id, "response": t.answer_index == 1}) + "\n"
            for t in tasks
        ))
        assert cli.main(["evaluate", "--tasks", str(workspace / "data" / "tasks.jsonl"),
                         "--predictions", str(preds),
                         "--out", str(tmp_path / "eval")] + _cfg(workspace)) == 0
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["average"] == 0.0
        assert sum(c["parse_failures"] for c in report["per_category"].values()) == len(tasks)

    def test_unknown_image_id_in_match_is_3(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        tasks = dataengine.load_gallery_tasks(data / "tasks.jsonl")
        tasks[0] = dataclasses.replace(tasks[0], gallery_ids=("nope",) + tasks[0].gallery_ids[1:])
        bad = tmp_path / "tasks.jsonl"
        dataengine.save_jsonl(tasks, bad)
        rc = cli.main(["match", "--embeddings", str(data / "general.jsonl"),
                       "--tasks", str(bad), "--out", str(tmp_path / "p.jsonl")]
                      + _cfg(workspace))
        assert rc == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        message = json.loads(err)["message"]
        assert tasks[0].task_id in message and "'nope'" in message

    def test_image_missing_from_fused_view_is_3(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        split = dataengine.load_split(data / "split.json")
        # the query of the first task the sweep builds at its first tau
        missing = dataengine.build_gallery_tasks(
            load_embedding_set(data / "general.jsonl"), split.test_instances,
            k=3, tau=0.1, n_tasks=20, seed=SMALL_CONFIG["seed"],
        )[0].query_id
        maps = tmp_path / "token_maps.jsonl"
        maps.write_text("".join(
            line for line in (data / "token_maps.jsonl").read_text().splitlines(True)
            if json.loads(line)["image_id"] != missing
        ))
        adapter = tmp_path / "adapter.ckpt"
        checkpoint.save_adapter(reference.init_adapter(8, 8, seed=0), adapter)
        rc = cli.main(["sweep", "--embeddings", str(data / "general.jsonl"),
                       "--split", str(data / "split.json"),
                       "--expert-embeddings", str(data / "expert.jsonl"),
                       "--adapter", str(adapter), "--token-maps", str(maps),
                       "--taus", "0.1", "0.4", "--k", "3", "--n-tasks", "20",
                       "--out", str(tmp_path / "sweep")] + _cfg(workspace))
        assert repr(missing) in _assert_data_error(rc, capsys)
        assert not (tmp_path / "sweep").exists()

    def test_image_missing_from_expert_set_in_fuse_is_3(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        expert_set = load_embedding_set(data / "expert.jsonl")
        missing = expert_set.image_ids[0]
        partial = tmp_path / "expert.jsonl"
        save_embedding_set(expert_set.from_records("expert", expert_set.records[1:]), partial)
        adapter = tmp_path / "adapter.ckpt"
        checkpoint.save_adapter(reference.init_adapter(8, 8, seed=0), adapter)
        rc = cli.main(["fuse", "--checkpoint", str(adapter),
                       "--token-maps", str(data / "token_maps.jsonl"),
                       "--expert-embeddings", str(partial), "--image-id", missing]
                      + _cfg(workspace))
        assert repr(missing) in _assert_data_error(rc, capsys)

    @staticmethod
    def _fuse(workspace, tmp_path, token_maps=None, expert=None):
        """Exit code of ``fuse`` on the workspace files, or on the damaged
        copies given; writes tmp_path/fused.json."""
        data = workspace / "data"
        adapter = tmp_path / "adapter.ckpt"
        checkpoint.save_adapter(reference.init_adapter(8, 8, seed=0), adapter)
        return cli.main(["fuse", "--checkpoint", str(adapter),
                         "--token-maps", str(token_maps or data / "token_maps.jsonl"),
                         "--expert-embeddings", str(expert or data / "expert.jsonl"),
                         "--image-id", _FUSE_ID, "--out", str(tmp_path / "fused.json")]
                        + _cfg(workspace))

    @staticmethod
    def _damaged_copy(workspace, tmp_path, name, image_id, line):
        """``name`` from the workspace with the line of ``image_id`` replaced."""
        lines = (workspace / "data" / name).read_text().splitlines(keepends=True)
        copy = tmp_path / name
        copy.write_text("".join(
            line if json.loads(old)["image_id"] == image_id else old for old in lines
        ))
        return copy

    @pytest.mark.parametrize("name", ["token_maps.jsonl", "expert.jsonl"])
    @pytest.mark.parametrize("damage", ["malformed", "nan"])
    def test_damaged_target_line_in_fuse_is_3(self, workspace, tmp_path, capsys, name, damage):
        key = "tokens" if name == "token_maps.jsonl" else "vector"
        line = {
            "malformed": f'{{"image_id": "{_FUSE_ID}", "{key}": [\n',
            "nan": f'{{"image_id": "{_FUSE_ID}", "instance_id": "i", "category": "c", '
                   f'"{key}": {"[[NaN, 1.0]]" if key == "tokens" else "[NaN, 1.0]"}}}\n',
        }[damage]
        bad = self._damaged_copy(workspace, tmp_path, name, _FUSE_ID, line)
        argv = {"token_maps": bad} if name == "token_maps.jsonl" else {"expert": bad}
        message = _assert_data_error(self._fuse(workspace, tmp_path, **argv), capsys)
        assert ("non-finite" if damage == "nan" else f"{bad}: line") in message
        assert not (tmp_path / "fused.json").exists()

    @pytest.mark.parametrize("name", ["token_maps.jsonl", "expert.jsonl"])
    def test_duplicated_target_in_fuse_is_3(self, workspace, tmp_path, capsys, name):
        copy = tmp_path / name
        text = (workspace / "data" / name).read_text()
        target = next(line for line in text.splitlines(True) if f'"{_FUSE_ID}"' in line)
        copy.write_text(text + target)
        argv = {"token_maps": copy} if name == "token_maps.jsonl" else {"expert": copy}
        message = _assert_data_error(self._fuse(workspace, tmp_path, **argv), capsys)
        assert f"duplicate image_id {_FUSE_ID!r}" in message

    def test_other_malformed_lines_do_not_stop_fuse(self, workspace, tmp_path, capsys):
        # fuse validates only the records it reads; a full load still rejects the files
        assert self._fuse(workspace, tmp_path) == 0
        clean = (tmp_path / "fused.json").read_bytes()
        other = load_embedding_set(workspace / "data" / "expert.jsonl").image_ids[-1]
        maps = self._damaged_copy(workspace, tmp_path, "token_maps.jsonl", other, "not json\n")
        expert = self._damaged_copy(workspace, tmp_path, "expert.jsonl", other, "[1, 2]\n")
        (tmp_path / "fused.json").unlink()
        assert self._fuse(workspace, tmp_path, token_maps=maps, expert=expert) == 0
        assert (tmp_path / "fused.json").read_bytes() == clean
        with pytest.raises(DataValidationError):
            load_token_maps(maps)
        with pytest.raises(DataValidationError):
            load_embedding_set(expert)

    def test_fuse_parses_only_lines_that_may_hold_the_id(self, workspace, tmp_path,
                                                         monkeypatch):
        parsed = []
        decode = embedstore._orjson_value

        def spy(text):
            parsed.append(text)
            return decode(text)

        # every JSONL line embedstore reads goes to _orjson_value first
        monkeypatch.setattr(embedstore, "_orjson_value", spy)
        assert self._fuse(workspace, tmp_path) == 0
        data = workspace / "data"
        for name in ("token_maps.jsonl", "expert.jsonl"):
            lines = (data / name).read_text().splitlines(keepends=True)
            may_hold = [line for line in lines if f'"{_FUSE_ID}"' in line or "\\" in line]
            assert len(may_hold) == 1 < len(lines)
            assert [line for line in parsed if line in lines] == may_hold

    @pytest.mark.parametrize("line", [
        "not json",
        '{"caption": "[SUBJECT] here"}',
        '{"query_id": "q"}',
        '{"query_id": 1, "caption": "[SUBJECT] here"}',
        '{"query_id": "q", "caption": ["[SUBJECT] here"]}',
    ])
    def test_malformed_captions_line_is_3(self, workspace, tmp_path, capsys, line):
        captions = tmp_path / "captions.jsonl"
        captions.write_text(line + "\n")
        rc = cli.main(["emit", "--tasks", str(workspace / "data" / "tasks.jsonl"),
                       "--stage", "caption", "--captions", str(captions),
                       "--out", str(tmp_path / "conv.jsonl")] + _cfg(workspace))
        _assert_data_error(rc, capsys)

    def test_duplicate_prediction_task_id_is_3(self, workspace, tmp_path, capsys):
        # a blank line before the repeat: the line number counts it; a
        # malformed line after the repeat does not hide it
        lines = (workspace / "data" / "preds.jsonl").read_text().splitlines()
        repeat = json.loads(lines[0])
        first = repeat["task_id"]
        repeat["response"] = "Image 2"
        preds = tmp_path / "preds.jsonl"
        out = tmp_path / "eval"
        for after in ([], ['{"task_id": 5, "response": "Image 1"}']):
            preds.write_text("\n".join([*lines, "", json.dumps(repeat), *after]) + "\n")
            rc = cli.main(["evaluate", "--tasks", str(workspace / "data" / "tasks.jsonl"),
                           "--predictions", str(preds), "--out", str(out)] + _cfg(workspace))
            message = _assert_data_error(rc, capsys)
            assert message == f"{preds}: line {len(lines) + 2}: duplicate task_id {first!r}"
            assert not out.exists()

    def test_duplicate_caption_query_id_is_3(self, workspace, tmp_path, capsys):
        tasks = dataengine.load_gallery_tasks(workspace / "data" / "tasks.jsonl")
        queries = list(dict.fromkeys(t.query_id for t in tasks))
        lines = [json.dumps({"query_id": q, "caption": "[SUBJECT] here"}) for q in queries]
        lines.insert(2, json.dumps({"query_id": queries[0], "caption": "[SUBJECT] again"}))
        captions = tmp_path / "captions.jsonl"
        captions.write_text("\n".join(lines) + "\n")
        rc = cli.main(["emit", "--tasks", str(workspace / "data" / "tasks.jsonl"),
                       "--stage", "caption", "--captions", str(captions),
                       "--out", str(tmp_path / "conv.jsonl")] + _cfg(workspace))
        message = _assert_data_error(rc, capsys)
        assert message == f"{captions}: line 3: duplicate query_id {queries[0]!r}"
        assert not (tmp_path / "conv.jsonl").exists()

    def _run_on_tasks(self, workspace, tmp_path, command, lines):
        """``match`` or ``evaluate`` on a tasks file of ``lines``; nothing may
        be written."""
        data = workspace / "data"
        tasks = tmp_path / "tasks.jsonl"
        tasks.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        argv = {
            "match": ["match", "--embeddings", str(data / "general.jsonl"),
                      "--tasks", str(tasks), "--out", str(out / "p.jsonl")],
            "evaluate": ["evaluate", "--tasks", str(tasks),
                         "--predictions", str(data / "preds.jsonl"), "--out", str(out)],
        }[command]
        rc = cli.main(argv + _cfg(workspace))
        assert not out.exists() or list(out.iterdir()) == []
        return rc

    @pytest.mark.parametrize("field, value", [
        ("answer_index", "1"), ("answer_index", 9), ("answer_index", -1),
        ("answer_index", True), ("gallery_ids", ["only"]), ("gallery_ids", "abc"),
        ("gallery_ids", [1, 2, 3]), ("task_id", 5), ("category", None),
        ("query_id", ["q"]), ("tau", "0.3"), ("tau", True), ("relaxed", 0), ("seed", 1.5),
    ])
    @pytest.mark.parametrize("command", ["match", "evaluate"])
    def test_malformed_gallery_task_is_3(self, workspace, tmp_path, capsys, command,
                                         field, value):
        lines = (workspace / "data" / "tasks.jsonl").read_text().splitlines()
        task = json.loads(lines[1])
        task[field] = value
        lines[1] = json.dumps(task)
        rc = self._run_on_tasks(workspace, tmp_path, command, lines)
        message = _assert_data_error(rc, capsys)
        assert ": line 2: " in message and f"{field} must be" in message

    @pytest.mark.parametrize("command", ["match", "evaluate"])
    def test_duplicate_task_id_is_3(self, workspace, tmp_path, capsys, command):
        lines = (workspace / "data" / "tasks.jsonl").read_text().splitlines()
        first = json.loads(lines[0])["task_id"]
        task = json.loads(lines[2])
        task["task_id"] = first
        lines[2] = json.dumps(task)
        rc = self._run_on_tasks(workspace, tmp_path, command, lines)
        message = _assert_data_error(rc, capsys)
        assert message.endswith(f": line 3: duplicate task_id {first!r}")

    @pytest.mark.parametrize("damage", ["repeat", "query"])
    @pytest.mark.parametrize("command", ["match", "evaluate"])
    def test_gallery_repeating_an_image_is_3(self, workspace, tmp_path, capsys, command,
                                             damage):
        # two copies of one image can score differently, so either may answer
        lines = (workspace / "data" / "tasks.jsonl").read_text().splitlines()
        task = json.loads(lines[2])
        answer = task["gallery_ids"][task["answer_index"]]
        other = (task["answer_index"] + 1) % len(task["gallery_ids"])
        task["gallery_ids"][other] = answer if damage == "repeat" else task["query_id"]
        lines[2] = json.dumps(task)
        message = _assert_data_error(self._run_on_tasks(workspace, tmp_path, command, lines),
                                     capsys)
        expected = "must not repeat an image" if damage == "repeat" else "must not hold the query"
        assert ": line 3: gallery_ids " + expected in message

    @pytest.mark.parametrize("target", [*_JSON_READERS[:-1], "bin_strings"])
    def test_non_utf8_input_is_3(self, workspace, tmp_path, capsys, target):
        if target != "bin_strings":
            _check_json_fault(workspace, tmp_path, capsys, target, "non_utf8")
            return
        data = workspace / "data"
        bad = tmp_path / "bad"
        save_embedding_set(load_embedding_set(data / "general.jsonl"), bad, "bin")
        blob = bytearray(bad.read_bytes())
        blob[16:18] = b"\xff\xfe"  # the first two bytes of the first image_id
        bad.write_bytes(bytes(blob))
        rc = cli.main(["split", "--embeddings", str(bad), "--format", "bin",
                       "--out", str(tmp_path / "s.json")] + _cfg(workspace))
        _assert_data_error(rc, capsys)

    @pytest.mark.parametrize("reader", ["jsonl", "bin", "checkpoint", "split"])
    def test_missing_input_file_is_3(self, workspace, tmp_path, capsys, reader):
        data = workspace / "data"
        missing = str(tmp_path / "nope")
        argv = {
            "jsonl": ["evaluate", "--tasks", str(data / "tasks.jsonl"),
                      "--predictions", missing, "--out", str(tmp_path / "eval")],
            "bin": ["split", "--embeddings", missing, "--format", "bin",
                    "--out", str(tmp_path / "s.json")],
            "checkpoint": ["embed", "--checkpoint", missing,
                           "--embeddings", str(data / "raw.jsonl"),
                           "--out", str(tmp_path / "e.jsonl")],
            "split": ["build-galleries", "--embeddings", str(data / "general.jsonl"),
                      "--split", missing, "--k", "3", "--out", str(tmp_path / "t.jsonl")],
        }[reader]
        message = _assert_data_error(cli.main(argv + _cfg(workspace)), capsys)
        assert missing in message

    @pytest.mark.parametrize("fmt", ["jsonl", "bin"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_vector_is_3(self, workspace, tmp_path, capsys, fmt, value):
        general = load_embedding_set(workspace / "data" / "general.jsonl")
        bad = tmp_path / "bad"
        save_embedding_set(general, bad, fmt)
        blob = bad.read_bytes()
        if fmt == "jsonl":
            lines = blob.decode().splitlines(keepends=True)
            record = json.loads(lines[-1])
            record["vector"][-1] = value
            blob = "".join(lines[:-1]).encode() + json.dumps(record).encode() + b"\n"
        else:  # an EMB1 file ends with the last float of the last record
            blob = blob[:-4] + np.float32(value).tobytes()
        bad.write_bytes(blob)
        rc = cli.main(["split", "--embeddings", str(bad), "--format", fmt,
                       "--out", str(tmp_path / "s.json")] + _cfg(workspace))
        message = _assert_data_error(rc, capsys)
        assert "non-finite" in message

    def _evaluate_detection(self, workspace, tmp_path, lines):
        """``evaluate`` with a detection-task file of ``lines``; nothing may be
        written."""
        data = workspace / "data"
        det = tmp_path / "det.jsonl"
        det.write_text("".join(line + "\n" for line in lines))
        preds = tmp_path / "det_preds.jsonl"
        preds.write_text("".join(
            json.dumps({"task_id": json.loads(line)["task_id"], "response": "yes"}) + "\n"
            for line in lines
            if isinstance(json.loads(line)["task_id"], str)
        ))
        out = tmp_path / "eval"
        rc = cli.main(["evaluate", "--tasks", str(data / "tasks.jsonl"),
                       "--predictions", str(data / "preds.jsonl"),
                       "--detection-tasks", str(det), "--detection-predictions", str(preds),
                       "--out", str(out)] + _cfg(workspace))
        assert not out.exists() or list(out.iterdir()) == []
        return rc

    def _detection_lines(self, workspace, tmp_path):
        det = tmp_path / "built.jsonl"
        data = workspace / "data"
        assert cli.main(["build-detection", "--embeddings", str(data / "general.jsonl"),
                         "--split", str(data / "split.json"), "--n-tasks", "10",
                         "--out", str(det)] + _cfg(workspace)) == 0
        return det.read_text().splitlines()

    @pytest.mark.parametrize("field, value", [
        ("is_match", "false"), ("is_match", 0), ("is_match", None), ("task_id", 5),
        ("category", None), ("query_id", ["q"]), ("gallery_id", 3), ("tau", "0.3"),
        ("tau", True), ("seed", 1.5), ("seed", False),
    ])
    def test_malformed_detection_task_is_3(self, workspace, tmp_path, capsys, field, value):
        lines = self._detection_lines(workspace, tmp_path)
        task = json.loads(lines[1])
        task[field] = value
        lines[1] = json.dumps(task)
        message = _assert_data_error(self._evaluate_detection(workspace, tmp_path, lines), capsys)
        assert ": line 2: " in message and f"{field} must be" in message

    def test_string_is_match_everywhere_is_3(self, workspace, tmp_path, capsys):
        # a truthy string made every task a positive one, with exit 0
        lines = [
            json.dumps(dict(json.loads(line), is_match="false"))
            for line in self._detection_lines(workspace, tmp_path)
        ]
        message = _assert_data_error(self._evaluate_detection(workspace, tmp_path, lines), capsys)
        assert ": line 1: is_match must be of type bool, got 'false'" in message

    def test_duplicate_detection_task_id_is_3(self, workspace, tmp_path, capsys):
        lines = self._detection_lines(workspace, tmp_path)
        first = json.loads(lines[0])["task_id"]
        lines[3] = json.dumps(dict(json.loads(lines[3]), task_id=first))
        message = _assert_data_error(self._evaluate_detection(workspace, tmp_path, lines), capsys)
        assert message.endswith(f": line 4: duplicate task_id {first!r}")

    @pytest.mark.parametrize("target", ["embeddings", "token_maps"])
    @pytest.mark.parametrize("value", ["-0.36", True, False, None, [0.5]])
    def test_non_number_component_is_3(self, workspace, tmp_path, capsys, target, value):
        data = workspace / "data"
        name, key = {"embeddings": ("general.jsonl", "vector"),
                     "token_maps": ("token_maps.jsonl", "tokens")}[target]
        lines = (data / name).read_text().splitlines()
        obj = json.loads(lines[2])
        if key == "vector":
            obj[key][1] = value
        else:
            obj[key][1][1] = value
        lines[2] = json.dumps(obj)
        bad = tmp_path / name
        bad.write_text("".join(line + "\n" for line in lines))
        argv = {
            "embeddings": ["split", "--embeddings", str(bad), "--out", str(tmp_path / "s.json")],
            "token_maps": ["train-adapter", "--tasks", str(data / "tasks.jsonl"),
                           "--token-maps", str(bad),
                           "--expert-embeddings", str(data / "expert.jsonl"),
                           "--out", str(tmp_path / "adapter.ckpt")],
        }[target]
        message = _assert_data_error(cli.main(argv + _cfg(workspace)), capsys)
        assert ": line 3: " in message
        if not isinstance(value, list):  # a nested list fails on the array's shape
            assert f"{key} components must be numbers" in message
        assert not (tmp_path / "s.json").exists() and not (tmp_path / "adapter.ckpt").exists()

    @pytest.mark.parametrize("target", ["embeddings", "token_maps"])
    @pytest.mark.parametrize("value, expected", [
        (10 ** 400, ": line 2: malformed"), (1e39, "non-finite"), (-(10 ** 39), "non-finite"),
    ], ids=["int_beyond_float64", "float_beyond_float32", "int_beyond_float32"])
    def test_component_beyond_float_range_is_3(self, workspace, tmp_path, capsys, target,
                                               value, expected):
        # an integer beyond float64 was an OverflowError traceback, and a
        # number beyond float32 printed numpy's overflow warning
        data = workspace / "data"
        name, key = {"embeddings": ("general.jsonl", "vector"),
                     "token_maps": ("token_maps.jsonl", "tokens")}[target]
        lines = (data / name).read_text().splitlines()
        obj = json.loads(lines[1])
        if key == "vector":
            obj[key][0] = value
        else:
            obj[key][0][1] = value
        lines[1] = json.dumps(obj)
        bad = tmp_path / name
        bad.write_text("".join(line + "\n" for line in lines))
        argv = {
            "embeddings": ["split", "--embeddings", str(bad), "--out", str(tmp_path / "s.json")],
            "token_maps": ["train-adapter", "--tasks", str(data / "tasks.jsonl"),
                           "--token-maps", str(bad),
                           "--expert-embeddings", str(data / "expert.jsonl"),
                           "--out", str(tmp_path / "adapter.ckpt")],
        }[target]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(argv + _cfg(workspace))
        assert expected in _assert_data_error(rc, capsys)

    def test_all_string_vector_is_3(self, workspace, tmp_path, capsys):
        lines = (workspace / "data" / "general.jsonl").read_text().splitlines()
        obj = json.loads(lines[0])
        obj["vector"] = [repr(x) for x in obj["vector"]]
        bad = tmp_path / "general.jsonl"
        bad.write_text("".join(line + "\n" for line in [json.dumps(obj), *lines[1:]]))
        rc = cli.main(["split", "--embeddings", str(bad), "--out", str(tmp_path / "s.json")]
                      + _cfg(workspace))
        assert ": line 1: " in _assert_data_error(rc, capsys)

    def test_true_in_an_id_does_not_reject_numbers(self, workspace, tmp_path):
        # a line whose text holds "true" outside its vector loads as before
        general = load_embedding_set(workspace / "data" / "general.jsonl")
        renamed = embedstore.EmbeddingSet.from_records("general", [
            embedstore.EmbeddingRecord(f"true_false_{r.image_id}", r.instance_id, r.category,
                                       r.vector)
            for r in general.records
        ])
        path = tmp_path / "general.jsonl"
        save_embedding_set(renamed, path)
        loaded = load_embedding_set(path)
        assert np.array_equal(loaded.matrix(), general.matrix())

    @pytest.mark.parametrize("text", ["not json"])
    def test_corrupt_manifest_is_3(self, workspace, tmp_path, capsys, text):
        out = tmp_path / "d"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        rc = cli.main(["synth", "--out", str(out)] + _cfg(workspace))
        assert "manifest" in _assert_data_error(rc, capsys)
        # the stage is discarded, nothing is promoted, the manifest is untouched
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == text
        _assert_no_child_left()

    @pytest.mark.parametrize("reader", _JSON_READERS[:-1])
    def test_deeply_nested_json_is_3(self, workspace, tmp_path, capsys, reader):
        _check_json_fault(workspace, tmp_path, capsys, reader, "deep")

    @pytest.mark.parametrize("reader", _JSON_READERS)
    def test_deeply_nested_closed_json_is_rejected(self, workspace, tmp_path, capsys, reader):
        _check_json_fault(workspace, tmp_path, capsys, reader, "deep_closed")

    def test_deeply_nested_config_is_2(self, workspace, tmp_path, capsys):
        _check_json_fault(workspace, tmp_path, capsys, "config", "deep")

    def test_non_utf8_config_is_2(self, workspace, tmp_path, capsys):
        _check_json_fault(workspace, tmp_path, capsys, "config", "non_utf8")

    @pytest.mark.parametrize("reader", _JSON_READERS)
    def test_json_of_the_wrong_kind_is_rejected(self, workspace, tmp_path, capsys, reader):
        _check_json_fault(workspace, tmp_path, capsys, reader, "wrong_kind")


@st.composite
def _damaged(draw, blob: bytes) -> bytes:
    """``blob`` with up to three bytes overwritten, then maybe cut short."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(0, 3))):
        out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out[: draw(st.one_of(st.just(len(out)), st.integers(0, len(out))))])


_FUZZ = settings(
    derandomize=True, database=None, deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestFuzzedBinaryInputs:
    """Damaged EMB1 files and checkpoints end in a documented exit code,
    never in a traceback."""

    @staticmethod
    def _run(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if rc:
            assert "error" in json.loads(err.getvalue())

    @pytest.fixture(scope="class")
    def valid(self, workspace, tmp_path_factory):
        data = workspace / "data"
        root = tmp_path_factory.mktemp("fuzz")
        save_embedding_set(load_embedding_set(data / "general.jsonl"), root / "g.bin", "bin")
        checkpoint.save_adapter(reference.init_adapter(8, 8, seed=0), root / "adapter.ckpt")
        save_embedding_set(load_embedding_set(data / "expert.jsonl"), root / "e.bin", "bin")
        (root / "config.json").write_text(json.dumps(dict(SMALL_CONFIG, format="bin")))
        return {"emb1": root / "g.bin", "expert": data / "expert_head.ckpt",
                "adapter": root / "adapter.ckpt", "expert_emb1": root / "e.bin",
                "bin_config": root / "config.json",
                "image_id": load_embedding_set(data / "expert.jsonl").image_ids[0]}

    @_FUZZ
    @given(data=st.data())
    def test_damaged_emb1(self, workspace, valid, tmp_path, data):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data.draw(_damaged(valid["emb1"].read_bytes())))
        self._run(["split", "--embeddings", str(bad), "--format", "bin",
                   "--out", str(tmp_path / "s.json")] + _cfg(workspace))

    @_FUZZ
    @given(data=st.data())
    def test_damaged_emb1_expert_set_in_fuse(self, workspace, valid, tmp_path, data):
        # fuse decodes only the vector of its image; the others are walked
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data.draw(_damaged(valid["expert_emb1"].read_bytes())))
        self._run(["fuse", "--checkpoint", str(valid["adapter"]),
                   "--token-maps", str(workspace / "data" / "token_maps.jsonl"),
                   "--expert-embeddings", str(bad), "--image-id", valid["image_id"],
                   "--out", str(tmp_path / "f.json"), "--config", str(valid["bin_config"])])

    @_FUZZ
    @given(data=st.data())
    def test_damaged_expert_checkpoint(self, workspace, valid, tmp_path, data):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data.draw(_damaged(valid["expert"].read_bytes())))
        self._run(["embed", "--checkpoint", str(bad),
                   "--embeddings", str(workspace / "data" / "raw.jsonl"),
                   "--out", str(tmp_path / "e.jsonl")] + _cfg(workspace))

    @_FUZZ
    @given(data=st.data())
    def test_damaged_adapter_checkpoint(self, workspace, valid, tmp_path, data):
        data_dir = workspace / "data"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data.draw(_damaged(valid["adapter"].read_bytes())))
        self._run(["fuse", "--checkpoint", str(bad),
                   "--token-maps", str(data_dir / "token_maps.jsonl"),
                   "--expert-embeddings", str(data_dir / "expert.jsonl"),
                   "--image-id", valid["image_id"], "--out", str(tmp_path / "f.json")]
                  + _cfg(workspace))


_ODD_NUMBERS = st.one_of(
    st.sampled_from([0, 1, 2, -1, 10 ** 400, 0.0, 0.5, -0.5, 1.0, 1e-300, 1e300,
                     float("nan"), float("inf"), float("-inf")]),
    st.integers(), st.floats(),
)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _ODD_NUMBERS, st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4,
)
_FIELD_VALUES = st.one_of(_ODD_NUMBERS, st.lists(_ODD_NUMBERS, max_size=3), _JSON_VALUES)


@st.composite
def _fuzzed_config(draw) -> dict:
    """SMALL_CONFIG with one or two fields, of the top level or of a
    section, set to an odd number, a list or another JSON value."""
    config = json.loads(json.dumps(SMALL_CONFIG))
    for _ in range(draw(st.integers(1, 2))):
        label, cls = draw(st.sampled_from([
            (None, PipelineConfig), ("synth", synthgen.SynthConfig),
            ("expert", expert.ExpertConfig), ("adapter", fusion.AdapterTrainConfig),
        ]))
        name = draw(st.sampled_from([f.name for f in dataclasses.fields(cls)] + ["bogus"]))
        section = config if label is None else config.get(label)
        if isinstance(section, dict):
            section[name] = draw(_FIELD_VALUES)
    return config


class TestFuzzedTextInputs:
    """Damaged config and JSONL embedding files end in their documented exit
    code and one JSON error line, never in a traceback."""

    @staticmethod
    def _run(argv, codes):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert rc in codes
        assert "Traceback" not in err.getvalue()
        if rc:
            assert err.getvalue().count("\n") == 1
            assert json.loads(err.getvalue())["error"] == {2: "ConfigError",
                                                          3: "DataValidationError"}[rc]

    @_FUZZ
    @given(config=_fuzzed_config())
    def test_fuzzed_config(self, workspace, tmp_path, config):
        # split reads only the seed and test_fraction, and --format pins the reader
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        self._run(["split", "--embeddings", str(workspace / "data" / "general.jsonl"),
                   "--format", "jsonl", "--out", str(tmp_path / "s.json"),
                   "--config", str(path)], (0, 2))

    @_FUZZ
    @given(data=st.data())
    def test_damaged_jsonl(self, workspace, tmp_path, data):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data.draw(_damaged((workspace / "data" / "general.jsonl").read_bytes())))
        self._run(["split", "--embeddings", str(bad), "--out", str(tmp_path / "s.json")]
                  + _cfg(workspace), (0, 3))

    @_FUZZ
    @given(data=st.data())
    def test_damaged_jsonl_expert_set_in_fuse(self, workspace, tmp_path, data):
        # fuse parses only the lines that may hold its image
        data_dir = workspace / "data"
        blob = (data_dir / "expert.jsonl").read_bytes()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data.draw(_damaged(blob)))
        adapter = tmp_path / "adapter.ckpt"
        if not adapter.exists():
            checkpoint.save_adapter(reference.init_adapter(8, 8, seed=0), adapter)
        self._run(["fuse", "--checkpoint", str(adapter),
                   "--token-maps", str(data_dir / "token_maps.jsonl"),
                   "--expert-embeddings", str(bad), "--image-id", _FUSE_ID,
                   "--out", str(tmp_path / "f.json")] + _cfg(workspace), (0, 3))


class TestBlasThreads:
    def test_one_blas_thread_for_the_length_of_a_command(self, workspace, tmp_path,
                                                          monkeypatch):
        """A command runs with numpy's OpenBLAS at one thread; the count the
        caller had is back when main returns, also after an error."""
        threads = cli._openblas_threads()
        if threads is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        set_threads, get_threads = threads
        seen = []

        def split(args, config):
            seen.append(get_threads())
            if args.test_fraction > 0.5:
                raise DataValidationError("late failure")

        monkeypatch.setattr(cli, "cmd_split", split)
        before = get_threads()
        try:
            set_threads(2)
            for fraction, rc in (("0.3", 0), ("0.9", 3)):
                assert cli.main(["split", "--embeddings", "unused", "--out", "unused",
                                 "--test-fraction", fraction] + _cfg(workspace)) == rc
                assert get_threads() == 2
        finally:
            set_threads(before)
        assert seen == [1, 1]

    def test_missing_library_is_logged(self, workspace, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        monkeypatch.setattr(cli, "cmd_split", lambda args, config: None)
        with caplog.at_level(logging.INFO, logger="ilrkit.cli"):
            assert cli.main(["split", "--embeddings", "unused", "--out", "unused", "-v"]
                            + _cfg(workspace)) == 0
        assert "BLAS threads not capped" in caplog.text


GOLDEN_DIGESTS = Path(__file__).with_name("golden_digests.json")


def _stack() -> str:
    """The numeric stack that artifact bytes may depend on: numpy's version,
    orjson's (which spells the JSONL arrays' floats), the run-time
    configuration of the OpenBLAS bundled with numpy (which names the CPU
    core its kernels were picked for) and the machine."""
    blas = "no bundled OpenBLAS"
    package = Path(np.__file__).parent
    for lib in sorted([*package.parent.glob("numpy.libs/libscipy_openblas*"),
                       *package.glob(".dylibs/libscipy_openblas*")]):
        try:
            config = ctypes.CDLL(str(lib)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        config.argtypes, config.restype = [], ctypes.c_char_p
        blas = " ".join(config().decode().split())
    return f"numpy {np.__version__}, orjson {orjson.__version__}, {blas}, {platform.machine()}"


def _golden_digests() -> dict:
    """The recorded digests of each command's output files. They were made
    on the stacks that tests/golden_digests.json lists; on any other the
    calling test skips, naming the stack."""
    golden = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
    stack = _stack()
    if stack not in golden["stacks"]:
        pytest.skip(f"no golden digests recorded for the stack {stack!r}")
    return golden["digests"]


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


# the task builders pinned by their digests, each run on a fresh synth
# bundle and split at the small config
_GOLDEN_BUILDS = {
    "build-galleries": ["build-galleries", "--k", "3", "--tau", "0.3", "--n-tasks", "10"],
    "build-galleries --per-category": ["build-galleries", "--k", "3", "--tau", "0.3",
                                       "--n-tasks", "4", "--per-category"],
    "build-detection": ["build-detection", "--tau", "0.3", "--n-tasks", "10"],
}

# the fine-tune pinned by its digests: the 2 epochs perfbench's score_loop
# runs, from the closed form, at the small config's batch size
_GOLDEN_FINE_TUNE = {**SMALL_CONFIG, "adapter": {**SMALL_CONFIG["adapter"], "epochs": 2}}


class TestDeterminism:
    def test_pipeline_bytes_as_recorded(self, workspace, tmp_path):
        """Every file ``pipeline`` writes at the small config, at --threads 1
        and 2, has the sha256 in tests/golden_digests.json. A change that
        alters artifacts on purpose records the new digests in the same
        commit."""
        golden = _golden_digests()
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert cli.main(["pipeline", "--out", str(out), "--threads", threads]
                            + _cfg(workspace)) == 0
            assert _digests(out) == golden["pipeline"], threads

    @pytest.mark.parametrize("command", ["synth", *_GOLDEN_BUILDS, "train-adapter"])
    def test_command_bytes_as_recorded(self, workspace, tmp_path, command):
        """Every file ``synth`` writes at --threads 1 and 2, every file each
        task builder writes from its bundle, and the files ``train-adapter``
        writes when it fine-tunes on the bundle's train-side tasks with the
        expert's vectors, have their recorded sha256."""
        golden = _golden_digests()
        for threads in ("1", "2"):
            bundle = tmp_path / f"bundle{threads}"
            assert cli.main(["synth", "--out", str(bundle), "--threads", threads]
                            + _cfg(workspace)) == 0
            if command == "synth":
                assert _digests(bundle) == golden["synth"], threads
        if command == "synth":
            return
        split = ["--split", str(tmp_path / "split" / "split.json")]
        assert cli.main(["split", "--embeddings", str(bundle / "general.jsonl"),
                         "--out", split[1]] + _cfg(workspace)) == 0
        general = ["--embeddings", str(bundle / "general.jsonl")]
        out = tmp_path / "out"
        if command in _GOLDEN_BUILDS:
            assert cli.main([*_GOLDEN_BUILDS[command], *general, *split,
                             "--out", str(out / "tasks.jsonl")] + _cfg(workspace)) == 0
            assert _digests(out) == golden[command]
            return
        d = tmp_path / "train"
        config = tmp_path / "fine_tune.json"
        config.write_text(json.dumps(_GOLDEN_FINE_TUNE))
        for argv in (
            ["build-galleries", *general, *split, "--side", "train", "--n-tasks", "24",
             "--out", str(d / "tasks.jsonl")],
            ["train-expert", "--embeddings", str(bundle / "raw.jsonl"), *split,
             "--out", str(d / "expert_head.ckpt")],
            ["embed", "--checkpoint", str(d / "expert_head.ckpt"),
             "--embeddings", str(bundle / "raw.jsonl"), "--out", str(d / "expert.jsonl")],
            ["train-adapter", "--tasks", str(d / "tasks.jsonl"),
             "--token-maps", str(bundle / "token_maps.jsonl"),
             "--expert-embeddings", str(d / "expert.jsonl"), "--out", str(out / "adapter.ckpt")],
        ):
            assert cli.main(argv + ["--config", str(config)]) == 0, argv[0]
        assert _digests(out) == golden[command]

    def test_subcommand_outputs_byte_identical(self, workspace, tmp_path):
        data = workspace / "data"
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            assert cli.main(["build-galleries", "--embeddings",
                             str(data / "general.jsonl"),
                             "--split", str(data / "split.json"),
                             "--k", "3", "--tau", "0.3", "--n-tasks", "10",
                             "--out", str(out)] + _cfg(workspace)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_pipeline_expert_set_equals_train_expert_then_embed(self, workspace, tmp_path):
        # pipeline embeds with its checkpoint's float32 head, as embed does,
        # so the two expert sets agree to the byte
        run = tmp_path / "run"
        assert cli.main(["pipeline", "--out", str(run), "--threads", "1"]
                        + _cfg(workspace)) == 0
        assert cli.main(["train-expert", "--embeddings", str(run / "raw.jsonl"),
                         "--split", str(run / "split.json"),
                         "--out", str(tmp_path / "expert_head.ckpt")] + _cfg(workspace)) == 0
        ours, theirs = (checkpoint.load_expert(d / "expert_head.ckpt") for d in (run, tmp_path))
        assert ours.w.tobytes() == theirs.w.tobytes() and ours.b.tobytes() == theirs.b.tobytes()
        assert cli.main(["embed", "--checkpoint", str(tmp_path / "expert_head.ckpt"),
                         "--embeddings", str(run / "raw.jsonl"),
                         "--out", str(tmp_path / "expert.jsonl")] + _cfg(workspace)) == 0
        assert (tmp_path / "expert.jsonl").read_bytes() == (run / "expert.jsonl").read_bytes()

    def test_interrupted_stage_leaves_no_partials(self, workspace):
        # staging dirs are promoted or removed; none may linger
        data = workspace / "data"
        stray = [p for p in data.iterdir() if p.name.startswith(".stage-")]
        assert stray == []

    def test_report_records_the_adapter_fit(self, workspace, tmp_path):
        fits = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert cli.main(["pipeline", "--out", str(out), "--threads", threads]
                            + _cfg(workspace)) == 0
            fits.append(json.loads((out / "report.json").read_text())["adapter"])
        fit = fits[0]
        assert fits[1] == fit
        assert set(fit) == {"scale", "training_accuracy", "training_images",
                            "fine_tuning_epochs"}
        assert sorted(fit["training_accuracy"], key=float) == [f"{s:g}" for s in fusion.SCALES]
        best = max(fit["training_accuracy"].values())
        assert fit["training_accuracy"][f"{fit['scale']:g}"] == best
        assert fit["fine_tuning_epochs"] == SMALL_CONFIG["adapter"]["epochs"]
        # the training tasks' images all come from the train side
        train = dataengine.load_split(tmp_path / "1" / "split.json").train_instances
        general = load_embedding_set(tmp_path / "1" / "general.jsonl")
        on_train_side = sum(r.instance_id in train for r in general.records)
        assert 2 <= fit["training_images"] <= on_train_side

    def test_pipeline_logs_stage_seconds(self, workspace, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="ilrkit")
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "-v", "--threads", "2"]
                        + _cfg(workspace)) == 0
        messages = [r.getMessage() for r in caplog.records]
        lines = [m for m in messages if m.startswith("pipeline:")]
        assert lines[0] == "pipeline: generating synthetic bundle"
        assert lines[-1].startswith("pipeline: done (evaluating matchers took ")
        assert [line.split(" (")[0] for line in lines[1:7]] == [
            "pipeline: fitting expert head", "pipeline: writing token maps",
            "pipeline: building adapter-training tasks", "pipeline: waiting for task building",
            "pipeline: fitting fusion adapter", "pipeline: evaluating matchers",
        ]
        assert len(lines) == 8
        for prev, line in zip(lines, lines[1:]):
            stage = prev.removeprefix("pipeline: ").split(" (")[0]
            assert re.fullmatch(rf"pipeline: .+ \({stage} took \d+\.\d\d s\)", line), line
        # each worker job logs its own seconds, on a line of its own
        workers = [m for m in messages if m.startswith("worker:")]
        assert [m.split(" took ")[0] for m in workers] == [
            "worker: task building and writes", "worker: raw and expert-set writes and recall",
        ]
        for line in workers:
            assert re.fullmatch(r"worker: .+ took \d+\.\d\d s", line), line

    def test_pipeline_stamps_the_seed_that_made_each_file(self, workspace, tmp_path):
        # synth.seed generates the bundle; --seed governs the split, tasks and report
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--out", str(out), "--seed", "3", "--threads", "1"]
                        + _cfg(workspace)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        seeds = {name: entry["seed"] for name, entry in manifest.items()}
        synth_seed = SMALL_CONFIG["synth"]["seed"]
        assert synth_seed != 3
        for name in ("raw.jsonl", "general.jsonl", "token_maps.jsonl", "ground_truth.jsonl"):
            assert seeds.pop(name) == synth_seed, name
        assert seeds.pop("adapter.ckpt") == SMALL_CONFIG["adapter"].get("seed", 0)
        assert set(seeds.values()) == {3}, seeds
        # the bundle files equal those of a synth run with the same config
        bundle = tmp_path / "bundle"
        assert cli.main(["synth", "--out", str(bundle)] + _cfg(workspace)) == 0
        for name in ("raw.jsonl", "general.jsonl", "token_maps.jsonl", "ground_truth.jsonl"):
            assert (bundle / name).read_bytes() == (out / name).read_bytes()

    def test_manifest_names_every_seed_of_the_trained_artifacts(self, workspace, tmp_path):
        # the expert and the adapter are fitted on the split that the
        # top-level seed draws, and fine-tuning adds adapter.seed; a change
        # of either seed shows in their entries. expert.seed, a retired
        # field, changes no entry and no byte.
        closed_form = {**SMALL_CONFIG["adapter"], "epochs": 0}
        configs = {
            "base": SMALL_CONFIG,
            "seed": {**SMALL_CONFIG, "seed": 5},
            "expert.seed": {**SMALL_CONFIG, "expert": {**SMALL_CONFIG["expert"], "seed": 9}},
            "adapter.seed": {**SMALL_CONFIG, "adapter": {**SMALL_CONFIG["adapter"], "seed": 9}},
            "closed form": {**SMALL_CONFIG, "adapter": closed_form},
            "closed form, adapter.seed": {**SMALL_CONFIG, "adapter": {**closed_form, "seed": 9}},
        }
        entries, files = {}, {}
        for name, config in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / name
            assert cli.main(["pipeline", "--out", str(out), "--threads", "1",
                             "--config", str(path)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            entries[name] = {artifact: {k: v for k, v in manifest[artifact].items()
                                        if k != "config_hash"}
                             for artifact in ("expert_head.ckpt", "expert.jsonl", "adapter.ckpt")}
            files[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                           if p.name != "manifest.json"}
        # without fine-tuning the top-level seed, which drew the training
        # tasks, made the adapter, and adapter.seed changes no byte
        closed = entries["closed form"]
        assert closed["adapter.ckpt"]["seed"] == SMALL_CONFIG["seed"]
        assert "seeds" not in closed["adapter.ckpt"]
        assert entries["closed form, adapter.seed"] == closed
        assert files["closed form, adapter.seed"] == files["closed form"]
        assert files["closed form"]["adapter.ckpt"] != files["base"]["adapter.ckpt"]
        base = entries["base"]
        seed, adapter_seed = 1, 0  # SMALL_CONFIG's
        for artifact in ("expert_head.ckpt", "expert.jsonl"):
            assert base[artifact]["seed"] == seed and "seeds" not in base[artifact], artifact
            assert entries["seed"][artifact]["seed"] == 5, artifact
        assert base["adapter.ckpt"]["seeds"] == {"seed": seed, "adapter.seed": adapter_seed}
        assert entries["seed"]["adapter.ckpt"]["seeds"] == {"seed": 5, "adapter.seed": 0}
        assert entries["expert.seed"] == base
        assert files["expert.seed"] == files["base"]
        adapter = entries["adapter.seed"]
        assert adapter["adapter.ckpt"]["seed"] == 9
        assert adapter["adapter.ckpt"]["seeds"] == {**base["adapter.ckpt"]["seeds"],
                                                    "adapter.seed": 9}
        assert adapter["expert_head.ckpt"] == base["expert_head.ckpt"]
        assert adapter["expert.jsonl"] == base["expert.jsonl"]

    def test_failed_pipeline_discards_its_stage(self, workspace, tmp_path, capsys,
                                                monkeypatch):
        parent = os.getpid()
        failed = tmp_path / "failed"
        save_embedding_set = cli.save_embedding_set

        def slow_save_embedding_set(eset, path, *args):
            # at --threads 2 the raw and expert-set writer, a job the parent
            # does not wait for, runs until the adapter fit has failed; the
            # first job's general view, which the parent waits for, does not
            if os.getpid() != parent and os.path.basename(path) != "general.jsonl":
                _wait_for(failed)
            save_embedding_set(eset, path, *args)

        def fail(*args, **kwargs):
            failed.touch()
            raise DataValidationError("adapter training failed")

        monkeypatch.setattr(cli, "save_embedding_set", slow_save_embedding_set)
        monkeypatch.setattr(fusion, "fit_adapter", fail)
        for threads in ("1", "2"):
            failed.unlink(missing_ok=True)
            out = tmp_path / f"run{threads}"
            rc = cli.main(["pipeline", "--out", str(out), "--threads", threads]
                          + _cfg(workspace))
            _assert_data_error(rc, capsys)
            assert [p.name for p in out.iterdir()] == []
            _assert_no_child_left()

    def test_failed_writer_is_3(self, workspace, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise DataValidationError("token maps could not be written")

        monkeypatch.setattr(cli, "save_token_maps", fail)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--out", str(out), "--threads", "2"] + _cfg(workspace))
        assert rc == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err) == {
            "error": "DataValidationError", "message": "token maps could not be written",
        }
        assert [p.name for p in out.iterdir()] == []
        _assert_no_child_left()

    def test_killed_writer_is_5(self, workspace, tmp_path, capsys, monkeypatch):
        # a writer that dies without reporting may have left a truncated file,
        # which must never be promoted
        parent = os.getpid()

        def die(*args, **kwargs):
            assert os.getpid() != parent, "the write ran in the parent process"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(dataengine, "save_jsonl", die)  # the first job's task writes
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--out", str(out), "--threads", "2"] + _cfg(workspace))
        assert rc == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error = json.loads(err)
        assert error["error"] == "WriterError"
        assert "died before it finished" in error["message"]
        assert [p.name for p in out.iterdir()] == []
        _assert_no_child_left()

    def test_writes_inline_without_fork(self, workspace, tmp_path, monkeypatch):
        # where os.fork is missing (Windows) every --threads writes inline
        parent = os.getpid()
        writers = []
        save_token_maps = cli.save_token_maps

        def record_pid(*args, **kwargs):
            writers.append(os.getpid())
            return save_token_maps(*args, **kwargs)

        monkeypatch.setattr(cli, "save_token_maps", record_pid)
        outputs = []
        for threads in ("1", "2"):
            if threads == "2":
                monkeypatch.delattr(os, "fork")
            out = tmp_path / f"run{threads}"
            assert cli.main(["pipeline", "--out", str(out), "--threads", threads]
                            + _cfg(workspace)) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert writers == [parent, parent]
        assert "token_maps.jsonl" in outputs[0]
        assert outputs[0] == outputs[1]
        _assert_no_child_left()

    def test_writer_runs_unpicklable_callables(self, workspace, tmp_path, monkeypatch):
        # a tracer wraps layer functions in local closures, which no pickling
        # process pool can send to a worker; forked writers must still run them
        def wrap(fn):
            def wrapper(*args, **kwargs):
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "save_token_maps", wrap(cli.save_token_maps))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"run{threads}"
            assert cli.main(["pipeline", "--out", str(out), "--threads", threads]
                            + _cfg(workspace)) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "token_maps.jsonl" in outputs[0]
        assert outputs[0] == outputs[1]
        _assert_no_child_left()


class TestWorkerLane:
    """The worker lane of ``ilrkit.stage.OutputStage``: ``submit(job)``."""

    @pytest.mark.parametrize("lane", ["inline", "forked", "no fork", "fork fails"])
    def test_submit_round_trips_a_value(self, tmp_path, monkeypatch, lane):
        if lane == "no fork":
            monkeypatch.delattr(os, "fork")
        if lane == "fork fails":  # as under a process limit: the job runs inline
            def failed_fork():
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

            monkeypatch.setattr(os, "fork", failed_fork)
        value = {"tasks": [(1, "a"), (2, "b")], "tau": 0.5, "relaxed": True}
        parent = os.getpid()
        out = tmp_path / "out"
        with OutputStage(out, overlap=lane != "inline") as stage:
            path = stage.record("pid.json", "h", 1)

            def write_pid():
                path.write_text(json.dumps({"pid": os.getpid()}))
                return value

            job = stage.submit(write_pid)
            assert job.result() == value
            assert job.result() == value
        written = json.loads((out / "pid.json").read_text())
        assert (written["pid"] != parent) == (lane == "forked")
        _assert_no_child_left()

    @pytest.mark.parametrize("lane", ["inline", "forked", "no fork"])
    def test_submit_reraises_the_exceptions(self, tmp_path, monkeypatch, lane):
        if lane == "no fork":
            monkeypatch.delattr(os, "fork")

        def fail():
            raise DataValidationError("the job failed")

        # from result(), and again on a second call
        out = tmp_path / "result"
        with pytest.raises(DataValidationError, match="the job failed"):
            with OutputStage(out, overlap=lane != "inline") as stage:
                stage.record("a.txt", "h", 1).write_text("a")
                job = stage.submit(fail)  # inline too, it returns a handle holding the error
                for _ in range(2):
                    with pytest.raises(DataValidationError, match="the job failed"):
                        job.result()
                job.result()
        assert list(out.iterdir()) == []
        # from promote, when result() was never called
        out = tmp_path / "promote"
        with pytest.raises(DataValidationError, match="the job failed"):
            with OutputStage(out, overlap=lane != "inline") as stage:
                stage.record("a.txt", "h", 1).write_text("a")
                stage.submit(fail)
        assert list(out.iterdir()) == []
        _assert_no_child_left()

    def test_files_are_in_the_stage_when_result_returns(self, tmp_path):
        # the worker reports once its job has finished: by then every file
        # the job wrote is complete, and the worker has been reaped
        sizes = {"a.txt": 1 << 10, "b.txt": 1 << 20}
        with OutputStage(tmp_path / "out", overlap=True) as stage:
            paths = {name: stage.record(name, "h", 1) for name in sizes}

            def write():
                for name, size in sizes.items():
                    time.sleep(0.2)
                    paths[name].write_bytes(b"x" * size)
                return "written"

            job = stage.submit(write)
            assert job.result() == "written"
            assert {name: p.stat().st_size for name, p in paths.items()} == sizes
            _assert_no_child_left()

    def test_unpicklable_exception_arrives_as_its_text(self, tmp_path):
        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        def fail():
            raise Unpicklable(1, 2)

        stage = OutputStage(tmp_path, overlap=True)
        with pytest.raises(RuntimeError, match="Unpicklable: 1 and 2"):
            stage.submit(fail).result()
        stage.discard()
        _assert_no_child_left()

    def test_worker_killed_before_its_result_is_5(self, tmp_path):
        stage = OutputStage(tmp_path, overlap=True)
        job = stage.submit(lambda: os.kill(os.getpid(), signal.SIGKILL))
        for _ in range(2):
            with pytest.raises(WriterError, match="died before it finished"):
                job.result()
        stage.discard()
        # from promote, when result() was never called
        out = tmp_path / "out"
        with pytest.raises(WriterError, match="died before it finished"):
            with OutputStage(out, overlap=True) as stage:
                stage.record("a.txt", "h", 1).write_text("a")
                stage.submit(lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert list(out.iterdir()) == []
        _assert_no_child_left()


class TestPipelineWorker:
    """``pipeline`` builds the general-view tasks in the worker."""

    def test_tiers_are_built_in_the_worker(self, workspace, tmp_path, monkeypatch):
        # one call builds every tier, in one pass over each category's queries
        pids = tmp_path / "pids"
        build = dataengine.build_gallery_tiers_per_category

        def record_pid(general, side, tiers, **kwargs):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()} {sorted(tiers)}\n")
            return build(general, side, tiers, **kwargs)

        monkeypatch.setattr(dataengine, "build_gallery_tiers_per_category", record_pid)
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "--threads", "2"]
                        + _cfg(workspace)) == 0
        (recorded,) = pids.read_text().splitlines()
        pid, taus = recorded.split(" ", 1)
        assert int(pid) != os.getpid()
        assert taus == str(sorted({SMALL_CONFIG["tau"], *SMALL_CONFIG["taus"]}))
        _assert_no_child_left()

    def test_every_matcher_is_scored_in_the_parent(self, workspace, tmp_path, monkeypatch):
        # every matcher's scores come from the parent, after the adapter fit,
        # and so do the token maps and the adapter-training tasks; the first
        # job builds and writes the benchmark's tasks and writes the general
        # view and the ground truth, and the second job writes the raw view
        # and the expert set and computes recall@1
        pids = tmp_path / "pids"

        def record_pid(module, name):
            fn = getattr(module, name)

            def recorded(*args, **kwargs):
                with open(pids, "a") as fh:
                    fh.write(f"{name} {os.getpid()}\n")
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        for name in ("sweep_tasks", "similarity_matcher", "fused_matcher", "sweep_accuracies"):
            record_pid(evalkit, name)
        for name in ("build_gallery_tiers_per_category", "build_detection_tasks",
                     "build_gallery_tasks", "emit_conversations", "save_jsonl"):
            record_pid(dataengine, name)
        for name in ("save_token_maps", "save_embedding_set", "_write_ground_truth"):
            record_pid(cli, name)
        record_pid(synthgen, "recall_at_1")
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "--threads", "2"]
                        + _cfg(workspace)) == 0
        calls = [line.split() for line in pids.read_text().splitlines()]
        parent = str(os.getpid())
        assert [name for name, pid in calls if pid == parent] == [
            "save_token_maps", "build_gallery_tasks", "similarity_matcher", "similarity_matcher", "fused_matcher",
            "sweep_accuracies",
        ]
        jobs = {}
        for name, pid in calls:
            if pid != parent:
                jobs.setdefault(pid, []).append(name)
        assert sorted(jobs.values()) == [
            ["build_gallery_tiers_per_category", "build_detection_tasks",
             "emit_conversations", "emit_conversations", *["save_jsonl"] * 6,
             "save_embedding_set", "_write_ground_truth", "sweep_tasks"],
            ["save_embedding_set", "save_embedding_set", "recall_at_1", "recall_at_1"],
        ]
        _assert_no_child_left()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_failure_is_3(self, workspace, tmp_path, capsys, monkeypatch, threads):
        def fail(*args, **kwargs):
            raise DataValidationError("too few images for a sweep tier")

        monkeypatch.setattr(evalkit, "sweep_tasks", fail)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--out", str(out), "--threads", threads] + _cfg(workspace))
        assert _assert_data_error(rc, capsys) == "too few images for a sweep tier"
        assert [p.name for p in out.iterdir()] == []
        _assert_no_child_left()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_expert_error_wins_over_worker_error(self, workspace, tmp_path, capsys,
                                                 monkeypatch, threads):
        def fail_tasks(*args, **kwargs):
            raise DataValidationError("task building failed")

        def fail_fit(*args, **kwargs):
            time.sleep(0.3)  # a forked worker has failed by now
            raise DataValidationError("the expert fit failed")

        monkeypatch.setattr(dataengine, "build_gallery_tiers_per_category", fail_tasks)
        monkeypatch.setattr(expert, "fit_expert", fail_fit)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--out", str(out), "--threads", threads] + _cfg(workspace))
        assert _assert_data_error(rc, capsys) == "the expert fit failed"
        assert [p.name for p in out.iterdir()] == []
        _assert_no_child_left()

    def test_bundle_and_expert_set_are_written_while_the_adapter_trains(
            self, workspace, tmp_path, monkeypatch):
        # the second job writes the raw view and the expert set while the
        # parent fits the adapter; before the fit, the first job wrote the
        # tasks, the general view and the ground truth, and the parent the
        # token maps
        parent = os.getpid()
        fitting, fitted = tmp_path / "fitting", tmp_path / "fitted"
        writes = tmp_path / "writes"
        in_job = {"raw.jsonl", "expert.jsonl"}
        first_job_files = {"tasks_tau0.1.jsonl", "tasks_tau0.3.jsonl", "tasks_tau0.4.jsonl",
                           "detection_tasks.jsonl", "conversations_mcq.jsonl",
                           "conversations_caption.jsonl", "token_maps.jsonl", "general.jsonl",
                           "ground_truth.jsonl"}
        staged = []  # the stage's files when the adapter fit starts
        fit_adapter = fusion.fit_adapter

        def written():
            return writes.read_text().splitlines() if writes.exists() else []

        def fit_while_writing(*args, **kwargs):
            (stage_dir,) = (tmp_path / "run").glob(".stage-*")
            staged.append({p.name for p in stage_dir.iterdir()})
            fitting.touch()
            fit = fit_adapter(*args, **kwargs)
            _wait_until(lambda: len(written()) == len(in_job) + 1,
                        "the raw and expert-set writes")
            fitted.touch()
            return fit

        save_embedding_set = cli.save_embedding_set

        def record(eset, path, *args):
            if os.path.basename(path) in in_job:
                _wait_for(fitting)
            save_embedding_set(eset, path, *args)
            during = fitting.exists() and not fitted.exists()
            with open(writes, "a") as fh:
                fh.write(f"{os.path.basename(path)} {os.getpid()} {during}\n")

        monkeypatch.setattr(fusion, "fit_adapter", fit_while_writing)
        monkeypatch.setattr(cli, "save_embedding_set", record)
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "--threads", "2"]
                        + _cfg(workspace)) == 0
        # the first job wrote every general-view file before it reported
        assert len(staged) == 1 and first_job_files <= staged[0]
        assert not in_job & staged[0]
        records = {name: (int(pid), during) for name, pid, during in map(str.split, written())}
        assert set(records) == in_job | {"general.jsonl"}
        (second_job,) = {records[name][0] for name in in_job}
        for name in in_job:
            assert records[name][1] == "True", name
        first_job, during = records["general.jsonl"]
        assert during == "False" and first_job != parent
        assert second_job != parent
        _assert_no_child_left()

    def test_token_maps_are_written_in_the_parent_while_tasks_build(
            self, workspace, tmp_path, monkeypatch):
        # once the expert is fitted, the parent writes the token maps while
        # the first job builds the tasks: the write waits until the build has
        # started, and the build ends only once the write is done. The first
        # job writes the general view and the ground truth after its build.
        parent = os.getpid()
        building, built = tmp_path / "building", tmp_path / "built"
        writes = tmp_path / "writes"
        general_files = {"token_maps.jsonl", "general.jsonl", "ground_truth.jsonl"}
        build = dataengine.build_gallery_tiers_per_category

        def written():
            return writes.read_text().splitlines() if writes.exists() else []

        def build_while_writing(*args, **kwargs):
            building.touch()
            tiers = build(*args, **kwargs)
            _wait_until(lambda: any(line.startswith("token_maps.jsonl ") for line in written()),
                        "the token-map write")
            built.touch()
            return tiers

        def recorded(write, path_at):
            def record(*args):
                _wait_for(building)
                write(*args)
                during = building.exists() and not built.exists()
                with open(writes, "a") as fh:
                    fh.write(f"{os.path.basename(args[path_at])} {os.getpid()} {during}\n")
            return record

        monkeypatch.setattr(dataengine, "build_gallery_tiers_per_category", build_while_writing)
        for name, path_at in (("save_token_maps", 1), ("save_embedding_set", 1),
                              ("_write_ground_truth", 0)):
            monkeypatch.setattr(cli, name, recorded(getattr(cli, name), path_at))
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "--threads", "2"]
                        + _cfg(workspace)) == 0
        records = {name: (int(pid), during) for name, pid, during in map(str.split, written())}
        # the second job writes the raw view and the expert set after the build
        assert set(records) == general_files | {"raw.jsonl", "expert.jsonl"}
        assert records["token_maps.jsonl"] == (parent, "True")
        (first_job,) = {records[name] for name in ("general.jsonl", "ground_truth.jsonl")}
        assert first_job[0] != parent and first_job[1] == "False"
        _assert_no_child_left()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_task_building_error_wins_over_training_task_error(
            self, workspace, tmp_path, capsys, monkeypatch, threads):
        # the parent builds the adapter-training tasks while the first job
        # builds the benchmark's; an error of the first job is raised first,
        # as when that job built both
        def fail(message):
            def failing(*args, **kwargs):
                raise DataValidationError(message)
            return failing

        monkeypatch.setattr(dataengine, "build_gallery_tasks", fail("training tasks failed"))
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--out", str(out), "--threads", threads] + _cfg(workspace))
        assert _assert_data_error(rc, capsys) == "training tasks failed"
        monkeypatch.setattr(dataengine, "build_detection_tasks", fail("detection failed"))
        rc = cli.main(["pipeline", "--out", str(out), "--threads", threads] + _cfg(workspace))
        assert _assert_data_error(rc, capsys) == "detection failed"
        assert [p.name for p in out.iterdir()] == []
        _assert_no_child_left()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_task_building_failure_is_3(self, workspace, tmp_path, capsys, monkeypatch,
                                        threads):
        def fail(*args, **kwargs):
            raise DataValidationError("too few images for a gallery")

        monkeypatch.setattr(dataengine, "build_detection_tasks", fail)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--out", str(out), "--threads", threads] + _cfg(workspace))
        assert rc == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err) == {
            "error": "DataValidationError", "message": "too few images for a gallery",
        }
        assert [p.name for p in out.iterdir()] == []
        _assert_no_child_left()

    def test_worker_killed_after_its_result_is_5(self, workspace, tmp_path, capsys,
                                                 monkeypatch):
        # the second job's worker dies while writing, once the parent has
        # received the first job's tasks
        parent = os.getpid()
        received = tmp_path / "received"
        trained = []
        fit_adapter, save_embedding_set = fusion.fit_adapter, cli.save_embedding_set

        def record_fit(*args, **kwargs):
            trained.append(os.getpid())
            received.touch()
            return fit_adapter(*args, **kwargs)

        def die(eset, path, *args):
            if os.path.basename(path) == "general.jsonl":  # the first job's write
                return save_embedding_set(eset, path, *args)
            assert os.getpid() != parent
            _wait_for(received)
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(fusion, "fit_adapter", record_fit)
        monkeypatch.setattr(cli, "save_embedding_set", die)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--out", str(out), "--threads", "2"] + _cfg(workspace))
        assert rc == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "WriterError"
        assert trained == [os.getpid()]
        assert [p.name for p in out.iterdir()] == []
        _assert_no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """Yields the pids forked so far; no child may be left at the end."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield pids
    _assert_no_child_left()


class TestGenerationWorker:
    """``synth`` and ``pipeline`` generate the bundle in the parent, for the
    same bytes at any --threads: only their jobs fork."""

    # the forks of a run at --threads 2: synth's token-map write, pipeline's
    # two jobs
    JOBS = {"synth": 1, "pipeline": 2}

    @staticmethod
    def _run(workspace, command, out, threads):
        assert cli.main([command, "--out", str(out), "--threads", threads]
                        + _cfg(workspace)) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    def test_same_bytes_with_one_generation_worker(self, workspace, tmp_path, forks,
                                                   command):
        outputs = {}
        for threads in ("1", "2"):
            before = len(forks)
            outputs[threads] = self._run(workspace, command, tmp_path / threads, threads)
            jobs = self.JOBS[command] if threads == "2" else 0
            assert len(forks) - before == jobs, threads
        assert "token_maps.jsonl" in outputs["1"]
        assert outputs["1"] == outputs["2"]

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    def test_one_worker_at_any_threads(self, workspace, tmp_path, forks, command):
        # above 2, --threads acts as 2: one worker runs the jobs one at a time
        self._run(workspace, command, tmp_path / "run", "10000")
        assert len(forks) == self.JOBS[command]

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    def test_generation_error_at_any_threads(self, workspace, tmp_path, capsys, command):
        # an alpha beyond the float32 range: the first raw vector is infinite
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG,
                                      "synth": {**SMALL_CONFIG["synth"], "alpha": 1e39}}))
        for threads in ("1", "2"):
            out = tmp_path / threads
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the float32 cast
                rc = cli.main([command, "--out", str(out), "--threads", threads,
                               "--config", str(config)])
            message = _assert_data_error(rc, capsys)
            assert message == "record 'person_c000_i000_v00' contains non-finite values"
            assert not out.exists() or list(out.iterdir()) == []
            _assert_no_child_left()


def _wait_until(condition, what, seconds=10):
    """Poll until ``condition()`` is true; once ``seconds`` have passed,
    raise AssertionError naming ``what``, the condition waited for. In a
    forked worker that is the job's error, which the parent raises."""
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() >= deadline:
            raise AssertionError(f"waited {seconds} s in vain for {what}")
        time.sleep(0.01)


def _wait_for(path, seconds=10):
    """Poll until ``path`` exists; fail the test once ``seconds`` have passed."""
    _wait_until(path.exists, f"{path.name} to exist", seconds)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
