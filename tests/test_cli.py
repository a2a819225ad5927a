import contextlib
import dataclasses
import errno
import io
import json
import logging
import os
import re
import shutil
import signal
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ilrkit import checkpoint, cli, dataengine, embedstore, evalkit, expert, fusion, synthgen
from ilrkit.config import PipelineConfig
from ilrkit.embedstore import load_embedding_set, load_token_maps, save_embedding_set
from ilrkit.errors import DataValidationError, DivergenceError, WriterError
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
    "expert": {"d_out": 8, "epochs": 2, "p_instances": 4, "q_images": 2},
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
    ])
    def test_flag_that_would_do_nothing_is_2(self, workspace, tmp_path, capsys, command,
                                             flags, named):
        """Rejected before any input is read: every input here is missing."""
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
    ({"expert": {"loss_weights": []}}, "expert.loss_weights"),
    ({"expert": {"loss_weights": [1, 2, 3]}}, "expert.loss_weights"),
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
    ("expert", {"step_size": float("nan")}, "expert.step_size", "train-expert"),
    ("expert", {"loss_weights": [1.0, float("inf")]}, "expert.loss_weights", "train-expert"),
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
# limit, and a top-level value that is not an object.
_JSON_READERS = [
    "embeddings", "token_maps", "tasks", "detection_tasks", "predictions", "captions",
    "split", "checkpoint", "manifest", "config",
]
_JSONL_READERS = {"embeddings", "token_maps", "tasks", "detection_tasks", "predictions",
                  "captions"}
_JSON_FAULTS = {
    "non_utf8": lambda valid: b"\xff\xfe" + valid,
    "deep": lambda valid: b"[" * 100_000 + b"\n",
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
    if fault == "deep":
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
        ({"kind": "expert_head", "margin": 0.3, "loss_weights": [1.0, 1.0]}, [[24, 8]]),
        ({"kind": "expert_head", "loss_weights": [1.0, 1.0]}, [[24, 8], [8]]),
        ({"kind": "expert_head", "margin": 0.3, "loss_weights": 1.0}, [[24, 8], [8]]),
        # a head for 12-d raw vectors, applied to the 24-d raw view
        ({"kind": "expert_head", "margin": 0.3, "loss_weights": [1.0, 1.0]}, [[12, 8], [8]]),
        # a shape whose element count overflows int64
        ({"kind": "expert_head", "margin": 0.3, "loss_weights": [1.0, 1.0]},
         [[2**32, 2**32], [8]]),
    ])
    def test_malformed_expert_checkpoint_is_3(self, workspace, tmp_path, capsys,
                                              header, shapes):
        ckpt = _checkpoint(tmp_path / "head.ckpt", header, shapes)
        rc = cli.main(["embed", "--checkpoint", str(ckpt),
                       "--embeddings", str(workspace / "data" / "raw.jsonl"),
                       "--out", str(tmp_path / "e.jsonl")] + _cfg(workspace))
        _assert_data_error(rc, capsys)

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
        checkpoint.save_adapter(fusion.init_adapter(8, 8, seed=0), adapter)
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
        checkpoint.save_adapter(fusion.init_adapter(8, 8, seed=0), adapter)
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
        checkpoint.save_adapter(fusion.init_adapter(8, 8, seed=0), adapter)
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
        decode = embedstore._json_value

        def spy(text):
            parsed.append(text)
            return decode(text)

        # every JSON text embedstore reads is decoded by _json_value
        monkeypatch.setattr(embedstore, "_json_value", spy)
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
        # a blank line before the repeat: the line number counts it
        lines = (workspace / "data" / "preds.jsonl").read_text().splitlines()
        repeat = json.loads(lines[0])
        first = repeat["task_id"]
        repeat["response"] = "Image 2"
        preds = tmp_path / "preds.jsonl"
        preds.write_text("\n".join([*lines, "", json.dumps(repeat)]) + "\n")
        out = tmp_path / "eval"
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
        checkpoint.save_adapter(fusion.init_adapter(8, 8, seed=0), root / "adapter.ckpt")
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
            ("expert", expert.ExpertTrainConfig), ("adapter", fusion.AdapterTrainConfig),
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
            checkpoint.save_adapter(fusion.init_adapter(8, 8, seed=0), adapter)
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


class TestDeterminism:
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

    def test_interrupted_stage_leaves_no_partials(self, workspace):
        # staging dirs are promoted or removed; none may linger
        data = workspace / "data"
        stray = [p for p in data.iterdir() if p.name.startswith(".stage-")]
        assert stray == []

    def test_pipeline_logs_stage_seconds(self, workspace, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="ilrkit")
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "-v", "--threads", "2"]
                        + _cfg(workspace)) == 0
        messages = [r.getMessage() for r in caplog.records]
        lines = [m for m in messages if m.startswith("pipeline:")]
        assert lines[0] == "pipeline: generating synthetic bundle"
        assert lines[-1].startswith("pipeline: done (evaluating matchers took ")
        assert len(lines) == 5
        for prev, line in zip(lines, lines[1:]):
            stage = prev.removeprefix("pipeline: ").split(" (")[0]
            assert re.fullmatch(rf"pipeline: .+ \({stage} took \d+\.\d\d s\)", line), line
        # each worker job logs its own seconds, on a line of its own
        workers = [m for m in messages if m.startswith("worker:")]
        assert [m.split(" took ")[0] for m in workers] == [
            "worker: task building and writes", "worker: bundle and expert-set writes",
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
        assert seeds.pop("expert_head.ckpt") == seeds.pop("adapter.ckpt") == 0
        assert set(seeds.values()) == {3}, seeds
        # the bundle files equal those of a synth run with the same config
        bundle = tmp_path / "bundle"
        assert cli.main(["synth", "--out", str(bundle)] + _cfg(workspace)) == 0
        for name in ("raw.jsonl", "general.jsonl", "token_maps.jsonl", "ground_truth.jsonl"):
            assert (bundle / name).read_bytes() == (out / name).read_bytes()

    def test_manifest_names_every_seed_of_the_trained_artifacts(self, workspace, tmp_path):
        # the expert and the adapter are trained on the split that the
        # top-level seed draws; a change of either seed shows in their entries
        configs = {
            "base": SMALL_CONFIG,
            "seed": {**SMALL_CONFIG, "seed": 5},
            "expert.seed": {**SMALL_CONFIG, "expert": {**SMALL_CONFIG["expert"], "seed": 9}},
            "adapter.seed": {**SMALL_CONFIG, "adapter": {**SMALL_CONFIG["adapter"], "seed": 9}},
        }
        entries = {}
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
        base = entries["base"]
        seed, expert_seed, adapter_seed = 1, 0, 0  # SMALL_CONFIG's
        assert base["expert_head.ckpt"]["seeds"] == {"seed": seed, "expert.seed": expert_seed}
        assert base["expert.jsonl"]["seeds"] == {"seed": seed, "expert.seed": expert_seed}
        assert base["adapter.ckpt"]["seeds"] == {
            "seed": seed, "expert.seed": expert_seed, "adapter.seed": adapter_seed}
        for changed, value in (("seed", 5), ("expert.seed", 9)):
            for artifact in base:
                assert entries[changed][artifact]["seeds"] == {
                    **base[artifact]["seeds"], changed: value}, (changed, artifact)
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
        save_token_maps = cli.save_token_maps

        def slow_save_token_maps(*args, **kwargs):
            # at --threads 2 the bundle writer, a job the parent does not
            # wait for, runs until the adapter has failed
            if os.getpid() != parent:
                _wait_for(failed)
            save_token_maps(*args, **kwargs)

        def fail(*args, **kwargs):
            failed.touch()
            raise DataValidationError("adapter training failed")

        monkeypatch.setattr(cli, "save_token_maps", slow_save_token_maps)
        monkeypatch.setattr(fusion, "train_adapter", fail)
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

        monkeypatch.setattr(cli, "save_token_maps", die)
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
                job = stage.submit(fail)  # inline, submit itself raises
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
        pids = tmp_path / "pids"
        build = dataengine.build_gallery_tasks_per_category

        def record_pid(*args, **kwargs):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return build(*args, **kwargs)

        monkeypatch.setattr(dataengine, "build_gallery_tasks_per_category", record_pid)
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "--threads", "2"]
                        + _cfg(workspace)) == 0
        recorded = pids.read_text().split()
        assert len(recorded) == len({SMALL_CONFIG["tau"], *SMALL_CONFIG["taus"]})
        assert len(set(recorded)) == 1 and int(recorded[0]) != os.getpid()
        _assert_no_child_left()

    def test_expert_error_wins_over_worker_error(self, workspace, tmp_path, capsys,
                                                 monkeypatch):
        def fail_tasks(*args, **kwargs):
            raise DataValidationError("task building failed")

        def diverge(*args, **kwargs):
            time.sleep(0.3)  # the worker has failed by now
            raise DivergenceError("expert training diverged")

        monkeypatch.setattr(dataengine, "build_gallery_tasks_per_category", fail_tasks)
        monkeypatch.setattr(expert, "train_expert", diverge)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--out", str(out), "--threads", "2"] + _cfg(workspace))
        assert rc == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err) == {
            "error": "DivergenceError", "message": "expert training diverged",
        }
        assert [p.name for p in out.iterdir()] == []
        _assert_no_child_left()

    def test_bundle_and_expert_set_are_written_while_the_adapter_trains(
            self, workspace, tmp_path, monkeypatch):
        parent = os.getpid()
        training, trained = tmp_path / "training", tmp_path / "trained"
        writes = tmp_path / "writes"
        names = {"raw.jsonl", "general.jsonl", "token_maps.jsonl", "expert.jsonl"}
        task_files = {"tasks_tau0.1.jsonl", "tasks_tau0.3.jsonl", "tasks_tau0.4.jsonl",
                      "detection_tasks.jsonl", "conversations_mcq.jsonl",
                      "conversations_caption.jsonl"}
        staged = []  # the stage's files when the adapter starts training
        train_adapter = fusion.train_adapter

        def written():
            return writes.read_text().splitlines() if writes.exists() else []

        def train_while_writing(*args, **kwargs):
            (stage_dir,) = (tmp_path / "run").glob(".stage-*")
            staged.append({p.name for p in stage_dir.iterdir()})
            training.touch()
            adapter = train_adapter(*args, **kwargs)
            _wait_until(lambda: len(written()) == len(names))
            trained.touch()
            return adapter

        def record_writer(write):
            def record(obj, path, *args):
                _wait_for(training)
                write(obj, path, *args)
                during = training.exists() and not trained.exists()
                with open(writes, "a") as fh:
                    fh.write(f"{os.path.basename(path)} {os.getpid()} {during}\n")
            return record

        monkeypatch.setattr(fusion, "train_adapter", train_while_writing)
        monkeypatch.setattr(cli, "save_embedding_set", record_writer(cli.save_embedding_set))
        monkeypatch.setattr(cli, "save_token_maps", record_writer(cli.save_token_maps))
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "--threads", "2"]
                        + _cfg(workspace)) == 0
        # the first job wrote every task file before it reported
        assert len(staged) == 1 and task_files <= staged[0]
        records = [line.split() for line in written()]
        assert {name for name, _, _ in records} == names
        for name, pid, during in records:
            assert int(pid) != parent and during == "True", (name, pid, during)
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
        # the worker dies while writing, once the parent has received the tasks
        received = tmp_path / "received"
        trained = []
        train_adapter = fusion.train_adapter

        def record_training(*args, **kwargs):
            trained.append(os.getpid())
            received.touch()
            return train_adapter(*args, **kwargs)

        def die(*args, **kwargs):
            _wait_for(received)
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(fusion, "train_adapter", record_training)
        monkeypatch.setattr(cli, "save_token_maps", die)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--out", str(out), "--threads", "2"] + _cfg(workspace))
        assert rc == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "WriterError"
        assert trained == [os.getpid()]
        assert [p.name for p in out.iterdir()] == []
        _assert_no_child_left()


class TestSplitReadsInCommands:
    """With SPLIT_BYTES lowered so that every workspace file splits, the
    commands that read JSONL embedding sets and token maps write the same
    bytes, and fail with the same message and exit code, at any --threads."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Split reads for any file size; yields the pids forked so far."""
        monkeypatch.setattr(embedstore, "SPLIT_BYTES", 0)
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

    @staticmethod
    def _commands(workspace, out):
        data = workspace / "data"
        views = ["--token-maps", str(data / "token_maps.jsonl"),
                 "--expert-embeddings", str(data / "expert.jsonl")]
        return {
            "train-adapter": ["train-adapter", "--tasks", str(data / "tasks.jsonl"), *views,
                              "--out", str(out / "adapter.ckpt")],
            "match": ["match", "--embeddings", str(data / "expert.jsonl"),
                      "--tasks", str(data / "tasks.jsonl"), "--out", str(out / "preds.jsonl")],
            "fuse": ["fuse", "--checkpoint", str(out / "adapter.ckpt"), *views,
                     "--image-id", _FUSE_ID, "--out", str(out / "fuse" / "fused.json")],
            "embed": ["embed", "--checkpoint", str(data / "expert_head.ckpt"),
                      "--embeddings", str(data / "raw.jsonl"), "--out", str(out / "e.jsonl")],
            "sweep": ["sweep", "--embeddings", str(data / "general.jsonl"),
                      "--split", str(data / "split.json"), "--adapter", str(out / "adapter.ckpt"),
                      *views, "--taus", "0.1", "0.4", "--k", "3", "--n-tasks", "5",
                      "--out", str(out / "sweep")],
        }

    def test_same_bytes_at_any_threads(self, workspace, tmp_path, forks):
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            for name, argv in self._commands(workspace, out).items():
                before = len(forks)
                assert cli.main([*argv, "--threads", threads] + _cfg(workspace)) == 0, name
                # one worker for each JSONL view or token-map file the command reads
                # (fuse reads one image of each: a filtered load, never split)
                split_files = {"match": 1, "embed": 1, "train-adapter": 2, "fuse": 0, "sweep": 3}
                assert len(forks) - before == (split_files[name] if threads == "2" else 0), name
            outputs[threads] = {p.relative_to(out): p.read_bytes()
                                for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(outputs["1"]) == 7  # one output of each command, 2 manifests
        assert outputs["1"] == outputs["2"]

    @pytest.mark.parametrize("command", ["match", "fuse", "train-adapter"])
    def test_one_worker_per_load(self, workspace, tmp_path, forks, command):
        argv = self._commands(workspace, tmp_path)[command]
        checkpoint.save_adapter(fusion.init_adapter(8, 8, seed=0), tmp_path / "adapter.ckpt")
        assert cli.main([*argv, "--threads", "10000"] + _cfg(workspace)) == 0
        # match loads one JSONL view, train-adapter the token maps and the
        # expert set; fuse loads one image of each, never split
        assert len(forks) == {"match": 1, "fuse": 0, "train-adapter": 2}[command]

    @pytest.mark.parametrize("damage", [
        "not UTF-8 in the first half", "not UTF-8 in the second half",
        "carriage return in the second half", "decode error in the second half",
        "dimension change at the second half", "duplicate across the halves",
    ])
    @pytest.mark.parametrize("target", ["expert.jsonl", "token_maps.jsonl"])
    def test_same_error_at_any_threads(self, workspace, tmp_path, capsys, forks, damage,
                                       target):
        data = workspace / "data"
        lines = (data / target).read_bytes().splitlines(keepends=True)
        second = embedstore._split_point(data / target)[1] - 1  # its first line's index
        key = b'"vector": [' if target == "expert.jsonl" else b'"tokens": [['
        if damage == "not UTF-8 in the first half":
            lines[2] = lines[2].replace(b"_", b"\xff", 1)
        elif damage == "not UTF-8 in the second half":
            lines[-2] = lines[-2].replace(b"_", b"\xc3(", 1)
        elif damage == "carriage return in the second half":
            lines[-3] = lines[-3].replace(b", ", b",\r ", 1)
        elif damage == "decode error in the second half":
            lines[-4] = lines[-4][:-9] + b"\n"
        elif damage == "dimension change at the second half":
            lines[second:] = [line.replace(key, key + b"0.5, ") for line in lines[second:]]
        else:
            lines[-1] = lines[1]
        bad = tmp_path / target
        bad.write_bytes(b"".join(lines))
        adapter = tmp_path / "adapter.ckpt"
        checkpoint.save_adapter(fusion.init_adapter(8, 8, seed=0), adapter)
        views = {"expert.jsonl": data / "expert.jsonl", "token_maps.jsonl": data / "token_maps.jsonl"}
        views[target] = bad
        results = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            rc = cli.main(["train-adapter", "--tasks", str(data / "tasks.jsonl"),
                           "--token-maps", str(views["token_maps.jsonl"]),
                           "--expert-embeddings", str(views["expert.jsonl"]),
                           "--out", str(out / "a.ckpt"), "--threads", threads]
                          + _cfg(workspace))
            results.append((rc, capsys.readouterr().err, out.exists()))
        assert results[0] == results[1]
        assert results[0][0] == 3 and not results[0][2]
        message = json.loads(results[0][1])["message"]
        assert message.startswith(f"{bad}") or "duplicate" in message, message
        # at --threads 2: the token maps, then (if they load) the expert set
        assert len(forks) == (2 if target == "expert.jsonl" else 1)

    @_FUZZ
    @given(data=st.data())
    def test_damaged_bytes_at_any_threads(self, workspace, tmp_path, data, monkeypatch):
        monkeypatch.setattr(embedstore, "SPLIT_BYTES", 0)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data.draw(_damaged((workspace / "data" / "general.jsonl").read_bytes())))
        results = []
        for threads in ("1", "2"):
            out = tmp_path / f"s{threads}.json"
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(["split", "--embeddings", str(bad), "--out", str(out),
                               "--threads", threads] + _cfg(workspace))
            results.append((rc, err.getvalue(), out.read_bytes() if out.exists() else None))
        assert results[0] == results[1]
        assert results[0][0] in (0, 3)
        _assert_no_child_left()


def _wait_until(condition, seconds=10):
    """Poll until ``condition()`` is true or ``seconds`` have passed."""
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


def _wait_for(path, seconds=10):
    """Poll until ``path`` exists or ``seconds`` have passed."""
    _wait_until(path.exists, seconds)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
