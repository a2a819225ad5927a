import contextlib
import dataclasses
import io
import json
import logging
import os
import re
import signal
import time
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ilrkit import checkpoint, cli, dataengine, embedstore, fusion
from ilrkit.embedstore import load_embedding_set, load_token_maps, save_embedding_set
from ilrkit.errors import DataValidationError

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
        fused = tmp_path / "fused.json"
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
])
@pytest.mark.parametrize("command", ["synth", "split", "fuse"])
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
    }[command]
    assert cli.main(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "ConfigError" and error["message"].startswith(f"{field} must be")
    assert not (tmp_path / "o").exists() and not (tmp_path / "s.json").exists()


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

        def loads(text, *args, **kwargs):
            parsed.append(text)
            return json.loads(text, *args, **kwargs)

        monkeypatch.setattr(embedstore, "json", types.SimpleNamespace(
            loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError))
        assert self._fuse(workspace, tmp_path) == 0
        data = workspace / "data"
        for name in ("token_maps.jsonl", "expert.jsonl"):
            lines = (data / name).read_text().splitlines(keepends=True)
            may_hold = [line for line in lines if f'"{_FUSE_ID}"' in line or "\\" in line]
            assert len(may_hold) == 1 < len(lines)
            assert [line for line in parsed if line in lines] == may_hold

    @pytest.mark.parametrize("line", [
        "not json",
        "[1, 2]",
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

    @pytest.mark.parametrize("target", [
        "predictions", "captions", "tasks", "embeddings", "token_maps", "bin_strings",
    ])
    def test_non_utf8_input_is_3(self, workspace, tmp_path, capsys, target):
        data = workspace / "data"
        bad = tmp_path / "bad"
        if target == "bin_strings":
            save_embedding_set(load_embedding_set(data / "general.jsonl"), bad, "bin")
            blob = bytearray(bad.read_bytes())
            blob[16:18] = b"\xff\xfe"  # the first two bytes of the first image_id
            bad.write_bytes(bytes(blob))
        else:
            text = {
                "predictions": (data / "preds.jsonl").read_bytes(),
                "captions": b'{"query_id": "q", "caption": "[SUBJECT] here"}\n',
                "tasks": (data / "tasks.jsonl").read_bytes(),
                "embeddings": (data / "general.jsonl").read_bytes(),
                "token_maps": (data / "token_maps.jsonl").read_bytes(),
            }[target]
            bad.write_bytes(b"\xff\xfe" + text)
        argv = {
            "predictions": ["evaluate", "--tasks", str(data / "tasks.jsonl"),
                            "--predictions", str(bad), "--out", str(tmp_path / "eval")],
            "captions": ["emit", "--tasks", str(data / "tasks.jsonl"), "--stage", "caption",
                         "--captions", str(bad), "--out", str(tmp_path / "conv.jsonl")],
            "tasks": ["match", "--embeddings", str(data / "general.jsonl"),
                      "--tasks", str(bad), "--out", str(tmp_path / "p.jsonl")],
            "embeddings": ["split", "--embeddings", str(bad),
                           "--out", str(tmp_path / "s.json")],
            "token_maps": ["train-adapter", "--tasks", str(data / "tasks.jsonl"),
                           "--token-maps", str(bad),
                           "--expert-embeddings", str(data / "expert.jsonl"),
                           "--out", str(tmp_path / "adapter.ckpt")],
            "bin_strings": ["split", "--embeddings", str(bad), "--format", "bin",
                            "--out", str(tmp_path / "s.json")],
        }[target]
        _assert_data_error(cli.main(argv + _cfg(workspace)), capsys)

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

    @pytest.mark.parametrize("text", ["not json", "[1, 2]"])
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

    def test_non_utf8_config_is_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff\xfe" + json.dumps(SMALL_CONFIG).encode())
        rc = cli.main(["synth", "--out", str(tmp_path / "o"), "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "ConfigError"


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
        caplog.set_level(logging.INFO, logger="ilrkit.cli")
        assert cli.main(["pipeline", "--out", str(tmp_path / "run"), "-v"]
                        + _cfg(workspace)) == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("pipeline:")]
        assert lines[0] == "pipeline: generating synthetic bundle"
        assert lines[-1].startswith("pipeline: done (evaluating matchers took ")
        assert len(lines) == 6
        for prev, line in zip(lines, lines[1:]):
            stage = prev.removeprefix("pipeline: ").split(" (")[0]
            assert re.fullmatch(rf"pipeline: .+ \({stage} took \d+\.\d\d s\)", line), line

    def test_failed_pipeline_discards_its_stage(self, workspace, tmp_path, capsys,
                                                monkeypatch):
        save_jsonl = dataengine.save_jsonl

        def slow_save_jsonl(*args, **kwargs):
            time.sleep(0.5)  # at --threads 2 the task files' writer is still running
            save_jsonl(*args, **kwargs)

        def fail(*args, **kwargs):
            raise DataValidationError("adapter training failed")

        monkeypatch.setattr(dataengine, "save_jsonl", slow_save_jsonl)
        monkeypatch.setattr(fusion, "train_adapter", fail)
        for threads in ("1", "2"):
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


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
