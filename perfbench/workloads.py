"""The benchmark's workloads: inputs, op sequences and oracle checks.

Every op is one or two ``ilrkit`` commands run through ``ilrkit.cli.main``
in this process. Set-up writes the benchmark seed into the config file as
``seed``, ``synth.seed``, ``expert.seed`` and ``adapter.seed``; no command
is given ``--seed``.

* ``pipeline_default`` runs ``ilrkit pipeline`` at the default config, the
  job users run. Fusion training, task construction, expert training and
  embedding writes all block its result.
* ``score_loop`` is a closed loop of match+evaluate ops on the general or
  expert view and fuse ops on default-size JSONL artifacts. It covers the
  read side of embedstore, checkpoint loads, per-task matching and scoring.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ilrkit import checkpoint, cli, dataengine, evalkit
from ilrkit.embedstore import EmbeddingSet, TokenFeatureMap, load_embedding_set
from ilrkit.errors import DataValidationError, IlrkitError

TAUS = (0.2, 0.5, 0.8)
SCORE_TAU = 0.5  # tier the accuracy metrics are read at


@dataclass
class Op:
    """One closed-loop operation: one or two ilrkit commands writing to ``out``."""

    kind: str
    out: Path
    commands: list[list[str]]
    params: dict = field(default_factory=dict)


Failures = dict[int, list[str]]  # op index -> oracle findings


def run_command(argv: list[str]) -> int:
    """``ilrkit <argv>``, looked up on the module so a tracer sees it."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


def _run_setup(commands: list[list[str]]) -> None:
    for argv in commands:
        code = run_command(argv)
        if code != 0:
            raise RuntimeError(f"set-up command failed with exit code {code}: {argv}")


def _write_config(path: Path, config: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def seeded_config(seed: int, **sections) -> dict:
    """The workload config with the benchmark seed in all four seed fields."""
    config = {"seed": seed}
    for name in ("synth", "expert", "adapter"):
        config[name] = {"seed": seed, **sections.pop(name, {})}
    config.update(sections)
    return config


# ---------------------------------------------------------------------------
# oracle checks of built tasks, manifests and fused matching


def check_gallery_file(path: Path, general: EmbeddingSet) -> list[str]:
    errors = []
    for task in dataengine.load_gallery_tasks(path):
        try:
            dataengine.check_gallery_task(task, general)
        except DataValidationError as exc:
            errors.append(str(exc))
    return errors


def check_detection_file(path: Path, general: EmbeddingSet) -> list[str]:
    errors = []
    for task in dataengine.load_detection_tasks(path):
        same = general.record(task.query_id).instance_id == general.record(task.gallery_id).instance_id
        if same != task.is_match:
            errors.append(f"{task.task_id}: is_match={task.is_match} but same instance={same}")
    return errors


def check_manifest(out_dir: Path) -> list[str]:
    """Every artifact in ``out_dir`` is listed, and every listed one exists."""
    listed = set(json.loads((out_dir / "manifest.json").read_text(encoding="utf-8")))
    present = {p.name for p in out_dir.iterdir() if p.is_file()} - {"manifest.json"}
    errors = [f"{out_dir.name}/{n}: not in manifest" for n in sorted(present - listed)]
    errors += [f"{out_dir.name}/{n}: in manifest but missing" for n in sorted(listed - present)]
    return errors


def read_token_maps(path: Path, image_ids: set[str]) -> dict[str, np.ndarray]:
    """Token maps of ``image_ids`` only, parsing just the lines needed."""
    id_re = re.compile(r'"image_id":\s*"([^"]+)"')
    maps = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            m = id_re.search(line)
            if m and m.group(1) in image_ids:
                obj = json.loads(line)
                maps[obj["image_id"]] = np.asarray(obj["tokens"], dtype=np.float32)
    return maps


def task_images(tasks) -> set[str]:
    return {i for t in tasks for i in (t.query_id, *t.gallery_ids)}


def fused_accuracy(tasks, adapter, tokens: dict[str, np.ndarray], expert: EmbeddingSet) -> float:
    """Macro accuracy of the fused matcher, as the pipeline reports it."""
    ids = task_images(tasks)
    token_maps = {i: TokenFeatureMap(i, tokens[i]) for i in ids}
    vectors = {i: np.asarray(expert.vector(i), dtype=np.float64) for i in ids}
    matcher = evalkit.fused_matcher(adapter, token_maps, vectors)
    log = evalkit.PredictionLog({t.task_id: matcher(t) for t in tasks})
    return evalkit.score_matching(tasks, log).average


# ---------------------------------------------------------------------------


class Workload:
    """Inputs, op passes and oracle of one workload for one seed."""

    name = ""
    min_passes = 1

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.inputs = inputs
        self.config_path = inputs / "config.json"

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Build every input of the timed phase under ``self.inputs``."""
        _write_config(self.config_path, self.config())

    def ops(self, out: Path, index: int) -> list[Op]:
        """The ops of pass ``index``, writing under ``out``."""
        raise NotImplementedError

    def check(self, ops: list[Op]) -> Failures:
        raise NotImplementedError

    def accuracy(self, ops: list[Op]) -> dict[str, float]:
        """``expert_acc`` and ``fused_acc`` from the outputs of one pass."""
        raise NotImplementedError

    def _cmd(self, *argv: str) -> list[str]:
        return [*argv, "--config", str(self.config_path)]


def _collect(failures: Failures, index: int, errors: list[str]) -> None:
    if errors:
        failures.setdefault(index, []).extend(errors)


class PipelineDefault(Workload):
    name = "pipeline_default"

    def config(self) -> dict:
        return seeded_config(self.seed)

    def ops(self, out: Path, index: int) -> list[Op]:
        run = out / "pipeline"
        return [Op("pipeline", run, [self._cmd("pipeline", "--out", str(run))])]

    def _report(self, run: Path) -> dict[str, float]:
        report = json.loads((run / "report.json").read_text(encoding="utf-8"))
        return {name: rep["average"] for name, rep in report["matching_accuracy"].items()}

    def check(self, ops: list[Op]) -> Failures:
        run = ops[0].out
        general = load_embedding_set(run / "general.jsonl", "jsonl")
        errors = check_manifest(run)
        for tau in TAUS:
            errors += check_gallery_file(run / f"tasks_tau{tau:g}.jsonl", general)
        errors += check_detection_file(run / "detection_tasks.jsonl", general)
        acc = self._report(run)
        if not acc["expert"] > acc["general"]:
            errors.append(f"expert accuracy {acc['expert']} not above general {acc['general']}")
        failures: Failures = {}
        _collect(failures, 0, errors)
        return failures

    def accuracy(self, ops: list[Op]) -> dict[str, float]:
        acc = self._report(ops[0].out)
        return {"expert_acc": acc["expert"], "fused_acc": acc["fused"]}


class ScoreLoop(Workload):
    name = "score_loop"
    # A pass is one shuffled block of the mix; ten passes give 100 ops, which
    # leave ten samples beyond p90.
    min_passes = 10
    MIX = ("general",) * 3 + ("expert",) * 5 + ("fuse",) * 2
    # (tau, kind) rotation of score ops; pass 0 starts each view at SCORE_TAU
    # with cosine, whose expert-view report gives expert_acc.
    SCORE_PARAMS = [(tau, kind) for kind in ("cosine", "dot") for tau in (0.5, 0.2, 0.8)]

    def __init__(self, seed: int, inputs: Path):
        super().__init__(seed, inputs)
        self._oracle_inputs = None
        self._oracles: dict[tuple, tuple[list[int], float]] = {}

    def config(self) -> dict:
        # Adapter and expert quality are not measured here: short runs keep
        # set-up small while producing real artifacts of the default size.
        return seeded_config(self.seed, expert={"epochs": 5}, adapter={"epochs": 2})

    def setup(self) -> None:
        super().setup()
        d = self.inputs
        split = ["--split", str(d / "split.json")]
        commands = [
            self._cmd("synth", "--out", str(d)),
            self._cmd("split", "--embeddings", str(d / "general.jsonl"), "--out", str(d / "split.json")),
            self._cmd("train-expert", "--embeddings", str(d / "raw.jsonl"), *split,
                      "--out", str(d / "expert_head.ckpt")),
            self._cmd("embed", "--checkpoint", str(d / "expert_head.ckpt"),
                      "--embeddings", str(d / "raw.jsonl"), "--out", str(d / "expert.jsonl")),
        ]
        commands += [
            self._cmd("build-galleries", "--embeddings", str(d / "general.jsonl"), *split,
                      "--per-category", "--tau", f"{tau:g}", "--n-tasks", "500",
                      "--out", str(d / f"tasks_tau{tau:g}.jsonl"))
            for tau in TAUS
        ]
        commands += [
            self._cmd("build-galleries", "--embeddings", str(d / "general.jsonl"), *split,
                      "--side", "train", "--n-tasks", "200", "--out", str(d / "train_tasks.jsonl")),
            self._cmd("train-adapter", "--tasks", str(d / "train_tasks.jsonl"),
                      "--token-maps", str(d / "token_maps.jsonl"),
                      "--expert-embeddings", str(d / "expert.jsonl"), "--out", str(d / "adapter.ckpt")),
        ]
        _run_setup(commands)

    def ops(self, out: Path, index: int) -> list[Op]:
        d = self.inputs
        rng = random.Random(f"{self.seed}/{index}")
        kinds = list(self.MIX)
        rng.shuffle(kinds)
        image_ids = [
            json.loads(line)["image_id"]
            for line in (d / "ground_truth.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        turn = {view: index * self.MIX.count(view) for view in ("general", "expert")}
        ops = []
        for i, kind in enumerate(kinds):
            op_dir = out / f"op{i}"
            if kind == "fuse":
                image_id = rng.choice(image_ids)
                op_dir.mkdir(parents=True, exist_ok=True)  # fuse writes no manifest
                ops.append(Op("fuse", op_dir, [self._cmd(
                    "fuse", "--checkpoint", str(d / "adapter.ckpt"),
                    "--token-maps", str(d / "token_maps.jsonl"),
                    "--expert-embeddings", str(d / "expert.jsonl"),
                    "--image-id", image_id, "--out", str(op_dir / "fuse.json"))],
                    {"image_id": image_id}))
                continue
            tau, sim = self.SCORE_PARAMS[turn[kind] % len(self.SCORE_PARAMS)]
            turn[kind] += 1
            tasks = str(d / f"tasks_tau{tau:g}.jsonl")
            ops.append(Op(f"score-{kind}", op_dir, [
                self._cmd("match", "--embeddings", str(d / f"{kind}.jsonl"), "--tasks", tasks,
                          "--kind", sim, "--out", str(op_dir / "predictions.jsonl")),
                self._cmd("evaluate", "--tasks", tasks,
                          "--predictions", str(op_dir / "predictions.jsonl"),
                          "--out", str(op_dir / "report")),
            ], {"view": kind, "tau": tau, "kind": sim}))
        return ops

    def _inputs(self):
        """Views, tiers and token maps the oracle reads, loaded once."""
        if self._oracle_inputs is None:
            d = self.inputs
            views = {v: load_embedding_set(d / f"{v}.jsonl", "jsonl") for v in ("general", "expert")}
            tiers = {tau: dataengine.load_gallery_tasks(d / f"tasks_tau{tau:g}.jsonl") for tau in TAUS}
            tokens = read_token_maps(d / "token_maps.jsonl", set(views["general"].image_ids))
            self._oracle_inputs = views, tiers, tokens
        return self._oracle_inputs

    def check(self, ops: list[Op]) -> Failures:
        views, tiers, tokens = self._inputs()
        failures: Failures = {}
        for i, op in enumerate(ops):
            try:
                if op.kind == "fuse":
                    errors = self._check_fuse(op.out / "fuse.json", tokens[op.params["image_id"]])
                else:
                    p = op.params
                    key = (p["view"], p["tau"], p["kind"])
                    if key not in self._oracles:
                        self._oracles[key] = self._oracle(views[p["view"]], tiers[p["tau"]], p["kind"])
                    errors = self._check_score(op.out, tiers[p["tau"]], *self._oracles[key])
                    errors += check_manifest(op.out) + check_manifest(op.out / "report")
            except (OSError, KeyError, ValueError, IlrkitError) as exc:
                errors = [f"unreadable output: {exc!r}"]
            _collect(failures, i, errors)
        return failures

    def accuracy(self, ops: list[Op]) -> dict[str, float]:
        views, tiers, tokens = self._inputs()
        first = next(
            op for op in ops
            if op.params.get("view") == "expert" and op.params["tau"] == SCORE_TAU
            and op.params["kind"] == "cosine"
        )
        report = json.loads((first.out / "report" / "report.json").read_text(encoding="utf-8"))
        adapter = checkpoint.load_adapter(self.inputs / "adapter.ckpt")
        return {
            "expert_acc": report["average"],
            "fused_acc": fused_accuracy(tiers[SCORE_TAU], adapter, tokens, views["expert"]),
        }

    @staticmethod
    def _oracle(view: EmbeddingSet, tasks, kind: str) -> tuple[list[int], float]:
        """Argmax predictions (lowest index wins ties) and macro accuracy."""
        preds, correct, totals = [], {}, {}
        for task in tasks:
            query = np.asarray(view.vector(task.query_id), dtype=np.float64)
            gallery = np.asarray([view.vector(g) for g in task.gallery_ids], dtype=np.float64)
            scores = gallery @ query
            if kind == "cosine":
                scores = scores / (float(np.linalg.norm(query)) * np.linalg.norm(gallery, axis=1))
            pred = int(np.argmax(scores))
            preds.append(pred)
            totals[task.category] = totals.get(task.category, 0) + 1
            correct[task.category] = correct.get(task.category, 0) + (pred == task.answer_index)
        accuracy = float(np.mean([correct[c] / n for c, n in totals.items()]))
        return preds, accuracy

    @staticmethod
    def _check_score(op_dir: Path, tasks, preds: list[int], accuracy: float) -> list[str]:
        errors = []
        with open(op_dir / "predictions.jsonl", "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        if len(lines) != len(tasks):
            return [f"{len(lines)} predictions for {len(tasks)} tasks"]
        for task, pred, line in zip(tasks, preds, lines):
            if line != {"task_id": task.task_id, "response": f"Image {pred + 1}"}:
                errors.append(f"{task.task_id}: {line['response']!r}, oracle Image {pred + 1}")
        report = json.loads((op_dir / "report" / "report.json").read_text(encoding="utf-8"))
        if abs(report["average"] - accuracy) > 1e-12:
            errors.append(f"evaluate accuracy {report['average']} != oracle {accuracy}")
        return errors

    @staticmethod
    def _check_fuse(path: Path, tokens: np.ndarray) -> list[str]:
        obj = json.loads(path.read_text(encoding="utf-8"))
        attention = np.asarray(obj["attention"])
        projected = np.asarray(obj["projected"])
        fused = np.asarray(obj["fused"])
        errors = []
        if abs(attention.sum() - 1.0) > 1e-9 or np.any(attention < 0):
            errors.append(f"attention sums to {attention.sum()!r}")
        expected = tokens.astype(np.float64) + attention[:, None] * projected[None, :]
        if fused.shape != expected.shape or not np.allclose(fused, expected, rtol=0, atol=1e-12):
            errors.append("fused != tokens + attention (x) projected")
        return errors


WORKLOADS = {cls.name: cls for cls in (PipelineDefault, ScoreLoop)}
