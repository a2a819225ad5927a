"""Command-line entry point wiring all modules into reproducible pipelines.

Outputs are written to a temporary sibling directory and promoted
atomically, so interrupted runs never leave half-written files. Every
output directory carries a manifest.json recording each artifact's
config hash, seed, and tool version. Unless --threads is 1, a forked
worker process runs one job at a time beside the parent: in pipeline
it builds the general-view tasks and writes the bulk artifacts while
the expert trains, and in synth it writes the token maps. The bytes do
not depend on --threads. Exit codes: 0 success, 2 config error, 3 data
validation error, 4 numeric divergence, 5 a worker process died.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__, checkpoint, dataengine, evalkit, expert, fusion, simcore, synthgen
from .config import ENV_CONFIG, PipelineConfig, load_config
from .embedstore import (
    EmbeddingSet,
    jsonl_lines,
    load_embedding_set,
    load_token_maps,
    read_input,
    save_embedding_set,
    save_token_maps,
)
from .errors import ConfigError, DataValidationError, IlrkitError, WriterError

logger = logging.getLogger(__name__)


class _OutputStage:
    """Collects output files in a temp dir, then promotes them atomically.

    Used as a context manager: the stage is promoted when the block
    completes and discarded when it raises, so a failed command leaves no
    stage directory behind.

    ``submit(compute, then)`` is the stage's worker lane. With ``overlap``
    it runs a job in a forked worker process, one job at a time, so the job
    overlaps the parent's own computation: the worker runs ``value =
    compute()``, sends ``value`` back through a pipe, then runs
    ``then(value)``, typically the writes of bulk artifacts. ``result()`` on
    the returned handle waits for ``value``. A fork shares the parent's
    memory copy-on-write and needs nothing pickled but ``value``, so a job
    may be any callable. Numpy's OpenBLAS is fork-safe, so a job may compute
    with numpy; a job must not depend on anything the parent does after the
    fork. The worker's exception is sent back through the same pipe and
    re-raised in the parent, by ``result()`` for ``compute`` and by the next
    ``submit`` or ``promote`` for ``then``. ``promote`` waits for the worker
    before it moves a file; ``discard`` kills a worker that is still running
    before it removes the stage. A worker that dies before it reports
    raises ``WriterError``. Without overlap, or without ``os.fork``
    (Windows), every job runs inline.

    ``pickle``, ``signal`` and ``threading`` are imported where they are
    used: the import time of this module counts in every command.
    """

    def __init__(self, out_dir: Path, overlap: bool = False):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.mkdtemp(prefix=".stage-", dir=self.out_dir)
        self.manifest: dict[str, dict] = {}
        self._overlap = overlap and hasattr(os, "fork")
        self._job: _Job | None = None  # the forked job that may still run

    def path(self, name: str) -> Path:
        return Path(self._tmp) / name

    def record(self, name: str, config_hash: str, seed: int) -> Path:
        self.manifest[name] = {
            "config_hash": config_hash,
            "seed": seed,
            "version": __version__,
        }
        return self.path(name)

    def submit(self, compute, then=None, name: str = "job") -> "_Job":
        """Run ``value = compute()``, then ``then(value)`` unless ``then`` is
        None: in a worker once the previous job has finished, or inline
        without overlap. ``name`` labels the worker's log line."""
        if not self._overlap:
            value = compute()
            if then is not None:
                then(value)
            return _Job(name, value)
        self._wait()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _work(write_fd, compute, then)  # never returns
        os.close(write_fd)
        self._job = _Job(name, pid=pid, pipe=os.fdopen(read_fd, "rb"))
        return self._job

    def _wait(self) -> None:
        """Wait for the job, if any, and re-raise the exception it sent."""
        job, self._job = self._job, None
        if job is not None:
            job.wait()

    def promote(self) -> None:
        self._wait()
        manifest_path = self.out_dir / "manifest.json"
        existing = {}
        if manifest_path.exists():
            data = read_input(manifest_path)
            try:
                existing = json.loads(data.decode("utf-8"))
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
                raise DataValidationError(f"{manifest_path}: malformed manifest: {exc}") from exc
            if not isinstance(existing, dict):
                raise DataValidationError(f"{manifest_path}: manifest is not a JSON object")
        existing.update(self.manifest)
        for name in self.manifest:
            os.replace(self.path(name), self.out_dir / name)
        tmp_manifest = Path(self._tmp) / "manifest.json"
        tmp_manifest.write_text(
            json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp_manifest, manifest_path)
        os.rmdir(self._tmp)

    def discard(self) -> None:
        job, self._job = self._job, None
        if job is not None:
            job.kill()
        shutil.rmtree(self._tmp, ignore_errors=True)

    def __enter__(self) -> "_OutputStage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            try:
                self.promote()
            except BaseException:
                self.discard()
                raise
        else:
            self.discard()


class _Job:
    """The handle ``_OutputStage.submit`` returns.

    An inline job holds its value. A forked job holds the worker's pid and
    the read end of its pipe, on which the worker sends up to two reports,
    each a pickled ``(ok, payload, seconds)``: the value of ``compute`` or
    its exception, then, if ``compute`` succeeded, ``None`` or the exception
    of ``then``. ``seconds`` is the worker's time since the job started.
    """

    def __init__(self, name: str, value=None, pid: int | None = None, pipe=None):
        self.name = name
        self._value = value
        self._error: BaseException | None = None
        self._pid = pid
        self._pipe = pipe
        self._pending = pid is not None  # the value has not been received yet
        self._sent_after = 0.0  # the worker's seconds when it sent the value

    def result(self):
        """The value of ``compute``, once the worker has sent it; the
        exception ``compute`` raised is re-raised."""
        if self._pending:
            self._pending = False
            report = self._receive()
            if report is None:
                self._error = self._died()
            elif report[0]:
                _, self._value, self._sent_after = report
            else:
                self._reap()  # the worker exits after reporting a failed compute
                self._error = report[1]
        if self._error is not None:
            raise self._error
        return self._value

    def wait(self) -> None:
        """Wait for the job to finish and re-raise the exception it sent."""
        self.result()
        if self._pid is None:
            return
        report = self._receive()
        if report is None:
            raise self._died()
        self._reap()
        ok, payload, seconds = report
        if not ok:
            raise payload
        logger.info("worker: %s took %.2f s (result sent after %.2f s)",
                    self.name, seconds, self._sent_after)

    def kill(self) -> None:
        """Kill and reap the worker if it may still run."""
        if self._pid is not None:
            import signal

            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _receive(self) -> tuple | None:
        """The worker's next report, or None if it died before sending it."""
        import pickle

        try:
            return pickle.load(self._pipe)
        except Exception:  # end of pipe or a truncated report
            return None

    def _died(self) -> WriterError:
        pid = self._pid
        status = self._reap()
        return WriterError(f"worker process {pid} died before it finished "
                           f"(wait status {status})")

    def _reap(self) -> int:
        self._pipe.close()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return status


def _work(fd: int, compute, then) -> None:
    """The body of a forked worker: runs the job, reports through the pipe
    ``fd``, and exits without returning or flushing anything of the parent's.
    A value can be far larger than a pipe holds (about 0.9 MB of tasks
    against 64 KB on Linux), and the parent reads it only when it needs it,
    so a second thread sends it while ``then`` runs."""
    import pickle
    import threading

    status = 1  # 0 once every report is sent
    try:
        start = time.perf_counter()
        with os.fdopen(fd, "wb") as pipe:

            def send(data: bytes) -> None:
                pipe.write(data)
                pipe.flush()

            try:
                value = compute()
                data = pickle.dumps((True, value, time.perf_counter() - start))
            except BaseException as exc:
                send(_failure(exc, time.perf_counter() - start))
                status = 0
                return
            sender = threading.Thread(target=send, args=(data,))
            sender.start()
            try:
                if then is not None:
                    then(value)
                outcome = pickle.dumps((True, None, time.perf_counter() - start))
            except BaseException as exc:
                outcome = _failure(exc, time.perf_counter() - start)
            sender.join()
            send(outcome)
            status = 0
    finally:
        os._exit(status)


def _failure(exc: BaseException, seconds: float) -> bytes:
    """The report of a failed job. An exception that does not survive a
    pickle round trip goes as a ``RuntimeError`` carrying its text."""
    import pickle

    try:
        data = pickle.dumps((False, exc, seconds))
        pickle.loads(data)
    except Exception:
        data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}"), seconds))
    return data


class _StageLog:
    """Logs each pipeline stage as it starts, with the seconds the previous
    stage took. Logs go to stderr and never into an artifact."""

    def __init__(self):
        self._stage: str | None = None
        self._started = 0.0

    def next(self, stage: str) -> None:
        now = time.perf_counter()
        if self._stage is None:
            logger.info("pipeline: %s", stage)
        else:
            logger.info(
                "pipeline: %s (%s took %.2f s)", stage, self._stage, now - self._started
            )
        self._stage, self._started = stage, now


def _write_ground_truth(path: Path, ground_truth: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(ground_truth):
            fh.write(
                json.dumps({"image_id": image_id, "instance_id": ground_truth[image_id]}) + "\n"
            )


def _load_predictions(path: Path, model_name: str = "file") -> evalkit.PredictionLog:
    entries: dict[str, str | int] = {}
    for lineno, line in jsonl_lines(path):
        try:
            obj = json.loads(line)
            task_id, response = obj["task_id"], obj["response"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataValidationError(f"{path}: line {lineno}: {exc}") from exc
        if not isinstance(task_id, str) or not isinstance(response, (str, int)):
            raise DataValidationError(
                f"{path}: line {lineno}: task_id must be a string and response "
                "a string, an integer or a boolean"
            )
        entries[task_id] = response
    return evalkit.PredictionLog(entries=entries, model_name=model_name)


def _load_captions(path: Path) -> dict[str, str]:
    captions: dict[str, str] = {}
    for lineno, line in jsonl_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"{path}: line {lineno}: {exc}") from exc
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("query_id"), str)
            and isinstance(obj.get("caption"), str)
        ):
            raise DataValidationError(
                f"{path}: line {lineno}: expected an object with string "
                "'query_id' and 'caption'"
            )
        captions[obj["query_id"]] = obj["caption"]
    return captions


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args, config: PipelineConfig) -> None:
    bundle = synthgen.generate(config.synth)
    with _OutputStage(args.out, args.threads > 1) as stage:
        h, seed = config.config_hash(), config.synth.seed
        ext = config.format
        token_maps_path = stage.record("token_maps.jsonl", h, seed)
        stage.submit(lambda: save_token_maps(bundle.token_maps, token_maps_path),
                     name="token-map write")
        save_embedding_set(bundle.raw_set, stage.record(f"raw.{ext}", h, seed), ext)
        save_embedding_set(bundle.general_set, stage.record(f"general.{ext}", h, seed), ext)
        _write_ground_truth(stage.record("ground_truth.jsonl", h, seed), bundle.ground_truth)
    print(f"wrote synthetic bundle ({len(bundle.raw_set.records)} images) to {args.out}")


def cmd_split(args, config: PipelineConfig) -> None:
    eset = load_embedding_set(args.embeddings, config.format)
    manifest = dataengine.make_split(eset, args.test_fraction, config.seed)
    with _OutputStage(Path(args.out).parent) as stage:
        path = stage.record(Path(args.out).name, config.config_hash(), config.seed)
        dataengine.save_split(manifest, path)
    print(
        f"split {len(manifest.train_instances)} train / "
        f"{len(manifest.test_instances)} test instances -> {args.out}"
    )


def _split_side(args) -> frozenset[str]:
    manifest = dataengine.load_split(args.split)
    return manifest.test_instances if args.side == "test" else manifest.train_instances


def cmd_build_galleries(args, config: PipelineConfig) -> None:
    if args.k < 2:
        raise ConfigError("k must be >= 2 (use build-detection for K=1)")
    general = load_embedding_set(args.embeddings, config.format)
    if args.per_category:
        tasks = dataengine.build_gallery_tasks_per_category(
            general, _split_side(args), k=args.k, tau=args.tau,
            n_per_category=args.n_tasks, seed=config.seed, hardest=args.hardest,
        )
    else:
        tasks = dataengine.build_gallery_tasks(
            general, _split_side(args), k=args.k, tau=args.tau,
            n_tasks=args.n_tasks, seed=config.seed, hardest=args.hardest,
        )
    with _OutputStage(Path(args.out).parent) as stage:
        path = stage.record(Path(args.out).name, config.config_hash(), config.seed)
        dataengine.save_jsonl(tasks, path)
    relaxed = sum(t.relaxed for t in tasks)
    print(f"wrote {len(tasks)} gallery tasks ({relaxed} relaxed) -> {args.out}")


def cmd_build_detection(args, config: PipelineConfig) -> None:
    general = load_embedding_set(args.embeddings, config.format)
    tasks = dataengine.build_detection_tasks(
        general, _split_side(args), tau=args.tau, n_tasks=args.n_tasks,
        positive_rate=args.positive_rate, seed=config.seed,
    )
    with _OutputStage(Path(args.out).parent) as stage:
        path = stage.record(Path(args.out).name, config.config_hash(), config.seed)
        dataengine.save_jsonl(tasks, path)
    print(f"wrote {len(tasks)} detection tasks -> {args.out}")


def cmd_emit(args, config: PipelineConfig) -> None:
    tasks = dataengine.load_gallery_tasks(args.tasks)
    captions = None
    if args.stage == "caption":
        if args.captions:
            captions = _load_captions(Path(args.captions))
        else:
            captions = dataengine.template_captions(tasks)
    records = dataengine.emit_conversations(tasks, args.stage, captions=captions)
    with _OutputStage(Path(args.out).parent) as stage:
        dataengine.save_jsonl(
            records, stage.record(Path(args.out).name, config.config_hash(), config.seed)
        )
    print(f"wrote {len(records)} {args.stage} conversations -> {args.out}")


def cmd_train_expert(args, config: PipelineConfig) -> None:
    raw = load_embedding_set(args.embeddings, config.format)
    if args.split:
        side = dataengine.load_split(args.split).train_instances
        keep = [rec for rec in raw.records if rec.instance_id in side]
        raw = raw.__class__.from_records(raw.encoder_name, keep)
    head = expert.train_expert(raw, config=config.expert)
    with _OutputStage(Path(args.out).parent) as stage:
        checkpoint.save_expert(
            head, stage.record(Path(args.out).name, config.config_hash(), config.expert.seed),
            seed=config.expert.seed,
        )
    print(f"trained expert head ({head.w.shape[0]} -> {head.w.shape[1]}) -> {args.out}")


def cmd_embed(args, config: PipelineConfig) -> None:
    head = checkpoint.load_expert(args.checkpoint)
    raw = load_embedding_set(args.embeddings, config.format)
    eset = expert.embed_set(head, raw)
    with _OutputStage(Path(args.out).parent) as stage:
        path = stage.record(Path(args.out).name, config.config_hash(), config.seed)
        save_embedding_set(eset, path, config.format)
    print(f"embedded {len(eset.records)} images -> {args.out}")


def _fusion_views(token_maps, expert_set: EmbeddingSet):
    """The token maps and the float64 expert vectors, each keyed by image id."""
    return (
        {t.image_id: t for t in token_maps},
        {rec.image_id: np.asarray(rec.vector, dtype=np.float64) for rec in expert_set.records},
    )


def _load_views(args, config: PipelineConfig, only: set[str] | None = None):
    token_maps = load_token_maps(args.token_maps, only)
    return _fusion_views(
        token_maps, load_embedding_set(args.expert_embeddings, config.format, only)
    )


def cmd_train_adapter(args, config: PipelineConfig) -> None:
    tasks = dataengine.load_gallery_tasks(args.tasks)
    token_maps, expert_vectors = _load_views(args, config)
    any_map = next(iter(token_maps.values()))
    expert_dim = len(next(iter(expert_vectors.values())))
    adapter = fusion.init_adapter(
        expert_dim, any_map.tokens.shape[1], seed=config.adapter.seed
    )
    adapter = fusion.train_adapter(adapter, tasks, token_maps, expert_vectors, config.adapter)
    with _OutputStage(Path(args.out).parent) as stage:
        checkpoint.save_adapter(
            adapter, stage.record(Path(args.out).name, config.config_hash(), config.adapter.seed),
            seed=config.adapter.seed,
        )
    print(f"trained fusion adapter -> {args.out}")


def cmd_fuse(args, config: PipelineConfig) -> None:
    adapter = checkpoint.load_adapter(args.checkpoint)
    # only the lines and records that may hold the image are parsed and validated
    token_maps, expert_vectors = _load_views(args, config, only={args.image_id})
    if args.image_id not in token_maps or args.image_id not in expert_vectors:
        raise DataValidationError(f"no token map or expert vector for image {args.image_id!r}")
    out = fusion.fuse(adapter, token_maps[args.image_id], expert_vectors[args.image_id])
    obj = {
        "image_id": args.image_id,
        "attention": [float(a) for a in out.attention],
        "projected": [float(x) for x in out.projected],
        "fused": [[float(x) for x in row] for row in out.fused],
    }
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_match(args, config: PipelineConfig) -> None:
    view = load_embedding_set(args.embeddings, config.format)
    tasks = dataengine.load_gallery_tasks(args.tasks)
    matcher = evalkit.similarity_matcher(view, args.kind)
    with _OutputStage(Path(args.out).parent) as stage:
        path = stage.record(Path(args.out).name, config.config_hash(), config.seed)
        with open(path, "w", encoding="utf-8") as fh:
            for task in tasks:
                fh.write(
                    json.dumps({"task_id": task.task_id, "response": f"Image {matcher(task) + 1}"})
                    + "\n"
                )
    print(f"matched {len(tasks)} tasks -> {args.out}")


def cmd_evaluate(args, config: PipelineConfig) -> None:
    tasks = dataengine.load_gallery_tasks(args.tasks)
    log = _load_predictions(Path(args.predictions))
    report = evalkit.score_matching(tasks, log)
    if args.detection_tasks and args.detection_predictions:
        det_tasks = dataengine.load_detection_tasks(args.detection_tasks)
        det_log = _load_predictions(Path(args.detection_predictions))
        report.detection = evalkit.score_detection(det_tasks, det_log, args.equal_weight)
    with _OutputStage(args.out) as stage:
        h = config.config_hash()
        stage.record("report.json", h, config.seed).write_text(report.to_json(), encoding="utf-8")
        stage.record("report.txt", h, config.seed).write_text(
            report.render_table(), encoding="utf-8"
        )
    print(report.render_table())


def _sweep_matchers(args, config: PipelineConfig, general):
    matchers = {"general": evalkit.similarity_matcher(general)}
    if args.expert_embeddings:
        expert_set = load_embedding_set(args.expert_embeddings, config.format)
        matchers["expert"] = evalkit.similarity_matcher(expert_set)
        if args.adapter and args.token_maps:
            adapter = checkpoint.load_adapter(args.adapter)
            token_maps, vectors = _fusion_views(load_token_maps(args.token_maps), expert_set)
            matchers["fused"] = evalkit.fused_matcher(adapter, token_maps, vectors)
    return matchers


def cmd_sweep(args, config: PipelineConfig) -> None:
    general = load_embedding_set(args.embeddings, config.format)
    side = _split_side(args)
    matchers = _sweep_matchers(args, config, general)
    result = evalkit.sweep_difficulty(
        general, side, matchers, taus=tuple(args.taus), k=args.k,
        n_tasks=args.n_tasks, seed=config.seed,
    )
    with _OutputStage(args.out) as stage:
        h = config.config_hash()
        stage.record("sweep.json", h, config.seed).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        if args.emit_plot_data:
            series = {
                name: {"x": sorted(row), "y": [row[t] for t in sorted(row)]}
                for name, row in result.accuracies.items()
            }
            stage.record("sweep_plot.json", h, config.seed).write_text(
                json.dumps(series, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
    for name, row in sorted(result.accuracies.items()):
        cells = ", ".join(f"tau={t:g}: {100 * a:.1f}%" for t, a in sorted(row.items()))
        print(f"{name}: {cells}")


def cmd_pipeline(args, config: PipelineConfig) -> None:
    """synth -> split -> build tiers -> train-expert -> train-adapter ->
    evaluate all matchers -> sweep, with one manifest for everything.

    The tiers, detection tasks, conversations and adapter-training tasks
    depend on the general view alone, so one job builds them and writes
    them with the bundle while the parent trains the expert."""
    out = Path(args.out)
    stages = _StageLog()
    with _OutputStage(out, args.threads > 1) as stage:
        h = config.config_hash()
        seed = config.seed
        ext = config.format

        stages.next("generating synthetic bundle")
        bundle = synthgen.generate(config.synth)
        split = dataengine.make_split(bundle.general_set, config.test_fraction, seed)
        dataengine.save_split(split, stage.record("split.json", h, seed))

        stages.next("building benchmark tiers")
        taus = sorted({config.tau, *config.taus})
        raw_path, general_path, maps_path, truth_path, *task_paths = (
            stage.record(name, h, seed)
            for name in (
                f"raw.{ext}", f"general.{ext}", "token_maps.jsonl", "ground_truth.jsonl",
                *(f"tasks_tau{tau:g}.jsonl" for tau in taus),
                "detection_tasks.jsonl", "conversations_mcq.jsonl", "conversations_caption.jsonl",
            )
        )
        task_files = []  # the items of each of task_paths, built by the job

        def build_tasks():
            tiers = {
                tau: dataengine.build_gallery_tasks_per_category(
                    bundle.general_set, split.test_instances, k=config.k, tau=tau,
                    n_per_category=config.n_tasks, seed=seed, task_prefix=f"t{tau:g}-",
                )
                for tau in taus
            }
            tier = tiers[config.tau]
            task_files.extend(tiers.values())
            task_files.append(dataengine.build_detection_tasks(
                bundle.general_set, split.test_instances, tau=config.tau,
                n_tasks=config.n_tasks, positive_rate=config.positive_rate, seed=seed,
            ))
            task_files.append(dataengine.emit_conversations(tier, "match_mcq"))
            captions = dataengine.template_captions(tier)
            task_files.append(dataengine.emit_conversations(tier, "caption", captions=captions))
            train_tasks = dataengine.build_gallery_tasks(
                bundle.general_set, split.train_instances, k=config.k, tau=config.tau,
                n_tasks=config.n_train_tasks, seed=seed + 1, task_prefix="a-",
            )
            return tier, train_tasks

        def write_bundle_and_tasks(_):
            save_embedding_set(bundle.raw_set, raw_path, ext)
            save_embedding_set(bundle.general_set, general_path, ext)
            save_token_maps(bundle.token_maps, maps_path)
            _write_ground_truth(truth_path, bundle.ground_truth)
            for path, items in zip(task_paths, task_files):
                dataengine.save_jsonl(items, path)

        tasks = stage.submit(build_tasks, write_bundle_and_tasks,
                             name="task building and bundle writes")

        stages.next("training expert head")
        train_raw = bundle.raw_set.__class__.from_records(
            "raw", [r for r in bundle.raw_set.records if r.instance_id in split.train_instances]
        )
        head = expert.train_expert(train_raw, config=config.expert)
        checkpoint.save_expert(head, stage.record("expert_head.ckpt", h, config.expert.seed))
        expert_set = expert.embed_set(head, bundle.raw_set)
        tier, train_tasks = tasks.result()

        stages.next("training fusion adapter")
        token_maps, expert_vectors = _fusion_views(bundle.token_maps, expert_set)
        any_map = next(iter(token_maps.values()))
        adapter = fusion.init_adapter(
            expert_set.dimension, any_map.tokens.shape[1], seed=config.adapter.seed
        )
        adapter = fusion.train_adapter(
            adapter, train_tasks, token_maps, expert_vectors, config.adapter
        )
        checkpoint.save_adapter(adapter, stage.record("adapter.ckpt", h, config.adapter.seed))
        expert_path = stage.record(f"expert.{ext}", h, seed)
        stage.submit(lambda: save_embedding_set(expert_set, expert_path, ext),
                     name="expert-set write")

        stages.next("evaluating matchers")
        matchers = {
            "general": evalkit.similarity_matcher(bundle.general_set),
            "expert": evalkit.similarity_matcher(expert_set),
            "fused": evalkit.fused_matcher(adapter, token_maps, expert_vectors),
        }
        matcher_reports = {}
        for name, matcher in matchers.items():
            log = evalkit.PredictionLog({t.task_id: matcher(t) for t in tier}, model_name=name)
            matcher_reports[name] = evalkit.score_matching(tier, log)

        sweep = evalkit.sweep_difficulty(
            bundle.general_set, split.test_instances, matchers, taus=config.taus,
            k=config.k, n_tasks=config.n_sweep_tasks, seed=seed,
        )

        report = matcher_reports["fused"]
        report.sweep = {
            name: {f"{t:g}": a for t, a in row.items()} for name, row in sweep.accuracies.items()
        }
        summary = {
            "matching_accuracy": {
                name: rep.to_dict() for name, rep in sorted(matcher_reports.items())
            },
            "sweep": sweep.to_dict(),
            "recall_at_1": {
                "general": synthgen.recall_at_1(
                    EmbeddingSet.from_records(
                        "general",
                        [
                            r for r in bundle.general_set.records
                            if r.instance_id in split.test_instances
                        ],
                    )
                ),
                "expert": synthgen.recall_at_1(
                    EmbeddingSet.from_records(
                        "expert",
                        [r for r in expert_set.records if r.instance_id in split.test_instances],
                    )
                ),
            },
        }
        stage.record("report.json", h, seed).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        stage.record("report.txt", h, seed).write_text(report.render_table(), encoding="utf-8")
    stages.next("done")

    fused_avg = matcher_reports["fused"].average
    general_avg = matcher_reports["general"].average
    print(
        f"pipeline complete: general {100 * general_avg:.1f}% / expert "
        f"{100 * matcher_reports['expert'].average:.1f}% / fused {100 * fused_avg:.1f}% "
        f"matching accuracy at tau={config.tau:g} -> {out}"
    )


# ---------------------------------------------------------------------------
# argument parsing


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=os.environ.get(ENV_CONFIG), help="pipeline config JSON")
    p.add_argument("--threads", type=int, default=None, metavar="N",
                   help="1 runs everything in one process; above 1, a forked worker "
                        "builds pipeline's general-view tasks and writes the bulk artifacts "
                        "of pipeline and synth while computing goes on "
                        "(default: the CPUs this process may run on)")
    p.add_argument("--format", choices=("jsonl", "bin"), default=None,
                   help="embedding interchange format override")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ilrkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ilrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic dual-view bundle")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="identity-disjoint train/test split")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("build-galleries", help="difficulty-controlled gallery tasks")
    p.add_argument("--embeddings", required=True, help="general-view embedding set")
    p.add_argument("--split", required=True)
    p.add_argument("--side", choices=("train", "test"), default="test")
    p.add_argument("--k", type=int, default=dataengine.DEFAULT_K)
    p.add_argument("--tau", type=float, default=dataengine.DEFAULT_TAU)
    p.add_argument("--n-tasks", type=int, default=dataengine.DEFAULT_TASKS_PER_CATEGORY)
    p.add_argument("--hardest", action="store_true",
                   help="take the top-(k-1) most similar distractors instead of sampling")
    p.add_argument("--per-category", action="store_true",
                   help="build n-tasks for every category, distractors within category")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build_galleries)

    p = sub.add_parser("build-detection", help="single-candidate detection tasks")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--side", choices=("train", "test"), default="test")
    p.add_argument("--tau", type=float, default=dataengine.DEFAULT_TAU)
    p.add_argument("--n-tasks", type=int, default=dataengine.DEFAULT_TASKS_PER_CATEGORY)
    p.add_argument("--positive-rate", type=float, default=0.5)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build_detection)

    p = sub.add_parser("emit", help="emit conversation records for a task file")
    p.add_argument("--tasks", required=True)
    p.add_argument("--stage", choices=dataengine.STAGES, required=True)
    p.add_argument("--captions", help="JSONL of {query_id, caption} with one [SUBJECT] each")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("train-expert", help="train the toy expert head")
    p.add_argument("--embeddings", required=True, help="raw-view embedding set")
    p.add_argument("--split", help="restrict training to the train side of this split")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train_expert)

    p = sub.add_parser("embed", help="embed a raw set with a trained expert head")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train-adapter", help="train the fusion adapter on gallery tasks")
    p.add_argument("--tasks", required=True)
    p.add_argument("--token-maps", required=True)
    p.add_argument("--expert-embeddings", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train_adapter)

    p = sub.add_parser("fuse", help="dump the fusion output for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--token-maps", required=True)
    p.add_argument("--expert-embeddings", required=True)
    p.add_argument("--image-id", required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("match", help="feature-similarity predictions for gallery tasks")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--kind", choices=simcore.KINDS, default="cosine")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("evaluate", help="score predictions against tasks")
    p.add_argument("--tasks", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--detection-tasks")
    p.add_argument("--detection-predictions")
    p.add_argument("--equal-weight", action="store_true",
                   help="equal-count mean for the weighted detection accuracy")
    p.add_argument("--out", required=True, help="output directory for report files")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="difficulty sweep over tau tiers")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--side", choices=("train", "test"), default="test")
    p.add_argument("--expert-embeddings")
    p.add_argument("--adapter")
    p.add_argument("--token-maps")
    p.add_argument("--taus", type=float, nargs="+", default=[0.2, 0.5, 0.8])
    p.add_argument("--k", type=int, default=dataengine.DEFAULT_K)
    p.add_argument("--n-tasks", type=int, default=200)
    p.add_argument("--emit-plot-data", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pipeline", help="full synthetic pipeline end to end")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.format is not None:
            config.format = args.format
        if args.threads is None:
            args.threads = _usable_cpus()
        elif args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        config.validate()
        args.func(args, config)
    except IlrkitError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
