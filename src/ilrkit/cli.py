"""Command-line entry point wiring all modules into reproducible pipelines.

Outputs are written to a temporary sibling directory and promoted
atomically, so interrupted runs never leave half-written files. Every
output directory carries a manifest.json recording each artifact's
config hash, seed, and tool version. synth and pipeline take --threads:
unless it is 1, a forked worker process runs one job at a time beside the
parent and reports once the job has finished. In synth a job writes the
token maps. In pipeline one job builds and writes the benchmark's task
sets while the parent fits the expert, writes the token maps, the general
view and the ground truth, and builds the adapter-training tasks; a second
job writes the raw view and the expert set and computes recall@1 while the
parent fits the adapter and scores every matcher. Outputs, error messages
and exit codes do not depend on --threads. A command runs with numpy's bundled OpenBLAS at one
thread, whatever the environment asks, and restores the previous count on
return: its matrix products are small (64 columns wide at the default
config), and on a 2-core host two BLAS threads made the default pipeline
1.5 times slower. Exit codes:
0 success, 2 config error (also a flag that would do nothing, or an
--out of the wrong kind), 3 data validation error, 4 numeric divergence
(the adapter's fine-tune), 5 a worker process died.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, checkpoint, dataengine, evalkit, expert, fusion, simcore, synthgen
from .config import (
    ENV_CONFIG,
    PipelineConfig,
    check_problems,
    load_config,
    tau_problems,
    taus_problems,
)
from .embedstore import (
    FORMATS,
    EmbeddingSet,
    jsonl_values,
    load_embedding_set,
    load_jsonl,
    load_token_maps,
    save_embedding_set,
    save_token_maps,
    typed_fields,
)
from .errors import ConfigError, DataValidationError, IlrkitError
from .stage import Job, OutputStage, StageLog

logger = logging.getLogger(__name__)


def _write_ground_truth(path: Path, ground_truth: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(ground_truth):
            fh.write(
                json.dumps({"image_id": image_id, "instance_id": ground_truth[image_id]}) + "\n"
            )


_prediction_fields = typed_fields({"task_id": (str,), "response": (str, int, bool)})
_caption_fields = typed_fields({"query_id": (str,), "caption": (str,)})


def _load_keyed(path: str, build, key: str) -> dict:
    """The (key, value) pairs that ``build`` makes of the lines of a JSONL
    file, as a dict; a key on a second line is a DataValidationError naming
    that line."""
    return dict(load_jsonl(path, build, operator.itemgetter(0), key))


def _load_predictions(path: str) -> evalkit.PredictionLog:
    """The responses of a prediction file by task id, taken as columns when
    every line has its fields and no task_id repeats; otherwise the file is
    read again by ``_load_keyed``, which names the first faulty line. (No
    field takes a float, so orjson's values need no big-integer check.)"""
    rows = jsonl_values(path, _prediction_fields)
    entries = None if rows is None else dict(rows)
    if entries is None or len(entries) != len(rows):
        entries = _load_keyed(path, _prediction_fields, "task_id")
    return evalkit.PredictionLog(entries)


def _needs(args, flag: str, *needed: str) -> None:
    """Reject ``flag`` given without all of ``needed``: it would do nothing."""
    given = [getattr(args, f[2:].replace("-", "_")) for f in (flag, *needed)]
    if given[0] and not all(given[1:]):
        raise ConfigError(f"{flag} needs {' and '.join(needed)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args, config: PipelineConfig) -> None:
    bundle = synthgen.generate(config.synth)
    with OutputStage(args.out, args.threads > 1) as stage:
        h, seed = config.config_hash(), config.synth.seed
        ext = config.format
        token_maps_path = stage.record("token_maps.jsonl", h, seed)
        stage.submit(lambda: save_token_maps(bundle.token_maps, token_maps_path),
                     name="token-map write")
        save_embedding_set(bundle.raw_set, stage.record(f"raw.{ext}", h, seed), ext)
        save_embedding_set(bundle.general_set, stage.record(f"general.{ext}", h, seed), ext)
        _write_ground_truth(stage.record("ground_truth.jsonl", h, seed), bundle.ground_truth)
    print(f"wrote synthetic bundle ({len(bundle.raw_set.image_ids)} images) to {args.out}")


def cmd_split(args, config: PipelineConfig) -> None:
    eset = load_embedding_set(args.embeddings, config.format)
    manifest = dataengine.make_split(eset, args.test_fraction, config.seed)
    with OutputStage(Path(args.out).parent) as stage:
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
    check_problems(tau_problems("--tau", args.tau))
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
    with OutputStage(Path(args.out).parent) as stage:
        path = stage.record(Path(args.out).name, config.config_hash(), config.seed)
        dataengine.save_jsonl(tasks, path)
    relaxed = sum(t.relaxed for t in tasks)
    print(f"wrote {len(tasks)} gallery tasks ({relaxed} relaxed) -> {args.out}")


def cmd_build_detection(args, config: PipelineConfig) -> None:
    check_problems(tau_problems("--tau", args.tau))
    general = load_embedding_set(args.embeddings, config.format)
    tasks = dataengine.build_detection_tasks(
        general, _split_side(args), tau=args.tau, n_tasks=args.n_tasks,
        positive_rate=args.positive_rate, seed=config.seed,
    )
    with OutputStage(Path(args.out).parent) as stage:
        path = stage.record(Path(args.out).name, config.config_hash(), config.seed)
        dataengine.save_jsonl(tasks, path)
    print(f"wrote {len(tasks)} detection tasks -> {args.out}")


def cmd_emit(args, config: PipelineConfig) -> None:
    if args.captions and args.stage != "caption":
        raise ConfigError("--captions needs --stage caption")
    tasks = dataengine.load_gallery_tasks(args.tasks)
    captions = None
    if args.captions:
        captions = _load_keyed(args.captions, _caption_fields, "query_id")
    elif args.stage == "caption":
        captions = dataengine.template_captions(tasks)
    records = dataengine.emit_conversations(tasks, args.stage, captions=captions)
    with OutputStage(Path(args.out).parent) as stage:
        dataengine.save_jsonl(
            records, stage.record(Path(args.out).name, config.config_hash(), config.seed)
        )
    print(f"wrote {len(records)} {args.stage} conversations -> {args.out}")


def cmd_train_expert(args, config: PipelineConfig) -> None:
    raw = load_embedding_set(args.embeddings, config.format)
    if args.split:
        raw = raw.subset(dataengine.load_split(args.split).train_instances)
    head = expert.fit_expert(raw, config=config.expert)
    with OutputStage(Path(args.out).parent) as stage:
        checkpoint.save_expert(
            head, stage.record(Path(args.out).name, config.config_hash(), config.seed),
            seed=config.seed,
        )
    print(f"fitted expert head ({head.w.shape[0]} -> {head.w.shape[1]}) -> {args.out}")


def cmd_embed(args, config: PipelineConfig) -> None:
    head = checkpoint.load_expert(args.checkpoint)
    raw = load_embedding_set(args.embeddings, config.format)
    eset = expert.embed_set(head, raw)
    with OutputStage(Path(args.out).parent) as stage:
        path = stage.record(Path(args.out).name, config.config_hash(), config.seed)
        save_embedding_set(eset, path, config.format)
    print(f"embedded {len(eset.image_ids)} images -> {args.out}")


def _fusion_views(token_maps, expert_set: EmbeddingSet):
    """The token maps and the expert vectors, each keyed by image id. The
    vectors are the float32 rows of the set's matrix, not a copy: fusion
    widens each to float64, which is exact."""
    return (
        {t.image_id: t for t in token_maps},
        dict(zip(expert_set.image_ids, expert_set.matrix())),
    )


def _load_views(args, config: PipelineConfig, only: set[str] | None = None):
    token_maps = load_token_maps(args.token_maps, only)
    return _fusion_views(
        token_maps, load_embedding_set(args.expert_embeddings, config.format, only)
    )


def _adapter(tasks, token_maps, expert_vectors, config: PipelineConfig):
    """The adapter fitted in closed form on ``tasks``, fine-tuned from there
    for ``adapter.epochs`` when that is above 0; the fit; and the seed that
    made the adapter: ``adapter.seed``, which orders the fine-tuning
    batches, if fine-tuning ran, else the top-level seed. The tasks are
    stacked once, for the fit and the fine-tune."""
    stack = fusion.stack_tasks(tasks, token_maps, expert_vectors)
    fit = fusion.fit_adapter(stack)
    if not config.adapter.epochs:
        return fit.adapter, fit, config.seed
    return fusion.train_adapter(fit.adapter, stack, config.adapter), fit, config.adapter.seed


def cmd_train_adapter(args, config: PipelineConfig) -> None:
    tasks = dataengine.load_gallery_tasks(args.tasks)
    adapter, fit, seed = _adapter(tasks, *_load_views(args, config), config)
    with OutputStage(Path(args.out).parent) as stage:
        checkpoint.save_adapter(
            adapter, stage.record(Path(args.out).name, config.config_hash(), seed), seed=seed
        )
    print(f"fitted fusion adapter (scale {fit.scale:g}, {config.adapter.epochs} "
          f"fine-tuning epochs) -> {args.out}")


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
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_match(args, config: PipelineConfig) -> None:
    view = load_embedding_set(args.embeddings, config.format)
    tasks = dataengine.load_gallery_tasks(args.tasks)
    best = evalkit.similarity_matcher(view, args.kind).predict(tasks)
    with OutputStage(Path(args.out).parent) as stage:
        path = stage.record(Path(args.out).name, config.config_hash(), config.seed)
        with open(path, "w", encoding="utf-8") as fh:
            for task, b in zip(tasks, best):
                fh.write('{"task_id": %s, "response": "Image %d"}\n'
                         % (json.dumps(task.task_id), b + 1))
    print(f"matched {len(tasks)} tasks -> {args.out}")


def cmd_evaluate(args, config: PipelineConfig) -> None:
    _needs(args, "--detection-tasks", "--detection-predictions")
    _needs(args, "--detection-predictions", "--detection-tasks")
    _needs(args, "--equal-weight", "--detection-tasks", "--detection-predictions")
    tasks = dataengine.load_gallery_tasks(args.tasks)
    log = _load_predictions(args.predictions)
    report = evalkit.score_matching(tasks, log)
    if args.detection_tasks:
        det_tasks = dataengine.load_detection_tasks(args.detection_tasks)
        det_log = _load_predictions(args.detection_predictions)
        report.detection = evalkit.score_detection(det_tasks, det_log, args.equal_weight)
    with OutputStage(args.out) as stage:
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
        if args.adapter:
            adapter = checkpoint.load_adapter(args.adapter)
            token_maps, vectors = _fusion_views(load_token_maps(args.token_maps), expert_set)
            matchers["fused"] = evalkit.fused_matcher(adapter, token_maps, vectors)
    return matchers


def cmd_sweep(args, config: PipelineConfig) -> None:
    _needs(args, "--adapter", "--token-maps", "--expert-embeddings")
    _needs(args, "--token-maps", "--adapter", "--expert-embeddings")
    check_problems(taus_problems("--taus", args.taus, "threshold of --taus"))
    general = load_embedding_set(args.embeddings, config.format)
    side = _split_side(args)
    matchers = _sweep_matchers(args, config, general)
    tiers = evalkit.sweep_tasks(
        general, side, args.taus, k=args.k, n_tasks=args.n_tasks, seed=config.seed
    )
    result = evalkit.SweepResult.of(evalkit.sweep_accuracies(tiers, matchers))
    with OutputStage(args.out) as stage:
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


def _matching_reports(tasks, matchers) -> dict[str, evalkit.EvalReport]:
    """The matching report of each matcher's predictions for ``tasks``."""
    reports = {}
    for name, matcher in matchers.items():
        best = matcher.predict(tasks)
        log = evalkit.PredictionLog({t.task_id: b for t, b in zip(tasks, best)})
        reports[name] = evalkit.score_matching(tasks, log)
    return reports


def cmd_pipeline(args, config: PipelineConfig) -> None:
    """synth -> split -> build tiers -> train-expert -> train-adapter ->
    evaluate all matchers -> sweep, with one manifest for everything.

    The tiers, detection tasks, conversations and sweep tasks depend on the
    general view alone, so one job builds and writes them and returns what
    the parent scores. Meanwhile the parent fits the expert (milliseconds,
    in closed form), writes the token maps, the general view and the ground
    truth, and builds the adapter-training tasks it fits the adapter on;
    then it waits for the job. The two lanes take about the same time at
    the default config. A second job writes the raw view and the expert set
    and computes both recall@1 values while the parent fits the adapter,
    scores every matcher and writes the reports; it does not outlast the
    parent's stage it overlaps. recall@1 sits in that job because its
    similarity blocks would raise the parent's peak memory. At --threads 1
    each job runs in the parent where it is submitted and keeps its error
    until its result is read, so when a job and the parent's own work both
    fail, the parent's error wins at any --threads. The one exception is
    the adapter-training tasks: their error is kept until the first job's
    result has been read, so that a failure of the benchmark's tasks wins
    over theirs, as when one job built them all."""
    out = Path(args.out)
    stages = StageLog()
    with OutputStage(out, args.threads > 1) as stage:
        h = config.config_hash()
        seed = config.seed
        ext = config.format

        stages.next("generating synthetic bundle")
        bundle = synthgen.generate(config.synth)
        split = dataengine.make_split(bundle.general_set, config.test_fraction, seed)
        dataengine.save_split(split, stage.record("split.json", h, seed))

        taus = sorted({config.tau, *config.taus})
        task_paths = [
            stage.record(name, h, seed)
            for name in (
                *(f"tasks_tau{tau:g}.jsonl" for tau in taus),
                "detection_tasks.jsonl", "conversations_mcq.jsonl", "conversations_caption.jsonl",
            )
        ]
        # the bundle files carry the seed that generated them
        raw_path, general_path, maps_path, truth_path = (
            stage.record(name, h, config.synth.seed)
            for name in (f"raw.{ext}", f"general.{ext}", "token_maps.jsonl", "ground_truth.jsonl")
        )

        def build_and_write_tasks():
            tiers = dataengine.build_gallery_tiers_per_category(
                bundle.general_set, split.test_instances, {tau: f"t{tau:g}-" for tau in taus},
                k=config.k, n_per_category=config.n_tasks, seed=seed,
            )
            tier = tiers[config.tau]
            detection = dataengine.build_detection_tasks(
                bundle.general_set, split.test_instances, tau=config.tau,
                n_tasks=config.n_tasks, positive_rate=config.positive_rate, seed=seed,
            )
            mcq = dataengine.emit_conversations(tier, "match_mcq")
            captions = dataengine.template_captions(tier)
            caption = dataengine.emit_conversations(tier, "caption", captions=captions)
            for path, items in zip(task_paths, [*tiers.values(), detection, mcq, caption]):
                dataengine.save_jsonl(items, path)
            sweep_tiers = evalkit.sweep_tasks(
                bundle.general_set, split.test_instances, config.taus, k=config.k,
                n_tasks=config.n_sweep_tasks, seed=seed,
            )
            return tier, sweep_tiers

        tasks = stage.submit(build_and_write_tasks, name="task building and writes")

        # the expert and the adapter are fitted on the split that seed drew
        stages.next("fitting expert head")
        head = expert.fit_expert(bundle.raw_set.subset(split.train_instances), config=config.expert)
        head_path = stage.record("expert_head.ckpt", h, seed)
        checkpoint.save_expert(head, head_path)
        # the set is embedded with the checkpoint's float32 head, as embed
        # would embed it, not with the float64 head of the fit
        expert_set = expert.embed_set(checkpoint.load_expert(head_path), bundle.raw_set)

        stages.next("writing general-view files")
        save_token_maps(bundle.token_maps, maps_path)
        save_embedding_set(bundle.general_set, general_path, ext)
        _write_ground_truth(truth_path, bundle.ground_truth)

        # the tasks the parent fits the adapter on; their error, if any, is
        # raised once the first job's result has been read, so that the
        # benchmark tasks' error comes first
        stages.next("building adapter-training tasks")
        train = Job.run(functools.partial(
            dataengine.build_gallery_tasks, bundle.general_set, split.train_instances,
            k=config.k, tau=config.tau, n_tasks=config.n_train_tasks, seed=seed + 1,
            task_prefix="a-",
        ))
        # a stage of its own, so that the build's seconds are the build's
        stages.next("waiting for task building")
        tier, sweep_tiers = tasks.result()
        train_tasks = train.result()

        expert_path = stage.record(f"expert.{ext}", h, seed)

        def write_sets_and_recall():
            save_embedding_set(bundle.raw_set, raw_path, ext)
            save_embedding_set(expert_set, expert_path, ext)
            return {
                name: synthgen.recall_at_1(view.subset(split.test_instances))
                for name, view in (("general", bundle.general_set), ("expert", expert_set))
            }

        recall = stage.submit(write_sets_and_recall, name="raw and expert-set writes and recall")

        stages.next("fitting fusion adapter")
        token_maps, expert_vectors = _fusion_views(bundle.token_maps, expert_set)
        adapter, fit, adapter_seed = _adapter(train_tasks, token_maps, expert_vectors, config)
        # fine-tuning adds the seed that ordered its batches
        adapter_seeds = (
            {"seed": seed, "adapter.seed": adapter_seed} if config.adapter.epochs else None)
        checkpoint.save_adapter(
            adapter, stage.record("adapter.ckpt", h, adapter_seed, adapter_seeds)
        )

        stages.next("evaluating matchers")
        matchers = {
            "general": evalkit.similarity_matcher(bundle.general_set),
            "expert": evalkit.similarity_matcher(expert_set),
            "fused": evalkit.fused_matcher(adapter, token_maps, expert_vectors),
        }
        matcher_reports = _matching_reports(tier, matchers)
        sweep = evalkit.SweepResult.of(evalkit.sweep_accuracies(sweep_tiers, matchers))

        # the matcher reports are serialized before the fused one takes the
        # sweep table for report.txt, so report.json holds that table once
        summary = {
            "adapter": {
                "scale": fit.scale,
                "training_accuracy": {f"{s:g}": a for s, a in fit.accuracies.items()},
                "training_images": fit.images,
                "fine_tuning_epochs": config.adapter.epochs,
            },
            "matching_accuracy": {
                name: rep.to_dict() for name, rep in sorted(matcher_reports.items())
            },
            "sweep": sweep.to_dict(),
            "recall_at_1": recall.result(),
        }
        report = matcher_reports["fused"]
        report.sweep = {
            name: {f"{t:g}": a for t, a in row.items()} for name, row in sweep.accuracies.items()
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


@functools.cache
def _openblas_threads():
    """The thread-count setter and getter of the OpenBLAS bundled with
    numpy, or None where that library or its symbols are not found. Looked
    up once per process: opening the library numpy has loaded already
    returns the same library."""
    import ctypes

    package = Path(np.__file__).parent
    for lib in sorted([*package.parent.glob("numpy.libs/libscipy_openblas*"),
                       *package.glob(".dylibs/libscipy_openblas*")]):
        try:
            dll = ctypes.CDLL(str(lib))
            set_threads = dll.scipy_openblas_set_num_threads64_
            get_threads = dll.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread, and
    restore the count it had afterwards."""
    threads = _openblas_threads()
    if threads is None:
        logger.info("BLAS threads not capped: numpy's bundled OpenBLAS was not found")
        yield
        return
    set_threads, get_threads = threads
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


# ---------------------------------------------------------------------------
# argument parsing


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_DIRECTORY_OUTPUTS = frozenset(("synth", "evaluate", "sweep", "pipeline"))


def _check_out(out: Path, is_dir: bool) -> None:
    """Reject an --out of the wrong kind, or under a path that is not a directory."""
    if out.exists() and out.is_dir() != is_dir:
        raise ConfigError(f"--out {out} must be a {'directory' if is_dir else 'file'}")
    existing = next((p for p in out.parents if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")


def _add_common(p: argparse.ArgumentParser, seed: bool = False, threads: bool = False) -> None:
    p.add_argument("--config", help=f"pipeline config JSON (default: ${ENV_CONFIG})")
    if threads:
        p.add_argument("--threads", type=int, default=None, metavar="N",
                       help="1 runs everything in one process; above 1, a forked worker "
                            "builds and writes pipeline's benchmark tasks while the parent "
                            "fits the expert, writes the general-view files and builds the "
                            "adapter-training tasks, and writes the bulk artifacts of "
                            "pipeline and synth while computing goes on (default: the CPUs "
                            "this process may run on)")
    p.add_argument("--format", choices=FORMATS, default=None,
                   help="embedding interchange format override")
    p.add_argument("-v", "--verbose", action="store_true")
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed, which draws the split and the tasks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ilrkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ilrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic dual-view bundle")
    p.add_argument("--out", required=True)
    _add_common(p, threads=True)

    p = sub.add_parser("split", help="identity-disjoint train/test split")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--out", required=True)
    _add_common(p, seed=True)

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
    _add_common(p, seed=True)

    p = sub.add_parser("build-detection", help="single-candidate detection tasks")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--side", choices=("train", "test"), default="test")
    p.add_argument("--tau", type=float, default=dataengine.DEFAULT_TAU)
    p.add_argument("--n-tasks", type=int, default=dataengine.DEFAULT_TASKS_PER_CATEGORY)
    p.add_argument("--positive-rate", type=float, default=0.5)
    p.add_argument("--out", required=True)
    _add_common(p, seed=True)

    p = sub.add_parser("emit", help="emit conversation records for a task file")
    p.add_argument("--tasks", required=True)
    p.add_argument("--stage", choices=dataengine.STAGES, required=True)
    p.add_argument("--captions", help="JSONL of {query_id, caption} with one [SUBJECT] each")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("train-expert", help="fit the toy expert head in closed form")
    p.add_argument("--embeddings", required=True, help="raw-view embedding set")
    p.add_argument("--split", help="restrict the fit to the train side of this split")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("embed", help="embed a raw set with a fitted expert head")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("train-adapter",
                       help="fit the fusion adapter in closed form on gallery tasks, then "
                            "fine-tune it for the config's adapter.epochs (default 0)")
    p.add_argument("--tasks", required=True)
    p.add_argument("--token-maps", required=True)
    p.add_argument("--expert-embeddings", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("fuse", help="dump the fusion output for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--token-maps", required=True)
    p.add_argument("--expert-embeddings", required=True)
    p.add_argument("--image-id", required=True)
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("match", help="feature-similarity predictions for gallery tasks")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--kind", choices=simcore.KINDS, default="cosine")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("evaluate", help="score predictions against tasks")
    p.add_argument("--tasks", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--detection-tasks")
    p.add_argument("--detection-predictions")
    p.add_argument("--equal-weight", action="store_true",
                   help="equal-count mean for the weighted detection accuracy")
    p.add_argument("--out", required=True, help="output directory for report files")
    _add_common(p)

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
    _add_common(p, seed=True)

    p = sub.add_parser("pipeline", help="full synthetic pipeline end to end")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p, seed=True, threads=True)

    return parser


# built once per process: building takes about 50 times as long as parsing
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(
            args.config if args.config is not None else os.environ.get(ENV_CONFIG)
        )
        if getattr(args, "seed", None) is not None:
            config.seed = args.seed
        if args.format is not None:
            config.format = args.format
        if "threads" in args:
            if args.threads is None:
                args.threads = _usable_cpus()
            elif args.threads < 1:
                raise ConfigError("--threads must be >= 1")
        config.validate()
        if args.out is not None:
            _check_out(Path(args.out), args.command in _DIRECTORY_OUTPUTS)
        # looked up when called, so that a rebound cmd_* function is the one run
        command = globals()["cmd_" + args.command.replace("-", "_")]
        with _one_blas_thread():
            command(args, config)
    except IlrkitError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
