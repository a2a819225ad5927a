"""Command-line entry point wiring all modules into reproducible pipelines.

Outputs are written to a temporary sibling directory and promoted
atomically, so interrupted runs never leave half-written files. Every
output directory carries a manifest.json recording each artifact's
config hash, seed, and tool version. Unless --threads is 1, a forked
worker process runs one job at a time beside the parent and reports once
the job has finished: in pipeline one job builds and writes the
general-view tasks while the expert trains and a second writes the
bundle and the expert set while the adapter trains, and in synth a job
writes the token maps. Every other command that reads all of a large
JSONL embedding set or token-map file has a worker decode the second
half of it while the parent decodes the first (see
``embedstore.split_reads``).
Outputs, error messages and exit codes do not depend on --threads. A command
runs with numpy's bundled OpenBLAS at one thread, whatever the
environment asks, and restores the previous count on return: its matrix
products are small (expert batches of 32 by 64), and on a 2-core host
two BLAS threads made the default pipeline 1.5 times slower. Exit codes:
0 success, 2 config error (also a flag that would do nothing, or an
--out of the wrong kind), 3 data validation error, 4 numeric divergence,
5 a worker process died.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, checkpoint, dataengine, evalkit, expert, fusion, simcore, synthgen
from .config import ENV_CONFIG, PipelineConfig, load_config
from .embedstore import (
    FORMATS,
    EmbeddingSet,
    jsonl_lines,
    load_embedding_set,
    load_jsonl,
    load_token_maps,
    parse_json_object,
    read_input,
    save_embedding_set,
    save_token_maps,
    split_reads,
    typed_fields,
)
from .errors import ConfigError, DataValidationError, IlrkitError
from .stage import OutputStage, StageLog

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
    that line. The lines are searched for it only when the dict holds fewer
    items than the file lines."""
    pairs = load_jsonl(path, build)
    by_key = dict(pairs)
    if len(by_key) != len(pairs):
        seen = set()
        for (lineno, _), (k, _) in zip(jsonl_lines(path), pairs):
            if k in seen:
                raise DataValidationError(f"{path}: line {lineno}: duplicate {key} {k!r}")
            seen.add(k)
    return by_key


def _load_predictions(path: str) -> evalkit.PredictionLog:
    return evalkit.PredictionLog(
        _load_keyed(path, _prediction_fields, "task_id"), model_name="file"
    )


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
    head = expert.train_expert(raw, config=config.expert)
    with OutputStage(Path(args.out).parent) as stage:
        checkpoint.save_expert(
            head, stage.record(Path(args.out).name, config.config_hash(), config.expert.seed),
            seed=config.expert.seed,
        )
    print(f"trained expert head ({head.w.shape[0]} -> {head.w.shape[1]}) -> {args.out}")


def cmd_embed(args, config: PipelineConfig) -> None:
    head = checkpoint.load_expert(args.checkpoint)
    raw = load_embedding_set(args.embeddings, config.format)
    eset = expert.embed_set(head, raw)
    with OutputStage(Path(args.out).parent) as stage:
        path = stage.record(Path(args.out).name, config.config_hash(), config.seed)
        save_embedding_set(eset, path, config.format)
    print(f"embedded {len(eset.image_ids)} images -> {args.out}")


def _fusion_views(token_maps, expert_set: EmbeddingSet):
    """The token maps and the float64 expert vectors, each keyed by image id."""
    return (
        {t.image_id: t for t in token_maps},
        dict(zip(expert_set.image_ids, expert_set.matrix().astype(np.float64))),
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
    with OutputStage(Path(args.out).parent) as stage:
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
    general = load_embedding_set(args.embeddings, config.format)
    side = _split_side(args)
    matchers = _sweep_matchers(args, config, general)
    result = evalkit.sweep_difficulty(
        general, side, matchers, taus=tuple(args.taus), k=args.k,
        n_tasks=args.n_tasks, seed=config.seed,
    )
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


def cmd_pipeline(args, config: PipelineConfig) -> None:
    """synth -> split -> build tiers -> train-expert -> train-adapter ->
    evaluate all matchers -> sweep, with one manifest for everything.

    The tiers, detection tasks, conversations and adapter-training tasks
    depend on the general view alone, so one job builds and writes them
    while the parent trains the expert; a second job writes the bundle and
    the expert set while the parent trains the adapter."""
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

        def build_and_write_tasks():
            tiers = {
                tau: dataengine.build_gallery_tasks_per_category(
                    bundle.general_set, split.test_instances, k=config.k, tau=tau,
                    n_per_category=config.n_tasks, seed=seed, task_prefix=f"t{tau:g}-",
                )
                for tau in taus
            }
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
            train_tasks = dataengine.build_gallery_tasks(
                bundle.general_set, split.train_instances, k=config.k, tau=config.tau,
                n_tasks=config.n_train_tasks, seed=seed + 1, task_prefix="a-",
            )
            return tier, train_tasks

        tasks = stage.submit(build_and_write_tasks, name="task building and writes")

        # the expert and the adapter are trained on the split that seed drew
        expert_seeds = {"seed": seed, "expert.seed": config.expert.seed}
        stages.next("training expert head")
        head = expert.train_expert(
            bundle.raw_set.subset(split.train_instances), config=config.expert
        )
        checkpoint.save_expert(
            head, stage.record("expert_head.ckpt", h, config.expert.seed, expert_seeds)
        )
        expert_set = expert.embed_set(head, bundle.raw_set)
        tier, train_tasks = tasks.result()

        # the bundle files carry the seed that generated them
        raw_path, general_path, maps_path, truth_path = (
            stage.record(name, h, config.synth.seed)
            for name in (f"raw.{ext}", f"general.{ext}", "token_maps.jsonl", "ground_truth.jsonl")
        )
        expert_path = stage.record(f"expert.{ext}", h, seed, expert_seeds)

        def write_bundle_and_expert_set():
            save_embedding_set(bundle.raw_set, raw_path, ext)
            save_embedding_set(bundle.general_set, general_path, ext)
            save_token_maps(bundle.token_maps, maps_path)
            _write_ground_truth(truth_path, bundle.ground_truth)
            save_embedding_set(expert_set, expert_path, ext)

        stage.submit(write_bundle_and_expert_set, name="bundle and expert-set writes")

        stages.next("training fusion adapter")
        token_maps, expert_vectors = _fusion_views(bundle.token_maps, expert_set)
        any_map = next(iter(token_maps.values()))
        adapter = fusion.init_adapter(
            expert_set.dimension, any_map.tokens.shape[1], seed=config.adapter.seed
        )
        adapter = fusion.train_adapter(
            adapter, train_tasks, token_maps, expert_vectors, config.adapter
        )
        adapter_seeds = {**expert_seeds, "adapter.seed": config.adapter.seed}
        checkpoint.save_adapter(
            adapter, stage.record("adapter.ckpt", h, config.adapter.seed, adapter_seeds)
        )

        stages.next("evaluating matchers")
        matchers = {
            "general": evalkit.similarity_matcher(bundle.general_set),
            "expert": evalkit.similarity_matcher(expert_set),
            "fused": evalkit.fused_matcher(adapter, token_maps, expert_vectors),
        }
        matcher_reports = {}
        for name, matcher in matchers.items():
            best = matcher.predict(tier)
            log = evalkit.PredictionLog(
                {t.task_id: b for t, b in zip(tier, best)}, model_name=name
            )
            matcher_reports[name] = evalkit.score_matching(tier, log)

        sweep = evalkit.sweep_difficulty(
            bundle.general_set, split.test_instances, matchers, taus=config.taus,
            k=config.k, n_tasks=config.n_sweep_tasks, seed=seed,
        )

        # the matcher reports are serialized before the fused one takes the
        # sweep table for report.txt, so report.json holds that table once
        summary = {
            "matching_accuracy": {
                name: rep.to_dict() for name, rep in sorted(matcher_reports.items())
            },
            "sweep": sweep.to_dict(),
            "recall_at_1": {
                "general": synthgen.recall_at_1(bundle.general_set.subset(split.test_instances)),
                "expert": synthgen.recall_at_1(expert_set.subset(split.test_instances)),
            },
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


def _add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
    p.add_argument("--config", default=os.environ.get(ENV_CONFIG), help="pipeline config JSON")
    p.add_argument("--threads", type=int, default=None, metavar="N",
                   help="1 runs everything in one process; above 1, a forked worker "
                        "builds pipeline's general-view tasks and writes the bulk artifacts "
                        "of pipeline and synth while computing goes on, and decodes the "
                        "second half of each large JSONL embedding set or token-map input "
                        "read in full (default: the CPUs this process may run on)")
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
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="identity-disjoint train/test split")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--out", required=True)
    _add_common(p, seed=True)
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
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_build_galleries)

    p = sub.add_parser("build-detection", help="single-candidate detection tasks")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--side", choices=("train", "test"), default="test")
    p.add_argument("--tau", type=float, default=dataengine.DEFAULT_TAU)
    p.add_argument("--n-tasks", type=int, default=dataengine.DEFAULT_TASKS_PER_CATEGORY)
    p.add_argument("--positive-rate", type=float, default=0.5)
    p.add_argument("--out", required=True)
    _add_common(p, seed=True)
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
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pipeline", help="full synthetic pipeline end to end")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p, seed=True)
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
        if getattr(args, "seed", None) is not None:
            config.seed = args.seed
        if args.format is not None:
            config.format = args.format
        if args.threads is None:
            args.threads = _usable_cpus()
        elif args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        config.validate()
        if args.out is not None:
            _check_out(Path(args.out), args.command in _DIRECTORY_OUTPUTS)
        with _one_blas_thread(), split_reads(args.threads > 1):
            args.func(args, config)
    except IlrkitError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
