"""Difficulty-controlled benchmark task construction and conversation formats.

Builds gallery (multiple-choice) and detection (yes/no) tasks whose
distractors are drawn from a similarity-thresholded candidate pool,
maintains identity-disjoint train/test splits, emits two-stage
conversation records, and parses free-text answers back for scoring. Task
and split files are decoded by embedstore's JSON readers.

Tasks are built in blocks of 64. Each block draws all its random numbers
at once, one array of uniforms from the stream (global seed, block
ordinal), and task t reads row t % 64 of its block's array, so task lists
are reproducible, independent of scheduling, and a build of n tasks is the
first n tasks of any longer build. Every choice (query, positive,
distractors by Floyd's algorithm, gallery order) is an array operation over
the block. The gallery builder makes every difficulty tier of a side in one
pass over the blocks: every tier reads the same row of uniforms, so a
task's query and positive are the same in every tier, and its row of query
cosines and other-instance mask are made once; each tier compares the
block with its tau. A task's pool is a boolean mask over its row; only the
candidates a task ranks (a relaxed task's, the detection fallback,
``hardest``) are sorted, by (similarity desc, image_id asc), with one
lexsort per block.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .embedstore import (
    EmbeddingSet,
    jsonl_values,
    load_jsonl,
    orjson_exact,
    parse_json_object,
    read_input,
    typed_fields,
)
from .errors import DataValidationError

DEFAULT_K = 5
DEFAULT_TAU = 0.5
DEFAULT_TASKS_PER_CATEGORY = 500

STAGES = ("match_mcq", "caption")

DEFAULT_LABEL_WORDS = {
    "person": "Person",
    "face": "Face",
    "pet": "Pet",
    "object": "Object",
}

_PLACEHOLDER = "[SUBJECT]"


@dataclass(frozen=True)
class GalleryTask:
    """One benchmark item: a query, K gallery images, one of which matches."""

    task_id: str
    category: str
    query_id: str
    gallery_ids: tuple[str, ...]
    answer_index: int
    tau: float
    relaxed: bool  # distractor pool under-filled, below-threshold fallback used
    seed: int


@dataclass(frozen=True)
class DetectionTask:
    """Single-candidate variant: does the gallery image match the query?"""

    task_id: str
    category: str
    query_id: str
    gallery_id: str
    is_match: bool
    tau: float
    seed: int


@dataclass(frozen=True)
class SplitManifest:
    """Identity-disjoint train/test instance partition."""

    train_instances: frozenset[str]
    test_instances: frozenset[str]

    def __post_init__(self):
        if self.train_instances & self.test_instances:
            raise DataValidationError("train and test instance sets overlap")


@dataclass(frozen=True)
class ConversationRecord:
    task_id: str
    stage: str
    images: tuple[str, ...]
    prompt: str
    target: str
    answer_index: int
    category: str


def make_split(eset: EmbeddingSet, test_fraction: float, seed: int) -> SplitManifest:
    """Seeded instance-level partition; both sides always non-empty."""
    if not 0.0 < test_fraction < 1.0:
        raise DataValidationError("test_fraction must lie strictly between 0 and 1")
    instances = sorted(eset.instance_index)
    if len(instances) < 2:
        raise DataValidationError("need at least 2 instances to split")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5917]))
    order = list(rng.permutation(len(instances)))
    n_test = int(round(test_fraction * len(instances)))
    n_test = min(max(n_test, 1), len(instances) - 1)
    test = frozenset(instances[i] for i in order[:n_test])
    train = frozenset(instances[i] for i in order[n_test:])
    return SplitManifest(train_instances=train, test_instances=test)


# tasks per block: each block draws its uniforms from one stream, and the
# similarity rows of its queries are made together; 64 rows of the default
# train side (3,360 images) are 1.7 MB of float64
_BLOCK = 64


def _block_uniforms(entropy: list[int], columns: int) -> np.ndarray:
    """The (``_BLOCK``, columns) uniforms in [0, 1) of one block of tasks,
    from the stream ``default_rng(entropy)``. A block draws all its rows
    even when the build ends inside it, so a build of n tasks is the first
    n tasks of any longer build with the same seed."""
    return np.random.default_rng(entropy).random((_BLOCK, columns))


def _pick(u: np.ndarray, n) -> np.ndarray:
    """``floor(u * n)`` of uniforms in [0, 1), capped at n - 1 (the product
    can round up to n)."""
    return np.minimum((u * n).astype(np.intp), n - 1)


def _floyd(u: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """For each row, ``u.shape[1]`` distinct positions in range(size) by
    Floyd's algorithm, each draw one array operation over all the rows:
    draw d takes ``r = min(floor(u[:, d] * (hi + 1)), hi)``, where
    ``hi = size - u.shape[1] + d``, or hi itself if r was taken already.
    Every size must be at least ``u.shape[1]``."""
    count = u.shape[1]
    picks = np.empty(u.shape, dtype=np.intp)
    for d in range(count):
        hi = sizes - count + d
        r = _pick(u[:, d], hi + 1)
        picks[:, d] = np.where((picks[:, :d] == r[:, None]).any(axis=1), hi, r)
    return picks


class _TaskSampler:
    """Shared machinery for sampling queries and thresholded distractor pools.

    No all-pairs matrix of the split side is built (the default train
    side's would take 90 MB): a builder takes the similarity rows of one
    block of queries at a time. Every row is one ``kernels.dot_scores``
    call, a matrix-vector product. A matrix product over a block of queries
    gives other last bits (up to 4.4e-16 on the default config's sides),
    which could flip a comparison with tau or a tie.
    """

    def __init__(self, general: EmbeddingSet, split_side: Iterable[str]):
        side = set(split_side)
        instance_ids = general.instance_ids
        self.rows = [i for i, inst in enumerate(instance_ids) if inst in side]
        if not self.rows:
            raise DataValidationError("split side selects no images")
        matrix = np.asarray(general.matrix()[self.rows], dtype=np.float64)
        norms = np.linalg.norm(matrix, axis=1)
        if np.any(norms == 0.0):
            raise DataValidationError("zero vector in general view")
        self.unit = matrix / norms[:, None]
        # object arrays, so that a block's ids are gathered at once
        self.image_ids = np.array(general.image_ids, dtype=object)[self.rows]
        self.categories = np.array(general.categories, dtype=object)[self.rows]
        by_instance: dict[str, list[int]] = {}
        for local, inst in enumerate(instance_ids[i] for i in self.rows):
            by_instance.setdefault(inst, []).append(local)
        self.by_instance = by_instance
        # the images grouped by instance (``members``); each image's instance
        # as an integer code and as the (start, size) of its group, and its
        # place in that group; and each image's rank in image_id order
        n = len(self.rows)
        self.members = np.fromiter(itertools.chain.from_iterable(by_instance.values()),
                                   dtype=np.intp, count=n)
        self.instance_codes, self.starts, self.sizes, self.places = (
            np.empty(n, dtype=np.intp) for _ in range(4))
        start = 0
        for code, locals_ in enumerate(by_instance.values()):
            self.instance_codes[locals_] = code
            self.starts[locals_], self.sizes[locals_] = start, len(locals_)
            self.places[locals_] = np.arange(len(locals_))
            start += len(locals_)
        self.id_rank = np.empty(n, dtype=np.intp)
        self.id_rank[np.argsort(self.image_ids, kind="stable")] = np.arange(n)
        # queries must have a positive available
        self.eligible = np.array([
            local
            for inst, locals_ in sorted(by_instance.items())
            for local in locals_
            if len(locals_) >= 2
        ], dtype=np.intp)
        if not len(self.eligible):
            raise DataValidationError("no instance has >= 2 images on this split side")

    def pick_queries(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The query and the positive of each row of the uniforms ``u``:
        column 0 picks the query from ``eligible``, column 1 the positive
        among the query's other images of its instance, in local order."""
        queries = self.eligible[_pick(u[:, 0], len(self.eligible))]
        siblings = _pick(u[:, 1], self.sizes[queries] - 1)
        siblings += siblings >= self.places[queries]  # step over the query
        return queries, self.members[self.starts[queries] + siblings]

    def similarity_rows(self, queries: Sequence[int]) -> np.ndarray:
        """The cosine of every image to each query, one row per query."""
        sims = np.empty((len(queries), len(self.rows)))
        for row, query in zip(sims, queries):
            row[:] = kernels.dot_scores(self.unit, self.unit[query])
        return sims

    def other_instance(self, queries: np.ndarray) -> np.ndarray:
        """Whether each image is of another instance than each query."""
        return self.instance_codes != self.instance_codes[queries][:, None]

    def most_similar(self, sims: np.ndarray, candidates: np.ndarray, count: int) -> np.ndarray:
        """The first ``count`` columns of each row of ``sims`` (rows, images)
        by (similarity desc, image_id asc), the row's ``candidates`` (a
        boolean mask) first: the others sort last, under a key of +inf.
        Only the columns whose key is at most the row's ``count``-th
        smallest can be among them, so one lexsort orders just those, for
        every row at once."""
        key = np.where(candidates, -sims, np.inf)
        bound = np.partition(key, count - 1, axis=1)[:, count - 1:count]
        rows, columns = np.divmod(np.flatnonzero(key <= bound), key.shape[1])
        order = np.lexsort((self.id_rank[columns], key[rows, columns], rows))
        starts = np.searchsorted(rows, np.arange(len(key)))
        return columns[order][starts[:, None] + np.arange(count)]


def _pool_picks(above: np.ndarray, counts: np.ndarray, rows: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """For each of the ``rows`` of ``above`` (tasks, images), the columns
    that Floyd's draws with that row's uniforms in ``u`` (rows, picks) take
    from its pool: its true columns, in ascending order. ``counts`` holds
    each task's pool size; every row's pool holds at least as many columns
    as it picks."""
    offsets = (np.cumsum(counts) - counts)[rows]
    # flat indices: a two-dimensional np.nonzero takes about 8 times as long
    flat = np.flatnonzero(above)[offsets[:, None] + _floyd(u, counts[rows])]
    return flat - rows[:, None] * above.shape[1]


def build_gallery_tiers(
    general: EmbeddingSet,
    split_side: Iterable[str],
    tiers: Mapping[float, str],
    k: int = DEFAULT_K,
    n_tasks: int = DEFAULT_TASKS_PER_CATEGORY,
    seed: int = 0,
    hardest: bool = False,
) -> dict[float, list[GalleryTask]]:
    """Build difficulty-controlled gallery tasks on one split side, for
    every tier of ``tiers`` (each tau, mapped to its task-id prefix).

    Distractors are sampled uniformly from the pool of other-instance
    images whose general-view cosine to the query strictly exceeds tau
    (or, with ``hardest``, the top-(k-1) most similar of that pool). A task
    whose pool holds fewer than k-1 images takes the k-1 most similar
    other-instance images (its pool, topped up with the most similar
    below-threshold ones) and is flagged ``relaxed``.

    Tasks come in blocks of ``_BLOCK``. Block b draws one (``_BLOCK``,
    2k+1) array of uniforms from the stream ``[seed, b]``, and task t reads
    row ``t % _BLOCK`` of its block's array: column 0 picks the query,
    column 1 its positive, columns 2..k the k-1 distractors from the pool
    without replacement (Floyd's algorithm), and the argsort of the last k
    columns orders the gallery. Every tier reads the same row, so a task's
    query and positive are the same in every tier, and a tier built alone
    equals that tier of a build of several. A build of n tasks is the
    first n tasks of any longer build. The block's similarity rows and
    other-instance masks are made once for all the tiers, and every choice
    is an array operation over the block.
    """
    if k < 2:
        raise DataValidationError("k must be >= 2 (use build_detection_tasks for K=1)")
    sampler = _TaskSampler(general, split_side)
    if len(sampler.by_instance) < 2:
        raise DataValidationError("need images of at least 2 instances")
    built: dict[float, list[GalleryTask]] = {tau: [] for tau in tiers}
    for start in range(0, n_tasks, _BLOCK):
        u = _block_uniforms([seed, start // _BLOCK], 2 * k + 1)[:n_tasks - start]
        queries, positives = sampler.pick_queries(u)
        sims = sampler.similarity_rows(queries)
        other = sampler.other_instance(queries)
        available = other.sum(axis=1)
        if available.min() < k - 1:
            raise DataValidationError(
                f"only {available[available < k - 1][0]} other-instance images available, "
                f"need {k - 1}"
            )
        aboves = [other & (sims > tau) for tau in tiers]
        counts = [above.sum(axis=1) for above in aboves]
        # the k-1 most similar other-instance images: the distractors of
        # every task with hardest, else of a task relaxed in some tier
        ranked = np.empty((len(u), k - 1), dtype=np.intp)
        ranked_rows = np.flatnonzero(hardest | (np.min(counts, axis=0) < k - 1))
        ranked[ranked_rows] = sampler.most_similar(sims[ranked_rows], other[ranked_rows], k - 1)
        # the gallery is the distractors, then the positive, in the argsort
        # order of the last k columns; the positive's place is the answer
        order = np.argsort(u[:, k + 1:], axis=1, kind="stable")
        answers = (order == k - 1).argmax(axis=1).tolist()
        ordinals = range(start, start + len(u))
        query_ids = sampler.image_ids[queries].tolist()
        categories = sampler.categories[queries].tolist()
        for (tau, prefix), above, count in zip(tiers.items(), aboves, counts):
            relaxed = count < k - 1
            distractors = ranked.copy()
            if not hardest:
                sampled = np.flatnonzero(~relaxed)
                distractors[sampled] = _pool_picks(above, count, sampled, u[sampled, 2:k + 1])
            gallery = np.take_along_axis(np.column_stack([distractors, positives]), order, axis=1)
            built[tau].extend(map(_new_gallery_task, zip(
                [f"{prefix}{seed:08x}-{t:05d}" for t in ordinals], categories, query_ids,
                sampler.image_ids[gallery].tolist(), answers, itertools.repeat(tau),
                relaxed.tolist(), itertools.repeat(seed),
            )))
    return built


def build_gallery_tasks(
    general: EmbeddingSet,
    split_side: Iterable[str],
    k: int = DEFAULT_K,
    tau: float = DEFAULT_TAU,
    n_tasks: int = DEFAULT_TASKS_PER_CATEGORY,
    seed: int = 0,
    hardest: bool = False,
    task_prefix: str = "g",
) -> list[GalleryTask]:
    """The gallery tasks of the one tier ``tau`` (``build_gallery_tiers``)."""
    return build_gallery_tiers(
        general, split_side, {tau: task_prefix}, k=k, n_tasks=n_tasks, seed=seed,
        hardest=hardest,
    )[tau]


def _category_sides(general: EmbeddingSet, split_side: Iterable[str]) -> dict[str, set[str]]:
    side = set(split_side)
    by_category: dict[str, set[str]] = {}
    for instance_id, category in zip(general.instance_ids, general.categories):
        if instance_id in side:
            by_category.setdefault(category, set()).add(instance_id)
    return by_category


def _category_seed(seed: int, category: str) -> int:
    digest = hashlib.blake2b(category.encode(), digest_size=4).digest()
    return (seed << 32) ^ int.from_bytes(digest, "little")


def build_gallery_tiers_per_category(
    general: EmbeddingSet,
    split_side: Iterable[str],
    tiers: Mapping[float, str],
    k: int = DEFAULT_K,
    n_per_category: int = DEFAULT_TASKS_PER_CATEGORY,
    seed: int = 0,
    hardest: bool = False,
) -> dict[float, list[GalleryTask]]:
    """n_per_category gallery tasks for each category in every tier of
    ``tiers``, distractors drawn within the query's category; one pass over
    each category's queries builds all its tiers."""
    built: dict[float, list[GalleryTask]] = {tau: [] for tau in tiers}
    for category, instances in sorted(_category_sides(general, split_side).items()):
        prefixes = {tau: f"{prefix}{category}-" for tau, prefix in tiers.items()}
        for tau, tasks in build_gallery_tiers(
            general, instances, prefixes, k=k, n_tasks=n_per_category,
            seed=_category_seed(seed, category), hardest=hardest,
        ).items():
            built[tau].extend(tasks)
    return built


def build_gallery_tasks_per_category(
    general: EmbeddingSet,
    split_side: Iterable[str],
    k: int = DEFAULT_K,
    tau: float = DEFAULT_TAU,
    n_per_category: int = DEFAULT_TASKS_PER_CATEGORY,
    seed: int = 0,
    hardest: bool = False,
    task_prefix: str = "g",
) -> list[GalleryTask]:
    """The per-category gallery tasks of the one tier ``tau``
    (``build_gallery_tiers_per_category``)."""
    return build_gallery_tiers_per_category(
        general, split_side, {tau: task_prefix}, k=k, n_per_category=n_per_category,
        seed=seed, hardest=hardest,
    )[tau]


def build_detection_tasks(
    general: EmbeddingSet,
    split_side: Iterable[str],
    tau: float = DEFAULT_TAU,
    n_tasks: int = DEFAULT_TASKS_PER_CATEGORY,
    positive_rate: float = 0.5,
    seed: int = 0,
) -> list[DetectionTask]:
    """Single-candidate match/no-match tasks with seeded positive rate.

    Tasks come in blocks of ``_BLOCK``, as in ``build_gallery_tiers``:
    block b draws one (``_BLOCK``, 4) array of uniforms from the stream
    ``[seed, b, 0xDE7]``, and task t reads row ``t % _BLOCK``. Column 0
    picks the query, column 1 its positive, column 2 whether the task is
    a match (below ``positive_rate``), and column 3 a non-match's gallery
    image from the other-instance images above tau; with none above tau,
    the task takes the most similar other-instance image. A build of n
    tasks is the first n tasks of any longer build.
    """
    if not 0.0 <= positive_rate <= 1.0:
        raise DataValidationError("positive_rate must lie in [0, 1]")
    sampler = _TaskSampler(general, split_side)
    if len(sampler.by_instance) < 2:
        raise DataValidationError("need images of at least 2 instances")
    tasks = []
    for start in range(0, n_tasks, _BLOCK):
        u = _block_uniforms([seed, start // _BLOCK, 0xDE7], 4)[:n_tasks - start]
        queries, gallery = sampler.pick_queries(u)  # a match's image is its positive
        is_match = u[:, 2] < positive_rate
        rows = np.flatnonzero(~is_match)
        sims = sampler.similarity_rows(queries[rows])
        other = sampler.other_instance(queries[rows])
        above = other & (sims > tau)
        count = above.sum(axis=1)
        picked, fallback = np.flatnonzero(count), np.flatnonzero(count == 0)
        gallery[rows[picked]] = _pool_picks(above, count, picked, u[rows[picked], 3:])[:, 0]
        gallery[rows[fallback]] = sampler.most_similar(sims[fallback], other[fallback], 1)[:, 0]
        tasks.extend(
            DetectionTask(f"d{seed:08x}-{t:05d}", category, query_id, gallery_id, match, tau, seed)
            for t, category, query_id, gallery_id, match in zip(
                range(start, start + len(u)), sampler.categories[queries].tolist(),
                sampler.image_ids[queries].tolist(), sampler.image_ids[gallery].tolist(),
                is_match.tolist(),
            )
        )
    return tasks


def mcq_prompt(k: int) -> str:
    return (
        f"You are shown {k} gallery images labeled Image 1 through Image {k}, "
        "followed by one query image. Which gallery image shows the same "
        "instance as the query image? Answer with the label of the matching "
        "image, e.g. \"Image 2\"."
    )


def caption_prompt(k: int) -> str:
    return (
        f"You are shown {k} gallery images labeled Image 1 through Image {k}, "
        "followed by one query image. Describe the query image, referring to "
        "the matching gallery identity by its bracketed label."
    )


def emit_conversations(
    tasks: Sequence[GalleryTask],
    stage: str,
    captions: dict[str, str] | None = None,
) -> list[ConversationRecord]:
    """Emit Stage-1 (multiple choice) or Stage-2 (caption) conversation records.

    Caption templates must contain exactly one "[SUBJECT]" placeholder,
    which is replaced with the bracketed gallery label of the answer,
    e.g. "[Person 3]".
    """
    if stage not in STAGES:
        raise DataValidationError(f"unknown stage {stage!r}, expected one of {STAGES}")
    records = []
    for task in tasks:
        images = task.gallery_ids + (task.query_id,)
        k = len(task.gallery_ids)
        if stage == "match_mcq":
            prompt = mcq_prompt(k)
            target = f"Image {task.answer_index + 1}"
        else:
            if captions is None or task.query_id not in captions:
                raise DataValidationError(f"missing caption for query {task.query_id!r}")
            template = captions[task.query_id]
            if template.count(_PLACEHOLDER) != 1:
                raise DataValidationError(
                    f"caption for {task.query_id!r} must contain exactly one {_PLACEHOLDER}"
                )
            word = DEFAULT_LABEL_WORDS.get(task.category, task.category.title())
            prompt = caption_prompt(k)
            target = template.replace(_PLACEHOLDER, f"[{word} {task.answer_index + 1}]")
        records.append(
            ConversationRecord(
                task_id=task.task_id,
                stage=stage,
                images=images,
                prompt=prompt,
                target=target,
                answer_index=task.answer_index,
                category=task.category,
            )
        )
    return records


def template_captions(tasks: Sequence[GalleryTask]) -> dict[str, str]:
    """Placeholder captions for synthetic data, one per query image."""
    return {
        task.query_id: f"{_PLACEHOLDER} appears near the center of the scene."
        for task in tasks
    }


_IMAGE_RE = re.compile(r"image\s*(\d+)", re.IGNORECASE)
_BARE_RE = re.compile(r"\s*(\d+)\s*\Z")


def parse_answer(response: str, k: int) -> int | None:
    """Extract a 0-based gallery index from a free-text answer.

    Accepts the first "Image n" occurrence with n in 1..k, or a bare
    integer when the response is only that integer. Returns None on
    parse failure (scored as incorrect, counted separately).
    """
    if k < 1:
        raise DataValidationError("k must be >= 1")
    m = _IMAGE_RE.search(response)
    if m is None:
        m = _BARE_RE.fullmatch(response)
    if m is None:
        return None
    n = int(m.group(1))
    if not 1 <= n <= k:
        return None
    return n - 1


# ---------------------------------------------------------------------------
# JSONL serialization

_string = json.encoder.encode_basestring_ascii  # json.dumps' text of a str
_BOOLEAN = {True: "true", False: "false"}


def _number(x: int | float) -> str:
    """json.dumps' text of an int or a float (not a bool)."""
    if isinstance(x, float):
        return float.__repr__(x) if math.isfinite(x) else json.dumps(x)
    return int.__repr__(x)


def _gallery_line(t: GalleryTask) -> str:
    return (
        '{"answer_index": %d, "category": %s, "gallery_ids": [%s], "query_id": %s, '
        '"relaxed": %s, "seed": %d, "task_id": %s, "tau": %s}\n'
        % (t.answer_index, _string(t.category), ", ".join(map(_string, t.gallery_ids)),
           _string(t.query_id), _BOOLEAN[t.relaxed], t.seed, _string(t.task_id), _number(t.tau))
    )


def _detection_line(t: DetectionTask) -> str:
    return (
        '{"category": %s, "gallery_id": %s, "is_match": %s, "query_id": %s, "seed": %d, '
        '"task_id": %s, "tau": %s}\n'
        % (_string(t.category), _string(t.gallery_id), _BOOLEAN[t.is_match],
           _string(t.query_id), t.seed, _string(t.task_id), _number(t.tau))
    )


def _conversation_line(r: ConversationRecord) -> str:
    return (
        '{"answer_index": %d, "category": %s, "images": [%s], "prompt": %s, "stage": %s, '
        '"target": %s, "task_id": %s}\n'
        % (r.answer_index, _string(r.category), ", ".join(map(_string, r.images)),
           _string(r.prompt), _string(r.stage), _string(r.target), _string(r.task_id))
    )


_LINES = {GalleryTask: _gallery_line, DetectionTask: _detection_line,
          ConversationRecord: _conversation_line}


def _line(item) -> str:
    try:
        line = _LINES[type(item)]
    except KeyError:
        raise TypeError(f"save_jsonl has no line format for {type(item).__name__}") from None
    return line(item)


def save_jsonl(items: Sequence, path: str | Path) -> None:
    """Write gallery tasks, detection tasks or conversation records, one
    JSON object a line: the text of ``json.dumps`` of the item's fields,
    keys sorted and tuples as lists, spelt by one format per type. Any
    other type is a TypeError."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(map(_line, items))


_gallery_values = typed_fields({
    "task_id": (str,), "category": (str,), "query_id": (str,), "gallery_ids": (list,),
    "answer_index": (int,), "tau": (int, float), "relaxed": (bool,), "seed": (int,),
})
_detection_values = typed_fields({
    "task_id": (str,), "category": (str,), "query_id": (str,), "gallery_id": (str,),
    "is_match": (bool,), "tau": (int, float), "seed": (int,),
})


def _gallery_task(o: dict) -> GalleryTask:
    """The task of one parsed line, with every field of its type and the
    answer inside a gallery of at least two distinct images, none of them
    the query. (BLAS can score two copies of one image differently, so a
    repeated image could answer with either copy.)"""
    task_id, category, query_id, ids, answer, tau, relaxed, seed = _gallery_values(o)
    if len(ids) < 2 or set(map(type, ids)) != {str}:
        raise ValueError(f"gallery_ids must be a list of at least 2 strings, got {ids!r}")
    if len(set(ids)) != len(ids):
        raise ValueError(f"gallery_ids must not repeat an image, got {ids!r}")
    if query_id in ids:
        raise ValueError(f"gallery_ids must not hold the query {query_id!r}")
    if not 0 <= answer < len(ids):
        raise ValueError(f"answer_index must be in [0, {len(ids)}), got {answer}")
    return GalleryTask(task_id, category, query_id, tuple(ids), answer, tau, relaxed, seed)


_task_id = operator.attrgetter("task_id")


def load_gallery_tasks(path: str | Path) -> list[GalleryTask]:
    """The gallery tasks of a JSONL file, one a line, checked as columns:
    the field types of each line as it is decoded (``jsonl_values``), then
    the gallery sizes, the string ids, the repeated images, the query in its
    gallery, the answer range, the repeated task_ids and the big-integer
    rule for tau, each over the whole file. If any check fails, the file is
    read again line by line (``load_jsonl`` with ``_gallery_task``), which
    raises the first faulty line's error."""
    rows = jsonl_values(path, _gallery_values)
    if rows is None or rows and not _gallery_columns_valid(rows):
        return load_jsonl(path, _gallery_task, _task_id, "task_id")
    return list(map(_new_gallery_task, rows))


def _gallery_columns_valid(rows: list[tuple]) -> bool:
    """Whether every task of ``rows``, the ``_gallery_values`` of the lines
    of a file, passes ``_gallery_task`` and repeats no earlier task_id."""
    task_ids, _, query_ids, galleries, answers, taus, _, _ = zip(*rows)
    sizes = list(map(len, galleries))
    return (
        min(sizes) >= 2
        and set(map(type, itertools.chain.from_iterable(galleries))) == {str}
        and list(map(len, map(set, galleries))) == sizes
        and not any(map(operator.contains, galleries, query_ids))
        and min(answers) >= 0 and all(map(operator.lt, answers, sizes))
        and len(set(task_ids)) == len(task_ids)
        and orjson_exact(taus)
    )


def _new_gallery_task(values: tuple) -> GalleryTask:
    """The GalleryTask of a checked tuple of its field values (a loaded
    line's ``_gallery_values``, or a builder's), its fields set at once
    rather than one at a time by the frozen ``__init__``."""
    task_id, category, query_id, ids, answer, tau, relaxed, seed = values
    task = object.__new__(GalleryTask)
    object.__setattr__(task, "__dict__", {
        "task_id": task_id, "category": category, "query_id": query_id,
        "gallery_ids": tuple(ids), "answer_index": answer, "tau": tau, "relaxed": relaxed,
        "seed": seed,
    })
    return task


def load_detection_tasks(path: str | Path) -> list[DetectionTask]:
    return load_jsonl(path, lambda o: DetectionTask(*_detection_values(o)), _task_id, "task_id")


def save_split(manifest: SplitManifest, path: str | Path) -> None:
    obj = {
        "train_instances": sorted(manifest.train_instances),
        "test_instances": sorted(manifest.test_instances),
    }
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_split(path: str | Path) -> SplitManifest:
    obj = parse_json_object(read_input(path), f"{path}: split file")
    sides = {}
    for key in ("train_instances", "test_instances"):
        ids = obj.get(key)
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise DataValidationError(f"{path}: split file needs {key!r} as a list of strings")
        sides[key] = frozenset(ids)
    return SplitManifest(**sides)


def check_gallery_task(task: GalleryTask, general: EmbeddingSet) -> None:
    """Re-verify every GalleryTask invariant by exhaustive re-scan."""
    query = general.record(task.query_id)
    if task.query_id in task.gallery_ids:
        raise DataValidationError(f"{task.task_id}: query appears in its own gallery")
    if len(set(task.gallery_ids)) != len(task.gallery_ids):
        raise DataValidationError(f"{task.task_id}: duplicate gallery images")
    positives = [
        i for i, gid in enumerate(task.gallery_ids)
        if general.record(gid).instance_id == query.instance_id
    ]
    if positives != [task.answer_index]:
        raise DataValidationError(
            f"{task.task_id}: expected exactly one positive at {task.answer_index}, got {positives}"
        )
    if not task.relaxed:
        from .simcore import similarity

        for i, gid in enumerate(task.gallery_ids):
            if i == task.answer_index:
                continue
            sim = similarity(query.vector, general.vector(gid), "cosine")
            if sim <= task.tau:
                raise DataValidationError(
                    f"{task.task_id}: distractor {gid} similarity {sim:.4f} <= tau {task.tau}"
                )
