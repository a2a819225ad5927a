"""Difficulty-controlled benchmark task construction and conversation formats.

Builds gallery (multiple-choice) and detection (yes/no) tasks whose
distractors are drawn from a similarity-thresholded candidate pool,
maintains identity-disjoint train/test splits, emits two-stage
conversation records, and parses free-text answers back for scoring.

Each task derives its own random stream from (global seed, task ordinal),
so task lists are reproducible and independent of scheduling. A task's
pool comes from one row of query cosines and boolean masks over it; only
the candidates a task ranks (below-threshold top-up, detection fallback,
``hardest``) are sorted, by (similarity desc, image_id asc).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels
from .embedstore import EmbeddingSet, jsonl_lines, read_input
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


class _TaskSampler:
    """Shared machinery for sampling queries and thresholded distractor pools.

    Pools are boolean masks over one similarity row per task: no all-pairs
    matrix of the split side is built (the default train side's would take
    90 MB).
    """

    def __init__(self, general: EmbeddingSet, split_side: Iterable[str]):
        side = set(split_side)
        self.eset = general
        self.rows = [
            i for i, rec in enumerate(general.records) if rec.instance_id in side
        ]
        if not self.rows:
            raise DataValidationError("split side selects no images")
        matrix = np.asarray(general.matrix()[self.rows], dtype=np.float64)
        norms = np.linalg.norm(matrix, axis=1)
        if np.any(norms == 0.0):
            raise DataValidationError("zero vector in general view")
        self.unit = matrix / norms[:, None]
        self.image_ids = [general.records[i].image_id for i in self.rows]
        self.instance_ids = [general.records[i].instance_id for i in self.rows]
        self.categories = [general.records[i].category for i in self.rows]
        by_instance: dict[str, list[int]] = {}
        for local, inst in enumerate(self.instance_ids):
            by_instance.setdefault(inst, []).append(local)
        self.by_instance = by_instance
        # one integer code per instance, and each image's rank in image_id order
        self.instance_codes = np.empty(len(self.rows), dtype=np.intp)
        for code, locals_ in enumerate(by_instance.values()):
            self.instance_codes[locals_] = code
        self.id_rank = np.empty(len(self.rows), dtype=np.intp)
        self.id_rank[sorted(range(len(self.rows)), key=self.image_ids.__getitem__)] = (
            np.arange(len(self.rows))
        )
        # queries must have a positive available
        self.eligible = [
            local
            for inst, locals_ in sorted(by_instance.items())
            for local in locals_
            if len(locals_) >= 2
        ]
        if not self.eligible:
            raise DataValidationError("no instance has >= 2 images on this split side")

    def pick_query(self, rng: np.random.Generator) -> tuple[int, int]:
        """Returns (query local index, positive local index)."""
        query = self.eligible[int(rng.integers(len(self.eligible)))]
        siblings = [l for l in self.by_instance[self.instance_ids[query]] if l != query]
        positive = siblings[int(rng.integers(len(siblings)))]
        return query, positive

    def distractor_pool(
        self, query: int, tau: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cosine of every image to the query, then the other-instance images
        above and not above tau, each in ascending local order. Order the
        below-threshold ones with ``most_similar`` where they are used."""
        sims = kernels.dot_scores(self.unit, self.unit[query])
        other = self.instance_codes != self.instance_codes[query]
        above = other & (sims > tau)
        return sims, np.flatnonzero(above), np.flatnonzero(other & ~above)

    def most_similar(self, sims: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
        """The first ``count`` of ``rows`` by (similarity desc, image_id asc)."""
        return rows[np.lexsort((self.id_rank[rows], -sims[rows]))[:count]]


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
    """Build difficulty-controlled gallery tasks on one split side.

    Distractors are sampled uniformly from the pool of other-instance
    images whose general-view cosine to the query strictly exceeds tau
    (or, with ``hardest``, the top-(k-1) most similar of that pool). An
    under-filled pool is topped up with the most similar below-threshold
    images and the task is flagged ``relaxed``.
    """
    if k < 2:
        raise DataValidationError("k must be >= 2 (use build_detection_tasks for K=1)")
    sampler = _TaskSampler(general, split_side)
    if len(set(sampler.instance_ids)) < 2:
        raise DataValidationError("need images of at least 2 instances")
    tasks = []
    for t in range(n_tasks):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        query, positive = sampler.pick_query(rng)
        sims, above, below = sampler.distractor_pool(query, tau)
        if len(above) + len(below) < k - 1:
            raise DataValidationError(
                f"only {len(above) + len(below)} other-instance images available, need {k - 1}"
            )
        if len(above) >= k - 1:
            if hardest:
                distractors = sampler.most_similar(sims, above, k - 1)
            else:
                distractors = above[rng.choice(len(above), size=k - 1, replace=False)]
            relaxed = False
        else:
            top_up = sampler.most_similar(sims, below, k - 1 - len(above))
            distractors = np.concatenate([above, top_up])
            relaxed = True
        gallery = distractors.tolist() + [positive]
        order = rng.permutation(len(gallery))
        gallery = [gallery[i] for i in order]
        answer_index = gallery.index(positive)
        tasks.append(
            GalleryTask(
                task_id=f"{task_prefix}{seed:08x}-{t:05d}",
                category=sampler.categories[query],
                query_id=sampler.image_ids[query],
                gallery_ids=tuple(sampler.image_ids[l] for l in gallery),
                answer_index=answer_index,
                tau=tau,
                relaxed=relaxed,
                seed=seed,
            )
        )
    return tasks


def _category_sides(general: EmbeddingSet, split_side: Iterable[str]) -> dict[str, set[str]]:
    side = set(split_side)
    by_category: dict[str, set[str]] = {}
    for rec in general.records:
        if rec.instance_id in side:
            by_category.setdefault(rec.category, set()).add(rec.instance_id)
    return by_category


def _category_seed(seed: int, category: str) -> int:
    digest = hashlib.blake2b(category.encode(), digest_size=4).digest()
    return (seed << 32) ^ int.from_bytes(digest, "little")


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
    """n_per_category gallery tasks for each category, distractors drawn
    within the query's category."""
    tasks = []
    for category, instances in sorted(_category_sides(general, split_side).items()):
        tasks.extend(
            build_gallery_tasks(
                general, instances, k=k, tau=tau, n_tasks=n_per_category,
                seed=_category_seed(seed, category), hardest=hardest,
                task_prefix=f"{task_prefix}{category}-",
            )
        )
    return tasks


def build_detection_tasks(
    general: EmbeddingSet,
    split_side: Iterable[str],
    tau: float = DEFAULT_TAU,
    n_tasks: int = DEFAULT_TASKS_PER_CATEGORY,
    positive_rate: float = 0.5,
    seed: int = 0,
    task_prefix: str = "d",
) -> list[DetectionTask]:
    """Single-candidate match/no-match tasks with seeded positive rate."""
    if not 0.0 <= positive_rate <= 1.0:
        raise DataValidationError("positive_rate must lie in [0, 1]")
    sampler = _TaskSampler(general, split_side)
    if len(set(sampler.instance_ids)) < 2:
        raise DataValidationError("need images of at least 2 instances")
    tasks = []
    for t in range(n_tasks):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t, 0xDE7]))
        query, positive = sampler.pick_query(rng)
        is_match = bool(rng.random() < positive_rate)
        if is_match:
            gallery = positive
        else:
            sims, above, below = sampler.distractor_pool(query, tau)
            if not len(above) and not len(below):
                raise DataValidationError("no other-instance image available")
            if len(above):
                gallery = int(above[rng.integers(len(above))])
            else:  # most similar below-threshold fallback
                gallery = int(sampler.most_similar(sims, below, 1)[0])
        tasks.append(
            DetectionTask(
                task_id=f"{task_prefix}{seed:08x}-{t:05d}",
                category=sampler.categories[query],
                query_id=sampler.image_ids[query],
                gallery_id=sampler.image_ids[gallery],
                is_match=is_match,
                tau=tau,
                seed=seed,
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
    label_word: dict[str, str] | None = None,
) -> list[ConversationRecord]:
    """Emit Stage-1 (multiple choice) or Stage-2 (caption) conversation records.

    Caption templates must contain exactly one "[SUBJECT]" placeholder,
    which is replaced with the bracketed gallery label of the answer,
    e.g. "[Person 3]".
    """
    if stage not in STAGES:
        raise DataValidationError(f"unknown stage {stage!r}, expected one of {STAGES}")
    words = dict(DEFAULT_LABEL_WORDS)
    if label_word:
        words.update(label_word)
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
            word = words.get(task.category, task.category.title())
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

def save_jsonl(items: Sequence, path: str | Path) -> None:
    """Write flat dataclass instances as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            obj = dict(vars(item))
            for key, val in obj.items():
                if isinstance(val, tuple):
                    obj[key] = list(val)
                elif isinstance(val, frozenset):
                    obj[key] = sorted(val)
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _load_jsonl(path: str | Path, build: Callable[[dict], object]) -> list:
    """One item per line; ``build`` raises ``KeyError``, ``TypeError`` or
    ``ValueError`` for a line it rejects, which becomes a
    ``DataValidationError`` naming the line."""
    items = []
    for lineno, line in jsonl_lines(path):
        try:
            items.append(build(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:  # ValueError: JSONDecodeError too
            raise DataValidationError(f"{path}: line {lineno}: {exc}") from exc
    return items


# the types json.loads may give each field of a gallery task
_TASK_TYPES = {
    "task_id": (str,), "category": (str,), "query_id": (str,), "gallery_ids": (list,),
    "answer_index": (int,), "tau": (int, float), "relaxed": (bool,), "seed": (int,),
}
_task_values = operator.itemgetter(*_TASK_TYPES)
_VALID_TASK_TYPES = set(itertools.product(*_TASK_TYPES.values()))


def _gallery_task(o: dict) -> GalleryTask:
    """The task of one parsed line, with every field of its type and the
    answer inside a gallery of at least two images."""
    values = _task_values(o)
    if tuple(map(type, values)) not in _VALID_TASK_TYPES:  # one lookup for a valid line
        for (key, kinds), value in zip(_TASK_TYPES.items(), values):
            if type(value) not in kinds:
                names = " or ".join(kind.__name__ for kind in kinds)
                raise ValueError(f"{key} must be of type {names}, got {value!r}")
    task_id, category, query_id, ids, answer, tau, relaxed, seed = values
    if len(ids) < 2 or set(map(type, ids)) != {str}:
        raise ValueError(f"gallery_ids must be a list of at least 2 strings, got {ids!r}")
    if not 0 <= answer < len(ids):
        raise ValueError(f"answer_index must be in [0, {len(ids)}), got {answer}")
    return GalleryTask(task_id, category, query_id, tuple(ids), answer, tau, relaxed, seed)


def load_gallery_tasks(path: str | Path) -> list[GalleryTask]:
    """The tasks of a JSONL file; a malformed task or a repeated ``task_id``
    is a ``DataValidationError`` naming its line."""
    seen: set[str] = set()

    def build(o: dict) -> GalleryTask:
        task = _gallery_task(o)
        if task.task_id in seen:
            raise ValueError(f"duplicate task_id {task.task_id!r}")
        seen.add(task.task_id)
        return task

    return _load_jsonl(path, build)


def load_detection_tasks(path: str | Path) -> list[DetectionTask]:
    return _load_jsonl(
        path,
        lambda o: DetectionTask(
            task_id=o["task_id"],
            category=o["category"],
            query_id=o["query_id"],
            gallery_id=o["gallery_id"],
            is_match=o["is_match"],
            tau=o["tau"],
            seed=o["seed"],
        ),
    )


def save_split(manifest: SplitManifest, path: str | Path) -> None:
    obj = {
        "train_instances": sorted(manifest.train_instances),
        "test_instances": sorted(manifest.test_instances),
    }
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_split(path: str | Path) -> SplitManifest:
    data = read_input(path)
    try:
        obj = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataValidationError(f"{path}: malformed split file: {exc}") from exc
    sides = {}
    for key in ("train_instances", "test_instances"):
        ids = obj.get(key) if isinstance(obj, dict) else None
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
