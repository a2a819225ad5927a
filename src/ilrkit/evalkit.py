"""Scoring and reporting: matching accuracy per category, detection
positive/negative/weighted accuracy, caption-embedding alignment, and
difficulty sweeps over the similarity threshold.

Every matcher (the general and expert embedding views, and the fused
view) is the same similarity argmax over the gallery, fed by one
vector(image_id) lookup per view. A matcher scores a whole task list in
one batched pass (``predict``, through simcore.match_batch); calling it on
one task is the one-task case of that pass. Errors come in task order, as
if each task were scored alone: an image missing from a view raises
DataValidationError naming the first such task, once the tasks before it
are scored. The fused view pools each distinct image once, on its first
use, with the closed form of fusion.pooled_fused.

Accuracies are kept as fractions in [0, 1] internally and rendered as
percentages in the plain-text tables. The aggregate "average" column is
the macro (unweighted) mean over categories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import dataengine, fusion, simcore
from .dataengine import DetectionTask, GalleryTask, parse_answer
from .embedstore import EmbeddingSet, TokenFeatureMap
from .errors import DataValidationError, IlrkitError


@dataclass
class PredictionLog:
    """Raw model responses (or pre-parsed indices) keyed by task id."""

    entries: dict[str, str | int]
    model_name: str = "unknown"


@dataclass
class CategoryScore:
    accuracy: float
    n: int
    parse_failures: int


@dataclass
class DetectionScore:
    positive: float
    negative: float
    weighted: float
    n_positive: int
    n_negative: int


@dataclass
class CaptionScore:
    image_alignment: float
    text_alignment: float


@dataclass
class EvalReport:
    per_category: dict[str, CategoryScore] = field(default_factory=dict)
    average: float = 0.0
    detection: DetectionScore | None = None
    sweep: dict[str, dict[str, float]] | None = None  # matcher -> {tau: accuracy}

    def to_dict(self) -> dict:
        obj: dict = {
            "per_category": {
                cat: {"accuracy": s.accuracy, "n": s.n, "parse_failures": s.parse_failures}
                for cat, s in sorted(self.per_category.items())
            },
            "average": self.average,
        }
        if self.detection is not None:
            obj["detection"] = {
                "positive": self.detection.positive,
                "negative": self.detection.negative,
                "weighted": self.detection.weighted,
                "n_positive": self.detection.n_positive,
                "n_negative": self.detection.n_negative,
            }
        if self.sweep is not None:
            obj["sweep"] = {m: dict(sorted(row.items())) for m, row in sorted(self.sweep.items())}
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_table(self) -> str:
        lines = []
        if self.per_category:
            cats = sorted(self.per_category)
            lines.append("Matching accuracy (%)")
            header = "  ".join(f"{c:>10s}" for c in cats) + f"  {'Avg':>10s}"
            lines.append(header)
            row = "  ".join(f"{100 * self.per_category[c].accuracy:>10.1f}" for c in cats)
            lines.append(row + f"  {100 * self.average:>10.1f}")
            fails = sum(s.parse_failures for s in self.per_category.values())
            total = sum(s.n for s in self.per_category.values())
            lines.append(f"  ({total} tasks, {fails} parse failures)")
        if self.detection is not None:
            d = self.detection
            lines.append("")
            lines.append("Detection accuracy (%)  Positive / Negative / Weighted")
            lines.append(
                f"  {100 * d.positive:.1f} / {100 * d.negative:.1f} / {100 * d.weighted:.1f}"
                f"  (n+={d.n_positive}, n-={d.n_negative})"
            )
        if self.sweep is not None:
            lines.append("")
            lines.append("Difficulty sweep, accuracy (%) per tau")
            matchers = sorted(self.sweep)
            taus = sorted({t for row in self.sweep.values() for t in row})
            lines.append("  ".join([f"{'matcher':>16s}"] + [f"{t:>8s}" for t in taus]))
            for m in matchers:
                cells = [f"{100 * self.sweep[m].get(t, float('nan')):>8.1f}" for t in taus]
                lines.append("  ".join([f"{m:>16s}"] + cells))
        return "\n".join(lines) + "\n"


def _response_index(response: str | int, k: int) -> int | None:
    if isinstance(response, int):
        return response if 0 <= response < k else None
    return parse_answer(response, k)


def score_matching(tasks: Sequence[GalleryTask], log: PredictionLog) -> EvalReport:
    """Per-category accuracy plus macro average; parse failures count as
    incorrect but are reported separately."""
    if not tasks:
        raise DataValidationError("no tasks to score")
    correct: dict[str, int] = {}
    totals: dict[str, int] = {}
    failures: dict[str, int] = {}
    for task in tasks:
        if task.task_id not in log.entries:
            raise DataValidationError(f"no logged response for task {task.task_id!r}")
        k = len(task.gallery_ids)
        idx = _response_index(log.entries[task.task_id], k)
        totals[task.category] = totals.get(task.category, 0) + 1
        if idx is None:
            failures[task.category] = failures.get(task.category, 0) + 1
        elif idx == task.answer_index:
            correct[task.category] = correct.get(task.category, 0) + 1
    per_category = {
        cat: CategoryScore(
            accuracy=correct.get(cat, 0) / n,
            n=n,
            parse_failures=failures.get(cat, 0),
        )
        for cat, n in totals.items()
    }
    average = macro_average([s.accuracy for s in per_category.values()])
    return EvalReport(per_category=per_category, average=average)


def macro_average(accuracies: Sequence[float]) -> float:
    """Unweighted mean over categories (the Avg column of the report tables)."""
    if not accuracies:
        raise DataValidationError("nothing to average")
    return float(np.mean(accuracies))


def _yes_no(response: str | int) -> bool | None:
    if isinstance(response, bool):
        return response
    text = str(response).strip().lower()
    if text.startswith("yes"):
        return True
    if text.startswith("no"):
        return False
    return None


def score_detection(
    tasks: Sequence[DetectionTask], log: PredictionLog, equal_weight: bool = False
) -> DetectionScore:
    """Positive/negative accuracy plus the weighted overall accuracy.

    ``weighted`` is sample-count weighted by default (reduces to the
    arithmetic mean at equal counts); ``equal_weight`` forces the
    equal-count mean regardless of counts.
    """
    if not tasks:
        raise DataValidationError("no tasks to score")
    n_pos = n_neg = c_pos = c_neg = 0
    for task in tasks:
        if task.task_id not in log.entries:
            raise DataValidationError(f"no logged response for task {task.task_id!r}")
        verdict = _yes_no(log.entries[task.task_id])
        if task.is_match:
            n_pos += 1
            c_pos += int(verdict is True)
        else:
            n_neg += 1
            c_neg += int(verdict is False)
    positive = c_pos / n_pos if n_pos else 0.0
    negative = c_neg / n_neg if n_neg else 0.0
    if equal_weight:
        weighted = (positive + negative) / 2.0
    else:
        weighted = (c_pos + c_neg) / (n_pos + n_neg)
    return DetectionScore(positive, negative, weighted, n_pos, n_neg)


def score_captions(pairs: Sequence[Mapping[str, Sequence[float]]]) -> CaptionScore:
    """Mean clamped cosine x 100 of caption embeddings against image and
    reference-caption embeddings."""
    if not pairs:
        raise DataValidationError("no caption pairs to score")
    image_scores, text_scores = [], []
    for pair in pairs:
        cap = np.asarray(pair["caption_embedding"], dtype=np.float64)
        img = np.asarray(pair["image_embedding"], dtype=np.float64)
        ref = np.asarray(pair["reference_embedding"], dtype=np.float64)
        image_scores.append(100.0 * max(simcore.similarity(cap, img, "cosine"), 0.0))
        text_scores.append(100.0 * max(simcore.similarity(cap, ref, "cosine"), 0.0))
    return CaptionScore(
        image_alignment=float(np.mean(image_scores)),
        text_alignment=float(np.mean(text_scores)),
    )


# ---------------------------------------------------------------------------
# Matchers: callables task -> predicted 0-based gallery index

Matcher = Callable[[GalleryTask], int]


class ArgmaxMatcher:
    """Similarity argmax over each task's gallery, with vectors from
    ``vector(image_id)``; of exactly equal scores the lowest index wins.
    BLAS may round the scores of two copies of one vector differently."""

    def __init__(self, vector: Callable[[str], np.ndarray], view: str, kind: str):
        self._vector = vector
        self._view = view
        self._kind = kind

    def predict(self, tasks: Sequence[GalleryTask]) -> list[int]:
        """The predicted 0-based gallery index of every task, in one batched pass."""
        vector = self._vector
        failed = None

        def rows():
            nonlocal failed
            for task in tasks:
                try:
                    row = [vector(task.query_id), *map(vector, task.gallery_ids)]
                except (KeyError, IlrkitError) as exc:  # raised once the tasks before it are scored
                    failed = task, exc
                    return
                yield row

        best = simcore.match_batch(rows(), self._kind)
        if failed is not None:
            task, exc = failed
            if isinstance(exc, KeyError):
                raise DataValidationError(
                    f"task {task.task_id!r}: image {exc.args[0]!r} is not in the {self._view}"
                ) from exc
            raise exc
        return best

    def __call__(self, task: GalleryTask) -> int:
        return self.predict([task])[0]


def similarity_matcher(view: EmbeddingSet, kind: str = "cosine") -> ArgmaxMatcher:
    """Plain feature-similarity argmax over the gallery, on one encoder view."""
    return ArgmaxMatcher(view.vector, f"{view.encoder_name!r} embedding set", kind)


def fused_matcher(
    adapter: fusion.FusionAdapter,
    token_maps: Mapping[str, TokenFeatureMap],
    expert_vectors: Mapping[str, np.ndarray],
) -> ArgmaxMatcher:
    """Cosine argmax over mean-pooled fused token features.

    Each image is pooled once per matcher, on its first appearance.
    """
    cache: dict[str, np.ndarray] = {}

    def pooled(image_id: str) -> np.ndarray:
        vec = cache.get(image_id)
        if vec is None:
            vec = fusion.pooled_fused(adapter, token_maps[image_id], expert_vectors[image_id])
            cache[image_id] = vec
        return vec

    return ArgmaxMatcher(pooled, "token maps or expert vectors", "cosine")


def matcher_accuracy(tasks: Sequence[GalleryTask], matcher: Matcher) -> float:
    """Fraction of tasks answered right: one batched pass for an
    ArgmaxMatcher, one call per task for any other matcher."""
    if not tasks:
        raise DataValidationError("no tasks")
    if isinstance(matcher, ArgmaxMatcher):
        predictions = matcher.predict(tasks)
    else:
        predictions = [matcher(task) for task in tasks]
    return sum(p == t.answer_index for p, t in zip(predictions, tasks)) / len(tasks)


@dataclass
class SweepResult:
    accuracies: dict[str, dict[float, float]]  # matcher -> tau -> accuracy
    gaps: dict[str, dict[float, float]]  # matcher (non-baseline) -> tau -> gap
    baseline: str

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "accuracies": {
                m: {f"{t:g}": a for t, a in sorted(row.items())}
                for m, row in sorted(self.accuracies.items())
            },
            "gaps": {
                m: {f"{t:g}": g for t, g in sorted(row.items())}
                for m, row in sorted(self.gaps.items())
            },
        }


def sweep_difficulty(
    general: EmbeddingSet,
    split_side,
    matchers: Mapping[str, Matcher],
    taus: Sequence[float] = (0.2, 0.5, 0.8),
    k: int = dataengine.DEFAULT_K,
    n_tasks: int = 200,
    seed: int = 0,
) -> SweepResult:
    """Accuracy of each matcher at each difficulty tier, plus the per-tau
    gap of every other matcher over the "general" baseline matcher."""
    baseline = "general"
    if len(taus) < 2:
        raise DataValidationError("need at least 2 taus to sweep")
    if baseline not in matchers:
        raise DataValidationError(f"baseline matcher {baseline!r} not supplied")
    accuracies: dict[str, dict[float, float]] = {name: {} for name in matchers}
    for tau in taus:
        tasks = dataengine.build_gallery_tasks(
            general, split_side, k=k, tau=tau, n_tasks=n_tasks, seed=seed,
            task_prefix=f"s{tau:g}-",
        )
        for name, matcher in matchers.items():
            accuracies[name][tau] = matcher_accuracy(tasks, matcher)
    gaps = {
        name: {tau: accuracies[name][tau] - accuracies[baseline][tau] for tau in taus}
        for name in matchers
        if name != baseline
    }
    return SweepResult(accuracies=accuracies, gaps=gaps, baseline=baseline)
