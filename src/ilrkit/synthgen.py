"""Synthetic dual-view instance data generator.

Produces a raw view carrying a clean instance signal, a coarse general
view obtained through a random projection (which attenuates the instance
signal and makes same-cluster instances highly similar), and per-image
token maps sharing the general view's identity signal. Everything is
deterministic from the config seed; each entity (projection, cluster,
instance, image, and each image's tokens) draws from its own hashed
sub-stream, numpy's ``default_rng(SeedSequence([seed, key digest]))``,
so adding instances does not perturb existing ones. The streams of each
kind of entity are set up at once (``streams.Streams``). The views are
built as columns (id lists and one float32 array each), not as one
record per image.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .embedstore import EmbeddingSet, TokenFeatureMap, token_maps_of
from .errors import DataValidationError
from .streams import Streams

DEFAULT_CATEGORIES = ("person", "face", "pet", "object")

_RECALL_BLOCK = 128  # rows of the similarity matrix held at once by recall_at_1


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 7
    n_categories: int = 4
    clusters_per_category: int = 20
    instances_per_cluster: int = 10
    images_per_instance: int = 6
    dim_raw: int = 64
    dim_general: int = 16
    alpha: float = 0.8  # instance-signal scale, tuned via the recall@1 band
    sigma: float = 0.11  # per-image noise scale
    n_tokens: int = 16

    def validate(self) -> None:
        counts = (
            self.n_categories,
            self.clusters_per_category,
            self.instances_per_cluster,
            self.images_per_instance,
            self.dim_raw,
            self.dim_general,
            self.n_tokens,
        )
        if any(c < 1 for c in counts):
            raise DataValidationError("all synth counts and dimensions must be >= 1")
        if self.alpha <= 0:
            raise DataValidationError("alpha must be > 0")
        if self.sigma < 0:
            raise DataValidationError("sigma must be >= 0")
        if self.dim_general > self.dim_raw:
            raise DataValidationError("dim_general must be <= dim_raw")

    def category_names(self) -> list[str]:
        names = list(DEFAULT_CATEGORIES[: self.n_categories])
        names += [f"cat{i}" for i in range(len(names), self.n_categories)]
        return names


@dataclass
class SynthBundle:
    raw_set: EmbeddingSet
    general_set: EmbeddingSet
    token_maps: list[TokenFeatureMap]
    ground_truth: dict[str, str] = field(default_factory=dict)


def _streams(seed: int, keys: Iterable[str]) -> Streams:
    """The stream of each key, seeded with ``[seed, the key's 64-bit
    blake2b digest]``."""
    return Streams([
        [seed, int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "little")]
        for key in keys
    ])


def _unit(v: np.ndarray) -> np.ndarray:
    n = math.sqrt(v.dot(v))  # np.linalg.norm of a 1-D float64 vector
    if n == 0.0:
        raise DataValidationError("degenerate zero vector in generator")
    return v / n


def generate(config: SynthConfig) -> SynthBundle:
    """Generate the synthetic bundle deterministically from config.seed.

    The views are built as columns: the ids as lists, and the raw, general
    and token arrays as one float32 array each. A non-finite value raises the error
    the per-record checks of EmbeddingRecord and TokenFeatureMap give, for
    the first image that holds one, once the images before it are
    generated."""
    config.validate()
    seed, per_cluster, per_instance = (
        config.seed, config.instances_per_cluster, config.images_per_instance)
    clusters = [
        (category, f"{category}_c{ki:03d}")
        for category in config.category_names()
        for ki in range(config.clusters_per_category)
    ]
    instances = [f"{cluster_id}_i{j:03d}" for _, cluster_id in clusters for j in range(per_cluster)]
    image_ids = [f"{instance_id}_v{m:02d}" for instance_id in instances for m in range(per_instance)]
    instance_ids = [instance_id for instance_id in instances for _ in range(per_instance)]
    categories = [category for category, _ in clusters for _ in range(per_cluster * per_instance)]
    proj = _streams(seed, ["projection"])[0].standard_normal((config.dim_general, config.dim_raw))
    cluster_rngs = _streams(seed, (f"cluster/{cluster_id}" for _, cluster_id in clusters))
    instance_rngs = _streams(seed, (f"instance/{instance_id}" for instance_id in instances))
    image_rngs = _streams(seed, (f"image/{image_id}" for image_id in image_ids))
    token_rngs = _streams(seed, (f"tokens/{image_id}" for image_id in image_ids))
    n = len(image_ids)
    raw = np.empty((n, config.dim_raw), dtype=np.float32)
    general = np.empty((n, config.dim_general), dtype=np.float32)
    tokens = np.empty((n, config.n_tokens, config.dim_general), dtype=np.float32)
    # one instance's float64 draws and general vectors
    eps = np.empty((per_instance, config.dim_raw))
    noise = np.empty((per_instance, config.n_tokens, config.dim_general))
    unit = np.empty((per_instance, config.dim_general))
    done = 0  # the images generated
    try:
        for c in range(len(clusters)):
            centroid = _unit(cluster_rngs[c].standard_normal(config.dim_raw))
            for q in range(c * per_cluster, (c + 1) * per_cluster):
                u = instance_rngs[q].standard_normal(config.dim_raw)
                u = u - (u @ centroid) * centroid  # confusability governed by alpha alone
                u = _unit(u)
                for m in range(per_instance):
                    image_rngs[done + m].standard_normal(out=eps[m])
                    token_rngs[done + m].standard_normal(out=noise[m])
                views = centroid + config.alpha * u + config.sigma * eps
                for m, view in enumerate(views):
                    unit[m] = _unit(proj @ view)
                rows = slice(done, done + per_instance)
                raw[rows] = views
                general[rows] = unit
                tokens[rows] = unit[:, None, :] + config.sigma * noise
                done += per_instance
    except DataValidationError:  # a degenerate vector: an earlier non-finite value comes first
        _check_finite(image_ids[:done], raw, general, tokens)
        raise
    _check_finite(image_ids, raw, general, tokens)
    return SynthBundle(
        raw_set=EmbeddingSet.from_columns(
            "raw", config.dim_raw, image_ids, instance_ids, categories, raw),
        general_set=EmbeddingSet.from_columns(
            "general", config.dim_general, image_ids, instance_ids, categories, general),
        token_maps=token_maps_of(image_ids, tokens),
        ground_truth=dict(zip(image_ids, instance_ids)),
    )


def _check_finite(image_ids: list[str], raw: np.ndarray, general: np.ndarray,
                  tokens: np.ndarray) -> None:
    """Raise the error of the first of ``image_ids`` whose rows hold a
    non-finite value, checked in the order EmbeddingRecord and
    TokenFeatureMap check them: raw, general, then tokens."""
    n = len(image_ids)
    if all(np.isfinite(block[:n]).all() for block in (raw, general, tokens)):
        return
    for image_id, *views in zip(image_ids, raw, general, tokens):
        for kind, view in zip(("record", "record", "token map"), views):
            if not np.isfinite(view).all():
                raise DataValidationError(f"{kind} {image_id!r} contains non-finite values")


def recall_at_1(eset: EmbeddingSet) -> float:
    """Fraction of images whose cosine nearest neighbor (excluding self)
    shares its instance.

    Every instance must have at least two images, otherwise the measure is
    undefined for the lone image.
    """
    for instance_id, image_ids in eset.instance_index.items():
        if len(image_ids) < 2:
            raise DataValidationError(f"instance {instance_id!r} has a single image")
    matrix = np.asarray(eset.matrix(), dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise DataValidationError("cosine recall undefined for zero vectors")
    matrix = matrix / norms[:, None]
    # Row blocks keep the (n, n) similarity matrix from ever being resident.
    nearest = np.empty(len(matrix), dtype=np.intp)
    for start in range(0, len(matrix), _RECALL_BLOCK):
        sims = matrix[start : start + _RECALL_BLOCK] @ matrix.T
        rows = np.arange(len(sims))
        sims[rows, start + rows] = -np.inf
        nearest[start : start + len(sims)] = np.argmax(sims, axis=1)
    labels = eset.instance_ids
    hits = sum(labels[i] == labels[j] for i, j in enumerate(nearest))
    return hits / len(labels)
