"""Synthetic dual-view instance data generator.

Produces a raw view carrying a clean instance signal, a coarse general
view obtained through a random projection (which attenuates the instance
signal and makes same-cluster instances highly similar), and per-image
token maps sharing the general view's identity signal. Everything is
deterministic from the config seed; each entity (projection, cluster,
instance, image) draws from its own hashed sub-stream, so adding
instances does not perturb existing ones.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .embedstore import EmbeddingRecord, EmbeddingSet, TokenFeatureMap
from .errors import DataValidationError

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


def _rng(seed: int, *key: str) -> np.random.Generator:
    digest = hashlib.blake2b("/".join(key).encode(), digest_size=8).digest()
    return np.random.default_rng(np.random.SeedSequence([seed, int.from_bytes(digest, "little")]))


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise DataValidationError("degenerate zero vector in generator")
    return v / n


def generate(config: SynthConfig) -> SynthBundle:
    """Generate the synthetic bundle deterministically from config.seed."""
    config.validate()
    proj = _rng(config.seed, "projection").standard_normal((config.dim_general, config.dim_raw))

    raw_records: list[EmbeddingRecord] = []
    general_records: list[EmbeddingRecord] = []
    token_maps: list[TokenFeatureMap] = []
    ground_truth: dict[str, str] = {}

    for category in config.category_names():
        for ki in range(config.clusters_per_category):
            cluster_id = f"{category}_c{ki:03d}"
            centroid = _unit(_rng(config.seed, "cluster", cluster_id).standard_normal(config.dim_raw))
            for j in range(config.instances_per_cluster):
                instance_id = f"{cluster_id}_i{j:03d}"
                u = _rng(config.seed, "instance", instance_id).standard_normal(config.dim_raw)
                u = u - (u @ centroid) * centroid  # confusability governed by alpha alone
                u = _unit(u)
                for m in range(config.images_per_instance):
                    image_id = f"{instance_id}_v{m:02d}"
                    eps = _rng(config.seed, "image", image_id).standard_normal(config.dim_raw)
                    raw = centroid + config.alpha * u + config.sigma * eps
                    general = _unit(proj @ raw)
                    noise = _rng(config.seed, "tokens", image_id).standard_normal(
                        (config.n_tokens, config.dim_general)
                    )
                    tokens = general[None, :] + config.sigma * noise
                    raw_records.append(EmbeddingRecord(image_id, instance_id, category, raw))
                    general_records.append(EmbeddingRecord(image_id, instance_id, category, general))
                    token_maps.append(TokenFeatureMap(image_id, tokens))
                    ground_truth[image_id] = instance_id

    return SynthBundle(
        raw_set=EmbeddingSet.from_records("raw", raw_records),
        general_set=EmbeddingSet.from_records("general", general_records),
        token_maps=token_maps,
        ground_truth=ground_truth,
    )


def recall_at_1(eset: EmbeddingSet, kind: str = "cosine") -> float:
    """Fraction of images whose nearest neighbor (excluding self) shares its instance.

    Every instance must have at least two images, otherwise the measure is
    undefined for the lone image.
    """
    for instance_id, image_ids in eset.instance_index.items():
        if len(image_ids) < 2:
            raise DataValidationError(f"instance {instance_id!r} has a single image")
    matrix = np.asarray(eset.matrix(), dtype=np.float64)
    if kind == "cosine":
        norms = np.linalg.norm(matrix, axis=1)
        if np.any(norms == 0.0):
            raise DataValidationError("cosine recall undefined for zero vectors")
        matrix = matrix / norms[:, None]
    elif kind != "dot":
        raise DataValidationError(f"unknown similarity kind {kind!r}")
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
