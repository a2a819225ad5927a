"""Synthetic dual-view instance data generator.

Produces a raw view carrying a clean instance signal, a coarse general
view obtained through a random projection (which attenuates the instance
signal and makes same-cluster instances highly similar), and per-image
token maps sharing the general view's identity signal. Everything is
deterministic from the config seed; each entity (projection, cluster,
instance, image) draws from its own hashed sub-stream, so adding
instances does not perturb existing ones, and any range of clusters can
be generated apart from the rest. The views are built as columns (id
lists and float32 blocks), not as one record per image. With split reads
on (``embedstore.split_reads``, which the CLI enters when --threads is
above 1), a forked worker generates the second half of the clusters
while this process generates the first, for the same arrays.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .embedstore import EmbeddingSet, TokenFeatureMap, splitting, token_maps_of
from .errors import DataValidationError
from .stage import fork_job

logger = logging.getLogger(__name__)

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
    """Generate the synthetic bundle deterministically from config.seed.

    The views are built as columns: the ids as lists, and the raw, general
    and token arrays as float32 blocks. Within ``embedstore.split_reads``, a
    forked worker (``stage.fork_job``) generates the second half of the
    ordered clusters while this process generates the first, and the
    worker's blocks become the second block of each view. Since every
    entity draws from its own sub-stream, the arrays are those of a serial
    run. When no worker can be forked, or it fails in any way, this process
    generates that half too, so the bundle, or the error and its message,
    is always a serial run's."""
    config.validate()
    proj = _rng(config.seed, "projection").standard_normal((config.dim_general, config.dim_raw))
    clusters = [
        (category, f"{category}_c{ki:03d}")
        for category in config.category_names()
        for ki in range(config.clusters_per_category)
    ]
    mid = (len(clusters) + 1) // 2
    if splitting() and mid < len(clusters):
        parts = _halves(config, proj, clusters[:mid], clusters[mid:])
    else:
        parts = [_columns(config, proj, clusters)]
    image_ids, instance_ids, categories = (
        list(itertools.chain.from_iterable(part[i] for part in parts)) for i in range(3)
    )
    raw, general, tokens = ([part[i] for part in parts] for i in range(3, 6))
    return SynthBundle(
        raw_set=EmbeddingSet.from_columns(
            "raw", config.dim_raw, image_ids, instance_ids, categories, raw),
        general_set=EmbeddingSet.from_columns(
            "general", config.dim_general, image_ids, instance_ids, categories, general),
        token_maps=token_maps_of(image_ids, tokens),
        ground_truth=dict(zip(image_ids, instance_ids)),
    )


def _halves(config: SynthConfig, proj: np.ndarray, first: list, second: list) -> list[tuple]:
    """The columns of the clusters ``first``, generated here while a forked
    worker generates those of ``second``, and then the worker's; this
    process generates ``second`` as well when the worker cannot be forked,
    raises or dies. An error of ``first`` is raised with the worker killed."""
    try:
        worker = fork_job(lambda: _columns(config, proj, second),
                          "second half of the synthetic bundle")
    except OSError:  # no process or memory to fork
        worker = None
    tail = None
    try:
        head = _columns(config, proj, first)
        if worker is not None:
            try:
                tail = worker.result()
            except Exception as exc:  # noqa: BLE001 - any fault: the half is generated here
                logger.info("synthetic bundle: the worker's half failed (%s); generating it here",
                            exc)
    finally:
        if worker is not None:
            worker.kill()  # a worker still running when the first half failed
    return [head, tail if tail is not None else _columns(config, proj, second)]


def _columns(config: SynthConfig, proj: np.ndarray, clusters: list) -> tuple:
    """The image, instance and category ids of the images of ``clusters``
    (``(category, cluster_id)`` pairs), in order, and their float32 raw,
    general and token arrays. A non-finite value raises the error the
    per-record checks of EmbeddingRecord and TokenFeatureMap give, for the
    first image that holds one, once the images before it are generated."""
    per_instance = config.images_per_instance
    n = len(clusters) * config.instances_per_cluster * per_instance
    image_ids: list[str] = []
    instance_ids: list[str] = []
    categories: list[str] = []
    raw = np.empty((n, config.dim_raw), dtype=np.float32)
    general = np.empty((n, config.dim_general), dtype=np.float32)
    tokens = np.empty((n, config.n_tokens, config.dim_general), dtype=np.float32)
    # one instance's float64 draws and general vectors
    eps = np.empty((per_instance, config.dim_raw))
    noise = np.empty((per_instance, config.n_tokens, config.dim_general))
    unit = np.empty((per_instance, config.dim_general))
    try:
        for category, cluster_id in clusters:
            centroid = _unit(_rng(config.seed, "cluster", cluster_id).standard_normal(config.dim_raw))
            for j in range(config.instances_per_cluster):
                instance_id = f"{cluster_id}_i{j:03d}"
                u = _rng(config.seed, "instance", instance_id).standard_normal(config.dim_raw)
                u = u - (u @ centroid) * centroid  # confusability governed by alpha alone
                u = _unit(u)
                ids = [f"{instance_id}_v{m:02d}" for m in range(per_instance)]
                for m, image_id in enumerate(ids):
                    _rng(config.seed, "image", image_id).standard_normal(out=eps[m])
                    _rng(config.seed, "tokens", image_id).standard_normal(out=noise[m])
                views = centroid + config.alpha * u + config.sigma * eps
                for m, view in enumerate(views):
                    unit[m] = _unit(proj @ view)
                rows = slice(len(image_ids), len(image_ids) + per_instance)
                raw[rows] = views
                general[rows] = unit
                tokens[rows] = unit[:, None, :] + config.sigma * noise
                image_ids += ids
                instance_ids += [instance_id] * per_instance
                categories += [category] * per_instance
    except DataValidationError:  # a degenerate vector: an earlier non-finite value comes first
        _check_finite(image_ids, raw, general, tokens)
        raise
    _check_finite(image_ids, raw, general, tokens)
    return image_ids, instance_ids, categories, raw, general, tokens


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
