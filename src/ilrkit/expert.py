"""Toy instance-recognition expert: a linear embedding head fitted in
closed form on the raw view of the training images.

The frozen raw view stands in for a vision backbone; the head maps raw
vectors to unit-normalized instance embeddings. The fit is linear
discriminant analysis, as person re-identification's closed-form metric
learners (LDA; KISSME, Koestinger et al., 2012) fit a linear head: centre
the training images on their mean, whiten their within-instance scatter,
and keep the top ``d_out`` directions of the whitened between-instance
scatter. At the default ``d_out``, the raw width, that is the full
within-instance whitening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedstore import EmbeddingSet
from .errors import DataValidationError, DivergenceError

_NORM_EPS = 1e-12

# The within-instance scatter's regulariser, as a fraction of the training
# images' mean variance per dimension: fixed, and never zero, so a singular
# scatter (identical images, fewer images than dimensions) still whitens.
_RIDGE = 1e-12


@dataclass
class ExpertHead:
    """Linear embedding head producing unit-normalized identity vectors."""

    w: np.ndarray  # (d_raw, d_out)
    b: np.ndarray  # (d_out,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise DataValidationError("inconsistent head parameter shapes")
        if self.w.shape[1] < 2:
            raise DataValidationError("d_out must be >= 2")
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.b))):
            raise DivergenceError("non-finite head parameters")


@dataclass(frozen=True)
class ExpertConfig:
    d_out: int = 64


def embed_set(head: ExpertHead, raw_set: EmbeddingSet) -> EmbeddingSet:
    """Embed every record of a raw set, producing an expert-view EmbeddingSet."""
    if raw_set.dimension != head.w.shape[0]:
        raise DataValidationError(
            f"raw vectors have dimension {raw_set.dimension}, head expects {head.w.shape[0]}"
        )
    y = np.asarray(raw_set.matrix(), dtype=np.float64) @ head.w + head.b
    norms = np.linalg.norm(y, axis=-1, keepdims=True)
    if np.any(norms < _NORM_EPS):
        raise DataValidationError("zero vector cannot be normalized")
    return EmbeddingSet.from_columns(
        "expert", y.shape[1], raw_set.image_ids, raw_set.instance_ids, raw_set.categories,
        (y / norms).astype(np.float32),
    )


def fit_expert(raw_set: EmbeddingSet, config: ExpertConfig = ExpertConfig()) -> ExpertHead:
    """The head fitted on a raw-view set of training images; no seed.

    With mu the images' mean, S_w the covariance of each image about its
    instance's mean and S_b that of each image's instance mean about mu:
    S_w = V diag(l) V^T (np.linalg.eigh), and the whitening is
    V diag(max(l, 0) + r)^-1/2, r being _RIDGE times the mean of the
    diagonal of S_w + S_b. The whitened S_b's eigenvectors, by falling
    eigenvalue, give the columns of w = whitening @ eigenvectors: the first
    min(d_out, d_raw), each signed so that its entry of largest magnitude
    is positive; a column past d_raw is zero. b = -mu w. A single-image
    instance is fitted (it adds no within-instance scatter). Fewer than 2
    instances, or images that are all equal, raise DataValidationError."""
    codes = np.unique(raw_set.instance_ids, return_inverse=True)[1]
    counts = np.bincount(codes)
    if len(counts) < 2:
        raise DataValidationError("the expert fit needs >= 2 training instances")
    x = np.asarray(raw_set.matrix(), dtype=np.float64)
    n, d_raw = x.shape
    mu = x.mean(axis=0)
    centred = x - mu
    means = np.zeros((len(counts), d_raw))
    np.add.at(means, codes, centred)
    means /= counts[:, None]
    between = means[codes]
    within = centred - between
    s_w = within.T @ within / n
    s_b = between.T @ between / n
    variance = (np.trace(s_w) + np.trace(s_b)) / d_raw
    if not variance > 0.0:
        raise DataValidationError("the expert fit needs training images that differ")
    values, vectors = np.linalg.eigh(s_w)
    whitening = vectors / np.sqrt(np.maximum(values, 0.0) + _RIDGE * variance)
    directions = np.linalg.eigh(whitening.T @ s_b @ whitening)[1][:, ::-1]
    m = min(config.d_out, d_raw)
    w = np.zeros((d_raw, config.d_out))
    w[:, :m] = whitening @ directions[:, :m]
    largest = w[np.abs(w).argmax(axis=0), np.arange(config.d_out)]
    w *= np.where(largest < 0.0, -1.0, 1.0)
    return ExpertHead(w, -(mu @ w))
