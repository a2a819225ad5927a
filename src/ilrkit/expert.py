"""Toy instance-recognition expert: a linear embedding head trained with
instance classification plus batch-hard triplet loss.

The frozen raw view stands in for a vision backbone; the head maps raw
vectors to unit-normalized instance embeddings. Classification prototypes
are trained jointly and discarded after training. All gradients are
analytic and checked against finite differences in the test suite.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .embedstore import EmbeddingSet
from .errors import DataValidationError, DivergenceError

logger = logging.getLogger(__name__)

_NORM_EPS = 1e-12


@dataclass
class ExpertHead:
    """Linear embedding head producing unit-normalized identity vectors."""

    w: np.ndarray  # (d_raw, d_out)
    b: np.ndarray  # (d_out,)
    margin: float = 0.3
    loss_weights: tuple[float, float] = (1.0, 1.0)  # (classification, triplet)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise DataValidationError("inconsistent head parameter shapes")
        if self.w.shape[1] < 2:
            raise DataValidationError("d_out must be >= 2")
        if self.margin < 0:
            raise DataValidationError("margin must be >= 0")
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.b))):
            raise DivergenceError("non-finite head parameters")


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


def _pairwise_dist(embeddings: np.ndarray) -> np.ndarray:
    sq = np.add.reduce(embeddings * embeddings, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (embeddings @ embeddings.T)
    return np.sqrt(np.maximum(d2, 0.0))


@functools.cache
def _off_diagonal(n: int) -> np.ndarray:
    """The (n, n) mask of every pair but an item with itself (read-only)."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _hard_indices(embeddings: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per anchor, the index of its farthest same-code and its nearest
    other-code sample; ``codes`` are non-negative integer labels. Ties break
    by lowest index (the first occurrence of a masked argmax/argmin)."""
    counts = np.bincount(codes)
    if np.count_nonzero(counts) < 2 or (counts == 1).any():
        raise DataValidationError(
            "batch must contain >= 2 instances with >= 2 samples each"
        )
    dist = _pairwise_dist(embeddings)
    same = codes[:, None] == codes[None, :]
    positives = np.where(same & _off_diagonal(len(codes)), dist, -np.inf)
    negatives = np.where(same, np.inf, dist)
    return positives.argmax(axis=1), negatives.argmin(axis=1)


@dataclass(frozen=True)
class ExpertTrainConfig:
    d_out: int = 64
    margin: float = 0.3
    loss_weights: tuple[float, float] = (1.0, 1.0)
    p_instances: int = 8
    q_images: int = 4
    step_size: float = 0.15
    epochs: int = 30
    seed: int = 0


def combined_loss_and_grads(
    head: ExpertHead,
    prototypes: np.ndarray,
    x: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Classification + batch-hard triplet loss with analytic gradients.

    Returns (loss, grad_w, grad_b, grad_prototypes). ``labels`` are
    integer indices into the prototype columns. The softmax is computed in
    place in the logits buffer, which then holds the logit gradient. The
    two products back through the prototypes run on contiguous operands
    into contiguous results, and a loss weight multiplies the gradients in
    place, unless it is 1. The hard triplets are mined as index arrays (by
    ``_hard_indices``), and their gradient is scattered into
    the embedding gradient by one 1-D ``np.add.at`` in the order of a loop
    over anchors, from flag, index and value arrays filled column by
    column. Every floating-point operation and its order are those of
    ``tests/reference.py``, so the results are bit-equal to it.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    batch, d = x.shape[0], head.w.shape[1]
    cw, tw = head.loss_weights

    y = x @ head.w + head.b
    # what np.linalg.norm(y, axis=1, keepdims=True) computes for real input
    norms = np.sqrt(np.add.reduce(y * y, axis=1, keepdims=True))
    if (norms < _NORM_EPS).any():
        raise DataValidationError("zero embedding cannot be normalized")
    e = y / norms

    # classification term; dlogits is the softmax, computed in place
    dlogits = e @ prototypes
    dlogits -= dlogits.max(axis=1, keepdims=True)
    np.exp(dlogits, out=dlogits)
    dlogits /= dlogits.sum(axis=1, keepdims=True)
    rows = np.arange(batch)
    # what -np.mean(...) computes for a 1-D float64 array
    ce = -(np.add.reduce(np.log(np.maximum(dlogits[rows, labels], 1e-300))) / batch)

    dlogits[rows, labels] -= 1.0
    dlogits /= batch
    # e.T @ dlogits and dlogits @ prototypes.T, each with contiguous operands
    # and a contiguous result, which the flat scatter below needs; the same
    # products, and faster. A loss weight of 1 multiplies exactly, so skip it.
    grad_protos = np.ascontiguousarray(e.T) @ dlogits
    de = np.ascontiguousarray((prototypes @ dlogits.T).T)
    if cw != 1.0:
        grad_protos *= cw
        de *= cw

    # batch-hard triplet term, as arrays in the order of a loop over anchors
    p, n = _hard_indices(e, labels)
    diff_p, diff_n = e - e[p], e - e[n]
    # stacked (1, d) @ (d, 1) products: the dot products np.linalg.norm takes
    d_ap = np.sqrt((diff_p[:, None, :] @ diff_p[:, :, None])[:, 0, 0])
    d_an = np.sqrt((diff_n[:, None, :] @ diff_n[:, :, None])[:, 0, 0])
    hinge = d_ap - d_an + head.margin
    live = hinge > 0
    tri_loss = sum(hinge[live].tolist()) / batch
    coef = tw / batch
    use_p = live & (d_ap > _NORM_EPS)
    use_n = live & (d_an > _NORM_EPS)
    g_p = coef * diff_p / np.where(use_p, d_ap, 1.0)[:, None]
    g_n = coef * diff_n / np.where(use_n, d_an, 1.0)[:, None]
    # per anchor: de[a] += g_p, de[p] -= g_p, de[a] -= g_n, de[n] += g_n, as
    # one flat index per element of de; each element takes its additions in
    # this order, as a 2-D np.add.at over the rows would, but faster. Each
    # array is filled a column at a time, which is cheaper than np.stack.
    use = np.empty((batch, 4), dtype=bool)
    use[:, 0] = use[:, 1] = use_p
    use[:, 2] = use[:, 3] = use_n
    target = np.empty((batch, 4), dtype=np.intp)
    target[:, 0] = target[:, 2] = rows
    target[:, 1], target[:, 3] = p, n
    values = np.empty((batch, 4, d))
    values[:, 0] = g_p
    np.negative(g_p, out=values[:, 1])
    np.negative(g_n, out=values[:, 2])
    values[:, 3] = g_n
    target = target[use]
    np.add.at(de.reshape(-1), (target[:, None] * d + np.arange(d)).ravel(), values[use].ravel())

    # back through normalization: e = y / |y|
    dy = (de - np.add.reduce(de * e, axis=1, keepdims=True) * e) / norms
    grad_w = x.T @ dy
    grad_b = np.add.reduce(dy, axis=0)
    loss = cw * ce + tw * tri_loss
    if not math.isfinite(loss):
        raise DivergenceError("non-finite expert loss")
    return loss, grad_w, grad_b, grad_protos


class _BatchSampler:
    """P instances x Q images batch sampler over a raw set.

    An epoch is drawn with two generator calls, whatever the number of
    instances: a permutation of the instances and one block of uniform
    keys, a row per instance (in sorted order) and a column per image slot.
    An instance takes the images of its first ``min(Q, n_images)`` keys in
    a stable sort of its row; padding slots hold ``+inf`` keys and sort
    last. That is a uniform Q-subset without replacement of its images.
    """

    def __init__(self, raw_set: EmbeddingSet, p_instances: int, q_images: int):
        self.p = p_instances
        self.q = q_images
        index = raw_set.instance_index
        instances = sorted(index)
        if len(instances) < 2 or self.p < 2 or self.q < 2:
            raise DataValidationError("need >= 2 instances and P, Q >= 2")
        for inst in instances:
            if len(index[inst]) < 2:
                raise DataValidationError(f"training instance {inst!r} has a single image")
        counts = np.array([len(index[inst]) for inst in instances])
        slots = np.arange(counts.max())
        self.pad = slots >= counts[:, None]
        # the raw-set rows of each instance's images, in record order, padded
        self.image_rows = np.zeros(self.pad.shape, dtype=np.intp)
        self.image_rows[~self.pad] = [raw_set.row_of(i) for inst in instances for i in index[inst]]
        self.takes = np.minimum(self.q, counts)
        # which of an instance's first Q picks it keeps: its first ``takes``
        self.kept = slots[: self.q] < self.takes[:, None]

    def epoch_batches(self, rng: np.random.Generator):
        """The epoch laid out at once: ``(rows, labels, edges)``, batch ``i``
        being ``rows[edges[i]:edges[i + 1]]`` with its labels. A label is
        its instance's position in sorted order. Batches hold P instances
        in the drawn order; the last may hold fewer, but never one alone,
        so a lone trailing instance sits the epoch out."""
        n = len(self.takes)
        order = rng.permutation(n)
        keys = rng.random(self.pad.shape)
        keys[self.pad] = np.inf
        picks = np.argsort(keys, axis=1, kind="stable")[:, : self.q]
        picked = np.take_along_axis(self.image_rows, picks, axis=1)
        order = order[: n - (n % self.p == 1)]
        rows = picked[order][self.kept[order]]
        takes = self.takes[order]
        bounds = np.concatenate([[0], np.cumsum(takes)])
        return rows, np.repeat(order, takes), bounds[np.r_[0 : len(order) : self.p, len(order)]]


# Every non-finite value in training raises DivergenceError, so numpy's
# floating-point warnings would only print the same fault before it.
@np.errstate(all="ignore")
def train_expert(
    raw_set: EmbeddingSet, config: ExpertTrainConfig = ExpertTrainConfig()
) -> ExpertHead:
    """Train the expert head on a raw-view set; deterministic per seed."""
    instances = sorted(raw_set.instance_index)
    d_raw = raw_set.dimension

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xE8]))
    lim = 1.0 / math.sqrt(d_raw)
    head = ExpertHead(
        w=rng.uniform(-lim, lim, size=(d_raw, config.d_out)),
        b=np.zeros(config.d_out),
        margin=config.margin,
        loss_weights=config.loss_weights,
    )
    lim = 1.0 / math.sqrt(config.d_out)
    prototypes = rng.uniform(-lim, lim, size=(head.w.shape[1], len(instances)))

    sampler = _BatchSampler(raw_set, config.p_instances, config.q_images)
    matrix = np.asarray(raw_set.matrix(), dtype=np.float64)

    for epoch in range(config.epochs):
        epoch_loss, n_batches = 0.0, 0
        rows, labels, edges = sampler.epoch_batches(rng)
        x = matrix[rows]  # one gather per epoch; a batch is a slice of it
        for start, end in zip(edges[:-1].tolist(), edges[1:].tolist()):
            loss, gw, gb, gp = combined_loss_and_grads(
                head, prototypes, x[start:end], labels[start:end]
            )
            # the gradients are fresh: scale them in place, not via temporaries
            gw *= config.step_size
            head.w -= gw
            gb *= config.step_size
            head.b -= gb
            gp *= config.step_size
            prototypes -= gp
            epoch_loss += loss
            n_batches += 1
        if n_batches and not math.isfinite(epoch_loss):
            raise DivergenceError(f"expert training diverged at epoch {epoch}")
        # a step can overflow the head after the epoch's last loss was taken
        if not (np.isfinite(head.w).all() and np.isfinite(head.b).all()):
            raise DivergenceError(f"expert head diverged at epoch {epoch}")
        logger.info(
            "expert training: epoch %d mean loss %.6f", epoch, epoch_loss / max(n_batches, 1)
        )
    return head
