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
from dataclasses import dataclass, field

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


def _normalize_rows(y: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(y, axis=-1, keepdims=True)
    if np.any(norms < _NORM_EPS):
        raise DataValidationError("zero vector cannot be normalized")
    return y / norms


def embed(head: ExpertHead, raw_vec) -> np.ndarray:
    """Unit-normalized identity embedding of one raw vector."""
    v = np.asarray(raw_vec, dtype=np.float64)
    if v.shape != (head.w.shape[0],):
        raise DataValidationError(
            f"raw vector has shape {v.shape}, head expects ({head.w.shape[0]},)"
        )
    return _normalize_rows((v @ head.w + head.b)[None, :])[0]


def embed_set(head: ExpertHead, raw_set: EmbeddingSet, encoder_name: str = "expert") -> EmbeddingSet:
    """Embed every record of a raw set, producing an expert-view EmbeddingSet."""
    if raw_set.dimension != head.w.shape[0]:
        raise DataValidationError(
            f"raw vectors have dimension {raw_set.dimension}, head expects {head.w.shape[0]}"
        )
    y = np.asarray(raw_set.matrix(), dtype=np.float64) @ head.w + head.b
    y = _normalize_rows(y)
    return EmbeddingSet.from_columns(
        encoder_name, y.shape[1], raw_set.image_ids, raw_set.instance_ids, raw_set.categories,
        [y.astype(np.float32)],
    )


def triplet_loss(anchor, positive, negative, margin: float = 0.3) -> float:
    """Hinge triplet loss on unit-normalized embeddings (Euclidean distances)."""
    a, p, n = (
        _normalize_rows(np.asarray(v, dtype=np.float64)[None, :])[0]
        for v in (anchor, positive, negative)
    )
    d_ap = float(np.linalg.norm(a - p))
    d_an = float(np.linalg.norm(a - n))
    return max(0.0, d_ap - d_an + margin)


def _pairwise_dist(embeddings: np.ndarray) -> np.ndarray:
    sq = np.sum(embeddings**2, axis=1)
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
    if np.count_nonzero(counts) < 2 or np.any(counts == 1):
        raise DataValidationError(
            "batch must contain >= 2 instances with >= 2 samples each"
        )
    dist = _pairwise_dist(embeddings)
    same = codes[:, None] == codes[None, :]
    positives = np.where(same & _off_diagonal(len(codes)), dist, -np.inf)
    negatives = np.where(same, np.inf, dist)
    return np.argmax(positives, axis=1), np.argmin(negatives, axis=1)


def batch_hard_mine(embeddings: np.ndarray, labels) -> list[tuple[int, int, int]]:
    """Per anchor: farthest same-label and nearest different-label sample.

    Ties break by lowest index (the first occurrence of a masked
    argmax/argmin). The batch must contain >= 2 labels, each with >= 2
    samples. The triplets (anchor, positive, negative) of the mining that
    combined_loss_and_grads runs.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = list(labels)
    if embeddings.shape[0] != len(labels):
        raise DataValidationError("embedding/label count mismatch")
    code_of: dict = {}
    codes = np.array([code_of.setdefault(lab, len(code_of)) for lab in labels], dtype=np.intp)
    pos, neg = _hard_indices(embeddings, codes)
    return list(zip(range(len(labels)), pos.tolist(), neg.tolist()))


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
    place in the logits buffer, which then holds the logit gradient; the
    hard triplets are mined as index arrays (the mining batch_hard_mine
    reports), and their gradient is scattered into the embedding gradient
    by one 1-D ``np.add.at`` in the order of a loop over anchors.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    batch, d = x.shape[0], head.w.shape[1]
    cw, tw = head.loss_weights

    y = x @ head.w + head.b
    # what np.linalg.norm(y, axis=1, keepdims=True) computes for real input
    norms = np.sqrt(np.add.reduce(y * y, axis=1, keepdims=True))
    if np.any(norms < _NORM_EPS):
        raise DataValidationError("zero embedding cannot be normalized")
    e = y / norms

    # classification term; dlogits is the softmax, computed in place
    dlogits = e @ prototypes
    dlogits -= dlogits.max(axis=1, keepdims=True)
    np.exp(dlogits, out=dlogits)
    dlogits /= dlogits.sum(axis=1, keepdims=True)
    rows = np.arange(batch)
    ce = -np.mean(np.log(np.maximum(dlogits[rows, labels], 1e-300)))

    dlogits[rows, labels] -= 1.0
    dlogits /= batch
    grad_protos = cw * (e.T @ dlogits)
    de = cw * (dlogits @ prototypes.T)

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
    # this order, as a 2-D np.add.at over the rows would, but faster
    use = np.stack([use_p, use_p, use_n, use_n], axis=1)
    target = np.stack([rows, p, rows, n], axis=1)[use]
    np.add.at(
        de.reshape(-1),
        (target[:, None] * d + np.arange(d)).ravel(),
        np.stack([g_p, -g_p, -g_n, g_n], axis=1)[use].ravel(),
    )

    # back through normalization: e = y / |y|
    dy = (de - np.sum(de * e, axis=1, keepdims=True) * e) / norms
    grad_w = x.T @ dy
    grad_b = dy.sum(axis=0)
    loss = cw * ce + tw * tri_loss
    if not math.isfinite(loss):
        raise DivergenceError("non-finite expert loss")
    return loss, grad_w, grad_b, grad_protos


class _BatchSampler:
    """P instances x Q images batch sampler over a raw set."""

    def __init__(self, raw_set: EmbeddingSet, p_instances: int, q_images: int):
        self.p = p_instances
        self.q = q_images
        index = raw_set.instance_index
        self.instances = sorted(index)
        if len(self.instances) < 2 or self.p < 2 or self.q < 2:
            raise DataValidationError("need >= 2 instances and P, Q >= 2")
        for inst in self.instances:
            if len(index[inst]) < 2:
                raise DataValidationError(f"training instance {inst!r} has a single image")
        # the raw-set rows of each instance's images, in record order
        self.rows_of = [
            np.array([raw_set.row_of(image_id) for image_id in index[inst]])
            for inst in self.instances
        ]

    def epoch_batches(self, rng: np.random.Generator):
        """(rows, labels) of each batch; a label is its instance's position
        in sorted order."""
        order = rng.permutation(len(self.instances))
        for start in range(0, len(order) - 1, self.p):
            chosen = order[start : start + self.p]
            if len(chosen) < 2:
                continue
            rows, takes = [], []
            for local in chosen:
                inst_rows = self.rows_of[local]
                take = min(self.q, len(inst_rows))
                rows.append(inst_rows[rng.choice(len(inst_rows), size=take, replace=False)])
                takes.append(take)
            yield np.concatenate(rows), np.repeat(chosen, takes)


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
        for rows, labels in sampler.epoch_batches(rng):
            loss, gw, gb, gp = combined_loss_and_grads(head, prototypes, matrix[rows], labels)
            head.w -= config.step_size * gw
            head.b -= config.step_size * gb
            gp *= config.step_size  # gp is fresh: scale it in place, not via a temporary
            prototypes -= gp
            epoch_loss += loss
            n_batches += 1
        if n_batches and not math.isfinite(epoch_loss):
            raise DivergenceError(f"expert training diverged at epoch {epoch}")
        logger.info(
            "expert training: epoch %d mean loss %.6f", epoch, epoch_loss / max(n_batches, 1)
        )
    return head
