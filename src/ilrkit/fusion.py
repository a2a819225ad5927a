"""Expert-fusion adapter: attention-weighted identity embedding injection.

The expert identity vector is projected through a two-layer MLP, scored
against every token of the general encoder's feature map with a scaled
dot product, and the softmax-weighted projection is added back to each
token (fuse). A desk-scale training surrogate optimizes the same
parameters on the gallery-matching task via a cosine readout over
mean-pooled fused features, with fully analytic gradients.

The attention weights sum to one, so the pooled fused vector has the
closed form pool(F(x)) = mean(tokens_x) + MLP(e_x) / N_x. Scoring and
training both use it: pooled_fused evaluates it for one image without
the N x d attention pass, and training stacks each image's token mean,
token count and expert vector once, then runs every minibatch as a single
batched forward and backward pass over index rows: one MLP matrix product
over all B*(K+1) images, einsums for the cosine scores, and matrix
products for the gradients, written straight into one flat gradient
vector that an in-place Adam consumes. The per-task
matching_loss_and_grads is the B = 1 case of the same code.

All training math is 64-bit; checkpoints store parameters as 32-bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embedstore import TokenFeatureMap
from .errors import DataValidationError, DivergenceError

logger = logging.getLogger(__name__)


@dataclass
class FusionAdapter:
    """Trainable projector parameters plus the attention temperature."""

    w1: np.ndarray  # (d_e, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h, d)
    b2: np.ndarray  # (d,)
    temperature: float = 1.0

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise DataValidationError("adapter weights must be matrices")
        d_e, h = self.w1.shape
        h2, d = self.w2.shape
        if h2 != h or self.b1.shape != (h,) or self.b2.shape != (d,):
            raise DataValidationError("inconsistent adapter parameter shapes")
        if self.temperature <= 0:
            raise DataValidationError("temperature must be > 0")
        for name in ("w1", "b1", "w2", "b2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DivergenceError(f"non-finite values in adapter parameter {name}")

    @property
    def expert_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def output_dim(self) -> int:
        return self.w2.shape[1]

    def copy(self) -> "FusionAdapter":
        return FusionAdapter(
            self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(), self.temperature
        )


@dataclass(frozen=True)
class FusionOutput:
    fused: np.ndarray  # (N, d)
    attention: np.ndarray  # (N,), non-negative, sums to 1
    projected: np.ndarray  # (d,)


def init_adapter(expert_dim: int, output_dim: int, seed: int = 0) -> FusionAdapter:
    """Seeded uniform init in +/- 1/sqrt(fan_in) with max(expert_dim,
    output_dim) hidden units and temperature 1; final layer scaled by 0.1
    so the initial fusion is a small perturbation of the tokens."""
    hidden = max(expert_dim, output_dim)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADA7]))
    lim1 = 1.0 / math.sqrt(expert_dim)
    lim2 = 1.0 / math.sqrt(hidden)
    return FusionAdapter(
        w1=rng.uniform(-lim1, lim1, size=(expert_dim, hidden)),
        b1=rng.uniform(-lim1, lim1, size=hidden),
        w2=0.1 * rng.uniform(-lim2, lim2, size=(hidden, output_dim)),
        b2=0.1 * rng.uniform(-lim2, lim2, size=output_dim),
    )


def project_expert(adapter: FusionAdapter, expert_vec: Sequence[float]) -> np.ndarray:
    """MLP projection of the expert identity vector into token space."""
    v = np.asarray(expert_vec, dtype=np.float64)
    if v.shape != (adapter.expert_dim,):
        raise DataValidationError(
            f"expert vector has shape {v.shape}, adapter expects ({adapter.expert_dim},)"
        )
    hidden = np.maximum(0.0, v @ adapter.w1 + adapter.b1)
    return hidden @ adapter.w2 + adapter.b2


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - np.max(scores)
    e = np.exp(shifted)
    return e / e.sum()


def _checked_tokens(adapter: FusionAdapter, tokens: TokenFeatureMap | np.ndarray) -> np.ndarray:
    """The (N, d) tokens of one image, checked against the adapter: a
    TokenFeatureMap's float32 matrix as it is, anything else as float64."""
    tok = (tokens.tokens if isinstance(tokens, TokenFeatureMap)
           else np.asarray(tokens, dtype=np.float64))
    if tok.ndim != 2 or tok.shape[0] == 0 or tok.shape[1] != adapter.output_dim:
        raise DataValidationError(
            f"tokens have shape {tok.shape}, adapter expects (N, {adapter.output_dim})"
        )
    return tok


def _token_matrix(adapter: FusionAdapter, tokens: TokenFeatureMap | np.ndarray) -> np.ndarray:
    """The (N, d) tokens of one image as float64, checked against the adapter."""
    return np.asarray(_checked_tokens(adapter, tokens), dtype=np.float64)


def fuse(
    adapter: FusionAdapter,
    tokens: TokenFeatureMap | np.ndarray,
    expert_vec: Sequence[float],
) -> FusionOutput:
    """Add the attention-weighted identity embedding onto every token."""
    tok = _token_matrix(adapter, tokens)
    projected = project_expert(adapter, expert_vec)
    scores = (tok @ projected) / (adapter.temperature * math.sqrt(tok.shape[1]))
    if not np.all(np.isfinite(scores)):
        raise DivergenceError("non-finite attention scores")
    attention = _softmax(scores)
    fused = tok + attention[:, None] * projected[None, :]
    return FusionOutput(fused=fused, attention=attention, projected=projected)


def pooled_fused(
    adapter: FusionAdapter,
    tokens: TokenFeatureMap | np.ndarray,
    expert_vec: Sequence[float],
) -> np.ndarray:
    """Mean over tokens of the fused feature map, in closed form.

    The attention weights sum to one, so the pooled fused vector equals
    mean(tokens) + projected/N and no attention is computed; only the MLP
    carries gradient to the pooled readout.
    """
    tok = _token_matrix(adapter, tokens)
    pooled = tok.mean(axis=0) + project_expert(adapter, expert_vec) / tok.shape[0]
    if not np.all(np.isfinite(pooled)):
        raise DivergenceError("non-finite pooled fused vector")
    return pooled


@dataclass
class AdapterGrads:
    """Gradient of a loss with respect to each adapter parameter."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class MatchingViews:
    """Per-image constants of the pooled surrogate, one row per image.

    pool(F(x)) = token_means[x] + MLP(experts[x]) / token_counts[x].
    """

    token_means: np.ndarray  # (n_img, d)
    token_counts: np.ndarray  # (n_img,) tokens per image, as float
    experts: np.ndarray  # (n_img, d_e)


_MEAN_ROWS = 256  # images whose tokens are stacked for one mean call


def matching_views(
    adapter: FusionAdapter,
    tokens: Sequence[TokenFeatureMap | np.ndarray],
    expert_vecs: Sequence[Sequence[float]],
) -> MatchingViews:
    """Stack the token means, token counts and expert vectors of some images.

    The images are checked one at a time; the means of those with the same
    token count are then taken ``_MEAN_ROWS`` images per call, as the
    float64 mean over axis 1 of their stacked tokens. That adds each
    image's token rows in the order its own ``mean(axis=0)`` does, so the
    means are bit-equal to it.
    """
    n = len(tokens)
    views = MatchingViews(
        token_means=np.empty((n, adapter.output_dim)),
        token_counts=np.empty(n),
        experts=np.empty((n, adapter.expert_dim)),
    )
    mats = []
    by_count: dict[int, list[int]] = {}
    for i, (tok, vec) in enumerate(zip(tokens, expert_vecs)):
        t = _checked_tokens(adapter, tok)
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != (adapter.expert_dim,):
            raise DataValidationError(
                f"expert vector has shape {v.shape}, adapter expects ({adapter.expert_dim},)"
            )
        mats.append(t)
        by_count.setdefault(t.shape[0], []).append(i)
        views.experts[i] = v
    for count, rows in by_count.items():
        views.token_counts[rows] = count
        for start in range(0, len(rows), _MEAN_ROWS):
            part = rows[start : start + _MEAN_ROWS]
            stacked = np.stack([mats[i] for i in part]).astype(np.float64, copy=False)
            views.token_means[part] = stacked.mean(axis=1)
    return views


def _param_views(flat: np.ndarray, like: FusionAdapter) -> list[np.ndarray]:
    """w1, b1, w2, b2 shaped views into consecutive parts of ``flat``."""
    views, start = [], 0
    for p in (like.w1, like.b1, like.w2, like.b2):
        views.append(flat[start : start + p.size].reshape(p.shape))
        start += p.size
    return views


def batch_matching_loss_and_grads(
    adapter: FusionAdapter,
    views: MatchingViews,
    rows: np.ndarray,
    answers: np.ndarray,
    readout_temperature: float = 0.1,
    need_grads: bool = True,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, AdapterGrads | None]:
    """Matching loss of B tasks, and the gradient of their summed loss.

    rows is a (B, K+1) index array into views, query first, then the K
    gallery images; answers holds each task's gallery index of the match.
    Every pooled vector of the batch goes through the MLP in one matrix
    product, and the backward pass is again a few matrix products.
    Returns the (B,) per-task losses and the gradients (None unless
    need_grads). The gradients are views of one flat vector holding them in
    w1, b1, w2, b2 order: ``out``, as long as all the adapter's parameters,
    when given, or a new one.
    """
    b, m = rows.shape
    x = views.experts[rows]  # (B, K+1, d_e)
    z = x @ adapter.w1 + adapter.b1
    a = np.maximum(0.0, z)
    counts = views.token_counts[rows][..., None]
    pooled = views.token_means[rows] + (a @ adapter.w2 + adapter.b2) / counts

    norms = np.sqrt(np.einsum("bmd,bmd->bm", pooled, pooled))
    zero = norms == 0.0
    if zero.any():
        first = int(np.flatnonzero(zero.any(axis=1))[0])
        side = "query" if zero[first, 0] else "gallery"
        raise DataValidationError(f"degenerate zero pooled {side} vector under cosine")
    q, g = pooled[:, :1], pooled[:, 1:]  # (B, 1, d), (B, K, d)
    nq, ng = norms[:, :1, None], norms[:, 1:, None]
    nqng = nq * ng
    cos = np.einsum("bqd,bkd->bk", q, g)[..., None] / nqng  # (B, K, 1)
    scores = cos[..., 0] / readout_temperature
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    picked = np.arange(b)
    losses = -np.log(np.maximum(probs[picked, answers], 1e-300))
    if not np.all(np.isfinite(losses)):
        raise DivergenceError("non-finite matching loss")
    if not need_grads:
        return losses, None

    dscores = probs
    dscores[picked, answers] -= 1.0
    gsc = (dscores / readout_temperature)[..., None]
    # the gradient of each pooled vector: the query's in row 0, the gallery's after
    d_proj = np.empty(pooled.shape)
    np.add.reduce(gsc * (g / nqng - cos * q / (nq * nq)), axis=1, keepdims=True,
                  out=d_proj[:, :1])
    np.multiply(gsc, q / nqng - cos * g / (ng * ng), out=d_proj[:, 1:])
    d_proj /= counts
    d_proj = d_proj.reshape(b * m, -1)
    a, z, x = a.reshape(b * m, -1), z.reshape(b * m, -1), x.reshape(b * m, -1)
    d_z = (d_proj @ adapter.w2.T) * (z > 0)
    if out is None:
        out = np.empty(sum(p.size for p in (adapter.w1, adapter.b1, adapter.w2, adapter.b2)))
    grads = AdapterGrads(*_param_views(out, adapter))
    np.matmul(x.T, d_z, out=grads.w1)
    np.add.reduce(d_z, axis=0, out=grads.b1)
    np.matmul(a.T, d_proj, out=grads.w2)
    np.add.reduce(d_proj, axis=0, out=grads.b2)
    return losses, grads


def _check_gallery(size: int, answer_index: int) -> None:
    if size < 2:
        raise DataValidationError("gallery must contain at least 2 items")
    if not 0 <= answer_index < size:
        raise DataValidationError("answer_index out of range")


def matching_loss_and_grads(
    adapter: FusionAdapter,
    query_tokens: TokenFeatureMap | np.ndarray,
    gallery_tokens: Sequence[TokenFeatureMap | np.ndarray],
    query_expert: Sequence[float],
    gallery_experts: Sequence[Sequence[float]],
    answer_index: int,
    readout_temperature: float = 0.1,
) -> tuple[float, AdapterGrads]:
    """Cross-entropy matching loss over cosine scores of pooled fused features.

    score_i = cos(pool(F(query)), pool(F(gallery_i))) / readout_temperature,
    loss = -log softmax(score)[answer_index]. Gradients are analytic over
    all adapter parameters. This is the B = 1 case of
    batch_matching_loss_and_grads, which training runs.
    """
    _check_gallery(len(gallery_tokens), answer_index)
    if len(gallery_tokens) != len(gallery_experts):
        raise DataValidationError("gallery token maps and expert vectors differ in length")
    views = matching_views(
        adapter, [query_tokens, *gallery_tokens], [query_expert, *gallery_experts]
    )
    rows = np.arange(len(gallery_tokens) + 1)[None, :]
    losses, grads = batch_matching_loss_and_grads(
        adapter, views, rows, np.array([answer_index]), readout_temperature
    )
    return float(losses[0]), grads


@dataclass(frozen=True)
class AdapterTrainConfig:
    step_size: float = 0.02  # Adam step
    epochs: int = 30
    batch_size: int = 8
    seed: int = 0
    readout_temperature: float = 0.1


class _Adam:
    """Deterministic Adam state over one flat parameter vector, updated in
    place through two scratch vectors."""

    def __init__(self, size: int, step: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.step = step
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._s = np.empty(size)
        self._u = np.empty(size)

    def update(self, param: np.ndarray, grad: np.ndarray) -> None:
        """param -= step * mh / (sqrt(vh) + eps), with m = beta1 m + (1 - beta1) g,
        v = beta2 v + (1 - beta2) g g, mh and vh their bias-corrected forms."""
        self.t += 1
        m, v, s, u = self.m, self.v, self._s, self._u
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=s)
        s *= grad
        v += s
        np.divide(m, 1 - self.beta1**self.t, out=s)
        s *= self.step
        np.divide(v, 1 - self.beta2**self.t, out=u)
        np.sqrt(u, out=u)
        u += self.eps
        s /= u
        param -= s


def _flat_adapter(like: FusionAdapter) -> tuple[np.ndarray, FusionAdapter]:
    """A copy of `like` whose parameters are views into one flat vector."""
    flat = np.concatenate([p.ravel() for p in (like.w1, like.b1, like.w2, like.b2)])
    return flat, FusionAdapter(*_param_views(flat, like), like.temperature)


# Tasks per forward pass when scoring the whole task set. The pass holds
# about 12 KB of temporaries per task at the default sizes; 64 tasks keep
# that under 1 MB, where larger chunks raised the pipeline's peak RSS.
_SCORE_CHUNK = 64


def train_adapter(
    adapter_init: FusionAdapter,
    tasks: Sequence,
    token_maps: Mapping[str, TokenFeatureMap],
    expert_vectors: Mapping[str, np.ndarray],
    config: AdapterTrainConfig = AdapterTrainConfig(),
) -> FusionAdapter:
    """Seeded Adam over gallery-matching tasks; deterministic per seed.

    Every image's token mean and expert vector is stacked once, and each
    minibatch is one batch_matching_loss_and_grads call over index rows per
    gallery size it holds (a single call for a single-size task set). The
    calls write the gradient into one preallocated flat vector, laid out as
    the parameters are, and Adam updates that flat parameter vector in
    place; a step allocates no parameter-sized array.
    Returns the trained adapter; if the final epoch's mean loss exceeds the
    initial one, the best epoch's parameters are returned instead.
    """
    if not tasks:
        raise DataValidationError("no training tasks")
    index: dict[str, int] = {}
    for task in tasks:
        for image_id in (task.query_id, *task.gallery_ids):
            if image_id not in token_maps:
                raise DataValidationError(f"missing token map for image {image_id!r}")
            if image_id not in expert_vectors:
                raise DataValidationError(f"missing expert vector for image {image_id!r}")
            index.setdefault(image_id, len(index))
    for task in tasks:
        _check_gallery(len(task.gallery_ids), task.answer_index)
    views = matching_views(
        adapter_init,
        [token_maps[i] for i in index],
        [expert_vectors[i] for i in index],
    )
    # One row table (query first) per gallery size; slot[t] is task t's row
    # in its size's table. A single-size task set is one table in task order.
    sizes = np.array([len(t.gallery_ids) for t in tasks])
    slot = np.empty(len(tasks), dtype=np.intp)
    tables = {}
    for k in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == k)
        slot[members] = np.arange(len(members))
        tables[k] = (
            np.array([[index[i] for i in (tasks[t].query_id, *tasks[t].gallery_ids)]
                      for t in members]),
            np.array([tasks[t].answer_index for t in members]),
        )
    temperature = config.readout_temperature
    flat, adapter = _flat_adapter(adapter_init)
    grad, part_grad = np.empty(flat.size), np.empty(flat.size)

    def batch_loss(current, batch, need_grads=True):
        """Losses of the tasks in `batch`, in its order; their summed flat
        gradient goes into `grad`."""
        if len(tables) == 1:
            ((rows, answers),) = tables.values()
            return batch_matching_loss_and_grads(
                current, views, rows[batch], answers[batch], temperature, need_grads, grad
            )[0]
        losses, first = np.empty(len(batch)), True
        for k, (rows, answers) in tables.items():
            in_k = sizes[batch] == k
            if not in_k.any():
                continue
            picked = slot[batch[in_k]]
            losses[in_k], _ = batch_matching_loss_and_grads(
                current, views, rows[picked], answers[picked], temperature, need_grads,
                grad if first else part_grad,
            )
            if need_grads and not first:
                np.add(grad, part_grad, out=grad)
            first = False
        return losses

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7A1]))

    def mean_loss(current):
        losses = [
            batch_loss(current, np.arange(s, min(s + _SCORE_CHUNK, len(tasks))), False)
            for s in range(0, len(tasks), _SCORE_CHUNK)
        ]
        return sum(np.concatenate(losses).tolist()) / len(tasks)

    initial_loss = mean_loss(adapter)
    best_loss, best = initial_loss, adapter.copy()
    logger.info("adapter training: initial mean loss %.6f over %d tasks", initial_loss, len(tasks))

    optimizer = _Adam(flat.size, config.step_size)
    order = np.arange(len(tasks))
    for epoch in range(config.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            losses = batch_loss(adapter, batch)
            for loss in losses.tolist():  # in task order, independent of batching
                epoch_loss += loss
            grad *= 1.0 / len(batch)
            optimizer.update(flat, grad)
            if not np.all(np.isfinite(flat)):
                raise DivergenceError(f"adapter parameters diverged at epoch {epoch}")
        epoch_loss /= len(order)
        if not math.isfinite(epoch_loss):
            raise DivergenceError(f"adapter training diverged at epoch {epoch}")
        if epoch_loss < best_loss:
            best_loss, best = epoch_loss, adapter.copy()
        logger.info("adapter training: epoch %d mean loss %.6f", epoch, epoch_loss)

    final_loss = mean_loss(adapter)
    if final_loss > initial_loss:
        logger.warning(
            "adapter training: final loss %.6f above initial %.6f, returning best checkpoint",
            final_loss,
            initial_loss,
        )
        return best
    return adapter
