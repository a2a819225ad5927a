"""Expert-fusion adapter: attention-weighted identity embedding injection.

The expert identity vector is projected through a two-layer MLP, scored
against every token of the general encoder's feature map with a scaled
dot product, and the softmax-weighted projection is added back to each
token (fuse).

The attention weights sum to one, so the pooled fused vector has the
closed form pool(F(x)) = mean(tokens_x) + MLP(e_x) / N_x, and the
adapter is fitted in closed form (fit_adapter): the MLP is a linear
projector, s (e - mu) P, with P the top principal directions of the
training images' expert vectors and s the scale, from a fixed grid, that
answers the most training tasks under the pooled cosine readout. Because
ReLU(z) - ReLU(-z) = z, the projector fits the MLP's shapes exactly:
w1 = [P, -P, 0], b1 = [-mu P, mu P, 0], w2 = [s I; -s I; 0], b2 = 0.

The fit and the fine-tune take the training tasks stacked once
(stack_tasks): each image's token mean, token count and expert vector as
one row, and the tasks of each gallery size as one table of row numbers.

A desk-scale training surrogate (train_adapter) can fine-tune the same
parameters from the closed form on the gallery-matching task, via a
cosine readout over mean-pooled fused features with fully analytic
gradients. It runs every minibatch as one batched forward and backward
pass per gallery size (batch_matching_loss_and_grads): the B*(K+1)
images are gathered as rows for one MLP matrix product, each pooled
vector is normalised once to a unit vector, the cosine scores are dot
products of unit vectors, and the backward pass runs through the unit
vectors into matrix products for the gradients. Adam updates each
parameter array. The per-task matching_loss_and_grads is the B = 1 case
of the same code.

All fitting and training math is 64-bit; checkpoints store parameters as
32-bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import simcore
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


def _checked_tokens(width: int, tokens: TokenFeatureMap | np.ndarray) -> np.ndarray:
    """The (N, width) tokens of one image: a TokenFeatureMap's float32
    matrix as it is, anything else as float64."""
    tok = (tokens.tokens if isinstance(tokens, TokenFeatureMap)
           else np.asarray(tokens, dtype=np.float64))
    if tok.ndim != 2 or tok.shape[0] == 0 or tok.shape[1] != width:
        raise DataValidationError(f"tokens have shape {tok.shape}, adapter expects (N, {width})")
    return tok


def _token_matrix(adapter: FusionAdapter, tokens: TokenFeatureMap | np.ndarray) -> np.ndarray:
    """The (N, d) tokens of one image as float64, checked against the adapter."""
    return np.asarray(_checked_tokens(adapter.output_dim, tokens), dtype=np.float64)


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
    adapter: FusionAdapter | None,
    tokens: Sequence[TokenFeatureMap | np.ndarray],
    expert_vecs: Sequence[Sequence[float]],
) -> MatchingViews:
    """Stack the token means, token counts and expert vectors of some images.

    The images are checked one at a time against the adapter's widths or,
    with no adapter, against the first image's token width and expert
    vector size; the means of those with the same token count are then
    taken ``_MEAN_ROWS`` images per call, as the float64 mean over axis 1
    of their stacked tokens. That adds each image's token rows in the
    order its own ``mean(axis=0)`` does, so the means are bit-equal to it.
    """
    if adapter is None:
        d, d_e = np.shape(getattr(tokens[0], "tokens", tokens[0]))[-1], np.size(expert_vecs[0])
    else:
        d, d_e = adapter.output_dim, adapter.expert_dim
    n = len(tokens)
    views = MatchingViews(np.empty((n, d)), np.empty(n), np.empty((n, d_e)))
    mats = []
    by_count: dict[int, list[int]] = {}
    for i, (tok, vec) in enumerate(zip(tokens, expert_vecs)):
        t = _checked_tokens(d, tok)
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != (d_e,):
            raise DataValidationError(
                f"expert vector has shape {v.shape}, adapter expects ({d_e},)")
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


def batch_matching_loss_and_grads(
    adapter: FusionAdapter,
    views: MatchingViews,
    rows: np.ndarray,
    answers: np.ndarray,
    readout_temperature: float = 0.1,
    need_grads: bool = True,
) -> tuple[np.ndarray, AdapterGrads | None]:
    """Matching loss of B tasks, and the gradient of their summed loss.

    rows is a (B, K+1) index array into views, query first, then the K
    gallery images; answers holds each task's gallery index of the match.
    The B*(K+1) images are gathered as rows and go through the MLP in one
    matrix product. Each pooled vector p is normalised once, u = p/|p|,
    and the cosines are dot products of unit vectors. The backward pass
    runs through u: with g the score gradient, dU_q = sum_k g_k u_k and
    dU_k = g_k u_q, then dP = (dU - (dU.u) u) / (|p| N), N the image's
    token count, and the MLP's gradients are matrix products. A zero
    pooled vector is found with one test of all the norms, and located
    only then.

    Returns the (B,) per-task losses and the gradients (None unless
    need_grads).
    """
    b, m = rows.shape
    idx = rows.ravel()
    x = views.experts[idx]
    z = x @ adapter.w1 + adapter.b1
    a = np.maximum(0.0, z)
    counts = views.token_counts[idx][:, None]
    p = (a @ adapter.w2 + adapter.b2) / counts + views.token_means[idx]
    norms = np.sqrt(np.vecdot(p, p))[:, None]
    if not norms.all():  # diagnose only a failing batch
        zero = (norms == 0.0).reshape(b, m)
        first = int(np.flatnonzero(zero.any(axis=1))[0])
        side = "query" if zero[first, 0] else "gallery"
        raise DataValidationError(f"degenerate zero pooled {side} vector under cosine")
    u = p / norms
    uq, ug = u.reshape(b, m, -1)[:, :1], u.reshape(b, m, -1)[:, 1:]  # (B, 1, d), (B, K, d)
    scores = np.vecdot(ug, uq) / readout_temperature
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    picked = np.arange(b)
    losses = -np.log(np.maximum(probs[picked, answers], 1e-300))
    if not np.isfinite(losses).all():
        raise DivergenceError("non-finite matching loss")
    if not need_grads:
        return losses, None
    probs[picked, answers] -= 1.0
    g = probs / readout_temperature  # the score gradient
    du = np.empty((b, m, u.shape[1]))
    du[:, :1] = g[:, None, :] @ ug  # dU_q = sum_k g_k u_k
    du[:, 1:] = g[:, :, None] * uq  # dU_k = g_k u_q
    du = du.reshape(b * m, -1)
    dp = (du - np.vecdot(du, u)[:, None] * u) / (norms * counts)
    dz = (dp @ adapter.w2.T) * (z > 0)
    return losses, AdapterGrads(
        w1=x.T @ dz, b1=dz.sum(axis=0), w2=a.T @ dp, b2=dp.sum(axis=0)
    )


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
    epochs: int = 0  # fine-tuning epochs after the closed-form fit; 0 keeps the fit
    batch_size: int = 8
    seed: int = 0
    readout_temperature: float = 0.1


class _Adam:
    """Deterministic Adam state for one parameter array."""

    def __init__(self, shape: int | tuple[int, ...], step: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.step = step
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def update(self, param: np.ndarray, grad: np.ndarray) -> None:
        """param -= step * mh / (sqrt(vh) + eps), with m = beta1 m + (1 - beta1) g,
        v = beta2 v + (1 - beta2) g g, mh and vh their bias-corrected forms."""
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        mh = self.m / (1 - self.beta1**self.t)
        vh = self.v / (1 - self.beta2**self.t)
        param -= self.step * mh / (np.sqrt(vh) + self.eps)


def _params(x: FusionAdapter | AdapterGrads) -> tuple[np.ndarray, ...]:
    """w1, b1, w2, b2 of an adapter or of its gradients."""
    return x.w1, x.b1, x.w2, x.b2


# Tasks per forward pass when scoring the whole task set. The pass holds
# about 12 KB of temporaries per task at the default sizes; 64 tasks keep
# that under 1 MB, where larger chunks raised the pipeline's peak RSS.
_SCORE_CHUNK = 64


@dataclass(frozen=True)
class TaskStack:
    """Training tasks stacked once: one views row per image (queries and
    galleries, in order of first appearance), and per gallery size k,
    smallest first, the tasks of that size as (rows (T_k, k+1) of view
    rows, query first; answers (T_k,)). Task t is row slot[t] of table
    sizes[t]."""

    views: MatchingViews
    sizes: np.ndarray
    slot: np.ndarray
    tables: dict[int, tuple[np.ndarray, np.ndarray]]


def stack_tasks(tasks: Sequence, token_maps: Mapping[str, TokenFeatureMap],
                expert_vectors: Mapping[str, np.ndarray]) -> TaskStack:
    """The TaskStack of ``tasks``: every image's views (matching_views,
    checked against the first image's widths) and the row tables. No
    tasks, a missing token map or expert vector, a gallery of fewer than 2
    images or an answer out of range raises DataValidationError."""
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
    views = matching_views(None, [token_maps[i] for i in index],
                           [expert_vectors[i] for i in index])
    sizes = np.array([len(t.gallery_ids) for t in tasks])
    slot = np.empty(len(tasks), dtype=np.intp)
    tables = {}
    for k in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == k)
        slot[members] = np.arange(len(members))
        rows = [[index[i] for i in (tasks[t].query_id, *tasks[t].gallery_ids)] for t in members]
        tables[k] = np.array(rows), np.array([tasks[t].answer_index for t in members])
    return TaskStack(views, sizes, slot, tables)


# The scales s that fit_adapter tries, smallest first: a tie goes to the
# smaller scale.
SCALES = tuple(4.0**i for i in range(8))


@dataclass(frozen=True)
class AdapterFit:
    """A closed-form adapter and what chose it: its scale, the fraction of
    training tasks answered at each scale of SCALES, and the number of
    training images its projector was fitted on."""

    adapter: FusionAdapter
    scale: float
    accuracies: dict[float, float]
    images: int


def _principal_directions(centred: np.ndarray, width: int) -> np.ndarray:
    """The (d_e, width) matrix P of the top principal directions of the
    (n, d_e) ``centred`` rows: the eigenvectors of their d_e x d_e scatter
    matrix (np.linalg.eigh), by falling eigenvalue, each signed so that its
    entry of largest magnitude is positive. A column past the rank of the
    scatter (an eigenvalue within rounding of zero, or past d_e) is zero."""
    values, vectors = np.linalg.eigh(centred.T @ centred)
    values, vectors = values[::-1], vectors[:, ::-1]
    d_e = len(values)
    kept = values > max(values[0], 0.0) * d_e * np.finfo(np.float64).eps
    p = np.zeros((d_e, width))
    m = min(width, d_e)
    p[:, :m] = np.where(kept[:m], vectors[:, :m], 0.0)
    largest = p[np.abs(p).argmax(axis=0), np.arange(width)]
    p *= np.where(largest < 0.0, -1.0, 1.0)
    return p


def _closed_form_adapter(mu: np.ndarray, p: np.ndarray, scale: float) -> FusionAdapter:
    """The adapter whose projection is scale * (e - mu) P for every e, in
    hidden width max(d_e, 2d): w1 = [P, -P, 0], b1 = [-mu P, mu P, 0],
    w2 = [scale I; -scale I; 0], b2 = 0, as ReLU(z) - ReLU(-z) = z."""
    d_e, d = p.shape
    hidden = max(d_e, 2 * d)
    w1, b1, w2 = np.zeros((d_e, hidden)), np.zeros(hidden), np.zeros((hidden, d))
    shift = mu @ p
    w1[:, :d], w1[:, d : 2 * d] = p, -p
    b1[:d], b1[d : 2 * d] = -shift, shift
    w2[:d], w2[d : 2 * d] = scale * np.eye(d), -scale * np.eye(d)
    return FusionAdapter(w1, b1, w2, np.zeros(d))


def fit_adapter(stack: TaskStack) -> AdapterFit:
    """The adapter in closed form, from every query and gallery image of
    the training tasks that stack_tasks stacked.

    mu is the mean of those images' expert vectors and P their principal
    directions (_principal_directions) at the token width. The scale
    is the one of SCALES whose pooled fused vectors,
    mean(tokens) + scale (e - mu) P / N, answer the most tasks by cosine
    argmax (simcore.match_batch over each of the stack's tables); of
    equal counts the smaller scale wins. A zero pooled vector raises
    DataValidationError. The stack is left as it was.
    """
    views = stack.views
    mu = views.experts.mean(axis=0)
    centred = views.experts - mu  # a fresh array: the fine-tune reads the same stack
    p = _principal_directions(centred, views.token_means.shape[1])
    shifted = centred @ p
    shifted /= views.token_counts[:, None]
    accuracies, best, most = {}, SCALES[0], -1
    for scale in SCALES:
        pooled = views.token_means + scale * shifted
        correct = sum(
            np.count_nonzero(np.equal(simcore.match_batch(pooled, rows, "cosine"), answers))
            for rows, answers in stack.tables.values())
        accuracies[scale] = correct / len(stack.sizes)
        if correct > most:
            best, most = scale, correct
    return AdapterFit(_closed_form_adapter(mu, p, best), best, accuracies, len(views.experts))


# Every non-finite value in training raises DivergenceError, so numpy's
# floating-point warnings would only print the same fault before it.
@np.errstate(all="ignore")
def train_adapter(
    adapter_init: FusionAdapter,
    stack: TaskStack,
    config: AdapterTrainConfig = AdapterTrainConfig(),
) -> FusionAdapter:
    """Seeded Adam over the gallery-matching tasks that stack_tasks
    stacked; deterministic per seed.

    A minibatch is one batch_matching_loss_and_grads call per gallery
    size it holds, on that size's table of the stack, smallest size
    first; Adam steps on the sum of their gradients over the batch's task
    count, with one state per parameter array. An adapter whose widths
    differ from the stacked images' raises DataValidationError.

    Returns the trained adapter, unless the mean loss of the final
    parameters, taken again over all tasks after the last epoch
    (_SCORE_CHUNK tasks per pass, as the initial mean loss is), exceeds
    the initial one. Then it returns the parameters at the end of the
    epoch whose running mean loss was lowest, or the initial parameters if
    no epoch's was below the initial mean loss.
    """
    views, sizes, slot = stack.views, stack.sizes, stack.slot
    widths = (adapter_init.expert_dim, adapter_init.output_dim)
    if widths != (views.experts.shape[1], views.token_means.shape[1]):
        raise DataValidationError(f"adapter widths {widths} differ from the stacked images'")

    def batch_loss(current, batch, need_grads=True):
        """The losses of the tasks ``batch`` lists, in its order, and the
        gradient of their sum."""
        losses, total = np.empty(len(batch)), None
        for k, (rows, answers) in stack.tables.items():
            in_k = sizes[batch] == k
            if not in_k.any():
                continue
            picked = slot[batch[in_k]]
            losses[in_k], grads = batch_matching_loss_and_grads(
                current, views, rows[picked], answers[picked], config.readout_temperature,
                need_grads,
            )
            if need_grads:
                total = grads if total is None else AdapterGrads(
                    *(t + g for t, g in zip(_params(total), _params(grads))))
        return losses, total

    n = len(sizes)

    def mean_loss(current):
        losses = [batch_loss(current, np.arange(s, min(s + _SCORE_CHUNK, n)), False)[0]
                  for s in range(0, n, _SCORE_CHUNK)]
        return sum(np.concatenate(losses).tolist()) / n

    adapter = adapter_init.copy()
    initial_loss = mean_loss(adapter)
    best_loss, best = initial_loss, adapter.copy()
    logger.info("adapter training: initial mean loss %.6f over %d tasks", initial_loss, n)

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7A1]))
    optimizers = [_Adam(p.shape, config.step_size) for p in _params(adapter)]
    order = np.arange(n)
    for epoch in range(config.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            losses, grads = batch_loss(adapter, batch)
            for loss in losses.tolist():
                epoch_loss += loss
            for optimizer, param, grad in zip(optimizers, _params(adapter), _params(grads)):
                optimizer.update(param, grad * (1.0 / len(batch)))
            if not all(np.isfinite(param).all() for param in _params(adapter)):
                raise DivergenceError(f"adapter parameters diverged at epoch {epoch}")
        epoch_loss /= n
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
